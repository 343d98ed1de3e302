//! The "intuitive" non-pipelined GPU baselines (Figure 4a).
//!
//! One kernel per task: every task receives an equal slice of the thread
//! budget and walks its serial phases (tree layers / sum-check rounds /
//! encoder levels) inside that single kernel. As the per-phase workload
//! shrinks, allocated threads idle — the utilization collapse of Figures 4a
//! and 9. These runners stand in for the systems the paper compares against:
//! Simon (GPU Merkle), Icicle (GPU sum-check) and "Ours-np" (the authors'
//! own encoder without pipelining).

use std::sync::Arc;

use batchzk_encoder::Encoder;
use batchzk_field::Field;
use batchzk_gpu_sim::{Dir, Gpu, KernelStep, Transfer, Work};
use batchzk_hash::{hash_block, hash_pair, Digest};

use crate::engine::RunStats;
use crate::sumcheck::SumcheckTask;

/// Output of a naive batch run.
#[derive(Debug)]
pub struct NaiveRun<T> {
    /// Completed task outputs, in input order.
    pub outputs: Vec<T>,
    /// Timing statistics.
    pub stats: RunStats,
}

fn finish_stats(gpu: &Gpu, start_cycles: u64, tasks: usize, latencies: &[u64]) -> RunStats {
    let total_cycles = gpu.elapsed_cycles() - start_cycles;
    let total_ms = gpu.profile().cycles_to_seconds(total_cycles) * 1e3;
    let mean_latency_ms = if latencies.is_empty() {
        0.0
    } else {
        let sum: u64 = latencies.iter().sum();
        gpu.profile()
            .cycles_to_seconds(sum / latencies.len() as u64)
            * 1e3
    };
    RunStats {
        total_cycles,
        total_ms,
        tasks,
        throughput_per_ms: if total_ms > 0.0 {
            tasks as f64 / total_ms
        } else {
            0.0
        },
        mean_latency_ms,
        peak_mem_bytes: gpu.memory_ref().peak(),
        mean_utilization: gpu.mean_utilization(),
        h2d_bytes: gpu.total_h2d_bytes(),
        d2h_bytes: gpu.total_d2h_bytes(),
        // The naive runners have no stage structure to attribute cycles to,
        // and therefore no per-task lifecycle spans either.
        stage_stats: Vec::new(),
        lifecycles: Vec::new(),
    }
}

/// Runs an arbitrary stage set in the kernel-per-task naive model: each
/// group of `concurrent` tasks walks all stages serially (no cross-stage
/// pipelining, no transfer/compute overlap), every task holding an equal
/// `total_threads / concurrent` slice of the thread budget, with the full
/// working set of `preload_bytes` pre-loaded to device memory. The stage
/// math is exactly the pipelined math — outputs are byte-identical to a
/// [`Pipeline`](crate::engine::Pipeline) run of the same stages — only
/// the schedule (and therefore the clock) differs.
///
/// Stages that expose a
/// [`naive_phases`](crate::engine::PipeStage::naive_phases) decomposition
/// are charged one device step per serial phase — the Figure-4a model,
/// where a task's kernel holds its full thread slice through every small
/// late phase. Stages without phases are charged their aggregate
/// [`StageWork`](crate::engine::StageWork). Per-stage `mem_after` reports
/// are ignored: the naive model's residency is the pre-load. An empty
/// batch is a no-op returning an empty run that charges no device time.
///
/// # Panics
///
/// Panics if the pre-load does not fit in device memory, or tasks in one
/// group disagree on their phase count (the runner batches groups in
/// lockstep, so it requires a uniform circuit).
pub fn run_stages_naive<T: Send>(
    gpu: &mut Gpu,
    stages: Vec<crate::engine::BoxedStage<T>>,
    tasks: Vec<T>,
    kernel_prefix: &str,
    preload_bytes: u64,
    total_threads: u32,
    concurrent: usize,
) -> NaiveRun<T> {
    let concurrent = concurrent.min(tasks.len()).max(1);
    let threads_per_task = (total_threads as usize / concurrent).max(1) as u32;
    let start = gpu.elapsed_cycles();
    gpu.memory().reset_peak();
    let input_mem = gpu
        .memory()
        .alloc(preload_bytes, &format!("naive-{kernel_prefix}-inputs"))
        .expect("naive pre-load must fit for this experiment");

    let mut outputs = Vec::with_capacity(tasks.len());
    let mut latencies = Vec::with_capacity(tasks.len());
    let mut queue = tasks;
    while !queue.is_empty() {
        let take = concurrent.min(queue.len());
        let mut group: Vec<T> = queue.drain(..take).collect();
        let group_start = gpu.elapsed_cycles();
        for stage in &stages {
            let works = batchzk_par::par_map_mut(&mut group, |_, task| stage.process(task));
            let h2d: u64 = works.iter().map(|w| w.h2d_bytes).sum();
            let d2h: u64 = works.iter().map(|w| w.d2h_bytes).sum();
            let mut transfers = Vec::new();
            if h2d > 0 {
                transfers.push(Transfer {
                    bytes: h2d,
                    dir: Dir::HostToDevice,
                });
            }
            if d2h > 0 {
                transfers.push(Transfer {
                    bytes: d2h,
                    dir: Dir::DeviceToHost,
                });
            }
            // Phase-granular when the stage provides it (tasks advance
            // their serial phases in lockstep, transfers ride the first
            // step); aggregate otherwise.
            let phase_lists: Vec<Option<Vec<Work>>> =
                group.iter().map(|t| stage.naive_phases(t)).collect();
            if phase_lists.iter().all(Option::is_some) {
                let phases: Vec<Vec<Work>> = phase_lists.into_iter().flatten().collect();
                let depth = phases[0].len();
                assert!(
                    phases.iter().all(|p| p.len() == depth),
                    "ragged phase counts in one naive group"
                );
                for j in 0..depth {
                    let kernels: Vec<KernelStep> = phases
                        .iter()
                        .enumerate()
                        .map(|(i, p)| {
                            KernelStep::new(
                                format!("naive-{kernel_prefix}-task{i}"),
                                threads_per_task,
                                p[j].clone(),
                            )
                        })
                        .collect();
                    gpu.execute_step(&kernels, if j == 0 { &transfers } else { &[] }, true);
                }
            } else {
                let kernels: Vec<KernelStep> = works
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| {
                        KernelStep::new(
                            format!("naive-{kernel_prefix}-task{i}"),
                            threads_per_task,
                            w.work,
                        )
                    })
                    .collect();
                gpu.execute_step(&kernels, &transfers, true);
            }
        }
        let group_latency = gpu.elapsed_cycles() - group_start;
        for task in group {
            outputs.push(task);
            latencies.push(group_latency);
        }
    }
    gpu.memory().free(input_mem);
    let stats = finish_stats(gpu, start, outputs.len(), &latencies);
    NaiveRun { outputs, stats }
}

/// Naive batched Merkle generation (the Simon model): `concurrent` kernels
/// at a time, each building one whole tree with `total_threads/concurrent`
/// threads, all input data pre-loaded to device memory.
///
/// # Panics
///
/// Panics if inputs are empty, ragged, or not power-of-two sized.
pub fn merkle_naive(
    gpu: &mut Gpu,
    trees: Vec<Vec<[u8; 64]>>,
    total_threads: u32,
    concurrent: usize,
) -> NaiveRun<Digest> {
    assert!(!trees.is_empty(), "need at least one tree");
    let n = trees[0].len();
    assert!(
        n.is_power_of_two() && n >= 2,
        "tree size must be a power of two >= 2"
    );
    assert!(trees.iter().all(|t| t.len() == n), "ragged batch");
    let concurrent = concurrent.max(1).min(trees.len());
    let threads_per_task = (total_threads as usize / concurrent).max(1) as u32;
    let node_cost = gpu.cost().merkle_node();
    let start = gpu.elapsed_cycles();
    gpu.memory().reset_peak();

    // Pre-loading: all m trees' blocks resident at once (the mN footprint
    // the paper's §3.1 calls a "huge burden").
    let all_blocks_bytes = (trees.len() * n * 64) as u64;
    let input_mem = gpu
        .memory()
        .alloc(all_blocks_bytes, "naive-merkle-inputs")
        .expect("naive pre-load must fit for this experiment");

    let mut outputs = Vec::with_capacity(trees.len());
    let mut latencies = Vec::with_capacity(trees.len());
    for group in trees.chunks(concurrent) {
        let group_start = gpu.elapsed_cycles();
        // Leaf layer then log N pair layers, all groups in lockstep.
        let mut layers: Vec<Vec<Digest>> = Vec::new();
        let mut units = n as u64;
        // Leaf hashing step.
        let kernels: Vec<KernelStep> = group
            .iter()
            .enumerate()
            .map(|(i, _)| {
                KernelStep::new(
                    format!("naive-merkle-task{i}"),
                    threads_per_task,
                    Work::Uniform {
                        units,
                        cycles_per_unit: node_cost,
                    },
                )
            })
            .collect();
        gpu.execute_step(
            &kernels,
            &[Transfer {
                bytes: (group.len() * n * 64) as u64,
                dir: Dir::HostToDevice,
            }],
            true,
        );
        layers.extend(batchzk_par::par_map(group, |tree| {
            tree.iter().map(hash_block).collect::<Vec<Digest>>()
        }));
        // Reduction layers.
        while units > 1 {
            units /= 2;
            let kernels: Vec<KernelStep> = group
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    KernelStep::new(
                        format!("naive-merkle-task{i}"),
                        threads_per_task,
                        Work::Uniform {
                            units,
                            cycles_per_unit: node_cost,
                        },
                    )
                })
                .collect();
            gpu.execute_step(&kernels, &[], true);
            batchzk_par::par_map_mut(&mut layers, |_, layer| {
                *layer = layer.chunks(2).map(|p| hash_pair(&p[0], &p[1])).collect();
            });
        }
        let group_latency = gpu.elapsed_cycles() - group_start;
        for layer in layers {
            outputs.push(layer[0]);
            latencies.push(group_latency);
        }
    }
    gpu.memory().free(input_mem);
    let stats = finish_stats(gpu, start, outputs.len(), &latencies);
    NaiveRun { outputs, stats }
}

/// Naive batched sum-check generation (the Icicle model).
///
/// # Panics
///
/// Panics if inputs are empty or ragged.
pub fn sumcheck_naive<F: Field>(
    gpu: &mut Gpu,
    tasks: Vec<SumcheckTask<F>>,
    total_threads: u32,
    concurrent: usize,
) -> NaiveRun<SumcheckTask<F>> {
    assert!(!tasks.is_empty(), "need at least one task");
    let n = tasks[0].randomness().len();
    assert!(
        tasks.iter().all(|t| t.randomness().len() == n),
        "ragged batch"
    );
    let concurrent = concurrent.max(1).min(tasks.len());
    let threads_per_task = (total_threads as usize / concurrent).max(1) as u32;
    let pair_cost = gpu.cost().sumcheck_pair() + gpu.cost().shared_access;
    let start = gpu.elapsed_cycles();
    gpu.memory().reset_peak();

    // All m tables resident at once.
    let table_bytes = ((1usize << n) * 32) as u64;
    let input_mem = gpu
        .memory()
        .alloc(table_bytes * tasks.len() as u64, "naive-sumcheck-inputs")
        .expect("naive pre-load must fit for this experiment");

    let mut outputs = Vec::with_capacity(tasks.len());
    let mut latencies = Vec::with_capacity(tasks.len());
    let mut queue = tasks;
    while !queue.is_empty() {
        let take = concurrent.min(queue.len());
        let mut group: Vec<SumcheckTask<F>> = queue.drain(..take).collect();
        let group_start = gpu.elapsed_cycles();
        gpu.execute_step(
            &[],
            &[Transfer {
                bytes: table_bytes * group.len() as u64,
                dir: Dir::HostToDevice,
            }],
            true,
        );
        for round in 0..n {
            let pairs = 1u64 << (n - 1 - round);
            let kernels: Vec<KernelStep> = (0..group.len())
                .map(|i| {
                    KernelStep::new(
                        format!("naive-sumcheck-task{i}"),
                        threads_per_task,
                        Work::Uniform {
                            units: pairs,
                            cycles_per_unit: pair_cost,
                        },
                    )
                })
                .collect();
            gpu.execute_step(&kernels, &[], true);
            batchzk_par::par_map_mut(&mut group, |_, task| task.run_round(round));
        }
        let group_latency = gpu.elapsed_cycles() - group_start;
        for task in group {
            outputs.push(task);
            latencies.push(group_latency);
        }
    }
    gpu.memory().free(input_mem);
    let stats = finish_stats(gpu, start, outputs.len(), &latencies);
    NaiveRun { outputs, stats }
}

/// Naive batched encoding ("Ours-np"): one kernel per message walks all
/// levels serially.
///
/// # Panics
///
/// Panics if inputs are empty or mismatch the encoder.
pub fn encode_naive<F: Field>(
    gpu: &mut Gpu,
    encoder: Arc<Encoder<F>>,
    messages: Vec<Vec<F>>,
    total_threads: u32,
    concurrent: usize,
) -> NaiveRun<Vec<F>> {
    assert!(!messages.is_empty(), "need at least one message");
    assert!(
        messages.iter().all(|m| m.len() == encoder.message_len()),
        "message length must match the encoder"
    );
    let concurrent = concurrent.max(1).min(messages.len());
    let threads_per_task = (total_threads as usize / concurrent).max(1) as u32;
    let cost = *gpu.cost();
    let start = gpu.elapsed_cycles();
    gpu.memory().reset_peak();

    let msg_bytes = (encoder.message_len() * 32) as u64;
    let code_bytes = (encoder.codeword_len() * 32) as u64;
    let input_mem = gpu
        .memory()
        .alloc(code_bytes * messages.len() as u64, "naive-encode-buffers")
        .expect("naive pre-load must fit for this experiment");

    let mut outputs = Vec::with_capacity(messages.len());
    let mut latencies = Vec::with_capacity(messages.len());
    for group in messages.chunks(concurrent) {
        let group_start = gpu.elapsed_cycles();
        gpu.execute_step(
            &[],
            &[Transfer {
                bytes: msg_bytes * group.len() as u64,
                dir: Dir::HostToDevice,
            }],
            true,
        );
        // Forward then backward phases, serial within each kernel. Rows are
        // *not* bucket-sorted here: the non-pipelined baseline also predates
        // the warp-balancing trick.
        let phases: Vec<Vec<u64>> = encoder
            .levels()
            .iter()
            .map(|l| {
                (0..l.a.rows())
                    .map(|i| l.a.row_degree(i) as u64 * cost.spmv_term())
                    .collect()
            })
            .chain(encoder.levels().iter().rev().map(|l| {
                (0..l.b.rows())
                    .map(|i| l.b.row_degree(i) as u64 * cost.spmv_term())
                    .collect()
            }))
            .collect();
        for items in &phases {
            let kernels: Vec<KernelStep> = (0..group.len())
                .map(|i| {
                    KernelStep::new(
                        format!("naive-encode-task{i}"),
                        threads_per_task,
                        Work::Items(items.clone()),
                    )
                })
                .collect();
            gpu.execute_step(&kernels, &[], true);
        }
        outputs.extend(batchzk_par::par_map(group, |msg| encoder.encode(msg)));
        let group_latency = gpu.elapsed_cycles() - group_start;
        for _ in group {
            latencies.push(group_latency);
        }
    }
    gpu.memory().free(input_mem);
    let stats = finish_stats(gpu, start, outputs.len(), &latencies);
    NaiveRun { outputs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_encoder::EncoderParams;
    use batchzk_field::Fr;
    use batchzk_gpu_sim::DeviceProfile;
    use batchzk_hash::Prg;
    use batchzk_merkle::MerkleTree;

    fn trees(count: usize, n: usize) -> Vec<Vec<[u8; 64]>> {
        (0..count)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        let mut b = [0u8; 64];
                        b[..8].copy_from_slice(&((t * n + i) as u64).to_le_bytes());
                        b
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn naive_merkle_roots_correct() {
        let batch = trees(6, 16);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = merkle_naive(&mut gpu, batch.clone(), 512, 4);
        for (root, blocks) in run.outputs.iter().zip(&batch) {
            assert_eq!(*root, MerkleTree::from_blocks(blocks).root());
        }
    }

    #[test]
    fn pipelined_merkle_beats_naive_throughput() {
        // The paper's headline comparison (Table 3): same device, same
        // thread budget, same batch.
        let batch = trees(48, 256);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let naive = merkle_naive(&mut gpu, batch.clone(), 1024, 8).stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let piped = crate::merkle::run_pipelined(&mut gpu, batch, 1024, true)
            .expect("fits")
            .stats;
        assert!(
            piped.throughput_per_ms > naive.throughput_per_ms,
            "pipelined {} <= naive {}",
            piped.throughput_per_ms,
            naive.throughput_per_ms
        );
        // And the naive approach needs far more device memory (mN vs 2N).
        assert!(naive.peak_mem_bytes > 4 * piped.peak_mem_bytes);
    }

    #[test]
    fn naive_latency_beats_pipelined_latency() {
        // Table 6: pipelining trades latency for throughput. The naive
        // scheme devotes the whole thread budget to one tree at a time
        // (concurrent = 1), minimizing per-task latency; the pipelined
        // scheme makes each task traverse log N cycles, each paced by the
        // balanced per-stage workload.
        let batch = trees(8, 1024);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let naive = merkle_naive(&mut gpu, batch.clone(), 256, 1).stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let piped = crate::merkle::run_pipelined(&mut gpu, batch, 256, true)
            .expect("fits")
            .stats;
        assert!(
            naive.mean_latency_ms < piped.mean_latency_ms,
            "naive latency {} >= pipelined {}",
            naive.mean_latency_ms,
            piped.mean_latency_ms
        );
    }

    #[test]
    fn naive_sumcheck_matches_reference() {
        let mut rng = Prg::seed_from_u64(1);
        let n = 6;
        let tasks: Vec<SumcheckTask<Fr>> = (0..4)
            .map(|_| {
                let table: Vec<Fr> = (0..1usize << n).map(|_| Fr::random(&mut rng)).collect();
                let rs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
                SumcheckTask::new(table, rs)
            })
            .collect();
        let reference: Vec<_> = tasks
            .iter()
            .map(|t| batchzk_sumcheck::algorithm1::prove(&mut t.table_snapshot(), t.randomness()))
            .collect();
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = sumcheck_naive(&mut gpu, tasks, 256, 2);
        for (task, expect) in run.outputs.iter().zip(&reference) {
            assert_eq!(task.proof(), &expect[..]);
        }
    }

    #[test]
    fn naive_encode_matches_reference() {
        let enc = Arc::new(Encoder::<Fr>::new(150, EncoderParams::default(), 3));
        let mut rng = Prg::seed_from_u64(2);
        let msgs: Vec<Vec<Fr>> = (0..3)
            .map(|_| (0..150).map(|_| Fr::random(&mut rng)).collect())
            .collect();
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = encode_naive(&mut gpu, Arc::clone(&enc), msgs.clone(), 256, 2);
        for (code, msg) in run.outputs.iter().zip(&msgs) {
            assert_eq!(code, &enc.encode(msg));
        }
    }

    #[test]
    fn naive_utilization_collapses_vs_pipelined() {
        // Figure 9's story: deep trees leave most naive threads idle.
        let batch = trees(32, 512);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let naive = merkle_naive(&mut gpu, batch.clone(), 2048, 4).stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let piped = crate::merkle::run_pipelined(&mut gpu, batch, 2048, true)
            .expect("fits")
            .stats;
        assert!(
            piped.mean_utilization > naive.mean_utilization,
            "pipelined {} <= naive {}",
            piped.mean_utilization,
            naive.mean_utilization
        );
    }
}
