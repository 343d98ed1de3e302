//! The "intuitive" non-pipelined GPU schedule (Figure 4a), modelled once.
//!
//! One kernel per task: every task receives an equal slice of the thread
//! budget and walks its serial phases (tree layers / sum-check rounds /
//! encoder levels) inside that single kernel. As the per-phase workload
//! shrinks, allocated threads idle — the utilization collapse of Figures 4a
//! and 9. [`run_stages_naive`] applies that schedule to *any* stage set, so
//! a baseline differs from the pipelined run it is compared against in
//! nothing but the schedule: the modules' own
//! [`merkle::run_naive`](crate::merkle::run_naive),
//! [`sumcheck::run_naive`](crate::sumcheck::run_naive) and
//! [`encoder::run_naive`](crate::encoder::run_naive) stand in for Simon
//! (GPU Merkle), Icicle (GPU sum-check) and "Ours-np" (the authors' own
//! encoder without pipelining), and every `ProverBackend` baseline goes
//! through the same function.

use batchzk_gpu_sim::{Dir, Gpu, KernelStep, Transfer, Work};

use crate::engine::{BoxedStage, Epoch, PipelineRun};

/// Runs an arbitrary stage set in the kernel-per-task naive model — the
/// single rule behind every naive number in the repository:
///
/// * **one group at a time** — the batch is cut into groups of `concurrent`
///   tasks (clamped to `1..=tasks.len()`), every task of a group holding an
///   equal `total_threads / concurrent` slice of the thread budget, and a
///   group starts only when the previous one has left the device;
/// * **stages and phases serial** — a group walks the stages in order with
///   no cross-stage pipelining. A stage that exposes a
///   [`naive_phases`](crate::engine::PipeStage::naive_phases) decomposition
///   is charged one device step per serial phase, the group's tasks in
///   lockstep — the Figure-4a model, where a task's kernel holds its full
///   thread slice through every small late phase; a stage without phases is
///   charged one step of its aggregate
///   [`StageWork`](crate::engine::StageWork);
/// * **a stage's transfers overlap its first kernel step** — the group's
///   summed H2D and D2H bytes for a stage are issued with that stage's
///   first step on the copy engines (`multi_stream`), so they cost device
///   time only where they outlast that step's kernels; later phases of the
///   stage carry no transfer;
/// * **residency is the pre-load** — `preload_bytes`, the whole batch's
///   working set, is allocated before the first group and freed after the
///   last; per-stage `mem_after` reports are ignored.
///
/// The stage math is exactly the pipelined math — outputs are byte-identical
/// to a [`Pipeline`](crate::engine::Pipeline) run of the same stages — only
/// the schedule (and therefore the clock) differs. The run has no stage
/// structure to attribute cycles to, so `stage_stats` and `lifecycles` are
/// empty; every task of a group reports the group's latency. An empty batch
/// is a no-op returning an empty run that charges no device time.
///
/// # Panics
///
/// Panics if the pre-load does not fit in device memory, or tasks in one
/// group disagree on their phase count (the runner batches groups in
/// lockstep, so it requires a uniform circuit).
pub fn run_stages_naive<T: Send>(
    gpu: &mut Gpu,
    stages: Vec<BoxedStage<T>>,
    tasks: Vec<T>,
    kernel_prefix: &str,
    preload_bytes: u64,
    total_threads: u32,
    concurrent: usize,
) -> PipelineRun<T> {
    let concurrent = concurrent.min(tasks.len()).max(1);
    let threads_per_task = (total_threads as usize / concurrent).max(1) as u32;
    let epoch = Epoch::open(gpu);
    let input_mem = gpu
        .memory()
        .alloc(preload_bytes)
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
    let stats = epoch.close(gpu, &latencies, Vec::new(), Vec::new());
    PipelineRun { outputs, stats }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use batchzk_encoder::{Encoder, EncoderParams};
    use batchzk_field::{Field, Fr};
    use batchzk_gpu_sim::{DeviceProfile, Gpu};
    use batchzk_hash::Prg;
    use batchzk_merkle::MerkleTree;

    use crate::sumcheck::SumcheckTask;
    use crate::{encoder, merkle, sumcheck};

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
        let run = merkle::run_naive(&mut gpu, batch.clone(), 512, 4);
        for (task, blocks) in run.outputs.iter().zip(&batch) {
            assert_eq!(task.root(), MerkleTree::from_blocks(blocks).root());
        }
    }

    #[test]
    fn pipelined_merkle_beats_naive_throughput() {
        // The paper's headline comparison (Table 3): same device, same
        // thread budget, same batch.
        let batch = trees(48, 256);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let naive = merkle::run_naive(&mut gpu, batch.clone(), 1024, 8).stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let piped = merkle::run_pipelined(&mut gpu, batch, 1024)
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
        let naive = merkle::run_naive(&mut gpu, batch.clone(), 256, 1).stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let piped = merkle::run_pipelined(&mut gpu, batch, 256)
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
        let run = sumcheck::run_naive(&mut gpu, tasks, 256, 2);
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
        let run = encoder::run_naive(&mut gpu, Arc::clone(&enc), msgs.clone(), 256, 2);
        for (task, msg) in run.outputs.iter().zip(&msgs) {
            assert_eq!(task.codeword(), &enc.encode(msg)[..]);
        }
    }

    #[test]
    fn naive_utilization_collapses_vs_pipelined() {
        // Figure 9's story: deep trees leave most naive threads idle.
        let batch = trees(32, 512);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let naive = merkle::run_naive(&mut gpu, batch.clone(), 2048, 4).stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let piped = merkle::run_pipelined(&mut gpu, batch, 2048)
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
