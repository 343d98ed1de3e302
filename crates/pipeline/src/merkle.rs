//! The pipelined Merkle-tree module (§3.1, Figure 4b).
//!
//! A tree over `N` 512-bit blocks needs `log N + 1` serial layers; instead
//! of one kernel per tree, each *layer* gets a dedicated kernel and trees
//! stream through them. Thread allocation follows the paper's geometric
//! split (half the module's threads to the leaf layer, a quarter to the
//! next, ...), data for each tree is loaded one tree per cycle, and each
//! completed layer is stored back to host memory and released — the dynamic
//! load/store scheme that caps device memory at ~2N blocks regardless of
//! batch size.

use batchzk_gpu_sim::{Gpu, Work};
use batchzk_hash::{hash_blocks, Digest};

use crate::engine::{
    allocate_threads, BoxedStage, PipeStage, Pipeline, PipelineError, PipelineRun, StageWork,
};
use crate::naive::run_stages_naive;

/// A Merkle generation task flowing through the pipeline.
#[derive(Debug)]
pub struct MerkleTask {
    /// Input blocks (consumed by the leaf stage).
    blocks: Vec<[u8; 64]>,
    /// Current layer of digests.
    layer: Vec<Digest>,
    /// Set once the root layer is reached.
    root: Option<Digest>,
}

impl MerkleTask {
    /// Creates a task for one tree.
    pub fn new(blocks: Vec<[u8; 64]>) -> Self {
        Self {
            blocks,
            layer: Vec::new(),
            root: None,
        }
    }

    /// The computed root.
    ///
    /// # Panics
    ///
    /// Panics if the task has not finished the pipeline.
    pub fn root(&self) -> Digest {
        self.root.expect("task has not completed the pipeline")
    }
}

/// Leaf stage: hashes the `N` input blocks into `N` leaf digests.
struct LeafStage {
    threads: u32,
    n: usize,
    node_cost: u64,
}

impl PipeStage<MerkleTask> for LeafStage {
    fn name(&self) -> String {
        "merkle-leaf".into()
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut MerkleTask) -> StageWork {
        task.layer = hash_blocks(&task.blocks);
        let blocks = std::mem::take(&mut task.blocks);
        StageWork {
            work: Work::Uniform {
                units: self.n as u64,
                cycles_per_unit: self.node_cost,
            },
            // Dynamic loading: this tree's blocks arrive this cycle...
            h2d_bytes: (blocks.len() * 64) as u64,
            // ...and the computed leaf digests stream back.
            d2h_bytes: (self.n * 32) as u64,
            // Resident: the leaf digests feeding the next stage.
            mem_after: (self.n * 32) as u64,
        }
    }
}

/// Inner stage for layer `level` (`1..=log N`): pair-hashes the previous
/// layer into half as many digests.
struct LayerStage {
    threads: u32,
    level: u32,
    node_cost: u64,
}

impl PipeStage<MerkleTask> for LayerStage {
    fn name(&self) -> String {
        format!("merkle-layer-{}", self.level)
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut MerkleTask) -> StageWork {
        // The layer as its contiguous `left ‖ right` blocks.
        let next = hash_blocks(task.layer.as_flattened().as_chunks().0);
        let units = next.len() as u64;
        task.layer = next;
        if task.layer.len() == 1 {
            task.root = Some(task.layer[0]);
        }
        StageWork {
            work: Work::Uniform {
                units,
                cycles_per_unit: self.node_cost,
            },
            h2d_bytes: 0,
            // Dynamic storing: this layer's digests go back to host; the
            // consumed layer is released from device memory.
            d2h_bytes: units * 32,
            mem_after: units * 32,
        }
    }
}

/// Result of a Merkle batch run, under either schedule.
pub type MerkleRun = PipelineRun<MerkleTask>;

/// The module as a stage set: one leaf stage and `log N` pair-hash stages
/// for a batch of `N`-block trees, each charged `merkle_node` cycles per
/// hash under `gpu`'s cost model. `module_threads` (the paper's `M`) is
/// split `M/2, M/4, ...` to match the layer sizes.
///
/// # Panics
///
/// Panics if `trees` is empty, sizes differ, or the size is not a power of
/// two.
pub fn build_stages(
    gpu: &Gpu,
    trees: &[Vec<[u8; 64]>],
    module_threads: u32,
) -> Vec<BoxedStage<MerkleTask>> {
    assert!(!trees.is_empty(), "need at least one tree");
    let n = trees[0].len();
    assert!(
        n.is_power_of_two() && n >= 2,
        "tree size must be a power of two >= 2"
    );
    assert!(
        trees.iter().all(|t| t.len() == n),
        "all trees in a batch must have equal size"
    );
    // log N pair-hash layers above the leaves.
    let levels = n.trailing_zeros();
    // Work weights: leaf stage does N hashes, layer l does N/2^l.
    let mut weights: Vec<u64> = vec![n as u64];
    for l in 1..=levels {
        weights.push((n >> l) as u64);
    }
    let threads = allocate_threads(module_threads, &weights);
    let node_cost = gpu.cost().merkle_node();

    let mut stages: Vec<BoxedStage<MerkleTask>> = vec![Box::new(LeafStage {
        threads: threads[0],
        n,
        node_cost,
    })];
    for l in 1..=levels {
        stages.push(Box::new(LayerStage {
            threads: threads[l as usize],
            level: l,
            node_cost,
        }));
    }
    stages
}

/// Runs the pipelined module over a batch of equally-sized trees, one
/// kernel per layer with `module_threads` split across them.
///
/// # Errors
///
/// Returns [`PipelineError::OutOfDeviceMemory`] if the working set does not
/// fit in simulated device memory.
///
/// # Panics
///
/// Panics as [`build_stages`] does on an empty or misshapen batch.
pub fn run_pipelined(
    gpu: &mut Gpu,
    trees: Vec<Vec<[u8; 64]>>,
    module_threads: u32,
) -> Result<MerkleRun, PipelineError> {
    let stages = build_stages(gpu, &trees, module_threads);
    let tasks: Vec<MerkleTask> = trees.into_iter().map(MerkleTask::new).collect();
    Pipeline::new(gpu, stages, true).run(tasks)
}

/// Runs the same stages kernel-per-task (the Simon model, Figure 4a):
/// `concurrent` kernels at a time, each building one whole tree with
/// `total_threads / concurrent` threads under
/// [`run_stages_naive`]'s rule, all `m·N` input blocks pre-loaded to device
/// memory (the footprint §3.1 calls a "huge burden").
///
/// # Panics
///
/// Panics as [`build_stages`] does, or if the pre-load does not fit.
pub fn run_naive(
    gpu: &mut Gpu,
    trees: Vec<Vec<[u8; 64]>>,
    total_threads: u32,
    concurrent: usize,
) -> MerkleRun {
    let stages = build_stages(gpu, &trees, total_threads);
    let preload = (trees.len() * trees[0].len() * 64) as u64;
    let tasks: Vec<MerkleTask> = trees.into_iter().map(MerkleTask::new).collect();
    run_stages_naive(
        gpu,
        stages,
        tasks,
        "merkle",
        preload,
        total_threads,
        concurrent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_gpu_sim::DeviceProfile;
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
    fn roots_match_cpu_reference() {
        let batch = trees(5, 16);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = run_pipelined(&mut gpu, batch.clone(), 768).expect("fits");
        assert_eq!(run.outputs.len(), 5);
        for (task, blocks) in run.outputs.iter().zip(&batch) {
            assert_eq!(task.root(), MerkleTree::from_blocks(blocks).root());
        }
    }

    #[test]
    fn memory_stays_near_2n_regardless_of_batch() {
        // §3.1: pipelined memory ~ 2N blocks; the naive approach needs mN.
        // n = 64 gives 7 stages; both batches exceed the pipeline depth so
        // the peak is taken in the fully-occupied steady state.
        let n = 64usize;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let small = run_pipelined(&mut gpu, trees(16, n), 256)
            .expect("fits")
            .stats
            .peak_mem_bytes;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let large = run_pipelined(&mut gpu, trees(48, n), 256)
            .expect("fits")
            .stats
            .peak_mem_bytes;
        // Peak must not grow with batch size (steady state reached by 4).
        assert_eq!(small, large, "peak memory must be batch-size independent");
        // And stays within a small multiple of the input size (2N blocks
        // of digests = N*64 bytes resident + transient copies).
        assert!(large <= (4 * n * 64) as u64, "peak {large}");
    }

    #[test]
    fn steady_state_utilization_beats_short_batch() {
        let n = 64usize;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let short = run_pipelined(&mut gpu, trees(2, n), 512)
            .expect("fits")
            .stats
            .mean_utilization;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let long = run_pipelined(&mut gpu, trees(64, n), 512)
            .expect("fits")
            .stats
            .mean_utilization;
        assert!(
            long > short,
            "steady state should raise utilization: {short} -> {long}"
        );
    }

    #[test]
    fn throughput_improves_with_batch_size() {
        let n = 32usize;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let one = run_pipelined(&mut gpu, trees(1, n), 512)
            .expect("fits")
            .stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let many = run_pipelined(&mut gpu, trees(40, n), 512)
            .expect("fits")
            .stats;
        assert!(many.throughput_per_ms > 2.0 * one.throughput_per_ms);
    }

    #[test]
    fn lifecycle_spans_conserve_stage_accounting() {
        // Per-proof lifecycle spans and the per-stage aggregate accounting
        // are two views of the same cycles: summing a stage's span cycles
        // across all proofs must reproduce that stage's `occupied_cycles`
        // exactly — which in turn decomposes into busy + stall cycles by the
        // engine's own conservation law.
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = run_pipelined(&mut gpu, trees(12, 64), 1024).expect("fits");
        assert_eq!(run.stats.lifecycles.len(), 12);
        for s in &run.stats.stage_stats {
            let spans = run.stats.lifecycles.iter().flat_map(|span| &span.stages);
            let from_spans: u64 = spans
                .filter(|st| st.stage == s.name)
                .map(|st| st.cycles())
                .sum();
            assert_eq!(from_spans, s.occupied_cycles, "stage {}", s.name);
            assert_eq!(
                s.busy_cycles + s.imbalance_stall_cycles + s.memory_stall_cycles,
                s.occupied_cycles,
                "stage {}",
                s.name
            );
        }
        // Every proof visits every stage exactly once, in order, and its
        // stage intervals tile the admission→emission window.
        for span in &run.stats.lifecycles {
            assert_eq!(span.stages.len(), run.stats.stage_stats.len());
            for (ss, stat) in span.stages.iter().zip(&run.stats.stage_stats) {
                assert_eq!(ss.stage, stat.name);
            }
            let tiled: u64 = span.stages.iter().map(|s| s.cycles()).sum();
            assert_eq!(tiled, span.total_cycles());
        }
        // Transfer bytes are conserved between the two views as well.
        let span_h2d: u64 = run.stats.lifecycles.iter().map(|s| s.h2d_bytes()).sum();
        assert_eq!(span_h2d, run.stats.h2d_bytes);
        let span_d2h: u64 = run.stats.lifecycles.iter().map(|s| s.d2h_bytes()).sum();
        assert_eq!(span_d2h, run.stats.d2h_bytes);
    }

    #[test]
    fn naive_cycles_equal_the_hand_written_runner() {
        // `total_cycles` of `naive::merkle_naive` as measured at the last
        // commit that had it (PR 19): the stage-set runner charges a Merkle
        // batch exactly what the hand-written one did — the leaf step's load
        // and every layer's store hide under that step's kernels — so
        // Table 3's naive column did not move when the runner replaced it.
        for (count, n, threads, concurrent, profile, cycles) in [
            (6, 16, 512, 4, DeviceProfile::v100(), 34_440),
            (48, 256, 1024, 8, DeviceProfile::v100(), 243_390),
            (10, 4096, 8192, 4, DeviceProfile::gh200(), 138_648),
        ] {
            let mut gpu = Gpu::new(profile);
            let stats = run_naive(&mut gpu, trees(count, n), threads, concurrent).stats;
            assert_eq!(stats.total_cycles, cycles, "{count} trees of {n}");
            assert_eq!(stats.h2d_bytes, (count * n * 64) as u64);
            assert_eq!(stats.peak_mem_bytes, (count * n * 64) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let _ = run_pipelined(&mut gpu, trees(1, 12), 64);
    }

    #[test]
    #[should_panic(expected = "equal size")]
    fn ragged_batch_rejected() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut batch = trees(2, 16);
        batch[1].truncate(8);
        let _ = run_pipelined(&mut gpu, batch, 64);
    }
}
