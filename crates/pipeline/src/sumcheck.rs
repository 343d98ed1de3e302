//! The pipelined sum-check module (§3.2, Figure 5).
//!
//! Each of the `n` rounds of Algorithm 1 gets a dedicated kernel; input
//! tables stream through them one proof per cycle. Sum-check is
//! memory-bound, so the module's costs are dominated by global accesses,
//! and the tables live in **two recyclable pipeline-level buffers** with the
//! odd/even read/write alternation of Figure 5b — device memory is a
//! function of the table size only, never of the batch size.

use batchzk_field::Field;
use batchzk_gpu_sim::{Gpu, Work};

use crate::engine::{
    allocate_threads, BoxedStage, PipeStage, Pipeline, PipelineError, PipelineRun, StageWork,
};
use crate::naive::run_stages_naive;

/// A sum-check proof-generation task.
#[derive(Debug)]
pub struct SumcheckTask<F> {
    table: Vec<F>,
    /// The per-round random numbers (paper Algorithm 1 input).
    rs: Vec<F>,
    /// Accumulated proof pairs.
    proof: Vec<(F, F)>,
    /// The claimed hypercube sum (recorded at entry for convenience).
    claim: F,
}

impl<F: Field> SumcheckTask<F> {
    /// Creates a task from an evaluation table and its round randomness.
    ///
    /// # Panics
    ///
    /// Panics if `table.len() != 2^{rs.len()}`.
    pub fn new(table: Vec<F>, rs: Vec<F>) -> Self {
        assert_eq!(table.len(), 1usize << rs.len(), "table length must be 2^n");
        let claim = table.iter().copied().sum();
        let proof = Vec::with_capacity(rs.len());
        Self {
            table,
            rs,
            proof,
            claim,
        }
    }

    /// The finished proof in the paper's pair format.
    ///
    /// # Panics
    ///
    /// Panics if the task has not completed all rounds.
    pub fn proof(&self) -> &[(F, F)] {
        assert!(
            self.proof.len() == self.rs.len(),
            "task has not completed the pipeline"
        );
        &self.proof
    }

    /// The claimed sum `H`.
    pub fn claim(&self) -> F {
        self.claim
    }

    /// The randomness the proof was generated under.
    pub fn randomness(&self) -> &[F] {
        &self.rs
    }

    /// A copy of the current (possibly partially folded) table.
    pub fn table_snapshot(&self) -> Vec<F> {
        self.table.clone()
    }

    /// Executes round `round` of Algorithm 1 in place, returning the number
    /// of table pairs processed.
    ///
    /// # Panics
    ///
    /// Panics if rounds are executed out of order.
    fn run_round(&mut self, round: usize) -> usize {
        assert_eq!(self.proof.len(), round, "rounds must run in order");
        let half = self.table.len() / 2;
        let (lo, hi) = self.table.split_at_mut(half);
        self.proof
            .push((lo.iter().copied().sum(), hi.iter().copied().sum()));
        F::fold_halves(lo, hi, self.rs[round]);
        self.table.truncate(half);
        half
    }
}

/// Kernel for round `round` (0-based): folds a `2^{n-round}` table in half.
struct RoundStage {
    threads: u32,
    round: usize,
    pair_cost: u64,
    /// Bytes loaded at entry (round 0 only — dynamic loading).
    load_bytes: u64,
    /// Bytes stored at exit (final round only — the proof).
    store_bytes: u64,
}

impl<F: Field> PipeStage<SumcheckTask<F>> for RoundStage {
    fn name(&self) -> String {
        format!("sumcheck-round-{}", self.round)
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut SumcheckTask<F>) -> StageWork {
        let half = task.run_round(self.round);
        StageWork {
            work: Work::Uniform {
                units: half as u64,
                cycles_per_unit: self.pair_cost,
            },
            h2d_bytes: self.load_bytes,
            d2h_bytes: self.store_bytes,
            // Tables live in the shared double buffers, not per-task memory.
            mem_after: 0,
        }
    }
}

/// Result of a sum-check batch run, under either schedule.
pub type SumcheckRun<F> = PipelineRun<SumcheckTask<F>>;

/// Bytes of one table element on the device.
const ELEM_BYTES: u64 = 32;

/// The module as a stage set: one round stage per variable for a batch
/// of `2^n`-entry tables, round `i` charged `sumcheck_pair + shared_access`
/// cycles for each of its `2^{n-1-i}` pairs under `gpu`'s cost model. The
/// table is loaded by round 0 and the `n` proof pairs stored by the last
/// round; `module_threads` is split proportionally to the pair counts.
///
/// # Panics
///
/// Panics if `tasks` is empty, has no variable, or table sizes differ.
pub fn build_stages<F: Field>(
    gpu: &Gpu,
    tasks: &[SumcheckTask<F>],
    module_threads: u32,
) -> Vec<BoxedStage<SumcheckTask<F>>> {
    assert!(!tasks.is_empty(), "need at least one task");
    let n = tasks[0].rs.len();
    assert!(n >= 1, "need at least one variable");
    assert!(
        tasks.iter().all(|t| t.rs.len() == n),
        "all tables in a batch must have equal size"
    );
    let table_len = 1u64 << n;

    // Stage weights: round i touches 2^{n-1-i} pairs.
    let weights: Vec<u64> = (0..n).map(|i| table_len >> (i + 1)).collect();
    let threads = allocate_threads(module_threads, &weights);
    let pair_cost = gpu.cost().sumcheck_pair() + gpu.cost().shared_access;

    (0..n)
        .map(|round| {
            Box::new(RoundStage {
                threads: threads[round],
                round,
                pair_cost,
                load_bytes: if round == 0 {
                    table_len * ELEM_BYTES
                } else {
                    0
                },
                store_bytes: if round == n - 1 {
                    2 * n as u64 * ELEM_BYTES
                } else {
                    0
                },
            }) as BoxedStage<SumcheckTask<F>>
        })
        .collect()
}

/// Runs the pipelined module over a batch of equally-sized tables, the
/// tables living in the two recyclable Figure-5b buffers for the run.
///
/// # Errors
///
/// Returns [`PipelineError::OutOfDeviceMemory`] if the shared double
/// buffers or the per-task working set do not fit in device memory.
///
/// # Panics
///
/// Panics as [`build_stages`] does on an empty or misshapen batch.
pub fn run_pipelined<F: Field>(
    gpu: &mut Gpu,
    tasks: Vec<SumcheckTask<F>>,
    module_threads: u32,
) -> Result<SumcheckRun<F>, PipelineError> {
    let stages = build_stages(gpu, &tasks, module_threads);
    let n = stages.len();
    let table_len = 1u64 << n;

    // Figure 5b: two recyclable buffers. Odd time-period stages read from
    // the lower buffer and write to the upper one; even stages do the
    // reverse. Each buffer therefore holds the tables of every other stage:
    //   lower: 2^n + 2^{n-2} + ...   upper: 2^{n-1} + 2^{n-3} + ...
    let lower_elems: u64 = (0..n).step_by(2).map(|i| table_len >> i).sum();
    let upper_elems: u64 = (1..n).step_by(2).map(|i| table_len >> i).sum();
    let oom_err =
        |stage: &str, oom: batchzk_gpu_sim::OutOfDeviceMemory| PipelineError::OutOfDeviceMemory {
            stage: stage.into(),
            requested_bytes: oom.requested,
            in_use_bytes: oom.in_use,
            capacity_bytes: oom.capacity,
        };
    let buf_lo = match gpu.memory().alloc(lower_elems * ELEM_BYTES) {
        Ok(handle) => handle,
        Err(oom) => return Err(oom_err("sumcheck-buffer-lower", oom)),
    };
    let buf_hi = match gpu.memory().alloc(upper_elems.max(1) * ELEM_BYTES) {
        Ok(handle) => handle,
        Err(oom) => {
            gpu.memory().free(buf_lo);
            return Err(oom_err("sumcheck-buffer-upper", oom));
        }
    };

    // Free the shared buffers on both the success and the error path: the
    // engine has already released its own allocations if it failed.
    let run = Pipeline::new(gpu, stages, true).run(tasks);
    gpu.memory().free(buf_lo);
    gpu.memory().free(buf_hi);
    run
}

/// Runs the same stages kernel-per-task (the Icicle model, Figure 4a):
/// `concurrent` kernels at a time, each walking all `n` rounds of one proof
/// with `total_threads / concurrent` threads under [`run_stages_naive`]'s
/// rule, all `m` tables resident at once instead of the two buffers.
///
/// # Panics
///
/// Panics as [`build_stages`] does, or if the pre-load does not fit.
pub fn run_naive<F: Field>(
    gpu: &mut Gpu,
    tasks: Vec<SumcheckTask<F>>,
    total_threads: u32,
    concurrent: usize,
) -> SumcheckRun<F> {
    let stages = build_stages(gpu, &tasks, total_threads);
    let table_len = 1u64 << stages.len();
    let preload = tasks.len() as u64 * table_len * ELEM_BYTES;
    run_stages_naive(
        gpu,
        stages,
        tasks,
        "sumcheck",
        preload,
        total_threads,
        concurrent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;
    use batchzk_gpu_sim::DeviceProfile;
    use batchzk_hash::Prg;
    use batchzk_sumcheck::algorithm1;

    fn fixture(count: usize, n: usize, seed: u64) -> Vec<SumcheckTask<Fr>> {
        let mut rng = Prg::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let table: Vec<Fr> = (0..1usize << n).map(|_| Fr::random(&mut rng)).collect();
                let rs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
                SumcheckTask::new(table, rs)
            })
            .collect()
    }

    #[test]
    fn proofs_match_algorithm1() {
        let tasks = fixture(6, 6, 1);
        let reference: Vec<_> = tasks
            .iter()
            .map(|t| algorithm1::prove(&mut t.table.clone(), &t.rs))
            .collect();
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = run_pipelined(&mut gpu, tasks, 512).expect("fits");
        for (task, expect) in run.outputs.iter().zip(&reference) {
            assert_eq!(task.proof(), &expect[..]);
        }
    }

    #[test]
    fn proofs_verify() {
        let tasks = fixture(4, 7, 2);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = run_pipelined(&mut gpu, tasks, 512).expect("fits");
        for task in &run.outputs {
            let proof: Vec<(Fr, Fr)> = task.proof().to_vec();
            assert!(algorithm1::verify(task.claim(), &proof, task.randomness()).is_some());
        }
    }

    #[test]
    fn buffer_memory_is_batch_size_independent() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let small = run_pipelined(&mut gpu, fixture(2, 8, 3), 256)
            .expect("fits")
            .stats
            .peak_mem_bytes;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let large = run_pipelined(&mut gpu, fixture(40, 8, 4), 256)
            .expect("fits")
            .stats
            .peak_mem_bytes;
        assert_eq!(small, large);
        // Two buffers together hold ~2 * 2^n elements.
        assert!(large <= 2 * (1u64 << 8) * 32 + 64);
    }

    #[test]
    fn all_buffers_freed_after_run() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let _ = run_pipelined(&mut gpu, fixture(3, 5, 5), 128);
        assert_eq!(gpu.memory_ref().in_use(), 0);
    }

    #[test]
    fn throughput_grows_with_batch() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let one = run_pipelined(&mut gpu, fixture(1, 8, 6), 512)
            .expect("fits")
            .stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let many = run_pipelined(&mut gpu, fixture(32, 8, 7), 512)
            .expect("fits")
            .stats;
        assert!(many.throughput_per_ms > 2.0 * one.throughput_per_ms);
    }

    #[test]
    #[should_panic(expected = "equal size")]
    fn ragged_batch_rejected() {
        let mut tasks = fixture(2, 5, 8);
        tasks.push(fixture(1, 4, 9).pop().unwrap());
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let _ = run_pipelined(&mut gpu, tasks, 64);
    }
}
