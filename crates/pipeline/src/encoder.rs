//! The pipelined linear-time-encoder module (§3.3, Figure 6).
//!
//! The recursive Spielman code is flattened into two interconnected
//! pipelines: the first performs the forward chain of `A`-multiplications
//! (sizes shrink by α per stage); the second performs the backward chain of
//! `B`-multiplications and codeword assembly in reverse order, preventing
//! the deep recursion that would overflow GPU stacks. Sparse-matrix rows are
//! executed with warp SIMD semantics; the bucket-sorted row schedule groups
//! rows of similar degree into the same warp to minimize divergence.

use std::sync::Arc;

use batchzk_encoder::{Encoder, SparseMatrix};
use batchzk_field::Field;
use batchzk_gpu_sim::{CostModel, Gpu, Work};

use crate::engine::{
    allocate_threads, BoxedStage, PipeStage, Pipeline, PipelineError, PipelineRun, StageWork,
};
use crate::naive::run_stages_naive;

/// An encoding task flowing through both pipelines.
#[derive(Debug)]
pub struct EncodeTask<F> {
    message: Vec<F>,
    /// Intermediate vectors from the forward phase (retained for assembly).
    ys: Vec<Vec<F>>,
    /// Current (partial) codeword during the backward phase.
    code: Vec<F>,
    /// Resident element count on the simulated device.
    resident_elems: u64,
}

impl<F: Field> EncodeTask<F> {
    /// Creates a task for one message.
    pub fn new(message: Vec<F>) -> Self {
        let resident = message.len() as u64;
        Self {
            message,
            ys: Vec::new(),
            code: Vec::new(),
            resident_elems: resident,
        }
    }

    /// The finished codeword.
    ///
    /// # Panics
    ///
    /// Panics if the task has not completed both pipelines.
    pub fn codeword(&self) -> &[F] {
        assert!(!self.code.is_empty(), "task has not completed the pipeline");
        &self.code
    }
}

/// Builds the per-row cycle costs for a sparse mat-vec kernel, in either
/// natural or bucket-sorted (warp-scheduled) order.
fn row_items<F: Field>(matrix: &SparseMatrix<F>, cost: &CostModel, sorted: bool) -> Vec<u64> {
    let order: Vec<usize> = if sorted {
        matrix.warp_schedule().into_iter().flatten().collect()
    } else {
        (0..matrix.rows()).collect()
    };
    order
        .into_iter()
        .map(|i| matrix.row_degree(i) as u64 * cost.spmv_term())
        .collect()
}

/// Forward stage `level`: `y_{level+1} = A_level · y_level`.
struct ForwardStage<F> {
    encoder: Arc<Encoder<F>>,
    level: usize,
    threads: u32,
    items: Vec<u64>,
}

impl<F: Field> PipeStage<EncodeTask<F>> for ForwardStage<F> {
    fn name(&self) -> String {
        format!("encode-fwd-{}", self.level)
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut EncodeTask<F>) -> StageWork {
        let level = &self.encoder.levels()[self.level];
        let input: &[F] = if self.level == 0 {
            &task.message
        } else {
            &task.ys[self.level - 1]
        };
        let next = level.a.mul_vec(input);
        task.resident_elems += next.len() as u64;
        task.ys.push(next);
        StageWork {
            work: Work::Items(self.items.clone()),
            // Dynamic loading: the message arrives as the task enters.
            h2d_bytes: if self.level == 0 {
                (task.message.len() * 32) as u64
            } else {
                0
            },
            d2h_bytes: 0,
            mem_after: task.resident_elems * 32,
        }
    }
}

/// Backward stage for `level` (run from the innermost level outward):
/// `v = B_level · z`, then assemble `(input, z, v)`.
struct BackwardStage<F> {
    encoder: Arc<Encoder<F>>,
    level: usize,
    threads: u32,
    items: Vec<u64>,
    is_last: bool,
}

impl<F: Field> PipeStage<EncodeTask<F>> for BackwardStage<F> {
    fn name(&self) -> String {
        format!("encode-bwd-{}", self.level)
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut EncodeTask<F>) -> StageWork {
        let level = &self.encoder.levels()[self.level];
        // First backward stage starts from the identity-coded core.
        if task.code.is_empty() {
            task.code = task.ys.last().expect("forward phase ran").clone();
        }
        let z = std::mem::take(&mut task.code);
        debug_assert_eq!(z.len(), level.z_len);
        let v = level.b.mul_vec(&z);
        let input: &[F] = if self.level == 0 {
            &task.message
        } else {
            &task.ys[self.level - 1]
        };
        let mut code = Vec::with_capacity(level.out_len());
        code.extend_from_slice(input);
        code.extend_from_slice(&z);
        code.extend_from_slice(&v);
        // The consumed intermediate vector is no longer needed on device.
        task.resident_elems += v.len() as u64;
        task.code = code;
        let out_bytes = (task.code.len() * 32) as u64;
        StageWork {
            work: Work::Items(self.items.clone()),
            h2d_bytes: 0,
            // Dynamic storing: the finished codeword streams back to host.
            d2h_bytes: if self.is_last { out_bytes } else { 0 },
            mem_after: if self.is_last {
                0
            } else {
                task.resident_elems * 32
            },
        }
    }
}

/// Result of an encoding batch run, under either schedule.
pub type EncodeRun<F> = PipelineRun<EncodeTask<F>>;

/// The module as a stage set: the forward `A`-chain then the backward
/// `B`-chain of `encoder`, every sparse row charged `row_degree ·
/// spmv_term` cycles under `gpu`'s cost model, with `module_threads` split
/// proportionally to each kernel's SIMD cost. `warp_sorted` selects the
/// bucket-sorted row schedule (§3.3); disabling it is the ablation baseline
/// that pays warp divergence. An identity code (no levels) is a single
/// pass-through stage.
///
/// # Panics
///
/// Panics if `messages` is empty or lengths differ from the encoder's.
pub fn build_stages<F: Field>(
    gpu: &Gpu,
    encoder: &Arc<Encoder<F>>,
    messages: &[Vec<F>],
    module_threads: u32,
    warp_sorted: bool,
) -> Vec<BoxedStage<EncodeTask<F>>> {
    assert!(!messages.is_empty(), "need at least one message");
    assert!(
        messages.iter().all(|m| m.len() == encoder.message_len()),
        "message length must match the encoder"
    );
    let cost = *gpu.cost();
    let levels = encoder.levels().len();

    // Degenerate (identity-code) inputs: single pass-through stage.
    if levels == 0 {
        struct Identity;
        impl<F: Field> PipeStage<EncodeTask<F>> for Identity {
            fn name(&self) -> String {
                "encode-identity".into()
            }
            fn threads(&self) -> u32 {
                1
            }
            fn process(&self, task: &mut EncodeTask<F>) -> StageWork {
                task.code = task.message.clone();
                StageWork {
                    work: Work::Uniform {
                        units: task.code.len() as u64,
                        cycles_per_unit: 1,
                    },
                    h2d_bytes: (task.message.len() * 32) as u64,
                    d2h_bytes: (task.code.len() * 32) as u64,
                    mem_after: 0,
                }
            }
        }
        return vec![Box::new(Identity)];
    }

    // Stage weights proportional to each kernel's SIMD cost.
    let mut weights = Vec::with_capacity(2 * levels);
    for level in encoder.levels() {
        weights.push(level.a.warp_cost(warp_sorted).max(1));
    }
    for level in encoder.levels().iter().rev() {
        weights.push(level.b.warp_cost(warp_sorted).max(1));
    }
    let threads = allocate_threads(module_threads, &weights);

    let mut stages: Vec<BoxedStage<EncodeTask<F>>> = Vec::with_capacity(2 * levels);
    for (i, level) in encoder.levels().iter().enumerate() {
        stages.push(Box::new(ForwardStage {
            encoder: Arc::clone(encoder),
            level: i,
            threads: threads[i],
            items: row_items(&level.a, &cost, warp_sorted),
        }));
    }
    for (j, i) in (0..levels).rev().enumerate() {
        let level = &encoder.levels()[i];
        stages.push(Box::new(BackwardStage {
            encoder: Arc::clone(encoder),
            level: i,
            threads: threads[levels + j],
            items: row_items(&level.b, &cost, warp_sorted),
            is_last: i == 0,
        }));
    }
    stages
}

/// Runs the two interconnected encoding pipelines over a batch of messages.
///
/// # Errors
///
/// Returns [`PipelineError::OutOfDeviceMemory`] if the working set does not
/// fit in simulated device memory.
///
/// # Panics
///
/// Panics as [`build_stages`] does on an empty or misshapen batch.
pub fn run_pipelined<F: Field>(
    gpu: &mut Gpu,
    encoder: Arc<Encoder<F>>,
    messages: Vec<Vec<F>>,
    module_threads: u32,
    warp_sorted: bool,
) -> Result<EncodeRun<F>, PipelineError> {
    let stages = build_stages(gpu, &encoder, &messages, module_threads, warp_sorted);
    let tasks: Vec<EncodeTask<F>> = messages.into_iter().map(EncodeTask::new).collect();
    Pipeline::new(gpu, stages, true).run(tasks)
}

/// Runs the same stages kernel-per-task ("Ours-np", Figure 4a):
/// `concurrent` kernels at a time, each walking every level of one message
/// with `total_threads / concurrent` threads under [`run_stages_naive`]'s
/// rule, all `m` codeword buffers resident at once.
///
/// # Panics
///
/// Panics as [`build_stages`] does, or if the pre-load does not fit.
pub fn run_naive<F: Field>(
    gpu: &mut Gpu,
    encoder: Arc<Encoder<F>>,
    messages: Vec<Vec<F>>,
    total_threads: u32,
    concurrent: usize,
) -> EncodeRun<F> {
    // Rows are *not* bucket-sorted here: the non-pipelined baseline also
    // predates the warp-balancing trick.
    let stages = build_stages(gpu, &encoder, &messages, total_threads, false);
    let preload = (messages.len() * encoder.codeword_len() * 32) as u64;
    let tasks: Vec<EncodeTask<F>> = messages.into_iter().map(EncodeTask::new).collect();
    run_stages_naive(
        gpu,
        stages,
        tasks,
        "encode",
        preload,
        total_threads,
        concurrent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_encoder::EncoderParams;
    use batchzk_field::Fr;
    use batchzk_gpu_sim::DeviceProfile;
    use batchzk_hash::Prg;

    fn messages(count: usize, n: usize, seed: u64) -> Vec<Vec<Fr>> {
        let mut rng = Prg::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..n).map(|_| Fr::random(&mut rng)).collect())
            .collect()
    }

    #[test]
    fn codewords_match_reference_encoder() {
        let enc = Arc::new(Encoder::<Fr>::new(200, EncoderParams::default(), 5));
        let msgs = messages(4, 200, 1);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = run_pipelined(&mut gpu, Arc::clone(&enc), msgs.clone(), 512, true).expect("fits");
        for (task, msg) in run.outputs.iter().zip(&msgs) {
            assert_eq!(task.codeword(), &enc.encode(msg)[..]);
        }
    }

    #[test]
    fn warp_sorting_is_never_slower() {
        let enc = Arc::new(Encoder::<Fr>::new(400, EncoderParams::default(), 6));
        let msgs = messages(8, 400, 2);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let sorted = run_pipelined(&mut gpu, Arc::clone(&enc), msgs.clone(), 512, true)
            .expect("fits")
            .stats
            .total_cycles;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let unsorted = run_pipelined(&mut gpu, enc, msgs, 512, false)
            .expect("fits")
            .stats
            .total_cycles;
        assert!(sorted <= unsorted, "sorted {sorted} vs unsorted {unsorted}");
    }

    #[test]
    fn identity_code_passthrough() {
        let enc = Arc::new(Encoder::<Fr>::new(16, EncoderParams::default(), 7));
        assert!(enc.levels().is_empty(), "fixture must be the identity code");
        let msgs = messages(3, 16, 3);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let piped = run_pipelined(&mut gpu, Arc::clone(&enc), msgs.clone(), 64, true);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let naive = run_naive(&mut gpu, enc, msgs.clone(), 64, 2);
        for run in [piped.expect("fits"), naive] {
            assert_eq!(run.stats.tasks, 3);
            for (task, msg) in run.outputs.iter().zip(&msgs) {
                assert_eq!(task.codeword(), &msg[..]);
            }
        }
    }

    #[test]
    fn device_memory_released_after_run() {
        let enc = Arc::new(Encoder::<Fr>::new(128, EncoderParams::default(), 8));
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let _ = run_pipelined(&mut gpu, enc, messages(5, 128, 4), 256, true);
        assert_eq!(gpu.memory_ref().in_use(), 0);
    }

    #[test]
    fn throughput_grows_with_batch() {
        let enc = Arc::new(Encoder::<Fr>::new(128, EncoderParams::default(), 9));
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let one = run_pipelined(&mut gpu, Arc::clone(&enc), messages(1, 128, 5), 512, true)
            .expect("fits")
            .stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let many = run_pipelined(&mut gpu, enc, messages(24, 128, 6), 512, true)
            .expect("fits")
            .stats;
        assert!(many.throughput_per_ms > 1.5 * one.throughput_per_ms);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn wrong_message_length_rejected() {
        let enc = Arc::new(Encoder::<Fr>::new(100, EncoderParams::default(), 10));
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let _ = run_pipelined(&mut gpu, enc, messages(1, 99, 7), 64, true);
    }
}
