//! # batchzk-pipeline
//!
//! The paper's core contribution: fully pipelined GPU modules — Merkle
//! trees, the sum-check protocol and the linear-time encoder (§3), and
//! since the `ProverBackend` split also the Groth16-style NTT+MSM stack
//! ([`groth`]) — plus the non-pipelined "intuitive" schedule they are
//! compared against (Figure 4a), all driven by the cycle-level simulator
//! in `batchzk-gpu-sim` while performing the *real* module computation.
//! The pipeline engine is protocol-agnostic: any stage set implementing
//! [`PipeStage`] runs under the same executor, scheduler, and service.
//!
//! Modules:
//!
//! * [`engine`] — the generic systolic pipeline executor and the
//!   proportional thread allocator (§4's resource-allocation rule);
//! * [`backend`] — the [`ProverBackend`] trait beside [`PipeStage`]: a
//!   protocol is one struct and one impl of it (its stages, their work
//!   weights, its footprint and its verifier), and every batch, pool and
//!   service entry point of `batchzk-zkp` is generic over it;
//! * [`merkle`] — one kernel per tree layer, dynamic load/store, ~2N-block
//!   device footprint (§3.1);
//! * [`sumcheck`] — one kernel per round, two recyclable double buffers with
//!   odd/even alternation (§3.2, Figure 5b);
//! * [`encoder`] — two interconnected pipelines (forward `A`-phase, backward
//!   `B`-phase) with bucket-sorted warp scheduling (§3.3, Figure 6);
//! * [`groth`] — the pipelined Groth16-style backend
//!   ([`groth::GrothBackend`]): witness NTTs, exact quotient, and real
//!   Pippenger MSM commitments, charged with the baseline per-proof
//!   operation counts;
//! * [`naive`] — the generic kernel-per-task runner (Figure 4a, modelled
//!   once): each module's `run_naive` hands it the module's own stages to
//!   stand in for Simon, Icicle, and "Ours-np";
//! * [`sched`] — one placement routine (least-outstanding work over the
//!   healthy devices a task fits on, with memory-aware admission caps)
//!   that spreads one task stream over a multi-device pool, one persistent
//!   executor per device, and places the salvaged tasks again on the
//!   survivors when a device carries a scripted fault;
//! * [`service`] — the online proving front: open-loop arrival replay in
//!   virtual time, priority classes with per-class latency SLOs, and
//!   admission control that sheds load with a reject reason when the
//!   pool saturates;
//! * [`observe`] — folds finished runs (and OOM/fault failures) into a
//!   `batchzk-metrics` registry under a stable metric schema;
//! * [`analysis`] — judges finished runs: the stage that bounds a run and
//!   a work-proportional thread reallocation (§4), a pool run's balance
//!   and scaling, a recovered run's overhead, a service run's SLO health.

#![deny(missing_docs)]

pub mod analysis;
pub mod backend;
pub mod encoder;
pub mod engine;
pub mod groth;
pub mod merkle;
pub mod naive;
pub mod observe;
pub mod sched;
pub mod service;
pub mod sumcheck;

pub use backend::ProverBackend;
pub use engine::{
    allocate_threads, BoxedStage, PipeStage, Pipeline, PipelineError, PipelineExecutor,
    PipelineRun, RunStats, StageStats, StageWork,
};
pub use observe::{default_service_rules, timeline_counter_tracks};
pub use sched::{run_sharded, RecoveryReport, ShardPolicy, ShardedRun};
pub use service::{
    run_service, ClassPolicy, ClassReport, PriorityClass, RejectReason, RejectedRequest,
    ServiceCompletion, ServiceConfig, ServiceError, ServiceOutcome, ServiceRequest,
    MAX_ARRIVAL_CYCLE,
};

#[cfg(test)]
mod randomized_tests {
    use std::sync::Arc;

    use crate::{encoder as penc, merkle as pmerkle, sumcheck as psum, PipelineRun};
    use batchzk_encoder::{Encoder, EncoderParams};
    use batchzk_field::{Field, Fr, RngCore, SplitMix64};
    use batchzk_gpu_sim::{DeviceProfile, Gpu};
    use batchzk_merkle::MerkleTree;
    use batchzk_sumcheck::algorithm1;

    /// One schedule of a drawn module batch — each generator below puts the
    /// naive and the pipelined schedule of its module through this check:
    /// outputs ≡ the CPU `reference`, every task finished, exactly
    /// `input_bytes` loaded, device memory left clean, and the same
    /// statistics at 1 and 4 host threads.
    fn check_schedule<T, O: PartialEq + std::fmt::Debug>(
        reference: &[O],
        input_bytes: u64,
        schedule: impl Fn(&mut Gpu) -> PipelineRun<T>,
        output: impl Fn(&T) -> O,
    ) {
        let stats_at = |host_threads| {
            batchzk_par::with_threads(host_threads, || {
                let mut gpu = Gpu::new(DeviceProfile::v100());
                let run = schedule(&mut gpu);
                assert_eq!(gpu.memory_ref().in_use(), 0);
                let outputs: Vec<O> = run.outputs.iter().map(&output).collect();
                assert_eq!(outputs, reference);
                assert_eq!(run.stats.tasks, reference.len());
                assert_eq!(run.stats.h2d_bytes, input_bytes);
                run.stats
            })
        };
        assert_eq!(stats_at(1), stats_at(4));
    }

    #[test]
    fn pipelined_merkle_matches_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x11);
        for _ in 0..8 {
            let log_n = rng.gen_range(1..7);
            let batch = rng.gen_range(1..12);
            let concurrent = rng.gen_range(1..6);
            let threads = rng.gen_range(1..2000) as u32;
            let seed = rng.next_u64();
            let trees: Vec<Vec<[u8; 64]>> = (0..batch)
                .map(|t| {
                    (0..1usize << log_n)
                        .map(|i| {
                            let mut b = [0u8; 64];
                            b[..8].copy_from_slice(&(seed ^ ((t << 32 | i) as u64)).to_le_bytes());
                            b
                        })
                        .collect()
                })
                .collect();
            let roots: Vec<_> = trees
                .iter()
                .map(|blocks| MerkleTree::from_blocks(blocks).root())
                .collect();
            let bytes = (batch << log_n) as u64 * 64;
            let root = |task: &pmerkle::MerkleTask| task.root();
            let naive = |gpu: &mut Gpu| pmerkle::run_naive(gpu, trees.clone(), threads, concurrent);
            check_schedule(&roots, bytes, naive, root);
            let piped =
                |gpu: &mut Gpu| pmerkle::run_pipelined(gpu, trees.clone(), threads).expect("fits");
            check_schedule(&roots, bytes, piped, root);
        }
    }

    #[test]
    fn pipelined_sumcheck_matches_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x12);
        for _ in 0..8 {
            let n = rng.gen_range(1..8);
            let batch = rng.gen_range(1..10);
            let concurrent = rng.gen_range(1..6);
            let threads = rng.gen_range(1..512) as u32;
            let inputs: Vec<(Vec<Fr>, Vec<Fr>)> = (0..batch)
                .map(|_| {
                    let table = (0..1usize << n).map(|_| Fr::random(&mut rng)).collect();
                    let rs = (0..n).map(|_| Fr::random(&mut rng)).collect();
                    (table, rs)
                })
                .collect();
            let tasks = || -> Vec<psum::SumcheckTask<Fr>> {
                let fresh = inputs.iter().cloned();
                fresh.map(|(t, r)| psum::SumcheckTask::new(t, r)).collect()
            };
            let proofs: Vec<_> = inputs
                .iter()
                .map(|(table, rs)| algorithm1::prove(&mut table.clone(), rs))
                .collect();
            let bytes = (batch << n) as u64 * 32;
            let pairs = |task: &psum::SumcheckTask<Fr>| task.proof().to_vec();
            let naive = |gpu: &mut Gpu| psum::run_naive(gpu, tasks(), threads, concurrent);
            check_schedule(&proofs, bytes, naive, pairs);
            let piped = |gpu: &mut Gpu| psum::run_pipelined(gpu, tasks(), threads).expect("fits");
            check_schedule(&proofs, bytes, piped, pairs);
        }
    }

    #[test]
    fn pipelined_encoder_matches_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x13);
        for _ in 0..6 {
            // Lengths from the identity code (no levels) to several levels.
            let len = rng.gen_range(8..400);
            let batch = rng.gen_range(1..8);
            let concurrent = rng.gen_range(1..5);
            let threads = rng.gen_range(1..1024) as u32;
            let enc = Arc::new(Encoder::<Fr>::new(
                len,
                EncoderParams::default(),
                rng.next_u64(),
            ));
            let msgs: Vec<Vec<Fr>> = (0..batch)
                .map(|_| (0..len).map(|_| Fr::random(&mut rng)).collect())
                .collect();
            let codes: Vec<Vec<Fr>> = msgs.iter().map(|m| enc.encode(m)).collect();
            let bytes = (batch * len) as u64 * 32;
            let codeword = |task: &penc::EncodeTask<Fr>| task.codeword().to_vec();
            let naive = |gpu: &mut Gpu| {
                penc::run_naive(gpu, Arc::clone(&enc), msgs.clone(), threads, concurrent)
            };
            check_schedule(&codes, bytes, naive, codeword);
            let piped = |gpu: &mut Gpu| {
                let enc = Arc::clone(&enc);
                penc::run_pipelined(gpu, enc, msgs.clone(), threads, true).expect("fits")
            };
            check_schedule(&codes, bytes, piped, codeword);
        }
    }
}
