//! # batchzk-pipeline
//!
//! The paper's core contribution: fully pipelined GPU modules — Merkle
//! trees, the sum-check protocol and the linear-time encoder (§3), and
//! since the `ProverBackend` split also the Groth16-style NTT+MSM stack
//! ([`groth`]) — plus the non-pipelined "intuitive" baselines they are
//! compared against (Figure 4a), all driven by the cycle-level simulator
//! in `batchzk-gpu-sim` while performing the *real* module computation.
//! The pipeline engine is protocol-agnostic: any stage set implementing
//! [`PipeStage`] runs under the same executor, scheduler, and service.
//!
//! Modules:
//!
//! * [`engine`] — the generic systolic pipeline executor and the
//!   proportional thread allocator (§4's resource-allocation rule);
//! * [`merkle`] — one kernel per tree layer, dynamic load/store, ~2N-block
//!   device footprint (§3.1);
//! * [`sumcheck`] — one kernel per round, two recyclable double buffers with
//!   odd/even alternation (§3.2, Figure 5b);
//! * [`encoder`] — two interconnected pipelines (forward `A`-phase, backward
//!   `B`-phase) with bucket-sorted warp scheduling (§3.3, Figure 6);
//! * [`groth`] — the pipelined Groth16-style backend: witness NTTs,
//!   exact quotient, and real Pippenger MSM commitments, charged with the
//!   baseline per-proof operation counts;
//! * [`naive`] — the kernel-per-task baselines standing in for Simon,
//!   Icicle, and "Ours-np", plus a generic stage-set runner;
//! * [`sched`] — shard policies (round-robin, least-outstanding-work,
//!   memory-aware admission) that spread one task stream over a
//!   multi-device pool, one persistent executor per device, with
//!   survivor resharding when a device carries a scripted fault;
//! * [`service`] — the online proving front: open-loop arrival replay in
//!   virtual time, priority classes with per-class latency SLOs, and
//!   admission control that sheds load with a reject reason when the
//!   pool saturates;
//! * [`observe`] — folds finished runs (and OOM/fault failures) into a
//!   `batchzk-metrics` registry under a stable metric schema.

#![deny(missing_docs)]

pub mod encoder;
pub mod engine;
pub mod groth;
pub mod merkle;
pub mod naive;
pub mod observe;
pub mod sched;
pub mod service;
pub mod sumcheck;

pub use engine::{
    allocate_threads, BoxedStage, PipeStage, Pipeline, PipelineError, PipelineExecutor,
    PipelineRun, RunStats, StageStats, StageWork,
};
pub use observe::{
    default_service_rules, record_error, record_pool_health, record_pool_run, record_recovery,
    record_run, record_run_with_backend, record_service, record_service_backends,
    stage_observations, timeline_counter_tracks,
};
pub use sched::{
    device_weight, plan_shards, run_sharded, RecoveryReport, ShardPlan, ShardPolicy, ShardedRun,
};
pub use service::{
    run_service, ClassPolicy, ClassReport, PriorityClass, RejectReason, RejectedRequest,
    ServiceCompletion, ServiceConfig, ServiceError, ServiceOutcome, ServiceRequest,
    MAX_ARRIVAL_CYCLE,
};

#[cfg(test)]
mod randomized_tests {
    use crate::{merkle as pmerkle, sumcheck as psum};
    use batchzk_field::{Field, Fr, RngCore, SplitMix64};
    use batchzk_gpu_sim::{DeviceProfile, Gpu};
    use batchzk_merkle::MerkleTree;
    use batchzk_sumcheck::algorithm1;

    #[test]
    fn pipelined_merkle_matches_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x11);
        for _ in 0..8 {
            let log_n = rng.gen_range(1..7);
            let batch = rng.gen_range(1..12);
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
            let mut gpu = Gpu::new(DeviceProfile::v100());
            let run = pmerkle::run_pipelined(&mut gpu, trees.clone(), threads, true)
                .expect("fits in device memory");
            for (task, blocks) in run.outputs.iter().zip(&trees) {
                assert_eq!(task.root(), MerkleTree::from_blocks(blocks).root());
            }
            assert_eq!(gpu.memory_ref().in_use(), 0);
        }
    }

    #[test]
    fn pipelined_sumcheck_matches_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x12);
        for _ in 0..8 {
            let n = rng.gen_range(1..8);
            let batch = rng.gen_range(1..10);
            let threads = rng.gen_range(1..512) as u32;
            let tasks: Vec<psum::SumcheckTask<Fr>> = (0..batch)
                .map(|_| {
                    let table: Vec<Fr> = (0..1usize << n).map(|_| Fr::random(&mut rng)).collect();
                    let rs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
                    psum::SumcheckTask::new(table, rs)
                })
                .collect();
            let reference: Vec<_> = tasks
                .iter()
                .map(|t| algorithm1::prove(&mut t.table_snapshot(), t.randomness()))
                .collect();
            let mut gpu = Gpu::new(DeviceProfile::v100());
            let run =
                psum::run_pipelined(&mut gpu, tasks, threads, true).expect("fits in device memory");
            for (task, expect) in run.outputs.iter().zip(&reference) {
                assert_eq!(task.proof(), &expect[..]);
            }
        }
    }
}
