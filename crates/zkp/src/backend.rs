//! The built-in backends' names and their task-level union.
//!
//! Each protocol is one struct and one impl of [`ProverBackend`], the trait
//! that lives beside `PipeStage` in `batchzk-pipeline` and is re-exported
//! here and at the crate root:
//!
//! * [`SpartanBackend`] — the paper's sumcheck system (encoder → Merkle →
//!   sum-check → assemble, in [`crate::batch`]);
//! * [`GrothBackend`] — the Groth16-style NTT+MSM stack built from the real
//!   [`batchzk_field::NttDomain`] and `batchzk_curve::msm` kernels (in
//!   [`batchzk_pipeline::groth`]);
//! * [`OrionBackend`] — the standalone Orion-style PCS-opening pipeline
//!   (encode → merkle → combine → open, in [`crate::orion`]);
//! * [`MixedBackend`] — a task-level union of the three, so one
//!   [`run_service`](batchzk_pipeline::run_service) instance serves a mixed
//!   trace under the existing SLO classes.

use batchzk_field::Fr;
use batchzk_gpu_sim::Gpu;
pub use batchzk_pipeline::backend::ProverBackend;
use batchzk_pipeline::groth::{GrothBackend, GrothProof, GrothTask};
use batchzk_pipeline::{BoxedStage, PipeStage, StageWork};

use crate::batch::{BatchTask, SpartanBackend};
use crate::orion::{OrionBackend, OrionProof, OrionTask};
use crate::spartan::Proof;

/// Stable names of every built-in backend, in CLI/report order. The
/// `tables` harness validates `--backend` flags and mixed-trace specs
/// against this list.
pub const BACKEND_NAMES: [&str; 3] = ["sumcheck", "groth16", "orion"];

/// One value per protocol of the mixed service: an instance, a task, a
/// statement or a proof, by what the three parameters are (the four
/// aliases below). A further protocol is one more variant here and one
/// more arm in each `match` of [`MixedBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mixed<S, G, O> {
    /// The sumcheck system's.
    Sumcheck(S),
    /// The Groth16-style stack's.
    Groth(G),
    /// The Orion PCS-opening backend's.
    Orion(O),
}

impl<S, G, O> Mixed<S, G, O> {
    /// The name of the backend this value belongs to.
    pub fn backend_name(&self) -> &'static str {
        match self {
            Mixed::Sumcheck(_) => BACKEND_NAMES[0],
            Mixed::Groth(_) => BACKEND_NAMES[1],
            Mixed::Orion(_) => BACKEND_NAMES[2],
        }
    }
}

/// An instance entering the mixed service: `(public inputs, witness)`,
/// the gate witness vector, or `(evaluations, point)`.
pub type MixedInstance = Mixed<(Vec<Fr>, Vec<Fr>), Vec<Fr>, (Vec<Fr>, Vec<Fr>)>;

/// A proof-in-progress in the mixed pipeline. Each protocol's task is
/// boxed: the three differ in size by hundreds of bytes, and the pipeline
/// moves tasks between slots by value.
pub type MixedTask = Mixed<Box<BatchTask<Fr>>, Box<GrothTask>, Box<OrionTask<Fr>>>;

/// A statement attested by a mixed-service proof: public inputs, or an
/// Orion evaluation point.
pub type MixedStatement = Mixed<Vec<Fr>, Vec<Fr>, Vec<Fr>>;

/// A finished mixed-service proof.
pub type MixedProof = Mixed<Proof<Fr>, GrothProof, OrionProof<Fr>>;

/// Serves all three protocols from one pipeline: every stage is a
/// dispatching triple of the backends' stages at the same depth, so
/// sumcheck, Groth16-style, and Orion tasks interleave freely through one
/// [`run_service`](batchzk_pipeline::run_service) (or batch) instance.
///
/// Each stage set is sized from its own module weights against the same
/// thread budget — the device multiplexes whichever protocol occupies a
/// slot, exactly as a shared production pool would.
#[derive(Clone)]
pub struct MixedBackend {
    sumcheck: SpartanBackend<Fr>,
    groth: GrothBackend,
    orion: OrionBackend<Fr>,
}

impl MixedBackend {
    /// Creates the mixed backend from one backend of each protocol.
    pub fn new(sumcheck: SpartanBackend<Fr>, groth: GrothBackend, orion: OrionBackend<Fr>) -> Self {
        Self {
            sumcheck,
            groth,
            orion,
        }
    }

    /// The sumcheck third.
    pub fn sumcheck(&self) -> &SpartanBackend<Fr> {
        &self.sumcheck
    }

    /// The Groth16-style third.
    pub fn groth(&self) -> &GrothBackend {
        &self.groth
    }

    /// The Orion PCS-opening third.
    pub fn orion(&self) -> &OrionBackend<Fr> {
        &self.orion
    }
}

/// One pipeline slot serving all protocols: dispatches on the task
/// variant and forwards to the matching backend's stage at this depth.
struct MixedStage {
    sumcheck: BoxedStage<BatchTask<Fr>>,
    groth: BoxedStage<GrothTask>,
    orion: BoxedStage<OrionTask<Fr>>,
}

impl PipeStage<MixedTask> for MixedStage {
    fn name(&self) -> String {
        format!(
            "{}+{}+{}",
            self.sumcheck.name(),
            self.groth.name(),
            self.orion.name()
        )
    }

    fn threads(&self) -> u32 {
        self.sumcheck
            .threads()
            .max(self.groth.threads())
            .max(self.orion.threads())
    }

    fn process(&self, task: &mut MixedTask) -> StageWork {
        match task {
            Mixed::Sumcheck(t) => self.sumcheck.process(t),
            Mixed::Groth(t) => self.groth.process(t),
            Mixed::Orion(t) => self.orion.process(t),
        }
    }
}

impl ProverBackend for MixedBackend {
    type Instance = MixedInstance;
    type Task = MixedTask;
    type Statement = MixedStatement;
    type Proof = MixedProof;

    fn name(&self) -> &'static str {
        "mixed"
    }

    fn begin(&self, instance: Self::Instance) -> Self::Task {
        match instance {
            Mixed::Sumcheck(i) => Mixed::Sumcheck(Box::new(self.sumcheck.begin(i))),
            Mixed::Groth(i) => Mixed::Groth(Box::new(self.groth.begin(i))),
            Mixed::Orion(i) => Mixed::Orion(Box::new(self.orion.begin(i))),
        }
    }

    fn module_weights(&self, gpu: &Gpu) -> Vec<u64> {
        // Per slot, the heaviest of the protocols' module weights: the
        // slot must keep up with whichever task variant occupies it.
        self.sumcheck
            .module_weights(gpu)
            .into_iter()
            .zip(self.groth.module_weights(gpu))
            .zip(self.orion.module_weights(gpu))
            .map(|((a, b), c)| a.max(b).max(c))
            .collect()
    }

    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>> {
        let sumcheck = self.sumcheck.stages(gpu, total_threads);
        let groth = self.groth.stages(gpu, total_threads);
        let orion = self.orion.stages(gpu, total_threads);
        assert_eq!(
            sumcheck.len(),
            groth.len(),
            "mixed service requires equal pipeline depths"
        );
        assert_eq!(
            sumcheck.len(),
            orion.len(),
            "mixed service requires equal pipeline depths"
        );
        sumcheck
            .into_iter()
            .zip(groth)
            .zip(orion)
            .map(|((s, g), o)| {
                Box::new(MixedStage {
                    sumcheck: s,
                    groth: g,
                    orion: o,
                }) as BoxedStage<MixedTask>
            })
            .collect()
    }

    fn task_footprint_bytes(&self) -> u64 {
        self.sumcheck
            .task_footprint_bytes()
            .max(self.groth.task_footprint_bytes())
            .max(self.orion.task_footprint_bytes())
    }

    fn finish(&self, task: Self::Task) -> (Self::Statement, Self::Proof) {
        match task {
            Mixed::Sumcheck(t) => {
                let (s, p) = self.sumcheck.finish(*t);
                (Mixed::Sumcheck(s), Mixed::Sumcheck(p))
            }
            Mixed::Groth(t) => {
                let (s, p) = self.groth.finish(*t);
                (Mixed::Groth(s), Mixed::Groth(p))
            }
            Mixed::Orion(t) => {
                let (s, p) = self.orion.finish(*t);
                (Mixed::Orion(s), Mixed::Orion(p))
            }
        }
    }

    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool {
        match (statement, proof) {
            (Mixed::Sumcheck(s), Mixed::Sumcheck(p)) => self.sumcheck.verify(s, p),
            (Mixed::Groth(s), Mixed::Groth(p)) => self.groth.verify(s, p),
            (Mixed::Orion(s), Mixed::Orion(p)) => self.orion.verify(s, p),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use batchzk_field::Field;
    use batchzk_gpu_sim::{DevicePool, DeviceProfile, FaultPlan};
    use batchzk_pipeline::{ClassPolicy, PriorityClass, ServiceConfig, ShardPolicy};

    use super::*;
    use crate::batch::{
        prove_batch_naive_with, prove_batch_pool_with, prove_batch_with, prove_service_with,
        BackendProofs,
    };
    use crate::pcs::PcsParams;
    use crate::r1cs::synthetic_r1cs;

    fn params() -> PcsParams {
        PcsParams {
            num_col_tests: 8,
            ..PcsParams::default()
        }
    }

    fn spartan() -> (SpartanBackend<Fr>, (Vec<Fr>, Vec<Fr>)) {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(16, 42);
        let backend = SpartanBackend::new(Arc::new(r1cs), params());
        (backend, (inputs, witness))
    }

    fn mixed() -> (MixedBackend, Vec<MixedInstance>) {
        let (sumcheck, instance) = spartan();
        let backend = MixedBackend::new(
            sumcheck,
            GrothBackend::new(5),
            OrionBackend::new(8, params()),
        );
        let instances = (0..6u64)
            .map(|i| match i % 3 {
                0 => Mixed::Sumcheck(instance.clone()),
                1 => Mixed::Groth(backend.groth().circuit().witness(i)),
                _ => Mixed::Orion(backend.orion().instance(i)),
            })
            .collect();
        (backend, instances)
    }

    /// One batch through every schedule the batch layer offers — pipelined,
    /// kernel-per-task, pooled, recovered from a
    /// mid-batch fail-stop, recovered from a dropped kernel, and served
    /// online — each returning its proofs in input order.
    fn all_schedules<B>(backend: &B, batch: &[B::Instance]) -> Vec<(String, BackendProofs<B>)>
    where
        B: ProverBackend,
        B::Instance: Clone,
    {
        let pooled = |pool: &mut DevicePool| {
            let policy = ShardPolicy::MemoryAware;
            prove_batch_pool_with(pool, backend, batch.to_vec(), 4096, true, policy)
                .expect("the pool completes the batch")
        };
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let piped = prove_batch_with(&mut gpu, backend, batch.to_vec(), 4096, true).expect("fits");
        let mut runs = vec![("pipelined".to_string(), piped.proofs)];
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let naive = prove_batch_naive_with(&mut gpu, backend, batch.to_vec(), 4096, 2);
        runs.push(("naive".into(), naive.proofs));
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 3);
        runs.push(("pooled".into(), pooled(&mut pool).proofs));

        // Fail device 1 halfway through its fault-free shard: proofs
        // completed, proofs in flight, and a survivor to replay them.
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let clean = pooled(&mut pool);
        assert!(clean.recovery.is_none());
        let mid = clean.device_stats[1].total_cycles / 2;
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, mid));
        let run = pooled(&mut pool);
        let recovery = run.recovery.expect("the fail-stop fired");
        assert_eq!(recovery.failed_devices, vec![1]);
        assert!(recovery.replayed_tasks > 0);
        runs.push(("fail-stop".into(), run.proofs));

        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 1);
        pool.apply_fault_plan(&FaultPlan::new().drop_kernel(0, 0, 2));
        let run = pooled(&mut pool);
        let recovery = run.recovery.expect("the kernel drop fired");
        assert_eq!(recovery.dropped_kernels, 1);
        assert!(recovery.replayed_tasks > 0);
        runs.push(("kernel drop".into(), run.proofs));

        let config = ServiceConfig {
            classes: [ClassPolicy {
                queue_cap: batch.len(),
                slo_cycles: u64::MAX,
            }; 3],
            max_outstanding: 2 * batch.len(),
            device_queue_cap: batch.len(),
            max_in_flight: 0,
            timeline_window_cycles: 0,
        };
        let arrival = |(i, instance): (usize, &B::Instance)| {
            (
                PriorityClass::ALL[i % 3],
                10_000 * i as u64,
                instance.clone(),
            )
        };
        let requests = batch.iter().enumerate().map(arrival).collect();
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let outcome = prove_service_with(&mut pool, backend, &config, requests, 4096, true)
            .expect("service run");
        assert!(outcome.rejected.is_empty(), "no load shed at this pace");
        let mut served = outcome.completions;
        served.sort_by_key(|c| c.request);
        let served = served.into_iter().map(|c| backend.finish(c.task)).collect();
        runs.push(("service".into(), served));
        runs
    }

    /// The seeded differential harness: every schedule, at 1, 2 and 4 host
    /// threads, emits the proofs the pipelined single-device run at one
    /// thread emits, and those verify.
    fn schedules_agree<B>(backend: &B, batch: Vec<B::Instance>)
    where
        B: ProverBackend,
        B::Instance: Clone,
        B::Statement: PartialEq + Debug,
        B::Proof: PartialEq + Debug,
    {
        let at = |threads| batchzk_par::with_threads(threads, || all_schedules(backend, &batch));
        let serial = at(1);
        let reference = &serial[0].1;
        assert_eq!(reference.len(), batch.len());
        for (statement, proof) in reference {
            assert!(backend.verify(statement, proof));
        }
        for (threads, runs) in [(1, &serial), (2, &at(2)), (4, &at(4))] {
            for (schedule, proofs) in runs {
                assert_eq!(proofs, reference, "{schedule} at {threads} host threads");
            }
        }
    }

    /// Hooks off ≡ hooks on: with every lane hook of the field on its
    /// scalar body, on every pool thread, the pipelined single-device run
    /// proves the bytes the dispatched hooks prove, and those verify.
    fn portable_bodies_agree<B>(backend: &B, batch: Vec<B::Instance>)
    where
        B: ProverBackend,
        B::Instance: Clone,
        B::Statement: PartialEq + Debug,
        B::Proof: PartialEq + Debug,
    {
        let prove = || {
            let mut gpu = Gpu::new(DeviceProfile::a100());
            let run = prove_batch_with(&mut gpu, backend, batch.clone(), 4096, true);
            run.expect("fits").proofs
        };
        let dispatched = batchzk_par::with_threads(2, prove);
        let portable = batchzk_field::with_portable_bodies(|| {
            assert_eq!(batchzk_field::lane_kernel(), "scalar");
            batchzk_par::with_threads(2, prove)
        });
        assert_eq!(portable, dispatched);
        for (statement, proof) in &portable {
            assert!(backend.verify(statement, proof));
        }
    }

    #[test]
    fn portable_bodies_prove_the_dispatched_bytes() {
        let (spartan, instance) = spartan();
        portable_bodies_agree(&spartan, vec![instance; 2]);
        let groth = GrothBackend::new(8);
        portable_bodies_agree(&groth, (0..2).map(|s| groth.circuit().witness(s)).collect());
        let orion = OrionBackend::<Fr>::new(12, params());
        portable_bodies_agree(&orion, (0..2).map(|s| orion.instance(s)).collect());
        let (mixed, batch) = mixed();
        portable_bodies_agree(&mixed, batch);
    }

    #[test]
    fn spartan_schedules_agree() {
        let (backend, instance) = spartan();
        schedules_agree(&backend, vec![instance; 6]);
    }

    #[test]
    fn groth_schedules_agree() {
        let backend = GrothBackend::new(5);
        let batch = (0..6).map(|seed| backend.circuit().witness(seed)).collect();
        schedules_agree(&backend, batch);
    }

    #[test]
    fn orion_schedules_agree() {
        let backend = OrionBackend::<Fr>::new(8, params());
        let batch = (0..6).map(|seed| backend.instance(seed)).collect();
        schedules_agree(&backend, batch);
    }

    #[test]
    fn mixed_schedules_agree() {
        let (backend, batch) = mixed();
        schedules_agree(&backend, batch);
    }

    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast::<&str>().expect("a message").to_string(),
        }
    }

    /// A task driven through its first `k` stages and then restarted at
    /// stage 0 — what fault recovery does to a salvaged task — finishes
    /// with the proof of an undisturbed task, for every `k`; short of the
    /// last stage `finish` refuses it, and a stage run out of order
    /// refuses the task.
    fn task_states_hold<B>(backend: &B, instance: B::Instance)
    where
        B: ProverBackend,
        B::Instance: Clone,
        B::Statement: PartialEq + Debug,
        B::Proof: PartialEq + Debug,
    {
        let gpu = Gpu::new(DeviceProfile::a100());
        let stages = backend.stages(&gpu, 2048);
        let driven = |k: usize| {
            let mut task = backend.begin(instance.clone());
            for stage in &stages[..k] {
                stage.process(&mut task);
            }
            task
        };
        let reference = backend.finish(driven(stages.len()));
        assert!(backend.verify(&reference.0, &reference.1));
        for k in 0..=stages.len() {
            let mut task = driven(k);
            for stage in &stages {
                stage.process(&mut task);
            }
            assert_eq!(
                backend.finish(task),
                reference,
                "restarted after {k} stages"
            );
        }
        for k in 0..stages.len() {
            let message = panic_message(|| drop(backend.finish(driven(k))));
            assert_eq!(
                message, "task has not completed the pipeline",
                "after {k} stages"
            );
        }
        for k in 0..stages.len() - 1 {
            let message = panic_message(|| drop(stages[k + 1].process(&mut driven(k))));
            let expected = "ran on a task the stage before it had not processed";
            assert!(
                message.contains(expected),
                "stage {} after {k}: {message}",
                k + 1
            );
        }
    }

    #[test]
    fn spartan_task_states_hold() {
        let (backend, instance) = spartan();
        task_states_hold(&backend, instance);
    }

    #[test]
    fn groth_task_states_hold() {
        let backend = GrothBackend::new(5);
        task_states_hold(&backend, backend.circuit().witness(7));
    }

    #[test]
    fn orion_task_states_hold() {
        let backend = OrionBackend::<Fr>::new(8, params());
        task_states_hold(&backend, backend.instance(7));
    }

    #[test]
    fn mixed_task_states_hold() {
        let (backend, batch) = mixed();
        for instance in batch.into_iter().take(3) {
            task_states_hold(&backend, instance);
        }
    }

    // A mis-sized instance is refused by `begin`, on the submitting
    // thread, not by a stage on a pipeline worker.

    #[test]
    #[should_panic(expected = "sumcheck instance: witness has length 1, the backend's shape takes")]
    fn spartan_begin_refuses_a_short_witness() {
        let (backend, (inputs, _)) = spartan();
        backend.begin((inputs, vec![Fr::ONE]));
    }

    #[test]
    #[should_panic(
        expected = "groth16 instance: witness has length 31, the backend's shape takes 32"
    )]
    fn groth_begin_refuses_a_short_witness() {
        GrothBackend::new(5).begin(vec![Fr::ONE; 31]);
    }

    #[test]
    #[should_panic(
        expected = "orion instance: evaluation table has length 255, the backend's shape takes 256"
    )]
    fn orion_begin_refuses_a_short_table() {
        let backend = OrionBackend::<Fr>::new(8, params());
        let (mut evals, point) = backend.instance(1);
        evals.pop();
        backend.begin((evals, point));
    }

    #[test]
    #[should_panic(expected = "orion instance: point has length 7, the backend's shape takes 8")]
    fn mixed_begin_refuses_a_short_point() {
        let (backend, _) = mixed();
        let (evals, mut point) = backend.orion().instance(1);
        point.pop();
        backend.begin(Mixed::Orion((evals, point)));
    }
}
