//! The [`ProverBackend`] trait: one pipelined proving protocol behind a
//! common seam.
//!
//! The batch layer ([`prove_batch_with`](crate::prove_batch_with),
//! [`prove_batch_pool_with`](crate::prove_batch_pool_with),
//! [`prove_service_with`](crate::prove_service_with),
//! [`StreamingProver`](crate::StreamingProver)) is generic over this trait,
//! so the same pipeline engine, shard policies, admission control, and
//! metrics serve *any* protocol that can express its prover as a fixed
//! sequence of [`PipeStage`]s:
//!
//! * [`SpartanBackend`] — the paper's sumcheck system (encoder → Merkle →
//!   sum-check → assemble);
//! * [`GrothBackend`] — the Groth16-style NTT+MSM stack built from the real
//!   [`batchzk_field::NttDomain`] and `batchzk_curve::msm` kernels (see
//!   [`batchzk_pipeline::groth`]);
//! * [`OrionBackend`] — the standalone Orion-style PCS-opening pipeline
//!   (encode → merkle → combine → open, see [`crate::orion`]);
//! * [`MixedBackend`] — a task-level union of the three, so one
//!   [`run_service`](batchzk_pipeline::run_service) instance serves a mixed
//!   trace under the existing SLO classes.
//!
//! A further protocol plugs in by implementing the trait: define a task type
//! carrying the proof state, stages that advance it while reporting
//! simulated [`StageWork`], an analytic
//! footprint for the memory-aware scheduler, and a verification hook.
//! Every layer above — sharding, fault recovery, the online service,
//! BENCH.json — comes for free (DESIGN.md §15).

use std::sync::Arc;

use batchzk_field::{Field, Fr};
use batchzk_gpu_sim::Gpu;
use batchzk_pipeline::groth::{self, GrothCircuit, GrothProof, GrothTask};
use batchzk_pipeline::{BoxedStage, PipeStage, StageWork};

use crate::batch::{build_stages, module_weights, task_footprint_bytes, BatchTask};
use crate::orion::{OrionBackend, OrionProof, OrionTask};
use crate::pcs::{PcsKey, PcsParams};
use crate::r1cs::R1cs;
use crate::spartan::{self, Proof};

/// Stable names of every built-in backend, in CLI/report order. The
/// `tables` harness validates `--backend` flags and mixed-trace specs
/// against this list.
pub const BACKEND_NAMES: [&str; 3] = ["sumcheck", "groth16", "orion"];

/// One pipelined proving protocol: how to turn submitted instances into
/// in-pipeline tasks, which stages advance them, what they cost, and how
/// the finished proof is extracted and verified.
///
/// Implementations are cheap handles (`Arc`-backed) cloned into per-device
/// stage factories, so the trait requires `Clone + Send + Sync`.
pub trait ProverBackend: Clone + Send + Sync + 'static {
    /// What callers submit: the per-proof input (e.g. `(inputs, witness)`).
    type Instance: Send;
    /// The task state a proof-in-progress carries through the pipeline.
    type Task: Send;
    /// The public statement paired with each finished proof.
    type Statement: Send;
    /// The finished proof.
    type Proof: Send;

    /// Stable kebab-case protocol name (CLI flag value, metric label).
    fn name(&self) -> &'static str;

    /// Wraps one submitted instance into a fresh pipeline task.
    fn begin(&self, instance: Self::Instance) -> Self::Task;

    /// Per-module work weights in cycles under `gpu`'s cost model — the
    /// measured-ratio rule input that sizes per-stage thread allocation.
    fn module_weights(&self, gpu: &Gpu) -> Vec<u64>;

    /// Builds the protocol's stage set for one device, allocating
    /// `total_threads` across modules by [`module_weights`].
    ///
    /// [`module_weights`]: ProverBackend::module_weights
    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>>;

    /// Analytic per-task peak device-memory footprint in bytes. The
    /// memory-aware shard policy sizes per-device admission caps from this.
    fn task_footprint_bytes(&self) -> u64;

    /// Splits a completed task into its statement and proof.
    ///
    /// # Panics
    ///
    /// Panics if the task has not completed the pipeline.
    fn finish(&self, task: Self::Task) -> (Self::Statement, Self::Proof);

    /// Verifies a finished proof against its statement.
    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool;
}

/// The paper's sumcheck system as a [`ProverBackend`]: encoder → Merkle →
/// sum-check → assemble over one shared R1CS.
pub struct SpartanBackend<F: Field> {
    r1cs: Arc<R1cs<F>>,
    key: Arc<PcsKey<F>>,
}

impl<F: Field> Clone for SpartanBackend<F> {
    fn clone(&self) -> Self {
        Self {
            r1cs: Arc::clone(&self.r1cs),
            key: Arc::clone(&self.key),
        }
    }
}

impl<F: Field> SpartanBackend<F> {
    /// Creates the backend over one shared circuit and PCS parameter set,
    /// building the witness commitment key every proof and every
    /// verification shares.
    pub fn new(r1cs: Arc<R1cs<F>>, params: PcsParams) -> Self {
        let key = Arc::new(spartan::witness_key(params, &r1cs));
        Self { r1cs, key }
    }

    /// The shared circuit.
    pub fn r1cs(&self) -> &Arc<R1cs<F>> {
        &self.r1cs
    }

    /// The PCS parameters.
    pub fn params(&self) -> &PcsParams {
        self.key.pcs()
    }
}

impl<F: Field> ProverBackend for SpartanBackend<F> {
    type Instance = (Vec<F>, Vec<F>);
    type Task = BatchTask<F>;
    type Statement = Vec<F>;
    type Proof = Proof<F>;

    fn name(&self) -> &'static str {
        "sumcheck"
    }

    fn begin(&self, (inputs, witness): Self::Instance) -> Self::Task {
        BatchTask::new(inputs, witness)
    }

    fn module_weights(&self, gpu: &Gpu) -> Vec<u64> {
        module_weights(gpu, &self.r1cs, &self.key).to_vec()
    }

    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>> {
        build_stages(gpu, &self.r1cs, &self.key, total_threads)
    }

    fn task_footprint_bytes(&self) -> u64 {
        task_footprint_bytes(&self.r1cs, &self.key)
    }

    fn finish(&self, task: Self::Task) -> (Self::Statement, Self::Proof) {
        let statement = task.inputs().to_vec();
        (statement, task.into_proof())
    }

    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool {
        spartan::verify_with(&self.key, &self.r1cs, statement, proof)
    }
}

/// The Groth16-style NTT+MSM stack as a [`ProverBackend`], wrapping the
/// pipelined implementation in [`batchzk_pipeline::groth`]: witness NTTs →
/// quotient → MSM buckets → MSM reduce/assemble, running the real
/// [`batchzk_field::NttDomain`] and `batchzk_curve::msm` kernels under
/// the gpu-sim cost model.
#[derive(Clone)]
pub struct GrothBackend {
    circuit: Arc<GrothCircuit>,
}

impl GrothBackend {
    /// Creates the backend over one shared circuit of `2^log_size` gates.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` exceeds what the field's two-adicity admits
    /// (the quotient works on a domain of size `2^(log_size + 1)`).
    pub fn new(log_size: u32) -> Self {
        Self {
            circuit: Arc::new(GrothCircuit::new(log_size)),
        }
    }

    /// The shared circuit.
    pub fn circuit(&self) -> &Arc<GrothCircuit> {
        &self.circuit
    }
}

impl ProverBackend for GrothBackend {
    type Instance = Vec<Fr>;
    type Task = GrothTask;
    type Statement = Vec<Fr>;
    type Proof = GrothProof;

    fn name(&self) -> &'static str {
        "groth16"
    }

    fn begin(&self, witness: Self::Instance) -> Self::Task {
        GrothTask::new(witness)
    }

    fn module_weights(&self, gpu: &Gpu) -> Vec<u64> {
        groth::module_weights(gpu, &self.circuit).to_vec()
    }

    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>> {
        groth::build_stages(gpu, &self.circuit, total_threads)
    }

    fn task_footprint_bytes(&self) -> u64 {
        groth::task_footprint_bytes(&self.circuit)
    }

    fn finish(&self, task: Self::Task) -> (Self::Statement, Self::Proof) {
        let statement = task.statement().to_vec();
        (statement, task.into_proof())
    }

    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool {
        groth::verify(&self.circuit, statement, proof)
    }
}

/// An instance entering the mixed service: one variant per backend.
#[derive(Debug, Clone)]
pub enum MixedInstance {
    /// A sumcheck-system instance: `(public inputs, witness)`.
    Sumcheck((Vec<Fr>, Vec<Fr>)),
    /// A Groth16-style instance: the gate witness vector.
    Groth(Vec<Fr>),
    /// An Orion PCS-opening instance: `(evaluations, point)`.
    Orion((Vec<Fr>, Vec<Fr>)),
}

/// A proof-in-progress in the mixed pipeline. Each protocol's task state
/// is boxed: the three differ in size by hundreds of bytes, and the
/// pipeline moves tasks between slots by value.
pub enum MixedTask {
    /// A sumcheck-system task.
    Sumcheck(Box<BatchTask<Fr>>),
    /// A Groth16-style task.
    Groth(Box<GrothTask>),
    /// An Orion PCS-opening task.
    Orion(Box<OrionTask<Fr>>),
}

impl MixedTask {
    /// The backend name this task belongs to.
    pub fn backend_name(&self) -> &'static str {
        match self {
            MixedTask::Sumcheck(_) => BACKEND_NAMES[0],
            MixedTask::Groth(_) => BACKEND_NAMES[1],
            MixedTask::Orion(_) => BACKEND_NAMES[2],
        }
    }
}

/// A statement attested by a mixed-service proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixedStatement {
    /// Sumcheck-system public inputs.
    Sumcheck(Vec<Fr>),
    /// Groth16-style public inputs.
    Groth(Vec<Fr>),
    /// An Orion evaluation point.
    Orion(Vec<Fr>),
}

/// A finished mixed-service proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixedProof {
    /// A sumcheck-system proof.
    Sumcheck(Proof<Fr>),
    /// A Groth16-style proof.
    Groth(GrothProof),
    /// An Orion PCS-opening proof.
    Orion(OrionProof<Fr>),
}

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
            MixedTask::Sumcheck(t) => self.sumcheck.process(t),
            MixedTask::Groth(t) => self.groth.process(t),
            MixedTask::Orion(t) => self.orion.process(t),
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
            MixedInstance::Sumcheck(i) => MixedTask::Sumcheck(Box::new(self.sumcheck.begin(i))),
            MixedInstance::Groth(i) => MixedTask::Groth(Box::new(self.groth.begin(i))),
            MixedInstance::Orion(i) => MixedTask::Orion(Box::new(self.orion.begin(i))),
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
            MixedTask::Sumcheck(t) => {
                let (s, p) = self.sumcheck.finish(*t);
                (MixedStatement::Sumcheck(s), MixedProof::Sumcheck(p))
            }
            MixedTask::Groth(t) => {
                let (s, p) = self.groth.finish(*t);
                (MixedStatement::Groth(s), MixedProof::Groth(p))
            }
            MixedTask::Orion(t) => {
                let (s, p) = self.orion.finish(*t);
                (MixedStatement::Orion(s), MixedProof::Orion(p))
            }
        }
    }

    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool {
        match (statement, proof) {
            (MixedStatement::Sumcheck(s), MixedProof::Sumcheck(p)) => self.sumcheck.verify(s, p),
            (MixedStatement::Groth(s), MixedProof::Groth(p)) => self.groth.verify(s, p),
            (MixedStatement::Orion(s), MixedProof::Orion(p)) => self.orion.verify(s, p),
            _ => false,
        }
    }
}
