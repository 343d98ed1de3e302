//! The fully pipelined batch proof-generation system (§4, Figure 7).
//!
//! Proof tasks stream through four module stages, each a dedicated kernel
//! group on the simulated GPU:
//!
//! 1. **encoder** — assemble `z`, arrange the witness matrix, encode every
//!    row with the linear-time encoder (dynamic loading: the prover's input
//!    for one proof arrives per cycle);
//! 2. **merkle** — hash codeword columns into leaves and build the
//!    commitment tree, yielding the final root;
//! 3. **sum-check** — derive randomness from the root (Fiat–Shamir / PRG),
//!    run both sum-checks over the intermediate tables loaded from host
//!    memory each cycle;
//! 4. **assemble** — compute the PCS opening and emit the finished proof
//!    (pushed out of the pipeline, freeing its slot).
//!
//! Thread allocation across modules follows the paper's measured-ratio rule
//! (§4): weights are the per-module work in cycles under the device cost
//! model, normalized over the configured thread budget.
//!
//! Between stages a task owns one `TaskState` variant — exactly what the
//! later stages read — and the encoder reads the instance only, so a
//! fault-recovery replay restarts a salvaged task there (DESIGN.md §15,
//! "Task state"). The encoder and Merkle stages are the PCS commit prefix
//! shared with the Orion backend (`commit.rs`).
//!
//! [`SpartanBackend`] is these four stages as a [`ProverBackend`]; the batch
//! entry points below are generic over that trait and are the only way to
//! run a batch, a sharded batch, or a service for any protocol.

use std::sync::{Arc, Mutex, PoisonError};

use batchzk_field::Field;
use batchzk_gpu_sim::{CostModel, DevicePool, Gpu, Work};
use batchzk_hash::Transcript;
use batchzk_metrics::Registry;
use batchzk_pipeline::backend::{check_len, ProverBackend};
use batchzk_pipeline::{
    allocate_threads, observe, run_service, run_sharded, sched, BoxedStage, PipeStage, Pipeline,
    PipelineError, PriorityClass, RecoveryReport, RunStats, ServiceConfig, ServiceError,
    ServiceOutcome, ServiceRequest, ShardPolicy, StageWork,
};

use crate::commit::{self, Commit};
use crate::pcs::{self, EncodedRows, PcsKey, PcsParams};
use crate::r1cs::R1cs;
use crate::spartan::{self, Arena, Proof, SumcheckPart};

/// A proof-generation task moving through the Figure 7 pipeline: the
/// instance, which the encoder stage reads (again, when a fault-recovery
/// replay restarts the task there), and the state the last stage left.
pub struct BatchTask<F: Field> {
    inputs: Vec<F>,
    witness: Vec<F>,
    state: TaskState<F>,
}

/// What a task owns between two stages: each variant holds exactly what
/// the later stages read, so a buffer is freed by the transition after its
/// last reader (DESIGN.md §15, "Task state").
enum TaskState<F: Field> {
    /// Submitted, or salvaged for a replay.
    Fresh,
    /// After the encoder: the witness half's codewords.
    Encoded {
        encoded: EncodedRows<F>,
    },
    /// After the Merkle stage: the codewords moved under the tree.
    Committed {
        commit: Commit<F>,
    },
    /// After the sum-checks, which read `z` as the task's own windows.
    Sumchecked {
        commit: Commit<F>,
        transcript: Transcript,
        part: SumcheckPart<F>,
    },
    Done(Proof<F>),
}

/// Device bytes a task keeps resident from the encoder stage on: its
/// encoded witness rows only (the witness is read once, by the encoder).
fn encoded_bytes<F: Field>(key: &PcsKey<F>) -> u64 {
    (key.n_rows() * key.codeword_len() * 32) as u64
}

/// The storage the Spartan stages reuse across the proofs of one backend
/// (DESIGN.md §16, "The sum-check arena"): each stack holds as many buffers
/// as were ever in use at once — an [`Arena`] per device in its sum-check
/// stage or per verification, a codeword buffer per task in flight.
#[derive(Default)]
struct Buffers<F> {
    arenas: Mutex<Vec<Arena<F>>>,
    codewords: Mutex<Vec<Vec<F>>>,
}

/// A buffer from `stack`, or an empty one to grow.
fn take<T: Default>(stack: &Mutex<Vec<T>>) -> T {
    let mut stack = stack.lock().unwrap_or_else(PoisonError::into_inner);
    stack.pop().unwrap_or_default()
}

/// Gives a buffer back.
fn give<T>(stack: &Mutex<Vec<T>>, buffer: T) {
    let mut stack = stack.lock().unwrap_or_else(PoisonError::into_inner);
    stack.push(buffer);
}

/// The four stages' kernel names, in pipeline order.
const STAGE_NAMES: [&str; 4] = [
    "system-encoder",
    "system-merkle",
    "system-sumcheck",
    "system-assemble",
];

/// Stage `k` of the Figure 7 four on one device.
struct Stage<F: Field> {
    k: usize,
    threads: u32,
    r1cs: Arc<R1cs<F>>,
    key: Arc<PcsKey<F>>,
    buffers: Arc<Buffers<F>>,
    cost: CostModel,
}

impl<F: Field> PipeStage<BatchTask<F>> for Stage<F> {
    fn name(&self) -> String {
        STAGE_NAMES[self.k].into()
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    /// The task's state machine. Stage 0 is the replay entry: it reads the
    /// instance only and overwrites whatever state a fault left the task
    /// in; every later stage takes exactly the state its predecessor
    /// left. The engine runs stages in order, so the last arm is the one
    /// place a stage can find out it did not.
    fn process(&self, task: &mut BatchTask<F>) -> StageWork {
        use TaskState::*;
        let (next, work) = match (self.k, std::mem::replace(&mut task.state, Fresh)) {
            (0, _) => self.encode(&task.witness),
            (1, Encoded { encoded }) => {
                let (commit, work) = commit::merkle(&self.cost, encoded, encoded_bytes(&self.key));
                (Committed { commit }, work)
            }
            (2, Committed { commit }) => self.sumcheck(&task.inputs, &task.witness, commit),
            (
                3,
                Sumchecked {
                    commit,
                    transcript,
                    part,
                },
            ) => self.open(commit, transcript, part),
            _ => panic!(
                "{} ran on a task the stage before it had not processed",
                self.name()
            ),
        };
        task.state = next;
        work
    }
    fn naive_phases(&self, _task: &BatchTask<F>) -> Option<Vec<Work>> {
        match self.k {
            1 => Some(commit::merkle_naive_phases(&self.key, &self.cost)),
            2 => Some(self.sumcheck_naive()),
            _ => None,
        }
    }
}

impl<F: Field> Stage<F> {
    fn encode(&self, witness: &[F]) -> (TaskState<F>, StageWork) {
        // The witness is the live prefix of z's witness half.
        let (encoded, work) = commit::encode(
            &self.key,
            &self.cost,
            witness,
            take(&self.buffers.codewords),
            (witness.len() * 32) as u64,
            encoded_bytes(&self.key),
        );
        (TaskState::Encoded { encoded }, work)
    }

    fn pair_cost(&self) -> u64 {
        self.cost.sumcheck_pair() + self.cost.shared_access
    }

    fn sumcheck(
        &self,
        inputs: &[F],
        witness: &[F],
        commit: Commit<F>,
    ) -> (TaskState<F>, StageWork) {
        // Randomness seeded by the final Merkle root via the transcript.
        let mut transcript = spartan::statement_transcript(&self.r1cs, inputs);
        transcript.absorb_digest(b"w-commitment", &commit.commitment.root);
        let io = self.r1cs.io(inputs);
        let z = self.r1cs.live(&io, witness);
        let mut arena = take(&self.buffers.arenas);
        let (narrow, field) = arena.spmv(&self.r1cs, z);
        let part = spartan::sumchecks_over(&self.r1cs, z, narrow, field, &mut transcript);
        arena.poison();
        give(&self.buffers.arenas, arena);

        let m = self.r1cs.padded_constraints() as u64;
        let n = self.r1cs.z_len() as u64;
        // The cost model's unit count, from the textbook provers: sum-check
        // #1 as four tables of 2m pairs in all, #2 as two of 2n. The host
        // prover folds three in #1 (`eq` is factored out, never a table).
        let units = 4 * 2 * m + 2 * 2 * n;
        let work = StageWork {
            work: Work::Uniform {
                units,
                cycles_per_unit: self.pair_cost(),
            },
            // "The sum-check modules are required to load data from host
            // memory in each cycle" — the Az/Bz/Cz and z tables.
            h2d_bytes: (3 * m + n) * 32,
            d2h_bytes: 0,
            mem_after: encoded_bytes(&self.key) + 2 * (3 * m + n) * 32 / 3,
        };
        let next = TaskState::Sumchecked {
            commit,
            transcript,
            part,
        };
        (next, work)
    }

    fn sumcheck_naive(&self) -> Vec<Work> {
        // Kernel-per-round: each sum-check round halves the tables, so the
        // later rounds leave most of the baseline's thread slice idle.
        // Sum-check #1 folds four tables together per round, #2 two.
        let m = self.r1cs.padded_constraints() as u64;
        let n = self.r1cs.z_len() as u64;
        let mut phases = commit::halving_phases(m, 4, self.pair_cost());
        phases.extend(commit::halving_phases(n, 2, self.pair_cost()));
        phases
    }

    fn open(
        &self,
        Commit { commitment, data }: Commit<F>,
        mut transcript: Transcript,
        part: SumcheckPart<F>,
    ) -> (TaskState<F>, StageWork) {
        let y_prime = &part.point_y[..part.point_y.len() - 1];
        let (w_eval, opening) = pcs::open(self.key.pcs(), &data, y_prime, &mut transcript);
        let proof = Proof {
            commitment,
            sc1: part.sc1,
            va: part.va,
            vb: part.vb,
            vc: part.vc,
            sc2: part.sc2,
            w_eval,
            opening,
        };
        let units = (2 * data.n_rows() as u64) * (proof.opening.combined_row.len() as u64);
        let mut codewords = data.into_codewords();
        // A pattern no proof holds, as `Arena::poison` writes.
        if cfg!(debug_assertions) {
            codewords.fill(-F::ONE);
        }
        give(&self.buffers.codewords, codewords);
        let work = StageWork {
            work: Work::Uniform {
                units: units.max(1),
                cycles_per_unit: self.cost.field_mul + self.cost.global_access,
            },
            h2d_bytes: 0,
            // The finished proof leaves the device.
            d2h_bytes: proof.size_bytes() as u64,
            mem_after: 0,
        };
        (TaskState::Done(proof), work)
    }
}

/// The paper's sumcheck system as a [`ProverBackend`]: encoder → Merkle →
/// sum-check → assemble over one shared R1CS. Its clones share the storage
/// the stages reuse from proof to proof.
pub struct SpartanBackend<F: Field> {
    r1cs: Arc<R1cs<F>>,
    key: Arc<PcsKey<F>>,
    buffers: Arc<Buffers<F>>,
}

impl<F: Field> Clone for SpartanBackend<F> {
    fn clone(&self) -> Self {
        Self {
            r1cs: Arc::clone(&self.r1cs),
            key: Arc::clone(&self.key),
            buffers: Arc::clone(&self.buffers),
        }
    }
}

impl<F: Field> SpartanBackend<F> {
    /// Creates the backend over one shared circuit and PCS parameter set,
    /// building the witness commitment key every proof and every
    /// verification shares.
    pub fn new(r1cs: Arc<R1cs<F>>, params: PcsParams) -> Self {
        let key = Arc::new(spartan::witness_key(params, &r1cs));
        let buffers = Arc::default();
        Self { r1cs, key, buffers }
    }

    /// The capacities of the sum-check arenas' field storage its stages
    /// gave back.
    pub fn arena_capacities(&self) -> Vec<usize> {
        let arenas = self.buffers.arenas.lock();
        arenas
            .expect("no stage panics holding it")
            .iter()
            .map(Arena::capacity)
            .collect()
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
        let r1cs = &self.r1cs;
        check_len(self.name(), "inputs", inputs.len(), r1cs.num_inputs());
        check_len(self.name(), "witness", witness.len(), r1cs.num_witness());
        BatchTask {
            inputs,
            witness,
            state: TaskState::Fresh,
        }
    }

    /// The analogue of the paper's measured 35 : 12 : 113 amortized-time
    /// ratio, derived from the cost model so the allocation tracks the
    /// simulated device.
    fn module_weights(&self, gpu: &Gpu) -> Vec<u64> {
        let (r1cs, key) = (&self.r1cs, &self.key);
        let cost = gpu.cost();
        let [w_encode, w_merkle] = commit::module_weights(gpu, key);
        let m = r1cs.padded_constraints() as u64;
        let n = r1cs.z_len() as u64;
        let w_sumcheck = (8 * m + 4 * n) * (cost.sumcheck_pair() + cost.shared_access);
        let w_open =
            2 * key.n_rows() as u64 * key.n_cols() as u64 * (cost.field_mul + cost.global_access);
        vec![w_encode, w_merkle, w_sumcheck.max(1), w_open.max(1)]
    }

    /// Thread allocation follows the measured-ratio rule under that
    /// device's cost model, so heterogeneous pool members each get their
    /// own stage set.
    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>> {
        let threads = allocate_threads(total_threads, &self.module_weights(gpu));
        let stage = |k| Stage {
            k,
            threads: threads[k],
            r1cs: Arc::clone(&self.r1cs),
            key: Arc::clone(&self.key),
            buffers: Arc::clone(&self.buffers),
            cost: *gpu.cost(),
        };
        (0..STAGE_NAMES.len())
            .map(|k| Box::new(stage(k)) as BoxedStage<BatchTask<F>>)
            .collect()
    }

    /// The maximum of the per-stage `mem_after` values the stages report,
    /// so a batch that would OOM at full pipeline residency is split in
    /// time instead of erroring.
    fn task_footprint_bytes(&self) -> u64 {
        let encoded_bytes = encoded_bytes(&self.key);
        let m = self.r1cs.padded_constraints() as u64;
        let n = self.r1cs.z_len() as u64;
        // Stage footprints: encoder holds the codeword matrix; merkle adds the
        // tree layers; sum-check swaps the tree for its folding tables.
        let merkle = encoded_bytes + self.key.codeword_len() as u64 * 64;
        let sumcheck = encoded_bytes + 2 * (3 * m + n) * 32 / 3;
        encoded_bytes.max(merkle).max(sumcheck)
    }

    fn finish(&self, task: Self::Task) -> (Self::Statement, Self::Proof) {
        match task.state {
            TaskState::Done(proof) => (task.inputs, proof),
            _ => panic!("task has not completed the pipeline"),
        }
    }

    /// [`spartan::verify_with`], its `eq(ry, ·)` vector in a sum-check
    /// arena the stages left idle.
    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool {
        let mut arena = take(&self.buffers.arenas);
        let ok = spartan::verify_in(&self.key, &self.r1cs, statement, proof, &mut arena);
        arena.poison();
        give(&self.buffers.arenas, arena);
        ok
    }
}

/// Finished backend proofs, each paired with the statement it attests to.
pub type BackendProofs<B> = Vec<(<B as ProverBackend>::Statement, <B as ProverBackend>::Proof)>;

/// Result of a backend-generic batch proving run: finished
/// `(statement, proof)` pairs in input order plus the run statistics.
pub struct BackendBatchRun<B: ProverBackend> {
    /// Finished proofs paired with their statements, in input order.
    pub proofs: BackendProofs<B>,
    /// Timing statistics.
    pub stats: RunStats,
}

/// Proves a batch of backend instances through the fully pipelined system
/// on one device. An empty batch is a no-op returning an empty run with
/// zeroed statistics.
///
/// # Errors
///
/// Returns [`PipelineError::OutOfDeviceMemory`] if the per-proof working
/// set does not fit in simulated device memory.
///
/// # Panics
///
/// Panics if a backend stage panics. No built-in stage checks that an
/// instance satisfies its relation: an unsatisfying Spartan assignment is
/// proved into a proof that `verify` rejects, every Groth16 witness
/// satisfies the cyclic relation, and Orion has no relation.
pub fn prove_batch_with<B: ProverBackend>(
    gpu: &mut Gpu,
    backend: &B,
    instances: Vec<B::Instance>,
    total_threads: u32,
    multi_stream: bool,
) -> Result<BackendBatchRun<B>, PipelineError> {
    let stages = backend.stages(gpu, total_threads);
    let tasks: Vec<B::Task> = instances.into_iter().map(|i| backend.begin(i)).collect();
    let run = Pipeline::new(gpu, stages, multi_stream).run(tasks)?;
    let proofs = run.outputs.into_iter().map(|t| backend.finish(t)).collect();
    Ok(BackendBatchRun {
        proofs,
        stats: run.stats,
    })
}

/// Proves a batch of backend instances through the kernel-per-task naive
/// baseline (Figure 4a's "intuitive" schedule): the same backend stages —
/// so proofs are byte-identical to the pipelined path — but executed in
/// groups of `concurrent` tasks with the thread budget split evenly and
/// no cross-stage pipelining. The whole batch's working set is pre-loaded.
/// An empty batch is a no-op, as in [`prove_batch_with`].
///
/// # Panics
///
/// Panics if a backend stage panics or the pre-loaded working set does
/// not fit in device memory.
pub fn prove_batch_naive_with<B: ProverBackend>(
    gpu: &mut Gpu,
    backend: &B,
    instances: Vec<B::Instance>,
    total_threads: u32,
    concurrent: usize,
) -> BackendBatchRun<B> {
    let stages = backend.stages(gpu, total_threads);
    let tasks: Vec<B::Task> = instances.into_iter().map(|i| backend.begin(i)).collect();
    let preload = backend.task_footprint_bytes() * tasks.len() as u64;
    let run = batchzk_pipeline::naive::run_stages_naive(
        gpu,
        stages,
        tasks,
        backend.name(),
        preload,
        total_threads,
        concurrent,
    );
    let proofs = run.outputs.into_iter().map(|t| backend.finish(t)).collect();
    BackendBatchRun {
        proofs,
        stats: run.stats,
    }
}

/// Result of proving one batch across a device pool.
pub struct BackendPoolRun<B: ProverBackend> {
    /// Finished proofs paired with their statements, in *input order* —
    /// sharding is invisible, and the proof bytes are identical to a
    /// single-device [`prove_batch_with`] of the same instances.
    pub proofs: BackendProofs<B>,
    /// Per-device run statistics, in pool order.
    pub device_stats: Vec<RunStats>,
    /// Per device, the instance indices the first round placed on it
    /// (a replay round may move some of them elsewhere).
    pub assignments: Vec<Vec<usize>>,
    /// Wall time of the batch: the slowest device's elapsed ms, summed
    /// over the recovery rounds when a fault fired.
    pub makespan_ms: f64,
    /// Per-device elapsed milliseconds for this batch.
    pub device_ms: Vec<f64>,
    /// Fault-recovery account when a device fail-stopped or dropped a
    /// kernel mid-batch (`None` for a fault-free run). Even under
    /// recovery the proofs above are byte-identical to a fault-free run.
    pub recovery: Option<RecoveryReport>,
}

impl<B: ProverBackend> BackendPoolRun<B> {
    /// Batch throughput against the makespan, in proofs per millisecond.
    pub fn throughput_per_ms(&self) -> f64 {
        sched::throughput_per_ms(self.proofs.len(), self.makespan_ms)
    }

    /// Max-over-mean of elapsed time across devices that proved work
    /// (1.0 = perfectly balanced; 0 when nothing ran).
    pub fn imbalance(&self) -> f64 {
        sched::imbalance(self.makespan_ms, &self.device_ms)
    }

    /// The run as the metrics recorder and the pool analyzer read it,
    /// beside `pool`, the pool it ran on.
    pub fn pool_run<'a>(&'a self, pool: &'a DevicePool) -> observe::PoolRun<'a> {
        observe::PoolRun {
            device_stats: &self.device_stats,
            device_ms: &self.device_ms,
            makespan_ms: self.makespan_ms,
            recovery: self.recovery.as_ref(),
            pool,
        }
    }
}

/// Folds the outcome of one [`prove_batch_pool_with`] call into `registry`
/// under `module`: the error families for a failed batch; the run, its
/// recovery account if a fault fired, and the pool's health afterwards
/// for a finished one.
pub fn record_pool_outcome<B: ProverBackend>(
    registry: &mut Registry,
    module: &str,
    pool: &DevicePool,
    outcome: &Result<BackendPoolRun<B>, PipelineError>,
) {
    observe::record_pool(
        registry,
        module,
        outcome.as_ref().map(|run| run.pool_run(pool)),
    );
}

/// Proves a batch of backend instances across a [`DevicePool`], placed by
/// [`run_sharded`]'s one memory-aware routine, which sizes per-device
/// admission from [`ProverBackend::task_footprint_bytes`]. Each device runs
/// its own stage set with `total_threads` allocated by its cost model;
/// proofs come back in input order and are byte-identical to a
/// single-device [`prove_batch_with`]. `_policy` names that one placement;
/// it is kept only because the frozen `benchmark/` crate passes it, and
/// goes with the next change to `benchmark/`.
///
/// Devices carrying scripted faults (a
/// [`FaultPlan`](batchzk_gpu_sim::FaultPlan) applied to the pool) are
/// tolerated: a fail-stop or dropped kernel salvages the affected tasks
/// and places them again on the surviving devices, and backend stages are
/// replay-safe, so recovered proofs are still byte-identical to a
/// fault-free run. The cost appears in [`BackendPoolRun::recovery`].
///
/// # Errors
///
/// Returns [`PipelineError::OutOfDeviceMemory`] if a shard does not fit
/// its device even under the memory-aware admission cap (only a single
/// task larger than every device's memory is unrecoverable), and
/// [`PipelineError::DeviceFailed`] when *every* pool device fail-stops.
///
/// # Panics
///
/// Panics if a backend stage panics; an unsatisfying instance does not
/// panic (see [`prove_batch_with`]).
pub fn prove_batch_pool_with<B: ProverBackend>(
    pool: &mut DevicePool,
    backend: &B,
    instances: Vec<B::Instance>,
    total_threads: u32,
    multi_stream: bool,
    _policy: ShardPolicy,
) -> Result<BackendPoolRun<B>, PipelineError> {
    let tasks: Vec<B::Task> = instances.into_iter().map(|i| backend.begin(i)).collect();
    let stage_backend = backend.clone();
    let run = run_sharded(
        pool,
        tasks,
        backend.task_footprint_bytes(),
        move |gpu| stage_backend.stages(gpu, total_threads),
        multi_stream,
    )?;
    let proofs = run.outputs.into_iter().map(|t| backend.finish(t)).collect();
    Ok(BackendPoolRun {
        proofs,
        device_stats: run.device_stats,
        assignments: run.assignments,
        makespan_ms: run.makespan_ms,
        device_ms: run.device_ms,
        recovery: run.recovery,
    })
}

/// One request entering the backend-generic online service: a priority
/// class, an arrival cycle in virtual device time, and the backend
/// instance to prove.
pub type BackendProofRequest<B> = (PriorityClass, u64, <B as ProverBackend>::Instance);

/// Serves an open-loop stream of backend requests through the online
/// service front ([`batchzk_pipeline::service`]): per-device pipelines fed
/// continuously under admission control, with per-class latency SLOs
/// judged in virtual device cycles. Arrival cycles come from a
/// deterministic [`ArrivalPlan`](batchzk_gpu_sim::ArrivalPlan) expansion
/// or any other virtual-time source. Unlike [`prove_batch_pool_with`],
/// requests the admission controller rejects are *not* proved — the
/// outcome reports them per class with a reject reason. With a
/// [`MixedBackend`](crate::MixedBackend) the one service
/// instance interleaves every protocol's tasks through the same pipelines
/// under the existing SLO classes.
///
/// # Errors
///
/// Returns [`ServiceError::InvalidInput`] for zero-capacity configs,
/// empty pools, or mixed-clock pools, and [`ServiceError::Pipeline`] for
/// device-side failures.
///
/// # Panics
///
/// Panics if a backend stage panics; an unsatisfying instance does not
/// panic (see [`prove_batch_with`]).
pub fn prove_service_with<B: ProverBackend>(
    pool: &mut DevicePool,
    backend: &B,
    config: &ServiceConfig,
    requests: Vec<BackendProofRequest<B>>,
    total_threads: u32,
    multi_stream: bool,
) -> Result<ServiceOutcome<B::Task>, ServiceError> {
    let service_requests: Vec<ServiceRequest<B::Task>> = requests
        .into_iter()
        .map(|(class, arrival_cycle, instance)| ServiceRequest {
            class,
            arrival_cycle,
            task: backend.begin(instance),
        })
        .collect();
    let stage_backend = backend.clone();
    run_service(
        pool,
        config,
        service_requests,
        move |gpu| stage_backend.stages(gpu, total_threads),
        multi_stream,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::synthetic_r1cs;
    use crate::spartan::verify;
    use batchzk_field::Fr;
    use batchzk_gpu_sim::DeviceProfile;
    use batchzk_pipeline::analysis::analyze_pool;

    fn test_params() -> PcsParams {
        PcsParams {
            num_col_tests: 12,
            ..PcsParams::default()
        }
    }

    /// Builds `count` satisfying instances of one synthetic circuit.
    #[allow(clippy::type_complexity)]
    fn instances(s: usize, count: usize) -> (Arc<R1cs<Fr>>, Vec<(Vec<Fr>, Vec<Fr>)>) {
        // Re-deriving witnesses for a shared circuit: rerun the generator
        // with the same seed (same topology) and vary only the initial
        // witness value by scaling — multiplication chains stay valid under
        // scaling only for specific structures, so instead we reuse the same
        // witness for each slot; the system's per-task work is identical.
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(s, 42);
        let batch = (0..count)
            .map(|_| (inputs.clone(), witness.clone()))
            .collect();
        (Arc::new(r1cs), batch)
    }

    fn backend(r1cs: &Arc<R1cs<Fr>>) -> SpartanBackend<Fr> {
        SpartanBackend::new(Arc::clone(r1cs), test_params())
    }

    #[test]
    fn groth_backend_known_answer_proofs() {
        // SHA-256 of the proof's `Debug` rendering (canonical coordinates
        // and evaluations), recorded at the commit before `curve::msm`
        // became signed-digit and batch-affine: the commitments are the
        // same group elements, so the proofs are the same bytes.
        use batchzk_pipeline::groth::GrothBackend;
        let backend = GrothBackend::new(8);
        let witnesses: Vec<Vec<Fr>> = [7, 7_061_979]
            .map(|seed| backend.circuit().witness(seed))
            .to_vec();
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let run = prove_batch_with(&mut gpu, &backend, witnesses, 2048, true).expect("fits");
        let digests = [
            "4f08ba95ecc2d2208da894de5b6bd419a49ded9de935e2e780b0826de6071056",
            "55a43bcf5ced64fae418330eb8f2e3e53d08e6c9f5d91e890f50734fc08a3434",
        ];
        for ((statement, proof), digest) in run.proofs.iter().zip(digests) {
            assert!(backend.verify(statement, proof));
            let rendered = format!("{proof:?}");
            let found: String = batchzk_hash::sha256(rendered.as_bytes())
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(found, digest);
        }
    }

    #[test]
    fn batch_proofs_all_verify() {
        let (r1cs, batch) = instances(24, 6);
        let params = test_params();
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let run = prove_batch_with(&mut gpu, &backend(&r1cs), batch, 4096, true).expect("fits");
        assert_eq!(run.proofs.len(), 6);
        for (inputs, proof) in &run.proofs {
            assert!(verify(&params, &r1cs, inputs, proof));
        }
    }

    #[test]
    fn batch_proof_equals_single_shot_proof() {
        // The pipeline must produce byte-identical proofs to the plain
        // prover (same transcript, same randomness).
        let (r1cs, batch) = instances(16, 2);
        let params = test_params();
        let reference = spartan::prove(&params, &r1cs, &batch[0].0, &batch[0].1);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = prove_batch_with(&mut gpu, &backend(&r1cs), batch, 2048, true).expect("fits");
        assert_eq!(run.proofs[0].1, reference);
        assert_eq!(run.proofs[1].1, reference);
    }

    #[test]
    fn unsatisfying_assignments_prove_into_proofs_verify_rejects() {
        // The synthetic witness with its middle entry altered, as
        // `spartan`'s known-answer test alters it: no stage checks
        // satisfaction, so the batch and pool paths finish without a panic
        // and every proof they return fails to verify.
        let (r1cs, inputs, mut witness) = synthetic_r1cs::<Fr>(16, 42);
        let middle = witness.len() / 2;
        witness[middle] += Fr::ONE;
        let r1cs = Arc::new(r1cs);
        assert!(!r1cs.is_satisfied(&r1cs.assemble_z(&inputs, &witness)));
        let backend = backend(&r1cs);
        let batch = vec![(inputs, witness); 5];
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let single = prove_batch_with(&mut gpu, &backend, batch.clone(), 2048, true)
            .expect("fits")
            .proofs;
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let policy = ShardPolicy::MemoryAware;
        let pooled = prove_batch_pool_with(&mut pool, &backend, batch, 2048, true, policy)
            .expect("fits")
            .proofs;
        assert_eq!(single.len(), 5);
        assert_eq!(pooled.len(), 5);
        for (inputs, proof) in single.iter().chain(&pooled) {
            assert!(!backend.verify(inputs, proof));
        }
    }

    #[test]
    fn throughput_improves_with_batch_size() {
        let (r1cs, one) = instances(16, 1);
        let backend = backend(&r1cs);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let single = prove_batch_with(&mut gpu, &backend, one, 2048, true)
            .expect("fits")
            .stats;
        let (_, many) = instances(16, 12);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let batched = prove_batch_with(&mut gpu, &backend, many, 2048, true)
            .expect("fits")
            .stats;
        assert!(batched.throughput_per_ms > 1.5 * single.throughput_per_ms);
    }

    #[test]
    fn multi_stream_overlap_helps() {
        let (r1cs, batch) = instances(24, 8);
        let backend = backend(&r1cs);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let overlapped = prove_batch_with(&mut gpu, &backend, batch.clone(), 2048, true)
            .expect("fits")
            .stats;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let serial = prove_batch_with(&mut gpu, &backend, batch, 2048, false)
            .expect("fits")
            .stats;
        assert!(overlapped.total_cycles <= serial.total_cycles);
    }

    #[test]
    fn device_memory_released() {
        let (r1cs, batch) = instances(16, 4);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let _ = prove_batch_with(&mut gpu, &backend(&r1cs), batch, 1024, true).expect("fits");
        assert_eq!(gpu.memory_ref().in_use(), 0);
    }

    #[test]
    fn footprint_covers_a_task() {
        // No stage of one task reports more device memory resident than
        // the footprint the scheduler admits it by, and a run's peak is at
        // most two stages' residency at once (the engine allocates a
        // stage's footprint before it frees the last one's).
        let (r1cs, batch) = instances(64, 1);
        let backend = backend(&r1cs);
        let gpu = Gpu::new(DeviceProfile::a100());
        let mut task = backend.begin(batch[0].clone());
        let stages = backend.stages(&gpu, 2048).into_iter();
        let resident = stages.map(|s| s.process(&mut task).mem_after).max();
        assert!(backend.task_footprint_bytes() >= resident.expect("four stages"));
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let run = prove_batch_with(&mut gpu, &backend, batch, 2048, true).expect("fits");
        let peak = run.stats.peak_mem_bytes;
        assert!(
            peak > 0 && 2 * backend.task_footprint_bytes() >= peak,
            "peak {peak}"
        );
    }

    #[test]
    fn module_weights_are_positive_and_sumcheck_heavy() {
        let (r1cs, _) = instances(64, 1);
        let gpu = Gpu::new(DeviceProfile::v100());
        let w = backend(&r1cs).module_weights(&gpu);
        assert!(w.iter().all(|&x| x > 0));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (r1cs, _) = instances(16, 1);
        let backend = backend(&r1cs);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run =
            prove_batch_with(&mut gpu, &backend, vec![], 2048, true).expect("nothing to prove");
        assert!(run.proofs.is_empty());
        assert_eq!(run.stats.tasks, 0);
        assert_eq!(run.stats.total_cycles, 0, "no device time charged");
        assert_eq!(gpu.memory_ref().in_use(), 0);
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 2);
        let run = prove_batch_pool_with(
            &mut pool,
            &backend,
            vec![],
            2048,
            true,
            ShardPolicy::MemoryAware,
        )
        .expect("nothing to prove");
        assert!(run.proofs.is_empty());
        assert_eq!(run.makespan_ms, 0.0);
    }

    #[test]
    fn empty_naive_batch_is_a_noop() {
        let (r1cs, _) = instances(16, 1);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = prove_batch_naive_with(&mut gpu, &backend(&r1cs), vec![], 2048, 4);
        assert!(run.proofs.is_empty());
        assert_eq!(run.stats.tasks, 0);
        assert_eq!(run.stats.total_cycles, 0, "no device time charged");
        assert_eq!(gpu.memory_ref().in_use(), 0);
    }

    #[test]
    fn proofs_identical_across_host_thread_counts() {
        // Host parallelism may only change wall-clock: proofs, inputs, and
        // every simulated statistic must be byte-for-byte the threads=1
        // result at any thread count, single-device and pooled alike.
        let (r1cs, batch) = instances(16, 6);
        let backend = backend(&r1cs);
        let runs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                batchzk_par::with_threads(t, || {
                    let mut gpu = Gpu::new(DeviceProfile::a100());
                    let single = prove_batch_with(&mut gpu, &backend, batch.clone(), 4096, true)
                        .expect("fits");
                    let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 3);
                    let pooled = prove_batch_pool_with(
                        &mut pool,
                        &backend,
                        batch.clone(),
                        4096,
                        true,
                        ShardPolicy::MemoryAware,
                    )
                    .expect("fits");
                    (single, pooled)
                })
            })
            .collect();
        let (base_single, base_pooled) = &runs[0];
        // Every run reused the backend's buffers, which debug builds fill
        // with a non-zero pattern: the proofs are still the one-shot bytes.
        let reference = spartan::prove(&test_params(), &r1cs, &batch[0].0, &batch[0].1);
        assert!(base_pooled.proofs.iter().all(|(_, p)| *p == reference));
        for (i, (single, pooled)) in runs.iter().enumerate().skip(1) {
            let t = [1, 2, 4][i];
            assert_eq!(single.proofs, base_single.proofs, "threads={t}: proofs");
            assert_eq!(single.stats, base_single.stats, "threads={t}: stats");
            assert_eq!(pooled.proofs, base_pooled.proofs, "threads={t}: pooled");
            assert_eq!(
                pooled.assignments, base_pooled.assignments,
                "threads={t}: shard plan"
            );
            assert_eq!(
                pooled.device_stats, base_pooled.device_stats,
                "threads={t}: device stats"
            );
            assert_eq!(
                pooled.makespan_ms, base_pooled.makespan_ms,
                "threads={t}: makespan"
            );
        }
    }

    #[test]
    fn sharded_proofs_byte_identical_to_single_device() {
        // Determinism pin: a 4-device pool emits exactly the proofs a
        // single device emits, in input order — scheduling is invisible in
        // the output bytes.
        let (r1cs, batch) = instances(16, 10);
        let backend = backend(&r1cs);
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let single = prove_batch_with(&mut gpu, &backend, batch.clone(), 4096, true).expect("fits");
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 4);
        let policy = ShardPolicy::MemoryAware;
        let pooled = prove_batch_pool_with(&mut pool, &backend, batch.clone(), 4096, true, policy)
            .expect("fits");
        assert_eq!(pooled.proofs.len(), single.proofs.len());
        for (i, ((pi, pp), (si, sp))) in pooled.proofs.iter().zip(&single.proofs).enumerate() {
            assert_eq!(pi, si, "input order preserved at {i}");
            assert_eq!(pp, sp, "proof {i} differs");
        }
        let assigned: usize = pooled.assignments.iter().map(Vec::len).sum();
        assert_eq!(assigned, batch.len(), "every instance placed");
        assert!(pooled.makespan_ms > 0.0);
        assert!(pooled.imbalance() >= 1.0);
    }

    #[test]
    fn memory_aware_pool_survives_oom() {
        // Capacity of 1.5 task footprints: full four-stage residency
        // (~1.6 footprints at this size) would OOM, but one resident task —
        // even mid-realloc — fits. The pool must complete by capping
        // in-flight admission.
        let (r1cs, batch) = instances(16, 6);
        let params = test_params();
        let backend = backend(&r1cs);
        let cap = backend.task_footprint_bytes() * 3 / 2;
        let small = DeviceProfile {
            device_mem_bytes: cap,
            ..DeviceProfile::a100()
        };
        let mut pool = DevicePool::homogeneous(small, 2);
        let run = prove_batch_pool_with(
            &mut pool,
            &backend,
            batch.clone(),
            4096,
            true,
            ShardPolicy::MemoryAware,
        )
        .expect("admission cap splits the batch in time");
        assert_eq!(run.proofs.len(), batch.len());
        for (inputs, proof) in &run.proofs {
            assert!(verify(&params, &r1cs, inputs, proof));
        }
        for d in 0..pool.len() {
            assert_eq!(pool.device(d).memory_ref().in_use(), 0);
        }
    }

    #[test]
    fn heterogeneous_pool_leans_on_the_stronger_device() {
        let (r1cs, batch) = instances(16, 12);
        let params = test_params();
        let profiles = [DeviceProfile::v100(), DeviceProfile::h100()];
        let mut pool = DevicePool::new(profiles.map(Gpu::new).into());
        let run = prove_batch_pool_with(
            &mut pool,
            &backend(&r1cs),
            batch,
            4096,
            true,
            ShardPolicy::MemoryAware,
        )
        .expect("fits");
        assert!(
            run.assignments[1].len() > run.assignments[0].len(),
            "h100 {} vs v100 {}",
            run.assignments[1].len(),
            run.assignments[0].len()
        );
        for (inputs, proof) in &run.proofs {
            assert!(verify(&params, &r1cs, inputs, proof));
        }
    }

    /// The end-to-end tentpole invariant: a device that fail-stops halfway
    /// through its shard loses no proofs — the survivor replays the
    /// salvaged tasks and the recovered proofs are byte-identical to a
    /// fault-free run (and still verify). The same fault plan is also
    /// byte-deterministic across host thread counts.
    #[test]
    fn pool_recovers_from_mid_batch_fail_stop_with_identical_proofs() {
        use batchzk_gpu_sim::FaultPlan;
        let (r1cs, batch) = instances(16, 8);
        let params = test_params();
        let backend = backend(&r1cs);
        let mut clean_pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let clean = prove_batch_pool_with(
            &mut clean_pool,
            &backend,
            batch.clone(),
            4096,
            true,
            ShardPolicy::MemoryAware,
        )
        .expect("fault-free baseline");
        assert!(clean.recovery.is_none());

        // Fail device 1 halfway through its fault-free elapsed cycles —
        // squarely mid-shard, with proofs completed and proofs in flight.
        let mid = clean.device_stats[1].total_cycles / 2;
        assert!(mid > 0);
        let faulty = |threads: usize| {
            batchzk_par::with_threads(threads, || {
                let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
                pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, mid));
                prove_batch_pool_with(
                    &mut pool,
                    &backend,
                    batch.clone(),
                    4096,
                    true,
                    ShardPolicy::MemoryAware,
                )
                .expect("survivor completes the batch")
            })
        };
        let run = faulty(1);
        assert_eq!(run.proofs, clean.proofs, "recovery must be invisible");
        // The two devices shared the backend's reused buffers throughout.
        let reference = spartan::prove(&params, &r1cs, &batch[0].0, &batch[0].1);
        assert!(run.proofs.iter().all(|(_, p)| *p == reference));
        for (io, proof) in &run.proofs {
            assert!(verify(&params, &r1cs, io, proof));
        }
        let rec = run.recovery.as_ref().expect("the fail-stop fired");
        assert_eq!(rec.failed_devices, vec![1]);
        assert!(rec.replayed_tasks > 0);
        assert!(
            run.makespan_ms > clean.makespan_ms,
            "recovery costs wall time"
        );
        // Same fault plan, more host threads: byte-identical everything.
        let run2 = faulty(4);
        assert_eq!(run2.proofs, run.proofs);
        assert_eq!(run2.recovery, run.recovery);
        assert_eq!(run2.device_ms, run.device_ms);
    }

    #[test]
    fn faster_gpu_higher_throughput() {
        let (r1cs, batch) = instances(16, 6);
        let backend = backend(&r1cs);
        let mut v100 = Gpu::new(DeviceProfile::v100());
        let slow = prove_batch_with(&mut v100, &backend, batch.clone(), 4096, true)
            .expect("fits")
            .stats;
        let mut h100 = Gpu::new(DeviceProfile::h100());
        let fast = prove_batch_with(&mut h100, &backend, batch, 4096, true)
            .expect("fits")
            .stats;
        assert!(fast.throughput_per_ms > slow.throughput_per_ms);
    }
    /// Under fault recovery the batch's makespan is the sum of the rounds'
    /// maxima, which no single device's elapsed time need reach: here the
    /// device that dies is round 0's laggard and the other one replays.
    /// `record_pool_outcome` must report the run's makespan, not the
    /// slowest device's time, beside the fault families and pool health,
    /// and the pool analyzer must judge the run by that makespan too.
    #[test]
    fn pool_gauges_use_the_runs_makespan_under_recovery() {
        use batchzk_gpu_sim::FaultPlan;
        let (r1cs, batch) = instances(16, 5);
        let backend = SpartanBackend::new(
            r1cs,
            PcsParams {
                num_col_tests: 8,
                ..PcsParams::default()
            },
        );
        let pool_failing_at = |cycle: Option<u64>| {
            let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
            if let Some(cycle) = cycle {
                pool.apply_fault_plan(&FaultPlan::new().fail_stop(0, cycle));
            }
            pool
        };
        let prove = |pool: &mut DevicePool| {
            let policy = ShardPolicy::MemoryAware;
            prove_batch_pool_with(pool, &backend, batch.clone(), 2048, true, policy)
        };
        let clean = prove(&mut pool_failing_at(None)).expect("fault-free");
        let busy = clean.device_stats[0].total_cycles;
        let idle = clean.device_stats[1].total_cycles;
        assert!(busy > idle, "placement gives device 0 the odd task");
        // Device 0 dies after device 1 has drained its own shard.
        let mut pool = pool_failing_at(Some((busy + idle) / 2));
        let outcome = prove(&mut pool);
        let mut registry = Registry::new();
        record_pool_outcome(&mut registry, backend.name(), &pool, &outcome);
        let run = outcome.expect("a device survives");
        let slowest = run.device_ms.iter().copied().fold(0.0, f64::max);
        assert!(run.makespan_ms > slowest, "the replay round comes on top");

        let m = [("module", "sumcheck")];
        let gauge = |name| registry.gauge(name, &m);
        assert_eq!(gauge("batchzk_pool_makespan_ms"), Some(run.makespan_ms));
        assert_eq!(
            gauge("batchzk_throughput_tasks_per_ms"),
            Some(run.throughput_per_ms())
        );
        assert_eq!(gauge("batchzk_pool_imbalance"), Some(run.imbalance()));
        let recovery = run.recovery.as_ref().expect("the fail-stop fired");
        assert_eq!(registry.counter("batchzk_device_failures_total", &m), 1);
        assert_eq!(
            registry.counter("batchzk_tasks_replayed_total", &m),
            recovery.replayed_tasks as u64
        );
        assert_eq!(gauge("batchzk_pool_failed_devices"), Some(1.0));
        assert_eq!(gauge("batchzk_pool_degraded_devices"), Some(0.0));

        let analysis = analyze_pool(&run.pool_run(&pool), None);
        assert_eq!(analysis.makespan_ms, run.makespan_ms);
        assert_eq!(analysis.imbalance, run.imbalance());
    }

    /// A device that fail-stopped in one batch is not placed on in the
    /// next: the second batch records no fresh device failure and replays
    /// nothing, while the pool's health gauge still reports the dead device.
    /// Device 1 dies before its first step, so no measured history holds it
    /// back: only its health keeps tasks off it.
    #[test]
    fn dead_device_is_counted_once_across_batches() {
        use batchzk_gpu_sim::FaultPlan;
        let (r1cs, batch) = instances(16, 8);
        let backend = backend(&r1cs);
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, 0));
        let mut registry = Registry::new();
        let m = [("module", "sumcheck")];
        let mut prove = |pool: &mut DevicePool| {
            let policy = ShardPolicy::MemoryAware;
            let outcome = prove_batch_pool_with(pool, &backend, batch.clone(), 4096, true, policy);
            record_pool_outcome(&mut registry, backend.name(), pool, &outcome);
            let failures = registry.counter("batchzk_device_failures_total", &m);
            let replayed = registry.counter("batchzk_tasks_replayed_total", &m);
            (outcome.expect("device 0 survives"), failures, replayed)
        };
        let (first, failures, replayed) = prove(&mut pool);
        assert!(first.recovery.is_some());
        assert_eq!(failures, 1);
        assert!(replayed > 0);
        let (second, failures_after, replayed_after) = prove(&mut pool);
        assert!(
            second.recovery.is_none(),
            "no fault fired in the second batch"
        );
        assert_eq!(second.assignments[1], Vec::<usize>::new());
        assert_eq!(second.proofs, first.proofs);
        assert_eq!(failures_after, 1, "the dead device is counted once");
        assert_eq!(
            replayed_after, replayed,
            "nothing replayed in the second batch"
        );
        assert_eq!(registry.gauge("batchzk_pool_failed_devices", &m), Some(1.0));
    }

    #[test]
    fn service_proofs_verify_and_match_single_shot() {
        use batchzk_pipeline::ClassPolicy;
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(16, 42);
        let r1cs = Arc::new(r1cs);
        let params = PcsParams {
            num_col_tests: 8,
            ..PcsParams::default()
        };
        let instance = (inputs, witness);
        let reference = spartan::prove(&params, &r1cs, &instance.0, &instance.1);
        let config = ServiceConfig {
            classes: [ClassPolicy {
                queue_cap: 4,
                slo_cycles: 100_000_000,
            }; 3],
            max_outstanding: 16,
            device_queue_cap: 4,
            max_in_flight: 0,
            timeline_window_cycles: 0,
        };
        let requests: Vec<BackendProofRequest<SpartanBackend<Fr>>> = (0..6)
            .map(|i| {
                (
                    PriorityClass::ALL[i % 3],
                    10_000 * i as u64,
                    instance.clone(),
                )
            })
            .collect();
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let backend = SpartanBackend::new(Arc::clone(&r1cs), params);
        let outcome = prove_service_with(&mut pool, &backend, &config, requests, 2048, true)
            .expect("service run");
        assert_eq!(outcome.completions.len(), 6, "no load shed at this pace");
        for completion in outcome.completions {
            assert!(completion.completed_cycle >= completion.arrival_cycle);
            let (inputs, proof) = backend.finish(completion.task);
            // Online serving must not change the proof system's output.
            assert_eq!(proof, reference);
            assert!(verify(&params, &r1cs, &inputs, &proof));
        }
        for report in &outcome.reports {
            assert_eq!(report.submitted, 2);
            assert_eq!(report.completed, 2);
        }
        // The flight recorder rides the outcome: its per-window counters
        // conserve the end-of-run totals.
        assert!(!outcome.timeline.is_empty());
        let accepted: u64 = outcome
            .timeline
            .windows()
            .iter()
            .flat_map(|w| w.classes.iter())
            .map(|c| c.accepted)
            .sum();
        assert_eq!(accepted, 6);
        let completed: u64 = outcome
            .timeline
            .windows()
            .iter()
            .map(|w| w.completed())
            .sum();
        assert_eq!(completed, 6);
    }
}
