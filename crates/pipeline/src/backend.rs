//! The [`ProverBackend`] trait: one pipelined proving protocol behind a
//! common seam.
//!
//! The batch layer of `batchzk-zkp` (`prove_batch_with`,
//! `prove_batch_pool_with` and `prove_service_with`) is generic over this
//! trait, so the same pipeline engine, scheduler, admission control and
//! metrics serve *any* protocol that can express its prover as a fixed
//! sequence of [`PipeStage`](crate::PipeStage)s. The Groth16-style stack
//! implements it here ([`GrothBackend`](crate::groth::GrothBackend)); the
//! sumcheck system, the Orion PCS-opening pipeline and their mixed union
//! implement it in `batchzk-zkp`, which re-exports the trait.
//!
//! [`ProverBackend::begin`] and [`ProverBackend::finish`] are the only way
//! into and out of a task. In between, a task is its instance plus one
//! state enum with a variant per stage boundary; stage 0 reads the
//! instance only, which is what lets fault recovery restart a salvaged
//! task there (DESIGN.md §15, "Task state").
//!
//! A further protocol plugs in as one struct and one impl of the trait: a
//! task type of that shape, stages that advance it while reporting
//! simulated [`StageWork`](crate::StageWork), an analytic footprint for
//! the memory-aware scheduler, and a verification hook. Every layer
//! above — sharding, fault recovery, the online service, BENCH.json —
//! comes for free.

use batchzk_gpu_sim::Gpu;

use crate::engine::BoxedStage;

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

    /// Analytic device-memory footprint of one task in bytes: the largest
    /// residency a task holds between two stages (the maximum `mem_after`
    /// its stages report). It is not the task's transient peak: the engine
    /// allocates a stage's new `mem_after` before it frees the old one, so
    /// during a transition one task holds up to two stages' residency. The
    /// scheduler reserves one footprint for that transition: each device
    /// admits `capacity / footprint − 1` tasks at once, at least 1.
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

/// The shape check every built-in [`ProverBackend::begin`] makes: a
/// mis-sized instance panics here, on the submitting thread and naming the
/// backend, before a pipeline worker ever sees it.
///
/// # Panics
///
/// Panics if `found != expected`.
pub fn check_len(backend: &str, what: &str, found: usize, expected: usize) {
    assert_eq!(
        found, expected,
        "{backend} instance: {what} has length {found}, the backend's shape takes {expected}"
    );
}
