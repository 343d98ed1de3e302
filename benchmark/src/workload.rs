//! What every workload has in common: the shape of a round (a timed prove
//! phase, then a timed verify phase, inputs cloned and proofs dropped
//! outside both), the simulated-clock summary of a round, and the two
//! batch workloads, which differ only in their backend.

use std::sync::Arc;

use batchzk_field::{Field, Fr};
use batchzk_gpu_sim::{DeviceProfile, Gpu};
use batchzk_pipeline::RunStats;
use batchzk_zkp::batch::BackendProofs;
use batchzk_zkp::r1cs::{synthetic_r1cs, R1cs};
use batchzk_zkp::{
    prove_batch_naive_with, prove_batch_with, MixedBackend, MixedProof, MixedTask, OrionBackend,
    OrionProof, PcsParams, Proof, ProverBackend, SpartanBackend, BACKEND_NAMES,
};

use crate::host::{timed, Phase};
use crate::stats::percentile;
use crate::trace::{span_if, Kind, Traced, Tracer};

/// Device thread budget of every pipeline (the paper's §4 example budget,
/// the one `crates/bench` uses).
pub const DEVICE_THREADS: u32 = 10_240;
/// Kernels the kernel-per-task baseline runs side by side (as in
/// `crates/bench`).
pub const NAIVE_CONCURRENCY: usize = 4;
/// Instances in the pipelined-versus-naive and the two-thread comparison
/// of a traced run: enough to fill the four-deep pipeline twice.
pub const SMALL_BATCH: usize = 8;

const MIB: f64 = (1u64 << 20) as f64;

/// What the benchmark needs from a backend beyond [`ProverBackend`].
pub trait BenchBackend:
    ProverBackend<Instance: Clone, Task: 'static, Proof: Clone + PartialEq>
{
    /// Which `+`-separated part of a stage's name a task runs (0 unless
    /// the backend is a union of protocols).
    fn task_variant(task: &Self::Task) -> usize;
    /// The [`BACKEND_NAMES`] entry of the protocol that made `proof`.
    fn proof_backend(proof: &Self::Proof) -> &'static str;
    fn proof_bytes(proof: &Self::Proof) -> usize;
    /// Alters one field element of `proof`; a sound verifier must then
    /// reject it.
    fn tamper(proof: &mut Self::Proof);
}

fn tamper_spartan(proof: &mut Proof<Fr>) {
    proof.va += Fr::ONE;
}

fn tamper_orion(proof: &mut OrionProof<Fr>) {
    proof.value += Fr::ONE;
}

impl BenchBackend for SpartanBackend<Fr> {
    fn task_variant(_: &Self::Task) -> usize {
        0
    }
    fn proof_backend(_: &Self::Proof) -> &'static str {
        BACKEND_NAMES[0]
    }
    fn proof_bytes(proof: &Self::Proof) -> usize {
        proof.size_bytes()
    }
    fn tamper(proof: &mut Self::Proof) {
        tamper_spartan(proof);
    }
}

impl BenchBackend for OrionBackend<Fr> {
    fn task_variant(_: &Self::Task) -> usize {
        0
    }
    fn proof_backend(_: &Self::Proof) -> &'static str {
        BACKEND_NAMES[2]
    }
    fn proof_bytes(proof: &Self::Proof) -> usize {
        proof.size_bytes()
    }
    fn tamper(proof: &mut Self::Proof) {
        tamper_orion(proof);
    }
}

impl BenchBackend for MixedBackend {
    fn task_variant(task: &Self::Task) -> usize {
        match task {
            MixedTask::Sumcheck(_) => 0,
            MixedTask::Groth(_) => 1,
            MixedTask::Orion(_) => 2,
        }
    }
    fn proof_backend(proof: &Self::Proof) -> &'static str {
        match proof {
            MixedProof::Sumcheck(_) => BACKEND_NAMES[0],
            MixedProof::Groth(_) => BACKEND_NAMES[1],
            MixedProof::Orion(_) => BACKEND_NAMES[2],
        }
    }
    fn proof_bytes(proof: &Self::Proof) -> usize {
        match proof {
            MixedProof::Sumcheck(p) => p.size_bytes(),
            MixedProof::Groth(p) => p.size_bytes(),
            MixedProof::Orion(p) => p.size_bytes(),
        }
    }
    fn tamper(proof: &mut Self::Proof) {
        match proof {
            MixedProof::Sumcheck(p) => tamper_spartan(p),
            MixedProof::Groth(p) => p.eval_a += Fr::ONE,
            MixedProof::Orion(p) => tamper_orion(p),
        }
    }
}

/// The simulated-clock result of a round. Deterministic for a seed, so a
/// run asserts it equal across its rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    pub cycles_per_proof: f64,
    pub latency_p50_cycles: u64,
    pub latency_p90_cycles: u64,
    pub latency_samples: usize,
    pub peak_device_mem_mib: f64,
    pub goodput_per_mcycle: f64,
    pub slo_attainment: f64,
}

impl Sim {
    /// Summary of a closed-loop batch: no latency limit, so every
    /// completion is good output and attainment is 1.
    pub fn of_batch(device_stats: &[RunStats]) -> Sim {
        let makespan = device_stats
            .iter()
            .map(|s| s.total_cycles)
            .max()
            .unwrap_or(0);
        let completed: usize = device_stats.iter().map(|s| s.tasks).sum();
        let latencies: Vec<u64> = device_stats
            .iter()
            .flat_map(|s| s.lifecycles.iter().map(|span| span.total_cycles()))
            .collect();
        Sim {
            cycles_per_proof: makespan as f64 / completed.max(1) as f64,
            latency_p50_cycles: percentile(&latencies, 0.5),
            latency_p90_cycles: percentile(&latencies, 0.9),
            latency_samples: latencies.len(),
            peak_device_mem_mib: peak_device_mem_mib(device_stats),
            goodput_per_mcycle: completed as f64 * 1e6 / makespan.max(1) as f64,
            slo_attainment: 1.0,
        }
    }
}

pub fn peak_device_mem_mib(device_stats: &[RunStats]) -> f64 {
    device_stats
        .iter()
        .map(|s| s.peak_mem_bytes)
        .max()
        .unwrap_or(0) as f64
        / MIB
}

/// What the simulated devices did in a round, read after it from the
/// `Gpu`s the benchmark owns.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceCounters {
    pub steps: u64,
    pub kernel_launches: u64,
}

impl DeviceCounters {
    pub fn read<'a>(gpus: impl IntoIterator<Item = &'a Gpu>) -> Self {
        let mut c = DeviceCounters::default();
        for gpu in gpus {
            c.steps += gpu.utilization_trace().len() as u64;
            c.kernel_launches += gpu.kernel_stats().values().map(|k| k.steps).sum::<u64>();
        }
        c
    }
}

/// Service-only detail of a round, for the per-layer service metrics.
#[derive(Debug, Clone, Default)]
pub struct ServiceDetail {
    pub rejected_queue_full: u64,
    pub rejected_saturated: u64,
    /// interactive, standard, bulk.
    pub latency_p99_cycles: [u64; 3],
    pub queue_wait_p50_cycles: u64,
}

/// One prove-then-verify round.
pub struct Round {
    /// Proofs or requests handed to the system.
    pub submitted: u64,
    /// Of those, proofs that came back.
    pub completed: u64,
    /// Of those, proofs the verifier accepted.
    pub verified: u64,
    /// `size_bytes()` summed over completed proofs.
    pub proof_bytes: u64,
    pub prove: Phase,
    pub verify: Phase,
    pub sim: Sim,
    pub device_stats: Vec<RunStats>,
    pub devices: DeviceCounters,
    pub service: Option<ServiceDetail>,
}

impl Round {
    /// Submitted work that did not end as a verified proof: rejected,
    /// errored, or failing verification.
    pub fn failed(&self) -> u64 {
        self.submitted - self.verified
    }
}

/// Inputs of the direct-call layer probes of a traced run, at the sizes
/// the workload's proofs have.
pub struct ProbeInput {
    pub params: PcsParams,
    /// The polynomial a proof commits to, and a point to open it at.
    pub evals: Vec<Fr>,
    pub point: Vec<Fr>,
    /// What the sum-checks run over, when the workload has a sum-check on
    /// its path.
    pub sumcheck: Option<SumcheckProbe>,
    /// log2 of the NTT and MSM probe sizes.
    pub ntt_log: u32,
    pub msm_log: u32,
}

/// The two sizes a workload's round comes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The workload as described: the batch, pool and arrival count its
    /// simulated-clock metrics are read from.
    Full,
    /// The same entry point over a few proofs: a timing window short
    /// enough to fall between a noisy neighbour's bursts. Host time per
    /// proof does not depend on the batch (at one host thread the stages
    /// of a batch run one after another).
    Window,
}

/// A circuit, its public inputs and the full assignment `z`.
pub struct SumcheckProbe {
    pub r1cs: Arc<R1cs<Fr>>,
    pub inputs: Vec<Fr>,
    pub z: Vec<Fr>,
}

pub trait Workload {
    /// One line for the report: what a round is made of.
    fn describe(&self) -> String;
    /// Generates the inputs of both round shapes from the seed; every
    /// round replays clones of them.
    fn prepare(&mut self);
    /// One round, through the entry point a user of the system calls.
    /// With a tracer the round runs through [`Traced`] stages instead and
    /// must produce the same proofs.
    fn round(&mut self, shape: Shape, tracer: Option<&Arc<Tracer>>) -> Round;
    fn probe_input(&self) -> ProbeInput;
    /// Simulated cycles of a [`SMALL_BATCH`] through the kernel-per-task
    /// baseline over the same batch pipelined, after asserting the two
    /// schedules' proofs byte-identical; and the pipelined batch's host
    /// seconds on the current thread count.
    fn small_batch(&mut self, naive_too: bool) -> SmallBatch;
    /// Workload-specific per-layer metrics, appended to `out`.
    fn extra_layer_metrics(&mut self, _tracer: &Arc<Tracer>, _out: &mut Vec<(String, f64)>) {}
}

pub struct SmallBatch {
    pub host_s: f64,
    pub pipelined_cycles: u64,
    /// 0 unless asked for.
    pub naive_cycles: u64,
}

/// Span names of a round's two phases.
pub const PROVE_PHASE: &str = "round.prove";
pub const VERIFY_PHASE: &str = "round.verify";

/// Times one phase of a round, inside a phase span when tracing.
pub fn timed_phase<R>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> R) -> (R, Phase) {
    span_if(tracer, Kind::Phase, name, None, || timed(f))
}

/// Proves `instances` pipelined on one fresh A100 and verifies every
/// proof, each phase timed on its own.
pub fn batch_round<B: BenchBackend>(
    backend: &B,
    instances: Vec<B::Instance>,
    tracer: Option<&Tracer>,
) -> (Round, BackendProofs<B>) {
    let submitted = instances.len() as u64;
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let (run, prove) = timed_phase(tracer, PROVE_PHASE, || {
        prove_batch_with(&mut gpu, backend, instances, DEVICE_THREADS, true)
    });
    let run = run.unwrap_or_else(|e| fail(&format!("batch proving failed: {e}")));
    let (verified, verify) = timed_phase(tracer, VERIFY_PHASE, || {
        run.proofs
            .iter()
            .filter(|(statement, proof)| backend.verify(statement, proof))
            .count() as u64
    });
    let stats = vec![run.stats];
    let round = Round {
        submitted,
        completed: run.proofs.len() as u64,
        verified,
        proof_bytes: run
            .proofs
            .iter()
            .map(|(_, p)| B::proof_bytes(p) as u64)
            .sum(),
        prove,
        verify,
        sim: Sim::of_batch(&stats),
        device_stats: stats,
        devices: DeviceCounters::read([&gpu]),
        service: None,
    };
    (round, run.proofs)
}

/// The set-up check every workload makes on its warm-up proofs: each must
/// verify, and the first, with one field element altered, must not.
pub fn check_sound<B: BenchBackend>(backend: &B, proofs: &[(B::Statement, B::Proof)]) {
    for (i, (statement, proof)) in proofs.iter().enumerate() {
        if !backend.verify(statement, proof) {
            fail(&format!("warm-up proof {i} does not verify"));
        }
    }
    let mut seen = Vec::new();
    for (statement, proof) in proofs {
        let name = B::proof_backend(proof);
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        let mut bad = proof.clone();
        B::tamper(&mut bad);
        if backend.verify(statement, &bad) {
            fail(&format!("{name} verifier accepted an altered proof"));
        }
    }
}

/// Proofs of the first round of each [`Shape`], which every later round
/// of that shape must reproduce.
pub type Reference<P> = [Option<Vec<P>>; 2];

/// Every round replays the same inputs, so it must reproduce the first
/// round's proofs byte for byte; the first call of a shape stores them.
pub fn check_reproduced<P: PartialEq>(reference: &mut Reference<P>, shape: Shape, proofs: Vec<P>) {
    match &mut reference[shape as usize] {
        slot @ None => *slot = Some(proofs),
        Some(first) => {
            if *first != proofs {
                fail("a round's proofs differ from the first round's");
            }
        }
    }
}

/// Pipelined (and, if asked, kernel-per-task) proving of a small batch on
/// fresh devices, asserting the two schedules' proofs identical.
pub fn small_batch_with<B: BenchBackend>(
    backend: &B,
    instances: Vec<B::Instance>,
    naive_too: bool,
) -> SmallBatch {
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let (piped, phase) =
        timed(|| prove_batch_with(&mut gpu, backend, instances.clone(), DEVICE_THREADS, true));
    let piped = piped.unwrap_or_else(|e| fail(&format!("small batch failed: {e}")));
    let mut naive_cycles = 0;
    if naive_too {
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let naive = prove_batch_naive_with(
            &mut gpu,
            backend,
            instances,
            DEVICE_THREADS,
            NAIVE_CONCURRENCY,
        );
        let same = piped.proofs.len() == naive.proofs.len()
            && piped
                .proofs
                .iter()
                .zip(&naive.proofs)
                .all(|(a, b)| a.1 == b.1);
        if !same {
            fail("pipelined and kernel-per-task schedules produced different proofs");
        }
        naive_cycles = naive.stats.total_cycles;
    }
    SmallBatch {
        host_s: phase.wall_s,
        pipelined_cycles: piped.stats.total_cycles,
        naive_cycles,
    }
}

/// Reports a failed output check and exits non-zero without a result line.
pub fn fail(message: &str) -> ! {
    eprintln!("benchmark check failed: {message}");
    std::process::exit(2);
}

/// Sizes of the two batch workloads. `full` is what `BENCHMARK.json`
/// measures; `tiny` is the same code path at a size the crate's tests can
/// afford.
#[derive(Debug, Clone, Copy)]
pub struct BatchSize {
    pub log_size: u32,
    pub batch: usize,
    /// Proofs of a timing window and of the set-up's warm-up batch.
    pub window: usize,
}

/// `spartan-batch` and `orion-batch`: one backend, one A100, the whole
/// batch submitted at once (closed loop, one client).
pub struct BatchWorkload<B: BenchBackend> {
    backend: B,
    size: BatchSize,
    /// Generates instance `i` of a batch.
    instance: Box<dyn Fn(usize) -> B::Instance>,
    instances: Vec<B::Instance>,
    probe: Box<dyn Fn(&B) -> ProbeInput>,
    reference: Reference<B::Proof>,
}

impl<B: BenchBackend> BatchWorkload<B> {
    fn set_up(
        backend: B,
        size: BatchSize,
        instance: Box<dyn Fn(usize) -> B::Instance>,
        probe: Box<dyn Fn(&B) -> ProbeInput>,
    ) -> Self {
        let warm: Vec<B::Instance> = (0..size.window).map(&instance).collect();
        let (round, proofs) = batch_round(&backend, warm, None);
        if round.completed != size.window as u64 {
            fail("warm-up batch did not complete");
        }
        check_sound(&backend, &proofs);
        Self {
            backend,
            size,
            instance,
            instances: Vec::new(),
            probe,
            reference: Reference::default(),
        }
    }

    fn small_instances(&self) -> Vec<B::Instance> {
        let n = SMALL_BATCH.min(self.instances.len());
        self.instances[..n].to_vec()
    }
}

impl<B: BenchBackend> Workload for BatchWorkload<B> {
    fn describe(&self) -> String {
        format!(
            "{} backend, {} proofs of 2^{} a round ({} a timing window) on one A100, closed loop, one client",
            self.backend.name(),
            self.size.batch,
            self.size.log_size,
            self.size.window
        )
    }

    fn prepare(&mut self) {
        self.instances = (0..self.size.batch).map(&self.instance).collect();
    }

    fn round(&mut self, shape: Shape, tracer: Option<&Arc<Tracer>>) -> Round {
        let batch = match shape {
            Shape::Full => self.instances.clone(),
            Shape::Window => self.instances[..self.size.window].to_vec(),
        };
        let (round, proofs): (Round, Vec<B::Proof>) = match tracer {
            None => {
                let (round, proofs) = batch_round(&self.backend, batch, None);
                (round, proofs.into_iter().map(|(_, p)| p).collect())
            }
            Some(tracer) => {
                let traced = Traced::new(self.backend.clone(), Arc::clone(tracer));
                let batch = batch.into_iter().enumerate().collect();
                let (round, proofs) = batch_round(&traced, batch, Some(tracer));
                (round, proofs.into_iter().map(|(_, p)| p).collect())
            }
        };
        check_reproduced(&mut self.reference, shape, proofs);
        round
    }

    fn probe_input(&self) -> ProbeInput {
        (self.probe)(&self.backend)
    }

    fn small_batch(&mut self, naive_too: bool) -> SmallBatch {
        small_batch_with(&self.backend, self.small_instances(), naive_too)
    }
}

/// `spartan-batch`: the sum-check system over `synthetic_r1cs(2^log_size)`.
/// Every instance of the batch is the seed's one satisfying assignment, as
/// in the repo's `--wall` preset: the prover's work does not depend on the
/// values.
pub fn spartan_batch(seed: u64, size: BatchSize) -> Box<dyn Workload> {
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << size.log_size, seed);
    let r1cs = Arc::new(r1cs);
    let backend = SpartanBackend::new(Arc::clone(&r1cs), PcsParams::default());
    let instance = (inputs, witness);
    let probe_instance = instance.clone();
    Box::new(BatchWorkload::set_up(
        backend,
        size,
        Box::new(move |_| instance.clone()),
        Box::new(move |backend: &SpartanBackend<Fr>| {
            spartan_probe_input(backend.r1cs(), *backend.params(), &probe_instance)
        }),
    ))
}

/// Probe inputs of a sum-check-system proof: the witness half of `z` is
/// the committed polynomial; the opening point's values do not matter.
pub fn spartan_probe_input(
    r1cs: &Arc<R1cs<Fr>>,
    params: PcsParams,
    (inputs, witness): &(Vec<Fr>, Vec<Fr>),
) -> ProbeInput {
    let z = r1cs.assemble_z(inputs, witness);
    let evals = z[r1cs.half_len()..].to_vec();
    let vars = evals.len().trailing_zeros() as usize;
    ProbeInput {
        params,
        point: (0..vars).map(|i| Fr::from(3 + i as u64)).collect(),
        evals,
        sumcheck: Some(SumcheckProbe {
            r1cs: Arc::clone(r1cs),
            inputs: inputs.clone(),
            z,
        }),
        ntt_log: (vars as u32).min(MAX_KERNEL_PROBE_LOG),
        msm_log: DEFAULT_MSM_LOG,
    }
}

/// Largest NTT a probe runs: the kernel's per-butterfly cost is what is
/// read, and past this size the probe would outlast the round.
pub const MAX_KERNEL_PROBE_LOG: u32 = 16;
/// MSM probe size where the workload has no MSM of its own: the mixed
/// service's Groth16 circuit size.
pub const DEFAULT_MSM_LOG: u32 = 8;

/// `orion-batch`: the PCS-opening pipeline at `log_size` variables, one
/// distinct seeded polynomial and point per proof.
pub fn orion_batch(seed: u64, size: BatchSize) -> Box<dyn Workload> {
    let backend = OrionBackend::<Fr>::new(size.log_size as usize, PcsParams::default());
    let generator = backend.clone();
    Box::new(BatchWorkload::set_up(
        backend,
        size,
        Box::new(move |i| generator.instance(instance_seed(seed, i))),
        Box::new(move |backend: &OrionBackend<Fr>| {
            let (evals, point) = backend.instance(instance_seed(seed, 0));
            ProbeInput {
                params: *backend.shared().pcs(),
                evals,
                point,
                sumcheck: None,
                ntt_log: size.log_size.min(MAX_KERNEL_PROBE_LOG),
                msm_log: DEFAULT_MSM_LOG,
            }
        }),
    ))
}

/// The seed of the `i`-th generated input of a run: distinct per `(seed,
/// i)`, so two run seeds share no instance.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}
