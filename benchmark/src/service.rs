//! `service-mixed`: three small backends behind the online service front
//! on a four-device pool, fed by a seeded open-loop arrival plan.
//!
//! Open loop on the simulated clock: every arrival cycle is fixed before
//! the round starts and does not react to the service, and a request's
//! latency runs from the cycle it was due. The generator cannot run late,
//! because arrival cycles are data, not host timers.

use std::sync::Arc;

use batchzk_field::Fr;
use batchzk_gpu_sim::{ArrivalPlan, DevicePool, DeviceProfile, Gpu};
use batchzk_pipeline::{ClassPolicy, PriorityClass, ServiceConfig, ServiceOutcome};
use batchzk_zkp::r1cs::synthetic_r1cs;
use batchzk_zkp::{
    prove_batch_with, prove_service_with, BackendProofRequest, GrothBackend, MixedBackend,
    MixedInstance, OrionBackend, PcsParams, ProverBackend, SpartanBackend,
};

use crate::stats::percentile;
use crate::trace::{Traced, Tracer};
use crate::workload::{
    check_reproduced, check_sound, fail, instance_seed, peak_device_mem_mib, small_batch_with,
    spartan_probe_input, timed_phase, BenchBackend, DeviceCounters, ProbeInput, Reference, Round,
    ServiceDetail, Shape, Sim, SmallBatch, Workload, DEVICE_THREADS, MAX_KERNEL_PROBE_LOG,
    PROVE_PHASE, SMALL_BATCH, VERIFY_PHASE,
};

#[derive(Debug, Clone, Copy)]
pub struct ServiceSize {
    pub log_sumcheck: u32,
    pub log_groth: u32,
    pub log_orion: u32,
    /// Arrivals of a full round, summed over the plan's segments, and of
    /// a timing window.
    pub arrivals: u32,
    pub window_arrivals: u32,
    /// Arrivals of each round of the traced run's rate sweep.
    pub sweep_arrivals: u32,
    pub devices: usize,
}

/// Trace time units per calibrated proof interval, as in `crates/bench`:
/// an arrival at trace unit `t` lands at device cycle `t × interval / 100`.
const UNITS_PER_INTERVAL: u64 = 100;
/// Latency limits in proof intervals (interactive, standard, bulk) and
/// admission queue caps: the policy of `crates/bench`'s service replay.
const SLO_INTERVALS: [u64; 3] = [4, 8, 24];
const QUEUE_CAPS: [usize; 3] = [2, 4, 8];
/// Proofs of the calibration probe batch (a multiple of three, so every
/// backend has the same share).
const PROBE_BATCH: usize = 12;
/// The measured rounds offer this share of the pool's nominal capacity
/// (devices / calibrated interval): high enough that queues form and the
/// interactive limit binds, low enough that admission turns nothing away,
/// because the benchmark contract wants workloads on which no operation
/// fails. The traced run's sweep goes past capacity.
pub const OFFERED_PCT: u32 = 70;
/// Seed of the arrival plan. The schedule is part of the workload's
/// definition and `--seed` draws the proof instances only: with the
/// run's seed drawing the arrivals too (tried at 1 200 arrivals), ten
/// seeds moved the simulated p90 latency between 125 k and 330 k cycles and
/// made admission reject on two of them, so neither the exact simulated-clock bounds nor a workload
/// without failed operations would have been possible. This plan admits
/// every request at [`OFFERED_PCT`] and misses a few latency limits.
pub const PLAN_SEED: u64 = 1;

/// The plan's segments: class, backend, kind and share of the offered
/// rate, shaped like `traces/mixed.trace` (interactive sum-check and
/// Groth16, standard on all three, bursty bulk sum-check and Orion).
struct Segment {
    class: &'static str,
    backend: &'static str,
    rate_share_pct: u32,
    /// `on`/`off` window widths in proof intervals for a bursty segment.
    onoff_intervals: Option<(u64, u64)>,
}

const SEGMENTS: [Segment; 7] = [
    Segment {
        class: "interactive",
        backend: "sumcheck",
        rate_share_pct: 20,
        onoff_intervals: None,
    },
    Segment {
        class: "interactive",
        backend: "groth16",
        rate_share_pct: 10,
        onoff_intervals: None,
    },
    Segment {
        class: "standard",
        backend: "sumcheck",
        rate_share_pct: 15,
        onoff_intervals: None,
    },
    Segment {
        class: "standard",
        backend: "orion",
        rate_share_pct: 15,
        onoff_intervals: None,
    },
    Segment {
        class: "standard",
        backend: "groth16",
        rate_share_pct: 10,
        onoff_intervals: None,
    },
    Segment {
        class: "bulk",
        backend: "sumcheck",
        rate_share_pct: 15,
        onoff_intervals: Some((4, 4)),
    },
    Segment {
        class: "bulk",
        backend: "orion",
        rate_share_pct: 15,
        onoff_intervals: Some((3, 3)),
    },
];

/// The arrival-plan spec drawn from `seed`: `arrivals` requests in total offered
/// at `rate_pct` percent of `devices` proofs per interval. Every segment
/// spans the same stretch of trace time, so the mix holds from the first
/// arrival to the last. A bursty segment's gap is its on-window gap, so
/// its mean rate over on and off windows is its share.
pub fn arrival_spec(seed: u64, arrivals: u32, devices: usize, rate_pct: u32) -> String {
    SEGMENTS
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let count = (arrivals * s.rate_share_pct / 100).max(1);
            // Segment rate in arrivals per interval, times 10^4.
            let rate_e4 = devices as u64 * rate_pct as u64 * s.rate_share_pct as u64;
            let mean_gap_units = UNITS_PER_INTERVAL * 10_000 / rate_e4.max(1);
            let segment_seed = instance_seed(seed, i) >> 1;
            let head = format!("{}/{}@0", s.class, s.backend);
            match s.onoff_intervals {
                None => format!(
                    "{head}:poisson:{}:{count}:{segment_seed}",
                    mean_gap_units.max(1)
                ),
                Some((on, off)) => format!(
                    "{head}:onoff:{}:{count}:{segment_seed}:{}:{}",
                    (mean_gap_units * on / (on + off)).max(1),
                    on * UNITS_PER_INTERVAL,
                    off * UNITS_PER_INTERVAL
                ),
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

type Request = BackendProofRequest<MixedBackend>;

pub struct ServiceWorkload {
    backend: MixedBackend,
    size: ServiceSize,
    seed: u64,
    sumcheck_instance: (Vec<Fr>, Vec<Fr>),
    /// Calibrated steady-state cycles per proof of the mix on one device.
    interval_cycles: u64,
    /// Requests of a full round and of a timing window.
    requests: [Vec<Request>; 2],
    reference: Reference<<MixedBackend as ProverBackend>::Proof>,
}

impl ServiceWorkload {
    /// Builds the three backends, calibrates the trace time unit from a
    /// probe batch of the mix on one device (simulated cycles only, so the
    /// calibration is as deterministic as the replay), and checks the
    /// probe's proofs.
    pub fn set_up(seed: u64, size: ServiceSize) -> Self {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << size.log_sumcheck, seed);
        let backend = MixedBackend::new(
            SpartanBackend::new(Arc::new(r1cs), PcsParams::default()),
            GrothBackend::new(size.log_groth),
            OrionBackend::new(size.log_orion as usize, PcsParams::default()),
        );
        let mut this = Self {
            backend,
            size,
            seed,
            sumcheck_instance: (inputs, witness),
            interval_cycles: 0,
            requests: Default::default(),
            reference: Reference::default(),
        };
        let probe: Vec<MixedInstance> = (0..PROBE_BATCH)
            .map(|i| this.instance(["sumcheck", "groth16", "orion"][i % 3], i))
            .collect();
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let run = prove_batch_with(&mut gpu, &this.backend, probe, DEVICE_THREADS, true)
            .unwrap_or_else(|e| fail(&format!("calibration probe failed: {e}")));
        check_sound(&this.backend, &run.proofs);
        this.interval_cycles = (run.stats.total_cycles / run.stats.tasks.max(1) as u64).max(1);
        this
    }

    fn instance(&self, backend: &str, i: usize) -> MixedInstance {
        let seed = instance_seed(self.seed, i);
        match backend {
            "groth16" => MixedInstance::Groth(self.backend.groth().circuit().witness(seed)),
            "orion" => MixedInstance::Orion(self.backend.orion().instance(seed)),
            _ => MixedInstance::Sumcheck(self.sumcheck_instance.clone()),
        }
    }

    fn config(&self) -> ServiceConfig {
        ServiceConfig {
            classes: std::array::from_fn(|i| ClassPolicy {
                queue_cap: QUEUE_CAPS[i],
                slo_cycles: SLO_INTERVALS[i] * self.interval_cycles,
            }),
            max_outstanding: 12 * self.size.devices,
            device_queue_cap: 2,
            max_in_flight: 0,
            timeline_window_cycles: 0,
        }
    }

    /// Expands the plan at `rate_pct` into service requests, with the run
    /// seed's instances.
    fn requests(&self, arrivals: u32, rate_pct: u32) -> Vec<Request> {
        let spec = arrival_spec(PLAN_SEED, arrivals, self.size.devices, rate_pct);
        let plan = ArrivalPlan::parse(&spec)
            .unwrap_or_else(|e| fail(&format!("generated arrival spec does not parse: {e}")));
        let unit_cycles = (self.interval_cycles / UNITS_PER_INTERVAL).max(1);
        plan.expand()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let class = PriorityClass::parse(&a.class)
                    .unwrap_or_else(|e| fail(&format!("generated class label: {e}")));
                let backend = a.backend.as_deref().unwrap_or("sumcheck");
                (
                    class,
                    a.at_cycle.saturating_mul(unit_cycles),
                    self.instance(backend, i),
                )
            })
            .collect()
    }

    fn pool(&self) -> DevicePool {
        DevicePool::homogeneous(DeviceProfile::a100(), self.size.devices)
    }

    /// Attainment of one sweep point: within-limit completions per
    /// submitted request, a rejected request missing its limit.
    fn sweep_attainment(&self, rate_pct: u32) -> f64 {
        let requests = self.requests(self.size.sweep_arrivals, rate_pct);
        let submitted = requests.len();
        let mut pool = self.pool();
        let outcome = prove_service_with(
            &mut pool,
            &self.backend,
            &self.config(),
            requests,
            DEVICE_THREADS,
            true,
        )
        .unwrap_or_else(|e| fail(&format!("service sweep failed: {e}")));
        check_conservation(&outcome, submitted);
        attainment(&outcome, submitted)
    }
}

fn attainment<T>(outcome: &ServiceOutcome<T>, submitted: usize) -> f64 {
    let within: u64 = outcome.reports.iter().map(|r| r.within_slo).sum();
    within as f64 / submitted.max(1) as f64
}

/// submitted = accepted + rejected and accepted = completed, per class and
/// in total.
fn check_conservation<T>(outcome: &ServiceOutcome<T>, submitted: usize) {
    for r in &outcome.reports {
        let rejected = r.rejected_queue_full + r.rejected_saturated;
        if r.submitted != r.accepted + rejected || r.accepted != r.completed {
            fail(&format!(
                "class {} does not conserve requests: submitted {} accepted {} rejected {} completed {}",
                r.class.name(), r.submitted, r.accepted, rejected, r.completed
            ));
        }
    }
    let seen: u64 = outcome.reports.iter().map(|r| r.submitted).sum();
    if seen != submitted as u64 || outcome.completions.len() + outcome.rejected.len() != submitted {
        fail("service lost or invented a request");
    }
}

/// One service round through `backend` (the mixed backend, or its traced
/// wrapper): serve, then verify every completion.
fn service_round<B: BenchBackend>(
    backend: &B,
    mut pool: DevicePool,
    config: &ServiceConfig,
    requests: Vec<BackendProofRequest<B>>,
    tracer: Option<&Tracer>,
) -> (Round, Vec<B::Proof>) {
    let submitted = requests.len();
    let (outcome, prove) = timed_phase(tracer, PROVE_PHASE, || {
        prove_service_with(&mut pool, backend, config, requests, DEVICE_THREADS, true)
    });
    let mut outcome = outcome.unwrap_or_else(|e| fail(&format!("service round failed: {e}")));
    check_conservation(&outcome, submitted);

    // Queue wait of a completion: its latency minus its residency in the
    // pipeline. A device's completions and its lifecycle spans are both in
    // completion order, so they pair up positionally.
    let mut queue_waits = Vec::with_capacity(outcome.completions.len());
    for (d, stats) in outcome.device_stats.iter().enumerate() {
        let on_device = outcome.completions.iter().filter(|c| c.device == d);
        for (c, span) in on_device.zip(&stats.lifecycles) {
            queue_waits.push(c.latency_cycles().saturating_sub(span.total_cycles()));
        }
    }
    let latencies: Vec<u64> = outcome
        .completions
        .iter()
        .map(|c| c.latency_cycles())
        .collect();
    let sim = Sim {
        cycles_per_proof: outcome.span_cycles() as f64 / outcome.completions.len().max(1) as f64,
        latency_p50_cycles: percentile(&latencies, 0.5),
        latency_p90_cycles: percentile(&latencies, 0.9),
        latency_samples: latencies.len(),
        peak_device_mem_mib: peak_device_mem_mib(&outcome.device_stats),
        goodput_per_mcycle: outcome.goodput_per_mcycle(),
        slo_attainment: attainment(&outcome, submitted),
    };
    let detail = ServiceDetail {
        rejected_queue_full: outcome.reports.iter().map(|r| r.rejected_queue_full).sum(),
        rejected_saturated: outcome.reports.iter().map(|r| r.rejected_saturated).sum(),
        latency_p99_cycles: std::array::from_fn(|i| outcome.reports[i].latency_p99_cycles),
        queue_wait_p50_cycles: percentile(&queue_waits, 0.5),
    };

    // Request order, so rounds compare proof by proof.
    outcome.completions.sort_by_key(|c| c.request);
    let finished: Vec<(B::Statement, B::Proof)> = outcome
        .completions
        .into_iter()
        .map(|c| backend.finish(c.task))
        .collect();
    let (verified, verify) = timed_phase(tracer, VERIFY_PHASE, || {
        finished
            .iter()
            .filter(|(statement, proof)| backend.verify(statement, proof))
            .count() as u64
    });
    let round = Round {
        submitted: submitted as u64,
        completed: finished.len() as u64,
        verified,
        proof_bytes: finished.iter().map(|(_, p)| B::proof_bytes(p) as u64).sum(),
        prove,
        verify,
        sim,
        device_stats: outcome.device_stats,
        devices: DeviceCounters::read(pool.devices()),
        service: Some(detail),
    };
    (round, finished.into_iter().map(|(_, p)| p).collect())
}

impl Workload for ServiceWorkload {
    fn describe(&self) -> String {
        format!(
            "{} arrivals a round ({} a timing window) at {OFFERED_PCT} % of nominal on {} A100s, open loop \
             on the simulated clock; proof interval {} cycles, latency limits {:?} intervals, latency \
             from the due cycle",
            self.requests[Shape::Full as usize].len(),
            self.requests[Shape::Window as usize].len(),
            self.size.devices,
            self.interval_cycles,
            SLO_INTERVALS
        )
    }

    fn prepare(&mut self) {
        self.requests = [
            self.requests(self.size.arrivals, OFFERED_PCT),
            self.requests(self.size.window_arrivals, OFFERED_PCT),
        ];
    }

    fn round(&mut self, shape: Shape, tracer: Option<&Arc<Tracer>>) -> Round {
        let requests = self.requests[shape as usize].clone();
        let (round, proofs) = match tracer {
            None => service_round(&self.backend, self.pool(), &self.config(), requests, None),
            Some(tracer) => {
                let traced = Traced::new(self.backend.clone(), Arc::clone(tracer));
                let requests = requests
                    .into_iter()
                    .enumerate()
                    .map(|(i, (class, at, instance))| (class, at, (i, instance)))
                    .collect();
                service_round(&traced, self.pool(), &self.config(), requests, Some(tracer))
            }
        };
        check_reproduced(&mut self.reference, shape, proofs);
        round
    }

    fn probe_input(&self) -> ProbeInput {
        // The service's PCS work is split between the sum-check system's
        // witness commitment and Orion's; probe the former, whose circuit
        // also feeds the sum-check probe. NTT and MSM at the Groth16 size.
        let sumcheck = self.backend.sumcheck();
        let mut input =
            spartan_probe_input(sumcheck.r1cs(), *sumcheck.params(), &self.sumcheck_instance);
        input.ntt_log = (self.size.log_groth + 1).min(MAX_KERNEL_PROBE_LOG);
        input.msm_log = self.size.log_groth;
        input
    }

    fn small_batch(&mut self, naive_too: bool) -> SmallBatch {
        let instances = self.requests[Shape::Full as usize]
            .iter()
            .take(SMALL_BATCH)
            .map(|(_, _, instance)| instance.clone())
            .collect();
        small_batch_with(&self.backend, instances, naive_too)
    }

    fn extra_layer_metrics(&mut self, _tracer: &Arc<Tracer>, out: &mut Vec<(String, f64)>) {
        let mut best = 0u32;
        for pct in crate::spec::SWEEP_RATES_PCT {
            let share = self.sweep_attainment(pct);
            if share >= SWEEP_TARGET_ATTAINMENT {
                best = best.max(pct);
            }
            out.push((format!("pipeline.service.slo_attainment.r{pct:03}"), share));
        }
        out.push((
            "pipeline.service.max_rate_pct_meeting_slo".into(),
            f64::from(best),
        ));
    }
}

/// A swept rate "meets the limit" when at least this share of submitted
/// requests completes within its class limit.
const SWEEP_TARGET_ATTAINMENT: f64 = 0.99;

/// Host microseconds the service spends per request, from one timed call.
pub fn host_us_per_request(round: &Round) -> f64 {
    round.prove.wall_s * 1e6 / round.submitted.max(1) as f64
}
