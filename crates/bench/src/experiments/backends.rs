//! The backend family: `tables backends` and the BENCH.json `backends`
//! section — every built-in [`ProverBackend`] pipelined vs kernel-per-task
//! naive, plus the committed mixed trace through one [`MixedBackend`]
//! instance of the generic service replay.

use batchzk_field::Fr;
use batchzk_gpu_sim::{ArrivalPlan, DeviceProfile, Gpu, TraceLevel};
use batchzk_metrics::json::{Array, Object};
use batchzk_metrics::Registry;
use batchzk_pipeline::{observe, RunStats, ServiceOutcome};
use batchzk_zkp::{
    prove_batch_naive_with, prove_batch_with, GrothBackend, MixedBackend, MixedInstance, MixedTask,
    OrionBackend, ProverBackend, BACKEND_NAMES,
};

use super::service::{classes_json, service_study, ServiceStudy, SERVICE_DEVICES};
use super::{pcs_params, Circuit, MODULE_THREADS, NAIVE_CONCURRENCY};
use crate::scale::Scale;

/// The committed mixed-backend arrival trace: all three protocols interleaved
/// through one service instance (`traces/mixed.trace`).
pub const MIXED_TRACE: &str = include_str!("../../../../traces/mixed.trace");

/// Parses the committed mixed-backend trace.
pub(super) fn mixed_plan() -> ArrivalPlan {
    ArrivalPlan::parse(MIXED_TRACE).expect("committed mixed trace parses")
}

/// Validates every backend label of `plan` against [`BACKEND_NAMES`].
/// Arrivals without a label default to the sumcheck backend.
///
/// # Errors
///
/// Returns a message naming the unknown label and the accepted set.
pub fn validate_trace_backends(plan: &ArrivalPlan) -> Result<(), String> {
    for b in plan.backends() {
        if !BACKEND_NAMES.contains(&b.as_str()) {
            return Err(format!(
                "unknown backend `{b}`: expected one of {}",
                BACKEND_NAMES.join(", ")
            ));
        }
    }
    Ok(())
}

/// `plan` replayed through one [`MixedBackend`] service instance per pool
/// size: sumcheck (at the service size), Groth16-style and Orion (at the
/// backends size) tasks interleave through the same pipelines under the
/// existing SLO classes, each arrival routed by its backend label.
pub(super) fn mixed_study(
    scale: &Scale,
    plan: &ArrivalPlan,
) -> Result<ServiceStudy<MixedTask>, String> {
    validate_trace_backends(plan)?;
    let sumcheck = Circuit::synthetic(scale.service_log);
    let backend = MixedBackend::new(
        sumcheck.backend.clone(),
        GrothBackend::new(scale.backends_log),
        OrionBackend::new(scale.backends_log as usize, pcs_params()),
    );
    service_study(
        plan,
        &sumcheck,
        &backend,
        |i, arrival| match arrival.backend.as_deref() {
            Some("groth16") => {
                MixedInstance::Groth(backend.groth().circuit().witness(2000 + i as u64))
            }
            Some("orion") => MixedInstance::Orion(backend.orion().instance(4000 + i as u64)),
            // `validate_trace_backends` rejected everything else.
            _ => MixedInstance::Sumcheck(sumcheck.instance.clone()),
        },
        &SERVICE_DEVICES,
        TraceLevel::default(),
    )
}

/// Completions per backend, indexed like [`BACKEND_NAMES`].
pub(super) fn completed_by_backend(
    outcome: &ServiceOutcome<MixedTask>,
) -> [u64; BACKEND_NAMES.len()] {
    let mut counts = [0u64; BACKEND_NAMES.len()];
    for c in &outcome.completions {
        let idx = BACKEND_NAMES
            .iter()
            .position(|n| *n == c.task.backend_name())
            .expect("built-in backend");
        counts[idx] += 1;
    }
    counts
}

/// Folds a mixed replay into `registry`: the service families under
/// `mixed-d<devices>` module labels, plus their `backend`-labelled twins.
fn record_mixed(registry: &mut Registry, study: &ServiceStudy<MixedTask>) {
    for p in &study.points {
        let module = format!("mixed-d{}", p.devices);
        observe::record_service(registry, &module, &p.outcome, Some(|t| t.backend_name()));
    }
}

/// One pipelined-vs-naive measurement of one backend at one batch size.
struct BackendScenarioPoint {
    scenario: &'static str,
    tasks: usize,
    pipelined: RunStats,
    naive: RunStats,
    /// Both schedules must produce byte-identical proofs: the schedule
    /// changes *when* work runs, never what it computes.
    proofs_identical: bool,
    /// Every pipelined proof passed the backend's verifier.
    verified: bool,
}

/// One backend's scenario sweep.
struct BackendStudyPoint {
    backend: &'static str,
    scenarios: Vec<BackendScenarioPoint>,
}

/// The backend comparison behind `tables backends` and the BENCH.json
/// `backends` section.
pub(super) struct BackendsStudy {
    points: Vec<BackendStudyPoint>,
    /// The committed mixed trace through one service instance; skipped
    /// when the study is filtered to a single backend.
    pub(super) mixed: Option<ServiceStudy<MixedTask>>,
}

/// Runs one backend through the latency (batch 1) and throughput
/// (batch `batch`) scenarios, pipelined and kernel-per-task naive, on
/// fresh A100 devices. Pipelined runs land in `registry` under a
/// `backend` label.
fn backend_scenarios<B>(
    registry: &mut Registry,
    backend: &B,
    instances_for: impl Fn(usize) -> Vec<B::Instance>,
    batch: usize,
) -> BackendStudyPoint
where
    B: ProverBackend,
    B::Statement: PartialEq,
    B::Proof: PartialEq,
{
    let mut scenarios = Vec::new();
    for (scenario, tasks) in [("latency", 1usize), ("throughput", batch)] {
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let piped = prove_batch_with(
            &mut gpu,
            backend,
            instances_for(tasks),
            MODULE_THREADS,
            true,
        )
        .expect("fits");
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let naive = prove_batch_naive_with(
            &mut gpu,
            backend,
            instances_for(tasks),
            MODULE_THREADS,
            NAIVE_CONCURRENCY,
        );
        let proofs_identical = piped.proofs == naive.proofs;
        let verified = piped.proofs.iter().all(|(s, p)| backend.verify(s, p));
        observe::record_run_with_backend(
            registry,
            &format!("backends-{scenario}"),
            backend.name(),
            &piped.stats,
        );
        scenarios.push(BackendScenarioPoint {
            scenario,
            tasks,
            pipelined: piped.stats,
            naive: naive.stats,
            proofs_identical,
            verified,
        });
    }
    BackendStudyPoint {
        backend: backend.name(),
        scenarios,
    }
}

pub(super) fn backends_study(
    scale: &Scale,
    registry: &mut Registry,
    only: Option<&str>,
) -> BackendsStudy {
    let log = scale.backends_log;
    let batch = scale.backends_batch;
    let mut points = Vec::new();
    if only.is_none_or(|o| o == BACKEND_NAMES[0]) {
        let circuit = Circuit::synthetic(log);
        points.push(backend_scenarios(
            registry,
            &circuit.backend,
            |n| circuit.instances(n),
            batch,
        ));
    }
    if only.is_none_or(|o| o == BACKEND_NAMES[1]) {
        let groth = GrothBackend::new(log);
        points.push(backend_scenarios(
            registry,
            &groth,
            |n| {
                (0..n)
                    .map(|i| groth.circuit().witness(1000 + i as u64))
                    .collect()
            },
            batch,
        ));
    }
    if only.is_none_or(|o| o == BACKEND_NAMES[2]) {
        let orion = OrionBackend::<Fr>::new(log as usize, pcs_params());
        points.push(backend_scenarios(
            registry,
            &orion,
            |n| (0..n).map(|i| orion.instance(3000 + i as u64)).collect(),
            batch,
        ));
    }
    let mixed = only.is_none().then(|| {
        let study = mixed_study(scale, &mixed_plan()).expect("committed mixed trace serves");
        record_mixed(registry, &study);
        study
    });
    BackendsStudy { points, mixed }
}

/// The `tables backends` report: each built-in [`ProverBackend`] proved
/// through the fully pipelined schedule and the kernel-per-task naive
/// schedule at the same size on fresh A100 devices (latency scenario at
/// batch 1, throughput scenario at the scale's backend batch), asserting
/// the two schedules produce byte-identical proofs — then the committed
/// mixed trace through one service instance serving every protocol.
/// `only` (the `--backend` flag) restricts the sweep to one backend and
/// skips the mixed replay.
pub fn backends(scale: &Scale, only: Option<&str>) -> String {
    backends_report(scale, &backends_study(scale, &mut Registry::new(), only))
}

/// Renders one study as the `tables backends` report.
fn backends_report(scale: &Scale, study: &BackendsStudy) -> String {
    let mut out = format!(
        "## Backends — pipelined vs kernel-per-task naive, S = 2^{} on A100\n\n\
         | Backend | Scenario | Tasks | Naive (proofs/ms) | Pipelined (proofs/ms) | Speedup | Proofs identical | Verified |\n\
         |---|---|---|---|---|---|---|---|\n",
        scale.backends_log,
    );
    for p in &study.points {
        for s in &p.scenarios {
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.2}x | {} | {} |\n",
                p.backend,
                s.scenario,
                s.tasks,
                s.naive.throughput_per_ms,
                s.pipelined.throughput_per_ms,
                s.pipelined.throughput_per_ms / s.naive.throughput_per_ms,
                if s.proofs_identical { "YES" } else { "NO" },
                if s.verified { "YES" } else { "NO" },
            ));
        }
    }
    if let Some(m) = &study.mixed {
        out.push_str(&format!(
            "\n### Mixed service — one pool, all protocols\n\n\
             Trace: `{}`\n\n\
             Sumcheck at 2^{}, Groth16-style at 2^{}, Orion at 2^{}; {} arrivals,\n\
             1 trace unit = {} device cycles.\n\n",
            m.spec,
            scale.service_log,
            scale.backends_log,
            scale.backends_log,
            m.arrivals,
            m.unit_cycles,
        ));
        out.push_str("| Devices | Accepted | Rejected |");
        for name in BACKEND_NAMES {
            out.push_str(&format!(" Completed ({name}) |"));
        }
        out.push_str(" Goodput (within-SLO/Mcycle) |\n|---|---|---|");
        for _ in BACKEND_NAMES {
            out.push_str("---|");
        }
        out.push_str("---|\n");
        for p in &m.points {
            let accepted: u64 = p.outcome.reports.iter().map(|r| r.accepted).sum();
            let rejected: u64 = p
                .outcome
                .reports
                .iter()
                .map(|r| r.rejected_queue_full + r.rejected_saturated)
                .sum();
            out.push_str(&format!("| {} | {} | {} |", p.devices, accepted, rejected));
            for c in completed_by_backend(&p.outcome) {
                out.push_str(&format!(" {c} |"));
            }
            out.push_str(&format!(" {:.3} |\n", p.outcome.goodput_per_mcycle()));
        }
    }
    out
}

/// Renders one unfiltered study as the BENCH.json `backends` section
/// (canonical JSON, byte-deterministic).
pub(super) fn backends_section(scale: &Scale, study: &BackendsStudy) -> Object {
    let schedule = |r: &RunStats| {
        Object::new()
            .field("total_cycles", r.total_cycles)
            .field("throughput_per_ms", r.throughput_per_ms)
    };
    let runs = study.points.iter().map(|p| {
        let scenarios = p.scenarios.iter().map(|s| {
            Object::new()
                .field("scenario", s.scenario)
                .field("tasks", s.tasks)
                .field("pipelined", schedule(&s.pipelined))
                .field("naive", schedule(&s.naive))
                .field(
                    "speedup",
                    s.pipelined.throughput_per_ms / s.naive.throughput_per_ms,
                )
                .field("proofs_identical", s.proofs_identical)
                .field("verified", s.verified)
        });
        Object::new()
            .field("backend", p.backend)
            .field("scenarios", scenarios.collect::<Array>())
    });
    let m = study
        .mixed
        .as_ref()
        .expect("unfiltered study carries mixed");
    let mixed_runs = m.points.iter().map(|p| {
        let completed: Object = BACKEND_NAMES
            .iter()
            .zip(completed_by_backend(&p.outcome))
            .collect();
        Object::new()
            .field("devices", p.devices)
            .field("completed_by_backend", completed)
            .field("classes", classes_json(&p.outcome.reports, false))
            .field("goodput_per_mcycle", p.outcome.goodput_per_mcycle())
    });
    let mixed_service = Object::new()
        .field("trace", &m.spec)
        .field("log_sumcheck", scale.service_log)
        .field("log_groth16", scale.backends_log)
        .field("log_orion", scale.backends_log)
        .field("arrivals", m.arrivals)
        .field("proof_interval_cycles", m.proof_interval_cycles)
        .field("unit_cycles", m.unit_cycles)
        .field("runs", mixed_runs.collect::<Array>());
    Object::new()
        .field("log_n", scale.backends_log)
        .field("throughput_batch", scale.backends_batch)
        .field("runs", runs.collect::<Array>())
        .field("mixed_service", mixed_service)
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tiny_scale;
    use super::*;
    use batchzk_metrics::ToJson;
    use std::sync::OnceLock;

    /// The unfiltered study at host threads `threads` (1, 2 or 4), run once
    /// per test process: a study is most of a debug test's time, and the
    /// tests below share theirs. Each records into a registry of its own —
    /// `bench_json` threads its own.
    pub(in super::super) fn study(threads: usize) -> &'static BackendsStudy {
        static STUDIES: [OnceLock<BackendsStudy>; 3] =
            [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        STUDIES[threads.trailing_zeros() as usize].get_or_init(|| {
            batchzk_par::with_threads(threads, || {
                backends_study(&tiny_scale(), &mut Registry::new(), None)
            })
        })
    }

    #[test]
    fn backends_report_and_json_render_with_identical_proofs() {
        let s = tiny_scale();
        let report = backends_report(&s, study(1));
        for needle in [
            "| sumcheck |",
            "| groth16 |",
            "| orion |",
            "latency",
            "throughput",
            "Mixed service",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
        assert!(
            !report.contains("| NO |"),
            "a schedule diverged or a proof failed verification:\n{report}"
        );
        let json = backends_section(&s, study(1)).to_json();
        assert!(!json.contains("\"proofs_identical\":false"), "{json}");
        assert!(!json.contains("\"verified\":false"), "{json}");
        for field in [
            "\"backend\":\"sumcheck\"",
            "\"backend\":\"groth16\"",
            "\"backend\":\"orion\"",
            "\"scenario\":\"latency\"",
            "\"scenario\":\"throughput\"",
            "\"speedup\":",
            "\"mixed_service\":",
            "\"completed_by_backend\":",
        ] {
            assert!(json.contains(field), "missing {field}: {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn backends_report_filters_to_one_backend() {
        let s = tiny_scale();
        let report = backends(&s, Some("groth16"));
        assert!(report.contains("| groth16 |"), "{report}");
        assert!(!report.contains("| sumcheck |"), "{report}");
        assert!(!report.contains("| orion |"), "{report}");
        assert!(
            !report.contains("Mixed service"),
            "filtered sweep skips the mixed replay:\n{report}"
        );
        let orion_only = backends(&s, Some("orion"));
        assert!(orion_only.contains("| orion |"), "{orion_only}");
        assert!(!orion_only.contains("| groth16 |"), "{orion_only}");
    }

    #[test]
    fn mixed_service_conserves_per_class_and_serves_both_backends() {
        let mut registry = Registry::new();
        let mixed = study(1).mixed.as_ref().expect("unfiltered study");
        record_mixed(&mut registry, mixed);
        for p in &mixed.points {
            let completed_by_backend = completed_by_backend(&p.outcome);
            let mut completed_total = 0u64;
            for r in &p.outcome.reports {
                assert_eq!(
                    r.accepted + r.rejected_queue_full + r.rejected_saturated,
                    r.submitted,
                    "conservation broken for {} at {} devices",
                    r.class,
                    p.devices
                );
                assert_eq!(r.completed, r.accepted, "fault-free: all accepted finish");
                completed_total += r.completed;
            }
            let submitted: u64 = p.outcome.reports.iter().map(|r| r.submitted).sum();
            assert_eq!(submitted, mixed.arrivals as u64);
            // The per-backend split partitions the completions exactly.
            assert_eq!(
                completed_by_backend.iter().sum::<u64>(),
                completed_total,
                "backend split must partition completions at {} devices",
                p.devices
            );
        }
        // The committed mixed trace genuinely interleaves: the 4-device
        // pool completes proofs of every protocol.
        let wide = completed_by_backend(&mixed.points.last().unwrap().outcome);
        assert!(
            wide.iter().all(|&c| c > 0),
            "every backend must complete work: {wide:?}"
        );
        // The backend-labelled service families rode into the registry.
        let metrics = registry.to_json();
        for needle in [
            "backend=\\\"sumcheck\\\"",
            "backend=\\\"groth16\\\"",
            "backend=\\\"orion\\\"",
        ] {
            let plain = needle.replace("\\\"", "\"");
            assert!(
                metrics.contains(&plain) || metrics.contains(needle),
                "missing backend label {plain} in {metrics}"
            );
        }
    }

    #[test]
    fn backends_section_byte_identical_across_host_thread_counts() {
        let s = tiny_scale();
        let base = backends_section(&s, study(1)).to_json();
        for t in [2usize, 4] {
            let json = backends_section(&s, study(t)).to_json();
            assert_eq!(json, base, "backends section differs at threads={t}");
        }
    }
}
