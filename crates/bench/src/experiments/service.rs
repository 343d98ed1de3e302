//! The service family: one generic open-loop replay ([`service_study`])
//! over any [`ProverBackend`], behind `tables serve`, the BENCH.json
//! `service` and `backends.mixed_service` sections, and the flight-recorder
//! study in [`super::timeline`]. Serving a new backend means one more
//! `instance_for` closure, not one more replay loop.

use batchzk_field::Fr;
use batchzk_gpu_sim::{Arrival, ArrivalPlan, DevicePool, DeviceProfile, Gpu, TraceLevel};
use batchzk_metrics::registry::{escape_json, format_f64, join_json};
use batchzk_metrics::{analyze_service, ServiceClassObservation};
use batchzk_pipeline::{ClassPolicy, ClassReport, PriorityClass, ServiceConfig, ServiceOutcome};
use batchzk_zkp::batch::BatchTask;
use batchzk_zkp::{prove_batch_with, prove_service_with, ProverBackend, BACKEND_NAMES};

use super::backends::{completed_by_backend, mixed_study};
use super::{Circuit, MODULE_THREADS};
use crate::scale::Scale;

/// The committed reference arrival trace (`traces/reference.trace`),
/// embedded so `tables serve` and the BENCH.json `service` section replay
/// identical load everywhere. Trace time is in *units* of 1/100 of the
/// measured steady-state proof interval (see [`serve`]), so the same spec
/// exercises every scale comparably.
pub const REFERENCE_TRACE: &str = include_str!("../../../../traces/reference.trace");

/// Parses the committed reference trace. Panics only if the committed file
/// is corrupted (CI replays it on every push).
pub fn reference_plan() -> ArrivalPlan {
    ArrivalPlan::parse(REFERENCE_TRACE).expect("committed reference trace parses")
}

/// Trace time units per measured proof interval: an arrival at trace cycle
/// `t` lands at device cycle `t * interval / UNITS_PER_INTERVAL`.
const UNITS_PER_INTERVAL: u64 = 100;
/// Per-class latency SLOs in proof intervals, indexed like
/// [`PriorityClass::ALL`] (interactive, standard, bulk). Unloaded latency
/// is ~1 interval and a saturated single device queues ~7–12 intervals
/// deep, so the tight interactive SLO *misses* under single-device
/// overload and recovers on the 4-device pool — the shape the SLO runbook
/// in OPERATIONS.md walks through.
const SLO_INTERVALS: [u64; 3] = [4, 8, 24];
/// Per-class admission queue caps, same order.
const QUEUE_CAPS: [usize; 3] = [2, 4, 8];
/// Pool sizes the service replay runs at (the BENCH.json device matrix).
pub(super) const SERVICE_DEVICES: [usize; 2] = [1, 4];

/// The admission/SLO policy of the replay: tight SLO and a shallow queue
/// for `interactive`, loose SLO and a deep queue for `bulk`, and a global
/// outstanding bound that grows with the pool.
pub(super) fn service_config(devices: usize, interval: u64) -> ServiceConfig {
    ServiceConfig {
        classes: std::array::from_fn(|i| ClassPolicy {
            queue_cap: QUEUE_CAPS[i],
            slo_cycles: SLO_INTERVALS[i] * interval,
        }),
        max_outstanding: 12 * devices,
        device_queue_cap: 2,
        max_in_flight: 0,
        timeline_window_cycles: 0,
    }
}

/// One pool size of a service replay. The pool rides along so callers can
/// export its device traces.
pub(super) struct ServicePoint<T> {
    pub devices: usize,
    pub outcome: ServiceOutcome<T>,
    pub pool: DevicePool,
}

/// One arrival plan replayed through the online service front at each
/// requested pool size, with the calibration that placed it in device time.
pub(super) struct ServiceStudy<T> {
    /// The replayed plan, in its spec form.
    pub spec: String,
    pub arrivals: usize,
    pub proof_interval_cycles: u64,
    pub unit_cycles: u64,
    pub points: Vec<ServicePoint<T>>,
}

/// The generic replay: parses the plan's class labels, calibrates the trace
/// time unit on a probe batch of the `sumcheck` circuit, then serves the
/// arrivals through `backend` on an A100 pool of each `device_counts` size,
/// recording at `level`. `instance_for(index, arrival)` builds the request
/// payload of each arrival. The trace level changes only what the devices
/// *record* — scheduling and the flight recorder are byte-identical across
/// levels.
///
/// # Errors
///
/// Returns a message (no panic) for an empty trace, an unknown class label,
/// an arrival too far in the future to place on the device clock, or a
/// service-side failure.
pub(super) fn service_study<B: ProverBackend>(
    scale: &Scale,
    plan: &ArrivalPlan,
    sumcheck: &Circuit,
    backend: &B,
    instance_for: impl Fn(usize, &Arrival) -> B::Instance,
    device_counts: &[usize],
    level: TraceLevel,
) -> Result<ServiceStudy<B::Task>, String> {
    let arrivals = plan.expand();
    if arrivals.is_empty() {
        return Err("arrival trace is empty: nothing to serve".into());
    }
    // Reject unknown class labels before spending any proving time.
    let classes: Vec<PriorityClass> = arrivals
        .iter()
        .map(|a| PriorityClass::parse(&a.class))
        .collect::<Result<_, _>>()?;
    // Calibration probe: the steady-state per-proof interval of the
    // sumcheck circuit on one device defines the trace time unit, so a
    // committed trace offers the same *relative* load at any circuit size
    // and a mixed trace the same load as its sumcheck-only twin. Integer
    // simulated cycles only — the calibration is as deterministic as the
    // replay itself.
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let probe = prove_batch_with(
        &mut gpu,
        &sumcheck.backend,
        sumcheck.instances(scale.service_probe_batch),
        MODULE_THREADS,
        true,
    )
    .expect("fits")
    .stats;
    let interval = (probe.total_cycles / probe.tasks.max(1) as u64).max(1);
    let unit = (interval / UNITS_PER_INTERVAL).max(1);
    let cycles: Vec<u64> = arrivals
        .iter()
        .map(|a| {
            a.at_cycle.checked_mul(unit).ok_or_else(|| {
                format!(
                    "arrival at trace cycle {} overflows the device clock \
                     (1 trace unit = {unit} device cycles)",
                    a.at_cycle
                )
            })
        })
        .collect::<Result<_, _>>()?;

    let mut points = Vec::new();
    for &devices in device_counts {
        let requests = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| (classes[i], cycles[i], instance_for(i, a)))
            .collect();
        let mut pool =
            DevicePool::homogeneous_with_trace_level(DeviceProfile::a100(), devices, level);
        let outcome = prove_service_with(
            &mut pool,
            backend,
            &service_config(devices, interval),
            requests,
            MODULE_THREADS,
            true,
        )
        .map_err(|e| e.to_string())?;
        points.push(ServicePoint {
            devices,
            outcome,
            pool,
        });
    }
    Ok(ServiceStudy {
        spec: plan.spec(),
        arrivals: arrivals.len(),
        proof_interval_cycles: interval,
        unit_cycles: unit,
        points,
    })
}

/// [`service_study`] of the sumcheck backend alone: every arrival proves
/// the scale's service circuit.
pub(super) fn sumcheck_study(
    scale: &Scale,
    plan: &ArrivalPlan,
    device_counts: &[usize],
    level: TraceLevel,
) -> Result<ServiceStudy<BatchTask<Fr>>, String> {
    let circuit = Circuit::synthetic(scale.service_log);
    service_study(
        scale,
        plan,
        &circuit,
        &circuit.backend,
        |_, _| circuit.instance.clone(),
        device_counts,
        level,
    )
}

/// Folds one replay outcome's per-class reports into the analyzer's
/// observation shape.
fn service_observations<T>(o: &ServiceOutcome<T>) -> Vec<ServiceClassObservation> {
    o.reports
        .iter()
        .map(|r| ServiceClassObservation {
            class: r.class.name().into(),
            slo_cycles: r.slo_cycles,
            submitted: r.submitted,
            accepted: r.accepted,
            rejected: r.rejected_queue_full + r.rejected_saturated,
            completed: r.completed,
            within_slo: r.within_slo,
            latency_p99_cycles: r.latency_p99_cycles,
        })
        .collect()
}

/// One pool size's `### N devices` heading and per-class SLO table.
fn class_table<T>(p: &ServicePoint<T>) -> String {
    let mut out = format!(
        "\n### {} device{}\n\n\
         | Class | SLO (cycles) | Submitted | Accepted | Rejected (queue / saturated) | Completed | Within SLO | p50 | p95 | p99 | Attainment |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
        p.devices,
        if p.devices == 1 { "" } else { "s" },
    );
    for r in &p.outcome.reports {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} / {} | {} | {} | {} | {} | {} | {:.1}% |\n",
            r.class,
            r.slo_cycles,
            r.submitted,
            r.accepted,
            r.rejected_queue_full,
            r.rejected_saturated,
            r.completed,
            r.within_slo,
            r.latency_p50_cycles,
            r.latency_p95_cycles,
            r.latency_p99_cycles,
            r.slo_attainment() * 100.0,
        ));
    }
    out
}

/// One class report as a JSON object. `latency_extra` is appended inside
/// the `latency_cycles` object and `extra` after `slo_attainment` — the
/// `service` section adds `max` and `rejection_rate` there, the
/// `mixed_service` section nothing.
pub(super) fn class_json(r: &ClassReport, latency_extra: &str, extra: &str) -> String {
    format!(
        "{{\"class\":\"{}\",\"slo_cycles\":{},\"submitted\":{},\"accepted\":{},\
         \"rejected_queue_full\":{},\"rejected_saturated\":{},\"completed\":{},\
         \"within_slo\":{},\"latency_cycles\":{{\"p50\":{},\"p95\":{},\"p99\":{}{latency_extra}}},\
         \"slo_attainment\":{}{extra}}}",
        r.class.name(),
        r.slo_cycles,
        r.submitted,
        r.accepted,
        r.rejected_queue_full,
        r.rejected_saturated,
        r.completed,
        r.within_slo,
        r.latency_p50_cycles,
        r.latency_p95_cycles,
        r.latency_p99_cycles,
        format_f64(r.slo_attainment()),
    )
}

/// The `tables serve` report: replays `plan` (default: the committed
/// reference trace) through the online service front on A100 pools of 1
/// and 4 devices and renders the per-class SLO accounting — submitted /
/// accepted / rejected-with-reason / completed, nearest-rank latency
/// quantiles against each class's SLO, goodput, and the service analyzer's
/// per-class verdicts.
///
/// A trace whose arrivals carry backend labels (`class/backend@...`)
/// routes through the mixed-backend service instead: one
/// [`batchzk_zkp::MixedBackend`] service instance interleaves all
/// protocols, and the report replaces the analyzer verdicts with the
/// per-backend completion split.
///
/// # Errors
///
/// Returns a message (no panic) for an empty trace, an unknown class or
/// backend label, an arrival beyond the device clock's range, or a
/// service-side failure.
pub fn serve(scale: &Scale, plan: &ArrivalPlan) -> Result<String, String> {
    if !plan.backends().is_empty() {
        let study = mixed_study(scale, plan)?;
        let mut out = format!(
            "## Serve (mixed backends) — sumcheck 2^{} + groth16 2^{} + orion 2^{} on A100 pools of 1 and 4 ({} arrivals)\n\n\
             Trace: `{}`\n\n\
             Calibration: proof interval {} cycles, so 1 trace unit = {} device cycles.\n",
            scale.service_log,
            scale.backends_log,
            scale.backends_log,
            study.arrivals,
            study.spec,
            study.proof_interval_cycles,
            study.unit_cycles,
        );
        for p in &study.points {
            let split: Vec<String> = BACKEND_NAMES
                .iter()
                .zip(completed_by_backend(&p.outcome))
                .map(|(name, count)| format!("{count} [{name}]"))
                .collect();
            out.push_str(&class_table(p));
            out.push_str(&format!(
                "\nCompleted by backend: {}; goodput {:.3} within-SLO proofs/Mcycle.\n",
                split.join(", "),
                p.outcome.goodput_per_mcycle(),
            ));
        }
        return Ok(out);
    }
    let study = sumcheck_study(scale, plan, &SERVICE_DEVICES, TraceLevel::default())?;
    let mut out = format!(
        "## Serve — open-loop replay, S = 2^{} on A100 pools of 1 and 4 ({} arrivals)\n\n\
         Trace: `{}`\n\n\
         Calibration: proof interval {} cycles, so 1 trace unit = {} device cycles\n\
         (SLOs: interactive {}, standard {}, bulk {} proof intervals).\n",
        scale.service_log,
        study.arrivals,
        study.spec,
        study.proof_interval_cycles,
        study.unit_cycles,
        SLO_INTERVALS[0],
        SLO_INTERVALS[1],
        SLO_INTERVALS[2],
    );
    for p in &study.points {
        let analysis = analyze_service(&service_observations(&p.outcome));
        out.push_str(&class_table(p));
        out.push_str(&format!(
            "\nGoodput {:.3} within-SLO proofs/Mcycle; overall rejection rate {:.1}%.\n\n```\n{}```\n",
            p.outcome.goodput_per_mcycle(),
            analysis.rejection_rate * 100.0,
            analysis.render_text(),
        ));
    }
    Ok(out)
}

/// Renders one sumcheck study as the BENCH.json `service` section
/// (canonical JSON, byte-deterministic).
pub(super) fn service_section(scale: &Scale, study: &ServiceStudy<BatchTask<Fr>>) -> String {
    let runs = study.points.iter().map(|p| {
        let o = &p.outcome;
        let classes = o.reports.iter().map(|r| {
            class_json(
                r,
                &format!(",\"max\":{}", r.latency_max_cycles),
                &format!(",\"rejection_rate\":{}", format_f64(r.rejection_rate())),
            )
        });
        let analysis = analyze_service(&service_observations(o));
        format!(
            "{{\"devices\":{},\"classes\":[{}],\"goodput_per_mcycle\":{},\
             \"rejection_rate\":{},\"analysis\":{}}}",
            p.devices,
            join_json(classes),
            format_f64(o.goodput_per_mcycle()),
            format_f64(analysis.rejection_rate),
            analysis.to_json(),
        )
    });
    format!(
        "{{\"log_n\":{},\"trace\":\"{}\",\"arrivals\":{},\
         \"proof_interval_cycles\":{},\"unit_cycles\":{},\"runs\":[{}]}}",
        scale.service_log,
        escape_json(&study.spec),
        study.arrivals,
        study.proof_interval_cycles,
        study.unit_cycles,
        join_json(runs),
    )
}

#[cfg(test)]
mod tests {
    use super::super::backends::mixed_plan;
    use super::super::tiny_scale;
    use super::*;
    use std::time::{Duration, Instant};

    /// The BENCH.json `service` section on its own: the replay of `plan`
    /// at pool sizes 1 and 4, rendered as canonical JSON. Byte-deterministic
    /// for a given scale and plan at any host thread count — what the
    /// determinism tests below compare. Errs as `serve` does.
    fn service_json(scale: &Scale, plan: &ArrivalPlan) -> Result<String, String> {
        let study = sumcheck_study(scale, plan, &SERVICE_DEVICES, TraceLevel::default())?;
        Ok(service_section(scale, &study))
    }

    #[test]
    fn serve_report_renders_with_slo_accounting() {
        let s = tiny_scale();
        let report = serve(&s, &reference_plan()).expect("reference trace serves");
        for needle in [
            "interactive",
            "standard",
            "bulk",
            "Attainment",
            "Goodput",
            "### 1 device",
            "### 4 devices",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn serve_rejects_empty_and_unknown_traces() {
        let s = tiny_scale();
        let err = serve(&s, &ArrivalPlan::new()).unwrap_err();
        assert!(err.contains("empty"), "{err}");
        let premium = ArrivalPlan::new().one("premium", 0);
        let err = serve(&s, &premium).unwrap_err();
        assert!(err.contains("premium"), "{err}");
        assert!(service_json(&s, &ArrivalPlan::new()).is_err());
    }

    #[test]
    fn serve_rejects_far_future_arrivals_quickly() {
        // `tables serve --trace 'interactive@100000000000000000:one'` used
        // to saturate to cycle u64::MAX and hang (release) or panic on
        // clock overflow (debug). Both overflow routes must be errors: the
        // unit scaling itself, and a scaled cycle past the service's
        // documented maximum.
        let s = tiny_scale();
        for spec in [
            "interactive@100000000000000000:one",
            "interactive@18446744073709551615:one",
        ] {
            let plan = ArrivalPlan::parse(spec).expect("lexically valid");
            let start = Instant::now();
            let err = serve(&s, &plan).unwrap_err();
            assert!(
                err.contains("overflows") || err.contains("exceeds"),
                "{spec}: {err}"
            );
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{spec}: took {:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn service_section_byte_identical_across_host_thread_counts() {
        // The determinism matrix of the acceptance criteria: the same
        // trace renders the same `service` section bytes at host threads
        // 1/2/4, and the section itself carries the 1- and 4-device runs.
        let s = tiny_scale();
        let plan = reference_plan();
        let base = batchzk_par::with_threads(1, || service_json(&s, &plan).unwrap());
        for t in [2usize, 4] {
            let json = batchzk_par::with_threads(t, || service_json(&s, &plan).unwrap());
            assert_eq!(json, base, "service section differs at threads={t}");
        }
        assert!(base.contains("\"devices\":1"), "{base}");
        assert!(base.contains("\"devices\":4"), "{base}");
        for field in [
            "\"p50\":",
            "\"p95\":",
            "\"p99\":",
            "\"slo_attainment\":",
            "\"goodput_per_mcycle\":",
            "\"rejection_rate\":",
            "\"trace\":",
        ] {
            assert!(base.contains(field), "missing {field}");
        }
        assert_eq!(base.matches('{').count(), base.matches('}').count());
        assert_eq!(base.matches('[').count(), base.matches(']').count());
    }

    #[test]
    fn service_accounting_conserves_per_class() {
        // accepted + rejected == submitted for every class at every pool
        // size, and the reference trace actually sheds load on the
        // single-device pool, so the admission story is not vacuous.
        let s = tiny_scale();
        let study = sumcheck_study(
            &s,
            &reference_plan(),
            &SERVICE_DEVICES,
            TraceLevel::default(),
        )
        .unwrap();
        let mut rejected_total = 0u64;
        for p in &study.points {
            for r in &p.outcome.reports {
                assert_eq!(
                    r.accepted + r.rejected_queue_full + r.rejected_saturated,
                    r.submitted,
                    "conservation broken for {} at {} devices",
                    r.class,
                    p.devices
                );
                assert_eq!(r.completed, r.accepted, "fault-free: all accepted finish");
                rejected_total += r.rejected_queue_full + r.rejected_saturated;
            }
            let submitted: u64 = p.outcome.reports.iter().map(|r| r.submitted).sum();
            assert_eq!(submitted, study.arrivals as u64);
        }
        assert!(
            rejected_total > 0,
            "reference trace should shed some load on the 1-device pool"
        );
    }

    #[test]
    fn mixed_serve_report_renders_backend_split() {
        let s = tiny_scale();
        let report = serve(&s, &mixed_plan()).expect("committed mixed trace serves");
        for needle in [
            "mixed backends",
            "Completed by backend",
            "[sumcheck]",
            "[groth16]",
            "[orion]",
            "### 1 device",
            "### 4 devices",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn serve_rejects_unknown_backend_labels() {
        let s = tiny_scale();
        let plan = ArrivalPlan::parse("interactive/premium@0:one").expect("lexically valid");
        let err = serve(&s, &plan).unwrap_err();
        assert!(err.contains("premium"), "{err}");
        assert!(
            err.contains("sumcheck"),
            "error names the accepted set: {err}"
        );
    }
}
