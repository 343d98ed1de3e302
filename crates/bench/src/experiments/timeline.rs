//! The flight-recorder report (`tables timeline`), `TIMELINE.json`, and the
//! BENCH.json `timeline` section: the service replay's single-device point
//! (the committed overload case) with the default alerting policy evaluated
//! against its recorder.

use batchzk_field::Fr;
use batchzk_gpu_sim::{ArrivalPlan, TraceLevel};
use batchzk_metrics::json::{Array, Object, ToJson};
use batchzk_metrics::{evaluate, AlertLog, AlertRule, Timeline};
use batchzk_pipeline::{default_service_rules, timeline_counter_tracks};
use batchzk_zkp::batch::BatchTask;

use super::render_sparklines;
use super::service::{service_config, sumcheck_study, ServicePoint, ServiceStudy};
use crate::scale::Scale;

/// Renders one ASCII sparkline row per flight-recorder series: each
/// character is one window, the digit the decile of the row's own maximum
/// (the same glyph scheme as the kernel-occupancy timelines).
fn render_timeline_sparklines(t: &Timeline) -> String {
    let mut rows: Vec<(String, Vec<u64>)> = Vec::new();
    for (ci, name) in t.class_names().iter().enumerate() {
        rows.push((format!("{name} queue depth"), t.queue_depth_series(ci)));
        rows.push((format!("{name} rejects"), t.rejected_series(ci)));
    }
    for d in 0..t.devices() {
        rows.push((
            format!("device{d} utilization"),
            t.utilization_ppm_series(d),
        ));
    }
    rows.push(("p99 latency".into(), t.p99_series()));
    render_sparklines(&rows, |row| row.iter().copied().max().unwrap_or(0).max(1))
}

/// A study's single-device replay with the default alerting policy
/// ([`default_service_rules`]) evaluated against its flight recorder.
struct Evaluated<'a> {
    point: &'a ServicePoint<BatchTask<Fr>>,
    rules: Vec<AlertRule>,
    log: AlertLog,
}

fn evaluate_single_device(study: &ServiceStudy<BatchTask<Fr>>) -> Evaluated<'_> {
    let point = study
        .points
        .iter()
        .find(|p| p.devices == 1)
        .expect("the study replayed the 1-device pool");
    let rules = default_service_rules(&service_config(1, study.proof_interval_cycles), 1);
    let log = evaluate(&point.outcome.timeline, &rules);
    Evaluated { point, rules, log }
}

/// Canonical JSON of one flight-recorder evaluation: the replay's
/// calibration envelope, the rule set, the recorder itself, and the
/// ordered alert log. Integers and strings only — byte-deterministic.
fn render_json(scale: &Scale, study: &ServiceStudy<BatchTask<Fr>>, e: &Evaluated<'_>) -> Object {
    let rules = e.rules.iter().map(|r| {
        Object::new()
            .field("name", &r.name)
            .field("threshold_ppm", r.threshold_ppm)
            .field("for_windows", r.for_windows)
            .field("runbook", &r.runbook)
    });
    Object::new()
        .field("log_n", scale.service_log)
        .field("trace", &study.spec)
        .field("devices", 1u32)
        .field("proof_interval_cycles", study.proof_interval_cycles)
        .field("unit_cycles", study.unit_cycles)
        .field("rules", rules.collect::<Array>())
        .field("recorder", &e.point.outcome.timeline)
        .field("alerts", &e.log)
}

/// The BENCH.json `timeline` section, derived from an already-run service
/// study's single-device point — no extra proving.
pub(super) fn timeline_section(scale: &Scale, study: &ServiceStudy<BatchTask<Fr>>) -> Object {
    render_json(scale, study, &evaluate_single_device(study))
}

/// Everything `tables timeline` emits for one replay.
pub struct TimelineArtifacts {
    /// Markdown report: calibration envelope, per-window sparkline table,
    /// and the rendered alert log.
    pub report: String,
    /// Canonical `TIMELINE.json` content — the same bytes as the
    /// BENCH.json `timeline` section for the same scale and plan.
    pub json: String,
    /// The device's Chrome trace with the flight recorder merged in as
    /// phase-`"C"` counter tracks.
    pub chrome_trace: String,
}

/// The flight-recorder report: replays `plan` on the **single-device**
/// A100 pool (the committed reference trace's overload case) under
/// `TraceLevel::Full`, evaluates the default alerting policy against the
/// recorded timeline, and renders the per-window sparkline table, the
/// fire/resolve alert log (each line naming its OPERATIONS.md runbook
/// section), the canonical JSON artifact, and the merged Chrome trace.
///
/// # Errors
///
/// Same conditions as [`super::serve`].
pub fn timeline(scale: &Scale, plan: &ArrivalPlan) -> Result<TimelineArtifacts, String> {
    let study = sumcheck_study(scale, plan, &[1], TraceLevel::Full)?;
    let e = evaluate_single_device(&study);
    let t = &e.point.outcome.timeline;
    let tracks = timeline_counter_tracks(t);
    let chrome_trace = e
        .point
        .pool
        .device(0)
        .chrome_trace_json_with_counters(&tracks);
    let report = format!(
        "## Timeline — flight recorder, S = 2^{} on 1 A100 ({} arrivals)\n\n\
         Trace: `{}`\n\n\
         Calibration: proof interval {} cycles; window {} cycles, {} windows\n\
         ({} downsampling pass{}).\n\n\
         Per-window series (each char = one window, digit = decile of the row's max):\n\n\
         ```\n{}```\n\n\
         Alert evaluation ({} rules; {} fired, {} resolved, {} still firing):\n\n\
         ```\n{}```\n",
        scale.service_log,
        study.arrivals,
        study.spec,
        study.proof_interval_cycles,
        t.window_cycles(),
        t.windows().len(),
        t.downsamples(),
        if t.downsamples() == 1 { "" } else { "es" },
        render_timeline_sparklines(t),
        e.rules.len(),
        e.log.fired(),
        e.log.resolved(),
        e.log.still_firing.len(),
        e.log.render_text(),
    );
    Ok(TimelineArtifacts {
        report,
        json: render_json(scale, &study, &e).to_json(),
        chrome_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::super::service::reference_plan;
    use super::super::tiny_scale;
    use super::*;

    #[test]
    fn timeline_fires_and_resolves_alerts_on_the_reference_overload() {
        // The acceptance scenario: the committed reference trace on the
        // single-device pool (26.5% rejection) must fire at least the
        // rejection-rate rule and a burn-rate rule, and every alert must
        // resolve before the drain — no rule still firing at the end.
        let s = tiny_scale();
        let a = timeline(&s, &reference_plan()).expect("reference trace replays");
        assert!(
            a.json
                .contains("\"rule\":\"rejection-rate\",\"state\":\"fire\""),
            "rejection-rate must fire: {}",
            a.json
        );
        assert!(
            a.json.contains("\"rule\":\"slo-burn-"),
            "a burn-rate rule must fire: {}",
            a.json
        );
        // The artifact ends with the alert log's `still_firing` list, then
        // the closing brace of the envelope.
        assert!(
            a.json.ends_with("\"still_firing\":[]}}"),
            "all alerts resolve before drain: {}",
            a.json
        );
        // The report carries the sparkline table and the alert log with
        // runbook references.
        for needle in [
            "queue depth",
            "device0 utilization",
            "p99 latency",
            "FIRE",
            "resolve",
            "OPERATIONS.md#when-the-rejection-rate-spikes",
        ] {
            assert!(
                a.report.contains(needle),
                "missing `{needle}`:\n{}",
                a.report
            );
        }
        // The merged Chrome trace carries both kernel spans (the replay
        // runs under TraceLevel::Full) and the counter tracks.
        assert!(a.chrome_trace.contains("\"ph\":\"X\""));
        assert!(a.chrome_trace.contains("\"ph\":\"C\""));
        assert!(a.chrome_trace.contains("\"name\":\"service queue depth\""));
        assert_eq!(
            a.chrome_trace.matches('{').count(),
            a.chrome_trace.matches('}').count()
        );
    }

    #[test]
    fn timeline_json_byte_identical_across_host_thread_counts() {
        // The CI determinism gate in-test: TIMELINE.json (and so the
        // BENCH.json `timeline` section, which shares its builder) renders
        // the same bytes at host threads 1/2/4, alert window indexes
        // included.
        let s = tiny_scale();
        let plan = reference_plan();
        let base = batchzk_par::with_threads(1, || timeline(&s, &plan).unwrap().json);
        for t in [2usize, 4] {
            let json = batchzk_par::with_threads(t, || timeline(&s, &plan).unwrap().json);
            assert_eq!(json, base, "timeline artifact differs at threads={t}");
        }
        for field in [
            "\"rules\":[",
            "\"recorder\":",
            "\"alerts\":",
            "\"window_cycles\":",
            "\"events\":[",
        ] {
            assert!(base.contains(field), "missing {field}");
        }
        assert_eq!(base.matches('{').count(), base.matches('}').count());
        assert_eq!(base.matches('[').count(), base.matches(']').count());
        // Integer-only values: a digit is never followed by a decimal
        // point (the only `.`s are inside runbook/trace strings).
        let float_like = base
            .as_bytes()
            .windows(2)
            .any(|w| w[0].is_ascii_digit() && w[1] == b'.');
        assert!(!float_like, "integer-only artifact: {base}");
    }
}
