//! Glue between pipeline runs and the service-level metrics registry.
//!
//! [`Pipeline::run`](crate::Pipeline::run) stays metrics-agnostic — it
//! reports everything it measured in [`RunStats`], including per-task
//! lifecycle [`Span`](batchzk_metrics::Span)s. The functions here fold a
//! finished run (or a failed one) into a
//! [`Registry`] under a stable metric schema, so
//! every caller — the module pipelines, the system prover, the ML service —
//! exposes the same names:
//!
//! | metric | kind | labels |
//! |---|---|---|
//! | `batchzk_runs_total` | counter | `module` |
//! | `batchzk_tasks_total` | counter | `module` |
//! | `batchzk_oom_total` | counter | `module`, `stage` |
//! | `batchzk_h2d_bytes_total` / `batchzk_d2h_bytes_total` | counter | `module` |
//! | `batchzk_lifecycle_cycles` | histogram | `module` |
//! | `batchzk_stage_cycles` | histogram | `module`, `stage` |
//! | `batchzk_stage_occupancy` | gauge | `module`, `stage` |
//! | `batchzk_throughput_tasks_per_ms` | gauge | `module` |
//! | `batchzk_mean_utilization` | gauge | `module` |
//!
//! Multi-device runs ([`record_pool_run`]) add a `device` label dimension —
//! the same families, qualified per pool member — plus pool-level gauges:
//!
//! | metric | kind | labels |
//! |---|---|---|
//! | `batchzk_tasks_total` | counter | `module`, `device` |
//! | `batchzk_h2d_bytes_total` / `batchzk_d2h_bytes_total` | counter | `module`, `device` |
//! | `batchzk_lifecycle_cycles` | histogram | `module`, `device` |
//! | `batchzk_stage_occupancy` | gauge | `module`, `device`, `stage` |
//! | `batchzk_throughput_tasks_per_ms` | gauge | `module`, `device` |
//! | `batchzk_mean_utilization` | gauge | `module`, `device` |
//! | `batchzk_pool_devices` | gauge | `module` |
//! | `batchzk_pool_makespan_ms` | gauge | `module` |
//! | `batchzk_pool_imbalance` | gauge | `module` |
//!
//! Fault-tolerant runs ([`record_error`], [`record_recovery`],
//! [`record_pool_health`]) add the failure families (see `OPERATIONS.md`
//! for the runbook that reads them):
//!
//! | metric | kind | labels |
//! |---|---|---|
//! | `batchzk_device_failures_total` | counter | `module` |
//! | `batchzk_kernels_dropped_total` | counter | `module`, `stage` |
//! | `batchzk_tasks_replayed_total` | counter | `module` |
//! | `batchzk_recovery_replay_rounds` | gauge | `module` |
//! | `batchzk_pool_failed_devices` | gauge | `module` |
//! | `batchzk_pool_degraded_devices` | gauge | `module` |
//!
//! Online service runs ([`record_service`]) add the per-class SLO
//! families the `OPERATIONS.md` SLO-management runbook reads:
//!
//! | metric | kind | labels |
//! |---|---|---|
//! | `batchzk_service_requests_total` | counter | `module`, `class` |
//! | `batchzk_service_accepted_total` | counter | `module`, `class` |
//! | `batchzk_service_rejected_total` | counter | `module`, `class`, `reason` |
//! | `batchzk_service_completed_total` | counter | `module`, `class` |
//! | `batchzk_service_slo_miss_total` | counter | `module`, `class` |
//! | `batchzk_service_latency_cycles` | histogram | `module`, `class` |
//! | `batchzk_service_slo_attainment` | gauge | `module`, `class` |
//! | `batchzk_service_latency_p99_cycles` | gauge | `module`, `class` |
//! | `batchzk_service_rejection_rate` | gauge | `module` |
//! | `batchzk_service_goodput_per_mcycle` | gauge | `module` |
//!
//! Since the `ProverBackend` split, runs and service outcomes can also be
//! qualified by which prover backend produced them. The backend-aware
//! entry points ([`record_run_with_backend`], [`record_service_backends`])
//! are strictly additive: they record the same unlabelled families
//! byte-for-byte (or leave them untouched) and *add* series under a
//! `backend` label dimension, so pre-existing dashboards keep reading the
//! same values:
//!
//! | metric | kind | labels |
//! |---|---|---|
//! | `batchzk_runs_total` | counter | `module`, `backend` |
//! | `batchzk_tasks_total` | counter | `module`, `backend` |
//! | `batchzk_throughput_tasks_per_ms` | gauge | `module`, `backend` |
//! | `batchzk_mean_utilization` | gauge | `module`, `backend` |
//! | `batchzk_service_completed_total` | counter | `module`, `backend` |
//! | `batchzk_service_slo_miss_total` | counter | `module`, `backend` |
//! | `batchzk_service_latency_cycles` | histogram | `module`, `backend` |

use crate::engine::{PipelineError, RunStats, StageStats};
use crate::sched::{self, RecoveryReport};
use crate::service::{PriorityClass, RejectReason, ServiceConfig, ServiceOutcome};
use batchzk_gpu_sim::CounterTrack;
use batchzk_metrics::{AlertKind, AlertRule, Registry, StageObservation, Timeline};

/// Folds a completed run's statistics into `registry` under `module`.
///
/// Counters accumulate across runs (a service calls this once per
/// round); gauges reflect the most recent run.
pub fn record_run(registry: &mut Registry, module: &str, stats: &RunStats) {
    let m = [("module", module)];
    registry.counter_add("batchzk_runs_total", &m, 1);
    registry.counter_add("batchzk_tasks_total", &m, stats.tasks as u64);
    registry.counter_add("batchzk_h2d_bytes_total", &m, stats.h2d_bytes);
    registry.counter_add("batchzk_d2h_bytes_total", &m, stats.d2h_bytes);
    registry.gauge_set(
        "batchzk_throughput_tasks_per_ms",
        &m,
        stats.throughput_per_ms,
    );
    registry.gauge_set("batchzk_mean_utilization", &m, stats.mean_utilization);
    for span in &stats.lifecycles {
        registry.observe("batchzk_lifecycle_cycles", &m, span.total_cycles());
        for stage in &span.stages {
            registry.observe(
                "batchzk_stage_cycles",
                &[("module", module), ("stage", &stage.stage)],
                stage.cycles(),
            );
        }
    }
    for stage in &stats.stage_stats {
        registry.gauge_set(
            "batchzk_stage_occupancy",
            &[("module", module), ("stage", &stage.name)],
            stage.occupancy,
        );
    }
}

/// Backend-qualified variant of [`record_run`]: records the exact same
/// `module`-labelled series (so existing dashboards see no difference),
/// then qualifies the headline run families with an additional `backend`
/// label naming the prover backend that produced the run.
pub fn record_run_with_backend(
    registry: &mut Registry,
    module: &str,
    backend: &str,
    stats: &RunStats,
) {
    record_run(registry, module, stats);
    let b = [("module", module), ("backend", backend)];
    registry.counter_add("batchzk_runs_total", &b, 1);
    registry.counter_add("batchzk_tasks_total", &b, stats.tasks as u64);
    registry.gauge_set(
        "batchzk_throughput_tasks_per_ms",
        &b,
        stats.throughput_per_ms,
    );
    registry.gauge_set("batchzk_mean_utilization", &b, stats.mean_utilization);
}

/// Folds one pool-wide run (per-device [`RunStats`], per-device elapsed
/// milliseconds and the makespan, as produced by
/// [`run_sharded`](crate::sched::run_sharded)) into `registry` under
/// `module`. The makespan is the run's own: under fault recovery it is the
/// sum of the rounds' maxima, which no single device's elapsed time need
/// reach.
///
/// Module-level series aggregate across devices exactly as a
/// single-device [`record_run`] would (a one-device pool records the
/// same values), device-level series carry an additional `device` label
/// (`"0"`, `"1"`, …), and three pool gauges summarize balance:
/// `batchzk_pool_devices`, `batchzk_pool_makespan_ms`, and
/// `batchzk_pool_imbalance` (makespan over the mean active device time).
pub fn record_pool_run(
    registry: &mut Registry,
    module: &str,
    device_stats: &[RunStats],
    device_ms: &[f64],
    makespan_ms: f64,
) {
    let m = [("module", module)];
    let tasks: u64 = device_stats.iter().map(|s| s.tasks as u64).sum();
    let h2d: u64 = device_stats.iter().map(|s| s.h2d_bytes).sum();
    let d2h: u64 = device_stats.iter().map(|s| s.d2h_bytes).sum();
    registry.counter_add("batchzk_runs_total", &m, 1);
    registry.counter_add("batchzk_tasks_total", &m, tasks);
    registry.counter_add("batchzk_h2d_bytes_total", &m, h2d);
    registry.counter_add("batchzk_d2h_bytes_total", &m, d2h);
    registry.gauge_set(
        "batchzk_throughput_tasks_per_ms",
        &m,
        sched::throughput_per_ms(tasks as usize, makespan_ms),
    );
    let active: Vec<&RunStats> = device_stats.iter().filter(|s| s.tasks > 0).collect();
    let mean_util = if active.is_empty() {
        0.0
    } else {
        active.iter().map(|s| s.mean_utilization).sum::<f64>() / active.len() as f64
    };
    registry.gauge_set("batchzk_mean_utilization", &m, mean_util);
    for stats in device_stats {
        for span in &stats.lifecycles {
            registry.observe("batchzk_lifecycle_cycles", &m, span.total_cycles());
            for stage in &span.stages {
                registry.observe(
                    "batchzk_stage_cycles",
                    &[("module", module), ("stage", &stage.stage)],
                    stage.cycles(),
                );
            }
        }
    }
    // Module-level stage occupancy: mean across devices that ran work.
    if let Some(first) = active.first() {
        for (i, stage) in first.stage_stats.iter().enumerate() {
            let occ = active
                .iter()
                .filter_map(|s| s.stage_stats.get(i).map(|st| st.occupancy))
                .sum::<f64>()
                / active.len() as f64;
            registry.gauge_set(
                "batchzk_stage_occupancy",
                &[("module", module), ("stage", &stage.name)],
                occ,
            );
        }
    }
    // Per-device series under the added `device` label dimension.
    for (d, stats) in device_stats.iter().enumerate() {
        let dev = d.to_string();
        let dm = [("module", module), ("device", dev.as_str())];
        registry.counter_add("batchzk_tasks_total", &dm, stats.tasks as u64);
        registry.counter_add("batchzk_h2d_bytes_total", &dm, stats.h2d_bytes);
        registry.counter_add("batchzk_d2h_bytes_total", &dm, stats.d2h_bytes);
        registry.gauge_set(
            "batchzk_throughput_tasks_per_ms",
            &dm,
            stats.throughput_per_ms,
        );
        registry.gauge_set("batchzk_mean_utilization", &dm, stats.mean_utilization);
        for span in &stats.lifecycles {
            registry.observe("batchzk_lifecycle_cycles", &dm, span.total_cycles());
        }
        for stage in &stats.stage_stats {
            registry.gauge_set(
                "batchzk_stage_occupancy",
                &[
                    ("module", module),
                    ("device", dev.as_str()),
                    ("stage", &stage.name),
                ],
                stage.occupancy,
            );
        }
    }
    // Pool-level balance gauges.
    registry.gauge_set("batchzk_pool_devices", &m, device_stats.len() as f64);
    registry.gauge_set("batchzk_pool_makespan_ms", &m, makespan_ms);
    registry.gauge_set(
        "batchzk_pool_imbalance",
        &m,
        sched::imbalance(makespan_ms, device_ms),
    );
}

/// Folds a failed run into `registry` under `module`: an OOM counter per
/// failing stage, a device-failure counter per fail-stop, and a
/// dropped-kernel counter per suppressed launch — making memory pressure
/// and device faults visible in exposition output.
pub fn record_error(registry: &mut Registry, module: &str, error: &PipelineError) {
    match error {
        PipelineError::OutOfDeviceMemory { stage, .. } => {
            registry.counter_add(
                "batchzk_oom_total",
                &[("module", module), ("stage", stage)],
                1,
            );
        }
        PipelineError::DeviceFailed { .. } => {
            registry.counter_add("batchzk_device_failures_total", &[("module", module)], 1);
        }
        PipelineError::KernelDropped { stage, .. } => {
            registry.counter_add(
                "batchzk_kernels_dropped_total",
                &[("module", module), ("stage", stage)],
                1,
            );
        }
    }
}

/// Folds a sharded run's [`RecoveryReport`] into `registry` under
/// `module`: one [`record_error`] per absorbed fault plus counters for
/// the replay volume and a gauge for the rounds the recovery took.
///
/// Call this after [`record_pool_run`] when
/// [`ShardedRun::recovery`](crate::ShardedRun::recovery) is `Some`; a
/// fault-free run records nothing.
pub fn record_recovery(registry: &mut Registry, module: &str, recovery: &RecoveryReport) {
    let m = [("module", module)];
    for fault in &recovery.faults {
        record_error(registry, module, fault);
    }
    registry.counter_add(
        "batchzk_tasks_replayed_total",
        &m,
        recovery.replayed_tasks as u64,
    );
    registry.gauge_set(
        "batchzk_recovery_replay_rounds",
        &m,
        recovery.replay_rounds as f64,
    );
}

/// Records the pool's current health as gauges under `module`:
/// `batchzk_pool_failed_devices` and `batchzk_pool_degraded_devices`.
/// Complements [`record_recovery`] (which counts events) with the
/// resulting state, so dashboards can alert on a shrinking pool even
/// between runs.
pub fn record_pool_health(
    registry: &mut Registry,
    module: &str,
    pool: &batchzk_gpu_sim::DevicePool,
) {
    let m = [("module", module)];
    registry.gauge_set(
        "batchzk_pool_failed_devices",
        &m,
        pool.failed_count() as f64,
    );
    registry.gauge_set(
        "batchzk_pool_degraded_devices",
        &m,
        pool.degraded_count() as f64,
    );
}

/// Folds one online service run into `registry` under `module`: per-class
/// admission counters (the conservation law `requests = accepted +
/// rejected` holds per class by construction), a per-class latency
/// histogram over arrival→completion cycles, SLO burn counters/gauges,
/// and service-wide rejection-rate and goodput gauges. The SLO-management
/// runbook in `OPERATIONS.md` is written against these families.
pub fn record_service<T>(registry: &mut Registry, module: &str, outcome: &ServiceOutcome<T>) {
    let m = [("module", module)];
    let mut submitted_all = 0u64;
    let mut rejected_all = 0u64;
    for report in &outcome.reports {
        let class = report.class.name();
        let c = [("module", module), ("class", class)];
        registry.counter_add("batchzk_service_requests_total", &c, report.submitted);
        registry.counter_add("batchzk_service_accepted_total", &c, report.accepted);
        registry.counter_add(
            "batchzk_service_rejected_total",
            &[
                ("module", module),
                ("class", class),
                ("reason", RejectReason::QueueFull.name()),
            ],
            report.rejected_queue_full,
        );
        registry.counter_add(
            "batchzk_service_rejected_total",
            &[
                ("module", module),
                ("class", class),
                ("reason", RejectReason::Saturated.name()),
            ],
            report.rejected_saturated,
        );
        registry.counter_add("batchzk_service_completed_total", &c, report.completed);
        registry.counter_add(
            "batchzk_service_slo_miss_total",
            &c,
            report.completed - report.within_slo,
        );
        registry.gauge_set(
            "batchzk_service_slo_attainment",
            &c,
            report.slo_attainment(),
        );
        registry.gauge_set(
            "batchzk_service_latency_p99_cycles",
            &c,
            report.latency_p99_cycles as f64,
        );
        submitted_all += report.submitted;
        rejected_all += report.rejected_queue_full + report.rejected_saturated;
    }
    for completion in &outcome.completions {
        registry.observe(
            "batchzk_service_latency_cycles",
            &[("module", module), ("class", completion.class.name())],
            completion.latency_cycles(),
        );
    }
    registry.gauge_set(
        "batchzk_service_rejection_rate",
        &m,
        if submitted_all == 0 {
            0.0
        } else {
            rejected_all as f64 / submitted_all as f64
        },
    );
    registry.gauge_set(
        "batchzk_service_goodput_per_mcycle",
        &m,
        outcome.goodput_per_mcycle(),
    );
}

/// Adds the `backend` label dimension to a service outcome's completion
/// families: per-backend completed counters, SLO-miss counters, and
/// latency histograms, derived by classifying each completion's finished
/// task through `backend_of`. Strictly additive — call it *after*
/// [`record_service`]; the unlabelled families are untouched. This is how
/// a mixed-protocol trace (one pool, several prover backends) stays
/// observable per backend under the shared SLO classes.
pub fn record_service_backends<T>(
    registry: &mut Registry,
    module: &str,
    outcome: &ServiceOutcome<T>,
    backend_of: impl Fn(&T) -> &'static str,
) {
    for completion in &outcome.completions {
        let labels = [
            ("module", module),
            ("backend", backend_of(&completion.task)),
        ];
        registry.counter_add("batchzk_service_completed_total", &labels, 1);
        let latency = completion.latency_cycles();
        registry.observe("batchzk_service_latency_cycles", &labels, latency);
        let slo = outcome
            .reports
            .iter()
            .find(|r| r.class == completion.class)
            .map_or(u64::MAX, |r| r.slo_cycles);
        if latency > slo {
            registry.counter_add("batchzk_service_slo_miss_total", &labels, 1);
        }
    }
}

/// The default alerting policy for an online service run: the rule set the
/// flight recorder is evaluated against unless an operator supplies their
/// own. Per class: an SLO burn-rate rule (≥ 50% of a window's completions
/// missing their SLO, sustained 2 windows) and a queue-growth rule (the
/// class queue pinned at its admission cap, sustained 2 windows). Service
/// wide: a rejection-rate rule (≥ 25% of a window's arrivals shed,
/// sustained 2 windows). Per device: a stall rule (≥ 95% idle while the
/// service has queued backlog, sustained 2 windows).
///
/// Each rule names the `OPERATIONS.md` runbook section the on-call should
/// open; the alert-response table there maps back to these rule names.
pub fn default_service_rules(config: &ServiceConfig, devices: usize) -> Vec<AlertRule> {
    let mut rules = Vec::new();
    for (ci, class) in PriorityClass::ALL.iter().enumerate() {
        rules.push(AlertRule {
            name: format!("slo-burn-{}", class.name()),
            kind: AlertKind::BurnRate { class: ci },
            threshold_ppm: 500_000,
            for_windows: 2,
            runbook: "OPERATIONS.md#reading-per-class-slo-burn".into(),
        });
        rules.push(AlertRule {
            name: format!("queue-growth-{}", class.name()),
            kind: AlertKind::QueueGrowth { class: ci },
            threshold_ppm: (config.classes[ci].queue_cap as u64).saturating_mul(1_000_000),
            for_windows: 2,
            runbook: "OPERATIONS.md#tuning-the-admission-caps".into(),
        });
    }
    rules.push(AlertRule {
        name: "rejection-rate".into(),
        kind: AlertKind::RejectionRate { class: None },
        threshold_ppm: 250_000,
        for_windows: 2,
        runbook: "OPERATIONS.md#when-the-rejection-rate-spikes".into(),
    });
    for d in 0..devices {
        rules.push(AlertRule {
            name: format!("device-stall-{d}"),
            kind: AlertKind::DeviceStall { device: d },
            threshold_ppm: 950_000,
            for_windows: 2,
            runbook: "OPERATIONS.md#reading-the-failure-metrics".into(),
        });
    }
    rules
}

/// One Chrome-trace counter point set, column-major to row-major.
fn track(name: &str, series: Vec<String>, columns: Vec<Vec<u64>>, starts: &[u64]) -> CounterTrack {
    let points = starts
        .iter()
        .enumerate()
        .map(|(i, &ts)| (ts, columns.iter().map(|col| col[i]).collect()))
        .collect();
    CounterTrack {
        name: name.into(),
        series,
        points,
    }
}

/// Converts a finalized service [`Timeline`] into Chrome-trace counter
/// tracks (phase `"C"` events, one point per window at the window's start
/// cycle): per-class queue depth and rejections, per-device utilization
/// (ppm) and in-flight peak, and the windowed p99 lifecycle latency.
/// Merge them into a device trace with
/// `Gpu::chrome_trace_json_with_counters`; `chrome://tracing` and Perfetto
/// render each track as a stacked area chart above the kernel spans.
pub fn timeline_counter_tracks(timeline: &Timeline) -> Vec<CounterTrack> {
    let starts: Vec<u64> = timeline.windows().iter().map(|w| w.start_cycle).collect();
    let class_series: Vec<String> = timeline.class_names().to_vec();
    let device_series: Vec<String> = (0..timeline.devices())
        .map(|d| format!("device{d}"))
        .collect();
    let queue_cols = (0..class_series.len())
        .map(|c| timeline.queue_depth_series(c))
        .collect();
    let reject_cols = (0..class_series.len())
        .map(|c| timeline.rejected_series(c))
        .collect();
    let util_cols = (0..timeline.devices())
        .map(|d| timeline.utilization_ppm_series(d))
        .collect();
    let inflight_cols = (0..timeline.devices())
        .map(|d| timeline.in_flight_series(d))
        .collect();
    vec![
        track(
            "service queue depth",
            class_series.clone(),
            queue_cols,
            &starts,
        ),
        track("service rejections", class_series, reject_cols, &starts),
        track(
            "device utilization ppm",
            device_series.clone(),
            util_cols,
            &starts,
        ),
        track("device in-flight", device_series, inflight_cols, &starts),
        track(
            "service latency p99 cycles",
            vec!["p99".into()],
            vec![timeline.p99_series()],
            &starts,
        ),
    ]
}

/// Converts per-stage run statistics into the analyzer's input form.
pub fn stage_observations(stage_stats: &[StageStats]) -> Vec<StageObservation> {
    stage_stats
        .iter()
        .map(|s| StageObservation {
            name: s.name.clone(),
            threads: s.threads,
            tasks: s.tasks,
            busy_cycles: s.busy_cycles,
            occupied_cycles: s.occupied_cycles,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle;
    use batchzk_gpu_sim::{DeviceProfile, Gpu};

    fn trees(count: usize, n: usize) -> Vec<Vec<[u8; 64]>> {
        (0..count)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        let mut b = [0u8; 64];
                        b[..8].copy_from_slice(&((t * n + i) as u64).to_le_bytes());
                        b
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn record_run_populates_all_metric_families() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = merkle::run_pipelined(&mut gpu, trees(6, 16), 512, true).expect("fits");
        let mut reg = Registry::new();
        record_run(&mut reg, "merkle", &run.stats);
        let m = [("module", "merkle")];
        assert_eq!(reg.counter("batchzk_runs_total", &m), 1);
        assert_eq!(reg.counter("batchzk_tasks_total", &m), 6);
        let h = reg
            .histogram("batchzk_lifecycle_cycles", &m)
            .expect("lifecycle histogram recorded");
        assert_eq!(h.count(), 6);
        assert!(h.quantile(0.5) > 0);
        assert!(reg
            .gauge("batchzk_throughput_tasks_per_ms", &m)
            .expect("gauge set")
            .is_finite());
        // One occupancy gauge and one stage histogram per stage.
        for s in &run.stats.stage_stats {
            let labels = [("module", "merkle"), ("stage", s.name.as_str())];
            assert!(reg.gauge("batchzk_stage_occupancy", &labels).is_some());
            let sh = reg
                .histogram("batchzk_stage_cycles", &labels)
                .expect("stage histogram recorded");
            assert_eq!(sh.count(), 6);
            // The histogram's sum is exactly the stage's occupied cycles —
            // the span/stage conservation law surfaced through metrics.
            assert_eq!(sh.sum(), s.occupied_cycles as u128);
        }
        // Accumulation across runs.
        record_run(&mut reg, "merkle", &run.stats);
        assert_eq!(reg.counter("batchzk_runs_total", &m), 2);
        assert_eq!(reg.counter("batchzk_tasks_total", &m), 12);
    }

    #[test]
    fn oom_counter_increments_when_pipeline_oom_fires() {
        // Device too small for two concurrent Merkle tasks: the PR 1 OOM
        // path fires and the metrics layer counts it per stage.
        let small = DeviceProfile {
            device_mem_bytes: 100,
            ..DeviceProfile::v100()
        };
        let mut gpu = Gpu::new(small);
        let mut reg = Registry::new();
        let err = merkle::run_pipelined(&mut gpu, trees(4, 8), 256, true)
            .expect_err("must exceed 100 bytes of device memory");
        record_error(&mut reg, "merkle", &err);
        let PipelineError::OutOfDeviceMemory { stage, .. } = &err else {
            panic!("expected OOM, got {err:?}");
        };
        assert_eq!(
            reg.counter(
                "batchzk_oom_total",
                &[("module", "merkle"), ("stage", stage)]
            ),
            1
        );
        record_error(&mut reg, "merkle", &err);
        assert_eq!(
            reg.counter(
                "batchzk_oom_total",
                &[("module", "merkle"), ("stage", stage)]
            ),
            2
        );
        // The counter shows up in both exposition formats.
        assert!(reg.to_prometheus().contains("batchzk_oom_total"));
        assert!(reg.to_json().contains("batchzk_oom_total"));
    }

    #[test]
    fn pool_run_records_module_device_and_pool_series() {
        // Two devices run disjoint shards of the same module pipeline.
        let mut g0 = Gpu::new(DeviceProfile::v100());
        let r0 = merkle::run_pipelined(&mut g0, trees(4, 16), 512, true).expect("fits");
        let mut g1 = Gpu::new(DeviceProfile::v100());
        let r1 = merkle::run_pipelined(&mut g1, trees(2, 16), 512, true).expect("fits");
        let stats = [r0.stats, r1.stats];
        let ms = [g0.elapsed_ms(), g1.elapsed_ms()];
        let mut reg = Registry::new();
        record_pool_run(&mut reg, "merkle", &stats, &ms, ms[0].max(ms[1]));
        let m = [("module", "merkle")];
        // Module-level aggregates.
        assert_eq!(reg.counter("batchzk_runs_total", &m), 1);
        assert_eq!(reg.counter("batchzk_tasks_total", &m), 6);
        assert_eq!(
            reg.histogram("batchzk_lifecycle_cycles", &m)
                .expect("lifecycle histogram")
                .count(),
            6
        );
        // Per-device dimension.
        assert_eq!(
            reg.counter(
                "batchzk_tasks_total",
                &[("module", "merkle"), ("device", "0")]
            ),
            4
        );
        assert_eq!(
            reg.counter(
                "batchzk_tasks_total",
                &[("module", "merkle"), ("device", "1")]
            ),
            2
        );
        for s in &stats[0].stage_stats {
            assert!(reg
                .gauge(
                    "batchzk_stage_occupancy",
                    &[
                        ("module", "merkle"),
                        ("device", "0"),
                        ("stage", s.name.as_str())
                    ]
                )
                .is_some());
        }
        // Pool gauges.
        assert_eq!(reg.gauge("batchzk_pool_devices", &m), Some(2.0));
        let makespan = reg.gauge("batchzk_pool_makespan_ms", &m).expect("set");
        assert!((makespan - ms[0].max(ms[1])).abs() < 1e-12);
        let imbalance = reg.gauge("batchzk_pool_imbalance", &m).expect("set");
        assert!(imbalance >= 1.0, "{imbalance}");
    }

    #[test]
    fn recovery_and_health_metrics_record_fault_families() {
        use batchzk_gpu_sim::{DevicePool, FaultPlan};
        let mut reg = Registry::new();
        let report = crate::sched::RecoveryReport {
            failed_devices: vec![1],
            dropped_kernels: 1,
            replayed_tasks: 7,
            replay_rounds: 2,
            faults: vec![
                PipelineError::DeviceFailed {
                    at_cycle: 100,
                    salvaged: 3,
                },
                PipelineError::KernelDropped {
                    stage: "merkle-layer".into(),
                    at_cycle: 40,
                    salvaged: 4,
                },
            ],
        };
        record_recovery(&mut reg, "system", &report);
        let m = [("module", "system")];
        assert_eq!(reg.counter("batchzk_device_failures_total", &m), 1);
        assert_eq!(
            reg.counter(
                "batchzk_kernels_dropped_total",
                &[("module", "system"), ("stage", "merkle-layer")]
            ),
            1
        );
        assert_eq!(reg.counter("batchzk_tasks_replayed_total", &m), 7);
        assert_eq!(reg.gauge("batchzk_recovery_replay_rounds", &m), Some(2.0));

        // Health gauges reflect the pool's current state.
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 3);
        pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, 0).degraded_clock(2, 0, 200));
        for d in 0..3 {
            pool.device_mut(d).poll_faults();
        }
        record_pool_health(&mut reg, "system", &pool);
        assert_eq!(reg.gauge("batchzk_pool_failed_devices", &m), Some(1.0));
        assert_eq!(reg.gauge("batchzk_pool_degraded_devices", &m), Some(1.0));
        assert!(reg
            .to_prometheus()
            .contains("batchzk_device_failures_total"));
    }

    #[test]
    fn service_metrics_record_slo_families() {
        use crate::service::{
            run_service, ClassPolicy, PriorityClass, ServiceConfig, ServiceRequest,
        };
        use crate::{BoxedStage, PipeStage, StageWork};
        use batchzk_gpu_sim::{DevicePool, Work};

        struct Busy;
        impl PipeStage<u64> for Busy {
            fn name(&self) -> String {
                "busy".into()
            }
            fn threads(&self) -> u32 {
                32
            }
            fn process(&self, _task: &mut u64) -> StageWork {
                StageWork {
                    work: Work::Uniform {
                        units: 32,
                        cycles_per_unit: 50,
                    },
                    h2d_bytes: 0,
                    d2h_bytes: 0,
                    mem_after: 64,
                }
            }
        }

        let config = ServiceConfig {
            classes: [ClassPolicy {
                queue_cap: 2,
                slo_cycles: 10_000,
            }; 3],
            max_outstanding: 4,
            device_queue_cap: 1,
            max_in_flight: 0,
            timeline_window_cycles: 0,
        };
        let requests: Vec<ServiceRequest<u64>> = (0..12)
            .map(|i| ServiceRequest {
                class: PriorityClass::ALL[i % 3],
                arrival_cycle: 100,
                task: i as u64,
            })
            .collect();
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 1);
        let stages = |_: &Gpu| -> Vec<BoxedStage<u64>> { vec![Box::new(Busy), Box::new(Busy)] };
        let outcome = run_service(&mut pool, &config, requests, stages, true).unwrap();
        assert!(!outcome.rejected.is_empty(), "burst should shed load");

        let mut reg = Registry::new();
        record_service(&mut reg, "service", &outcome);
        let mut requests_total = 0;
        let mut accepted_total = 0;
        let mut rejected_total = 0;
        for class in PriorityClass::ALL {
            let c = [("module", "service"), ("class", class.name())];
            requests_total += reg.counter("batchzk_service_requests_total", &c);
            accepted_total += reg.counter("batchzk_service_accepted_total", &c);
            for reason in ["queue-full", "saturated"] {
                rejected_total += reg.counter(
                    "batchzk_service_rejected_total",
                    &[
                        ("module", "service"),
                        ("class", class.name()),
                        ("reason", reason),
                    ],
                );
            }
            assert!(reg.gauge("batchzk_service_slo_attainment", &c).is_some());
            assert_eq!(
                reg.counter("batchzk_service_completed_total", &c),
                outcome.reports[class.index()].completed
            );
        }
        assert_eq!(requests_total, 12);
        assert_eq!(requests_total, accepted_total + rejected_total);
        let h = reg
            .histogram(
                "batchzk_service_latency_cycles",
                &[("module", "service"), ("class", "interactive")],
            )
            .expect("latency histogram recorded");
        assert!(h.count() > 0);
        assert!(
            reg.gauge("batchzk_service_rejection_rate", &[("module", "service")])
                .expect("rejection rate gauge")
                > 0.0
        );
        assert!(reg
            .to_prometheus()
            .contains("batchzk_service_requests_total"));
    }

    #[test]
    fn default_rules_cover_every_class_and_device_and_fire_deterministically() {
        use crate::service::{ClassPolicy, PriorityClass, ServiceConfig};
        use batchzk_metrics::{evaluate, TimelineConfig};

        let config = ServiceConfig {
            classes: [ClassPolicy {
                queue_cap: 2,
                slo_cycles: 1_000,
            }; 3],
            max_outstanding: 8,
            device_queue_cap: 1,
            max_in_flight: 0,
            timeline_window_cycles: 0,
        };
        let rules = default_service_rules(&config, 2);
        // 2 rules per class + 1 global rejection-rate + 1 per device.
        assert_eq!(rules.len(), 2 * PriorityClass::ALL.len() + 1 + 2);
        let mut names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rules.len(), "rule names are unique");
        for r in &rules {
            assert!(r.runbook.starts_with("OPERATIONS.md#"), "{}", r.runbook);
        }

        // A synthetic timeline shedding half its traffic for two windows
        // fires the global rejection-rate rule, which resolves at the
        // first clean window.
        let mut t = Timeline::new(TimelineConfig {
            window_cycles: 100,
            max_windows: 16,
            class_names: PriorityClass::ALL.iter().map(|c| c.name().into()).collect(),
            devices: 2,
        });
        for w in 0..2u64 {
            t.record_accept(w * 100, 0);
            t.record_reject_queue_full(w * 100 + 1, 0);
        }
        t.record_accept(250, 0);
        t.finalize(300);
        let log = evaluate(&t, &rules);
        let rejection = log.events_for("rejection-rate");
        assert_eq!(rejection.len(), 2);
        assert!(rejection[0].fired);
        assert_eq!(rejection[0].window, 1);
        assert!(!rejection[1].fired);
        assert_eq!(rejection[1].window, 2);
        assert_eq!(log.to_json(), evaluate(&t, &rules).to_json());
    }

    #[test]
    fn counter_tracks_mirror_the_timeline_and_merge_into_a_device_trace() {
        use batchzk_metrics::TimelineConfig;

        let mut t = Timeline::new(TimelineConfig {
            window_cycles: 100,
            max_windows: 8,
            class_names: vec!["interactive".into(), "bulk".into()],
            devices: 1,
        });
        t.record_accept(0, 0);
        t.sample_queue_depth(10, 0, 3);
        t.record_reject_queue_full(120, 1);
        t.record_busy(0, 0, 150);
        t.record_completion(180, 0, 180, true);
        t.finalize(200);

        let tracks = timeline_counter_tracks(&t);
        assert_eq!(tracks.len(), 5);
        for track in &tracks {
            assert_eq!(track.points.len(), t.windows().len());
            for (ts, values) in &track.points {
                assert_eq!(values.len(), track.series.len());
                assert!(t.windows().iter().any(|w| w.start_cycle == *ts));
            }
        }
        let depth = &tracks[0];
        assert_eq!(depth.name, "service queue depth");
        assert_eq!(depth.series, vec!["interactive", "bulk"]);
        assert_eq!(depth.points[0].1, vec![3, 0]);
        let rejects = &tracks[1];
        assert_eq!(rejects.points[1].1, vec![0, 1]);

        // Merged into a device trace they render as phase-"C" events.
        let gpu = Gpu::new(DeviceProfile::v100());
        let json = gpu.chrome_trace_json_with_counters(&tracks);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"service queue depth\""));
        assert_eq!(json, gpu.chrome_trace_json_with_counters(&tracks));
    }

    #[test]
    fn backend_label_is_additive_over_unlabelled_families() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = merkle::run_pipelined(&mut gpu, trees(6, 16), 512, true).expect("fits");

        // The backend-aware entry point records the plain module families
        // byte-for-byte...
        let mut plain = Registry::new();
        record_run(&mut plain, "merkle", &run.stats);
        let mut labelled = Registry::new();
        record_run_with_backend(&mut labelled, "merkle", "sumcheck", &run.stats);
        let m = [("module", "merkle")];
        assert_eq!(
            plain.counter("batchzk_tasks_total", &m),
            labelled.counter("batchzk_tasks_total", &m)
        );
        assert_eq!(
            plain.gauge("batchzk_throughput_tasks_per_ms", &m),
            labelled.gauge("batchzk_throughput_tasks_per_ms", &m)
        );
        // ...and adds the backend-qualified dimension on top.
        let b = [("module", "merkle"), ("backend", "sumcheck")];
        assert_eq!(labelled.counter("batchzk_runs_total", &b), 1);
        assert_eq!(labelled.counter("batchzk_tasks_total", &b), 6);
        assert!(labelled
            .gauge("batchzk_throughput_tasks_per_ms", &b)
            .is_some());
        assert_eq!(plain.counter("batchzk_runs_total", &b), 0);
    }

    #[test]
    fn service_backend_families_classify_completions() {
        use crate::service::{
            run_service, ClassPolicy, PriorityClass, ServiceConfig, ServiceRequest,
        };
        use crate::{BoxedStage, PipeStage, StageWork};
        use batchzk_gpu_sim::{DevicePool, Work};

        struct Busy;
        impl PipeStage<u64> for Busy {
            fn name(&self) -> String {
                "busy".into()
            }
            fn threads(&self) -> u32 {
                32
            }
            fn process(&self, _task: &mut u64) -> StageWork {
                StageWork {
                    work: Work::Uniform {
                        units: 32,
                        cycles_per_unit: 50,
                    },
                    h2d_bytes: 0,
                    d2h_bytes: 0,
                    mem_after: 64,
                }
            }
        }

        let config = ServiceConfig {
            classes: [ClassPolicy {
                queue_cap: 8,
                slo_cycles: 3_000,
            }; 3],
            max_outstanding: 32,
            device_queue_cap: 4,
            max_in_flight: 0,
            timeline_window_cycles: 0,
        };
        // Even request indices target one backend, odd the other.
        let requests: Vec<ServiceRequest<u64>> = (0..8u64)
            .map(|i| ServiceRequest {
                class: PriorityClass::ALL[(i % 3) as usize],
                arrival_cycle: 100 * i,
                task: i,
            })
            .collect();
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 1);
        let stages = |_: &Gpu| -> Vec<BoxedStage<u64>> { vec![Box::new(Busy)] };
        let outcome = run_service(&mut pool, &config, requests, stages, true).unwrap();
        let total_completed = outcome.completions.len() as u64;
        assert!(total_completed > 0);

        let backend_of = |t: &u64| -> &'static str {
            if t.is_multiple_of(2) {
                "sumcheck"
            } else {
                "groth16"
            }
        };
        let mut reg = Registry::new();
        record_service_backends(&mut reg, "service", &outcome, backend_of);
        let sc = [("module", "service"), ("backend", "sumcheck")];
        let gr = [("module", "service"), ("backend", "groth16")];
        // Per-backend completions partition the total.
        assert_eq!(
            reg.counter("batchzk_service_completed_total", &sc)
                + reg.counter("batchzk_service_completed_total", &gr),
            total_completed
        );
        let expect_sc = outcome
            .completions
            .iter()
            .filter(|c| c.task % 2 == 0)
            .count() as u64;
        assert_eq!(
            reg.counter("batchzk_service_completed_total", &sc),
            expect_sc
        );
        // Per-backend SLO misses partition the per-class miss totals.
        let misses: u64 = outcome
            .reports
            .iter()
            .map(|r| r.completed - r.within_slo)
            .sum();
        assert_eq!(
            reg.counter("batchzk_service_slo_miss_total", &sc)
                + reg.counter("batchzk_service_slo_miss_total", &gr),
            misses
        );
        let h = reg
            .histogram("batchzk_service_latency_cycles", &sc)
            .expect("recorded");
        assert_eq!(h.count(), expect_sc);
        // The unlabelled families are untouched by the backend pass.
        assert_eq!(
            reg.counter(
                "batchzk_service_completed_total",
                &[("module", "service"), ("class", "interactive")]
            ),
            0
        );
    }

    #[test]
    fn stage_observations_mirror_stage_stats() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = merkle::run_pipelined(&mut gpu, trees(4, 16), 512, true).expect("fits");
        let obs = stage_observations(&run.stats.stage_stats);
        assert_eq!(obs.len(), run.stats.stage_stats.len());
        for (o, s) in obs.iter().zip(&run.stats.stage_stats) {
            assert_eq!(o.name, s.name);
            assert_eq!(o.threads, s.threads);
            assert_eq!(o.busy_cycles, s.busy_cycles);
            assert_eq!(o.occupied_cycles, s.occupied_cycles);
        }
    }
}
