//! Glue between pipeline runs and the service-level metrics registry.
//!
//! [`Pipeline::run`](crate::Pipeline::run) stays metrics-agnostic — it
//! reports everything it measured in [`RunStats`], including per-task
//! lifecycle [`Span`](batchzk_metrics::Span)s. The functions here fold a
//! finished run, a pool run, a failure or a service outcome into a
//! [`Registry`] under one stable metric schema, so every caller — the
//! module pipelines, the system prover, the ML service — exposes the same
//! names. [`record_run`] records a single-device run under `module`;
//! [`record_run_with_backend`] adds the `backend` series beside it;
//! [`record_pool`] records a pool run (with its recovery account and the
//! pool's health) or a failed batch; [`record_service`] records a service
//! outcome, and its `backend` series when given a classifier.
//!
//! The table is the whole schema; `OPERATIONS.md` holds the runbooks
//! that read it. A ✓ under `device` or `backend` means the family is also
//! recorded with that label beside `module` (a pool's per-device series; a
//! backend's series, which drop `class`). Those series add to the
//! `module` ones and leave them as they are.
//!
//! | metric | kind | labels | `device` | `backend` |
//! |---|---|---|---|---|
//! | `batchzk_runs_total` | counter | `module` | | ✓ |
//! | `batchzk_tasks_total` | counter | `module` | ✓ | ✓ |
//! | `batchzk_h2d_bytes_total` | counter | `module` | ✓ | |
//! | `batchzk_d2h_bytes_total` | counter | `module` | ✓ | |
//! | `batchzk_throughput_tasks_per_ms` | gauge | `module` | ✓ | ✓ |
//! | `batchzk_mean_utilization` | gauge | `module` | ✓ | ✓ |
//! | `batchzk_lifecycle_cycles` | histogram | `module` | ✓ | |
//! | `batchzk_stage_cycles` | histogram | `module`, `stage` | | |
//! | `batchzk_stage_occupancy` | gauge | `module`, `stage` | ✓ | |
//! | `batchzk_pool_devices` | gauge | `module` | | |
//! | `batchzk_pool_makespan_ms` | gauge | `module` | | |
//! | `batchzk_pool_imbalance` | gauge | `module` | | |
//! | `batchzk_oom_total` | counter | `module`, `stage` | | |
//! | `batchzk_device_failures_total` | counter | `module` | | |
//! | `batchzk_kernels_dropped_total` | counter | `module`, `stage` | | |
//! | `batchzk_tasks_replayed_total` | counter | `module` | | |
//! | `batchzk_recovery_replay_rounds` | gauge | `module` | | |
//! | `batchzk_pool_failed_devices` | gauge | `module` | | |
//! | `batchzk_pool_degraded_devices` | gauge | `module` | | |
//! | `batchzk_service_requests_total` | counter | `module`, `class` | | |
//! | `batchzk_service_accepted_total` | counter | `module`, `class` | | |
//! | `batchzk_service_rejected_total` | counter | `module`, `class`, `reason` | | |
//! | `batchzk_service_completed_total` | counter | `module`, `class` | | ✓ |
//! | `batchzk_service_slo_miss_total` | counter | `module`, `class` | | ✓ |
//! | `batchzk_service_latency_cycles` | histogram | `module`, `class` | | ✓ |
//! | `batchzk_service_slo_attainment` | gauge | `module`, `class` | | |
//! | `batchzk_service_latency_p99_cycles` | gauge | `module`, `class` | | |
//! | `batchzk_service_rejection_rate` | gauge | `module` | | |
//! | `batchzk_service_goodput_per_mcycle` | gauge | `module` | | |

use crate::engine::{PipelineError, RunStats, StageStats};
use crate::sched::{self, RecoveryReport};
use crate::service::{meets_slo, PriorityClass, RejectReason, ServiceConfig, ServiceOutcome};
use batchzk_gpu_sim::{CounterTrack, DevicePool};
use batchzk_metrics::{AlertKind, AlertRule, Registry, StageObservation, Timeline};
use RunValue::*;

/// The figure of a run that a run family records.
#[derive(Clone, Copy)]
enum RunValue {
    Runs,
    Tasks,
    H2dBytes,
    D2hBytes,
    Throughput,
    Utilization,
    Lifecycle,
    StageCycles,
    Occupancy,
}

const DEVICE: &str = "device";
const BACKEND: &str = "backend";

/// Every family the recorders write, in the order of the module doc's
/// table, which states each one's kind and labels (tests hold the table to
/// this list and to the recorded exposition): its name, the dimensions
/// that qualify it beside `module`, and for a run family the figure of a
/// run it records. [`record_sample`] reads it to decide which run families
/// a label set carries.
#[rustfmt::skip]
const SCHEMA: [(&str, &[&str], Option<RunValue>); 29] = [
    ("batchzk_runs_total",                 &[BACKEND],         Some(Runs)),
    ("batchzk_tasks_total",                &[DEVICE, BACKEND], Some(Tasks)),
    ("batchzk_h2d_bytes_total",            &[DEVICE],          Some(H2dBytes)),
    ("batchzk_d2h_bytes_total",            &[DEVICE],          Some(D2hBytes)),
    ("batchzk_throughput_tasks_per_ms",    &[DEVICE, BACKEND], Some(Throughput)),
    ("batchzk_mean_utilization",           &[DEVICE, BACKEND], Some(Utilization)),
    ("batchzk_lifecycle_cycles",           &[DEVICE],          Some(Lifecycle)),
    ("batchzk_stage_cycles",               &[],                Some(StageCycles)),
    ("batchzk_stage_occupancy",            &[DEVICE],          Some(Occupancy)),
    ("batchzk_pool_devices",               &[],                None),
    ("batchzk_pool_makespan_ms",           &[],                None),
    ("batchzk_pool_imbalance",             &[],                None),
    ("batchzk_oom_total",                  &[],                None),
    ("batchzk_device_failures_total",      &[],                None),
    ("batchzk_kernels_dropped_total",      &[],                None),
    ("batchzk_tasks_replayed_total",       &[],                None),
    ("batchzk_recovery_replay_rounds",     &[],                None),
    ("batchzk_pool_failed_devices",        &[],                None),
    ("batchzk_pool_degraded_devices",      &[],                None),
    ("batchzk_service_requests_total",     &[],                None),
    ("batchzk_service_accepted_total",     &[],                None),
    ("batchzk_service_rejected_total",     &[],                None),
    ("batchzk_service_completed_total",    &[BACKEND],         None),
    ("batchzk_service_slo_miss_total",     &[BACKEND],         None),
    ("batchzk_service_latency_cycles",     &[BACKEND],         None),
    ("batchzk_service_slo_attainment",     &[],                None),
    ("batchzk_service_latency_p99_cycles", &[],                None),
    ("batchzk_service_rejection_rate",     &[],                None),
    ("batchzk_service_goodput_per_mcycle", &[],                None),
];

/// What one run, or a pool run's devices together, contributes to the run
/// families under one label set.
struct RunSample<'a> {
    tasks: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    throughput_per_ms: f64,
    mean_utilization: f64,
    /// The runs whose task lifecycles fill the histograms.
    runs: &'a [RunStats],
    /// Each stage's occupancy, in stage order.
    occupancy: Vec<(&'a str, f64)>,
}

impl<'a> RunSample<'a> {
    fn of(stats: &'a RunStats) -> Self {
        Self {
            tasks: stats.tasks as u64,
            h2d_bytes: stats.h2d_bytes,
            d2h_bytes: stats.d2h_bytes,
            throughput_per_ms: stats.throughput_per_ms,
            mean_utilization: stats.mean_utilization,
            runs: std::slice::from_ref(stats),
            occupancy: stats
                .stage_stats
                .iter()
                .map(|s| (s.name.as_str(), s.occupancy))
                .collect(),
        }
    }

    /// A pool's `module` series: counts summed over the devices,
    /// throughput against the makespan, utilization and stage occupancy
    /// averaged over the devices that ran work. For a one-device pool
    /// that ran work this is [`RunSample::of`] its one run.
    fn of_pool(devices: &'a [RunStats], makespan_ms: f64) -> Self {
        let tasks: u64 = devices.iter().map(|s| s.tasks as u64).sum();
        let active: Vec<&RunStats> = devices.iter().filter(|s| s.tasks > 0).collect();
        let n = active.len() as f64;
        let occupancy = active.first().map_or(Vec::new(), |first| {
            let stages = first.stage_stats.iter().enumerate();
            stages
                .map(|(i, stage)| {
                    let at = active.iter().filter_map(|s| s.stage_stats.get(i));
                    let mean = at.map(|st| st.occupancy).sum::<f64>() / n;
                    (stage.name.as_str(), mean)
                })
                .collect()
        });
        let utilization = active.iter().map(|s| s.mean_utilization).sum::<f64>();
        let mean_utilization = if n > 0.0 { utilization / n } else { 0.0 };
        Self {
            tasks,
            h2d_bytes: devices.iter().map(|s| s.h2d_bytes).sum(),
            d2h_bytes: devices.iter().map(|s| s.d2h_bytes).sum(),
            throughput_per_ms: sched::throughput_per_ms(tasks as usize, makespan_ms),
            mean_utilization,
            runs: devices,
            occupancy,
        }
    }
}

/// A label name and its value.
type Label<'a> = (&'a str, &'a str);

/// `labels` with `("stage", stage)` appended; `labels` holds at most two
/// pairs, so the set fits on the stack.
fn with_stage<'a>(labels: &[Label<'a>], stage: &'a str) -> ([Label<'a>; 3], usize) {
    let mut out = [("stage", stage); 3];
    out[..labels.len()].copy_from_slice(labels);
    (out, labels.len() + 1)
}

/// The one run recorder: folds `sample` into every run family that
/// [`SCHEMA`] gives the label set `labels` — `module` alone, or `module`
/// and one qualifying dimension.
fn record_sample(registry: &mut Registry, labels: &[Label], sample: &RunSample) {
    let dim = labels.get(1).map(|&(dim, _)| dim);
    let spans = || sample.runs.iter().flat_map(|run| &run.lifecycles);
    for &(name, dims, run) in &SCHEMA {
        let Some(value) = run else { continue };
        if dim.is_some_and(|dim| !dims.contains(&dim)) {
            continue;
        }
        match value {
            Runs => registry.counter_add(name, labels, 1),
            Tasks => registry.counter_add(name, labels, sample.tasks),
            H2dBytes => registry.counter_add(name, labels, sample.h2d_bytes),
            D2hBytes => registry.counter_add(name, labels, sample.d2h_bytes),
            Throughput => registry.gauge_set(name, labels, sample.throughput_per_ms),
            Utilization => registry.gauge_set(name, labels, sample.mean_utilization),
            Lifecycle => {
                for span in spans() {
                    registry.observe(name, labels, span.total_cycles());
                }
            }
            StageCycles => {
                for stage in spans().flat_map(|span| &span.stages) {
                    let (l, n) = with_stage(labels, &stage.stage);
                    registry.observe(name, &l[..n], stage.cycles());
                }
            }
            Occupancy => {
                for &(stage, occupancy) in &sample.occupancy {
                    let (l, n) = with_stage(labels, stage);
                    registry.gauge_set(name, &l[..n], occupancy);
                }
            }
        }
    }
}

/// Folds a completed run's statistics into `registry` under `module`.
///
/// Counters accumulate across runs (a service calls this once per
/// round); gauges reflect the most recent run.
pub fn record_run(registry: &mut Registry, module: &str, stats: &RunStats) {
    record_sample(registry, &[("module", module)], &RunSample::of(stats));
}

/// [`record_run`], plus the run families the schema gives the `backend`
/// dimension, labelled with the prover backend that produced the run.
pub fn record_run_with_backend(
    registry: &mut Registry,
    module: &str,
    backend: &str,
    stats: &RunStats,
) {
    let sample = RunSample::of(stats);
    let b = [("module", module), ("backend", backend)];
    record_sample(registry, &b[..1], &sample);
    record_sample(registry, &b, &sample);
}

/// One pool run as [`run_sharded`](crate::sched::run_sharded) reports it,
/// and the pool it ran on.
pub struct PoolRun<'a> {
    /// Per-device run statistics, in pool order.
    pub device_stats: &'a [RunStats],
    /// Per-device elapsed milliseconds, in pool order.
    pub device_ms: &'a [f64],
    /// The run's makespan. Under fault recovery it is the sum of the
    /// rounds' maxima, which no single device's elapsed time need reach.
    pub makespan_ms: f64,
    /// The fault-recovery account, if a fault fired.
    pub recovery: Option<&'a RecoveryReport>,
    /// The pool after the run, whose health the gauges report.
    pub pool: &'a DevicePool,
}

/// Folds one batch's outcome into `registry` under `module`.
///
/// A finished pool run records the run families under `module` (summed or
/// averaged across devices; a one-device pool that ran work records what
/// [`record_run`] would) and under each `device` (`"0"`, `"1"`, …); the
/// balance gauges `batchzk_pool_devices`, `batchzk_pool_makespan_ms` and
/// `batchzk_pool_imbalance` (makespan over the mean active device time);
/// the recovery account if a fault fired (each absorbed fault, the tasks
/// replayed, the replay rounds); and the pool's health gauges, so
/// dashboards can alert on a shrinking pool even between runs.
///
/// A failed batch — on a pool or on one device — records only its error:
/// an OOM counter per failing stage, a device-failure counter per
/// fail-stop, a dropped-kernel counter per suppressed launch.
pub fn record_pool(
    registry: &mut Registry,
    module: &str,
    outcome: Result<PoolRun<'_>, &PipelineError>,
) {
    let run = match outcome {
        Ok(run) => run,
        Err(error) => return record_error(registry, module, error),
    };
    let m = [("module", module)];
    let pool_sample = RunSample::of_pool(run.device_stats, run.makespan_ms);
    record_sample(registry, &m, &pool_sample);
    for (d, stats) in run.device_stats.iter().enumerate() {
        let device = d.to_string();
        let labels = [("module", module), ("device", device.as_str())];
        record_sample(registry, &labels, &RunSample::of(stats));
    }
    let imbalance = sched::imbalance(run.makespan_ms, run.device_ms);
    registry.gauge_set("batchzk_pool_devices", &m, run.device_stats.len() as f64);
    registry.gauge_set("batchzk_pool_makespan_ms", &m, run.makespan_ms);
    registry.gauge_set("batchzk_pool_imbalance", &m, imbalance);
    if let Some(recovery) = run.recovery {
        for fault in &recovery.faults {
            record_error(registry, module, fault);
        }
        let replayed = recovery.replayed_tasks as u64;
        let rounds = recovery.replay_rounds as f64;
        registry.counter_add("batchzk_tasks_replayed_total", &m, replayed);
        registry.gauge_set("batchzk_recovery_replay_rounds", &m, rounds);
    }
    let failed = run.pool.failed_count() as f64;
    let degraded = run.pool.degraded_count() as f64;
    registry.gauge_set("batchzk_pool_failed_devices", &m, failed);
    registry.gauge_set("batchzk_pool_degraded_devices", &m, degraded);
}

fn record_error(registry: &mut Registry, module: &str, error: &PipelineError) {
    match error {
        PipelineError::OutOfDeviceMemory { stage, .. } => {
            let labels = [("module", module), ("stage", stage.as_str())];
            registry.counter_add("batchzk_oom_total", &labels, 1);
        }
        PipelineError::DeviceFailed { .. } => {
            registry.counter_add("batchzk_device_failures_total", &[("module", module)], 1);
        }
        PipelineError::KernelDropped { stage, .. } => {
            let labels = [("module", module), ("stage", stage.as_str())];
            registry.counter_add("batchzk_kernels_dropped_total", &labels, 1);
        }
    }
}

/// Folds one online service run into `registry` under `module`: per-class
/// admission counters (the conservation law `requests = accepted +
/// rejected` holds per class by construction), a per-class latency
/// histogram over arrival→completion cycles, SLO burn counters/gauges,
/// and service-wide rejection-rate and goodput gauges. The SLO-management
/// runbook in `OPERATIONS.md` is written against these families.
///
/// With `backend_of`, each completion is also counted under the `backend`
/// its finished task names (completions, SLO misses, latency): how a
/// mixed-protocol trace (one pool, several prover backends) stays
/// observable per backend under the shared SLO classes. The per-class
/// series are the same either way.
pub fn record_service<T>(
    registry: &mut Registry,
    module: &str,
    outcome: &ServiceOutcome<T>,
    backend_of: Option<fn(&T) -> &'static str>,
) {
    let m = [("module", module)];
    let mut submitted_all = 0u64;
    let mut rejected_all = 0u64;
    for report in &outcome.reports {
        let class = report.class.name();
        let c = [("module", module), ("class", class)];
        registry.counter_add("batchzk_service_requests_total", &c, report.submitted);
        registry.counter_add("batchzk_service_accepted_total", &c, report.accepted);
        for (reason, rejected) in [
            (RejectReason::QueueFull, report.rejected_queue_full),
            (RejectReason::Saturated, report.rejected_saturated),
        ] {
            let reason = reason.name();
            let r = [("module", module), ("class", class), ("reason", reason)];
            registry.counter_add("batchzk_service_rejected_total", &r, rejected);
        }
        let misses = report.completed - report.within_slo;
        registry.counter_add("batchzk_service_completed_total", &c, report.completed);
        registry.counter_add("batchzk_service_slo_miss_total", &c, misses);
        let (attainment, p99) = (report.slo_attainment(), report.latency_p99_cycles as f64);
        registry.gauge_set("batchzk_service_slo_attainment", &c, attainment);
        registry.gauge_set("batchzk_service_latency_p99_cycles", &c, p99);
        submitted_all += report.submitted;
        rejected_all += report.rejected_queue_full + report.rejected_saturated;
    }
    for completion in &outcome.completions {
        let latency = completion.latency_cycles();
        let c = [("module", module), ("class", completion.class.name())];
        registry.observe("batchzk_service_latency_cycles", &c, latency);
        if let Some(backend_of) = backend_of {
            let backend = backend_of(&completion.task);
            let b = [("module", module), ("backend", backend)];
            registry.counter_add("batchzk_service_completed_total", &b, 1);
            registry.observe("batchzk_service_latency_cycles", &b, latency);
            let slo = outcome.reports[completion.class.index()].slo_cycles;
            if !meets_slo(latency, slo) {
                registry.counter_add("batchzk_service_slo_miss_total", &b, 1);
            }
        }
    }
    let rejection_rate = rejected_all as f64 / submitted_all.max(1) as f64;
    registry.gauge_set("batchzk_service_rejection_rate", &m, rejection_rate);
    let goodput = outcome.goodput_per_mcycle();
    registry.gauge_set("batchzk_service_goodput_per_mcycle", &m, goodput);
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
    use crate::sched::{run_sharded, ShardedRun};
    use crate::service::ServiceCompletion;
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
        let h = reg.histogram("batchzk_lifecycle_cycles", &m);
        let h = h.expect("lifecycle histogram recorded");
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
        record_pool(&mut reg, "merkle", Err(&err));
        let PipelineError::OutOfDeviceMemory { stage, .. } = &err else {
            panic!("expected OOM, got {err:?}");
        };
        let oom = [("module", "merkle"), ("stage", stage.as_str())];
        assert_eq!(reg.counter("batchzk_oom_total", &oom), 1);
        record_pool(&mut reg, "merkle", Err(&err));
        assert_eq!(reg.counter("batchzk_oom_total", &oom), 2);
        // The counter shows up in both exposition formats.
        assert!(reg.to_prometheus().contains("batchzk_oom_total"));
        assert!(reg.to_json().contains("batchzk_oom_total"));
    }

    #[test]
    fn pool_run_records_module_device_and_pool_series() {
        // Two devices run disjoint shards of the same module pipeline.
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 2);
        let shard = |pool: &mut DevicePool, d, count| {
            let gpu = &mut pool.devices_mut()[d];
            merkle::run_pipelined(gpu, trees(count, 16), 512, true).expect("fits")
        };
        let stats = [shard(&mut pool, 0, 4).stats, shard(&mut pool, 1, 2).stats];
        let ms = [pool.device(0).elapsed_ms(), pool.device(1).elapsed_ms()];
        let mut reg = Registry::new();
        let run = PoolRun {
            device_stats: &stats,
            device_ms: &ms,
            makespan_ms: ms[0].max(ms[1]),
            recovery: None,
            pool: &pool,
        };
        record_pool(&mut reg, "merkle", Ok(run));
        let m = [("module", "merkle")];
        // Module-level aggregates.
        assert_eq!(reg.counter("batchzk_runs_total", &m), 1);
        assert_eq!(reg.counter("batchzk_tasks_total", &m), 6);
        let lifecycles = reg.histogram("batchzk_lifecycle_cycles", &m);
        assert_eq!(lifecycles.expect("lifecycle histogram").count(), 6);
        // Per-device dimension.
        for (device, tasks) in [("0", 4), ("1", 2)] {
            let d = [("module", "merkle"), ("device", device)];
            assert_eq!(reg.counter("batchzk_tasks_total", &d), tasks);
        }
        for s in &stats[0].stage_stats {
            let labels = [("module", "merkle"), ("device", "0"), ("stage", &s.name)];
            assert!(reg.gauge("batchzk_stage_occupancy", &labels).is_some());
        }
        // Pool gauges.
        assert_eq!(reg.gauge("batchzk_pool_devices", &m), Some(2.0));
        let makespan = reg.gauge("batchzk_pool_makespan_ms", &m).expect("set");
        assert!((makespan - ms[0].max(ms[1])).abs() < 1e-12);
        let imbalance = reg.gauge("batchzk_pool_imbalance", &m).expect("set");
        assert!(imbalance >= 1.0, "{imbalance}");
        // A fault-free run records no recovery, and a healthy pool's
        // health gauges read zero.
        assert_eq!(reg.gauge("batchzk_recovery_replay_rounds", &m), None);
        assert_eq!(reg.gauge("batchzk_pool_failed_devices", &m), Some(0.0));
    }

    /// DESIGN.md §9's claim: a one-device pool records the same `module`
    /// series as [`record_run`] of its one run.
    #[test]
    fn one_device_pool_records_the_module_series_of_record_run() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 1);
        let sharded =
            run_sharded(&mut pool, (0..6).collect(), |_| 64, or_stages, true).expect("fits");
        let mut single = Registry::new();
        record_run(&mut single, "or", &sharded.device_stats[0]);
        let mut pooled = Registry::new();
        record_pool(&mut pooled, "or", Ok(pool_run(&sharded, &pool)));
        let (pooled, single) = (pooled.to_prometheus(), single.to_prometheus());
        assert!(single.lines().count() > 20, "{single}");
        let missing = single.lines().filter(|l| !pooled.lines().any(|p| p == *l));
        assert_eq!(missing.collect::<Vec<_>>(), Vec::<&str>::new());
    }

    #[test]
    fn recovery_and_health_metrics_record_fault_families() {
        use batchzk_gpu_sim::FaultPlan;
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
        // Health gauges reflect the pool's current state.
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 3);
        pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, 0).degraded_clock(2, 0, 200));
        for gpu in pool.devices_mut() {
            gpu.poll_faults();
        }
        let run = PoolRun {
            device_stats: &[],
            device_ms: &[],
            makespan_ms: 0.0,
            recovery: Some(&report),
            pool: &pool,
        };
        record_pool(&mut reg, "system", Ok(run));
        let m = [("module", "system")];
        assert_eq!(reg.counter("batchzk_device_failures_total", &m), 1);
        let stage = [("module", "system"), ("stage", "merkle-layer")];
        assert_eq!(reg.counter("batchzk_kernels_dropped_total", &stage), 1);
        assert_eq!(reg.counter("batchzk_tasks_replayed_total", &m), 7);
        assert_eq!(reg.gauge("batchzk_recovery_replay_rounds", &m), Some(2.0));
        assert_eq!(reg.gauge("batchzk_pool_failed_devices", &m), Some(1.0));
        assert_eq!(reg.gauge("batchzk_pool_degraded_devices", &m), Some(1.0));
        assert!(reg
            .to_prometheus()
            .contains("batchzk_device_failures_total"));
    }

    #[test]
    fn service_metrics_record_slo_families() {
        let outcome = service_outcome();
        assert!(!outcome.rejected.is_empty(), "burst should shed load");
        let mut reg = Registry::new();
        record_service(&mut reg, "service", &outcome, None);
        let mut requests_total = 0;
        let mut accepted_total = 0;
        let mut rejected_total = 0;
        for class in PriorityClass::ALL {
            let c = [("module", "service"), ("class", class.name())];
            requests_total += reg.counter("batchzk_service_requests_total", &c);
            accepted_total += reg.counter("batchzk_service_accepted_total", &c);
            for reason in ["queue-full", "saturated"] {
                let labels = [
                    ("module", "service"),
                    ("class", class.name()),
                    ("reason", reason),
                ];
                rejected_total += reg.counter("batchzk_service_rejected_total", &labels);
            }
            assert!(reg.gauge("batchzk_service_slo_attainment", &c).is_some());
            assert_eq!(
                reg.counter("batchzk_service_completed_total", &c),
                outcome.reports[class.index()].completed
            );
        }
        assert_eq!(requests_total, 24);
        assert_eq!(requests_total, accepted_total + rejected_total);
        let interactive = [("module", "service"), ("class", "interactive")];
        let h = reg.histogram("batchzk_service_latency_cycles", &interactive);
        assert!(h.expect("latency histogram recorded").count() > 0);
        let rejection_rate = reg.gauge("batchzk_service_rejection_rate", &[("module", "service")]);
        assert!(rejection_rate.expect("rejection rate gauge") > 0.0);
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
        let rejection: Vec<_> = log
            .events
            .iter()
            .filter(|e| e.rule == "rejection-rate")
            .collect();
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
        let text = labelled.to_prometheus();
        let unlabelled = text.lines().filter(|l| !l.contains("backend=\""));
        assert!(unlabelled.eq(plain.to_prometheus().lines()));
        // ...and adds the backend-qualified dimension on top.
        let b = [("module", "merkle"), ("backend", "sumcheck")];
        assert_eq!(labelled.counter("batchzk_runs_total", &b), 1);
        assert_eq!(labelled.counter("batchzk_tasks_total", &b), 6);
        let throughput = labelled.gauge("batchzk_throughput_tasks_per_ms", &b);
        assert_eq!(throughput, Some(run.stats.throughput_per_ms));
        assert_eq!(plain.counter("batchzk_runs_total", &b), 0);
    }

    #[test]
    fn service_backend_families_classify_completions() {
        let outcome = service_outcome();
        let total_completed = outcome.completions.len() as u64;
        let mut reg = Registry::new();
        record_service(&mut reg, "service", &outcome, Some(backend_of));
        let sc = [("module", "service"), ("backend", "sumcheck")];
        let gr = [("module", "service"), ("backend", "groth16")];
        let counter = |name, labels: &[(&str, &str)]| reg.counter(name, labels);
        // Per-backend completions partition the total.
        let completed = "batchzk_service_completed_total";
        assert_eq!(
            counter(completed, &sc) + counter(completed, &gr),
            total_completed
        );
        let is_sumcheck = |c: &&ServiceCompletion<u64>| backend_of(&c.task) == "sumcheck";
        let expect_sc = outcome.completions.iter().filter(is_sumcheck).count() as u64;
        assert_eq!(counter(completed, &sc), expect_sc);
        // Per-backend SLO misses partition the per-class miss totals, and
        // completions of both backends miss.
        let misses: u64 = outcome
            .reports
            .iter()
            .map(|r| r.completed - r.within_slo)
            .sum();
        let (sc_misses, gr_misses) = (
            counter("batchzk_service_slo_miss_total", &sc),
            counter("batchzk_service_slo_miss_total", &gr),
        );
        assert_eq!(sc_misses + gr_misses, misses);
        assert!(sc_misses > 0 && gr_misses > 0 && misses < total_completed);
        let h = reg.histogram("batchzk_service_latency_cycles", &sc);
        assert_eq!(h.expect("recorded").count(), expect_sc);
        // The backend series add to the per-class ones and leave them as
        // they are.
        let mut plain = Registry::new();
        record_service(&mut plain, "service", &outcome, None);
        let labelled = reg.to_prometheus();
        let unlabelled = labelled.lines().filter(|l| !l.contains("backend=\""));
        assert!(unlabelled.eq(plain.to_prometheus().lines()));
    }

    /// Replay-safe stage with transfers both ways: OR-ing a bit is
    /// idempotent, so a task salvaged by a fault converges on replay.
    struct OrStage(u64);

    impl crate::PipeStage<u64> for OrStage {
        fn name(&self) -> String {
            format!("or-{:x}", self.0)
        }
        fn threads(&self) -> u32 {
            32
        }
        fn process(&self, task: &mut u64) -> crate::StageWork {
            *task |= self.0;
            crate::StageWork {
                work: batchzk_gpu_sim::Work::Uniform {
                    units: 32,
                    cycles_per_unit: 50,
                },
                h2d_bytes: 64,
                d2h_bytes: 32,
                mem_after: 64,
            }
        }
    }

    fn or_stages(_: &Gpu) -> Vec<crate::BoxedStage<u64>> {
        vec![Box::new(OrStage(0x100)), Box::new(OrStage(0x200))]
    }

    /// A burst of eight requests, then one every 1 500 cycles, through one
    /// device: load is shed, and some completions miss their SLO.
    fn service_outcome() -> ServiceOutcome<u64> {
        use crate::service::{run_service, ClassPolicy, ServiceRequest};
        let config = ServiceConfig {
            classes: [ClassPolicy {
                queue_cap: 2,
                slo_cycles: 5_000,
            }; 3],
            max_outstanding: 4,
            device_queue_cap: 1,
            max_in_flight: 0,
            timeline_window_cycles: 0,
        };
        let requests: Vec<ServiceRequest<u64>> = (0..24u64)
            .map(|i| ServiceRequest {
                class: PriorityClass::ALL[(i % 3) as usize],
                arrival_cycle: if i < 8 { 0 } else { 1_500 * i },
                task: i,
            })
            .collect();
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 1);
        run_service(&mut pool, &config, requests, or_stages, true).unwrap()
    }

    /// Even tasks stand for one backend, odd ones for another.
    fn backend_of(task: &u64) -> &'static str {
        if task.is_multiple_of(2) {
            "sumcheck"
        } else {
            "groth16"
        }
    }

    fn pool_run<'a>(sharded: &'a ShardedRun<u64>, pool: &'a DevicePool) -> PoolRun<'a> {
        PoolRun {
            device_stats: &sharded.device_stats,
            device_ms: &sharded.device_ms,
            makespan_ms: sharded.makespan_ms,
            recovery: sharded.recovery.as_ref(),
            pool,
        }
    }

    /// One deterministic scenario that reaches every metric family: a
    /// plain and a backend-labelled single-device run, a two-device pool
    /// run through a fail-stop, a dropped kernel and a degraded clock, one
    /// error of each kind, and a service outcome with its backend pass.
    fn exposition_scenario() -> Registry {
        use batchzk_gpu_sim::FaultPlan;
        let mut reg = Registry::new();
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = merkle::run_pipelined(&mut gpu, trees(6, 16), 512, true).expect("fits");
        record_run(&mut reg, "merkle", &run.stats);
        record_run_with_backend(&mut reg, "backends-merkle", "sumcheck", &run.stats);

        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let faults = FaultPlan::new().fail_stop(1, 1).drop_kernel(0, 0, 2);
        pool.apply_fault_plan(&faults.degraded_clock(0, 0, 200));
        let sharded = run_sharded(&mut pool, (0..16).collect(), |_| 64, or_stages, true)
            .expect("device 0 survives");
        let recovery = sharded.recovery.as_ref().expect("both faults fired");
        assert_eq!(
            (&recovery.failed_devices[..], recovery.dropped_kernels),
            (&[1][..], 1)
        );
        record_pool(&mut reg, "pool", Ok(pool_run(&sharded, &pool)));

        for error in [
            PipelineError::OutOfDeviceMemory {
                stage: "merkle-leaves".into(),
                requested_bytes: 4096,
                in_use_bytes: 0,
                capacity_bytes: 100,
            },
            PipelineError::DeviceFailed {
                at_cycle: 7,
                salvaged: 2,
            },
            PipelineError::KernelDropped {
                stage: "or-2".into(),
                at_cycle: 9,
                salvaged: 1,
            },
        ] {
            record_pool(&mut reg, "errors", Err(&error));
        }
        record_service(&mut reg, "service", &service_outcome(), Some(backend_of));
        reg
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known answer for both exposition formats of the scenario above:
    /// the metric schema's bytes, pinned against refactors of the
    /// recorders.
    #[test]
    fn exposition_known_answer() {
        let reg = exposition_scenario();
        let text = reg.to_prometheus();
        for line in MODULE_DOC
            .lines()
            .filter(|l| l.starts_with("//! | `batchzk_"))
        {
            for family in line.split('`').filter(|s| s.starts_with("batchzk_")) {
                assert!(text.contains(family), "{family} not reached");
            }
        }
        assert_eq!(
            hex(&batchzk_hash::sha256(text.as_bytes())),
            "f45019613570ab129ca73a0ecdbaafaea8348660f493ade96420e452753ba842"
        );
        assert_eq!(
            hex(&batchzk_hash::sha256(reg.to_json().as_bytes())),
            "2df1663e355c27147d9761ff5708cfd5f557edeac7e3bfb6dd9528cb5c11ce73"
        );
    }

    const MODULE_DOC: &str = include_str!("observe.rs");

    /// One row of the module doc's table: name, kind, labels, and the
    /// dimensions ticked.
    struct DocRow {
        name: &'static str,
        kind: &'static str,
        labels: Vec<&'static str>,
        dims: Vec<&'static str>,
    }

    fn doc_table() -> Vec<DocRow> {
        let rows = MODULE_DOC
            .lines()
            .filter(|l| l.starts_with("//! | `batchzk_"));
        rows.map(|row| {
            let cells: Vec<&str> = row[3..].split('|').map(str::trim).collect();
            let ticked = [(DEVICE, cells[4]), (BACKEND, cells[5])].into_iter();
            DocRow {
                name: cells[1].trim_matches('`'),
                kind: cells[2],
                labels: cells[3].split(", ").map(|l| l.trim_matches('`')).collect(),
                dims: ticked.filter(|(_, c)| *c == "✓").map(|(d, _)| d).collect(),
            }
        })
        .collect()
    }

    #[test]
    fn module_doc_table_mirrors_the_schema() {
        let rows: Vec<_> = doc_table().into_iter().map(|r| (r.name, r.dims)).collect();
        let schema: Vec<_> = SCHEMA
            .iter()
            .map(|&(name, dims, _)| (name, dims.to_vec()))
            .collect();
        assert_eq!(rows, schema);
    }

    /// Every `batchzk_*` word in `text` but crate paths (`batchzk_metrics::…`).
    fn family_names(text: &str) -> Vec<&str> {
        let words = text.split(|c: char| !(c.is_ascii_alphanumeric() || "_:".contains(c)));
        let names = words.filter(|w| w.starts_with("batchzk_") && !w.contains("::"));
        names.map(|w| w.trim_end_matches(':')).collect()
    }

    /// The runbooks and the recorders name only families the schema
    /// declares, so neither can drift to a metric that does not exist.
    #[test]
    fn runbooks_and_recorders_name_only_schema_families() {
        let operations = include_str!("../../../OPERATIONS.md");
        let (recorders, _) = MODULE_DOC.split_once("#[cfg(test)]").expect("tests follow");
        let named = family_names(operations);
        assert!(named.len() > 10, "{named:?}");
        for name in named.into_iter().chain(family_names(recorders)) {
            let declared = SCHEMA.iter().any(|f| f.0 == name);
            assert!(declared, "{name} is not in SCHEMA");
        }
    }

    /// Every series the scenario records has the kind and a label set the
    /// doc table states, and every stated label set is recorded: `module`
    /// plus the family's labels, and per ticked dimension `module`, the
    /// dimension and the family's labels but `class`.
    #[test]
    fn exposition_matches_the_doc_table() {
        use std::collections::BTreeSet;
        let table = doc_table();
        let row = |name: &str| {
            let of = |r: &&DocRow| match name.strip_prefix(r.name) {
                Some(rest) if r.kind == "histogram" => {
                    ["", "_bucket", "_sum", "_count"].contains(&rest)
                }
                rest => rest == Some(""),
            };
            let row = table.iter().find(of);
            row.unwrap_or_else(|| panic!("{name} is not in the table"))
        };
        let text = exposition_scenario().to_prometheus();
        let mut recorded = BTreeSet::new();
        for line in text.lines() {
            if let Some(typed) = line.strip_prefix("# TYPE ") {
                let (name, kind) = typed.split_once(' ').expect("name and kind");
                assert_eq!(row(name).kind, kind, "{name}");
                continue;
            }
            let (series, _) = line.rsplit_once(' ').expect("series and value");
            let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
            let pairs = labels.trim_end_matches('}').split(',');
            let keys = pairs.filter_map(|pair| pair.split_once('=').map(|(key, _)| key));
            let keys: BTreeSet<&str> = keys.filter(|&k| k != "le").collect();
            recorded.insert((row(name).name, keys));
        }
        let mut stated = BTreeSet::new();
        for r in &table {
            stated.insert((r.name, r.labels.iter().copied().collect()));
            for &dim in &r.dims {
                let qualified = r.labels.iter().copied().filter(|&l| l != "class");
                stated.insert((r.name, qualified.chain([dim]).collect()));
            }
        }
        assert_eq!(recorded, stated);
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
