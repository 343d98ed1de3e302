//! The online proving service front: continuous ingestion with priority
//! classes, per-class latency SLOs, and admission control (DESIGN.md §13).
//!
//! Every earlier entry point is batch-at-a-time: tasks are all submitted,
//! then the pipeline drains. [`run_service`] instead replays an *open-loop
//! arrival trace* (expanded from a [`batchzk_gpu_sim::ArrivalPlan`]) in
//! virtual device time: requests arrive at scripted cycles, pass admission
//! control into bounded per-class queues, and are dispatched to per-device
//! [`PipelineExecutor`]s whose `submit` is interleaved with `step` — the
//! pipeline keeps running while new work lands behind it.
//!
//! The whole loop is a serial discrete-event simulation ordered by integer
//! device clocks (earliest event first, device index breaking ties), so a
//! service run is bit-deterministic at any host thread count; host threads
//! only parallelize the per-slot fan-out *inside* each step, which is
//! already byte-stable.
//!
//! The loop also feeds the **flight recorder**: every admission decision,
//! queue-depth/in-flight sample, device busy interval, and completion is
//! recorded into a windowed [`batchzk_metrics::Timeline`] carried on
//! [`ServiceOutcome::timeline`], giving operators the time-resolved view
//! (and the [`batchzk_metrics::alerts`] input) the end-of-run
//! [`ClassReport`]s cannot.
//!
//! ```text
//!  arrivals ──▶ admission ──▶ class queues ──▶ dispatch ──▶ executors
//!  (virtual      (reject:      (bounded,        (strict      (submit ∥ step)
//!   cycles)       QueueFull/    per class)       priority,        │
//!                 Saturated)                     least-           ▼
//!                                                outstanding)  harvest
//! ```

use std::collections::VecDeque;
use std::fmt;

use batchzk_gpu_sim::{DevicePool, Gpu};
use batchzk_metrics::{nearest_rank, Timeline, TimelineConfig};

use crate::engine::{BoxedStage, PipelineError, PipelineExecutor, RunStats};

/// Retention bound of the service flight recorder: when a replay needs
/// more windows than this, the [`Timeline`] downsamples 2:1 (window width
/// doubles). 64 windows keep the BENCH.json `timeline` section readable
/// while covering the committed reference replay without a merge pass.
pub const TIMELINE_MAX_WINDOWS: usize = 64;

/// Largest `arrival_cycle` [`run_service`] accepts. Device clocks and the
/// flight recorder's window bounds are `u64` sums of an arrival cycle and
/// the run's own cycles (at most a few recorded spans past the last
/// arrival), so capping arrivals at 2^62 leaves three quarters of the
/// range as headroom and no addition in the event loop can overflow.
pub const MAX_ARRIVAL_CYCLE: u64 = 1 << 62;

/// Priority class of a service request. Classes are a strict dispatch
/// order: every queued `Interactive` request is dispatched before any
/// `Standard` one, and `Standard` before `Bulk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Latency-sensitive requests (tight SLO, small queue).
    Interactive,
    /// The default class.
    Standard,
    /// Throughput traffic that tolerates queueing (loose SLO, deep queue).
    Bulk,
}

impl PriorityClass {
    /// Every class, in dispatch-priority order.
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Interactive,
        PriorityClass::Standard,
        PriorityClass::Bulk,
    ];

    /// Kebab-case name, stable for CLI flags, trace specs, and metric
    /// labels.
    pub fn name(&self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Bulk => "bulk",
        }
    }

    /// Dense index (`0..3`), the position in [`Self::ALL`].
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Parses a [`name`](Self::name) back to the class.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(s: &str) -> Result<PriorityClass, String> {
        Self::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| {
                format!("unknown priority class `{s}` (expected interactive, standard, or bulk)")
            })
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class admission policy and latency objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassPolicy {
    /// Bound on the class's service-side queue (requests admitted but not
    /// yet handed to an executor). Must be ≥ 1.
    pub queue_cap: usize,
    /// Latency SLO in device cycles, measured arrival → proof emitted.
    /// Must be ≥ 1.
    pub slo_cycles: u64,
}

/// Admission, queueing, and SLO configuration for one service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Per-class policies, indexed by [`PriorityClass::index`].
    pub classes: [ClassPolicy; 3],
    /// Global bound on outstanding work (class queues plus every
    /// executor's pending and in-flight tasks). Admission rejects with
    /// [`RejectReason::Saturated`] at this bound. Must be ≥ 1.
    pub max_outstanding: usize,
    /// Bound of each per-device executor submit queue. Must be ≥ 1.
    pub device_queue_cap: usize,
    /// Per-device in-flight cap (the memory-aware admission lever);
    /// `0` means the full pipeline depth.
    pub max_in_flight: usize,
    /// Width of one flight-recorder window in device cycles; `0` derives
    /// a quarter of the tightest class SLO, so the recorder resolves an
    /// SLO burn into at least four windows.
    pub timeline_window_cycles: u64,
}

impl ServiceConfig {
    /// The flight-recorder window width this config resolves to:
    /// [`Self::timeline_window_cycles`] when set, else a quarter of the
    /// tightest class SLO (at least 1 cycle).
    fn resolved_timeline_window(&self) -> u64 {
        if self.timeline_window_cycles > 0 {
            self.timeline_window_cycles
        } else {
            let min_slo = self.classes.iter().map(|c| c.slo_cycles).min().unwrap_or(1);
            (min_slo / 4).max(1)
        }
    }

    /// Checks every capacity and SLO is non-zero.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the zero field — callers
    /// surface this instead of panicking on zero-capacity inputs.
    fn validate(&self) -> Result<(), String> {
        for (class, policy) in PriorityClass::ALL.iter().zip(&self.classes) {
            if policy.queue_cap == 0 {
                return Err(format!("class `{class}` has zero queue capacity"));
            }
            if policy.slo_cycles == 0 {
                return Err(format!("class `{class}` has a zero-cycle SLO"));
            }
        }
        if self.max_outstanding == 0 {
            return Err("max_outstanding must be ≥ 1".into());
        }
        if self.device_queue_cap == 0 {
            return Err("device_queue_cap must be ≥ 1".into());
        }
        Ok(())
    }
}

/// Why admission control turned a request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The request's class queue is at its [`ClassPolicy::queue_cap`].
    QueueFull,
    /// The service-wide outstanding bound
    /// ([`ServiceConfig::max_outstanding`]) is hit — the device pool is
    /// saturated.
    Saturated,
}

impl RejectReason {
    /// Kebab-case name, stable for metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::Saturated => "saturated",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A service run failure.
#[derive(Debug)]
pub enum ServiceError {
    /// The configuration or request stream is invalid (zero capacity,
    /// empty pool, heterogeneous clocks, unknown class label, ...).
    InvalidInput(String),
    /// A device-side failure propagated from an executor step.
    Pipeline(PipelineError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidInput(msg) => write!(f, "invalid service input: {msg}"),
            ServiceError::Pipeline(e) => write!(f, "service pipeline failure: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PipelineError> for ServiceError {
    fn from(e: PipelineError) -> Self {
        ServiceError::Pipeline(e)
    }
}

/// One request entering the service front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest<T> {
    /// Priority class.
    pub class: PriorityClass,
    /// Virtual device-clock cycle the request arrives at.
    pub arrival_cycle: u64,
    /// The proving task.
    pub task: T,
}

/// A request admission control turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedRequest {
    /// Index of the request in the submitted stream (arrival order).
    pub request: usize,
    /// Priority class.
    pub class: PriorityClass,
    /// Arrival cycle.
    pub arrival_cycle: u64,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// A request that completed the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceCompletion<T> {
    /// Index of the request in the submitted stream (arrival order).
    pub request: usize,
    /// Priority class.
    pub class: PriorityClass,
    /// Arrival cycle.
    pub arrival_cycle: u64,
    /// Device that proved the request.
    pub device: usize,
    /// Cycle the finished proof was emitted.
    pub completed_cycle: u64,
    /// The finished task.
    pub task: T,
}

impl<T> ServiceCompletion<T> {
    /// End-to-end latency in cycles: arrival → proof emitted, including
    /// queueing delay ahead of admission into the pipeline.
    pub fn latency_cycles(&self) -> u64 {
        self.completed_cycle.saturating_sub(self.arrival_cycle)
    }
}

/// Whether a completion `latency_cycles` long met an SLO of `slo_cycles`:
/// the one rule the class reports, the flight recorder and the metrics
/// share.
pub(crate) fn meets_slo(latency_cycles: u64, slo_cycles: u64) -> bool {
    latency_cycles <= slo_cycles
}

/// Per-class accounting for one service run. Conservation law:
/// `submitted == accepted + rejected_queue_full + rejected_saturated`,
/// and (absent faults) `completed == accepted`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class.
    pub class: PriorityClass,
    /// The SLO the latency quantiles are judged against, in cycles.
    pub slo_cycles: u64,
    /// Requests that arrived.
    pub submitted: u64,
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Rejections because the class queue was full.
    pub rejected_queue_full: u64,
    /// Rejections because the service hit its outstanding bound.
    pub rejected_saturated: u64,
    /// Requests whose proof was emitted.
    pub completed: u64,
    /// Completions with latency ≤ SLO.
    pub within_slo: u64,
    /// Nearest-rank p50 of arrival→completion latency, cycles (0 if none).
    pub latency_p50_cycles: u64,
    /// Nearest-rank p95.
    pub latency_p95_cycles: u64,
    /// Nearest-rank p99.
    pub latency_p99_cycles: u64,
    /// Maximum latency.
    pub latency_max_cycles: u64,
}

impl ClassReport {
    /// Rejected requests (both reasons) over submitted; 0 when idle.
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.rejected_queue_full + self.rejected_saturated) as f64 / self.submitted as f64
        }
    }

    /// Completions within SLO over completions; 1 when nothing completed.
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.within_slo as f64 / self.completed as f64
        }
    }
}

/// Result of one [`run_service`] replay.
#[derive(Debug)]
pub struct ServiceOutcome<T> {
    /// Completed requests, sorted by (completion cycle, request index).
    pub completions: Vec<ServiceCompletion<T>>,
    /// Rejected requests, in arrival order.
    pub rejected: Vec<RejectedRequest>,
    /// Per-class accounting, indexed like [`PriorityClass::ALL`].
    pub reports: [ClassReport; 3],
    /// Per-device pipeline statistics, one per pool device.
    pub device_stats: Vec<RunStats>,
    /// Cycle of the first arrival (0 when the trace is empty).
    pub first_arrival_cycle: u64,
    /// Cycle of the last completion (0 when nothing completed).
    pub last_completion_cycle: u64,
    /// The flight recorder: windowed per-class admission/completion
    /// counters, queue-depth peaks, per-device busy cycles and in-flight
    /// peaks, and per-window p99 lifecycle latency, sampled from inside
    /// the event loop (window width
    /// [`ServiceConfig::timeline_window_cycles`], or a quarter of the
    /// tightest class SLO when that is 0; retention bound
    /// [`TIMELINE_MAX_WINDOWS`]). Feed it to [`batchzk_metrics::evaluate`]
    /// for the alerting pass.
    pub timeline: Timeline,
}

impl<T> ServiceOutcome<T> {
    /// The served interval in cycles: first arrival → last completion.
    pub fn span_cycles(&self) -> u64 {
        self.last_completion_cycle
            .saturating_sub(self.first_arrival_cycle)
    }

    /// Completions within their class SLO over the served interval, per
    /// million cycles — the cycle-domain goodput the bench layer converts
    /// to proofs/s with the device profile.
    pub fn goodput_per_mcycle(&self) -> f64 {
        let within: u64 = self.reports.iter().map(|r| r.within_slo).sum();
        let span = self.span_cycles();
        if span == 0 {
            0.0
        } else {
            within as f64 * 1.0e6 / span as f64
        }
    }
}

/// Strict-priority dispatch at event time `now`: drains the class queues
/// (interactive first) into the least-outstanding executor with submit
/// room, lowest device index breaking ties. Idle executors fast-forward
/// to the dispatch cycle so admission happens in coherent virtual time.
fn dispatch<T: Send>(
    execs: &mut [PipelineExecutor<'_, T>],
    queues: &mut [VecDeque<(usize, u64, T)>; 3],
    meta: &mut [Vec<(usize, PriorityClass, u64)>],
    now: u64,
) {
    for class in PriorityClass::ALL {
        let queue = &mut queues[class.index()];
        while !queue.is_empty() {
            let target = execs
                .iter()
                .enumerate()
                .filter(|(_, e)| e.pending_len() < e.queue_capacity())
                .min_by_key(|&(d, e)| (e.outstanding(), d))
                .map(|(d, _)| d);
            let Some(d) = target else { return };
            let (req, arrival, task) = queue.pop_front().expect("checked non-empty");
            execs[d].idle_until(now.max(arrival));
            match execs[d].submit(task) {
                Ok(()) => meta[d].push((req, class, arrival)),
                Err(task) => {
                    // Room was checked above; keep the request rather than
                    // panic if an executor disagrees.
                    queue.push_front((req, arrival, task));
                    return;
                }
            }
        }
    }
}

/// Samples the instantaneous class-queue depths and per-device in-flight
/// counts into the flight recorder at event time `now`.
fn sample_timeline<T: Send>(
    timeline: &mut Timeline,
    now: u64,
    queues: &[VecDeque<(usize, u64, T)>; 3],
    execs: &[PipelineExecutor<'_, T>],
) {
    for (ci, queue) in queues.iter().enumerate() {
        timeline.sample_queue_depth(now, ci, queue.len() as u64);
    }
    for (d, exec) in execs.iter().enumerate() {
        timeline.sample_in_flight(now, d, exec.in_flight() as u64);
    }
}

/// Replays an open-loop request stream against a pool of per-device
/// pipeline executors, interleaving `submit` with `step` under admission
/// control, and reports per-class SLO accounting.
///
/// `requests` is the arrival stream; it is stably sorted by arrival cycle
/// internally, and each request's index in the *submitted order* (after
/// the sort) is its identity in the outcome. `stages` builds one stage set
/// per device, exactly as in [`crate::sched::run_sharded`].
///
/// Dispatch is strict priority (interactive, standard, bulk) to the
/// executor with the least outstanding work that has queue room, lowest
/// device index breaking ties. The virtual clock of each device is the
/// event order; idle devices fast-forward to the dispatch cycle so
/// latencies are measured in one coherent time base.
///
/// # Errors
///
/// [`ServiceError::InvalidInput`] when a capacity or SLO of the config is
/// zero, the pool is empty, the pool mixes device
/// clock rates (the virtual time base would be incoherent), or a request
/// arrives after [`MAX_ARRIVAL_CYCLE`].
/// [`ServiceError::Pipeline`] propagates the first device-side failure;
/// scripted fault plans are not absorbed here (see OPERATIONS.md — run
/// degraded experiments through `run_sharded` instead).
pub fn run_service<T: Send>(
    pool: &mut DevicePool,
    config: &ServiceConfig,
    requests: Vec<ServiceRequest<T>>,
    stages: impl Fn(&Gpu) -> Vec<BoxedStage<T>>,
    multi_stream: bool,
) -> Result<ServiceOutcome<T>, ServiceError> {
    config.validate().map_err(ServiceError::InvalidInput)?;
    if pool.is_empty() {
        return Err(ServiceError::InvalidInput("empty device pool".into()));
    }
    let clock0 = pool.device(0).profile().clock_ghz;
    if pool
        .devices()
        .iter()
        .any(|g| g.profile().clock_ghz.to_bits() != clock0.to_bits())
    {
        return Err(ServiceError::InvalidInput(
            "service time base requires a homogeneous pool (mixed clock rates)".into(),
        ));
    }

    if let Some(r) = requests
        .iter()
        .find(|r| r.arrival_cycle > MAX_ARRIVAL_CYCLE)
    {
        return Err(ServiceError::InvalidInput(format!(
            "arrival cycle {} exceeds the supported maximum {MAX_ARRIVAL_CYCLE}",
            r.arrival_cycle
        )));
    }

    // Stable sort: ties keep submission order, which defines request ids.
    let mut requests = requests;
    requests.sort_by_key(|r| r.arrival_cycle);
    let first_arrival_cycle = requests.first().map_or(0, |r| r.arrival_cycle);
    let total_requests = requests.len();

    // The serial event loop leaves the whole host-thread budget to the
    // per-slot fan-out inside each step.
    let host_threads = batchzk_par::current_threads();
    let mut execs: Vec<PipelineExecutor<'_, T>> = pool
        .devices_mut()
        .iter_mut()
        .map(|gpu| {
            let device_stages = stages(&*gpu);
            let mut exec = PipelineExecutor::new(gpu, device_stages, multi_stream);
            exec.set_host_threads(host_threads);
            exec.set_queue_capacity(config.device_queue_cap);
            if config.max_in_flight > 0 {
                exec.set_max_in_flight(config.max_in_flight);
            }
            exec
        })
        .collect();

    let mut queues: [VecDeque<(usize, u64, T)>; 3] = Default::default();
    let mut meta: Vec<Vec<(usize, PriorityClass, u64)>> = vec![Vec::new(); execs.len()];
    // The flight recorder rides the serial event loop: admission decisions
    // and queue/in-flight samples land in virtual-cycle windows as they
    // happen, so the recording is as deterministic as the loop itself.
    let mut timeline = Timeline::new(TimelineConfig {
        window_cycles: config.resolved_timeline_window(),
        max_windows: TIMELINE_MAX_WINDOWS,
        class_names: PriorityClass::ALL
            .iter()
            .map(|c| c.name().to_string())
            .collect(),
        devices: execs.len(),
    });
    let mut submitted = [0u64; 3];
    let mut accepted = [0u64; 3];
    let mut rejected_qf = [0u64; 3];
    let mut rejected_sat = [0u64; 3];
    let mut rejected = Vec::new();

    let mut stream = requests.into_iter().enumerate().peekable();
    loop {
        let busy = execs
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_idle())
            .map(|(d, e)| (e.clock_cycles(), d))
            .min();
        let next_arrival = stream.peek().map(|(_, r)| r.arrival_cycle);
        let arrival_due = match (next_arrival, busy) {
            (Some(t), Some((busy_cycle, _))) => t <= busy_cycle,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if arrival_due {
            let now = next_arrival.expect("arrival_due implies a next arrival");
            // Deliver every arrival stamped with this cycle, then dispatch.
            while stream.peek().is_some_and(|(_, r)| r.arrival_cycle == now) {
                let (idx, r) = stream.next().expect("peeked");
                let ci = r.class.index();
                submitted[ci] += 1;
                let outstanding: usize = queues.iter().map(VecDeque::len).sum::<usize>()
                    + execs.iter().map(|e| e.outstanding()).sum::<usize>();
                if queues[ci].len() >= config.classes[ci].queue_cap {
                    rejected_qf[ci] += 1;
                    timeline.record_reject_queue_full(now, ci);
                    rejected.push(RejectedRequest {
                        request: idx,
                        class: r.class,
                        arrival_cycle: r.arrival_cycle,
                        reason: RejectReason::QueueFull,
                    });
                } else if outstanding >= config.max_outstanding {
                    rejected_sat[ci] += 1;
                    timeline.record_reject_saturated(now, ci);
                    rejected.push(RejectedRequest {
                        request: idx,
                        class: r.class,
                        arrival_cycle: r.arrival_cycle,
                        reason: RejectReason::Saturated,
                    });
                } else {
                    accepted[ci] += 1;
                    timeline.record_accept(now, ci);
                    queues[ci].push_back((idx, r.arrival_cycle, r.task));
                }
            }
            // Sample backlog before dispatch drains it (the peak the
            // queue-growth alert watches), then again after, together with
            // per-device in-flight.
            sample_timeline(&mut timeline, now, &queues, &execs);
            dispatch(&mut execs[..], &mut queues, &mut meta, now);
            sample_timeline(&mut timeline, now, &queues, &execs);
        } else if let Some((busy_cycle, d)) = busy {
            // Step the earliest busy device; its post-step clock is the
            // event time capacity freed at.
            execs[d].step()?;
            let now = execs[d].clock_cycles();
            timeline.record_busy(d, busy_cycle, now);
            dispatch(&mut execs[..], &mut queues, &mut meta, now);
            sample_timeline(&mut timeline, now, &queues, &execs);
        } else {
            break;
        }
    }
    debug_assert!(queues.iter().all(VecDeque::is_empty));

    // Harvest every executor and map outputs back to their requests via
    // the per-epoch span index (== per-device admission order).
    let mut completions: Vec<ServiceCompletion<T>> = Vec::new();
    let mut device_stats = Vec::with_capacity(execs.len());
    for (d, mut exec) in execs.into_iter().enumerate() {
        let run = exec.harvest();
        for (output, span) in run.outputs.into_iter().zip(&run.stats.lifecycles) {
            let (req, class, arrival_cycle) = meta[d][span.index];
            completions.push(ServiceCompletion {
                request: req,
                class,
                arrival_cycle,
                device: d,
                completed_cycle: span.completed_cycle.unwrap_or(span.submitted_cycle),
                task: output,
            });
        }
        device_stats.push(run.stats);
    }
    completions.sort_by_key(|c| (c.completed_cycle, c.request));
    let last_completion_cycle = completions
        .iter()
        .map(|c| c.completed_cycle)
        .max()
        .unwrap_or(0);
    // Completion events land in the recorder by completed cycle. Recording
    // here (after the sort) rather than inside the loop changes nothing:
    // windowed counters are order-independent and the per-window latency
    // sets are sorted by `finalize`.
    for c in &completions {
        let ci = c.class.index();
        timeline.record_completion(
            c.completed_cycle,
            ci,
            c.latency_cycles(),
            meets_slo(c.latency_cycles(), config.classes[ci].slo_cycles),
        );
    }
    timeline.finalize(last_completion_cycle);

    let mut reports: [ClassReport; 3] = PriorityClass::ALL.map(|class| ClassReport {
        class,
        slo_cycles: config.classes[class.index()].slo_cycles,
        submitted: submitted[class.index()],
        accepted: accepted[class.index()],
        rejected_queue_full: rejected_qf[class.index()],
        rejected_saturated: rejected_sat[class.index()],
        completed: 0,
        within_slo: 0,
        latency_p50_cycles: 0,
        latency_p95_cycles: 0,
        latency_p99_cycles: 0,
        latency_max_cycles: 0,
    });
    for class in PriorityClass::ALL {
        let ci = class.index();
        let mut latencies: Vec<u64> = completions
            .iter()
            .filter(|c| c.class == class)
            .map(ServiceCompletion::latency_cycles)
            .collect();
        latencies.sort_unstable();
        let report = &mut reports[ci];
        report.completed = latencies.len() as u64;
        report.within_slo = latencies
            .iter()
            .filter(|&&l| meets_slo(l, report.slo_cycles))
            .count() as u64;
        report.latency_p50_cycles = nearest_rank(&latencies, 0.50);
        report.latency_p95_cycles = nearest_rank(&latencies, 0.95);
        report.latency_p99_cycles = nearest_rank(&latencies, 0.99);
        report.latency_max_cycles = latencies.last().copied().unwrap_or(0);
    }
    debug_assert_eq!(
        completions.len() + rejected.len(),
        total_requests,
        "every request completes or is rejected"
    );

    Ok(ServiceOutcome {
        completions,
        rejected,
        reports,
        device_stats,
        first_arrival_cycle,
        last_completion_cycle,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PipeStage, StageWork};
    use batchzk_gpu_sim::{DeviceProfile, Work};
    use batchzk_metrics::ToJson;

    struct WorkStage {
        name: &'static str,
        cycles: u64,
    }

    impl PipeStage<u64> for WorkStage {
        fn name(&self) -> String {
            self.name.into()
        }
        fn threads(&self) -> u32 {
            64
        }
        fn process(&self, task: &mut u64) -> StageWork {
            *task += 1;
            StageWork {
                work: Work::Uniform {
                    units: 64,
                    cycles_per_unit: self.cycles,
                },
                h2d_bytes: 256,
                d2h_bytes: 256,
                mem_after: 1 << 10,
            }
        }
    }

    fn stages(_gpu: &Gpu) -> Vec<BoxedStage<u64>> {
        vec![
            Box::new(WorkStage {
                name: "s0",
                cycles: 40,
            }),
            Box::new(WorkStage {
                name: "s1",
                cycles: 60,
            }),
            Box::new(WorkStage {
                name: "s2",
                cycles: 40,
            }),
        ]
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            classes: [
                ClassPolicy {
                    queue_cap: 2,
                    slo_cycles: 40_000,
                },
                ClassPolicy {
                    queue_cap: 4,
                    slo_cycles: 120_000,
                },
                ClassPolicy {
                    queue_cap: 8,
                    slo_cycles: 400_000,
                },
            ],
            max_outstanding: 12,
            device_queue_cap: 2,
            max_in_flight: 0,
            timeline_window_cycles: 0,
        }
    }

    /// A bursty overload stream: everything lands on one cycle so queue
    /// caps and the outstanding bound both trip.
    fn burst_requests(n: usize) -> Vec<ServiceRequest<u64>> {
        (0..n)
            .map(|i| ServiceRequest {
                class: PriorityClass::ALL[i % 3],
                arrival_cycle: 1_000,
                task: i as u64,
            })
            .collect()
    }

    fn paced_requests(n: usize, gap: u64) -> Vec<ServiceRequest<u64>> {
        (0..n)
            .map(|i| ServiceRequest {
                class: PriorityClass::ALL[i % 3],
                arrival_cycle: 1_000 + gap * i as u64,
                task: i as u64,
            })
            .collect()
    }

    #[test]
    fn conservation_per_class_under_overload() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 2);
        let outcome = run_service(&mut pool, &config(), burst_requests(60), stages, true).unwrap();
        let mut total = 0;
        for report in &outcome.reports {
            assert_eq!(
                report.submitted,
                report.accepted + report.rejected_queue_full + report.rejected_saturated,
                "class {} conservation",
                report.class
            );
            assert_eq!(report.completed, report.accepted, "accepted work completes");
            assert!(report.within_slo <= report.completed);
            total += report.submitted;
        }
        assert_eq!(total, 60);
        assert_eq!(outcome.completions.len() + outcome.rejected.len(), 60);
        assert!(!outcome.rejected.is_empty(), "overload must shed load");
    }

    #[test]
    fn deterministic_across_host_threads_and_repeat_runs() {
        for devices in [1usize, 4] {
            let reference = batchzk_par::with_threads(1, || {
                let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), devices);
                run_service(&mut pool, &config(), paced_requests(36, 900), stages, true).unwrap()
            });
            for threads in [1usize, 2, 4] {
                let outcome = batchzk_par::with_threads(threads, || {
                    let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), devices);
                    run_service(&mut pool, &config(), paced_requests(36, 900), stages, true)
                        .unwrap()
                });
                assert_eq!(
                    outcome.reports, reference.reports,
                    "devices={devices} threads={threads}"
                );
                assert_eq!(outcome.rejected, reference.rejected);
                let key = |o: &ServiceOutcome<u64>| {
                    o.completions
                        .iter()
                        .map(|c| (c.request, c.device, c.completed_cycle))
                        .collect::<Vec<_>>()
                };
                assert_eq!(key(&outcome), key(&reference));
            }
        }
    }

    #[test]
    fn interactive_dispatches_before_bulk() {
        // One device, one-task-at-a-time: a same-cycle burst must drain in
        // strict class priority even though bulk was submitted first.
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 1);
        let requests = vec![
            ServiceRequest {
                class: PriorityClass::Bulk,
                arrival_cycle: 0,
                task: 0,
            },
            ServiceRequest {
                class: PriorityClass::Bulk,
                arrival_cycle: 0,
                task: 1,
            },
            ServiceRequest {
                class: PriorityClass::Interactive,
                arrival_cycle: 0,
                task: 2,
            },
        ];
        let mut cfg = config();
        cfg.device_queue_cap = 1;
        let outcome = run_service(&mut pool, &cfg, requests, stages, true).unwrap();
        assert_eq!(outcome.completions.len(), 3);
        let first = &outcome.completions[0];
        assert_eq!(first.class, PriorityClass::Interactive);
        assert!(
            outcome.reports[PriorityClass::Interactive.index()].latency_max_cycles
                < outcome.reports[PriorityClass::Bulk.index()].latency_max_cycles
        );
    }

    #[test]
    fn idle_devices_fast_forward_to_late_arrivals() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 2);
        let late = 5_000_000u64;
        let requests = vec![ServiceRequest {
            class: PriorityClass::Standard,
            arrival_cycle: late,
            task: 7,
        }];
        let outcome = run_service(&mut pool, &config(), requests, stages, true).unwrap();
        let c = &outcome.completions[0];
        assert!(c.completed_cycle >= late);
        assert!(
            c.latency_cycles() < 100_000,
            "latency {} should not include the idle gap",
            c.latency_cycles()
        );
        assert_eq!(outcome.first_arrival_cycle, late);
    }

    #[test]
    fn empty_request_stream_is_a_quiet_no_op() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 2);
        let outcome = run_service(
            &mut pool,
            &config(),
            Vec::<ServiceRequest<u64>>::new(),
            stages,
            true,
        )
        .unwrap();
        assert!(outcome.completions.is_empty());
        assert!(outcome.rejected.is_empty());
        assert_eq!(outcome.span_cycles(), 0);
        for report in &outcome.reports {
            assert_eq!(report.submitted, 0);
            assert_eq!(report.slo_attainment(), 1.0);
            assert_eq!(report.rejection_rate(), 0.0);
        }
    }

    #[test]
    fn invalid_inputs_error_instead_of_panicking() {
        let mut cfg = config();
        cfg.classes[0].queue_cap = 0;
        assert!(cfg.validate().unwrap_err().contains("interactive"));
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 1);
        let err = run_service(&mut pool, &cfg, burst_requests(3), stages, true).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidInput(_)), "{err}");

        let mut cfg = config();
        cfg.max_outstanding = 0;
        assert!(cfg.validate().is_err());
        cfg = config();
        cfg.device_queue_cap = 0;
        assert!(cfg.validate().is_err());
        cfg = config();
        cfg.classes[2].slo_cycles = 0;
        assert!(cfg.validate().is_err());

        let profiles = [DeviceProfile::v100(), DeviceProfile::gh200()];
        let mut hetero = DevicePool::new(profiles.map(Gpu::new).into());
        let err = run_service(&mut hetero, &config(), burst_requests(3), stages, true).unwrap_err();
        assert!(err.to_string().contains("homogeneous"), "{err}");
    }

    #[test]
    fn far_future_arrivals_are_rejected_at_the_boundary() {
        // A request at u64::MAX used to wrap the device clock (release) or
        // panic on `clock += step` (debug).
        let request = |arrival_cycle| {
            vec![ServiceRequest {
                class: PriorityClass::Interactive,
                arrival_cycle,
                task: 1u64,
            }]
        };
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 1);
        for cycle in [u64::MAX, MAX_ARRIVAL_CYCLE + 1] {
            let err = run_service(&mut pool, &config(), request(cycle), stages, true).unwrap_err();
            assert!(matches!(err, ServiceError::InvalidInput(_)), "{err}");
        }
        // The documented maximum itself is served, after a request at 0
        // has fixed the flight recorder's origin as far away as it can be.
        let mut requests = request(0);
        requests.extend(request(MAX_ARRIVAL_CYCLE));
        let outcome = run_service(&mut pool, &config(), requests, stages, true).unwrap();
        assert_eq!(outcome.completions.len(), 2);
        assert!(outcome.last_completion_cycle > MAX_ARRIVAL_CYCLE);
    }

    #[test]
    fn class_names_round_trip_and_order() {
        for class in PriorityClass::ALL {
            assert_eq!(PriorityClass::parse(class.name()).unwrap(), class);
        }
        assert!(PriorityClass::parse("premium").is_err());
        assert_eq!(PriorityClass::Interactive.index(), 0);
        assert_eq!(PriorityClass::Bulk.index(), 2);
    }

    #[test]
    fn timeline_windows_conserve_class_totals_at_every_thread_count() {
        // Satellite conservation law: summing any per-window counter over
        // the whole timeline must reproduce the end-of-run ClassReport
        // exactly — at host threads 1, 2, and 4 — and the recording itself
        // must be bit-identical across thread counts.
        let run = || {
            let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 2);
            // Burst + paced tail: trips both reject reasons and then
            // drains, so every counter class is exercised.
            let mut requests = burst_requests(40);
            requests.extend(paced_requests(20, 2_500));
            run_service(&mut pool, &config(), requests, stages, true).unwrap()
        };
        let reference = batchzk_par::with_threads(1, run);
        for threads in [1usize, 2, 4] {
            let outcome = batchzk_par::with_threads(threads, run);
            let t = &outcome.timeline;
            assert_eq!(
                t.class_names(),
                &["interactive", "standard", "bulk"],
                "threads={threads}"
            );
            for report in &outcome.reports {
                let ci = report.class.index();
                let sum = |f: &dyn Fn(&batchzk_metrics::ClassWindow) -> u64| -> u64 {
                    t.windows().iter().map(|w| f(&w.classes[ci])).sum()
                };
                assert_eq!(sum(&|c| c.accepted), report.accepted, "threads={threads}");
                assert_eq!(
                    sum(&|c| c.rejected_queue_full),
                    report.rejected_queue_full,
                    "threads={threads}"
                );
                assert_eq!(
                    sum(&|c| c.rejected_saturated),
                    report.rejected_saturated,
                    "threads={threads}"
                );
                assert_eq!(sum(&|c| c.completed), report.completed, "threads={threads}");
                assert_eq!(
                    sum(&|c| c.slo_miss),
                    report.completed - report.within_slo,
                    "threads={threads}"
                );
            }
            assert_eq!(outcome.timeline, reference.timeline, "threads={threads}");
            assert_eq!(
                outcome.timeline.to_json(),
                reference.timeline.to_json(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn timeline_samples_depth_busy_and_latency() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 1);
        let outcome = run_service(&mut pool, &config(), burst_requests(12), stages, true).unwrap();
        let t = &outcome.timeline;
        assert!(!t.is_empty());
        assert_eq!(t.devices(), 1);
        assert_eq!(t.window_cycles(), config().resolved_timeline_window());
        assert_eq!(t.windows()[0].start_cycle, outcome.first_arrival_cycle);
        // A same-cycle burst of 12 against queue caps 2/4/8 pins at least
        // one class queue at its cap before dispatch drains it.
        let peak: u64 = t
            .windows()
            .iter()
            .map(|w| w.queue_depth_peak())
            .max()
            .unwrap_or(0);
        assert!(peak >= 2, "burst backlog must be visible, saw {peak}");
        // The single device does all the work: busy cycles appear, and the
        // recorded total busy time is within the covered span.
        let busy: u64 = t.windows().iter().map(|w| w.devices[0].busy_cycles).sum();
        assert!(busy > 0);
        assert!(busy <= t.windows().len() as u64 * t.window_cycles());
        // Windowed completions carry latencies: some window has a p99.
        assert!(t.p99_series().iter().any(|&p| p > 0));
        // The last completion falls inside the covered window range.
        let covered_end = t.windows()[0].start_cycle + t.windows().len() as u64 * t.window_cycles();
        assert!(outcome.last_completion_cycle <= covered_end);
    }

    #[test]
    fn empty_stream_yields_an_empty_timeline() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 2);
        let outcome = run_service(
            &mut pool,
            &config(),
            Vec::<ServiceRequest<u64>>::new(),
            stages,
            true,
        )
        .unwrap();
        assert!(outcome.timeline.is_empty());
        assert!(outcome.timeline.to_json().contains("\"windows\":[]"));
    }

    #[test]
    fn slo_accounting_counts_misses() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::v100(), 1);
        let mut cfg = config();
        // An SLO of 1 cycle is unmeetable: every completion is a miss.
        cfg.classes[PriorityClass::Standard.index()].slo_cycles = 1;
        // A bulk request submitted first but arriving last meets its SLO
        // and takes the last request id: ids follow arrival order.
        let requests = vec![
            ServiceRequest {
                class: PriorityClass::Bulk,
                arrival_cycle: 20,
                task: 2,
            },
            ServiceRequest {
                class: PriorityClass::Standard,
                arrival_cycle: 0,
                task: 0,
            },
            ServiceRequest {
                class: PriorityClass::Standard,
                arrival_cycle: 10,
                task: 1,
            },
        ];
        let outcome = run_service(&mut pool, &cfg, requests, stages, true).unwrap();
        let report = &outcome.reports[PriorityClass::Standard.index()];
        assert_eq!(report.completed, 2);
        assert_eq!(report.within_slo, 0);
        assert_eq!(report.slo_attainment(), 0.0);
        assert!(report.latency_p50_cycles <= report.latency_p95_cycles);
        assert!(report.latency_p95_cycles <= report.latency_p99_cycles);
        assert!(report.latency_p99_cycles <= report.latency_max_cycles);
        let bulk = &outcome.reports[PriorityClass::Bulk.index()];
        assert_eq!((bulk.completed, bulk.within_slo), (1, 1));
        assert!(outcome.goodput_per_mcycle() > 0.0);
        let c = outcome
            .completions
            .iter()
            .find(|c| c.class == PriorityClass::Bulk)
            .expect("bulk completes");
        assert_eq!((c.request, c.arrival_cycle, c.task), (2, 20, 2 + 3));
    }
}
