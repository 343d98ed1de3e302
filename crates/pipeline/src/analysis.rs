//! Trace-driven bottleneck analysis of the runs this crate reports.
//!
//! [`analyze`] reads the per-step events a device recorded at
//! `TraceLevel::Full` and the per-stage [`StageStats`] of a pipelined
//! run, and answers the question the paper's thread-allocation tuning
//! answers by hand: *which resource bounds throughput, and how should
//! threads be reallocated?* [`analyze_pool`], [`analyze_recovery`] and
//! [`analyze_service`] judge a pool run, a recovered run against its
//! fault-free twin, and a service run's [`ClassReport`]s.
//!
//! The algorithm works step by step over the run's critical path. Every
//! wall cycle of a step belongs to exactly one binding resource: if the
//! step's wall span exceeds its compute span, the step was bound by a copy
//! engine (whichever of H2D/D2H occupied more cycles); otherwise it was
//! bound by the longest-running kernel of that step. Summing attributed
//! cycles per resource yields each resource's share of the critical path;
//! the resource with the largest share is the limiting stage. When no
//! `Full` events are available the analyzer falls back to naming the stage
//! with the most busy cycles — correct for a balanced systolic pipeline,
//! where the busiest stage is the one that sets the step pace.
//!
//! Thread advice: a stage's useful work is estimated as
//! `busy_cycles × threads` (thread-cycles of useful execution under its
//! current allocation). The work-proportional ideal gives each stage
//! `total_threads × work_i / Σ work`, the allocation under which — in the
//! uniform-kernel cost model — all stages would finish a step
//! simultaneously and no stage would stall the systolic advance.

use crate::engine::{RunStats, StageStats};
use crate::observe::PoolRun;
use crate::sched::{self, RecoveryReport};
use crate::service::ClassReport;
use batchzk_gpu_sim::{Gpu, KernelEvent, StepEvent};
use batchzk_metrics::json::{Array, Object, ToJson};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One resource's share of the run's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundShare {
    /// Resource name: a stage/kernel name, `copy-h2d`, or `copy-d2h`.
    pub resource: String,
    /// Wall cycles attributed to the resource as the binding one.
    pub cycles: u64,
    /// Steps on which this resource was binding.
    pub steps: u64,
}

/// Per-stage verdict: current allocation vs the work-proportional ideal.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAdvice {
    /// Stage name.
    pub name: String,
    /// Current thread allocation.
    pub threads: u32,
    /// Suggested allocation under the work-proportional ideal (≥ 1).
    pub suggested_threads: u32,
    /// This stage's fraction of total useful thread-cycles, 0..=1.
    pub work_share: f64,
    /// `threads / suggested_threads` — above 1 means over-provisioned,
    /// below 1 under-provisioned, 1 means at the ideal.
    pub allocation_ratio: f64,
}

/// The analyzer's verdict for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunAnalysis {
    /// Wall cycles of the analyzed run (sum over steps, or the max stage
    /// occupancy in the fallback path).
    pub total_cycles: u64,
    /// The throughput-limiting resource: the one binding the most wall
    /// cycles.
    pub limiting_stage: String,
    /// Fraction of the critical path bound by `limiting_stage`, 0..=1.
    pub limiting_share: f64,
    /// All resources' critical-path shares, descending by cycles (ties
    /// broken by name, ascending).
    pub bound: Vec<BoundShare>,
    /// Per-stage thread-allocation advice, in stage order.
    pub advice: Vec<StageAdvice>,
}

impl RunAnalysis {
    /// Renders a compact human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "limiting stage: {} ({:.1}% of {} critical-path cycles)",
            self.limiting_stage,
            self.limiting_share * 100.0,
            self.total_cycles
        );
        for b in &self.bound {
            let _ = writeln!(
                out,
                "  bound by {:<20} {:>12} cycles over {} steps",
                b.resource, b.cycles, b.steps
            );
        }
        if !self.advice.is_empty() {
            let _ = writeln!(
                out,
                "thread allocation vs work-proportional ideal \
                 (ratio > 1 over-provisioned):"
            );
            for a in &self.advice {
                let _ = writeln!(
                    out,
                    "  {:<20} threads {:>6} -> suggest {:>6}  \
                     work share {:>5.1}%  ratio {:.2}",
                    a.name,
                    a.threads,
                    a.suggested_threads,
                    a.work_share * 100.0,
                    a.allocation_ratio
                );
            }
        }
        out
    }
}

/// Canonical JSON, fields in a fixed order (deterministic).
impl ToJson for RunAnalysis {
    fn write_json(&self, out: &mut String) {
        let bound = self.bound.iter().map(|b| {
            Object::new()
                .field("resource", &b.resource)
                .field("cycles", b.cycles)
                .field("steps", b.steps)
        });
        let advice = self.advice.iter().map(|a| {
            Object::new()
                .field("stage", &a.name)
                .field("threads", a.threads)
                .field("suggested_threads", a.suggested_threads)
                .field("work_share", a.work_share)
                .field("allocation_ratio", a.allocation_ratio)
        });
        Object::new()
            .field("limiting_stage", &self.limiting_stage)
            .field("limiting_share", self.limiting_share)
            .field("total_cycles", self.total_cycles)
            .field("bound", bound.collect::<Array>())
            .field("advice", advice.collect::<Array>())
            .write_json(out);
    }
}

/// One device's verdict inside a [`PoolAnalysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceVerdict {
    /// Device name and pool index, e.g. `"A100 #0"`.
    pub name: String,
    /// Tasks the device completed.
    pub tasks: u64,
    /// Wall milliseconds the device spent.
    pub elapsed_ms: f64,
    /// Time-weighted mean core utilization, 0..=1.
    pub mean_utilization: f64,
    /// `elapsed_ms / makespan_ms` — 1.0 for the straggler that sets a
    /// fault-free makespan, lower for devices that idled at the barrier
    /// (under recovery no device need reach 1.0).
    pub time_share: f64,
}

/// The analyzer's verdict for a multi-device run: who straggled, how
/// balanced the shard was, and how well the pool scaled against a
/// single-device baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolAnalysis {
    /// Per-device verdicts, in pool order.
    pub devices: Vec<DeviceVerdict>,
    /// The run's makespan in milliseconds: the slowest device's elapsed
    /// time, summed over the rounds under fault recovery.
    pub makespan_ms: f64,
    /// The makespan over the mean elapsed time of the devices that ran
    /// work (1.0 = perfectly balanced; 0 when nothing ran).
    pub imbalance: f64,
    /// `single_device_ms / makespan_ms`, 0 when no baseline was given.
    pub speedup: f64,
    /// `speedup / devices` — the fraction of perfect linear scaling
    /// achieved (1.0 = ideal), 0 when no baseline was given.
    pub scaling_efficiency: f64,
}

impl PoolAnalysis {
    /// Renders a compact human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pool: {} devices, makespan {:.3} ms, imbalance {:.3}",
            self.devices.len(),
            self.makespan_ms,
            self.imbalance
        );
        if self.speedup > 0.0 {
            let _ = writeln!(
                out,
                "  speedup {:.2}x vs single device, scaling efficiency {:.1}%",
                self.speedup,
                self.scaling_efficiency * 100.0
            );
        }
        for d in &self.devices {
            let _ = writeln!(
                out,
                "  {:<12} tasks {:>6}  elapsed {:>10.3} ms  \
                 util {:>5.1}%  time share {:>5.1}%",
                d.name,
                d.tasks,
                d.elapsed_ms,
                d.mean_utilization * 100.0,
                d.time_share * 100.0
            );
        }
        out
    }
}

/// Canonical JSON, fields in a fixed order (deterministic).
impl ToJson for PoolAnalysis {
    fn write_json(&self, out: &mut String) {
        let devices = self.devices.iter().map(|d| {
            Object::new()
                .field("name", &d.name)
                .field("tasks", d.tasks)
                .field("elapsed_ms", d.elapsed_ms)
                .field("mean_utilization", d.mean_utilization)
                .field("time_share", d.time_share)
        });
        Object::new()
            .field("makespan_ms", self.makespan_ms)
            .field("imbalance", self.imbalance)
            .field("speedup", self.speedup)
            .field("scaling_efficiency", self.scaling_efficiency)
            .field("devices", devices.collect::<Array>())
            .write_json(out);
    }
}

/// Analyzes a multi-device run: per-device imbalance and, when a
/// single-device baseline is supplied, speedup and scaling efficiency.
/// Every figure is judged against the run's own makespan.
///
/// `single_device_ms` is the wall time the same workload took on one
/// device of the same profile (pass `None` when no baseline exists — the
/// scaling fields then report 0).
pub fn analyze_pool(run: &PoolRun<'_>, single_device_ms: Option<f64>) -> PoolAnalysis {
    let makespan_ms = run.makespan_ms;
    let devices: Vec<DeviceVerdict> = run
        .device_stats
        .iter()
        .zip(run.device_ms)
        .enumerate()
        .map(|(i, (stats, &elapsed_ms))| DeviceVerdict {
            name: format!("{} #{i}", run.pool.device(i).profile().name),
            tasks: stats.tasks as u64,
            elapsed_ms,
            mean_utilization: stats.mean_utilization,
            time_share: if makespan_ms > 0.0 {
                elapsed_ms / makespan_ms
            } else {
                0.0
            },
        })
        .collect();
    let speedup = match single_device_ms {
        Some(base) if makespan_ms > 0.0 => base / makespan_ms,
        _ => 0.0,
    };
    let scaling_efficiency = if devices.is_empty() {
        0.0
    } else {
        speedup / devices.len() as f64
    };
    PoolAnalysis {
        devices,
        makespan_ms,
        imbalance: sched::imbalance(makespan_ms, run.device_ms),
        speedup,
        scaling_efficiency,
    }
}

/// The analyzer's verdict on fault-recovery overhead: how much slower a
/// run that lost devices mid-batch finished compared to its fault-free
/// twin, and how much work the recovery replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryAnalysis {
    /// Makespan of the fault-free baseline run, in milliseconds.
    pub fault_free_ms: f64,
    /// Makespan of the faulty (recovered) run, in milliseconds.
    pub faulty_ms: f64,
    /// `faulty_ms / fault_free_ms` — 1.0 means recovery was free, 2.0
    /// means the faults doubled the makespan (0 when no baseline).
    pub overhead_ratio: f64,
    /// Devices that fail-stopped during the faulty run.
    pub failed_devices: usize,
    /// Tasks salvaged and replayed during recovery.
    pub replayed_tasks: usize,
    /// Resharding rounds the recovery needed beyond the initial one.
    pub replay_rounds: usize,
}

impl RecoveryAnalysis {
    /// Renders a compact human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "recovery: {} failed device(s), {} task(s) replayed over {} round(s)",
            self.failed_devices, self.replayed_tasks, self.replay_rounds
        );
        let _ = writeln!(
            out,
            "  makespan {:.3} ms vs fault-free {:.3} ms — {:.2}x overhead",
            self.faulty_ms, self.fault_free_ms, self.overhead_ratio
        );
        out
    }
}

/// Canonical JSON, fields in a fixed order (deterministic).
impl ToJson for RecoveryAnalysis {
    fn write_json(&self, out: &mut String) {
        Object::new()
            .field("fault_free_ms", self.fault_free_ms)
            .field("faulty_ms", self.faulty_ms)
            .field("overhead_ratio", self.overhead_ratio)
            .field("failed_devices", self.failed_devices)
            .field("replayed_tasks", self.replayed_tasks)
            .field("replay_rounds", self.replay_rounds)
            .write_json(out);
    }
}

/// Quantifies fault-recovery overhead against a fault-free baseline of
/// the same workload on the same pool profile.
///
/// `fault_free_ms` / `faulty_ms` are the two runs' makespans; `recovery`
/// is the faulty run's recovery report (`None` when no fault fired, which
/// counts no failed device, replay or round). A `fault_free_ms` of 0
/// zeroes the ratio rather than dividing by it.
pub fn analyze_recovery(
    fault_free_ms: f64,
    faulty_ms: f64,
    recovery: Option<&RecoveryReport>,
) -> RecoveryAnalysis {
    RecoveryAnalysis {
        fault_free_ms,
        faulty_ms,
        overhead_ratio: if fault_free_ms > 0.0 {
            faulty_ms / fault_free_ms
        } else {
            0.0
        },
        failed_devices: recovery.map_or(0, |r| r.failed_devices.len()),
        replayed_tasks: recovery.map_or(0, |r| r.replayed_tasks),
        replay_rounds: recovery.map_or(0, |r| r.replay_rounds),
    }
}

/// The analyzer's verdict on one class's SLO health.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceClassVerdict {
    /// Class name.
    pub class: String,
    /// Completions within SLO over completions (1 when idle).
    pub slo_attainment: f64,
    /// Rejections over submissions (0 when idle).
    pub rejection_rate: f64,
    /// `latency_p99 / slo` — the SLO burn multiple; > 1 means the tail
    /// misses the objective (0 when nothing completed).
    pub p99_burn: f64,
    /// One-line advice: healthy, shed load, or raise capacity.
    pub advice: String,
}

/// SLO analysis of one online service run across its priority classes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAnalysis {
    /// Per-class verdicts, in the input order.
    pub classes: Vec<ServiceClassVerdict>,
    /// Overall rejection rate across classes.
    pub rejection_rate: f64,
}

impl ServiceAnalysis {
    /// Renders a compact human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "service: {:.1}% of requests rejected overall",
            self.rejection_rate * 100.0
        );
        for v in &self.classes {
            let _ = writeln!(
                out,
                "  {}: {:.1}% within SLO, p99 at {:.2}x of SLO, {:.1}% rejected — {}",
                v.class,
                v.slo_attainment * 100.0,
                v.p99_burn,
                v.rejection_rate * 100.0,
                v.advice
            );
        }
        out
    }
}

/// Canonical JSON, fields in a fixed order (deterministic).
impl ToJson for ServiceAnalysis {
    fn write_json(&self, out: &mut String) {
        let classes = self.classes.iter().map(|v| {
            Object::new()
                .field("class", &v.class)
                .field("slo_attainment", v.slo_attainment)
                .field("rejection_rate", v.rejection_rate)
                .field("p99_burn", v.p99_burn)
                .field("advice", &v.advice)
        });
        Object::new()
            .field("classes", classes.collect::<Array>())
            .field("rejection_rate", self.rejection_rate)
            .write_json(out);
    }
}

/// Judges each class's SLO health from one service run's accounting.
///
/// The verdict logic mirrors the `OPERATIONS.md` runbook: a class that
/// meets ≥ 99% of completions within SLO and sheds < 1% of traffic is
/// healthy; a class whose p99 burns past its SLO needs a tighter
/// admission cap (queueing is eating the budget) or more devices; a
/// class shedding load while within SLO has its queue cap set below
/// what the pool could absorb.
pub fn analyze_service(classes: &[ClassReport]) -> ServiceAnalysis {
    let submitted: u64 = classes.iter().map(|c| c.submitted).sum();
    let rejected: u64 = classes
        .iter()
        .map(|c| c.rejected_queue_full + c.rejected_saturated)
        .sum();
    let verdicts = classes
        .iter()
        .map(|c| {
            let rejection_rate = c.rejection_rate();
            let p99_burn = if c.completed == 0 {
                0.0
            } else {
                c.latency_p99_cycles as f64 / c.slo_cycles as f64
            };
            let advice = if c.submitted == 0 {
                "no traffic".to_string()
            } else if p99_burn > 1.0 {
                "p99 over SLO: lower this class's queue cap or add devices".to_string()
            } else if rejection_rate > 0.01 {
                "within SLO but shedding load: raise the queue cap or max_outstanding".to_string()
            } else {
                "healthy".to_string()
            };
            ServiceClassVerdict {
                class: c.class.name().to_string(),
                slo_attainment: c.slo_attainment(),
                rejection_rate,
                p99_burn,
                advice,
            }
        })
        .collect();
    ServiceAnalysis {
        classes: verdicts,
        rejection_rate: if submitted == 0 {
            0.0
        } else {
            rejected as f64 / submitted as f64
        },
    }
}

/// Computes per-stage thread advice from aggregate observations.
fn thread_advice(stages: &[StageStats], total_threads: u32) -> Vec<StageAdvice> {
    let works: Vec<u128> = stages
        .iter()
        .map(|s| s.busy_cycles as u128 * s.threads as u128)
        .collect();
    let total_work: u128 = works.iter().sum();
    stages
        .iter()
        .zip(&works)
        .map(|(s, &work)| {
            let work_share = if total_work == 0 {
                0.0
            } else {
                work as f64 / total_work as f64
            };
            let suggested =
                match (total_threads as u128 * work + total_work / 2).checked_div(total_work) {
                    Some(t) => (t as u32).max(1),
                    None => s.threads.max(1),
                };
            StageAdvice {
                name: s.name.clone(),
                threads: s.threads,
                suggested_threads: suggested,
                work_share,
                allocation_ratio: s.threads as f64 / suggested as f64,
            }
        })
        .collect()
}

/// Analyzes the critical path of `stats`, the run `gpu` just finished
/// (see module docs for the algorithm).
///
/// The step and kernel events come from `gpu` and are there only after a
/// `TraceLevel::Full` run (a run traced at `Stats` has none): the analyzer
/// then falls back to busy-cycle attribution over the run's stages.
/// `total_threads` is the budget the thread advice distributes.
pub fn analyze(gpu: &Gpu, stats: &RunStats, total_threads: u32) -> RunAnalysis {
    critical_path(
        gpu.step_events(),
        gpu.kernel_events(),
        &stats.stage_stats,
        total_threads,
    )
}

/// [`analyze`] over explicit events, so that tests can script them.
fn critical_path(
    step_events: &[StepEvent],
    kernel_events: &[KernelEvent],
    stages: &[StageStats],
    total_threads: u32,
) -> RunAnalysis {
    let mut attributed: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut total_cycles = 0u64;

    if step_events.is_empty() {
        // Fallback: the busiest stage paces a balanced systolic pipeline.
        for s in stages {
            attributed.insert(s.name.clone(), (s.busy_cycles, s.tasks));
        }
        total_cycles = stages.iter().map(|s| s.occupied_cycles).max().unwrap_or(0);
    } else {
        // Kernel events grouped by step, in recording order.
        let mut kernels_by_step: BTreeMap<u64, Vec<&KernelEvent>> = BTreeMap::new();
        for e in kernel_events {
            kernels_by_step.entry(e.step).or_default().push(e);
        }
        for se in step_events {
            total_cycles += se.step_cycles;
            let binding: String = if se.step_cycles > se.compute_cycles {
                if se.h2d_cycles >= se.d2h_cycles {
                    "copy-h2d".to_string()
                } else {
                    "copy-d2h".to_string()
                }
            } else {
                kernels_by_step
                    .get(&se.step)
                    .and_then(|ks| {
                        // Longest kernel binds; first wins ties
                        // (recording order is deterministic).
                        ks.iter()
                            .max_by(|a, b| a.duration_cycles.cmp(&b.duration_cycles))
                            .map(|k| k.name.clone())
                    })
                    .unwrap_or_else(|| "idle".to_string())
            };
            let entry = attributed.entry(binding).or_insert((0, 0));
            entry.0 += se.step_cycles;
            entry.1 += 1;
        }
    }

    let mut bound: Vec<BoundShare> = attributed
        .into_iter()
        .map(|(resource, (cycles, steps))| BoundShare {
            resource,
            cycles,
            steps,
        })
        .collect();
    // Descending by cycles; the BTreeMap source already ordered names
    // ascending, and the sort is stable, so ties break by name.
    bound.sort_by_key(|b| std::cmp::Reverse(b.cycles));

    let (limiting_stage, limiting_cycles) = bound
        .first()
        .map(|b| (b.resource.clone(), b.cycles))
        .unwrap_or_else(|| ("idle".to_string(), 0));
    let limiting_share = if total_cycles == 0 {
        0.0
    } else {
        limiting_cycles as f64 / total_cycles as f64
    };

    RunAnalysis {
        total_cycles,
        limiting_stage,
        limiting_share,
        bound,
        advice: thread_advice(stages, total_threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::PriorityClass;
    use batchzk_gpu_sim::{DevicePool, DeviceProfile, TraceLevel};

    fn kernel(step: u64, name: &str, duration: u64) -> KernelEvent {
        KernelEvent {
            step,
            start_cycle: 0,
            duration_cycles: duration,
            name: name.to_string(),
            threads: 32,
            busy_cycles: duration * 32,
            warp_occupancy: 1.0,
        }
    }

    fn step(step: u64, wall: u64, compute: u64, h2d: u64, d2h: u64) -> StepEvent {
        StepEvent {
            step,
            start_cycle: 0,
            step_cycles: wall,
            compute_cycles: compute,
            h2d_cycles: h2d,
            d2h_cycles: d2h,
        }
    }

    fn stage(name: &str, threads: u32, tasks: u64, busy: u64, occupied: u64) -> StageStats {
        StageStats {
            name: name.into(),
            threads,
            tasks,
            busy_cycles: busy,
            occupied_cycles: occupied,
            ..StageStats::default()
        }
    }

    #[test]
    fn compute_bound_step_blames_longest_kernel() {
        let steps = vec![step(0, 100, 100, 10, 0), step(1, 100, 100, 0, 0)];
        let kernels = vec![
            kernel(0, "fast", 40),
            kernel(0, "slow", 100),
            kernel(1, "fast", 30),
            kernel(1, "slow", 100),
        ];
        let a = critical_path(&steps, &kernels, &[], 1024);
        assert_eq!(a.limiting_stage, "slow");
        assert_eq!(a.total_cycles, 200);
        assert_eq!(a.limiting_share, 1.0);
        assert_eq!(a.bound[0].steps, 2);
    }

    #[test]
    fn transfer_bound_step_blames_copy_engine() {
        // Wall span exceeds compute: the copy engine paced the step.
        let steps = vec![step(0, 200, 120, 200, 30), step(1, 150, 150, 10, 0)];
        let kernels = vec![kernel(0, "k", 120), kernel(1, "k", 150)];
        let a = critical_path(&steps, &kernels, &[], 1024);
        assert_eq!(a.limiting_stage, "copy-h2d");
        assert_eq!(a.total_cycles, 350);
        let by_name: Vec<(&str, u64)> = a
            .bound
            .iter()
            .map(|b| (b.resource.as_str(), b.cycles))
            .collect();
        assert_eq!(by_name, vec![("copy-h2d", 200), ("k", 150)]);
    }

    #[test]
    fn fallback_uses_busiest_stage() {
        let stages = vec![
            stage("a", 100, 10, 500, 1000),
            stage("b", 100, 10, 900, 1000),
        ];
        let a = critical_path(&[], &[], &stages, 200);
        assert_eq!(a.limiting_stage, "b");
        assert_eq!(a.total_cycles, 1000);
    }

    /// The public entry reads the device's events and the run's stages: a
    /// `Full` device attributes its steps, a `Stats` one falls back to the
    /// stages, and either way the advice lists the run's stages in order.
    #[test]
    fn analyze_reads_the_devices_events_and_the_runs_stages() {
        let trees: Vec<Vec<[u8; 64]>> = (0..4u8).map(|t| vec![[t; 64]; 16]).collect();
        for level in [TraceLevel::Full, TraceLevel::Stats] {
            let mut gpu = Gpu::with_trace_level(DeviceProfile::v100(), level);
            let run = crate::merkle::run_pipelined(&mut gpu, trees.clone(), 512);
            let stats = run.expect("fits").stats;
            let a = analyze(&gpu, &stats, 512);
            let advised: Vec<(&str, u32)> = a
                .advice
                .iter()
                .map(|s| (s.name.as_str(), s.threads))
                .collect();
            let stages: Vec<(&str, u32)> = stats
                .stage_stats
                .iter()
                .map(|s| (s.name.as_str(), s.threads))
                .collect();
            assert_eq!(advised, stages);
            let occupied = stats.stage_stats.iter().map(|s| s.occupied_cycles);
            let expected = match level {
                TraceLevel::Full => gpu.step_events().iter().map(|e| e.step_cycles).sum(),
                _ => {
                    assert!(
                        gpu.step_events().is_empty(),
                        "a Stats device keeps no steps"
                    );
                    occupied.max().unwrap_or(0)
                }
            };
            assert!(expected > 0);
            assert_eq!(a.total_cycles, expected, "{level:?}");
        }
    }

    #[test]
    fn advice_is_work_proportional_and_conserves_threads_roughly() {
        let stages = vec![
            stage("light", 512, 8, 100, 800),
            stage("heavy", 512, 8, 300, 800),
        ];
        let a = critical_path(&[], &[], &stages, 1024);
        assert_eq!(a.advice.len(), 2);
        let light = &a.advice[0];
        let heavy = &a.advice[1];
        // Equal threads, 3x the busy cycles → 3x the suggested threads.
        assert_eq!(light.suggested_threads, 256);
        assert_eq!(heavy.suggested_threads, 768);
        assert!(light.allocation_ratio > 1.0, "light is over-provisioned");
        assert!(heavy.allocation_ratio < 1.0, "heavy is under-provisioned");
        assert!((light.work_share + heavy.work_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_work_advice_keeps_current_threads() {
        let stages = vec![stage("idle", 64, 0, 0, 0)];
        let a = critical_path(&[], &[], &stages, 128);
        assert_eq!(a.advice[0].suggested_threads, 64);
        assert_eq!(a.advice[0].work_share, 0.0);
    }

    #[test]
    fn renderings_are_deterministic() {
        let steps = vec![step(0, 100, 100, 0, 0)];
        let kernels = vec![kernel(0, "k", 100)];
        let stages = vec![stage("k", 32, 1, 100, 100)];
        let a = critical_path(&steps, &kernels, &stages, 32);
        let b = critical_path(&steps, &kernels, &stages, 32);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_text(), b.render_text());
        assert!(a.to_json().contains("\"limiting_stage\":\"k\""));
        assert!(a.render_text().contains("limiting stage: k"));
        // Cheap well-formedness check.
        let json = a.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The pool analysis of a run on `profile` devices, one per
    /// `(tasks, elapsed_ms, mean_utilization)`, with the given makespan.
    fn analyze_devices(
        profile: DeviceProfile,
        devices: &[(usize, f64, f64)],
        makespan_ms: f64,
        single_device_ms: Option<f64>,
    ) -> PoolAnalysis {
        let pool = DevicePool::homogeneous(profile, devices.len().max(1));
        let device_stats: Vec<RunStats> = devices
            .iter()
            .map(|&(tasks, _, mean_utilization)| RunStats {
                tasks,
                mean_utilization,
                ..RunStats::default()
            })
            .collect();
        let device_ms: Vec<f64> = devices.iter().map(|&(_, ms, _)| ms).collect();
        let run = PoolRun {
            device_stats: &device_stats,
            device_ms: &device_ms,
            makespan_ms,
            recovery: None,
            pool: &pool,
        };
        analyze_pool(&run, single_device_ms)
    }

    #[test]
    fn pool_analysis_reports_imbalance_and_scaling() {
        let devices = [(6, 10.0, 0.9), (6, 8.0, 0.85)];
        let a = analyze_devices(DeviceProfile::a100(), &devices, 10.0, Some(18.0));
        assert_eq!(a.makespan_ms, 10.0);
        assert!((a.imbalance - 10.0 / 9.0).abs() < 1e-12);
        assert!((a.speedup - 1.8).abs() < 1e-12);
        assert!((a.scaling_efficiency - 0.9).abs() < 1e-12);
        assert_eq!(a.devices[0].time_share, 1.0, "straggler sets the makespan");
        assert!((a.devices[1].time_share - 0.8).abs() < 1e-12);
        assert_eq!(a.devices[1].name, "A100 #1");
    }

    #[test]
    fn pool_analysis_without_baseline_zeroes_scaling() {
        let a = analyze_devices(DeviceProfile::v100(), &[(3, 5.0, 0.7)], 5.0, None);
        assert_eq!(a.speedup, 0.0);
        assert_eq!(a.scaling_efficiency, 0.0);
        assert_eq!(a.imbalance, 1.0, "one active device is balanced");
    }

    #[test]
    fn pool_analysis_renderings_are_deterministic() {
        let devices = [(4, 7.5, 0.8), (0, 0.0, 0.0)];
        let a = analyze_devices(DeviceProfile::a100(), &devices, 7.5, Some(14.0));
        let b = analyze_devices(DeviceProfile::a100(), &devices, 7.5, Some(14.0));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_text(), b.render_text());
        assert!(a.to_json().contains("\"scaling_efficiency\":"));
        assert!(a.render_text().contains("scaling efficiency"));
        // Idle device excluded from imbalance, included in the listing.
        assert_eq!(a.imbalance, 1.0);
        assert_eq!(a.devices.len(), 2);
        let json = a.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn recovery_analysis_reports_overhead() {
        let report = RecoveryReport {
            failed_devices: vec![1],
            replayed_tasks: 7,
            replay_rounds: 1,
            ..RecoveryReport::default()
        };
        let a = analyze_recovery(10.0, 15.0, Some(&report));
        assert!((a.overhead_ratio - 1.5).abs() < 1e-12);
        assert_eq!(a.failed_devices, 1);
        assert_eq!(a.replayed_tasks, 7);
        assert_eq!(a.replay_rounds, 1);
        assert!(a.render_text().contains("1.50x overhead"));
        assert!(a.to_json().contains("\"overhead_ratio\":1.5"));
        assert_eq!(
            a.to_json(),
            analyze_recovery(10.0, 15.0, Some(&report)).to_json()
        );
        // No baseline: ratio zeroed, not a division by zero.
        assert_eq!(analyze_recovery(0.0, 5.0, None).overhead_ratio, 0.0);
        let json = a.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_pool_analysis_is_zeroed() {
        let a = analyze_devices(DeviceProfile::a100(), &[], 0.0, None);
        assert_eq!(a.makespan_ms, 0.0);
        assert_eq!(a.imbalance, 0.0);
        assert_eq!(a.scaling_efficiency, 0.0);
        assert!(a.devices.is_empty());
    }

    #[test]
    fn empty_inputs_yield_idle_verdict() {
        let a = analyze(&Gpu::new(DeviceProfile::v100()), &RunStats::default(), 0);
        assert_eq!(a.limiting_stage, "idle");
        assert_eq!(a.total_cycles, 0);
        assert_eq!(a.limiting_share, 0.0);
        assert!(a.advice.is_empty());
    }

    #[test]
    fn service_analysis_judges_slo_health() {
        let report = |class, slo, completed, within, rejected, p99| ClassReport {
            class,
            slo_cycles: slo,
            submitted: completed + rejected,
            accepted: completed,
            rejected_queue_full: rejected,
            rejected_saturated: 0,
            completed,
            within_slo: within,
            latency_p50_cycles: 0,
            latency_p95_cycles: 0,
            latency_p99_cycles: p99,
            latency_max_cycles: p99,
        };
        use PriorityClass::{Bulk, Interactive, Standard};
        let reports = [
            // Healthy: everything lands within SLO, nothing shed.
            report(Interactive, 10_000, 100, 100, 0, 8_000),
            // Burning: tail blows through the SLO.
            report(Standard, 10_000, 100, 60, 0, 25_000),
            // Shedding while within SLO: cap set too low.
            report(Bulk, 100_000, 50, 50, 50, 40_000),
        ];
        let a = analyze_service(&reports);
        assert_eq!(a.classes.len(), 3);
        assert_eq!(a.classes[0].advice, "healthy");
        assert!(
            a.classes[1].advice.contains("p99 over SLO"),
            "{}",
            a.classes[1].advice
        );
        assert!(a.classes[2].advice.contains("raise the queue cap"));
        assert!((a.classes[1].p99_burn - 2.5).abs() < 1e-12);
        assert!((a.rejection_rate - 50.0 / 300.0).abs() < 1e-12);
        let text = a.render_text();
        assert!(text.contains("interactive") && text.contains("bulk"));
        let json = a.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"class\":\"standard\""));
        // Deterministic rendering.
        assert_eq!(json, analyze_service(&reports).to_json());
        // Idle input: no divisions by zero.
        let idle = analyze_service(&[report(Interactive, 10_000, 0, 0, 0, 0)]);
        assert_eq!(idle.classes[0].slo_attainment, 1.0);
        assert_eq!(idle.classes[0].advice, "no traffic");
        assert_eq!(idle.rejection_rate, 0.0);
    }
}
