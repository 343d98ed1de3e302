//! Multi-device scheduling: one placement routine over a [`DevicePool`].
//!
//! The paper pins one pipeline to one device; a production deployment
//! (§1, "serves millions of users") spreads one proof stream over many.
//! This module is the thin scheduling layer between the two: it decides
//! *which device gets which task* and then drives one
//! [`PipelineExecutor`] per device to completion ([`run_sharded`]),
//! reassembling outputs in input order so sharding is invisible to the
//! caller — a sharded run emits byte-identical results to a
//! single-device run.
//!
//! **Placement.** One routine places every round, the first and each
//! replay: each task, in input order, goes to the healthy device it fits
//! on (one footprint plus the alloc-before-free overlap) with the least
//! outstanding work normalized by the device's weight — *measured*
//! throughput (completed work per elapsed virtual second, from each
//! device's utilization and clock) once it has history, the cores × clock
//! nameplate before. Each device then runs under an in-flight admission
//! cap sized from its memory, so a batch whose full pipeline residency
//! would OOM one device is *split in time* (fewer tasks resident at once)
//! and across devices instead of erroring; only a single task that
//! exceeds every device's capacity still fails, with the usual
//! [`OutOfDeviceMemory`](crate::PipelineError::OutOfDeviceMemory)
//! diagnostics. Where memory does not bind this is least-outstanding-work
//! placement, and on a fresh pool of identical devices with equal
//! footprints it is round-robin: task *i* to device *i mod N*.
//!
//! Placement is deterministic: identical inputs produce identical plans,
//! and since tasks are independent (each proof's transcript depends only
//! on its own inputs), identical outputs.
//!
//! **Fault tolerance.** When a device carries a scripted fault (see
//! [`batchzk_gpu_sim::FaultPlan`]), [`run_sharded`] absorbs the
//! recoverable errors ([`PipelineError::DeviceFailed`] /
//! [`PipelineError::KernelDropped`]): completed outputs are kept, the
//! salvaged remainder is placed again over the surviving devices by the
//! same routine, and the replay repeats until every task completes (or
//! every device is dead, which surfaces a clean error). A device that
//! fail-stopped in an earlier batch is skipped from the first round on.
//! The recovered outputs are byte-identical to a fault-free run, and a
//! [`RecoveryReport`] on the result describes what it cost
//! (`DESIGN.md` §12).
//!
//! # Examples
//!
//! ```
//! use batchzk_gpu_sim::{DevicePool, DeviceProfile, Gpu, Work};
//! use batchzk_pipeline::{run_sharded, BoxedStage, PipeStage, StageWork};
//!
//! struct Double;
//! impl PipeStage<u64> for Double {
//!     fn name(&self) -> String {
//!         "double".into()
//!     }
//!     fn threads(&self) -> u32 {
//!         32
//!     }
//!     fn process(&self, task: &mut u64) -> StageWork {
//!         *task *= 2;
//!         StageWork {
//!             work: Work::Uniform { units: 32, cycles_per_unit: 10 },
//!             h2d_bytes: 0,
//!             d2h_bytes: 0,
//!             mem_after: 0,
//!         }
//!     }
//! }
//!
//! let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
//! let run = run_sharded(
//!     &mut pool,
//!     (0..8u64).collect(),
//!     |_| 0,
//!     |_gpu: &Gpu| vec![Box::new(Double) as BoxedStage<u64>],
//!     true,
//! )
//! .unwrap();
//! assert_eq!(run.outputs, (0..8u64).map(|t| t * 2).collect::<Vec<_>>());
//! assert_eq!(run.assignments, vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]]);
//! assert!(run.recovery.is_none(), "no faults scripted");
//! ```

use batchzk_gpu_sim::{DeviceHealth, DevicePool, Gpu};

use crate::engine::{BoxedStage, PipelineError, PipelineExecutor, PipelineRun, RunStats};

/// How tasks are placed across the devices of a pool: one policy, the
/// memory-aware placement the module doc describes, which
/// [`run_sharded`] always applies.
///
/// The type and the `policy` parameters that take it
/// (`batchzk_zkp::prove_batch_pool_with`, `batchzk_vml`'s
/// `MlService::serve_batch_pool`) stay only because the frozen
/// `benchmark/` crate passes `ShardPolicy::MemoryAware`; they are deleted
/// with the next change to `benchmark/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Least-outstanding placement among healthy devices with capacity
    /// for the task, plus per-device in-flight caps that keep pipeline
    /// residency within device memory.
    MemoryAware,
}

/// One round's placement: who runs what, and how much of it at once.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardPlan {
    /// Per device, the positions (into the placed footprints) assigned to
    /// it, ascending.
    assignments: Vec<Vec<usize>>,
    /// Per device, the in-flight admission cap its executor runs under
    /// (the pipeline depth when memory imposes no limit).
    max_in_flight: Vec<usize>,
}

/// Places `footprints.len()` tasks on the pool's healthy devices.
///
/// `footprints[p]` is the estimated peak device-memory footprint of the
/// task at position `p` in bytes (0 when unknown: the task then fits
/// everywhere and caps stay at the depth). Each task, in order, goes to the
/// healthy device it fits on — one footprint plus the transient
/// alloc-before-free overlap — with the smallest outstanding work (its
/// footprint, at least 1) over [`device_weight`]; ties break to the lowest
/// index. A task that fits no device goes to the biggest healthy one, so
/// the executor surfaces the precise OOM diagnostics. Each device's cap is
/// `min(depth, capacity / worst − 1)`, at least 1: each resident task holds
/// up to one footprint, and a stage transition briefly holds the old and
/// new allocation of one task at once.
///
/// Returns `None` when there is a task to place and no healthy device.
fn plan_shards(pool: &DevicePool, footprints: &[u64], pipeline_depth: usize) -> Option<ShardPlan> {
    let n = pool.len();
    let depth = pipeline_depth.max(1);
    let healthy: Vec<bool> = (0..n).map(|d| !pool.device(d).is_failed()).collect();
    let capacities: Vec<u64> = (0..n)
        .map(|d| pool.device(d).memory_ref().capacity())
        .collect();
    let weights: Vec<f64> = (0..n).map(|d| device_weight(pool, d)).collect();
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut outstanding = vec![0.0f64; n];
    let mut unplaced = Vec::new();
    for (p, &fp) in footprints.iter().enumerate() {
        let work = fp.max(1) as f64;
        let load = |d: usize| (outstanding[d] + work) / weights[d];
        let best = (0..n)
            .filter(|&d| healthy[d] && fp.saturating_mul(2) <= capacities[d])
            .reduce(|b, d| if load(d) < load(b) { d } else { b });
        match best {
            Some(d) => {
                outstanding[d] += work;
                assignments[d].push(p);
            }
            None => unplaced.push(p),
        }
    }
    if !unplaced.is_empty() {
        let biggest = (0..n)
            .filter(|&d| healthy[d])
            .max_by_key(|&d| capacities[d])?;
        assignments[biggest].extend(unplaced);
        assignments[biggest].sort_unstable();
    }
    let max_in_flight = assignments
        .iter()
        .zip(&capacities)
        .map(|(placed, &capacity)| {
            let worst = placed.iter().map(|&p| footprints[p]).max().unwrap_or(0);
            capacity.checked_div(worst).map_or(depth, |fit| {
                (fit.saturating_sub(1).max(1) as usize).min(depth)
            })
        })
        .collect();
    Some(ShardPlan {
        assignments,
        max_in_flight,
    })
}

/// The weight placement divides a device's load by: the device's
/// *measured* throughput (useful work completed per elapsed virtual
/// second, from the device's utilization and clock) once it has run
/// anything, and the cores × clock nameplate before — an optimistic prior
/// that measurement then discounts toward what the device actually
/// delivers (memory stalls, transfer backpressure and all).
fn device_weight(pool: &DevicePool, d: usize) -> f64 {
    pool.measured_weight(d)
        .unwrap_or_else(|| pool.compute_weight(d))
        .max(1.0)
}

/// What it cost a sharded run to survive scripted device faults: which
/// devices died, how much work was replayed, and the faults themselves.
///
/// Present on [`ShardedRun::recovery`] only when at least one recoverable
/// fault ([`PipelineError::DeviceFailed`] /
/// [`PipelineError::KernelDropped`]) fired — a fault-free run reports
/// `None` and behaves exactly as before the fault layer existed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Pool indices of devices that fail-stopped, in order of discovery.
    pub failed_devices: Vec<usize>,
    /// Kernel-drop faults absorbed (the device stayed healthy; the step's
    /// in-flight tasks were replayed).
    pub dropped_kernels: usize,
    /// Tasks salvaged and re-run, counted once per replay (a task that
    /// survives two faults counts twice).
    pub replayed_tasks: usize,
    /// Resharding rounds beyond the initial one (0 would mean no replay
    /// was needed, but the report only exists when a fault fired).
    pub replay_rounds: usize,
    /// Every recoverable fault observed, in device order within each
    /// round and rounds in replay order.
    pub faults: Vec<PipelineError>,
}

/// The result of a sharded multi-device run.
#[derive(Debug)]
pub struct ShardedRun<T> {
    /// Outputs in the *original input order* — sharding is invisible.
    pub outputs: Vec<T>,
    /// Per-device run statistics, in pool order (devices that received no
    /// tasks report zeroed stats). Under fault recovery a device's stats
    /// accumulate over its replay rounds.
    pub device_stats: Vec<RunStats>,
    /// Per device, the input indices the first round placed on it,
    /// ascending (a replay round may move some of them elsewhere).
    pub assignments: Vec<Vec<usize>>,
    /// Wall time of the whole run: the maximum per-device elapsed time
    /// (the batch is done when the last device finishes), in ms. Replay
    /// rounds after a fault are sequential with the initial round, so
    /// their per-round maxima add.
    pub makespan_ms: f64,
    /// Per-device elapsed milliseconds for this run (deltas, so prior
    /// device time from earlier runs is excluded).
    pub device_ms: Vec<f64>,
    /// Fault-recovery account; `None` for a fault-free run.
    pub recovery: Option<RecoveryReport>,
}

impl<T> ShardedRun<T> {
    /// Total tasks completed.
    pub fn tasks(&self) -> usize {
        self.outputs.len()
    }

    /// Throughput against the makespan, in tasks per millisecond.
    pub fn throughput_per_ms(&self) -> f64 {
        throughput_per_ms(self.outputs.len(), self.makespan_ms)
    }

    /// Max-over-mean of per-device elapsed time across devices that ran
    /// work (1.0 = perfectly balanced; 0 when nothing ran).
    pub fn imbalance(&self) -> f64 {
        imbalance(self.makespan_ms, &self.device_ms)
    }
}

/// Throughput of `tasks` finished tasks against a run's makespan, in tasks
/// per millisecond (0 for an empty run).
pub fn throughput_per_ms(tasks: usize, makespan_ms: f64) -> f64 {
    if makespan_ms > 0.0 {
        tasks as f64 / makespan_ms
    } else {
        0.0
    }
}

/// A pool run's makespan over the mean elapsed time of the devices that
/// ran work (1.0 = perfectly balanced; 0 when nothing ran).
pub fn imbalance(makespan_ms: f64, device_ms: &[f64]) -> f64 {
    let active: Vec<f64> = device_ms.iter().copied().filter(|&ms| ms > 0.0).collect();
    if active.is_empty() {
        return 0.0;
    }
    makespan_ms / (active.iter().sum::<f64>() / active.len() as f64)
}

/// Folds one replay round's [`RunStats`] into a device's accumulated
/// stats. Counters and byte totals add; utilization is cycle-weighted and
/// latency task-weighted; throughput and occupancy are recomputed against
/// the merged totals; peak memory takes the max; lifecycles concatenate
/// (completion order within a round, rounds in replay order).
fn merge_stats(into: &mut Option<RunStats>, add: RunStats) {
    let Some(base) = into else {
        *into = Some(add);
        return;
    };
    let cycles = base.total_cycles + add.total_cycles;
    if cycles > 0 {
        base.mean_utilization = (base.mean_utilization * base.total_cycles as f64
            + add.mean_utilization * add.total_cycles as f64)
            / cycles as f64;
    }
    let tasks = base.tasks + add.tasks;
    if tasks > 0 {
        base.mean_latency_ms = (base.mean_latency_ms * base.tasks as f64
            + add.mean_latency_ms * add.tasks as f64)
            / tasks as f64;
    }
    base.total_cycles = cycles;
    base.total_ms += add.total_ms;
    base.tasks = tasks;
    base.throughput_per_ms = if base.total_ms > 0.0 {
        base.tasks as f64 / base.total_ms
    } else {
        0.0
    };
    base.peak_mem_bytes = base.peak_mem_bytes.max(add.peak_mem_bytes);
    base.h2d_bytes += add.h2d_bytes;
    base.d2h_bytes += add.d2h_bytes;
    if base.stage_stats.is_empty() {
        base.stage_stats = add.stage_stats;
    } else if base.stage_stats.len() == add.stage_stats.len() {
        for (s, a) in base.stage_stats.iter_mut().zip(add.stage_stats) {
            s.tasks += a.tasks;
            s.occupied_cycles += a.occupied_cycles;
            s.busy_cycles += a.busy_cycles;
            s.imbalance_stall_cycles += a.imbalance_stall_cycles;
            s.memory_stall_cycles += a.memory_stall_cycles;
            s.fill_cycles += a.fill_cycles;
            s.idle_cycles += a.idle_cycles;
            s.drain_cycles += a.drain_cycles;
            s.h2d_bytes += a.h2d_bytes;
            s.d2h_bytes += a.d2h_bytes;
            s.occupancy = if cycles > 0 {
                s.occupied_cycles as f64 / cycles as f64
            } else {
                0.0
            };
        }
    }
    base.lifecycles.extend(add.lifecycles);
}

/// Places `tasks` over the pool and runs every shard to completion, one
/// [`PipelineExecutor`] per device.
///
/// `footprint` estimates a task's peak device-memory footprint in bytes
/// (placement and the admission caps size from it; return 0 if unknown).
/// `stages` builds a fresh stage vector for a device — stages may depend
/// on the device's cost model, so the factory receives the device (it must
/// be `Sync`: device workers build their stage sets concurrently).
///
/// Devices share nothing, so each shard runs on its own host worker
/// (`batchzk-par`; thread count from `--threads` / `BATCHZK_THREADS`),
/// and each device advances its own virtual clock, so per-device times
/// represent concurrent execution; the makespan is their maximum.
/// Outputs, statistics, clocks and errors are byte-identical at any host
/// thread count — every device always runs its shard to completion (or
/// its own error), and results merge in device order.
///
/// **Fault recovery.** A device that hits a scripted recoverable fault
/// ([`PipelineError::DeviceFailed`] / [`PipelineError::KernelDropped`])
/// does not fail the run: its completed outputs are kept, the salvaged
/// remainder (in input order) is placed again over the surviving devices
/// by the same routine as the first round, and the replay loops until
/// every task completes. Stages must therefore be *replay-safe*: a
/// salvaged task restarts from stage 0, which is correct for stages that
/// overwrite their task state (as all the proof modules do) but not for
/// blind accumulation. Recovered outputs are byte-identical to a
/// fault-free run; [`ShardedRun::recovery`] reports the cost.
///
/// # Errors
///
/// Returns [`PipelineError::OutOfDeviceMemory`] (the lowest-indexed
/// failing device's) if a shard's working set does not fit its device
/// even under the admission cap; every device's allocations are released
/// before returning. OOM is *not* recovered — it is a planning defect,
/// not a device fault. Returns [`PipelineError::DeviceFailed`] only when
/// every device in the pool has fail-stopped, leaving no survivor to
/// run on.
pub fn run_sharded<T: Send>(
    pool: &mut DevicePool,
    tasks: Vec<T>,
    footprint: impl Fn(&T) -> u64,
    stages: impl Fn(&Gpu) -> Vec<BoxedStage<T>> + Sync,
    multi_stream: bool,
) -> Result<ShardedRun<T>, PipelineError> {
    let n = pool.len();
    let footprints: Vec<u64> = tasks.iter().map(&footprint).collect();
    let depth = stages(pool.device(0)).len();
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(tasks.len()).collect();
    let mut device_stats: Vec<Option<RunStats>> = (0..n).map(|_| None).collect();
    let mut device_ms = vec![0.0f64; n];
    let mut makespan_ms = 0.0f64;
    let mut recovery: Option<RecoveryReport> = None;
    let mut assignments: Vec<Vec<usize>> = Vec::new();
    // The tasks this round places, with their input indices, in input
    // order: the whole batch, then what each round's faults salvaged.
    let mut pending: Vec<(usize, T)> = tasks.into_iter().enumerate().collect();

    loop {
        let pending_fp: Vec<u64> = pending.iter().map(|&(i, _)| footprints[i]).collect();
        let Some(plan) = plan_shards(pool, &pending_fp, depth) else {
            return Err(no_survivor(pool, recovery.as_ref()));
        };
        let mut owner = vec![0usize; pending.len()];
        for (d, placed) in plan.assignments.iter().enumerate() {
            for &p in placed {
                owner[p] = d;
            }
        }
        let mut shards: Vec<Vec<(usize, T)>> = (0..n).map(|_| Vec::new()).collect();
        for (p, task) in pending.into_iter().enumerate() {
            shards[owner[p]].push(task);
        }
        if assignments.is_empty() {
            // First round: positions are input indices.
            assignments = plan.assignments;
        }

        // One round: every device drains its current shard concurrently.
        // Coarse beats fine: with several active devices and host threads
        // to spare, each device gets its own worker and the per-slot
        // fan-out inside each executor stays serial (no host
        // oversubscription). A lone active device instead hands the whole
        // thread budget to its executor's per-slot fan-out.
        let host_threads = batchzk_par::current_threads();
        let active = shards.iter().filter(|s| !s.is_empty()).count();
        let slot_threads = if host_threads > 1 && active > 1 {
            1
        } else {
            host_threads
        };

        // On a recoverable fault the worker harvests what completed and
        // salvages the rest instead of discarding the round.
        type DeviceRun<T> = (
            Vec<usize>,
            f64,
            PipelineRun<T>,
            Option<(PipelineError, Vec<T>)>,
        );
        let device_runs: Vec<DeviceRun<T>> = {
            let stages = &stages;
            let caps = &plan.max_in_flight;
            let mut items: Vec<(&mut Gpu, Vec<(usize, T)>)> =
                pool.devices_mut().iter_mut().zip(shards).collect();
            batchzk_par::par_map_mut_with(host_threads, &mut items, |d, (gpu, shard)| {
                let shard = std::mem::take(shard);
                let device_stages = stages(gpu);
                let start = gpu.elapsed_ms();
                let mut exec = PipelineExecutor::new(gpu, device_stages, multi_stream);
                exec.set_host_threads(slot_threads);
                exec.set_queue_capacity(shard.len().max(1));
                exec.set_max_in_flight(caps[d]);
                let mut indices = Vec::with_capacity(shard.len());
                for (i, task) in shard {
                    indices.push(i);
                    if exec.submit(task).is_err() {
                        unreachable!("queue sized to the shard");
                    }
                }
                let (run, fault) = match exec.drain() {
                    Ok(run) => (run, None),
                    Err(e) => {
                        let partial = exec.harvest();
                        let leftover = exec.take_pending();
                        (partial, Some((e, leftover)))
                    }
                };
                drop(exec);
                (indices, gpu.elapsed_ms() - start, run, fault)
            })
        };

        // Merge the round in device order; collect what a fault lost.
        let mut lost: Vec<(usize, T)> = Vec::new();
        let mut fatal: Option<PipelineError> = None;
        let mut round_max_ms = 0.0f64;
        for (d, (indices, elapsed, run, fault)) in device_runs.into_iter().enumerate() {
            let done = run.outputs.len();
            for (&i, out) in indices.iter().zip(run.outputs) {
                slots[i] = Some(out);
            }
            merge_stats(&mut device_stats[d], run.stats);
            device_ms[d] += elapsed;
            round_max_ms = round_max_ms.max(elapsed);
            if let Some((err, leftover)) = fault {
                match err {
                    PipelineError::DeviceFailed { .. } | PipelineError::KernelDropped { .. } => {
                        let rec = recovery.get_or_insert_with(RecoveryReport::default);
                        if matches!(err, PipelineError::DeviceFailed { .. }) {
                            if !rec.failed_devices.contains(&d) {
                                rec.failed_devices.push(d);
                            }
                        } else {
                            rec.dropped_kernels += 1;
                        }
                        rec.replayed_tasks += leftover.len();
                        rec.faults.push(err);
                        lost.extend(indices[done..].iter().copied().zip(leftover));
                    }
                    other => {
                        if fatal.is_none() {
                            fatal = Some(other);
                        }
                    }
                }
            }
        }
        // Replay rounds run after the previous round's laggard, so
        // per-round maxima accumulate into the makespan.
        makespan_ms += round_max_ms;
        if let Some(e) = fatal {
            return Err(e);
        }
        if lost.is_empty() {
            break;
        }
        recovery
            .as_mut()
            .expect("lost tasks imply a fault")
            .replay_rounds += 1;
        lost.sort_by_key(|&(i, _)| i);
        pending = lost;
    }

    let outputs: Vec<T> = slots
        .into_iter()
        .map(|s| s.expect("every task ran on exactly one device"))
        .collect();
    let device_stats: Vec<RunStats> = device_stats
        .into_iter()
        .map(|s| s.expect("every device ran in the first round"))
        .collect();
    Ok(ShardedRun {
        outputs,
        device_stats,
        assignments,
        makespan_ms,
        device_ms,
        recovery,
    })
}

/// The error of a run left with tasks and no healthy device: the run's
/// first fail-stop, or — when every device died in an earlier batch — the
/// lowest-indexed dead device's, with nothing salvaged.
fn no_survivor(pool: &DevicePool, recovery: Option<&RecoveryReport>) -> PipelineError {
    let this_run = recovery
        .into_iter()
        .flat_map(|rec| &rec.faults)
        .find(|e| matches!(e, PipelineError::DeviceFailed { .. }));
    if let Some(first) = this_run {
        return first.clone();
    }
    let at_cycle = pool
        .devices()
        .iter()
        .find_map(|gpu| match gpu.health() {
            DeviceHealth::Failed { at_cycle } => Some(at_cycle),
            _ => None,
        })
        .expect("no healthy device means a failed one");
    PipelineError::DeviceFailed {
        at_cycle,
        salvaged: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PipeStage, StageWork};
    use batchzk_gpu_sim::{DeviceHealth, DeviceProfile, Work};

    struct AddStage {
        amount: u64,
        mem: u64,
    }

    impl PipeStage<u64> for AddStage {
        fn name(&self) -> String {
            format!("add-{}", self.amount)
        }
        fn threads(&self) -> u32 {
            32
        }
        fn process(&self, task: &mut u64) -> StageWork {
            *task += self.amount;
            StageWork {
                work: Work::Uniform {
                    units: 32,
                    cycles_per_unit: 100,
                },
                h2d_bytes: 0,
                d2h_bytes: 0,
                mem_after: self.mem,
            }
        }
    }

    fn factory(mem: u64) -> impl Fn(&Gpu) -> Vec<BoxedStage<u64>> {
        move |_gpu| {
            vec![
                Box::new(AddStage { amount: 1, mem }) as BoxedStage<u64>,
                Box::new(AddStage { amount: 10, mem }),
                Box::new(AddStage { amount: 100, mem }),
            ]
        }
    }

    fn plan(pool: &DevicePool, footprints: &[u64], depth: usize) -> ShardPlan {
        plan_shards(pool, footprints, depth).expect("a healthy device")
    }

    /// On a fresh pool of identical devices with equal footprints the one
    /// placement routine is round-robin: task `i` to device `i mod N`.
    #[test]
    fn round_robin_interleaves() {
        let pool = DevicePool::homogeneous(DeviceProfile::a100(), 3);
        let plan = plan(&pool, &[64; 7], 4);
        assert_eq!(plan.assignments[0], vec![0, 3, 6]);
        assert_eq!(plan.assignments[1], vec![1, 4]);
        assert_eq!(plan.assignments[2], vec![2, 5]);
        assert_eq!(plan.max_in_flight, vec![4, 4, 4]);
    }

    #[test]
    fn least_outstanding_respects_compute_weight() {
        // An H100 next to a V100: the stronger device should take more
        // than half of a uniform batch.
        let profiles = [DeviceProfile::v100(), DeviceProfile::h100()];
        let pool = DevicePool::new(profiles.map(Gpu::new).into());
        let plan = plan(&pool, &[64; 12], 4);
        assert!(
            plan.assignments[1].len() > plan.assignments[0].len(),
            "h100 shard {} <= v100 shard {}",
            plan.assignments[1].len(),
            plan.assignments[0].len()
        );
        let total: usize = plan.assignments.iter().map(Vec::len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn memory_aware_caps_in_flight() {
        let small = DeviceProfile {
            device_mem_bytes: 300,
            ..DeviceProfile::a100()
        };
        let pool = DevicePool::homogeneous(small, 2);
        // Footprint 100: capacity/footprint - 1 = 2 resident tasks max.
        let plan = plan(&pool, &[100; 8], 4);
        assert_eq!(plan.max_in_flight, vec![2, 2]);
        let total: usize = plan.assignments.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn sharded_outputs_preserve_input_order() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 4);
        let tasks: Vec<u64> = (0..13).map(|i| i * 1000).collect();
        let run = run_sharded(&mut pool, tasks.clone(), |_| 64, factory(64), true).expect("fits");
        let expect: Vec<u64> = tasks.iter().map(|t| t + 111).collect();
        assert_eq!(run.outputs, expect);
        assert_eq!(run.tasks(), 13);
        assert!(run.makespan_ms > 0.0);
        assert!(run.imbalance() >= 1.0);
        assert_eq!(run.device_stats.len(), 4);
    }

    #[test]
    fn admission_cap_splits_the_batch_in_time() {
        // 300 bytes of device memory, 120-byte tasks, 3 stages: full
        // residency would need 3 footprints (360 bytes); the cap of one
        // resident task splits the batch in time and completes.
        let tiny = DeviceProfile {
            device_mem_bytes: 300,
            ..DeviceProfile::a100()
        };
        let mut pool = DevicePool::homogeneous(tiny, 2);
        assert_eq!(plan(&pool, &[120; 6], 3).max_in_flight, vec![1, 1]);
        let run = run_sharded(&mut pool, (0..6u64).collect(), |_| 120, factory(120), true)
            .expect("admission cap keeps residency within memory");
        assert_eq!(run.outputs, (0..6).map(|t| t + 111).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_task_still_reports_oom() {
        let tiny = DeviceProfile {
            device_mem_bytes: 100,
            ..DeviceProfile::a100()
        };
        let mut pool = DevicePool::homogeneous(tiny, 2);
        let err = run_sharded(&mut pool, vec![1u64], |_| 400, factory(400), true)
            .expect_err("a single over-capacity task cannot be split");
        assert!(matches!(err, PipelineError::OutOfDeviceMemory { .. }));
        for d in 0..2 {
            assert_eq!(pool.device(d).memory_ref().in_use(), 0, "clean on error");
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let run = run_sharded(&mut pool, Vec::<u64>::new(), |_| 64, factory(64), true)
            .expect("nothing to do");
        assert!(run.outputs.is_empty());
        assert_eq!(run.makespan_ms, 0.0);
        assert_eq!(run.imbalance(), 0.0);
    }

    #[test]
    fn two_devices_are_faster_than_one() {
        let tasks: Vec<u64> = (0..24).collect();
        let mut one = DevicePool::homogeneous(DeviceProfile::a100(), 1);
        let single = run_sharded(&mut one, tasks.clone(), |_| 64, factory(64), true).expect("fits");
        let mut two = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let dual = run_sharded(&mut two, tasks, |_| 64, factory(64), true).expect("fits");
        assert_eq!(single.outputs, dual.outputs, "identical results");
        assert!(
            dual.makespan_ms < single.makespan_ms / 1.5,
            "2 devices {} vs 1 device {}",
            dual.makespan_ms,
            single.makespan_ms
        );
    }

    /// Mixed V100 + H100 pool: once both devices carry measured history,
    /// the least-outstanding weights come from throughput actually
    /// delivered, and the faster device receives proportionally more
    /// tasks.
    #[test]
    fn measured_throughput_steers_heterogeneous_sharding() {
        let profiles = [DeviceProfile::v100(), DeviceProfile::h100()];
        let mut pool = DevicePool::new(profiles.map(Gpu::new).into());
        // Fresh pool: nameplate weights only.
        assert!(pool.measured_weight(0).is_none());
        let _ = run_sharded(&mut pool, (0..8u64).collect(), |_| 64, factory(64), true)
            .expect("priming run fits");
        // Warmed pool: both devices report measured throughput, and the
        // H100 delivered more work per virtual second on the identical
        // priming shard.
        let w_v100 = pool.measured_weight(0).expect("ran");
        let w_h100 = pool.measured_weight(1).expect("ran");
        assert!(w_h100 > w_v100, "h100 {w_h100} <= v100 {w_v100}");
        let plan = plan(&pool, &[64; 24], 3);
        let (v100, h100) = (plan.assignments[0].len(), plan.assignments[1].len());
        assert_eq!(v100 + h100, 24);
        assert!(h100 > v100, "h100 shard {h100} <= v100 shard {v100}");
        // Shares track the measured-weight ratio within one-task slack.
        let expect_h100 = 24.0 * w_h100 / (w_v100 + w_h100);
        assert!(
            (h100 as f64 - expect_h100).abs() <= 1.0,
            "h100 got {h100}, measured weights predict {expect_h100:.2}"
        );
    }

    /// A measured slowdown (a device that idles away most of its virtual
    /// time) outweighs a stronger nameplate.
    #[test]
    fn measured_weight_discounts_idle_devices() {
        let profiles = [DeviceProfile::v100(), DeviceProfile::h100()];
        let mut pool = DevicePool::new(profiles.map(Gpu::new).into());
        // Both devices execute the same work, but the H100 then idles for
        // 100x the span, tanking its delivered throughput.
        for d in 0..2 {
            let gpu = &mut pool.devices_mut()[d];
            gpu.execute_step(
                &[batchzk_gpu_sim::KernelStep::new(
                    "prime",
                    1024,
                    Work::Uniform {
                        units: 1 << 16,
                        cycles_per_unit: 100,
                    },
                )],
                &[],
                true,
            );
        }
        let h100_clock = pool.device(1).elapsed_cycles();
        pool.devices_mut()[1].idle_until(h100_clock * 100);
        assert!(
            pool.measured_weight(1).expect("ran") < pool.measured_weight(0).expect("ran"),
            "idle h100 must measure below busy v100"
        );
        let plan = plan(&pool, &[64; 12], 3);
        assert!(
            plan.assignments[0].len() > plan.assignments[1].len(),
            "measured weights should favor the busy v100: {:?}",
            plan.assignments.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    /// Each device's clock, utilization, memory and health, which must be
    /// a function of the submitted work only.
    fn device_states(pool: &DevicePool) -> Vec<(u64, f64, u64, DeviceHealth)> {
        let state = |g: &Gpu| {
            let memory = g.memory_ref().in_use();
            (g.elapsed_cycles(), g.mean_utilization(), memory, g.health())
        };
        pool.devices().iter().map(state).collect()
    }

    /// Device states — clocks, utilization, memory — are a function of
    /// the submitted work only, not of how host workers interleave: any
    /// thread count produces identical states.
    #[test]
    fn pool_snapshots_independent_of_worker_interleaving() {
        let run_at = |threads: usize| {
            batchzk_par::with_threads(threads, || {
                let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 4);
                let tasks: Vec<u64> = (0..21).map(|i| i * 3).collect();
                let run = run_sharded(&mut pool, tasks, |_| 64, factory(64), true).expect("fits");
                (device_states(&pool), run.outputs, run.device_ms)
            })
        };
        let (snap1, out1, ms1) = run_at(1);
        for threads in [2, 4] {
            let (snap, out, ms) = run_at(threads);
            assert_eq!(snap, snap1, "device states differ at {threads} threads");
            assert_eq!(out, out1, "outputs differ at {threads} threads");
            assert_eq!(ms, ms1, "device times differ at {threads} threads");
        }
    }

    /// Replay-safe stage for fault tests: OR-ing a bit is idempotent, so
    /// a salvaged task that restarts from stage 0 converges to the same
    /// value (unlike `AddStage`, which would double-count).
    struct OrStage {
        bit: u64,
    }

    impl PipeStage<u64> for OrStage {
        fn name(&self) -> String {
            format!("or-{:x}", self.bit)
        }
        fn threads(&self) -> u32 {
            32
        }
        fn process(&self, task: &mut u64) -> StageWork {
            *task |= self.bit;
            StageWork {
                work: Work::Uniform {
                    units: 32,
                    cycles_per_unit: 100,
                },
                h2d_bytes: 0,
                d2h_bytes: 0,
                mem_after: 64,
            }
        }
    }

    fn or_factory() -> impl Fn(&Gpu) -> Vec<BoxedStage<u64>> {
        |_gpu| {
            vec![
                Box::new(OrStage { bit: 0x100 }) as BoxedStage<u64>,
                Box::new(OrStage { bit: 0x200 }),
                Box::new(OrStage { bit: 0x400 }),
            ]
        }
    }

    /// The tentpole invariant: a scripted single-device fail-stop
    /// mid-batch completes on the survivor with outputs byte-identical to
    /// a fault-free run, and the recovery report accounts for the replay.
    #[test]
    fn single_fail_stop_recovers_byte_identical_outputs() {
        use batchzk_gpu_sim::FaultPlan;
        let tasks: Vec<u64> = (0..16).collect();
        let mut clean_pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let clean = run_sharded(&mut clean_pool, tasks.clone(), |_| 64, or_factory(), true)
            .expect("fault-free run completes");
        assert!(clean.recovery.is_none());

        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        // Cycle 1: device 1 fail-stops at its second step boundary, with
        // tasks in flight and most of its shard still pending.
        pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, 1));
        let run = run_sharded(&mut pool, tasks, |_| 64, or_factory(), true)
            .expect("survivor absorbs the dead device's shard");
        assert_eq!(run.outputs, clean.outputs, "recovery must be invisible");
        let rec = run.recovery.as_ref().expect("a fault fired");
        assert_eq!(rec.failed_devices, vec![1]);
        assert_eq!(rec.dropped_kernels, 0);
        assert_eq!(rec.replay_rounds, 1);
        assert!(rec.replayed_tasks > 0, "the dead shard was replayed");
        assert_eq!(rec.faults.len(), 1);
        assert!(matches!(
            rec.faults[0],
            PipelineError::DeviceFailed { salvaged, .. } if salvaged > 0
        ));
        // The dead device's memory was released by the salvage.
        assert_eq!(pool.device(1).memory_ref().in_use(), 0);
        assert!(pool.device(1).is_failed());
        // Recovery costs time: the survivor ran two rounds.
        assert!(run.makespan_ms > clean.makespan_ms);
    }

    /// When every device fail-stops there is no survivor to reshard onto:
    /// the run returns a clean `DeviceFailed` instead of hanging or
    /// panicking.
    #[test]
    fn fail_stop_of_every_device_is_a_clean_error() {
        use batchzk_gpu_sim::FaultPlan;
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        pool.apply_fault_plan(&FaultPlan::new().fail_stop(0, 0).fail_stop(1, 0));
        let err = run_sharded(&mut pool, (0..8u64).collect(), |_| 64, or_factory(), true)
            .expect_err("no survivors");
        assert!(matches!(err, PipelineError::DeviceFailed { .. }));
        // The next batch on the dead pool has nowhere to go either.
        let err = run_sharded(&mut pool, (0..8u64).collect(), |_| 64, or_factory(), true)
            .expect_err("still no survivors");
        assert_eq!(
            err,
            PipelineError::DeviceFailed {
                at_cycle: 0,
                salvaged: 0
            }
        );
    }

    /// A device that fail-stopped in an earlier batch takes no task in the
    /// next one: the survivor runs the whole batch in one round, with no
    /// fault to recover from, and no slower than a fresh one-device pool.
    #[test]
    fn dead_device_from_an_earlier_batch_gets_no_tasks() {
        use batchzk_gpu_sim::FaultPlan;
        let tasks: Vec<u64> = (0..16).collect();
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, 1));
        let first = run_sharded(&mut pool, tasks.clone(), |_| 64, or_factory(), true)
            .expect("survivor absorbs the dead device's shard");
        assert!(first.recovery.is_some());
        assert!(pool.device(1).is_failed());

        let second = run_sharded(&mut pool, tasks.clone(), |_| 64, or_factory(), true)
            .expect("survivor runs the batch");
        assert_eq!(second.assignments, vec![(0..16).collect(), vec![]]);
        assert_eq!(second.recovery, None, "no fault fired in this batch");
        let mut one = DevicePool::homogeneous(DeviceProfile::a100(), 1);
        let fresh = run_sharded(&mut one, tasks, |_| 64, or_factory(), true).expect("fits");
        assert_eq!(second.outputs, fresh.outputs);
        assert!(
            second.makespan_ms <= fresh.makespan_ms,
            "survivor {} ms vs fresh device {} ms",
            second.makespan_ms,
            fresh.makespan_ms
        );
    }

    /// A kernel-drop fault leaves the device healthy, so the replay goes
    /// back to the same device — even a single-device pool recovers.
    #[test]
    fn kernel_drop_replays_on_the_same_device() {
        use batchzk_gpu_sim::FaultPlan;
        let tasks: Vec<u64> = (0..6).collect();
        let mut clean_pool = DevicePool::homogeneous(DeviceProfile::a100(), 1);
        let clean = run_sharded(&mut clean_pool, tasks.clone(), |_| 64, or_factory(), true)
            .expect("fault-free");
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 1);
        pool.apply_fault_plan(&FaultPlan::new().drop_kernel(0, 0, 2));
        let run = run_sharded(&mut pool, tasks, |_| 64, or_factory(), true)
            .expect("drop is absorbed by replay");
        assert_eq!(run.outputs, clean.outputs);
        let rec = run.recovery.as_ref().expect("a fault fired");
        assert!(rec.failed_devices.is_empty(), "device stayed healthy");
        assert_eq!(rec.dropped_kernels, 1);
        assert_eq!(rec.replay_rounds, 1);
        assert!(matches!(
            &rec.faults[0],
            PipelineError::KernelDropped { stage, .. } if stage.starts_with("or-")
        ));
        assert!(!pool.device(0).is_failed());
    }

    /// A degraded clock is not an error: the run completes with no
    /// recovery report, just more virtual time on the slow device.
    #[test]
    fn degraded_clock_slows_but_completes_without_recovery() {
        use batchzk_gpu_sim::FaultPlan;
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        pool.apply_fault_plan(&FaultPlan::new().degraded_clock(1, 0, 300));
        let run = run_sharded(&mut pool, (0..8u64).collect(), |_| 64, or_factory(), true)
            .expect("degradation is not failure");
        assert!(run.recovery.is_none());
        assert_eq!(
            run.outputs,
            (0..8u64).map(|t| t | 0x700).collect::<Vec<_>>()
        );
        assert_eq!(pool.degraded_count(), 1);
        assert!(
            run.device_ms[1] > run.device_ms[0] * 2.0,
            "3x-degraded device {} vs healthy {}",
            run.device_ms[1],
            run.device_ms[0]
        );
    }

    /// The determinism matrix extended to faulty runs: the same fault
    /// plan at 1, 2 and 4 host threads produces byte-identical outputs,
    /// recovery reports, and per-device stats.
    #[test]
    fn faulty_runs_identical_across_thread_counts() {
        use batchzk_gpu_sim::FaultPlan;
        let run_at = |threads: usize| {
            batchzk_par::with_threads(threads, || {
                let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 3);
                pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, 2_000).drop_kernel(2, 0, 3));
                let run = run_sharded(&mut pool, (0..21u64).collect(), |_| 64, or_factory(), true)
                    .expect("recovers");
                (run, device_states(&pool))
            })
        };
        let (base, snap1) = run_at(1);
        base.recovery.as_ref().expect("the fault plan fired");
        for threads in [2, 4] {
            let (run, snap) = run_at(threads);
            assert_eq!(run.outputs, base.outputs, "threads={threads}");
            assert_eq!(run.recovery, base.recovery, "threads={threads}");
            assert_eq!(run.device_ms, base.device_ms, "threads={threads}");
            assert_eq!(snap, snap1, "threads={threads}");
            for (a, b) in run.device_stats.iter().zip(&base.device_stats) {
                assert_eq!(a.total_cycles, b.total_cycles, "threads={threads}");
                assert_eq!(a.stage_stats, b.stage_stats, "threads={threads}");
                assert_eq!(a.lifecycles, b.lifecycles, "threads={threads}");
            }
        }
    }

    /// Seeded sweep over scripted fault plans (SplitMix64; no external
    /// generator): whenever the pool keeps at least one healthy device
    /// the run must recover byte-identically to the fault-free baseline,
    /// and an all-failed pool must error cleanly — never hang, never
    /// return wrong bytes.
    #[test]
    fn scripted_fault_sweep_recovers_or_errors_cleanly() {
        use batchzk_gpu_sim::{FaultKind, FaultPlan};
        struct Rng(u64);
        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
            fn range(&mut self, lo: u64, hi: u64) -> u64 {
                lo + ((self.next() as u128 * (hi - lo) as u128) >> 64) as u64
            }
        }
        let devices = 3usize;
        let tasks: Vec<u64> = (0..18).collect();
        let mut clean_pool = DevicePool::homogeneous(DeviceProfile::a100(), devices);
        let clean = run_sharded(&mut clean_pool, tasks.clone(), |_| 64, or_factory(), true)
            .expect("baseline");

        let mut rng = Rng(0xBA7C);
        for case in 0..12 {
            let mut plan = FaultPlan::new();
            let entries = rng.range(1, 4);
            for _ in 0..entries {
                let device = rng.range(0, devices as u64) as usize;
                let at_cycle = rng.range(0, 30_000);
                let kind = match rng.range(0, 3) {
                    0 => FaultKind::FailStop,
                    1 => FaultKind::DegradedClock {
                        factor_percent: rng.range(150, 500) as u32,
                    },
                    _ => FaultKind::DropKernel {
                        nth: rng.range(1, 6) as u32,
                    },
                };
                plan.push(batchzk_gpu_sim::FaultEntry {
                    device,
                    at_cycle,
                    kind,
                });
            }
            let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), devices);
            pool.apply_fault_plan(&plan);
            match run_sharded(&mut pool, tasks.clone(), |_| 64, or_factory(), true) {
                Ok(run) => assert_eq!(
                    run.outputs, clean.outputs,
                    "case {case} plan {plan} corrupted outputs"
                ),
                Err(e) => {
                    assert!(
                        matches!(e, PipelineError::DeviceFailed { .. }),
                        "case {case} plan {plan}: unexpected error {e}"
                    );
                    assert_eq!(
                        pool.len() - pool.failed_count(),
                        0,
                        "case {case} plan {plan}: errored with survivors"
                    );
                }
            }
        }
    }

    /// The full `RunStats` of every device — cycle counts, stalls,
    /// lifecycles — are byte-identical across host thread counts.
    #[test]
    fn device_stats_identical_across_thread_counts() {
        let run_at = |threads: usize| {
            batchzk_par::with_threads(threads, || {
                let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 3);
                run_sharded(&mut pool, (0..10u64).collect(), |_| 64, factory(64), true)
                    .expect("fits")
            })
        };
        let base = run_at(1);
        for threads in [2, 4] {
            let run = run_at(threads);
            assert_eq!(run.outputs, base.outputs);
            for (a, b) in run.device_stats.iter().zip(&base.device_stats) {
                assert_eq!(a.total_cycles, b.total_cycles, "threads={threads}");
                assert_eq!(a.stage_stats, b.stage_stats, "threads={threads}");
                assert_eq!(a.lifecycles, b.lifecycles, "threads={threads}");
                assert_eq!(a.peak_mem_bytes, b.peak_mem_bytes);
                assert_eq!(a.h2d_bytes, b.h2d_bytes);
            }
        }
    }
}
