//! The generic systolic pipeline engine.
//!
//! Every pipelined module in the paper shares one execution discipline
//! (§3, §4): the computation is split into stages, each stage is a dedicated
//! GPU kernel with a fixed thread allocation, and tasks stream through the
//! stages one per cycle. At any cycle, stage `i` works on the task that
//! entered `i` cycles ago; at the end of the cycle every task advances one
//! stage and a new task (if any) enters stage 0. Except for pipeline fill
//! and drain, every kernel is busy every cycle.
//!
//! [`Pipeline::run`] drives the simulated GPU *and* performs the real
//! computation: each [`PipeStage::process`] mutates the task (hashing,
//! folding, multiplying — real arithmetic) and returns the cost description
//! the simulator charges. Alongside the run's aggregate [`RunStats`] it
//! produces one [`StageStats`] per stage — the per-stage occupancy and
//! stall decomposition behind the paper's Figure 4 timelines.

use std::collections::VecDeque;
use std::fmt;

use batchzk_gpu_sim::{Dir, Gpu, KernelStep, MemHandle, Transfer, Work};
use batchzk_metrics::Span;

/// Cost description returned by a stage for one task-cycle.
#[derive(Debug, Clone)]
pub struct StageWork {
    /// The kernel work executed this cycle.
    pub work: Work,
    /// Bytes loaded host→device for this task this cycle (dynamic loading).
    pub h2d_bytes: u64,
    /// Bytes stored device→host this cycle (dynamic storing).
    pub d2h_bytes: u64,
    /// The task's total device-memory footprint *after* this stage.
    pub mem_after: u64,
}

/// One stage of a pipelined module.
pub trait PipeStage<T> {
    /// Kernel name (appears in per-kernel statistics / Figure 4 traces).
    fn name(&self) -> String;

    /// Threads dedicated to this stage's kernel.
    fn threads(&self) -> u32;

    /// Performs the stage's real computation on `task` and returns its cost.
    fn process(&self, task: &mut T) -> StageWork;

    /// The serial phase decomposition a *kernel-per-task* baseline walks
    /// for this stage (tree layers, sum-check rounds, NTT levels, MSM
    /// windows), or `None` when the stage has no finer granularity than
    /// its aggregate [`process`](Self::process) charge. The pipelined
    /// executor never calls this; the naive runner
    /// ([`run_stages_naive`](crate::naive::run_stages_naive)) issues one
    /// device step per phase, reproducing the Figure-4a utilization
    /// collapse when late phases have fewer work units than the threads
    /// the task holds. Called after [`process`](Self::process) on the
    /// same task, so phase sizes may depend on the processed state.
    fn naive_phases(&self, task: &T) -> Option<Vec<Work>> {
        let _ = task;
        None
    }
}

/// The boxed stage type every pipeline is built from. `Send + Sync` so a
/// stage set can move to a device worker thread and be shared by the
/// host-parallel per-slot fan-out; stages hold read-only configuration
/// (costs, thread counts, `Arc`ed inputs), so the bounds are natural.
pub type BoxedStage<T> = Box<dyn PipeStage<T> + Send + Sync>;

/// Error returned by [`Pipeline::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A stage's device-memory footprint could not be allocated. All live
    /// pipeline allocations are released before this is returned, so the
    /// GPU's allocator is left clean (completed outputs are discarded).
    OutOfDeviceMemory {
        /// Name of the stage whose allocation failed.
        stage: String,
        /// Bytes the failing allocation requested.
        requested_bytes: u64,
        /// Bytes in use on the device at the time of the request.
        in_use_bytes: u64,
        /// Device capacity in bytes.
        capacity_bytes: u64,
    },
    /// The device fail-stopped (a scripted
    /// [`FaultKind::FailStop`](batchzk_gpu_sim::FaultKind::FailStop)
    /// fault armed). Unlike OOM, this error is *recoverable at the pool
    /// level*: every in-flight task was salvaged back to the front of the
    /// pending queue (in admission order, with its device memory released)
    /// before this was returned, so a scheduler can harvest completed
    /// outputs, take the pending tasks, and replay them on surviving
    /// devices.
    DeviceFailed {
        /// Device-clock cycle the fail-stop was scripted at.
        at_cycle: u64,
        /// In-flight tasks returned to the pending queue.
        salvaged: usize,
    },
    /// A scripted fault silently dropped one of the pipeline's kernel
    /// launches, so a stage's work did not execute even though its host-side
    /// computation ran. The affected step cannot be trusted: every in-flight
    /// task was salvaged back to the pending queue (as for
    /// [`DeviceFailed`](Self::DeviceFailed)) for replay from stage 0. The
    /// device itself remains healthy.
    KernelDropped {
        /// Name of the stage/kernel whose launch was dropped.
        stage: String,
        /// Device-clock cycle the drop fired at.
        at_cycle: u64,
        /// In-flight tasks returned to the pending queue.
        salvaged: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::OutOfDeviceMemory {
                stage,
                requested_bytes,
                in_use_bytes,
                capacity_bytes,
            } => write!(
                f,
                "pipeline stage `{stage}` exceeded simulated device memory: \
                 requested {requested_bytes} bytes with \
                 {in_use_bytes}/{capacity_bytes} in use"
            ),
            PipelineError::DeviceFailed { at_cycle, salvaged } => write!(
                f,
                "device fail-stopped at cycle {at_cycle}; \
                 {salvaged} in-flight task(s) salvaged for replay"
            ),
            PipelineError::KernelDropped {
                stage,
                at_cycle,
                salvaged,
            } => write!(
                f,
                "kernel launch for stage `{stage}` dropped at cycle {at_cycle}; \
                 {salvaged} in-flight task(s) salvaged for replay"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Per-stage occupancy and stall accounting for one pipeline run.
///
/// Every device cycle of the run is attributed to exactly one bucket per
/// stage, so the buckets satisfy two conservation laws:
///
/// * `busy + imbalance_stall + memory_stall == occupied_cycles`
/// * `occupied_cycles + fill_cycles + idle_cycles + drain_cycles ==`
///   the run's `total_cycles`
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageStats {
    /// Kernel/stage name.
    pub name: String,
    /// Threads dedicated to the stage.
    pub threads: u32,
    /// Tasks the stage processed (= steps it held a task).
    pub tasks: u64,
    /// Cycles the stage held a task (steady state + its share of skew).
    pub occupied_cycles: u64,
    /// Cycles the stage's own kernel was actually executing.
    pub busy_cycles: u64,
    /// Occupied cycles spent waiting for a *slower sibling stage* to finish
    /// its kernel — the paper's stage-imbalance cost (§4).
    pub imbalance_stall_cycles: u64,
    /// Occupied cycles spent waiting for host↔device transfers that the
    /// compute could not hide (PCIe backpressure).
    pub memory_stall_cycles: u64,
    /// Cycles before the first task reached this stage (pipeline fill).
    pub fill_cycles: u64,
    /// Mid-run cycles with no resident task (bubbles between tasks).
    pub idle_cycles: u64,
    /// Cycles after the last task left this stage (pipeline drain).
    pub drain_cycles: u64,
    /// Host→device bytes loaded by this stage over the run.
    pub h2d_bytes: u64,
    /// Device→host bytes stored by this stage over the run.
    pub d2h_bytes: u64,
    /// Fraction of run cycles the stage held a task (0..=1).
    pub occupancy: f64,
}

/// Aggregate results of a pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total device cycles from first load to last drain.
    pub total_cycles: u64,
    /// Total wall time in milliseconds at the device clock.
    pub total_ms: f64,
    /// Tasks completed.
    pub tasks: usize,
    /// Tasks per millisecond (the paper's throughput metric).
    pub throughput_per_ms: f64,
    /// Mean per-task latency (entry to exit) in milliseconds.
    pub mean_latency_ms: f64,
    /// Peak device memory over the run, in bytes.
    pub peak_mem_bytes: u64,
    /// Time-weighted mean core utilization (0..=1).
    pub mean_utilization: f64,
    /// Total host→device traffic in bytes.
    pub h2d_bytes: u64,
    /// Total device→host traffic in bytes.
    pub d2h_bytes: u64,
    /// Per-stage occupancy/stall breakdown, in stage order.
    pub stage_stats: Vec<StageStats>,
    /// Per-task lifecycle spans, in completion order (empty for non-pipelined
    /// baselines). Each span's stage intervals tile the task's residency, so
    /// summing a stage's cycles across spans reproduces that stage's
    /// `occupied_cycles`.
    pub lifecycles: Vec<Span>,
}

/// Outcome of [`Pipeline::run`]: the completed tasks in completion order
/// plus timing statistics.
#[derive(Debug)]
pub struct PipelineRun<T> {
    /// Completed tasks (same order they entered).
    pub outputs: Vec<T>,
    /// Statistics of the run.
    pub stats: RunStats,
}

/// The device counters a run's statistics are measured from. Both
/// schedules — the pipelined executor and the kernel-per-task runner in
/// [`crate::naive`] — open one before their first step and close it into
/// the run's [`RunStats`], so the two report through one constructor.
pub(crate) struct Epoch {
    start_cycles: u64,
    start_h2d: u64,
    start_d2h: u64,
}

impl Epoch {
    /// Starts measuring at the device's current clock and transfer totals,
    /// with the memory peak reset to what is resident now.
    pub(crate) fn open(gpu: &mut Gpu) -> Self {
        gpu.memory().reset_peak();
        Self {
            start_cycles: gpu.elapsed_cycles(),
            start_h2d: gpu.total_h2d_bytes(),
            start_d2h: gpu.total_d2h_bytes(),
        }
    }

    /// Assembles the statistics of the tasks completed since the epoch
    /// opened, one entry-to-exit latency (in cycles) per task. The mean
    /// latency is the integer mean of the cycle counts, converted to ms.
    pub(crate) fn close(
        &self,
        gpu: &Gpu,
        latencies: &[u64],
        stage_stats: Vec<StageStats>,
        lifecycles: Vec<Span>,
    ) -> RunStats {
        let tasks = latencies.len();
        let total_cycles = gpu.elapsed_cycles() - self.start_cycles;
        let total_ms = gpu.profile().cycles_to_seconds(total_cycles) * 1e3;
        let mean_latency_cycles = latencies.iter().sum::<u64>() / tasks.max(1) as u64;
        RunStats {
            total_cycles,
            total_ms,
            tasks,
            throughput_per_ms: if total_ms > 0.0 {
                tasks as f64 / total_ms
            } else {
                0.0
            },
            mean_latency_ms: gpu.profile().cycles_to_seconds(mean_latency_cycles) * 1e3,
            peak_mem_bytes: gpu.memory_ref().peak(),
            mean_utilization: gpu.mean_utilization(),
            h2d_bytes: gpu.total_h2d_bytes() - self.start_h2d,
            d2h_bytes: gpu.total_d2h_bytes() - self.start_d2h,
            stage_stats,
            lifecycles,
        }
    }
}

struct Slot<T> {
    task: T,
    mem: Option<MemHandle>,
    mem_bytes: u64,
    span: Span,
}

/// Per-stage running accumulator for [`StageStats`].
#[derive(Default)]
struct StageAcc {
    tasks: u64,
    occupied: u64,
    busy: u64,
    imbalance: u64,
    memory: u64,
    fill: u64,
    idle: u64,
    /// Unoccupied cycles since the stage last held a task; resolved into
    /// `idle` when the stage becomes occupied again, or into drain at the
    /// end of the run.
    gap: u64,
    seen: bool,
    h2d: u64,
    d2h: u64,
}

/// A persistent pipeline executor bound to a simulated GPU.
///
/// Where [`Pipeline::run`] consumes a whole batch and blocks to
/// completion, the executor keeps the pipeline resident and exposes the
/// three verbs a scheduling layer composes:
///
/// * [`submit`](Self::submit) — enqueue one task into the bounded pending
///   queue (non-blocking; hands the task back if the queue is full);
/// * [`step`](Self::step) — advance the pipeline by exactly one cycle:
///   admit at most one pending task into stage 0, execute every occupied
///   stage concurrently, retire the last stage's task;
/// * [`drain`](Self::drain) — step until the pipeline and queue are empty
///   and harvest a [`PipelineRun`] for the epoch since construction (or
///   the previous drain); the executor stays usable afterwards.
///
/// Two admission knobs back the scheduling policies in [`crate::sched`]:
/// the *queue capacity* bounds host-side backlog, and *max in-flight*
/// bounds how many tasks may be resident in stages at once — the
/// memory-aware admission lever (each in-flight task holds up to one
/// stage footprint of device memory, so capping in-flight caps the peak).
///
/// Per-slot lifecycle [`Span`]s, stage occupancy/stall accounting, and
/// the OOM error contract are identical to the old consuming `run`.
pub struct PipelineExecutor<'g, T> {
    gpu: &'g mut Gpu,
    stages: Vec<BoxedStage<T>>,
    multi_stream: bool,
    host_threads: usize,
    queue_capacity: usize,
    max_in_flight: usize,
    pending: VecDeque<T>,
    slots: Vec<Option<Slot<T>>>,
    outputs: Vec<T>,
    lifecycles: Vec<Span>,
    accs: Vec<StageAcc>,
    in_flight: usize,
    admitted: usize,
    epoch: Epoch,
}

impl<'g, T: Send> PipelineExecutor<'g, T> {
    /// Creates a resident executor. The pending queue defaults to twice
    /// the stage count and max in-flight to the stage count (no extra
    /// admission limit); both are adjustable.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(gpu: &'g mut Gpu, stages: Vec<BoxedStage<T>>, multi_stream: bool) -> Self {
        assert!(!stages.is_empty(), "a pipeline needs at least one stage");
        let num_stages = stages.len();
        let epoch = Epoch::open(gpu);
        Self {
            gpu,
            stages,
            multi_stream,
            host_threads: 1,
            queue_capacity: 2 * num_stages,
            max_in_flight: num_stages,
            pending: VecDeque::new(),
            slots: (0..num_stages).map(|_| None).collect(),
            outputs: Vec::new(),
            lifecycles: Vec::new(),
            accs: (0..num_stages).map(|_| StageAcc::default()).collect(),
            in_flight: 0,
            admitted: 0,
            epoch,
        }
    }

    /// Sets how many host threads the per-slot payload computation may fan
    /// out across (min 1; default 1 — fully inline serial processing).
    /// Each occupied slot holds a distinct in-flight task, so the payloads
    /// are independent; results are always collected back in slot order,
    /// making every output and statistic byte-identical to the serial run.
    pub fn set_host_threads(&mut self, threads: usize) {
        self.host_threads = threads.max(1);
    }

    /// Sets the pending-queue bound (min 1).
    pub fn set_queue_capacity(&mut self, capacity: usize) {
        self.queue_capacity = capacity.max(1);
    }

    /// The pending-queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Caps how many tasks may be resident in stages at once (clamped to
    /// `1..=num_stages`) — the memory-aware admission lever.
    pub fn set_max_in_flight(&mut self, max: usize) {
        self.max_in_flight = max.clamp(1, self.stages.len());
    }

    /// Tasks waiting in the pending queue.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Tasks currently resident in pipeline stages.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Pending plus in-flight — the executor's outstanding work, the
    /// quantity the scheduler's least-outstanding-work placement balances.
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.in_flight
    }

    /// True when no work is pending, resident, or awaiting harvest.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.pending.is_empty()
    }

    /// The device's elapsed virtual clock in cycles — the time base the
    /// online service layer (`crate::service`) uses to order submit/step
    /// events across a pool of executors.
    pub fn clock_cycles(&self) -> u64 {
        self.gpu.elapsed_cycles()
    }

    /// Fast-forwards the device clock to `cycle` while the executor is
    /// idle, so a request arriving after a quiet period is admitted at its
    /// virtual arrival time rather than at the clock of the last drained
    /// batch. A no-op when `cycle` is in the past or work is resident.
    pub fn idle_until(&mut self, cycle: u64) {
        if self.is_idle() {
            self.gpu.idle_until(cycle);
        }
    }

    /// Enqueues one task. Returns the task back as `Err` when the bounded
    /// queue is full — the caller decides whether to step the pipeline,
    /// back off, or shed load.
    pub fn submit(&mut self, task: T) -> Result<(), T> {
        if self.pending.len() >= self.queue_capacity {
            return Err(task);
        }
        self.pending.push_back(task);
        Ok(())
    }

    /// Advances the pipeline by one cycle. Returns `Ok(false)` — without
    /// advancing the device clock — when there is nothing to do.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::OutOfDeviceMemory`] if a stage's footprint
    /// does not fit in device memory. All pipeline allocations are
    /// released and the slots cleared (partially processed tasks are
    /// unrecoverable); queued tasks stay pending.
    ///
    /// Returns [`PipelineError::DeviceFailed`] when the device's scripted
    /// fail-stop has armed, and [`PipelineError::KernelDropped`] when a
    /// scripted fault suppressed one of this step's kernel launches. Both
    /// salvage every in-flight task back to the front of the pending queue
    /// in admission order (device memory released), so
    /// [`take_pending`](Self::take_pending) recovers exactly the
    /// not-yet-completed tasks for replay elsewhere.
    pub fn step(&mut self) -> Result<bool, PipelineError> {
        if self.in_flight == 0 && self.pending.is_empty() {
            return Ok(false);
        }
        // Observe scripted faults at the stage boundary, before any host
        // work runs: a dead device admits nothing and executes nothing.
        if let batchzk_gpu_sim::DeviceHealth::Failed { at_cycle } = self.gpu.poll_faults() {
            let salvaged = self.salvage_slots();
            return Err(PipelineError::DeviceFailed { at_cycle, salvaged });
        }
        let num_stages = self.stages.len();

        // Admit a new task into stage 0 if it is free and the in-flight
        // cap allows.
        if self.slots[0].is_none() && self.in_flight < self.max_in_flight {
            if let Some(task) = self.pending.pop_front() {
                let entry_cycle = self.gpu.elapsed_cycles();
                let mut span = Span::new(self.admitted, entry_cycle);
                span.enter_stage(&self.stages[0].name(), entry_cycle);
                self.slots[0] = Some(Slot {
                    task,
                    mem: None,
                    mem_bytes: 0,
                    span,
                });
                self.admitted += 1;
                self.in_flight += 1;
            }
        }

        // Execute all occupied stages concurrently. Each occupied slot
        // holds a *distinct* in-flight task, so the real per-slot payloads
        // (leaf hashing, round folding, column encoding) are independent
        // and fan out across the host thread pool. Results come back in
        // slot order, so the kernel list, transfers and accounting below
        // are byte-identical to the serial run at any thread count.
        let stages = &self.stages;
        let mut occupied: Vec<(usize, &mut Slot<T>)> = self
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|slot| (i, slot)))
            .collect();
        let works: Vec<StageWork> =
            batchzk_par::par_map_mut_with(self.host_threads, &mut occupied, |_, (i, slot)| {
                stages[*i].process(&mut slot.task)
            });

        let mut kernels: Vec<KernelStep> = Vec::new();
        let mut kernel_stage: Vec<usize> = Vec::new();
        let mut transfers: Vec<Transfer> = Vec::new();
        let mut mem_updates: Vec<(usize, u64)> = Vec::new();
        for ((i, slot), sw) in occupied.iter_mut().zip(works) {
            let i = *i;
            self.accs[i].h2d += sw.h2d_bytes;
            self.accs[i].d2h += sw.d2h_bytes;
            slot.span.add_bytes(sw.h2d_bytes, sw.d2h_bytes);
            kernels.push(KernelStep::new(
                stages[i].name(),
                stages[i].threads(),
                sw.work,
            ));
            kernel_stage.push(i);
            if sw.h2d_bytes > 0 {
                transfers.push(Transfer {
                    bytes: sw.h2d_bytes,
                    dir: Dir::HostToDevice,
                });
            }
            if sw.d2h_bytes > 0 {
                transfers.push(Transfer {
                    bytes: sw.d2h_bytes,
                    dir: Dir::DeviceToHost,
                });
            }
            mem_updates.push((i, sw.mem_after));
        }
        drop(occupied);

        // Apply memory footprints (alloc new before freeing old, so the
        // transient overlap of a copy shows up in the peak).
        for (i, new_bytes) in mem_updates {
            let slot = self.slots[i].as_mut().expect("slot occupied");
            if new_bytes != slot.mem_bytes {
                let new_handle = if new_bytes > 0 {
                    match self.gpu.memory().alloc(new_bytes) {
                        Ok(handle) => Some(handle),
                        Err(oom) => {
                            // Release every live pipeline allocation so
                            // the device allocator is clean for the
                            // caller, then surface the failing stage.
                            for s in self.slots.iter_mut().flatten() {
                                if let Some(handle) = s.mem.take() {
                                    self.gpu.memory().free(handle);
                                }
                            }
                            for s in self.slots.iter_mut() {
                                *s = None;
                            }
                            self.in_flight = 0;
                            return Err(PipelineError::OutOfDeviceMemory {
                                stage: self.stages[i].name(),
                                requested_bytes: oom.requested,
                                in_use_bytes: oom.in_use,
                                capacity_bytes: oom.capacity,
                            });
                        }
                    }
                } else {
                    None
                };
                if let Some(old) = slot.mem.take() {
                    self.gpu.memory().free(old);
                }
                slot.mem = new_handle;
                slot.mem_bytes = new_bytes;
            }
        }

        let out = self
            .gpu
            .execute_step(&kernels, &transfers, self.multi_stream);

        // A scripted fault may have suppressed one of this step's launches:
        // the stage's host-side computation ran but the device work did
        // not, so the step's results are untrusted. Salvage everything in
        // flight for replay from stage 0 (all task state is recomputed on
        // replay) and skip this step's stage accounting — the faulted
        // step's cycles stay attributed to the run total only, which the
        // per-epoch conservation laws tolerate because the epoch ends here.
        let dropped = self.gpu.take_dropped_kernels();
        if let Some(drop) = dropped.into_iter().next() {
            let salvaged = self.salvage_slots();
            return Err(PipelineError::KernelDropped {
                stage: drop.name,
                at_cycle: drop.at_cycle,
                salvaged,
            });
        }

        // Attribute this step's cycles to each stage's buckets. A
        // stage's own kernel span is the simulator's own figure for it
        // (`Gpu::kernel_span_cycles`, never above the step's compute
        // span); the remainder of the step is either sibling imbalance
        // (compute - own) or transfer backpressure (step - compute).
        let total_threads: u64 = kernels
            .iter()
            .filter(|k| !k.work.is_empty())
            .map(|k| k.threads as u64)
            .sum();
        let occupied_this_step: Vec<bool> = {
            let mut v = vec![false; num_stages];
            for &i in &kernel_stage {
                v[i] = true;
            }
            v
        };
        let step_len = out.step_cycles;
        let compute = out.compute_cycles;
        for i in 0..num_stages {
            let acc = &mut self.accs[i];
            if occupied_this_step[i] {
                acc.seen = true;
                acc.idle += acc.gap;
                acc.gap = 0;
                acc.tasks += 1;
                acc.occupied += step_len;
                let k = &kernels[kernel_stage.iter().position(|&s| s == i).expect("occupied")];
                let own = if k.work.is_empty() {
                    0
                } else {
                    self.gpu.kernel_span_cycles(k, total_threads)
                };
                acc.busy += own;
                acc.imbalance += compute - own;
                acc.memory += step_len - compute;
            } else if acc.seen {
                acc.gap += step_len;
            } else {
                acc.fill += step_len;
            }
        }

        // Advance: the last stage's task exits, everyone shifts by one.
        let now = self.gpu.elapsed_cycles();
        if let Some(mut slot) = self.slots[num_stages - 1].take() {
            if let Some(handle) = slot.mem {
                self.gpu.memory().free(handle);
            }
            slot.span.exit_stage(now);
            slot.span.complete(now);
            self.lifecycles.push(slot.span);
            self.outputs.push(slot.task);
            self.in_flight -= 1;
        }
        for i in (1..num_stages).rev() {
            if self.slots[i].is_none() {
                if let Some(mut slot) = self.slots[i - 1].take() {
                    slot.span.exit_stage(now);
                    slot.span.enter_stage(&self.stages[i].name(), now);
                    self.slots[i] = Some(slot);
                }
            }
        }
        Ok(true)
    }

    /// Returns every in-flight task to the *front* of the pending queue and
    /// frees its device memory, reporting how many were salvaged. Slots are
    /// walked shallowest-first so the deepest (earliest-admitted) task ends
    /// up at the queue front — the pending queue regains exact admission
    /// order, which is what lets a scheduler map salvaged tasks back to
    /// their original batch positions without tagging them. The queue may
    /// transiently exceed its capacity here; the capacity only bounds
    /// [`submit`](Self::submit).
    fn salvage_slots(&mut self) -> usize {
        let mut salvaged = 0;
        for i in 0..self.slots.len() {
            if let Some(mut slot) = self.slots[i].take() {
                if let Some(handle) = slot.mem.take() {
                    self.gpu.memory().free(handle);
                }
                self.pending.push_front(slot.task);
                salvaged += 1;
            }
        }
        self.in_flight = 0;
        salvaged
    }

    /// Removes and returns every pending task in queue order. After a
    /// recoverable fault ([`PipelineError::DeviceFailed`] /
    /// [`PipelineError::KernelDropped`]) this is exactly the batch suffix
    /// that did not complete, in admission order — the slice a pool
    /// scheduler reshards onto surviving devices.
    pub fn take_pending(&mut self) -> Vec<T> {
        std::mem::take(&mut self.pending).into()
    }

    /// Steps until the pipeline and pending queue are empty, then harvests
    /// the epoch's completed tasks and statistics. The executor remains
    /// usable: a subsequent `submit`/`drain` starts a fresh epoch on the
    /// same (still-advancing) device clock.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::OutOfDeviceMemory`] if a stage's footprint
    /// does not fit in device memory; all pipeline allocations are
    /// released before returning (completed outputs are discarded). On a
    /// recoverable fault ([`PipelineError::DeviceFailed`] /
    /// [`PipelineError::KernelDropped`]) the caller can still
    /// [`harvest`](Self::harvest) the tasks completed before the fault and
    /// [`take_pending`](Self::take_pending) the salvaged remainder.
    pub fn drain(&mut self) -> Result<PipelineRun<T>, PipelineError> {
        while self.step()? {}
        Ok(self.harvest())
    }

    /// Harvests the epoch since construction or the previous harvest:
    /// completed tasks in completion order plus their statistics. Resets
    /// the accumulators; tasks still pending or in flight are carried into
    /// the next epoch (drain first for a clean cut).
    pub fn harvest(&mut self) -> PipelineRun<T> {
        let total_cycles = self.gpu.elapsed_cycles() - self.epoch.start_cycles;
        let accs = std::mem::replace(
            &mut self.accs,
            (0..self.stages.len())
                .map(|_| StageAcc::default())
                .collect(),
        );
        let stage_stats = self
            .stages
            .iter()
            .zip(accs)
            .map(|(stage, acc)| StageStats {
                name: stage.name(),
                threads: stage.threads(),
                tasks: acc.tasks,
                occupied_cycles: acc.occupied,
                busy_cycles: acc.busy,
                imbalance_stall_cycles: acc.imbalance,
                memory_stall_cycles: acc.memory,
                fill_cycles: acc.fill,
                idle_cycles: acc.idle,
                // Whatever gap was still open when the epoch ended is drain.
                drain_cycles: acc.gap,
                h2d_bytes: acc.h2d,
                d2h_bytes: acc.d2h,
                occupancy: if total_cycles > 0 {
                    acc.occupied as f64 / total_cycles as f64
                } else {
                    0.0
                },
            })
            .collect();
        let lifecycles = std::mem::take(&mut self.lifecycles);
        let latencies: Vec<u64> = lifecycles.iter().map(Span::total_cycles).collect();
        let stats = self
            .epoch
            .close(self.gpu, &latencies, stage_stats, lifecycles);
        let outputs = std::mem::take(&mut self.outputs);
        self.admitted = 0;
        self.epoch = Epoch::open(self.gpu);
        PipelineRun { outputs, stats }
    }
}

/// A configured pipeline bound to a simulated GPU — the batch-at-a-time
/// compatibility facade over [`PipelineExecutor`].
pub struct Pipeline<'g, T> {
    gpu: &'g mut Gpu,
    stages: Vec<BoxedStage<T>>,
    multi_stream: bool,
}

impl<'g, T: Send> Pipeline<'g, T> {
    /// Creates a pipeline from its stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(gpu: &'g mut Gpu, stages: Vec<BoxedStage<T>>, multi_stream: bool) -> Self {
        assert!(!stages.is_empty(), "a pipeline needs at least one stage");
        Self {
            gpu,
            stages,
            multi_stream,
        }
    }

    /// Streams `tasks` through the pipeline: one task enters per cycle, all
    /// occupied stages execute concurrently, and one task exits per cycle
    /// once the pipeline is full. Thin wrapper over [`PipelineExecutor`]:
    /// submit everything, drain once.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::OutOfDeviceMemory`] if a stage's footprint
    /// does not fit in device memory; all pipeline allocations are released
    /// before returning.
    pub fn run(self, tasks: Vec<T>) -> Result<PipelineRun<T>, PipelineError> {
        let Pipeline {
            gpu,
            stages,
            multi_stream,
        } = self;
        let mut executor = PipelineExecutor::new(gpu, stages, multi_stream);
        executor.set_host_threads(batchzk_par::current_threads());
        executor.set_queue_capacity(tasks.len().max(1));
        for task in tasks {
            if executor.submit(task).is_err() {
                unreachable!("queue sized to the whole batch");
            }
        }
        executor.drain()
    }
}

/// Splits `total_threads` across stages proportionally to their work
/// weights, guaranteeing at least one thread per stage — the paper's §4
/// allocation rule ("we allocate 2240 = 35×64, 768 = 12×64, and
/// 7296 = 113×64 threads...").
pub fn allocate_threads(total_threads: u32, weights: &[u64]) -> Vec<u32> {
    assert!(!weights.is_empty(), "need at least one stage weight");
    let total_weight: u64 = weights.iter().sum::<u64>().max(1);
    let mut out: Vec<u32> = weights
        .iter()
        .map(|&w| {
            let share = (total_threads as u64 * w) / total_weight;
            share.max(1) as u32
        })
        .collect();
    // Trim any overshoot caused by the min-1 clamp, largest first.
    let mut sum: u32 = out.iter().sum();
    while sum > total_threads.max(weights.len() as u32) {
        let (idx, _) = out
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .expect("non-empty");
        out[idx] -= 1;
        sum -= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_gpu_sim::DeviceProfile;

    /// A trivial stage that adds a constant to a u64 task.
    struct AddStage {
        amount: u64,
        threads: u32,
        cycles: u64,
    }

    impl PipeStage<u64> for AddStage {
        fn name(&self) -> String {
            format!("add-{}", self.amount)
        }
        fn threads(&self) -> u32 {
            self.threads
        }
        fn process(&self, task: &mut u64) -> StageWork {
            *task += self.amount;
            StageWork {
                work: Work::Uniform {
                    units: self.threads as u64,
                    cycles_per_unit: self.cycles,
                },
                h2d_bytes: 0,
                d2h_bytes: 0,
                mem_after: 64,
            }
        }
    }

    fn three_stage(gpu: &mut Gpu) -> Pipeline<'_, u64> {
        let stages: Vec<BoxedStage<u64>> = vec![
            Box::new(AddStage {
                amount: 1,
                threads: 32,
                cycles: 100,
            }),
            Box::new(AddStage {
                amount: 10,
                threads: 32,
                cycles: 100,
            }),
            Box::new(AddStage {
                amount: 100,
                threads: 32,
                cycles: 100,
            }),
        ];
        Pipeline::new(gpu, stages, true)
    }

    #[test]
    fn tasks_pass_through_all_stages_in_order() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = three_stage(&mut gpu)
            .run(vec![0, 1000, 2000])
            .expect("fits");
        assert_eq!(run.outputs, vec![111, 1111, 2111]);
        assert_eq!(run.stats.tasks, 3);
    }

    #[test]
    fn pipeline_overlaps_tasks() {
        // m tasks through s stages takes m + s - 1 cycles, not m * s.
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = three_stage(&mut gpu).run((0..10).collect()).expect("fits");
        // Each cycle costs the same; total cycles / per-cycle cost = 12.
        let per_cycle = run.stats.total_cycles / 12;
        assert!(
            run.stats.total_cycles >= per_cycle * 12 && run.stats.total_cycles < per_cycle * 13,
            "expected ~12 uniform cycles, got {}",
            run.stats.total_cycles
        );
    }

    #[test]
    fn empty_task_list() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = three_stage(&mut gpu).run(vec![]).expect("fits");
        assert!(run.outputs.is_empty());
        assert_eq!(run.stats.total_cycles, 0);
        assert_eq!(run.stats.stage_stats.len(), 3);
        assert!(run.stats.stage_stats.iter().all(|s| s.occupancy == 0.0));
    }

    #[test]
    fn single_task_latency_equals_total() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = three_stage(&mut gpu).run(vec![7]).expect("fits");
        assert_eq!(run.outputs, vec![118]);
        assert!((run.stats.mean_latency_ms - run.stats.total_ms).abs() < 1e-9);
    }

    #[test]
    fn memory_is_freed_on_exit() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = three_stage(&mut gpu).run((0..5).collect()).expect("fits");
        assert!(run.stats.peak_mem_bytes >= 64);
        assert_eq!(gpu.memory_ref().in_use(), 0, "all task memory released");
        // Peak is bounded by stages * per-task footprint (3 * 64) plus the
        // transient alloc-before-free overlap of one stage (64).
        assert!(run.stats.peak_mem_bytes <= 4 * 64);
    }

    #[test]
    fn out_of_memory_reports_stage_and_releases_allocations() {
        let mut gpu = Gpu::new(DeviceProfile {
            device_mem_bytes: 100,
            ..DeviceProfile::v100()
        });
        let err = three_stage(&mut gpu).run(vec![0, 1, 2]).unwrap_err();
        let PipelineError::OutOfDeviceMemory {
            stage,
            requested_bytes,
            in_use_bytes,
            capacity_bytes,
        } = err.clone()
        else {
            panic!("expected OOM, got {err:?}");
        };
        // The second admitted task's stage-0 allocation collides with the
        // first task's footprint still resident downstream.
        assert_eq!(stage, "add-1");
        assert_eq!(requested_bytes, 64);
        assert_eq!(in_use_bytes, 64);
        assert_eq!(capacity_bytes, 100);
        assert!(err.to_string().contains("add-1"));
        assert_eq!(gpu.memory_ref().in_use(), 0, "error path released memory");
    }

    #[test]
    fn stage_stats_satisfy_conservation_laws() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let stages: Vec<BoxedStage<u64>> = vec![
            Box::new(AddStage {
                amount: 1,
                threads: 64,
                cycles: 50,
            }),
            Box::new(AddStage {
                amount: 10,
                threads: 32,
                cycles: 400,
            }),
            Box::new(AddStage {
                amount: 100,
                threads: 32,
                cycles: 100,
            }),
        ];
        let run = Pipeline::new(&mut gpu, stages, true)
            .run((0..7).collect())
            .expect("fits");
        let total = run.stats.total_cycles;
        assert_eq!(run.stats.stage_stats.len(), 3);
        for s in &run.stats.stage_stats {
            assert_eq!(s.tasks, 7);
            assert!(s.occupancy > 0.0 && s.occupancy <= 1.0, "{s:?}");
            assert_eq!(
                s.busy_cycles + s.imbalance_stall_cycles + s.memory_stall_cycles,
                s.occupied_cycles,
                "occupied split: {s:?}"
            );
            assert_eq!(
                s.occupied_cycles + s.fill_cycles + s.idle_cycles + s.drain_cycles,
                total,
                "run split: {s:?}"
            );
        }
        let [a, b, c] = &run.stats.stage_stats[..] else {
            panic!("three stages")
        };
        // Stage 0 fills first and drains longest; stage 2 the reverse.
        assert_eq!(a.fill_cycles, 0);
        assert!(c.fill_cycles > 0);
        assert!(a.drain_cycles > 0);
        assert_eq!(c.drain_cycles, 0);
        // The slow middle stage dominates: it stalls least on imbalance.
        assert!(b.imbalance_stall_cycles < a.imbalance_stall_cycles);
        assert!(b.imbalance_stall_cycles < c.imbalance_stall_cycles);
        assert!(b.busy_cycles > a.busy_cycles);
    }

    #[test]
    fn stage_busy_cycles_equal_the_simulators_kernel_spans() {
        // The engine attributes to a stage exactly the span the simulator
        // records for its kernel, including when both scalings apply: a
        // 64-core device oversubscribed by 3 × 32 threads, throttled 3×.
        let profile = DeviceProfile {
            cuda_cores: 64,
            ..DeviceProfile::v100()
        };
        let mut gpu = Gpu::with_trace_level(profile, batchzk_gpu_sim::TraceLevel::Full);
        gpu.push_fault(
            0,
            batchzk_gpu_sim::FaultKind::DegradedClock {
                factor_percent: 300,
            },
        );
        let stages: Vec<BoxedStage<u64>> = [(1, 100), (10, 170), (100, 30)]
            .into_iter()
            .map(|(amount, cycles)| {
                Box::new(AddStage {
                    amount,
                    threads: 32,
                    cycles,
                }) as BoxedStage<u64>
            })
            .collect();
        let run = Pipeline::new(&mut gpu, stages, true)
            .run((0..7).collect())
            .expect("fits");
        for s in &run.stats.stage_stats {
            let spans: u64 = gpu
                .kernel_events()
                .iter()
                .filter(|e| e.name == s.name)
                .map(|e| e.duration_cycles)
                .sum();
            assert!(s.busy_cycles > 0, "{s:?}");
            assert_eq!(s.busy_cycles, spans, "stage {}", s.name);
        }
    }

    #[test]
    fn stage_transfer_bytes_sum_to_run_totals() {
        struct LoadStage;
        impl PipeStage<u64> for LoadStage {
            fn name(&self) -> String {
                "load".into()
            }
            fn threads(&self) -> u32 {
                32
            }
            fn process(&self, _task: &mut u64) -> StageWork {
                StageWork {
                    work: Work::Uniform {
                        units: 32,
                        cycles_per_unit: 10,
                    },
                    h2d_bytes: 1024,
                    d2h_bytes: 128,
                    mem_after: 0,
                }
            }
        }
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let stages: Vec<BoxedStage<u64>> = vec![Box::new(LoadStage), Box::new(LoadStage)];
        let run = Pipeline::new(&mut gpu, stages, true)
            .run((0..6).collect())
            .expect("fits");
        let h2d: u64 = run.stats.stage_stats.iter().map(|s| s.h2d_bytes).sum();
        let d2h: u64 = run.stats.stage_stats.iter().map(|s| s.d2h_bytes).sum();
        assert_eq!(h2d, run.stats.h2d_bytes);
        assert_eq!(d2h, run.stats.d2h_bytes);
        assert_eq!(h2d, 2 * 6 * 1024);
    }

    #[test]
    fn allocate_threads_proportional() {
        // The paper's example: ratio 35:12:113 over 10240 threads.
        let alloc = allocate_threads(10240, &[35, 12, 113]);
        assert_eq!(alloc.len(), 3);
        let sum: u32 = alloc.iter().sum();
        assert!(sum <= 10240 && sum > 10000, "sum={sum}");
        assert!((alloc[0] as f64 / alloc[1] as f64 - 35.0 / 12.0).abs() < 0.1);
        assert!((alloc[2] as f64 / alloc[0] as f64 - 113.0 / 35.0).abs() < 0.1);
    }

    #[test]
    fn allocate_threads_minimum_one() {
        let alloc = allocate_threads(4, &[1000, 1, 1, 1]);
        assert!(alloc.iter().all(|&t| t >= 1));
    }

    #[test]
    fn lifecycle_spans_tile_stage_occupancy() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let run = three_stage(&mut gpu).run((0..9).collect()).expect("fits");
        assert_eq!(run.stats.lifecycles.len(), 9);
        for (i, span) in run.stats.lifecycles.iter().enumerate() {
            assert_eq!(span.index, i, "completion order == admission order");
            assert!(span.completed_cycle.is_some());
            assert_eq!(span.stages.len(), 3, "one stage span per stage");
            let tiled: u64 = span.stages.iter().map(|s| s.cycles()).sum();
            assert_eq!(tiled, span.total_cycles(), "stage spans tile residency");
        }
        // Summing a stage's cycles across all spans reproduces the stage's
        // occupied-cycle accounting exactly.
        for s in &run.stats.stage_stats {
            let spans = run.stats.lifecycles.iter().flat_map(|sp| &sp.stages);
            let from_spans: u64 = spans
                .filter(|st| st.stage == s.name)
                .map(|st| st.cycles())
                .sum();
            assert_eq!(from_spans, s.occupied_cycles, "stage {}", s.name);
        }
    }

    #[test]
    fn mean_utilization_high_in_steady_state() {
        // Balanced stages + many tasks => most thread-cycles useful.
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let stages: Vec<BoxedStage<u64>> = (0..4)
            .map(|i| {
                Box::new(AddStage {
                    amount: i,
                    threads: 1280,
                    cycles: 50_000,
                }) as BoxedStage<u64>
            })
            .collect();
        let run = Pipeline::new(&mut gpu, stages, true)
            .run((0..64).collect())
            .expect("fits");
        assert!(
            run.stats.mean_utilization > 0.8,
            "steady-state utilization {}",
            run.stats.mean_utilization
        );
    }

    fn three_stages() -> Vec<BoxedStage<u64>> {
        vec![
            Box::new(AddStage {
                amount: 1,
                threads: 32,
                cycles: 100,
            }),
            Box::new(AddStage {
                amount: 10,
                threads: 32,
                cycles: 100,
            }),
            Box::new(AddStage {
                amount: 100,
                threads: 32,
                cycles: 100,
            }),
        ]
    }

    #[test]
    fn executor_matches_consuming_run_cycle_for_cycle() {
        let tasks: Vec<u64> = (0..10).collect();
        let mut g1 = Gpu::new(DeviceProfile::v100());
        let via_run = three_stage(&mut g1).run(tasks.clone()).expect("fits");
        let mut g2 = Gpu::new(DeviceProfile::v100());
        let mut exec = PipelineExecutor::new(&mut g2, three_stages(), true);
        exec.set_queue_capacity(tasks.len());
        for t in tasks {
            exec.submit(t).expect("queue sized to batch");
        }
        let via_exec = exec.drain().expect("fits");
        assert_eq!(via_run.outputs, via_exec.outputs);
        assert_eq!(via_run.stats.total_cycles, via_exec.stats.total_cycles);
        assert_eq!(via_run.stats.stage_stats, via_exec.stats.stage_stats);
        assert_eq!(g1.elapsed_cycles(), g2.elapsed_cycles());
    }

    #[test]
    fn executor_bounded_queue_hands_task_back() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut exec = PipelineExecutor::new(&mut gpu, three_stages(), true);
        exec.set_queue_capacity(2);
        assert_eq!(exec.submit(1), Ok(()));
        assert_eq!(exec.submit(2), Ok(()));
        assert_eq!(exec.submit(3), Err(3), "full queue returns the task");
        // One step admits a task, freeing a queue slot.
        assert!(exec.step().expect("fits"));
        assert_eq!(exec.submit(3), Ok(()));
        let run = exec.drain().expect("fits");
        assert_eq!(run.outputs, vec![112, 113, 114]);
    }

    #[test]
    fn executor_max_in_flight_caps_residency_and_memory() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut exec = PipelineExecutor::new(&mut gpu, three_stages(), true);
        exec.set_queue_capacity(16);
        exec.set_max_in_flight(1);
        for t in 0..8u64 {
            exec.submit(t).expect("capacity 16");
        }
        let run = exec.drain().expect("fits");
        assert_eq!(run.outputs, (0..8).map(|t| t + 111).collect::<Vec<_>>());
        // With one task resident at a time the peak is one footprint plus
        // the transient alloc-before-free overlap, not stages * footprint.
        assert!(
            run.stats.peak_mem_bytes <= 2 * 64,
            "peak {}",
            run.stats.peak_mem_bytes
        );
    }

    #[test]
    fn executor_step_is_noop_when_idle() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut exec = PipelineExecutor::new(&mut gpu, three_stages(), true);
        assert!(exec.is_idle());
        assert!(!exec.step().expect("nothing to do"));
        assert_eq!(exec.gpu.elapsed_cycles(), 0, "idle step keeps the clock");
    }

    #[test]
    fn executor_epochs_are_independent() {
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut exec = PipelineExecutor::new(&mut gpu, three_stages(), true);
        exec.set_queue_capacity(8);
        for t in 0..4u64 {
            exec.submit(t).expect("fits");
        }
        let first = exec.drain().expect("fits");
        assert_eq!(first.stats.tasks, 4);
        for t in 0..2u64 {
            exec.submit(t).expect("fits");
        }
        let second = exec.drain().expect("fits");
        assert_eq!(second.stats.tasks, 2, "epoch stats reset on drain");
        assert_eq!(second.outputs, vec![111, 112]);
        assert_eq!(second.stats.lifecycles.len(), 2);
        assert_eq!(second.stats.lifecycles[0].index, 0, "spans renumbered");
        for s in &second.stats.stage_stats {
            assert_eq!(s.tasks, 2);
            assert_eq!(
                s.occupied_cycles + s.fill_cycles + s.idle_cycles + s.drain_cycles,
                second.stats.total_cycles,
                "conservation holds within the second epoch: {s:?}"
            );
        }
    }

    #[test]
    fn executor_oom_keeps_pending_tasks() {
        let mut gpu = Gpu::new(DeviceProfile {
            device_mem_bytes: 100,
            ..DeviceProfile::v100()
        });
        let mut exec = PipelineExecutor::new(&mut gpu, three_stages(), true);
        exec.set_queue_capacity(8);
        for t in 0..4u64 {
            exec.submit(t).expect("fits");
        }
        let err = exec.drain().expect_err("100 bytes cannot hold two tasks");
        assert!(matches!(err, PipelineError::OutOfDeviceMemory { .. }));
        assert_eq!(exec.in_flight(), 0, "slots cleared on OOM");
        assert!(exec.pending_len() > 0, "queued tasks survive the OOM");
        assert_eq!(exec.gpu.memory_ref().in_use(), 0);
        // Capping in-flight to one task lets the remaining work complete.
        // Two tasks were in flight when the second's stage-0 allocation
        // collided with the first's resident footprint; those are lost.
        exec.set_max_in_flight(1);
        let run = exec.drain().expect("one footprint fits");
        assert_eq!(run.outputs.len(), 2);
    }

    /// Restart-safe stage for fault tests: OR-ing a bit is idempotent, so a
    /// task salvaged mid-pipeline and replayed from stage 0 converges to
    /// the same value as an uninterrupted pass (matching the real proving
    /// stages, which overwrite their intermediates).
    struct OrStage {
        bit: u64,
        threads: u32,
        cycles: u64,
    }

    impl PipeStage<u64> for OrStage {
        fn name(&self) -> String {
            format!("or-{}", self.bit)
        }
        fn threads(&self) -> u32 {
            self.threads
        }
        fn process(&self, task: &mut u64) -> StageWork {
            *task |= self.bit;
            StageWork {
                work: Work::Uniform {
                    units: self.threads as u64,
                    cycles_per_unit: self.cycles,
                },
                h2d_bytes: 0,
                d2h_bytes: 0,
                mem_after: 64,
            }
        }
    }

    fn or_stages() -> Vec<BoxedStage<u64>> {
        (0..3)
            .map(|i| {
                Box::new(OrStage {
                    bit: 1 << (i + 8),
                    threads: 32,
                    cycles: 100,
                }) as BoxedStage<u64>
            })
            .collect()
    }

    #[test]
    fn fail_stop_salvages_in_flight_tasks_in_admission_order() {
        use batchzk_gpu_sim::FaultKind;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut exec = PipelineExecutor::new(&mut gpu, or_stages(), true);
        exec.set_queue_capacity(8);
        for t in 1..=6u64 {
            exec.submit(t).expect("fits");
        }
        // Two fill steps put two tasks in flight (none completed yet),
        // then the device fails.
        for _ in 0..2 {
            exec.step().expect("healthy");
        }
        assert_eq!(exec.in_flight(), 2);
        let now = exec.gpu.elapsed_cycles();
        exec.gpu.push_fault(now, FaultKind::FailStop);
        let err = exec.step().expect_err("device dead");
        assert_eq!(
            err,
            PipelineError::DeviceFailed {
                at_cycle: now,
                salvaged: 2
            }
        );
        assert!(err.to_string().contains("fail-stopped"));
        assert_eq!(exec.in_flight(), 0);
        assert_eq!(exec.gpu.memory_ref().in_use(), 0, "salvage frees memory");
        // Salvage restores exact admission order: in-flight tasks (1,2,3,
        // partially processed) ahead of never-admitted ones (4,5,6).
        let pending = exec.take_pending();
        assert_eq!(pending.len(), 6);
        assert_eq!(
            pending.iter().map(|t| t & 0xff).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6]
        );
        // Nothing completed before the fault.
        let partial = exec.harvest();
        assert!(partial.outputs.is_empty());
    }

    #[test]
    fn fail_stop_mid_batch_keeps_completed_outputs() {
        use batchzk_gpu_sim::FaultKind;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut exec = PipelineExecutor::new(&mut gpu, or_stages(), true);
        exec.set_queue_capacity(8);
        for t in 1..=6u64 {
            exec.submit(t).expect("fits");
        }
        // Five steps complete three tasks (depth 3: a task retires at the
        // end of its third step).
        for _ in 0..5 {
            exec.step().expect("healthy");
        }
        exec.gpu
            .push_fault(exec.gpu.elapsed_cycles(), FaultKind::FailStop);
        assert!(matches!(
            exec.step(),
            Err(PipelineError::DeviceFailed { .. })
        ));
        let partial = exec.harvest();
        assert_eq!(partial.outputs, vec![1 | 0x700, 2 | 0x700, 3 | 0x700]);
        let pending = exec.take_pending();
        assert_eq!(
            pending.iter().map(|t| t & 0xff).collect::<Vec<_>>(),
            vec![4, 5, 6],
            "completed prefix + salvaged suffix tile the batch"
        );
    }

    #[test]
    fn dropped_kernel_surfaces_stage_and_salvages() {
        use batchzk_gpu_sim::FaultKind;
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut exec = PipelineExecutor::new(&mut gpu, or_stages(), true);
        exec.set_queue_capacity(8);
        for t in 1..=4u64 {
            exec.submit(t).expect("fits");
        }
        // Step 1 launches one kernel (or-256); drop the second launch,
        // which is step 2's deeper stage set.
        exec.gpu.push_fault(0, FaultKind::DropKernel { nth: 2 });
        exec.step().expect("first launch survives");
        let err = exec.step().expect_err("second launch dropped");
        let PipelineError::KernelDropped {
            stage, salvaged, ..
        } = &err
        else {
            panic!("expected KernelDropped, got {err:?}");
        };
        assert!(stage.starts_with("or-"), "stage name surfaced: {stage}");
        assert_eq!(*salvaged, 2);
        assert!(err.to_string().contains("dropped"));
        // The device stays healthy: replaying the salvaged tasks on the
        // same executor completes and produces fully-processed values.
        assert!(!exec.gpu.is_failed());
        let _ = exec.harvest();
        let run = exec.drain().expect("replay completes");
        assert_eq!(run.outputs.len(), 4);
        assert!(run.outputs.iter().all(|t| t & 0x700 == 0x700));
    }
}
