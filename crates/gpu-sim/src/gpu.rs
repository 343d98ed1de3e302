//! The cycle-level execution engine: kernels, warps, streams and the
//! simulation clock.
//!
//! The simulator advances in *steps* (the paper's pipeline cycles). In each
//! step the caller submits the set of concurrently-resident kernels — each
//! with its dedicated thread allocation, exactly the paper's model where
//! "once GPU kernels are launched, they solely focus on completing their
//! assigned tasks" — plus any host↔device transfers. The engine computes how
//! many device cycles the step occupies, applying:
//!
//! * **warp SIMD semantics** — threads execute in 32-lane warps; a warp's
//!   cost is the maximum over its lanes (divergence/imbalance is paid, §3.3);
//! * **dedicated thread allocations** — kernels run concurrently; the step's
//!   compute time is the *maximum* over kernels, scaled if the total thread
//!   count oversubscribes the physical cores;
//! * **copy/compute overlap** — with multi-stream enabled, the per-direction
//!   copy engines run concurrently with compute (Table 9); without it,
//!   transfers serialize.
//!
//! Busy/idle accounting per step yields the utilization traces of
//! Figures 4 and 9.

use std::collections::BTreeMap;

use crate::cost::CostModel;
use crate::fault::{DeviceHealth, DroppedKernel, FaultEvent, FaultKind};
use crate::memory::DeviceMemory;
use crate::profile::DeviceProfile;
use crate::trace::{KernelEvent, StepEvent, TraceLevel, TransferEvent};

/// Warp width (threads per warp).
pub const WARP_SIZE: u32 = 32;

/// Work submitted to one kernel for one step.
#[derive(Debug, Clone)]
pub enum Work {
    /// `units` identical items of `cycles_per_unit` each, distributed
    /// round-robin across the kernel's threads (perfectly coalesced work —
    /// the shape of Merkle layers and sum-check rounds).
    Uniform {
        /// Number of work items.
        units: u64,
        /// Cycles per item.
        cycles_per_unit: u64,
    },
    /// Explicit per-item costs assigned to threads in submission order
    /// (items `0..threads` form wave 0, etc.). Warp SIMD cost applies within
    /// each 32-lane group — the shape of sparse-matrix rows in the encoder.
    Items(Vec<u64>),
}

impl Work {
    /// Total useful cycles in this work, ignoring scheduling.
    fn useful_cycles(&self) -> u64 {
        match self {
            Work::Uniform {
                units,
                cycles_per_unit,
            } => units * cycles_per_unit,
            Work::Items(items) => items.iter().sum(),
        }
    }

    /// True when there is nothing to execute; a kernel with empty work is
    /// not launched (no launch overhead, no threads pinned, no trace event).
    pub fn is_empty(&self) -> bool {
        match self {
            Work::Uniform { units, .. } => *units == 0,
            Work::Items(items) => items.is_empty(),
        }
    }
}

/// One kernel's contribution to a step.
#[derive(Debug, Clone)]
pub struct KernelStep {
    /// Kernel identity for per-kernel statistics (Figure 4).
    pub name: String,
    /// Threads dedicated to this kernel.
    pub threads: u32,
    /// The work it executes this step.
    pub work: Work,
}

impl KernelStep {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, threads: u32, work: Work) -> Self {
        Self {
            name: name.into(),
            threads,
            work,
        }
    }

    /// Cycles this kernel needs to retire its work with its thread budget.
    pub fn duration_cycles(&self) -> u64 {
        assert!(self.threads > 0, "kernel must have at least one thread");
        match &self.work {
            Work::Uniform {
                units,
                cycles_per_unit,
            } => {
                let waves = units.div_ceil(self.threads as u64);
                waves * cycles_per_unit
            }
            Work::Items(items) => {
                // Items are issued to warps in 32-item chunks, round-robin:
                // warp w executes chunks w, w + W, w + 2W, ... Each chunk
                // costs its slowest lane (SIMD divergence); warps retire
                // their chunks independently, so the kernel finishes when
                // the busiest warp does.
                let lanes = (self.threads.min(WARP_SIZE)) as usize;
                let num_warps = (self.threads as usize).div_ceil(WARP_SIZE as usize);
                let mut warp_time = vec![0u64; num_warps];
                for (i, chunk) in items.chunks(lanes).enumerate() {
                    warp_time[i % num_warps] += chunk.iter().copied().max().unwrap_or(0);
                }
                warp_time.into_iter().max().unwrap_or(0)
            }
        }
    }
}

/// Direction of a host↔device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Host memory to device memory.
    HostToDevice,
    /// Device memory to host memory.
    DeviceToHost,
}

/// A transfer submitted alongside a step.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    /// Payload size.
    pub bytes: u64,
    /// Direction.
    pub dir: Dir,
}

/// Timing of one executed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Cycles the compute kernels occupied.
    pub compute_cycles: u64,
    /// Cycles the host→device copy engine occupied.
    pub h2d_cycles: u64,
    /// Cycles the device→host copy engine occupied.
    pub d2h_cycles: u64,
    /// Wall cycles the whole step took (after overlap policy).
    pub step_cycles: u64,
    /// Useful compute cycles summed over all threads.
    pub busy_cycles: u64,
}

/// One utilization sample (a step), for Figure 4/9-style traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSample {
    /// Clock value when the step started.
    pub start_cycle: u64,
    /// Step duration in cycles.
    pub len: u64,
    /// Fraction of physical core-cycles doing useful work (0..=1).
    pub utilization: f64,
    /// Compute cycles of the step (excluding transfer-bound stall).
    pub compute: u64,
    /// Threads allocated across the step's kernels.
    pub alloc_threads: u64,
    /// Fraction of *allocated thread*-cycles doing useful work during the
    /// compute phase — the quantity the paper's Figures 4 and 9 plot
    /// (idle allocated threads, not PCIe stalls or unallocated cores).
    pub compute_utilization: f64,
}

/// Per-kernel cumulative statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Useful cycles executed.
    pub busy_cycles: u64,
    /// Thread-cycles reserved (threads × step length while resident).
    pub occupied_cycles: u64,
    /// Steps this kernel was resident.
    pub steps: u64,
}

/// A simulated GPU: profile + cost model + clock + memory + traces.
#[derive(Debug)]
pub struct Gpu {
    profile: DeviceProfile,
    cost: CostModel,
    memory: DeviceMemory,
    clock: u64,
    trace_level: TraceLevel,
    trace: Vec<UtilSample>,
    kernel_stats: BTreeMap<String, KernelStats>,
    kernel_events: Vec<KernelEvent>,
    transfer_events: Vec<TransferEvent>,
    step_events: Vec<StepEvent>,
    steps: u64,
    total_busy: u64,
    total_h2d_bytes: u64,
    total_d2h_bytes: u64,
    /// Scripted faults not yet armed, as `(trigger_cycle, kind)`.
    fault_script: Vec<(u64, FaultKind)>,
    health: DeviceHealth,
    /// Clock dilation in integer percent (100 = nominal).
    degraded_percent: u32,
    /// Armed drop faults as `(scripted_nth, launches_remaining)`.
    drop_countdowns: Vec<(u32, u32)>,
    dropped: Vec<DroppedKernel>,
    fault_events: Vec<FaultEvent>,
}

impl Gpu {
    /// Creates a device with the default cost model.
    pub fn new(profile: DeviceProfile) -> Self {
        let memory = DeviceMemory::new(profile.device_mem_bytes);
        Self {
            profile,
            cost: CostModel::default(),
            memory,
            clock: 0,
            trace_level: TraceLevel::default(),
            trace: Vec::new(),
            kernel_stats: BTreeMap::new(),
            kernel_events: Vec::new(),
            transfer_events: Vec::new(),
            step_events: Vec::new(),
            steps: 0,
            total_busy: 0,
            total_h2d_bytes: 0,
            total_d2h_bytes: 0,
            fault_script: Vec::new(),
            health: DeviceHealth::Healthy,
            degraded_percent: 100,
            drop_countdowns: Vec::new(),
            dropped: Vec::new(),
            fault_events: Vec::new(),
        }
    }

    /// Creates a device with the default cost model and an explicit
    /// [`TraceLevel`].
    pub fn with_trace_level(profile: DeviceProfile, level: TraceLevel) -> Self {
        let mut gpu = Self::new(profile);
        gpu.trace_level = level;
        gpu
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Device memory allocator.
    pub fn memory(&mut self) -> &mut DeviceMemory {
        &mut self.memory
    }

    /// Read-only view of device memory accounting.
    pub fn memory_ref(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Scripts a fault to arm when the device clock reaches `at_cycle`.
    /// Faults are deterministic: they key on the virtual clock, never on
    /// wall time, so a faulty run replays exactly.
    pub fn push_fault(&mut self, at_cycle: u64, kind: FaultKind) {
        self.fault_script.push((at_cycle, kind));
    }

    /// Arms every scripted fault whose trigger cycle has been reached and
    /// returns the resulting health. Called automatically at the start of
    /// [`execute_step`](Self::execute_step); the pipeline layer also calls
    /// it before admitting work so a fail-stop is observed at a stage
    /// boundary.
    pub fn poll_faults(&mut self) -> DeviceHealth {
        if !self.fault_script.is_empty() {
            let clock = self.clock;
            let mut due: Vec<(u64, FaultKind)> = Vec::new();
            self.fault_script.retain(|&(at, kind)| {
                if at <= clock {
                    due.push((at, kind));
                    false
                } else {
                    true
                }
            });
            // Arm in trigger order; the stable sort keeps insertion order
            // for ties, so arming is deterministic.
            due.sort_by_key(|&(at, _)| at);
            for (at, kind) in due {
                if self.health.is_failed() {
                    // A dead device arms nothing further; the entries are
                    // still consumed so the script drains.
                    continue;
                }
                match kind {
                    FaultKind::FailStop => {
                        self.health = DeviceHealth::Failed { at_cycle: at };
                        self.fault_events.push(FaultEvent {
                            at_cycle: at,
                            kind,
                            kernel: None,
                        });
                    }
                    FaultKind::DegradedClock { factor_percent } => {
                        // Faults never speed a device up: degradation is
                        // monotone worsening and clamped at nominal.
                        self.degraded_percent = self.degraded_percent.max(factor_percent.max(100));
                        if self.degraded_percent > 100 {
                            self.health = DeviceHealth::Degraded {
                                factor_percent: self.degraded_percent,
                            };
                        }
                        self.fault_events.push(FaultEvent {
                            at_cycle: at,
                            kind,
                            kernel: None,
                        });
                    }
                    FaultKind::DropKernel { nth } => {
                        self.drop_countdowns.push((nth, nth.max(1)));
                        // The trace event is recorded when the drop fires,
                        // with the suppressed kernel's name.
                    }
                }
            }
        }
        self.health
    }

    /// Current device health (as of the last poll or executed step).
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// True when the device has fail-stopped.
    pub fn is_failed(&self) -> bool {
        self.health.is_failed()
    }

    /// Current clock dilation in integer percent (100 = nominal; 250 means
    /// every compute span takes 2.5× as long).
    #[cfg(test)]
    fn clock_dilation_percent(&self) -> u32 {
        self.degraded_percent
    }

    /// Drains the kernels suppressed by armed [`FaultKind::DropKernel`]
    /// faults since the last call. The pipeline layer polls this after each
    /// step: a non-empty result means stage work silently did not execute
    /// and the affected in-flight tasks must be salvaged and replayed.
    pub fn take_dropped_kernels(&mut self) -> Vec<DroppedKernel> {
        std::mem::take(&mut self.dropped)
    }

    /// Fault events (armed fail-stops/degradations, fired drops) recorded
    /// so far, for trace export.
    #[cfg(test)]
    fn fault_events(&self) -> &[FaultEvent] {
        &self.fault_events
    }

    /// The span `kernel` occupies in a step whose launched (non-empty)
    /// kernels pin `step_threads` threads: its duration plus the launch
    /// overhead, dilated proportionally when the step oversubscribes the
    /// physical cores (two-way SMT-style interleaving) and again by a
    /// degraded clock (thermal throttling hits the SM clock, not the PCIe
    /// engines). A step's compute span is the maximum over its kernels.
    pub fn kernel_span_cycles(&self, kernel: &KernelStep, step_threads: u64) -> u64 {
        let cores = self.profile.cuda_cores as u64;
        let mut span = kernel.duration_cycles() + self.cost.kernel_launch;
        if step_threads > cores {
            span = span * step_threads / cores;
        }
        if self.degraded_percent > 100 {
            span = span * self.degraded_percent as u64 / 100;
        }
        span
    }

    /// Executes one step: all `kernels` run concurrently on their dedicated
    /// thread allocations while `transfers` move data. With `multi_stream`
    /// the copy engines overlap compute; otherwise everything serializes.
    ///
    /// Scripted faults apply here: a fail-stopped device executes nothing
    /// and returns a zeroed [`StepOutcome`] without advancing its clock; a
    /// clock-degraded device dilates the compute span; an armed
    /// [`FaultKind::DropKernel`] silently suppresses the counted launch
    /// (reported via [`take_dropped_kernels`](Self::take_dropped_kernels)).
    ///
    /// # Panics
    ///
    /// Panics if any kernel has zero threads.
    pub fn execute_step(
        &mut self,
        kernels: &[KernelStep],
        transfers: &[Transfer],
        multi_stream: bool,
    ) -> StepOutcome {
        if self.poll_faults().is_failed() {
            return StepOutcome {
                compute_cycles: 0,
                h2d_cycles: 0,
                d2h_cycles: 0,
                step_cycles: 0,
                busy_cycles: 0,
            };
        }
        // Armed drop faults count non-empty launches in submission order;
        // when a countdown reaches zero, that launch is suppressed — it
        // contributes no compute, busy cycles, threads, or trace events.
        let mut suppressed: Vec<bool> = Vec::new();
        if !self.drop_countdowns.is_empty() {
            suppressed = vec![false; kernels.len()];
            for (i, k) in kernels.iter().enumerate() {
                if k.work.is_empty() || self.drop_countdowns.is_empty() {
                    continue;
                }
                let mut fired = false;
                for (_, remaining) in self.drop_countdowns.iter_mut() {
                    *remaining -= 1;
                    if *remaining == 0 {
                        fired = true;
                    }
                }
                if fired {
                    suppressed[i] = true;
                    for &(nth, remaining) in self.drop_countdowns.iter() {
                        if remaining == 0 {
                            self.fault_events.push(FaultEvent {
                                at_cycle: self.clock,
                                kind: FaultKind::DropKernel { nth },
                                kernel: Some(k.name.clone()),
                            });
                        }
                    }
                    self.dropped.push(DroppedKernel {
                        name: k.name.clone(),
                        at_cycle: self.clock,
                    });
                    self.drop_countdowns.retain(|&(_, r)| r > 0);
                }
            }
        }
        let is_suppressed = |i: usize| suppressed.get(i).copied().unwrap_or(false);

        let launched = |i: usize, k: &KernelStep| !k.work.is_empty() && !is_suppressed(i);
        let mut busy = 0u64;
        let mut total_threads = 0u64;
        for (i, k) in kernels.iter().enumerate() {
            if launched(i, k) {
                busy += k.work.useful_cycles();
                total_threads += k.threads as u64;
            }
        }
        // The step's compute span is its slowest kernel's scaled span.
        let mut compute = 0u64;
        for (i, k) in kernels.iter().enumerate() {
            if launched(i, k) {
                compute = compute.max(self.kernel_span_cycles(k, total_threads));
            }
        }

        let h2d_bytes: u64 = transfers
            .iter()
            .filter(|t| t.dir == Dir::HostToDevice)
            .map(|t| t.bytes)
            .sum();
        let d2h_bytes: u64 = transfers
            .iter()
            .filter(|t| t.dir == Dir::DeviceToHost)
            .map(|t| t.bytes)
            .sum();
        let h2d = self.profile.transfer_cycles(h2d_bytes);
        let d2h = self.profile.transfer_cycles(d2h_bytes);

        let step = if multi_stream {
            compute.max(h2d).max(d2h)
        } else {
            compute + h2d + d2h
        }
        .max(1);

        // The utilization trace and cumulative per-kernel statistics at every
        // level; `Full` adds per-step events below.
        let capacity = self.profile.cuda_cores as f64 * step as f64;
        let compute_capacity = total_threads as f64 * compute as f64;
        self.trace.push(UtilSample {
            start_cycle: self.clock,
            len: step,
            utilization: (busy as f64 / capacity).min(1.0),
            compute,
            alloc_threads: total_threads,
            compute_utilization: if compute_capacity > 0.0 {
                (busy as f64 / compute_capacity).min(1.0)
            } else {
                0.0
            },
        });
        for (i, k) in kernels.iter().enumerate() {
            if is_suppressed(i) {
                continue;
            }
            let stats = self.kernel_stats.entry(k.name.clone()).or_default();
            stats.busy_cycles += k.work.useful_cycles();
            stats.occupied_cycles += k.threads as u64 * step;
            stats.steps += 1;
        }
        if self.trace_level == TraceLevel::Full {
            for (i, k) in kernels.iter().enumerate() {
                if !launched(i, k) {
                    continue;
                }
                let useful = k.work.useful_cycles();
                let lane_capacity = k.threads as u64 * k.duration_cycles();
                self.kernel_events.push(KernelEvent {
                    step: self.steps,
                    start_cycle: self.clock,
                    duration_cycles: self.kernel_span_cycles(k, total_threads),
                    name: k.name.clone(),
                    threads: k.threads,
                    busy_cycles: useful,
                    warp_occupancy: if lane_capacity > 0 {
                        (useful as f64 / lane_capacity as f64).min(1.0)
                    } else {
                        0.0
                    },
                });
            }
            // Each direction has one copy engine; transfers queue on it in
            // submission order. With multi-stream the engines start with the
            // compute; serialized, h2d follows compute and d2h follows h2d.
            let h2d_start = if multi_stream {
                self.clock
            } else {
                self.clock + compute
            };
            let d2h_start = if multi_stream {
                self.clock
            } else {
                self.clock + compute + h2d
            };
            let (mut h2d_off, mut d2h_off) = (0u64, 0u64);
            for t in transfers {
                let dur = self.profile.transfer_cycles(t.bytes);
                let (start, overlapped) = match t.dir {
                    Dir::HostToDevice => {
                        let s = h2d_start + h2d_off;
                        h2d_off += dur;
                        (s, multi_stream && h2d <= compute)
                    }
                    Dir::DeviceToHost => {
                        let s = d2h_start + d2h_off;
                        d2h_off += dur;
                        (s, multi_stream && d2h <= compute)
                    }
                };
                self.transfer_events.push(TransferEvent {
                    step: self.steps,
                    start_cycle: start,
                    duration_cycles: dur,
                    bytes: t.bytes,
                    dir: t.dir,
                    overlapped,
                });
            }
            self.step_events.push(StepEvent {
                step: self.steps,
                start_cycle: self.clock,
                step_cycles: step,
                compute_cycles: compute,
                h2d_cycles: h2d,
                d2h_cycles: d2h,
            });
        }
        self.steps += 1;
        self.clock += step;
        self.total_busy += busy;
        self.total_h2d_bytes += h2d_bytes;
        self.total_d2h_bytes += d2h_bytes;

        StepOutcome {
            compute_cycles: compute,
            h2d_cycles: h2d,
            d2h_cycles: d2h,
            step_cycles: step,
            busy_cycles: busy,
        }
    }

    /// Total elapsed device cycles.
    pub fn elapsed_cycles(&self) -> u64 {
        self.clock
    }

    /// Advances the clock to `cycle` without executing work — the device
    /// sits idle (no busy cycles accrue, utilization drops accordingly).
    /// The online service idles a device with it, through the device's
    /// executor, until the next request arrives. A `cycle` in the past is
    /// a no-op: the simulated clock never moves backwards.
    pub fn idle_until(&mut self, cycle: u64) {
        self.clock = self.clock.max(cycle);
    }

    /// Total elapsed time in seconds.
    pub(crate) fn elapsed_seconds(&self) -> f64 {
        self.profile.cycles_to_seconds(self.clock)
    }

    /// Total elapsed time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_seconds() * 1e3
    }

    /// The per-step utilization trace.
    pub fn utilization_trace(&self) -> &[UtilSample] {
        &self.trace
    }

    /// Time-weighted mean core utilization over the whole run.
    pub fn mean_utilization(&self) -> f64 {
        if self.clock == 0 {
            return 0.0;
        }
        self.total_busy as f64 / (self.profile.cuda_cores as f64 * self.clock as f64)
    }

    /// Mean utilization of *allocated threads during compute* across the
    /// run — the paper's Figure 4/9 metric.
    pub fn mean_compute_utilization(&self) -> f64 {
        let capacity: f64 = self
            .trace
            .iter()
            .map(|s| s.alloc_threads as f64 * s.compute as f64)
            .sum();
        if capacity == 0.0 {
            return 0.0;
        }
        self.total_busy as f64 / capacity
    }

    /// Cumulative statistics per kernel name.
    pub fn kernel_stats(&self) -> &BTreeMap<String, KernelStats> {
        &self.kernel_stats
    }

    /// The current trace recording level.
    #[cfg(test)]
    fn trace_level(&self) -> TraceLevel {
        self.trace_level
    }

    /// Per-kernel events recorded at [`TraceLevel::Full`].
    pub fn kernel_events(&self) -> &[KernelEvent] {
        &self.kernel_events
    }

    /// Per-transfer events recorded at [`TraceLevel::Full`].
    pub fn transfer_events(&self) -> &[TransferEvent] {
        &self.transfer_events
    }

    /// Per-step timing events recorded at [`TraceLevel::Full`].
    pub fn step_events(&self) -> &[StepEvent] {
        &self.step_events
    }

    /// Serializes the events recorded at [`TraceLevel::Full`] to Chrome-trace
    /// JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>; one
    /// device cycle is rendered as one microsecond). Byte-deterministic for a
    /// given run.
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace_json_with_counters(&[])
    }

    /// [`Self::chrome_trace_json`] with external counter tracks (phase
    /// `"C"` events) merged in — e.g. the service flight recorder's queue
    /// depth and utilization series rendered beside the kernel timeline.
    /// An empty `counters` slice is a byte-exact no-op, and the counters
    /// are supplied at export time, so counter support costs nothing per
    /// step at any [`TraceLevel`].
    pub fn chrome_trace_json_with_counters(
        &self,
        counters: &[crate::trace::CounterTrack],
    ) -> String {
        crate::trace::chrome_trace_json(
            &self.kernel_events,
            &self.transfer_events,
            &self.fault_events,
            counters,
        )
    }

    /// Total bytes moved host→device.
    pub fn total_h2d_bytes(&self) -> u64 {
        self.total_h2d_bytes
    }

    /// Total bytes moved device→host.
    pub fn total_d2h_bytes(&self) -> u64 {
        self.total_d2h_bytes
    }

    /// Resets clock, traces, events and statistics but keeps memory state
    /// and the trace level. Device health, armed degradations/drops, and
    /// any not-yet-armed fault script persist (a throttled or dead card
    /// does not heal on a counter reset); un-armed trigger cycles are
    /// interpreted on the post-reset clock.
    #[cfg(test)]
    fn reset_clock(&mut self) {
        self.clock = 0;
        self.trace.clear();
        self.kernel_stats.clear();
        self.kernel_events.clear();
        self.transfer_events.clear();
        self.step_events.clear();
        self.steps = 0;
        self.total_busy = 0;
        self.total_h2d_bytes = 0;
        self.total_d2h_bytes = 0;
        self.fault_events.clear();
        self.dropped.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(DeviceProfile::v100())
    }

    #[test]
    fn uniform_work_duration() {
        let k = KernelStep::new(
            "k",
            64,
            Work::Uniform {
                units: 640,
                cycles_per_unit: 10,
            },
        );
        // 640 units over 64 threads = 10 waves of 10 cycles.
        assert_eq!(k.duration_cycles(), 100);
        // Non-divisible: 641 units -> 11 waves.
        let k2 = KernelStep::new(
            "k",
            64,
            Work::Uniform {
                units: 641,
                cycles_per_unit: 10,
            },
        );
        assert_eq!(k2.duration_cycles(), 110);
    }

    #[test]
    fn item_work_pays_warp_divergence() {
        // 32 items, one slow lane: whole warp pays the slow lane.
        let mut items = vec![1u64; 32];
        items[7] = 100;
        let k = KernelStep::new("k", 32, Work::Items(items.clone()));
        assert_eq!(k.duration_cycles(), 100);
        // Same items split into two waves of 16-thread kernel: two warps of
        // 16 lanes each... threads=16 -> waves of 16 items, 2 waves.
        let k2 = KernelStep::new("k", 16, Work::Items(items));
        assert_eq!(k2.duration_cycles(), 100 + 1);
    }

    #[test]
    fn concurrent_kernels_take_max() {
        let mut g = gpu();
        let launch = g.cost().kernel_launch;
        let out = g.execute_step(
            &[
                KernelStep::new(
                    "fast",
                    32,
                    Work::Uniform {
                        units: 32,
                        cycles_per_unit: 10,
                    },
                ),
                KernelStep::new(
                    "slow",
                    32,
                    Work::Uniform {
                        units: 32,
                        cycles_per_unit: 500,
                    },
                ),
            ],
            &[],
            true,
        );
        assert_eq!(out.compute_cycles, 500 + launch);
        assert_eq!(out.busy_cycles, 32 * 10 + 32 * 500);
    }

    #[test]
    fn oversubscription_dilates_time() {
        let mut g = gpu(); // 5120 cores
        let out = g.execute_step(
            &[KernelStep::new(
                "k",
                10240,
                Work::Uniform {
                    units: 10240,
                    cycles_per_unit: 100,
                },
            )],
            &[],
            true,
        );
        let launch = g.cost().kernel_launch;
        assert_eq!(out.compute_cycles, (100 + launch) * 2);
    }

    #[test]
    fn multi_stream_overlaps_transfers() {
        let mut g = gpu();
        let kernels = [KernelStep::new(
            "k",
            1024,
            Work::Uniform {
                units: 1024 * 1024,
                cycles_per_unit: 100,
            },
        )];
        let transfers = [
            Transfer {
                bytes: 1 << 20,
                dir: Dir::HostToDevice,
            },
            Transfer {
                bytes: 1 << 20,
                dir: Dir::DeviceToHost,
            },
        ];
        let overlapped = g.execute_step(&kernels, &transfers, true);
        assert_eq!(
            overlapped.step_cycles,
            overlapped
                .compute_cycles
                .max(overlapped.h2d_cycles)
                .max(overlapped.d2h_cycles)
        );
        let serialized = g.execute_step(&kernels, &transfers, false);
        assert_eq!(
            serialized.step_cycles,
            serialized.compute_cycles + serialized.h2d_cycles + serialized.d2h_cycles
        );
        assert!(serialized.step_cycles > overlapped.step_cycles);
    }

    #[test]
    fn utilization_trace_records_steps() {
        let mut g = gpu();
        g.execute_step(
            &[KernelStep::new(
                "k",
                5120,
                Work::Uniform {
                    units: 5120,
                    cycles_per_unit: 1_000_000,
                },
            )],
            &[],
            true,
        );
        assert_eq!(g.utilization_trace().len(), 1);
        let sample = g.utilization_trace()[0];
        assert!(sample.utilization > 0.95, "full device ~1.0: {sample:?}");
        // An eighth of the device busy -> ~0.125 utilization.
        g.execute_step(
            &[KernelStep::new(
                "k",
                640,
                Work::Uniform {
                    units: 640,
                    cycles_per_unit: 1_000_000,
                },
            )],
            &[],
            true,
        );
        let sample = g.utilization_trace()[1];
        assert!(
            (sample.utilization - 0.125).abs() < 0.01,
            "got {}",
            sample.utilization
        );
    }

    #[test]
    fn kernel_stats_accumulate() {
        let mut g = gpu();
        for _ in 0..3 {
            g.execute_step(
                &[KernelStep::new(
                    "layer0",
                    64,
                    Work::Uniform {
                        units: 64,
                        cycles_per_unit: 10,
                    },
                )],
                &[],
                true,
            );
        }
        let stats = g.kernel_stats().get("layer0").unwrap();
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.busy_cycles, 3 * 640);
    }

    #[test]
    fn empty_kernels_step_still_advances_for_transfers() {
        let mut g = gpu();
        let out = g.execute_step(
            &[],
            &[Transfer {
                bytes: 320 << 20,
                dir: Dir::HostToDevice,
            }],
            true,
        );
        assert_eq!(out.compute_cycles, 0);
        assert!(out.step_cycles > 0);
        let ms = g.profile().cycles_to_seconds(out.step_cycles) * 1e3;
        assert!((ms - 22.95).abs() < 2.0, "paper Table 9 V100 row: {ms} ms");
    }

    #[test]
    fn reset_clock_clears_traces() {
        let mut g = gpu();
        g.execute_step(
            &[KernelStep::new(
                "k",
                1,
                Work::Uniform {
                    units: 1,
                    cycles_per_unit: 5,
                },
            )],
            &[],
            true,
        );
        assert!(g.elapsed_cycles() > 0);
        g.reset_clock();
        assert_eq!(g.elapsed_cycles(), 0);
        assert!(g.utilization_trace().is_empty());
        assert_eq!(g.mean_utilization(), 0.0);
    }

    #[test]
    fn trace_level_stats_allocates_no_per_step_events_even_with_counters() {
        // Counter tracks are supplied at export time, never recorded per
        // step: after stepping at `Stats`, every per-step event buffer
        // stays empty (stats keeps only aggregate samples), and exporting
        // with counters reads those buffers without touching them.
        let mut g = Gpu::with_trace_level(DeviceProfile::v100(), TraceLevel::Stats);
        for _ in 0..4 {
            g.execute_step(
                &[KernelStep::new(
                    "k",
                    64,
                    Work::Uniform {
                        units: 64,
                        cycles_per_unit: 10,
                    },
                )],
                &[],
                true,
            );
        }
        assert!(g.kernel_events().is_empty());
        assert!(g.transfer_events().is_empty());
        assert!(g.step_events().is_empty());
        assert!(!g.utilization_trace().is_empty(), "stats still samples");
        let track = crate::trace::CounterTrack {
            name: "queue depth".into(),
            series: vec!["all".into()],
            points: vec![(0, vec![2]), (50, vec![1])],
        };
        let json = g.chrome_trace_json_with_counters(&[track]);
        assert!(json.contains("\"ph\":\"C\""));
        // Export did not materialize any per-step events as a side effect.
        assert!(g.kernel_events().is_empty());
        assert!(g.step_events().is_empty());
    }

    #[test]
    fn trace_level_full_records_events() {
        let mut g = Gpu::with_trace_level(DeviceProfile::v100(), TraceLevel::Full);
        g.execute_step(
            &[
                KernelStep::new(
                    "a",
                    32,
                    Work::Uniform {
                        units: 32,
                        cycles_per_unit: 10,
                    },
                ),
                KernelStep::new(
                    "b",
                    64,
                    Work::Uniform {
                        units: 64,
                        cycles_per_unit: 500_000,
                    },
                ),
            ],
            &[
                Transfer {
                    bytes: 1 << 16,
                    dir: Dir::HostToDevice,
                },
                Transfer {
                    bytes: 1 << 10,
                    dir: Dir::DeviceToHost,
                },
            ],
            true,
        );
        g.execute_step(
            &[KernelStep::new(
                "a",
                32,
                Work::Uniform {
                    units: 32,
                    cycles_per_unit: 10,
                },
            )],
            &[],
            true,
        );
        assert_eq!(g.step_events().len(), 2);
        assert_eq!(g.kernel_events().len(), 3);
        assert_eq!(g.transfer_events().len(), 2);
        let steps = g.step_events();
        assert_eq!(steps[0].start_cycle, 0);
        assert_eq!(steps[1].start_cycle, steps[0].step_cycles);
        // Kernel durations never exceed their step's compute span.
        for (e, s) in [
            (&g.kernel_events()[0], steps[0]),
            (&g.kernel_events()[1], steps[0]),
            (&g.kernel_events()[2], steps[1]),
        ] {
            assert!(e.duration_cycles <= s.compute_cycles);
            assert!(e.warp_occupancy > 0.0 && e.warp_occupancy <= 1.0);
        }
        // Fully-coalesced uniform work has occupancy 1.
        assert_eq!(g.kernel_events()[0].warp_occupancy, 1.0);
        // Both transfers fit under the slow kernel: overlapped.
        assert!(g.transfer_events().iter().all(|t| t.overlapped));
        let json = g.chrome_trace_json();
        assert_eq!(json, g.chrome_trace_json(), "export must be deterministic");
        assert!(json.contains("\"traceEvents\""));
        g.reset_clock();
        assert!(g.kernel_events().is_empty());
        assert!(g.step_events().is_empty());
        assert!(g.transfer_events().is_empty());
        assert_eq!(g.trace_level(), TraceLevel::Full, "level survives reset");
    }

    #[test]
    fn serialized_transfers_queue_after_compute() {
        let mut g = Gpu::with_trace_level(DeviceProfile::v100(), TraceLevel::Full);
        let out = g.execute_step(
            &[KernelStep::new(
                "k",
                32,
                Work::Uniform {
                    units: 32,
                    cycles_per_unit: 100,
                },
            )],
            &[
                Transfer {
                    bytes: 1 << 20,
                    dir: Dir::HostToDevice,
                },
                Transfer {
                    bytes: 1 << 20,
                    dir: Dir::DeviceToHost,
                },
            ],
            false,
        );
        let h2d = &g.transfer_events()[0];
        let d2h = &g.transfer_events()[1];
        assert_eq!(h2d.start_cycle, out.compute_cycles);
        assert_eq!(d2h.start_cycle, out.compute_cycles + out.h2d_cycles);
        assert!(!h2d.overlapped && !d2h.overlapped);
    }

    #[test]
    fn fail_stop_freezes_clock_and_reports_failed() {
        let mut g = gpu();
        let work = [KernelStep::new(
            "k",
            64,
            Work::Uniform {
                units: 64,
                cycles_per_unit: 10,
            },
        )];
        let healthy = g.execute_step(&work, &[], true);
        assert!(healthy.step_cycles > 0);
        let before = g.elapsed_cycles();
        g.push_fault(before, crate::FaultKind::FailStop);
        let dead = g.execute_step(&work, &[], true);
        assert_eq!(dead.step_cycles, 0);
        assert_eq!(dead.busy_cycles, 0);
        assert_eq!(g.elapsed_cycles(), before, "clock frozen after fail-stop");
        assert!(g.is_failed());
        assert_eq!(g.health(), crate::DeviceHealth::Failed { at_cycle: before });
        assert_eq!(g.fault_events().len(), 1);
    }

    #[test]
    fn degraded_clock_dilates_compute_but_not_transfers() {
        let work = [KernelStep::new(
            "k",
            64,
            Work::Uniform {
                units: 64,
                cycles_per_unit: 1000,
            },
        )];
        let xfer = [Transfer {
            bytes: 1 << 20,
            dir: Dir::HostToDevice,
        }];
        let mut nominal = gpu();
        let base = nominal.execute_step(&work, &xfer, false);
        let mut slow = gpu();
        slow.push_fault(
            0,
            crate::FaultKind::DegradedClock {
                factor_percent: 300,
            },
        );
        let dilated = slow.execute_step(&work, &xfer, false);
        assert_eq!(dilated.compute_cycles, base.compute_cycles * 3);
        assert_eq!(dilated.h2d_cycles, base.h2d_cycles, "PCIe unaffected");
        assert!(slow.health().is_degraded());
        assert_eq!(slow.clock_dilation_percent(), 300);
        // Determinism: an identical device with the same script matches.
        let mut slow2 = gpu();
        slow2.push_fault(
            0,
            crate::FaultKind::DegradedClock {
                factor_percent: 300,
            },
        );
        assert_eq!(slow2.execute_step(&work, &xfer, false), dilated);
        // Degradation is monotone: a weaker fault never speeds it back up.
        slow.push_fault(
            slow.elapsed_cycles(),
            crate::FaultKind::DegradedClock {
                factor_percent: 150,
            },
        );
        slow.poll_faults();
        assert_eq!(slow.clock_dilation_percent(), 300);
    }

    #[test]
    fn drop_kernel_suppresses_nth_launch() {
        let mut g = gpu();
        let launch = g.cost().kernel_launch;
        g.push_fault(0, crate::FaultKind::DropKernel { nth: 2 });
        let work = |name: &str| {
            KernelStep::new(
                name,
                32,
                Work::Uniform {
                    units: 32,
                    cycles_per_unit: 50,
                },
            )
        };
        // First launch survives (countdown 2 -> 1).
        let first = g.execute_step(&[work("a")], &[], true);
        assert_eq!(first.compute_cycles, 50 + launch);
        assert!(g.take_dropped_kernels().is_empty());
        // Second launch is suppressed: the step runs as if empty.
        let second = g.execute_step(&[work("b")], &[], true);
        assert_eq!(second.compute_cycles, 0);
        assert_eq!(second.busy_cycles, 0);
        let dropped = g.take_dropped_kernels();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].name, "b");
        assert!(g.take_dropped_kernels().is_empty(), "drained");
        // Third launch runs normally again — the fault fired once.
        let third = g.execute_step(&[work("c")], &[], true);
        assert_eq!(third.compute_cycles, 50 + launch);
        assert_eq!(g.fault_events().len(), 1);
        assert_eq!(g.fault_events()[0].kernel.as_deref(), Some("b"));
    }

    #[test]
    fn faults_trigger_on_virtual_cycles_not_steps() {
        let mut g = gpu();
        let big = [KernelStep::new(
            "k",
            64,
            Work::Uniform {
                units: 64,
                cycles_per_unit: 10_000,
            },
        )];
        g.push_fault(5_000, crate::FaultKind::FailStop);
        // The first step starts at cycle 0: the fault has not armed yet.
        let out = g.execute_step(&big, &[], true);
        assert!(out.step_cycles > 0);
        // The clock is now past the trigger: the next poll arms it.
        assert!(g.poll_faults().is_failed());
    }

    #[test]
    fn faster_device_finishes_sooner() {
        let mk = |profile: DeviceProfile| {
            let mut g = Gpu::new(profile);
            g.execute_step(
                &[KernelStep::new(
                    "k",
                    4096,
                    Work::Uniform {
                        units: 1 << 22,
                        cycles_per_unit: 130,
                    },
                )],
                &[],
                true,
            );
            g.elapsed_seconds()
        };
        assert!(mk(DeviceProfile::h100()) < mk(DeviceProfile::v100()));
    }
}
