//! The service flight recorder: windowed time-series over virtual cycles.
//!
//! Every other surface in this crate is an end-of-run aggregate — a
//! [`crate::Registry`] exposition or a `ClassReport`-style summary. A
//! queue-depth spike that drains before harvest, a mid-run SLO burn that
//! recovers, or one device going quiet for a stretch are all invisible in
//! aggregates. [`Timeline`] records the run as **fixed-width windows of
//! virtual device cycles**: per-window, per-class admission counters
//! (accepts and rejects by reason), completions and SLO misses, peak queue
//! depth, per-device busy cycles and peak in-flight, and the exact
//! nearest-rank p99 of the lifecycle latencies that completed inside the
//! window.
//!
//! Retention is bounded: when the run outgrows
//! [`TimelineConfig::max_windows`], adjacent window pairs merge 2:1 and the
//! window width doubles ([`Timeline::downsamples`] counts the halvings).
//! The merge is pure integer bookkeeping — counters add, peaks take the
//! max, latency sets concatenate — so a downsampled timeline is exactly the
//! timeline that would have been recorded at the wider width.
//!
//! Determinism: every cell derives from integer cycles and integer counts,
//! and recording is order-independent *within* a window (adds, maxes, and
//! a sort at [`Timeline::finalize`]). Two replays of the same virtual-time
//! event sequence — at any host thread count — render byte-identical
//! [`Timeline::to_json`] output. That is what lets the BENCH.json
//! `timeline` section act as a regression artifact and lets
//! [`crate::alerts`] promise reproducible fire/resolve window indexes.

use crate::json::{Array, Object, ToJson};

/// Shape of one [`Timeline`]: window width, retention bound, and the class
/// and device lanes it tracks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Width of one window in virtual device cycles. Must be ≥ 1.
    pub window_cycles: u64,
    /// Retention bound: when the run needs more windows than this, the
    /// timeline downsamples 2:1 (window width doubles). Must be ≥ 2.
    pub max_windows: usize,
    /// Names of the class lanes (e.g. `interactive`, `standard`, `bulk`),
    /// in index order. Must be non-empty.
    pub class_names: Vec<String>,
    /// Number of device lanes. Must be ≥ 1.
    pub devices: usize,
}

/// Per-class cell of one [`Window`]: admission and completion counters
/// plus the peak queue depth observed inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassWindow {
    /// Requests admitted past admission control in this window.
    pub accepted: u64,
    /// Rejections because the class queue was at capacity.
    pub rejected_queue_full: u64,
    /// Rejections because the service-wide outstanding bound was hit.
    pub rejected_saturated: u64,
    /// Requests whose proof was emitted in this window.
    pub completed: u64,
    /// Completions in this window whose latency exceeded the class SLO.
    pub slo_miss: u64,
    /// Peak class-queue depth sampled inside this window.
    pub queue_depth_peak: u64,
}

impl ClassWindow {
    /// Arrivals in this window: accepted plus both reject reasons.
    pub fn submitted(&self) -> u64 {
        self.accepted + self.rejected()
    }

    /// Rejections in this window, both reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_saturated
    }
}

/// Per-device cell of one [`Window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceWindow {
    /// Cycles of this window the device spent advancing work (its clock
    /// moving under `step`, as opposed to sitting idle).
    pub busy_cycles: u64,
    /// Peak in-flight tasks sampled inside this window.
    pub in_flight_peak: u64,
}

impl DeviceWindow {
    /// Busy fraction of the window in parts-per-million (integer, so it is
    /// byte-stable in expositions). Saturates at 1 000 000.
    pub fn utilization_ppm(&self, window_cycles: u64) -> u64 {
        if window_cycles == 0 {
            0
        } else {
            ((self.busy_cycles.min(window_cycles) as u128 * 1_000_000) / window_cycles as u128)
                as u64
        }
    }
}

/// One fixed-width window of the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// First cycle the window covers.
    pub start_cycle: u64,
    /// Per-class cells, indexed like [`TimelineConfig::class_names`].
    pub classes: Vec<ClassWindow>,
    /// Per-device cells.
    pub devices: Vec<DeviceWindow>,
    /// Lifecycle latencies (cycles) of completions inside this window.
    /// Ascending after [`Timeline::finalize`].
    latencies: Vec<u64>,
}

impl Window {
    fn empty(start_cycle: u64, classes: usize, devices: usize) -> Self {
        Window {
            start_cycle,
            classes: vec![ClassWindow::default(); classes],
            devices: vec![DeviceWindow::default(); devices],
            latencies: Vec::new(),
        }
    }

    /// Completions across every class in this window.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Arrivals across every class in this window.
    pub fn submitted(&self) -> u64 {
        self.classes.iter().map(ClassWindow::submitted).sum()
    }

    /// Rejections across every class in this window.
    pub fn rejected(&self) -> u64 {
        self.classes.iter().map(ClassWindow::rejected).sum()
    }

    /// Peak queue depth summed over the classes (backlog signal).
    pub fn queue_depth_peak(&self) -> u64 {
        self.classes.iter().map(|c| c.queue_depth_peak).sum()
    }

    /// Exact nearest-rank p99 of the latencies that completed in this
    /// window (0 when nothing completed). Valid after
    /// [`Timeline::finalize`].
    fn latency_p99_cycles(&self) -> u64 {
        nearest_rank(&self.latencies, 0.99)
    }
}

/// Exact nearest-rank quantile of an ascending-sorted slice (0 when
/// empty): the smallest sample with at least `q` of the set at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The flight recorder: a bounded ring of fixed-width cycle windows.
///
/// See the [module docs](self) for the recording model. Constructed from a
/// [`TimelineConfig`], fed by the event loop of the run it observes, and
/// sealed with [`finalize`](Timeline::finalize) before reading quantiles
/// or exporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    window_cycles: u64,
    max_windows: usize,
    class_names: Vec<String>,
    device_lanes: usize,
    /// Cycle of the first recorded event; window 0 starts here.
    origin_cycle: Option<u64>,
    windows: Vec<Window>,
    downsamples: u32,
    finalized: bool,
}

impl Timeline {
    /// Creates an empty timeline.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is 0, `max_windows` < 2, `class_names` is
    /// empty, or `devices` is 0 — a recorder with no lanes or no width is
    /// a programming error, not a runtime condition.
    pub fn new(config: TimelineConfig) -> Self {
        assert!(config.window_cycles >= 1, "window_cycles must be >= 1");
        assert!(config.max_windows >= 2, "max_windows must be >= 2");
        assert!(!config.class_names.is_empty(), "need at least one class");
        assert!(config.devices >= 1, "need at least one device lane");
        Timeline {
            window_cycles: config.window_cycles,
            max_windows: config.max_windows,
            class_names: config.class_names,
            device_lanes: config.devices,
            origin_cycle: None,
            windows: Vec::new(),
            downsamples: 0,
            finalized: false,
        }
    }

    /// Current window width in cycles (doubles on each downsample).
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Cycle window 0 starts at (0 before any event is recorded).
    fn origin_cycle(&self) -> u64 {
        self.origin_cycle.unwrap_or(0)
    }

    /// Number of 2:1 downsampling passes applied so far.
    pub fn downsamples(&self) -> u32 {
        self.downsamples
    }

    /// Class lane names, in index order.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Number of device lanes.
    pub fn devices(&self) -> usize {
        self.device_lanes
    }

    /// The recorded windows, in time order.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Maps a cycle to its window index, fixing the origin on first use.
    /// Cycles before the origin (possible only through misuse) clamp into
    /// window 0 rather than panicking.
    fn index_of(&mut self, cycle: u64) -> usize {
        let origin = *self.origin_cycle.get_or_insert(cycle);
        (cycle.saturating_sub(origin) / self.window_cycles) as usize
    }

    /// Grows the ring to cover window `idx`, downsampling 2:1 whenever the
    /// retention bound would be exceeded, and returns the (possibly
    /// remapped) index of `cycle`'s window.
    fn window_mut(&mut self, cycle: u64) -> &mut Window {
        let mut idx = self.index_of(cycle);
        while idx >= self.max_windows {
            self.downsample();
            idx = self.index_of(cycle);
        }
        let origin = self.origin_cycle();
        while self.windows.len() <= idx {
            let start = origin + self.windows.len() as u64 * self.window_cycles;
            self.windows.push(Window::empty(
                start,
                self.class_names.len(),
                self.device_lanes,
            ));
        }
        &mut self.windows[idx]
    }

    /// Merges adjacent window pairs and doubles the width. Alignment is
    /// preserved (the origin does not move), so cycle→index mapping stays
    /// consistent for events recorded after the merge.
    fn downsample(&mut self) {
        let old = std::mem::take(&mut self.windows);
        self.window_cycles *= 2;
        self.downsamples += 1;
        let mut merged: Vec<Window> = Vec::with_capacity(old.len().div_ceil(2));
        for (i, w) in old.into_iter().enumerate() {
            if i % 2 == 0 {
                let mut kept = w;
                kept.start_cycle = self.origin_cycle() + merged.len() as u64 * self.window_cycles;
                merged.push(kept);
            } else {
                let dst = merged.last_mut().expect("odd index follows an even one");
                for (a, b) in dst.classes.iter_mut().zip(&w.classes) {
                    a.accepted += b.accepted;
                    a.rejected_queue_full += b.rejected_queue_full;
                    a.rejected_saturated += b.rejected_saturated;
                    a.completed += b.completed;
                    a.slo_miss += b.slo_miss;
                    a.queue_depth_peak = a.queue_depth_peak.max(b.queue_depth_peak);
                }
                for (a, b) in dst.devices.iter_mut().zip(&w.devices) {
                    a.busy_cycles += b.busy_cycles;
                    a.in_flight_peak = a.in_flight_peak.max(b.in_flight_peak);
                }
                dst.latencies.extend(&w.latencies);
            }
        }
        self.windows = merged;
    }

    /// Records one admission into class `class` at `cycle`.
    pub fn record_accept(&mut self, cycle: u64, class: usize) {
        self.window_mut(cycle).classes[class].accepted += 1;
    }

    /// Records one queue-full rejection of class `class` at `cycle`.
    pub fn record_reject_queue_full(&mut self, cycle: u64, class: usize) {
        self.window_mut(cycle).classes[class].rejected_queue_full += 1;
    }

    /// Records one saturation rejection of class `class` at `cycle`.
    pub fn record_reject_saturated(&mut self, cycle: u64, class: usize) {
        self.window_mut(cycle).classes[class].rejected_saturated += 1;
    }

    /// Records one completion of class `class` at `cycle` with the given
    /// lifecycle latency; `within_slo` is judged by the caller (the
    /// timeline does not know the SLOs).
    pub fn record_completion(
        &mut self,
        cycle: u64,
        class: usize,
        latency_cycles: u64,
        within_slo: bool,
    ) {
        let w = self.window_mut(cycle);
        w.classes[class].completed += 1;
        if !within_slo {
            w.classes[class].slo_miss += 1;
        }
        w.latencies.push(latency_cycles);
    }

    /// Samples the instantaneous depth of class `class`'s queue at
    /// `cycle`; the window keeps the peak.
    pub fn sample_queue_depth(&mut self, cycle: u64, class: usize, depth: u64) {
        let cell = &mut self.window_mut(cycle).classes[class];
        cell.queue_depth_peak = cell.queue_depth_peak.max(depth);
    }

    /// Samples the instantaneous in-flight count of device `device` at
    /// `cycle`; the window keeps the peak.
    pub fn sample_in_flight(&mut self, cycle: u64, device: usize, in_flight: u64) {
        let cell = &mut self.window_mut(cycle).devices[device];
        cell.in_flight_peak = cell.in_flight_peak.max(in_flight);
    }

    /// Attributes the half-open busy interval `[from, to)` of device
    /// `device` across the windows it overlaps.
    pub fn record_busy(&mut self, device: usize, from: u64, to: u64) {
        if to <= from {
            return;
        }
        let mut cursor = from;
        while cursor < to {
            // Touch the window first: it may downsample and change widths.
            self.window_mut(cursor);
            let origin = self.origin_cycle();
            let idx = (cursor.saturating_sub(origin) / self.window_cycles) as usize;
            let window_end = origin + (idx as u64 + 1) * self.window_cycles;
            let slice_end = to.min(window_end);
            self.windows[idx].devices[device].busy_cycles += slice_end - cursor;
            cursor = slice_end;
        }
    }

    /// Seals the recording: extends the ring so the last window covers
    /// `end_cycle` and sorts every window's latency set so nearest-rank
    /// quantiles are exact. Idempotent.
    pub fn finalize(&mut self, end_cycle: u64) {
        if self.origin_cycle.is_some() && end_cycle > self.origin_cycle() {
            self.window_mut(end_cycle.saturating_sub(1));
        }
        for w in &mut self.windows {
            w.latencies.sort_unstable();
        }
        self.finalized = true;
    }

    /// One value per window for a named series — the shape sparkline
    /// renderers and Chrome-trace counter tracks consume. Series:
    /// queue-depth and rejections per class (by index), utilization (ppm)
    /// and in-flight per device, p99 latency overall.
    pub fn queue_depth_series(&self, class: usize) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.classes[class].queue_depth_peak)
            .collect()
    }

    /// Per-window rejections (both reasons) of one class.
    pub fn rejected_series(&self, class: usize) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.classes[class].rejected())
            .collect()
    }

    /// Per-window busy fraction of one device, in parts-per-million.
    pub fn utilization_ppm_series(&self, device: usize) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.devices[device].utilization_ppm(self.window_cycles))
            .collect()
    }

    /// Per-window peak in-flight of one device.
    pub fn in_flight_series(&self, device: usize) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.devices[device].in_flight_peak)
            .collect()
    }

    /// Per-window exact nearest-rank p99 lifecycle latency in cycles.
    pub fn p99_series(&self) -> Vec<u64> {
        self.windows
            .iter()
            .map(Window::latency_p99_cycles)
            .collect()
    }
}

/// Canonical JSON exposition: integers only, fields in a fixed order,
/// byte-deterministic for identical recordings.
impl ToJson for Timeline {
    fn write_json(&self, out: &mut String) {
        let windows = self.windows.iter().map(|w| {
            let classes = w.classes.iter().map(|c| {
                Object::new()
                    .field("accepted", c.accepted)
                    .field("rejected_queue_full", c.rejected_queue_full)
                    .field("rejected_saturated", c.rejected_saturated)
                    .field("completed", c.completed)
                    .field("slo_miss", c.slo_miss)
                    .field("queue_depth_peak", c.queue_depth_peak)
            });
            let devices = w.devices.iter().map(|d| {
                Object::new()
                    .field("busy_cycles", d.busy_cycles)
                    .field("utilization_ppm", d.utilization_ppm(self.window_cycles))
                    .field("in_flight_peak", d.in_flight_peak)
            });
            Object::new()
                .field("start_cycle", w.start_cycle)
                .field("classes", classes.collect::<Array>())
                .field("devices", devices.collect::<Array>())
                .field("latency_p99_cycles", w.latency_p99_cycles())
        });
        Object::new()
            .field("window_cycles", self.window_cycles)
            .field("origin_cycle", self.origin_cycle())
            .field("downsamples", self.downsamples)
            .field("classes", self.class_names.iter().collect::<Array>())
            .field("devices", self.device_lanes)
            .field("windows", windows.collect::<Array>())
            .write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantile_nearest_rank() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(nearest_rank(&sorted, 0.5), 20);
        assert_eq!(nearest_rank(&sorted, 0.95), 40);
        assert_eq!(nearest_rank(&sorted, 0.0), 10);
        assert_eq!(nearest_rank(&sorted, 1.0), 40);
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
    }

    fn config(window: u64, max_windows: usize) -> TimelineConfig {
        TimelineConfig {
            window_cycles: window,
            max_windows,
            class_names: vec!["interactive".into(), "bulk".into()],
            devices: 2,
        }
    }

    #[test]
    fn counters_land_in_their_windows() {
        let mut t = Timeline::new(config(100, 16));
        t.record_accept(1_000, 0);
        t.record_accept(1_050, 1);
        t.record_reject_queue_full(1_120, 0);
        t.record_reject_saturated(1_130, 1);
        t.record_completion(1_250, 0, 250, false);
        t.record_completion(1_260, 1, 210, true);
        t.finalize(1_300);
        assert_eq!(t.origin_cycle(), 1_000);
        assert_eq!(t.windows().len(), 3);
        let w0 = &t.windows()[0];
        assert_eq!(w0.start_cycle, 1_000);
        assert_eq!(w0.classes[0].accepted, 1);
        assert_eq!(w0.classes[1].accepted, 1);
        assert_eq!(w0.submitted(), 2);
        let w1 = &t.windows()[1];
        assert_eq!(w1.classes[0].rejected_queue_full, 1);
        assert_eq!(w1.classes[1].rejected_saturated, 1);
        assert_eq!(w1.rejected(), 2);
        let w2 = &t.windows()[2];
        assert_eq!(w2.completed(), 2);
        assert_eq!(w2.classes[0].slo_miss, 1);
        assert_eq!(w2.classes[1].slo_miss, 0);
        assert_eq!(w2.latency_p99_cycles(), 250);
    }

    #[test]
    fn busy_intervals_split_across_window_boundaries() {
        let mut t = Timeline::new(config(100, 16));
        t.record_accept(0, 0); // pin the origin at 0
        t.record_busy(0, 50, 250); // 50 in w0, 100 in w1, 50 in w2
        t.record_busy(1, 0, 100); // exactly w0
        t.finalize(300);
        let busy: Vec<u64> = t
            .windows()
            .iter()
            .map(|w| w.devices[0].busy_cycles)
            .collect();
        assert_eq!(busy, vec![50, 100, 50]);
        assert_eq!(t.windows()[0].devices[1].busy_cycles, 100);
        assert_eq!(t.windows()[0].devices[1].utilization_ppm(100), 1_000_000);
        assert_eq!(
            t.utilization_ppm_series(0),
            vec![500_000, 1_000_000, 500_000]
        );
    }

    #[test]
    fn downsampling_merges_pairs_and_preserves_totals() {
        let mut t = Timeline::new(config(10, 4));
        for i in 0..12u64 {
            t.record_accept(i * 10, (i % 2) as usize);
            t.sample_queue_depth(i * 10, 0, i);
            t.record_completion(i * 10, 0, i * 7, i % 3 == 0);
        }
        t.finalize(120);
        // 12 base windows under a bound of 4 forces two 2:1 passes.
        assert_eq!(t.downsamples(), 2);
        assert_eq!(t.window_cycles(), 40);
        assert!(t.windows().len() <= 4);
        let accepted: u64 = t
            .windows()
            .iter()
            .map(|w| w.classes[0].accepted + w.classes[1].accepted)
            .sum();
        assert_eq!(accepted, 12, "downsampling must conserve counters");
        let completed: u64 = t.windows().iter().map(Window::completed).sum();
        assert_eq!(completed, 12);
        // Peaks take the max of merged pairs: the last window saw depth 11.
        assert_eq!(t.windows().last().unwrap().classes[0].queue_depth_peak, 11);
        // Window starts stay aligned to the (doubled) width.
        for (i, w) in t.windows().iter().enumerate() {
            assert_eq!(w.start_cycle, i as u64 * 40);
        }
    }

    #[test]
    fn recording_order_does_not_change_the_timeline() {
        let events: Vec<(u64, usize)> = vec![(5, 0), (25, 1), (15, 0), (35, 1), (45, 0)];
        let mut forward = Timeline::new(config(10, 8));
        // Pin the origin first: order-independence holds for events after
        // the first (the origin anchors window alignment).
        forward.record_accept(0, 0);
        for &(c, class) in &events {
            forward.record_completion(c, class, c, true);
        }
        forward.finalize(50);
        let mut reverse = Timeline::new(config(10, 8));
        reverse.record_accept(0, 0);
        for &(c, class) in events.iter().rev() {
            reverse.record_completion(c, class, c, true);
        }
        reverse.finalize(50);
        assert_eq!(forward, reverse);
        assert_eq!(forward.to_json(), reverse.to_json());
    }

    #[test]
    fn empty_timeline_exports_cleanly() {
        let mut t = Timeline::new(config(100, 4));
        t.finalize(0);
        assert!(t.is_empty());
        let json = t.to_json();
        assert!(json.contains("\"windows\":[]"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let mut t = Timeline::new(config(50, 8));
        t.record_accept(10, 0);
        t.record_busy(0, 10, 90);
        t.record_completion(80, 0, 70, true);
        t.sample_in_flight(60, 1, 3);
        t.finalize(100);
        let json = t.to_json();
        assert_eq!(json, t.clone().to_json());
        assert!(!json.contains('.'), "integers only: {json}");
        assert!(json.contains("\"utilization_ppm\""));
        assert!(json.contains("\"in_flight_peak\":3"));
    }
}
