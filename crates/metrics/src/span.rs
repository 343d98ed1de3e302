//! Per-proof lifecycle spans.
//!
//! A [`Span`] records one task's journey through a pipelined run in
//! simulated device cycles: when it was submitted, which stage held it over
//! which cycle interval (with the H2D/D2H bytes moved on its behalf while
//! resident there), and when its proof was emitted. The pipeline engine
//! opens a span at admission, closes/opens a [`StageSpan`] each time the
//! task shifts down the systolic array, and completes the span when the
//! task leaves the last stage — so the per-stage intervals tile the task's
//! residency exactly, which the conservation tests exploit.

/// One task's residency in one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage (kernel) name the task was resident in.
    pub stage: String,
    /// Clock value when the task entered the stage.
    pub start_cycle: u64,
    /// Clock value when the task left the stage (`== start_cycle` while
    /// still resident).
    pub end_cycle: u64,
    /// Host→device bytes moved for this task while in this stage.
    pub h2d_bytes: u64,
    /// Device→host bytes moved for this task while in this stage.
    pub d2h_bytes: u64,
}

impl StageSpan {
    /// Cycles the task spent resident in this stage.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// The full lifecycle of one task/proof through a pipelined run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Submission order of the task within its run (0-based).
    pub index: usize,
    /// Clock value when the task was admitted into the pipeline.
    pub submitted_cycle: u64,
    /// Clock value when the proof was emitted; `None` while in flight.
    pub completed_cycle: Option<u64>,
    /// Per-stage residency intervals, in traversal order.
    pub stages: Vec<StageSpan>,
}

impl Span {
    /// Opens a span for task `index` admitted at `submitted_cycle`.
    pub fn new(index: usize, submitted_cycle: u64) -> Self {
        Self {
            index,
            submitted_cycle,
            completed_cycle: None,
            stages: Vec::new(),
        }
    }

    /// Records entry into `stage` at clock `cycle`, opening a new
    /// [`StageSpan`].
    pub fn enter_stage(&mut self, stage: &str, cycle: u64) {
        self.stages.push(StageSpan {
            stage: stage.to_string(),
            start_cycle: cycle,
            end_cycle: cycle,
            h2d_bytes: 0,
            d2h_bytes: 0,
        });
    }

    /// Records exit from the current stage at clock `cycle`. No-op if no
    /// stage is open.
    pub fn exit_stage(&mut self, cycle: u64) {
        if let Some(s) = self.stages.last_mut() {
            s.end_cycle = cycle;
        }
    }

    /// Adds transfer bytes moved for the task in its current stage. No-op
    /// if no stage is open.
    pub fn add_bytes(&mut self, h2d: u64, d2h: u64) {
        if let Some(s) = self.stages.last_mut() {
            s.h2d_bytes += h2d;
            s.d2h_bytes += d2h;
        }
    }

    /// Marks the proof emitted at clock `cycle`.
    pub fn complete(&mut self, cycle: u64) {
        self.completed_cycle = Some(cycle);
    }

    /// End-to-end latency in cycles (admission → emission); 0 while in
    /// flight.
    pub fn total_cycles(&self) -> u64 {
        self.completed_cycle
            .map(|c| c - self.submitted_cycle)
            .unwrap_or(0)
    }

    /// Cycles spent resident in stages named `stage` (summed, in case a
    /// pipeline revisits a stage name).
    #[cfg(test)]
    fn stage_cycles(&self, stage: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(StageSpan::cycles)
            .sum()
    }

    /// Total H2D bytes moved for this task across all stages.
    pub fn h2d_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.h2d_bytes).sum()
    }

    /// Total D2H bytes moved for this task across all stages.
    pub fn d2h_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.d2h_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_tiles_residency() {
        let mut span = Span::new(3, 100);
        span.enter_stage("leaf", 100);
        span.add_bytes(4096, 0);
        span.exit_stage(150);
        span.enter_stage("layer", 150);
        span.add_bytes(0, 64);
        span.exit_stage(210);
        span.complete(210);

        assert!(span.completed_cycle.is_some());
        assert_eq!(span.total_cycles(), 110);
        assert_eq!(span.stage_cycles("leaf"), 50);
        assert_eq!(span.stage_cycles("layer"), 60);
        assert_eq!(span.stage_cycles("missing"), 0);
        // Stage intervals tile [submitted, completed] with no gap/overlap.
        let tiled: u64 = span.stages.iter().map(StageSpan::cycles).sum();
        assert_eq!(tiled, span.total_cycles());
        assert_eq!(span.h2d_bytes(), 4096);
        assert_eq!(span.d2h_bytes(), 64);
    }

    #[test]
    fn incomplete_span_reports_zero_latency() {
        let mut span = Span::new(0, 5);
        span.enter_stage("a", 5);
        assert!(span.completed_cycle.is_none());
        assert_eq!(span.total_cycles(), 0);
        // Open stage has zero width until exited.
        assert_eq!(span.stage_cycles("a"), 0);
    }

    #[test]
    fn bytes_and_exit_without_stage_are_noops() {
        let mut span = Span::new(0, 0);
        span.add_bytes(1, 1);
        span.exit_stage(10);
        assert!(span.stages.is_empty());
    }

    #[test]
    fn repeated_stage_names_accumulate() {
        let mut span = Span::new(1, 0);
        span.enter_stage("fold", 0);
        span.exit_stage(10);
        span.enter_stage("fold", 10);
        span.exit_stage(25);
        assert_eq!(span.stage_cycles("fold"), 25);
    }
}
