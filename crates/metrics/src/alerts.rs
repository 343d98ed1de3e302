//! Deterministic SLO alerting over a [`Timeline`].
//!
//! Production alerting evaluates rules against windowed time-series and
//! pages with a runbook link. This module reproduces that loop inside the
//! simulator's virtual time base: declarative [`AlertRule`]s — SLO
//! burn-rate per class, rejection rate, queue growth, device health — are
//! evaluated **window by window** with for-duration semantics (a rule must
//! breach for [`AlertRule::for_windows`] consecutive windows before it
//! fires, and resolves at the first clean window after firing). The output
//! is an ordered [`AlertLog`] of fire/resolve transitions, each naming the
//! OPERATIONS.md runbook section the on-call should open.
//!
//! Everything is integer arithmetic over the timeline's integer cells —
//! thresholds and observed values are in parts-per-million — so the same
//! replay produces byte-identical alert logs at any host thread count, and
//! the fire/resolve *window indexes* are regression-testable facts.

use crate::json::{Array, Object, ToJson};
use crate::timeline::{Timeline, Window};
use std::fmt::Write as _;

/// What a rule measures, per window. Values are parts-per-million except
/// [`QueueGrowth`](AlertKind::QueueGrowth), which scales a request count
/// by 1 000 000 so the shared ppm threshold field applies uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// SLO burn of one class: `slo_miss / completed` in the window, ppm.
    /// Windows with no completions of the class do not breach (and so
    /// resolve an active alert — the burn has drained).
    BurnRate {
        /// Class lane index.
        class: usize,
    },
    /// Rejection rate: `rejected / submitted` in the window, ppm. `None`
    /// aggregates every class. Windows with no arrivals do not breach.
    RejectionRate {
        /// Class lane index, or `None` for all classes combined.
        class: Option<usize>,
    },
    /// Sustained backlog of one class: the window's peak queue depth,
    /// scaled ×1 000 000 (a threshold of `3_000_000` means depth ≥ 3).
    QueueGrowth {
        /// Class lane index.
        class: usize,
    },
    /// Device health: the device's *idle* fraction of the window in ppm,
    /// evaluated only while the service has queued backlog — an idle
    /// device under backlog is stalled or dead. Idle windows with no
    /// backlog do not breach.
    DeviceStall {
        /// Device lane index.
        device: usize,
    },
}

/// One declarative alerting rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRule {
    /// Stable rule name (used in the log, docs, and regression tests).
    pub name: String,
    /// What the rule measures.
    pub kind: AlertKind,
    /// Breach threshold in parts-per-million (see [`AlertKind`] for each
    /// kind's value semantics). A window breaches when `value >=
    /// threshold_ppm`.
    pub threshold_ppm: u64,
    /// For-duration: consecutive breaching windows required to fire.
    /// Must be ≥ 1.
    pub for_windows: usize,
    /// The OPERATIONS.md runbook section to open when this fires, e.g.
    /// `OPERATIONS.md#when-the-rejection-rate-spikes`.
    pub runbook: String,
}

/// One fire or resolve transition in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertEvent {
    /// Name of the rule that transitioned.
    pub rule: String,
    /// `true` = fired, `false` = resolved.
    pub fired: bool,
    /// Index of the window the transition happened at.
    pub window: usize,
    /// Start cycle of that window.
    pub cycle: u64,
    /// The observed value (ppm semantics of the rule's kind) at the
    /// transition window; for a resolve, the first non-breaching value
    /// (0 when the window had no signal).
    pub value_ppm: u64,
    /// Runbook reference copied from the rule.
    pub runbook: String,
}

/// The ordered fire/resolve log of one evaluation, plus the rules that
/// were still firing when the timeline ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertLog {
    /// Transitions in (window, rule) order.
    pub events: Vec<AlertEvent>,
    /// Names of rules still active after the last window.
    pub still_firing: Vec<String>,
}

impl AlertLog {
    /// Number of fire transitions.
    pub fn fired(&self) -> usize {
        self.events.iter().filter(|e| e.fired).count()
    }

    /// Number of resolve transitions.
    pub fn resolved(&self) -> usize {
        self.events.iter().filter(|e| !e.fired).count()
    }

    /// Fire/resolve events of one rule, in order.
    #[cfg(test)]
    fn events_for(&self, rule: &str) -> Vec<&AlertEvent> {
        self.events.iter().filter(|e| e.rule == rule).collect()
    }

    /// Human-readable log, one line per transition.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "[window {:>3} @ cycle {:>12}] {:<7} {:<24} value {:>7} ppm  -> {}",
                e.window,
                e.cycle,
                if e.fired { "FIRE" } else { "resolve" },
                e.rule,
                e.value_ppm,
                e.runbook,
            );
        }
        for name in &self.still_firing {
            let _ = writeln!(out, "[end of timeline] still firing: {name}");
        }
        if out.is_empty() {
            out.push_str("(no alerts)\n");
        }
        out
    }
}

/// Canonical JSON exposition (integers and strings only, fixed field
/// order — byte-deterministic).
impl ToJson for AlertLog {
    fn write_json(&self, out: &mut String) {
        let events = self.events.iter().map(|e| {
            Object::new()
                .field("rule", &e.rule)
                .field("state", if e.fired { "fire" } else { "resolve" })
                .field("window", e.window)
                .field("cycle", e.cycle)
                .field("value_ppm", e.value_ppm)
                .field("runbook", &e.runbook)
        });
        Object::new()
            .field("events", events.collect::<Array>())
            .field("still_firing", self.still_firing.iter().collect::<Array>())
            .write_json(out);
    }
}

/// The per-window observed value of one rule, or `None` when the window
/// carries no signal for it (no completions, no arrivals, no backlog).
/// `None` never breaches, so it resolves an active alert.
fn observe(kind: &AlertKind, w: &Window, window_cycles: u64) -> Option<u64> {
    match kind {
        AlertKind::BurnRate { class } => {
            let c = w.classes.get(*class)?;
            if c.completed == 0 {
                None
            } else {
                Some(((c.slo_miss as u128 * 1_000_000) / c.completed as u128) as u64)
            }
        }
        AlertKind::RejectionRate { class } => {
            let (rejected, submitted) = match class {
                Some(ci) => {
                    let c = w.classes.get(*ci)?;
                    (c.rejected(), c.submitted())
                }
                None => (w.rejected(), w.submitted()),
            };
            if submitted == 0 {
                None
            } else {
                Some(((rejected as u128 * 1_000_000) / submitted as u128) as u64)
            }
        }
        AlertKind::QueueGrowth { class } => Some(
            w.classes
                .get(*class)?
                .queue_depth_peak
                .saturating_mul(1_000_000),
        ),
        AlertKind::DeviceStall { device } => {
            let d = w.devices.get(*device)?;
            if w.queue_depth_peak() == 0 {
                None
            } else {
                Some(1_000_000 - d.utilization_ppm(window_cycles))
            }
        }
    }
}

/// Evaluates `rules` against `timeline`, window by window, and returns the
/// ordered fire/resolve log.
///
/// Semantics per rule: a window *breaches* when its observed value
/// ([`AlertKind`]) is `Some(v)` with `v >= threshold_ppm`. The rule fires
/// at the window where its breach streak reaches `for_windows`, and
/// resolves at the first subsequent non-breaching window. Rules with
/// `for_windows == 0` are treated as 1. Rules indexing class or device
/// lanes the timeline does not have simply never fire.
pub fn evaluate(timeline: &Timeline, rules: &[AlertRule]) -> AlertLog {
    let mut events = Vec::new();
    let mut streak = vec![0usize; rules.len()];
    let mut active = vec![false; rules.len()];
    for (wi, w) in timeline.windows().iter().enumerate() {
        for (ri, rule) in rules.iter().enumerate() {
            let value = observe(&rule.kind, w, timeline.window_cycles());
            let breach = value.is_some_and(|v| v >= rule.threshold_ppm);
            if breach {
                streak[ri] += 1;
                if !active[ri] && streak[ri] >= rule.for_windows.max(1) {
                    active[ri] = true;
                    events.push(AlertEvent {
                        rule: rule.name.clone(),
                        fired: true,
                        window: wi,
                        cycle: w.start_cycle,
                        value_ppm: value.unwrap_or(0),
                        runbook: rule.runbook.clone(),
                    });
                }
            } else {
                streak[ri] = 0;
                if active[ri] {
                    active[ri] = false;
                    events.push(AlertEvent {
                        rule: rule.name.clone(),
                        fired: false,
                        window: wi,
                        cycle: w.start_cycle,
                        value_ppm: value.unwrap_or(0),
                        runbook: rule.runbook.clone(),
                    });
                }
            }
        }
    }
    let still_firing = rules
        .iter()
        .zip(&active)
        .filter(|(_, &a)| a)
        .map(|(r, _)| r.name.clone())
        .collect();
    AlertLog {
        events,
        still_firing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineConfig;

    fn timeline() -> Timeline {
        Timeline::new(TimelineConfig {
            window_cycles: 100,
            max_windows: 32,
            class_names: vec!["interactive".into()],
            devices: 1,
        })
    }

    fn rule(name: &str, kind: AlertKind, threshold_ppm: u64, for_windows: usize) -> AlertRule {
        AlertRule {
            name: name.into(),
            kind,
            threshold_ppm,
            for_windows,
            runbook: format!("OPERATIONS.md#{name}"),
        }
    }

    #[test]
    fn for_duration_delays_firing_and_resolves_on_first_clean_window() {
        let mut t = timeline();
        // Windows 0..3 reject half the traffic; window 4 is clean traffic;
        // window 5 has no arrivals at all.
        for w in 0..4u64 {
            t.record_accept(w * 100, 0);
            t.record_reject_queue_full(w * 100 + 1, 0);
        }
        t.record_accept(400, 0);
        t.record_accept(550, 0); // a window-5 arrival, accepted
        t.finalize(600);
        let r = rule(
            "rejection-rate",
            AlertKind::RejectionRate { class: None },
            300_000,
            2,
        );
        let log = evaluate(&t, &[r]);
        assert_eq!(log.fired(), 1);
        assert_eq!(log.resolved(), 1);
        let fire = &log.events[0];
        assert!(fire.fired);
        assert_eq!(
            fire.window, 1,
            "2-window for-duration fires at the 2nd breach"
        );
        assert_eq!(fire.value_ppm, 500_000);
        let resolve = &log.events[1];
        assert!(!resolve.fired);
        assert_eq!(resolve.window, 4);
        assert_eq!(resolve.value_ppm, 0);
        assert!(log.still_firing.is_empty());
    }

    #[test]
    fn no_signal_windows_do_not_breach_but_do_resolve() {
        let mut t = timeline();
        // Window 0: all completions miss SLO. Window 1: nothing completes.
        t.record_completion(0, 0, 500, false);
        t.record_completion(10, 0, 500, false);
        t.record_accept(150, 0);
        t.finalize(200);
        let r = rule("slo-burn", AlertKind::BurnRate { class: 0 }, 500_000, 1);
        let log = evaluate(&t, &[r]);
        assert_eq!(log.fired(), 1);
        assert_eq!(log.events[0].window, 0);
        assert_eq!(log.events[0].value_ppm, 1_000_000);
        assert_eq!(
            log.resolved(),
            1,
            "a completion-free window drains the burn"
        );
        assert_eq!(log.events[1].window, 1);
    }

    #[test]
    fn queue_growth_and_device_stall_semantics() {
        let mut t = timeline();
        t.sample_queue_depth(0, 0, 3);
        t.record_busy(0, 0, 100); // device fully busy in window 0
        t.sample_queue_depth(150, 0, 4);
        // Window 1: backlog present, device idle -> stall breach.
        t.finalize(200);
        let growth = rule(
            "queue-growth",
            AlertKind::QueueGrowth { class: 0 },
            3_000_000,
            1,
        );
        let stall = rule(
            "device-stall",
            AlertKind::DeviceStall { device: 0 },
            900_000,
            1,
        );
        let log = evaluate(&t, &[growth.clone(), stall.clone()]);
        let growth_events = log.events_for("queue-growth");
        assert_eq!(
            growth_events.len(),
            1,
            "fires in window 0 and never resolves"
        );
        assert!(log.still_firing.contains(&"queue-growth".into()));
        let stall_events = log.events_for("device-stall");
        assert_eq!(stall_events.len(), 1);
        assert!(stall_events[0].fired);
        assert_eq!(stall_events[0].window, 1, "busy window 0 does not breach");
        assert_eq!(stall_events[0].value_ppm, 1_000_000);
    }

    #[test]
    fn out_of_range_lanes_never_fire() {
        let mut t = timeline();
        t.record_reject_saturated(0, 0);
        t.finalize(100);
        let log = evaluate(
            &t,
            &[
                rule("ghost-class", AlertKind::BurnRate { class: 9 }, 0, 1),
                rule("ghost-device", AlertKind::DeviceStall { device: 9 }, 0, 1),
            ],
        );
        assert!(log.events.is_empty());
        assert!(log.still_firing.is_empty());
    }

    #[test]
    fn log_json_and_text_are_deterministic() {
        let mut t = timeline();
        for w in 0..3u64 {
            t.record_accept(w * 100, 0);
            t.record_reject_saturated(w * 100 + 1, 0);
        }
        t.record_accept(320, 0);
        t.finalize(400);
        let rules = [rule(
            "rejection-rate",
            AlertKind::RejectionRate { class: Some(0) },
            400_000,
            1,
        )];
        let log = evaluate(&t, &rules);
        assert_eq!(log.to_json(), evaluate(&t, &rules).to_json());
        assert!(log.to_json().contains("\"state\":\"fire\""));
        assert!(log.to_json().contains("\"state\":\"resolve\""));
        assert!(log.render_text().contains("FIRE"));
        assert!(log.render_text().contains("OPERATIONS.md#rejection-rate"));
        // An empty evaluation renders a placeholder, not an empty string.
        let empty = evaluate(&t, &[]);
        assert_eq!(empty.render_text(), "(no alerts)\n");
        assert_eq!(empty.to_json(), "{\"events\":[],\"still_firing\":[]}");
    }
}
