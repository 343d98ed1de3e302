//! Deterministic per-device fault injection.
//!
//! Production pools lose devices mid-batch: cards fail outright, thermal
//! throttling halves a clock, a flaky driver silently drops a kernel
//! launch. The simulator models all three as *scripted* faults keyed on
//! the device's **virtual cycle counter** — never on wall-clock — so a
//! faulty run is exactly as deterministic as a healthy one: the same
//! [`FaultPlan`] against the same workload produces byte-identical
//! clocks, traces, errors, and (after recovery) outputs at any host
//! thread count.
//!
//! The three fault kinds ([`FaultKind`]) and their execution semantics:
//!
//! * [`FaultKind::FailStop`] — the device permanently stops executing at
//!   the scripted cycle. Its clock freezes, subsequent steps run nothing,
//!   and its health reports [`DeviceHealth::Failed`]. The pipeline layer
//!   detects this at a stage boundary and salvages in-flight work.
//! * [`FaultKind::DegradedClock`] — from the scripted cycle on, every
//!   step's compute span dilates by `factor_percent / 100` (integer
//!   percent keeps the arithmetic exact). The device keeps producing
//!   correct results, just slower — and because its measured utilization
//!   drops, measured-weight shard policies automatically route work away
//!   from it.
//! * [`FaultKind::DropKernel`] — the `nth` non-empty kernel launch at or
//!   after the scripted cycle is silently suppressed: it contributes no
//!   compute, no busy cycles, and no trace event. The pipeline layer
//!   observes the drop after the step and treats the affected in-flight
//!   tasks as lost (they are salvaged and replayed).
//!
//! A [`FaultPlan`] scripts faults for a whole pool (entries carry a
//! device index); [`DevicePool::apply_fault_plan`](crate::DevicePool::
//! apply_fault_plan) distributes the entries, and each [`Gpu`](crate::Gpu)
//! arms its own script as its clock crosses the trigger cycles. Plans
//! round-trip through a compact text spec ([`FaultPlan::parse`] /
//! [`FaultPlan::spec`]) so a failure observed in a trace can be replayed
//! from the command line.

use std::fmt;

/// One kind of scripted device fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device permanently stops executing at the trigger cycle.
    FailStop,
    /// The device's compute clock dilates: every step takes
    /// `factor_percent / 100` times as long from the trigger cycle on.
    /// `100` is nominal speed; `250` runs 2.5× slower. Values below 100
    /// are clamped to nominal (faults never speed a device up).
    DegradedClock {
        /// Dilation factor in integer percent (100 = nominal).
        factor_percent: u32,
    },
    /// The `nth` (1-based) non-empty kernel launch at or after the
    /// trigger cycle is silently dropped.
    DropKernel {
        /// Which launch to drop, counting from the trigger cycle.
        nth: u32,
    },
}

impl FaultKind {
    /// Stable label for traces, metrics, and spec round-tripping.
    pub fn label(&self) -> String {
        match self {
            FaultKind::FailStop => "fail".to_string(),
            FaultKind::DegradedClock { factor_percent } => format!("slow:{factor_percent}"),
            FaultKind::DropKernel { nth } => format!("drop:{nth}"),
        }
    }
}

/// One scripted fault: which device, when (virtual cycles on that
/// device's clock), and what happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEntry {
    /// Pool index of the device the fault strikes.
    pub device: usize,
    /// Device-clock cycle at which the fault arms (the fault fires on the
    /// first step whose start cycle is at or past this).
    pub at_cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic script of per-device faults for a pool.
///
/// Plans are pure data: applying the same plan to the same pool and
/// workload reproduces the same failure, recovery, and outputs exactly.
///
/// # Examples
///
/// ```
/// use batchzk_gpu_sim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .fail_stop(1, 50_000)
///     .degraded_clock(2, 0, 300)
///     .drop_kernel(0, 10_000, 3);
/// let spec = plan.spec();
/// assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fail-stop of `device` at `at_cycle` (builder style).
    pub fn fail_stop(mut self, device: usize, at_cycle: u64) -> Self {
        self.push(FaultEntry {
            device,
            at_cycle,
            kind: FaultKind::FailStop,
        });
        self
    }

    /// Adds a clock degradation of `device` from `at_cycle` on (builder
    /// style). `factor_percent` is the dilation in integer percent.
    pub fn degraded_clock(mut self, device: usize, at_cycle: u64, factor_percent: u32) -> Self {
        self.push(FaultEntry {
            device,
            at_cycle,
            kind: FaultKind::DegradedClock { factor_percent },
        });
        self
    }

    /// Adds a dropped kernel launch on `device`: the `nth` launch at or
    /// after `at_cycle` is suppressed (builder style).
    pub fn drop_kernel(mut self, device: usize, at_cycle: u64, nth: u32) -> Self {
        self.push(FaultEntry {
            device,
            at_cycle,
            kind: FaultKind::DropKernel { nth: nth.max(1) },
        });
        self
    }

    /// Appends one entry.
    pub fn push(&mut self, entry: FaultEntry) {
        self.entries.push(entry);
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// True when the plan scripts no faults.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries targeting device `d`, in insertion order.
    #[cfg(test)]
    fn for_device(&self, d: usize) -> Vec<FaultEntry> {
        self.entries
            .iter()
            .copied()
            .filter(|e| e.device == d)
            .collect()
    }

    /// Parses the compact text spec: comma-separated entries of the form
    /// `<device>@<cycle>:fail`, `<device>@<cycle>:slow:<percent>`, or
    /// `<device>@<cycle>:drop:<nth>`. Whitespace around entries is
    /// ignored; an empty spec is the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for raw in spec.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let err = || format!("malformed fault entry `{entry}`");
            let (target, action) = entry.split_once(':').ok_or_else(err)?;
            let (device, cycle) = target.split_once('@').ok_or_else(err)?;
            let device: usize = device.trim().parse().map_err(|_| err())?;
            let at_cycle: u64 = cycle.trim().parse().map_err(|_| err())?;
            let kind = match action.split_once(':') {
                None if action == "fail" => FaultKind::FailStop,
                Some(("slow", pct)) => FaultKind::DegradedClock {
                    factor_percent: pct.trim().parse().map_err(|_| err())?,
                },
                Some(("drop", nth)) => FaultKind::DropKernel {
                    nth: nth.trim().parse::<u32>().map_err(|_| err())?.max(1),
                },
                _ => return Err(err()),
            };
            plan.push(FaultEntry {
                device,
                at_cycle,
                kind,
            });
        }
        Ok(plan)
    }

    /// Renders the plan back to the [`parse`](Self::parse) spec format.
    pub fn spec(&self) -> String {
        self.entries
            .iter()
            .map(|e| format!("{}@{}:{}", e.device, e.at_cycle, e.kind.label()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

/// The health of one device, as set by armed faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceHealth {
    /// Executing normally.
    #[default]
    Healthy,
    /// Clock-degraded: steps dilate by `factor_percent / 100`.
    Degraded {
        /// Dilation in integer percent (always > 100 once degraded).
        factor_percent: u32,
    },
    /// Fail-stopped: the device executes nothing and its clock is frozen.
    Failed {
        /// The scripted cycle the fail-stop armed at.
        at_cycle: u64,
    },
}

impl DeviceHealth {
    /// True for [`DeviceHealth::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, DeviceHealth::Failed { .. })
    }

    /// True for [`DeviceHealth::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, DeviceHealth::Degraded { .. })
    }
}

/// One fault arming or firing on a device, recorded for traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Device-clock cycle the event is stamped with: the scripted trigger
    /// for fail-stop/degradation, the firing step's start for drops.
    pub at_cycle: u64,
    /// The fault that armed or fired.
    pub kind: FaultKind,
    /// For [`FaultKind::DropKernel`]: the name of the suppressed kernel.
    pub kernel: Option<String>,
}

/// A kernel launch suppressed by an armed [`FaultKind::DropKernel`],
/// reported by [`crate::Gpu::take_dropped_kernels`] so the pipeline
/// layer can salvage the tasks whose stage work silently did not
/// execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedKernel {
    /// Name of the kernel whose launch was dropped.
    pub name: String,
    /// Start cycle of the step the drop fired in.
    pub at_cycle: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_and_accessors() {
        let plan = FaultPlan::new()
            .fail_stop(1, 500)
            .degraded_clock(0, 0, 250)
            .drop_kernel(1, 100, 2);
        assert_eq!(plan.entries().len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.for_device(1).len(), 2);
        assert_eq!(plan.for_device(2).len(), 0);
        assert_eq!(
            plan.for_device(0)[0].kind,
            FaultKind::DegradedClock {
                factor_percent: 250
            }
        );
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan::new()
            .fail_stop(3, 123_456)
            .degraded_clock(0, 42, 400)
            .drop_kernel(2, 0, 7);
        assert_eq!(plan.spec(), "3@123456:fail,0@42:slow:400,2@0:drop:7");
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        assert_eq!(plan.to_string(), plan.spec());
    }

    #[test]
    fn parse_tolerates_whitespace_and_empty() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,  ").unwrap().is_empty());
        let plan = FaultPlan::parse(" 1@10:fail , 0@0:slow:200 ").unwrap();
        assert_eq!(plan.entries().len(), 2);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "fail",
            "1@x:fail",
            "x@10:fail",
            "1@10:melt",
            "1@10:slow:fast",
            "1@10:drop:",
            "1@10",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn drop_nth_clamped_to_one() {
        let plan = FaultPlan::new().drop_kernel(0, 0, 0);
        assert_eq!(plan.entries()[0].kind, FaultKind::DropKernel { nth: 1 });
        let parsed = FaultPlan::parse("0@0:drop:0").unwrap();
        assert_eq!(parsed.entries()[0].kind, FaultKind::DropKernel { nth: 1 });
    }

    #[test]
    fn health_predicates() {
        assert!(!DeviceHealth::Healthy.is_failed());
        assert!(DeviceHealth::Failed { at_cycle: 7 }.is_failed());
        assert!(DeviceHealth::Degraded {
            factor_percent: 200
        }
        .is_degraded());
        assert!(!DeviceHealth::Healthy.is_degraded());
    }
}
