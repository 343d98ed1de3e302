//! A pool of simulated devices advancing on a shared virtual clock.
//!
//! The paper evaluates BatchZK on five device profiles one at a time; the
//! production deployment it motivates (§1, "serves millions of users")
//! needs *several* devices serving one proof stream. [`DevicePool`] is the
//! substrate for that: N independent [`Gpu`]s — homogeneous or a mix of
//! [`DeviceProfile`]s — each with its own memory arena, copy engines, and
//! trace sink, sharing nothing but a virtual time base.
//!
//! Time discipline: every device carries its own clock (host code drives
//! them one at a time, but the clocks represent concurrent wall time).
//! The pool's notion of *now* is the farthest clock ([`DevicePool::
//! virtual_now`]); a scheduler that always extends the least-advanced
//! device ([`DevicePool::earliest_device`]) emulates an event-driven
//! multi-device executor, and [`DevicePool::sync`] is the barrier that
//! idles every device up to the shared now. The pool's makespan — the
//! quantity multi-device throughput is measured against — is the maximum
//! per-device elapsed time, exactly as it would be on real hardware where
//! the batch is done when the last card finishes.

use crate::fault::FaultPlan;
use crate::gpu::Gpu;
use crate::profile::DeviceProfile;
use crate::trace::TraceLevel;

/// A pool of N simulated devices sharing a virtual time base.
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<Gpu>,
}

impl DevicePool {
    /// Builds a pool from already-constructed devices.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty — a pool needs at least one device.
    pub fn new(devices: Vec<Gpu>) -> Self {
        assert!(!devices.is_empty(), "a device pool needs at least one GPU");
        Self { devices }
    }

    /// N identical devices of one profile.
    pub fn homogeneous(profile: DeviceProfile, n: usize) -> Self {
        Self::homogeneous_with_trace_level(profile, n, TraceLevel::default())
    }

    /// N identical devices recording at an explicit [`TraceLevel`].
    pub fn homogeneous_with_trace_level(
        profile: DeviceProfile,
        n: usize,
        level: TraceLevel,
    ) -> Self {
        Self::new(
            (0..n)
                .map(|_| Gpu::with_trace_level(profile.clone(), level))
                .collect(),
        )
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if the pool has no devices (never: construction forbids it,
    /// kept for the conventional `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Shared borrow of device `i`.
    pub fn device(&self, i: usize) -> &Gpu {
        &self.devices[i]
    }

    /// All devices, in pool order.
    pub fn devices(&self) -> &[Gpu] {
        &self.devices
    }

    /// Exclusive borrow of all devices — the split-borrow entry point a
    /// multi-device executor uses to drive several devices in one scope.
    pub fn devices_mut(&mut self) -> &mut [Gpu] {
        &mut self.devices
    }

    /// Relative compute capacity of device `i` (cores × clock) — the
    /// *nameplate* weight heterogeneous shard policies fall back to before
    /// a device has any execution history.
    pub fn compute_weight(&self, i: usize) -> f64 {
        let p = self.devices[i].profile();
        p.cuda_cores as f64 * p.clock_ghz
    }

    /// Measured throughput of device `i`: useful work completed per
    /// elapsed virtual time, expressed on the same scale as
    /// [`compute_weight`](Self::compute_weight) (mean utilization × cores
    /// × clock, i.e. busy core-cycles per virtual second ÷ 1e9 — exactly
    /// what the device's mean utilization and elapsed clock encode).
    /// `None` until the device has run anything; schedulers then
    /// fall back to the nameplate, an optimistic prior that measurement
    /// discounts toward what the device actually delivers.
    pub fn measured_weight(&self, i: usize) -> Option<f64> {
        let g = &self.devices[i];
        if g.elapsed_cycles() == 0 {
            return None;
        }
        let p = g.profile();
        Some(g.mean_utilization() * p.cuda_cores as f64 * p.clock_ghz)
    }

    /// Distributes a [`FaultPlan`]'s entries onto the pool's devices and
    /// returns how many entries were applied. Entries naming a device
    /// index outside the pool are skipped (a plan scripted for a larger
    /// pool degrades gracefully).
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> usize {
        let mut applied = 0;
        for e in plan.entries() {
            if let Some(gpu) = self.devices.get_mut(e.device) {
                gpu.push_fault(e.at_cycle, e.kind);
                applied += 1;
            }
        }
        applied
    }

    /// Number of fail-stopped devices.
    pub fn failed_count(&self) -> usize {
        self.devices.iter().filter(|g| g.is_failed()).count()
    }

    /// Number of clock-degraded (but still executing) devices.
    pub fn degraded_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|g| g.health().is_degraded())
            .count()
    }

    /// Dissolves the pool back into its devices.
    #[cfg(test)]
    fn into_devices(self) -> Vec<Gpu> {
        self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DeviceHealth;
    use crate::gpu::{KernelStep, Work};

    fn burn(gpu: &mut Gpu, units: u64) {
        gpu.execute_step(
            &[KernelStep::new(
                "k",
                1024,
                Work::Uniform {
                    units,
                    cycles_per_unit: 100,
                },
            )],
            &[],
            true,
        );
    }

    #[test]
    fn homogeneous_pool_has_independent_devices() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 4);
        assert_eq!(pool.len(), 4);
        burn(&mut pool.devices_mut()[1], 1 << 16);
        assert_eq!(pool.device(0).elapsed_cycles(), 0);
        assert!(pool.device(1).elapsed_cycles() > 0);
        // Memory arenas are private per device.
        pool.devices_mut()[2].memory().alloc(64).unwrap();
        assert_eq!(pool.device(0).memory_ref().in_use(), 0);
        assert_eq!(pool.device(2).memory_ref().in_use(), 64);
    }

    #[test]
    fn compute_weight_orders_heterogeneous_pool() {
        let profiles = [DeviceProfile::v100(), DeviceProfile::h100()];
        let pool = DevicePool::new(profiles.map(Gpu::new).into());
        assert!(pool.compute_weight(1) > pool.compute_weight(0));
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn empty_pool_rejected() {
        let _ = DevicePool::new(vec![]);
    }

    #[test]
    fn fault_plan_distributes_to_devices_and_sets_health() {
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 3);
        let plan = FaultPlan::new()
            .fail_stop(1, 0)
            .degraded_clock(2, 0, 250)
            .fail_stop(9, 0); // out of range: skipped
        assert_eq!(pool.apply_fault_plan(&plan), 2);
        for d in 0..3 {
            burn(&mut pool.devices_mut()[d], 1 << 12);
        }
        let healthy: Vec<usize> = (0..3).filter(|&d| !pool.device(d).is_failed()).collect();
        assert_eq!(healthy, [0, 2]);
        assert_eq!(pool.failed_count(), 1);
        assert_eq!(pool.degraded_count(), 1);
        assert_eq!(pool.device(0).health(), DeviceHealth::Healthy);
        assert_eq!(
            pool.device(1).health(),
            DeviceHealth::Failed { at_cycle: 0 }
        );
        assert_eq!(
            pool.device(2).health(),
            DeviceHealth::Degraded {
                factor_percent: 250
            }
        );
        // The dead device executed nothing.
        assert_eq!(pool.device(1).elapsed_cycles(), 0);
        // The degraded device is slower than the healthy one.
        assert!(pool.device(2).elapsed_cycles() > pool.device(0).elapsed_cycles());
    }

    #[test]
    fn into_devices_roundtrip() {
        let pool = DevicePool::homogeneous(DeviceProfile::gh200(), 3);
        let devices = pool.into_devices();
        assert_eq!(devices.len(), 3);
    }
}
