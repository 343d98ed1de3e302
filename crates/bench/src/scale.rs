//! Experiment scale configuration.
//!
//! The paper's workloads (2^18–2^22 elements, full VGG-16) take hours of
//! real CPU arithmetic under simulation, so the harness defaults to a
//! proportionally scaled-down sweep that preserves every comparative shape
//! (who wins, by what factor, where the crossovers fall). Pass `--paper`
//! to run the full-size sweep.

/// Batch size for the scaling sweep, at every scale. Must be large against
/// the pipeline depth (4 stages): a batch of `m` takes `m + depth - 1`
/// pipeline slots on one device but `m/d + depth - 1` on each of `d`, so
/// small batches understate the pool's steady-state speedup.
pub(crate) const SCALING_BATCH: usize = 48;

/// Probe batch for the service-time calibration, at every scale: the
/// replay first proves this many instances in batch mode to measure the
/// steady-state per-proof interval that defines the trace time unit. It
/// must clear the same 4-stage depth so that interval reflects the steady
/// state.
pub(crate) const SERVICE_PROBE_BATCH: usize = 8;

const _: () = assert!(SCALING_BATCH >= 8 * 4 && SERVICE_PROBE_BATCH >= 2 * 4);

/// Workload sizes for one harness run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// log2 sizes for the module tables (3, 4, 5), largest first.
    pub module_logs: Vec<u32>,
    /// Batch size for module pipeline runs.
    pub module_batch: usize,
    /// log2 circuit sizes for the system tables (7, 10), largest first.
    pub system_logs: Vec<u32>,
    /// Batch size for system pipeline runs.
    pub system_batch: usize,
    /// VGG width divisor for Table 11 (1 = full VGG-16).
    pub vgg_divisor: usize,
    /// Batch of images for Table 11.
    pub vgg_batch: usize,
    /// log2 circuit size for the multi-device scaling sweep. Smaller than
    /// the system sizes: the sweep repeats the whole batch at every device
    /// count, and the scaling shape is size-independent.
    pub scaling_log: u32,
    /// log2 circuit size for the online-service replay (`tables serve` and
    /// the BENCH.json `service` section). Kept small like `scaling_log`:
    /// the replay proves every admitted arrival of the trace at two pool
    /// sizes, and the admission/SLO shape is size-independent because
    /// trace time is calibrated to the measured proof interval.
    pub service_log: u32,
    /// log2 circuit size for the backend comparison (`tables backends` and
    /// the BENCH.json `backends` section). Both backends run at this size;
    /// kept modest because the Groth16-style prover performs real Pippenger
    /// MSMs per proof on the host.
    pub backends_log: u32,
    /// Throughput-scenario batch size for the backend comparison.
    pub backends_batch: usize,
    /// Human-readable tag recorded in outputs.
    pub tag: &'static str,
}

impl Scale {
    /// Fast sweep (minutes): sizes 2^10–2^14, reduced VGG.
    pub fn quick() -> Self {
        Self {
            module_logs: vec![14, 13, 12, 11, 10],
            // Well past the pipeline depth (log N + 1 stages) so the
            // steady state dominates fill/drain.
            module_batch: 48,
            system_logs: vec![14, 13, 12],
            system_batch: 6,
            vgg_divisor: 32,
            vgg_batch: 4,
            scaling_log: 10,
            service_log: 10,
            backends_log: 10,
            backends_batch: 6,
            tag: "quick (sizes /16 of paper)",
        }
    }

    /// The paper's exact sizes (very slow on CPU-simulated hardware).
    pub fn paper() -> Self {
        Self {
            module_logs: vec![22, 21, 20, 19, 18],
            module_batch: 12,
            system_logs: vec![22, 21, 20, 19, 18],
            system_batch: 6,
            vgg_divisor: 1,
            vgg_batch: 4,
            scaling_log: 18,
            service_log: 18,
            backends_log: 12,
            backends_batch: 12,
            tag: "paper scale",
        }
    }

    /// Intermediate sweep for overnight runs.
    pub fn medium() -> Self {
        Self {
            module_logs: vec![18, 17, 16, 15, 14],
            module_batch: 48,
            system_logs: vec![16, 15, 14],
            system_batch: 6,
            vgg_divisor: 16,
            vgg_batch: 4,
            scaling_log: 12,
            service_log: 12,
            backends_log: 11,
            backends_batch: 8,
            tag: "medium (sizes /16..64 of paper)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_descending() {
        for s in [Scale::quick(), Scale::paper(), Scale::medium()] {
            assert!(s.module_logs.windows(2).all(|w| w[0] > w[1]));
            assert!(s.system_logs.windows(2).all(|w| w[0] > w[1]));
            assert!(s.module_batch >= 2 && s.system_batch >= 2);
            assert!(s.service_log >= 8);
            // The backend comparison needs a throughput batch past the
            // 4-stage depth and a size that exercises real MSM windows.
            assert!(s.backends_batch >= 4 && s.backends_log >= 8);
        }
    }
}
