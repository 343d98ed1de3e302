//! Device profiles for the GPUs in the paper's evaluation (§6.1, Table 8).
//!
//! Core counts, SM counts, and clocks are public NVIDIA specifications; PCIe
//! effective bandwidths are back-derived from the paper's own Table 9
//! measurements (320 MB in 22.95 ms on V100 ⇒ ~13.9 GB/s, etc.), so the
//! simulated transfer times land where the authors measured them.

/// Host–device interconnect generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interconnect {
    /// PCIe 3.0 x16 (~13.9 GB/s effective).
    Pcie3x16,
    /// PCIe 4.0 x16 (~30.6 GB/s effective).
    Pcie4x16,
    /// PCIe 5.0 x16 (~65.3 GB/s effective).
    Pcie5x16,
    /// NVLink-C2C (GH200 Grace↔Hopper, ~450 GB/s).
    NvlinkC2c,
}

impl Interconnect {
    /// Effective unidirectional bandwidth in bytes per second.
    fn bytes_per_second(&self) -> f64 {
        match self {
            Interconnect::Pcie3x16 => 13.9e9,
            Interconnect::Pcie4x16 => 30.6e9,
            Interconnect::Pcie5x16 => 65.3e9,
            Interconnect::NvlinkC2c => 450.0e9,
        }
    }

    /// Human-readable name matching the paper's Table 9 column.
    pub fn name(&self) -> &'static str {
        match self {
            Interconnect::Pcie3x16 => "PCIe 3.0 x16",
            Interconnect::Pcie4x16 => "PCIe 4.0 x16",
            Interconnect::Pcie5x16 => "PCIe 5.0 x16",
            Interconnect::NvlinkC2c => "NVLink-C2C",
        }
    }
}

/// Static description of one GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name ("V100", "GH200", ...).
    pub name: &'static str,
    /// Number of FP32/INT32 CUDA cores.
    pub cuda_cores: u32,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Device memory capacity in bytes.
    pub device_mem_bytes: u64,
    /// Host link.
    pub interconnect: Interconnect,
}

impl DeviceProfile {
    /// NVIDIA Tesla V100 (5120 cores, 80 SMs, 32 GB, PCIe 3.0).
    pub fn v100() -> Self {
        Self {
            name: "V100",
            cuda_cores: 5120,
            sm_count: 80,
            clock_ghz: 1.38,
            device_mem_bytes: 32 << 30,
            interconnect: Interconnect::Pcie3x16,
        }
    }

    /// NVIDIA A100 (6912 cores, 108 SMs, 40 GB, PCIe 4.0).
    pub fn a100() -> Self {
        Self {
            name: "A100",
            cuda_cores: 6912,
            sm_count: 108,
            clock_ghz: 1.41,
            device_mem_bytes: 40 << 30,
            interconnect: Interconnect::Pcie4x16,
        }
    }

    /// NVIDIA GeForce RTX 3090 Ti (10752 cores, 84 SMs, 24 GB, PCIe 4.0) —
    /// the card of Figure 9.
    pub fn rtx3090ti() -> Self {
        Self {
            name: "3090Ti",
            cuda_cores: 10752,
            sm_count: 84,
            clock_ghz: 1.86,
            device_mem_bytes: 24 << 30,
            interconnect: Interconnect::Pcie4x16,
        }
    }

    /// NVIDIA H100 PCIe (14592 cores, 114 SMs, 80 GB, PCIe 5.0).
    pub fn h100() -> Self {
        Self {
            name: "H100",
            cuda_cores: 14592,
            sm_count: 114,
            clock_ghz: 1.755,
            device_mem_bytes: 80 << 30,
            interconnect: Interconnect::Pcie5x16,
        }
    }

    /// NVIDIA GH200 Grace Hopper (16896 cores, 132 SMs, 96 GB HBM3,
    /// NVLink-C2C to the Grace CPU) — the paper's primary platform.
    pub fn gh200() -> Self {
        Self {
            name: "GH200",
            cuda_cores: 16896,
            sm_count: 132,
            clock_ghz: 1.83,
            device_mem_bytes: 96 << 30,
            interconnect: Interconnect::NvlinkC2c,
        }
    }

    /// All profiles used across the paper's tables, in Table 8 order plus
    /// GH200.
    pub fn all() -> Vec<Self> {
        vec![
            Self::v100(),
            Self::a100(),
            Self::rtx3090ti(),
            Self::h100(),
            Self::gh200(),
        ]
    }

    /// Converts device cycles to seconds at this device's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Converts a byte count to the device cycles its transfer occupies on
    /// the host link.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        let seconds = bytes as f64 / self.interconnect.bytes_per_second();
        (seconds * self.clock_ghz * 1e9).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_compute() {
        let caps: Vec<u64> = DeviceProfile::all()
            .iter()
            .map(|p| (p.cuda_cores as f64 * p.clock_ghz * 1e6) as u64)
            .collect();
        for w in caps.windows(2) {
            assert!(w[1] > w[0], "later device should be faster: {caps:?}");
        }
    }

    #[test]
    fn cycle_time_conversion() {
        let v100 = DeviceProfile::v100();
        let secs = v100.cycles_to_seconds(1_380_000_000);
        assert!((secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_matches_paper_table9() {
        // Paper Table 9: 320 MB over PCIe 3.0 takes 22.95 ms on V100.
        let v100 = DeviceProfile::v100();
        let cycles = v100.transfer_cycles(320 << 20);
        let ms = v100.cycles_to_seconds(cycles) * 1e3;
        assert!((ms - 22.95).abs() < 2.0, "V100 320MB transfer {ms} ms");

        // And ~4.9 ms on H100 (PCIe 5.0).
        let h100 = DeviceProfile::h100();
        let ms = h100.cycles_to_seconds(h100.transfer_cycles(320 << 20)) * 1e3;
        assert!((ms - 4.9).abs() < 1.0, "H100 320MB transfer {ms} ms");
    }

    #[test]
    fn interconnect_bandwidth_ordering() {
        assert!(
            Interconnect::Pcie3x16.bytes_per_second() < Interconnect::Pcie4x16.bytes_per_second()
        );
        assert!(
            Interconnect::Pcie4x16.bytes_per_second() < Interconnect::Pcie5x16.bytes_per_second()
        );
        assert!(
            Interconnect::Pcie5x16.bytes_per_second() < Interconnect::NvlinkC2c.bytes_per_second()
        );
    }
}
