//! Device-memory accounting: a capacity-checked allocator with peak
//! tracking, backing the paper's Table 10 (amortized device memory per
//! in-flight proof) and the dynamic load/store analysis of §3.1.

use std::collections::HashMap;
use std::fmt;

/// Error returned when an allocation would exceed device capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes in use at the time of the request.
    pub in_use: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes with {}/{} in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Handle to a live device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemHandle(u64);

/// A capacity-checked bump allocator with live-allocation and peak-usage
/// tracking.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    in_use: u64,
    peak: u64,
    next_id: u64,
    live: HashMap<MemHandle, u64>,
}

impl DeviceMemory {
    /// Creates an allocator over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            in_use: 0,
            peak: 0,
            next_id: 0,
            live: HashMap::new(),
        }
    }

    /// Allocates `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfDeviceMemory`] if the allocation would exceed
    /// capacity — the failure mode the paper's dynamic loading strategy is
    /// designed to avoid.
    pub fn alloc(&mut self, bytes: u64) -> Result<MemHandle, OutOfDeviceMemory> {
        if self.in_use + bytes > self.capacity {
            return Err(OutOfDeviceMemory {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        let handle = MemHandle(self.next_id);
        self.next_id += 1;
        self.live.insert(handle, bytes);
        Ok(handle)
    }

    /// Frees a live allocation, returning its size.
    ///
    /// # Panics
    ///
    /// Panics on a double free or unknown handle (a simulation bug, not a
    /// recoverable condition).
    pub fn free(&mut self, handle: MemHandle) -> u64 {
        let bytes = self
            .live
            .remove(&handle)
            .expect("free of unknown or already-freed device allocation");
        self.in_use -= bytes;
        bytes
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark since construction (or the last [`Self::reset_peak`]).
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Resets the peak tracker to the current usage.
    pub fn reset_peak(&mut self) {
        self.peak = self.in_use;
    }

    /// Number of live allocations.
    #[cfg(test)]
    fn live_count(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut mem = DeviceMemory::new(1000);
        let a = mem.alloc(400).unwrap();
        let b = mem.alloc(500).unwrap();
        assert_eq!(mem.in_use(), 900);
        assert_eq!(mem.peak(), 900);
        assert_eq!(mem.free(a), 400);
        assert_eq!(mem.in_use(), 500);
        assert_eq!(mem.peak(), 900, "peak persists after free");
        mem.free(b);
        assert_eq!(mem.in_use(), 0);
        assert_eq!(mem.live_count(), 0);
    }

    #[test]
    fn capacity_enforced() {
        let mut mem = DeviceMemory::new(100);
        let _a = mem.alloc(60).unwrap();
        let err = mem.alloc(50).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.in_use, 60);
        assert_eq!(err.capacity, 100);
        // Exact fit is fine.
        assert!(mem.alloc(40).is_ok());
    }

    #[test]
    #[should_panic(expected = "already-freed")]
    fn double_free_panics() {
        let mut mem = DeviceMemory::new(100);
        let a = mem.alloc(10).unwrap();
        mem.free(a);
        mem.free(a);
    }

    #[test]
    fn reset_peak() {
        let mut mem = DeviceMemory::new(1000);
        let a = mem.alloc(800).unwrap();
        mem.free(a);
        assert_eq!(mem.peak(), 800);
        mem.reset_peak();
        assert_eq!(mem.peak(), 0);
    }

    #[test]
    fn error_displays() {
        let err = OutOfDeviceMemory {
            requested: 5,
            in_use: 95,
            capacity: 100,
        };
        assert!(err.to_string().contains("95/100"));
    }
}
