//! Seeded pseudorandom generator (SHA-256 in counter mode).
//!
//! Figure 7 of the paper derives sum-check randomness from "pseudorandom
//! generators using either the final Merkle root or the output from other
//! sum-check modules as a seed". [`Prg`] is that component. It also
//! implements [`batchzk_field::RngCore`] so it can drive any seeded sampling
//! in the workspace deterministically.

use batchzk_field::RngCore;

use crate::sha256::{Digest, Sha256};

/// Deterministic byte stream expanded from a 32-byte seed.
///
/// # Examples
///
/// ```
/// use batchzk_hash::Prg;
/// use batchzk_field::RngCore;
///
/// let mut a = Prg::from_bytes(b"seed");
/// let mut b = Prg::from_bytes(b"seed");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Prg {
    seed: Digest,
    counter: u64,
    buffer: Digest,
    used: usize,
}

impl Prg {
    /// Creates a generator from a 32-byte seed (e.g. a Merkle root).
    pub(crate) fn from_seed(seed: Digest) -> Self {
        Self {
            seed,
            counter: 0,
            buffer: [0u8; 32],
            used: 32,
        }
    }

    /// Creates a generator by hashing arbitrary seed material.
    pub fn from_bytes(material: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"batchzk-prg-v1");
        h.update(material);
        Self::from_seed(h.finalize())
    }

    /// Creates a generator from a 64-bit seed — the drop-in replacement for
    /// `StdRng::seed_from_u64` at deterministic test/bench call sites.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::from_bytes(&seed.to_le_bytes())
    }

    fn refill(&mut self) {
        let mut h = Sha256::new();
        h.update(&self.seed);
        h.update(&self.counter.to_le_bytes());
        self.buffer = h.finalize();
        self.counter += 1;
        self.used = 0;
    }
}

impl RngCore for Prg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.used == 32 {
                self.refill();
            }
            let take = (32 - self.used).min(dest.len() - filled);
            dest[filled..filled + take].copy_from_slice(&self.buffer[self.used..self.used + take]);
            self.used += take;
            filled += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::{Field, Fr, RngCore};

    #[test]
    fn deterministic() {
        let mut a = Prg::from_seed([1u8; 32]);
        let mut b = Prg::from_seed([1u8; 32]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prg::from_seed([1u8; 32]);
        let mut b = Prg::from_seed([2u8; 32]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_bytes_is_stream_consistent() {
        // Reading 100 bytes at once equals reading them in odd chunks.
        let mut a = Prg::from_seed([3u8; 32]);
        let mut whole = [0u8; 100];
        a.fill_bytes(&mut whole);

        let mut b = Prg::from_seed([3u8; 32]);
        let mut parts = Vec::new();
        for chunk in [7usize, 13, 32, 1, 47] {
            let mut buf = vec![0u8; chunk];
            b.fill_bytes(&mut buf);
            parts.extend_from_slice(&buf);
        }
        assert_eq!(parts, whole);
    }

    #[test]
    fn drives_field_sampling() {
        let mut prg = Prg::from_bytes(b"merkle-root");
        let x = Fr::random(&mut prg);
        let y = Fr::random(&mut prg);
        assert_ne!(x, y);
        let mut prg2 = Prg::from_bytes(b"merkle-root");
        assert_eq!(Fr::random(&mut prg2), x);
    }

    #[test]
    fn stream_has_no_short_cycle() {
        let mut prg = Prg::from_seed([9u8; 32]);
        let first: Vec<u64> = (0..16).map(|_| prg.next_u64()).collect();
        let second: Vec<u64> = (0..16).map(|_| prg.next_u64()).collect();
        assert_ne!(first, second);
    }
}
