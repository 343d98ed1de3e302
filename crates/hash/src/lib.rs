//! # batchzk-hash
//!
//! From-scratch SHA-256 (FIPS 180-4) with a block-level API matching the
//! paper's register-resident Merkle kernel, plus the Fiat–Shamir
//! [`Transcript`] and the Merkle-root-seeded [`Prg`] from Figure 7.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod prg;
mod sha256;
mod transcript;

pub use prg::Prg;
pub use sha256::{compress, hash_block, hash_blocks, hash_pair, sha256, Digest, Sha256, H0};
pub use transcript::Transcript;

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use batchzk_field::{RngCore, SplitMix64};

    #[test]
    fn incremental_equals_oneshot() {
        let mut rng = SplitMix64::seed_from_u64(0xB0);
        for _ in 0..32 {
            let len = rng.gen_range(0..512);
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let split = rng.gen_range(0..=len);
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data));
        }
    }

    #[test]
    fn prg_stream_chunking_is_consistent() {
        let mut rng = SplitMix64::seed_from_u64(0xB1);
        for _ in 0..32 {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            let chunks: Vec<usize> = (0..rng.gen_range(1..8))
                .map(|_| rng.gen_range(1..40))
                .collect();
            let total: usize = chunks.iter().sum();
            let mut whole = vec![0u8; total];
            Prg::from_seed(seed).fill_bytes(&mut whole);
            let mut prg = Prg::from_seed(seed);
            let mut parts = Vec::new();
            for c in chunks {
                let mut buf = vec![0u8; c];
                prg.fill_bytes(&mut buf);
                parts.extend_from_slice(&buf);
            }
            assert_eq!(parts, whole);
        }
    }

    #[test]
    fn transcript_diverges_on_any_absorb_difference() {
        let mut rng = SplitMix64::seed_from_u64(0xB2);
        for _ in 0..32 {
            let mut a = vec![0u8; rng.gen_range(0..32)];
            let mut b = vec![0u8; rng.gen_range(0..32)];
            rng.fill_bytes(&mut a);
            rng.fill_bytes(&mut b);
            if a == b {
                continue;
            }
            let mut ta = Transcript::new(b"prop");
            let mut tb = Transcript::new(b"prop");
            ta.absorb_bytes(b"m", &a);
            tb.absorb_bytes(b"m", &b);
            assert_ne!(ta.challenge_bytes(b"c"), tb.challenge_bytes(b"c"));
        }
    }
}
