//! # batchzk-hash
//!
//! From-scratch SHA-256 (FIPS 180-4) with a block-level API matching the
//! paper's register-resident Merkle kernel, plus the Fiat–Shamir
//! [`Transcript`] and the Merkle-root-seeded [`Prg`] from Figure 7.
//!
//! The block function runs on the CPU's SHA extensions where they are
//! detected at run time and on a portable body elsewhere
//! ([`compress_blocks`]); sixteen equal-length messages at once
//! ([`sha256_each`], [`hash_blocks`]) run one per lane of a 16-lane AVX-512
//! kernel where `avx512f` and `avx512bw` are detected, and one at a time
//! elsewhere. Nothing configures either choice. Both kernels are reached
//! through one dispatch, and calling the `#[target_feature]` kernel from
//! its detected branch is this crate's one `unsafe` block, which is why
//! the crate root denies `unsafe_code` where its siblings forbid it.

#![deny(unsafe_code)]
#![deny(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod avx512;
mod prg;
mod sha256;
#[cfg(target_arch = "x86_64")]
mod sha_ni;
mod transcript;

pub use prg::Prg;
#[doc(hidden)]
pub use sha256::compress_portable;
pub use sha256::{
    compress, compress_blocks, compress_kernel, hash_block, hash_blocks, hash_pair, lanes_kernel,
    sha256, sha256_each, Digest, Sha256, H0,
};
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

    fn random_state(rng: &mut SplitMix64) -> [u32; 8] {
        core::array::from_fn(|_| rng.next_u64() as u32)
    }

    #[test]
    fn dispatched_compress_matches_portable() {
        // On a host with the SHA extensions this is hardware ≡ portable.
        if compress_kernel() == "portable" {
            println!("sha extension absent: portable only");
        }
        let mut rng = SplitMix64::seed_from_u64(0xB3);
        for _ in 0..4096 {
            let state = random_state(&mut rng);
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let (mut got, mut expect) = (state, state);
            compress(&mut got, &block);
            compress_portable(&mut expect, &block);
            assert_eq!(got, expect, "state {state:08x?} block {block:02x?}");
        }
    }

    #[test]
    fn compress_blocks_is_block_at_a_time() {
        let mut rng = SplitMix64::seed_from_u64(0xB4);
        for n in 0..=9 {
            let state = random_state(&mut rng);
            let mut blocks = vec![0u8; 64 * n];
            rng.fill_bytes(&mut blocks);
            let (mut got, mut expect) = (state, state);
            compress_blocks(&mut got, &blocks);
            for block in blocks.chunks_exact(64) {
                compress_portable(&mut expect, block.try_into().unwrap());
            }
            assert_eq!(got, expect, "{n} blocks");
        }
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn compress_blocks_rejects_a_partial_block() {
        compress_blocks(&mut { H0 }, &[0u8; 65]);
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
