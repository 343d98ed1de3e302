//! The SHA-256 block function on the x86 SHA extensions.
//!
//! `sha256rnds2` runs two rounds on a state held as two vectors — `ABEF`
//! and `CDGH`, lane 3 first — and `sha256msg1` / `sha256msg2` extend the
//! message schedule four words at a time, so a block is 32 round
//! instructions in one dependency chain and the schedule never leaves four
//! registers. Nothing here reads through a pointer: message words are built
//! from `from_le_bytes` (which the compiler turns back into one 16-byte
//! load) and byte-swapped in the vector, so every intrinsic is a safe call
//! inside the `#[target_feature]` function. The one thing the compiler
//! cannot check is that the CPU has the instructions; [`available`] is
//! that check and `sha256::run` makes it before the call.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8,
};

use crate::sha256::K;

/// Whether this CPU has every instruction [`compress_blocks`] is compiled
/// with (`std` caches the `cpuid` answer; this is a load and a mask).
#[inline]
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
}

/// Message words `4i .. 4i + 4` of `block`, word `4i` in lane 0.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn message_words(block: &[u8], i: usize) -> __m128i {
    let half = |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().unwrap());
    // Big-endian words: reverse the bytes inside each 32-bit lane.
    let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    _mm_shuffle_epi8(_mm_set_epi64x(half(16 * i + 8), half(16 * i)), swap)
}

/// Round constants `4i .. 4i + 4`, constant `4i` in lane 0.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn round_constants(i: usize) -> __m128i {
    let k = |j: usize| K[4 * i + j] as i32;
    _mm_set_epi32(k(3), k(2), k(1), k(0))
}

/// Rounds `4I .. 4I + 4`, and the schedule work that overlaps them.
/// `m[I % 4]` holds schedule words `4I .. 4I + 4` on entry. `I` is a
/// const parameter, not a loop index, so every index into `m` is fixed and
/// the four vectors stay in registers.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn four_rounds<const I: usize>(abef: &mut __m128i, cdgh: &mut __m128i, m: &mut [__m128i; 4]) {
    let cur = m[I % 4];
    let wk = _mm_add_epi32(cur, round_constants(I));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    if (3..15).contains(&I) {
        // Finish the words of group `I + 1`: W[t-7] is the last word of
        // the previous group and the first three of this one, and
        // `sha256msg2` adds σ1(W[t-2]).
        let w_t7 = _mm_alignr_epi8(cur, m[(I + 3) % 4], 4);
        let next = (I + 1) % 4;
        m[next] = _mm_sha256msg2_epu32(_mm_add_epi32(m[next], w_t7), cur);
    }
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    if (1..13).contains(&I) {
        // Start the words of group `I + 3`: W[t-16] + σ0(W[t-15]).
        let prev = (I + 3) % 4;
        m[prev] = _mm_sha256msg1_epu32(m[prev], cur);
    }
}

/// Applies the compression function to every 64-byte block of `blocks` in
/// order; the state is packed into `ABEF` / `CDGH` once for the whole
/// message. Bytes past the last whole block are ignored (the caller passes
/// none).
#[target_feature(enable = "sha,sse4.1,ssse3")]
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut m = [0, 1, 2, 3].map(|i| message_words(block, i));
        macro_rules! rounds {
            ($($i:literal)*) => {$( four_rounds::<$i>(&mut abef, &mut cdgh, &mut m); )*};
        }
        rounds!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|w| w as u32);
}
