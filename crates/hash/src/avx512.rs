//! The SHA-256 block function on sixteen messages at once, one per 32-bit
//! lane of an AVX-512 vector — the host's form of the paper's Merkle
//! kernel, where each GPU thread hashes its own message and a warp runs
//! them in lockstep (§3.1).
//!
//! The state starts at `H0` in every lane and ends as the lanes' digests,
//! so no state crosses the call. It is eight vectors, word `j` of every
//! lane in vector `j`, and
//! the message schedule a rolling window of sixteen such vectors. A block
//! of each lane is loaded as one vector, its words byte-swapped to
//! big-endian, and the sixteen vectors transposed so that vector `t` holds
//! word `t` of every lane. Rotates are `vprord`, and every three-input
//! Boolean function (the XORs of Σ/σ, `Ch`, `Maj`) is one `vpternlogd`.
//! Like `sha_ni.rs`, nothing here reads through a pointer: a block is
//! built from `from_le_bytes` words and the digests written out by lane
//! extracts, so every intrinsic is a safe call inside the
//! `#[target_feature]` functions. The one thing the compiler cannot check
//! is that the CPU has the instructions; [`available`] is that check and
//! `sha256::run` makes it before the call.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_extracti32x4_epi32, _mm512_ror_epi32, _mm512_set1_epi32,
    _mm512_set_epi32, _mm512_set_epi64, _mm512_shuffle_epi8, _mm512_shuffle_i32x4,
    _mm512_srli_epi32, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
    _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm_extract_epi32,
};

use crate::sha256::{Digest, H0, K, LANES};

/// Whether this CPU has every instruction [`compress_lanes`] is compiled
/// with (`std` caches the `cpuid` answer; this is a load and a mask).
#[inline]
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
}

/// One lane's 64-byte block as sixteen big-endian words, word `j` in
/// lane `j`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn load(block: &[u8; 64]) -> __m512i {
    let w: [i32; 16] =
        core::array::from_fn(|i| i32::from_le_bytes(block[4 * i..4 * i + 4].try_into().unwrap()));
    let words = _mm512_set_epi32(
        w[15], w[14], w[13], w[12], w[11], w[10], w[9], w[8], w[7], w[6], w[5], w[4], w[3], w[2],
        w[1], w[0],
    );
    _mm512_shuffle_epi8(words, byte_swap())
}

/// The 16 × 16 word transpose: row `i` holds the words of lane `i`, and
/// vector `t` of the result word `t` of every lane (and back). Pairs of rows
/// interleave their words, then their word pairs, inside each 128-bit
/// quarter; two rounds of quarter shuffles then gather quarter `k` of
/// every group of four rows.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn transpose(r: [__m512i; 16]) -> [__m512i; 16] {
    // Quarter k of t[2i] / t[2i + 1]: words 4k, 4k + 1 / 4k + 2, 4k + 3 of
    // rows 2i and 2i + 1, alternating.
    let t: [__m512i; 16] = core::array::from_fn(|n| {
        let (a, b) = (r[n & !1], r[n | 1]);
        if n % 2 == 0 {
            _mm512_unpacklo_epi32(a, b)
        } else {
            _mm512_unpackhi_epi32(a, b)
        }
    });
    // Quarter k of u[4i + m]: word 4k + m of rows 4i .. 4i + 4.
    let u: [__m512i; 16] = core::array::from_fn(|n| {
        let (group, m) = (n & !3, n % 4);
        let (a, b) = (t[group + m / 2], t[group + 2 + m / 2]);
        if m % 2 == 0 {
            _mm512_unpacklo_epi64(a, b)
        } else {
            _mm512_unpackhi_epi64(a, b)
        }
    });
    // Quarters 0, 1 (`lo`) or 2, 3 (`hi`) of rows m and 4 + m, then of
    // 8 + m and 12 + m; then quarter k of all four.
    let lo = |a, b| _mm512_shuffle_i32x4::<0x44>(a, b);
    let hi = |a, b| _mm512_shuffle_i32x4::<0xee>(a, b);
    core::array::from_fn(|n| {
        let (k, m) = (n / 4, n % 4);
        let half = if k < 2 { lo } else { hi };
        let (v, w) = (half(u[m], u[4 + m]), half(u[8 + m], u[12 + m]));
        if k % 2 == 0 {
            _mm512_shuffle_i32x4::<0x88>(v, w)
        } else {
            _mm512_shuffle_i32x4::<0xdd>(v, w)
        }
    })
}

/// `a ^ b ^ c`.
const XOR3: i32 = 0x96;
/// `Ch(a, b, c) = (a & b) ^ (!a & c)`.
const CH: i32 = 0xca;
/// `Maj(a, b, c)`.
const MAJ: i32 = 0xe8;

/// Round `T`, and the schedule word it consumes when `T ≥ 16`. `T` is a
/// const parameter, not a loop index, so every index into the window is
/// fixed and the sixteen vectors stay in registers.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn round<const T: usize>(s: &mut [__m512i; 8], w: &mut [__m512i; 16]) {
    if T >= 16 {
        let (w15, w2) = (w[(T + 1) % 16], w[(T + 14) % 16]);
        let s0 = _mm512_ternarylogic_epi32::<XOR3>(
            _mm512_ror_epi32::<7>(w15),
            _mm512_ror_epi32::<18>(w15),
            _mm512_srli_epi32::<3>(w15),
        );
        let s1 = _mm512_ternarylogic_epi32::<XOR3>(
            _mm512_ror_epi32::<17>(w2),
            _mm512_ror_epi32::<19>(w2),
            _mm512_srli_epi32::<10>(w2),
        );
        let sum = _mm512_add_epi32(w[T % 16], w[(T + 9) % 16]);
        w[T % 16] = _mm512_add_epi32(sum, _mm512_add_epi32(s0, s1));
    }
    let [a, b, c, d, e, f, g, h] = *s;
    let big_sigma1 = _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<6>(e),
        _mm512_ror_epi32::<11>(e),
        _mm512_ror_epi32::<25>(e),
    );
    let wk = _mm512_add_epi32(w[T % 16], _mm512_set1_epi32(K[T] as i32));
    let t1 = _mm512_add_epi32(
        _mm512_add_epi32(h, wk),
        _mm512_add_epi32(big_sigma1, _mm512_ternarylogic_epi32::<CH>(e, f, g)),
    );
    let big_sigma0 = _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<2>(a),
        _mm512_ror_epi32::<13>(a),
        _mm512_ror_epi32::<22>(a),
    );
    let t2 = _mm512_add_epi32(big_sigma0, _mm512_ternarylogic_epi32::<MAJ>(a, b, c));
    *s = [
        _mm512_add_epi32(t1, t2),
        a,
        b,
        c,
        _mm512_add_epi32(d, t1),
        e,
        f,
        g,
    ];
}

/// The sixteen lanes of `v`, lane `i` at `[i]`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn lanes(v: __m512i) -> [u32; LANES] {
    let quarters = [
        _mm512_extracti32x4_epi32::<0>(v),
        _mm512_extracti32x4_epi32::<1>(v),
        _mm512_extracti32x4_epi32::<2>(v),
        _mm512_extracti32x4_epi32::<3>(v),
    ];
    let mut out = [0u32; LANES];
    for (words, q) in out.chunks_exact_mut(4).zip(quarters) {
        words[0] = _mm_extract_epi32::<0>(q) as u32;
        words[1] = _mm_extract_epi32::<1>(q) as u32;
        words[2] = _mm_extract_epi32::<2>(q) as u32;
        words[3] = _mm_extract_epi32::<3>(q) as u32;
    }
    out
}

/// The `vpshufb` mask that reverses the bytes of every 32-bit lane (it
/// repeats per 128-bit lane, as `vpshufb` indexes within one).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn byte_swap() -> __m512i {
    _mm512_set_epi64(
        0x0c0d_0e0f_0809_0a0b,
        0x0405_0607_0001_0203,
        0x0c0d_0e0f_0809_0a0b,
        0x0405_0607_0001_0203,
        0x0c0d_0e0f_0809_0a0b,
        0x0405_0607_0001_0203,
        0x0c0d_0e0f_0809_0a0b,
        0x0405_0607_0001_0203,
    )
}

/// Hashes sixteen messages from [`H0`], lane `i` running every whole block
/// of `parts[0][i]` and then of `parts[1][i]`, and writes lane `i`'s
/// digest to `digests[i]`. Every lane of a part has the same number of
/// blocks (the first lane's; bytes past its last whole block are ignored).
#[target_feature(enable = "avx512f,avx512bw")]
pub(crate) fn compress_lanes(digests: &mut [Digest; LANES], parts: &[[&[u8]; LANES]; 2]) {
    let mut s = H0.map(|word| _mm512_set1_epi32(word as i32));
    for lanes in parts {
        for at in (0..lanes[0].len() / 64).map(|b| 64 * b) {
            let mut rows = [s[0]; LANES];
            for (row, lane) in rows.iter_mut().zip(lanes) {
                *row = load(lane[at..at + 64].try_into().unwrap());
            }
            let mut w = transpose(rows);
            let mut x = s;
            macro_rules! rounds {
                ($($t:literal)*) => {$( round::<$t>(&mut x, &mut w); )*};
            }
            rounds!(
                0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
                16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
                32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
                48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
            );
            for (word, add) in s.iter_mut().zip(x) {
                *word = _mm512_add_epi32(*word, add);
            }
        }
    }
    // The transpose back: row `i` is lane `i`'s eight state words (and
    // eight words of padding), written out big-endian.
    let mut words = [s[0]; LANES];
    words[..8].copy_from_slice(&s);
    for (digest, row) in digests.iter_mut().zip(transpose(words)) {
        let row = lanes(_mm512_shuffle_epi8(row, byte_swap()));
        for (bytes, word) in digest.chunks_exact_mut(4).zip(row) {
            bytes.copy_from_slice(&word.to_ne_bytes());
        }
    }
}
