//! [`crate::Field::sparse_mul_lanes`] on AVX-512 IFMA: eight interleaved
//! lanes per instruction.
//!
//! `vpmadd52luq` / `vpmadd52huq` add the low / high 52 bits of eight
//! 52 × 52-bit products into eight 64-bit words. So the kernel works in
//! radix 2^52. An operand is five 52-bit limbs, and a product is
//! accumulated as ten *unreduced* 64-bit columns. One term adds at most
//! nine 52-bit halves to a column, so the 12 bits of headroom hold a whole
//! row without a carry. Each row and 8-lane block then pays one 5-round
//! Montgomery reduction, which divides by 2^260, and one conditional
//! subtraction.
//!
//! **Same bytes as the scalar body.** The scalar body returns
//! `Σ aᵢ·xᵢ·2^-256 mod p`, canonical. The kernel enters each coefficient
//! as `aᵢ·2^4 mod p`, so its `Σ (aᵢ·2^4)·xᵢ·2^-260` is the same residue.
//! With `k` terms the sum is below `k·p²`, so the reduced value is below
//! `p + k·p²/2^260 < p·(1 + k/64)` (`p < 2^254`). For `k ≤ MAX_DEGREE = 63`
//! that is below `2p`, and the one subtraction makes it canonical. A
//! residue has one canonical representative, so the limbs are equal. Rows
//! with more non-zeros take the scalar body.
//!
//! The only thing the compiler cannot check is that the CPU has the
//! instructions. [`available`] is that check, and [`sparse_mul_lanes`]
//! makes it before the call. The other `unsafe` is the vector loads and
//! stores. They read and write whole `[F; 8]` blocks, which
//! [`LimbLayout`] makes 256 bytes of `u64` limbs.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_mask_blend_epi64, _mm512_or_si512, _mm512_permutex2var_epi64,
    _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
    _mm512_srli_epi64, _mm512_storeu_si512, _mm512_sub_epi64, _mm512_test_epi64_mask,
};

use crate::limb::{add_mod, Limbs};
use crate::{sparse_mul_lanes_scalar, Fq, Fr, MontLimbs};

/// Field elements per vector: eight 64-bit lanes.
const LANES: usize = 8;

/// The most non-zeros a row may have to run on the kernel: the reduced sum
/// is below `p·(1 + deg/64)`, which one conditional subtraction
/// canonicalises only while it is below `2p`.
const MAX_DEGREE: usize = 63;

const MASK52: u64 = (1 << 52) - 1;

/// A field whose elements are `#[repr(transparent)]` over [`Limbs`], as
/// `declare_field!` declares them: a block of eight is 32 `u64`s that the
/// kernel may load and store whole, and every `[u64; 4]` is a valid value.
pub(crate) trait LimbLayout: MontLimbs {}

impl LimbLayout for Fr {}
impl LimbLayout for Fq {}

const _: () =
    assert!(size_of::<Fr>() == size_of::<Limbs>() && size_of::<Fq>() == size_of::<Limbs>());

/// Whether this CPU has every instruction [`kernel`] is compiled with
/// (`std` caches the `cpuid` answer; this is a load and a mask).
#[inline]
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// Runs [`crate::Field::sparse_mul_lanes`] on the kernel and returns
/// `true`. Returns `false`, having written nothing, when this CPU lacks
/// IFMA, `width` is not a positive multiple of eight, or the shape does
/// not check out; the caller then runs the scalar body, which panics where
/// it always has.
pub(crate) fn sparse_mul_lanes<F: LimbLayout>(
    width: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[F],
    x: &[F],
    out: &mut [F],
) -> bool {
    if width == 0
        || !width.is_multiple_of(LANES)
        || !available()
        || !shape_holds(width, row_ptr, col_idx, values, x, out)
    {
        return false;
    }
    // SAFETY: `available` has just seen, on this CPU, both target features
    // `kernel` is compiled with.
    unsafe { kernel(width, row_ptr, col_idx, values, x, out) };
    true
}

/// The shape checks, O(rows + nnz): spans in order and inside `col_idx`,
/// one coefficient per index, every column's input block inside `x`, and
/// one output row per span. The kernel indexes through checked slices
/// anyway; this keeps it from panicking halfway through `out`.
fn shape_holds<F>(
    width: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[F],
    x: &[F],
    out: &[F],
) -> bool {
    let (Some(rows), cols) = (row_ptr.len().checked_sub(1), x.len() / width) else {
        return false;
    };
    rows.checked_mul(width) == Some(out.len())
        && values.len() == col_idx.len()
        && row_ptr.windows(2).all(|span| span[0] <= span[1])
        && row_ptr[rows] <= col_idx.len()
        && col_idx[row_ptr[0]..row_ptr[rows]].iter().all(|&c| c < cols)
}

/// Per-field vector constants: `p` in 52-bit limbs, `-p⁻¹ mod 2^52`, and
/// the limb mask, each broadcast to every lane.
struct Modulus {
    p: [__m512i; 5],
    neg_inv: __m512i,
    mask: __m512i,
}

/// `a` as five 52-bit limbs.
fn split52(a: &Limbs) -> [u64; 5] {
    [
        a[0] & MASK52,
        (a[0] >> 52 | a[1] << 12) & MASK52,
        (a[1] >> 40 | a[2] << 24) & MASK52,
        (a[2] >> 28 | a[3] << 36) & MASK52,
        a[3] >> 16,
    ]
}

/// A row coefficient as the kernel takes it: `a·2^4 mod p`, so the
/// reduction's `2^-260` leaves the scalar body's `2^-256`.
fn prescaled<F: MontLimbs>(a: F) -> [u64; 5] {
    let mut v = a.mont_limbs();
    for _ in 0..4 {
        v = add_mod(&v, &v, &F::P);
    }
    split52(&v)
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn kernel<F: LimbLayout>(
    width: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[F],
    x: &[F],
    out: &mut [F],
) {
    let modulus = Modulus {
        p: split52(&F::P).map(|l| _mm512_set1_epi64(l as i64)),
        neg_inv: _mm512_set1_epi64((F::NEG_INV & MASK52) as i64),
        mask: _mm512_set1_epi64(MASK52 as i64),
    };
    let blocks = width / LANES;
    let (x_blocks, _) = x.as_chunks::<LANES>();
    let mut coeffs = [[0u64; 5]; MAX_DEGREE];
    for (span, out_row) in row_ptr.windows(2).zip(out.chunks_exact_mut(width)) {
        let cols = &col_idx[span[0]..span[1]];
        if cols.len() > MAX_DEGREE {
            sparse_mul_lanes_scalar(width, span, col_idx, values, x, out_row);
            continue;
        }
        let coeffs = &mut coeffs[..cols.len()];
        for (a, &v) in coeffs.iter_mut().zip(&values[span[0]..span[1]]) {
            *a = prescaled(v);
        }
        let (out_blocks, _) = out_row.as_chunks_mut::<LANES>();
        for (block, out_block) in out_blocks.iter_mut().enumerate() {
            let mut acc = [_mm512_setzero_si512(); 10];
            for (a, &c) in coeffs.iter().zip(cols) {
                mul_add(&mut acc, a, &load(&x_blocks[c * blocks + block]));
            }
            store(out_block, reduce(acc, &modulus));
        }
    }
}

/// `acc += a · b` as ten unreduced radix-2^52 columns: `a` one coefficient
/// for every lane, `b` eight operands.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_add(acc: &mut [__m512i; 10], a: &[u64; 5], b: &[__m512i; 5]) {
    for (i, &a) in a.iter().enumerate() {
        let a = _mm512_set1_epi64(a as i64);
        for (j, &b) in b.iter().enumerate() {
            acc[i + j] = _mm512_madd52lo_epu64(acc[i + j], a, b);
            acc[i + j + 1] = _mm512_madd52hi_epu64(acc[i + j + 1], a, b);
        }
    }
}

/// Montgomery reduction of the columns by `2^260`, canonical: five rounds,
/// each cancelling the lowest column with `m·p` and carrying it up, then
/// one conditional subtraction. Returns the four 64-bit limb planes.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce(mut c: [__m512i; 10], modulus: &Modulus) -> [__m512i; 4] {
    let zero = _mm512_setzero_si512();
    for r in 0..5 {
        // `madd52lo` reads the low 52 bits of `c[r]`: all `m` depends on.
        let m = _mm512_madd52lo_epu64(zero, c[r], modulus.neg_inv);
        for (j, &p) in modulus.p.iter().enumerate() {
            c[r + j] = _mm512_madd52lo_epu64(c[r + j], m, p);
            c[r + j + 1] = _mm512_madd52hi_epu64(c[r + j + 1], m, p);
        }
        c[r + 1] = _mm512_add_epi64(c[r + 1], _mm512_srli_epi64::<52>(c[r]));
    }
    // Columns 5..10 hold the result, below 2p < 2^255: carry them into
    // 52-bit limbs.
    let mut t = [zero; 5];
    let mut carry = zero;
    for (t, &c) in t.iter_mut().zip(&c[5..]) {
        let s = _mm512_add_epi64(c, carry);
        *t = _mm512_and_si512(s, modulus.mask);
        carry = _mm512_srli_epi64::<52>(s);
    }
    // `t - p`, kept where it does not borrow.
    let mut d = [zero; 5];
    let mut borrow = zero;
    for ((d, &t), &p) in d.iter_mut().zip(&t).zip(&modulus.p) {
        let s = _mm512_sub_epi64(_mm512_sub_epi64(t, p), borrow);
        *d = _mm512_and_si512(s, modulus.mask);
        borrow = _mm512_srli_epi64::<63>(s);
    }
    let below_p = _mm512_test_epi64_mask(borrow, borrow);
    let t = [0, 1, 2, 3, 4].map(|i| _mm512_mask_blend_epi64(below_p, d[i], t[i]));
    [
        _mm512_or_si512(t[0], _mm512_slli_epi64::<52>(t[1])),
        _mm512_or_si512(_mm512_srli_epi64::<12>(t[1]), _mm512_slli_epi64::<40>(t[2])),
        _mm512_or_si512(_mm512_srli_epi64::<24>(t[2]), _mm512_slli_epi64::<28>(t[3])),
        _mm512_or_si512(_mm512_srli_epi64::<36>(t[3]), _mm512_slli_epi64::<16>(t[4])),
    ]
}

/// Eight elements as five 52-bit limb planes (lane `e` of plane `l` is
/// limb `l` of element `e`). Bits above 52 are left in: `madd52` reads
/// only the low 52.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn load<F: LimbLayout>(xs: &[F; LANES]) -> [__m512i; 5] {
    let p = xs.as_ptr().cast::<__m512i>();
    // SAFETY: `F: LimbLayout` is four `u64`s, so `xs` is 256 initialised
    // bytes — the four unaligned 64-byte reads below.
    let z = unsafe {
        [
            _mm512_loadu_si512(p),
            _mm512_loadu_si512(p.add(1)),
            _mm512_loadu_si512(p.add(2)),
            _mm512_loadu_si512(p.add(3)),
        ]
    };
    let [l0, l1, l2, l3] = transpose(z, interleave(), halves());
    [
        l0,
        _mm512_or_si512(_mm512_srli_epi64::<52>(l0), _mm512_slli_epi64::<12>(l1)),
        _mm512_or_si512(_mm512_srli_epi64::<40>(l1), _mm512_slli_epi64::<24>(l2)),
        _mm512_or_si512(_mm512_srli_epi64::<28>(l2), _mm512_slli_epi64::<36>(l3)),
        _mm512_srli_epi64::<16>(l3),
    ]
}

/// Writes four 64-bit limb planes back as eight elements.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn store<F: LimbLayout>(out: &mut [F; LANES], planes: [__m512i; 4]) {
    let z = transpose(planes, halves(), interleave());
    let p = out.as_mut_ptr().cast::<__m512i>();
    // SAFETY: `F: LimbLayout` is four `u64`s, so `out` is 256 writable
    // bytes — the four unaligned 64-byte writes below — and any four words
    // are a valid `F` (these are canonical: `reduce` makes them so).
    unsafe {
        _mm512_storeu_si512(p, z[0]);
        _mm512_storeu_si512(p.add(1), z[1]);
        _mm512_storeu_si512(p.add(2), z[2]);
        _mm512_storeu_si512(p.add(3), z[3]);
    }
}

/// Within a pair `(a, b)` of element-major vectors: limbs 0 and 1 (then 2
/// and 3) of the pair's four elements.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn interleave() -> [__m512i; 2] {
    [
        _mm512_set_epi64(13, 9, 5, 1, 12, 8, 4, 0),
        _mm512_set_epi64(15, 11, 7, 3, 14, 10, 6, 2),
    ]
}

/// The low (then high) 256-bit halves of `a` and `b`.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn halves() -> [__m512i; 2] {
    [
        _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0),
        _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4),
    ]
}

/// Two stages of `permutex2var` over the pairs `(0, 1)`, `(2, 3)`, then
/// `(0, 2)`, `(1, 3)` of their outputs. With [`interleave`] then [`halves`]
/// it turns element-major vectors (vector `j` = elements `2j`, `2j + 1`,
/// four limbs each) into limb planes; with the two swapped, back.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn transpose(z: [__m512i; 4], first: [__m512i; 2], second: [__m512i; 2]) -> [__m512i; 4] {
    let s = [
        _mm512_permutex2var_epi64(z[0], first[0], z[1]),
        _mm512_permutex2var_epi64(z[0], first[1], z[1]),
        _mm512_permutex2var_epi64(z[2], first[0], z[3]),
        _mm512_permutex2var_epi64(z[2], first[1], z[3]),
    ];
    [
        _mm512_permutex2var_epi64(s[0], second[0], s[2]),
        _mm512_permutex2var_epi64(s[0], second[1], s[2]),
        _mm512_permutex2var_epi64(s[1], second[0], s[3]),
        _mm512_permutex2var_epi64(s[1], second[1], s[3]),
    ]
}
