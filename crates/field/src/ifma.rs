//! The lane hooks on AVX-512 IFMA: eight field elements per instruction.
//!
//! `vpmadd52luq` / `vpmadd52huq` add the low / high 52 bits of eight
//! 52 × 52-bit products into eight 64-bit words. So the kernels work in
//! radix 2^52, on a few shared primitives: [`load`] turns eight elements
//! into five 52-bit limb planes, [`mul_add_lanes`] adds eight products
//! lane by lane into ten *unreduced* 64-bit columns ([`mul_add`] is its
//! one-coefficient case), [`reduce`] pays one 5-round Montgomery reduction
//! (a division by 2^260) and one conditional subtraction back to five limb
//! planes, and [`store`] writes eight elements, or their 256 canonical
//! bytes, back. One term adds at most nine 52-bit halves to a column, so the
//! 12 bits of headroom hold a whole sum of terms without a carry.
//!
//! They have eight clients. [`sparse_mul_lanes`] sums one CSR row's terms
//! per block of eight interleaved lanes. [`fold_halves`] and [`scale`]
//! share one kernel that computes `a·x + b·y` or `c·x` per block of eight
//! consecutive elements, in place: each block is loaded before it is
//! stored. [`dot`] sums `aᵢ·bᵢ` per lane and adds the eight lanes up.
//! [`write_canonical`] is [`reduce`] alone: it leaves Montgomery form.
//! [`product_round_sums`] sums a sum-check round's `w·(x·y − z)` at both
//! halves and `w·Δx·Δy` per block of eight pairs, in one pass over the
//! tables. [`batch_invert`] runs [`CHAINS`] vectors of prefix-product
//! chains, 32 chains in all, side by side, so that many independent
//! products hide each reduction's latency. [`affine_chords`] computes an
//! MSM round's `λ = num·inv`, `x₃` and `y₃` per block of eight pairs.
//!
//! The columns cannot hold a negative value, so the round sums subtract
//! `z` as a product: `[−1]·[z]`, the Montgomery limbs of `−1` (`−2^256 mod
//! p`) times `z`'s, added through [`mul_add_lanes`]. The chords do the same
//! with `[−1]` pre-scaled. A slope `x_hi − x_lo` is [`difference`]:
//! `x_hi − x_lo + p` in 52-bit limbs, in `(0, 2p)`.
//!
//! **Same bytes as the scalar bodies.** A scalar body returns
//! `Σ aᵢ·xᵢ·2^-256 mod p`, canonical. The kernel enters each coefficient
//! as `aᵢ·2^4 mod p`, so its `Σ (aᵢ·2^4)·xᵢ·2^-260` is the same residue.
//! With `k` terms the sum is below `k·p²`, so the reduced value is below
//! `p + k·p²/2^260 < p·(1 + k/64)` (`p < 2^254`). For `k ≤ MAX_DEGREE = 63`
//! that is below `2p`, and the one subtraction makes it canonical. A
//! residue has one canonical representative, so the limbs are equal. Rows
//! with more non-zeros take the scalar body; the fold has `k = 2` and the
//! scale `k = 1`. The dot cannot pre-scale a vector operand, so it reduces
//! every 63 blocks and multiplies the field sum of its lanes by 2^4 once,
//! with four doublings; field addition is exact, so that sum is the scalar
//! body's too. The round sums count in units of `p²` the same way: a block
//! adds below `4p²` to an unweighted sum (two products of canonical
//! operands, or one of two differences below `2p`), so those reduce every
//! 15 blocks and correct by 2^4. A weighted block first reduces its term to
//! a canonical element (below `4p²` before, so below `2p` after), then
//! multiplies it by `w`: one product below `p²` per block, a reduction
//! every 63 blocks, and two reductions in all to correct, 2^8 or eight
//! doublings.
//!
//! **Vector × vector products** ([`product`]) cannot pre-scale either
//! operand modulo `p`, so one enters shifted left by four bits instead
//! ([`times16`]): `16·b < 16p < 2^258` still fits five limbs, and `[a]·16[b]`
//! reduces to `[a·b]`. The product is below `16p²`, so the reduced value is
//! below `p·(1 + 16/64) = 1.25p`, and the one subtraction makes it
//! canonical. The batch inversion's chains are nothing but such products,
//! and an inverse is unique, so its output is the scalar body's bytes.
//! The chords keep every sum of products below `48p²`, so each of their
//! three reductions ends below `p·(1 + 48/64) < 2p`, canonical: `λ` is one
//! product below `16p²`; `x₃` adds `λ·16λ < 16p²` and two products with the
//! pre-scaled `[−1]` below `p²` each, `18p²` in all; `y₃` adds
//! `16λ·(p_x − x₃ + p) < 16p·2p` and one `[−1]` product, `33p²` in all.
//!
//! The only thing the compiler cannot check is that the CPU has the
//! instructions. [`available`] is that check, made before each call into a
//! kernel. The other `unsafe` is the vector loads and stores. They read and
//! write whole `[F; 8]` blocks, which [`LimbLayout`] makes 256 bytes of
//! `u64` limbs, or whole 256-byte output blocks.

use core::arch::x86_64::{
    __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512,
    _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_mask_blend_epi64, _mm512_maskz_mov_epi64,
    _mm512_or_si512, _mm512_permutex2var_epi64, _mm512_set1_epi64, _mm512_set_epi64,
    _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srai_epi64, _mm512_srli_epi64,
    _mm512_storeu_si512, _mm512_sub_epi64, _mm512_test_epi64_mask,
};

use crate::limb::{add_mod, Limbs};
use crate::traits::{chord_lengths_match, round_sum_lengths_match};
use crate::{batch_invert_scalar, sparse_mul_lanes_scalar, Fq, Fr, MontLimbs};

/// Field elements per vector: eight 64-bit lanes.
const LANES: usize = 8;

/// Vectors of interleaved prefix-product chains the batch inversion runs
/// side by side, so that many independent products are in flight while
/// each reduction's latency runs.
const CHAINS: usize = 4;

/// Elements per row of the batch inversion: one per chain.
const ROW: usize = CHAINS * LANES;

/// Bytes in a block of eight elements, as limbs or as canonical bytes.
const BLOCK_BYTES: usize = 32 * LANES;

/// The most non-zeros a row may have to run on the kernel, and the most
/// blocks a dot sums per reduction: the reduced sum of `k` terms is below
/// `p·(1 + k/64)`, which one conditional subtraction canonicalises only
/// while it is below `2p`.
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

/// Whether this CPU has every instruction the kernels are compiled with
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
    // `sparse_kernel` is compiled with.
    unsafe { sparse_kernel(width, row_ptr, col_idx, values, x, out) };
    true
}

/// Runs [`crate::Field::fold_halves`] on the kernel over every whole block
/// of eight, as `(1 − r)·lo + r·hi` — the same residue as `lo + r·(hi −
/// lo)` — and returns how many leading elements it wrote. Returns 0 when
/// this CPU lacks IFMA or the halves differ in length; the caller runs the
/// default body on the rest, which panics on the latter.
pub(crate) fn fold_halves<F: LimbLayout>(lo: &mut [F], hi: &[F], r: F) -> usize {
    if lo.len() != hi.len() {
        return 0;
    }
    combine(lo, F::ONE - r, Some((hi, r)))
}

/// Runs [`crate::Field::scale`] on the kernel over every whole block of
/// eight and returns how many leading elements it wrote (0 without IFMA).
pub(crate) fn scale<F: LimbLayout>(xs: &mut [F], c: F) -> usize {
    combine(xs, c, None)
}

/// Runs [`crate::Field::dot`] on the kernel over every whole block of
/// eight of the common prefix of `a` and `b`, and returns their sum with
/// how many leading terms it took (zero terms without IFMA); the caller
/// adds the default body's sum of the rest.
pub(crate) fn dot<F: LimbLayout>(a: &[F], b: &[F]) -> (F, usize) {
    let n = a.len().min(b.len());
    if n < LANES || !available() {
        return (F::ZERO, 0);
    }
    let (a, _) = a[..n].as_chunks::<LANES>();
    let (b, _) = b[..n].as_chunks::<LANES>();
    // SAFETY: `available` has just seen, on this CPU, both target features
    // `dot_kernel` is compiled with.
    let sum = unsafe { dot_kernel(a, b) };
    (sum, a.len() * LANES)
}

/// Runs [`crate::Field::write_canonical`] on the kernel over every whole
/// block of eight and returns how many leading elements it wrote. Returns 0
/// when this CPU lacks IFMA or `out` is not 32 bytes per element; the
/// caller runs the default body on the rest, which panics on the latter.
pub(crate) fn write_canonical<F: LimbLayout>(xs: &[F], out: &mut [u8]) -> usize {
    if xs.len() < LANES || out.len() != xs.len() * 32 || !available() {
        return 0;
    }
    let (xs, _) = xs.as_chunks::<LANES>();
    let (out, _) = out.as_chunks_mut::<BLOCK_BYTES>();
    // SAFETY: `available` has just seen, on this CPU, both target features
    // `canonical_kernel` is compiled with.
    unsafe { canonical_kernel(xs, out) };
    xs.len() * LANES
}

/// Runs [`crate::Field::product_round_sums`] on the kernel over every whole
/// block of eight pairs, and returns the three sums with how many leading
/// pairs they cover (none without IFMA or when the lengths differ; the
/// caller runs the default body on the rest, which panics on the latter).
pub(crate) fn product_round_sums<F: LimbLayout>(
    x: [&[F]; 2],
    y: [&[F]; 2],
    z: Option<[&[F]; 2]>,
    w: Option<&[F]>,
    direct: bool,
) -> ([F; 3], usize) {
    let half = x[0].len();
    if half < LANES || !round_sum_lengths_match(x, y, z, w) || !available() {
        return ([F::ZERO; 3], 0);
    }
    let (x, y) = (x.map(blocks), y.map(blocks));
    let (z, w) = (z.map(|z| z.map(blocks)), w.map(blocks));
    // SAFETY: `available` has just seen, on this CPU, both target features
    // `round_sums_kernel` is compiled with.
    let sums = unsafe { round_sums_kernel(x, y, z, w, direct) };
    (sums, half / LANES * LANES)
}

/// Runs [`crate::Field::batch_invert`] on the kernel and returns `true`.
/// Every whole row of [`ROW`] elements feeds [`ROW`] interleaved chains of
/// prefix products; the chains' totals and the `len % ROW` tail go through
/// the default body together, one inversion in all; then the chains unwind.
/// Returns `false`, having written nothing, below one row or without IFMA.
pub(crate) fn batch_invert<F: LimbLayout>(values: &mut [F]) -> bool {
    if values.len() < ROW || !available() {
        return false;
    }
    let (body, tail) = values.split_at_mut(values.len() / ROW * ROW);
    let (body, _) = body.as_chunks_mut::<LANES>();
    let mut prefix = vec![[F::ZERO; LANES]; body.len()];
    let mut shared = [F::ZERO; 2 * ROW];
    let shared = &mut shared[..ROW + tail.len()];
    let (totals, _) = shared[..ROW].as_chunks_mut::<LANES>();
    // SAFETY: `available` has just seen, on this CPU, both target features
    // `chain_kernel` is compiled with.
    unsafe { chain_kernel(body, &mut prefix, totals) };
    shared[ROW..].copy_from_slice(tail);
    batch_invert_scalar(shared);
    tail.copy_from_slice(&shared[ROW..]);
    // SAFETY: as above, for `unwind_kernel`.
    unsafe { unwind_kernel(body, &prefix, shared[..ROW].as_chunks().0) };
    true
}

/// Runs [`crate::Field::affine_chords`] on the kernel over every whole block
/// of eight pairs and returns how many leading pairs it wrote. Returns 0
/// when this CPU lacks IFMA or the slices differ in length; the caller runs
/// the default body on the rest, which panics on the latter.
pub(crate) fn affine_chords<F: LimbLayout>(
    num: &[F],
    inv: &[F],
    qx: &[F],
    p: [&mut [F]; 2],
) -> usize {
    let [px, py] = p;
    if num.len() < LANES || !chord_lengths_match(num, inv, qx, [&*px, &*py]) || !available() {
        return 0;
    }
    let (px, py) = (px.as_chunks_mut().0, py.as_chunks_mut().0);
    // SAFETY: `available` has just seen, on this CPU, both target features
    // `chords_kernel` is compiled with.
    unsafe { chords_kernel(blocks(num), blocks(inv), blocks(qx), px, py) };
    num.len() / LANES * LANES
}

/// The whole blocks of eight at the front of `xs`.
fn blocks<F>(xs: &[F]) -> &[[F; LANES]] {
    xs.as_chunks().0
}

/// Per block of eight pairs, three pair terms: `x·y − z` on the low halves,
/// on the high halves (only when `direct`), and `Δx·Δy` on the
/// [`difference`]s, each added by [`add_term`] into its own columns. One
/// reduction per `cadence` blocks keeps each lane's sum below `2p` after it;
/// the eight canonical lanes are summed in the field.
#[target_feature(enable = "avx512f,avx512ifma")]
fn round_sums_kernel<F: LimbLayout>(
    x: [&[[F; LANES]]; 2],
    y: [&[[F; LANES]]; 2],
    z: Option<[&[[F; LANES]]; 2]>,
    w: Option<&[[F; LANES]]>,
    direct: bool,
) -> [F; 3] {
    let modulus = Modulus::new::<F>();
    let minus_one = splat(&split52(&(-F::ONE).mont_limbs()));
    // Weighted, a block adds one product of canonical operands (below p²)
    // to each sum; unweighted, up to two such products, or one product of
    // differences, below 4p².
    let cadence = if w.is_some() {
        MAX_DEGREE
    } else {
        MAX_DEGREE / 4
    };
    let (zl, zh) = match z {
        Some([zl, zh]) => (Some(zl), Some(zh)),
        None => (None, None),
    };
    let mut sums = [F::ZERO; 3];
    for start in (0..x[0].len()).step_by(cadence) {
        let mut acc = [[_mm512_setzero_si512(); 10]; 3];
        for b in start..(start + cadence).min(x[0].len()) {
            let w = load_at(w, b);
            let term = |acc: &mut _, x: &_, y: &_, z: Option<_>| {
                add_term(acc, x, y, z.as_ref(), w.as_ref(), &minus_one, &modulus);
            };
            let (xl, yl) = (load(&x[0][b]), load(&y[0][b]));
            let (xh, yh) = (load(&x[1][b]), load(&y[1][b]));
            term(&mut acc[0], &xl, &yl, load_at(zl, b));
            if direct {
                term(&mut acc[1], &xh, &yh, load_at(zh, b));
            }
            let dx = difference(&xh, &xl, &modulus);
            term(&mut acc[2], &dx, &difference(&yh, &yl, &modulus), None);
        }
        for (sum, acc) in sums.iter_mut().zip(acc) {
            let mut lanes = [F::ZERO; LANES];
            store(&mut lanes, reduce(acc, &modulus));
            *sum = lanes.into_iter().fold(*sum, |s, x| s + x);
        }
    }
    // Each term entered as its value times 2^-4 per reduction it went
    // through: one unweighted, two weighted.
    let doublings = if w.is_some() { 8 } else { 4 };
    sums.map(|s| (0..doublings).fold(s, |s, _| s.double()))
}

/// [`load`] of block `b` of an optional operand. (`Option::map` would take
/// a closure that inherits the target features, which a function without
/// them cannot inline.)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn load_at<F: LimbLayout>(xs: Option<&[[F; LANES]]>, b: usize) -> Option<[__m512i; 5]> {
    let xs = xs?;
    Some(load(&xs[b]))
}

/// `acc += x·y − z` as unreduced columns, `−z` entered as `[−1]·[z]` with
/// `minus_one = [−1]`; with a weight, `acc += w · reduce(x·y − z)`, the
/// reduced term canonical.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn add_term(
    acc: &mut [__m512i; 10],
    x: &[__m512i; 5],
    y: &[__m512i; 5],
    z: Option<&[__m512i; 5]>,
    w: Option<&[__m512i; 5]>,
    minus_one: &[__m512i; 5],
    modulus: &Modulus,
) {
    let mut term = [_mm512_setzero_si512(); 10];
    let columns = if w.is_some() { &mut term } else { &mut *acc };
    mul_add_lanes(columns, x, y);
    if let Some(z) = z {
        mul_add_lanes(columns, minus_one, z);
    }
    if let Some(w) = w {
        mul_add_lanes(acc, w, &reduce(term, modulus));
    }
}

/// `hi − lo + p` as five 52-bit limb planes, from two loaded blocks of
/// canonical elements: a representative of `hi − lo` in `(0, 2p)`. Each
/// limb's borrow or carry moves up by an arithmetic shift.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn difference(hi: &[__m512i; 5], lo: &[__m512i; 5], modulus: &Modulus) -> [__m512i; 5] {
    let mut d = [_mm512_setzero_si512(); 5];
    let mut carry = _mm512_setzero_si512();
    for (i, d) in d.iter_mut().enumerate() {
        let (hi, lo) = (
            _mm512_and_si512(hi[i], modulus.mask),
            _mm512_and_si512(lo[i], modulus.mask),
        );
        let s = _mm512_add_epi64(
            _mm512_sub_epi64(hi, lo),
            _mm512_add_epi64(modulus.p[i], carry),
        );
        *d = _mm512_and_si512(s, modulus.mask);
        carry = _mm512_srai_epi64::<52>(s);
    }
    d
}

/// The forward pass of the batch inversion. Per row, chain `c` (the lanes
/// of the row's block `c`) stores its running product as that block's
/// prefix, then multiplies the block in, `ONE` in a zero's lane. The chains'
/// products end in `totals`.
#[target_feature(enable = "avx512f,avx512ifma")]
fn chain_kernel<F: LimbLayout>(
    body: &[[F; LANES]],
    prefix: &mut [[F; LANES]],
    totals: &mut [[F; LANES]],
) {
    let modulus = Modulus::new::<F>();
    let one = splat(&split52(&F::ONE.mont_limbs()));
    let mut acc = [one; CHAINS];
    for (row, prefix) in body
        .chunks_exact(CHAINS)
        .zip(prefix.chunks_exact_mut(CHAINS))
    {
        for ((acc, x), prefix) in acc.iter_mut().zip(row).zip(prefix) {
            store(prefix, *acc);
            let (x, _) = nonzero_or(load(x), &one);
            *acc = product(acc, &times16(&x), &modulus);
        }
    }
    for (total, acc) in totals.iter_mut().zip(acc) {
        store(total, acc);
    }
}

/// The backward pass of the batch inversion, from the inverses of the
/// chains' totals. Per row, last row first, a non-zero lane's inverse is
/// the chain's running inverse times the lane's prefix; the running inverse
/// then takes the lane's element (`ONE` for a zero, whose lane is written
/// zero).
#[target_feature(enable = "avx512f,avx512ifma")]
fn unwind_kernel<F: LimbLayout>(
    body: &mut [[F; LANES]],
    prefix: &[[F; LANES]],
    inverses: &[[F; LANES]],
) {
    let modulus = Modulus::new::<F>();
    let one = splat(&split52(&F::ONE.mont_limbs()));
    let mut acc: [_; CHAINS] = core::array::from_fn(|c| load(&inverses[c]));
    let rows = body
        .chunks_exact_mut(CHAINS)
        .zip(prefix.chunks_exact(CHAINS));
    for (row, prefix) in rows.rev() {
        for ((acc, x), prefix) in acc.iter_mut().zip(row).zip(prefix) {
            let (factor, nonzero) = nonzero_or(load(x), &one);
            let inverse = product(acc, &times16(&load(prefix)), &modulus);
            *acc = product(acc, &times16(&factor), &modulus);
            store(x, inverse.map(|l| _mm512_maskz_mov_epi64(nonzero, l)));
        }
    }
}

/// `x` with `ONE`'s limbs in its zero lanes, and the mask of its non-zero
/// lanes. A lane is zero only if all five planes are: every bit of the
/// element is in one of them.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn nonzero_or(x: [__m512i; 5], one: &[__m512i; 5]) -> ([__m512i; 5], __mmask8) {
    let any = x
        .iter()
        .fold(_mm512_setzero_si512(), |a, &l| _mm512_or_si512(a, l));
    let nonzero = _mm512_test_epi64_mask(any, any);
    let x = [0, 1, 2, 3, 4].map(|i| _mm512_mask_blend_epi64(nonzero, one[i], x[i]));
    (x, nonzero)
}

/// Per block of eight pairs, three reductions: `λ = num·inv`, then
/// `x₃ = λ² − p_x − q_x` and `y₃ = λ·(p_x − x₃) − p_y`, each subtraction a
/// product with `[−1]` pre-scaled and `p_x − x₃` a [`difference`].
#[target_feature(enable = "avx512f,avx512ifma")]
fn chords_kernel<F: LimbLayout>(
    num: &[[F; LANES]],
    inv: &[[F; LANES]],
    qx: &[[F; LANES]],
    px: &mut [[F; LANES]],
    py: &mut [[F; LANES]],
) {
    let modulus = Modulus::new::<F>();
    let minus_one = splat(&prescaled(-F::ONE));
    for (b, (px, py)) in px.iter_mut().zip(py).enumerate() {
        let (x, y) = (load(px), load(py));
        let lambda = product(&load(&num[b]), &times16(&load(&inv[b])), &modulus);
        let lambda16 = times16(&lambda);
        let mut c = [_mm512_setzero_si512(); 10];
        mul_add_lanes(&mut c, &lambda, &lambda16);
        mul_add_lanes(&mut c, &minus_one, &x);
        mul_add_lanes(&mut c, &minus_one, &load(&qx[b]));
        let x3 = reduce(c, &modulus);
        let mut c = [_mm512_setzero_si512(); 10];
        mul_add_lanes(&mut c, &lambda16, &difference(&x, &x3, &modulus));
        mul_add_lanes(&mut c, &minus_one, &y);
        store(py, reduce(c, &modulus));
        store(px, x3);
    }
}

/// Lane-by-lane products, one reduction per `MAX_DEGREE` blocks (so each
/// lane's sum stays below `2p` after it), the eight canonical lanes summed
/// in the field.
#[target_feature(enable = "avx512f,avx512ifma")]
fn dot_kernel<F: LimbLayout>(a: &[[F; LANES]], b: &[[F; LANES]]) -> F {
    let modulus = Modulus::new::<F>();
    let mut sum = F::ZERO;
    for (a, b) in a.chunks(MAX_DEGREE).zip(b.chunks(MAX_DEGREE)) {
        let mut acc = [_mm512_setzero_si512(); 10];
        for (a, b) in a.iter().zip(b) {
            mul_add_lanes(&mut acc, &load(a), &load(b));
        }
        let mut lanes = [F::ZERO; LANES];
        store(&mut lanes, reduce(acc, &modulus));
        sum = lanes.into_iter().fold(sum, |s, x| s + x);
    }
    // Each product entered as `aᵢ·bᵢ·2^-260`; 2^4 restores the scalar
    // body's `2^-256`.
    (0..4).fold(sum, |s, _| s.double())
}

/// Per block: the stored limbs times 2^4 as the columns, then [`reduce`]:
/// `16·x·2^256 / 2^260 = x`, canonical, stored as little-endian bytes.
#[target_feature(enable = "avx512f,avx512ifma")]
fn canonical_kernel<F: LimbLayout>(xs: &[[F; LANES]], out: &mut [[u8; BLOCK_BYTES]]) {
    let modulus = Modulus::new::<F>();
    for (x, out) in xs.iter().zip(out) {
        let mut c = [_mm512_setzero_si512(); 10];
        for (c, l) in c.iter_mut().zip(load(x)) {
            *c = _mm512_slli_epi64::<4>(_mm512_and_si512(l, modulus.mask));
        }
        store(out, reduce(c, &modulus));
    }
}

/// `x ← a·x + b·y` (`x ← a·x` without `y`) over the whole blocks of `xs`,
/// `ys` as long as `xs`; returns the elements written.
fn combine<F: LimbLayout>(xs: &mut [F], a: F, y: Option<(&[F], F)>) -> usize {
    if xs.len() < LANES || !available() {
        return 0;
    }
    let (xs, _) = xs.as_chunks_mut::<LANES>();
    let y = y.map(|(ys, b)| (ys.as_chunks::<LANES>().0, b));
    // SAFETY: `available` has just seen, on this CPU, both target features
    // `combine_kernel` is compiled with.
    unsafe { combine_kernel(xs, a, y) };
    xs.len() * LANES
}

/// One row of one or two pre-scaled coefficients per block: two `mul_add`s
/// (one for a scale), one `reduce`, one `store` over the loaded `x`.
#[target_feature(enable = "avx512f,avx512ifma")]
fn combine_kernel<F: LimbLayout>(xs: &mut [[F; LANES]], a: F, y: Option<(&[[F; LANES]], F)>) {
    let modulus = Modulus::new::<F>();
    let a = prescaled(a);
    let y = y.map(|(ys, b)| (ys, prescaled(b)));
    for (i, x) in xs.iter_mut().enumerate() {
        let mut acc = [_mm512_setzero_si512(); 10];
        mul_add(&mut acc, &a, &load(x));
        if let Some((ys, b)) = &y {
            mul_add(&mut acc, b, &load(&ys[i]));
        }
        store(x, reduce(acc, &modulus));
    }
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

impl Modulus {
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn new<F: MontLimbs>() -> Self {
        Self {
            p: splat(&split52(&F::P)),
            neg_inv: _mm512_set1_epi64((F::NEG_INV & MASK52) as i64),
            mask: _mm512_set1_epi64(MASK52 as i64),
        }
    }
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
/// reduction's `2^-260` leaves the scalar body's `2^-256`. Inlined so the
/// sparse kernel's per-row coefficient loop stays free of calls.
#[inline(always)]
fn prescaled<F: MontLimbs>(a: F) -> [u64; 5] {
    let mut v = a.mont_limbs();
    for _ in 0..4 {
        v = add_mod(&v, &v, &F::P);
    }
    split52(&v)
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn sparse_kernel<F: LimbLayout>(
    width: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[F],
    x: &[F],
    out: &mut [F],
) {
    let modulus = Modulus::new::<F>();
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
    mul_add_lanes(acc, &splat(a), b);
}

/// Five limbs broadcast to every lane.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn splat(a: &[u64; 5]) -> [__m512i; 5] {
    a.map(|a| _mm512_set1_epi64(a as i64))
}

/// `[a·b]`, canonical, from `[a]` and `16·[b]` ([`times16`]): the product
/// is below `16p²`, which [`reduce`] takes below `1.25p`.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn product(a: &[__m512i; 5], b16: &[__m512i; 5], modulus: &Modulus) -> [__m512i; 5] {
    let mut c = [_mm512_setzero_si512(); 10];
    mul_add_lanes(&mut c, a, b16);
    reduce(c, modulus)
}

/// `16·x` as five 52-bit limbs, from limb planes of `x < p` (bits above 52
/// ignored, as [`load`] leaves them). The value stays below `2^258`: no
/// carry out of the top limb. Bits shifted above a limb's 52 are left in,
/// and carried up too; `madd52` reads only the low 52.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn times16(x: &[__m512i; 5]) -> [__m512i; 5] {
    let mask = _mm512_set1_epi64(MASK52 as i64);
    let mut carry = _mm512_setzero_si512();
    x.map(|l| {
        let l = _mm512_and_si512(l, mask);
        let shifted = _mm512_or_si512(_mm512_slli_epi64::<4>(l), carry);
        carry = _mm512_srli_epi64::<48>(l);
        shifted
    })
}

/// `acc += a · b` lane by lane as ten unreduced radix-2^52 columns: 25
/// `madd52lo` and 25 `madd52hi`.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_add_lanes(acc: &mut [__m512i; 10], a: &[__m512i; 5], b: &[__m512i; 5]) {
    for (i, &a) in a.iter().enumerate() {
        for (j, &b) in b.iter().enumerate() {
            acc[i + j] = _mm512_madd52lo_epu64(acc[i + j], a, b);
            acc[i + j + 1] = _mm512_madd52hi_epu64(acc[i + j + 1], a, b);
        }
    }
}

/// Montgomery reduction of the columns by `2^260`, canonical: five rounds,
/// each cancelling the lowest column with `m·p` and carrying it up, then
/// one conditional subtraction. Returns five 52-bit limb planes, as [`load`]
/// does.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce(mut c: [__m512i; 10], modulus: &Modulus) -> [__m512i; 5] {
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
    [0, 1, 2, 3, 4].map(|i| _mm512_mask_blend_epi64(below_p, d[i], t[i]))
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

/// A destination [`store`] overwrites whole: [`BLOCK_BYTES`] bytes for
/// which any bit pattern is a valid value — eight elements (any four words
/// are a valid `F: LimbLayout`, and `reduce` makes them canonical) or eight
/// elements' canonical bytes.
trait Block {}

impl<F: LimbLayout> Block for [F; LANES] {}
impl Block for [u8; BLOCK_BYTES] {}

/// Writes five 52-bit limb planes (each below 2^52) back as eight
/// elements' 64-bit limbs, element `e`'s at words `4e..4e + 4`.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn store<B: Block>(out: &mut B, t: [__m512i; 5]) {
    const { assert!(size_of::<B>() == BLOCK_BYTES) };
    let planes = [
        _mm512_or_si512(t[0], _mm512_slli_epi64::<52>(t[1])),
        _mm512_or_si512(_mm512_srli_epi64::<12>(t[1]), _mm512_slli_epi64::<40>(t[2])),
        _mm512_or_si512(_mm512_srli_epi64::<24>(t[2]), _mm512_slli_epi64::<28>(t[3])),
        _mm512_or_si512(_mm512_srli_epi64::<36>(t[3]), _mm512_slli_epi64::<16>(t[4])),
    ];
    let z = transpose(planes, halves(), interleave());
    let p = (out as *mut B).cast::<__m512i>();
    // SAFETY: `out` is `BLOCK_BYTES` = 256 writable bytes (asserted above)
    // — the four unaligned 64-byte writes below — and `B: Block` accepts
    // any bytes.
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
