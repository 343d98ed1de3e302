//! The lane kernels on AVX-512 IFMA: eight field elements per instruction.
//!
//! `vpmadd52luq` / `vpmadd52huq` add the low / high 52 bits of eight
//! 52 × 52-bit products into eight 64-bit words, so the kernels work in
//! radix 2^52 on two types. A [`Packed`] is eight elements as five 52-bit
//! limb planes: loaded from and stored to a block of elements (or of
//! canonical bytes), broadcast from one element, shifted left by four bits
//! ([`Packed::times16`]), subtracted ([`Packed::difference`]), brought
//! from below `2p` to canonical ([`Packed::canonical`]) and masked
//! ([`Packed::nonzero_or`]). An [`Acc`] is ten *unreduced* 64-bit columns:
//! [`Acc::mul_add`] adds eight products lane by lane, and [`Acc::reduce`]
//! pays one 5-round Montgomery reduction (a division by 2^260) and one
//! conditional subtraction back to a `Packed`.
//!
//! **The `p²` budget.** A `Packed` carries a bound `b` (every lane below
//! `b·p`) and an [`Acc`] the sum of its products' bounds in units of `p²`,
//! `k`. Its reduced value is below `p + k·p²/2^260 < p·(1 + k/64)`
//! (`p < 2^254`), which the one subtraction makes canonical while `k < 64`
//! ([`BUDGET`]); under `debug_assertions` [`Acc::reduce`] asserts it. A
//! product adds at most nine 52-bit halves to a column and a budget of 63
//! allows at most 63 products, so the columns never carry out of their
//! 64 bits. The table of what each kernel spends is DESIGN.md §16, "The
//! packed lane type and its `p²` budget"; a test pins it.
//!
//! **Same bytes as the scalar bodies.** A reduction multiplies by 2^-260
//! where a scalar Montgomery product multiplies by 2^-256. A `Packed`
//! counts those extra 2^-4 factors in its `scale`, and a product of
//! operands at scales `s` and `t` reduces to scale `s + t + 1`. An operand
//! entered times 2^4 is at scale −1: a coefficient pre-scaled modulo `p`
//! ([`Packed::prescaled`]) or a vector shifted by four bits
//! ([`Packed::times16`], below `16p < 2^258`, still five limbs). So a
//! product with one such operand reduces to scale 0, the scalar body's
//! residue; a residue has one canonical representative, so the limbs are
//! equal. What [`lane_sums`] adds up in the field stays at its scale and is
//! corrected by 2^4 once per reduction a term went through. Under
//! `debug_assertions` a store asserts scale 0 and a canonical value.
//!
//! **Integer operands.** [`Acc::mul_add_small`] multiplies a field lane by an
//! `i64` lane: five products a 52-bit plane of the magnitude, against
//! twenty-five for two field elements, with the field operand's negation in
//! the negative lanes. The integer is not in Montgomery form, so such a
//! product sits [`INTEGER_SCALE`] scales above a field product: a constant
//! coefficient enters at scale −65 ([`Packed::integer_scaled`]), and a sum
//! over loaded elements is corrected by [`lane_sums`] like any other. What
//! binds an accumulator of them is its columns' room, not `p²`
//! ([`SMALL_BUDGET`]).
//!
//! **The seam.** [`run`] is the one entry from code without the target
//! features: it checks [`detected`] and calls [`kernel`], which matches a
//! [`Call`] to its loop. The only other `unsafe` is [`cast`], which
//! reinterprets a whole block of eight elements or eight integers.

use core::arch::x86_64::{
    __m256i, __m512i, __mmask8, _mm512_abs_epi64, _mm512_add_epi64, _mm512_and_si512,
    _mm512_cmpeq_epi64_mask, _mm512_cmplt_epi64_mask, _mm512_cmplt_epu64_mask,
    _mm512_cvtepi32_epi64, _mm512_cvtepi64_epi32, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
    _mm512_mask_blend_epi64, _mm512_mask_sub_epi64, _mm512_maskz_mov_epi64, _mm512_or_si512,
    _mm512_permutex2var_epi64, _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512,
    _mm512_slli_epi64, _mm512_srai_epi64, _mm512_srli_epi64, _mm512_sub_epi64,
    _mm512_test_epi64_mask, _mm512_testn_epi64_mask,
};
use core::marker::PhantomData;

use crate::lanes::{Block, Call, Halves, IntBlocks, LimbLayout, LANES};
use crate::limb::{add_mod, Limbs};
use crate::{batch_invert_scalar, sparse_mul_lanes_scalar, NARROW_BOUND};

/// Reductions stay canonical while an accumulator's budget, in units of
/// `p²`, is below this.
const BUDGET: u32 = 64;

/// Columns stay within their 64 bits while an accumulator holds fewer
/// field × integer products ([`Acc::mul_add_small`]) than this: each adds
/// at most four 52-bit halves to a column, the reduction ten more, and
/// `4·999 + 10 < 2^12`.
const SMALL_BUDGET: u32 = 1000;

/// The scales a field × integer product sits above a field × field one:
/// the integer is not in Montgomery form, so the product lacks one factor
/// `R = 2^256 = (2^4)^64`.
const INTEGER_SCALE: i32 = 64;

/// Vectors of interleaved prefix-product chains the batch inversion runs
/// side by side, so that many independent products are in flight while
/// each reduction's latency runs.
const CHAINS: usize = 4;

/// Elements per row of the batch inversion: one per chain.
const ROW: usize = CHAINS * LANES;

/// Bytes in a block of eight elements, as limbs or as canonical bytes.
const BLOCK_BYTES: usize = 32 * LANES;

const MASK52: u64 = (1 << 52) - 1;

/// Whether this CPU has every instruction the kernels are compiled with
/// (`std` caches the `cpuid` answer; this is a load and a mask).
#[inline]
pub(crate) fn detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// Runs `call` on its kernel and returns `true`; `false`, having written
/// nothing, when this CPU lacks IFMA.
pub(crate) fn run<F: LimbLayout>(call: Call<'_, F>) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected` has just seen, on this CPU, both target features
    // `kernel` is compiled with.
    unsafe { kernel(call) };
    true
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn kernel<F: LimbLayout>(call: Call<'_, F>) {
    match call {
        // Per row, `Σ coefficient·x` per block of eight lanes, the
        // coefficients pre-scaled. A row with more non-zeros than the
        // budget allows takes the scalar body.
        Call::Sparse(width, [row_ptr, col_idx], values, x, out) => {
            let blocks = width / LANES;
            let mut coeffs = [[0u64; 5]; BUDGET as usize - 1];
            for (span, out_row) in row_ptr.windows(2).zip(out.chunks_exact_mut(blocks)) {
                let (cols, values) = (&col_idx[span[0]..span[1]], &values[span[0]..span[1]]);
                if cols.len() >= BUDGET as usize {
                    let out = out_row.as_flattened_mut();
                    sparse_mul_lanes_scalar(
                        width,
                        &[0, cols.len()],
                        cols,
                        values,
                        x.as_flattened(),
                        out,
                    );
                    continue;
                }
                for (a, &v) in coeffs.iter_mut().zip(values) {
                    *a = prescaled(v);
                }
                for (block, out) in out_row.iter_mut().enumerate() {
                    let mut acc = Acc::new();
                    for (&a, &c) in coeffs.iter().zip(cols) {
                        acc.mul_add(Packed::splat52(a, -1), Packed::load(&x[c * blocks + block]));
                    }
                    acc.reduce().store(out);
                }
            }
        }
        Call::Combine(xs, a, terms) => match *terms {
            [] => combine(xs, a, []),
            [y] => combine(xs, a, [y]),
            [y, z] => combine(xs, a, [y, z]),
            _ => unreachable!("`lanes::combine_head` sends at most two terms"),
        },
        // `hi = t·v` reduced, then `v − hi` as a difference below `2p`
        // made canonical by one conditional subtraction; `v` is the
        // source's entry, or `lo`'s.
        Call::EqDouble(src, lo, hi, t) => {
            let t = Packed::prescaled(t);
            for (i, (lo, hi)) in lo.iter_mut().zip(hi).enumerate() {
                let v = match src {
                    Some(src) => Packed::load(&src[i]),
                    None => Packed::load(lo),
                };
                let mut acc = Acc::new();
                acc.mul_add(t, v);
                let tv = acc.reduce();
                tv.store(hi);
                v.difference(tv).canonical().store(lo);
            }
        }
        Call::Dot(a, b, sum) => {
            [*sum] = lane_sums(a.len(), |[acc], i| {
                acc.mul_add(Packed::load(&a[i]), Packed::load(&b[i]));
            });
        }
        // One plane of each integer a block (two where one is 2^52 or
        // more), up to `SMALL_BUDGET − 1` blocks a reduction.
        Call::DotSmall(a, b, sum) => {
            [*sum] = lane_sums(a.len(), |[acc], i| {
                let a = Packed::load(&a[i]);
                let b = match b {
                    IntBlocks::Wide(b) => cast(&b[i]),
                    IntBlocks::Narrow(b) => _mm512_cvtepi32_epi64(cast(&b[i])),
                };
                acc.mul_add_small([a, a.negated()], Small::new(b));
            });
        }
        // A block of zeros and ones (half of a quantized assignment's) by
        // comparison; any other by the canonical value as for `Canonical`
        // and its negation: a lane is narrow when one of the two is below
        // the bound in its lowest plane and zero above it.
        Call::Narrow(xs, out, narrow) => {
            let bound = _mm512_set1_epi64(NARROW_BOUND.into());
            let one = F::ONE.mont_limbs().map(|l| _mm512_set1_epi64(l as i64));
            for (x, out) in xs.iter().zip(out) {
                *narrow += 1;
                if let Some(ones) = bits(x, one) {
                    let k = _mm512_maskz_mov_epi64(ones, _mm512_set1_epi64(1));
                    *out = cast(&_mm512_cvtepi64_epi32(k));
                    continue;
                }
                let v = Acc::widen(Packed::load(x).times16()).reduce();
                let neg = v.negated();
                let [positive, negative] = [v, neg].map(|v| v.narrow_lanes(bound));
                if positive | negative != u8::MAX {
                    *narrow -= 1;
                    break;
                }
                let zero = _mm512_setzero_si512();
                let k =
                    _mm512_mask_sub_epi64(v.planes[0], negative & !positive, zero, neg.planes[0]);
                *out = cast(&_mm512_cvtepi64_epi32(k));
            }
        }
        // `1·lo + r·(hi − lo)`, both coefficients entered at scale −65 so
        // that the products of integers reduce to scale 0.
        Call::FoldSmall(out, [lo, hi], r) => {
            let one = [F::ONE, -F::ONE].map(|c| Packed::integer_scaled(c));
            let r = [r, -r].map(|c| Packed::integer_scaled(c));
            for (i, out) in out.iter_mut().enumerate() {
                let [lo, hi] = [&lo[i], &hi[i]].map(|x| _mm512_cvtepi32_epi64(cast(x)));
                let mut acc = Acc::new();
                acc.mul_add_small(one, Small::new(lo));
                acc.mul_add_small(r, Small::new(_mm512_sub_epi64(hi, lo)));
                acc.reduce().store(out);
            }
        }
        // The stored limbs times 2^4, reduced: `16·x·2^256 / 2^260 = x`.
        Call::Canonical(xs, out) => {
            for (x, out) in xs.iter().zip(out) {
                Acc::widen(Packed::load(x).times16()).reduce().store(out);
            }
        }
        Call::RoundSums([x, y], z, w, direct, sums) => *sums = round_sums(x, y, z, w, direct),
        Call::Invert(values) => invert(values),
        Call::Chords([num, inv, qx], [px, py]) => {
            let minus_one = Packed::prescaled(-F::ONE);
            for (b, (px, py)) in px.iter_mut().zip(py).enumerate() {
                let (x, y) = (Packed::load(px), Packed::load(py));
                let lambda = Packed::load(&num[b]).times(Packed::load(&inv[b]));
                let lambda16 = lambda.times16();
                // x₃ = λ² − p_x − q_x
                let mut c = Acc::new();
                c.mul_add(lambda, lambda16);
                c.mul_add(minus_one, x);
                c.mul_add(minus_one, Packed::load(&qx[b]));
                let x3 = c.reduce();
                // y₃ = λ·(p_x − x₃) − p_y
                let mut c = Acc::new();
                c.mul_add(lambda16, x.difference(x3));
                c.mul_add(minus_one, y);
                c.reduce().store(py);
                x3.store(px);
            }
        }
    }
}

/// `x ← a·x + Σⱼ bⱼ·yⱼ`, the coefficients pre-scaled: `N + 1` products and
/// one reduction a block. One loop for every term count, so each count's
/// inner loop unrolls.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn combine<F: LimbLayout, const N: usize>(xs: &mut [Block<F>], a: F, terms: [(&[Block<F>], F); N]) {
    let a = Packed::prescaled(a);
    let terms = terms.map(|(ys, b)| (ys, Packed::prescaled(b)));
    for (i, x) in xs.iter_mut().enumerate() {
        let mut acc = Acc::new();
        acc.mul_add(a, Packed::load(x));
        for &(ys, b) in &terms {
            acc.mul_add(b, Packed::load(&ys[i]));
        }
        acc.reduce().store(x);
    }
}

/// Per block of eight pairs, three pair terms: `x·y − z` on the low halves,
/// on the high halves (only when `direct`), and `Δx·Δy` on the
/// [`Packed::difference`]s. `−z` is `[−1]·[z]`: the columns hold no
/// negative value. Kept out of [`kernel`], so that its terms
/// inline into its loop.
#[inline(never)]
#[target_feature(enable = "avx512f,avx512ifma")]
fn round_sums<F: LimbLayout>(
    x: Halves<'_, F>,
    y: Halves<'_, F>,
    z: Option<Halves<'_, F>>,
    w: Option<&[Block<F>]>,
    direct: bool,
) -> [F; 3] {
    let (zl, zh) = (z.map(|z| z[0]), z.map(|z| z[1]));
    let minus_one = Packed::splat(-F::ONE);
    lane_sums(x[0].len(), |acc, b| {
        let w = load_at(w, b);
        let [xl, xh] = [Packed::load(&x[0][b]), Packed::load(&x[1][b])];
        let [yl, yh] = [Packed::load(&y[0][b]), Packed::load(&y[1][b])];
        // Unweighted, the terms go straight into the sums; weighted, each
        // is reduced alone first and enters as `w·term`.
        let mut terms = [Acc::new(); 3];
        let t = if w.is_some() { &mut terms } else { &mut *acc };
        t[0].mul_add(xl, yl);
        if let Some(z) = load_at(zl, b) {
            t[0].mul_add(minus_one, z);
        }
        if direct {
            t[1].mul_add(xh, yh);
            if let Some(z) = load_at(zh, b) {
                t[1].mul_add(minus_one, z);
            }
        }
        t[2].mul_add(xh.difference(xl), yh.difference(yl));
        if let Some(w) = w {
            let [t0, t1, t2] = terms;
            acc[0].mul_add(w, t0.reduce());
            if direct {
                acc[1].mul_add(w, t1.reduce());
            }
            acc[2].mul_add(w, t2.reduce());
        }
    })
}

/// The lanes of a block that are one, when every lane is zero or one
/// (`one` is the Montgomery limbs of one, a limb a vector): four limb
/// comparisons, no reduction.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn bits<F: LimbLayout>(x: &Block<F>, one: [__m512i; 4]) -> Option<__mmask8> {
    let limbs = transpose(cast(x), false);
    let (mut ones, mut zeros) = (u8::MAX, u8::MAX);
    for (l, one) in limbs.into_iter().zip(one) {
        ones &= _mm512_cmpeq_epi64_mask(l, one);
        zeros &= _mm512_testn_epi64_mask(l, l);
    }
    (ones | zeros == u8::MAX).then_some(ones)
}

/// Block `b` of an optional operand. (`Option::map` would take a closure
/// that inherits the target features, which a function without them
/// cannot inline.)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn load_at<F: LimbLayout>(xs: Option<&[Block<F>]>, b: usize) -> Option<Packed<F>> {
    Some(Packed::load(&xs?[b]))
}

/// The batch inversion: every whole row of [`ROW`] elements feeds [`ROW`]
/// interleaved chains of prefix products; the chains' totals and the
/// `len % ROW` tail go through the scalar body together, one inversion in
/// all; then the chains unwind. Below one row, the scalar body alone.
#[inline(never)]
#[target_feature(enable = "avx512f,avx512ifma")]
fn invert<F: LimbLayout>(values: &mut [F]) {
    if values.len() < ROW {
        return batch_invert_scalar(values);
    }
    let (body, tail) = values.split_at_mut(values.len() / ROW * ROW);
    let (body, _) = body.as_chunks_mut::<LANES>();
    let mut prefix = vec![[F::ZERO; LANES]; body.len()];
    let totals = chains(body, &mut prefix, [Packed::splat(F::ONE); CHAINS], false);
    let mut shared = [F::ZERO; 2 * ROW];
    let shared = &mut shared[..ROW + tail.len()];
    totals
        .iter()
        .zip(shared.as_chunks_mut().0)
        .for_each(|(t, out)| t.store(out));
    shared[ROW..].copy_from_slice(tail);
    batch_invert_scalar(shared);
    tail.copy_from_slice(&shared[ROW..]);
    let inverses = core::array::from_fn(|c| Packed::load(&shared.as_chunks().0[c]));
    chains(body, &mut prefix, inverses, true);
}

/// One pass of the inversion's chains; chain `c` is the lanes of each row's
/// block `c`, and `acc` its running value. Forward, each block's prefix is
/// the running product before the block is multiplied in, `ONE` in a
/// zero's lane; the totals are returned. Backward, last row first, from the
/// totals' inverses: a non-zero lane's inverse is the running inverse times
/// its prefix, and a zero lane stays zero; then the running inverse takes
/// the lane's element.
#[target_feature(enable = "avx512f,avx512ifma")]
fn chains<F: LimbLayout>(
    body: &mut [Block<F>],
    prefix: &mut [Block<F>],
    mut acc: [Packed<F>; CHAINS],
    backward: bool,
) -> [Packed<F>; CHAINS] {
    let rows = body.len() / CHAINS;
    for r in 0..rows {
        let r = if backward { rows - 1 - r } else { r };
        for (c, acc) in acc.iter_mut().enumerate() {
            let i = r * CHAINS + c;
            let (factor, nonzero) = Packed::load(&body[i]).nonzero_or(F::ONE);
            if backward {
                let inverse = acc.times(Packed::load(&prefix[i])).planes;
                let planes = inverse.map(|l| _mm512_maskz_mov_epi64(nonzero, l));
                Packed::<F>::new(planes, 1, 0).store(&mut body[i]);
            } else {
                acc.store(&mut prefix[i]);
            }
            *acc = acc.times(factor);
        }
    }
    acc
}

/// `N` sums over `blocks` blocks, each of what `add` puts into its
/// accumulator per block, summed across the eight lanes in the field. A
/// run of blocks starts with one block, whose spend sets how many more
/// fit in the budget (every block spends what the first did; `reduce`
/// asserts it), and ends in one reduction per accumulator. Each sum is
/// then corrected by 2^4 per reduction its terms went through.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn lane_sums<F: LimbLayout, const N: usize>(
    blocks: usize,
    mut add: impl FnMut(&mut [Acc<F>; N], usize),
) -> [F; N] {
    let mut sums = [(F::ZERO, 0); N];
    let mut start = 0;
    while start < blocks {
        let (mut acc, mut end) = ([Acc::new(); N], blocks);
        for b in start..blocks {
            add(&mut acc, b);
            if b == start {
                let fit = acc.iter().map(Acc::repeats).min().unwrap_or(usize::MAX);
                end = blocks.min(start.saturating_add(fit));
            }
            if b + 1 == end {
                break;
            }
        }
        fold_lanes(acc, &mut sums);
        start = end;
    }
    sums.map(|(s, scale)| (0..4 * scale).fold(s, |s, _| s.double()))
}

/// Reduces each non-empty accumulator into its sum, which keeps the scale
/// its reductions leave it at. The accumulators come by value, so the loop
/// calling this keeps their columns in registers.
#[target_feature(enable = "avx512f,avx512ifma")]
fn fold_lanes<F: LimbLayout, const N: usize>(acc: [Acc<F>; N], sums: &mut [(F, i32); N]) {
    for (acc, (sum, scale)) in acc.into_iter().zip(sums) {
        if acc.budget > 0 || acc.small > 0 {
            let mut lanes = acc.reduce();
            debug_assert!(*scale == 0 || *scale == lanes.scale);
            (*scale, lanes.scale) = (lanes.scale, 0);
            let mut out = [F::ZERO; LANES];
            lanes.store(&mut out);
            *sum = out.into_iter().fold(*sum, |s, x| s + x);
        }
    }
}

/// Eight elements of `F` as five 52-bit limb planes (lane `e` of plane `l`
/// is limb `l` of element `e`), every lane below `bound·p`, and the 2^-4
/// factors the planes carry beyond the value they stand for (`scale`).
/// Bits above a plane's 52 may be set: `madd52` reads only the low 52, and
/// what reads a plane whole masks it.
#[derive(Clone, Copy)]
struct Packed<F> {
    planes: [__m512i; 5],
    bound: u32,
    scale: i32,
    field: PhantomData<F>,
}

impl<F: LimbLayout> Packed<F> {
    /// A block of canonical elements.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn load(xs: &Block<F>) -> Self {
        let [l0, l1, l2, l3] = transpose(cast(xs), false);
        let planes = [
            l0,
            _mm512_or_si512(_mm512_srli_epi64::<52>(l0), _mm512_slli_epi64::<12>(l1)),
            _mm512_or_si512(_mm512_srli_epi64::<40>(l1), _mm512_slli_epi64::<24>(l2)),
            _mm512_or_si512(_mm512_srli_epi64::<28>(l2), _mm512_slli_epi64::<36>(l3)),
            _mm512_srli_epi64::<16>(l3),
        ];
        Self::new(planes, 1, 0)
    }

    /// Writes the eight elements, or their 256 canonical bytes, over `out`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn store<B: Bits>(self, out: &mut B) {
        debug_assert!(self.bound == 1 && self.scale == 0, "stored off scale");
        let t = self.planes;
        let words = [
            _mm512_or_si512(t[0], _mm512_slli_epi64::<52>(t[1])),
            _mm512_or_si512(_mm512_srli_epi64::<12>(t[1]), _mm512_slli_epi64::<40>(t[2])),
            _mm512_or_si512(_mm512_srli_epi64::<24>(t[2]), _mm512_slli_epi64::<28>(t[3])),
            _mm512_or_si512(_mm512_srli_epi64::<36>(t[3]), _mm512_slli_epi64::<16>(t[4])),
        ];
        *out = cast(&transpose(words, true));
    }

    /// `a` in every lane.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn splat(a: F) -> Self {
        Self::splat52(split52(&a.mont_limbs()), 0)
    }

    /// `a·2^4 mod p` in every lane: a coefficient at scale −1.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn prescaled(a: F) -> Self {
        Self::splat52(prescaled(a), -1)
    }

    /// `a·2^260 mod p` in every lane: a coefficient of integers at scale
    /// −65, whose products with them ([`Acc::mul_add_small`]) reduce to
    /// scale 0.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn integer_scaled(a: F) -> Self {
        let two64 = F::from(u64::MAX) + F::ONE;
        let shift = two64.square().square() * F::from(16);
        Self::splat52(split52(&(a * shift).mont_limbs()), -1 - INTEGER_SCALE)
    }

    /// Five canonical 52-bit limbs in every lane, at `scale`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn splat52(limbs: [u64; 5], scale: i32) -> Self {
        Self::new(limbs.map(|l| _mm512_set1_epi64(l as i64)), 1, scale)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn new(planes: [__m512i; 5], bound: u32, scale: i32) -> Self {
        let field = PhantomData;
        Self {
            planes,
            bound,
            scale,
            field,
        }
    }

    /// `16·x`, carried into 52-bit limbs: below `16·bound·p`, at one scale
    /// lower.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn times16(self) -> Self {
        let mut carry = _mm512_setzero_si512();
        let planes = self.planes.map(|l| {
            let l = _mm512_and_si512(l, mask52());
            let shifted = _mm512_or_si512(_mm512_slli_epi64::<4>(l), carry);
            carry = _mm512_srli_epi64::<48>(l);
            shifted
        });
        Self::new(planes, 16 * self.bound, self.scale - 1)
    }

    /// `self − lo + p` from two canonical values at one scale: a
    /// representative of the difference below `2p`. Each limb's borrow or
    /// carry moves up by an arithmetic shift.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn difference(self, lo: Self) -> Self {
        debug_assert!(self.bound == 1 && lo.bound == 1 && self.scale == lo.scale);
        let p = Self::splat52(split52(&F::P), 0).planes;
        let mut carry = _mm512_setzero_si512();
        let planes = core::array::from_fn(|i| {
            let [hi, lo] = [self.planes[i], lo.planes[i]].map(|l| _mm512_and_si512(l, mask52()));
            let d = _mm512_sub_epi64(hi, lo);
            let s = _mm512_add_epi64(d, _mm512_add_epi64(p[i], carry));
            carry = _mm512_srai_epi64::<52>(s);
            _mm512_and_si512(s, mask52())
        });
        Self::new(planes, 2, self.scale)
    }

    /// `p − self` from a canonical value: a representative of the negation
    /// below `2p` (`p` itself for zero).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn negated(self) -> Self {
        Self::splat52([0; 5], self.scale).difference(self)
    }

    /// The lanes of a value with its limbs masked to 52 bits that are
    /// below `bound` (at most 2^52): zero above the lowest plane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn narrow_lanes(self, bound: __m512i) -> __mmask8 {
        let [low, rest @ ..] = self.planes;
        let high = rest
            .into_iter()
            .fold(_mm512_setzero_si512(), |a, l| _mm512_or_si512(a, l));
        _mm512_testn_epi64_mask(high, high) & _mm512_cmplt_epu64_mask(low, bound)
    }

    /// The canonical representative of a value below `2p` in 52-bit limbs
    /// (a reduction's result, or a [`Packed::difference`]): `p` subtracted
    /// where that does not borrow.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn canonical(self) -> Self {
        debug_assert!(self.bound <= 2);
        let p = Self::splat52(split52(&F::P), 0).planes;
        let mut borrow = _mm512_setzero_si512();
        let d: [_; 5] = core::array::from_fn(|i| {
            let s = _mm512_sub_epi64(_mm512_sub_epi64(self.planes[i], p[i]), borrow);
            borrow = _mm512_srli_epi64::<63>(s);
            _mm512_and_si512(s, mask52())
        });
        let below_p = _mm512_test_epi64_mask(borrow, borrow);
        let planes =
            core::array::from_fn(|i| _mm512_mask_blend_epi64(below_p, d[i], self.planes[i]));
        Self::new(planes, 1, self.scale)
    }

    /// `self` with `one`'s limbs in its zero lanes, and the mask of its
    /// non-zero lanes. A lane is zero only if all five planes are: every
    /// bit of the element is in one of them.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn nonzero_or(self, one: F) -> (Self, __mmask8) {
        let any = self
            .planes
            .iter()
            .fold(_mm512_setzero_si512(), |a, &l| _mm512_or_si512(a, l));
        let nonzero = _mm512_test_epi64_mask(any, any);
        let one = Self::splat(one).planes;
        let planes =
            core::array::from_fn(|i| _mm512_mask_blend_epi64(nonzero, one[i], self.planes[i]));
        (Self { planes, ..self }, nonzero)
    }

    /// `self · b`, reduced, with `b` entered as [`Packed::times16`]: the
    /// product of two canonical values at the sum of their scales.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn times(self, b: Self) -> Self {
        let mut acc = Acc::new();
        acc.mul_add(self, b.times16());
        acc.reduce()
    }
}

/// Ten unreduced radix-2^52 columns per lane, the `p²` budget their
/// products spent, the field × integer products among them, and the scale
/// of those products.
#[derive(Clone, Copy)]
struct Acc<F> {
    columns: [__m512i; 10],
    budget: u32,
    small: u32,
    scale: i32,
    field: PhantomData<F>,
}

impl<F: LimbLayout> Acc<F> {
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn new() -> Self {
        let columns = [_mm512_setzero_si512(); 10];
        let field = PhantomData;
        Self {
            columns,
            budget: 0,
            small: 0,
            scale: 0,
            field,
        }
    }

    /// How many blocks, each adding what this accumulator holds, fit in
    /// one reduction: within both the `p²` budget and the integer one.
    #[inline]
    fn repeats(&self) -> usize {
        let full = (BUDGET - 1).checked_div(self.budget);
        let small = (SMALL_BUDGET - 1).checked_div(self.small);
        full.into_iter()
            .chain(small)
            .min()
            .map_or(usize::MAX, |n| n as usize)
    }

    /// One value's exact 52-bit limbs as the low columns: below
    /// `64p < 2^260 < p²`, one unit of budget.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn widen(x: Packed<F>) -> Self {
        debug_assert!(x.bound <= 64);
        let mut acc = Self::new();
        for (c, l) in acc.columns.iter_mut().zip(x.planes) {
            *c = _mm512_and_si512(l, mask52());
        }
        (acc.budget, acc.scale) = (1, x.scale);
        acc
    }

    /// `self += a · b` lane by lane — 25 `madd52lo` and 25 `madd52hi` — at
    /// `a`'s bound times `b`'s.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_add(&mut self, a: Packed<F>, b: Packed<F>) {
        let scale = a.scale + b.scale;
        debug_assert!(self.budget == 0 || self.scale == scale);
        (self.budget, self.scale) = (self.budget + a.bound * b.bound, scale);
        let c = &mut self.columns;
        for (i, &a) in a.planes.iter().enumerate() {
            for (j, &b) in b.planes.iter().enumerate() {
                c[i + j] = _mm512_madd52lo_epu64(c[i + j], a, b);
                c[i + j + 1] = _mm512_madd52hi_epu64(c[i + j + 1], a, b);
            }
        }
    }

    /// `self += a·k` lane by lane for integers `k`, `a` given with its
    /// negation (`[a, −a]`, for the lanes where `k` is negative): five
    /// `madd52lo` and five `madd52hi` a 52-bit plane of `|k|`, one plane or,
    /// where some `|k|` reaches 2^52, two. The value stays far below `p²`;
    /// what binds is the columns' room, [`SMALL_BUDGET`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_add_small(&mut self, [a, neg]: [Packed<F>; 2], k: Small) {
        let scale = a.scale + INTEGER_SCALE;
        debug_assert!(self.budget == 0 && (self.small == 0 || self.scale == scale));
        debug_assert!(a.scale == neg.scale);
        (self.small, self.scale) = (self.small + 1, scale);
        let planes: [_; 5] = core::array::from_fn(|i| {
            _mm512_mask_blend_epi64(k.negative, a.planes[i], neg.planes[i])
        });
        let c = &mut self.columns;
        let [low, high] = k.planes;
        for (i, &a) in planes.iter().enumerate() {
            c[i] = _mm512_madd52lo_epu64(c[i], a, low);
            c[i + 1] = _mm512_madd52hi_epu64(c[i + 1], a, low);
        }
        if k.wide {
            for (i, &a) in planes.iter().enumerate() {
                c[i + 1] = _mm512_madd52lo_epu64(c[i + 1], a, high);
                c[i + 2] = _mm512_madd52hi_epu64(c[i + 2], a, high);
            }
        }
    }

    /// Montgomery reduction of the columns by `2^260`, canonical: five
    /// rounds, each cancelling the lowest column with `q·p` and carrying it
    /// up, then one conditional subtraction.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn reduce(self) -> Packed<F> {
        debug_assert!(self.budget < BUDGET, "p² budget overdrawn: {}", self.budget);
        debug_assert!(
            self.small < SMALL_BUDGET,
            "integer products: {}",
            self.small
        );
        #[cfg(debug_assertions)]
        SPENT.with_borrow_mut(|log| {
            let spent = [self.budget, self.small];
            log.iter_mut().for_each(|log| log.push(spent));
        });
        let p = Packed::<F>::splat52(split52(&F::P), 0).planes;
        let neg_inv = _mm512_set1_epi64((F::NEG_INV & MASK52) as i64);
        let (mut c, zero) = (self.columns, _mm512_setzero_si512());
        for r in 0..5 {
            // `madd52lo` reads the low 52 bits of `c[r]`: all `q` depends on.
            let q = _mm512_madd52lo_epu64(zero, c[r], neg_inv);
            for (j, &p) in p.iter().enumerate() {
                c[r + j] = _mm512_madd52lo_epu64(c[r + j], q, p);
                c[r + j + 1] = _mm512_madd52hi_epu64(c[r + j + 1], q, p);
            }
            c[r + 1] = _mm512_add_epi64(c[r + 1], _mm512_srli_epi64::<52>(c[r]));
        }
        // Columns 5..10 hold the result, below 2p < 2^255: carry them into
        // 52-bit limbs, and make that canonical.
        let mut carry = zero;
        let t: [_; 5] = core::array::from_fn(|i| {
            let s = _mm512_add_epi64(c[5 + i], carry);
            carry = _mm512_srli_epi64::<52>(s);
            _mm512_and_si512(s, mask52())
        });
        Packed::new(t, 2, self.scale + 1).canonical()
    }
}

/// Eight integers as the 52-bit planes of their magnitudes, low and high,
/// whether any lane needs the high one, and the mask of negative lanes.
#[derive(Clone, Copy)]
struct Small {
    planes: [__m512i; 2],
    wide: bool,
    negative: __mmask8,
}

impl Small {
    /// Eight `i64` lanes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn new(k: __m512i) -> Self {
        let negative = _mm512_cmplt_epi64_mask(k, _mm512_setzero_si512());
        // `|i64::MIN|` is 2^63 read unsigned, as `abs` leaves it.
        let magnitude = _mm512_abs_epi64(k);
        let high = _mm512_srli_epi64::<52>(magnitude);
        Self {
            planes: [magnitude, high],
            wide: _mm512_test_epi64_mask(high, high) != 0,
            negative,
        }
    }
}

#[cfg(debug_assertions)]
std::thread_local! {
    /// The `p²` budget and the integer products of every reduction on this
    /// thread, while a test keeps the log.
    static SPENT: core::cell::RefCell<Option<Vec<[u32; 2]>>> =
        const { core::cell::RefCell::new(None) };
}

/// The 52-bit limb mask in every lane.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mask52() -> __m512i {
    _mm512_set1_epi64(MASK52 as i64)
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

/// `a·2^4 mod p` as five 52-bit limbs. Inlined so the sparse kernel's
/// per-row coefficient loop stays free of calls.
#[inline(always)]
fn prescaled<F: LimbLayout>(a: F) -> [u64; 5] {
    let mut v = a.mont_limbs();
    for _ in 0..4 {
        v = add_mod(&v, &v, &F::P);
    }
    split52(&v)
}

/// Bytes for which every bit pattern is a valid value: [`BLOCK_BYTES`] of
/// eight elements (any four words are a valid `F: LimbLayout`), eight
/// elements' canonical bytes, or four vectors; eight `i64`s or one vector;
/// eight `i32`s or one half vector.
trait Bits: Copy {}

impl<F: LimbLayout> Bits for Block<F> {}
impl Bits for [u8; BLOCK_BYTES] {}
impl Bits for [__m512i; 4] {}
impl Bits for Block<i64> {}
impl Bits for __m512i {}
impl Bits for Block<i32> {}
impl Bits for __m256i {}

/// `a`'s bytes as a `B` of the same size.
#[inline(always)]
fn cast<A: Bits, B: Bits>(a: &A) -> B {
    const { assert!(size_of::<A>() == size_of::<B>()) };
    // SAFETY: `A` and `B` are the same size (asserted above),
    // `transmute_copy` reads unaligned, and `B: Bits` accepts any bytes.
    unsafe { core::mem::transmute_copy(a) }
}

/// Four element-major vectors (vector `j` = elements `2j`, `2j + 1`, four
/// limbs each) to four 64-bit limb planes, or back when `back`: two stages
/// of `permutex2var`, over the pairs `(0, 1)`, `(2, 3)` of the input, then
/// `(0, 2)`, `(1, 3)` of the first stage's output. `interleave` picks limbs
/// 0 and 1 (then 2 and 3) of a pair's four elements, `halves` the low (then
/// high) 256-bit halves of a pair; the way there runs them in that order,
/// the way back in the other.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn transpose(z: [__m512i; 4], back: bool) -> [__m512i; 4] {
    let interleave = [
        _mm512_set_epi64(13, 9, 5, 1, 12, 8, 4, 0),
        _mm512_set_epi64(15, 11, 7, 3, 14, 10, 6, 2),
    ];
    let halves = [
        _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0),
        _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4),
    ];
    let stages = [interleave, halves];
    let (first, second) = (stages[back as usize], stages[!back as usize]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, Fq, Fr};

    /// The `p²` budget and the integer products of each reduction `f` ran
    /// on this thread, in order.
    #[cfg(debug_assertions)]
    fn spent_both(f: impl FnOnce()) -> Vec<[u32; 2]> {
        SPENT.set(Some(Vec::new()));
        f();
        SPENT.take().expect("the log was kept")
    }

    /// The budget each reduction `f` ran on this thread spent, in order.
    #[cfg(debug_assertions)]
    fn spent(f: impl FnOnce()) -> Vec<u32> {
        spent_both(f)
            .into_iter()
            .map(|[budget, _]| budget)
            .collect()
    }

    /// Every kernel's reductions spend what DESIGN.md §16's budget table
    /// says, in `p²`: per block, and at the reduction cadence of the dot
    /// and the round sums.
    #[cfg(debug_assertions)]
    fn spends_the_budget_table<F: LimbLayout>() {
        let x = vec![F::from(3u64); 63 * LANES];
        let b = &x[..LANES];
        let (mut y, mut bytes) = (b.to_vec(), [0u8; 32 * LANES]);
        assert_eq!(spent(|| F::fold_halves(&mut y, b, F::ONE)), [2]);
        assert_eq!(spent(|| F::scale(&mut y, F::ONE)), [1]);
        assert_eq!(
            spent(|| F::combine(&mut y, F::ONE, [(b, F::ONE), (b, F::ONE)])),
            [3]
        );
        // One product a block; `lo − hi` is a difference, not a reduction.
        let mut hi = b.to_vec();
        assert_eq!(spent(|| F::eq_double(&mut y, &mut hi, F::ONE)), [1]);
        assert_eq!(spent(|| F::write_canonical(b, &mut bytes)), [1]);
        assert_eq!(spent(|| _ = F::narrow_into(b, &mut [0; LANES])), [1]);
        let bits = [
            F::ONE,
            F::ZERO,
            F::ONE,
            F::ONE,
            F::ZERO,
            F::ZERO,
            F::ONE,
            F::ZERO,
        ];
        assert_eq!(spent(|| _ = F::narrow_into(&bits, &mut [0; LANES])), []);
        let cols: Vec<usize> = (0..63).collect();
        let row = |y: &mut [F]| F::sparse_mul_lanes(8, &[0, 63], &cols, &x[..63], &x, y);
        assert_eq!(spent(|| row(&mut y)), [63]);
        let dot = |n: usize| spent(|| _ = F::dot(&x[..n], &x[..n]));
        assert_eq!(dot(63 * LANES), [63]);
        assert_eq!(dot(8 * LANES), [8]);
        // Unweighted, `x·y − z` spends 2 and `Δx·Δy` 4 a block, so 15
        // blocks go to a reduction; weighted, each term is reduced alone
        // and `w·term` spends 1.
        let t = &x[..16 * LANES];
        let sums = |w| spent(|| _ = F::product_round_sums([t; 2], [t; 2], Some([t; 2]), w, true));
        assert_eq!(sums(None), [30, 30, 60, 2, 2, 4]);
        let w = Some(b);
        let sums = spent(|| _ = F::product_round_sums([b; 2], [b; 2], Some([b; 2]), w, true));
        assert_eq!(sums, [2, 2, 4, 1, 1, 1]);
        // `[a]·16[b]`: 16 per chain product, four chains a row, each way.
        let mut row = x[..32].to_vec();
        assert_eq!(spent(|| F::batch_invert(&mut row)), [16; 12]);
        // λ, then x₃ = λ·16λ − [−1]·p_x − [−1]·q_x, then
        // y₃ = 16λ·(p_x − x₃ + p) − [−1]·p_y.
        let (mut px, mut py) = (b.to_vec(), b.to_vec());
        let chords = || F::affine_chords(b, b, b, [&mut px, &mut py]);
        assert_eq!(spent(chords), [16, 18, 33]);
        // Field × integer: no `p²` budget; one product a block of the dot,
        // 999 blocks a reduction; two products a block of the fold.
        let ks = vec![3i64; 2000 * LANES];
        let xs = vec![F::from(3u64); 2000 * LANES];
        let dot = spent_both(|| _ = F::dot_small(&xs, &ks));
        assert_eq!(dot, [[0, 999], [0, 999], [0, 2]]);
        let lo = [1i32; LANES];
        assert_eq!(
            spent_both(|| F::fold_small(&mut y, &lo, &lo, F::ONE)),
            [[0, 2]]
        );
        // `eq_split` is `eq_double` reading its source.
        assert_eq!(spent(|| F::eq_split(b, &mut y, &mut hi, F::ONE)), [1]);
    }

    #[test]
    fn kernels_spend_the_budget_table() {
        if !cfg!(debug_assertions) || !detected() {
            return println!("no debug assertions or no avx512ifma: nothing to measure");
        }
        #[cfg(debug_assertions)]
        {
            spends_the_budget_table::<Fr>();
            spends_the_budget_table::<Fq>();
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn reduce_after(products: usize) {
        let one = Packed::splat(Fr::ONE);
        let mut acc = Acc::new();
        for _ in 0..products {
            acc.mul_add(one, one);
        }
        acc.reduce();
    }

    #[test]
    fn sixty_four_canonical_products_overdraw_the_budget() {
        if !cfg!(debug_assertions) || !detected() {
            return println!("no debug assertions or no avx512ifma: nothing to overdraw");
        }
        let reduces = |products| {
            // SAFETY: `detected` has just seen, on this CPU, both target
            // features `reduce_after` is compiled with.
            std::panic::catch_unwind(|| unsafe { reduce_after(products) }).is_ok()
        };
        assert!(reduces(63));
        assert!(!reduces(64), "64p² must not reach `reduce`");
    }
}
