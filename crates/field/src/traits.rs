//! The [`Field`] trait shared by every module in the workspace.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::batch_invert_scalar;
use crate::limb::Limbs;
use crate::rng::RngCore;

/// A prime field with enough structure for sum-check, Merkle commitments,
/// linear-time encoding, and the NTT/MSM baselines.
///
/// Implementations are expected to be cheap to copy (a few machine words) and
/// to perform all arithmetic without heap allocation.
///
/// # Examples
///
/// ```
/// use batchzk_field::{Field, Fr};
///
/// let a = Fr::from(7u64);
/// let b = Fr::from(6u64);
/// assert_eq!(a * b, Fr::from(42u64));
/// assert_eq!(a * a.inverse().unwrap(), Fr::ONE);
/// ```
pub trait Field:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + From<u64>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Number of bits in the modulus.
    const MODULUS_BITS: u32;
    /// Largest `k` such that `2^k` divides `p - 1` (NTT friendliness).
    const TWO_ADICITY: u32;

    /// Returns `true` if this element is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Returns `self + self`.
    fn double(&self) -> Self {
        *self + *self
    }

    /// Returns `self * self`.
    fn square(&self) -> Self {
        *self * *self
    }

    /// Returns the multiplicative inverse, or `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// Raises `self` to the power given as little-endian 64-bit limbs.
    fn pow(&self, exp: &[u64]) -> Self {
        let mut res = Self::ONE;
        for &limb in exp.iter().rev() {
            for bit in (0..64).rev() {
                res = res.square();
                if (limb >> bit) & 1 == 1 {
                    res *= *self;
                }
            }
        }
        res
    }

    /// Samples a uniformly random element.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;

    /// Canonical little-endian byte encoding (32 bytes for 256-bit fields).
    fn to_bytes(&self) -> [u8; 32];

    /// Parses a canonical encoding; `None` if the value is not reduced.
    fn from_bytes(bytes: &[u8; 32]) -> Option<Self>;

    /// Maps 64 uniform bytes onto the field with negligible bias
    /// (hash-to-field).
    fn from_uniform_bytes(bytes: &[u8; 64]) -> Self;

    /// Returns a fixed multiplicative generator of the field.
    fn generator() -> Self;

    /// Returns a primitive `2^k`-th root of unity.
    ///
    /// # Panics
    ///
    /// Panics if `k > Self::TWO_ADICITY`.
    fn two_adic_root(k: u32) -> Self;

    /// Accumulator of an inner product whose reduction is deferred to the
    /// end: [`Self::dot_acc_add`] adds one product, [`Self::dot_acc_reduce`]
    /// reads the sum out. `Default` is the empty sum.
    ///
    /// Montgomery-backed fields use [`crate::limb::WideAcc`] — the integer
    /// sum of unreduced 512-bit products, 16 word multiplies per term and
    /// one Montgomery reduction per output; a field without such a kernel
    /// uses `Self` (multiply, then add). Either way the reduced value must
    /// be bit-identical to the multiply-then-add fold `acc ← acc + aᵢ·bᵢ`
    /// from [`Self::ZERO`].
    ///
    /// Exposed so a caller computing many inner products over one pass of
    /// its operands can keep an accumulator per sum: an encoder matrix row
    /// against `w` interleaved messages, or the `s(0)`, `s(1)`, `s(∞)` of a
    /// sum-check round over the same table pairs.
    type DotAcc: Copy + Default + Send + Sync;

    /// `acc += a · b`.
    fn dot_acc_add(acc: &mut Self::DotAcc, a: Self, b: Self);

    /// The accumulated sum as a canonical field element.
    fn dot_acc_reduce(acc: &Self::DotAcc) -> Self;

    /// Inner product `Σ aᵢ·bᵢ` over an iterator of pairs — the encoder's
    /// sparse rows and the tail of [`Self::dot`] — through one
    /// [`Self::DotAcc`]. (R1CS rows and the matrix-MLE evaluation sum their
    /// groups by [`Self::signed_sum`] instead.) A loop that keeps several
    /// sums at once (the batch encoder, the sum-check round sums) calls the
    /// two steps itself.
    fn dot_pairs(pairs: impl Iterator<Item = (Self, Self)>) -> Self {
        let mut acc = Self::DotAcc::default();
        for (a, b) in pairs {
            Self::dot_acc_add(&mut acc, a, b);
        }
        Self::dot_acc_reduce(&acc)
    }

    /// Slice inner product `Σ aᵢ·bᵢ` over the common prefix of `a` and `b`:
    /// the PCS's row combinations, column tests and claimed evaluations.
    ///
    /// The default is [`Self::dot_pairs`] over the prefix. `declare_field!`
    /// fields run whole blocks of eight on CPUs with AVX-512 IFMA and the
    /// tail on the default body; the result is bit-identical either way.
    fn dot(a: &[Self], b: &[Self]) -> Self {
        Self::dot_pairs(a.iter().copied().zip(b.iter().copied()))
    }

    /// `out = M · X` for a CSR matrix `M` — row `i`'s non-zeros are
    /// `col_idx[k]`, `values[k]` for `k` in `row_ptr[i]..row_ptr[i + 1]` —
    /// and `width` interleaved vectors: `x[c * width + w]` is entry `c` of
    /// vector `w`, `out[i * width + w]` entry `i` of product `w`. The batch
    /// encoder's one loop (`SparseMatrix::mul_batch`).
    ///
    /// The default is [`sparse_mul_lanes_scalar`]. `declare_field!` fields
    /// run eight lanes per instruction on CPUs with AVX-512 IFMA when
    /// `width` is a multiple of eight; the output is bit-identical either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != (row_ptr.len() - 1) · width` or an index
    /// leaves its slice.
    fn sparse_mul_lanes(
        width: usize,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[Self],
        x: &[Self],
        out: &mut [Self],
    ) {
        sparse_mul_lanes_scalar(width, row_ptr, col_idx, values, x, out);
    }

    /// `lo[i] ← lo[i] + r·(hi[i] − lo[i])`: one round of the sum-check
    /// fold, `A[b] = (1 − r)·A[b] + r·A[b + half]`, with the table's halves
    /// as `lo` and `hi`.
    ///
    /// The default is [`fold_halves_scalar`]. `declare_field!` fields run
    /// whole blocks of eight on CPUs with AVX-512 IFMA and the tail on the
    /// default body; the output is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `lo.len() != hi.len()`.
    fn fold_halves(lo: &mut [Self], hi: &[Self], r: Self) {
        fold_halves_scalar(lo, hi, r);
    }

    /// `xs[i] ← c·xs[i]`: the unpaired entries of an `eq` level
    /// ([`Self::eq_double`]) or a sum-check tail whose weight is zero,
    /// scaled in place.
    ///
    /// The default is [`scale_scalar`]; `declare_field!` fields override it
    /// as they do [`Self::fold_halves`].
    fn scale(xs: &mut [Self], c: Self) {
        scale_scalar(xs, c);
    }

    /// `x[i] ← a·x[i] + Σⱼ bⱼ·yⱼ[i]` for the terms `(yⱼ, bⱼ)`: matrix-bind's
    /// γ-combination of its three per-matrix column sums (two terms), and
    /// the fold of sum-check #2 at coefficients divided by a deferred
    /// factor (one term).
    ///
    /// The default is [`combine_scalar`]. `declare_field!` fields run whole
    /// blocks of eight on CPUs with AVX-512 IFMA (at most two terms) and
    /// the tail on the default body; the output is bit-identical either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if a term's `y` is not as long as `x`.
    fn combine<const N: usize>(x: &mut [Self], a: Self, terms: [(&[Self], Self); N]) {
        combine_scalar(x, a, terms);
    }

    /// Doubles an `eq` table level by one more variable with coordinate
    /// `t`: each `v` of `lo` with a partner slot in `hi` splits into
    /// `hi[i] ← t·v` and `lo[i] ← v − t·v`, and each `v` past them becomes
    /// `(1 − t)·v`. `lo` is read once and nothing `hi` held is read.
    ///
    /// The default is [`eq_double_scalar`]. `declare_field!` fields run the
    /// paired entries' whole blocks of eight on CPUs with AVX-512 IFMA (one
    /// product, a lane difference and one conditional subtraction) and the
    /// rest on the default body and [`Self::scale`]; the output is
    /// bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `hi` is longer than `lo`.
    fn eq_double(lo: &mut [Self], hi: &mut [Self], t: Self) {
        eq_double_scalar(lo, hi, t);
    }

    /// Splits an `eq` table level `src` by one more variable with
    /// coordinate `t` into the next level's two halves: `hi[i] ← t·src[i]`
    /// and `lo[i] ← src[i] − t·src[i]`. [`Self::eq_double`] with its source
    /// kept where it is: sum-check #1's weight levels, each built from the
    /// one before without a copy of it.
    ///
    /// The default is [`eq_split_scalar`]; `declare_field!` fields run it
    /// on the [`Self::eq_double`] kernel, reading the source.
    ///
    /// # Panics
    ///
    /// Panics if `lo` or `hi` is not as long as `src`.
    fn eq_split(src: &[Self], lo: &mut [Self], hi: &mut [Self], t: Self) {
        eq_split_scalar(src, lo, hi, t);
    }

    /// Writes into `out` the integer `k` with `|k| <` [`NARROW_BOUND`]
    /// whose image ([`field_from_i64`]) each element of `xs` is, and
    /// whether every one is such an image. It stops at the first that is
    /// not (on the lane kernel, at the first block of eight holding one),
    /// having written a part of `out`, so a random vector costs a block.
    /// How the prover recovers a quantized network's assignment as narrow
    /// integers.
    ///
    /// The default is [`narrow_into_scalar`]. `declare_field!` fields run
    /// whole blocks of eight on CPUs with AVX-512 IFMA (one reduction out
    /// of Montgomery form a block, and the sign from the negation) and the
    /// tail on the default body; the output is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not as long as `xs`.
    fn narrow_into(xs: &[Self], out: &mut [i32]) -> bool {
        narrow_into_scalar(xs, out)
    }

    /// `Σ aᵢ·bᵢ` over the common prefix of `a` and the integers `b`: a
    /// sum whose one operand is small, such as a round sum over narrow
    /// tables (`i64` products) or a dot against the untouched narrow tail
    /// of `z` (its `i32`s, read in place).
    ///
    /// The default is [`dot_small_scalar`]. `declare_field!` fields run
    /// whole blocks of eight on CPUs with AVX-512 IFMA, where a magnitude
    /// below 2^52 is one 52-bit plane (five products, not twenty-five),
    /// and the tail on the default body; the sum is bit-identical either
    /// way.
    fn dot_small<K: SmallInt>(a: &[Self], b: &[K]) -> Self {
        dot_small_scalar(a, b)
    }

    /// `Σ x[i] over plus − Σ x[i] over minus + Σ k·x[i] over (i, k) in
    /// scaled`: a group of a sparse line (an R1CS row or column, one
    /// matrix's entries in it) whose coefficients are ±1 and small
    /// integers.
    ///
    /// The default is [`signed_sum_scalar`], a modular fold.
    /// `declare_field!` fields add each sign into an unreduced integer sum
    /// ([`crate::limb::SumAcc`]: no comparison against `p` per entry, four
    /// word multiplies per scaled one) and reduce their difference once;
    /// the sum is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if an index lies outside `x`.
    fn signed_sum(x: &[Self], plus: &[u32], minus: &[u32], scaled: &[(u32, i32)]) -> Self {
        signed_sum_scalar(x, plus, minus, scaled)
    }

    /// `out[i] ← lo[i] + r·(hi[i] − lo[i])` for a table whose halves `lo`
    /// and `hi` are narrow integers: [`Self::fold_halves`] of the first
    /// round over narrow tables, written into field storage.
    ///
    /// The default is [`fold_small_scalar`]; `declare_field!` fields
    /// override it as they do [`Self::dot_small`].
    ///
    /// # Panics
    ///
    /// Panics if `lo` or `hi` is not as long as `out`.
    fn fold_small(out: &mut [Self], lo: &[i32], hi: &[i32], r: Self) {
        fold_small_scalar(out, lo, hi, r);
    }

    /// Writes [`Self::to_bytes`] of each element into its 32 bytes of
    /// `out`: a Merkle leaf's column or a transcript message in bulk.
    ///
    /// The default is [`write_canonical_scalar`]; `declare_field!` fields
    /// override it as they do [`Self::fold_halves`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != 32 · xs.len()`.
    fn write_canonical(xs: &[Self], out: &mut [u8]) {
        write_canonical_scalar(xs, out);
    }

    /// The sums of one sum-check round over the pairs `(lo[b], hi[b])` of
    /// tables given as their halves: with `p(x, y, z) = x·y − z` and weights
    /// `w` (`w ≡ 1` without `w`, `z ≡ 0` without `z`), returns
    /// `[s(0), s(1), s(∞)]` =
    /// `[Σ w·p(lo), Σ w·p(hi), Σ w·(x_hi − x_lo)·(y_hi − y_lo)]`, with `s(1)`
    /// summed only when `direct` is set and zero otherwise.
    ///
    /// The default is [`product_round_sums_scalar`]. `declare_field!` fields
    /// run whole blocks of eight pairs on CPUs with AVX-512 IFMA and the
    /// tail on the default body; the sums are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the halves, `z`'s halves and `w` differ in length.
    fn product_round_sums(
        x: [&[Self]; 2],
        y: [&[Self]; 2],
        z: Option<[&[Self]; 2]>,
        w: Option<&[Self]>,
        direct: bool,
    ) -> [Self; 3] {
        product_round_sums_scalar(x, y, z, w, direct)
    }

    /// Inverts every non-zero element of `values` in place and leaves the
    /// zeros: the shared inversion of a batch-affine round, of a batch of
    /// projective points leaving their `Z`, of the NTT's inverse twiddles.
    ///
    /// The default is [`batch_invert_scalar`]. `declare_field!` fields run
    /// 32 interleaved chains of prefix products on CPUs with AVX-512 IFMA,
    /// with the lane totals and the tail under one inversion; inverses are
    /// unique, so the output is bit-identical either way.
    fn batch_invert(values: &mut [Self]) {
        batch_invert_scalar(values);
    }

    /// Chord additions `p + q` of short-Weierstrass affine points given their
    /// slopes as `num / den`: per pair `i`, with `λ = num[i]·inv[i]` (`inv`
    /// the inverted denominators), `x₃ = λ² − p_x − q_x` and
    /// `y₃ = λ·(p_x − x₃) − p_y` overwrite `p[0][i]` and `p[1][i]`. The
    /// formula is the tangent's too when `q = p` and `num / den` is its
    /// slope. The batch-affine rounds of `curve::msm`.
    ///
    /// The default is [`affine_chords_scalar`]. `declare_field!` fields run
    /// whole blocks of eight pairs on CPUs with AVX-512 IFMA and the tail on
    /// the default body; the output is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the five slices differ in length.
    fn affine_chords(num: &[Self], inv: &[Self], qx: &[Self], p: [&mut [Self]; 2]) {
        affine_chords_scalar(num, inv, qx, p);
    }
}

/// The portable body of [`Field::affine_chords`], and its oracle: three
/// multiplies per pair.
///
/// # Panics
///
/// As [`Field::affine_chords`].
pub fn affine_chords_scalar<F: Field>(num: &[F], inv: &[F], qx: &[F], p: [&mut [F]; 2]) {
    let [px, py] = p;
    assert!(
        chord_lengths_match(num, inv, qx, [&*px, &*py]),
        "chord slices differ in length"
    );
    for i in 0..num.len() {
        let slope = num[i] * inv[i];
        let x = slope.square() - px[i] - qx[i];
        py[i] = slope * (px[i] - x) - py[i];
        px[i] = x;
    }
}

/// Whether `inv`, `qx` and both coordinate slices of `p` are as long as
/// `num`.
pub(crate) fn chord_lengths_match<F>(num: &[F], inv: &[F], qx: &[F], p: [&[F]; 2]) -> bool {
    [inv, qx, p[0], p[1]].iter().all(|s| s.len() == num.len())
}

/// The portable body of [`Field::product_round_sums`], and its oracle: one
/// deferred product ([`Field::dot_acc_add`]) per pair and sum, whose factors
/// are `(x, y)` without weights or `z`, else `(w, x·y − z)` — one full
/// multiply more.
///
/// # Panics
///
/// As [`Field::product_round_sums`].
pub fn product_round_sums_scalar<F: Field>(
    x: [&[F]; 2],
    y: [&[F]; 2],
    z: Option<[&[F]; 2]>,
    w: Option<&[F]>,
    direct: bool,
) -> [F; 3] {
    assert!(
        round_sum_lengths_match(x, y, z, w),
        "round-sum halves differ in length"
    );
    let add = |acc: &mut F::DotAcc, b: usize, x: F, y: F, z: Option<F>| match (w, z) {
        (None, None) => F::dot_acc_add(acc, x, y),
        (w, z) => {
            let p = x * y - z.unwrap_or(F::ZERO);
            F::dot_acc_add(acc, w.map_or(F::ONE, |w| w[b]), p);
        }
    };
    let mut sums = [F::DotAcc::default(); 3];
    for b in 0..x[0].len() {
        let ([x0, x1], [y0, y1]) = (x.map(|h| h[b]), y.map(|h| h[b]));
        let z = z.map(|z| z.map(|h| h[b]));
        add(&mut sums[0], b, x0, y0, z.map(|[z0, _]| z0));
        if direct {
            add(&mut sums[1], b, x1, y1, z.map(|[_, z1]| z1));
        }
        add(&mut sums[2], b, x1 - x0, y1 - y0, None);
    }
    sums.map(|acc| F::dot_acc_reduce(&acc))
}

/// Whether `x[1]`, `y`'s and `z`'s halves and `w` are all as long as `x[0]`.
pub(crate) fn round_sum_lengths_match<F>(
    x: [&[F]; 2],
    y: [&[F]; 2],
    z: Option<[&[F]; 2]>,
    w: Option<&[F]>,
) -> bool {
    let others = [x[1], y[0], y[1]]
        .into_iter()
        .chain(z.into_iter().flatten());
    others.chain(w).all(|s| s.len() == x[0].len())
}

/// The portable body of [`Field::write_canonical`], and its oracle: one
/// [`Field::to_bytes`] per element.
///
/// # Panics
///
/// As [`Field::write_canonical`].
pub fn write_canonical_scalar<F: Field>(xs: &[F], out: &mut [u8]) {
    assert_eq!(
        out.len(),
        xs.len() * 32,
        "canonical bytes are 32 per element"
    );
    for (bytes, x) in out.chunks_exact_mut(32).zip(xs) {
        bytes.copy_from_slice(&x.to_bytes());
    }
}

/// The portable body of [`Field::fold_halves`], and the oracle every
/// override is tested against: one multiply per entry.
///
/// # Panics
///
/// As [`Field::fold_halves`].
pub fn fold_halves_scalar<F: Field>(lo: &mut [F], hi: &[F], r: F) {
    assert_eq!(lo.len(), hi.len(), "fold halves differ in length");
    for (lo, &hi) in lo.iter_mut().zip(hi) {
        *lo += r * (hi - *lo);
    }
}

/// The portable body of [`Field::scale`], and its oracle: one multiply per
/// entry.
pub fn scale_scalar<F: Field>(xs: &mut [F], c: F) {
    for x in xs {
        *x *= c;
    }
}

/// The portable body of [`Field::combine`], and its oracle: per entry,
/// `N + 1` deferred products ([`Field::dot_acc_add`]) and one reduction.
///
/// # Panics
///
/// As [`Field::combine`].
pub fn combine_scalar<F: Field, const N: usize>(x: &mut [F], a: F, terms: [(&[F], F); N]) {
    assert!(
        terms.iter().all(|(y, _)| y.len() == x.len()),
        "combined slices differ in length"
    );
    for (i, x) in x.iter_mut().enumerate() {
        let mut acc = F::DotAcc::default();
        F::dot_acc_add(&mut acc, a, *x);
        for &(y, b) in &terms {
            F::dot_acc_add(&mut acc, b, y[i]);
        }
        *x = F::dot_acc_reduce(&acc);
    }
}

/// The portable body of [`Field::eq_double`], and its oracle: one multiply
/// per entry.
///
/// # Panics
///
/// As [`Field::eq_double`].
pub fn eq_double_scalar<F: Field>(lo: &mut [F], hi: &mut [F], t: F) {
    assert!(hi.len() <= lo.len(), "eq level's upper part outgrows it");
    let (paired, unpaired) = lo.split_at_mut(hi.len());
    for (lo, hi) in paired.iter_mut().zip(hi) {
        *hi = t * *lo;
        *lo -= *hi;
    }
    scale_scalar(unpaired, F::ONE - t);
}

/// The portable body of [`Field::eq_split`], and its oracle: one multiply
/// per entry, as [`eq_double_scalar`] pairs them.
///
/// # Panics
///
/// As [`Field::eq_split`].
pub fn eq_split_scalar<F: Field>(src: &[F], lo: &mut [F], hi: &mut [F], t: F) {
    assert!(
        lo.len() == src.len() && hi.len() == src.len(),
        "eq level halves differ from their source in length"
    );
    for ((&v, lo), hi) in src.iter().zip(lo).zip(hi) {
        *hi = t * v;
        *lo = v - *hi;
    }
}

/// Narrow integers lie strictly between `−NARROW_BOUND` and
/// `NARROW_BOUND` (2^30): a difference of two fits an `i32` and one
/// 52-bit plane, and a product of two differences an `i64`.
pub const NARROW_BOUND: i32 = 1 << 30;

/// The portable body of [`Field::narrow_into`], and its oracle: per
/// element the canonical bytes, then those of its negation.
///
/// # Panics
///
/// As [`Field::narrow_into`].
pub fn narrow_into_scalar<F: Field>(xs: &[F], out: &mut [i32]) -> bool {
    assert_eq!(xs.len(), out.len(), "one integer per element");
    let narrow = |x: F| {
        let bytes = x.to_bytes();
        let (low, high) = bytes.split_first_chunk::<4>().expect("32 bytes");
        let k = u32::from_le_bytes(*low);
        (high.iter().all(|&b| b == 0) && k < NARROW_BOUND as u32).then_some(k as i32)
    };
    let mut entries = xs.iter().zip(out);
    entries.all(|(&x, out)| {
        let k = narrow(x).or_else(|| narrow(-x).map(|k| -k));
        k.map(|k| *out = k).is_some()
    })
}

/// The integers [`Field::dot_small`] sums against: `i64` and `i32`.
pub trait SmallInt: Copy + Into<i64> + crate::lanes::SmallInts {}

impl SmallInt for i64 {}
impl SmallInt for i32 {}

/// The portable body of [`Field::dot_small`], and its oracle: each integer
/// entered through [`field_from_i64`], then [`Field::dot_pairs`].
pub fn dot_small_scalar<F: Field, K: SmallInt>(a: &[F], b: &[K]) -> F {
    F::dot_pairs(
        a.iter()
            .zip(b)
            .map(|(&a, &b)| (a, field_from_i64(b.into()))),
    )
}

/// The portable body of [`Field::signed_sum`], and its oracle: a fold of
/// modular additions and subtractions, each scaled entry entered through
/// [`field_from_i64`] and multiplied.
///
/// # Panics
///
/// As [`Field::signed_sum`].
pub fn signed_sum_scalar<F: Field>(
    x: &[F],
    plus: &[u32],
    minus: &[u32],
    scaled: &[(u32, i32)],
) -> F {
    let at = |i: u32| x[i as usize];
    let sum = plus.iter().fold(F::ZERO, |s, &i| s + at(i));
    let sum = minus.iter().fold(sum, |s, &i| s - at(i));
    let scaled = scaled
        .iter()
        .map(|&(i, k)| field_from_i64::<F>(k.into()) * at(i));
    scaled.fold(sum, |s, t| s + t)
}

/// The portable body of [`Field::fold_small`], and its oracle: `lo` and
/// `hi − lo` entered through [`field_from_i64`], then one multiply per
/// entry.
///
/// # Panics
///
/// As [`Field::fold_small`].
pub fn fold_small_scalar<F: Field>(out: &mut [F], lo: &[i32], hi: &[i32], r: F) {
    assert!(
        lo.len() == out.len() && hi.len() == out.len(),
        "fold halves differ in length"
    );
    for ((out, &lo), &hi) in out.iter_mut().zip(lo).zip(hi) {
        let (lo, hi) = (i64::from(lo), i64::from(hi));
        *out = field_from_i64::<F>(lo) + r * field_from_i64(hi - lo);
    }
}

/// The portable body of [`Field::sparse_mul_lanes`], and the oracle every
/// override is tested against: each row keeps `width` deferred-reduction
/// accumulators ([`Field::DotAcc`]) and streams the contiguous input block
/// of every non-zero through them with the coefficient held in registers,
/// so the matrix is read once for all `width` vectors.
///
/// # Panics
///
/// As [`Field::sparse_mul_lanes`].
pub fn sparse_mul_lanes_scalar<F: Field>(
    width: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[F],
    x: &[F],
    out: &mut [F],
) {
    assert_eq!(
        out.len(),
        row_ptr.len().saturating_sub(1) * width,
        "output dimension mismatch"
    );
    let mut accs = vec![F::DotAcc::default(); width];
    for (span, out_row) in row_ptr.windows(2).zip(out.chunks_exact_mut(width)) {
        accs.fill(F::DotAcc::default());
        let (cols, coeffs) = (&col_idx[span[0]..span[1]], &values[span[0]..span[1]]);
        for (&c, &v) in cols.iter().zip(coeffs) {
            for (acc, &xv) in accs.iter_mut().zip(&x[c * width..(c + 1) * width]) {
                F::dot_acc_add(acc, v, xv);
            }
        }
        for (o, acc) in out_row.iter_mut().zip(&accs) {
            *o = F::dot_acc_reduce(acc);
        }
    }
}

/// Low-level access to the four-limb Montgomery representation behind a
/// [`Field`] implementation — the hook limb-level kernels and their
/// property tests build on. Implemented automatically by `declare_field!`.
pub trait MontLimbs: Field {
    /// The field modulus `p`.
    const P: Limbs;
    /// `-p^{-1} mod 2^64`, the Montgomery reduction constant.
    const NEG_INV: u64;

    /// The raw Montgomery-form limbs of this element.
    fn mont_limbs(self) -> Limbs;

    /// Rebuilds an element from Montgomery-form limbs.
    ///
    /// The caller must guarantee `limbs < p`. Passing an unreduced value is
    /// memory-safe but yields an element that breaks `Eq`/serialization
    /// canonicity, so every kernel must canonicalize (as
    /// [`crate::limb::acc_reduce`] does) before calling this.
    fn from_mont_limbs_unchecked(limbs: Limbs) -> Self;
}

/// Convenience: converts a possibly-negative i64 into a field element.
/// 0 and 1, most of a quantized network's witness, are the constants, not
/// a conversion into Montgomery form each.
pub fn field_from_i64<F: Field>(v: i64) -> F {
    match v {
        0 => F::ZERO,
        1 => F::ONE,
        2.. => F::from(v as u64),
        _ => -F::from(v.unsigned_abs()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fr;

    #[test]
    fn from_i64_negatives() {
        assert_eq!(field_from_i64::<Fr>(-1) + Fr::ONE, Fr::ZERO);
        assert_eq!(field_from_i64::<Fr>(5), Fr::from(5u64));
        assert_eq!(field_from_i64::<Fr>(-5) + Fr::from(5u64), Fr::ZERO);
        // The constants 0 and 1 and the extremes, byte for byte against
        // the conversion of the magnitude and its negation.
        for (v, magnitude, negative) in [
            (0, 0u64, false),
            (1, 1, false),
            (-1, 1, true),
            (i64::MAX, i64::MAX as u64, false),
            (i64::MIN, 1 << 63, true),
        ] {
            let want = if negative {
                -Fr::from(magnitude)
            } else {
                Fr::from(magnitude)
            };
            let got = field_from_i64::<Fr>(v);
            assert_eq!(got.to_bytes(), want.to_bytes(), "{v}");
            assert_eq!(got, want, "{v}");
        }
    }

    /// `field_from_i64` ≡ the Montgomery multiply by `R²` of the
    /// magnitude (`oracle`, run per value, where `From<u64>` reads its
    /// table or takes its one-limb product), negated for a negative value:
    /// every value in `[−2^16, 2^16]`, the edges of the table and of the
    /// one-limb path, and the extremes.
    fn from_i64_matches_the_montgomery_multiply<F: Field>(oracle: impl Fn(u64) -> F) {
        let edges = [
            255,
            256,
            (1 << 32) - 1,
            1 << 32,
            (1 << 62) + 1,
            i64::MAX - 1,
        ];
        let values = (-(1 << 16)..=1 << 16).chain(edges.iter().flat_map(|&v| [v, -v]));
        for v in values.chain([i64::MIN, i64::MAX]) {
            let magnitude = oracle(v.unsigned_abs());
            let want = if v < 0 { -magnitude } else { magnitude };
            assert_eq!(field_from_i64::<F>(v).to_bytes(), want.to_bytes(), "{v}");
        }
        for v in [1 << 63, (1 << 63) + 1, u64::MAX] {
            assert_eq!(F::from(v).to_bytes(), oracle(v).to_bytes(), "{v}");
        }
    }

    #[test]
    fn from_i64_is_bit_identical_to_the_montgomery_multiply() {
        from_i64_matches_the_montgomery_multiply(|m| Fr::from_canonical_limbs([m, 0, 0, 0]));
        from_i64_matches_the_montgomery_multiply(|m| crate::Fq::from_canonical_limbs([m, 0, 0, 0]));
    }

    #[test]
    fn narrow_values_round_trip_and_wide_ones_do_not() {
        let b = i64::from(NARROW_BOUND);
        let narrow = [0, 1, -1, 2, -2, 800, -800, b - 1, 1 - b];
        let xs: Vec<Fr> = narrow.iter().map(|&k| field_from_i64(k)).collect();
        let mut out = [7; 9];
        assert!(narrow_into_scalar(&xs, &mut out));
        assert!(out.iter().zip(narrow).all(|(&o, k)| i64::from(o) == k));
        let half = Fr::from(2u64).inverse().expect("2 is not zero");
        for k in [b, -b, i64::MAX, i64::MIN, 1 << 32] {
            for wide in [field_from_i64::<Fr>(k), half] {
                let mut out = [7; 3];
                let xs = [Fr::ONE, wide, Fr::ONE];
                assert!(!narrow_into_scalar(&xs, &mut out), "{k}");
                assert_eq!(out, [1, 7, 7], "{k}: stops at the first wide entry");
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let g = Fr::from(3u64);
        let mut acc = Fr::ONE;
        for e in 0..20u64 {
            assert_eq!(g.pow(&[e]), acc);
            acc *= g;
        }
    }

    #[test]
    fn pow_multi_limb_exponent() {
        // g^(2^64) == (g^(2^63))^2
        let g = Fr::from(7u64);
        let e63 = g.pow(&[1u64 << 63]);
        assert_eq!(g.pow(&[0, 1]), e63 * e63);
    }
}
