//! The [`Field`] trait shared by every module in the workspace.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

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
    /// its operands can keep an accumulator per sum: a sparse matrix row
    /// against `w` interleaved messages, or the `s(0)`, `s(1)`, `s(∞)` of a
    /// sum-check round over the same table pairs.
    type DotAcc: Copy + Default + Send + Sync;

    /// `acc += a · b`.
    fn dot_acc_add(acc: &mut Self::DotAcc, a: Self, b: Self);

    /// The accumulated sum as a canonical field element.
    fn dot_acc_reduce(acc: &Self::DotAcc) -> Self;

    /// Inner product `Σ aᵢ·bᵢ` over an iterator of pairs — the hot loop of
    /// sparse-matrix rows, row combinations and matrix-MLE evaluation —
    /// through one [`Self::DotAcc`]. A loop that keeps several sums at once
    /// (the batch encoder, the sum-check round sums) calls the two steps
    /// itself.
    fn dot_pairs(pairs: impl Iterator<Item = (Self, Self)>) -> Self {
        let mut acc = Self::DotAcc::default();
        for (a, b) in pairs {
            Self::dot_acc_add(&mut acc, a, b);
        }
        Self::dot_acc_reduce(&acc)
    }

    /// Slice inner product `Σ aᵢ·bᵢ` over the common prefix of `a` and `b`.
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
pub fn field_from_i64<F: Field>(v: i64) -> F {
    if v >= 0 {
        F::from(v as u64)
    } else {
        -F::from(v.unsigned_abs())
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
