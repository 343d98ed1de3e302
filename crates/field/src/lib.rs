//! # batchzk-field
//!
//! 256-bit prime-field arithmetic for the BatchZK reproduction: the BN254
//! scalar field [`Fr`] (used by every ZKP module) and base field [`Fq`] (used
//! by the MSM baseline's curve), plus batch inversion and a radix-2 NTT for
//! the old-protocol (Groth16-style) baseline.
//!
//! Field elements are stored in Montgomery form over four 64-bit limbs. All
//! per-field constants are derived from the modulus at compile time — see
//! [`mod@limb`] — and cross-checked against schoolbook arithmetic in tests.
//!
//! Fourteen lane-shaped hooks — the batch encoder's sparse product
//! ([`Field::sparse_mul_lanes`]), the sum-check fold
//! ([`Field::fold_halves`]), the in-place scale ([`Field::scale`]), the
//! linear combination of up to three slices ([`Field::combine`]), the
//! `eq` level doubling and splitting ([`Field::eq_double`],
//! [`Field::eq_split`]), the slice inner product ([`Field::dot`]), the
//! bulk canonical serializer ([`Field::write_canonical`]), a sum-check
//! round's sums ([`Field::product_round_sums`]), batch inversion
//! ([`Field::batch_invert`]), the MSM's affine chord additions
//! ([`Field::affine_chords`]), and on narrow integers the recovery
//! ([`Field::narrow_into`]), the dot ([`Field::dot_small`]) and the fold
//! ([`Field::fold_small`]) — run on the CPU's 52-bit vector multiplier
//! (AVX-512 IFMA) where that is detected at run time and on their
//! portable bodies ([`sparse_mul_lanes_scalar`], [`fold_halves_scalar`],
//! [`scale_scalar`], [`combine_scalar`], [`eq_double_scalar`],
//! [`eq_split_scalar`], [`Field::dot_pairs`], [`write_canonical_scalar`],
//! [`product_round_sums_scalar`], [`batch_invert_scalar`],
//! [`affine_chords_scalar`], [`narrow_into_scalar`], [`dot_small_scalar`],
//! [`fold_small_scalar`]) elsewhere; nothing configures them, and
//! [`lane_kernel`] reports which. One more hook runs on the limbs
//! themselves: [`Field::signed_sum`], a sparse line's group of ±1 and
//! small-integer entries, sums each sign unreduced and reduces once
//! ([`limb::reduce_sum`]; portable body [`signed_sum_scalar`]).
//! Each kernel is one safe loop over a packed type of eight elements whose
//! `p²` budget debug builds check; the hooks reach them through one seam.
//! The kernels' module holds the crate's only `unsafe` — that one call into
//! the kernels, and the one reinterpretation of a 256-byte block behind
//! every vector load and store — which is why the crate root denies
//! `unsafe_code` rather than forbidding it.
//!
//! # Examples
//!
//! ```
//! use batchzk_field::{Field, Fr};
//!
//! # fn main() {
//! let a = Fr::from(3u64);
//! let b = Fr::from(4u64);
//! assert_eq!((a + b) * (a - b), a.square() - b.square());
//!
//! let mut xs = vec![a, b];
//! Fr::batch_invert(&mut xs);
//! assert_eq!(xs[0] * a, Fr::ONE);
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod limb;
mod mont;
pub mod rng;
mod traits;

mod batch;
mod fq;
mod fr;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ifma;
mod lanes;
pub mod ntt;

pub use batch::batch_invert_scalar;
pub use fq::Fq;
pub use fr::Fr;
#[doc(hidden)]
pub use lanes::with_portable_bodies;
pub use ntt::NttDomain;
pub use rng::{RngCore, SplitMix64};
pub use traits::{
    affine_chords_scalar, combine_scalar, dot_small_scalar, eq_double_scalar, eq_split_scalar,
    field_from_i64, fold_halves_scalar, fold_small_scalar, narrow_into_scalar,
    product_round_sums_scalar, scale_scalar, signed_sum_scalar, sparse_mul_lanes_scalar,
    write_canonical_scalar, Field, MontLimbs, SmallInt, NARROW_BOUND,
};

/// The body the lane hooks run on this host for `Fr` and `Fq`:
/// `"avx512ifma"` or `"scalar"`. Under `"avx512ifma"`,
/// [`Field::fold_halves`], [`Field::scale`], [`Field::combine`] (of at most
/// two terms), [`Field::eq_double`] (its paired entries),
/// [`Field::eq_split`], [`Field::dot`], [`Field::write_canonical`],
/// [`Field::product_round_sums`], [`Field::affine_chords`] (per block of
/// eight pairs), [`Field::narrow_into`], [`Field::dot_small`] and
/// [`Field::fold_small`] run every whole block of eight on the kernel and
/// the `len % 8` tail on the scalar body,
/// [`Field::batch_invert`] runs every whole row of 32 elements on the
/// kernel and the tail on the scalar body under the same inversion, and
/// [`Field::sparse_mul_lanes`] runs the kernel at widths that are a
/// multiple of eight and the scalar body at every other width. It reads
/// `"scalar"` on a CPU without IFMA, off x86_64, and inside the test seam
/// that turns the kernels off.
pub fn lane_kernel() -> &'static str {
    if lanes::kernels_on() {
        "avx512ifma"
    } else {
        "scalar"
    }
}

#[cfg(test)]
mod randomized_tests {
    //! Deterministic randomized checks of the field axioms: each test draws
    //! a few hundred seeded samples, which covers the same algebraic
    //! identities the original property-based suite did without an external
    //! test-framework dependency.

    use super::*;

    const CASES: usize = 256;

    fn samples(seed: u64, n: usize) -> Vec<Fr> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n).map(|_| Fr::random(&mut rng)).collect()
    }

    #[test]
    fn add_commutes_and_associates() {
        let v = samples(0xA0, 3 * CASES);
        for t in v.chunks_exact(3) {
            let (a, b, c) = (t[0], t[1], t[2]);
            assert_eq!(a + b, b + a);
            assert_eq!((a + b) + c, a + (b + c));
        }
    }

    #[test]
    fn mul_commutes_associates_distributes() {
        let v = samples(0xA1, 3 * CASES);
        for t in v.chunks_exact(3) {
            let (a, b, c) = (t[0], t[1], t[2]);
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
        }
    }

    #[test]
    fn sub_is_add_neg() {
        let v = samples(0xA2, 2 * CASES);
        for t in v.chunks_exact(2) {
            assert_eq!(t[0] - t[1], t[0] + (-t[1]));
        }
    }

    #[test]
    fn inverse_cancels() {
        for a in samples(0xA3, CASES) {
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), Fr::ONE);
            }
        }
    }

    #[test]
    fn square_and_double_identities() {
        for a in samples(0xA4, CASES) {
            assert_eq!(a.square(), a * a);
            assert_eq!(a.double(), a + a);
        }
    }

    #[test]
    fn bytes_roundtrip() {
        for a in samples(0xA5, CASES) {
            assert_eq!(Fr::from_bytes(&a.to_bytes()), Some(a));
        }
    }

    #[test]
    fn batch_invert_matches_pointwise() {
        let mut rng = SplitMix64::seed_from_u64(0xA6);
        for len in 0..32usize {
            let mut v: Vec<Fr> = (0..len).map(|_| Fr::random(&mut rng)).collect();
            // Sprinkle in zeros, which batch inversion must pass through.
            if len > 2 {
                v[len / 2] = Fr::ZERO;
            }
            let mut batched = v.clone();
            Fr::batch_invert(&mut batched);
            for (orig, inv) in v.iter().zip(&batched) {
                if orig.is_zero() {
                    assert_eq!(*inv, Fr::ZERO);
                } else {
                    assert_eq!(*inv, orig.inverse().unwrap());
                }
            }
        }
    }

    #[test]
    fn pow_adds_exponents() {
        let mut rng = SplitMix64::seed_from_u64(0xA7);
        for _ in 0..64 {
            let a = Fr::random(&mut rng);
            let x = rng.gen_range(0..1000) as u64;
            let y = rng.gen_range(0..1000) as u64;
            assert_eq!(a.pow(&[x]) * a.pow(&[y]), a.pow(&[x + y]));
        }
    }
}
