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
//! The batch encoder's sparse product ([`Field::sparse_mul_lanes`]) runs on
//! the CPU's 52-bit vector multiplier (AVX-512 IFMA) where that is detected
//! at run time and on the portable [`sparse_mul_lanes_scalar`] elsewhere;
//! nothing configures it. That kernel's module holds the crate's only
//! `unsafe` — the call into it and its vector loads and stores — which is
//! why the crate root denies `unsafe_code` rather than forbidding it.
//!
//! # Examples
//!
//! ```
//! use batchzk_field::{Field, Fr, batch_invert};
//!
//! # fn main() {
//! let a = Fr::from(3u64);
//! let b = Fr::from(4u64);
//! assert_eq!((a + b) * (a - b), a.square() - b.square());
//!
//! let mut xs = vec![a, b];
//! batch_invert(&mut xs);
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
pub mod lut;
pub mod ntt;

pub use batch::batch_invert;
pub use fq::Fq;
pub use fr::Fr;
pub use ntt::NttDomain;
pub use rng::{RngCore, SplitMix64};
pub use traits::{field_from_i64, sparse_mul_lanes_scalar, Field, MontLimbs};

/// The body [`Field::sparse_mul_lanes`] runs on this host for `Fr` and
/// `Fq` at widths that are a multiple of eight: `"avx512ifma"` or
/// `"scalar"`. Every other width runs the scalar body.
pub fn sparse_mul_lanes_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ifma::available() {
        return "avx512ifma";
    }
    "scalar"
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
            batch_invert(&mut batched);
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
