//! # batchzk-sumcheck
//!
//! The sum-check protocol (§2.3 of the paper): multilinear polynomials over
//! the Boolean hypercube, the paper's Algorithm 1 prover with explicit
//! randomness (the oracle for the pipelined GPU module), and Fiat–Shamir
//! sum-checks of degree 2 and 3 used by the Spartan/Brakedown-style SNARK in
//! `batchzk-zkp`.
//!
//! # Examples
//!
//! ```
//! use batchzk_sumcheck::{eq_eval, prove_cubic, verify_rounds, MultilinearPoly};
//! use batchzk_field::{Field, Fr};
//! use batchzk_hash::Transcript;
//!
//! // d = a∘c on the hypercube, so Σ_b eq(τ, b)·(a(b)·c(b) − d(b)) = 0.
//! let a: Vec<Fr> = (1..=8u64).map(Fr::from).collect();
//! let c: Vec<Fr> = (11..=18u64).map(Fr::from).collect();
//! let d: Vec<Fr> = a.iter().zip(&c).map(|(x, y)| *x * *y).collect();
//! let tau = [Fr::from(3u64), Fr::from(5u64), Fr::from(7u64)];
//!
//! let [mut ta, mut tc, mut td] = [a.clone(), c, d];
//! let mut levels = vec![Fr::ZERO; 8];
//! let mut pt = Transcript::new(b"doc");
//! let out = prove_cubic(&tau, [&mut ta, &mut tc, &mut td], None, &mut levels, &mut pt);
//!
//! let mut vt = Transcript::new(b"doc");
//! let (final_claim, _rs) = verify_rounds(Fr::ZERO, &out.proof, 3, &mut vt).unwrap();
//! let [av, cv, dv] = [out.final_evals[0], out.final_evals[1], out.final_evals[2]];
//! let point = out.point();
//! assert_eq!(final_claim, eq_eval(&tau, &point) * (av * cv - dv));
//! assert_eq!(MultilinearPoly::new(a).evaluate(&point), av);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod algorithm1;
#[cfg(test)]
mod counting;
mod poly;
mod prove;
mod rounds;

pub use poly::{eq_eval, eq_table, eq_table_prefix, eq_table_prefix_into, MultilinearPoly};
pub use prove::{prove_cubic, prove_quadratic_halves, ProverOutput};
pub use rounds::{prover_round_challenge, verify_rounds, SumcheckProof};

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::prove::prove_quadratic;
    use batchzk_field::{Field, Fr, SplitMix64};
    use batchzk_hash::Transcript;

    fn table(rng: &mut SplitMix64, n: usize) -> Vec<Fr> {
        (0..1usize << n).map(|_| Fr::random(rng)).collect()
    }

    fn point(rng: &mut SplitMix64, n: usize) -> Vec<Fr> {
        (0..n).map(|_| Fr::random(rng)).collect()
    }

    #[test]
    fn algorithm1_complete() {
        let mut rng = SplitMix64::seed_from_u64(0xD0);
        for _ in 0..24 {
            let table = table(&mut rng, 6);
            let rs = point(&mut rng, 6);
            let h: Fr = table.iter().copied().sum();
            let proof = algorithm1::prove(&mut table.clone(), &rs);
            assert!(algorithm1::verify_with_oracle(h, &proof, &rs, &table));
        }
    }

    #[test]
    fn algorithm1_sound_against_sum_tamper() {
        let mut rng = SplitMix64::seed_from_u64(0xD1);
        for _ in 0..24 {
            let mut table = table(&mut rng, 5);
            let rs = point(&mut rng, 5);
            let delta = Fr::random(&mut rng);
            if delta.is_zero() {
                continue;
            }
            let h: Fr = table.iter().copied().sum();
            let proof = algorithm1::prove(&mut table, &rs);
            assert!(algorithm1::verify(h + delta, &proof, &rs).is_none());
        }
    }

    #[test]
    fn quadratic_complete() {
        let mut rng = SplitMix64::seed_from_u64(0xD3);
        for _ in 0..24 {
            let f = MultilinearPoly::new(table(&mut rng, 4));
            let g = MultilinearPoly::new(table(&mut rng, 4));
            let h: Fr = f.evals().iter().zip(g.evals()).map(|(a, b)| *a * *b).sum();
            let mut pt = Transcript::new(b"prop2");
            let out = prove_quadratic(f.clone(), g.clone(), &mut pt);
            let mut vt = Transcript::new(b"prop2");
            let (fc, _) = verify_rounds(h, &out.proof, 2, &mut vt).unwrap();
            assert_eq!(fc, out.final_evals[0] * out.final_evals[1]);
        }
    }

    #[test]
    fn eq_eval_symmetric() {
        let mut rng = SplitMix64::seed_from_u64(0xD4);
        for _ in 0..24 {
            let x = point(&mut rng, 5);
            let y = point(&mut rng, 5);
            assert_eq!(eq_eval(&x, &y), eq_eval(&y, &x));
        }
    }

    #[test]
    fn evaluate_linear_combination() {
        let mut rng = SplitMix64::seed_from_u64(0xD5);
        for _ in 0..24 {
            let ta = table(&mut rng, 4);
            let tb = table(&mut rng, 4);
            let pt = point(&mut rng, 4);
            let c = Fr::random(&mut rng);
            let a = MultilinearPoly::new(ta.clone());
            let b = MultilinearPoly::new(tb.clone());
            let combo =
                MultilinearPoly::new(ta.iter().zip(&tb).map(|(x, y)| *x + c * *y).collect());
            assert_eq!(combo.evaluate(&pt), a.evaluate(&pt) + c * b.evaluate(&pt));
        }
    }
}
