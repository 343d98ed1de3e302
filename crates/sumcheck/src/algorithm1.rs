//! Algorithm 1 of the paper, verbatim: sum-check proof generation for a
//! multilinear polynomial in `O(2^n)` time (Vu et al., "A hybrid architecture
//! for interactive verifiable computation").
//!
//! This module is the CPU reference ("Arkworks (CPU)" column of Table 4) and
//! the bit-exact oracle the pipelined GPU module in `batchzk-pipeline` is
//! tested against. The Fiat–Shamir wrappers live in the `prove` module; here
//! the random numbers `r_1, ..., r_n` are explicit inputs, exactly as in the
//! paper's pseudocode.

use batchzk_field::Field;

/// A sum-check proof in the paper's format: one pair
/// `(π_{i1}, π_{i2})` per round.
pub type PairProof<F> = Vec<(F, F)>;

/// Generates a sum-check proof for the table `a` (length `2^n`) under the
/// given per-round random numbers, folding the table in place — no copy of
/// the `2^n`-entry table is ever made, so batch callers pay zero per-task
/// allocation beyond the table they already own. After return the table is
/// truncated to a single entry, `a[0] = p(r_n, ..., r_1)`.
///
/// Returns `π = [(π_11, π_12), ..., (π_n1, π_n2)]`.
///
/// # Panics
///
/// Panics if `a.len() != 2^{rs.len()}`.
///
/// # Examples
///
/// ```
/// use batchzk_sumcheck::algorithm1;
/// use batchzk_field::{Field, Fr};
///
/// let table: Vec<Fr> = (0..8u64).map(Fr::from).collect();
/// let h: Fr = table.iter().copied().sum();
/// let rs = [Fr::from(5u64), Fr::from(6u64), Fr::from(7u64)];
/// let proof = algorithm1::prove(&mut table.clone(), &rs);
/// // Round sums reconstruct the claimed total.
/// assert_eq!(proof[0].0 + proof[0].1, h);
/// ```
pub fn prove<F: Field>(a: &mut Vec<F>, rs: &[F]) -> PairProof<F> {
    let n = rs.len();
    assert_eq!(a.len(), 1usize << n, "table length must be 2^n");
    let mut proof = Vec::with_capacity(n);
    for (i, &r) in rs.iter().enumerate() {
        let half = 1usize << (n - i - 1);
        let (lo, hi) = a.split_at_mut(half);
        proof.push((lo.iter().copied().sum(), hi.iter().copied().sum()));
        // (1-r)·lo + r·hi == lo + r·(hi - lo), exactly.
        F::fold_halves(lo, hi, r);
        a.truncate(half);
    }
    proof
}

/// Verifies a pair-format proof against the claimed hypercube sum `h`.
///
/// Checks `π_{11} + π_{12} = H` and the per-round consistency
/// `π_{i1} + π_{i2} = (1 - r_{i-1})·π_{(i-1)1} + r_{i-1}·π_{(i-1)2}`,
/// then returns the final claimed evaluation `p(r_n, ..., r_1)` for the
/// caller's oracle check — or `None` if any round check fails.
pub fn verify<F: Field>(h: F, proof: &PairProof<F>, rs: &[F]) -> Option<F> {
    if proof.len() != rs.len() {
        return None;
    }
    let mut claim = h;
    for (&(pi1, pi2), &r) in proof.iter().zip(rs) {
        if pi1 + pi2 != claim {
            return None;
        }
        claim = (F::ONE - r) * pi1 + r * pi2;
    }
    Some(claim)
}

/// Verifies the proof end-to-end, including the final oracle evaluation
/// against the original polynomial table: the tests' check, where a
/// succinct verifier would instead query a polynomial commitment at the
/// final point.
#[cfg(test)]
pub(crate) fn verify_with_oracle<F: Field>(
    h: F,
    proof: &PairProof<F>,
    rs: &[F],
    table: &[F],
) -> bool {
    let Some(final_claim) = verify(h, proof, rs) else {
        return false;
    };
    // Final point: round i fixed x_{n+1-i} = r_i, so x = (r_n, ..., r_1).
    let point: Vec<F> = rs.iter().rev().copied().collect();
    let poly = crate::MultilinearPoly::new(table.to_vec());
    poly.evaluate(&point) == final_claim
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::{Field, Fr};
    use batchzk_hash::Prg;

    fn rand_table(n: usize, seed: u64) -> Vec<Fr> {
        let mut rng = Prg::seed_from_u64(seed);
        (0..1usize << n).map(|_| Fr::random(&mut rng)).collect()
    }

    fn rand_point(n: usize, seed: u64) -> Vec<Fr> {
        let mut rng = Prg::seed_from_u64(seed);
        (0..n).map(|_| Fr::random(&mut rng)).collect()
    }

    #[test]
    fn completeness_across_sizes() {
        for n in 1..=10 {
            let table = rand_table(n, n as u64);
            let rs = rand_point(n, 100 + n as u64);
            let h: Fr = table.iter().copied().sum();
            let proof = prove(&mut table.clone(), &rs);
            assert!(verify_with_oracle(h, &proof, &rs, &table), "n={n}");
        }
    }

    #[test]
    fn wrong_sum_rejected() {
        let mut table = rand_table(6, 1);
        let rs = rand_point(6, 2);
        let h: Fr = table.iter().copied().sum();
        let proof = prove(&mut table, &rs);
        assert!(verify(h + Fr::ONE, &proof, &rs).is_none());
    }

    #[test]
    fn tampered_round_rejected() {
        let table = rand_table(6, 3);
        let rs = rand_point(6, 4);
        let h: Fr = table.iter().copied().sum();
        let mut proof = prove(&mut table.clone(), &rs);
        proof[3].0 += Fr::ONE;
        assert!(!verify_with_oracle(h, &proof, &rs, &table));
    }

    #[test]
    fn compensating_tamper_caught_by_oracle() {
        // Shift both halves so the round sum still matches the claim; the
        // next-round consistency (or final oracle) must catch it.
        let table = rand_table(5, 5);
        let rs = rand_point(5, 6);
        let h: Fr = table.iter().copied().sum();
        let mut proof = prove(&mut table.clone(), &rs);
        proof[0].0 += Fr::ONE;
        proof[0].1 -= Fr::ONE;
        assert!(!verify_with_oracle(h, &proof, &rs, &table));
    }

    #[test]
    fn truncated_proof_rejected() {
        let mut table = rand_table(4, 7);
        let rs = rand_point(4, 8);
        let h: Fr = table.iter().copied().sum();
        let mut proof = prove(&mut table, &rs);
        proof.pop();
        assert!(verify(h, &proof, &rs).is_none());
    }

    #[test]
    fn final_value_is_polynomial_evaluation() {
        let table = rand_table(7, 9);
        let rs = rand_point(7, 10);
        let mut folded = table.clone();
        prove(&mut folded, &rs);
        let point: Vec<Fr> = rs.iter().rev().copied().collect();
        let poly = crate::MultilinearPoly::new(table);
        assert_eq!(folded[0], poly.evaluate(&point));
    }

    #[test]
    fn zero_table_proves_zero() {
        let table = vec![Fr::ZERO; 16];
        let rs = rand_point(4, 11);
        let proof = prove(&mut table.clone(), &rs);
        assert!(verify_with_oracle(Fr::ZERO, &proof, &rs, &table));
    }

    #[test]
    fn single_variable() {
        let table = vec![Fr::from(3u64), Fr::from(4u64)];
        let rs = [Fr::from(10u64)];
        let proof = prove(&mut table.clone(), &rs);
        assert_eq!(proof, vec![(Fr::from(3u64), Fr::from(4u64))]);
        assert!(verify_with_oracle(Fr::from(7u64), &proof, &rs, &table));
    }

    #[test]
    #[should_panic(expected = "2^n")]
    fn mismatched_lengths_panic() {
        let _ = prove(&mut vec![Fr::ONE; 8], &[Fr::ONE, Fr::ONE]);
    }
}
