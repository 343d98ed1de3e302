//! Shared round machinery for Fiat–Shamir sum-checks of arbitrary small
//! degree: round-polynomial interpolation and the verifier's round loop.

use batchzk_field::Field;
use batchzk_hash::Transcript;

/// A Fiat–Shamir sum-check proof: per round, the evaluations of the round
/// polynomial `g_i` at `X = 0, 1, ..., d` where `d` is the degree bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumcheckProof<F> {
    /// `rounds[i]` holds `d + 1` evaluations of round polynomial `g_i`.
    pub rounds: Vec<Vec<F>>,
}

impl<F: Field> SumcheckProof<F> {
    /// Number of rounds (= number of variables summed over).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }
}

/// Precomputed inverted Lagrange denominators for interpolation on the
/// consecutive integer nodes `0, 1, ..., d`.
///
/// The denominators `j!·(d−j)!·(−1)^{d−j}` depend only on the degree, not
/// on the values or the evaluation point, so a verifier running many rounds
/// of the same degree builds this once — one `batch_invert` for the whole
/// sum-check instead of one per round.
#[derive(Debug, Clone)]
pub struct LagrangeDenoms<F> {
    /// The nodes `0, 1, ..., d` as field elements.
    nodes: Vec<F>,
    /// `inv_denoms[j] = 1 / (j!·(d−j)!·(−1)^{d−j})`.
    inv_denoms: Vec<F>,
}

impl<F: Field> LagrangeDenoms<F> {
    /// Precomputes the nodes and inverted denominators for degree `degree`.
    pub fn new(degree: usize) -> Self {
        let nodes: Vec<F> = (0..=degree as u64).map(F::from).collect();
        // Π_{k≠j} (j − k) = j!·(d−j)!·(−1)^{d−j}
        let mut denoms: Vec<F> = (0..=degree)
            .map(|j| {
                let others = nodes.iter().enumerate().filter(|&(k, _)| k != j);
                others.map(|(_, &node)| nodes[j] - node).product()
            })
            .collect();
        F::batch_invert(&mut denoms);
        Self {
            nodes,
            inv_denoms: denoms,
        }
    }

    /// The degree these denominators were built for.
    pub fn degree(&self) -> usize {
        self.inv_denoms.len() - 1
    }

    /// Evaluates the degree-`d` polynomial through `(0, ys[0]), ...,
    /// (d, ys[d])` at `r` — `Σ_j ys[j]·Π_{k≠j}(r−k) / Π_{k≠j}(j−k)` — with no
    /// inversion, integer conversion or allocation: the sum-check prover
    /// calls this once per round. At a node `r = k` every term but `ys[k]`
    /// holds a zero factor, so nodes need no special case.
    ///
    /// # Panics
    ///
    /// Panics if `ys.len() != self.degree() + 1`.
    pub fn interpolate_at(&self, ys: &[F], r: F) -> F {
        assert_eq!(
            ys.len(),
            self.inv_denoms.len(),
            "value count must match the precomputed degree"
        );
        let mut acc = F::ZERO;
        for (j, (&y, &inv)) in ys.iter().zip(&self.inv_denoms).enumerate() {
            let others = self.nodes.iter().enumerate().filter(|&(k, _)| k != j);
            acc += others.fold(y * inv, |term, (_, &node)| term * (r - node));
        }
        acc
    }
}

/// Evaluates the degree-`d` polynomial through the points
/// `(0, ys[0]), ..., (d, ys[d])` at `r` (Lagrange on consecutive integer
/// nodes).
///
/// One-shot convenience over [`LagrangeDenoms`]; callers interpolating many
/// round polynomials of the same degree should precompute the denominators
/// instead, as [`verify_rounds`] does.
///
/// # Panics
///
/// Panics if `ys` is empty.
pub fn interpolate_at<F: Field>(ys: &[F], r: F) -> F {
    assert!(!ys.is_empty(), "need at least one interpolation node");
    LagrangeDenoms::new(ys.len() - 1).interpolate_at(ys, r)
}

/// Runs the verifier's round loop for a degree-`degree` sum-check.
///
/// Per round, checks `g_i(0) + g_i(1) == claim`, absorbs the round
/// polynomial, squeezes the challenge `r_i`, and folds the claim to
/// `g_i(r_i)`. Returns `(final_claim, rs)` on success; the caller must
/// finish with an oracle / commitment check of `final_claim` at the point
/// determined by `rs`.
pub fn verify_rounds<F: Field>(
    claim: F,
    proof: &SumcheckProof<F>,
    degree: usize,
    transcript: &mut Transcript,
) -> Option<(F, Vec<F>)> {
    let mut claim = claim;
    let mut rs = Vec::with_capacity(proof.rounds.len());
    // The Lagrange denominators depend only on the degree: invert them once
    // for the whole proof rather than once per round.
    let denoms = LagrangeDenoms::new(degree);
    for round in &proof.rounds {
        // A degree-0 "round" has no g(1) to check the claim against.
        if round.len() != degree + 1 || round.len() < 2 {
            return None;
        }
        if round[0] + round[1] != claim {
            return None;
        }
        transcript.absorb_fields(b"sumcheck-round", round);
        let r: F = transcript.challenge_field(b"sumcheck-r");
        claim = denoms.interpolate_at(round, r);
        rs.push(r);
    }
    Some((claim, rs))
}

/// Prover-side helper: absorbs a round polynomial and squeezes the matching
/// challenge (must mirror [`verify_rounds`] exactly).
pub fn prover_round_challenge<F: Field>(round: &[F], transcript: &mut Transcript) -> F {
    transcript.absorb_fields(b"sumcheck-round", round);
    transcript.challenge_field(b"sumcheck-r")
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;
    use batchzk_hash::Prg;

    #[test]
    fn interpolation_recovers_polynomial() {
        // f(x) = 3x^3 + 2x^2 + x + 7
        let f = |x: Fr| Fr::from(3u64) * x * x * x + Fr::from(2u64) * x * x + x + Fr::from(7u64);
        let ys: Vec<Fr> = (0..4u64).map(|k| f(Fr::from(k))).collect();
        let mut rng = Prg::seed_from_u64(1);
        for _ in 0..20 {
            let r = Fr::random(&mut rng);
            assert_eq!(interpolate_at(&ys, r), f(r));
        }
        // At the nodes themselves.
        for k in 0..4u64 {
            assert_eq!(interpolate_at(&ys, Fr::from(k)), f(Fr::from(k)));
        }
    }

    #[test]
    fn interpolation_degree_zero_and_one() {
        assert_eq!(
            interpolate_at(&[Fr::from(5u64)], Fr::from(99u64)),
            Fr::from(5u64)
        );
        // Line through (0,1), (1,3): f(x) = 1 + 2x
        let ys = [Fr::ONE, Fr::from(3u64)];
        assert_eq!(interpolate_at(&ys, Fr::from(10u64)), Fr::from(21u64));
    }

    #[test]
    fn interpolation_linear_in_values() {
        let mut rng = Prg::seed_from_u64(2);
        let ya: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let yb: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let sum: Vec<Fr> = ya.iter().zip(&yb).map(|(a, b)| *a + *b).collect();
        let r = Fr::random(&mut rng);
        assert_eq!(
            interpolate_at(&sum, r),
            interpolate_at(&ya, r) + interpolate_at(&yb, r)
        );
    }

    #[test]
    fn precomputed_denoms_match_oneshot() {
        let mut rng = Prg::seed_from_u64(3);
        for d in 0..6usize {
            let denoms = LagrangeDenoms::new(d);
            assert_eq!(denoms.degree(), d);
            let ys: Vec<Fr> = (0..=d).map(|_| Fr::random(&mut rng)).collect();
            for _ in 0..8 {
                let r = Fr::random(&mut rng);
                assert_eq!(denoms.interpolate_at(&ys, r), interpolate_at(&ys, r));
            }
            // Node hits go through the shortcut path too.
            for k in 0..=d as u64 {
                assert_eq!(
                    denoms.interpolate_at(&ys, Fr::from(k)),
                    ys[k as usize],
                    "d={d} k={k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "precomputed degree")]
    fn denoms_reject_wrong_arity() {
        let denoms = LagrangeDenoms::<Fr>::new(2);
        let _ = denoms.interpolate_at(&[Fr::ONE, Fr::ONE], Fr::ONE);
    }

    #[test]
    fn verify_rounds_rejects_degree_zero() {
        // Used to index round[1] on a length-1 round and panic.
        let proof = SumcheckProof {
            rounds: vec![vec![Fr::ONE]],
        };
        let mut t = Transcript::new(b"t");
        assert!(verify_rounds(Fr::ONE, &proof, 0, &mut t).is_none());
    }

    #[test]
    fn verify_rounds_rejects_wrong_arity() {
        let proof = SumcheckProof {
            rounds: vec![vec![Fr::ONE, Fr::ONE, Fr::ONE]], // 3 evals = degree 2
        };
        let mut t = Transcript::new(b"t");
        assert!(verify_rounds(Fr::from(2u64), &proof, 1, &mut t).is_none());
    }
}
