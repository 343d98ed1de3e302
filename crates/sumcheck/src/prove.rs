//! Fiat–Shamir sum-check provers for the polynomial shapes the SNARK needs:
//! plain multilinear (degree 1), products of two multilinears (degree 2),
//! and the Spartan core `eq·(a·b - c)` (degree 3).

use batchzk_field::Field;
use batchzk_hash::Transcript;

use crate::poly::MultilinearPoly;
use crate::rounds::{prover_round_challenge, LagrangeDenoms, SumcheckProof};

/// Output of a prover run: the proof, the challenge vector in round order,
/// and the final evaluations of each input polynomial at the bound point.
#[derive(Debug, Clone)]
pub struct ProverOutput<F> {
    /// The round polynomials.
    pub proof: SumcheckProof<F>,
    /// Challenges `r_1, ..., r_n` in the order they were drawn (round `i`
    /// fixed variable `x_{n+1-i}`); the evaluation point in `(x_1, ..., x_n)`
    /// order is [`Self::point`].
    pub rs: Vec<F>,
    /// Final evaluation of each input polynomial at the bound point.
    pub final_evals: Vec<F>,
}

impl<F: Field> ProverOutput<F> {
    /// The evaluation point `(x_1, ..., x_n)` the final claims refer to.
    pub fn point(&self) -> Vec<F> {
        self.rs.iter().rev().copied().collect()
    }
}

/// The two halves of a table: entries with the top variable at 0 and at 1.
fn halves<F: Field>(p: &MultilinearPoly<F>) -> (&[F], &[F]) {
    p.evals().split_at(p.evals().len() / 2)
}

/// `t(2), t(3)` of the line through `t(0) = t0`, `t(1) = t1`, by adding the
/// slope twice — no multiply.
fn extend<F: Field>(t0: F, t1: F) -> (F, F) {
    let t2 = t1 + (t1 - t0);
    (t2, t2 + (t1 - t0))
}

/// The round loop shared by the provers below. `evals(tables, direct)`
/// returns the round polynomial at `X = 0..=degree`; its slot 1 is used
/// only when `direct`, which is round 1. From round 2 on the claim
/// `g_prev(r)` is known and `g(1) = claim − g(0)`: that is an identity of
/// the polynomials (both sides sum the same partially bound table), so the
/// rounds equal a direct evaluation's whatever the tables sum to.
fn prove_rounds<F: Field, const T: usize>(
    mut tables: [MultilinearPoly<F>; T],
    degree: usize,
    transcript: &mut Transcript,
    evals: impl Fn(&[MultilinearPoly<F>; T], bool) -> Vec<F>,
) -> ProverOutput<F> {
    let n = tables[0].num_vars();
    assert!(
        tables.iter().all(|t| t.num_vars() == n),
        "variable count mismatch"
    );
    let denoms = LagrangeDenoms::new(degree);
    let mut rounds = Vec::with_capacity(n);
    let mut rs = Vec::with_capacity(n);
    let mut claim = None;
    for _ in 0..n {
        let mut round = evals(&tables, claim.is_none());
        if let Some(claim) = claim {
            round[1] = claim - round[0];
        }
        let r = prover_round_challenge(&round, transcript);
        claim = Some(denoms.interpolate_at(&round, r));
        for t in &mut tables {
            t.fix_top_variable(r);
        }
        rounds.push(round);
        rs.push(r);
    }
    ProverOutput {
        proof: SumcheckProof { rounds },
        rs,
        final_evals: tables.iter().map(|t| t.evals()[0]).collect(),
    }
}

/// Proves `H = Σ_b p(b)` for a single multilinear polynomial (degree-1
/// rounds). Equivalent to Algorithm 1 with transcript-derived randomness.
pub fn prove_linear<F: Field>(
    poly: MultilinearPoly<F>,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    prove_rounds([poly], 1, transcript, |[p], direct| {
        let (lo, hi) = halves(p);
        let g1 = if direct {
            hi.iter().copied().sum()
        } else {
            F::ZERO
        };
        vec![lo.iter().copied().sum(), g1]
    })
}

/// Proves `H = Σ_b f(b)·g(b)` (degree-2 rounds, evaluations at X ∈ {0,1,2}).
///
/// # Panics
///
/// Panics if the polynomials have different variable counts.
pub fn prove_quadratic<F: Field>(
    f: MultilinearPoly<F>,
    g: MultilinearPoly<F>,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    prove_rounds([f, g], 2, transcript, |[f, g], direct| {
        let ((f0, f1), (g0, g1)) = (halves(f), halves(g));
        let mut e = [F::ZERO; 3];
        for b in 0..f0.len() {
            e[0] += f0[b] * g0[b];
            if direct {
                e[1] += f1[b] * g1[b];
            }
            e[2] += extend(f0[b], f1[b]).0 * extend(g0[b], g1[b]).0;
        }
        e.into()
    })
}

/// Proves `H = Σ_b eq(b)·(a(b)·c(b) - d(b))` — the Spartan outer sum-check
/// (degree-3 rounds, evaluations at X ∈ {0,1,2,3}).
///
/// The `final_evals` are `[eq, a, c, d]` at the bound point.
///
/// # Panics
///
/// Panics if the polynomials have different variable counts.
pub fn prove_cubic_eq<F: Field>(
    eq: MultilinearPoly<F>,
    a: MultilinearPoly<F>,
    c: MultilinearPoly<F>,
    d: MultilinearPoly<F>,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    prove_rounds([eq, a, c, d], 3, transcript, |[eq, a, c, d], direct| {
        let ((eq0, eq1), (a0, a1)) = (halves(eq), halves(a));
        let ((c0, c1), (d0, d1)) = (halves(c), halves(d));
        let mut e = [F::ZERO; 4];
        for b in 0..eq0.len() {
            e[0] += eq0[b] * (a0[b] * c0[b] - d0[b]);
            if direct {
                e[1] += eq1[b] * (a1[b] * c1[b] - d1[b]);
            }
            let ((eq2, eq3), (a2, a3)) = (extend(eq0[b], eq1[b]), extend(a0[b], a1[b]));
            let ((c2, c3), (d2, d3)) = (extend(c0[b], c1[b]), extend(d0[b], d1[b]));
            e[2] += eq2 * (a2 * c2 - d2);
            e[3] += eq3 * (a3 * c3 - d3);
        }
        e.into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{count_muls, Counted};
    use crate::poly::eq_table;
    use crate::rounds::verify_rounds;
    use batchzk_field::Fr;
    use batchzk_hash::Prg;

    fn rand_poly(n: usize, rng: &mut Prg) -> MultilinearPoly<Fr> {
        let [p] = rand_tables(n, rng);
        p
    }

    fn rand_tables<F: Field, const T: usize>(n: usize, rng: &mut Prg) -> [MultilinearPoly<F>; T] {
        core::array::from_fn(|_| {
            MultilinearPoly::new((0..1usize << n).map(|_| F::random(rng)).collect())
        })
    }

    /// The round loop these provers had before the additions-only rewrite,
    /// kept as the byte-identity oracle: every table evaluated at every `X`
    /// as `t0 + X·(t1 − t0)`, `g(1)` summed directly in every round, and
    /// its own index-based fold.
    fn oracle<const T: usize>(
        mut tables: [MultilinearPoly<Fr>; T],
        degree: usize,
        transcript: &mut Transcript,
        term: impl Fn([Fr; T]) -> Fr,
    ) -> ProverOutput<Fr> {
        let mut rounds = Vec::new();
        let mut rs = Vec::new();
        for _ in 0..tables[0].num_vars() {
            let half = tables[0].evals().len() / 2;
            let at = |t: &MultilinearPoly<Fr>, b: usize, x: Fr| {
                t.evals()[b] + x * (t.evals()[b + half] - t.evals()[b])
            };
            let round: Vec<Fr> = (0..=degree as u64)
                .map(|x| {
                    let terms =
                        (0..half).map(|b| term(tables.each_ref().map(|t| at(t, b, x.into()))));
                    terms.sum()
                })
                .collect();
            let r = prover_round_challenge(&round, transcript);
            tables =
                tables.map(|t| MultilinearPoly::new((0..half).map(|b| at(&t, b, r)).collect()));
            rounds.push(round);
            rs.push(r);
        }
        ProverOutput {
            proof: SumcheckProof { rounds },
            rs,
            final_evals: tables.iter().map(|t| t.evals()[0]).collect(),
        }
    }

    /// Asserts that a prover and the oracle produce the same output and
    /// leave their transcripts in the same state.
    fn assert_same(
        prove: impl FnOnce(&mut Transcript) -> ProverOutput<Fr>,
        oracle: impl FnOnce(&mut Transcript) -> ProverOutput<Fr>,
        case: &str,
    ) {
        let (mut pt, mut ot) = (Transcript::new(b"identity"), Transcript::new(b"identity"));
        let (got, want) = (prove(&mut pt), oracle(&mut ot));
        assert_eq!(got.proof, want.proof, "{case}: rounds");
        assert_eq!(got.rs, want.rs, "{case}: challenges");
        assert_eq!(got.final_evals, want.final_evals, "{case}: final evals");
        assert_eq!(
            pt.challenge_field::<Fr>(b"after"),
            ot.challenge_field::<Fr>(b"after"),
            "{case}: transcript state"
        );
    }

    #[test]
    fn provers_match_the_per_x_oracle() {
        let mut rng = Prg::seed_from_u64(0x1D);
        for n in 1..=10 {
            for rep in 0..3 {
                let case = format!("n={n} rep={rep}");
                // Random tables: the round-1 claim is a random non-zero sum.
                let [eq, a, c, d] = rand_tables::<Fr, 4>(n, &mut rng);
                assert_same(
                    |t| prove_linear(a.clone(), t),
                    |t| oracle([a.clone()], 1, t, |[p]| p),
                    &format!("linear {case}"),
                );
                assert_same(
                    |t| prove_quadratic(a.clone(), c.clone(), t),
                    |t| oracle([a.clone(), c.clone()], 2, t, |[f, g]| f * g),
                    &format!("quadratic {case}"),
                );
                let cubic = |[eq, a, c, d]: [Fr; 4]| eq * (a * c - d);
                assert_same(
                    |t| prove_cubic_eq(eq.clone(), a.clone(), c.clone(), d.clone(), t),
                    |t| oracle([eq.clone(), a.clone(), c.clone(), d.clone()], 3, t, cubic),
                    &format!("cubic {case}"),
                );
                // The satisfied shape Spartan proves: d = a∘c, claim zero.
                let ac = a.evals().iter().zip(c.evals()).map(|(x, y)| *x * *y);
                let ac = MultilinearPoly::new(ac.collect());
                assert_same(
                    |t| prove_cubic_eq(eq.clone(), a.clone(), c.clone(), ac.clone(), t),
                    |t| oracle([eq.clone(), a.clone(), c.clone(), ac.clone()], 3, t, cubic),
                    &format!("cubic zero-claim {case}"),
                );
            }
        }
    }

    /// Multiplies a prover spends outside its pair loops: building the
    /// Lagrange denominators once, interpolating the claim once per round.
    fn round_overhead(degree: usize, rounds: u64) -> u64 {
        let (denoms, setup) = count_muls(|| LagrangeDenoms::<Counted>::new(degree));
        let ys = vec![Counted::ONE; degree + 1];
        let (_, per_round) = count_muls(|| denoms.interpolate_at(&ys, Counted::ONE));
        setup + rounds * per_round
    }

    #[test]
    fn multiplies_per_pair_per_round_are_bounded() {
        // The regression gate for hosts where wall-clock cannot fire: per
        // pair and round, sum-check #1 spends 6 multiplies on g(0), g(2),
        // g(3) and 4 on the fold; sum-check #2 spends 2 and 2. Round 1
        // evaluates g(1) directly: 2 (resp. 1) more per pair. The linear
        // prover only folds.
        let mut rng = Prg::seed_from_u64(0x0C);
        let n = 9;
        let (pairs, first) = ((1u64 << n) - 1, 1u64 << (n - 1));
        let [eq, a, c, d] = rand_tables::<Counted, 4>(n, &mut rng);
        let mut t = Transcript::new(b"count");

        let (_, muls) = count_muls(|| prove_linear(a.clone(), &mut t));
        assert!(muls - round_overhead(1, n as u64) <= pairs, "linear {muls}");

        let (_, muls) = count_muls(|| prove_quadratic(a.clone(), c.clone(), &mut t));
        let in_loops = muls - round_overhead(2, n as u64);
        assert!(in_loops <= 4 * pairs + first, "quadratic {in_loops}");

        let (_, muls) = count_muls(|| prove_cubic_eq(eq, a, c, d, &mut t));
        let in_loops = muls - round_overhead(3, n as u64);
        assert!(in_loops <= 10 * pairs + 2 * first, "cubic {in_loops}");
    }

    #[test]
    fn linear_roundtrip() {
        let mut rng = Prg::seed_from_u64(1);
        for n in 1..=8 {
            let p = rand_poly(n, &mut rng);
            let h = p.hypercube_sum();
            let mut pt = Transcript::new(b"lin");
            let out = prove_linear(p.clone(), &mut pt);
            let mut vt = Transcript::new(b"lin");
            let (fc, rs) = verify_rounds(h, &out.proof, 1, &mut vt).expect("verifies");
            assert_eq!(rs, out.rs);
            assert_eq!(fc, out.final_evals[0]);
            assert_eq!(p.evaluate(&out.point()), fc, "n={n}");
        }
    }

    #[test]
    fn quadratic_roundtrip() {
        let mut rng = Prg::seed_from_u64(2);
        for n in 1..=7 {
            let f = rand_poly(n, &mut rng);
            let g = rand_poly(n, &mut rng);
            let h: Fr = f.evals().iter().zip(g.evals()).map(|(a, b)| *a * *b).sum();
            let mut pt = Transcript::new(b"quad");
            let out = prove_quadratic(f.clone(), g.clone(), &mut pt);
            let mut vt = Transcript::new(b"quad");
            let (fc, _) = verify_rounds(h, &out.proof, 2, &mut vt).expect("verifies");
            assert_eq!(fc, out.final_evals[0] * out.final_evals[1]);
            let point = out.point();
            assert_eq!(f.evaluate(&point), out.final_evals[0]);
            assert_eq!(g.evaluate(&point), out.final_evals[1]);
        }
    }

    #[test]
    fn cubic_eq_roundtrip() {
        let mut rng = Prg::seed_from_u64(3);
        let n = 5;
        let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let eq = MultilinearPoly::new(eq_table(&tau));
        let a = rand_poly(n, &mut rng);
        let c = rand_poly(n, &mut rng);
        let d = rand_poly(n, &mut rng);
        let h: Fr = (0..1usize << n)
            .map(|b| eq.evals()[b] * (a.evals()[b] * c.evals()[b] - d.evals()[b]))
            .sum();
        let mut pt = Transcript::new(b"cubic");
        let out = prove_cubic_eq(eq.clone(), a.clone(), c.clone(), d.clone(), &mut pt);
        let mut vt = Transcript::new(b"cubic");
        let (fc, _) = verify_rounds(h, &out.proof, 3, &mut vt).expect("verifies");
        let [eqv, av, cv, dv]: [Fr; 4] = out.final_evals.clone().try_into().unwrap();
        assert_eq!(fc, eqv * (av * cv - dv));
        let point = out.point();
        assert_eq!(eq.evaluate(&point), eqv);
        assert_eq!(a.evaluate(&point), av);
    }

    #[test]
    fn cubic_eq_zero_claim_when_satisfied() {
        // If d == a∘c pointwise, the claim is zero regardless of eq.
        let mut rng = Prg::seed_from_u64(4);
        let n = 4;
        let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let eq = MultilinearPoly::new(eq_table(&tau));
        let a = rand_poly(n, &mut rng);
        let c = rand_poly(n, &mut rng);
        let d = MultilinearPoly::new(
            a.evals()
                .iter()
                .zip(c.evals())
                .map(|(x, y)| *x * *y)
                .collect(),
        );
        let mut pt = Transcript::new(b"sat");
        let out = prove_cubic_eq(eq.clone(), a.clone(), c.clone(), d.clone(), &mut pt);
        let mut vt = Transcript::new(b"sat");
        assert!(verify_rounds(Fr::ZERO, &out.proof, 3, &mut vt).is_some());
    }

    #[test]
    fn wrong_claim_rejected() {
        let mut rng = Prg::seed_from_u64(5);
        let f = rand_poly(4, &mut rng);
        let g = rand_poly(4, &mut rng);
        let h: Fr = f.evals().iter().zip(g.evals()).map(|(a, b)| *a * *b).sum();
        let mut pt = Transcript::new(b"neg");
        let out = prove_quadratic(f.clone(), g.clone(), &mut pt);
        let mut vt = Transcript::new(b"neg");
        assert!(verify_rounds(h + Fr::ONE, &out.proof, 2, &mut vt).is_none());
    }

    #[test]
    fn transcript_domain_binds_proof() {
        // Verifying under a different domain must fail the final oracle
        // check (challenges diverge).
        let mut rng = Prg::seed_from_u64(6);
        let p = rand_poly(5, &mut rng);
        let h = p.hypercube_sum();
        let mut pt = Transcript::new(b"domain-a");
        let out = prove_linear(p.clone(), &mut pt);
        let mut vt = Transcript::new(b"domain-b");
        if let Some((fc, rs)) = verify_rounds(h, &out.proof, 1, &mut vt) {
            let point: Vec<Fr> = rs.iter().rev().copied().collect();
            assert_ne!(p.evaluate(&point), fc);
        }
    }
}
