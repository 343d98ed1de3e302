//! Fiat–Shamir sum-check provers for the polynomial shapes the SNARK needs:
//! plain multilinear (degree 1), products of two multilinears (degree 2),
//! and the Spartan core `eq·(a·b - c)` (degree 3) — each its tables and an
//! optional `eq` point handed to the one round loop, [`prove_rounds`].

use batchzk_field::Field;
use batchzk_hash::Transcript;

use crate::poly::{eq_prefix_tables, MultilinearPoly};
use crate::rounds::{prover_round_challenge, SumcheckProof};

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

/// The round loop behind [`prove_linear`] and [`prove_cubic`], folding each
/// of its `T` tables (`2^n` entries each) in place.
///
/// It sums `Σ_b w(b)·p(t_1(b), …, t_T(b))`: `p = t_1` for one table (degree
/// 1), `p = x·y − z` for three (degree 2), the shape
/// [`Field::product_round_sums`] sums; the weight `w = eq(τ, ·)` when `eq`
/// holds `τ` (with the `max(2, 2^n)` entries its prefix levels are built
/// into), else 1.
///
/// A round's polynomial is `g(X) = L(X)·s(X)`: `s(X) = Σ_b w(b)·p(X, b)`
/// sums the pairs under the `eq` weights of the variables still free, and
/// the linear `L` is the `eq` factor `l` of the variable being bound times
/// that of the variables already bound (`L ≡ 1` without an `eq`). The loop
/// sums only `s(0)` and the leading coefficient `s(∞)`. `s(1)` follows from
/// the previous round: `s_prev(r) = l(0)·s(0) + l(1)·s(1)` as polynomials,
/// both sides summing the same partially bound tables — except in round 1
/// and where `l(1) = τ_j` is zero, which sum `s(1)` directly. `s(2), s(3)`
/// extend by differences (the second difference is `2·s(∞)`) and
/// `g(k) = L(k)·s(k)`. Every step is exact arithmetic on canonical
/// elements, so the rounds are the bytes a per-`X` evaluation of the full
/// product gives, whatever the tables sum to.
fn prove_rounds<F: Field, const T: usize>(
    eq: Option<(&[F], &mut [F])>,
    mut tables: [&mut [F]; T],
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    let len = tables[0].len();
    let same_vars = len.is_power_of_two() && tables.iter().all(|t| t.len() == len);
    assert!(same_vars, "variable count mismatch");
    let n = len.trailing_zeros() as usize;
    // With an `eq` factor: 1/τ_j (zero where τ_j is) and the weight tables.
    let eq = eq.map(|(tau, levels)| {
        assert_eq!(tau.len(), n, "variable count mismatch");
        let mut inverses = tau.to_vec();
        F::batch_invert(&mut inverses);
        eq_prefix_tables(tau, levels);
        (tau, inverses, &*levels)
    });
    // `p` is of degree 1 in one table's values, 2 in a product's.
    let degree = T.min(2) + usize::from(eq.is_some());
    let mut rounds = Vec::with_capacity(n);
    let mut rs = Vec::with_capacity(n);
    // `s_prev(r)`, once a round has been sent.
    let mut claim = None;
    // The `eq` factor of the variables bound so far.
    let mut bound = F::ONE;
    for var in (0..n).rev() {
        let half = 1usize << var;
        let (l0, l1, l1_inv, weights) = match &eq {
            Some((tau, inv, levels)) => {
                let weights = &levels[half..2 * half];
                (F::ONE - tau[var], tau[var], inv[var], Some(weights))
            }
            None => (F::ONE, F::ONE, F::ONE, None),
        };
        let known = claim.filter(|_| !l1_inv.is_zero());
        let direct = known.is_none();
        let halves = tables.each_ref().map(|t| {
            let (lo, hi) = t[..2 * half].split_at(half);
            [lo, hi]
        });
        let [s0, summed, top] = match halves.as_slice() {
            [[lo, hi]] => {
                let sum = |h: &[F]| h.iter().copied().sum();
                [sum(lo), if direct { sum(hi) } else { F::ZERO }, F::ZERO]
            }
            [x, y, z] => F::product_round_sums(*x, *y, Some(*z), weights, direct),
            _ => unreachable!("the provers pass one or three tables"),
        };
        let s1 = known.map_or(summed, |claim| (claim - l0 * s0) * l1_inv);

        let mut round = vec![s0, s1];
        let (mut diff, second) = (s1 - s0, top.double());
        for k in 2..=degree {
            diff += second;
            round.push(round[k - 1] + diff);
        }
        let (mut l, step) = (bound * l0, bound * (l1 - l0));
        for g in &mut round {
            *g *= l;
            l += step;
        }
        let r = prover_round_challenge(&round, transcript);
        claim = Some(next_claim([s0, s1, top], r));
        bound *= l0 + r * (l1 - l0);
        for t in &mut tables {
            let (lo, hi) = t[..2 * half].split_at_mut(half);
            F::fold_halves(lo, hi, r);
        }
        rounds.push(round);
        rs.push(r);
    }
    ProverOutput {
        proof: SumcheckProof { rounds },
        rs,
        final_evals: tables.iter().map(|t| t[0]).collect(),
    }
}

/// `s(r)` from `[s(0), s(1), s(∞)]`: the claim the next round's sums meet.
fn next_claim<F: Field>([s0, s1, top]: [F; 3], r: F) -> F {
    s0 + r * (s1 - s0 + top * (r - F::ONE))
}

/// Proves `H = Σ_b p(b)` for a single multilinear polynomial (degree-1
/// rounds). Equivalent to Algorithm 1 with transcript-derived randomness.
pub fn prove_linear<F: Field>(
    poly: MultilinearPoly<F>,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    prove_rounds(None, [&mut poly.into_evals()], transcript)
}

/// Proves `H = Σ_b f(b)·g(b)` (degree-2 rounds, evaluations at X ∈ {0,1,2}),
/// as [`prove_quadratic_halves`] over the tables' halves: the full-table
/// form the tests check the live-prefix prover against.
///
/// # Panics
///
/// Panics if the polynomials have different variable counts or none.
#[cfg(test)]
pub(crate) fn prove_quadratic<F: Field>(
    f: MultilinearPoly<F>,
    g: MultilinearPoly<F>,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    let num_vars = f.num_vars();
    let [mut f, mut g] = [f, g].map(MultilinearPoly::into_evals);
    let half = f.len() / 2;
    let [f, g] = [&mut f, &mut g].map(|t| t.split_at_mut(half).into());
    prove_quadratic_halves(num_vars, f, g, transcript)
}

/// Proves `H = Σ_b f(b)·g(b)` (degree-2 rounds, evaluations at
/// X ∈ {0,1,2}) over `f` and `g` on `num_vars` variables, each given as the
/// live prefixes `[lo, hi]` of its two halves on the top variable `x_n`:
/// every entry past a prefix is zero, and `f`'s prefixes are as long as
/// `g`'s. The output is byte for byte the full-table prover's over the
/// zero-padded tables (the tests check it against that prover).
///
/// Each round sums and folds only the live pairs: where both halves are
/// live through [`Field::product_round_sums`], where one is through a
/// [`Field::dot`] (with the other half zero, `s(∞)` is that side's product
/// sum) and a [`Field::scale`] fold. Each table folds in place into its
/// longer half, whose `max(|lo|, |hi|)` entries are then the live prefix of
/// the next round's table, split at that round's half. So a prefix longer
/// than the lower half keeps the two-part shape for one more round (the
/// witness window of Spartan's sum-check #2 just past a quarter of `z`), and
/// from the round whose lower half it fills on, every pair is live.
///
/// # Panics
///
/// Panics if `num_vars` is zero, the prefixes of `f` and `g` differ in
/// length, or one is longer than `2^(num_vars − 1)`.
pub fn prove_quadratic_halves<F: Field>(
    num_vars: usize,
    f: [&mut [F]; 2],
    g: [&mut [F]; 2],
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    assert!(num_vars > 0, "no variable to bind");
    let lens = f.each_ref().map(|h| h.len());
    assert!(
        g.each_ref().map(|h| h.len()) == lens && lens[0].max(lens[1]) <= 1 << (num_vars - 1),
        "halves' live prefixes disagree or overflow"
    );
    let (mut f, mut g) = (f, g);
    let mut rounds = Vec::with_capacity(num_vars);
    let mut rs = Vec::with_capacity(num_vars);
    let mut claim = None;
    for var in (0..num_vars).rev() {
        let [lo, hi] = f.each_ref().map(|h| h.len());
        let (both, long) = (lo.min(hi), usize::from(hi > lo));
        let [mut s0, mut s1, mut top] = F::product_round_sums(
            f.each_ref().map(|h| &h[..both]),
            g.each_ref().map(|h| &h[..both]),
            None,
            None,
            claim.is_none(),
        );
        // Past the shorter half, the longer one's products: `s(0)` or `s(1)`.
        let tail = F::dot(&f[long][both..], &g[long][both..]);
        *[&mut s0, &mut s1][long] += tail;
        top += tail;
        // Degree 2 with no `eq` factor: `s(1) = claim − s(0)` after round 1,
        // `g(2) = 2·s(1) − s(0) + 2·s(∞)`.
        s1 = claim.map_or(s1, |claim| claim - s0);
        let round = vec![s0, s1, s1 + (s1 - s0) + top.double()];
        let r = prover_round_challenge(&round, transcript);
        claim = Some(next_claim([s0, s1, top], r));
        rounds.push(round);
        rs.push(r);
        // `(1 − r)·lo + r·hi`, written over the longer half; past the
        // shorter one, the longer half's entries times its weight.
        let folded = [f, g].map(|[lo, hi]| {
            let (into, from, [w, tail_w]) = match long {
                0 => (lo, hi, [r, F::ONE - r]),
                _ => (hi, lo, [F::ONE - r, r]),
            };
            F::fold_halves(&mut into[..both], &from[..both], w);
            F::scale(&mut into[both..], tail_w);
            into
        });
        // The next round's halves; after the last round, `[[], table]`.
        [f, g] = folded.map(|t| t.split_at_mut(t.len().min((1 << var) / 2)).into());
    }
    let final_evals = [f, g].map(|[_, t]| t.first().copied().unwrap_or(F::ZERO));
    ProverOutput {
        proof: SumcheckProof { rounds },
        rs,
        final_evals: final_evals.to_vec(),
    }
}

/// Proves `H = Σ_b eq(τ, b)·(a(b)·c(b) - d(b))` — the Spartan outer
/// sum-check (degree-3 rounds, evaluations at X ∈ {0,1,2,3}) — from `τ`
/// itself: no `eq` table is folded or ever built in full. The tables
/// `[a, c, d]` are folded in place, and `levels` (`max(2, 2^n)` entries,
/// their prior contents unread) receives the `eq` weights of every round.
///
/// The `final_evals` are `[a, c, d]` at the bound point.
///
/// # Panics
///
/// Panics if the tables' lengths are not `2^tau.len()` or `levels` is not
/// `max(2, 2^tau.len())` entries.
pub fn prove_cubic<F: Field>(
    tau: &[F],
    tables: [&mut [F]; 3],
    levels: &mut [F],
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    prove_rounds(Some((tau, levels)), tables, transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{count_muls, Counted};
    use crate::poly::{eq_eval, eq_table};
    use crate::rounds::verify_rounds;
    use batchzk_field::limb::sub_wide;
    use batchzk_field::{Fr, MontLimbs};
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

    /// [`prove_cubic`] over copies of the tables.
    fn cubic<F: Field>(
        tau: &[F],
        tables: [&MultilinearPoly<F>; 3],
        transcript: &mut Transcript,
    ) -> ProverOutput<F> {
        let mut tables = tables.map(|t| t.evals().to_vec());
        let mut levels = vec![F::ZERO; tables[0].len().max(2)];
        prove_cubic(
            tau,
            tables.each_mut().map(|t| &mut t[..]),
            &mut levels,
            transcript,
        )
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

    /// The oracle run of the cubic shape over an explicit `eq` table, whose
    /// final evaluation [`prove_cubic`] has no table to report.
    fn cubic_oracle(
        tau: &[Fr],
        [a, c, d]: [&MultilinearPoly<Fr>; 3],
        transcript: &mut Transcript,
    ) -> ProverOutput<Fr> {
        let eq = MultilinearPoly::new(eq_table(tau));
        let tables = [eq, a.clone(), c.clone(), d.clone()];
        let term = |[eq, a, c, d]: [Fr; 4]| eq * (a * c - d);
        let mut out = oracle(tables, 3, transcript, term);
        assert_eq!(out.final_evals.remove(0), eq_eval(tau, &out.point()));
        out
    }

    #[test]
    fn provers_match_the_per_x_oracle() {
        let mut rng = Prg::seed_from_u64(0x1D);
        for n in 1..=10 {
            for rep in 0..3 {
                let case = format!("n={n} rep={rep}");
                // Random tables: the round-1 claim is a random non-zero sum.
                let [a, c, d] = rand_tables::<Fr, 3>(n, &mut rng);
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
                // The satisfied shape Spartan proves: d = a∘c, claim zero.
                let ac = a.evals().iter().zip(c.evals()).map(|(x, y)| *x * *y);
                let ac = MultilinearPoly::new(ac.collect());
                // τ random, then with coordinates 0 and 1 mixed in: a zero
                // coordinate leaves no inverse to derive s(1) with (that
                // round sums it directly), a one makes l(0) zero.
                let random: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
                let mixed = random
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| match (i + rep) % 3 {
                        0 => Fr::ZERO,
                        1 => Fr::ONE,
                        _ => t,
                    });
                let bits = (0..n).map(|i| Fr::from(((i + rep) % 2) as u64));
                for (shape, tau) in [
                    ("random", random.clone()),
                    ("mixed", mixed.collect()),
                    ("bits", bits.collect()),
                ] {
                    for (claim, d) in [("non-zero", &d), ("zero", &ac)] {
                        assert_same(
                            |t| cubic(&tau, [&a, &c, d], t),
                            |t| cubic_oracle(&tau, [&a, &c, d], t),
                            &format!("cubic τ {shape}, {claim} claim, {case}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn live_halves_prove_the_padded_bytes() {
        use batchzk_field::RngCore;
        let mut rng = Prg::seed_from_u64(0x36);
        for n in 1..=8usize {
            let half = 1usize << (n - 1);
            let ends = [0, 1, half / 2 + 1, half];
            let random = (0..4).map(|_| rng.next_u64() as usize % (half + 1));
            let lens: Vec<usize> = ends.into_iter().chain(random).collect();
            for (i, &lo) in lens.iter().enumerate() {
                let hi = lens[(i * 3 + 1) % lens.len()];
                let [f, g] = [(); 2].map(|()| {
                    let mut table = vec![Fr::ZERO; 2 * half];
                    for b in (0..lo).chain(half..half + hi) {
                        table[b] = Fr::random(&mut rng);
                    }
                    table
                });
                let [mut fh, mut gh] =
                    [&f, &g].map(|t| [&t[..lo], &t[half..half + hi]].map(<[Fr]>::to_vec));
                let [fh, gh] = [&mut fh, &mut gh].map(|h| h.each_mut().map(|h| &mut h[..]));
                assert_same(
                    |t| prove_quadratic_halves(n, fh, gh, t),
                    |t| {
                        prove_quadratic(
                            MultilinearPoly::new(f.clone()),
                            MultilinearPoly::new(g.clone()),
                            t,
                        )
                    },
                    &format!("n={n} lo={lo} hi={hi}"),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagree or overflow")]
    fn live_halves_of_unequal_length_panic() {
        let (mut f, mut g) = ([Fr::ONE; 4], [Fr::ONE; 4]);
        let (f_lo, f_hi) = f.split_at_mut(2);
        let (g_lo, g_hi) = g.split_at_mut(2);
        let f = [f_lo, &mut f_hi[..1]];
        let _ = prove_quadratic_halves(2, f, [g_lo, g_hi], &mut Transcript::new(b"x"));
    }

    /// The portable bodies end to end. `Counted` is not a `declare_field!`
    /// type, so its `fold_halves`, `scale` and `product_round_sums` are
    /// always the default bodies, while `Fr` runs whatever this host
    /// dispatches to: the same tables proved as both must give the same
    /// rounds, challenges, final evaluations and transcript state, and the
    /// same `eq` tables and evaluations.
    #[test]
    fn portable_bodies_prove_the_dispatched_bytes() {
        fn wrap(v: &[Fr]) -> Vec<Counted> {
            v.iter().map(|&x| Counted(x)).collect()
        }
        fn unwrap(v: &[Counted]) -> Vec<Fr> {
            v.iter().map(|x| x.0).collect()
        }
        fn same<const T: usize>(
            tables: [MultilinearPoly<Fr>; T],
            prove: impl Fn(&mut Transcript, [MultilinearPoly<Fr>; T]) -> ProverOutput<Fr>,
            prove_counted: impl Fn(
                &mut Transcript,
                [MultilinearPoly<Counted>; T],
            ) -> ProverOutput<Counted>,
            case: &str,
        ) {
            let (mut ft, mut ct) = (Transcript::new(b"portable"), Transcript::new(b"portable"));
            let counted = tables
                .each_ref()
                .map(|t| MultilinearPoly::new(wrap(t.evals())));
            let portable = prove_counted(&mut ct, counted);
            let dispatched = prove(&mut ft, tables);
            let rounds: Vec<Vec<Fr>> = portable.proof.rounds.iter().map(|r| unwrap(r)).collect();
            assert_eq!(rounds, dispatched.proof.rounds, "{case}: rounds");
            assert_eq!(unwrap(&portable.rs), dispatched.rs, "{case}: challenges");
            assert_eq!(
                unwrap(&portable.final_evals),
                dispatched.final_evals,
                "{case}: final evals"
            );
            assert_eq!(
                ct.challenge_field::<Fr>(b"after"),
                ft.challenge_field::<Fr>(b"after"),
                "{case}: transcript state"
            );
        }
        let mut rng = Prg::seed_from_u64(0x27);
        for n in 1..=12 {
            let [a, c, d] = rand_tables::<Fr, 3>(n, &mut rng);
            same(
                [a.clone()],
                |t, [p]| prove_linear(p, t),
                |t, [p]| prove_linear(p, t),
                &format!("linear n={n}"),
            );
            same(
                [a.clone(), c.clone()],
                |t, [f, g]| prove_quadratic(f, g, t),
                |t, [f, g]| prove_quadratic(f, g, t),
                &format!("quadratic n={n}"),
            );
            let random: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let mixed = random
                .iter()
                .enumerate()
                .map(|(i, &t)| [Fr::ZERO, Fr::ONE, t][i % 3]);
            let bits = (0..n).map(|i| Fr::from((i % 2) as u64));
            for (shape, tau) in [
                ("random", random.clone()),
                ("mixed", mixed.collect()),
                ("bits", bits.collect()),
            ] {
                let tau_counted = wrap(&tau);
                same(
                    [a.clone(), c.clone(), d.clone()],
                    |t, [a, c, d]| cubic(&tau, [&a, &c, &d], t),
                    |t, [a, c, d]| cubic(&tau_counted, [&a, &c, &d], t),
                    &format!("cubic τ {shape} n={n}"),
                );
                let case = format!("τ {shape} n={n}");
                assert_eq!(unwrap(&eq_table(&tau_counted)), eq_table(&tau), "eq {case}");
                let a_counted = MultilinearPoly::new(wrap(a.evals()));
                let value = a_counted.evaluate(&tau_counted).0;
                assert_eq!(value, a.evaluate(&tau), "evaluate {case}");
            }
            // Random tables stay far from the kernel's reduction bounds.
            // All Montgomery limbs p − 1 come near them in every round (such
            // a table folds to itself); p − 1 over zero gives round 1 the
            // largest slopes.
            // τ is zero at a middle coordinate, so a round after the first
            // sums s(1) directly.
            let top = Fr::from_mont_limbs_unchecked(sub_wide(&Fr::P, &[1, 0, 0, 0]).0);
            let half = 1 << (n - 1);
            let mut tau = random;
            tau[n / 2] = Fr::ZERO;
            let tau_counted = wrap(&tau);
            for (shape, table) in [
                ("p-1", vec![top; 2 * half]),
                (
                    "p-1 | zero",
                    [vec![top; half], vec![Fr::ZERO; half]].concat(),
                ),
            ] {
                let t = MultilinearPoly::new(table);
                same(
                    [t.clone(), t.clone()],
                    |tr, [f, g]| prove_quadratic(f, g, tr),
                    |tr, [f, g]| prove_quadratic(f, g, tr),
                    &format!("quadratic {shape} n={n}"),
                );
                same(
                    [t.clone(), t.clone(), t],
                    |tr, [a, c, d]| cubic(&tau, [&a, &c, &d], tr),
                    |tr, [a, c, d]| cubic(&tau_counted, [&a, &c, &d], tr),
                    &format!("cubic {shape}, τ zero at {} n={n}", n / 2),
                );
            }
        }
    }

    #[test]
    fn multiplies_per_pair_per_round_are_bounded() {
        // The regression gate for hosts where wall-clock cannot fire. Per
        // pair and round, full multiplies / deferred products: sum-check #1
        // spends 2 / 2 on s(0), s(∞) and 3 / 0 on the fold; sum-check #2
        // 0 / 2 and 2 / 0; the linear prover (which adds) 0 / 0 and 1 / 0.
        // Round 1 sums s(1) directly: 1 / 1 (resp. 0 / 1) more per pair
        // (`product_round_sums_scalar`, which `Counted` runs). Outside the pair
        // loops a round costs `ROUND` multiplies plus one per evaluation it
        // sends, and the `eq` factor one `batch_invert` of τ plus its prefix
        // tables (under m/2).
        const ROUND: u64 = 8;
        let mut rng = Prg::seed_from_u64(0x0C);
        let n = 9u64;
        let (pairs, first) = ((1u64 << n) - 1, 1u64 << (n - 1));
        let [a, c, d] = rand_tables::<Counted, 3>(n as usize, &mut rng);
        let tau: Vec<Counted> = (0..n).map(|_| Counted::random(&mut rng)).collect();
        let mut t = Transcript::new(b"count");

        let (_, muls) = count_muls(|| prove_linear(a.clone(), &mut t));
        assert!(muls.full - n * (ROUND + 2) <= pairs, "linear {muls:?}");
        assert!(muls.deferred <= pairs + first, "linear {muls:?}");

        let (_, muls) = count_muls(|| prove_quadratic(a.clone(), c.clone(), &mut t));
        assert!(
            muls.full - n * (ROUND + 3) <= 2 * pairs,
            "quadratic {muls:?}"
        );
        assert!(muls.deferred <= 2 * pairs + first, "quadratic {muls:?}");

        let (_, invert) = count_muls(|| Counted::batch_invert(&mut tau.clone()));
        let (_, muls) = count_muls(|| cubic(&tau, [&a, &c, &d], &mut t));
        let in_loops = muls.full - n * (ROUND + 4) - invert.full;
        assert!(in_loops <= 5 * pairs + first + first, "cubic {muls:?}");
        assert!(muls.deferred <= 2 * pairs + first, "cubic {muls:?}");
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
        let out = cubic(&tau, [&a, &c, &d], &mut pt);
        let mut vt = Transcript::new(b"cubic");
        let (fc, _) = verify_rounds(h, &out.proof, 3, &mut vt).expect("verifies");
        let [av, cv, dv]: [Fr; 3] = out.final_evals.clone().try_into().unwrap();
        let point = out.point();
        assert_eq!(fc, eq.evaluate(&point) * (av * cv - dv));
        assert_eq!(a.evaluate(&point), av);
    }

    #[test]
    fn cubic_eq_zero_claim_when_satisfied() {
        // If d == a∘c pointwise, the claim is zero regardless of eq.
        let mut rng = Prg::seed_from_u64(4);
        let n = 4;
        let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
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
        let out = cubic(&tau, [&a, &c, &d], &mut pt);
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
