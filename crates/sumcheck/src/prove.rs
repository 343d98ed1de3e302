//! Fiat–Shamir sum-check provers for the polynomial shapes the SNARK needs:
//! products of two multilinears over the live prefixes of their halves
//! (degree 2, [`prove_quadratic_halves`]) and the Spartan core
//! `eq·(a·b - c)` from the point `τ` itself (degree 3, [`prove_cubic`]).

use batchzk_field::{Field, NARROW_BOUND};
use batchzk_hash::Transcript;

use crate::poly::eq_prefix_tables;
#[cfg(test)]
use crate::poly::MultilinearPoly;
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

/// `s(r)` from `[s(0), s(1), s(∞)]`: the claim the next round's sums meet.
fn next_claim<F: Field>([s0, s1, top]: [F; 3], r: F) -> F {
    s0 + r * (s1 - s0 + top * (r - F::ONE))
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
    prove_quadratic_halves(num_vars, f, g, None, transcript)
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
/// sum). Each table folds in place into its longer half, whose
/// `max(|lo|, |hi|)` entries are then the live prefix of the next round's
/// table, split at that round's half. So a prefix longer than the lower
/// half keeps the two-part shape for one more round (the witness window of
/// Spartan's sum-check #2 just past a quarter of `z`), and from the round
/// whose lower half it fills on, every pair is live.
///
/// Past the shorter half, the longer one's entries only take its weight
/// (`1 − r` or `r`). That scaling is deferred (`fold_round`): both
/// tables are held as one scalar factor times what is stored, such a round
/// multiplies the factor by the weight and leaves the tail as it is, and
/// its live pairs fold at coefficients divided by the weight. The sums a
/// round reads off the stored tables are multiplied by the factor squared
/// (one for each table), and the final evaluations by the factor. A zero
/// weight has no inverse: that round folds and scales eagerly.
///
/// `g_narrow`, when given, is `g`'s prefixes as integers (each `g` entry
/// is [`field_from_i64`](batchzk_field::field_from_i64) of its integer):
/// while a tail is still untouched storage, the round reads it there, as
/// field × integer products ([`Field::dot_small`]). So the first rounds of
/// Spartan's sum-check #2, whose tail is most of the witness, read the
/// narrow `z`.
///
/// # Panics
///
/// Panics if `num_vars` is zero, the prefixes of `f` and `g` (and
/// `g_narrow`) differ in length, or one is longer than `2^(num_vars − 1)`.
pub fn prove_quadratic_halves<F: Field>(
    num_vars: usize,
    f: [&mut [F]; 2],
    g: [&mut [F]; 2],
    g_narrow: Option<[&[i32]; 2]>,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    assert!(num_vars > 0, "no variable to bind");
    let lens = f.each_ref().map(|h| h.len());
    let narrow_lens = g_narrow.map_or(lens, |n| n.map(<[i32]>::len));
    assert!(
        g.each_ref().map(|h| h.len()) == lens
            && narrow_lens == lens
            && lens[0].max(lens[1]) <= 1 << (num_vars - 1),
        "halves' live prefixes disagree or overflow"
    );
    // `g`'s halves as integers, each standing for the stored entries from
    // its index in `fresh` on (before it, a fold has written).
    let mut narrow = g_narrow.map(|halves| (halves, [0; 2]));
    let mut tables = [f, g];
    let mut rounds = Vec::with_capacity(num_vars);
    let mut rs = Vec::with_capacity(num_vars);
    let mut claim = None;
    // Each table is `factor ×` its stored entries; `None` while that is 1.
    let mut factor = None;
    for var in (0..num_vars).rev() {
        let [f, g] = &tables;
        let [lo, hi] = f.each_ref().map(|h| h.len());
        let (both, long) = (lo.min(hi), usize::from(hi > lo));
        let mut sums = F::product_round_sums(
            f.each_ref().map(|h| &h[..both]),
            g.each_ref().map(|h| &h[..both]),
            None,
            None,
            claim.is_none(),
        );
        // Past the shorter half, the longer one's products: `s(0)` or `s(1)`.
        let tail = match narrow {
            Some((ints, fresh)) if fresh[long] <= both => {
                F::dot_small(&f[long][both..], &ints[long][both..])
            }
            _ => F::dot(&f[long][both..], &g[long][both..]),
        };
        sums[long] += tail;
        sums[2] += tail;
        if let Some(c) = factor {
            let c2 = c * c;
            sums = sums.map(|s| s * c2);
        }
        let [s0, s1, top] = sums;
        // Degree 2 with no `eq` factor: `s(1) = claim − s(0)` after round 1,
        // `g(2) = 2·s(1) − s(0) + 2·s(∞)`.
        let s1 = claim.map_or(s1, |claim| claim - s0);
        let round = vec![s0, s1, s1 + (s1 - s0) + top.double()];
        let r = prover_round_challenge(&round, transcript);
        claim = Some(next_claim([s0, s1, top], r));
        rounds.push(round);
        rs.push(r);
        let (folded, tail_kept) = fold_round(tables, r, &mut factor);
        // The next round's halves; after the last round, `[[], table]`.
        let split = |len: usize| len.min((1 << var) / 2);
        narrow = narrow.filter(|_| tail_kept).map(|(ints, fresh)| {
            let written = fresh[long].max(both);
            let (lo, hi) = ints[long].split_at(split(ints[long].len()));
            (
                [lo, hi],
                [written.min(lo.len()), written.saturating_sub(lo.len())],
            )
        });
        tables = folded.map(|t| t.split_at_mut(split(t.len())).into());
    }
    let final_evals = tables.map(|[_, t]| {
        let v = t.first().copied().unwrap_or(F::ZERO);
        factor.map_or(v, |c| c * v)
    });
    ProverOutput {
        proof: SumcheckProof { rounds },
        rs,
        final_evals: final_evals.to_vec(),
    }
}

/// One round's fold at `r` of the two tables of [`prove_quadratic_halves`],
/// given as their live halves, each into its longer half, which is
/// returned, beside whether the entries past the pairs were left as they
/// were: `(1 − r)·lo + r·hi` over the pairs, and past the shorter half, the
/// longer half's entries times their weight `w` (`1 − r` for `lo`, `r` for
/// `hi`).
///
/// Both tables stand for `factor ×` their entries (`None` for 1). Where the
/// longer half has entries past the shorter one and `w` is not zero, they
/// are left as they are and `factor` takes `w`; the pairs fold at their
/// coefficients divided by `w`, the longer half's `1` and the other's
/// `(1 − w)/w` ([`Field::combine`]). Otherwise the pairs fold
/// ([`Field::fold_halves`]) and the entries past them are scaled by `w`.
fn fold_round<'a, F: Field>(
    tables: [[&'a mut [F]; 2]; 2],
    r: F,
    factor: &mut Option<F>,
) -> ([&'a mut [F]; 2], bool) {
    let [lo, hi] = tables[0].each_ref().map(|h| h.len());
    let (both, long) = (lo.min(hi), usize::from(hi > lo));
    let [w_lo, w_hi] = [F::ONE - r, r];
    let (w, other) = if long == 0 {
        (w_lo, w_hi)
    } else {
        (w_hi, w_lo)
    };
    // A zero weight has no inverse, and folds eagerly.
    let divided = if lo == hi {
        None
    } else {
        w.inverse().map(|inv| other * inv)
    };
    if divided.is_some() {
        *factor = Some(factor.map_or(w, |c| c * w));
    }
    let folded = tables.map(|[lo, hi]| {
        let (into, from) = if long == 0 { (lo, hi) } else { (hi, lo) };
        match divided {
            Some(c) => F::combine(&mut into[..both], F::ONE, [(&from[..both], c)]),
            None => {
                F::fold_halves(&mut into[..both], &from[..both], other);
                F::scale(&mut into[both..], w);
            }
        }
        into
    });
    (folded, divided.is_some())
}

/// `Σ a[i]·k(i)` for integers `k(i)`: the integers are written a chunk at
/// a time into one buffer on the stack and summed against `a` by
/// [`Field::dot_small`].
fn dot_integers<F: Field>(a: &[F], k: impl Fn(usize) -> i64) -> F {
    const CHUNK: usize = 8192;
    let mut ints = [0i64; CHUNK];
    let chunks = a.chunks(CHUNK).enumerate().map(|(c, a)| {
        let ints = &mut ints[..a.len()];
        for (i, slot) in ints.iter_mut().enumerate() {
            *slot = k(c * CHUNK + i);
        }
        F::dot_small(a, ints)
    });
    chunks.sum()
}

/// Proves `H = Σ_b eq(τ, b)·(a(b)·c(b) - d(b))` — the Spartan outer
/// sum-check (degree-3 rounds, evaluations at X ∈ {0,1,2,3}) — from `τ`
/// itself: no `eq` table is folded or ever built in full. The tables
/// `[a, c, d]` are folded in place, and `levels` (`max(2, 2^n)` entries,
/// their prior contents unread) receives the `eq` weights of every round.
///
/// The `final_evals` are `[a, c, d]` at the bound point.
///
/// `narrow`, when given, is the tables as integers below
/// [`NARROW_BOUND`] in magnitude with `a·c = d` at every entry (a
/// satisfying assignment's products); `tables` are then not read, and
/// round 1 runs on the integers. There `s(0) = s(1) = 0` exactly, so
/// nothing is summed for them; `s(∞) = Σ w·Δa·Δc` is one field × integer
/// product a pair ([`Field::dot_small`]); and the fold writes each table's
/// lower half at field × integer cost ([`Field::fold_small`]). The rounds
/// are the bytes the field tables would give.
///
/// A round's polynomial is `g(X) = L(X)·s(X)`: `s(X) = Σ_b w(b)·(x·y −
/// z)(X, b)`, the shape [`Field::product_round_sums`] sums, weighs the
/// pairs with the `eq` weights `w` of the variables still free, and the
/// linear `L` is the `eq` factor `l` of the variable being bound times
/// that of the variables already bound. The loop sums only `s(0)` and the
/// leading coefficient `s(∞)`. `s(1)` follows from the previous round:
/// `s_prev(r) = l(0)·s(0) + l(1)·s(1)` as polynomials, both sides summing
/// the same partially bound tables — except in round 1 and where
/// `l(1) = τ_j` is zero, which sum `s(1)` directly. `s(2), s(3)` extend by
/// differences (the second difference is `2·s(∞)`) and `g(k) = L(k)·s(k)`.
/// Every step is exact arithmetic on canonical elements, so the rounds are
/// the bytes a per-`X` evaluation of the full product gives, whatever the
/// tables sum to.
///
/// # Panics
///
/// Panics if the tables' lengths (and `narrow`'s) are not `2^tau.len()`
/// or `levels` is not `max(2, 2^tau.len())` entries.
pub fn prove_cubic<F: Field>(
    tau: &[F],
    mut tables: [&mut [F]; 3],
    mut narrow: Option<[&[i32]; 3]>,
    levels: &mut [F],
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    let len = tables[0].len();
    let narrow_lens = narrow.is_none_or(|n| n.iter().all(|t| t.len() == len));
    let same_vars = len.is_power_of_two() && narrow_lens && tables.iter().all(|t| t.len() == len);
    assert!(same_vars, "variable count mismatch");
    debug_assert!(narrow.is_none_or(|[a, c, d]| (0..len).all(|b| {
        let bounded = [a[b], c[b], d[b]]
            .iter()
            .all(|v| v.unsigned_abs() < NARROW_BOUND as u32);
        bounded && i64::from(a[b]) * i64::from(c[b]) == i64::from(d[b])
    })));
    let n = len.trailing_zeros() as usize;
    assert_eq!(tau.len(), n, "variable count mismatch");
    // 1/τ_j (zero where τ_j is) and the weight tables.
    let mut inverses = tau.to_vec();
    F::batch_invert(&mut inverses);
    eq_prefix_tables(tau, levels);
    let mut rounds = Vec::with_capacity(n);
    let mut rs = Vec::with_capacity(n);
    // `s_prev(r)`, once a round has been sent.
    let mut claim = None;
    // The `eq` factor of the variables bound so far.
    let mut bound = F::ONE;
    for var in (0..n).rev() {
        let half = 1usize << var;
        let (l0, l1) = (F::ONE - tau[var], tau[var]);
        let weights = &levels[half..2 * half];
        let known = claim.filter(|_| !inverses[var].is_zero());
        let direct = known.is_none();
        let [s0, summed, top] = match narrow {
            // Round 1 only: every term of s(0) and s(1) is zero.
            Some([a, c, _]) => {
                let at = |t: &[i32], b: usize| i64::from(t[b + half]) - i64::from(t[b]);
                [
                    F::ZERO,
                    F::ZERO,
                    dot_integers(weights, |b| at(a, b) * at(c, b)),
                ]
            }
            None => {
                let [x, y, z] = tables.each_ref().map(|t| {
                    let (lo, hi) = t[..2 * half].split_at(half);
                    [lo, hi]
                });
                F::product_round_sums(x, y, Some(z), Some(weights), direct)
            }
        };
        let s1 = known.map_or(summed, |claim| (claim - l0 * s0) * inverses[var]);

        let mut round = vec![s0, s1];
        let (mut diff, second) = (s1 - s0, top.double());
        for k in 2..=3 {
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
        for (k, t) in tables.iter_mut().enumerate() {
            let (lo, hi) = t[..2 * half].split_at_mut(half);
            match narrow {
                Some(ints) => F::fold_small(lo, &ints[k][..half], &ints[k][half..], r),
                None => F::fold_halves(lo, hi, r),
            }
        }
        narrow = None;
        rounds.push(round);
        rs.push(r);
    }
    ProverOutput {
        proof: SumcheckProof { rounds },
        rs,
        final_evals: tables.iter().map(|t| t[0]).collect(),
    }
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
            None,
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
            let paired = (0..lens.len()).map(|i| (lens[i], lens[(i * 3 + 1) % lens.len()]));
            // Spartan's VGG shape: a short lower prefix (the io window) and an
            // upper one just past a quarter of the table (the witness), so
            // the first two rounds both have a tail whose scaling is deferred.
            let vgg = (1..=3).map(|k| (k.min(half / 4), (half / 2 + k).min(half)));
            for (lo, hi) in paired.chain(vgg) {
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
                    |t| prove_quadratic_halves(n, fh, gh, None, t),
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

    /// Where a tail's weight is zero (`r = 0` for a longer upper half,
    /// `r = 1` for a longer lower one) [`fold_round`] folds and scales
    /// eagerly and keeps the factor; at any other weight it defers. Either
    /// way the tables it stands for are the eager fold of the zero-padded
    /// tables the factor times its input stands for.
    #[test]
    fn zero_tail_weights_fold_eagerly() {
        let mut rng = Prg::seed_from_u64(0x45);
        let random = |rng: &mut Prg, n: usize| (0..n).map(|_| Fr::random(rng)).collect::<Vec<_>>();
        for (lo, hi) in [(5usize, 11usize), (11, 5), (0, 4), (4, 0), (3, 3)] {
            for (name, r) in [
                ("0", Fr::ZERO),
                ("1", Fr::ONE),
                ("random", Fr::random(&mut rng)),
            ] {
                let case = format!("lo {lo}, hi {hi}, r {name}");
                let c = Fr::random(&mut rng);
                let mut tables = [(); 2].map(|()| [random(&mut rng, lo), random(&mut rng, hi)]);
                let want = tables.each_ref().map(|[l, h]| {
                    let at = |t: &[Fr], i: usize| c * t.get(i).copied().unwrap_or(Fr::ZERO);
                    let fold = |i| (Fr::ONE - r) * at(l, i) + r * at(h, i);
                    (0..lo.max(hi)).map(fold).collect::<Vec<_>>()
                });
                let mut factor = Some(c);
                let halves = tables.each_mut().map(|t| t.each_mut().map(|h| &mut h[..]));
                let (got, tail_kept) = fold_round(halves, r, &mut factor);
                let scale = factor.expect("a factor");
                let got = got.map(|t| t.iter().map(|&v| scale * v).collect::<Vec<_>>());
                assert_eq!(got, want, "{case}");
                let w = if hi > lo { r } else { Fr::ONE - r };
                let deferred = lo != hi && !w.is_zero();
                assert_eq!(scale, if deferred { c * w } else { c }, "{case}: factor");
                assert_eq!(tail_kept, deferred, "{case}: tail kept");
            }
        }
    }

    /// Random narrow integers: mostly 0 and ±1, some up to 2^10 and some
    /// near the narrow bound.
    fn narrow_ints(rng: &mut Prg, len: usize, big: i64) -> Vec<i32> {
        use batchzk_field::RngCore;
        let mut draw = || rng.next_u64();
        (0..len)
            .map(|_| {
                let (kind, v) = (draw() % 8, draw() as i64);
                let bound = match kind {
                    0..=3 => 2,
                    4..=6 => 1 << 10,
                    _ => big,
                };
                (v.rem_euclid(2 * bound - 1) - (bound - 1)) as i32
            })
            .collect()
    }

    fn lift(ints: &[i32]) -> Vec<Fr> {
        ints.iter()
            .map(|&k| batchzk_field::field_from_i64(k.into()))
            .collect()
    }

    #[test]
    fn narrow_round_one_proves_the_field_bytes() {
        // Satisfying integer tables `d = a·c` (|a|, |c| < 2^15 so that
        // `d` is narrow), proved from the integers and from their field
        // images: the same rounds, challenges, claims and transcript.
        let mut rng = Prg::seed_from_u64(0x48);
        for n in 1..=9 {
            for rep in 0..3 {
                let len = 1usize << n;
                let a = narrow_ints(&mut rng, len, 1 << 15);
                let c = narrow_ints(&mut rng, len, 1 << 15);
                let d: Vec<i32> = a.iter().zip(&c).map(|(x, y)| x * y).collect();
                let random: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
                let mixed = random
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| match (i + rep) % 3 {
                        0 => Fr::ZERO,
                        1 => Fr::ONE,
                        _ => t,
                    });
                for (shape, tau) in [("random", random.clone()), ("mixed", mixed.collect())] {
                    let case = format!("n={n} rep={rep} τ {shape}");
                    let tables = [&a, &c, &d].map(|t| MultilinearPoly::new(lift(t)));
                    assert_same(
                        |t| {
                            // Storage whose contents the narrow round must not read.
                            let mut stored = [(); 3].map(|()| vec![-Fr::ONE; len]);
                            let mut levels = vec![Fr::ZERO; len.max(2)];
                            let tables = stored.each_mut().map(|t| &mut t[..]);
                            let ints = [&a[..], &c[..], &d[..]];
                            prove_cubic(&tau, tables, Some(ints), &mut levels, t)
                        },
                        |t| cubic(&tau, tables.each_ref(), t),
                        &case,
                    );
                }
            }
        }
    }

    #[test]
    fn narrow_tails_prove_the_field_bytes() {
        // `g` given with its integers: at the shapes of the live-prefix
        // test and Spartan's (a short lower prefix, an upper one past a
        // quarter), the bytes of the field prover without them.
        let mut rng = Prg::seed_from_u64(0x49);
        for n in 1..=9usize {
            let half = 1usize << (n - 1);
            let shapes = [(0, half), (half, 0), (1, half), (half / 2 + 1, half / 4)]
                .into_iter()
                .chain((1..=3).map(|k| (k.min(half / 4), (half / 2 + k).min(half))));
            for (lo, hi) in shapes {
                let f = [lo, hi].map(|l| (0..l).map(|_| Fr::random(&mut rng)).collect::<Vec<_>>());
                let g = [lo, hi].map(|l| narrow_ints(&mut rng, l, 1 << 29));
                let case = format!("n={n} lo={lo} hi={hi}");
                let prove = |ints: Option<[&[i32]; 2]>, t: &mut Transcript| {
                    let mut fh = f.clone();
                    let mut gh = g.each_ref().map(|h| lift(h));
                    let [fh, gh] = [&mut fh, &mut gh].map(|h| h.each_mut().map(|h| &mut h[..]));
                    prove_quadratic_halves(n, fh, gh, ints, t)
                };
                assert_same(
                    |t| prove(Some(g.each_ref().map(|h| &h[..])), t),
                    |t| prove(None, t),
                    &case,
                );
            }
        }
    }

    #[test]
    fn narrow_round_one_makes_no_full_product_per_pair() {
        // Against the field tables, round 1 spends per pair three full
        // multiplies and three deferred products on its sums (s(1) summed
        // directly) and three full multiplies on the fold; on the integers
        // none of those, and a small product per pair for s(∞) and per
        // entry folded.
        let mut rng = Prg::seed_from_u64(0x4A);
        let n = 9;
        let (len, half) = (1usize << n, 1u64 << (n - 1));
        let a = narrow_ints(&mut rng, len, 1 << 15);
        let c = narrow_ints(&mut rng, len, 1 << 15);
        let d: Vec<i32> = a.iter().zip(&c).map(|(x, y)| x * y).collect();
        let wrap = |t: &[i32]| lift(t).into_iter().map(Counted).collect::<Vec<_>>();
        let tau: Vec<Counted> = (0..n).map(|_| Counted::random(&mut rng)).collect();
        let run = |narrow: bool| {
            let mut tables = [&a, &c, &d].map(|t| wrap(t));
            let mut levels = vec![Counted::ZERO; len];
            let ints = [&a[..], &c[..], &d[..]];
            let mut t = Transcript::new(b"count");
            count_muls(|| {
                let tables = tables.each_mut().map(|t| &mut t[..]);
                prove_cubic(&tau, tables, narrow.then_some(ints), &mut levels, &mut t)
            })
        };
        let ((field, by_field), (narrow, by_narrow)) = (run(false), run(true));
        assert_eq!(narrow.proof, field.proof);
        assert_eq!(by_field.small, 0);
        assert_eq!(by_narrow.full, by_field.full - 6 * half, "{by_narrow:?}");
        assert_eq!(by_narrow.deferred, by_field.deferred - 3 * half);
        assert_eq!(by_narrow.small, half + 3 * half);
    }

    #[test]
    #[should_panic(expected = "disagree or overflow")]
    fn live_halves_of_unequal_length_panic() {
        let (mut f, mut g) = ([Fr::ONE; 4], [Fr::ONE; 4]);
        let (f_lo, f_hi) = f.split_at_mut(2);
        let (g_lo, g_hi) = g.split_at_mut(2);
        let f = [f_lo, &mut f_hi[..1]];
        let _ = prove_quadratic_halves(2, f, [g_lo, g_hi], None, &mut Transcript::new(b"x"));
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
        // 0 / 2 and 2 / 0. Round 1 sums s(1) directly: 1 / 1 (resp. 0 / 1)
        // more per pair
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
        let f = rand_poly(5, &mut rng);
        let g = rand_poly(5, &mut rng);
        let h: Fr = f.evals().iter().zip(g.evals()).map(|(a, b)| *a * *b).sum();
        let mut pt = Transcript::new(b"domain-a");
        let out = prove_quadratic(f.clone(), g.clone(), &mut pt);
        let mut vt = Transcript::new(b"domain-b");
        if let Some((fc, rs)) = verify_rounds(h, &out.proof, 2, &mut vt) {
            let point: Vec<Fr> = rs.iter().rev().copied().collect();
            assert_ne!(f.evaluate(&point) * g.evaluate(&point), fc);
        }
    }
}
