//! Multilinear polynomials represented by their evaluations over the Boolean
//! hypercube.

use batchzk_field::Field;

/// A multilinear polynomial `p(x_1, ..., x_n)` stored as its `2^n`
/// evaluations, indexed by `b = Σ b_i 2^{i-1}` (paper's Algorithm 1
/// convention: `x_1` is the least-significant bit, `x_n` the most
/// significant).
///
/// # Examples
///
/// ```
/// use batchzk_sumcheck::MultilinearPoly;
/// use batchzk_field::{Field, Fr};
///
/// // p(x1, x2) with p(0,0)=1, p(1,0)=2, p(0,1)=3, p(1,1)=4
/// let p = MultilinearPoly::new(vec![
///     Fr::from(1u64), Fr::from(2u64), Fr::from(3u64), Fr::from(4u64),
/// ]);
/// assert_eq!(p.evaluate(&[Fr::ZERO, Fr::ONE]), Fr::from(3u64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultilinearPoly<F> {
    evals: Vec<F>,
    num_vars: usize,
}

impl<F: Field> MultilinearPoly<F> {
    /// Wraps a table of `2^n` hypercube evaluations.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two (zero included).
    pub fn new(evals: Vec<F>) -> Self {
        assert!(
            evals.len().is_power_of_two(),
            "evaluation table length must be a power of two"
        );
        let num_vars = evals.len().trailing_zeros() as usize;
        Self { evals, num_vars }
    }

    /// The constant-zero polynomial on `n` variables.
    #[cfg(test)]
    fn zero(num_vars: usize) -> Self {
        Self {
            evals: vec![F::ZERO; 1 << num_vars],
            num_vars,
        }
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The evaluation table (length `2^n`).
    pub fn evals(&self) -> &[F] {
        &self.evals
    }

    /// The evaluation table, given up for a prover to fold in place.
    pub fn into_evals(self) -> Vec<F> {
        self.evals
    }

    /// Evaluates at an arbitrary point `(x_1, ..., x_n)`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.num_vars()`.
    pub fn evaluate(&self, point: &[F]) -> F {
        assert_eq!(point.len(), self.num_vars, "point dimension mismatch");
        let mut table = self.evals.clone();
        // Fold variables from the top (x_n) down, as the provers bind them.
        for &r in point.iter().rev() {
            let half = table.len() / 2;
            let (lo, hi) = table.split_at_mut(half);
            F::fold_halves(lo, hi, r);
            table.truncate(half);
        }
        table[0]
    }
}

/// Builds the `eq(tau, ·)` table: `out[b] = Π_i (tau_i b_i + (1-tau_i)(1-b_i))`.
///
/// This is the multilinear extension of the Kronecker delta at `tau`,
/// central to the Spartan-style sum-checks. One allocation, filled in place
/// ([`eq_table_prefix_into`]).
pub fn eq_table<F: Field>(tau: &[F]) -> Vec<F> {
    eq_table_prefix(tau, 1 << tau.len(), F::ONE)
}

/// The variables `tau[..k]`, `k = ⌈log₂ len⌉`, that a prefix of `len > 0`
/// entries of `c · eq_table(tau)` spans, and its first entry: below `len`
/// every later variable is zero, so `Π_{i ≥ k} (1 − tau_i)` joins `c`.
fn eq_start<F: Field>(tau: &[F], len: usize, c: F) -> (&[F], F) {
    assert!(
        len <= 1usize.checked_shl(tau.len() as u32).unwrap_or(usize::MAX),
        "eq prefix longer than its table"
    );
    let k = (len - 1).checked_ilog2().map_or(0, |b| b as usize + 1);
    (
        &tau[..k],
        c * tau[k..].iter().map(|&t| F::ONE - t).product::<F>(),
    )
}

/// `c · eq_table(tau)[..len]` in `O(len)` work, where the full table
/// costs `2^n` ([`eq_table_prefix_into`]).
///
/// This is how a verifier builds `eq` over just the rows or columns a
/// sparse matrix reads, with the table's constant (such as `1 − y_top` for
/// one half of a split point) folded in for free.
///
/// # Panics
///
/// Panics if `len > 2^tau.len()`.
pub fn eq_table_prefix<F: Field>(tau: &[F], len: usize, c: F) -> Vec<F> {
    let mut table = vec![F::ZERO; len];
    eq_table_prefix_into(tau, c, &mut table);
    table
}

/// [`eq_table_prefix`] of `out.len()` entries, written into `out`: how the
/// prover builds `eq(rx, ·)` over the rows in its arena, and the verifier
/// `eq(ry, ·)` over the live columns in reused storage. Nothing `out` held
/// is read, and nothing is allocated.
///
/// The table is a tensor product. Of the `k = ⌈log₂ len⌉` variables the
/// prefix spans, the low `max(⌈k/2⌉, k − 9)` give the first chunk, built
/// from its first entry (`eq_start`) by doubling ([`Field::eq_double`]);
/// chunk `j` is that chunk times `eq(τ_hi, j)` over the high variables, at
/// most nine: a copy and a [`Field::scale`], chunk 0 last. The weights
/// `eq(τ_hi, ·)` are doubled into a stack block of 512. That is one
/// pass of one multiply per entry over a table that may not fit in cache,
/// where doubling all the way makes `k` passes over it. A prefix of at
/// most 256 entries (`k ≤ 8`) is doubled alone: cut up, its chunks would
/// hold 2 to 16 entries, one `scale` call each, and cost up to twice the
/// doubling. Every entry is the same field value either way.
///
/// # Panics
///
/// Panics if `out.len() > 2^tau.len()`.
pub fn eq_table_prefix_into<F: Field>(tau: &[F], c: F, out: &mut [F]) {
    let len = out.len();
    if len == 0 {
        return;
    }
    let (vars, first) = eq_start(tau, len, c);
    if len <= 256 {
        return eq_double_from(vars, first, out);
    }
    let high = (vars.len() / 2).min(CHUNKS.trailing_zeros() as usize);
    let (low, high) = vars.split_at(vars.len() - high);
    let (head, rest) = out.split_at_mut(1 << low.len());
    eq_double_from(low, first, head);
    let mut weights = [F::ZERO; CHUNKS];
    let weights = &mut weights[..len.div_ceil(head.len())];
    eq_double_from(high, F::ONE, weights);
    for (chunk, &w) in rest.chunks_mut(head.len()).zip(&weights[1..]) {
        chunk.copy_from_slice(&head[..chunk.len()]);
        F::scale(chunk, w);
    }
    F::scale(head, weights[0]);
}

/// The most chunks [`eq_table_prefix_into`] cuts a table into: the size of
/// the stack block its chunk weights are doubled in.
const CHUNKS: usize = 512;

/// Writes `first · eq(vars, ·)` over `out` (at most `2^vars.len()`
/// entries) by doubling from `out[0] = first`: each variable in turn
/// ([`Field::eq_double`]), the last one only into the entries `out` holds.
fn eq_double_from<F: Field>(vars: &[F], first: F, out: &mut [F]) {
    let len = out.len();
    out[0] = first;
    let mut level = 1;
    for &t in vars {
        let (lo, hi) = out.split_at_mut(level);
        let hi = &mut hi[..(len - level).min(level)];
        F::eq_double(lo, hi, t);
        level += hi.len();
    }
}

/// Writes the `eq` tables of every proper prefix of `tau` into `levels`
/// (`max(2, 2^n)` entries): `levels[2^k..2^(k+1)]` is `eq_table(&tau[..k])`
/// for `k < n` (slot 0 is zero). Round `j` of a sum-check with an
/// `eq(tau, ·)` factor weighs its `2^(n-j)` pairs by level `n − j`, so the
/// levels are built once — `2^(n-1)` multiplies in all — and never folded.
/// Each level is split from the one before it where that one lies
/// ([`Field::eq_split`]), so no level is copied.
///
/// # Panics
///
/// Panics if `levels` does not hold `max(2, 2^n)` entries.
pub(crate) fn eq_prefix_tables<F: Field>(tau: &[F], levels: &mut [F]) {
    assert_eq!(levels.len(), (1 << tau.len()).max(2), "eq levels' length");
    levels[..2].copy_from_slice(&[F::ZERO, F::ONE]);
    let mut start = 2;
    for &t in &tau[..tau.len().saturating_sub(1)] {
        let (built, next) = levels.split_at_mut(start);
        let (lo, hi) = next[..start].split_at_mut(start / 2);
        F::eq_split(&built[start / 2..], lo, hi, t);
        start *= 2;
    }
}

/// Evaluates `eq(x, y)` for two arbitrary points of equal dimension.
///
/// # Panics
///
/// Panics if the points have different lengths.
pub fn eq_eval<F: Field>(x: &[F], y: &[F]) -> F {
    assert_eq!(x.len(), y.len(), "eq points must have equal dimension");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| a * b + (F::ONE - a) * (F::ONE - b))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;
    use batchzk_hash::Prg;

    fn rand_poly(n: usize, seed: u64) -> MultilinearPoly<Fr> {
        let mut rng = Prg::seed_from_u64(seed);
        MultilinearPoly::new((0..1usize << n).map(|_| Fr::random(&mut rng)).collect())
    }

    #[test]
    fn evaluate_agrees_on_hypercube() {
        let p = rand_poly(4, 1);
        for b in 0..16usize {
            let point: Vec<Fr> = (0..4).map(|i| Fr::from(((b >> i) & 1) as u64)).collect();
            assert_eq!(p.evaluate(&point), p.evals()[b], "b={b}");
        }
    }

    #[test]
    fn evaluate_is_multilinear_in_each_variable() {
        // p(.., x_i = r, ..) must be linear in r: check with three collinear
        // evaluations: p(2r) - 2p(r) + p(0)·... simpler: p at r and check
        // p(r) == (1-r)p(0) + r·p(1) along each axis.
        let p = rand_poly(3, 2);
        let mut rng = Prg::seed_from_u64(3);
        for axis in 0..3 {
            let mut base: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
            let r = Fr::random(&mut rng);
            base[axis] = Fr::ZERO;
            let p0 = p.evaluate(&base);
            base[axis] = Fr::ONE;
            let p1 = p.evaluate(&base);
            base[axis] = r;
            assert_eq!(p.evaluate(&base), (Fr::ONE - r) * p0 + r * p1);
        }
    }

    #[test]
    fn eq_table_is_delta_on_hypercube() {
        let tau = [Fr::ONE, Fr::ZERO, Fr::ONE]; // point (1, 0, 1) -> index 0b101 = 5
        let table = eq_table(&tau);
        for (b, &v) in table.iter().enumerate() {
            if b == 0b101 {
                assert_eq!(v, Fr::ONE);
            } else {
                assert_eq!(v, Fr::ZERO);
            }
        }
    }

    #[test]
    fn eq_table_matches_eq_eval() {
        let mut rng = Prg::seed_from_u64(6);
        let tau: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let table = eq_table(&tau);
        for (b, entry) in table.iter().enumerate().take(16) {
            let point: Vec<Fr> = (0..4).map(|i| Fr::from(((b >> i) & 1) as u64)).collect();
            assert_eq!(*entry, eq_eval(&tau, &point), "b={b}");
        }
    }

    #[test]
    fn eq_prefix_tables_hold_every_proper_prefix() {
        let mut rng = Prg::seed_from_u64(9);
        for n in 0..=6usize {
            let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            // Whatever the slice held is overwritten.
            let mut levels = vec![-Fr::ONE; (1usize << n).max(2)];
            eq_prefix_tables(&tau, &mut levels);
            assert_eq!(levels[0], Fr::ZERO, "n={n}");
            for k in 0..n.max(1) {
                assert_eq!(levels[1 << k..2 << k], eq_table(&tau[..k]), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn eq_table_prefix_is_a_scaled_slice_of_eq_table() {
        let mut rng = Prg::seed_from_u64(10);
        for n in 0..=6usize {
            let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let (full, c) = (eq_table(&tau), Fr::random(&mut rng));
            for len in 0..=1usize << n {
                let want: Vec<Fr> = full[..len].iter().map(|&v| c * v).collect();
                assert_eq!(eq_table_prefix(&tau, len, c), want, "n={n} len={len}");
                let mut reused = vec![-Fr::ONE; len];
                eq_table_prefix_into(&tau, c, &mut reused);
                assert_eq!(reused, want, "reused slice: n={n} len={len}");
            }
        }
    }

    #[test]
    fn eq_table_prefix_matches_the_per_entry_oracle() {
        // Every entry of the tensor build against `c · eq_eval(tau, b)`, on
        // prefixes of one entry, of `2^⌈n/2⌉` entries and one past it, of a
        // length that is no power of two, of the full table, and of the
        // largest prefix doubled alone (256 entries) and one past it, over
        // reused storage holding no zeros.
        let mut rng = Prg::seed_from_u64(11);
        for n in 0..=13usize {
            let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let c = Fr::random(&mut rng);
            let full = 1usize << n;
            let oracle: Vec<Fr> = (0..full)
                .map(|b| {
                    let point: Vec<Fr> = (0..n).map(|i| Fr::from((b >> i & 1) as u64)).collect();
                    c * eq_eval(&tau, &point)
                })
                .collect();
            let chunk = 1usize << n.div_ceil(2);
            let uneven = (full / 2 + full / 8).max(1) + 1;
            for len in [1, chunk, chunk + 1, uneven, full, 256, 257] {
                if len > full {
                    continue;
                }
                let mut out = vec![-Fr::ONE; len];
                eq_table_prefix_into(&tau, c, &mut out);
                assert_eq!(out, oracle[..len], "n={n} len={len}");
            }
        }
        // Past nine high variables (k = 20): the first chunk grows instead.
        // Entries sampled across the chunks, and each chunk's ends.
        let tau: Vec<Fr> = (0..21).map(|_| Fr::random(&mut rng)).collect();
        let (len, chunk) = ((1 << 19) + 3, 1 << 11);
        let mut out = vec![-Fr::ONE; len];
        eq_table_prefix_into(&tau, Fr::ONE, &mut out);
        let ends = (0..len).step_by(chunk).flat_map(|b| [b, b + chunk - 1]);
        for b in (0..len).step_by(4099).chain(ends).filter(|&b| b < len) {
            let point: Vec<Fr> = (0..21).map(|i| Fr::from((b >> i & 1) as u64)).collect();
            assert_eq!(out[b], eq_eval(&tau, &point), "k=20, entry {b}");
        }
    }

    #[test]
    #[should_panic(expected = "longer than its table")]
    fn eq_table_prefix_past_the_table_panics() {
        let _ = eq_table_prefix(&[Fr::ONE, Fr::ZERO], 5, Fr::ONE);
    }

    #[test]
    fn eq_table_sums_to_one() {
        let mut rng = Prg::seed_from_u64(7);
        let tau: Vec<Fr> = (0..6).map(|_| Fr::random(&mut rng)).collect();
        let total: Fr = eq_table(&tau).iter().copied().sum();
        assert_eq!(total, Fr::ONE);
    }

    #[test]
    fn mle_of_eq_table_recovers_eq() {
        let mut rng = Prg::seed_from_u64(8);
        let tau: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let x: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let p = MultilinearPoly::new(eq_table(&tau));
        assert_eq!(p.evaluate(&x), eq_eval(&tau, &x));
    }

    #[test]
    fn zero_poly() {
        let p = MultilinearPoly::<Fr>::zero(3);
        assert!(p.evals().iter().all(|e| e.is_zero()));
        assert_eq!(p.evaluate(&[Fr::from(9u64); 3]), Fr::ZERO);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_length_panics() {
        let _ = MultilinearPoly::new(vec![Fr::ONE; 3]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bad_point_panics() {
        let p = MultilinearPoly::new(vec![Fr::ONE; 4]);
        let _ = p.evaluate(&[Fr::ONE]);
    }
}
