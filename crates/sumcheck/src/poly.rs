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
    pub fn zero(num_vars: usize) -> Self {
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

    /// Sum of all hypercube evaluations — the `H` of the sum-check claim.
    pub fn hypercube_sum(&self) -> F {
        self.evals.iter().copied().sum()
    }

    /// Evaluates at an arbitrary point `(x_1, ..., x_n)`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.num_vars()`.
    pub fn evaluate(&self, point: &[F]) -> F {
        assert_eq!(point.len(), self.num_vars, "point dimension mismatch");
        let mut table = self.evals.clone();
        // Fold variables from the top (x_n) down, matching fix_top_variable.
        for &r in point.iter().rev() {
            let half = table.len() / 2;
            let (lo, hi) = table.split_at_mut(half);
            F::fold_halves(lo, hi, r);
            table.truncate(half);
        }
        table[0]
    }

    /// Fixes the most-significant variable `x_n` to `r`, halving the table —
    /// one round of Algorithm 1's update
    /// `A[b] = (1 - r)·A[b] + r·A[b + 2^{n-1}]`, through
    /// [`Field::fold_halves`].
    ///
    /// # Panics
    ///
    /// Panics if the polynomial has no variables left.
    pub fn fix_top_variable(&mut self, r: F) {
        assert!(self.num_vars > 0, "no variable left to fix");
        let half = self.evals.len() / 2;
        let (lo, hi) = self.evals.split_at_mut(half);
        F::fold_halves(lo, hi, r);
        self.evals.truncate(half);
        self.num_vars -= 1;
    }
}

/// Doubles the `eq` level stored at `table[start..]` by one more variable
/// with coordinate `t`: a copy `v·t` is appended ([`Field::scale`]) and
/// each `v` becomes `v − v·t` in place — one multiply per entry, no second
/// buffer.
fn eq_double<F: Field>(table: &mut Vec<F>, start: usize, t: F) {
    let level = table.len() - start;
    table.extend_from_within(start..);
    let (lo, hi) = table[start..].split_at_mut(level);
    F::scale(hi, t);
    for (lo, &hi) in lo.iter_mut().zip(&*hi) {
        *lo -= hi;
    }
}

/// Builds the `eq(tau, ·)` table: `out[b] = Π_i (tau_i b_i + (1-tau_i)(1-b_i))`.
///
/// This is the multilinear extension of the Kronecker delta at `tau`,
/// central to the Spartan-style sum-checks. One allocation, filled level by
/// level in place.
pub fn eq_table<F: Field>(tau: &[F]) -> Vec<F> {
    eq_table_prefix(tau, 1 << tau.len(), F::ONE)
}

/// `c · eq_table(tau)[..len]` in `O(2^⌈log₂ len⌉)` work, where the full
/// table costs `2^n`: the entries below `len` have every variable from
/// `k = ⌈log₂ len⌉` on at zero, so their factor `Π_{i ≥ k} (1 − tau_i)`
/// joins `c` as the table's first entry, the variables below `k − 1`
/// double it in full, and the last doubling writes only the
/// `len − 2^(k−1)` entries of its upper half that the prefix holds.
///
/// This is how a verifier builds `eq` over just the rows or columns a
/// sparse matrix reads, with the table's constant (such as `1 − y_top` for
/// one half of a split point) folded in for free.
///
/// # Panics
///
/// Panics if `len > 2^tau.len()`.
pub fn eq_table_prefix<F: Field>(tau: &[F], len: usize, c: F) -> Vec<F> {
    assert!(
        len <= 1usize.checked_shl(tau.len() as u32).unwrap_or(usize::MAX),
        "eq prefix longer than its table"
    );
    if len == 0 {
        return Vec::new();
    }
    let k = (len - 1).checked_ilog2().map_or(0, |b| b as usize + 1);
    let high: F = tau[k..].iter().map(|&t| F::ONE - t).product();
    let mut table = Vec::with_capacity(len);
    table.push(c * high);
    let Some((&last, low)) = tau[..k].split_last() else {
        return table;
    };
    for &t in low {
        eq_double(&mut table, 0, t);
    }
    // The partial doubling by `last`: the upper half's first `extra`
    // entries are `v·t`, the lower half becomes `v − v·t` where it has
    // such a partner and `v·(1 − t)` past it.
    let (level, extra) = (table.len(), len - table.len());
    table.extend_from_within(..extra);
    let (lo, hi) = table.split_at_mut(level);
    F::scale(hi, last);
    for (lo, &hi) in lo.iter_mut().zip(&*hi) {
        *lo -= hi;
    }
    F::scale(&mut lo[extra..], F::ONE - last);
    table
}

/// The `eq` tables of every proper prefix of `tau` in one allocation of
/// `2^n` entries: `out[2^k..2^(k+1)]` is `eq_table(&tau[..k])` for
/// `k < n` (slot 0 is unused). Round `j` of a sum-check with an `eq(tau, ·)`
/// factor weighs its `2^(n-j)` pairs by level `n − j`, so the levels are
/// built once — `2^(n-1)` multiplies in all — and never folded.
pub(crate) fn eq_prefix_tables<F: Field>(tau: &[F]) -> Vec<F> {
    let mut levels = Vec::with_capacity(1 << tau.len());
    levels.extend([F::ZERO, F::ONE]);
    for &t in &tau[..tau.len().saturating_sub(1)] {
        let start = levels.len();
        levels.extend_from_within(start / 2..);
        eq_double(&mut levels, start, t);
    }
    levels
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
    fn fix_top_variable_matches_evaluate() {
        let mut p = rand_poly(5, 4);
        let full = p.clone();
        let mut rng = Prg::seed_from_u64(5);
        let rs: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        // Fix x5, x4, ..., x1 with rs[0..5]; final value equals
        // full.evaluate(x1..x5 = rs[4], rs[3], ..., rs[0]).
        for &r in &rs {
            p.fix_top_variable(r);
        }
        let point: Vec<Fr> = rs.iter().rev().copied().collect();
        assert_eq!(p.evals()[0], full.evaluate(&point));
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
            let levels = eq_prefix_tables(&tau);
            assert_eq!(levels.len(), (1usize << n).max(2), "n={n}");
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
            }
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
        assert_eq!(p.hypercube_sum(), Fr::ZERO);
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
