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

    /// The evaluation table, given up for a prover to fold in place.
    pub fn into_evals(self) -> Vec<F> {
        self.evals
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

/// Doubles an `eq` level by one more variable with coordinate `t`, `hi`
/// holding a copy of `lo`'s first entries: each becomes `v·t`
/// ([`Field::scale`]), each `v` of `lo` with such a partner `v − v·t`, and
/// each past them `v·(1 − t)` — one multiply per entry.
fn eq_double<F: Field>(lo: &mut [F], hi: &mut [F], t: F) {
    F::scale(hi, t);
    let (paired, unpaired) = lo.split_at_mut(hi.len());
    for (lo, &hi) in paired.iter_mut().zip(&*hi) {
        *lo -= hi;
    }
    F::scale(unpaired, F::ONE - t);
}

/// Builds the `eq(tau, ·)` table: `out[b] = Π_i (tau_i b_i + (1-tau_i)(1-b_i))`.
///
/// This is the multilinear extension of the Kronecker delta at `tau`,
/// central to the Spartan-style sum-checks. One allocation, filled level by
/// level in place.
pub fn eq_table<F: Field>(tau: &[F]) -> Vec<F> {
    eq_table_prefix(tau, 1 << tau.len(), F::ONE)
}

/// The variables `tau[..k]`, `k = ⌈log₂ len⌉`, that double a prefix of
/// `len > 0` entries of `c · eq_table(tau)`, and its first entry: below
/// `len` every later variable is zero, so `Π_{i ≥ k} (1 − tau_i)` joins `c`.
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

/// `c · eq_table(tau)[..len]` in `O(2^⌈log₂ len⌉)` work, where the full
/// table costs `2^n`: from its first entry ([`eq_start`]) each variable
/// doubles the table by a copy of its lower entries, the last one only
/// the `len − 2^(k−1)` upper entries the prefix holds.
///
/// This is how a verifier builds `eq` over just the rows or columns a
/// sparse matrix reads, with the table's constant (such as `1 − y_top` for
/// one half of a split point) folded in for free.
///
/// # Panics
///
/// Panics if `len > 2^tau.len()`.
pub fn eq_table_prefix<F: Field>(tau: &[F], len: usize, c: F) -> Vec<F> {
    let mut table = Vec::with_capacity(len);
    if len > 0 {
        let (doubling, first) = eq_start(tau, len, c);
        table.push(first);
        for &t in doubling {
            let level = table.len();
            table.extend_from_within(..(len - level).min(level));
            let (lo, hi) = table.split_at_mut(level);
            eq_double(lo, hi, t);
        }
    }
    table
}

/// [`eq_table_prefix`] of `out.len()` entries, written into `out`: how the
/// prover builds `eq(rx, ·)` over the rows in its reused storage. Nothing
/// `out` held is read.
///
/// # Panics
///
/// Panics if `out.len() > 2^tau.len()`.
pub fn eq_table_prefix_into<F: Field>(tau: &[F], c: F, out: &mut [F]) {
    let len = out.len();
    if len > 0 {
        let (doubling, first) = eq_start(tau, len, c);
        out[0] = first;
        let mut level = 1;
        for &t in doubling {
            let (lo, hi) = out.split_at_mut(level);
            let hi = &mut hi[..(len - level).min(level)];
            hi.copy_from_slice(&lo[..hi.len()]);
            eq_double(lo, hi, t);
            level += hi.len();
        }
    }
}

/// Writes the `eq` tables of every proper prefix of `tau` into `levels`
/// (`max(2, 2^n)` entries): `levels[2^k..2^(k+1)]` is `eq_table(&tau[..k])`
/// for `k < n` (slot 0 is zero). Round `j` of a sum-check with an
/// `eq(tau, ·)` factor weighs its `2^(n-j)` pairs by level `n − j`, so the
/// levels are built once — `2^(n-1)` multiplies in all — and never folded.
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
        lo.copy_from_slice(&built[start / 2..]);
        hi.copy_from_slice(lo);
        eq_double(lo, hi, t);
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
