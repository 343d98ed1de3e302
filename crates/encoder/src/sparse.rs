//! CSR sparse matrices over a prime field, plus the bucket-sorted warp
//! schedule from §3.3 of the paper.
//!
//! The bipartite expander graphs of the Spielman encoder are stored as
//! sparse matrices whose *rows are output vertices*: entry `(i, j)` means
//! output element `i` accumulates `coeff * input[j]`. Row degrees are below
//! 256, so each degree fits one byte — which is what makes the paper's
//! bucket-sort warp balancing economical.

use batchzk_field::Field;
use batchzk_field::RngCore;

/// Warp width used for scheduling (32 threads per warp on every NVIDIA GPU).
pub const WARP_SIZE: usize = 32;

/// A sparse matrix in compressed-sparse-row form.
#[derive(Debug, Clone)]
pub struct SparseMatrix<F> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<F>,
}

impl<F: Field> SparseMatrix<F> {
    /// Builds a matrix from per-row `(column, value)` lists.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range or `entries.len() != rows`.
    pub fn from_rows(rows: usize, cols: usize, entries: Vec<Vec<(usize, F)>>) -> Self {
        assert_eq!(entries.len(), rows, "one entry list per row required");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in entries {
            for (c, v) in row {
                assert!(c < cols, "column index {c} out of range (cols = {cols})");
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Samples a random expander-style matrix: every row draws `degree`
    /// distinct columns (capped at `cols`) with uniformly random non-zero
    /// coefficients. Deterministic given the RNG state.
    pub fn random_regular<R: RngCore>(
        rows: usize,
        cols: usize,
        degree: usize,
        rng: &mut R,
    ) -> Self {
        Self::random_jittered(rows, cols, degree, 0, rng)
    }

    /// Like [`Self::random_regular`] but with per-row degree jitter: each
    /// row's degree is drawn uniformly from `[degree - jitter, degree +
    /// jitter]` (clamped to `[1, cols]`). Spielman-style constructions
    /// distribute edges with varying vertex degrees; the resulting
    /// intra-matrix imbalance is what the paper's bucket-sorted warp
    /// schedule (§3.3) exists to absorb.
    pub fn random_jittered<R: RngCore>(
        rows: usize,
        cols: usize,
        degree: usize,
        jitter: usize,
        rng: &mut R,
    ) -> Self {
        let mut entries = Vec::with_capacity(rows);
        let mut picked = vec![usize::MAX; cols.min(1 << 20)];
        for row in 0..rows {
            let degree = if jitter == 0 {
                degree
            } else {
                let lo = degree.saturating_sub(jitter).max(1);
                rng.gen_range(lo..=degree + jitter)
            }
            .clamp(1, cols);
            let mut cols_for_row = Vec::with_capacity(degree);
            if degree * 4 >= cols {
                // Dense-ish row: partial Fisher-Yates over all columns.
                let mut perm: Vec<usize> = (0..cols).collect();
                for k in 0..degree {
                    let j = rng.gen_range(k..cols);
                    perm.swap(k, j);
                    cols_for_row.push(perm[k]);
                }
            } else {
                // Sparse row: rejection sampling with an epoch-stamped
                // membership array (no per-row clearing).
                while cols_for_row.len() < degree {
                    let c = rng.gen_range(0..cols);
                    if picked.get(c) != Some(&row) {
                        if c < picked.len() {
                            picked[c] = row;
                        } else if cols_for_row.contains(&c) {
                            continue;
                        }
                        cols_for_row.push(c);
                    }
                }
            }
            cols_for_row.sort_unstable();
            let row_entries = cols_for_row
                .into_iter()
                .map(|c| {
                    let mut v = F::random(rng);
                    while v.is_zero() {
                        v = F::random(rng);
                    }
                    (c, v)
                })
                .collect();
            entries.push(row_entries);
        }
        Self::from_rows(rows, cols, entries)
    }

    /// Number of rows (output dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Degree (non-zero count) of row `i`.
    pub fn row_degree(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// The `(column, value)` entries of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, F)> + '_ {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Computes `M · x` (`out[i] = Σ_j M[i][j] · x[j]`).
    ///
    /// Each row goes through [`Field::dot_pairs`], so Montgomery-backed
    /// fields run the deferred-reduction kernel.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[F]) -> Vec<F> {
        assert_eq!(x.len(), self.cols, "input vector dimension mismatch");
        (0..self.rows)
            .map(|i| F::dot_pairs(self.row(i).map(|(c, v)| (v, x[c]))))
            .collect()
    }

    /// Computes `M · X` for `width` input vectors at once, interleaved:
    /// `x` is `cols × width` and `out` is `rows × width`, both with the
    /// `width` entries of one index contiguous (`x[c * width + w]` is entry
    /// `c` of vector `w`). Column `w` of `out` equals
    /// [`Self::mul_vec`] of column `w` of `x`.
    ///
    /// The matrix is read once for all `width` vectors, through
    /// [`Field::sparse_mul_lanes`]: `width` deferred-reduction accumulators
    /// per row, or eight lanes per instruction where the CPU has AVX-512
    /// IFMA and `width` is a multiple of eight.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or a slice length does not match.
    pub fn mul_batch(&self, width: usize, x: &[F], out: &mut [F]) {
        assert!(width > 0, "batch width must be positive");
        assert_eq!(x.len(), self.cols * width, "input dimension mismatch");
        assert_eq!(out.len(), self.rows * width, "output dimension mismatch");
        F::sparse_mul_lanes(width, &self.row_ptr, &self.col_idx, &self.values, x, out);
    }

    /// Groups row indices into warps of [`WARP_SIZE`] rows of similar degree
    /// using a bucket sort over the byte-sized degrees (§3.3).
    ///
    /// Returns the warp groups; within the SIMD execution model each warp
    /// costs its *maximum* member degree, so grouping similar degrees
    /// minimizes total cost.
    pub fn warp_schedule(&self) -> Vec<Vec<usize>> {
        // Bucket sort: degree is < 256 by construction in the encoder.
        let max_deg = (0..self.rows)
            .map(|i| self.row_degree(i))
            .max()
            .unwrap_or(0);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
        for i in 0..self.rows {
            buckets[self.row_degree(i)].push(i);
        }
        let sorted: Vec<usize> = buckets.into_iter().flatten().collect();
        sorted.chunks(WARP_SIZE).map(|c| c.to_vec()).collect()
    }

    /// SIMD cost of a warp execution plan: sum over warps of the maximum row
    /// degree in the warp. `sorted = false` gives the naive in-order plan
    /// (the ablation baseline).
    pub fn warp_cost(&self, sorted: bool) -> u64 {
        let groups: Vec<Vec<usize>> = if sorted {
            self.warp_schedule()
        } else {
            (0..self.rows)
                .collect::<Vec<_>>()
                .chunks(WARP_SIZE)
                .map(|c| c.to_vec())
                .collect()
        };
        groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&i| self.row_degree(i) as u64)
                    .max()
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;
    use batchzk_hash::Prg;

    #[test]
    fn mul_vec_matches_dense() {
        // [[1, 0, 2], [0, 3, 0]] * [1, 1, 1] = [3, 3]
        let m = SparseMatrix::from_rows(
            2,
            3,
            vec![
                vec![(0, Fr::from(1u64)), (2, Fr::from(2u64))],
                vec![(1, Fr::from(3u64))],
            ],
        );
        let out = m.mul_vec(&[Fr::ONE, Fr::ONE, Fr::ONE]);
        assert_eq!(out, vec![Fr::from(3u64), Fr::from(3u64)]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn mul_vec_is_linear() {
        let mut rng = Prg::seed_from_u64(1);
        let m = SparseMatrix::<Fr>::random_regular(40, 100, 7, &mut rng);
        let x: Vec<Fr> = (0..100).map(|_| Fr::random(&mut rng)).collect();
        let y: Vec<Fr> = (0..100).map(|_| Fr::random(&mut rng)).collect();
        let c = Fr::random(&mut rng);
        let combo: Vec<Fr> = x.iter().zip(&y).map(|(a, b)| *a + c * *b).collect();
        let mx = m.mul_vec(&x);
        let my = m.mul_vec(&y);
        let mc = m.mul_vec(&combo);
        for i in 0..40 {
            assert_eq!(mc[i], mx[i] + c * my[i]);
        }
    }

    #[test]
    fn random_regular_has_requested_degree() {
        let mut rng = Prg::seed_from_u64(2);
        let m = SparseMatrix::<Fr>::random_regular(50, 200, 7, &mut rng);
        for i in 0..50 {
            assert_eq!(m.row_degree(i), 7);
            // Columns are distinct and sorted.
            let cols: Vec<usize> = m.row(i).map(|(c, _)| c).collect();
            let mut dedup = cols.clone();
            dedup.dedup();
            assert_eq!(cols, dedup);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn random_regular_caps_degree_at_cols() {
        let mut rng = Prg::seed_from_u64(3);
        let m = SparseMatrix::<Fr>::random_regular(10, 4, 9, &mut rng);
        for i in 0..10 {
            assert_eq!(m.row_degree(i), 4);
        }
    }

    #[test]
    fn warp_schedule_covers_all_rows_once() {
        let mut rng = Prg::seed_from_u64(4);
        let m = SparseMatrix::<Fr>::random_regular(100, 300, 5, &mut rng);
        let sched = m.warp_schedule();
        let mut seen: Vec<usize> = sched.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_warp_cost_never_worse() {
        // Build a matrix with wildly varying row degrees.
        let mut rng = Prg::seed_from_u64(5);
        let entries: Vec<Vec<(usize, Fr)>> = (0..128)
            .map(|i| {
                let deg = 1 + (i % 16) * 3;
                (0..deg).map(|j| (j, Fr::random(&mut rng))).collect()
            })
            .collect();
        let m = SparseMatrix::from_rows(128, 64, entries);
        assert!(m.warp_cost(true) <= m.warp_cost(false));
        // With this interleaved degree pattern sorting must strictly win.
        assert!(m.warp_cost(true) < m.warp_cost(false));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_vector_length_panics() {
        let m = SparseMatrix::<Fr>::from_rows(1, 2, vec![vec![(0, Fr::ONE)]]);
        let _ = m.mul_vec(&[Fr::ONE]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_column_panics() {
        let _ = SparseMatrix::<Fr>::from_rows(1, 2, vec![vec![(5, Fr::ONE)]]);
    }
}
