//! Rank-1 constraint systems: the circuit representation the full ZKP
//! system proves (the paper's "circuit compiled from the function to be
//! proved", with `S` multiplication gates ⇒ `S` constraints in Table 7).
//!
//! The assignment vector is laid out Spartan-style in two power-of-two
//! halves: `z = (io ‖ w)` where `io = (1, x, 0, ...)` is public and `w` is
//! the committed witness. The multilinear extension then splits on the top
//! variable: `z̃(y, y_top) = (1-y_top)·ĩo(y) + y_top·w̃(y)`, which lets the
//! verifier evaluate the public half itself while the PCS opens only `w̃`.
//!
//! Only two windows of that layout are live: `io = (1, x)` at columns
//! `[0, 1 + num_inputs)` and `w` at `[half_len, half_len + num_witness)`.
//! [`R1cs::new`] checks that every matrix entry lies in them, so every vector
//! over the columns that the prover or the verifier builds — `z` itself, the
//! row-bound matrix polynomial of sum-check #2, the `eq(ry, ·)` table — is
//! held as its two windows ([`Windows`]) and never filled out to `2·half_len`
//! entries: each skipped entry is an exact zero.

use batchzk_field::Field;
use batchzk_sumcheck::eq_table_prefix;
#[cfg(test)]
use batchzk_sumcheck::MultilinearPoly;

/// A vector over the columns of the `z` layout, held as its two windows:
/// `io` at columns `[0, io.len())`, `w` at `[half_len, half_len + w.len())`,
/// and zero everywhere else.
#[derive(Debug, Clone, Copy)]
pub struct Windows<'a, F> {
    /// The prefix of the public half.
    pub io: &'a [F],
    /// The prefix of the witness half.
    pub w: &'a [F],
}

/// A sparse matrix stored as `(row, col, value)` triplets.
#[derive(Debug, Clone)]
pub struct SparseTriplets<F> {
    entries: Vec<(usize, usize, F)>,
    rows: usize,
    cols: usize,
}

/// `v·x` for a matrix coefficient `v`: most of an R1CS matrix is 1 or −1
/// (all of [`synthetic_r1cs`], 87 % of the VGG-16/64 circuit), which is a copy
/// or a negation; only the rest multiply.
#[inline]
fn scale<F: Field>(v: F, x: F) -> F {
    if v == F::ONE {
        x
    } else if v == -F::ONE {
        -x
    } else {
        v * x
    }
}

impl<F: Field> SparseTriplets<F> {
    /// Creates a triplet matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn new(rows: usize, cols: usize, entries: Vec<(usize, usize, F)>) -> Self {
        for &(r, c, _) in &entries {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of range");
        }
        Self {
            entries,
            rows,
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The triplets.
    pub fn entries(&self) -> &[(usize, usize, F)] {
        &self.entries
    }

    /// Computes `M · z` for `z` given as its [`Windows`] over halves of
    /// `half_len` columns: one pass over the triplets, in row order for a
    /// built matrix, with a multiply only where the coefficient is not ±1.
    ///
    /// # Panics
    ///
    /// Panics if a triplet's column lies past its window.
    fn mul_windows(&self, half_len: usize, z: Windows<'_, F>) -> Vec<F> {
        let mut out = vec![F::ZERO; self.rows];
        for &(r, c, v) in &self.entries {
            let x = if c < half_len {
                z.io[c]
            } else {
                z.w[c - half_len]
            };
            out[r] += scale(v, x);
        }
        out
    }

    /// Adds the row-bound combination `Σ_x eq_x[x] · M(x, ·)` onto the two
    /// windows `[io, w]` of a vector over the columns: one multiply per
    /// non-zero that is not ±1 and no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `eq_x` is shorter than the rows a triplet names or a
    /// triplet's column lies past its window.
    fn bind_rows_into(&self, half_len: usize, eq_x: &[F], [io, w]: [&mut [F]; 2]) {
        for &(r, c, v) in &self.entries {
            let slot = if c < half_len {
                &mut io[c]
            } else {
                &mut w[c - half_len]
            };
            *slot += scale(v, eq_x[r]);
        }
    }

    /// The padded row binding, `m(y) = Σ_x eq_x[x] · M(x, y)` over all
    /// columns: the oracle of the windowed binding.
    #[cfg(test)]
    pub(crate) fn bind_rows(&self, eq_x: &[F]) -> Vec<F> {
        let mut out = vec![F::ZERO; self.cols];
        for &(r, c, v) in &self.entries {
            out[c] += v * eq_x[r];
        }
        out
    }

    /// The padded matrix MLE `M̃(rx, ry)` against full `eq` tables: the
    /// oracle of [`R1cs::matrix_evals`].
    #[cfg(test)]
    pub(crate) fn mle_eval(&self, eq_rx: &[F], eq_ry: &[F]) -> F {
        let terms = self.entries.iter();
        F::dot_pairs(terms.map(|&(r, c, v)| (scale(v, eq_rx[r]), eq_ry[c])))
    }
}

/// An R1CS instance: `(A·z) ∘ (B·z) = C·z` for `z = (io ‖ w)`.
#[derive(Debug, Clone)]
pub struct R1cs<F> {
    /// Left matrix.
    pub a: SparseTriplets<F>,
    /// Right matrix.
    pub b: SparseTriplets<F>,
    /// Output matrix.
    pub c: SparseTriplets<F>,
    /// Number of constraints (unpadded).
    num_constraints: usize,
    /// Public input count (excluding the leading constant one).
    num_inputs: usize,
    /// Witness variable count.
    num_witness: usize,
    /// Length of each z half (power of two).
    half_len: usize,
}

impl<F: Field> R1cs<F> {
    /// Assembles an instance from its matrices and variable counts.
    ///
    /// The column space of the matrices must be `2 * half_len`, where
    /// `half_len` is the padded size of each half.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions, or if a matrix entry's column lies
    /// outside the io window `[0, 1 + num_inputs)` and the witness window
    /// `[half_len, half_len + num_witness)`: the windowed prover and verifier
    /// read nothing else, so they are exact only under this condition.
    pub fn new(
        a: SparseTriplets<F>,
        b: SparseTriplets<F>,
        c: SparseTriplets<F>,
        num_constraints: usize,
        num_inputs: usize,
        num_witness: usize,
        half_len: usize,
    ) -> Self {
        assert!(
            half_len.is_power_of_two(),
            "half length must be a power of two"
        );
        assert!(num_inputs < half_len, "io half overflow");
        assert!(num_witness <= half_len, "witness half overflow");
        let cols = 2 * half_len;
        assert!(
            a.cols() == cols && b.cols() == cols && c.cols() == cols,
            "matrix column mismatch"
        );
        assert!(
            a.rows() == num_constraints
                && b.rows() == num_constraints
                && c.rows() == num_constraints,
            "matrix row mismatch"
        );
        let witness = half_len..half_len + num_witness;
        for m in [&a, &b, &c] {
            for &(_, col, _) in m.entries() {
                assert!(
                    col <= num_inputs || witness.contains(&col),
                    "triplet column {col} outside the io and witness windows"
                );
            }
        }
        Self {
            a,
            b,
            c,
            num_constraints,
            num_inputs,
            num_witness,
            half_len,
        }
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Constraint count padded to a power of two.
    pub fn padded_constraints(&self) -> usize {
        self.num_constraints.next_power_of_two().max(2)
    }

    /// Number of public inputs (excluding the constant one).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of witness variables.
    pub fn num_witness(&self) -> usize {
        self.num_witness
    }

    /// Length of each z half.
    pub fn half_len(&self) -> usize {
        self.half_len
    }

    /// Total assignment length `2 * half_len`.
    pub fn z_len(&self) -> usize {
        2 * self.half_len
    }

    /// Total non-zeros across the three matrices.
    pub fn total_nnz(&self) -> usize {
        self.a.nnz() + self.b.nnz() + self.c.nnz()
    }

    /// Builds the full assignment `z = (1, x, 0.. ‖ w, 0..)`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `witness` have the wrong length.
    pub fn assemble_z(&self, inputs: &[F], witness: &[F]) -> Vec<F> {
        assert_eq!(inputs.len(), self.num_inputs, "wrong public input count");
        assert_eq!(witness.len(), self.num_witness, "wrong witness count");
        let mut z = vec![F::ZERO; self.z_len()];
        z[0] = F::ONE;
        z[1..1 + inputs.len()].copy_from_slice(inputs);
        z[self.half_len..self.half_len + witness.len()].copy_from_slice(witness);
        z
    }

    /// The io window `(1, x)` of the assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length.
    pub fn io(&self, inputs: &[F]) -> Vec<F> {
        assert_eq!(inputs.len(), self.num_inputs, "wrong public input count");
        [&[F::ONE], inputs].concat()
    }

    /// The live [`Windows`] of an assignment: its io window (from
    /// [`Self::io`]) and its witness.
    ///
    /// # Panics
    ///
    /// Panics if either has the wrong length.
    pub fn live<'a>(&self, io: &'a [F], witness: &'a [F]) -> Windows<'a, F> {
        assert_eq!(io.len(), 1 + self.num_inputs, "wrong public input count");
        assert_eq!(witness.len(), self.num_witness, "wrong witness count");
        Windows { io, w: witness }
    }

    /// The live [`Windows`] of an assembled `z` ([`Self::assemble_z`]).
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.z_len()`.
    pub fn windows<'a>(&self, z: &'a [F]) -> Windows<'a, F> {
        assert_eq!(z.len(), self.z_len(), "assignment length mismatch");
        let w = &z[self.half_len..self.half_len + self.num_witness];
        self.live(&z[..1 + self.num_inputs], w)
    }

    /// The public half of z as a multilinear polynomial: the oracle of
    /// [`Self::io_eval`].
    #[cfg(test)]
    pub(crate) fn io_poly(&self, inputs: &[F]) -> MultilinearPoly<F> {
        let mut io = self.io(inputs);
        io.resize(self.half_len, F::ZERO);
        MultilinearPoly::new(io)
    }

    /// The public half's share of `z̃` at `ry`, `(1 − y_top)·ĩo(y')`, from the
    /// io window of `ry`'s `eq` table ([`Self::eq_windows`]), summed over the
    /// `1 + num_inputs` entries of `io`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length or `eq_io` is shorter than it.
    pub fn io_eval(&self, inputs: &[F], eq_io: &[F]) -> F {
        assert_eq!(inputs.len(), self.num_inputs, "wrong public input count");
        eq_io[0] + F::dot(inputs, &eq_io[1..=inputs.len()])
    }

    /// The two windows `[io, w]` of `eq(ry, ·)` over the columns, for
    /// `ry = (y', y_top)`: `(1 − y_top)·eq(y', ·)` over the first
    /// `1 + num_inputs` columns and `y_top·eq(y', ·)` over the first
    /// `num_witness` of the witness half, each built in `O(window)`
    /// ([`eq_table_prefix`]).
    ///
    /// # Panics
    ///
    /// Panics if `point_y` does not have `log₂ z_len` coordinates.
    pub fn eq_windows(&self, point_y: &[F]) -> [Vec<F>; 2] {
        assert_eq!(1 << point_y.len(), self.z_len(), "point dimension mismatch");
        let (&y_top, y) = point_y.split_last().expect("z has a top variable");
        [
            eq_table_prefix(y, 1 + self.num_inputs, F::ONE - y_top),
            eq_table_prefix(y, self.num_witness, y_top),
        ]
    }

    /// The three matrix MLEs `[Ã, B̃, C̃](rx, ry)` as `⟨eq_rx, M · eq_y⟩`:
    /// per matrix one row-wise pass over the non-zeros against the windows
    /// of `eq(ry, ·)` ([`Self::eq_windows`]), then one [`Field::dot`] with
    /// `eq_rx` over the constraint rows.
    ///
    /// # Panics
    ///
    /// Panics if `eq_y`'s windows are shorter than the live windows.
    pub fn matrix_evals(&self, eq_rx: &[F], eq_y: Windows<'_, F>) -> [F; 3] {
        [&self.a, &self.b, &self.c].map(|m| F::dot(eq_rx, &m.mul_windows(self.half_len, eq_y)))
    }

    /// The three products `[A·z, B·z, C·z]`, one entry per constraint.
    ///
    /// # Panics
    ///
    /// Panics if `z`'s windows are shorter than the live windows.
    pub fn products(&self, z: Windows<'_, F>) -> [Vec<F>; 3] {
        [&self.a, &self.b, &self.c].map(|m| m.mul_windows(self.half_len, z))
    }

    /// Whether [`Self::products`] of an assignment satisfy every
    /// constraint: `(A·z) ∘ (B·z) = C·z`.
    pub fn products_satisfy([az, bz, cz]: &[Vec<F>; 3]) -> bool {
        az.iter().zip(bz).zip(cz).all(|((a, b), c)| *a * *b == *c)
    }

    /// Checks satisfaction of every constraint.
    pub fn is_satisfied(&self, z: &[F]) -> bool {
        z.len() == self.z_len() && Self::products_satisfy(&self.products(self.windows(z)))
    }

    /// The γ-combined row-bound matrix polynomial of Spartan's second
    /// sum-check, `Σ_k γ_k · Σ_x eq_x[x] · M_k(x, ·)` for `M = (A, B, C)`,
    /// as its two live windows `[io, w]` (of `1 + num_inputs` and
    /// `num_witness` entries): the columns outside them are zero.
    ///
    /// All three matrices accumulate into one pair of windows against
    /// `γ_k · eq_x`, which costs `3·rows` multiplies plus one per non-zero
    /// that is not ±1, where binding each matrix and then scaling its dense
    /// result costs `nnz + 3·z_len`.
    ///
    /// # Panics
    ///
    /// Panics if `eq_x` is shorter than the constraint count or `gamma`
    /// does not hold three elements.
    pub fn bind_rows_combined(&self, eq_x: &[F], gamma: &[F]) -> [Vec<F>; 2] {
        assert_eq!(gamma.len(), 3, "one γ per matrix");
        let eq_x = &eq_x[..self.num_constraints];
        let mut io = vec![F::ZERO; 1 + self.num_inputs];
        let mut w = vec![F::ZERO; self.num_witness];
        let mut scaled = vec![F::ZERO; eq_x.len()];
        for (&g, m) in gamma.iter().zip([&self.a, &self.b, &self.c]) {
            scaled.copy_from_slice(eq_x);
            F::scale(&mut scaled, g);
            m.bind_rows_into(self.half_len, &scaled, [&mut io, &mut w]);
        }
        [io, w]
    }
}

/// A linear combination of variables, as `(variable, coefficient)` pairs.
pub type Lc<F> = Vec<(Var, F)>;

/// A variable reference in the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Var {
    /// The constant 1.
    One,
    /// Public input `i` (0-based).
    Input(usize),
    /// Witness variable `i` (0-based).
    Witness(usize),
}

/// Incremental R1CS construction.
///
/// # Examples
///
/// ```
/// use batchzk_zkp::r1cs::{R1csBuilder, Var};
/// use batchzk_field::{Field, Fr};
///
/// // Prove knowledge of w with w * w = x.
/// let mut b = R1csBuilder::<Fr>::new();
/// let x = b.new_input();
/// let w = b.new_witness();
/// b.enforce(
///     vec![(Var::Witness(w), Fr::ONE)],
///     vec![(Var::Witness(w), Fr::ONE)],
///     vec![(Var::Input(x), Fr::ONE)],
/// );
/// let r1cs = b.build();
/// let z = r1cs.assemble_z(&[Fr::from(9u64)], &[Fr::from(3u64)]);
/// assert!(r1cs.is_satisfied(&z));
/// ```
#[derive(Debug, Clone)]
pub struct R1csBuilder<F> {
    constraints: Vec<(Lc<F>, Lc<F>, Lc<F>)>,
    num_inputs: usize,
    num_witness: usize,
}

impl<F: Field> Default for R1csBuilder<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Field> R1csBuilder<F> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            constraints: Vec::new(),
            num_inputs: 0,
            num_witness: 0,
        }
    }

    /// Allocates a public input, returning its index.
    pub fn new_input(&mut self) -> usize {
        self.num_inputs += 1;
        self.num_inputs - 1
    }

    /// Allocates a witness variable, returning its index.
    pub fn new_witness(&mut self) -> usize {
        self.num_witness += 1;
        self.num_witness - 1
    }

    /// Adds the constraint `⟨a, z⟩ · ⟨b, z⟩ = ⟨c, z⟩`.
    pub fn enforce(&mut self, a: Lc<F>, b: Lc<F>, c: Lc<F>) {
        self.constraints.push((a, b, c));
    }

    /// Number of constraints so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Finalizes the instance.
    ///
    /// # Panics
    ///
    /// Panics if no constraints were added.
    pub fn build(self) -> R1cs<F> {
        assert!(!self.constraints.is_empty(), "empty constraint system");
        let half_len = (1 + self.num_inputs)
            .max(self.num_witness)
            .next_power_of_two()
            .max(2);
        let col = |var: Var| match var {
            Var::One => 0,
            Var::Input(i) => {
                assert!(i < self.num_inputs, "unallocated input {i}");
                1 + i
            }
            Var::Witness(i) => {
                assert!(i < self.num_witness, "unallocated witness {i}");
                half_len + i
            }
        };
        let rows = self.constraints.len();
        let cols = 2 * half_len;
        let mut ta = Vec::new();
        let mut tb = Vec::new();
        let mut tc = Vec::new();
        for (r, (a, b, c)) in self.constraints.into_iter().enumerate() {
            for (v, coeff) in a {
                ta.push((r, col(v), coeff));
            }
            for (v, coeff) in b {
                tb.push((r, col(v), coeff));
            }
            for (v, coeff) in c {
                tc.push((r, col(v), coeff));
            }
        }
        R1cs::new(
            SparseTriplets::new(rows, cols, ta),
            SparseTriplets::new(rows, cols, tb),
            SparseTriplets::new(rows, cols, tc),
            rows,
            self.num_inputs,
            self.num_witness,
            half_len,
        )
    }
}

/// Generates a satisfiable synthetic instance with `s` multiplication
/// constraints — the workload shape of Table 7 ("circuits with S
/// multiplication gates").
///
/// The circuit chains multiplications `w_{i+1} = w_i · w_{g(i)}` with a
/// final public output, giving matrices of ~1 non-zero per row per matrix
/// (the sparsity regime real circuits have).
pub fn synthetic_r1cs<F: Field>(s: usize, seed: u64) -> (R1cs<F>, Vec<F>, Vec<F>) {
    use batchzk_field::{RngCore, SplitMix64};
    assert!(s >= 2, "need at least two constraints");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut builder = R1csBuilder::<F>::new();
    let x = builder.new_input();

    // Witness values computed alongside the constraints.
    let mut w_vals: Vec<F> = vec![F::random(&mut rng)];
    let w0 = builder.new_witness();
    debug_assert_eq!(w0, 0);
    for i in 1..s {
        let j = rng.gen_range(0..w_vals.len());
        let wi = builder.new_witness();
        let val = w_vals[i - 1] * w_vals[j];
        builder.enforce(
            vec![(Var::Witness(i - 1), F::ONE)],
            vec![(Var::Witness(j), F::ONE)],
            vec![(Var::Witness(wi), F::ONE)],
        );
        w_vals.push(val);
    }
    // Expose the last value as the public input: w_last * 1 = x.
    let last = w_vals.len() - 1;
    builder.enforce(
        vec![(Var::Witness(last), F::ONE)],
        vec![(Var::One, F::ONE)],
        vec![(Var::Input(x), F::ONE)],
    );
    let inputs = vec![w_vals[last]];
    let r1cs = builder.build();
    (r1cs, inputs, w_vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;
    use batchzk_hash::Prg;
    use batchzk_sumcheck::eq_table;

    fn square_instance() -> (R1cs<Fr>, Vec<Fr>, Vec<Fr>) {
        // w*w = x
        let mut b = R1csBuilder::<Fr>::new();
        let x = b.new_input();
        let w = b.new_witness();
        b.enforce(
            vec![(Var::Witness(w), Fr::ONE)],
            vec![(Var::Witness(w), Fr::ONE)],
            vec![(Var::Input(x), Fr::ONE)],
        );
        (b.build(), vec![Fr::from(49u64)], vec![Fr::from(7u64)])
    }

    #[test]
    fn satisfaction() {
        let (r1cs, inputs, witness) = square_instance();
        let z = r1cs.assemble_z(&inputs, &witness);
        assert!(r1cs.is_satisfied(&z));
        // Wrong witness fails.
        let bad = r1cs.assemble_z(&inputs, &[Fr::from(8u64)]);
        assert!(!r1cs.is_satisfied(&bad));
        // Wrong input fails.
        let bad = r1cs.assemble_z(&[Fr::from(50u64)], &witness);
        assert!(!r1cs.is_satisfied(&bad));
    }

    #[test]
    fn synthetic_instances_satisfy() {
        for s in [2usize, 5, 37, 200] {
            let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(s, s as u64);
            let z = r1cs.assemble_z(&inputs, &witness);
            assert!(r1cs.is_satisfied(&z), "s={s}");
            assert_eq!(r1cs.num_constraints(), s);
        }
    }

    #[test]
    fn synthetic_rejects_tampered_witness() {
        let (r1cs, inputs, mut witness) = synthetic_r1cs::<Fr>(50, 1);
        witness[25] += Fr::ONE;
        let z = r1cs.assemble_z(&inputs, &witness);
        assert!(!r1cs.is_satisfied(&z));
    }

    #[test]
    fn bind_rows_matches_direct_computation() {
        let (r1cs, _, _) = synthetic_r1cs::<Fr>(20, 2);
        let mut rng = Prg::seed_from_u64(3);
        let log_m = r1cs.padded_constraints().trailing_zeros() as usize;
        let rx: Vec<Fr> = (0..log_m).map(|_| Fr::random(&mut rng)).collect();
        let eq_rx = eq_table(&rx);
        let bound = r1cs.a.bind_rows(&eq_rx);
        // Check one random column against the triplet sum.
        for col in [0usize, 1, r1cs.z_len() - 1] {
            let direct: Fr = r1cs
                .a
                .entries()
                .iter()
                .filter(|&&(_, c, _)| c == col)
                .map(|&(r, _, v)| v * eq_rx[r])
                .sum();
            assert_eq!(bound[col], direct);
        }
    }

    #[test]
    fn mle_eval_consistent_with_bind_rows() {
        // M̃(rx, ry) must equal ⟨bind_rows(eq_rx), eq_ry⟩.
        let (r1cs, _, _) = synthetic_r1cs::<Fr>(10, 4);
        let mut rng = Prg::seed_from_u64(5);
        let log_m = r1cs.padded_constraints().trailing_zeros() as usize;
        let log_n = r1cs.z_len().trailing_zeros() as usize;
        let rx: Vec<Fr> = (0..log_m).map(|_| Fr::random(&mut rng)).collect();
        let ry: Vec<Fr> = (0..log_n).map(|_| Fr::random(&mut rng)).collect();
        let eq_rx = eq_table(&rx);
        let eq_ry = eq_table(&ry);
        for m in [&r1cs.a, &r1cs.b, &r1cs.c] {
            let via_bind: Fr = m
                .bind_rows(&eq_rx)
                .iter()
                .zip(&eq_ry)
                .map(|(a, b)| *a * *b)
                .sum();
            assert_eq!(m.mle_eval(&eq_rx, &eq_ry), via_bind);
        }
    }

    #[test]
    fn combined_binding_matches_per_matrix_binding() {
        // The formula this replaced: bind each matrix, scale by its γ, add.
        let (r1cs, _, _) = synthetic_r1cs::<Fr>(37, 6);
        let mut rng = Prg::seed_from_u64(7);
        let eq_rx: Vec<Fr> = (0..r1cs.padded_constraints())
            .map(|_| Fr::random(&mut rng))
            .collect();
        let gamma: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let mut want = vec![Fr::ZERO; r1cs.z_len()];
        for (g, m) in gamma.iter().zip([&r1cs.a, &r1cs.b, &r1cs.c]) {
            for (slot, v) in want.iter_mut().zip(m.bind_rows(&eq_rx)) {
                *slot += *g * v;
            }
        }
        assert_eq!(
            r1cs.bind_rows_combined(&eq_rx, &gamma),
            padded_windows(&r1cs, &want)
        );
    }

    /// The two live windows of a padded column vector, after checking that
    /// it is zero everywhere else.
    fn padded_windows(r1cs: &R1cs<Fr>, padded: &[Fr]) -> [Vec<Fr>; 2] {
        let Windows { io, w } = r1cs.windows(padded);
        let live = (0..io.len()).chain(r1cs.half_len()..r1cs.half_len() + w.len());
        let mut rest = padded.to_vec();
        for c in live {
            rest[c] = Fr::ZERO;
        }
        assert!(rest.iter().all(|v| v.is_zero()), "padding is not zero");
        [io.to_vec(), w.to_vec()]
    }

    /// A matrix mixing the coefficient classes the kernels tell apart —
    /// 1, −1, 0, random — with duplicate `(r, c)` positions among them.
    fn mixed_matrix(rows: usize, cols: usize, nnz: usize, rng: &mut Prg) -> SparseTriplets<Fr> {
        use batchzk_field::RngCore;
        let mut entries: Vec<(usize, usize, Fr)> = Vec::with_capacity(nnz);
        for i in 0..nnz {
            let v = match rng.next_u64() % 4 {
                0 => Fr::ONE,
                1 => -Fr::ONE,
                2 => Fr::ZERO,
                _ => Fr::random(rng),
            };
            let (r, c) = match entries.get(i / 2) {
                Some(&(r, c, _)) if i % 3 == 0 => (r, c),
                _ => (rng.gen_range(0..rows), rng.gen_range(0..cols)),
            };
            entries.push((r, c, v));
        }
        SparseTriplets::new(rows, cols, entries)
    }

    #[test]
    fn sparse_kernels_match_the_plain_triplet_loop() {
        let mut rng = Prg::seed_from_u64(0x5A);
        for (log_rows, log_cols, nnz) in [(1, 2, 3), (3, 4, 40), (5, 6, 300)] {
            let (rows, cols) = (1usize << log_rows, 2usize << log_cols);
            let [a, b, c] = [(); 3].map(|()| mixed_matrix(rows, cols, nnz, &mut rng));
            let mut random =
                |n: usize| -> Vec<Fr> { (0..n).map(|_| Fr::random(&mut rng)).collect() };
            let (z, eq_x, eq_y, gamma) = (random(cols), random(rows), random(cols), random(3));
            // Every column live: the io window fills its half.
            let half = cols / 2;
            let r1cs = R1cs::new(a, b, c, rows, half - 1, half, half);
            let [z_w, eq_w] = [&z, &eq_y].map(|v| Windows {
                io: &v[..half],
                w: &v[half..],
            });

            let mut combined = vec![Fr::ZERO; cols];
            let products = r1cs.products(z_w);
            let evals = r1cs.matrix_evals(&eq_x, eq_w);
            for (k, (g, m)) in gamma.iter().zip([&r1cs.a, &r1cs.b, &r1cs.c]).enumerate() {
                let (mut mz, mut eval) = (vec![Fr::ZERO; rows], Fr::ZERO);
                for &(r, c, v) in m.entries() {
                    mz[r] += v * z[c];
                    combined[c] += *g * eq_x[r] * v;
                    eval += v * eq_x[r] * eq_y[c];
                }
                assert_eq!(products[k], mz, "products {rows}x{cols}");
                assert_eq!(evals[k], eval, "matrix_evals {rows}x{cols}");
                assert_eq!(m.mle_eval(&eq_x, &eq_y), eval, "mle_eval {rows}x{cols}");
            }
            let [io, w] = r1cs.bind_rows_combined(&eq_x, &gamma);
            assert_eq!([io, w].concat(), combined);
        }
    }

    #[test]
    fn combined_binding_multiplies_are_linear_in_nnz_and_rows() {
        use crate::counting::{count_muls, Counted};
        for s in [50usize, 400] {
            // Every coefficient of the synthetic instance is 1: no multiply
            // in the products at all. Then B in three classes — 1, −1, 2.
            let (mut r1cs, inputs, witness) = synthetic_r1cs::<Counted>(s, 8);
            let z = r1cs.assemble_z(&inputs, &witness);
            let z = r1cs.windows(&z);
            let (_, muls) = count_muls(|| r1cs.products(z));
            assert_eq!((muls.full, muls.deferred), (0, 0), "s={s}: all-ones");

            let two = Counted::ONE + Counted::ONE;
            for (i, entry) in r1cs.b.entries.iter_mut().enumerate() {
                entry.2 = [Counted::ONE, -Counted::ONE, two][i % 3];
            }
            let (nnz, general) = (r1cs.b.nnz() as u64, (r1cs.b.nnz() / 3) as u64);
            let (_, muls) = count_muls(|| r1cs.products(z));
            assert_eq!((muls.full, muls.deferred), (general, 0), "s={s}: products");

            let eq_rx = vec![Counted::ONE; r1cs.padded_constraints()];
            let gamma = [Counted::ONE; 3];
            let (_, muls) = count_muls(|| r1cs.bind_rows_combined(&eq_rx, &gamma));
            // No z_len term: nothing passes over the dense column vector.
            let bound = 3 * r1cs.num_constraints() as u64 + general;
            assert_eq!((muls.full, muls.deferred), (bound, 0), "s={s}: binding");

            // The row-wise MLE: a multiply per general non-zero, then one
            // deferred product per row and matrix (the padded formula
            // defers one per non-zero).
            let eq_ry = vec![Counted::ONE; r1cs.z_len()];
            let eq_y = r1cs.windows(&eq_ry);
            let (_, muls) = count_muls(|| r1cs.matrix_evals(&eq_rx, eq_y));
            let rows = r1cs.num_constraints() as u64;
            assert_eq!(
                (muls.full, muls.deferred),
                (general, 3 * rows),
                "s={s}: matrix_evals"
            );
            let (_, muls) = count_muls(|| r1cs.b.mle_eval(&eq_rx, &eq_ry));
            assert_eq!((muls.full, muls.deferred), (general, nnz), "s={s}: padded");
        }
    }

    #[test]
    fn io_eval_matches_the_folded_io_polynomial() {
        // 0, 1 and half_len − 1 public inputs: the sparse sum against the
        // full point's eq table equals (1 − y_top)·ĩo(y').
        let mut rng = Prg::seed_from_u64(0x10);
        for num_inputs in [0usize, 1, 7] {
            let mut b = R1csBuilder::<Fr>::new();
            for _ in 0..num_inputs {
                b.new_input();
            }
            let ws: Vec<usize> = (0..8).map(|_| b.new_witness()).collect();
            b.enforce(
                vec![(Var::Witness(ws[0]), Fr::ONE)],
                vec![(Var::Witness(ws[1]), Fr::ONE)],
                vec![(Var::Witness(ws[2]), Fr::ONE)],
            );
            let r1cs = b.build();
            assert_eq!(r1cs.half_len(), 8);
            let inputs: Vec<Fr> = (0..num_inputs).map(|_| Fr::random(&mut rng)).collect();
            let y: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
            let (y_top, y_prime) = y.split_last().unwrap();
            let folded = r1cs.io_poly(&inputs).evaluate(y_prime);
            let [eq_io, _] = r1cs.eq_windows(&y);
            assert_eq!(eq_io, eq_table(&y)[..1 + num_inputs]);
            assert_eq!(
                r1cs.io_eval(&inputs, &eq_io),
                (Fr::ONE - *y_top) * folded,
                "{num_inputs} inputs"
            );
        }
    }

    #[test]
    fn io_poly_matches_z_prefix() {
        let (r1cs, inputs, witness) = square_instance();
        let z = r1cs.assemble_z(&inputs, &witness);
        let io = r1cs.io_poly(&inputs);
        assert_eq!(io.evals(), &z[..r1cs.half_len()]);
    }

    #[test]
    #[should_panic(expected = "wrong public input count")]
    fn wrong_input_count_panics() {
        let (r1cs, _, witness) = square_instance();
        let _ = r1cs.assemble_z(&[], &witness);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_builder_panics() {
        let _ = R1csBuilder::<Fr>::new().build();
    }

    #[test]
    #[should_panic(expected = "triplet column 6 outside the io and witness windows")]
    fn triplet_in_the_padding_panics_at_construction() {
        // One input and two witnesses in halves of 4: columns 2, 3, 6 and
        // 7 are padding.
        let m = |col| SparseTriplets::new(1, 8, vec![(0, col, Fr::ONE)]);
        let _ = R1cs::new(m(0), m(4), m(5), 1, 1, 2, 4);
        let _ = R1cs::new(m(1), m(4), m(6), 1, 1, 2, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn triplet_bounds_checked() {
        let _ = SparseTriplets::new(2, 2, vec![(2, 0, Fr::ONE)]);
    }
}
