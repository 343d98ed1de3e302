//! # batchzk-pcs
//!
//! The Brakedown/Orion linear-code polynomial commitment scheme — the
//! composition of the paper's three modules (Figure 1, second category):
//! the coefficient matrix is row-encoded with the linear-time encoder, the
//! interleaved-codeword columns are committed with a Merkle tree, and
//! evaluation claims reduce to random row combinations checked at randomly
//! opened columns.
//!
//! Layout convention: a multilinear polynomial over `k` variables is viewed
//! as an `n_rows × n_cols` matrix with the *low* `log n_cols` variables
//! indexing the column. Its evaluation factorizes as
//! `z̃(r) = eq_row(r_hi)ᵀ · M · eq_col(r_lo)`, which is what makes the
//! row-combination protocol complete.
//!
//! The prover API is phase-split along the pipeline seams of the Figure 7
//! schedule, one function per module stage:
//!
//! 1. [`commit_encode`] — arrange the matrix, encode every row (encoder
//!    module);
//! 2. [`commit_merkle`] — hash the interleaved-codeword columns into
//!    leaves and build the tree (Merkle module);
//! 3. [`open_combine`] — the proximity and evaluation combination rows,
//!    random linear combinations computed with the field dot kernels
//!    (sum-check-style fold arithmetic);
//! 4. [`open_queries`] — the transcript-seeded column openings with their
//!    Merkle paths, emitting the finished [`PcsOpening`].
//!
//! [`commit`] and [`open`] are the un-pipelined compositions; both paths
//! are byte-identical. The pipelined four-stage prover built on these
//! phases lives in `batchzk-zkp`'s `orion` module.
//!
//! Like Brakedown itself, this PCS is *not* zero-knowledge on its own (see
//! `DESIGN.md` for the documented simplifications); the paper's evaluation
//! measures prover throughput, which this does not affect.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use batchzk_encoder::{Encoder, EncoderParams};
use batchzk_field::Field;
use batchzk_hash::{Digest, Sha256, Transcript};
use batchzk_merkle::{MerklePath, MerkleTree};
use batchzk_sumcheck::eq_table;
/// Public parameters of the commitment scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcsParams {
    /// Expander-code parameters.
    pub encoder: EncoderParams,
    /// Seed for the (transparent) expander matrices.
    pub seed: u64,
    /// Number of columns opened in the consistency test. Soundness error
    /// decays exponentially in this; 64 is a sensible default, tests may
    /// lower it for speed.
    pub num_col_tests: usize,
}

impl Default for PcsParams {
    fn default() -> Self {
        Self {
            encoder: EncoderParams::default(),
            seed: 0xBA7C42,
            num_col_tests: 64,
        }
    }
}

/// A commitment: the Merkle root over codeword columns plus the public
/// matrix shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcsCommitment {
    /// Merkle root over the column hashes.
    pub root: Digest,
    /// Number of matrix rows (power of two).
    pub n_rows: usize,
    /// Number of matrix columns (power of two, the encoder message length).
    pub n_cols: usize,
}

/// Prover-side state kept between commit and open.
#[derive(Debug)]
pub struct PcsProverData<F> {
    /// The coefficient matrix, row-major (`n_rows` rows of `n_cols`).
    rows: Vec<Vec<F>>,
    /// The encoded rows (`n_rows` rows of codeword length).
    encoded: Vec<Vec<F>>,
    /// Merkle tree over column hashes.
    tree: MerkleTree,
    /// The encoder (shared with the verifier through the seed).
    encoder: Encoder<F>,
}

impl<F: Field> PcsProverData<F> {
    /// The codeword length.
    pub fn codeword_len(&self) -> usize {
        self.encoder.codeword_len()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total encoding work in sparse-matrix terms (for the GPU cost model).
    pub fn encode_nnz(&self) -> usize {
        self.encoder.total_nnz() * self.rows.len()
    }
}

/// One opened column with its authentication path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnOpening<F> {
    /// Column index in the codeword.
    pub index: usize,
    /// The column's `n_rows` field elements.
    pub values: Vec<F>,
    /// Merkle path for the column hash.
    pub path: MerklePath,
}

/// An evaluation-opening proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcsOpening<F> {
    /// `γᵀ · M` for the transcript-derived random vector γ (proximity test).
    pub proximity_row: Vec<F>,
    /// `eq_row(r_hi)ᵀ · M` (the consistency/evaluation row).
    pub combined_row: Vec<F>,
    /// The opened columns.
    pub columns: Vec<ColumnOpening<F>>,
}

impl<F: Field> PcsOpening<F> {
    /// Approximate serialized size in bytes (32 bytes per field element +
    /// path bytes) — proofs in this protocol family "reach several MB"
    /// (paper §2.1).
    pub fn size_bytes(&self) -> usize {
        let elems = self.proximity_row.len()
            + self.combined_row.len()
            + self.columns.iter().map(|c| c.values.len()).sum::<usize>();
        let paths: usize = self.columns.iter().map(|c| c.path.to_bytes().len()).sum();
        elems * 32 + paths
    }
}

/// Domain-separation prefix of every column leaf hash.
const COLUMN_PREFIX: &[u8] = b"batchzk-pcs-column";

/// Hashes one codeword column into a Merkle leaf digest.
fn hash_column<'a, F: Field>(values: impl IntoIterator<Item = &'a F>) -> Digest {
    let mut h = Sha256::new();
    h.update(COLUMN_PREFIX);
    for v in values {
        h.update(&v.to_bytes());
    }
    h.finalize()
}

/// Picks the matrix shape for a `k`-variable polynomial: columns get
/// `ceil(k/2)` variables (wider than tall, the Brakedown convention).
pub fn matrix_shape(k: usize) -> (usize, usize) {
    let col_vars = k.div_ceil(2);
    let row_vars = k - col_vars;
    (1 << row_vars, 1 << col_vars)
}

/// Output of the encoding phase of a commitment — the hand-off point
/// between the encoder module and the Merkle module in the Figure 7
/// pipeline.
#[derive(Debug)]
pub struct EncodedRows<F> {
    rows: Vec<Vec<F>>,
    encoded: Vec<Vec<F>>,
    encoder: Encoder<F>,
}

impl<F: Field> EncodedRows<F> {
    /// The codeword length.
    pub fn codeword_len(&self) -> usize {
        self.encoder.codeword_len()
    }

    /// Number of matrix rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Encoding work in sparse-matrix non-zero terms (GPU cost model).
    pub fn encode_nnz(&self) -> usize {
        self.encoder.total_nnz() * self.rows.len()
    }
}

/// Phase 1 of a commitment: arrange the evaluations as a matrix and encode
/// every row with the linear-time encoder.
///
/// # Panics
///
/// Panics if `evals` is empty or not a power of two.
pub fn commit_encode<F: Field>(params: &PcsParams, evals: &[F]) -> EncodedRows<F> {
    assert!(
        !evals.is_empty() && evals.len().is_power_of_two(),
        "evaluation table must be a non-empty power of two"
    );
    let k = evals.len().trailing_zeros() as usize;
    let (n_rows, n_cols) = matrix_shape(k);
    let rows: Vec<Vec<F>> = (0..n_rows)
        .map(|i| evals[i * n_cols..(i + 1) * n_cols].to_vec())
        .collect();
    let encoder = Encoder::new(n_cols, params.encoder, params.seed);
    let encoded: Vec<Vec<F>> = rows.iter().map(|r| encoder.encode(r)).collect();
    EncodedRows {
        rows,
        encoded,
        encoder,
    }
}

/// Phase 2 of a commitment: hash codeword columns and build the Merkle
/// tree over them.
pub fn commit_merkle<F: Field>(encoded: EncodedRows<F>) -> (PcsCommitment, PcsProverData<F>) {
    let EncodedRows {
        rows,
        encoded,
        encoder,
    } = encoded;
    let n_rows = rows.len();
    let n_cols = rows[0].len();
    let codeword_len = encoder.codeword_len();
    let leaves = (0..codeword_len)
        .map(|j| hash_column(encoded.iter().map(|row| &row[j])))
        .collect();
    let tree = MerkleTree::from_leaves(leaves);
    let commitment = PcsCommitment {
        root: tree.root(),
        n_rows,
        n_cols,
    };
    (
        commitment,
        PcsProverData {
            rows,
            encoded,
            tree,
            encoder,
        },
    )
}

/// Commits to a multilinear polynomial given by its `2^k` evaluations
/// (both phases in one call).
///
/// # Panics
///
/// Panics if `evals` is empty or not a power of two.
pub fn commit<F: Field>(params: &PcsParams, evals: &[F]) -> (PcsCommitment, PcsProverData<F>) {
    commit_merkle(commit_encode(params, evals))
}

/// Derives the two tensor halves `(eq_col, eq_row)` for an evaluation point.
fn point_tensors<F: Field>(point: &[F], n_rows: usize, n_cols: usize) -> (Vec<F>, Vec<F>) {
    let col_vars = n_cols.trailing_zeros() as usize;
    let row_vars = n_rows.trailing_zeros() as usize;
    assert_eq!(point.len(), col_vars + row_vars, "point dimension mismatch");
    let eq_col = eq_table(&point[..col_vars]);
    let eq_row = eq_table(&point[col_vars..]);
    (eq_col, eq_row)
}

/// Output of the combination phase of an opening — the hand-off point
/// between the fold-arithmetic module and the query module in the
/// pipelined prover.
#[derive(Debug)]
pub struct CombinedRows<F> {
    proximity_row: Vec<F>,
    combined_row: Vec<F>,
    eq_col: Vec<F>,
}

impl<F: Field> CombinedRows<F> {
    /// Number of matrix columns both rows span.
    pub fn n_cols(&self) -> usize {
        self.combined_row.len()
    }

    /// The claimed evaluation `⟨combined_row, eq_col⟩`.
    pub fn value(&self) -> F {
        F::dot(&self.combined_row, &self.eq_col)
    }
}

/// Phase 1 of an opening: derive the proximity challenge γ from the
/// transcript and compute the two combination rows `γᵀ · M` and
/// `eq_row(r_hi)ᵀ · M` (the field dot kernels of the sum-check module),
/// absorbing both into the transcript. The caller must have absorbed the
/// commitment into the transcript (prover and verifier symmetrically).
///
/// # Panics
///
/// Panics if `point` has the wrong dimension.
pub fn open_combine<F: Field>(
    data: &PcsProverData<F>,
    point: &[F],
    transcript: &mut Transcript,
) -> CombinedRows<F> {
    let n_rows = data.rows.len();
    let n_cols = data.rows[0].len();
    let (eq_col, eq_row) = point_tensors(point, n_rows, n_cols);

    // Proximity test: a transcript-random row combination.
    let gamma: Vec<F> = transcript.challenge_fields(b"pcs-gamma", n_rows);
    let mut proximity_row = vec![F::ZERO; n_cols];
    let mut combined_row = vec![F::ZERO; n_cols];
    for (i, row) in data.rows.iter().enumerate() {
        for (j, &m) in row.iter().enumerate() {
            proximity_row[j] += gamma[i] * m;
            combined_row[j] += eq_row[i] * m;
        }
    }
    transcript.absorb_fields(b"pcs-proximity-row", &proximity_row);
    transcript.absorb_fields(b"pcs-combined-row", &combined_row);
    CombinedRows {
        proximity_row,
        combined_row,
        eq_col,
    }
}

/// Phase 2 of an opening: draw the seeded column-query indices from the
/// transcript, gather the opened columns with their Merkle paths, and emit
/// the evaluation with the finished proof.
pub fn open_queries<F: Field>(
    params: &PcsParams,
    data: &PcsProverData<F>,
    rows: CombinedRows<F>,
    transcript: &mut Transcript,
) -> (F, PcsOpening<F>) {
    let n_rows = data.rows.len();
    let codeword_len = data.codeword_len();
    let indices = transcript.challenge_indices(
        b"pcs-columns",
        column_tests_for(n_rows, params, codeword_len),
        codeword_len,
    );
    let columns: Vec<ColumnOpening<F>> = indices
        .into_iter()
        .map(|index| ColumnOpening {
            index,
            values: data.encoded.iter().map(|row| row[index]).collect(),
            path: data.tree.open(index),
        })
        .collect();

    let value = rows.value();
    (
        value,
        PcsOpening {
            proximity_row: rows.proximity_row,
            combined_row: rows.combined_row,
            columns,
        },
    )
}

/// Opens the committed polynomial at `point`, returning the evaluation and
/// the opening proof — the composition of [`open_combine`] and
/// [`open_queries`] in one call. The caller must have absorbed the
/// commitment into the transcript (prover and verifier symmetrically).
///
/// # Panics
///
/// Panics if `point` has the wrong dimension.
pub fn open<F: Field>(
    params: &PcsParams,
    data: &PcsProverData<F>,
    point: &[F],
    transcript: &mut Transcript,
) -> (F, PcsOpening<F>) {
    let rows = open_combine(data, point, transcript);
    open_queries(params, data, rows, transcript)
}

/// Number of column tests an opening at this codeword length performs
/// (capped at the codeword length — opening more columns than exist adds
/// nothing). Public so work models can charge the query phase exactly.
pub fn column_tests(params: &PcsParams, codeword_len: usize) -> usize {
    params.num_col_tests.min(codeword_len)
}

fn column_tests_for(_n_rows: usize, params: &PcsParams, codeword_len: usize) -> usize {
    column_tests(params, codeword_len)
}

/// Verifies an opening against a commitment.
///
/// The transcript must be in the same state the prover's was when `open`
/// ran (commitment already absorbed).
pub fn verify<F: Field>(
    params: &PcsParams,
    commitment: &PcsCommitment,
    point: &[F],
    value: F,
    opening: &PcsOpening<F>,
    transcript: &mut Transcript,
) -> bool {
    let n_rows = commitment.n_rows;
    let n_cols = commitment.n_cols;
    if opening.proximity_row.len() != n_cols || opening.combined_row.len() != n_cols {
        return false;
    }
    let col_vars = n_cols.trailing_zeros() as usize;
    let row_vars = n_rows.trailing_zeros() as usize;
    if point.len() != col_vars + row_vars {
        return false;
    }
    let (eq_col, eq_row) = point_tensors(point, n_rows, n_cols);

    // Mirror the prover's transcript interaction.
    let gamma: Vec<F> = transcript.challenge_fields(b"pcs-gamma", n_rows);
    transcript.absorb_fields(b"pcs-proximity-row", &opening.proximity_row);
    transcript.absorb_fields(b"pcs-combined-row", &opening.combined_row);

    // Re-encode the claimed rows (the verifier's only super-logarithmic
    // work, as in Brakedown).
    let encoder = Encoder::<F>::new(n_cols, params.encoder, params.seed);
    let codeword_len = encoder.codeword_len();
    let expected_tests = column_tests_for(n_rows, params, codeword_len);
    let indices = transcript.challenge_indices(b"pcs-columns", expected_tests, codeword_len);
    if opening.columns.len() != expected_tests {
        return false;
    }
    let enc_proximity = encoder.encode(&opening.proximity_row);
    let enc_combined = encoder.encode(&opening.combined_row);

    for (expected_index, col) in indices.iter().zip(&opening.columns) {
        if col.index != *expected_index || col.values.len() != n_rows {
            return false;
        }
        // Merkle membership of the exact column bytes.
        if col.path.index() != col.index
            || col.path.leaf() != hash_column(&col.values)
            || !col.path.verify(&commitment.root)
        {
            return false;
        }
        // Proximity: γᵀ · U[:, j] == enc(γᵀ · M)[j].
        if F::dot(&gamma, &col.values) != enc_proximity[col.index] {
            return false;
        }
        // Consistency: eq_rowᵀ · U[:, j] == enc(eq_rowᵀ · M)[j].
        if F::dot(&eq_row, &col.values) != enc_combined[col.index] {
            return false;
        }
    }

    // Final evaluation: ⟨combined_row, eq_col⟩ must equal the claim.
    F::dot(&opening.combined_row, &eq_col) == value
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;
    use batchzk_hash::Prg;
    use batchzk_sumcheck::MultilinearPoly;

    fn params() -> PcsParams {
        PcsParams {
            num_col_tests: 16,
            ..PcsParams::default()
        }
    }

    fn roundtrip(k: usize, seed: u64) -> bool {
        let mut rng = Prg::seed_from_u64(seed);
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let poly = MultilinearPoly::new(evals.clone());
        let expected = poly.evaluate(&point);

        let p = params();
        let (commitment, data) = commit(&p, &evals);
        let mut pt = Transcript::new(b"pcs-test");
        pt.absorb_digest(b"root", &commitment.root);
        let (value, opening) = open(&p, &data, &point, &mut pt);
        assert_eq!(value, expected, "opened value must be the evaluation");

        let mut vt = Transcript::new(b"pcs-test");
        vt.absorb_digest(b"root", &commitment.root);
        verify(&p, &commitment, &point, value, &opening, &mut vt)
    }

    #[test]
    fn commit_open_verify_roundtrip() {
        for k in [2usize, 4, 6, 9, 12] {
            assert!(roundtrip(k, k as u64), "k={k}");
        }
    }

    #[test]
    fn wrong_value_rejected() {
        let mut rng = Prg::seed_from_u64(99);
        let k = 8;
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let p = params();
        let (commitment, data) = commit(&p, &evals);
        let mut pt = Transcript::new(b"t");
        pt.absorb_digest(b"root", &commitment.root);
        let (value, opening) = open(&p, &data, &point, &mut pt);
        let mut vt = Transcript::new(b"t");
        vt.absorb_digest(b"root", &commitment.root);
        assert!(!verify(
            &p,
            &commitment,
            &point,
            value + Fr::ONE,
            &opening,
            &mut vt
        ));
    }

    #[test]
    fn tampered_combined_row_rejected() {
        let mut rng = Prg::seed_from_u64(100);
        let k = 8;
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let p = params();
        let (commitment, data) = commit(&p, &evals);
        let mut pt = Transcript::new(b"t");
        pt.absorb_digest(b"root", &commitment.root);
        let (_value, mut opening) = open(&p, &data, &point, &mut pt);
        // Forge a combined row claiming a different value; consistency
        // checks at random columns must catch it.
        opening.combined_row[0] += Fr::ONE;
        let forged_value: Fr = {
            let (eq_col, _) = point_tensors::<Fr>(&point, commitment.n_rows, commitment.n_cols);
            opening
                .combined_row
                .iter()
                .zip(&eq_col)
                .map(|(a, b)| *a * *b)
                .sum()
        };
        let mut vt = Transcript::new(b"t");
        vt.absorb_digest(b"root", &commitment.root);
        assert!(!verify(
            &p,
            &commitment,
            &point,
            forged_value,
            &opening,
            &mut vt
        ));
    }

    #[test]
    fn tampered_column_rejected() {
        let mut rng = Prg::seed_from_u64(101);
        let k = 8;
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let p = params();
        let (commitment, data) = commit(&p, &evals);
        let mut pt = Transcript::new(b"t");
        pt.absorb_digest(b"root", &commitment.root);
        let (value, mut opening) = open(&p, &data, &point, &mut pt);
        opening.columns[3].values[0] += Fr::ONE;
        let mut vt = Transcript::new(b"t");
        vt.absorb_digest(b"root", &commitment.root);
        assert!(!verify(&p, &commitment, &point, value, &opening, &mut vt));
    }

    #[test]
    fn wrong_transcript_state_rejected() {
        let mut rng = Prg::seed_from_u64(102);
        let k = 6;
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let p = params();
        let (commitment, data) = commit(&p, &evals);
        let mut pt = Transcript::new(b"t");
        pt.absorb_digest(b"root", &commitment.root);
        let (value, opening) = open(&p, &data, &point, &mut pt);
        // Verifier forgets to absorb the root -> different challenges.
        let mut vt = Transcript::new(b"t");
        assert!(!verify(&p, &commitment, &point, value, &opening, &mut vt));
    }

    #[test]
    fn known_answer_commit_root() {
        // Root recorded before the 4-way column-hash kernel was removed;
        // k = 11 gives a codeword length of 111, not a multiple of four.
        let mut rng = Prg::seed_from_u64(108);
        let evals: Vec<Fr> = (0..1usize << 11).map(|_| Fr::random(&mut rng)).collect();
        let (commitment, data) = commit(&params(), &evals);
        assert_eq!(data.codeword_len(), 111);
        let root: String = commitment.root.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            root,
            "c893ca1c978e5ae7ced8671eb599bb70c972b43619699b4f03e4ea904a655d56"
        );
    }

    #[test]
    fn wrong_leaf_path_rejected() {
        // A correct column under a corrupted authentication path (one
        // flipped sibling byte) must fail the Merkle membership check.
        let mut rng = Prg::seed_from_u64(106);
        let k = 8;
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let p = params();
        let (commitment, data) = commit(&p, &evals);
        let mut pt = Transcript::new(b"t");
        pt.absorb_digest(b"root", &commitment.root);
        let (value, mut opening) = open(&p, &data, &point, &mut pt);
        let mut bytes = opening.columns[2].path.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        opening.columns[2].path = MerklePath::from_bytes(&bytes).expect("shape preserved");
        let mut vt = Transcript::new(b"t");
        vt.absorb_digest(b"root", &commitment.root);
        assert!(!verify(&p, &commitment, &point, value, &opening, &mut vt));
    }

    #[test]
    fn phase_split_matches_composed_open() {
        // open_combine → open_queries must reproduce open() byte-for-byte:
        // same transcript interaction, same value, same proof.
        let mut rng = Prg::seed_from_u64(107);
        let k = 7;
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let p = params();
        let (commitment, data) = commit(&p, &evals);
        let mut t1 = Transcript::new(b"t");
        t1.absorb_digest(b"root", &commitment.root);
        let (v1, o1) = open(&p, &data, &point, &mut t1);
        let mut t2 = Transcript::new(b"t");
        t2.absorb_digest(b"root", &commitment.root);
        let rows = open_combine(&data, &point, &mut t2);
        assert_eq!(rows.n_cols(), commitment.n_cols);
        let (v2, o2) = open_queries(&p, &data, rows, &mut t2);
        assert_eq!(v1, v2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn commitment_binds_polynomial() {
        let mut rng = Prg::seed_from_u64(103);
        let k = 6;
        let a: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let mut b = a.clone();
        b[5] += Fr::ONE;
        let p = params();
        let (ca, _) = commit(&p, &a);
        let (cb, _) = commit(&p, &b);
        assert_ne!(ca.root, cb.root);
    }

    #[test]
    fn matrix_shape_splits_variables() {
        assert_eq!(matrix_shape(4), (4, 4));
        assert_eq!(matrix_shape(5), (4, 8)); // wider than tall
        assert_eq!(matrix_shape(1), (1, 2));
        assert_eq!(matrix_shape(0), (1, 1));
    }

    #[test]
    fn opening_size_is_sublinear() {
        let mut rng = Prg::seed_from_u64(104);
        let k = 12;
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let p = params();
        let (commitment, data) = commit(&p, &evals);
        let mut pt = Transcript::new(b"t");
        pt.absorb_digest(b"root", &commitment.root);
        let (_, opening) = open(&p, &data, &point, &mut pt);
        // sqrt-ish: far below the 2^12 * 32 = 128 KiB of the full table.
        assert!(opening.size_bytes() < (1 << k) * 32 / 2);
    }
}
