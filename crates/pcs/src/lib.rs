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
//! Memory layout = hashed layout. The encoded matrix lives in one flat
//! *interleaved* buffer, `codeword_len × n_rows`, codeword column `j` (the
//! `n_rows` symbols `row_0[j] … row_{n_rows-1}[j]` one Merkle leaf hashes)
//! contiguous. The encode stage produces it — its first `n_cols` columns
//! are `Mᵀ`, the rest the redundancy — and every later stage reads
//! contiguous columns of it; no second copy of the matrix exists.
//!
//! The prover API is phase-split along the pipeline seams of the Figure 7
//! schedule, one function per module stage:
//!
//! 1. [`PcsKey::commit_encode`] — transpose the matrix into the buffer and
//!    encode all rows at once (encoder module);
//! 2. [`commit_merkle`] — hash the interleaved-codeword columns into
//!    leaves and build the tree (Merkle module);
//! 3. [`open_combine`] — the proximity and evaluation combination rows,
//!    one field dot product per matrix column (sum-check-style fold
//!    arithmetic);
//! 4. [`open_queries`] — the transcript-seeded column openings with their
//!    Merkle paths, emitting the finished [`PcsOpening`].
//!
//! A [`PcsKey`] holds what depends only on the parameters and the
//! polynomial size — the matrix shape and the expander-code [`Encoder`] —
//! and is built once per prover or verifier. The free functions taking
//! `&PcsParams` ([`commit_encode`], [`commit`], [`verify`]) are one-shot
//! compositions that build a key for the call. The pipelined four-stage
//! prover built on these phases lives in `batchzk-zkp`'s `orion` module.
//!
//! Like Brakedown itself, this PCS is *not* zero-knowledge on its own (see
//! `DESIGN.md` for the documented simplifications); the paper's evaluation
//! measures prover throughput, which this does not affect.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use batchzk_encoder::{Encoder, EncoderParams};
use batchzk_field::Field;
use batchzk_hash::{sha256, Digest, Transcript};
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

/// Hashes codeword columns into Merkle leaf digests: the leaf is
/// `SHA-256(COLUMN_PREFIX ‖ canonical bytes of the column)`, assembled in
/// one buffer reused across columns so each leaf is a single contiguous
/// hash.
struct ColumnHasher {
    message: Vec<u8>,
}

impl ColumnHasher {
    fn new(n_rows: usize) -> Self {
        let mut message = COLUMN_PREFIX.to_vec();
        message.resize(COLUMN_PREFIX.len() + n_rows * 32, 0);
        Self { message }
    }

    /// The leaf digest of one column of the length given to [`Self::new`].
    fn leaf<F: Field>(&mut self, column: &[F]) -> Digest {
        F::write_canonical(column, &mut self.message[COLUMN_PREFIX.len()..]);
        sha256(&self.message)
    }
}

/// Picks the matrix shape for a `k`-variable polynomial: columns get
/// `ceil(k/2)` variables (wider than tall, the Brakedown convention).
pub fn matrix_shape(k: usize) -> (usize, usize) {
    let col_vars = k.div_ceil(2);
    let row_vars = k - col_vars;
    (1 << row_vars, 1 << col_vars)
}

/// Everything about the scheme that depends only on the parameters and
/// the polynomial size: the matrix shape and the expander-code encoder.
/// Built once per prover or verifier and shared across proofs: building it
/// samples every expander matrix, about a fifth of the time the whole
/// matrix then takes to encode.
#[derive(Debug, Clone)]
pub struct PcsKey<F> {
    params: PcsParams,
    num_vars: usize,
    n_rows: usize,
    encoder: Encoder<F>,
}

impl<F: Field> PcsKey<F> {
    /// Builds the key for `2^num_vars`-evaluation polynomials.
    pub fn new(params: PcsParams, num_vars: usize) -> Self {
        let (n_rows, n_cols) = matrix_shape(num_vars);
        Self {
            params,
            num_vars,
            n_rows,
            encoder: Encoder::new(n_cols, params.encoder, params.seed),
        }
    }

    /// The PCS parameter set.
    pub fn pcs(&self) -> &PcsParams {
        &self.params
    }

    /// Number of variables of each committed polynomial.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of matrix rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of matrix columns (the encoder message length).
    pub fn n_cols(&self) -> usize {
        self.encoder.message_len()
    }

    /// The codeword length.
    pub fn codeword_len(&self) -> usize {
        self.encoder.codeword_len()
    }

    /// Sparse-matrix non-zeros of encoding *one* row (GPU cost model).
    pub fn row_nnz(&self) -> usize {
        self.encoder.total_nnz()
    }

    /// Column queries each opening answers.
    pub fn column_tests(&self) -> usize {
        column_tests(&self.params, self.codeword_len())
    }

    /// Phase 1 of a commitment into a new buffer ([`Self::commit_encode_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `evals.len() > 2^num_vars`.
    pub fn commit_encode(&self, evals: &[F]) -> EncodedRows<F> {
        self.commit_encode_into(evals, Vec::new())
    }

    /// Phase 1 of a commitment: transpose the evaluations, viewed as the
    /// row-major `n_rows × n_cols` matrix, into the systematic prefix of
    /// the interleaved buffer `codewords`, then encode all rows at once
    /// ([`Encoder::encode_batch`] at width `n_rows`). `codewords` is empty
    /// or a buffer a commitment of this key gave back
    /// ([`PcsProverData::into_codewords`]); nothing it held is read.
    ///
    /// `evals` may be a prefix of the `2^num_vars` evaluations, the rest
    /// zero — a Spartan witness half without its padding.
    ///
    /// # Panics
    ///
    /// Panics if `evals.len() > 2^num_vars`.
    pub fn commit_encode_into(&self, evals: &[F], mut codewords: Vec<F>) -> EncodedRows<F> {
        assert!(
            evals.len() <= 1usize << self.num_vars,
            "evaluation table must fit the key's shape"
        );
        let (n_rows, n_cols) = (self.n_rows, self.n_cols());
        codewords.resize(self.codeword_len() * n_rows, F::ZERO);
        // Zero rows past `evals`; the encoder writes every later column.
        let full_rows = evals.len() / n_cols;
        for column in codewords[..n_cols * n_rows].chunks_exact_mut(n_rows) {
            column[full_rows..].fill(F::ZERO);
        }
        // Tiled, so both the row-major reads and the column-major writes
        // stay within a few cache lines per tile; then the one partial row.
        const TILE: usize = 8;
        for j0 in (0..n_cols).step_by(TILE) {
            for i0 in (0..full_rows).step_by(TILE) {
                for j in j0..(j0 + TILE).min(n_cols) {
                    for i in i0..(i0 + TILE).min(full_rows) {
                        codewords[j * n_rows + i] = evals[i * n_cols + j];
                    }
                }
            }
        }
        for (j, &v) in evals[full_rows * n_cols..].iter().enumerate() {
            codewords[j * n_rows + full_rows] = v;
        }
        self.encoder.encode_batch(n_rows, &mut codewords);
        EncodedRows {
            codewords,
            n_rows,
            n_cols,
            codeword_len: self.codeword_len(),
            row_nnz: self.row_nnz(),
        }
    }

    /// Commits to a multilinear polynomial given by its `2^num_vars`
    /// evaluations, or a prefix of them with the rest zero (both phases in
    /// one call).
    ///
    /// # Panics
    ///
    /// Panics if `evals.len() > 2^num_vars`.
    pub fn commit(&self, evals: &[F]) -> (PcsCommitment, PcsProverData<F>) {
        commit_merkle(self.commit_encode(evals))
    }

    /// Verifies an opening against a commitment. A commitment whose shape
    /// is not this key's is rejected.
    ///
    /// The transcript must be in the same state the prover's was when
    /// `open` ran (commitment already absorbed).
    pub fn verify(
        &self,
        commitment: &PcsCommitment,
        point: &[F],
        value: F,
        opening: &PcsOpening<F>,
        transcript: &mut Transcript,
    ) -> bool {
        let (n_rows, n_cols) = (self.n_rows, self.n_cols());
        if (commitment.n_rows, commitment.n_cols) != (n_rows, n_cols)
            || opening.proximity_row.len() != n_cols
            || opening.combined_row.len() != n_cols
            || point.len() != self.num_vars
        {
            return false;
        }
        let (eq_col, eq_row) = point_tensors(point, n_rows, n_cols);

        // Mirror the prover's transcript interaction.
        let gamma: Vec<F> = transcript.challenge_fields(b"pcs-gamma", n_rows);
        transcript.absorb_fields(b"pcs-proximity-row", &opening.proximity_row);
        transcript.absorb_fields(b"pcs-combined-row", &opening.combined_row);

        let expected_tests = self.column_tests();
        let indices =
            transcript.challenge_indices(b"pcs-columns", expected_tests, self.codeword_len());
        if opening.columns.len() != expected_tests {
            return false;
        }
        // Re-encode the claimed rows (the verifier's only super-logarithmic
        // work, as in Brakedown).
        let enc_proximity = self.encoder.encode(&opening.proximity_row);
        let enc_combined = self.encoder.encode(&opening.combined_row);

        let mut hasher = ColumnHasher::new(n_rows);
        for (expected_index, col) in indices.iter().zip(&opening.columns) {
            if col.index != *expected_index || col.values.len() != n_rows {
                return false;
            }
            // Merkle membership of the exact column bytes.
            if col.path.index() != col.index
                || col.path.leaf() != hasher.leaf(&col.values)
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
}

/// Output of the encoding phase of a commitment — the hand-off point
/// between the encoder module and the Merkle module in the Figure 7
/// pipeline: the interleaved codeword buffer and its shape.
#[derive(Debug)]
pub struct EncodedRows<F> {
    /// `codeword_len × n_rows`, codeword column `j` at
    /// `[j · n_rows, (j + 1) · n_rows)`; the first `n_cols` columns are the
    /// coefficient matrix, transposed.
    codewords: Vec<F>,
    n_rows: usize,
    n_cols: usize,
    codeword_len: usize,
    row_nnz: usize,
}

impl<F: Field> EncodedRows<F> {
    /// The codeword length.
    pub fn codeword_len(&self) -> usize {
        self.codeword_len
    }

    /// Number of matrix rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Encoding work in sparse-matrix non-zero terms (GPU cost model).
    pub fn encode_nnz(&self) -> usize {
        self.row_nnz * self.n_rows
    }

    /// Codeword column `j`: symbol `j` of every encoded row.
    fn column(&self, j: usize) -> &[F] {
        &self.codewords[j * self.n_rows..(j + 1) * self.n_rows]
    }
}

/// Prover-side state kept between commit and open.
#[derive(Debug)]
pub struct PcsProverData<F> {
    encoded: EncodedRows<F>,
    /// Merkle tree over column hashes.
    tree: MerkleTree,
}

impl<F: Field> PcsProverData<F> {
    /// The codeword length.
    pub fn codeword_len(&self) -> usize {
        self.encoded.codeword_len
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.encoded.n_rows
    }

    /// The codeword buffer, for the next [`PcsKey::commit_encode_into`] of
    /// the same key once this commitment has been opened.
    pub fn into_codewords(self) -> Vec<F> {
        self.encoded.codewords
    }
}

/// Phase 1 of a commitment, one-shot: builds a [`PcsKey`] for the table's
/// size and runs [`PcsKey::commit_encode`].
///
/// # Panics
///
/// Panics if `evals` is empty or not a power of two.
pub fn commit_encode<F: Field>(params: &PcsParams, evals: &[F]) -> EncodedRows<F> {
    assert!(
        !evals.is_empty() && evals.len().is_power_of_two(),
        "evaluation table must be a non-empty power of two"
    );
    PcsKey::new(*params, evals.len().trailing_zeros() as usize).commit_encode(evals)
}

/// Phase 2 of a commitment: hash codeword columns and build the Merkle
/// tree over them.
pub fn commit_merkle<F: Field>(encoded: EncodedRows<F>) -> (PcsCommitment, PcsProverData<F>) {
    let mut hasher = ColumnHasher::new(encoded.n_rows);
    let leaves = (0..encoded.codeword_len)
        .map(|j| hasher.leaf(encoded.column(j)))
        .collect();
    let tree = MerkleTree::from_leaves(leaves);
    let commitment = PcsCommitment {
        root: tree.root(),
        n_rows: encoded.n_rows,
        n_cols: encoded.n_cols,
    };
    (commitment, PcsProverData { encoded, tree })
}

/// Commits to a multilinear polynomial given by its `2^k` evaluations,
/// one-shot (see [`PcsKey::commit`]).
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
/// `eq_row(r_hi)ᵀ · M` — entry `j` of each is one field dot product with
/// matrix column `j`, contiguous in the systematic prefix of the buffer —
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
    let encoded = &data.encoded;
    let (eq_col, eq_row) = point_tensors(point, encoded.n_rows, encoded.n_cols);

    // Proximity test: a transcript-random row combination.
    let gamma: Vec<F> = transcript.challenge_fields(b"pcs-gamma", encoded.n_rows);
    let combine = |weights: &[F]| -> Vec<F> {
        (0..encoded.n_cols)
            .map(|j| F::dot(weights, encoded.column(j)))
            .collect()
    };
    let proximity_row = combine(&gamma);
    let combined_row = combine(&eq_row);
    transcript.absorb_fields(b"pcs-proximity-row", &proximity_row);
    transcript.absorb_fields(b"pcs-combined-row", &combined_row);
    CombinedRows {
        proximity_row,
        combined_row,
        eq_col,
    }
}

/// Phase 2 of an opening: draw the seeded column-query indices from the
/// transcript, copy out the opened columns with their Merkle paths, and
/// emit the evaluation with the finished proof.
pub fn open_queries<F: Field>(
    params: &PcsParams,
    data: &PcsProverData<F>,
    rows: CombinedRows<F>,
    transcript: &mut Transcript,
) -> (F, PcsOpening<F>) {
    let codeword_len = data.codeword_len();
    let indices = transcript.challenge_indices(
        b"pcs-columns",
        column_tests(params, codeword_len),
        codeword_len,
    );
    let columns: Vec<ColumnOpening<F>> = indices
        .into_iter()
        .map(|index| ColumnOpening {
            index,
            values: data.encoded.column(index).to_vec(),
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

/// Verifies an opening against a commitment, one-shot: builds a
/// [`PcsKey`] for the commitment's claimed shape and runs
/// [`PcsKey::verify`]. A shape that [`matrix_shape`] never produces, or
/// that the opening's rows do not match, is rejected before anything is
/// sized from it. A verifier that knows the polynomial size should hold a
/// key instead, which pins the shape.
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
    let (n_rows, n_cols) = (commitment.n_rows, commitment.n_cols);
    if !n_rows.is_power_of_two() || !n_cols.is_power_of_two() {
        return false;
    }
    let num_vars = (n_rows.trailing_zeros() + n_cols.trailing_zeros()) as usize;
    if matrix_shape(num_vars) != (n_rows, n_cols) || opening.combined_row.len() != n_cols {
        return false;
    }
    PcsKey::new(*params, num_vars).verify(commitment, point, value, opening, transcript)
}

#[cfg(test)]
#[path = "../../sumcheck/src/counting.rs"]
mod counting;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{count_muls, Counted};
    use batchzk_field::Fr;
    use batchzk_hash::Prg;
    use batchzk_sumcheck::MultilinearPoly;

    fn params() -> PcsParams {
        PcsParams {
            num_col_tests: 16,
            ..PcsParams::default()
        }
    }

    /// Sizes with one matrix row (k = 0, 1, 2), identity-code rows
    /// (`n_cols <= 32`: no encoder levels), and rows the expander code
    /// really encodes (k = 11, 12).
    const SIZES: [usize; 9] = [0, 1, 2, 3, 4, 6, 9, 11, 12];

    struct Opened {
        evals: Vec<Fr>,
        point: Vec<Fr>,
        commitment: PcsCommitment,
        value: Fr,
        opening: PcsOpening<Fr>,
    }

    /// A seeded polynomial committed and opened at a seeded point, with
    /// the transcript convention every test here shares.
    fn opened(k: usize, seed: u64) -> Opened {
        let mut rng = Prg::seed_from_u64(seed);
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let (commitment, data) = commit(&params(), &evals);
        let (value, opening) = open(&params(), &data, &point, &mut transcript(&commitment));
        Opened {
            evals,
            point,
            commitment,
            value,
            opening,
        }
    }

    fn transcript(commitment: &PcsCommitment) -> Transcript {
        let mut t = Transcript::new(b"pcs-test");
        t.absorb_digest(b"root", &commitment.root);
        t
    }

    fn accepts(o: &Opened, value: Fr) -> bool {
        verify(
            &params(),
            &o.commitment,
            &o.point,
            value,
            &o.opening,
            &mut transcript(&o.commitment),
        )
    }

    #[test]
    fn commit_open_verify_roundtrip() {
        for k in SIZES {
            let o = opened(k, k as u64);
            let expected = MultilinearPoly::new(o.evals.clone()).evaluate(&o.point);
            assert_eq!(o.value, expected, "k={k}: opened value is the evaluation");
            assert!(accepts(&o, o.value), "k={k}");
        }
    }

    #[test]
    fn wrong_value_rejected() {
        for k in SIZES {
            let o = opened(k, 99);
            assert!(!accepts(&o, o.value + Fr::ONE), "k={k}");
        }
    }

    #[test]
    fn tampered_combined_row_rejected() {
        let mut o = opened(8, 100);
        // Forge a combined row claiming a different value; consistency
        // checks at random columns must catch it.
        o.opening.combined_row[0] += Fr::ONE;
        let (eq_col, _) = point_tensors::<Fr>(&o.point, o.commitment.n_rows, o.commitment.n_cols);
        let forged_value = Fr::dot(&o.opening.combined_row, &eq_col);
        assert!(!accepts(&o, forged_value));
    }

    #[test]
    fn tampered_column_rejected() {
        for k in SIZES {
            let mut o = opened(k, 101);
            let last = o.opening.columns.len() - 1;
            o.opening.columns[last].values[0] += Fr::ONE;
            assert!(!accepts(&o, o.value), "k={k}");
        }
    }

    #[test]
    fn wrong_transcript_state_rejected() {
        let o = opened(6, 102);
        // Verifier forgets to absorb the root -> different challenges.
        let mut vt = Transcript::new(b"pcs-test");
        assert!(!verify(
            &params(),
            &o.commitment,
            &o.point,
            o.value,
            &o.opening,
            &mut vt
        ));
    }

    #[test]
    fn known_answer_commit_root() {
        // Roots recorded at the parent of a kernel change: k = 11 (codeword
        // length 111, not a multiple of four) before the 4-way column-hash
        // kernel was removed, k = 10 before the block function moved onto
        // the CPU's SHA extensions and column messages went through
        // `compress_blocks` whole, k = 5 (4 rows: identity code and a width
        // the IFMA encoder kernel does not take) and k = 12 (64 rows, which
        // it does) before the batch encoder moved onto that kernel.
        for (k, codeword_len, expect) in [
            (
                5,
                8,
                "3fb5e03ae443be49e2e0e5a513de4fca3264d5fd284a73f8b2c75183e55cdb55",
            ),
            (
                10,
                32,
                "4ac9b9a6d0cfd7bf2505bd15f5bcbbcd8a9a376afae5885d2645f07bc5c403c5",
            ),
            (
                11,
                111,
                "c893ca1c978e5ae7ced8671eb599bb70c972b43619699b4f03e4ea904a655d56",
            ),
            (
                12,
                111,
                "9b3bf67c10d7ff63c5b8ee7cdee1e856ef0b6eff3dffb6e7e714194ef5891deb",
            ),
        ] {
            let mut rng = Prg::seed_from_u64(108);
            let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
            let (commitment, data) = commit(&params(), &evals);
            assert_eq!(data.codeword_len(), codeword_len, "k={k}");
            let root: String = commitment.root.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(root, expect, "k={k}");
        }
    }

    #[test]
    fn interleaved_buffer_holds_the_per_row_codewords() {
        // Column j of the buffer is symbol j of every row's codeword, and
        // each leaf is the hash of the prefix followed by that column.
        let mut rng = Prg::seed_from_u64(109);
        let k = 11;
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let key = PcsKey::<Fr>::new(params(), k);
        let encoded = key.commit_encode(&evals);
        assert_eq!(encoded.encode_nnz(), key.row_nnz() * key.n_rows());
        let rows: Vec<Vec<Fr>> = evals
            .chunks(key.n_cols())
            .map(|row| key.encoder.encode(row))
            .collect();
        for j in 0..key.codeword_len() {
            let column: Vec<Fr> = rows.iter().map(|row| row[j]).collect();
            assert_eq!(encoded.column(j), column, "column {j}");
        }
        let (_, data) = commit_merkle(encoded);
        for j in [0, key.n_cols() - 1, key.n_cols(), key.codeword_len() - 1] {
            let mut message = COLUMN_PREFIX.to_vec();
            for row in &rows {
                message.extend_from_slice(&row[j].to_bytes());
            }
            assert_eq!(data.tree.open(j).leaf(), sha256(&message), "leaf {j}");
        }
    }

    #[test]
    fn a_live_prefix_commits_as_its_zero_padded_table() {
        let mut rng = Prg::seed_from_u64(110);
        for k in [1usize, 6, 9] {
            let key = PcsKey::<Fr>::new(params(), k);
            let n = 1usize << k;
            let cols = key.n_cols();
            let lens = [0, 1, cols - 1, cols, cols + 1, n / 2 + 1, n - 1, n];
            for len in lens.into_iter().filter(|&len| len <= n) {
                let live: Vec<Fr> = (0..len).map(|_| Fr::random(&mut rng)).collect();
                let mut padded = live.clone();
                padded.resize(n, Fr::ZERO);
                let want = key.commit_encode(&padded).codewords;
                assert_eq!(key.commit_encode(&live).codewords, want, "k={k} len={len}");
            }
        }
    }

    #[test]
    fn a_reused_buffer_encodes_the_fresh_bytes() {
        // Every entry a buffer held is overwritten: a codeword buffer given
        // back and filled with a non-zero pattern encodes as a new one does,
        // for full tables and for live prefixes with zero rows past them.
        let mut rng = Prg::seed_from_u64(0x38);
        for k in [4, 11, 12] {
            let key = PcsKey::<Fr>::new(params(), k);
            let (n_rows, n_cols) = matrix_shape(k);
            for len in [1 << k, (n_rows / 2) * n_cols + 3, n_cols - 1] {
                let evals: Vec<Fr> = (0..len).map(|_| Fr::random(&mut rng)).collect();
                let fresh = key.commit(&evals);
                let mut buffer = key.commit(&evals).1.into_codewords();
                buffer.fill(-Fr::ONE);
                let encoded = key.commit_encode_into(&evals, buffer);
                let case = format!("k={k} len={len}");
                assert_eq!(encoded.codewords, fresh.1.encoded.codewords, "{case}");
                assert_eq!(commit_merkle(encoded).0, fresh.0, "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must fit the key's shape")]
    fn a_table_past_the_key_panics() {
        let _ = PcsKey::<Fr>::new(params(), 3).commit_encode(&[Fr::ONE; 9]);
    }

    #[test]
    fn one_key_serves_many_polynomials_like_the_one_shot_calls() {
        let k = 9;
        let key = PcsKey::<Fr>::new(params(), k);
        for seed in 0..3 {
            let o = opened(k, 200 + seed);
            let (commitment, data) = key.commit(&o.evals);
            assert_eq!(commitment, o.commitment);
            let (value, opening) = open(key.pcs(), &data, &o.point, &mut transcript(&commitment));
            assert_eq!((value, &opening), (o.value, &o.opening));
            assert!(key.verify(
                &commitment,
                &o.point,
                value,
                &opening,
                &mut transcript(&commitment)
            ));
        }
    }

    #[test]
    fn foreign_and_malformed_shapes_rejected_without_panic() {
        let o = opened(8, 110);
        let (n_rows, n_cols) = (o.commitment.n_rows, o.commitment.n_cols);
        let reshaped = |n_rows, n_cols| {
            let mut forged = opened(8, 110);
            forged.commitment.n_rows = n_rows;
            forged.commitment.n_cols = n_cols;
            forged
        };
        for (r, c) in [
            (1, n_rows * n_cols), // same size, not the Brakedown split
            (n_rows, n_cols * 2), // the valid split of another size
            (n_rows, n_cols - 1), // not a power of two
            (0, n_cols),
            (n_rows, 0),
            (usize::MAX, usize::MAX),
        ] {
            let forged = reshaped(r, c);
            assert!(!accepts(&forged, forged.value), "one-shot {r}x{c}");
            // A key of the honest size rejects every other shape; a key of
            // the claimed size (where one exists) rejects the opening.
            let key = PcsKey::<Fr>::new(params(), 8);
            assert!(
                !key.verify(
                    &forged.commitment,
                    &forged.point,
                    forged.value,
                    &forged.opening,
                    &mut transcript(&forged.commitment)
                ),
                "keyed {r}x{c}"
            );
        }
        let other = PcsKey::<Fr>::new(params(), 9);
        assert!(!other.verify(
            &o.commitment,
            &o.point,
            o.value,
            &o.opening,
            &mut transcript(&o.commitment)
        ));
    }

    #[test]
    fn wrong_leaf_path_rejected() {
        // A correct column under a corrupted authentication path (one
        // flipped sibling byte) must fail the Merkle membership check.
        let mut o = opened(8, 106);
        let mut bytes = o.opening.columns[2].path.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        o.opening.columns[2].path = MerklePath::from_bytes(&bytes).expect("shape preserved");
        assert!(!accepts(&o, o.value));
    }

    #[test]
    fn phase_split_matches_composed_open() {
        // open_combine → open_queries must reproduce open() byte-for-byte:
        // same transcript interaction, same value, same proof.
        let o = opened(7, 107);
        let (commitment, data) = commit_merkle(commit_encode(&params(), &o.evals));
        assert_eq!(commitment, o.commitment);
        let mut t = transcript(&commitment);
        let rows = open_combine(&data, &o.point, &mut t);
        assert_eq!(rows.n_cols(), commitment.n_cols);
        let (value, opening) = open_queries(&params(), &data, rows, &mut t);
        assert_eq!(value, o.value);
        assert_eq!(opening, o.opening);
    }

    /// The portable bodies end to end. `Counted` is not a `declare_field!`
    /// type, so its encoder product, `eq` scale, `dot` and
    /// `write_canonical` are always the default bodies, while `Fr` runs
    /// whatever this host dispatches to: the same table committed, opened
    /// and verified as both must give the same root, opening, value and
    /// transcript state. k = 5 has 4-row columns (the tail only), k = 11
    /// and 12 have 32 and 64 (whole blocks). The portable opening's dots
    /// are also counted: two per matrix column (`n_rows` terms each) and
    /// the claimed value (`n_cols` terms), the combine stage's charge.
    #[test]
    fn portable_bodies_commit_and_open_the_dispatched_bytes() {
        fn wrap(v: &[Fr]) -> Vec<Counted> {
            v.iter().map(|&x| Counted(x)).collect()
        }
        fn unwrap(v: &[Counted]) -> Vec<Fr> {
            v.iter().map(|x| x.0).collect()
        }
        for k in [5, 11, 12] {
            let mut rng = Prg::seed_from_u64(0x28);
            let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
            let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
            let (commitment, data) = commit(&params(), &evals);
            let (portable_commitment, portable_data) = commit(&params(), &wrap(&evals));
            assert_eq!(portable_commitment, commitment, "k={k}: commitment");

            let (mut t, mut portable_t) = (transcript(&commitment), transcript(&commitment));
            let (value, opening) = open(&params(), &data, &point, &mut t);
            let ((portable_value, portable_opening), muls) =
                count_muls(|| open(&params(), &portable_data, &wrap(&point), &mut portable_t));
            let (n_rows, n_cols) = (commitment.n_rows as u64, commitment.n_cols as u64);
            assert_eq!(muls.deferred, n_cols * (2 * n_rows + 1), "k={k}: dot terms");
            assert_eq!(portable_value.0, value, "k={k}: value");
            assert_eq!(
                unwrap(&portable_opening.proximity_row),
                opening.proximity_row,
                "k={k}: proximity row"
            );
            assert_eq!(
                unwrap(&portable_opening.combined_row),
                opening.combined_row,
                "k={k}: combined row"
            );
            assert_eq!(portable_opening.columns.len(), opening.columns.len());
            for (p, d) in portable_opening.columns.iter().zip(&opening.columns) {
                assert_eq!(
                    (p.index, unwrap(&p.values), &p.path),
                    (d.index, d.values.clone(), &d.path),
                    "k={k}: column"
                );
            }

            let (mut v, mut portable_v) = (transcript(&commitment), transcript(&commitment));
            assert!(verify(
                &params(),
                &commitment,
                &point,
                value,
                &opening,
                &mut v
            ));
            assert!(verify(
                &params(),
                &commitment,
                &wrap(&point),
                portable_value,
                &portable_opening,
                &mut portable_v
            ));
            for (mut portable, mut dispatched) in [(portable_t, t), (portable_v, v)] {
                assert_eq!(
                    portable.challenge_bytes(b"after"),
                    dispatched.challenge_bytes(b"after"),
                    "k={k}: transcript state"
                );
            }
        }
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
        let k = 12;
        let o = opened(k, 104);
        // sqrt-ish: far below the 2^12 * 32 = 128 KiB of the full table.
        assert!(o.opening.size_bytes() < (1 << k) * 32 / 2);
    }
}
