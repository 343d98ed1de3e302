//! The Spartan/Brakedown-style SNARK for R1CS — a complete member of the
//! paper's "second category" of ZKP protocols (Figure 1): commit the witness
//! with the linear-code PCS (encoder + Merkle tree), then prove constraint
//! satisfaction with two sum-checks.
//!
//! * **Sum-check #1** (degree 3): `Σ_x eq(τ,x)·(Ãz(x)·B̃z(x) − C̃z(x)) = 0`
//!   for a transcript-random `τ`, reducing satisfaction to evaluation claims
//!   `va = Ãz(rx)`, `vb`, `vc`.
//! * **Sum-check #2** (degree 2): a γ-batched claim
//!   `Σ_y (γ_a Ã(rx,y) + γ_b B̃(rx,y) + γ_c C̃(rx,y)) · z̃(y)`,
//!   reducing to one evaluation of `z̃`.
//! * **PCS opening**: `z̃` splits on its top variable into the public `ĩo`
//!   and the committed `w̃`; the PCS opens `w̃` at the bound point.
//!
//! Both sides hold `z` and every vector over its columns as the two live
//! windows of its layout ([`crate::r1cs`]), so no `2·half_len`-entry table is
//! filled: sum-check #2's first round reads the windows, and the verifier
//! builds `eq` only over the rows and columns the matrices read and
//! evaluates the sparse-matrix MLEs directly in `O(nnz)` (Spartan's SPARK
//! preprocessing is out of scope — documented in `DESIGN.md`; prover cost,
//! the paper's measured quantity, is unaffected).

use crate::pcs::{self, PcsCommitment, PcsKey, PcsOpening, PcsParams};
use crate::r1cs::{R1cs, Windows};

use batchzk_field::Field;
use batchzk_hash::Transcript;
use batchzk_sumcheck::{
    eq_eval, eq_table_prefix, eq_table_prefix_into, prove_cubic, prove_quadratic_halves,
    verify_rounds, ProverOutput, SumcheckProof,
};

/// Domain label binding every proof to this protocol version.
pub(crate) const DOMAIN: &[u8] = b"batchzk-snark-v1";

/// A complete proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof<F> {
    /// Commitment to the witness polynomial `w̃`.
    pub commitment: PcsCommitment,
    /// Round polynomials of sum-check #1 (degree 3).
    pub sc1: SumcheckProof<F>,
    /// Claimed `Ãz(rx)`.
    pub va: F,
    /// Claimed `B̃z(rx)`.
    pub vb: F,
    /// Claimed `C̃z(rx)`.
    pub vc: F,
    /// Round polynomials of sum-check #2 (degree 2).
    pub sc2: SumcheckProof<F>,
    /// Claimed `w̃(ry')`.
    pub w_eval: F,
    /// PCS opening of `w̃` at `ry'`.
    pub opening: PcsOpening<F>,
}

impl<F: Field> Proof<F> {
    /// Approximate proof size in bytes (the "several MB" figure of §2.1
    /// scales with circuit size through the PCS opening).
    pub fn size_bytes(&self) -> usize {
        let rounds = self.sc1.rounds.iter().chain(self.sc2.rounds.iter());
        let sc_elems: usize = rounds.map(|r| r.len()).sum();
        (sc_elems + 4) * 32 + self.opening.size_bytes() + 48
    }
}

/// Proves that `(inputs, witness)` satisfies `r1cs`.
///
/// # Panics
///
/// Panics if the assignment does not satisfy the instance (an honest-prover
/// API; producing proofs of false statements is not something we make
/// convenient).
pub fn prove<F: Field>(
    params: &PcsParams,
    r1cs: &R1cs<F>,
    inputs: &[F],
    witness: &[F],
) -> Proof<F> {
    let io = r1cs.io(inputs);
    let z = r1cs.live(&io, witness);
    // The sum-check below reuses the products the satisfaction check needs.
    let mut arena = vec![F::ZERO; arena_len(r1cs)];
    r1cs.products(z, &mut arena);
    assert!(
        r1cs.products_satisfy(&arena),
        "assignment does not satisfy the R1CS"
    );

    let mut transcript = Transcript::new(DOMAIN);
    absorb_statement(&mut transcript, r1cs, inputs);

    // Module 1+2 (encoder + Merkle): commit the witness half of z.
    let (commitment, pcs_data) = witness_key(*params, r1cs).commit(witness);
    transcript.absorb_digest(b"w-commitment", &commitment.root);

    // Module 3 (sum-check).
    let part = sumchecks_over(r1cs, z, &mut arena, &mut transcript);

    // Open w̃ at the bound point (all but the top variable of ry).
    let y_prime = &part.point_y[..part.point_y.len() - 1];
    let (w_eval, opening) = pcs::open(params, &pcs_data, y_prime, &mut transcript);

    Proof {
        commitment,
        sc1: part.sc1,
        va: part.va,
        vb: part.vb,
        vc: part.vc,
        sc2: part.sc2,
        w_eval,
        opening,
    }
}

/// Builds the prover/verifier transcript with the statement absorbed —
/// exposed so external harnesses (the benchmark crate) can time the
/// prover's phases individually.
pub fn statement_transcript<F: Field>(r1cs: &R1cs<F>, inputs: &[F]) -> Transcript {
    let mut transcript = Transcript::new(DOMAIN);
    absorb_statement(&mut transcript, r1cs, inputs);
    transcript
}

/// Output of the prover's sum-check phase, consumed by the PCS opening
/// phase (the hand-off between the sum-check module and proof assembly in
/// the Figure 7 pipeline).
#[derive(Debug, Clone)]
pub struct SumcheckPart<F> {
    /// Sum-check #1 rounds.
    pub sc1: SumcheckProof<F>,
    /// Claimed `Ãz(rx)`.
    pub va: F,
    /// Claimed `B̃z(rx)`.
    pub vb: F,
    /// Claimed `C̃z(rx)`.
    pub vc: F,
    /// Sum-check #2 rounds.
    pub sc2: SumcheckProof<F>,
    /// The bound point `ry` of sum-check #2 (in `(y_1, ..)` order).
    pub point_y: Vec<F>,
}

/// Elements of the one buffer the prover's sum-check phase works in (its
/// arena, DESIGN.md §16), reused phase after phase and proof after proof:
///
/// * spmv and sum-check #1: `[Az | Bz | Cz | eq levels]`, `m =
///   padded_constraints` entries each, the products folded in place;
/// * matrix-bind: `[m_io | m_w | γ_A·eq_rx ‖ γ_B·eq_rx ‖ γ_C·eq_rx]` over
///   the live columns and the constraint rows;
/// * sum-check #2: `[m_io | m_w | z_io | z_w]`, each table folded in place.
pub fn arena_len<F: Field>(r1cs: &R1cs<F>) -> usize {
    let live = 1 + r1cs.num_inputs() + r1cs.num_witness();
    let bind = live + 3 * r1cs.num_constraints();
    (4 * r1cs.padded_constraints()).max(bind).max(2 * live)
}

/// Runs both prover sum-checks over an assembled assignment, which they read
/// only in its live windows ([`R1cs::windows`]), in an arena of their own.
/// The transcript must already hold the statement and witness commitment.
///
/// # Panics
///
/// Panics if `z.len() != r1cs.z_len()`.
pub fn run_sumchecks<F: Field>(
    r1cs: &R1cs<F>,
    z: &[F],
    transcript: &mut Transcript,
) -> SumcheckPart<F> {
    let z = r1cs.windows(z);
    let mut arena = vec![F::ZERO; arena_len(r1cs)];
    r1cs.products(z, &mut arena);
    sumchecks_over(r1cs, z, &mut arena, transcript)
}

/// [`run_sumchecks`] over the live windows of `z` in `arena` (at least
/// [`arena_len`] entries), whose front holds the already computed
/// [`R1cs::products`]: each phase works in the arena in turn, and nothing
/// it held before is read but the products.
pub(crate) fn sumchecks_over<F: Field>(
    r1cs: &R1cs<F>,
    z: Windows<'_, F>,
    arena: &mut [F],
    transcript: &mut Transcript,
) -> SumcheckPart<F> {
    let sc1 = prove_outer(r1cs, arena, transcript);
    bind_matrices(r1cs, &sc1, arena, transcript);
    let sc2 = prove_inner(r1cs, z, arena, transcript);
    SumcheckPart {
        sc1: sc1.proof,
        va: sc1.final_evals[0],
        vb: sc1.final_evals[1],
        vc: sc1.final_evals[2],
        point_y: sc2.point(),
        sc2: sc2.proof,
    }
}

/// The outer constraint sum-check (#1) over the [`R1cs::products`] of the
/// assignment at the front of `arena` ([`arena_len`]'s first phase), which
/// it folds in place: draws `τ` and absorbs the three claims the rounds end
/// on (`final_evals`). Public, like [`bind_matrices`], so a profiler can
/// time the phases of [`run_sumchecks`] one by one.
pub fn prove_outer<F: Field>(
    r1cs: &R1cs<F>,
    arena: &mut [F],
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    let m = r1cs.padded_constraints();
    let tau: Vec<F> = transcript.challenge_fields(b"tau", m.trailing_zeros() as usize);
    let (az, rest) = arena.split_at_mut(m);
    let (bz, rest) = rest.split_at_mut(m);
    let (cz, rest) = rest.split_at_mut(m);
    let sc1 = prove_cubic(&tau, [az, bz, cz], &mut rest[..m], transcript);
    transcript.absorb_fields(b"sc1-claims", &sc1.final_evals);
    sc1
}

/// Draws `γ` and writes the matrix polynomial of the batched
/// matrix-opening sum-check (#2) at the point sum-check #1 bound to the
/// front of `arena`, as its two live windows `m_io ‖ m_w`
/// ([`R1cs::bind_rows_combined`]), over an `eq` table of the constraint
/// rows built in the arena behind them.
pub fn bind_matrices<F: Field>(
    r1cs: &R1cs<F>,
    sc1: &ProverOutput<F>,
    arena: &mut [F],
    transcript: &mut Transcript,
) {
    let gamma: Vec<F> = transcript.challenge_fields(b"gamma", 3);
    let rows = r1cs.num_constraints();
    let live = 1 + r1cs.num_inputs() + r1cs.num_witness();
    let (m_combo, stacked) = arena.split_at_mut(live);
    let stacked = &mut stacked[..3 * rows];
    eq_table_prefix_into(&sc1.point(), F::ONE, &mut stacked[..rows]);
    r1cs.bind_rows_combined(stacked, &gamma, m_combo);
}

/// The matrix-opening sum-check (#2) of [`bind_matrices`]' windows at the
/// front of `arena` against `z`'s, copied in behind them: `Σ_y m(y)·z̃(y)`
/// over the `z_len` columns, whose rounds sum and fold only the live pairs
/// ([`prove_quadratic_halves`]), each table in place.
pub fn prove_inner<F: Field>(
    r1cs: &R1cs<F>,
    z: Windows<'_, F>,
    arena: &mut [F],
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    let num_vars = r1cs.z_len().trailing_zeros() as usize;
    let io = 1 + r1cs.num_inputs();
    let live = io + r1cs.num_witness();
    let (m, z_copy) = arena[..2 * live].split_at_mut(live);
    let [m, [z_io, z_w]] = [m, z_copy].map(|t| <[&mut [F]; 2]>::from(t.split_at_mut(io)));
    z_io.copy_from_slice(z.io);
    z_w.copy_from_slice(z.w);
    prove_quadratic_halves(num_vars, m, [z_io, z_w], transcript)
}

/// The commitment key for the witness half of `r1cs`'s assignment — what a
/// prover or verifier of many proofs over one circuit builds once.
pub fn witness_key<F: Field>(params: PcsParams, r1cs: &R1cs<F>) -> PcsKey<F> {
    PcsKey::new(params, r1cs.half_len().trailing_zeros() as usize)
}

/// Verifies a proof against the instance and public inputs, one-shot:
/// builds the [`witness_key`] and runs [`verify_with`].
pub fn verify<F: Field>(
    params: &PcsParams,
    r1cs: &R1cs<F>,
    inputs: &[F],
    proof: &Proof<F>,
) -> bool {
    verify_with(&witness_key(*params, r1cs), r1cs, inputs, proof)
}

/// Verifies a proof against the instance and public inputs under
/// `r1cs`'s [`witness_key`]. The key pins the commitment's matrix shape: a
/// proof claiming any other is rejected, so nothing is sized from
/// prover-supplied numbers.
pub fn verify_with<F: Field>(
    key: &PcsKey<F>,
    r1cs: &R1cs<F>,
    inputs: &[F],
    proof: &Proof<F>,
) -> bool {
    if inputs.len() != r1cs.num_inputs() {
        return false;
    }
    let mut transcript = Transcript::new(DOMAIN);
    absorb_statement(&mut transcript, r1cs, inputs);
    transcript.absorb_digest(b"w-commitment", &proof.commitment.root);

    // Sum-check #1: claim is zero.
    let log_m = r1cs.padded_constraints().trailing_zeros() as usize;
    let tau: Vec<F> = transcript.challenge_fields(b"tau", log_m);
    if proof.sc1.num_rounds() != log_m {
        return false;
    }
    let Some((final1, rx_rs)) = verify_rounds(F::ZERO, &proof.sc1, 3, &mut transcript) else {
        return false;
    };
    let point_x: Vec<F> = rx_rs.iter().rev().copied().collect();
    let eq_v = eq_eval(&tau, &point_x);
    if final1 != eq_v * (proof.va * proof.vb - proof.vc) {
        return false;
    }
    transcript.absorb_fields(b"sc1-claims", &[proof.va, proof.vb, proof.vc]);

    // Sum-check #2: γ-batched matrix openings.
    let gamma: Vec<F> = transcript.challenge_fields(b"gamma", 3);
    let claim2 = gamma[0] * proof.va + gamma[1] * proof.vb + gamma[2] * proof.vc;
    let log_n = r1cs.z_len().trailing_zeros() as usize;
    if proof.sc2.num_rounds() != log_n {
        return false;
    }
    let Some((final2, ry_rs)) = verify_rounds(claim2, &proof.sc2, 2, &mut transcript) else {
        return false;
    };
    let point_y: Vec<F> = ry_rs.iter().rev().copied().collect();

    // Direct O(nnz) matrix-MLE evaluation (documented simplification),
    // with `eq` built only over the rows and column windows the matrices
    // read.
    let eq_rx = eq_table_prefix(&point_x, r1cs.num_constraints(), F::ONE);
    let [eq_io, eq_w] = r1cs.eq_windows(&point_y);
    let evals = r1cs.matrix_evals(
        &eq_rx,
        Windows {
            io: &eq_io,
            w: &eq_w,
        },
    );
    let m_eval: F = gamma.iter().zip(evals).map(|(g, e)| *g * e).sum();

    // z̃(ry) from the public io half and the committed w half.
    let (y_top, y_prime) = point_y.split_last().expect("z has a top variable");
    let z_eval = r1cs.io_eval(inputs, &eq_io) + *y_top * proof.w_eval;
    if final2 != m_eval * z_eval {
        return false;
    }

    // PCS opening of w̃.
    key.verify(
        &proof.commitment,
        y_prime,
        proof.w_eval,
        &proof.opening,
        &mut transcript,
    )
}

pub(crate) fn absorb_statement<F: Field>(
    transcript: &mut Transcript,
    r1cs: &R1cs<F>,
    inputs: &[F],
) {
    transcript.absorb_bytes(
        b"r1cs-shape",
        &[
            (r1cs.num_constraints() as u64).to_le_bytes(),
            (r1cs.num_inputs() as u64).to_le_bytes(),
            (r1cs.num_witness() as u64).to_le_bytes(),
            (r1cs.half_len() as u64).to_le_bytes(),
        ]
        .concat(),
    );
    transcript.absorb_fields(b"public-inputs", inputs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::{synthetic_r1cs, R1csBuilder, Var};
    use crate::{prove_batch_with, SpartanBackend};
    use batchzk_field::Fr;
    use batchzk_gpu_sim::{DeviceProfile, Gpu};
    use std::sync::Arc;

    fn test_params() -> PcsParams {
        PcsParams {
            num_col_tests: 16,
            ..PcsParams::default()
        }
    }

    #[test]
    fn prove_verify_roundtrip_synthetic() {
        for s in [4usize, 17, 64, 200] {
            let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(s, s as u64);
            let params = test_params();
            let proof = prove(&params, &r1cs, &inputs, &witness);
            assert!(verify(&params, &r1cs, &inputs, &proof), "s={s}");
        }
    }

    #[test]
    fn known_answer_commitment_root() {
        // Root recorded before the 4-way hash kernels were removed.
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(16, 42);
        let proof = prove(&test_params(), &r1cs, &inputs, &witness);
        assert_eq!(
            hex(&proof.commitment.root),
            "13c911efa315b06a5ff9f679210888ce3bdcca370e16fff0fdbea06b1ebec4ad"
        );
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn debug_digest(value: &impl core::fmt::Debug) -> String {
        hex(&batchzk_hash::sha256(format!("{value:?}").as_bytes()))
    }

    #[test]
    fn known_answer_proofs_and_unsatisfied_sumchecks() {
        // SHA-256 of the `Debug` rendering (canonical field elements, every
        // field of the struct), recorded at the commit before the
        // additions-only round loops: the whole proof for a satisfying
        // witness, and the sum-check phase alone for the same witness with
        // its middle element altered — there sum-check #1's claim is not
        // zero, and `g(1) = claim − g(0)` must still reproduce the bytes.
        for (s, seed, proof_digest, altered_digest) in [
            (
                16,
                42,
                "efec54d9ef59ca1de55acc7fcadc03a7a2d3342187267d09a4f9d147bf735c44",
                "7ccfa57d2d7b0bd96c3c346deac3506614a67b4001e7830fdb0578f32cd8f7b3",
            ),
            (
                200,
                7,
                "b30d25254932a1c8d3a46a16e9a440bbb1d89fdf625f3292f007ad9be5a6bd7c",
                "4fff5f1ed2a146d65561853684adb0f543c2c2f782e6ca340cb6b67cd7487a4f",
            ),
            (
                1000,
                3,
                "25d5f69b9844c80269d066ca70d221950d8424965263d40f0bd57aa7f54d767e",
                "0de677770ce8ea906ca1e5a99d76f13a20df9b156e545fe3108cb2202dc88bb5",
            ),
        ] {
            let (r1cs, inputs, mut witness) = synthetic_r1cs::<Fr>(s, seed);
            let proof = prove(&test_params(), &r1cs, &inputs, &witness);
            assert_eq!(debug_digest(&proof), proof_digest, "proof s={s}");
            // Pipelined: from the second proof on in a reused arena, from the
            // fifth (past the four stages in flight) on reused codewords.
            let backend = SpartanBackend::new(Arc::new(r1cs.clone()), test_params());
            let batch = vec![(inputs.clone(), witness.clone()); 5];
            let mut gpu = Gpu::new(DeviceProfile::a100());
            let run = prove_batch_with(&mut gpu, &backend, batch, 2048, true).expect("fits");
            for (_, proof) in &run.proofs {
                assert_eq!(debug_digest(proof), proof_digest, "pipelined s={s}");
            }

            let middle = witness.len() / 2;
            witness[middle] += Fr::ONE;
            let z = r1cs.assemble_z(&inputs, &witness);
            assert!(!r1cs.is_satisfied(&z));
            let mut transcript = statement_transcript(&r1cs, &inputs);
            let part = run_sumchecks(&r1cs, &z, &mut transcript);
            assert_eq!(debug_digest(&part), altered_digest, "altered s={s}");
        }
    }

    #[test]
    fn square_circuit_roundtrip() {
        let mut b = R1csBuilder::<Fr>::new();
        let x = b.new_input();
        let w = b.new_witness();
        b.enforce(
            vec![(Var::Witness(w), Fr::ONE)],
            vec![(Var::Witness(w), Fr::ONE)],
            vec![(Var::Input(x), Fr::ONE)],
        );
        let r1cs = b.build();
        let params = test_params();
        let proof = prove(&params, &r1cs, &[Fr::from(25u64)], &[Fr::from(5u64)]);
        assert!(verify(&params, &r1cs, &[Fr::from(25u64)], &proof));
        // Verifying against different public inputs must fail.
        assert!(!verify(&params, &r1cs, &[Fr::from(26u64)], &proof));
    }

    #[test]
    #[should_panic(expected = "does not satisfy")]
    fn proving_false_statement_panics() {
        let (r1cs, inputs, mut witness) = synthetic_r1cs::<Fr>(10, 1);
        witness[3] += Fr::ONE;
        let _ = prove(&test_params(), &r1cs, &inputs, &witness);
    }

    #[test]
    fn tampered_proofs_rejected() {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(32, 7);
        let params = test_params();
        let proof = prove(&params, &r1cs, &inputs, &witness);
        assert!(verify(&params, &r1cs, &inputs, &proof));

        // Each field tampered independently must be caught.
        let mut p = proof.clone();
        p.va += Fr::ONE;
        assert!(!verify(&params, &r1cs, &inputs, &p), "va tamper");

        let mut p = proof.clone();
        p.vc -= Fr::ONE;
        assert!(!verify(&params, &r1cs, &inputs, &p), "vc tamper");

        let mut p = proof.clone();
        p.sc1.rounds[0][1] += Fr::ONE;
        assert!(!verify(&params, &r1cs, &inputs, &p), "sc1 tamper");

        let mut p = proof.clone();
        let last = p.sc2.rounds.len() - 1;
        p.sc2.rounds[last][2] += Fr::ONE;
        assert!(!verify(&params, &r1cs, &inputs, &p), "sc2 tamper");

        let mut p = proof.clone();
        p.w_eval += Fr::ONE;
        assert!(!verify(&params, &r1cs, &inputs, &p), "w_eval tamper");

        let mut p = proof.clone();
        p.commitment.root[0] ^= 1;
        assert!(!verify(&params, &r1cs, &inputs, &p), "root tamper");

        let mut p = proof.clone();
        p.opening.combined_row[0] += Fr::ONE;
        assert!(!verify(&params, &r1cs, &inputs, &p), "opening tamper");

        let mut p = proof.clone();
        p.sc1.rounds.pop();
        assert!(!verify(&params, &r1cs, &inputs, &p), "truncated sc1");
    }

    #[test]
    fn reshaped_commitments_rejected_without_panic() {
        // The commitment's shape is prover-supplied. Whatever it claims —
        // the same table as one row, a non-power-of-two width, a zero or
        // absurd size — and whether or not the opening's rows are resized
        // to agree with it, verification says no and sizes nothing from it.
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(32, 7);
        let params = test_params();
        let proof = prove(&params, &r1cs, &inputs, &witness);
        let key = witness_key(params, &r1cs);
        assert!(verify_with(&key, &r1cs, &inputs, &proof));
        let (n_rows, n_cols) = (proof.commitment.n_rows, proof.commitment.n_cols);
        assert_eq!((n_rows, n_cols), pcs::matrix_shape(key.num_vars()));
        for (rows, cols) in [
            (1, n_rows * n_cols),
            (n_rows, n_cols - 1),
            (n_rows, n_cols * 2),
            (n_cols, n_rows * 2),
            (0, n_cols),
            (usize::MAX, 2),
        ] {
            for resize_rows in [false, true] {
                let mut p = proof.clone();
                p.commitment.n_rows = rows;
                p.commitment.n_cols = cols;
                if resize_rows {
                    p.opening.proximity_row.resize(cols, Fr::ONE);
                    p.opening.combined_row.resize(cols, Fr::ONE);
                }
                assert!(!verify_with(&key, &r1cs, &inputs, &p), "{rows}x{cols}");
                assert!(!verify(&params, &r1cs, &inputs, &p), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn proof_is_not_transferable_across_instances() {
        let (r1cs_a, inputs_a, witness_a) = synthetic_r1cs::<Fr>(16, 1);
        let (r1cs_b, inputs_b, _) = synthetic_r1cs::<Fr>(16, 2);
        let params = test_params();
        let proof = prove(&params, &r1cs_a, &inputs_a, &witness_a);
        assert!(!verify(&params, &r1cs_b, &inputs_b, &proof));
    }

    #[test]
    fn proof_clone_roundtrip() {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(16, 3);
        let params = test_params();
        let proof = prove(&params, &r1cs, &inputs, &witness);
        // No external serializer in the hermetic build: check size_bytes
        // sanity and structural clone-equality instead.
        assert!(proof.size_bytes() > 1000);
        let copy = proof.clone();
        assert_eq!(copy, proof);
        assert!(verify(&params, &r1cs, &inputs, &copy));
    }

    #[test]
    fn wrong_input_arity_rejected() {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(8, 4);
        let params = test_params();
        let proof = prove(&params, &r1cs, &inputs, &witness);
        assert!(!verify(&params, &r1cs, &[], &proof));
    }
}
