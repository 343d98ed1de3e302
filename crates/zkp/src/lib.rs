//! # batchzk-zkp
//!
//! The complete zero-knowledge-proof system of the BatchZK reproduction:
//! R1CS circuits, the Brakedown/Orion linear-code polynomial commitment
//! (encoder + Merkle tree, in [`batchzk_pcs`] and re-exported as [`pcs`]),
//! the Spartan-style two-sum-check SNARK, the fully pipelined batch prover
//! of the paper's Figure 7, and the pipelined standalone PCS-opening
//! prover ([`orion`]).
//!
//! # Examples
//!
//! ```
//! use batchzk_zkp::{PcsParams, prove, verify};
//! use batchzk_zkp::r1cs::synthetic_r1cs;
//! use batchzk_field::Fr;
//!
//! let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(16, 7);
//! let params = PcsParams { num_col_tests: 16, ..PcsParams::default() };
//! let proof = prove(&params, &r1cs, &inputs, &witness);
//! assert!(verify(&params, &r1cs, &inputs, &proof));
//! ```

pub mod backend;
pub mod batch;
mod commit;
#[cfg(test)]
#[path = "../../sumcheck/src/counting.rs"]
mod counting;
pub mod orion;
pub mod r1cs;
pub mod spartan;

/// The Brakedown/Orion linear-code polynomial commitment, re-exported from
/// its own crate ([`batchzk_pcs`]) so `batchzk_zkp::pcs` paths keep
/// working.
pub use batchzk_pcs as pcs;

pub use backend::{
    GrothBackend, Mixed, MixedBackend, MixedInstance, MixedProof, MixedStatement, MixedTask,
    ProverBackend, SpartanBackend, BACKEND_NAMES,
};
pub use batch::{
    prove_batch_naive_with, prove_batch_pool_with, prove_batch_with, prove_service_with,
    record_pool_outcome, task_footprint_bytes, BackendBatchRun, BackendPoolRun,
    BackendProofRequest,
};
pub use orion::{OrionBackend, OrionProof, OrionTask};
pub use pcs::{PcsCommitment, PcsOpening, PcsParams};
pub use r1cs::{R1cs, R1csBuilder, Var};
pub use spartan::{prove, verify, Proof};

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use batchzk_field::{Field, Fr, RngCore, SplitMix64};
    use r1cs::{R1csBuilder, Var};

    fn params() -> PcsParams {
        PcsParams {
            num_col_tests: 8,
            ..PcsParams::default()
        }
    }

    /// A random multiplication-chain circuit with a random witness.
    fn instance(rng: &mut SplitMix64) -> (R1cs<Fr>, Vec<Fr>, Vec<Fr>) {
        let s = rng.gen_range(2..24);
        let seed = rng.next_u64();
        r1cs::synthetic_r1cs(s, seed)
    }

    #[test]
    fn prove_verify_roundtrip() {
        let mut rng = SplitMix64::seed_from_u64(0x21);
        for _ in 0..6 {
            let (r1cs, inputs, witness) = instance(&mut rng);
            let proof = prove(&params(), &r1cs, &inputs, &witness);
            assert!(verify(&params(), &r1cs, &inputs, &proof));
        }
    }

    #[test]
    fn wrong_public_input_rejected() {
        let mut rng = SplitMix64::seed_from_u64(0x22);
        for _ in 0..4 {
            let (r1cs, inputs, witness) = instance(&mut rng);
            let delta = rng.gen_range(1..1000) as u64;
            let proof = prove(&params(), &r1cs, &inputs, &witness);
            let mut bad = inputs.clone();
            bad[0] += Fr::from(delta);
            assert!(!verify(&params(), &r1cs, &bad, &proof));
        }
    }

    /// A random satisfiable circuit with `num_inputs` inputs and
    /// `num_witness` witnesses: each constraint multiplies two random
    /// combinations (coefficients 1, −1 or random) and equals one random
    /// term plus the constant that makes it hold. The first constraint reads
    /// the last input and the last witness, so both windows are read to
    /// their ends.
    fn windowed_instance(
        rng: &mut SplitMix64,
        num_inputs: usize,
        num_witness: usize,
    ) -> (R1cs<Fr>, Vec<Fr>, Vec<Fr>) {
        let mut b = R1csBuilder::<Fr>::new();
        let mut vars = vec![Var::One];
        vars.extend((0..num_inputs).map(|_| Var::Input(b.new_input())));
        vars.extend((0..num_witness).map(|_| Var::Witness(b.new_witness())));
        let inputs: Vec<Fr> = (0..num_inputs).map(|_| Fr::random(rng)).collect();
        let witness: Vec<Fr> = (0..num_witness).map(|_| Fr::random(rng)).collect();
        let value = |v: Var| match v {
            Var::One => Fr::ONE,
            Var::Input(i) => inputs[i],
            Var::Witness(i) => witness[i],
        };
        let eval = |lc: &[(Var, Fr)]| lc.iter().map(|&(v, c)| c * value(v)).sum::<Fr>();
        for k in 0..rng.gen_range(1..12) {
            let term = |rng: &mut SplitMix64| {
                let v = vars[rng.gen_range(0..vars.len())];
                let c = [Fr::ONE, -Fr::ONE, Fr::random(rng)][rng.gen_range(0..3)];
                (v, c)
            };
            let lc = |rng: &mut SplitMix64| -> Vec<(Var, Fr)> {
                (0..rng.gen_range(1..4)).map(|_| term(rng)).collect()
            };
            let (mut a, bl, mut c) = (lc(rng), lc(rng), vec![term(rng)]);
            if k == 0 {
                a.push((vars[num_inputs], Fr::ONE));
                c.push((*vars.last().unwrap(), Fr::ONE));
            }
            c.push((Var::One, eval(&a) * eval(&bl) - eval(&c)));
            b.enforce(a, bl, c);
        }
        (b.build(), inputs, witness)
    }

    #[test]
    fn windowed_spartan_matches_the_padded_formulas() {
        use batchzk_hash::Transcript;
        use batchzk_sumcheck::{
            eq_table, eq_table_prefix, prove_quadratic_halves, MultilinearPoly,
        };
        let mut rng = SplitMix64::seed_from_u64(0x36);
        let random = |rng: &mut SplitMix64, n: usize| -> Vec<Fr> {
            (0..n).map(|_| Fr::random(rng)).collect()
        };
        for rep in 0..24 {
            // Halves of `half` entries; the witness count at 1, just past a
            // quarter of z, the full half, or random, and the inputs long
            // enough that the layout keeps its size.
            let half = 4usize << rng.gen_range(0..4);
            let num_witness = match rep % 4 {
                0 => 1,
                1 => half / 2 + 1,
                2 => half,
                _ => rng.gen_range(1..half + 1),
            };
            let num_inputs = if num_witness > half / 2 {
                rng.gen_range(0..half)
            } else {
                rng.gen_range(half / 2..half)
            };
            let case = format!("rep {rep}: {num_inputs} inputs, {num_witness} witnesses");
            let (r1cs, inputs, witness) = windowed_instance(&mut rng, num_inputs, num_witness);
            assert_eq!(r1cs.half_len(), half, "{case}");
            let z = r1cs.assemble_z(&inputs, &witness);
            assert!(r1cs.is_satisfied(&z), "{case}");
            let log_m = r1cs.padded_constraints().trailing_zeros() as usize;
            let log_n = r1cs.z_len().trailing_zeros() as usize;
            let (rx, ry, gamma) = (
                random(&mut rng, log_m),
                random(&mut rng, log_n),
                random(&mut rng, 3),
            );
            let (eq_rx, eq_ry) = (eq_table(&rx), eq_table(&ry));

            // The eq builders against slices of the full tables.
            let rows = r1cs.num_constraints();
            let eq_rows = eq_table_prefix(&rx, rows, Fr::ONE);
            assert_eq!(eq_rows, eq_rx[..rows], "{case}: eq rows");
            let [eq_io, eq_w] = r1cs.eq_windows(&ry);
            assert_eq!(eq_io, eq_ry[..1 + num_inputs], "{case}: eq io");
            assert_eq!(eq_w, eq_ry[half..half + num_witness], "{case}: eq w");

            // Sum-check #2 over the windows against the padded tables.
            let mut padded = vec![Fr::ZERO; r1cs.z_len()];
            let matrices = r1cs::tests::triplets(&r1cs);
            for (g, m) in gamma.iter().zip(&matrices) {
                let bound = r1cs::tests::bind_rows(m, r1cs.z_len(), &eq_rows);
                for (slot, v) in padded.iter_mut().zip(bound) {
                    *slot += *g * v;
                }
            }
            let m_combo = r1cs::tests::bind(&r1cs, &eq_rows, &gamma).concat();
            assert_eq!(
                m_combo,
                [&padded[..1 + num_inputs], &padded[half..half + num_witness]].concat(),
                "{case}: bind"
            );
            // In an arena holding no zeros, as reused storage does.
            let mut arena = vec![-Fr::ONE; spartan::arena_len(&r1cs)];
            arena[..m_combo.len()].copy_from_slice(&m_combo);
            let (mut wt, mut pt) = (Transcript::new(b"sc2"), Transcript::new(b"sc2"));
            let windowed = spartan::prove_inner(&r1cs, r1cs.windows(&z), &mut arena, &mut wt);
            // The full-table prover: both tables zero-padded, split at
            // their top variable.
            let (mut m_full, mut z_full) = (padded, z.clone());
            let full = prove_quadratic_halves(
                log_n,
                m_full.split_at_mut(half).into(),
                z_full.split_at_mut(half).into(),
                &mut pt,
            );
            assert_eq!(windowed.proof, full.proof, "{case}: sc2 rounds");
            assert_eq!(windowed.rs, full.rs, "{case}: sc2 challenges");
            assert_eq!(windowed.final_evals, full.final_evals, "{case}: sc2 final");
            let [after_w, after_p] = [wt, pt].map(|mut t| t.challenge_field::<Fr>(b"after"));
            assert_eq!(after_w, after_p, "{case}: transcript state");

            // The verifier's m_eval and z_eval against the padded formulas.
            let evals = r1cs.matrix_evals(
                &eq_rows,
                r1cs::Windows {
                    io: &eq_io,
                    w: &eq_w,
                },
            );
            for (k, m) in matrices.iter().enumerate() {
                let want = r1cs::tests::mle_eval(m, &eq_rx, &eq_ry);
                assert_eq!(evals[k], want, "{case}: matrix {k}");
            }
            let (y_top, y_prime) = ry.split_last().unwrap();
            let w_eval = MultilinearPoly::new(z[half..].to_vec()).evaluate(y_prime);
            let z_eval = r1cs.io_eval(&inputs, &eq_io) + *y_top * w_eval;
            let z_poly = MultilinearPoly::new(z.clone());
            assert_eq!(z_eval, z_poly.evaluate(&ry), "{case}: z_eval");

            // Honest proofs verify; a tampered claim or sc2 round does not.
            let key = spartan::witness_key(params(), &r1cs);
            let proof = prove(&params(), &r1cs, &inputs, &witness);
            assert!(spartan::verify_with(&key, &r1cs, &inputs, &proof), "{case}");
            let last = proof.sc2.rounds.len() - 1;
            for what in ["va", "w_eval", "sc2 round 1", "sc2 last round"] {
                let mut bad = proof.clone();
                match what {
                    "va" => bad.va += Fr::ONE,
                    "w_eval" => bad.w_eval += Fr::ONE,
                    "sc2 round 1" => bad.sc2.rounds[0][1] += Fr::ONE,
                    _ => bad.sc2.rounds[last][2] += Fr::ONE,
                }
                let ok = spartan::verify_with(&key, &r1cs, &inputs, &bad);
                assert!(!ok, "{case}: {what}");
            }
        }
    }

    #[test]
    fn square_circuit_family() {
        let mut rng = SplitMix64::seed_from_u64(0x23);
        for _ in 0..4 {
            // w^2 = x for arbitrary w.
            let w = rng.gen_range(2..100_000) as u64;
            let mut b = R1csBuilder::<Fr>::new();
            let x = b.new_input();
            let wit = b.new_witness();
            b.enforce(
                vec![(Var::Witness(wit), Fr::ONE)],
                vec![(Var::Witness(wit), Fr::ONE)],
                vec![(Var::Input(x), Fr::ONE)],
            );
            let r1cs = b.build();
            let input = Fr::from(w) * Fr::from(w);
            let proof = prove(&params(), &r1cs, &[input], &[Fr::from(w)]);
            assert!(verify(&params(), &r1cs, &[input], &proof));
            // And -w is the other valid witness; w+1 is not.
            assert!(r1cs.is_satisfied(&r1cs.assemble_z(&[input], &[-Fr::from(w)])));
            assert!(!r1cs.is_satisfied(&r1cs.assemble_z(&[input], &[Fr::from(w + 1)])));
        }
    }
}
