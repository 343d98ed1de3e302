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
    BackendProofRequest, StreamingProver,
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
