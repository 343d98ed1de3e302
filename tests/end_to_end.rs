//! Cross-crate integration tests: the full proof system end to end,
//! including serialization, failure injection, and batch/single
//! equivalence.

use std::sync::Arc;

use batchzk::field::{Field, Fr};
use batchzk::gpu_sim::{DeviceProfile, Gpu};
use batchzk::zkp::r1cs::synthetic_r1cs;
use batchzk::zkp::{prove, prove_batch_with, verify, PcsParams, Proof, SpartanBackend};

fn params() -> PcsParams {
    PcsParams {
        num_col_tests: 16,
        ..PcsParams::default()
    }
}

#[test]
fn prove_verify_across_sizes() {
    for log in [4u32, 6, 8, 10] {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1 << log, log as u64);
        let proof = prove(&params(), &r1cs, &inputs, &witness);
        assert!(verify(&params(), &r1cs, &inputs, &proof), "log={log}");
    }
}

#[test]
fn proof_component_byte_codecs_roundtrip() {
    // No serde *format* crate is in the approved dependency set, so the
    // wire-level check exercises the canonical byte codecs the proof embeds
    // (field elements and Merkle paths); the derived serde impls are thin
    // wrappers over exactly these bytes.
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(64, 3);
    let proof: Proof<Fr> = prove(&params(), &r1cs, &inputs, &witness);
    assert_eq!(Fr::from_bytes(&proof.va.to_bytes()), Some(proof.va));
    for col in &proof.opening.columns {
        let decoded =
            batchzk::merkle::MerklePath::from_bytes(&col.path.to_bytes()).expect("decodes");
        assert_eq!(decoded, col.path);
    }
    assert!(verify(&params(), &r1cs, &inputs, &proof.clone()));
}

#[test]
fn batch_and_single_prover_agree_everywhere() {
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(128, 9);
    let r1cs = Arc::new(r1cs);
    let single = prove(&params(), &r1cs, &inputs, &witness);
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let run = prove_batch_with(
        &mut gpu,
        &SpartanBackend::new(Arc::clone(&r1cs), params()),
        vec![(inputs.clone(), witness.clone()); 5],
        4096,
        true,
    )
    .expect("fits");
    for (_, proof) in &run.proofs {
        assert_eq!(*proof, single);
    }
}

#[test]
fn every_tamper_site_is_rejected() {
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(64, 11);
    let p = params();
    let proof = prove(&p, &r1cs, &inputs, &witness);
    assert!(verify(&p, &r1cs, &inputs, &proof));

    // Flip one bit in each serialized field element of the sum-check
    // rounds; every single mutation must be rejected.
    for round in 0..proof.sc1.rounds.len().min(3) {
        for slot in 0..proof.sc1.rounds[round].len() {
            let mut bad = proof.clone();
            bad.sc1.rounds[round][slot] += Fr::ONE;
            assert!(
                !verify(&p, &r1cs, &inputs, &bad),
                "sc1 round {round} slot {slot} tamper accepted"
            );
        }
    }
    for slot in 0..3 {
        let mut bad = proof.clone();
        match slot {
            0 => bad.va += Fr::ONE,
            1 => bad.vb += Fr::ONE,
            _ => bad.vc += Fr::ONE,
        }
        assert!(!verify(&p, &r1cs, &inputs, &bad));
    }
    // Column openings: tamper value, index, and path independently.
    let mut bad = proof.clone();
    bad.opening.columns[0].values[0] += Fr::ONE;
    assert!(!verify(&p, &r1cs, &inputs, &bad));
    let mut bad = proof.clone();
    bad.opening.columns[0].index ^= 1;
    assert!(!verify(&p, &r1cs, &inputs, &bad));
    let mut bad = proof.clone();
    bad.opening.columns.swap(0, 1);
    assert!(!verify(&p, &r1cs, &inputs, &bad));
    // Dropping a column.
    let mut bad = proof.clone();
    bad.opening.columns.pop();
    assert!(!verify(&p, &r1cs, &inputs, &bad));
}

#[test]
fn public_input_substitution_rejected() {
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(64, 13);
    let p = params();
    let proof = prove(&p, &r1cs, &inputs, &witness);
    let mut other = inputs.clone();
    other[0] += Fr::ONE;
    assert!(!verify(&p, &r1cs, &other, &proof));
}

#[test]
fn different_pcs_params_rejected() {
    // A proof generated under one column-test count cannot verify under
    // another (different transcript challenges and opening arity). The
    // instance must be large enough that the codeword has more columns than
    // either test count (below that both clamp to the codeword length).
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1 << 12, 17);
    let p16 = params();
    let p8 = PcsParams {
        num_col_tests: 8,
        ..PcsParams::default()
    };
    let proof = prove(&p16, &r1cs, &inputs, &witness);
    assert!(!verify(&p8, &r1cs, &inputs, &proof));
}
