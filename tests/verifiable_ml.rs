//! Integration tests for the §5 verifiable-ML application: the whole
//! Figure 8 loop on real (tiny) networks, including adversarial customers.

use batchzk::field::Fr;
use batchzk::gpu_sim::{DeviceProfile, Gpu};
use batchzk::vml::{compile_inference, network, MlService};
use batchzk::zkp::{verify, PcsParams};

fn params() -> PcsParams {
    PcsParams {
        num_col_tests: 12,
        ..PcsParams::default()
    }
}

#[test]
fn mlaas_loop_tiny_cnn() {
    let mut svc = MlService::new(network::tiny_cnn(), params());
    let images: Vec<_> = (0..4)
        .map(|i| network::synthetic_image(i, &svc.network().input_shape))
        .collect();
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let run = svc.serve_batch(&mut gpu, &images, 4096).expect("fits");
    assert_eq!(run.predictions.len(), 4);
    for (pred, image) in run.predictions.iter().zip(&images) {
        assert!(svc.verify_prediction(pred));
        // The proven logits equal a plain (unproven) inference.
        assert_eq!(pred.logits, svc.predict(image));
    }
}

#[test]
fn mlaas_loop_scaled_vgg_block() {
    // A VGG-16-shaped network at the smallest width: the full application
    // path on the real architecture (13 conv + 5 pool + 3 dense).
    let mut svc = MlService::new(network::vgg16(64), params());
    let image = network::synthetic_image(9, &svc.network().input_shape);
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let run = svc
        .serve_batch(&mut gpu, std::slice::from_ref(&image), 8192)
        .expect("fits");
    assert!(svc.verify_prediction(&run.predictions[0]));
    assert_eq!(run.predictions[0].logits.len(), 10);
}

#[test]
fn served_proofs_equal_single_shot_proofs_of_the_full_compile() {
    // The service generates only the assignment per request; its proofs
    // must be the plain prover's over `compile_inference`'s assignment.
    let mut svc = MlService::new(network::tiny_cnn(), params());
    let images: Vec<_> = (0..2)
        .map(|i| network::synthetic_image(40 + i, &svc.network().input_shape))
        .collect();
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let run = svc.serve_batch(&mut gpu, &images, 4096).expect("fits");
    assert_eq!(run.predictions.len(), 2);
    for (pred, image) in run.predictions.iter().zip(&images) {
        let trace = svc.network().forward(image);
        let compiled = compile_inference::<Fr>(svc.network(), image, &trace);
        let reference =
            batchzk::zkp::prove(&params(), svc.r1cs(), &compiled.inputs, &compiled.witness);
        assert_eq!(pred.public_inputs, compiled.inputs);
        assert_eq!(pred.proof, reference);
    }
}

#[test]
fn lying_provider_is_caught_on_wrong_logits() {
    // A provider that returns logits its own model did not produce cannot
    // prove them: the assignment with forged public outputs is
    // unsatisfiable. (Full model-substitution resistance additionally needs
    // the commitment-to-witness binding extension documented in DESIGN.md;
    // the published Merkle commitment distinguishing models is checked in
    // the next assertion.)
    let svc = MlService::new(network::tiny_cnn(), params());
    let image = network::synthetic_image(10, &svc.network().input_shape);
    let trace = svc.network().forward(&image);
    let compiled = compile_inference::<Fr>(svc.network(), &image, &trace);
    let mut forged_inputs = compiled.inputs.clone();
    let last = forged_inputs.len() - 1;
    forged_inputs[last] += Fr::from(1u64); // claim a different logit
    let z = compiled.r1cs.assemble_z(&forged_inputs, &compiled.witness);
    assert!(!compiled.r1cs.is_satisfied(&z));
    // And an honestly-generated proof does not verify against forged
    // public inputs.
    let proof = batchzk::zkp::prove(
        &params(),
        &compiled.r1cs,
        &compiled.inputs,
        &compiled.witness,
    );
    assert!(!verify(&params(), svc.r1cs(), &forged_inputs, &proof));
    assert!(verify(&params(), svc.r1cs(), &compiled.inputs, &proof));

    // Model substitution changes the published commitment.
    let mut other = network::tiny_cnn();
    if let network::Layer::Dense { weights, .. } = &mut other.layers[4] {
        weights[0] += 3;
    }
    let other_svc = MlService::new(other, params());
    assert_ne!(svc.model_commitment(), other_svc.model_commitment());
}

#[test]
fn batching_more_requests_raises_throughput() {
    let mut svc = MlService::new(network::tiny_cnn(), params());
    let shape = svc.network().input_shape.clone();
    let mk_images = |n: usize| -> Vec<_> {
        (0..n)
            .map(|i| network::synthetic_image(20 + i as u64, &shape))
            .collect::<Vec<_>>()
    };
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let one = svc
        .serve_batch(&mut gpu, &mk_images(1), 4096)
        .expect("fits")
        .stats;
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let many = svc
        .serve_batch(&mut gpu, &mk_images(10), 4096)
        .expect("fits")
        .stats;
    assert!(many.throughput_per_ms > 1.5 * one.throughput_per_ms);
}
