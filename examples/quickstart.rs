//! Quickstart: prove and verify one R1CS instance, then run a small batch
//! through the fully pipelined system on the simulated GH200.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use batchzk::field::Fr;
use batchzk::gpu_sim::{DeviceProfile, Gpu};
use batchzk::zkp::r1cs::{synthetic_r1cs, R1csBuilder, Var};
use batchzk::zkp::{prove, prove_batch_with, verify, PcsParams, SpartanBackend};
use batchzk_field::Field;

fn main() {
    let params = PcsParams {
        num_col_tests: 32,
        ..PcsParams::default()
    };

    // 1. A hand-built circuit: prove knowledge of w with w^2 = 1369.
    let mut builder = R1csBuilder::<Fr>::new();
    let x = builder.new_input();
    let w = builder.new_witness();
    builder.enforce(
        vec![(Var::Witness(w), Fr::ONE)],
        vec![(Var::Witness(w), Fr::ONE)],
        vec![(Var::Input(x), Fr::ONE)],
    );
    let square = builder.build();
    let proof = prove(&params, &square, &[Fr::from(1369u64)], &[Fr::from(37u64)]);
    assert!(verify(&params, &square, &[Fr::from(1369u64)], &proof));
    println!(
        "square circuit: proof of w^2 = 1369 verifies ({} bytes)",
        proof.size_bytes()
    );

    // 2. A synthetic 2^12-constraint circuit, proved in batch through the
    //    pipelined system.
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1 << 12, 7);
    let r1cs = Arc::new(r1cs);
    let batch: Vec<_> = (0..8).map(|_| (inputs.clone(), witness.clone())).collect();
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let backend = SpartanBackend::new(Arc::clone(&r1cs), params);
    let run = prove_batch_with(&mut gpu, &backend, batch, 10_240, true).expect("fits");
    for (io, proof) in &run.proofs {
        assert!(verify(&params, &r1cs, io, proof));
    }
    println!(
        "batch of {}: {:.3} proofs/ms on simulated {}, mean latency {:.3} ms, peak device memory {:.1} MiB",
        run.stats.tasks,
        run.stats.throughput_per_ms,
        gpu.profile().name,
        run.stats.mean_latency_ms,
        run.stats.peak_mem_bytes as f64 / (1 << 20) as f64,
    );
}
