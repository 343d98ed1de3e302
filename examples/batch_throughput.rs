//! The zkBridge-style scenario from the paper's introduction: a stream of
//! transactions, each needing a proof; throughput (proofs per second) is
//! revenue. Compares the pipelined batch system against proving one at a
//! time, on the same simulated device.
//!
//! ```text
//! cargo run --release --example batch_throughput
//! ```

use std::sync::Arc;

use batchzk::field::Fr;
use batchzk::gpu_sim::{DeviceProfile, Gpu};
use batchzk::zkp::r1cs::synthetic_r1cs;
use batchzk::zkp::{prove_batch_with, verify, PcsParams, SpartanBackend};

fn main() {
    let params = PcsParams {
        num_col_tests: 32,
        ..PcsParams::default()
    };
    // Each "transaction" is a 2^12-gate statement (same circuit, fresh
    // witness stream in a real deployment).
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1 << 12, 99);
    let r1cs = Arc::new(r1cs);
    let backend = SpartanBackend::new(Arc::clone(&r1cs), params);
    let stream: Vec<_> = (0..24).map(|_| (inputs.clone(), witness.clone())).collect();

    // One-at-a-time (the latency-oriented prior-work model).
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let mut single_total_ms = 0.0;
    for tx in stream.iter().take(4) {
        let run =
            prove_batch_with(&mut gpu, &backend, vec![tx.clone()], 10_240, true).expect("fits");
        single_total_ms += run.stats.total_ms;
    }
    let single_amortized = single_total_ms / 4.0;

    // Fully pipelined batch.
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let run = prove_batch_with(&mut gpu, &backend, stream, 10_240, true).expect("fits");
    for (io, proof) in &run.proofs {
        assert!(verify(&params, &r1cs, io, proof));
    }
    let batch_amortized = run.stats.total_ms / run.stats.tasks as f64;

    println!("one-at-a-time : {single_amortized:.3} ms/proof");
    println!(
        "pipelined     : {batch_amortized:.3} ms/proof ({:.2}x more proofs per second)",
        single_amortized / batch_amortized
    );
    println!(
        "device        : simulated {}, mean utilization {:.0}%",
        gpu.profile().name,
        run.stats.mean_utilization * 100.0
    );
}
