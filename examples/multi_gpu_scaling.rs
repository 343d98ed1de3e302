//! Throughput vs device count: the same proof batch placed over pools of
//! 1, 2, 4, and 8 simulated A100s (on a fresh pool of identical devices
//! the scheduler's one placement routine puts proof *i* on device
//! *i mod N*). Each device runs its own
//! four-stage pipeline; the pool's makespan is the slowest device's
//! clock, so the table shows how close the shard gets to linear scaling.
//!
//! ```text
//! cargo run --release --example multi_gpu_scaling
//! ```

use std::sync::Arc;

use batchzk::field::Fr;
use batchzk::gpu_sim::{DevicePool, DeviceProfile};
use batchzk::metrics::{analyze_pool, DeviceObservation};
use batchzk::pipeline::ShardPolicy;
use batchzk::zkp::r1cs::synthetic_r1cs;
use batchzk::zkp::{prove_batch_pool_with, verify, PcsParams, SpartanBackend};

fn main() {
    let params = PcsParams {
        num_col_tests: 32,
        ..PcsParams::default()
    };
    // A batch well past the 4-stage pipeline depth, so per-device fill
    // and drain don't swamp the steady state.
    let batch = 48;
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1 << 10, 7);
    let r1cs = Arc::new(r1cs);
    let backend = SpartanBackend::new(Arc::clone(&r1cs), params);
    let profile = DeviceProfile::a100();

    println!(
        "batch of {batch} proofs (S = 2^10) on pools of {}s\n",
        profile.name
    );
    println!("| Devices | Makespan (ms) | Proofs/ms | Speedup | Efficiency |");
    println!("|---|---|---|---|---|");

    let mut baseline_ms = None;
    let mut last_report = String::new();
    for devices in [1usize, 2, 4, 8] {
        let instances: Vec<_> = (0..batch)
            .map(|_| (inputs.clone(), witness.clone()))
            .collect();
        let mut pool = DevicePool::homogeneous(profile.clone(), devices);
        let run = prove_batch_pool_with(
            &mut pool,
            &backend,
            instances,
            10_240,
            true,
            ShardPolicy::MemoryAware,
        )
        .expect("fits");
        // Sharding is invisible to the verifier: proofs come back in
        // input order, byte-identical to a single-device run.
        for (io, proof) in run.proofs.iter().take(2) {
            assert!(verify(&params, &r1cs, io, proof));
        }

        let obs: Vec<DeviceObservation> = run
            .device_stats
            .iter()
            .enumerate()
            .map(|(i, s)| DeviceObservation {
                name: format!("{} #{i}", profile.name),
                tasks: s.tasks as u64,
                elapsed_ms: run.device_ms[i],
                mean_utilization: s.mean_utilization,
            })
            .collect();
        let analysis = analyze_pool(&obs, Some(baseline_ms.unwrap_or(run.makespan_ms)));
        if baseline_ms.is_none() {
            baseline_ms = Some(run.makespan_ms);
        }
        println!(
            "| {devices} | {:.3} | {:.3} | {:.2}x | {:.1}% |",
            run.makespan_ms,
            run.throughput_per_ms(),
            analysis.speedup,
            analysis.scaling_efficiency * 100.0,
        );
        last_report = analysis.render_text();
    }

    println!("\nanalyzer verdict for the 8-device pool:\n{last_report}");
}
