//! Drives the three pipelined modules (§3) individually and contrasts them
//! with the naive kernel-per-task execution — the Figure 4 story on a
//! simulated RTX 3090 Ti. The Merkle run additionally demonstrates the
//! observability layer: it executes under `TraceLevel::Full` and prints the
//! per-stage occupancy/stall accounting (and where to get the Chrome
//! trace).
//!
//! ```text
//! cargo run --release --example module_pipelines
//! ```

use std::sync::Arc;

use batchzk::encoder::{Encoder, EncoderParams};
use batchzk::field::{Field, Fr};
use batchzk::gpu_sim::{DeviceProfile, Gpu, TraceLevel};
use batchzk::hash::Prg;
use batchzk::metrics::Registry;
use batchzk::pipeline::analysis::analyze;
use batchzk::pipeline::{encoder as penc, merkle as pmerkle, observe, sumcheck as psum};

fn main() {
    let threads = 10_240;
    let batch = 40;
    let log = 12u32;
    let profile = DeviceProfile::rtx3090ti();

    // Merkle trees.
    let trees: Vec<Vec<[u8; 64]>> = (0..batch)
        .map(|t| {
            (0..1usize << log)
                .map(|i| {
                    let mut b = [0u8; 64];
                    b[..8].copy_from_slice(&((t * 4096 + i) as u64).to_le_bytes());
                    b
                })
                .collect()
        })
        .collect();
    let mut gpu = Gpu::new(profile.clone());
    let nv = pmerkle::run_naive(&mut gpu, trees.clone(), threads, 4).stats;
    let nv_util = gpu.mean_compute_utilization();
    let mut gpu = Gpu::with_trace_level(profile.clone(), TraceLevel::Full);
    let run = pmerkle::run_pipelined(&mut gpu, trees, threads).expect("fits");
    let pp = &run.stats;
    let pp_util = gpu.mean_compute_utilization();
    println!(
        "merkle   : naive {:.3} trees/ms (util {:.0}%) -> pipelined {:.3} trees/ms (util {:.0}%)",
        nv.throughput_per_ms,
        nv_util * 100.0,
        pp.throughput_per_ms,
        pp_util * 100.0
    );
    println!("  per-stage accounting of the pipelined run (TraceLevel::Full):");
    for s in &pp.stage_stats {
        println!(
            "    {:16} occupancy {:.2}  busy {:>8} cyc  stall {:>6} (imbalance) + {:>6} (memory)",
            s.name, s.occupancy, s.busy_cycles, s.imbalance_stall_cycles, s.memory_stall_cycles
        );
    }
    println!(
        "  {} kernel events / {} transfer events recorded; `tables trace` emits the Chrome-trace JSON",
        gpu.kernel_events().len(),
        gpu.transfer_events().len()
    );

    // Service-level metrics + bottleneck analysis of that same run.
    let mut registry = Registry::new();
    observe::record_run(&mut registry, "merkle", pp);
    println!(
        "  lifecycle p50/p99 = {}/{} cycles over {} spans (from the metrics registry)",
        registry
            .histogram("batchzk_lifecycle_cycles", &[("module", "merkle")])
            .map(|h| h.quantile(0.50))
            .unwrap_or(0),
        registry
            .histogram("batchzk_lifecycle_cycles", &[("module", "merkle")])
            .map(|h| h.quantile(0.99))
            .unwrap_or(0),
        pp.lifecycles.len(),
    );
    let analysis = analyze(&gpu, pp, threads);
    for line in analysis.render_text().lines() {
        println!("  {line}");
    }

    // Sum-check.
    let mut rng = Prg::seed_from_u64(1);
    let tasks = |rng: &mut Prg| -> Vec<psum::SumcheckTask<Fr>> {
        (0..batch)
            .map(|_| {
                let table: Vec<Fr> = (0..1usize << log).map(|_| Fr::random(rng)).collect();
                let rs: Vec<Fr> = (0..log).map(|_| Fr::random(rng)).collect();
                psum::SumcheckTask::new(table, rs)
            })
            .collect()
    };
    let mut gpu = Gpu::new(profile.clone());
    let nv = psum::run_naive(&mut gpu, tasks(&mut rng), threads, 4).stats;
    let nv_util = gpu.mean_compute_utilization();
    let mut gpu = Gpu::new(profile.clone());
    let pp = psum::run_pipelined(&mut gpu, tasks(&mut rng), threads)
        .expect("fits")
        .stats;
    let pp_util = gpu.mean_compute_utilization();
    println!(
        "sumcheck : naive {:.3} proofs/ms (util {:.0}%) -> pipelined {:.3} proofs/ms (util {:.0}%)",
        nv.throughput_per_ms,
        nv_util * 100.0,
        pp.throughput_per_ms,
        pp_util * 100.0
    );

    // Encoder.
    let enc = Arc::new(Encoder::<Fr>::new(1 << log, EncoderParams::default(), 7));
    let msgs = |rng: &mut Prg| -> Vec<Vec<Fr>> {
        (0..batch)
            .map(|_| (0..1usize << log).map(|_| Fr::random(rng)).collect())
            .collect()
    };
    let mut gpu = Gpu::new(profile.clone());
    let nv = penc::run_naive(&mut gpu, Arc::clone(&enc), msgs(&mut rng), threads, 4).stats;
    let nv_util = gpu.mean_compute_utilization();
    let mut gpu = Gpu::new(profile);
    let pp = penc::run_pipelined(&mut gpu, enc, msgs(&mut rng), threads, true)
        .expect("fits")
        .stats;
    let pp_util = gpu.mean_compute_utilization();
    println!(
        "encoder  : naive {:.3} codes/ms (util {:.0}%) -> pipelined {:.3} codes/ms (util {:.0}%)",
        nv.throughput_per_ms,
        nv_util * 100.0,
        pp.throughput_per_ms,
        pp_util * 100.0
    );
}
