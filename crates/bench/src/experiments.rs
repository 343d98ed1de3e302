//! Runners that regenerate every table and figure of the paper's
//! evaluation (§6). Each function returns a rendered markdown table; the
//! `tables` binary dispatches on experiment id.

use std::sync::Arc;
use std::time::Instant;

use batchzk_encoder::{Encoder, EncoderParams};
use batchzk_field::lut::{naive_select_sum, SubsetSumLUT};
use batchzk_field::{Field, Fr, NttDomain, RngCore};
use batchzk_gpu_sim::{ArrivalPlan, DevicePool, DeviceProfile, FaultPlan, Gpu};
use batchzk_hash::Prg;
use batchzk_metrics::{
    analyze_pool, analyze_recovery, analyze_service, DeviceObservation, PoolAnalysis,
    ServiceClassObservation,
};
use batchzk_pipeline::{
    allocate_threads, encoder as penc, merkle as pmerkle, naive, sumcheck as psum, ClassPolicy,
    PriorityClass, ServiceConfig, ServiceOutcome, ShardPolicy,
};
use batchzk_sumcheck::{prove_quadratic, MultilinearPoly};
use batchzk_zkp::batch::module_weights;
use batchzk_zkp::batch::BatchTask;
use batchzk_zkp::r1cs::{synthetic_r1cs, R1cs};
use batchzk_zkp::{
    pcs, prove_batch_naive_with, prove_batch_pool_with, prove_batch_with, prove_service_with,
    spartan, BackendProofRequest, GrothBackend, MixedBackend, MixedInstance, MixedTask,
    OrionBackend, PcsParams, ProverBackend, SpartanBackend, BACKEND_NAMES,
};

use crate::baseline::{groth16_cpu, groth16_gpu, BELLPERSON_BYTES_PER_CONSTRAINT};
use crate::scale::Scale;

/// Thread budget for module pipelines (the paper's §4 example budget).
const MODULE_THREADS: u32 = 10_240;
/// Concurrent kernels in the naive baselines.
const NAIVE_CONCURRENCY: usize = 4;

fn tree_batch(log_n: u32, count: usize) -> Vec<Vec<[u8; 64]>> {
    (0..count)
        .map(|t| {
            (0..1usize << log_n)
                .map(|i| {
                    let mut b = [0u8; 64];
                    b[..8].copy_from_slice(&((t << 40 | i) as u64).to_le_bytes());
                    b
                })
                .collect()
        })
        .collect()
}

fn sumcheck_batch(log_n: u32, count: usize, seed: u64) -> Vec<psum::SumcheckTask<Fr>> {
    let mut rng = Prg::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let table: Vec<Fr> = (0..1usize << log_n).map(|_| Fr::random(&mut rng)).collect();
            let rs: Vec<Fr> = (0..log_n).map(|_| Fr::random(&mut rng)).collect();
            psum::SumcheckTask::new(table, rs)
        })
        .collect()
}

fn message_batch(log_n: u32, count: usize, seed: u64) -> Vec<Vec<Fr>> {
    let mut rng = Prg::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..1usize << log_n).map(|_| Fr::random(&mut rng)).collect())
        .collect()
}

fn pcs_params() -> PcsParams {
    PcsParams {
        num_col_tests: 32,
        ..PcsParams::default()
    }
}

/// Table 3: Merkle-tree module throughput (trees/ms).
pub fn table3(scale: &Scale) -> String {
    let mut out = String::from(
        "## Table 3 — Merkle tree module throughput (trees/ms)\n\n\
         | Size | Orion-like (CPU) | Simon-like (GPU naive) | Ours (GPU pipelined) | vs CPU | vs GPU |\n\
         |---|---|---|---|---|---|\n",
    );
    for &log in &scale.module_logs {
        // CPU reference (single tree, real time).
        let blocks = tree_batch(log, 1);
        let t = Instant::now();
        let _ = batchzk_merkle::MerkleTree::from_blocks(&blocks[0]);
        let cpu_ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_tput = 1.0 / cpu_ms;

        let batch = tree_batch(log, scale.module_batch);
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let naive_stats =
            naive::merkle_naive(&mut gpu, batch.clone(), MODULE_THREADS, NAIVE_CONCURRENCY).stats;
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let piped_stats = pmerkle::run_pipelined(&mut gpu, batch, MODULE_THREADS, true)
            .expect("fits")
            .stats;

        out.push_str(&format!(
            "| 2^{log} | {:.4e} | {:.3} | {:.3} | {:.1}x | {:.2}x |\n",
            cpu_tput,
            naive_stats.throughput_per_ms,
            piped_stats.throughput_per_ms,
            piped_stats.throughput_per_ms / cpu_tput,
            piped_stats.throughput_per_ms / naive_stats.throughput_per_ms,
        ));
    }
    out
}

/// Table 4: sum-check module throughput (proofs/ms).
pub fn table4(scale: &Scale) -> String {
    let mut out = String::from(
        "## Table 4 — Sum-check module throughput (proofs/ms)\n\n\
         | Size | Arkworks-like (CPU) | Icicle-like (GPU naive) | Ours (GPU pipelined) | vs CPU | vs GPU |\n\
         |---|---|---|---|---|---|\n",
    );
    for &log in &scale.module_logs {
        let task = &sumcheck_batch(log, 1, log as u64)[0];
        let mut table = task.table_snapshot();
        let rs = task.randomness().to_vec();
        let t = Instant::now();
        let _ = batchzk_sumcheck::algorithm1::prove(&mut table, &rs);
        let cpu_ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_tput = 1.0 / cpu_ms;

        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let naive_stats = naive::sumcheck_naive(
            &mut gpu,
            sumcheck_batch(log, scale.module_batch, 100 + log as u64),
            MODULE_THREADS,
            NAIVE_CONCURRENCY,
        )
        .stats;
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let piped_stats = psum::run_pipelined(
            &mut gpu,
            sumcheck_batch(log, scale.module_batch, 200 + log as u64),
            MODULE_THREADS,
            true,
        )
        .expect("fits")
        .stats;

        out.push_str(&format!(
            "| 2^{log} | {:.4e} | {:.3} | {:.3} | {:.1}x | {:.2}x |\n",
            cpu_tput,
            naive_stats.throughput_per_ms,
            piped_stats.throughput_per_ms,
            piped_stats.throughput_per_ms / cpu_tput,
            piped_stats.throughput_per_ms / naive_stats.throughput_per_ms,
        ));
    }
    out
}

/// Table 5: linear-time encoder module throughput (codes/ms).
pub fn table5(scale: &Scale) -> String {
    let mut out = String::from(
        "## Table 5 — Linear-time encoder module throughput (codes/ms)\n\n\
         | Size | Orion-like (CPU) | Ours-np (GPU naive) | Ours (GPU pipelined) | vs CPU | vs np |\n\
         |---|---|---|---|---|---|\n",
    );
    for &log in &scale.module_logs {
        let encoder = Arc::new(Encoder::<Fr>::new(
            1usize << log,
            EncoderParams::default(),
            7,
        ));
        let msg = &message_batch(log, 1, log as u64)[0];
        let t = Instant::now();
        let _ = encoder.encode(msg);
        let cpu_ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_tput = 1.0 / cpu_ms;

        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let naive_stats = naive::encode_naive(
            &mut gpu,
            Arc::clone(&encoder),
            message_batch(log, scale.module_batch, 300 + log as u64),
            MODULE_THREADS,
            NAIVE_CONCURRENCY,
        )
        .stats;
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let piped_stats = penc::run_pipelined(
            &mut gpu,
            encoder,
            message_batch(log, scale.module_batch, 400 + log as u64),
            MODULE_THREADS,
            true,
            true,
        )
        .expect("fits")
        .stats;

        out.push_str(&format!(
            "| 2^{log} | {:.4e} | {:.3} | {:.3} | {:.1}x | {:.2}x |\n",
            cpu_tput,
            naive_stats.throughput_per_ms,
            piped_stats.throughput_per_ms,
            piped_stats.throughput_per_ms / cpu_tput,
            piped_stats.throughput_per_ms / naive_stats.throughput_per_ms,
        ));
    }
    out
}

/// Table 6: the latency/throughput trade-off of pipelining.
pub fn table6(scale: &Scale) -> String {
    let mut out = String::from(
        "## Table 6 — Module latency (ms): pipelining trades latency for throughput\n\n\
         | Size | Module | Non-pipelined (ms) | Ours pipelined (ms) | Speedup |\n\
         |---|---|---|---|---|\n",
    );
    let logs = [
        scale.module_logs[scale.module_logs.len() - 1],
        scale.module_logs[0],
    ];
    for &log in &logs {
        // Merkle.
        let batch = tree_batch(log, scale.module_batch);
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let nl = naive::merkle_naive(&mut gpu, batch.clone(), MODULE_THREADS, 1)
            .stats
            .mean_latency_ms;
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let pl = pmerkle::run_pipelined(&mut gpu, batch, MODULE_THREADS, true)
            .expect("fits")
            .stats
            .mean_latency_ms;
        out.push_str(&format!(
            "| 2^{log} | Merkle | {nl:.3} | {pl:.3} | {:.3}x |\n",
            nl / pl
        ));
        // Sum-check.
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let nl = naive::sumcheck_naive(
            &mut gpu,
            sumcheck_batch(log, scale.module_batch, 1),
            MODULE_THREADS,
            1,
        )
        .stats
        .mean_latency_ms;
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let pl = psum::run_pipelined(
            &mut gpu,
            sumcheck_batch(log, scale.module_batch, 1),
            MODULE_THREADS,
            true,
        )
        .expect("fits")
        .stats
        .mean_latency_ms;
        out.push_str(&format!(
            "| 2^{log} | Sumcheck | {nl:.3} | {pl:.3} | {:.3}x |\n",
            nl / pl
        ));
        // Encoder.
        let encoder = Arc::new(Encoder::<Fr>::new(
            1usize << log,
            EncoderParams::default(),
            7,
        ));
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let nl = naive::encode_naive(
            &mut gpu,
            Arc::clone(&encoder),
            message_batch(log, scale.module_batch, 2),
            MODULE_THREADS,
            1,
        )
        .stats
        .mean_latency_ms;
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let pl = penc::run_pipelined(
            &mut gpu,
            encoder,
            message_batch(log, scale.module_batch, 2),
            MODULE_THREADS,
            true,
            true,
        )
        .expect("fits")
        .stats
        .mean_latency_ms;
        out.push_str(&format!(
            "| 2^{log} | Encoder | {nl:.3} | {pl:.3} | {:.3}x |\n",
            nl / pl
        ));
    }
    out
}

/// Per-module amortized breakdown of the pipelined system.
struct OursBreakdown {
    merkle_ms: f64,
    sumcheck_ms: f64,
    encoder_ms: f64,
    total_ms: f64,
    latency_ms: f64,
    throughput_per_ms: f64,
    peak_mem: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    cycles: usize,
}

fn run_ours(
    profile: &DeviceProfile,
    log_s: u32,
    batch: usize,
    multi_stream: bool,
) -> OursBreakdown {
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << log_s, 42);
    let r1cs = Arc::new(r1cs);
    let instances: Vec<_> = (0..batch)
        .map(|_| (inputs.clone(), witness.clone()))
        .collect();
    let mut gpu = Gpu::new(profile.clone());
    let weights = module_weights(&gpu, &r1cs, &pcs_params());
    let threads = allocate_threads(MODULE_THREADS, &weights);
    let run = prove_batch_with(
        &mut gpu,
        &SpartanBackend::new(r1cs, pcs_params()),
        instances,
        MODULE_THREADS,
        multi_stream,
    )
    .expect("fits");
    let tasks = run.stats.tasks as f64;
    let module_ms = |name: &str, t: u32| -> f64 {
        gpu.kernel_stats()
            .get(name)
            .map(|s| {
                gpu.profile()
                    .cycles_to_seconds(s.busy_cycles / t.max(1) as u64)
                    * 1e3
                    / tasks
            })
            .unwrap_or(0.0)
    };
    OursBreakdown {
        encoder_ms: module_ms("system-encoder", threads[0]),
        merkle_ms: module_ms("system-merkle", threads[1]),
        sumcheck_ms: module_ms("system-sumcheck", threads[2]),
        total_ms: run.stats.total_ms / tasks,
        latency_ms: run.stats.mean_latency_ms,
        throughput_per_ms: run.stats.throughput_per_ms,
        peak_mem: run.stats.peak_mem_bytes,
        h2d_bytes: run.stats.h2d_bytes,
        d2h_bytes: run.stats.d2h_bytes,
        cycles: batch + 3,
    }
}

/// CPU (Orion&Arkworks-like) prover breakdown, real wall-clock.
struct CpuBreakdown {
    merkle_ms: f64,
    sumcheck_ms: f64,
    encoder_ms: f64,
    total_ms: f64,
}

fn run_cpu_prover(log_s: u32) -> CpuBreakdown {
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << log_s, 42);
    let params = pcs_params();
    let z = r1cs.assemble_z(&inputs, &witness);

    let t = Instant::now();
    let encoded = pcs::commit_encode(&params, &z[r1cs.half_len()..]);
    let encoder_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let (commitment, data) = pcs::commit_merkle(encoded);
    let merkle_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut transcript = spartan::statement_transcript(&r1cs, &inputs);
    transcript.absorb_digest(b"w-commitment", &commitment.root);
    let t = Instant::now();
    let part = spartan::run_sumchecks(&r1cs, &z, &mut transcript);
    let sumcheck_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let y_prime = &part.point_y[..part.point_y.len() - 1];
    let _ = pcs::open(&params, &data, y_prime, &mut transcript);
    let open_ms = t.elapsed().as_secs_f64() * 1e3;

    CpuBreakdown {
        merkle_ms,
        sumcheck_ms,
        encoder_ms,
        total_ms: encoder_ms + merkle_ms + sumcheck_ms + open_ms,
    }
}

/// Table 7: amortized per-proof time of the four systems.
pub fn table7(scale: &Scale) -> String {
    let mut out = String::from(
        "## Table 7 — Amortized per-proof time (ms)\n\n\
         | S | Libsnark-like MSM | NTT | Proof | Bellperson-like MSM | NTT | Proof | O&A Merkle | Sumcheck | Encoder | Proof | Ours Merkle | Sumcheck | Encoder | Proof |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for &log in &scale.system_logs {
        let cpu_groth = groth16_cpu(log);
        let gpu_groth = groth16_gpu(&DeviceProfile::gh200(), log);
        let cpu = run_cpu_prover(log);
        let ours = run_ours(&DeviceProfile::gh200(), log, scale.system_batch, true);
        out.push_str(&format!(
            "| 2^{log} | {:.1} | {:.1} | {:.1} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.3} | {:.3} | {:.3} | {:.3} |\n",
            cpu_groth.msm_ms,
            cpu_groth.ntt_ms,
            cpu_groth.total_ms,
            gpu_groth.msm_ms,
            gpu_groth.ntt_ms,
            gpu_groth.total_ms,
            cpu.merkle_ms,
            cpu.sumcheck_ms,
            cpu.encoder_ms,
            cpu.total_ms,
            ours.merkle_ms,
            ours.sumcheck_ms,
            ours.encoder_ms,
            ours.total_ms,
        ));
    }
    out.push_str("\nSpeedup summary (Proof columns):\n\n| S | Ours vs Bellperson-like | Ours vs Orion&Arkworks-like |\n|---|---|---|\n");
    for &log in &scale.system_logs {
        let gpu_groth = groth16_gpu(&DeviceProfile::gh200(), log);
        let cpu = run_cpu_prover(log);
        let ours = run_ours(&DeviceProfile::gh200(), log, scale.system_batch, true);
        out.push_str(&format!(
            "| 2^{log} | {:.1}x | {:.1}x |\n",
            gpu_groth.total_ms / ours.total_ms,
            cpu.total_ms / ours.total_ms,
        ));
    }
    out
}

/// Table 8: throughput and latency across GPUs.
pub fn table8(scale: &Scale) -> String {
    let log = scale.system_logs[0];
    let mut out = format!(
        "## Table 8 — ZKP systems across GPUs (S = 2^{log})\n\n\
         | GPU | Bellperson-like latency (s) | Ours latency (s) | Speedup | Bellperson-like (proofs/s) | Ours (proofs/s) | Speedup |\n\
         |---|---|---|---|---|---|---|\n"
    );
    for profile in [
        DeviceProfile::v100(),
        DeviceProfile::a100(),
        DeviceProfile::rtx3090ti(),
        DeviceProfile::h100(),
    ] {
        let groth = groth16_gpu(&profile, log);
        let ours = run_ours(&profile, log, scale.system_batch, true);
        let groth_latency_s = groth.total_ms / 1e3;
        let groth_tput = 1e3 / groth.total_ms;
        let ours_latency_s = ours.latency_ms / 1e3;
        let ours_tput = ours.throughput_per_ms * 1e3;
        out.push_str(&format!(
            "| {} | {:.4} | {:.4} | {:.2}x | {:.2} | {:.2} | {:.1}x |\n",
            profile.name,
            groth_latency_s,
            ours_latency_s,
            groth_latency_s / ours_latency_s,
            groth_tput,
            ours_tput,
            ours_tput / groth_tput,
        ));
    }
    out
}

/// Table 9: communication/computation overlap per pipeline cycle.
pub fn table9(scale: &Scale) -> String {
    let log = scale.system_logs[0];
    let mut out = format!(
        "## Table 9 — Amortized per-cycle CPU-GPU communication vs computation (S = 2^{log})\n\n\
         | GPU | Connection | Comm. size/cycle | Comm. time (ms) | Comp. time (ms) | Overall w/ overlap (ms) | w/o overlap (ms) |\n\
         |---|---|---|---|---|---|---|\n"
    );
    for profile in [
        DeviceProfile::v100(),
        DeviceProfile::a100(),
        DeviceProfile::rtx3090ti(),
        DeviceProfile::h100(),
    ] {
        // run_ours reports total_ms as *amortized per task*; recover the
        // whole-run wall time, then divide by pipeline cycles.
        let overlapped = run_ours(&profile, log, scale.system_batch, true);
        let serial = run_ours(&profile, log, scale.system_batch, false);
        let tasks = scale.system_batch as f64;
        let cycles = overlapped.cycles as f64;
        let bytes_per_cycle = (overlapped.h2d_bytes + overlapped.d2h_bytes) as f64 / cycles;
        let comm_cycles = profile.transfer_cycles(bytes_per_cycle as u64);
        let comm_ms = profile.cycles_to_seconds(comm_cycles) * 1e3;
        let overall_per_cycle = overlapped.total_ms * tasks / cycles;
        let serial_per_cycle = serial.total_ms * tasks / cycles;
        let comp_per_cycle = (serial_per_cycle - comm_ms).max(0.0);
        out.push_str(&format!(
            "| {} | {} | {:.1} MB | {:.3} | {:.3} | {:.3} | {:.3} |\n",
            profile.name,
            profile.interconnect.name(),
            bytes_per_cycle / (1 << 20) as f64,
            comm_ms,
            comp_per_cycle,
            overall_per_cycle,
            serial_per_cycle,
        ));
    }
    out
}

/// Table 10: amortized device memory per in-flight proof.
pub fn table10(scale: &Scale) -> String {
    let mut out = String::from(
        "## Table 10 — Amortized device memory per in-flight proof (GB)\n\n\
         | S | Bellperson-like | Ours | Ratio |\n\
         |---|---|---|---|\n",
    );
    const IN_FLIGHT: u64 = 4; // pipeline depth of the Figure 7 system
    for &log in &scale.system_logs {
        let bell = (1u64 << log) * BELLPERSON_BYTES_PER_CONSTRAINT;
        let ours = run_ours(&DeviceProfile::gh200(), log, scale.system_batch, true);
        let ours_per = ours.peak_mem / IN_FLIGHT;
        out.push_str(&format!(
            "| 2^{log} | {:.4} | {:.4} | {:.1}x |\n",
            bell as f64 / (1u64 << 30) as f64,
            ours_per as f64 / (1u64 << 30) as f64,
            bell as f64 / ours_per as f64,
        ));
    }
    out
}

/// Table 11: the verifiable machine-learning application.
pub fn table11(scale: &Scale) -> String {
    use batchzk_vml::{network, MlService};
    let net = network::vgg16(scale.vgg_divisor);
    let macs = net.total_macs();
    let mut svc = MlService::new(net, pcs_params());
    let images: Vec<_> = (0..scale.vgg_batch)
        .map(|i| network::synthetic_image(i as u64, &svc.network().input_shape))
        .collect();
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let run = svc
        .serve_batch(&mut gpu, &images, MODULE_THREADS)
        .expect("fits");
    for p in &run.predictions {
        assert!(svc.verify_prediction(p), "generated proof failed to verify");
    }
    let tput = run.stats.throughput_per_ms * 1e3;
    let latency_s = run.stats.mean_latency_ms / 1e3;
    format!(
        "## Table 11 — Verifiable ML (VGG-16 shape / width divisor {} = {} MACs, {} constraints)\n\n\
         | Scheme | Throughput (proofs/s) | Latency (s) | Accuracy |\n\
         |---|---|---|---|\n\
         | zkCNN (paper-reported, not rerun) | 0.0113 | 88.3 | 90.30% |\n\
         | ZKML (paper-reported, not rerun) | 0.0017 | 637 | 90.37% |\n\
         | ZENO (paper-reported, not rerun) | 0.0208 | 48.0 | 84.19% |\n\
         | Ours (simulated GH200) | {:.4} | {:.4} | N/A (synthetic weights) |\n\n\
         Paper's own row: 9.5220 proofs/s, 15.2 s latency, 93.93% accuracy.\n",
        scale.vgg_divisor,
        macs,
        svc.r1cs().num_constraints(),
        tput,
        latency_s,
    )
}

fn render_trace(trace: &[batchzk_gpu_sim::UtilSample], buckets: usize) -> String {
    if trace.is_empty() {
        return "(empty)".into();
    }
    let total: u64 = trace.iter().map(|s| s.len).sum();
    let mut out = String::new();
    let bucket_len = (total / buckets as u64).max(1);
    let mut acc_busy = 0.0f64;
    let mut acc_len = 0u64;
    let glyphs = [' ', '1', '2', '3', '4', '5', '6', '7', '8', '9'];
    for s in trace {
        acc_busy += s.compute_utilization * s.len as f64;
        acc_len += s.len;
        while acc_len >= bucket_len && out.len() < buckets {
            let u = acc_busy / acc_len as f64;
            let g = glyphs[((u * 9.0).round() as usize).min(9)];
            out.push(g);
            acc_busy = 0.0;
            acc_len = 0;
        }
    }
    out
}

/// Figure 4: thread workload over time, intuitive vs pipelined Merkle.
pub fn fig4(scale: &Scale) -> String {
    // Use the largest size: small workloads are kernel-launch bound and
    // leave the whole device idle in both schemes.
    let log = scale.module_logs[0];
    let batch = tree_batch(log, scale.module_batch * 2);
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let _ = naive::merkle_naive(&mut gpu, batch.clone(), MODULE_THREADS, NAIVE_CONCURRENCY);
    let naive_trace = render_trace(gpu.utilization_trace(), 60);
    let naive_mean = gpu.mean_compute_utilization();
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    pmerkle::run_pipelined(&mut gpu, batch, MODULE_THREADS, true).expect("fits");
    let piped_trace = render_trace(gpu.utilization_trace(), 60);
    let piped_mean = gpu.mean_compute_utilization();
    format!(
        "## Figure 4 — GPU thread workload over time, batch Merkle generation (2^{log} blocks/tree)\n\n\
         Each character = one time bucket; digit = utilization decile (9 = fully busy).\n\n\
         ```\n(a) intuitive : [{naive_trace}]  mean {naive_mean:.2}\n(b) pipelined : [{piped_trace}]  mean {piped_mean:.2}\n```\n"
    )
}

/// Figure 9: GPU core utilization of the three modules on the RTX 3090 Ti.
pub fn fig9(scale: &Scale) -> String {
    let log = scale.module_logs[0];
    let profile = DeviceProfile::rtx3090ti();
    let mut out = format!(
        "## Figure 9 — GPU core utilization on {} (size 2^{log})\n\n\
         Each character = one time bucket; digit = utilization decile.\n\n```\n",
        profile.name
    );

    // Merkle.
    let batch = tree_batch(log, scale.module_batch * 2);
    let mut gpu = Gpu::new(profile.clone());
    let _ = naive::merkle_naive(&mut gpu, batch.clone(), MODULE_THREADS, NAIVE_CONCURRENCY);
    out.push_str(&format!(
        "merkle    naive     : [{}]  mean {:.2}\n",
        render_trace(gpu.utilization_trace(), 56),
        gpu.mean_compute_utilization()
    ));
    let mut gpu = Gpu::new(profile.clone());
    pmerkle::run_pipelined(&mut gpu, batch, MODULE_THREADS, true).expect("fits");
    out.push_str(&format!(
        "merkle    pipelined : [{}]  mean {:.2}\n",
        render_trace(gpu.utilization_trace(), 56),
        gpu.mean_compute_utilization()
    ));

    // Sum-check.
    let mut gpu = Gpu::new(profile.clone());
    let _ = naive::sumcheck_naive(
        &mut gpu,
        sumcheck_batch(log, scale.module_batch * 2, 5),
        MODULE_THREADS,
        NAIVE_CONCURRENCY,
    );
    out.push_str(&format!(
        "sumcheck  naive     : [{}]  mean {:.2}\n",
        render_trace(gpu.utilization_trace(), 56),
        gpu.mean_compute_utilization()
    ));
    let mut gpu = Gpu::new(profile.clone());
    psum::run_pipelined(
        &mut gpu,
        sumcheck_batch(log, scale.module_batch * 2, 5),
        MODULE_THREADS,
        true,
    )
    .expect("fits");
    out.push_str(&format!(
        "sumcheck  pipelined : [{}]  mean {:.2}\n",
        render_trace(gpu.utilization_trace(), 56),
        gpu.mean_compute_utilization()
    ));

    // Encoder.
    let encoder = Arc::new(Encoder::<Fr>::new(
        1usize << log,
        EncoderParams::default(),
        7,
    ));
    let mut gpu = Gpu::new(profile.clone());
    let _ = naive::encode_naive(
        &mut gpu,
        Arc::clone(&encoder),
        message_batch(log, scale.module_batch * 2, 6),
        MODULE_THREADS,
        NAIVE_CONCURRENCY,
    );
    out.push_str(&format!(
        "encoder   naive     : [{}]  mean {:.2}\n",
        render_trace(gpu.utilization_trace(), 56),
        gpu.mean_compute_utilization()
    ));
    let mut gpu = Gpu::new(profile);
    penc::run_pipelined(
        &mut gpu,
        encoder,
        message_batch(log, scale.module_batch * 2, 6),
        MODULE_THREADS,
        true,
        true,
    )
    .expect("fits");
    out.push_str(&format!(
        "encoder   pipelined : [{}]  mean {:.2}\n```\n",
        render_trace(gpu.utilization_trace(), 56),
        gpu.mean_compute_utilization()
    ));
    out
}

/// Ablation: warp bucket-sorting (on/off) and multi-stream overlap
/// (on/off) — the two §3.3/§4 design choices DESIGN.md calls out.
pub fn ablation(scale: &Scale) -> String {
    // Warp sorting only pays off when per-stage rows exceed the stage's
    // thread slice (multi-wave regime) — run the encoder with a tight
    // thread budget, as a loaded production system would.
    let log = scale.module_logs[1];
    let encoder_threads = 512;
    let encoder = Arc::new(Encoder::<Fr>::new(
        1usize << log,
        EncoderParams::default(),
        7,
    ));
    let msgs = message_batch(log, scale.module_batch, 8);
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let sorted = penc::run_pipelined(
        &mut gpu,
        Arc::clone(&encoder),
        msgs.clone(),
        encoder_threads,
        true,
        true,
    )
    .expect("fits")
    .stats;
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let unsorted = penc::run_pipelined(&mut gpu, encoder, msgs, encoder_threads, true, false)
        .expect("fits")
        .stats;

    let log_s = scale.system_logs[scale.system_logs.len() - 1];
    let overlap = run_ours(&DeviceProfile::v100(), log_s, scale.system_batch, true);
    let serial = run_ours(&DeviceProfile::v100(), log_s, scale.system_batch, false);

    format!(
        "## Ablations\n\n\
         | Design choice | Off | On | Gain |\n\
         |---|---|---|---|\n\
         | Warp bucket-sorting (encoder 2^{log}, codes/ms) | {:.3} | {:.3} | {:.2}x |\n\
         | Multi-stream overlap (system 2^{log_s} on V100, ms/proof) | {:.3} | {:.3} | {:.2}x |\n",
        unsorted.throughput_per_ms,
        sorted.throughput_per_ms,
        sorted.throughput_per_ms / unsorted.throughput_per_ms,
        serial.total_ms,
        overlap.total_ms,
        serial.total_ms / overlap.total_ms,
    )
}

/// Looks up a simulated device profile by its CLI name.
pub fn profile_by_name(name: &str) -> Option<DeviceProfile> {
    match name {
        "v100" => Some(DeviceProfile::v100()),
        "a100" => Some(DeviceProfile::a100()),
        "rtx3090ti" => Some(DeviceProfile::rtx3090ti()),
        "h100" => Some(DeviceProfile::h100()),
        "gh200" => Some(DeviceProfile::gh200()),
        _ => None,
    }
}

/// One point of the multi-device scaling sweep.
struct ScalingPoint {
    makespan_ms: f64,
    throughput_per_ms: f64,
    analysis: PoolAnalysis,
}

/// Proves the scaling batch across `devices` identical GPUs under
/// round-robin sharding and runs the pool analyzer against
/// `baseline_ms` (the single-device makespan; `None` makes this run its
/// own baseline, i.e. speedup 1.0).
fn scaling_point(
    profile: &DeviceProfile,
    devices: usize,
    r1cs: &Arc<R1cs<Fr>>,
    inputs: &[Fr],
    witness: &[Fr],
    batch: usize,
    baseline_ms: Option<f64>,
) -> ScalingPoint {
    let instances: Vec<_> = (0..batch)
        .map(|_| (inputs.to_vec(), witness.to_vec()))
        .collect();
    let mut pool = DevicePool::homogeneous(profile.clone(), devices);
    let run = prove_batch_pool_with(
        &mut pool,
        &SpartanBackend::new(Arc::clone(r1cs), pcs_params()),
        instances,
        MODULE_THREADS,
        true,
        ShardPolicy::RoundRobin,
    )
    .expect("fits");
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
    ScalingPoint {
        makespan_ms: run.makespan_ms,
        throughput_per_ms: run.throughput_per_ms(),
        analysis,
    }
}

/// Multi-device scaling: throughput vs device count over a pool of
/// identical GPUs. The first entry of `device_counts` is the speedup
/// baseline — pass counts starting at 1 for "vs single device" numbers.
pub fn scaling(scale: &Scale, device_counts: &[usize], profile: &DeviceProfile) -> String {
    let log = scale.scaling_log;
    let batch = scale.scaling_batch;
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << log, 42);
    let r1cs = Arc::new(r1cs);
    let mut out = format!(
        "## Scaling — {batch} proofs of S = 2^{log} across a pool of {} devices (round-robin)\n\n\
         | Devices | Makespan (ms) | Throughput (proofs/ms) | Speedup | Scaling efficiency | Imbalance |\n\
         |---|---|---|---|---|---|\n",
        profile.name
    );
    let mut reports = String::new();
    let mut baseline_ms = None;
    for &d in device_counts {
        let p = scaling_point(profile, d, &r1cs, &inputs, &witness, batch, baseline_ms);
        if baseline_ms.is_none() {
            baseline_ms = Some(p.makespan_ms);
        }
        out.push_str(&format!(
            "| {d} | {:.3} | {:.3} | {:.2}x | {:.1}% | {:.3} |\n",
            p.makespan_ms,
            p.throughput_per_ms,
            p.analysis.speedup,
            p.analysis.scaling_efficiency * 100.0,
            p.analysis.imbalance,
        ));
        reports.push_str(&p.analysis.render_text());
    }
    out.push_str("\nPer-device analyzer verdicts:\n\n```\n");
    out.push_str(&reports);
    out.push_str("```\n");
    out
}

/// One scripted-fault scenario outcome of the recovery study.
struct RecoveryOutcome {
    name: &'static str,
    spec: String,
    analysis: batchzk_metrics::RecoveryAnalysis,
    proofs_identical: bool,
}

/// Fault-free baseline plus per-scenario recovery outcomes, shared by the
/// `faults` table and the `recovery` section of [`bench_json`].
struct RecoveryStudy {
    log_n: u32,
    batch: usize,
    devices: usize,
    fault_free_ms: f64,
    outcomes: Vec<RecoveryOutcome>,
}

/// Runs the scale's scaling batch on a two-A100 pool, fault-free and under
/// each scripted-fault scenario, checking that recovered proofs stay
/// byte-identical to the fault-free run. `extra` (the `--fault-plan` spec)
/// appends a custom scenario.
fn recovery_study(scale: &Scale, extra: Option<&FaultPlan>) -> RecoveryStudy {
    const DEVICES: usize = 2;
    let profile = DeviceProfile::a100();
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << scale.scaling_log, 42);
    let r1cs = Arc::new(r1cs);
    let run_pool = |plan: Option<&FaultPlan>| {
        let instances: Vec<_> = (0..scale.scaling_batch)
            .map(|_| (inputs.clone(), witness.clone()))
            .collect();
        let mut pool = DevicePool::homogeneous(profile.clone(), DEVICES);
        if let Some(p) = plan {
            pool.apply_fault_plan(p);
        }
        prove_batch_pool_with(
            &mut pool,
            &SpartanBackend::new(Arc::clone(&r1cs), pcs_params()),
            instances,
            MODULE_THREADS,
            true,
            ShardPolicy::LeastOutstanding,
        )
        .expect("fits")
    };
    let clean = run_pool(None);
    // Strike device 1 halfway through its fault-free share: the canonical
    // mid-batch fail-stop.
    let mid = clean.device_stats[1].total_cycles / 2;
    let mut scenarios: Vec<(&'static str, FaultPlan)> = vec![
        ("fail-stop", FaultPlan::new().fail_stop(1, mid)),
        ("degraded-clock", FaultPlan::new().degraded_clock(1, 0, 300)),
        ("drop-kernel", FaultPlan::new().drop_kernel(0, 0, 3)),
    ];
    if let Some(plan) = extra {
        scenarios.push(("custom", plan.clone()));
    }
    let outcomes = scenarios
        .into_iter()
        .map(|(name, plan)| {
            let run = run_pool(Some(&plan));
            let (failed, replayed, rounds) = run
                .recovery
                .as_ref()
                .map(|r| (r.failed_devices.len(), r.replayed_tasks, r.replay_rounds))
                .unwrap_or((0, 0, 0));
            RecoveryOutcome {
                name,
                spec: plan.spec(),
                analysis: analyze_recovery(
                    clean.makespan_ms,
                    run.makespan_ms,
                    failed,
                    replayed,
                    rounds,
                ),
                proofs_identical: run.proofs == clean.proofs,
            }
        })
        .collect();
    RecoveryStudy {
        log_n: scale.scaling_log,
        batch: scale.scaling_batch,
        devices: DEVICES,
        fault_free_ms: clean.makespan_ms,
        outcomes,
    }
}

/// The recovery-overhead study behind `tables faults`: a fault-free
/// baseline on a two-device pool, then each scripted-fault scenario
/// (mid-batch fail-stop, degraded clock, dropped kernel, plus any
/// `--fault-plan` spec), reporting makespan overhead and whether the
/// recovered proofs stayed byte-identical to the fault-free run.
pub fn faults(scale: &Scale, extra: Option<&FaultPlan>) -> String {
    let study = recovery_study(scale, extra);
    let mut out = format!(
        "## Faults — recovery overhead, {} proofs of S = 2^{} on {} A100s (least-outstanding)\n\n\
         Fault-free makespan: {:.3} ms\n\n\
         | Scenario | Plan | Makespan (ms) | Overhead | Failed | Replayed | Rounds | Proofs identical |\n\
         |---|---|---|---|---|---|---|---|\n",
        study.batch, study.log_n, study.devices, study.fault_free_ms
    );
    let mut reports = String::new();
    for o in &study.outcomes {
        out.push_str(&format!(
            "| {} | `{}` | {:.3} | {:.2}x | {} | {} | {} | {} |\n",
            o.name,
            o.spec,
            o.analysis.faulty_ms,
            o.analysis.overhead_ratio,
            o.analysis.failed_devices,
            o.analysis.replayed_tasks,
            o.analysis.replay_rounds,
            if o.proofs_identical { "yes" } else { "NO" },
        ));
        reports.push_str(&o.analysis.render_text());
    }
    out.push_str("\nPer-scenario recovery verdicts:\n\n```\n");
    out.push_str(&reports);
    out.push_str("```\n");
    out
}

/// The committed reference arrival trace (`traces/reference.trace`),
/// embedded so `tables serve` and the BENCH.json `service` section replay
/// identical load everywhere. Trace time is in *units* of 1/100 of the
/// measured steady-state proof interval (see [`serve`]), so the same spec
/// exercises every scale comparably.
pub const REFERENCE_TRACE: &str = include_str!("../../../traces/reference.trace");

/// Parses the committed reference trace. Panics only if the committed file
/// is corrupted (CI replays it on every push).
pub fn reference_plan() -> ArrivalPlan {
    ArrivalPlan::parse(REFERENCE_TRACE).expect("committed reference trace parses")
}

/// Trace time units per measured proof interval: an arrival at trace cycle
/// `t` lands at device cycle `t * interval / UNITS_PER_INTERVAL`.
const UNITS_PER_INTERVAL: u64 = 100;
/// Per-class latency SLOs in proof intervals, indexed like
/// [`PriorityClass::ALL`] (interactive, standard, bulk). Unloaded latency
/// is ~1 interval and a saturated single device queues ~7–12 intervals
/// deep, so the tight interactive SLO *misses* under single-device
/// overload and recovers on the 4-device pool — the shape the SLO runbook
/// in OPERATIONS.md walks through.
const SLO_INTERVALS: [u64; 3] = [4, 8, 24];
/// Per-class admission queue caps, same order.
const QUEUE_CAPS: [usize; 3] = [2, 4, 8];
/// Pool sizes the service replay runs at (the BENCH.json device matrix).
const SERVICE_DEVICES: [usize; 2] = [1, 4];

/// The admission/SLO policy of the replay: tight SLO and a shallow queue
/// for `interactive`, loose SLO and a deep queue for `bulk`, and a global
/// outstanding bound that grows with the pool.
fn service_config(devices: usize, interval: u64) -> ServiceConfig {
    ServiceConfig {
        classes: std::array::from_fn(|i| ClassPolicy {
            queue_cap: QUEUE_CAPS[i],
            slo_cycles: SLO_INTERVALS[i] * interval,
        }),
        max_outstanding: 12 * devices,
        device_queue_cap: 2,
        max_in_flight: 0,
        timeline_window_cycles: 0,
    }
}

/// One pool size of the online-service replay.
struct ServicePoint {
    devices: usize,
    outcome: ServiceOutcome<BatchTask<Fr>>,
}

/// The online-service replay behind `tables serve` and the BENCH.json
/// `service` section: a probe batch calibrates the trace time unit, then
/// the arrival plan is replayed at each [`SERVICE_DEVICES`] pool size.
struct ServiceStudy {
    log_n: u32,
    arrivals: usize,
    proof_interval_cycles: u64,
    unit_cycles: u64,
    points: Vec<ServicePoint>,
}

/// Shared front half of every service replay: the parsed and validated
/// arrivals plus the probe-calibrated trace time unit. Splitting this from
/// the replay itself lets [`service_study`] (pool sizes 1 and 4) and the
/// flight-recorder study ([`timeline`], 1 device under `TraceLevel::Full`)
/// calibrate once and replay under different trace levels.
struct ServiceSetup {
    backend: SpartanBackend<Fr>,
    inputs: Vec<Fr>,
    witness: Vec<Fr>,
    classes: Vec<PriorityClass>,
    arrival_units: Vec<u64>,
    proof_interval_cycles: u64,
    unit_cycles: u64,
}

fn service_setup(scale: &Scale, plan: &ArrivalPlan) -> Result<ServiceSetup, String> {
    let arrivals = plan.expand();
    if arrivals.is_empty() {
        return Err("arrival trace is empty: nothing to serve".into());
    }
    // Reject unknown class labels before spending any proving time.
    let classes: Vec<PriorityClass> = arrivals
        .iter()
        .map(|a| PriorityClass::parse(&a.class))
        .collect::<Result<_, _>>()?;
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << scale.service_log, 42);
    let backend = SpartanBackend::new(Arc::new(r1cs), pcs_params());
    // Calibration probe: the steady-state per-proof interval on one device
    // defines the trace time unit, so the committed trace offers the same
    // *relative* load at any circuit size. Integer simulated cycles only —
    // the calibration is as deterministic as the replay itself.
    let probe: Vec<_> = (0..scale.service_probe_batch)
        .map(|_| (inputs.clone(), witness.clone()))
        .collect();
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let probe_stats = prove_batch_with(&mut gpu, &backend, probe, MODULE_THREADS, true)
        .expect("fits")
        .stats;
    let interval = (probe_stats.total_cycles / probe_stats.tasks.max(1) as u64).max(1);
    let unit = (interval / UNITS_PER_INTERVAL).max(1);
    Ok(ServiceSetup {
        backend,
        inputs,
        witness,
        classes,
        arrival_units: arrivals.iter().map(|a| a.at_cycle).collect(),
        proof_interval_cycles: interval,
        unit_cycles: unit,
    })
}

/// Replays the calibrated arrivals through the service front on an A100
/// pool of `devices`, recording at `level`. Returns the pool alongside the
/// outcome so callers can export its trace. The trace level changes only
/// what the devices *record* — scheduling and the flight recorder are
/// byte-identical across levels.
fn service_replay(
    setup: &ServiceSetup,
    devices: usize,
    level: batchzk_gpu_sim::TraceLevel,
) -> Result<(ServiceOutcome<BatchTask<Fr>>, DevicePool), String> {
    let requests: Vec<BackendProofRequest<SpartanBackend<Fr>>> = setup
        .classes
        .iter()
        .zip(&setup.arrival_units)
        .map(|(&class, &at)| {
            (
                class,
                at.saturating_mul(setup.unit_cycles),
                (setup.inputs.clone(), setup.witness.clone()),
            )
        })
        .collect();
    let mut pool = DevicePool::homogeneous_with_trace_level(DeviceProfile::a100(), devices, level);
    let outcome = prove_service_with(
        &mut pool,
        &setup.backend,
        &service_config(devices, setup.proof_interval_cycles),
        requests,
        MODULE_THREADS,
        true,
    )
    .map_err(|e| e.to_string())?;
    Ok((outcome, pool))
}

fn service_study(scale: &Scale, plan: &ArrivalPlan) -> Result<ServiceStudy, String> {
    let setup = service_setup(scale, plan)?;
    let mut points = Vec::new();
    for devices in SERVICE_DEVICES {
        let (outcome, _) = service_replay(&setup, devices, batchzk_gpu_sim::TraceLevel::default())?;
        points.push(ServicePoint { devices, outcome });
    }
    Ok(ServiceStudy {
        log_n: scale.service_log,
        arrivals: setup.classes.len(),
        proof_interval_cycles: setup.proof_interval_cycles,
        unit_cycles: setup.unit_cycles,
        points,
    })
}

/// Folds one replay outcome's per-class reports into the analyzer's
/// observation shape.
fn service_observations<T>(o: &ServiceOutcome<T>) -> Vec<ServiceClassObservation> {
    o.reports
        .iter()
        .map(|r| ServiceClassObservation {
            class: r.class.name().into(),
            slo_cycles: r.slo_cycles,
            submitted: r.submitted,
            accepted: r.accepted,
            rejected: r.rejected_queue_full + r.rejected_saturated,
            completed: r.completed,
            within_slo: r.within_slo,
            latency_p99_cycles: r.latency_p99_cycles,
        })
        .collect()
}

/// The `tables serve` report: replays `plan` (default: the committed
/// reference trace) through the online service front on A100 pools of 1
/// and 4 devices and renders the per-class SLO accounting — submitted /
/// accepted / rejected-with-reason / completed, nearest-rank latency
/// quantiles against each class's SLO, goodput, and the service analyzer's
/// per-class verdicts.
///
/// A trace whose arrivals carry backend labels (`class/backend@...`)
/// routes through the mixed-backend service instead: one
/// [`MixedBackend`] service instance interleaves all protocols, and the
/// report adds the per-backend completion split.
///
/// # Errors
///
/// Returns a message (no panic) for an empty trace, an unknown class or
/// backend label, or a service-side failure.
pub fn serve(scale: &Scale, plan: &ArrivalPlan) -> Result<String, String> {
    if !plan.backends().is_empty() {
        return mixed_serve(scale, plan);
    }
    let study = service_study(scale, plan)?;
    let mut out = format!(
        "## Serve — open-loop replay, S = 2^{} on A100 pools of 1 and 4 ({} arrivals)\n\n\
         Trace: `{}`\n\n\
         Calibration: proof interval {} cycles, so 1 trace unit = {} device cycles\n\
         (SLOs: interactive {}, standard {}, bulk {} proof intervals).\n",
        study.log_n,
        study.arrivals,
        plan.spec(),
        study.proof_interval_cycles,
        study.unit_cycles,
        SLO_INTERVALS[0],
        SLO_INTERVALS[1],
        SLO_INTERVALS[2],
    );
    for p in &study.points {
        let o = &p.outcome;
        out.push_str(&format!(
            "\n### {} device{}\n\n\
             | Class | SLO (cycles) | Submitted | Accepted | Rejected (queue / saturated) | Completed | Within SLO | p50 | p95 | p99 | Attainment |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
            p.devices,
            if p.devices == 1 { "" } else { "s" },
        ));
        for r in &o.reports {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} / {} | {} | {} | {} | {} | {} | {:.1}% |\n",
                r.class,
                r.slo_cycles,
                r.submitted,
                r.accepted,
                r.rejected_queue_full,
                r.rejected_saturated,
                r.completed,
                r.within_slo,
                r.latency_p50_cycles,
                r.latency_p95_cycles,
                r.latency_p99_cycles,
                r.slo_attainment() * 100.0,
            ));
        }
        let analysis = analyze_service(&service_observations(o));
        out.push_str(&format!(
            "\nGoodput {:.3} within-SLO proofs/Mcycle; overall rejection rate {:.1}%.\n\n```\n{}```\n",
            o.goodput_per_mcycle(),
            analysis.rejection_rate * 100.0,
            analysis.render_text(),
        ));
    }
    Ok(out)
}

/// Renders one study as the BENCH.json `service` section (canonical JSON,
/// byte-deterministic).
fn service_json_from_study(study: &ServiceStudy, plan: &ArrivalPlan) -> String {
    use batchzk_metrics::registry::{escape_json, format_f64};
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"log_n\":{},\"trace\":\"{}\",\"arrivals\":{},\
         \"proof_interval_cycles\":{},\"unit_cycles\":{},\"runs\":[",
        study.log_n,
        escape_json(&plan.spec()),
        study.arrivals,
        study.proof_interval_cycles,
        study.unit_cycles,
    );
    for (i, p) in study.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let o = &p.outcome;
        let _ = write!(out, "{{\"devices\":{},\"classes\":[", p.devices);
        for (j, r) in o.reports.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"class\":\"{}\",\"slo_cycles\":{},\"submitted\":{},\"accepted\":{},\
                 \"rejected_queue_full\":{},\"rejected_saturated\":{},\"completed\":{},\
                 \"within_slo\":{},\"latency_cycles\":{{\"p50\":{},\"p95\":{},\"p99\":{},\
                 \"max\":{}}},\"slo_attainment\":{},\"rejection_rate\":{}}}",
                r.class.name(),
                r.slo_cycles,
                r.submitted,
                r.accepted,
                r.rejected_queue_full,
                r.rejected_saturated,
                r.completed,
                r.within_slo,
                r.latency_p50_cycles,
                r.latency_p95_cycles,
                r.latency_p99_cycles,
                r.latency_max_cycles,
                format_f64(r.slo_attainment()),
                format_f64(r.rejection_rate()),
            );
        }
        let analysis = analyze_service(&service_observations(o));
        let _ = write!(
            out,
            "],\"goodput_per_mcycle\":{},\"rejection_rate\":{},\"analysis\":{}}}",
            format_f64(o.goodput_per_mcycle()),
            format_f64(analysis.rejection_rate),
            analysis.to_json(),
        );
    }
    out.push_str("]}");
    out
}

/// The BENCH.json `service` section on its own: the replay of `plan` at
/// pool sizes 1 and 4, rendered as canonical JSON. Byte-deterministic for
/// a given scale and plan at any host thread count — this is what the CI
/// determinism gate compares.
///
/// # Errors
///
/// Same conditions as [`serve`].
pub fn service_json(scale: &Scale, plan: &ArrivalPlan) -> Result<String, String> {
    Ok(service_json_from_study(&service_study(scale, plan)?, plan))
}

// ---------------------------------------------------------------------------
// Backend comparison (`tables backends`, BENCH.json `backends` section).
// ---------------------------------------------------------------------------

/// The committed mixed-backend arrival trace: all three protocols interleaved
/// through one service instance (`traces/mixed.trace`).
pub const MIXED_TRACE: &str = include_str!("../../../traces/mixed.trace");

/// Parses the committed mixed-backend trace.
pub fn mixed_plan() -> ArrivalPlan {
    ArrivalPlan::parse(MIXED_TRACE).expect("committed mixed trace parses")
}

/// Validates every backend label of `plan` against [`BACKEND_NAMES`].
/// Arrivals without a label default to the sumcheck backend.
///
/// # Errors
///
/// Returns a message naming the unknown label and the accepted set.
pub fn validate_trace_backends(plan: &ArrivalPlan) -> Result<(), String> {
    for b in plan.backends() {
        if !BACKEND_NAMES.contains(&b.as_str()) {
            return Err(format!(
                "unknown backend `{b}`: expected one of {}",
                BACKEND_NAMES.join(", ")
            ));
        }
    }
    Ok(())
}

/// One pipelined-vs-naive measurement of one backend at one batch size.
struct BackendScenarioPoint {
    scenario: &'static str,
    tasks: usize,
    pipelined: batchzk_pipeline::RunStats,
    naive: batchzk_pipeline::RunStats,
    /// Both schedules must produce byte-identical proofs: the schedule
    /// changes *when* work runs, never what it computes.
    proofs_identical: bool,
    /// Every pipelined proof passed the backend's verifier.
    verified: bool,
}

/// One backend's scenario sweep.
struct BackendStudyPoint {
    backend: &'static str,
    scenarios: Vec<BackendScenarioPoint>,
}

/// The backend comparison behind `tables backends` and the BENCH.json
/// `backends` section.
struct BackendsStudy {
    log_n: u32,
    throughput_batch: usize,
    points: Vec<BackendStudyPoint>,
    /// The committed mixed trace through one service instance; skipped
    /// when the study is filtered to a single backend.
    mixed: Option<MixedServiceStudy>,
}

/// Runs one backend through the latency (batch 1) and throughput
/// (batch `batch`) scenarios, pipelined and kernel-per-task naive, on
/// fresh A100 devices. Pipelined runs land in `registry` under a
/// `backend` label.
fn backend_scenarios<B>(
    registry: &mut batchzk_metrics::Registry,
    backend: &B,
    instances_for: impl Fn(usize) -> Vec<B::Instance>,
    batch: usize,
) -> BackendStudyPoint
where
    B: ProverBackend,
    B::Statement: PartialEq,
    B::Proof: PartialEq,
{
    let mut scenarios = Vec::new();
    for (scenario, tasks) in [("latency", 1usize), ("throughput", batch)] {
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let piped = prove_batch_with(
            &mut gpu,
            backend,
            instances_for(tasks),
            MODULE_THREADS,
            true,
        )
        .expect("fits");
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let naive = prove_batch_naive_with(
            &mut gpu,
            backend,
            instances_for(tasks),
            MODULE_THREADS,
            NAIVE_CONCURRENCY,
        );
        let proofs_identical = piped.proofs == naive.proofs;
        let verified = piped.proofs.iter().all(|(s, p)| backend.verify(s, p));
        batchzk_pipeline::observe::record_run_with_backend(
            registry,
            &format!("backends-{scenario}"),
            backend.name(),
            &piped.stats,
        );
        scenarios.push(BackendScenarioPoint {
            scenario,
            tasks,
            pipelined: piped.stats,
            naive: naive.stats,
            proofs_identical,
            verified,
        });
    }
    BackendStudyPoint {
        backend: backend.name(),
        scenarios,
    }
}

fn backends_study(
    scale: &Scale,
    registry: &mut batchzk_metrics::Registry,
    only: Option<&str>,
) -> BackendsStudy {
    let log = scale.backends_log;
    let mut points = Vec::new();
    if only.is_none_or(|o| o == BACKEND_NAMES[0]) {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << log, 42);
        let spartan = SpartanBackend::new(Arc::new(r1cs), pcs_params());
        points.push(backend_scenarios(
            registry,
            &spartan,
            |n| (0..n).map(|_| (inputs.clone(), witness.clone())).collect(),
            scale.backends_batch,
        ));
    }
    if only.is_none_or(|o| o == BACKEND_NAMES[1]) {
        let groth = GrothBackend::new(log);
        points.push(backend_scenarios(
            registry,
            &groth,
            |n| {
                (0..n)
                    .map(|i| groth.circuit().witness(1000 + i as u64))
                    .collect()
            },
            scale.backends_batch,
        ));
    }
    if only.is_none_or(|o| o == BACKEND_NAMES[2]) {
        let orion = OrionBackend::<Fr>::new(log as usize, pcs_params());
        points.push(backend_scenarios(
            registry,
            &orion,
            |n| (0..n).map(|i| orion.instance(3000 + i as u64)).collect(),
            scale.backends_batch,
        ));
    }
    let mixed = if only.is_none() {
        Some(
            mixed_service_study(scale, &mixed_plan(), registry)
                .expect("committed mixed trace serves"),
        )
    } else {
        None
    };
    BackendsStudy {
        log_n: log,
        throughput_batch: scale.backends_batch,
        points,
        mixed,
    }
}

/// One pool size of the mixed-backend service replay.
struct MixedServicePoint {
    devices: usize,
    outcome: ServiceOutcome<MixedTask>,
    /// Completions per backend, indexed like [`BACKEND_NAMES`].
    completed_by_backend: [u64; BACKEND_NAMES.len()],
}

/// The committed mixed trace replayed through one
/// [`prove_service_with`]`(`[`MixedBackend`]`)` instance per pool size:
/// sumcheck, Groth16-style, and Orion tasks interleave through the same
/// pipelines under the existing SLO classes.
struct MixedServiceStudy {
    spec: String,
    log_sumcheck: u32,
    log_groth: u32,
    log_orion: u32,
    arrivals: usize,
    proof_interval_cycles: u64,
    unit_cycles: u64,
    points: Vec<MixedServicePoint>,
}

fn mixed_service_study(
    scale: &Scale,
    plan: &ArrivalPlan,
    registry: &mut batchzk_metrics::Registry,
) -> Result<MixedServiceStudy, String> {
    validate_trace_backends(plan)?;
    let arrivals = plan.expand();
    if arrivals.is_empty() {
        return Err("arrival trace is empty: nothing to serve".into());
    }
    let classes: Vec<PriorityClass> = arrivals
        .iter()
        .map(|a| PriorityClass::parse(&a.class))
        .collect::<Result<_, _>>()?;
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << scale.service_log, 42);
    let r1cs = Arc::new(r1cs);
    // Same calibration as the single-backend replay: the sumcheck probe
    // interval defines the trace time unit, so a mixed trace offers the
    // same relative load as its sumcheck-only twin.
    let probe: Vec<_> = (0..scale.service_probe_batch)
        .map(|_| (inputs.clone(), witness.clone()))
        .collect();
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let sumcheck = SpartanBackend::new(Arc::clone(&r1cs), pcs_params());
    let probe_stats = prove_batch_with(&mut gpu, &sumcheck, probe, MODULE_THREADS, true)
        .expect("fits")
        .stats;
    let interval = (probe_stats.total_cycles / probe_stats.tasks.max(1) as u64).max(1);
    let unit = (interval / UNITS_PER_INTERVAL).max(1);
    let backend = MixedBackend::new(
        sumcheck,
        GrothBackend::new(scale.backends_log),
        OrionBackend::new(scale.backends_log as usize, pcs_params()),
    );
    let mut points = Vec::new();
    for devices in SERVICE_DEVICES {
        let requests: Vec<BackendProofRequest<MixedBackend>> = classes
            .iter()
            .zip(&arrivals)
            .enumerate()
            .map(|(i, (&class, a))| {
                let instance = match a.backend.as_deref() {
                    Some("groth16") => {
                        MixedInstance::Groth(backend.groth().circuit().witness(2000 + i as u64))
                    }
                    Some("orion") => {
                        MixedInstance::Orion(backend.orion().instance(4000 + i as u64))
                    }
                    // `validate_trace_backends` rejected everything else.
                    _ => MixedInstance::Sumcheck((inputs.clone(), witness.clone())),
                };
                (class, a.at_cycle.saturating_mul(unit), instance)
            })
            .collect();
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), devices);
        let outcome = prove_service_with(
            &mut pool,
            &backend,
            &service_config(devices, interval),
            requests,
            MODULE_THREADS,
            true,
        )
        .map_err(|e| e.to_string())?;
        let mut completed_by_backend = [0u64; BACKEND_NAMES.len()];
        for c in &outcome.completions {
            let idx = BACKEND_NAMES
                .iter()
                .position(|n| *n == c.task.backend_name())
                .expect("built-in backend");
            completed_by_backend[idx] += 1;
        }
        let module = format!("mixed-d{devices}");
        batchzk_pipeline::observe::record_service(registry, &module, &outcome);
        batchzk_pipeline::observe::record_service_backends(registry, &module, &outcome, |t| {
            t.backend_name()
        });
        points.push(MixedServicePoint {
            devices,
            outcome,
            completed_by_backend,
        });
    }
    Ok(MixedServiceStudy {
        spec: plan.spec(),
        log_sumcheck: scale.service_log,
        log_groth: scale.backends_log,
        log_orion: scale.backends_log,
        arrivals: arrivals.len(),
        proof_interval_cycles: interval,
        unit_cycles: unit,
        points,
    })
}

/// The `tables backends` report: each built-in [`ProverBackend`] proved
/// through the fully pipelined schedule and the kernel-per-task naive
/// schedule at the same size on fresh A100 devices (latency scenario at
/// batch 1, throughput scenario at the scale's backend batch), asserting
/// the two schedules produce byte-identical proofs — then the committed
/// mixed trace through one service instance serving every protocol.
/// `only` (the `--backend` flag) restricts the sweep to one backend and
/// skips the mixed replay.
pub fn backends(scale: &Scale, only: Option<&str>) -> String {
    let mut registry = batchzk_metrics::Registry::new();
    let study = backends_study(scale, &mut registry, only);
    let mut out = format!(
        "## Backends — pipelined vs kernel-per-task naive, S = 2^{} on A100\n\n\
         | Backend | Scenario | Tasks | Naive (proofs/ms) | Pipelined (proofs/ms) | Speedup | Proofs identical | Verified |\n\
         |---|---|---|---|---|---|---|---|\n",
        study.log_n,
    );
    for p in &study.points {
        for s in &p.scenarios {
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.2}x | {} | {} |\n",
                p.backend,
                s.scenario,
                s.tasks,
                s.naive.throughput_per_ms,
                s.pipelined.throughput_per_ms,
                s.pipelined.throughput_per_ms / s.naive.throughput_per_ms,
                if s.proofs_identical { "YES" } else { "NO" },
                if s.verified { "YES" } else { "NO" },
            ));
        }
    }
    if let Some(m) = &study.mixed {
        out.push_str(&format!(
            "\n### Mixed service — one pool, all protocols\n\n\
             Trace: `{}`\n\n\
             Sumcheck at 2^{}, Groth16-style at 2^{}, Orion at 2^{}; {} arrivals,\n\
             1 trace unit = {} device cycles.\n\n",
            m.spec, m.log_sumcheck, m.log_groth, m.log_orion, m.arrivals, m.unit_cycles,
        ));
        out.push_str("| Devices | Accepted | Rejected |");
        for name in BACKEND_NAMES {
            out.push_str(&format!(" Completed ({name}) |"));
        }
        out.push_str(" Goodput (within-SLO/Mcycle) |\n|---|---|---|");
        for _ in BACKEND_NAMES {
            out.push_str("---|");
        }
        out.push_str("---|\n");
        for p in &m.points {
            let accepted: u64 = p.outcome.reports.iter().map(|r| r.accepted).sum();
            let rejected: u64 = p
                .outcome
                .reports
                .iter()
                .map(|r| r.rejected_queue_full + r.rejected_saturated)
                .sum();
            out.push_str(&format!("| {} | {} | {} |", p.devices, accepted, rejected));
            for &c in &p.completed_by_backend {
                out.push_str(&format!(" {c} |"));
            }
            out.push_str(&format!(" {:.3} |\n", p.outcome.goodput_per_mcycle()));
        }
    }
    out
}

/// Renders one study as the BENCH.json `backends` section (canonical
/// JSON, byte-deterministic).
fn backends_json_from_study(study: &BackendsStudy) -> String {
    use batchzk_metrics::registry::{escape_json, format_f64};
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"log_n\":{},\"throughput_batch\":{},\"runs\":[",
        study.log_n, study.throughput_batch,
    );
    for (i, p) in study.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"backend\":\"{}\",\"scenarios\":[", p.backend);
        for (j, s) in p.scenarios.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"scenario\":\"{}\",\"tasks\":{},\
                 \"pipelined\":{{\"total_cycles\":{},\"throughput_per_ms\":{}}},\
                 \"naive\":{{\"total_cycles\":{},\"throughput_per_ms\":{}}},\
                 \"speedup\":{},\"proofs_identical\":{},\"verified\":{}}}",
                s.scenario,
                s.tasks,
                s.pipelined.total_cycles,
                format_f64(s.pipelined.throughput_per_ms),
                s.naive.total_cycles,
                format_f64(s.naive.throughput_per_ms),
                format_f64(s.pipelined.throughput_per_ms / s.naive.throughput_per_ms),
                s.proofs_identical,
                s.verified,
            );
        }
        out.push_str("]}");
    }
    out.push(']');
    let m = study
        .mixed
        .as_ref()
        .expect("unfiltered study carries mixed");
    let _ = write!(
        out,
        ",\"mixed_service\":{{\"trace\":\"{}\",\"log_sumcheck\":{},\"log_groth16\":{},\
         \"log_orion\":{},\"arrivals\":{},\"proof_interval_cycles\":{},\"unit_cycles\":{},\"runs\":[",
        escape_json(&m.spec),
        m.log_sumcheck,
        m.log_groth,
        m.log_orion,
        m.arrivals,
        m.proof_interval_cycles,
        m.unit_cycles,
    );
    for (i, p) in m.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"devices\":{},\"completed_by_backend\":{{",
            p.devices
        );
        for (k, (name, count)) in BACKEND_NAMES
            .iter()
            .zip(&p.completed_by_backend)
            .enumerate()
        {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{count}");
        }
        out.push_str("},\"classes\":[");
        for (j, r) in p.outcome.reports.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"class\":\"{}\",\"slo_cycles\":{},\"submitted\":{},\"accepted\":{},\
                 \"rejected_queue_full\":{},\"rejected_saturated\":{},\"completed\":{},\
                 \"within_slo\":{},\"latency_cycles\":{{\"p50\":{},\"p95\":{},\"p99\":{}}},\
                 \"slo_attainment\":{}}}",
                r.class.name(),
                r.slo_cycles,
                r.submitted,
                r.accepted,
                r.rejected_queue_full,
                r.rejected_saturated,
                r.completed,
                r.within_slo,
                r.latency_p50_cycles,
                r.latency_p95_cycles,
                r.latency_p99_cycles,
                format_f64(r.slo_attainment()),
            );
        }
        let _ = write!(
            out,
            "],\"goodput_per_mcycle\":{}}}",
            format_f64(p.outcome.goodput_per_mcycle()),
        );
    }
    out.push_str("]}}");
    out
}

/// The BENCH.json `backends` section on its own (canonical JSON,
/// byte-deterministic at any host thread count). Records nothing into a
/// shared registry — [`bench_json`] threads its own.
pub fn backends_json(scale: &Scale) -> String {
    let mut registry = batchzk_metrics::Registry::new();
    backends_json_from_study(&backends_study(scale, &mut registry, None))
}

/// The `tables serve` report for a mixed-backend trace: the same per-class
/// SLO accounting as [`serve`], plus the per-backend completion split, from
/// one [`MixedBackend`] service instance per pool size.
fn mixed_serve(scale: &Scale, plan: &ArrivalPlan) -> Result<String, String> {
    let mut registry = batchzk_metrics::Registry::new();
    let study = mixed_service_study(scale, plan, &mut registry)?;
    let mut out = format!(
        "## Serve (mixed backends) — sumcheck 2^{} + groth16 2^{} + orion 2^{} on A100 pools of 1 and 4 ({} arrivals)\n\n\
         Trace: `{}`\n\n\
         Calibration: proof interval {} cycles, so 1 trace unit = {} device cycles.\n",
        study.log_sumcheck,
        study.log_groth,
        study.log_orion,
        study.arrivals,
        plan.spec(),
        study.proof_interval_cycles,
        study.unit_cycles,
    );
    for p in &study.points {
        let o = &p.outcome;
        out.push_str(&format!(
            "\n### {} device{}\n\n\
             | Class | SLO (cycles) | Submitted | Accepted | Rejected (queue / saturated) | Completed | Within SLO | p50 | p95 | p99 | Attainment |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
            p.devices,
            if p.devices == 1 { "" } else { "s" },
        ));
        for r in &o.reports {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} / {} | {} | {} | {} | {} | {} | {:.1}% |\n",
                r.class,
                r.slo_cycles,
                r.submitted,
                r.accepted,
                r.rejected_queue_full,
                r.rejected_saturated,
                r.completed,
                r.within_slo,
                r.latency_p50_cycles,
                r.latency_p95_cycles,
                r.latency_p99_cycles,
                r.slo_attainment() * 100.0,
            ));
        }
        let split: Vec<String> = BACKEND_NAMES
            .iter()
            .zip(&p.completed_by_backend)
            .map(|(name, count)| format!("{count} [{name}]"))
            .collect();
        out.push_str(&format!(
            "\nCompleted by backend: {}; goodput {:.3} within-SLO proofs/Mcycle.\n",
            split.join(", "),
            o.goodput_per_mcycle(),
        ));
    }
    Ok(out)
}

/// Renders one ASCII sparkline row per flight-recorder series: each
/// character is one window, the digit the decile of the row's own maximum
/// (the same glyph scheme as the kernel-occupancy timelines).
fn render_timeline_sparklines(t: &batchzk_metrics::Timeline) -> String {
    let glyphs = [' ', '1', '2', '3', '4', '5', '6', '7', '8', '9'];
    let mut rows: Vec<(String, Vec<u64>)> = Vec::new();
    for (ci, name) in t.class_names().iter().enumerate() {
        rows.push((format!("{name} queue depth"), t.queue_depth_series(ci)));
        rows.push((format!("{name} rejects"), t.rejected_series(ci)));
    }
    for d in 0..t.devices() {
        rows.push((
            format!("device{d} utilization"),
            t.utilization_ppm_series(d),
        ));
    }
    rows.push(("p99 latency".into(), t.p99_series()));
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, row) in &rows {
        let max = row.iter().copied().max().unwrap_or(0).max(1);
        out.push_str(&format!("{name:width$} : ["));
        for &v in row {
            out.push(glyphs[(((v as f64 / max as f64) * 9.0).round() as usize).min(9)]);
        }
        out.push_str("]\n");
    }
    out
}

/// Canonical JSON of one flight-recorder evaluation: the replay's
/// calibration envelope, the rule set, the recorder itself, and the
/// ordered alert log. Integers and strings only — byte-deterministic.
fn timeline_json_inner(
    plan: &ArrivalPlan,
    log_n: u32,
    interval: u64,
    unit: u64,
    t: &batchzk_metrics::Timeline,
    rules: &[batchzk_metrics::AlertRule],
    log: &batchzk_metrics::AlertLog,
) -> String {
    use batchzk_metrics::registry::escape_json;
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"log_n\":{log_n},\"trace\":\"{}\",\"devices\":1,\
         \"proof_interval_cycles\":{interval},\"unit_cycles\":{unit},\"rules\":[",
        escape_json(&plan.spec()),
    );
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"threshold_ppm\":{},\"for_windows\":{},\"runbook\":\"{}\"}}",
            escape_json(&r.name),
            r.threshold_ppm,
            r.for_windows,
            escape_json(&r.runbook),
        );
    }
    let _ = write!(
        out,
        "],\"recorder\":{},\"alerts\":{}}}",
        t.to_json(),
        log.to_json()
    );
    out
}

/// The BENCH.json `timeline` section, derived from an already-run service
/// study's single-device point (the committed overload case) — no extra
/// proving. The default alerting policy
/// ([`batchzk_pipeline::default_service_rules`]) is evaluated against the
/// replay's flight recorder.
fn timeline_json_from_study(study: &ServiceStudy, plan: &ArrivalPlan) -> String {
    let p = study
        .points
        .iter()
        .find(|p| p.devices == 1)
        .expect("the service study always replays the 1-device pool");
    let rules =
        batchzk_pipeline::default_service_rules(&service_config(1, study.proof_interval_cycles), 1);
    let log = batchzk_metrics::evaluate(&p.outcome.timeline, &rules);
    timeline_json_inner(
        plan,
        study.log_n,
        study.proof_interval_cycles,
        study.unit_cycles,
        &p.outcome.timeline,
        &rules,
        &log,
    )
}

/// Everything `tables timeline` emits for one replay.
pub struct TimelineArtifacts {
    /// Markdown report: calibration envelope, per-window sparkline table,
    /// and the rendered alert log.
    pub report: String,
    /// Canonical `TIMELINE.json` content — the same bytes as the
    /// BENCH.json `timeline` section for the same scale and plan.
    pub json: String,
    /// The device's Chrome trace with the flight recorder merged in as
    /// phase-`"C"` counter tracks.
    pub chrome_trace: String,
}

/// The flight-recorder report: replays `plan` on the **single-device**
/// A100 pool (the committed reference trace's overload case) under
/// `TraceLevel::Full`, evaluates the default alerting policy against the
/// recorded timeline, and renders the per-window sparkline table, the
/// fire/resolve alert log (each line naming its OPERATIONS.md runbook
/// section), the canonical JSON artifact, and the merged Chrome trace.
///
/// # Errors
///
/// Same conditions as [`serve`].
pub fn timeline(scale: &Scale, plan: &ArrivalPlan) -> Result<TimelineArtifacts, String> {
    use batchzk_gpu_sim::TraceLevel;
    let setup = service_setup(scale, plan)?;
    let (outcome, pool) = service_replay(&setup, 1, TraceLevel::Full)?;
    let t = &outcome.timeline;
    let rules =
        batchzk_pipeline::default_service_rules(&service_config(1, setup.proof_interval_cycles), 1);
    let log = batchzk_metrics::evaluate(t, &rules);
    let tracks = batchzk_pipeline::timeline_counter_tracks(t);
    let chrome_trace = pool.device(0).chrome_trace_json_with_counters(&tracks);
    let report = format!(
        "## Timeline — flight recorder, S = 2^{} on 1 A100 ({} arrivals)\n\n\
         Trace: `{}`\n\n\
         Calibration: proof interval {} cycles; window {} cycles, {} windows\n\
         ({} downsampling pass{}).\n\n\
         Per-window series (each char = one window, digit = decile of the row's max):\n\n\
         ```\n{}```\n\n\
         Alert evaluation ({} rules; {} fired, {} resolved, {} still firing):\n\n\
         ```\n{}```\n",
        scale.service_log,
        setup.classes.len(),
        plan.spec(),
        setup.proof_interval_cycles,
        t.window_cycles(),
        t.windows().len(),
        t.downsamples(),
        if t.downsamples() == 1 { "" } else { "es" },
        render_timeline_sparklines(t),
        rules.len(),
        log.fired(),
        log.resolved(),
        log.still_firing.len(),
        log.render_text(),
    );
    let json = timeline_json_inner(
        plan,
        scale.service_log,
        setup.proof_interval_cycles,
        setup.unit_cycles,
        t,
        &rules,
        &log,
    );
    Ok(TimelineArtifacts {
        report,
        json,
        chrome_trace,
    })
}

/// Renders one ASCII occupancy row per kernel track: each character is a
/// time bucket, each digit the decile of cycles that track was busy.
fn render_kernel_timelines(
    events: &[batchzk_gpu_sim::KernelEvent],
    total_cycles: u64,
    buckets: usize,
) -> String {
    let mut tracks: Vec<(String, Vec<u64>)> = Vec::new();
    let bucket_len = (total_cycles / buckets as u64).max(1);
    for e in events {
        let row = match tracks.iter_mut().find(|(n, _)| *n == e.name) {
            Some((_, row)) => row,
            None => {
                tracks.push((e.name.clone(), vec![0u64; buckets]));
                &mut tracks.last_mut().unwrap().1
            }
        };
        // Spread the event's busy cycles over the buckets it overlaps.
        let (start, end) = (e.start_cycle, e.start_cycle + e.duration_cycles);
        let (b0, b1) = (
            (start / bucket_len) as usize,
            ((end.saturating_sub(1)) / bucket_len) as usize,
        );
        for (b, cell) in row.iter_mut().enumerate().take(b1 + 1).skip(b0) {
            let lo = start.max(b as u64 * bucket_len);
            let hi = end.min((b as u64 + 1) * bucket_len);
            *cell += hi.saturating_sub(lo);
        }
    }
    let glyphs = [' ', '1', '2', '3', '4', '5', '6', '7', '8', '9'];
    let width = tracks.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, row) in &tracks {
        out.push_str(&format!("{name:width$} : ["));
        for &busy in row {
            let u = busy as f64 / bucket_len as f64;
            out.push(glyphs[((u * 9.0).round() as usize).min(9)]);
        }
        out.push_str("]\n");
    }
    out
}

/// Renders the stage-imbalance table from per-stage accounting: where each
/// stage's cycles went (busy vs the two stall classes vs fill/drain).
fn render_stage_table(stats: &[batchzk_pipeline::StageStats], total_cycles: u64) -> String {
    let mut out = String::from(
        "| Stage | Threads | Tasks | Occupancy | Busy % | Imbalance % | Mem stall % | Fill % | Drain % | H2D KB | D2H KB |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let pct = |c: u64| 100.0 * c as f64 / total_cycles.max(1) as f64;
    for s in stats {
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
            s.name,
            s.threads,
            s.tasks,
            s.occupancy,
            pct(s.busy_cycles),
            pct(s.imbalance_stall_cycles),
            pct(s.memory_stall_cycles),
            pct(s.fill_cycles),
            pct(s.drain_cycles),
            s.h2d_bytes as f64 / 1024.0,
            s.d2h_bytes as f64 / 1024.0,
        ));
    }
    out
}

/// The observability report: runs the pipelined Merkle module under
/// `TraceLevel::Full` and returns the Figure-4-style per-stage timeline plus
/// the stage-imbalance table (first element) and the raw Chrome-trace JSON
/// (second element), ready for `chrome://tracing` or Perfetto.
pub fn trace(scale: &Scale) -> (String, String) {
    use batchzk_gpu_sim::TraceLevel;
    let log = scale.module_logs[0];
    let batch = tree_batch(log, scale.module_batch);
    let mut gpu = Gpu::with_trace_level(DeviceProfile::gh200(), TraceLevel::Full);
    let run = pmerkle::run_pipelined(&mut gpu, batch, MODULE_THREADS, true).expect("fits");
    let total = gpu.elapsed_cycles();
    let report = format!(
        "## Trace — pipelined Merkle module, 2^{log} blocks/tree, {} trees (GH200)\n\n\
         Per-stage occupancy over time (each char = one bucket, digit = busy decile):\n\n\
         ```\n{}```\n\n\
         Stage imbalance (% of the {total}-cycle run):\n\n{}",
        run.stats.tasks,
        render_kernel_timelines(gpu.kernel_events(), total, 56),
        render_stage_table(&run.stats.stage_stats, total),
    );
    (report, gpu.chrome_trace_json())
}

/// Exact nearest-rank quantile over sorted integer samples (0 if empty).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Renders one module's benchmark section for [`bench_json`], folding the
/// run into `registry` as a side effect.
fn bench_section(
    registry: &mut batchzk_metrics::Registry,
    module: &str,
    log: u32,
    gpu: &Gpu,
    stats: &batchzk_pipeline::RunStats,
    total_threads: u32,
) -> String {
    use batchzk_metrics::registry::{escape_json, format_f64};
    use batchzk_pipeline::observe;
    use std::fmt::Write as _;

    observe::record_run(registry, module, stats);
    let analysis = batchzk_metrics::analyze(
        gpu.step_events(),
        gpu.kernel_events(),
        &observe::stage_observations(&stats.stage_stats),
        total_threads,
    );
    // Exact nearest-rank quantiles over the integer per-proof latencies —
    // not the histogram's bucketed estimate — since the raw spans are in
    // hand here.
    let mut latencies: Vec<u64> = stats.lifecycles.iter().map(|s| s.total_cycles()).collect();
    latencies.sort_unstable();
    let secs = gpu.profile().cycles_to_seconds(stats.total_cycles);
    let tasks_per_sec = if secs > 0.0 {
        stats.tasks as f64 / secs
    } else {
        0.0
    };

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"log_n\":{log},\"tasks\":{},\"total_cycles\":{},\
         \"tasks_per_sec\":{},\"throughput_per_ms\":{},\
         \"limiting_stage\":\"{}\",\"latency_cycles\":{{\
         \"p50\":{},\"p95\":{},\"p99\":{},\"min\":{},\"max\":{}}},\"stages\":[",
        stats.tasks,
        stats.total_cycles,
        format_f64(tasks_per_sec),
        format_f64(stats.throughput_per_ms),
        escape_json(&analysis.limiting_stage),
        exact_quantile(&latencies, 0.50),
        exact_quantile(&latencies, 0.95),
        exact_quantile(&latencies, 0.99),
        latencies.first().copied().unwrap_or(0),
        latencies.last().copied().unwrap_or(0),
    );
    for (i, s) in stats.stage_stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"threads\":{},\"occupancy\":{},\
             \"busy_cycles\":{},\"occupied_cycles\":{}}}",
            escape_json(&s.name),
            s.threads,
            format_f64(s.occupancy),
            s.busy_cycles,
            s.occupied_cycles,
        );
    }
    out.push_str("],\"analysis\":");
    out.push_str(&analysis.to_json());
    out.push('}');
    out
}

/// The machine-readable benchmark artifact behind `tables bench-json`.
///
/// Runs the three module pipelines (Merkle, sum-check, encoder at the
/// scale's largest module size) and the full proving system (smallest
/// system size) on the **A100** profile at `TraceLevel::Full`, and renders
/// one canonical JSON document: tasks/sec, exact p50/p95/p99 lifecycle
/// latency in cycles, per-stage occupancy, the trace analyzer's verdict
/// (limiting stage + thread-reallocation advice), a `recovery` section
/// (the scripted-fault study, each scenario asserting
/// `"proofs_identical":true`), a `service` section (the committed
/// reference arrival trace replayed through the online service front at
/// pool sizes 1 and 4 — per-class p50/p95/p99 latency vs SLO, goodput,
/// rejection rate), a `backends` section (each [`ProverBackend`] proved
/// pipelined and kernel-per-task naive with byte-identical proofs, plus
/// the committed mixed trace through one [`MixedBackend`] service
/// instance), and the accumulated metrics registry in
/// its canonical exposition. Everything derives from simulated integer
/// cycles — no wall clock — so two runs at the same scale produce
/// byte-identical output, making `BENCH.json` diffable across commits
/// for regression tracking.
pub fn bench_json(scale: &Scale) -> String {
    use batchzk_gpu_sim::TraceLevel;
    use batchzk_metrics::registry::escape_json;
    use batchzk_metrics::Registry;

    let profile = DeviceProfile::a100();
    let mut registry = Registry::new();
    let mut out = format!(
        "{{\"schema\":\"batchzk-bench-v1\",\"device\":\"a100\",\"scale\":\"{}\",\
         \"thread_budget\":{MODULE_THREADS},\"modules\":{{",
        escape_json(scale.tag)
    );

    // Merkle module.
    let log = scale.module_logs[0];
    let mut gpu = Gpu::with_trace_level(profile.clone(), TraceLevel::Full);
    let run = pmerkle::run_pipelined(
        &mut gpu,
        tree_batch(log, scale.module_batch),
        MODULE_THREADS,
        true,
    )
    .expect("fits");
    out.push_str("\"merkle\":");
    out.push_str(&bench_section(
        &mut registry,
        "merkle",
        log,
        &gpu,
        &run.stats,
        MODULE_THREADS,
    ));

    // Sum-check module.
    let mut gpu = Gpu::with_trace_level(profile.clone(), TraceLevel::Full);
    let run = psum::run_pipelined(
        &mut gpu,
        sumcheck_batch(log, scale.module_batch, 500 + log as u64),
        MODULE_THREADS,
        true,
    )
    .expect("fits");
    out.push_str(",\"sumcheck\":");
    out.push_str(&bench_section(
        &mut registry,
        "sumcheck",
        log,
        &gpu,
        &run.stats,
        MODULE_THREADS,
    ));

    // Encoder module.
    let encoder = Arc::new(Encoder::<Fr>::new(
        1usize << log,
        EncoderParams::default(),
        7,
    ));
    let mut gpu = Gpu::with_trace_level(profile.clone(), TraceLevel::Full);
    let run = penc::run_pipelined(
        &mut gpu,
        encoder,
        message_batch(log, scale.module_batch, 600 + log as u64),
        MODULE_THREADS,
        true,
        true,
    )
    .expect("fits");
    out.push_str(",\"encoder\":");
    out.push_str(&bench_section(
        &mut registry,
        "encoder",
        log,
        &gpu,
        &run.stats,
        MODULE_THREADS,
    ));

    // Full proving system (smallest system size keeps the artifact cheap
    // enough for CI smoke runs).
    let sys_log = *scale.system_logs.last().expect("system sizes configured");
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << sys_log, 42);
    let instances: Vec<_> = (0..scale.system_batch)
        .map(|_| (inputs.clone(), witness.clone()))
        .collect();
    let mut gpu = Gpu::with_trace_level(profile.clone(), TraceLevel::Full);
    let run = prove_batch_with(
        &mut gpu,
        &SpartanBackend::new(Arc::new(r1cs), pcs_params()),
        instances,
        MODULE_THREADS,
        true,
    )
    .expect("fits");
    out.push_str(",\"system\":");
    out.push_str(&bench_section(
        &mut registry,
        "system",
        sys_log,
        &gpu,
        &run.stats,
        MODULE_THREADS,
    ));

    out.push('}'); // close "modules"

    // Multi-device scaling sweep: the same batch round-robined over pools
    // of 1/2/4/8 identical devices; cycle-derived, so byte-stable too.
    {
        use batchzk_metrics::registry::format_f64;
        use std::fmt::Write as _;
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << scale.scaling_log, 42);
        let r1cs = Arc::new(r1cs);
        let _ = write!(
            out,
            ",\"scaling\":{{\"log_n\":{},\"batch\":{},\"policy\":\"round-robin\",\"runs\":[",
            scale.scaling_log, scale.scaling_batch
        );
        let mut baseline_ms = None;
        for (i, d) in [1usize, 2, 4, 8].into_iter().enumerate() {
            let p = scaling_point(
                &profile,
                d,
                &r1cs,
                &inputs,
                &witness,
                scale.scaling_batch,
                baseline_ms,
            );
            if baseline_ms.is_none() {
                baseline_ms = Some(p.makespan_ms);
            }
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"devices\":{d},\"makespan_ms\":{},\"throughput_per_ms\":{},\"analysis\":{}}}",
                format_f64(p.makespan_ms),
                format_f64(p.throughput_per_ms),
                p.analysis.to_json(),
            );
        }
        out.push_str("]}");
    }

    // Recovery-overhead study: the same batch on a two-device pool under
    // each scripted-fault scenario; recovered proofs must stay
    // byte-identical to the fault-free run (the `proofs_identical` flags
    // below are what CI greps for).
    {
        use batchzk_metrics::registry::{escape_json, format_f64};
        use std::fmt::Write as _;
        let study = recovery_study(scale, None);
        let _ = write!(
            out,
            ",\"recovery\":{{\"log_n\":{},\"batch\":{},\"devices\":{},\
             \"policy\":\"least-outstanding\",\"fault_free_ms\":{},\"scenarios\":[",
            study.log_n,
            study.batch,
            study.devices,
            format_f64(study.fault_free_ms)
        );
        for (i, o) in study.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"plan\":\"{}\",\"proofs_identical\":{},\"analysis\":{}}}",
                escape_json(o.name),
                escape_json(&o.spec),
                o.proofs_identical,
                o.analysis.to_json(),
            );
        }
        out.push_str("]}");
    }

    // Online-service replay of the committed reference trace at pool sizes
    // 1 and 4: per-class latency quantiles vs SLO, goodput, rejection
    // rate. Virtual-time throughout, so byte-stable like everything above;
    // the service metric families land in the registry under per-pool
    // module labels (`service-d1`, `service-d4`).
    {
        let plan = reference_plan();
        let study = service_study(scale, &plan).expect("committed reference trace serves");
        for p in &study.points {
            batchzk_pipeline::observe::record_service(
                &mut registry,
                &format!("service-d{}", p.devices),
                &p.outcome,
            );
        }
        out.push_str(",\"service\":");
        out.push_str(&service_json_from_study(&study, &plan));
        // The flight recorder of the same study's 1-device replay (the
        // overload case), with the default alert policy evaluated against
        // it — windowed series, rule set, and fire/resolve log, all
        // integer-valued and byte-stable.
        out.push_str(",\"timeline\":");
        out.push_str(&timeline_json_from_study(&study, &plan));
    }

    // Backend comparison: each ProverBackend proved through the pipelined
    // and the kernel-per-task naive schedule at the same size (proofs must
    // be byte-identical between the two), then the committed mixed trace
    // through one MixedBackend service instance at pool sizes 1 and 4.
    // The pipelined runs and mixed replays land in the registry under
    // `backend`-labelled metric families.
    {
        let study = backends_study(scale, &mut registry, None);
        out.push_str(",\"backends\":");
        out.push_str(&backends_json_from_study(&study));
    }

    out.push_str(",\"metrics\":");
    out.push_str(&registry.to_json());
    out.push_str("}\n");
    out
}

/// [`bench_json`] plus a `wall_clock` section: the multi-device system run
/// at the scale's `wall_log`/`wall_batch` sizes re-executed at each of
/// `thread_counts` host threads, timed with real wall-clock. Everything
/// else in the artifact is simulated and byte-deterministic; this section
/// is the one *measured* quantity, so it is emitted as a single flat
/// object (no nested braces) and regression tooling compares artifacts
/// with `tables bench-json --no-wall-clock` instead of stripping it
/// textually. Speedups are relative to the first entry of `thread_counts`
/// and are bounded by `min(threads, host_cores, devices)` — `host_cores`
/// and the `saturated` flag are recorded so readers can tell a saturated
/// host from a scaling failure.
pub fn bench_json_with_wall_clock(scale: &Scale, thread_counts: &[usize]) -> String {
    use batchzk_metrics::registry::format_f64;
    use std::fmt::Write as _;

    assert!(!thread_counts.is_empty(), "need at least one thread count");
    const DEVICES: usize = 4;
    let profile = DeviceProfile::a100();
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << scale.wall_log, 42);
    let r1cs = Arc::new(r1cs);
    let mut wall_ms = Vec::with_capacity(thread_counts.len());
    for &t in thread_counts {
        let start = Instant::now();
        batchzk_par::with_threads(t, || {
            let _ = scaling_point(
                &profile,
                DEVICES,
                &r1cs,
                &inputs,
                &witness,
                scale.wall_batch,
                None,
            );
        });
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    let host_cores = batchzk_par::host_cores();
    let saturated = thread_counts.iter().copied().max().unwrap_or(1) > host_cores;
    let mut section = format!(
        "{{\"devices\":{DEVICES},\"log_n\":{},\"batch\":{},\"host_cores\":{host_cores},\
         \"saturated\":{saturated},\"threads\":[",
        scale.wall_log, scale.wall_batch
    );
    for (i, t) in thread_counts.iter().enumerate() {
        if i > 0 {
            section.push(',');
        }
        let _ = write!(section, "{t}");
    }
    section.push_str("],\"wall_ms\":[");
    for (i, ms) in wall_ms.iter().enumerate() {
        if i > 0 {
            section.push(',');
        }
        let _ = write!(section, "{}", format_f64(*ms));
    }
    section.push_str("],\"speedup\":[");
    for (i, ms) in wall_ms.iter().enumerate() {
        if i > 0 {
            section.push(',');
        }
        let _ = write!(section, "{}", format_f64(wall_ms[0] / ms.max(1e-9)));
    }
    section.push_str("]}");

    // Splice before the artifact's closing `}\n`.
    let mut out = bench_json(scale);
    let tail = out.split_off(out.len() - 2);
    debug_assert_eq!(tail, "}\n");
    let _ = write!(out, ",\"wall_clock\":{section}");
    out.push_str(&tail);
    out
}

/// One self-timed hot-path kernel measurement of the `profile` experiment.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Stable kernel id (the JSON `name` field).
    pub name: &'static str,
    /// Operations performed (field muls, hashed blocks, butterflies, ...).
    pub ops: u64,
    /// Measured wall time in nanoseconds.
    pub wall_ns: f64,
}

impl KernelProfile {
    /// Nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns / self.ops.max(1) as f64
    }

    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        if self.wall_ns <= 0.0 {
            0.0
        } else {
            self.ops as f64 * 1e3 / self.wall_ns
        }
    }
}

/// One named phase of the instrumented single-thread prover run.
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    /// Phase name (`transcript`, `encode`, `merkle`, `spmv`, `sc1`,
    /// `matrix-bind`, `sc2`, `pcs-open`).
    pub name: &'static str,
    /// Measured wall time in milliseconds.
    pub ms: f64,
}

/// Everything the `profile` experiment measures: per-kernel microbenchmarks
/// plus a phase-attributed single-thread prover run at the same size.
#[derive(Debug)]
pub struct ProfileStudy {
    /// log2 of the workload size (the scale's `wall_log`).
    pub log_n: u32,
    /// Microbenchmark rows, in emission order.
    pub kernels: Vec<KernelProfile>,
    /// Named phases of the instrumented prove, in pipeline order.
    pub phases: Vec<PhaseProfile>,
    /// Wall time of the whole single-thread prove (phases plus glue).
    pub total_ms: f64,
    /// Share of `total_ms` attributed to the named phases (0..=1).
    pub coverage: f64,
    /// Per-op win of the subset-sum LUT over the naive per-weight
    /// Montgomery multiply on the same binary selectors.
    pub lut_speedup: f64,
}

/// Times `f` once, returning elapsed nanoseconds.
fn timed_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Runs `f` once, returning its result and the elapsed milliseconds.
fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Runs the `profile` measurements: self-timed microbenchmarks of every
/// hot-path kernel (strict/lazy Montgomery multiply, LUT vs naive
/// binary inner product, SHA-256 compression, NTT butterflies) and one
/// instrumented single-thread prove whose wall time is attributed to
/// named pipeline phases. Everything except the timings
/// is deterministic at a given scale.
pub fn profile_study(scale: &Scale) -> ProfileStudy {
    use std::hint::black_box;

    let log = scale.wall_log;
    let n = 1usize << log;
    // Repeat each microbenchmark until it covers ~2^18 operations so the
    // per-op figures are stable against timer noise at any scale.
    let reps = ((1usize << 18) >> log).max(1);
    let mut rng = Prg::seed_from_u64(7);
    let a: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let b: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();

    let mut kernels = Vec::new();

    // The same n-element inner product two ways: strict per-op reduction
    // and the lazy-reduction accumulate.
    let ns = timed_ns(|| {
        let mut acc = Fr::ZERO;
        for _ in 0..reps {
            acc += a.iter().zip(&b).map(|(x, y)| *x * *y).sum::<Fr>();
        }
        black_box(acc);
    });
    kernels.push(KernelProfile {
        name: "mont-mul",
        ops: (n * reps) as u64,
        wall_ns: ns,
    });

    let ns = timed_ns(|| {
        let mut acc = Fr::ZERO;
        for _ in 0..reps {
            acc += Fr::dot(&a, &b);
        }
        black_box(acc);
    });
    kernels.push(KernelProfile {
        name: "mont-mul-lazy",
        ops: (n * reps) as u64,
        wall_ns: ns,
    });

    // Binary-selector inner products: the naive path spends one Montgomery
    // multiply per weight; the subset-sum LUT (built once, amortized across
    // messages) replaces each 8-weight chunk with a single table add.
    let width = n.min(256);
    let weights = &a[..width];
    let bits: Vec<bool> = (0..width).map(|_| rng.next_u64() & 1 == 1).collect();
    let rounds = (n * reps / width).max(1);
    let ns = timed_ns(|| {
        let mut acc = Fr::ZERO;
        for _ in 0..rounds {
            acc += naive_select_sum(weights, &bits);
        }
        black_box(acc);
    });
    kernels.push(KernelProfile {
        name: "binary-dot-naive",
        ops: (rounds * width) as u64,
        wall_ns: ns,
    });

    let lut = SubsetSumLUT::new(weights, 8.min(width));
    let masks = lut.masks_from_bits(&bits);
    let ns = timed_ns(|| {
        let mut acc = Fr::ZERO;
        for _ in 0..rounds {
            acc += lut.select_sum_masks(&masks);
        }
        black_box(acc);
    });
    kernels.push(KernelProfile {
        name: "binary-dot-lut",
        ops: (rounds * width) as u64,
        wall_ns: ns,
    });

    // SHA-256 compression, one 64-byte block per op.
    let blocks: Vec<[u8; 64]> = (0..(n * reps / 16).max(64))
        .map(|i| {
            let mut blk = [0u8; 64];
            blk[..8].copy_from_slice(&(i as u64).to_le_bytes());
            blk
        })
        .collect();
    let ns = timed_ns(|| {
        for blk in &blocks {
            black_box(batchzk_hash::hash_block(blk));
        }
    });
    kernels.push(KernelProfile {
        name: "sha256-block",
        ops: blocks.len() as u64,
        wall_ns: ns,
    });

    // Radix-2 NTT butterflies at the wall size.
    let domain = NttDomain::<Fr>::new(log);
    let mut values = a.clone();
    let ns = timed_ns(|| {
        for _ in 0..reps {
            domain.forward(&mut values);
        }
        black_box(&values);
    });
    kernels.push(KernelProfile {
        name: "ntt-butterfly",
        ops: domain.butterfly_count() * reps as u64,
        wall_ns: ns,
    });

    // Phase attribution: one real single-thread prove at the same size,
    // with the pipeline phases timed inside a single total-time envelope —
    // coverage is attributed/total within one run, not a cross-run ratio.
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(n, 42);
    let params = pcs_params();
    let (phases, total_ms) = batchzk_par::with_threads(1, || {
        let mut phases = Vec::new();
        let mut phase = |name, ms| phases.push(PhaseProfile { name, ms });
        let total = Instant::now();
        let z = r1cs.assemble_z(&inputs, &witness);

        let (mut transcript, ms) = timed_ms(|| spartan::statement_transcript(&r1cs, &inputs));
        phase("transcript", ms);
        let (encoded, ms) = timed_ms(|| pcs::commit_encode(&params, &z[r1cs.half_len()..]));
        phase("encode", ms);
        let ((commitment, data), ms) = timed_ms(|| pcs::commit_merkle(encoded));
        phase("merkle", ms);
        transcript.absorb_digest(b"w-commitment", &commitment.root);

        // `spartan::run_sumchecks`, phase by phase.
        let (products, ms) = timed_ms(|| r1cs.products(&z));
        phase("spmv", ms);
        let (sc1, ms) = timed_ms(|| spartan::prove_outer(&r1cs, products, &mut transcript));
        phase("sc1", ms);
        let (m_combo, ms) = timed_ms(|| spartan::bind_matrices(&r1cs, &sc1, &mut transcript));
        phase("matrix-bind", ms);
        let (sc2, ms) = timed_ms(|| {
            let z_poly = MultilinearPoly::new(z.clone());
            prove_quadratic(MultilinearPoly::new(m_combo), z_poly, &mut transcript)
        });
        phase("sc2", ms);

        let point_y = sc2.point();
        let y_prime = &point_y[..point_y.len() - 1];
        let (_, ms) = timed_ms(|| pcs::open(&params, &data, y_prime, &mut transcript));
        phase("pcs-open", ms);
        (phases, total.elapsed().as_secs_f64() * 1e3)
    });
    let attributed: f64 = phases.iter().map(|p| p.ms).sum();
    let coverage = if total_ms > 0.0 {
        attributed / total_ms
    } else {
        0.0
    };
    let per_op = |name: &str| {
        kernels
            .iter()
            .find(|k| k.name == name)
            .map(KernelProfile::ns_per_op)
            .unwrap_or(0.0)
    };
    let lut_speedup = per_op("binary-dot-naive") / per_op("binary-dot-lut").max(1e-9);
    ProfileStudy {
        log_n: log,
        kernels,
        phases,
        total_ms,
        coverage,
        lut_speedup,
    }
}

/// The `profile` experiment as a markdown report: kernel rows with per-op
/// cost and throughput, then the phase attribution of the single-thread
/// prove.
pub fn profile(scale: &Scale) -> String {
    let study = profile_study(scale);
    let mut out = format!(
        "## Profile — hot-path kernel self-timing (single thread, size 2^{})\n\n\
         | Kernel | Ops | ns/op | Mops/s |\n|---|---|---|---|\n",
        study.log_n
    );
    for k in &study.kernels {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.2} |\n",
            k.name,
            k.ops,
            k.ns_per_op(),
            k.mops()
        ));
    }
    out.push_str(&format!(
        "\nLUT vs naive binary inner product: {:.2}x per op\n",
        study.lut_speedup
    ));
    out.push_str("\n| Phase | ms | share |\n|---|---|---|\n");
    for p in &study.phases {
        out.push_str(&format!(
            "| {} | {:.3} | {:.1}% |\n",
            p.name,
            p.ms,
            100.0 * p.ms / study.total_ms.max(1e-9)
        ));
    }
    out.push_str(&format!(
        "\nNamed kernels cover {:.1}% of the {:.3} ms single-thread prove.\n",
        100.0 * study.coverage,
        study.total_ms
    ));
    out
}

/// The `profile` experiment as a machine-readable JSON artifact
/// (`PROFILE.json`). Structure, names, op counts, and sizes are
/// byte-deterministic at a given scale; only the timing values vary.
pub fn profile_json(scale: &Scale) -> String {
    use batchzk_metrics::registry::format_f64;
    use std::fmt::Write as _;

    let study = profile_study(scale);
    let mut out = format!("{{\"profile\":{{\"log_n\":{},\"kernels\":[", study.log_n);
    for (i, k) in study.kernels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ops\":{},\"wall_ns\":{},\"ns_per_op\":{},\"mops\":{}}}",
            k.name,
            k.ops,
            format_f64(k.wall_ns),
            format_f64(k.ns_per_op()),
            format_f64(k.mops())
        );
    }
    out.push_str("],\"phases\":[");
    for (i, p) in study.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ms\":{},\"share\":{}}}",
            p.name,
            format_f64(p.ms),
            format_f64(p.ms / study.total_ms.max(1e-9))
        );
    }
    let _ = writeln!(
        out,
        "],\"total_ms\":{},\"coverage\":{},\"lut_speedup\":{}}}}}",
        format_f64(study.total_ms),
        format_f64(study.coverage),
        format_f64(study.lut_speedup)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            module_logs: vec![8, 7],
            // >> pipeline depth (9 stages at 2^8) so steady state holds.
            module_batch: 40,
            system_logs: vec![9, 8],
            system_batch: 3,
            vgg_divisor: 64,
            vgg_batch: 2,
            scaling_log: 8,
            scaling_batch: 48,
            service_log: 8,
            service_probe_batch: 8,
            backends_log: 8,
            backends_batch: 3,
            wall_log: 8,
            wall_batch: 48,
            tag: "test",
        }
    }

    #[test]
    fn module_tables_render() {
        let s = tiny_scale();
        for table in [table3(&s), table4(&s), table5(&s), table6(&s)] {
            assert!(table.contains("|"), "missing rows: {table}");
            assert!(table.matches('\n').count() > 4);
        }
    }

    #[test]
    fn system_tables_render() {
        let s = tiny_scale();
        for table in [table7(&s), table8(&s), table9(&s), table10(&s)] {
            assert!(table.contains("2^") || table.contains("V100"), "{table}");
        }
    }

    #[test]
    fn figures_render() {
        let s = tiny_scale();
        assert!(fig4(&s).contains("pipelined"));
        assert!(fig9(&s).contains("encoder"));
    }

    #[test]
    fn ablation_renders() {
        assert!(ablation(&tiny_scale()).contains("Warp"));
    }

    #[test]
    fn trace_report_and_json_render() {
        let (report, json) = trace(&tiny_scale());
        // One timeline row and one table row per pipeline stage.
        assert!(report.contains("merkle-layer-1"), "{report}");
        assert!(report.contains("| merkle-layer-1 |"), "{report}");
        // The JSON is the gpu-sim exporter's output: spot-check the envelope
        // (full validity is covered by the gpu-sim unit tests).
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Determinism: the same scale renders the same trace.
        assert_eq!(trace(&tiny_scale()).1, json);
    }

    #[test]
    fn bench_json_is_complete_and_deterministic() {
        let s = tiny_scale();
        let json = bench_json(&s);
        // All four sections present, each with the acceptance-criteria
        // fields: throughput, lifecycle quantiles, occupancy, limiting
        // stage.
        for module in [
            "\"merkle\":",
            "\"sumcheck\":",
            "\"encoder\":",
            "\"system\":",
        ] {
            assert!(json.contains(module), "missing section {module}");
        }
        for field in [
            "\"tasks_per_sec\":",
            "\"p50\":",
            "\"p95\":",
            "\"p99\":",
            "\"occupancy\":",
            "\"limiting_stage\":",
            "\"suggested_threads\":",
            "\"scaling\":",
            "\"devices\":1",
            "\"devices\":8",
            "\"scaling_efficiency\":",
            "\"recovery\":",
            "\"proofs_identical\":true",
            "\"overhead_ratio\":",
            "\"service\":",
            "\"timeline\":",
            "\"recorder\":",
            "\"alerts\":",
            "\"slo_attainment\":",
            "\"goodput_per_mcycle\":",
            "\"rejection_rate\":",
            "\"backends\":",
            "\"mixed_service\":",
            "\"completed_by_backend\":",
            "\"metrics\":",
        ] {
            assert!(json.contains(field), "missing field {field}");
        }
        // Every recovery scenario recovered byte-identical proofs.
        for field in ["\"name\":\"fail-stop\"", "\"name\":\"drop-kernel\""] {
            assert!(json.contains(field), "missing field {field}");
        }
        assert!(
            !json.contains("\"proofs_identical\":false"),
            "a recovery scenario diverged from the fault-free proofs"
        );
        // Well-formedness (balanced braces/brackets) and determinism.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(bench_json(&s), json, "bench-json must be byte-stable");
    }

    #[test]
    fn faults_table_recovers_identical_proofs() {
        let s = tiny_scale();
        let t = faults(&s, None);
        for scenario in ["fail-stop", "degraded-clock", "drop-kernel"] {
            assert!(t.contains(scenario), "missing scenario {scenario}: {t}");
        }
        assert_eq!(t.matches("| yes |").count(), 3, "{t}");
        assert!(!t.contains("| NO |"), "recovered proofs diverged:\n{t}");
        // A custom `--fault-plan` spec rides along as its own scenario.
        let plan = FaultPlan::parse("0@0:slow:200").expect("valid spec");
        let custom = faults(&s, Some(&plan));
        assert!(custom.contains("| custom | `0@0:slow:200` |"), "{custom}");
        assert_eq!(custom.matches("| yes |").count(), 4, "{custom}");
    }

    #[test]
    fn bench_json_byte_identical_across_host_thread_counts() {
        // Host parallelism must be invisible in the artifact: the same
        // scale renders the same bytes whether the engines fan out across
        // 1, 2, or 4 host workers.
        let s = tiny_scale();
        let base = batchzk_par::with_threads(1, || bench_json(&s));
        for t in [2usize, 4] {
            let json = batchzk_par::with_threads(t, || bench_json(&s));
            assert_eq!(json, base, "bench-json differs at threads={t}");
        }
    }

    #[test]
    fn wall_clock_section_is_flat_and_strippable() {
        let s = tiny_scale();
        let json = bench_json_with_wall_clock(&s, &[1, 2]);
        for field in [
            "\"wall_clock\":{",
            "\"host_cores\":",
            "\"saturated\":",
            "\"log_n\":8",
            "\"batch\":48",
            "\"threads\":[1,2]",
            "\"wall_ms\":[",
            "\"speedup\":[1.0,",
        ] {
            assert!(json.contains(field), "missing field {field}");
        }
        // The saturated flag reflects the real host: probing 2 threads
        // saturates exactly when the host has fewer than 2 cores.
        let expect = format!("\"saturated\":{}", batchzk_par::host_cores() < 2);
        assert!(json.contains(&expect), "missing {expect}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The one measured section stays a single flat object (no nested
        // braces), and removing it recovers the deterministic artifact
        // byte-for-byte — which is exactly what the `--no-wall-clock`
        // flag of `tables bench-json` emits for regression comparisons.
        let start = json.find(",\"wall_clock\":{").expect("section present");
        let open = start + ",\"wall_clock\":".len();
        let end = open + json[open..].find('}').expect("closes") + 1;
        assert!(
            !json[open + 1..end - 1].contains('{'),
            "wall_clock must stay a flat object"
        );
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        assert_eq!(stripped, bench_json(&s));
    }

    #[test]
    fn profile_attributes_wall_time_and_lut_wins() {
        let s = tiny_scale();
        let study = profile_study(&s);
        let names: Vec<&str> = study.kernels.iter().map(|k| k.name).collect();
        for k in [
            "mont-mul",
            "mont-mul-lazy",
            "binary-dot-naive",
            "binary-dot-lut",
            "sha256-block",
            "ntt-butterfly",
        ] {
            assert!(names.contains(&k), "missing kernel {k}");
        }
        assert!(study.kernels.iter().all(|k| k.ops > 0 && k.wall_ns > 0.0));
        let phases: Vec<&str> = study.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            phases,
            [
                "transcript",
                "encode",
                "merkle",
                "spmv",
                "sc1",
                "matrix-bind",
                "sc2",
                "pcs-open"
            ]
        );
        // The acceptance bar: >=80% of the single-thread prove is
        // attributed to named phases, and the phases never exceed the
        // envelope they were timed inside.
        assert!(study.coverage >= 0.8, "coverage {:.3}", study.coverage);
        assert!(
            study.coverage <= 1.0 + 1e-9,
            "coverage {:.3}",
            study.coverage
        );
        // The subset-sum LUT beats one-Montgomery-mul-per-weight.
        assert!(
            study.lut_speedup > 1.0,
            "lut speedup {:.2}x",
            study.lut_speedup
        );
    }

    #[test]
    fn profile_report_and_json_render() {
        let s = tiny_scale();
        let md = profile(&s);
        assert!(md.contains("| mont-mul |"), "{md}");
        assert!(md.contains("| encode |"), "{md}");
        assert!(md.contains("| matrix-bind |"), "{md}");
        assert!(md.contains("LUT vs naive"), "{md}");
        let json = profile_json(&s);
        for field in [
            "\"profile\":{",
            "\"log_n\":8",
            "\"kernels\":[",
            "\"phases\":[",
            "\"total_ms\":",
            "\"coverage\":",
            "\"lut_speedup\":",
        ] {
            assert!(json.contains(field), "missing field {field}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn scaling_table_renders_with_analyzer_verdicts() {
        let s = tiny_scale();
        let t = scaling(&s, &[1, 2], &DeviceProfile::a100());
        assert!(t.contains("| 1 |") && t.contains("| 2 |"), "{t}");
        assert!(t.contains("scaling efficiency"), "{t}");
        assert!(t.contains("time share"), "{t}");
    }

    #[test]
    fn scaling_meets_acceptance_thresholds() {
        // The PR's acceptance bar: >= 1.8x throughput at 2 devices and
        // >= 3x at 4 devices vs a single device of the same profile.
        let s = tiny_scale();
        let profile = DeviceProfile::a100();
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << s.scaling_log, 42);
        let r1cs = Arc::new(r1cs);
        let one = scaling_point(&profile, 1, &r1cs, &inputs, &witness, s.scaling_batch, None);
        assert!((one.analysis.speedup - 1.0).abs() < 1e-9);
        for (d, floor) in [(2usize, 1.8f64), (4, 3.0)] {
            let p = scaling_point(
                &profile,
                d,
                &r1cs,
                &inputs,
                &witness,
                s.scaling_batch,
                Some(one.makespan_ms),
            );
            assert!(
                p.analysis.speedup >= floor,
                "{d} devices: speedup {:.3} < {floor}",
                p.analysis.speedup
            );
            assert!(p.throughput_per_ms > one.throughput_per_ms);
        }
    }

    #[test]
    fn serve_report_renders_with_slo_accounting() {
        let s = tiny_scale();
        let report = serve(&s, &reference_plan()).expect("reference trace serves");
        for needle in [
            "interactive",
            "standard",
            "bulk",
            "Attainment",
            "Goodput",
            "### 1 device",
            "### 4 devices",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn serve_rejects_empty_and_unknown_traces() {
        let s = tiny_scale();
        let err = serve(&s, &ArrivalPlan::new()).unwrap_err();
        assert!(err.contains("empty"), "{err}");
        let premium = ArrivalPlan::new().one("premium", 0);
        let err = serve(&s, &premium).unwrap_err();
        assert!(err.contains("premium"), "{err}");
        assert!(service_json(&s, &ArrivalPlan::new()).is_err());
    }

    #[test]
    fn service_section_byte_identical_across_host_thread_counts() {
        // The determinism matrix of the acceptance criteria: the same
        // trace renders the same `service` section bytes at host threads
        // 1/2/4, and the section itself carries the 1- and 4-device runs.
        let s = tiny_scale();
        let plan = reference_plan();
        let base = batchzk_par::with_threads(1, || service_json(&s, &plan).unwrap());
        for t in [2usize, 4] {
            let json = batchzk_par::with_threads(t, || service_json(&s, &plan).unwrap());
            assert_eq!(json, base, "service section differs at threads={t}");
        }
        assert!(base.contains("\"devices\":1"), "{base}");
        assert!(base.contains("\"devices\":4"), "{base}");
        for field in [
            "\"p50\":",
            "\"p95\":",
            "\"p99\":",
            "\"slo_attainment\":",
            "\"goodput_per_mcycle\":",
            "\"rejection_rate\":",
            "\"trace\":",
        ] {
            assert!(base.contains(field), "missing {field}");
        }
        assert_eq!(base.matches('{').count(), base.matches('}').count());
        assert_eq!(base.matches('[').count(), base.matches(']').count());
    }

    #[test]
    fn service_accounting_conserves_per_class() {
        // accepted + rejected == submitted for every class at every pool
        // size, and the reference trace actually sheds load on the
        // single-device pool, so the admission story is not vacuous.
        let s = tiny_scale();
        let study = service_study(&s, &reference_plan()).unwrap();
        let mut rejected_total = 0u64;
        for p in &study.points {
            for r in &p.outcome.reports {
                assert_eq!(
                    r.accepted + r.rejected_queue_full + r.rejected_saturated,
                    r.submitted,
                    "conservation broken for {} at {} devices",
                    r.class,
                    p.devices
                );
                assert_eq!(r.completed, r.accepted, "fault-free: all accepted finish");
                rejected_total += r.rejected_queue_full + r.rejected_saturated;
            }
            let submitted: u64 = p.outcome.reports.iter().map(|r| r.submitted).sum();
            assert_eq!(submitted, study.arrivals as u64);
        }
        assert!(
            rejected_total > 0,
            "reference trace should shed some load on the 1-device pool"
        );
    }

    #[test]
    fn backends_report_and_json_render_with_identical_proofs() {
        let s = tiny_scale();
        let report = backends(&s, None);
        for needle in [
            "| sumcheck |",
            "| groth16 |",
            "| orion |",
            "latency",
            "throughput",
            "Mixed service",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
        assert!(
            !report.contains("| NO |"),
            "a schedule diverged or a proof failed verification:\n{report}"
        );
        let json = backends_json(&s);
        assert!(!json.contains("\"proofs_identical\":false"), "{json}");
        assert!(!json.contains("\"verified\":false"), "{json}");
        for field in [
            "\"backend\":\"sumcheck\"",
            "\"backend\":\"groth16\"",
            "\"backend\":\"orion\"",
            "\"scenario\":\"latency\"",
            "\"scenario\":\"throughput\"",
            "\"speedup\":",
            "\"mixed_service\":",
            "\"completed_by_backend\":",
        ] {
            assert!(json.contains(field), "missing {field}: {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn backends_report_filters_to_one_backend() {
        let s = tiny_scale();
        let report = backends(&s, Some("groth16"));
        assert!(report.contains("| groth16 |"), "{report}");
        assert!(!report.contains("| sumcheck |"), "{report}");
        assert!(!report.contains("| orion |"), "{report}");
        assert!(
            !report.contains("Mixed service"),
            "filtered sweep skips the mixed replay:\n{report}"
        );
        let orion_only = backends(&s, Some("orion"));
        assert!(orion_only.contains("| orion |"), "{orion_only}");
        assert!(!orion_only.contains("| groth16 |"), "{orion_only}");
    }

    #[test]
    fn mixed_service_conserves_per_class_and_serves_both_backends() {
        let s = tiny_scale();
        let mut registry = batchzk_metrics::Registry::new();
        let study = mixed_service_study(&s, &mixed_plan(), &mut registry).unwrap();
        for p in &study.points {
            let mut completed_total = 0u64;
            for r in &p.outcome.reports {
                assert_eq!(
                    r.accepted + r.rejected_queue_full + r.rejected_saturated,
                    r.submitted,
                    "conservation broken for {} at {} devices",
                    r.class,
                    p.devices
                );
                assert_eq!(r.completed, r.accepted, "fault-free: all accepted finish");
                completed_total += r.completed;
            }
            let submitted: u64 = p.outcome.reports.iter().map(|r| r.submitted).sum();
            assert_eq!(submitted, study.arrivals as u64);
            // The per-backend split partitions the completions exactly.
            assert_eq!(
                p.completed_by_backend.iter().sum::<u64>(),
                completed_total,
                "backend split must partition completions at {} devices",
                p.devices
            );
        }
        // The committed mixed trace genuinely interleaves: the 4-device
        // pool completes proofs of every protocol.
        let wide = study.points.last().unwrap();
        assert!(
            wide.completed_by_backend.iter().all(|&c| c > 0),
            "every backend must complete work: {:?}",
            wide.completed_by_backend
        );
        // The backend-labelled service families rode into the registry.
        let metrics = registry.to_json();
        for needle in [
            "backend=\\\"sumcheck\\\"",
            "backend=\\\"groth16\\\"",
            "backend=\\\"orion\\\"",
        ] {
            let plain = needle.replace("\\\"", "\"");
            assert!(
                metrics.contains(&plain) || metrics.contains(needle),
                "missing backend label {plain} in {metrics}"
            );
        }
    }

    #[test]
    fn mixed_serve_report_renders_backend_split() {
        let s = tiny_scale();
        let report = serve(&s, &mixed_plan()).expect("committed mixed trace serves");
        for needle in [
            "mixed backends",
            "Completed by backend",
            "[sumcheck]",
            "[groth16]",
            "[orion]",
            "### 1 device",
            "### 4 devices",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn serve_rejects_unknown_backend_labels() {
        let s = tiny_scale();
        let plan = ArrivalPlan::parse("interactive/premium@0:one").expect("lexically valid");
        let err = serve(&s, &plan).unwrap_err();
        assert!(err.contains("premium"), "{err}");
        assert!(
            err.contains("sumcheck"),
            "error names the accepted set: {err}"
        );
    }

    #[test]
    fn backends_section_byte_identical_across_host_thread_counts() {
        let s = tiny_scale();
        let base = batchzk_par::with_threads(1, || backends_json(&s));
        for t in [2usize, 4] {
            let json = batchzk_par::with_threads(t, || backends_json(&s));
            assert_eq!(json, base, "backends section differs at threads={t}");
        }
    }

    #[test]
    fn timeline_fires_and_resolves_alerts_on_the_reference_overload() {
        // The acceptance scenario: the committed reference trace on the
        // single-device pool (26.5% rejection) must fire at least the
        // rejection-rate rule and a burn-rate rule, and every alert must
        // resolve before the drain — no rule still firing at the end.
        let s = tiny_scale();
        let a = timeline(&s, &reference_plan()).expect("reference trace replays");
        assert!(
            a.json
                .contains("\"rule\":\"rejection-rate\",\"state\":\"fire\""),
            "rejection-rate must fire: {}",
            a.json
        );
        assert!(
            a.json.contains("\"rule\":\"slo-burn-"),
            "a burn-rate rule must fire: {}",
            a.json
        );
        // The artifact ends with the alert log's `still_firing` list, then
        // the closing brace of the envelope.
        assert!(
            a.json.ends_with("\"still_firing\":[]}}"),
            "all alerts resolve before drain: {}",
            a.json
        );
        // The report carries the sparkline table and the alert log with
        // runbook references.
        for needle in [
            "queue depth",
            "device0 utilization",
            "p99 latency",
            "FIRE",
            "resolve",
            "OPERATIONS.md#when-the-rejection-rate-spikes",
        ] {
            assert!(
                a.report.contains(needle),
                "missing `{needle}`:\n{}",
                a.report
            );
        }
        // The merged Chrome trace carries both kernel spans (the replay
        // runs under TraceLevel::Full) and the counter tracks.
        assert!(a.chrome_trace.contains("\"ph\":\"X\""));
        assert!(a.chrome_trace.contains("\"ph\":\"C\""));
        assert!(a.chrome_trace.contains("\"name\":\"service queue depth\""));
        assert_eq!(
            a.chrome_trace.matches('{').count(),
            a.chrome_trace.matches('}').count()
        );
    }

    #[test]
    fn timeline_json_byte_identical_across_host_thread_counts() {
        // The CI determinism gate in-test: TIMELINE.json (and so the
        // BENCH.json `timeline` section, which shares its builder) renders
        // the same bytes at host threads 1/2/4, alert window indexes
        // included.
        let s = tiny_scale();
        let plan = reference_plan();
        let base = batchzk_par::with_threads(1, || timeline(&s, &plan).unwrap().json);
        for t in [2usize, 4] {
            let json = batchzk_par::with_threads(t, || timeline(&s, &plan).unwrap().json);
            assert_eq!(json, base, "timeline artifact differs at threads={t}");
        }
        for field in [
            "\"rules\":[",
            "\"recorder\":",
            "\"alerts\":",
            "\"window_cycles\":",
            "\"events\":[",
        ] {
            assert!(base.contains(field), "missing {field}");
        }
        assert_eq!(base.matches('{').count(), base.matches('}').count());
        assert_eq!(base.matches('[').count(), base.matches(']').count());
        // Integer-only values: a digit is never followed by a decimal
        // point (the only `.`s are inside runbook/trace strings).
        let float_like = base
            .as_bytes()
            .windows(2)
            .any(|w| w[0].is_ascii_digit() && w[1] == b'.');
        assert!(!float_like, "integer-only artifact: {base}");
    }

    #[test]
    fn profile_lookup_covers_cli_names() {
        for name in ["v100", "a100", "rtx3090ti", "h100", "gh200"] {
            assert!(profile_by_name(name).is_some(), "{name}");
        }
        assert!(profile_by_name("tpu").is_none());
    }

    #[test]
    fn exact_quantile_nearest_rank() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(exact_quantile(&sorted, 0.5), 20);
        assert_eq!(exact_quantile(&sorted, 0.95), 40);
        assert_eq!(exact_quantile(&sorted, 0.0), 10);
        assert_eq!(exact_quantile(&sorted, 1.0), 40);
        assert_eq!(exact_quantile(&[], 0.5), 0);
        assert_eq!(exact_quantile(&[7], 0.99), 7);
    }

    #[test]
    fn pipelined_always_beats_naive_in_module_tables() {
        // The core comparative claim at any scale: the "vs GPU" column > 1.
        let s = tiny_scale();
        let t3 = table3(&s);
        for line in t3.lines().filter(|l| l.starts_with("| 2^")) {
            let last = line.split('|').rev().nth(1).unwrap().trim();
            let speedup: f64 = last.trim_end_matches('x').parse().unwrap();
            assert!(speedup > 1.0, "pipelined must win: {line}");
        }
    }
}
