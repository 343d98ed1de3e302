//! The system family: Tables 7–11 and the ablations — the full pipelined
//! proving system against the Groth16-style and CPU baselines.

use batchzk_gpu_sim::{DeviceProfile, Gpu};
use batchzk_pipeline::RunStats;
use batchzk_zkp::prove_batch_with;

use super::modules::{encoder_for, message_batch, Workload, MODULES};
use super::profile::timed_prove;
use super::{pcs_params, Circuit, MODULE_THREADS};
use crate::baseline::{groth16_cpu, groth16_gpu, BELLPERSON_BYTES_PER_CONSTRAINT};
use crate::scale::Scale;

/// The GPU profiles Tables 8 and 9 sweep.
fn table_gpus() -> [DeviceProfile; 4] {
    [
        DeviceProfile::v100(),
        DeviceProfile::a100(),
        DeviceProfile::rtx3090ti(),
        DeviceProfile::h100(),
    ]
}

/// One pipelined system run: its statistics plus the per-module and
/// whole-proof amortized milliseconds Table 7 reports.
struct OursBreakdown {
    merkle_ms: f64,
    sumcheck_ms: f64,
    encoder_ms: f64,
    total_ms: f64,
    stats: RunStats,
}

fn run_ours(
    profile: &DeviceProfile,
    log_s: u32,
    batch: usize,
    multi_stream: bool,
) -> OursBreakdown {
    let circuit = Circuit::synthetic(log_s);
    let mut gpu = Gpu::new(profile.clone());
    let stats = prove_batch_with(
        &mut gpu,
        &circuit.backend,
        circuit.instances(batch),
        MODULE_THREADS,
        multi_stream,
    )
    .expect("fits")
    .stats;
    let tasks = stats.tasks as f64;
    // A module's amortized time: its kernel's thread-cycles over the
    // threads the stage was allocated, per task.
    let module_ms = |name: &str| -> f64 {
        let threads = stats
            .stage_stats
            .iter()
            .find(|s| s.name == name)
            .map_or(1, |s| s.threads.max(1));
        gpu.kernel_stats().get(name).map_or(0.0, |k| {
            gpu.profile()
                .cycles_to_seconds(k.busy_cycles / threads as u64)
                * 1e3
                / tasks
        })
    };
    OursBreakdown {
        encoder_ms: module_ms("system-encoder"),
        merkle_ms: module_ms("system-merkle"),
        sumcheck_ms: module_ms("system-sumcheck"),
        total_ms: stats.total_ms / tasks,
        stats,
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
    let (phases, _) = timed_prove(&Circuit::synthetic(log_s));
    let ms = |names: &[&str]| -> f64 {
        let named = phases.iter().filter(|p| names.contains(&p.name));
        named.map(|p| p.ms).sum()
    };
    let (encoder_ms, merkle_ms) = (ms(&["encode"]), ms(&["merkle"]));
    let sumcheck_ms = ms(&["spmv", "sc1", "matrix-bind", "sc2"]);
    CpuBreakdown {
        merkle_ms,
        sumcheck_ms,
        encoder_ms,
        total_ms: encoder_ms + merkle_ms + sumcheck_ms + ms(&["pcs-open"]),
    }
}

/// Table 7: amortized per-proof time of the four systems.
pub fn table7(scale: &Scale) -> String {
    let mut out = String::from(
        "## Table 7 — Amortized per-proof time (ms)\n\n\
         | S | Libsnark-like MSM | NTT | Proof | Bellperson-like MSM | NTT | Proof | O&A Merkle | Sumcheck | Encoder | Proof | Ours Merkle | Sumcheck | Encoder | Proof |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut summary = String::from(
        "\nSpeedup summary (Proof columns):\n\n| S | Ours vs Bellperson-like | Ours vs Orion&Arkworks-like |\n|---|---|---|\n",
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
        summary.push_str(&format!(
            "| 2^{log} | {:.1}x | {:.1}x |\n",
            gpu_groth.total_ms / ours.total_ms,
            cpu.total_ms / ours.total_ms,
        ));
    }
    out + &summary
}

/// Table 8: throughput and latency across GPUs.
pub fn table8(scale: &Scale) -> String {
    let log = scale.system_logs[0];
    let mut out = format!(
        "## Table 8 — ZKP systems across GPUs (S = 2^{log})\n\n\
         | GPU | Bellperson-like latency (s) | Ours latency (s) | Speedup | Bellperson-like (proofs/s) | Ours (proofs/s) | Speedup |\n\
         |---|---|---|---|---|---|---|\n"
    );
    for profile in table_gpus() {
        let groth = groth16_gpu(&profile, log);
        let ours = run_ours(&profile, log, scale.system_batch, true);
        let groth_latency_s = groth.total_ms / 1e3;
        let groth_tput = 1e3 / groth.total_ms;
        let ours_latency_s = ours.stats.mean_latency_ms / 1e3;
        let ours_tput = ours.stats.throughput_per_ms * 1e3;
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
    for profile in table_gpus() {
        // run_ours reports total_ms as *amortized per task*; recover the
        // whole-run wall time, then divide by pipeline cycles.
        let overlapped = run_ours(&profile, log, scale.system_batch, true);
        let serial = run_ours(&profile, log, scale.system_batch, false);
        let tasks = scale.system_batch as f64;
        // Pipeline cycles: the batch plus the fill of the 4-stage system.
        let cycles = (scale.system_batch + 3) as f64;
        let traffic = overlapped.stats.h2d_bytes + overlapped.stats.d2h_bytes;
        let bytes_per_cycle = traffic as f64 / cycles;
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
        let ours_per = ours.stats.peak_mem_bytes / IN_FLIGHT;
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

/// Ablation: warp bucket-sorting (on/off) and multi-stream overlap
/// (on/off) — the two §3.3/§4 design choices DESIGN.md calls out.
pub fn ablation(scale: &Scale) -> String {
    // Warp sorting only pays off when per-stage rows exceed the stage's
    // thread slice (multi-wave regime) — run the encoder with a tight
    // thread budget, as a loaded production system would.
    let log = scale.module_logs[1];
    let encoder_threads = 512;
    let workload = Workload::new(log, scale.module_batch, 8);
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let sorted = (MODULES[2].pipelined)(&mut gpu, workload, encoder_threads).stats;
    // The one module run outside the descriptor list: no table or figure
    // but this ablation turns warp sorting off.
    let mut gpu = Gpu::new(DeviceProfile::gh200());
    let unsorted = batchzk_pipeline::encoder::run_pipelined(
        &mut gpu,
        encoder_for(log),
        message_batch(workload),
        encoder_threads,
        false,
    )
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

#[cfg(test)]
mod tests {
    use super::super::tiny_scale;
    use super::*;

    #[test]
    fn system_tables_render() {
        let s = tiny_scale();
        for table in [table7(&s), table8(&s), table9(&s), table10(&s)] {
            assert!(table.contains("2^") || table.contains("V100"), "{table}");
        }
    }

    #[test]
    fn ablation_renders() {
        assert!(ablation(&tiny_scale()).contains("Warp"));
    }
}
