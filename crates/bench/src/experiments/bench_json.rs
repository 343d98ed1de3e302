//! The machine-readable benchmark artifact behind `tables bench-json`,
//! assembled from the other families' studies.

use batchzk_gpu_sim::{DeviceProfile, Gpu, TraceLevel};
use batchzk_metrics::json::{Array, Object, ToJson};
use batchzk_metrics::{nearest_rank, Registry};
use batchzk_pipeline::{analysis, observe, RunStats};
use batchzk_zkp::prove_batch_with;

use super::backends::{backends_section, backends_study};
use super::modules::{Workload, MODULES};
use super::pool::{recovery_study, scaling_sweep, RECOVERY_DEVICES};
use super::service::{reference_plan, service_section, sumcheck_study, SERVICE_DEVICES};
use super::timeline::timeline_section;
use super::{Circuit, MODULE_THREADS};
use crate::scale::{Scale, SCALING_BATCH};

/// Renders one pipelined run's benchmark section (the value under its
/// module's name), folding the run into `registry` as a side effect.
fn bench_section(
    registry: &mut Registry,
    module: &str,
    log: u32,
    gpu: &Gpu,
    stats: &RunStats,
) -> Object {
    observe::record_run(registry, module, stats);
    let analysis = analysis::analyze(gpu, stats, MODULE_THREADS);
    // Exact nearest-rank quantiles over the integer per-proof latencies —
    // not the histogram's bucketed estimate — since the raw spans are in
    // hand here.
    let mut latencies: Vec<u64> = stats.lifecycles.iter().map(|s| s.total_cycles()).collect();
    latencies.sort_unstable();
    let secs = gpu.profile().cycles_to_seconds(stats.total_cycles);
    let stages = stats.stage_stats.iter().map(|s| {
        Object::new()
            .field("name", &s.name)
            .field("threads", s.threads)
            .field("occupancy", s.occupancy)
            .field("busy_cycles", s.busy_cycles)
            .field("occupied_cycles", s.occupied_cycles)
    });
    let latency = Object::new()
        .field("p50", nearest_rank(&latencies, 0.50))
        .field("p95", nearest_rank(&latencies, 0.95))
        .field("p99", nearest_rank(&latencies, 0.99))
        .field("min", latencies.first().copied().unwrap_or(0))
        .field("max", latencies.last().copied().unwrap_or(0));
    Object::new()
        .field("log_n", log)
        .field("tasks", stats.tasks)
        .field("total_cycles", stats.total_cycles)
        // A run of no cycles divides by zero, which renders as 0.0.
        .field("tasks_per_sec", stats.tasks as f64 / secs)
        .field("throughput_per_ms", stats.throughput_per_ms)
        .field("limiting_stage", &analysis.limiting_stage)
        .field("latency_cycles", latency)
        .field("stages", stages.collect::<Array>())
        .field("analysis", &analysis)
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
/// rejection rate), a `backends` section (each
/// [`batchzk_zkp::ProverBackend`] proved pipelined and kernel-per-task
/// naive with byte-identical proofs, plus the committed mixed trace
/// through one [`batchzk_zkp::MixedBackend`] service instance), and the
/// accumulated metrics registry in its canonical exposition. Everything
/// derives from simulated integer cycles — no wall clock — so two runs at
/// the same scale produce byte-identical output, making `BENCH.json`
/// diffable across commits for regression tracking.
pub fn bench_json(scale: &Scale) -> String {
    let profile = DeviceProfile::a100();
    let mut registry = Registry::new();

    // The three module pipelines at the largest module size.
    let log = scale.module_logs[0];
    let modules: Object = MODULES
        .iter()
        .enumerate()
        .map(|(i, module)| {
            let workload =
                Workload::new(log, scale.module_batch, 400 + 100 * i as u64 + log as u64);
            let mut gpu = Gpu::with_trace_level(profile.clone(), TraceLevel::Full);
            let stats = (module.pipelined)(&mut gpu, workload, MODULE_THREADS).stats;
            let section = bench_section(&mut registry, module.name, log, &gpu, &stats);
            (module.name, section)
        })
        .collect();

    // Full proving system (smallest system size keeps the artifact cheap
    // enough for CI smoke runs).
    let sys_log = *scale.system_logs.last().expect("system sizes configured");
    let circuit = Circuit::synthetic(sys_log);
    let mut gpu = Gpu::with_trace_level(profile.clone(), TraceLevel::Full);
    let stats = prove_batch_with(
        &mut gpu,
        &circuit.backend,
        circuit.instances(scale.system_batch),
        MODULE_THREADS,
        true,
    )
    .expect("fits")
    .stats;
    let modules = modules.field(
        "system",
        bench_section(&mut registry, "system", sys_log, &gpu, &stats),
    );

    // Multi-device scaling sweep: the same batch over pools of 1/2/4/8
    // identical devices; cycle-derived, so byte-stable too.
    let scaling_runs = scaling_sweep(scale, &[1, 2, 4, 8], &profile)
        .into_iter()
        .map(|(d, p)| {
            Object::new()
                .field("devices", d)
                .field("makespan_ms", p.makespan_ms)
                .field("throughput_per_ms", p.throughput_per_ms)
                .field("analysis", &p.analysis)
        });
    let scaling = Object::new()
        .field("log_n", scale.scaling_log)
        .field("batch", SCALING_BATCH)
        .field("runs", scaling_runs.collect::<Array>());

    // Recovery-overhead study: the same batch on a two-device pool under
    // each scripted-fault scenario; recovered proofs must stay
    // byte-identical to the fault-free run (the `proofs_identical` flags
    // below are what CI greps for).
    let study = recovery_study(scale, None).expect("committed scenarios recover");
    let scenarios = study.outcomes.iter().map(|o| {
        Object::new()
            .field("name", o.name)
            .field("plan", &o.spec)
            .field("proofs_identical", o.proofs_identical)
            .field("analysis", &o.analysis)
    });
    let recovery = Object::new()
        .field("log_n", scale.scaling_log)
        .field("batch", SCALING_BATCH)
        .field("devices", RECOVERY_DEVICES)
        .field("fault_free_ms", study.fault_free_ms)
        .field("scenarios", scenarios.collect::<Array>());

    // Online-service replay of the committed reference trace at pool sizes
    // 1 and 4: per-class latency quantiles vs SLO, goodput, rejection
    // rate. Virtual-time throughout, so byte-stable like everything above;
    // the service metric families land in the registry under per-pool
    // module labels (`service-d1`, `service-d4`). The `timeline` section
    // is the flight recorder of the same study's 1-device replay (the
    // overload case) with the default alert policy evaluated against it.
    let service = sumcheck_study(
        scale,
        &reference_plan(),
        &SERVICE_DEVICES,
        TraceLevel::default(),
    )
    .expect("committed reference trace serves");
    for p in &service.points {
        let module = format!("service-d{}", p.devices);
        observe::record_service(&mut registry, &module, &p.outcome, None);
    }

    // Backend comparison: each ProverBackend proved through the pipelined
    // and the kernel-per-task naive schedule at the same size (proofs must
    // be byte-identical between the two), then the committed mixed trace
    // through one MixedBackend service instance at pool sizes 1 and 4.
    // The pipelined runs and mixed replays land in the registry under
    // `backend`-labelled metric families.
    let backends = backends_study(scale, &mut registry, None);

    Object::new()
        .field("schema", "batchzk-bench-v1")
        .field("device", "a100")
        .field("scale", scale.tag)
        .field("thread_budget", MODULE_THREADS)
        .field("modules", modules)
        .field("scaling", scaling)
        .field("recovery", recovery)
        .field("service", service_section(scale, &service))
        .field("timeline", timeline_section(scale, &service))
        .field("backends", backends_section(scale, &backends))
        .field("metrics", &registry)
        .to_json()
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::super::tiny_scale;
    use super::*;
    use std::sync::OnceLock;

    /// BENCH.json at the tiny scale rendered at host threads `threads`
    /// (1, 2 or 4), once per test process: a render is most of a debug
    /// test's time, and the two tests below share theirs.
    fn render(threads: usize) -> &'static String {
        static RENDERS: [OnceLock<String>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        RENDERS[threads.trailing_zeros() as usize]
            .get_or_init(|| batchzk_par::with_threads(threads, || bench_json(&tiny_scale())))
    }

    #[test]
    fn bench_json_is_complete_and_deterministic() {
        let json = render(1);
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
        assert_eq!(render(2), json, "bench-json must be byte-stable");
    }

    #[test]
    fn bench_json_byte_identical_across_host_thread_counts() {
        // Host parallelism must be invisible in the artifact: the same
        // scale renders the same bytes whether the engines fan out across
        // 1, 2, or 4 host workers.
        let base = render(1);
        for t in [2usize, 4] {
            assert_eq!(render(t), base, "bench-json differs at threads={t}");
        }
    }
}
