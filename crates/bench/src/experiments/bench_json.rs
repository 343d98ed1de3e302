//! The machine-readable benchmark artifact behind `tables bench-json`,
//! assembled from the other families' studies.

use batchzk_gpu_sim::{DeviceProfile, Gpu, TraceLevel};
use batchzk_metrics::registry::{escape_json, format_f64, join_json};
use batchzk_metrics::{nearest_rank, Registry};
use batchzk_pipeline::{observe, RunStats};
use batchzk_zkp::prove_batch_with;

use super::backends::{backends_section, backends_study};
use super::modules::{Workload, MODULES};
use super::pool::{recovery_study, scaling_point, scaling_sweep, RECOVERY_DEVICES};
use super::service::{reference_plan, service_section, sumcheck_study, SERVICE_DEVICES};
use super::timeline::timeline_section;
use super::{timed_ms, Circuit, MODULE_THREADS};
use crate::scale::Scale;

/// Renders one pipelined run's benchmark section (`"<module>":{...}`),
/// folding the run into `registry` as a side effect.
fn bench_section(
    registry: &mut Registry,
    module: &str,
    log: u32,
    gpu: &Gpu,
    stats: &RunStats,
) -> String {
    observe::record_run(registry, module, stats);
    let analysis = batchzk_metrics::analyze(
        gpu.step_events(),
        gpu.kernel_events(),
        &observe::stage_observations(&stats.stage_stats),
        MODULE_THREADS,
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
    let stages = stats.stage_stats.iter().map(|s| {
        format!(
            "{{\"name\":\"{}\",\"threads\":{},\"occupancy\":{},\
             \"busy_cycles\":{},\"occupied_cycles\":{}}}",
            escape_json(&s.name),
            s.threads,
            format_f64(s.occupancy),
            s.busy_cycles,
            s.occupied_cycles,
        )
    });
    format!(
        "\"{module}\":{{\"log_n\":{log},\"tasks\":{},\"total_cycles\":{},\
         \"tasks_per_sec\":{},\"throughput_per_ms\":{},\
         \"limiting_stage\":\"{}\",\"latency_cycles\":{{\
         \"p50\":{},\"p95\":{},\"p99\":{},\"min\":{},\"max\":{}}},\"stages\":[{}],\
         \"analysis\":{}}}",
        stats.tasks,
        stats.total_cycles,
        format_f64(tasks_per_sec),
        format_f64(stats.throughput_per_ms),
        escape_json(&analysis.limiting_stage),
        nearest_rank(&latencies, 0.50),
        nearest_rank(&latencies, 0.95),
        nearest_rank(&latencies, 0.99),
        latencies.first().copied().unwrap_or(0),
        latencies.last().copied().unwrap_or(0),
        join_json(stages),
        analysis.to_json(),
    )
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
    let mut modules: Vec<String> = MODULES
        .iter()
        .enumerate()
        .map(|(i, module)| {
            let workload =
                Workload::new(log, scale.module_batch, 400 + 100 * i as u64 + log as u64);
            let mut gpu = Gpu::with_trace_level(profile.clone(), TraceLevel::Full);
            let stats = (module.pipelined)(&mut gpu, workload, MODULE_THREADS).stats;
            bench_section(&mut registry, module.name, log, &gpu, &stats)
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
    modules.push(bench_section(
        &mut registry,
        "system",
        sys_log,
        &gpu,
        &stats,
    ));

    // Multi-device scaling sweep: the same batch over pools of 1/2/4/8
    // identical devices; cycle-derived, so byte-stable too.
    let scaling_runs = scaling_sweep(scale, &[1, 2, 4, 8], &profile)
        .into_iter()
        .map(|(d, p)| {
            format!(
                "{{\"devices\":{d},\"makespan_ms\":{},\"throughput_per_ms\":{},\"analysis\":{}}}",
                format_f64(p.makespan_ms),
                format_f64(p.throughput_per_ms),
                p.analysis.to_json(),
            )
        });
    let scaling = format!(
        "{{\"log_n\":{},\"batch\":{},\"runs\":[{}]}}",
        scale.scaling_log,
        scale.scaling_batch,
        join_json(scaling_runs),
    );

    // Recovery-overhead study: the same batch on a two-device pool under
    // each scripted-fault scenario; recovered proofs must stay
    // byte-identical to the fault-free run (the `proofs_identical` flags
    // below are what CI greps for).
    let study = recovery_study(scale, None).expect("committed scenarios recover");
    let scenarios = study.outcomes.iter().map(|o| {
        format!(
            "{{\"name\":\"{}\",\"plan\":\"{}\",\"proofs_identical\":{},\"analysis\":{}}}",
            escape_json(o.name),
            escape_json(&o.spec),
            o.proofs_identical,
            o.analysis.to_json(),
        )
    });
    let recovery = format!(
        "{{\"log_n\":{},\"batch\":{},\"devices\":{},\
         \"fault_free_ms\":{},\"scenarios\":[{}]}}",
        scale.scaling_log,
        scale.scaling_batch,
        RECOVERY_DEVICES,
        format_f64(study.fault_free_ms),
        join_json(scenarios),
    );

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

    format!(
        "{{\"schema\":\"batchzk-bench-v1\",\"device\":\"a100\",\"scale\":\"{}\",\
         \"thread_budget\":{MODULE_THREADS},\"modules\":{{{}}},\"scaling\":{scaling},\
         \"recovery\":{recovery},\"service\":{},\"timeline\":{},\"backends\":{},\
         \"metrics\":{}}}\n",
        escape_json(scale.tag),
        join_json(modules),
        service_section(scale, &service),
        timeline_section(scale, &service),
        backends_section(scale, &backends),
        registry.to_json(),
    )
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
    assert!(!thread_counts.is_empty(), "need at least one thread count");
    const DEVICES: usize = 4;
    let profile = DeviceProfile::a100();
    let circuit = Circuit::synthetic(scale.wall_log);
    let wall_ms: Vec<f64> = thread_counts
        .iter()
        .map(|&t| {
            let run = || scaling_point(&profile, DEVICES, &circuit, scale.wall_batch, None);
            timed_ms(|| batchzk_par::with_threads(t, run)).1
        })
        .collect();

    let host_cores = batchzk_par::host_cores();
    let saturated = thread_counts.iter().copied().max().unwrap_or(1) > host_cores;
    let section = format!(
        "{{\"devices\":{DEVICES},\"log_n\":{},\"batch\":{},\"host_cores\":{host_cores},\
         \"saturated\":{saturated},\"threads\":[{}],\"wall_ms\":[{}],\"speedup\":[{}]}}",
        scale.wall_log,
        scale.wall_batch,
        join_json(thread_counts.iter().map(usize::to_string)),
        join_json(wall_ms.iter().map(|ms| format_f64(*ms))),
        join_json(
            wall_ms
                .iter()
                .map(|ms| format_f64(wall_ms[0] / ms.max(1e-9)))
        ),
    );

    // Splice before the artifact's closing `}\n`.
    let mut out = bench_json(scale);
    let tail = out.split_off(out.len() - 2);
    debug_assert_eq!(tail, "}\n");
    out + &format!(",\"wall_clock\":{section}") + &tail
}

#[cfg(test)]
mod tests {
    use super::super::tiny_scale;
    use super::*;

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
}
