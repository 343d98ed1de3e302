//! The pool family: `scaling` (throughput vs device count) and `faults`
//! (recovery overhead under scripted faults) — both prove the scale's
//! scaling batch across a [`DevicePool`] through [`prove_across`].

use batchzk_field::Fr;
use batchzk_gpu_sim::{DevicePool, DeviceProfile, FaultPlan};
use batchzk_pipeline::analysis::{analyze_pool, analyze_recovery, PoolAnalysis, RecoveryAnalysis};
use batchzk_pipeline::{PipelineError, ShardPolicy};
use batchzk_zkp::{prove_batch_pool_with, BackendPoolRun, SpartanBackend};

use super::{Circuit, MODULE_THREADS};
use crate::scale::{Scale, SCALING_BATCH};

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

/// Proves `batch` copies of the circuit's instance across `pool`.
fn prove_across(
    pool: &mut DevicePool,
    circuit: &Circuit,
    batch: usize,
) -> Result<BackendPoolRun<SpartanBackend<Fr>>, PipelineError> {
    prove_batch_pool_with(
        pool,
        &circuit.backend,
        circuit.instances(batch),
        MODULE_THREADS,
        true,
        ShardPolicy::MemoryAware,
    )
}

/// One point of the multi-device scaling sweep.
pub(super) struct ScalingPoint {
    pub makespan_ms: f64,
    pub throughput_per_ms: f64,
    pub analysis: PoolAnalysis,
}

/// Proves the batch across `devices` identical GPUs (a fresh pool of
/// identical devices places task *i* on device *i mod N*) and runs the pool analyzer against `baseline_ms` (the
/// single-device makespan; `None` makes this run its own baseline, i.e.
/// speedup 1.0).
pub(super) fn scaling_point(
    profile: &DeviceProfile,
    devices: usize,
    circuit: &Circuit,
    batch: usize,
    baseline_ms: Option<f64>,
) -> ScalingPoint {
    let mut pool = DevicePool::homogeneous(profile.clone(), devices);
    let run = prove_across(&mut pool, circuit, batch).expect("fits");
    let baseline_ms = baseline_ms.unwrap_or(run.makespan_ms);
    let analysis = analyze_pool(&run.pool_run(&pool), Some(baseline_ms));
    ScalingPoint {
        makespan_ms: run.makespan_ms,
        throughput_per_ms: run.throughput_per_ms(),
        analysis,
    }
}

/// The scaling sweep behind `tables scaling` and the BENCH.json `scaling`
/// section: one [`ScalingPoint`] per device count, the first count being
/// the speedup baseline.
pub(super) fn scaling_sweep(
    scale: &Scale,
    device_counts: &[usize],
    profile: &DeviceProfile,
) -> Vec<(usize, ScalingPoint)> {
    let circuit = Circuit::synthetic(scale.scaling_log);
    let mut baseline_ms = None;
    device_counts
        .iter()
        .map(|&d| {
            let p = scaling_point(profile, d, &circuit, SCALING_BATCH, baseline_ms);
            baseline_ms.get_or_insert(p.makespan_ms);
            (d, p)
        })
        .collect()
}

/// Multi-device scaling: throughput vs device count over a pool of
/// identical GPUs. The first entry of `device_counts` is the speedup
/// baseline — pass counts starting at 1 for "vs single device" numbers.
pub fn scaling(scale: &Scale, device_counts: &[usize], profile: &DeviceProfile) -> String {
    let mut out = format!(
        "## Scaling — {} proofs of S = 2^{} across a pool of {} devices\n\n\
         | Devices | Makespan (ms) | Throughput (proofs/ms) | Speedup | Scaling efficiency | Imbalance |\n\
         |---|---|---|---|---|---|\n",
        SCALING_BATCH, scale.scaling_log, profile.name
    );
    let mut reports = String::new();
    for (d, p) in scaling_sweep(scale, device_counts, profile) {
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

/// Pool size of the recovery study.
pub(super) const RECOVERY_DEVICES: usize = 2;

/// One scripted-fault scenario outcome of the recovery study.
pub(super) struct RecoveryOutcome {
    pub name: &'static str,
    pub spec: String,
    pub analysis: RecoveryAnalysis,
    pub proofs_identical: bool,
}

/// Fault-free baseline plus per-scenario recovery outcomes, shared by the
/// `faults` table and the `recovery` section of BENCH.json.
pub(super) struct RecoveryStudy {
    pub fault_free_ms: f64,
    pub outcomes: Vec<RecoveryOutcome>,
}

/// Runs the scale's scaling batch on a two-A100 pool, fault-free and under
/// each scripted-fault scenario, checking that recovered proofs stay
/// byte-identical to the fault-free run. `extra` (the `--fault-plan` spec)
/// appends a custom scenario.
///
/// # Errors
///
/// Returns a message when the `extra` plan leaves the batch unprovable
/// (e.g. every device fail-stops). The committed scenarios always leave a
/// survivor, so without `extra` this cannot fail.
pub(super) fn recovery_study(
    scale: &Scale,
    extra: Option<&FaultPlan>,
) -> Result<RecoveryStudy, String> {
    let circuit = Circuit::synthetic(scale.scaling_log);
    let run_pool = |plan: Option<&FaultPlan>| {
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), RECOVERY_DEVICES);
        if let Some(p) = plan {
            pool.apply_fault_plan(p);
        }
        prove_across(&mut pool, &circuit, SCALING_BATCH)
    };
    let clean = run_pool(None).expect("fits");
    let outcome =
        |name, plan: &FaultPlan, run: BackendPoolRun<SpartanBackend<Fr>>| RecoveryOutcome {
            name,
            spec: plan.spec(),
            analysis: analyze_recovery(clean.makespan_ms, run.makespan_ms, run.recovery.as_ref()),
            proofs_identical: run.proofs == clean.proofs,
        };
    // Strike device 1 halfway through its fault-free share: the canonical
    // mid-batch fail-stop.
    let mid = clean.device_stats[1].total_cycles / 2;
    let committed = [
        ("fail-stop", FaultPlan::new().fail_stop(1, mid)),
        ("degraded-clock", FaultPlan::new().degraded_clock(1, 0, 300)),
        ("drop-kernel", FaultPlan::new().drop_kernel(0, 0, 3)),
    ];
    let mut outcomes: Vec<RecoveryOutcome> = committed
        .iter()
        .map(|(name, plan)| {
            let run = run_pool(Some(plan)).expect("committed scenarios leave a survivor");
            outcome(*name, plan, run)
        })
        .collect();
    if let Some(plan) = extra {
        let run = run_pool(Some(plan)).map_err(|e| format!("fault plan `{}`: {e}", plan.spec()))?;
        outcomes.push(outcome("custom", plan, run));
    }
    Ok(RecoveryStudy {
        fault_free_ms: clean.makespan_ms,
        outcomes,
    })
}

/// The recovery-overhead study behind `tables faults`: a fault-free
/// baseline on a two-device pool, then each scripted-fault scenario
/// (mid-batch fail-stop, degraded clock, dropped kernel, plus any
/// `--fault-plan` spec), reporting makespan overhead and whether the
/// recovered proofs stayed byte-identical to the fault-free run.
///
/// # Errors
///
/// Returns a message (no panic) when the `extra` plan leaves no device to
/// finish the batch on.
pub fn faults(scale: &Scale, extra: Option<&FaultPlan>) -> Result<String, String> {
    let study = recovery_study(scale, extra)?;
    let mut out = format!(
        "## Faults — recovery overhead, {} proofs of S = 2^{} on {} A100s\n\n\
         Fault-free makespan: {:.3} ms\n\n\
         | Scenario | Plan | Makespan (ms) | Overhead | Failed | Replayed | Rounds | Proofs identical |\n\
         |---|---|---|---|---|---|---|---|\n",
        SCALING_BATCH, scale.scaling_log, RECOVERY_DEVICES, study.fault_free_ms
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
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tiny_scale;
    use super::*;

    #[test]
    fn faults_table_recovers_identical_proofs() {
        let s = tiny_scale();
        let t = faults(&s, None).expect("committed scenarios recover");
        for scenario in ["fail-stop", "degraded-clock", "drop-kernel"] {
            assert!(t.contains(scenario), "missing scenario {scenario}: {t}");
        }
        assert_eq!(t.matches("| yes |").count(), 3, "{t}");
        assert!(!t.contains("| NO |"), "recovered proofs diverged:\n{t}");
        // A custom `--fault-plan` spec rides along as its own scenario.
        let plan = FaultPlan::parse("0@0:slow:200").expect("valid spec");
        let custom = faults(&s, Some(&plan)).expect("a slowed device still finishes");
        assert!(custom.contains("| custom | `0@0:slow:200` |"), "{custom}");
        assert_eq!(custom.matches("| yes |").count(), 4, "{custom}");
    }

    #[test]
    fn faults_reports_an_unrecoverable_plan_as_an_error() {
        // Every device of the two-device pool fail-stops at cycle 0: there
        // is no survivor to replay on. This used to panic on `expect`.
        let plan = FaultPlan::parse("0@0:fail,1@0:fail").expect("valid spec");
        let err = faults(&tiny_scale(), Some(&plan)).unwrap_err();
        assert!(err.contains("0@0:fail,1@0:fail"), "{err}");
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
        let circuit = Circuit::synthetic(s.scaling_log);
        let one = scaling_point(&profile, 1, &circuit, SCALING_BATCH, None);
        assert!((one.analysis.speedup - 1.0).abs() < 1e-9);
        for (d, floor) in [(2usize, 1.8f64), (4, 3.0)] {
            let p = scaling_point(&profile, d, &circuit, SCALING_BATCH, Some(one.makespan_ms));
            assert!(
                p.analysis.speedup >= floor,
                "{d} devices: speedup {:.3} < {floor}",
                p.analysis.speedup
            );
            assert!(p.throughput_per_ms > one.throughput_per_ms);
        }
    }

    #[test]
    fn profile_lookup_covers_cli_names() {
        for name in ["v100", "a100", "rtx3090ti", "h100", "gh200"] {
            assert!(profile_by_name(name).is_some(), "{name}");
        }
        assert!(profile_by_name("tpu").is_none());
    }
}
