//! The `profile` experiment: a phase-attributed single-thread prove
//! (`PROFILE.json`), the fastest of five after a warm-up.

use batchzk_field::Field;
use batchzk_metrics::registry::{format_f64, join_json};
use batchzk_zkp::{pcs, spartan};

use super::{pcs_params, timed_ms, Circuit};
use crate::scale::Scale;

/// One named phase of the instrumented single-thread prover run.
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    /// Phase name (`transcript`, `encode`, `merkle`, `spmv`, `sc1`,
    /// `matrix-bind`, `sc2`, `pcs-open`).
    pub name: &'static str,
    /// Measured wall time in milliseconds.
    pub ms: f64,
}

/// Everything the `profile` experiment measures: a phase-attributed
/// single-thread prover run.
#[derive(Debug)]
pub struct ProfileStudy {
    /// log2 of the workload size (the scale's `wall_log`).
    pub log_n: u32,
    /// Named phases of the instrumented prove, in pipeline order.
    pub phases: Vec<PhaseProfile>,
    /// Wall time of the whole single-thread prove (phases plus glue).
    pub total_ms: f64,
    /// Share of `total_ms` attributed to the named phases (0..=1).
    pub coverage: f64,
}

/// Proves the circuit's instance once on the host, timing each named
/// pipeline phase; returns the phases in order and the wall milliseconds
/// of the whole prove (phases plus glue). The phases are the calls the
/// pipelined prover makes, `z` held as its live windows throughout.
pub(super) fn timed_prove(circuit: &Circuit) -> (Vec<PhaseProfile>, f64) {
    let r1cs = circuit.backend.r1cs();
    let (inputs, witness) = &circuit.instance;
    let params = pcs_params();
    // Built once per backend, so outside the per-proof time.
    let key = spartan::witness_key(params, r1cs);
    let mut arena = vec![Field::ZERO; spartan::arena_len(r1cs)];
    let arena = &mut arena[..];
    timed_ms(|| {
        let mut phases = Vec::new();
        let mut phase = |name, ms| phases.push(PhaseProfile { name, ms });
        let io = r1cs.io(inputs);
        let z = r1cs.live(&io, witness);

        let (mut transcript, ms) = timed_ms(|| spartan::statement_transcript(r1cs, inputs));
        phase("transcript", ms);
        let (encoded, ms) = timed_ms(|| key.commit_encode(witness));
        phase("encode", ms);
        let ((commitment, data), ms) = timed_ms(|| pcs::commit_merkle(encoded));
        phase("merkle", ms);
        transcript.absorb_digest(b"w-commitment", &commitment.root);

        // `spartan::run_sumchecks`, phase by phase, in the one arena.
        let ((), ms) = timed_ms(|| r1cs.products(z, arena));
        phase("spmv", ms);
        let (sc1, ms) = timed_ms(|| spartan::prove_outer(r1cs, arena, &mut transcript));
        phase("sc1", ms);
        let ((), ms) = timed_ms(|| spartan::bind_matrices(r1cs, &sc1, arena, &mut transcript));
        phase("matrix-bind", ms);
        let (sc2, ms) = timed_ms(|| spartan::prove_inner(r1cs, z, arena, &mut transcript));
        phase("sc2", ms);

        let point_y = sc2.point();
        let y_prime = &point_y[..point_y.len() - 1];
        let (_, ms) = timed_ms(|| pcs::open(&params, &data, y_prime, &mut transcript));
        phase("pcs-open", ms);
        phases
    })
}

/// Runs the `profile` measurement: one warm-up prove, then the fastest of
/// `PROFILE_REPS` (5) instrumented single-thread proves, whose wall time is
/// attributed to named pipeline phases. The phases and the total come from
/// that one run, so coverage is attributed/total within it. Everything
/// except the timings is deterministic at a given scale.
fn profile_study(scale: &Scale) -> ProfileStudy {
    let log = scale.wall_log;
    let circuit = Circuit::synthetic(log);
    let (phases, total_ms) = batchzk_par::with_threads(1, || {
        timed_prove(&circuit);
        (0..PROFILE_REPS)
            .map(|_| timed_prove(&circuit))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one rep")
    });
    let attributed: f64 = phases.iter().map(|p| p.ms).sum();
    let coverage = if total_ms > 0.0 {
        attributed / total_ms
    } else {
        0.0
    };
    ProfileStudy {
        log_n: log,
        phases,
        total_ms,
        coverage,
    }
}

/// Timed proves the profile keeps the fastest of, after its warm-up.
const PROFILE_REPS: usize = 5;

/// The `profile` experiment as a markdown report: the phase attribution
/// of the single-thread prove.
pub fn profile(scale: &Scale) -> String {
    let study = profile_study(scale);
    let mut out = format!(
        "## Profile — phase attribution (single thread, size 2^{})\n\n\
         | Phase | ms | share |\n|---|---|---|\n",
        study.log_n
    );
    for p in &study.phases {
        out.push_str(&format!(
            "| {} | {:.3} | {:.1}% |\n",
            p.name,
            p.ms,
            100.0 * p.ms / study.total_ms.max(1e-9)
        ));
    }
    out.push_str(&format!(
        "\nNamed phases cover {:.1}% of the {:.3} ms single-thread prove.\n",
        100.0 * study.coverage,
        study.total_ms
    ));
    out
}

/// The `profile` experiment as a machine-readable JSON artifact
/// (`PROFILE.json`). Structure, names and sizes are byte-deterministic at
/// a given scale; only the timing values vary.
pub fn profile_json(scale: &Scale) -> String {
    let study = profile_study(scale);
    let phases = study.phases.iter().map(|p| {
        format!(
            "{{\"name\":\"{}\",\"ms\":{},\"share\":{}}}",
            p.name,
            format_f64(p.ms),
            format_f64(p.ms / study.total_ms.max(1e-9))
        )
    });
    format!(
        "{{\"profile\":{{\"log_n\":{},\"phases\":[{}],\
         \"total_ms\":{},\"coverage\":{}}}}}\n",
        study.log_n,
        join_json(phases),
        format_f64(study.total_ms),
        format_f64(study.coverage)
    )
}

#[cfg(test)]
mod tests {
    use super::super::tiny_scale;
    use super::*;

    #[test]
    fn profile_attributes_wall_time() {
        let s = tiny_scale();
        let study = profile_study(&s);
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
    }

    #[test]
    fn profile_report_and_json_render() {
        let s = tiny_scale();
        let md = profile(&s);
        assert!(md.contains("| encode |"), "{md}");
        assert!(md.contains("| matrix-bind |"), "{md}");
        let json = profile_json(&s);
        for field in [
            "\"profile\":{",
            "\"log_n\":8",
            "\"phases\":[",
            "\"total_ms\":",
            "\"coverage\":",
        ] {
            assert!(json.contains(field), "missing field {field}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
