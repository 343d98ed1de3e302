//! The `profile` experiment: host self-timing of every hot-path kernel
//! and a phase-attributed single-thread prove (`PROFILE.json`).

use batchzk_field::lut::{naive_select_sum, SubsetSumLUT};
use batchzk_field::{Field, Fr, NttDomain, RngCore};
use batchzk_hash::Prg;
use batchzk_metrics::registry::{format_f64, join_json};
use batchzk_sumcheck::{prove_quadratic, MultilinearPoly};
use batchzk_zkp::{pcs, spartan};

use super::{pcs_params, timed_ms, Circuit};
use crate::scale::Scale;

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
    timed_ms(f).1 * 1e6
}

/// Proves the circuit's instance once on the host, timing each named
/// pipeline phase; returns the phases in order and the wall milliseconds
/// of the whole prove (phases plus glue).
pub(super) fn timed_prove(circuit: &Circuit) -> (Vec<PhaseProfile>, f64) {
    let r1cs = circuit.backend.r1cs();
    let (inputs, witness) = &circuit.instance;
    let params = pcs_params();
    // Built once per backend, so outside the per-proof time.
    let key = spartan::witness_key(params, r1cs);
    timed_ms(|| {
        let mut phases = Vec::new();
        let mut phase = |name, ms| phases.push(PhaseProfile { name, ms });
        let z = r1cs.assemble_z(inputs, witness);

        let (mut transcript, ms) = timed_ms(|| spartan::statement_transcript(r1cs, inputs));
        phase("transcript", ms);
        let (encoded, ms) = timed_ms(|| key.commit_encode(&z[r1cs.half_len()..]));
        phase("encode", ms);
        let ((commitment, data), ms) = timed_ms(|| pcs::commit_merkle(encoded));
        phase("merkle", ms);
        transcript.absorb_digest(b"w-commitment", &commitment.root);

        // `spartan::run_sumchecks`, phase by phase.
        let (products, ms) = timed_ms(|| r1cs.products(&z));
        phase("spmv", ms);
        let (sc1, ms) = timed_ms(|| spartan::prove_outer(r1cs, products, &mut transcript));
        phase("sc1", ms);
        let (m_combo, ms) = timed_ms(|| spartan::bind_matrices(r1cs, &sc1, &mut transcript));
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
        phases
    })
}

/// Runs the `profile` measurements: self-timed microbenchmarks of every
/// hot-path kernel (strict/deferred-reduction Montgomery multiply, LUT vs naive
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
    let mut kernel = |name, ops: usize, wall_ns| {
        kernels.push(KernelProfile {
            name,
            ops: ops as u64,
            wall_ns,
        })
    };
    // Times `repeats` evaluations of `op`, summed so none can be elided.
    let time_sum = |repeats: usize, op: &dyn Fn() -> Fr| {
        timed_ns(|| {
            black_box((0..repeats).map(|_| op()).sum::<Fr>());
        })
    };

    // The same n-element inner product two ways: strict per-op reduction
    // and the deferred-reduction accumulate (`mont-mul-lazy`, the row name
    // the CI name-set pins).
    let strict = || a.iter().zip(&b).map(|(x, y)| *x * *y).sum::<Fr>();
    kernel("mont-mul", n * reps, time_sum(reps, &strict));
    kernel(
        "mont-mul-lazy",
        n * reps,
        time_sum(reps, &|| Fr::dot(&a, &b)),
    );

    // Binary-selector inner products: the naive path spends one Montgomery
    // multiply per weight; the subset-sum LUT (built once, amortized across
    // messages) replaces each 8-weight chunk with a single table add.
    let width = n.min(256);
    let weights = &a[..width];
    let bits: Vec<bool> = (0..width).map(|_| rng.next_u64() & 1 == 1).collect();
    let rounds = (n * reps / width).max(1);
    let naive = || naive_select_sum(weights, &bits);
    kernel("binary-dot-naive", rounds * width, time_sum(rounds, &naive));
    let lut = SubsetSumLUT::new(weights, 8.min(width));
    let masks = lut.masks_from_bits(&bits);
    let table = || lut.select_sum_masks(&masks);
    kernel("binary-dot-lut", rounds * width, time_sum(rounds, &table));

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
    kernel("sha256-block", blocks.len(), ns);

    // Radix-2 NTT butterflies at the wall size.
    let domain = NttDomain::<Fr>::new(log);
    let mut values = a.clone();
    let ns = timed_ns(|| {
        for _ in 0..reps {
            domain.forward(&mut values);
        }
        black_box(&values);
    });
    kernel(
        "ntt-butterfly",
        domain.butterfly_count() as usize * reps,
        ns,
    );

    // Phase attribution: one real single-thread prove at the same size,
    // with the pipeline phases timed inside a single total-time envelope —
    // coverage is attributed/total within one run, not a cross-run ratio.
    let circuit = Circuit::synthetic(log);
    let (phases, total_ms) = batchzk_par::with_threads(1, || timed_prove(&circuit));
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
    let study = profile_study(scale);
    let kernels = study.kernels.iter().map(|k| {
        format!(
            "{{\"name\":\"{}\",\"ops\":{},\"wall_ns\":{},\"ns_per_op\":{},\"mops\":{}}}",
            k.name,
            k.ops,
            format_f64(k.wall_ns),
            format_f64(k.ns_per_op()),
            format_f64(k.mops())
        )
    });
    let phases = study.phases.iter().map(|p| {
        format!(
            "{{\"name\":\"{}\",\"ms\":{},\"share\":{}}}",
            p.name,
            format_f64(p.ms),
            format_f64(p.ms / study.total_ms.max(1e-9))
        )
    });
    format!(
        "{{\"profile\":{{\"log_n\":{},\"kernels\":[{}],\"phases\":[{}],\
         \"total_ms\":{},\"coverage\":{},\"lut_speedup\":{}}}}}\n",
        study.log_n,
        join_json(kernels),
        join_json(phases),
        format_f64(study.total_ms),
        format_f64(study.coverage),
        format_f64(study.lut_speedup)
    )
}

#[cfg(test)]
mod tests {
    use super::super::tiny_scale;
    use super::*;

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
}
