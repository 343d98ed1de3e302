//! The per-layer numbers of a traced run. Two sources, both outside the
//! program under test: the spans [`Traced`](crate::trace::Traced) stages
//! record inside a real engine round, and direct timed calls into each
//! layer's public functions at the sizes the workload's proofs have.

use std::hint::black_box;
use std::time::Instant;

use batchzk_curve::{msm, G1Affine};
use batchzk_encoder::Encoder;
use batchzk_field::{Field, Fr, NttDomain, SplitMix64};
use batchzk_gpu_sim::{DeviceProfile, Dir, Gpu, KernelStep, Transfer, Work};
use batchzk_hash::{hash_block, hash_blocks, Transcript};
use batchzk_merkle::MerkleTree;
use batchzk_metrics::Registry;
use batchzk_pcs as pcs;
use batchzk_pipeline::observe;
use batchzk_zkp::{spartan, BACKEND_NAMES};

use crate::spec::STAGE_NAMES;
use crate::stats::median;
use crate::trace::{self_times_ns, Kind, Span, Tracer};
use crate::workload::{fail, ProbeInput, Round, SumcheckProbe, DEVICE_THREADS, PROVE_PHASE};

pub type Metrics = Vec<(String, f64)>;

fn push(out: &mut Metrics, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

/// `total` per unit of `count`; 0 when a tiny size leaves nothing to count
/// (an encoder below its base length has no sparse terms).
fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Runs `f` inside a layer span; also hands back its nanoseconds, so
/// callers need not dig the span out again.
fn timed_layer<R>(tracer: &Tracer, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    tracer.span(Kind::Layer, name, None, || {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_nanos() as f64)
    })
}

/// Median nanoseconds of `reps` calls of `f`, each inside a layer span.
fn median_ns(tracer: &Tracer, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let durations: Vec<f64> = (0..reps)
        .map(|_| timed_layer(tracer, name, &mut f).1)
        .collect();
    median(&durations)
}

/// Repetitions of a direct-call probe: fewer for the calls that take
/// tenths of a second at VGG size.
fn reps_for(len: usize) -> usize {
    if len >= 1 << 18 {
        3
    } else {
        7
    }
}

/// Iterations of the scalar kernel probes: long enough that the two clock
/// reads around them vanish.
const KERNEL_OPS: usize = 1 << 18;
const HASH_BLOCKS: usize = 1 << 12;
const MERKLE_OPENS: usize = 256;
const SIM_STEPS: usize = 20_000;
const RECORD_REPS: usize = 50;

/// Direct timed calls into `field`, `curve`, `hash`, `merkle`, `encoder`,
/// `sumcheck`, `pcs`, `gpu-sim` and `metrics`.
pub fn probe_layers(input: &ProbeInput, round: &Round, tracer: &Tracer, out: &mut Metrics) {
    let evals = &input.evals;
    let reps = reps_for(evals.len());
    // Full-width operands for the kernels whose cost depends on the values
    // (an MSM over a VGG witness's small integers skips most windows).
    let mut rng = SplitMix64::seed_from_u64(0xbe_7c4);
    let mut random = |n: usize| -> Vec<Fr> { (0..n).map(|_| Fr::random(&mut rng)).collect() };

    // field
    let operands = random(2);
    let (a, b) = (operands[0], operands[1]);
    let ns = median_ns(tracer, "field.mont_mul", reps, || {
        let mut x = a;
        for _ in 0..KERNEL_OPS {
            x *= b;
        }
        black_box(x);
    });
    push(out, "field.mont_mul_ns", ns / KERNEL_OPS as f64);
    let mut rotated = evals.clone();
    rotated.rotate_left(1);
    let ns = median_ns(tracer, "field.dot", reps, || {
        black_box(Fr::dot(black_box(evals), black_box(&rotated)));
    });
    push(out, "field.dot_ns_per_term", ns / evals.len() as f64);
    let domain = NttDomain::<Fr>::new(input.ntt_log);
    let mut values = random(domain.size());
    let ns = median_ns(tracer, "field.ntt_forward", reps, || {
        domain.forward(black_box(&mut values));
    });
    push(
        out,
        "field.ntt_butterfly_ns",
        per(ns, domain.butterfly_count()),
    );

    // curve
    let n_points = 1usize << input.msm_log;
    let points: Vec<G1Affine> = (0..n_points)
        .map(|i| G1Affine::from_counter(1 + i as u64))
        .collect();
    let scalars = random(n_points);
    let ns = median_ns(tracer, "curve.msm", reps, || {
        black_box(msm(black_box(&points), black_box(&scalars)));
    });
    push(out, "curve.msm_ns_per_point", ns / n_points as f64);

    // hash
    let blocks: Vec<[u8; 64]> = (0..HASH_BLOCKS)
        .map(|i| {
            let mut block = [0u8; 64];
            block[..32].copy_from_slice(&evals[i % evals.len()].to_bytes());
            block[32..40].copy_from_slice(&(i as u64).to_le_bytes());
            block
        })
        .collect();
    let ns = median_ns(tracer, "hash.hash_block", reps, || {
        for block in &blocks {
            black_box(hash_block(black_box(block)));
        }
    });
    push(out, "hash.sha256_block_ns", ns / HASH_BLOCKS as f64);
    let ns = median_ns(tracer, "hash.hash_blocks", reps, || {
        black_box(hash_blocks(black_box(&blocks)));
    });
    push(out, "hash.sha256_block_x4_ns", ns / HASH_BLOCKS as f64);

    // encoder, at the message length the proof's matrix rows have
    let vars = evals.len().trailing_zeros() as usize;
    let (n_rows, n_cols) = pcs::matrix_shape(vars);
    let params = input.params;
    let mut encoder = None;
    let ns = median_ns(tracer, "encoder.new", reps, || {
        encoder = Some(Encoder::<Fr>::new(n_cols, params.encoder, params.seed));
    });
    push(out, "encoder.new_ms", ns / 1e6);
    let encoder = encoder.expect("reps >= 1");
    let row = &evals[..n_cols];
    let ns = median_ns(tracer, "encoder.encode", reps, || {
        black_box(encoder.encode(black_box(row)));
    });
    push(
        out,
        "encoder.encode_ns_per_nnz",
        per(ns, encoder.total_nnz() as u64),
    );
    push(
        out,
        "encoder.nnz_per_proof",
        (encoder.total_nnz() * n_rows) as f64,
    );

    // merkle, over as many leaves as the codeword has columns
    let leaves = hash_blocks(
        &blocks
            .iter()
            .copied()
            .cycle()
            .take(encoder.codeword_len())
            .collect::<Vec<_>>(),
    );
    let mut tree = None;
    let ns = median_ns(tracer, "merkle.from_leaves", reps, || {
        tree = Some(MerkleTree::from_leaves(black_box(leaves.clone())));
    });
    // The clone of the leaf vector is a memcpy of 32 bytes per leaf.
    push(out, "merkle.build_ns_per_leaf", ns / leaves.len() as f64);
    let tree = tree.expect("reps >= 1");
    let ns = median_ns(tracer, "merkle.open", reps, || {
        for i in 0..MERKLE_OPENS {
            black_box(tree.open(i * 7919 % leaves.len()));
        }
    });
    push(out, "merkle.open_ns", ns / MERKLE_OPENS as f64);
    push(
        out,
        "merkle.node_hashes_per_proof",
        tree.node_hash_count() as f64,
    );

    // sumcheck
    match &input.sumcheck {
        Some(SumcheckProbe { r1cs, inputs, z }) => {
            let mut rounds = 0;
            let ns = median_ns(tracer, "sumcheck.run_sumchecks", reps, || {
                let mut transcript = spartan::statement_transcript(r1cs, inputs);
                let part = spartan::run_sumchecks(r1cs, z, &mut transcript);
                rounds = part.sc1.num_rounds() + part.sc2.num_rounds();
            });
            // Table entries folded: four tables of m and two of n.
            let entries = 4 * r1cs.padded_constraints() + 2 * r1cs.z_len();
            push(out, "sumcheck.prove_ns_per_entry", per(ns, entries as u64));
            push(out, "sumcheck.rounds_per_proof", rounds as f64);
        }
        None => {
            push(out, "sumcheck.prove_ns_per_entry", 0.0);
            push(out, "sumcheck.rounds_per_proof", 0.0);
        }
    }

    // pcs: the phase-split prover and the verifier, one chain per rep
    let mut phases: [Vec<f64>; 5] = Default::default();
    let mut column_tests = 0;
    for _ in 0..reps {
        let (encoded, encode_ns) = timed_layer(tracer, "pcs.commit_encode", || {
            pcs::commit_encode(&params, evals)
        });
        let ((commitment, data), merkle_ns) =
            timed_layer(tracer, "pcs.commit_merkle", || pcs::commit_merkle(encoded));
        let mut transcript = Transcript::new(b"batchzk-benchmark-probe");
        transcript.absorb_digest(b"root", &commitment.root);
        let mut verifier_transcript = transcript.clone();
        let (rows, combine_ns) = timed_layer(tracer, "pcs.open_combine", || {
            pcs::open_combine(&data, &input.point, &mut transcript)
        });
        let ((value, opening), queries_ns) = timed_layer(tracer, "pcs.open_queries", || {
            pcs::open_queries(&params, &data, rows, &mut transcript)
        });
        let (ok, verify_ns) = timed_layer(tracer, "pcs.verify", || {
            pcs::verify(
                &params,
                &commitment,
                &input.point,
                value,
                &opening,
                &mut verifier_transcript,
            )
        });
        if !ok {
            fail("pcs probe opening does not verify");
        }
        column_tests = opening.columns.len();
        let chain = [encode_ns, merkle_ns, combine_ns, queries_ns, verify_ns];
        for (phase, ns) in phases.iter_mut().zip(chain) {
            phase.push(ns / 1e6);
        }
    }
    for (name, phase) in [
        "pcs.commit_encode_ms",
        "pcs.commit_merkle_ms",
        "pcs.open_combine_ms",
        "pcs.open_queries_ms",
        "pcs.verify_ms",
    ]
    .iter()
    .zip(&phases)
    {
        push(out, name, median(phase));
    }
    push(out, "pcs.column_tests", column_tests as f64);

    // gpu-sim: a four-kernel step with one transfer each way, the shape
    // the pipeline engine submits in steady state
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let kernels: Vec<KernelStep> = (0..4)
        .map(|i| {
            KernelStep::new(
                format!("probe-{i}"),
                DEVICE_THREADS / 4,
                Work::Uniform {
                    units: 1 << 14,
                    cycles_per_unit: 100,
                },
            )
        })
        .collect();
    let transfers = [
        Transfer {
            bytes: 1 << 16,
            dir: Dir::HostToDevice,
        },
        Transfer {
            bytes: 1 << 12,
            dir: Dir::DeviceToHost,
        },
    ];
    let ns = median_ns(tracer, "gpu-sim.execute_step", 3, || {
        for _ in 0..SIM_STEPS {
            black_box(gpu.execute_step(&kernels, &transfers, true));
        }
    });
    push(out, "gpu-sim.host_ns_per_step", ns / SIM_STEPS as f64);

    // metrics: folding one device's run statistics into a registry
    let stats = &round.device_stats[0];
    let ns = median_ns(tracer, "metrics.record_run", RECORD_REPS, || {
        let mut registry = Registry::new();
        observe::record_run(&mut registry, "benchmark", stats);
        black_box(registry);
    });
    push(out, "metrics.record_us_per_run", ns / 1e3);
}

/// The stage, verifier, engine and device numbers of the traced round,
/// from its spans and its `RunStats`.
pub fn round_metrics(spans: &[Span], round: &Round, out: &mut Metrics) {
    let own = self_times_ns(spans);
    let prove = spans
        .iter()
        .position(|s| s.kind == Kind::Phase && s.name == PROVE_PHASE)
        .unwrap_or_else(|| fail("traced round recorded no prove phase"));
    let prove_ns = spans[prove].dur_ns() as f64;

    // Per stage: host time and simulated kernel cycles, summed and per
    // proof that ran the stage.
    let stage_totals: Vec<(f64, f64, usize)> = STAGE_NAMES
        .iter()
        .map(|name| {
            let of_stage = spans
                .iter()
                .filter(|s| s.kind == Kind::Stage && s.name == *name);
            of_stage.fold((0.0, 0.0, 0), |(host, sim, n), s| {
                (
                    host + s.dur_ns() as f64,
                    sim + s.sim_cycles.unwrap_or(0) as f64,
                    n + 1,
                )
            })
        })
        .collect();
    let host_sum: f64 = stage_totals.iter().map(|t| t.0).sum();
    let sim_sum: f64 = stage_totals.iter().map(|t| t.1).sum();
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let mut divergence = 0.0f64;
    for (name, &(host, sim, n)) in STAGE_NAMES.iter().zip(&stage_totals) {
        let per = |total: f64| total / n.max(1) as f64;
        push(
            out,
            &format!("zkp.stage.{name}.host_ms_per_proof"),
            per(host) / 1e6,
        );
        push(
            out,
            &format!("zkp.stage.{name}.host_share"),
            share(host, prove_ns),
        );
        push(
            out,
            &format!("zkp.stage.{name}.sim_cycles_per_proof"),
            per(sim),
        );
        push(
            out,
            &format!("zkp.stage.{name}.sim_share"),
            share(sim, sim_sum),
        );
        // Both shares over the stages alone, so engine overhead on the
        // host side does not read as cost-model drift.
        divergence = divergence.max((share(host, host_sum) - share(sim, sim_sum)).abs());
    }
    push(out, "zkp.model_host_divergence", divergence);

    for backend in BACKEND_NAMES {
        let name = format!("verify.{backend}");
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.kind == Kind::Verify && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        let mean = durations.iter().sum::<f64>() / durations.len().max(1) as f64;
        push(out, &format!("zkp.verify_ms.{backend}"), mean);
    }

    // The prove phase's self time is everything between the stage calls:
    // engine, scheduler, service front, simulator, metrics.
    push(
        out,
        "pipeline.engine_overhead_share",
        share(own[prove] as f64, prove_ns),
    );

    // Stage balance on the simulated clock: slowest stage's mean kernel
    // over the mean of all stages that ran (1 = balanced).
    let per_stage_sim: Vec<f64> = stage_totals
        .iter()
        .filter(|t| t.2 > 0)
        .map(|t| t.1 / t.2 as f64)
        .collect();
    let mean_sim = per_stage_sim.iter().sum::<f64>() / per_stage_sim.len().max(1) as f64;
    let max_sim = per_stage_sim.iter().copied().fold(0.0, f64::max);
    push(out, "pipeline.stage_imbalance", share(max_sim, mean_sim));
    let stage_stats = || round.device_stats.iter().flat_map(|d| &d.stage_stats);
    let stalled: u64 = stage_stats()
        .map(|s| s.imbalance_stall_cycles + s.memory_stall_cycles)
        .sum();
    let occupied: u64 = stage_stats().map(|s| s.occupied_cycles).sum();
    push(
        out,
        "pipeline.stall_cycles_share",
        share(stalled as f64, occupied as f64),
    );

    // Device balance: busiest device's cycles over the mean of the
    // devices that ran work.
    let device_cycles: Vec<f64> = round
        .device_stats
        .iter()
        .filter(|d| d.tasks > 0)
        .map(|d| d.total_cycles as f64)
        .collect();
    let mean_device = device_cycles.iter().sum::<f64>() / device_cycles.len().max(1) as f64;
    let max_device = device_cycles.iter().copied().fold(0.0, f64::max);
    push(
        out,
        "pipeline.sched.imbalance",
        share(max_device, mean_device),
    );

    let service = round.service.clone().unwrap_or_default();
    push(
        out,
        "pipeline.service.queue_wait_p50_cycles",
        service.queue_wait_p50_cycles as f64,
    );
    push(
        out,
        "pipeline.service.rejected_queue_full",
        service.rejected_queue_full as f64,
    );
    push(
        out,
        "pipeline.service.rejected_saturated",
        service.rejected_saturated as f64,
    );
    for (class, p99) in crate::spec::CLASS_NAMES
        .iter()
        .zip(service.latency_p99_cycles)
    {
        push(
            out,
            &format!("pipeline.service.latency_p99_cycles.{class}"),
            p99 as f64,
        );
    }

    let completed = round.completed.max(1) as f64;
    let sum = |f: fn(&batchzk_pipeline::RunStats) -> u64| -> f64 {
        round.device_stats.iter().map(f).sum::<u64>() as f64
    };
    push(out, "gpu-sim.steps", round.devices.steps as f64);
    push(
        out,
        "gpu-sim.kernel_launches",
        round.devices.kernel_launches as f64,
    );
    let active: Vec<f64> = round
        .device_stats
        .iter()
        .filter(|d| d.tasks > 0)
        .map(|d| d.mean_utilization)
        .collect();
    push(
        out,
        "gpu-sim.mean_utilization",
        active.iter().sum::<f64>() / active.len().max(1) as f64,
    );
    push(
        out,
        "gpu-sim.h2d_bytes_per_proof",
        sum(|d| d.h2d_bytes) / completed,
    );
    push(
        out,
        "gpu-sim.d2h_bytes_per_proof",
        sum(|d| d.d2h_bytes) / completed,
    );
}
