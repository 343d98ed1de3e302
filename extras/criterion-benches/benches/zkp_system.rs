//! Criterion benchmarks of the full proof system: PCS commitment, the
//! single-shot prover, verification, and the pipelined batch prover on the
//! simulated GH200 — the arithmetic behind Tables 7, 8 and 11.

use std::sync::Arc;

use batchzk_field::{Fr, RngCore};
use batchzk_gpu_sim::{DeviceProfile, Gpu};
use batchzk_zkp::r1cs::synthetic_r1cs;
use batchzk_zkp::{PcsParams, SpartanBackend, pcs, prove, prove_batch_with, verify};
use criterion::{Criterion, black_box, criterion_group, criterion_main};
use batchzk_hash::Prg;

fn params() -> PcsParams {
    PcsParams {
        num_col_tests: 32,
        ..PcsParams::default()
    }
}

fn bench_pcs(c: &mut Criterion) {
    let mut group = c.benchmark_group("pcs");
    group.sample_size(10);
    let mut rng = Prg::seed_from_u64(1);
    for log in [10u32, 12] {
        let evals: Vec<Fr> = (0..1usize << log)
            .map(|_| Fr::from(rng.next_u64()))
            .collect();
        group.bench_function(format!("commit/2^{log}"), |bench| {
            bench.iter(|| pcs::commit(&params(), black_box(&evals)))
        });
    }
    group.finish();
}

fn bench_prove_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("snark");
    group.sample_size(10);
    for log in [10u32, 12] {
        let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1usize << log, 42);
        group.bench_function(format!("prove/2^{log}"), |bench| {
            bench.iter(|| prove(&params(), black_box(&r1cs), &inputs, &witness))
        });
        let proof = prove(&params(), &r1cs, &inputs, &witness);
        group.bench_function(format!("verify/2^{log}"), |bench| {
            bench.iter(|| assert!(verify(&params(), &r1cs, &inputs, black_box(&proof))))
        });
    }
    group.finish();
}

fn bench_batch_prover(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch");
    group.sample_size(10);
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(1 << 10, 42);
    let backend = SpartanBackend::new(Arc::new(r1cs), params());
    let instances: Vec<_> = (0..6).map(|_| (inputs.clone(), witness.clone())).collect();
    group.bench_function("prove_batch/6x2^10/gh200-sim", |bench| {
        bench.iter(|| {
            let mut gpu = Gpu::new(DeviceProfile::gh200());
            prove_batch_with(
                &mut gpu,
                &backend,
                black_box(instances.clone()),
                10_240,
                true,
            )
            .expect("fits")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pcs, bench_prove_verify, bench_batch_prover);
criterion_main!(benches);
