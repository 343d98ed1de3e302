//! Per-phase host milliseconds of the commitment path at the sizes the
//! repo's workloads use: k = 10 and 13 (service-mixed, tests), 16
//! (orion-batch), 19 (the 512 × 1024 witness matrix of vml-vgg16), 20.
//!
//! `cargo run --release -p batchzk-pcs --example pcs_phases`. Each phase is
//! the fastest of its repetitions; the key (matrix shape + expander
//! encoder) is built once per size, outside the per-proof phases, as the
//! backends do.

use std::hint::black_box;
use std::time::Instant;

use batchzk_field::{Field, Fr, SplitMix64};
use batchzk_hash::Transcript;
use batchzk_pcs::{commit_merkle, open_combine, open_queries, PcsKey, PcsParams};

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let params = PcsParams::default();
    println!("| k | rows x cols | codeword | key | encode | merkle | combine | queries | verify | prove total |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for k in [10usize, 13, 16, 19, 20] {
        let mut rng = SplitMix64::seed_from_u64(k as u64);
        let evals: Vec<Fr> = (0..1usize << k).map(|_| Fr::random(&mut rng)).collect();
        let point: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
        let (key, key_ms) = timed(|| PcsKey::<Fr>::new(params, k));
        // Fewer repetitions as the table grows: ~2^22 elements per size.
        let reps = ((1usize << 22) >> k).clamp(3, 64);
        let mut best = [f64::MAX; 5];
        for _ in 0..reps {
            let (encoded, encode) = timed(|| key.commit_encode(black_box(&evals)));
            let ((commitment, data), merkle) = timed(|| commit_merkle(encoded));
            let mut transcript = Transcript::new(b"pcs-phases");
            transcript.absorb_digest(b"root", &commitment.root);
            let mut verifier_transcript = transcript.clone();
            let (rows, combine) = timed(|| open_combine(&data, &point, &mut transcript));
            let ((value, opening), queries) =
                timed(|| open_queries(key.pcs(), &data, rows, &mut transcript));
            let (ok, verify) = timed(|| {
                key.verify(
                    &commitment,
                    &point,
                    value,
                    &opening,
                    &mut verifier_transcript,
                )
            });
            assert!(ok, "k={k}: honest opening must verify");
            for (slot, ms) in best
                .iter_mut()
                .zip([encode, merkle, combine, queries, verify])
            {
                *slot = slot.min(ms);
            }
        }
        let [encode, merkle, combine, queries, verify] = best;
        println!(
            "| {k} | {} x {} | {} | {key_ms:.2} | {encode:.2} | {merkle:.2} | {combine:.2} | {queries:.3} | {verify:.2} | {:.2} |",
            key.n_rows(),
            key.n_cols(),
            key.codeword_len(),
            encode + merkle + combine + queries,
        );
    }
}
