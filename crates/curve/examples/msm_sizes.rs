//! Prints the host cost of [`batchzk_curve::msm`] and of
//! [`batchzk_curve::MsmBases`] over the same bases in ns per point for
//! `n = 2^4 … 2^16`, with what the table costs to build and to keep — the
//! table to hold against the parent commit's before moving a rung of
//! either window ladder or the byte budget in `msm.rs` (copy this file
//! into a checkout of the other commit; no size may get slower).
//!
//! ```text
//! cargo run --release --offline -p batchzk-curve --example msm_sizes
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use batchzk_curve::{msm, G1Affine, G1Projective, MsmBases};
use batchzk_field::{Field, Fr, SplitMix64};

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed())
}

fn main() {
    let max = 1usize << 16;
    let mut rng = SplitMix64::seed_from_u64(16);
    let points: Vec<G1Affine> = (0..max as u64).map(G1Affine::from_counter).collect();
    let scalars: Vec<Fr> = (0..max).map(|_| Fr::random(&mut rng)).collect();

    println!("| n | msm ms | msm ns per point | table ns per point | table build ms | table KiB |");
    println!("|---|---|---|---|---|---|");
    for log_n in 4..=16 {
        let n = 1usize << log_n;
        let (points, scalars) = (black_box(&points[..n]), black_box(&scalars[..n]));
        let (bases, build) = timed(|| MsmBases::new(points));
        // About 2^17 points a size and path, never fewer than three runs;
        // the fastest run is what the code costs on a quiet core. One path
        // after the other, so neither runs on the other's cache.
        let runs = (max * 2 / n).clamp(3, 64);
        let fastest = |f: &dyn Fn() -> G1Projective| {
            (0..runs)
                .map(|_| timed(f).1)
                .min()
                .expect("at least three runs")
        };
        let variable = fastest(&|| msm(points, scalars));
        let fixed = fastest(&|| bases.msm(scalars));
        let per_point = |d: Duration| d.as_secs_f64() * 1e9 / n as f64;
        println!(
            "| 2^{log_n} | {:.3} | {:.0} | {:.0} | {:.1} | {} |",
            variable.as_secs_f64() * 1e3,
            per_point(variable),
            per_point(fixed),
            build.as_secs_f64() * 1e3,
            bases.table_bytes() / 1024
        );
    }
}
