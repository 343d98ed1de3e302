//! Prints the host cost of [`batchzk_curve::msm`] in ns per point for
//! `n = 2^4 … 2^16` — the table to hold against the parent commit's
//! before moving a rung of the host window ladder in `msm.rs` (copy this
//! file into a checkout of the other commit; no size may get slower).
//!
//! ```text
//! cargo run --release --offline -p batchzk-curve --example msm_sizes
//! ```

use std::hint::black_box;
use std::time::Instant;

use batchzk_curve::{msm, G1Affine};
use batchzk_field::{Field, Fr, SplitMix64};

fn main() {
    let max = 1usize << 16;
    let mut rng = SplitMix64::seed_from_u64(16);
    let points: Vec<G1Affine> = (0..max as u64).map(G1Affine::from_counter).collect();
    let scalars: Vec<Fr> = (0..max).map(|_| Fr::random(&mut rng)).collect();

    println!("| n | ms per MSM | ns per point |");
    println!("|---|---|---|");
    for log_n in 4..=16 {
        let n = 1usize << log_n;
        // About 2^17 points a size, never fewer than three runs; the
        // fastest run is what the code costs on a quiet core.
        let runs = (max * 2 / n).clamp(3, 64);
        let best = (0..runs)
            .map(|_| {
                let start = Instant::now();
                black_box(msm(black_box(&points[..n]), black_box(&scalars[..n])));
                start.elapsed()
            })
            .min()
            .expect("at least three runs");
        println!(
            "| 2^{log_n} | {:.3} | {:.0} |",
            best.as_secs_f64() * 1e3,
            best.as_secs_f64() * 1e9 / n as f64
        );
    }
}
