//! Prints which body [`Field::sparse_mul_lanes`] dispatches to on this host
//! and the host cost of one lane-term — one matrix coefficient times one of
//! `width` interleaved inputs — in ns, through the scalar body and through
//! [`SparseMatrix::mul_batch`] (the dispatched hook), at widths 1, 8, 32,
//! 128 and 256 over every expander matrix of a 256-column encoder:
//! `orion-batch`'s shape, which encodes 256 rows at width 256; the verifier
//! encodes at width 1. It is the table to hold against the parent commit's
//! before touching either body (build it on both commits, copy the parent's
//! binary out of `target/release/examples` and alternate the two; this host
//! has slow phases lasting minutes).
//!
//! ```text
//! cargo run --release --offline -p batchzk-encoder --example encode_lanes
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use batchzk_encoder::{Encoder, EncoderParams, SparseMatrix};
use batchzk_field::{lane_kernel, sparse_mul_lanes_scalar, Field, Fr, SplitMix64};

/// Message length: `orion-batch`'s 2^16-entry table is 256 × 256.
const COLUMNS: usize = 256;
const RUNS: usize = 50;

/// One matrix with an input and an output buffer at the current width.
struct Case<'a> {
    matrix: &'a SparseMatrix<Fr>,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Fr>,
    x: Vec<Fr>,
    out: Vec<Fr>,
}

impl<'a> Case<'a> {
    fn new(matrix: &'a SparseMatrix<Fr>, width: usize, rng: &mut SplitMix64) -> Self {
        let mut row_ptr = vec![0];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for i in 0..matrix.rows() {
            for (c, v) in matrix.row(i) {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            matrix,
            row_ptr,
            col_idx,
            values,
            x: (0..matrix.cols() * width)
                .map(|_| Fr::random(rng))
                .collect(),
            out: vec![Fr::ZERO; matrix.rows() * width],
        }
    }
}

/// Fastest of [`RUNS`] passes of `f` over every case — what the code costs
/// on a quiet core.
fn fastest(cases: &mut [Case], mut f: impl FnMut(&mut Case)) -> Duration {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            for case in cases.iter_mut() {
                f(black_box(case));
            }
            black_box(&cases);
            start.elapsed()
        })
        .min()
        .expect("RUNS > 0")
}

fn main() {
    let encoder = Encoder::<Fr>::new(COLUMNS, EncoderParams::default(), 0xBA7C42);
    let matrices: Vec<&SparseMatrix<Fr>> =
        encoder.levels().iter().flat_map(|l| [&l.a, &l.b]).collect();
    let mut rng = SplitMix64::seed_from_u64(25);

    println!(
        "`sparse_mul_lanes` dispatches to: {} at widths that are a multiple of 8, scalar otherwise",
        lane_kernel()
    );
    println!();
    println!("| width | lane-terms per pass | scalar body ns | mul_batch ns |");
    println!("|---|---|---|---|");
    for width in [1, 8, 32, 128, 256] {
        let mut cases: Vec<Case> = matrices
            .iter()
            .map(|m| Case::new(m, width, &mut rng))
            .collect();
        let lane_terms = (encoder.total_nnz() * width) as f64;
        let ns = |d: Duration| d.as_secs_f64() * 1e9 / lane_terms;
        let scalar = fastest(&mut cases, |c| {
            sparse_mul_lanes_scalar(width, &c.row_ptr, &c.col_idx, &c.values, &c.x, &mut c.out)
        });
        let batch = fastest(&mut cases, |c| c.matrix.mul_batch(width, &c.x, &mut c.out));
        println!(
            "| {width} | {lane_terms} | {:.2} | {:.2} |",
            ns(scalar),
            ns(batch)
        );
    }
}
