//! Prints which body the lane hooks dispatch to on this host and the host
//! cost of thirteen of them, through the scalar bodies and through the
//! dispatched hooks:
//!
//! - [`Field::fold_halves`] (one sum-check fold of a table's halves) and
//!   [`Field::scale`] (a table scaled in place), in ns per entry written,
//!   on tables of 2^10, 2^14 and 2^20 entries: the `service-mixed`,
//!   `spartan-batch` and `vml-vgg16` shapes;
//! - [`Field::combine`] over two terms (matrix-bind's γ-combination) and
//!   [`Field::eq_double`] (one `eq` level doubled), in ns per entry
//!   written, on the same tables;
//! - [`Field::write_canonical`] (a Merkle leaf's column or a transcript
//!   message), in ns per element, on the same tables;
//! - [`Field::dot`] (a PCS row combination or column test), in ns per
//!   term, at 256 terms (`orion-batch`'s columns), 2^14 and 2^20;
//! - [`Field::product_round_sums`] (one round's sums of a sum-check after
//!   its first), in ns per pair, on the same tables: weighted with a third
//!   table (sum-check #1's `eq·(a·c − d)`) and unweighted (sum-check #2's
//!   `f·g`);
//! - [`Field::eq_split`] (an `eq` level split from the one before),
//!   [`Field::narrow_into`] (narrow integers recovered from elements that
//!   are their images), [`Field::dot_small`] (a dot against integers) and
//!   [`Field::fold_small`] (a fold of integer halves), in ns per entry, on
//!   the same tables, the integers as a quantized assignment holds them;
//! - [`Field::batch_invert`] in ns per element and [`Field::affine_chords`]
//!   in ns per pair, over `Fq` at 2^7, 2^10 and 2^13: the sizes of an MSM's
//!   batch-affine rounds (`curve::msm`).
//!
//! It is the table to hold against the parent commit's before touching any
//! of these bodies (build it on both commits, copy the parent's binary out
//! of `target/release/examples` and alternate the two; a shared host has
//! slow phases lasting minutes).
//!
//! With `--check` it first runs both bodies of all thirteen hooks on the
//! same random tables and exits non-zero if any output differs.
//!
//! ```text
//! cargo run --release --offline -p batchzk-field --example lanes [-- --check]
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use batchzk_field::{
    affine_chords_scalar, batch_invert_scalar, combine_scalar, dot_small_scalar, eq_double_scalar,
    eq_split_scalar, field_from_i64, fold_halves_scalar, fold_small_scalar, lane_kernel,
    narrow_into_scalar, product_round_sums_scalar, scale_scalar, write_canonical_scalar, Field, Fq,
    Fr, SplitMix64,
};

const LOG_SIZES: [u32; 3] = [10, 14, 20];
const DOT_LOG_SIZES: [u32; 3] = [8, 14, 20];
const ROUND_LOG_SIZES: [u32; 3] = [7, 10, 13];

/// Fastest of `runs` passes of `f` — what the code costs on a quiet core.
fn fastest(runs: usize, mut f: impl FnMut()) -> Duration {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("runs > 0")
}

/// Enough passes for ~2^22 entries per cell, and at least five.
fn runs(log_size: u32) -> usize {
    (1usize << 22 >> log_size).max(5)
}

fn per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n as f64
}

/// The default body of [`Field::dot`].
fn dot_scalar(a: &[Fr], b: &[Fr]) -> Fr {
    Fr::dot_pairs(a.iter().copied().zip(b.iter().copied()))
}

/// The arguments of [`Field::product_round_sums`] over one table's halves
/// as `x`, the same halves rotated by one entry as `y` and rotated by two as
/// `z`, and the first half of the rotation by three as the weights. With
/// `weighted` unset, `z` and the weights are left out.
type RoundSumArgs<'a> = (
    [&'a [Fr]; 2],
    [&'a [Fr]; 2],
    Option<[&'a [Fr]; 2]>,
    Option<&'a [Fr]>,
);

fn round_sum_args<'a>(
    table: &'a [Fr],
    rotated: &'a [Vec<Fr>; 3],
    weighted: bool,
) -> RoundSumArgs<'a> {
    let half = table.len() / 2;
    let halves = |t: &'a [Fr]| [&t[..half], &t[half..]];
    let weights = &rotated[2][..half];
    (
        halves(table),
        halves(&rotated[0]),
        weighted.then(|| halves(&rotated[1])),
        weighted.then_some(weights),
    )
}

/// `table` rotated left by one, two and three entries.
fn rotations<F: Field>(table: &[F]) -> [Vec<F>; 3] {
    core::array::from_fn(|i| {
        let mut t = table.to_vec();
        t.rotate_left(i + 1);
        t
    })
}

/// A body of [`Field::affine_chords`].
type ChordBody<F> = fn(&[F], &[F], &[F], [&mut [F]; 2]);

/// The chord body `f` over one table: `table` as the numerators and `p_y`,
/// its rotations by one, two and three as the inverses, `q_x` and `p_x`.
/// Returns the sums `p + q`.
fn chords<F: Field>(f: ChordBody<F>, table: &[F], rotated: &[Vec<F>; 3]) -> (Vec<F>, Vec<F>) {
    let (mut x, mut y) = (rotated[2].clone(), table.to_vec());
    f(table, &rotated[0], &rotated[1], [&mut x, &mut y]);
    (x, y)
}

/// Whether both bodies of [`Field::batch_invert`] and
/// [`Field::affine_chords`] agree on one random table.
fn rounds_agree<F: Field>(table: &[F]) -> bool {
    let rotated = rotations(table);
    let (mut hook, mut scalar) = (table.to_vec(), table.to_vec());
    F::batch_invert(&mut hook);
    batch_invert_scalar(&mut scalar);
    hook == scalar
        && chords(F::affine_chords, table, &rotated)
            == chords(affine_chords_scalar, table, &rotated)
}

/// Integers as a quantized assignment holds them, one per entry of
/// `table`: most 0 or 1, the rest below 2^10 either side of zero.
fn integers(table: &[Fr]) -> Vec<i32> {
    let byte = |x: &Fr| i32::from(x.to_bytes()[0]);
    table
        .iter()
        .map(|x| match byte(x) % 4 {
            0 | 1 => byte(x) % 2,
            _ => (byte(x) - 128) * 7,
        })
        .collect()
}

/// Whether the field × integer hooks, the narrow recovery and `eq_split`
/// agree with their scalar bodies on one random table.
fn small_hooks_agree(table: &[Fr], r: Fr) -> bool {
    let ints = integers(table);
    let wide: Vec<i64> = ints.iter().map(|&k| i64::from(k) << 20).collect();
    let images: Vec<Fr> = ints.iter().map(|&k| field_from_i64(k.into())).collect();
    let (mut hook, mut scalar) = (vec![0; ints.len()], vec![1; ints.len()]);
    let narrow = Fr::narrow_into(&images, &mut hook)
        && narrow_into_scalar(&images, &mut scalar)
        && hook == ints
        && scalar == ints
        && !Fr::narrow_into(table, &mut hook);
    let half = table.len() / 2;
    let (lo, hi) = ints.split_at(half);
    let (mut hook, mut scalar) = (table[..half].to_vec(), table[half..].to_vec());
    Fr::fold_small(&mut hook, lo, hi, r);
    fold_small_scalar(&mut scalar, lo, hi, r);
    let (src, mut split) = (&table[half..], [(); 4].map(|()| table[..half].to_vec()));
    let [hook_lo, hook_hi, scalar_lo, scalar_hi] = &mut split;
    Fr::eq_split(src, hook_lo, hook_hi, r);
    eq_split_scalar(src, scalar_lo, scalar_hi, r);
    narrow
        && hook == scalar
        && (hook_lo, hook_hi) == (scalar_lo, scalar_hi)
        && Fr::dot_small(table, &wide) == dot_small_scalar(table, &wide)
        && Fr::dot_small(table, &ints) == dot_small_scalar(table, &ints)
}

/// Whether the hooks and the scalar bodies agree on one random table.
fn agree(table: &[Fr], r: Fr) -> bool {
    let rotated = rotations(table);
    let round_sums = [false, true].iter().all(|&weighted| {
        let (x, y, z, w) = round_sum_args(table, &rotated, weighted);
        [false, true].iter().all(|&direct| {
            Fr::product_round_sums(x, y, z, w, direct)
                == product_round_sums_scalar(x, y, z, w, direct)
        })
    });
    let (lo, hi) = table.split_at(table.len() / 2);
    let (mut hook, mut scalar) = (lo.to_vec(), lo.to_vec());
    Fr::fold_halves(&mut hook, hi, r);
    fold_halves_scalar(&mut scalar, hi, r);
    let fold = hook == scalar;
    let (mut hook, mut scalar) = (table.to_vec(), table.to_vec());
    Fr::scale(&mut hook, r);
    scale_scalar(&mut scalar, r);
    let scale = hook == scalar;
    let terms = [(&rotated[0][..], r), (&rotated[1][..], -r)];
    let (mut hook, mut scalar) = (table.to_vec(), table.to_vec());
    Fr::combine(&mut hook, r.square(), terms);
    combine_scalar(&mut scalar, r.square(), terms);
    let combine = hook == scalar;
    let (mut hook, mut scalar) = (table.to_vec(), table.to_vec());
    let (mut hook_hi, mut scalar_hi) = (lo.to_vec(), hi.to_vec());
    Fr::eq_double(&mut hook, &mut hook_hi, r);
    eq_double_scalar(&mut scalar, &mut scalar_hi, r);
    let eq_double = (hook, hook_hi) == (scalar, scalar_hi);
    let (mut hook, mut scalar) = (vec![0; table.len() * 32], vec![1; table.len() * 32]);
    Fr::write_canonical(table, &mut hook);
    write_canonical_scalar(table, &mut scalar);
    fold && scale
        && combine
        && eq_double
        && round_sums
        && hook == scalar
        && Fr::dot(lo, hi) == dot_scalar(lo, hi)
        && rounds_agree(table)
        && small_hooks_agree(table, r)
}

fn main() -> ExitCode {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let mut rng = SplitMix64::seed_from_u64(27);
    let r = Fr::random(&mut rng);
    let tables: Vec<Vec<Fr>> = LOG_SIZES
        .iter()
        .map(|&k| (0..1usize << k).map(|_| Fr::random(&mut rng)).collect())
        .collect();
    let round_tables: Vec<Vec<Fq>> = ROUND_LOG_SIZES
        .iter()
        .map(|&k| (0..1usize << k).map(|_| Fq::random(&mut rng)).collect())
        .collect();

    println!(
        "`fold_halves` / `scale` / `combine` / `eq_double` / `eq_split` / `write_canonical` / \
         `dot` / `product_round_sums` / `batch_invert` / `affine_chords` / `narrow_into` / \
         `dot_small` / `fold_small` dispatch to: {} (whole blocks of 8, rows of 32 for \
         `batch_invert`; the tail runs the scalar body)",
        lane_kernel()
    );
    if check {
        for (k, table) in LOG_SIZES.iter().zip(&tables) {
            if !agree(table, r) {
                eprintln!("2^{k}: the dispatched hooks and the scalar bodies disagree");
                return ExitCode::FAILURE;
            }
        }
        for (k, table) in ROUND_LOG_SIZES.iter().zip(&round_tables) {
            if !rounds_agree(table) {
                eprintln!("Fq 2^{k}: the dispatched hooks and the scalar bodies disagree");
                return ExitCode::FAILURE;
            }
        }
        println!(
            "check: hooks ≡ scalar bodies at 2^10, 2^14 and 2^20 (Fr), and \
             `batch_invert` / `affine_chords` at 2^7, 2^10 and 2^13 (Fq)"
        );
    }
    println!();
    println!(
        "| table | fold scalar ns | fold hook ns | scale scalar ns | scale hook ns \
         | write_canonical scalar ns | write_canonical hook ns |"
    );
    println!("|---|---|---|---|---|---|---|");
    for (&k, table) in LOG_SIZES.iter().zip(&tables) {
        let runs = runs(k);
        let half = table.len() / 2;
        let (mut lo, hi) = (table[..half].to_vec(), &table[half..]);
        let mut xs = table.clone();
        let mut bytes = vec![0; table.len() * 32];
        let fold_scalar = fastest(runs, || fold_halves_scalar(black_box(&mut lo), hi, r));
        let fold_hook = fastest(runs, || Fr::fold_halves(black_box(&mut lo), hi, r));
        let scale_scalar_ns = fastest(runs, || scale_scalar(black_box(&mut xs), r));
        let scale_hook = fastest(runs, || Fr::scale(black_box(&mut xs), r));
        let bytes_scalar = fastest(runs, || {
            write_canonical_scalar(table, black_box(&mut bytes))
        });
        let bytes_hook = fastest(runs, || Fr::write_canonical(table, black_box(&mut bytes)));
        println!(
            "| 2^{k} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
            per(fold_scalar, half),
            per(fold_hook, half),
            per(scale_scalar_ns, xs.len()),
            per(scale_hook, xs.len()),
            per(bytes_scalar, table.len()),
            per(bytes_hook, table.len()),
        );
    }
    println!();
    println!(
        "| table | combine scalar ns | combine hook ns | eq_double scalar ns | eq_double hook ns |"
    );
    println!("|---|---|---|---|---|");
    for (&k, table) in LOG_SIZES.iter().zip(&tables) {
        let runs = runs(k);
        let rotated = rotations(table);
        let terms = [(&rotated[0][..], r), (&rotated[1][..], -r)];
        let mut xs = table.clone();
        let combine_scalar_ns = fastest(runs, || combine_scalar(black_box(&mut xs), r, terms));
        let combine_hook = fastest(runs, || Fr::combine(black_box(&mut xs), r, terms));
        let half = table.len() / 2;
        let (lo, hi) = xs.split_at_mut(half);
        let eq_scalar = fastest(runs, || eq_double_scalar(black_box(&mut *lo), &mut *hi, r));
        let eq_hook = fastest(runs, || Fr::eq_double(black_box(&mut *lo), &mut *hi, r));
        println!(
            "| 2^{k} | {:.2} | {:.2} | {:.2} | {:.2} |",
            per(combine_scalar_ns, table.len()),
            per(combine_hook, table.len()),
            per(eq_scalar, table.len()),
            per(eq_hook, table.len()),
        );
    }
    println!();
    println!(
        "| table | eq_split scalar ns | eq_split hook ns | narrow_into scalar ns \
         | narrow_into hook ns | dot_small scalar ns | dot_small hook ns \
         | fold_small scalar ns | fold_small hook ns |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (&k, table) in LOG_SIZES.iter().zip(&tables) {
        let runs = runs(k);
        let ints = integers(table);
        let wide: Vec<i64> = ints.iter().map(|&k| k.into()).collect();
        let images: Vec<Fr> = ints.iter().map(|&k| field_from_i64(k.into())).collect();
        let half = table.len() / 2;
        let (src, mut xs) = (&table[..half], table[half..].to_vec());
        let mut out = vec![0; table.len()];
        let (mut lo, mut hi) = (src.to_vec(), src.to_vec());
        let times = [
            fastest(runs, || {
                eq_split_scalar(src, black_box(&mut lo), &mut hi, r)
            }),
            fastest(runs, || Fr::eq_split(src, black_box(&mut lo), &mut hi, r)),
            fastest(runs, || {
                _ = narrow_into_scalar(black_box(&images), &mut out)
            }),
            fastest(runs, || _ = Fr::narrow_into(black_box(&images), &mut out)),
            fastest(runs, || {
                _ = black_box(dot_small_scalar(black_box(table), &wide))
            }),
            fastest(runs, || {
                _ = black_box(Fr::dot_small(black_box(table), &wide))
            }),
            fastest(runs, || {
                fold_small_scalar(black_box(&mut xs), &ints[..half], &ints[half..], r)
            }),
            fastest(runs, || {
                Fr::fold_small(black_box(&mut xs), &ints[..half], &ints[half..], r)
            }),
        ];
        let entries = [table.len(), table.len(), table.len(), half];
        let cells: Vec<String> = times
            .iter()
            .enumerate()
            .map(|(i, &d)| format!("{:.2}", per(d, entries[i / 2])))
            .collect();
        println!("| 2^{k} | {} |", cells.join(" | "));
    }
    println!();
    println!("| dot terms | dot scalar ns | dot hook ns |");
    println!("|---|---|---|");
    let table = tables.last().expect("three tables");
    let mut rotated = table.clone();
    rotated.rotate_left(1);
    for k in DOT_LOG_SIZES {
        let runs = runs(k);
        let (a, b) = (&table[..1 << k], &rotated[..1 << k]);
        let scalar = fastest(runs, || {
            black_box(dot_scalar(black_box(a), b));
        });
        let hook = fastest(runs, || {
            black_box(Fr::dot(black_box(a), b));
        });
        println!(
            "| 2^{k} | {:.2} | {:.2} |",
            per(scalar, a.len()),
            per(hook, a.len())
        );
    }
    println!();
    println!(
        "| table | weighted round sums scalar ns | weighted hook ns \
         | unweighted scalar ns | unweighted hook ns |"
    );
    println!("|---|---|---|---|---|");
    for (&k, table) in LOG_SIZES.iter().zip(&tables) {
        let runs = runs(k);
        let rotated = rotations(table);
        let cells = [true, false].map(|weighted| {
            let (x, y, z, w) = round_sum_args(table, &rotated, weighted);
            let scalar = fastest(runs, || {
                black_box(product_round_sums_scalar(black_box(x), y, z, w, false));
            });
            let hook = fastest(runs, || {
                black_box(Fr::product_round_sums(black_box(x), y, z, w, false));
            });
            [scalar, hook].map(|d| per(d, table.len() / 2))
        });
        println!(
            "| 2^{k} | {:.2} | {:.2} | {:.2} | {:.2} |",
            cells[0][0], cells[0][1], cells[1][0], cells[1][1]
        );
    }
    println!();
    println!(
        "| Fq round | batch_invert scalar ns | batch_invert hook ns \
         | chords scalar ns | chords hook ns |"
    );
    println!("|---|---|---|---|---|");
    for (&k, table) in ROUND_LOG_SIZES.iter().zip(&round_tables) {
        let runs = runs(k);
        let rotated = rotations(table);
        let mut xs = table.clone();
        let invert_scalar = fastest(runs, || batch_invert_scalar(black_box(&mut xs)));
        let invert_hook = fastest(runs, || Fq::batch_invert(black_box(&mut xs)));
        let (mut px, mut py) = (rotated[2].clone(), table.clone());
        let (num, inv, qx) = (&table[..], &rotated[0][..], &rotated[1][..]);
        let chords_scalar = fastest(runs, || {
            affine_chords_scalar(num, inv, qx, [black_box(&mut px), &mut py]);
        });
        let chords_hook = fastest(runs, || {
            Fq::affine_chords(num, inv, qx, [black_box(&mut px), &mut py]);
        });
        println!(
            "| 2^{k} | {:.2} | {:.2} | {:.2} | {:.2} |",
            per(invert_scalar, table.len()),
            per(invert_hook, table.len()),
            per(chords_scalar, table.len()),
            per(chords_hook, table.len()),
        );
    }
    ExitCode::SUCCESS
}
