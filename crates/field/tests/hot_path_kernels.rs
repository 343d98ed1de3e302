//! Property tests for the hot-path kernels: the deferred-reduction dot
//! kernel against the multiply-then-add fold and the schoolbook-division
//! oracle, at the carry and term-count edges, the dispatched lane hooks
//! (sparse product, fold, scale, combination, `eq` doubling and splitting,
//! dot, canonical bytes, round sums, batch inversion, affine chords, the
//! narrow-integer recovery, the field × integer dot and fold, and the
//! signed sum of a sparse column's group) against their scalar bodies.
//!
//! These are the guarantees that let the rest of the workspace adopt the
//! fast paths without re-auditing: every kernel is bit-identical to the
//! schoolbook definition.

use batchzk_field::limb::{acc_mul_add, acc_reduce, mont_reduce, naive_mul_mod, sub_wide, WideAcc};
use batchzk_field::{
    affine_chords_scalar, batch_invert_scalar, combine_scalar, dot_small_scalar, eq_double_scalar,
    eq_split_scalar, field_from_i64, fold_halves_scalar, fold_small_scalar, lane_kernel,
    narrow_into_scalar, product_round_sums_scalar, scale_scalar, signed_sum_scalar,
    sparse_mul_lanes_scalar, write_canonical_scalar, Field, Fq, Fr, MontLimbs, RngCore, SplitMix64,
    NARROW_BOUND,
};

/// The documented reference for `dot_pairs`: multiply, then add, from zero.
fn fold<F: Field>(a: &[F], b: &[F]) -> F {
    a.iter().zip(b).fold(F::ZERO, |acc, (x, y)| acc + *x * *y)
}

/// Term counts around the accumulator's landmarks: empty, the first terms,
/// either side of 16 (where limb 8 first becomes non-zero at maximal
/// operands), and long enough that limb 8 holds thousands.
const LENGTHS: [usize; 9] = [0, 1, 2, 5, 6, 16, 17, 1_000, 70_000];

fn dot_matches_fold<F: Field>(seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    for n in LENGTHS {
        // All operands p − 1: every product is the largest possible, so
        // the carry into limb 8 is maximal for the term count.
        let top = vec![-F::ONE; n];
        assert_eq!(
            F::dot(&top, &top).to_bytes(),
            fold(&top, &top).to_bytes(),
            "p-1, n={n}"
        );
        let zero = vec![F::ZERO; n];
        assert_eq!(F::dot(&zero, &top), F::ZERO, "zero, n={n}");
        let a: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
        let b: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
        // Compared through the canonical byte encoding, so a
        // non-canonical representative would surface.
        assert_eq!(
            F::dot(&a, &b).to_bytes(),
            fold(&a, &b).to_bytes(),
            "random, n={n}"
        );
    }
}

#[test]
fn fr_dot_is_bit_identical_to_multiply_then_add() {
    dot_matches_fold::<Fr>(0xB04);
}

#[test]
fn fq_dot_is_bit_identical_to_multiply_then_add() {
    dot_matches_fold::<Fq>(0xB05);
}

#[test]
fn acc_reduce_is_canonical_at_the_accumulator_ceiling() {
    // An accumulator no dot product of representable length reaches —
    // every limb, the overflow limb included, at its maximum — still
    // reduces to a canonical element, congruent to the limb-wise value:
    // acc = Σ limbᵢ·2^(64i), reduced = acc · 2^-256.
    let acc: WideAcc = [u64::MAX; 9];
    let got = Fr::from_mont_limbs_unchecked(acc_reduce(&acc, &Fr::P, Fr::NEG_INV, &Fr::R2));
    assert_eq!(Fr::from_bytes(&got.to_bytes()), Some(got), "canonical");
    // As field elements: a Montgomery-form x stands for x·2^-256, so
    // from_mont_limbs_unchecked(acc·2^-256) = Σ limbᵢ·2^(64i)·2^-512 in value.
    let two64 = Fr::from(u64::MAX) + Fr::ONE;
    let mut value = Fr::ZERO;
    for limb in acc.iter().rev() {
        value = value * two64 + Fr::from(*limb);
    }
    // R's canonical limbs are 2^256 mod p.
    let r_inv = (two64 * two64 * two64 * two64)
        .inverse()
        .expect("R is a unit");
    assert_eq!(got, value * r_inv * r_inv);
}

#[test]
fn accumulate_then_reduce_matches_division_oracle() {
    // One term: acc_reduce(a·b) = a·b·2^-256 mod p; multiplying back by R
    // recovers a·b mod p, which the schoolbook + long-division oracle —
    // sharing no code with the kernel — checks.
    let mut rng = SplitMix64::seed_from_u64(0xB01);
    for _ in 0..100 {
        let a = Fr::random(&mut rng).mont_limbs();
        let b = Fr::random(&mut rng).mont_limbs();
        let mut acc = WideAcc::default();
        acc_mul_add(&mut acc, &a, &b);
        let mont = acc_reduce(&acc, &Fr::P, Fr::NEG_INV, &Fr::R2);
        assert_eq!(
            naive_mul_mod(&mont, &Fr::R, &Fr::P),
            naive_mul_mod(&a, &b, &Fr::P)
        );
    }
}

#[test]
fn to_bytes_is_the_reduction_of_the_stored_limbs() {
    // `to_canonical_limbs` is `mont_reduce` of the stored limbs; it must
    // agree with multiplying by the canonical 1 and with the oracle.
    let mut rng = SplitMix64::seed_from_u64(0xB02);
    let mut samples = vec![Fr::ZERO, Fr::ONE, -Fr::ONE];
    samples.extend((0..100).map(|_| Fr::random(&mut rng)));
    for x in samples {
        let m = x.mont_limbs();
        let canonical = x.to_canonical_limbs();
        assert_eq!(
            canonical,
            mont_reduce(&[m[0], m[1], m[2], m[3], 0, 0, 0, 0], &Fr::P, Fr::NEG_INV)
        );
        assert_eq!(naive_mul_mod(&canonical, &Fr::R, &Fr::P), m);
        let bytes: Vec<u8> = canonical.iter().flat_map(|l| l.to_le_bytes()).collect();
        assert_eq!(
            Fr::from_bytes(&bytes.try_into().expect("32 bytes")),
            Some(x)
        );
    }
}

/// `Field::sparse_mul_lanes` ≡ its scalar body on random CSR matrices:
/// rows of every degree the kernel takes (1 – 63, both ends included) and
/// one above its bound, which the kernel hands to the scalar body. Widths
/// that are multiples of eight run the kernel on an IFMA host; 1, 3 and 9
/// fall back. Operands are random, all Montgomery limbs `p − 1` (the
/// largest column sums and the largest pre-subtraction result), and zero.
fn sparse_lanes_match_scalar<F: MontLimbs>(seed: u64) {
    if lane_kernel() == "scalar" {
        println!("avx512ifma absent: scalar only");
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for width in [1usize, 3, 8, 9, 16, 24, 64, 256] {
        let rows = if width == 256 { 8 } else { 40 };
        let cols = rng.gen_range(1..100);
        let mut degrees: Vec<usize> = (0..rows - 3).map(|_| rng.gen_range(1..64)).collect();
        degrees.extend([1, 63, rng.gen_range(64..200)]);
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for d in degrees {
            col_idx.extend((0..d).map(|_| rng.gen_range(0..cols)));
            row_ptr.push(col_idx.len());
        }
        let nnz = col_idx.len();
        let random = |rng: &mut SplitMix64, n| (0..n).map(|_| F::random(rng)).collect::<Vec<F>>();
        let operands = [
            (
                "random",
                random(&mut rng, nnz),
                random(&mut rng, cols * width),
            ),
            ("p-1", vec![top; nnz], vec![top; cols * width]),
            ("zero", random(&mut rng, nnz), vec![F::ZERO; cols * width]),
        ];
        for (name, values, x) in operands {
            let mut got = vec![F::ONE; rows * width];
            F::sparse_mul_lanes(width, &row_ptr, &col_idx, &values, &x, &mut got);
            let mut expect = vec![F::ZERO; rows * width];
            sparse_mul_lanes_scalar(width, &row_ptr, &col_idx, &values, &x, &mut expect);
            assert_eq!(got, expect, "{name}, width {width}");
        }
    }
}

#[test]
fn fr_sparse_lanes_are_bit_identical_to_the_scalar_body() {
    sparse_lanes_match_scalar::<Fr>(0xB06);
}

#[test]
fn fq_sparse_lanes_are_bit_identical_to_the_scalar_body() {
    sparse_lanes_match_scalar::<Fq>(0xB07);
}

/// `Field::fold_halves` and `Field::scale` ≡ their scalar bodies at lengths
/// around the 8-element block (the kernel takes whole blocks, the scalar
/// body the tail), with operands random, all Montgomery limbs `p − 1` and
/// zero, and coefficients 0, 1, −1, limbs `p − 1` and random.
fn fold_and_scale_match_scalar<F: MontLimbs>(seed: u64) {
    if lane_kernel() == "scalar" {
        println!("avx512ifma absent: scalar only");
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for len in [0usize, 1, 7, 8, 9, 15, 16, 24, 1_027] {
        let random = |rng: &mut SplitMix64| (0..len).map(|_| F::random(rng)).collect::<Vec<F>>();
        let operands = [
            ("random", random(&mut rng)),
            ("p-1", vec![top; len]),
            ("zero", vec![F::ZERO; len]),
        ];
        let coeffs = [F::ZERO, F::ONE, -F::ONE, top, F::random(&mut rng)];
        for ((lo_name, lo), (hi_name, hi)) in operands
            .iter()
            .flat_map(|a| operands.iter().map(move |b| (a, b)))
        {
            for (k, &r) in coeffs.iter().enumerate() {
                let case = format!("len {len}, lo {lo_name}, hi {hi_name}, coefficient {k}");
                let (mut got, mut expect) = (lo.clone(), lo.clone());
                F::fold_halves(&mut got, hi, r);
                fold_halves_scalar(&mut expect, hi, r);
                assert_eq!(got, expect, "fold: {case}");
                let (mut got, mut expect) = (hi.clone(), hi.clone());
                F::scale(&mut got, r);
                scale_scalar(&mut expect, r);
                assert_eq!(got, expect, "scale: {case}");
            }
        }
    }
}

#[test]
fn fr_fold_and_scale_are_bit_identical_to_the_scalar_bodies() {
    fold_and_scale_match_scalar::<Fr>(0xB08);
}

#[test]
fn fq_fold_and_scale_are_bit_identical_to_the_scalar_bodies() {
    fold_and_scale_match_scalar::<Fq>(0xB09);
}

#[test]
#[should_panic(expected = "differ in length")]
fn fold_rejects_halves_of_different_lengths() {
    Fr::fold_halves(&mut [Fr::ONE; 16], &[Fr::ONE; 17], Fr::ONE);
}

/// Every length from 0 to 40 (five whole blocks and each tail around
/// them) and three random lengths up to 2 000.
fn lengths(rng: &mut SplitMix64) -> Vec<usize> {
    (0..=40)
        .chain((0..3).map(|_| rng.gen_range(41..2_000)))
        .collect()
}

/// `Field::combine` ≡ `combine_scalar` at every length of [`lengths`] with
/// no, one, two (the largest term count the kernel takes) and three terms
/// (always the scalar body), operands random, all Montgomery limbs `p − 1`
/// and zero, and coefficients 0, 1, −1, limbs `p − 1` and random.
fn combine_matches_scalar<F: MontLimbs>(seed: u64) {
    if lane_kernel() == "scalar" {
        println!("avx512ifma absent: scalar only");
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for len in lengths(&mut rng) {
        let random = |rng: &mut SplitMix64| (0..len).map(|_| F::random(rng)).collect::<Vec<F>>();
        let operands = [random(&mut rng), vec![top; len], vec![F::ZERO; len]];
        let coeffs = [F::ZERO, F::ONE, -F::ONE, top, F::random(&mut rng)];
        for (i, x) in operands.iter().enumerate() {
            let [y, z, w] = [1, 2, 0].map(|k| &operands[(i + k) % 3][..]);
            for (k, &a) in coeffs.iter().enumerate() {
                let [b, c, d] = [1, 3, 4].map(|j| coeffs[(k + j) % coeffs.len()]);
                let case = format!("len {len}, x {i}, coefficient {k}");
                macro_rules! same {
                    ($terms:expr, $what:literal) => {
                        let (mut got, mut expect) = (x.clone(), x.clone());
                        F::combine(&mut got, a, $terms);
                        combine_scalar(&mut expect, a, $terms);
                        assert_eq!(got, expect, "{}: {case}", $what);
                    };
                }
                same!([], "no term");
                same!([(y, b)], "one term");
                same!([(y, b), (z, c)], "two terms");
                same!([(y, b), (z, c), (w, d)], "three terms");
            }
        }
    }
}

#[test]
fn fr_combine_is_bit_identical_to_the_scalar_body() {
    combine_matches_scalar::<Fr>(0xB12);
}

#[test]
fn fq_combine_is_bit_identical_to_the_scalar_body() {
    combine_matches_scalar::<Fq>(0xB13);
}

#[test]
#[should_panic(expected = "combined slices differ in length")]
fn combine_rejects_slices_of_different_lengths() {
    Fr::combine(
        &mut [Fr::ONE; 16],
        Fr::ONE,
        [(&[Fr::ONE; 16][..], Fr::ONE), (&[Fr::ONE; 17], Fr::ONE)],
    );
}

/// `Field::eq_double` ≡ `eq_double_scalar` at every length of [`lengths`],
/// with `hi` as long as `lo`, one entry, half and a block shorter, and
/// empty (the unpaired entries take the scale), `lo` random, all Montgomery
/// limbs `p − 1` and zero, `t` 0, 1, −1, limbs `p − 1` and random, and
/// whatever `hi` held unread.
fn eq_double_matches_scalar<F: MontLimbs>(seed: u64) {
    if lane_kernel() == "scalar" {
        println!("avx512ifma absent: scalar only");
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for len in lengths(&mut rng) {
        let random = |rng: &mut SplitMix64| (0..len).map(|_| F::random(rng)).collect::<Vec<F>>();
        let operands = [random(&mut rng), vec![top; len], vec![F::ZERO; len]];
        let coeffs = [F::ZERO, F::ONE, -F::ONE, top, F::random(&mut rng)];
        let paired = [
            len,
            len.saturating_sub(1),
            len / 2,
            len.saturating_sub(8),
            0,
        ];
        for (i, lo) in operands.iter().enumerate() {
            for (k, &t) in coeffs.iter().enumerate() {
                for n in paired {
                    let case = format!("len {len}, paired {n}, lo {i}, t {k}");
                    let (mut got, mut expect) = (lo.clone(), lo.clone());
                    let (mut got_hi, mut expect_hi) = (vec![-F::ONE; n], vec![F::ONE; n]);
                    F::eq_double(&mut got, &mut got_hi, t);
                    eq_double_scalar(&mut expect, &mut expect_hi, t);
                    assert_eq!((got, got_hi), (expect, expect_hi), "{case}");
                }
            }
        }
    }
}

#[test]
fn fr_eq_double_is_bit_identical_to_the_scalar_body() {
    eq_double_matches_scalar::<Fr>(0xB14);
}

#[test]
fn fq_eq_double_is_bit_identical_to_the_scalar_body() {
    eq_double_matches_scalar::<Fq>(0xB15);
}

#[test]
#[should_panic(expected = "upper part outgrows it")]
fn eq_double_rejects_a_longer_upper_part() {
    Fr::eq_double(&mut [Fr::ONE; 16], &mut [Fr::ONE; 17], Fr::ONE);
}

/// `Field::eq_split` ≡ `eq_split_scalar` at every length of [`lengths`],
/// the source random, all Montgomery limbs `p − 1` and zero, `t` as for
/// [`eq_double_matches_scalar`], and whatever the halves held unread.
fn eq_split_matches_scalar<F: MontLimbs>(seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for len in lengths(&mut rng) {
        let random = (0..len).map(|_| F::random(&mut rng)).collect::<Vec<F>>();
        let coeffs = [F::ZERO, F::ONE, -F::ONE, top, F::random(&mut rng)];
        for (i, src) in [random, vec![top; len], vec![F::ZERO; len]]
            .iter()
            .enumerate()
        {
            for (k, &t) in coeffs.iter().enumerate() {
                let [mut got_lo, mut got_hi] = [(); 2].map(|()| vec![-F::ONE; len]);
                let [mut lo, mut hi] = [(); 2].map(|()| vec![F::ONE; len]);
                F::eq_split(src, &mut got_lo, &mut got_hi, t);
                eq_split_scalar(src, &mut lo, &mut hi, t);
                assert_eq!((got_lo, got_hi), (lo, hi), "len {len}, src {i}, t {k}");
            }
        }
    }
}

#[test]
fn fr_eq_split_is_bit_identical_to_the_scalar_body() {
    eq_split_matches_scalar::<Fr>(0xB1A);
}

#[test]
fn fq_eq_split_is_bit_identical_to_the_scalar_body() {
    eq_split_matches_scalar::<Fq>(0xB1B);
}

#[test]
#[should_panic(expected = "differ from their source")]
fn eq_split_rejects_halves_of_another_length() {
    Fr::eq_split(
        &[Fr::ONE; 16],
        &mut [Fr::ONE; 16],
        &mut [Fr::ONE; 17],
        Fr::ONE,
    );
}

/// Integers of one kind: 0 / ±1 (most of a quantized assignment), below
/// 2^10, narrow (below [`NARROW_BOUND`]), or any `i64` (a product of two
/// narrow differences reaches 2^62; `i64::MIN` and `i64::MAX` mixed in).
fn integers(rng: &mut SplitMix64, kind: usize, len: usize) -> Vec<i64> {
    let bound = [2, 1 << 10, i64::from(NARROW_BOUND)];
    (0..len)
        .map(|i| match (kind, i % 97) {
            (3, 0) => i64::MIN,
            (3, 1) => i64::MAX,
            (3, n) if n % 3 == 2 => 7 - n as i64,
            (3, _) => rng.next_u64() as i64,
            _ => rng.gen_range(0..2 * bound[kind] as usize - 1) as i64 - (bound[kind] - 1),
        })
        .collect()
}

/// `Field::dot_small` and `Field::fold_small` ≡ their scalar bodies at the
/// lengths of [`lengths`] and around the dot's 999-block reduction cadence
/// (7 992 = 999 · 8), field operands random, all Montgomery limbs `p − 1`
/// and zero, integers of every kind of [`integers`] (narrow ones also as
/// `i32`s for the dot, and for the fold, whose halves are `i32`), and `r`
/// 0, 1, −1, limbs `p − 1` and random.
fn small_operands_match_scalar<F: MontLimbs>(seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    let mut lens = lengths(&mut rng);
    lens.extend([7_984, 7_992, 8_000, 8_003, 16_000]);
    for len in lens {
        let random = (0..len).map(|_| F::random(&mut rng)).collect::<Vec<F>>();
        let operands = [random, vec![top; len], vec![F::ZERO; len]];
        for kind in 0..4 {
            let ints = integers(&mut rng, kind, len);
            for (i, a) in operands.iter().enumerate() {
                let case = format!("len {len}, operand {i}, integers {kind}");
                assert_eq!(F::dot_small(a, &ints), dot_small_scalar(a, &ints), "{case}");
                // A longer integer slice: the common prefix.
                let longer = [&ints[..], &[5, -5]].concat();
                assert_eq!(
                    F::dot_small(a, &longer),
                    dot_small_scalar(a, &ints),
                    "{case}"
                );
            }
            if kind == 3 {
                continue;
            }
            let narrow: Vec<i32> = ints.iter().map(|&k| k as i32).collect();
            for (i, a) in operands.iter().enumerate() {
                let case = format!("len {len}, operand {i}, narrow integers {kind}");
                assert_eq!(
                    F::dot_small(a, &narrow),
                    dot_small_scalar(a, &ints),
                    "{case}"
                );
            }
            let other: Vec<i32> = integers(&mut rng, kind, len)
                .iter()
                .map(|&k| k as i32)
                .collect();
            for (k, r) in [F::ZERO, F::ONE, -F::ONE, top, F::random(&mut rng)]
                .into_iter()
                .enumerate()
            {
                let (mut got, mut expect) = (vec![-F::ONE; len], vec![F::ONE; len]);
                F::fold_small(&mut got, &narrow, &other, r);
                fold_small_scalar(&mut expect, &narrow, &other, r);
                assert_eq!(got, expect, "len {len}, integers {kind}, r {k}");
            }
        }
    }
}

#[test]
fn fr_small_operands_are_bit_identical_to_the_scalar_bodies() {
    small_operands_match_scalar::<Fr>(0xB1C);
}

#[test]
fn fq_small_operands_are_bit_identical_to_the_scalar_bodies() {
    small_operands_match_scalar::<Fq>(0xB1D);
}

/// `Field::narrow_into` ≡ `narrow_into_scalar` at the lengths of
/// [`lengths`] on narrow vectors of every kind of [`integers`] below the
/// bound (the bound's edges mixed in) and of zeros and ones only (the
/// kernel's blocks of bits), and with one entry moved past it —
/// the bound itself, its negation, a random element — at the first, a
/// middle and the last place: the same answer, and on narrow vectors the
/// same integers.
fn narrow_into_matches_scalar<F: MontLimbs>(seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let edge = i64::from(NARROW_BOUND) - 1;
    for len in lengths(&mut rng) {
        for kind in 0..4 {
            let mut ints = integers(&mut rng, kind.min(2), len);
            for (i, k) in ints.iter_mut().enumerate() {
                if kind == 3 {
                    *k = k.abs();
                } else if i % 29 == 3 {
                    *k = if i % 2 == 0 { edge } else { -edge };
                }
            }
            let xs: Vec<F> = ints.iter().map(|&k| field_from_i64(k)).collect();
            let (mut got, mut expect) = (vec![7; len], vec![-7; len]);
            assert!(F::narrow_into(&xs, &mut got), "len {len}, kind {kind}");
            assert!(
                narrow_into_scalar(&xs, &mut expect),
                "len {len}, kind {kind}"
            );
            assert!(got.iter().zip(&ints).all(|(&g, &k)| i64::from(g) == k));
            assert_eq!(got, expect, "len {len}, kind {kind}");
            let wide = [edge + 1, -edge - 1]
                .map(field_from_i64)
                .into_iter()
                .chain([F::random(&mut rng)]);
            for (w, value) in wide.enumerate() {
                for at in [0, len / 2, len.saturating_sub(1)]
                    .into_iter()
                    .filter(|&at| at < len)
                {
                    let mut xs = xs.clone();
                    xs[at] = value;
                    let case = format!("len {len}, kind {kind}, wide {w} at {at}");
                    assert!(!F::narrow_into(&xs, &mut got), "{case}");
                    assert!(!narrow_into_scalar(&xs, &mut expect), "{case}");
                }
            }
        }
    }
}

#[test]
fn fr_narrow_into_is_bit_identical_to_the_scalar_body() {
    narrow_into_matches_scalar::<Fr>(0xB1E);
}

#[test]
fn fq_narrow_into_is_bit_identical_to_the_scalar_body() {
    narrow_into_matches_scalar::<Fq>(0xB1F);
}

#[test]
#[should_panic(expected = "fold halves differ in length")]
fn fold_small_rejects_halves_of_another_length() {
    Fr::fold_small(&mut [Fr::ONE; 16], &[1; 16], &[1; 17], Fr::ONE);
}

/// `Field::dot` and `Field::write_canonical` ≡ their default bodies
/// (`dot_pairs` over the common prefix, `write_canonical_scalar`) at
/// lengths around the 8-element block and the 63-block reduction cadence
/// (504 = 63 · 8), with operands random, all Montgomery limbs `p − 1` (the
/// largest lane sums) and zero in all pairings, and on unequal lengths.
fn dot_and_canonical_bytes_match_scalar<F: MontLimbs>(seed: u64) {
    if lane_kernel() == "scalar" {
        println!("avx512ifma absent: scalar only");
    }
    let default_dot = |a: &[F], b: &[F]| F::dot_pairs(a.iter().copied().zip(b.iter().copied()));
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for len in [0usize, 1, 7, 8, 9, 15, 16, 24, 503, 504, 505, 1_027, 5_000] {
        let random = |rng: &mut SplitMix64| (0..len).map(|_| F::random(rng)).collect::<Vec<F>>();
        let operands = [
            ("random", random(&mut rng)),
            ("p-1", vec![top; len]),
            ("zero", vec![F::ZERO; len]),
        ];
        for (a_name, a) in &operands {
            for (b_name, b) in &operands {
                assert_eq!(
                    F::dot(a, b),
                    default_dot(a, b),
                    "dot: len {len}, {a_name} · {b_name}"
                );
            }
            let short = &a[..len / 3];
            assert_eq!(
                F::dot(short, &operands[0].1),
                default_dot(short, &operands[0].1),
                "dot: lengths {} and {len}, {a_name}",
                len / 3
            );
            assert_eq!(
                F::dot(&operands[0].1, short),
                default_dot(&operands[0].1, short),
                "dot: lengths {len} and {}, {a_name}",
                len / 3
            );
            let (mut got, mut expect) = (vec![0xAA; len * 32], vec![0x55; len * 32]);
            F::write_canonical(a, &mut got);
            write_canonical_scalar(a, &mut expect);
            assert_eq!(got, expect, "write_canonical: len {len}, {a_name}");
        }
    }
}

#[test]
fn fr_dot_and_canonical_bytes_are_bit_identical_to_the_default_bodies() {
    dot_and_canonical_bytes_match_scalar::<Fr>(0xB0A);
}

#[test]
fn fq_dot_and_canonical_bytes_are_bit_identical_to_the_default_bodies() {
    dot_and_canonical_bytes_match_scalar::<Fq>(0xB0B);
}

#[test]
#[should_panic(expected = "canonical bytes are 32 per element")]
fn write_canonical_rejects_a_mismatched_buffer() {
    Fr::write_canonical(&[Fr::ONE; 16], &mut [0; 16 * 32 - 1]);
}

/// `Field::product_round_sums` ≡ `product_round_sums_scalar` at pair counts
/// around the 8-pair block, the unweighted 15-block reduction cadence
/// (119 / 120 / 121), 31 blocks (247 / 248 / 249) and the weighted 63-block
/// cadence (503 / 504 / 505), with the `x` and `y` halves random, all
/// Montgomery limbs `p − 1` and zero in every pairing, weights absent,
/// random, `p − 1` and zero, `z` absent and present, and `direct` on and
/// off. Zero below `p − 1` gives the largest differences; with limbs just
/// under `p − 1` each lane's sum differs, so its reduction is a fresh draw
/// at every block count.
fn round_sums_match_scalar<F: MontLimbs>(seed: u64) {
    if lane_kernel() == "scalar" {
        println!("avx512ifma absent: scalar only");
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for len in [
        0usize, 1, 7, 8, 9, 15, 16, 24, 119, 120, 121, 247, 248, 249, 503, 504, 505, 1_027,
    ] {
        let random = |rng: &mut SplitMix64| (0..len).map(|_| F::random(rng)).collect::<Vec<F>>();
        let near_top = (0..len)
            .map(|_| {
                let below = sub_wide(&F::P, &[1 + (rng.next_u64() >> 4), 0, 0, 0]).0;
                F::from_mont_limbs_unchecked(below)
            })
            .collect::<Vec<F>>();
        let halves = [
            ("random", random(&mut rng), random(&mut rng)),
            ("p-1", vec![top; len], vec![top; len]),
            ("zero", vec![F::ZERO; len], vec![F::ZERO; len]),
            ("p-1 | zero", vec![top; len], vec![F::ZERO; len]),
            ("zero | p-1", vec![F::ZERO; len], vec![top; len]),
            ("zero | near p-1", vec![F::ZERO; len], near_top),
        ];
        let z = [random(&mut rng), vec![top; len]];
        let weights = [
            None,
            Some(random(&mut rng)),
            Some(vec![top; len]),
            Some(vec![F::ZERO; len]),
        ];
        for (x_name, x_lo, x_hi) in &halves {
            for (y_name, y_lo, y_hi) in &halves {
                let (x, y) = ([&x_lo[..], &x_hi[..]], [&y_lo[..], &y_hi[..]]);
                for (k, w) in weights.iter().enumerate() {
                    for z in [None, Some([&z[0][..], &z[1][..]])] {
                        for direct in [false, true] {
                            assert_eq!(
                                F::product_round_sums(x, y, z, w.as_deref(), direct),
                                product_round_sums_scalar(x, y, z, w.as_deref(), direct),
                                "len {len}, x {x_name}, y {y_name}, weights {k}, z {}, \
                                 direct {direct}",
                                z.is_some()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fr_round_sums_are_bit_identical_to_the_scalar_body() {
    round_sums_match_scalar::<Fr>(0xB0C);
}

#[test]
fn fq_round_sums_are_bit_identical_to_the_scalar_body() {
    round_sums_match_scalar::<Fq>(0xB0D);
}

#[test]
#[should_panic(expected = "round-sum halves differ in length")]
fn round_sums_reject_halves_of_different_lengths() {
    let (lo, hi) = ([Fr::ONE; 16], [Fr::ONE; 17]);
    Fr::product_round_sums([&lo, &hi], [&lo, &lo], None, None, true);
}

/// `Field::batch_invert` ≡ `batch_invert_scalar` at lengths around the
/// 8-lane block and the kernel's 32-element row of interleaved chains (the
/// kernel takes whole rows, the tail shares its one inversion), with inputs
/// random; zeros at the head, the tail, in one lane of every row (a chain of
/// zeros, whose total is `ONE`) and once inside another chain; all zero;
/// all `ONE`; and all Montgomery limbs `p − 1`.
fn batch_invert_matches_scalar<F: MontLimbs>(seed: u64) {
    if lane_kernel() == "scalar" {
        println!("avx512ifma absent: scalar only");
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for len in [
        0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 95, 96, 97, 255, 1_027,
    ] {
        let random: Vec<F> = (0..len).map(|_| F::random(&mut rng)).collect();
        let mut zeros = random.clone();
        for i in [0, len.saturating_sub(1), len / 2]
            .into_iter()
            .chain((11..len).step_by(32))
        {
            if let Some(x) = zeros.get_mut(i) {
                *x = F::ZERO;
            }
        }
        let inputs = [
            ("random", random),
            ("zeros", zeros),
            ("all zero", vec![F::ZERO; len]),
            ("one", vec![F::ONE; len]),
            ("p-1", vec![top; len]),
        ];
        for (name, xs) in inputs {
            let (mut got, mut expect) = (xs.clone(), xs);
            F::batch_invert(&mut got);
            batch_invert_scalar(&mut expect);
            assert_eq!(got, expect, "{name}, len {len}");
        }
    }
}

#[test]
fn fr_batch_invert_is_bit_identical_to_the_scalar_body() {
    batch_invert_matches_scalar::<Fr>(0xB0E);
}

#[test]
fn fq_batch_invert_is_bit_identical_to_the_scalar_body() {
    batch_invert_matches_scalar::<Fq>(0xB0F);
}

/// `Field::affine_chords` ≡ `affine_chords_scalar` at pair counts around the
/// 8-pair block (the kernel takes whole blocks, the scalar body the tail),
/// with every pairing of numerators random, zero and limbs `p − 1`, inverses
/// random, zero (so `λ = 0`) and limbs `p − 1`, `p` random and limbs
/// `p − 1`, and `q_x` random, `p_x` itself (a tangent) and limbs `p − 1`.
fn chords_match_scalar<F: MontLimbs>(seed: u64) {
    if lane_kernel() == "scalar" {
        println!("avx512ifma absent: scalar only");
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 255, 1_027] {
        let mut random = || (0..len).map(|_| F::random(&mut rng)).collect::<Vec<F>>();
        let (zero, ones) = (vec![F::ZERO; len], vec![top; len]);
        let nums = [
            ("random", random()),
            ("zero", zero.clone()),
            ("p-1", ones.clone()),
        ];
        let invs = [("random", random()), ("zero", zero), ("p-1", ones.clone())];
        let points = [
            ("random", random(), random()),
            ("p-1", ones.clone(), ones.clone()),
        ];
        let qxs = [
            ("random", Some(random())),
            ("p_x", None),
            ("p-1", Some(ones)),
        ];
        for (num_name, num) in &nums {
            for (inv_name, inv) in &invs {
                for (p_name, px, py) in &points {
                    for (qx_name, qx) in &qxs {
                        let qx = qx.as_ref().unwrap_or(px);
                        let (mut got_x, mut got_y) = (px.clone(), py.clone());
                        F::affine_chords(num, inv, qx, [&mut got_x, &mut got_y]);
                        let (mut expect_x, mut expect_y) = (px.clone(), py.clone());
                        affine_chords_scalar(num, inv, qx, [&mut expect_x, &mut expect_y]);
                        assert_eq!(
                            (got_x, got_y),
                            (expect_x, expect_y),
                            "len {len}, num {num_name}, inv {inv_name}, p {p_name}, q_x {qx_name}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fr_chords_are_bit_identical_to_the_scalar_body() {
    chords_match_scalar::<Fr>(0xB10);
}

#[test]
fn fq_chords_are_bit_identical_to_the_scalar_body() {
    chords_match_scalar::<Fq>(0xB11);
}

#[test]
#[should_panic(expected = "chord slices differ in length")]
fn chords_reject_slices_of_different_lengths() {
    let (a, mut x, mut y) = ([Fr::ONE; 16], [Fr::ONE; 16], [Fr::ONE; 17]);
    Fr::affine_chords(&a, &a, &a, [&mut x, &mut y]);
}

/// `Field::signed_sum` ≡ `signed_sum_scalar` on groups of every shape the
/// gather hands it — empty, one entry, ±1 entries of one sign or both,
/// scaled entries of both signs, with repeated indices — up to 70 000
/// entries of `p − 1` (the unreduced sums' largest), with coefficients at
/// `±(2^31 − 1)` and `i32::MIN`, and differences of either sign and zero.
fn signed_sum_matches_scalar<F: MontLimbs>(seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let top = F::from_mont_limbs_unchecked(sub_wide(&F::P, &[1, 0, 0, 0]).0);
    let n = 4096;
    let random: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
    for x in [random, vec![top; n], vec![F::ZERO; n]] {
        for len in [0, 1, 2, 3, 9, 64, 1_000, 70_000] {
            let index = |rng: &mut SplitMix64| rng.gen_range(0..n) as u32;
            let coefficient = |rng: &mut SplitMix64| match rng.gen_range(0..6) {
                0 => i32::MIN,
                1 => i32::MAX,
                2 => -i32::MAX,
                _ => rng.gen_range(0..1 << 20) as i32 - (1 << 19),
            };
            let [plus, minus]: [Vec<u32>; 2] =
                [(); 2].map(|()| (0..len).map(|_| index(&mut rng)).collect());
            let scaled: Vec<(u32, i32)> = (0..len.min(2_000))
                .map(|_| (index(&mut rng), coefficient(&mut rng)))
                .collect();
            let cases = [
                (&plus[..], &[][..], &[][..]),
                (&[], &minus[..], &[]),
                (&plus, &minus, &[]),
                (&plus, &plus, &[]),
                (&[], &[], &scaled[..]),
                (&plus, &minus, &scaled),
                (&minus[..len / 2], &plus, &scaled[..scaled.len() / 2]),
            ];
            for (c, (plus, minus, scaled)) in cases.into_iter().enumerate() {
                assert_eq!(
                    F::signed_sum(&x, plus, minus, scaled),
                    signed_sum_scalar(&x, plus, minus, scaled),
                    "len {len}, case {c}"
                );
            }
        }
    }
}

#[test]
fn fr_signed_sum_is_bit_identical_to_the_scalar_body() {
    signed_sum_matches_scalar::<Fr>(0x5165);
}

#[test]
fn fq_signed_sum_is_bit_identical_to_the_scalar_body() {
    signed_sum_matches_scalar::<Fq>(0x5166);
}
