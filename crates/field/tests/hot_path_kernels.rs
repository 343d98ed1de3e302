//! Property tests for the hot-path kernels: the deferred-reduction dot
//! kernel against the multiply-then-add fold and the schoolbook-division
//! oracle, at the carry and term-count edges, the dispatched sparse product
//! against its scalar body, and LUT-vs-naive equivalence.
//!
//! These are the guarantees that let the rest of the workspace adopt the
//! fast paths without re-auditing: every kernel is bit-identical to the
//! schoolbook definition.

use batchzk_field::limb::{acc_mul_add, acc_reduce, mont_reduce, naive_mul_mod, sub_wide, WideAcc};
use batchzk_field::lut::{naive_select_sum, SubsetSumLUT};
use batchzk_field::{
    sparse_mul_lanes_kernel, sparse_mul_lanes_scalar, Field, Fq, Fr, MontLimbs, RngCore, SplitMix64,
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
    // from_mont_limbs(acc·2^-256) = Σ limbᵢ·2^(64i)·2^-512 in value.
    let two64 = Fr::from(u64::MAX) + Fr::ONE;
    let mut value = Fr::ZERO;
    for limb in acc.iter().rev() {
        value = value * two64 + Fr::from(*limb);
    }
    let r_inv = Fr::from_canonical_limbs(Fr::R)
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
        assert_eq!(Fr::from_canonical_limbs(canonical), x);
    }
}

/// `Field::sparse_mul_lanes` ≡ its scalar body on random CSR matrices:
/// rows of every degree the kernel takes (1 – 63, both ends included) and
/// one above its bound, which the kernel hands to the scalar body. Widths
/// that are multiples of eight run the kernel on an IFMA host; 1, 3 and 9
/// fall back. Operands are random, all Montgomery limbs `p − 1` (the
/// largest column sums and the largest pre-subtraction result), and zero.
fn sparse_lanes_match_scalar<F: MontLimbs>(seed: u64) {
    if sparse_mul_lanes_kernel() == "scalar" {
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

#[test]
fn lut_matches_naive_inner_product_for_every_width() {
    let mut rng = SplitMix64::seed_from_u64(0xB05);
    for n in [1usize, 9, 31, 64] {
        let w: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let bits: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
        let expect = naive_select_sum(&w, &bits);
        for k in 1..=16 {
            let lut = SubsetSumLUT::new(&w, k);
            assert_eq!(lut.select_sum_bits(&bits), expect, "n={n} k={k}");
        }
    }
}
