//! Property tests for the hot-path kernels: lazy-reduction bounds, oracle
//! agreement on edge-case limbs, byte-identity of the `dot_pairs` override
//! against the trait default, and LUT-vs-naive equivalence.
//!
//! These are the guarantees that let the rest of the workspace adopt the
//! fast paths without re-auditing: every kernel is bit-identical to the
//! schoolbook definition, and every intermediate stays inside its documented
//! redundant domain.

use batchzk_field::limb::{
    add_lazy, double_wide, geq, mont_mul, mont_mul_unreduced, naive_mul_mod, reduce_once, Limbs,
};
use batchzk_field::lut::{naive_select_sum, SubsetSumLUT};
use batchzk_field::{Field, Fr, MontLimbs, RngCore, SplitMix64};

const P: Limbs = Fr::MODULUS;

fn two_p() -> Limbs {
    double_wide(&P)
}

/// Strictly-less-than over little-endian limbs.
fn lt(a: &Limbs, b: &Limbs) -> bool {
    !geq(a, b)
}

/// Uniform sample below `bound` by rejection.
fn rand_below(rng: &mut SplitMix64, bound: &Limbs) -> Limbs {
    loop {
        let cand: Limbs = core::array::from_fn(|_| rng.next_u64());
        if lt(&cand, bound) {
            return cand;
        }
    }
}

/// The edge-case inputs the lazy kernels must handle: identities, boundary
/// values of both the canonical and redundant domains, and the Montgomery
/// constants themselves.
fn edge_cases() -> Vec<Limbs> {
    let p_minus_1 = {
        let mut l = P;
        l[0] -= 1; // p[0] is odd, no borrow
        l
    };
    let two_p_minus_1 = {
        let mut l = two_p();
        l[0] -= 1;
        l
    };
    vec![
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        p_minus_1,
        P,
        two_p_minus_1,
        Fr::R,
        Fr::R2,
    ]
}

#[test]
fn unreduced_mul_bounded_and_oracle_exact_on_edges_and_random() {
    let mut rng = SplitMix64::seed_from_u64(0xB00);
    let tp = two_p();
    let mut inputs = edge_cases();
    for _ in 0..200 {
        inputs.push(rand_below(&mut rng, &tp));
    }
    for a in &inputs {
        for b in &inputs {
            let unreduced = mont_mul_unreduced(a, b, &P, Fr::INV);
            // Closure of the redundant domain: inputs < 2p ⇒ output < 2p.
            assert!(
                lt(&unreduced, &tp),
                "unreduced out of domain: {a:?} * {b:?}"
            );
            // Canonicalizing matches the strict CIOS kernel modulo p. The
            // strict kernel wants canonical inputs, so reduce first.
            let ar = reduce_once(a, &P);
            let br = reduce_once(b, &P);
            let strict = mont_mul(&ar, &br, &P, Fr::INV);
            // a ≡ ar and b ≡ br (mod p), so the unreduced product reduces to
            // the same residue.
            assert_eq!(reduce_once(&unreduced, &P), strict, "{a:?} * {b:?}");
        }
    }
}

#[test]
fn unreduced_mul_matches_division_oracle() {
    // mont_mul computes a·b·2^{-256} mod p; multiplying back by R recovers
    // a·b mod p, which the schoolbook + long-division oracle checks.
    let mut rng = SplitMix64::seed_from_u64(0xB01);
    for _ in 0..100 {
        let a = rand_below(&mut rng, &P);
        let b = rand_below(&mut rng, &P);
        let mont = reduce_once(&mont_mul_unreduced(&a, &b, &P, Fr::INV), &P);
        let undone = naive_mul_mod(&mont, &Fr::R, &P);
        assert_eq!(undone, naive_mul_mod(&a, &b, &P));
    }
}

#[test]
fn add_lazy_closed_and_congruent() {
    let mut rng = SplitMix64::seed_from_u64(0xB02);
    let tp = two_p();
    let mut inputs = edge_cases();
    inputs.retain(|l| lt(l, &tp));
    for _ in 0..200 {
        inputs.push(rand_below(&mut rng, &tp));
    }
    for a in &inputs {
        for b in &inputs {
            let sum = add_lazy(a, b, &tp);
            assert!(lt(&sum, &tp), "add_lazy left the redundant domain");
            // Congruence: reduce everything canonically and compare against
            // field addition.
            let fa = Fr::from_mont_limbs_unchecked(reduce_once(a, &P));
            let fb = Fr::from_mont_limbs_unchecked(reduce_once(b, &P));
            let fs = Fr::from_mont_limbs_unchecked(reduce_once(&sum, &P));
            assert_eq!(fa + fb, fs);
        }
    }
}

#[test]
fn dot_pairs_override_is_byte_identical_to_default() {
    // The macro override (lazy accumulate) against the trait's documented
    // default (multiply-then-add fold), compared through the canonical byte
    // encoding so any canonicity break would surface.
    let mut rng = SplitMix64::seed_from_u64(0xB04);
    for n in [0usize, 1, 2, 3, 7, 64, 257] {
        let a: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let b: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let fast = Fr::dot(&a, &b);
        let naive = a.iter().zip(&b).fold(Fr::ZERO, |acc, (x, y)| acc + *x * *y);
        assert_eq!(fast.to_bytes(), naive.to_bytes(), "n={n}");
    }
    // Edge values: ±1 and values that exercise the top of the domain.
    let specials = [
        Fr::ZERO,
        Fr::ONE,
        -Fr::ONE,
        Fr::from_mont_limbs_unchecked(reduce_once(&Fr::R2, &P)),
    ];
    for &x in &specials {
        for &y in &specials {
            let fast = Fr::dot_pairs([(x, y); 5].into_iter());
            let naive = (x * y) * Fr::from(5u64);
            assert_eq!(fast.to_bytes(), naive.to_bytes());
        }
    }
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
