//! Multi-scalar multiplication: naive reference and Pippenger's bucket
//! method.
//!
//! MSM dominates Groth16-style provers (the paper's Table 1); Table 7/8
//! charge the Libsnark/Bellperson baseline columns with exactly this
//! computation.

use std::ops::Range;

use batchzk_field::{batch_invert, Field, Fq, Fr};

use crate::g1::{G1Affine, G1Projective};

/// Naive MSM: `Σ scalar_i · point_i` via per-term double-and-add. Reference
/// oracle for [`msm`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn msm_naive(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(
        points.len(),
        scalars.len(),
        "points/scalars length mismatch"
    );
    points
        .iter()
        .zip(scalars)
        .fold(G1Projective::identity(), |acc, (p, s)| {
            acc.add(&G1Projective::from(*p).mul_scalar(s))
        })
}

/// Window size of the *modelled device kernel* for `n` terms: textbook
/// Pippenger with unsigned `c`-bit windows, as the gpu-sim cost model
/// charges it ([`msm_group_op_count`], the naive per-window phases of
/// `pipeline::groth`, `bench::baseline`). It does not describe what
/// [`msm`] runs on the host — that picks its own window — so re-tuning it
/// moves every simulated MSM number and nothing on the host clock.
pub fn window_size(n: usize) -> usize {
    match n {
        0..=3 => 1,
        4..=31 => 3,
        32..=255 => 5,
        256..=2047 => 7,
        2048..=16383 => 10,
        16384..=131071 => 13,
        _ => 16,
    }
}

/// Window size [`msm`] uses on the host for `n` terms. A signed window
/// costs about `6·n + 27·2^(c−1)` field multiplies (batch-affine bucket
/// adds against a mixed plus a full add per bucket of the running sums),
/// which puts the optimum well below [`window_size`]'s. The rungs sit
/// where counted field operations of adjacent windows cross; check a moved
/// rung against the parent commit with `examples/msm_sizes.rs`.
fn host_window(n: usize) -> usize {
    match n {
        0..=15 => 2,
        16..=47 => 3,
        48..=111 => 4,
        112..=223 => 5,
        224..=447 => 6,
        448..=895 => 7,
        896..=2559 => 8,
        2560..=5119 => 9,
        5120..=14335 => 10,
        14336..=40959 => 11,
        40960..=57343 => 12,
        57344..=393215 => 13,
        393216..=2097151 => 15,
        _ => 16,
    }
}

/// Bucket entries scattered per window group. Every batch-affine round
/// pays one `Fq` inversion (a ~380-multiply Fermat power) for the whole
/// group, so small MSMs put several windows in a group to share it, while
/// scratch stays below `n + GROUP_ENTRIES` points whatever the window
/// count.
const GROUP_ENTRIES: usize = 4096;

/// Fewest additions worth a batch-affine round: a round costs the
/// inversion plus ~6 multiplies an addition, the mixed add the running
/// sum would otherwise spend on the same entry costs 11.
const MIN_ROUND_PAIRS: usize = 96;

/// Multi-scalar multiplication `Σ scalar_i · point_i`: Pippenger's bucket
/// method over signed windows, with the buckets accumulated in affine
/// coordinates under shared inversions.
///
/// Each scalar is recoded once into signed base-`2^c` digits, so a window
/// has `2^(c−1)` buckets and a negative digit contributes `−P`. Windows
/// are handled in groups, most significant first: the group's non-zero
/// terms are counting-sorted by `(window, bucket)`, every bucket is halved
/// by pairwise affine additions in rounds that share one inversion across
/// the whole group, and each window's `Σ k·bucket_k` running sum then
/// folds whatever entries a bucket has left.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn msm(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(
        points.len(),
        scalars.len(),
        "points/scalars length mismatch"
    );
    msm_windowed(points, scalars, host_window(points.len()))
}

/// [`msm`] at window size `c` (`1 ≤ c ≤ 16`).
fn msm_windowed(points: &[G1Affine], scalars: &[Fr], c: usize) -> G1Projective {
    let n = points.len();
    let mut total = G1Projective::identity();
    if n == 0 {
        return total;
    }
    let half = 1usize << (c - 1);
    // One window past the scalar's bits takes the last carry.
    let windows = (Fr::MODULUS_BITS as usize + 1).div_ceil(c);
    let digits = signed_digits(scalars, c, windows);
    let group = (GROUP_ENTRIES / n).clamp(1, windows);
    let mut buckets = Buckets::default();
    let mut hi = windows;
    while hi > 0 {
        let lo = hi.saturating_sub(group);
        buckets.scatter(points, &digits[lo * n..hi * n], half);
        buckets.reduce();
        for w in (lo..hi).rev() {
            for _ in 0..c {
                total = total.double();
            }
            total = total.add(&buckets.window_sum((w - lo) * half..(w - lo + 1) * half));
        }
        hi = lo;
    }
    total
}

/// Recodes every scalar into `windows` signed base-`2^c` digits in
/// `[−2^(c−1), 2^(c−1)]`, window-major (`digits[w · n + i]` is digit `w` of
/// scalar `i`): a raw window value above `2^(c−1)` becomes `value − 2^c`
/// and carries one into the next window.
fn signed_digits(scalars: &[Fr], c: usize, windows: usize) -> Vec<i32> {
    let n = scalars.len();
    let mask = (1u64 << c) - 1;
    let half = 1i32 << (c - 1);
    let mut digits = vec![0i32; n * windows];
    for (i, scalar) in scalars.iter().enumerate() {
        let limbs = scalar.to_canonical_limbs();
        let mut carry = 0;
        for w in 0..windows {
            let (limb, shift) = (w * c / 64, w * c % 64);
            let mut raw = limbs[limb] >> shift;
            if shift + c > 64 {
                raw |= limbs.get(limb + 1).map_or(0, |next| next << (64 - shift));
            }
            let mut digit = (raw & mask) as i32 + carry;
            carry = (digit > half) as i32;
            digit -= carry << c;
            digits[w * n + i] = digit;
        }
        debug_assert_eq!(carry, 0, "the extra window absorbs the last carry");
    }
    digits
}

/// The buckets of one window group: the group's non-zero terms sorted by
/// `(window, bucket)`, each bucket a segment of `entries` that
/// [`Buckets::reduce`] shrinks in place.
#[derive(Default)]
struct Buckets {
    entries: Vec<G1Affine>,
    segments: Vec<Range<usize>>,
    denominators: Vec<Fq>,
}

impl Buckets {
    /// Counting sort: refills the buckets from `digits`, the window-major
    /// digits of the group's windows, with `half` buckets per window.
    fn scatter(&mut self, points: &[G1Affine], digits: &[i32], half: usize) {
        let bucket_of =
            |window: usize, digit: i32| window * half + digit.unsigned_abs() as usize - 1;
        let terms = || {
            digits
                .chunks(points.len())
                .enumerate()
                .flat_map(|(window, ds)| ds.iter().zip(points).map(move |(d, p)| (window, *d, p)))
                .filter(|(_, digit, point)| *digit != 0 && !point.infinity)
        };
        let mut ends = vec![0usize; digits.len() / points.len() * half];
        for (window, digit, _) in terms() {
            ends[bucket_of(window, digit)] += 1;
        }
        let mut filled = 0;
        for end in &mut ends {
            filled += *end;
            *end = filled;
        }
        self.entries.clear();
        self.entries.resize(filled, G1Affine::identity());
        self.segments.clear();
        self.segments.extend(
            ends.iter()
                .scan(0, |start, &end| Some(std::mem::replace(start, end)..end)),
        );
        // Each bucket fills from its end down.
        for (window, digit, point) in terms() {
            let slot = &mut ends[bucket_of(window, digit)];
            *slot -= 1;
            self.entries[*slot] = if digit < 0 { point.neg() } else { *point };
        }
    }

    /// Halves every bucket by pairwise affine additions, one shared
    /// inversion per round, for as long as a round has enough pairs to pay
    /// for its inversion. Buckets may keep more than one entry.
    fn reduce(&mut self) {
        while self.segments.iter().map(|s| s.len() / 2).sum::<usize>() >= MIN_ROUND_PAIRS {
            self.denominators.clear();
            for segment in &self.segments {
                let pairs = self.entries[segment.clone()].chunks_exact(2);
                self.denominators
                    .extend(pairs.map(|pair| slope_denominator(&pair[0], &pair[1])));
            }
            batch_invert(&mut self.denominators);
            let mut inverses = self.denominators.iter();
            for segment in &mut self.segments {
                let (mut next, mut out) = (segment.start, segment.start);
                while next + 1 < segment.end {
                    let inverse = inverses.next().expect("one denominator per pair");
                    let sum =
                        add_with_inverse(&self.entries[next], &self.entries[next + 1], inverse);
                    if let Some(sum) = sum {
                        self.entries[out] = sum;
                        out += 1;
                    }
                    next += 2;
                }
                if next < segment.end {
                    self.entries[out] = self.entries[next];
                    out += 1;
                }
                segment.end = out;
            }
        }
    }

    /// `Σ k·bucket_k` over one window's `buckets` (bucket `k` is the
    /// `k`-th of the range, counting from one) by the running-sum trick.
    fn window_sum(&self, buckets: Range<usize>) -> G1Projective {
        let mut running = G1Projective::identity();
        let mut sum = G1Projective::identity();
        for segment in self.segments[buckets].iter().rev() {
            for entry in &self.entries[segment.clone()] {
                running = running.add_affine(entry);
            }
            sum = sum.add(&running);
        }
        sum
    }
}

/// Denominator of the slope of the line through `p` and `q`, neither the
/// identity: `x_q − x_p`, `2·y_p` (tangent) when `q = p`, and zero when
/// `q = −p` and the sum is the identity.
fn slope_denominator(p: &G1Affine, q: &G1Affine) -> Fq {
    if p.x != q.x {
        q.x - p.x
    } else if p.y == q.y {
        p.y.double()
    } else {
        Fq::ZERO
    }
}

/// `p + q` given `inverse`, the inverse of [`slope_denominator`]`(p, q)`
/// or zero where that is zero; `None` is the identity.
fn add_with_inverse(p: &G1Affine, q: &G1Affine, inverse: &Fq) -> Option<G1Affine> {
    if inverse.is_zero() {
        return None;
    }
    let numerator = if p.x == q.x {
        let xx = p.x.square();
        xx.double() + xx
    } else {
        q.y - p.y
    };
    let slope = numerator * *inverse;
    let x = slope.square() - p.x - q.x;
    Some(G1Affine {
        x,
        y: slope * (p.x - x) - p.y,
        infinity: false,
    })
}

/// Group operations of one MSM on the *modelled device kernel* (see
/// [`window_size`]): unsigned-window Pippenger performs roughly
/// `num_windows · (n + 2^(c+1))` group additions plus 254 doublings. The
/// gpu-sim cost model charges the Groth16-style stages with this count;
/// the host [`msm`] does fewer operations of a different mix.
pub fn msm_group_op_count(n: usize) -> u64 {
    let c = window_size(n);
    let windows = 254_usize.div_ceil(c);
    (windows as u64) * (n as u64 + (1u64 << (c + 1))) + 254
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Field;
    use batchzk_field::{RngCore, SplitMix64};

    fn fixture(n: usize, seed: u64) -> (Vec<G1Affine>, Vec<Fr>) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let points: Vec<G1Affine> = (0..n)
            .map(|i| G1Affine::from_counter(1 + i as u64 * 7))
            .collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        (points, scalars)
    }

    #[test]
    fn pippenger_matches_naive() {
        for n in [1usize, 2, 3, 7, 32, 100] {
            let (points, scalars) = fixture(n, n as u64);
            assert_eq!(
                msm(&points, &scalars),
                msm_naive(&points, &scalars),
                "n={n}"
            );
        }
    }

    #[test]
    fn empty_msm_is_identity() {
        assert!(msm(&[], &[]).is_identity());
    }

    #[test]
    fn zero_scalars_give_identity() {
        let (points, _) = fixture(10, 1);
        let scalars = vec![Fr::ZERO; 10];
        assert!(msm(&points, &scalars).is_identity());
    }

    #[test]
    fn one_scalars_give_point_sum() {
        let (points, _) = fixture(8, 2);
        let scalars = vec![Fr::ONE; 8];
        let expect = points
            .iter()
            .fold(G1Projective::identity(), |acc, p| acc.add_affine(p));
        assert_eq!(msm(&points, &scalars), expect);
    }

    #[test]
    fn msm_is_bilinear_in_scalars() {
        let (points, s1) = fixture(16, 3);
        let (_, s2) = fixture(16, 4);
        let sum: Vec<Fr> = s1.iter().zip(&s2).map(|(a, b)| *a + *b).collect();
        assert_eq!(
            msm(&points, &sum),
            msm(&points, &s1).add(&msm(&points, &s2))
        );
    }

    #[test]
    fn pippenger_matches_naive_on_seeded_random_inputs() {
        // Property sweep: many seeds, sizes spanning several window-size
        // rungs, scalars fully random.
        let mut rng = SplitMix64::seed_from_u64(0xbeef);
        for trial in 0..24 {
            let n = 1 + (rng.next_u64() % 96) as usize;
            let (points, scalars) = fixture(n, rng.next_u64());
            assert_eq!(
                msm(&points, &scalars),
                msm_naive(&points, &scalars),
                "trial={trial} n={n}"
            );
        }
    }

    #[test]
    fn pippenger_matches_naive_with_zero_scalars_mixed_in() {
        let mut rng = SplitMix64::seed_from_u64(0xf00d);
        for n in [5usize, 33, 64] {
            let (points, mut scalars) = fixture(n, n as u64 ^ 0x55);
            // Zero out a pseudo-random subset (always including the ends).
            scalars[0] = Fr::ZERO;
            scalars[n - 1] = Fr::ZERO;
            for s in scalars.iter_mut() {
                if rng.next_u64().is_multiple_of(3) {
                    *s = Fr::ZERO;
                }
            }
            assert_eq!(
                msm(&points, &scalars),
                msm_naive(&points, &scalars),
                "n={n}"
            );
        }
    }

    #[test]
    fn pippenger_matches_naive_with_identity_points_mixed_in() {
        let mut rng = SplitMix64::seed_from_u64(0xabad);
        for n in [4usize, 40, 70] {
            let (mut points, scalars) = fixture(n, n as u64 ^ 0xaa);
            points[0] = G1Affine::identity();
            for p in points.iter_mut() {
                if rng.next_u64().is_multiple_of(4) {
                    *p = G1Affine::identity();
                }
            }
            assert_eq!(
                msm(&points, &scalars),
                msm_naive(&points, &scalars),
                "n={n}"
            );
        }
    }

    #[test]
    fn modelled_ladder_is_unchanged() {
        // `window_size` and `msm_group_op_count` feed the cost model: every
        // simulated Groth16 number moves with them.
        let rungs = [
            (0, 1),
            (3, 1),
            (4, 3),
            (31, 3),
            (32, 5),
            (255, 5),
            (256, 7),
            (2047, 7),
            (2048, 10),
            (16383, 10),
            (16384, 13),
            (131071, 13),
            (131072, 16),
            (usize::MAX >> 8, 16),
        ];
        for (n, c) in rungs {
            assert_eq!(window_size(n), c, "n={n}");
        }
        assert_eq!(msm_group_op_count(256), 37 * (256 + 256) + 254);
        assert_eq!(msm_group_op_count(1 << 12), 26 * (4096 + 2048) + 254);
    }

    /// `points[i] = (i + 1)·G`, so any MSM over them is one scalar
    /// multiplication — an oracle cheap enough for sizes `msm_naive` is not.
    fn generator_multiples(n: usize) -> Vec<G1Affine> {
        let g = G1Affine::generator();
        let multiples: Vec<G1Projective> = (0..n)
            .scan(G1Projective::identity(), |acc, _| {
                *acc = acc.add_affine(&g);
                Some(*acc)
            })
            .collect();
        G1Projective::batch_to_affine(&multiples)
    }

    fn msm_of_generator_multiples(scalars: &[Fr]) -> G1Projective {
        let combined: Fr = scalars
            .iter()
            .zip(1u64..)
            .map(|(s, i)| *s * Fr::from(i))
            .sum();
        G1Projective::generator().mul_scalar(&combined)
    }

    #[test]
    fn matches_oracle_on_each_side_of_every_host_rung() {
        let rungs = [
            16usize, 48, 112, 224, 448, 896, 2560, 5120, 14336, 40960, 57344, 393216, 2097152,
        ];
        for rung in rungs {
            assert!(host_window(rung - 1) < host_window(rung), "n={rung}");
        }
        let mut rng = SplitMix64::seed_from_u64(0x1adde4);
        let points = generator_multiples(5120);
        for rung in rungs.into_iter().filter(|rung| *rung <= points.len()) {
            for n in [rung - 1, rung] {
                let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
                let expect = msm_of_generator_multiples(&scalars);
                assert_eq!(msm(&points[..n], &scalars), expect, "n={n}");
            }
        }
    }

    #[test]
    fn every_window_size_matches_naive() {
        // Rungs too large for an oracle differ from the checked ones only
        // in `c`, so run every `c` at a size where rounds happen.
        let (points, scalars) = fixture(160, 0xc0de);
        let expect = msm_naive(&points, &scalars);
        for c in 1..=16 {
            assert_eq!(msm_windowed(&points, &scalars, c), expect, "c={c}");
        }
    }

    #[test]
    fn several_window_groups_match_the_oracle() {
        // 2^11 + 1 terms: one window a group, 32 groups.
        let n = (1 << 11) + 1;
        assert!(GROUP_ENTRIES / n < 2);
        let mut rng = SplitMix64::seed_from_u64(0x6709);
        let mut points = generator_multiples(n);
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        // Identity points and zero scalars drop out of the scatter.
        for i in (0..n).step_by(97) {
            points[i] = G1Affine::identity();
            scalars[i + 1] = Fr::ZERO;
        }
        let kept: Vec<Fr> = scalars
            .iter()
            .zip(&points)
            .map(|(s, p)| if p.infinity { Fr::ZERO } else { *s })
            .collect();
        assert_eq!(msm(&points, &scalars), msm_of_generator_multiples(&kept));
    }

    /// `slope_denominator` → inversion → `add_with_inverse`, as one round
    /// of `Buckets::reduce` does for a single pair.
    fn affine_pair_add(p: &G1Affine, q: &G1Affine) -> G1Affine {
        let mut denominator = [slope_denominator(p, q)];
        batch_invert(&mut denominator);
        add_with_inverse(p, q, &denominator[0]).unwrap_or(G1Affine::identity())
    }

    #[test]
    fn affine_pair_add_matches_projective_add() {
        let (points, _) = fixture(40, 9);
        let p = points[0];
        let mut pairs: Vec<(G1Affine, G1Affine)> =
            points.chunks(2).map(|pq| (pq[0], pq[1])).collect();
        pairs.extend([(p, p), (p, p.neg()), (p.neg(), p)]);
        for (p, q) in pairs {
            let expect = G1Projective::from(p).add(&q.into()).to_affine();
            assert_eq!(affine_pair_add(&p, &q), expect);
            assert!(expect.is_on_curve());
        }
    }

    #[test]
    fn signed_digits_recompose_to_the_scalar() {
        let mut rng = SplitMix64::seed_from_u64(0xd161);
        let mut scalars: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        scalars.extend([Fr::ZERO, Fr::ONE, -Fr::ONE]);
        let n = scalars.len();
        for c in 1..=16 {
            let windows = 255usize.div_ceil(c);
            let digits = signed_digits(&scalars, c, windows);
            let radix = Fr::from(1u64 << c);
            for (i, scalar) in scalars.iter().enumerate() {
                let recomposed = (0..windows).rev().fold(Fr::ZERO, |acc, w| {
                    let digit = digits[w * n + i];
                    assert!(digit.unsigned_abs() <= 1 << (c - 1), "c={c} digit={digit}");
                    acc * radix + batchzk_field::field_from_i64(digit as i64)
                });
                assert_eq!(recomposed, *scalar, "c={c} i={i}");
            }
        }
    }

    /// The scalar whose every raw `c`-bit window below bit 252 is `window`.
    fn repeated_window(window: u64, c: usize) -> Fr {
        let mut limbs = [0u64; 4];
        for bit in (0..252 / c * c).filter(|bit| window >> (bit % c) & 1 == 1) {
            limbs[bit / 64] |= 1 << (bit % 64);
        }
        Fr::from_canonical_limbs(limbs)
    }

    #[test]
    fn carry_chains_and_extreme_scalars_match_naive() {
        // Enough terms for batch-affine rounds, at the ladder's window and
        // at one that divides 254 (the carry leaves the scalar's bits).
        let n = 256;
        let (points, mut scalars) = fixture(n, 0xca44);
        for c in [host_window(n), 2] {
            let half = 1u64 << (c - 1);
            let specials = [
                -Fr::ONE,                                   // r − 1
                repeated_window(half, c),                   // every digit exactly 2^(c−1)
                repeated_window(half, c) + Fr::ONE,         // … then every window carries
                repeated_window(2 * half - 1, c),           // 2^k − 1
                repeated_window(2 * half - 1, c) + Fr::ONE, // 2^k
                Fr::from(2u64).pow(&[253]),
                Fr::from(2u64).pow(&[253]) - Fr::ONE,
            ];
            for (i, special) in (0..n).step_by(3).zip(specials.iter().cycle()) {
                scalars[i] = *special;
            }
            let expect = msm_naive(&points, &scalars);
            assert_eq!(msm_windowed(&points, &scalars, c), expect, "c={c}");
        }
    }

    #[test]
    fn repeated_and_opposite_points_match_naive() {
        let n = 256;
        let (distinct, scalars) = fixture(n, 0x2e2e);
        let (p, s) = (distinct[0], scalars[0]);

        // All points equal, all scalars equal: every bucket add is a
        // doubling, round after round.
        let expect = G1Projective::from(p).mul_scalar(&(s * Fr::from(n as u64)));
        assert_eq!(msm(&vec![p; n], &vec![s; n]), expect);

        // P and −P with equal digits: every pair, and so every bucket,
        // cancels to the identity.
        let opposite: Vec<G1Affine> = [p, p.neg()].into_iter().cycle().take(n).collect();
        assert!(msm(&opposite, &vec![s; n]).is_identity());

        // The same, scattered among distinct points with their own scalars:
        // copies meet (double or cancel) inside buckets that also hold
        // other points, and identities and zero scalars drop out.
        let mut points = distinct;
        let mut mixed = scalars;
        for i in (0..n).step_by(4) {
            points[i] = if i % 8 == 0 { p } else { p.neg() };
            mixed[i] = s;
        }
        for i in (1..n).step_by(16) {
            points[i] = points[i + 1];
            mixed[i] = mixed[i + 1];
            points[i + 2] = G1Affine::identity();
            mixed[i + 5] = Fr::ZERO;
        }
        assert_eq!(msm(&points, &mixed), msm_naive(&points, &mixed));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn known_answer_results() {
        // SHA-256 of `x ‖ y` (canonical little-endian bytes) of the affine
        // result, recorded at the commit before the signed-digit,
        // batch-affine rewrite: the result is the same group element.
        for (n, digest) in [
            (
                256,
                "2bf2e1ee24c92eea6e2caa88682226fdbf70196cf6314af5c90206a6154d6d2c",
            ),
            (
                1000,
                "7a1418e2002559485b42f065099d8fe914a3afc10ba36f579114d7d00cdd7c25",
            ),
        ] {
            let (points, scalars) = fixture(n, n as u64);
            let result = msm(&points, &scalars).to_affine();
            let bytes = [result.x.to_bytes(), result.y.to_bytes()].concat();
            assert_eq!(hex(&batchzk_hash::sha256(&bytes)), digest, "n={n}");
        }
    }

    #[test]
    fn op_count_is_monotone() {
        assert!(msm_group_op_count(1 << 10) < msm_group_op_count(1 << 14));
        assert!(msm_group_op_count(1 << 14) < msm_group_op_count(1 << 18));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let (points, _) = fixture(4, 5);
        let _ = msm(&points, &[Fr::ONE]);
    }
}
