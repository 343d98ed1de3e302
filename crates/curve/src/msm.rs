//! Multi-scalar multiplication: naive reference and Pippenger's bucket
//! method.
//!
//! MSM dominates Groth16-style provers (the paper's Table 1); Table 7/8
//! charge the Libsnark/Bellperson baseline columns with exactly this
//! computation.

use std::ops::Range;

use batchzk_field::{Field, Fq, Fr};

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

/// Window size [`msm`] uses on the host for `n` terms: the `c` with the
/// fewest field-multiply equivalents by `⌈255 / c⌉·(4·n + 27·2^(c−1))`,
/// which puts it well below [`window_size`]'s. Per window, an entry's
/// batch-affine addition costs about 4 (one gathered pair, its share of
/// [`Field::batch_invert`] and of [`Field::affine_chords`], on the 8-lane
/// multiplier: ~80 ns against ~20 for a scalar multiply) and a bucket of
/// the running sums a mixed plus a full add, 11 + 16. The rule picks the
/// fastest window measured at `2^6`, `2^8`, …, `2^16`; check a change to
/// it against the parent commit with `examples/msm_sizes.rs`.
fn host_window(n: usize) -> usize {
    (2..=16)
        .min_by_key(|&c| window_count(c) * (4 * n + (27 << (c - 1))))
        .expect("a window size")
}

/// Bucket entries scattered at a time. Every batch-affine round pays one
/// `Fq` inversion (a ~380-multiply Fermat power) for everything scattered,
/// so small MSMs put several passes in a scatter to share it, while scratch
/// stays near `max(n, GROUP_ENTRIES)` points whatever the window count and
/// however many shifts a table stores. With the rounds' pairs on the 8-lane
/// multiplier the inversion is a larger share of a round: 8192 puts a whole
/// `2^8` commitment (32 rows) in one scatter, 15 % faster there than 4096,
/// and 5 – 7 % faster from `2^10` to `2^12`.
const GROUP_ENTRIES: usize = 8192;

/// Fewest additions worth a batch-affine round: a round costs the
/// inversion (~380 multiplies) plus ~4 multiplies' worth an addition, and
/// the mixed add the running sum would otherwise spend on the same entry
/// costs 11, so a round pays from ~55 additions. A round's pairs halve, so
/// the threshold moves a round or two: 32 to 128 measure the same.
const MIN_ROUND_PAIRS: usize = 96;

/// Windows of a scalar at window size `c`: one past the scalar's bits
/// takes the last carry.
fn window_count(c: usize) -> usize {
    (Fr::MODULUS_BITS as usize + 1).div_ceil(c)
}

/// Multi-scalar multiplication `Σ scalar_i · point_i`: Pippenger's bucket
/// method over signed windows, with the buckets accumulated in affine
/// coordinates under shared inversions — [`MsmBases::msm`] with nothing
/// precomputed, one bucket pass per window.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn msm(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    msm_windowed(points, scalars, host_window(points.len()))
}

/// [`msm`] at window size `c` (`1 ≤ c ≤ 16`): the points are a table of one
/// shift.
fn msm_windowed(points: &[G1Affine], scalars: &[Fr], c: usize) -> G1Projective {
    pippenger(points, points.len(), scalars, c, &mut Scratch::default())
}

/// Most bytes a [`MsmBases`] table may take. Past `2^20` bases the bases
/// alone outgrow it and the table is the bases, as in [`msm`].
const TABLE_BYTES: usize = 128 << 20;

/// Window size of a [`MsmBases`] table over `n` bases. With `t` shifts
/// stored a pass scatters `t·n` entries and there are `windows / t` running
/// sums instead of `windows`, so the optimum sits above [`host_window`]'s:
/// fewer, wider windows. The rungs from 288 to 6 912 are where
/// [`host_window`]'s cost with one running sum in all,
/// `⌈255 / c⌉·4·n + 27·2^(c−1)`, crosses between adjacent windows; 48 and
/// 24 576 (where it crosses at 87 and 27 649) are kept from the ladder set
/// for scalar rounds. Adjacent windows were timed at `2^6` to `2^13` and
/// the sizes between; check a change against the parent commit with
/// `examples/msm_sizes.rs`.
fn table_window(n: usize) -> usize {
    match n {
        0..=47 => 7,
        48..=287 => 8,
        288..=575 => 9,
        576..=1727 => 10,
        1728..=3455 => 11,
        3456..=6911 => 12,
        6912..=24575 => 13,
        _ => 15,
    }
}

/// Shifts a table over `n` bases stores at window size `c`: as many as
/// [`TABLE_BYTES`] holds, no more than leave every pass a window.
fn table_shifts(n: usize, c: usize) -> usize {
    let windows = window_count(c);
    let affordable = TABLE_BYTES / (n.max(1) * size_of::<G1Affine>());
    let passes = windows.div_ceil(affordable.clamp(1, windows));
    windows.div_ceil(passes)
}

/// Bases fixed across many MSMs — a circuit's commitment key — with their
/// window shifts precomputed, so one MSM is a few bucket passes (one, when
/// the table holds a shift per window) instead of one per window.
///
/// Row `j` of the table's `t` is `2^(c·s·j)·P_i` in affine coordinates, `c`
/// the window size and `s = ⌈windows / t⌉` the number of passes. Window
/// `w = j·s + r` of scalar `i` then contributes `digit · row_j[i]` to pass
/// `r`: the passes are `s` bucket sets of `t·n` entries each, `c` doublings
/// apart, where plain [`msm`] has one of `n` entries per window.
pub struct MsmBases {
    table: Vec<G1Affine>,
    bases: usize,
    window: usize,
}

impl MsmBases {
    /// Precomputes the table for `points`: about 254 doublings a point,
    /// five to ten [`msm`]s' worth, for a saving near half an [`msm`] on
    /// every MSM after.
    pub fn new(points: &[G1Affine]) -> Self {
        let c = table_window(points.len());
        Self::with_shape(points, c, table_shifts(points.len(), c))
    }

    /// The table at window size `c` with `shifts` rows.
    fn with_shape(points: &[G1Affine], c: usize, shifts: usize) -> Self {
        let passes = window_count(c).div_ceil(shifts);
        let mut table = points.to_vec();
        let mut row: Vec<G1Projective> = points.iter().map(|p| (*p).into()).collect();
        for _ in 1..shifts {
            for point in &mut row {
                for _ in 0..c * passes {
                    *point = point.double();
                }
            }
            table.extend(G1Projective::batch_to_affine(&row));
        }
        Self {
            table,
            bases: points.len(),
            window: c,
        }
    }

    /// Bytes the table holds.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * size_of::<G1Affine>()
    }

    /// [`Self::table_bytes`] of a table over `n` bases, without building it.
    pub fn table_bytes_for(n: usize) -> usize {
        table_shifts(n, table_window(n)) * n * size_of::<G1Affine>()
    }

    /// `Σ scalar_i · base_i`.
    ///
    /// # Panics
    ///
    /// Panics unless there is one scalar per base.
    pub fn msm(&self, scalars: &[Fr]) -> G1Projective {
        let [sum] = self.msm_each([scalars]);
        sum
    }

    /// [`Self::msm`] of each scalar vector, over one scratch.
    ///
    /// # Panics
    ///
    /// Panics unless every vector has one scalar per base.
    pub fn msm_each<const K: usize>(&self, scalars: [&[Fr]; K]) -> [G1Projective; K] {
        let mut scratch = Scratch::default();
        scalars.map(|s| pippenger(&self.table, self.bases, s, self.window, &mut scratch))
    }
}

/// What one MSM allocates, reusable by the next.
#[derive(Default)]
struct Scratch {
    digits: Vec<i32>,
    buckets: Buckets,
}

/// Pippenger's bucket method over a table of `table.len() / n` shifts of
/// `n` bases (see [`MsmBases`]; [`msm`]'s table is the points themselves).
///
/// Each scalar is recoded once into signed base-`2^c` digits, so a pass
/// has `2^(c−1)` buckets and a negative digit contributes `−P`. Passes are
/// handled most significant first: the non-zero terms of a pass — of
/// several, while they fit [`GROUP_ENTRIES`] — are counting-sorted by
/// bucket, every bucket is halved by pairwise affine additions in rounds
/// that share one inversion across everything scattered, and each pass's
/// `Σ k·bucket_k` running sum then folds whatever entries a bucket has
/// left. A pass too large for one scatter goes in a few rows at a time
/// into the same buckets.
fn pippenger(
    table: &[G1Affine],
    n: usize,
    scalars: &[Fr],
    c: usize,
    scratch: &mut Scratch,
) -> G1Projective {
    assert_eq!(n, scalars.len(), "points/scalars length mismatch");
    let mut total = G1Projective::identity();
    if n == 0 {
        return total;
    }
    let Scratch { digits, buckets } = scratch;
    let half = 1usize << (c - 1);
    let windows = window_count(c);
    let shifts = table.len() / n;
    let passes = windows.div_ceil(shifts);
    signed_digits(scalars, c, windows, digits);
    // Table rows one scatter takes, and the passes that makes.
    let rows = (GROUP_ENTRIES / n).max(1);
    let group = (rows / shifts).clamp(1, passes);
    let mut hi = passes;
    while hi > 0 {
        let lo = hi.saturating_sub(group);
        buckets.reset((hi - lo) * half);
        for first in (0..shifts).step_by(rows) {
            // Window `j·passes + pass` goes to set `pass − lo` over row `j`.
            let scattered = (lo..hi)
                .flat_map(|pass| (first..shifts.min(first + rows)).map(move |j| (pass, j)))
                .map(|(pass, j)| (pass - lo, j * passes + pass, j))
                .filter(|&(_, w, _)| w < windows)
                .map(|(set, w, j)| (set, &digits[w * n..][..n], &table[j * n..][..n]));
            buckets.scatter(scattered, half);
            buckets.reduce();
        }
        for set in (0..hi - lo).rev() {
            for _ in 0..c {
                total = total.double();
            }
            total = total.add(&buckets.window_sum(set * half..(set + 1) * half));
        }
        hi = lo;
    }
    total
}

/// Recodes every scalar into `windows` signed base-`2^c` digits in
/// `[−2^(c−1), 2^(c−1)]`, window-major (`digits[w · n + i]` is digit `w` of
/// scalar `i`): a raw window value above `2^(c−1)` becomes `value − 2^c`
/// and carries one into the next window.
fn signed_digits(scalars: &[Fr], c: usize, windows: usize, digits: &mut Vec<i32>) {
    let n = scalars.len();
    let mask = (1u64 << c) - 1;
    let half = 1i32 << (c - 1);
    digits.clear();
    digits.resize(n * windows, 0);
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
}

/// The bucket sets of the passes in hand: every bucket a segment of
/// `entries` that [`Buckets::scatter`] extends and [`Buckets::reduce`]
/// shrinks in place.
#[derive(Default)]
struct Buckets {
    entries: Vec<G1Affine>,
    /// What the buckets held before a scatter, while it moves them.
    kept: Vec<G1Affine>,
    segments: Vec<Range<usize>>,
    /// The pairs of the round in hand.
    chords: Chords,
}

/// One round's pairs `(p, q)` coordinate by coordinate, as
/// [`Field::batch_invert`] and [`Field::affine_chords`] take them: the
/// slopes' numerators and denominators (inverted in place), `q_x`, and `p`,
/// which the chords overwrite with `p + q`. Kept across rounds and MSMs.
#[derive(Default)]
struct Chords {
    num: Vec<Fq>,
    den: Vec<Fq>,
    qx: Vec<Fq>,
    px: Vec<Fq>,
    py: Vec<Fq>,
}

impl Chords {
    fn clear(&mut self) {
        for coordinate in [
            &mut self.num,
            &mut self.den,
            &mut self.qx,
            &mut self.px,
            &mut self.py,
        ] {
            coordinate.clear();
        }
    }

    /// Adds the pair `(p, q)`, neither the identity. Its slope is
    /// `(q_y − p_y) / (q_x − p_x)`, the tangent's `3·p_x² / 2·p_y` when
    /// `q = p`, and `0 / 0` when `q = −p`: the zero denominator stays zero
    /// through the inversion and marks a pair whose sum is the identity.
    fn push(&mut self, p: &G1Affine, q: &G1Affine) {
        let (num, den) = if p.x != q.x {
            (q.y - p.y, q.x - p.x)
        } else if p.y == q.y {
            let xx = p.x.square();
            (xx.double() + xx, p.y.double())
        } else {
            (Fq::ZERO, Fq::ZERO)
        };
        self.num.push(num);
        self.den.push(den);
        self.qx.push(q.x);
        self.px.push(p.x);
        self.py.push(p.y);
    }
}

impl Buckets {
    /// Empties the buckets and makes them `buckets` many.
    fn reset(&mut self, buckets: usize) {
        self.entries.clear();
        self.segments.clear();
        self.segments.resize(buckets, 0..0);
    }

    /// Counting sort: adds the non-zero terms of `rows` to the buckets.
    /// A row is one window's digits over the table row they multiply, bound
    /// for bucket set `set` of `half` buckets.
    fn scatter<'a>(
        &mut self,
        rows: impl Iterator<Item = (usize, &'a [i32], &'a [G1Affine])> + Clone,
        half: usize,
    ) {
        let bucket_of = |set: usize, digit: i32| set * half + digit.unsigned_abs() as usize - 1;
        let terms = || {
            rows.clone()
                .flat_map(|(set, ds, ps)| ds.iter().zip(ps).map(move |(d, p)| (set, *d, p)))
                .filter(|(_, digit, point)| *digit != 0 && !point.infinity)
        };
        // Sizes, then each bucket's next free slot: what it holds goes
        // first, its new terms after.
        let mut next: Vec<usize> = self.segments.iter().map(Range::len).collect();
        for (set, digit, _) in terms() {
            next[bucket_of(set, digit)] += 1;
        }
        let mut filled = 0;
        for slot in &mut next {
            let size = std::mem::replace(slot, filled);
            filled += size;
        }
        // What the buckets hold steps aside — a few entries each — so every
        // scatter fills the same, cache-warm array.
        self.kept.clear();
        for segment in &self.segments {
            self.kept.extend_from_slice(&self.entries[segment.clone()]);
        }
        self.entries.clear();
        self.entries.resize(filled, G1Affine::identity());
        let mut kept = self.kept.as_slice();
        for (segment, slot) in self.segments.iter().zip(&mut next) {
            let (bucket, rest) = kept.split_at(segment.len());
            self.entries[*slot..][..bucket.len()].copy_from_slice(bucket);
            *slot += bucket.len();
            kept = rest;
        }
        for (set, digit, point) in terms() {
            let slot = &mut next[bucket_of(set, digit)];
            self.entries[*slot] = if digit < 0 { point.neg() } else { *point };
            *slot += 1;
        }
        // Every slot has reached its bucket's end.
        self.segments.clear();
        self.segments.extend(
            next.iter()
                .scan(0, |start, &end| Some(std::mem::replace(start, end)..end)),
        );
    }

    /// Halves every bucket by pairwise affine additions, one shared
    /// inversion per round, for as long as a round has enough pairs to pay
    /// for its inversion. Buckets may keep more than one entry.
    fn reduce(&mut self) {
        while self.segments.iter().map(|s| s.len() / 2).sum::<usize>() >= MIN_ROUND_PAIRS {
            self.round(Fq::batch_invert, Fq::affine_chords);
        }
    }

    /// One round: every bucket's entries added two by two, its sums (a
    /// cancelled pair drops out) and any odd entry compacted to the front
    /// of its segment. `invert` and `chords` are the round's two
    /// lane-shaped steps, [`Field::batch_invert`] and
    /// [`Field::affine_chords`] or their scalar bodies.
    fn round(
        &mut self,
        invert: impl Fn(&mut [Fq]),
        chords: impl Fn(&[Fq], &[Fq], &[Fq], [&mut [Fq]; 2]),
    ) {
        let c = &mut self.chords;
        c.clear();
        for segment in &self.segments {
            for pair in self.entries[segment.clone()].chunks_exact(2) {
                c.push(&pair[0], &pair[1]);
            }
        }
        invert(&mut c.den);
        chords(&c.num, &c.den, &c.qx, [&mut c.px, &mut c.py]);
        let mut sums = c.den.iter().zip(c.px.iter().zip(&c.py));
        for segment in &mut self.segments {
            let (mut next, mut out) = (segment.start, segment.start);
            while next + 1 < segment.end {
                let (inverse, (&x, &y)) = sums.next().expect("one chord per pair");
                if !inverse.is_zero() {
                    self.entries[out] = G1Affine {
                        x,
                        y,
                        infinity: false,
                    };
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

    /// `Σ k·bucket_k` over one set's `buckets` (bucket `k` is the `k`-th of
    /// the range, counting from one) by the running-sum trick.
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
    use batchzk_field::{affine_chords_scalar, batch_invert_scalar, Field};
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
            14usize, 56, 158, 473, 1117, 2333, 7489, 13249, 38017, 69121, 124417, 442369, 1658881,
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
        // 2^12 + 1 terms: one window a group, 32 groups.
        let n = GROUP_ENTRIES / 2 + 1;
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

    /// Shift counts at window size `c`: one (plain `msm`), two, one that
    /// does not divide the window count (the last row is short of
    /// windows), and one per window (a single pass).
    fn shift_counts(c: usize) -> [usize; 4] {
        let windows = window_count(c);
        let uneven = (2..windows)
            .find(|t| !windows.is_multiple_of(*t))
            .unwrap_or(windows);
        [1, 2.min(windows), uneven, windows]
    }

    #[test]
    fn every_window_and_shift_count_matches_naive() {
        // Identities and zero scalars drop out of the scatter at every row
        // of the table. (A debug build spends 254 doublings a base on each
        // of the 64 tables, hence the size.)
        let (mut points, mut scalars) = fixture(40, 0x7ab1e);
        for i in (0..39).step_by(7) {
            points[i] = G1Affine::identity();
            scalars[i + 1] = Fr::ZERO;
        }
        let expect = msm_naive(&points, &scalars);
        for c in 1..=16 {
            for t in shift_counts(c) {
                let bases = MsmBases::with_shape(&points, c, t);
                assert_eq!(bases.msm(&scalars), expect, "c={c} t={t}");
            }
        }
    }

    #[test]
    fn tables_match_naive_on_extreme_scalars_and_repeated_points() {
        let n = 128;
        let (distinct, random) = fixture(n, 0xf1bed);
        let (p, s) = (distinct[0], random[0]);
        // All points equal (every bucket add a doubling, and so is every
        // shifted row's), `P / −P` pairs with equal digits (every bucket
        // cancels), and the two scattered among distinct points.
        let equal = vec![p; n];
        let opposite: Vec<G1Affine> = [p, p.neg()].into_iter().cycle().take(n).collect();
        let mut mixed = distinct.clone();
        for i in (0..n).step_by(4) {
            mixed[i] = if i % 8 == 0 { p } else { p.neg() };
        }
        for c in [table_window(n), 2] {
            let half = 1u64 << (c - 1);
            let specials = [
                -Fr::ONE,
                repeated_window(half, c),
                repeated_window(half, c) + Fr::ONE,
                repeated_window(2 * half - 1, c),
                repeated_window(2 * half - 1, c) + Fr::ONE,
                Fr::from(2u64).pow(&[253]),
                Fr::from(2u64).pow(&[253]) - Fr::ONE,
            ];
            let mut extreme = random.clone();
            for (i, special) in (0..n).step_by(3).zip(specials.iter().cycle()) {
                extreme[i] = *special;
            }
            let mut repeated = random.clone();
            for i in (0..n).step_by(4) {
                repeated[i] = s;
            }
            let extreme_sum = msm_naive(&distinct, &extreme);
            let mixed_sum = msm_naive(&mixed, &repeated);
            let equal_sum = G1Projective::from(p).mul_scalar(&(s * Fr::from(n as u64)));
            for t in shift_counts(c) {
                let at = |points| MsmBases::with_shape(points, c, t);
                assert_eq!(at(&distinct).msm(&extreme), extreme_sum, "c={c} t={t}");
                assert_eq!(at(&mixed).msm(&repeated), mixed_sum, "c={c} t={t}");
                assert_eq!(at(&equal).msm(&vec![s; n]), equal_sum, "c={c} t={t}");
                assert!(at(&opposite).msm(&vec![s; n]).is_identity(), "c={c} t={t}");
            }
        }
    }

    #[test]
    fn table_agrees_with_msm_on_each_side_of_every_rung_of_both_ladders() {
        let host = [14usize, 56, 158, 473, 1117, 2333];
        let table = [48usize, 288, 576, 1728, 3456, 6912, 24576];
        for rung in table {
            assert!(table_window(rung - 1) < table_window(rung), "n={rung}");
        }
        // Rungs too large for a debug build's table differ from the checked
        // ones only in `c` and the shift count, which
        // `every_window_and_shift_count_matches_naive` sweeps.
        let mut rng = SplitMix64::seed_from_u64(0x7ab1e5);
        let points = generator_multiples(768);
        for rung in host.into_iter().chain(table).filter(|rung| *rung <= 768) {
            for n in [rung - 1, rung] {
                let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
                let expect = msm_of_generator_multiples(&scalars);
                let bases = MsmBases::new(&points[..n]);
                assert_eq!(bases.table_bytes(), MsmBases::table_bytes_for(n), "n={n}");
                assert_eq!(bases.msm(&scalars), expect, "n={n}");
                assert_eq!(msm(&points[..n], &scalars), expect, "n={n}");
            }
        }
    }

    #[test]
    fn a_pass_larger_than_one_scatter_matches_the_oracle() {
        // 1 500 bases: five table rows a scatter, so every pass of 26 rows
        // goes into its buckets in six; at two shifts a pass, in one.
        let n = 1500;
        assert_eq!(GROUP_ENTRIES / n, 5);
        let mut rng = SplitMix64::seed_from_u64(0x5ca77e4);
        let points = generator_multiples(n);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let expect = msm_of_generator_multiples(&scalars);
        for (c, t) in [(10, 26), (10, 2), (7, 5)] {
            let bases = MsmBases::with_shape(&points, c, t);
            assert_eq!(bases.msm(&scalars), expect, "c={c} t={t}");
        }
    }

    #[test]
    fn msm_each_reuses_one_scratch_across_vectors_of_different_weight() {
        let (points, dense) = fixture(200, 0xeac4);
        let sparse: Vec<Fr> = (0..200u64).map(|i| Fr::from(i % 3)).collect();
        let zero = vec![Fr::ZERO; 200];
        let bases = MsmBases::new(&points);
        let [a, b, c, d] = bases.msm_each([&dense, &zero, &sparse, &dense]);
        assert_eq!(a, msm_naive(&points, &dense));
        assert!(b.is_identity());
        assert_eq!(c, msm_naive(&points, &sparse));
        assert_eq!(d, a);
        assert!(MsmBases::new(&[]).msm(&[]).is_identity());
    }

    #[test]
    fn table_stays_inside_its_byte_budget() {
        for log_n in [8, 12, 16, 20] {
            let n = 1usize << log_n;
            let windows = window_count(table_window(n));
            let shifts = table_shifts(n, table_window(n));
            let passes = windows.div_ceil(shifts);
            assert!((1..=windows).contains(&shifts), "2^{log_n}");
            assert!((passes - 1) * shifts < windows, "2^{log_n}: an idle pass");
            assert!(MsmBases::table_bytes_for(n) <= TABLE_BYTES, "2^{log_n}");
        }
        // Small circuits store a shift per window, the largest the bases
        // only, and in between the rows are what the passes use.
        assert_eq!(table_shifts(1 << 8, 10), 26);
        assert_eq!(table_shifts(1 << 18, 15), 6);
        assert_eq!(table_shifts(1 << 20, 15), 1);
        assert_eq!(table_shifts(0, 7), window_count(7));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn table_rejects_a_scalar_vector_of_the_wrong_length() {
        let (points, _) = fixture(4, 5);
        let _ = MsmBases::new(&points).msm(&[Fr::ONE]);
    }

    /// Buckets holding `entries`, bucket `k` the next `sizes[k]` of them.
    fn buckets_of(entries: &[G1Affine], sizes: impl IntoIterator<Item = usize>) -> Buckets {
        let segments: Vec<Range<usize>> = sizes
            .into_iter()
            .scan(0, |start, size| {
                *start += size;
                Some(*start - size..*start)
            })
            .collect();
        assert_eq!(segments.last().map_or(0, |s| s.end), entries.len());
        Buckets {
            entries: entries.to_vec(),
            segments,
            ..Buckets::default()
        }
    }

    /// `p + q` as one round of `Buckets::reduce` adds a bucket's pair.
    fn affine_pair_add(p: &G1Affine, q: &G1Affine) -> G1Affine {
        let mut buckets = buckets_of(&[*p, *q], [2]);
        buckets.round(Fq::batch_invert, Fq::affine_chords);
        let sum = &buckets.entries[buckets.segments[0].clone()];
        sum.first().copied().unwrap_or(G1Affine::identity())
    }

    #[test]
    fn a_round_through_the_hooks_matches_the_scalar_bodies() {
        // Buckets of 0 to 6 entries: 153 pairs, not a multiple of the
        // batch inversion's 32-element row nor of the chords' 8-pair block,
        // and odd entries left over. Every 5th pair is a doubling, every
        // 7th a cancellation.
        let (points, _) = fixture(720, 0x40d5);
        let sizes: Vec<usize> = (0..120).map(|k| k % 7).collect();
        let mut entries = Vec::new();
        let mut pairs = 0;
        for &size in &sizes {
            let bucket = &points[entries.len()..][..size];
            for (i, pair) in bucket.chunks(2).enumerate() {
                entries.push(pair[0]);
                if let [p, _] = pair {
                    entries.push(match (pairs + i) % 35 {
                        k if k % 5 == 0 => *p,
                        k if k % 7 == 0 => p.neg(),
                        _ => pair[1],
                    });
                }
            }
            pairs += size / 2;
        }
        assert!(pairs % 32 != 0 && pairs % 8 != 0, "pairs={pairs}");
        let mut hooks = buckets_of(&entries, sizes.iter().copied());
        hooks.round(Fq::batch_invert, Fq::affine_chords);
        let mut scalar = buckets_of(&entries, sizes.iter().copied());
        scalar.round(batch_invert_scalar, affine_chords_scalar);
        assert_eq!(hooks.entries, scalar.entries);
        assert_eq!(hooks.segments, scalar.segments);
        // And both are the group's sums: a cancelled pair dropped out.
        let mut start = 0;
        for (size, segment) in sizes.iter().zip(&hooks.segments) {
            let bucket = &entries[start..start + size];
            start += size;
            let expect = bucket.iter().map(|&p| G1Projective::from(p));
            let got = hooks.entries[segment.clone()].iter();
            assert_eq!(
                got.fold(G1Projective::identity(), |acc, p| acc.add_affine(p)),
                expect.fold(G1Projective::identity(), |acc, p| acc.add(&p))
            );
        }
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
            let mut digits = Vec::new();
            signed_digits(&scalars, c, windows, &mut digits);
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
        let bytes: Vec<u8> = limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
        Fr::from_bytes(&bytes.try_into().expect("32 bytes")).expect("below the modulus")
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
