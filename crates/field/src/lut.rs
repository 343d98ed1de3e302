//! Subset-sum lookup tables for fixed-operand inner products — the Orion
//! `SubsetSumLUTs` idiom (PolyhedraZK/Expander).
//!
//! A vector of *fixed* field weights `w_0, ..., w_{n-1}` is split into
//! chunks of `k` weights, and for each chunk all `2^k` subset sums are
//! precomputed. Any inner product of the weights with a *binary* selector
//! vector then collapses into `⌈n/k⌉` table lookups and additions — no
//! Montgomery multiplications at all — instead of the `n` multiplications of
//! the naive `Σ wᵢ·F::from(bᵢ)` loop.
//!
//! # Cost model
//!
//! Building a chunk's table by the doubling construction costs `2^k − 1`
//! field additions, so the whole LUT costs `⌈n/k⌉·(2^k − 1)` additions. One
//! selection afterwards costs `⌈n/k⌉` additions. With `M` the cost of a
//! Montgomery multiplication in additions (≈ 5–8 on this host, see the
//! `profile` bench table), the LUT wins once the weights are reused for
//! more than `(2^k − 1) / (k·M)` selections — about one selection at
//! `k = 4`, i.e. the table pays for itself almost immediately. See
//! `DESIGN.md` §16 for the break-even analysis against measured numbers.
//!
//! Consumer in this workspace: binary-table sum-check
//! (`batchzk_sumcheck::algorithm1::prove_binary`, where the round tables are
//! exactly subset sums of an `eq` weight tensor), plus the `tables profile`
//! kernel rows.

use crate::Field;

/// Precomputed subset sums of a fixed weight vector, chunked `k` bits at a
/// time.
///
/// # Examples
///
/// ```
/// use batchzk_field::{lut::SubsetSumLUT, Field, Fr};
///
/// let weights: Vec<Fr> = (1..=10u64).map(Fr::from).collect();
/// let lut = SubsetSumLUT::new(&weights, 4);
/// let bits = [true, false, true, true, false, false, true, false, true, true];
/// // 1 + 3 + 4 + 7 + 9 + 10 = 34, computed with 3 lookups and no muls.
/// assert_eq!(lut.select_sum_bits(&bits), Fr::from(34u64));
/// ```
#[derive(Debug, Clone)]
pub struct SubsetSumLUT<F> {
    /// One table per chunk; chunk `t` covers weights `t·k .. min((t+1)·k, n)`
    /// and holds one entry per subset of them.
    tables: Vec<Vec<F>>,
    chunk_bits: usize,
    num_weights: usize,
}

impl<F: Field> SubsetSumLUT<F> {
    /// Precomputes all subset sums of `weights`, `chunk_bits` weights per
    /// table (each table has `2^chunk_bits` entries, built with the
    /// doubling construction in `2^chunk_bits − 1` additions).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits` is outside `1..=16`.
    pub fn new(weights: &[F], chunk_bits: usize) -> Self {
        assert!(
            (1..=16).contains(&chunk_bits),
            "chunk_bits must be in 1..=16"
        );
        let tables = weights
            .chunks(chunk_bits)
            .map(|chunk| {
                let mut table = vec![F::ZERO; 1 << chunk.len()];
                for (j, &w) in chunk.iter().enumerate() {
                    // Double the table: entries with bit j set are the
                    // bit-j-clear entries plus w.
                    let stride = 1usize << j;
                    for m in 0..stride {
                        table[stride + m] = table[m] + w;
                    }
                }
                table
            })
            .collect();
        Self {
            tables,
            chunk_bits,
            num_weights: weights.len(),
        }
    }

    /// Number of weights the LUT was built over.
    pub fn num_weights(&self) -> usize {
        self.num_weights
    }

    /// Whether the LUT covers zero weights.
    pub fn is_empty(&self) -> bool {
        self.num_weights == 0
    }

    /// Selector bits per chunk.
    pub fn chunk_bits(&self) -> usize {
        self.chunk_bits
    }

    /// Number of chunk tables.
    pub fn num_chunks(&self) -> usize {
        self.tables.len()
    }

    /// The subset sum of chunk `chunk` under `mask` (bit `j` of `mask`
    /// selects weight `chunk·chunk_bits + j`).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` or `mask` is out of range.
    #[inline]
    pub fn lookup(&self, chunk: usize, mask: usize) -> F {
        self.tables[chunk][mask]
    }

    /// Inner product `Σ wᵢ·bitsᵢ` via one lookup per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.num_weights()`.
    pub fn select_sum_bits(&self, bits: &[bool]) -> F {
        assert_eq!(
            bits.len(),
            self.num_weights,
            "selector length must match weight count"
        );
        let mut acc = F::ZERO;
        for (table, chunk) in self.tables.iter().zip(bits.chunks(self.chunk_bits)) {
            let mut mask = 0usize;
            for (j, &b) in chunk.iter().enumerate() {
                mask |= (b as usize) << j;
            }
            acc += table[mask];
        }
        acc
    }

    /// Inner product from per-chunk masks (as produced by
    /// [`Self::masks_from_bits`]): `⌈n/k⌉` lookups and additions.
    ///
    /// # Panics
    ///
    /// Panics if the mask count or any mask value is out of range.
    pub fn select_sum_masks(&self, masks: &[u64]) -> F {
        assert_eq!(
            masks.len(),
            self.tables.len(),
            "one mask per chunk required"
        );
        let mut acc = F::ZERO;
        for (table, &mask) in self.tables.iter().zip(masks) {
            acc += table[mask as usize];
        }
        acc
    }

    /// Packs a selector bit vector into per-chunk masks, the reusable form
    /// for repeated [`Self::select_sum_masks`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.num_weights()`.
    pub fn masks_from_bits(&self, bits: &[bool]) -> Vec<u64> {
        assert_eq!(
            bits.len(),
            self.num_weights,
            "selector length must match weight count"
        );
        bits.chunks(self.chunk_bits)
            .map(|chunk| {
                let mut mask = 0u64;
                for (j, &b) in chunk.iter().enumerate() {
                    mask |= (b as u64) << j;
                }
                mask
            })
            .collect()
    }
}

/// The multiplication-based baseline the LUT replaces: `Σ wᵢ·F::from(bitsᵢ)`
/// with a real Montgomery multiplication per element. Exists so tests and
/// the `profile` bench table can measure the LUT's per-op win against it.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn naive_select_sum<F: Field>(weights: &[F], bits: &[bool]) -> F {
    assert_eq!(
        weights.len(),
        bits.len(),
        "selector length must match weight count"
    );
    F::dot_pairs(
        weights
            .iter()
            .zip(bits)
            .map(|(&w, &b)| (w, F::from(b as u64))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fr, RngCore, SplitMix64};

    fn samples(seed: u64, n: usize) -> Vec<Fr> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n).map(|_| Fr::random(&mut rng)).collect()
    }

    fn rand_bits(seed: u64, n: usize) -> Vec<bool> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64() & 1 == 1).collect()
    }

    #[test]
    fn matches_naive_across_all_chunk_widths() {
        // Every supported chunk width, including widths that don't divide n.
        for n in [0usize, 1, 7, 16, 33] {
            let w = samples(n as u64, n);
            let bits = rand_bits(1000 + n as u64, n);
            let expect = naive_select_sum(&w, &bits);
            for k in 1..=16 {
                let lut = SubsetSumLUT::new(&w, k);
                assert_eq!(lut.select_sum_bits(&bits), expect, "n={n} k={k}");
                let masks = lut.masks_from_bits(&bits);
                assert_eq!(lut.select_sum_masks(&masks), expect, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let w = samples(7, 20);
        let lut = SubsetSumLUT::new(&w, 5);
        assert_eq!(lut.select_sum_bits(&[false; 20]), Fr::ZERO);
        let total: Fr = w.iter().copied().sum();
        assert_eq!(lut.select_sum_bits(&[true; 20]), total);
    }

    #[test]
    fn lookup_is_subset_sum() {
        let w = samples(9, 6);
        let lut = SubsetSumLUT::new(&w, 3);
        assert_eq!(lut.num_chunks(), 2);
        for mask in 0..8usize {
            let mut expect = Fr::ZERO;
            for j in 0..3 {
                if mask >> j & 1 == 1 {
                    expect += w[3 + j];
                }
            }
            assert_eq!(lut.lookup(1, mask), expect, "mask={mask}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk_bits")]
    fn zero_chunk_bits_panics() {
        let _ = SubsetSumLUT::new(&[Fr::ONE], 0);
    }

    #[test]
    #[should_panic(expected = "selector length")]
    fn wrong_selector_length_panics() {
        let lut = SubsetSumLUT::new(&[Fr::ONE; 4], 2);
        let _ = lut.select_sum_bits(&[true; 3]);
    }
}
