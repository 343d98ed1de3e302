//! Batch inversion (Montgomery's trick): `n` inversions for the price of one
//! plus `3n` multiplications.

use crate::Field;

/// The portable body of [`Field::batch_invert`], and the oracle every
/// override is tested against: one chain of prefix products, one
/// inversion, one backward pass. Inverts every non-zero element of
/// `values` in place; zeros are left untouched (matching the convention
/// that `0^{-1}` is unused downstream).
///
/// # Examples
///
/// ```
/// use batchzk_field::{batch_invert_scalar, Field, Fr};
///
/// let mut v = vec![Fr::from(2u64), Fr::ZERO, Fr::from(4u64)];
/// batch_invert_scalar(&mut v);
/// assert_eq!(v[0] * Fr::from(2u64), Fr::ONE);
/// assert_eq!(v[1], Fr::ZERO);
/// assert_eq!(v[2] * Fr::from(4u64), Fr::ONE);
/// ```
pub fn batch_invert_scalar<F: Field>(values: &mut [F]) {
    // Forward pass: prefix products of the non-zero entries.
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = F::ONE;
    for v in values.iter() {
        prefix.push(acc);
        if !v.is_zero() {
            acc *= *v;
        }
    }
    // One real inversion.
    let mut inv = match acc.inverse() {
        Some(inv) => inv,
        None => return, // acc == 0 only possible when every entry is zero
    };
    // Backward pass.
    for (v, p) in values.iter_mut().zip(prefix).rev() {
        if v.is_zero() {
            continue;
        }
        let orig = *v;
        *v = inv * p;
        inv *= orig;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fr;
    use crate::SplitMix64;

    #[test]
    fn matches_pointwise_inversion() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let originals: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
        let mut batch = originals.clone();
        Fr::batch_invert(&mut batch);
        for (o, b) in originals.iter().zip(&batch) {
            assert_eq!(o.inverse().unwrap(), *b);
        }
    }

    #[test]
    fn zeros_are_skipped() {
        let mut v = vec![Fr::ZERO, Fr::from(3u64), Fr::ZERO, Fr::from(5u64), Fr::ZERO];
        Fr::batch_invert(&mut v);
        assert_eq!(v[0], Fr::ZERO);
        assert_eq!(v[2], Fr::ZERO);
        assert_eq!(v[4], Fr::ZERO);
        assert_eq!(v[1] * Fr::from(3u64), Fr::ONE);
        assert_eq!(v[3] * Fr::from(5u64), Fr::ONE);
    }

    #[test]
    fn empty_and_all_zero_are_noops() {
        let mut empty: Vec<Fr> = vec![];
        Fr::batch_invert(&mut empty);
        let mut zeros = vec![Fr::ZERO; 8];
        Fr::batch_invert(&mut zeros);
        assert!(zeros.iter().all(|z| z.is_zero()));
    }
}
