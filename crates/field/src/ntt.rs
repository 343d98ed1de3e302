//! Radix-2 number-theoretic transform.
//!
//! This is **baseline substrate**: BatchZK's own protocol never runs an NTT.
//! Table 7 compares against Groth16-style systems (Libsnark, Bellperson)
//! whose provers are dominated by NTTs and MSMs, so we implement a real NTT
//! here and charge it to those baseline columns.

use crate::Field;

/// A multiplicative evaluation domain of power-of-two size with precomputed
/// twiddle factors.
#[derive(Debug, Clone)]
pub struct NttDomain<F: Field> {
    log_size: u32,
    /// Powers of the primitive root: `w^0, w^1, ..., w^{n/2-1}`.
    twiddles: Vec<F>,
    /// Powers of the inverse root.
    inv_twiddles: Vec<F>,
    size_inv: F,
}

impl<F: Field> NttDomain<F> {
    /// Creates a domain of size `2^log_size`.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` exceeds the field's two-adicity.
    pub fn new(log_size: u32) -> Self {
        assert!(
            log_size <= F::TWO_ADICITY,
            "domain of size 2^{log_size} exceeds field two-adicity {}",
            F::TWO_ADICITY
        );
        let n = 1usize << log_size;
        let root = F::two_adic_root(log_size);
        let mut twiddles = Vec::with_capacity(n / 2);
        let mut acc = F::ONE;
        for _ in 0..n.max(2) / 2 {
            twiddles.push(acc);
            acc *= root;
        }
        let mut inv_twiddles = twiddles.clone();
        F::batch_invert(&mut inv_twiddles);
        let size_inv = F::from(n as u64).inverse().expect("n != 0 mod p");
        Self {
            log_size,
            twiddles,
            inv_twiddles,
            size_inv,
        }
    }

    /// Domain size.
    pub fn size(&self) -> usize {
        1 << self.log_size
    }

    /// log2 of the domain size.
    pub fn log_size(&self) -> u32 {
        self.log_size
    }

    /// In-place forward NTT (coefficients -> evaluations at powers of `w`).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.size()`.
    pub fn forward(&self, values: &mut [F]) {
        self.transform(values, &self.twiddles);
    }

    /// In-place inverse NTT.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.size()`.
    pub fn inverse(&self, values: &mut [F]) {
        self.transform(values, &self.inv_twiddles);
        for v in values.iter_mut() {
            *v *= self.size_inv;
        }
    }

    /// Number of butterfly operations one transform performs (`n/2 · log n`),
    /// used by the GPU cost model for the Bellperson baseline.
    pub fn butterfly_count(&self) -> u64 {
        (self.size() as u64 / 2) * self.log_size as u64
    }

    fn transform(&self, values: &mut [F], twiddles: &[F]) {
        let n = values.len();
        assert_eq!(n, self.size(), "input length must equal the domain size");
        if n <= 1 {
            return;
        }
        bit_reverse_permute(values);
        let mut half = 1usize;
        while half < n {
            let step = n / (2 * half);
            for start in (0..n).step_by(2 * half) {
                for k in 0..half {
                    let w = twiddles[k * step];
                    let lo = values[start + k];
                    let hi = values[start + k + half] * w;
                    values[start + k] = lo + hi;
                    values[start + k + half] = lo - hi;
                }
            }
            half *= 2;
        }
    }
}

/// Reorders a slice into bit-reversed index order.
fn bit_reverse_permute<T>(values: &mut [T]) {
    let n = values.len();
    debug_assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if i < j {
            values.swap(i, j);
        }
    }
}

/// Quadratic-time reference DFT used to cross-check the fast transform.
pub fn naive_dft<F: Field>(coeffs: &[F]) -> Vec<F> {
    let n = coeffs.len();
    assert!(n.is_power_of_two());
    let root = F::two_adic_root(n.trailing_zeros());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let x = root.pow(&[i as u64]);
        let mut acc = F::ZERO;
        let mut xp = F::ONE;
        for &c in coeffs {
            acc += c * xp;
            xp *= x;
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fr;
    use crate::SplitMix64;

    #[test]
    fn matches_naive_dft() {
        let mut rng = SplitMix64::seed_from_u64(21);
        for log in 0..=6u32 {
            let domain = NttDomain::<Fr>::new(log);
            let coeffs: Vec<Fr> = (0..domain.size()).map(|_| Fr::random(&mut rng)).collect();
            let mut fast = coeffs.clone();
            domain.forward(&mut fast);
            assert_eq!(fast, naive_dft(&coeffs), "log={log}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut rng = SplitMix64::seed_from_u64(22);
        for log in [0u32, 1, 4, 10] {
            let domain = NttDomain::<Fr>::new(log);
            let coeffs: Vec<Fr> = (0..domain.size()).map(|_| Fr::random(&mut rng)).collect();
            let mut v = coeffs.clone();
            domain.forward(&mut v);
            domain.inverse(&mut v);
            assert_eq!(v, coeffs, "log={log}");
        }
    }

    #[test]
    fn convolution_theorem() {
        // (1 + x) * (1 + 2x) = 1 + 3x + 2x^2 via pointwise multiplication.
        let domain = NttDomain::<Fr>::new(2);
        let mut a = vec![Fr::ONE, Fr::ONE, Fr::ZERO, Fr::ZERO];
        let mut b = vec![Fr::ONE, Fr::from(2u64), Fr::ZERO, Fr::ZERO];
        domain.forward(&mut a);
        domain.forward(&mut b);
        let mut c: Vec<Fr> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
        domain.inverse(&mut c);
        assert_eq!(c, vec![Fr::ONE, Fr::from(3u64), Fr::from(2u64), Fr::ZERO]);
    }

    #[test]
    fn butterfly_count_formula() {
        let d = NttDomain::<Fr>::new(10);
        assert_eq!(d.butterfly_count(), 512 * 10);
    }

    #[test]
    #[should_panic(expected = "two-adicity")]
    fn oversized_domain_panics() {
        let _ = NttDomain::<Fr>::new(Fr::TWO_ADICITY + 1);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_length_panics() {
        let d = NttDomain::<Fr>::new(3);
        let mut v = vec![Fr::ONE; 4];
        d.forward(&mut v);
    }

    #[test]
    fn bit_reverse_involution() {
        let mut v: Vec<u32> = (0..16).collect();
        let orig = v.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, orig);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }
}
