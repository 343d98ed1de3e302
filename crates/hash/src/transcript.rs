//! Fiat–Shamir transcript over SHA-256.
//!
//! Both prover and verifier drive an identical transcript; every absorbed
//! message updates a 32-byte running state, and challenges are squeezed from
//! that state in counter mode. Per the paper (§4), the sum-check randomness
//! is derived from the final Merkle root (or earlier sum-check output) acting
//! as the seed — the transcript is exactly that pseudorandom generator with
//! domain separation added.

use batchzk_field::Field;

use crate::sha256::{Digest, Sha256};

/// A deterministic Fiat–Shamir transcript.
///
/// # Examples
///
/// ```
/// use batchzk_hash::Transcript;
/// use batchzk_field::Fr;
///
/// let mut prover = Transcript::new(b"example");
/// prover.absorb_bytes(b"commitment", b"\x01\x02");
/// let c1: Fr = prover.challenge_field(b"alpha");
///
/// let mut verifier = Transcript::new(b"example");
/// verifier.absorb_bytes(b"commitment", b"\x01\x02");
/// let c2: Fr = verifier.challenge_field(b"alpha");
/// assert_eq!(c1, c2);
/// ```
#[derive(Debug, Clone)]
pub struct Transcript {
    state: Digest,
    counter: u64,
}

impl Transcript {
    /// Creates a transcript bound to a protocol domain label.
    pub fn new(domain: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"batchzk-transcript-v1");
        h.update(domain);
        Self {
            state: h.finalize(),
            counter: 0,
        }
    }

    /// Absorbs labelled bytes into the transcript state.
    pub fn absorb_bytes(&mut self, label: &[u8], data: &[u8]) {
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label);
        h.update(&(data.len() as u64).to_le_bytes());
        h.update(data);
        self.state = h.finalize();
        self.counter = 0;
    }

    /// Absorbs a digest (e.g. a Merkle root).
    pub fn absorb_digest(&mut self, label: &[u8], digest: &Digest) {
        self.absorb_bytes(label, digest);
    }

    /// Absorbs a field element via its canonical encoding.
    pub fn absorb_field<F: Field>(&mut self, label: &[u8], value: &F) {
        self.absorb_bytes(label, &value.to_bytes());
    }

    /// Absorbs a slice of field elements.
    pub fn absorb_fields<F: Field>(&mut self, label: &[u8], values: &[F]) {
        let mut buf = vec![0; values.len() * 32];
        F::write_canonical(values, &mut buf);
        self.absorb_bytes(label, &buf);
    }

    /// Squeezes 32 labelled bytes. Repeated squeezes without intervening
    /// absorbs produce a counter-mode stream (distinct outputs).
    pub(crate) fn challenge_bytes(&mut self, label: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(b"challenge");
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label);
        h.update(&self.counter.to_le_bytes());
        self.counter += 1;
        h.finalize()
    }

    /// Squeezes a field element with negligible bias (64 uniform bytes).
    pub fn challenge_field<F: Field>(&mut self, label: &[u8]) -> F {
        let lo = self.challenge_bytes(label);
        let hi = self.challenge_bytes(label);
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&lo);
        wide[32..].copy_from_slice(&hi);
        F::from_uniform_bytes(&wide)
    }

    /// Squeezes `n` field elements.
    pub fn challenge_fields<F: Field>(&mut self, label: &[u8], n: usize) -> Vec<F> {
        (0..n).map(|_| self.challenge_field(label)).collect()
    }

    /// Squeezes `n` indices uniformly below `bound` (rejection-free modular
    /// reduction; the bias is negligible for the bounds used here).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn challenge_indices(&mut self, label: &[u8], n: usize, bound: usize) -> Vec<usize> {
        assert!(bound > 0, "index bound must be positive");
        (0..n)
            .map(|_| {
                let bytes = self.challenge_bytes(label);
                let v = u128::from_le_bytes(bytes[..16].try_into().unwrap());
                (v % bound as u128) as usize
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;

    #[test]
    fn deterministic_across_instances() {
        let mk = || {
            let mut t = Transcript::new(b"test");
            t.absorb_bytes(b"a", b"hello");
            t.absorb_field(b"b", &Fr::from(42u64));
            t.challenge_field::<Fr>(b"c")
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_domains_diverge() {
        let mut t1 = Transcript::new(b"domain1");
        let mut t2 = Transcript::new(b"domain2");
        assert_ne!(
            t1.challenge_field::<Fr>(b"x"),
            t2.challenge_field::<Fr>(b"x")
        );
    }

    #[test]
    fn absorbed_data_changes_challenges() {
        let mut t1 = Transcript::new(b"d");
        let mut t2 = Transcript::new(b"d");
        t1.absorb_bytes(b"m", b"0");
        t2.absorb_bytes(b"m", b"1");
        assert_ne!(
            t1.challenge_field::<Fr>(b"x"),
            t2.challenge_field::<Fr>(b"x")
        );
    }

    #[test]
    fn label_and_data_are_framed() {
        // ("ab", "c") must differ from ("a", "bc") — length framing.
        let mut t1 = Transcript::new(b"d");
        let mut t2 = Transcript::new(b"d");
        t1.absorb_bytes(b"ab", b"c");
        t2.absorb_bytes(b"a", b"bc");
        assert_ne!(t1.challenge_bytes(b"x"), t2.challenge_bytes(b"x"));
    }

    #[test]
    fn repeated_challenges_differ() {
        let mut t = Transcript::new(b"d");
        let a = t.challenge_field::<Fr>(b"x");
        let b = t.challenge_field::<Fr>(b"x");
        assert_ne!(a, b);
    }

    #[test]
    fn indices_respect_bound() {
        let mut t = Transcript::new(b"d");
        let idx = t.challenge_indices(b"cols", 100, 37);
        assert_eq!(idx.len(), 100);
        assert!(idx.iter().all(|&i| i < 37));
        // Should hit most residues for a healthy stream.
        let distinct: std::collections::HashSet<_> = idx.iter().collect();
        assert!(distinct.len() > 20);
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn zero_bound_panics() {
        let mut t = Transcript::new(b"d");
        let _ = t.challenge_indices(b"x", 1, 0);
    }

    #[test]
    fn absorb_fields_matches_individual_framing_difference() {
        // A vector absorb is framed once; must differ from two separate absorbs.
        let vals = [Fr::from(1u64), Fr::from(2u64)];
        let mut t1 = Transcript::new(b"d");
        t1.absorb_fields(b"v", &vals);
        let mut t2 = Transcript::new(b"d");
        t2.absorb_field(b"v", &vals[0]);
        t2.absorb_field(b"v", &vals[1]);
        assert_ne!(t1.challenge_bytes(b"x"), t2.challenge_bytes(b"x"));
    }
}
