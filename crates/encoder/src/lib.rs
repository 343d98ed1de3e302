//! # batchzk-encoder
//!
//! The linear-time (Spielman/Brakedown) error-correcting encoder from §2.4
//! and §3.3 of the paper: seeded sparse expander matrices in CSR form, the
//! recursive code flattened into forward/backward phases (the structure the
//! two interconnected GPU pipelines of Figure 6 exploit), and the
//! bucket-sorted warp schedule used to balance SIMD lanes.
//!
//! # Examples
//!
//! ```
//! use batchzk_encoder::{Encoder, EncoderParams};
//! use batchzk_field::{Field, Fr};
//!
//! let enc = Encoder::<Fr>::new(128, EncoderParams::default(), 7);
//! let msg = vec![Fr::ONE; 128];
//! let code = enc.encode(&msg);
//! assert!(code.len() > msg.len());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod code;
mod sparse;

pub use code::{Encoder, EncoderParams, Level};
pub use sparse::{SparseMatrix, WARP_SIZE};

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use batchzk_field::{Field, Fr, RngCore, SplitMix64};

    fn vec_fr(rng: &mut SplitMix64, n: usize) -> Vec<Fr> {
        (0..n).map(|_| Fr::random(rng)).collect()
    }

    #[test]
    fn encoding_linearity() {
        let mut rng = SplitMix64::seed_from_u64(0xE0);
        let enc = Encoder::<Fr>::new(96, EncoderParams::default(), 3);
        for _ in 0..16 {
            let x = vec_fr(&mut rng, 96);
            let y = vec_fr(&mut rng, 96);
            let a = Fr::random(&mut rng);
            let b = Fr::random(&mut rng);
            let combo: Vec<Fr> = x.iter().zip(&y).map(|(p, q)| a * *p + b * *q).collect();
            let ex = enc.encode(&x);
            let ey = enc.encode(&y);
            let ec = enc.encode(&combo);
            for i in 0..enc.codeword_len() {
                assert_eq!(ec[i], a * ex[i] + b * ey[i]);
            }
        }
    }

    #[test]
    fn zero_encodes_to_zero() {
        let mut rng = SplitMix64::seed_from_u64(0xE1);
        for _ in 0..16 {
            let n = rng.gen_range(33..200);
            let enc = Encoder::<Fr>::new(n, EncoderParams::default(), 5);
            let code = enc.encode(&vec![Fr::ZERO; n]);
            assert!(code.iter().all(|c| c.is_zero()));
        }
    }

    #[test]
    fn systematic_prefix() {
        let mut rng = SplitMix64::seed_from_u64(0xE2);
        let enc = Encoder::<Fr>::new(80, EncoderParams::default(), 5);
        for _ in 0..16 {
            let x = vec_fr(&mut rng, 80);
            let code = enc.encode(&x);
            assert_eq!(&code[..80], &x[..]);
        }
    }
}
