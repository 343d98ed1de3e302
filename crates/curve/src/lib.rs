//! # batchzk-curve
//!
//! BN254 G1 group arithmetic and multi-scalar multiplication — the
//! substrate of the Groth16-style *baseline* systems (Libsnark,
//! Bellperson) that Tables 7 and 8 of the paper compare against. BatchZK's
//! own protocol never touches a curve; this crate exists so the "old
//! protocol" columns are backed by real arithmetic rather than guesses.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod g1;
mod msm;

pub use g1::{G1Affine, G1Projective};
pub use msm::{msm, msm_group_op_count, window_size, MsmBases};
