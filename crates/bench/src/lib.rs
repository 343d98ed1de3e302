//! # batchzk-bench
//!
//! The benchmark harness: runners that regenerate every table and figure of
//! the paper's evaluation (the `tables` binary) and the Groth16-style
//! baseline models (Libsnark/Bellperson columns).
//!
//! ```text
//! cargo run -p batchzk-bench --release --bin tables -- all
//! cargo run -p batchzk-bench --release --bin tables -- table3 --medium
//! cargo run -p batchzk-bench --release --bin tables -- table7 --paper
//! ```

pub mod baseline;
pub mod experiments;
pub mod scale;

pub use scale::Scale;
