//! Prints which body [`batchzk_hash::compress`] dispatches to on this host
//! and the host cost of a SHA-256 block, in ns, through each entry: the
//! portable body, the dispatched single-block call (what a Merkle node
//! pays), and [`batchzk_hash::compress_blocks`] over 2-, 16- and 129-block
//! messages (129 blocks is an `orion-batch` codeword column) — the table to
//! hold against the parent commit's before touching either body (build it
//! on both commits, copy the parent's binary out of `target/release/examples`
//! and alternate the two; this host has slow phases lasting minutes).
//!
//! ```text
//! cargo run --release --offline -p batchzk-hash --example sha_blocks
//! ```

use std::hint::black_box;
use std::time::Instant;

use batchzk_field::{RngCore, SplitMix64};
use batchzk_hash::{compress, compress_blocks, compress_kernel, compress_portable, H0};

/// Blocks hashed per run: a multiple of every message length below.
const BLOCKS: usize = 2 * 16 * 129;
const RUNS: usize = 200;

/// Fastest of [`RUNS`] passes of `f` over `data`, in ns per block — what
/// the code costs on a quiet core.
fn ns_per_block(data: &[u8], f: impl Fn(&[u8]) -> u32) -> f64 {
    let fastest = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(f(black_box(data)));
            start.elapsed()
        })
        .min()
        .expect("RUNS > 0");
    fastest.as_secs_f64() * 1e9 / BLOCKS as f64
}

/// Hashes `data` as messages of `len` blocks, one `each` call per message,
/// every message from `H0` and folded into the result so none is dropped.
fn messages(data: &[u8], len: usize, each: impl Fn(&mut [u32; 8], &[u8])) -> u32 {
    data.chunks_exact(64 * len).fold(0, |fold, message| {
        let mut state = H0;
        each(&mut state, message);
        fold ^ state[0]
    })
}

fn main() {
    let mut data = vec![0u8; 64 * BLOCKS];
    SplitMix64::seed_from_u64(24).fill_bytes(&mut data);

    println!("`compress` dispatches to: {}", compress_kernel());
    println!();
    println!("| entry | blocks per call | ns per block |");
    println!("|---|---|---|");
    let single = |body: fn(&mut [u32; 8], &[u8; 64])| {
        move |data: &[u8]| {
            messages(data, 1, |state, block| {
                body(state, block.try_into().expect("one block"))
            })
        }
    };
    println!(
        "| compress_portable | 1 | {:.1} |",
        ns_per_block(&data, single(compress_portable))
    );
    println!(
        "| compress | 1 | {:.1} |",
        ns_per_block(&data, single(compress))
    );
    for len in [2, 16, 129] {
        println!(
            "| compress_blocks | {len} | {:.1} |",
            ns_per_block(&data, |data| messages(data, len, compress_blocks))
        );
    }
}
