//! Prints which body [`batchzk_hash::compress`] dispatches to on this host,
//! which body [`batchzk_hash::sha256_each`] runs sixteen messages at a time
//! on, and the host cost of a SHA-256 block, in ns, through each entry: the
//! portable body, the dispatched single-block call (what a Merkle node
//! pays), [`batchzk_hash::compress_blocks`] over 2-, 16-, 129- and
//! 257-block messages (129 blocks is an `orion-batch` codeword column, 257
//! a `vml-vgg16` one), and the batch entries over the same shapes:
//! [`batchzk_hash::hash_blocks`] on single blocks (a tree level) and
//! `sha256_each` on sixteen messages of 129 and 257 blocks — the table to
//! hold against the parent commit's before touching any body (build it on
//! both commits, copy the parent's binary out of `target/release/examples`
//! and alternate the two; this host has slow phases lasting minutes).
//!
//! With `--check` it first hashes the same shapes through the batch
//! entries and one message at a time, and exits 1 on any difference.
//!
//! ```text
//! cargo run --release --offline -p batchzk-hash --example sha_blocks [-- --check]
//! ```

use std::hint::black_box;
use std::time::Instant;

use batchzk_field::{RngCore, SplitMix64};
use batchzk_hash::{
    compress, compress_blocks, compress_kernel, compress_portable, hash_block, hash_blocks,
    lanes_kernel, sha256, sha256_each, Digest, H0,
};

/// Blocks of data: sixteen `vml-vgg16` columns, and a multiple of sixteen
/// messages of every length below but 129, which runs over the first
/// `16 · 129` blocks.
const BLOCKS: usize = 16 * 257;
const RUNS: usize = 200;

/// Fastest of [`RUNS`] passes of `f` over the first whole multiple of
/// `16 · len` blocks of `data`, in ns per block — what the code costs on a
/// quiet core.
fn ns_per_block(data: &[u8], len: usize, f: impl Fn(&[u8]) -> u32) -> f64 {
    let data = &data[..data.len() / (64 * 16 * len) * (64 * 16 * len)];
    let fastest = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(f(black_box(data)));
            start.elapsed()
        })
        .min()
        .expect("RUNS > 0");
    fastest.as_secs_f64() * 1e9 / (data.len() / 64) as f64
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

/// `data` as messages of `len` blocks.
fn split(data: &[u8], len: usize) -> Vec<&[u8]> {
    data.chunks_exact(64 * len).collect()
}

/// The first word of every digest, folded.
fn fold(digests: &[Digest]) -> u32 {
    digests.iter().fold(0, |fold, d| fold ^ d[0] as u32)
}

/// Message lengths in blocks the batch rows run: a tree level's single
/// blocks, `orion-batch`'s and `vml-vgg16`'s columns.
const BATCH_LENS: [usize; 3] = [1, 129, 257];

/// The batch entries against one message at a time on seeded data; the
/// shapes that differ.
fn check() -> Vec<String> {
    let mut data = vec![0u8; 33 * (64 * 257 + 55)];
    SplitMix64::seed_from_u64(40).fill_bytes(&mut data);
    let mut differ = Vec::new();
    let blocks: &[[u8; 64]] = data.as_chunks().0;
    for n in [15, 16, 17, 64, 1000] {
        if hash_blocks(&blocks[..n]) != blocks[..n].iter().map(hash_block).collect::<Vec<_>>() {
            differ.push(format!("hash_blocks over {n} blocks"));
        }
    }
    for len in BATCH_LENS {
        // Whole blocks, and every tail: none, one block's, two blocks'.
        for bytes in [64 * len, 64 * len - 9, 64 * len - 1, 64 * len + 55] {
            let messages: Vec<&[u8]> = data.chunks_exact(bytes).take(33).collect();
            let expect: Vec<Digest> = messages.iter().map(|m| sha256(m)).collect();
            if sha256_each(&messages) != expect {
                differ.push(format!("sha256_each over 33 messages of {bytes} bytes"));
            }
        }
    }
    differ
}

fn main() {
    let mut data = vec![0u8; 64 * BLOCKS];
    SplitMix64::seed_from_u64(24).fill_bytes(&mut data);

    println!("`compress` dispatches to: {}", compress_kernel());
    println!("16 messages at a time dispatch to: {}", lanes_kernel());
    if std::env::args().any(|arg| arg == "--check") {
        let differ = check();
        if !differ.is_empty() {
            for shape in differ {
                println!("batch and per-message digests differ: {shape}");
            }
            std::process::exit(1);
        }
        println!("batch entries match per-message hashing on every shape");
    }
    println!();
    println!("| entry | blocks per message | ns per block |");
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
        ns_per_block(&data, 1, single(compress_portable))
    );
    println!(
        "| compress | 1 | {:.1} |",
        ns_per_block(&data, 1, single(compress))
    );
    for len in [2, 16, 129, 257] {
        println!(
            "| compress_blocks | {len} | {:.1} |",
            ns_per_block(&data, len, |data| messages(data, len, compress_blocks))
        );
    }
    println!(
        "| hash_blocks | 1 | {:.1} |",
        ns_per_block(&data, 1, |data| fold(&hash_blocks(data.as_chunks().0)))
    );
    for len in &BATCH_LENS[1..] {
        // Each message's whole blocks and its one-block padded tail, the
        // tail charged to the message like `compress_blocks` is not.
        println!(
            "| sha256_each (16 at a time) | {len} + tail | {:.1} |",
            ns_per_block(&data, *len, |data| split(data, *len)
                .chunks(16)
                .fold(0, |f, group| f ^ fold(&sha256_each(group))))
        );
    }
}
