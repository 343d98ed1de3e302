//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The block compression function is exposed directly because the Merkle
//! modules hash fixed 64-byte inputs (two 32-byte children): the paper's
//! kernel keeps the sixteen 32-bit message chunks in registers and runs the
//! 64 round operations without touching memory (§3.1). The portable body
//! mirrors that structure — a `[u32; 8]` state and a `[u32; 16]` schedule
//! window — and is what the GPU cost model charges per hash.
//!
//! Every block goes through one dispatch, `run`, which picks a kernel for
//! each `Call` where its instructions are detected at run time: one
//! message's blocks ([`compress_blocks`]) on the CPU's SHA extensions
//! (`x86_64` with `sha`, `sse4.1` and `ssse3`), and sixteen equal-length
//! messages at once ([`sha256_each`], [`hash_blocks`]) on the 16-lane
//! AVX-512 kernel (`avx512f` and `avx512bw`), one message per 32-bit lane
//! as the paper's kernel runs one per GPU thread. Where a kernel is absent
//! the portable body runs one block, and [`sha256`] one message, at a
//! time. There is no option that selects; the portable body and the
//! per-message path stay as the fallbacks and as the oracles the tests
//! hold the kernels to.

/// The SHA-256 initial hash value (FIPS 180-4 §5.3.3).
pub const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The 64 round constants (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// Applies the SHA-256 compression function to one 64-byte block.
#[inline]
pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    compress_blocks(state, block);
}

/// Messages per call of the lane kernel: one per 32-bit vector lane.
pub(crate) const LANES: usize = 16;

/// One request to a kernel.
enum Call<'a> {
    /// One state and a message's whole blocks ([`compress_blocks`]).
    Blocks(&'a mut [u32; 8], &'a [u8]),
    /// Sixteen digests, each lane hashing from [`H0`] its whole blocks of
    /// the first part and then of the second (a message and its padded
    /// tail).
    Lanes(&'a mut [Digest; LANES], &'a [[&'a [u8]; LANES]; 2]),
}

/// The dispatch: runs `call` on its kernel and returns `true`, or returns
/// `false` having written nothing where this CPU lacks the instructions.
#[cfg(target_arch = "x86_64")]
fn run(call: Call<'_>) -> bool {
    let detected = match call {
        Call::Blocks(..) => crate::sha_ni::available(),
        Call::Lanes(..) => crate::avx512::available(),
    };
    if !detected {
        return false;
    }
    #[allow(unsafe_code)]
    // SAFETY: `detected` has just seen, on this CPU, every target feature
    // the kernel this call's variant goes to is compiled with.
    unsafe {
        match call {
            Call::Blocks(state, blocks) => crate::sha_ni::compress_blocks(state, blocks),
            Call::Lanes(digests, parts) => crate::avx512::compress_lanes(digests, parts),
        }
    }
    true
}

/// No kernel is built off `x86_64`: every call takes its fallback.
#[cfg(not(target_arch = "x86_64"))]
fn run(call: Call<'_>) -> bool {
    match call {
        Call::Blocks(_state, _blocks) => false,
        Call::Lanes(_digests, _parts) => false,
    }
}

/// Applies the compression function to each 64-byte block of `blocks` in
/// order — a whole message pays the kernel dispatch, and the hardware
/// kernel its state pack / unpack, once.
///
/// # Panics
/// Panics if `blocks.len()` is not a multiple of 64.
#[inline]
pub fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(
        blocks.len().is_multiple_of(64),
        "compress_blocks takes whole blocks"
    );
    if run(Call::Blocks(state, blocks)) {
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_portable(state, block.try_into().unwrap());
    }
}

/// The body [`compress`] and [`compress_blocks`] run on this host:
/// `"sha-ni"` or `"portable"`.
pub fn compress_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::available() {
        return "sha-ni";
    }
    "portable"
}

/// The body [`sha256_each`] and [`hash_blocks`] run each group of sixteen
/// messages on, on this host: `"avx512-x16"` or `"per-message"`.
pub fn lanes_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::avx512::available() {
        return "avx512-x16";
    }
    "per-message"
}

/// Hashes sixteen messages of one length into `digests` on the lane
/// kernel: their whole blocks from [`H0`], then, when `padded`, the one or
/// two blocks of each message's tail, its `0x80` and its bit length (without
/// `padded` each message must be whole blocks: raw compressions). Returns
/// `false`, having written nothing, where this CPU lacks the kernel.
fn hash_lanes(digests: &mut [Digest; LANES], messages: [&[u8]; LANES], padded: bool) -> bool {
    let len = messages[0].len();
    let (whole, rest) = (len - len % 64, len % 64);
    let tails: [[u8; 128]; LANES];
    let tail_parts = if padded {
        let tail_len = if rest < 56 { 64 } else { 128 };
        tails = messages.map(|message| {
            let mut tail = [0u8; 128];
            tail[..rest].copy_from_slice(&message[whole..]);
            tail[rest] = 0x80;
            tail[tail_len - 8..tail_len].copy_from_slice(&(len as u64 * 8).to_be_bytes());
            tail
        });
        tails.each_ref().map(|tail| &tail[..tail_len])
    } else {
        [&[][..]; LANES]
    };
    let parts = [messages.map(|message| &message[..whole]), tail_parts];
    run(Call::Lanes(digests, &parts))
}

/// One digest per message: every whole group of sixteen on the lane kernel
/// ([`hash_lanes`], `padded` as there) where this CPU has it, the rest one
/// at a time through `each`.
fn digests_of<M: AsRef<[u8]>>(
    messages: &[M],
    padded: bool,
    each: impl Fn(&M) -> Digest,
) -> Vec<Digest> {
    let mut digests = vec![[0u8; 32]; messages.len()];
    for (out, group) in digests.chunks_mut(LANES).zip(messages.chunks(LANES)) {
        let on_lanes = match (out.try_into(), <&[M; LANES]>::try_from(group)) {
            (Ok(out), Ok(group)) => hash_lanes(out, group.each_ref().map(M::as_ref), padded),
            _ => false,
        };
        if !on_lanes {
            for (digest, message) in out.iter_mut().zip(group) {
                *digest = each(message);
            }
        }
    }
    digests
}

/// The portable compression function: the fallback where the SHA extensions
/// are absent, and the oracle the hardware kernel is tested against (public
/// only so `examples/sha_blocks.rs` can time it beside the dispatched one).
///
/// The sixteen schedule words live in a fixed-size array — the software
/// analogue of the register-resident chunks in the paper's GPU kernel.
#[doc(hidden)]
#[inline]
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (i, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(block[i * 4..(i + 1) * 4].try_into().unwrap());
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for t in 0..64 {
        let wt = if t < 16 {
            w[t]
        } else {
            // Rolling 16-word window instead of a 64-word schedule array.
            let s0 = small_sigma0(w[(t + 1) % 16]);
            let s1 = small_sigma1(w[(t + 14) % 16]);
            let next = w[t % 16]
                .wrapping_add(s0)
                .wrapping_add(w[(t + 9) % 16])
                .wrapping_add(s1);
            w[t % 16] = next;
            next
        };
        let t1 = h
            .wrapping_add(big_sigma1(e))
            .wrapping_add(ch(e, f, g))
            .wrapping_add(K[t])
            .wrapping_add(wt);
        let t2 = big_sigma0(a).wrapping_add(maj(a, b, c));
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[inline(always)]
fn ch(x: u32, y: u32, z: u32) -> u32 {
    (x & y) ^ (!x & z)
}
#[inline(always)]
fn maj(x: u32, y: u32, z: u32) -> u32 {
    (x & y) ^ (x & z) ^ (y & z)
}
#[inline(always)]
fn big_sigma0(x: u32) -> u32 {
    x.rotate_right(2) ^ x.rotate_right(13) ^ x.rotate_right(22)
}
#[inline(always)]
fn big_sigma1(x: u32) -> u32 {
    x.rotate_right(6) ^ x.rotate_right(11) ^ x.rotate_right(25)
}
#[inline(always)]
fn small_sigma0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}
#[inline(always)]
fn small_sigma1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// Incremental SHA-256 hasher over arbitrary-length input.
///
/// # Examples
///
/// ```
/// use batchzk_hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let want = 64 - self.buffered;
            let take = want.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            let block = self.buffer;
            compress(&mut self.state, &block);
        }
        // Every whole block of the rest in one call, the tail into the
        // (now empty) buffer.
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros to byte 56 of the block, 8-byte big-endian
        // bit length — built in place rather than streamed byte-by-byte.
        self.buffer[self.buffered] = 0x80;
        if self.buffered >= 56 {
            // No room for the length words: pad out this block, compress,
            // and finish in a fresh all-zero block.
            self.buffer[self.buffered + 1..].fill(0);
            let block = self.buffer;
            compress(&mut self.state, &block);
            self.buffer.fill(0);
        } else {
            self.buffer[self.buffered + 1..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        compress(&mut self.state, &block);
        digest_of(&self.state)
    }
}

/// The digest a final state stands for: its eight words, big-endian.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot convenience hash.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes exactly one 64-byte block with **no padding** — the raw
/// Merkle-damgård step used for Merkle tree nodes (512-bit block in, 256-bit
/// state out). This is the operation counted by the paper's Merkle module.
#[inline]
pub fn hash_block(block: &[u8; 64]) -> Digest {
    let mut state = H0;
    compress(&mut state, block);
    digest_of(&state)
}

/// Hashes the concatenation of two 32-byte children into a parent digest.
#[inline]
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(left);
    block[32..].copy_from_slice(right);
    hash_block(&block)
}

/// Batch [`hash_block`]: the leaf layer of a Merkle tree over 64-byte
/// blocks, or a tree level as its contiguous `left ‖ right` blocks —
/// sixteen at a time on the lane kernel where this CPU has it, the rest
/// one at a time.
pub fn hash_blocks(blocks: &[[u8; 64]]) -> Vec<Digest> {
    digests_of(blocks, false, hash_block)
}

/// [`sha256`] of each message, for messages of one length: sixteen at a
/// time on the lane kernel where this CPU has it (their whole blocks and
/// their shared padded tail), the rest one at a time.
///
/// # Examples
///
/// ```
/// use batchzk_hash::{sha256, sha256_each};
///
/// let columns: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 100]).collect();
/// let messages: Vec<&[u8]> = columns.iter().map(|c| &c[..]).collect();
/// let digests = sha256_each(&messages);
/// assert!(digests.iter().zip(&messages).all(|(d, m)| *d == sha256(m)));
/// ```
///
/// # Panics
/// Panics if the messages differ in length.
pub fn sha256_each(messages: &[&[u8]]) -> Vec<Digest> {
    let len = messages.first().map_or(0, |m| m.len());
    assert!(
        messages.iter().all(|m| m.len() == len),
        "sha256_each takes messages of one length"
    );
    digests_of(messages, true, |message| sha256(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::{RngCore, SplitMix64};

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    type Compress = fn(&mut [u32; 8], &[u8; 64]);

    /// Both bodies of the block function: the portable one always, the
    /// hardware one — reached through the public dispatch — where this
    /// host has it.
    fn bodies() -> Vec<(&'static str, Compress)> {
        let mut bodies = vec![("portable", compress_portable as Compress)];
        if compress_kernel() == "portable" {
            println!("sha extension absent: portable only");
        } else {
            bodies.push((compress_kernel(), compress as Compress));
        }
        bodies
    }

    /// SHA-256 of `chunks` concatenated, padded here and compressed one
    /// block at a time by `body` — so a vector tests that body alone.
    fn digest_with(body: Compress, chunks: &[&[u8]]) -> Digest {
        let mut message = chunks.concat();
        let bit_len = message.len() as u64 * 8;
        message.push(0x80);
        // Zeros up to eight bytes short of a block boundary.
        message.resize(message.len() + (120 - message.len() % 64) % 64, 0);
        message.extend_from_slice(&bit_len.to_be_bytes());
        let mut state = H0;
        for block in message.chunks_exact(64) {
            body(&mut state, block.try_into().unwrap());
        }
        digest_of(&state)
    }

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST CAVP known-answer tests.
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (message, expect) in vectors {
            assert_eq!(hex(&sha256(message)), expect);
            for (name, body) in bodies() {
                assert_eq!(hex(&digest_with(body, &[message])), expect, "{name}");
            }
        }
    }

    #[test]
    fn million_a() {
        let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), expect);
        for (name, body) in bodies() {
            assert_eq!(
                hex(&digest_with(body, &[&chunk[..]; 1000])),
                expect,
                "{name}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..301u32).map(|i| i as u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 128, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split={split}");
        }
    }

    #[test]
    fn update_streams_whole_blocks_through_compress_blocks() {
        // Three blocks and a tail in one call: the blocks go through the
        // multi-block entry in one piece, the tail waits in the buffer.
        let data: Vec<u8> = (0..3 * 64 + 17).map(|i| (i * 7) as u8).collect();
        let mut h = Sha256::new();
        h.update(&data);
        let mut state = H0;
        compress_blocks(&mut state, &data[..3 * 64]);
        assert_eq!((h.state, h.buffered), (state, 17));
        assert_eq!(h.buffer[..17], data[3 * 64..]);
        // And with a partly filled buffer in front of them.
        let mut h = Sha256::new();
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!((h.state, h.buffered), (state, 17));
        for (name, body) in bodies() {
            assert_eq!(h.clone().finalize(), digest_with(body, &[&data]), "{name}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths straddling the padding boundary (55/56/57, 63/64/65).
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            let expect = sha256(&data);
            assert_eq!(h.finalize(), expect, "len={len}");
            for (name, body) in bodies() {
                assert_eq!(digest_with(body, &[&data]), expect, "len={len} {name}");
            }
        }
    }

    #[test]
    fn hash_block_is_single_compression() {
        let block = [7u8; 64];
        let d = hash_block(&block);
        // Must differ from padded sha256 of the same bytes (no finalization).
        assert_ne!(d, sha256(&block));
        // And must be deterministic.
        assert_eq!(d, hash_block(&block));
    }

    #[test]
    fn hash_pair_uses_both_children() {
        let a = [1u8; 32];
        let b = [2u8; 32];
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
        assert_ne!(hash_pair(&a, &b), hash_pair(&a, &a));
    }

    fn pattern_block(seed: u8) -> [u8; 64] {
        let mut block = [0u8; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = seed
                .wrapping_mul(67)
                .wrapping_add((i as u8).wrapping_mul(13));
        }
        block
    }

    /// `count` seeded messages of `len` bytes, different in every lane.
    fn messages(count: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut message = vec![0u8; len];
                rng.fill_bytes(&mut message);
                message
            })
            .collect()
    }

    fn lanes_or_note() {
        if lanes_kernel() == "per-message" {
            println!("avx512 absent: per-message only");
        }
    }

    #[test]
    fn sha256_each_is_sha256_of_each() {
        // Counts around and between groups of sixteen, at lengths with a
        // one-block tail (0, 1, 55, 64, 119, and 1042 / 4114 / 8210 /
        // 16 402: the workloads' column messages) and a two-block one (56,
        // 63, 120).
        lanes_or_note();
        let lens = [0, 1, 55, 56, 63, 64, 119, 120, 1042, 4114, 8210, 16_402];
        for (seed, len) in lens.into_iter().enumerate() {
            for count in [0, 1, 15, 16, 17, 33, 64] {
                let owned = messages(count, len, seed as u64);
                let messages: Vec<&[u8]> = owned.iter().map(|m| &m[..]).collect();
                let expect: Vec<Digest> = messages.iter().map(|m| sha256(m)).collect();
                assert_eq!(sha256_each(&messages), expect, "count={count} len={len}");
            }
        }
    }

    #[test]
    fn sha256_each_runs_the_fips_vectors_in_every_lane() {
        lanes_or_note();
        for (message, expect) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            for count in [16, 32] {
                let digests = sha256_each(&vec![message; count]);
                for (lane, digest) in digests.iter().enumerate() {
                    assert_eq!(hex(digest), expect, "lane {lane} of {count}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "messages of one length")]
    fn sha256_each_rejects_unequal_lengths() {
        let mut messages = vec![&[0u8; 64][..]; 16];
        messages[9] = &[0u8; 63];
        sha256_each(&messages);
    }

    #[test]
    fn hash_blocks_is_hash_block_of_each() {
        lanes_or_note();
        let owned = messages(40, 64, 0x40);
        let blocks: Vec<[u8; 64]> = owned.iter().map(|b| b[..].try_into().unwrap()).collect();
        for n in 1..=40 {
            let expect: Vec<Digest> = blocks[..n].iter().map(hash_block).collect();
            assert_eq!(hash_blocks(&blocks[..n]), expect, "n={n}");
        }
    }

    #[test]
    fn hash_blocks_matches_scalar_for_all_tail_lengths() {
        // `benchmark/` and `MerkleTree` rely on this being the plain map.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 11, 16] {
            let blocks: Vec<[u8; 64]> = (0..n).map(|i| pattern_block(i as u8)).collect();
            let expect: Vec<Digest> = blocks.iter().map(hash_block).collect();
            assert_eq!(hash_blocks(&blocks), expect, "n={n}");
        }
    }
}
