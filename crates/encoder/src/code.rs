//! The Spielman/Brakedown linear-time encoder (§2.4, Figure 3).
//!
//! A codeword for a message `x` of length `n` is built recursively:
//!
//! ```text
//! enc(x) = ( x, z, v )        where  y = A_n · x        (|y| = ⌈αn⌉)
//!                                    z = enc(y)
//!                                    v = B_n · z
//! ```
//!
//! `A_n` and `B_n` are sparse expander matrices (bipartite graphs in the
//! paper's Figure 3). The recursion bottoms out at the identity code. As in
//! the paper (§3.3) we flatten the recursion into two *phases*: a forward
//! sweep of `A`-multiplications producing ever-smaller intermediate vectors,
//! and a backward sweep of `B`-multiplications assembling codewords from the
//! smallest scale up — exactly the two interconnected pipelines of Figure 6.

use batchzk_field::Field;
use batchzk_hash::Prg;

use crate::sparse::SparseMatrix;

/// Parameters of the expander code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderParams {
    /// Message-shrink factor per recursion level, as a rational
    /// `alpha_num / alpha_den` (Brakedown uses α ≈ 0.238).
    pub alpha_num: usize,
    /// Denominator of α.
    pub alpha_den: usize,
    /// Target codeword expansion `ρ = rho_num / rho_den` (|enc(x)| ≈ ρ·n).
    pub rho_num: usize,
    /// Denominator of ρ.
    pub rho_den: usize,
    /// Row degree of the `A` matrices.
    pub deg_a: usize,
    /// Row degree of the `B` matrices.
    pub deg_b: usize,
    /// Per-row degree jitter (rows draw their degree from `deg ± jitter`),
    /// modelling the varying vertex degrees of Spielman-style expanders —
    /// the imbalance §3.3's bucket-sorted warp schedule absorbs.
    pub degree_jitter: usize,
    /// Messages of this length or shorter are encoded with the identity.
    pub base_len: usize,
}

impl Default for EncoderParams {
    fn default() -> Self {
        // Brakedown's published parameters: α = 0.238, inverse rate ≈ 1.72,
        // row degrees c_n = 7 and d_n = 10 (both far below the 256 cap that
        // makes byte bucket-sorting work, §3.3).
        Self {
            alpha_num: 238,
            alpha_den: 1000,
            rho_num: 172,
            rho_den: 100,
            deg_a: 7,
            deg_b: 10,
            degree_jitter: 3,
            base_len: 32,
        }
    }
}

impl EncoderParams {
    fn alpha_len(&self, n: usize) -> usize {
        (n * self.alpha_num).div_ceil(self.alpha_den).max(1)
    }

    fn rho_len(&self, n: usize) -> usize {
        (n * self.rho_num).div_ceil(self.rho_den)
    }
}

/// One recursion level of the encoder.
#[derive(Debug, Clone)]
pub struct Level<F> {
    /// `A`: maps the level input (length `n`) down to length `⌈αn⌉`.
    pub a: SparseMatrix<F>,
    /// `B`: maps the recursive codeword `z` to the redundancy tail `v`.
    pub b: SparseMatrix<F>,
    /// Input length at this level.
    pub n: usize,
    /// Length of the recursive codeword `z = enc(A·x)`.
    pub z_len: usize,
    /// Length of the tail `v = B·z`.
    pub v_len: usize,
}

impl<F> Level<F> {
    /// Codeword length produced at this level: `n + z_len + v_len`.
    pub fn out_len(&self) -> usize {
        self.n + self.z_len + self.v_len
    }
}

/// A linear-time encoder instantiated for one message length.
///
/// Construction precomputes all expander matrices from a seed, so encoder
/// instances are deterministic and shared between prover and verifier.
///
/// # Examples
///
/// ```
/// use batchzk_encoder::{Encoder, EncoderParams};
/// use batchzk_field::{Field, Fr};
///
/// let enc = Encoder::<Fr>::new(256, EncoderParams::default(), 42);
/// let msg: Vec<Fr> = (0..256u64).map(Fr::from).collect();
/// let code = enc.encode(&msg);
/// assert_eq!(code.len(), enc.codeword_len());
/// assert_eq!(&code[..256], &msg[..]); // systematic prefix
/// ```
#[derive(Debug, Clone)]
pub struct Encoder<F> {
    params: EncoderParams,
    levels: Vec<Level<F>>,
    message_len: usize,
    codeword_len: usize,
}

impl<F: Field> Encoder<F> {
    /// Builds an encoder for messages of length `message_len`.
    ///
    /// # Panics
    ///
    /// Panics if `message_len == 0`.
    pub fn new(message_len: usize, params: EncoderParams, seed: u64) -> Self {
        assert!(message_len > 0, "message length must be positive");
        let mut levels = Vec::new();
        let mut n = message_len;
        let mut level_idx = 0u64;
        while n > params.base_len {
            let a_out = params.alpha_len(n);
            let z_len = Self::codeword_len_for(a_out, &params);
            // Tail length chosen so the level output is ≈ ρ·n, clamped so it
            // always exists.
            let v_len = params.rho_len(n).saturating_sub(n + z_len).max(1);
            let mut rng_a = Prg::seed_from_u64(
                seed ^ (0x5eed_a000 + level_idx).wrapping_mul(0x9e3779b97f4a7c15),
            );
            let mut rng_b = Prg::seed_from_u64(
                seed ^ (0x5eed_b000 + level_idx).wrapping_mul(0x9e3779b97f4a7c15),
            );
            let a = SparseMatrix::random_jittered(
                a_out,
                n,
                params.deg_a,
                params.degree_jitter,
                &mut rng_a,
            );
            let b = SparseMatrix::random_jittered(
                v_len,
                z_len,
                params.deg_b,
                params.degree_jitter,
                &mut rng_b,
            );
            levels.push(Level {
                a,
                b,
                n,
                z_len,
                v_len,
            });
            n = a_out;
            level_idx += 1;
        }
        let codeword_len = Self::codeword_len_for(message_len, &params);
        Self {
            params,
            levels,
            message_len,
            codeword_len,
        }
    }

    fn codeword_len_for(n: usize, params: &EncoderParams) -> usize {
        if n <= params.base_len {
            return n; // identity code
        }
        let a_out = params.alpha_len(n);
        let z_len = Self::codeword_len_for(a_out, params);
        let v_len = params.rho_len(n).saturating_sub(n + z_len).max(1);
        n + z_len + v_len
    }

    /// The message length this encoder accepts.
    pub fn message_len(&self) -> usize {
        self.message_len
    }

    /// The codeword length this encoder produces.
    pub fn codeword_len(&self) -> usize {
        self.codeword_len
    }

    /// The recursion levels, outermost first.
    pub fn levels(&self) -> &[Level<F>] {
        &self.levels
    }

    /// The configured parameters.
    pub fn params(&self) -> &EncoderParams {
        &self.params
    }

    /// Total non-zeros across all matrices — the `O(N)` work bound, used by
    /// the GPU cost model.
    pub fn total_nnz(&self) -> usize {
        self.levels.iter().map(|l| l.a.nnz() + l.b.nnz()).sum()
    }

    /// Encodes a message: the width-1 case of [`Self::encode_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != self.message_len()`.
    pub fn encode(&self, message: &[F]) -> Vec<F> {
        assert_eq!(message.len(), self.message_len, "message length mismatch");
        let mut code = Vec::with_capacity(self.codeword_len);
        code.extend_from_slice(message);
        code.resize(self.codeword_len, F::ZERO);
        self.encode_batch(1, &mut code);
        code
    }

    /// Encodes `width` messages at once, in place, in the interleaved
    /// layout: `codewords` is `codeword_len × width` with the `width`
    /// symbols of one codeword position contiguous (`codewords[j * width +
    /// w]` is symbol `j` of message `w`). On entry its first `message_len ×
    /// width` entries hold the messages; on return the rest holds the
    /// redundancy, so message `w`'s codeword — equal to [`Self::encode`] of
    /// it — is column `w`.
    ///
    /// A flattened codeword is `x ‖ y_1 ‖ … ‖ y_L ‖ v_{L-1} ‖ … ‖ v_0`
    /// (`y_{l+1} = A_l · y_l`, `y_0 = x`, `v_l = B_l · z_l`): every `A_l`
    /// reads the block just before the one it writes, and every `B_l` reads
    /// the contiguous range `z_l = y_{l+1} ‖ … ‖ v_{l+1}` just before `v_l`.
    /// So both sweeps run on disjoint halves of the one buffer, through
    /// [`SparseMatrix::mul_batch`], with no intermediate vectors.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `codewords.len() != codeword_len × width`.
    pub fn encode_batch(&self, width: usize, codewords: &mut [F]) {
        assert!(width > 0, "batch width must be positive");
        assert_eq!(
            codewords.len(),
            self.codeword_len * width,
            "codeword buffer shape mismatch"
        );
        // Forward sweep: y_{l+1} = A_l · y_l, each block right after its
        // input. `start` is where y_l begins.
        let mut start = 0;
        for level in &self.levels {
            let (input, output) = codewords[start * width..].split_at_mut(level.n * width);
            level
                .a
                .mul_batch(width, input, &mut output[..level.a.rows() * width]);
            start += level.n;
        }
        // Backward sweep, innermost level first: v_l = B_l · z_l, written
        // right after z_l, which begins where y_{l+1} does.
        for level in self.levels.iter().rev() {
            let (z, v) = codewords[start * width..].split_at_mut(level.z_len * width);
            level.b.mul_batch(width, z, &mut v[..level.v_len * width]);
            start -= level.n;
        }
    }

    /// Phase 1 (Figure 6, first pipeline): the chain of `A`-multiplications.
    /// Returns the intermediate vectors `y_1, ..., y_L` (`y_{i+1} = A_i·y_i`,
    /// with `y_0` the message itself, not included). The stage-split
    /// reference the batch kernel is tested against.
    #[cfg(test)]
    fn forward_pass(&self, message: &[F]) -> Vec<Vec<F>> {
        let mut ys: Vec<Vec<F>> = Vec::with_capacity(self.levels.len());
        let mut current = message;
        for level in &self.levels {
            let next = level.a.mul_vec(current);
            ys.push(next);
            current = ys.last().expect("just pushed");
        }
        ys
    }

    /// Phase 2 (Figure 6, second pipeline): assembles codewords from the
    /// deepest level outward using the `B`-multiplications, in reverse order
    /// — the non-recursive formulation of §3.3.
    ///
    /// # Panics
    ///
    /// Panics if `ys` does not match `forward_pass`'s shape.
    #[cfg(test)]
    fn backward_pass(&self, message: &[F], ys: &[Vec<F>]) -> Vec<F> {
        assert_eq!(ys.len(), self.levels.len(), "phase-1 output shape mismatch");
        // Deepest codeword: identity on the last intermediate vector (or the
        // message itself when there are no levels).
        let mut z: Vec<F> = match ys.last() {
            Some(last) => last.clone(),
            None => return message.to_vec(),
        };
        // Walk levels from innermost to outermost.
        for (idx, level) in self.levels.iter().enumerate().rev() {
            debug_assert_eq!(z.len(), level.z_len);
            let v = level.b.mul_vec(&z);
            let input: &[F] = if idx == 0 { message } else { &ys[idx - 1] };
            let mut code = Vec::with_capacity(level.out_len());
            code.extend_from_slice(input);
            code.extend_from_slice(&z);
            code.extend_from_slice(&v);
            z = code;
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;
    use batchzk_hash::Prg;

    fn rand_msg(n: usize, seed: u64) -> Vec<Fr> {
        let mut rng = Prg::seed_from_u64(seed);
        (0..n).map(|_| Fr::random(&mut rng)).collect()
    }

    #[test]
    fn encode_is_systematic() {
        let enc = Encoder::<Fr>::new(200, EncoderParams::default(), 7);
        let msg = rand_msg(200, 1);
        let code = enc.encode(&msg);
        assert_eq!(&code[..200], &msg[..]);
    }

    #[test]
    fn encode_is_deterministic_given_seed() {
        let msg = rand_msg(150, 2);
        let a = Encoder::<Fr>::new(150, EncoderParams::default(), 9).encode(&msg);
        let b = Encoder::<Fr>::new(150, EncoderParams::default(), 9).encode(&msg);
        assert_eq!(a, b);
        let c = Encoder::<Fr>::new(150, EncoderParams::default(), 10).encode(&msg);
        assert_ne!(a, c);
    }

    #[test]
    fn encode_is_linear() {
        let enc = Encoder::<Fr>::new(128, EncoderParams::default(), 3);
        let x = rand_msg(128, 4);
        let y = rand_msg(128, 5);
        let mut rng = Prg::seed_from_u64(6);
        let c = Fr::random(&mut rng);
        let combo: Vec<Fr> = x.iter().zip(&y).map(|(a, b)| *a + c * *b).collect();
        let ex = enc.encode(&x);
        let ey = enc.encode(&y);
        let ec = enc.encode(&combo);
        for i in 0..enc.codeword_len() {
            assert_eq!(ec[i], ex[i] + c * ey[i], "position {i}");
        }
    }

    #[test]
    fn expansion_factor_near_rho() {
        for n in [64usize, 256, 1024, 4096] {
            let enc = Encoder::<Fr>::new(n, EncoderParams::default(), 1);
            let ratio = enc.codeword_len() as f64 / n as f64;
            assert!(
                (1.3..=2.2).contains(&ratio),
                "n={n} expansion {ratio} out of expected band"
            );
        }
    }

    #[test]
    fn base_case_is_identity() {
        let enc = Encoder::<Fr>::new(16, EncoderParams::default(), 1);
        assert!(enc.levels().is_empty());
        let msg = rand_msg(16, 7);
        assert_eq!(enc.encode(&msg), msg);
        assert_eq!(enc.codeword_len(), 16);
    }

    #[test]
    fn distance_smoke_distinct_messages_far_apart() {
        // Random linear codes from expanders have large distance w.h.p.;
        // as a smoke test, two random distinct messages must differ in a
        // sizeable fraction of positions.
        let enc = Encoder::<Fr>::new(512, EncoderParams::default(), 11);
        let x = rand_msg(512, 8);
        let y = rand_msg(512, 9);
        let ex = enc.encode(&x);
        let ey = enc.encode(&y);
        let differing = ex.iter().zip(&ey).filter(|(a, b)| a != b).count();
        assert!(
            differing > enc.codeword_len() / 20,
            "only {differing} of {} positions differ",
            enc.codeword_len()
        );
    }

    #[test]
    fn forward_backward_matches_encode() {
        let enc = Encoder::<Fr>::new(300, EncoderParams::default(), 13);
        let msg = rand_msg(300, 10);
        let ys = enc.forward_pass(&msg);
        assert_eq!(enc.backward_pass(&msg, &ys), enc.encode(&msg));
        // Intermediate shapes shrink by roughly alpha per level.
        for w in ys.windows(2) {
            assert!(w[1].len() < w[0].len());
        }
    }

    #[test]
    fn batch_encode_matches_per_message_paths_at_every_width() {
        // Message lengths: identity code (no levels), one just past the
        // base case, and the PCS row lengths. The stage-split path
        // (`forward_pass` → `backward_pass`, one `mul_vec` per matrix) is
        // the independent reference; `encode` is the batch's width-1 case.
        for n in [16usize, 33, 200, 256] {
            let enc = Encoder::<Fr>::new(n, EncoderParams::default(), 29);
            let len = enc.codeword_len();
            for width in [1usize, 3, 8, 32, 64, 256] {
                let msgs: Vec<Vec<Fr>> = (0..width)
                    .map(|w| rand_msg(n, (n * 100 + w) as u64))
                    .collect();
                let mut buf = vec![Fr::ZERO; len * width];
                for (w, msg) in msgs.iter().enumerate() {
                    for (j, &m) in msg.iter().enumerate() {
                        buf[j * width + w] = m;
                    }
                }
                enc.encode_batch(width, &mut buf);
                for (w, msg) in msgs.iter().enumerate() {
                    let staged = enc.backward_pass(msg, &enc.forward_pass(msg));
                    assert_eq!(enc.encode(msg), staged, "n={n} w={w}");
                    let column: Vec<Fr> = (0..len).map(|j| buf[j * width + w]).collect();
                    assert_eq!(column, staged, "n={n} width={width} w={w}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn batch_encode_wrong_buffer_shape_panics() {
        let enc = Encoder::<Fr>::new(100, EncoderParams::default(), 1);
        let mut buf = vec![Fr::ZERO; enc.codeword_len() * 2 - 1];
        enc.encode_batch(2, &mut buf);
    }

    #[test]
    fn linear_work_bound() {
        // total_nnz must grow linearly: nnz(2n) < 3 * nnz(n).
        let small = Encoder::<Fr>::new(1024, EncoderParams::default(), 1).total_nnz();
        let large = Encoder::<Fr>::new(2048, EncoderParams::default(), 1).total_nnz();
        assert!(large < small * 3, "nnz {small} -> {large} superlinear");
        assert!(large > small, "work must grow with n");
    }

    #[test]
    fn level_shapes_are_consistent() {
        let enc = Encoder::<Fr>::new(2000, EncoderParams::default(), 17);
        let mut expect_n = 2000;
        for level in enc.levels() {
            assert_eq!(level.n, expect_n);
            assert_eq!(level.a.cols(), level.n);
            assert_eq!(level.b.cols(), level.z_len);
            assert_eq!(level.b.rows(), level.v_len);
            expect_n = level.a.rows();
        }
        assert!(expect_n <= enc.params().base_len);
        // Outermost level's out_len equals the codeword length.
        assert_eq!(enc.levels()[0].out_len(), enc.codeword_len());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_message_length_panics() {
        let enc = Encoder::<Fr>::new(100, EncoderParams::default(), 1);
        let _ = enc.encode(&[Fr::ONE; 99]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        let _ = Encoder::<Fr>::new(0, EncoderParams::default(), 1);
    }
}
