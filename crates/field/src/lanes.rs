//! The one seam between the lane hooks of `declare_field!` fields and the
//! kernels.
//!
//! Each hook hands the whole blocks of eight it can to a kernel as one
//! [`Call`] through [`run`] ([`head`] cuts them off) and the rest — the
//! `len % 8` tail, or all of it when no kernel ran — to its scalar body,
//! which is also its oracle. A shape the scalar body would refuse goes to
//! it whole, so it panics where it always has. Off x86_64 no kernel is
//! built and every call runs the scalar body.

use core::sync::atomic::{AtomicUsize, Ordering};

use crate::{Fq, Fr, MontLimbs};

/// Field elements per block: one per 64-bit vector lane.
pub(crate) const LANES: usize = 8;

/// A block of eight elements.
pub(crate) type Block<F> = [F; LANES];

/// Whole blocks of elements.
pub(crate) type Blocks<'a, F> = &'a [Block<F>];

/// A table's two halves, as whole blocks.
pub(crate) type Halves<'a, F> = [Blocks<'a, F>; 2];

/// A field whose elements are `#[repr(transparent)]` over four `u64`
/// limbs, as `declare_field!` declares them: a block of eight is 32 words
/// that a kernel may load and store whole, and any four words are a valid
/// value.
pub(crate) trait LimbLayout: MontLimbs {}

impl LimbLayout for Fr {}
impl LimbLayout for Fq {}

const _: () = assert!(size_of::<Fr>() == 32 && size_of::<Fq>() == 32);

/// Whole blocks of the integers of [`crate::Field::dot_small`].
pub enum IntBlocks<'a> {
    /// Products of two narrow integers.
    Wide(Blocks<'a, i64>),
    /// Narrow integers.
    Narrow(Blocks<'a, i32>),
}

/// How a [`crate::SmallInt`] slice reaches a kernel: sealed, so only
/// `i64` and `i32` are integers of [`crate::Field::dot_small`].
pub trait SmallInts: Sized {
    /// The first `n` whole blocks of `xs`.
    fn int_blocks(xs: &[Self], n: usize) -> IntBlocks<'_>;
}

impl SmallInts for i64 {
    fn int_blocks(xs: &[Self], n: usize) -> IntBlocks<'_> {
        IntBlocks::Wide(blocks(xs, n))
    }
}

impl SmallInts for i32 {
    fn int_blocks(xs: &[Self], n: usize) -> IntBlocks<'_> {
        IntBlocks::Narrow(blocks(xs, n))
    }
}

/// One request to a kernel: a hook's operands on whole blocks, its output
/// written through the last field.
pub(crate) enum Call<'a, F> {
    /// [`crate::Field::sparse_mul_lanes`]: width, `[row_ptr, col_idx]`,
    /// values, `x`, `out`.
    Sparse(
        usize,
        [&'a [usize]; 2],
        &'a [F],
        Blocks<'a, F>,
        &'a mut [Block<F>],
    ),
    /// `x ← a·x + Σⱼ bⱼ·yⱼ` over at most two terms `(yⱼ, bⱼ)`: the scale
    /// (none), the fold (one) and [`crate::Field::combine`].
    Combine(&'a mut [Block<F>], F, &'a [(Blocks<'a, F>, F)]),
    /// [`crate::Field::eq_double`] on its paired entries (no source: `lo`
    /// is read) or [`crate::Field::eq_split`]: the source, `lo`, `hi`, `t`.
    EqDouble(
        Option<Blocks<'a, F>>,
        &'a mut [Block<F>],
        &'a mut [Block<F>],
        F,
    ),
    /// `Σ aᵢ·bᵢ`.
    Dot(Blocks<'a, F>, Blocks<'a, F>, &'a mut F),
    /// [`crate::Field::dot_small`]: `Σ aᵢ·bᵢ` for integers `b`.
    DotSmall(Blocks<'a, F>, IntBlocks<'a>, &'a mut F),
    /// [`crate::Field::narrow_into`]: the elements, their integers, and
    /// the count of leading blocks that were all narrow.
    Narrow(Blocks<'a, F>, &'a mut [Block<i32>], &'a mut usize),
    /// [`crate::Field::fold_small`]: `out`, the narrow `[lo, hi]`, `r`.
    FoldSmall(&'a mut [Block<F>], [Blocks<'a, i32>; 2], F),
    /// [`crate::Field::write_canonical`].
    Canonical(Blocks<'a, F>, &'a mut [[u8; 32 * LANES]]),
    /// [`crate::Field::product_round_sums`]: `[x, y]`, `z`, `w`, `direct`.
    RoundSums(
        [Halves<'a, F>; 2],
        Option<Halves<'a, F>>,
        Option<Blocks<'a, F>>,
        bool,
        &'a mut [F; 3],
    ),
    /// All of [`crate::Field::batch_invert`], tail included.
    Invert(&'a mut [F]),
    /// [`crate::Field::affine_chords`]: `[num, inv, q_x]` and `p`.
    Chords([Blocks<'a, F>; 3], [&'a mut [Block<F>]; 2]),
}

cfg_select! {
    target_arch = "x86_64" => { use crate::ifma::{detected, run as run_kernel}; }
    _ => {
        fn detected() -> bool { false }
        fn run_kernel<F>(_: Call<'_, F>) -> bool { false }
    }
}

/// Open [`with_portable_bodies`] scopes, process-wide.
static PORTABLE: AtomicUsize = AtomicUsize::new(0);

/// Runs `f` with every lane hook of `Fr` and `Fq` on its scalar body, on
/// every thread (the `par` pool's workers included): while it runs
/// [`crate::lane_kernel`] reads `"scalar"`. Both bodies give the same
/// bytes by contract, so a scope open on one thread changes no result on
/// another. A test seam, not an option.
#[doc(hidden)]
pub fn with_portable_bodies<R>(f: impl FnOnce() -> R) -> R {
    PORTABLE.fetch_add(1, Ordering::SeqCst);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    PORTABLE.fetch_sub(1, Ordering::SeqCst);
    result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Whether the hooks run on a kernel: one is built for this target, the
/// CPU has its instructions, and no [`with_portable_bodies`] scope is open.
pub(crate) fn kernels_on() -> bool {
    PORTABLE.load(Ordering::Relaxed) == 0 && detected()
}

/// The seam: runs `call` on a kernel and returns `true`, or returns `false`
/// having written nothing.
pub(crate) fn run<F: LimbLayout>(call: Call<'_, F>) -> bool {
    kernels_on() && run_kernel(call)
}

/// How many of the first `n` elements a kernel took (none unless
/// `shape_ok`): `call` builds the request over the whole blocks among them,
/// and the caller's scalar body runs from the returned index on.
pub(crate) fn head<'a, F: LimbLayout + 'a>(
    shape_ok: bool,
    n: usize,
    call: impl FnOnce(usize) -> Call<'a, F>,
) -> usize {
    let whole = n / LANES * LANES;
    if shape_ok && whole > 0 && run(call(whole)) {
        whole
    } else {
        0
    }
}

/// How many leading entries of `x` a kernel set to `a·x + Σⱼ bⱼ·yⱼ` (none
/// unless every `yⱼ` is as long as `x` and there are at most two terms):
/// the head of [`crate::Field::fold_halves`], [`crate::Field::scale`] and
/// [`crate::Field::combine`], whose scalar bodies run from the returned
/// index on.
pub(crate) fn combine_head<F: LimbLayout, const N: usize>(
    x: &mut [F],
    a: F,
    terms: [(&[F], F); N],
) -> usize {
    let shape_ok = N <= 2 && terms.iter().all(|(y, _)| y.len() == x.len());
    let whole = if shape_ok { x.len() / LANES * LANES } else { 0 };
    let ys = terms.map(|(y, b)| (blocks(y, whole), b));
    head(shape_ok, x.len(), |n| {
        Call::Combine(blocks_mut(x, n), a, &ys)
    })
}

/// The first `n` elements of `xs`, `n` a multiple of eight, as blocks.
pub(crate) fn blocks<F>(xs: &[F], n: usize) -> &[Block<F>] {
    xs[..n].as_chunks().0
}

pub(crate) fn blocks_mut<F>(xs: &mut [F], n: usize) -> &mut [Block<F>] {
    xs[..n].as_chunks_mut().0
}
