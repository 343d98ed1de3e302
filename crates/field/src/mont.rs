//! The [`declare_field!`] macro: generates a 4-limb Montgomery-form prime
//! field from nothing but its modulus, a multiplicative generator, and its
//! two-adicity.
//!
//! All derived constants (`R = 2^256 mod p`, `R^2 mod p`, `-p^{-1} mod 2^64`)
//! are computed at compile time by `const fn`s in [`crate::limb`], so the
//! only trusted inputs are the modulus limbs themselves — which the generated
//! test modules cross-check against schoolbook arithmetic.

/// Declares a 256-bit prime field type in Montgomery representation.
///
/// The modulus must be a 254-bit prime, `2^253 < p < 2^254`, as BN254's
/// `Fr` and `Fq` are: the Montgomery reduction's single conditional
/// subtraction, the deferred-reduction accumulator and the Barrett
/// reduction of unreduced sums (`limb::reduce_sum`, which `From<u64>` and
/// `Field::signed_sum` run) all rely on it, and a compile-time assertion
/// rejects any other modulus.
///
/// # Usage
///
/// ```ignore
/// declare_field!(
///     /// BN254 scalar field.
///     pub struct Fr;
///     modulus = [l0, l1, l2, l3],
///     generator = 5,
///     two_adicity = 28,
/// );
/// ```
#[macro_export]
macro_rules! declare_field {
    (
        $(#[$attr:meta])*
        pub struct $name:ident;
        modulus = $modulus:expr,
        generator = $generator:expr,
        two_adicity = $two_adicity:expr,
    ) => {
        use $crate::lanes::{blocks, blocks_mut, combine_head, head, run, Call, LANES};

        $(#[$attr])*
        // Transparent, so a lane kernel can load and store a block of
        // elements as 64-bit words (`lanes::LimbLayout`).
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        #[repr(transparent)]
        pub struct $name($crate::limb::Limbs);

        impl $name {
            /// The field modulus `p`, little-endian limbs.
            pub const MODULUS: $crate::limb::Limbs = $modulus;
            /// `2^256 mod p` (the Montgomery radix).
            pub const R: $crate::limb::Limbs =
                $crate::limb::pow2_mod(256, &Self::MODULUS);
            /// `2^512 mod p` (used to enter Montgomery form).
            pub const R2: $crate::limb::Limbs =
                $crate::limb::pow2_mod(512, &Self::MODULUS);
            /// `-p^{-1} mod 2^64`.
            pub const INV: u64 = $crate::limb::mont_inv64(Self::MODULUS[0]);
            /// `⌊2^317 / p⌋`, the constant of `limb::reduce_sum`.
            const MU: u64 = $crate::limb::barrett_mu(&Self::MODULUS);

            /// Builds an element from canonical (non-Montgomery) limbs.
            ///
            /// # Panics
            ///
            /// Panics if the value is not reduced below the modulus.
            pub(crate) fn from_canonical_limbs(limbs: $crate::limb::Limbs) -> Self {
                assert!(
                    $crate::limb::geq(&Self::MODULUS, &limbs) && limbs != Self::MODULUS,
                    "value not reduced below the modulus"
                );
                Self($crate::limb::mont_mul(
                    &limbs,
                    &Self::R2,
                    &Self::MODULUS,
                    Self::INV,
                ))
            }

            /// Returns the canonical (non-Montgomery) limbs of this element:
            /// one Montgomery reduction of the stored limbs, no multiply.
            #[inline]
            pub fn to_canonical_limbs(self) -> $crate::limb::Limbs {
                let [l0, l1, l2, l3] = self.0;
                $crate::limb::mont_reduce(
                    &[l0, l1, l2, l3, 0, 0, 0, 0],
                    &Self::MODULUS,
                    Self::INV,
                )
            }
        }

        // `limb::acc_reduce` (high half below 8p, 4p fits 256 bits), the
        // single conditional subtraction of `limb::mont_reduce` and
        // `limb::barrett_mu` / `reduce_sum` (`2^253 mod p` is `2^253`, and
        // `t − q·p < 3p` fits 256 bits) need a 254-bit modulus:
        // 2^253 <= p < 2^254.
        const _: () = assert!($name::MODULUS[3] >> 61 == 1);

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                let c = self.to_canonical_limbs();
                write!(
                    f,
                    concat!(stringify!($name), "(0x{:016x}{:016x}{:016x}{:016x})"),
                    c[3], c[2], c[1], c[0]
                )
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                let c = self.to_canonical_limbs();
                write!(f, "0x{:016x}{:016x}{:016x}{:016x}", c[3], c[2], c[1], c[0])
            }
        }

        // Into Montgomery form `v·2^256 mod p`: below 256 a table (a
        // quantized network's weights and activations), below 2^63 the
        // product of `v` and `R = 2^256 mod p` at one-limb cost
        // (`limb::reduce_sum`), and the rest by a Montgomery multiply.
        impl From<u64> for $name {
            #[inline]
            fn from(v: u64) -> Self {
                static SMALL: [$crate::limb::Limbs; 256] = {
                    let mut table = [[0; 4]; 256];
                    let mut v = 0;
                    while v < 256 {
                        let limbs = [v as u64, 0, 0, 0];
                        table[v] = $crate::limb::mont_mul(
                            &limbs,
                            &$name::R2,
                            &$name::MODULUS,
                            $name::INV,
                        );
                        v += 1;
                    }
                    table
                };
                match v {
                    0..256 => Self(SMALL[v as usize]),
                    ..0x8000_0000_0000_0000 => {
                        let t = $crate::limb::mul_small(&Self::R, v);
                        Self($crate::limb::reduce_sum(&t, &Self::MODULUS, Self::MU))
                    }
                    _ => Self::from_canonical_limbs([v, 0, 0, 0]),
                }
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self::from(v as u64)
            }
        }

        impl From<bool> for $name {
            fn from(v: bool) -> Self {
                Self::from(v as u64)
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self($crate::limb::add_mod(&self.0, &rhs.0, &Self::MODULUS))
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self($crate::limb::sub_mod(&self.0, &rhs.0, &Self::MODULUS))
            }
        }

        impl core::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                Self($crate::limb::mont_mul(
                    &self.0,
                    &rhs.0,
                    &Self::MODULUS,
                    Self::INV,
                ))
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                if $crate::limb::is_zero(&self.0) {
                    self
                } else {
                    Self($crate::limb::sub_wide(&Self::MODULUS, &self.0).0)
                }
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl core::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(<Self as $crate::Field>::ZERO, |a, b| a + b)
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.fold(<Self as $crate::Field>::ZERO, |a, b| a + *b)
            }
        }

        impl core::iter::Product for $name {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(<Self as $crate::Field>::ONE, |a, b| a * b)
            }
        }

        impl $crate::Field for $name {
            const ZERO: Self = Self([0, 0, 0, 0]);
            const ONE: Self = Self(Self::R);
            const MODULUS_BITS: u32 = 254;
            const TWO_ADICITY: u32 = $two_adicity;

            fn inverse(&self) -> Option<Self> {
                if $crate::limb::is_zero(&self.0) {
                    return None;
                }
                // Fermat: a^{p-2}.
                let p_minus_2 =
                    $crate::limb::sub_wide(&Self::MODULUS, &[2, 0, 0, 0]).0;
                Some(self.pow(&p_minus_2))
            }

            fn random<R: $crate::RngCore + ?Sized>(rng: &mut R) -> Self {
                let mut bytes = [0u8; 64];
                rng.fill_bytes(&mut bytes);
                Self::from_uniform_bytes(&bytes)
            }

            fn to_bytes(&self) -> [u8; 32] {
                let c = self.to_canonical_limbs();
                let mut out = [0u8; 32];
                for (i, limb) in c.iter().enumerate() {
                    out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
                }
                out
            }

            fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
                let mut limbs = [0u64; 4];
                for (i, limb) in limbs.iter_mut().enumerate() {
                    *limb = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
                }
                if $crate::limb::geq(&limbs, &Self::MODULUS) {
                    None
                } else {
                    Some(Self::from_canonical_limbs(limbs))
                }
            }

            fn from_uniform_bytes(bytes: &[u8; 64]) -> Self {
                let mut lo = [0u64; 4];
                let mut hi = [0u64; 4];
                for i in 0..4 {
                    lo[i] = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
                    hi[i] =
                        u64::from_le_bytes(bytes[32 + i * 8..40 + i * 8].try_into().unwrap());
                }
                // value = lo + hi * 2^256; 2^256 === R (mod p), so the
                // Montgomery form is mont(lo, R2) + mont(mont(hi, R2), R2).
                let lo_m = $crate::limb::mont_mul(&lo, &Self::R2, &Self::MODULUS, Self::INV);
                let hi_m = $crate::limb::mont_mul(&hi, &Self::R2, &Self::MODULUS, Self::INV);
                let hi_m =
                    $crate::limb::mont_mul(&hi_m, &Self::R2, &Self::MODULUS, Self::INV);
                Self($crate::limb::add_mod(&lo_m, &hi_m, &Self::MODULUS))
            }

            fn generator() -> Self {
                Self::from($generator as u64)
            }

            fn two_adic_root(k: u32) -> Self {
                assert!(
                    k <= Self::TWO_ADICITY,
                    "requested 2^{k}-th root exceeds two-adicity {}",
                    Self::TWO_ADICITY
                );
                // g^((p-1) / 2^k)
                let p_minus_1 = $crate::limb::sub_wide(&Self::MODULUS, &[1, 0, 0, 0]).0;
                let exp = $crate::limb::shr(&p_minus_1, k as usize);
                Self::generator().pow(&exp)
            }

            type DotAcc = $crate::limb::WideAcc;

            #[inline(always)]
            fn dot_acc_add(acc: &mut Self::DotAcc, a: Self, b: Self) {
                $crate::limb::acc_mul_add(acc, &a.0, &b.0);
            }

            #[inline]
            fn dot_acc_reduce(acc: &Self::DotAcc) -> Self {
                Self($crate::limb::acc_reduce(
                    acc,
                    &Self::MODULUS,
                    Self::INV,
                    &Self::R2,
                ))
            }

            // The hooks: whole blocks of eight through the kernels' seam
            // (`lanes.rs`), the rest on the scalar bodies.
            fn sparse_mul_lanes(
                width: usize,
                row_ptr: &[usize],
                col_idx: &[usize],
                values: &[Self],
                x: &[Self],
                out: &mut [Self],
            ) {
                // Whole or nothing; a malformed matrix panics in the kernel's
                // checked indexing as it does in the scalar body.
                let rows = row_ptr.len().saturating_sub(1);
                let whole = width > 0 && width.is_multiple_of(LANES);
                let whole = whole && rows.checked_mul(width) == Some(out.len());
                let (xs, outs) = (x.as_chunks().0, out.as_chunks_mut().0);
                if !(whole && run(Call::Sparse(width, [row_ptr, col_idx], values, xs, outs))) {
                    $crate::sparse_mul_lanes_scalar(width, row_ptr, col_idx, values, x, out);
                }
            }

            // `(1 − r)·lo + r·hi` on the kernel: the residue of `lo + r·(hi − lo)`.
            fn fold_halves(lo: &mut [Self], hi: &[Self], r: Self) {
                let done = combine_head(lo, Self::ONE - r, [(hi, r)]);
                $crate::fold_halves_scalar(&mut lo[done..], &hi[done..], r);
            }

            fn scale(xs: &mut [Self], c: Self) {
                let done = combine_head(xs, c, []);
                $crate::scale_scalar(&mut xs[done..], c);
            }

            fn combine<const N: usize>(x: &mut [Self], a: Self, terms: [(&[Self], Self); N]) {
                let done = combine_head(x, a, terms);
                let rest = terms.map(|(y, b)| (&y[done..], b));
                $crate::combine_scalar(&mut x[done..], a, rest);
            }

            // A too-long `hi` goes to the scalar body whole, which panics.
            fn eq_double(lo: &mut [Self], hi: &mut [Self], t: Self) {
                if hi.len() > lo.len() {
                    return $crate::eq_double_scalar(lo, hi, t);
                }
                let (paired, unpaired) = lo.split_at_mut(hi.len());
                let done = head(true, hi.len(), |n| {
                    Call::EqDouble(None, blocks_mut(paired, n), blocks_mut(hi, n), t)
                });
                $crate::eq_double_scalar(&mut paired[done..], &mut hi[done..], t);
                Self::scale(unpaired, Self::ONE - t);
            }

            fn eq_split(src: &[Self], lo: &mut [Self], hi: &mut [Self], t: Self) {
                let shape_ok = lo.len() == src.len() && hi.len() == src.len();
                let done = head(shape_ok, src.len(), |n| {
                    Call::EqDouble(Some(blocks(src, n)), blocks_mut(lo, n), blocks_mut(hi, n), t)
                });
                $crate::eq_split_scalar(&src[done..], &mut lo[done..], &mut hi[done..], t);
            }

            // The kernel stops at its first block that is not all narrow.
            fn narrow_into(xs: &[Self], out: &mut [i32]) -> bool {
                let mut narrow = 0;
                let done = head(xs.len() == out.len(), xs.len(), |n| {
                    Call::Narrow(blocks(xs, n), blocks_mut(out, n), &mut narrow)
                });
                narrow * LANES == done && $crate::narrow_into_scalar(&xs[done..], &mut out[done..])
            }

            // Each sign into its own unreduced sum, one reduction of their
            // difference: `limb::SumAcc` holds `2^63` values, and fewer
            // than `2^31` entries of magnitude at most `2^31` add less.
            #[inline]
            fn signed_sum(x: &[Self], plus: &[u32], minus: &[u32], scaled: &[(u32, i32)]) -> Self {
                if plus.len() + minus.len() + scaled.len() >= 1 << 31 {
                    return $crate::signed_sum_scalar(x, plus, minus, scaled);
                }
                let mut sums = [[0; 5]; 2];
                for &i in plus {
                    $crate::limb::sum_acc_add(&mut sums[0], &x[i as usize].0);
                }
                for &i in minus {
                    $crate::limb::sum_acc_add(&mut sums[1], &x[i as usize].0);
                }
                for &(i, k) in scaled {
                    let sum = &mut sums[usize::from(k < 0)];
                    $crate::limb::sum_acc_mul_add(sum, &x[i as usize].0, k.unsigned_abs().into());
                }
                let [pos, neg] = &sums;
                Self($crate::limb::reduce_difference(pos, neg, &Self::MODULUS, Self::MU))
            }

            fn dot_small<K: $crate::SmallInt>(a: &[Self], b: &[K]) -> Self {
                let (n, mut sum) = (a.len().min(b.len()), Self::ZERO);
                let done = head(true, n, |n| Call::DotSmall(blocks(a, n), K::int_blocks(b, n), &mut sum));
                sum + $crate::dot_small_scalar(&a[done..n], &b[done..n])
            }

            fn fold_small(out: &mut [Self], lo: &[i32], hi: &[i32], r: Self) {
                let shape_ok = lo.len() == out.len() && hi.len() == out.len();
                let done = head(shape_ok, out.len(), |n| {
                    Call::FoldSmall(blocks_mut(out, n), [blocks(lo, n), blocks(hi, n)], r)
                });
                $crate::fold_small_scalar(&mut out[done..], &lo[done..], &hi[done..], r);
            }

            fn dot(a: &[Self], b: &[Self]) -> Self {
                let (n, mut sum) = (a.len().min(b.len()), Self::ZERO);
                let done = head(true, n, |n| Call::Dot(blocks(a, n), blocks(b, n), &mut sum));
                sum + Self::dot_pairs(a[done..n].iter().copied().zip(b[done..n].iter().copied()))
            }

            fn write_canonical(xs: &[Self], out: &mut [u8]) {
                let done = head(out.len() == 32 * xs.len(), xs.len(), |n| {
                    Call::Canonical(blocks(xs, n), out[..32 * n].as_chunks_mut().0)
                });
                $crate::write_canonical_scalar(&xs[done..], &mut out[32 * done..]);
            }

            fn product_round_sums(
                x: [&[Self]; 2],
                y: [&[Self]; 2],
                z: Option<[&[Self]; 2]>,
                w: Option<&[Self]>,
                direct: bool,
            ) -> [Self; 3] {
                let mut sums = [Self::ZERO; 3];
                let shape_ok = $crate::traits::round_sum_lengths_match(x, y, z, w);
                let done = head(shape_ok, x[0].len(), |n| {
                    let [x, y] = [x, y].map(|h| h.map(|h| blocks(h, n)));
                    let (z, w) = (z.map(|z| z.map(|h| blocks(h, n))), w.map(|w| blocks(w, n)));
                    Call::RoundSums([x, y], z, w, direct, &mut sums)
                });
                let [x, y] = [x, y].map(|h| h.map(|h| &h[done..]));
                let (z, w) = (z.map(|z| z.map(|h| &h[done..])), w.map(|w| &w[done..]));
                let rest = $crate::product_round_sums_scalar(x, y, z, w, direct);
                [0, 1, 2].map(|i| sums[i] + rest[i])
            }

            fn batch_invert(values: &mut [Self]) {
                if !run(Call::Invert(values)) {
                    $crate::batch_invert_scalar(values);
                }
            }

            fn affine_chords(num: &[Self], inv: &[Self], qx: &[Self], [px, py]: [&mut [Self]; 2]) {
                let shape_ok = $crate::traits::chord_lengths_match(num, inv, qx, [&*px, &*py]);
                let done = head(shape_ok, num.len(), |n| {
                    let operands = [num, inv, qx].map(|s| blocks(s, n));
                    Call::Chords(operands, [blocks_mut(px, n), blocks_mut(py, n)])
                });
                let [num, inv, qx] = [num, inv, qx].map(|s| &s[done..]);
                $crate::affine_chords_scalar(num, inv, qx, [&mut px[done..], &mut py[done..]]);
            }
        }

        impl $crate::MontLimbs for $name {
            const P: $crate::limb::Limbs = Self::MODULUS;
            const NEG_INV: u64 = Self::INV;

            #[inline]
            fn mont_limbs(self) -> $crate::limb::Limbs {
                self.0
            }

            #[inline]
            fn from_mont_limbs_unchecked(limbs: $crate::limb::Limbs) -> Self {
                Self(limbs)
            }
        }

    };
}
