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
        $(#[$attr])*
        // Transparent, so the IFMA kernel can load and store a slice of
        // elements as 64-bit words (`ifma.rs`).
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

            /// Builds an element from its Montgomery representation.
            /// Internal: callers must guarantee `limbs < p`.
            #[allow(dead_code)]
            #[inline]
            pub(crate) const fn from_mont_limbs(limbs: $crate::limb::Limbs) -> Self {
                Self(limbs)
            }

            /// Exposes the raw Montgomery representation.
            #[inline]
            pub const fn to_mont_limbs(self) -> $crate::limb::Limbs {
                self.0
            }

            /// Builds an element from canonical (non-Montgomery) limbs.
            ///
            /// # Panics
            ///
            /// Panics if the value is not reduced below the modulus.
            pub fn from_canonical_limbs(limbs: $crate::limb::Limbs) -> Self {
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

        // `limb::acc_reduce` (high half below 8p, 4p fits 256 bits) and the
        // single conditional subtraction of `limb::mont_reduce` need a
        // 254-bit modulus: 2^253 <= p < 2^254.
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

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_canonical_limbs([v, 0, 0, 0])
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

            fn sparse_mul_lanes(
                width: usize,
                row_ptr: &[usize],
                col_idx: &[usize],
                values: &[Self],
                x: &[Self],
                out: &mut [Self],
            ) {
                #[cfg(target_arch = "x86_64")]
                if $crate::ifma::sparse_mul_lanes(width, row_ptr, col_idx, values, x, out) {
                    return;
                }
                $crate::sparse_mul_lanes_scalar(width, row_ptr, col_idx, values, x, out);
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
