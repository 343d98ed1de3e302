//! Test-only: `Fr` behind a wrapper that counts multiplications, so a test
//! can hold a prover loop to its operation-count bound on a host where
//! wall-clock cannot. `batchzk-zkp` includes this file by `#[path]` for its
//! sparse-matrix gates, and `batchzk-pcs` for its portable-body test (not a
//! `declare_field!` type, `Counted` runs every `Field` hook's default body;
//! the three field × integer hooks run that body's arithmetic, counted).
//!
//! Three counters: *full* multiplies (`Mul`, one Montgomery reduction each),
//! *deferred* products (`dot_acc_add`, reduced once per sum — about half
//! the cost) and *small* ones, a field element times an integer
//! (`dot_small`, `fold_small`, the scaled entries of `signed_sum`: one
//! 52-bit plane of the integer on the lane kernels, four word multiplies
//! in an unreduced sum). A conversion `From<u64>` counts as a full
//! multiply, and a hot loop must hold none. Additions and inversions are
//! free.

use batchzk_field::{field_from_i64, signed_sum_scalar, Field, Fr, RngCore, SmallInt};
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::cell::Cell;

thread_local! {
    // Per thread, and the test harness runs each test on its own thread.
    static FULL: Cell<u64> = const { Cell::new(0) };
    static DEFERRED: Cell<u64> = const { Cell::new(0) };
    static SMALL: Cell<u64> = const { Cell::new(0) };
}

/// Multiplications performed on [`Counted`] values.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Muls {
    /// Reduced multiplies: `Mul` and `From<u64>`.
    pub full: u64,
    /// Products added into a [`Field::DotAcc`].
    pub deferred: u64,
    /// Field × integer products.
    pub small: u64,
}

/// Runs `f`, returning its result and the multiplications it performed on
/// [`Counted`] values.
pub(crate) fn count_muls<R>(f: impl FnOnce() -> R) -> (R, Muls) {
    let (full, deferred, small) = (FULL.get(), DEFERRED.get(), SMALL.get());
    let out = f();
    let muls = Muls {
        full: FULL.get() - full,
        deferred: DEFERRED.get() - deferred,
        small: SMALL.get() - small,
    };
    (out, muls)
}

/// `Fr` with every multiplication counted.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Counted(pub Fr);

impl Counted {
    fn counting(v: Fr) -> Self {
        FULL.set(FULL.get() + 1);
        Self(v)
    }

    fn small(n: usize) {
        SMALL.set(SMALL.get() + n as u64);
    }
}

impl core::fmt::Display for Counted {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.0.fmt(f)
    }
}

impl From<u64> for Counted {
    fn from(v: u64) -> Self {
        Self::counting(Fr::from(v))
    }
}

impl Add for Counted {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Counted {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Mul for Counted {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::counting(self.0 * rhs.0)
    }
}

impl Neg for Counted {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl AddAssign for Counted {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Counted {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Counted {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Counted {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl Product for Counted {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, Mul::mul)
    }
}

impl Field for Counted {
    const ZERO: Self = Self(Fr::ZERO);
    const ONE: Self = Self(Fr::ONE);
    const MODULUS_BITS: u32 = Fr::MODULUS_BITS;
    const TWO_ADICITY: u32 = Fr::TWO_ADICITY;

    // Multiply-then-add, every term counted as a deferred product.
    type DotAcc = Self;
    fn dot_acc_add(acc: &mut Self, a: Self, b: Self) {
        DEFERRED.set(DEFERRED.get() + 1);
        acc.0 += a.0 * b.0;
    }
    fn dot_acc_reduce(acc: &Self) -> Self {
        *acc
    }

    // The default bodies' arithmetic, each product counted as small.
    fn dot_small<K: SmallInt>(a: &[Self], b: &[K]) -> Self {
        Self::small(a.len().min(b.len()));
        let terms = a
            .iter()
            .zip(b)
            .map(|(x, &k)| x.0 * field_from_i64::<Fr>(k.into()));
        Self(terms.sum())
    }
    fn signed_sum(x: &[Self], plus: &[u32], minus: &[u32], scaled: &[(u32, i32)]) -> Self {
        Self::small(scaled.len());
        let units = signed_sum_scalar(x, plus, minus, &[]);
        let scaled = scaled
            .iter()
            .map(|&(i, k)| x[i as usize].0 * field_from_i64::<Fr>(k.into()));
        Self(units.0 + scaled.sum::<Fr>())
    }
    fn fold_small(out: &mut [Self], lo: &[i32], hi: &[i32], r: Self) {
        assert!(
            lo.len() == out.len() && hi.len() == out.len(),
            "fold halves differ in length"
        );
        Self::small(out.len());
        for ((out, &lo), &hi) in out.iter_mut().zip(lo).zip(hi) {
            let (lo, hi) = (i64::from(lo), i64::from(hi));
            *out = Self(field_from_i64::<Fr>(lo) + r.0 * field_from_i64::<Fr>(hi - lo));
        }
    }

    fn inverse(&self) -> Option<Self> {
        self.0.inverse().map(Self)
    }
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Self(Fr::random(rng))
    }
    fn to_bytes(&self) -> [u8; 32] {
        self.0.to_bytes()
    }
    fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        Fr::from_bytes(bytes).map(Self)
    }
    fn from_uniform_bytes(bytes: &[u8; 64]) -> Self {
        Self(Fr::from_uniform_bytes(bytes))
    }
    fn generator() -> Self {
        Self(Fr::generator())
    }
    fn two_adic_root(k: u32) -> Self {
        Self(Fr::two_adic_root(k))
    }
}
