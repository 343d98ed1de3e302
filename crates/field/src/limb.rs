//! Low-level multi-precision limb arithmetic on little-endian `[u64; 4]`
//! values.
//!
//! These helpers are the building blocks for the Montgomery field
//! implementation in the `mont` module. Everything here is `const fn` so the
//! per-field constants (`R`, `R2`, `INV`, …) can be derived from the modulus
//! at compile time instead of being hand-copied magic numbers.

/// Number of 64-bit limbs in a field element.
pub const NLIMBS: usize = 4;

/// A 256-bit little-endian integer.
pub type Limbs = [u64; NLIMBS];

/// Computes `a + b + carry`, returning the low 64 bits and the new carry.
#[inline(always)]
const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Computes `a - b - borrow`, returning the low 64 bits and the new borrow
/// (0 or 1).
#[inline(always)]
const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128)
        .wrapping_sub(b as u128)
        .wrapping_sub(borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// Computes `a + b * c + carry`, returning the low 64 bits and the new carry.
#[inline(always)]
const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Returns `true` if `a >= b` as 256-bit integers.
#[inline]
pub const fn geq(a: &Limbs, b: &Limbs) -> bool {
    let mut i = NLIMBS;
    while i > 0 {
        i -= 1;
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

/// Returns `true` if all limbs are zero.
#[inline]
pub const fn is_zero(a: &Limbs) -> bool {
    a[0] == 0 && a[1] == 0 && a[2] == 0 && a[3] == 0
}

/// Adds two 256-bit integers, returning the sum and the carry-out bit.
#[inline]
pub const fn add_wide(a: &Limbs, b: &Limbs) -> (Limbs, u64) {
    let (r0, c) = adc(a[0], b[0], 0);
    let (r1, c) = adc(a[1], b[1], c);
    let (r2, c) = adc(a[2], b[2], c);
    let (r3, c) = adc(a[3], b[3], c);
    ([r0, r1, r2, r3], c)
}

/// Subtracts `b` from `a`, returning the difference and the borrow-out bit.
#[inline]
pub const fn sub_wide(a: &Limbs, b: &Limbs) -> (Limbs, u64) {
    let (r0, bw) = sbb(a[0], b[0], 0);
    let (r1, bw) = sbb(a[1], b[1], bw);
    let (r2, bw) = sbb(a[2], b[2], bw);
    let (r3, bw) = sbb(a[3], b[3], bw);
    ([r0, r1, r2, r3], bw)
}

/// Modular addition of values already reduced below `p` (`a, b < p`).
#[inline]
pub const fn add_mod(a: &Limbs, b: &Limbs, p: &Limbs) -> Limbs {
    let (sum, carry) = add_wide(a, b);
    if carry != 0 || geq(&sum, p) {
        sub_wide(&sum, p).0
    } else {
        sum
    }
}

/// Modular subtraction of values already reduced below `p` (`a, b < p`).
#[inline]
pub const fn sub_mod(a: &Limbs, b: &Limbs, p: &Limbs) -> Limbs {
    let (diff, borrow) = sub_wide(a, b);
    if borrow != 0 {
        add_wide(&diff, p).0
    } else {
        diff
    }
}

/// Computes `-p^{-1} mod 2^64` for an odd modulus `p` via Newton iteration.
pub const fn mont_inv64(p0: u64) -> u64 {
    // Newton's method doubles the number of correct low bits per step;
    // 6 steps suffice for 64 bits, we run a few extra for clarity.
    let mut inv = 1u64;
    let mut i = 0;
    while i < 63 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Computes `2^k mod p` by repeated modular doubling (compile-time use).
pub const fn pow2_mod(k: usize, p: &Limbs) -> Limbs {
    let mut x: Limbs = [1, 0, 0, 0];
    let mut i = 0;
    while i < k {
        x = add_mod(&x, &x, p);
        i += 1;
    }
    x
}

/// Montgomery multiplication (CIOS): returns `a * b * 2^{-256} mod p`.
///
/// Both inputs must be below `p`; the result is below `p`. `inv` is
/// `-p^{-1} mod 2^64` as produced by [`mont_inv64`].
#[inline]
pub const fn mont_mul(a: &Limbs, b: &Limbs, p: &Limbs, inv: u64) -> Limbs {
    let mut t = [0u64; NLIMBS + 2];
    let mut i = 0;
    while i < NLIMBS {
        // t += a[i] * b
        let mut carry = 0u64;
        let mut j = 0;
        while j < NLIMBS {
            let (lo, c) = mac(t[j], a[i], b[j], carry);
            t[j] = lo;
            carry = c;
            j += 1;
        }
        let (s, c) = adc(t[NLIMBS], carry, 0);
        t[NLIMBS] = s;
        t[NLIMBS + 1] = c;

        // Reduce: m chosen so the lowest limb of t + m*p is zero, then
        // shift down one limb.
        let m = t[0].wrapping_mul(inv);
        let (_, mut carry) = mac(t[0], m, p[0], 0);
        let mut j = 1;
        while j < NLIMBS {
            let (lo, c) = mac(t[j], m, p[j], carry);
            t[j - 1] = lo;
            carry = c;
            j += 1;
        }
        let (s, c) = adc(t[NLIMBS], carry, 0);
        t[NLIMBS - 1] = s;
        t[NLIMBS] = t[NLIMBS + 1] + c;
        t[NLIMBS + 1] = 0;
        i += 1;
    }
    let r: Limbs = [t[0], t[1], t[2], t[3]];
    if t[NLIMBS] != 0 || geq(&r, p) {
        sub_wide(&r, p).0
    } else {
        r
    }
}

/// Width of a [`WideAcc`]: a full 512-bit product plus one overflow limb.
pub const ACC_LIMBS: usize = 2 * NLIMBS + 1;

/// Accumulator of the *deferred-reduction* inner-product kernel: the plain
/// integer sum of unreduced 512-bit products `a·b`, nine little-endian
/// limbs.
///
/// With `a, b < p < 2^254` every product is below `2^508`, so the nine
/// limbs (576 bits) hold `2^68` of them — more terms than any slice can
/// have — without overflow. Nothing is reduced while accumulating
/// ([`acc_mul_add`]: 16 word multiplies per term, against the 36 of a CIOS
/// [`mont_mul`]); [`acc_reduce`] pays for one Montgomery reduction per
/// *output*.
pub type WideAcc = [u64; ACC_LIMBS];

/// Schoolbook 256×256 → 512-bit product, no reduction.
#[inline(always)]
const fn mul_wide(a: &Limbs, b: &Limbs) -> [u64; 2 * NLIMBS] {
    let mut t = [0u64; 2 * NLIMBS];
    let mut i = 0;
    while i < NLIMBS {
        let mut carry = 0u64;
        let mut j = 0;
        while j < NLIMBS {
            let (lo, c) = mac(t[i + j], a[i], b[j], carry);
            t[i + j] = lo;
            carry = c;
            j += 1;
        }
        t[i + NLIMBS] = carry;
        i += 1;
    }
    t
}

/// `acc += a · b` as integers — the accumulate step of the
/// deferred-reduction kernel (see [`WideAcc`] for the overflow bound).
#[inline(always)]
pub const fn acc_mul_add(acc: &mut WideAcc, a: &Limbs, b: &Limbs) {
    let t = mul_wide(a, b);
    let mut carry = 0u64;
    let mut i = 0;
    while i < 2 * NLIMBS {
        let (s, c) = adc(acc[i], t[i], carry);
        acc[i] = s;
        carry = c;
        i += 1;
    }
    acc[2 * NLIMBS] += carry;
}

/// Montgomery reduction of a 512-bit value: returns `t · 2^{-256} mod p`,
/// canonical (`< p`).
///
/// Requires `t < p · 2^256` — i.e. the high half below `p` — and
/// `p < 2^255`: the four reduction steps then leave `(t + m·p) / 2^256 <
/// 2p`, which one conditional subtraction canonicalizes. 16 word multiplies
/// (plus 4 for the `m`s); [`mont_mul`] is this fused with the 16 of
/// `mul_wide`.
#[inline]
pub const fn mont_reduce(t: &[u64; 2 * NLIMBS], p: &Limbs, inv: u64) -> Limbs {
    let mut t = *t;
    // Carry out of limb `i + NLIMBS` from the previous step.
    let mut top = 0u64;
    let mut i = 0;
    while i < NLIMBS {
        let m = t[i].wrapping_mul(inv);
        let (_, mut carry) = mac(t[i], m, p[0], 0);
        let mut j = 1;
        while j < NLIMBS {
            let (lo, c) = mac(t[i + j], m, p[j], carry);
            t[i + j] = lo;
            carry = c;
            j += 1;
        }
        let (s, c) = adc(t[i + NLIMBS], top, carry);
        t[i + NLIMBS] = s;
        top = c;
        i += 1;
    }
    // `top` is zero here: the result is below 2p < 2^256.
    reduce_once(&[t[4], t[5], t[6], t[7]], p)
}

/// The reduce step of the deferred-reduction kernel: maps an accumulated
/// integer `S = Σ aᵢ·bᵢ` to the canonical Montgomery product sum
/// `S · 2^{-256} mod p` — bit-identical to summing [`mont_mul`] results
/// with [`add_mod`], for any number of terms a [`WideAcc`] can hold.
///
/// `r2` is `2^512 mod p`. Three steps, each preserving the value mod `p`:
/// the overflow limb is folded back (`limb₈ · 2^512 ≡ limb₈ · r2`), the
/// high half is brought below `p` by subtracting `4p`, `2p`, `p` where they
/// fit (it starts below `2^256 <= 8p` for a 254-bit modulus), and
/// [`mont_reduce`] finishes with its single conditional subtraction.
#[inline]
pub const fn acc_reduce(acc: &WideAcc, p: &Limbs, inv: u64, r2: &Limbs) -> Limbs {
    let mut t = [
        acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7],
    ];
    // Fold limb 8. The sum is below 2^512 + 2^318, so it wraps at most
    // once, and a wrapped sum is below 2^318: folding the wrap (another
    // `r2 < 2^254`) cannot wrap again.
    let mut fold = acc[2 * NLIMBS];
    while fold != 0 {
        let mut carry = 0u64;
        let mut j = 0;
        while j < NLIMBS {
            let (lo, c) = mac(t[j], fold, r2[j], carry);
            t[j] = lo;
            carry = c;
            j += 1;
        }
        while j < 2 * NLIMBS {
            let (s, c) = adc(t[j], carry, 0);
            t[j] = s;
            carry = c;
            j += 1;
        }
        fold = carry;
    }
    let p2 = double_wide(p);
    let p4 = double_wide(&p2);
    let mut hi = [t[4], t[5], t[6], t[7]];
    hi = reduce_once(&hi, &p4);
    hi = reduce_once(&hi, &p2);
    hi = reduce_once(&hi, p);
    mont_reduce(
        &[t[0], t[1], t[2], t[3], hi[0], hi[1], hi[2], hi[3]],
        p,
        inv,
    )
}

/// Accumulator of an *unreduced sum*: the plain integer sum of values
/// below `p`, and of such values times integers, five little-endian limbs.
///
/// Adding a value is five word additions ([`sum_acc_add`]) and a value
/// times an integer four word multiplies more ([`sum_acc_mul_add`]), with
/// no comparison against `p`; [`reduce_sum`] maps the total into `[0, p)`
/// once. The total must stay below `2^317`, that is `2^63` values of a
/// 254-bit modulus.
pub type SumAcc = [u64; NLIMBS + 1];

/// `acc += a` as integers.
#[inline(always)]
pub const fn sum_acc_add(acc: &mut SumAcc, a: &Limbs) {
    let (s0, c) = adc(acc[0], a[0], 0);
    let (s1, c) = adc(acc[1], a[1], c);
    let (s2, c) = adc(acc[2], a[2], c);
    let (s3, c) = adc(acc[3], a[3], c);
    *acc = [s0, s1, s2, s3, acc[4] + c];
}

/// `a · k` as a five-limb integer: four word multiplies.
#[inline(always)]
pub const fn mul_small(a: &Limbs, k: u64) -> SumAcc {
    let (t0, c) = mac(0, a[0], k, 0);
    let (t1, c) = mac(0, a[1], k, c);
    let (t2, c) = mac(0, a[2], k, c);
    let (t3, c) = mac(0, a[3], k, c);
    [t0, t1, t2, t3, c]
}

/// `acc += a · k` as integers.
#[inline(always)]
pub const fn sum_acc_mul_add(acc: &mut SumAcc, a: &Limbs, k: u64) {
    let t = mul_small(a, k);
    let (s0, c) = adc(acc[0], t[0], 0);
    let (s1, c) = adc(acc[1], t[1], c);
    let (s2, c) = adc(acc[2], t[2], c);
    let (s3, c) = adc(acc[3], t[3], c);
    *acc = [s0, s1, s2, s3, acc[4] + t[4] + c];
}

/// `⌊2^317 / p⌋` for a 254-bit modulus (`2^253 < p < 2^254`): the Barrett
/// constant of [`reduce_sum`], below `2^64`. Bit-by-bit long division,
/// for compile-time use.
pub const fn barrett_mu(p: &Limbs) -> u64 {
    // `rem = 2^253 mod p` is `2^253` itself; each step doubles it (below
    // `2p < 2^255`) and takes out `p` where it fits, one quotient bit.
    let mut rem: Limbs = [0, 0, 0, 1 << 61];
    let mut mu = 0u64;
    let mut i = 0;
    while i < 64 {
        rem = double_wide(&rem);
        mu <<= 1;
        if geq(&rem, p) {
            rem = sub_wide(&rem, p).0;
            mu |= 1;
        }
        i += 1;
    }
    mu
}

/// `t mod p` for `t < 2^317` and a 254-bit modulus, `mu` its
/// [`barrett_mu`]: one word multiply estimates the quotient `q` from the
/// top 64 bits of `t` (`⌊t / 2^253⌋`), four more form `q·p`, and at most
/// two conditional subtractions finish.
///
/// Why two: with `top = ⌊t / 2^253⌋` and `q = ⌊top·mu / 2^64⌋`, `q ≤ t / p`
/// (as `mu ≤ 2^317 / p`) and `q > top·2^253 / p − 2 > t / p − 3` (as
/// `mu > 2^317 / p − 1`, `top < 2^64` and `t − top·2^253 < 2^253 < p`).
/// So `t − q·p` lies in `[0, 3p)`, below `2^256`.
#[inline]
pub const fn reduce_sum(t: &SumAcc, p: &Limbs, mu: u64) -> Limbs {
    debug_assert!(t[4] >> 61 == 0, "unreduced sum past 2^317");
    let top = (t[4] << 3) | (t[3] >> 61);
    let q = ((top as u128 * mu as u128) >> 64) as u64;
    let qp = mul_small(p, q);
    let (r0, b) = sbb(t[0], qp[0], 0);
    let (r1, b) = sbb(t[1], qp[1], b);
    let (r2, b) = sbb(t[2], qp[2], b);
    let (r3, _) = sbb(t[3], qp[3], b);
    reduce_once(&reduce_once(&[r0, r1, r2, r3], p), p)
}

/// `(pos − neg) mod p` of two [`SumAcc`] totals, each below `2^317`: one
/// subtraction of the integers, one [`reduce_sum`] of the magnitude and,
/// when `neg` is larger, one negation mod `p`.
#[inline]
pub const fn reduce_difference(pos: &SumAcc, neg: &SumAcc, p: &Limbs, mu: u64) -> Limbs {
    let (d0, b) = sbb(pos[0], neg[0], 0);
    let (d1, b) = sbb(pos[1], neg[1], b);
    let (d2, b) = sbb(pos[2], neg[2], b);
    let (d3, b) = sbb(pos[3], neg[3], b);
    let (d4, b) = sbb(pos[4], neg[4], b);
    if b == 0 {
        return reduce_sum(&[d0, d1, d2, d3, d4], p, mu);
    }
    // `neg − pos`: the two's complement of the wrapped difference.
    let (m0, c) = adc(!d0, 1, 0);
    let (m1, c) = adc(!d1, 0, c);
    let (m2, c) = adc(!d2, 0, c);
    let (m3, c) = adc(!d3, 0, c);
    let r = reduce_sum(&[m0, m1, m2, m3, !d4 + c], p, mu);
    if is_zero(&r) {
        r
    } else {
        sub_wide(p, &r).0
    }
}

/// Maps `[0, 2p)` onto `[0, p)` with one conditional subtraction.
#[inline]
const fn reduce_once(a: &Limbs, p: &Limbs) -> Limbs {
    if geq(a, p) {
        sub_wide(a, p).0
    } else {
        *a
    }
}

/// Returns `2a`, valid while it fits 256 bits (`a < 2^255`).
#[inline]
const fn double_wide(p: &Limbs) -> Limbs {
    add_wide(p, p).0
}

/// Schoolbook 256×256 → 512-bit multiply followed by binary long division:
/// an independent, obviously-correct oracle for Montgomery multiplication.
///
/// Orders of magnitude slower than [`mont_mul`]; exists so property tests can
/// check every fast kernel against arithmetic that shares no code with them.
pub fn naive_mul_mod(a: &Limbs, b: &Limbs, p: &Limbs) -> Limbs {
    let mut wide = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in 0..4 {
            let (lo, c) = mac(wide[i + j], a[i], b[j], carry);
            wide[i + j] = lo;
            carry = c;
        }
        wide[i + 4] = carry;
    }
    // Binary reduction: process bits from the top.
    let mut rem = [0u64; 4];
    for bit in (0..512).rev() {
        // rem <<= 1 (top bit of rem is always 0 because rem < p < 2^255)
        let mut carry = (wide[bit / 64] >> (bit % 64)) & 1;
        for limb_ in rem.iter_mut() {
            let new_carry = *limb_ >> 63;
            *limb_ = (*limb_ << 1) | carry;
            carry = new_carry;
        }
        if geq(&rem, p) {
            rem = sub_wide(&rem, p).0;
        }
    }
    rem
}

/// Shifts a 256-bit integer right by `k` bits (`k < 256`).
#[inline]
pub const fn shr(a: &Limbs, k: usize) -> Limbs {
    let limb_shift = k / 64;
    let bit_shift = k % 64;
    let mut out = [0u64; NLIMBS];
    let mut i = 0;
    while i + limb_shift < NLIMBS {
        let lo = a[i + limb_shift] >> bit_shift;
        let hi = if bit_shift > 0 && i + limb_shift + 1 < NLIMBS {
            a[i + limb_shift + 1] << (64 - bit_shift)
        } else {
            0
        };
        out[i] = lo | hi;
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_carries() {
        assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
        assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
        assert_eq!(adc(1, 2, 3), (6, 0));
    }

    #[test]
    fn sbb_borrows() {
        assert_eq!(sbb(0, 1, 0), (u64::MAX, 1));
        assert_eq!(sbb(5, 3, 1), (1, 0));
        assert_eq!(sbb(0, 0, 1), (u64::MAX, 1));
    }

    #[test]
    fn mac_wide() {
        // u64::MAX^2 + u64::MAX + u64::MAX = 2^128 - 1
        assert_eq!(
            mac(u64::MAX, u64::MAX, u64::MAX, u64::MAX),
            (u64::MAX, u64::MAX)
        );
        assert_eq!(mac(1, 2, 3, 4), (11, 0));
    }

    #[test]
    fn geq_ordering() {
        assert!(geq(&[0, 0, 0, 1], &[u64::MAX, u64::MAX, u64::MAX, 0]));
        assert!(geq(&[5, 0, 0, 0], &[5, 0, 0, 0]));
        assert!(!geq(&[4, 0, 0, 0], &[5, 0, 0, 0]));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = [u64::MAX, 7, 0, 1];
        let b = [3, u64::MAX, 2, 0];
        let (s, c) = add_wide(&a, &b);
        assert_eq!(c, 0);
        let (d, bw) = sub_wide(&s, &b);
        assert_eq!(bw, 0);
        assert_eq!(d, a);
    }

    #[test]
    fn mont_inv64_is_neg_inverse() {
        for p0 in [1u64, 3, 0x43e1f593f0000001, 0x3c208c16d87cfd47, u64::MAX] {
            let inv = mont_inv64(p0);
            assert_eq!(p0.wrapping_mul(inv.wrapping_neg()), 1, "p0={p0}");
        }
    }

    #[test]
    fn pow2_mod_small() {
        // Modulo 7: 2^k cycles 1,2,4,1,2,4,...
        let p = [7, 0, 0, 0];
        assert_eq!(pow2_mod(0, &p), [1, 0, 0, 0]);
        assert_eq!(pow2_mod(1, &p), [2, 0, 0, 0]);
        assert_eq!(pow2_mod(3, &p), [1, 0, 0, 0]);
        assert_eq!(pow2_mod(256, &p), [2, 0, 0, 0]); // 256 mod 3 == 1 -> 2
    }

    // BN254 Fr modulus, used to exercise the Montgomery kernels on a real
    // 254-bit prime.
    const P: Limbs = [
        0x43e1f593f0000001,
        0x2833e84879b97091,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ];

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn rand_below(limit: &Limbs, state: &mut u64) -> Limbs {
        loop {
            let c = [
                splitmix(state),
                splitmix(state),
                splitmix(state),
                splitmix(state) >> 1,
            ];
            if !geq(&c, limit) {
                return c;
            }
        }
    }

    #[test]
    fn mul_wide_then_mont_reduce_is_mont_mul() {
        let inv = mont_inv64(P[0]);
        let mut st = 7u64;
        for _ in 0..200 {
            let a = rand_below(&P, &mut st);
            let b = rand_below(&P, &mut st);
            assert_eq!(
                mont_reduce(&mul_wide(&a, &b), &P, inv),
                mont_mul(&a, &b, &P, inv)
            );
        }
    }

    /// A five-limb integer compared with `2^317` and with `t`.
    fn below(a: &SumAcc, b: &SumAcc) -> bool {
        (0..=NLIMBS)
            .rev()
            .find(|&i| a[i] != b[i])
            .is_some_and(|i| a[i] < b[i])
    }

    /// `t mod p` by the oracle: `t = lo + hi·2^256 ≡ lo + hi·(2^256 mod p)`.
    fn naive_reduce(t: &SumAcc, p: &Limbs) -> Limbs {
        let lo = naive_mul_mod(&[t[0], t[1], t[2], t[3]], &[1, 0, 0, 0], p);
        let hi = naive_mul_mod(&[t[4], 0, 0, 0], &pow2_mod(256, p), p);
        add_mod(&lo, &hi, p)
    }

    /// An odd 254-bit modulus near `1.9·2^253`, where the quotient
    /// estimate of [`reduce_sum`] falls two short (BN254's, near
    /// `1.51·2^253`, never does): `TWO_SHORT` is such a total.
    const NEAR_TOP: Limbs = [1, 0, 0, 0x3ccc_cccc_cccc_cc00];
    const TWO_SHORT: SumAcc = [
        u64::MAX,
        u64::MAX,
        u64::MAX,
        u64::MAX >> 1,
        0x1bf0_614d_460d_929c,
    ];

    #[test]
    fn barrett_constant_is_the_floor_of_the_quotient() {
        for p in [P, NEAR_TOP] {
            let mu = barrett_mu(&p);
            let two317 = [0, 0, 0, 0, 1 << 61];
            let (at, next) = (mul_small(&p, mu), mul_small(&p, mu + 1));
            assert!(!below(&two317, &at) && below(&two317, &next));
        }
    }

    #[test]
    fn reduce_sum_takes_its_second_subtraction() {
        let mu = barrett_mu(&NEAR_TOP);
        let top = (TWO_SHORT[4] << 3) | (TWO_SHORT[3] >> 61);
        let q = ((top as u128 * mu as u128) >> 64) as u64;
        let r = sub_wide(
            &TWO_SHORT[..4].try_into().unwrap(),
            &mul_small(&NEAR_TOP, q)[..4].try_into().unwrap(),
        )
        .0;
        let twice = double_wide(&NEAR_TOP);
        assert!(geq(&r, &twice), "the estimate is two short");
        assert_eq!(
            reduce_sum(&TWO_SHORT, &NEAR_TOP, mu),
            naive_reduce(&TWO_SHORT, &NEAR_TOP)
        );
    }

    #[test]
    fn unreduced_sums_reduce_to_the_modular_fold() {
        let mu = barrett_mu(&P);
        let mut st = 23u64;
        let (mut pos, mut neg) = ([0; NLIMBS + 1], [0; NLIMBS + 1]);
        let mut expect = [0u64; NLIMBS];
        assert_eq!(reduce_difference(&pos, &neg, &P, mu), expect);
        for i in 0..400u64 {
            let a = rand_below(&P, &mut st);
            // Plain values, and multiples up to 2^31 times `a`.
            let k = match i % 4 {
                0 | 1 => 1,
                2 => splitmix(&mut st) >> 33,
                _ => 1 << 31,
            };
            let term = naive_mul_mod(&a, &[k, 0, 0, 0], &P);
            if i % 3 == 0 {
                sum_acc_mul_add(&mut neg, &a, k);
                expect = sub_mod(&expect, &term, &P);
            } else {
                sum_acc_mul_add(&mut pos, &a, k);
                expect = add_mod(&expect, &term, &P);
            }
            if k == 1 {
                let mut plain = [0; NLIMBS + 1];
                sum_acc_add(&mut plain, &a);
                assert_eq!(plain, mul_small(&a, 1));
            }
            assert_eq!(reduce_difference(&pos, &neg, &P, mu), expect, "term {i}");
            assert_eq!(
                reduce_difference(&neg, &pos, &P, mu),
                sub_mod(&[0; 4], &expect, &P)
            );
            assert_eq!(reduce_sum(&pos, &P, mu), naive_reduce(&pos, &P));
        }
        // Equal sums, and the accumulator's ceiling: below 2^317, largest
        // quotient estimate, and just past multiples of `p`.
        assert_eq!(reduce_difference(&pos, &pos, &P, mu), [0; 4]);
        let ceiling = [u64::MAX, u64::MAX, u64::MAX, u64::MAX, (1 << 61) - 1];
        let p_minus_1 = sub_wide(&P, &[1, 0, 0, 0]).0;
        let multiples = [1, 2, 3, 5, 1 << 40, (1 << 63) - 1].map(|k| mul_small(&P, k));
        let tops = [mul_small(&p_minus_1, (1 << 63) - 1), ceiling];
        for t in multiples.into_iter().chain(tops) {
            assert_eq!(reduce_sum(&t, &P, mu), naive_reduce(&t, &P), "{t:x?}");
        }
    }

    #[test]
    fn accumulated_products_reduce_to_the_sum_of_mont_muls() {
        let inv = mont_inv64(P[0]);
        let r2 = pow2_mod(512, &P);
        let mut st = 11u64;
        let mut acc: WideAcc = [0; ACC_LIMBS];
        let mut expect = [0u64; NLIMBS];
        assert_eq!(acc_reduce(&acc, &P, inv, &r2), expect);
        // Enough terms that the overflow limb is in use (from ~16 on).
        for _ in 0..200 {
            let a = rand_below(&P, &mut st);
            let b = rand_below(&P, &mut st);
            acc_mul_add(&mut acc, &a, &b);
            expect = add_mod(&expect, &mont_mul(&a, &b, &P, inv), &P);
            assert_eq!(acc_reduce(&acc, &P, inv, &r2), expect);
        }
        assert!(acc[2 * NLIMBS] > 0);
    }

    #[test]
    fn naive_oracle_agrees_with_mont_mul() {
        // mont_mul(a, b) = a·b·2^{-256}; multiplying by R = 2^256 mod p on
        // the oracle side closes the loop without any Montgomery code.
        let inv = mont_inv64(P[0]);
        let r = pow2_mod(256, &P);
        let mut st = 17u64;
        for _ in 0..50 {
            let a = rand_below(&P, &mut st);
            let b = rand_below(&P, &mut st);
            let mont = mont_mul(&a, &b, &P, inv);
            assert_eq!(naive_mul_mod(&mont, &r, &P), naive_mul_mod(&a, &b, &P));
        }
    }

    #[test]
    fn shr_shifts() {
        let a = [0, 0, 0, 1u64 << 63];
        assert_eq!(shr(&a, 255), [1, 0, 0, 0]);
        let b = [0x10, 0, 0, 0];
        assert_eq!(shr(&b, 4), [1, 0, 0, 0]);
        let c = [0, 1, 0, 0];
        assert_eq!(shr(&c, 64), [1, 0, 0, 0]);
    }
}
