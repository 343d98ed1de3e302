//! BN254 G1 group arithmetic in Jacobian coordinates.
//!
//! Curve: `y^2 = x^3 + 3` over `Fq`, prime order `r` (= `Fr::MODULUS`),
//! generator `(1, 2)`. Formulas follow the standard a=0 Jacobian
//! addition/doubling from the Explicit-Formulas Database.

use batchzk_field::{Field, Fq, Fr};

/// A point in affine coordinates (or the point at infinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct G1Affine {
    /// x-coordinate (meaningless when `infinity`).
    pub x: Fq,
    /// y-coordinate (meaningless when `infinity`).
    pub y: Fq,
    /// Marker for the identity element.
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates (`x = X/Z^2`, `y = Y/Z^3`).
#[derive(Debug, Clone, Copy)]
pub struct G1Projective {
    x: Fq,
    y: Fq,
    z: Fq,
}

impl G1Affine {
    /// The group generator `(1, 2)`.
    pub fn generator() -> Self {
        Self {
            x: Fq::ONE,
            y: Fq::from(2u64),
            infinity: false,
        }
    }

    /// The identity element.
    pub fn identity() -> Self {
        Self {
            x: Fq::ZERO,
            y: Fq::ZERO,
            infinity: true,
        }
    }

    /// Checks the curve equation `y^2 = x^3 + 3`.
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square() * self.x + Fq::from(3u64)
    }

    /// Negates the point.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }

    /// Deterministically derives a curve point from a counter by
    /// try-and-increment (test/bench fixture generator, not constant-time).
    pub fn from_counter(counter: u64) -> Self {
        let mut x = Fq::from(counter);
        loop {
            let rhs = x.square() * x + Fq::from(3u64);
            if let Some(y) = rhs.sqrt() {
                return Self {
                    x,
                    y,
                    infinity: false,
                };
            }
            x += Fq::ONE;
        }
    }
}

impl From<G1Affine> for G1Projective {
    fn from(p: G1Affine) -> Self {
        if p.infinity {
            G1Projective::identity()
        } else {
            G1Projective {
                x: p.x,
                y: p.y,
                z: Fq::ONE,
            }
        }
    }
}

impl PartialEq for G1Projective {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1^2, Y1/Z1^3) == (X2/Z2^2, Y2/Z2^3) without inversions.
        let self_inf = self.is_identity();
        let other_inf = other.is_identity();
        if self_inf || other_inf {
            return self_inf == other_inf;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1 && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}

impl Eq for G1Projective {}

impl G1Projective {
    /// The identity element.
    pub fn identity() -> Self {
        Self {
            x: Fq::ONE,
            y: Fq::ONE,
            z: Fq::ZERO,
        }
    }

    /// The group generator.
    pub fn generator() -> Self {
        G1Affine::generator().into()
    }

    /// Returns `true` for the identity element.
    pub(crate) fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (EFD dbl-2009-l, a = 0).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a + a.double(); // 3A
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double(); // 8C
        let z3 = (self.y * self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition (EFD add-2007-bl).
    pub fn add(&self, other: &Self) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (EFD madd-2007-bl).
    pub fn add_affine(&self, other: &G1Affine) -> Self {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return (*other).into();
        }
        let z1z1 = self.z.square();
        let u2 = other.x * z1z1;
        let s2 = other.y * self.z * z1z1;
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double(); // 4·HH
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Scalar multiplication by an `Fr` scalar (double-and-add, MSB first).
    pub fn mul_scalar(&self, scalar: &Fr) -> Self {
        let limbs = scalar.to_canonical_limbs();
        let mut acc = Self::identity();
        for &limb in limbs.iter().rev() {
            for bit in (0..64).rev() {
                acc = acc.double();
                if (limb >> bit) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// Converts to affine coordinates (one field inversion).
    #[cfg(test)]
    pub(crate) fn to_affine(self) -> G1Affine {
        if self.is_identity() {
            return G1Affine::identity();
        }
        let zinv = self.z.inverse().expect("non-identity has z != 0");
        let zinv2 = zinv.square();
        G1Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
            infinity: false,
        }
    }

    /// Batch conversion to affine with a single shared inversion.
    pub fn batch_to_affine(points: &[Self]) -> Vec<G1Affine> {
        let mut zs: Vec<Fq> = points.iter().map(|p| p.z).collect();
        Fq::batch_invert(&mut zs);
        points
            .iter()
            .zip(zs)
            .map(|(p, zinv)| {
                if p.is_identity() {
                    G1Affine::identity()
                } else {
                    let zinv2 = zinv.square();
                    G1Affine {
                        x: p.x * zinv2,
                        y: p.y * zinv2 * zinv,
                        infinity: false,
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_on_curve() {
        assert!(G1Affine::generator().is_on_curve());
        assert!(G1Affine::identity().is_on_curve());
    }

    #[test]
    fn group_laws() {
        let g = G1Projective::generator();
        let g2 = g.double();
        let g3 = g2.add(&g);
        let g4a = g3.add(&g);
        let g4b = g2.double();
        assert_eq!(g4a, g4b);
        // Commutativity.
        assert_eq!(g.add(&g2), g2.add(&g));
        // Identity.
        assert_eq!(g.add(&G1Projective::identity()), g);
        // Inverse.
        assert!(g.add(&g.neg()).is_identity());
    }

    #[test]
    fn doubling_matches_self_add() {
        let g = G1Projective::generator();
        assert_eq!(g.add(&g), g.double());
        let p = g.mul_scalar(&Fr::from(12345u64));
        assert_eq!(p.add(&p), p.double());
    }

    #[test]
    fn mixed_add_matches_projective_add() {
        let g = G1Projective::generator();
        let p = g.mul_scalar(&Fr::from(777u64));
        let q = g.mul_scalar(&Fr::from(888u64));
        let q_affine = q.to_affine();
        assert_eq!(p.add(&q), p.add_affine(&q_affine));
        // Edge: adding a point to itself through the mixed path.
        let p_affine = p.to_affine();
        assert_eq!(p.add_affine(&p_affine), p.double());
        // Edge: adding the negation.
        assert!(p.add_affine(&p_affine.neg()).is_identity());
    }

    #[test]
    fn scalar_mul_small_values() {
        let g = G1Projective::generator();
        let mut acc = G1Projective::identity();
        for k in 0..20u64 {
            assert_eq!(g.mul_scalar(&Fr::from(k)), acc, "k={k}");
            acc = acc.add(&g);
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = G1Projective::generator();
        let a = Fr::from(123456789u64);
        let b = Fr::from(987654321u64);
        assert_eq!(
            g.mul_scalar(&a).add(&g.mul_scalar(&b)),
            g.mul_scalar(&(a + b))
        );
    }

    #[test]
    fn order_annihilates() {
        // r·G = identity: multiply by r expressed as (r-1) + 1.
        let g = G1Projective::generator();
        let r_minus_1 = -Fr::ONE;
        assert!(g.mul_scalar(&r_minus_1).add(&g).is_identity());
    }

    #[test]
    fn affine_roundtrip() {
        let g = G1Projective::generator();
        let p = g.mul_scalar(&Fr::from(31415u64));
        let a = p.to_affine();
        assert!(a.is_on_curve());
        assert_eq!(G1Projective::from(a), p);
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let g = G1Projective::generator();
        let pts: Vec<G1Projective> = (0..10u64).map(|k| g.mul_scalar(&Fr::from(k))).collect();
        let batch = G1Projective::batch_to_affine(&pts);
        for (p, a) in pts.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *a);
        }
        assert!(batch[0].infinity); // 0·G
    }

    #[test]
    fn from_counter_points_are_on_curve() {
        for c in 0..10u64 {
            assert!(G1Affine::from_counter(c).is_on_curve());
        }
    }
}
