//! Per-pair coupling capacitance models.

use serde::Serialize;

use ncgws_circuit::NodeId;

use crate::error::CouplingError;
use crate::posynomial::exact_factor;

/// Geometry of a pair of adjacent parallel wires (Figure 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WirePairGeometry {
    /// Overlap length `l_ij` (µm).
    pub overlap_length: f64,
    /// Middle-to-middle distance `d_ij` (µm).
    pub distance: f64,
    /// Unit-length fringing capacitance `f̂_ij` between the wires (fF/µm).
    pub unit_fringing: f64,
}

impl WirePairGeometry {
    /// Creates a geometry description, validating all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::InvalidGeometry`] if any parameter is
    /// non-positive or non-finite.
    pub fn new(
        overlap_length: f64,
        distance: f64,
        unit_fringing: f64,
    ) -> Result<Self, CouplingError> {
        for (name, value) in [
            ("overlap_length", overlap_length),
            ("distance", distance),
            ("unit_fringing", unit_fringing),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(CouplingError::InvalidGeometry { name, value });
            }
        }
        Ok(WirePairGeometry {
            overlap_length,
            distance,
            unit_fringing,
        })
    }

    /// The size-independent coupling `~c_ij = f̂_ij · l_ij / d_ij` (fF).
    pub fn base_capacitance(&self) -> f64 {
        self.unit_fringing * self.overlap_length / self.distance
    }
}

/// A coupling capacitor between two adjacent wires, together with the
/// switching-similarity weight that turns physical coupling into effective
/// crosstalk (Equation 1 of the paper).
///
/// The pair keeps only what the capacitance models read: the
/// size-independent coupling `~c_ij`, computed once from the geometry, and
/// the pitch `d_ij`. That makes a pair 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CouplingPair {
    /// First wire (by convention the smaller node index).
    pub a: NodeId,
    /// Second wire.
    pub b: NodeId,
    /// Size-independent coupling `~c_ij = f̂_ij · l_ij / d_ij` (fF).
    base: f64,
    /// Middle-to-middle distance `d_ij` (µm).
    distance: f64,
    /// Switching factor in `[0, 2]`: `0` for perfectly correlated switching
    /// (anti-Miller), `1` for a quiet neighbor, `2` for perfectly
    /// anti-correlated switching (Miller). Defaults to `1`.
    /// [`CouplingSet::new`](crate::CouplingSet::new) rejects any other
    /// value.
    pub switching_factor: f64,
}

impl CouplingPair {
    /// Creates a coupling pair with a neutral switching factor.
    ///
    /// # Errors
    ///
    /// Returns an error if the two node identifiers are equal.
    pub fn new(a: NodeId, b: NodeId, geometry: WirePairGeometry) -> Result<Self, CouplingError> {
        if a == b {
            return Err(CouplingError::SelfCoupling(a));
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        Ok(CouplingPair {
            a,
            b,
            base: geometry.base_capacitance(),
            distance: geometry.distance,
            switching_factor: 1.0,
        })
    }

    /// Sets the switching factor, clamped into `[0, 2]`. A NaN stays NaN,
    /// and [`CouplingSet::new`](crate::CouplingSet::new) rejects it.
    pub fn with_switching_factor(mut self, factor: f64) -> Self {
        self.switching_factor = factor.clamp(0.0, 2.0);
        self
    }

    /// Returns the other wire of the pair, or `None` if `id` is not part of it.
    pub fn other(&self, id: NodeId) -> Option<NodeId> {
        if id == self.a {
            Some(self.b)
        } else if id == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// The middle-to-middle distance `d_ij` (µm).
    #[inline]
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// The size-independent coupling `~c_ij` (fF).
    #[inline]
    pub fn base_capacitance(&self) -> f64 {
        self.base
    }

    /// The linear coefficient `ĉ_ij = ~c_ij / (2 d_ij)` of the `k = 2`
    /// posynomial model (fF per µm of total width).
    #[inline]
    pub fn linear_coefficient(&self) -> f64 {
        self.base / (2.0 * self.distance)
    }

    /// The normalized width variable `x = (x_i + x_j) / (2 d_ij)`.
    pub fn normalized_width(&self, xa: f64, xb: f64) -> f64 {
        (xa + xb) / (2.0 * self.distance)
    }

    /// The exact physical coupling capacitance (Equation 2).
    ///
    /// # Panics
    ///
    /// Panics if the widths are so large that the wires collide
    /// (`(x_i + x_j)/2 ≥ d_ij`).
    pub fn exact_capacitance(&self, xa: f64, xb: f64) -> f64 {
        self.base * exact_factor(self.normalized_width(xa, xb))
    }

    /// The linearized (`k = 2`) coupling capacitance
    /// `~c_ij + ĉ_ij · (x_i + x_j)` used by the optimizer's constraint.
    #[inline]
    pub fn linearized_capacitance(&self, xa: f64, xb: f64) -> f64 {
        self.base + self.linear_coefficient() * (xa + xb)
    }

    /// Effective crosstalk contribution: the switching factor times the
    /// physical coupling (Equation 1), using the linearized model.
    #[inline]
    pub fn effective_crosstalk(&self, xa: f64, xb: f64) -> f64 {
        self.switching_factor * self.linearized_capacitance(xa, xb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posynomial::truncated_factor;

    /// The `k`-term posynomial approximation of the pair's coupling
    /// (Equation 3 generalized to any truncation order).
    fn truncated(p: &CouplingPair, xa: f64, xb: f64, k: usize) -> f64 {
        p.base_capacitance() * truncated_factor(p.normalized_width(xa, xb), k)
    }

    fn pair(distance: f64) -> CouplingPair {
        let geom = WirePairGeometry::new(100.0, distance, 0.03).unwrap();
        CouplingPair::new(NodeId::new(5), NodeId::new(3), geom).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(WirePairGeometry::new(0.0, 1.0, 1.0).is_err());
        assert!(WirePairGeometry::new(1.0, -1.0, 1.0).is_err());
        assert!(WirePairGeometry::new(1.0, 1.0, f64::NAN).is_err());
        assert!(WirePairGeometry::new(10.0, 2.0, 0.03).is_ok());
    }

    #[test]
    fn a_pair_is_32_bytes() {
        assert_eq!(std::mem::size_of::<CouplingPair>(), 32);
    }

    #[test]
    fn base_is_the_geometry_expression_bitwise() {
        let geom = WirePairGeometry::new(37.3, 7.1, 0.031).unwrap();
        let p = CouplingPair::new(NodeId::new(1), NodeId::new(2), geom).unwrap();
        let base = geom.unit_fringing * geom.overlap_length / geom.distance;
        assert_eq!(p.base_capacitance().to_bits(), base.to_bits());
        assert_eq!(p.distance(), geom.distance);
        assert_eq!(
            p.linear_coefficient().to_bits(),
            (base / (2.0 * geom.distance)).to_bits()
        );
    }

    #[test]
    fn pair_orders_its_endpoints() {
        let p = pair(4.0);
        assert_eq!(p.a, NodeId::new(3));
        assert_eq!(p.b, NodeId::new(5));
        assert_eq!(p.other(NodeId::new(3)), Some(NodeId::new(5)));
        assert_eq!(p.other(NodeId::new(5)), Some(NodeId::new(3)));
        assert_eq!(p.other(NodeId::new(9)), None);
    }

    #[test]
    fn self_coupling_is_rejected() {
        let geom = WirePairGeometry::new(10.0, 2.0, 0.03).unwrap();
        assert!(matches!(
            CouplingPair::new(NodeId::new(4), NodeId::new(4), geom),
            Err(CouplingError::SelfCoupling(_))
        ));
    }

    #[test]
    fn base_capacitance_formula() {
        let p = pair(4.0);
        // ~c = 0.03 * 100 / 4 = 0.75 fF
        assert!((p.base_capacitance() - 0.75).abs() < 1e-12);
        // ĉ = ~c / (2d) = 0.75 / 8
        assert!((p.linear_coefficient() - 0.09375).abs() < 1e-12);
    }

    #[test]
    fn coupling_grows_with_width_and_shrinks_with_distance() {
        let p = pair(4.0);
        assert!(p.exact_capacitance(2.0, 2.0) > p.exact_capacitance(1.0, 1.0));
        let far = pair(8.0);
        assert!(far.exact_capacitance(1.0, 1.0) < p.exact_capacitance(1.0, 1.0));
    }

    #[test]
    fn linearized_matches_k2_truncation() {
        let p = pair(5.0);
        for &(xa, xb) in &[(0.5, 0.5), (1.0, 2.0), (0.1, 0.1)] {
            let lin = p.linearized_capacitance(xa, xb);
            let k2 = truncated(&p, xa, xb, 2);
            assert!((lin - k2).abs() < 1e-12);
        }
    }

    #[test]
    fn truncated_approaches_exact_as_k_grows() {
        let p = pair(10.0);
        let exact = p.exact_capacitance(2.0, 3.0);
        let mut last_err = f64::INFINITY;
        for k in 2..8 {
            let err = (exact - truncated(&p, 2.0, 3.0, k)).abs();
            assert!(err <= last_err);
            last_err = err;
        }
        assert!(last_err / exact < 0.01);
    }

    #[test]
    fn switching_factor_scales_crosstalk() {
        let p = pair(4.0);
        let quiet = p.effective_crosstalk(1.0, 1.0);
        let miller = p.with_switching_factor(2.0).effective_crosstalk(1.0, 1.0);
        let anti = p.with_switching_factor(0.0).effective_crosstalk(1.0, 1.0);
        assert!((miller - 2.0 * quiet).abs() < 1e-12);
        assert_eq!(anti, 0.0);
        // Clamping.
        assert_eq!(p.with_switching_factor(5.0).switching_factor, 2.0);
        assert_eq!(p.with_switching_factor(-1.0).switching_factor, 0.0);
        // A NaN is not clamped; the coupling set rejects it.
        assert!(p.with_switching_factor(f64::NAN).switching_factor.is_nan());
    }
}
