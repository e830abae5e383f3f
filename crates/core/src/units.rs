//! Internal-unit conventions of the sizing engine, in one place.
//!
//! The optimizer works in a single consistent internal unit system and only
//! the reporting layer converts to the paper's presentation units. Keeping
//! every conversion factor here (instead of scattering `* 1000.0` across
//! call sites) makes an internal-unit bug a one-file review.
//!
//! | Quantity              | Internal unit | Reported unit | Conversion            |
//! |-----------------------|---------------|---------------|-----------------------|
//! | resistance            | Ω             | —             | —                     |
//! | capacitance / power   | fF            | pF / mW       | [`pf_from_ff`], [`mw_from_ff`] |
//! | delay (Elmore `r·C`)  | Ω·fF          | ps            | [`ps_from_internal`]  |
//! | crosstalk             | fF            | pF            | [`pf_from_ff`]        |
//! | area                  | µm²           | µm²           | —                     |
//!
//! The power constraint is expressed on the total switched capacitance
//! `Σ c_i ≤ P' = P_B / (V²·f)`, so "power" is carried in fF internally and
//! scaled to mW by the technology's `power_scale_mw_per_ff` only for
//! reports. All constraint families in [`constraints`](crate::constraints)
//! state their bounds in these internal units.

/// Femtofarads per picofarad.
pub const FF_PER_PF: f64 = 1000.0;

/// Internal delay units (Ω·fF) per picosecond. With resistance in Ω and
/// capacitance in fF, `r·C` comes out in Ω·fF = 10⁻³ Ω·pF = 10⁻³ ps·10³ —
/// numerically, 1000 internal units per ps.
pub const INTERNAL_DELAY_PER_PS: f64 = 1000.0;

/// Converts a capacitance (or crosstalk total) from internal fF to pF.
#[inline]
pub fn pf_from_ff(ff: f64) -> f64 {
    ff / FF_PER_PF
}

/// Converts a capacitance from reported pF back to internal fF.
#[inline]
pub fn ff_from_pf(pf: f64) -> f64 {
    pf * FF_PER_PF
}

/// Converts an internal Elmore delay (Ω·fF) to picoseconds.
#[inline]
pub fn ps_from_internal(delay: f64) -> f64 {
    delay / INTERNAL_DELAY_PER_PS
}

/// Converts a total switched capacitance (fF) to dynamic power (mW) using
/// the technology's scale factor `V²·f` (mW per fF).
#[inline]
pub fn mw_from_ff(capacitance_ff: f64, scale_mw_per_ff: f64) -> f64 {
    capacitance_ff * scale_mw_per_ff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(pf_from_ff(ff_from_pf(3.25)), 3.25);
        // The helpers are the exact arithmetic the call sites used inline,
        // so replacing the inline forms is bitwise neutral.
        assert_eq!(pf_from_ff(1234.5), 1234.5 / 1000.0);
        assert_eq!(ps_from_internal(1234.5), 1234.5 / 1000.0);
        assert_eq!(mw_from_ff(40.0, 0.25), 40.0 * 0.25);
    }
}
