//! Wire codes: per-unit-length parasitics for each available wire width.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Logical wire width class.
///
/// The ISPD'09 contest (and hence Contango) uses exactly two wire sizes; a
/// *narrow* wire has higher resistance and lower capacitance than a *wide*
/// wire of equal length. Wire sizing toggles an edge between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WireWidth {
    /// The narrower (higher-resistance, lower-capacitance) wire.
    Narrow,
    /// The wider (lower-resistance, higher-capacitance) wire.
    Wide,
}

impl fmt::Display for WireWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireWidth::Narrow => write!(f, "narrow"),
            WireWidth::Wide => write!(f, "wide"),
        }
    }
}

/// Per-unit-length electrical parameters of one wire width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireCode {
    /// Width class this code describes.
    pub width: WireWidth,
    /// Resistance per micrometre, in Ω/µm.
    pub unit_res: f64,
    /// Capacitance per micrometre, in fF/µm.
    pub unit_cap: f64,
}

impl WireCode {
    /// Creates a wire code.
    pub fn new(width: WireWidth, unit_res: f64, unit_cap: f64) -> Self {
        Self {
            width,
            unit_res,
            unit_cap,
        }
    }

    /// Total resistance of a wire of `length_um` micrometres, in Ω.
    #[inline]
    pub fn resistance(&self, length_um: f64) -> f64 {
        self.unit_res * length_um
    }

    /// Total capacitance of a wire of `length_um` micrometres, in fF.
    #[inline]
    pub fn capacitance(&self, length_um: f64) -> f64 {
        self.unit_cap * length_um
    }
}

/// The set of wire codes available in a technology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireLibrary {
    narrow: WireCode,
    wide: WireCode,
}

impl WireLibrary {
    /// Creates a library from the narrow and wide wire codes.
    ///
    /// # Panics
    ///
    /// Panics if the codes are tagged with the wrong width class or if the
    /// wide wire is not at least as conductive as the narrow wire.
    pub fn new(narrow: WireCode, wide: WireCode) -> Self {
        assert_eq!(narrow.width, WireWidth::Narrow, "narrow code mis-tagged");
        assert_eq!(wide.width, WireWidth::Wide, "wide code mis-tagged");
        assert!(
            wide.unit_res <= narrow.unit_res,
            "wide wires must not be more resistive than narrow wires"
        );
        Self { narrow, wide }
    }

    /// The wire code for a width class.
    pub fn code(&self, width: WireWidth) -> &WireCode {
        match width {
            WireWidth::Narrow => &self.narrow,
            WireWidth::Wide => &self.wide,
        }
    }

    /// The narrow wire code.
    pub fn narrow(&self) -> &WireCode {
        &self.narrow
    }

    /// The wide wire code.
    pub fn wide(&self) -> &WireCode {
        &self.wide
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> WireLibrary {
        WireLibrary::new(
            WireCode::new(WireWidth::Narrow, 0.2, 0.16),
            WireCode::new(WireWidth::Wide, 0.1, 0.20),
        )
    }

    #[test]
    fn resistance_and_capacitance_scale_linearly() {
        let lib = lib();
        let wide = lib.wide();
        assert_eq!(wide.resistance(100.0), 10.0);
        assert_eq!(wide.capacitance(100.0), 20.0);
    }

    #[test]
    fn code_lookup_matches_width() {
        let lib = lib();
        assert_eq!(lib.code(WireWidth::Narrow).width, WireWidth::Narrow);
        assert_eq!(lib.code(WireWidth::Wide).width, WireWidth::Wide);
    }

    #[test]
    #[should_panic(expected = "wide wires must not be more resistive")]
    fn inconsistent_library_is_rejected() {
        let _ = WireLibrary::new(
            WireCode::new(WireWidth::Narrow, 0.1, 0.16),
            WireCode::new(WireWidth::Wide, 0.2, 0.20),
        );
    }

    #[test]
    fn display_of_widths() {
        assert_eq!(WireWidth::Narrow.to_string(), "narrow");
        assert_eq!(WireWidth::Wide.to_string(), "wide");
    }
}
