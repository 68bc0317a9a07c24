//! Clock inverter characterization.

use serde::Serialize;

/// One inverter type from the technology library.
///
/// The characterization follows Table I of the paper: an inverter is
/// described by its input pin capacitance, its output (parasitic)
/// capacitance and its effective output resistance, plus a small intrinsic
/// delay. Delay and output slew of a stage are then computed by the
/// simulation crate from `output_res` driving the downstream RC tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InverterKind {
    /// Index of this inverter within its [`InverterLibrary`].
    pub id: usize,
    /// Human-readable name, e.g. `"INV_X1_LARGE"`.
    pub name: &'static str,
    /// Input pin capacitance in fF.
    pub input_cap: f64,
    /// Output (drain/parasitic) capacitance in fF.
    pub output_cap: f64,
    /// Effective output resistance in Ω at the nominal supply.
    pub output_res: f64,
    /// Intrinsic (unloaded) delay in ps at the nominal supply.
    pub intrinsic_delay: f64,
}

/// The inverters available in a technology.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InverterLibrary {
    kinds: Vec<InverterKind>,
}

impl InverterLibrary {
    /// Creates a library from inverter kinds.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or if the declared `id`s do not match the
    /// positions in the vector.
    pub fn new(kinds: Vec<InverterKind>) -> Self {
        assert!(!kinds.is_empty(), "inverter library must not be empty");
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.id, i, "inverter id must equal its library position");
        }
        Self { kinds }
    }

    /// All inverter kinds.
    pub fn kinds(&self) -> &[InverterKind] {
        &self.kinds
    }

    /// Number of inverter kinds.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if the library has no inverters (never true for a
    /// library built through [`InverterLibrary::new`]).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The inverter with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kind(&self, id: usize) -> &InverterKind {
        &self.kinds[id]
    }

    /// The inverter with the smallest input capacitance.
    pub fn smallest(&self) -> &InverterKind {
        self.kinds
            .iter()
            .min_by(|a, b| {
                a.input_cap
                    .partial_cmp(&b.input_cap)
                    .expect("finite capacitances")
            })
            .expect("non-empty library")
    }

    /// The inverter with the lowest output resistance (strongest driver).
    pub fn strongest(&self) -> &InverterKind {
        self.kinds
            .iter()
            .min_by(|a, b| {
                a.output_res
                    .partial_cmp(&b.output_res)
                    .expect("finite resistances")
            })
            .expect("non-empty library")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> InverterLibrary {
        InverterLibrary::new(vec![
            InverterKind {
                id: 0,
                name: "INV_SMALL",
                input_cap: 4.2,
                output_cap: 6.1,
                output_res: 440.0,
                intrinsic_delay: 5.0,
            },
            InverterKind {
                id: 1,
                name: "INV_LARGE",
                input_cap: 35.0,
                output_cap: 80.0,
                output_res: 61.2,
                intrinsic_delay: 8.0,
            },
        ])
    }

    #[test]
    fn smallest_and_strongest_lookup() {
        let lib = lib();
        assert_eq!(lib.smallest().name, "INV_SMALL");
        assert_eq!(lib.strongest().name, "INV_LARGE");
        assert_eq!(lib.len(), 2);
        assert!(!lib.is_empty());
    }

    #[test]
    #[should_panic(expected = "inverter id must equal its library position")]
    fn mismatched_ids_rejected() {
        let _ = InverterLibrary::new(vec![InverterKind {
            id: 3,
            name: "BAD",
            input_cap: 1.0,
            output_cap: 1.0,
            output_res: 1.0,
            intrinsic_delay: 1.0,
        }]);
    }
}
