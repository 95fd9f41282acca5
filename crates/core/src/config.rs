//! HIERAS configuration: hierarchy depth, landmark count, binning.

use crate::binning::MAX_DIGITS;
use crate::{Binning, LandmarkOrder};

/// Errors validating a [`HierasConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Depth must be at least 1 (1 = plain Chord, 2+ = hierarchical).
    BadDepth(usize),
    /// At least one landmark is required for depth ≥ 2.
    NoLandmarks,
    /// More landmarks than a [`LandmarkOrder`] has digits (16).
    TooManyLandmarks(usize),
    /// A landmark order (ring name) that is not 0–16 digits of 0–9;
    /// carries the rejected input as written.
    BadLandmarkOrder(String),
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::BadDepth(d) => write!(f, "hierarchy depth must be >= 1, got {d}"),
            ConfigError::NoLandmarks => write!(f, "depth >= 2 requires at least one landmark"),
            ConfigError::TooManyLandmarks(n) => {
                write!(f, "at most {MAX_DIGITS} landmarks are supported, got {n}")
            }
            ConfigError::BadLandmarkOrder(s) => {
                write!(f, "landmark order {s} is not 0-{MAX_DIGITS} digits of 0-9")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// HIERAS system parameters (§2.4, §4.1).
///
/// The paper's standard setup is `depth = 2`, `landmarks = 4`,
/// paper binning boundaries — that is [`HierasConfig::paper`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierasConfig {
    /// Hierarchy depth *m*: number of layers including the global ring.
    /// Depth 1 degenerates to plain Chord (useful as a built-in
    /// baseline check).
    pub depth: usize,
    /// Number of landmark nodes (the paper sweeps 2–12 in §4.4; at
    /// most 16).
    pub landmarks: usize,
    /// The latency quantizer used for binning.
    pub binning: Binning,
}

impl HierasConfig {
    /// The paper's default configuration: two layers, four landmarks,
    /// `[20,100]` level boundaries.
    #[must_use]
    pub fn paper() -> Self {
        HierasConfig { depth: 2, landmarks: 4, binning: Binning::paper() }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// See [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.depth < 1 {
            return Err(ConfigError::BadDepth(self.depth));
        }
        if self.depth >= 2 && self.landmarks == 0 {
            return Err(ConfigError::NoLandmarks);
        }
        if self.landmarks > MAX_DIGITS {
            return Err(ConfigError::TooManyLandmarks(self.landmarks));
        }
        Ok(())
    }

    /// The name of the ring a peer binned to `order` joins at layer
    /// `layer` (1-based from the top; layer 1 is the global ring). Every
    /// ring is named here: the oracle build and its delta path, the
    /// protocol join and re-bin all ask this one function.
    ///
    /// Prefix refinement (DESIGN.md §3.4): layer 1 uses the empty
    /// prefix (one ring for everybody); the lowest layer (`depth`) uses
    /// the full order string — which for `depth == 2` is exactly the
    /// paper's scheme; intermediate layers interpolate, guaranteeing
    /// that rings nest. The key carries no layer number: two layers
    /// with the same prefix length name the same ring, and so share one
    /// ring table and one ring id.
    ///
    /// # Panics
    /// Panics if `layer` is outside `1..=depth`.
    #[must_use]
    pub fn ring_key(&self, layer: usize, order: &LandmarkOrder) -> LandmarkOrder {
        order.prefix(self.prefix_len(layer))
    }

    /// How many leading digits name the layer-`layer` ring.
    fn prefix_len(&self, layer: usize) -> usize {
        assert!(
            (1..=self.depth).contains(&layer),
            "layer {layer} outside 1..={}",
            self.depth
        );
        if layer == 1 || self.depth == 1 {
            return 0;
        }
        // ceil((layer-1) * L / (depth-1))
        ((layer - 1) * self.landmarks).div_ceil(self.depth - 1)
    }
}

impl Default for HierasConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = HierasConfig::paper();
        assert_eq!(c.depth, 2);
        assert_eq!(c.landmarks, 4);
        assert!(c.validate().is_ok());
        assert_eq!(c, HierasConfig::default());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = HierasConfig::paper();
        c.depth = 0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::BadDepth(0));
        let mut c = HierasConfig::paper();
        c.landmarks = 0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::NoLandmarks);
        // Depth 1 with zero landmarks is fine (plain Chord).
        let c = HierasConfig { depth: 1, landmarks: 0, binning: Binning::paper() };
        assert!(c.validate().is_ok());
        // A landmark order has at most 16 digits.
        let mut c = HierasConfig::paper();
        c.landmarks = 16;
        assert!(c.validate().is_ok());
        c.landmarks = 17;
        assert_eq!(c.validate().unwrap_err(), ConfigError::TooManyLandmarks(17));
    }

    fn order(digits: &str) -> LandmarkOrder {
        digits.parse().unwrap()
    }

    #[test]
    fn ring_keys_depth2_match_paper() {
        let c = HierasConfig { depth: 2, landmarks: 4, binning: Binning::paper() };
        let o = order("1012");
        assert_eq!(c.ring_key(1, &o), order(""));
        assert_eq!(c.ring_key(2, &o), o); // full order string — §2.2 exactly
    }

    #[test]
    fn ring_keys_interpolate_for_deeper_hierarchies() {
        let o = order("012012");
        let c = HierasConfig { depth: 3, landmarks: 6, binning: Binning::paper() };
        let keys: Vec<String> = (1..=3).map(|l| c.ring_key(l, &o).name()).collect();
        assert_eq!(keys, ["", "012", "012012"]);
        let c = HierasConfig { depth: 4, landmarks: 6, binning: Binning::paper() };
        let keys: Vec<String> = (1..=4).map(|l| c.ring_key(l, &o).name()).collect();
        assert_eq!(keys, ["", "01", "0120", "012012"]);
        // Fewer landmarks than lower layers: layers 3 and 4 share a name.
        let c = HierasConfig { depth: 4, landmarks: 2, binning: Binning::paper() };
        let keys: Vec<String> = (1..=4).map(|l| c.ring_key(l, &o).name()).collect();
        assert_eq!(keys, ["", "0", "01", "01"]);
    }

    #[test]
    fn ring_keys_are_monotone_and_nest() {
        // One digit more than any configuration reads: extra digits
        // never name a ring.
        let o = order("2101201021201");
        for depth in 1..=5usize {
            for landmarks in 1..=12usize {
                let c = HierasConfig { depth, landmarks, binning: Binning::paper() };
                let mut prev = order("");
                for layer in 1..=depth {
                    let key = c.ring_key(layer, &o);
                    let at = format!("depth {depth} lm {landmarks} layer {layer}");
                    assert!(key.name().starts_with(&prev.name()), "{at}");
                    assert!(key.len() <= landmarks);
                    prev = key;
                }
                assert_eq!(prev.len(), if depth == 1 { 0 } else { landmarks });
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn ring_key_rejects_bad_layer() {
        let _ = HierasConfig::paper().ring_key(3, &order("1012"));
    }
}
