//! [`Tuning`] — every performance knob that does not change *what* is
//! computed, in one builder.
//!
//! `Tuning` collects tiling and the host thread cap into one `Copy`
//! struct reachable uniformly through
//! [`ExecutionConfig::with_tuning`](crate::ExecutionConfig::with_tuning):
//!
//! ```
//! use irred::{ExecutionConfig, TileChoice, Tuning};
//! use earth_model::native::NativeConfig;
//!
//! let cfg = ExecutionConfig::native(NativeConfig::default())
//!     .with_tuning(Tuning::auto().host_threads(4));
//! assert_eq!(cfg.native.host_threads, Some(4));
//! # let _ = (TileChoice::Off, cfg);
//! ```
//!
//! One knob changes the *plan* (tile) and one changes only the
//! *execution* (host_threads); [`Tuning::plan_fingerprint`] folds
//! exactly the plan-shaping knob into prepared-plan cache keys. There
//! is no inner-loop knob: every unmetered phase runs the one chunked
//! kernel (`crate::vector`), which performs the float operations of the
//! simulator's metered loop in its order.
//!
//! ## Determinism contract
//!
//! * Untiled runs are **bit-identical on every input** — native runs,
//!   replayed simulator sweeps and the metered simulator sweeps alike.
//!   Property-tested in `tests/tuning_equivalence.rs`.
//! * [`TileChoice`] reorders iterations *within* a phase, which
//!   reassociates floating-point sums across tile boundaries: results
//!   are bit-identical on whole-number-weight kernels (exact f64 sums)
//!   and within the documented ULP bound otherwise (DESIGN.md §16).

/// The inner-loop mode: one variant, the chunked kernel every unmetered
/// phase runs. It remains only because the benchmark package names
/// [`SimdMode::preferred`] and [`Tuning::simd`]; both go when the
/// benchmark next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Contributions for a batch of iterations are computed via
    /// `EdgeKernel::contrib_batch`, then scattered in original
    /// iteration order.
    #[default]
    Chunked,
}

impl SimdMode {
    /// The only mode, [`SimdMode::Chunked`].
    pub fn preferred() -> Self {
        SimdMode::Chunked
    }
}

/// Whether (and how) each portion's per-phase iteration space is tiled
/// into cache-sized sub-blocks (DESIGN.md §16: iterations are
/// stable-sorted by the cache block of their first reference, so
/// iterations within one tile keep their original relative order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileChoice {
    /// No reordering: the inspector's phase-local iteration order, the
    /// bit-identical determinism reference. The default.
    #[default]
    Off,
    /// Predict the tile span from the memory model at prepare time
    /// (`memsim::predict_tile_elems`); tiling switches itself off when a
    /// whole portion already fits the modeled cache.
    Auto,
    /// An explicit tile span in reduction-array elements.
    Elements(usize),
}

impl TileChoice {
    pub fn label(self) -> String {
        match self {
            TileChoice::Off => "off".into(),
            TileChoice::Auto => "auto".into(),
            TileChoice::Elements(n) => format!("elems:{n}"),
        }
    }
}

/// The unified tuning bundle: tiling and host thread cap.
/// Carried by [`ExecutionConfig`](crate::ExecutionConfig); every engine
/// reads its knobs from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tuning {
    /// Phase-local iteration tiling.
    pub tile: TileChoice,
    /// Cap on the native backend's host OS threads (`None` = one per
    /// hardware core). Mirrored into `NativeConfig::host_threads` by
    /// [`ExecutionConfig::with_tuning`](crate::ExecutionConfig::with_tuning);
    /// the simulator is one serial event loop and ignores it. An
    /// execute-time knob, so it stays out of
    /// [`Tuning::plan_fingerprint`].
    pub host_threads: Option<usize>,
}

impl Tuning {
    /// The determinism reference: no tiling, host threads from the
    /// hardware.
    pub fn new() -> Self {
        Tuning::default()
    }

    /// The performance default: memory-model-predicted tiling.
    pub fn auto() -> Self {
        Tuning::new().tile(TileChoice::Auto)
    }

    /// The identity: [`SimdMode`] has one variant. Kept only for the
    /// benchmark package, which names it (see [`SimdMode`]).
    pub fn simd(self, _simd: SimdMode) -> Self {
        self
    }

    /// Select the tiling policy.
    pub fn tile(mut self, tile: TileChoice) -> Self {
        self.tile = tile;
        self
    }

    /// Cap the native backend's host thread pool.
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.host_threads = Some(threads);
        self
    }

    /// Short label for bench reports: `"tile:auto"`.
    pub fn label(&self) -> String {
        format!("tile:{}", self.tile.label())
    }

    /// Fold of the **plan-shaping** knob (tile) for prepared plan cache
    /// keys. Host threads are an execute-time choice over the same plan
    /// and deliberately do not participate.
    pub fn plan_fingerprint(&self) -> u64 {
        let tile = match self.tile {
            TileChoice::Off => 0u64,
            TileChoice::Auto => 1,
            TileChoice::Elements(n) => 2u64.wrapping_add((n as u64) << 2),
        };
        // splitmix64-style avalanche.
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        h ^= tile.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 30)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_determinism_reference() {
        let t = Tuning::default();
        assert_eq!(t.tile, TileChoice::Off);
        assert_eq!(t.host_threads, None);
        assert_eq!(t, Tuning::new());
    }

    #[test]
    fn auto_is_tiled() {
        let t = Tuning::auto();
        assert_eq!(t.tile, TileChoice::Auto);
        assert_eq!(t.host_threads, None);
    }

    #[test]
    fn builder_composes() {
        let t = Tuning::new()
            .tile(TileChoice::Elements(256))
            .host_threads(3);
        assert_eq!(t.tile, TileChoice::Elements(256));
        assert_eq!(t.host_threads, Some(3));
        assert_eq!(t.label(), "tile:elems:256");
    }

    #[test]
    fn fingerprint_tracks_plan_knobs_only() {
        let base = Tuning::new();
        // The execute-time knob: no fingerprint change.
        assert_eq!(
            base.plan_fingerprint(),
            base.host_threads(7).plan_fingerprint()
        );
        // The plan-shaping knob: fingerprint changes.
        assert_ne!(
            base.plan_fingerprint(),
            base.tile(TileChoice::Auto).plan_fingerprint()
        );
        assert_ne!(
            base.tile(TileChoice::Elements(128)).plan_fingerprint(),
            base.tile(TileChoice::Elements(256)).plan_fingerprint()
        );
    }
}
