//! [`Tuning`] — every performance knob that does not change *what* is
//! computed, in one builder.
//!
//! `Tuning` collects the SIMD mode, tiling, and host thread cap into one
//! `Copy` struct reachable uniformly through
//! [`ExecutionConfig::with_tuning`](crate::ExecutionConfig::with_tuning):
//!
//! ```
//! use irred::{ExecutionConfig, SimdMode, TileChoice, Tuning};
//! use earth_model::native::NativeConfig;
//!
//! let cfg = ExecutionConfig::native(NativeConfig::default())
//!     .with_tuning(Tuning::auto().host_threads(4));
//! assert_eq!(cfg.native.host_threads, Some(4));
//! # let _ = (SimdMode::Scalar, TileChoice::Off, cfg);
//! ```
//!
//! One knob changes the *plan* (tile) and two change only the
//! *execution* (simd, host_threads); [`Tuning::plan_fingerprint`] folds
//! exactly the plan-shaping knob into prepared-plan cache keys.
//!
//! ## Determinism contract
//!
//! * [`SimdMode::Scalar`] is the bit-identical determinism reference —
//!   the PR 5 const-specialized loops, unchanged.
//! * [`SimdMode::Chunked`] and [`SimdMode::Intrinsics`] perform the
//!   identical float operations in the identical order (contributions
//!   are staged per-chunk, scattered in original iteration order;
//!   intrinsic adds are lane-independent on distinct components), so
//!   they are **bit-identical to scalar on every input**, not just
//!   whole-number weights. Property-tested in `tests/tuning_equivalence.rs`.
//! * [`TileChoice`] reorders iterations *within* a phase, which
//!   reassociates floating-point sums across tile boundaries: results
//!   are bit-identical on whole-number-weight kernels (exact f64 sums)
//!   and within the documented ULP bound otherwise (DESIGN.md §16).

/// How the flat inner loops compute and scatter contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// The scalar determinism reference: one iteration at a time through
    /// `EdgeKernel::contrib`. The default.
    #[default]
    Scalar,
    /// Chunked auto-vectorizable kernels: contributions for a block of
    /// iterations are computed into a stack buffer via
    /// `EdgeKernel::contrib_batch` (branchless, bounds-check-free inner
    /// loops the compiler can vectorize), then scattered in original
    /// iteration order. Bit-identical to [`SimdMode::Scalar`].
    Chunked,
    /// Explicit `core::arch` SIMD for the scatter/fold adds, behind the
    /// `simd` cargo feature. Falls back to [`SimdMode::Chunked`] when
    /// the feature is off, the target is not x86_64, or the CPU lacks
    /// AVX. Lane-independent adds on distinct components: still
    /// bit-identical to scalar.
    Intrinsics,
}

impl SimdMode {
    /// The fastest mode this build can honour: [`SimdMode::Intrinsics`]
    /// when compiled with `--features simd` (it degrades to chunked at
    /// runtime if the CPU cannot honour it), otherwise
    /// [`SimdMode::Chunked`].
    pub fn preferred() -> Self {
        if cfg!(all(feature = "simd", target_arch = "x86_64")) {
            SimdMode::Intrinsics
        } else {
            SimdMode::Chunked
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Chunked => "chunked",
            SimdMode::Intrinsics => "intrinsics",
        }
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

/// The unified tuning bundle: SIMD mode, tiling, and host thread cap.
/// Carried by [`ExecutionConfig`](crate::ExecutionConfig); every engine
/// reads its knobs from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tuning {
    /// How flat inner loops compute and scatter contributions.
    pub simd: SimdMode,
    /// Phase-local iteration tiling.
    pub tile: TileChoice,
    /// Cap on host OS threads, for *both* backends (`None` = backend
    /// default: one per hardware core on native, serial on the sim).
    /// Mirrored into `NativeConfig::host_threads` and
    /// `SimConfig::host_threads` by
    /// [`ExecutionConfig::with_tuning`](crate::ExecutionConfig::with_tuning).
    /// On the simulator this selects the conservative time-window
    /// parallel core, which is byte-deterministic across thread counts —
    /// an execute-time knob either way, so it stays out of
    /// [`Tuning::plan_fingerprint`].
    pub host_threads: Option<usize>,
}

impl Tuning {
    /// The determinism reference: scalar loops, no tiling, host threads
    /// from the hardware. Identical to pre-`Tuning`
    /// behaviour.
    pub fn new() -> Self {
        Tuning::default()
    }

    /// The performance default: the fastest SIMD mode this build
    /// honours, memory-model-predicted tiling.
    pub fn auto() -> Self {
        Tuning {
            simd: SimdMode::preferred(),
            tile: TileChoice::Auto,
            host_threads: None,
        }
    }

    /// Select the SIMD mode.
    pub fn simd(mut self, simd: SimdMode) -> Self {
        self.simd = simd;
        self
    }

    /// Select the tiling policy.
    pub fn tile(mut self, tile: TileChoice) -> Self {
        self.tile = tile;
        self
    }

    /// Cap the host thread pool (native node threads; sim event shards).
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.host_threads = Some(threads);
        self
    }

    /// Short label for bench reports: `"chunked+tile:auto"`.
    pub fn label(&self) -> String {
        format!("{}+tile:{}", self.simd.label(), self.tile.label())
    }

    /// Fold of the **plan-shaping** knob (tile) for prepared plan cache
    /// keys. SIMD mode and host threads are execute-time choices over
    /// the same plan and deliberately do not participate: a cached plan
    /// may be re-executed scalar (the server's shed ladder relies on
    /// this).
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
        assert_eq!(t.simd, SimdMode::Scalar);
        assert_eq!(t.tile, TileChoice::Off);
        assert_eq!(t.host_threads, None);
        assert_eq!(t, Tuning::new());
    }

    #[test]
    fn auto_prefers_vector_and_tiled() {
        let t = Tuning::auto();
        assert_ne!(t.simd, SimdMode::Scalar);
        assert_eq!(t.tile, TileChoice::Auto);
    }

    #[test]
    fn builder_composes() {
        let t = Tuning::new()
            .simd(SimdMode::Chunked)
            .tile(TileChoice::Elements(256))
            .host_threads(3);
        assert_eq!(t.simd, SimdMode::Chunked);
        assert_eq!(t.tile, TileChoice::Elements(256));
        assert_eq!(t.host_threads, Some(3));
        assert_eq!(t.label(), "chunked+tile:elems:256");
    }

    #[test]
    fn fingerprint_tracks_plan_knobs_only() {
        let base = Tuning::new();
        // Execute-time knobs: no fingerprint change.
        assert_eq!(
            base.plan_fingerprint(),
            base.simd(SimdMode::Chunked)
                .host_threads(7)
                .plan_fingerprint()
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
