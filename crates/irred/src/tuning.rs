//! [`Tuning`] — the performance knob that does not change *what* is
//! computed: the native backend's host thread cap.
//!
//! ```
//! use irred::{ExecutionConfig, Tuning};
//! use earth_model::native::NativeConfig;
//!
//! let cfg = ExecutionConfig::native(NativeConfig::default())
//!     .with_tuning(Tuning::new().host_threads(4));
//! assert_eq!(cfg.native.host_threads, Some(4));
//! ```
//!
//! No knob shapes the plan or the inner loop: every phased run walks
//! the LightInspector's phase-local iteration order through the one
//! chunked kernel (`crate::vector`), so every run is bit-identical on
//! every input to the run it replays (DESIGN.md §16).

/// The inner-loop mode: one variant, the chunked kernel every phase
/// runs. It remains only because the benchmark package names
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

/// The tuning bundle: the host thread cap. Carried by
/// [`ExecutionConfig`](crate::ExecutionConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tuning {
    /// Cap on the native backend's host OS threads (`None` = one per
    /// hardware core). Mirrored into `NativeConfig::host_threads` by
    /// [`ExecutionConfig::with_tuning`](crate::ExecutionConfig::with_tuning);
    /// the simulator is one serial event loop and ignores it.
    pub host_threads: Option<usize>,
}

impl Tuning {
    /// Host threads from the hardware.
    pub fn new() -> Self {
        Tuning::default()
    }

    /// Equal to [`Tuning::new`]. Kept only because the benchmark
    /// package names it; it goes when the benchmark next changes.
    pub fn auto() -> Self {
        Tuning::new()
    }

    /// The identity: [`SimdMode`] has one variant. Kept only for the
    /// benchmark package, which names it (see [`SimdMode`]).
    pub fn simd(self, _simd: SimdMode) -> Self {
        self
    }

    /// Cap the native backend's host thread pool.
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.host_threads = Some(threads);
        self
    }

    /// A constant: no knob shapes the plan any more. Kept only because
    /// the benchmark package names it; it goes when the benchmark next
    /// changes.
    pub fn plan_fingerprint(&self) -> u64 {
        0
    }
}
