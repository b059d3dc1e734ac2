//! [`ExecutionConfig`] — the single knob bundle every engine consumes.
//!
//! Before this module existed each engine constructor took either a
//! [`SimConfig`] or a [`NativeConfig`] and recovery/fault/trace settings
//! were threaded through separate side channels. `ExecutionConfig`
//! unifies backend choice, backend knobs, deterministic fault injection,
//! the recovery ladder, and trace-sink selection behind one `Copy`
//! builder, so a bench harness can construct *one* config and hand it to
//! any [`ReductionEngine`](crate::ReductionEngine).

use std::sync::Arc;
use std::time::Duration;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use earth_model::{FaultConfig, NullSink, RingSink, TraceSink};

use crate::engine::RecoveryPolicy;
use crate::tuning::Tuning;

/// Which EARTH backend an [`ExecutionConfig`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The cycle-metered discrete-event simulator.
    Sim,
    /// Real OS threads (watchdog, wall-clock timing).
    Native,
}

impl BackendKind {
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }
}

/// Whether (and how) a run records structured trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceConfig {
    /// No recording; every hook short-circuits on one cached boolean.
    #[default]
    Off,
    /// Per-node bounded ring buffers; the newest `capacity` events per
    /// node survive. Drained into [`RunOutcome::trace`](crate::RunOutcome::trace).
    Ring {
        /// Events retained per node ring.
        capacity: usize,
    },
}

impl TraceConfig {
    /// Default per-node ring capacity — generous enough that the
    /// benchmark-sized runs in this repo never wrap at small processor
    /// counts. At ≥ [`Self::BUDGET_NODE_THRESHOLD`] nodes the aggregate
    /// budget below overrides this (see [`Self::budgeted_capacity`]).
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

    /// Node count at which the aggregate trace budget kicks in. Below
    /// this, the requested per-node capacity is honored verbatim.
    pub const BUDGET_NODE_THRESHOLD: usize = 256;

    /// Aggregate retained-event budget across all rings at scale. Each
    /// retained [`trace::TraceEvent`] is a few dozen bytes, so 2 Mi
    /// events bounds trace memory near ~64 MiB no matter how many
    /// simulated nodes a run has — without this, per-node rings are
    /// O(nodes × capacity) and a traced 1024-proc run at the default
    /// capacity would retain 64 Mi events. Overflow is *visible*: the
    /// sink counts overwritten events and engines surface the count as
    /// the `trace_dropped_events` metric.
    pub const AGGREGATE_EVENT_BUDGET: usize = 1 << 21;

    /// Per-node floor under the aggregate budget, so even huge runs
    /// keep a useful recent-history window per node.
    pub const MIN_RING_CAPACITY: usize = 256;

    /// Ring recording at [`Self::DEFAULT_RING_CAPACITY`].
    pub fn ring() -> Self {
        TraceConfig::Ring {
            capacity: Self::DEFAULT_RING_CAPACITY,
        }
    }

    pub fn enabled(self) -> bool {
        !matches!(self, TraceConfig::Off)
    }

    /// The per-node ring capacity actually used for a run with `nodes`
    /// processors: the requested capacity, clamped at ≥
    /// [`Self::BUDGET_NODE_THRESHOLD`] nodes so total retained events
    /// stay within [`Self::AGGREGATE_EVENT_BUDGET`] (with a
    /// [`Self::MIN_RING_CAPACITY`] floor). Depends only on the
    /// requested capacity and the node count.
    pub fn budgeted_capacity(capacity: usize, nodes: usize) -> usize {
        if nodes < Self::BUDGET_NODE_THRESHOLD {
            return capacity;
        }
        // +1: the sink keeps one extra ring for run-level events.
        let per_node = Self::AGGREGATE_EVENT_BUDGET / (nodes + 1);
        capacity.min(per_node.max(Self::MIN_RING_CAPACITY))
    }

    /// Build the sink this config calls for. `nodes` is the processor
    /// count; the ring sink keeps one extra ring for run-level events
    /// ([`trace::RUN_NODE`]).
    pub(crate) fn make_sink(self, nodes: usize) -> Arc<dyn TraceSink> {
        match self {
            TraceConfig::Off => Arc::new(NullSink),
            TraceConfig::Ring { capacity } => Arc::new(RingSink::new(
                nodes,
                Self::budgeted_capacity(capacity, nodes),
            )),
        }
    }
}

/// Everything an engine needs to know about *how* to run: backend,
/// backend knobs, fault injection, recovery, tracing. `Copy`, so configs
/// are shared by value exactly like the old per-backend structs.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionConfig {
    pub backend: BackendKind,
    /// Simulator knobs (used when `backend == Sim`; also by the
    /// sequential fallback's cycle model).
    pub sim: SimConfig,
    /// Native-backend knobs (used when `backend == Native`).
    pub native: NativeConfig,
    /// Walk the recovery ladder on native failures when set.
    pub recovery: Option<RecoveryPolicy>,
    /// Trace-sink selection (see [`TraceConfig`]).
    pub trace: TraceConfig,
    /// The performance knob that does not change what is computed: the
    /// host thread cap (see [`Tuning`]).
    pub tuning: Tuning,
}

impl Default for ExecutionConfig {
    /// Simulator backend, default knobs, no recovery, no tracing.
    fn default() -> Self {
        ExecutionConfig::sim(SimConfig::default())
    }
}

impl ExecutionConfig {
    /// Run on the discrete-event simulator with these knobs.
    pub fn sim(cfg: SimConfig) -> Self {
        ExecutionConfig {
            backend: BackendKind::Sim,
            sim: cfg,
            native: NativeConfig::default(),
            recovery: None,
            trace: TraceConfig::Off,
            tuning: Tuning::default(),
        }
    }

    /// Run on real OS threads with these knobs.
    pub fn native(cfg: NativeConfig) -> Self {
        ExecutionConfig {
            backend: BackendKind::Native,
            sim: SimConfig::default(),
            native: cfg,
            recovery: None,
            trace: TraceConfig::Off,
            tuning: Tuning::default(),
        }
    }

    /// Apply a [`Tuning`] bundle. This is the one place every
    /// performance knob enters an engine: the bundle is stored whole,
    /// and its `host_threads` cap is mirrored into
    /// `native.host_threads`, the native thread pool's size. It changes
    /// how fast, never *what* is computed; the simulator is one serial
    /// event loop and has no thread knob.
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        if let Some(t) = tuning.host_threads {
            self.native.host_threads = Some(t);
        }
        self
    }

    /// Inject this deterministic fault plan on whichever backend runs.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.sim.faults = Some(faults);
        self.native.faults = Some(faults);
        self
    }

    /// Walk the recovery ladder (retry + optional sequential fallback)
    /// on native failures.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Record structured trace events into the configured sink.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Shorthand for `.with_trace(TraceConfig::ring())`.
    pub fn traced(self) -> Self {
        self.with_trace(TraceConfig::ring())
    }

    /// Native watchdog interval (no effect on the simulator, which
    /// cannot stall).
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.native.watchdog = watchdog;
        self
    }

    pub fn backend_label(&self) -> &'static str {
        self.backend.label()
    }
}

impl From<SimConfig> for ExecutionConfig {
    fn from(cfg: SimConfig) -> Self {
        ExecutionConfig::sim(cfg)
    }
}

impl From<NativeConfig> for ExecutionConfig {
    fn from(cfg: NativeConfig) -> Self {
        ExecutionConfig::native(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_untraced_sim() {
        let cfg = ExecutionConfig::default();
        assert_eq!(cfg.backend, BackendKind::Sim);
        assert!(cfg.recovery.is_none());
        assert!(!cfg.trace.enabled());
    }

    #[test]
    fn with_faults_sets_both_backends() {
        let f = FaultConfig::none(42);
        let cfg = ExecutionConfig::sim(SimConfig::default()).with_faults(f);
        assert_eq!(cfg.sim.faults, Some(f));
        assert_eq!(cfg.native.faults, Some(f));
    }

    #[test]
    fn builders_compose() {
        let cfg = ExecutionConfig::native(NativeConfig::default())
            .with_recovery(RecoveryPolicy::default())
            .with_watchdog(Duration::from_secs(1))
            .traced();
        assert_eq!(cfg.backend, BackendKind::Native);
        assert!(cfg.recovery.is_some());
        assert_eq!(cfg.native.watchdog, Duration::from_secs(1));
        assert!(cfg.trace.enabled());
    }

    #[test]
    fn from_impls_pick_the_backend() {
        let s: ExecutionConfig = SimConfig::default().into();
        assert_eq!(s.backend, BackendKind::Sim);
        let n: ExecutionConfig = NativeConfig::default().into();
        assert_eq!(n.backend, BackendKind::Native);
    }

    #[test]
    fn with_tuning_mirrors_host_threads_into_native() {
        let cfg = ExecutionConfig::native(NativeConfig::default())
            .with_tuning(Tuning::new().host_threads(3));
        assert_eq!(cfg.native.host_threads, Some(3));
        // Without a cap, an existing native setting is left alone.
        let native = NativeConfig {
            host_threads: Some(2),
            ..Default::default()
        };
        let cfg = ExecutionConfig::native(native).with_tuning(Tuning::new());
        assert_eq!(cfg.native.host_threads, Some(2));
    }

    #[test]
    fn off_sink_is_disabled_ring_sink_enabled() {
        assert!(!TraceConfig::Off.make_sink(4).enabled());
        assert!(TraceConfig::ring().make_sink(4).enabled());
    }

    #[test]
    fn trace_budget_caps_rings_at_scale_only() {
        let cap = TraceConfig::DEFAULT_RING_CAPACITY;
        // Small runs keep the requested capacity verbatim.
        assert_eq!(TraceConfig::budgeted_capacity(cap, 8), cap);
        assert_eq!(TraceConfig::budgeted_capacity(cap, 255), cap);
        // At the threshold the aggregate budget takes over.
        let at_256 = TraceConfig::budgeted_capacity(cap, 256);
        assert!(at_256 < cap);
        assert!(at_256 * 257 <= TraceConfig::AGGREGATE_EVENT_BUDGET);
        // Bigger runs get smaller rings, but never below the floor.
        let at_1024 = TraceConfig::budgeted_capacity(cap, 1024);
        assert!(at_1024 <= at_256);
        assert!(at_1024 * 1025 <= TraceConfig::AGGREGATE_EVENT_BUDGET);
        assert_eq!(
            TraceConfig::budgeted_capacity(cap, 1 << 20),
            TraceConfig::MIN_RING_CAPACITY
        );
        // A caller asking for tiny rings is never inflated.
        assert_eq!(TraceConfig::budgeted_capacity(16, 1024), 16);
    }
}
