//! # irred — phased execution of irregular reductions on the EARTH model
//!
//! This is the paper's primary contribution as a library: the
//! **rotating-portion execution strategy** of §2.2, supported by the
//! LightInspector (crate [`lightinspector`]) and executed on the EARTH
//! model (crate [`earth_model`], either backend).
//!
//! ## The strategy in one paragraph
//!
//! Iterations and their per-iteration data are distributed trivially
//! (block or cyclic — no partitioner). The reduction array is cut into
//! `k·P` portions that rotate around the processor ring; processor `q`
//! owns portion `(k·q + p) mod k·P` during phase `p` and forwards it to
//! `q−1`, where it arrives `k` phases later — so for `k > 1` every
//! transfer has `k` phases of computation to hide behind. Each processor
//! executes the iterations whose earliest-resident reference is owned in
//! the current phase (first loop), buffering contributions to
//! later-resident elements in an extension of the reduction array, and
//! folds buffered contributions into newly arrived portions (second
//! loop). Communication volume and frequency are **independent of the
//! indirection arrays' contents** — the paper's central claim.
//!
//! ## Entry points
//!
//! All four executors implement the [`ReductionEngine`] trait:
//! `prepare` once per `(spec, strategy)` pair, then `execute` the
//! returned prepared run any number of times — repeated executes reuse
//! the inspector plans, the remapped indirection, and the built EARTH
//! program, and draw node buffers from a [`Workspace`] pool.
//!
//! * [`PhasedEngine`] — irregular reductions with LHS indirection
//!   (`euler`, `moldyn`): full LightInspector machinery, on either
//!   backend, optionally under a [`RecoveryPolicy`].
//! * [`gather::GatherEngine`] — the `mvm` shape: the *gathered* vector
//!   rotates, the reduction array stays local; no buffers or second
//!   loop (§3's single-reference remark).
//!
//!   Both are one rotating-portion strategy with a different rotating
//!   array, so both run through one ring driver: the same program
//!   template, execute path, recovery ladder and phase-fiber protocol,
//!   with each program supplying only its node state and per-phase
//!   hooks. [`PreparedPhased`] and [`PreparedGather`] are the two
//!   instantiations of that driver's prepared run.
//! * [`seq::SeqEngine`] — the sequential reference executor
//!   (validation + the speedup denominator).
//! * [`baseline::IeEngine`] — the classic communicating
//!   inspector/executor comparator (owner-computes with ghost buffers)
//!   on the same simulator. The shared-memory comparators (atomics,
//!   replication) remain standalone native-only harnesses in
//!   [`baseline`].
//!
//! Every engine constructor accepts an [`ExecutionConfig`] (or a bare
//! backend config via `Into`), which bundles backend choice, fault
//! injection, the recovery ladder, and trace-sink selection. Runs
//! return a [`RunOutcome`] carrying values, stats, a
//! [`MetricsRegistry`](trace::MetricsRegistry), and — when tracing is
//! on — the structured event stream
//! ([`RunOutcome::timeline`] folds it into per-processor phase spans).
//!
//! ## Validation
//!
//! Every executor produces real values; tests check them against the
//! sequential reference. The simulator charges cycles through the
//! [`memsim`] cache model during a measuring sweep and replays per-phase
//! costs for subsequent identical sweeps.

pub mod baseline;
pub mod config;
pub mod engine;
pub mod gather;
pub mod kernel;
pub mod phased;
pub mod prepared;
mod ring;
pub mod seq;
pub mod strategy;
pub mod tuning;
pub(crate) mod vector;

pub use config::{BackendKind, ExecutionConfig, TraceConfig};
pub use engine::{
    EngineError, Provenance, RecoveryPolicy, RecoveryReport, ReductionEngine, RunOutcome,
};
pub use gather::{GatherEngine, GatherSpec, PreparedGather};
pub use kernel::{scaled_batch, EdgeKernel};
pub use lightinspector::{portion_stats, PlanStats};
pub use phased::{structure_hash, PhasedEngine, PhasedSpec, PreparedPhased};
pub use prepared::{PlanToken, Workspace};
pub use ring::{PreparedRing, RingEngine};
pub use seq::{seq_gather_cycles, seq_reduction, PreparedSeq, SeqEngine, SeqResult};
pub use strategy::{EngineChoice, StrategyConfig, StrategyError};
pub use tuning::{SimdMode, Tuning};
pub use workloads::{distribute, Distribution};

/// Compare two reduction results element-wise with a tolerance that
/// accounts for reassociation of floating-point sums.
pub fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}
