//! The unified engine layer: one trait, one error type, one result
//! shape, one recovery path for every executor.
//!
//! The paper's amortization argument (§4, Table 2) is that inspection is
//! done **once** and reused over many sweeps. This module makes that
//! reuse first-class: an engine splits a run into
//!
//! 1. [`prepare`](ReductionEngine::prepare) — validate the spec, run the
//!    LightInspector, remap indirection, build the EARTH program
//!    template: everything that depends only on *structure*;
//! 2. [`execute`](ReductionEngine::execute) — instantiate per-node state
//!    from pooled buffers, run the machine, collect a [`RunOutcome`]:
//!    everything that depends on *values*.
//!
//! Outer loops (CG iterations, adaptive time steps) hold the prepared
//! run and call `execute` repeatedly; adaptive mesh changes go through
//! `apply_updates`, which re-inspects only the nodes they touch instead
//! of re-preparing from scratch.

use std::time::Duration;

use earth_model::native::RunError;
use earth_model::RunStats;
use lightinspector::{InspectError, PlanError};
use trace::{MetricsRegistry, Timeline, TraceEvent, TraceKind, TraceSink, RUN_NODE};

use crate::kernel::EdgeKernel;
use crate::prepared::Workspace;
use crate::strategy::{StrategyConfig, StrategyError};

/// Why an engine rejected or failed a run. `Invalid`, `Shape`,
/// `Strategy`, and `Unsupported` are caller bugs and are never retried
/// by the recovery machinery; `Run` is a (possibly transient) backend
/// failure.
#[derive(Debug)]
pub enum EngineError {
    /// The LightInspector rejected the geometry or indirection contents.
    Invalid(InspectError),
    /// The spec's arrays disagree with each other or with the kernel.
    Shape {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// The strategy configuration itself is malformed.
    Strategy(StrategyError),
    /// The engine cannot run this spec/backend combination at all
    /// (e.g. the inspector/executor baseline with read-updating kernels).
    Unsupported(&'static str),
    /// The backend returned a structured runtime error (panic or
    /// watchdog stall).
    Run(RunError),
    /// An externally supplied (e.g. compiler-emitted) inspector plan
    /// failed verification against the indirection arrays.
    Plan(PlanError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Invalid(e) => write!(f, "invalid phased spec: {e}"),
            EngineError::Shape {
                what,
                expected,
                got,
            } => {
                write!(f, "malformed spec: {what}: expected {expected}, got {got}")
            }
            EngineError::Strategy(e) => write!(f, "invalid strategy: {e}"),
            EngineError::Unsupported(what) => write!(f, "unsupported by this engine: {what}"),
            EngineError::Run(e) => write!(f, "run failed: {e}"),
            EngineError::Plan(e) => write!(f, "rejected supplied plan: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<InspectError> for EngineError {
    fn from(e: InspectError) -> Self {
        EngineError::Invalid(e)
    }
}

impl From<RunError> for EngineError {
    fn from(e: RunError) -> Self {
        EngineError::Run(e)
    }
}

impl From<StrategyError> for EngineError {
    fn from(e: StrategyError) -> Self {
        EngineError::Strategy(e)
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

/// Where a [`RunOutcome`] came from: which engine, which backend, and
/// whether the plan was reused from an earlier `execute` on the same
/// prepared run.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// Engine name ([`ReductionEngine::name`]).
    pub engine: &'static str,
    /// `"sim"` or `"native"`.
    pub backend: &'static str,
    /// This execute reused a plan prepared for an earlier execute (i.e.
    /// it skipped inspection, remapping, and program-template building).
    pub reused_plan: bool,
    /// Executions of this prepared run so far, including this one.
    pub executions: u64,
}

/// The uniform result every engine produces.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Final reduction arrays (`num_arrays × num_elements`) — the values
    /// after the last sweep. For the gather engine this is `[y]`.
    pub values: Vec<Vec<f64>>,
    /// Final replicated read arrays (`num_read_arrays × num_elements`).
    pub read: Vec<Vec<f64>>,
    /// Simulated cycles (0 for native runs). Under plan reuse the
    /// steady-state per-phase costs measured by an earlier execute are
    /// replayed, so this models a *warm* machine.
    pub time_cycles: u64,
    /// Simulated seconds (0 for native runs).
    pub seconds: f64,
    /// Native wall time (zero for simulated runs).
    pub wall: Duration,
    pub stats: RunStats,
    /// Per-processor, per-phase iteration counts — the load-balance
    /// signature (§5.4.2's block-vs-cyclic analysis).
    pub phase_iter_counts: Vec<Vec<usize>>,
    /// Structured trace events drained from the run's sink (empty unless
    /// the [`ExecutionConfig`](crate::ExecutionConfig) enabled tracing).
    /// On the simulator timestamps are cycles and the stream is
    /// byte-identical across same-seed runs; on the native backend they
    /// are monotonic nanoseconds.
    pub trace: Vec<TraceEvent>,
    /// Named counters/gauges summarizing the run (see
    /// [`RunOutcome::metrics`]).
    pub metrics: MetricsRegistry,
    /// What the recovery ladder did (all-default for direct runs).
    pub recovery: RecoveryReport,
    /// Which engine/backend produced this and whether it reused a plan.
    pub provenance: Provenance,
}

impl RunOutcome {
    /// Fold the trace into per-processor, per-phase spans (compute vs.
    /// copy-loop vs. blocked). Empty unless the run was traced.
    pub fn timeline(&self) -> Timeline {
        Timeline::from_events(&self.trace)
    }

    /// Named counters (`messages`, `bytes`, `fibers_fired`, …) and
    /// gauges (`time_cycles`, `mean_utilization`, …) for this run.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// `DATA_SYNC`/`BLKMOV` messages issued during the run.
    pub fn messages(&self) -> u64 {
        self.stats.ops.messages
    }

    /// Total payload bytes moved by messages.
    pub fn bytes(&self) -> u64 {
        self.stats.ops.bytes
    }

    /// Fibers that actually executed.
    pub fn fibers_fired(&self) -> u64 {
        self.stats.ops.fibers_fired
    }

    /// Mean EU utilization across processors (zero for native runs,
    /// which record no cycle clock).
    pub fn mean_utilization(&self) -> f64 {
        self.stats.mean_utilization()
    }

    /// Populate [`RunOutcome::metrics`] from the other fields. Engines
    /// call this once, as the last step of building an outcome; the
    /// recovery ladder adds its own counters afterwards.
    pub(crate) fn fill_metrics(&mut self) {
        let ops = self.stats.ops;
        let m = &mut self.metrics;
        m.count("fibers_fired", ops.fibers_fired);
        m.count("syncs", ops.syncs);
        m.count("messages", ops.messages);
        m.count("bytes", ops.bytes);
        m.count("local_messages", ops.local_messages);
        m.count("spawns", ops.spawns);
        m.count("trace_events", self.trace.len() as u64);
        m.gauge("time_cycles", self.time_cycles as f64);
        m.gauge("seconds", self.seconds);
        m.gauge("wall_seconds", self.wall.as_secs_f64());
        m.gauge("mean_utilization", self.stats.mean_utilization());
    }

    /// Record how many trace events the run's sink discarded (bounded
    /// rings overwrite the oldest once full). Engines call this after
    /// draining the sink; it pairs with the `trace_events` counter so a
    /// budgeted ring at large node counts degrades visibly instead of
    /// silently truncating the stream.
    pub(crate) fn record_trace_drops(&mut self, sink: &dyn TraceSink) {
        self.metrics.count("trace_dropped_events", sink.dropped());
    }
}

/// How a recovering engine reacts to a failed native run: retry with
/// exponential backoff up to `max_attempts` total attempts (each attempt
/// re-instantiates the program from the prepared plan and, when a fault
/// plan is configured, reseeds it), then optionally fall back to the
/// sequential executor so callers still get a correct answer.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Total native attempts (≥ 1) before giving up or falling back.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubled (times `backoff_factor`)
    /// before each subsequent one.
    pub initial_backoff: Duration,
    pub backoff_factor: u32,
    /// After exhausting retries, compute the answer sequentially and
    /// return it with a warning in the report instead of an error.
    pub fall_back_to_seq: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 2,
            initial_backoff: Duration::from_millis(2),
            backoff_factor: 2,
            fall_back_to_seq: true,
        }
    }
}

/// What the recovery ladder actually did for one call.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Native attempts made (0 when the run bypassed the recovery path).
    pub attempts: u32,
    /// Display-formatted error of each failed attempt, in order.
    pub errors: Vec<String>,
    /// The fault-plan seed in effect at each attempt, aligned with the
    /// attempt number (`fault_seeds[n]` is attempt `n`'s seed; `None`
    /// when no fault plan was configured). Retries reseed the plan, so
    /// recording the per-rung seed makes every failed attempt — and a
    /// server job's error frame — replayable on its own.
    pub fault_seeds: Vec<Option<u64>>,
    /// The answer came from the sequential executor, not the machine.
    pub fell_back_to_seq: bool,
    /// Human-readable summary when anything non-default happened.
    pub warning: Option<String>,
}

/// The unified executor interface.
///
/// `Spec` is the problem description ([`crate::PhasedSpec`] or
/// [`crate::GatherSpec`]); the prepared type owns everything derivable
/// from `(spec, strategy)` alone. `execute` takes the prepared run by
/// `&mut` — prepared runs carry interior state that legitimately evolves
/// across executes (incrementally updated plans, the gather engine's
/// current `x` vector, execution counters); measured phase costs live in
/// the [`Workspace`] so a prepared run can be shared across workspaces.
pub trait ReductionEngine<Spec> {
    /// Everything reusable across executes for one `(spec, strategy)`.
    type Prepared;

    /// Stable engine name for provenance/reporting.
    fn name(&self) -> &'static str;

    /// Validate the spec and do all structure-dependent work once.
    fn prepare(&self, spec: &Spec, strat: &StrategyConfig) -> Result<Self::Prepared, EngineError>;

    /// Run the prepared plan. Steady-state executes draw their buffers
    /// from `ws` instead of allocating, and (on the simulator) replay
    /// phase costs measured by earlier executes of the same plan.
    fn execute(
        &self,
        prepared: &mut Self::Prepared,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError>;

    /// Convenience: `prepare` + one `execute` with a throwaway workspace.
    fn run(&self, spec: &Spec, strat: &StrategyConfig) -> Result<RunOutcome, EngineError> {
        let mut prepared = self.prepare(spec, strat)?;
        let mut ws = Workspace::new();
        self.execute(&mut prepared, &mut ws)
    }
}

/// Check a phased spec's global arrays against each other and the kernel
/// before any per-node indexing happens. Shared by the phased engine,
/// the sequential engine, and the inspector/executor baseline.
pub fn validate_phased_spec<K: EdgeKernel>(spec: &crate::PhasedSpec<K>) -> Result<(), EngineError> {
    let m = spec.kernel.num_refs();
    if spec.indirection.len() != m {
        return Err(EngineError::Shape {
            what: "indirection arrays (kernel.num_refs)",
            expected: m,
            got: spec.indirection.len(),
        });
    }
    if m == 0 {
        return Err(EngineError::Invalid(InspectError::NoReferences));
    }
    let iters = spec.indirection[0].len();
    for arr in spec.indirection.iter() {
        if arr.len() != iters {
            return Err(EngineError::Shape {
                what: "indirection array length",
                expected: iters,
                got: arr.len(),
            });
        }
    }
    Ok(())
}

/// Check a gather spec: `x` must span the matrix columns and every
/// column index must be in range. Shared by the gather engine's
/// `prepare` and `PreparedGather::set_x`.
pub fn validate_gather_spec(
    matrix: &workloads::SparseMatrix,
    x_len: usize,
) -> Result<(), EngineError> {
    validate_gather_x(matrix, x_len)?;
    for (nz, &c) in matrix.col_idx.iter().enumerate() {
        if c as usize >= matrix.ncols {
            return Err(EngineError::Invalid(InspectError::OutOfRange {
                r: 0,
                iter: nz,
                elem: c,
                num_elements: matrix.ncols,
            }));
        }
    }
    Ok(())
}

/// Just the `x`-length half of [`validate_gather_spec`] (used on every
/// [`set_x`](crate::gather::PreparedGather::set_x)).
pub fn validate_gather_x(
    matrix: &workloads::SparseMatrix,
    x_len: usize,
) -> Result<(), EngineError> {
    if x_len != matrix.ncols {
        return Err(EngineError::Shape {
            what: "gather vector length (matrix.ncols)",
            expected: matrix.ncols,
            got: x_len,
        });
    }
    Ok(())
}

/// The fault plan a given retry rung runs under: attempt 0 keeps the
/// configured plan, later attempts reseed it (same rates, fresh seed) so
/// a retry re-rolls transient faults instead of replaying the failure.
/// Shared by every ladder call site so [`RecoveryReport::fault_seeds`]
/// always matches what actually ran.
pub(crate) fn attempt_faults(
    base: Option<earth_model::FaultConfig>,
    attempt: u32,
) -> Option<earth_model::FaultConfig> {
    base.map(|f| {
        if attempt > 0 {
            f.reseeded(u64::from(attempt))
        } else {
            f
        }
    })
}

/// The one recovery ladder every native engine walks: retry `attempt`
/// with backoff, collecting errors; `Run` errors walk the ladder, caller
/// bugs return immediately. After exhausting retries, `fallback` (the
/// engine's sequential reference) supplies the answer when the policy
/// allows. The returned outcome's `recovery` field records what
/// happened.
///
/// Each rung is recorded into `sink` as a [`TraceKind::RecoveryRung`]
/// event (`attempt: u32::MAX` marks the sequential-fallback rung) at
/// timestamp 0 on [`RUN_NODE`], so a traced run's event stream shows the
/// ladder alongside the per-node machine events.
///
/// `fault_seed_of` reports the fault-plan seed the caller's `attempt`
/// closure will use for a given attempt number (`None` when no fault
/// plan is configured); the ladder records it in
/// [`RecoveryReport::fault_seeds`] so every rung is replayable.
pub(crate) fn run_recovery_ladder(
    policy: RecoveryPolicy,
    sink: &dyn TraceSink,
    fault_seed_of: impl Fn(u32) -> Option<u64>,
    mut attempt: impl FnMut(u32) -> Result<RunOutcome, EngineError>,
    fallback: impl FnOnce() -> RunOutcome,
) -> Result<RunOutcome, EngineError> {
    let mut report = RecoveryReport::default();
    let mut last_err: Option<RunError> = None;
    let mut backoff = policy.initial_backoff;
    let tracing = sink.enabled();
    for n in 0..policy.max_attempts.max(1) {
        if n > 0 {
            std::thread::sleep(backoff);
            backoff *= policy.backoff_factor.max(1);
        }
        if tracing {
            sink.record(TraceEvent::new(
                0,
                RUN_NODE,
                TraceKind::RecoveryRung { attempt: n },
            ));
        }
        report.attempts = n + 1;
        report.fault_seeds.push(fault_seed_of(n));
        match attempt(n) {
            Ok(mut res) => {
                if n > 0 {
                    report.warning = Some(format!(
                        "parallel run succeeded on attempt {} after: {}",
                        n + 1,
                        report.errors.join("; ")
                    ));
                }
                res.metrics.count("recovery_attempts", u64::from(n + 1));
                res.recovery = report;
                return Ok(res);
            }
            Err(EngineError::Run(e)) => {
                report.errors.push(e.to_string());
                last_err = Some(e);
            }
            // Caller bugs: no retry can fix the spec.
            Err(e) => return Err(e),
        }
    }
    if policy.fall_back_to_seq {
        if tracing {
            sink.record(TraceEvent::new(
                0,
                RUN_NODE,
                TraceKind::RecoveryRung { attempt: u32::MAX },
            ));
        }
        let mut res = fallback();
        report.fell_back_to_seq = true;
        report.warning = Some(format!(
            "parallel run failed {} attempt(s) ({}); result computed by the sequential executor",
            report.attempts,
            report.errors.join("; ")
        ));
        res.metrics
            .count("recovery_attempts", u64::from(report.attempts));
        res.metrics.count("recovery_fell_back", 1);
        res.recovery = report;
        Ok(res)
    } else {
        Err(EngineError::Run(
            last_err.expect("at least one attempt ran"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_returns_first_success_unchanged() {
        let out = run_recovery_ladder(
            RecoveryPolicy::default(),
            &trace::NullSink,
            |_| None,
            |_| {
                Ok(RunOutcome {
                    values: vec![vec![1.0]],
                    ..RunOutcome::default()
                })
            },
            || unreachable!("no fallback needed"),
        )
        .unwrap();
        assert_eq!(out.values, vec![vec![1.0]]);
        assert_eq!(out.recovery.attempts, 1);
        assert!(out.recovery.warning.is_none());
    }

    #[test]
    fn ladder_retries_then_succeeds() {
        let policy = RecoveryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::ZERO,
            ..RecoveryPolicy::default()
        };
        let out = run_recovery_ladder(
            policy,
            &trace::NullSink,
            |n| Some(1000 + u64::from(n)),
            |n| {
                if n < 2 {
                    Err(EngineError::Run(RunError::NodePanicked {
                        node: 0,
                        slot: 0,
                        fiber: "t",
                        message: "boom".into(),
                    }))
                } else {
                    Ok(RunOutcome::default())
                }
            },
            || unreachable!(),
        )
        .unwrap();
        assert_eq!(out.recovery.attempts, 3);
        assert_eq!(out.recovery.errors.len(), 2);
        assert!(out.recovery.warning.is_some());
        assert_eq!(
            out.recovery.fault_seeds,
            vec![Some(1000), Some(1001), Some(1002)]
        );
    }

    #[test]
    fn ladder_falls_back_when_allowed() {
        let policy = RecoveryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::ZERO,
            ..RecoveryPolicy::default()
        };
        let out = run_recovery_ladder(
            policy,
            &trace::NullSink,
            |_| None,
            |_| {
                Err(EngineError::Run(RunError::NodePanicked {
                    node: 0,
                    slot: 0,
                    fiber: "t",
                    message: "boom".into(),
                }))
            },
            || RunOutcome {
                values: vec![vec![7.0]],
                ..RunOutcome::default()
            },
        )
        .unwrap();
        assert!(out.recovery.fell_back_to_seq);
        assert_eq!(out.values, vec![vec![7.0]]);
    }

    #[test]
    fn ladder_propagates_caller_bugs_immediately() {
        let mut calls = 0;
        let err = run_recovery_ladder(
            RecoveryPolicy {
                max_attempts: 5,
                initial_backoff: Duration::ZERO,
                ..RecoveryPolicy::default()
            },
            &trace::NullSink,
            |_| None,
            |_| {
                calls += 1;
                Err(EngineError::Shape {
                    what: "x",
                    expected: 1,
                    got: 2,
                })
            },
            || unreachable!(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Shape { .. }));
        assert_eq!(calls, 1);
    }

    #[test]
    fn ladder_records_rung_events_and_metrics() {
        let sink = trace::RingSink::new(0, 64);
        let policy = RecoveryPolicy {
            max_attempts: 2,
            initial_backoff: Duration::ZERO,
            ..RecoveryPolicy::default()
        };
        let out = run_recovery_ladder(
            policy,
            &sink,
            |n| Some(77 + u64::from(n)),
            |_| {
                Err(EngineError::Run(RunError::NodePanicked {
                    node: 0,
                    slot: 0,
                    fiber: "t",
                    message: "boom".into(),
                }))
            },
            RunOutcome::default,
        )
        .unwrap();
        assert_eq!(out.metrics.counter("recovery_attempts"), Some(2));
        assert_eq!(out.metrics.counter("recovery_fell_back"), Some(1));
        assert_eq!(out.recovery.fault_seeds, vec![Some(77), Some(78)]);
        let rungs: Vec<u32> = sink
            .drain()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::RecoveryRung { attempt } => Some(attempt),
                _ => None,
            })
            .collect();
        assert_eq!(rungs, vec![0, 1, u32::MAX]);
    }
}
