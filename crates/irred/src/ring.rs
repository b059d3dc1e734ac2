//! The one ring driver both rotating-portion programs run through.
//!
//! The paper runs `mvm` with the same rotation, memory management and
//! synchronisation as `euler`/`moldyn` (§3; §5 opening): only the array
//! that rotates differs. So the phased reduction ([`crate::phased`]) and
//! the gather rotation ([`crate::gather`]) each supply only what differs
//! as a [`RingProgram`] — node state, result assembly, sequential
//! fallback, and the per-phase hooks — and this module owns the rest:
//! the program template and its sync counts, plan token, execution
//! count, phase-cost cache, inspector-event replay, the one execute and
//! recovery path, the phase-fiber skeleton ([`run_phase`]), and the
//! per-processor prepare fan-out ([`fan_out`]) over one process-wide
//! pool of long-lived threads. Hooks are generic, never `dyn`, so each
//! program monomorphises.
//!
//! Both backends run one node memory: a rotating portion stays where it
//! is and only its ownership moves. The skeleton hands it on with
//! [`FiberCtx::handoff`], a bare sync natively that the simulator
//! charges as a block move of the bytes [`RingProgram::forwarded`]
//! declares.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use earth_model::native::{panic_message, run_native_traced, NativeConfig, NativeCtx, RunError};
use earth_model::program::CtxMeter;
use earth_model::sim::{run_sim_traced, SimConfig, SimCtx};
use earth_model::{FiberCtx, FiberTemplate, Meter, ProgramTemplate, SlotId, TraceSink};
use lightinspector::{FlatPlan, PhaseGeometry};
use memsim::{MemConfig, StreamModel};
use trace::{TraceEvent, TraceKind};

use crate::config::{BackendKind, ExecutionConfig, TraceConfig};
use crate::engine::{
    attempt_faults, check_sim_fired, run_recovery_ladder, EngineError, Provenance, RecoveryPolicy,
    RunOutcome,
};
use crate::prepared::{PlanToken, Workspace};
use crate::strategy::StrategyConfig;

/// A program's final values and read arrays, in the public per-array
/// shape.
pub(crate) type Assembled = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// What one rotating-portion program supplies to the ring driver. The
/// skeleton calls the hooks of phase fiber `(t, p)` in a fixed order
/// (arrive, loop, after-loop, forward), and the simulator's cycles and
/// trace timestamps depend on that order.
pub trait RingProgram {
    /// The program's per-node state, wrapped in a [`RingNode`].
    type Node: Send + 'static;
    /// Engine name reported in [`Provenance::engine`].
    const ENGINE: &'static str;
    /// Label of every phase fiber.
    const FIBER: &'static str;

    /// Extra syncs the first phase of every later sweep waits for.
    fn sweep_start_syncs(&self, _g: &PhaseGeometry) -> u32 {
        0
    }

    /// Instantiate the per-node states, drawing buffers from `ws`.
    fn make_nodes(&self, ws: &mut Workspace) -> Vec<Self::Node>;

    /// Assemble the global result and return the nodes' buffers to `ws`.
    fn finish(&self, nodes: Vec<Self::Node>, ws: &mut Workspace) -> Assembled;

    /// The sequential answer the recovery ladder falls back to.
    fn seq_fallback(&self, sweeps: usize) -> RunOutcome;

    /// A node's schedule; its per-phase rows are the run's
    /// [`RunOutcome::phase_iter_counts`].
    fn plan(node: &Self::Node) -> &FlatPlan;

    /// Initialise what the phase's loop needs.
    fn arrive<C: FiberCtx<NodeOf<Self>>>(n: &mut NodeOf<Self>, ph: &Phase, ctx: &mut C);

    /// The phase's loop (native runs, replayed sweeps).
    fn run_loops(node: &mut Self::Node, ph: &Phase);

    /// The phase's loop with every access metered (measuring sweeps).
    fn run_loops_metered<M: Meter>(node: &mut Self::Node, ph: &Phase, meter: &mut M);

    /// Work after the loop, before the portion moves on.
    fn after_loops<C: FiberCtx<NodeOf<Self>>>(_n: &mut NodeOf<Self>, _ph: &Phase, _ctx: &mut C) {}

    /// The bytes the hand-off to the ring successor would carry as a
    /// block move ([`FiberCtx::handoff`]); `None` sends a bare sync.
    fn forwarded(node: &Self::Node, ph: &Phase) -> Option<u64>;
}

/// One node of a ring program: the driver's bookkeeping around the
/// program's own state.
pub struct RingNode<S> {
    pub(crate) proc: usize,
    pub(crate) sweeps: usize,
    pub(crate) geometry: PhaseGeometry,
    /// Measured per-phase loop cost, replayed after the metering sweep
    /// (and seeded from the [`Workspace`] cost cache under plan reuse).
    phase_cost: Vec<Option<u64>>,
    pub(crate) stream: StreamModel,
    pub(crate) state: S,
}

/// The node type a ring program's fibers run on.
pub(crate) type NodeOf<R> = RingNode<<R as RingProgram>::Node>;

/// Where phase fiber `(t, p)` of a node stands in the rotation: the
/// portion it owns and that portion's elements.
pub struct Phase {
    pub(crate) t: usize,
    pub(crate) p: usize,
    pub(crate) k: usize,
    pub(crate) kp: usize,
    pub(crate) range: Range<usize>,
}

impl Phase {
    /// Absolute phase number: the fiber's slot on its node.
    pub(crate) fn abs(&self) -> usize {
        self.t * self.kp + self.p
    }

    /// The portion's first visit of the sweep.
    pub(crate) fn first_visit(&self) -> bool {
        self.p < self.k
    }

    /// The portion's last visit of the sweep: its values are final.
    pub(crate) fn last_visit(&self) -> bool {
        self.p >= self.kp - self.k
    }
}

/// The sync slot of phase fiber `(t, p)`.
pub(crate) fn slot_of(t: usize, p: usize, kp: usize) -> SlotId {
    (t * kp + p) as SlotId
}

/// The sync count of phase fiber `(t, p)`.
fn sync_count(t: usize, p: usize, k: usize, sweep_start: u32) -> u32 {
    let mut c = 0u32;
    if !(t == 0 && p == 0) {
        c += 1; // chain from the previous phase on this node
    }
    if !(t == 0 && p < k) {
        c += 1; // portion arrival (hand-off or bare sync)
    }
    if p == 0 && t > 0 {
        c += sweep_start;
    }
    c
}

/// The body of phase fiber `(t, p)`: the protocol both programs share,
/// with the program's hooks in between.
fn run_phase<R: RingProgram, C: FiberCtx<NodeOf<R>>>(
    n: &mut NodeOf<R>,
    t: usize,
    p: usize,
    ctx: &mut C,
) {
    let g = n.geometry;
    let portion = g.portion_owned_by(n.proc, p);
    let ph = Phase {
        t,
        p,
        k: g.k(),
        kp: g.num_phases(),
        range: g.portion_range(portion),
    };
    let (sweep, phase) = (t as u32, p as u32);
    let tracing = ctx.trace_enabled();
    if tracing {
        ctx.trace(TraceKind::PhaseEnter { sweep, phase });
        ctx.trace(TraceKind::CopyEnter { sweep, phase });
    }
    R::arrive(n, &ph, ctx);
    if tracing {
        ctx.trace(TraceKind::CopyExit { sweep, phase });
    }

    if ctx.is_sim() {
        match n.phase_cost[p] {
            Some(c) => {
                R::run_loops(&mut n.state, &ph);
                ctx.charge(c);
            }
            None => {
                let before = ctx.charged();
                let mut meter = CtxMeter::<NodeOf<R>, C>::new(ctx);
                R::run_loops_metered(&mut n.state, &ph, &mut meter);
                let cost = ctx.charged() - before;
                // Sweep 0 runs on a cold cache; re-measure on sweep 1
                // and replay that steady-state cost thereafter.
                if t > 0 || n.sweeps == 1 {
                    n.phase_cost[p] = Some(cost);
                }
            }
        }
    } else {
        R::run_loops(&mut n.state, &ph);
    }
    R::after_loops(n, &ph, ctx);

    // Hand the portion on around the ring. It stays in the node memory
    // every node shares; the simulator charges the block move it stands
    // for (no EU copy: the metered loop pays the first-touch misses).
    let abs = ph.abs();
    let next_abs = abs + ph.k;
    if next_abs < n.sweeps * ph.kp {
        let dest = g.next_owner(n.proc);
        if tracing {
            ctx.trace(TraceKind::PortionRotate {
                portion: portion as u32,
                to_node: dest as u32,
            });
        }
        match R::forwarded(&n.state, &ph) {
            None => ctx.sync(dest, next_abs as SlotId),
            Some(bytes) => ctx.handoff(dest, next_abs as SlotId, bytes),
        }
    }

    // Enable the next phase on this node.
    if abs + 1 < n.sweeps * ph.kp {
        ctx.sync(n.proc, (abs + 1) as SlotId);
    }
    if tracing {
        ctx.trace(TraceKind::PhaseExit { sweep, phase });
    }
}

/// The program template for the backend the run was prepared for.
enum Template<S> {
    Sim(ProgramTemplate<RingNode<S>, SimCtx<RingNode<S>>>),
    Native(ProgramTemplate<RingNode<S>, NativeCtx<RingNode<S>>>),
}

/// `T · k · P` phase fibers per node, chained in order on the node.
fn build_template<R: RingProgram, C: FiberCtx<NodeOf<R>> + 'static>(
    strat: &StrategyConfig,
    sweep_start: u32,
) -> ProgramTemplate<NodeOf<R>, C> {
    let mut tmpl = ProgramTemplate::new();
    for _proc in 0..strat.procs {
        let id = tmpl.add_node();
        for t in 0..strat.sweeps {
            for p in 0..strat.phases_per_sweep() {
                tmpl.node_mut(id).add_fiber(FiberTemplate::new(
                    R::FIBER,
                    sync_count(t, p, strat.k, sweep_start),
                    move |n: &mut NodeOf<R>, ctx: &mut C| run_phase::<R, C>(n, t, p, ctx),
                ));
            }
        }
    }
    tmpl
}

/// A fully prepared ring run: the program's frozen per-node plans and
/// the EARTH program template. Execute it any number of times; repeated
/// executes skip preparation, program construction and (on the
/// simulator) metering. The public faces are
/// [`PreparedPhased`](crate::PreparedPhased) and
/// [`PreparedGather`](crate::PreparedGather). `S` is the program's node
/// state, a parameter of its own so the type is nameable without the
/// program's bounds.
pub struct PreparedRing<R, S> {
    pub(crate) prog: R,
    pub(crate) strat: StrategyConfig,
    pub(crate) geometry: PhaseGeometry,
    mem_cfg: MemConfig,
    /// Trace-sink selection captured at prepare time, for
    /// [`Self::execute_recovering_with`].
    trace_cfg: TraceConfig,
    /// LightInspector stage-completion events captured during prepare,
    /// replayed into the sink of every traced execute.
    inspector_events: Vec<TraceEvent>,
    template: Template<S>,
    pub(crate) token: PlanToken,
    executions: u64,
}

impl<R: RingProgram, S> std::fmt::Debug for PreparedRing<R, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedRing")
            .field("engine", &R::ENGINE)
            .field("strat", &self.strat)
            .field("token", &self.token)
            .field("executions", &self.executions)
            .finish_non_exhaustive()
    }
}

impl<R: RingProgram<Node = S>, S: Send + 'static> PreparedRing<R, S> {
    pub(crate) fn new(
        prog: R,
        strat: &StrategyConfig,
        geometry: PhaseGeometry,
        cfg: &ExecutionConfig,
        inspector_events: Vec<TraceEvent>,
    ) -> Self {
        let sweep_start = prog.sweep_start_syncs(&geometry);
        let template = match cfg.backend {
            BackendKind::Sim => Template::Sim(build_template::<R, _>(strat, sweep_start)),
            BackendKind::Native => Template::Native(build_template::<R, _>(strat, sweep_start)),
        };
        PreparedRing {
            prog,
            strat: *strat,
            geometry,
            // Only the simulator charges through the stream model.
            mem_cfg: cfg.sim.mem,
            trace_cfg: cfg.trace,
            inspector_events,
            template,
            token: PlanToken::fresh(),
            executions: 0,
        }
    }

    /// The strategy this run was prepared for.
    pub fn strategy(&self) -> &StrategyConfig {
        &self.strat
    }

    /// Cache identity of this plan (the version changes whenever the
    /// plan is mutated).
    pub fn token(&self) -> PlanToken {
        self.token
    }

    /// Executes performed so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Instantiate per-node states, seeding simulated runs with the
    /// phase costs an earlier execute of this plan version measured.
    fn make_nodes(&self, ws: &mut Workspace, sim: bool) -> Vec<RingNode<S>> {
        let cached = if sim {
            ws.costs_for(self.token).cloned()
        } else {
            None
        };
        let kp = self.geometry.num_phases();
        let states = self.prog.make_nodes(ws).into_iter().enumerate();
        states
            .map(|(proc, state)| RingNode {
                proc,
                sweeps: self.strat.sweeps,
                geometry: self.geometry,
                phase_cost: cached
                    .as_ref()
                    .and_then(|c| c.get(proc).cloned())
                    .unwrap_or_else(|| vec![None; kp]),
                stream: StreamModel::new(self.mem_cfg),
                state,
            })
            .collect()
    }

    /// Assemble values, read arrays and per-phase row counts, return
    /// every buffer to the pool, and (for simulated runs) harvest the
    /// measured phase costs into the workspace cache.
    fn finish(&self, nodes: Vec<RingNode<S>>, ws: &mut Workspace, sim: bool) -> RunOutcome {
        let mut harvest = Vec::with_capacity(if sim { nodes.len() } else { 0 });
        let mut counts = Vec::with_capacity(nodes.len());
        let mut states = Vec::with_capacity(nodes.len());
        for n in nodes {
            let plan = R::plan(&n.state);
            counts.push(
                (0..plan.num_phases())
                    .map(|p| plan.phase_rows(p).len())
                    .collect(),
            );
            if sim {
                harvest.push(n.phase_cost);
            }
            states.push(n.state);
        }
        if sim {
            ws.store_costs(self.token, harvest);
        }
        let (values, read) = self.prog.finish(states, ws);
        RunOutcome {
            values,
            read,
            phase_iter_counts: counts,
            ..RunOutcome::default()
        }
    }

    /// Count one execute and open its trace sink, replaying the
    /// prepare-time inspector events into it so traced executes show
    /// inspection ahead of the run.
    fn begin(
        &mut self,
        trace: TraceConfig,
        backend: &'static str,
    ) -> (Provenance, Arc<dyn TraceSink>) {
        let provenance = Provenance {
            engine: R::ENGINE,
            backend,
            reused_plan: self.executions > 0,
            executions: self.executions + 1,
        };
        self.executions += 1;
        let sink = trace.make_sink(self.strat.procs);
        if sink.enabled() {
            for &ev in &self.inspector_events {
                sink.record(ev);
            }
        }
        (provenance, sink)
    }

    pub(crate) fn execute(
        &mut self,
        cfg: &ExecutionConfig,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let base = cfg.native;
        match cfg.backend {
            BackendKind::Sim => self.execute_sim(cfg.sim, cfg.trace, ws),
            BackendKind::Native => {
                self.execute_native(ws, cfg.trace, cfg.recovery, |attempt| NativeConfig {
                    faults: attempt_faults(base.faults, attempt),
                    ..base
                })
            }
        }
    }

    /// One simulated run.
    fn execute_sim(
        &mut self,
        sim: SimConfig,
        trace: TraceConfig,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let (provenance, sink) = self.begin(trace, "sim");
        let Template::Sim(tmpl) = &self.template else {
            return Err(EngineError::Unsupported(
                "prepared run was built for the native backend",
            ));
        };
        let nodes = self.make_nodes(ws, true);
        let report = run_sim_traced(tmpl.instantiate(nodes), sim, Arc::clone(&sink));
        check_sim_fired(&report.stats)?;
        let mut out = RunOutcome {
            time_cycles: report.time_cycles,
            seconds: report.seconds,
            stats: report.stats,
            trace: report.trace,
            provenance,
            ..self.finish(report.states, ws, true)
        };
        out.fill_metrics();
        out.record_trace_drops(sink.as_ref());
        Ok(out)
    }

    /// Native runs, directly or under a [`RecoveryPolicy`]; the caller
    /// chooses the backend configuration of each attempt.
    fn execute_native(
        &mut self,
        ws: &mut Workspace,
        trace: TraceConfig,
        recovery: Option<RecoveryPolicy>,
        cfg_for_attempt: impl Fn(u32) -> NativeConfig,
    ) -> Result<RunOutcome, EngineError> {
        let (provenance, sink) = self.begin(trace, "native");
        let mut out = match recovery {
            None => self.native_attempt(cfg_for_attempt(0), &sink, ws)?,
            Some(policy) => run_recovery_ladder(
                policy,
                sink.as_ref(),
                |attempt| cfg_for_attempt(attempt).faults.map(|f| f.seed),
                |attempt| self.native_attempt(cfg_for_attempt(attempt), &sink, ws),
                || self.prog.seq_fallback(self.strat.sweeps),
            )?,
        };
        // The sink accumulates across retry attempts, so the drained
        // stream shows every rung, not just the winner.
        out.trace = sink.drain();
        out.provenance = provenance;
        out.fill_metrics();
        out.record_trace_drops(sink.as_ref());
        Ok(out)
    }

    /// One native run from the prepared plan. A ring program has no
    /// legitimate unfired fibers, so a starved machine — a phase fiber
    /// whose sync never arrives, e.g. because a fault plan dropped the
    /// message — is a typed `Stalled` error on both backends.
    fn native_attempt(
        &self,
        cfg: NativeConfig,
        sink: &Arc<dyn TraceSink>,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let Template::Native(tmpl) = &self.template else {
            return Err(EngineError::Unsupported(
                "prepared run was built for the simulator",
            ));
        };
        let cfg = NativeConfig {
            starved_is_error: true,
            ..cfg
        };
        let nodes = self.make_nodes(ws, false);
        let report = run_native_traced(tmpl.instantiate(nodes), cfg, Arc::clone(sink))?;
        Ok(RunOutcome {
            wall: report.wall,
            stats: report.stats,
            ..self.finish(report.states, ws, false)
        })
    }

    /// The general recovery form: the caller chooses the backend
    /// configuration of each attempt (attempt numbers start at 0).
    /// Invalid-spec errors are returned immediately — retrying a caller
    /// bug cannot succeed; only runtime failures walk the ladder.
    pub fn execute_recovering_with(
        &mut self,
        ws: &mut Workspace,
        policy: RecoveryPolicy,
        cfg_for_attempt: impl Fn(u32) -> NativeConfig,
    ) -> Result<RunOutcome, EngineError> {
        self.execute_native(ws, self.trace_cfg, Some(policy), cfg_for_attempt)
    }
}

/// A rotating-portion executor as a
/// [`ReductionEngine`](crate::ReductionEngine): construct it from an
/// [`ExecutionConfig`], `prepare` once per `(spec, strategy)`, `execute`
/// per run. `P` names the program; the public faces are
/// [`PhasedEngine`](crate::PhasedEngine) and
/// [`GatherEngine`](crate::GatherEngine).
#[derive(Debug, Clone, Copy)]
pub struct RingEngine<P> {
    pub(crate) cfg: ExecutionConfig,
    program: std::marker::PhantomData<P>,
}

impl<P> RingEngine<P> {
    /// The general constructor: any [`ExecutionConfig`] (or a bare
    /// `SimConfig`/`NativeConfig` via `Into`).
    pub fn new(cfg: impl Into<ExecutionConfig>) -> Self {
        RingEngine {
            cfg: cfg.into(),
            program: std::marker::PhantomData,
        }
    }

    /// Run on the discrete-event simulator.
    pub fn sim(cfg: SimConfig) -> Self {
        Self::new(ExecutionConfig::sim(cfg))
    }

    /// Run on real OS threads (one per simulated node).
    pub fn native(cfg: NativeConfig) -> Self {
        Self::new(ExecutionConfig::native(cfg))
    }

    /// Run natively under a [`RecoveryPolicy`]: retry failed runs with
    /// exponential backoff (re-instantiating the program each time and,
    /// when a fault plan is configured, reseeding it per attempt), then
    /// fall back to the program's sequential reference. Callers always
    /// get a bit-correct answer or a typed error — never a hang, never
    /// silent corruption.
    pub fn recovering(cfg: NativeConfig, policy: RecoveryPolicy) -> Self {
        Self::new(ExecutionConfig::native(cfg).with_recovery(policy))
    }

    pub fn config(&self) -> &ExecutionConfig {
        &self.cfg
    }
}

/// Run `f` over `items` on `min(items, cores)` workers — the calling
/// thread plus the process-wide [`Pool`] — each taking a contiguous run
/// of items, and return the results in item order, so the output never
/// depends on the host's core count. A panic in `f` comes back as
/// [`RunError::NodePanicked`] naming the first panicking item (fiber
/// `"prepare"`); the pool's workers survive it.
///
/// The caller queues every run but its first, runs that one itself,
/// then pops queued tasks (its own or another caller's) until its own
/// have all finished, parking only while the queue is empty. A caller
/// never waits on a task nobody has started, so nested and concurrent
/// calls cannot deadlock.
pub(crate) fn fan_out<T: Send, R: Send>(
    items: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Result<Vec<R>, EngineError> {
    let (pool, cores) = Pool::get();
    let len = items.len();
    let per = len.div_ceil(cores).max(1);
    let mut runs: Vec<Vec<(usize, T)>> = Vec::new();
    for (i, t) in items.into_iter().enumerate() {
        if i % per == 0 {
            runs.push(Vec::with_capacity(per));
        }
        runs.last_mut().expect("pushed above").push((i, t));
    }
    let mut runs = runs.into_iter();
    let Some(first) = runs.next() else {
        return Ok(Vec::new());
    };
    let rest: Vec<_> = runs.collect();
    let slots: Vec<Mutex<Option<RunResult<R>>>> = rest.iter().map(|_| Mutex::new(None)).collect();
    let latch = Latch {
        remaining: AtomicUsize::new(rest.len()),
        owner: std::thread::current(),
    };
    let (f, latch) = (&f, &latch);
    let tasks: Vec<Task> = rest
        .into_iter()
        .zip(&slots)
        .map(|(run, slot)| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let out = run_items(run, f);
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                latch.count_down();
            });
            // SAFETY: the task borrows `f`, `slot` and `latch` from this
            // frame and owns items whose type may borrow from the
            // caller; only the lifetime is erased, never the layout.
            // That is sound because this function neither returns nor
            // unwinds until `latch` reads zero, and a task's last touch
            // of anything borrowed is its `count_down`. Nothing between
            // the push below and the end of the wait loop can unwind:
            // the caller's own slice and every task (ours or another
            // caller's, popped while helping) run `f` under
            // `catch_unwind` in `run_items`; the queue and slot locks
            // ignore poisoning; `count_down`, `park` and `unpark` do not
            // panic; and panic payloads are dropped only after the
            // wait. So no queued task can outlive what it borrows, even
            // when the caller's own slice panics.
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) }
        })
        .collect();
    pool.push(tasks);
    let mine = run_items(first, f);
    while latch.remaining.load(Ordering::Acquire) != 0 {
        match pool.pop() {
            Some(task) => task(),
            None => std::thread::park(),
        }
    }
    let theirs = slots.into_iter().map(|slot| {
        let out = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        out.expect("a task fills its slot before counting down")
    });
    let mut out = Vec::with_capacity(len);
    for run in std::iter::once(mine).chain(theirs) {
        match run {
            Ok(values) => out.extend(values),
            Err((item, payload)) => {
                return Err(EngineError::Run(RunError::NodePanicked {
                    node: item,
                    slot: 0,
                    fiber: "prepare",
                    message: panic_message(payload),
                }))
            }
        }
    }
    Ok(out)
}

/// One run's results, or the item that panicked and its payload.
type RunResult<R> = Result<Vec<R>, (usize, Box<dyn std::any::Any + Send>)>;

/// A queued run of a [`fan_out`] call, its lifetime erased.
type Task = Box<dyn FnOnce() + Send>;

/// Apply `f` to one run of items, catching a panic so that neither a
/// pool worker nor a caller with queued tasks ever unwinds out of it.
fn run_items<T, R>(run: Vec<(usize, T)>, f: &impl Fn(usize, T) -> R) -> RunResult<R> {
    let mut at = 0;
    let mut out = Vec::with_capacity(run.len());
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        for (i, t) in run {
            at = i;
            out.push(f(i, t));
        }
    }));
    caught.map(|()| out).map_err(|payload| (at, payload))
}

/// A [`fan_out`] call's countdown of queued tasks still running; the
/// last one to finish unparks the calling thread.
struct Latch {
    remaining: AtomicUsize,
    owner: std::thread::Thread,
}

impl Latch {
    fn count_down(&self) {
        // Clone first: once the count reaches zero the caller may
        // return and free `self`.
        let owner = self.owner.clone();
        // Release pairs with the caller's Acquire load: the slot write
        // before this is visible once it reads zero.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            owner.unpark();
        }
    }
}

/// The process-wide prepare pool: `cores − 1` long-lived workers (the
/// caller of [`fan_out`] is the last core), started on first use and
/// parked on a condition variable between calls. Its threads, and the
/// malloc arenas they warm, are reused by every prepare, incremental
/// update and gather bucketing in the process.
struct Pool {
    queue: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

/// What the pool's threads are named (`/proc/<pid>/task/*/comm`).
const POOL_THREAD_NAME: &str = "irred-pool";

static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    ready: Condvar::new(),
};

impl Pool {
    /// The pool and the host's core count, starting the workers on the
    /// first call.
    fn get() -> (&'static Pool, usize) {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            for _ in 1..cores {
                // Workers are never joined: they live as long as the
                // process and never unwind (every task catches its own
                // panic). One that fails to start only leaves more
                // queued work to the callers, who drain the queue too.
                let _ = std::thread::Builder::new()
                    .name(POOL_THREAD_NAME.into())
                    .spawn(|| POOL.serve());
            }
            cores
        });
        (&POOL, cores)
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Task>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, tasks: Vec<Task>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        self.lock().extend(tasks);
        for _ in 0..n {
            self.ready.notify_one();
        }
    }

    fn pop(&self) -> Option<Task> {
        self.lock().pop_front()
    }

    /// A worker's loop: run queued tasks, parking while there are none.
    fn serve(&self) {
        loop {
            let task = {
                let mut queue = self.lock();
                loop {
                    if let Some(task) = queue.pop_front() {
                        break task;
                    }
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            task();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    fn panicked_item(result: Result<Vec<usize>, EngineError>) -> (usize, String) {
        match result {
            Err(EngineError::Run(RunError::NodePanicked {
                node,
                fiber: "prepare",
                message,
                ..
            })) => (node, message),
            other => panic!("expected a typed prepare panic, got {other:?}"),
        }
    }

    fn panic_at(bad: usize) -> impl Fn(usize, usize) -> usize + Sync {
        move |i, x| {
            assert!(i != bad, "item {i} refused");
            x * 2
        }
    }

    #[test]
    fn fan_out_panic_in_the_callers_slice_is_typed() {
        let (node, message) = panicked_item(fan_out((0..16).collect(), panic_at(0)));
        assert_eq!(node, 0);
        assert!(message.contains("item 0 refused"), "{message}");
    }

    #[test]
    fn fan_out_panic_in_another_slice_is_typed() {
        // The last item sits in the last run, which is queued for the
        // pool whenever the host has more than one core.
        let (node, message) = panicked_item(fan_out((0..16).collect(), panic_at(15)));
        assert_eq!(node, 15);
        assert!(message.contains("item 15 refused"), "{message}");
    }

    #[test]
    fn fan_out_after_a_panic_still_succeeds() {
        panicked_item(fan_out((0..16).collect(), panic_at(15)));
        let out = fan_out((0..64).collect(), panic_at(usize::MAX)).unwrap();
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
        // Two runs that must overlap: item 0 (the caller's) waits for
        // item 1 (queued), so a second thread has to take it.
        if Pool::get().1 > 1 {
            let (tx, rx) = mpsc::channel();
            let rx = Mutex::new(rx);
            let met = fan_out(vec![0, 1], |i, _: u8| match i {
                0 => {
                    let rx = rx.lock().unwrap();
                    rx.recv_timeout(Duration::from_secs(60)).is_ok()
                }
                _ => tx.send(()).is_ok(),
            })
            .unwrap();
            assert_eq!(met, vec![true, true]);
        }
    }

    #[test]
    fn concurrent_and_nested_fan_outs_keep_item_order() {
        let items = 8 * Pool::get().1 + 3;
        let start = Barrier::new(2);
        let call = |salt: usize| {
            start.wait();
            fan_out((0..items).collect(), |i, x: usize| {
                let inner = fan_out((0..i % 5).collect(), |j, y: usize| j + y).unwrap();
                (x + salt, inner.iter().sum::<usize>())
            })
            .unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| call(0));
            let b = s.spawn(|| call(1000));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (salt, out) in [(0, a), (1000, b)] {
            let want: Vec<_> = (0..items)
                .map(|i| (i + salt, (i % 5) * (i % 5).saturating_sub(1)))
                .collect();
            assert_eq!(out, want);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn prepares_reuse_one_pool_of_cores_minus_one_threads() {
        use crate::kernel::WeightedPairKernel;
        use crate::{PhasedEngine, PhasedSpec, ReductionEngine};
        use workloads::Distribution;

        let iters = 400;
        let spec = PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(vec![1.0; iters]),
            }),
            num_elements: 64,
            indirection: Arc::new(vec![
                (0..iters as u32).map(|i| i % 64).collect(),
                (0..iters as u32).map(|i| (i * 7) % 64).collect(),
            ]),
        };
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..32 {
                        engine.prepare(&spec, &strat).unwrap();
                    }
                });
            }
        });
        let named_for_the_pool = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == POOL_THREAD_NAME)
            .count();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(named_for_the_pool, cores - 1);
    }
}
