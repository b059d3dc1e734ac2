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
//! recovery path, and the phase-fiber skeleton ([`run_phase`]). Hooks
//! are generic, never `dyn`, so each program monomorphises.

use std::ops::Range;
use std::sync::Arc;

use earth_model::native::{run_native_traced, NativeConfig, NativeCtx};
use earth_model::program::CtxMeter;
use earth_model::sim::{run_sim_traced, SimConfig, SimCtx};
use earth_model::{
    mailbox_key, FiberCtx, FiberTemplate, Meter, ProgramTemplate, SlotId, TraceSink, Value,
};
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

/// Most pooled payload buffers a node retains (portion sizes take at
/// most two distinct values, so a handful is plenty).
const MAX_NODE_POOL: usize = 32;

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
    /// Mailbox tag of forwarded portion payloads.
    const TAG: u32;

    /// Extra syncs the first phase of every later sweep waits for.
    fn sweep_start_syncs(&self, _g: &PhaseGeometry) -> u32 {
        0
    }

    /// Instantiate the per-node states, drawing buffers from `ws`.
    fn make_nodes(&self, ws: &mut Workspace, sim: bool) -> Vec<Self::Node>;

    /// Assemble the global result and return the nodes' buffers to `ws`.
    fn finish(&self, nodes: Vec<Self::Node>, ws: &mut Workspace) -> Assembled;

    /// The sequential answer the recovery ladder falls back to.
    fn seq_fallback(&self, sweeps: usize) -> RunOutcome;

    /// A node's schedule; its per-phase rows are the run's
    /// [`RunOutcome::phase_iter_counts`].
    fn plan(node: &Self::Node) -> &FlatPlan;

    /// Initialise or receive what the phase's loop needs.
    fn arrive<C: FiberCtx<NodeOf<Self>>>(n: &mut NodeOf<Self>, ph: &Phase, ctx: &mut C);

    /// The phase's loop (native runs, replayed sweeps).
    fn run_loops(node: &mut Self::Node, ph: &Phase);

    /// The phase's loop with every access metered (measuring sweeps).
    fn run_loops_metered<M: Meter>(node: &mut Self::Node, ph: &Phase, meter: &mut M);

    /// Work after the loop, before the portion moves on.
    fn after_loops<C: FiberCtx<NodeOf<Self>>>(_n: &mut NodeOf<Self>, _ph: &Phase, _ctx: &mut C) {}

    /// The payload forwarded to the ring successor; `None` sends a bare
    /// sync.
    fn forwarded<'a>(node: &'a Self::Node, ph: &Phase) -> Option<&'a [f64]>;
}

/// One node of a ring program: the driver's bookkeeping around the
/// program's own state.
pub struct RingNode<S> {
    pub(crate) proc: usize,
    pub(crate) sweeps: usize,
    pub(crate) geometry: PhaseGeometry,
    /// Recycled portion-payload buffers: boxes received from the ring
    /// predecessor are reused for our own forwards, so the steady state
    /// allocates nothing on the message path.
    pub(crate) pool: Vec<Box<[f64]>>,
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
    pub(crate) portion: usize,
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
        c += 1; // portion arrival (data or bare sync)
    }
    if p == 0 && t > 0 {
        c += sweep_start;
    }
    c
}

/// Receive the portion payload forwarded to phase `ph` into `dst` and
/// keep its buffer for our own forwards. The SU deposits the payload
/// directly into the portion's memory (split-phase block move): no EU
/// copy charge; the metered loop pays the first-touch misses.
pub(crate) fn recv_portion<R: RingProgram, C: FiberCtx<NodeOf<R>>>(
    ctx: &mut C,
    ph: &Phase,
    dst: &mut [f64],
    pool: &mut Vec<Box<[f64]>>,
) {
    let key = mailbox_key(R::TAG, ph.abs() as u32);
    let payload = ctx.recv(key).expect("portion payload must have arrived");
    dst.copy_from_slice(payload.expect_f64s());
    if let Value::F64s(b) = payload {
        if pool.len() < MAX_NODE_POOL {
            pool.push(b);
        }
    }
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
        portion,
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

    // Forward the portion around the ring.
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
            Some(src) => {
                // One contiguous copy into a recycled buffer of exactly
                // the right length (almost always pooled).
                let mut payload = match n.pool.iter().position(|b| b.len() == src.len()) {
                    Some(i) => n.pool.swap_remove(i),
                    None => vec![0.0f64; src.len()].into_boxed_slice(),
                };
                payload.copy_from_slice(src);
                let key = mailbox_key(R::TAG, next_abs as u32);
                ctx.data_sync(dest, key, Value::F64s(payload), next_abs as SlotId);
            }
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
        let states = self.prog.make_nodes(ws, sim).into_iter().enumerate();
        states
            .map(|(proc, state)| RingNode {
                proc,
                sweeps: self.strat.sweeps,
                geometry: self.geometry,
                pool: Vec::new(),
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
            for b in n.pool {
                ws.put_buffer(b.into_vec());
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

/// Run `f` over `items` on `min(items, cores)` workers (the calling
/// thread plus scoped threads), each taking a contiguous run of items,
/// and return the results in item order — so the output never depends
/// on the host's core count.
pub(crate) fn fan_out<T: Send, R: Send>(items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = items.len().div_ceil(workers).max(1);
    let mut runs: Vec<Vec<(usize, T)>> = Vec::new();
    for (i, t) in items.into_iter().enumerate() {
        if i % per == 0 {
            runs.push(Vec::with_capacity(per));
        }
        runs.last_mut().expect("pushed above").push((i, t));
    }
    let f = &f;
    let work =
        move |run: Vec<(usize, T)>| -> Vec<R> { run.into_iter().map(|(i, t)| f(i, t)).collect() };
    let mut runs = runs.into_iter();
    let Some(first) = runs.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = runs.map(|run| scope.spawn(move || work(run))).collect();
        let mut out = work(first);
        for h in handles {
            out.extend(h.join().expect("prepare worker panicked"));
        }
        out
    })
}
