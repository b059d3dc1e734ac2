//! Phased execution of the `mvm` shape: gather-side rotation.
//!
//! In sparse matrix–vector multiply the *reduction* array `y` is indexed
//! by the loop variable — no indirection on the left-hand side — while
//! the vector `x` is gathered through the column indices. The paper
//! (§5's opening and §3) notes its execution strategy, memory
//! management, and synchronization still apply, but the LightInspector
//! machinery is not required: each processor owns a block of rows (and
//! `y` entries), the vector `x` rotates around the ring in `k·P`
//! portions, and during phase `p` the processor processes exactly those
//! of its nonzeros whose column lies in the resident portion. Bucketing
//! nonzeros by phase is a [`lightinspector::inspect`] with one reference
//! per nonzero (its column), which is always resident in its phase: the
//! schedule has no buffer and no second loop.
//!
//! The phase bucketing depends only on the matrix structure, so a
//! [`PreparedGather`] is reused across input vectors: a CG iteration
//! swaps in the next `x` with [`PreparedGather::set_x`] and re-executes
//! the same plan — no re-bucketing, no program rebuild, and cached phase
//! costs stay valid (the access *pattern* is unchanged).

use std::sync::Arc;

use earth_model::native::{run_native_traced, NativeConfig, NativeCtx};
use earth_model::sim::{run_sim_traced, SimConfig, SimCtx};
use earth_model::{
    mailbox_key, FiberCtx, FiberTemplate, Meter, NullMeter, ProgramTemplate, SlotId, TraceSink,
    Value,
};
use lightinspector::{inspect, FlatPlan, InspectorInput, PhaseGeometry};
use memsim::{AddressMap, Region, StreamModel};
use trace::TraceKind;
use workloads::{distribute, SparseMatrix};

use crate::config::{BackendKind, ExecutionConfig};
use crate::engine::{
    attempt_faults, run_recovery_ladder, validate_gather_spec, validate_gather_x, EngineError,
    Provenance, RecoveryPolicy, ReductionEngine, RunOutcome,
};
use crate::phased::fan_out;
use crate::prepared::{PhaseCosts, PlanToken, Workspace};
use crate::strategy::StrategyConfig;

const TAG_XPORT: u32 = 3;

/// Problem description for the gather-rotation executor.
#[derive(Clone)]
pub struct GatherSpec {
    pub matrix: Arc<SparseMatrix>,
    /// The input vector (replicated conceptually; only portions move).
    pub x: Arc<Vec<f64>>,
}

struct NodeRegions {
    rows: Region,
    cols: Region,
    vals: Region,
    x: Region,
    y: Region,
}

/// The immutable, reusable part of one node: the phase-bucketed
/// nonzeros and the cache-model regions. Depends on the matrix and the
/// strategy only — never on the vector contents.
struct GatherNodePlan {
    geometry: PhaseGeometry,
    /// Rows owned by this node (global ids, ascending).
    rows: Vec<u32>,
    /// The node's nonzeros in schedule order (phase `p` occupies
    /// `sched.phase_rows(p)`): local row and value of each; the column
    /// of each is its single, resident reference, `sched.refs`.
    nz_rows: Vec<u32>,
    vals: Vec<f64>,
    sched: FlatPlan,
    regions: NodeRegions,
}

impl GatherNodePlan {
    fn new(
        matrix: &SparseMatrix,
        geometry: PhaseGeometry,
        proc: usize,
        rows: Vec<u32>,
    ) -> Result<GatherNodePlan, EngineError> {
        // The inspector's iterations are this node's nonzeros in
        // row-major order; it keeps each phase in ascending iteration
        // order.
        let (mut nz_row, mut nz_idx, mut cols) = (Vec::new(), Vec::new(), Vec::new());
        for (lr, &r) in rows.iter().enumerate() {
            for nz in matrix.row_ptr[r as usize] as usize..matrix.row_ptr[r as usize + 1] as usize {
                nz_row.push(lr as u32);
                nz_idx.push(nz);
                cols.push(matrix.col_idx[nz]);
            }
        }
        let fi = inspect(InspectorInput {
            geometry,
            proc_id: proc,
            indirection: &[&cols],
        })?;
        debug_assert_eq!(fi.buffer_len, 0);
        let nz_rows = fi.iters.iter().map(|&i| nz_row[i as usize]).collect();
        let vals = fi
            .iters
            .iter()
            .map(|&i| matrix.values[nz_idx[i as usize]])
            .collect();

        let total_nnz = cols.len();
        let mut am = AddressMap::new(64);
        let regions = NodeRegions {
            rows: am.alloc_u32(total_nnz.max(1)),
            cols: am.alloc_u32(total_nnz.max(1)),
            vals: am.alloc_f64(total_nnz.max(1)),
            x: am.alloc_f64(matrix.ncols),
            y: am.alloc_f64(rows.len().max(1)),
        };

        Ok(GatherNodePlan {
            geometry,
            rows,
            nz_rows,
            vals,
            sched: fi.flat,
            regions,
        })
    }

    /// Phase `p`'s nonzeros through `y[row] += val · x[col]`.
    fn gather_phase<M: Meter>(&self, p: usize, x: &[f64], y: &mut [f64], meter: &mut M) {
        let regs = &self.regions;
        for pos in self.sched.phase_rows(p) {
            let (r, c, v) = (
                self.nz_rows[pos] as usize,
                self.sched.refs[pos] as usize,
                self.vals[pos],
            );
            meter.load(regs.rows.addr(pos));
            meter.load(regs.cols.addr(pos));
            meter.load(regs.vals.addr(pos));
            meter.load(regs.x.addr(c));
            meter.load(regs.y.addr(r));
            y[r] += v * x[c];
            meter.store(regs.y.addr(r));
            meter.flops(2);
        }
    }
}

/// Node state for the gather executor: the shared plan plus this
/// execute's mutable buffers.
pub struct GatherNode {
    proc: usize,
    sweeps: usize,
    data: Arc<GatherNodePlan>,
    /// Local copy of x (portions become valid as they arrive).
    x: Vec<f64>,
    /// Local y block, indexed like `data.rows`.
    y: Vec<f64>,
    /// Recycled portion-payload buffers (see the phased executor): the
    /// boxes received from the ring predecessor are reused for our own
    /// forwards, so the steady state allocates nothing per message.
    pool: Vec<Box<[f64]>>,
    phase_cost: Vec<Option<u64>>,
    stream: StreamModel,
}

/// Most pooled payload buffers a node retains.
const MAX_NODE_POOL: usize = 32;

fn slot_of(abs: usize) -> SlotId {
    abs as SlotId
}

impl GatherNode {
    fn run_phase<C: FiberCtx<Self>>(s: &mut Self, t: usize, p: usize, ctx: &mut C) {
        let g = s.data.geometry;
        let kp = g.num_phases();
        let k = g.k();
        let portion = g.portion_owned_by(s.proc, p);
        let range = g.portion_range(portion);
        let abs = t * kp + p;
        let tracing = ctx.trace_enabled();
        if tracing {
            ctx.trace(TraceKind::PhaseEnter {
                sweep: t as u32,
                phase: p as u32,
            });
            ctx.trace(TraceKind::CopyEnter {
                sweep: t as u32,
                phase: p as u32,
            });
        }

        // Zero y at each sweep start.
        if p == 0 {
            s.y.fill(0.0);
            if ctx.is_sim() && !s.y.is_empty() {
                ctx.charge(s.stream.stream(s.y.len() as u64, 8));
            }
        }

        // Receive the resident x portion (except the initially-held ones).
        if !(range.is_empty() || (t == 0 && p < k)) {
            let payload = ctx
                .recv(mailbox_key(TAG_XPORT, abs as u32))
                .expect("x portion must have arrived");
            let vals = payload.expect_f64s();
            // SU-deposited (split-phase block move): no EU copy charge;
            // first-touch misses are paid by the metered loop.
            s.x[range.clone()].copy_from_slice(vals);
            // Recycle the payload buffer for our own forwards.
            if let Value::F64s(b) = payload {
                if s.pool.len() < MAX_NODE_POOL {
                    s.pool.push(b);
                }
            }
        }
        if tracing {
            ctx.trace(TraceKind::CopyExit {
                sweep: t as u32,
                phase: p as u32,
            });
        }

        // The gather-accumulate loop. Sweep 0 runs on a cold cache; the
        // steady-state cost is measured on sweep 1 and replayed after.
        if ctx.is_sim() {
            match s.phase_cost[p] {
                Some(c) => {
                    s.exec_loop(p, &mut NullMeter);
                    ctx.charge(c);
                }
                None => {
                    let before = ctx.charged();
                    let mut meter = earth_model::program::CtxMeter::<Self, C>::new(ctx);
                    s.exec_loop(p, &mut meter);
                    let cost = ctx.charged() - before;
                    if t > 0 || s.sweeps == 1 {
                        s.phase_cost[p] = Some(cost);
                    }
                }
            }
        } else {
            s.exec_loop(p, &mut NullMeter);
        }

        // Forward the portion (x is immutable, so data flows every hop).
        let next_abs = abs + k;
        if next_abs < s.sweeps * kp {
            let dest = g.next_owner(s.proc);
            if tracing {
                ctx.trace(TraceKind::PortionRotate {
                    portion: portion as u32,
                    to_node: dest as u32,
                });
            }
            if range.is_empty() {
                ctx.sync(dest, slot_of(next_abs));
            } else {
                // One contiguous copy into a recycled exact-length buffer
                // (portion sizes take at most two distinct values).
                let need = range.len();
                let mut payload = match s.pool.iter().position(|b| b.len() == need) {
                    Some(i) => s.pool.swap_remove(i),
                    None => vec![0.0f64; need].into_boxed_slice(),
                };
                payload.copy_from_slice(&s.x[range.clone()]);
                ctx.data_sync(
                    dest,
                    mailbox_key(TAG_XPORT, next_abs as u32),
                    Value::F64s(payload),
                    slot_of(next_abs),
                );
            }
        }

        // Chain to the next phase on this node.
        if abs + 1 < s.sweeps * kp {
            ctx.sync(s.proc, slot_of(abs + 1));
        }
        if tracing {
            ctx.trace(TraceKind::PhaseExit {
                sweep: t as u32,
                phase: p as u32,
            });
        }
    }

    fn exec_loop<M: Meter>(&mut self, p: usize, meter: &mut M) {
        self.data.gather_phase(p, &self.x, &mut self.y, meter);
    }
}

enum GatherTemplate {
    Sim(ProgramTemplate<GatherNode, SimCtx<GatherNode>>),
    Native(ProgramTemplate<GatherNode, NativeCtx<GatherNode>>),
}

fn build_template<C: FiberCtx<GatherNode> + 'static>(
    strat: &StrategyConfig,
) -> ProgramTemplate<GatherNode, C> {
    let kp = strat.phases_per_sweep();
    let mut tmpl = ProgramTemplate::new();
    for _proc in 0..strat.procs {
        let id = tmpl.add_node();
        for t in 0..strat.sweeps {
            for p in 0..kp {
                let mut count = 0u32;
                if !(t == 0 && p == 0) {
                    count += 1; // chain
                }
                if !(t == 0 && p < strat.k) {
                    count += 1; // portion arrival
                }
                tmpl.node_mut(id).add_fiber(FiberTemplate::new(
                    "mvm-phase",
                    count,
                    move |s: &mut GatherNode, ctx: &mut C| {
                        GatherNode::run_phase(s, t, p, ctx);
                    },
                ));
            }
        }
    }
    tmpl
}

/// A fully prepared gather run: validated matrix, phase-bucketed
/// nonzeros per node, and the EARTH program template. The input vector
/// is *state* of the prepared run — swap it per execute with
/// [`Self::set_x`] (a CG iteration does exactly this) without touching
/// the plan.
pub struct PreparedGather {
    matrix: Arc<SparseMatrix>,
    strat: StrategyConfig,
    /// The vector the next execute multiplies by.
    x_current: Vec<f64>,
    node_data: Vec<Arc<GatherNodePlan>>,
    mem_cfg: memsim::MemConfig,
    template: GatherTemplate,
    token: PlanToken,
    executions: u64,
}

impl std::fmt::Debug for PreparedGather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedGather")
            .field("strat", &self.strat)
            .field("token", &self.token)
            .field("executions", &self.executions)
            .finish_non_exhaustive()
    }
}

impl PreparedGather {
    fn new(
        spec: &GatherSpec,
        strat: &StrategyConfig,
        cfg: &ExecutionConfig,
    ) -> Result<Self, EngineError> {
        validate_gather_spec(&spec.matrix, spec.x.len())?;
        // ncols < k·P is legal: trailing x portions are empty and those
        // phases degenerate to bare synchronization.
        let geometry = PhaseGeometry::try_new(strat.procs, strat.k, spec.matrix.ncols)?;
        let rows = distribute(spec.matrix.nrows, strat.procs, strat.distribution);
        // Per-node phase bucketing only reads the shared matrix, so it
        // fans out like the phased executor's prepare, merged in
        // processor order.
        let node_data = fan_out(rows, |proc, proc_rows| {
            GatherNodePlan::new(&spec.matrix, geometry, proc, proc_rows).map(Arc::new)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let (mem_cfg, template) = match cfg.backend {
            BackendKind::Sim => (cfg.sim.mem, GatherTemplate::Sim(build_template(strat))),
            BackendKind::Native => (
                memsim::MemConfig::i860xp(),
                GatherTemplate::Native(build_template(strat)),
            ),
        };
        Ok(PreparedGather {
            matrix: Arc::clone(&spec.matrix),
            strat: *strat,
            x_current: spec.x.as_ref().clone(),
            node_data,
            mem_cfg,
            template,
            token: PlanToken::fresh(),
            executions: 0,
        })
    }

    /// Replace the input vector for subsequent executes. The plan (and
    /// any cached phase costs — the access *pattern* is unchanged) stays
    /// valid.
    pub fn set_x(&mut self, x: &[f64]) -> Result<(), EngineError> {
        validate_gather_x(&self.matrix, x.len())?;
        self.x_current.copy_from_slice(x);
        Ok(())
    }

    /// The vector the next execute will multiply by.
    pub fn x(&self) -> &[f64] {
        &self.x_current
    }

    pub fn strategy(&self) -> &StrategyConfig {
        &self.strat
    }

    pub fn token(&self) -> PlanToken {
        self.token
    }

    pub fn executions(&self) -> u64 {
        self.executions
    }

    fn make_nodes(&self, ws: &mut Workspace, sim: bool) -> Vec<GatherNode> {
        let kp = self.strat.phases_per_sweep();
        let cached = if sim {
            ws.costs_for(self.token).cloned()
        } else {
            None
        };
        (0..self.strat.procs)
            .map(|proc| {
                let data = Arc::clone(&self.node_data[proc]);
                let mut x = ws.take_buffer(self.matrix.ncols);
                x.copy_from_slice(&self.x_current);
                let y = ws.take_buffer(data.rows.len());
                let phase_cost = cached
                    .as_ref()
                    .and_then(|c| c.get(proc).cloned())
                    .unwrap_or_else(|| vec![None; kp]);
                GatherNode {
                    proc,
                    sweeps: self.strat.sweeps,
                    data,
                    x,
                    y,
                    pool: Vec::new(),
                    phase_cost,
                    stream: StreamModel::new(self.mem_cfg),
                }
            })
            .collect()
    }

    /// Collect the global y, return buffers to the pool, and (for
    /// simulated runs) harvest measured phase costs.
    fn finish(&self, nodes: Vec<GatherNode>, ws: &mut Workspace, sim: bool) -> Vec<f64> {
        let mut y = vec![0.0f64; self.matrix.nrows];
        let mut harvest: PhaseCosts = Vec::with_capacity(if sim { nodes.len() } else { 0 });
        for node in nodes {
            for (lr, &r) in node.data.rows.iter().enumerate() {
                y[r as usize] = node.y[lr];
            }
            if sim {
                harvest.push(node.phase_cost);
            }
            ws.put_buffer(node.x);
            ws.put_buffer(node.y);
            for b in node.pool {
                ws.put_buffer(b.into_vec());
            }
        }
        if sim {
            ws.store_costs(self.token, harvest);
        }
        y
    }

    fn provenance(&self, backend: &'static str, reused: bool) -> Provenance {
        Provenance {
            engine: "gather",
            backend,
            reused_plan: reused,
            executions: self.executions,
        }
    }

    /// Sequential fallback: plain SpMV with the current vector.
    fn seq_fallback(&self) -> RunOutcome {
        let mut y = vec![0.0; self.matrix.nrows];
        self.matrix.spmv(&self.x_current, &mut y);
        RunOutcome {
            values: vec![y],
            ..RunOutcome::default()
        }
    }

    fn execute(
        &mut self,
        cfg: &ExecutionConfig,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let reused = self.executions > 0;
        self.executions += 1;
        let sink = cfg.trace.make_sink(self.strat.procs);
        match (&self.template, cfg.backend) {
            (GatherTemplate::Sim(tmpl), BackendKind::Sim) => {
                let nodes = self.make_nodes(ws, true);
                let prog = tmpl.instantiate(nodes);
                let report = run_sim_traced(prog, cfg.sim, Arc::clone(&sink));
                assert_eq!(report.stats.unfired_fibers, 0);
                let y = self.finish(report.states, ws, true);
                let mut out = RunOutcome {
                    values: vec![y],
                    time_cycles: report.time_cycles,
                    seconds: report.seconds,
                    stats: report.stats,
                    trace: report.trace,
                    provenance: self.provenance("sim", reused),
                    ..RunOutcome::default()
                };
                out.fill_metrics();
                out.record_trace_drops(sink.as_ref());
                Ok(out)
            }
            (GatherTemplate::Native(_), BackendKind::Native) => {
                let base = cfg.native;
                let mut out = match cfg.recovery {
                    None => self.native_attempt(base, &sink, ws)?,
                    Some(policy) => run_recovery_ladder(
                        policy,
                        sink.as_ref(),
                        |attempt| attempt_faults(base.faults, attempt).map(|f| f.seed),
                        |attempt| {
                            let mut c = base;
                            c.faults = attempt_faults(base.faults, attempt);
                            self.native_attempt(c, &sink, ws)
                        },
                        || self.seq_fallback(),
                    )?,
                };
                // The sink accumulates across retry attempts, so the
                // drained stream shows every rung, not just the winner.
                out.trace = sink.drain();
                out.provenance = self.provenance("native", reused);
                out.fill_metrics();
                out.record_trace_drops(sink.as_ref());
                Ok(out)
            }
            _ => Err(EngineError::Unsupported(
                "prepared run was built for the other backend",
            )),
        }
    }

    /// One native run from the prepared plan. Like the phased executor,
    /// a starved machine is reported as a typed `Stalled` error, never
    /// as a silently short result.
    fn native_attempt(
        &self,
        cfg: NativeConfig,
        sink: &Arc<dyn TraceSink>,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let GatherTemplate::Native(tmpl) = &self.template else {
            return Err(EngineError::Unsupported(
                "prepared run was built for the simulator",
            ));
        };
        let cfg = NativeConfig {
            starved_is_error: true,
            ..cfg
        };
        let nodes = self.make_nodes(ws, false);
        let prog = tmpl.instantiate(nodes);
        let report = run_native_traced(prog, cfg, Arc::clone(sink))?;
        let y = self.finish(report.states, ws, false);
        Ok(RunOutcome {
            values: vec![y],
            wall: report.wall,
            stats: report.stats,
            ..RunOutcome::default()
        })
    }
}

/// The `mvm` gather executor as a [`ReductionEngine`].
#[derive(Debug, Clone, Copy)]
pub struct GatherEngine {
    cfg: ExecutionConfig,
}

impl GatherEngine {
    /// The general constructor: any [`ExecutionConfig`] (or a bare
    /// `SimConfig`/`NativeConfig` via `Into`).
    pub fn new(cfg: impl Into<ExecutionConfig>) -> Self {
        GatherEngine { cfg: cfg.into() }
    }

    /// Run on the discrete-event simulator.
    pub fn sim(cfg: SimConfig) -> Self {
        Self::new(ExecutionConfig::sim(cfg))
    }

    /// Run on real OS threads.
    pub fn native(cfg: NativeConfig) -> Self {
        Self::new(ExecutionConfig::native(cfg))
    }

    /// Run natively under a [`RecoveryPolicy`]; the fallback is a plain
    /// sequential SpMV.
    pub fn recovering(cfg: NativeConfig, policy: RecoveryPolicy) -> Self {
        Self::new(ExecutionConfig::native(cfg).with_recovery(policy))
    }

    pub fn config(&self) -> &ExecutionConfig {
        &self.cfg
    }
}

impl ReductionEngine<GatherSpec> for GatherEngine {
    type Prepared = PreparedGather;

    fn name(&self) -> &'static str {
        "gather"
    }

    fn prepare(
        &self,
        spec: &GatherSpec,
        strat: &StrategyConfig,
    ) -> Result<Self::Prepared, EngineError> {
        PreparedGather::new(spec, strat, &self.cfg)
    }

    fn execute(
        &self,
        prepared: &mut Self::Prepared,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        prepared.execute(&self.cfg, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Distribution;

    fn spec(n: usize, nnz: usize, seed: u64) -> GatherSpec {
        let matrix = Arc::new(SparseMatrix::random(n, n, nnz, seed));
        let x = Arc::new(
            (0..n)
                .map(|i| (i % 17) as f64 * 0.5 + 1.0)
                .collect::<Vec<_>>(),
        );
        GatherSpec { matrix, x }
    }

    fn reference(spec: &GatherSpec) -> Vec<f64> {
        let mut y = vec![0.0; spec.matrix.nrows];
        spec.matrix.spmv(&spec.x, &mut y);
        y
    }

    fn run_sim_engine(s: &GatherSpec, strat: &StrategyConfig) -> RunOutcome {
        GatherEngine::sim(SimConfig::default())
            .run(s, strat)
            .unwrap()
    }

    #[test]
    fn matches_spmv_2procs() {
        let s = spec(64, 600, 1);
        let r = run_sim_engine(&s, &StrategyConfig::new(2, 2, Distribution::Block, 3));
        assert!(crate::approx_eq(&r.values[0], &reference(&s), 1e-10));
    }

    #[test]
    fn matches_spmv_8procs_k4() {
        let s = spec(128, 2_000, 2);
        let r = run_sim_engine(&s, &StrategyConfig::new(8, 4, Distribution::Block, 2));
        assert!(crate::approx_eq(&r.values[0], &reference(&s), 1e-10));
    }

    #[test]
    fn native_matches_spmv() {
        let s = spec(64, 600, 3);
        let r = GatherEngine::native(NativeConfig::default())
            .run(&s, &StrategyConfig::new(4, 2, Distribution::Block, 2))
            .unwrap();
        assert!(crate::approx_eq(&r.values[0], &reference(&s), 1e-10));
    }

    #[test]
    fn k2_beats_k1_on_many_procs() {
        // Enough sweeps that the pipelined steady state (where k=2's
        // overlap pays) dominates ramp-up and the metering sweeps, and a
        // compute-to-transfer ratio inside the paper's regime (k=2's
        // per-phase compute must exceed one portion transfer, else only
        // k≥4 could hide it).
        let s = spec(4096, 200_000, 4);
        let t1 =
            run_sim_engine(&s, &StrategyConfig::new(16, 1, Distribution::Block, 12)).time_cycles;
        let t2 =
            run_sim_engine(&s, &StrategyConfig::new(16, 2, Distribution::Block, 12)).time_cycles;
        assert!(t2 < t1, "k=2 {t2} vs k=1 {t1}");
    }

    #[test]
    fn message_count_is_deterministic_function_of_shape() {
        // P procs, k, T sweeps: each absolute phase beyond the first k on
        // each node gets one message/sync: P * (T*kP - k).
        let s = spec(256, 3_000, 5);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let r = run_sim_engine(&s, &strat);
        let kp = strat.phases_per_sweep();
        let expected = strat.procs as u64 * (strat.sweeps * kp - strat.k) as u64;
        assert_eq!(r.stats.ops.messages, expected);
    }

    #[test]
    fn cyclic_rows_also_correct() {
        let s = spec(96, 900, 6);
        let r = run_sim_engine(&s, &StrategyConfig::new(3, 2, Distribution::Cyclic, 2));
        assert!(crate::approx_eq(&r.values[0], &reference(&s), 1e-10));
    }

    #[test]
    fn prepared_set_x_matches_fresh_runs() {
        let s = spec(96, 1_200, 7);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 1);
        let engine = GatherEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&s, &strat).unwrap();
        let mut ws = Workspace::new();
        for round in 0..3u64 {
            let x2: Vec<f64> = (0..96)
                .map(|i| ((i + round as usize) % 13) as f64)
                .collect();
            prepared.set_x(&x2).unwrap();
            let out = engine.execute(&mut prepared, &mut ws).unwrap();
            let fresh = GatherSpec {
                matrix: Arc::clone(&s.matrix),
                x: Arc::new(x2),
            };
            let mut y = vec![0.0; 96];
            fresh.matrix.spmv(&fresh.x, &mut y);
            assert!(crate::approx_eq(&out.values[0], &y, 1e-10));
        }
        assert_eq!(prepared.executions(), 3);
        assert!(ws.pooled_buffers() > 0);
    }

    #[test]
    fn set_x_rejects_wrong_length() {
        let s = spec(64, 600, 8);
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
        let engine = GatherEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&s, &strat).unwrap();
        assert!(matches!(
            prepared.set_x(&[1.0; 5]).unwrap_err(),
            EngineError::Shape { .. }
        ));
    }

    #[test]
    fn traced_gather_run_emits_phase_events() {
        let s = spec(64, 600, 9);
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 2);
        let r = GatherEngine::new(ExecutionConfig::sim(SimConfig::default()).traced())
            .run(&s, &strat)
            .unwrap();
        assert!(crate::approx_eq(&r.values[0], &reference(&s), 1e-10));
        let enters = r
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::PhaseEnter { .. }))
            .count();
        // 2 procs × 2 sweeps × (k·P = 4) phases.
        assert_eq!(enters, 2 * 2 * 4);
        assert_eq!(r.metrics().counter("messages"), Some(r.stats.ops.messages));
    }
}
