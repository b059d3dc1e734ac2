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
//! Because only the array that rotates differs, this module supplies
//! just the gather program's hooks — zero `y` at sweep start, receive
//! the resident `x` portion, the gather-accumulate loop, forward `x`
//! (immutable, so data flows every hop) — and runs through the same
//! ring driver as [`crate::phased`]: one template, one execute path,
//! one recovery ladder (falling back to a plain sequential SpMV).
//!
//! The phase bucketing depends only on the matrix structure, so a
//! [`PreparedGather`] is reused across input vectors: a CG iteration
//! swaps in the next `x` with [`PreparedGather::set_x`] and re-executes
//! the same plan — no re-bucketing, no program rebuild, and cached phase
//! costs stay valid (the access *pattern* is unchanged).

use std::sync::Arc;

use earth_model::{FiberCtx, Meter, NullMeter};
use lightinspector::{inspect, FlatPlan, InspectorInput, PhaseGeometry};
use memsim::{AddressMap, Region};
use workloads::{distribute, SparseMatrix};

use crate::engine::{
    validate_gather_spec, validate_gather_x, EngineError, ReductionEngine, RunOutcome,
};
use crate::prepared::Workspace;
use crate::ring::{
    fan_out, recv_portion, Assembled, NodeOf, Phase, PreparedRing, RingEngine, RingProgram,
};
use crate::strategy::StrategyConfig;

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
    data: Arc<GatherNodePlan>,
    /// Local copy of x (portions become valid as they arrive).
    x: Vec<f64>,
    /// Local y block, indexed like `data.rows`.
    y: Vec<f64>,
}

/// The gather program as the ring driver runs it: the matrix, the
/// phase-bucketed nonzeros per node, and the vector the next execute
/// multiplies by. The public face is [`PreparedGather`].
pub struct GatherProgram {
    matrix: Arc<SparseMatrix>,
    /// The vector the next execute multiplies by.
    x_current: Vec<f64>,
    node_data: Vec<Arc<GatherNodePlan>>,
}

impl RingProgram for GatherProgram {
    type Node = GatherNode;
    const ENGINE: &'static str = "gather";
    const FIBER: &'static str = "mvm-phase";
    const TAG: u32 = 3;

    fn make_nodes(&self, ws: &mut Workspace, _sim: bool) -> Vec<GatherNode> {
        self.node_data
            .iter()
            .map(|data| {
                let mut x = ws.take_buffer(self.matrix.ncols);
                x.copy_from_slice(&self.x_current);
                GatherNode {
                    data: Arc::clone(data),
                    x,
                    y: ws.take_buffer(data.rows.len()),
                }
            })
            .collect()
    }

    fn finish(&self, nodes: Vec<GatherNode>, ws: &mut Workspace) -> Assembled {
        let mut y = vec![0.0f64; self.matrix.nrows];
        for node in nodes {
            for (lr, &r) in node.data.rows.iter().enumerate() {
                y[r as usize] = node.y[lr];
            }
            ws.put_buffer(node.x);
            ws.put_buffer(node.y);
        }
        (vec![y], Vec::new())
    }

    /// Plain SpMV with the current vector.
    fn seq_fallback(&self, _sweeps: usize) -> RunOutcome {
        let mut y = vec![0.0; self.matrix.nrows];
        self.matrix.spmv(&self.x_current, &mut y);
        RunOutcome {
            values: vec![y],
            ..RunOutcome::default()
        }
    }

    fn plan(node: &GatherNode) -> &FlatPlan {
        &node.data.sched
    }

    /// Zero `y` at each sweep start, then take the resident `x` portion
    /// (except the initially held ones).
    fn arrive<C: FiberCtx<NodeOf<Self>>>(n: &mut NodeOf<Self>, ph: &Phase, ctx: &mut C) {
        let s = &mut n.state;
        if ph.p == 0 {
            s.y.fill(0.0);
            if ctx.is_sim() && !s.y.is_empty() {
                ctx.charge(n.stream.stream(s.y.len() as u64, 8));
            }
        }
        if !(ph.range.is_empty() || (ph.t == 0 && ph.first_visit())) {
            recv_portion::<Self, C>(ctx, ph, &mut s.x[ph.range.clone()], &mut n.pool);
        }
    }

    fn run_loops(node: &mut GatherNode, ph: &Phase) {
        node.data
            .gather_phase(ph.p, &node.x, &mut node.y, &mut NullMeter);
    }

    fn run_loops_metered<M: Meter>(node: &mut GatherNode, ph: &Phase, meter: &mut M) {
        node.data.gather_phase(ph.p, &node.x, &mut node.y, meter);
    }

    fn forwarded<'a>(node: &'a GatherNode, ph: &Phase) -> Option<&'a [f64]> {
        (!ph.range.is_empty()).then(|| &node.x[ph.range.clone()])
    }
}

/// A fully prepared gather run: validated matrix, phase-bucketed
/// nonzeros per node, and the EARTH program template. The input vector
/// is *state* of the prepared run — swap it per execute with
/// `set_x` (a CG iteration does exactly this) without touching the
/// plan.
pub type PreparedGather = PreparedRing<GatherProgram, GatherNode>;

/// The `mvm` gather executor as a [`ReductionEngine`]; under a recovery
/// policy its fallback is a plain sequential SpMV.
pub type GatherEngine = RingEngine<Gather>;

/// Names the gather program in [`GatherEngine`].
#[derive(Debug, Clone, Copy)]
pub enum Gather {}

impl PreparedGather {
    /// Replace the input vector for subsequent executes. The plan (and
    /// any cached phase costs — the access *pattern* is unchanged) stays
    /// valid.
    pub fn set_x(&mut self, x: &[f64]) -> Result<(), EngineError> {
        validate_gather_x(&self.prog.matrix, x.len())?;
        self.prog.x_current.copy_from_slice(x);
        Ok(())
    }

    /// The vector the next execute will multiply by.
    pub fn x(&self) -> &[f64] {
        &self.prog.x_current
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
        let prog = GatherProgram {
            matrix: Arc::clone(&spec.matrix),
            x_current: spec.x.as_ref().clone(),
            node_data,
        };
        Ok(PreparedRing::new(
            prog,
            strat,
            geometry,
            &self.cfg,
            Vec::new(),
        ))
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
    use crate::ExecutionConfig;
    use earth_model::native::NativeConfig;
    use earth_model::sim::SimConfig;
    use trace::TraceKind;
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
    fn phase_iter_counts_are_nonzeros_per_node_per_phase() {
        let s = spec(96, 900, 10);
        let strat = StrategyConfig::new(3, 2, Distribution::Cyclic, 2);
        for engine in [
            GatherEngine::sim(SimConfig::default()),
            GatherEngine::native(NativeConfig::default()),
        ] {
            let counts = engine.run(&s, &strat).unwrap().phase_iter_counts;
            assert_eq!(counts.len(), strat.procs);
            for row in &counts {
                assert_eq!(row.len(), strat.phases_per_sweep());
            }
            let total: usize = counts.iter().flatten().sum();
            assert_eq!(total, s.matrix.col_idx.len());
        }
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
