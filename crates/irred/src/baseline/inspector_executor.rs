//! The classic communicating inspector/executor baseline.
//!
//! This is the family of schemes the paper positions itself against
//! (Saltz-style runtime preprocessing [21, 25] as used by Agrawal &
//! Saltz on the Intel Paragon): elements are *partitioned* across
//! processors (we use RCB or block ownership), iterations follow the
//! owner of their first reference, and a **communicating inspector**
//! builds, per processor, the ghost element table and the exchange
//! schedule. Every sweep then runs
//!
//! 1. *compute*: accumulate into owned elements and local ghost buffers
//!    (renumbered contiguously — the locality advantage partitioning
//!    buys);
//! 2. *scatter*: one message per neighbour carrying the ghost
//!    contributions;
//! 3. *fold*: add received contributions into owned elements.
//!
//! Contrast with the LightInspector: the inspector here must exchange
//! ghost-id lists (communication), its cost grows with partition
//! quality, and adaptivity forces full re-inspection — exactly the
//! overheads §1 and §5.4.3 discuss. Under the engine API the inspection
//! happens once in `prepare`; re-executing a [`PreparedIe`] reuses the
//! ghost tables and exchange schedule (valid because this baseline is
//! restricted to static meshes anyway).
//!
//! Restricted to kernels without read-state updates (the euler-style
//! comparison of §5.4.3); a gather step for replicated reads would be
//! symmetric to the scatter implemented here. The engine reports these
//! limits as [`EngineError::Unsupported`].

use std::collections::HashMap;
use std::sync::Arc;

use earth_model::sim::{run_sim_traced, SimConfig, SimCtx};
use earth_model::{
    mailbox_key, FiberCtx, FiberTemplate, Meter, NullMeter, ProgramTemplate, SlotId, Value,
};
use memsim::{AddressMap, Region};

use crate::config::ExecutionConfig;
use crate::engine::{
    check_sim_fired, validate_phased_spec, EngineError, Provenance, ReductionEngine, RunOutcome,
};
use crate::kernel::EdgeKernel;
use crate::phased::PhasedSpec;
use crate::prepared::{PhaseCosts, PlanToken, Workspace};
use crate::strategy::StrategyConfig;

const TAG_SCATTER: u32 = 9;

/// The immutable per-node product of the communicating inspector:
/// ownership, renumbering, ghost tables, and the exchange schedule.
struct IeNodePlan {
    proc: usize,
    /// Owned global elements, ascending; local id = position.
    owned: Vec<u32>,
    /// Ghost global elements, ascending; local id = owned.len() + pos.
    ghosts: Vec<u32>,
    /// Per local iteration: global iteration id.
    giters: Vec<u32>,
    /// Per local iteration × ref: local (renumbered) element index.
    local_refs: Vec<u32>,
    /// Original global element ids, m-interleaved (for the kernel).
    elems: Vec<u32>,
    /// Neighbours this node sends ghost contributions to, with the ghost
    /// local ids grouped per neighbour.
    send_to: Vec<(usize, Vec<u32>)>,
    /// Number of neighbours that send to this node.
    in_degree: usize,
    /// For each in-neighbour, the local ids its contributions fold into
    /// (same order as the sender's ghost list).
    fold_targets: HashMap<usize, Vec<u32>>,
    regs: IeRegions,
}

struct IeNode<K> {
    sweeps: usize,
    kernel: Arc<K>,
    plan: Arc<IeNodePlan>,
    x: Vec<Vec<f64>>,
    out: Vec<f64>,
    sweep_cost: Option<u64>,
    results: Vec<(u32, Vec<f64>)>,
}

struct IeRegions {
    /// AoS region over owned+ghost elements × arrays.
    x: Region,
    ind: Region,
    edge: Region,
}

fn compute_slot(t: usize) -> SlotId {
    (2 * t) as SlotId
}
fn fold_slot(t: usize) -> SlotId {
    (2 * t + 1) as SlotId
}

impl<K: EdgeKernel> IeNode<K> {
    fn run_compute<C: FiberCtx<Self>>(s: &mut Self, t: usize, ctx: &mut C) {
        let r_arrays = s.x.len();
        for xa in &mut s.x {
            xa.fill(0.0);
        }
        // The reduction loop over renumbered local data.
        if ctx.is_sim() {
            match s.sweep_cost {
                Some(c) => {
                    s.exec(&mut NullMeter);
                    ctx.charge(c);
                }
                None => {
                    let before = ctx.charged();
                    let mut meter = earth_model::program::CtxMeter::<Self, C>::new(ctx);
                    s.exec(&mut meter);
                    s.sweep_cost = Some(ctx.charged() - before);
                }
            }
        } else {
            s.exec(&mut NullMeter);
        }
        // Scatter ghost contributions.
        let nowned = s.plan.owned.len();
        for (dest, ghost_ids) in &s.plan.send_to {
            let mut payload = Vec::with_capacity(ghost_ids.len() * r_arrays);
            for xa in &s.x {
                for &g in ghost_ids {
                    payload.push(xa[nowned + g as usize]);
                }
            }
            ctx.data_sync(
                *dest,
                mailbox_key(TAG_SCATTER, (t * 64 + s.plan.proc) as u32),
                Value::F64s(payload.into_boxed_slice()),
                fold_slot(t),
            );
        }
        // Enable the local fold.
        ctx.sync(s.plan.proc, fold_slot(t));
    }

    fn run_fold<C: FiberCtx<Self>>(s: &mut Self, t: usize, ctx: &mut C) {
        let r_arrays = s.x.len();
        // Fold every neighbour's contributions, in ascending source
        // order — hash-map order would reassociate the float adds
        // differently on every run.
        let mut folds: Vec<usize> = s.plan.fold_targets.keys().copied().collect();
        folds.sort_unstable();
        for src in folds {
            let payload = ctx
                .recv(mailbox_key(TAG_SCATTER, (t * 64 + src) as u32))
                .expect("scatter payload present");
            let vals = payload.expect_f64s();
            let targets = &s.plan.fold_targets[&src];
            debug_assert_eq!(vals.len(), targets.len() * r_arrays);
            for (a, xa) in s.x.iter_mut().enumerate() {
                for (j, &lt) in targets.iter().enumerate() {
                    xa[lt as usize] += vals[a * targets.len() + j];
                }
            }
            if ctx.is_sim() {
                // Fold cost: stream read + scattered add.
                ctx.charge(vals.len() as u64 * 6);
            }
        }
        if t + 1 < s.sweeps {
            ctx.sync(s.plan.proc, compute_slot(t + 1));
        } else {
            // Keep final owned values.
            for (li, &ge) in s.plan.owned.iter().enumerate() {
                let vals: Vec<f64> = s.x.iter().map(|xa| xa[li]).collect();
                s.results.push((ge, vals));
            }
        }
    }

    /// The per-iteration compute loop, metered (measuring sweeps) or
    /// not ([`NullMeter`]).
    fn exec<M: Meter>(&mut self, meter: &mut M) {
        let (kernel, p, x, out) = (&*self.kernel, &self.plan, &mut self.x, &mut self.out);
        let (giters, local_refs, elems, regs) = (&p.giters, &p.local_refs, &p.elems, &p.regs);
        let m = kernel.num_refs();
        let r_arrays = x.len();
        let read: &[f64] = &[];
        let edge_reads = kernel.edge_reads_per_iter();
        let flops = kernel.flops_per_iter();
        for (j, &gi) in giters.iter().enumerate() {
            meter.load(regs.ind.addr(j));
            for _ in 0..edge_reads {
                meter.load(regs.edge.addr(j));
            }
            out.fill(0.0);
            kernel.contrib(read, gi as usize, &elems[j * m..(j + 1) * m], out);
            meter.flops(flops);
            for r in 0..m {
                let tgt = local_refs[j * m + r] as usize;
                for (a, xa) in x.iter_mut().enumerate() {
                    xa[tgt] += out[r * r_arrays + a];
                    meter.load(regs.x.addr(tgt * r_arrays + a));
                    meter.store(regs.x.addr(tgt * r_arrays + a));
                    meter.flops(1);
                }
            }
        }
    }
}

/// Block ownership: element `e` belongs to processor `e·P / n` — the
/// default partition when the caller supplies none.
pub fn block_owners(num_elements: usize, procs: usize) -> Vec<u32> {
    (0..num_elements)
        .map(|e| (e * procs / num_elements) as u32)
        .collect()
}

/// A fully prepared inspector/executor run: the communicating
/// inspector's per-node output (ghost tables, renumbering, exchange
/// schedule) plus the sweep-loop program template.
pub struct PreparedIe<K> {
    kernel: Arc<K>,
    num_elements: usize,
    sweeps: usize,
    node_plans: Vec<Arc<IeNodePlan>>,
    inspector_cycles: u64,
    template: ProgramTemplate<IeNode<K>, SimCtx<IeNode<K>>>,
    token: PlanToken,
    executions: u64,
}

impl<K> std::fmt::Debug for PreparedIe<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedIe")
            .field("num_elements", &self.num_elements)
            .field("sweeps", &self.sweeps)
            .field("inspector_cycles", &self.inspector_cycles)
            .field("executions", &self.executions)
            .finish_non_exhaustive()
    }
}

impl<K: EdgeKernel> PreparedIe<K> {
    /// Modeled cycles of the communicating inspector (paid once, at
    /// prepare time — the cost §5.4.3 compares against).
    pub fn inspector_cycles(&self) -> u64 {
        self.inspector_cycles
    }

    /// Ghost elements per processor — the partition-quality signature.
    pub fn ghost_counts(&self) -> Vec<usize> {
        self.node_plans.iter().map(|p| p.ghosts.len()).collect()
    }

    pub fn executions(&self) -> u64 {
        self.executions
    }

    fn make_nodes(&self, ws: &mut Workspace) -> Vec<IeNode<K>> {
        let r_arrays = self.kernel.num_arrays();
        let m = self.kernel.num_refs();
        let cached = ws.costs_for(self.token).cloned();
        self.node_plans
            .iter()
            .enumerate()
            .map(|(q, plan)| {
                let xl = plan.owned.len() + plan.ghosts.len();
                let x: Vec<Vec<f64>> = (0..r_arrays).map(|_| ws.take_buffer(xl)).collect();
                let sweep_cost = cached
                    .as_ref()
                    .and_then(|c| c.get(q))
                    .and_then(|v| v.first().copied())
                    .flatten();
                IeNode {
                    sweeps: self.sweeps,
                    kernel: Arc::clone(&self.kernel),
                    plan: Arc::clone(plan),
                    x,
                    out: vec![0.0; m * r_arrays],
                    sweep_cost,
                    results: Vec::new(),
                }
            })
            .collect()
    }

    fn finish(&self, nodes: Vec<IeNode<K>>, ws: &mut Workspace) -> Vec<Vec<f64>> {
        let r_arrays = self.kernel.num_arrays();
        let mut x = vec![vec![0.0f64; self.num_elements]; r_arrays];
        let mut harvest: PhaseCosts = Vec::with_capacity(nodes.len());
        for node in nodes {
            for (ge, vals) in node.results {
                for (a, v) in vals.into_iter().enumerate() {
                    x[a][ge as usize] = v;
                }
            }
            harvest.push(vec![node.sweep_cost]);
            for xa in node.x {
                ws.put_buffer(xa);
            }
        }
        ws.store_costs(self.token, harvest);
        x
    }
}

/// The inspector/executor baseline as a [`ReductionEngine`]. Simulator
/// only; kernels that update read state and machines beyond 64
/// processors are rejected as [`EngineError::Unsupported`]. Ownership
/// defaults to [`block_owners`]; supply a partition with
/// [`Self::with_owners`] (e.g. RCB output) to study partition quality.
#[derive(Clone)]
pub struct IeEngine {
    cfg: ExecutionConfig,
    owners: Option<Arc<Vec<u32>>>,
}

impl IeEngine {
    /// This baseline is simulator-only; only `cfg.sim` and `cfg.trace`
    /// are consulted.
    pub fn new(cfg: impl Into<ExecutionConfig>) -> Self {
        IeEngine {
            cfg: cfg.into(),
            owners: None,
        }
    }

    pub fn sim(cfg: SimConfig) -> Self {
        IeEngine::new(cfg)
    }

    /// Use an explicit element partition (`owners[e]` = processor that
    /// owns element `e`, values `< procs`).
    pub fn with_owners(cfg: impl Into<ExecutionConfig>, owners: Arc<Vec<u32>>) -> Self {
        IeEngine {
            cfg: cfg.into(),
            owners: Some(owners),
        }
    }

    pub fn config(&self) -> &ExecutionConfig {
        &self.cfg
    }
}

impl<K: EdgeKernel> ReductionEngine<PhasedSpec<K>> for IeEngine {
    type Prepared = PreparedIe<K>;

    fn name(&self) -> &'static str {
        "inspector-executor"
    }

    fn prepare(
        &self,
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
    ) -> Result<Self::Prepared, EngineError> {
        validate_phased_spec(spec)?;
        if spec.kernel.updates_read_state() {
            return Err(EngineError::Unsupported(
                "IE baseline handles static reads only",
            ));
        }
        let procs = strat.procs;
        if procs > 64 {
            return Err(EngineError::Unsupported(
                "IE baseline scatter keying assumes <= 64 processors",
            ));
        }
        let owners_vec;
        let owners: &[u32] = match &self.owners {
            Some(o) => {
                if o.len() != spec.num_elements {
                    return Err(EngineError::Shape {
                        what: "owners length (num_elements)",
                        expected: spec.num_elements,
                        got: o.len(),
                    });
                }
                o
            }
            None => {
                owners_vec = block_owners(spec.num_elements, procs);
                &owners_vec
            }
        };
        let sweeps = strat.sweeps;
        let cfg = &self.cfg.sim;
        let m = spec.kernel.num_refs();
        let e_total = spec.num_iterations();

        // --- the communicating inspector (modeled in cycles below) -------
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); procs];
        for (e, &o) in owners.iter().enumerate() {
            owned[o as usize].push(e as u32);
        }
        let mut iters_of: Vec<Vec<u32>> = vec![Vec::new(); procs];
        for i in 0..e_total {
            let o = owners[spec.indirection[0][i] as usize];
            iters_of[o as usize].push(i as u32);
        }

        // Per node: ghosts, local renumbering, exchange schedule.
        let mut plans: Vec<IeNodePlan> = Vec::with_capacity(procs);
        let mut ghost_requests: Vec<HashMap<usize, Vec<u32>>> = vec![HashMap::new(); procs];
        let mut inspector_cycles_max = 0u64;
        for q in 0..procs {
            let mut local_id: HashMap<u32, u32> = HashMap::with_capacity(owned[q].len() * 2);
            for (li, &ge) in owned[q].iter().enumerate() {
                local_id.insert(ge, li as u32);
            }
            let mut ghosts: Vec<u32> = Vec::new();
            let mut giters = Vec::with_capacity(iters_of[q].len());
            let mut local_refs = Vec::with_capacity(iters_of[q].len() * m);
            let mut elems = Vec::with_capacity(iters_of[q].len() * m);
            let nowned = owned[q].len() as u32;
            for &gi in &iters_of[q] {
                giters.push(gi);
                for r in 0..m {
                    let ge = spec.indirection[r][gi as usize];
                    if ge as usize >= spec.num_elements {
                        return Err(EngineError::Invalid(
                            lightinspector::InspectError::OutOfRange {
                                r,
                                iter: gi as usize,
                                elem: ge,
                                num_elements: spec.num_elements,
                            },
                        ));
                    }
                    elems.push(ge);
                    let li = *local_id.entry(ge).or_insert_with(|| {
                        ghosts.push(ge);
                        nowned + ghosts.len() as u32 - 1
                    });
                    local_refs.push(li);
                }
            }
            // Exchange schedule: ghosts grouped by their owner.
            let mut send_to: HashMap<usize, Vec<u32>> = HashMap::new();
            for (gpos, &ge) in ghosts.iter().enumerate() {
                send_to
                    .entry(owners[ge as usize] as usize)
                    .or_default()
                    .push(gpos as u32);
            }
            let mut send_vec: Vec<(usize, Vec<u32>)> = send_to.into_iter().collect();
            send_vec.sort_by_key(|(d, _)| *d);
            for (dest, gl) in &send_vec {
                ghost_requests[*dest].insert(q, gl.iter().map(|&g| ghosts[g as usize]).collect());
            }

            // Inspector cost model: translate every reference through a
            // hash (≈12 cycles), plus one ghost-list message round per
            // neighbour (charged on the network below via message count —
            // we fold the endpoint processing here).
            let insp = (iters_of[q].len() * m) as u64 * 12
                + ghosts.len() as u64 * 20
                + send_vec.len() as u64 * cfg.net_latency_cycles * 2;
            inspector_cycles_max = inspector_cycles_max.max(insp);

            let mut am = AddressMap::new(64);
            let r_arrays = spec.kernel.num_arrays();
            let xl = owned[q].len() + ghosts.len();
            let regs = IeRegions {
                x: am.alloc_f64(xl.max(1) * r_arrays),
                ind: am.alloc_u32(iters_of[q].len().max(1)),
                edge: am.alloc_f64(iters_of[q].len().max(1)),
            };
            plans.push(IeNodePlan {
                proc: q,
                owned: owned[q].clone(),
                ghosts,
                giters,
                local_refs,
                elems,
                send_to: send_vec,
                in_degree: 0,
                fold_targets: HashMap::new(),
                regs,
            });
        }
        // Resolve fold targets: global ghost ids -> owner-local ids.
        for q in 0..procs {
            let reqs = std::mem::take(&mut ghost_requests[q]);
            let map: HashMap<u32, u32> = plans[q]
                .owned
                .iter()
                .enumerate()
                .map(|(li, &ge)| (ge, li as u32))
                .collect();
            for (src, ges) in reqs {
                let targets: Vec<u32> = ges.iter().map(|ge| map[ge]).collect();
                plans[q].fold_targets.insert(src, targets);
                plans[q].in_degree += 1;
            }
        }

        // --- the sweep-loop program template ------------------------------
        let mut template: ProgramTemplate<IeNode<K>, SimCtx<IeNode<K>>> = ProgramTemplate::new();
        for plan in &plans {
            let in_deg = plan.in_degree as u32;
            let id = template.add_node();
            for t in 0..sweeps {
                let compute_count = u32::from(t > 0);
                template.node_mut(id).add_fiber(FiberTemplate::new(
                    "ie-compute",
                    compute_count,
                    move |s: &mut IeNode<K>, ctx: &mut SimCtx<IeNode<K>>| {
                        IeNode::run_compute(s, t, ctx);
                    },
                ));
                template.node_mut(id).add_fiber(FiberTemplate::new(
                    "ie-fold",
                    in_deg + 1,
                    move |s: &mut IeNode<K>, ctx: &mut SimCtx<IeNode<K>>| {
                        IeNode::run_fold(s, t, ctx);
                    },
                ));
            }
        }

        Ok(PreparedIe {
            kernel: Arc::clone(&spec.kernel),
            num_elements: spec.num_elements,
            sweeps,
            node_plans: plans.into_iter().map(Arc::new).collect(),
            inspector_cycles: inspector_cycles_max,
            template,
            token: PlanToken::fresh(),
            executions: 0,
        })
    }

    fn execute(
        &self,
        prepared: &mut Self::Prepared,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let reused = prepared.executions > 0;
        prepared.executions += 1;
        let nodes = prepared.make_nodes(ws);
        let prog = prepared.template.instantiate(nodes);
        let sink = self.cfg.trace.make_sink(prepared.node_plans.len());
        let report = run_sim_traced(prog, self.cfg.sim, Arc::clone(&sink));
        check_sim_fired(&report.stats)?;
        let values = prepared.finish(report.states, ws);
        let mut out = RunOutcome {
            values,
            time_cycles: report.time_cycles,
            seconds: report.seconds,
            stats: report.stats,
            trace: report.trace,
            provenance: Provenance {
                engine: "inspector-executor",
                backend: "sim",
                reused_plan: reused,
                executions: prepared.executions,
            },
            ..RunOutcome::default()
        };
        out.fill_metrics();
        out.record_trace_drops(sink.as_ref());
        Ok(out)
    }
}

/// Cost models shared by the partitioned-baseline comparisons.
pub struct InspectorExecutor;

impl InspectorExecutor {
    /// Modeled sequential cost of the *partitioning* step the paper's
    /// comparators pay (and the phased strategy avoids): an RCB-style
    /// `O(n log n · c)` pass plus data redistribution of every element
    /// and iteration.
    pub fn partitioning_cycles(num_elements: usize, num_iterations: usize, cfg: &SimConfig) -> u64 {
        let n = num_elements as u64;
        let e = num_iterations as u64;
        let logn = 64 - n.leading_zeros() as u64;
        n * logn * 14 + (n + e) * cfg.mem.miss_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::WeightedPairKernel;
    use crate::seq::seq_reduction;
    use workloads::Distribution;

    fn spec(n: usize, e: usize, seed: u64) -> PhasedSpec<WeightedPairKernel> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new((0..e).map(|_| (next() % 100) as f64 / 7.0).collect()),
            }),
            num_elements: n,
            indirection: Arc::new(vec![
                (0..e).map(|_| (next() % n as u64) as u32).collect(),
                (0..e).map(|_| (next() % n as u64) as u32).collect(),
            ]),
        }
    }

    fn run_ie(
        s: &PhasedSpec<WeightedPairKernel>,
        procs: usize,
        sweeps: usize,
    ) -> (RunOutcome, u64) {
        let engine = IeEngine::sim(SimConfig::default());
        let strat = StrategyConfig::new(procs, 1, Distribution::Block, sweeps);
        let mut prepared = engine.prepare(s, &strat).unwrap();
        let mut ws = Workspace::new();
        let out = engine.execute(&mut prepared, &mut ws).unwrap();
        (out, prepared.inspector_cycles())
    }

    #[test]
    fn matches_sequential_block_partition() {
        let s = spec(64, 500, 1);
        let seq = seq_reduction(&s, 2, SimConfig::default());
        let (r, insp) = run_ie(&s, 4, 2);
        assert!(crate::approx_eq(&r.values[0], &seq.x[0], 1e-9));
        assert!(insp > 0);
    }

    #[test]
    fn matches_sequential_single_proc() {
        let s = spec(32, 200, 2);
        let seq = seq_reduction(&s, 1, SimConfig::default());
        let (r, _) = run_ie(&s, 1, 1);
        assert!(crate::approx_eq(&r.values[0], &seq.x[0], 1e-9));
        // No neighbours → no scatter messages.
        assert_eq!(r.stats.ops.messages, 0);
    }

    #[test]
    fn ghost_traffic_depends_on_partition_quality() {
        // A clustered indirection under block ownership has few ghosts; a
        // scrambled one has many. The phased strategy's traffic would be
        // identical in both cases — this baseline's is not.
        let n = 256;
        let e = 2_000;
        let clustered = PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(vec![1.0; e]),
            }),
            num_elements: n,
            indirection: Arc::new(vec![
                (0..e).map(|i| ((i / 8) % n) as u32).collect(),
                (0..e).map(|i| ((i / 8 + 1) % n) as u32).collect(),
            ]),
        };
        let scrambled = spec(n, e, 7);
        let (a, _) = run_ie(&clustered, 4, 2);
        let (b, _) = run_ie(&scrambled, 4, 2);
        assert!(
            b.stats.ops.bytes > 2 * a.stats.ops.bytes,
            "scrambled {} vs clustered {}",
            b.stats.ops.bytes,
            a.stats.ops.bytes
        );
    }

    #[test]
    fn prepared_reuse_is_bit_identical() {
        let s = spec(96, 800, 3);
        let engine = IeEngine::sim(SimConfig::default());
        let strat = StrategyConfig::new(4, 1, Distribution::Block, 2);
        let mut prepared = engine.prepare(&s, &strat).unwrap();
        let mut ws = Workspace::new();
        let first = engine.execute(&mut prepared, &mut ws).unwrap();
        let again = engine.execute(&mut prepared, &mut ws).unwrap();
        assert_eq!(first.values, again.values);
        assert!(again.provenance.reused_plan);
    }

    #[test]
    fn unsupported_cases_are_typed_errors() {
        let s = spec(32, 100, 4);
        let engine = IeEngine::sim(SimConfig::default());
        let strat = StrategyConfig::new(65, 1, Distribution::Block, 1);
        assert!(matches!(
            engine.prepare(&s, &strat).unwrap_err(),
            EngineError::Unsupported(_)
        ));
    }

    #[test]
    fn explicit_owners_match_sequential() {
        let s = spec(48, 300, 5);
        let seq = seq_reduction(&s, 1, SimConfig::default());
        let owners = Arc::new(block_owners(48, 3));
        let engine = IeEngine::with_owners(SimConfig::default(), owners);
        let strat = StrategyConfig::new(3, 1, Distribution::Block, 1);
        let mut prepared = engine.prepare(&s, &strat).unwrap();
        let mut ws = Workspace::new();
        let r = engine.execute(&mut prepared, &mut ws).unwrap();
        assert!(crate::approx_eq(&r.values[0], &seq.x[0], 1e-9));
        assert!(prepared.inspector_cycles() > 0);
    }

    #[test]
    fn traced_ie_run_populates_trace_and_metrics() {
        let s = spec(64, 500, 6);
        let engine = IeEngine::new(ExecutionConfig::default().traced());
        let strat = StrategyConfig::new(4, 1, Distribution::Block, 2);
        let mut prepared = engine.prepare(&s, &strat).unwrap();
        let mut ws = Workspace::new();
        let out = engine.execute(&mut prepared, &mut ws).unwrap();
        assert!(!out.trace.is_empty());
        assert_eq!(
            out.metrics().counter("messages"),
            Some(out.stats.ops.messages)
        );
    }

    #[test]
    fn partitioning_cost_is_nontrivial() {
        let c = InspectorExecutor::partitioning_cycles(10_000, 60_000, &SimConfig::default());
        assert!(c > 1_000_000);
    }
}
