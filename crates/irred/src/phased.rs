//! The rotating-portion phased executor (§2.2 of the paper).
//!
//! One *prepared run* is built per `(workload, strategy)` pair — the
//! LightInspector plans, the remapped indirection arrays, and the EARTH
//! program template — and then executed any number of times:
//!
//! * each node runs `T · k · P` *phase fibers*, chained in order on the
//!   node (the EU executes phases sequentially, as the paper's Figure 2
//!   pseudo-code does);
//! * a phase fiber additionally waits for the **arrival of the portion**
//!   it owns — sent by the ring successor `k` phases earlier, so with
//!   `k > 1` the transfer has computation to hide behind;
//! * at a portion's *first* visit of a sweep the owner zeroes it (the
//!   reduction identity) — the preceding transfer therefore carries no
//!   data, just a sync: the previous owner was the *last* visitor of the
//!   old sweep and already consumed the final values;
//! * at a portion's *last* visit the reduction values are final: the
//!   owner runs the kernel's post-sweep step (e.g. `moldyn`'s position
//!   update) and, if that step writes the replicated read arrays,
//!   broadcasts the refreshed segments — the first phase fiber of the
//!   next sweep on every node waits for those `k·P − k` messages.
//!
//! Communication per node per sweep is exactly `k·P` portion transfers
//! plus (for read-updating kernels) `k·(P−1)` broadcast segments —
//! **independent of the indirection arrays**, the paper's key property.
//!
//! The fiber body executes the LightInspector's two loops. Under the
//! simulator, the first sweep of a cold run is *metered* (every array
//! access goes through the cache model) and the measured per-phase cost
//! is replayed for subsequent identical sweeps; executes of an
//! already-measured prepared plan replay the cached steady-state costs
//! via the [`Workspace`] and skip metering entirely.
//!
//! The fiber protocol, the backends and the recovery ladder are the
//! ring driver's, shared with [`crate::gather`]; this module prepares
//! and mutates the plan. `spec` holds the problem description and its
//! structure hash, `plan` the frozen per-node schedule, and `node` the
//! node state and the phase hooks.

mod node;
mod plan;
mod spec;

use std::sync::{Arc, OnceLock};

use lightinspector::{
    inspect, inspect_observed, FlatInspection, InspectError, InspectorInput, PhaseGeometry,
};
use trace::{TraceEvent, TraceKind};

use crate::config::{BackendKind, ExecutionConfig};
use crate::engine::{validate_phased_spec, EngineError, ReductionEngine, RunOutcome};
use crate::kernel::EdgeKernel;
use crate::prepared::Workspace;
use crate::ring::{fan_out, PreparedRing, RingEngine};
use crate::strategy::StrategyConfig;
use node::{Phased, PhasedNode, PhasedProgram};
use plan::NodePlanData;
use spec::fold64;
pub use spec::{structure_hash, PhasedSpec};

/// A fully prepared phased run: validated spec, one frozen flat
/// schedule per node, and the EARTH program template. Execute it any
/// number of times; repeated executes skip inspection, program
/// construction, and (on the simulator) metering. Adaptive meshes
/// re-route iterations through `apply_updates`, which re-inspects only
/// the nodes an update touches.
pub type PreparedPhased<K> = PreparedRing<PhasedProgram<K>, PhasedNode<K>>;

/// The phased executor as a [`ReductionEngine`]: construct it from an
/// [`ExecutionConfig`], `prepare` once per `(spec, strategy)`, `execute`
/// per run.
pub type PhasedEngine = RingEngine<Phased>;

/// The kernel's initial read state, checked against the element count.
fn checked_read_init<K: EdgeKernel>(kernel: &K, n: usize) -> Result<Vec<f64>, EngineError> {
    let read_init = kernel.init_read();
    let expected = n * kernel.num_read_arrays();
    if read_init.len() != expected {
        return Err(EngineError::Shape {
            what: "init_read length (num_elements * num_read_arrays)",
            expected,
            got: read_init.len(),
        });
    }
    Ok(read_init)
}

/// The indirection of iterations `iters`, one array per reference.
fn local_indirection(indirection: &[Vec<u32>], iters: &[u32]) -> Vec<Vec<u32>> {
    let local = |arr: &Vec<u32>| iters.iter().map(|&i| arr[i as usize]).collect();
    indirection.iter().map(local).collect()
}

impl<K: EdgeKernel> PreparedPhased<K> {
    /// The one construction path behind [`ReductionEngine::prepare`]
    /// and [`PhasedEngine::prepare_from_flat`]. Per processor — fanned
    /// out over `min(P, cores)` workers (the caller and the process-wide
    /// pool) and merged in processor order, so plans and trace events do
    /// not depend on the host — split off its iterations, gather its
    /// local indirection, obtain its flat inspection from `plan_of` (run
    /// the inspector, or check an adopted plan), and freeze it with
    /// [`NodePlanData::build`].
    fn build<S: Send>(
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
        cfg: &ExecutionConfig,
        sources: Vec<S>,
        plan_of: impl Fn(
                usize,
                S,
                &PhaseGeometry,
                &[&[u32]],
                &mut Vec<TraceEvent>,
            ) -> Result<FlatInspection, EngineError>
            + Sync,
    ) -> Result<Self, EngineError> {
        validate_phased_spec(spec)?;
        // n < k·P is legal: trailing portions are empty and their phases
        // degenerate to bare synchronization (PhaseGeometry handles this).
        let geometry = PhaseGeometry::try_new(strat.procs, strat.k, spec.num_elements)?;
        let total_iterations = spec.num_iterations();
        let prepped = fan_out(sources, |proc, source| {
            let local_iters: Vec<u32> = strat
                .distribution
                .owned_by(total_iterations, strat.procs, proc)
                .map(|i| i as u32)
                .collect();
            let local_ind = local_indirection(&spec.indirection, &local_iters);
            let local: Vec<&[u32]> = local_ind.iter().map(Vec::as_slice).collect();
            let mut events = Vec::new();
            let fi = plan_of(proc, source, &geometry, &local, &mut events)?;
            let data = NodePlanData::build(
                fi,
                &local,
                &local_iters,
                spec.num_elements,
                total_iterations,
                &*spec.kernel,
            );
            Ok::<_, EngineError>((local_iters, data, events))
        })?;
        let mut local_iters = Vec::with_capacity(strat.procs);
        let mut node_data = Vec::with_capacity(strat.procs);
        let mut inspector_events = Vec::new();
        for prep in prepped {
            let (iters, data, events) = prep?;
            local_iters.push(iters);
            node_data.push(Arc::new(data));
            inspector_events.extend(events);
        }

        let read_init = checked_read_init(&*spec.kernel, spec.num_elements)?;
        let overheads = match cfg.backend {
            BackendKind::Sim => (
                cfg.sim.phased_iter_overhead_cycles,
                cfg.sim.phased_copy_overhead_cycles,
            ),
            BackendKind::Native => (0, 0),
        };
        let prog = PhasedProgram {
            kernel: Arc::clone(&spec.kernel),
            num_elements: spec.num_elements,
            indirection: Arc::clone(&spec.indirection),
            local_iters,
            node_data,
            local_ind: None,
            read_init,
            overheads,
            structure_hash: OnceLock::new(),
        };
        Ok(PreparedRing::new(
            prog,
            strat,
            geometry,
            cfg,
            inspector_events,
        ))
    }

    /// Cache identity of this plan for cross-request plan caching: the
    /// structure hash captured at prepare, mixed with the mutation
    /// version so [`Self::apply_updates`] derives a new key in `O(1)`
    /// without rehashing the indirection. Equal keys mean the plan is
    /// interchangeable with a fresh prepare of a structurally equal
    /// (spec, strategy) pair — up to kernel values, which
    /// [`Self::set_kernel`] may swap.
    pub fn cache_key(&self) -> u64 {
        let mut h = self.structure_hash();
        fold64(&mut h, self.token.version());
        h
    }

    /// The prepare-time structure hash of the originating (spec,
    /// strategy) pair.
    fn structure_hash(&self) -> u64 {
        let prog = &self.prog;
        *prog.structure_hash.get_or_init(|| {
            structure_hash(
                prog.num_elements,
                &*prog.kernel,
                &prog.indirection,
                &self.strat,
            )
        })
    }

    /// Swap in a kernel with identical *shape* but (possibly) different
    /// values — weights, read state, arity-preserving body changes.
    /// Valid because the inspector plans, addressing, and program
    /// template depend only on kernel shape; the kernel itself is
    /// re-read from the plan on every execute. The initial read state
    /// is recomputed from the new kernel. Rejects (with no change) any
    /// kernel whose ref/array counts or read-update flag differ.
    pub fn set_kernel(&mut self, kernel: Arc<K>) -> Result<(), EngineError> {
        let shape = |k: &K| {
            [
                ("kernel num_refs", k.num_refs()),
                ("kernel num_arrays", k.num_arrays()),
                ("kernel num_read_arrays", k.num_read_arrays()),
                (
                    "kernel updates_read_state",
                    usize::from(k.updates_read_state()),
                ),
            ]
        };
        let prog = &mut self.prog;
        for ((what, expected), (_, got)) in shape(&prog.kernel).into_iter().zip(shape(&kernel)) {
            if expected != got {
                return Err(EngineError::Shape {
                    what,
                    expected,
                    got,
                });
            }
        }
        prog.read_init = checked_read_init(&*kernel, prog.num_elements)?;
        prog.kernel = kernel;
        Ok(())
    }

    /// Length of the reduction array(s) this run was prepared for.
    pub fn num_elements(&self) -> usize {
        self.prog.num_elements
    }

    /// Number of processors in the prepared plan.
    pub fn num_procs(&self) -> usize {
        self.strat.procs
    }

    /// Number of phases per sweep (`k·P`).
    pub fn num_phases(&self) -> usize {
        self.geometry.num_phases()
    }

    /// Processor `proc`'s frozen schedule: the CSR plan its executor
    /// streams, rows in [`Self::phase_order`] order.
    pub fn node_plan(&self, proc: usize) -> &lightinspector::FlatPlan {
        &self.prog.node_data[proc].flat
    }

    /// Buffer slots appended to processor `proc`'s reduction arrays.
    pub fn buffer_len(&self, proc: usize) -> usize {
        self.prog.node_data[proc].buffer_len
    }

    /// The iteration order of phase `p` on processor `proc`, as global
    /// iteration ids. Exposed so tests can compare an updated plan with
    /// a fresh prepare row for row.
    pub fn phase_order(&self, proc: usize, p: usize) -> Vec<u32> {
        self.prog.node_data[proc].phase(p).0.to_vec()
    }

    /// The current global indirection arrays (reflecting all applied
    /// updates).
    pub fn indirection(&self) -> &[Vec<u32>] {
        &self.prog.indirection
    }

    /// Portion-space statistics of the *current* indirection (kept in
    /// sync by [`Self::apply_updates`]): the portion histogram,
    /// max/mean references, distinct-element count, and the skew
    /// coefficient — the inputs to
    /// [`StrategyConfig::auto_select`](crate::StrategyConfig::auto_select).
    pub fn plan_stats(&self) -> lightinspector::PlanStats {
        let refs: Vec<&[u32]> = self.prog.indirection.iter().map(|v| v.as_slice()).collect();
        lightinspector::portion_stats(&self.geometry, &refs)
    }

    /// Re-route iterations of an adaptive mesh: each entry re-targets
    /// global iteration `iter` to `new_refs` (one element per indirection
    /// array). The batch is validated all-or-nothing first. Every node
    /// the batch touches then re-runs the LightInspector over its updated
    /// local indirection and is frozen exactly as `prepare` freezes it
    /// (fanned out over `min(touched nodes, cores)` workers), so the plan
    /// left behind is the plan a fresh prepare of the updated spec would
    /// build; the token bump invalidates cached phase costs. The first
    /// call gathers each node's local indirection from the global one.
    /// A panic while re-inspecting is an internal bug: it returns
    /// [`EngineError::Run`], and the run, its indirection already
    /// updated but not its plan, must be dropped.
    pub fn apply_updates(&mut self, updates: &[(usize, Vec<u32>)]) -> Result<(), EngineError> {
        if updates.is_empty() {
            return Ok(());
        }
        let m = self.prog.kernel.num_refs();
        let total = self.prog.indirection[0].len();
        let num_elements = self.prog.num_elements;
        for (iter, new_refs) in updates {
            if new_refs.len() != m {
                return Err(EngineError::Shape {
                    what: "update arity (kernel.num_refs)",
                    expected: m,
                    got: new_refs.len(),
                });
            }
            if *iter >= total {
                return Err(EngineError::Shape {
                    what: "updated iteration index (num_iterations)",
                    expected: total,
                    got: *iter,
                });
            }
            for (r, &e) in new_refs.iter().enumerate() {
                if e as usize >= num_elements {
                    return Err(EngineError::Invalid(InspectError::OutOfRange {
                        r,
                        iter: *iter,
                        elem: e,
                        num_elements,
                    }));
                }
            }
        }
        self.structure_hash();
        let (procs, dist, geometry) = (self.strat.procs, self.strat.distribution, self.geometry);
        let prog = &mut self.prog;
        let (indirection, local_iters) = (&prog.indirection, &prog.local_iters);
        if prog.local_ind.is_none() {
            prog.local_ind = Some(fan_out(
                local_iters.iter().collect(),
                |_, iters: &Vec<u32>| local_indirection(indirection, iters),
            )?);
        }
        let local_ind = prog.local_ind.as_mut().expect("gathered above");
        let indirection = Arc::make_mut(&mut prog.indirection);
        let mut touched = vec![false; procs];
        for (iter, new_refs) in updates {
            let (proc, local) = dist.locate(*iter, total, procs);
            for (r, &e) in new_refs.iter().enumerate() {
                indirection[r][*iter] = e;
                local_ind[proc][r][local] = e;
            }
            touched[proc] = true;
        }
        let touched: Vec<usize> = (0..procs).filter(|&p| touched[p]).collect();
        let (local_ind, kernel) = (&*local_ind, &*prog.kernel);
        let rebuilt = fan_out(touched.clone(), |_, proc| {
            let local: Vec<&[u32]> = local_ind[proc].iter().map(Vec::as_slice).collect();
            let input = InspectorInput {
                geometry,
                proc_id: proc,
                indirection: &local,
            };
            let fi = inspect(input).expect("validated updates keep the node inspectable");
            NodePlanData::build(fi, &local, &local_iters[proc], num_elements, total, kernel)
        })?;
        for (proc, data) in touched.into_iter().zip(rebuilt) {
            prog.node_data[proc] = Arc::new(data);
        }
        self.token.bump();
        Ok(())
    }
}

impl PhasedEngine {
    /// Prepare by *adopting* externally produced flat plans (one
    /// [`FlatInspection`] per processor, built under the same iteration
    /// distribution as `strat`, e.g. emitted directly by the `threadedc`
    /// compiler) instead of running the inspector. Each plan is checked
    /// by [`lightinspector::verify_flat`] against `spec.indirection`
    /// before anything executes — a malformed or stale plan is a typed
    /// [`EngineError::Plan`], never silent corruption — and then frozen
    /// exactly as [`ReductionEngine::prepare`] freezes the inspector's
    /// output, so the prepared run is bit-identical: incremental
    /// updates, plan caching, and repeated executes all work.
    ///
    /// No execute path adopts plans any more: compiled programs prepare
    /// through [`ReductionEngine::prepare`] like every other job. This
    /// stays because `benchmark/src/layers.rs` times it.
    pub fn prepare_from_flat<K: EdgeKernel>(
        &self,
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
        flats: Vec<FlatInspection>,
    ) -> Result<PreparedPhased<K>, EngineError> {
        if flats.len() != strat.procs {
            return Err(EngineError::Shape {
                what: "flat inspections (strat.procs)",
                expected: strat.procs,
                got: flats.len(),
            });
        }
        PreparedPhased::build(
            spec,
            strat,
            &self.cfg,
            flats,
            |proc, fi, geometry, local, _| {
                if fi.proc_id != proc {
                    return Err(EngineError::Shape {
                        what: "flat inspection proc_id",
                        expected: proc,
                        got: fi.proc_id,
                    });
                }
                if fi.geometry != *geometry {
                    return Err(EngineError::Plan(lightinspector::PlanError::FlatShape {
                        what: "inspection geometry must match (procs, k, num_elements)",
                    }));
                }
                lightinspector::verify_flat(&fi, local)?;
                Ok(fi)
            },
        )
    }
}

impl<K: EdgeKernel> ReductionEngine<PhasedSpec<K>> for PhasedEngine {
    type Prepared = PreparedPhased<K>;

    fn name(&self) -> &'static str {
        "phased"
    }

    fn prepare(
        &self,
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
    ) -> Result<Self::Prepared, EngineError> {
        let trace_on = self.cfg.trace.enabled();
        let sources = vec![(); strat.procs];
        PreparedPhased::build(
            spec,
            strat,
            &self.cfg,
            sources,
            |proc, (), g, local, events| {
                let input = InspectorInput {
                    geometry: *g,
                    proc_id: proc,
                    indirection: local,
                };
                Ok(inspect_observed(input, &mut |stage| {
                    if trace_on {
                        let kind = TraceKind::InspectorStage { stage };
                        events.push(TraceEvent::new(0, proc as u32, kind));
                    }
                })?)
            },
        )
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
    use crate::approx_eq;
    use crate::kernel::WeightedPairKernel;
    use crate::seq::seq_reduction;
    use earth_model::native::NativeConfig;
    use earth_model::sim::SimConfig;
    use lightinspector::{FlatInspection, PlanError};
    use workloads::{distribute, Distribution};

    /// Capacity, in bytes, of the schedule vectors a prepared run holds:
    /// every node's flat schedule, the local→global iteration maps, and
    /// (once built) the nodes' local indirection copies.
    fn resident_bytes<K: EdgeKernel>(prepared: &PreparedPhased<K>) -> usize {
        let prog = &prepared.prog;
        let nodes: usize = prog
            .node_data
            .iter()
            .map(|d| {
                let f = &d.flat;
                4 * (f.iter_ptr.capacity()
                    + f.refs.capacity()
                    + f.copy_ptr.capacity()
                    + d.giters.capacity()
                    + d.elems.capacity())
                    + std::mem::size_of::<lightinspector::CopyOp>() * f.copies.capacity()
            })
            .sum();
        let iters: usize = prog.local_iters.iter().map(|v| 4 * v.capacity()).sum();
        let local: usize = prog
            .local_ind
            .iter()
            .flatten()
            .flatten()
            .map(|v| 4 * v.capacity())
            .sum();
        nodes + iters + local
    }

    fn tiny_spec(num_elems: usize, seed: u64, iters: usize) -> PhasedSpec<WeightedPairKernel> {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let ia1: Vec<u32> = (0..iters)
            .map(|_| (next() % num_elems as u64) as u32)
            .collect();
        let ia2: Vec<u32> = (0..iters)
            .map(|_| (next() % num_elems as u64) as u32)
            .collect();
        let weights: Vec<f64> = (0..iters).map(|_| (next() % 1000) as f64 / 100.0).collect();
        PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(weights),
            }),
            num_elements: num_elems,
            indirection: Arc::new(vec![ia1, ia2]),
        }
    }

    fn run_sim_engine(spec: &PhasedSpec<WeightedPairKernel>, strat: &StrategyConfig) -> RunOutcome {
        PhasedEngine::sim(SimConfig::default())
            .run(spec, strat)
            .unwrap()
    }

    fn check_matches_seq(spec: &PhasedSpec<WeightedPairKernel>, strat: StrategyConfig) {
        let seq = seq_reduction(spec, strat.sweeps, SimConfig::default());
        let res = run_sim_engine(spec, &strat);
        assert!(
            approx_eq(&res.values[0], &seq.x[0], 1e-9),
            "phased vs sequential mismatch for {}P {}",
            strat.procs,
            strat.label()
        );
    }

    #[test]
    fn two_procs_k2_matches_sequential() {
        let spec = tiny_spec(32, 1, 200);
        check_matches_seq(&spec, StrategyConfig::new(2, 2, Distribution::Cyclic, 3));
    }

    #[test]
    fn one_proc_degenerate_case() {
        let spec = tiny_spec(16, 2, 50);
        check_matches_seq(&spec, StrategyConfig::new(1, 2, Distribution::Block, 2));
    }

    #[test]
    fn k1_matches_sequential() {
        let spec = tiny_spec(24, 3, 120);
        check_matches_seq(&spec, StrategyConfig::new(3, 1, Distribution::Block, 2));
    }

    #[test]
    fn k4_block_matches_sequential() {
        let spec = tiny_spec(64, 4, 500);
        check_matches_seq(&spec, StrategyConfig::new(4, 4, Distribution::Block, 2));
    }

    #[test]
    fn many_procs_cyclic() {
        let spec = tiny_spec(64, 5, 400);
        check_matches_seq(&spec, StrategyConfig::new(8, 2, Distribution::Cyclic, 3));
    }

    #[test]
    fn single_sweep() {
        let spec = tiny_spec(32, 6, 100);
        check_matches_seq(&spec, StrategyConfig::new(4, 2, Distribution::Cyclic, 1));
    }

    /// Build the per-proc flat inspections exactly the way the compiler
    /// does: split iterations under the strategy's distribution, then
    /// run the inspector on each local slice.
    fn emit_flats(
        spec: &PhasedSpec<WeightedPairKernel>,
        strat: &StrategyConfig,
    ) -> Vec<FlatInspection> {
        let geometry = PhaseGeometry::try_new(strat.procs, strat.k, spec.num_elements).unwrap();
        let owned = distribute(spec.num_iterations(), strat.procs, strat.distribution);
        (0..strat.procs)
            .map(|proc| {
                let local: Vec<Vec<u32>> = spec
                    .indirection
                    .iter()
                    .map(|arr| owned[proc].iter().map(|&i| arr[i as usize]).collect())
                    .collect();
                let refs: Vec<&[u32]> = local.iter().map(|v| v.as_slice()).collect();
                lightinspector::inspect(InspectorInput {
                    geometry,
                    proc_id: proc,
                    indirection: &refs,
                })
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn prepare_from_flat_is_bit_identical_to_prepare() {
        let spec = tiny_spec(48, 11, 300);
        for strat in [
            StrategyConfig::new(2, 2, Distribution::Cyclic, 3),
            StrategyConfig::new(4, 1, Distribution::Block, 2),
            StrategyConfig::new(3, 3, Distribution::Cyclic, 2),
        ] {
            let engine = PhasedEngine::sim(SimConfig::default());
            let mut normal = engine.prepare(&spec, &strat).unwrap();
            let mut adopted = engine
                .prepare_from_flat(&spec, &strat, emit_flats(&spec, &strat))
                .unwrap();
            let mut ws1 = Workspace::new();
            let mut ws2 = Workspace::new();
            let a = engine.execute(&mut normal, &mut ws1).unwrap();
            let b = engine.execute(&mut adopted, &mut ws2).unwrap();
            for (x, y) in a.values[0].iter().zip(&b.values[0]) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", strat.label());
            }
            assert_eq!(a.time_cycles, b.time_cycles, "{}", strat.label());
        }
    }

    #[test]
    fn prepare_from_flat_rejects_mismatched_plans() {
        let spec = tiny_spec(32, 12, 100);
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        // Wrong processor count.
        let flats = emit_flats(&spec, &strat);
        let err = engine
            .prepare_from_flat(&spec, &strat, flats[..1].to_vec())
            .unwrap_err();
        assert!(matches!(err, EngineError::Shape { .. }), "{err}");
        // Plans built for a different distribution fail verification.
        let other = StrategyConfig::new(2, 2, Distribution::Cyclic, 1);
        let err = engine
            .prepare_from_flat(&spec, &strat, emit_flats(&spec, &other))
            .unwrap_err();
        assert!(matches!(err, EngineError::Plan(_)), "{err}");
    }

    #[test]
    fn prepare_from_flat_rejects_plans_tampered_with_after_emission() {
        let spec = tiny_spec(32, 12, 100);
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        let n = spec.num_elements as u32;
        let adopt = |tamper: &dyn Fn(&mut FlatInspection)| {
            let mut flats = emit_flats(&spec, &strat);
            tamper(&mut flats[1]);
            match engine.prepare_from_flat(&spec, &strat, flats) {
                Err(EngineError::Plan(e)) => e,
                other => panic!("a tampered plan must fail verification, got {other:?}"),
            }
        };
        let flats = emit_flats(&spec, &strat);
        let fi = &flats[1];
        let phase_of_copy = |ci: usize| {
            (0..fi.flat.num_phases())
                .find(|&p| ci < fi.flat.copy_ptr[p + 1] as usize)
                .unwrap()
        };

        // A resident reference redirected to another element.
        let e = adopt(&|fi| {
            let r = fi.flat.refs.iter().position(|&t| t < n).unwrap();
            fi.flat.refs[r] = (fi.flat.refs[r] + 1) % n;
        });
        assert!(matches!(e, PlanError::WrongTarget { .. }), "{e}");
        // Two rows of different phases swapped: every reference still
        // names its own element, but in the wrong phase.
        let (p0, p1) = (0, fi.flat.num_phases() - 1);
        assert!(!fi.flat.phase_rows(p0).is_empty() && !fi.flat.phase_rows(p1).is_empty());
        let e = adopt(&|fi| {
            let (a, b) = (fi.flat.phase_rows(p0).start, fi.flat.phase_rows(p1).start);
            fi.iters.swap(a, b);
            for r in 0..2 {
                fi.flat.refs.swap(2 * a + r, 2 * b + r);
            }
        });
        assert!(matches!(e, PlanError::NotResident { phase: 0, .. }), "{e}");
        // A buffered reference pointed past the buffer extension.
        let e = adopt(&|fi| {
            let r = fi.flat.refs.iter().position(|&t| t >= n).unwrap();
            fi.flat.refs[r] = n + fi.buffer_len as u32;
        });
        assert!(matches!(e, PlanError::SlotOutOfRange { .. }), "{e}");
        // Two buffered references sharing one slot.
        let e = adopt(&|fi| {
            let mut slots = (0..fi.flat.refs.len()).filter(|&r| fi.flat.refs[r] >= n);
            let (a, b) = (slots.next().unwrap(), slots.next().unwrap());
            fi.flat.refs[b] = fi.flat.refs[a];
        });
        assert!(matches!(e, PlanError::BufferAliased { .. }), "{e}");
        // A copy folded into an element its phase does not hold.
        let e = adopt(&|fi| {
            let p = phase_of_copy(0);
            let held = fi
                .geometry
                .portion_range(fi.geometry.portion_owned_by(1, p));
            fi.flat.copies[0].dest = (held.end as u32) % n;
        });
        assert!(matches!(e, PlanError::CopyDestNotResident { .. }), "{e}");
        // Two folds of one phase into different resident elements, swapped.
        let pair = (1..fi.flat.copies.len())
            .find(|&ci| {
                phase_of_copy(ci - 1) == phase_of_copy(ci)
                    && fi.flat.copies[ci - 1].dest != fi.flat.copies[ci].dest
            })
            .expect("some phase folds two distinct elements");
        let e = adopt(&|fi| {
            let (a, b) = (fi.flat.copies[pair - 1].dest, fi.flat.copies[pair].dest);
            fi.flat.copies[pair - 1].dest = b;
            fi.flat.copies[pair].dest = a;
        });
        assert!(matches!(e, PlanError::CopyWrongDest { .. }), "{e}");
        // A fold of a slot that is only written in the same or a later
        // phase.
        let (ci, late) = (0..fi.flat.copies.len())
            .find_map(|ci| {
                let p = phase_of_copy(ci);
                let rows = fi.flat.phase_rows(p).start..fi.iters.len();
                let late = fi.flat.refs[rows.start * 2..rows.end * 2]
                    .iter()
                    .find(|&&t| t >= n)?;
                Some((ci, *late))
            })
            .expect("some slot is written at or after a fold's phase");
        let e = adopt(&|fi| fi.flat.copies[ci].src = late);
        assert!(matches!(e, PlanError::CopyBeforeWrite { .. }), "{e}");
        // A fold doubled (its neighbour's slot then never folds), or
        // pointed below the buffer extension.
        let twin = (1..fi.flat.copies.len())
            .find(|&ci| phase_of_copy(ci - 1) == phase_of_copy(ci))
            .expect("some phase has two folds");
        let e = adopt(&|fi| fi.flat.copies[twin] = fi.flat.copies[twin - 1]);
        assert!(matches!(e, PlanError::CopyCount { .. }), "{e}");
        let e = adopt(&|fi| fi.flat.copies[0].src = n - 1);
        assert!(matches!(e, PlanError::CopyCount { times: 0, .. }), "{e}");
        // An iteration scheduled twice (and another never).
        let e = adopt(&|fi| fi.iters[0] = fi.iters[1]);
        assert!(matches!(e, PlanError::IterationCoverage { .. }), "{e}");
        let e = adopt(&|fi| fi.iters[0] = u32::MAX);
        assert!(matches!(e, PlanError::IterationCoverage { .. }), "{e}");
        // Inconsistent CSR pointers are a shape error, not an index panic.
        let e = adopt(&|fi| *fi.flat.iter_ptr.last_mut().unwrap() += 1);
        assert!(matches!(e, PlanError::FlatShape { .. }), "{e}");
        let e = adopt(&|fi| {
            fi.flat.copies.pop();
        });
        assert!(matches!(e, PlanError::FlatShape { .. }), "{e}");
    }

    #[test]
    fn native_backend_matches_sequential() {
        let spec = tiny_spec(32, 7, 200);
        let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 3);
        let seq = seq_reduction(&spec, strat.sweeps, SimConfig::default());
        let res = PhasedEngine::native(NativeConfig::default())
            .run(&spec, &strat)
            .unwrap();
        assert!(approx_eq(&res.values[0], &seq.x[0], 1e-9));
    }

    #[test]
    fn k2_overlaps_better_than_k1() {
        // On several processors with nontrivial portions, k=2 should beat
        // k=1 thanks to communication/computation overlap.
        let spec = tiny_spec(4096, 8, 20_000);
        let t1 =
            run_sim_engine(&spec, &StrategyConfig::new(8, 1, Distribution::Cyclic, 3)).time_cycles;
        let t2 =
            run_sim_engine(&spec, &StrategyConfig::new(8, 2, Distribution::Cyclic, 3)).time_cycles;
        assert!(t2 < t1, "k=2 ({t2}) should beat k=1 ({t1})");
    }

    #[test]
    fn communication_independent_of_indirection() {
        // Two specs with identical sizes but different indirection
        // contents must move exactly the same number of bytes.
        let a = tiny_spec(256, 10, 2_000);
        let b = tiny_spec(256, 11, 2_000);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let ra = run_sim_engine(&a, &strat);
        let rb = run_sim_engine(&b, &strat);
        assert_eq!(ra.stats.ops.messages, rb.stats.ops.messages);
        assert_eq!(ra.stats.ops.bytes, rb.stats.ops.bytes);
    }

    #[test]
    fn phase_counts_reported() {
        let spec = tiny_spec(64, 12, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        let res = run_sim_engine(&spec, &strat);
        assert_eq!(res.phase_iter_counts.len(), 4);
        let total: usize = res.phase_iter_counts.iter().flatten().sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn prepare_once_execute_many_is_bit_identical() {
        let spec = tiny_spec(48, 13, 400);
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 2);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let mut ws = Workspace::new();
        let first = engine.execute(&mut prepared, &mut ws).unwrap();
        assert!(!first.provenance.reused_plan);
        for _ in 0..3 {
            let fresh = engine.run(&spec, &strat).unwrap();
            let again = engine.execute(&mut prepared, &mut ws).unwrap();
            assert!(again.provenance.reused_plan);
            assert_eq!(
                again.values, fresh.values,
                "reused plan must be bit-identical"
            );
            assert_eq!(again.values, first.values);
        }
        assert_eq!(prepared.executions(), 4);
        assert!(ws.has_cached_costs(), "sim executes cache phase costs");
        assert!(ws.pooled_buffers() > 0, "buffers returned to the pool");
    }

    #[test]
    fn prepare_defers_incremental_state_to_the_first_update() {
        let spec = tiny_spec(64, 24, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let _ = engine
            .execute(&mut prepared, &mut Workspace::new())
            .unwrap();
        prepared.apply_updates(&[]).unwrap();
        assert!(
            prepared.prog.local_ind.is_none(),
            "no update state before an update"
        );
        assert!(Arc::ptr_eq(&prepared.prog.indirection, &spec.indirection));
        let untouched: Vec<_> = prepared.prog.node_data.iter().map(Arc::clone).collect();
        // Block over 4 procs: iteration 75 is processor 1's first.
        let before = spec.indirection[0][75];
        prepared
            .apply_updates(&[(75, vec![before ^ 1, 2])])
            .unwrap();
        let local = prepared.prog.local_ind.as_ref().unwrap();
        assert_eq!((local[1][0][0], local[1][1][0]), (before ^ 1, 2));
        assert_eq!(local[2][0], spec.indirection[0][150..225]);
        assert_eq!(prepared.indirection()[0][75], before ^ 1);
        assert_eq!(spec.indirection[0][75], before, "the spec is never written");
        for (proc, (now, was)) in prepared.prog.node_data.iter().zip(&untouched).enumerate() {
            assert_eq!(Arc::ptr_eq(now, was), proc != 1, "only proc 1 is rebuilt");
        }
    }

    /// Plan size at the `serve-cold` shape: two references into one
    /// array, P4 k2 cyclic, 131 072 random iterations on 16 384
    /// elements. Holding the schedule once costs ≈ 31 B/iteration; the
    /// bound leaves room for slack, not for a nested second form of the
    /// plan (≈ 23 B/iteration more).
    #[test]
    fn prepared_plan_holds_its_schedule_once() {
        let spec = tiny_spec(16_384, 26, 131_072);
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        let prepared = PhasedEngine::native(NativeConfig::default())
            .prepare(&spec, &strat)
            .unwrap();
        let per_iter = resident_bytes(&prepared) as f64 / spec.num_iterations() as f64;
        assert!(per_iter <= 45.0, "{per_iter:.1} resident B/iteration");
    }

    /// At the `engine-pic` shape (P8 k2 cyclic, 524 288 two-reference
    /// iterations on 65 536 elements), a 10 % update leaves exactly the
    /// plan a fresh prepare of the updated spec builds — rows, buffer
    /// slots and copies — plus only the nodes' local indirection
    /// copies: 4·m B/iteration.
    #[test]
    fn updated_plan_costs_a_fresh_plan_plus_the_local_indirection() {
        let spec = tiny_spec(65_536, 27, 524_288);
        let strat = StrategyConfig::new(8, 2, Distribution::Cyclic, 1);
        let engine = PhasedEngine::native(NativeConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let updates: Vec<(usize, Vec<u32>)> = (0..52_429)
            .map(|i| {
                (
                    i * 10 + 3,
                    vec![(i % 65_536) as u32, (i * 7 % 65_536) as u32],
                )
            })
            .collect();
        prepared.apply_updates(&updates).unwrap();
        let updated = PhasedSpec {
            indirection: Arc::new(prepared.indirection().to_vec()),
            ..spec.clone()
        };
        let fresh = engine.prepare(&updated, &strat).unwrap();
        for (a, b) in prepared.prog.node_data.iter().zip(&fresh.prog.node_data) {
            assert_eq!(a.flat, b.flat);
            assert_eq!(a.buffer_len, b.buffer_len);
            assert_eq!((&a.giters, &a.elems), (&b.giters, &b.elems));
        }
        let m = spec.kernel.num_refs();
        let bound = resident_bytes(&fresh) + 4 * m * spec.num_iterations();
        assert!(
            resident_bytes(&prepared) <= bound,
            "{} resident B after the update, bound {bound}",
            resident_bytes(&prepared)
        );
    }

    #[test]
    fn structure_hash_keys_on_structure_not_values() {
        let spec = tiny_spec(64, 21, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let h = spec.structure_hash(&strat);
        // Deterministic across calls and clones.
        assert_eq!(h, spec.structure_hash(&strat));
        assert_eq!(h, spec.clone().structure_hash(&strat));
        // Kernel values (weights) do not participate.
        let reweighted = PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(vec![9.0; spec.num_iterations()]),
            }),
            ..spec.clone()
        };
        assert_eq!(h, reweighted.structure_hash(&strat));
        // Structure does: indirection contents, geometry, strategy.
        let mut ind = spec.indirection.as_ref().clone();
        ind[0][0] ^= 1;
        let rerouted = PhasedSpec {
            indirection: Arc::new(ind),
            ..spec.clone()
        };
        assert_ne!(h, rerouted.structure_hash(&strat));
        let wider = PhasedSpec {
            num_elements: spec.num_elements + 1,
            ..spec.clone()
        };
        assert_ne!(h, wider.structure_hash(&strat));
        let other_strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 2);
        assert_ne!(h, spec.structure_hash(&other_strat));
    }

    #[test]
    fn cache_key_tracks_incremental_updates() {
        let spec = tiny_spec(64, 22, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let k0 = prepared.cache_key();
        assert_eq!(k0, engine.prepare(&spec, &strat).unwrap().cache_key());
        prepared.apply_updates(&[(0, vec![1, 2])]).unwrap();
        let k1 = prepared.cache_key();
        assert_ne!(k0, k1, "mutation must derive a new cache key");
        assert_eq!(k1, prepared.cache_key());
        // First asked after the update, the key still hashes the
        // prepare-time structure.
        let mut late = engine.prepare(&spec, &strat).unwrap();
        late.apply_updates(&[(0, vec![1, 2])]).unwrap();
        assert_eq!(late.cache_key(), k1);
    }

    /// Lengths 1–17 cover a partial chunk alone, one whole chunk (every
    /// lane, both halves of each word), and a whole chunk plus a padded
    /// remainder: a single-entry change anywhere must move the hash.
    #[test]
    fn structure_hash_sees_every_entry_of_every_lane() {
        let spec = tiny_spec(64, 24, 17);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let hash = |ind: &[Vec<u32>]| structure_hash(64, &*spec.kernel, ind, &strat);
        for len in 1..=17 {
            let base: Vec<Vec<u32>> = spec.indirection.iter().map(|a| a[..len].to_vec()).collect();
            let h = hash(&base);
            for r in 0..base.len() {
                for pos in 0..len {
                    let mut changed = base.clone();
                    changed[r][pos] ^= 1;
                    assert_ne!(h, hash(&changed), "len {len}, ref {r}, entry {pos}");
                }
            }
        }
    }

    #[test]
    fn structure_hash_orders_entries_across_lanes() {
        let spec = tiny_spec(64, 25, 17);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let ind: Vec<Vec<u32>> = vec![(0..17).collect(), (0..17).rev().collect()];
        let h = structure_hash(64, &*spec.kernel, &ind, &strat);
        // Entry pairs in lanes 0|1 and 1|3 of one chunk, in lane 0 of
        // two chunks, and in lane 2 | the padded remainder.
        for (a, b) in [(0, 2), (3, 7), (1, 9), (5, 16)] {
            let mut swapped = ind.clone();
            swapped[0].swap(a, b);
            assert_ne!(
                h,
                structure_hash(64, &*spec.kernel, &swapped, &strat),
                "swap {a} <-> {b}"
            );
        }
    }

    #[test]
    fn prepared_hash_is_the_spec_hash() {
        let spec = tiny_spec(64, 26, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 2);
        let prepared = PhasedEngine::sim(SimConfig::default())
            .prepare(&spec, &strat)
            .unwrap();
        assert_eq!(prepared.structure_hash(), spec.structure_hash(&strat));
    }

    #[test]
    fn set_kernel_swaps_values_on_cached_plan() {
        let spec = tiny_spec(48, 23, 250);
        let strat = StrategyConfig::new(3, 2, Distribution::Cyclic, 2);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let mut ws = Workspace::new();
        let _ = engine.execute(&mut prepared, &mut ws).unwrap();

        let swapped = Arc::new(WeightedPairKernel {
            weights: Arc::new(
                spec.kernel
                    .weights
                    .iter()
                    .map(|w| w * 1.5 + 0.25)
                    .collect::<Vec<f64>>(),
            ),
        });
        prepared.set_kernel(Arc::clone(&swapped)).unwrap();
        let res = engine.execute(&mut prepared, &mut ws).unwrap();

        let fresh_spec = PhasedSpec {
            kernel: swapped,
            ..spec.clone()
        };
        let fresh = engine.run(&fresh_spec, &strat).unwrap();
        assert_eq!(
            res.values, fresh.values,
            "cached plan with swapped kernel must match a fresh prepare bit-for-bit"
        );
    }

    #[test]
    fn apply_updates_rejects_out_of_range() {
        let spec = tiny_spec(32, 15, 100);
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let err = prepared.apply_updates(&[(0, vec![99, 0])]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Invalid(InspectError::OutOfRange { elem: 99, .. })
        ));
        let err = prepared.apply_updates(&[(500, vec![1, 2])]).unwrap_err();
        assert!(matches!(err, EngineError::Shape { .. }));
    }

    #[test]
    fn traced_sim_run_emits_phase_spans_and_metrics() {
        let spec = tiny_spec(32, 16, 150);
        let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 2);
        let engine = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()).traced());
        let res = engine.run(&spec, &strat).unwrap();
        let seq = seq_reduction(&spec, strat.sweeps, SimConfig::default());
        assert!(approx_eq(&res.values[0], &seq.x[0], 1e-9));

        // Every phase fiber emits Enter/Exit plus the copy-stage pair:
        // 2 procs × 2 sweeps × (k·P = 4) phases.
        let enters = res
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::PhaseEnter { .. }))
            .count();
        let exits = res
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::PhaseExit { .. }))
            .count();
        assert_eq!(enters, 2 * 2 * 4);
        assert_eq!(exits, enters);
        assert!(res
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::PortionRotate { .. })));
        // The timeline folds cleanly and the metrics mirror the stats.
        assert!(!res.timeline().table().is_empty());
        assert_eq!(
            res.metrics().counter("messages"),
            Some(res.stats.ops.messages)
        );
        assert_eq!(
            res.metrics().counter("trace_events"),
            Some(res.trace.len() as u64)
        );
    }

    /// Native body events carry the time they were emitted, so each lies
    /// inside its fiber's fire..retire window and the timeline measures
    /// real compute on the native backend.
    #[test]
    fn traced_native_run_stamps_body_events_when_emitted() {
        let spec = tiny_spec(4096, 18, 40_000);
        let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 2);
        let res = PhasedEngine::new(ExecutionConfig::native(NativeConfig::default()).traced())
            .run(&spec, &strat)
            .unwrap();
        let mut fired: Vec<Option<u64>> = vec![None; strat.procs];
        let mut body: Vec<Vec<u64>> = vec![Vec::new(); strat.procs];
        let mut checked = 0;
        for e in res.trace.iter().filter(|e| (e.node as usize) < strat.procs) {
            let n = e.node as usize;
            match e.kind {
                TraceKind::FiberFire { .. } => {
                    assert!(
                        fired[n].replace(e.ts).is_none(),
                        "fiber fired inside another"
                    );
                }
                TraceKind::FiberRetire { .. } => {
                    let fire = fired[n].take().expect("a retire follows its fire");
                    for ts in body[n].drain(..) {
                        assert!(fire <= ts && ts <= e.ts, "{fire} <= {ts} <= {}", e.ts);
                        checked += 1;
                    }
                }
                TraceKind::PhaseEnter { .. }
                | TraceKind::CopyEnter { .. }
                | TraceKind::CopyExit { .. }
                | TraceKind::PortionRotate { .. }
                | TraceKind::PhaseExit { .. } => {
                    assert!(fired[n].is_some(), "body event outside its fiber");
                    body[n].push(e.ts);
                }
                _ => {}
            }
        }
        assert!(checked >= 4 * strat.procs * strat.sweeps * strat.phases_per_sweep());
        assert!(res.timeline().total(trace::SpanKind::Compute) > 0);
    }

    #[test]
    fn untraced_run_matches_traced_run_bitwise() {
        let spec = tiny_spec(48, 17, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let plain = PhasedEngine::sim(SimConfig::default())
            .run(&spec, &strat)
            .unwrap();
        let traced = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()).traced())
            .run(&spec, &strat)
            .unwrap();
        assert!(plain.trace.is_empty());
        assert!(!traced.trace.is_empty());
        assert_eq!(plain.values, traced.values);
        assert_eq!(plain.time_cycles, traced.time_cycles);
        assert_eq!(plain.stats.ops, traced.stats.ops);
    }
}
