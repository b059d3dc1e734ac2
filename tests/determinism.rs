//! The simulator must be perfectly deterministic: identical inputs give
//! identical times, statistics, and values — the property that makes the
//! figures reproducible.

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use irred::baseline::IeEngine;
use irred::{
    approx_eq, seq_reduction, Distribution, EdgeKernel, ExecutionConfig, GatherEngine,
    PhasedEngine, PhasedSpec, ReductionEngine, StrategyConfig,
};
use kernels::{EulerProblem, FamilyProblem, MolDynProblem, MvmProblem};
use std::sync::Arc;
use workloads::{HotKeyScatter, Mesh, MolDyn, PicDeck, PowerLawGraph, SparseMatrix};

#[test]
fn phased_sim_is_deterministic() {
    let strat = StrategyConfig::new(6, 2, Distribution::Cyclic, 3);
    let run = || {
        let problem = EulerProblem::from_mesh(Mesh::generate3d(300, 1_500, 42), 42);
        PhasedEngine::sim(SimConfig::default())
            .run(&problem.spec, &strat)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.time_cycles, b.time_cycles);
    assert_eq!(a.stats.ops.messages, b.stats.ops.messages);
    assert_eq!(a.values, b.values);
    assert_eq!(a.read, b.read);
}

#[test]
fn gather_sim_is_deterministic() {
    let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
    let run = || {
        let p = MvmProblem::from_matrix(Arc::new(SparseMatrix::random(256, 256, 4_000, 7)));
        GatherEngine::sim(SimConfig::default())
            .run(&p.spec, &strat)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.time_cycles, b.time_cycles);
    assert_eq!(a.values, b.values);
}

#[test]
fn different_seeds_give_different_times() {
    let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 2);
    let time = |seed: u64| {
        let problem = EulerProblem::from_mesh(Mesh::generate3d(300, 1_500, seed), seed);
        PhasedEngine::sim(SimConfig::default())
            .run(&problem.spec, &strat)
            .unwrap()
            .time_cycles
    };
    assert_ne!(time(1), time(2), "different meshes should not tie exactly");
}

/// View a kernel through a static-reads lens: identical arithmetic, but
/// the read arrays are baked into the kernel (captured once from
/// `init_read`) and no post-sweep update happens. Lets the
/// inspector/executor baseline — which supports neither replicated read
/// arrays nor read-state updates — run the euler and moldyn kernels'
/// single-sweep reduction.
struct Frozen<K> {
    inner: Arc<K>,
    read: Vec<f64>,
}

impl<K: EdgeKernel> EdgeKernel for Frozen<K> {
    fn num_refs(&self) -> usize {
        self.inner.num_refs()
    }
    fn num_arrays(&self) -> usize {
        self.inner.num_arrays()
    }
    fn edge(&self) -> Option<&[f64]> {
        self.inner.edge()
    }
    fn contrib_batch(
        &self,
        _read: &[f64],
        giters: &[u32],
        elems: &[u32],
        edge: &[f64],
        out: &mut [f64],
    ) {
        self.inner
            .contrib_batch(&self.read, giters, elems, edge, out)
    }
    fn flops_per_iter(&self) -> u64 {
        self.inner.flops_per_iter()
    }
    fn edge_reads_per_iter(&self) -> usize {
        self.inner.edge_reads_per_iter()
    }
}

fn freeze<K: EdgeKernel>(spec: &PhasedSpec<K>) -> PhasedSpec<Frozen<K>> {
    PhasedSpec {
        kernel: Arc::new(Frozen {
            read: spec.kernel.init_read(),
            inner: Arc::clone(&spec.kernel),
        }),
        num_elements: spec.num_elements,
        indirection: Arc::clone(&spec.indirection),
    }
}

/// Sparse MVM expressed as an irregular reduction `y[row[i]] +=
/// val[i]·x[col[i]]`, so the mvm kernel can run under all three
/// execution strategies (the gather formulation has no IE baseline).
struct SpmvKernel {
    values: Arc<Vec<f64>>,
    col_idx: Arc<Vec<u32>>,
    x: Arc<Vec<f64>>,
}

impl EdgeKernel for SpmvKernel {
    fn num_refs(&self) -> usize {
        1
    }
    fn contrib_batch(
        &self,
        _read: &[f64],
        giters: &[u32],
        _elems: &[u32],
        _edge: &[f64],
        out: &mut [f64],
    ) {
        for (o, &gi) in out.iter_mut().zip(giters) {
            let i = gi as usize;
            *o = self.values[i] * self.x[self.col_idx[i] as usize];
        }
    }
    fn flops_per_iter(&self) -> u64 {
        2
    }
}

fn mvm_reduction_spec(m: &SparseMatrix, seed: u64) -> PhasedSpec<SpmvKernel> {
    let mut rows = Vec::with_capacity(m.nnz());
    for r in 0..m.nrows {
        for _ in m.row_ptr[r]..m.row_ptr[r + 1] {
            rows.push(r as u32);
        }
    }
    let x: Vec<f64> = (0..m.ncols)
        .map(|i| 1.0 + ((i as u64 + seed) % 7) as f64)
        .collect();
    PhasedSpec {
        kernel: Arc::new(SpmvKernel {
            values: Arc::new(m.values.clone()),
            col_idx: Arc::new(m.col_idx.clone()),
            x: Arc::new(x),
        }),
        num_elements: m.nrows,
        indirection: Arc::new(vec![rows]),
    }
}

/// The satellite determinism contract: for a fixed seed, each execution
/// strategy — sequential reference, communicating inspector/executor
/// baseline, and the paper's phased executor — produces *bit-identical*
/// reduction results when re-run, and all three agree with one another
/// to floating-point reassociation tolerance. One check per kernel.
fn assert_strategy_determinism<K: EdgeKernel>(
    name: &str,
    spec: &PhasedSpec<K>,
    procs: usize,
    k: usize,
) {
    let strat = StrategyConfig::new(procs, k, Distribution::Block, 1);
    let owners: Vec<u32> = (0..spec.num_elements)
        .map(|e| (e * procs / spec.num_elements) as u32)
        .collect();

    let ie_strat = StrategyConfig::new(procs, 1, Distribution::Block, 1);
    let seq = || seq_reduction(spec, 1, SimConfig::default());
    let ie = || {
        IeEngine::with_owners(SimConfig::default(), Arc::new(owners.clone()))
            .run(spec, &ie_strat)
            .unwrap()
    };
    let phased = || {
        PhasedEngine::sim(SimConfig::default())
            .run(spec, &strat)
            .unwrap()
    };

    // Re-run bit-identity per strategy.
    let (s1, s2) = (seq(), seq());
    assert_eq!(s1.x, s2.x, "{name}: seq not bit-stable");
    let (i1, i2) = (ie(), ie());
    assert_eq!(
        i1.values, i2.values,
        "{name}: inspector/executor not bit-stable"
    );
    assert_eq!(
        i1.time_cycles, i2.time_cycles,
        "{name}: IE timing not stable"
    );
    let (p1, p2) = (phased(), phased());
    assert_eq!(p1.values, p2.values, "{name}: phased not bit-stable");
    assert_eq!(
        p1.time_cycles, p2.time_cycles,
        "{name}: phased timing not stable"
    );

    // Cross-strategy agreement (reassociation tolerance, not bitwise —
    // the strategies legitimately sum contributions in different orders).
    for a in 0..spec.kernel.num_arrays() {
        assert!(
            approx_eq(&s1.x[a], &i1.values[a], 1e-9),
            "{name}: seq vs IE, array {a}"
        );
        assert!(
            approx_eq(&s1.x[a], &p1.values[a], 1e-9),
            "{name}: seq vs phased, array {a}"
        );
    }
}

#[test]
fn strategies_deterministic_mvm() {
    let m = SparseMatrix::random(256, 256, 4_000, 7);
    assert_strategy_determinism("mvm", &mvm_reduction_spec(&m, 7), 4, 2);
}

#[test]
fn strategies_deterministic_euler() {
    let p = EulerProblem::from_mesh(Mesh::generate3d(300, 1_500, 42), 42);
    assert_strategy_determinism("euler", &freeze(&p.spec), 4, 2);
}

#[test]
fn strategies_deterministic_moldyn() {
    let p = MolDynProblem::from_config(MolDyn::fcc(3, 0.75));
    assert_strategy_determinism("moldyn", &freeze(&p.spec), 3, 2);
}

#[test]
fn strategies_deterministic_powerlaw() {
    let g = PowerLawGraph::generate(200, 1_200, 1.5, 11).unwrap();
    let p = FamilyProblem::from_family(g.to_family(11));
    assert_strategy_determinism("powerlaw", &p.spec, 4, 2);
}

#[test]
fn strategies_deterministic_hotkey() {
    let d = HotKeyScatter::generate(160, 1_500, 2, 0.9, 3, 13).unwrap();
    let p = FamilyProblem::from_family(d.to_family(13));
    assert_strategy_determinism("hotkey", &p.spec, 5, 2);
}

#[test]
fn strategies_deterministic_pic() {
    let d = PicDeck::generate(64, 900, 1, 0.3, 17).unwrap();
    let p = FamilyProblem::from_family(d.initial());
    assert_strategy_determinism("pic", &p.spec, 3, 2);
}

/// The churn path must be as deterministic as a cold prepare: replaying
/// the same particle sweep through `apply_updates` twice gives
/// bit-identical values *and* simulated times at every step.
#[test]
fn pic_churn_replay_is_deterministic() {
    let run = || {
        let d = PicDeck::generate(48, 600, 3, 0.5, 23).unwrap();
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        let problem = FamilyProblem::from_family(d.initial());
        let mut prepared = engine.prepare(&problem.spec, &strat).unwrap();
        let mut ws = irred::Workspace::new();
        let mut trace = Vec::new();
        for step in 0..d.steps {
            let out = engine.execute(&mut prepared, &mut ws).unwrap();
            trace.push((out.time_cycles, out.values.clone()));
            prepared.apply_updates(&d.step_updates(step)).unwrap();
        }
        trace
    };
    assert_eq!(run(), run(), "churned plan execution not bit-stable");
}

#[test]
fn family_generators_are_seed_stable() {
    let a = PowerLawGraph::generate(100, 700, 2.0, 5)
        .unwrap()
        .to_family(5);
    let b = PowerLawGraph::generate(100, 700, 2.0, 5)
        .unwrap()
        .to_family(5);
    assert_eq!(a.indirection, b.indirection);
    assert_eq!(a.weights, b.weights);
    let ha = HotKeyScatter::generate(64, 400, 2, 0.8, 2, 9)
        .unwrap()
        .to_family(9);
    let hb = HotKeyScatter::generate(64, 400, 2, 0.8, 2, 9)
        .unwrap()
        .to_family(9);
    assert_eq!(ha.indirection, hb.indirection);
    assert_eq!(ha.weights, hb.weights);
    let pa = PicDeck::generate(32, 300, 2, 0.4, 3).unwrap();
    let pb = PicDeck::generate(32, 300, 2, 0.4, 3).unwrap();
    assert_eq!(pa.family_at(2).indirection, pb.family_at(2).indirection);
}

#[test]
fn workload_generators_are_seed_stable() {
    // Regenerating the paper presets must give byte-identical datasets —
    // the figures depend on it.
    let a = Mesh::preset(workloads::MeshPreset::Euler2K, 1);
    let b = Mesh::preset(workloads::MeshPreset::Euler2K, 1);
    assert_eq!(a.ia1, b.ia1);
    assert_eq!(a.ia2, b.ia2);
    let ma = workloads::MolDyn::preset(workloads::MolDynPreset::MolDyn2K);
    let mb = workloads::MolDyn::preset(workloads::MolDynPreset::MolDyn2K);
    assert_eq!(ma.ia1, mb.ia1);
}

/// What a traced simulated run must reproduce exactly: makespan, op
/// counts and a digest of every trace event's `(ts, node, kind)`.
#[derive(Debug, PartialEq, Eq)]
struct SimPin {
    time_cycles: u64,
    messages: u64,
    bytes: u64,
    syncs: u64,
    trace_digest: u64,
}

/// FNV-1a over each event's timestamp, node and `Debug` form, in
/// drained order: independent of the host's hasher and word size.
fn trace_digest(trace: &[earth_model::TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in trace {
        for b in format!("{} {} {:?}\n", ev.ts, ev.node, ev.kind).bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pin_of(out: &irred::RunOutcome) -> SimPin {
    assert!(!out.trace.is_empty(), "the pinned run must be traced");
    assert_eq!(out.metrics().counter("trace_dropped_events"), Some(0));
    SimPin {
        time_cycles: out.time_cycles,
        messages: out.stats.ops.messages,
        bytes: out.stats.ops.bytes,
        syncs: out.stats.ops.syncs,
        trace_digest: trace_digest(&out.trace),
    }
}

fn bits(arrays: &[Vec<f64>]) -> Vec<Vec<u64>> {
    arrays
        .iter()
        .map(|a| a.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Run a phased plan traced on the simulator, check it against `want`,
/// and check that the native backend returns the same value bits.
fn assert_phased_pinned<K: EdgeKernel>(name: &str, spec: &PhasedSpec<K>, want: SimPin) {
    let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 3);
    let sim = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()).traced())
        .run(spec, &strat)
        .unwrap();
    let nat = PhasedEngine::native(NativeConfig::default())
        .run(spec, &strat)
        .unwrap();
    assert_eq!(pin_of(&sim), want, "{name}: simulated run moved");
    assert_eq!(bits(&nat.values), bits(&sim.values), "{name}: values");
    assert_eq!(bits(&nat.read), bits(&sim.read), "{name}: read arrays");
}

/// The simulator pinned on three plans — read-updating phased
/// (moldyn), static phased (euler with frozen read arrays) and gather
/// (mvm) — to the cycles, op counts and trace it produced when every
/// node still carried private arrays and every hand-off a payload. The
/// native backend must return the same bits on each.
#[test]
fn simulated_runs_are_pinned() {
    let moldyn = MolDynProblem::from_config(MolDyn::fcc(3, 0.9));
    assert_phased_pinned(
        "moldyn",
        &moldyn.spec,
        SimPin {
            time_cycles: 113_493,
            messages: 120,
            bytes: 38_880,
            syncs: 108,
            trace_digest: 14_823_592_584_895_710_402,
        },
    );
    let euler = EulerProblem::from_mesh(Mesh::generate3d(300, 1_500, 42), 42);
    assert_phased_pinned(
        "euler",
        &freeze(&euler.spec),
        SimPin {
            time_cycles: 271_644,
            messages: 72,
            bytes: 86_400,
            syncs: 108,
            trace_digest: 15_346_451_182_128_722_291,
        },
    );

    let mvm = MvmProblem::from_matrix(Arc::new(SparseMatrix::random(256, 256, 4_000, 7)));
    let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
    let sim = GatherEngine::new(ExecutionConfig::sim(SimConfig::default()).traced())
        .run(&mvm.spec, &strat)
        .unwrap();
    let nat = GatherEngine::native(NativeConfig::default())
        .run(&mvm.spec, &strat)
        .unwrap();
    assert_eq!(
        pin_of(&sim),
        SimPin {
            time_cycles: 57_538,
            messages: 56,
            bytes: 14_336,
            syncs: 60,
            trace_digest: 12_803_937_855_690_552_895,
        },
        "mvm: simulated run moved"
    );
    assert_eq!(bits(&nat.values), bits(&sim.values), "mvm: values");
}
