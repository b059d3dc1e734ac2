//! The same program must produce the same bits on the discrete-event
//! simulator and on real OS threads — the two backends run one node
//! memory and one value loop and differ only in how time passes. The
//! sequential reference sums in iteration order, not phase order, so it
//! is matched within reassociation tolerance only. The property tests
//! run the native side under a lossless fault plan (delays, reorders,
//! duplicate deliveries), which doubles as a dedup check on the SPSC
//! lanes: a duplicated deposit that slipped through, or a lost one,
//! would shift the sums and break exact equality with the simulator.

use std::sync::Arc;
use std::time::Duration;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use earth_model::FaultConfig;
use harness::prop::{check, Config, Gen};
use harness::prop_assert;
use irred::kernel::WeightedPairKernel;
use irred::{
    approx_eq, Distribution, EdgeKernel, GatherEngine, PhasedEngine, PhasedSpec, ReductionEngine,
    SeqEngine, StrategyConfig,
};
use kernels::{EulerProblem, MolDynProblem, MvmProblem};
use workloads::{Mesh, MolDyn, SparseMatrix};

fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

#[test]
fn weighted_kernel_sim_equals_native() {
    let mut next = rng(21);
    let (n, e) = (128usize, 1_000usize);
    let spec = PhasedSpec {
        kernel: Arc::new(WeightedPairKernel {
            weights: Arc::new((0..e).map(|_| (next() % 97) as f64 / 3.0).collect()),
        }),
        num_elements: n,
        indirection: Arc::new(vec![
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        ]),
    };
    for (procs, k) in [(2usize, 2usize), (4, 1), (8, 4)] {
        let strat = StrategyConfig::new(procs, k, Distribution::Cyclic, 3);
        let sim = PhasedEngine::sim(SimConfig::default())
            .run(&spec, &strat)
            .unwrap();
        let nat = PhasedEngine::native(NativeConfig::default())
            .run(&spec, &strat)
            .unwrap();
        assert!(
            sim.values == nat.values,
            "backend mismatch at P={procs} k={k}"
        );
    }
}

#[test]
fn euler_sim_equals_native() {
    let problem = EulerProblem::from_mesh(Mesh::generate3d(300, 1_600, 4), 4);
    let strat = StrategyConfig::new(4, 2, Distribution::Block, 3);
    let sim = PhasedEngine::sim(SimConfig::default())
        .run(&problem.spec, &strat)
        .unwrap();
    let nat = PhasedEngine::native(NativeConfig::default())
        .run(&problem.spec, &strat)
        .unwrap();
    assert!(sim.values == nat.values, "reduction arrays differ");
    assert!(sim.read == nat.read, "read arrays differ");
}

#[test]
fn mvm_sim_equals_native() {
    let problem = MvmProblem::from_matrix(Arc::new(SparseMatrix::random(200, 200, 3_000, 5)));
    let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
    let sim = GatherEngine::sim(SimConfig::default())
        .run(&problem.spec, &strat)
        .unwrap();
    let nat = GatherEngine::native(NativeConfig::default())
        .run(&problem.spec, &strat)
        .unwrap();
    assert!(sim.values == nat.values, "y differs");
}

#[test]
fn op_counts_agree_across_backends() {
    // Both backends execute the identical fiber graph and the same
    // number of ring and broadcast hand-offs, and both hand off in
    // place. Only the simulator charges a hand-off by its bytes, as a
    // message; natively it is a bare ownership sync.
    let problem = EulerProblem::from_mesh(Mesh::generate3d(200, 900, 8), 8);
    let strat = StrategyConfig::new(3, 2, Distribution::Cyclic, 2);
    let sim = PhasedEngine::sim(SimConfig::default())
        .run(&problem.spec, &strat)
        .unwrap();
    let nat = PhasedEngine::native(NativeConfig::default())
        .run(&problem.spec, &strat)
        .unwrap();
    let (s, n) = (&sim.stats.ops, &nat.stats.ops);
    assert_eq!(s.fibers_fired, n.fibers_fired);
    assert_eq!(s.messages + s.syncs, n.messages + n.syncs);
    assert!(s.messages > 0 && n.messages < s.messages);
    assert!(sim.values == nat.values && sim.read == nat.read);
}

#[derive(Debug, Clone)]
struct Case {
    size: usize,
    procs: usize,
    k: usize,
    dist: Distribution,
    sweeps: usize,
    seed: u64,
}

fn gen_case(g: &mut Gen) -> Case {
    Case {
        size: g.usize_incl(0, 2),
        procs: g.usize_incl(1, 6),
        k: g.usize_incl(1, 3),
        dist: if g.prob(0.5) {
            Distribution::Cyclic
        } else {
            Distribution::Block
        },
        sweeps: g.usize_incl(1, 3),
        seed: g.u64_any(),
    }
}

fn faulted(seed: u64) -> NativeConfig {
    NativeConfig {
        watchdog: Duration::from_secs(30),
        faults: Some(FaultConfig::lossless(seed)),
        starved_is_error: true,
        host_threads: None,
        deadline: None,
    }
}

/// One phased spec on the simulator and on the faulted native backend:
/// exact `f64` equality of every reduction and read array, and the
/// sequential reference within reassociation tolerance.
fn assert_phased_backends_agree<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    c: &Case,
) -> Result<(), String> {
    let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
    let sim = PhasedEngine::sim(SimConfig::default())
        .run(spec, &strat)
        .map_err(|e| format!("{e}"))?;
    let nat = PhasedEngine::native(faulted(c.seed))
        .run(spec, &strat)
        .map_err(|e| format!("{e}"))?;
    prop_assert!(
        nat.values == sim.values && nat.read == sim.read,
        "native (lossless faults) != sim for {c:?}"
    );
    let seq = SeqEngine::new(SimConfig::default())
        .run(spec, &strat)
        .map_err(|e| format!("{e}"))?;
    for (a, (got, want)) in sim.values.iter().zip(&seq.values).enumerate() {
        prop_assert!(approx_eq(got, want, 1e-8), "x[{a}] != seq for {c:?}");
    }
    Ok(())
}

#[test]
fn moldyn_native_under_faults_equals_sim() {
    check(
        "moldyn_native_under_faults_equals_sim",
        Config::cases_quick(64),
        gen_case,
        |c| {
            // 2–3 fcc cells: 32–108 molecules, enough for portions on up
            // to 6 nodes while keeping each case cheap.
            let cells = 2 + c.size.min(1);
            let cutoff = 1.2 + 0.3 * c.size as f64;
            let problem = MolDynProblem::from_config(MolDyn::fcc(cells, cutoff));
            assert_phased_backends_agree(&problem.spec, c)
        },
    );
}

#[test]
fn euler_native_under_faults_equals_sim() {
    check(
        "euler_native_under_faults_equals_sim",
        Config::cases_quick(64),
        gen_case,
        |c| {
            let nodes = 48 + 40 * c.size;
            let edges = nodes * (3 + c.size);
            let problem =
                EulerProblem::from_mesh(Mesh::generate3d(nodes, edges, c.seed), c.seed ^ 7);
            assert_phased_backends_agree(&problem.spec, c)
        },
    );
}

#[test]
fn mvm_native_under_faults_equals_sim() {
    check(
        "mvm_native_under_faults_equals_sim",
        Config::cases_quick(64),
        gen_case,
        |c| {
            let rows = 24 + 32 * c.size;
            let nnz = rows * (3 + c.size);
            let problem =
                MvmProblem::from_matrix(Arc::new(SparseMatrix::random(rows, rows, nnz, c.seed)));
            let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
            let sim = GatherEngine::sim(SimConfig::default())
                .run(&problem.spec, &strat)
                .map_err(|e| format!("{e}"))?;
            let nat = GatherEngine::native(faulted(c.seed))
                .run(&problem.spec, &strat)
                .map_err(|e| format!("{e}"))?;
            prop_assert!(
                nat.values == sim.values,
                "native (lossless faults) != sim for {c:?}"
            );
            Ok(())
        },
    );
}
