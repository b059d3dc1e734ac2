//! Serial ≡ parallel equivalence suite for the conservative time-window
//! sim core (`earth_model::pdes`).
//!
//! The parallel core's contract is *byte*-determinism: for a fixed seed,
//! `SimConfig::host_threads` must not change a single observable bit —
//! simulated cycle counts, final states, the full [`RunStats`] (per-node
//! busy cycles, cache counters, fault counters), or the rendered trace
//! CSV. That contract is what lets the single-shard serial loop survive
//! as the oracle for every parallel run, so this suite checks it three
//! ways:
//!
//! 1. through the full engine stack on the paper's three workload
//!    families (moldyn force loop, euler edge loop, power-law scatter),
//!    with and without a lossless fault plan;
//! 2. on randomly generated raw fiber dataflow programs under lossless
//!    *and* chaos fault plans — under chaos, drops can starve fibers,
//!    and serial and parallel runs must starve *identically*;
//! 3. for liveness: a wedged shard must surface as a typed
//!    [`SimError::Stalled`], never a hang.
//!
//! On the in-tree [`harness::prop`] harness, so `PROP_BASE_SEED` selects
//! the case stream (the `ci.sh sim` lane pins three seeds and adds a
//! randomized pass).

use std::sync::Arc;
use std::time::Duration;

use earth_model::sim::{run_sim_checked, SimConfig, SimCtx};
use earth_model::{
    mailbox_key, FaultConfig, FiberCtx, FiberSpec, MachineProgram, RingSink, SimError,
};
use harness::prop::{check, Config, Gen};
use harness::prop_assert_eq;
use irred::{
    Distribution, EdgeKernel, ExecutionConfig, PhasedEngine, PhasedSpec, ReductionEngine,
    RunOutcome, StrategyConfig,
};
use kernels::{EulerProblem, FamilyProblem, MolDynProblem};
use workloads::{Mesh, MolDyn, PowerLawGraph};

/// Thread counts every equivalence point is checked at. 1 is the serial
/// oracle; 2 and 4 exercise uneven shard splits and cross-shard lanes.
const THREADS: [usize; 3] = [1, 2, 4];

// ---------------------------------------------------------------------
// 1. Engine-level: the three workload families through PhasedEngine.
// ---------------------------------------------------------------------

/// Run one prepared spec at the given thread count, traced.
fn run_phased<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
    faults: Option<FaultConfig>,
    threads: usize,
) -> RunOutcome {
    let sim = SimConfig::default().with_host_threads(threads);
    let mut cfg = ExecutionConfig::sim(sim).traced();
    if let Some(f) = faults {
        cfg = cfg.with_faults(f);
    }
    PhasedEngine::new(cfg).run(spec, strat).expect("sim run")
}

/// Serial vs parallel at every thread count: values, cycles, the whole
/// stats block, and the trace CSV, byte for byte.
fn assert_phased_equiv<K: EdgeKernel>(
    name: &str,
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
    faults: Option<FaultConfig>,
) -> Result<(), String> {
    let serial = run_phased(spec, strat, faults, 1);
    let serial_csv = trace::events_to_csv(&serial.trace);
    for t in THREADS {
        let par = run_phased(spec, strat, faults, t);
        prop_assert_eq!(&par.values, &serial.values, "{name}: values @ t={t}");
        prop_assert_eq!(
            par.time_cycles,
            serial.time_cycles,
            "{name}: cycles @ t={t}"
        );
        prop_assert_eq!(&par.stats, &serial.stats, "{name}: stats @ t={t}");
        prop_assert_eq!(
            trace::events_to_csv(&par.trace),
            serial_csv.clone(),
            "{name}: trace CSV @ t={t}"
        );
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct FamilyCase {
    procs: usize,
    k: usize,
    dist: Distribution,
    sweeps: usize,
    seed: u64,
    lossless: bool,
}

fn gen_family_case(g: &mut Gen) -> FamilyCase {
    FamilyCase {
        procs: g.usize_incl(2, 8),
        k: g.usize_incl(1, 3),
        dist: if g.prob(0.5) {
            Distribution::Cyclic
        } else {
            Distribution::Block
        },
        sweeps: g.usize_incl(1, 2),
        seed: g.u64_any(),
        lossless: g.prob(0.5),
    }
}

impl FamilyCase {
    fn strat(&self) -> StrategyConfig {
        StrategyConfig::new(self.procs, self.k, self.dist, self.sweeps)
    }
    fn faults(&self) -> Option<FaultConfig> {
        self.lossless.then(|| FaultConfig::lossless(self.seed))
    }
}

#[test]
fn moldyn_serial_equals_parallel() {
    check(
        "moldyn_serial_equals_parallel",
        Config::cases_quick(12),
        gen_family_case,
        |c| {
            let p = MolDynProblem::from_config(MolDyn::fcc(2, 1.1));
            assert_phased_equiv("moldyn", &p.spec, &c.strat(), c.faults())
        },
    );
}

#[test]
fn euler_serial_equals_parallel() {
    check(
        "euler_serial_equals_parallel",
        Config::cases_quick(12),
        gen_family_case,
        |c| {
            let p = EulerProblem::from_mesh(Mesh::generate(120, 480, c.seed | 1), c.seed | 1);
            assert_phased_equiv("euler", &p.spec, &c.strat(), c.faults())
        },
    );
}

#[test]
fn powerlaw_serial_equals_parallel() {
    check(
        "powerlaw_serial_equals_parallel",
        Config::cases_quick(12),
        gen_family_case,
        |c| {
            let g = PowerLawGraph::generate(96, 384, 1.5, c.seed | 1)
                .map_err(|e| format!("generate: {e}"))?;
            let p = FamilyProblem::from_family(g.to_family(c.seed | 1));
            assert_phased_equiv("powerlaw", &p.spec, &c.strat(), c.faults())
        },
    );
}

/// The property cases above stop at P ≤ 8. One fixed case at 256
/// simulated processors (four mesh nodes each, k = 2) covers the scale
/// where the windowed core has the most shards and cross-shard lanes:
/// every host thread count must give the same cycles and the same bits.
#[test]
fn euler_256_procs_serial_equals_parallel() {
    let p = EulerProblem::from_mesh(Mesh::generate(1_024, 4_096, 11), 11);
    let strat = StrategyConfig::new(256, 2, Distribution::Cyclic, 1);
    let run = |t| {
        let sim = SimConfig::default().with_host_threads(t);
        PhasedEngine::sim(sim)
            .run(&p.spec, &strat)
            .expect("sim run")
    };
    let bits = |v: &[Vec<f64>]| -> Vec<u64> { v.iter().flatten().map(|x| x.to_bits()).collect() };
    let serial = run(1);
    for t in [2, 4] {
        let par = run(t);
        assert_eq!(par.time_cycles, serial.time_cycles, "cycles @ t={t}");
        assert_eq!(bits(&par.values), bits(&serial.values), "values @ t={t}");
    }
}

// ---------------------------------------------------------------------
// 2. Raw programs: random dataflow DAGs under lossless and chaos plans.
// ---------------------------------------------------------------------

type State = i64;

/// Layered random dataflow DAG (same shape as the native-vs-sim suite):
/// each fiber sums its inputs, adds its id, forwards to consumers.
#[derive(Debug, Clone)]
struct Dag {
    procs: usize,
    layers: Vec<Vec<usize>>,
    edges: Vec<Vec<(usize, usize)>>,
}

fn gen_dag(g: &mut Gen) -> Dag {
    let procs = g.usize_incl(2, 7);
    let nlayers = g.usize_incl(2, 4);
    let layers: Vec<Vec<usize>> = (0..nlayers)
        .map(|_| g.vec(1, 5, |g| g.usize_in(0..procs)))
        .collect();
    let mut edges = Vec::new();
    for li in 0..layers.len() - 1 {
        let (src_n, dst_n) = (layers[li].len(), layers[li + 1].len());
        let mut es: Vec<(usize, usize)> =
            g.vec(0, 8, |g| (g.usize_in(0..src_n), g.usize_in(0..dst_n)));
        es.extend((0..dst_n).map(|d| (d % src_n, d)));
        edges.push(es);
    }
    Dag {
        procs,
        layers,
        edges,
    }
}

fn build_dag(d: &Dag) -> MachineProgram<State, SimCtx<State>> {
    let mut prog: MachineProgram<State, SimCtx<State>> = MachineProgram::new();
    for _ in 0..d.procs {
        prog.add_node(0);
    }
    let mut slot_of: Vec<Vec<u32>> = Vec::new();
    let mut next_slot = vec![0u32; d.procs];
    for nodes in &d.layers {
        let mut slots = Vec::new();
        for &n in nodes {
            slots.push(next_slot[n]);
            next_slot[n] += 1;
        }
        slot_of.push(slots);
    }
    let mut indeg: Vec<Vec<u32>> = d.layers.iter().map(|l| vec![0u32; l.len()]).collect();
    for (li, es) in d.edges.iter().enumerate() {
        for &(_, dst) in es {
            indeg[li + 1][dst] += 1;
        }
    }
    for (li, nodes) in d.layers.iter().enumerate() {
        for (fi, &n) in nodes.iter().enumerate() {
            let my_id = (li * 1000 + fi) as i64;
            let key = mailbox_key(li as u32, fi as u32);
            let consumers: Vec<(usize, u32, u64)> = d
                .edges
                .get(li)
                .map(|es| {
                    es.iter()
                        .filter(|&&(src, _)| src == fi)
                        .map(|&(_, dst)| {
                            (
                                d.layers[li + 1][dst],
                                slot_of[li + 1][dst],
                                mailbox_key(li as u32 + 1, dst as u32),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            prog.node_mut(n).add_fiber(FiberSpec::new(
                "layer",
                indeg[li][fi],
                move |s: &mut State, cx: &mut SimCtx<State>| {
                    let mut acc = my_id;
                    while let Some(v) = cx.recv(key) {
                        acc += v.expect_int();
                    }
                    *s += acc;
                    for &(dn, dslot, dkey) in &consumers {
                        cx.data_sync(dn, dkey, earth_model::Value::Int(acc), dslot);
                    }
                },
            ));
        }
    }
    prog
}

/// Run a DAG at `threads` and return every observable: the report plus
/// the rendered trace CSV.
fn run_dag(d: &Dag, faults: Option<FaultConfig>, threads: usize) -> (String, Vec<State>, u64) {
    let cfg = SimConfig {
        faults,
        ..SimConfig::default()
    }
    .with_host_threads(threads);
    let sink = Arc::new(RingSink::new(d.procs, 1 << 12));
    let report = run_sim_checked(build_dag(d), cfg, sink).expect("no watchdog configured");
    let csv = trace::events_to_csv(&report.trace);
    // Fold the full stats block into the CSV comparison blob so one
    // assert covers cycles, per-node counters, and fault counters.
    let blob = format!("{csv}\n{:?}\n{:?}", report.stats, report.time_cycles);
    (blob, report.states, report.time_cycles)
}

#[test]
fn random_dags_lossless_plans_agree() {
    check(
        "random_dags_lossless_plans_agree",
        Config::cases_quick(48),
        |g| (gen_dag(g), g.u64_any()),
        |(d, seed)| {
            let faults = Some(FaultConfig::lossless(*seed));
            let (blob1, states1, _) = run_dag(d, faults, 1);
            for t in [2, 4] {
                let (blob, states, _) = run_dag(d, faults, t);
                prop_assert_eq!(&states, &states1, "states @ t={t}");
                prop_assert_eq!(blob.clone(), blob1.clone(), "observables @ t={t}");
            }
            Ok(())
        },
    );
}

/// Chaos plans drop and duplicate messages, so fibers can starve — the
/// run still terminates, and serial and parallel must starve the *same*
/// fibers at the *same* cycle counts.
#[test]
fn random_dags_chaos_starves_identically() {
    check(
        "random_dags_chaos_starves_identically",
        Config::cases_quick(48),
        |g| (gen_dag(g), g.u64_any()),
        |(d, seed)| {
            let faults = Some(FaultConfig::chaos(*seed));
            let (blob1, states1, cycles1) = run_dag(d, faults, 1);
            for t in [2, 4] {
                let (blob, states, cycles) = run_dag(d, faults, t);
                prop_assert_eq!(cycles, cycles1, "cycles @ t={t}");
                prop_assert_eq!(&states, &states1, "states @ t={t}");
                prop_assert_eq!(blob.clone(), blob1.clone(), "observables @ t={t}");
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 3. Liveness: a wedged shard is a typed error, not a hang.
// ---------------------------------------------------------------------

#[test]
fn wedged_shard_surfaces_as_stalled() {
    let mut prog: MachineProgram<u8, SimCtx<u8>> = MachineProgram::new();
    for _ in 0..4 {
        prog.add_node(0);
    }
    // Node 3's fiber wedges the host thread long enough for the
    // watchdog to observe zero progress across a full interval.
    prog.node_mut(3)
        .add_fiber(FiberSpec::ready("wedge", |_, _| {
            std::thread::sleep(Duration::from_millis(1200));
        }));
    for n in 0..3 {
        prog.node_mut(n)
            .add_fiber(FiberSpec::ready("ok", |s: &mut u8, _| *s += 1));
    }
    let cfg = SimConfig::default()
        .with_host_threads(4)
        .with_host_watchdog(Duration::from_millis(100));
    let err = run_sim_checked(prog, cfg, Arc::new(earth_model::NullSink))
        .expect_err("watchdog must fire");
    match err {
        SimError::Stalled { shards, watchdog } => {
            assert_eq!(shards, 4);
            assert_eq!(watchdog, Duration::from_millis(100));
        }
    }
}
