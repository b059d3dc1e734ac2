//! Property suite: native runs and replayed simulator sweeps equal the
//! simulator's measuring sweeps, bit for bit, on all inputs.
//!
//! A measuring sweep (sweeps 0–1 of each phase on a fresh workspace)
//! charges the phase's accesses with an address walk and then computes
//! its values with the same chunked kernel as every native phase and
//! every replayed simulator sweep. So a native run (under a lossless
//! fault plan) and a fully replayed simulator run must both equal the
//! measuring simulator run on *arbitrary* float inputs: across three
//! workload families, hot-key widths of 1, 2, 3, 5 and 8 arrays (the
//! last two on the value loop's all-run-time arm), and a five-reference
//! four-array kernel (20 contribution slots, on the run-time-`m` arm of
//! the const width four, `chunk::<K, 4, 0>`).

use std::sync::Arc;
use std::time::Duration;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use earth_model::FaultConfig;
use harness::prop::{check, Config, Gen};
use harness::prop_assert;
use irred::{
    Distribution, EdgeKernel, ExecutionConfig, PhasedEngine, PhasedSpec, ReductionEngine,
    StrategyConfig, Workspace,
};
use kernels::{FamilyProblem, MolDynProblem};
use workloads::{HotKeyScatter, MolDyn, PowerLawGraph};

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

fn native_cfg(fault_seed: u64) -> NativeConfig {
    NativeConfig {
        watchdog: Duration::from_secs(30),
        faults: Some(FaultConfig::lossless(fault_seed)),
        starved_is_error: true,
        host_threads: None,
        deadline: None,
    }
}

/// Run one spec three ways and demand exact equality: the simulator's
/// metered run (a fresh workspace, so sweeps 0–1 of every phase run the
/// metered loop), a second execute of the same prepared plan on the same
/// workspace (every phase's cost is now cached, so every sweep is a
/// replay through the chunked kernel), and a native run under a
/// lossless fault plan (the chunked kernel on the shared region).
fn assert_unmetered_equals_metered<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    c: &Case,
) -> Result<(), String> {
    let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
    let sim = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()));
    let mut prepared = sim.prepare(spec, &strat).map_err(|e| format!("{e}"))?;
    let mut ws = Workspace::new();
    let metered = sim
        .execute(&mut prepared, &mut ws)
        .map_err(|e| format!("{e}"))?;
    let replayed = sim
        .execute(&mut prepared, &mut ws)
        .map_err(|e| format!("{e}"))?;
    prop_assert!(
        replayed.values == metered.values && replayed.read == metered.read,
        "replayed sim != metered sim for {c:?}"
    );
    let nat = PhasedEngine::new(ExecutionConfig::native(native_cfg(c.seed)))
        .run(spec, &strat)
        .map_err(|e| format!("{e}"))?;
    prop_assert!(
        nat.values == metered.values && nat.read == metered.read,
        "native (lossless faults) != metered sim for {c:?}"
    );
    Ok(())
}

#[test]
fn moldyn_native_and_replay_equal_metered() {
    check(
        "moldyn_native_and_replay_equal_metered",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let cells = 2 + c.size.min(1);
            let cutoff = 1.2 + 0.3 * c.size as f64;
            let problem = MolDynProblem::from_config(MolDyn::fcc(cells, cutoff));
            assert_unmetered_equals_metered(&problem.spec, c)
        },
    );
}

#[test]
fn powerlaw_native_and_replay_equal_metered() {
    check(
        "powerlaw_native_and_replay_equal_metered",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let nodes = 32 + 32 * c.size;
            let edges = nodes * (3 + c.size);
            let alpha = 0.5 + (c.seed % 4) as f64 * 0.7;
            let g =
                PowerLawGraph::generate(nodes, edges, alpha, c.seed).map_err(|e| format!("{e}"))?;
            let p = FamilyProblem::from_family(g.to_family(c.seed));
            assert_unmetered_equals_metered(&p.spec, c)
        },
    );
}

#[test]
fn hotkey_native_and_replay_equal_metered() {
    check(
        "hotkey_native_and_replay_equal_metered",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let keys = 48 + 32 * c.size;
            let rows = 200 + 150 * c.size;
            let hot_frac = [0.0, 0.6, 0.95, 0.99][(c.seed % 4) as usize];
            // Widths past four arrays run the kernel's dynamic arm.
            let components = [1, 2, 3, 5, 8][(c.seed >> 2) as usize % 5];
            let d = HotKeyScatter::generate(keys, rows, 2, hot_frac, components, c.seed)
                .map_err(|e| format!("{e}"))?;
            let p = FamilyProblem::from_family(d.to_family(c.seed));
            assert_unmetered_equals_metered(&p.spec, c)
        },
    );
}

/// Five references × four arrays: 20 contribution slots per iteration,
/// wider than the kernel's const arms, with arbitrary-float
/// contributions (any reordering of the sums shows in the bits).
#[derive(Debug)]
struct WideKernel {
    weights: Vec<f64>,
}

impl EdgeKernel for WideKernel {
    fn num_refs(&self) -> usize {
        5
    }

    fn num_arrays(&self) -> usize {
        4
    }

    fn contrib_batch(
        &self,
        _read: &[f64],
        giters: &[u32],
        _elems: &[u32],
        _edge: &[f64],
        out: &mut [f64],
    ) {
        for (o, &gi) in out.chunks_exact_mut(20).zip(giters) {
            let w = self.weights[gi as usize];
            for r in 0..5 {
                for a in 0..4 {
                    o[r * 4 + a] = w * (1.0 + 0.37 * r as f64) - 0.113 * a as f64 * w * w;
                }
            }
        }
    }

    fn flops_per_iter(&self) -> u64 {
        60
    }
}

#[test]
fn wide_kernel_native_and_replay_equal_metered() {
    check(
        "wide_kernel_native_and_replay_equal_metered",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let num_elements = 24 + 24 * c.size;
            let iters = 120 + 100 * c.size;
            let mut rng = c.seed | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let weights = (0..iters)
                .map(|_| (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
                .collect();
            let indirection = (0..5)
                .map(|_| {
                    (0..iters)
                        .map(|_| (next() % num_elements as u64) as u32)
                        .collect()
                })
                .collect();
            let spec = PhasedSpec {
                kernel: Arc::new(WideKernel { weights }),
                num_elements,
                indirection: Arc::new(indirection),
            };
            assert_unmetered_equals_metered(&spec, c)
        },
    );
}
