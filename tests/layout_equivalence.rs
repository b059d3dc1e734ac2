//! Property suite for the native fast path on the skewed families: the
//! phase-sorted CSR iteration layout with pooled zero-copy region
//! handoff — the only layout; the naive nested plan walk these tests
//! were first written against is gone — must be **bit-identical** to
//! the simulator's metered walk of the same flat plan, which runs the
//! same shared node memory and charges each hand-off by its size. The
//! native side runs under a lossless
//! fault plan (delays, reorders, duplicate deliveries), which doubles as
//! a dedup check on the SPSC lanes: a duplicated deposit that slipped
//! through, or a lost one, would shift the reduction sums and break
//! exact equality.
//!
//! The paper workloads get the same check in `cross_backend.rs`; this
//! suite sweeps the skew of the power-law and hot-key families and
//! follows the particle-in-cell deck through its churn steps.

use std::time::Duration;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use earth_model::FaultConfig;
use harness::prop::{check, Config, Gen};
use harness::prop_assert;
use irred::{
    Distribution, EdgeKernel, PhasedEngine, PhasedSpec, ReductionEngine, StrategyConfig, Workspace,
};
use kernels::FamilyProblem;
use workloads::{HotKeyScatter, PicDeck, PowerLawGraph};

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

/// Run one phased spec on the simulator and on the faulted native
/// backend and demand exact `f64` equality of every reduction and read
/// array.
fn assert_backends_agree<K: EdgeKernel>(spec: &PhasedSpec<K>, c: &Case) -> Result<(), String> {
    let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
    let sim = PhasedEngine::sim(SimConfig::default())
        .run(spec, &strat)
        .map_err(|e| format!("{e}"))?;
    let nat = PhasedEngine::native(native_cfg(c.seed))
        .run(spec, &strat)
        .map_err(|e| format!("{e}"))?;
    prop_assert!(
        nat.values == sim.values && nat.read == sim.read,
        "native flat (lossless faults) != sim for {c:?}"
    );
    Ok(())
}

#[test]
fn powerlaw_flat_equals_nested() {
    check(
        "powerlaw_flat_equals_nested",
        Config::cases_quick(64),
        gen_case,
        |c| {
            let nodes = 32 + 32 * c.size;
            let edges = nodes * (3 + c.size);
            let alpha = 0.5 + (c.seed % 4) as f64 * 0.7; // sweep mild → severe skew
            let g =
                PowerLawGraph::generate(nodes, edges, alpha, c.seed).map_err(|e| format!("{e}"))?;
            let p = FamilyProblem::from_family(g.to_family(c.seed));
            assert_backends_agree(&p.spec, c)
        },
    );
}

#[test]
fn hotkey_flat_equals_nested() {
    check(
        "hotkey_flat_equals_nested",
        Config::cases_quick(64),
        gen_case,
        |c| {
            let keys = 48 + 32 * c.size;
            let rows = 200 + 150 * c.size;
            let hot_frac = [0.0, 0.6, 0.95, 0.99][(c.seed % 4) as usize];
            let d = HotKeyScatter::generate(keys, rows, 2, hot_frac, 1 + c.size, c.seed)
                .map_err(|e| format!("{e}"))?;
            let p = FamilyProblem::from_family(d.to_family(c.seed));
            assert_backends_agree(&p.spec, c)
        },
    );
}

/// The PIC family through the churn path: a simulator plan kept live
/// through `apply_updates` must stay bit-identical to a cold run of the
/// churned spec on the faulted native backend at every step.
#[test]
fn pic_flat_equals_nested_across_churn() {
    check(
        "pic_flat_equals_nested_across_churn",
        Config::cases_quick(64),
        gen_case,
        |c| {
            let cells = 24 + 16 * c.size;
            let particles = 120 + 120 * c.size;
            let d =
                PicDeck::generate(cells, particles, 2, 0.4, c.seed).map_err(|e| format!("{e}"))?;
            let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
            let engine = PhasedEngine::sim(SimConfig::default());
            let problem = FamilyProblem::from_family(d.initial());
            let mut prepared = engine
                .prepare(&problem.spec, &strat)
                .map_err(|e| format!("{e}"))?;
            let mut ws = Workspace::new();
            for step in 0..d.steps {
                let out = engine
                    .execute(&mut prepared, &mut ws)
                    .map_err(|e| format!("{e}"))?;
                let churned = FamilyProblem::from_family(d.family_at(step));
                let nat = PhasedEngine::native(native_cfg(c.seed ^ step as u64))
                    .run(&churned.spec, &strat)
                    .map_err(|e| format!("{e}"))?;
                prop_assert!(
                    nat.values == out.values,
                    "native flat != churned sim at step {step} for {c:?}"
                );
                prepared
                    .apply_updates(&d.step_updates(step))
                    .map_err(|e| format!("{e}"))?;
            }
            Ok(())
        },
    );
}
