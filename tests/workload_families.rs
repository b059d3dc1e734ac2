//! Golden-oracle property suite for the skewed workload families.
//!
//! Every generated deck — power-law graph, hot-key scatter-add,
//! particle-in-cell — is checked against the straight-line sequential
//! oracle ([`workloads::oracle`]) **bit for bit** on every engine that
//! can run it: the sequential reference, the inspector/executor
//! baseline, the phased executor (simulator and native backend, the
//! native runs under a lossless fault plan),
//! and the gather engine via the sparse-matrix re-expression of each
//! reduction array. Family weights are integer-valued, so summation
//! order cannot perturb the bits: any lost, duplicated, or misrouted
//! contribution fails `assert_eq!` on the raw `f64`s.
//!
//! The suite also records the inspector statistics (portion histogram,
//! max/mean refs, skew coefficient) for every deck and checks their
//! invariants, exercises the particle-in-cell churn path through
//! `PreparedPhased::apply_updates` against freshly prepared plans on
//! both backends, and
//! pins `StrategyConfig::auto_select` on the skew endpoints.

use std::time::Duration;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use earth_model::FaultConfig;
use harness::prop::{check, Config, Gen};
use harness::prop_assert;
use irred::baseline::{IeEngine, InspectorExecutor};
use irred::{
    Distribution, EngineChoice, GatherEngine, PhasedEngine, ReductionEngine, SeqEngine,
    StrategyConfig, Workspace,
};
use kernels::FamilyProblem;
use workloads::{oracle_reduce, FamilySpec, HotKeyScatter, PicDeck, PowerLawGraph};

#[derive(Debug, Clone)]
struct Case {
    procs: usize,
    k: usize,
    dist: Distribution,
    sweeps: usize,
    /// Size scale 0..=2.
    size: usize,
    /// Skew scale 0..=3 (family-specific meaning).
    skew: usize,
    seed: u64,
}

fn gen_case(g: &mut Gen) -> Case {
    Case {
        procs: g.usize_incl(1, 6),
        k: g.usize_incl(1, 3),
        dist: if g.prob(0.5) {
            Distribution::Cyclic
        } else {
            Distribution::Block
        },
        sweeps: g.usize_incl(1, 2),
        size: g.usize_incl(0, 2),
        skew: g.usize_incl(0, 3),
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

/// Run one family deck through every engine × backend and demand exact
/// equality with the golden oracle.
fn assert_family_matches_oracle(family: &FamilySpec, c: &Case) -> Result<(), String> {
    family.validate().map_err(|e| format!("generator: {e}"))?;
    let want = oracle_reduce(family);
    let problem = FamilyProblem::from_family(family.clone());
    let name = &problem.family.name;
    let flat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
    let sim = SimConfig::default();

    let seq = SeqEngine::new(sim)
        .run(&problem.spec, &flat)
        .map_err(|e| format!("seq: {e}"))?;
    prop_assert!(seq.values == want, "{name}: seq != oracle for {c:?}");

    let ie = IeEngine::sim(sim)
        .run(&problem.spec, &flat)
        .map_err(|e| format!("ie: {e}"))?;
    prop_assert!(ie.values == want, "{name}: ie != oracle for {c:?}");

    // Phased: prepare once so the statistics surface is exercised, then
    // check both backends.
    let phased = PhasedEngine::sim(sim);
    let mut prepared = phased
        .prepare(&problem.spec, &flat)
        .map_err(|e| format!("prepare: {e}"))?;
    let stats = prepared.plan_stats();
    let m = problem.family.num_refs();
    prop_assert!(
        stats.total_refs == (problem.family.num_iterations() * m) as u64,
        "{name}: stats.total_refs miscounts for {c:?}"
    );
    prop_assert!(
        stats.portion_refs.iter().sum::<u64>() == stats.total_refs,
        "{name}: portion histogram does not sum to total for {c:?}"
    );
    prop_assert!(
        stats.portion_refs.len() == flat.phases_per_sweep(),
        "{name}: histogram length != k·P for {c:?}"
    );
    prop_assert!(
        stats.distinct_elements <= problem.family.num_elements,
        "{name}: distinct overflow for {c:?}"
    );
    prop_assert!(stats.skew >= 1.0 - 1e-12, "{name}: skew below 1 for {c:?}");
    let mut ws = Workspace::new();
    let ps = phased
        .execute(&mut prepared, &mut ws)
        .map_err(|e| format!("phased sim: {e}"))?;
    prop_assert!(ps.values == want, "{name}: phased sim != oracle for {c:?}");

    let pn = PhasedEngine::native(native_cfg(c.seed))
        .run(&problem.spec, &flat)
        .map_err(|e| format!("phased native: {e}"))?;
    prop_assert!(
        pn.values == want && pn.read == ps.read,
        "{name}: phased native (lossless faults) != oracle / sim for {c:?}"
    );

    // Gather re-expression: every reduction array as y = A·w on the
    // simulator, array 0 additionally on the native backend.
    for (a, want_a) in want.iter().enumerate().take(problem.family.num_arrays()) {
        let gspec = problem.gather_formulation(a);
        let gs = GatherEngine::sim(sim)
            .run(&gspec, &flat)
            .map_err(|e| format!("gather sim array {a}: {e}"))?;
        prop_assert!(
            &gs.values[0] == want_a,
            "{name}: gather sim != oracle, array {a}, {c:?}"
        );
        if a == 0 {
            let gn = GatherEngine::native(native_cfg(c.seed ^ 0x5A))
                .run(&gspec, &flat)
                .map_err(|e| format!("gather native: {e}"))?;
            prop_assert!(
                &gn.values[0] == want_a,
                "{name}: gather native != oracle, array {a}, {c:?}"
            );
        }
    }
    Ok(())
}

#[test]
fn powerlaw_family_matches_oracle() {
    check(
        "powerlaw_family_matches_oracle",
        Config::cases_quick(64),
        gen_case,
        |c| {
            let nodes = 32 + 32 * c.size;
            let edges = nodes * (3 + 2 * c.size);
            let alpha = [0.0, 0.8, 1.5, 2.5][c.skew];
            let g = PowerLawGraph::generate(nodes, edges, alpha, c.seed)
                .map_err(|e| format!("generate: {e}"))?;
            assert_family_matches_oracle(&g.to_family(c.seed), c)
        },
    );
}

#[test]
fn hotkey_family_matches_oracle() {
    check(
        "hotkey_family_matches_oracle",
        Config::cases_quick(64),
        gen_case,
        |c| {
            let keys = 48 + 48 * c.size;
            let rows = 200 + 200 * c.size;
            let hot_frac = [0.0, 0.5, 0.9, 0.99][c.skew];
            let d = HotKeyScatter::generate(keys, rows, 1 + c.skew, hot_frac, 1 + c.size, c.seed)
                .map_err(|e| format!("generate: {e}"))?;
            assert_family_matches_oracle(&d.to_family(c.seed), c)
        },
    );
}

#[test]
fn pic_family_matches_oracle_at_every_step() {
    check(
        "pic_family_matches_oracle",
        Config::cases_quick(64),
        gen_case,
        |c| {
            let cells = 24 + 24 * c.size;
            let particles = 150 + 150 * c.size;
            let churn = [0.0, 0.1, 0.4, 0.8][c.skew];
            let d = PicDeck::generate(cells, particles, 2, churn, c.seed)
                .map_err(|e| format!("generate: {e}"))?;
            // Step 0 through the full engine matrix; later steps are
            // covered by the churn test below at full depth.
            assert_family_matches_oracle(&d.initial(), c)
        },
    );
}

/// The particle-in-cell churn path: feeding each step's re-targeted
/// deposits through `apply_updates` — on the simulator, and on the
/// native backend under a lossless fault plan — must give bit-identical
/// values to a freshly prepared plan of the post-churn family, and all
/// must match the oracle.
#[test]
fn pic_churn_through_apply_updates_matches_fresh_prepare() {
    check(
        "pic_churn_matches_fresh_prepare",
        Config::cases_quick(32),
        gen_case,
        |c| {
            let cells = 24 + 24 * c.size;
            let particles = 150 + 150 * c.size;
            let churn = [0.05, 0.1, 0.4, 0.8][c.skew];
            let d = PicDeck::generate(cells, particles, 3, churn, c.seed)
                .map_err(|e| format!("generate: {e}"))?;
            let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
            let engine = PhasedEngine::sim(SimConfig::default());
            let native = PhasedEngine::native(native_cfg(c.seed));
            let problem = FamilyProblem::from_family(d.initial());
            let prepare = |e: &PhasedEngine| {
                e.prepare(&problem.spec, &strat)
                    .map_err(|e| format!("prepare: {e}"))
            };
            let (mut prepared, mut prepared_n) = (prepare(&engine)?, prepare(&native)?);
            let mut ws = Workspace::new();
            for step in 0..d.steps {
                let out = engine
                    .execute(&mut prepared, &mut ws)
                    .map_err(|e| format!("execute step {step}: {e}"))?;
                let fam = d.family_at(step);
                let want = oracle_reduce(&fam);
                prop_assert!(
                    out.values == want,
                    "incremental != oracle at step {step} for {c:?}"
                );
                let fresh = engine
                    .run(&FamilyProblem::from_family(fam).spec, &strat)
                    .map_err(|e| format!("fresh run step {step}: {e}"))?;
                prop_assert!(
                    out.values == fresh.values,
                    "incremental != fresh prepare at step {step} for {c:?}"
                );
                prop_assert!(
                    out.time_cycles == fresh.time_cycles,
                    "incremental cycles {} != fresh prepare's {} at step {step} for {c:?}",
                    out.time_cycles,
                    fresh.time_cycles
                );
                let out_n = native
                    .execute(&mut prepared_n, &mut ws)
                    .map_err(|e| format!("native execute step {step}: {e}"))?;
                prop_assert!(
                    out_n.values == want,
                    "native incremental (lossless faults) != oracle at step {step} for {c:?}"
                );
                let updates = d.step_updates(step);
                for p in [&mut prepared, &mut prepared_n] {
                    p.apply_updates(&updates)
                        .map_err(|e| format!("apply_updates step {step}: {e}"))?;
                }
            }
            Ok(())
        },
    );
}

/// One deck of the skew sweep on the simulator at P = 8, k = 2: what
/// `auto_select` picks from the phased plan's statistics, and which
/// engine is faster per **adaptation** — re-preparation plus one sweep,
/// the regime these families model. Phased re-preparation is a modeled
/// LightInspector linear pass; IE re-preparation is its communicating
/// inspector plus re-partitioning (§5.4.3).
fn auto_and_empirical(family: FamilySpec) -> (EngineChoice, EngineChoice) {
    const PROCS: usize = 8;
    let strat = StrategyConfig::new(PROCS, 2, Distribution::Cyclic, 1);
    let sim = SimConfig::default();
    let partitioning =
        InspectorExecutor::partitioning_cycles(family.num_elements, family.num_iterations(), &sim);
    let problem = FamilyProblem::from_family(family);

    let engine = PhasedEngine::sim(sim);
    let mut prepared = engine.prepare(&problem.spec, &strat).unwrap();
    let stats = prepared.plan_stats();
    let phased = engine
        .execute(&mut prepared, &mut Workspace::new())
        .unwrap();
    let phased_total = phased.time_cycles
        + (stats.total_refs as f64 / PROCS as f64 * StrategyConfig::PREP_REF_CYCLES) as u64;

    let ie_engine = IeEngine::sim(sim);
    let mut ie_prepared = ie_engine.prepare(&problem.spec, &strat).unwrap();
    let ie = ie_engine
        .execute(&mut ie_prepared, &mut Workspace::new())
        .unwrap();
    let ie_total = ie.time_cycles + ie_prepared.inspector_cycles() + partitioning;
    assert_eq!(phased.values, ie.values, "engines disagree bit-for-bit");

    let empirical = if ie_total < phased_total {
        EngineChoice::InspectorExecutor
    } else {
        EngineChoice::RotatingPortions
    };
    (strat.auto_select(&stats), empirical)
}

/// The skew endpoints of the generated sweep: a flat deck must keep the
/// rotating-portions strategy, an extreme hot-key deck must switch to
/// the inspector/executor — driven purely by the recorded statistics —
/// and at the four endpoints of the power-law and hot-key sweeps the
/// pick must be the engine the simulator measures as faster.
#[test]
fn auto_select_picks_by_skew_endpoint() {
    let strat = StrategyConfig::new(8, 2, Distribution::Cyclic, 1);

    let flat = HotKeyScatter::generate(512, 8_000, 1, 0.0, 1, 42)
        .unwrap()
        .to_family(42);
    let flat_stats = FamilyProblem::from_family(flat.clone());
    let prepared = PhasedEngine::sim(SimConfig::default())
        .prepare(&flat_stats.spec, &strat)
        .unwrap();
    let s = prepared.plan_stats();
    assert!(s.skew < 2.0, "flat deck skew {}", s.skew);
    assert_eq!(strat.auto_select(&s), EngineChoice::RotatingPortions);

    let hot = HotKeyScatter::generate(512, 8_000, 1, 0.995, 1, 42)
        .unwrap()
        .to_family(42);
    let hot_stats = FamilyProblem::from_family(hot.clone());
    let prepared = PhasedEngine::sim(SimConfig::default())
        .prepare(&hot_stats.spec, &strat)
        .unwrap();
    let s = prepared.plan_stats();
    assert!(s.skew > 8.0, "hot deck skew {}", s.skew);
    assert_eq!(strat.auto_select(&s), EngineChoice::InspectorExecutor);

    let powerlaw = |alpha| {
        PowerLawGraph::generate(4_096, 4_096 * 8, alpha, 1)
            .unwrap()
            .to_family(1)
    };
    let hotkey = |frac| {
        HotKeyScatter::generate(4_096, 32_768, 1, frac, 1, 2)
            .unwrap()
            .to_family(2)
    };
    let endpoints = [
        ("powerlaw alpha=0", powerlaw(0.0)),
        ("powerlaw alpha=2.5", powerlaw(2.5)),
        ("hotkey frac=0", hotkey(0.0)),
        ("hotkey frac=0.99", hotkey(0.99)),
    ];
    for (name, family) in endpoints {
        let (auto, empirical) = auto_and_empirical(family);
        assert_eq!(
            auto, empirical,
            "{name}: auto_select picked {auto:?} but {empirical:?} was faster"
        );
    }
}
