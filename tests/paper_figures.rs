//! Golden paper-figure test: a reduced point set of figures 4–7 and the
//! §5.4.3 comparison, run on the simulator at [`SWEEPS`] time steps.
//!
//! The simulator is deterministic, so every point's `time_cycles` is
//! pinned exactly. Each test also asserts the qualitative claims
//! EXPERIMENTS.md makes about its figure; those orderings are the same
//! at 5 and at the figures' 100 sweeps. A change that moves sim cycles
//! must re-baseline the constants here (a failure prints the measured
//! table, ready to paste) and say in EXPERIMENTS.md why they moved and
//! whether a claim did. `figs <name>` (`crates/bench`) produces the full
//! figures.

use std::sync::Arc;

use earth_model::sim::SimConfig;
use irred::baseline::{IeEngine, InspectorExecutor};
use irred::{
    seq_reduction, EdgeKernel, PhasedEngine, PhasedSpec, ReductionEngine, StrategyConfig, Workspace,
};
use kernels::{EulerProblem, MolDynProblem, MvmProblem};
use workloads::{rcb_partition, CgClass, Distribution, MeshPreset, MolDynPreset};

const SWEEPS: usize = 5;

/// The four strategies of §5.4.1: `(label, k, distribution)`.
const STRATEGIES: [(&str, usize, Distribution); 4] = [
    ("1c", 1, Distribution::Cyclic),
    ("2c", 2, Distribution::Cyclic),
    ("4c", 4, Distribution::Cyclic),
    ("2b", 2, Distribution::Block),
];

/// Measured cycles of one dataset, keyed `"<strategy>@<procs>"` (plus
/// `"seq"`), in measurement order.
struct Points(Vec<(String, u64)>);

impl Points {
    fn phased<K: EdgeKernel>(spec: &PhasedSpec<K>, strategies: &[&str], procs: &[usize]) -> Points {
        let mut out = Vec::new();
        for &(name, k, dist) in STRATEGIES.iter().filter(|s| strategies.contains(&s.0)) {
            for &p in procs {
                let strat = StrategyConfig::new(p, k, dist, SWEEPS);
                let r = PhasedEngine::sim(SimConfig::default())
                    .run(spec, &strat)
                    .expect("sim run");
                out.push((format!("{name}@{p}"), r.time_cycles));
            }
        }
        Points(out)
    }

    fn get(&self, key: &str) -> u64 {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no point {key}"))
            .1
    }

    /// The paper's headline metric: `t(2 procs) / t(32 procs)`.
    fn relative(&self, strategy: &str) -> f64 {
        self.get(&format!("{strategy}@2")) as f64 / self.get(&format!("{strategy}@32")) as f64
    }

    /// Every point must equal its pinned constant.
    fn assert_pinned(&self, dataset: &str, pinned: &[(&str, u64)]) {
        let got: Vec<(&str, u64)> = self.0.iter().map(|(k, c)| (k.as_str(), *c)).collect();
        if got != pinned {
            let table: String = got
                .iter()
                .map(|(k, c)| format!("    (\"{k}\", {c}),\n"))
                .collect();
            panic!(
                "{dataset}: simulated cycles moved. If the change is intended, \
                 re-baseline with\n{table}and explain the move in EXPERIMENTS.md"
            );
        }
    }
}

/// Figure 6 (euler): 2c and 4c beat 1c and 2b in relative 2→32 speedup,
/// and cyclic beats block by ≥ 30 % at P = 32 and also at P = 2.
#[test]
fn figure_6_euler_cycles_and_orderings() {
    let e2 = EulerProblem::preset(MeshPreset::Euler2K, 1);
    let e2 = Points::phased(&e2.spec, &["1c", "2c", "4c", "2b"], &[2, 32]);
    e2.assert_pinned(
        "euler-2K",
        &[
            ("1c@2", 10_166_039),
            ("1c@32", 1_541_833),
            ("2c@2", 10_234_451),
            ("2c@32", 1_057_025),
            ("4c@2", 10_918_762),
            ("4c@32", 1_123_119),
            ("2b@2", 11_172_538),
            ("2b@32", 1_496_235),
        ],
    );
    let e10 = EulerProblem::preset(MeshPreset::Euler10K, 1);
    let e10 = Points::phased(&e10.spec, &["2c", "2b"], &[2, 32]);
    e10.assert_pinned(
        "euler-10K",
        &[
            ("2c@2", 36_093_031),
            ("2c@32", 3_272_032),
            ("2b@2", 40_284_365),
            ("2b@32", 4_920_242),
        ],
    );

    for fast in ["2c", "4c"] {
        for slow in ["1c", "2b"] {
            assert!(
                e2.relative(fast) > e2.relative(slow),
                "euler-2K: {fast} rel {:.2} must beat {slow} rel {:.2}",
                e2.relative(fast),
                e2.relative(slow)
            );
        }
    }
    assert!(e10.relative("2c") > e10.relative("2b"));
    for (name, pts) in [("euler-2K", &e2), ("euler-10K", &e10)] {
        let gap =
            |p: usize| pts.get(&format!("2b@{p}")) as f64 / pts.get(&format!("2c@{p}")) as f64;
        assert!(
            gap(32) >= 1.30,
            "{name}: cyclic must beat block by ≥ 30 % at P=32, got {:.3}",
            gap(32)
        );
        assert!(
            gap(2) > 1.0,
            "{name}: cyclic must beat block at P=2, got {:.3}",
            gap(2)
        );
    }
}

/// Figure 7 (moldyn): on the 2K dataset 2c and 4c beat 1c and 2b in
/// relative speedup and 1c is the fastest 2-processor variant; on the
/// 10K dataset 2c and 4c slow down at P = 2 and 1c does not.
#[test]
fn figure_7_moldyn_cycles_and_orderings() {
    let m2 = MolDynProblem::preset(MolDynPreset::MolDyn2K);
    let m2 = Points::phased(&m2.spec, &["1c", "2c", "4c", "2b"], &[2, 32]);
    m2.assert_pinned(
        "moldyn-2K",
        &[
            ("1c@2", 14_048_370),
            ("1c@32", 2_212_342),
            ("2c@2", 14_349_534),
            ("2c@32", 1_741_664),
            ("4c@2", 15_526_026),
            ("4c@32", 1_846_553),
            ("2b@2", 14_154_244),
            ("2b@32", 2_082_633),
        ],
    );
    let problem = MolDynProblem::preset(MolDynPreset::MolDyn10K);
    let mut m10 = Points::phased(&problem.spec, &["1c", "2c", "4c"], &[2]);
    let seq = seq_reduction(&problem.spec, SWEEPS, SimConfig::default()).cycles;
    m10.0.push(("seq".into(), seq));
    m10.assert_pinned(
        "moldyn-10K",
        &[
            ("1c@2", 48_057_008),
            ("2c@2", 53_528_597),
            ("4c@2", 57_017_410),
            ("seq", 49_416_850),
        ],
    );

    for fast in ["2c", "4c"] {
        for slow in ["1c", "2b"] {
            assert!(
                m2.relative(fast) > m2.relative(slow),
                "moldyn-2K: {fast} rel {:.2} must beat {slow} rel {:.2}",
                m2.relative(fast),
                m2.relative(slow)
            );
        }
    }
    for other in ["2c", "4c", "2b"] {
        assert!(
            m2.get("1c@2") < m2.get(&format!("{other}@2")),
            "moldyn-2K: 1c must be the fastest 2-processor variant (vs {other})"
        );
    }
    assert!(
        m10.get("2c@2") > seq,
        "moldyn-10K: 2c must slow down at P=2"
    );
    assert!(
        m10.get("4c@2") > seq,
        "moldyn-10K: 4c must slow down at P=2"
    );
    assert!(
        m10.get("1c@2") <= seq,
        "moldyn-10K: 1c must not slow down at P=2"
    );
}

/// Figure 4 (mvm class W): k = 2 is the fastest variant at P = 32.
#[test]
fn figure_4_mvm_cycles_and_k_ordering() {
    let problem = MvmProblem::nas_class(CgClass::W, 1);
    let pts = Points(
        [1, 2, 4]
            .into_iter()
            .map(|k| {
                let strat = StrategyConfig::new(32, k, Distribution::Block, SWEEPS);
                let r = problem.run_sim(&strat, SimConfig::default());
                (format!("k{k}@32"), r.time_cycles)
            })
            .collect(),
    );
    pts.assert_pinned(
        "mvm-W",
        &[
            ("k1@32", 2_643_402),
            ("k2@32", 2_596_110),
            ("k4@32", 2_682_690),
        ],
    );
    assert!(
        pts.get("k2@32") < pts.get("k1@32"),
        "k2 must beat k1 at P=32"
    );
    assert!(
        pts.get("k2@32") < pts.get("k4@32"),
        "k2 must beat k4 at P=32"
    );
}

/// §5.4.3 (euler-2K, P = 8, frozen state): the classic inspector/executor
/// pays a communicating inspector plus re-partitioning per (re)build, far
/// above one LightInspector pass, while its executor alone is faster than
/// the phased one on this EARTH-class network.
#[test]
fn section_5_4_3_ie_vs_phased_preprocessing() {
    let procs = 8;
    let cfg = SimConfig::default();
    let problem = EulerProblem::preset(MeshPreset::Euler2K, 1);
    let spec = problem.frozen_spec();

    let phased = PhasedEngine::sim(cfg)
        .run(
            &spec,
            &StrategyConfig::new(procs, 2, Distribution::Cyclic, SWEEPS),
        )
        .expect("phased run");
    let owners = rcb_partition(&problem.mesh.coords, procs);
    let owners = Arc::new(owners.iter().map(|&o| o % procs as u32).collect());
    let ie_engine = IeEngine::with_owners(cfg, owners);
    let ie_strat = StrategyConfig::new(procs, 1, Distribution::Block, SWEEPS);
    let mut prepared = ie_engine.prepare(&spec, &ie_strat).expect("IE prepare");
    let ie = ie_engine
        .execute(&mut prepared, &mut Workspace::new())
        .expect("IE run");
    let partitioning =
        InspectorExecutor::partitioning_cycles(spec.num_elements, spec.num_iterations(), &cfg);

    let pts = Points(vec![
        ("phased-2c".into(), phased.time_cycles),
        ("ie-rcb".into(), ie.time_cycles),
        ("ie-inspector".into(), prepared.inspector_cycles()),
        ("ie-partitioning".into(), partitioning),
    ]);
    pts.assert_pinned(
        "euler-2K P=8",
        &[
            ("phased-2c", 3_082_460),
            ("ie-rcb", 1_249_766),
            ("ie-inspector", 75_812),
            ("ie-partitioning", 914_294),
        ],
    );

    let ie_prep = prepared.inspector_cycles() + partitioning;
    let local_refs = (spec.num_iterations() * spec.kernel.num_refs() / procs) as f64;
    let light_prep = StrategyConfig::PREP_REF_CYCLES * local_refs;
    assert!(
        ie_prep as f64 > 10.0 * light_prep,
        "IE re-preparation ({ie_prep} cycles) must dwarf a LightInspector pass ({light_prep})"
    );
    assert!(
        ie.time_cycles < phased.time_cycles,
        "the IE executor alone outruns the phased one on this network"
    );
}
