//! # figs — the reproduction harness
//!
//! One table entry per figure of the paper's evaluation section, plus
//! the extensions EXPERIMENTS.md reports:
//!
//! | name | reproduces |
//! |---|---|
//! | `fig4` | `mvm` on classes W and A (exec time & speedups, k ∈ {1,2,4}) |
//! | `fig5` | `mvm` on class B (relative speedups vs best 4-proc version) |
//! | `fig6` | `euler` on both meshes, strategies 1c/2c/4c/2b |
//! | `fig7` | `moldyn` on both datasets, strategies 1c/2c/4c/2b |
//! | `baseline_compare` | the §5.4.3 discussion: phased vs classic inspector/executor |
//! | `adaptive` | the paper's future work: LightInspector re-runs under churn |
//! | `ablation` | k sweep, numbering-locality sensitivity, native backend |
//!
//! Usage: `figs <name|all> [--trace]`. Each figure prints a table with
//! the paper's corresponding numbers alongside and writes a CSV under
//! `./bench_results/` (cwd-relative). `tests/paper_figures.rs` pins a
//! reduced point set of the same runs.
//!
//! Environment knobs: `REPRO_SWEEPS` overrides the sweep count
//! (default: 100 time steps for euler/moldyn, 50 products for mvm);
//! `REPRO_QUICK=1` shrinks everything for smoke-testing. `--trace`
//! re-runs one representative configuration with the ring sink on,
//! prints the per-phase timeline table, and writes a Chrome
//! `trace_event` JSON under `bench_results/`.

use std::fmt::Write as _;
use std::sync::Arc;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use irred::baseline::{
    atomic_reduction, replicated_reduction, serial_reduction, IeEngine, InspectorExecutor,
};
use irred::kernel::WeightedPairKernel;
use irred::{
    seq_reduction, EdgeKernel, ExecutionConfig, PhasedEngine, PhasedSpec, ReductionEngine,
    RunOutcome, StrategyConfig, Tuning, Workspace,
};
use kernels::{EulerProblem, FamilyProblem, MolDynProblem, MvmProblem};
use lightinspector::{diff_pairs, inspect, IncrementalInspector, InspectorInput, PhaseGeometry};
use trace::{TraceEvent, TraceKind};
use workloads::{
    distribute, hash_distribute_pairs, rcb_partition, CgClass, Distribution, Mesh, MeshPreset,
    MolDyn, MolDynPreset, PicDeck,
};

/// A figure's selector name and the function that produces it; the
/// argument says whether `--trace` was passed.
type Figure = (&'static str, fn(bool));

const FIGS: &[Figure] = &[
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("baseline_compare", baseline_compare),
    ("adaptive", adaptive),
    ("ablation", ablation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--trace")
        .collect();
    let selected: Vec<_> = match names[..] {
        ["all"] => FIGS.iter().collect(),
        [name] => FIGS.iter().filter(|(n, _)| *n == name).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        let known: Vec<&str> = FIGS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: figs <{}|all> [--trace]", known.join("|"));
        std::process::exit(2);
    }
    for (_, run) in selected {
        run(trace);
    }
}

// ---------------------------------------------------------------------
// Shared configuration and reporting.
// ---------------------------------------------------------------------

/// Sweep count for the LHS kernels (euler/moldyn), honoring the env knobs.
fn lhs_sweeps() -> usize {
    sweeps_or(100)
}

/// Sweep count for mvm.
fn mvm_sweeps() -> usize {
    sweeps_or(50)
}

fn sweeps_or(default: usize) -> usize {
    if let Some(v) = std::env::var("REPRO_SWEEPS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        return v;
    }
    if quick() {
        default / 10
    } else {
        default
    }
}

/// Whether `REPRO_QUICK` smoke mode is on.
fn quick() -> bool {
    std::env::var("REPRO_QUICK").is_ok_and(|v| v == "1")
}

/// Processor counts used by the paper for the LHS kernels.
fn lhs_procs() -> Vec<usize> {
    if quick() {
        vec![2, 8, 32]
    } else {
        vec![2, 4, 8, 16, 32]
    }
}

/// The four strategies of §5.4.1, in the paper's order.
const PAPER_STRATEGIES: [(usize, Distribution, &str); 4] = [
    (1, Distribution::Cyclic, "1c"),
    (2, Distribution::Cyclic, "2c"),
    (4, Distribution::Cyclic, "4c"),
    (2, Distribution::Block, "2b"),
];

/// Dump a traced run: print the per-phase timeline table and the metrics
/// registry, and write `bench_results/<slug>_trace.json` as Chrome
/// `trace_event` JSON (open in `chrome://tracing` or Perfetto).
fn dump_trace(slug: &str, out: &RunOutcome) {
    dump_trace_events(slug, &out.trace);
    print!("{}", out.metrics().render());
}

/// The event-stream half of [`dump_trace`]. The JSON is re-validated
/// through the hand validator before it is written — a malformed export
/// fails the run rather than producing a file Perfetto rejects.
fn dump_trace_events(slug: &str, events: &[TraceEvent]) {
    let json = trace::chrome_trace_json(events);
    let n = trace::validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("generated Chrome trace is invalid: {e}"));
    std::fs::create_dir_all("bench_results").expect("mkdir bench_results");
    let path = format!("bench_results/{slug}_trace.json");
    std::fs::write(&path, &json).expect("write trace");
    println!("--- phase timeline ({slug}) ---");
    print!("{}", trace::Timeline::from_events(events).table());
    println!("chrome trace: {path} ({n} events)");
}

/// Re-run one phased configuration (2c, two sweeps) with the ring sink
/// on and dump it.
fn trace_phased<K: EdgeKernel>(slug: &str, spec: &PhasedSpec<K>, procs: usize) {
    let traced = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()).traced())
        .run(
            spec,
            &StrategyConfig::new(procs, 2, Distribution::Cyclic, 2),
        )
        .expect("traced sim run");
    dump_trace(slug, &traced);
}

/// One measured configuration.
struct Row {
    dataset: String,
    strategy: String,
    procs: usize,
    seconds: f64,
    /// Absolute speedup vs the metered sequential run.
    speedup: f64,
}

/// Collects rows, prints the table, and writes the CSV.
struct Report {
    title: String,
    rows: Vec<Row>,
    notes: Vec<String>,
}

impl Report {
    fn new(title: &str) -> Self {
        println!("=== {title} ===");
        Report {
            title: title.to_string(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn push(&mut self, dataset: &str, strategy: &str, procs: usize, seconds: f64, speedup: f64) {
        println!(
            "  {dataset:<22} {strategy:<4} P={procs:<3} {seconds:>9.3}s  speedup {speedup:>6.2}"
        );
        self.rows.push(Row {
            dataset: dataset.to_string(),
            strategy: strategy.to_string(),
            procs,
            seconds,
            speedup,
        });
    }

    fn seq(&mut self, dataset: &str, seconds: f64, paper_seconds: f64) {
        println!("  {dataset:<22} sequential {seconds:>9.3}s   (paper: {paper_seconds}s)");
        self.rows.push(Row {
            dataset: dataset.to_string(),
            strategy: "seq".to_string(),
            procs: 1,
            seconds,
            speedup: 1.0,
        });
    }

    /// A free-form comparison line, echoed and kept in the CSV as a comment.
    fn note(&mut self, text: String) {
        println!("  {text}");
        self.notes.push(text);
    }

    /// Seconds of one recorded configuration.
    fn seconds_of(&self, dataset: &str, strategy: &str, procs: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.dataset == dataset && r.strategy == strategy && r.procs == procs)
            .map(|r| r.seconds)
    }

    /// Relative speedup between two of this report's configurations.
    fn relative(&self, dataset: &str, strategy: &str, from: usize, to: usize) -> Option<f64> {
        Some(self.seconds_of(dataset, strategy, from)? / self.seconds_of(dataset, strategy, to)?)
    }

    /// Write `bench_results/<slug>.csv`.
    fn save(&self) {
        let slug: String = self
            .title
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let mut out = String::from("dataset,strategy,procs,seconds,speedup\n");
        for r in &self.rows {
            writeln!(
                out,
                "{},{},{},{:.6},{:.4}",
                r.dataset, r.strategy, r.procs, r.seconds, r.speedup
            )
            .unwrap();
        }
        for n in &self.notes {
            writeln!(out, "# {n}").unwrap();
        }
        std::fs::create_dir_all("bench_results").expect("mkdir bench_results");
        std::fs::write(format!("bench_results/{slug}.csv"), out).expect("write csv");
    }
}

// ---------------------------------------------------------------------
// Figures 4 and 5: mvm (GatherEngine), k ∈ {1, 2, 4}.
// ---------------------------------------------------------------------

/// Figure 4: parallel performance of `mvm` on NAS CG classes W and A.
///
/// The paper plots execution time for k ∈ {1, 2, 4} over 1–32 processors
/// (64 for class A) against the sequential time on one i860XP. Expected
/// shape: near-linear absolute speedups; k = 2 best, k = 4 a close
/// second, k = 1 measurably worse at scale (7.9–15.3%).
fn fig4(trace: bool) {
    let cfg = SimConfig::default();
    let sweeps = mvm_sweeps();
    let mut rep = Report::new("Figure 4: mvm class W and class A");

    let classes: &[(CgClass, f64, &[usize])] = &[
        (CgClass::W, 41.38, &[2, 4, 8, 16, 32]),
        (CgClass::A, 154.55, &[2, 4, 8, 16, 32, 64]),
    ];
    for &(class, paper_seq, procs) in classes {
        let label = format!("mvm-{}", class.label());
        let problem = MvmProblem::nas_class(class, 1);
        let (_, seq_cycles) = problem.sequential(sweeps, cfg);
        let seq_s = cfg.seconds(seq_cycles);
        rep.seq(&label, seq_s, paper_seq);

        let plist: &[usize] = if quick() { &[2, 32] } else { procs };
        for k in [1, 2, 4] {
            for &p in plist {
                let strat = StrategyConfig::new(p, k, Distribution::Block, sweeps);
                let r = problem.run_sim(&strat, cfg);
                rep.push(&label, &format!("k{k}"), p, r.seconds, seq_s / r.seconds);
            }
        }
        // Paper's headline comparisons at the largest configuration.
        let p = *plist.last().unwrap();
        if let (Some(t1), Some(t2), Some(t4)) = (
            rep.seconds_of(&label, "k1", p),
            rep.seconds_of(&label, "k2", p),
            rep.seconds_of(&label, "k4", p),
        ) {
            rep.note(format!(
                "{label}: at P={p}, k2 beats k1 by {:+.1}% and k4 by {:+.1}% \
                 (paper: W@32 13.99%/≤4.84%, A@64 15.31%/≤3.48%)",
                (t1 / t2 - 1.0) * 100.0,
                (t4 / t2 - 1.0) * 100.0
            ));
        }
    }
    rep.save();

    if trace {
        let problem = MvmProblem::nas_class(CgClass::W, 1);
        let strat = StrategyConfig::new(8, 2, Distribution::Block, sweeps.min(2));
        dump_trace(
            "fig4",
            &problem.run_sim(&strat, ExecutionConfig::sim(cfg).traced()),
        );
    }
}

/// Figure 5: `mvm` on NAS CG class B.
///
/// Class B (75 000 rows, 13.7 M nonzeros) was too large for the paper's
/// 1- and 2-node configurations, so it reports **relative speedups
/// against the best 4-processor version (k = 2)** over 4–64 processors.
fn fig5(trace: bool) {
    let cfg = SimConfig::default();
    let sweeps = if quick() { 3 } else { mvm_sweeps().min(20) };
    let mut rep = Report::new("Figure 5: mvm class B");
    let label = "mvm-B";

    let problem = MvmProblem::nas_class(CgClass::B, 1);
    let procs: &[usize] = if quick() {
        &[4, 16, 64]
    } else {
        &[4, 8, 16, 32, 64]
    };

    // Baseline: the best 4-processor version (k = 2), as in the paper.
    let base = problem
        .run_sim(&StrategyConfig::new(4, 2, Distribution::Block, sweeps), cfg)
        .seconds;
    rep.note(format!(
        "baseline: k2 @ 4 procs = {base:.3}s (relative speedup 4.0 by definition)"
    ));

    for k in [1, 2, 4] {
        for &p in procs {
            let strat = StrategyConfig::new(p, k, Distribution::Block, sweeps);
            let r = problem.run_sim(&strat, cfg);
            // Relative speedup normalized so the 4-proc baseline = 4.
            rep.push(
                label,
                &format!("k{k}"),
                p,
                r.seconds,
                4.0 * base / r.seconds,
            );
        }
    }

    if let (Some(t1), Some(t2), Some(t4)) = (
        rep.seconds_of(label, "k1", 64),
        rep.seconds_of(label, "k2", 64),
        rep.seconds_of(label, "k4", 64),
    ) {
        rep.note(format!(
            "at P=64: k2 beats k1 by {:+.1}%, k4 by {:+.1}% (paper's class-B plot shows the same ordering as class A)",
            (t1 / t2 - 1.0) * 100.0,
            (t4 / t2 - 1.0) * 100.0
        ));
    }
    rep.save();

    if trace {
        // The baseline configuration with the ring sink on.
        let strat = StrategyConfig::new(4, 2, Distribution::Block, sweeps.min(2));
        dump_trace(
            "fig5",
            &problem.run_sim(&strat, ExecutionConfig::sim(cfg).traced()),
        );
    }
}

// ---------------------------------------------------------------------
// Figures 6 and 7: the LHS kernels under the four §5.4.1 strategies.
// ---------------------------------------------------------------------

/// One dataset of figure 6 or 7: the metered sequential run, then every
/// paper strategy at every LHS processor count, with the relative 2→32
/// speedup noted against the paper's.
fn lhs_dataset<K: EdgeKernel>(
    rep: &mut Report,
    label: &str,
    spec: &PhasedSpec<K>,
    paper_seq: f64,
    paper_rel: [f64; 4],
) {
    let cfg = SimConfig::default();
    let sweeps = lhs_sweeps();
    let seq = seq_reduction(spec, sweeps, cfg);
    rep.seq(label, seq.seconds, paper_seq);
    for ((k, dist, name), paper) in PAPER_STRATEGIES.into_iter().zip(paper_rel) {
        for p in lhs_procs() {
            let strat = StrategyConfig::new(p, k, dist, sweeps);
            let r = PhasedEngine::sim(cfg).run(spec, &strat).expect("sim run");
            rep.push(label, name, p, r.seconds, seq.seconds / r.seconds);
        }
        if let Some(rel) = rep.relative(label, name, 2, 32) {
            rep.note(format!(
                "{label} {name}: relative speedup 2→32 = {rel:.2} (paper {paper:.2})"
            ));
        }
    }
}

/// Figure 6: `euler` on the 2.8K-node and 9.4K-node meshes.
///
/// Strategies 1c / 2c / 4c / 2b over 2–32 processors, 100 time steps,
/// inspector executed once (outside the timed loop, as in §5.4.1).
///
/// Paper's shape: low 2-processor absolute speedups (1.10–1.24); 2c the
/// best at scale with relative 2→32 speedups of 9.28 (2K) and 10.36
/// (10K); 2c beats 1c by 15–30%; block (2b) competitive at P ≤ 4 but
/// 16–33% behind cyclic at P ≥ 8 from per-phase load imbalance.
fn fig6(trace: bool) {
    let mut rep = Report::new("Figure 6: euler 2K and 10K meshes");
    let datasets = [
        (MeshPreset::Euler2K, 7.84, [7.12, 9.28, 8.49, 6.78]),
        (MeshPreset::Euler10K, 29.07, [7.62, 10.36, 9.95, 6.94]),
    ];
    for (preset, paper_seq, paper_rel) in datasets {
        let label = preset.label();
        let problem = EulerProblem::preset(preset, 1);
        lhs_dataset(&mut rep, label, &problem.spec, paper_seq, paper_rel);
        // Block-vs-cyclic gap at scale (paper: 33% at 32 procs on 2K).
        if let (Some(c), Some(b)) = (
            rep.seconds_of(label, "2c", 32),
            rep.seconds_of(label, "2b", 32),
        ) {
            rep.note(format!(
                "{label}: cyclic beats block at P=32 by {:+.1}% (paper: 33% on the 2K mesh)",
                (b / c - 1.0) * 100.0
            ));
        }
    }
    rep.save();

    if trace {
        trace_phased(
            "fig6",
            &EulerProblem::preset(MeshPreset::Euler2K, 1).spec,
            8,
        );
    }
}

/// Figure 7: `moldyn` on the 2 916- and 10 976-molecule datasets.
///
/// Strategies 1c / 2c / 4c / 2b over 2–32 processors, 100 time steps.
///
/// Paper's shape: on the 2K dataset, 2-processor speedups of 1.11–1.30
/// with 1c best at P = 2 (fewer phases → less copying) and 2c best at
/// scale (relative 2→32 = 9.70); on the 10K dataset, 2-processor
/// *slowdowns* (0.56–0.82 — locality loss) but good relative speedups
/// (2c: 10.76), with 4c occasionally edging 2c thanks to load-imbalance
/// tolerance.
fn fig7(trace: bool) {
    let mut rep = Report::new("Figure 7: moldyn 2K and 10K datasets");
    let datasets = [
        (MolDynPreset::MolDyn2K, 10.80, [7.50, 9.70, 8.70, 6.50]),
        (MolDynPreset::MolDyn10K, 28.98, [8.42, 10.76, 10.51, 9.15]),
    ];
    for (preset, paper_seq, paper_rel) in datasets {
        let problem = MolDynProblem::preset(preset);
        lhs_dataset(
            &mut rep,
            preset.label(),
            &problem.spec,
            paper_seq,
            paper_rel,
        );
    }
    rep.save();

    if trace {
        trace_phased(
            "fig7",
            &MolDynProblem::preset(MolDynPreset::MolDyn2K).spec,
            8,
        );
    }
}

// ---------------------------------------------------------------------
// §5.4.3 and the extensions.
// ---------------------------------------------------------------------

/// §5.4.3's discussion, made concrete: the phased strategy vs the
/// classic partitioning-based inspector/executor, on the same simulated
/// machine and the same euler meshes (frozen state, see
/// [`kernels::FrozenEulerKernel`]).
///
/// The paper compares against Agrawal & Saltz's Intel Paragon results:
/// with partitioning and communication optimization, euler's 2K mesh got
/// "almost no speedups" and the 10K mesh a relative 2→32 speedup of ~8.
/// Here both families run on identical hardware assumptions, plus we
/// report the preprocessing costs each scheme pays (the phased
/// strategy's headline advantage for adaptive problems).
fn baseline_compare(trace: bool) {
    let cfg = SimConfig::default();
    let sweeps = lhs_sweeps();
    let mut rep = Report::new("Baseline comparison: phased vs inspector-executor (euler)");

    for preset in [MeshPreset::Euler2K, MeshPreset::Euler10K] {
        let problem = EulerProblem::preset(preset, 1);
        let spec = problem.frozen_spec();
        let label = preset.label();
        let seq = seq_reduction(&spec, sweeps, cfg);
        rep.seq(label, seq.seconds, f64::NAN);

        for p in [2, 8, 32] {
            let strat = StrategyConfig::new(p, 2, Distribution::Cyclic, sweeps);
            let r = PhasedEngine::sim(cfg).run(&spec, &strat).expect("sim run");
            rep.push(label, "phased-2c", p, r.seconds, seq.seconds / r.seconds);

            // Inspector/executor with RCB ownership.
            let owners = rcb_partition(&problem.mesh.coords, p.next_power_of_two());
            let owners: Arc<Vec<u32>> = Arc::new(owners.iter().map(|&o| o % p as u32).collect());
            let ie_strat = StrategyConfig::new(p, 1, Distribution::Block, sweeps);
            let ie_engine = IeEngine::with_owners(cfg, Arc::clone(&owners));
            let mut prepared = ie_engine.prepare(&spec, &ie_strat).expect("valid IE spec");
            let ie = ie_engine
                .execute(&mut prepared, &mut Workspace::new())
                .expect("IE run");
            if trace && p == 8 && matches!(preset, MeshPreset::Euler2K) {
                // Both schemes' event streams at the same scale: the
                // phased ring rotation vs the IE scatter/fold pattern.
                trace_phased("baseline_compare_phased", &spec, p);
                let ie_out = IeEngine::with_owners(ExecutionConfig::sim(cfg).traced(), owners)
                    .run(&spec, &ie_strat)
                    .expect("IE run");
                dump_trace("baseline_compare_ie", &ie_out);
            }
            rep.push(label, "ie-rcb", p, ie.seconds, seq.seconds / ie.seconds);
            let part = InspectorExecutor::partitioning_cycles(
                spec.num_elements,
                spec.num_iterations(),
                &cfg,
            );
            rep.note(format!(
                "{label} P={p}: IE preprocessing = {:.1} ms inspector (communicating) + {:.1} ms partitioning; \
                 ghosts/proc ≈ {}",
                cfg.seconds(prepared.inspector_cycles()) * 1e3,
                cfg.seconds(part) * 1e3,
                prepared.ghost_counts().iter().sum::<usize>() / p
            ));

            // LightInspector cost for the same configuration (host wall).
            let g = PhaseGeometry::new(p, 2, spec.num_elements);
            let dist = distribute(spec.num_iterations(), p, Distribution::Cyclic);
            let li_start = std::time::Instant::now();
            for (q, owned) in dist.iter().enumerate().take(p) {
                let local = |r: usize| -> Vec<u32> {
                    owned
                        .iter()
                        .map(|&i| spec.indirection[r][i as usize])
                        .collect()
                };
                let (l1, l2) = (local(0), local(1));
                inspect(InspectorInput {
                    geometry: g,
                    proc_id: q,
                    indirection: &[&l1, &l2],
                })
                .expect("valid inspector input");
            }
            rep.note(format!(
                "{label} P={p}: LightInspector (all {p} procs, host wall) = {:.2} ms — no communication",
                li_start.elapsed().as_secs_f64() * 1e3
            ));
        }
        if let (Some(ph), Some(ie)) = (
            rep.relative(label, "phased-2c", 2, 32),
            rep.relative(label, "ie-rcb", 2, 32),
        ) {
            rep.note(format!(
                "{label}: relative 2→32 — phased {ph:.2} vs IE {ie:.2} \
                 (paper/Paragon: ~no speedup on 2K, ~8 on 10K for partitioning schemes)"
            ));
        }
    }
    rep.save();
}

/// Pad a pair list to a fixed-capacity two-column indirection.
fn padded(pairs: &[(u32, u32)], capacity: usize) -> (Vec<u32>, Vec<u32>) {
    assert!(pairs.len() <= capacity, "neighbour list overflow");
    let mut a: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let mut b: Vec<u32> = pairs.iter().map(|p| p.1).collect();
    a.resize(capacity, 0);
    b.resize(capacity, 0);
    (a, b)
}

/// The paper's future work: adaptive irregular reductions.
///
/// Inspector only: `moldyn` with positions drifting every round,
/// forcing a neighbour-list rebuild. Preprocessing cost per adaptation
/// event for a full LightInspector re-run (what the paper's system
/// would do), the nested incremental LightInspector (stable hash
/// ownership of pairs + a multiset diff, so updates scale with the
/// *churn*), and what a partitioning-based scheme would pay (modeled).
/// None of these rows rebuilds an executable plan; the prepared-run
/// table ([`adaptive_prepared`]) times the step a solver pays.
fn adaptive(trace: bool) {
    let cfg = SimConfig::default();
    let mut rep = Report::new("Adaptive: incremental LightInspector under churn");
    let procs = 8usize;
    let rounds = if quick() { 3 } else { 10 };

    let mut md = MolDyn::fcc(9, 1.05); // the 2 916-molecule dataset
    let g = PhaseGeometry::new(procs, 2, md.num_molecules);

    // Fixed-capacity local lists (15% slack) with stable hash ownership.
    let initial = hash_distribute_pairs(&md.ia1, &md.ia2, procs);
    let caps: Vec<usize> = initial.iter().map(|v| v.len() + v.len() / 7 + 8).collect();
    let mut incs: Vec<IncrementalInspector> = initial
        .iter()
        .zip(&caps)
        .enumerate()
        .map(|(q, (pairs, &cap))| {
            let (a, b) = padded(pairs, cap);
            IncrementalInspector::new(g, q, vec![a, b])
        })
        .collect();

    let mut total_full = 0.0;
    let mut total_inc = 0.0;
    for round in 0..rounds {
        md.perturb(0.04, round as u64);
        let churn = md.rebuild_interactions();
        let fresh = hash_distribute_pairs(&md.ia1, &md.ia2, procs);

        // Full re-inspection on every proc.
        let t0 = std::time::Instant::now();
        for (q, (pairs, &cap)) in fresh.iter().zip(&caps).enumerate() {
            let (a, b) = padded(pairs, cap);
            inspect(InspectorInput {
                geometry: g,
                proc_id: q,
                indirection: &[&a, &b],
            })
            .expect("valid inspector input");
        }
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        total_full += full_ms;

        // Incremental. The diff is neighbour-list bookkeeping a real
        // rebuild produces for free (it knows which pairs it added or
        // removed), so it is timed separately from the plan updates.
        let td = std::time::Instant::now();
        let diffs: Vec<_> = incs
            .iter()
            .enumerate()
            .map(|(q, inc)| {
                let (na, nb) = padded(&fresh[q], caps[q]);
                let new_pairs: Vec<(u32, u32)> = na.into_iter().zip(nb).collect();
                diff_pairs(
                    inc.indirection()[0].as_slice(),
                    inc.indirection()[1].as_slice(),
                    &new_pairs,
                )
            })
            .collect();
        let diff_ms = td.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let mut updated = 0usize;
        for (inc, d) in incs.iter_mut().zip(diffs) {
            updated += d.len();
            for (slot, x, y) in d {
                inc.update(slot, &[x, y]);
            }
        }
        let inc_ms = t1.elapsed().as_secs_f64() * 1e3;
        total_inc += inc_ms;

        rep.note(format!(
            "inspector only, round {round}: churn {churn} pairs → {updated} plan updates — full {full_ms:.2} ms vs incremental {inc_ms:.2} ms (+{diff_ms:.2} ms list diff) = {:.1}x",
            full_ms / inc_ms.max(1e-9)
        ));
    }

    // The partitioning scheme's modeled cost per event.
    let part =
        InspectorExecutor::partitioning_cycles(md.num_molecules, md.num_interactions(), &cfg);
    rep.note(format!(
        "partitioning-based scheme per adaptation (modeled): {:.1} ms re-partition + communicating inspector",
        cfg.seconds(part) * 1e3
    ));
    rep.note(format!(
        "inspector only, totals over {rounds} rounds: full {total_full:.1} ms, incremental {total_inc:.1} ms ({:.1}x cheaper)",
        total_full / total_inc.max(1e-9)
    ));
    adaptive_prepared(&mut rep);
    rep.save();

    if trace {
        // No reduction runs here, so trace the inspection pipeline: one
        // full LightInspector pass per processor, stage completions as
        // events.
        let mut events = Vec::new();
        let fresh = hash_distribute_pairs(&md.ia1, &md.ia2, procs);
        for (q, (pairs, &cap)) in fresh.iter().zip(&caps).enumerate() {
            let (a, b) = padded(pairs, cap);
            lightinspector::inspect_observed(
                InspectorInput {
                    geometry: g,
                    proc_id: q,
                    indirection: &[&a, &b],
                },
                &mut |stage| {
                    events.push(TraceEvent::new(
                        stage as u64,
                        q as u32,
                        TraceKind::InspectorStage { stage },
                    ));
                },
            )
            .expect("valid inspector input");
        }
        dump_trace_events("adaptive", &events);
    }
}

/// The step an adaptive solver pays on a prepared run: one
/// `PreparedPhased::apply_updates` call, which validates the churn,
/// rewrites the indirection and re-inspects every node it touches, on a
/// particle-in-cell deck of the `engine-pic` shape (524 288 particles,
/// 65 536 cells, P8 2c, native tuning; an eighth of that under
/// `REPRO_QUICK`). Each churn level times several steps after the first
/// (which also gathers the nodes' local indirection), against a fresh
/// `prepare` of the same deck. Every timed update follows an untimed
/// `execute`, as in a solver's step: the update meets the caches the
/// kernel sweeps leave behind, not the ones the previous update warmed.
fn adaptive_prepared(rep: &mut Report) {
    let (cells, particles, steps) = if quick() {
        (8_192, 65_536, 3)
    } else {
        (65_536, 524_288, 20)
    };
    let strat = StrategyConfig::new(8, 2, Distribution::Cyclic, 4);
    let engine = PhasedEngine::new(
        ExecutionConfig::native(NativeConfig::default()).with_tuning(Tuning::auto()),
    );
    let median_ms = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    rep.note(format!(
        "prepared run: apply_updates (update + re-inspection) on pic, {particles} particles, {cells} cells, P8 2c"
    ));
    rep.note(format!(
        "{:>6} {:>9} {:>10} {:>10} {:>11} {:>8}",
        "churn", "updates", "update ms", "ns/update", "prepare ms", "upd/prep"
    ));
    for churn in [0.01, 0.02, 0.05, 0.10, 0.20] {
        let deck = PicDeck::generate(cells, particles, 0, churn, 1).expect("pic deck knobs");
        let spec = FamilyProblem::from_family(deck.initial()).spec;
        let mut prepare_ms = Vec::new();
        for _ in 0..3 {
            let t = std::time::Instant::now();
            engine.prepare(&spec, &strat).expect("prepare");
            prepare_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut prepared = engine.prepare(&spec, &strat).expect("prepare");
        prepared
            .apply_updates(&deck.step_updates(0))
            .expect("valid updates");
        let mut ws = Workspace::new();
        let mut update_ms = Vec::new();
        let mut updates = 0;
        for step in 1..=steps {
            engine.execute(&mut prepared, &mut ws).expect("execute");
            let batch = deck.step_updates(step);
            updates = batch.len();
            let t = std::time::Instant::now();
            prepared.apply_updates(&batch).expect("valid updates");
            update_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let (upd, prep) = (median_ms(update_ms), median_ms(prepare_ms));
        rep.note(format!(
            "{:>5.0}% {updates:>9} {upd:>10.2} {:>10.0} {prep:>11.2} {:>8.2}",
            churn * 100.0,
            upd * 1e6 / updates.max(1) as f64,
            upd / prep
        ));
    }
}

/// Ablations over the design choices DESIGN.md calls out.
///
/// 1. **k sweep beyond {1,2,4}** — where does the overlap benefit stop
///    paying for threading overhead? (The paper only tries 1, 2, 4.)
/// 2. **Numbering locality** — the same euler mesh with generator-order
///    vs randomly shuffled node numbering: quantifies how much of the
///    strategy's small-P overhead is a property of the dataset, the
///    paper's own explanation for the moldyn-10K slowdowns.
/// 3. **Native backend** — the phased strategy on real host threads vs
///    shared-memory atomics and replication, on a no-read-state kernel.
fn ablation(trace: bool) {
    let cfg = SimConfig::default();
    let sweeps = if quick() { 10 } else { 100 };
    let mut rep = Report::new("Ablations: k sweep, numbering locality, native backend");

    // --- 1. k sweep -----------------------------------------------------
    let problem = EulerProblem::preset(MeshPreset::Euler2K, 1);
    let seq = seq_reduction(&problem.spec, sweeps, cfg);
    for k in [1, 2, 3, 4, 6, 8] {
        let strat = StrategyConfig::new(16, k, Distribution::Cyclic, sweeps);
        let r = PhasedEngine::sim(cfg)
            .run(&problem.spec, &strat)
            .expect("sim run");
        rep.push(
            "euler2K@16p",
            &format!("k{k}"),
            16,
            r.seconds,
            seq.seconds / r.seconds,
        );
    }
    rep.note("k sweep: expect a maximum near k=2 — more phases beyond that add switch/copy cost without more overlap".into());

    // --- 2. numbering locality -------------------------------------------
    for (name, mesh) in [
        ("ordered", Mesh::preset(MeshPreset::Euler2K, 3)),
        ("shuffled", Mesh::preset(MeshPreset::Euler2K, 3).shuffled(3)),
    ] {
        let p = EulerProblem::from_mesh(mesh, 3);
        let seq = seq_reduction(&p.spec, sweeps, cfg);
        for procs in [2, 32] {
            let strat = StrategyConfig::new(procs, 2, Distribution::Cyclic, sweeps);
            let r = PhasedEngine::sim(cfg)
                .run(&p.spec, &strat)
                .expect("sim run");
            rep.push(
                &format!("euler2K-{name}"),
                "2c",
                procs,
                r.seconds,
                seq.seconds / r.seconds,
            );
        }
    }
    rep.note("numbering: shuffled numbering buffers nearly every reference — the dataset-dependent degradation of §5.4.2".into());

    // --- 3. native backend ------------------------------------------------
    let n = 100_000usize;
    let e = 600_000usize;
    let mut s = 0x5EEDu64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let spec = PhasedSpec {
        kernel: Arc::new(WeightedPairKernel {
            weights: Arc::new((0..e).map(|_| (next() % 100) as f64).collect()),
        }),
        num_elements: n,
        indirection: Arc::new(vec![
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        ]),
    };
    let native_sweeps = if quick() { 5 } else { 20 };
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    let threads = cores.clamp(1, 8).max(2);
    let (_, serial) = serial_reduction(&spec, native_sweeps);
    rep.note(format!("native ({threads} threads on {cores} core(s), {native_sweeps} sweeps, {e} iters): serial {serial:?}"));
    if cores < 2 {
        rep.note("NOTE: single-core host — native wall-clock speedups are degenerate (threads timeshare one CPU);                   results below check correctness/overhead only. This is precisely why the evaluation uses the                   discrete-event simulator.".into());
    }
    let (_, atomic) = atomic_reduction(&spec, threads, native_sweeps);
    let (_, repl) = replicated_reduction(&spec, threads, native_sweeps);
    let strat = StrategyConfig::new(threads, 2, Distribution::Cyclic, native_sweeps);
    let phased = PhasedEngine::native(NativeConfig::default())
        .run(&spec, &strat)
        .expect("native run")
        .wall;
    rep.note(format!(
        "native: atomics {atomic:?} ({:.2}x), replication {repl:?} ({:.2}x), phased-EARTH {phased:?} ({:.2}x)",
        serial.as_secs_f64() / atomic.as_secs_f64(),
        serial.as_secs_f64() / repl.as_secs_f64(),
        serial.as_secs_f64() / phased.as_secs_f64(),
    ));
    rep.save();

    if trace {
        trace_phased("ablation", &problem.spec, 16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_speedup_lookup() {
        let mut rep = Report::new("t");
        rep.push("d", "2c", 2, 10.0, 1.2);
        rep.push("d", "2c", 32, 1.0, 12.0);
        assert_eq!(rep.relative("d", "2c", 2, 32), Some(10.0));
        assert_eq!(rep.relative("d", "1c", 2, 32), None);
    }

    #[test]
    fn sweep_defaults() {
        // Without env overrides, paper defaults hold.
        if std::env::var("REPRO_SWEEPS").is_err() && !quick() {
            assert_eq!(lhs_sweeps(), 100);
            assert_eq!(mvm_sweeps(), 50);
        }
    }
}
