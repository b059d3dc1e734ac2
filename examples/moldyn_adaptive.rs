//! Adaptive molecular dynamics: the scenario the paper's strategy is
//! built for (and its stated future work, which this library
//! implements).
//!
//! Molecules drift; every few time steps the cutoff neighbour list is
//! rebuilt, changing the indirection arrays. Partitioning-based schemes
//! must re-partition and re-run a communicating inspector; the phased
//! engine's [`irred::PreparedPhased`] just patches itself: the global
//! pair list lives in a fixed-capacity buffer padded with inactive
//! `(0, 0)` self-pairs (which contribute exactly zero force), a multiset
//! diff of the old and new lists yields the changed slots, and
//! [`irred::PreparedPhased::apply_updates`] re-runs the LightInspector
//! on only the processors that own a changed iteration, leaving exactly
//! the plan a fresh prepare of the new list would build — the EARTH
//! program template, the untouched processors' plans, and the pooled
//! buffers all survive the adaptation.
//!
//! ```sh
//! cargo run --release --example moldyn_adaptive
//! ```

use std::sync::Arc;

use earth_model::sim::SimConfig;
use irred::{
    approx_eq, seq_reduction, Distribution, PhasedEngine, PhasedSpec, ReductionEngine,
    StrategyConfig, Workspace,
};
use kernels::moldyn::MolDynKernel;
use lightinspector::diff_pairs;
use workloads::MolDyn;

/// Pad a pair list to `capacity` with inactive self-pairs.
fn padded(pairs: &[(u32, u32)], capacity: usize) -> (Vec<u32>, Vec<u32>) {
    assert!(
        pairs.len() <= capacity,
        "neighbour list overflowed its capacity"
    );
    let mut a: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let mut b: Vec<u32> = pairs.iter().map(|p| p.1).collect();
    a.resize(capacity, 0);
    b.resize(capacity, 0);
    (a, b)
}

fn pairs_of(md: &MolDyn) -> Vec<(u32, u32)> {
    md.ia1.iter().zip(&md.ia2).map(|(&a, &b)| (a, b)).collect()
}

fn main() {
    // `REPRO_QUICK=1` shrinks the lattice and epoch count for smoke tests.
    let quick = std::env::var("REPRO_QUICK").is_ok_and(|v| v == "1");
    let procs = 8usize;
    let k = 2usize;
    let cfg = SimConfig::default();

    let mut md = MolDyn::fcc(if quick { 4 } else { 9 }, 1.05);
    println!(
        "moldyn: {} molecules, {} interactions (the paper's 2K dataset)",
        md.num_molecules,
        md.num_interactions()
    );

    // Global fixed-capacity pair list with 15% slack — the standard
    // adaptive neighbour-list discipline, so a rebuild's reordering does
    // not force a reallocation (and the prepared plan keeps its shape).
    let capacity = md.num_interactions() + md.num_interactions() / 7 + 8;
    let (ia1, ia2) = padded(&pairs_of(&md), capacity);
    let kernel = Arc::new(MolDynKernel {
        pos0: Arc::new(md.pos.clone()),
        box_side: md.box_side,
    });
    let spec = PhasedSpec {
        kernel: Arc::clone(&kernel),
        num_elements: md.num_molecules,
        indirection: Arc::new(vec![ia1, ia2]),
    };

    let sweeps = if quick { 5 } else { 20 };
    let strat = StrategyConfig::new(procs, k, Distribution::Cyclic, sweeps);
    let engine = PhasedEngine::sim(cfg);

    // Prepare ONCE: inspector plans, remapped indirection, and the EARTH
    // program template are built here and reused for every epoch below.
    let mut prepared = engine.prepare(&spec, &strat).expect("valid moldyn spec");
    let mut ws = Workspace::new();

    for epoch in 0..if quick { 2 } else { 5 } {
        // Run a burst of time steps under the current neighbour list.
        let r = engine.execute(&mut prepared, &mut ws).expect("phased run");

        // Sequential reference over the same kernel + current pair list.
        let cur = PhasedSpec {
            kernel: Arc::clone(&kernel),
            num_elements: md.num_molecules,
            indirection: Arc::new(prepared.indirection().to_vec()),
        };
        let seq = seq_reduction(&cur, sweeps, cfg);
        for a in 0..3 {
            assert!(
                approx_eq(&r.values[a], &seq.x[a], 1e-8),
                "epoch {epoch}: prepared run diverged from sequential reference"
            );
        }
        println!(
            "epoch {epoch}: {sweeps} steps in {:.3} sim-s on {procs} nodes (speedup {:.2}, plan {})",
            r.seconds,
            seq.seconds / r.seconds,
            if r.provenance.reused_plan {
                "reused"
            } else {
                "built"
            }
        );

        // Adapt: drift positions, rebuild the neighbour list.
        md.perturb(0.05, epoch as u64);
        let churn = md.rebuild_interactions();

        // Patch the prepared run: a multiset diff against the plan's
        // current indirection yields the changed slots, and
        // apply_updates re-inspects only the owning processors.
        let t = std::time::Instant::now();
        let (na, nb) = padded(&pairs_of(&md), capacity);
        let new_pairs: Vec<(u32, u32)> = na.iter().zip(&nb).map(|(&x, &y)| (x, y)).collect();
        let d = diff_pairs(
            prepared.indirection()[0].as_slice(),
            prepared.indirection()[1].as_slice(),
            &new_pairs,
        );
        let updates: Vec<(usize, Vec<u32>)> = d
            .into_iter()
            .map(|(slot, x, y)| (slot, vec![x, y]))
            .collect();
        let updated = updates.len();
        prepared
            .apply_updates(&updates)
            .expect("valid neighbour-list update");
        println!(
            "         adapted: {churn} pairs churned → {updated} plan updates in {:.2?} (no communication, no re-prepare)",
            t.elapsed()
        );
    }
    println!(
        "done — one prepare served {} executes across every adaptation ✓",
        prepared.executions()
    );
}
