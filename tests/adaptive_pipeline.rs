//! Adaptivity end to end: perturb a moldyn configuration, patch a
//! prepared run with the neighbour-list diff, and check it against a
//! fresh prepare of the new interaction list and the sequential
//! reference.

use std::sync::Arc;

use earth_model::sim::SimConfig;
use irred::{
    approx_eq, seq_reduction, Distribution, PhasedEngine, PhasedSpec, ReductionEngine,
    StrategyConfig, Workspace,
};
use kernels::moldyn::MolDynKernel;
use kernels::MolDynProblem;
use workloads::{diff_pairs, MolDyn};

/// The pair list padded to `capacity` with inactive `(0, 0)` self-pairs,
/// which contribute exactly zero force.
fn padded_pairs(md: &MolDyn, capacity: usize) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = md.ia1.iter().copied().zip(md.ia2.iter().copied()).collect();
    assert!(pairs.len() <= capacity, "neighbour list overflow");
    pairs.resize(capacity, (0, 0));
    pairs
}

#[test]
fn incremental_plans_stay_valid_across_rebuilds() {
    let mut md = MolDyn::fcc(4, 0.75);
    let capacity = md.num_interactions() + md.num_interactions() / 4 + 8;
    let (ia1, ia2) = padded_pairs(&md, capacity).into_iter().unzip();
    let spec = PhasedSpec {
        kernel: Arc::new(MolDynKernel {
            pos0: Arc::new(md.pos.clone()),
            box_side: md.box_side,
        }),
        num_elements: md.num_molecules,
        indirection: Arc::new(vec![ia1, ia2]),
    };
    let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 2);
    let engine = PhasedEngine::sim(SimConfig::default());
    let mut prepared = engine.prepare(&spec, &strat).unwrap();
    let mut ws = Workspace::new();
    let bits = |v: &[Vec<f64>]| -> Vec<u64> { v.iter().flatten().map(|x| x.to_bits()).collect() };

    for round in 0..4 {
        md.perturb(0.06, round);
        md.rebuild_interactions();
        let new_pairs = padded_pairs(&md, capacity);
        let ind = prepared.indirection();
        let updates: Vec<(usize, Vec<u32>)> = diff_pairs(&ind[0], &ind[1], &new_pairs)
            .into_iter()
            .map(|(slot, x, y)| (slot, vec![x, y]))
            .collect();
        prepared.apply_updates(&updates).unwrap();

        // The run's pairs are exactly the fresh list, as a multiset.
        let ind = prepared.indirection();
        let mut have: Vec<(u32, u32)> =
            ind[0].iter().copied().zip(ind[1].iter().copied()).collect();
        let mut want = new_pairs;
        have.sort_unstable();
        want.sort_unstable();
        assert_eq!(have, want, "round {round}");

        // And it executes exactly as a fresh prepare of its indirection.
        let got = engine.execute(&mut prepared, &mut ws).unwrap();
        let updated = PhasedSpec {
            indirection: Arc::new(prepared.indirection().to_vec()),
            ..spec.clone()
        };
        let want = engine.run(&updated, &strat).unwrap();
        assert_eq!(bits(&got.values), bits(&want.values), "round {round}");
        assert_eq!(bits(&got.read), bits(&want.read), "round {round}");
        assert_eq!(got.time_cycles, want.time_cycles, "round {round}");
    }
}

#[test]
fn phased_run_after_adaptation_matches_sequential() {
    let mut md = MolDyn::fcc(4, 0.75);
    for round in 0..3 {
        md.perturb(0.05, round);
        md.rebuild_interactions();
    }
    let problem = MolDynProblem::from_config(md);
    let sweeps = 2;
    let seq = seq_reduction(&problem.spec, sweeps, SimConfig::default());
    let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, sweeps);
    let r = PhasedEngine::sim(SimConfig::default())
        .run(&problem.spec, &strat)
        .unwrap();
    for a in 0..3 {
        assert!(approx_eq(&r.values[a], &seq.x[a], 1e-8));
        assert!(approx_eq(&r.read[a], &seq.read[a], 1e-8));
    }
}
