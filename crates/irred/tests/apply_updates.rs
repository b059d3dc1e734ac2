//! `PreparedPhased::apply_updates` leaves the plan a fresh prepare of
//! the updated spec would build: after every batch of updates the
//! prepared run's per-node row order and first-reference targets equal
//! a fresh prepare's, and it executes to the same values, read state
//! and simulated cycles, bit for bit — for arbitrary float weights,
//! both distributions, tiled and untiled plans, both backends, and any
//! number of references per iteration.

use std::sync::Arc;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use irred::kernel::WeightedPairKernel;
use irred::{
    Distribution, EdgeKernel, ExecutionConfig, PhasedEngine, PhasedSpec, ReductionEngine,
    StrategyConfig, TileChoice, Tuning, Workspace,
};

/// Two references per iteration into `num_elems` elements, xorshift
/// targets, and weights that are arbitrary floats (not integers), so
/// any change in summation order shows in the bits.
fn spec(num_elems: usize, seed: u64, iters: usize) -> PhasedSpec<WeightedPairKernel> {
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut refs = || -> Vec<u32> {
        (0..iters)
            .map(|_| (next() % num_elems as u64) as u32)
            .collect()
    };
    let indirection = vec![refs(), refs()];
    let weights = (0..iters).map(|i| (i as f64 * 1.37 + 0.1).sin()).collect();
    PhasedSpec {
        kernel: Arc::new(WeightedPairKernel {
            weights: Arc::new(weights),
        }),
        num_elements: num_elems,
        indirection: Arc::new(indirection),
    }
}

/// Apply each batch to one prepared run, executing after every batch,
/// and compare against a fresh prepare of the updated spec.
fn assert_updates_equal_fresh_prepare<K: EdgeKernel>(
    engine: &PhasedEngine,
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
    batches: &[Vec<(usize, Vec<u32>)>],
) {
    let bits = |v: &[Vec<f64>]| -> Vec<u64> { v.iter().flatten().map(|x| x.to_bits()).collect() };
    let mut prepared = engine.prepare(spec, strat).unwrap();
    let mut ws = Workspace::new();
    let _ = engine.execute(&mut prepared, &mut ws).unwrap();
    for (round, updates) in batches.iter().enumerate() {
        prepared.apply_updates(updates).unwrap();
        let got = engine.execute(&mut prepared, &mut ws).unwrap();
        let updated = PhasedSpec {
            indirection: Arc::new(prepared.indirection().to_vec()),
            ..spec.clone()
        };
        let mut fresh = engine.prepare(&updated, strat).unwrap();
        let at = format!(
            "round {round}, {} on {:?} under {}",
            strat.label(),
            engine.config().backend,
            engine.config().tuning.label()
        );
        for proc in 0..strat.procs {
            for p in 0..fresh.num_phases() {
                let rows = |r: &irred::PreparedPhased<K>| {
                    (r.phase_order(proc, p), r.phase_first_ref_targets(proc, p))
                };
                assert_eq!(rows(&prepared), rows(&fresh), "{at}, proc {proc} phase {p}");
            }
        }
        let want = engine.execute(&mut fresh, &mut Workspace::new()).unwrap();
        assert_eq!(bits(&got.values), bits(&want.values), "{at}");
        assert_eq!(bits(&got.read), bits(&want.read), "{at}");
        assert_eq!(got.time_cycles, want.time_cycles, "{at}");
    }
}

#[test]
fn apply_updates_matches_fresh_prepare() {
    let spec = spec(64, 14, 300);
    let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
    let updates: Vec<(usize, Vec<u32>)> = (0..20)
        .map(|i| (i * 7 % 300, vec![(i * 3 % 64) as u32, (i * 5 % 64) as u32]))
        .collect();
    let engine = PhasedEngine::sim(SimConfig::default());
    assert_updates_equal_fresh_prepare(&engine, &spec, &strat, &[updates]);
}

/// Several rounds of updates on one lazily built run, over both
/// distributions, untiled and tiled at 8 elements, on both backends.
#[test]
fn lazy_incremental_updates_equal_fresh_prepare_bitwise() {
    let spec = spec(256, 25, 1_200);
    let batches: Vec<Vec<(usize, Vec<u32>)>> = (0..3usize)
        .map(|round| {
            (0..90)
                .map(|i| {
                    let e = |a: usize| ((i * a + round * 7) % 256) as u32;
                    ((i * 11 + round * 7) % 1_200, vec![e(3), e(5)])
                })
                .collect()
        })
        .collect();
    for dist in [Distribution::Cyclic, Distribution::Block] {
        let strat = StrategyConfig::new(4, 2, dist, 2);
        for tile in [TileChoice::Off, TileChoice::Elements(8)] {
            for cfg in [
                ExecutionConfig::sim(SimConfig::default()),
                ExecutionConfig::native(NativeConfig::default()),
            ] {
                let engine = PhasedEngine::new(cfg.with_tuning(Tuning::new().tile(tile)));
                assert_updates_equal_fresh_prepare(&engine, &spec, &strat, &batches);
            }
        }
    }
}

/// Nine references per iteration, one more than the nested incremental
/// inspector handled: `X[e_r] += (r + ½)·w_i`.
struct NineRefKernel {
    weights: Arc<Vec<f64>>,
}

impl EdgeKernel for NineRefKernel {
    fn num_refs(&self) -> usize {
        9
    }

    fn contrib(&self, _read: &[f64], iter: usize, _elems: &[u32], out: &mut [f64]) {
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.weights[iter] * (r as f64 + 0.5);
        }
    }
}

#[test]
fn apply_updates_handles_more_than_eight_references() {
    let (n, iters) = (96usize, 500usize);
    let indirection: Vec<Vec<u32>> = (0..9)
        .map(|r| {
            (0..iters)
                .map(|i| ((i * (2 * r + 3) + r) % n) as u32)
                .collect()
        })
        .collect();
    let weights = (0..iters).map(|i| (i as f64 * 0.7).cos()).collect();
    let spec = PhasedSpec {
        kernel: Arc::new(NineRefKernel {
            weights: Arc::new(weights),
        }),
        num_elements: n,
        indirection: Arc::new(indirection),
    };
    let updates: Vec<(usize, Vec<u32>)> = (0..60)
        .map(|i| {
            let refs = (0..9).map(|r| ((i * 13 + r * 7) % n) as u32).collect();
            (i * 17 % iters, refs)
        })
        .collect();
    let batches = [updates];
    let strat = StrategyConfig::new(3, 2, Distribution::Cyclic, 2);
    for engine in [
        PhasedEngine::sim(SimConfig::default()),
        PhasedEngine::native(NativeConfig::default()),
    ] {
        assert_updates_equal_fresh_prepare(&engine, &spec, &strat, &batches);
    }
}
