//! `PreparedPhased::apply_updates` leaves the plan a fresh prepare of
//! the updated spec would build: after every batch of updates the
//! prepared run's per-node schedule (row order, scatter targets, copy
//! ops, buffer extension) equals a fresh prepare's, and it executes to
//! the same values, read state and simulated cycles, bit for bit — for
//! arbitrary float weights, both distributions, both backends, and any
//! number of references per iteration.
//! A rejected batch changes nothing.

use std::sync::Arc;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use irred::kernel::WeightedPairKernel;
use irred::{
    Distribution, EdgeKernel, EngineError, ExecutionConfig, PhasedEngine, PhasedSpec,
    PreparedPhased, ReductionEngine, StrategyConfig, Workspace,
};
use lightinspector::InspectError;
use workloads::diff_pairs;

fn bits(v: &[Vec<f64>]) -> Vec<u64> {
    v.iter().flatten().map(|x| x.to_bits()).collect()
}

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

/// `prepared` holds the plan a fresh prepare of its current indirection
/// would build, node by node, and its next execute matches that fresh
/// run's values, read state and simulated cycles bit for bit.
fn assert_matches_fresh_prepare<K: EdgeKernel>(
    engine: &PhasedEngine,
    spec: &PhasedSpec<K>,
    prepared: &mut PreparedPhased<K>,
    ws: &mut Workspace,
    at: &str,
) {
    let strat = *prepared.strategy();
    let updated = PhasedSpec {
        indirection: Arc::new(prepared.indirection().to_vec()),
        ..spec.clone()
    };
    let mut fresh = engine.prepare(&updated, &strat).unwrap();
    let at = format!("{at}, {} on {:?}", strat.label(), engine.config().backend);
    for proc in 0..strat.procs {
        let plan = |r: &PreparedPhased<K>| {
            let order: Vec<_> = (0..r.num_phases())
                .map(|p| r.phase_order(proc, p))
                .collect();
            (order, r.node_plan(proc).clone(), r.buffer_len(proc))
        };
        assert_eq!(plan(prepared), plan(&fresh), "{at}, proc {proc}");
    }
    let got = engine.execute(prepared, ws).unwrap();
    let want = engine.execute(&mut fresh, &mut Workspace::new()).unwrap();
    assert_eq!(bits(&got.values), bits(&want.values), "{at}");
    assert_eq!(bits(&got.read), bits(&want.read), "{at}");
    assert_eq!(got.time_cycles, want.time_cycles, "{at}");
}

/// Apply each batch to one prepared run, executing after every batch,
/// and compare against a fresh prepare of the updated spec.
fn assert_updates_equal_fresh_prepare<K: EdgeKernel>(
    engine: &PhasedEngine,
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
    batches: &[Vec<(usize, Vec<u32>)>],
) {
    let mut prepared = engine.prepare(spec, strat).unwrap();
    let mut ws = Workspace::new();
    let _ = engine.execute(&mut prepared, &mut ws).unwrap();
    for (round, updates) in batches.iter().enumerate() {
        prepared.apply_updates(updates).unwrap();
        let at = format!("round {round}");
        assert_matches_fresh_prepare(engine, spec, &mut prepared, &mut ws, &at);
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
/// distributions, on both backends.
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
        for cfg in [
            ExecutionConfig::sim(SimConfig::default()),
            ExecutionConfig::native(NativeConfig::default()),
        ] {
            let engine = PhasedEngine::new(cfg);
            assert_updates_equal_fresh_prepare(&engine, &spec, &strat, &batches);
        }
    }
}

/// Nine references per iteration: `X[e_r] += (r + ½)·w_i`.
struct NineRefKernel {
    weights: Arc<Vec<f64>>,
}

impl EdgeKernel for NineRefKernel {
    fn num_refs(&self) -> usize {
        9
    }

    fn contrib_batch(
        &self,
        _read: &[f64],
        giters: &[u32],
        _elems: &[u32],
        _edge: &[f64],
        out: &mut [f64],
    ) {
        for (o, &gi) in out.chunks_exact_mut(9).zip(giters) {
            for (r, o) in o.iter_mut().enumerate() {
                *o = self.weights[gi as usize] * (r as f64 + 0.5);
            }
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

fn sim_engine() -> PhasedEngine {
    PhasedEngine::sim(SimConfig::default())
}

/// The first update re-inspects every node it touches from scratch:
/// re-writing one iteration per node to its current targets leaves the
/// plan the prepare built.
#[test]
fn fresh_inspector_is_valid() {
    let spec = spec(64, 1, 300);
    let strat = StrategyConfig::new(4, 2, Distribution::Block, 1);
    let engine = sim_engine();
    let mut prepared = engine.prepare(&spec, &strat).unwrap();
    let updates: Vec<(usize, Vec<u32>)> = [0usize, 75, 150, 225]
        .into_iter()
        .map(|i| (i, vec![spec.indirection[0][i], spec.indirection[1][i]]))
        .collect();
    prepared.apply_updates(&updates).unwrap();
    assert_eq!(prepared.indirection(), &spec.indirection[..]);
    assert_matches_fresh_prepare(&engine, &spec, &mut prepared, &mut Workspace::new(), "");
}

#[test]
fn single_update_stays_valid() {
    let spec = spec(64, 2, 300);
    let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
    let engine = sim_engine();
    let mut prepared = engine.prepare(&spec, &strat).unwrap();
    prepared.apply_updates(&[(5, vec![63, 0])]).unwrap();
    assert_eq!(prepared.indirection()[0][5], 63);
    assert_eq!(prepared.indirection()[1][5], 0);
    assert_matches_fresh_prepare(&engine, &spec, &mut prepared, &mut Workspace::new(), "");
}

/// A long wave of single-iteration updates, one call each, checked
/// against a fresh prepare along the way and at the end.
#[test]
fn many_updates_match_full_reinspection_coverage() {
    let spec = spec(64, 3, 500);
    let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
    let engine = sim_engine();
    let mut prepared = engine.prepare(&spec, &strat).unwrap();
    let mut ws = Workspace::new();
    let mut x = 42u64;
    for step in 0..200usize {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let iter = (x >> 32) as usize % 500;
        let (e1, e2) = ((x % 64) as u32, ((x >> 8) % 64) as u32);
        prepared.apply_updates(&[(iter, vec![e1, e2])]).unwrap();
        if step % 50 == 0 {
            let at = format!("step {step}");
            assert_matches_fresh_prepare(&engine, &spec, &mut prepared, &mut ws, &at);
        }
    }
    assert_matches_fresh_prepare(&engine, &spec, &mut prepared, &mut ws, "final");
}

/// Re-routing an iteration out of and back into needing a buffer slot
/// leaves every node's buffer extension at the fresh-prepare size: the
/// slot is not leaked.
#[test]
fn buffer_slots_are_recycled() {
    // n = 8 on P = 2, k = 2: portions of 2 elements, and node 0 holds
    // portion p during phase p. Iteration 0 = (0, 7) spans phases 0 and
    // 3, so it needs a buffer slot; iteration 1 = (2, 3) does not.
    let spec = PhasedSpec {
        indirection: Arc::new(vec![vec![0, 2, 4, 6], vec![7, 3, 5, 1]]),
        ..spec(8, 4, 4)
    };
    let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
    let engine = sim_engine();
    let mut prepared = engine.prepare(&spec, &strat).unwrap();
    assert_eq!(prepared.buffer_len(0), 1);
    let mut ws = Workspace::new();
    // To (0, 1): no buffer needed; then to (0, 6): a buffer again.
    prepared.apply_updates(&[(0, vec![0, 1])]).unwrap();
    assert_eq!(prepared.buffer_len(0), 0);
    assert_matches_fresh_prepare(&engine, &spec, &mut prepared, &mut ws, "unbuffered");
    prepared.apply_updates(&[(0, vec![0, 6])]).unwrap();
    assert_eq!(prepared.buffer_len(0), 1);
    assert_matches_fresh_prepare(&engine, &spec, &mut prepared, &mut ws, "buffered again");
}

#[test]
fn update_batch_applies_all() {
    let spec = spec(16, 9, 50);
    let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 1);
    let engine = sim_engine();
    let mut prepared = engine.prepare(&spec, &strat).unwrap();
    prepared
        .apply_updates(&[(0, vec![1, 2]), (1, vec![3, 4]), (2, vec![5, 6])])
        .unwrap();
    for (i, want) in [[1, 2], [3, 4], [5, 6]].into_iter().enumerate() {
        assert_eq!(
            [prepared.indirection()[0][i], prepared.indirection()[1][i]],
            want
        );
    }
    assert_matches_fresh_prepare(&engine, &spec, &mut prepared, &mut Workspace::new(), "");
}

/// A wrong-arity update is a typed error, not a panic.
#[test]
fn arity_mismatch_panics() {
    let spec = spec(8, 6, 2);
    let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
    let mut prepared = sim_engine().prepare(&spec, &strat).unwrap();
    let err = prepared.apply_updates(&[(0, vec![1])]).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Shape {
                expected: 2,
                got: 1,
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(prepared.indirection(), &spec.indirection[..]);
}

/// A neighbour-list rebuild that permutes the pairs and replaces ten
/// reaches the plan as at most the ten real changes (plus slots the
/// multiset diff refills), and the patched run is the fresh prepare of
/// the new list.
#[test]
fn diff_then_update_reproduces_full_inspection() {
    let spec = spec(64, 5, 200);
    let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
    let engine = sim_engine();
    let mut prepared = engine.prepare(&spec, &strat).unwrap();
    let ind = prepared.indirection();
    let mut new: Vec<(u32, u32)> = ind[0].iter().copied().zip(ind[1].iter().copied()).collect();
    new.rotate_left(37);
    for (i, p) in new.iter_mut().enumerate().take(10) {
        *p = ((i * 3) as u32 % 64, (i * 7 + 1) as u32 % 64);
    }
    let d = diff_pairs(&ind[0], &ind[1], &new);
    assert!(d.len() <= 10 + 3, "diff too large: {}", d.len());
    let updates: Vec<(usize, Vec<u32>)> = d.into_iter().map(|(i, x, y)| (i, vec![x, y])).collect();
    prepared.apply_updates(&updates).unwrap();
    let ind = prepared.indirection();
    let mut have: Vec<(u32, u32)> = ind[0].iter().copied().zip(ind[1].iter().copied()).collect();
    have.sort_unstable();
    new.sort_unstable();
    assert_eq!(have, new);
    assert_matches_fresh_prepare(&engine, &spec, &mut prepared, &mut Workspace::new(), "");
}

/// Validation precedes every write: a batch whose *last* entry is bad
/// is rejected with its typed error and leaves the indirection, the
/// execute count and the next execute's values as they were.
#[test]
fn apply_updates_is_all_or_nothing() {
    let spec = spec(64, 7, 300);
    let strat = StrategyConfig::new(4, 2, Distribution::Block, 1);
    let engine = sim_engine();
    let mut prepared = engine.prepare(&spec, &strat).unwrap();
    let mut ws = Workspace::new();
    let before = bits(&engine.execute(&mut prepared, &mut ws).unwrap().values);
    let good = |i: usize| (i * 37 % 300, vec![(i * 3 % 64) as u32, (i * 5 % 64) as u32]);
    type Typed = fn(&EngineError) -> bool;
    let bad_entries: [((usize, Vec<u32>), Typed); 3] = [
        ((0, vec![1, 64]), |e| {
            matches!(
                e,
                EngineError::Invalid(InspectError::OutOfRange { r: 1, elem: 64, .. })
            )
        }),
        ((0, vec![1, 2, 3]), |e| {
            matches!(
                e,
                EngineError::Shape {
                    expected: 2,
                    got: 3,
                    ..
                }
            )
        }),
        ((300, vec![1, 2]), |e| {
            matches!(
                e,
                EngineError::Shape {
                    expected: 300,
                    got: 300,
                    ..
                }
            )
        }),
    ];
    for (bad, typed) in bad_entries {
        let mut batch: Vec<(usize, Vec<u32>)> = (1..20).map(good).collect();
        batch.push(bad.clone());
        let executions = prepared.executions();
        let err = prepared.apply_updates(&batch).unwrap_err();
        assert!(typed(&err), "{bad:?}: {err}");
        assert_eq!(prepared.indirection(), &spec.indirection[..], "{bad:?}");
        assert_eq!(prepared.executions(), executions, "{bad:?}");
        let after = engine.execute(&mut prepared, &mut ws).unwrap();
        assert_eq!(bits(&after.values), before, "{bad:?}");
    }
}
