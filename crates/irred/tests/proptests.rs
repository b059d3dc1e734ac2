//! Property tests for the phased executors, on the in-tree
//! [`harness::prop`] harness: for arbitrary problem shapes (element
//! count, iteration count, reference arity `m`, reduction-group width
//! `R`, indirection contents) and arbitrary strategies
//! `(P, k, distribution)`, the phased execution equals the sequential
//! reference.
//!
//! The former `.proptest-regressions` seed is preserved as the named
//! unit test [`regression_gather_rows8_nnz6`].

use std::sync::Arc;

use earth_model::sim::SimConfig;
use harness::prop::{check, Config, Gen};
use harness::{prop_assert, prop_assert_eq};
use irred::{
    approx_eq, seq_reduction, Distribution, EdgeKernel, ExecutionConfig, GatherEngine, GatherSpec,
    PhasedEngine, PhasedSpec, ReductionEngine, StrategyConfig, Workspace,
};
use workloads::SparseMatrix;

/// A kernel with configurable arity: contribution through ref `r` to
/// array `a` is `(r+1)·(a+1)·w[i]` (sign alternating by ref).
struct ArityKernel {
    m: usize,
    r_arrays: usize,
    weights: Arc<Vec<f64>>,
}

impl EdgeKernel for ArityKernel {
    fn num_refs(&self) -> usize {
        self.m
    }
    fn num_arrays(&self) -> usize {
        self.r_arrays
    }
    fn contrib_batch(
        &self,
        _read: &[f64],
        giters: &[u32],
        _elems: &[u32],
        _edge: &[f64],
        out: &mut [f64],
    ) {
        let width = self.m * self.r_arrays;
        for (o, &gi) in out.chunks_exact_mut(width).zip(giters) {
            let w = self.weights[gi as usize];
            for r in 0..self.m {
                let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
                for a in 0..self.r_arrays {
                    o[r * self.r_arrays + a] = sign * (r + 1) as f64 * (a + 1) as f64 * w;
                }
            }
        }
    }
    fn flops_per_iter(&self) -> u64 {
        (self.m * self.r_arrays) as u64 * 2
    }
}

#[derive(Debug, Clone)]
struct Shape {
    n: usize,
    e: usize,
    m: usize,
    r_arrays: usize,
    procs: usize,
    k: usize,
    dist: Distribution,
    sweeps: usize,
    seed: u64,
}

fn shape(g: &mut Gen) -> Shape {
    let n = g.usize_in(8..200);
    let e = g.usize_in(0..400);
    let m = g.usize_incl(1, 3);
    let r_arrays = g.usize_incl(1, 3);
    let procs = g.usize_incl(1, 6);
    let k = g.usize_incl(1, 4);
    let cyclic = g.prob(0.5);
    let sweeps = g.usize_incl(1, 3);
    let seed = g.u64_any();
    Shape {
        n: n.max(procs * 4), // keep portions non-degenerate
        e,
        m,
        r_arrays,
        procs,
        k,
        dist: if cyclic {
            Distribution::Cyclic
        } else {
            Distribution::Block
        },
        sweeps,
        seed,
    }
}

fn build_spec(s: &Shape) -> PhasedSpec<ArityKernel> {
    let mut x = s.seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let indirection: Vec<Vec<u32>> = (0..s.m)
        .map(|_| (0..s.e).map(|_| (next() % s.n as u64) as u32).collect())
        .collect();
    PhasedSpec {
        kernel: Arc::new(ArityKernel {
            m: s.m,
            r_arrays: s.r_arrays,
            weights: Arc::new((0..s.e).map(|_| (next() % 1000) as f64 / 13.0).collect()),
        }),
        num_elements: s.n,
        indirection: Arc::new(indirection),
    }
}

#[test]
fn phased_equals_sequential() {
    check("phased_equals_sequential", Config::cases(64), shape, |s| {
        let spec = build_spec(s);
        let strat = StrategyConfig::new(s.procs, s.k, s.dist, s.sweeps);
        let seq = seq_reduction(&spec, s.sweeps, SimConfig::default());
        let r = PhasedEngine::sim(SimConfig::default())
            .run(&spec, &strat)
            .map_err(|e| format!("{e}"))?;
        for a in 0..s.r_arrays {
            prop_assert!(
                approx_eq(&r.values[a], &seq.x[a], 1e-9),
                "array {a} of {s:?}"
            );
        }
        Ok(())
    });
}

#[test]
fn communication_independent_of_contents() {
    check(
        "communication_independent_of_contents",
        Config::cases(64),
        |g| {
            let s = shape(g);
            let mut seed2 = g.u64_any();
            if seed2 == s.seed {
                seed2 ^= 1;
            }
            (s, seed2)
        },
        |(s, seed2)| {
            let strat = StrategyConfig::new(s.procs, s.k, s.dist, s.sweeps);
            let engine = PhasedEngine::sim(SimConfig::default());
            let a = engine
                .run(&build_spec(s), &strat)
                .map_err(|e| format!("{e}"))?;
            let mut s2 = s.clone();
            s2.seed = *seed2;
            let b = engine
                .run(&build_spec(&s2), &strat)
                .map_err(|e| format!("{e}"))?;
            // The paper's headline property: identical shape → identical
            // message count and payload volume, whatever the indirection.
            prop_assert_eq!(a.stats.ops.messages, b.stats.ops.messages);
            prop_assert_eq!(a.stats.ops.bytes, b.stats.ops.bytes);
            Ok(())
        },
    );
}

/// Adaptive updates leave exactly the plan a fresh prepare of the
/// updated spec builds: random small specs and strategies, random
/// batches (repeated iterations and empty batches included), and after
/// each `apply_updates` the per-node schedule equals a fresh prepare's
/// and the simulated values, read state and cycles match bit for bit.
#[test]
fn incremental_matches_full() {
    check(
        "incremental_matches_full",
        Config::cases(64),
        |g| {
            let s = shape(g);
            let batches = g.vec(0, 3, |g| {
                g.vec(0, 12, |g| {
                    // A few hot iterations, so repeats are common.
                    let iter = if g.prob(0.3) {
                        g.usize_in(0..3)
                    } else {
                        g.usize_in(0..400)
                    };
                    let refs: Vec<u32> = (0..s.m).map(|_| g.u32_in(0..s.n as u32)).collect();
                    (iter, refs)
                })
            });
            (s, batches)
        },
        |(s, batches)| {
            let spec = build_spec(s);
            let strat = StrategyConfig::new(s.procs, s.k, s.dist, s.sweeps);
            let engine = PhasedEngine::sim(SimConfig::default());
            let mut prepared = engine.prepare(&spec, &strat).map_err(|e| format!("{e}"))?;
            let bits =
                |v: &[Vec<f64>]| -> Vec<u64> { v.iter().flatten().map(|x| x.to_bits()).collect() };
            for batch in batches {
                // A spec with no iterations gets only empty batches.
                let updates: Vec<(usize, Vec<u32>)> = if s.e == 0 {
                    Vec::new()
                } else {
                    batch.iter().map(|(i, r)| (i % s.e, r.clone())).collect()
                };
                prepared
                    .apply_updates(&updates)
                    .map_err(|e| format!("{e}"))?;
                let updated = PhasedSpec {
                    indirection: Arc::new(prepared.indirection().to_vec()),
                    ..spec.clone()
                };
                let mut fresh = engine
                    .prepare(&updated, &strat)
                    .map_err(|e| format!("{e}"))?;
                for proc in 0..s.procs {
                    prop_assert_eq!(prepared.buffer_len(proc), fresh.buffer_len(proc));
                    prop_assert!(prepared.node_plan(proc) == fresh.node_plan(proc));
                    for p in 0..fresh.num_phases() {
                        prop_assert_eq!(prepared.phase_order(proc, p), fresh.phase_order(proc, p));
                    }
                }
                let mut ws = Workspace::new();
                let got = engine
                    .execute(&mut prepared, &mut ws)
                    .map_err(|e| format!("{e}"))?;
                let want = engine
                    .execute(&mut fresh, &mut Workspace::new())
                    .map_err(|e| format!("{e}"))?;
                prop_assert_eq!(bits(&got.values), bits(&want.values));
                prop_assert_eq!(bits(&got.read), bits(&want.read));
                prop_assert_eq!(got.time_cycles, want.time_cycles);
            }
            Ok(())
        },
    );
}

#[derive(Debug, Clone)]
struct GatherShape {
    rows: usize,
    nnz_per_row: usize,
    procs: usize,
    k: usize,
    sweeps: usize,
    seed: u64,
}

fn gather_matches_spmv(s: &GatherShape) -> Result<(), String> {
    let n = s.rows.max(s.procs * s.k * 2);
    let nnz = (n * s.nnz_per_row).min(n * n / 2).max(n);
    let m = Arc::new(SparseMatrix::random(n, n, nnz, s.seed));
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let spec = GatherSpec {
        matrix: Arc::clone(&m),
        x: Arc::new(x.clone()),
    };
    let strat = StrategyConfig::new(s.procs, s.k, Distribution::Block, s.sweeps);
    let r = GatherEngine::sim(SimConfig::default())
        .run(&spec, &strat)
        .map_err(|e| format!("{e}"))?;
    let mut want = vec![0.0; n];
    m.spmv(&x, &mut want);
    prop_assert!(approx_eq(&r.values[0], &want, 1e-10));
    Ok(())
}

#[test]
fn gather_equals_spmv() {
    check(
        "gather_equals_spmv",
        Config::cases(64),
        |g| GatherShape {
            rows: g.usize_in(8..150),
            nnz_per_row: g.usize_in(1..12),
            procs: g.usize_incl(1, 5),
            k: g.usize_incl(1, 3),
            sweeps: g.usize_incl(1, 3),
            seed: g.u64_any(),
        },
        gather_matches_spmv,
    );
}

/// Tracing determinism (the observability layer's contract): on the
/// simulator, the recorded event stream is a pure function of the
/// problem and strategy — two same-seed traced runs serialize to
/// byte-identical CSV.
#[test]
fn traced_sim_streams_byte_identical_across_runs() {
    check(
        "traced_sim_streams_byte_identical_across_runs",
        Config::cases(32),
        shape,
        |s| {
            let strat = StrategyConfig::new(s.procs, s.k, s.dist, s.sweeps);
            let engine = PhasedEngine::new(ExecutionConfig::default().traced());
            let a = engine
                .run(&build_spec(s), &strat)
                .map_err(|e| format!("{e}"))?;
            let b = engine
                .run(&build_spec(s), &strat)
                .map_err(|e| format!("{e}"))?;
            prop_assert!(!a.trace.is_empty(), "traced run recorded nothing: {s:?}");
            prop_assert_eq!(
                trace::events_to_csv(&a.trace),
                trace::events_to_csv(&b.trace)
            );
            Ok(())
        },
    );
}

/// Tracing never perturbs execution: a `NullSink` run is bit-identical
/// (values, cycle count, op counts) to the same run with the ring sink.
#[test]
fn null_sink_run_bit_identical_to_traced() {
    check(
        "null_sink_run_bit_identical_to_traced",
        Config::cases(32),
        shape,
        |s| {
            let spec = build_spec(s);
            let strat = StrategyConfig::new(s.procs, s.k, s.dist, s.sweeps);
            let plain = PhasedEngine::new(ExecutionConfig::default())
                .run(&spec, &strat)
                .map_err(|e| format!("{e}"))?;
            let traced = PhasedEngine::new(ExecutionConfig::default().traced())
                .run(&spec, &strat)
                .map_err(|e| format!("{e}"))?;
            prop_assert!(plain.trace.is_empty());
            prop_assert_eq!(plain.time_cycles, traced.time_cycles);
            prop_assert_eq!(plain.stats.ops, traced.stats.ops);
            for (a, b) in plain.values.iter().zip(&traced.values) {
                let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(ab, bb);
            }
            Ok(())
        },
    );
}

/// Former `.proptest-regressions` seed for `gather_equals_spmv`:
/// shrank to `rows = 8, nnz_per_row = 6, procs = 1, k = 1, sweeps = 1,
/// seed = 10545539604246074318`. Kept verbatim so the historical
/// failure mode stays pinned.
#[test]
fn regression_gather_rows8_nnz6() {
    gather_matches_spmv(&GatherShape {
        rows: 8,
        nnz_per_row: 6,
        procs: 1,
        k: 1,
        sweeps: 1,
        seed: 10545539604246074318,
    })
    .unwrap();
}
