//! Engine-equivalence property suite: the [`irred::ReductionEngine`]
//! contract, checked across all four engines.
//!
//! Two families of properties, on the in-tree [`harness::prop`] harness:
//!
//! 1. **Cross-engine agreement** — for random kernels, shapes, and
//!    strategies, the sequential, inspector/executor, phased, and gather
//!    engines produce **bit-identical** reduction arrays. All kernels
//!    here use integer-valued weights, so floating-point contributions
//!    sum exactly in any order and `assert_eq!` on `f64` is meaningful
//!    (the engines legitimately differ in summation order).
//! 2. **Prepared-run determinism** — `prepare` once then `execute` N
//!    times must be bit-identical to N fresh `run` calls, on the mvm
//!    (gather + `set_x`), euler (static multi-array), and moldyn
//!    (read-updating, `post_sweep`) shapes, on the simulator and on the
//!    native backend under a lossless [`FaultConfig`] plan.
//!
//! Failing property cases print a `PROP_SEED` replay line; DESIGN.md §8.

use std::sync::Arc;
use std::time::Duration;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use earth_model::FaultConfig;
use harness::prop::{check, Config, Gen};
use harness::{prop_assert, prop_assert_eq};
use irred::baseline::IeEngine;
use irred::kernel::WeightedPairKernel;
use irred::{
    Distribution, EdgeKernel, GatherEngine, GatherSpec, PhasedEngine, PhasedSpec, ReductionEngine,
    SeqEngine, StrategyConfig, Workspace,
};
use workloads::SparseMatrix;

/// A kernel with configurable arity and **integer** weights:
/// contribution through ref `r` to array `a` is
/// `±(r+1)·(a+1)·w[i]` with `w[i] ∈ 0..1000` — every partial sum is an
/// exactly-representable integer, so engine summation order is
/// irrelevant to the bits of the result.
struct IntArityKernel {
    m: usize,
    r_arrays: usize,
    weights: Arc<Vec<f64>>,
}

impl EdgeKernel for IntArityKernel {
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
    let procs = g.usize_incl(1, 6);
    Shape {
        n: g.usize_in(8..150).max(procs * 4),
        e: g.usize_in(0..300),
        m: g.usize_incl(1, 3),
        r_arrays: g.usize_incl(1, 3),
        procs,
        k: g.usize_incl(1, 4),
        dist: *g.pick(&[Distribution::Block, Distribution::Cyclic]),
        sweeps: g.usize_incl(1, 3),
        seed: g.u64_any(),
    }
}

fn build_spec(s: &Shape) -> PhasedSpec<IntArityKernel> {
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
        kernel: Arc::new(IntArityKernel {
            m: s.m,
            r_arrays: s.r_arrays,
            weights: Arc::new((0..s.e).map(|_| (next() % 1000) as f64).collect()),
        }),
        num_elements: s.n,
        indirection: Arc::new(indirection),
    }
}

// --- family 1: cross-engine agreement -----------------------------------

/// Sequential, inspector/executor, and phased engines agree bit-for-bit
/// on random static kernels and strategies.
#[test]
fn seq_ie_phased_agree_bitwise() {
    check(
        "seq_ie_phased_agree_bitwise",
        Config::cases_quick(64),
        shape,
        |s| {
            let spec = build_spec(s);
            let strat = StrategyConfig::new(s.procs, s.k, s.dist, s.sweeps);
            let cfg = SimConfig::default();
            let seq = SeqEngine::new(cfg)
                .run(&spec, &strat)
                .map_err(|e| format!("seq: {e}"))?;
            let phased = PhasedEngine::sim(cfg)
                .run(&spec, &strat)
                .map_err(|e| format!("phased: {e}"))?;
            let ie = IeEngine::sim(cfg)
                .run(&spec, &strat)
                .map_err(|e| format!("ie: {e}"))?;
            prop_assert_eq!(&seq.values, &phased.values, "seq vs phased on {s:?}");
            prop_assert_eq!(&seq.values, &ie.values, "seq vs ie on {s:?}");
            prop_assert_eq!(seq.provenance.engine, "seq");
            prop_assert_eq!(phased.provenance.engine, "phased");
            prop_assert_eq!(ie.provenance.engine, "inspector-executor");
            Ok(())
        },
    );
}

/// The gather engine agrees bit-for-bit with the other three running the
/// same sparse product expressed as a phased reduction
/// (`y[row] += A[nz]·x[col]`, LHS indirection = the row of each
/// nonzero).
#[test]
fn gather_agrees_bitwise_with_phased_formulation() {
    struct SpmvKernel {
        matrix: Arc<SparseMatrix>,
        x: Arc<Vec<f64>>,
    }
    impl EdgeKernel for SpmvKernel {
        fn num_refs(&self) -> usize {
            1
        }
        fn num_arrays(&self) -> usize {
            1
        }
        fn contrib_batch(
            &self,
            _read: &[f64],
            giters: &[u32],
            _elems: &[u32],
            _edge: &[f64],
            out: &mut [f64],
        ) {
            for (o, &gi) in out.iter_mut().zip(giters) {
                let i = gi as usize;
                *o = self.matrix.values[i] * self.x[self.matrix.col_idx[i] as usize];
            }
        }
        fn flops_per_iter(&self) -> u64 {
            2
        }
    }

    check(
        "gather_agrees_bitwise",
        Config::cases_quick(48),
        |g| {
            let procs = g.usize_incl(1, 5);
            let n = g.usize_in(8..100).max(procs * 4);
            let nnz = g.usize_in(1..8) * n;
            (n, nnz, procs, g.usize_incl(1, 3), g.u64_any())
        },
        |&(n, nnz, procs, k, seed)| {
            // Integer-valued matrix entries and vector: products up to
            // 1e6 and their sums stay exactly representable.
            let mut m = SparseMatrix::random(n, n, nnz, seed);
            let mut s = seed | 1;
            for v in &mut m.values {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *v = (s % 1000) as f64;
            }
            let m = Arc::new(m);
            let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 100) as f64).collect();

            let strat = StrategyConfig::new(procs, k, Distribution::Block, 1);
            let cfg = SimConfig::default();
            let gather = GatherEngine::sim(cfg)
                .run(
                    &GatherSpec {
                        matrix: Arc::clone(&m),
                        x: Arc::new(x.clone()),
                    },
                    &strat,
                )
                .map_err(|e| format!("gather: {e}"))?;

            // The same product as a phased reduction over nonzeros.
            let rows: Vec<u32> = (0..m.nrows as u32)
                .flat_map(|r| {
                    let lo = m.row_ptr[r as usize] as usize;
                    let hi = m.row_ptr[r as usize + 1] as usize;
                    std::iter::repeat_n(r, hi - lo)
                })
                .collect();
            let spec = PhasedSpec {
                kernel: Arc::new(SpmvKernel {
                    matrix: Arc::clone(&m),
                    x: Arc::new(x),
                }),
                num_elements: m.nrows,
                indirection: Arc::new(vec![rows]),
            };
            let seq = SeqEngine::new(cfg)
                .run(&spec, &strat)
                .map_err(|e| format!("seq: {e}"))?;
            let phased = PhasedEngine::sim(cfg)
                .run(&spec, &strat)
                .map_err(|e| format!("phased: {e}"))?;
            let ie = IeEngine::sim(cfg)
                .run(&spec, &strat)
                .map_err(|e| format!("ie: {e}"))?;
            prop_assert_eq!(&gather.values[0], &seq.values[0], "gather vs seq");
            prop_assert_eq!(&gather.values[0], &phased.values[0], "gather vs phased");
            prop_assert_eq!(&gather.values[0], &ie.values[0], "gather vs ie");
            Ok(())
        },
    );
}

// --- family 2: prepared-run determinism ----------------------------------

const EXECUTES: usize = 3;

/// Provenance must label the first execute a build and the rest reuses.
fn assert_provenance(outcomes: &[irred::RunOutcome]) {
    for (i, out) in outcomes.iter().enumerate() {
        assert_eq!(out.provenance.reused_plan, i > 0, "execute {i}");
        assert_eq!(out.provenance.executions, i as u64 + 1);
    }
}

/// Prepare-once/execute-N equals N fresh runs on random static kernels
/// (the euler shape: multi-ref, multi-array, static edge data).
#[test]
fn prepared_phased_sim_matches_fresh_runs() {
    check(
        "prepared_phased_sim_matches_fresh_runs",
        Config::cases_quick(32),
        shape,
        |s| {
            let spec = build_spec(s);
            let strat = StrategyConfig::new(s.procs, s.k, s.dist, s.sweeps);
            let engine = PhasedEngine::sim(SimConfig::default());
            let mut prepared = engine
                .prepare(&spec, &strat)
                .map_err(|e| format!("prepare: {e}"))?;
            let mut ws = Workspace::new();
            for i in 0..EXECUTES {
                let warm = engine
                    .execute(&mut prepared, &mut ws)
                    .map_err(|e| format!("execute {i}: {e}"))?;
                let fresh = engine
                    .run(&spec, &strat)
                    .map_err(|e| format!("fresh run {i}: {e}"))?;
                prop_assert_eq!(&warm.values, &fresh.values, "values, execute {i} of {s:?}");
                prop_assert_eq!(&warm.read, &fresh.read, "read state, execute {i}");
                prop_assert_eq!(warm.provenance.reused_plan, i > 0);
                prop_assert!(!fresh.provenance.reused_plan, "fresh runs never reuse");
            }
            Ok(())
        },
    );
}

/// The mvm shape: one gather plan serves many products. Each
/// `set_x` + `execute` must be bit-identical to a cold `run` on a spec
/// holding that vector.
#[test]
fn prepared_gather_set_x_matches_fresh_runs() {
    let n = 60usize;
    let matrix = Arc::new(SparseMatrix::random(n, n, 300, 17));
    let strat = StrategyConfig::new(4, 2, Distribution::Block, 1);
    let engine = GatherEngine::sim(SimConfig::default());

    let mut prepared = engine
        .prepare(
            &GatherSpec {
                matrix: Arc::clone(&matrix),
                x: Arc::new(vec![0.0; n]),
            },
            &strat,
        )
        .expect("valid gather spec");
    let mut ws = Workspace::new();

    let mut outcomes = Vec::new();
    for product in 0..EXECUTES {
        let x: Vec<f64> = (0..n).map(|i| ((i + product * 31) % 97) as f64).collect();
        prepared.set_x(&x).expect("x spans the columns");
        let warm = engine.execute(&mut prepared, &mut ws).expect("execute");
        let fresh = engine
            .run(
                &GatherSpec {
                    matrix: Arc::clone(&matrix),
                    x: Arc::new(x),
                },
                &strat,
            )
            .expect("fresh run");
        assert_eq!(warm.values, fresh.values, "product {product}");
        outcomes.push(warm);
    }
    assert_provenance(&outcomes);
}

/// The moldyn shape: a read-updating kernel whose `post_sweep` feeds
/// each sweep's outputs into the next sweep's inputs. Every execute must
/// restart from the kernel's initial read state, so repeated executes of
/// one prepared run are bit-identical to fresh runs.
#[test]
fn prepared_read_updating_kernel_matches_fresh_runs() {
    /// `x[e1] += p[e2] - p[e1]`, `x[e2] -= p[e2] - p[e1]`; after each
    /// sweep `p[v] += x[v]`. All values stay integers.
    struct DriftKernel {
        init: Arc<Vec<f64>>,
    }
    impl EdgeKernel for DriftKernel {
        fn num_refs(&self) -> usize {
            2
        }
        fn num_arrays(&self) -> usize {
            1
        }
        fn num_read_arrays(&self) -> usize {
            1
        }
        fn init_read(&self) -> Vec<f64> {
            self.init.as_ref().clone()
        }
        fn updates_read_state(&self) -> bool {
            true
        }
        fn contrib_batch(
            &self,
            read: &[f64],
            _giters: &[u32],
            elems: &[u32],
            _edge: &[f64],
            out: &mut [f64],
        ) {
            for (o, e) in out.chunks_exact_mut(2).zip(elems.chunks_exact(2)) {
                let d = read[e[1] as usize] - read[e[0] as usize];
                o[0] = d;
                o[1] = -d;
            }
        }
        fn flops_per_iter(&self) -> u64 {
            3
        }
        fn post_sweep(&self, read: &mut [f64], range: std::ops::Range<usize>, x: &[f64]) -> bool {
            for (i, v) in range.enumerate() {
                read[v] += x[i];
            }
            true
        }
        fn post_flops_per_elem(&self) -> u64 {
            1
        }
    }

    let n = 40usize;
    let mut s = 0xD1F7u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let spec = PhasedSpec {
        kernel: Arc::new(DriftKernel {
            init: Arc::new((0..n).map(|_| (next() % 50) as f64).collect()),
        }),
        num_elements: n,
        indirection: Arc::new(vec![
            (0..200).map(|_| (next() % n as u64) as u32).collect(),
            (0..200).map(|_| (next() % n as u64) as u32).collect(),
        ]),
    };

    for strat in [
        StrategyConfig::new(1, 1, Distribution::Block, 3),
        StrategyConfig::new(3, 2, Distribution::Cyclic, 3),
        StrategyConfig::new(5, 2, Distribution::Block, 2),
    ] {
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).expect("valid spec");
        let mut ws = Workspace::new();
        let mut outcomes = Vec::new();
        for i in 0..EXECUTES {
            let warm = engine.execute(&mut prepared, &mut ws).expect("execute");
            let fresh = engine.run(&spec, &strat).expect("fresh run");
            assert_eq!(warm.values, fresh.values, "P={} execute {i}", strat.procs);
            assert_eq!(warm.read, fresh.read, "P={} read state {i}", strat.procs);
            outcomes.push(warm);
        }
        assert_provenance(&outcomes);
    }
}

/// Prepared reuse on the **native** backend, under a lossless fault plan
/// (delays, reorders, duplicates — no drops): every execute and every
/// fresh run must still produce the exact integer answer the simulator
/// produces.
#[test]
fn prepared_native_lossless_matches_fresh_and_sim() {
    let mut s = 0xBEEFu64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let n = 24usize;
    let iters = 150usize;
    let spec = PhasedSpec {
        kernel: Arc::new(WeightedPairKernel {
            weights: Arc::new((0..iters).map(|_| (next() % 1000) as f64).collect()),
        }),
        num_elements: n,
        indirection: Arc::new(vec![
            (0..iters).map(|_| (next() % n as u64) as u32).collect(),
            (0..iters).map(|_| (next() % n as u64) as u32).collect(),
        ]),
    };
    let strat = StrategyConfig::new(3, 2, Distribution::Cyclic, 2);

    let reference = PhasedEngine::sim(SimConfig::default())
        .run(&spec, &strat)
        .expect("sim reference");

    let native = PhasedEngine::native(NativeConfig {
        watchdog: Duration::from_secs(5),
        faults: Some(FaultConfig::lossless(0x5EED)),
        starved_is_error: true,
        host_threads: None,
        deadline: None,
    });
    let mut prepared = native.prepare(&spec, &strat).expect("valid spec");
    let mut ws = Workspace::new();
    let mut outcomes = Vec::new();
    for i in 0..EXECUTES {
        let warm = native.execute(&mut prepared, &mut ws).expect("execute");
        let fresh = native.run(&spec, &strat).expect("fresh native run");
        assert_eq!(warm.values, reference.values, "warm vs sim, execute {i}");
        assert_eq!(fresh.values, reference.values, "fresh vs sim, run {i}");
        assert_eq!(warm.provenance.backend, "native");
        outcomes.push(warm);
    }
    assert_provenance(&outcomes);
}
