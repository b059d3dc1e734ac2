//! Property suite for the one unmetered inner loop and for tiling.
//!
//! Three contracts:
//!
//! 1. **Unmetered runs equal the metered run, bit for bit, on all
//!    inputs.** The simulator's measuring sweeps (sweeps 0–1 of each
//!    phase) run the metered `loops`, the float-order reference. Every
//!    native phase and every replayed simulator sweep runs the chunked
//!    kernel, which stages contributions in a buffer and scatters them
//!    in original iteration order — the metered loop's float
//!    operations in its order. So a native run (under a lossless fault
//!    plan) and a fully replayed simulator run must both equal the
//!    metered simulator run on *arbitrary* float inputs: across three
//!    workload families, hot-key widths of 1, 2, 3, 5 and 8 arrays (the
//!    last two on the kernel's dynamic-width arm), and a five-reference
//!    four-array kernel (20 contribution slots, also the dynamic arm).
//!
//! 2. **Tile bit-identity on whole-number weights.** Tiling reorders
//!    iterations within a phase, which reassociates the sums; on
//!    whole-number weights every partial sum is an exactly-representable
//!    integer, so any association gives the same bits. (On general
//!    floats tiling is approximate by design — that path is covered by
//!    the tolerance-based equivalence suites.)
//!
//! 3. **Tile-boundary stable order.** Within one tile bucket the tiled
//!    iteration order is exactly the untiled order filtered to that
//!    bucket (stable sort), and bucket ids are monotone non-decreasing
//!    across the phase — proven against the prepared plan's exposed
//!    `phase_order` and `node_plan` (whose first reference per row is
//!    the tiling sort key).

use std::sync::Arc;
use std::time::Duration;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use earth_model::FaultConfig;
use harness::prop::{check, Config, Gen};
use harness::prop_assert;
use irred::{
    Distribution, EdgeKernel, ExecutionConfig, PhasedEngine, PhasedSpec, ReductionEngine,
    StrategyConfig, TileChoice, Tuning, Workspace,
};
use kernels::{FamilyProblem, MolDynProblem};
use lightinspector::FlatPlan;
use workloads::{HotKeyScatter, MolDyn, PowerLawGraph};

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

/// Run one spec three ways and demand exact equality: the simulator's
/// metered run (a fresh workspace, so sweeps 0–1 of every phase run the
/// metered loop), a second execute of the same prepared plan on the same
/// workspace (every phase's cost is now cached, so every sweep is a
/// replay through the chunked kernel), and a native run under a
/// lossless fault plan (the chunked kernel on the shared region).
fn assert_unmetered_equals_metered<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    c: &Case,
) -> Result<(), String> {
    let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
    let sim = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()));
    let mut prepared = sim.prepare(spec, &strat).map_err(|e| format!("{e}"))?;
    let mut ws = Workspace::new();
    let metered = sim
        .execute(&mut prepared, &mut ws)
        .map_err(|e| format!("{e}"))?;
    let replayed = sim
        .execute(&mut prepared, &mut ws)
        .map_err(|e| format!("{e}"))?;
    prop_assert!(
        replayed.values == metered.values && replayed.read == metered.read,
        "replayed sim != metered sim for {c:?}"
    );
    let nat = PhasedEngine::new(ExecutionConfig::native(native_cfg(c.seed)))
        .run(spec, &strat)
        .map_err(|e| format!("{e}"))?;
    prop_assert!(
        nat.values == metered.values && nat.read == metered.read,
        "native (lossless faults) != metered sim for {c:?}"
    );
    Ok(())
}

#[test]
fn moldyn_native_and_replay_equal_metered() {
    check(
        "moldyn_native_and_replay_equal_metered",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let cells = 2 + c.size.min(1);
            let cutoff = 1.2 + 0.3 * c.size as f64;
            let problem = MolDynProblem::from_config(MolDyn::fcc(cells, cutoff));
            assert_unmetered_equals_metered(&problem.spec, c)
        },
    );
}

#[test]
fn powerlaw_native_and_replay_equal_metered() {
    check(
        "powerlaw_native_and_replay_equal_metered",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let nodes = 32 + 32 * c.size;
            let edges = nodes * (3 + c.size);
            let alpha = 0.5 + (c.seed % 4) as f64 * 0.7;
            let g =
                PowerLawGraph::generate(nodes, edges, alpha, c.seed).map_err(|e| format!("{e}"))?;
            let p = FamilyProblem::from_family(g.to_family(c.seed));
            assert_unmetered_equals_metered(&p.spec, c)
        },
    );
}

#[test]
fn hotkey_native_and_replay_equal_metered() {
    check(
        "hotkey_native_and_replay_equal_metered",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let keys = 48 + 32 * c.size;
            let rows = 200 + 150 * c.size;
            let hot_frac = [0.0, 0.6, 0.95, 0.99][(c.seed % 4) as usize];
            // Widths past four arrays run the kernel's dynamic arm.
            let components = [1, 2, 3, 5, 8][(c.seed >> 2) as usize % 5];
            let d = HotKeyScatter::generate(keys, rows, 2, hot_frac, components, c.seed)
                .map_err(|e| format!("{e}"))?;
            let p = FamilyProblem::from_family(d.to_family(c.seed));
            assert_unmetered_equals_metered(&p.spec, c)
        },
    );
}

/// Five references × four arrays: 20 contribution slots per iteration,
/// wider than the kernel's const arms, with arbitrary-float
/// contributions (any reordering of the sums shows in the bits).
#[derive(Debug)]
struct WideKernel {
    weights: Vec<f64>,
}

impl EdgeKernel for WideKernel {
    fn num_refs(&self) -> usize {
        5
    }

    fn num_arrays(&self) -> usize {
        4
    }

    fn contrib(&self, _read: &[f64], iter: usize, _elems: &[u32], out: &mut [f64]) {
        let w = self.weights[iter];
        for r in 0..5 {
            for a in 0..4 {
                out[r * 4 + a] = w * (1.0 + 0.37 * r as f64) - 0.113 * a as f64 * w * w;
            }
        }
    }

    fn flops_per_iter(&self) -> u64 {
        60
    }
}

#[test]
fn wide_kernel_native_and_replay_equal_metered() {
    check(
        "wide_kernel_native_and_replay_equal_metered",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let num_elements = 24 + 24 * c.size;
            let iters = 120 + 100 * c.size;
            let mut rng = c.seed | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let weights = (0..iters)
                .map(|_| (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
                .collect();
            let indirection = (0..5)
                .map(|_| {
                    (0..iters)
                        .map(|_| (next() % num_elements as u64) as u32)
                        .collect()
                })
                .collect();
            let spec = PhasedSpec {
                kernel: Arc::new(WideKernel { weights }),
                num_elements,
                indirection: Arc::new(indirection),
            };
            assert_unmetered_equals_metered(&spec, c)
        },
    );
}

// ---------------------------------------------------------------------
// Tiling
// ---------------------------------------------------------------------

/// A multi-ref reduction whose every contribution is a small integer:
/// partial sums stay exactly representable, so *any* summation order
/// produces identical bits — the precondition for the tiled-vs-untiled
/// exactness property.
#[derive(Debug)]
struct IntWeightKernel {
    num_refs: usize,
    weights: Vec<f64>,
}

impl EdgeKernel for IntWeightKernel {
    fn num_refs(&self) -> usize {
        self.num_refs
    }

    fn num_arrays(&self) -> usize {
        1
    }

    fn contrib(&self, _read: &[f64], iter: usize, _elems: &[u32], out: &mut [f64]) {
        let w = self.weights[iter];
        for (r, slot) in out.iter_mut().enumerate().take(self.num_refs) {
            *slot = w * (r + 1) as f64;
        }
    }

    fn flops_per_iter(&self) -> u64 {
        self.num_refs as u64
    }
}

fn int_weight_spec(c: &Case) -> PhasedSpec<IntWeightKernel> {
    let num_elements = 24 + 24 * c.size;
    let iters = 120 + 100 * c.size;
    let num_refs = 1 + (c.seed % 3) as usize;
    let mut rng = c.seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let weights = (0..iters).map(|_| (next() % 10) as f64).collect();
    let indirection: Vec<Vec<u32>> = (0..num_refs)
        .map(|_| {
            (0..iters)
                .map(|_| (next() % num_elements as u64) as u32)
                .collect()
        })
        .collect();
    PhasedSpec {
        kernel: Arc::new(IntWeightKernel { num_refs, weights }),
        num_elements,
        indirection: Arc::new(indirection),
    }
}

#[test]
fn tiled_equals_untiled_on_integer_weights() {
    check(
        "tiled_equals_untiled_on_integer_weights",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let spec = int_weight_spec(c);
            let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
            let untiled = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()))
                .run(&spec, &strat)
                .map_err(|e| format!("{e}"))?;
            let spans = [
                TileChoice::Elements(1),
                TileChoice::Elements(3),
                TileChoice::Elements(8 + (c.seed % 16) as usize),
                TileChoice::Auto,
            ];
            for tile in spans {
                let tuning = Tuning::new().tile(tile);
                let sim = PhasedEngine::new(
                    ExecutionConfig::sim(SimConfig::default()).with_tuning(tuning),
                )
                .run(&spec, &strat)
                .map_err(|e| format!("{e}"))?;
                prop_assert!(
                    sim.values == untiled.values,
                    "sim tiled {tile:?} != untiled for {c:?}"
                );
                let nat = PhasedEngine::new(
                    ExecutionConfig::native(native_cfg(c.seed)).with_tuning(tuning),
                )
                .run(&spec, &strat)
                .map_err(|e| format!("{e}"))?;
                prop_assert!(
                    nat.values == untiled.values,
                    "native tiled {tile:?} (lossless faults) != untiled for {c:?}"
                );
            }
            Ok(())
        },
    );
}

/// The first-reference scatter target of each row of phase `p`, in
/// schedule order: the tiling sort key.
fn first_refs(plan: &FlatPlan, p: usize) -> Vec<u32> {
    plan.phase_refs(p)
        .iter()
        .step_by(plan.m())
        .copied()
        .collect()
}

/// The stable-order proof: prepare the same spec untiled and tiled and
/// compare phase by phase. Tiled targets must walk tile buckets in
/// non-decreasing order, and filtering the untiled order to one bucket
/// must reproduce the tiled order within that bucket exactly.
#[test]
fn tile_boundaries_preserve_stable_order() {
    check(
        "tile_boundaries_preserve_stable_order",
        Config::cases_quick(48),
        gen_case,
        |c| {
            let spec = int_weight_spec(c);
            let strat = StrategyConfig::new(c.procs, c.k, c.dist, c.sweeps);
            let span = 2 + (c.seed % 13) as usize;
            let engine = |tile| {
                PhasedEngine::new(
                    ExecutionConfig::sim(SimConfig::default())
                        .with_tuning(Tuning::new().tile(tile)),
                )
            };
            let plain = engine(TileChoice::Off)
                .prepare(&spec, &strat)
                .map_err(|e| format!("{e}"))?;
            let tiled = engine(TileChoice::Elements(span))
                .prepare(&spec, &strat)
                .map_err(|e| format!("{e}"))?;
            prop_assert!(
                tiled.tile_span() == Some(span),
                "requested span {span} not recorded for {c:?}"
            );
            for proc in 0..tiled.num_procs() {
                for p in 0..tiled.num_phases() {
                    let t_order = tiled.phase_order(proc, p);
                    let t_targets = first_refs(tiled.node_plan(proc), p);
                    let u_order = plain.phase_order(proc, p);
                    let u_targets = first_refs(plain.node_plan(proc), p);
                    prop_assert!(
                        t_order.len() == u_order.len(),
                        "tiling changed the iteration count in proc {proc} phase {p} for {c:?}"
                    );
                    // Bucket ids never decrease across the tiled phase.
                    let buckets: Vec<usize> =
                        t_targets.iter().map(|&t| t as usize / span).collect();
                    prop_assert!(
                        buckets.windows(2).all(|w| w[0] <= w[1]),
                        "tile buckets not monotone in proc {proc} phase {p} for {c:?}"
                    );
                    // Within each bucket: exactly the untiled subsequence.
                    let max_bucket = buckets.iter().copied().max().unwrap_or(0);
                    for b in 0..=max_bucket {
                        let tiled_in_b: Vec<u32> = t_order
                            .iter()
                            .zip(&buckets)
                            .filter(|(_, &tb)| tb == b)
                            .map(|(&g, _)| g)
                            .collect();
                        let untiled_in_b: Vec<u32> = u_order
                            .iter()
                            .zip(&u_targets)
                            .filter(|(_, &t)| t as usize / span == b)
                            .map(|(&g, _)| g)
                            .collect();
                        prop_assert!(
                            tiled_in_b == untiled_in_b,
                            "bucket {b} of proc {proc} phase {p} is not the stable \
                             untiled subsequence for {c:?}"
                        );
                    }
                }
            }
            Ok(())
        },
    );
}
