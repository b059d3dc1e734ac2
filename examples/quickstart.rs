//! Quickstart: run an irregular reduction under the phased strategy.
//!
//! Builds the paper's Figure-1 loop shape — `X[IA1[i]] += f(i)`,
//! `X[IA2[i]] += g(i)` — on a random graph, executes it (a) sequentially,
//! (b) on the simulated 8-node EARTH machine, and (c) on real host
//! threads, and checks all three agree.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use irred::{
    approx_eq, seq_reduction, Distribution, EdgeKernel, ExecutionConfig, PhasedEngine, PhasedSpec,
    ReductionEngine, StrategyConfig,
};

/// The loop body: contributions `w` and `2w` through the two references.
struct PairKernel {
    weights: Arc<Vec<f64>>,
}

impl EdgeKernel for PairKernel {
    fn contrib(&self, _read: &[f64], iter: usize, _elems: &[u32], out: &mut [f64]) {
        let w = self.weights[iter];
        out[0] = w; // through IA1
        out[1] = 2.0 * w; // through IA2
    }
}

fn main() {
    // A random "mesh": 10 000 elements, 60 000 iterations.
    // (`REPRO_QUICK=1` shrinks everything for smoke tests.)
    let quick = std::env::var("REPRO_QUICK").is_ok_and(|v| v == "1");
    let n = if quick { 500usize } else { 10_000 };
    let e = if quick { 2_000usize } else { 60_000 };
    let mut s = 0xABCDu64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let spec = PhasedSpec {
        kernel: Arc::new(PairKernel {
            weights: Arc::new((0..e).map(|_| (next() % 1000) as f64 / 100.0).collect()),
        }),
        num_elements: n,
        indirection: Arc::new(vec![
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        ]),
    };

    let sweeps = if quick { 2 } else { 10 };
    let cfg = SimConfig::default();

    // (a) sequential reference, metered on the same cost model.
    let seq = seq_reduction(&spec, sweeps, cfg);
    println!("sequential:  {:>8.3} simulated seconds", seq.seconds);

    // (b) phased strategy on the simulated EARTH machine (P=8, k=2, cyclic).
    let strat = StrategyConfig::new(8, 2, Distribution::Cyclic, sweeps);
    let sim = PhasedEngine::sim(cfg)
        .run(&spec, &strat)
        .expect("valid spec");
    println!(
        "phased sim:  {:>8.3} simulated seconds on {} nodes (speedup {:.2})",
        sim.seconds,
        strat.procs,
        seq.seconds / sim.seconds
    );
    println!(
        "             {} messages, {} payload bytes — independent of the indirection contents",
        sim.messages(),
        sim.bytes()
    );

    // (c) the same program on real OS threads: the same schedule and
    // the same inner loop as the simulator, so the same bits.
    let native = PhasedEngine::native(NativeConfig::default())
        .run(&spec, &strat)
        .expect("native run");
    println!(
        "phased host: {:>8.2?} wall on {} threads",
        native.wall, strat.procs
    );

    assert!(
        approx_eq(&sim.values[0], &seq.x[0], 1e-9),
        "sim result mismatch"
    );
    assert_eq!(native.values, sim.values, "native result mismatch");
    println!("all three executions agree ✓");

    // Visualize the overlap: trace one 2-sweep run and fold the event
    // stream into a Gantt chart plus the per-phase timeline table.
    let small = StrategyConfig::new(8, 2, Distribution::Cyclic, 2);
    let t = PhasedEngine::new(ExecutionConfig::sim(cfg).traced())
        .run(&spec, &small)
        .expect("valid spec");
    println!("\nEU occupancy (2 sweeps, {} nodes, k = 2):", small.procs);
    print!(
        "{}",
        earth_model::render_gantt(&t.trace, small.procs, t.time_cycles, 72)
    );
    println!("\nPhase timeline:");
    print!("{}", t.timeline().table());
}
