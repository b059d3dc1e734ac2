//! Property test: random fiber dataflow graphs produce identical results
//! on the native and simulated backends. On the in-tree
//! [`harness::prop`] harness.
//!
//! Programs are layered DAGs: `L` layers of fibers spread over `P`
//! nodes; each fiber accumulates the values it received, adds its own
//! id, and forwards partial sums to its consumers in the next layer.
//! Both backends must deliver every message and fire every fiber, so the
//! final per-node sums agree exactly (integer arithmetic). The native side
//! runs with one host thread (every node multiplexed on one event loop),
//! two host threads, and the host default, so the multiplexed loop is
//! exercised whatever the machine's core count.
//!
//! The same graphs, run twice on the simulator under a chaos fault plan
//! (drops starve fibers, duplicates and delays reorder arrivals), must
//! replay exactly: trace CSV, `RunStats` and states.

use std::sync::Arc;

use earth_model::native::{run_native_with, NativeConfig, NativeCtx};
use earth_model::sim::{run_sim, run_sim_traced, SimConfig, SimCtx};
use earth_model::{mailbox_key, FaultConfig, FiberCtx, FiberSpec, MachineProgram, RingSink};
use harness::prop::{check, Config, Gen};
use harness::prop_assert_eq;

/// Node state: accumulated integer per node.
type State = i64;

/// Build the same program for any backend context.
fn build<C: FiberCtx<State> + 'static>(
    layers: &[Vec<usize>],         // layer -> node of each fiber
    edges: &[Vec<(usize, usize)>], // layer -> (src fiber idx, dst fiber idx in next layer)
    procs: usize,
) -> MachineProgram<State, C> {
    let mut prog: MachineProgram<State, C> = MachineProgram::new();
    for _ in 0..procs {
        prog.add_node(0);
    }
    // Fiber slot ids: assign per node in construction order.
    let mut slot_of: Vec<Vec<u32>> = Vec::new(); // layer -> fiber -> slot
    let mut next_slot = vec![0u32; procs];
    for nodes in layers {
        let mut slots = Vec::new();
        for &n in nodes {
            slots.push(next_slot[n]);
            next_slot[n] += 1;
        }
        slot_of.push(slots);
    }
    // In-degrees.
    let mut indeg: Vec<Vec<u32>> = layers.iter().map(|l| vec![0u32; l.len()]).collect();
    for (li, es) in edges.iter().enumerate() {
        for &(_, dst) in es {
            indeg[li + 1][dst] += 1;
        }
    }

    for (li, nodes) in layers.iter().enumerate() {
        for (fi, &n) in nodes.iter().enumerate() {
            let my_id = (li * 1000 + fi) as i64;
            let key = mailbox_key(li as u32, fi as u32);
            let consumers: Vec<(usize, u32, u64)> = edges
                .get(li)
                .map(|es| {
                    es.iter()
                        .filter(|&&(src, _)| src == fi)
                        .map(|&(_, dst)| {
                            (
                                layers[li + 1][dst],
                                slot_of[li + 1][dst],
                                mailbox_key(li as u32 + 1, dst as u32),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            let count = indeg[li][fi];
            prog.node_mut(n).add_fiber(FiberSpec::new(
                "layer",
                count,
                move |s: &mut State, cx: &mut C| {
                    let mut acc = my_id;
                    while let Some(v) = cx.recv(key) {
                        acc += v.expect_int();
                    }
                    *s += acc;
                    for &(dn, dslot, dkey) in &consumers {
                        cx.data_sync(dn, dkey, earth_model::Value::Int(acc), dslot);
                    }
                },
            ));
        }
    }
    prog
}

/// Random layered DAG: `procs`, fiber layers, edges between consecutive
/// layers (every next-layer fiber gets at least one producer so nothing
/// starves).
#[derive(Debug, Clone)]
struct Scenario {
    procs: usize,
    layers: Vec<Vec<usize>>,
    edges: Vec<Vec<(usize, usize)>>,
}

fn scenario(g: &mut Gen) -> Scenario {
    let procs = g.usize_incl(2, 5);
    let nlayers = g.usize_incl(1, 4);
    let layers: Vec<Vec<usize>> = (0..nlayers)
        .map(|_| g.vec(1, 4, |g| g.usize_in(0..procs)))
        .collect();
    let mut edges = Vec::new();
    for li in 0..layers.len().saturating_sub(1) {
        let (src_n, dst_n) = (layers[li].len(), layers[li + 1].len());
        let mut es: Vec<(usize, usize)> =
            g.vec(0, 6, |g| (g.usize_in(0..src_n), g.usize_in(0..dst_n)));
        es.extend((0..dst_n).map(|d| (d % src_n, d)));
        edges.push(es);
    }
    Scenario {
        procs,
        layers,
        edges,
    }
}

#[test]
fn native_and_sim_agree() {
    check("native_and_sim_agree", Config::cases(64), scenario, |s| {
        let sim = run_sim(
            build::<SimCtx<State>>(&s.layers, &s.edges, s.procs),
            SimConfig::default(),
        );
        prop_assert_eq!(sim.stats.unfired_fibers, 0u64);
        for host_threads in [Some(1), Some(2), None] {
            let cfg = NativeConfig {
                host_threads,
                ..NativeConfig::default()
            };
            let nat = run_native_with(build::<NativeCtx<State>>(&s.layers, &s.edges, s.procs), cfg)
                .unwrap();
            prop_assert_eq!(&sim.states, &nat.states);
            prop_assert_eq!(sim.stats.ops.fibers_fired, nat.stats.ops.fibers_fired);
            prop_assert_eq!(sim.stats.ops.messages, nat.stats.ops.messages);
            prop_assert_eq!(sim.stats.ops.syncs, nat.stats.ops.syncs);
            prop_assert_eq!(sim.stats.ops.local_messages, nat.stats.ops.local_messages);
            prop_assert_eq!(nat.stats.unfired_fibers, 0u64);
        }
        Ok(())
    });
}

/// A fixed graph with self-addressed `data_sync`s: node 0's first fiber
/// sends to a second fiber on node 0 and to one on node 1, and both
/// forward to a third fiber on node 0. Of the four messages, two are
/// local, and both backends count each of them once.
#[test]
fn self_addressed_data_sync_counts_as_local_on_both_backends() {
    let layers = vec![vec![0], vec![0, 1], vec![0]];
    let edges = vec![vec![(0, 0), (0, 1)], vec![(0, 0), (1, 0)]];
    let sim = run_sim(
        build::<SimCtx<State>>(&layers, &edges, 2),
        SimConfig::default(),
    );
    let nat = run_native_with(
        build::<NativeCtx<State>>(&layers, &edges, 2),
        NativeConfig::default(),
    )
    .unwrap();
    assert_eq!(sim.states, nat.states);
    assert_eq!(sim.stats.ops.messages, 4);
    assert_eq!(sim.stats.ops.local_messages, 2);
    assert_eq!(nat.stats.ops.local_messages, 2);
}

#[test]
fn sim_is_reproducible() {
    check("sim_is_reproducible", Config::cases(64), scenario, |s| {
        let a = run_sim(
            build::<SimCtx<State>>(&s.layers, &s.edges, s.procs),
            SimConfig::default(),
        );
        let b = run_sim(
            build::<SimCtx<State>>(&s.layers, &s.edges, s.procs),
            SimConfig::default(),
        );
        prop_assert_eq!(a.time_cycles, b.time_cycles);
        prop_assert_eq!(a.states, b.states);
        Ok(())
    });
}

/// Chaos plans drop and duplicate messages, so fibers can starve: the
/// run still terminates, and a replay with the same seed starves the
/// same fibers at the same cycles, event for event.
#[test]
fn sim_chaos_replay_is_deterministic() {
    check(
        "sim_chaos_replay_is_deterministic",
        Config::cases(48),
        |g| (scenario(g), g.u64_any()),
        |(s, seed)| {
            let run = || {
                let cfg = SimConfig {
                    faults: Some(FaultConfig::chaos(*seed)),
                    ..SimConfig::default()
                };
                let sink = Arc::new(RingSink::new(s.procs, 1 << 12));
                let prog = build::<SimCtx<State>>(&s.layers, &s.edges, s.procs);
                let r = run_sim_traced(prog, cfg, sink);
                (trace::events_to_csv(&r.trace), r)
            };
            let (csv_a, a) = run();
            let (csv_b, b) = run();
            prop_assert_eq!(csv_a, csv_b);
            prop_assert_eq!(a.time_cycles, b.time_cycles);
            prop_assert_eq!(&a.stats, &b.stats);
            prop_assert_eq!(a.states, b.states);
            Ok(())
        },
    );
}
