//! Discrete-event simulation backend.
//!
//! This is the reproduction's stand-in for the cycle-accurate MANNA
//! simulator the paper used (§5.2). Each node has an **EU** that executes
//! one fiber at a time (non-preemptive, charged `fiber_switch_cycles`
//! plus whatever the body charges through the [`FiberCtx`] accounting
//! methods) and an **SU** that handles synchronization and communication
//! concurrently with the EU — the "manna-dual" mode of the paper, where
//! one i860XP serves as EU and the second as SU. Remote operations pay a
//! fixed network latency plus a bandwidth term, and each node's outgoing
//! link serializes its transfers.
//!
//! The simulation executes the *real* computation (fiber bodies run and
//! produce correct values) while time is advanced from the cost model,
//! so results can be validated against sequential references in the same
//! run that produces timing.
//!
//! The event loop is one serial discrete-event loop over one heap,
//! ordered by the content-derived key `(time, source node, per-source
//! emission seq)`: simulated cycles, [`RunStats`] and the drained trace
//! stream are byte-identical across runs of the same program.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

use memsim::{MemConfig, MemModel};
use trace::{NullSink, TraceEvent, TraceKind, TraceSink};

use crate::faults::{fault_kind, FaultConfig, FaultPlan, MessageFault};
use crate::program::{FiberCtx, FiberSpec, MachineProgram, SlotId};
use crate::stats::{NodeStats, OpCounts, RunStats};
use crate::value::Value;

/// Cost parameters of the simulated machine.
///
/// Defaults approximate a MANNA node: 50 MHz i860XP, 16 KiB 4-way data
/// cache, crossbar network with ~16 µs end-to-end message latency and
/// ~50 MB/s per-link bandwidth. `EXPERIMENTS.md` documents the
/// calibration against the paper's sequential timings.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    pub mem: MemConfig,
    /// EU cycles to schedule and enter a fiber, including the phase
    /// prologue of generated code (portion bookkeeping, loop setup) —
    /// this is what makes many tiny phases (large `k·P`) more expensive
    /// than few large ones, the paper's "threading overhead" (§5.3).
    pub fiber_switch_cycles: u64,
    /// SU cycles to process one arriving sync/message.
    pub su_op_cycles: u64,
    /// Fixed network cycles for any remote operation.
    pub net_latency_cycles: u64,
    /// Payload bytes the link moves per cycle.
    pub bytes_per_cycle: u64,
    /// Cycles per floating-point operation.
    pub flop_cycles: u64,
    /// Clock rate used to convert cycles to seconds in reports.
    pub clock_hz: u64,
    /// Extra cycles per iteration of inspector-generated phased loops,
    /// over the plain sequential loop: the buffer-management and frame
    /// bookkeeping the EARTH-C compiler emits (calibrated against the
    /// paper's 2-processor euler/moldyn overheads — see EXPERIMENTS.md).
    pub phased_iter_overhead_cycles: u64,
    /// Extra cycles per second-loop copy operation, same source.
    pub phased_copy_overhead_cycles: u64,
    /// Optional deterministic fault plan (see [`crate::faults`]). The
    /// simulator injects the *message* faults — delay (extra latency
    /// cycles), reorder (one extra network hop), duplicate (two arrival
    /// events sharing one operation id, deduplicated at the SU), drop
    /// (the arrival event is never scheduled). Fiber panic/stall rates
    /// are native-backend concepts and are ignored here.
    pub faults: Option<FaultConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mem: MemConfig::i860xp(),
            fiber_switch_cycles: 300,
            su_op_cycles: 20,
            net_latency_cycles: 800,
            bytes_per_cycle: 1,
            flop_cycles: 2,
            clock_hz: 50_000_000,
            phased_iter_overhead_cycles: 50,
            phased_copy_overhead_cycles: 16,
            faults: None,
        }
    }
}

impl SimConfig {
    /// Convert a cycle count to seconds at this machine's clock.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }

    /// The identity: the simulator is one serial event loop. Kept only
    /// because the benchmark package (`benchmark/src/layers.rs`) names
    /// it.
    pub fn with_host_threads(self, _threads: usize) -> Self {
        self
    }
}

/// Result of [`run_sim`].
#[derive(Debug)]
pub struct SimReport<S> {
    pub states: Vec<S>,
    /// Makespan in simulated cycles.
    pub time_cycles: u64,
    /// Makespan in simulated seconds.
    pub seconds: f64,
    pub stats: RunStats,
    /// The structured events drained from the run's [`TraceSink`]
    /// (empty when [`run_sim`]'s implicit [`NullSink`] was used).
    pub trace: Vec<TraceEvent>,
}

/// Render a trace as an ASCII Gantt chart, one row per node: `#` where
/// the EU is busy, `.` where it idles — a quick visual check of how well
/// communication hides behind computation. Busy stretches come from the
/// [`TraceKind::FiberRetire`] events (each carries its execution time).
pub fn render_gantt(trace: &[TraceEvent], num_nodes: usize, total: u64, width: usize) -> String {
    let mut rows = vec![vec![false; width]; num_nodes];
    let scale = |t: u64| ((t as u128 * width as u128) / total.max(1) as u128) as usize;
    for ev in trace {
        let TraceKind::FiberRetire { exec, .. } = ev.kind else {
            continue;
        };
        let node = ev.node as usize;
        if node >= num_nodes {
            continue;
        }
        let (a, b) = (
            scale(ev.ts.saturating_sub(exec)),
            scale(ev.ts).min(width.saturating_sub(1)),
        );
        for cell in &mut rows[node][a..=b.min(width - 1)] {
            *cell = true;
        }
    }
    let mut out = String::new();
    for (n, row) in rows.iter().enumerate() {
        out.push_str(&format!("node {n:>3} |"));
        for &busy in row {
            out.push(if busy { '#' } else { '.' });
        }
        out.push('|');
        out.push('\n');
    }
    out
}

/// The [`FiberCtx`] implementation for the simulator.
///
/// Owned pieces of the executing node (mailbox, memory model) are moved
/// in for the duration of one fiber execution so the context type carries
/// no lifetimes. The mailbox is a `BTreeMap` so every per-node state walk
/// is in sorted key order — no iteration-order nondeterminism can leak
/// into results, whichever core runs the node.
pub struct SimCtx<S> {
    pub(crate) node: usize,
    pub(crate) num_nodes: usize,
    pub(crate) now: u64,
    pub(crate) charged: u64,
    pub(crate) flop_cycles: u64,
    pub(crate) mailbox: BTreeMap<u64, VecDeque<Value>>,
    pub(crate) mem: MemModel,
    pub(crate) ops: Vec<SimOp>,
    pub(crate) tracing: bool,
    /// Structured events the fiber body emitted, with the cycles charged
    /// at emission time — stamped `fire_time + offset` when the fiber
    /// retires, so timestamps stay deterministic.
    pub(crate) tbuf: Vec<(u64, TraceKind)>,
    pub(crate) _state: PhantomData<fn(&mut S)>,
}

pub(crate) enum SimOp {
    Sync {
        node: usize,
        slot: SlotId,
    },
    /// A message of `bytes`; `deposit` is its mailbox payload, `None`
    /// for an in-place hand-off.
    Data {
        node: usize,
        bytes: u64,
        deposit: Option<(u64, Value)>,
        slot: SlotId,
    },
}

impl<S> FiberCtx<S> for SimCtx<S> {
    fn node_id(&self) -> usize {
        self.node
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn sync(&mut self, node: usize, slot: SlotId) {
        self.ops.push(SimOp::Sync { node, slot });
    }

    fn data_sync(&mut self, node: usize, key: u64, value: Value, slot: SlotId) {
        self.ops.push(SimOp::Data {
            node,
            bytes: value.bytes(),
            deposit: Some((key, value)),
            slot,
        });
    }

    /// Charged exactly like a `bytes`-sized `data_sync`: link occupancy,
    /// latency, counters, events and fault fate — only the deposit is
    /// missing.
    fn handoff(&mut self, node: usize, slot: SlotId, bytes: u64) {
        self.ops.push(SimOp::Data {
            node,
            bytes,
            deposit: None,
            slot,
        });
    }

    fn recv(&mut self, key: u64) -> Option<Value> {
        let q = self.mailbox.get_mut(&key)?;
        let v = q.pop_front();
        if q.is_empty() {
            self.mailbox.remove(&key);
        }
        v
    }

    #[inline]
    fn charge(&mut self, cycles: u64) {
        self.charged += cycles;
    }

    #[inline]
    fn flops(&mut self, n: u64) {
        self.charged += n * self.flop_cycles;
    }

    #[inline]
    fn load(&mut self, addr: u64) {
        self.charged += self.mem.read(addr);
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        self.charged += self.mem.write(addr);
    }

    fn charged(&self) -> u64 {
        self.charged
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn is_sim(&self) -> bool {
        true
    }

    #[inline]
    fn trace_enabled(&self) -> bool {
        self.tracing
    }

    #[inline]
    fn trace(&mut self, kind: TraceKind) {
        if self.tracing {
            self.tbuf.push((self.charged, kind));
        }
    }
}

/// Execute `prog` on the simulated machine. Deterministic: identical
/// programs produce identical reports. Untraced: every potential event
/// costs one predictable branch.
pub fn run_sim<S>(prog: MachineProgram<S, SimCtx<S>>, cfg: SimConfig) -> SimReport<S> {
    run_sim_traced(prog, cfg, Arc::new(NullSink))
}

/// [`run_sim`] with a [`TraceSink`]: structured events (fiber
/// fire/retire, syncs, messages with byte counts, fault injections, and
/// whatever the fiber bodies emit through [`FiberCtx::trace`]) are
/// recorded cycle-stamped as the simulation runs, then drained into
/// [`SimReport::trace`]. Because recording never consults a clock and
/// every event is tagged with the simulated node that caused it, the
/// drained stream is byte-identical across runs of the same program.
pub fn run_sim_traced<S>(
    prog: MachineProgram<S, SimCtx<S>>,
    cfg: SimConfig,
    sink: Arc<dyn TraceSink>,
) -> SimReport<S> {
    let mut m = Machine::new(prog, cfg, sink);
    m.seed();
    while let Some(Reverse(HeapEv { key, ev })) = m.heap.pop() {
        m.handle(key.time, ev);
    }
    m.finish()
}

/// Content-derived event ordering key: `(time, source node, per-source
/// emission seq)`. Each node numbers its own emissions, so equal
/// timestamps break ties by who emitted what, not by global push order.
/// The pinned figure cycles and trace streams depend on this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: u64,
    src: u32,
    seq: u64,
}

enum Ev {
    /// `op` is a dedup-filter operation id, present only in faulted runs.
    SyncArrive {
        node: usize,
        slot: SlotId,
        op: Option<u64>,
    },
    DataArrive {
        node: usize,
        from: usize,
        bytes: u64,
        deposit: Option<(u64, Value)>,
        slot: SlotId,
        op: Option<u64>,
    },
    EuIdle {
        node: usize,
    },
}

struct HeapEv {
    key: EventKey,
    ev: Ev,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

struct SimNode<S> {
    state: S,
    /// Fiber bodies by slot; a body is taken when its fiber fires, so a
    /// `Some` left at the end of the run is an unfired fiber.
    bodies: Vec<Option<FiberSpec<S, SimCtx<S>>>>,
    counts: Vec<i64>,
    mailbox: BTreeMap<u64, VecDeque<Value>>,
    /// Moved into the [`SimCtx`] while one of the node's fibers runs.
    mem: Option<MemModel>,
    ready: VecDeque<SlotId>,
    eu_busy: bool,
    out_link_free: u64,
    stats: NodeStats,
}

/// Build the per-node runtime state from a program.
fn build_nodes<S>(prog: MachineProgram<S, SimCtx<S>>, cfg: &SimConfig) -> Vec<SimNode<S>> {
    let mut nodes = Vec::with_capacity(prog.num_nodes());
    for nb in prog.nodes {
        nodes.push(SimNode {
            state: nb.state,
            counts: nb.fibers.iter().map(|f| f.sync_count as i64).collect(),
            bodies: nb.fibers.into_iter().map(Some).collect(),
            mailbox: BTreeMap::new(),
            mem: Some(MemModel::new(cfg.mem)),
            ready: VecDeque::new(),
            eu_busy: false,
            out_link_free: 0,
            stats: NodeStats::default(),
        });
    }
    nodes
}

/// The whole simulated machine: every node, the event heap, and the
/// per-source emission counters behind [`EventKey`].
struct Machine<S> {
    cfg: SimConfig,
    sink: Arc<dyn TraceSink>,
    tracing: bool,
    faults: Option<FaultPlan>,
    nodes: Vec<SimNode<S>>,
    heap: BinaryHeap<Reverse<HeapEv>>,
    emit_seq: Vec<u64>,
    ops: OpCounts,
    now: u64,
}

impl<S> Machine<S> {
    fn new(prog: MachineProgram<S, SimCtx<S>>, cfg: SimConfig, sink: Arc<dyn TraceSink>) -> Self {
        let nodes = build_nodes(prog, &cfg);
        Machine {
            cfg,
            tracing: sink.enabled(),
            sink,
            faults: cfg.faults.filter(|f| !f.is_noop()).map(FaultPlan::new),
            emit_seq: vec![0u64; nodes.len()],
            nodes,
            heap: BinaryHeap::new(),
            ops: OpCounts::default(),
            now: 0,
        }
    }

    #[inline]
    fn record(&self, ts: u64, node: usize, kind: TraceKind) {
        if self.tracing {
            self.sink.record(TraceEvent::new(ts, node as u32, kind));
        }
    }

    /// Schedule an event emitted by node `src`, keyed by that node's
    /// next emission number.
    fn push(&mut self, src: usize, time: u64, ev: Ev) {
        let seq = self.emit_seq[src];
        self.emit_seq[src] += 1;
        let key = EventKey {
            time,
            src: src as u32,
            seq,
        };
        self.heap.push(Reverse(HeapEv { key, ev }));
    }

    /// Decide a message's fate and allocate its dedup-filter id (faulted
    /// runs only — fault-free runs skip both).
    fn message_fate(&self, src: usize, dst: usize, slot: SlotId) -> (MessageFault, Option<u64>) {
        match &self.faults {
            None => (MessageFault::Deliver, None),
            Some(p) => (p.message_fault(src, dst, slot), Some(p.next_op_id())),
        }
    }

    /// Extra arrival latency implied by a fault. Reorder is modeled as
    /// one extra network hop: enough to land behind every same-batch
    /// sibling without losing the message.
    fn fault_delay_cycles(&self, fate: MessageFault) -> u64 {
        match fate {
            MessageFault::Delay { micros } => micros * (self.cfg.clock_hz / 1_000_000).max(1),
            MessageFault::Reorder => self.cfg.net_latency_cycles + self.cfg.su_op_cycles,
            _ => 0,
        }
    }

    /// True when an arriving operation is a duplicate the SU's dedup
    /// filter must swallow.
    fn suppressed(&self, op: Option<u64>) -> bool {
        match (&self.faults, op) {
            (Some(p), Some(id)) => !p.first_delivery(id),
            _ => false,
        }
    }

    /// Decrement a slot; enqueue its fiber when it hits zero.
    fn dec(&mut self, node: usize, slot: SlotId, t: u64) {
        let n = &mut self.nodes[node];
        let c = &mut n.counts[slot as usize];
        *c -= 1;
        if *c == 0 {
            n.ready.push_back(slot);
            self.try_start(node, t);
        }
    }

    fn try_start(&mut self, node: usize, t: u64) {
        let n = &mut self.nodes[node];
        if n.eu_busy {
            return;
        }
        if let Some(slot) = n.ready.pop_front() {
            self.run_fiber(node, slot, t);
        }
    }

    fn run_fiber(&mut self, node: usize, slot: SlotId, t: u64) {
        let cfg = self.cfg;
        let num_nodes = self.nodes.len();
        let n = &mut self.nodes[node];
        n.eu_busy = true;
        let spec = n.bodies[slot as usize]
            .take()
            .expect("ready fiber has a body");
        let mut ctx = SimCtx {
            node,
            num_nodes,
            now: t,
            charged: 0,
            flop_cycles: cfg.flop_cycles,
            mailbox: std::mem::take(&mut n.mailbox),
            mem: n.mem.take().expect("an idle node holds its memory"),
            ops: Vec::new(),
            tracing: self.tracing,
            tbuf: Vec::new(),
            _state: PhantomData,
        };
        (spec.body)(&mut n.state, &mut ctx);
        n.mailbox = ctx.mailbox;
        n.mem = Some(ctx.mem);
        let exec = cfg.fiber_switch_cycles + ctx.charged;
        let end = t + exec;
        n.stats.busy_cycles += exec;
        n.stats.fibers_fired += 1;
        self.ops.fibers_fired += 1;
        if self.tracing {
            self.record(t, node, TraceKind::FiberFire { slot });
            for (off, kind) in ctx.tbuf.drain(..) {
                self.record(t + cfg.fiber_switch_cycles + off, node, kind);
            }
            self.record(end, node, TraceKind::FiberRetire { slot, exec });
        }
        self.push(node, end, Ev::EuIdle { node });
        // Dispatch the fiber's split-phase operations at its end time.
        for op in ctx.ops {
            match op {
                SimOp::Sync { node: dst, slot } => {
                    self.ops.syncs += 1;
                    self.record(
                        end,
                        node,
                        TraceKind::Sync {
                            to_node: dst as u32,
                            slot,
                        },
                    );
                    let (fate, op) = self.message_fate(node, dst, slot);
                    if fate != MessageFault::Deliver {
                        self.record(
                            end,
                            node,
                            TraceKind::FaultInjected {
                                kind: fault_kind(fate),
                            },
                        );
                    }
                    if fate == MessageFault::Drop {
                        continue;
                    }
                    let arr = if dst == node {
                        end + cfg.su_op_cycles
                    } else {
                        end + cfg.net_latency_cycles + cfg.su_op_cycles
                    } + self.fault_delay_cycles(fate);
                    let copies = if fate == MessageFault::Duplicate {
                        2
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        self.push(
                            node,
                            arr,
                            Ev::SyncArrive {
                                node: dst,
                                slot,
                                op,
                            },
                        );
                    }
                }
                SimOp::Data {
                    node: dst,
                    bytes,
                    deposit,
                    slot,
                } => {
                    self.ops.messages += 1;
                    self.ops.bytes += bytes;
                    self.record(
                        end,
                        node,
                        TraceKind::MsgSend {
                            to_node: dst as u32,
                            bytes,
                        },
                    );
                    let (fate, op) = self.message_fate(node, dst, slot);
                    if fate != MessageFault::Deliver {
                        self.record(
                            end,
                            node,
                            TraceKind::FaultInjected {
                                kind: fault_kind(fate),
                            },
                        );
                    }
                    if fate == MessageFault::Drop {
                        continue;
                    }
                    let arr = if dst == node {
                        self.ops.local_messages += 1;
                        end + cfg.su_op_cycles
                    } else {
                        let src = &mut self.nodes[node];
                        let xfer = bytes.div_ceil(cfg.bytes_per_cycle.max(1));
                        let start = end.max(src.out_link_free);
                        src.out_link_free = start + xfer;
                        src.stats.bytes_sent += bytes;
                        start + xfer + cfg.net_latency_cycles + cfg.su_op_cycles
                    } + self.fault_delay_cycles(fate);
                    let copies = if fate == MessageFault::Duplicate {
                        2
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        self.push(
                            node,
                            arr,
                            Ev::DataArrive {
                                node: dst,
                                from: node,
                                bytes,
                                deposit: deposit.clone(),
                                slot,
                                op,
                            },
                        );
                    }
                }
            }
        }
    }

    fn handle(&mut self, t: u64, ev: Ev) {
        self.now = t;
        match ev {
            Ev::SyncArrive { node, slot, op } => {
                if self.suppressed(op) {
                    return;
                }
                self.dec(node, slot, t)
            }
            Ev::DataArrive {
                node,
                from,
                bytes,
                deposit,
                slot,
                op,
            } => {
                if self.suppressed(op) {
                    return;
                }
                self.record(
                    t,
                    node,
                    TraceKind::MsgRecv {
                        from_node: from as u32,
                        bytes,
                    },
                );
                if let Some((key, value)) = deposit {
                    self.nodes[node]
                        .mailbox
                        .entry(key)
                        .or_default()
                        .push_back(value);
                }
                self.dec(node, slot, t);
            }
            Ev::EuIdle { node } => {
                self.nodes[node].eu_busy = false;
                self.try_start(node, t);
            }
        }
    }

    /// Fire every initially-ready fiber, in ascending node order.
    fn seed(&mut self) {
        for node in 0..self.nodes.len() {
            let n = &mut self.nodes[node];
            for (slot, &c) in n.counts.iter().enumerate() {
                if c == 0 {
                    n.ready.push_back(slot as SlotId);
                }
            }
            self.try_start(node, 0);
        }
    }

    fn finish(self) -> SimReport<S> {
        let time_cycles = self.now;
        let mut per_node = Vec::with_capacity(self.nodes.len());
        let mut states = Vec::with_capacity(self.nodes.len());
        let mut unfired = 0u64;
        for mut n in self.nodes {
            unfired += n.bodies.iter().filter(|b| b.is_some()).count() as u64;
            n.stats.mem = n.mem.expect("no fiber is running").stats();
            per_node.push(n.stats);
            states.push(n.state);
        }
        SimReport {
            states,
            time_cycles,
            seconds: self.cfg.seconds(time_cycles),
            stats: RunStats {
                ops: self.ops,
                unfired_fibers: unfired,
                total_cycles: time_cycles,
                per_node,
                faults: self.faults.as_ref().map(|p| p.counts()).unwrap_or_default(),
            },
            trace: self.sink.drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FiberSpec;
    use crate::value::mailbox_key;

    type Prog<S> = MachineProgram<S, SimCtx<S>>;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn single_fiber_time_is_switch_plus_charge() {
        let mut prog: Prog<()> = MachineProgram::new();
        prog.add_node(());
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("work", |_s, cx: &mut SimCtx<()>| {
                cx.charge(1000);
            }));
        let r = run_sim(prog, cfg());
        assert_eq!(r.time_cycles, cfg().fiber_switch_cycles + 1000);
        assert_eq!(r.stats.per_node[0].busy_cycles, r.time_cycles);
    }

    #[test]
    fn remote_sync_pays_latency() {
        let mut prog: Prog<u64> = MachineProgram::new();
        prog.add_node(0);
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("a", |_s, cx: &mut SimCtx<u64>| {
                cx.sync(1, 0)
            }));
        prog.node_mut(1).add_fiber(FiberSpec::new(
            "b",
            1,
            |s: &mut u64, cx: &mut SimCtx<u64>| {
                *s = cx.now();
            },
        ));
        let r = run_sim(prog, cfg());
        let c = cfg();
        // Fiber a ends at switch; sync arrives +latency +su.
        assert_eq!(
            r.states[1],
            c.fiber_switch_cycles + c.net_latency_cycles + c.su_op_cycles
        );
    }

    #[test]
    fn local_sync_skips_network() {
        let mut prog: Prog<u64> = MachineProgram::new();
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("a", |_s, cx: &mut SimCtx<u64>| {
                cx.sync(0, 1)
            }));
        prog.node_mut(0).add_fiber(FiberSpec::new(
            "b",
            1,
            |s: &mut u64, cx: &mut SimCtx<u64>| {
                *s = cx.now();
            },
        ));
        let r = run_sim(prog, cfg());
        let c = cfg();
        assert_eq!(r.states[0], c.fiber_switch_cycles + c.su_op_cycles);
    }

    #[test]
    fn bandwidth_charged_for_blocks() {
        // Sending 8000 bytes at 1 B/cycle must take ≥ 8000 cycles longer
        // than a pure sync.
        let mut prog: Prog<u64> = MachineProgram::new();
        prog.add_node(0);
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("send", |_s, cx: &mut SimCtx<u64>| {
                cx.data_sync(1, 5, Value::from(vec![0.0f64; 1000]), 0);
            }));
        prog.node_mut(1).add_fiber(FiberSpec::new(
            "recv",
            1,
            |s: &mut u64, cx: &mut SimCtx<u64>| {
                *s = cx.now();
            },
        ));
        let r = run_sim(prog, cfg());
        let c = cfg();
        assert_eq!(
            r.states[1],
            c.fiber_switch_cycles + 8000 + c.net_latency_cycles + c.su_op_cycles
        );
        assert_eq!(r.stats.ops.bytes, 8000);
    }

    #[test]
    fn handoff_is_charged_like_a_message_of_its_size() {
        // The same 8000-byte transfer as a payload and as an in-place
        // hand-off: identical arrival time and counters, no deposit.
        let run = |handoff: bool| {
            let mut prog: Prog<(u64, bool)> = MachineProgram::new();
            prog.add_node((0, false));
            prog.add_node((0, false));
            prog.node_mut(0).add_fiber(FiberSpec::ready(
                "send",
                move |_s, cx: &mut SimCtx<(u64, bool)>| {
                    if handoff {
                        cx.handoff(1, 0, 8000);
                    } else {
                        cx.data_sync(1, 5, Value::from(vec![0.0f64; 1000]), 0);
                    }
                },
            ));
            prog.node_mut(1).add_fiber(FiberSpec::new(
                "recv",
                1,
                |s: &mut (u64, bool), cx: &mut SimCtx<(u64, bool)>| {
                    *s = (cx.now(), cx.recv(5).is_some());
                },
            ));
            run_sim(prog, cfg())
        };
        let (moved, handed) = (run(false), run(true));
        assert_eq!(handed.states[1].0, moved.states[1].0);
        assert_eq!((moved.states[1].1, handed.states[1].1), (true, false));
        assert_eq!(handed.stats.ops, moved.stats.ops);
        assert_eq!(handed.stats.ops.bytes, 8000);
    }

    #[test]
    fn out_link_serializes_consecutive_sends() {
        // One fiber sends two 8000-byte blocks to two nodes; the second
        // transfer starts only after the first leaves the link.
        let mut prog: Prog<u64> = MachineProgram::new();
        for _ in 0..3 {
            prog.add_node(0);
        }
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("send2", |_s, cx: &mut SimCtx<u64>| {
                cx.data_sync(1, 5, Value::from(vec![0.0f64; 1000]), 0);
                cx.data_sync(2, 5, Value::from(vec![0.0f64; 1000]), 0);
            }));
        for n in 1..3 {
            prog.node_mut(n).add_fiber(FiberSpec::new(
                "recv",
                1,
                |s: &mut u64, cx: &mut SimCtx<u64>| {
                    *s = cx.now();
                },
            ));
        }
        let r = run_sim(prog, cfg());
        let c = cfg();
        let first = c.fiber_switch_cycles + 8000 + c.net_latency_cycles + c.su_op_cycles;
        assert_eq!(r.states[1], first);
        assert_eq!(r.states[2], first + 8000);
    }

    #[test]
    fn communication_overlaps_computation() {
        // Node 0: fiber A sends a large block to node 1, then fiber B
        // computes for 20_000 cycles. Node 1's receive time must be less
        // than A+B serialized — the EU keeps computing while the message
        // is in flight.
        let mut prog: Prog<u64> = MachineProgram::new();
        prog.add_node(0);
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("send", |_s, cx: &mut SimCtx<u64>| {
                cx.data_sync(1, 1, Value::from(vec![0.0f64; 1000]), 0);
                cx.sync(0, 1); // enable compute fiber
            }));
        prog.node_mut(0).add_fiber(FiberSpec::new(
            "compute",
            1,
            |s: &mut u64, cx: &mut SimCtx<u64>| {
                cx.charge(20_000);
                *s = cx.now() + 20_000 + cx.charged();
            },
        ));
        prog.node_mut(1).add_fiber(FiberSpec::new(
            "recv",
            1,
            |s: &mut u64, cx: &mut SimCtx<u64>| {
                *s = cx.now();
            },
        ));
        let r = run_sim(prog, cfg());
        // Total makespan: node 0 busy till ~20_000+; message arrived ~8400.
        // Overlap means makespan < sum of both.
        assert!(r.states[1] < 10_000, "receive at {}", r.states[1]);
        assert!(r.time_cycles < 30_000, "makespan {}", r.time_cycles);
    }

    #[test]
    fn eu_serializes_fibers_on_one_node() {
        let mut prog: Prog<Vec<u64>> = MachineProgram::new();
        prog.add_node(Vec::new());
        for _ in 0..3 {
            prog.node_mut(0).add_fiber(FiberSpec::ready(
                "f",
                |s: &mut Vec<u64>, cx: &mut SimCtx<Vec<u64>>| {
                    cx.charge(100);
                    s.push(cx.now());
                },
            ));
        }
        let r = run_sim(prog, cfg());
        let c = cfg();
        let step = c.fiber_switch_cycles + 100;
        assert_eq!(r.states[0], vec![0, step, 2 * step]);
    }

    #[test]
    fn memory_metering_affects_time() {
        // A strided loop over a large footprint must cost more than the
        // same number of accesses to one line.
        let run = |stride: u64| {
            let mut prog: Prog<()> = MachineProgram::new();
            prog.add_node(());
            prog.node_mut(0)
                .add_fiber(FiberSpec::ready("loop", move |_s, cx: &mut SimCtx<()>| {
                    for i in 0..10_000u64 {
                        cx.load(i * stride);
                    }
                }));
            run_sim(prog, cfg()).time_cycles
        };
        let dense = run(0);
        let sparse = run(64);
        assert!(sparse > 3 * dense, "sparse {sparse} vs dense {dense}");
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let mut prog: Prog<u64> = MachineProgram::new();
            for _ in 0..4 {
                prog.add_node(0);
            }
            for n in 0..4usize {
                prog.node_mut(n).add_fiber(FiberSpec::ready(
                    "scatter",
                    move |_s, cx: &mut SimCtx<u64>| {
                        for d in 0..4usize {
                            if d != n {
                                cx.data_sync(d, 7, Value::Scalar(n as f64), 1);
                            }
                        }
                    },
                ));
                prog.node_mut(n).add_fiber(FiberSpec::new(
                    "gather",
                    3,
                    |s: &mut u64, cx: &mut SimCtx<u64>| {
                        while let Some(v) = cx.recv(7) {
                            *s += v.expect_scalar() as u64;
                        }
                    },
                ));
            }
            prog
        };
        let r1 = run_sim(build(), cfg());
        let r2 = run_sim(build(), cfg());
        assert_eq!(r1.time_cycles, r2.time_cycles);
        assert_eq!(r1.states, r2.states);
        // Each node sums the other three ids.
        assert_eq!(r1.states[0], 1 + 2 + 3);
        assert_eq!(r1.states[3], 1 + 2);
    }

    #[test]
    fn mailbox_fifo_order_per_key() {
        let mut prog: Prog<Vec<i64>> = MachineProgram::new();
        prog.add_node(Vec::new());
        prog.add_node(Vec::new());
        prog.node_mut(0).add_fiber(FiberSpec::ready(
            "send3",
            |_s, cx: &mut SimCtx<Vec<i64>>| {
                for i in 0..3 {
                    cx.data_sync(1, mailbox_key(2, 0), Value::Int(i), 0);
                }
            },
        ));
        prog.node_mut(1).add_fiber(FiberSpec::new(
            "recv3",
            3,
            |s: &mut Vec<i64>, cx: &mut SimCtx<Vec<i64>>| {
                while let Some(v) = cx.recv(mailbox_key(2, 0)) {
                    s.push(v.expect_int());
                }
            },
        ));
        let r = run_sim(prog, cfg());
        assert_eq!(r.states[1], vec![0, 1, 2]);
    }

    fn traced_pair() -> Prog<()> {
        let mut prog: Prog<()> = MachineProgram::new();
        prog.add_node(());
        prog.add_node(());
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("a", |_s, cx: &mut SimCtx<()>| {
                cx.charge(500);
                cx.trace(TraceKind::PhaseEnter { sweep: 0, phase: 0 });
                cx.sync(1, 0);
            }));
        prog.node_mut(1)
            .add_fiber(FiberSpec::new("b", 1, |_s, cx: &mut SimCtx<()>| {
                cx.charge(700)
            }));
        prog
    }

    #[test]
    fn trace_records_typed_events() {
        let c = cfg();
        let sink = Arc::new(trace::RingSink::new(2, 1024));
        let r = run_sim_traced(traced_pair(), c, sink);
        let fires: Vec<_> = r
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::FiberFire { .. }))
            .collect();
        assert_eq!(fires.len(), 2);
        let retire_a = r
            .trace
            .iter()
            .find(|e| e.node == 0 && matches!(e.kind, TraceKind::FiberRetire { .. }))
            .unwrap();
        let TraceKind::FiberRetire { exec, .. } = retire_a.kind else {
            unreachable!()
        };
        assert_eq!(exec, c.fiber_switch_cycles + 500);
        // The body-emitted event is stamped inside a's span.
        let phase = r
            .trace
            .iter()
            .find(|e| matches!(e.kind, TraceKind::PhaseEnter { .. }))
            .unwrap();
        assert!(phase.ts <= retire_a.ts);
        // Sync issue and message-free run: one Sync, no MsgSend.
        assert!(r
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Sync { to_node: 1, .. })));
        let g = render_gantt(&r.trace, 2, r.time_cycles, 40);
        assert_eq!(g.lines().count(), 2);
        assert!(g.contains('#') && g.contains('.'));
    }

    #[test]
    fn trace_off_by_default() {
        let r = run_sim(traced_pair(), cfg());
        assert!(r.trace.is_empty());
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let plain = run_sim(traced_pair(), cfg());
        let sink = Arc::new(trace::RingSink::new(2, 1024));
        let traced = run_sim_traced(traced_pair(), cfg(), sink);
        assert_eq!(plain.time_cycles, traced.time_cycles);
        assert_eq!(plain.stats.ops, traced.stats.ops);
    }

    #[test]
    fn trace_stream_is_deterministic() {
        let run = || {
            let sink = Arc::new(trace::RingSink::new(2, 1024));
            run_sim_traced(traced_pair(), cfg(), sink).trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unfired_reported_in_sim() {
        let mut prog: Prog<()> = MachineProgram::new();
        prog.add_node(());
        prog.node_mut(0).add_fiber(FiberSpec::ready("a", |_, _| {}));
        prog.node_mut(0)
            .add_fiber(FiberSpec::new("never", 9, |_, _| {}));
        let r = run_sim(prog, cfg());
        assert_eq!(r.stats.unfired_fibers, 1);
    }

    #[test]
    fn panicking_fiber_propagates() {
        let mut prog: Prog<u64> = MachineProgram::new();
        prog.add_node(0);
        prog.add_node(0);
        prog.node_mut(1)
            .add_fiber(FiberSpec::ready("boom", |_s, _cx: &mut SimCtx<u64>| {
                panic!("fiber body panicked on purpose");
            }));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_sim(prog, cfg())));
        assert!(r.is_err(), "the fiber's panic must reach the caller");
    }

    #[test]
    fn empty_program_terminates() {
        let mut prog: Prog<u64> = MachineProgram::new();
        for _ in 0..4 {
            prog.add_node(0);
        }
        let r = run_sim(prog, cfg());
        assert_eq!(r.time_cycles, 0);
        assert_eq!(r.states, vec![0; 4]);
        assert_eq!(r.stats.per_node.len(), 4);
    }

    #[test]
    fn with_host_threads_changes_nothing() {
        let serial = run_sim(traced_pair(), cfg());
        let named = run_sim(traced_pair(), cfg().with_host_threads(4));
        assert_eq!(named.time_cycles, serial.time_cycles);
        assert_eq!(named.stats, serial.stats);
    }
}
