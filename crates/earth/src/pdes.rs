//! Conservative time-window parallel discrete-event core.
//!
//! This module owns the event loop behind [`run_sim`](crate::sim::run_sim):
//! both the serial reference path and the sharded parallel path share one
//! `Shard` implementation, so "serial" is literally "one shard with no
//! lanes" — there is no second copy of the event-handling code to drift.
//!
//! ## Why a conservative window works here
//!
//! Every cross-node interaction in the simulated machine rides a message,
//! and every message pays at least `net_latency_cycles + su_op_cycles`
//! between the moment its sending fiber retires (time `t`) and the moment
//! it arrives at the remote SU. Fault injection only *adds* latency
//! (delay, reorder) or removes the message (drop); duplication reuses the
//! sibling's arrival time. So with lookahead
//! `L = net_latency_cycles + su_op_cycles`, an event handled at time `t`
//! can only create *cross-shard* work at `t + L` or later.
//!
//! The parallel driver exploits that bound with a two-barrier round:
//!
//! 1. drain incoming SPSC lanes into the local heap, publish the local
//!    heap's minimum timestamp, **barrier A**;
//! 2. every shard computes the same global minimum `m` and horizon
//!    `H = m + L`; each processes *all* local events with `time < H`
//!    (including ones it generates for itself inside the window), then
//!    **barrier B** (which orders this round's cross-shard sends before
//!    the next round's drains).
//!
//! Any event a shard emits inside the window `[m, H)` arrives at a remote
//! shard at `≥ m + L = H`, i.e. strictly after the window every shard is
//! currently processing — so no shard ever receives an event earlier than
//! its local clock, and each node's handler sequence is identical to the
//! serial core's. Exit is when the global minimum is `u64::MAX` (all
//! heaps empty): a send still in flight always has a cause event in its
//! *sender's* heap (the sender's own `EuIdle` at an earlier time), so the
//! all-empty state cannot be observed while work remains.
//!
//! ## Determinism
//!
//! The serial loop used to break timestamp ties with a single global
//! emission counter, which no shard can reproduce. Both cores now order
//! events by the content-derived key `(time, source node, per-source
//! emission seq)` — each node's emissions are numbered by that node
//! alone, so the key is identical no matter which host thread runs the
//! node. Combined with the per-node trace rings (whose drain is a stable
//! sort by timestamp in node order) this makes simulated cycles,
//! `RunStats`, *and* the drained trace stream byte-identical across
//! `host_threads` values. DESIGN.md §17 carries the full argument.
//!
//! ## Watchdog
//!
//! A wedged shard (a fiber body that never returns) would park every
//! other shard at a barrier forever. When
//! [`SimConfig::host_watchdog`](crate::sim::SimConfig::host_watchdog) is
//! set, barrier waits time out, check a global progress counter, and
//! poison the barrier if no shard handled any event within the deadline —
//! every healthy shard then returns [`SimError::Stalled`] instead of
//! hanging. The run unwinds once the offending fiber yields; a body that
//! *never* yields can no more be reaped here than on the native backend
//! (the CI harness's hard timeout is the backstop of last resort).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use memsim::MemModel;
use trace::{FaultKind, TraceEvent, TraceKind, TraceSink};

use crate::faults::{FaultPlan, MessageFault};
use crate::program::{FiberSpec, MachineProgram, SlotId};
use crate::sim::{SimConfig, SimCtx, SimOp, SimReport};
use crate::spsc::SpscQueue;
use crate::stats::{NodeStats, OpCounts, RunStats};
use crate::value::Value;

/// Typed failure of a checked simulator run (see
/// [`run_sim_checked`](crate::sim::run_sim_checked)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// No shard handled any event within the watchdog deadline — some
    /// fiber body is wedged (or the deadline is shorter than the longest
    /// legitimate fiber body; the watchdog must out-wait honest work).
    Stalled {
        /// Host shards that were running when progress stopped.
        shards: usize,
        /// The configured deadline that expired.
        watchdog: Duration,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled { shards, watchdog } => write!(
                f,
                "simulation stalled: no progress across {shards} shards within {watchdog:?}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Map a decided message fate to the trace vocabulary (`Deliver` is not
/// a fault and must not be passed here).
fn fault_kind(fate: MessageFault) -> FaultKind {
    match fate {
        MessageFault::Delay { .. } => FaultKind::MsgDelay,
        MessageFault::Reorder => FaultKind::MsgReorder,
        MessageFault::Duplicate => FaultKind::MsgDuplicate,
        MessageFault::Drop | MessageFault::Deliver => FaultKind::MsgDrop,
    }
}

/// Content-derived event ordering key: `(time, source node, per-source
/// emission seq)`. Identical on every host schedule, unlike the old
/// global emission counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: u64,
    src: u32,
    seq: u64,
}

pub(crate) enum Ev {
    /// `op` is a dedup-filter operation id, present only in faulted runs.
    SyncArrive {
        node: usize,
        slot: SlotId,
        op: Option<u64>,
    },
    DataArrive {
        node: usize,
        from: usize,
        key: u64,
        value: Value,
        slot: SlotId,
        op: Option<u64>,
    },
    EuIdle {
        node: usize,
    },
}

impl Ev {
    /// The node whose SU handles this event — the routing key.
    fn dst(&self) -> usize {
        match self {
            Ev::SyncArrive { node, .. } | Ev::DataArrive { node, .. } | Ev::EuIdle { node } => {
                *node
            }
        }
    }
}

pub(crate) struct HeapEv {
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
    mem: MemModel,
    ready: VecDeque<SlotId>,
    eu_busy: bool,
    out_link_free: u64,
    stats: NodeStats,
}

/// Run-wide immutable state shared by every shard.
struct Core {
    cfg: SimConfig,
    num_nodes: usize,
    sink: Arc<dyn TraceSink>,
    tracing: bool,
    faults: Option<FaultPlan>,
}

/// Where a shard's emissions go.
enum Route<'a> {
    /// Single-shard (serial) run: every destination is local.
    Local,
    /// Sharded run: `lanes[p * shards + q]` is the SPSC lane from
    /// producer shard `p` to consumer shard `q`.
    Lanes {
        owner: &'a [u32],
        lanes: &'a [SpscQueue<HeapEv>],
        me: usize,
        shards: usize,
    },
}

/// One host thread's slice of the machine: a contiguous node range, its
/// event heap, and per-source emission counters.
struct Shard<'a, S> {
    core: &'a Core,
    base: usize,
    nodes: Vec<SimNode<S>>,
    heap: BinaryHeap<Reverse<HeapEv>>,
    emit_seq: Vec<u64>,
    ops: OpCounts,
    now: u64,
    route: Route<'a>,
}

/// What a shard hands back to the driver after its loop exits.
struct ShardResult<S> {
    nodes: Vec<SimNode<S>>,
    ops: OpCounts,
    now: u64,
}

impl<'a, S> Shard<'a, S> {
    fn new(core: &'a Core, base: usize, nodes: Vec<SimNode<S>>, route: Route<'a>) -> Self {
        let emit_seq = vec![0u64; nodes.len()];
        Shard {
            core,
            base,
            nodes,
            heap: BinaryHeap::new(),
            emit_seq,
            ops: OpCounts::default(),
            now: 0,
            route,
        }
    }

    #[inline]
    fn record(&self, ts: u64, node: usize, kind: TraceKind) {
        if self.core.tracing {
            self.core
                .sink
                .record(TraceEvent::new(ts, node as u32, kind));
        }
    }

    /// Emit an event from `src` (a node this shard owns). The per-source
    /// emission counter is advanced identically on every host schedule,
    /// so the resulting [`EventKey`] is schedule-independent.
    fn push(&mut self, src: usize, time: u64, ev: Ev) {
        let sli = src - self.base;
        let seq = self.emit_seq[sli];
        self.emit_seq[sli] += 1;
        let hev = HeapEv {
            key: EventKey {
                time,
                src: src as u32,
                seq,
            },
            ev,
        };
        match &self.route {
            Route::Local => self.heap.push(Reverse(hev)),
            Route::Lanes {
                owner,
                lanes,
                me,
                shards,
            } => {
                let dst = owner[hev.ev.dst()] as usize;
                if dst == *me {
                    self.heap.push(Reverse(hev));
                } else {
                    lanes[*me * *shards + dst].push(hev);
                }
            }
        }
    }

    /// Decide a message's fate and allocate its dedup-filter id (faulted
    /// runs only — fault-free runs skip both).
    fn message_fate(&self, src: usize, dst: usize, slot: SlotId) -> (MessageFault, Option<u64>) {
        match &self.core.faults {
            None => (MessageFault::Deliver, None),
            Some(p) => (p.message_fault(src, dst, slot), Some(p.next_op_id())),
        }
    }

    /// Extra arrival latency implied by a fault. Reorder is modeled as
    /// one extra network hop: enough to land behind every same-batch
    /// sibling without losing the message.
    fn fault_delay_cycles(&self, fate: MessageFault) -> u64 {
        match fate {
            MessageFault::Delay { micros } => micros * (self.core.cfg.clock_hz / 1_000_000).max(1),
            MessageFault::Reorder => self.core.cfg.net_latency_cycles + self.core.cfg.su_op_cycles,
            _ => 0,
        }
    }

    /// True when an arriving operation is a duplicate the SU's dedup
    /// filter must swallow.
    fn suppressed(&self, op: Option<u64>) -> bool {
        match (&self.core.faults, op) {
            (Some(p), Some(id)) => !p.first_delivery(id),
            _ => false,
        }
    }

    /// Decrement a slot; enqueue its fiber when it hits zero.
    fn dec(&mut self, node: usize, slot: SlotId, t: u64) {
        let n = &mut self.nodes[node - self.base];
        let c = &mut n.counts[slot as usize];
        *c -= 1;
        if *c == 0 {
            n.ready.push_back(slot);
            self.try_start(node, t);
        }
    }

    fn try_start(&mut self, node: usize, t: u64) {
        let n = &self.nodes[node - self.base];
        if n.eu_busy || n.ready.is_empty() {
            return;
        }
        let slot = self.nodes[node - self.base].ready.pop_front().unwrap();
        self.run_fiber(node, slot, t);
    }

    fn run_fiber(&mut self, node: usize, slot: SlotId, t: u64) {
        let cfg = self.core.cfg;
        let n = &mut self.nodes[node - self.base];
        n.eu_busy = true;
        let spec = n.bodies[slot as usize]
            .take()
            .expect("ready fiber has a body");
        let mut ctx = SimCtx {
            node,
            num_nodes: self.core.num_nodes,
            now: t,
            charged: 0,
            flop_cycles: cfg.flop_cycles,
            mailbox: std::mem::take(&mut n.mailbox),
            mem: std::mem::replace(&mut n.mem, MemModel::new(cfg.mem)),
            ops: Vec::new(),
            tracing: self.core.tracing,
            tbuf: Vec::new(),
            _state: PhantomData,
        };
        (spec.body)(&mut n.state, &mut ctx);
        n.mailbox = ctx.mailbox;
        n.mem = ctx.mem;
        let exec = cfg.fiber_switch_cycles + ctx.charged;
        let end = t + exec;
        let n = &mut self.nodes[node - self.base];
        n.stats.busy_cycles += exec;
        n.stats.fibers_fired += 1;
        self.ops.fibers_fired += 1;
        if self.core.tracing {
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
                    key,
                    value,
                    slot,
                } => {
                    self.ops.messages += 1;
                    let bytes = value.bytes();
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
                        let src = &mut self.nodes[node - self.base];
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
                                key,
                                value: value.clone(),
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
                key,
                value,
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
                        bytes: value.bytes(),
                    },
                );
                self.nodes[node - self.base]
                    .mailbox
                    .entry(key)
                    .or_default()
                    .push_back(value);
                self.dec(node, slot, t);
            }
            Ev::EuIdle { node } => {
                self.nodes[node - self.base].eu_busy = false;
                self.try_start(node, t);
            }
        }
    }

    /// Fire every initially-ready fiber, in ascending node order (the
    /// same order the serial loop has always used).
    fn seed(&mut self) {
        for li in 0..self.nodes.len() {
            let n = &mut self.nodes[li];
            for (slot, &c) in n.counts.iter().enumerate() {
                if c == 0 {
                    n.ready.push_back(slot as SlotId);
                }
            }
            self.try_start(self.base + li, 0);
        }
    }

    /// The serial reference loop: one shard, plain heap-pop order, no
    /// window machinery. This is exactly the path `host_threads = 1`
    /// takes, so the oracle costs nothing it didn't already pay.
    fn run_serial(mut self) -> ShardResult<S> {
        self.seed();
        while let Some(Reverse(HeapEv { key, ev })) = self.heap.pop() {
            self.handle(key.time, ev);
        }
        self.finish()
    }

    /// The windowed parallel loop (see module docs for the protocol and
    /// its safety argument).
    fn run_windowed(
        mut self,
        sync: &WindowSync,
        lookahead: u64,
    ) -> Result<ShardResult<S>, SimError> {
        let watchdog = self.core.cfg.host_watchdog;
        let me = match &self.route {
            Route::Lanes { me, .. } => *me,
            Route::Local => unreachable!("windowed run requires lanes"),
        };
        self.seed();
        loop {
            // 1. Drain incoming lanes: everything sent before the previous
            //    round's barrier B is visible here, so the published
            //    minimum accounts for every event not still covered by a
            //    sender-side cause (see module docs).
            if let Route::Lanes { lanes, shards, .. } = &self.route {
                for p in 0..*shards {
                    let lane = &lanes[p * *shards + me];
                    while let Some(hev) = lane.pop() {
                        self.heap.push(Reverse(hev));
                    }
                }
            }
            let top = self.heap.peek().map_or(u64::MAX, |Reverse(h)| h.key.time);
            sync.publish(me, top);
            sync.wait(watchdog)?; // barrier A: all minima published
            let m = sync.global_min();
            if m == u64::MAX {
                return Ok(self.finish());
            }
            // 2. Process the window [m, H). Events generated locally
            //    inside the window are processed in the same pass; events
            //    for other shards arrive at >= H by the lookahead bound.
            let horizon = m.saturating_add(lookahead);
            let mut handled = 0u64;
            while let Some(Reverse(top)) = self.heap.peek() {
                if top.key.time >= horizon {
                    break;
                }
                let Reverse(HeapEv { key, ev }) = self.heap.pop().unwrap();
                self.handle(key.time, ev);
                handled += 1;
            }
            sync.progressed(handled);
            sync.wait(watchdog)?; // barrier B: sends ordered before next drain
        }
    }

    fn finish(self) -> ShardResult<S> {
        ShardResult {
            nodes: self.nodes,
            ops: self.ops,
            now: self.now,
        }
    }
}

/// The shared barrier + watchdog + min-reduction state of a windowed run.
struct WindowSync {
    lock: Mutex<Gate>,
    cv: Condvar,
    threads: usize,
    mins: Vec<AtomicU64>,
    /// Total events handled, all shards. The watchdog re-arms whenever
    /// this advances between timeouts.
    progress: AtomicU64,
    poisoned: AtomicBool,
}

struct Gate {
    arrived: usize,
    generation: u64,
}

impl WindowSync {
    fn new(threads: usize) -> Self {
        WindowSync {
            lock: Mutex::new(Gate {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            threads,
            mins: (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect(),
            progress: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn publish(&self, me: usize, min: u64) {
        // Relaxed suffices: the barrier's mutex orders these stores
        // before any post-barrier load.
        self.mins[me].store(min, Ordering::Relaxed);
    }

    fn global_min(&self) -> u64 {
        self.mins
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX)
    }

    fn progressed(&self, n: u64) {
        if n > 0 {
            self.progress.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Poison the barrier so every waiter (present and future) unblocks
    /// with an error instead of waiting for a peer that will never come.
    fn poison(&self) {
        let _g = self.lock.lock().unwrap();
        self.poisoned.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    fn stall(&self, watchdog: Duration) -> SimError {
        SimError::Stalled {
            shards: self.threads,
            watchdog,
        }
    }

    /// Generation-counted barrier wait. With a watchdog, waiting shards
    /// time out, check global progress, and poison the barrier if the
    /// whole run is stuck.
    fn wait(&self, watchdog: Option<Duration>) -> Result<(), SimError> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(self.stall(watchdog.unwrap_or_default()));
        }
        let mut g = self.lock.lock().unwrap();
        g.arrived += 1;
        if g.arrived == self.threads {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = g.generation;
        let mut last_progress = self.progress.load(Ordering::Relaxed);
        loop {
            if self.poisoned.load(Ordering::SeqCst) {
                return Err(self.stall(watchdog.unwrap_or_default()));
            }
            if g.generation != gen {
                return Ok(());
            }
            match watchdog {
                None => g = self.cv.wait(g).unwrap(),
                Some(d) => {
                    let (guard, timeout) = self.cv.wait_timeout(g, d).unwrap();
                    g = guard;
                    if timeout.timed_out() {
                        let p = self.progress.load(Ordering::Relaxed);
                        if p == last_progress && g.generation == gen {
                            self.poisoned.store(true, Ordering::SeqCst);
                            self.cv.notify_all();
                            return Err(self.stall(d));
                        }
                        last_progress = p;
                    }
                }
            }
        }
    }
}

/// Poison the barrier if this thread unwinds, so a panicking fiber body
/// doesn't park every other shard forever. The panic itself is
/// propagated to the caller by the driver, exactly like the serial path.
struct PoisonOnPanic<'a>(&'a WindowSync);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
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
            mem: MemModel::new(cfg.mem),
            ready: VecDeque::new(),
            eu_busy: false,
            out_link_free: 0,
            stats: NodeStats::default(),
        });
    }
    nodes
}

/// Execute `prog` under `cfg`, dispatching to the serial or windowed
/// core. This is the single entry point behind every public `run_sim*`
/// function.
pub(crate) fn execute<S: Send>(
    prog: MachineProgram<S, SimCtx<S>>,
    cfg: SimConfig,
    sink: Arc<dyn TraceSink>,
) -> Result<SimReport<S>, SimError> {
    let nodes = build_nodes(prog, &cfg);
    let num_nodes = nodes.len();
    let core = Core {
        cfg,
        num_nodes,
        tracing: sink.enabled(),
        sink,
        faults: cfg.faults.filter(|f| !f.is_noop()).map(FaultPlan::new),
    };
    let lookahead = cfg.net_latency_cycles + cfg.su_op_cycles;
    let threads = cfg.host_threads.max(1).min(num_nodes.max(1));
    // A zero lookahead leaves no window to parallelize.
    let results = if threads > 1 && lookahead > 0 {
        run_parallel(&core, nodes, threads, lookahead)?
    } else {
        vec![Shard::new(&core, 0, nodes, Route::Local).run_serial()]
    };

    let mut time_cycles = 0u64;
    let mut ops = OpCounts::default();
    let mut per_node = Vec::with_capacity(num_nodes);
    let mut states = Vec::with_capacity(num_nodes);
    let mut unfired = 0u64;
    for sh in results {
        time_cycles = time_cycles.max(sh.now);
        ops.merge(&sh.ops);
        for mut n in sh.nodes {
            unfired += n.bodies.iter().filter(|b| b.is_some()).count() as u64;
            n.stats.mem = n.mem.stats();
            per_node.push(n.stats);
            states.push(n.state);
        }
    }
    Ok(SimReport {
        states,
        time_cycles,
        seconds: cfg.seconds(time_cycles),
        stats: RunStats {
            ops,
            unfired_fibers: unfired,
            total_cycles: time_cycles,
            per_node,
            faults: core.faults.as_ref().map(|p| p.counts()).unwrap_or_default(),
        },
        trace: core.sink.drain(),
    })
}

/// Split the nodes into `threads` contiguous shards and run them on
/// scoped host threads connected by an SPSC lane matrix.
fn run_parallel<S: Send>(
    core: &Core,
    nodes: Vec<SimNode<S>>,
    threads: usize,
    lookahead: u64,
) -> Result<Vec<ShardResult<S>>, SimError> {
    let num_nodes = nodes.len();
    let mut cuts = Vec::with_capacity(threads + 1);
    cuts.push(0usize);
    let (size, extra) = (num_nodes / threads, num_nodes % threads);
    for i in 0..threads {
        cuts.push(cuts[i] + size + usize::from(i < extra));
    }
    let mut owner = vec![0u32; num_nodes];
    for s in 0..threads {
        for o in owner.iter_mut().take(cuts[s + 1]).skip(cuts[s]) {
            *o = s as u32;
        }
    }
    let lanes: Vec<SpscQueue<HeapEv>> = (0..threads * threads).map(|_| SpscQueue::new()).collect();
    let sync = WindowSync::new(threads);

    let mut shards = Vec::with_capacity(threads);
    let mut node_iter = nodes.into_iter();
    for me in 0..threads {
        let span = cuts[me + 1] - cuts[me];
        let slice: Vec<SimNode<S>> = node_iter.by_ref().take(span).collect();
        shards.push(Shard::new(
            core,
            cuts[me],
            slice,
            Route::Lanes {
                owner: &owner,
                lanes: &lanes,
                me,
                shards: threads,
            },
        ));
    }

    let joined: Vec<Result<ShardResult<S>, SimError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|sh| {
                let sync = &sync;
                scope.spawn(move || {
                    let _poison_guard = PoisonOnPanic(sync);
                    sh.run_windowed(sync, lookahead)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(threads);
        let mut panic_payload = None;
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(p) => panic_payload = Some(p),
            }
        }
        if let Some(p) = panic_payload {
            // A fiber body panicked: re-raise on the caller thread, the
            // same observable behaviour as the serial loop.
            std::panic::resume_unwind(p);
        }
        out
    });
    joined.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FiberCtx, FiberSpec};
    use crate::sim::{run_sim, run_sim_checked, SimConfig};
    use crate::value::mailbox_key;

    type Prog<S> = MachineProgram<S, SimCtx<S>>;

    /// An all-to-all scatter/gather over `n` nodes with per-node compute
    /// skew — enough traffic to cross every shard boundary many times.
    fn scatter_gather(n: usize) -> Prog<u64> {
        let mut prog: Prog<u64> = MachineProgram::new();
        for _ in 0..n {
            prog.add_node(0);
        }
        for src in 0..n {
            prog.node_mut(src).add_fiber(FiberSpec::ready(
                "scatter",
                move |_s, cx: &mut SimCtx<u64>| {
                    cx.charge((src as u64 % 7) * 100);
                    for d in 0..cx.num_nodes() {
                        if d != src {
                            cx.data_sync(d, 7, Value::Int(src as i64), 1);
                        }
                    }
                },
            ));
            prog.node_mut(src).add_fiber(FiberSpec::new(
                "gather",
                (n - 1) as u32,
                |s: &mut u64, cx: &mut SimCtx<u64>| {
                    while let Some(v) = cx.recv(7) {
                        *s += v.expect_int() as u64;
                    }
                },
            ));
        }
        prog
    }

    fn with_threads(t: usize) -> SimConfig {
        SimConfig {
            host_threads: t,
            ..SimConfig::default()
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let serial = run_sim(scatter_gather(8), with_threads(1));
        for t in [2, 3, 4] {
            let par = run_sim(scatter_gather(8), with_threads(t));
            assert_eq!(par.time_cycles, serial.time_cycles, "threads={t}");
            assert_eq!(par.states, serial.states, "threads={t}");
            assert_eq!(par.stats, serial.stats, "threads={t}");
        }
    }

    #[test]
    fn uneven_shard_split_is_exact() {
        // 5 nodes over 3 shards: shard sizes 2/2/1.
        let serial = run_sim(scatter_gather(5), with_threads(1));
        let par = run_sim(scatter_gather(5), with_threads(3));
        assert_eq!(par.time_cycles, serial.time_cycles);
        assert_eq!(par.states, serial.states);
        assert_eq!(par.stats, serial.stats);
    }

    #[test]
    fn threads_beyond_nodes_are_clamped() {
        let serial = run_sim(scatter_gather(3), with_threads(1));
        let par = run_sim(scatter_gather(3), with_threads(64));
        assert_eq!(par.states, serial.states);
        assert_eq!(par.time_cycles, serial.time_cycles);
    }

    #[test]
    fn faulted_run_matches_serial_exactly() {
        use crate::faults::FaultConfig;
        let cfg = |t: usize| SimConfig {
            host_threads: t,
            faults: Some(FaultConfig::lossless(0xfeed)),
            ..SimConfig::default()
        };
        let serial = run_sim(scatter_gather(6), cfg(1));
        let par = run_sim(scatter_gather(6), cfg(4));
        assert_eq!(par.time_cycles, serial.time_cycles);
        assert_eq!(par.states, serial.states);
        assert_eq!(par.stats, serial.stats);
        // The plan actually injected something, or this test is vacuous.
        let f = serial.stats.faults;
        assert!(f.delayed + f.reordered + f.duplicated > 0);
    }

    #[test]
    fn traced_parallel_stream_is_byte_identical() {
        let run = |t: usize| {
            let sink = Arc::new(trace::RingSink::new(6, 4096));
            crate::sim::run_sim_traced(scatter_gather(6), with_threads(t), sink).trace
        };
        let serial = run(1);
        assert!(!serial.is_empty());
        assert_eq!(run(2), serial);
        assert_eq!(run(4), serial);
    }

    #[test]
    fn mailbox_fifo_survives_sharding() {
        let build = || {
            let mut prog: Prog<Vec<i64>> = MachineProgram::new();
            for _ in 0..4 {
                prog.add_node(Vec::new());
            }
            for src in 0..4usize {
                prog.node_mut(src).add_fiber(FiberSpec::ready(
                    "send",
                    move |_s, cx: &mut SimCtx<Vec<i64>>| {
                        for i in 0..3 {
                            cx.data_sync(
                                (src + 1) % 4,
                                mailbox_key(2, 0),
                                Value::Int(src as i64 * 10 + i),
                                1,
                            );
                        }
                    },
                ));
                prog.node_mut(src).add_fiber(FiberSpec::new(
                    "recv",
                    3,
                    |s: &mut Vec<i64>, cx: &mut SimCtx<Vec<i64>>| {
                        while let Some(v) = cx.recv(mailbox_key(2, 0)) {
                            s.push(v.expect_int());
                        }
                    },
                ));
            }
            prog
        };
        let serial = run_sim(build(), with_threads(1));
        let par = run_sim(build(), with_threads(2));
        assert_eq!(par.states, serial.states);
        // FIFO per key: each receiver sees its sender's 3 values in order.
        assert_eq!(serial.states[1], vec![0, 1, 2]);
    }

    #[test]
    fn wedged_shard_returns_stalled_not_hang() {
        let mut prog: Prog<u64> = MachineProgram::new();
        prog.add_node(0);
        prog.add_node(0);
        // Node 1 wedges for far longer than the watchdog.
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("fine", |_s, cx: &mut SimCtx<u64>| {
                cx.sync(1, 0);
            }));
        prog.node_mut(1)
            .add_fiber(FiberSpec::new("wedge", 1, |_s, _cx: &mut SimCtx<u64>| {
                std::thread::sleep(Duration::from_millis(1500));
            }));
        let cfg = SimConfig {
            host_threads: 2,
            host_watchdog: Some(Duration::from_millis(100)),
            ..SimConfig::default()
        };
        let err = run_sim_checked(prog, cfg, Arc::new(trace::NullSink)).unwrap_err();
        assert!(matches!(err, SimError::Stalled { shards: 2, .. }));
        assert!(err.to_string().contains("stalled"));
    }

    #[test]
    fn watchdog_rearms_on_progress() {
        // Honest slow work (each fiber briefly sleeps, but events keep
        // flowing) must NOT trip a watchdog longer than any single body.
        let mut prog: Prog<u64> = MachineProgram::new();
        for _ in 0..4 {
            prog.add_node(0);
        }
        for i in 0..4usize {
            prog.node_mut(i).add_fiber(FiberSpec::ready(
                "slowish",
                move |_s, cx: &mut SimCtx<u64>| {
                    std::thread::sleep(Duration::from_millis(20));
                    cx.data_sync((i + 1) % 4, 7, Value::Int(1), 1);
                },
            ));
            prog.node_mut(i).add_fiber(FiberSpec::new(
                "recv",
                1,
                |s: &mut u64, cx: &mut SimCtx<u64>| {
                    while let Some(v) = cx.recv(7) {
                        *s += v.expect_int() as u64;
                    }
                },
            ));
        }
        let cfg = SimConfig {
            host_threads: 2,
            host_watchdog: Some(Duration::from_millis(500)),
            ..SimConfig::default()
        };
        let r = run_sim_checked(prog, cfg, Arc::new(trace::NullSink)).unwrap();
        assert_eq!(r.states, vec![1, 1, 1, 1]);
    }

    #[test]
    fn panicking_fiber_propagates_like_serial() {
        let build = |t: usize| {
            let mut prog: Prog<u64> = MachineProgram::new();
            prog.add_node(0);
            prog.add_node(0);
            prog.node_mut(1)
                .add_fiber(FiberSpec::ready("boom", |_s, _cx: &mut SimCtx<u64>| {
                    panic!("fiber body panicked on purpose");
                }));
            (prog, with_threads(t))
        };
        for t in [1, 2] {
            let (prog, cfg) = build(t);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_sim(prog, cfg)));
            assert!(r.is_err(), "threads={t} must propagate the panic");
        }
    }

    #[test]
    fn empty_program_terminates_under_sharding() {
        let mut prog: Prog<u64> = MachineProgram::new();
        for _ in 0..4 {
            prog.add_node(0);
        }
        let r = run_sim(prog, with_threads(4));
        assert_eq!(r.time_cycles, 0);
        assert_eq!(r.states, vec![0; 4]);
    }
}
