//! Native backend: one OS thread per EARTH node.
//!
//! This backend emulates EARTH on the host SMP the way the paper notes
//! EARTH was emulated on off-the-shelf multiprocessors: sync slots are
//! atomic counters, a fiber whose count reaches zero is announced to its
//! node as a ready message on a lock-free lane (see "Message fabric"),
//! and split-phase operations are applied when the issuing fiber ends
//! (the SU role is folded into the sender — "gradually replace stock
//! components with specially designed hardware" in the other direction).
//! The program is a static fiber graph: every fiber fires exactly once.
//!
//! Accounting methods of [`FiberCtx`] are no-ops here and compile away,
//! so native runs measure real wall-clock behaviour.
//!
//! ## Supervision
//!
//! Every fiber body runs under `catch_unwind`; a panic is captured with
//! its payload, node, slot, and fiber label, the machine is shut down,
//! and the run returns [`RunError::NodePanicked`] instead of hanging on
//! a dead node thread. A supervisor loop on the calling thread
//! watches a global progress heartbeat (bumped by every sync landing and
//! every fiber completing); if nothing progresses for
//! [`NativeConfig::watchdog`] while work is still outstanding, the run
//! returns [`RunError::Stalled`] carrying a [`StallDump`] of every
//! pending sync slot, queued message, and per-node fiber state. Threads
//! stuck inside a blocked fiber body are abandoned (they hold no result
//! state the report needs); everything else shuts down cleanly.
//!
//! Fault injection (see [`crate::faults`]) hooks the split-phase
//! delivery path and the fiber dispatch path when
//! [`NativeConfig::faults`] is set; a fault-free run pays nothing.
//!
//! ## Message fabric
//!
//! All inter-node traffic travels on lock-free *lanes*: one
//! [`SpscQueue`] per (sender, receiver) pair (plus one external lane
//! per node for the supervising thread's seed messages). A lane carries
//! two message kinds, ready notifications and data deposits; per-lane
//! FIFO plus a drain-all-lanes step before every fiber firing preserves
//! the EARTH guarantee that a fiber's data has landed before its sync
//! fires (see the ordering argument at `drain_lanes`). Logical nodes are hosted on up to
//! `available_parallelism()` OS threads (one per node on big hosts;
//! round-robin multiplexed on oversubscribed ones — see
//! [`NativeConfig::host_threads`]). Idle host threads spin briefly (on
//! multi-core hosts) and then park; producers unpark them through a
//! Dekker-style per-node `sleeping` flag. Built entirely on
//! `std::sync` atomics — no external crates, per the workspace's
//! hermetic-build policy (DESIGN.md).

use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::faults::{fault_kind, FaultConfig, FaultPlan, FiberFault, MessageFault};
use crate::program::{FiberCtx, FiberSpec, MachineProgram, SlotId};
use crate::spsc::SpscQueue;
use crate::stats::{NodeStats, OpCounts, RunStats};
use crate::value::Value;
use trace::{NullSink, TraceEvent, TraceKind, TraceSink};

/// Why a run was declared stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Work was outstanding but the progress heartbeat stopped for the
    /// whole watchdog deadline (deadlock, livelock, or a blocked body).
    NoProgress,
    /// The machine went quiescent with fibers still armed — some sync
    /// they were waiting for never arrived (only reported when
    /// [`NativeConfig::starved_is_error`] is set).
    Starved,
    /// The run exceeded [`NativeConfig::deadline`] and was cancelled by
    /// the watchdog supervisor even though it was still making progress.
    /// Serving layers use this for per-job deadlines.
    DeadlineExceeded,
}

impl std::fmt::Display for StallReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallReason::NoProgress => write!(f, "no progress"),
            StallReason::Starved => write!(f, "starved"),
            StallReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// One armed-but-unfired sync slot in a [`StallDump`].
#[derive(Debug, Clone)]
pub struct PendingSlot {
    pub slot: SlotId,
    /// Fiber label registered at that slot.
    pub fiber: &'static str,
    /// Remaining sync count before the fiber would fire.
    pub remaining: i64,
}

/// Per-node snapshot taken when a run is declared stalled.
#[derive(Debug, Clone)]
pub struct NodeDump {
    pub node: usize,
    /// Whether the node's thread had already exited cleanly.
    pub exited: bool,
    /// Fibers the node fired, when its thread reported back.
    pub fibers_fired: Option<u64>,
    /// Values sitting undelivered in the node's mailbox.
    pub queued_messages: usize,
    /// Sync slots still armed (count > 0) on this node.
    pub pending: Vec<PendingSlot>,
}

/// Diagnostic snapshot of the whole machine at stall time.
#[derive(Debug, Clone)]
pub struct StallDump {
    pub nodes: Vec<NodeDump>,
}

impl StallDump {
    /// Total armed-but-unfired sync slots across all nodes.
    pub fn pending_slots(&self) -> usize {
        self.nodes.iter().map(|n| n.pending.len()).sum()
    }

    /// Total undelivered mailbox values across all nodes.
    pub fn queued_messages(&self) -> usize {
        self.nodes.iter().map(|n| n.queued_messages).sum()
    }
}

impl std::fmt::Display for StallDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pending slot(s), {} queued message(s) across {} node(s)",
            self.pending_slots(),
            self.queued_messages(),
            self.nodes.len()
        )?;
        for n in &self.nodes {
            for p in &n.pending {
                write!(
                    f,
                    "; node {} slot {} '{}' waiting on {} sync(s)",
                    n.node, p.slot, p.fiber, p.remaining
                )?;
            }
        }
        Ok(())
    }
}

/// Error from a native run.
#[derive(Debug)]
pub enum RunError {
    /// A fiber body panicked (or a panic was injected by the fault
    /// plan). Carries everything needed to locate the failure.
    NodePanicked {
        node: usize,
        slot: SlotId,
        /// Label of the fiber that was executing.
        fiber: &'static str,
        /// Stringified panic payload.
        message: String,
    },
    /// The machine hung or starved; see [`StallReason`]. The dump lists
    /// every pending sync slot, queued message, and per-node state.
    Stalled {
        reason: StallReason,
        /// How long the supervisor waited before declaring the stall.
        waited: Duration,
        /// Ready-or-running items still outstanding at stall time.
        outstanding: i64,
        dump: StallDump,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NodePanicked {
                node,
                slot,
                fiber,
                message,
            } => write!(f, "node {node} panicked in fiber '{fiber}' (slot {slot}): {message}"),
            RunError::Stalled {
                reason,
                waited,
                outstanding,
                dump,
            } => write!(
                f,
                "machine stalled ({reason}) after {waited:?} with {outstanding} outstanding item(s): {dump}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Knobs for [`run_native_with`]. The default matches the historical
/// [`run_native`] behaviour plus a generous watchdog.
#[derive(Debug, Clone, Copy)]
pub struct NativeConfig {
    /// Declare [`RunError::Stalled`] after this long without any fiber
    /// completing or sync landing while work is outstanding.
    pub watchdog: Duration,
    /// Optional deterministic fault plan (see [`crate::faults`]).
    pub faults: Option<FaultConfig>,
    /// Treat quiescence with armed-but-unfired fibers as
    /// `Stalled { reason: Starved }` instead of reporting it in
    /// `RunStats::unfired_fibers`. Executors that require every fiber to
    /// fire (the phased reduction) set this.
    pub starved_is_error: bool,
    /// OS threads to host the logical nodes on. `None` (the default)
    /// uses one thread per node when the host has at least that many
    /// cores, and otherwise multiplexes nodes onto
    /// `available_parallelism()` threads — fibers run to completion
    /// (`recv` never blocks), so an event-loop thread can round-robin
    /// several nodes without deadlock, and on an oversubscribed host
    /// that removes the ring handoff's context-switch churn. Ignored
    /// (one thread per node) when a fault plan is active: an injected
    /// stall must pause exactly one node, not everything co-scheduled
    /// with it.
    pub host_threads: Option<usize>,
    /// Hard wall-clock budget for the whole run. Unlike the watchdog —
    /// which only fires when progress *stops* — the deadline cancels a
    /// run that is still healthy but too slow: the supervisor broadcasts
    /// shutdown and returns
    /// [`RunError::Stalled`]`{ reason: `[`StallReason::DeadlineExceeded`]` }`
    /// with a [`StallDump`] of whatever was outstanding. `None` (the
    /// default) means no budget. Serving layers set this per job.
    pub deadline: Option<Duration>,
}

impl Default for NativeConfig {
    fn default() -> Self {
        NativeConfig {
            watchdog: Duration::from_secs(10),
            faults: None,
            starved_is_error: false,
            host_threads: None,
            deadline: None,
        }
    }
}

/// Result of [`run_native`]: final node states plus statistics.
#[derive(Debug)]
pub struct NativeReport<S> {
    /// Final node states, in node order.
    pub states: Vec<S>,
    pub stats: RunStats,
    /// Wall-clock duration of the parallel section (threads running).
    pub wall: Duration,
}

/// A node's fiber table by slot. A body is taken when its fiber fires,
/// so a `Some` left at the end of the run is an unfired fiber.
type FiberSlots<S> = Vec<Option<FiberSpec<S, NativeCtx<S>>>>;

/// One message on a lane. Shutdown is not a message — it is a shared
/// flag plus an unpark, so any thread may raise it without violating
/// the lanes' single-producer contract.
enum LaneMsg {
    /// The fiber at this slot reached a zero sync count.
    Ready(SlotId),
    /// A data payload for the receiver's mailbox under `key`.
    Deposit { key: u64, value: Value },
}

struct NodeShared {
    counts: Vec<AtomicI64>,
    /// Inbound lanes, one per producer: `lanes[s]` is pushed only by
    /// thread `s`; `lanes[num_nodes]` is the external lane pushed only
    /// by the supervising thread (seeding).
    lanes: Vec<SpscQueue<LaneMsg>>,
    /// Data values deposited but not yet `recv`'d (approximate while
    /// the machine runs; exact at quiescence). Feeds [`NodeDump`].
    inbox_depth: AtomicUsize,
    /// Consumer half of the park protocol: set (SeqCst) by the node
    /// thread just before it re-checks its lanes and parks; cleared by
    /// the producer that wakes it (or by the node itself on wake-up).
    sleeping: AtomicBool,
    /// The node thread's handle, registered when its loop starts, so
    /// producers and the shutdown broadcast can unpark it.
    thread: OnceLock<std::thread::Thread>,
}

/// First fiber failure of the run (first writer wins).
struct Failure {
    node: usize,
    slot: SlotId,
    fiber: &'static str,
    message: String,
}

struct Shared {
    nodes: Vec<NodeShared>,
    /// Raised (with an unpark broadcast) to stop every node thread;
    /// replaces a per-node shutdown message so that *any* thread can
    /// end the run without being a lane producer.
    shutdown: AtomicBool,
    /// Ready notifications queued or executing. When it drops to zero the
    /// machine is quiescent (nothing left that could generate work).
    outstanding: AtomicI64,
    /// Heartbeat for the watchdog: bumped by every landed sync and every
    /// completed fiber. The supervisor only compares successive values.
    progress: AtomicU64,
    failure: Mutex<Option<Failure>>,
    faults: Option<FaultPlan>,
    syncs: AtomicU64,
    messages: AtomicU64,
    local_messages: AtomicU64,
    bytes: AtomicU64,
    /// Structured event sink; `tracing` caches `sink.enabled()` so the
    /// untraced fast path pays one predictable branch per hook.
    sink: Arc<dyn TraceSink>,
    tracing: bool,
    /// Epoch for event timestamps (monotonic nanoseconds since run
    /// start — the native backend has no cycle clock).
    t0: Instant,
}

impl Shared {
    #[inline]
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record one event stamped with the current monotonic offset.
    #[inline]
    fn record(&self, node: u32, kind: TraceKind) {
        if self.tracing {
            self.sink.record(TraceEvent::new(self.now(), node, kind));
        }
    }

    /// Push `msg` onto `node`'s lane `src` and wake the node if it is
    /// parked. `src` must be the calling thread's lane index (its node
    /// id, or `num_nodes` for the supervising thread).
    #[inline]
    fn push(&self, src: usize, node: usize, msg: LaneMsg) {
        let ns = &self.nodes[node];
        ns.lanes[src].push(msg);
        // Producer half of the park protocol: the SeqCst fence orders
        // the lane publish before the `sleeping` read, pairing with the
        // consumer's store-then-fence-then-recheck. If we read `false`
        // here, the consumer's post-flag lane recheck is guaranteed to
        // observe our push, so no wakeup is lost either way.
        fence(Ordering::SeqCst);
        if ns.sleeping.load(Ordering::Relaxed) && ns.sleeping.swap(false, Ordering::AcqRel) {
            if let Some(t) = ns.thread.get() {
                t.unpark();
            }
        }
    }

    /// Deposit a data payload into `node`'s mailbox via lane `src`.
    #[inline]
    fn push_deposit(&self, src: usize, node: usize, key: u64, value: Value) {
        self.nodes[node].inbox_depth.fetch_add(1, Ordering::Relaxed);
        self.push(src, node, LaneMsg::Deposit { key, value });
    }

    /// Decrement slot `slot` on `node`; enqueue the fiber when it reaches
    /// zero. `src` is the calling thread's lane index.
    fn dec(&self, src: usize, node: usize, slot: SlotId) {
        let old = self.nodes[node].counts[slot as usize].fetch_sub(1, Ordering::AcqRel);
        self.progress.fetch_add(1, Ordering::Relaxed);
        if old == 1 {
            self.make_ready(src, node, slot);
        }
    }

    fn make_ready(&self, src: usize, node: usize, slot: SlotId) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.push(src, node, LaneMsg::Ready(slot));
    }

    /// Called when a fiber finishes; returns true if the machine became
    /// quiescent and this caller must broadcast shutdown.
    fn finish_one(&self) -> bool {
        self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1
    }

    fn broadcast_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for ns in &self.nodes {
            if let Some(t) = ns.thread.get() {
                t.unpark();
            }
        }
    }

    /// Record the first fiber failure and shut the machine down.
    fn record_failure(&self, node: usize, slot: SlotId, fiber: &'static str, message: String) {
        let mut f = self.failure.lock().unwrap();
        if f.is_none() {
            *f = Some(Failure {
                node,
                slot,
                fiber,
                message,
            });
        }
        drop(f);
        self.broadcast_shutdown();
    }
}

/// The [`FiberCtx`] implementation for the native backend.
///
/// One context lives per node thread and is reused across firings so
/// the `ops`/`tbuf` allocations amortise; the node's mailbox is lent
/// to it (`mem::take`) around each fiber body so `recv` is a plain
/// local `HashMap` lookup with no locking.
pub struct NativeCtx<S> {
    node: usize,
    num_nodes: usize,
    shared: Arc<Shared>,
    ops: Vec<PendingOp>,
    /// Events the fiber body emitted, stamped when emitted; flushed to
    /// the sink when the fiber retires, like split-phase ops.
    tbuf: Vec<(u64, TraceKind)>,
    /// The node's mailbox, on loan while a fiber body runs.
    inbox: HashMap<u64, VecDeque<Value>>,
    _state: PhantomData<fn(&mut S)>,
}

enum PendingOp {
    Sync {
        node: usize,
        slot: SlotId,
    },
    Data {
        node: usize,
        key: u64,
        value: Value,
        slot: SlotId,
    },
}

impl<S: Send + 'static> FiberCtx<S> for NativeCtx<S> {
    fn node_id(&self) -> usize {
        self.node
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn trace_enabled(&self) -> bool {
        self.shared.tracing
    }

    fn trace(&mut self, kind: TraceKind) {
        if self.shared.tracing {
            self.tbuf.push((self.shared.now(), kind));
        }
    }

    fn sync(&mut self, node: usize, slot: SlotId) {
        self.ops.push(PendingOp::Sync { node, slot });
    }

    fn data_sync(&mut self, node: usize, key: u64, value: Value, slot: SlotId) {
        self.ops.push(PendingOp::Data {
            node,
            key,
            value,
            slot,
        });
    }

    fn recv(&mut self, key: u64) -> Option<Value> {
        let q = self.inbox.get_mut(&key)?;
        let v = q.pop_front();
        if q.is_empty() {
            self.inbox.remove(&key);
        }
        if v.is_some() {
            self.shared.nodes[self.node]
                .inbox_depth
                .fetch_sub(1, Ordering::Relaxed);
        }
        v
    }
}

/// Land one sync decrement, routed through the dedup filter when a
/// fault plan is active. `src` is the issuing thread's lane index.
fn deliver_sync(
    shared: &Shared,
    plan: Option<&FaultPlan>,
    src: usize,
    node: usize,
    slot: SlotId,
    dup: bool,
) {
    match plan {
        None => shared.dec(src, node, slot),
        Some(p) => {
            let id = p.next_op_id();
            let times = if dup { 2 } else { 1 };
            for _ in 0..times {
                // A duplicate reuses the id; the filter admits it once.
                if p.first_delivery(id) {
                    shared.dec(src, node, slot);
                }
            }
        }
    }
}

/// Deposit a data payload and land its sync half, dedup-filtered.
///
/// The deposit is pushed before the decrement on the same lane, so the
/// receiver that drains its lanes before firing a ready fiber is
/// guaranteed to have the payload in its mailbox (see [`drain_lanes`]).
#[allow(clippy::too_many_arguments)]
fn deliver_data(
    shared: &Shared,
    plan: Option<&FaultPlan>,
    src: usize,
    node: usize,
    key: u64,
    value: Value,
    slot: SlotId,
    dup: bool,
) {
    match plan {
        None => {
            shared.push_deposit(src, node, key, value);
            shared.dec(src, node, slot);
        }
        Some(p) => {
            let id = p.next_op_id();
            let times = if dup { 2 } else { 1 };
            // A duplicate reuses the id; the filter admits it once, so at
            // most one copy is ever deposited — the payload can be moved,
            // not cloned.
            let mut value = Some(value);
            for _ in 0..times {
                if p.first_delivery(id) {
                    if let Some(v) = value.take() {
                        shared.push_deposit(src, node, key, v);
                        shared.dec(src, node, slot);
                    }
                }
            }
        }
    }
}

/// Flush a retired fiber's buffered split-phase ops. Takes the op
/// buffer by `&mut` and drains it so the allocation is reused across
/// firings.
fn apply_ops(shared: &Shared, op_src: usize, ops: &mut Vec<PendingOp>) {
    match shared.faults.as_ref() {
        None => {
            for op in ops.drain(..) {
                dispatch_op(shared, None, op_src, op, MessageFault::Deliver);
            }
        }
        Some(p) => {
            // Decide each message op's fate up front; reordered ops move
            // behind their batch siblings (the only schedule perturbation
            // that cannot lose work — cross-batch order is already
            // unconstrained).
            let mut now = Vec::with_capacity(ops.len());
            let mut later = Vec::new();
            for op in ops.drain(..) {
                let fate = match &op {
                    PendingOp::Sync { node, slot } | PendingOp::Data { node, slot, .. } => {
                        p.message_fault(op_src, *node, *slot)
                    }
                };
                if fate == MessageFault::Reorder {
                    later.push((op, fate));
                } else {
                    now.push((op, fate));
                }
            }
            now.append(&mut later);
            for (op, fate) in now {
                dispatch_op(shared, Some(p), op_src, op, fate);
            }
        }
    }
}

fn dispatch_op(
    shared: &Shared,
    plan: Option<&FaultPlan>,
    op_src: usize,
    op: PendingOp,
    fate: MessageFault,
) {
    if let MessageFault::Delay { micros } = fate {
        // The issuing SU holds the message: modeled network latency.
        std::thread::sleep(Duration::from_micros(micros));
    }
    let dup = fate == MessageFault::Duplicate;
    match op {
        PendingOp::Sync { node, slot } => {
            shared.syncs.fetch_add(1, Ordering::Relaxed);
            if shared.tracing {
                shared.record(
                    op_src as u32,
                    TraceKind::Sync {
                        to_node: node as u32,
                        slot,
                    },
                );
                if fate != MessageFault::Deliver {
                    shared.record(
                        op_src as u32,
                        TraceKind::FaultInjected {
                            kind: fault_kind(fate),
                        },
                    );
                }
            }
            if fate == MessageFault::Drop {
                return;
            }
            deliver_sync(shared, plan, op_src, node, slot, dup);
        }
        PendingOp::Data {
            node,
            key,
            value,
            slot,
        } => {
            shared.messages.fetch_add(1, Ordering::Relaxed);
            let bytes = value.bytes();
            shared.bytes.fetch_add(bytes, Ordering::Relaxed);
            if shared.tracing {
                shared.record(
                    op_src as u32,
                    TraceKind::MsgSend {
                        to_node: node as u32,
                        bytes,
                    },
                );
                if fate != MessageFault::Deliver {
                    shared.record(
                        op_src as u32,
                        TraceKind::FaultInjected {
                            kind: fault_kind(fate),
                        },
                    );
                }
            }
            if fate == MessageFault::Drop {
                return;
            }
            if node == op_src {
                shared.local_messages.fetch_add(1, Ordering::Relaxed);
            }
            deliver_data(shared, plan, op_src, node, key, value, slot, dup);
            shared.record(
                node as u32,
                TraceKind::MsgRecv {
                    from_node: op_src as u32,
                    bytes,
                },
            );
        }
    }
}

/// Stringify a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What a node thread reports back to the supervisor when it exits.
struct NodeExit<S> {
    node: usize,
    state: S,
    fired: u64,
    never_fired: u64,
}

/// Snapshot the machine for a [`StallDump`].
fn build_dump<S>(
    shared: &Shared,
    names: &[Vec<&'static str>],
    exits: &[Option<NodeExit<S>>],
) -> StallDump {
    let nodes = shared
        .nodes
        .iter()
        .enumerate()
        .map(|(n, ns)| {
            let pending = ns
                .counts
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let v = c.load(Ordering::Relaxed);
                    if v > 0 {
                        Some(PendingSlot {
                            slot: i as SlotId,
                            fiber: names[n][i],
                            remaining: v,
                        })
                    } else {
                        None
                    }
                })
                .collect();
            let exit = exits[n].as_ref();
            NodeDump {
                node: n,
                exited: exit.is_some(),
                fibers_fired: exit.map(|e| e.fired),
                queued_messages: ns.inbox_depth.load(Ordering::Relaxed),
                pending,
            }
        })
        .collect();
    StallDump { nodes }
}

/// Execute `prog` with one OS thread per node and default
/// [`NativeConfig`]. Returns when the machine is quiescent (no ready
/// fibers anywhere and none running).
pub fn run_native<S: Send + 'static>(
    prog: MachineProgram<S, NativeCtx<S>>,
) -> Result<NativeReport<S>, RunError> {
    run_native_with(prog, NativeConfig::default())
}

/// Execute `prog` under explicit supervision knobs (watchdog deadline,
/// fault plan, starvation policy).
pub fn run_native_with<S: Send + 'static>(
    prog: MachineProgram<S, NativeCtx<S>>,
    cfg: NativeConfig,
) -> Result<NativeReport<S>, RunError> {
    run_native_traced(prog, cfg, Arc::new(NullSink))
}

/// Like [`run_native_with`], but records structured [`TraceEvent`]s into
/// `sink` as the machine runs. Timestamps are monotonic nanoseconds from
/// run start (the native backend has no cycle clock), so native streams
/// are *not* deterministic across runs — use the sim backend for
/// byte-reproducible traces. The caller keeps the `Arc` and drains the
/// sink after the run. Passing a disabled sink ([`NullSink`]) makes
/// every hook a single predictable branch.
pub fn run_native_traced<S: Send + 'static>(
    prog: MachineProgram<S, NativeCtx<S>>,
    cfg: NativeConfig,
    sink: Arc<dyn TraceSink>,
) -> Result<NativeReport<S>, RunError> {
    let num_nodes = prog.num_nodes();
    let mut node_shared = Vec::with_capacity(num_nodes);
    let mut node_bodies: Vec<FiberSlots<S>> = Vec::new();
    let mut node_states = Vec::new();
    for nb in prog.nodes {
        node_shared.push(NodeShared {
            counts: nb
                .fibers
                .iter()
                .map(|f| AtomicI64::new(f.sync_count as i64))
                .collect(),
            // One lane per node thread plus the external (seeding) lane.
            lanes: (0..=num_nodes).map(|_| SpscQueue::new()).collect(),
            inbox_depth: AtomicUsize::new(0),
            sleeping: AtomicBool::new(false),
            thread: OnceLock::new(),
        });
        node_bodies.push(nb.fibers.into_iter().map(Some).collect());
        node_states.push(nb.state);
    }

    // Fiber labels, snapshotted before the bodies move into node threads
    // so a stall dump can name what it finds.
    let fiber_names: Vec<Vec<&'static str>> = node_bodies
        .iter()
        .map(|bodies| bodies.iter().flatten().map(|f| f.name).collect())
        .collect();

    let shared = Arc::new(Shared {
        nodes: node_shared,
        shutdown: AtomicBool::new(false),
        outstanding: AtomicI64::new(0),
        progress: AtomicU64::new(0),
        failure: Mutex::new(None),
        faults: cfg.faults.filter(|f| !f.is_noop()).map(FaultPlan::new),
        syncs: AtomicU64::new(0),
        messages: AtomicU64::new(0),
        local_messages: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        tracing: sink.enabled(),
        sink,
        t0: Instant::now(),
    });

    // Seed initially-ready fibers before any thread starts.
    let mut any_ready = false;
    for (n, bodies) in node_bodies.iter().enumerate() {
        for (i, spec) in bodies.iter().flatten().enumerate() {
            if spec.sync_count == 0 {
                // The supervising thread seeds through the external lane.
                shared.make_ready(num_nodes, n, i as SlotId);
                any_ready = true;
            }
        }
    }

    if !any_ready {
        // Nothing can ever run.
        let unfired = node_bodies
            .iter()
            .map(|b| b.iter().flatten().count())
            .sum::<usize>();
        if cfg.starved_is_error && unfired > 0 {
            let exits: Vec<Option<NodeExit<S>>> = (0..num_nodes).map(|_| None).collect();
            return Err(RunError::Stalled {
                reason: StallReason::Starved,
                waited: Duration::ZERO,
                outstanding: 0,
                dump: build_dump(&shared, &fiber_names, &exits),
            });
        }
        return Ok(NativeReport {
            states: node_states,
            stats: RunStats {
                unfired_fibers: unfired as u64,
                per_node: vec![NodeStats::default(); num_nodes],
                ..Default::default()
            },
            wall: Duration::ZERO,
        });
    }

    // Spin budget while idle before parking: pointless on a single
    // hardware thread (nothing else can run while we spin), cheap
    // insurance against park/unpark latency on real SMPs.
    let spin: u32 = std::thread::available_parallelism()
        .map(|p| if p.get() > 1 { 128 } else { 0 })
        .unwrap_or(0);

    // How many OS threads host the logical nodes (see
    // `NativeConfig::host_threads`). Fault plans pin one node per
    // thread so an injected stall pauses exactly that node.
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let os_threads = if shared.faults.is_some() {
        num_nodes
    } else {
        cfg.host_threads.unwrap_or(hw).clamp(1, num_nodes)
    };

    let start = Instant::now();
    let (done_tx, done_rx) = channel::<NodeExit<S>>();

    /// One logical node's run state, bundled so a host thread can own
    /// several nodes and round-robin them as an event loop.
    struct NodeRt<S: Send + 'static> {
        node: usize,
        bodies: FiberSlots<S>,
        state: S,
        ctx: NativeCtx<S>,
        inbox: HashMap<u64, VecDeque<Value>>,
        /// Slots announced ready and not yet fired.
        work: VecDeque<SlotId>,
        fired: u64,
    }

    let mut rts: Vec<NodeRt<S>> = node_bodies
        .into_iter()
        .zip(node_states)
        .enumerate()
        .map(|(node, (bodies, state))| NodeRt {
            node,
            ctx: NativeCtx {
                node,
                num_nodes,
                shared: Arc::clone(&shared),
                ops: Vec::new(),
                tbuf: Vec::new(),
                inbox: HashMap::new(),
                _state: PhantomData,
            },
            bodies,
            state,
            inbox: HashMap::new(),
            work: VecDeque::new(),
            fired: 0,
        })
        .collect();

    // Contiguous node→thread chunks keep ring neighbours co-hosted,
    // so most portion handoffs on an oversubscribed host stay on one
    // thread. Split from the back so `split_off` peels each chunk.
    for tid in (0..os_threads).rev() {
        let lo = tid * num_nodes / os_threads;
        let mut group = rts.split_off(lo);
        if group.is_empty() {
            continue;
        }
        let shared = Arc::clone(&shared);
        let done_tx = done_tx.clone();
        // The handle is dropped (thread detached): the supervisor awaits
        // the exit records instead of joining, so a thread wedged inside
        // a blocked fiber body cannot hang the run.
        std::thread::spawn(move || {
            for rt in &group {
                shared.nodes[rt.node]
                    .thread
                    .set(std::thread::current())
                    .expect("node thread registers once");
            }
            // Park events are attributed to the group's first node; a
            // multiplexing thread parks once for all its nodes.
            let lead = group[0].node as u32;
            'run: loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let mut any = false;
                for rt in group.iter_mut() {
                    let ns = &shared.nodes[rt.node];
                    drain_lanes(ns, &mut rt.inbox, &mut rt.work);
                    if rt.work.is_empty() {
                        continue;
                    }
                    any = true;
                    while let Some(idx) = rt.work.pop_front() {
                        if shared.shutdown.load(Ordering::Acquire) {
                            break 'run;
                        }
                        // Pull in every deposit that happened-before this
                        // Ready (see `drain_lanes`) so the fiber finds its
                        // data on arrival.
                        drain_lanes(ns, &mut rt.inbox, &mut rt.work);
                        if !run_one(rt, idx, &shared) {
                            break 'run;
                        }
                    }
                }
                if any {
                    continue;
                }
                // Idle: spin a little, then arm every owned node's
                // sleeping flag, recheck (the consumer half of the
                // protocol in `Shared::push`, per node), and park once
                // for the whole group.
                let mut idle = true;
                'spin: for _ in 0..spin {
                    std::hint::spin_loop();
                    for rt in group.iter_mut() {
                        drain_lanes(&shared.nodes[rt.node], &mut rt.inbox, &mut rt.work);
                        if !rt.work.is_empty() {
                            idle = false;
                            break 'spin;
                        }
                    }
                }
                if idle {
                    for rt in group.iter() {
                        shared.nodes[rt.node].sleeping.store(true, Ordering::SeqCst);
                    }
                    fence(Ordering::SeqCst);
                    let mut have = false;
                    for rt in group.iter_mut() {
                        drain_lanes(&shared.nodes[rt.node], &mut rt.inbox, &mut rt.work);
                        if !rt.work.is_empty() {
                            have = true;
                        }
                    }
                    if !have && !shared.shutdown.load(Ordering::SeqCst) {
                        let parked = Instant::now();
                        shared.record(lead, TraceKind::NodeParked);
                        // The timeout is pure insurance: correctness
                        // relies on the flag protocol, not on it.
                        std::thread::park_timeout(Duration::from_millis(10));
                        shared.record(
                            lead,
                            TraceKind::NodeUnparked {
                                parked_ns: parked.elapsed().as_nanos() as u64,
                            },
                        );
                    }
                    for rt in group.iter() {
                        shared.nodes[rt.node]
                            .sleeping
                            .store(false, Ordering::SeqCst);
                    }
                }
            }
            for rt in group {
                let _ = done_tx.send(NodeExit {
                    node: rt.node,
                    never_fired: rt.bodies.iter().flatten().count() as u64,
                    state: rt.state,
                    fired: rt.fired,
                });
            }
        });
    }
    drop(done_tx);

    /// Move everything queued on `ns`'s lanes into the node-local state:
    /// deposits into the mailbox, ready slots onto the work queue.
    ///
    /// Calling this immediately before firing a ready fiber is what
    /// keeps EARTH's data-before-sync guarantee on lock-free lanes: a
    /// sender pushes its deposit (Release) *before* its sync decrement
    /// (AcqRel RMW), the RMW chain on the sync counter carries that
    /// edge to whichever thread performs the final decrement, and that
    /// thread's Ready push (Release) is what the consumer popped
    /// (Acquire) to get here — so every deposit ordered before the
    /// firing is already visible on some lane, whatever thread sent it.
    fn drain_lanes(
        ns: &NodeShared,
        inbox: &mut HashMap<u64, VecDeque<Value>>,
        work: &mut VecDeque<SlotId>,
    ) {
        for lane in &ns.lanes {
            while let Some(msg) = lane.pop() {
                match msg {
                    LaneMsg::Deposit { key, value } => {
                        inbox.entry(key).or_default().push_back(value);
                    }
                    LaneMsg::Ready(slot) => work.push_back(slot),
                }
            }
        }
    }

    /// Fire the ready fiber at `idx` on `rt` under supervision. The body
    /// is taken and not put back: a fiber fires exactly once. Returns
    /// false when the firing failed (panic, injected or real) and the
    /// node must stop.
    fn run_one<S: Send + 'static>(rt: &mut NodeRt<S>, idx: SlotId, shared: &Shared) -> bool {
        let node = rt.node;
        let FiberSpec { name, body, .. } = rt.bodies[idx as usize]
            .take()
            .expect("ready fiber has a body");
        if let Some(plan) = &shared.faults {
            match plan.fiber_fault(node, idx) {
                FiberFault::Run => {}
                FiberFault::Stall { micros } => {
                    // The whole node pauses: no fiber on it can run and
                    // nothing it would send goes out.
                    std::thread::sleep(Duration::from_micros(micros));
                }
                FiberFault::Panic => {
                    shared.record_failure(
                        node,
                        idx,
                        name,
                        "injected fiber panic (fault plan)".to_string(),
                    );
                    return false;
                }
            }
        }
        let ctx = &mut rt.ctx;
        // Lend the mailbox to the context for the body's `recv` calls.
        ctx.inbox = std::mem::take(&mut rt.inbox);
        let fire_ts = if shared.tracing { shared.now() } else { 0 };
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut rt.state, ctx)));
        rt.inbox = std::mem::take(&mut ctx.inbox);
        match outcome {
            Ok(()) => {
                rt.fired += 1;
                if shared.tracing {
                    let end = shared.now();
                    shared.sink.record(TraceEvent::new(
                        fire_ts,
                        node as u32,
                        TraceKind::FiberFire { slot: idx },
                    ));
                    for (ts, kind) in ctx.tbuf.drain(..) {
                        shared.sink.record(TraceEvent::new(ts, node as u32, kind));
                    }
                    shared.sink.record(TraceEvent::new(
                        end,
                        node as u32,
                        TraceKind::FiberRetire {
                            slot: idx,
                            exec: end - fire_ts,
                        },
                    ));
                }
                apply_ops(shared, node, &mut ctx.ops);
                shared.progress.fetch_add(1, Ordering::Relaxed);
                if shared.finish_one() {
                    shared.broadcast_shutdown();
                }
                true
            }
            Err(payload) => {
                // Discard the fiber's buffered split-phase ops: a crashed
                // fiber sent nothing.
                ctx.ops.clear();
                ctx.tbuf.clear();
                shared.record_failure(node, idx, name, panic_message(payload));
                false
            }
        }
    }

    // Supervisor: collect exit records with a no-progress watchdog
    // instead of joining threads (a join on a wedged thread never
    // returns).
    let mut exits: Vec<Option<NodeExit<S>>> = (0..num_nodes).map(|_| None).collect();
    let mut received = 0usize;
    // The supervisor tick must be fine enough to notice both watchdog
    // stalls and deadline expiry promptly.
    let probe = cfg.deadline.map_or(cfg.watchdog, |d| d.min(cfg.watchdog));
    let tick = (probe / 8).clamp(Duration::from_millis(2), Duration::from_millis(250));
    let mut last_progress = shared.progress.load(Ordering::Relaxed);
    let mut last_change = Instant::now();
    let mut stalled = false;
    let mut deadline_hit = false;
    while received < num_nodes {
        // Deadline enforcement is progress-independent: a run that is
        // healthy but over budget is cancelled just like a wedged one,
        // through the same shutdown broadcast.
        if let Some(d) = cfg.deadline {
            if start.elapsed() >= d {
                stalled = true;
                deadline_hit = true;
                shared.broadcast_shutdown();
                break;
            }
        }
        match done_rx.recv_timeout(tick) {
            Ok(ex) => {
                let n = ex.node;
                exits[n] = Some(ex);
                received += 1;
                last_change = Instant::now();
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.failure.lock().unwrap().is_some() {
                    // A fiber failed; shutdown is in flight. Stop waiting
                    // for full quiescence and go drain what exits remain.
                    break;
                }
                let p = shared.progress.load(Ordering::Relaxed);
                // Each supervisor tick leaves a heartbeat in the trace,
                // so a post-mortem timeline shows where progress stopped.
                shared.record(
                    trace::RUN_NODE,
                    TraceKind::WatchdogHeartbeat { progress: p },
                );
                if p != last_progress {
                    last_progress = p;
                    last_change = Instant::now();
                } else if last_change.elapsed() >= cfg.watchdog {
                    stalled = true;
                    shared.broadcast_shutdown();
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Grace drain: give healthy nodes a moment to deliver their exit
    // records after a shutdown broadcast; wedged ones are abandoned.
    if received < num_nodes {
        let grace_deadline = Instant::now() + tick.max(Duration::from_millis(50)) * 4;
        while received < num_nodes {
            let now = Instant::now();
            if now >= grace_deadline {
                break;
            }
            match done_rx.recv_timeout(grace_deadline - now) {
                Ok(ex) => {
                    let n = ex.node;
                    exits[n] = Some(ex);
                    received += 1;
                }
                Err(_) => break,
            }
        }
    }
    let wall = start.elapsed();

    if let Some(f) = shared.failure.lock().unwrap().take() {
        return Err(RunError::NodePanicked {
            node: f.node,
            slot: f.slot,
            fiber: f.fiber,
            message: f.message,
        });
    }
    if stalled {
        return Err(RunError::Stalled {
            reason: if deadline_hit {
                StallReason::DeadlineExceeded
            } else {
                StallReason::NoProgress
            },
            waited: if deadline_hit { wall } else { cfg.watchdog },
            outstanding: shared.outstanding.load(Ordering::Relaxed),
            dump: build_dump(&shared, &fiber_names, &exits),
        });
    }
    if received < num_nodes {
        // A node thread died without reporting and without recording a
        // failure: a runtime bug, not a fiber panic.
        let node = exits.iter().position(|e| e.is_none()).unwrap_or(0);
        return Err(RunError::NodePanicked {
            node,
            slot: 0,
            fiber: "<runtime>",
            message: "node thread terminated without reporting".to_string(),
        });
    }

    let unfired: u64 = exits.iter().flatten().map(|ex| ex.never_fired).sum();
    if cfg.starved_is_error && unfired > 0 {
        return Err(RunError::Stalled {
            reason: StallReason::Starved,
            waited: wall,
            outstanding: shared.outstanding.load(Ordering::Relaxed),
            dump: build_dump(&shared, &fiber_names, &exits),
        });
    }

    let mut states = Vec::with_capacity(num_nodes);
    let mut per_node = Vec::with_capacity(num_nodes);
    let mut total_fired = 0u64;
    for ex in exits.into_iter().flatten() {
        total_fired += ex.fired;
        per_node.push(NodeStats {
            fibers_fired: ex.fired,
            ..Default::default()
        });
        states.push(ex.state);
    }

    let messages = shared.messages.load(Ordering::Relaxed);
    Ok(NativeReport {
        states,
        stats: RunStats {
            ops: OpCounts {
                fibers_fired: total_fired,
                syncs: shared.syncs.load(Ordering::Relaxed),
                messages,
                bytes: shared.bytes.load(Ordering::Relaxed),
                local_messages: shared.local_messages.load(Ordering::Relaxed),
            },
            unfired_fibers: unfired,
            total_cycles: 0,
            per_node,
            faults: shared
                .faults
                .as_ref()
                .map(|p| p.counts())
                .unwrap_or_default(),
        },
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FiberSpec;
    use crate::value::mailbox_key;

    type Prog<S> = MachineProgram<S, NativeCtx<S>>;

    #[test]
    fn single_ready_fiber_runs() {
        let mut prog: Prog<u32> = MachineProgram::new();
        let n = prog.add_node(0);
        prog.node_mut(n)
            .add_fiber(FiberSpec::ready("inc", |s, _cx| *s += 1));
        let r = run_native(prog).unwrap();
        assert_eq!(r.states[0], 1);
        assert_eq!(r.stats.ops.fibers_fired, 1);
        assert_eq!(r.stats.unfired_fibers, 0);
        assert_eq!(r.stats.faults, crate::faults::FaultCounts::default());
    }

    #[test]
    fn sync_chain_across_nodes() {
        // node 0 fiber syncs node 1's fiber, which syncs node 2's.
        let mut prog: Prog<u32> = MachineProgram::new();
        for _ in 0..3 {
            prog.add_node(0);
        }
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("a", |s, cx: &mut NativeCtx<u32>| {
                *s = 10;
                cx.sync(1, 0);
            }));
        prog.node_mut(1)
            .add_fiber(FiberSpec::new("b", 1, |s, cx: &mut NativeCtx<u32>| {
                *s = 20;
                cx.sync(2, 0);
            }));
        prog.node_mut(2)
            .add_fiber(FiberSpec::new("c", 1, |s, _cx| *s = 30));
        let r = run_native(prog).unwrap();
        assert_eq!(r.states, vec![10, 20, 30]);
        assert_eq!(r.stats.ops.syncs, 2);
    }

    #[test]
    fn data_sync_delivers_payload() {
        let mut prog: Prog<Vec<f64>> = MachineProgram::new();
        prog.add_node(vec![1.0, 2.0, 3.0]);
        prog.add_node(Vec::new());
        prog.node_mut(0).add_fiber(FiberSpec::ready(
            "send",
            |s: &mut Vec<f64>, cx: &mut NativeCtx<Vec<f64>>| {
                cx.data_sync(1, mailbox_key(1, 0), Value::from(s.clone()), 0);
            },
        ));
        prog.node_mut(1).add_fiber(FiberSpec::new(
            "recv",
            1,
            |s: &mut Vec<f64>, cx: &mut NativeCtx<Vec<f64>>| {
                let v = cx.recv(mailbox_key(1, 0)).expect("payload present");
                *s = v.expect_f64s().to_vec();
            },
        ));
        let r = run_native(prog).unwrap();
        assert_eq!(r.states[1], vec![1.0, 2.0, 3.0]);
        assert_eq!(r.stats.ops.messages, 1);
        assert_eq!(r.stats.ops.bytes, 24);
    }

    #[test]
    fn fan_in_sync_count() {
        // One fiber waits for syncs from 4 producers.
        const P: usize = 4;
        let mut prog: Prog<u64> = MachineProgram::new();
        for _ in 0..P + 1 {
            prog.add_node(0);
        }
        for p in 0..P {
            prog.node_mut(p).add_fiber(FiberSpec::ready(
                "producer",
                move |_s, cx: &mut NativeCtx<u64>| {
                    cx.data_sync(P, mailbox_key(9, 0), Value::Scalar(1.0), 0);
                },
            ));
        }
        prog.node_mut(P).add_fiber(FiberSpec::new(
            "consumer",
            P as u32,
            move |s, cx: &mut NativeCtx<u64>| {
                while let Some(v) = cx.recv(mailbox_key(9, 0)) {
                    *s += v.expect_scalar() as u64;
                }
            },
        ));
        let r = run_native(prog).unwrap();
        assert_eq!(r.states[P], P as u64);
    }

    #[test]
    fn unfired_fibers_reported() {
        let mut prog: Prog<u32> = MachineProgram::new();
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("runs", |s, _cx| *s += 1));
        prog.node_mut(0)
            .add_fiber(FiberSpec::new("never", 3, |s, _cx| *s += 100));
        let r = run_native(prog).unwrap();
        assert_eq!(r.states[0], 1);
        assert_eq!(r.stats.unfired_fibers, 1);
    }

    #[test]
    fn starved_is_error_turns_unfired_into_stall() {
        let mut prog: Prog<u32> = MachineProgram::new();
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("runs", |s, _cx| *s += 1));
        prog.node_mut(0)
            .add_fiber(FiberSpec::new("never", 3, |s, _cx| *s += 100));
        let cfg = NativeConfig {
            starved_is_error: true,
            ..NativeConfig::default()
        };
        match run_native_with(prog, cfg) {
            Err(RunError::Stalled { reason, dump, .. }) => {
                assert_eq!(reason, StallReason::Starved);
                assert_eq!(dump.pending_slots(), 1);
                assert_eq!(dump.nodes[0].pending[0].fiber, "never");
                assert_eq!(dump.nodes[0].pending[0].remaining, 3);
                // The node thread exited and reported before the dump.
                assert!(dump.nodes[0].exited);
                assert_eq!(dump.nodes[0].fibers_fired, Some(1));
            }
            other => panic!("expected Stalled(Starved), got {other:?}"),
        }
    }

    #[test]
    fn deadline_cancels_healthy_but_slow_run() {
        // A chain of fibers that each sleep briefly: the machine makes
        // steady progress (the watchdog never fires) but blows a short
        // wall-clock budget, so the supervisor cancels it.
        let mut prog: Prog<u32> = MachineProgram::new();
        prog.add_node(0);
        const STEPS: u32 = 100;
        prog.node_mut(0).add_fiber(FiberSpec::ready(
            "step",
            |s: &mut u32, cx: &mut NativeCtx<u32>| {
                std::thread::sleep(Duration::from_millis(10));
                *s += 1;
                cx.data_sync(0, 100u64, Value::Int(1), 1);
            },
        ));
        for i in 1..STEPS {
            prog.node_mut(0).add_fiber(FiberSpec::new(
                "step",
                1,
                move |s: &mut u32, cx: &mut NativeCtx<u32>| {
                    let _ = cx.recv(u64::from(100 + i - 1));
                    std::thread::sleep(Duration::from_millis(10));
                    *s += 1;
                    if i + 1 < STEPS {
                        cx.data_sync(0, u64::from(100 + i), Value::Int(1), i + 1);
                    }
                },
            ));
        }
        let cfg = NativeConfig {
            deadline: Some(Duration::from_millis(120)),
            ..NativeConfig::default()
        };
        let begun = Instant::now();
        match run_native_with(prog, cfg) {
            Err(RunError::Stalled { reason, .. }) => {
                assert_eq!(reason, StallReason::DeadlineExceeded);
            }
            other => panic!("expected Stalled(DeadlineExceeded), got {other:?}"),
        }
        assert!(
            begun.elapsed() < Duration::from_millis(700),
            "cancel came promptly, not at run completion ({:?})",
            begun.elapsed()
        );
    }

    #[test]
    fn generous_deadline_does_not_cancel() {
        let mut prog: Prog<u32> = MachineProgram::new();
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("runs", |s, _cx| *s += 1));
        let cfg = NativeConfig {
            deadline: Some(Duration::from_secs(30)),
            ..NativeConfig::default()
        };
        let r = run_native_with(prog, cfg).unwrap();
        assert_eq!(r.states[0], 1);
    }

    #[test]
    fn traced_native_run_records_events() {
        let mut prog: Prog<u32> = MachineProgram::new();
        prog.add_node(0);
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("a", |s, cx: &mut NativeCtx<u32>| {
                *s = 1;
                cx.trace(TraceKind::PhaseEnter { sweep: 0, phase: 0 });
                cx.data_sync(1, mailbox_key(3, 0), Value::Scalar(2.0), 0);
            }));
        prog.node_mut(1)
            .add_fiber(FiberSpec::new("b", 1, |s, cx: &mut NativeCtx<u32>| {
                *s = cx.recv(mailbox_key(3, 0)).unwrap().expect_scalar() as u32;
            }));
        let sink = Arc::new(trace::RingSink::new(2, 64));
        let r = run_native_traced(
            prog,
            NativeConfig::default(),
            sink.clone() as Arc<dyn TraceSink>,
        )
        .unwrap();
        assert_eq!(r.states, vec![1, 2]);
        assert_eq!(r.stats.total_cycles, 0, "native has no cycle clock");
        let events = sink.drain();
        let fires = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::FiberFire { .. }))
            .count();
        let retires = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::FiberRetire { .. }))
            .count();
        assert_eq!(fires, 2);
        assert_eq!(retires, 2);
        assert!(events
            .iter()
            .any(|e| e.node == 0 && e.kind == (TraceKind::PhaseEnter { sweep: 0, phase: 0 })));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            TraceKind::MsgSend {
                to_node: 1,
                bytes: 8
            }
        )));
        assert!(events.iter().any(|e| e.node == 1
            && matches!(
                e.kind,
                TraceKind::MsgRecv {
                    from_node: 0,
                    bytes: 8
                }
            )));
    }

    #[test]
    fn untraced_native_run_records_nothing() {
        let mut prog: Prog<u32> = MachineProgram::new();
        prog.add_node(0);
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("inc", |s, _cx| *s += 1));
        // run_native goes through the NullSink path; nothing to drain and
        // the run still completes.
        let r = run_native(prog).unwrap();
        assert_eq!(r.states[0], 1);
    }

    #[test]
    fn empty_program_terminates() {
        let mut prog: Prog<()> = MachineProgram::new();
        prog.add_node(());
        let r = run_native(prog).unwrap();
        assert_eq!(r.stats.ops.fibers_fired, 0);
    }

    #[test]
    fn many_nodes_stress() {
        // A ring: each node syncs the next; last one flips its state.
        const N: usize = 16;
        let mut prog: Prog<u64> = MachineProgram::new();
        for _ in 0..N {
            prog.add_node(0);
        }
        prog.node_mut(0)
            .add_fiber(FiberSpec::ready("start", |s, cx: &mut NativeCtx<u64>| {
                *s = 1;
                cx.sync(1 % N, 0);
            }));
        for n in 1..N {
            prog.node_mut(n).add_fiber(FiberSpec::new(
                "hop",
                1,
                move |s, cx: &mut NativeCtx<u64>| {
                    *s = n as u64 + 1;
                    if n + 1 < N {
                        cx.sync(n + 1, 0);
                    }
                },
            ));
        }
        let r = run_native(prog).unwrap();
        for (n, s) in r.states.iter().enumerate() {
            assert_eq!(*s, n as u64 + 1);
        }
    }
}
