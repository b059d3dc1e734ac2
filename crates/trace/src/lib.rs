//! # trace — structured tracing and metrics for the EARTH reproduction
//!
//! The paper's claims are about *where time goes*: ring-communication
//! overlap under `k`-phase rotation, LightInspector cost, first-loop
//! vs. copy-loop balance. This crate gives every backend and engine a
//! shared, zero-dependency vocabulary for reporting that:
//!
//! * [`TraceEvent`] — a typed, `Copy` event (fiber fire/retire, sync,
//!   message send/recv with byte counts, phase enter/exit, portion
//!   rotation, inspector stage, fault injection, recovery rungs,
//!   watchdog heartbeats), stamped with a backend-defined timestamp:
//!   simulated **cycles** on the simulator, monotonic **nanoseconds**
//!   on the native backend.
//! * [`TraceSink`] — where events go while the run executes.
//!   [`NullSink`] is the always-off fast path (callers guard event
//!   construction on [`TraceSink::enabled`], so an untraced run pays
//!   one predictable branch); [`RingSink`] keeps per-node bounded ring
//!   buffers; [`CsvSink`] adds a machine-readable text rendering.
//! * [`Timeline`] — folds an event stream into per-processor,
//!   per-phase spans (compute vs. copy-loop vs. blocked-on-rotation)
//!   and renders the plain-text phase table the `--trace` flag prints.
//! * [`MetricsRegistry`] — named counters and gauges merged into a
//!   run's outcome.
//! * [`chrome`] — a hand-written (serde-free) Chrome `trace_event`
//!   JSON exporter whose output loads in `chrome://tracing` and
//!   Perfetto, plus the matching hand validator.
//!
//! Determinism contract: recording an event never consults a clock —
//! the *caller* supplies the timestamp — so on the deterministic
//! simulator the drained event stream is byte-identical across runs
//! with the same seed.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;

pub mod chrome;
pub mod timeline;

pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use timeline::{Span, SpanKind, Timeline};

/// The `node` id used for machine-level events that belong to no single
/// node (recovery rungs, watchdog heartbeats).
pub const RUN_NODE: u32 = u32::MAX;

/// Which fault the injection layer fired (mirrors
/// `earth_model::faults::MessageFault` plus fiber faults, without
/// depending on that crate — `trace` sits below everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A message was silently dropped.
    MsgDrop,
    /// A message was delayed.
    MsgDelay,
    /// A message was reordered behind later traffic.
    MsgReorder,
    /// A message was delivered twice.
    MsgDuplicate,
    /// A fiber body was made to fail.
    Fiber,
}

/// What happened. Every variant is plain old data so events stay `Copy`
/// and ring buffers never allocate per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A fiber's sync slot reached zero and its body started running.
    FiberFire { slot: u32 },
    /// The fiber body finished; `exec` is its execution time in the
    /// timestamp unit (cycles on the simulator).
    FiberRetire { slot: u32, exec: u64 },
    /// A `SYNC` EARTH operation was issued toward `to_node`.
    Sync { to_node: u32, slot: u32 },
    /// A `DATA_SYNC`/`BLKMOV` payload of `bytes` left for `to_node`.
    MsgSend { to_node: u32, bytes: u64 },
    /// A payload of `bytes` arrived from `from_node`.
    MsgRecv { from_node: u32, bytes: u64 },
    /// A rotating-portion phase began on this node.
    PhaseEnter { sweep: u32, phase: u32 },
    /// The phase's work (both loops) finished on this node.
    PhaseExit { sweep: u32, phase: u32 },
    /// The copy loop (folding a received portion / staging read state)
    /// began within the surrounding phase.
    CopyEnter { sweep: u32, phase: u32 },
    /// The copy loop ended.
    CopyExit { sweep: u32, phase: u32 },
    /// This node forwarded portion `portion` to `to_node` on the ring.
    PortionRotate { portion: u32, to_node: u32 },
    /// The LightInspector completed pass `stage` of its pipeline.
    InspectorStage { stage: u32 },
    /// The fault-injection layer fired.
    FaultInjected { kind: FaultKind },
    /// The recovery ladder started attempt `attempt` (0-based); an
    /// `attempt` of `u32::MAX` marks the fall-back-to-sequential rung.
    RecoveryRung { attempt: u32 },
    /// The native watchdog sampled the shared progress counter.
    WatchdogHeartbeat { progress: u64 },
    /// A native node thread found every inbound lane empty and parked.
    NodeParked,
    /// The node thread resumed after parking for `parked_ns`
    /// nanoseconds (woken by a producer or by the park timeout).
    NodeUnparked { parked_ns: u64 },
}

impl TraceKind {
    /// Short stable name, used by the CSV and Chrome exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::FiberFire { .. } => "fiber_fire",
            TraceKind::FiberRetire { .. } => "fiber_retire",
            TraceKind::Sync { .. } => "sync",
            TraceKind::MsgSend { .. } => "msg_send",
            TraceKind::MsgRecv { .. } => "msg_recv",
            TraceKind::PhaseEnter { .. } => "phase_enter",
            TraceKind::PhaseExit { .. } => "phase_exit",
            TraceKind::CopyEnter { .. } => "copy_enter",
            TraceKind::CopyExit { .. } => "copy_exit",
            TraceKind::PortionRotate { .. } => "portion_rotate",
            TraceKind::InspectorStage { .. } => "inspector_stage",
            TraceKind::FaultInjected { .. } => "fault_injected",
            TraceKind::RecoveryRung { .. } => "recovery_rung",
            TraceKind::WatchdogHeartbeat { .. } => "watchdog_heartbeat",
            TraceKind::NodeParked => "node_parked",
            TraceKind::NodeUnparked { .. } => "node_unparked",
        }
    }

    /// The two numeric arguments the exporters attach, with names.
    pub fn args(&self) -> [(&'static str, u64); 2] {
        match *self {
            TraceKind::FiberFire { slot } => [("slot", slot as u64), ("", 0)],
            TraceKind::FiberRetire { slot, exec } => [("slot", slot as u64), ("exec", exec)],
            TraceKind::Sync { to_node, slot } => [("to", to_node as u64), ("slot", slot as u64)],
            TraceKind::MsgSend { to_node, bytes } => [("to", to_node as u64), ("bytes", bytes)],
            TraceKind::MsgRecv { from_node, bytes } => {
                [("from", from_node as u64), ("bytes", bytes)]
            }
            TraceKind::PhaseEnter { sweep, phase }
            | TraceKind::PhaseExit { sweep, phase }
            | TraceKind::CopyEnter { sweep, phase }
            | TraceKind::CopyExit { sweep, phase } => {
                [("sweep", sweep as u64), ("phase", phase as u64)]
            }
            TraceKind::PortionRotate { portion, to_node } => {
                [("portion", portion as u64), ("to", to_node as u64)]
            }
            TraceKind::InspectorStage { stage } => [("stage", stage as u64), ("", 0)],
            TraceKind::FaultInjected { kind } => [("kind", kind as u64), ("", 0)],
            TraceKind::RecoveryRung { attempt } => [("attempt", attempt as u64), ("", 0)],
            TraceKind::WatchdogHeartbeat { progress } => [("progress", progress), ("", 0)],
            TraceKind::NodeParked => [("", 0), ("", 0)],
            TraceKind::NodeUnparked { parked_ns } => [("parked_ns", parked_ns), ("", 0)],
        }
    }
}

/// One structured event: a timestamp (backend-defined unit), the node
/// it happened on ([`RUN_NODE`] for machine-level events), and what
/// happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    pub ts: u64,
    pub node: u32,
    pub kind: TraceKind,
}

impl TraceEvent {
    pub fn new(ts: u64, node: u32, kind: TraceKind) -> Self {
        TraceEvent { ts, node, kind }
    }

    /// One CSV line: `ts,node,name,arg1name,arg1,arg2name,arg2`.
    pub fn csv_line(&self) -> String {
        let [a, b] = self.kind.args();
        format!(
            "{},{},{},{},{},{},{}",
            self.ts,
            self.node,
            self.kind.name(),
            a.0,
            a.1,
            b.0,
            b.1
        )
    }
}

/// Where events go during a run.
///
/// `record` takes `&self` so one sink can be shared across the native
/// backend's node threads behind an `Arc`. Hot paths must guard event
/// construction on [`enabled`](TraceSink::enabled) — with [`NullSink`]
/// that reduces the whole tracing layer to a single well-predicted
/// branch per potential event.
pub trait TraceSink: Send + Sync {
    /// Whether events are being kept. Callers skip event construction
    /// entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. May drop it (bounded sinks overwrite oldest).
    fn record(&self, ev: TraceEvent);

    /// Snapshot all retained events, merged across nodes in timestamp
    /// order (stable: per-node recording order breaks ties).
    fn drain(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Events this sink has discarded (bounded sinks overwrite oldest).
    /// Zero for unbounded or always-off sinks. Surfaced as the
    /// `trace_dropped_events` counter in run metrics so a budgeted ring
    /// at large node counts degrades *visibly*, never silently.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The always-off sink: `enabled()` is `false` and `record` is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&self, _ev: TraceEvent) {}
}

struct NodeRing {
    buf: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

/// Per-node bounded ring buffers. Each node's events go to that node's
/// own ring (one uncontended mutex per node — native threads each
/// write only their own nodes' rings), so
/// recording is lock-cheap. When a ring is full the **oldest** event is
/// overwritten and counted in [`RingSink::dropped`].
pub struct RingSink {
    rings: Vec<Mutex<NodeRing>>,
    capacity: usize,
}

impl RingSink {
    /// Rings for `num_nodes` nodes plus one machine-level ring (events
    /// tagged [`RUN_NODE`] or any out-of-range node land there), each
    /// holding at most `capacity` events.
    pub fn new(num_nodes: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            rings: (0..=num_nodes)
                .map(|_| {
                    Mutex::new(NodeRing {
                        buf: std::collections::VecDeque::with_capacity(capacity.min(1024)),
                        dropped: 0,
                    })
                })
                .collect(),
            capacity,
        }
    }

    fn ring_of(&self, node: u32) -> &Mutex<NodeRing> {
        let i = (node as usize).min(self.rings.len() - 1);
        &self.rings[i]
    }

    /// Total events overwritten because a ring was full.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.lock().unwrap().dropped).sum()
    }

    /// The per-node ring capacity this sink was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: TraceEvent) {
        let mut ring = self.ring_of(ev.node).lock().unwrap();
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(ev);
    }

    fn drain(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for r in &self.rings {
            all.extend(r.lock().unwrap().buf.iter().copied());
        }
        // Stable: per-ring recording order breaks timestamp ties, and
        // rings are visited in node order, so the merged stream is a
        // pure function of what was recorded.
        all.sort_by_key(|e| e.ts);
        all
    }

    fn dropped(&self) -> u64 {
        RingSink::dropped(self)
    }
}

/// A [`RingSink`] that can also render its contents as CSV.
pub struct CsvSink {
    inner: RingSink,
}

impl CsvSink {
    pub fn new(num_nodes: usize, capacity: usize) -> Self {
        CsvSink {
            inner: RingSink::new(num_nodes, capacity),
        }
    }

    /// The retained events as CSV with a header line.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("ts,node,event,arg1,val1,arg2,val2\n");
        for ev in self.inner.drain() {
            out.push_str(&ev.csv_line());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for CsvSink {
    fn record(&self, ev: TraceEvent) {
        self.inner.record(ev);
    }
    fn drain(&self) -> Vec<TraceEvent> {
        self.inner.drain()
    }
    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }
}

/// Render a drained event stream as CSV (header + one line per event).
pub fn events_to_csv(events: &[TraceEvent]) -> String {
    let mut out = String::from("ts,node,event,arg1,val1,arg2,val2\n");
    for ev in events {
        out.push_str(&ev.csv_line());
        out.push('\n');
    }
    out
}

/// Named counters and gauges describing one run, with deterministic
/// (sorted) iteration order. Counters accumulate; gauges overwrite.
///
/// Names are either plain (`"messages"`) or labeled
/// (`"jobs_ok{tenant=acme}"`, built by [`Self::count_labeled`] /
/// [`Self::gauge_labeled`]) — the label syntax is part of the rendered
/// name, so exports and `render` need no schema change for multi-tenant
/// serving metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<Cow<'static, str>, u64>,
    gauges: BTreeMap<Cow<'static, str>, f64>,
}

/// Render a `name{label=value}` metric key. Label values are sanitized
/// (braces, `=`, and newlines replaced) so a hostile tenant id cannot
/// forge a different metric name.
pub fn labeled_key(name: &str, label: &str, value: &str) -> String {
    let mut clean = String::with_capacity(value.len());
    for c in value.chars() {
        clean.push(match c {
            '{' | '}' | '=' | '\n' | '\r' | ',' => '_',
            c => c,
        });
    }
    format!("{name}{{{label}={clean}}}")
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (creating it at zero).
    pub fn count(&mut self, name: impl Into<Cow<'static, str>>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Add `delta` to the labeled counter `name{label=value}` — e.g.
    /// `count_labeled("jobs_ok", "tenant", "acme", 1)`.
    pub fn count_labeled(&mut self, name: &str, label: &str, value: &str, delta: u64) {
        self.count(labeled_key(name, label, value), delta);
    }

    /// Set gauge `name` to `value`.
    pub fn gauge(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Set the labeled gauge `name{label=value}`.
    pub fn gauge_labeled(&mut self, name: &str, label: &str, lvalue: &str, value: f64) {
        self.gauge(labeled_key(name, label, lvalue), value);
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Merge another registry into this one (counters add, gauges
    /// overwrite) — used when a recovery ladder accumulates attempts
    /// and when a server folds per-job metrics into its registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
    }

    /// Two-column plain-text rendering, counters then gauges.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("  {k:<28} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("  {k:<28} {v:.6}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, node: u32) -> TraceEvent {
        TraceEvent::new(
            ts,
            node,
            TraceKind::Sync {
                to_node: 0,
                slot: 1,
            },
        )
    }

    #[test]
    fn null_sink_is_disabled_and_empty() {
        let s = NullSink;
        assert!(!s.enabled());
        s.record(ev(1, 0));
        assert!(s.drain().is_empty());
    }

    #[test]
    fn ring_sink_orders_by_timestamp_across_nodes() {
        let s = RingSink::new(2, 16);
        s.record(ev(5, 1));
        s.record(ev(3, 0));
        s.record(ev(5, 0));
        let got = s.drain();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].ts, 3);
        // Tie at ts=5: node order breaks it deterministically.
        assert_eq!((got[1].ts, got[1].node), (5, 0));
        assert_eq!((got[2].ts, got[2].node), (5, 1));
    }

    #[test]
    fn ring_sink_bounds_and_counts_drops() {
        let s = RingSink::new(1, 2);
        for t in 0..5 {
            s.record(ev(t, 0));
        }
        let got = s.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].ts, 3); // oldest overwritten
        assert_eq!(s.dropped(), 3);
    }

    #[test]
    fn run_level_events_use_overflow_ring() {
        let s = RingSink::new(2, 4);
        s.record(TraceEvent::new(
            1,
            RUN_NODE,
            TraceKind::RecoveryRung { attempt: 0 },
        ));
        assert_eq!(s.drain().len(), 1);
    }

    #[test]
    fn csv_sink_renders_header_and_lines() {
        let s = CsvSink::new(1, 8);
        s.record(ev(7, 0));
        let csv = s.to_csv();
        assert!(csv.starts_with("ts,node,event,"));
        assert!(csv.contains("7,0,sync,to,0,slot,1"));
    }

    #[test]
    fn labeled_metrics_key_by_tenant_and_sanitize() {
        let mut m = MetricsRegistry::new();
        m.count_labeled("jobs_ok", "tenant", "acme", 2);
        m.count_labeled("jobs_ok", "tenant", "acme", 1);
        m.count_labeled("jobs_ok", "tenant", "zeta", 5);
        m.gauge_labeled("queue_depth", "tenant", "acme", 3.0);
        assert_eq!(m.counter("jobs_ok{tenant=acme}"), Some(3));
        assert_eq!(m.counter("jobs_ok{tenant=zeta}"), Some(5));
        assert_eq!(m.gauge_value("queue_depth{tenant=acme}"), Some(3.0));
        // A hostile tenant id cannot forge a different metric name.
        m.count_labeled("jobs_ok", "tenant", "x}\njobs_ok{tenant=y", 1);
        assert_eq!(m.counter("jobs_ok{tenant=x__jobs_ok_tenant_y}"), Some(1));
        assert!(m.render().contains("jobs_ok{tenant=acme}"));
        // Labeled counters survive a merge.
        let mut sum = MetricsRegistry::new();
        sum.count_labeled("jobs_ok", "tenant", "acme", 1);
        sum.merge(&m);
        assert_eq!(sum.counter("jobs_ok{tenant=acme}"), Some(4));
    }

    #[test]
    fn metrics_counters_add_and_gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.count("messages", 2);
        m.count("messages", 3);
        m.gauge("seconds", 1.0);
        m.gauge("seconds", 2.0);
        assert_eq!(m.counter("messages"), Some(5));
        assert_eq!(m.gauge_value("seconds"), Some(2.0));
        let mut other = MetricsRegistry::new();
        other.count("messages", 1);
        m.merge(&other);
        assert_eq!(m.counter("messages"), Some(6));
        assert!(m.render().contains("messages"));
    }
}
