//! Backend-independent program representation: nodes, fibers, sync slots.

use crate::value::Value;

/// Identifies a sync slot on a node. Slots are one-per-fiber, so a
/// `SlotId` is the index the fiber was registered at (the value returned
/// by [`NodeBuilder::add_fiber`]).
pub type SlotId = u32;

/// The boxed body of a fiber: runs with exclusive access to the node's
/// state and a backend context for issuing EARTH operations. `FnOnce`
/// because every fiber fires exactly once: the backend takes the body
/// when the fiber fires, so a body still present at the end of a run is
/// an unfired fiber.
pub type FiberBody<S, C> = Box<dyn FnOnce(&mut S, &mut C) + Send>;

/// Specification of one fiber.
pub struct FiberSpec<S, C> {
    /// Debug/stats label.
    pub name: &'static str,
    /// Initial sync-slot count. The fiber becomes ready when the count
    /// reaches zero; a count of zero makes it ready at start-up.
    pub sync_count: u32,
    /// The code.
    pub body: FiberBody<S, C>,
}

impl<S, C> FiberSpec<S, C> {
    /// A fiber gated on `sync_count` incoming syncs.
    pub fn new(
        name: &'static str,
        sync_count: u32,
        body: impl FnOnce(&mut S, &mut C) + Send + 'static,
    ) -> Self {
        FiberSpec {
            name,
            sync_count,
            body: Box::new(body),
        }
    }

    /// A fiber that is ready immediately.
    pub fn ready(name: &'static str, body: impl FnOnce(&mut S, &mut C) + Send + 'static) -> Self {
        Self::new(name, 0, body)
    }
}

impl<S, C> std::fmt::Debug for FiberSpec<S, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FiberSpec")
            .field("name", &self.name)
            .field("sync_count", &self.sync_count)
            .finish_non_exhaustive()
    }
}

/// A shareable fiber body: unlike [`FiberBody`] it is `Fn` (not
/// `FnOnce`) and reference-counted, so one closure can back the same
/// fiber across many program instantiations.
pub type SharedFiberBody<S, C> = std::sync::Arc<dyn Fn(&mut S, &mut C) + Send + Sync>;

/// A reusable fiber description. Where [`FiberSpec`] owns its body (and
/// is therefore consumed when the program runs), a `FiberTemplate`
/// shares it, so a [`ProgramTemplate`] can be instantiated any number of
/// times without re-creating the fiber closures.
#[derive(Clone)]
pub struct FiberTemplate<S, C> {
    pub name: &'static str,
    pub sync_count: u32,
    pub body: SharedFiberBody<S, C>,
}

impl<S: 'static, C: 'static> FiberTemplate<S, C> {
    /// A template fiber gated on `sync_count` incoming syncs.
    pub fn new(
        name: &'static str,
        sync_count: u32,
        body: impl Fn(&mut S, &mut C) + Send + Sync + 'static,
    ) -> Self {
        FiberTemplate {
            name,
            sync_count,
            body: std::sync::Arc::new(body),
        }
    }

    /// Materialize a runnable [`FiberSpec`] that forwards to the shared
    /// body. The clone is an `Arc` bump plus one small allocation — the
    /// closure environment itself is reused.
    pub fn instantiate(&self) -> FiberSpec<S, C> {
        let body = std::sync::Arc::clone(&self.body);
        FiberSpec {
            name: self.name,
            sync_count: self.sync_count,
            body: Box::new(move |s, c| body(s, c)),
        }
    }
}

impl<S, C> std::fmt::Debug for FiberTemplate<S, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FiberTemplate")
            .field("name", &self.name)
            .field("sync_count", &self.sync_count)
            .finish_non_exhaustive()
    }
}

/// The fibers of one node, without the state (states are supplied at
/// instantiation time, since each run consumes them).
#[derive(Clone, Debug)]
pub struct NodeTemplate<S, C> {
    pub(crate) fibers: Vec<FiberTemplate<S, C>>,
}

impl<S: 'static, C: 'static> NodeTemplate<S, C> {
    /// Register a template fiber; returns the [`SlotId`] it will occupy
    /// in every instantiated program.
    pub fn add_fiber(&mut self, t: FiberTemplate<S, C>) -> SlotId {
        let id = self.fibers.len() as SlotId;
        self.fibers.push(t);
        id
    }

    pub fn num_fibers(&self) -> usize {
        self.fibers.len()
    }
}

/// A reusable whole-machine program: the fiber structure of a
/// [`MachineProgram`] with the node states factored out. Build it once
/// per `(workload, strategy)` pair, then [`instantiate`] it with fresh
/// states for each run — the fiber bodies (the expensive closures) are
/// shared across instantiations instead of rebuilt.
///
/// [`instantiate`]: ProgramTemplate::instantiate
#[derive(Clone, Debug)]
pub struct ProgramTemplate<S, C> {
    nodes: Vec<NodeTemplate<S, C>>,
}

impl<S: 'static, C: 'static> Default for ProgramTemplate<S, C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: 'static, C: 'static> ProgramTemplate<S, C> {
    pub fn new() -> Self {
        ProgramTemplate { nodes: Vec::new() }
    }

    /// Add a node; returns its node id.
    pub fn add_node(&mut self) -> usize {
        self.nodes.push(NodeTemplate { fibers: Vec::new() });
        self.nodes.len() - 1
    }

    pub fn node_mut(&mut self, node: usize) -> &mut NodeTemplate<S, C> {
        &mut self.nodes[node]
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_fibers(&self) -> usize {
        self.nodes.iter().map(|n| n.fibers.len()).sum()
    }

    /// Produce a runnable [`MachineProgram`] with one supplied state per
    /// node. Panics if `states.len() != num_nodes()`.
    pub fn instantiate(&self, states: Vec<S>) -> MachineProgram<S, C> {
        assert_eq!(
            states.len(),
            self.nodes.len(),
            "one state per template node required"
        );
        let mut prog = MachineProgram::new();
        for (tmpl, state) in self.nodes.iter().zip(states) {
            let id = prog.add_node(state);
            let node = prog.node_mut(id);
            for f in &tmpl.fibers {
                node.add_fiber(f.instantiate());
            }
        }
        prog
    }
}

/// One node of the machine: its procedure frame (`state`) and the fibers
/// registered on it.
pub struct NodeBuilder<S, C> {
    pub state: S,
    pub(crate) fibers: Vec<FiberSpec<S, C>>,
}

impl<S, C> NodeBuilder<S, C> {
    /// Register a fiber; returns its [`SlotId`] (used as the sync target).
    pub fn add_fiber(&mut self, spec: FiberSpec<S, C>) -> SlotId {
        let id = self.fibers.len() as SlotId;
        self.fibers.push(spec);
        id
    }

    pub fn num_fibers(&self) -> usize {
        self.fibers.len()
    }
}

/// A whole-machine program: one [`NodeBuilder`] per node. Generic over
/// the node state `S` and the backend context `C` the fiber bodies will
/// receive ([`crate::native::NativeCtx`] or [`crate::sim::SimCtx`]).
pub struct MachineProgram<S, C> {
    pub(crate) nodes: Vec<NodeBuilder<S, C>>,
}

impl<S, C> Default for MachineProgram<S, C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S, C> MachineProgram<S, C> {
    pub fn new() -> Self {
        MachineProgram { nodes: Vec::new() }
    }

    /// Add a node with the given initial state; returns its node id.
    pub fn add_node(&mut self, state: S) -> usize {
        self.nodes.push(NodeBuilder {
            state,
            fibers: Vec::new(),
        });
        self.nodes.len() - 1
    }

    pub fn node_mut(&mut self, node: usize) -> &mut NodeBuilder<S, C> {
        &mut self.nodes[node]
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total registered fibers across all nodes.
    pub fn num_fibers(&self) -> usize {
        self.nodes.iter().map(|n| n.fibers.len()).sum()
    }
}

/// The handle through which a fiber body issues EARTH operations.
///
/// All operations are **split-phase**: they are buffered while the fiber
/// runs and take effect when it ends (a non-preemptive fiber cannot
/// observe its own operations' results — the consumer of a long-latency
/// operation must be a different fiber, exactly as the paper describes).
///
/// The accounting methods ([`charge`](FiberCtx::charge),
/// [`load`](FiberCtx::load), [`store`](FiberCtx::store),
/// [`flops`](FiberCtx::flops)) are no-ops on the native backend and
/// compile away; the simulator maps them to cycles through its cost
/// model.
pub trait FiberCtx<S> {
    /// Id of the node this fiber runs on.
    fn node_id(&self) -> usize;

    /// Number of nodes in the machine.
    fn num_nodes(&self) -> usize;

    /// `SYNC`: decrement the sync slot `slot` on `node` (local or remote).
    fn sync(&mut self, node: usize, slot: SlotId);

    /// `DATA_SYNC` / `BLKMOV`: deposit `value` in `node`'s mailbox under
    /// `key`, then decrement `slot` there. The receiving fiber picks the
    /// payload up with [`recv`](FiberCtx::recv).
    fn data_sync(&mut self, node: usize, key: u64, value: Value, slot: SlotId);

    /// Take one message deposited under `key` in this node's mailbox.
    /// Messages with the same key queue in arrival order.
    fn recv(&mut self, key: u64) -> Option<Value>;

    /// Charge `cycles` of pure computation to this fiber (sim only).
    #[inline]
    fn charge(&mut self, _cycles: u64) {}

    /// Charge `n` floating-point operations (sim only).
    #[inline]
    fn flops(&mut self, _n: u64) {}

    /// Charge one memory load of `addr` through the cache model (sim only).
    #[inline]
    fn load(&mut self, _addr: u64) {}

    /// Charge one memory store of `addr` through the cache model (sim only).
    #[inline]
    fn store(&mut self, _addr: u64) {}

    /// Cycles charged so far during the current fiber execution.
    fn charged(&self) -> u64 {
        0
    }

    /// Current simulated time in cycles (0 on the native backend).
    fn now(&self) -> u64 {
        0
    }

    /// Whether this is the simulating backend (useful to switch between
    /// metered and plain inner loops).
    fn is_sim(&self) -> bool {
        false
    }

    /// Whether a trace sink is attached and recording. Hot paths must
    /// guard [`trace`](FiberCtx::trace) calls (and any event-argument
    /// computation) on this, so untraced runs pay one predictable
    /// branch per potential event.
    #[inline]
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Emit a structured trace event. The backend supplies the
    /// timestamp: simulated cycles on the simulator (stamped at the
    /// point the fiber had charged this many cycles), monotonic
    /// nanoseconds on the native backend. A no-op when no sink is
    /// attached.
    #[inline]
    fn trace(&mut self, _kind: trace::TraceKind) {}
}

/// Memory-access metering abstraction for hot loops.
///
/// Executors write their inner loops once, generic over `Meter`; passing
/// [`CtxMeter`] yields a fully instrumented loop for the simulator's
/// measuring sweep, and [`NullMeter`] yields the plain loop (native
/// execution, or simulator sweeps whose cost is replayed from the
/// measuring sweep).
pub trait Meter {
    fn load(&mut self, addr: u64);
    fn store(&mut self, addr: u64);
    fn flops(&mut self, n: u64);
}

/// The no-op meter: every call compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMeter;

impl Meter for NullMeter {
    #[inline(always)]
    fn load(&mut self, _addr: u64) {}
    #[inline(always)]
    fn store(&mut self, _addr: u64) {}
    #[inline(always)]
    fn flops(&mut self, _n: u64) {}
}

/// A meter that forwards to a [`FiberCtx`].
pub struct CtxMeter<'a, S, C: FiberCtx<S>> {
    pub ctx: &'a mut C,
    _marker: std::marker::PhantomData<fn(&mut S)>,
}

impl<'a, S, C: FiberCtx<S>> CtxMeter<'a, S, C> {
    pub fn new(ctx: &'a mut C) -> Self {
        CtxMeter {
            ctx,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S, C: FiberCtx<S>> Meter for CtxMeter<'_, S, C> {
    #[inline]
    fn load(&mut self, addr: u64) {
        self.ctx.load(addr);
    }
    #[inline]
    fn store(&mut self, addr: u64) {
        self.ctx.store(addr);
    }
    #[inline]
    fn flops(&mut self, n: u64) {
        self.ctx.flops(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut prog: MachineProgram<(), ()> = MachineProgram::new();
        let n = prog.add_node(());
        let f0 = prog.node_mut(n).add_fiber(FiberSpec::ready("a", |_, _| {}));
        let f1 = prog
            .node_mut(n)
            .add_fiber(FiberSpec::new("b", 2, |_, _| {}));
        assert_eq!((f0, f1), (0, 1));
        assert_eq!(prog.num_fibers(), 2);
        assert_eq!(prog.num_nodes(), 1);
    }

    #[test]
    fn fiberspec_constructors() {
        let s: FiberSpec<(), ()> = FiberSpec::ready("r", |_, _| {});
        assert_eq!(s.sync_count, 0);
        let s = FiberSpec::<(), ()>::new("p", 3, |_, _| {});
        assert_eq!(s.sync_count, 3);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("\"p\""));
    }

    #[test]
    fn null_meter_is_inert() {
        let mut m = NullMeter;
        m.load(1);
        m.store(2);
        m.flops(3);
    }

    #[test]
    fn template_instantiates_repeatedly() {
        let mut tmpl: ProgramTemplate<u32, ()> = ProgramTemplate::new();
        let n = tmpl.add_node();
        let f = tmpl
            .node_mut(n)
            .add_fiber(FiberTemplate::new("t", 2, |s: &mut u32, _| *s += 1));
        assert_eq!(f, 0);
        assert_eq!(tmpl.num_nodes(), 1);
        assert_eq!(tmpl.num_fibers(), 1);
        for round in 0..3 {
            let mut prog = tmpl.instantiate(vec![round]);
            assert_eq!(prog.num_nodes(), 1);
            assert_eq!(prog.num_fibers(), 1);
            let node = &mut prog.nodes[0];
            let spec = node.fibers.pop().unwrap();
            assert_eq!(spec.sync_count, 2);
            (spec.body)(&mut node.state, &mut ());
            assert_eq!(node.state, round + 1);
        }
    }

    #[test]
    fn template_clone_shares_bodies() {
        let mut tmpl: ProgramTemplate<u32, ()> = ProgramTemplate::new();
        let n = tmpl.add_node();
        tmpl.node_mut(n)
            .add_fiber(FiberTemplate::new("t", 0, |s: &mut u32, _| *s *= 2));
        let copy = tmpl.clone();
        let mut prog = copy.instantiate(vec![21]);
        let node = &mut prog.nodes[0];
        let spec = node.fibers.pop().unwrap();
        (spec.body)(&mut node.state, &mut ());
        assert_eq!(node.state, 42);
    }

    #[test]
    #[should_panic(expected = "one state per template node")]
    fn template_state_count_mismatch_panics() {
        let mut tmpl: ProgramTemplate<u32, ()> = ProgramTemplate::new();
        tmpl.add_node();
        let _ = tmpl.instantiate(vec![]);
    }
}
