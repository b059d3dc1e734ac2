//! The phased program's node: its state, the hooks the ring driver
//! calls in every phase fiber, and the measuring sweep's address walk.
//!
//! Every run, simulated or native, shares one region allocation for
//! the reduction arrays ([`SharedX`]) and a sweep-parity pair for the
//! read arrays ([`SharedRead`]), so the rotation moves ownership, not
//! doubles; the simulator charges each hand-off as the block move it
//! stands for ([`FiberCtx::handoff`]). All of the phased program's
//! `unsafe` code lives in this file.

use std::borrow::Cow;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use earth_model::sim::SimConfig;
use earth_model::{FiberCtx, Meter};
use lightinspector::{FlatPlan, PhaseGeometry};

use super::plan::NodePlanData;
use super::PhasedSpec;
use crate::engine::RunOutcome;
use crate::kernel::EdgeKernel;
use crate::prepared::Workspace;
use crate::ring::{slot_of, Assembled, NodeOf, Phase, RingProgram};
use crate::seq::seq_reduction;
use crate::vector;

/// The phased program as the ring driver runs it: the prepared plan's
/// per-node schedules and everything derived from the spec. The public
/// face is [`PreparedPhased`](crate::PreparedPhased).
pub struct PhasedProgram<K> {
    pub(super) kernel: Arc<K>,
    pub(super) num_elements: usize,
    /// Where the current indirection lives.
    pub(super) routing: Routing,
    /// Per-proc local→global iteration maps.
    pub(super) local_iters: Vec<Vec<u32>>,
    /// Frozen per-node plan snapshots handed to node states.
    pub(super) node_data: Vec<Arc<NodePlanData>>,
    /// Each node's kernel stream in its schedule's row order:
    /// `edge[proc][row] == kernel.edge()[giters[row]]`, one `f64` column
    /// beside the rows; empty per node when the kernel declares no
    /// stream. Gathered at prepare, again by `set_kernel`, and reordered
    /// for each node `apply_updates` rebuilds.
    pub(super) edge: Vec<Arc<Vec<f64>>>,
    /// The kernel's initial read state (element-major interleaved),
    /// computed once and copied into pooled buffers on each execute.
    pub(super) read_init: Vec<f64>,
    /// Modeled per-iteration / per-copy overhead of the generated phased
    /// loop code (0 on the native backend).
    pub(super) overheads: (u64, u64),
    /// The structure hash of the originating (spec, strategy) pair,
    /// combined with the mutation version to form `cache_key`. Hashing
    /// reads the whole indirection, so it runs on the first `cache_key`
    /// or before the first update rewrites the indirection, whichever
    /// comes first.
    pub(super) structure_hash: OnceLock<u64>,
}

/// The one copy of a plan's current indirection.
pub(super) enum Routing {
    /// The spec's own global arrays, shared with the caller, until the
    /// first `apply_updates`.
    Global(Arc<Vec<Vec<u32>>>),
    /// From the first `apply_updates` on: each node's local arrays,
    /// `[proc][r][i]` for its local iteration `i` — the inspector's
    /// input when an update rebuilds the node. Runs that never adapt
    /// never build them.
    PerNode(Vec<Vec<Vec<u32>>>),
}

impl<K: EdgeKernel> PhasedProgram<K> {
    /// Iterations of the whole loop.
    pub(super) fn num_iterations(&self) -> usize {
        self.local_iters.iter().map(Vec::len).sum()
    }

    /// The current global indirection: borrowed while the plan routes
    /// through the spec's arrays, scattered from the nodes' local arrays
    /// once updates have applied.
    pub(super) fn global_indirection(&self) -> Cow<'_, [Vec<u32>]> {
        match &self.routing {
            Routing::Global(indirection) => Cow::Borrowed(indirection),
            Routing::PerNode(local) => {
                let mut global = vec![vec![0u32; self.num_iterations()]; self.kernel.num_refs()];
                for (iters, arrays) in self.local_iters.iter().zip(local) {
                    for (g, l) in global.iter_mut().zip(arrays) {
                        for (&i, &e) in iters.iter().zip(l) {
                            g[i as usize] = e;
                        }
                    }
                }
                Cow::Owned(global)
            }
        }
    }
}

/// Names the phased program in [`PhasedEngine`](crate::PhasedEngine),
/// which serves every kernel type the program is generic in.
#[derive(Debug, Clone, Copy)]
pub enum Phased {}

/// State of one node (the "procedure frame" of the phased program):
/// the shared plan data plus this execute's mutable buffers.
///
/// All per-element data is stored *element-major interleaved* (one
/// struct of `num_arrays` / `num_read_arrays` doubles per element) —
/// the layout the cache model has always charged for. A kernel
/// iteration touches one cache line per referenced element instead of
/// one per component, and every portion / read segment is a single
/// contiguous slice.
pub struct PhasedNode<K> {
    kernel: Arc<K>,
    data: Arc<NodePlanData>,
    /// The node's stream column, row-aligned with `data` (empty without
    /// a stream).
    edge: Arc<Vec<f64>>,
    /// The node's private buffer extension of the reduction arrays,
    /// interleaved: `buffer_len * num_arrays` doubles.
    x: Vec<f64>,
    /// The element range of the reduction arrays, shared with every
    /// other node. See [`SharedX`] for the exclusivity and ordering
    /// argument.
    region: Arc<SharedX>,
    /// The sweep-parity read buffers, shared with every other node —
    /// see [`SharedRead`].
    shared_read: Arc<SharedRead>,
    /// Reduction-group width / read-group width (cached off the kernel).
    r_arrays: usize,
    n_read: usize,
    /// Modeled per-iteration / per-copy overhead of the generated phased
    /// loop code (0 on the native backend).
    overheads: (u64, u64),
    /// Final portions collected during the last sweep.
    results: Vec<FinalPortion>,
    /// The chunked kernel's contribution buffer, reused by every phase
    /// of every sweep (see [`vector::run_phase`]).
    batch: Vec<f64>,
}

/// One node's final values for one portion: `(element range,
/// interleaved x segment, interleaved read segment)`.
type FinalPortion = (Range<usize>, Vec<f64>, Vec<f64>);

/// The reduction arrays of a run, shared by every node: the ring
/// rotation transfers portion *ownership* as a hand-off (a bare sync
/// natively, a charged block move on the simulator) and the portion's
/// doubles never travel. Sound because the
/// phased plan gives each phase exclusive write access to exactly one
/// portion range (scatters land in the owned portion or the node's
/// private buffer extension; copy-folds target the owned portion), and
/// the sync chain that enables a phase fiber — lane push (Release) →
/// sync-counter RMW (AcqRel) → Ready push (Release) → lane pop
/// (Acquire) — carries a happens-before edge from the previous owner's
/// writes to the next owner's reads (see the ordering argument at
/// `drain_lanes` in the native backend). The simulator runs one fiber
/// at a time and fires a fiber only after its syncs land, so the same
/// order holds there.
struct SharedX {
    data: UnsafeCell<Vec<f64>>,
    len: usize,
}

// SAFETY: access is partitioned by portion ownership as documented on
// the type; the UnsafeCell is never touched outside owned ranges.
unsafe impl Send for SharedX {}
unsafe impl Sync for SharedX {}

impl SharedX {
    /// Over a zeroed buffer (one checked out of the [`Workspace`]).
    fn new(data: Vec<f64>) -> Self {
        SharedX {
            len: data.len(),
            data: UnsafeCell::new(data),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// # Safety
    /// The caller must only dereference offsets inside portion ranges
    /// it currently owns under the ring protocol (or its own copy-fold
    /// destinations, which lie in the owned portion).
    unsafe fn ptr(&self) -> *mut f64 {
        (*self.data.get()).as_mut_ptr()
    }

    /// # Safety
    /// `range` must lie inside a portion the caller currently owns; the
    /// returned borrow must not outlive that ownership.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [f64] {
        debug_assert!(range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr().add(range.start), range.len())
    }
}

/// The replicated read arrays of a run, shared by every node as a
/// sweep-parity ping-pong pair: during sweep `t` all
/// nodes read `bufs[t & 1]`; the final owner of each portion writes
/// that portion's segment of `bufs[(t + 1) & 1]` from its post-sweep
/// update, and the broadcast is a hand-off that moves no data.
///
/// Soundness of the parity reuse: the first write into parity
/// `(t + 1) & 1` happens at some node's phase `(t, kp-k)` — enabling
/// that fiber required its portion to travel the whole ring, i.e.
/// every node executed the phase `(t, kp-k-j·k) ≥ (t, 0)` where it
/// held the portion, and executing `(t, 0)` means that node's last
/// read of the overwritten parity (its sweep `t-1` loops) is already
/// ordered before the write by the portion/phase sync chain (each hop
/// a Release push / Acquire pop pair). Readers of the freshly written
/// parity start at `(t+1, 0)`, which the `kp-k` broadcast syncs
/// order after every writer.
struct SharedRead {
    bufs: [UnsafeCell<Vec<f64>>; 2],
    len: usize,
}

// SAFETY: segment writes are exclusive per the portion-ownership
// argument above; reads and writes of the same location are separated
// by a full sweep of sync edges.
unsafe impl Send for SharedRead {}
unsafe impl Sync for SharedRead {}

impl SharedRead {
    /// `init` seeds the parity-0 buffer (sweep 0 reads it). The
    /// parity-1 buffer is only taken when the kernel updates read state
    /// (otherwise parity 0 serves every sweep read-only). Both come from
    /// `ws` and go back there in [`Self::release`].
    fn new(init: &[f64], updates_read: bool, ws: &mut Workspace) -> Self {
        let mut first = ws.take_buffer(init.len());
        first.copy_from_slice(init);
        let other = if updates_read {
            ws.take_buffer(init.len())
        } else {
            Vec::new()
        };
        SharedRead {
            bufs: [UnsafeCell::new(first), UnsafeCell::new(other)],
            len: init.len(),
        }
    }

    /// Return both parities to `ws`.
    fn release(self, ws: &mut Workspace) {
        for buf in self.bufs {
            ws.put_buffer(buf.into_inner());
        }
    }

    /// The buffer every node reads during sweep `t`.
    ///
    /// # Safety
    /// Caller must be a sweep-`t` fiber (reads are then ordered
    /// against the parity's writers by the sync chain, see the type
    /// docs). `updates_read` must match the kernel.
    unsafe fn read_for(&self, t: usize, updates_read: bool) -> &[f64] {
        let i = if updates_read { t & 1 } else { 0 };
        &*self.bufs[i].get()
    }

    /// The segment the final owner of a portion writes during sweep
    /// `t` (the other parity).
    ///
    /// # Safety
    /// Caller must currently own the portion `range` belongs to at its
    /// last visit of sweep `t`; each portion has exactly one such
    /// fiber per sweep, so the writes are exclusive.
    #[allow(clippy::mut_from_ref)]
    unsafe fn write_for(&self, t: usize) -> &mut [f64] {
        let i = (t + 1) & 1;
        let buf: &mut [f64] = &mut *self.bufs[i].get();
        debug_assert_eq!(buf.len(), self.len);
        buf
    }
}

impl<K: EdgeKernel> RingProgram for PhasedProgram<K> {
    type Node = PhasedNode<K>;
    const ENGINE: &'static str = "phased";
    const FIBER: &'static str = "phase";

    /// Read-updating kernels: the first phase of every later sweep waits
    /// for the `k·P − k` broadcast segments of the other nodes' final
    /// owners.
    fn sweep_start_syncs(&self, g: &PhaseGeometry) -> u32 {
        if self.kernel.updates_read_state() {
            (g.num_phases() - g.k()) as u32
        } else {
            0
        }
    }

    fn make_nodes(&self, ws: &mut Workspace) -> Vec<PhasedNode<K>> {
        let r_arrays = self.kernel.num_arrays();
        // Both shared allocations come from the workspace, like the
        // nodes' own arrays, so a steady-state execute writes into
        // pages it already owns.
        let region = Arc::new(SharedX::new(ws.take_buffer(self.num_elements * r_arrays)));
        let updates = self.kernel.updates_read_state();
        let shared_read = Arc::new(SharedRead::new(&self.read_init, updates, ws));
        let mut nodes = Vec::with_capacity(self.node_data.len());
        for (data, edge) in self.node_data.iter().zip(&self.edge) {
            nodes.push(PhasedNode {
                kernel: Arc::clone(&self.kernel),
                data: Arc::clone(data),
                edge: Arc::clone(edge),
                x: ws.take_buffer(data.buffer_len * r_arrays),
                region: Arc::clone(&region),
                shared_read: Arc::clone(&shared_read),
                r_arrays,
                n_read: self.kernel.num_read_arrays(),
                overheads: self.overheads,
                results: Vec::new(),
                batch: Vec::new(),
            });
        }
        nodes
    }

    /// De-interleave the final portions into the public per-array shape
    /// — the only place the interleaved layout leaks out.
    fn finish(&self, nodes: Vec<PhasedNode<K>>, ws: &mut Workspace) -> Assembled {
        let n = self.num_elements;
        let r_arrays = self.kernel.num_arrays();
        let r_read = self.kernel.num_read_arrays();
        let mut x = vec![vec![0.0f64; n]; r_arrays];
        let mut read = vec![vec![0.0f64; n]; r_read];
        let mut shared = None;
        for node in nodes {
            shared = Some((node.region, node.shared_read));
            for (range, xs, rs) in node.results {
                for (i, v) in range.enumerate() {
                    for (a, xa) in x.iter_mut().enumerate() {
                        xa[v] = xs[i * r_arrays + a];
                    }
                    for (a, ra) in read.iter_mut().enumerate() {
                        ra[v] = rs[i * r_read + a];
                    }
                }
            }
            ws.put_buffer(node.x);
        }
        // Every node is gone, so the run's shared buffers have one owner
        // left each and go back to the pool.
        if let Some((region, shared_read)) = shared {
            if let Ok(region) = Arc::try_unwrap(region) {
                ws.put_buffer(region.data.into_inner());
            }
            if let Ok(shared_read) = Arc::try_unwrap(shared_read) {
                shared_read.release(ws);
            }
        }
        (x, read)
    }

    /// The sequential executor on the *current* indirection arrays
    /// (post-updates).
    fn seq_fallback(&self, sweeps: usize) -> RunOutcome {
        let indirection = match &self.routing {
            Routing::Global(indirection) => Arc::clone(indirection),
            Routing::PerNode(_) => Arc::new(self.global_indirection().into_owned()),
        };
        let spec = PhasedSpec {
            kernel: Arc::clone(&self.kernel),
            num_elements: self.num_elements,
            indirection,
        };
        let seq = seq_reduction(&spec, sweeps, SimConfig::default());
        RunOutcome {
            values: seq.x,
            read: seq.read,
            time_cycles: seq.cycles,
            seconds: seq.seconds,
            ..RunOutcome::default()
        }
    }

    fn plan(node: &PhasedNode<K>) -> &FlatPlan {
        &node.data.flat
    }

    /// Zero the portion at its first visit of a sweep (the reduction
    /// identity; the transfer that enabled the fiber was a bare sync).
    /// Later visits find the portion where the previous owner left it,
    /// and a later sweep's read refresh is already in the parity this
    /// sweep reads: the syncs that enabled this fiber order both.
    fn arrive<C: FiberCtx<NodeOf<Self>>>(n: &mut NodeOf<Self>, ph: &Phase, ctx: &mut C) {
        let s = &mut n.state;
        let range = &ph.range;
        if ph.first_visit() {
            let xr = range.start * s.r_arrays..range.end * s.r_arrays;
            // SAFETY: this fiber owns `portion` for the phase.
            unsafe { s.region.slice_mut(xr) }.fill(0.0);
            if ctx.is_sim() && !range.is_empty() {
                ctx.charge(n.stream.stream((range.len() * s.r_arrays) as u64, 8));
            }
        }
    }

    fn run_loops(node: &mut PhasedNode<K>, ph: &Phase) {
        node.exec_loops(ph.t, ph.p);
    }

    /// Charge the phase's accesses, then compute its values with the
    /// same loop as every other sweep.
    fn run_loops_metered<M: Meter>(node: &mut PhasedNode<K>, ph: &Phase, meter: &mut M) {
        meter_phase(&node.data, &*node.kernel, ph.p, meter);
        node.exec_loops(ph.t, ph.p);
    }

    /// Charge the generated-code overhead of the phased loops (see
    /// `SimConfig`), then, at a portion's last visit, run the kernel's
    /// post-sweep step on its final values.
    fn after_loops<C: FiberCtx<NodeOf<Self>>>(n: &mut NodeOf<Self>, ph: &Phase, ctx: &mut C) {
        let s = &n.state;
        if ctx.is_sim() {
            ctx.charge(
                s.data.flat.phase_rows(ph.p).len() as u64 * s.overheads.0
                    + s.data.flat.phase_copies(ph.p).len() as u64 * s.overheads.1,
            );
        }
        if ph.last_visit() {
            Self::post_sweep(n, ph, ctx);
        }
    }

    /// A bare sync suffices when the next visit starts a new sweep (the
    /// receiver zeroes) or the portion is empty; otherwise the hand-off
    /// declares the portion's bytes. Ownership rotates, the doubles
    /// never travel — the sync chain carries the happens-before edge,
    /// see [`SharedX`].
    fn forwarded(s: &PhasedNode<K>, ph: &Phase) -> Option<u64> {
        if ph.last_visit() || ph.range.is_empty() {
            None
        } else {
            Some((ph.range.len() * s.r_arrays * 8) as u64)
        }
    }
}

impl<K: EdgeKernel> PhasedProgram<K> {
    /// The post-sweep at a portion's last visit: the update writes the
    /// portion's segment of the *other* parity buffer (this sweep's
    /// loops keep reading the current parity, preserving the sequential
    /// sweep-start semantics), and the broadcast of the refreshed
    /// segment to every other node is a hand-off of its bytes.
    fn post_sweep<C: FiberCtx<NodeOf<Self>>>(n: &mut NodeOf<Self>, ph: &Phase, ctx: &mut C) {
        let (t, range) = (ph.t, ph.range.clone());
        let s = &mut n.state;
        let xr = range.start * s.r_arrays..range.end * s.r_arrays;
        let rr = range.start * s.n_read..range.end * s.n_read;
        let (reg, sr) = (&s.region, &s.shared_read);
        let updates = s.kernel.updates_read_state();
        if !range.is_empty() {
            if updates {
                // SAFETY: this fiber is the portion's unique final-visit
                // owner for sweep `t` (see [`SharedRead`] / [`SharedX`]).
                unsafe {
                    let cur = sr.read_for(t, true);
                    let next = sr.write_for(t);
                    next[rr.clone()].copy_from_slice(&cur[rr.clone()]);
                    let xs = reg.slice_mut(xr.clone());
                    let changed = s.kernel.post_sweep(next, range.clone(), xs);
                    debug_assert!(changed);
                }
            }
            if ctx.is_sim() {
                ctx.flops(range.len() as u64 * s.kernel.post_flops_per_elem());
            }
        }
        if updates && t + 1 < n.sweeps {
            let dst_slot = slot_of(t + 1, 0, ph.kp);
            let bytes = (rr.len() * 8) as u64;
            for d in 0..n.geometry.num_procs() {
                if d != n.proc {
                    ctx.handoff(d, dst_slot, bytes);
                }
            }
        }
        if t + 1 == n.sweeps {
            // SAFETY: last visit of the last sweep — ownership never
            // rotates again.
            let xs = unsafe { reg.slice_mut(xr) }.to_vec();
            let rs = if range.is_empty() {
                Vec::new()
            } else if updates {
                unsafe { &sr.write_for(t)[rr] }.to_vec()
            } else {
                unsafe { &sr.read_for(t, false)[rr] }.to_vec()
            };
            s.results.push((range, xs, rs));
        }
    }
}

impl<K: EdgeKernel> PhasedNode<K> {
    /// Loop 1 + loop 2: the one value loop of every sweep — native,
    /// replayed and measuring — streaming the node's flat schedule and
    /// its stream column through the chunked kernel
    /// ([`vector::run_phase`]).
    fn exec_loops(&mut self, t: usize, p: usize) {
        let (giters, elems, refs, copies) = self.data.phase(p);
        let edge = if self.edge.is_empty() {
            &[][..]
        } else {
            &self.edge[self.data.flat.phase_rows(p)]
        };
        // SAFETY: called from a sweep-`t` fiber; see
        // [`SharedRead::read_for`].
        let read = unsafe {
            self.shared_read
                .read_for(t, self.kernel.updates_read_state())
        };
        // SAFETY: every region offset the kernel dereferences lies inside
        // the portion this phase owns (scatter refs below the region
        // length target the resident portion; copy dests are resident
        // elements by construction — see the inspector's PLACE pass), so
        // the accesses are exclusive under the ring protocol on
        // [`SharedX`].
        let (rp, split) = (unsafe { self.region.ptr() }, self.region.len());
        // SAFETY: `rp` is valid for `split` doubles the phase owns (see
        // above), `buf` is the node's private buffer extension, and the
        // schedule is inspector-built and plan-verified, so every scatter
        // ref and copy endpoint lands in one of the two.
        unsafe {
            vector::run_phase(
                &*self.kernel,
                read,
                rp,
                split,
                &mut self.x,
                &mut self.batch,
                self.r_arrays,
                giters,
                elems,
                edge,
                refs,
                copies,
            );
        }
    }
}

/// The measuring sweep's address walk of phase `p`: every load, store
/// and flop the first loop and the copy loop perform, in their order,
/// at the addresses `Regions` assigns — and no float arithmetic. The
/// cycle model is a function of the schedule's addresses, so the values
/// come from [`PhasedNode::exec_loops`] like every other sweep's.
fn meter_phase<K: EdgeKernel, M: Meter>(data: &NodePlanData, kernel: &K, p: usize, meter: &mut M) {
    let (giters, elems, refs, copies) = data.phase(p);
    let regs = &data.regions;
    let phase_off = data.flat.phase_rows(p).start;
    let m = kernel.num_refs();
    let r_arrays = kernel.num_arrays();
    let read_stride = kernel.num_read_arrays().max(1);
    let edge_reads = kernel.edge_reads_per_iter();
    let node_reads = kernel.node_reads_per_elem();
    let flops = kernel.flops_per_iter();

    // Loop 1: compute contributions and scatter them into the resident
    // portion or the buffer extension.
    for (j, &gi) in giters.iter().enumerate() {
        let pos = phase_off + j;
        meter.load(regs.giter.addr(pos));
        let e = &elems[j * m..(j + 1) * m];
        for (r, &el) in e.iter().enumerate() {
            meter.load(regs.elems.addr(pos * m + r));
            let row = el as usize * read_stride;
            for w in (0..read_stride).cycle().take(node_reads) {
                meter.load(regs.read.addr(row + w));
            }
        }
        for _ in 0..edge_reads {
            meter.load(regs.edge.addr(gi as usize));
        }
        meter.flops(flops);
        for r in 0..m {
            let base = refs[j * m + r] as usize * r_arrays;
            meter.load(regs.refs[r].addr(pos));
            for a in 0..r_arrays {
                meter.load(regs.x.addr(base + a));
                meter.store(regs.x.addr(base + a));
                meter.flops(1);
            }
        }
    }

    // Loop 2: fold buffered contributions into the now-resident portion
    // and reset the buffer slots for the next sweep.
    for (ci, c) in copies.iter().enumerate() {
        meter.load(regs.copies.addr(ci));
        let sb = c.src as usize * r_arrays;
        let db = c.dest as usize * r_arrays;
        for a in 0..r_arrays {
            meter.load(regs.x.addr(sb + a));
            meter.load(regs.x.addr(db + a));
            meter.store(regs.x.addr(db + a));
            meter.store(regs.x.addr(sb + a));
            meter.flops(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightinspector::{inspect, InspectorInput};

    /// Two references, two reduction arrays, two read arrays, and cost
    /// declarations that differ from each other and from the defaults,
    /// so a term charged with the wrong count shows.
    struct Costed;

    impl EdgeKernel for Costed {
        fn num_arrays(&self) -> usize {
            2
        }
        fn num_read_arrays(&self) -> usize {
            2
        }
        fn contrib_batch(
            &self,
            _read: &[f64],
            _giters: &[u32],
            _elems: &[u32],
            _edge: &[f64],
            _out: &mut [f64],
        ) {
        }
        fn flops_per_iter(&self) -> u64 {
            7
        }
        fn edge_reads_per_iter(&self) -> usize {
            2
        }
        fn node_reads_per_elem(&self) -> usize {
            3
        }
    }

    #[derive(Default)]
    struct Count {
        loads: u64,
        stores: u64,
        flops: u64,
    }

    impl Meter for Count {
        fn load(&mut self, _addr: u64) {
            self.loads += 1;
        }
        fn store(&mut self, _addr: u64) {
            self.stores += 1;
        }
        fn flops(&mut self, n: u64) {
            self.flops += n;
        }
    }

    /// Each phase's charged loads, stores and flops equal the closed
    /// form in its row and copy counts and the kernel's declared costs.
    #[test]
    fn meter_phase_charges_the_closed_form() {
        let kernel = Costed;
        let (m, w) = (kernel.num_refs() as u64, kernel.num_arrays() as u64);
        let node_reads = kernel.node_reads_per_elem() as u64;
        let edge_reads = kernel.edge_reads_per_iter() as u64;
        let flops = kernel.flops_per_iter();
        // Processor 0 of 2, k = 1, 12 elements: portions of 6. Pairs
        // that straddle the portions leave buffer slots for copy-folds.
        let num_elements = 12;
        let a: Vec<u32> = vec![0, 1, 5, 7, 2, 9, 11, 3, 6, 4];
        let b: Vec<u32> = vec![6, 8, 4, 2, 10, 1, 0, 7, 9, 5];
        let local: Vec<&[u32]> = vec![&a, &b];
        let local_iters: Vec<u32> = (0..a.len() as u32).map(|i| 2 * i).collect();
        let geometry = PhaseGeometry::try_new(2, 1, num_elements).unwrap();
        let fi = inspect(InspectorInput {
            geometry,
            proc_id: 0,
            indirection: &local,
        })
        .unwrap();
        let data = NodePlanData::build(fi, &local, &local_iters, num_elements, 20, &kernel);
        let mut copies_seen = 0;
        for p in 0..data.flat.num_phases() {
            let rows = data.flat.phase_rows(p).len() as u64;
            let copies = data.flat.phase_copies(p).len() as u64;
            copies_seen += copies;
            let mut c = Count::default();
            meter_phase(&data, &kernel, p, &mut c);
            let row_loads = 1 + m * (1 + node_reads) + edge_reads + m * (1 + w);
            assert_eq!(
                c.loads,
                rows * row_loads + copies * (1 + 2 * w),
                "loads, phase {p}"
            );
            assert_eq!(c.stores, rows * m * w + copies * 2 * w, "stores, phase {p}");
            assert_eq!(
                c.flops,
                rows * (flops + m * w) + copies * w,
                "flops, phase {p}"
            );
        }
        assert!(copies_seen > 0, "the plan must exercise the copy loop");
    }
}
