//! The rotating-portion phased executor (§2.2 of the paper).
//!
//! One *prepared run* is built per `(workload, strategy)` pair — the
//! LightInspector plans, the remapped indirection arrays, and the EARTH
//! program template — and then executed any number of times:
//!
//! * each node runs `T · k · P` *phase fibers*, chained in order on the
//!   node (the EU executes phases sequentially, as the paper's Figure 2
//!   pseudo-code does);
//! * a phase fiber additionally waits for the **arrival of the portion**
//!   it owns — sent by the ring successor `k` phases earlier, so with
//!   `k > 1` the transfer has computation to hide behind;
//! * at a portion's *first* visit of a sweep the owner zeroes it (the
//!   reduction identity) — the preceding transfer therefore carries no
//!   data, just a sync: the previous owner was the *last* visitor of the
//!   old sweep and already consumed the final values;
//! * at a portion's *last* visit the reduction values are final: the
//!   owner runs the kernel's post-sweep step (e.g. `moldyn`'s position
//!   update) and, if that step writes the replicated read arrays,
//!   broadcasts the refreshed segments — the first phase fiber of the
//!   next sweep on every node waits for those `k·P − k` messages.
//!
//! Communication per node per sweep is exactly `k·P` portion transfers
//! plus (for read-updating kernels) `k·(P−1)` broadcast segments —
//! **independent of the indirection arrays**, the paper's key property.
//!
//! The fiber body executes the LightInspector's two loops. Under the
//! simulator, the first sweep of a cold run is *metered* (every array
//! access goes through the cache model) and the measured per-phase cost
//! is replayed for subsequent identical sweeps; executes of an
//! already-measured prepared plan replay the cached steady-state costs
//! via the [`Workspace`] and skip metering entirely.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use earth_model::native::{run_native_traced, NativeConfig, NativeCtx};
use earth_model::sim::{run_sim_traced, SimConfig, SimCtx};
use earth_model::{
    mailbox_key, FiberCtx, FiberTemplate, Meter, ProgramTemplate, SlotId, TraceSink, Value,
};
use lightinspector::{
    inspect, inspect_observed, FlatInspection, InspectError, InspectorInput, PhaseGeometry,
};
use memsim::{AddressMap, Region, StreamModel};
use trace::{TraceEvent, TraceKind};
use workloads::Distribution;

use crate::config::{BackendKind, ExecutionConfig, TraceConfig};
use crate::engine::{
    attempt_faults, run_recovery_ladder, validate_phased_spec, EngineError, Provenance,
    ReductionEngine, RunOutcome,
};
use crate::kernel::EdgeKernel;
use crate::prepared::{PhaseCosts, PlanToken, Workspace};
use crate::seq::seq_reduction;
use crate::strategy::StrategyConfig;
use crate::tuning::{TileChoice, Tuning};
use crate::vector;

// Compatibility names: the error and recovery types moved to the shared
// engine layer (crate::engine); these aliases keep old paths working.
pub use crate::engine::EngineError as PhasedError;
pub use crate::engine::{RecoveryPolicy, RecoveryReport};

const TAG_PORTION: u32 = 1;
const TAG_BCAST: u32 = 2;

/// Problem description, independent of strategy.
pub struct PhasedSpec<K> {
    /// The loop body.
    pub kernel: Arc<K>,
    /// Length of the reduction array(s).
    pub num_elements: usize,
    /// `m` global indirection arrays, each of length `num_iterations`.
    pub indirection: Arc<Vec<Vec<u32>>>,
}

impl<K: EdgeKernel> PhasedSpec<K> {
    pub fn num_iterations(&self) -> usize {
        self.indirection[0].len()
    }

    /// Structure hash of this spec under `strat`: a 64-bit digest of
    /// everything inspection depends on — element count, kernel *shape*
    /// (ref/array counts and whether it updates read state), the full
    /// indirection contents, and every strategy field. Two (spec,
    /// strategy) pairs with the same hash prepare to interchangeable
    /// plans; kernel *values* (weights, read state) deliberately do not
    /// participate, so a cached [`PreparedPhased`] can serve specs that
    /// differ only in values via [`PreparedPhased::set_kernel`].
    pub fn structure_hash(&self, strat: &StrategyConfig) -> u64 {
        structure_hash(self.num_elements, &*self.kernel, &self.indirection, strat)
    }
}

/// The structure hash of a (spec, strategy) pair given as borrowed
/// parts — see [`PhasedSpec::structure_hash`]. Callers that hold the
/// indirection outside a [`PhasedSpec`] (the server, keying its plan
/// cache on a decoded frame) hash it without copying it into one.
///
/// Each indirection array is read as 64-bit words of two entries
/// (zero-padded to a whole 8-entry chunk; the length is folded first,
/// so padding is unambiguous) and word `w` is folded into lane `w % 4`
/// of four independent splitmix64 chains, which are then folded into
/// the running hash in lane order. The four chains have no data
/// dependency on each other, so the pass runs at memory speed instead
/// of one multiply chain per entry.
pub fn structure_hash<K: EdgeKernel>(
    num_elements: usize,
    kernel: &K,
    indirection: &[Vec<u32>],
    strat: &StrategyConfig,
) -> u64 {
    // "IRED" tag | hash-format version: bump if the fold order or field
    // set changes. Keys are only compared within one process.
    let mut h: u64 = 0x4952_4544_0000_0003;
    fold64(&mut h, num_elements as u64);
    fold64(&mut h, kernel.num_refs() as u64);
    fold64(&mut h, kernel.num_arrays() as u64);
    fold64(&mut h, kernel.num_read_arrays() as u64);
    fold64(&mut h, u64::from(kernel.updates_read_state()));
    fold64(&mut h, indirection.len() as u64);
    for arr in indirection {
        fold64(&mut h, arr.len() as u64);
        let mut lanes: [u64; 4] = std::array::from_fn(|l| h ^ l as u64);
        let mut fold_chunk = |c: &[u32; 8]| {
            for (l, lane) in lanes.iter_mut().enumerate() {
                fold64(lane, u64::from(c[2 * l]) | u64::from(c[2 * l + 1]) << 32);
            }
        };
        let (chunks, rest) = arr.as_chunks::<8>();
        chunks.iter().for_each(&mut fold_chunk);
        if !rest.is_empty() {
            let mut padded = [0u32; 8];
            padded[..rest.len()].copy_from_slice(rest);
            fold_chunk(&padded);
        }
        for lane in lanes {
            fold64(&mut h, lane);
        }
    }
    fold64(&mut h, strat.procs as u64);
    fold64(&mut h, strat.k as u64);
    fold64(
        &mut h,
        match strat.distribution {
            Distribution::Block => 0,
            Distribution::Cyclic => 1,
        },
    );
    fold64(&mut h, strat.sweeps as u64);
    h
}

/// Fold one word into a running structure hash. The state is replaced
/// by the splitmix64 *output*, so single-bit input differences
/// avalanche across the whole word before the next fold.
fn fold64(h: &mut u64, word: u64) {
    *h ^= word;
    *h = harness::rng::splitmix64(h);
}

impl<K> Clone for PhasedSpec<K> {
    fn clone(&self) -> Self {
        PhasedSpec {
            kernel: Arc::clone(&self.kernel),
            num_elements: self.num_elements,
            indirection: Arc::clone(&self.indirection),
        }
    }
}

impl<K> std::fmt::Debug for PhasedSpec<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasedSpec")
            .field("num_elements", &self.num_elements)
            .field("indirection", &self.indirection)
            .finish_non_exhaustive()
    }
}

/// Per-node regions for the cache model. The reduction group and the
/// read arrays are modeled with array-of-structs layout (one struct of
/// `num_arrays` / `num_read_arrays` doubles per element), matching how
/// such codes store multi-component fields — one cache line per element,
/// not one per component.
struct Regions {
    x: Region,
    read: Region,
    giter: Region,
    elems: Region,
    refs: Vec<Region>,
    edge: Region,
    copies: Region,
}

/// The immutable, reusable part of one node: its schedule, held once,
/// and the addressing derived from it. Shared (`Arc`) between the
/// prepared run and every node state instantiated from it, and rebuilt
/// only when a mesh update touches the node.
struct NodePlanData {
    geometry: PhaseGeometry,
    /// The (possibly tiled) CSR schedule: `m`-interleaved scatter
    /// targets per row and the concatenated copy ops, per phase through
    /// `iter_ptr` / `copy_ptr`.
    flat: lightinspector::FlatPlan,
    /// Buffer slots appended to this node's reduction arrays.
    buffer_len: usize,
    /// Global iteration id of each schedule row.
    giters: Vec<u32>,
    /// Original global element ids of each row, `m`-interleaved.
    elems: Vec<u32>,
    regions: Regions,
}

/// Stable phase-local tiling: reorder each phase's rows so that
/// scatters landing in the same `span`-element block of the local
/// reduction index space happen together (and likewise cluster the
/// copy-folds by destination block). The sort key is the *first*
/// reference's target block — the reference-group layout makes that the
/// line the iteration is guaranteed to touch — and the sort is stable,
/// so within one tile block iterations keep their original relative
/// order (the property `PreparedPhased::phase_order` exposes and
/// `tests/tuning_equivalence.rs` proves).
///
/// Tiling permutes rows *within a phase only*: phase membership, portion
/// ownership, and the communication schedule are untouched, so the
/// plan stays valid by construction. It does reassociate each element's
/// partial sums across tiles — exact on whole-number weights,
/// ULP-bounded otherwise (see DESIGN.md §16).
fn tile_rows(fi: &mut FlatInspection, span: usize) {
    let span = span.max(1) as u32;
    let m = fi.flat.m();
    let (mut order, mut iters, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    for p in 0..fi.flat.num_phases() {
        let rows = fi.flat.phase_rows(p);
        if rows.len() > 1 {
            let prefs = fi.flat.phase_refs(p);
            order.clear();
            order.extend(0..rows.len());
            order.sort_by_key(|&j| prefs[j * m] / span);
            iters.clear();
            iters.extend(order.iter().map(|&j| fi.iters[rows.start + j]));
            refs.clear();
            for &j in &order {
                refs.extend_from_slice(&prefs[j * m..(j + 1) * m]);
            }
            fi.iters[rows.clone()].copy_from_slice(&iters);
            fi.flat.refs[rows.start * m..rows.end * m].copy_from_slice(&refs);
        }
        let copies = fi.flat.copy_ptr[p] as usize..fi.flat.copy_ptr[p + 1] as usize;
        fi.flat.copies[copies].sort_by_key(|c| c.dest / span);
    }
}

/// Resolve the [`TileChoice`] into a concrete span for this prepare:
/// `Auto` predicts from the backend's cache geometry (the simulator's
/// configured model, or a conservative host L2 for native runs) and
/// declines to tile when a whole portion already fits; an explicit
/// `Elements` request is honoured as given.
fn resolve_tile_span<K: EdgeKernel>(
    tuning: &Tuning,
    cfg: &ExecutionConfig,
    geometry: &PhaseGeometry,
    kernel: &K,
) -> Option<usize> {
    match tuning.tile {
        TileChoice::Off => None,
        TileChoice::Elements(s) => Some(s.max(1)),
        TileChoice::Auto => {
            let mem = match cfg.backend {
                BackendKind::Sim => cfg.sim.mem,
                BackendKind::Native => memsim::MemConfig::host_l2(),
            };
            let span =
                memsim::predict_tile_elems(&mem, kernel.num_arrays(), kernel.num_read_arrays());
            (span < geometry.portion_size()).then_some(span)
        }
    }
}

impl NodePlanData {
    /// Freeze one processor's inspection into the node's schedule —
    /// the one construction path for fresh, adopted, and updated plans.
    /// Tiles the rows if asked, then turns the local iteration order
    /// into global ids in place and gathers the original element ids
    /// the kernels read; the CSR arrays themselves are adopted, not
    /// copied. `local_ind` is this processor's
    /// indirection, indexed by local iteration. In debug builds every
    /// node is checked against the flat verifier.
    fn build<K: EdgeKernel>(
        mut fi: FlatInspection,
        local_ind: &[&[u32]],
        local_iters: &[u32],
        spec_elems: usize,
        total_iterations: usize,
        kernel: &K,
        tile_span: Option<usize>,
    ) -> NodePlanData {
        if let Some(span) = tile_span {
            tile_rows(&mut fi, span);
        }
        debug_assert_eq!(lightinspector::verify_flat(&fi, local_ind), Ok(()));
        let m = kernel.num_refs();
        let mut elems = Vec::with_capacity(fi.iters.len() * m);
        for &li in &fi.iters {
            elems.extend(local_ind.iter().map(|lr| lr[li as usize]));
        }
        let mut giters = fi.iters;
        for it in &mut giters {
            *it = local_iters[*it as usize];
        }

        let n = spec_elems;
        let r_arrays = kernel.num_arrays();
        let n_read = kernel.num_read_arrays();
        let total_local = local_iters.len();
        let mut am = AddressMap::new(64);
        let regions = Regions {
            x: am.alloc_f64((n + fi.buffer_len) * r_arrays),
            read: am.alloc_f64(n * n_read.max(1)),
            giter: am.alloc_u32(total_local.max(1)),
            elems: am.alloc_u32((total_local * m).max(1)),
            refs: (0..m).map(|_| am.alloc_u32(total_local.max(1))).collect(),
            edge: am.alloc_f64(total_iterations.max(1)),
            copies: am.alloc(fi.flat.copies.len().max(1), 8),
        };
        NodePlanData {
            geometry: fi.geometry,
            flat: fi.flat,
            buffer_len: fi.buffer_len,
            giters,
            elems,
            regions,
        }
    }

    /// Phase `p`'s rows: global iteration ids, element ids, scatter
    /// targets, and copy ops — the slices every loop variant streams.
    fn phase(&self, p: usize) -> (&[u32], &[u32], &[u32], &[lightinspector::CopyOp]) {
        let rows = self.flat.phase_rows(p);
        let m = self.flat.m();
        (
            &self.giters[rows.clone()],
            &self.elems[rows.start * m..rows.end * m],
            self.flat.phase_refs(p),
            self.flat.phase_copies(p),
        )
    }

    /// Capacity, in bytes, of the schedule vectors this node holds.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        let f = &self.flat;
        4 * (f.iter_ptr.capacity()
            + f.refs.capacity()
            + f.copy_ptr.capacity()
            + self.giters.capacity()
            + self.elems.capacity())
            + std::mem::size_of::<lightinspector::CopyOp>() * f.copies.capacity()
    }
}

/// State of one node (the "procedure frame" of the phased program):
/// the shared plan data plus this execute's mutable buffers.
///
/// All per-element data is stored *element-major interleaved* (one
/// struct of `num_arrays` / `num_read_arrays` doubles per element) —
/// the layout the cache model has always charged for. A kernel
/// iteration touches one cache line per referenced element instead of
/// one per component, and every portion / broadcast segment is a single
/// contiguous slice, so message assembly is one `memcpy`.
pub struct PhasedNode<K> {
    proc: usize,
    sweeps: usize,
    kernel: Arc<K>,
    data: Arc<NodePlanData>,
    /// Reduction arrays with buffer extension, interleaved:
    /// `(num_elements + buffer_len) * num_arrays` doubles. When
    /// `region` is set (native runs) this holds *only* the buffer
    /// extension — the element range lives in the shared region.
    x: Vec<f64>,
    /// Zero-copy portion handoff (native runs): the element range of the
    /// reduction arrays, shared with every other node. See [`SharedX`]
    /// for the exclusivity and ordering argument. `None` on the
    /// simulator, which models the message payloads.
    region: Option<Arc<SharedX>>,
    /// Zero-copy read refresh (native runs): the sweep-parity shared
    /// read buffers — see [`SharedRead`]. `None` on the simulator, which
    /// replicates `read` per node and ships broadcast payloads.
    shared_read: Option<Arc<SharedRead>>,
    /// Replicated read arrays, interleaved: `num_elements *
    /// num_read_arrays` doubles (empty when `shared_read` is set).
    read: Vec<f64>,
    /// Reduction-group width / read-group width (cached off the kernel).
    r_arrays: usize,
    n_read: usize,
    /// Scratch for kernel contributions.
    out: Vec<f64>,
    /// Recycled portion-payload buffers: boxes received from the ring
    /// predecessor are reused for our own forwards, so the steady state
    /// allocates nothing on the message path.
    pool: Vec<Box<[f64]>>,
    /// Measured per-phase loop cost, replayed after the metering sweep
    /// (and seeded from the [`Workspace`] cost cache under plan reuse).
    phase_cost: Vec<Option<u64>>,
    stream: StreamModel,
    /// Modeled per-iteration / per-copy overhead of the generated phased
    /// loop code (0 on the native backend).
    iter_overhead: u64,
    copy_overhead: u64,
    /// Own post-sweep read updates, staged until the next sweep starts so
    /// that all of a sweep's iterations see sweep-start read values (the
    /// sequential semantics): `(portion, interleaved segment)`. The
    /// segment is the same shared buffer the broadcast sends, so staging
    /// costs a refcount, not a copy.
    staged: Vec<(usize, Arc<[f64]>)>,
    /// Final portions collected during the last sweep:
    /// `(portion, x segment, read segment)`, interleaved.
    results: Vec<FinalPortion>,
}

/// One node's final values for one portion: `(portion, interleaved x
/// segment, interleaved read segment)`.
type FinalPortion = (usize, Vec<f64>, Vec<f64>);

/// The reduction arrays of a native run, shared by every
/// node: the ring rotation transfers portion *ownership* as a bare
/// sync and the portion's doubles never travel. Sound because the
/// phased plan gives each phase exclusive write access to exactly one
/// portion range (scatters land in the owned portion or the node's
/// private buffer extension; copy-folds target the owned portion), and
/// the sync chain that enables a phase fiber — lane push (Release) →
/// sync-counter RMW (AcqRel) → Ready push (Release) → lane pop
/// (Acquire) — carries a happens-before edge from the previous owner's
/// writes to the next owner's reads (see the ordering argument at
/// `drain_lanes` in the native backend).
struct SharedX {
    data: UnsafeCell<Box<[f64]>>,
    len: usize,
}

// SAFETY: access is partitioned by portion ownership as documented on
// the type; the UnsafeCell is never touched outside owned ranges.
unsafe impl Send for SharedX {}
unsafe impl Sync for SharedX {}

impl SharedX {
    fn new(len: usize) -> Self {
        SharedX {
            data: UnsafeCell::new(vec![0.0f64; len].into_boxed_slice()),
            len,
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

/// The replicated read arrays of a zero-copy native run, shared by
/// every node as a sweep-parity ping-pong pair: during sweep `t` all
/// nodes read `bufs[t & 1]`; the final owner of each portion writes
/// that portion's segment of `bufs[(t + 1) & 1]` from its post-sweep
/// update, and the broadcast degenerates to bare syncs.
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
    bufs: [UnsafeCell<Box<[f64]>>; 2],
    len: usize,
}

// SAFETY: segment writes are exclusive per the portion-ownership
// argument above; reads and writes of the same location are separated
// by a full sweep of sync edges.
unsafe impl Send for SharedRead {}
unsafe impl Sync for SharedRead {}

impl SharedRead {
    /// `init` seeds the parity-0 buffer (sweep 0 reads it). The
    /// parity-1 buffer is only allocated when the kernel updates read
    /// state (otherwise parity 0 serves every sweep read-only).
    fn new(init: &[f64], updates_read: bool) -> Self {
        let other = if updates_read {
            vec![0.0f64; init.len()]
        } else {
            Vec::new()
        };
        SharedRead {
            bufs: [
                UnsafeCell::new(init.to_vec().into_boxed_slice()),
                UnsafeCell::new(other.into_boxed_slice()),
            ],
            len: init.len(),
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

/// Most pooled payload buffers a node retains (portion sizes take at
/// most two distinct values, so a handful is plenty).
const MAX_NODE_POOL: usize = 32;

/// What [`PreparedPhased::finish`] assembles from the per-node portions:
/// `(values, read, phase_iter_counts)`.
type Assembled = (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Vec<usize>>);

fn slot_of(t: usize, p: usize, kp: usize) -> SlotId {
    (t * kp + p) as SlotId
}

impl<K: EdgeKernel> PhasedNode<K> {
    /// The body of phase fiber `(t, p)`.
    fn run_phase<C: FiberCtx<Self>>(s: &mut Self, t: usize, p: usize, ctx: &mut C) {
        let g = s.data.geometry;
        let kp = g.num_phases();
        let k = g.k();
        let portion = g.portion_owned_by(s.proc, p);
        let range = g.portion_range(portion);
        let abs = t * kp + p;
        let first_visit = p < k;
        let last_visit = p >= kp - k;
        let r_arrays = s.r_arrays;
        let xr = range.start * r_arrays..range.end * r_arrays;
        let tracing = ctx.trace_enabled();
        if tracing {
            ctx.trace(TraceKind::PhaseEnter {
                sweep: t as u32,
                phase: p as u32,
            });
            ctx.trace(TraceKind::CopyEnter {
                sweep: t as u32,
                phase: p as u32,
            });
        }

        // --- portion arrival / initialization ---------------------------
        if first_visit {
            // Reduction identity: zero the freshly owned portion.
            match &s.region {
                // SAFETY: this fiber owns `portion` for the phase.
                Some(reg) => unsafe { reg.slice_mut(xr.clone()) }.fill(0.0),
                None => s.x[xr.clone()].fill(0.0),
            }
            if ctx.is_sim() && !range.is_empty() {
                ctx.charge(s.stream.stream((range.len() * r_arrays) as u64, 8));
            }
        } else if !range.is_empty() && s.region.is_none() {
            let payload = ctx
                .recv(mailbox_key(TAG_PORTION, abs as u32))
                .expect("portion payload must have arrived");
            let vals = payload.expect_f64s();
            debug_assert_eq!(vals.len(), range.len() * r_arrays);
            // The SU deposits the payload directly into the portion's
            // memory (split-phase block move); the EU pays only the
            // first-touch misses, which the metered loops charge. The
            // interleaved wire format makes this one contiguous copy.
            s.x[xr.clone()].copy_from_slice(vals);
            // Recycle the payload buffer for our own forwards.
            if let Value::F64s(b) = payload {
                if s.pool.len() < MAX_NODE_POOL {
                    s.pool.push(b);
                }
            }
        }

        // --- read-array refresh at sweep start --------------------------
        // Under shared read buffers (native zero-copy path) there is
        // nothing to copy: the broadcast syncs that enabled this fiber
        // already order the other-parity writes, and this sweep's loops
        // read that parity directly.
        if p == 0 && t > 0 && s.kernel.updates_read_state() && s.shared_read.is_none() {
            // Own staged updates from the previous sweep's post-sweep.
            let staged = std::mem::take(&mut s.staged);
            for (pi, seg) in staged {
                let seg_range = g.portion_range(pi);
                if seg_range.is_empty() {
                    continue;
                }
                s.read[seg_range.start * s.n_read..seg_range.end * s.n_read].copy_from_slice(&seg);
            }
            // Remote segments from the other nodes' final owners.
            for pi in 0..kp {
                let owner = g
                    .owner_at(pi, g.last_visit_phase(pi))
                    .expect("last visit owner");
                if owner == s.proc {
                    continue; // applied from the staging buffer above
                }
                let key = mailbox_key(TAG_BCAST, ((t - 1) * kp + pi) as u32);
                let seg_range = g.portion_range(pi);
                if seg_range.is_empty() {
                    // Empty segments still arrive (zero-length) to keep the
                    // sync count uniform.
                    let _ = ctx.recv(key);
                    continue;
                }
                let payload = ctx.recv(key).expect("broadcast segment must have arrived");
                let vals = payload.expect_f64s();
                debug_assert_eq!(vals.len(), seg_range.len() * s.n_read);
                // SU-deposited, like portion payloads: no EU copy charge.
                s.read[seg_range.start * s.n_read..seg_range.end * s.n_read].copy_from_slice(vals);
            }
        }
        if tracing {
            ctx.trace(TraceKind::CopyExit {
                sweep: t as u32,
                phase: p as u32,
            });
        }

        // --- the two loops, metered once per phase ----------------------
        if ctx.is_sim() {
            match s.phase_cost[p] {
                Some(c) => {
                    s.exec_loops(t, p);
                    ctx.charge(c);
                }
                None => {
                    let before = ctx.charged();
                    let mut meter = earth_model::program::CtxMeter::<Self, C>::new(ctx);
                    // Split borrow: meter wraps ctx; loops touch the rest.
                    s.exec_loops_metered(p, &mut meter);
                    let cost = ctx.charged() - before;
                    // Sweep 0 runs on a cold cache; re-measure on sweep 1
                    // and replay that steady-state cost thereafter.
                    if t > 0 || s.sweeps == 1 {
                        s.phase_cost[p] = Some(cost);
                    }
                }
            }
        } else {
            s.exec_loops(t, p);
        }
        // Generated-code overhead of the phased loops (see SimConfig).
        if ctx.is_sim() {
            ctx.charge(
                s.data.flat.phase_rows(p).len() as u64 * s.iter_overhead
                    + s.data.flat.phase_copies(p).len() as u64 * s.copy_overhead,
            );
        }

        // --- post-sweep on final values ----------------------------------
        if last_visit && s.shared_read.is_some() {
            // Zero-copy path: the post-sweep update writes the portion's
            // segment of the *other* parity buffer directly (this sweep's
            // loops keep reading the current parity, preserving the
            // sequential sweep-start semantics), and the broadcast
            // degenerates to bare syncs.
            let rr = range.start * s.n_read..range.end * s.n_read;
            let sr = s.shared_read.clone().expect("checked above");
            let updates = s.kernel.updates_read_state();
            if updates && !range.is_empty() {
                let reg = s
                    .region
                    .as_ref()
                    .expect("shared read implies shared region");
                // SAFETY: this fiber is the portion's unique final-visit
                // owner for sweep `t` (see [`SharedRead`] / [`SharedX`]).
                unsafe {
                    let cur = sr.read_for(t, true);
                    let next = sr.write_for(t);
                    next[rr.clone()].copy_from_slice(&cur[rr.clone()]);
                    let xs = reg.slice_mut(xr.clone());
                    let changed = s.kernel.post_sweep(next, range.clone(), xs);
                    debug_assert_eq!(changed, updates);
                }
            }
            if updates && t + 1 < s.sweeps {
                let dst_slot = slot_of(t + 1, 0, kp);
                for d in 0..g.num_procs() {
                    if d != s.proc {
                        ctx.sync(d, dst_slot);
                    }
                }
            }
            if t + 1 == s.sweeps {
                let reg = s
                    .region
                    .as_ref()
                    .expect("shared read implies shared region");
                // SAFETY: last visit of the last sweep — ownership never
                // rotates again.
                let xs = unsafe { reg.slice_mut(xr.clone()) }.to_vec();
                let rs = if range.is_empty() {
                    Vec::new()
                } else if updates {
                    unsafe { &sr.write_for(t)[rr] }.to_vec()
                } else {
                    unsafe { &sr.read_for(t, false)[rr] }.to_vec()
                };
                s.results.push((portion, xs, rs));
            }
        } else if last_visit {
            // Run the kernel's node-level update, but *stage* its writes
            // to the read arrays: the rest of this sweep (later phases on
            // this node) must keep seeing sweep-start read values, exactly
            // as a sequential time step would.
            let rr = range.start * s.n_read..range.end * s.n_read;
            let mut updated: Option<Arc<[f64]>> = None;
            if !range.is_empty() {
                let snapshot: Vec<f64> = s.read[rr.clone()].to_vec();
                let changed = s
                    .kernel
                    .post_sweep(&mut s.read, range.clone(), &s.x[xr.clone()]);
                if ctx.is_sim() {
                    ctx.flops(range.len() as u64 * s.kernel.post_flops_per_elem());
                }
                debug_assert_eq!(changed, s.kernel.updates_read_state());
                if changed {
                    // One copy out into the shared segment; the broadcast,
                    // the staging buffer, and the final results all alias
                    // this one allocation.
                    updated = Some(s.read[rr.clone()].into());
                    s.read[rr.clone()].copy_from_slice(&snapshot);
                }
            }
            // Broadcast the refreshed segment for the next sweep and
            // stage our own copy. The segment is built once and shared
            // (`Arc`) across all `P − 1` destinations — no per-dest copy.
            if s.kernel.updates_read_state() && t + 1 < s.sweeps {
                let seg: Arc<[f64]> = updated.clone().unwrap_or_else(|| Vec::new().into());
                // Keyed by (sweep, portion): the receiver's sweep-start
                // fiber iterates portions, not phases.
                let key = mailbox_key(TAG_BCAST, (t * kp + portion) as u32);
                let dst_slot = slot_of(t + 1, 0, kp);
                for d in 0..g.num_procs() {
                    if d != s.proc {
                        ctx.data_sync(d, key, Value::F64sShared(Arc::clone(&seg)), dst_slot);
                    }
                }
                s.staged.push((portion, seg));
            }
            // Keep final values after the last sweep. The read segment
            // is the *updated* one: the last time step's node update has
            // happened, matching the sequential executor.
            if t + 1 == s.sweeps {
                let xs = s.x[xr.clone()].to_vec();
                let rs = if s.kernel.updates_read_state() {
                    updated.map(|u| u.to_vec()).unwrap_or_default()
                } else {
                    s.read[rr].to_vec()
                };
                s.results.push((portion, xs, rs));
            }
        }

        // --- forward the portion around the ring -------------------------
        let next_abs = abs + k;
        if next_abs < s.sweeps * kp {
            let dest = g.next_owner(s.proc);
            let dst_slot = next_abs as SlotId;
            if tracing {
                ctx.trace(TraceKind::PortionRotate {
                    portion: portion as u32,
                    to_node: dest as u32,
                });
            }
            if last_visit || range.is_empty() || s.region.is_some() {
                // A bare sync suffices when the next visit starts a new
                // sweep (the receiver zeroes), the portion is empty, or
                // the run shares one region allocation (zero-copy
                // handoff: ownership rotates, the doubles never travel —
                // the sync chain carries the happens-before edge, see
                // [`SharedX`]).
                ctx.sync(dest, dst_slot);
            } else {
                // One contiguous copy into a recycled buffer (portion
                // sizes take at most two distinct values, so a pooled box
                // of exactly the right length is almost always available).
                let need = range.len() * r_arrays;
                let mut payload = match s.pool.iter().position(|b| b.len() == need) {
                    Some(i) => s.pool.swap_remove(i),
                    None => vec![0.0f64; need].into_boxed_slice(),
                };
                payload.copy_from_slice(&s.x[xr]);
                ctx.data_sync(
                    dest,
                    mailbox_key(TAG_PORTION, next_abs as u32),
                    Value::F64s(payload),
                    dst_slot,
                );
            }
        }

        // --- enable the next phase on this node --------------------------
        if abs + 1 < s.sweeps * kp {
            ctx.sync(s.proc, (abs + 1) as SlotId);
        }
        if tracing {
            ctx.trace(TraceKind::PhaseExit {
                sweep: t as u32,
                phase: p as u32,
            });
        }
    }

    /// Loop 1 + loop 2 without metering: the native / replay hot path,
    /// streaming the node's flat schedule through the chunked kernel
    /// ([`vector::run_phase`]).
    fn exec_loops(&mut self, t: usize, p: usize) {
        let (giters, elems, refs, copies) = self.data.phase(p);
        let (read, rp, split, buf): (&[f64], *mut f64, usize, &mut [f64]) = match &self.region {
            Some(reg) => {
                let read = match &self.shared_read {
                    // SAFETY: called from a sweep-`t` fiber; see
                    // [`SharedRead::read_for`].
                    Some(sr) => unsafe { sr.read_for(t, self.kernel.updates_read_state()) },
                    None => &self.read,
                };
                // SAFETY: every region offset the kernel dereferences
                // lies inside the portion this phase owns (scatter refs
                // below the region length target the resident portion;
                // copy dests are resident elements by construction —
                // see the inspector's PLACE pass), so the accesses are
                // exclusive under the ring protocol on [`SharedX`].
                (read, unsafe { reg.ptr() }, reg.len(), &mut self.x)
            }
            None => {
                // Simulator replay: the private `x` is the resident
                // element range followed by the buffer extension.
                let split = self.x.len() - self.data.buffer_len * self.r_arrays;
                let (resident, buf) = self.x.split_at_mut(split);
                (&self.read, resident.as_mut_ptr(), split, buf)
            }
        };
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
                buf,
                self.r_arrays,
                giters,
                elems,
                refs,
                copies,
            );
        }
    }

    /// Loop 1 + loop 2 with full cache metering, over the same schedule
    /// [`Self::exec_loops`] streams.
    fn exec_loops_metered<M: Meter>(&mut self, p: usize, meter: &mut M) {
        let (giters, elems, refs, copies) = self.data.phase(p);
        loops(
            &*self.kernel,
            &self.read,
            &mut self.x,
            self.r_arrays,
            self.n_read,
            giters,
            elems,
            refs,
            copies,
            &mut self.out,
            &self.data.regions,
            self.data.flat.phase_rows(p).start,
            meter,
        );
    }
}

/// The metered inner loops: the simulator's first (measuring) sweep of
/// each phase. Every array access goes through the meter at the address
/// [`Regions`] assigns it; the float operations and their order are the
/// flat loops' own.
#[allow(clippy::too_many_arguments)]
fn loops<K: EdgeKernel, M: Meter>(
    kernel: &K,
    read: &[f64],
    x: &mut [f64],
    r_arrays: usize,
    n_read: usize,
    giters: &[u32],
    elems: &[u32],
    refs: &[u32],
    copies: &[lightinspector::CopyOp],
    out: &mut [f64],
    regs: &Regions,
    phase_off: usize,
    meter: &mut M,
) {
    let m = kernel.num_refs();
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
            for w in 0..node_reads {
                meter.load(
                    regs.read
                        .addr(el as usize * n_read.max(1) + w % n_read.max(1)),
                );
            }
        }
        for w in 0..edge_reads {
            let _ = w;
            meter.load(regs.edge.addr(gi as usize));
        }
        out.fill(0.0);
        kernel.contrib(read, gi as usize, e, out);
        meter.flops(flops);
        for r in 0..m {
            let base = refs[j * m + r] as usize * r_arrays;
            meter.load(regs.refs[r].addr(pos));
            for a in 0..r_arrays {
                x[base + a] += out[r * r_arrays + a];
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
            let v = x[sb + a];
            x[db + a] += v;
            x[sb + a] = 0.0;
            meter.load(regs.x.addr(sb + a));
            meter.load(regs.x.addr(db + a));
            meter.store(regs.x.addr(db + a));
            meter.store(regs.x.addr(sb + a));
            meter.flops(1);
        }
    }
}

/// Compute the sync count of phase fiber `(t, p)`.
fn sync_count(t: usize, p: usize, k: usize, kp: usize, updates_read: bool) -> u32 {
    let mut c = 0u32;
    if !(t == 0 && p == 0) {
        c += 1; // chain from the previous phase on this node
    }
    if !(t == 0 && p < k) {
        c += 1; // portion arrival (data or bare sync)
    }
    if p == 0 && t > 0 && updates_read {
        c += (kp - k) as u32; // broadcast segments from the previous sweep
    }
    c
}

/// The program template, specialized to whichever backend the engine
/// that prepared the run drives.
enum PhasedTemplate<K> {
    Sim(ProgramTemplate<PhasedNode<K>, SimCtx<PhasedNode<K>>>),
    Native(ProgramTemplate<PhasedNode<K>, NativeCtx<PhasedNode<K>>>),
}

fn build_template<K: EdgeKernel, C: FiberCtx<PhasedNode<K>> + 'static>(
    strat: &StrategyConfig,
    updates_read: bool,
) -> ProgramTemplate<PhasedNode<K>, C> {
    let kp = strat.phases_per_sweep();
    let k = strat.k;
    let mut tmpl = ProgramTemplate::new();
    for _proc in 0..strat.procs {
        let id = tmpl.add_node();
        for t in 0..strat.sweeps {
            for p in 0..kp {
                let count = sync_count(t, p, k, kp, updates_read);
                tmpl.node_mut(id).add_fiber(FiberTemplate::new(
                    "phase",
                    count,
                    move |s: &mut PhasedNode<K>, ctx: &mut C| {
                        PhasedNode::run_phase(s, t, p, ctx);
                    },
                ));
            }
        }
    }
    tmpl
}

/// Run `f` over `items` on `min(items, cores)` workers (the calling
/// thread plus scoped threads), each taking a contiguous run of items,
/// and return the results in item order — so the output never depends
/// on the host's core count.
pub(crate) fn fan_out<T: Send, R: Send>(items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = items.len().div_ceil(workers).max(1);
    let mut runs: Vec<Vec<(usize, T)>> = Vec::new();
    for (i, t) in items.into_iter().enumerate() {
        if i % per == 0 {
            runs.push(Vec::with_capacity(per));
        }
        runs.last_mut().expect("pushed above").push((i, t));
    }
    let f = &f;
    let work =
        move |run: Vec<(usize, T)>| -> Vec<R> { run.into_iter().map(|(i, t)| f(i, t)).collect() };
    let mut runs = runs.into_iter();
    let Some(first) = runs.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = runs.map(|run| scope.spawn(move || work(run))).collect();
        let mut out = work(first);
        for h in handles {
            out.extend(h.join().expect("prepare worker panicked"));
        }
        out
    })
}

/// A fully prepared phased run: validated spec, one frozen flat
/// schedule per node, and the EARTH program template. Execute it any
/// number of times; repeated executes skip inspection, program
/// construction, and (on the simulator) metering. Adaptive meshes
/// re-route iterations through [`Self::apply_updates`], which
/// re-inspects only the nodes an update touches.
pub struct PreparedPhased<K> {
    kernel: Arc<K>,
    num_elements: usize,
    strat: StrategyConfig,
    /// Tuning captured at prepare time (tile shaped the plan).
    tuning: Tuning,
    /// Resolved phase-local tile span in elements (`None` = untiled);
    /// see [`TileChoice`] and [`tile_rows`].
    tile_span: Option<usize>,
    /// Current global indirection arrays: the spec's own allocation
    /// until the first [`Self::apply_updates`] writes to it.
    indirection: Arc<Vec<Vec<u32>>>,
    /// Per-proc local→global iteration maps.
    local_iters: Vec<Vec<u32>>,
    /// Frozen per-node plan snapshots handed to node states.
    node_data: Vec<Arc<NodePlanData>>,
    /// Mesh-update state, built by the first [`Self::apply_updates`].
    adaptive: Option<Adaptive>,
    /// The kernel's initial read state (element-major interleaved),
    /// computed once and copied into pooled buffers on each execute.
    read_init: Vec<f64>,
    mem_cfg: memsim::MemConfig,
    overheads: (u64, u64),
    /// Trace-sink selection captured at prepare time (used by entry
    /// points that bypass the engine, e.g.
    /// [`Self::execute_recovering_with`]).
    trace_cfg: TraceConfig,
    /// LightInspector stage-completion events captured during prepare
    /// (timestamp 0, node = processor), replayed into the sink at the
    /// start of every traced execute so the timeline shows inspection.
    inspector_events: Vec<TraceEvent>,
    template: PhasedTemplate<K>,
    token: PlanToken,
    /// [`PhasedSpec::structure_hash`] of the originating (spec,
    /// strategy) pair and the plan-shaping tuning, combined with the
    /// mutation version to form [`Self::cache_key`]. Hashing reads the
    /// whole indirection, so it runs on the first `cache_key` or before
    /// the first update rewrites the indirection, whichever comes first.
    structure_hash: OnceLock<u64>,
    executions: u64,
}

/// What only [`PreparedPhased::apply_updates`] needs, built on its
/// first call so runs that never adapt never pay for it.
struct Adaptive {
    /// Each node's current local indirection, `local[proc][r][i]` for
    /// its local iteration `i` — the inspector's input when the node is
    /// rebuilt.
    local: Vec<Vec<Vec<u32>>>,
}

impl<K> std::fmt::Debug for PreparedPhased<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedPhased")
            .field("num_elements", &self.num_elements)
            .field("strat", &self.strat)
            .field("token", &self.token)
            .field("executions", &self.executions)
            .finish_non_exhaustive()
    }
}

impl<K: EdgeKernel> PreparedPhased<K> {
    fn new(
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
        cfg: &ExecutionConfig,
    ) -> Result<Self, EngineError> {
        let trace_on = cfg.trace.enabled();
        Self::build(
            spec,
            strat,
            cfg,
            vec![(); strat.procs],
            |proc, (), geometry, local, events| {
                let input = InspectorInput {
                    geometry: *geometry,
                    proc_id: proc,
                    indirection: local,
                };
                Ok(inspect_observed(input, &mut |stage| {
                    if trace_on {
                        events.push(TraceEvent::new(
                            0,
                            proc as u32,
                            TraceKind::InspectorStage { stage },
                        ));
                    }
                })?)
            },
        )
    }

    /// Prepare a phased run by *adopting* externally produced flat plans
    /// (one [`FlatInspection`] per processor, e.g. emitted directly by
    /// the `threadedc` compiler) instead of running the inspector here.
    /// Each plan is checked by [`lightinspector::verify_flat`] against
    /// the spec's indirection before anything executes — a malformed or
    /// stale plan is a typed [`EngineError::Plan`], never silent
    /// corruption — and then frozen exactly as [`Self::new`] freezes
    /// the inspector's output, so the prepared run is bit-identical.
    pub(crate) fn new_from_flat(
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
        cfg: &ExecutionConfig,
        flats: Vec<FlatInspection>,
    ) -> Result<Self, EngineError> {
        if flats.len() != strat.procs {
            return Err(EngineError::Shape {
                what: "flat inspections (strat.procs)",
                expected: strat.procs,
                got: flats.len(),
            });
        }
        Self::build(spec, strat, cfg, flats, |proc, fi, geometry, local, _| {
            if fi.proc_id != proc {
                return Err(EngineError::Shape {
                    what: "flat inspection proc_id",
                    expected: proc,
                    got: fi.proc_id,
                });
            }
            if fi.geometry != *geometry {
                return Err(EngineError::Plan(lightinspector::PlanError::FlatShape {
                    what: "inspection geometry must match (procs, k, num_elements)",
                }));
            }
            lightinspector::verify_flat(&fi, local)?;
            Ok(fi)
        })
    }

    /// The one construction path behind [`Self::new`] and
    /// [`Self::new_from_flat`]. Per processor — fanned out over
    /// `min(P, cores)` workers and merged in processor order, so plans
    /// and trace events do not depend on the host — split off its
    /// iterations, gather its local indirection, obtain its flat
    /// inspection from `plan_of` (run the inspector, or check an adopted
    /// plan), and freeze it with [`NodePlanData::build`].
    fn build<S: Send>(
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
        cfg: &ExecutionConfig,
        sources: Vec<S>,
        plan_of: impl Fn(
                usize,
                S,
                &PhaseGeometry,
                &[&[u32]],
                &mut Vec<TraceEvent>,
            ) -> Result<FlatInspection, EngineError>
            + Sync,
    ) -> Result<Self, EngineError> {
        validate_phased_spec(spec)?;
        // n < k·P is legal: trailing portions are empty and their phases
        // degenerate to bare synchronization (PhaseGeometry handles this).
        let geometry = PhaseGeometry::try_new(strat.procs, strat.k, spec.num_elements)?;
        let total_iterations = spec.num_iterations();
        let tile_span = resolve_tile_span(&cfg.tuning, cfg, &geometry, &*spec.kernel);
        let prepped = fan_out(sources, |proc, source| {
            let local_iters: Vec<u32> = strat
                .distribution
                .owned_by(total_iterations, strat.procs, proc)
                .map(|i| i as u32)
                .collect();
            let local_ind: Vec<Vec<u32>> = spec
                .indirection
                .iter()
                .map(|arr| local_iters.iter().map(|&i| arr[i as usize]).collect())
                .collect();
            let local: Vec<&[u32]> = local_ind.iter().map(Vec::as_slice).collect();
            let mut events = Vec::new();
            let fi = plan_of(proc, source, &geometry, &local, &mut events)?;
            let data = NodePlanData::build(
                fi,
                &local,
                &local_iters,
                spec.num_elements,
                total_iterations,
                &*spec.kernel,
                tile_span,
            );
            Ok::<_, EngineError>((local_iters, data, events))
        });
        let mut local_iters = Vec::with_capacity(strat.procs);
        let mut node_data = Vec::with_capacity(strat.procs);
        let mut inspector_events = Vec::new();
        for prep in prepped {
            let (iters, data, events) = prep?;
            local_iters.push(iters);
            node_data.push(Arc::new(data));
            inspector_events.extend(events);
        }

        let n_read = spec.kernel.num_read_arrays();
        let read_init = spec.kernel.init_read();
        if read_init.len() != spec.num_elements * n_read {
            return Err(EngineError::Shape {
                what: "init_read length (num_elements * num_read_arrays)",
                expected: spec.num_elements * n_read,
                got: read_init.len(),
            });
        }

        let updates_read = spec.kernel.updates_read_state();
        let (mem_cfg, overheads, template) = match cfg.backend {
            BackendKind::Sim => (
                cfg.sim.mem,
                (
                    cfg.sim.phased_iter_overhead_cycles,
                    cfg.sim.phased_copy_overhead_cycles,
                ),
                PhasedTemplate::Sim(build_template(strat, updates_read)),
            ),
            BackendKind::Native => (
                memsim::MemConfig::i860xp(),
                (0, 0),
                PhasedTemplate::Native(build_template(strat, updates_read)),
            ),
        };

        Ok(PreparedPhased {
            kernel: Arc::clone(&spec.kernel),
            num_elements: spec.num_elements,
            strat: *strat,
            tuning: cfg.tuning,
            tile_span,
            indirection: Arc::clone(&spec.indirection),
            local_iters,
            node_data,
            adaptive: None,
            read_init,
            mem_cfg,
            overheads,
            trace_cfg: cfg.trace,
            inspector_events,
            template,
            token: PlanToken::fresh(),
            structure_hash: OnceLock::new(),
            executions: 0,
        })
    }

    /// Capacity, in bytes, of the schedule vectors this run holds: every
    /// node's flat schedule, the local→global iteration maps, and (once
    /// built) the nodes' local indirection copies.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        let nodes: usize = self.node_data.iter().map(|d| d.resident_bytes()).sum();
        let iters: usize = self.local_iters.iter().map(|v| 4 * v.capacity()).sum();
        let adaptive: usize = self
            .adaptive
            .iter()
            .flat_map(|a| a.local.iter().flatten())
            .map(|v| 4 * v.capacity())
            .sum();
        nodes + iters + adaptive
    }

    /// Cache identity of this plan for cross-request plan caching: the
    /// structure hash captured at prepare, mixed with the mutation
    /// version so [`Self::apply_updates`] derives a new key in `O(1)`
    /// without rehashing the indirection. Equal keys mean the plan is
    /// interchangeable with a fresh prepare of a structurally equal
    /// (spec, strategy) pair — up to kernel values, which
    /// [`Self::set_kernel`] may swap.
    pub fn cache_key(&self) -> u64 {
        let mut h = self.structure_hash();
        fold64(&mut h, self.token.version());
        h
    }

    /// The prepare-time structure hash (see the field). The plan-shaping
    /// Tuning knobs participate: a tiled plan is not interchangeable with
    /// an untiled one. The execute-time knob (host_threads)
    /// deliberately do not — see [`Tuning::plan_fingerprint`].
    fn structure_hash(&self) -> u64 {
        *self.structure_hash.get_or_init(|| {
            let mut h = structure_hash(
                self.num_elements,
                &*self.kernel,
                &self.indirection,
                &self.strat,
            );
            fold64(&mut h, self.tuning.plan_fingerprint());
            h
        })
    }

    /// Swap in a kernel with identical *shape* but (possibly) different
    /// values — weights, read state, arity-preserving body changes.
    /// Valid because the inspector plans, addressing, and program
    /// template depend only on kernel shape; the kernel itself is
    /// re-read from the plan on every execute. The initial read state
    /// is recomputed from the new kernel. Rejects (with no change) any
    /// kernel whose ref/array counts or read-update flag differ.
    pub fn set_kernel(&mut self, kernel: Arc<K>) -> Result<(), EngineError> {
        let checks = [
            ("kernel num_refs", self.kernel.num_refs(), kernel.num_refs()),
            (
                "kernel num_arrays",
                self.kernel.num_arrays(),
                kernel.num_arrays(),
            ),
            (
                "kernel num_read_arrays",
                self.kernel.num_read_arrays(),
                kernel.num_read_arrays(),
            ),
            (
                "kernel updates_read_state",
                usize::from(self.kernel.updates_read_state()),
                usize::from(kernel.updates_read_state()),
            ),
        ];
        for (what, expected, got) in checks {
            if expected != got {
                return Err(EngineError::Shape {
                    what,
                    expected,
                    got,
                });
            }
        }
        let read_init = kernel.init_read();
        if read_init.len() != self.num_elements * kernel.num_read_arrays() {
            return Err(EngineError::Shape {
                what: "init_read length (num_elements * num_read_arrays)",
                expected: self.num_elements * kernel.num_read_arrays(),
                got: read_init.len(),
            });
        }
        self.kernel = kernel;
        self.read_init = read_init;
        Ok(())
    }

    /// Length of the reduction array(s) this run was prepared for.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// The strategy this run was prepared for.
    pub fn strategy(&self) -> &StrategyConfig {
        &self.strat
    }

    /// The [`Tuning`] this run was prepared under.
    pub fn tuning(&self) -> Tuning {
        self.tuning
    }

    /// The resolved phase-local tile span in elements (`None` when the
    /// plan is untiled — [`TileChoice::Off`], or `Auto` on a problem
    /// whose portions already fit the cache budget).
    pub fn tile_span(&self) -> Option<usize> {
        self.tile_span
    }

    /// Number of processors in the prepared plan.
    pub fn num_procs(&self) -> usize {
        self.node_data.len()
    }

    /// Number of phases per sweep (`k·P`).
    pub fn num_phases(&self) -> usize {
        self.node_data.first().map_or(0, |d| d.flat.num_phases())
    }

    /// Processor `proc`'s frozen schedule: the (possibly tiled) CSR
    /// plan its executor streams, rows in [`Self::phase_order`] order.
    pub fn node_plan(&self, proc: usize) -> &lightinspector::FlatPlan {
        &self.node_data[proc].flat
    }

    /// Buffer slots appended to processor `proc`'s reduction arrays.
    pub fn buffer_len(&self, proc: usize) -> usize {
        self.node_data[proc].buffer_len
    }

    /// The (possibly tiled) iteration order of phase `p` on processor
    /// `proc`, as global iteration ids. Exposed so tests can prove the
    /// tiling contract: within one tile block the order is a
    /// subsequence of the untiled order (stable sort).
    pub fn phase_order(&self, proc: usize, p: usize) -> Vec<u32> {
        self.node_data[proc].phase(p).0.to_vec()
    }

    /// The current global indirection arrays (reflecting all applied
    /// updates).
    pub fn indirection(&self) -> &[Vec<u32>] {
        &self.indirection
    }

    /// Cache identity of this plan (version changes on every
    /// [`Self::apply_updates`]).
    pub fn token(&self) -> PlanToken {
        self.token
    }

    /// Executes performed so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Portion-space statistics of the *current* indirection (kept in
    /// sync by [`Self::apply_updates`]): the portion histogram,
    /// max/mean references, distinct-element count, and the skew
    /// coefficient — the inputs to
    /// [`StrategyConfig::auto_select`](crate::StrategyConfig::auto_select).
    pub fn plan_stats(&self) -> lightinspector::PlanStats {
        let geometry = PhaseGeometry::try_new(self.strat.procs, self.strat.k, self.num_elements)
            .expect("prepared runs always hold a valid geometry");
        let refs: Vec<&[u32]> = self.indirection.iter().map(|v| v.as_slice()).collect();
        lightinspector::portion_stats(&geometry, &refs)
    }

    /// Re-route iterations of an adaptive mesh: each entry re-targets
    /// global iteration `iter` to `new_refs` (one element per indirection
    /// array). The batch is validated all-or-nothing first. Every node
    /// the batch touches then re-runs the LightInspector over its updated
    /// local indirection and is frozen exactly as `prepare` freezes it
    /// (fanned out over `min(touched nodes, cores)` workers), so the plan
    /// left behind is the plan a fresh prepare of the updated spec would
    /// build; the token bump invalidates cached phase costs. The first
    /// call gathers each node's local indirection from the global one.
    pub fn apply_updates(&mut self, updates: &[(usize, Vec<u32>)]) -> Result<(), EngineError> {
        if updates.is_empty() {
            return Ok(());
        }
        let m = self.kernel.num_refs();
        let total = self.indirection[0].len();
        for (iter, new_refs) in updates {
            if new_refs.len() != m {
                return Err(EngineError::Shape {
                    what: "update arity (kernel.num_refs)",
                    expected: m,
                    got: new_refs.len(),
                });
            }
            if *iter >= total {
                return Err(EngineError::Shape {
                    what: "updated iteration index (num_iterations)",
                    expected: total,
                    got: *iter,
                });
            }
            for (r, &e) in new_refs.iter().enumerate() {
                if e as usize >= self.num_elements {
                    return Err(EngineError::Invalid(InspectError::OutOfRange {
                        r,
                        iter: *iter,
                        elem: e,
                        num_elements: self.num_elements,
                    }));
                }
            }
        }
        self.structure_hash();
        let (procs, dist) = (self.strat.procs, self.strat.distribution);
        let (indirection, local_iters) = (&self.indirection, &self.local_iters);
        let adaptive = self.adaptive.get_or_insert_with(|| Adaptive {
            local: fan_out(local_iters.iter().collect(), |_, iters: &Vec<u32>| {
                indirection
                    .iter()
                    .map(|arr| iters.iter().map(|&i| arr[i as usize]).collect())
                    .collect()
            }),
        });
        let indirection = Arc::make_mut(&mut self.indirection);
        let mut touched = vec![false; procs];
        for (iter, new_refs) in updates {
            let (proc, local) = dist.locate(*iter, total, procs);
            for (r, &e) in new_refs.iter().enumerate() {
                indirection[r][*iter] = e;
                adaptive.local[proc][r][local] = e;
            }
            touched[proc] = true;
        }
        let touched: Vec<usize> = (0..procs).filter(|&p| touched[p]).collect();
        let geometry = self.node_data[0].geometry;
        let (adaptive, kernel) = (&*adaptive, &*self.kernel);
        let (num_elements, tile_span) = (self.num_elements, self.tile_span);
        let rebuilt = fan_out(touched.clone(), |_, proc| {
            let local: Vec<&[u32]> = adaptive.local[proc].iter().map(Vec::as_slice).collect();
            let input = InspectorInput {
                geometry,
                proc_id: proc,
                indirection: &local,
            };
            let fi = inspect(input).expect("validated updates keep the node inspectable");
            NodePlanData::build(
                fi,
                &local,
                &local_iters[proc],
                num_elements,
                total,
                kernel,
                tile_span,
            )
        });
        for (proc, data) in touched.into_iter().zip(rebuilt) {
            self.node_data[proc] = Arc::new(data);
        }
        self.token.bump();
        Ok(())
    }

    /// Instantiate per-node states from pooled buffers.
    fn make_nodes(&self, ws: &mut Workspace, sim: bool) -> Vec<PhasedNode<K>> {
        let kp = self.strat.phases_per_sweep();
        let r_arrays = self.kernel.num_arrays();
        let n_read = self.kernel.num_read_arrays();
        let m = self.kernel.num_refs();
        let n = self.num_elements;
        let cached = if sim {
            ws.costs_for(self.token).cloned()
        } else {
            None
        };
        // Native runs share one region allocation: the ring rotation
        // moves portion *ownership* (a bare sync), never the doubles.
        // The simulator keeps private arrays and real payloads so the
        // modeled message costs stay byte-identical.
        let region = (!sim).then(|| Arc::new(SharedX::new(n * r_arrays)));
        let shared_read = region.is_some().then(|| {
            Arc::new(SharedRead::new(
                &self.read_init,
                self.kernel.updates_read_state(),
            ))
        });
        let mut nodes = Vec::with_capacity(self.strat.procs);
        for proc in 0..self.strat.procs {
            let data = Arc::clone(&self.node_data[proc]);
            let x = if region.is_some() {
                // Only the private buffer extension: the element range
                // lives in the shared region.
                ws.take_buffer(data.buffer_len * r_arrays)
            } else {
                ws.take_buffer((n + data.buffer_len) * r_arrays)
            };
            let mut read = if shared_read.is_some() {
                Vec::new()
            } else {
                ws.take_buffer(n * n_read)
            };
            if shared_read.is_none() {
                read.copy_from_slice(&self.read_init);
            }
            let phase_cost = cached
                .as_ref()
                .and_then(|c| c.get(proc).cloned())
                .unwrap_or_else(|| vec![None; kp]);
            nodes.push(PhasedNode {
                proc,
                sweeps: self.strat.sweeps,
                kernel: Arc::clone(&self.kernel),
                data,
                x,
                region: region.clone(),
                shared_read: shared_read.clone(),
                read,
                r_arrays,
                n_read,
                out: vec![0.0; m * r_arrays],
                pool: Vec::new(),
                phase_cost,
                stream: StreamModel::new(self.mem_cfg),
                iter_overhead: self.overheads.0,
                copy_overhead: self.overheads.1,
                staged: Vec::new(),
                results: Vec::new(),
            });
        }
        nodes
    }

    /// Assemble global arrays from per-node final portions, return the
    /// node buffers to the pool, and (for simulated runs) harvest the
    /// measured phase costs into the workspace cache.
    fn finish(&self, nodes: Vec<PhasedNode<K>>, ws: &mut Workspace, sim: bool) -> Assembled {
        let n = self.num_elements;
        let r_arrays = self.kernel.num_arrays();
        let r_read = self.kernel.num_read_arrays();
        let mut x = vec![vec![0.0f64; n]; r_arrays];
        let mut read = vec![vec![0.0f64; n]; r_read];
        let mut counts = Vec::with_capacity(nodes.len());
        let mut harvest: PhaseCosts = Vec::with_capacity(if sim { nodes.len() } else { 0 });
        for node in nodes {
            counts.push(
                (0..node.data.flat.num_phases())
                    .map(|p| node.data.flat.phase_rows(p).len())
                    .collect(),
            );
            // De-interleave final portions into the public per-array
            // shape — the only place the interleaved layout leaks out.
            for (portion, xs, rs) in node.results {
                let range = node.data.geometry.portion_range(portion);
                for (i, v) in range.clone().enumerate() {
                    for (a, xa) in x.iter_mut().enumerate() {
                        xa[v] = xs[i * r_arrays + a];
                    }
                }
                for (i, v) in range.enumerate() {
                    for (a, ra) in read.iter_mut().enumerate() {
                        ra[v] = rs[i * r_read + a];
                    }
                }
            }
            if sim {
                harvest.push(node.phase_cost);
            }
            ws.put_buffer(node.x);
            ws.put_buffer(node.read);
            for b in node.pool {
                ws.put_buffer(b.into_vec());
            }
        }
        if sim {
            ws.store_costs(self.token, harvest);
        }
        (x, read, counts)
    }

    fn provenance(&self, backend: &'static str, reused: bool) -> Provenance {
        Provenance {
            engine: "phased",
            backend,
            reused_plan: reused,
            executions: self.executions,
        }
    }

    /// A sequential fallback outcome computed from the *current*
    /// indirection arrays (post-updates).
    fn seq_fallback(&self) -> RunOutcome {
        let spec = PhasedSpec {
            kernel: Arc::clone(&self.kernel),
            num_elements: self.num_elements,
            indirection: Arc::clone(&self.indirection),
        };
        let seq = seq_reduction(&spec, self.strat.sweeps, SimConfig::default());
        RunOutcome {
            values: seq.x,
            read: seq.read,
            time_cycles: seq.cycles,
            seconds: seq.seconds,
            ..RunOutcome::default()
        }
    }

    /// Replay the prepare-time LightInspector stage events into a fresh
    /// sink so traced executes show inspection ahead of the run.
    fn replay_inspector_events(&self, sink: &dyn TraceSink) {
        if sink.enabled() {
            for &ev in &self.inspector_events {
                sink.record(ev);
            }
        }
    }

    fn execute(
        &mut self,
        cfg: &ExecutionConfig,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let reused = self.executions > 0;
        self.executions += 1;
        let sink = cfg.trace.make_sink(self.strat.procs);
        self.replay_inspector_events(sink.as_ref());
        match (&self.template, cfg.backend) {
            (PhasedTemplate::Sim(tmpl), BackendKind::Sim) => {
                let nodes = self.make_nodes(ws, true);
                let prog = tmpl.instantiate(nodes);
                let report = run_sim_traced(prog, cfg.sim, Arc::clone(&sink));
                assert_eq!(report.stats.unfired_fibers, 0, "phase fiber starved");
                let (values, read, counts) = self.finish(report.states, ws, true);
                let mut out = RunOutcome {
                    values,
                    read,
                    time_cycles: report.time_cycles,
                    seconds: report.seconds,
                    stats: report.stats,
                    phase_iter_counts: counts,
                    trace: report.trace,
                    provenance: self.provenance("sim", reused),
                    ..RunOutcome::default()
                };
                out.fill_metrics();
                out.record_trace_drops(sink.as_ref());
                Ok(out)
            }
            (PhasedTemplate::Native(_), BackendKind::Native) => {
                let base = cfg.native;
                let mut out = match cfg.recovery {
                    None => self.native_attempt(base, &sink, ws)?,
                    Some(policy) => run_recovery_ladder(
                        policy,
                        sink.as_ref(),
                        |attempt| attempt_faults(base.faults, attempt).map(|f| f.seed),
                        |attempt| {
                            let mut c = base;
                            c.faults = attempt_faults(base.faults, attempt);
                            self.native_attempt(c, &sink, ws)
                        },
                        || self.seq_fallback(),
                    )?,
                };
                // The sink accumulates across retry attempts, so the
                // drained stream shows every rung, not just the winner.
                out.trace = sink.drain();
                out.provenance = self.provenance("native", reused);
                out.fill_metrics();
                out.record_trace_drops(sink.as_ref());
                Ok(out)
            }
            _ => Err(EngineError::Unsupported(
                "prepared run was built for the other backend",
            )),
        }
    }

    /// One native run from the prepared plan. A starved machine — a
    /// phase fiber whose sync never arrives, e.g. because a fault plan
    /// dropped the message — is always reported as
    /// [`RunError::Stalled`][earth_model::native::RunError], never as a
    /// silently short result: the phased program has no legitimate
    /// unfired fibers.
    fn native_attempt(
        &self,
        cfg: NativeConfig,
        sink: &Arc<dyn TraceSink>,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let PhasedTemplate::Native(tmpl) = &self.template else {
            return Err(EngineError::Unsupported(
                "prepared run was built for the simulator",
            ));
        };
        let cfg = NativeConfig {
            starved_is_error: true,
            ..cfg
        };
        let nodes = self.make_nodes(ws, false);
        let prog = tmpl.instantiate(nodes);
        let report = run_native_traced(prog, cfg, Arc::clone(sink))?;
        let (values, read, counts) = self.finish(report.states, ws, false);
        Ok(RunOutcome {
            values,
            read,
            wall: report.wall,
            stats: report.stats,
            phase_iter_counts: counts,
            ..RunOutcome::default()
        })
    }

    /// The general recovery form: the caller chooses the backend
    /// configuration of each attempt (attempt numbers start at 0).
    /// Invalid-spec errors are returned immediately — retrying a caller
    /// bug cannot succeed; only runtime failures walk the ladder.
    pub fn execute_recovering_with(
        &mut self,
        ws: &mut Workspace,
        policy: RecoveryPolicy,
        cfg_for_attempt: impl Fn(u32) -> NativeConfig,
    ) -> Result<RunOutcome, EngineError> {
        let reused = self.executions > 0;
        self.executions += 1;
        let sink = self.trace_cfg.make_sink(self.strat.procs);
        self.replay_inspector_events(sink.as_ref());
        let mut out = run_recovery_ladder(
            policy,
            sink.as_ref(),
            |attempt| cfg_for_attempt(attempt).faults.map(|f| f.seed),
            |attempt| self.native_attempt(cfg_for_attempt(attempt), &sink, ws),
            || self.seq_fallback(),
        )?;
        out.trace = sink.drain();
        out.provenance = self.provenance("native", reused);
        out.fill_metrics();
        out.record_trace_drops(sink.as_ref());
        Ok(out)
    }
}

/// The phased executor as a [`ReductionEngine`]: construct it from an
/// [`ExecutionConfig`], `prepare` once per `(spec, strategy)`, `execute`
/// per run.
#[derive(Debug, Clone, Copy)]
pub struct PhasedEngine {
    cfg: ExecutionConfig,
}

impl PhasedEngine {
    /// The general constructor: any [`ExecutionConfig`] (or a bare
    /// `SimConfig`/`NativeConfig` via `Into`).
    pub fn new(cfg: impl Into<ExecutionConfig>) -> Self {
        PhasedEngine { cfg: cfg.into() }
    }

    /// Run on the discrete-event simulator.
    pub fn sim(cfg: SimConfig) -> Self {
        Self::new(ExecutionConfig::sim(cfg))
    }

    /// Run on real OS threads (one per simulated node).
    pub fn native(cfg: NativeConfig) -> Self {
        Self::new(ExecutionConfig::native(cfg))
    }

    /// Run natively under a [`RecoveryPolicy`]: retry failed runs with
    /// exponential backoff (re-instantiating the program each time and,
    /// when a fault plan is configured, reseeding it per attempt), then
    /// fall back to the sequential executor. Callers always get a
    /// bit-correct answer or a typed error — never a hang, never silent
    /// corruption.
    pub fn recovering(cfg: NativeConfig, policy: RecoveryPolicy) -> Self {
        Self::new(ExecutionConfig::native(cfg).with_recovery(policy))
    }

    pub fn config(&self) -> &ExecutionConfig {
        &self.cfg
    }

    /// Prepare by adopting compiler-emitted flat plans (one
    /// [`lightinspector::FlatInspection`] per processor, built under the
    /// same iteration distribution as `strat`) instead of running the
    /// inspector. Every plan is verified against `spec.indirection`
    /// before adoption; the prepared run then behaves exactly like one
    /// from [`ReductionEngine::prepare`] — incremental updates, plan
    /// caching, and repeated executes all work.
    pub fn prepare_from_flat<K: EdgeKernel>(
        &self,
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
        flats: Vec<lightinspector::FlatInspection>,
    ) -> Result<PreparedPhased<K>, EngineError> {
        PreparedPhased::new_from_flat(spec, strat, &self.cfg, flats)
    }
}

impl<K: EdgeKernel> ReductionEngine<PhasedSpec<K>> for PhasedEngine {
    type Prepared = PreparedPhased<K>;

    fn name(&self) -> &'static str {
        "phased"
    }

    fn prepare(
        &self,
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
    ) -> Result<Self::Prepared, EngineError> {
        PreparedPhased::new(spec, strat, &self.cfg)
    }

    fn execute(
        &self,
        prepared: &mut Self::Prepared,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        prepared.execute(&self.cfg, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::kernel::WeightedPairKernel;
    use crate::seq::seq_reduction;
    use lightinspector::{FlatInspection, PlanError};
    use workloads::{distribute, Distribution};

    fn tiny_spec(num_elems: usize, seed: u64, iters: usize) -> PhasedSpec<WeightedPairKernel> {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let ia1: Vec<u32> = (0..iters)
            .map(|_| (next() % num_elems as u64) as u32)
            .collect();
        let ia2: Vec<u32> = (0..iters)
            .map(|_| (next() % num_elems as u64) as u32)
            .collect();
        let weights: Vec<f64> = (0..iters).map(|_| (next() % 1000) as f64 / 100.0).collect();
        PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(weights),
            }),
            num_elements: num_elems,
            indirection: Arc::new(vec![ia1, ia2]),
        }
    }

    fn run_sim_engine(spec: &PhasedSpec<WeightedPairKernel>, strat: &StrategyConfig) -> RunOutcome {
        PhasedEngine::sim(SimConfig::default())
            .run(spec, strat)
            .unwrap()
    }

    fn check_matches_seq(spec: &PhasedSpec<WeightedPairKernel>, strat: StrategyConfig) {
        let seq = seq_reduction(spec, strat.sweeps, SimConfig::default());
        let res = run_sim_engine(spec, &strat);
        assert!(
            approx_eq(&res.values[0], &seq.x[0], 1e-9),
            "phased vs sequential mismatch for {}P {}",
            strat.procs,
            strat.label()
        );
    }

    #[test]
    fn two_procs_k2_matches_sequential() {
        let spec = tiny_spec(32, 1, 200);
        check_matches_seq(&spec, StrategyConfig::new(2, 2, Distribution::Cyclic, 3));
    }

    #[test]
    fn one_proc_degenerate_case() {
        let spec = tiny_spec(16, 2, 50);
        check_matches_seq(&spec, StrategyConfig::new(1, 2, Distribution::Block, 2));
    }

    #[test]
    fn k1_matches_sequential() {
        let spec = tiny_spec(24, 3, 120);
        check_matches_seq(&spec, StrategyConfig::new(3, 1, Distribution::Block, 2));
    }

    #[test]
    fn k4_block_matches_sequential() {
        let spec = tiny_spec(64, 4, 500);
        check_matches_seq(&spec, StrategyConfig::new(4, 4, Distribution::Block, 2));
    }

    #[test]
    fn many_procs_cyclic() {
        let spec = tiny_spec(64, 5, 400);
        check_matches_seq(&spec, StrategyConfig::new(8, 2, Distribution::Cyclic, 3));
    }

    #[test]
    fn single_sweep() {
        let spec = tiny_spec(32, 6, 100);
        check_matches_seq(&spec, StrategyConfig::new(4, 2, Distribution::Cyclic, 1));
    }

    /// Build the per-proc flat inspections exactly the way the compiler
    /// does: split iterations under the strategy's distribution, then
    /// run the inspector on each local slice.
    fn emit_flats(
        spec: &PhasedSpec<WeightedPairKernel>,
        strat: &StrategyConfig,
    ) -> Vec<FlatInspection> {
        let geometry = PhaseGeometry::try_new(strat.procs, strat.k, spec.num_elements).unwrap();
        let owned = distribute(spec.num_iterations(), strat.procs, strat.distribution);
        (0..strat.procs)
            .map(|proc| {
                let local: Vec<Vec<u32>> = spec
                    .indirection
                    .iter()
                    .map(|arr| owned[proc].iter().map(|&i| arr[i as usize]).collect())
                    .collect();
                let refs: Vec<&[u32]> = local.iter().map(|v| v.as_slice()).collect();
                lightinspector::inspect(InspectorInput {
                    geometry,
                    proc_id: proc,
                    indirection: &refs,
                })
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn prepare_from_flat_is_bit_identical_to_prepare() {
        let spec = tiny_spec(48, 11, 300);
        for strat in [
            StrategyConfig::new(2, 2, Distribution::Cyclic, 3),
            StrategyConfig::new(4, 1, Distribution::Block, 2),
            StrategyConfig::new(3, 3, Distribution::Cyclic, 2),
        ] {
            let engine = PhasedEngine::sim(SimConfig::default());
            let mut normal = engine.prepare(&spec, &strat).unwrap();
            let mut adopted = engine
                .prepare_from_flat(&spec, &strat, emit_flats(&spec, &strat))
                .unwrap();
            let mut ws1 = Workspace::new();
            let mut ws2 = Workspace::new();
            let a = engine.execute(&mut normal, &mut ws1).unwrap();
            let b = engine.execute(&mut adopted, &mut ws2).unwrap();
            for (x, y) in a.values[0].iter().zip(&b.values[0]) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", strat.label());
            }
            assert_eq!(a.time_cycles, b.time_cycles, "{}", strat.label());
        }
    }

    #[test]
    fn prepare_from_flat_rejects_mismatched_plans() {
        let spec = tiny_spec(32, 12, 100);
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        // Wrong processor count.
        let flats = emit_flats(&spec, &strat);
        let err = engine
            .prepare_from_flat(&spec, &strat, flats[..1].to_vec())
            .unwrap_err();
        assert!(matches!(err, EngineError::Shape { .. }), "{err}");
        // Plans built for a different distribution fail verification.
        let other = StrategyConfig::new(2, 2, Distribution::Cyclic, 1);
        let err = engine
            .prepare_from_flat(&spec, &strat, emit_flats(&spec, &other))
            .unwrap_err();
        assert!(matches!(err, EngineError::Plan(_)), "{err}");
    }

    #[test]
    fn prepare_from_flat_rejects_plans_tampered_with_after_emission() {
        let spec = tiny_spec(32, 12, 100);
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        let n = spec.num_elements as u32;
        let adopt = |tamper: &dyn Fn(&mut FlatInspection)| {
            let mut flats = emit_flats(&spec, &strat);
            tamper(&mut flats[1]);
            match engine.prepare_from_flat(&spec, &strat, flats) {
                Err(EngineError::Plan(e)) => e,
                other => panic!("a tampered plan must fail verification, got {other:?}"),
            }
        };
        let flats = emit_flats(&spec, &strat);
        let fi = &flats[1];
        let phase_of_copy = |ci: usize| {
            (0..fi.flat.num_phases())
                .find(|&p| ci < fi.flat.copy_ptr[p + 1] as usize)
                .unwrap()
        };

        // A resident reference redirected to another element.
        let e = adopt(&|fi| {
            let r = fi.flat.refs.iter().position(|&t| t < n).unwrap();
            fi.flat.refs[r] = (fi.flat.refs[r] + 1) % n;
        });
        assert!(matches!(e, PlanError::WrongTarget { .. }), "{e}");
        // Two rows of different phases swapped: every reference still
        // names its own element, but in the wrong phase.
        let (p0, p1) = (0, fi.flat.num_phases() - 1);
        assert!(!fi.flat.phase_rows(p0).is_empty() && !fi.flat.phase_rows(p1).is_empty());
        let e = adopt(&|fi| {
            let (a, b) = (fi.flat.phase_rows(p0).start, fi.flat.phase_rows(p1).start);
            fi.iters.swap(a, b);
            for r in 0..2 {
                fi.flat.refs.swap(2 * a + r, 2 * b + r);
            }
        });
        assert!(matches!(e, PlanError::NotResident { phase: 0, .. }), "{e}");
        // A buffered reference pointed past the buffer extension.
        let e = adopt(&|fi| {
            let r = fi.flat.refs.iter().position(|&t| t >= n).unwrap();
            fi.flat.refs[r] = n + fi.buffer_len as u32;
        });
        assert!(matches!(e, PlanError::SlotOutOfRange { .. }), "{e}");
        // Two buffered references sharing one slot.
        let e = adopt(&|fi| {
            let mut slots = (0..fi.flat.refs.len()).filter(|&r| fi.flat.refs[r] >= n);
            let (a, b) = (slots.next().unwrap(), slots.next().unwrap());
            fi.flat.refs[b] = fi.flat.refs[a];
        });
        assert!(matches!(e, PlanError::BufferAliased { .. }), "{e}");
        // A copy folded into an element its phase does not hold.
        let e = adopt(&|fi| {
            let p = phase_of_copy(0);
            let held = fi
                .geometry
                .portion_range(fi.geometry.portion_owned_by(1, p));
            fi.flat.copies[0].dest = (held.end as u32) % n;
        });
        assert!(matches!(e, PlanError::CopyDestNotResident { .. }), "{e}");
        // Two folds of one phase into different resident elements, swapped.
        let pair = (1..fi.flat.copies.len())
            .find(|&ci| {
                phase_of_copy(ci - 1) == phase_of_copy(ci)
                    && fi.flat.copies[ci - 1].dest != fi.flat.copies[ci].dest
            })
            .expect("some phase folds two distinct elements");
        let e = adopt(&|fi| {
            let (a, b) = (fi.flat.copies[pair - 1].dest, fi.flat.copies[pair].dest);
            fi.flat.copies[pair - 1].dest = b;
            fi.flat.copies[pair].dest = a;
        });
        assert!(matches!(e, PlanError::CopyWrongDest { .. }), "{e}");
        // A fold of a slot that is only written in the same or a later
        // phase.
        let (ci, late) = (0..fi.flat.copies.len())
            .find_map(|ci| {
                let p = phase_of_copy(ci);
                let rows = fi.flat.phase_rows(p).start..fi.iters.len();
                let late = fi.flat.refs[rows.start * 2..rows.end * 2]
                    .iter()
                    .find(|&&t| t >= n)?;
                Some((ci, *late))
            })
            .expect("some slot is written at or after a fold's phase");
        let e = adopt(&|fi| fi.flat.copies[ci].src = late);
        assert!(matches!(e, PlanError::CopyBeforeWrite { .. }), "{e}");
        // A fold doubled (its neighbour's slot then never folds), or
        // pointed below the buffer extension.
        let twin = (1..fi.flat.copies.len())
            .find(|&ci| phase_of_copy(ci - 1) == phase_of_copy(ci))
            .expect("some phase has two folds");
        let e = adopt(&|fi| fi.flat.copies[twin] = fi.flat.copies[twin - 1]);
        assert!(matches!(e, PlanError::CopyCount { .. }), "{e}");
        let e = adopt(&|fi| fi.flat.copies[0].src = n - 1);
        assert!(matches!(e, PlanError::CopyCount { times: 0, .. }), "{e}");
        // An iteration scheduled twice (and another never).
        let e = adopt(&|fi| fi.iters[0] = fi.iters[1]);
        assert!(matches!(e, PlanError::IterationCoverage { .. }), "{e}");
        let e = adopt(&|fi| fi.iters[0] = u32::MAX);
        assert!(matches!(e, PlanError::IterationCoverage { .. }), "{e}");
        // Inconsistent CSR pointers are a shape error, not an index panic.
        let e = adopt(&|fi| *fi.flat.iter_ptr.last_mut().unwrap() += 1);
        assert!(matches!(e, PlanError::FlatShape { .. }), "{e}");
        let e = adopt(&|fi| {
            fi.flat.copies.pop();
        });
        assert!(matches!(e, PlanError::FlatShape { .. }), "{e}");
    }

    #[test]
    fn native_backend_matches_sequential() {
        let spec = tiny_spec(32, 7, 200);
        let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 3);
        let seq = seq_reduction(&spec, strat.sweeps, SimConfig::default());
        let res = PhasedEngine::native(NativeConfig::default())
            .run(&spec, &strat)
            .unwrap();
        assert!(approx_eq(&res.values[0], &seq.x[0], 1e-9));
    }

    #[test]
    fn k2_overlaps_better_than_k1() {
        // On several processors with nontrivial portions, k=2 should beat
        // k=1 thanks to communication/computation overlap.
        let spec = tiny_spec(4096, 8, 20_000);
        let t1 =
            run_sim_engine(&spec, &StrategyConfig::new(8, 1, Distribution::Cyclic, 3)).time_cycles;
        let t2 =
            run_sim_engine(&spec, &StrategyConfig::new(8, 2, Distribution::Cyclic, 3)).time_cycles;
        assert!(t2 < t1, "k=2 ({t2}) should beat k=1 ({t1})");
    }

    #[test]
    fn communication_independent_of_indirection() {
        // Two specs with identical sizes but different indirection
        // contents must move exactly the same number of bytes.
        let a = tiny_spec(256, 10, 2_000);
        let b = tiny_spec(256, 11, 2_000);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let ra = run_sim_engine(&a, &strat);
        let rb = run_sim_engine(&b, &strat);
        assert_eq!(ra.stats.ops.messages, rb.stats.ops.messages);
        assert_eq!(ra.stats.ops.bytes, rb.stats.ops.bytes);
    }

    #[test]
    fn phase_counts_reported() {
        let spec = tiny_spec(64, 12, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        let res = run_sim_engine(&spec, &strat);
        assert_eq!(res.phase_iter_counts.len(), 4);
        let total: usize = res.phase_iter_counts.iter().flatten().sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn prepare_once_execute_many_is_bit_identical() {
        let spec = tiny_spec(48, 13, 400);
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 2);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let mut ws = Workspace::new();
        let first = engine.execute(&mut prepared, &mut ws).unwrap();
        assert!(!first.provenance.reused_plan);
        for _ in 0..3 {
            let fresh = engine.run(&spec, &strat).unwrap();
            let again = engine.execute(&mut prepared, &mut ws).unwrap();
            assert!(again.provenance.reused_plan);
            assert_eq!(
                again.values, fresh.values,
                "reused plan must be bit-identical"
            );
            assert_eq!(again.values, first.values);
        }
        assert_eq!(prepared.executions(), 4);
        assert!(ws.has_cached_costs(), "sim executes cache phase costs");
        assert!(ws.pooled_buffers() > 0, "buffers returned to the pool");
    }

    #[test]
    fn prepare_defers_incremental_state_to_the_first_update() {
        let spec = tiny_spec(64, 24, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let _ = engine
            .execute(&mut prepared, &mut Workspace::new())
            .unwrap();
        prepared.apply_updates(&[]).unwrap();
        assert!(
            prepared.adaptive.is_none(),
            "no update state before an update"
        );
        assert!(Arc::ptr_eq(&prepared.indirection, &spec.indirection));
        let untouched: Vec<_> = prepared.node_data.iter().map(Arc::clone).collect();
        // Block over 4 procs: iteration 75 is processor 1's first.
        let before = spec.indirection[0][75];
        prepared
            .apply_updates(&[(75, vec![before ^ 1, 2])])
            .unwrap();
        let local = &prepared.adaptive.as_ref().unwrap().local;
        assert_eq!((local[1][0][0], local[1][1][0]), (before ^ 1, 2));
        assert_eq!(local[2][0], spec.indirection[0][150..225]);
        assert_eq!(prepared.indirection()[0][75], before ^ 1);
        assert_eq!(spec.indirection[0][75], before, "the spec is never written");
        for (proc, (now, was)) in prepared.node_data.iter().zip(&untouched).enumerate() {
            assert_eq!(Arc::ptr_eq(now, was), proc != 1, "only proc 1 is rebuilt");
        }
    }

    /// Plan size at the `serve-cold` shape: two references into one
    /// array, P4 k2 cyclic, 131 072 random iterations on 16 384
    /// elements. Holding the schedule once costs ≈ 31 B/iteration; the
    /// bound leaves room for slack, not for a nested second form of the
    /// plan (≈ 23 B/iteration more).
    #[test]
    fn prepared_plan_holds_its_schedule_once() {
        let spec = tiny_spec(16_384, 26, 131_072);
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        let prepared = PhasedEngine::native(NativeConfig::default())
            .prepare(&spec, &strat)
            .unwrap();
        let per_iter = prepared.resident_bytes() as f64 / spec.num_iterations() as f64;
        assert!(per_iter <= 45.0, "{per_iter:.1} resident B/iteration");
    }

    /// At the `engine-pic` shape (P8 k2 cyclic, 524 288 two-reference
    /// iterations on 65 536 elements), a 10 % update leaves exactly the
    /// plan a fresh prepare of the updated spec builds — rows, buffer
    /// slots and copies — plus only the nodes' local indirection
    /// copies: 4·m B/iteration.
    #[test]
    fn updated_plan_costs_a_fresh_plan_plus_the_local_indirection() {
        let spec = tiny_spec(65_536, 27, 524_288);
        let strat = StrategyConfig::new(8, 2, Distribution::Cyclic, 1);
        let engine = PhasedEngine::native(NativeConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let updates: Vec<(usize, Vec<u32>)> = (0..52_429)
            .map(|i| {
                (
                    i * 10 + 3,
                    vec![(i % 65_536) as u32, (i * 7 % 65_536) as u32],
                )
            })
            .collect();
        prepared.apply_updates(&updates).unwrap();
        let updated = PhasedSpec {
            indirection: Arc::new(prepared.indirection().to_vec()),
            ..spec.clone()
        };
        let fresh = engine.prepare(&updated, &strat).unwrap();
        for (a, b) in prepared.node_data.iter().zip(&fresh.node_data) {
            assert_eq!(a.flat, b.flat);
            assert_eq!(a.buffer_len, b.buffer_len);
            assert_eq!((&a.giters, &a.elems), (&b.giters, &b.elems));
        }
        let m = spec.kernel.num_refs();
        let bound = fresh.resident_bytes() + 4 * m * spec.num_iterations();
        assert!(
            prepared.resident_bytes() <= bound,
            "{} resident B after the update, bound {bound}",
            prepared.resident_bytes()
        );
    }

    #[test]
    fn structure_hash_keys_on_structure_not_values() {
        let spec = tiny_spec(64, 21, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let h = spec.structure_hash(&strat);
        // Deterministic across calls and clones.
        assert_eq!(h, spec.structure_hash(&strat));
        assert_eq!(h, spec.clone().structure_hash(&strat));
        // Kernel values (weights) do not participate.
        let reweighted = PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(vec![9.0; spec.num_iterations()]),
            }),
            ..spec.clone()
        };
        assert_eq!(h, reweighted.structure_hash(&strat));
        // Structure does: indirection contents, geometry, strategy.
        let mut ind = spec.indirection.as_ref().clone();
        ind[0][0] ^= 1;
        let rerouted = PhasedSpec {
            indirection: Arc::new(ind),
            ..spec.clone()
        };
        assert_ne!(h, rerouted.structure_hash(&strat));
        let wider = PhasedSpec {
            num_elements: spec.num_elements + 1,
            ..spec.clone()
        };
        assert_ne!(h, wider.structure_hash(&strat));
        let other_strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 2);
        assert_ne!(h, spec.structure_hash(&other_strat));
    }

    #[test]
    fn cache_key_tracks_incremental_updates() {
        let spec = tiny_spec(64, 22, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let k0 = prepared.cache_key();
        assert_eq!(k0, engine.prepare(&spec, &strat).unwrap().cache_key());
        prepared.apply_updates(&[(0, vec![1, 2])]).unwrap();
        let k1 = prepared.cache_key();
        assert_ne!(k0, k1, "mutation must derive a new cache key");
        assert_eq!(k1, prepared.cache_key());
        // First asked after the update, the key still hashes the
        // prepare-time structure.
        let mut late = engine.prepare(&spec, &strat).unwrap();
        late.apply_updates(&[(0, vec![1, 2])]).unwrap();
        assert_eq!(late.cache_key(), k1);
    }

    /// Lengths 1–17 cover a partial chunk alone, one whole chunk (every
    /// lane, both halves of each word), and a whole chunk plus a padded
    /// remainder: a single-entry change anywhere must move the hash.
    #[test]
    fn structure_hash_sees_every_entry_of_every_lane() {
        let spec = tiny_spec(64, 24, 17);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let hash = |ind: &[Vec<u32>]| structure_hash(64, &*spec.kernel, ind, &strat);
        for len in 1..=17 {
            let base: Vec<Vec<u32>> = spec.indirection.iter().map(|a| a[..len].to_vec()).collect();
            let h = hash(&base);
            for r in 0..base.len() {
                for pos in 0..len {
                    let mut changed = base.clone();
                    changed[r][pos] ^= 1;
                    assert_ne!(h, hash(&changed), "len {len}, ref {r}, entry {pos}");
                }
            }
        }
    }

    #[test]
    fn structure_hash_orders_entries_across_lanes() {
        let spec = tiny_spec(64, 25, 17);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let ind: Vec<Vec<u32>> = vec![(0..17).collect(), (0..17).rev().collect()];
        let h = structure_hash(64, &*spec.kernel, &ind, &strat);
        // Entry pairs in lanes 0|1 and 1|3 of one chunk, in lane 0 of
        // two chunks, and in lane 2 | the padded remainder.
        for (a, b) in [(0, 2), (3, 7), (1, 9), (5, 16)] {
            let mut swapped = ind.clone();
            swapped[0].swap(a, b);
            assert_ne!(
                h,
                structure_hash(64, &*spec.kernel, &swapped, &strat),
                "swap {a} <-> {b}"
            );
        }
    }

    #[test]
    fn prepared_hash_is_the_spec_hash_with_the_tuning_folded_in() {
        let spec = tiny_spec(64, 26, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 2);
        let prepared = PhasedEngine::sim(SimConfig::default())
            .prepare(&spec, &strat)
            .unwrap();
        let mut h = spec.structure_hash(&strat);
        fold64(&mut h, prepared.tuning().plan_fingerprint());
        assert_eq!(prepared.structure_hash(), h);
    }

    #[test]
    fn set_kernel_swaps_values_on_cached_plan() {
        let spec = tiny_spec(48, 23, 250);
        let strat = StrategyConfig::new(3, 2, Distribution::Cyclic, 2);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let mut ws = Workspace::new();
        let _ = engine.execute(&mut prepared, &mut ws).unwrap();

        let swapped = Arc::new(WeightedPairKernel {
            weights: Arc::new(
                spec.kernel
                    .weights
                    .iter()
                    .map(|w| w * 1.5 + 0.25)
                    .collect::<Vec<f64>>(),
            ),
        });
        prepared.set_kernel(Arc::clone(&swapped)).unwrap();
        let res = engine.execute(&mut prepared, &mut ws).unwrap();

        let fresh_spec = PhasedSpec {
            kernel: swapped,
            ..spec.clone()
        };
        let fresh = engine.run(&fresh_spec, &strat).unwrap();
        assert_eq!(
            res.values, fresh.values,
            "cached plan with swapped kernel must match a fresh prepare bit-for-bit"
        );
    }

    #[test]
    fn apply_updates_rejects_out_of_range() {
        let spec = tiny_spec(32, 15, 100);
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        let mut prepared = engine.prepare(&spec, &strat).unwrap();
        let err = prepared.apply_updates(&[(0, vec![99, 0])]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Invalid(InspectError::OutOfRange { elem: 99, .. })
        ));
        let err = prepared.apply_updates(&[(500, vec![1, 2])]).unwrap_err();
        assert!(matches!(err, EngineError::Shape { .. }));
    }

    #[test]
    fn traced_sim_run_emits_phase_spans_and_metrics() {
        let spec = tiny_spec(32, 16, 150);
        let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 2);
        let engine = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()).traced());
        let res = engine.run(&spec, &strat).unwrap();
        let seq = seq_reduction(&spec, strat.sweeps, SimConfig::default());
        assert!(approx_eq(&res.values[0], &seq.x[0], 1e-9));

        // Every phase fiber emits Enter/Exit plus the copy-stage pair:
        // 2 procs × 2 sweeps × (k·P = 4) phases.
        let enters = res
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::PhaseEnter { .. }))
            .count();
        let exits = res
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::PhaseExit { .. }))
            .count();
        assert_eq!(enters, 2 * 2 * 4);
        assert_eq!(exits, enters);
        assert!(res
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::PortionRotate { .. })));
        // The timeline folds cleanly and the metrics mirror the stats.
        assert!(!res.timeline().table().is_empty());
        assert_eq!(
            res.metrics().counter("messages"),
            Some(res.stats.ops.messages)
        );
        assert_eq!(
            res.metrics().counter("trace_events"),
            Some(res.trace.len() as u64)
        );
    }

    #[test]
    fn untraced_run_matches_traced_run_bitwise() {
        let spec = tiny_spec(48, 17, 300);
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 2);
        let plain = PhasedEngine::sim(SimConfig::default())
            .run(&spec, &strat)
            .unwrap();
        let traced = PhasedEngine::new(ExecutionConfig::sim(SimConfig::default()).traced())
            .run(&spec, &strat)
            .unwrap();
        assert!(plain.trace.is_empty());
        assert!(!traced.trace.is_empty());
        assert_eq!(plain.values, traced.values);
        assert_eq!(plain.time_cycles, traced.time_cycles);
        assert_eq!(plain.stats.ops, traced.stats.ops);
    }
}
