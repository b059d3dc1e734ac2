//! The phased program's frozen per-node schedule: the LightInspector's
//! flat plan (optionally tiled), the global ids its kernels read, and
//! the addressing the cache model charges.

use lightinspector::{FlatInspection, PhaseGeometry};
use memsim::{AddressMap, Region};

use crate::config::{BackendKind, ExecutionConfig};
use crate::kernel::EdgeKernel;
use crate::tuning::{TileChoice, Tuning};

/// Per-node regions for the cache model. The reduction group and the
/// read arrays are modeled with array-of-structs layout (one struct of
/// `num_arrays` / `num_read_arrays` doubles per element), matching how
/// such codes store multi-component fields — one cache line per element,
/// not one per component.
pub(super) struct Regions {
    pub(super) x: Region,
    pub(super) read: Region,
    pub(super) giter: Region,
    pub(super) elems: Region,
    pub(super) refs: Vec<Region>,
    pub(super) edge: Region,
    pub(super) copies: Region,
}

/// The immutable, reusable part of one node: its schedule, held once,
/// and the addressing derived from it. Shared (`Arc`) between the
/// prepared run and every node state instantiated from it, and rebuilt
/// only when a mesh update touches the node.
pub(super) struct NodePlanData {
    /// The (possibly tiled) CSR schedule: `m`-interleaved scatter
    /// targets per row and the concatenated copy ops, per phase through
    /// `iter_ptr` / `copy_ptr`.
    pub(super) flat: lightinspector::FlatPlan,
    /// Buffer slots appended to this node's reduction arrays.
    pub(super) buffer_len: usize,
    /// Global iteration id of each schedule row.
    pub(super) giters: Vec<u32>,
    /// Original global element ids of each row, `m`-interleaved.
    pub(super) elems: Vec<u32>,
    pub(super) regions: Regions,
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
pub(super) fn resolve_tile_span<K: EdgeKernel>(
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
    pub(super) fn build<K: EdgeKernel>(
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
            flat: fi.flat,
            buffer_len: fi.buffer_len,
            giters,
            elems,
            regions,
        }
    }

    /// Phase `p`'s rows: global iteration ids, element ids, scatter
    /// targets, and copy ops — the slices every loop variant streams.
    pub(super) fn phase(&self, p: usize) -> (&[u32], &[u32], &[u32], &[lightinspector::CopyOp]) {
        let rows = self.flat.phase_rows(p);
        let m = self.flat.m();
        (
            &self.giters[rows.clone()],
            &self.elems[rows.start * m..rows.end * m],
            self.flat.phase_refs(p),
            self.flat.phase_copies(p),
        )
    }
}
