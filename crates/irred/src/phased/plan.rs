//! The phased program's frozen per-node schedule: the LightInspector's
//! flat plan, the global ids its kernels read, and the addressing the
//! cache model charges.

use lightinspector::FlatInspection;
use memsim::{AddressMap, Region};

use crate::kernel::EdgeKernel;

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
    /// The CSR schedule: `m`-interleaved scatter
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

impl NodePlanData {
    /// Freeze one processor's inspection into the node's schedule —
    /// the one construction path for fresh, adopted, and updated plans.
    /// Turns the local iteration order into global ids in place and
    /// gathers the original element ids the kernels read; the CSR
    /// arrays themselves are adopted, not copied. `local_ind` is this
    /// processor's indirection, indexed by local iteration. In debug
    /// builds every node is checked against the flat verifier.
    pub(super) fn build<K: EdgeKernel>(
        fi: FlatInspection,
        local_ind: &[&[u32]],
        local_iters: &[u32],
        spec_elems: usize,
        total_iterations: usize,
        kernel: &K,
    ) -> NodePlanData {
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
