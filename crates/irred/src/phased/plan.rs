//! The phased program's frozen per-node schedule: the LightInspector's
//! flat plan, the global ids its kernels read, and the addressing the
//! cache model charges; and the gather that puts a node's per-iteration
//! values into the schedule's row order.

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

/// A node's per-iteration values in its schedule's row order, written
/// into `into`'s allocation: row `j` of an inspection whose `iters[j]`
/// is local iteration `li` reads `local[li]`. `local` holds one value
/// per local iteration, or is empty when the kernel declares no stream
/// (so is the result). The same two-step gather as the local
/// indirection and `elems`: a pass in local order builds `local`, then
/// this row gather reads it.
pub(super) fn row_column(iters: &[u32], local: &[f64], mut into: Vec<f64>) -> Vec<f64> {
    into.clear();
    if !local.is_empty() {
        into.extend(iters.iter().map(|&li| local[li as usize]));
    }
    into
}

/// The column of a node whose rows are `giters`, gathered straight from
/// the kernel's stream — what `set_kernel` installs, and what a failed
/// update restores.
pub(super) fn stream_column<K: EdgeKernel>(kernel: &K, giters: &[u32]) -> Vec<f64> {
    kernel.edge().map_or_else(Vec::new, |s| {
        giters.iter().map(|&g| s[g as usize]).collect()
    })
}

/// The local id of each of a node's global iterations. A node's
/// iterations are an arithmetic progression under both distributions
/// (`off + stride · l`: stride 1 under Block, `P` under Cyclic), so a
/// local id is an exact division of the global one: a shift by the
/// stride's power of two and a multiplication by the inverse of its odd
/// part modulo 2³², with no divide instruction in a per-row loop.
struct LocalIds {
    off: u32,
    shift: u32,
    inv: u32,
}

impl LocalIds {
    fn new(local_iters: &[u32]) -> Self {
        let off = local_iters.first().copied().unwrap_or(0);
        let stride = local_iters.get(1).map_or(1, |&next| next - off);
        let shift = stride.trailing_zeros();
        let odd = stride >> shift;
        // Newton's iteration doubles the correct low bits of an inverse
        // of an odd number: `odd` itself is right to 3 bits, so four
        // steps reach 48 ≥ 32.
        let mut inv = odd;
        for _ in 0..4 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(odd.wrapping_mul(inv)));
        }
        LocalIds { off, shift, inv }
    }

    fn of(&self, g: u32) -> usize {
        ((g - self.off) >> self.shift).wrapping_mul(self.inv) as usize
    }
}

impl NodePlanData {
    /// The node's edge column reordered into local order: `out[l]` is
    /// the value of the row whose iteration is `local_iters[l]` — the
    /// scratch an updated node's new rows gather from with
    /// [`row_column`]. Empty when `col` is (no stream).
    pub(super) fn local_values(&self, col: &[f64], local_iters: &[u32]) -> Vec<f64> {
        if col.is_empty() {
            return Vec::new();
        }
        let ids = LocalIds::new(local_iters);
        let mut out = vec![0.0; local_iters.len()];
        for (&g, &v) in self.giters.iter().zip(col) {
            let l = ids.of(g);
            debug_assert_eq!(local_iters[l], g);
            out[l] = v;
        }
        out
    }

    /// The local indirection the node was built from, read back from
    /// its rows: `ind[r][l]` is reference `r` of local iteration `l`
    /// (each row's `elems` are its iteration's references, and the rows
    /// cover every local iteration once). What a failed update restores.
    pub(super) fn local_indirection(&self, local_iters: &[u32]) -> Vec<Vec<u32>> {
        let m = self.flat.m();
        let ids = LocalIds::new(local_iters);
        let mut ind = vec![vec![0u32; local_iters.len()]; m];
        for (&g, refs) in self.giters.iter().zip(self.elems.chunks_exact(m)) {
            let l = ids.of(g);
            for (arr, &e) in ind.iter_mut().zip(refs) {
                arr[l] = e;
            }
        }
        ind
    }
}
