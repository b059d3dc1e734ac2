//! The one value loop: the chunked first loop and copy loop that every
//! phased sweep runs — native phases, replayed simulator sweeps, and
//! the simulator's measuring sweeps, which charge their accesses with a
//! separate address walk first (`meter_phase` in `crate::phased`).
//!
//! A per-iteration loop interleaves *compute* (one
//! `EdgeKernel::contrib` call) with *scatter* (2–8 dependent
//! read-modify-writes through indirection) — the store aliasing between
//! the two keeps the compiler from vectorizing either. The chunked loop
//! splits them: contributions for a batch of iterations are computed
//! into one buffer via [`EdgeKernel::contrib_batch`] (a branchless batch
//! body the compiler can auto-vectorize), then scattered in the original
//! iteration order.
//!
//! Storage is always `(region, split, buffer)`: scatter targets below
//! `split` doubles land in the resident region, targets at or above it
//! in the node's buffer extension. A native run passes the shared
//! region of a zero-copy run; a simulator sweep splits the node's
//! private `x` at `num_elements · num_arrays`.
//!
//! ## Float order
//!
//! Every phased sweep computes its values here, so native, replayed and
//! measuring sweeps agree bit for bit by construction. The order is the
//! plan's:
//!
//! * `contrib_batch` is contractually bit-identical to per-iteration
//!   `contrib` (see the trait docs);
//! * the scatter walks iterations in the inspector's phase-local order,
//!   references in order, components in order;
//! * the copy loop folds buffer slots into resident elements in copy
//!   order and resets each slot.

use lightinspector::CopyOp;

use crate::kernel::EdgeKernel;

/// Iterations per contribution batch of the const-width arms. 16
/// iterations × ≤16 slots keeps the stack buffer at 2 KiB — resident in
/// L1 next to the hot loop.
const CHUNK: usize = 16;

/// Widest per-iteration contribution group (`num_refs * num_arrays`)
/// the const-width arms handle; wider kernels take the dynamic arm.
const MAX_W: usize = 16;

/// Distance (in copy ops) the copy loop prefetches ahead. Far enough to
/// cover an L2 miss, near enough that the lines are still resident when
/// used.
const PREFETCH_AHEAD: usize = 8;

/// Best-effort prefetch of the cache line holding `ptr`. A pure
/// latency hint — no architectural effect, so float results are
/// untouched. `wrapping_add`-derived pointers are fine: the hint never
/// faults and we never dereference them here.
#[inline(always)]
fn prefetch(ptr: *const f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it cannot fault or write.
    unsafe {
        std::arch::x86_64::_mm_prefetch(ptr as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Run one phase's first loop and copy loop: `r_arrays` from 1 to 4
/// with `num_refs · r_arrays <= MAX_W` takes a const-width arm of
/// [`chunk`], anything wider the dynamic-width arm.
///
/// # Safety
/// `rp` must be valid for `split` doubles, and the caller must own (for
/// the duration of the call, exclusively) every resident element that a
/// scatter ref below `split / r_arrays` or a copy destination names —
/// the portion this phase owns under the ring protocol on a shared
/// region. Every other scatter ref and every copy source must be a
/// buffer slot sized into `buf`, which must not overlap the region.
/// Plans built by the inspector (and adopted through `verify_flat`)
/// satisfy the index half of this by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn run_phase<K: EdgeKernel>(
    kernel: &K,
    read: &[f64],
    rp: *mut f64,
    split: usize,
    buf: &mut [f64],
    r_arrays: usize,
    giters: &[u32],
    elems: &[u32],
    refs: &[u32],
    copies: &[CopyOp],
) {
    macro_rules! arm {
        ($r:literal) => {
            chunk::<K, $r>(
                kernel, read, rp, split, buf, r_arrays, giters, elems, refs, copies,
            )
        };
    }
    let narrow = kernel.num_refs() * r_arrays <= MAX_W;
    match r_arrays {
        1 if narrow => arm!(1),
        2 if narrow => arm!(2),
        3 if narrow => arm!(3),
        4 if narrow => arm!(4),
        _ => arm!(0),
    }
}

/// The chunked loops at per-element width `R` (1..=4, so the lane adds
/// unroll). `R = 0` is the dynamic-width arm: the width is `r_arrays`,
/// read at run time, and a batch holds `max(1, CHUNK·MAX_W / w)`
/// iterations, in a heap buffer only when one iteration alone is wider
/// than the stack one.
///
/// # Safety
/// See [`run_phase`].
#[allow(clippy::too_many_arguments)]
unsafe fn chunk<K: EdgeKernel, const R: usize>(
    kernel: &K,
    read: &[f64],
    rp: *mut f64,
    split: usize,
    buf: &mut [f64],
    r_arrays: usize,
    giters: &[u32],
    elems: &[u32],
    refs: &[u32],
    copies: &[CopyOp],
) {
    let r_w = if R == 0 { r_arrays } else { R };
    let m = if giters.is_empty() {
        1
    } else {
        refs.len() / giters.len()
    };
    let w = m * r_w;
    assert!(R == 0 || w <= MAX_W, "guarded by run_phase");
    assert_eq!(giters.len() * m, refs.len());
    assert_eq!(elems.len(), refs.len());
    let per = if R == 0 {
        (CHUNK * MAX_W / w.max(1)).max(1)
    } else {
        CHUNK
    };
    let n_read = kernel.num_read_arrays();
    let bp = buf.as_mut_ptr();
    // Branch-free select of a ref's scatter destination: the resident
    // region below `split`, the buffer extension above it. Both
    // candidate pointers are computed with wrapping arithmetic (never
    // dereferenced when unselected), so the compiler can lower the
    // select to a cmov instead of an unpredictable branch — the
    // region/buffer mix within a phase is data-dependent.
    let target = |base: usize| -> *mut f64 {
        let pr = rp.wrapping_add(base);
        let pb = bp.wrapping_add(base.wrapping_sub(split));
        if base < split {
            pr
        } else {
            pb
        }
    };
    // The contribution buffer: one batch of per-iteration slot groups,
    // zeroed before each batch (the contrib_batch contract).
    let mut stack = [0.0f64; CHUNK * MAX_W];
    let mut heap = Vec::new();
    let outs: &mut [f64] = if per * w <= stack.len() {
        &mut stack
    } else {
        heap.resize(per * w, 0.0);
        &mut heap
    };
    let n = giters.len();
    let mut lo = 0usize;
    while lo < n {
        let len = (n - lo).min(per);
        // Prefetch the *next* batch's gather lines and scatter targets
        // while this batch computes.
        for pj in lo + len..(lo + 2 * len).min(n) {
            for r in 0..m {
                if n_read > 0 {
                    prefetch(
                        read.as_ptr()
                            .wrapping_add(*elems.get_unchecked(pj * m + r) as usize * n_read),
                    );
                }
                prefetch(target(*refs.get_unchecked(pj * m + r) as usize * r_w));
            }
        }
        let batch = &mut outs[..len * w];
        batch.fill(0.0);
        kernel.contrib_batch(
            read,
            &giters[lo..lo + len],
            &elems[lo * m..(lo + len) * m],
            batch,
        );
        // Scatter in original iteration order: j, then r, then the
        // components.
        for j in 0..len {
            for r in 0..m {
                let base = *refs.get_unchecked((lo + j) * m + r) as usize * r_w;
                debug_assert!(base < split || base - split + r_w <= buf.len());
                let p = target(base);
                let s = outs.as_ptr().add(j * w + r * r_w);
                for a in 0..r_w {
                    *p.add(a) += *s.add(a);
                }
            }
        }
        lo += len;
    }
    // The copy loop: fold each buffered contribution into its resident
    // element and reset the slot for the next sweep. Sources are buffer
    // slots and destinations resident elements — always disjoint, so
    // adding all components then zeroing equals a per-component
    // add-and-reset bit for bit.
    for (i, c) in copies.iter().enumerate() {
        if let Some(nc) = copies.get(i + PREFETCH_AHEAD) {
            prefetch(rp.wrapping_add(nc.dest as usize * r_w) as *const f64);
        }
        let sb = c.src as usize * r_w;
        let db = c.dest as usize * r_w;
        debug_assert!(sb >= split && sb - split + r_w <= buf.len());
        debug_assert!(db + r_w <= split);
        let sp = bp.add(sb - split);
        let dp = rp.add(db);
        for a in 0..r_w {
            *dp.add(a) += *sp.add(a);
        }
        for a in 0..r_w {
            *sp.add(a) = 0.0;
        }
    }
}
