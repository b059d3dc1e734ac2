//! The one value loop: the chunked first loop and copy loop that every
//! sweep runs — native phases, replayed simulator sweeps, the
//! simulator's measuring sweeps, which charge their accesses with a
//! separate address walk first (`meter_phase` in `crate::phased`), and
//! the sequential sweeps of `SeqEngine`, which run each block of
//! iterations as one phase with no buffer and no copies (and meter with
//! their own address walk, `meter_sweep` in `crate::seq`).
//!
//! A per-iteration loop interleaves *compute* (one kernel call) with
//! *scatter* (2–8 dependent read-modify-writes through indirection) —
//! the store aliasing between the two keeps the compiler from
//! vectorizing either. The chunked loop splits them: contributions for
//! a batch of [`BATCH`] iterations are computed into one buffer via
//! [`EdgeKernel::contrib_batch`] (a branchless batch body the compiler
//! can auto-vectorize), then scattered in the original iteration order.
//! The loop issues no software prefetch: the prefetching loop measured
//! slower on the serve and pic shapes and no faster on moldyn's
//! (EXPERIMENTS.md "The value loop at the host's memory parallelism").
//!
//! Storage is always `(region, split, buffer)`: scatter targets below
//! `split` doubles land in the resident region, targets at or above it
//! in the node's buffer extension. A native run passes the shared
//! region of a zero-copy run; a simulator sweep splits the node's
//! private `x` at `num_elements · num_arrays`; a sequential sweep passes
//! its whole `x` and an empty buffer. A kernel's per-iteration stream
//! arrives the same way from every caller: a row-aligned slice (the
//! node's edge column for a phase, the stream's own block for a
//! sequential sweep), of which each batch gets its contiguous part.
//!
//! ## Float order
//!
//! Every sweep computes its values here, so native, replayed and
//! measuring sweeps agree bit for bit by construction, and a sequential
//! sweep differs from them only in its order. The order is the
//! schedule's, in every arm:
//!
//! * an iteration's slots do not depend on how its batch is cut (the
//!   `contrib_batch` contract, see the trait docs);
//! * the scatter walks iterations in the schedule's order (the
//!   inspector's phase-local order, or original order for a sequential
//!   sweep), references in order, components in order;
//! * the copy loop folds buffer slots into resident elements in copy
//!   order and resets each slot.

use lightinspector::CopyOp;

use crate::kernel::EdgeKernel;

/// Iterations per contribution batch, in every arm. Chosen by an
/// alternating sweep over 16–256 on the serve, `engine-pic` and
/// `engine-moldyn` shapes (EXPERIMENTS.md "The value loop at the host's
/// memory parallelism"): 128 beat 16, 32 and 64 on the serve and pic
/// shapes, and tied 256 there and on moldyn at half its buffer.
pub(crate) const BATCH: usize = 128;

/// Run one phase's first loop and copy loop. Per-element widths
/// `r_arrays` of 1 to 4 take a const-`R` arm of [`chunk`], each with
/// const scatter arms for `m = 1` and `m = 2` references and one
/// run-time-`m` arm; wider elements take the all-run-time arm. `outs`
/// is the caller's contribution buffer, kept between calls so that a
/// phase allocates nothing: each batch resizes it to the slots it uses
/// and zeroes only those (the `contrib_batch` contract), so a call
/// costs its own iterations, not the buffer's capacity. `edge` is the
/// phase's slice of the kernel's stream in row order (`edge[j]` is row
/// `j`'s value) or empty when the kernel declares none; each batch
/// hands the kernel its contiguous sub-slice.
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
    outs: &mut Vec<f64>,
    r_arrays: usize,
    giters: &[u32],
    elems: &[u32],
    edge: &[f64],
    refs: &[u32],
    copies: &[CopyOp],
) {
    macro_rules! arm {
        ($r:literal, $m:literal) => {
            chunk::<K, $r, $m>(
                kernel, read, rp, split, buf, outs, r_arrays, giters, elems, edge, refs, copies,
            )
        };
    }
    macro_rules! by_m {
        ($r:literal) => {
            match kernel.num_refs() {
                1 => arm!($r, 1),
                2 => arm!($r, 2),
                _ => arm!($r, 0),
            }
        };
    }
    match r_arrays {
        1 => by_m!(1),
        2 => by_m!(2),
        3 => by_m!(3),
        4 => by_m!(4),
        _ => arm!(0, 0),
    }
}

/// The chunked loops at per-element width `R` (1..=4, so the component
/// adds unroll) and `M` references per iteration (1 or 2, so the
/// scatter unrolls too). `R = 0` reads the width from `r_arrays`, and
/// `M = 0` reads the reference count from the kernel, at run time.
///
/// # Safety
/// See [`run_phase`].
#[allow(clippy::too_many_arguments)]
unsafe fn chunk<K: EdgeKernel, const R: usize, const M: usize>(
    kernel: &K,
    read: &[f64],
    rp: *mut f64,
    split: usize,
    buf: &mut [f64],
    outs: &mut Vec<f64>,
    r_arrays: usize,
    giters: &[u32],
    elems: &[u32],
    edge: &[f64],
    refs: &[u32],
    copies: &[CopyOp],
) {
    let r_w = if R == 0 { r_arrays } else { R };
    let m = if M == 0 { kernel.num_refs() } else { M };
    let w = m * r_w;
    assert_eq!(giters.len() * m, refs.len());
    assert_eq!(elems.len(), refs.len());
    assert!(edge.is_empty() || edge.len() == giters.len());
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
    let n = giters.len();
    let mut lo = 0usize;
    while lo < n {
        let len = (n - lo).min(BATCH);
        outs.clear();
        outs.resize(len * w, 0.0);
        let e = if edge.is_empty() {
            edge
        } else {
            &edge[lo..lo + len]
        };
        kernel.contrib_batch(
            read,
            &giters[lo..lo + len],
            &elems[lo * m..(lo + len) * m],
            e,
            outs,
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
    for c in copies {
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

#[cfg(test)]
mod tests {
    use super::*;
    use harness::prop::{check, Config, Gen};
    use harness::prop_assert_eq;

    /// Slot `s` of iteration `i` is a table entry plus the read value of
    /// the slot's reference's element, plus (with a stream) `s + 1`
    /// times the iteration's streamed value, *added* into the slot — so
    /// a slot that does not arrive zeroed, or a value from another row,
    /// shows in the result.
    #[derive(Debug)]
    struct TableKernel {
        m: usize,
        r: usize,
        table: Vec<f64>,
        stream: Option<Vec<f64>>,
    }

    impl EdgeKernel for TableKernel {
        fn num_refs(&self) -> usize {
            self.m
        }

        fn num_arrays(&self) -> usize {
            self.r
        }

        fn num_read_arrays(&self) -> usize {
            1
        }

        fn edge(&self) -> Option<&[f64]> {
            self.stream.as_deref()
        }

        fn contrib_batch(
            &self,
            read: &[f64],
            giters: &[u32],
            elems: &[u32],
            edge: &[f64],
            out: &mut [f64],
        ) {
            let w = self.m * self.r;
            for (j, &gi) in giters.iter().enumerate() {
                for s in 0..w {
                    let mut v = self.table[(gi as usize * w + s) % self.table.len()]
                        + read[elems[j * self.m + s / self.r] as usize];
                    if self.stream.is_some() {
                        v += (s + 1) as f64 * edge[j];
                    }
                    out[j * w + s] += v;
                }
            }
        }
    }

    /// One phase: `resident` elements below the split, `buffer` slots
    /// above it (both `r`-wide and pre-filled), and the phase's schedule.
    #[derive(Debug)]
    struct Case {
        kernel: TableKernel,
        read: Vec<f64>,
        resident: Vec<f64>,
        buffer: Vec<f64>,
        giters: Vec<u32>,
        elems: Vec<u32>,
        /// The phase's stream values in row order, or empty.
        edge: Vec<f64>,
        refs: Vec<u32>,
        copies: Vec<CopyOp>,
    }

    /// Mostly small exact values, a quarter arbitrary bit patterns
    /// (NaNs, infinities, subnormals, signed zeros among them).
    fn any_f64(g: &mut Gen) -> f64 {
        if g.prob(0.25) {
            f64::from_bits(g.u64_any())
        } else {
            g.i64_in(-1024..=1024) as f64 / 8.0
        }
    }

    fn case(g: &mut Gen) -> Case {
        // r = 5 takes the all-run-time arm; m = 3 the run-time-m arm.
        let m = *g.pick(&[1usize, 2, 3]);
        let r = *g.pick(&[1usize, 2, 3, 4, 5]);
        let n = *g.pick(&[0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 5]);
        let n_res = g.usize_incl(1, 24);
        let n_slots = g.usize_incl(0, 24);
        let n_read = g.usize_incl(1, 16);
        let table = g.vec(1, 64, any_f64);
        let read = g.vec(n_read, n_read, any_f64);
        let resident = g.vec(n_res * r, n_res * r, any_f64);
        let buffer = g.vec(n_slots * r, n_slots * r, any_f64);
        let giters = g.vec(n, n, |g| g.u32_in(0..1000));
        let stream = g.prob(0.5).then(|| g.vec(1000, 1000, any_f64));
        let edge = match &stream {
            Some(s) => giters.iter().map(|&gi| s[gi as usize]).collect(),
            None => Vec::new(),
        };
        let elems = g.vec(n * m, n * m, |g| g.u32_in(0..n_read as u32));
        let refs = g.vec(n * m, n * m, |g| g.u32_in(0..(n_res + n_slots) as u32));
        let copies = if n_slots == 0 {
            Vec::new()
        } else {
            g.vec(0, 2 * n_slots, |g| CopyOp {
                dest: g.u32_in(0..n_res as u32),
                src: (n_res + g.usize_in(0..n_slots)) as u32,
            })
        };
        Case {
            kernel: TableKernel {
                m,
                r,
                table,
                stream,
            },
            read,
            resident,
            buffer,
            giters,
            elems,
            edge,
            refs,
            copies,
        }
    }

    /// The plain per-iteration first loop and copy loop: one-wide
    /// `contrib` (which slices the kernel's own stream) into a zeroed
    /// group, the group scattered in `(r, a)`
    /// order, then the copies in order. Returns the resident and buffer
    /// values.
    fn reference(c: &Case) -> (Vec<f64>, Vec<f64>) {
        let (k, r) = (&c.kernel, c.kernel.r);
        let (mut res, mut buf) = (c.resident.clone(), c.buffer.clone());
        let split = res.len() / r;
        for (j, &gi) in c.giters.iter().enumerate() {
            let e = &c.elems[j * k.m..(j + 1) * k.m];
            let mut group = vec![0.0; k.m * r];
            k.contrib(&c.read, gi as usize, e, &mut group);
            for (rr, &t) in c.refs[j * k.m..(j + 1) * k.m].iter().enumerate() {
                let t = t as usize;
                for a in 0..r {
                    let v = group[rr * r + a];
                    if t < split {
                        res[t * r + a] += v;
                    } else {
                        buf[(t - split) * r + a] += v;
                    }
                }
            }
        }
        for op in &c.copies {
            let (d, s) = (op.dest as usize * r, (op.src as usize - split) * r);
            for a in 0..r {
                res[d + a] += buf[s + a];
                buf[s + a] = 0.0;
            }
        }
        (res, buf)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `run_phase` ≡ the per-iteration reference, bit for bit, in every
    /// arm: const `R` 1–4 and the run-time width, const `m` 1 and 2 and
    /// the run-time count, with and without a stream column, and phases
    /// of 0, 1, `BATCH ± 1`, `BATCH` and
    /// `3·BATCH + 5` iterations.
    #[test]
    fn run_phase_equals_reference() {
        check(
            "run_phase_equals_reference",
            Config::cases(256),
            case,
            |c| {
                let (want_res, want_buf) = reference(c);
                let (mut res, mut buf) = (c.resident.clone(), c.buffer.clone());
                // A contribution buffer left dirty, as a node's is by its
                // previous phase.
                let mut outs = c.kernel.table.clone();
                // SAFETY: `res` is the whole resident region and owned
                // here; every ref and copy source at or above the split
                // is a slot of `buf` (the generator draws them so).
                unsafe {
                    run_phase(
                        &c.kernel,
                        &c.read,
                        res.as_mut_ptr(),
                        res.len(),
                        &mut buf,
                        &mut outs,
                        c.kernel.r,
                        &c.giters,
                        &c.elems,
                        &c.edge,
                        &c.refs,
                        &c.copies,
                    );
                }
                prop_assert_eq!(bits(&res), bits(&want_res), "resident");
                prop_assert_eq!(bits(&buf), bits(&want_buf), "buffer");
                Ok(())
            },
        );
    }
}
