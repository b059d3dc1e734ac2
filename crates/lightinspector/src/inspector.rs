//! The LightInspector algorithm (§3 of the paper).
//!
//! Two passes, both linear in the number of local iterations, with no
//! inter-processor communication:
//!
//! 1. **Classify.** For every local iteration, find the phases at which
//!    each referenced reduction element is resident here; the minimum is
//!    the iteration's phase. Count iterations per phase, and per phase
//!    the buffered contributions it will fold.
//! 2. **Place.** The counts' prefix sums are the CSR pointers, so every
//!    iteration is scattered straight into its phase's row range. Each
//!    reference is rewritten either to its global index (resident during
//!    the iteration's phase) or to a freshly allocated buffer slot, and
//!    the slot's second-loop fold `X[e] += X[slot]` is placed in the
//!    phase at which `e`'s portion is resident (strictly later).
//!
//! The algorithm handles any number `m ≥ 1` of distinct indirection
//! references ("trivially extended", §3); the paper's examples use
//! `m = 2` (edges/interactions touching two nodes/molecules).

use crate::geometry::PhaseGeometry;
use crate::plan::{CopyOp, FlatInspection, FlatPlan, SingleRefPlan};

/// Why an inspector input was rejected. Every variant is a caller bug
/// that would previously panic (debug) or silently mis-bucket references
/// through wrapped portion arithmetic (release) — UB-adjacent for the
/// downstream executor, which indexes arrays by the resulting phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InspectError {
    /// Geometry with zero processors.
    NoProcessors,
    /// Geometry with `k = 0`.
    ZeroK,
    /// Geometry over an empty reduction array — every portion would be
    /// zero-length and `portion_of` would divide by zero.
    EmptyElements,
    /// `proc_id` is not a processor of the geometry; ownership arithmetic
    /// would alias another processor's schedule.
    ProcOutOfRange { proc_id: usize, num_procs: usize },
    /// No indirection references at all (`m = 0`).
    NoReferences,
    /// Indirection array `r` has a different length than array 0.
    Ragged {
        r: usize,
        len: usize,
        expected: usize,
    },
    /// `indirection[r][iter]` names an element outside the reduction
    /// array.
    OutOfRange {
        r: usize,
        iter: usize,
        elem: u32,
        num_elements: usize,
    },
}

impl std::fmt::Display for InspectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InspectError::NoProcessors => write!(f, "geometry needs at least one processor"),
            InspectError::ZeroK => write!(f, "overlap parameter k must be at least 1"),
            InspectError::EmptyElements => write!(f, "empty reduction array"),
            InspectError::ProcOutOfRange { proc_id, num_procs } => {
                write!(f, "proc_id {proc_id} out of range for {num_procs} processor(s)")
            }
            InspectError::NoReferences => write!(f, "need at least one indirection reference"),
            InspectError::Ragged { r, len, expected } => write!(
                f,
                "ragged indirection arrays: array {r} has {len} entries, expected {expected}"
            ),
            InspectError::OutOfRange {
                r,
                iter,
                elem,
                num_elements,
            } => write!(
                f,
                "indirection[{r}][{iter}] = {elem} is outside the reduction array (n = {num_elements})"
            ),
        }
    }
}

impl std::error::Error for InspectError {}

/// Input to [`inspect`]: the geometry, this processor's id, and its local
/// slice of the indirection arrays.
#[derive(Debug, Clone, Copy)]
pub struct InspectorInput<'a> {
    pub geometry: PhaseGeometry,
    pub proc_id: usize,
    /// `indirection[r][i]` = global reduction-array element updated by
    /// the `r`-th reference of local iteration `i`. All `m` slices must
    /// have equal length (the local iteration count).
    pub indirection: &'a [&'a [u32]],
}

/// Validate the shared preconditions of [`inspect`] / [`inspect_single`].
fn validate(g: &PhaseGeometry, proc_id: usize, indirection: &[&[u32]]) -> Result<(), InspectError> {
    if proc_id >= g.num_procs() {
        return Err(InspectError::ProcOutOfRange {
            proc_id,
            num_procs: g.num_procs(),
        });
    }
    if indirection.is_empty() {
        return Err(InspectError::NoReferences);
    }
    let num_iters = indirection[0].len();
    for (r, arr) in indirection.iter().enumerate() {
        if arr.len() != num_iters {
            return Err(InspectError::Ragged {
                r,
                len: arr.len(),
                expected: num_iters,
            });
        }
        let n = g.num_elements();
        for (i, &e) in arr.iter().enumerate() {
            if e as usize >= n {
                return Err(InspectError::OutOfRange {
                    r,
                    iter: i,
                    elem: e,
                    num_elements: n,
                });
            }
        }
    }
    Ok(())
}

/// The phase at which element `e` is resident on one processor —
/// `g.phase_of_portion_on(proc, g.portion_of(e))` — without a hardware
/// divide: the portion is `e · ⌈2^64 / portion_size⌉ >> 64`, exact for
/// every 32-bit `e` (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation", 2019), and the ring offset needs one conditional
/// subtract. The inspector evaluates it twice per reference.
struct PhaseOf {
    magic: u128,
    kp: usize,
    offset: usize,
}

impl PhaseOf {
    fn new(g: &PhaseGeometry, proc: usize) -> Self {
        let kp = g.num_phases();
        let d = g.portion_size() as u128;
        PhaseOf {
            magic: (1u128 << 64).div_ceil(d),
            kp,
            offset: kp - (g.k() * proc) % kp,
        }
    }

    #[inline]
    fn phase(&self, e: u32) -> usize {
        let portion = ((self.magic * u128::from(e)) >> 64) as usize;
        let ph = portion + self.offset;
        if ph >= self.kp {
            ph - self.kp
        } else {
            ph
        }
    }
}

/// Pipeline stage ids reported through [`inspect_observed`]'s callback,
/// in completion order. These feed the tracing layer's
/// `InspectorStage` events; the crate itself stays dependency-free.
pub const STAGE_VALIDATE: u32 = 0;
/// Pass 1 done: every iteration classified to its earliest phase.
pub const STAGE_CLASSIFY: u32 = 1;
/// Pass 2 done: iterations placed, references rewritten, buffers sized.
pub const STAGE_PLACE: u32 = 2;

/// Run the LightInspector. Pure function of its inputs; no communication.
///
/// Rejects malformed input (out-of-range indices, ragged arrays, a
/// foreign `proc_id`) with a typed [`InspectError`] instead of panicking
/// or silently mis-bucketing through wrapped modular arithmetic.
///
/// Iterations within a phase appear in ascending local order, buffer
/// slots are numbered in `(iteration, reference)` scan order from
/// `num_elements` up, and each phase's copy list keeps that scan order.
pub fn inspect(input: InspectorInput<'_>) -> Result<FlatInspection, InspectError> {
    inspect_observed(input, &mut |_| {})
}

/// [`inspect`] with a stage-completion callback (`STAGE_VALIDATE`,
/// `STAGE_CLASSIFY`, `STAGE_PLACE`), invoked in that order exactly once
/// each on success. Callers turn these into trace events.
pub fn inspect_observed(
    input: InspectorInput<'_>,
    observe: &mut dyn FnMut(u32),
) -> Result<FlatInspection, InspectError> {
    let g = input.geometry;
    validate(&g, input.proc_id, input.indirection)?;
    observe(STAGE_VALIDATE);
    let m = input.indirection.len();
    let num_iters = input.indirection[0].len();
    let kp = g.num_phases();
    let phase_of = PhaseOf::new(&g, input.proc_id);

    // Pass 1: phase of each iteration + per-phase iteration/copy counts.
    let mut iter_phase = vec![0u32; num_iters];
    let mut phase_counts = vec![0usize; kp];
    let mut copy_counts = vec![0usize; kp];
    let mut scratch = vec![0usize; m];
    for i in 0..num_iters {
        let mut min_phase = usize::MAX;
        for (r, ind) in input.indirection.iter().enumerate() {
            let ph = phase_of.phase(ind[i]);
            scratch[r] = ph;
            min_phase = min_phase.min(ph);
        }
        iter_phase[i] = min_phase as u32;
        phase_counts[min_phase] += 1;
        for &ph in &scratch {
            if ph > min_phase {
                copy_counts[ph] += 1;
            }
        }
    }
    observe(STAGE_CLASSIFY);

    // CSR pointers are exactly the prefix sums of the counts.
    let mut iter_ptr = Vec::with_capacity(kp + 1);
    let mut copy_ptr = Vec::with_capacity(kp + 1);
    iter_ptr.push(0u32);
    copy_ptr.push(0u32);
    for p in 0..kp {
        iter_ptr.push(iter_ptr[p] + phase_counts[p] as u32);
        copy_ptr.push(copy_ptr[p] + copy_counts[p] as u32);
    }

    // Pass 2: place every iteration straight into its phase's CSR range.
    // Scanning iterations in ascending order and bumping a per-phase
    // cursor keeps each phase in ascending local order; the single
    // `next_slot` counter numbers buffer slots in scan order.
    let total_iters: usize = *iter_ptr.last().unwrap() as usize;
    let total_copies: usize = *copy_ptr.last().unwrap() as usize;
    let mut iters = vec![0u32; total_iters];
    let mut refs = vec![0u32; total_iters * m];
    let mut copies = vec![CopyOp { dest: 0, src: 0 }; total_copies];
    let mut iter_cursor: Vec<u32> = iter_ptr[..kp].to_vec();
    let mut copy_cursor: Vec<u32> = copy_ptr[..kp].to_vec();
    let n = g.num_elements() as u32;
    let mut next_slot = n;
    for i in 0..num_iters {
        let p = iter_phase[i] as usize;
        let j = iter_cursor[p] as usize;
        iter_cursor[p] += 1;
        iters[j] = i as u32;
        for (r, ind) in input.indirection.iter().enumerate() {
            let e = ind[i];
            let ph = phase_of.phase(e);
            refs[j * m + r] = if ph == p {
                e
            } else {
                // Owned in a future phase: extend X with a buffer slot and
                // schedule the second-loop fold for phase `ph`.
                let slot = next_slot;
                next_slot += 1;
                let ci = copy_cursor[ph] as usize;
                copy_cursor[ph] += 1;
                copies[ci] = CopyOp { dest: e, src: slot };
                slot
            };
        }
    }
    debug_assert_eq!(iter_cursor, iter_ptr[1..]);
    debug_assert_eq!(copy_cursor, copy_ptr[1..]);
    observe(STAGE_PLACE);

    let flat = FlatPlan::new(m, iter_ptr, refs, copy_ptr, copies)
        .expect("prefix-sum construction satisfies the CSR invariants");
    Ok(FlatInspection {
        geometry: g,
        proc_id: input.proc_id,
        buffer_len: (next_slot - n) as usize,
        iters,
        flat,
    })
}

/// The single-reference fast path (§3): when the reduction array is
/// updated through one distinct indirection reference per iteration,
/// every update can be made while the element is resident — iterations
/// are merely bucketed by phase, with no buffers and no second loop.
///
/// `mvm` uses this shape (the gathered vector rotates; the reduction
/// array `y` is never indirectly accessed).
pub fn inspect_single(
    geometry: PhaseGeometry,
    proc_id: usize,
    indirection: &[u32],
) -> Result<SingleRefPlan, InspectError> {
    validate(&geometry, proc_id, &[indirection])?;
    let phase_of = PhaseOf::new(&geometry, proc_id);
    let mut counts = vec![0usize; geometry.num_phases()];
    for &e in indirection {
        counts[phase_of.phase(e)] += 1;
    }
    let mut phases: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (i, &e) in indirection.iter().enumerate() {
        phases[phase_of.phase(e)].push(i as u32);
    }
    Ok(SingleRefPlan {
        geometry,
        proc_id,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{verify_flat, verify_plan};

    /// The worked example in the spirit of the paper's Figure 3:
    /// 2 processors, k = 2, a mesh of 8 nodes and 20 edges. Processor 0
    /// owns edges 0–9. Portions are 2 nodes each; P0 owns portion p at
    /// phase p.
    fn fig3_p0_input() -> (PhaseGeometry, Vec<u32>, Vec<u32>) {
        let g = PhaseGeometry::new(2, 2, 8);
        // (node1, node2) per local edge of P0.
        let ind1 = vec![0, 2, 4, 6, 1, 3, 5, 7, 0, 5];
        let ind2 = vec![1, 3, 5, 7, 2, 4, 6, 4, 7, 2];
        (g, ind1, ind2)
    }

    fn fig3_p0_plan() -> (FlatInspection, Vec<u32>, Vec<u32>) {
        let (g, ind1, ind2) = fig3_p0_input();
        let plan = inspect(InspectorInput {
            geometry: g,
            proc_id: 0,
            indirection: &[&ind1, &ind2],
        })
        .unwrap();
        (plan, ind1, ind2)
    }

    #[test]
    fn fig3_phase_assignment() {
        let (plan, ind1, ind2) = fig3_p0_plan();
        let iter_phase = plan.to_plan().iter_phase;
        // Edge 0 (0,1): both in portion 0 → phase 0, both resident.
        assert_eq!(iter_phase[0], 0);
        // Edge 4 (1,2): portions 0 and 1 → phase 0, node 2 buffered.
        assert_eq!(iter_phase[4], 0);
        // Edge 7 (7,4): portions 3 and 2 → phase 2 (min), node 7 buffered.
        assert_eq!(iter_phase[7], 2);
        // Edge 3 (6,7): portion 3 → phase 3.
        assert_eq!(iter_phase[3], 3);
        verify_flat(&plan, &[&ind1, &ind2]).unwrap();
    }

    #[test]
    fn fig3_buffer_layout_starts_at_num_nodes() {
        let (plan, _, _) = fig3_p0_plan();
        // Buffer slots are allocated from 8 (= num_nodes) upward, exactly
        // as in the paper ("the remote buffer starts at location 8").
        let min_slot = plan.flat.refs.iter().filter(|&&t| t >= 8).min();
        assert_eq!(min_slot, Some(&8));
        assert!(plan.buffer_len > 0);
    }

    #[test]
    fn fig3_second_loop_folds_buffered_contribs() {
        let (plan, _, _) = fig3_p0_plan();
        // Edge 7 = (7,4): assigned phase 2 (node 4 resident), node 7
        // buffered, folded at phase 3 when portion 3 arrives.
        let copy = plan
            .flat
            .phase_copies(3)
            .iter()
            .find(|c| c.dest == 7)
            .expect("phase 3 folds node 7");
        assert!(copy.src >= 8);
    }

    #[test]
    fn both_residents_update_in_place() {
        let (plan, _, _) = fig3_p0_plan();
        // Edge 0 (0,1): both resident at phase 0 → remapped to themselves.
        let j = plan.phase_iters(0).iter().position(|&i| i == 0).unwrap();
        assert_eq!(plan.flat.phase_refs(0)[2 * j..2 * j + 2], [0, 1]);
    }

    #[test]
    fn processor1_sees_shifted_ownership() {
        let (g, ind1, ind2) = fig3_p0_input();
        // Reuse the same edge list as if it were P1's local edges.
        let plan = inspect(InspectorInput {
            geometry: g,
            proc_id: 1,
            indirection: &[&ind1, &ind2],
        })
        .unwrap();
        verify_flat(&plan, &[&ind1, &ind2]).unwrap();
        // Edge 0 (0,1): portion 0 is owned by P1 at phase 2.
        assert_eq!(plan.to_plan().iter_phase[0], 2);
    }

    #[test]
    fn three_references_supported() {
        // m = 3 (e.g. triangle meshes updating three vertices).
        let g = PhaseGeometry::new(2, 2, 12);
        let a = vec![0, 3, 6, 9, 1];
        let b = vec![3, 6, 9, 0, 4];
        let c = vec![6, 9, 0, 3, 7];
        let plan = inspect(InspectorInput {
            geometry: g,
            proc_id: 0,
            indirection: &[&a, &b, &c],
        })
        .unwrap();
        verify_flat(&plan, &[&a, &b, &c]).unwrap();
        assert_eq!(plan.iters.len(), 5);
        // Each iteration has exactly 3 -1 = 2 buffered refs at most; total
        // copies ≤ 2 per iteration.
        assert!(plan.flat.copies.len() <= 10);
    }

    #[test]
    fn single_ref_plan_partitions_iterations() {
        let g = PhaseGeometry::new(4, 2, 64);
        let ind: Vec<u32> = (0..200).map(|i| (i * 7) as u32 % 64).collect();
        let plan = inspect_single(g, 2, &ind).unwrap();
        assert_eq!(plan.total_iters(), 200);
        // Every iteration's element must be resident in its phase.
        for (p, iters) in plan.phases.iter().enumerate() {
            let owned = g.portion_owned_by(2, p);
            let range = g.portion_range(owned);
            for &i in iters {
                assert!(range.contains(&(ind[i as usize] as usize)));
            }
        }
    }

    #[test]
    fn no_copies_when_all_refs_coincide() {
        // Both endpoints always in the same portion → no buffering at all.
        let g = PhaseGeometry::new(2, 2, 8);
        let a = vec![0, 2, 4, 6];
        let b = vec![1, 3, 5, 7];
        let plan = inspect(InspectorInput {
            geometry: g,
            proc_id: 0,
            indirection: &[&a, &b],
        })
        .unwrap();
        assert_eq!(plan.buffer_len, 0);
        assert!(plan.flat.copies.is_empty());
        verify_flat(&plan, &[&a, &b]).unwrap();
    }

    #[test]
    fn k1_plan_is_valid() {
        let g = PhaseGeometry::new(4, 1, 32);
        let a: Vec<u32> = (0..100).map(|i| (i * 13) as u32 % 32).collect();
        let b: Vec<u32> = (0..100).map(|i| (i * 29 + 5) as u32 % 32).collect();
        let plan = inspect(InspectorInput {
            geometry: g,
            proc_id: 3,
            indirection: &[&a, &b],
        })
        .unwrap();
        verify_flat(&plan, &[&a, &b]).unwrap();
    }

    #[test]
    fn empty_iteration_set() {
        let g = PhaseGeometry::new(2, 2, 8);
        let a: Vec<u32> = vec![];
        let b: Vec<u32> = vec![];
        let plan = inspect(InspectorInput {
            geometry: g,
            proc_id: 0,
            indirection: &[&a, &b],
        })
        .unwrap();
        assert!(plan.iters.is_empty());
        assert_eq!(plan.buffer_len, 0);
        verify_flat(&plan, &[&a, &b]).unwrap();
    }

    #[test]
    fn emission_follows_scan_order_and_round_trips() {
        // The determinism contract of the CSR emission, across geometries
        // and skews: ascending iterations within a phase, buffer slots
        // numbered in (iteration, reference) scan order, copy lists in
        // that same order — and the nested form converts back exactly.
        let mut s = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for &(procs, k, n, iters, m) in &[
            (2usize, 2usize, 8usize, 20usize, 2usize),
            (4, 1, 32, 100, 2),
            (4, 2, 64, 257, 3),
            (3, 3, 17, 55, 1),
            (2, 2, 8, 0, 2),
        ] {
            let g = PhaseGeometry::new(procs, k, n);
            let ind: Vec<Vec<u32>> = (0..m)
                .map(|_| (0..iters).map(|_| (next() % n as u64) as u32).collect())
                .collect();
            let refs: Vec<&[u32]> = ind.iter().map(|v| v.as_slice()).collect();
            for proc in 0..procs {
                let fi = inspect(InspectorInput {
                    geometry: g,
                    proc_id: proc,
                    indirection: &refs,
                })
                .unwrap();
                let at = format!("P{procs} k{k} n{n} proc{proc}");
                verify_flat(&fi, &refs).unwrap();
                let mut row = vec![0usize; iters];
                for p in 0..g.num_phases() {
                    let its = fi.phase_iters(p);
                    assert!(its.windows(2).all(|w| w[0] < w[1]), "{at}");
                    let srcs: Vec<u32> = fi.flat.phase_copies(p).iter().map(|c| c.src).collect();
                    assert!(srcs.windows(2).all(|w| w[0] < w[1]), "{at}");
                    for (j, &it) in fi.flat.phase_rows(p).zip(its) {
                        row[it as usize] = j;
                    }
                }
                let scan: Vec<u32> = (0..iters)
                    .flat_map(|i| fi.flat.refs[row[i] * m..(row[i] + 1) * m].to_vec())
                    .filter(|&t| t >= n as u32)
                    .collect();
                let want: Vec<u32> = (n as u32..(n + fi.buffer_len) as u32).collect();
                assert_eq!(scan, want, "{at}");
                let nested = fi.to_plan();
                verify_plan(&nested, &refs).unwrap();
                assert_eq!(nested.to_flat(), fi, "{at}");
            }
        }
    }

    #[test]
    fn phase_of_matches_the_geometry() {
        let mut shapes = vec![
            (1usize, 1usize, 1usize),
            (3, 2, 7),
            (4, 2, 16_384),
            (32, 2, 10_000),
        ];
        shapes.extend([(2, 3, 1_000_003), (5, 1, u32::MAX as usize)]);
        for (procs, k, n) in shapes {
            let g = PhaseGeometry::new(procs, k, n);
            let step = (n / 5_000).max(1);
            let probe = (0..n).step_by(step).chain([n - 1]);
            for e in probe {
                for proc in 0..procs {
                    let want = g.phase_of_portion_on(proc, g.portion_of(e));
                    assert_eq!(
                        PhaseOf::new(&g, proc).phase(e as u32),
                        want,
                        "P{procs} k{k} n{n} e{e}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_out_of_range_element() {
        let g = PhaseGeometry::new(2, 2, 8);
        let a: Vec<u32> = vec![0, 8, 1];
        let b: Vec<u32> = vec![1, 2, 3];
        let err = inspect(InspectorInput {
            geometry: g,
            proc_id: 0,
            indirection: &[&a, &b],
        })
        .unwrap_err();
        assert_eq!(
            err,
            InspectError::OutOfRange {
                r: 0,
                iter: 1,
                elem: 8,
                num_elements: 8
            }
        );
    }

    #[test]
    fn rejects_ragged_indirection() {
        let g = PhaseGeometry::new(2, 2, 8);
        let a: Vec<u32> = vec![0, 1, 2];
        let b: Vec<u32> = vec![1, 2];
        let err = inspect(InspectorInput {
            geometry: g,
            proc_id: 0,
            indirection: &[&a, &b],
        })
        .unwrap_err();
        assert_eq!(
            err,
            InspectError::Ragged {
                r: 1,
                len: 2,
                expected: 3
            }
        );
    }

    #[test]
    fn rejects_foreign_proc_id() {
        let g = PhaseGeometry::new(2, 2, 8);
        let a: Vec<u32> = vec![0];
        let err = inspect_single(g, 2, &a).unwrap_err();
        assert_eq!(
            err,
            InspectError::ProcOutOfRange {
                proc_id: 2,
                num_procs: 2
            }
        );
    }

    #[test]
    fn rejects_no_references() {
        let g = PhaseGeometry::new(2, 2, 8);
        let err = inspect(InspectorInput {
            geometry: g,
            proc_id: 0,
            indirection: &[],
        })
        .unwrap_err();
        assert_eq!(err, InspectError::NoReferences);
    }

    #[test]
    fn rejects_degenerate_geometry() {
        assert_eq!(
            PhaseGeometry::try_new(0, 2, 8).unwrap_err(),
            InspectError::NoProcessors
        );
        assert_eq!(
            PhaseGeometry::try_new(2, 0, 8).unwrap_err(),
            InspectError::ZeroK
        );
        assert_eq!(
            PhaseGeometry::try_new(2, 2, 0).unwrap_err(),
            InspectError::EmptyElements
        );
        assert!(PhaseGeometry::try_new(2, 2, 8).is_ok());
    }
}
