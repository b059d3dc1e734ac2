//! Output of the LightInspector and its validity checker.
//!
//! The inspector emits one form, [`FlatInspection`]: the CSR schedule
//! the executors stream. The nested [`InspectorPlan`] is the incremental
//! inspector's editable state and nothing else. One checker,
//! [`verify_flat`], validates both ([`verify_plan`] converts first).

use crate::geometry::PhaseGeometry;

/// One `X[dest] += X[src]; X[src] = 0` operation of a phase's second
/// loop: fold a buffered contribution into the now-resident portion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyOp {
    /// Global element index, owned by this processor during the copy's
    /// phase.
    pub dest: u32,
    /// Buffer index: `>= num_elements`, into the buffer extension.
    pub src: u32,
}

/// One phase of an [`InspectorPlan`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhasePlan {
    /// Local iteration indices executed in this phase (the first loop).
    pub iters: Vec<u32>,
    /// `refs[r][j]` is where the `r`-th reduction reference of iteration
    /// `iters[j]` goes: either a global element index (`< num_elements`,
    /// resident this phase) or a buffer index (`>= num_elements`).
    pub refs: Vec<Vec<u32>>,
    /// The second loop: contributions buffered by earlier phases for
    /// elements that become resident now.
    pub copies: Vec<CopyOp>,
}

/// The nested per-phase form of one processor's plan. The inspector
/// emits [`FlatInspection`]; this form exists only as the incremental
/// inspector's editable state ([`crate::IncrementalInspector`]), and
/// converts exactly both ways ([`FlatInspection::to_plan`],
/// [`InspectorPlan::to_flat`]).
#[derive(Debug, Clone, PartialEq)]
pub struct InspectorPlan {
    pub geometry: PhaseGeometry,
    pub proc_id: usize,
    /// Number of buffer slots appended to the reduction array; the
    /// executor allocates `num_elements + buffer_len` elements.
    pub buffer_len: usize,
    /// One plan per phase, `k·P` of them.
    pub phases: Vec<PhasePlan>,
    /// Phase each local iteration was assigned to (indexed by local
    /// iteration number) — consumed by the incremental inspector.
    pub iter_phase: Vec<u32>,
}

impl InspectorPlan {
    /// Total iterations across all phases.
    pub fn total_iters(&self) -> usize {
        self.phases.iter().map(|p| p.iters.len()).sum()
    }

    /// Total buffered contributions (= total copy operations).
    pub fn total_copies(&self) -> usize {
        self.phases.iter().map(|p| p.copies.len()).sum()
    }

    /// The flat (CSR) form of this plan, in one pass: the exact inverse
    /// of [`FlatInspection::to_plan`]. The plan must be well formed (one
    /// reference column per reference, each as long as its phase's
    /// iteration list), as the inspectors build it; [`verify_plan`]
    /// checks that before converting.
    pub fn to_flat(&self) -> FlatInspection {
        let m = self.phases.first().map_or(0, |p| p.refs.len());
        let total = self.total_iters();
        let mut iters = Vec::with_capacity(total);
        let mut refs = Vec::with_capacity(total * m);
        let mut copies = Vec::with_capacity(self.total_copies());
        let mut iter_ptr = Vec::with_capacity(self.phases.len() + 1);
        let mut copy_ptr = Vec::with_capacity(self.phases.len() + 1);
        iter_ptr.push(0);
        copy_ptr.push(0);
        for ph in &self.phases {
            for (j, &it) in ph.iters.iter().enumerate() {
                iters.push(it);
                refs.extend(ph.refs.iter().map(|col| col[j]));
            }
            copies.extend_from_slice(&ph.copies);
            iter_ptr.push(iters.len() as u32);
            copy_ptr.push(copies.len() as u32);
        }
        FlatInspection {
            geometry: self.geometry,
            proc_id: self.proc_id,
            buffer_len: self.buffer_len,
            iters,
            flat: FlatPlan {
                m,
                iter_ptr,
                refs,
                copy_ptr,
                copies,
            },
        }
    }
}

/// The inspector plan as a CSR-style schedule: one contiguous reference
/// array (iteration-major, `m`-interleaved — the order the executor's
/// scatter consumes them in) and one contiguous copy-op array, each
/// indexed per phase through a pointer array. The executors stream
/// these arrays front to back, touching no nested structure and no
/// per-reference columns.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPlan {
    /// References per iteration (`num_refs`).
    m: usize,
    /// `iter_ptr[p]..iter_ptr[p+1]` are phase `p`'s iterations (indices
    /// into the phase-concatenated iteration order, matching the
    /// executors' `giters` / `elems` flattening).
    pub iter_ptr: Vec<u32>,
    /// `refs[j*m + r]` is where the `r`-th reference of concatenated
    /// iteration `j` goes (element or buffer-extension index).
    pub refs: Vec<u32>,
    /// `copy_ptr[p]..copy_ptr[p+1]` are phase `p`'s copy ops.
    pub copy_ptr: Vec<u32>,
    /// All copy operations, concatenated in phase order.
    pub copies: Vec<CopyOp>,
}

impl FlatPlan {
    /// Assemble a flat plan from externally produced CSR arrays. Shape
    /// invariants are checked; *semantic* validity against an
    /// indirection array is the job of [`verify_flat`].
    pub fn new(
        m: usize,
        iter_ptr: Vec<u32>,
        refs: Vec<u32>,
        copy_ptr: Vec<u32>,
        copies: Vec<CopyOp>,
    ) -> Result<FlatPlan, PlanError> {
        let plan = FlatPlan {
            m,
            iter_ptr,
            refs,
            copy_ptr,
            copies,
        };
        plan.check_shape()?;
        Ok(plan)
    }

    /// The CSR shape invariants. The arrays are public fields, so
    /// [`verify_flat`] re-runs this before indexing anything.
    fn check_shape(&self) -> Result<(), PlanError> {
        let shape = |what| Err(PlanError::FlatShape { what });
        let (ip, cp) = (&self.iter_ptr, &self.copy_ptr);
        if ip.len() < 2 || cp.len() != ip.len() {
            return shape("pointer arrays need one entry per phase plus one");
        }
        if ip[0] != 0 || cp[0] != 0 {
            return shape("pointer arrays must start at 0");
        }
        if ip.windows(2).any(|w| w[0] > w[1]) || cp.windows(2).any(|w| w[0] > w[1]) {
            return shape("pointer arrays must be monotone");
        }
        if self.refs.len() != *ip.last().unwrap() as usize * self.m {
            return shape("refs length must be total iterations times m");
        }
        if self.copies.len() != *cp.last().unwrap() as usize {
            return shape("copies length must match the last copy pointer");
        }
        Ok(())
    }

    /// References per iteration (`num_refs`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of phases the schedule covers.
    pub fn num_phases(&self) -> usize {
        self.iter_ptr.len() - 1
    }

    /// Rows `iter_ptr[p]..iter_ptr[p+1]` of phase `p`.
    pub fn phase_rows(&self, p: usize) -> std::ops::Range<usize> {
        self.iter_ptr[p] as usize..self.iter_ptr[p + 1] as usize
    }

    /// Phase `p`'s scatter targets, iteration-major `m`-interleaved.
    pub fn phase_refs(&self, p: usize) -> &[u32] {
        let rows = self.phase_rows(p);
        &self.refs[rows.start * self.m..rows.end * self.m]
    }

    /// Phase `p`'s copy operations.
    pub fn phase_copies(&self, p: usize) -> &[CopyOp] {
        &self.copies[self.copy_ptr[p] as usize..self.copy_ptr[p + 1] as usize]
    }
}

/// One processor's complete inspection, the inspector's only output:
/// the [`FlatPlan`] the executors stream plus the iteration order and
/// buffer size that go with it. Built by [`crate::inspect`] with no
/// nested intermediate; the compiler's direct lowering path hands the
/// same form to the phased executor.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatInspection {
    pub geometry: PhaseGeometry,
    pub proc_id: usize,
    /// Buffer slots appended to the reduction array.
    pub buffer_len: usize,
    /// Local iteration ids in phase-concatenated order (phase `p`
    /// occupies `flat.iter_ptr[p]..flat.iter_ptr[p+1]`) — the executors'
    /// `giters` flattening.
    pub iters: Vec<u32>,
    pub flat: FlatPlan,
}

impl FlatInspection {
    /// Phase `p`'s local iteration ids, in schedule order.
    pub fn phase_iters(&self, p: usize) -> &[u32] {
        &self.iters[self.flat.phase_rows(p)]
    }

    /// The nested form the incremental inspector edits: the exact
    /// inverse of [`InspectorPlan::to_flat`], with each iteration's
    /// phase read off the schedule.
    pub fn to_plan(&self) -> InspectorPlan {
        let m = self.flat.m();
        let mut iter_phase = vec![0u32; self.iters.len()];
        let phases = (0..self.flat.num_phases())
            .map(|p| {
                let iters = self.phase_iters(p).to_vec();
                for &it in &iters {
                    iter_phase[it as usize] = p as u32;
                }
                let prefs = self.flat.phase_refs(p);
                PhasePlan {
                    iters,
                    refs: (0..m)
                        .map(|r| prefs.iter().skip(r).step_by(m).copied().collect())
                        .collect(),
                    copies: self.flat.phase_copies(p).to_vec(),
                }
            })
            .collect();
        InspectorPlan {
            geometry: self.geometry,
            proc_id: self.proc_id,
            buffer_len: self.buffer_len,
            phases,
            iter_phase,
        }
    }
}

/// Plan for the single-indirection-reference case (`mvm`): iterations are
/// only grouped by phase; no buffers and no second loop are needed
/// because every update is made while its element is resident (§3).
#[derive(Debug, Clone, PartialEq)]
pub struct SingleRefPlan {
    pub geometry: PhaseGeometry,
    pub proc_id: usize,
    /// `phases[p]` = local iterations executed during phase `p`.
    pub phases: Vec<Vec<u32>>,
}

impl SingleRefPlan {
    pub fn total_iters(&self) -> usize {
        self.phases.iter().map(|p| p.len()).sum()
    }

    pub fn phase_iter_counts(&self) -> Vec<usize> {
        self.phases.iter().map(|p| p.len()).collect()
    }
}

/// Violation found by [`verify_flat`] / [`verify_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An iteration appears in no phase or more than one phase.
    IterationCoverage { iter: u32, times: usize },
    /// A resident reference points at an element not owned that phase.
    NotResident { phase: usize, elem: u32 },
    /// A buffer slot is written by more than one (phase, iter, ref).
    BufferAliased { slot: u32 },
    /// A buffered reference targets a slot past the declared extension.
    SlotOutOfRange { slot: u32, buffer_len: usize },
    /// A buffer slot is copied zero or multiple times.
    CopyCount { slot: u32, times: usize },
    /// A copy's destination is not resident in its phase.
    CopyDestNotResident { phase: usize, dest: u32 },
    /// A copy runs at or before the phase that wrote the buffer.
    CopyBeforeWrite { slot: u32 },
    /// A copy folds buffer slot `slot` into `dest`, which is not the
    /// element the reference that wrote the slot names.
    CopyWrongDest { slot: u32, dest: u32 },
    /// A remapped reference disagrees with the original indirection array.
    WrongTarget { iter: u32, r: usize },
    /// Phase count does not match the geometry.
    PhaseCount { got: usize, want: usize },
    /// The plan's arrays are inconsistent with each other or with the
    /// indirection they are checked against.
    FlatShape { what: &'static str },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::IterationCoverage { iter, times } => write!(
                f,
                "iteration {iter} appears in {times} phases (must be exactly 1)"
            ),
            PlanError::NotResident { phase, elem } => write!(
                f,
                "resident reference to element {elem} not owned in phase {phase}"
            ),
            PlanError::BufferAliased { slot } => {
                write!(f, "buffer slot {slot} written by more than one reference")
            }
            PlanError::SlotOutOfRange { slot, buffer_len } => write!(
                f,
                "buffer slot {slot} lies past the {buffer_len}-slot buffer extension"
            ),
            PlanError::CopyCount { slot, times } => write!(
                f,
                "buffer slot {slot} copied {times} times (must be exactly 1)"
            ),
            PlanError::CopyDestNotResident { phase, dest } => write!(
                f,
                "copy destination element {dest} not resident in phase {phase}"
            ),
            PlanError::CopyBeforeWrite { slot } => write!(
                f,
                "buffer slot {slot} copied at or before the phase that writes it"
            ),
            PlanError::CopyWrongDest { slot, dest } => write!(
                f,
                "buffer slot {slot} is folded into element {dest}, not the element its reference names"
            ),
            PlanError::WrongTarget { iter, r } => write!(
                f,
                "remapped reference {r} of iteration {iter} disagrees with the indirection array"
            ),
            PlanError::PhaseCount { got, want } => {
                write!(f, "plan has {got} phases, geometry requires {want}")
            }
            PlanError::FlatShape { what } => {
                write!(f, "malformed flat plan: {what}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Check every structural invariant of a flat inspection against the
/// original (local) indirection arrays. Used by unit and property tests,
/// in debug builds by the executor on every node it freezes, and — in
/// every build — by the adoption of externally produced plans, where it
/// is the safety net between a compiler bug and silent corruption.
/// Never panics on a malformed plan: the CSR shape is re-checked and
/// every index a plan supplies is range-checked before use.
///
/// Invariants:
/// 1. every local iteration appears in exactly one phase;
/// 2. every resident reference targets an element owned in that phase,
///    and equals the original indirection entry;
/// 3. every buffered reference targets a distinct buffer slot inside
///    the declared extension, the slot is copied exactly once, in a
///    strictly later phase, into the original indirection entry, which
///    is resident in the copy's phase.
pub fn verify_flat(fi: &FlatInspection, indirection: &[&[u32]]) -> Result<(), PlanError> {
    let (g, flat) = (&fi.geometry, &fi.flat);
    flat.check_shape()?;
    let kp = g.num_phases();
    if flat.num_phases() != kp {
        return Err(PlanError::PhaseCount {
            got: flat.num_phases(),
            want: kp,
        });
    }
    let shape = |what| Err(PlanError::FlatShape { what });
    let m = flat.m();
    if indirection.len() != m {
        return shape("reference count must match the indirection arity");
    }
    let num_iters = indirection.first().map_or(0, |a| a.len());
    if indirection.iter().any(|a| a.len() != num_iters) {
        return shape("indirection arrays must have equal lengths");
    }
    if fi.iters.len() != flat.phase_rows(kp - 1).end {
        return shape("iters length must match the iteration pointer total");
    }
    // Every live slot is written by a distinct reference, so a larger
    // extension is malformed (and would size the table below).
    if fi.buffer_len > flat.refs.len() {
        return shape("buffer extension larger than the reference count");
    }

    // 1. coverage (a byte per iteration: "more than once" saturates)
    let mut seen = vec![0u8; num_iters];
    for &it in &fi.iters {
        match seen.get_mut(it as usize) {
            Some(times) => *times = times.saturating_add(1),
            None => return Err(PlanError::IterationCoverage { iter: it, times: 0 }),
        }
    }
    if let Some(it) = seen.iter().position(|&times| times != 1) {
        return Err(PlanError::IterationCoverage {
            iter: it as u32,
            times: usize::from(seen[it]),
        });
    }

    // Buffer slot (minus `n`) -> (write phase, original element, times
    // copied). Slots are dense in `n..n + buffer_len`, so a table
    // replaces a hash map; `UNWRITTEN` marks a slot no reference uses
    // (legal: incremental updates leave recycled holes).
    const UNWRITTEN: u32 = u32::MAX;
    let n = g.num_elements() as u32;
    let mut slots = vec![(UNWRITTEN, 0u32, 0u32); fi.buffer_len];

    // 2. references
    for p in 0..kp {
        let range = g.portion_range(g.portion_owned_by(fi.proc_id, p));
        for j in flat.phase_rows(p) {
            let it = fi.iters[j];
            for (r, ind) in indirection.iter().enumerate() {
                let target = flat.refs[j * m + r];
                let orig = ind[it as usize];
                if target < n {
                    if target != orig {
                        return Err(PlanError::WrongTarget { iter: it, r });
                    }
                    if !range.contains(&(target as usize)) {
                        return Err(PlanError::NotResident {
                            phase: p,
                            elem: target,
                        });
                    }
                } else {
                    match slots.get_mut((target - n) as usize) {
                        Some(slot) if slot.0 == UNWRITTEN => *slot = (p as u32, orig, 0),
                        Some(_) => return Err(PlanError::BufferAliased { slot: target }),
                        None => {
                            return Err(PlanError::SlotOutOfRange {
                                slot: target,
                                buffer_len: fi.buffer_len,
                            })
                        }
                    }
                }
            }
        }
    }

    // 3. copies
    for p in 0..kp {
        let range = g.portion_range(g.portion_owned_by(fi.proc_id, p));
        for c in flat.phase_copies(p) {
            if !range.contains(&(c.dest as usize)) {
                return Err(PlanError::CopyDestNotResident {
                    phase: p,
                    dest: c.dest,
                });
            }
            let written = c
                .src
                .checked_sub(n)
                .and_then(|s| slots.get_mut(s as usize))
                .filter(|slot| slot.0 != UNWRITTEN);
            let Some((wp, orig, times)) = written else {
                return Err(PlanError::CopyCount {
                    slot: c.src,
                    times: 0,
                });
            };
            *times += 1;
            if *wp as usize >= p {
                return Err(PlanError::CopyBeforeWrite { slot: c.src });
            }
            if *orig != c.dest {
                return Err(PlanError::CopyWrongDest {
                    slot: c.src,
                    dest: c.dest,
                });
            }
        }
    }
    for (s, &(wp, _, times)) in slots.iter().enumerate() {
        if wp != UNWRITTEN && times != 1 {
            return Err(PlanError::CopyCount {
                slot: n + s as u32,
                times: times as usize,
            });
        }
    }
    Ok(())
}

/// [`verify_flat`] for the nested form: checks that every phase has one
/// reference column per indirection array, as long as its iteration
/// list, then verifies [`InspectorPlan::to_flat`].
pub fn verify_plan(plan: &InspectorPlan, indirection: &[&[u32]]) -> Result<(), PlanError> {
    let want = plan.geometry.num_phases();
    if plan.phases.len() != want {
        return Err(PlanError::PhaseCount {
            got: plan.phases.len(),
            want,
        });
    }
    let ragged = |ph: &PhasePlan| {
        ph.refs.len() != indirection.len() || ph.refs.iter().any(|c| c.len() != ph.iters.len())
    };
    if plan.phases.iter().any(ragged) {
        return Err(PlanError::FlatShape {
            what: "every phase needs one reference column per indirection array",
        });
    }
    verify_flat(&plan.to_flat(), indirection)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase_plan() -> InspectorPlan {
        InspectorPlan {
            geometry: PhaseGeometry::try_new(2, 1, 8).unwrap(),
            proc_id: 0,
            buffer_len: 2,
            phases: vec![
                PhasePlan {
                    iters: vec![0, 1],
                    refs: vec![vec![0, 1], vec![8, 9]],
                    copies: vec![],
                },
                PhasePlan {
                    iters: vec![2],
                    refs: vec![vec![4], vec![5]],
                    copies: vec![CopyOp { dest: 4, src: 8 }, CopyOp { dest: 5, src: 9 }],
                },
            ],
            iter_phase: vec![0, 0, 1],
        }
    }

    #[test]
    fn to_flat_interleaves_refs_and_concatenates_copies() {
        let plan = two_phase_plan();
        let fi = plan.to_flat();
        // refs[r][j] becomes refs[j*m + r]: iteration-major.
        assert_eq!(fi.flat.phase_refs(0), &[0, 8, 1, 9]);
        assert_eq!(fi.flat.phase_refs(1), &[4, 5]);
        assert_eq!(fi.phase_iters(0), &[0, 1]);
        assert!(fi.flat.phase_copies(0).is_empty());
        assert_eq!(fi.flat.phase_copies(1), &plan.phases[1].copies[..]);
        // to_plan is the exact inverse, iteration phases included.
        assert_eq!(fi.to_plan(), plan);
    }

    #[test]
    fn verify_plan_rejects_ragged_columns_without_panicking() {
        let mut plan = two_phase_plan();
        plan.phases[1].refs[1].pop();
        let err = verify_plan(&plan, &[&[0, 1, 4], &[5, 5, 5]]).unwrap_err();
        assert!(matches!(err, PlanError::FlatShape { .. }), "{err}");
    }

    #[test]
    fn flat_plan_constructor_validates_shape() {
        let ok = FlatPlan::new(
            2,
            vec![0, 2],
            vec![0, 8, 1, 9],
            vec![0, 1],
            vec![CopyOp { dest: 1, src: 8 }],
        )
        .unwrap();
        assert_eq!(ok.m(), 2);
        assert_eq!(ok.num_phases(), 1);

        // Wrong refs length for the pointer total.
        let err = FlatPlan::new(2, vec![0, 2], vec![0, 8, 1], vec![0, 0], vec![]).unwrap_err();
        assert!(matches!(err, PlanError::FlatShape { .. }));
        // Non-monotone pointers.
        let err = FlatPlan::new(1, vec![0, 2, 1], vec![0, 1], vec![0, 0, 0], vec![]).unwrap_err();
        assert!(matches!(err, PlanError::FlatShape { .. }));
        // Mismatched pointer lengths.
        let err = FlatPlan::new(1, vec![0, 1], vec![0], vec![0], vec![]).unwrap_err();
        assert!(matches!(err, PlanError::FlatShape { .. }));
    }
}
