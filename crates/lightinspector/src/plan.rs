//! Output of the LightInspector and its validity checker.

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

/// Per-phase executor input produced by the inspector.
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

/// Complete local plan for one processor.
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

    /// Per-phase iteration counts — the load-balance signature the paper
    /// analyzes when comparing block and cyclic distributions (§5.4.2).
    pub fn phase_iter_counts(&self) -> Vec<usize> {
        self.phases.iter().map(|p| p.iters.len()).collect()
    }

    /// Flatten the nested per-phase structures into the CSR-style
    /// schedule the executors' fast path streams (see [`FlatPlan`]).
    pub fn flatten(&self) -> FlatPlan {
        let m = self.phases.first().map_or(0, |p| p.refs.len());
        let total_iters = self.total_iters();
        let mut iter_ptr = Vec::with_capacity(self.phases.len() + 1);
        let mut copy_ptr = Vec::with_capacity(self.phases.len() + 1);
        let mut refs = Vec::with_capacity(total_iters * m);
        let mut copies = Vec::with_capacity(self.total_copies());
        iter_ptr.push(0);
        copy_ptr.push(0);
        for ph in &self.phases {
            for j in 0..ph.iters.len() {
                for refs_r in &ph.refs {
                    refs.push(refs_r[j]);
                }
            }
            copies.extend_from_slice(&ph.copies);
            iter_ptr.push(refs.len() as u32 / m.max(1) as u32);
            copy_ptr.push(copies.len() as u32);
        }
        FlatPlan {
            m,
            iter_ptr,
            refs,
            copy_ptr,
            copies,
        }
    }
}

impl InspectorPlan {
    /// Reconstruct the nested per-phase structure from a flat schedule —
    /// the exact inverse of [`InspectorPlan::flatten`]. `iters` is the
    /// phase-concatenated local iteration order (phase `p` occupies
    /// `iter_ptr[p]..iter_ptr[p+1]`), `iter_phase` the per-iteration
    /// phase assignment. Used to adopt compiler-emitted flat plans into
    /// machinery that walks the nested form (metering, incremental
    /// updates).
    pub fn from_flat(
        geometry: PhaseGeometry,
        proc_id: usize,
        buffer_len: usize,
        iters: &[u32],
        iter_phase: Vec<u32>,
        flat: &FlatPlan,
    ) -> InspectorPlan {
        let m = flat.m();
        let kp = flat.num_phases();
        let mut phases = Vec::with_capacity(kp);
        for p in 0..kp {
            let lo = flat.iter_ptr[p] as usize;
            let hi = flat.iter_ptr[p + 1] as usize;
            let prefs = flat.phase_refs(p);
            let refs: Vec<Vec<u32>> = (0..m)
                .map(|r| prefs.iter().skip(r).step_by(m).copied().collect())
                .collect();
            phases.push(PhasePlan {
                iters: iters[lo..hi].to_vec(),
                refs,
                copies: flat.phase_copies(p).to_vec(),
            });
        }
        InspectorPlan {
            geometry,
            proc_id,
            buffer_len,
            phases,
            iter_phase,
        }
    }
}

/// The inspector plan flattened into a CSR-style schedule: one
/// contiguous reference array (iteration-major, `m`-interleaved — the
/// order the executor's scatter consumes them in) and one contiguous
/// copy-op array, each indexed per phase through a pointer array. The
/// executors' unmetered fast path streams these arrays front to back,
/// touching no nested structure and no per-reference columns.
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
    /// Assemble a flat plan from externally produced CSR arrays — the
    /// constructor the compiler's direct lowering path uses (it never
    /// builds the nested [`InspectorPlan`]). Shape invariants are
    /// checked; *semantic* validity against an indirection array is the
    /// job of [`verify_plan`] on the unflattened form.
    pub fn new(
        m: usize,
        iter_ptr: Vec<u32>,
        refs: Vec<u32>,
        copy_ptr: Vec<u32>,
        copies: Vec<CopyOp>,
    ) -> Result<FlatPlan, PlanError> {
        let shape = |what| Err(PlanError::FlatShape { what });
        if iter_ptr.len() < 2 || copy_ptr.len() != iter_ptr.len() {
            return shape("pointer arrays need one entry per phase plus one");
        }
        if iter_ptr[0] != 0 || copy_ptr[0] != 0 {
            return shape("pointer arrays must start at 0");
        }
        if iter_ptr.windows(2).any(|w| w[0] > w[1]) || copy_ptr.windows(2).any(|w| w[0] > w[1]) {
            return shape("pointer arrays must be monotone");
        }
        if refs.len() != *iter_ptr.last().unwrap() as usize * m {
            return shape("refs length must be total iterations times m");
        }
        if copies.len() != *copy_ptr.last().unwrap() as usize {
            return shape("copies length must match the last copy pointer");
        }
        Ok(FlatPlan {
            m,
            iter_ptr,
            refs,
            copy_ptr,
            copies,
        })
    }

    /// References per iteration (`num_refs`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of phases the schedule covers.
    pub fn num_phases(&self) -> usize {
        self.iter_ptr.len() - 1
    }

    /// Phase `p`'s scatter targets, iteration-major `m`-interleaved.
    pub fn phase_refs(&self, p: usize) -> &[u32] {
        let lo = self.iter_ptr[p] as usize * self.m;
        let hi = self.iter_ptr[p + 1] as usize * self.m;
        &self.refs[lo..hi]
    }

    /// Phase `p`'s copy operations.
    pub fn phase_copies(&self, p: usize) -> &[CopyOp] {
        &self.copies[self.copy_ptr[p] as usize..self.copy_ptr[p + 1] as usize]
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

/// Violation found by [`verify_plan`].
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
    /// A remapped reference disagrees with the original indirection array.
    WrongTarget { iter: u32, r: usize },
    /// Phase count does not match the geometry.
    PhaseCount { got: usize, want: usize },
    /// A [`FlatPlan`] handed to [`FlatPlan::new`] has inconsistent CSR
    /// arrays.
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

/// Check every structural invariant of a plan against the original
/// indirection arrays. Used by unit tests, property tests, (in debug
/// builds) the executors, and — in every build — the adoption of
/// externally produced plans, where it is the safety net between a
/// compiler bug and silent corruption. Never panics on a malformed
/// plan: every index a plan supplies is range-checked before use.
///
/// Invariants:
/// 1. every local iteration appears in exactly one phase;
/// 2. every resident reference targets an element owned in that phase,
///    and equals the original indirection entry;
/// 3. every buffered reference targets a distinct buffer slot inside
///    the declared extension, the slot is copied exactly once, in a
///    strictly later phase, into the original indirection entry, which
///    is resident in the copy's phase.
pub fn verify_plan(plan: &InspectorPlan, indirection: &[&[u32]]) -> Result<(), PlanError> {
    let g = &plan.geometry;
    let n = g.num_elements() as u32;
    let kp = g.num_phases();
    if plan.phases.len() != kp {
        return Err(PlanError::PhaseCount {
            got: plan.phases.len(),
            want: kp,
        });
    }
    let num_iters = indirection.first().map_or(0, |a| a.len());

    // 1. coverage (a byte per iteration: "more than once" saturates)
    let mut seen = vec![0u8; num_iters];
    for ph in &plan.phases {
        for &it in &ph.iters {
            match seen.get_mut(it as usize) {
                Some(times) => *times = times.saturating_add(1),
                None => return Err(PlanError::IterationCoverage { iter: it, times: 0 }),
            }
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
    let mut slots = vec![(UNWRITTEN, 0u32, 0u32); plan.buffer_len];

    // 2. references
    for (p, ph) in plan.phases.iter().enumerate() {
        let owned = g.portion_owned_by(plan.proc_id, p);
        let range = g.portion_range(owned);
        for (j, &it) in ph.iters.iter().enumerate() {
            for (r, refs_r) in ph.refs.iter().enumerate() {
                let target = refs_r[j];
                let orig = indirection[r][it as usize];
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
                                buffer_len: plan.buffer_len,
                            })
                        }
                    }
                }
            }
        }
    }

    // 3. copies
    for (p, ph) in plan.phases.iter().enumerate() {
        let owned = g.portion_owned_by(plan.proc_id, p);
        let range = g.portion_range(owned);
        for c in &ph.copies {
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
                return Err(PlanError::WrongTarget {
                    iter: 0,
                    r: usize::MAX,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_interleaves_refs_and_concatenates_copies() {
        let geometry = PhaseGeometry::try_new(2, 1, 8).unwrap();
        let plan = InspectorPlan {
            geometry,
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
        };
        let flat = plan.flatten();
        // refs[r][j] becomes refs[j*m + r]: iteration-major.
        assert_eq!(flat.phase_refs(0), &[0, 8, 1, 9]);
        assert_eq!(flat.phase_refs(1), &[4, 5]);
        assert!(flat.phase_copies(0).is_empty());
        assert_eq!(flat.phase_copies(1), &plan.phases[1].copies[..]);

        // Unflatten is the exact inverse.
        let iters: Vec<u32> = plan.phases.iter().flat_map(|p| p.iters.clone()).collect();
        let back = InspectorPlan::from_flat(
            plan.geometry,
            plan.proc_id,
            plan.buffer_len,
            &iters,
            plan.iter_phase.clone(),
            &flat,
        );
        assert_eq!(back, plan);
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
