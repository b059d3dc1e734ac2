//! Incremental LightInspector for adaptive irregular reductions.
//!
//! The paper's motivation for avoiding partitioning is *adaptive*
//! problems, where indirection arrays change every few time steps and
//! re-running heavyweight preprocessing is prohibitive; its stated future
//! work is "an incremental version of the LIGHTINSPECTOR". This module
//! implements it: after a full [`inspect`](crate::inspect) once, each
//! changed iteration is re-planned in `O(m)` amortized time — removed
//! from its old phase, its buffer slots recycled through a free list, and
//! re-inserted per the standard assignment rule.
//!
//! The resulting plan is structurally valid at every point (checkable
//! with [`verify_plan`](crate::verify_plan)) and covers exactly the same
//! iterations as a from-scratch inspection of the updated indirection
//! arrays; only the order of iterations within phases may differ, which
//! is irrelevant to a reduction.
//!
//! It edits the nested [`InspectorPlan`] (the full inspection's
//! [`to_plan`](crate::FlatInspection::to_plan)), the one place that form
//! is still used.

use std::collections::HashMap;

use crate::geometry::PhaseGeometry;
use crate::inspector::{inspect, InspectorInput};
use crate::plan::{CopyOp, InspectorPlan};

/// A LightInspector plan that can be updated in place as the application
/// rewrites indirection entries.
#[derive(Debug, Clone)]
pub struct IncrementalInspector {
    plan: InspectorPlan,
    /// Current indirection arrays, `m × num_iters`.
    indirection: Vec<Vec<u32>>,
    /// Position of each iteration inside its phase's `iters` list.
    iter_pos: Vec<u32>,
    /// For each buffer slot (indexed by `slot - num_elements`): the
    /// (phase, index) of its copy op, `None` when the slot is free.
    copy_pos: Vec<Option<(u32, u32)>>,
    /// Recycled buffer slots.
    free_slots: Vec<u32>,
    /// Number of single-iteration updates applied since construction.
    updates_applied: u64,
}

impl IncrementalInspector {
    /// Run a full inspection and index it for incremental updates,
    /// propagating inspection errors (out-of-range elements, degenerate
    /// geometry) instead of panicking.
    pub fn try_new(
        geometry: PhaseGeometry,
        proc_id: usize,
        indirection: Vec<Vec<u32>>,
    ) -> Result<Self, crate::InspectError> {
        let refs: Vec<&[u32]> = indirection.iter().map(|v| v.as_slice()).collect();
        let plan = inspect(InspectorInput {
            geometry,
            proc_id,
            indirection: &refs,
        })?
        .to_plan();
        Ok(Self::index(plan, indirection))
    }

    /// Run a full inspection and index it for incremental updates.
    /// Panics on invalid input; see [`Self::try_new`] for the fallible
    /// form.
    pub fn new(geometry: PhaseGeometry, proc_id: usize, indirection: Vec<Vec<u32>>) -> Self {
        Self::try_new(geometry, proc_id, indirection)
            .expect("IncrementalInspector::new: invalid inspector input")
    }

    /// Index a freshly inspected plan for O(m) incremental updates.
    fn index(plan: InspectorPlan, indirection: Vec<Vec<u32>>) -> Self {
        let geometry = plan.geometry;
        let mut iter_pos = vec![0u32; plan.iter_phase.len()];
        for ph in &plan.phases {
            for (pos, &it) in ph.iters.iter().enumerate() {
                iter_pos[it as usize] = pos as u32;
            }
        }
        let n = geometry.num_elements() as u32;
        let mut copy_pos = vec![None; plan.buffer_len];
        for (p, ph) in plan.phases.iter().enumerate() {
            for (ci, c) in ph.copies.iter().enumerate() {
                copy_pos[(c.src - n) as usize] = Some((p as u32, ci as u32));
            }
        }
        IncrementalInspector {
            plan,
            indirection,
            iter_pos,
            copy_pos,
            free_slots: Vec::new(),
            updates_applied: 0,
        }
    }

    /// The current (always valid) plan.
    pub fn plan(&self) -> &InspectorPlan {
        &self.plan
    }

    /// The current indirection arrays the plan reflects.
    pub fn indirection(&self) -> &[Vec<u32>] {
        &self.indirection
    }

    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Re-route local iteration `iter` to new reduction targets
    /// (`new_refs.len()` must equal the number of references `m`).
    pub fn update(&mut self, iter: usize, new_refs: &[u32]) {
        let m = self.indirection.len();
        assert_eq!(new_refs.len(), m, "wrong arity");
        self.remove(iter);
        for (r, &e) in new_refs.iter().enumerate() {
            self.indirection[r][iter] = e;
        }
        self.insert(iter);
        self.updates_applied += 1;
    }

    /// Apply a batch of updates `(iter, new_refs)`.
    pub fn update_batch(&mut self, updates: &[(usize, Vec<u32>)]) {
        for (iter, refs) in updates {
            self.update(*iter, refs);
        }
    }

    fn remove(&mut self, iter: usize) {
        let p = self.plan.iter_phase[iter] as usize;
        let pos = self.iter_pos[iter] as usize;
        let n = self.plan.geometry.num_elements() as u32;
        // Free buffer slots and their copy ops.
        for r in 0..self.indirection.len() {
            let target = self.plan.phases[p].refs[r][pos];
            if target >= n {
                self.free_slots.push(target);
                let (cp, ci) = self.copy_pos[(target - n) as usize]
                    .take()
                    .expect("slot has a copy");
                let copies = &mut self.plan.phases[cp as usize].copies;
                copies.swap_remove(ci as usize);
                if (ci as usize) < copies.len() {
                    // Re-index the copy op that moved into the hole.
                    let moved = copies[ci as usize];
                    self.copy_pos[(moved.src - n) as usize] = Some((cp, ci));
                }
            }
        }
        // Remove the iteration (swap-remove keeps phases compact).
        let ph = &mut self.plan.phases[p];
        ph.iters.swap_remove(pos);
        for refs_r in ph.refs.iter_mut() {
            refs_r.swap_remove(pos);
        }
        if pos < ph.iters.len() {
            self.iter_pos[ph.iters[pos] as usize] = pos as u32;
        }
    }

    fn insert(&mut self, iter: usize) {
        let g = self.plan.geometry;
        let m = self.indirection.len();
        let mut min_phase = usize::MAX;
        let mut phases_r = [0usize; 8];
        assert!(m <= 8, "more than 8 references not supported incrementally");
        for (r, ph_slot) in phases_r.iter_mut().enumerate().take(m) {
            let e = self.indirection[r][iter] as usize;
            let ph = g.phase_of_portion_on(self.plan.proc_id, g.portion_of(e));
            *ph_slot = ph;
            min_phase = min_phase.min(ph);
        }
        let n = g.num_elements() as u32;
        let p = min_phase;
        self.plan.iter_phase[iter] = p as u32;
        self.iter_pos[iter] = self.plan.phases[p].iters.len() as u32;
        self.plan.phases[p].iters.push(iter as u32);
        for (r, &ph_r) in phases_r.iter().enumerate().take(m) {
            let e = self.indirection[r][iter];
            if ph_r == p {
                self.plan.phases[p].refs[r].push(e);
            } else {
                let slot = self.free_slots.pop().unwrap_or_else(|| {
                    let s = n + self.plan.buffer_len as u32;
                    self.plan.buffer_len += 1;
                    self.copy_pos.push(None);
                    s
                });
                self.plan.phases[p].refs[r].push(slot);
                let cp = phases_r[r];
                let ci = self.plan.phases[cp].copies.len() as u32;
                self.plan.phases[cp]
                    .copies
                    .push(CopyOp { dest: e, src: slot });
                self.copy_pos[(slot - n) as usize] = Some((cp as u32, ci));
            }
        }
    }
}

/// Compute the minimal slot-update set that turns an old local pair list
/// into a new one, treating the lists as multisets: pairs present in
/// both keep their slots, freed slots are refilled with the new pairs.
///
/// This is the neighbour-list discipline adaptive codes use with a
/// fixed-capacity interaction list: after a rebuild the *positions* of
/// surviving pairs are irrelevant — only genuinely added/removed pairs
/// should reach [`IncrementalInspector::update`]. Lists must have equal
/// length (pad with an inactive sentinel pair, e.g. `(0, 0)`, to keep a
/// fixed capacity).
pub fn diff_pairs(old1: &[u32], old2: &[u32], new_pairs: &[(u32, u32)]) -> Vec<(usize, u32, u32)> {
    assert_eq!(old1.len(), old2.len());
    assert_eq!(old1.len(), new_pairs.len(), "fixed-capacity lists required");
    let mut want: HashMap<(u32, u32), i32> = HashMap::with_capacity(new_pairs.len());
    for &p in new_pairs {
        *want.entry(p).or_insert(0) += 1;
    }
    // Keep slots whose pair is still wanted.
    let mut free_slots: Vec<usize> = Vec::new();
    for (slot, (&a, &b)) in old1.iter().zip(old2).enumerate() {
        match want.get_mut(&(a, b)) {
            Some(c) if *c > 0 => *c -= 1,
            _ => free_slots.push(slot),
        }
    }
    // Fill freed slots with the leftover new pairs.
    let mut out = Vec::with_capacity(free_slots.len());
    let mut free = free_slots.into_iter();
    for (&p, &c) in want.iter() {
        for _ in 0..c {
            let slot = free.next().expect("equal multiset sizes");
            out.push((slot, p.0, p.1));
        }
    }
    debug_assert!(free.next().is_none());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::verify_plan;

    fn mesh(num_iters: usize, n: u32, seed: u64) -> (Vec<u32>, Vec<u32>) {
        // Simple deterministic pseudo-random mesh.
        let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let a: Vec<u32> = (0..num_iters).map(|_| (next() % n as u64) as u32).collect();
        let b: Vec<u32> = (0..num_iters).map(|_| (next() % n as u64) as u32).collect();
        (a, b)
    }

    fn refs_of(inc: &IncrementalInspector) -> Vec<&[u32]> {
        inc.indirection().iter().map(|v| v.as_slice()).collect()
    }

    #[test]
    fn fresh_inspector_is_valid() {
        let g = PhaseGeometry::new(4, 2, 64);
        let (a, b) = mesh(300, 64, 1);
        let inc = IncrementalInspector::new(g, 1, vec![a.clone(), b.clone()]);
        verify_plan(inc.plan(), &[&a, &b]).unwrap();
    }

    #[test]
    fn single_update_stays_valid() {
        let g = PhaseGeometry::new(4, 2, 64);
        let (a, b) = mesh(300, 64, 2);
        let mut inc = IncrementalInspector::new(g, 0, vec![a, b]);
        inc.update(5, &[63, 0]);
        let refs = refs_of(&inc);
        verify_plan(inc.plan(), &refs).unwrap();
        assert_eq!(inc.indirection()[0][5], 63);
        assert_eq!(inc.indirection()[1][5], 0);
        assert_eq!(inc.updates_applied(), 1);
    }

    #[test]
    fn many_updates_match_full_reinspection_coverage() {
        let g = PhaseGeometry::new(4, 2, 64);
        let (a, b) = mesh(500, 64, 3);
        let mut inc = IncrementalInspector::new(g, 2, vec![a, b]);
        // Apply a wave of updates.
        let mut x = 42u64;
        for step in 0..200usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let iter = (x >> 32) as usize % 500;
            let e1 = (x % 64) as u32;
            let e2 = ((x >> 8) % 64) as u32;
            inc.update(iter, &[e1, e2]);
            if step % 50 == 0 {
                let refs = refs_of(&inc);
                verify_plan(inc.plan(), &refs).unwrap();
            }
        }
        let refs = refs_of(&inc);
        verify_plan(inc.plan(), &refs).unwrap();

        // Full re-inspection of the final arrays must agree on the phase
        // of every iteration and the per-phase iteration multiset.
        let full = crate::inspect(InspectorInput {
            geometry: g,
            proc_id: 2,
            indirection: &refs,
        })
        .unwrap()
        .to_plan();
        assert_eq!(full.iter_phase, inc.plan().iter_phase);
        for p in 0..g.num_phases() {
            let mut a: Vec<u32> = inc.plan().phases[p].iters.clone();
            let mut b: Vec<u32> = full.phases[p].iters.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "phase {p}");
        }
    }

    #[test]
    fn buffer_slots_are_recycled() {
        let g = PhaseGeometry::new(2, 2, 8);
        // Iteration 0 = (0, 7): needs a buffer (phases 0 and 3).
        let a = vec![0u32, 2];
        let b = vec![7u32, 3];
        let mut inc = IncrementalInspector::new(g, 0, vec![a, b]);
        let before = inc.plan().buffer_len;
        assert_eq!(before, 1);
        // Re-route it to (0,1): no buffer needed; then to (0,6): buffer again.
        inc.update(0, &[0, 1]);
        inc.update(0, &[0, 6]);
        // Slot was recycled, not grown.
        assert_eq!(inc.plan().buffer_len, 1);
        let refs = refs_of(&inc);
        verify_plan(inc.plan(), &refs).unwrap();
    }

    #[test]
    fn update_batch_applies_all() {
        let g = PhaseGeometry::new(2, 2, 16);
        let (a, b) = mesh(50, 16, 9);
        let mut inc = IncrementalInspector::new(g, 1, vec![a, b]);
        inc.update_batch(&[(0, vec![1, 2]), (1, vec![3, 4]), (2, vec![5, 6])]);
        assert_eq!(inc.updates_applied(), 3);
        assert_eq!(inc.indirection()[0][2], 5);
        let refs = refs_of(&inc);
        verify_plan(inc.plan(), &refs).unwrap();
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn arity_mismatch_panics() {
        let g = PhaseGeometry::new(2, 2, 8);
        let mut inc = IncrementalInspector::new(g, 0, vec![vec![0], vec![1]]);
        inc.update(0, &[1]);
    }

    #[test]
    fn diff_pairs_identical_lists_is_empty() {
        let a = vec![1u32, 2, 3];
        let b = vec![4u32, 5, 6];
        let new: Vec<(u32, u32)> = a.iter().zip(&b).map(|(&x, &y)| (x, y)).collect();
        assert!(diff_pairs(&a, &b, &new).is_empty());
    }

    #[test]
    fn diff_pairs_ignores_permutation() {
        let a = vec![1u32, 2, 3];
        let b = vec![4u32, 5, 6];
        // Same pairs, shuffled order.
        let new = vec![(3u32, 6u32), (1, 4), (2, 5)];
        assert!(diff_pairs(&a, &b, &new).is_empty());
    }

    #[test]
    fn diff_pairs_finds_real_changes() {
        let a = vec![1u32, 2, 3];
        let b = vec![4u32, 5, 6];
        let new = vec![(2u32, 5u32), (9, 9), (1, 4)]; // (3,6) replaced by (9,9)
        let d = diff_pairs(&a, &b, &new);
        assert_eq!(d, vec![(2, 9, 9)]);
    }

    #[test]
    fn diff_pairs_handles_duplicates_as_multiset() {
        let a = vec![1u32, 1, 1];
        let b = vec![2u32, 2, 2];
        let new = vec![(1u32, 2u32), (1, 2), (7, 8)];
        let d = diff_pairs(&a, &b, &new);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].1, d[0].2), (7, 8));
    }

    #[test]
    fn diff_then_update_reproduces_full_inspection() {
        let g = PhaseGeometry::new(4, 2, 64);
        let (a, b) = mesh(200, 64, 5);
        let mut inc = IncrementalInspector::new(g, 1, vec![a.clone(), b.clone()]);
        // New list: a permutation of the old with 10 replaced pairs.
        let mut new: Vec<(u32, u32)> = a.iter().zip(&b).map(|(&x, &y)| (x, y)).collect();
        new.rotate_left(37);
        for (i, p) in new.iter_mut().enumerate().take(10) {
            *p = ((i * 3) as u32 % 64, (i * 7 + 1) as u32 % 64);
        }
        let d = diff_pairs(
            inc.indirection()[0].as_slice(),
            inc.indirection()[1].as_slice(),
            &new,
        );
        assert!(d.len() <= 10 + 3, "diff too large: {}", d.len());
        for (slot, x, y) in d {
            inc.update(slot, &[x, y]);
        }
        let refs: Vec<&[u32]> = inc.indirection().iter().map(|v| v.as_slice()).collect();
        verify_plan(inc.plan(), &refs).unwrap();
        // The plan now covers exactly the new multiset of pairs.
        let mut have: Vec<(u32, u32)> =
            refs[0].iter().zip(refs[1]).map(|(&x, &y)| (x, y)).collect();
        let mut wanted = new.clone();
        have.sort_unstable();
        wanted.sort_unstable();
        assert_eq!(have, wanted);
    }
}
