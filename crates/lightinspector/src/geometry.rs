//! Ownership arithmetic for the rotating-portion execution strategy.
//!
//! The reduction array (length `n`) is divided into `k·P` contiguous
//! portions. Execution proceeds in rounds of `k·P` phases. During phase
//! `p`, processor `q` owns portion `(k·q + p) mod (k·P)` — so at any
//! phase exactly `P` of the portions are resident somewhere, each portion
//! visits every processor exactly once per round, and a portion is active
//! only at phases `p ≡ portion (mod k)`. Between consecutive visits a
//! portion is **in flight for `k` phases** from processor `q` to
//! processor `q−1 (mod P)`; `k > 1` is what gives the architecture room
//! to overlap that transfer with computation (§2.2).

/// Index of a portion of the reduction array, in `0..k*P`.
pub type PortionId = usize;

/// The `(P, k, n)` geometry and all derived ownership queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseGeometry {
    num_procs: usize,
    k: usize,
    num_elements: usize,
    portion_size: usize,
}

impl PhaseGeometry {
    /// Create a geometry for `num_procs` processors, overlap parameter
    /// `k`, and a reduction array of `num_elements`.
    ///
    /// The paper presents the strategy assuming `k·P` divides the sizes;
    /// like its actual implementation, this one is general: the portion
    /// size is rounded up and the final portion may be short (or even
    /// empty when `n < k·P`).
    pub fn new(num_procs: usize, k: usize, num_elements: usize) -> Self {
        Self::try_new(num_procs, k, num_elements)
            .unwrap_or_else(|e| panic!("invalid PhaseGeometry: {e}"))
    }

    /// Fallible constructor: returns a typed
    /// [`InspectError`](crate::InspectError) instead of panicking on a
    /// degenerate `(P, k, n)` triple.
    pub fn try_new(
        num_procs: usize,
        k: usize,
        num_elements: usize,
    ) -> Result<Self, crate::inspector::InspectError> {
        use crate::inspector::InspectError;
        if num_procs < 1 {
            return Err(InspectError::NoProcessors);
        }
        if k < 1 {
            return Err(InspectError::ZeroK);
        }
        if num_elements < 1 {
            return Err(InspectError::EmptyElements);
        }
        let kp = num_procs * k;
        let portion_size = num_elements.div_ceil(kp);
        Ok(PhaseGeometry {
            num_procs,
            k,
            num_elements,
            portion_size,
        })
    }

    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of portions = number of phases per round = `k·P`.
    pub fn num_phases(&self) -> usize {
        self.k * self.num_procs
    }

    /// Elements per portion (last portion may be shorter).
    pub fn portion_size(&self) -> usize {
        self.portion_size
    }

    /// Portion containing element `e`.
    #[inline]
    pub fn portion_of(&self, e: usize) -> PortionId {
        debug_assert!(e < self.num_elements);
        e / self.portion_size
    }

    /// Element range `[start, end)` of portion `i` (may be empty for the
    /// trailing portions when `n < k·P·portion_size`).
    pub fn portion_range(&self, i: PortionId) -> std::ops::Range<usize> {
        let s = (i * self.portion_size).min(self.num_elements);
        let e = ((i + 1) * self.portion_size).min(self.num_elements);
        s..e
    }

    /// Portion owned by `proc` during `phase` (phases within one round,
    /// `0..k·P`).
    #[inline]
    pub fn portion_owned_by(&self, proc: usize, phase: usize) -> PortionId {
        (self.k * proc + phase) % self.num_phases()
    }

    /// The unique phase (within a round) at which `proc` owns `portion`.
    #[inline]
    pub fn phase_of_portion_on(&self, proc: usize, portion: PortionId) -> usize {
        let kp = self.num_phases();
        (portion + kp - (self.k * proc) % kp) % kp
    }

    /// The processor owning `portion` during `phase`, if any. A portion
    /// is resident only at phases `p ≡ portion (mod k)`; in between it is
    /// in flight.
    pub fn owner_at(&self, portion: PortionId, phase: usize) -> Option<usize> {
        let kp = self.num_phases();
        let diff = (portion + kp - phase % kp) % kp;
        if !diff.is_multiple_of(self.k) {
            return None;
        }
        Some((diff / self.k) % self.num_procs)
    }

    /// First phase of a round at which `portion` is resident anywhere.
    pub fn first_visit_phase(&self, portion: PortionId) -> usize {
        portion % self.k
    }

    /// Last phase of a round at which `portion` is resident anywhere —
    /// after this phase all `P` processors have contributed, so the
    /// reduction value is final and node-level post-processing can run.
    pub fn last_visit_phase(&self, portion: PortionId) -> usize {
        self.num_phases() - self.k + portion % self.k
    }

    /// The processor a portion moves to after being owned by `proc`:
    /// its next visit (k phases later) is on the ring predecessor.
    pub fn next_owner(&self, proc: usize) -> usize {
        (proc + self.num_procs - 1) % self.num_procs
    }

    /// The processor a portion arrives from.
    pub fn prev_owner(&self, proc: usize) -> usize {
        (proc + 1) % self.num_procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_geometry() {
        // Figure 3: P=2, k=2, 8 nodes → 4 portions of 2.
        let g = PhaseGeometry::new(2, 2, 8);
        assert_eq!(g.num_phases(), 4);
        assert_eq!(g.portion_size(), 2);
        assert_eq!(g.portion_range(0), 0..2);
        assert_eq!(g.portion_range(3), 6..8);
        // P0 owns portions 0,1,2,3 at phases 0,1,2,3.
        for p in 0..4 {
            assert_eq!(g.portion_owned_by(0, p), p);
            assert_eq!(g.phase_of_portion_on(0, p), p);
        }
        // P1 owns portion (2+p) mod 4 at phase p.
        assert_eq!(g.portion_owned_by(1, 0), 2);
        assert_eq!(g.portion_owned_by(1, 1), 3);
        assert_eq!(g.portion_owned_by(1, 2), 0);
        assert_eq!(g.portion_owned_by(1, 3), 1);
    }

    #[test]
    fn ownership_is_consistent() {
        for &(procs, k, n) in &[(2, 2, 8), (4, 2, 64), (3, 4, 100), (8, 1, 50), (5, 3, 7)] {
            let g = PhaseGeometry::new(procs, k, n);
            for phase in 0..g.num_phases() {
                for proc in 0..procs {
                    let portion = g.portion_owned_by(proc, phase);
                    assert_eq!(g.phase_of_portion_on(proc, portion), phase);
                    assert_eq!(g.owner_at(portion, phase), Some(proc));
                }
            }
        }
    }

    #[test]
    fn each_portion_visits_every_proc_once_per_round() {
        let g = PhaseGeometry::new(4, 2, 64);
        for portion in 0..g.num_phases() {
            let mut owners = Vec::new();
            for phase in 0..g.num_phases() {
                if let Some(q) = g.owner_at(portion, phase) {
                    owners.push(q);
                }
            }
            owners.sort_unstable();
            assert_eq!(owners, vec![0, 1, 2, 3], "portion {portion}");
        }
    }

    #[test]
    fn portion_active_every_kth_phase_only() {
        let g = PhaseGeometry::new(4, 2, 64);
        for portion in 0..g.num_phases() {
            for phase in 0..g.num_phases() {
                let active = g.owner_at(portion, phase).is_some();
                assert_eq!(active, phase % 2 == portion % 2);
            }
        }
    }

    #[test]
    fn k1_has_no_in_flight_gap() {
        // With k=1 a portion is owned by someone at *every* phase — no
        // slack for communication overlap.
        let g = PhaseGeometry::new(4, 1, 16);
        for portion in 0..4 {
            for phase in 0..4 {
                assert!(g.owner_at(portion, phase).is_some());
            }
        }
    }

    #[test]
    fn visit_phase_bounds() {
        let g = PhaseGeometry::new(4, 2, 64);
        for portion in 0..g.num_phases() {
            let f = g.first_visit_phase(portion);
            let l = g.last_visit_phase(portion);
            assert!(f < g.num_phases());
            assert!(l < g.num_phases());
            assert!(l >= f);
            assert!(g.owner_at(portion, f).is_some());
            assert!(g.owner_at(portion, l).is_some());
            // No visit after the last.
            for p in l + 1..g.num_phases() {
                assert!(g.owner_at(portion, p).is_none());
            }
        }
    }

    #[test]
    fn portions_tile_the_array() {
        for &(procs, k, n) in &[(2, 2, 8), (3, 2, 17), (4, 4, 5), (2, 1, 9)] {
            let g = PhaseGeometry::new(procs, k, n);
            let mut covered = 0;
            for i in 0..g.num_phases() {
                let r = g.portion_range(i);
                assert_eq!(r.start, covered.min(n));
                covered = r.end;
                for e in r {
                    assert_eq!(g.portion_of(e), i);
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn ring_rotation_neighbors() {
        let g = PhaseGeometry::new(4, 2, 64);
        assert_eq!(g.next_owner(0), 3);
        assert_eq!(g.next_owner(3), 2);
        assert_eq!(g.prev_owner(3), 0);
        // portion owned by q at phase p is owned by next_owner(q) at p+k.
        for proc in 0..4 {
            for phase in 0..g.num_phases() - g.k() {
                let portion = g.portion_owned_by(proc, phase);
                assert_eq!(g.owner_at(portion, phase + g.k()), Some(g.next_owner(proc)));
            }
        }
    }

    #[test]
    fn tiny_array_with_empty_portions() {
        // n < k*P: trailing portions are empty but arithmetic still holds.
        let g = PhaseGeometry::new(4, 2, 5);
        assert_eq!(g.portion_size(), 1);
        assert_eq!(g.portion_range(4), 4..5);
        assert_eq!(g.portion_range(7), 5..5);
        assert!(g.portion_range(7).is_empty());
    }
}
