//! The serving-layer plan cache: structure-hash keyed prepared runs
//! with workspace pooling and failure quarantine.
//!
//! This is the paper's amortization argument lifted to a daemon: the
//! inspector runs once per *structure* (indirection contents, strategy,
//! geometry), and every later job with the same structure reuses the
//! plan, swapping in its own kernel values via
//! [`PreparedPhased::set_kernel`]. Entries are checked out exclusively
//! (removed from the map while a worker executes on them) so the cache
//! itself needs no interior locking beyond its own mutex, and a plan
//! that fails repeatedly is *quarantined* — dropped so the next job
//! with that structure re-prepares from scratch rather than re-using
//! state a faulty run may have left behind.
//!
//! Admission: a plan is worth keeping only if its structure comes back,
//! so a freshly prepared plan is admitted on its key's *second
//! sighting*. The first miss of a key only remembers the key, in a ring
//! of the last `4 × MAX_ENTRIES` missed keys (a TinyLFU-style doorkeeper),
//! and that job's plan is refused at check-in and handed back for
//! dropping. A later miss of a remembered key, or a collision re-counted
//! as a miss, admits. A stream of one-off structures therefore never
//! enters the map and cannot evict another tenant's hot plan. A plan
//! checked in with no preceding miss is admitted as before.

use std::collections::{HashMap, HashSet, VecDeque};

use irred::{PreparedPhased, Workspace};

use crate::executor::JobKernel;

/// Consecutive checked-in failures after which an entry is dropped.
const QUARANTINE_AFTER: u32 = 2;
/// Resident plan cap: oldest entries are evicted beyond this.
const MAX_ENTRIES: usize = 64;
/// Missed keys the doorkeeper remembers: a structure that recurs within
/// this many misses is admitted on its second sighting.
const RECENT_KEYS: usize = 4 * MAX_ENTRIES;

struct Entry {
    prepared: Box<PreparedPhased<JobKernel>>,
    ws: Workspace,
    /// Consecutive failures observed on check-in.
    failures: u32,
    /// Insertion stamp for FIFO eviction.
    stamp: u64,
}

/// What a checkout found.
pub enum Checkout {
    /// A cached plan for this structure (exclusively owned until
    /// [`PlanCache::checkin`]). `failures` is the entry's consecutive
    /// failure count so far; the caller threads it back into
    /// [`PlanCache::checkin`].
    Hit {
        prepared: Box<PreparedPhased<JobKernel>>,
        ws: Workspace,
        failures: u32,
    },
    /// No cached plan — prepare one and check it in (failure count 0);
    /// on the key's first sighting the check-in refuses it.
    Miss,
}

/// Structure-hash keyed plan cache. All methods take `&mut self`; the
/// server wraps it in a mutex held only for the map operation, never
/// across an execute.
#[derive(Default)]
pub struct PlanCache {
    entries: HashMap<u64, Entry>,
    next_stamp: u64,
    /// The last [`RECENT_KEYS`] distinct missed keys, oldest first.
    recent: VecDeque<u64>,
    /// Keys whose latest miss was their first sighting: the plan
    /// prepared for that miss is refused at check-in.
    first_sightings: HashSet<u64>,
    pub hits: u64,
    pub misses: u64,
    pub quarantined: u64,
    /// FIFO evictions of admitted plans.
    pub evicted: u64,
    /// First-sighting plans refused at check-in.
    pub refused: u64,
    /// Checkouts whose plan turned out to be another structure's under
    /// the same key (see [`PlanCache::collision`]).
    pub collisions: u64,
}

/// A plan the cache let go of at check-in (refused on a first sighting,
/// quarantined, evicted, or replaced by a concurrent job's plan for the
/// same structure). It is handed back so the caller frees its megabytes
/// after releasing the cache mutex, not while other workers wait on it.
pub type Released = (Box<PreparedPhased<JobKernel>>, Workspace);

impl PlanCache {
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Take the plan for `key` out of the cache, if present. The caller
    /// owns it exclusively until `checkin`; a concurrent job with the
    /// same structure simply misses and prepares its own copy (the
    /// later check-in wins, the earlier one is dropped by stamp order).
    pub fn checkout(&mut self, key: u64) -> Checkout {
        match self.entries.remove(&key) {
            Some(e) => {
                self.hits += 1;
                Checkout::Hit {
                    prepared: e.prepared,
                    ws: e.ws,
                    failures: e.failures,
                }
            }
            None => {
                self.misses += 1;
                if self.sight(key) {
                    self.first_sightings.insert(key);
                }
                Checkout::Miss
            }
        }
    }

    /// Re-count the last hit on `key` as a miss: the caller found the
    /// checked-out plan was prepared for another structure whose key
    /// collides with its own, and prepares afresh. The key is plainly
    /// recurring, so it counts as a sighting that admits the fresh plan.
    pub fn collision(&mut self, key: u64) {
        self.hits -= 1;
        self.misses += 1;
        self.collisions += 1;
        self.sight(key);
    }

    /// Record a sighting of `key` in the ring of recently missed keys;
    /// true if the ring did not hold it. A key the ring pushes out is
    /// forgotten, pending first sighting or not.
    fn sight(&mut self, key: u64) -> bool {
        if self.recent.contains(&key) {
            // Admit, even if the first sighting's job never checked in.
            self.first_sightings.remove(&key);
            return false;
        }
        if self.recent.len() == RECENT_KEYS {
            if let Some(old) = self.recent.pop_front() {
                self.first_sightings.remove(&old);
            }
        }
        self.recent.push_back(key);
        true
    }

    /// Return a plan after a job. A plan prepared on its key's first
    /// sighting is refused (released) and only the key is remembered.
    /// `ok = false` counts a failure; a plan that keeps failing is
    /// quarantined (released) so the next job re-prepares instead of
    /// inheriting poisoned state. The failure count survives
    /// check-out/check-in cycles via the entry itself, so two failing
    /// jobs in a row are enough regardless of interleaving with the map.
    /// Whatever plan the cache lets go of comes back as [`Released`],
    /// for the caller to drop unlocked.
    pub fn checkin(
        &mut self,
        key: u64,
        prepared: Box<PreparedPhased<JobKernel>>,
        ws: Workspace,
        ok: bool,
        prior_failures: u32,
    ) -> Option<Released> {
        if self.first_sightings.remove(&key) {
            self.refused += 1;
            return Some((prepared, ws));
        }
        let failures = if ok { 0 } else { prior_failures + 1 };
        if failures >= QUARANTINE_AFTER {
            self.quarantined += 1;
            return Some((prepared, ws));
        }
        // A key already present is replaced below and needs no room.
        let mut evicted = None;
        if self.entries.len() >= MAX_ENTRIES && !self.entries.contains_key(&key) {
            // FIFO eviction: release the oldest stamp.
            if let Some(&old) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                evicted = self.entries.remove(&old);
                self.evicted += 1;
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let replaced = self.entries.insert(
            key,
            Entry {
                prepared,
                ws,
                failures,
                stamp,
            },
        );
        replaced.or(evicted).map(|e| (e.prepared, e.ws))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use earth_model::native::NativeConfig;
    use irred::{Distribution, PhasedEngine, PhasedSpec, ReductionEngine, StrategyConfig};

    use super::*;

    fn plan() -> Box<PreparedPhased<JobKernel>> {
        let spec = PhasedSpec {
            kernel: Arc::new(JobKernel {
                num_refs: 1,
                num_arrays: 1,
                weights: Arc::new(vec![1.0; 4]),
            }),
            num_elements: 4,
            indirection: Arc::new(vec![vec![0, 1, 2, 3]]),
        };
        let strat = StrategyConfig::try_new(1, 1, Distribution::Block, 1).unwrap();
        Box::new(
            PhasedEngine::native(NativeConfig::default())
                .prepare(&spec, &strat)
                .unwrap(),
        )
    }

    #[test]
    fn checkin_hands_back_every_plan_it_lets_go_of() {
        let mut cache = PlanCache::new();
        for key in 0..MAX_ENTRIES as u64 {
            assert!(cache
                .checkin(key, plan(), Workspace::new(), true, 0)
                .is_none());
        }
        // Full: a new key evicts the oldest entry and returns it.
        let released = cache.checkin(1000, plan(), Workspace::new(), true, 0);
        assert!(released.is_some());
        assert_eq!((cache.evicted, cache.len()), (1, MAX_ENTRIES));
        assert!(matches!(cache.checkout(0), Checkout::Miss));
        // A key already present is replaced, not evicted for.
        let released = cache.checkin(1000, plan(), Workspace::new(), true, 0);
        assert!(released.is_some());
        assert_eq!(cache.evicted, 1);
        // A plan failing for the second time in a row is quarantined and
        // returned rather than kept.
        let released = cache.checkin(2000, plan(), Workspace::new(), false, 1);
        assert!(released.is_some());
        assert_eq!(cache.quarantined, 1);
        assert!(matches!(cache.checkout(2000), Checkout::Miss));
    }

    #[test]
    fn first_sighting_is_refused_and_handed_back() {
        let mut cache = PlanCache::new();
        assert!(matches!(cache.checkout(7), Checkout::Miss));
        assert!(cache
            .checkin(7, plan(), Workspace::new(), true, 0)
            .is_some());
        assert_eq!((cache.refused, cache.evicted, cache.len()), (1, 0, 0));
    }

    #[test]
    fn second_sighting_is_admitted() {
        let mut cache = PlanCache::new();
        for _ in 0..2 {
            assert!(matches!(cache.checkout(7), Checkout::Miss));
            let _ = cache.checkin(7, plan(), Workspace::new(), true, 0);
        }
        assert_eq!((cache.refused, cache.len()), (1, 1));
        assert!(matches!(cache.checkout(7), Checkout::Hit { .. }));
        assert_eq!((cache.hits, cache.misses), (1, 2));
    }

    #[test]
    fn direct_checkin_without_a_miss_is_admitted() {
        // The pattern of a probe that checks a plan in and expects the
        // next checkout to hit.
        let mut cache = PlanCache::new();
        assert!(cache
            .checkin(7, plan(), Workspace::new(), true, 0)
            .is_none());
        let Checkout::Hit {
            prepared,
            ws,
            failures,
        } = cache.checkout(7)
        else {
            panic!("a plan checked in directly must hit");
        };
        assert!(cache.checkin(7, prepared, ws, true, failures).is_none());
        assert_eq!((cache.refused, cache.len()), (0, 1));
    }

    #[test]
    fn ring_forgets_a_key_after_a_ring_of_newer_misses() {
        let mut cache = PlanCache::new();
        let ring = RECENT_KEYS as u64;
        assert!(matches!(cache.checkout(0), Checkout::Miss));
        assert!(cache
            .checkin(0, plan(), Workspace::new(), true, 0)
            .is_some());
        // A ring's worth of misses less one: key 0 is still remembered,
        // so its next miss is a second sighting.
        for key in 1..ring {
            assert!(matches!(cache.checkout(key), Checkout::Miss));
        }
        assert!(matches!(cache.checkout(0), Checkout::Miss));
        assert!(cache
            .checkin(0, plan(), Workspace::new(), true, 0)
            .is_none());
        // Take the plan out again; one more newer miss pushes key 0 out
        // of the ring, and its next miss is a first sighting again.
        assert!(matches!(cache.checkout(0), Checkout::Hit { .. }));
        assert!(matches!(cache.checkout(ring), Checkout::Miss));
        assert!(matches!(cache.checkout(0), Checkout::Miss));
        assert!(cache
            .checkin(0, plan(), Workspace::new(), true, 0)
            .is_some());
        assert_eq!(cache.refused, 2);
        // Misses that never check in are forgotten with their keys.
        assert_eq!(cache.recent.len(), RECENT_KEYS);
        assert!(cache.first_sightings.len() <= RECENT_KEYS);
    }

    #[test]
    fn quarantine_releases_after_two_consecutive_failures() {
        let mut cache = PlanCache::new();
        assert!(matches!(cache.checkout(7), Checkout::Miss));
        let _ = cache.checkin(7, plan(), Workspace::new(), true, 0);
        // Admitted on its second sighting despite a failed run...
        assert!(matches!(cache.checkout(7), Checkout::Miss));
        assert!(cache
            .checkin(7, plan(), Workspace::new(), false, 0)
            .is_none());
        // ...and released by the second failure in a row.
        let Checkout::Hit {
            prepared,
            ws,
            failures,
        } = cache.checkout(7)
        else {
            panic!("the failed-once plan must still be cached");
        };
        assert_eq!(failures, 1);
        assert!(cache.checkin(7, prepared, ws, false, failures).is_some());
        assert_eq!((cache.quarantined, cache.len()), (1, 0));
        // The key is still remembered: the re-prepared plan is admitted.
        assert!(matches!(cache.checkout(7), Checkout::Miss));
        assert!(cache
            .checkin(7, plan(), Workspace::new(), true, 0)
            .is_none());
        assert_eq!((cache.refused, cache.len()), (1, 1));
    }
}
