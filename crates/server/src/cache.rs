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

use std::collections::HashMap;

use irred::{PreparedPhased, Workspace};

use crate::executor::JobKernel;

/// Consecutive checked-in failures after which an entry is dropped.
const QUARANTINE_AFTER: u32 = 2;
/// Resident plan cap: oldest entries are evicted beyond this.
const MAX_ENTRIES: usize = 64;

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
    /// No cached plan — prepare one and check it in (failure count 0).
    Miss,
}

/// Structure-hash keyed plan cache. All methods take `&mut self`; the
/// server wraps it in a mutex held only for the map operation, never
/// across an execute.
#[derive(Default)]
pub struct PlanCache {
    entries: HashMap<u64, Entry>,
    next_stamp: u64,
    pub hits: u64,
    pub misses: u64,
    pub quarantined: u64,
    pub evicted: u64,
    /// Checkouts whose plan turned out to be another structure's under
    /// the same key (see [`PlanCache::collision`]).
    pub collisions: u64,
}

/// A plan the cache let go of at check-in (quarantined, evicted, or
/// replaced by a concurrent job's plan for the same structure). It is
/// handed back so the caller frees its megabytes after releasing the
/// cache mutex, not while other workers wait on it.
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
                Checkout::Miss
            }
        }
    }

    /// Re-count the last hit as a miss: the caller found the checked-out
    /// plan was prepared for another structure whose key collides with
    /// its own, and prepares afresh.
    pub fn collision(&mut self) {
        self.hits -= 1;
        self.misses += 1;
        self.collisions += 1;
    }

    /// Return a plan after a job. `ok = false` counts a failure; a plan
    /// that keeps failing is quarantined (released) so the next job
    /// re-prepares instead of inheriting poisoned state. The failure
    /// count survives check-out/check-in cycles via the entry itself,
    /// so two failing jobs in a row are enough regardless of
    /// interleaving with the map. Whatever plan the cache lets go of
    /// comes back as [`Released`], for the caller to drop unlocked.
    pub fn checkin(
        &mut self,
        key: u64,
        prepared: Box<PreparedPhased<JobKernel>>,
        ws: Workspace,
        ok: bool,
        prior_failures: u32,
    ) -> Option<Released> {
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
}
