//! Deterministic fault injection for both EARTH backends.
//!
//! The paper's central robustness claim is that phased execution is
//! *schedule-independent*: the `k·P` portion transfers of one sweep may
//! land in any order without changing the reduction result (PAPER.md
//! §2.2). A [`FaultPlan`] turns that claim into something testable — it
//! lets either backend perturb message delivery (delay, reorder,
//! duplicate, drop) and fiber execution (injected panic, stalled node)
//! at configurable rates while staying *replayable*: every decision is a
//! pure function of the plan seed, the fault site, and a per-site
//! occurrence counter, hashed through [`harness::rng::splitmix64`].
//! Re-running with the same seed injects the same faults at the same
//! sites, even though native thread interleavings differ run to run.
//!
//! Fault taxonomy (see DESIGN.md §8):
//!
//! * **Delay** — the message is delivered late (native: the issuing SU
//!   sleeps; sim: extra network latency cycles). Never changes results.
//! * **Reorder** — the message is moved behind the other split-phase
//!   operations of the same fiber ending (native), or delayed past its
//!   batch siblings (sim). Never loses a message.
//! * **Duplicate** — the message is delivered twice *with the same
//!   operation id*; the backend's dedup filter must suppress the copy.
//! * **Drop** — the message is never delivered. This is the only
//!   destructive message fault: the victim fiber starves and the run
//!   must end in a structured [`RunError`](crate::native::RunError),
//!   never a hang.
//! * **Panic** — a fiber firing is replaced by a modeled crash,
//!   surfacing as `RunError::NodePanicked` (native only).
//! * **Stall** — the node pauses before running a fiber, exercising the
//!   no-progress watchdog (native only).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use harness::rng::splitmix64;
use trace::FaultKind;

/// Rates and bounds for injected faults. `Copy` so it can ride inside
/// [`SimConfig`](crate::sim::SimConfig); the stateful counters live in
/// the [`FaultPlan`] built from it at run start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for all fault decisions. Same seed ⇒ same faults.
    pub seed: u64,
    /// Probability a sync/data message is delivered late.
    pub delay_prob: f64,
    /// Upper bound on an injected delay, in microseconds.
    pub max_delay_us: u64,
    /// Probability a message is reordered behind its batch siblings.
    pub reorder_prob: f64,
    /// Probability a message is delivered twice (same operation id).
    pub duplicate_prob: f64,
    /// Probability a message is dropped entirely (destructive).
    pub drop_prob: f64,
    /// Probability a fiber firing is replaced by a modeled panic.
    pub panic_prob: f64,
    /// Probability the node pauses before running a fiber.
    pub stall_prob: f64,
    /// Upper bound on an injected stall, in microseconds.
    pub max_stall_us: u64,
}

impl FaultConfig {
    /// No faults at all — the identity plan (useful as a baseline arm).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            delay_prob: 0.0,
            max_delay_us: 0,
            reorder_prob: 0.0,
            duplicate_prob: 0.0,
            drop_prob: 0.0,
            panic_prob: 0.0,
            stall_prob: 0.0,
            max_stall_us: 0,
        }
    }

    /// Non-destructive message faults only (delay/reorder/duplicate).
    /// A run under this plan must complete bit-identical to fault-free.
    pub fn lossless(seed: u64) -> Self {
        FaultConfig {
            delay_prob: 0.10,
            max_delay_us: 500,
            reorder_prob: 0.15,
            duplicate_prob: 0.15,
            ..Self::none(seed)
        }
    }

    /// Lossless faults plus message drops: runs either complete
    /// bit-identical or starve into a structured error.
    pub fn lossy(seed: u64) -> Self {
        FaultConfig {
            drop_prob: 0.20,
            ..Self::lossless(seed)
        }
    }

    /// Everything at once, including fiber panics and node stalls.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            panic_prob: 0.05,
            stall_prob: 0.05,
            max_stall_us: 300,
            ..Self::lossy(seed)
        }
    }

    /// Derive a fresh plan for a retry attempt: same rates, new seed.
    /// Models transient faults — a `RecoveryPolicy` retry re-rolls the
    /// dice instead of replaying the exact failure.
    ///
    /// (`RecoveryPolicy` lives in the `irred` crate's phased executor.)
    pub fn reseeded(mut self, salt: u64) -> Self {
        let mut s = self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.seed = splitmix64(&mut s);
        self
    }

    /// True if every rate is zero (plan would be a no-op).
    pub fn is_noop(&self) -> bool {
        self.delay_prob == 0.0
            && self.reorder_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.drop_prob == 0.0
            && self.panic_prob == 0.0
            && self.stall_prob == 0.0
    }
}

/// The fate of one sync/data message, decided by [`FaultPlan::message_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFault {
    /// Deliver normally.
    Deliver,
    /// Deliver after an injected latency.
    Delay { micros: u64 },
    /// Deliver after the other operations of the same batch.
    Reorder,
    /// Deliver twice with the same operation id (dedup must suppress one).
    Duplicate,
    /// Never deliver.
    Drop,
}

/// Map a decided message fate onto the trace-level fault taxonomy.
/// `Deliver` is never passed here (callers only record actual faults).
pub(crate) fn fault_kind(fate: MessageFault) -> FaultKind {
    match fate {
        MessageFault::Delay { .. } => FaultKind::MsgDelay,
        MessageFault::Reorder => FaultKind::MsgReorder,
        MessageFault::Duplicate => FaultKind::MsgDuplicate,
        MessageFault::Drop | MessageFault::Deliver => FaultKind::MsgDrop,
    }
}

/// The fate of one fiber firing, decided by [`FaultPlan::fiber_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FiberFault {
    /// Run normally.
    Run,
    /// Pause the node first, then run.
    Stall { micros: u64 },
    /// Replace the firing with a modeled crash.
    Panic,
}

/// Counters of injected (and defended-against) faults, snapshotted into
/// [`RunStats`](crate::stats::RunStats) at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub delayed: u64,
    pub reordered: u64,
    pub duplicated: u64,
    /// Duplicate deliveries suppressed by the receiver-side dedup filter.
    pub deduped: u64,
    pub dropped: u64,
    pub injected_panics: u64,
    pub injected_stalls: u64,
}

impl FaultCounts {
    /// Total number of injected faults (dedup suppressions excluded —
    /// those are the defense, not the fault).
    pub fn total(&self) -> u64 {
        self.delayed
            + self.reordered
            + self.duplicated
            + self.dropped
            + self.injected_panics
            + self.injected_stalls
    }
}

/// A live fault plan: the config plus per-site occurrence counters, the
/// delivered-operation dedup set, and injection statistics. One plan is
/// built per run; both backends consult it at their delivery sites.
pub struct FaultPlan {
    cfg: FaultConfig,
    /// site-hash → number of times that site has been reached.
    occurrences: Mutex<HashMap<u64, u64>>,
    /// Operation ids already delivered once (duplicate suppression).
    delivered: Mutex<HashSet<u64>>,
    next_op_id: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
    duplicated: AtomicU64,
    deduped: AtomicU64,
    dropped: AtomicU64,
    injected_panics: AtomicU64,
    injected_stalls: AtomicU64,
}

/// Mix the seed, a fault-kind tag, the site identity, and the occurrence
/// index into one splitmix64 draw. Pure: no shared RNG stream, so native
/// thread scheduling cannot perturb the decisions.
fn site_hash(seed: u64, kind: u64, a: u64, b: u64, c: u64, occ: u64) -> u64 {
    let mut s = seed
        ^ kind.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ a.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ b.wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ c.wrapping_mul(0xd6e8_feb8_6659_fd93)
        ^ occ.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut s)
}

/// Map a u64 draw to a uniform f64 in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            occurrences: Mutex::new(HashMap::new()),
            delivered: Mutex::new(HashSet::new()),
            next_op_id: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Allocate a fresh operation id for a message delivery.
    pub fn next_op_id(&self) -> u64 {
        self.next_op_id.fetch_add(1, Ordering::Relaxed)
    }

    /// True exactly once per operation id: the dedup filter. A duplicate
    /// delivery reuses its original's id and is suppressed here.
    pub fn first_delivery(&self, op_id: u64) -> bool {
        let fresh = self.delivered.lock().unwrap().insert(op_id);
        if !fresh {
            self.deduped.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    fn occurrence(&self, site: u64) -> u64 {
        let mut occ = self.occurrences.lock().unwrap();
        let e = occ.entry(site).or_insert(0);
        let n = *e;
        *e += 1;
        n
    }

    /// Decide the fate of a sync/data message `src → dst` targeting sync
    /// slot `slot`. Deterministic per (seed, site, occurrence).
    pub fn message_fault(&self, src: usize, dst: usize, slot: u32) -> MessageFault {
        let site = site_hash(self.cfg.seed, 1, src as u64, dst as u64, slot as u64, 0);
        let occ = self.occurrence(site);
        let u = unit(site_hash(
            self.cfg.seed,
            2,
            src as u64,
            dst as u64,
            slot as u64,
            occ,
        ));
        let c = &self.cfg;
        let mut t = c.drop_prob;
        if u < t {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return MessageFault::Drop;
        }
        t += c.duplicate_prob;
        if u < t {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            return MessageFault::Duplicate;
        }
        t += c.reorder_prob;
        if u < t {
            self.reordered.fetch_add(1, Ordering::Relaxed);
            return MessageFault::Reorder;
        }
        t += c.delay_prob;
        if u < t {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            let micros = site_hash(self.cfg.seed, 3, src as u64, dst as u64, slot as u64, occ)
                % (c.max_delay_us + 1);
            return MessageFault::Delay { micros };
        }
        MessageFault::Deliver
    }

    /// Decide the fate of a fiber firing on `node`, slot `slot`.
    pub fn fiber_fault(&self, node: usize, slot: u32) -> FiberFault {
        let site = site_hash(self.cfg.seed, 4, node as u64, slot as u64, 0, 0);
        let occ = self.occurrence(site);
        let u = unit(site_hash(
            self.cfg.seed,
            5,
            node as u64,
            slot as u64,
            0,
            occ,
        ));
        let c = &self.cfg;
        let mut t = c.panic_prob;
        if u < t {
            self.injected_panics.fetch_add(1, Ordering::Relaxed);
            return FiberFault::Panic;
        }
        t += c.stall_prob;
        if u < t {
            self.injected_stalls.fetch_add(1, Ordering::Relaxed);
            let micros = site_hash(self.cfg.seed, 6, node as u64, slot as u64, 0, occ)
                % (c.max_stall_us + 1);
            return FiberFault::Stall { micros };
        }
        FiberFault::Run
    }

    /// Snapshot the injection counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            delayed: self.delayed.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            injected_stalls: self.injected_stalls.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(cfg: FaultConfig) -> Vec<MessageFault> {
        let plan = FaultPlan::new(cfg);
        let mut out = Vec::new();
        for src in 0..4usize {
            for dst in 0..4usize {
                for occ in 0..8 {
                    let _ = occ;
                    out.push(plan.message_fault(src, dst, 0));
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = decisions(FaultConfig::lossy(42));
        let b = decisions(FaultConfig::lossy(42));
        assert_eq!(a, b);
    }

    #[test]
    fn decisions_are_order_independent() {
        // The same site/occurrence pair gets the same fate no matter how
        // calls to *other* sites interleave — the native backend's thread
        // nondeterminism cannot perturb a site's fault sequence.
        let plan_a = FaultPlan::new(FaultConfig::lossy(7));
        let plan_b = FaultPlan::new(FaultConfig::lossy(7));
        // Plan A: site (0,1,0) twice, then site (2,3,5) twice.
        let a = [
            plan_a.message_fault(0, 1, 0),
            plan_a.message_fault(0, 1, 0),
            plan_a.message_fault(2, 3, 5),
            plan_a.message_fault(2, 3, 5),
        ];
        // Plan B: interleaved.
        let b0 = plan_b.message_fault(2, 3, 5);
        let b1 = plan_b.message_fault(0, 1, 0);
        let b2 = plan_b.message_fault(2, 3, 5);
        let b3 = plan_b.message_fault(0, 1, 0);
        assert_eq!(a[0], b1);
        assert_eq!(a[1], b3);
        assert_eq!(a[2], b0);
        assert_eq!(a[3], b2);
    }

    #[test]
    fn different_seeds_differ() {
        let a = decisions(FaultConfig::lossy(1));
        let b = decisions(FaultConfig::lossy(2));
        assert_ne!(
            a, b,
            "two seeds giving identical 128-draw sequences is vanishingly unlikely"
        );
    }

    #[test]
    fn noop_plan_never_faults() {
        let all = decisions(FaultConfig::none(99));
        assert!(all.iter().all(|f| *f == MessageFault::Deliver));
        assert!(FaultConfig::none(99).is_noop());
        assert!(!FaultConfig::lossless(99).is_noop());
    }

    #[test]
    fn rates_roughly_respected() {
        let cfg = FaultConfig {
            drop_prob: 0.5,
            ..FaultConfig::none(1234)
        };
        let plan = FaultPlan::new(cfg);
        let mut dropped = 0;
        for i in 0..2000usize {
            if plan.message_fault(i % 8, (i / 8) % 8, (i % 5) as u32) == MessageFault::Drop {
                dropped += 1;
            }
        }
        assert!(
            (700..1300).contains(&dropped),
            "dropped {dropped}/2000 at p=0.5"
        );
        assert_eq!(plan.counts().dropped, dropped as u64);
    }

    #[test]
    fn dedup_suppresses_second_delivery() {
        let plan = FaultPlan::new(FaultConfig::none(0));
        let id = plan.next_op_id();
        assert!(plan.first_delivery(id));
        assert!(!plan.first_delivery(id));
        assert!(plan.first_delivery(plan.next_op_id()));
        assert_eq!(plan.counts().deduped, 1);
    }

    #[test]
    fn fiber_faults_deterministic() {
        let a = FaultPlan::new(FaultConfig::chaos(5));
        let b = FaultPlan::new(FaultConfig::chaos(5));
        for node in 0..4usize {
            for rep in 0..16 {
                let _ = rep;
                assert_eq!(a.fiber_fault(node, 3), b.fiber_fault(node, 3));
            }
        }
        let counts = a.counts();
        assert_eq!(counts, b.counts());
    }

    #[test]
    fn reseeded_changes_seed_only() {
        let base = FaultConfig::lossy(10);
        let re = base.reseeded(1);
        assert_ne!(base.seed, re.seed);
        assert_eq!(base.drop_prob, re.drop_prob);
        assert_ne!(re.seed, base.reseeded(2).seed);
    }
}
