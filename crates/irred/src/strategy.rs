//! Strategy configuration: the `(P, k, distribution)` triple plus sweep
//! count — the paper's `1c`, `2c`, `4c`, `2b` naming (§5.4.1) — and the
//! statistics-driven choice between the rotating-portions strategy and
//! the classic inspector/executor.

use lightinspector::PlanStats;
use workloads::Distribution;

use crate::engine::EngineError;

/// One point in the paper's strategy space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyConfig {
    /// Number of processors (EARTH nodes).
    pub procs: usize,
    /// The overlap parameter: `k·P` phases per sweep.
    pub k: usize,
    /// Iteration/data distribution.
    pub distribution: Distribution,
    /// Time-step iterations (the paper uses 100 for euler/moldyn).
    pub sweeps: usize,
}

impl StrategyConfig {
    /// Validating constructor. Every field must be at least 1: zero
    /// processors or zero phases describe no machine, and zero sweeps
    /// describe no work; each is an [`EngineError::Strategy`].
    pub fn try_new(
        procs: usize,
        k: usize,
        distribution: Distribution,
        sweeps: usize,
    ) -> Result<Self, EngineError> {
        if procs < 1 {
            return Err(EngineError::Strategy("strategy needs at least 1 processor"));
        }
        if k < 1 {
            return Err(EngineError::Strategy("strategy needs k >= 1"));
        }
        if sweeps < 1 {
            return Err(EngineError::Strategy("strategy needs at least 1 sweep"));
        }
        Ok(StrategyConfig {
            procs,
            k,
            distribution,
            sweeps,
        })
    }

    /// Panicking wrapper around [`Self::try_new`] for static strategies.
    pub fn new(procs: usize, k: usize, distribution: Distribution, sweeps: usize) -> Self {
        Self::try_new(procs, k, distribution, sweeps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The paper's label for this strategy: `"2c"`, `"4c"`, `"2b"`, …
    pub fn label(&self) -> String {
        format!("{}{}", self.k, self.distribution.label())
    }

    /// Phases per sweep.
    pub fn phases_per_sweep(&self) -> usize {
        self.k * self.procs
    }

    /// Pick the execution strategy from the reference stream's
    /// portion-space statistics (see [`lightinspector::portion_stats`]
    /// and `DESIGN.md` §12).
    ///
    /// The model compares modeled cycles for one *adaptation*: a
    /// (re-)preparation plus one sweep — the regime these statistics
    /// describe (fresh minibatch index sets, particle churn, adaptive
    /// frontiers), where preprocessing cannot amortize across sweeps.
    ///
    /// * **Rotating portions** executes an iteration in the phase where
    ///   its first reference is resident, so per-sweep time follows the
    ///   *hottest portion*: [`Self::PHASED_REF_CYCLES`] per reference of
    ///   `max(total_refs / P, max_portion_refs)` (the per-iteration
    ///   EARTH-C threading overhead is what makes this constant large).
    ///   Re-preparation is a LightInspector linear pass
    ///   ([`Self::PREP_REF_CYCLES`] per local reference).
    /// * **Inspector/executor** runs a lean executor loop
    ///   ([`Self::IE_REF_CYCLES`] per balanced reference) and pays ghost
    ///   traffic per *distinct* element referenced across an ownership
    ///   boundary ([`Self::GHOST_COST`] cycles per combined entry), but
    ///   must re-run its communicating inspector
    ///   ([`Self::INSPECT_REF_CYCLES`] per reference) and re-partition
    ///   (`14·d·log₂d + 22·(d + total_refs)` cycles, the
    ///   `partitioning_cycles` model) every time the indirection moves.
    ///
    /// Flat streams (skew ≈ 1) keep rotating portions: the hottest
    /// portion is no worse than balanced, while the IE pre-pass scales
    /// with the full data volume. Hot-key streams (few distinct
    /// elements, one scorching portion) switch to the
    /// inspector/executor: its ghost set and partitioning input collapse
    /// while the rotating ring degrades toward serial execution. Shapes
    /// the IE baseline cannot run (more than 64 processors; its scatter
    /// keying limit) always select rotating portions.
    pub fn auto_select(&self, stats: &PlanStats) -> EngineChoice {
        if self.procs <= 1 || self.procs > 64 {
            return EngineChoice::RotatingPortions;
        }
        let p = self.procs as f64;
        let total = stats.total_refs as f64;
        let balanced = total / p;
        let phased_cost = Self::PHASED_REF_CYCLES * balanced.max(stats.max_portion_refs as f64)
            + Self::PREP_REF_CYCLES * balanced;
        let d = (stats.distinct_elements as f64).max(2.0);
        let ghost_per_proc = (d * (p - 1.0)).min(total) / p;
        let ie_cost = Self::IE_REF_CYCLES * balanced
            + Self::GHOST_COST * ghost_per_proc
            + Self::INSPECT_REF_CYCLES * balanced
            + 14.0 * d * d.log2()
            + 22.0 * (d + total);
        if ie_cost < phased_cost {
            EngineChoice::InspectorExecutor
        } else {
            EngineChoice::RotatingPortions
        }
    }

    /// Modeled cycles per reference on the phased executor's critical
    /// path: the ~50-cycle per-iteration EARTH-C threading overhead plus
    /// kernel and memory costs, calibrated against the simulator on the
    /// skew sweep (see `EXPERIMENTS.md`; the endpoints are re-checked by
    /// `tests/workload_families.rs`).
    pub const PHASED_REF_CYCLES: f64 = 90.0;
    /// Modeled cycles per local reference of a LightInspector
    /// (re-)preparation pass.
    pub const PREP_REF_CYCLES: f64 = 6.0;
    /// Modeled cycles per balanced reference of the IE executor loop
    /// (no threading overhead: a plain compiled loop).
    pub const IE_REF_CYCLES: f64 = 16.0;
    /// Modeled cycles per ghost entry (8 payload bytes on the link +
    /// the 6-cycle fold add the IE simulator charges).
    pub const GHOST_COST: f64 = 14.0;
    /// Modeled cycles per reference of the IE communicating inspector
    /// (hash translation), matching the simulator's charge.
    pub const INSPECT_REF_CYCLES: f64 = 12.0;
}

/// Which executor [`StrategyConfig::auto_select`] picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The paper's phased rotating-portions strategy ([`crate::PhasedEngine`]).
    RotatingPortions,
    /// The classic communicating inspector/executor
    /// ([`crate::baseline::IeEngine`]).
    InspectorExecutor,
}

impl EngineChoice {
    /// Short label used in figures and JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            EngineChoice::RotatingPortions => "phased",
            EngineChoice::InspectorExecutor => "ie",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(
            StrategyConfig::new(32, 2, Distribution::Cyclic, 100).label(),
            "2c"
        );
        assert_eq!(
            StrategyConfig::new(8, 4, Distribution::Block, 100).label(),
            "4b"
        );
    }

    #[test]
    fn phases_per_sweep() {
        let s = StrategyConfig::new(4, 2, Distribution::Cyclic, 10);
        assert_eq!(s.phases_per_sweep(), 8);
    }

    #[test]
    fn try_new_rejects_zeroes() {
        let reject = |procs, k, sweeps| {
            StrategyConfig::try_new(procs, k, Distribution::Block, sweeps)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            reject(0, 2, 1),
            "invalid strategy: strategy needs at least 1 processor"
        );
        assert_eq!(reject(2, 0, 1), "invalid strategy: strategy needs k >= 1");
        assert_eq!(
            reject(2, 2, 0),
            "invalid strategy: strategy needs at least 1 sweep"
        );
        assert!(StrategyConfig::try_new(1, 1, Distribution::Cyclic, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid strategy")]
    fn new_panics_on_zero() {
        let _ = StrategyConfig::new(0, 1, Distribution::Block, 1);
    }

    fn stats(portion_refs: Vec<u64>, distinct: usize) -> PlanStats {
        let total: u64 = portion_refs.iter().sum();
        let max = portion_refs.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / portion_refs.len().max(1) as f64;
        PlanStats {
            total_refs: total,
            distinct_elements: distinct,
            max_portion_refs: max,
            mean_portion_refs: mean,
            skew: if mean > 0.0 { max as f64 / mean } else { 1.0 },
            portion_refs,
        }
    }

    #[test]
    fn auto_select_keeps_phased_on_flat_streams() {
        let s = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        // 8 balanced portions over 800 distinct elements.
        let flat = stats(vec![1_000; 8], 800);
        assert_eq!(s.auto_select(&flat), EngineChoice::RotatingPortions);
    }

    #[test]
    fn auto_select_switches_on_hot_key_streams() {
        let s = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        // Everything lands in one portion, on 4 distinct hot keys.
        let hot = stats(vec![8_000, 0, 0, 0, 0, 0, 0, 0], 4);
        assert_eq!(s.auto_select(&hot), EngineChoice::InspectorExecutor);
    }

    #[test]
    fn auto_select_respects_ie_limits() {
        // The IE scatter keying supports at most 64 processors: beyond
        // that the choice must stay phased even for scorching skew.
        let s = StrategyConfig::new(65, 1, Distribution::Block, 1);
        let hot = stats(vec![8_000, 0, 0, 0], 4);
        assert_eq!(s.auto_select(&hot), EngineChoice::RotatingPortions);
        let single = StrategyConfig::new(1, 2, Distribution::Block, 1);
        assert_eq!(single.auto_select(&hot), EngineChoice::RotatingPortions);
    }

    #[test]
    fn choice_labels() {
        assert_eq!(EngineChoice::RotatingPortions.label(), "phased");
        assert_eq!(EngineChoice::InspectorExecutor.label(), "ie");
    }
}
