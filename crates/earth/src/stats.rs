//! Execution statistics shared by both backends.

use memsim::MemStats;

/// Counts of EARTH operations issued during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Fibers that actually executed.
    pub fibers_fired: u64,
    /// `SYNC` operations issued (excluding the sync half of `DATA_SYNC`).
    pub syncs: u64,
    /// `DATA_SYNC`/`BLKMOV` messages issued.
    pub messages: u64,
    /// Total payload bytes moved by messages.
    pub bytes: u64,
    /// Messages whose source and destination node are the same.
    pub local_messages: u64,
}

impl OpCounts {
    pub fn merge(&mut self, o: &OpCounts) {
        self.fibers_fired += o.fibers_fired;
        self.syncs += o.syncs;
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.local_messages += o.local_messages;
    }
}

/// Per-node statistics from a simulated run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Cycles the EU spent executing fiber bodies (incl. switch cost).
    pub busy_cycles: u64,
    pub fibers_fired: u64,
    pub bytes_sent: u64,
    /// Cache behaviour of the metered portions of fiber bodies.
    pub mem: MemStats,
}

/// Aggregate statistics for one run. Derives `PartialEq` so the
/// serial-vs-parallel equivalence suites can assert byte-level equality
/// of whole reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    pub ops: OpCounts,
    /// Fibers registered but never fired (often intentional slack; callers
    /// that expect every fiber to fire should assert this is zero).
    pub unfired_fibers: u64,
    /// Length of the run in cycles, recorded by the backend that
    /// produced these stats (the simulator's makespan; zero on the
    /// native backend, which has no cycle clock). Lets utilization be
    /// computed without callers threading the run length by hand.
    pub total_cycles: u64,
    pub per_node: Vec<NodeStats>,
    /// Injected-fault counters (all zero unless the run carried a
    /// [`FaultConfig`](crate::faults::FaultConfig)).
    pub faults: crate::faults::FaultCounts,
}

impl RunStats {
    /// EU utilization of node `n` over the recorded run length
    /// ([`RunStats::total_cycles`]). Zero when the backend recorded no
    /// cycle clock (native runs).
    pub fn utilization(&self, n: usize) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.per_node[n].busy_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Mean EU utilization across nodes over the recorded run length.
    pub fn mean_utilization(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        let s: f64 = (0..self.per_node.len()).map(|n| self.utilization(n)).sum();
        s / self.per_node.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds() {
        let mut a = OpCounts {
            fibers_fired: 1,
            syncs: 2,
            messages: 3,
            bytes: 4,
            local_messages: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.fibers_fired, 2);
        assert_eq!(a.local_messages, 10);
    }

    #[test]
    fn utilization_uses_recorded_run_length() {
        let mut stats = RunStats {
            total_cycles: 100,
            per_node: vec![
                NodeStats {
                    busy_cycles: 50,
                    ..Default::default()
                },
                NodeStats {
                    busy_cycles: 100,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(stats.utilization(0), 0.5);
        assert_eq!(stats.utilization(1), 1.0);
        assert!((stats.mean_utilization() - 0.75).abs() < 1e-12);
        stats.total_cycles = 0;
        assert_eq!(stats.utilization(0), 0.0);
        assert_eq!(stats.mean_utilization(), 0.0);
    }
}
