//! The per-node memory cost model: one data cache in front of flat memory.
//!
//! [`MemModel`] turns an address trace into cycles. It is deliberately a
//! single-level model — the i860XP had a single on-chip data cache — and
//! the three parameters (hit cost, miss penalty, write-back penalty) are
//! calibrated in `EXPERIMENTS.md` against the paper's sequential running
//! times.

use crate::cache::{AccessKind, Cache, CacheConfig};

/// Cycle costs of the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    pub cache: CacheConfig,
    /// Cycles for a cache hit (fully pipelined loads ⇒ 1).
    pub hit_cycles: u64,
    /// Additional cycles for a miss (line fill from local memory).
    pub miss_cycles: u64,
    /// Additional cycles when a miss evicts a dirty line.
    pub writeback_cycles: u64,
}

impl MemConfig {
    /// Calibrated approximation of a MANNA node (i860XP @ 50 MHz, local
    /// DRAM): 16 KiB 4-way cache, 1-cycle hits, ~22-cycle line fills.
    pub const fn i860xp() -> Self {
        MemConfig {
            cache: CacheConfig::i860xp(),
            hit_cycles: 1,
            miss_cycles: 22,
            writeback_cycles: 6,
        }
    }

    /// A 256 KiB, 8-way, 64 B-line geometry, one of the cache's
    /// test geometries (its recency order is checked against the
    /// stamp-LRU reference on it). It models no particular host.
    pub const fn host_l2() -> Self {
        MemConfig {
            cache: CacheConfig {
                capacity: 256 * 1024,
                ways: 8,
                line: 64,
            },
            hit_cycles: 1,
            miss_cycles: 40,
            writeback_cycles: 10,
        }
    }

    /// Tiny geometry for unit tests.
    pub const fn tiny() -> Self {
        MemConfig {
            cache: CacheConfig::tiny(),
            hit_cycles: 1,
            miss_cycles: 10,
            writeback_cycles: 4,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::i860xp()
    }
}

/// Hit/miss counters accumulated by a [`MemModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    pub reads: u64,
    pub writes: u64,
    pub misses: u64,
    pub writebacks: u64,
    pub cycles: u64,
}

impl MemStats {
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Miss ratio over all accesses (0 when there were none).
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }

    pub fn merge(&mut self, other: &MemStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.cycles += other.cycles;
    }
}

/// One node's memory system: cache + cost accounting.
#[derive(Debug, Clone)]
pub struct MemModel {
    cfg: MemConfig,
    cache: Cache,
    stats: MemStats,
}

impl MemModel {
    pub fn new(cfg: MemConfig) -> Self {
        MemModel {
            cache: Cache::new(cfg.cache),
            cfg,
            stats: MemStats::default(),
        }
    }

    pub fn config(&self) -> MemConfig {
        self.cfg
    }

    /// Simulate a read of `addr`; returns the cycles it cost.
    #[inline]
    pub fn read(&mut self, addr: u64) -> u64 {
        self.access(addr, AccessKind::Read)
    }

    /// Simulate a write of `addr`; returns the cycles it cost.
    #[inline]
    pub fn write(&mut self, addr: u64) -> u64 {
        self.access(addr, AccessKind::Write)
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> u64 {
        let r = self.cache.access(addr, kind);
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        let mut c = self.cfg.hit_cycles;
        if !r.hit {
            self.stats.misses += 1;
            c += self.cfg.miss_cycles;
        }
        if r.writeback {
            self.stats.writebacks += 1;
            c += self.cfg.writeback_cycles;
        }
        self.stats.cycles += c;
        c
    }

    /// Cycles for a sequential sweep over `bytes` bytes starting at a
    /// line-aligned address, computed without touching the cache — used for
    /// bulk operations (portion receive copies) whose per-byte behaviour is
    /// a pure stream.
    pub fn stream_cycles(&self, bytes: u64) -> u64 {
        let line = self.cfg.cache.line as u64;
        let lines = bytes.div_ceil(line);
        let accesses = bytes / 8;
        accesses * self.cfg.hit_cycles + lines * self.cfg.miss_cycles
    }

    pub fn stats(&self) -> MemStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Flush the cache (cold restart) without clearing counters.
    pub fn flush(&mut self) {
        self.cache.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_sweep_misses_once_per_line() {
        let mut m = MemModel::new(MemConfig::tiny()); // 16 B lines
        for i in 0..32u64 {
            m.read(i * 8); // f64 stream: 2 elements per line
        }
        let s = m.stats();
        assert_eq!(s.reads, 32);
        assert_eq!(s.misses, 16);
        assert_eq!(s.cycles, 32 + 16 * 10);
    }

    #[test]
    fn repeated_access_costs_hits() {
        let mut m = MemModel::new(MemConfig::tiny());
        m.read(0);
        let before = m.stats().cycles;
        for _ in 0..10 {
            m.read(0);
        }
        assert_eq!(m.stats().cycles - before, 10);
    }

    #[test]
    fn stream_cycles_matches_simulated_stream() {
        let m = MemModel::new(MemConfig::tiny());
        let analytic = m.stream_cycles(256);
        let mut sim = MemModel::new(MemConfig::tiny());
        for i in 0..32u64 {
            sim.read(0x10000 + i * 8);
        }
        assert_eq!(analytic, sim.stats().cycles);
    }

    #[test]
    fn random_access_worse_than_sequential() {
        let cfg = MemConfig::i860xp();
        let n = 100_000usize;
        let mut seq = MemModel::new(cfg);
        for i in 0..n {
            seq.read((i as u64) * 8);
        }
        let mut rnd = MemModel::new(cfg);
        // Deterministic scatter over a footprint much larger than the cache.
        let mut x = 12345u64;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rnd.read((x % (n as u64)) * 8);
        }
        assert!(
            rnd.stats().cycles > 2 * seq.stats().cycles,
            "random {} vs sequential {}",
            rnd.stats().cycles,
            seq.stats().cycles
        );
    }

    #[test]
    fn miss_ratio_bounds() {
        let mut m = MemModel::new(MemConfig::tiny());
        assert_eq!(m.stats().miss_ratio(), 0.0);
        m.read(0);
        assert!(m.stats().miss_ratio() > 0.0 && m.stats().miss_ratio() <= 1.0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = MemStats {
            reads: 1,
            writes: 2,
            misses: 3,
            writebacks: 4,
            cycles: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.reads, 2);
        assert_eq!(a.cycles, 10);
    }
}
