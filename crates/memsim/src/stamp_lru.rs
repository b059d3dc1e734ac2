//! The reference the recency-ordered [`Cache`] is checked against: a
//! set-associative cache that keeps `{tag, valid, dirty, stamp}` per way
//! and a global access clock, and evicts the first invalid way, else the
//! way with the smallest stamp. Stamps are unique, so this is true LRU.

use crate::cache::{AccessKind, AccessResult, CacheConfig};

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotone timestamp of last touch, for LRU.
    stamp: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    stamp: 0,
};

#[derive(Debug, Clone)]
pub(crate) struct StampCache {
    ways: usize,
    lines: Vec<Line>,
    set_shift: u32,
    set_mask: u64,
    clock: u64,
}

impl StampCache {
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        StampCache {
            ways: cfg.ways,
            lines: vec![INVALID; sets * cfg.ways],
            set_shift: cfg.line.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            clock: 0,
        }
    }

    pub(crate) fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        self.clock += 1;
        let line_addr = addr >> self.set_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let base = set * self.ways;
        let ways = &mut self.lines[base..base + self.ways];

        for l in ways.iter_mut() {
            if l.valid && l.tag == tag {
                l.stamp = self.clock;
                if kind == AccessKind::Write {
                    l.dirty = true;
                }
                return AccessResult {
                    hit: true,
                    writeback: false,
                };
            }
        }

        let mut victim = 0usize;
        let mut best = u64::MAX;
        for (i, l) in ways.iter().enumerate() {
            if !l.valid {
                victim = i;
                break;
            }
            if l.stamp < best {
                best = l.stamp;
                victim = i;
            }
        }
        let writeback = ways[victim].valid && ways[victim].dirty;
        ways[victim] = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            stamp: self.clock,
        };
        AccessResult {
            hit: false,
            writeback,
        }
    }

    pub(crate) fn flush(&mut self) {
        self.lines.fill(INVALID);
    }

    pub(crate) fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// Differential property: the recency-ordered cache and [`MemModel`]
/// built on it agree with the stamp reference on every access.
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::model::{MemConfig, MemModel, MemStats};
    use harness::prop::{check, Config, Gen};
    use harness::prop_assert_eq;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(u64, AccessKind),
        Flush,
    }

    /// The four geometries: 2-way `tiny`, a direct-mapped cache, the
    /// 4-way i860XP and the 8-way host L2.
    fn geometries() -> [MemConfig; 4] {
        let direct = MemConfig {
            cache: CacheConfig {
                capacity: 1024,
                ways: 1,
                line: 32,
            },
            ..MemConfig::i860xp()
        };
        [
            MemConfig::tiny(),
            direct,
            MemConfig::i860xp(),
            MemConfig::host_l2(),
        ]
    }

    /// A trace biased toward runs on one line and toward storms of
    /// distinct tags in one set, with occasional flushes, uniform
    /// addresses over four times the capacity, and arbitrary 64-bit
    /// addresses.
    fn trace(g: &mut Gen, cfg: CacheConfig) -> Vec<Op> {
        let (line, sets, ways) = (cfg.line as u64, cfg.sets() as u64, cfg.ways as u64);
        let mut prev = 0u64;
        g.vec(0, 3000, |g| {
            if g.prob(0.01) {
                return Op::Flush;
            }
            let kind = if g.prob(0.4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let off = g.u64_in(0..line);
            let line_addr = match g.usize_in(0..8) {
                0..=2 => prev / line,
                3..=5 => {
                    let set = (prev / line) % sets;
                    g.u64_in(0..2 * ways + 2) * sets + set
                }
                6 => g.u64_in(0..4 * sets * ways),
                _ => g.u64_any() / line,
            };
            prev = line_addr * line + off;
            Op::Access(prev, kind)
        })
    }

    /// The stats a [`MemModel`] must report for a stream of results.
    fn tally(cfg: &MemConfig, stats: &mut MemStats, kind: AccessKind, r: AccessResult) {
        match kind {
            AccessKind::Read => stats.reads += 1,
            AccessKind::Write => stats.writes += 1,
        }
        stats.cycles += cfg.hit_cycles;
        if !r.hit {
            stats.misses += 1;
            stats.cycles += cfg.miss_cycles;
        }
        if r.writeback {
            stats.writebacks += 1;
            stats.cycles += cfg.writeback_cycles;
        }
    }

    #[test]
    fn recency_cache_equals_stamp_lru() {
        check(
            "recency_cache_equals_stamp_lru",
            Config::cases(256),
            |g: &mut Gen| {
                let cfg = *g.pick(&geometries());
                (cfg, trace(g, cfg.cache))
            },
            |(cfg, ops)| {
                let mut cache = Cache::new(cfg.cache);
                let mut oracle = StampCache::new(cfg.cache);
                let mut model = MemModel::new(*cfg);
                let mut want = MemStats::default();
                for (i, &op) in ops.iter().enumerate() {
                    match op {
                        Op::Access(addr, kind) => {
                            let r = oracle.access(addr, kind);
                            prop_assert_eq!(cache.access(addr, kind), r, "op {i}: {addr:#x}");
                            tally(cfg, &mut want, kind, r);
                            match kind {
                                AccessKind::Read => model.read(addr),
                                AccessKind::Write => model.write(addr),
                            };
                        }
                        Op::Flush => {
                            prop_assert_eq!(cache.valid_lines(), oracle.valid_lines());
                            cache.flush();
                            oracle.flush();
                            model.flush();
                            prop_assert_eq!(cache.valid_lines(), 0);
                        }
                    }
                }
                prop_assert_eq!(cache.valid_lines(), oracle.valid_lines());
                prop_assert_eq!(model.stats(), want);
                Ok(())
            },
        );
    }
}
