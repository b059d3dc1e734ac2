//! Set-associative cache with LRU replacement.
//!
//! The cache stores tags only (no data): it answers "hit or miss" for an
//! address trace. Write policy is write-allocate / write-back, which is
//! what the i860XP data cache used; a write miss therefore behaves like a
//! read miss for timing purposes, and dirty evictions add a write-back
//! charge accounted by [`crate::MemModel`].

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Geometry of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set). `1` gives a direct-mapped cache.
    pub ways: usize,
    /// Line size in bytes; must be a power of two.
    pub line: usize,
}

impl CacheConfig {
    /// The i860XP data cache: 16 KiB, 4-way, 32-byte lines.
    pub const fn i860xp() -> Self {
        CacheConfig {
            capacity: 16 * 1024,
            ways: 4,
            line: 32,
        }
    }

    /// A tiny cache useful in tests (256 B, 2-way, 16 B lines).
    pub const fn tiny() -> Self {
        CacheConfig {
            capacity: 256,
            ways: 2,
            line: 16,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * self.line)
    }
}

/// A way's packed entry: `tag << 1 | DIRTY`.
const DIRTY: u64 = 1;

/// An invalid way: clean, so evicting it costs no write-back, and with a
/// tag field no address reaches, since `new` requires lines of at least
/// 4 bytes and tags and line addresses therefore stay below `2^62`.
const EMPTY: u64 = !DIRTY;
/// `last_line` before the first access after construction or a flush.
const NO_LINE: u64 = u64::MAX;

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    pub hit: bool,
    /// A dirty line was evicted to make room (costs a write-back).
    pub writeback: bool,
}

/// A set-associative cache simulated per access.
///
/// Each set keeps its ways in recency order, most recent first: a hit
/// moves its way to the front and a miss evicts the last way. This is
/// exactly LRU with "fill an invalid way first". Ways only become
/// invalid all at once (a flush), and a miss shifts the whole set back
/// by one, so the invalid ways of a set always sit at its back: a miss
/// in a set that is not full evicts an invalid way, and one in a full
/// set evicts the least recently touched line. Which physical way a
/// line would occupy is not observable through `access`,
/// `valid_lines` or the write-back flags.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets × ways` packed entries; set `s` is `ways[s·w .. (s+1)·w]`.
    ways: Vec<u64>,
    line_shift: u32,
    set_mask: u64,
    /// `line_shift` plus the set-index bits.
    tag_shift: u32,
    /// Line address of the previous access, and the index of the front
    /// way of its set, where that line now sits. About half the
    /// simulator's accesses touch the line the access before did.
    last_line: u64,
    last_front: usize,
}

impl Cache {
    /// Build a cache; panics if the geometry is degenerate (zero sets,
    /// non-power-of-two line size, lines under 4 bytes).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.line >= 4, "line size must be at least 4 bytes");
        assert!(cfg.ways >= 1, "need at least one way");
        let sets = cfg.sets();
        assert!(sets >= 1, "geometry implies zero sets");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let line_shift = cfg.line.trailing_zeros();
        Cache {
            cfg,
            ways: vec![EMPTY; sets * cfg.ways],
            line_shift,
            set_mask: (sets - 1) as u64,
            tag_shift: line_shift + sets.trailing_zeros(),
            last_line: NO_LINE,
            last_front: 0,
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Simulate one access; returns hit/miss and whether a dirty line was
    /// evicted.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let dirty = u64::from(kind == AccessKind::Write);
        let line = addr >> self.line_shift;
        if line == self.last_line {
            self.ways[self.last_front] |= dirty;
            return AccessResult {
                hit: true,
                writeback: false,
            };
        }
        let w = self.cfg.ways;
        let front = (line & self.set_mask) as usize * w;
        self.last_line = line;
        self.last_front = front;
        let set = &mut self.ways[front..front + w];
        let tag = addr >> self.tag_shift;
        let hit = set.iter().position(|&e| e >> 1 == tag);
        // A hit rotates its own way to the front; a miss rotates the
        // last way out.
        let (end, mut carry) = match hit {
            Some(i) => (i, set[i] | dirty),
            None => (w - 1, tag << 1 | dirty),
        };
        for e in &mut set[..=end] {
            carry = std::mem::replace(e, carry);
        }
        AccessResult {
            hit: hit.is_some(),
            writeback: hit.is_none() && carry & DIRTY != 0,
        }
    }

    /// Invalidate the whole cache (e.g., between independent experiments).
    pub fn flush(&mut self) {
        self.ways.fill(EMPTY);
        self.last_line = NO_LINE;
    }

    /// Number of currently valid lines (for tests / introspection).
    pub fn valid_lines(&self) -> usize {
        self.ways.iter().filter(|&&e| e != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig::tiny())
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100, AccessKind::Read).hit);
        assert!(c.access(0x100, AccessKind::Read).hit);
        // Same line, different byte.
        assert!(c.access(0x10f, AccessKind::Read).hit);
        // Next line.
        assert!(!c.access(0x110, AccessKind::Read).hit);
    }

    #[test]
    fn spatial_locality_within_line() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        for b in 1..16u64 {
            assert!(c.access(b, AccessKind::Read).hit, "byte {b} should hit");
        }
        assert!(!c.access(16, AccessKind::Read).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // tiny: 256 B / (2 ways * 16 B) = 8 sets. Three lines mapping to
        // set 0: line addresses 0, 8, 16 (i.e., byte addrs 0, 128, 256).
        let mut c = tiny();
        c.access(0, AccessKind::Read); // A
        c.access(128, AccessKind::Read); // B — set 0 now {A, B}
        c.access(0, AccessKind::Read); // touch A, B becomes LRU
        c.access(256, AccessKind::Read); // C evicts B
        assert!(c.access(0, AccessKind::Read).hit, "A survives");
        assert!(!c.access(128, AccessKind::Read).hit, "B was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(CacheConfig {
            capacity: 32,
            ways: 1,
            line: 16,
        }); // 2 sets, direct-mapped
        c.access(0, AccessKind::Write);
        let r = c.access(32, AccessKind::Read); // same set 0, evicts dirty line
        assert!(!r.hit);
        assert!(r.writeback);
        let r2 = c.access(64, AccessKind::Read); // evicts clean line
        assert!(!r2.hit);
        assert!(!r2.writeback);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(512, AccessKind::Write);
        assert_eq!(c.valid_lines(), 2);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.access(0, AccessKind::Read).hit);
    }

    #[test]
    fn capacity_bound_respected() {
        let cfg = CacheConfig::tiny();
        let mut c = Cache::new(cfg);
        // Touch far more distinct lines than fit.
        for i in 0..64u64 {
            c.access(i * cfg.line as u64, AccessKind::Read);
        }
        assert!(c.valid_lines() <= cfg.capacity / cfg.line);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            capacity: 64,
            ways: 1,
            line: 16,
        }); // 4 sets
            // Two addresses 64 apart conflict in a 4-set direct-mapped cache.
        assert!(!c.access(0, AccessKind::Read).hit);
        assert!(!c.access(64, AccessKind::Read).hit);
        assert!(!c.access(0, AccessKind::Read).hit, "ping-pong conflict");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line() {
        Cache::new(CacheConfig {
            capacity: 256,
            ways: 2,
            line: 24,
        });
    }
}
