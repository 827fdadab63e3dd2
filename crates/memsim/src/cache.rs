//! A single set-associative cache level with true-LRU replacement.

use std::fmt;

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Line size in bytes; must be a power of two.
    pub line_size: u32,
    /// Number of sets; must be a power of two.
    pub sets: u32,
    /// Associativity (ways per set); must be non-zero.
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a config, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` or `sets` is not a power of two, or `ways` is 0.
    pub fn new(line_size: u32, sets: u32, ways: u32) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "associativity must be non-zero");
        Self {
            line_size,
            sets,
            ways,
        }
    }
}

/// Cumulative statistics for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups performed.
    pub accesses: u64,
    /// Lookups that found the line resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Resident lines displaced to make room.
    pub evictions: u64,
    /// Dirty lines written back on eviction or flush.
    pub writebacks: u64,
    /// Lines invalidated by flush operations.
    pub flushes: u64,
}

impl CacheStats {
    /// Miss ratio in `0.0..=1.0`; zero when no accesses occurred.
    pub(crate) fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits, {} misses ({:.2}% miss)",
            self.accesses,
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of last touch, for LRU.
    lru: u64,
}

const EMPTY_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// What a fill displaced, reported so inclusive hierarchies can back-invalidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FillOutcome {
    /// Address of the line that was evicted, if any.
    pub evicted: Option<u64>,
    /// Whether the evicted line was dirty (needs writeback).
    pub evicted_dirty: bool,
}

/// One set-associative cache level.
///
/// Addresses are byte addresses; the cache works on aligned lines internally.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            lines: vec![EMPTY_LINE; (config.sets * config.ways) as usize],
            clock: 0,
            stats: CacheStats::default(),
            line_shift: config.line_size.trailing_zeros(),
            set_mask: (config.sets - 1) as u64,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn split(&self, addr: u64) -> (u64, usize) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.config.sets.trailing_zeros();
        (tag, set)
    }

    #[inline]
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.config.ways as usize;
        set * ways..(set + 1) * ways
    }

    fn line_addr_of(&self, tag: u64, set: usize) -> u64 {
        ((tag << self.config.sets.trailing_zeros()) | set as u64) << self.line_shift
    }

    /// Looks up `addr`; returns `true` on hit. On hit the line's LRU stamp is
    /// refreshed and, if `write`, the line is marked dirty. **Does not fill**
    /// on miss — the hierarchy decides fills so it can model inclusion.
    pub(crate) fn probe(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let (tag, set) = self.split(addr);
        let clock = self.clock;
        for i in self.set_range(set) {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.lru = clock;
                if write {
                    line.dirty = true;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Standalone single-level access: probes and fills on miss.
    ///
    /// Returns `true` on hit. Use [`Hierarchy`](crate::Hierarchy) for
    /// multi-level behaviour; this is for using one cache level directly.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        let hit = self.probe(addr, write);
        if !hit {
            let _ = self.fill(addr, write);
        }
        hit
    }

    /// Checks residency without updating LRU or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (tag, set) = self.split(addr);
        self.set_range(set)
            .any(|i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// Installs the line for `addr`, evicting the LRU way if the set is full.
    pub(crate) fn fill(&mut self, addr: u64, write: bool) -> FillOutcome {
        self.clock += 1;
        let (tag, set) = self.split(addr);
        let range = self.set_range(set);
        // Prefer an invalid way; otherwise evict the least recently used.
        let mut victim = range.start;
        let mut best_lru = u64::MAX;
        for i in range {
            let line = &self.lines[i];
            if !line.valid {
                victim = i;
                break;
            }
            if line.lru < best_lru {
                best_lru = line.lru;
                victim = i;
            }
        }
        let old = self.lines[victim];
        let outcome = if old.valid {
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.writebacks += 1;
            }
            FillOutcome {
                evicted: Some(self.line_addr_of(old.tag, set)),
                evicted_dirty: old.dirty,
            }
        } else {
            FillOutcome {
                evicted: None,
                evicted_dirty: false,
            }
        };
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        outcome
    }

    /// Invalidates the line containing `addr` (the `clflush` primitive).
    ///
    /// Returns `true` if a line was present; dirty lines count a writeback.
    pub(crate) fn flush_line(&mut self, addr: u64) -> bool {
        let (tag, set) = self.split(addr);
        for i in self.set_range(set) {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                if line.dirty {
                    self.stats.writebacks += 1;
                }
                *line = EMPTY_LINE;
                self.stats.flushes += 1;
                return true;
            }
        }
        false
    }

    /// Invalidates everything (e.g. simulating `wbinvd`).
    pub fn flush_all(&mut self) {
        for line in &mut self.lines {
            if line.valid {
                if line.dirty {
                    self.stats.writebacks += 1;
                }
                self.stats.flushes += 1;
            }
            *line = EMPTY_LINE;
        }
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig::new(64, 2, 2))
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_line_panics() {
        CacheConfig::new(48, 2, 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.probe(0x100, false));
        c.fill(0x100, false);
        assert!(c.probe(0x100, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = tiny();
        c.fill(0x100, false);
        assert!(c.probe(0x13F, false), "byte 63 of the same 64B line");
        assert!(!c.probe(0x140, false), "next line misses");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set index = (addr >> 6) & 1. Use set 0: line addrs 0x000, 0x080... no:
        // addresses with (addr>>6) even map to set 0: 0x000, 0x100, 0x200, 0x300.
        c.fill(0x000, false);
        c.fill(0x100, false);
        assert!(c.probe(0x000, false)); // refresh 0x000; 0x100 becomes LRU
        let out = c.fill(0x200, false);
        assert_eq!(out.evicted, Some(0x100));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn fill_prefers_invalid_ways() {
        let mut c = tiny();
        c.fill(0x000, false);
        let out = c.fill(0x100, false);
        assert_eq!(out.evicted, None);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.fill(0x000, true); // dirty
        c.fill(0x100, false);
        let out = c.fill(0x200, false); // evicts dirty 0x000 (LRU)
        assert_eq!(out.evicted, Some(0x000));
        assert!(out.evicted_dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert!(c.probe(0x000, true));
        c.fill(0x100, false);
        let out = c.fill(0x200, false);
        assert!(out.evicted_dirty, "write hit dirtied the line");
    }

    #[test]
    fn flush_line_invalidates() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert!(c.flush_line(0x020)); // same line, different byte
        assert!(!c.contains(0x000));
        assert!(!c.flush_line(0x000), "second flush finds nothing");
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn flush_all_clears_everything() {
        let mut c = tiny();
        c.fill(0x000, true);
        c.fill(0x040, false);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().flushes, 2);
    }

    #[test]
    fn contains_does_not_disturb_lru_or_stats() {
        let mut c = tiny();
        c.fill(0x000, false);
        c.fill(0x100, false);
        let before = c.stats();
        assert!(c.contains(0x000));
        assert_eq!(c.stats(), before);
        // 0x000 is still LRU (contains didn't refresh it).
        let out = c.fill(0x200, false);
        assert_eq!(out.evicted, Some(0x000));
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = tiny();
        // Set 1 addresses: 0x040, 0x0C0, 0x140...
        c.fill(0x040, false);
        c.fill(0x0C0, false);
        c.fill(0x140, false); // evicts within set 1 only
        assert!(c.contains(0x140));
        // Set 0 untouched.
        c.fill(0x000, false);
        assert!(c.contains(0x000));
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.probe(0x0, false);
        c.fill(0x0, false);
        c.probe(0x0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
