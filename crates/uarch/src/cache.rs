//! Set-associative cache hierarchy with LRU replacement, inclusive
//! levels, a next-line prefetcher, and a flat DRAM latency — the memory
//! system of the paper's Table 3.

/// Parameters of one cache level.
///
/// The line size and the set count `size / (ways * line)` must both
/// be powers of two, so a set is picked with a mask and a line with a
/// shift; [`CacheHierarchy::new`] panics otherwise, naming the level.
/// Every level is indexed by the L1D line, so the outer levels' `line`
/// only sets their set count.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Access latency in cycles (total load-to-use at this level).
    pub latency: u32,
}

impl CacheConfig {
    fn sets(&self) -> usize {
        self.size / (self.ways * self.line)
    }
}

/// Memory hierarchy parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct MemConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Additional DRAM latency in cycles beyond an LLC miss.
    pub dram_latency: u32,
    /// Next-line prefetch degree on a miss (0 disables).
    pub prefetch_degree: u32,
}

impl MemConfig {
    /// Snapdragon 855 Prime-core hierarchy (paper Table 3):
    /// L1D 64 KiB/4-way/4 cycles, L2 512 KiB/8-way/9 cycles,
    /// LLC 2 MiB/8-way/31 cycles.
    pub fn snapdragon855() -> MemConfig {
        MemConfig {
            l1d: CacheConfig {
                size: 64 << 10,
                ways: 4,
                line: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size: 512 << 10,
                ways: 8,
                line: 64,
                latency: 9,
            },
            llc: CacheConfig {
                size: 2 << 20,
                ways: 8,
                line: 64,
                latency: 31,
            },
            dram_latency: 130,
            prefetch_degree: 3,
        }
    }
}

/// Hit/miss counters for one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (prefetches excluded).
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per kilo-instruction for a run of `instrs` instructions
    /// (the paper's MPKI metric, Table 5).
    pub fn mpki(&self, instrs: u64) -> f64 {
        if instrs == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instrs as f64
        }
    }
}

/// One set-associative cache level, stored flat: `sets × ways` line
/// tags, set `s` at `tags[s * ways..][..ways]`, most-recent-first,
/// with the first `fill[s]` ways valid. Every operation is a scan and
/// an in-place rotation within one set's slice, so the level never
/// allocates after construction.
#[derive(Debug)]
struct Level {
    latency: u32,
    ways: usize,
    /// `sets - 1`; the set count is a power of two.
    mask: u64,
    tags: Vec<u64>,
    fill: Vec<u32>,
    stats: CacheStats,
}

impl Level {
    fn new(name: &str, cfg: &CacheConfig) -> Level {
        assert!(
            cfg.line.is_power_of_two(),
            "{name}: line size {} is not a power of two",
            cfg.line
        );
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "{name}: set count {sets} (size {} / ({} ways x {} B lines)) is not a power of two",
            cfg.size,
            cfg.ways,
            cfg.line
        );
        Level {
            latency: cfg.latency,
            ways: cfg.ways,
            mask: sets as u64 - 1,
            tags: vec![0; sets * cfg.ways],
            fill: vec![0; sets],
            stats: CacheStats::default(),
        }
    }

    /// The set a line maps to: its index and the offset of its ways in
    /// `tags`.
    fn locate(&self, line: u64) -> (usize, usize) {
        let si = (line & self.mask) as usize;
        (si, si * self.ways)
    }

    /// Look up a line; on hit promote to MRU. Returns hit.
    fn probe(&mut self, line: u64, demand: bool) -> bool {
        if demand {
            self.stats.accesses += 1;
        }
        let (si, base) = self.locate(line);
        let set = &mut self.tags[base..base + self.fill[si] as usize];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[..=pos].rotate_right(1);
            true
        } else {
            if demand {
                self.stats.misses += 1;
            }
            false
        }
    }

    /// Insert a line as MRU, evicting LRU if needed. Returns the
    /// evicted line, if any. A resident line is left where it is.
    fn fill(&mut self, line: u64) -> Option<u64> {
        let (si, base) = self.locate(line);
        let set = &mut self.tags[base..base + self.ways];
        let n = self.fill[si] as usize;
        if set[..n].contains(&line) {
            return None;
        }
        let victim = if n == self.ways {
            Some(set[n - 1])
        } else {
            self.fill[si] += 1;
            None
        };
        // Shift the valid ways down one (dropping the LRU when full).
        set[..n.min(self.ways - 1) + 1].rotate_right(1);
        set[0] = line;
        victim
    }

    /// Drop a line if resident, keeping the other ways in order.
    fn invalidate(&mut self, line: u64) {
        let (si, base) = self.locate(line);
        let set = &mut self.tags[base..base + self.fill[si] as usize];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[pos..].rotate_left(1);
            self.fill[si] -= 1;
        }
    }
}

/// The three-level hierarchy plus DRAM-access counting. All levels are
/// tagged by line index (`addr >> line_shift`, the L1D line size).
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: Level,
    l2: Level,
    llc: Level,
    line_shift: u32,
    dram_latency: u32,
    prefetch_degree: u32,
    dram_accesses: u64,
}

impl CacheHierarchy {
    /// Build a hierarchy from a [`MemConfig`], allocating all cache
    /// state up front.
    ///
    /// # Panics
    ///
    /// If a level's line size or set count is not a power of two (see
    /// [`CacheConfig`]); the message names the level.
    pub fn new(cfg: &MemConfig) -> CacheHierarchy {
        CacheHierarchy {
            l1: Level::new("l1d", &cfg.l1d),
            l2: Level::new("l2", &cfg.l2),
            llc: Level::new("llc", &cfg.llc),
            line_shift: cfg.l1d.line.trailing_zeros(),
            dram_latency: cfg.dram_latency,
            prefetch_degree: cfg.prefetch_degree,
            dram_accesses: 0,
        }
    }

    /// Access one cache line (by byte address); returns the load-to-use
    /// latency in cycles. Stores update state identically but their
    /// latency is hidden by the store buffer in the core model.
    pub fn access_line(&mut self, addr: u64) -> u32 {
        self.demand_line(addr >> self.line_shift)
    }

    /// Demand access of one line index, with next-line prefetch on a
    /// miss anywhere.
    fn demand_line(&mut self, line: u64) -> u32 {
        let lat = self.access_line_inner(line, true);
        if lat > self.l1.latency {
            for d in 1..=self.prefetch_degree as u64 {
                self.prefetch_line(line + d);
            }
        }
        lat
    }

    fn access_line_inner(&mut self, line: u64, demand: bool) -> u32 {
        if self.l1.probe(line, demand) {
            return self.l1.latency;
        }
        let lat = if self.l2.probe(line, demand) {
            self.l2.latency
        } else if self.llc.probe(line, demand) {
            self.llc.latency
        } else {
            if demand {
                self.dram_accesses += 1;
            }
            self.llc.latency + self.dram_latency
        };
        // Fill inclusively; LLC evictions back-invalidate inner levels.
        if let Some(victim) = self.llc.fill(line) {
            self.l2.invalidate(victim);
            self.l1.invalidate(victim);
        }
        if let Some(victim) = self.l2.fill(line) {
            self.l1.invalidate(victim);
        }
        self.l1.fill(line);
        lat
    }

    fn prefetch_line(&mut self, line: u64) {
        if !self.l1.probe(line, false) {
            if !self.l2.probe(line, false) && !self.llc.probe(line, false) {
                self.dram_accesses += 1;
                if let Some(victim) = self.llc.fill(line) {
                    self.l2.invalidate(victim);
                    self.l1.invalidate(victim);
                }
            }
            if let Some(victim) = self.l2.fill(line) {
                self.l1.invalidate(victim);
            }
            self.l1.fill(line);
        }
    }

    /// Access a byte range, touching every line it covers; returns the
    /// worst line latency plus one extra cycle per additional line.
    pub fn access(&mut self, addr: u64, bytes: u32) -> u32 {
        let first = addr >> self.line_shift;
        let last = (addr + bytes.max(1) as u64 - 1) >> self.line_shift;
        let mut worst = 0;
        for line in first..=last {
            worst = worst.max(self.demand_line(line));
        }
        worst + (last - first) as u32
    }

    /// Per-level statistics `(l1, l2, llc)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1.stats, self.l2.stats, self.llc.stats)
    }

    /// Demand + prefetch DRAM accesses so far.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Reset statistics (keep cache contents) — used between the
    /// warm-up replay and the timed run.
    pub fn reset_stats(&mut self) {
        self.l1.stats = CacheStats::default();
        self.l2.stats = CacheStats::default();
        self.llc.stats = CacheStats::default();
        self.dram_accesses = 0;
    }
}

/// A direct implementation of the same hierarchy — one heap `Vec` per
/// set, `remove`/`insert` for LRU order, divisions for the line and set
/// index — kept as the reference the flat [`CacheHierarchy`] is checked
/// against.
#[cfg(test)]
mod reference {
    use super::{CacheConfig, CacheStats, MemConfig};

    /// One set-associative cache level; tags ordered most-recent-first.
    #[derive(Debug)]
    struct Level {
        cfg: CacheConfig,
        sets: Vec<Vec<u64>>, // line tags, MRU at index 0
        stats: CacheStats,
    }

    impl Level {
        fn new(cfg: CacheConfig) -> Level {
            let sets = vec![Vec::new(); cfg.sets()];
            Level {
                cfg,
                sets,
                stats: CacheStats::default(),
            }
        }

        fn set_index(&self, line_addr: u64) -> usize {
            (line_addr as usize) % self.sets.len()
        }

        /// Look up a line; on hit promote to MRU. Returns hit.
        fn probe(&mut self, line_addr: u64, demand: bool) -> bool {
            if demand {
                self.stats.accesses += 1;
            }
            let si = self.set_index(line_addr);
            let set = &mut self.sets[si];
            if let Some(pos) = set.iter().position(|&t| t == line_addr) {
                let t = set.remove(pos);
                set.insert(0, t);
                true
            } else {
                if demand {
                    self.stats.misses += 1;
                }
                false
            }
        }

        /// Insert a line as MRU, evicting LRU if needed. Returns the
        /// evicted line, if any.
        fn fill(&mut self, line_addr: u64) -> Option<u64> {
            let ways = self.cfg.ways;
            let si = self.set_index(line_addr);
            let set = &mut self.sets[si];
            if set.contains(&line_addr) {
                return None;
            }
            set.insert(0, line_addr);
            if set.len() > ways {
                set.pop()
            } else {
                None
            }
        }

        fn invalidate(&mut self, line_addr: u64) {
            let si = self.set_index(line_addr);
            self.sets[si].retain(|&t| t != line_addr);
        }
    }

    /// The three-level hierarchy plus DRAM-access counting.
    #[derive(Debug)]
    pub struct CacheHierarchy {
        l1: Level,
        l2: Level,
        llc: Level,
        dram_latency: u32,
        prefetch_degree: u32,
        dram_accesses: u64,
        prefetches: u64,
    }

    impl CacheHierarchy {
        /// Build a hierarchy from a [`MemConfig`].
        pub fn new(cfg: &MemConfig) -> CacheHierarchy {
            CacheHierarchy {
                l1: Level::new(cfg.l1d.clone()),
                l2: Level::new(cfg.l2.clone()),
                llc: Level::new(cfg.llc.clone()),
                dram_latency: cfg.dram_latency,
                prefetch_degree: cfg.prefetch_degree,
                dram_accesses: 0,
                prefetches: 0,
            }
        }

        /// Access one cache line (by byte address); returns the load-to-use
        /// latency in cycles. Stores update state identically but their
        /// latency is hidden by the store buffer in the core model.
        pub fn access_line(&mut self, addr: u64) -> u32 {
            let line = addr / self.l1.cfg.line as u64;
            let lat = self.access_line_inner(line, true);
            if lat > self.l1.cfg.latency {
                // Miss somewhere: next-line prefetch.
                for d in 1..=self.prefetch_degree as u64 {
                    self.prefetch_line(line + d);
                }
            }
            lat
        }

        fn access_line_inner(&mut self, line: u64, demand: bool) -> u32 {
            if self.l1.probe(line, demand) {
                return self.l1.cfg.latency;
            }
            let lat = if self.l2.probe(line, demand) {
                self.l2.cfg.latency
            } else if self.llc.probe(line, demand) {
                self.llc.cfg.latency
            } else {
                if demand {
                    self.dram_accesses += 1;
                }
                self.llc.cfg.latency + self.dram_latency
            };
            // Fill inclusively; LLC evictions back-invalidate inner levels.
            if let Some(victim) = self.llc.fill(line) {
                self.l2.invalidate(victim);
                self.l1.invalidate(victim);
            }
            if let Some(victim) = self.l2.fill(line) {
                self.l1.invalidate(victim);
            }
            self.l1.fill(line);
            lat
        }

        fn prefetch_line(&mut self, line: u64) {
            self.prefetches += 1;
            if !self.l1.probe(line, false) {
                if !self.l2.probe(line, false) && !self.llc.probe(line, false) {
                    self.dram_accesses += 1;
                    if let Some(victim) = self.llc.fill(line) {
                        self.l2.invalidate(victim);
                        self.l1.invalidate(victim);
                    }
                }
                if let Some(victim) = self.l2.fill(line) {
                    self.l1.invalidate(victim);
                }
                self.l1.fill(line);
            }
        }

        /// Access a byte range, touching every line it covers; returns the
        /// worst line latency plus one extra cycle per additional line.
        pub fn access(&mut self, addr: u64, bytes: u32) -> u32 {
            let line = self.l1.cfg.line as u64;
            let first = addr / line;
            let last = (addr + bytes.max(1) as u64 - 1) / line;
            let mut worst = 0;
            for l in first..=last {
                worst = worst.max(self.access_line(l * line));
            }
            worst + (last - first) as u32
        }

        /// Per-level statistics `(l1, l2, llc)`.
        pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
            (self.l1.stats, self.l2.stats, self.llc.stats)
        }

        /// Demand + prefetch DRAM accesses so far.
        pub fn dram_accesses(&self) -> u64 {
            self.dram_accesses
        }

        /// Reset statistics (keep cache contents) — used between the
        /// warm-up replay and the timed run.
        pub fn reset_stats(&mut self) {
            self.l1.stats = CacheStats::default();
            self.l2.stats = CacheStats::default();
            self.llc.stats = CacheStats::default();
            self.dram_accesses = 0;
            self.prefetches = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        // 4 lines of 64B, direct-ish: L1 2 sets x 2 ways.
        CacheHierarchy::new(&MemConfig {
            l1d: CacheConfig {
                size: 256,
                ways: 2,
                line: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size: 1024,
                ways: 2,
                line: 64,
                latency: 9,
            },
            llc: CacheConfig {
                size: 4096,
                ways: 4,
                line: 64,
                latency: 31,
            },
            dram_latency: 100,
            prefetch_degree: 0,
        })
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut h = tiny();
        assert_eq!(h.access_line(0), 131); // cold: LLC + DRAM
        assert_eq!(h.access_line(0), 4); // L1 hit
        assert_eq!(h.access_line(8), 4); // same line
        let (l1, _, _) = h.stats();
        assert_eq!(l1.accesses, 3);
        assert_eq!(l1.misses, 1);
        assert_eq!(h.dram_accesses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut h = tiny();
        // Set 0 holds lines with even line index (2 sets): lines 0,2,4
        // map to set 0; ways=2.
        h.access_line(0); // miss
        h.access_line(2 * 64); // miss
        h.access_line(0); // hit, promotes 0
        h.access_line(4 * 64); // miss, evicts line 2 (LRU)
        assert_eq!(h.access_line(0), 4, "line 0 stayed resident");
        let l2_hit = h.access_line(2 * 64);
        assert_eq!(l2_hit, 9, "line 2 fell to L2");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = tiny();
        h.access_line(0);
        h.access_line(2 * 64);
        h.access_line(4 * 64); // evicts one of set 0 from L1 only
        let lat = h.access_line(0).min(h.access_line(2 * 64));
        assert!(lat <= 9, "evicted line still in L2");
    }

    #[test]
    fn multi_line_access_latency() {
        let mut h = tiny();
        h.access_line(0);
        h.access_line(64);
        // 128-byte access spanning two warm lines: max(4,4) + 1.
        assert_eq!(h.access(0, 128), 5);
        // Single byte: plain L1 latency.
        assert_eq!(h.access(3, 1), 4);
    }

    #[test]
    fn prefetch_hides_streaming_misses() {
        let mut pf = CacheHierarchy::new(&MemConfig {
            prefetch_degree: 3,
            ..MemConfig::snapdragon855()
        });
        let mut nopf = CacheHierarchy::new(&MemConfig {
            prefetch_degree: 0,
            ..MemConfig::snapdragon855()
        });
        for i in 0..1024u64 {
            pf.access(i * 16, 16);
            nopf.access(i * 16, 16);
        }
        let (pf1, _, _) = pf.stats();
        let (np1, _, _) = nopf.stats();
        assert!(
            pf1.misses < np1.misses / 2,
            "prefetcher should cut streaming misses: {} vs {}",
            pf1.misses,
            np1.misses
        );
    }

    #[test]
    fn inclusive_llc_eviction_invalidates_inner() {
        // LLC with 1 set x 2 ways so evictions are easy to force.
        let mut h = CacheHierarchy::new(&MemConfig {
            l1d: CacheConfig {
                size: 128,
                ways: 2,
                line: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size: 128,
                ways: 2,
                line: 64,
                latency: 9,
            },
            llc: CacheConfig {
                size: 128,
                ways: 2,
                line: 64,
                latency: 31,
            },
            dram_latency: 100,
            prefetch_degree: 0,
        });
        h.access_line(0);
        h.access_line(64);
        h.access_line(128); // LLC evicts line 0 -> back-invalidate
        let lat = h.access_line(0);
        assert_eq!(lat, 131, "line 0 must have left the whole hierarchy");
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut h = tiny();
        h.access_line(0);
        h.reset_stats();
        assert_eq!(h.stats().0.accesses, 0);
        assert_eq!(h.access_line(0), 4, "contents survive reset");
    }

    #[test]
    fn mpki_math() {
        let s = CacheStats {
            accesses: 100,
            misses: 10,
        };
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.mpki(10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "l2: set count 341")]
    fn non_power_of_two_set_count_is_rejected() {
        let mut mem = MemConfig::snapdragon855();
        mem.l2.size = 64 << 10;
        mem.l2.ways = 3;
        CacheHierarchy::new(&mem);
    }

    #[test]
    #[should_panic(expected = "l1d: line size 48")]
    fn non_power_of_two_line_is_rejected() {
        let mut mem = MemConfig::snapdragon855();
        mem.l1d.line = 48;
        mem.l1d.size = 48 * 4 * 256;
        CacheHierarchy::new(&mem);
    }

    #[test]
    fn every_registered_core_has_a_valid_hierarchy() {
        for id in crate::CoreId::ALL {
            let mut h = CacheHierarchy::new(&id.config().mem);
            assert!(h.access(0, 64) > 0, "{id}");
        }
    }

    /// One access of a random stream: sequential runs, strided walks
    /// that pile onto a few sets, reuse of recent addresses, and
    /// scattered touches, each `bytes` long (up to four lines).
    fn next_access(rng: &mut proptest::TestRng, cursor: &mut u64, recent: &[u64]) -> (u64, u32) {
        let r = rng.next_u64();
        let bytes = 1 + (r >> 8) as u32 % 256;
        let addr = match r % 4 {
            0 => {
                *cursor += 1 + (r >> 16) % 96;
                *cursor
            }
            1 => {
                // Strides of a power of two lines: set conflicts.
                *cursor += 64 << ((r >> 16) % 10);
                *cursor
            }
            2 => recent[(r >> 16) as usize % recent.len()] + (r >> 32) % 8,
            _ => (r >> 16) % (1 << 20),
        };
        (addr, bytes)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn flat_hierarchy_matches_the_reference(
            sets in proptest::collection::vec(0u32..=6, 3),
            ways in proptest::collection::vec(1usize..=8, 3),
            prefetch_degree in 0u32..=3,
            len in 1usize..=600,
            seed: u64,
        ) {
            let level = |i: usize, latency| CacheConfig {
                size: (1 << sets[i]) * ways[i] * 64,
                ways: ways[i],
                line: 64,
                latency,
            };
            let mem = MemConfig {
                l1d: level(0, 4),
                l2: level(1, 9),
                llc: level(2, 31),
                dram_latency: 100,
                prefetch_degree,
            };
            let mut flat = CacheHierarchy::new(&mem);
            let mut reference = reference::CacheHierarchy::new(&mem);
            let mut rng = proptest::TestRng::new(seed);
            let mut cursor = 0u64;
            let mut recent = [0u64; 16];
            for i in 0..len {
                let (addr, bytes) = next_access(&mut rng, &mut cursor, &recent);
                recent[i % recent.len()] = addr;
                let (got, want) = if bytes % 8 == 0 {
                    (flat.access_line(addr), reference.access_line(addr))
                } else {
                    (flat.access(addr, bytes), reference.access(addr, bytes))
                };
                let at = format!("{mem:?} access {i}: {addr:#x}+{bytes}");
                proptest::prop_assert_eq!(got, want, "latency at {}", at);
                proptest::prop_assert_eq!(flat.stats(), reference.stats(), "stats at {}", at);
                proptest::prop_assert_eq!(
                    flat.dram_accesses(),
                    reference.dram_accesses(),
                    "dram at {}",
                    at
                );
                if bytes == 256 {
                    flat.reset_stats();
                    reference.reset_stats();
                }
            }
        }
    }
}
