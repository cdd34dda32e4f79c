//! Set-associative cache array with LRU replacement.
//!
//! The array tracks tags and dirty bits only — the simulator never models
//! data values. Timing lives in [`crate::hierarchy`].

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    pub line_addr: u64,
    pub dirty: bool,
}

/// Tag value marking an empty way. Line addresses are bounded far below
/// this (a handful of region bits per core), so no real line collides.
const INVALID_TAG: u64 = u64::MAX;

/// One set-associative tag array.
///
/// Stored structure-of-arrays: simulated caches are tens of megabytes of
/// way state probed at random, so every probe is a *host* cache miss per
/// touched line. Packing the tags densely (8 B per way, validity encoded
/// as [`INVALID_TAG`]) makes a 16-way presence scan touch two host lines
/// instead of six; stamps and dirty bits are only touched on hits, fills,
/// and evictions.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// Way tags, sets × assoc row-major; `INVALID_TAG` = empty way.
    tags: Vec<u64>,
    /// LRU stamps, parallel to `tags`: higher = more recently used.
    stamps: Vec<u64>,
    /// Dirty bits, parallel to `tags`.
    dirty: Vec<bool>,
    assoc: usize,
    set_shift: u32, // unused bits below the set index (0: input is a line addr)
    set_mask: u64,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
}

impl CacheArray {
    /// Build a cache of `capacity_bytes` with 64 B lines.
    ///
    /// `capacity_bytes` must give a power-of-two number of sets.
    pub fn new(capacity_bytes: u64, assoc: usize) -> Self {
        assert!(assoc > 0);
        let lines = capacity_bytes / 64;
        assert!(lines >= assoc as u64, "capacity too small for associativity");
        let sets = lines / assoc as u64;
        assert!(sets.is_power_of_two(), "sets must be a power of two (got {sets})");
        let ways = coaxial_sim::idx(sets * assoc as u64);
        Self {
            tags: vec![INVALID_TAG; ways],
            stamps: vec![0; ways],
            dirty: vec![false; ways],
            assoc,
            set_shift: 0,
            set_mask: sets - 1,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn num_sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Approximate heap footprint of this array's tag metadata, in bytes
    /// (used to budget byte-bounded caches of warmed cache state).
    pub fn approx_heap_bytes(&self) -> u64 {
        (self.tags.len() * (2 * std::mem::size_of::<u64>() + std::mem::size_of::<bool>())) as u64
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.tags.len() as u64 * 64
    }

    #[inline]
    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let set = coaxial_sim::idx((line_addr >> self.set_shift) & self.set_mask);
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Index of the way holding `line_addr`, if present.
    #[inline]
    fn probe(&self, line_addr: u64) -> Option<usize> {
        debug_assert_ne!(line_addr, INVALID_TAG);
        let r = self.set_range(line_addr);
        self.tags[r.clone()].iter().position(|&t| t == line_addr).map(|p| r.start + p)
    }

    /// Look up a line; updates LRU and hit/miss counters on a demand access.
    #[inline]
    pub fn lookup(&mut self, line_addr: u64) -> bool {
        self.clock += 1;
        if let Some(i) = self.probe(line_addr) {
            self.stamps[i] = self.clock;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Non-destructive presence check (no LRU update, no counters). Used by
    /// the CALM oracle and by coherence assertions in tests.
    #[inline]
    pub fn peek(&self, line_addr: u64) -> bool {
        self.probe(line_addr).is_some()
    }

    /// Whether a present line is dirty.
    pub fn peek_dirty(&self, line_addr: u64) -> bool {
        self.probe(line_addr).is_some_and(|i| self.dirty[i])
    }

    /// Insert (or refresh) a line; returns the victim if a valid line was
    /// displaced. If the line is already present, only LRU/dirty state is
    /// updated and no eviction happens.
    pub fn fill(&mut self, line_addr: u64, dirty: bool) -> Option<Evicted> {
        self.clock += 1;
        // Already present: refresh.
        if let Some(i) = self.probe(line_addr) {
            self.stamps[i] = self.clock;
            self.dirty[i] |= dirty;
            return None;
        }
        self.insert(self.set_range(line_addr), line_addr, dirty)
    }

    /// [`CacheArray::fill`] for a line the caller has already proven absent
    /// (e.g. via [`CacheArray::peek`]): skips the presence scan but matches
    /// `fill`'s state transitions exactly, including the LRU clock advance.
    /// The prefill fast path leans on this to halve its tag-scan work.
    pub fn fill_absent(&mut self, line_addr: u64, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.peek(line_addr), "fill_absent on a present line");
        self.clock += 1;
        let range = self.set_range(line_addr);
        self.insert(range, line_addr, dirty)
    }

    /// Choose an invalid way or the LRU victim in `range` and install the
    /// line there, stamped with the current clock.
    #[inline]
    fn insert(
        &mut self,
        range: std::ops::Range<usize>,
        line_addr: u64,
        dirty: bool,
    ) -> Option<Evicted> {
        let mut victim = range.start;
        let mut best = u64::MAX;
        for i in range {
            if self.tags[i] == INVALID_TAG {
                victim = i;
                break;
            }
            if self.stamps[i] < best {
                best = self.stamps[i];
                victim = i;
            }
        }
        let evicted = if self.tags[victim] != INVALID_TAG {
            Some(Evicted { line_addr: self.tags[victim], dirty: self.dirty[victim] })
        } else {
            None
        };
        self.tags[victim] = line_addr;
        self.stamps[victim] = self.clock;
        self.dirty[victim] = dirty;
        evicted
    }

    /// Functional-warmup accessor: one scan that answers "present?" and, for
    /// a present line, ORs in `dirty`. Equivalent to `peek` followed by a
    /// conditional `mark_dirty`, with neither LRU nor counter updates —
    /// prefill is functional, not timed.
    #[inline]
    pub fn prefill_touch(&mut self, line_addr: u64, dirty: bool) -> bool {
        if let Some(i) = self.probe(line_addr) {
            self.dirty[i] |= dirty;
            true
        } else {
            false
        }
    }

    /// Mark a present line dirty; returns whether the line was found.
    pub fn mark_dirty(&mut self, line_addr: u64) -> bool {
        if let Some(i) = self.probe(line_addr) {
            self.dirty[i] = true;
            true
        } else {
            false
        }
    }

    /// Remove a line; returns its dirty bit if it was present.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        if let Some(i) = self.probe(line_addr) {
            self.tags[i] = INVALID_TAG;
            Some(self.dirty[i])
        } else {
            None
        }
    }

    /// Demand hit ratio so far.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of valid dirty lines currently resident (debug/test aid).
    pub fn dirty_count(&self) -> usize {
        self.tags.iter().zip(&self.dirty).filter(|(&t, &d)| t != INVALID_TAG && d).count()
    }

    /// Number of valid lines currently resident (debug/test aid).
    pub fn valid_count(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Hint the host CPU to pull this line's tag set into its cache. Purely
    /// a performance hint for pipelined probes (the simulated arrays are
    /// tens of megabytes, so a random probe is a host memory miss); touches
    /// no simulated state.
    #[inline]
    pub fn prefetch_set(&self, line_addr: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            let r = self.set_range(line_addr);
            // SAFETY: `set_range` returns indices within `self.tags`, so
            // `as_ptr().add(r.start)` stays in bounds; `_mm_prefetch` is a
            // pure cache hint that never dereferences, so even the
            // `p.add(64)` second-line probe (still inside the allocation:
            // a 16-way set spans 128 bytes of the tag array) cannot fault.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                let p = self.tags.as_ptr().add(r.start).cast::<i8>();
                _mm_prefetch(p, _MM_HINT_T0);
                if self.assoc > 8 {
                    // A 16-way tag set spans two host lines.
                    _mm_prefetch(p.add(64), _MM_HINT_T0);
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line_addr;
    }

    /// Same sets, ways and index function as `other`.
    pub fn same_geometry(&self, other: &Self) -> bool {
        (self.assoc, self.set_shift, self.set_mask)
            == (other.assoc, other.set_shift, other.set_mask)
    }

    /// Reset hit/miss counters (end of warmup) without touching contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Append the array's complete state — geometry, LRU clock, counters,
    /// tags, stamps, bit-packed dirty bits — to a checkpoint payload (see
    /// `coaxial_sim::checkpoint`). The inverse is
    /// [`CacheArray::decode_from`]; round-tripping reproduces the array
    /// exactly, so a simulation resumed from a decoded snapshot is
    /// bit-identical to one that kept the original in memory.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use coaxial_sim::checkpoint::codec::{put_u64, put_u64s};
        put_u64(out, self.assoc as u64);
        put_u64(out, u64::from(self.set_shift));
        put_u64(out, self.set_mask);
        put_u64(out, self.clock);
        put_u64(out, self.hits);
        put_u64(out, self.misses);
        put_u64s(out, &self.tags);
        put_u64s(out, &self.stamps);
        let mut packed = vec![0u64; self.dirty.len().div_ceil(64)];
        for (i, &d) in self.dirty.iter().enumerate() {
            if d {
                packed[i / 64] |= 1 << (i % 64);
            }
        }
        put_u64s(out, &packed);
    }

    /// Decode an array encoded by [`CacheArray::encode_into`]. Returns
    /// `None` on any structural inconsistency (bad geometry, mismatched
    /// lengths, non-canonical dirty padding) so corrupt checkpoint files
    /// read as cache misses rather than corrupt simulations.
    pub fn decode_from(r: &mut coaxial_sim::checkpoint::codec::Reader<'_>) -> Option<Self> {
        let assoc = usize::try_from(r.u64()?).ok()?;
        let set_shift = u32::try_from(r.u64()?).ok()?;
        let set_mask = r.u64()?;
        let clock = r.u64()?;
        let hits = r.u64()?;
        let misses = r.u64()?;
        let tags = r.u64s()?;
        let stamps = r.u64s()?;
        let packed = r.u64s()?;
        let sets = set_mask.checked_add(1)?;
        if assoc == 0 || !sets.is_power_of_two() {
            return None;
        }
        let ways = usize::try_from(sets).ok()?.checked_mul(assoc)?;
        if tags.len() != ways || stamps.len() != ways || packed.len() != ways.div_ceil(64) {
            return None;
        }
        // Reject non-zero padding bits: encode packs exactly `ways` bits,
        // so canonical payloads are unique per state.
        if ways % 64 != 0 {
            let last = *packed.last()?;
            if last >> (ways % 64) != 0 {
                return None;
            }
        }
        let dirty = (0..ways).map(|i| packed[i / 64] >> (i % 64) & 1 != 0).collect();
        Some(Self { tags, stamps, dirty, assoc, set_shift, set_mask, clock, hits, misses })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 4 sets × 2 ways.
        CacheArray::new(8 * 64, 2)
    }

    #[test]
    fn geometry() {
        let c = CacheArray::new(32 * 1024, 8);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.capacity_bytes(), 32 * 1024);
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
        assert!(!c.lookup(5));
        c.fill(5, false);
        assert!(c.lookup(5));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn peek_does_not_disturb_state() {
        let mut c = small();
        c.fill(5, false);
        let before = (c.hits, c.misses);
        assert!(c.peek(5));
        assert!(!c.peek(6));
        assert_eq!((c.hits, c.misses), before);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Same set: addresses differing in bits above the set index.
        let a = 0u64;
        let b = 4; // 4 sets → stride 4 hits same set
        let d = 8;
        c.fill(a, false);
        c.fill(b, false);
        c.lookup(a); // a is now MRU
        let ev = c.fill(d, false).expect("must evict");
        assert_eq!(ev.line_addr, b, "LRU way is b");
        assert!(c.peek(a) && c.peek(d) && !c.peek(b));
    }

    #[test]
    fn dirty_bit_travels_with_eviction() {
        let mut c = small();
        c.fill(0, false);
        c.mark_dirty(0);
        c.fill(4, false);
        let ev = c.fill(8, false).expect("evicts line 0");
        assert_eq!(ev, Evicted { line_addr: 0, dirty: true });
    }

    #[test]
    fn refill_of_present_line_does_not_evict() {
        let mut c = small();
        c.fill(0, false);
        c.fill(4, false);
        assert!(c.fill(0, true).is_none(), "refresh, not eviction");
        assert!(c.peek_dirty(0), "dirty bit merged in");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(3, true);
        assert_eq!(c.invalidate(3), Some(true));
        assert!(!c.peek(3));
        assert_eq!(c.invalidate(3), None);
    }

    #[test]
    fn mark_dirty_on_absent_line_reports_false() {
        let mut c = small();
        assert!(!c.mark_dirty(77));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small(); // 8 lines
        for round in 0..4 {
            for a in 0..32u64 {
                let hit = c.lookup(a);
                if round > 0 {
                    assert!(!hit, "LRU must thrash on a 4x working set");
                }
                if !hit {
                    c.fill(a, false);
                }
            }
        }
    }

    #[test]
    fn codec_round_trip_is_exact() {
        let mut c = CacheArray::new(16 * 1024, 8);
        let mut rng = coaxial_sim::SplitMix64::new(5);
        for _ in 0..4000 {
            let a = rng.next_below(1 << 12);
            if !c.lookup(a) {
                c.fill(a, rng.chance(0.3));
            }
        }
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        let mut r = coaxial_sim::checkpoint::codec::Reader::new(&buf);
        let d = CacheArray::decode_from(&mut r).expect("decodes");
        assert!(r.done());
        // Exactness: re-encoding the decoded array reproduces the bytes,
        // and observable state (occupancy, counters, LRU order) matches.
        let mut buf2 = Vec::new();
        d.encode_into(&mut buf2);
        assert_eq!(buf, buf2);
        assert_eq!((d.hits, d.misses, d.clock), (c.hits, c.misses, c.clock));
        assert_eq!(d.valid_count(), c.valid_count());
        assert_eq!(d.dirty_count(), c.dirty_count());

        // Structural garbage is rejected, not misread.
        let mut bad = buf.clone();
        bad[0] = 0; // assoc = 0
        let mut rb = coaxial_sim::checkpoint::codec::Reader::new(&bad);
        assert!(CacheArray::decode_from(&mut rb).is_none());
    }

    #[test]
    fn working_set_smaller_than_cache_always_hits_after_warmup() {
        let mut c = CacheArray::new(64 * 1024, 8);
        for a in 0..512u64 {
            c.lookup(a);
            c.fill(a, false);
        }
        c.reset_stats();
        for a in 0..512u64 {
            assert!(c.lookup(a));
        }
        assert_eq!(c.misses, 0);
    }
}
