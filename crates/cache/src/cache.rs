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

/// Word of an empty way. A way holds `line << 1 | dirty`, so no line up
/// to [`MAX_LINE_ADDR`] collides with it.
const EMPTY: u64 = u64::MAX;

/// Largest line address a cache array holds. Generated line addresses stay
/// far below it (a handful of region bits per core); trace files are
/// checked against it when read.
pub const MAX_LINE_ADDR: u64 = (EMPTY >> 1) - 1;

/// One set-associative tag array, one `u64` word per way.
///
/// Simulated caches are tens of megabytes of way state probed at random, so
/// every probe is a *host* cache miss per touched line. Each way is a
/// single word, `line << 1 | dirty`, and each set keeps its ways in recency
/// order: valid ways first, most recently used first, `EMPTY` ways last.
/// A set is then one run of `assoc` words (64 B at 8 ways, 128 B at 16) and
/// a probe, its hit or fill, and the victim choice touch nothing else.
///
/// Replacement is exact LRU. A demand hit or a fill moves the way to the
/// front; an insert drops the set's last way, which is empty or else the
/// least recently used line. [`CacheArray::prefill_touch`] and
/// [`CacheArray::mark_dirty`] do not count as uses and leave the order
/// alone, and [`CacheArray::invalidate`] closes the gap it leaves.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// Way words, sets × assoc row-major, each set in recency order.
    ways: Vec<u64>,
    assoc: usize,
    set_mask: u64,
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
        Self { ways: vec![EMPTY; ways], assoc, set_mask: sets - 1, hits: 0, misses: 0 }
    }

    pub fn num_sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Approximate heap footprint of this array's tag metadata, in bytes
    /// (used to budget byte-bounded caches of warmed cache state).
    pub fn approx_heap_bytes(&self) -> u64 {
        (self.ways.len() * std::mem::size_of::<u64>()) as u64
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.ways.len() as u64 * 64
    }

    /// Index of the first word of `line_addr`'s set.
    #[inline]
    fn set_start(&self, line_addr: u64) -> usize {
        coaxial_sim::idx(line_addr & self.set_mask) * self.assoc
    }

    /// `(set start, position in the set)` of the way holding `line_addr`.
    #[inline]
    fn probe(&self, line_addr: u64) -> (usize, Option<usize>) {
        debug_assert!(line_addr <= MAX_LINE_ADDR, "line address out of range");
        let s = self.set_start(line_addr);
        (s, self.ways[s..s + self.assoc].iter().position(|&w| w >> 1 == line_addr))
    }

    /// Word index of the way holding `line_addr`, if present.
    #[inline]
    fn find(&self, line_addr: u64) -> Option<usize> {
        let (s, p) = self.probe(line_addr);
        p.map(|p| s + p)
    }

    /// Make way `p` of the set at `s` the most recently used.
    #[inline]
    fn touch(&mut self, s: usize, p: usize) {
        self.ways[s..=s + p].rotate_right(1);
    }

    /// Look up a line; updates LRU and hit/miss counters on a demand access.
    #[inline]
    pub fn lookup(&mut self, line_addr: u64) -> bool {
        if let (s, Some(p)) = self.probe(line_addr) {
            self.touch(s, p);
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
        self.find(line_addr).is_some()
    }

    /// Whether a present line is dirty.
    pub fn peek_dirty(&self, line_addr: u64) -> bool {
        self.find(line_addr).is_some_and(|i| self.ways[i] & 1 != 0)
    }

    /// Insert (or refresh) a line; returns the victim if a valid line was
    /// displaced. If the line is already present, only LRU/dirty state is
    /// updated and no eviction happens.
    pub fn fill(&mut self, line_addr: u64, dirty: bool) -> Option<Evicted> {
        match self.probe(line_addr) {
            (s, Some(p)) => {
                self.ways[s + p] |= u64::from(dirty);
                self.touch(s, p);
                None
            }
            (s, None) => self.insert(s, line_addr, dirty),
        }
    }

    /// [`CacheArray::fill`] for a line the caller has already proven absent
    /// (e.g. via [`CacheArray::peek`]): skips the presence scan but matches
    /// `fill`'s state transitions exactly. The prefill fast path leans on
    /// this to halve its tag-scan work.
    pub fn fill_absent(&mut self, line_addr: u64, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.peek(line_addr), "fill_absent on a present line");
        self.insert(self.set_start(line_addr), line_addr, dirty)
    }

    /// Install the line at the front of the set at `s`, dropping its last
    /// way: empty, or else the LRU victim.
    #[inline]
    fn insert(&mut self, s: usize, line_addr: u64, dirty: bool) -> Option<Evicted> {
        let set = &mut self.ways[s..s + self.assoc];
        let last = set[set.len() - 1];
        set.copy_within(..set.len() - 1, 1);
        set[0] = line_addr << 1 | u64::from(dirty);
        (last != EMPTY).then_some(Evicted { line_addr: last >> 1, dirty: last & 1 != 0 })
    }

    /// Functional-warmup accessor: one scan that answers "present?" and, for
    /// a present line, ORs in `dirty`. Equivalent to `peek` followed by a
    /// conditional `mark_dirty`, with neither LRU nor counter updates —
    /// prefill is functional, not timed.
    #[inline]
    pub fn prefill_touch(&mut self, line_addr: u64, dirty: bool) -> bool {
        if let Some(i) = self.find(line_addr) {
            self.ways[i] |= u64::from(dirty);
            true
        } else {
            false
        }
    }

    /// Mark a present line dirty; returns whether the line was found.
    pub fn mark_dirty(&mut self, line_addr: u64) -> bool {
        self.prefill_touch(line_addr, true)
    }

    /// Remove a line; returns its dirty bit if it was present.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let (s, p) = self.probe(line_addr);
        let set = &mut self.ways[s..s + self.assoc];
        let p = p?;
        let dirty = set[p] & 1 != 0;
        set.copy_within(p + 1.., p);
        set[set.len() - 1] = EMPTY;
        Some(dirty)
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
        self.ways.iter().filter(|&&w| w != EMPTY && w & 1 != 0).count()
    }

    /// Number of valid lines currently resident (debug/test aid).
    pub fn valid_count(&self) -> usize {
        self.ways.iter().filter(|&&w| w != EMPTY).count()
    }

    /// The resident lines, set by set.
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.ways.iter().filter(|&&w| w != EMPTY).map(|&w| w >> 1)
    }

    /// Hint the host CPU to pull this line's set into its cache. Purely a
    /// performance hint for pipelined probes (the simulated arrays are tens
    /// of megabytes, so a random probe is a host memory miss); touches no
    /// simulated state.
    #[inline]
    pub fn prefetch_set(&self, line_addr: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            let s = self.set_start(line_addr);
            // SAFETY: `set_start` returns an index within `self.ways`, so
            // `as_ptr().add(s)` stays in bounds; `_mm_prefetch` is a pure
            // cache hint that never dereferences, so even the `p.add(64)`
            // second-line probe (still inside the allocation: a 16-way set
            // spans 128 bytes) cannot fault.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                let p = self.ways.as_ptr().add(s).cast::<i8>();
                _mm_prefetch(p, _MM_HINT_T0);
                if self.assoc > 8 {
                    _mm_prefetch(p.add(64), _MM_HINT_T0);
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line_addr;
    }

    /// Whether this array has the sets and ways `CacheArray::new` builds
    /// for `capacity_bytes` at `assoc` ways.
    pub(crate) fn has_geometry(&self, capacity_bytes: u64, assoc: usize) -> bool {
        self.assoc == assoc && self.num_sets() == capacity_bytes / 64 / assoc as u64
    }

    /// Reset hit/miss counters (end of warmup) without touching contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Append the array's complete state — geometry, counters and the way
    /// words in recency order — to a checkpoint payload (see
    /// `coaxial_sim::checkpoint`). The inverse is
    /// [`CacheArray::decode_from`]; round-tripping reproduces the array
    /// exactly, so a simulation resumed from a decoded snapshot is
    /// bit-identical to one that kept the original in memory.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use coaxial_sim::checkpoint::codec::{put_u64, put_u64s};
        put_u64(out, self.assoc as u64);
        put_u64(out, self.set_mask);
        put_u64(out, self.hits);
        put_u64(out, self.misses);
        put_u64s(out, &self.ways);
    }

    /// Decode an array encoded by [`CacheArray::encode_into`]. Returns
    /// `None` on any structural inconsistency (bad geometry, a length that
    /// does not match it, an empty way before a valid one, a line stored
    /// in a set its address does not map to, a line stored twice in one
    /// set) so corrupt checkpoint files read as cache misses rather than
    /// corrupt simulations.
    pub fn decode_from(r: &mut coaxial_sim::checkpoint::codec::Reader<'_>) -> Option<Self> {
        let assoc = usize::try_from(r.u64()?).ok()?;
        let set_mask = r.u64()?;
        let hits = r.u64()?;
        let misses = r.u64()?;
        let ways = r.u64s()?;
        let sets = set_mask.checked_add(1)?;
        if assoc == 0 || !sets.is_power_of_two() {
            return None;
        }
        if ways.len() != usize::try_from(sets).ok()?.checked_mul(assoc)? {
            return None;
        }
        for (set, words) in (0..sets).zip(ways.chunks_exact(assoc)) {
            let (valid, empty) = words.split_at(words.iter().take_while(|&&w| w != EMPTY).count());
            if empty.iter().any(|&w| w != EMPTY)
                || valid.iter().any(|&w| (w >> 1) & set_mask != set)
                || (1..valid.len()).any(|i| valid[..i].iter().any(|&w| w >> 1 == valid[i] >> 1))
            {
                return None;
            }
        }
        Some(Self { ways, assoc, set_mask, hits, misses })
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
        assert_eq!((d.hits, d.misses), (c.hits, c.misses));
        assert_eq!(d.valid_count(), c.valid_count());
        assert_eq!(d.dirty_count(), c.dirty_count());

        // Structural garbage is rejected, not misread.
        let decodes = |bytes: &[u8]| {
            CacheArray::decode_from(&mut coaxial_sim::checkpoint::codec::Reader::new(bytes))
                .is_some()
        };
        // Way `i`'s word follows assoc, set mask, hits, misses and the
        // word count.
        let with_way = |i: usize, word: u64| {
            let mut bad = buf.clone();
            bad[40 + 8 * i..48 + 8 * i].copy_from_slice(&word.to_le_bytes());
            bad
        };
        let mut bad = buf.clone();
        bad[0] = 0; // assoc = 0
        assert!(!decodes(&bad));
        assert_eq!(c.ways[..2].iter().filter(|&&w| w != EMPTY).count(), 2, "set 0 is full");
        assert!(!decodes(&with_way(0, EMPTY)), "an empty way before a valid one");
        assert!(!decodes(&with_way(0, 1 << 1)), "line 1 stored in set 0");
        assert!(decodes(&with_way(0, 32 << 1 | 1)), "line 32 belongs to set 0 of 32");
        assert!(!decodes(&with_way(1, c.ways[0])), "one line in two ways of set 0");
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
