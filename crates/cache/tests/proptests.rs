//! Property-based tests for the cache structures: the set-associative
//! array is checked against an exact reference model, and the hierarchy's
//! accounting is validated under random access streams.

use std::collections::BTreeMap;

use proptest::prelude::*;

use coaxial_cache::hierarchy::AccessResult;
use coaxial_cache::{CacheArray, CalmPolicy, Hierarchy, HierarchyConfig};
use coaxial_dram::{DramConfig, MultiChannel};
use coaxial_sim::checkpoint::codec::Reader;

/// Exact reference model of a set-associative LRU cache.
struct RefCache {
    sets: u64,
    assoc: usize,
    /// Per set: Vec of (line, dirty), most-recently-used LAST.
    contents: BTreeMap<u64, Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(capacity_bytes: u64, assoc: usize) -> Self {
        Self { sets: capacity_bytes / 64 / assoc as u64, assoc, contents: BTreeMap::new() }
    }

    fn set_of(&self, line: u64) -> u64 {
        line & (self.sets - 1)
    }

    fn lookup(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let ways = self.contents.entry(set).or_default();
        if let Some(pos) = ways.iter().position(|&(l, _)| l == line) {
            let e = ways.remove(pos);
            ways.push(e);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let set = self.set_of(line);
        let assoc = self.assoc;
        let ways = self.contents.entry(set).or_default();
        if let Some(pos) = ways.iter().position(|&(l, _)| l == line) {
            let (l, d) = ways.remove(pos);
            ways.push((l, d || dirty));
            return None;
        }
        let evicted = if ways.len() >= assoc { Some(ways.remove(0)) } else { None };
        ways.push((line, dirty));
        evicted
    }

    fn peek(&self, line: u64) -> bool {
        self.way(line).is_some()
    }

    fn way(&self, line: u64) -> Option<&(u64, bool)> {
        self.contents.get(&self.set_of(line))?.iter().find(|&&(l, _)| l == line)
    }

    fn peek_dirty(&self, line: u64) -> bool {
        self.way(line).is_some_and(|&(_, d)| d)
    }

    /// ORs `dirty` into a present line without touching its recency.
    fn prefill_touch(&mut self, line: u64, dirty: bool) -> bool {
        let set = self.set_of(line);
        let way = self.contents.get_mut(&set).and_then(|w| w.iter_mut().find(|(l, _)| *l == line));
        way.map(|(_, d)| *d |= dirty).is_some()
    }

    fn mark_dirty(&mut self, line: u64) -> bool {
        self.prefill_touch(line, true)
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let ways = self.contents.get_mut(&self.set_of(line))?;
        let pos = ways.iter().position(|&(l, _)| l == line)?;
        Some(ways.remove(pos).1)
    }

    fn valid_count(&self) -> usize {
        self.contents.values().map(Vec::len).sum()
    }

    fn dirty_count(&self) -> usize {
        self.contents.values().flatten().filter(|&&(_, d)| d).count()
    }
}

proptest! {
    /// CacheArray matches the reference LRU model over arbitrary sequences
    /// of every state-changing operation, including evicted victims, at the
    /// L1/L2 (8-way) and LLC (16-way) associativities and at 4 ways. One
    /// operation round-trips the array through the checkpoint codec and
    /// carries on with the decoded copy.
    #[test]
    fn cache_array_matches_reference_model(
        assoc_pick in 0usize..3,
        ops in proptest::collection::vec((0u8..9, 0u64..4096, proptest::bool::ANY), 0..600),
    ) {
        // 16 sets; lines span four times the capacity, so sets overflow.
        let assoc = [4, 8, 16][assoc_pick];
        let capacity = 16 * assoc as u64 * 64;
        let lines = 16 * assoc as u64 * 4;
        let mut c = CacheArray::new(capacity, assoc);
        let mut m = RefCache::new(capacity, assoc);
        for (op, line, dirty) in ops {
            let line = line % lines;
            match op {
                0 => prop_assert_eq!(c.lookup(line), m.lookup(line), "lookup({})", line),
                1 => {
                    let got = c.fill(line, dirty).map(|e| (e.line_addr, e.dirty));
                    let want = m.fill(line, dirty);
                    prop_assert_eq!(got, want, "fill({}, {})", line, dirty);
                }
                2 => prop_assert_eq!(c.peek(line), m.peek(line), "peek({})", line),
                3 => prop_assert_eq!(c.invalidate(line), m.invalidate(line), "invalidate({})", line),
                4 => prop_assert_eq!(
                    c.prefill_touch(line, dirty),
                    m.prefill_touch(line, dirty),
                    "prefill_touch({}, {})",
                    line,
                    dirty
                ),
                5 => prop_assert_eq!(c.mark_dirty(line), m.mark_dirty(line), "mark_dirty({})", line),
                6 => prop_assert_eq!(c.peek_dirty(line), m.peek_dirty(line), "peek_dirty({})", line),
                7 if !m.peek(line) => {
                    let got = c.fill_absent(line, dirty).map(|e| (e.line_addr, e.dirty));
                    let want = m.fill(line, dirty);
                    prop_assert_eq!(got, want, "fill_absent({}, {})", line, dirty);
                }
                7 => prop_assert!(c.peek(line), "peek({})", line),
                _ => {
                    let mut buf = Vec::new();
                    c.encode_into(&mut buf);
                    let mut r = Reader::new(&buf);
                    c = CacheArray::decode_from(&mut r).expect("a fresh encoding decodes");
                    prop_assert!(r.done(), "decode consumed the whole encoding");
                }
            }
        }
        prop_assert_eq!(c.valid_count(), m.valid_count());
        prop_assert_eq!(c.dirty_count(), m.dirty_count());
    }

    /// Invariant: a line filled and never evicted is always found; dirty
    /// bits never appear from nowhere.
    #[test]
    fn no_spurious_dirty_bits(lines in proptest::collection::vec(0u64..64, 1..50)) {
        let mut c = CacheArray::new(64 * 64, 4);
        for &l in &lines {
            if let Some(ev) = c.fill(l, false) {
                prop_assert!(!ev.dirty, "clean fills cannot evict dirty data");
            }
        }
    }
}

fn hierarchy() -> Hierarchy<MultiChannel> {
    let cfg = HierarchyConfig::table_iii(2, 1, 1.0, 38.4, CalmPolicy::CalmR { r: 0.7 });
    Hierarchy::new(cfg, MultiChannel::new(&DramConfig::ddr5_4800(), 1))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Under arbitrary access streams, every pending access completes, the
    /// MSHR pool drains, and after completion the line is on chip.
    #[test]
    fn hierarchy_always_drains(
        accesses in proptest::collection::vec(
            (0u32..2, 0u64..(1 << 18), proptest::bool::ANY), 1..120),
    ) {
        let mut h = hierarchy();
        let mut now = 0u64;
        let mut pending = Vec::new();
        for (token, (core, line, is_write)) in (0u64..).zip(&accesses) {
            loop {
                match h.access(*core, *line, *is_write, 7, now, token) {
                    AccessResult::Pending => {
                        pending.push(token);
                        break;
                    }
                    AccessResult::Done(_) => break,
                    AccessResult::Retry => {
                        now += 1;
                        h.tick(now);
                    }
                }
            }
            now += 2;
            h.tick(now);
        }
        let deadline = now + 5_000_000;
        while !pending.is_empty() && now < deadline {
            now += 1;
            h.tick(now);
            while let Some((_, id)) = h.pop_completion() {
                pending.retain(|&p| p != id);
            }
        }
        prop_assert!(pending.is_empty(), "all accesses must complete");
        // Allow zombie CALM fetches to drain, then the txn pool is empty.
        for _ in 0..200_000 {
            now += 1;
            h.tick(now);
            if h.inflight_txns() == 0 {
                break;
            }
        }
        prop_assert_eq!(h.inflight_txns(), 0, "transaction pool must drain");
        // Every touched line is somewhere on chip for its core.
        for (core, line, _) in &accesses {
            prop_assert!(
                h.probe_on_chip(*core as usize, *line),
                "line {line} lost after completion"
            );
        }
    }
}
