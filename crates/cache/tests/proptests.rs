//! Property-based tests for the cache structures: the set-associative
//! array is checked against an exact reference model, and the hierarchy's
//! accounting is validated under random access streams.

use std::collections::BTreeMap;

use proptest::prelude::*;

use coaxial_cache::hierarchy::AccessResult;
use coaxial_cache::{CacheArray, CalmPolicy, Hierarchy, HierarchyConfig};
use coaxial_dram::{DramConfig, MultiChannel};

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
        self.contents
            .get(&self.set_of(line))
            .is_some_and(|ways| ways.iter().any(|&(l, _)| l == line))
    }
}

proptest! {
    /// CacheArray matches the reference LRU model over arbitrary
    /// lookup/fill/dirty sequences, including evicted victims.
    #[test]
    fn cache_array_matches_reference_model(
        ops in proptest::collection::vec((0u8..3, 0u64..256, proptest::bool::ANY), 0..400),
    ) {
        // 16 sets × 4 ways.
        let mut c = CacheArray::new(64 * 64, 4);
        let mut m = RefCache::new(64 * 64, 4);
        for (op, line, dirty) in ops {
            match op {
                0 => prop_assert_eq!(c.lookup(line), m.lookup(line), "lookup({})", line),
                1 => {
                    let got = c.fill(line, dirty).map(|e| (e.line_addr, e.dirty));
                    let want = m.fill(line, dirty);
                    prop_assert_eq!(got, want, "fill({}, {})", line, dirty);
                }
                _ => prop_assert_eq!(c.peek(line), m.peek(line), "peek({})", line),
            }
        }
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
