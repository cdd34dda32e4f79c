//! Pointer-chasing tree walks (masstree-style key-value store).
//!
//! Masstree's access pattern is a B-tree/trie descent: each lookup touches
//! a root (hot, cache-resident), a few interior nodes (warm), and a leaf
//! (cold, effectively random), with every step *dependent* on the previous
//! load — the canonical low-MLP pattern. A fraction of operations are
//! updates that dirty the leaf.

use coaxial_cpu::{TraceOp, TraceSource};
use coaxial_sim::SplitMix64;

use crate::core_base;

/// Shape of the tree workload.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Tree depth (levels walked per lookup, root inclusive).
    pub depth: u32,
    /// Total leaf lines (the cold footprint).
    pub leaf_lines: u64,
    /// Lines per interior level `k` = `interior_base << k` (level 0 = root).
    pub interior_base: u64,
    /// Mean non-memory instructions between node touches (key compares).
    pub mean_gap: f64,
    /// Fraction of lookups that are updates (dirty the leaf).
    pub update_frac: f64,
}

/// Infinite masstree-style trace.
pub struct TreeTrace {
    p: TreeParams,
    rng: SplitMix64,
    base: u64,
    /// Level within the current lookup (0 = about to touch root).
    level: u32,
    /// Whether the current lookup is an update.
    updating: bool,
}

impl TreeTrace {
    pub fn new(p: TreeParams, core: u32, seed: u64) -> Self {
        assert!(p.depth >= 2, "a tree walk needs at least root + leaf");
        let rng = SplitMix64::new(seed ^ ((core as u64) << 44) ^ 0x7EE5);
        Self { p, rng, base: core_base(core), level: 0, updating: false }
    }

    /// Line offsets of the levels: root at 0, level k spans
    /// `interior_base << k` lines starting after the previous levels,
    /// leaves last.
    fn level_span(&self, level: u32) -> (u64, u64) {
        if level + 1 == self.p.depth {
            // Leaf level.
            let mut start = 0;
            for l in 0..level {
                start += self.p.interior_base << l;
            }
            (start, self.p.leaf_lines)
        } else {
            let mut start = 0;
            for l in 0..level {
                start += self.p.interior_base << l;
            }
            (start, self.p.interior_base << level)
        }
    }
}

impl TreeTrace {
    /// The walk step after the gap draw: `(line, is_store, level)`.
    fn next_body(&mut self) -> (u64, bool, u32) {
        let level = self.level;
        let (start, span) = self.level_span(level);
        let line = self.base + start + self.rng.next_below(span);
        let is_leaf = level + 1 == self.p.depth;

        if level == 0 {
            self.updating = self.rng.chance(self.p.update_frac);
        }
        self.level = if is_leaf { 0 } else { level + 1 };
        (line, is_leaf && self.updating, level)
    }
}

impl TraceSource for TreeTrace {
    fn next_op(&mut self) -> TraceOp {
        let gap = coaxial_sim::trunc_u32(self.rng.next_exp(self.p.mean_gap).round());
        let (line, is_store, level) = self.next_body();
        if is_store {
            // The leaf update is a store dependent on the walk.
            let mut op = TraceOp::store(gap, line, 0x200 + level);
            op.depends_on_last_load = true;
            op
        } else {
            let op = TraceOp::load(gap, line, 0x200 + level);
            // Every step after the root consumes the previous node pointer.
            if level > 0 {
                op.dependent()
            } else {
                op
            }
        }
    }

    fn next_access(&mut self) -> (u64, bool) {
        let _ = self.rng.next_u64(); // the draw the gap sample would consume
        let (line, is_store, _) = self.next_body();
        (line, is_store)
    }

    fn save_state(&self) -> Option<Vec<u64>> {
        Some(vec![
            crate::snapshot_tag::TREE,
            self.rng.state(),
            u64::from(self.level),
            u64::from(self.updating),
        ])
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        let [family, rng, level, updating] = *state else { return false };
        if family != crate::snapshot_tag::TREE || level >= u64::from(self.p.depth) || updating > 1 {
            return false;
        }
        let Ok(level) = u32::try_from(level) else { return false };
        self.rng = SplitMix64::from_state(rng);
        self.level = level;
        self.updating = updating != 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_cpu::MemKind;

    fn params() -> TreeParams {
        TreeParams {
            depth: 6,
            leaf_lines: 1 << 22,
            interior_base: 1 << 6,
            mean_gap: 12.0,
            update_frac: 0.1,
        }
    }

    #[test]
    fn walk_depth_cycles() {
        let mut t = TreeTrace::new(params(), 0, 1);
        // The first op of each lookup (root) is non-dependent; each lookup
        // emits exactly `depth` ops.
        let ops: Vec<TraceOp> = (0..60).map(|_| t.next_op()).collect();
        for (i, op) in ops.iter().enumerate() {
            if i % 6 == 0 {
                assert!(!op.depends_on_last_load, "root touch at {i} must be independent");
            } else {
                assert!(op.depends_on_last_load, "interior/leaf at {i} must chase");
            }
        }
    }

    #[test]
    fn root_is_hot_leaves_are_cold() {
        let mut t = TreeTrace::new(params(), 0, 2);
        let ops: Vec<TraceOp> = (0..6_000).map(|_| t.next_op()).collect();
        let region_mask = (1u64 << crate::CORE_REGION_BITS) - 1;
        let roots: Vec<u64> = ops.iter().step_by(6).map(|o| o.line_addr & region_mask).collect();
        let leaves: Vec<u64> =
            ops.iter().skip(5).step_by(6).map(|o| o.line_addr & region_mask).collect();
        let max_root = roots.iter().max().unwrap();
        let min_leaf = leaves.iter().min().unwrap();
        assert!(max_root < min_leaf, "root region below leaf region");
        // Leaves are spread over a large range.
        let leaf_span = leaves.iter().max().unwrap() - min_leaf;
        assert!(leaf_span > 1 << 20, "leaf span = {leaf_span}");
    }

    #[test]
    fn updates_dirty_leaves_only() {
        let mut t = TreeTrace::new(params(), 0, 3);
        for i in 0..12_000 {
            let op = t.next_op();
            if op.kind == MemKind::Store {
                assert_eq!(i % 6, 5, "stores only at leaf level");
            }
        }
    }

    #[test]
    fn update_fraction_converges() {
        let mut t = TreeTrace::new(params(), 0, 4);
        let n = 60_000;
        let stores = (0..n).filter(|_| t.next_op().kind == MemKind::Store).count();
        let per_lookup = stores as f64 / (n as f64 / 6.0);
        assert!((per_lookup - 0.1).abs() < 0.02, "update fraction = {per_lookup}");
    }

    #[test]
    fn snapshot_resumes_mid_stream() {
        let mut a = TreeTrace::new(params(), 1, 29);
        for _ in 0..100 {
            let _ = a.next_access();
        }
        let snap = a.save_state().expect("tree supports snapshots");
        let mut b = TreeTrace::new(params(), 1, 29);
        assert!(b.restore_state(&snap));
        for i in 0..300 {
            if i % 2 == 0 {
                assert_eq!(a.next_op(), b.next_op());
            } else {
                assert_eq!(a.next_access(), b.next_access());
            }
        }
        let mut bad = snap.clone();
        bad[2] = u64::from(params().depth); // level out of range
        assert!(!b.restore_state(&bad), "out-of-range level rejected");
    }

    #[test]
    #[should_panic(expected = "root + leaf")]
    fn shallow_tree_panics() {
        let mut p = params();
        p.depth = 1;
        let _ = TreeTrace::new(p, 0, 0);
    }
}
