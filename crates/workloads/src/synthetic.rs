//! Parameter-driven synthetic traces (SPEC, PARSEC, STREAM, kmeans).

use coaxial_cpu::{MemKind, TraceOp, TraceSource};
use coaxial_sim::SplitMix64;

use crate::core_base;

/// Statistical description of one workload's memory behaviour.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticParams {
    /// Mean non-memory instructions between memory operations.
    pub mean_gap: f64,
    /// Working-set size in 64 B lines (per core).
    pub footprint_lines: u64,
    /// Probability that an access continues a sequential run.
    pub spatial: f64,
    /// Probability that an access targets the hot region.
    pub hot_frac: f64,
    /// Hot-region size in lines (should fit on chip for locality to help).
    pub hot_lines: u64,
    /// Fraction of memory operations that are stores.
    pub write_frac: f64,
    /// Fraction of loads that depend on the previous load.
    pub pointer_chase: f64,
    /// Probability per op of toggling into/out of a burst phase; bursts
    /// compress gaps to ~0 and quiet phases stretch them, preserving the
    /// mean but adding the inter-arrival variance that drives tail queuing.
    pub burstiness: f64,
}

impl SyntheticParams {
    /// Sanity-check parameter ranges.
    pub fn validate(&self) {
        assert!(self.mean_gap >= 0.0);
        assert!(self.footprint_lines > 0);
        for p in [self.spatial, self.hot_frac, self.write_frac, self.pointer_chase, self.burstiness]
        {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        }
        assert!(self.hot_lines > 0);
    }
}

/// Phase of the burst modulator.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Steady,
    Burst(u32),
    Quiet(u32),
}

/// Infinite trace stream realizing [`SyntheticParams`].
pub struct SyntheticTrace {
    p: SyntheticParams,
    rng: SplitMix64,
    base: u64,
    /// Sequential cursor within the footprint.
    cursor: u64,
    phase: Phase,
    /// Distinct PCs per behaviour class so MAP-I has something to learn.
    pc_seq: u32,
}

const BURST_LEN: u32 = 48;
const QUIET_LEN: u32 = 48;

impl SyntheticTrace {
    pub fn new(p: SyntheticParams, core: u32, seed: u64) -> Self {
        p.validate();
        let mut rng = SplitMix64::new(seed ^ ((core as u64) << 48) ^ 0x5EED);
        let cursor = rng.next_below(p.footprint_lines);
        Self { p, rng, base: core_base(core), cursor, phase: Phase::Steady, pc_seq: 0 }
    }

    /// Advance the burst phase machine (one Bernoulli draw in Steady) and
    /// return the phase's mean gap.
    fn advance_phase(&mut self) -> f64 {
        self.phase = match self.phase {
            Phase::Steady => {
                if self.rng.chance(self.p.burstiness) {
                    Phase::Burst(BURST_LEN)
                } else {
                    Phase::Steady
                }
            }
            Phase::Burst(0) => Phase::Quiet(QUIET_LEN),
            Phase::Burst(n) => Phase::Burst(n - 1),
            Phase::Quiet(0) => Phase::Steady,
            Phase::Quiet(n) => Phase::Quiet(n - 1),
        };
        match self.phase {
            Phase::Steady => self.p.mean_gap,
            Phase::Burst(_) => self.p.mean_gap * 0.1,
            Phase::Quiet(_) => self.p.mean_gap * 1.9,
        }
    }

    fn gap(&mut self) -> u32 {
        let mean = self.advance_phase();
        coaxial_sim::trunc_u32(self.rng.next_exp(mean).round())
    }

    fn address(&mut self) -> u64 {
        let line = if self.rng.chance(self.p.hot_frac) {
            // Hot region at the start of the footprint.
            self.rng.next_below(self.p.hot_lines)
        } else if self.rng.chance(self.p.spatial) {
            // cursor < footprint_lines always holds, so the wrap is a
            // compare instead of a (slow, hot-path) integer modulo.
            self.cursor += 1;
            if self.cursor == self.p.footprint_lines {
                self.cursor = 0;
            }
            self.cursor
        } else {
            self.cursor = self.rng.next_below(self.p.footprint_lines);
            self.cursor
        };
        self.base + line
    }
}

impl TraceSource for SyntheticTrace {
    fn next_op(&mut self) -> TraceOp {
        let gap = self.gap();
        let line_addr = self.address();
        let is_store = self.rng.chance(self.p.write_frac);
        let depends = !is_store && self.rng.chance(self.p.pointer_chase);
        // A small rotating set of PCs, partitioned by behaviour: stores,
        // chasing loads, and plain loads get distinct PC ranges.
        self.pc_seq = (self.pc_seq + 1) & 0x3F;
        let pc = if is_store {
            0x1000 + self.pc_seq
        } else if depends {
            0x2000 + self.pc_seq
        } else {
            0x3000 + self.pc_seq
        };
        TraceOp {
            nonmem_before: gap,
            kind: if is_store { MemKind::Store } else { MemKind::Load },
            line_addr,
            pc,
            depends_on_last_load: depends,
        }
    }

    fn next_access(&mut self) -> (u64, bool) {
        // Same draw sequence as next_op, minus the ln/round on the gap.
        let _ = self.advance_phase();
        let _ = self.rng.next_u64(); // the draw next_exp would consume
        let line_addr = self.address();
        let is_store = self.rng.chance(self.p.write_frac);
        if !is_store {
            let _ = self.rng.chance(self.p.pointer_chase);
        }
        self.pc_seq = (self.pc_seq + 1) & 0x3F;
        (line_addr, is_store)
    }

    fn save_state(&self) -> Option<Vec<u64>> {
        let (tag, n) = match self.phase {
            Phase::Steady => (0u64, 0u32),
            Phase::Burst(n) => (1, n),
            Phase::Quiet(n) => (2, n),
        };
        Some(vec![
            crate::snapshot_tag::SYNTHETIC,
            self.rng.state(),
            self.cursor,
            tag,
            u64::from(n),
            u64::from(self.pc_seq),
        ])
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        let [family, rng, cursor, tag, n, pc_seq] = *state else { return false };
        if family != crate::snapshot_tag::SYNTHETIC || cursor >= self.p.footprint_lines {
            return false;
        }
        let (Ok(n), Ok(pc_seq)) = (u32::try_from(n), u32::try_from(pc_seq)) else {
            return false;
        };
        self.phase = match tag {
            0 => Phase::Steady,
            1 => Phase::Burst(n),
            2 => Phase::Quiet(n),
            _ => return false,
        };
        self.rng = SplitMix64::from_state(rng);
        self.cursor = cursor;
        self.pc_seq = pc_seq;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SyntheticParams {
        SyntheticParams {
            mean_gap: 20.0,
            footprint_lines: 1 << 20,
            spatial: 0.5,
            hot_frac: 0.2,
            hot_lines: 1 << 10,
            write_frac: 0.3,
            pointer_chase: 0.1,
            burstiness: 0.02,
        }
    }

    #[test]
    fn addresses_stay_in_core_region() {
        let mut t = SyntheticTrace::new(params(), 3, 1);
        for _ in 0..10_000 {
            let op = t.next_op();
            assert_eq!(op.line_addr >> crate::CORE_REGION_BITS, 3);
            assert!((op.line_addr & ((1 << crate::CORE_REGION_BITS) - 1)) < 1 << 20);
        }
    }

    #[test]
    fn mean_gap_converges() {
        let mut t = SyntheticTrace::new(params(), 0, 2);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| t.next_op().nonmem_before as f64).sum();
        let mean = total / n as f64;
        assert!((mean - 20.0).abs() < 2.0, "mean gap = {mean}");
    }

    #[test]
    fn write_fraction_converges() {
        let mut t = SyntheticTrace::new(params(), 0, 3);
        let n = 50_000;
        let stores = (0..n).filter(|_| t.next_op().kind == MemKind::Store).count();
        let frac = stores as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "store fraction = {frac}");
    }

    #[test]
    fn hot_region_concentrates_accesses() {
        let mut t = SyntheticTrace::new(params(), 0, 4);
        let n = 50_000;
        let hot = (0..n)
            .filter(|_| {
                let op = t.next_op();
                (op.line_addr & ((1 << crate::CORE_REGION_BITS) - 1)) < (1 << 10)
            })
            .count();
        let frac = hot as f64 / n as f64;
        // hot_frac plus incidental cold hits in [0, 2^10).
        assert!(frac > 0.18, "hot fraction = {frac}");
    }

    #[test]
    fn different_cores_see_different_streams() {
        let mut a = SyntheticTrace::new(params(), 0, 9);
        let mut b = SyntheticTrace::new(params(), 1, 9);
        let same = (0..100)
            .filter(|_| {
                let (x, y) = (a.next_op(), b.next_op());
                x.line_addr & 0x3FFFF == y.line_addr & 0x3FFFF
            })
            .count();
        assert!(same < 20, "streams should decorrelate, {same} collisions");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SyntheticTrace::new(params(), 0, 11);
        let mut b = SyntheticTrace::new(params(), 0, 11);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn snapshot_resumes_mid_stream() {
        let mut a = SyntheticTrace::new(params(), 2, 19);
        for _ in 0..777 {
            let _ = a.next_access();
        }
        let snap = a.save_state().expect("synthetic supports snapshots");
        // Fresh generator, same constructor args, restored cursors: the
        // continuation must match op-for-op (both next_op and next_access).
        let mut b = SyntheticTrace::new(params(), 2, 19);
        assert!(b.restore_state(&snap));
        for i in 0..500 {
            if i % 3 == 0 {
                assert_eq!(a.next_op(), b.next_op());
            } else {
                assert_eq!(a.next_access(), b.next_access());
            }
        }
        assert!(!b.restore_state(&snap[1..]), "wrong shape rejected");
        let mut alien = snap.clone();
        alien[0] = crate::snapshot_tag::TREE;
        assert!(!b.restore_state(&alien), "wrong family rejected");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_probability_panics() {
        let mut p = params();
        p.spatial = 1.5;
        p.validate();
    }
}
