//! CALM — Concurrent Access of LLC and Memory (paper §IV-C).
//!
//! On an L2 miss the hierarchy may look up the LLC and memory *in
//! parallel*, removing the LLC (and part of the NoC) from the critical
//! path of LLC-missing accesses. The decision per L2 miss is produced by
//! one of four mechanisms:
//!
//! * [`CalmPolicy::Serial`] — never (baseline serial hierarchy);
//! * [`CalmPolicy::CalmR`] — the paper's bandwidth-regulated mechanism:
//!   CALM with probability `min(1, (R − bw_filtered)/bw_unfiltered)` when
//!   the LLC-filtered bandwidth estimate is below the budget `R`, never
//!   when above;
//! * [`CalmPolicy::MapI`] — the PC-indexed MAP-I predictor of Qureshi &
//!   Loh \[48\]: 3-bit saturating counters trained on LLC hit/miss outcomes;
//! * [`CalmPolicy::Ideal`] — an oracle that CALMs exactly the L2 misses
//!   that will miss in the LLC.
//!
//! A CALM access that hits in the LLC is a **false positive** (wasted
//! memory bandwidth); a non-CALM access that misses is a **false
//! negative** (serialized latency). Fig. 7b reports both.

use coaxial_sim::{Cycle, SplitMix64};

/// Which CALM mechanism the hierarchy uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalmPolicy {
    /// Serial LLC-then-memory access (no CALM).
    Serial,
    /// Bandwidth-regulated CALM with budget `r` as a fraction of peak
    /// memory bandwidth (the paper's default is `r = 0.7`).
    CalmR { r: f64 },
    /// PC-based LLC hit/miss predictor.
    MapI,
    /// Oracle: CALM exactly when the LLC will miss.
    Ideal,
}

impl CalmPolicy {
    /// Short label for reports ("serial", "MAP-I", "CALM-70%", "ideal").
    pub fn label(&self) -> String {
        match self {
            CalmPolicy::Serial => "serial".into(),
            CalmPolicy::CalmR { r } => format!("CALM-{:.0}%", r * 100.0),
            CalmPolicy::MapI => "MAP-I".into(),
            CalmPolicy::Ideal => "ideal".into(),
        }
    }
}

/// Decision-quality counters (Fig. 7b).
#[derive(Debug, Clone, Copy, Default)]
pub struct CalmStats {
    /// L2 misses that performed CALM and hit in the LLC (wasted bandwidth).
    pub false_pos: u64,
    /// L2 misses that did not CALM and missed in the LLC (serialized).
    pub false_neg: u64,
    /// CALM + LLC miss (latency saved).
    pub true_pos: u64,
    /// No CALM + LLC hit (correctly served on chip).
    pub true_neg: u64,
}

impl CalmStats {
    pub fn decisions(&self) -> u64 {
        self.false_pos + self.false_neg + self.true_pos + self.true_neg
    }

    /// False positives as a fraction of memory accesses (LLC misses +
    /// wasted CALM fetches) — the paper's Fig. 7b numerator.
    pub fn false_pos_per_mem_access(&self) -> f64 {
        let mem = self.true_pos + self.false_neg + self.false_pos;
        if mem == 0 {
            0.0
        } else {
            self.false_pos as f64 / mem as f64
        }
    }

    /// False negatives as a fraction of all LLC misses.
    pub fn false_neg_per_llc_miss(&self) -> f64 {
        let misses = self.true_pos + self.false_neg;
        if misses == 0 {
            0.0
        } else {
            self.false_neg as f64 / misses as f64
        }
    }
}

/// MAP-I: table of 3-bit saturating counters indexed by a PC hash.
/// Counter ≥ 4 predicts "LLC miss" (do CALM).
#[derive(Debug, Clone)]
struct MapiTable {
    counters: Vec<u8>,
}

const MAPI_ENTRIES: usize = 4096;
const MAPI_MAX: u8 = 7;
const MAPI_THRESHOLD: u8 = 4;

impl MapiTable {
    fn new() -> Self {
        // Initialize weakly toward "miss": bandwidth-rich systems prefer
        // false positives over false negatives (paper §VI-B).
        Self { counters: vec![MAPI_THRESHOLD; MAPI_ENTRIES] }
    }

    #[inline]
    fn index(pc: u32) -> usize {
        // Cheap avalanching hash of the PC; take high product bits so that
        // page-aligned PCs do not collide in one entry.
        let mut x = pc as u64;
        x ^= x >> 16;
        x = x.wrapping_mul(0x45D9_F3B3_335B_369D);
        ((x >> 40) as usize) & (MAPI_ENTRIES - 1)
    }

    #[inline]
    fn predict_miss(&self, pc: u32) -> bool {
        self.counters[Self::index(pc)] >= MAPI_THRESHOLD
    }

    #[inline]
    fn train(&mut self, pc: u32, was_miss: bool) {
        let c = &mut self.counters[Self::index(pc)];
        if was_miss {
            *c = (*c + 1).min(MAPI_MAX);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Epoch-based global bandwidth monitor for `CALM_R`.
///
/// Tracks, per epoch, the L2-miss byte rate (`bw_unfiltered`) and the
/// LLC-miss byte rate (`bw_filtered`), both normalized to peak memory
/// bandwidth. Decisions in epoch *k* use the rates of epoch *k−1*.
#[derive(Debug, Clone)]
struct BwMonitor {
    epoch_cycles: Cycle,
    epoch_start: Cycle,
    l2_misses_epoch: u64,
    llc_misses_epoch: u64,
    /// Previous epoch's utilization estimates, as fractions of peak.
    bw_unfiltered: f64,
    bw_filtered: f64,
    /// Peak memory bandwidth in bytes per cycle.
    peak_bytes_per_cycle: f64,
}

/// Default CALM_R monitoring epoch (cycles).
pub const CALM_EPOCH: Cycle = 8192;

impl BwMonitor {
    fn new(peak_bytes_per_cycle: f64, epoch_cycles: Cycle) -> Self {
        Self {
            epoch_cycles,
            epoch_start: 0,
            l2_misses_epoch: 0,
            llc_misses_epoch: 0,
            bw_unfiltered: 0.0,
            bw_filtered: 0.0,
            peak_bytes_per_cycle,
        }
    }

    #[inline]
    fn roll(&mut self, now: Cycle) {
        while now >= self.epoch_start + self.epoch_cycles {
            let denom = self.epoch_cycles as f64 * self.peak_bytes_per_cycle;
            self.bw_unfiltered = self.l2_misses_epoch as f64 * 64.0 / denom;
            self.bw_filtered = self.llc_misses_epoch as f64 * 64.0 / denom;
            self.l2_misses_epoch = 0;
            self.llc_misses_epoch = 0;
            self.epoch_start += self.epoch_cycles;
        }
    }

    #[inline]
    fn record_l2_miss(&mut self, now: Cycle) {
        self.roll(now);
        self.l2_misses_epoch += 1;
    }

    #[inline]
    fn record_llc_miss(&mut self, now: Cycle) {
        self.roll(now);
        self.llc_misses_epoch += 1;
    }

    /// Probability that an L2 miss should CALM under budget `r`.
    #[inline]
    fn calm_probability(&self, r: f64) -> f64 {
        if self.bw_filtered >= r {
            return 0.0;
        }
        if self.bw_unfiltered <= 0.0 {
            return 1.0;
        }
        ((r - self.bw_filtered) / self.bw_unfiltered).min(1.0)
    }
}

/// The per-hierarchy CALM decision engine.
#[derive(Debug, Clone)]
pub struct CalmEngine {
    policy: CalmPolicy,
    monitor: BwMonitor,
    mapi: MapiTable,
    rng: SplitMix64,
    pub stats: CalmStats,
}

impl CalmEngine {
    /// `peak_bytes_per_cycle` is the memory system's aggregate peak
    /// bandwidth (used to normalize the CALM_R budget).
    pub fn new(policy: CalmPolicy, peak_bytes_per_cycle: f64, seed: u64) -> Self {
        Self::with_epoch(policy, peak_bytes_per_cycle, seed, CALM_EPOCH)
    }

    /// As [`CalmEngine::new`] with an explicit CALM_R monitoring epoch
    /// (ablation studies; shorter epochs react faster but estimate
    /// bandwidth more noisily).
    pub fn with_epoch(
        policy: CalmPolicy,
        peak_bytes_per_cycle: f64,
        seed: u64,
        epoch_cycles: Cycle,
    ) -> Self {
        assert!(epoch_cycles > 0);
        Self {
            policy,
            monitor: BwMonitor::new(peak_bytes_per_cycle, epoch_cycles),
            mapi: MapiTable::new(),
            rng: SplitMix64::new(seed),
            stats: CalmStats::default(),
        }
    }

    pub fn policy(&self) -> CalmPolicy {
        self.policy
    }

    /// Decide whether this L2 miss performs CALM.
    ///
    /// `llc_would_hit` is the functional LLC outcome, used by the oracle and
    /// for decision-quality accounting; real mechanisms never consult it for
    /// the decision itself.
    pub fn decide(&mut self, pc: u32, llc_would_hit: bool, now: Cycle) -> bool {
        self.monitor.record_l2_miss(now);
        if !llc_would_hit {
            self.monitor.record_llc_miss(now);
        }
        let calm = match self.policy {
            CalmPolicy::Serial => false,
            CalmPolicy::CalmR { r } => {
                let p = self.monitor.calm_probability(r);
                self.rng.chance(p)
            }
            CalmPolicy::MapI => self.mapi.predict_miss(pc),
            CalmPolicy::Ideal => !llc_would_hit,
        };
        if let CalmPolicy::MapI = self.policy {
            self.mapi.train(pc, !llc_would_hit);
        }
        match (calm, llc_would_hit) {
            (true, true) => self.stats.false_pos += 1,
            (true, false) => self.stats.true_pos += 1,
            (false, true) => self.stats.true_neg += 1,
            (false, false) => self.stats.false_neg += 1,
        }
        calm
    }

    /// Clear decision statistics (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CalmStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(policy: CalmPolicy) -> CalmEngine {
        // Peak 16 B/cycle ≈ one DDR5-4800 channel.
        CalmEngine::new(policy, 16.0, 42)
    }

    #[test]
    fn serial_never_calms() {
        let mut e = engine(CalmPolicy::Serial);
        for i in 0..100 {
            assert!(!e.decide(i, i % 2 == 0, i as u64 * 10));
        }
        assert_eq!(e.stats.false_pos + e.stats.true_pos, 0);
    }

    #[test]
    fn ideal_is_always_right() {
        let mut e = engine(CalmPolicy::Ideal);
        for i in 0..1000u32 {
            let hit = i % 3 == 0;
            assert_eq!(e.decide(i, hit, i as u64), !hit);
        }
        assert_eq!(e.stats.false_pos, 0);
        assert_eq!(e.stats.false_neg, 0);
    }

    #[test]
    fn calm_r_throttles_under_high_filtered_bandwidth() {
        let mut e = engine(CalmPolicy::CalmR { r: 0.7 });
        // Flood epoch 0 with LLC misses at > 70% of peak: 8192 cycles × 16
        // B/cycle peak → 2048 line transfers saturate; feed 1800 (≈88%).
        for i in 0..1800u32 {
            e.decide(i, false, (i as u64 * 4) % CALM_EPOCH);
        }
        // Epoch 1 decisions must all refuse CALM.
        let mut calms = 0;
        for i in 0..200u32 {
            if e.decide(i, false, CALM_EPOCH + i as u64) {
                calms += 1;
            }
        }
        assert_eq!(calms, 0, "CALM must stop above the bandwidth budget");
    }

    #[test]
    fn calm_r_allows_calm_when_memory_is_idle() {
        let mut e = engine(CalmPolicy::CalmR { r: 0.7 });
        // Sparse traffic: one L2 miss per epoch, all LLC hits.
        for i in 0..10u32 {
            e.decide(i, true, i as u64 * CALM_EPOCH);
        }
        // Next decisions should CALM with probability ~1.
        let calms = (0..100u32).filter(|&i| e.decide(i, true, 11 * CALM_EPOCH + i as u64)).count();
        assert!(calms > 90, "calms = {calms}");
    }

    #[test]
    fn mapi_learns_per_pc_behaviour() {
        let mut e = engine(CalmPolicy::MapI);
        let hit_pc = 0x1000u32;
        let miss_pc = 0x2000u32;
        // Train: hit_pc always hits, miss_pc always misses.
        for i in 0..50 {
            e.decide(hit_pc, true, i);
            e.decide(miss_pc, false, i);
        }
        // After training, predictions should separate.
        assert!(!e.decide(hit_pc, true, 1000), "trained-hit PC must not CALM");
        assert!(e.decide(miss_pc, false, 1000), "trained-miss PC must CALM");
    }

    #[test]
    fn stats_fraction_helpers() {
        let s = CalmStats { false_pos: 4, false_neg: 11, true_pos: 89, true_neg: 20 };
        // FP per memory access: 4 / (89 + 11 + 4).
        assert!((s.false_pos_per_mem_access() - 4.0 / 104.0).abs() < 1e-12);
        // FN per LLC miss: 11 / (89 + 11).
        assert!((s.false_neg_per_llc_miss() - 0.11).abs() < 1e-12);
        assert_eq!(s.decisions(), 124);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CalmPolicy::CalmR { r: 0.7 }.label(), "CALM-70%");
        assert_eq!(CalmPolicy::Serial.label(), "serial");
        assert_eq!(CalmPolicy::MapI.label(), "MAP-I");
        assert_eq!(CalmPolicy::Ideal.label(), "ideal");
    }
}
