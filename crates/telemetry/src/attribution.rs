//! Per-request latency attribution.
//!
//! Every primary L2 miss travels through a fixed set of component
//! boundaries: the NoC, the LLC bank, the MSHR→controller issue stage, the
//! memory-controller queues, DRAM service, and (on COAXIAL systems) the CXL
//! link. The hierarchy stamps a [`MissRecord`] with the cycles spent in
//! each, and [`LatencyAttribution`] folds records into per-component and
//! per-channel histograms so a run can emit a paper-style breakdown
//! (Figs. 2b/5: unloaded vs. queuing vs. service).
//!
//! **Conservation contract:** [`MissRecord::components`] sums *exactly* to
//! the end-to-end L2-miss latency ([`MissRecord::total`]) for every
//! request. Whatever the explicit stamps do not cover is attributed to
//! [`Component::Overlap`] — on the CALM concurrent path this is the
//! wait-for-LLC overhang; on serial paths it is zero. The property is
//! enforced by tests in `coaxial-cache` and `coaxial-system`.

use crate::stats::Histogram;
use crate::time::Cycle;

/// A latency component of one L2 miss, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Mesh traversals: L2 → LLC bank, bank → memory controller, and the
    /// data return crossing back to the core tile.
    Noc,
    /// LLC bank access latency (serial and LLC-hit paths; the CALM
    /// concurrent path does not pay it before memory issue).
    Llc,
    /// Cycles a ready memory request waited for backend queue space
    /// (hierarchy issue queue back-pressure).
    IssueWait,
    /// Cycles queued inside the memory backend before the first DRAM
    /// command (includes CXL message queues and link contention).
    DramQueue,
    /// First DRAM command to data completion.
    DramService,
    /// Fixed CXL interface adder (ports + serialization); 0 on direct DDR.
    CxlLink,
    /// Residual wait not covered by the stamps above — the CALM path's
    /// wait-for-LLC overhang. Zero on serial paths by construction.
    Overlap,
}

/// All components in display order.
pub const COMPONENTS: [Component; 7] = [
    Component::Noc,
    Component::Llc,
    Component::IssueWait,
    Component::DramQueue,
    Component::DramService,
    Component::CxlLink,
    Component::Overlap,
];

impl Component {
    /// Stable short label (used as metric path segment and table column).
    pub fn label(self) -> &'static str {
        match self {
            Component::Noc => "noc",
            Component::Llc => "llc",
            Component::IssueWait => "issue_wait",
            Component::DramQueue => "dram_queue",
            Component::DramService => "dram_service",
            Component::CxlLink => "cxl_link",
            Component::Overlap => "overlap",
        }
    }

    /// Which of the paper's four coarse categories this folds into
    /// (on-chip / queuing / DRAM service / CXL interface).
    pub fn paper_category(self) -> &'static str {
        match self {
            Component::Noc | Component::Llc | Component::Overlap => "on-chip",
            Component::IssueWait | Component::DramQueue => "queuing",
            Component::DramService => "service",
            Component::CxlLink => "cxl",
        }
    }
}

/// The completed timestamp ledger of one primary L2 miss.
///
/// Stamped by the cache hierarchy at completion time; all durations are in
/// system cycles. `t_l2_miss` is the breakdown origin (the cycle the L2
/// miss was determined), matching the paper's L2-miss latency definition.
#[derive(Debug, Clone, Copy)]
pub struct MissRecord {
    pub core: u32,
    pub line: u64,
    /// Memory-channel index serving the line (0 on LLC hits).
    pub channel: u32,
    /// Went down the CALM concurrent path.
    pub calm: bool,
    /// Served by an LLC hit (no memory fetch on the critical path).
    pub llc_hit: bool,
    pub t_l2_miss: Cycle,
    pub t_done: Cycle,
    pub noc: Cycle,
    pub llc: Cycle,
    pub issue_wait: Cycle,
    pub dram_queue: Cycle,
    pub dram_service: Cycle,
    pub cxl_link: Cycle,
}

impl MissRecord {
    /// End-to-end L2-miss latency.
    #[inline]
    pub fn total(&self) -> Cycle {
        self.t_done - self.t_l2_miss
    }

    /// Cycles not covered by the explicit stamps (CALM wait-for-LLC
    /// overhang). Saturating only as a defensive measure; the stamping
    /// invariants guarantee the explicit components never exceed the total.
    #[inline]
    pub fn overlap(&self) -> Cycle {
        self.total().saturating_sub(self.stamped_sum())
    }

    #[inline]
    fn stamped_sum(&self) -> Cycle {
        self.noc + self.llc + self.issue_wait + self.dram_queue + self.dram_service + self.cxl_link
    }

    /// Per-component durations in [`COMPONENTS`] order. Sums exactly to
    /// [`MissRecord::total`] (the conservation contract).
    pub fn components(&self) -> [Cycle; COMPONENTS.len()] {
        [
            self.noc,
            self.llc,
            self.issue_wait,
            self.dram_queue,
            self.dram_service,
            self.cxl_link,
            self.overlap(),
        ]
    }
}

/// Per-channel component sums (means are derived at report time).
#[derive(Debug, Clone, Default)]
pub struct ChannelBreakdown {
    pub requests: u64,
    pub component_cycles: [u64; COMPONENTS.len()],
}

/// Aggregated latency attribution over a measurement window.
#[derive(Debug, Clone)]
pub struct LatencyAttribution {
    /// One latency histogram per component (cycles).
    pub per_component: Vec<Histogram>,
    /// End-to-end L2-miss latency histogram (cycles).
    pub total: Histogram,
    /// Component sums per memory channel (LLC hits land on channel 0's
    /// entry but carry no memory-path cycles).
    pub per_channel: Vec<ChannelBreakdown>,
    pub llc_hits: u64,
    pub calm_requests: u64,
}

impl Default for LatencyAttribution {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyAttribution {
    pub fn new() -> Self {
        Self {
            per_component: (0..COMPONENTS.len()).map(|_| Histogram::new()).collect(),
            total: Histogram::new(),
            per_channel: Vec::new(),
            llc_hits: 0,
            calm_requests: 0,
        }
    }

    /// Fold one completed miss into the aggregates.
    pub fn record(&mut self, rec: &MissRecord) {
        let comps = rec.components();
        for (h, &c) in self.per_component.iter_mut().zip(&comps) {
            h.record(c);
        }
        self.total.record(rec.total());
        let ch = rec.channel as usize;
        if self.per_channel.len() <= ch {
            self.per_channel.resize_with(ch + 1, ChannelBreakdown::default);
        }
        let slot = &mut self.per_channel[ch];
        slot.requests += 1;
        for (s, &c) in slot.component_cycles.iter_mut().zip(&comps) {
            *s += c;
        }
        self.llc_hits += rec.llc_hit as u64;
        self.calm_requests += rec.calm as u64;
    }

    /// Number of recorded misses.
    pub fn requests(&self) -> u64 {
        self.total.count()
    }

    /// Mean cycles attributed to `c`.
    pub fn mean_cycles(&self, c: Component) -> f64 {
        let i = COMPONENTS.iter().position(|&x| x == c).expect("known component");
        // Means over *all* misses (a miss that skipped a component
        // contributes 0), so component means sum to the total mean.
        if self.total.count() == 0 {
            0.0
        } else {
            self.per_component[i].sum() / self.total.count() as f64
        }
    }

    /// (component, mean ns) rows in display order, converted at the
    /// system clock via [`crate::time`].
    pub fn mean_ns_rows(&self) -> Vec<(Component, f64)> {
        COMPONENTS
            .iter()
            .map(|&c| (c, crate::time::cycles_f64_to_ns(self.mean_cycles(c))))
            .collect()
    }

    /// Paper-style coarse means in cycles: (on-chip, queuing, service, cxl).
    pub fn paper_breakdown_cycles(&self) -> (f64, f64, f64, f64) {
        let (mut on, mut q, mut s, mut x) = (0.0, 0.0, 0.0, 0.0);
        for &c in &COMPONENTS {
            let v = self.mean_cycles(c);
            match c.paper_category() {
                "on-chip" => on += v,
                "queuing" => q += v,
                "service" => s += v,
                _ => x += v,
            }
        }
        (on, q, s, x)
    }

    /// Paper-style coarse means in ns: (on-chip, queuing, service, cxl).
    /// Comparable with `HierStats::breakdown_ns` in `coaxial-cache`.
    /// Each component converts before summing, so the accumulation order
    /// matches the per-component rows exactly.
    pub fn paper_breakdown_ns(&self) -> (f64, f64, f64, f64) {
        let (mut on, mut q, mut s, mut x) = (0.0, 0.0, 0.0, 0.0);
        for &c in &COMPONENTS {
            let v = crate::time::cycles_f64_to_ns(self.mean_cycles(c));
            match c.paper_category() {
                "on-chip" => on += v,
                "queuing" => q += v,
                "service" => s += v,
                _ => x += v,
            }
        }
        (on, q, s, x)
    }

    /// Fold another attribution (e.g. another run shard) into this one.
    pub fn merge(&mut self, other: &LatencyAttribution) {
        for (a, b) in self.per_component.iter_mut().zip(&other.per_component) {
            a.merge(b);
        }
        self.total.merge(&other.total);
        if self.per_channel.len() < other.per_channel.len() {
            self.per_channel.resize_with(other.per_channel.len(), ChannelBreakdown::default);
        }
        for (a, b) in self.per_channel.iter_mut().zip(&other.per_channel) {
            a.requests += b.requests;
            for (x, y) in a.component_cycles.iter_mut().zip(&b.component_cycles) {
                *x += y;
            }
        }
        self.llc_hits += other.llc_hits;
        self.calm_requests += other.calm_requests;
    }

    /// Export the aggregates into a metrics registry under `prefix`
    /// (e.g. `telemetry.l2_miss`).
    pub fn export_metrics(&self, reg: &mut crate::registry::MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.requests"), self.requests());
        reg.set_counter(&format!("{prefix}.llc_hits"), self.llc_hits);
        reg.set_counter(&format!("{prefix}.calm_requests"), self.calm_requests);
        reg.put_histogram(&format!("{prefix}.total_cycles"), self.total.clone());
        for (i, &c) in COMPONENTS.iter().enumerate() {
            reg.put_histogram(
                &format!("{prefix}.component.{}_cycles", c.label()),
                self.per_component[i].clone(),
            );
        }
        for (ch, slot) in self.per_channel.iter().enumerate() {
            reg.set_counter(&format!("{prefix}.ch{ch}.requests"), slot.requests);
            for (i, &c) in COMPONENTS.iter().enumerate() {
                reg.set_counter(
                    &format!("{prefix}.ch{ch}.{}_cycles", c.label()),
                    slot.component_cycles[i],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(noc: Cycle, llc: Cycle, q: Cycle, s: Cycle, x: Cycle, overlap: Cycle) -> MissRecord {
        MissRecord {
            core: 0,
            line: 42,
            channel: 1,
            calm: overlap > 0,
            llc_hit: false,
            t_l2_miss: 1000,
            t_done: 1000 + noc + llc + q + s + x + overlap,
            noc,
            llc,
            issue_wait: 0,
            dram_queue: q,
            dram_service: s,
            cxl_link: x,
        }
    }

    #[test]
    fn components_conserve_total() {
        for rec in [
            record(12, 20, 5, 40, 126, 0),
            record(6, 0, 0, 0, 0, 0),
            record(18, 0, 33, 90, 126, 17),
        ] {
            let sum: Cycle = rec.components().iter().sum();
            assert_eq!(sum, rec.total(), "components must sum to total");
        }
    }

    #[test]
    fn component_means_sum_to_total_mean() {
        let mut agg = LatencyAttribution::new();
        agg.record(&record(12, 20, 5, 40, 126, 0));
        agg.record(&record(6, 0, 0, 80, 126, 9));
        let total_mean: f64 = agg.total.mean();
        let comp_sum: f64 = COMPONENTS.iter().map(|&c| agg.mean_cycles(c)).sum();
        assert!((total_mean - comp_sum).abs() < 1e-9, "{total_mean} vs {comp_sum}");
    }

    #[test]
    fn per_channel_sums_track_requests() {
        let mut agg = LatencyAttribution::new();
        agg.record(&record(12, 20, 5, 40, 126, 0));
        agg.record(&record(12, 20, 5, 40, 126, 0));
        assert_eq!(agg.per_channel.len(), 2);
        assert_eq!(agg.per_channel[1].requests, 2);
        assert_eq!(agg.per_channel[0].requests, 0);
        let sum: u64 = agg.per_channel[1].component_cycles.iter().sum();
        assert_eq!(sum, 2 * (12 + 20 + 5 + 40 + 126));
    }

    #[test]
    fn merge_matches_combined_stream() {
        let mut a = LatencyAttribution::new();
        let mut b = LatencyAttribution::new();
        let mut whole = LatencyAttribution::new();
        for i in 0..100u64 {
            let r = record(6 + i % 7, 20, i % 3, 40 + i, 126, 0);
            if i % 2 == 0 {
                a.record(&r);
            } else {
                b.record(&r);
            }
            whole.record(&r);
        }
        a.merge(&b);
        assert_eq!(a.requests(), whole.requests());
        for &c in &COMPONENTS {
            assert!((a.mean_cycles(c) - whole.mean_cycles(c)).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_categories_cover_all_components() {
        let mut agg = LatencyAttribution::new();
        agg.record(&record(12, 20, 5, 40, 126, 11));
        let (on, q, s, x) = agg.paper_breakdown_cycles();
        let total = agg.total.mean();
        assert!((on + q + s + x - total).abs() < 1e-9);
    }
}
