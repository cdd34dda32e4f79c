//! System-level power and energy-efficiency model (paper Table V).
//!
//! The paper models a 144-core, 500 W-TDP server (Sierra-Forest-class):
//! common components (cores, L1, L2) at 393 W, per-channel DDR5 MC+PHY at
//! 1.1 W, LLC leakage+access power from Cacti (94 W for 288 MB, 51 W for
//! 144 MB), PCIe 5.0 interface power at ~0.2 W/lane, and DRAMsim3-style
//! DIMM power. EDP = power × CPI²; ED²P = power × CPI³ (both lower =
//! better).

/// Power-model constants for the 144-core server.
#[derive(Debug, Clone)]
pub struct PowerModel {
    /// Cores + L1 + L2 power, W.
    pub common_w: f64,
    /// DDR5 memory controller + PHY power per channel, W.
    pub ddr_mc_w_per_channel: f64,
    /// LLC power per MB (leakage + access), W. 94 W / 288 MB from Cacti.
    pub llc_w_per_mb: f64,
    /// PCIe 5.0 interface power per lane, W.
    pub pcie_w_per_lane: f64,
    /// DIMM power per channel at baseline-like utilization, W.
    pub dimm_w_baseline_per_channel: f64,
    /// DIMM power per channel at COAXIAL-like (lower) utilization, W.
    pub dimm_w_coaxial_per_channel: f64,
}

impl PowerModel {
    /// The paper's Table V constants.
    pub fn table_v() -> Self {
        Self {
            common_w: 393.0,
            ddr_mc_w_per_channel: 13.0 / 12.0, // ≈1.08 W
            llc_w_per_mb: 94.0 / 288.0,        // ≈0.326 W/MB
            pcie_w_per_lane: 0.2,
            dimm_w_baseline_per_channel: 146.0 / 12.0, // ≈12.2 W
            dimm_w_coaxial_per_channel: 358.0 / 48.0,  // ≈7.5 W
        }
    }
}

/// A server's power composition and efficiency metrics.
#[derive(Debug, Clone)]
pub struct PowerReport {
    pub name: String,
    pub core_w: f64,
    pub ddr_mc_w: f64,
    pub llc_w: f64,
    pub cxl_w: f64,
    pub dimm_w: f64,
    pub total_w: f64,
    pub cpi: f64,
    pub edp: f64,
    pub ed2p: f64,
    pub perf_per_watt: f64,
}

/// Compute the power/EDP report for a server with the given composition.
///
/// `cpi` is the measured average cycles-per-instruction across workloads.
#[allow(clippy::too_many_arguments)]
pub fn report(
    name: &str,
    m: &PowerModel,
    llc_mb_total: f64,
    ddr_channels: u32,
    pcie_lanes: u32,
    dimm_w_per_channel: f64,
    cpi: f64,
) -> PowerReport {
    let core_w = m.common_w;
    let ddr_mc_w = ddr_channels as f64 * m.ddr_mc_w_per_channel;
    let llc_w = llc_mb_total * m.llc_w_per_mb;
    let cxl_w = pcie_lanes as f64 * m.pcie_w_per_lane;
    let dimm_w = ddr_channels as f64 * dimm_w_per_channel;
    let total_w = core_w + ddr_mc_w + llc_w + cxl_w + dimm_w;
    PowerReport {
        name: name.to_string(),
        core_w,
        ddr_mc_w,
        llc_w,
        cxl_w,
        dimm_w,
        total_w,
        cpi,
        edp: total_w * cpi * cpi,
        ed2p: total_w * cpi * cpi * cpi,
        perf_per_watt: 1.0 / (cpi * total_w),
    }
}

/// The paper's Table V rows, parameterized by the measured CPIs.
///
/// `baseline_cpi` and `coaxial_cpi` are the average CPI across all
/// workloads on each system (the paper measured 2.05 and 1.48).
pub fn table5(baseline_cpi: f64, coaxial_cpi: f64) -> (PowerReport, PowerReport) {
    let m = PowerModel::table_v();
    let baseline = report(
        "Baseline",
        &m,
        288.0, // 144 cores × 2 MB
        12,
        0,
        m.dimm_w_baseline_per_channel,
        baseline_cpi,
    );
    let coaxial = report(
        "COAXIAL",
        &m,
        144.0, // LLC halved
        48,
        48 * 8, // 48 x8 links
        m.dimm_w_coaxial_per_channel,
        coaxial_cpi,
    );
    (baseline, coaxial)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_total_power_matches_paper() {
        let (base, coax) = table5(2.05, 1.48);
        // Paper: 646 W baseline, 931 W COAXIAL.
        assert!((base.total_w - 646.0).abs() < 10.0, "baseline = {:.0} W", base.total_w);
        assert!((coax.total_w - 931.0).abs() < 15.0, "coaxial = {:.0} W", coax.total_w);
    }

    #[test]
    fn component_breakdown_matches_paper() {
        let (base, coax) = table5(2.05, 1.48);
        assert!((base.ddr_mc_w - 13.0).abs() < 0.5);
        assert!((coax.ddr_mc_w - 52.0).abs() < 1.0);
        assert!((base.llc_w - 94.0).abs() < 1.0);
        assert!((coax.llc_w - 51.0).abs() < 5.0);
        assert!((coax.cxl_w - 77.0).abs() < 1.0);
        assert!((base.dimm_w - 146.0).abs() < 1.0);
        assert!((coax.dimm_w - 358.0).abs() < 2.0);
    }

    #[test]
    fn edp_improves_despite_higher_power() {
        let (base, coax) = table5(2.05, 1.48);
        let edp_ratio = coax.edp / base.edp;
        let ed2p_ratio = coax.ed2p / base.ed2p;
        // Paper: 0.75x EDP, 0.53x ED²P.
        assert!((edp_ratio - 0.75).abs() < 0.03, "EDP ratio = {edp_ratio:.2}");
        assert!((ed2p_ratio - 0.53).abs() < 0.04, "ED²P ratio = {ed2p_ratio:.2}");
    }

    #[test]
    fn perf_per_watt_close_to_baseline() {
        let (base, coax) = table5(2.05, 1.48);
        let rel = coax.perf_per_watt / base.perf_per_watt;
        // Paper: 96% of the baseline's performance-per-watt.
        assert!((rel - 0.96).abs() < 0.03, "rel perf/W = {rel:.2}");
    }

    #[test]
    fn equal_cpi_means_coaxial_is_strictly_less_efficient() {
        // Sanity: with no speedup, more power must mean worse EDP.
        let (base, coax) = table5(2.0, 2.0);
        assert!(coax.edp > base.edp);
    }
}
