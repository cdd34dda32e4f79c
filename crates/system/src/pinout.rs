//! Bandwidth-per-processor-pin model (paper Fig. 1).
//!
//! Fig. 1 plots the bandwidth per pin of DDR and PCIe generations,
//! normalized to PCIe 1.0. DDR interfaces are charged 160 processor pins
//! per channel (data + ECC + command/address); PCIe is 4 pins per lane
//! (differential TX + RX). DDR bandwidths are the combined read+write
//! peak; PCIe bandwidths are per direction (the paper notes this makes
//! the comparison *conservative* for PCIe).

/// One interface generation's point on Fig. 1.
#[derive(Debug, Clone)]
pub struct InterfacePoint {
    pub name: &'static str,
    pub family: &'static str,
    pub year: u32,
    /// Peak bandwidth in GB/s (per channel for DDR, per lane per
    /// direction for PCIe).
    pub bandwidth_gbs: f64,
    /// Processor pins required for that bandwidth.
    pub pins: u32,
}

impl InterfacePoint {
    pub fn bw_per_pin(&self) -> f64 {
        self.bandwidth_gbs / self.pins as f64
    }
}

/// Pins a DDR channel drives to the processor (§II-A).
pub const DDR_PINS: u32 = 160;
/// Pins per PCIe lane (2 TX + 2 RX).
pub const PCIE_PINS_PER_LANE: u32 = 4;

/// The Fig. 1 dataset.
pub fn bandwidth_per_pin_table() -> Vec<InterfacePoint> {
    vec![
        // DDR: per-channel combined bandwidth at the top transfer rate.
        InterfacePoint {
            name: "DDR1-400",
            family: "DDR",
            year: 2000,
            bandwidth_gbs: 3.2,
            pins: DDR_PINS,
        },
        InterfacePoint {
            name: "DDR2-800",
            family: "DDR",
            year: 2003,
            bandwidth_gbs: 6.4,
            pins: DDR_PINS,
        },
        InterfacePoint {
            name: "DDR3-1600",
            family: "DDR",
            year: 2007,
            bandwidth_gbs: 12.8,
            pins: DDR_PINS,
        },
        InterfacePoint {
            name: "DDR4-3200",
            family: "DDR",
            year: 2014,
            bandwidth_gbs: 25.6,
            pins: DDR_PINS,
        },
        InterfacePoint {
            name: "DDR5-4800",
            family: "DDR",
            year: 2020,
            bandwidth_gbs: 38.4,
            pins: DDR_PINS,
        },
        // PCIe: per-lane, per-direction.
        InterfacePoint {
            name: "PCIe-1.0",
            family: "PCIe",
            year: 2003,
            bandwidth_gbs: 0.25,
            pins: PCIE_PINS_PER_LANE,
        },
        InterfacePoint {
            name: "PCIe-2.0",
            family: "PCIe",
            year: 2007,
            bandwidth_gbs: 0.5,
            pins: PCIE_PINS_PER_LANE,
        },
        InterfacePoint {
            name: "PCIe-3.0",
            family: "PCIe",
            year: 2010,
            bandwidth_gbs: 1.0,
            pins: PCIE_PINS_PER_LANE,
        },
        InterfacePoint {
            name: "PCIe-4.0",
            family: "PCIe",
            year: 2017,
            bandwidth_gbs: 2.0,
            pins: PCIE_PINS_PER_LANE,
        },
        InterfacePoint {
            name: "PCIe-5.0",
            family: "PCIe",
            year: 2019,
            bandwidth_gbs: 4.0,
            pins: PCIE_PINS_PER_LANE,
        },
        InterfacePoint {
            name: "PCIe-6.0",
            family: "PCIe",
            year: 2022,
            bandwidth_gbs: 8.0,
            pins: PCIE_PINS_PER_LANE,
        },
    ]
}

/// The Fig. 1 series normalized to PCIe 1.0's bandwidth per pin.
pub fn normalized_to_pcie1() -> Vec<(String, f64)> {
    let table = bandwidth_per_pin_table();
    let pcie1 = table.iter().find(|p| p.name == "PCIe-1.0").expect("PCIe 1.0 present").bw_per_pin();
    table.iter().map(|p| (p.name.to_string(), p.bw_per_pin() / pcie1)).collect()
}

/// The headline §II-C ratio: PCIe 5.0 x8 vs. DDR5-4800 bandwidth per pin.
pub fn pcie5_vs_ddr5_ratio() -> f64 {
    let table = bandwidth_per_pin_table();
    let pcie5 = table.iter().find(|p| p.name == "PCIe-5.0").unwrap().bw_per_pin();
    let ddr5 = table.iter().find(|p| p.name == "DDR5-4800").unwrap().bw_per_pin();
    pcie5 / ddr5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie5_offers_about_4x_bw_per_pin_over_ddr5() {
        let r = pcie5_vs_ddr5_ratio();
        // Paper §II-C: "the present bandwidth gap is 4x".
        assert!((3.9..4.4).contains(&r), "ratio = {r:.2}");
    }

    #[test]
    fn normalization_anchors_pcie1_at_one() {
        let n = normalized_to_pcie1();
        let pcie1 = n.iter().find(|(name, _)| name == "PCIe-1.0").unwrap();
        assert!((pcie1.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn each_family_is_monotonically_improving() {
        let t = bandwidth_per_pin_table();
        for family in ["DDR", "PCIe"] {
            let series: Vec<f64> =
                t.iter().filter(|p| p.family == family).map(|p| p.bw_per_pin()).collect();
            assert!(series.windows(2).all(|w| w[1] > w[0]), "{family} must improve");
        }
    }

    #[test]
    fn ddr_never_catches_pcie_from_gen3_on() {
        let t = bandwidth_per_pin_table();
        let ddr_best =
            t.iter().filter(|p| p.family == "DDR").map(|p| p.bw_per_pin()).fold(0.0, f64::max);
        let pcie3 = t.iter().find(|p| p.name == "PCIe-3.0").unwrap().bw_per_pin();
        assert!(pcie3 > ddr_best, "PCIe 3.0 already beats every DDR generation per pin");
    }
}
