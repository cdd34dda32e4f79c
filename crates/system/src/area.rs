//! Silicon-area model (paper Tables I and II).
//!
//! Component areas are normalized to 1 MB of LLC, derived by the authors
//! from Golden Cove (Intel 10 nm) and Zen 3 (TSMC 7 nm) die shots (paper
//! references \[34\], \[58\]). The model reproduces Table II's
//! relative-area column for the candidate 144-core server designs.

/// Relative area of processor components, in units of 1 MB LLC (Table I).
#[derive(Debug, Clone, Copy)]
pub struct AreaModel {
    pub llc_1mb: f64,
    pub zen3_core: f64,
    pub pcie_x8: f64,
    pub ddr_channel: f64,
}

impl AreaModel {
    /// The paper's Table I values.
    pub fn table_i() -> Self {
        Self { llc_1mb: 1.0, zen3_core: 6.5, pcie_x8: 5.9, ddr_channel: 10.8 }
    }
}

/// One Table II server design row.
#[derive(Debug, Clone)]
pub struct ServerDesign {
    pub name: &'static str,
    pub cores: u32,
    pub llc_mb_per_core: f64,
    pub ddr_channels: u32,
    pub cxl_x8_channels: u32,
    pub relative_bandwidth: f64,
    pub comment: &'static str,
}

impl ServerDesign {
    /// Total die area in LLC-MB units under the given area model.
    pub fn area(&self, m: &AreaModel) -> f64 {
        self.cores as f64 * m.zen3_core
            + self.cores as f64 * self.llc_mb_per_core * m.llc_1mb
            + self.ddr_channels as f64 * m.ddr_channel
            + self.cxl_x8_channels as f64 * m.pcie_x8
    }

    /// Area relative to the DDR baseline design.
    pub fn relative_area(&self, m: &AreaModel) -> f64 {
        self.area(m) / Self::baseline().area(m)
    }

    /// Table II row 1: the 144-core DDR-based baseline.
    pub fn baseline() -> Self {
        Self {
            name: "DDR-based",
            cores: 144,
            llc_mb_per_core: 2.0,
            ddr_channels: 12,
            cxl_x8_channels: 0,
            relative_bandwidth: 1.0,
            comment: "baseline",
        }
    }

    /// Table II row 2: iso-pin COAXIAL-5x (60 x8 CXL).
    pub fn coaxial_5x() -> Self {
        Self {
            name: "COAXIAL-5x",
            cores: 144,
            llc_mb_per_core: 2.0,
            ddr_channels: 0,
            cxl_x8_channels: 60,
            relative_bandwidth: 5.0,
            comment: "iso-pin",
        }
    }

    /// Table II row 3: iso-LLC COAXIAL-2x (24 x8 CXL).
    pub fn coaxial_2x() -> Self {
        Self {
            name: "COAXIAL-2x",
            cores: 144,
            llc_mb_per_core: 2.0,
            ddr_channels: 0,
            cxl_x8_channels: 24,
            relative_bandwidth: 2.0,
            comment: "iso-LLC",
        }
    }

    /// Table II row 4: balanced COAXIAL-4x (48 x8 CXL, 1 MB LLC/core).
    pub fn coaxial_4x() -> Self {
        Self {
            name: "COAXIAL-4x",
            cores: 144,
            llc_mb_per_core: 1.0,
            ddr_channels: 0,
            cxl_x8_channels: 48,
            relative_bandwidth: 4.0,
            comment: "balanced",
        }
    }

    /// Table II row 5: COAXIAL-asym (48 x8 CXL-asym, 2 DDR channels each
    /// on the device side — no extra processor area).
    pub fn coaxial_asym() -> Self {
        Self {
            name: "COAXIAL-asym",
            cores: 144,
            llc_mb_per_core: 1.0,
            ddr_channels: 0,
            cxl_x8_channels: 48,
            relative_bandwidth: f64::NAN, // asymmetric R/W provisioning
            comment: "max BW",
        }
    }

    /// All Table II rows in paper order.
    pub fn table_ii() -> Vec<ServerDesign> {
        vec![
            Self::baseline(),
            Self::coaxial_5x(),
            Self::coaxial_2x(),
            Self::coaxial_4x(),
            Self::coaxial_asym(),
        ]
    }
}

/// How many x8 PCIe controllers fit in one DDR controller's *pin* budget
/// (§IV-A: a DDR5 channel needs 160 pins, an x8 CXL channel 32).
pub fn cxl_channels_per_ddr_pins() -> u32 {
    160 / 32
}

/// Relative silicon area of replacing one DDR controller with four x8
/// PCIe controllers (§IV-B: "2.2x more silicon area").
pub fn four_x8_vs_one_ddr_area() -> f64 {
    let m = AreaModel::table_i();
    4.0 * m.pcie_x8 / m.ddr_channel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_pin_gives_five_channels() {
        assert_eq!(cxl_channels_per_ddr_pins(), 5);
    }

    #[test]
    fn four_x8_cost_about_2_2x_ddr() {
        let x = four_x8_vs_one_ddr_area();
        assert!((x - 2.18).abs() < 0.05, "4 x8 / DDR = {x}");
    }

    #[test]
    fn coaxial_5x_costs_about_17_percent_more_die() {
        let m = AreaModel::table_i();
        let rel = ServerDesign::coaxial_5x().relative_area(&m);
        // Paper: 1.17x.
        assert!((rel - 1.17).abs() < 0.03, "COAXIAL-5x rel area = {rel:.3}");
    }

    #[test]
    fn coaxial_4x_is_iso_area() {
        let m = AreaModel::table_i();
        let rel = ServerDesign::coaxial_4x().relative_area(&m);
        // Paper: 1.01x.
        assert!((rel - 1.01).abs() < 0.03, "COAXIAL-4x rel area = {rel:.3}");
    }

    #[test]
    fn coaxial_2x_fits_baseline_area() {
        let m = AreaModel::table_i();
        let rel = ServerDesign::coaxial_2x().relative_area(&m);
        assert!(rel <= 1.01, "COAXIAL-2x rel area = {rel:.3}");
    }

    #[test]
    fn table_ii_has_five_rows() {
        assert_eq!(ServerDesign::table_ii().len(), 5);
    }
}
