//! Memory capacity and cost model (paper §IV-E).
//!
//! COAXIAL's many cheap channels change the DIMM economics: capacity can
//! be built from low-density DIMMs at one DIMM per channel (1DPC), instead
//! of high-density DIMMs (whose price grows superlinearly — the paper
//! quotes 128 GB / 256 GB DIMMs at 5× / 20× the price of 64 GB) or
//! two-DIMMs-per-channel configurations (which cost ~15 % of the channel's
//! bandwidth).

/// Relative price of a DIMM by capacity, normalized to a 64 GB RDIMM
/// (paper §IV-E's quoted superlinear curve, extended linearly below 64 GB
/// where density is commodity).
pub fn dimm_relative_price(capacity_gb: u32) -> f64 {
    match capacity_gb {
        0..=16 => capacity_gb as f64 / 64.0,
        17..=32 => 0.5,
        33..=64 => 1.0,
        65..=128 => 5.0,
        129..=256 => 20.0,
        _ => 80.0, // extrapolated: the curve keeps steepening
    }
}

/// Bandwidth retained when populating two DIMMs per channel
/// (paper: 2DPC costs ~15 % of bandwidth).
pub const DPC2_BANDWIDTH_FACTOR: f64 = 0.85;

/// One memory build-out option.
#[derive(Debug, Clone)]
pub struct MemoryBuildout {
    pub name: String,
    /// DDR channels available (12 for the baseline, 48 for COAXIAL-4x).
    pub channels: u32,
    /// DIMM capacity in GB.
    pub dimm_gb: u32,
    /// DIMMs per channel (1 or 2).
    pub dpc: u32,
}

impl MemoryBuildout {
    pub fn new(name: &str, channels: u32, dimm_gb: u32, dpc: u32) -> Self {
        assert!(dpc == 1 || dpc == 2, "DDR5 supports 1 or 2 DIMMs per channel");
        Self { name: name.to_string(), channels, dimm_gb, dpc }
    }

    /// Total capacity in GB.
    pub fn capacity_gb(&self) -> u64 {
        self.channels as u64 * self.dpc as u64 * self.dimm_gb as u64
    }

    /// Total DIMM cost in 64 GB-DIMM units.
    pub fn relative_cost(&self) -> f64 {
        self.channels as f64 * self.dpc as f64 * dimm_relative_price(self.dimm_gb)
    }

    /// Bandwidth factor relative to the same channels at 1DPC.
    pub fn bandwidth_factor(&self) -> f64 {
        if self.dpc == 2 {
            DPC2_BANDWIDTH_FACTOR
        } else {
            1.0
        }
    }

    /// Cost per TB, in 64 GB-DIMM units.
    pub fn cost_per_tb(&self) -> f64 {
        self.relative_cost() / (self.capacity_gb() as f64 / 1024.0)
    }
}

/// The §IV-E comparison: ways of reaching a target capacity on the
/// baseline's 12 channels versus COAXIAL-4x's 48 channels.
pub fn iso_capacity_options(target_tb: f64) -> Vec<MemoryBuildout> {
    let per_channel = |channels: u32, dpc: u32| -> u32 {
        let gb = target_tb * 1024.0 / (channels as f64 * dpc as f64);
        // Round up to the next power-of-two DIMM size.
        let mut size = 16u32;
        while (size as f64) < gb {
            size *= 2;
        }
        size
    };
    vec![
        MemoryBuildout::new("baseline 12ch 1DPC", 12, per_channel(12, 1), 1),
        MemoryBuildout::new("baseline 12ch 2DPC", 12, per_channel(12, 2), 2),
        MemoryBuildout::new("COAXIAL 48ch 1DPC", 48, per_channel(48, 1), 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_curve_matches_paper_quotes() {
        let p64 = dimm_relative_price(64);
        assert_eq!(dimm_relative_price(128) / p64, 5.0, "128 GB costs 5x");
        assert_eq!(dimm_relative_price(256) / p64, 20.0, "256 GB costs 20x");
    }

    #[test]
    fn capacity_and_cost_arithmetic() {
        let b = MemoryBuildout::new("x", 12, 64, 2);
        assert_eq!(b.capacity_gb(), 12 * 2 * 64);
        assert!((b.relative_cost() - 24.0).abs() < 1e-12);
        assert_eq!(b.bandwidth_factor(), DPC2_BANDWIDTH_FACTOR);
    }

    #[test]
    fn coaxial_reaches_iso_capacity_cheaper_with_full_bandwidth() {
        // 1.5 TB: baseline needs 128 GB DIMMs (or 2DPC), COAXIAL uses 32 GB.
        let opts = iso_capacity_options(1.5);
        let base_1dpc = &opts[0];
        let base_2dpc = &opts[1];
        let coax = &opts[2];
        assert!(base_1dpc.dimm_gb >= 128);
        assert!(coax.dimm_gb <= 32);
        assert!(
            coax.relative_cost() < base_1dpc.relative_cost(),
            "COAXIAL {} vs baseline-1DPC {}",
            coax.relative_cost(),
            base_1dpc.relative_cost()
        );
        assert_eq!(coax.bandwidth_factor(), 1.0, "no 2DPC bandwidth penalty");
        assert!(base_2dpc.bandwidth_factor() < 1.0);
        // All options actually reach the target.
        for o in &opts {
            assert!(o.capacity_gb() as f64 >= 1.5 * 1024.0, "{} too small", o.name);
        }
    }

    #[test]
    fn cost_per_tb_favors_low_density() {
        let low = MemoryBuildout::new("low", 48, 32, 1);
        let high = MemoryBuildout::new("high", 12, 128, 1);
        assert!(low.cost_per_tb() < high.cost_per_tb());
    }

    #[test]
    #[should_panic(expected = "1 or 2 DIMMs")]
    fn invalid_dpc_rejected() {
        let _ = MemoryBuildout::new("bad", 12, 64, 3);
    }
}
