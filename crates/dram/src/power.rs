//! DRAMsim3-style energy accounting for DDR5 RDIMMs.
//!
//! The paper's Table V models memory power with DRAMsim3's power model and a
//! 32 GB DDR5-4800 RDIMM per channel. We use per-command energies derived
//! from Micron DDR5 IDD specifications at the same granularity DRAMsim3
//! uses: ACT+PRE pair energy, per-CAS read/write energy (including I/O),
//! refresh energy, and background (static) power per DIMM.

use crate::channel::ChannelStats;

/// Per-command energy / background power parameters for one RDIMM.
#[derive(Debug, Clone)]
pub struct DramPowerParams {
    /// Energy per ACT+PRE pair, nanojoules.
    pub e_act_pre_nj: f64,
    /// Energy per read CAS (64 B, incl. I/O), nanojoules.
    pub e_rd_nj: f64,
    /// Energy per write CAS (64 B, incl. ODT), nanojoules.
    pub e_wr_nj: f64,
    /// Energy per all-bank refresh, nanojoules.
    pub e_ref_nj: f64,
    /// Background (idle + peripheral) power for the whole DIMM, watts.
    pub background_w: f64,
}

impl DramPowerParams {
    /// 32 GB DDR5-4800 RDIMM (2 ranks of x4 16 Gb dies), values in the range
    /// published for Micron DDR5 and used by DRAMsim3 configs.
    pub fn rdimm_32gb_ddr5_4800() -> Self {
        Self {
            e_act_pre_nj: 8.0,
            e_rd_nj: 15.0,
            e_wr_nj: 16.0,
            e_ref_nj: 1400.0,
            background_w: 4.0,
        }
    }
}

/// Energy totals for one channel over an observation window.
#[derive(Debug, Clone, Default)]
pub struct DramEnergy {
    pub act_pre_nj: f64,
    pub rd_nj: f64,
    pub wr_nj: f64,
    pub ref_nj: f64,
    pub background_nj: f64,
    pub window_ns: f64,
}

impl DramEnergy {
    /// Compute energy for a channel's command counts over its window.
    pub fn from_stats(stats: &ChannelStats, p: &DramPowerParams) -> Self {
        let window_ns = coaxial_sim::cycles_to_ns(stats.elapsed_cycles);
        Self {
            act_pre_nj: stats.act as f64 * p.e_act_pre_nj,
            rd_nj: stats.rd_cas as f64 * p.e_rd_nj,
            wr_nj: stats.wr_cas as f64 * p.e_wr_nj,
            ref_nj: stats.refab as f64 * p.e_ref_nj,
            background_nj: p.background_w * window_ns, // 1 W × 1 ns = 1 nJ
            window_ns,
        }
    }

    pub fn total_nj(&self) -> f64 {
        self.act_pre_nj + self.rd_nj + self.wr_nj + self.ref_nj + self.background_nj
    }

    /// Average power over the window, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.window_ns == 0.0 {
            0.0
        } else {
            self.total_nj() / self.window_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_sim::Cycle;

    fn stats(rd: u64, wr: u64, act: u64, cycles: Cycle) -> ChannelStats {
        ChannelStats {
            rd_cas: rd,
            wr_cas: wr,
            act,
            pre: act,
            elapsed_cycles: cycles,
            ..Default::default()
        }
    }

    #[test]
    fn idle_dimm_draws_background_power() {
        let p = DramPowerParams::rdimm_32gb_ddr5_4800();
        let e = DramEnergy::from_stats(&stats(0, 0, 0, 2_400_000), &p);
        let w = e.average_power_w();
        assert!((w - p.background_w).abs() < 1e-9, "idle power = {w} W");
    }

    #[test]
    fn active_dimm_draws_more_than_idle() {
        let p = DramPowerParams::rdimm_32gb_ddr5_4800();
        // 1 ms window, heavily loaded: ~60% bus utilization.
        let cycles = 2_400_000;
        let accesses = 180_000; // 64 B each ≈ 11.5 GB/s
        let busy = DramEnergy::from_stats(&stats(accesses, accesses / 3, accesses / 4, cycles), &p);
        let idle = DramEnergy::from_stats(&stats(0, 0, 0, cycles), &p);
        assert!(busy.average_power_w() > idle.average_power_w() * 1.5);
        // A loaded DDR5 RDIMM lands in the handful-of-watts range.
        let w = busy.average_power_w();
        assert!((5.0..20.0).contains(&w), "loaded DIMM power = {w} W");
    }

    #[test]
    fn energy_scales_linearly_with_commands() {
        let p = DramPowerParams::rdimm_32gb_ddr5_4800();
        let e1 = DramEnergy::from_stats(&stats(100, 50, 30, 1000), &p);
        let e2 = DramEnergy::from_stats(&stats(200, 100, 60, 1000), &p);
        let dyn1 = e1.total_nj() - e1.background_nj;
        let dyn2 = e2.total_nj() - e2.background_nj;
        assert!((dyn2 - 2.0 * dyn1).abs() < 1e-9);
    }
}
