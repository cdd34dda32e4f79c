//! A COAXIAL memory system: several CXL channels behind one
//! [`MemoryBackend`] interface. This is what replaces the baseline's
//! direct-attached [`coaxial_dram::MultiChannel`] in a COAXIAL server.

use coaxial_dram::{ChannelStats, DramConfig, MemRequest, MemResponse, MemoryBackend};
use coaxial_sim::Cycle;

use crate::channel::CxlChannel;
use crate::config::CxlLinkConfig;

/// N CXL channels with line-granularity interleaving across them.
pub struct CxlMemory {
    channels: Vec<CxlChannel>,
}

impl CxlMemory {
    pub fn new(link_cfg: &CxlLinkConfig, dram_cfg: &DramConfig, channels: usize) -> Self {
        assert!(channels > 0);
        Self {
            channels: (0..channels).map(|_| CxlChannel::new(link_cfg.clone(), dram_cfg)).collect(),
        }
    }

    #[inline]
    fn route(&self, line_addr: u64) -> (usize, u64) {
        let n = self.channels.len() as u64;
        (coaxial_sim::idx(line_addr % n), line_addr / n)
    }

    /// Aggregated DDR stats across all Type-3 devices.
    pub fn stats(&self) -> ChannelStats {
        let mut it = self.channels.iter();
        let mut st = it.next().expect("≥1 channel").ddr_stats();
        for c in it {
            st.merge(&c.ddr_stats());
        }
        st
    }

    /// Mean TX/RX link utilization across channels.
    pub fn link_utilization(&self) -> (f64, f64) {
        let n = self.channels.len() as f64;
        let (mut tx, mut rx) = (0.0, 0.0);
        for c in &self.channels {
            let (t, r) = c.link_utilization(c.window_cycles());
            tx += t;
            rx += r;
        }
        (tx / n, rx / n)
    }

    pub fn channels(&self) -> &[CxlChannel] {
        &self.channels
    }

    /// Export per-channel link + device-DDR metrics under `prefix`
    /// (`{prefix}.ch{i}.link.*` and `{prefix}.ch{i}.ddr.*`).
    pub fn export_metrics(&self, reg: &mut coaxial_telemetry::MetricsRegistry, prefix: &str) {
        let mut credit_wait = 0u64;
        let mut credit_occ = 0.0f64;
        for (i, c) in self.channels.iter().enumerate() {
            let (tx, rx) = c.link_utilization(c.window_cycles());
            reg.set_gauge(&format!("{prefix}.ch{i}.link.tx_utilization"), tx);
            reg.set_gauge(&format!("{prefix}.ch{i}.link.rx_utilization"), rx);
            reg.set_counter(
                &format!("{prefix}.ch{i}.port.credit_wait_cycles"),
                c.credit_wait_cycles,
            );
            reg.set_gauge(
                &format!("{prefix}.ch{i}.port.credit_occupancy"),
                c.credit_occupancy_mean(),
            );
            credit_wait += c.credit_wait_cycles;
            credit_occ += c.credit_occupancy_mean();
            c.ddr_stats().export_metrics(reg, &format!("{prefix}.ch{i}.ddr"));
        }
        let (tx, rx) = self.link_utilization();
        reg.set_gauge(&format!("{prefix}.link.tx_utilization"), tx);
        reg.set_gauge(&format!("{prefix}.link.rx_utilization"), rx);
        // Aggregate link-pressure signal (ROADMAP telemetry item): cycles
        // TX heads spent blocked on flow-control credits alone.
        reg.set_counter("cxl.port.credit_wait_cycles", credit_wait);
        // Mean outstanding credits per link: the occupancy companion to the
        // wait counter — how full the device buffer ran, not just whether
        // the TX head ever starved.
        reg.set_gauge("cxl.port.credit_occupancy", credit_occ / self.channels.len() as f64);
        self.stats().export_metrics(reg, &format!("{prefix}.ddr_total"));
    }
}

impl MemoryBackend for CxlMemory {
    fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let (c, local) = self.route(req.line_addr);
        let mut local_req = req;
        local_req.line_addr = local;
        self.channels[c].try_enqueue(local_req).map_err(|mut r| {
            r.line_addr = req.line_addr;
            r
        })
    }

    fn tick(&mut self, now: Cycle) {
        for c in &mut self.channels {
            c.tick(now);
        }
    }

    fn pop_response(&mut self, _now: Cycle) -> Option<MemResponse> {
        let n = self.channels.len() as u64;
        for (i, c) in self.channels.iter_mut().enumerate() {
            if let Some(mut r) = c.pop_response() {
                r.line_addr = r.line_addr * n + i as u64;
                return Some(r);
            }
        }
        None
    }

    fn ddr_channel_count(&self) -> usize {
        self.channels.iter().map(|c| c.ddr_channel_count()).sum()
    }

    fn ddr_stats(&self) -> ChannelStats {
        self.stats()
    }

    fn reset_stats(&mut self, now: Cycle) {
        for c in &mut self.channels {
            c.reset_stats(now);
        }
    }

    fn peak_bandwidth_gbs(&self) -> f64 {
        coaxial_dram::DramConfig::ddr5_4800().peak_bandwidth_gbs() * self.ddr_channel_count() as f64
    }

    fn link_utilization(&self) -> Option<(f64, f64)> {
        Some(CxlMemory::link_utilization(self))
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        self.channels.iter().map(|c| c.next_event(now)).min().unwrap_or(now + 1)
    }

    fn export_metrics(&self, reg: &mut coaxial_telemetry::MetricsRegistry, prefix: &str) {
        CxlMemory::export_metrics(self, reg, prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mem: &mut CxlMemory, reqs: Vec<MemRequest>, limit: Cycle) -> Vec<MemResponse> {
        let mut pending: std::collections::VecDeque<_> = reqs.into();
        let total = pending.len();
        let mut out = Vec::new();
        for now in 0..limit {
            mem.tick(now);
            while let Some(&r) = pending.front() {
                if mem.try_enqueue(MemRequest { issued_at: now, ..r }).is_ok() {
                    pending.pop_front();
                } else {
                    break;
                }
            }
            while let Some(r) = mem.pop_response(now) {
                out.push(r);
            }
            if out.len() == total {
                break;
            }
        }
        out
    }

    #[test]
    fn four_channel_memory_reports_four_ddr_channels() {
        let m = CxlMemory::new(&CxlLinkConfig::x8_symmetric(), &DramConfig::ddr5_4800(), 4);
        assert_eq!(m.ddr_channel_count(), 4);
        let asym = CxlMemory::new(&CxlLinkConfig::x8_asymmetric(), &DramConfig::ddr5_4800(), 4);
        assert_eq!(asym.ddr_channel_count(), 8, "asym devices carry 2 DDR channels");
    }

    #[test]
    fn addresses_round_trip_through_two_levels_of_interleave() {
        let mut m = CxlMemory::new(&CxlLinkConfig::x8_asymmetric(), &DramConfig::ddr5_4800(), 4);
        let addrs: Vec<u64> = (0..64).map(|i| i * 7 + 5).collect();
        let reqs: Vec<_> =
            addrs.iter().enumerate().map(|(i, &a)| MemRequest::read(i as u64, a, 0)).collect();
        let resps = run(&mut m, reqs, 1_000_000);
        let mut got: Vec<u64> = resps.iter().map(|r| r.line_addr).collect();
        got.sort_unstable();
        let mut want = addrs;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn more_channels_reduce_loaded_latency() {
        // Saturating random read stream against 1 vs 4 CXL channels.
        let reqs: Vec<_> =
            (0..600u64).map(|i| MemRequest::read(i, i * 1031 % 100_000, 0)).collect();
        let mut m1 = CxlMemory::new(&CxlLinkConfig::x8_symmetric(), &DramConfig::ddr5_4800(), 1);
        let mut m4 = CxlMemory::new(&CxlLinkConfig::x8_symmetric(), &DramConfig::ddr5_4800(), 4);
        let r1 = run(&mut m1, reqs.clone(), 5_000_000);
        let r4 = run(&mut m4, reqs, 5_000_000);
        assert_eq!(r1.len(), 600);
        assert_eq!(r4.len(), 600);
        let avg = |rs: &[MemResponse]| {
            rs.iter().map(|r| r.total_cycles() as f64).sum::<f64>() / rs.len() as f64
        };
        assert!(
            avg(&r4) < avg(&r1) * 0.8,
            "4-channel avg {} should beat 1-channel avg {}",
            avg(&r4),
            avg(&r1)
        );
    }
}
