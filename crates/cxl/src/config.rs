//! CXL link parameters.
//!
//! All serialization figures come straight from the paper (§IV-A, §IV-D,
//! §V): an x8 PCIe 5.0 channel has 32 GB/s raw per direction; after PCIe
//! and CXL header overheads, goodput is 26 GB/s in the RX (device→CPU)
//! direction and 13 GB/s in TX (CPU→device). The asymmetric variant
//! repurposes the same 32 pins as 20 RX + 12 TX for 32/10 GB/s goodput.

use coaxial_sim::{ns_to_cycles, Cycle};

/// Configuration of one CXL channel (link + controller queues).
#[derive(Debug, Clone)]
pub struct CxlLinkConfig {
    /// Unloaded one-way latency of a single CXL port crossing, in cycles.
    /// The paper's default is 12.5 ns; its sensitivity study raises the
    /// total 4-crossing budget from 50 ns to 70 ns (17.5 ns per port), and
    /// its OMI comparison lowers it to 10 ns total (2.5 ns per port).
    pub port_latency: Cycle,
    /// Cycles to serialize one 64 B line in the RX direction (read data).
    pub rx_line_cycles: Cycle,
    /// Cycles to serialize one 64 B line in the TX direction (write data).
    pub tx_line_cycles: Cycle,
    /// Cycles a request/ack header occupies its direction of the link.
    /// Headers share flit slots, so this is a fraction of a line transfer;
    /// it consumes bandwidth but is not part of the paper's fixed latency
    /// budget (the port pipeline already accounts for flit handling).
    pub tx_header_cycles: Cycle,
    pub rx_header_cycles: Cycle,
    /// CPU-side request queue depth (per channel).
    pub req_queue_depth: usize,
    /// Device-side buffer between the link and the DDR controller(s).
    pub device_buf_depth: usize,
    /// DDR channels on the Type-3 device behind this link.
    pub ddr_channels_per_device: usize,
    /// Human-readable tag for reports.
    pub name: &'static str,
}

/// Goodput-derived serialization time for 64 bytes, in cycles.
fn line_cycles(goodput_gbs: f64) -> Cycle {
    ns_to_cycles(64.0 / goodput_gbs)
}

impl CxlLinkConfig {
    /// Symmetric x8 CXL channel (8 RX + 8 TX lanes, 32 pins):
    /// 26 GB/s RX, 13 GB/s TX goodput; 50 ns total port latency.
    pub fn x8_symmetric() -> Self {
        Self {
            port_latency: ns_to_cycles(12.5),
            rx_line_cycles: line_cycles(26.0), // 2.46 ns → 6 cycles
            tx_line_cycles: line_cycles(13.0), // 4.92 ns → 12 cycles
            tx_header_cycles: 3,               // ~16 B slot at 13 GB/s
            rx_header_cycles: 2,               // ~16 B slot at 26 GB/s
            req_queue_depth: 64,
            device_buf_depth: 32,
            ddr_channels_per_device: 1,
            name: "x8-sym",
        }
    }

    /// Asymmetric CXL-asym channel (§IV-D): same 32 pins split 20 RX/12 TX
    /// for 32 GB/s RX and 10 GB/s TX goodput. Two DDR controllers per
    /// Type-3 device to exploit the extra read bandwidth.
    pub fn x8_asymmetric() -> Self {
        Self {
            port_latency: ns_to_cycles(12.5),
            rx_line_cycles: line_cycles(32.0), // 2 ns → 5 cycles
            tx_line_cycles: line_cycles(10.0), // 6.4 ns → 16 cycles
            tx_header_cycles: 4,
            rx_header_cycles: 2,
            req_queue_depth: 64,
            device_buf_depth: 32,
            ddr_channels_per_device: 2,
            name: "x8-asym",
        }
    }

    /// Override the total unloaded CXL latency budget (the paper's §VI-D
    /// sensitivity study: 50 ns default, 70 ns pessimistic, 10 ns OMI-like).
    pub fn with_total_port_latency_ns(mut self, total_ns: f64) -> Self {
        self.port_latency = ns_to_cycles(total_ns / 4.0);
        self
    }

    /// Unloaded read-latency adder of this link (4 port crossings + read
    /// data serialization), in cycles. Paper: 52.5 ns for x8 symmetric.
    pub fn unloaded_read_adder(&self) -> Cycle {
        4 * self.port_latency + self.rx_line_cycles
    }

    /// Unloaded write-latency adder (4 crossings + write data
    /// serialization). Paper: 55.5 ns for x8 symmetric.
    pub fn unloaded_write_adder(&self) -> Cycle {
        4 * self.port_latency + self.tx_line_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_sim::cycles_to_ns;

    #[test]
    fn symmetric_matches_paper_latency_budget() {
        let c = CxlLinkConfig::x8_symmetric();
        let rd = cycles_to_ns(c.unloaded_read_adder());
        let wr = cycles_to_ns(c.unloaded_write_adder());
        // Paper §V: 52.5 ns reads, 55.5 ns writes (we round cycles up).
        assert!((52.0..54.0).contains(&rd), "read adder = {rd} ns");
        assert!((54.5..56.5).contains(&wr), "write adder = {wr} ns");
    }

    #[test]
    fn asymmetric_trades_tx_for_rx() {
        let s = CxlLinkConfig::x8_symmetric();
        let a = CxlLinkConfig::x8_asymmetric();
        assert!(a.rx_line_cycles < s.rx_line_cycles, "asym reads faster");
        assert!(a.tx_line_cycles > s.tx_line_cycles, "asym writes slower");
        assert_eq!(a.ddr_channels_per_device, 2);
    }

    #[test]
    fn latency_override_scales_ports() {
        let c = CxlLinkConfig::x8_symmetric().with_total_port_latency_ns(70.0);
        let total = cycles_to_ns(4 * c.port_latency);
        assert!((69.9..71.0).contains(&total), "total = {total} ns");
        let omi = CxlLinkConfig::x8_symmetric().with_total_port_latency_ns(10.0);
        assert!(cycles_to_ns(4 * omi.port_latency) < 11.0);
    }
}
