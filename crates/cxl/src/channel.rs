//! One CXL channel: CPU-side controller, serializing link (both
//! directions), and the Type-3 device with its DDR channel(s).
//!
//! The dataflow per request:
//!
//! ```text
//! CPU  ──req queue──▶ TX serializer ──2 ports──▶ device buffer ──▶ DDR
//! CPU  ◀─2 ports──── RX serializer ◀──────────  DDR completion
//! ```
//!
//! Waiting anywhere (link busy, device buffer full, DDR queues full) shows
//! up as *queuing delay*; the four port crossings and the request's own
//! data serialization are reported separately as *CXL interface delay*,
//! matching the paper's Fig. 5 latency breakdown.

use std::collections::VecDeque;

use coaxial_dram::{
    Channel as DdrChannel, ChannelStats, DramConfig, MemRequest, MemResponse, MemoryBackend,
};
use coaxial_sim::{BoundedQueue, Cycle};

use crate::config::CxlLinkConfig;

/// In-flight message on a link direction, ordered by arrival time.
#[derive(Debug, Clone, Copy)]
struct InFlight<T> {
    arrives_at: Cycle,
    payload: T,
}

/// One CXL link + Type-3 device.
pub struct CxlChannel {
    cfg: CxlLinkConfig,
    /// CPU-side request queue (CXL.mem master).
    req_queue: BoundedQueue<MemRequest>,
    /// Requests serialized onto the wire, heading to the device.
    tx_in_flight: VecDeque<InFlight<MemRequest>>,
    /// Device-side buffer in front of the DDR controller(s).
    device_buf: BoundedQueue<MemRequest>,
    /// DDR channels on the Type-3 device.
    ddr: Vec<DdrChannel>,
    /// Completions waiting for the RX serializer.
    resp_wait: VecDeque<MemResponse>,
    /// Responses on the wire, heading back to the CPU.
    rx_in_flight: VecDeque<InFlight<MemResponse>>,
    /// Responses delivered to the CPU side, ready to pop.
    delivered: VecDeque<MemResponse>,
    /// Next cycle each link direction becomes free.
    tx_free_at: Cycle,
    rx_free_at: Cycle,
    /// CXL.mem flow-control credits: one per device-buffer slot. The TX
    /// serializer only puts a request on the wire when it holds a credit,
    /// so the device buffer can never overflow; credits travel back with
    /// a port-crossing delay once the device hands a request to its DDR
    /// controller.
    credits: usize,
    credit_returns: VecDeque<Cycle>,
    /// Busy-cycle accounting for link utilization.
    pub tx_busy: u64,
    pub rx_busy: u64,
    /// Cycles the TX head-of-queue sat ready behind an idle serializer
    /// waiting *only* for a flow-control credit (link-pressure signal,
    /// exported as `cxl.port.credit_wait_cycles`). Measured as interval
    /// arithmetic at TX start — `start - max(tx_free_at, tx_front_since)`
    /// — so both run-loop engines account identically regardless of
    /// which cycles they actually tick.
    pub credit_wait_cycles: u64,
    /// Cycle at which the current head-of-queue became eligible for the
    /// TX serializer (set on enqueue-to-empty and after each TX start).
    tx_front_since: Cycle,
    /// Credit-cycles accumulator: Σ (credits outstanding) × (interval
    /// length), advanced by interval arithmetic at every credit mutation,
    /// so both run-loop engines account identically regardless of which
    /// cycles they actually tick. Divide by the window for the mean
    /// device-buffer occupancy (`cxl.port.credit_occupancy`).
    credit_occ_cycles: u64,
    /// Cycle of the last credit count change (interval anchor).
    last_credit_change: Cycle,
    now: Cycle,
    window_start: Cycle,
    /// Link horizon: stages 2–6 are provably idle for every cycle strictly
    /// before this (the [`Self::link_next_event`] bound, memoized after a
    /// tick where no stage moved anything). Reset by [`Self::try_enqueue`]
    /// and by any harvested completion, the only two events that can
    /// create link work before it.
    idle_until: Cycle,
    /// DDR horizon: the device's DDR ticks and completion harvest are
    /// no-ops for every cycle strictly before this, the earliest
    /// sub-channel horizon or completion. Recomputed by each DDR stage
    /// that runs and lowered by the device-side enqueue (stage 6).
    ddr_idle_until: Cycle,
}

impl CxlChannel {
    pub fn new(cfg: CxlLinkConfig, dram_cfg: &DramConfig) -> Self {
        let ddr =
            (0..cfg.ddr_channels_per_device).map(|_| DdrChannel::new(dram_cfg.clone())).collect();
        Self {
            req_queue: BoundedQueue::new(cfg.req_queue_depth),
            tx_in_flight: VecDeque::new(),
            device_buf: BoundedQueue::new(cfg.device_buf_depth),
            ddr,
            resp_wait: VecDeque::new(),
            rx_in_flight: VecDeque::new(),
            delivered: VecDeque::new(),
            tx_free_at: 0,
            rx_free_at: 0,
            credits: cfg.device_buf_depth,
            credit_returns: VecDeque::new(),
            tx_busy: 0,
            rx_busy: 0,
            credit_wait_cycles: 0,
            tx_front_since: 0,
            credit_occ_cycles: 0,
            last_credit_change: 0,
            now: 0,
            window_start: 0,
            idle_until: 0,
            ddr_idle_until: 0,
            cfg,
        }
    }

    pub fn config(&self) -> &CxlLinkConfig {
        &self.cfg
    }

    /// Accept a request into the CPU-side queue.
    pub fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let was_empty = self.req_queue.is_empty();
        let r = self.req_queue.try_push(req);
        // The requester enqueues before it ticks the channel in cycle
        // `issued_at`, so that is the first cycle the request can move,
        // even when the ticks before it were skipped.
        let first = self.now.max(req.issued_at.saturating_sub(1)) + 1;
        if r.is_ok() && was_empty {
            // This request is the new TX head.
            self.tx_front_since = first;
        }
        if r.is_ok() && self.credits > 0 {
            // The TX serializer may now have work before the cached link
            // horizon; lower it to the serializer-free cycle (O(1)). With
            // no credits in hand the horizon already covers the credit
            // return that must precede any TX start.
            self.idle_until = self.idle_until.min(self.tx_free_at.max(first));
        }
        r
    }

    /// Close the current credit-occupancy interval at `now` (called just
    /// before every mutation of `credits`). Outstanding credits equal the
    /// device-buffer slots currently claimed by in-flight requests.
    #[inline]
    fn note_credit_change(&mut self, now: Cycle) {
        let held = (self.cfg.device_buf_depth - self.credits) as u64;
        self.credit_occ_cycles += held * now.saturating_sub(self.last_credit_change);
        self.last_credit_change = now;
    }

    /// Route a device-local line address across the device's DDR channels.
    #[inline]
    fn route(&self, line_addr: u64) -> (usize, u64) {
        let n = self.ddr.len() as u64;
        (coaxial_sim::idx(line_addr % n), line_addr / n)
    }

    /// Advance one cycle.
    ///
    /// Two horizons gate the work. The DDR stage (device DDR ticks plus the
    /// completion harvest) runs only from the earliest sub-channel horizon
    /// or completion on; skipped, it just moves the DDR clocks. The link
    /// stages 2–6 run only from the [`Self::link_next_event`] horizon on,
    /// or when the harvest moved a completion. Debug builds check that the
    /// DDR stage skips nothing and that no credit is lost or made.
    pub fn tick(&mut self, now: Cycle) {
        self.now = now;
        let mut did = false;
        // Every device-buffer slot's credit is held, on its way back, or
        // claimed by a request in the buffer or on the wire.
        debug_assert_eq!(
            self.credits
                + self.credit_returns.len()
                + self.device_buf.len()
                + self.tx_in_flight.len(),
            self.cfg.device_buf_depth,
            "CXL credits not conserved"
        );

        // 1. Tick the device DDR and harvest its completions into the RX
        // wait queue.
        if now < self.ddr_idle_until {
            for d in &mut self.ddr {
                if cfg!(debug_assertions) {
                    d.check_quiet(now);
                }
                d.skip_to(now);
            }
        } else {
            let n = self.ddr.len() as u64;
            let mut next = Cycle::MAX;
            for (i, d) in self.ddr.iter_mut().enumerate() {
                d.tick(now);
                while let Some(mut r) = d.pop_response(now) {
                    r.line_addr = r.line_addr * n + i as u64;
                    self.resp_wait.push_back(r);
                    did = true;
                }
                next = next.min(MemoryBackend::next_event(d, now));
            }
            self.ddr_idle_until = next;
        }
        if did {
            // New RX work invalidates any cached link-idle horizon.
            self.idle_until = 0;
        } else if now < self.idle_until {
            return; // link stages provably idle (see link_next_event)
        }

        // 2. RX serializer: start the next response transfer if idle.
        if now >= self.rx_free_at {
            if let Some(resp) = self.resp_wait.pop_front() {
                // Read responses carry a 64 B line; write acks are headers.
                let occ =
                    if resp.is_write { self.cfg.rx_header_cycles } else { self.cfg.rx_line_cycles };
                self.rx_free_at = now + occ;
                self.rx_busy += occ;
                let arrives_at = now + occ + 2 * self.cfg.port_latency;
                self.rx_in_flight.push_back(InFlight { arrives_at, payload: resp });
                did = true;
            }
        }

        // 3. Deliver responses that have crossed the CPU-side port.
        while let Some(f) = self.rx_in_flight.front() {
            if f.arrives_at > now {
                break;
            }
            let f = self.rx_in_flight.pop_front().expect("peeked");
            let mut resp = f.payload;
            resp.completed_at = f.arrives_at;
            // CXL interface delay = the unloaded adder; everything else the
            // request experienced beyond DRAM service is queuing.
            resp.cxl_cycles = if resp.is_write {
                self.cfg.unloaded_write_adder()
            } else {
                self.cfg.unloaded_read_adder()
            };
            let total = resp.completed_at - resp.issued_at;
            resp.queue_cycles = total.saturating_sub(resp.service_cycles + resp.cxl_cycles);
            self.delivered.push_back(resp);
            did = true;
        }

        // 3b. Credits released by the device arrive back at the CPU port.
        while let Some(&at) = self.credit_returns.front() {
            if at > now {
                break;
            }
            self.credit_returns.pop_front();
            self.note_credit_change(now);
            self.credits += 1;
            did = true;
        }

        // 4. TX serializer: put the next request on the wire if idle and a
        // device-buffer credit is available.
        if now >= self.tx_free_at && self.credits > 0 {
            if let Some(&req) = self.req_queue.front() {
                // Write requests carry the 64 B line downstream; reads are
                // header-only.
                let occ = if req.is_write {
                    self.cfg.tx_header_cycles + self.cfg.tx_line_cycles
                } else {
                    self.cfg.tx_header_cycles
                };
                // Any start delay beyond the serializer-free/head-ready
                // bound can only have been a missing credit (the one
                // other gate on this stage).
                self.credit_wait_cycles +=
                    now.saturating_sub(self.tx_free_at.max(self.tx_front_since));
                self.tx_free_at = now + occ;
                self.tx_busy += occ;
                let arrives_at = now + occ + 2 * self.cfg.port_latency;
                self.req_queue.pop();
                self.note_credit_change(now);
                self.credits -= 1;
                self.tx_front_since = now + 1;
                self.tx_in_flight.push_back(InFlight { arrives_at, payload: req });
                did = true;
            }
        }

        // 5. Requests that reached the device enter its buffer. The credit
        // protocol guarantees a free slot.
        while let Some(f) = self.tx_in_flight.front() {
            if f.arrives_at > now {
                break;
            }
            let f = self.tx_in_flight.pop_front().expect("peeked");
            self.device_buf.try_push(f.payload).expect("credits guarantee space");
            did = true;
        }

        // 6. Drain the device buffer into the DDR controller(s); each
        // drained slot returns a credit to the CPU after a port crossing.
        while let Some(&req) = self.device_buf.front() {
            let (c, local) = self.route(req.line_addr);
            let mut local_req = req;
            local_req.line_addr = local;
            if self.ddr[c].try_enqueue(local_req).is_ok() {
                let ready = MemoryBackend::next_event(&self.ddr[c], now);
                self.ddr_idle_until = self.ddr_idle_until.min(ready);
                self.device_buf.pop();
                self.credit_returns.push_back(now + 2 * self.cfg.port_latency);
                did = true;
            } else {
                break;
            }
        }

        if !did {
            self.idle_until = self.link_next_event(now);
        }
    }

    /// Pop one delivered response.
    pub fn pop_response(&mut self) -> Option<MemResponse> {
        self.delivered.pop_front()
    }

    /// Whether the CPU-side queue can take another request.
    pub fn can_accept(&self) -> bool {
        !self.req_queue.is_full()
    }

    /// Aggregated DDR stats of the device's channel(s).
    pub fn ddr_stats(&self) -> ChannelStats {
        let mut it = self.ddr.iter();
        let mut st = it.next().expect("≥1 DDR channel").stats();
        for c in it {
            st.merge(&c.stats());
        }
        st
    }

    /// Number of DDR channels on the Type-3 device.
    pub fn ddr_channel_count(&self) -> usize {
        self.ddr.len()
    }

    /// TX/RX link utilization over `elapsed` cycles.
    pub fn link_utilization(&self, elapsed: Cycle) -> (f64, f64) {
        if elapsed == 0 {
            return (0.0, 0.0);
        }
        (self.tx_busy as f64 / elapsed as f64, self.rx_busy as f64 / elapsed as f64)
    }

    /// Zero statistics on the link and its DDR channels; the new
    /// measurement window starts at `now`.
    pub fn reset_stats(&mut self, now: Cycle) {
        self.tx_busy = 0;
        self.rx_busy = 0;
        self.credit_wait_cycles = 0;
        // Don't let pre-window head-of-queue waiting leak into the new
        // measurement window.
        self.tx_front_since = self.tx_front_since.max(now);
        self.credit_occ_cycles = 0;
        self.last_credit_change = now;
        self.window_start = now;
        for d in &mut self.ddr {
            d.reset_stats(now);
        }
    }

    /// Cycles since the last stats reset.
    pub fn window_cycles(&self) -> Cycle {
        self.now.saturating_sub(self.window_start)
    }

    /// Currently held TX flow-control credits (test/debug aid).
    pub fn credits(&self) -> usize {
        self.credits
    }

    /// Mean outstanding flow-control credits (≡ device-buffer slots held
    /// by in-flight requests) over the measurement window, including the
    /// still-open interval since the last credit change. 0 when unloaded,
    /// approaching `device_buf_depth` when the link saturates.
    pub fn credit_occupancy_mean(&self) -> f64 {
        let window = self.window_cycles();
        if window == 0 {
            return 0.0;
        }
        let held = (self.cfg.device_buf_depth - self.credits) as u64;
        let open_tail =
            held * self.now.saturating_sub(self.last_credit_change.max(self.window_start));
        (self.credit_occ_cycles + open_tail) as f64 / window as f64
    }

    /// Earliest future cycle at which ticking this channel could do
    /// observable work, assuming no new requests arrive and `delivered` has
    /// been drained: the DDR horizon or the link horizon, whichever is
    /// first. Both are exact after a tick at `now`, so this is the cycle
    /// the next tick would do work.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        self.ddr_idle_until.max(now + 1).min(self.link_next_event(now))
    }

    /// [`Self::next_event`] restricted to the link stages 2–6. The device
    /// buffer only drains once a DDR queue frees a slot, which needs a
    /// sub-channel to issue, so it waits on the DDR horizon.
    fn link_next_event(&self, now: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        if !self.resp_wait.is_empty() {
            next = next.min(self.rx_free_at.max(now + 1));
        }
        if let Some(f) = self.rx_in_flight.front() {
            next = next.min(f.arrives_at.max(now + 1));
        }
        if let Some(&at) = self.credit_returns.front() {
            next = next.min(at.max(now + 1));
        }
        if !self.req_queue.is_empty() && self.credits > 0 {
            next = next.min(self.tx_free_at.max(now + 1));
        }
        if let Some(f) = self.tx_in_flight.front() {
            next = next.min(f.arrives_at.max(now + 1));
        }
        if !self.device_buf.is_empty() {
            next = next.min(self.ddr_idle_until.max(now + 1));
        }
        if !self.delivered.is_empty() {
            next = next.min(now + 1);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_sim::cycles_to_ns;

    fn channel() -> CxlChannel {
        CxlChannel::new(CxlLinkConfig::x8_symmetric(), &DramConfig::ddr5_4800())
    }

    fn run_to_completion(ch: &mut CxlChannel, n: usize, limit: Cycle) -> Vec<MemResponse> {
        let mut out = Vec::new();
        for now in 0..limit {
            ch.tick(now);
            while let Some(r) = ch.pop_response() {
                out.push(r);
            }
            if out.len() >= n {
                break;
            }
        }
        out
    }

    #[test]
    fn unloaded_read_pays_the_cxl_premium() {
        let mut ch = channel();
        ch.try_enqueue(MemRequest::read(1, 0, 0)).unwrap();
        let resps = run_to_completion(&mut ch, 1, 10_000);
        assert_eq!(resps.len(), 1);
        let total_ns = cycles_to_ns(resps[0].total_cycles());
        // Direct DDR closed-bank read is ~37 ns; CXL adds ~52.5 ns.
        assert!((80.0..110.0).contains(&total_ns), "total = {total_ns} ns");
        let cxl_ns = cycles_to_ns(resps[0].cxl_cycles);
        assert!((52.0..54.0).contains(&cxl_ns), "cxl = {cxl_ns} ns");
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let mut ch = channel();
        for i in 0..32u64 {
            ch.try_enqueue(MemRequest::read(i, i * 97, 0)).unwrap();
        }
        let resps = run_to_completion(&mut ch, 32, 100_000);
        assert_eq!(resps.len(), 32);
        for r in &resps {
            assert_eq!(
                r.queue_cycles + r.service_cycles + r.cxl_cycles,
                r.total_cycles(),
                "breakdown must account for every cycle"
            );
        }
    }

    #[test]
    fn writes_pay_tx_serialization() {
        let mut ch = channel();
        ch.try_enqueue(MemRequest::write(1, 0, 0)).unwrap();
        let resps = run_to_completion(&mut ch, 1, 10_000);
        let cxl_ns = cycles_to_ns(resps[0].cxl_cycles);
        assert!((54.5..57.0).contains(&cxl_ns), "write cxl = {cxl_ns} ns");
    }

    #[test]
    fn asym_device_has_two_ddr_channels() {
        let ch = CxlChannel::new(CxlLinkConfig::x8_asymmetric(), &DramConfig::ddr5_4800());
        assert_eq!(ch.ddr_channel_count(), 2);
    }

    #[test]
    fn asym_spreads_load_over_both_ddr_channels() {
        let mut ch = CxlChannel::new(CxlLinkConfig::x8_asymmetric(), &DramConfig::ddr5_4800());
        for i in 0..64u64 {
            ch.try_enqueue(MemRequest::read(i, i, 0)).unwrap();
        }
        let resps = run_to_completion(&mut ch, 64, 100_000);
        assert_eq!(resps.len(), 64);
        let st = ch.ddr_stats();
        assert_eq!(st.reads, 64);
    }

    #[test]
    fn back_pressure_when_request_queue_full() {
        let mut ch = channel();
        let depth = ch.config().req_queue_depth;
        for i in 0..depth as u64 {
            ch.try_enqueue(MemRequest::read(i, i, 0)).unwrap();
        }
        assert!(ch.try_enqueue(MemRequest::read(999, 0, 0)).is_err());
        assert!(!ch.can_accept());
    }

    #[test]
    fn link_contention_adds_queue_delay_not_cxl_delay() {
        // Saturate the TX direction with writes: later writes should show
        // growing queue_cycles while cxl_cycles stays fixed.
        let mut ch = channel();
        for i in 0..32u64 {
            ch.try_enqueue(MemRequest::write(i, i * 1013, 0)).unwrap();
        }
        let resps = run_to_completion(&mut ch, 32, 100_000);
        let first = resps.first().unwrap();
        let last = resps.last().unwrap();
        assert_eq!(first.cxl_cycles, last.cxl_cycles, "fixed interface delay");
        assert!(last.queue_cycles > first.queue_cycles, "queuing grows under load");
    }

    #[test]
    fn credits_are_conserved() {
        let mut ch = channel();
        let total_credits = ch.config().device_buf_depth;
        assert_eq!(ch.credits(), total_credits);
        for i in 0..40u64 {
            ch.try_enqueue(MemRequest::read(i, i * 313, 0)).unwrap();
        }
        let mut got = 0;
        for now in 0..200_000u64 {
            ch.tick(now);
            while ch.pop_response().is_some() {
                got += 1;
            }
            assert!(ch.credits() <= total_credits, "credits over-returned");
            if got == 40 {
                break;
            }
        }
        assert_eq!(got, 40);
        // Once quiescent, every credit is home again.
        for now in 200_000..200_200u64 {
            ch.tick(now);
        }
        assert_eq!(ch.credits(), total_credits, "all credits returned at quiescence");
    }

    #[test]
    fn unloaded_traffic_never_waits_on_credits() {
        let mut ch = channel();
        // Far fewer outstanding requests than device-buffer credits (32):
        // TX may queue behind its own serializer, never behind credits.
        for i in 0..8u64 {
            ch.try_enqueue(MemRequest::read(i, i * 313, 0)).unwrap();
        }
        let resps = run_to_completion(&mut ch, 8, 100_000);
        assert_eq!(resps.len(), 8);
        assert_eq!(ch.credit_wait_cycles, 0, "unloaded link must not report credit pressure");
    }

    #[test]
    fn saturating_read_stream_stalls_on_credits() {
        // Reads serialize onto TX in 3 cycles but drain through the device
        // DDR slower than that, so the device buffer fills, all 32 credits
        // go outstanding, and the TX head must wait for returns.
        let mut ch = channel();
        let mut issued = 0u64;
        let mut got = 0u64;
        let total = 300u64;
        for now in 0..2_000_000u64 {
            ch.tick(now);
            while issued < total && ch.can_accept() {
                ch.try_enqueue(MemRequest::read(issued, issued * 61, now)).unwrap();
                issued += 1;
            }
            while ch.pop_response().is_some() {
                got += 1;
            }
            if got == total {
                break;
            }
        }
        assert_eq!(got, total);
        assert!(
            ch.credit_wait_cycles > 0,
            "a saturating stream must register credit waits, got {}",
            ch.credit_wait_cycles
        );
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        let mut ch = channel();
        let mut issued = 0u64;
        let mut done = Vec::new();
        let total = 300u64;
        for now in 0..2_000_000u64 {
            ch.tick(now);
            while issued < total && ch.can_accept() {
                let req = if issued % 4 == 3 {
                    MemRequest::write(issued, issued * 61, now)
                } else {
                    MemRequest::read(issued, issued * 61, now)
                };
                ch.try_enqueue(req).unwrap();
                issued += 1;
            }
            while let Some(r) = ch.pop_response() {
                done.push(r.id);
            }
            if done.len() as u64 == total {
                break;
            }
        }
        done.sort_unstable();
        done.dedup();
        assert_eq!(done.len() as u64, total);
    }
}
