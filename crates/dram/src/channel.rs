//! A full DDR5 channel: two independent sub-channels plus channel-level
//! statistics. Implements [`crate::MemoryBackend`] for direct DDR attach
//! (the paper's baseline system).

use coaxial_sim::{Cycle, Histogram, MeanTracker};

use crate::config::{DramConfig, LINE_BYTES};
use crate::request::{MemRequest, MemResponse};
use crate::subchannel::SubChannel;
use crate::MemoryBackend;

/// Aggregated channel statistics, harvested after a run.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    pub reads: u64,
    pub writes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Mean cycles spent queued before the first DRAM command.
    pub mean_queue_cycles: f64,
    /// Mean cycles from first DRAM command to data completion.
    pub mean_service_cycles: f64,
    /// Data-bus utilization in [0, 1] over the observed window.
    pub bus_utilization: f64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    /// ACT/PRE/RD/WR/REF command counts (for the energy model).
    pub act: u64,
    pub pre: u64,
    pub rd_cas: u64,
    pub wr_cas: u64,
    pub refab: u64,
    /// Observation window in cycles.
    pub elapsed_cycles: Cycle,
}

impl ChannelStats {
    /// Achieved bandwidth in GB/s over the window.
    pub fn bandwidth_gbs(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        let ns = coaxial_sim::cycles_to_ns(self.elapsed_cycles);
        (self.read_bytes + self.write_bytes) as f64 / ns
    }

    /// Export the channel counters into a metrics registry under `prefix`
    /// (e.g. `dram.ch0`).
    pub fn export_metrics(&self, reg: &mut coaxial_telemetry::MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.reads"), self.reads);
        reg.set_counter(&format!("{prefix}.writes"), self.writes);
        reg.set_counter(&format!("{prefix}.read_bytes"), self.read_bytes);
        reg.set_counter(&format!("{prefix}.write_bytes"), self.write_bytes);
        reg.set_counter(&format!("{prefix}.row.hits"), self.row_hits);
        reg.set_counter(&format!("{prefix}.row.misses"), self.row_misses);
        reg.set_counter(&format!("{prefix}.row.conflicts"), self.row_conflicts);
        reg.set_counter(&format!("{prefix}.cmd.act"), self.act);
        reg.set_counter(&format!("{prefix}.cmd.pre"), self.pre);
        reg.set_counter(&format!("{prefix}.cmd.rd_cas"), self.rd_cas);
        reg.set_counter(&format!("{prefix}.cmd.wr_cas"), self.wr_cas);
        reg.set_counter(&format!("{prefix}.cmd.refab"), self.refab);
        reg.set_gauge(&format!("{prefix}.mean_queue_cycles"), self.mean_queue_cycles);
        reg.set_gauge(&format!("{prefix}.mean_service_cycles"), self.mean_service_cycles);
        reg.set_gauge(&format!("{prefix}.bus_utilization"), self.bus_utilization);
        reg.set_gauge(&format!("{prefix}.bandwidth_gbs"), self.bandwidth_gbs());
    }

    /// Fold stats from another channel (used to aggregate multi-channel
    /// backends; elapsed is taken as the max).
    pub fn merge(&mut self, other: &ChannelStats) {
        let total_a = (self.reads + self.writes) as f64;
        let total_b = (other.reads + other.writes) as f64;
        let total = total_a + total_b;
        if total > 0.0 {
            self.mean_queue_cycles =
                (self.mean_queue_cycles * total_a + other.mean_queue_cycles * total_b) / total;
            self.mean_service_cycles =
                (self.mean_service_cycles * total_a + other.mean_service_cycles * total_b) / total;
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.act += other.act;
        self.pre += other.pre;
        self.rd_cas += other.rd_cas;
        self.wr_cas += other.wr_cas;
        self.refab += other.refab;
        self.bus_utilization = (self.bus_utilization + other.bus_utilization) / 2.0;
        self.elapsed_cycles = self.elapsed_cycles.max(other.elapsed_cycles);
    }
}

/// One DDR5 channel (the unit the paper provisions per 12 cores in the
/// baseline, or per CXL Type-3 device in COAXIAL).
pub struct Channel {
    cfg: DramConfig,
    subs: Vec<SubChannel>,
    now: Cycle,
    window_start: Cycle,
    /// End-to-end (enqueue → data) *read* latency distribution; used by
    /// Fig. 2a. Writes are posted (the requester never waits), so their
    /// drain-policy-driven completion times are excluded.
    pub latency_hist: Histogram,
    pub read_latency: MeanTracker,
    reads: u64,
    writes: u64,
}

impl Channel {
    pub fn new(cfg: DramConfig) -> Self {
        let subs = (0..cfg.subchannels).map(|_| SubChannel::new(cfg.clone())).collect();
        Self {
            subs,
            now: 0,
            window_start: 0,
            latency_hist: Histogram::new(),
            read_latency: MeanTracker::new(),
            reads: 0,
            writes: 0,
            cfg,
        }
    }

    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Map a channel-local line address onto a sub-channel and its local
    /// line address. Lines interleave across sub-channels.
    #[inline]
    fn route(&self, line_addr: u64) -> (usize, u64) {
        let n = self.subs.len() as u64;
        (coaxial_sim::idx(line_addr % n), line_addr / n)
    }

    /// Whether the target sub-channel queue has room for this request.
    pub fn can_accept(&self, line_addr: u64, is_write: bool) -> bool {
        let (s, _) = self.route(line_addr);
        self.subs[s].can_accept(is_write)
    }

    /// Sum of read-queue occupancy (for load-aware reporting).
    pub fn read_queue_len(&self) -> usize {
        self.subs.iter().map(|s| s.read_q_len()).sum()
    }

    pub fn write_queue_len(&self) -> usize {
        self.subs.iter().map(|s| s.write_q_len()).sum()
    }

    /// Drain the command logs of all sub-channels (requires
    /// `cfg.log_commands`; see [`crate::audit`]). Returns one log per
    /// sub-channel, each in issue order.
    pub fn take_command_logs(&mut self) -> Vec<Vec<crate::audit::CmdRecord>> {
        self.subs.iter_mut().map(|s| s.take_command_log()).collect()
    }

    /// Move the channel clock to `now` without ticking, for a caller that
    /// skips the ticks [`MemoryBackend::next_event`] proved to be no-ops.
    /// The clock anchors enqueue stamps and the statistics window.
    pub fn skip_to(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Debug tripwire for such a caller: panics if ticking the channel or
    /// harvesting its responses at `now` would have done anything.
    pub fn check_quiet(&self, now: Cycle) {
        for s in &self.subs {
            s.check_quiet(now);
        }
    }

    /// Harvest aggregated statistics.
    pub fn stats(&self) -> ChannelStats {
        let mut st = ChannelStats {
            reads: self.reads,
            writes: self.writes,
            read_bytes: self.reads * LINE_BYTES,
            write_bytes: self.writes * LINE_BYTES,
            elapsed_cycles: self.now.saturating_sub(self.window_start),
            ..Default::default()
        };
        let mut q = MeanTracker::new();
        let mut sv = MeanTracker::new();
        let mut busy = 0u64;
        for s in &self.subs {
            q.merge(&s.queue_delay);
            sv.merge(&s.service_time);
            busy += s.bus_busy;
            let (h, m, c) = s.row_outcomes();
            st.row_hits += h;
            st.row_misses += m;
            st.row_conflicts += c;
            st.act += s.counts.act;
            st.pre += s.counts.pre;
            st.rd_cas += s.counts.rd;
            st.wr_cas += s.counts.wr;
            st.refab += s.counts.refab;
        }
        st.mean_queue_cycles = q.mean();
        st.mean_service_cycles = sv.mean();
        let elapsed = self.now.saturating_sub(self.window_start);
        if elapsed > 0 {
            st.bus_utilization = busy as f64 / (elapsed as f64 * self.subs.len() as f64);
        }
        st
    }

    /// Zero all statistics and restart the measurement window at `now`.
    pub fn reset_stats(&mut self, now: Cycle) {
        self.window_start = now;
        self.reads = 0;
        self.writes = 0;
        self.latency_hist = Histogram::new();
        self.read_latency = MeanTracker::new();
        for s in &mut self.subs {
            s.reset_stats();
        }
    }
}

impl MemoryBackend for Channel {
    fn export_metrics(&self, reg: &mut coaxial_telemetry::MetricsRegistry, prefix: &str) {
        self.stats().export_metrics(reg, prefix)
    }

    fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let (s, local) = self.route(req.line_addr);
        let mut local_req = req;
        local_req.line_addr = local;
        // The requester enqueues before it ticks the backend in cycle
        // `issued_at`, so the channel's cycle is `issued_at - 1` even when
        // the ticks in between were skipped. A CXL device's buffer enqueues
        // after the device's own tick, at the channel's later clock.
        let at = self.now.max(req.issued_at.saturating_sub(1));
        match self.subs[s].enqueue(local_req, at) {
            Ok(()) => Ok(()),
            Err(mut r) => {
                r.line_addr = req.line_addr; // restore global address
                Err(r)
            }
        }
    }

    fn tick(&mut self, now: Cycle) {
        self.now = now;
        for s in &mut self.subs {
            s.tick(now);
        }
    }

    fn pop_response(&mut self, now: Cycle) -> Option<MemResponse> {
        for (i, s) in self.subs.iter_mut().enumerate() {
            if let Some(mut r) = s.pop_response(now) {
                // Restore the channel-local line address.
                r.line_addr = r.line_addr * self.subs.len() as u64 + i as u64;
                // Traffic is counted at completion so that achieved
                // bandwidth over any window is bounded by the bus capacity
                // (counting at enqueue lets queue bursts exceed peak over
                // short windows).
                if r.is_write {
                    self.writes += 1;
                } else {
                    self.reads += 1;
                    let total = r.total_cycles();
                    self.latency_hist.record(total);
                    self.read_latency.record(total as f64);
                }
                return Some(r);
            }
        }
        None
    }

    fn ddr_channel_count(&self) -> usize {
        1
    }

    fn ddr_stats(&self) -> ChannelStats {
        self.stats()
    }

    fn reset_stats(&mut self, now: Cycle) {
        Channel::reset_stats(self, now);
    }

    fn peak_bandwidth_gbs(&self) -> f64 {
        self.cfg.peak_bandwidth_gbs()
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        self.subs.iter().map(|s| s.next_event(now)).min().unwrap_or(now + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(ch: &mut Channel, reqs: Vec<MemRequest>, limit: Cycle) -> Vec<MemResponse> {
        let total = reqs.len();
        let mut pending: std::collections::VecDeque<_> = reqs.into();
        let mut out = Vec::new();
        for now in 0..limit {
            ch.tick(now);
            while let Some(r) = pending.front() {
                if r.issued_at > now {
                    break;
                }
                let r = *r;
                match ch.try_enqueue(r) {
                    Ok(()) => {
                        pending.pop_front();
                    }
                    Err(_) => break,
                }
            }
            while let Some(r) = ch.pop_response(now) {
                out.push(r);
            }
            if out.len() == total {
                break;
            }
        }
        out
    }

    #[test]
    fn lines_interleave_across_subchannels() {
        let ch = Channel::new(DramConfig::ddr5_4800());
        assert_eq!(ch.route(0).0, 0);
        assert_eq!(ch.route(1).0, 1);
        assert_eq!(ch.route(2), (0, 1));
    }

    #[test]
    fn responses_restore_global_addresses() {
        let mut ch = Channel::new(DramConfig::ddr5_4800());
        let reqs = (0..8u64).map(|i| MemRequest::read(i, i * 7 + 3, 0)).collect();
        let resps = drive(&mut ch, reqs, 100_000);
        assert_eq!(resps.len(), 8);
        let mut addrs: Vec<u64> = resps.iter().map(|r| r.line_addr).collect();
        addrs.sort_unstable();
        let want: Vec<u64> = (0..8).map(|i| i * 7 + 3).collect();
        let mut want = want;
        want.sort_unstable();
        assert_eq!(addrs, want);
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        let mut ch = Channel::new(DramConfig::ddr5_4800());
        let reqs: Vec<_> = (0..200u64)
            .map(|i| {
                if i % 3 == 0 {
                    MemRequest::write(i, i * 131, 0)
                } else {
                    MemRequest::read(i, i * 131, 0)
                }
            })
            .collect();
        let resps = drive(&mut ch, reqs, 1_000_000);
        assert_eq!(resps.len(), 200);
        let mut ids: Vec<u64> = resps.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "every id exactly once");
    }

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let mut ch = Channel::new(DramConfig::ddr5_4800());
        let reqs: Vec<_> = (0..512u64).map(|i| MemRequest::read(i, i, 0)).collect();
        let resps = drive(&mut ch, reqs, 1_000_000);
        assert_eq!(resps.len(), 512);
        let st = ch.stats();
        let hit_rate = st.row_hits as f64 / (st.row_hits + st.row_misses + st.row_conflicts) as f64;
        assert!(hit_rate > 0.8, "sequential hit rate = {hit_rate}");
    }

    #[test]
    fn achieved_bandwidth_approaches_peak_under_saturation() {
        let mut ch = Channel::new(DramConfig::ddr5_4800());
        // Saturating sequential read stream.
        let reqs: Vec<_> = (0..4096u64).map(|i| MemRequest::read(i, i, 0)).collect();
        let resps = drive(&mut ch, reqs, 2_000_000);
        assert_eq!(resps.len(), 4096);
        let st = ch.stats();
        let bw = st.bandwidth_gbs();
        let peak = ch.config().peak_bandwidth_gbs();
        assert!(bw > 0.7 * peak, "bw {bw} GB/s vs peak {peak}");
        assert!(bw <= peak * 1.01, "bw {bw} cannot exceed peak {peak}");
    }

    #[test]
    fn stats_merge_weights_by_count() {
        let mut a = ChannelStats {
            reads: 10,
            mean_queue_cycles: 100.0,
            mean_service_cycles: 50.0,
            ..Default::default()
        };
        let b = ChannelStats {
            reads: 30,
            mean_queue_cycles: 20.0,
            mean_service_cycles: 50.0,
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.mean_queue_cycles - 40.0).abs() < 1e-9);
        assert_eq!(a.reads, 40);
    }
}
