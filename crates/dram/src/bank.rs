//! Per-bank row-buffer state machine.
//!
//! Each bank tracks its open row and the earliest cycles at which the next
//! ACT, CAS, or PRE command may legally target it. The sub-channel
//! scheduler consults these to implement FR-FCFS.

use crate::config::DramTimings;
use coaxial_sim::Cycle;

/// One DRAM bank.
#[derive(Debug, Clone)]
pub struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Earliest cycle a CAS may issue (tRCD after ACT).
    earliest_cas: Cycle,
    /// Earliest cycle a PRE may issue (tRAS, tRTP, write recovery).
    earliest_pre: Cycle,
    /// Earliest cycle an ACT may issue (tRP after PRE, tRC after ACT).
    earliest_act: Cycle,
    /// Row-buffer statistics.
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    pub fn new() -> Self {
        Self {
            open_row: None,
            earliest_cas: 0,
            earliest_pre: 0,
            earliest_act: 0,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
        }
    }

    /// Can an ACT to this (closed) bank issue at `now`?
    #[inline]
    pub fn can_activate(&self, now: Cycle) -> bool {
        self.open_row.is_none() && now >= self.earliest_act
    }

    /// Can a CAS to `row` issue at `now` (row must already be open)?
    #[inline]
    pub fn can_cas(&self, row: u64, now: Cycle) -> bool {
        self.open_row == Some(row) && now >= self.earliest_cas
    }

    /// Can a PRE issue at `now` (a row must be open)?
    #[inline]
    pub fn can_precharge(&self, now: Cycle) -> bool {
        self.open_row.is_some() && now >= self.earliest_pre
    }

    /// Issue ACT for `row` at `now`. Caller must have checked
    /// [`Bank::can_activate`] and rank-level tRRD/tFAW constraints.
    pub fn activate(&mut self, row: u64, now: Cycle, t: &DramTimings) {
        debug_assert!(self.can_activate(now), "illegal ACT at {now}");
        self.open_row = Some(row);
        self.earliest_cas = now + t.t_rcd;
        self.earliest_pre = now + t.t_ras;
        self.earliest_act = now + t.t_rc;
    }

    /// Issue a READ or WRITE CAS at `now`. Caller must have checked
    /// [`Bank::can_cas`] and channel-level tCCD/bus constraints.
    pub fn cas(&mut self, is_write: bool, now: Cycle, t: &DramTimings) {
        debug_assert!(now >= self.earliest_cas, "illegal CAS at {now}");
        debug_assert!(self.open_row.is_some());
        let data_end = if is_write { now + t.cwl + t.t_burst } else { now + t.cl + t.t_burst };
        // PRE must respect tRAS (already folded into earliest_pre), read-to-
        // precharge (tRTP from CAS), and write recovery (tWR from data end).
        let pre_after = if is_write { data_end + t.t_wr } else { now + t.t_rtp };
        self.earliest_pre = self.earliest_pre.max(pre_after);
        // Back-to-back CAS spacing to the *same bank* is at least tCCD_L;
        // the channel enforces the cross-bank-group variant.
        self.earliest_cas = now + t.t_ccd_l;
    }

    /// Issue PRE at `now`. Caller must have checked [`Bank::can_precharge`].
    pub fn precharge(&mut self, now: Cycle, t: &DramTimings) {
        debug_assert!(self.can_precharge(now), "illegal PRE at {now}");
        self.open_row = None;
        self.earliest_act = self.earliest_act.max(now + t.t_rp);
    }

    /// Force-close the bank for refresh; bank usable again at `ready`.
    pub fn refresh_close(&mut self, ready: Cycle) {
        self.open_row = None;
        self.earliest_act = self.earliest_act.max(ready);
    }

    /// Earliest cycle at which a CAS may issue (row must already match).
    pub fn earliest_cas(&self) -> Cycle {
        self.earliest_cas
    }

    /// Earliest cycle at which a PRE may issue.
    pub fn earliest_pre(&self) -> Cycle {
        self.earliest_pre
    }

    /// Earliest cycle at which an ACT may issue.
    pub fn earliest_act(&self) -> Cycle {
        self.earliest_act
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTimings {
        DramTimings::ddr5_4800()
    }

    #[test]
    fn fresh_bank_is_closed_and_activatable() {
        let b = Bank::new();
        assert!(b.can_activate(0));
        assert!(!b.can_precharge(0));
        assert!(!b.can_cas(0, 0));
    }

    #[test]
    fn act_then_cas_respects_trcd() {
        let t = t();
        let mut b = Bank::new();
        b.activate(7, 100, &t);
        assert!(!b.can_cas(7, 100 + t.t_rcd - 1));
        assert!(b.can_cas(7, 100 + t.t_rcd));
        // Wrong row never CAS-able.
        assert!(!b.can_cas(8, 100 + t.t_rcd));
    }

    #[test]
    fn precharge_respects_tras() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 50, &t);
        assert!(!b.can_precharge(50 + t.t_ras - 1));
        assert!(b.can_precharge(50 + t.t_ras));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        let cas_at = t.t_rcd;
        b.cas(true, cas_at, &t);
        let expected = cas_at + t.cwl + t.t_burst + t.t_wr;
        assert!(!b.can_precharge(expected - 1));
        assert!(b.can_precharge(expected));
    }

    #[test]
    fn act_after_pre_respects_trp_and_trc() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        let pre_at = t.t_ras;
        b.precharge(pre_at, &t);
        assert!(!b.can_activate(pre_at + t.t_rp - 1));
        assert!(b.can_activate(pre_at + t.t_rp));
        // tRAS + tRP == tRC, so tRC is simultaneously satisfied.
        assert_eq!(pre_at + t.t_rp, t.t_rc);
    }

    #[test]
    fn refresh_close_blocks_activation() {
        let t = t();
        let mut b = Bank::new();
        b.activate(3, 0, &t);
        b.refresh_close(5000);
        assert!(b.open_row.is_none());
        assert!(!b.can_activate(4999));
        assert!(b.can_activate(5000));
    }
}
