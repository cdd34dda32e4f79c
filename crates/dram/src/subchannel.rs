//! FR-FCFS scheduler for one 32-bit DDR5 sub-channel.
//!
//! The scheduler owns per-bank state, separate read/write queues with
//! write-drain hysteresis, channel-level CAS/ACT spacing constraints
//! (tCCD_L/S, tRRD_L/S, tFAW, write-to-read and read-to-write turnaround),
//! explicit data-bus occupancy, and all-bank refresh. One command may issue
//! per cycle.
//!
//! Each cycle's decision is one pure pass, [`SubChannel::plan`]: it either
//! names the command to issue or returns the exact first cycle anything
//! could issue. That cycle gates every later tick, so a sub-channel with
//! work queued but nothing issuable costs one comparison per cycle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use coaxial_sim::{Cycle, MeanTracker};

use crate::audit::{CmdKind, CmdRecord};
use crate::bank::Bank;
use crate::config::{AddressMapping, DramConfig, PagePolicy};
use crate::request::{MemRequest, MemResponse};

/// Physical coordinates of a line within a sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    pub bank_group: usize,
    pub bank: usize, // global bank index within the sub-channel
    pub row: u64,
}

/// Heap entry ordering completed responses by (data-end cycle, sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Completion {
    done: Cycle,
    seq: u64,
    resp: MemResponse,
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.done, self.seq).cmp(&(other.done, other.seq))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone)]
struct Entry {
    req: MemRequest,
    addr: DecodedAddr,
    /// Cycle the sub-channel accepted the request.
    enqueued_at: Cycle,
    /// First DRAM command issued on this request's behalf.
    first_cmd: Option<Cycle>,
    /// Whether this request needed its own ACT (row-buffer miss).
    had_act: bool,
}

/// A command the scheduler can issue. Queue indices refer to the served
/// queue's FR-FCFS window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    /// Refresh sequence: close this open bank before REFab.
    RefreshPre(usize),
    /// All-bank refresh.
    RefAb,
    /// Read or write CAS for the row hit at this index.
    Cas(usize),
    /// ACT for the request at this index (its bank is closed).
    Act(usize),
    /// PRE for the request at this index (its bank holds another row).
    Pre(usize),
    /// Page-policy PRE of this idle open bank.
    Close(usize),
}

/// One scheduling decision (see [`SubChannel::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Issue this command now.
    Issue(Cmd),
    /// Nothing can issue before this cycle unless a request arrives.
    Wait(Cycle),
}

/// Aggregate command/energy counters for one sub-channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommandCounts {
    pub act: u64,
    pub pre: u64,
    pub rd: u64,
    pub wr: u64,
    pub refab: u64,
}

/// One 32-bit DDR5 sub-channel with its own rank of banks.
pub struct SubChannel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    read_q: VecDeque<Entry>,
    write_q: VecDeque<Entry>,
    draining_writes: bool,

    // Channel-level command spacing state.
    last_cas_at: Option<(Cycle, usize)>, // (cycle, bank_group)
    last_read_cas: Option<Cycle>,
    last_write_cas: Option<(Cycle, usize)>, // (cycle, bank_group)
    last_act: Option<(Cycle, usize)>,
    act_window: VecDeque<Cycle>, // last 4 ACTs, for tFAW
    bus_free_at: Cycle,
    bus_dir_write: bool,

    // Refresh state: the REFab sequence runs from `refresh_due` until the
    // REFab issues, which blocks the rank until `refreshing_until`.
    refresh_due: Cycle,
    refreshing_until: Cycle,
    last_pre_at: Cycle,

    // Completions ordered by data-end time.
    completions: BinaryHeap<Reverse<Completion>>,
    completion_seq: u64,

    pub counts: CommandCounts,
    /// Data-bus busy cycles (for utilization).
    pub bus_busy: u64,
    pub queue_delay: MeanTracker,
    pub service_time: MeanTracker,
    /// Issued-command log (only when `cfg.log_commands`).
    cmd_log: Vec<CmdRecord>,
    /// Tick horizon: ticks strictly before this cycle are no-ops. Set by
    /// every tick that runs (see [`Self::tick`]) and lowered by
    /// [`Self::enqueue`], the only outside mutation that can create work.
    idle_until: Cycle,
}

impl SubChannel {
    pub fn new(cfg: DramConfig) -> Self {
        let nbanks = cfg.banks_per_subchannel();
        Self {
            banks: (0..nbanks).map(|_| Bank::new()).collect(),
            read_q: VecDeque::with_capacity(cfg.read_queue_depth),
            write_q: VecDeque::with_capacity(cfg.write_queue_depth),
            draining_writes: false,
            last_cas_at: None,
            last_read_cas: None,
            last_write_cas: None,
            last_act: None,
            act_window: VecDeque::with_capacity(4),
            bus_free_at: 0,
            bus_dir_write: false,
            refresh_due: cfg.timings.t_refi,
            refreshing_until: 0,
            last_pre_at: 0,
            completions: BinaryHeap::new(),
            completion_seq: 0,
            counts: CommandCounts::default(),
            bus_busy: 0,
            queue_delay: MeanTracker::new(),
            service_time: MeanTracker::new(),
            cmd_log: Vec::new(),
            idle_until: 0,
            cfg,
        }
    }

    #[inline]
    fn log_cmd(&mut self, cycle: Cycle, kind: CmdKind, bank: usize, row: u64) {
        if self.cfg.log_commands {
            self.cmd_log.push(CmdRecord {
                cycle,
                kind,
                bank,
                bank_group: bank / self.cfg.banks_per_group,
                row,
            });
        }
    }

    /// Drain the recorded command log (see [`crate::audit`]).
    pub fn take_command_log(&mut self) -> Vec<CmdRecord> {
        std::mem::take(&mut self.cmd_log)
    }

    /// Decode a sub-channel-local line address into bank/row coordinates
    /// according to the configured [`AddressMapping`].
    pub fn decode(&self, local_line: u64) -> DecodedAddr {
        let col_bits = self.cfg.lines_per_row().trailing_zeros();
        let bg_bits = (self.cfg.bank_groups as u64).trailing_zeros();
        let ba_bits = (self.cfg.banks_per_group as u64).trailing_zeros();
        let (bank_group, bank_in_group, row) = match self.cfg.address_mapping {
            // row | bank | bank-group | column: streams get row hits, then
            // hop to the next bank group.
            AddressMapping::RowBankColumn => {
                let mut a = local_line >> col_bits;
                let bg = coaxial_sim::idx(a & ((1 << bg_bits) - 1));
                a >>= bg_bits;
                let ba = coaxial_sim::idx(a & ((1 << ba_bits) - 1));
                a >>= ba_bits;
                (bg, ba, a % self.cfg.rows)
            }
            // row | column | bank | bank-group: consecutive lines alternate
            // banks before advancing the column.
            AddressMapping::RowColumnBank => {
                let mut a = local_line;
                let bg = coaxial_sim::idx(a & ((1 << bg_bits) - 1));
                a >>= bg_bits;
                let ba = coaxial_sim::idx(a & ((1 << ba_bits) - 1));
                a >>= ba_bits;
                a >>= col_bits;
                (bg, ba, a % self.cfg.rows)
            }
        };
        DecodedAddr { bank_group, bank: bank_group * self.cfg.banks_per_group + bank_in_group, row }
    }

    pub fn read_q_len(&self) -> usize {
        self.read_q.len()
    }

    pub fn write_q_len(&self) -> usize {
        self.write_q.len()
    }

    /// Whether a request of the given direction would be accepted now.
    pub fn can_accept(&self, is_write: bool) -> bool {
        if is_write {
            self.write_q.len() < self.cfg.write_queue_depth
        } else {
            self.read_q.len() < self.cfg.read_queue_depth
        }
    }

    /// Accept a request into the appropriate queue, stamped `now`: the
    /// sub-channel's current cycle, whose tick may or may not have run.
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        if !self.can_accept(req.is_write) {
            return Err(req);
        }
        let addr = self.decode(req.line_addr);
        let entry = Entry { req, addr, enqueued_at: now, first_cmd: None, had_act: false };
        let ready = self.entry_ready_at(&entry);
        let q = if req.is_write { &mut self.write_q } else { &mut self.read_q };
        q.push_back(entry);
        let in_window = q.len() <= self.cfg.sched_window;
        // Keep the tick horizon sound in O(1). Two arrivals change what
        // older requests may do, so the next tick re-plans: a write that
        // brings the queue to the drain watermark flips the served queue to
        // older writes, and under the Closed policy a read can push a write
        // out of the visible window that keeps its row open. Otherwise only
        // the new entry itself can be issuable before the horizon, and only
        // if the next plan will see it: in the served queue, in the window.
        let visible = 2 * self.cfg.sched_window;
        let starts_drain =
            req.is_write && !self.draining_writes && self.write_q.len() >= self.cfg.write_drain_hi;
        let hides_write = !req.is_write
            && self.cfg.page_policy == PagePolicy::Closed
            && self.read_q.len() <= visible
            && self.read_q.len() + self.write_q.len() > visible;
        if starts_drain || hides_write {
            self.idle_until = self.idle_until.min(now);
        } else if in_window && req.is_write == self.serves_writes() {
            self.idle_until = self.idle_until.min(ready.max(now));
        }
        Ok(())
    }

    /// Pop a response whose data transfer has finished by `now`.
    pub fn pop_response(&mut self, now: Cycle) -> Option<MemResponse> {
        if let Some(&Reverse(c)) = self.completions.peek() {
            if c.done <= now {
                self.completions.pop();
                return Some(c.resp);
            }
        }
        None
    }

    /// Advance one cycle: refresh, then one FR-FCFS pick, then the page
    /// policy — at most one command.
    ///
    /// A tick before the horizon returns at once. Otherwise it runs
    /// [`Self::plan`], issues what it names, and sets the horizon to the
    /// exact next cycle the plan issues something, with or without work
    /// queued. Only [`Self::enqueue`] changes the state the plan reads
    /// between ticks, and it lowers the horizon itself. Debug builds check
    /// every skipped tick: the plan must find nothing to issue.
    pub fn tick(&mut self, now: Cycle) {
        if now < self.idle_until {
            if cfg!(debug_assertions) {
                self.check_no_issue(now);
            }
            return;
        }
        if self.refreshing_until <= now && now < self.refresh_due {
            // The drain hysteresis advances on scheduling ticks only.
            self.draining_writes = self.drain_state();
        }
        self.idle_until = match self.plan(now) {
            Step::Wait(at) => at,
            Step::Issue(cmd) => {
                let write_cas = matches!(cmd, Cmd::Cas(_)) && self.serves_writes();
                self.issue(cmd, now);
                // Plan the next cycle as well, so the horizon stays exact
                // after an issue. A write CAS shortens the write queue, and
                // the drain hysteresis must see that at the next tick.
                if write_cas {
                    now + 1
                } else if let Step::Wait(at) = self.plan(now + 1) {
                    at
                } else {
                    now + 1
                }
            }
        };
    }

    /// Debug tripwire for a skipped tick at `now`: panics if the plan can
    /// issue a command, i.e. the horizon was stale.
    fn check_no_issue(&self, now: Cycle) {
        if let Step::Issue(cmd) = self.plan(now) {
            panic!(
                "DRAM sub-channel: tick at cycle {now} skipped (horizon {}) but {cmd:?} \
                 can issue: stale horizon",
                self.idle_until
            );
        }
    }

    /// Debug tripwire for a caller that skips both the tick and the
    /// response harvest at `now`: panics if either would do anything.
    pub(crate) fn check_quiet(&self, now: Cycle) {
        self.check_no_issue(now);
        if let Some(&Reverse(c)) = self.completions.peek() {
            assert!(
                c.done > now,
                "DRAM sub-channel: completion due at {} skipped at {now}",
                c.done
            );
        }
    }

    /// Write-drain hysteresis applied to the current write queue: writes
    /// are forced out above the high watermark and drained down to the low
    /// watermark in a batch, which amortizes bus turnarounds.
    fn drain_state(&self) -> bool {
        let n = self.write_q.len();
        if n >= self.cfg.write_drain_hi {
            true
        } else if n <= self.cfg.write_drain_lo {
            false
        } else {
            self.draining_writes
        }
    }

    /// Whether the pick serves the write queue: while draining, or when no
    /// read waits. Reads otherwise have priority.
    fn serves_writes(&self) -> bool {
        self.drain_state() || (self.read_q.is_empty() && !self.write_q.is_empty())
    }

    /// The scheduler's decision at `now`, without side effects: the
    /// command to issue, or the first cycle any command could issue.
    ///
    /// Every legality rule is a threshold against a fixed timestamp (bank
    /// timers, tCCD/tRRD/tFAW trackers, bus occupancy, refresh deadline),
    /// so while nothing issues and nothing arrives, the earliest threshold
    /// among the commands the pick would consider is exactly the next
    /// cycle it issues one.
    fn plan(&self, now: Cycle) -> Step {
        let t = &self.cfg.timings;
        if self.refreshing_until > now {
            return Step::Wait(self.refreshing_until); // rank busy with REFab
        }
        if now >= self.refresh_due {
            // Close one open bank per cycle (single command bus), first
            // open bank first; REFab then needs tRP after the last PRE.
            let (cmd, at) = match self.banks.iter().position(|b| b.open_row.is_some()) {
                Some(i) => (Cmd::RefreshPre(i), self.banks[i].earliest_pre()),
                None => (Cmd::RefAb, self.last_pre_at + t.t_rp),
            };
            return if now >= at { Step::Issue(cmd) } else { Step::Wait(at) };
        }
        let serve_writes = self.serves_writes();
        let mut next = match self.pick(serve_writes, now) {
            Step::Issue(cmd) => return Step::Issue(cmd),
            Step::Wait(at) => at.min(self.refresh_due),
        };
        // Precharge policy:
        // * OpenAdaptive — with nothing queued, close a stale open row so
        //   the next access pays tRCD+CL instead of a full row conflict;
        // * Closed — close rows as soon as legal, regardless of queues;
        // * Open — never close speculatively.
        let close = match self.cfg.page_policy {
            PagePolicy::Open => false,
            PagePolicy::OpenAdaptive => self.read_q.is_empty() && self.write_q.is_empty(),
            PagePolicy::Closed => true,
        };
        if !close {
            return Step::Wait(next);
        }
        // Never close a row that a visible queued request still wants.
        let mut wanted = 0u64; // bitmask over ≤64 banks
        for e in self.read_q.iter().chain(self.write_q.iter()).take(2 * self.cfg.sched_window) {
            if self.banks[e.addr.bank].open_row == Some(e.addr.row) {
                wanted |= 1 << e.addr.bank;
            }
        }
        for (i, b) in self.banks.iter().enumerate() {
            if b.open_row.is_some() && wanted & (1 << i) == 0 {
                if b.earliest_pre() <= now {
                    return Step::Issue(Cmd::Close(i));
                }
                next = next.min(b.earliest_pre());
            }
        }
        Step::Wait(next)
    }

    /// One FR-FCFS pass over the served queue's window: the oldest
    /// issuable row-hit CAS, else the oldest issuable ACT (closed bank) or
    /// PRE (row conflict) among the requests that are first to claim their
    /// bank — a younger request never re-opens or closes a bank an older
    /// one waits on, which prevents row thrashing. With nothing issuable,
    /// the earliest cycle either kind could issue.
    fn pick(&self, serve_writes: bool, now: Cycle) -> Step {
        let q = if serve_writes { &self.write_q } else { &self.read_q };
        let mut row_cmd = None;
        let mut next = Cycle::MAX;
        let mut claimed = 0u64; // bitmask over ≤64 banks
        for (i, e) in q.iter().take(self.cfg.sched_window).enumerate() {
            let bank = &self.banks[e.addr.bank];
            let mask = 1u64 << e.addr.bank;
            let first_claim = claimed & mask == 0;
            claimed |= mask;
            let (cmd, at) = match bank.open_row {
                Some(r) if r == e.addr.row => (
                    Cmd::Cas(i),
                    bank.earliest_cas().max(self.cas_legal_at(e.addr.bank_group, serve_writes)),
                ),
                _ if !first_claim || row_cmd.is_some() => continue,
                Some(_) => (Cmd::Pre(i), bank.earliest_pre()),
                None => {
                    (Cmd::Act(i), bank.earliest_act().max(self.act_legal_at(e.addr.bank_group)))
                }
            };
            if at > now {
                next = next.min(at);
            } else if let Cmd::Cas(_) = cmd {
                return Step::Issue(cmd); // row hits go first
            } else {
                row_cmd = Some(cmd);
            }
        }
        row_cmd.map_or(Step::Wait(next), Step::Issue)
    }

    /// Issue `cmd` (from [`Self::plan`] at `now`) and update all state.
    fn issue(&mut self, cmd: Cmd, now: Cycle) {
        let serve_writes = self.serves_writes();
        let t = &self.cfg.timings;
        match cmd {
            Cmd::RefreshPre(bank) | Cmd::Close(bank) => self.precharge(bank, now),
            Cmd::RefAb => {
                self.refreshing_until = now + t.t_rfc;
                for b in &mut self.banks {
                    b.refresh_close(self.refreshing_until);
                }
                self.refresh_due += t.t_refi;
                self.counts.refab += 1;
                self.log_cmd(now, CmdKind::RefAb, 0, 0);
            }
            Cmd::Cas(i) => self.issue_cas(serve_writes, i, now),
            Cmd::Act(i) | Cmd::Pre(i) => {
                let q = if serve_writes { &mut self.write_q } else { &mut self.read_q };
                let e = &mut q[i];
                e.first_cmd.get_or_insert(now);
                let (bank, bank_group, row) = (e.addr.bank, e.addr.bank_group, e.addr.row);
                if let Cmd::Act(_) = cmd {
                    e.had_act = true;
                    self.banks[bank].activate(row, now, t);
                    self.log_cmd(now, CmdKind::Act, bank, row);
                    self.counts.act += 1;
                    self.last_act = Some((now, bank_group));
                    if self.act_window.len() == 4 {
                        self.act_window.pop_front();
                    }
                    self.act_window.push_back(now);
                } else {
                    self.banks[bank].row_conflicts += 1;
                    self.precharge(bank, now);
                }
            }
        }
    }

    /// PRE to `bank` at `now`.
    fn precharge(&mut self, bank: usize, now: Cycle) {
        self.banks[bank].precharge(now, &self.cfg.timings);
        self.log_cmd(now, CmdKind::Pre, bank, 0);
        self.counts.pre += 1;
        self.last_pre_at = now;
    }

    /// CAS for entry `i` of the served queue at `now`: dequeue it, occupy
    /// the data bus, and schedule its completion.
    fn issue_cas(&mut self, serve_writes: bool, i: usize, now: Cycle) {
        let q = if serve_writes { &mut self.write_q } else { &mut self.read_q };
        let e = q.remove(i).expect("index valid");
        let t = &self.cfg.timings;
        let is_write = e.req.is_write;
        let bank = &mut self.banks[e.addr.bank];
        bank.cas(is_write, now, t);
        if e.had_act {
            bank.row_misses += 1;
        } else {
            bank.row_hits += 1;
        }
        // Bus + channel bookkeeping.
        let data_start = now + if is_write { t.cwl } else { t.cl };
        let data_end = data_start + t.t_burst;
        self.bus_free_at = data_end;
        self.bus_dir_write = is_write;
        self.bus_busy += t.t_burst;
        self.last_cas_at = Some((now, e.addr.bank_group));
        if is_write {
            self.last_write_cas = Some((now, e.addr.bank_group));
            self.counts.wr += 1;
        } else {
            self.last_read_cas = Some(now);
            self.counts.rd += 1;
        }
        self.log_cmd(
            now,
            if is_write { CmdKind::Wr } else { CmdKind::Rd },
            e.addr.bank,
            e.addr.row,
        );
        // Build the completion record.
        let first = e.first_cmd.unwrap_or(now);
        let queue_cycles = first.saturating_sub(e.enqueued_at);
        let service_cycles = data_end - first;
        self.queue_delay.record(queue_cycles as f64);
        self.service_time.record(service_cycles as f64);
        let resp = MemResponse {
            id: e.req.id,
            line_addr: e.req.line_addr,
            is_write,
            issued_at: e.req.issued_at,
            completed_at: data_end,
            queue_cycles,
            service_cycles,
            cxl_cycles: 0,
        };
        let seq = self.completion_seq;
        self.completion_seq += 1;
        self.completions.push(Reverse(Completion { done: data_end, seq, resp }));
    }

    /// Earliest cycle at which the *channel-level* CAS constraints allow a
    /// CAS for `bank_group`/`is_write`. All constraints are thresholds
    /// against fixed timestamps, so this is exact while no command issues.
    fn cas_legal_at(&self, bank_group: usize, is_write: bool) -> Cycle {
        let t = &self.cfg.timings;
        let mut at: Cycle = 0;
        // CAS-to-CAS spacing.
        if let Some((c, bg)) = self.last_cas_at {
            at = at.max(c + if bg == bank_group { t.t_ccd_l } else { t.t_ccd_s });
        }
        if is_write {
            // Read-to-write turnaround: the write burst must start after the
            // read burst clears the bus plus a turnaround bubble.
            if let Some(rd_at) = self.last_read_cas {
                at = at.max((rd_at + t.cl + t.t_burst + t.t_turnaround).saturating_sub(t.cwl));
            }
        } else if let Some((wr_at, wr_bg)) = self.last_write_cas {
            // Write-to-read: tWTR measured from end of write data.
            let wtr = if wr_bg == bank_group { t.t_wtr_l } else { t.t_wtr_s };
            at = at.max(wr_at + t.cwl + t.t_burst + wtr);
        }
        // Data bus occupancy (safety net; the spacing rules above normally
        // guarantee this): data_start = now + CL/CWL must not precede the
        // bus becoming free (plus a turnaround on direction change).
        let lat = if is_write { t.cwl } else { t.cl };
        let need = if self.bus_dir_write != is_write {
            self.bus_free_at + t.t_turnaround
        } else {
            self.bus_free_at
        };
        at.max(need.saturating_sub(lat))
    }

    /// Earliest cycle at which rank-level ACT constraints (tRRD, tFAW)
    /// allow an ACT for `bank_group`.
    fn act_legal_at(&self, bank_group: usize) -> Cycle {
        let t = &self.cfg.timings;
        let mut at: Cycle = 0;
        if let Some((c, bg)) = self.last_act {
            at = at.max(c + if bg == bank_group { t.t_rrd_l } else { t.t_rrd_s });
        }
        if self.act_window.len() == 4 {
            at = at.max(self.act_window[0] + t.t_faw);
        }
        at
    }

    /// Earliest cycle the next command on `e`'s behalf could become legal:
    /// CAS for a row hit, PRE for a row conflict, ACT for a closed bank —
    /// each gated by its bank timer and the channel/rank spacing rules.
    fn entry_ready_at(&self, e: &Entry) -> Cycle {
        let bank = &self.banks[e.addr.bank];
        match bank.open_row {
            Some(r) if r == e.addr.row => {
                bank.earliest_cas().max(self.cas_legal_at(e.addr.bank_group, e.req.is_write))
            }
            Some(_) => bank.earliest_pre(),
            None => bank.earliest_act().max(self.act_legal_at(e.addr.bank_group)),
        }
    }

    /// Earliest future cycle at which ticking this sub-channel could do
    /// observable work — issue a command or finish a response — assuming
    /// no new requests arrive and all completions due by `now` have been
    /// popped: the tick horizon (see [`Self::tick`]) or the next
    /// completion, whichever is first. Exact after a tick at `now`; after
    /// an enqueue it may name a cycle where nothing issues after all.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let done = self.completions.peek().map_or(Cycle::MAX, |&Reverse(c)| c.done);
        self.idle_until.min(done).max(now + 1)
    }

    /// Zero all statistics (end of warmup). Timing state is untouched.
    pub fn reset_stats(&mut self) {
        self.counts = CommandCounts::default();
        self.bus_busy = 0;
        self.queue_delay = MeanTracker::new();
        self.service_time = MeanTracker::new();
        for b in &mut self.banks {
            b.row_hits = 0;
            b.row_misses = 0;
            b.row_conflicts = 0;
        }
    }

    /// Total row-buffer outcomes across banks: (hits, misses, conflicts).
    pub fn row_outcomes(&self) -> (u64, u64, u64) {
        self.banks
            .iter()
            .fold((0, 0, 0), |(h, m, c), b| (h + b.row_hits, m + b.row_misses, c + b.row_conflicts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn sub() -> SubChannel {
        SubChannel::new(DramConfig::ddr5_4800())
    }

    /// Drive the sub-channel until `n` responses are collected or `limit`
    /// cycles elapse.
    fn run_until(sc: &mut SubChannel, n: usize, limit: Cycle) -> Vec<MemResponse> {
        let mut out = Vec::new();
        for now in 0..limit {
            sc.tick(now);
            while let Some(r) = sc.pop_response(now) {
                out.push(r);
            }
            if out.len() >= n {
                break;
            }
        }
        out
    }

    #[test]
    fn single_read_completes_with_closed_bank_latency() {
        let mut sc = sub();
        sc.enqueue(MemRequest::read(1, 0, 0), 0).unwrap();
        let resps = run_until(&mut sc, 1, 10_000);
        assert_eq!(resps.len(), 1);
        let t = DramConfig::ddr5_4800().timings;
        // ACT at 0, CAS at tRCD, data end at tRCD+CL+burst.
        assert_eq!(resps[0].completed_at, t.t_rcd + t.cl + t.t_burst);
        assert_eq!(resps[0].queue_cycles, 0);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut sc = sub();
        // Two reads to the same row: the second should be a row hit.
        sc.enqueue(MemRequest::read(1, 0, 0), 0).unwrap();
        sc.enqueue(MemRequest::read(2, 1, 0), 0).unwrap();
        let resps = run_until(&mut sc, 2, 10_000);
        assert_eq!(resps.len(), 2);
        let (hits, misses, _) = sc.row_outcomes();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
        let gap = resps[1].completed_at - resps[0].completed_at;
        // Row-hit CAS issues tCCD_L after the first — far less than tRC.
        assert!(gap <= DramConfig::ddr5_4800().timings.t_ccd_l + 2, "gap={gap}");
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let mut sc = sub();
        let lines_per_row = DramConfig::ddr5_4800().lines_per_row();
        let banks = DramConfig::ddr5_4800().banks_per_subchannel() as u64;
        // Same bank, different rows: addr stride of one full bank rotation.
        let stride = lines_per_row * banks;
        sc.enqueue(MemRequest::read(1, 0, 0), 0).unwrap();
        sc.enqueue(MemRequest::read(2, stride, 0), 0).unwrap();
        let resps = run_until(&mut sc, 2, 10_000);
        assert_eq!(resps.len(), 2);
        let (_, _, conflicts) = sc.row_outcomes();
        assert_eq!(conflicts, 1);
        let t = DramConfig::ddr5_4800().timings;
        // Second access must wait ≥ tRAS+tRP from the first ACT.
        assert!(resps[1].completed_at >= t.t_ras + t.t_rp + t.t_rcd + t.cl);
    }

    #[test]
    fn back_pressure_when_queue_full() {
        let mut sc = sub();
        let depth = DramConfig::ddr5_4800().read_queue_depth;
        for i in 0..depth {
            sc.enqueue(MemRequest::read(i as u64, i as u64 * 1000, 0), 0).unwrap();
        }
        assert!(sc.enqueue(MemRequest::read(999, 0, 0), 0).is_err());
    }

    #[test]
    fn writes_eventually_drain() {
        let mut sc = sub();
        for i in 0..40u64 {
            sc.enqueue(MemRequest::write(i, i * 64, 0), 0).unwrap();
        }
        let resps = run_until(&mut sc, 40, 100_000);
        assert_eq!(resps.len(), 40);
        assert_eq!(sc.counts.wr, 40);
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let mut sc = sub();
        // A few writes (below drain threshold), then a read.
        for i in 0..4u64 {
            sc.enqueue(MemRequest::write(i, i * 64, 0), 0).unwrap();
        }
        sc.enqueue(MemRequest::read(100, 64 * 1024, 0), 0).unwrap();
        let resps = run_until(&mut sc, 1, 10_000);
        assert!(!resps[0].is_write, "read must complete first");
    }

    #[test]
    fn refresh_blocks_the_rank() {
        let mut sc = sub();
        let t = DramConfig::ddr5_4800().timings;
        // Run quietly past the first refresh interval.
        for now in 0..t.t_refi + t.t_rfc + 10 {
            sc.tick(now);
        }
        assert_eq!(sc.counts.refab, 1);
        // A read right after refresh still completes.
        let start = t.t_refi + t.t_rfc + 10;
        sc.enqueue(MemRequest::read(1, 0, start), start).unwrap();
        let mut got = false;
        for now in start..start + 10_000 {
            sc.tick(now);
            if sc.pop_response(now).is_some() {
                got = true;
                break;
            }
        }
        assert!(got);
    }

    #[test]
    fn distinct_banks_overlap_service() {
        let mut sc = sub();
        let lines_per_row = DramConfig::ddr5_4800().lines_per_row();
        // 8 reads to 8 different bank groups (stride = one row of lines).
        for i in 0..8u64 {
            sc.enqueue(MemRequest::read(i, i * lines_per_row, 0), 0).unwrap();
        }
        let resps = run_until(&mut sc, 8, 100_000);
        assert_eq!(resps.len(), 8);
        let t = DramConfig::ddr5_4800().timings;
        let last = resps.iter().map(|r| r.completed_at).max().unwrap();
        // Bank-parallel service: far faster than 8 serialized row cycles.
        assert!(last < 8 * t.unloaded_closed(), "last completion at {last}");
    }
}
