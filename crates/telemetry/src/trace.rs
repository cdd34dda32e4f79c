//! Bounded ring-buffer event tracer with Chrome-trace JSON export.
//!
//! The tracer records complete ("ph":"X") duration events for memory
//! transactions, plus counter ("ph":"C") samples for quantities-over-time
//! such as memory bandwidth, inside a configurable cycle window, and
//! serialises them in the Chrome trace event format, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `about://tracing`.
//!
//! Capacity is bounded: once `capacity` events are held, the oldest are
//! overwritten (ring-buffer semantics) and `dropped()` counts the
//! casualties, so a long run can never exhaust memory. The export is
//! written with format strings against the documented schema, and the
//! tests parse it back through [`crate::json`].

use crate::time::Cycle;

/// One complete duration event destined for a Chrome trace.
///
/// `pid` maps to the component lane (DRAM channel, LLC bank, ...), `tid`
/// to the sub-lane (core or sub-channel); Perfetto renders each (pid, tid)
/// pair as a separate track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name shown on the slice (e.g. "dram", "llc", "cxl_link").
    pub name: &'static str,
    /// Category tag ("mem", "cache", "cxl").
    pub cat: &'static str,
    /// Process lane (component index).
    pub pid: u32,
    /// Thread lane (core / sub-channel index).
    pub tid: u32,
    /// Start timestamp in cycles.
    pub start: Cycle,
    /// Duration in cycles.
    pub dur: Cycle,
    /// Cache-line address tagged into `args` for cross-referencing.
    pub line: u64,
}

/// One counter sample destined for a Chrome trace ("ph":"C").
///
/// Counter tracks render as area charts in Perfetto — one track per
/// `(pid, name)` — which makes bandwidth-over-time of a checkpoint-restored
/// run visually diffable against a cold run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEvent {
    /// Counter-track name (e.g. "mem_read_bytes").
    pub name: &'static str,
    /// Category tag ("mem", "cache", "cxl").
    pub cat: &'static str,
    /// Process lane (component index).
    pub pid: u32,
    /// Sample timestamp in cycles (by convention the *start* of the
    /// sampling epoch, so samples are engine-independent).
    pub ts: Cycle,
    /// Sampled value (e.g. bytes transferred during the epoch).
    pub value: u64,
}

/// Bounded ring-buffer of [`TraceEvent`]s and [`CounterEvent`]s over a
/// cycle window.
#[derive(Debug, Clone)]
pub struct EventTracer {
    events: Vec<TraceEvent>,
    /// Next slot to overwrite once the buffer is full.
    head: usize,
    /// Counter samples, a ring of the same capacity as `events`.
    counters: Vec<CounterEvent>,
    counter_head: usize,
    capacity: usize,
    /// Only events starting within [window_start, window_end) are kept.
    window_start: Cycle,
    window_end: Cycle,
    dropped: u64,
}

impl EventTracer {
    /// A tracer holding at most `capacity` events with an unbounded window.
    pub fn new(capacity: usize) -> Self {
        Self::with_window(capacity, 0, Cycle::MAX)
    }

    /// A tracer recording only events that *start* inside
    /// `[window_start, window_end)`.
    pub fn with_window(capacity: usize, window_start: Cycle, window_end: Cycle) -> Self {
        Self {
            events: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            counters: Vec::new(),
            counter_head: 0,
            capacity: capacity.max(1),
            window_start,
            window_end,
            dropped: 0,
        }
    }

    /// Record an event. Outside the window it is discarded silently; once
    /// the ring is full the oldest event is overwritten and counted in
    /// [`EventTracer::dropped`].
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if ev.start < self.window_start || ev.start >= self.window_end {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Record a counter sample. Same window and ring semantics as
    /// [`EventTracer::record`], on a separate ring of equal capacity so a
    /// burst of span events cannot push out the bandwidth timeline (or
    /// vice versa).
    #[inline]
    pub fn record_counter(&mut self, ev: CounterEvent) {
        if ev.ts < self.window_start || ev.ts >= self.window_end {
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.push(ev);
        } else {
            self.counters[self.counter_head] = ev;
            self.counter_head = (self.counter_head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recording window `[start, end)`.
    pub fn window(&self) -> (Cycle, Cycle) {
        (self.window_start, self.window_end)
    }

    /// Events in chronological order (oldest surviving first).
    pub fn events(&self) -> Vec<&TraceEvent> {
        let (newer, older) = self.events.split_at(self.head);
        older.iter().chain(newer.iter()).collect()
    }

    /// Counter samples in chronological order (oldest surviving first).
    pub fn counter_samples(&self) -> Vec<&CounterEvent> {
        let (newer, older) = self.counters.split_at(self.counter_head);
        older.iter().chain(newer.iter()).collect()
    }

    /// Serialise to Chrome trace event format JSON.
    ///
    /// Timestamps and durations are converted from cycles to microseconds
    /// (the unit the schema mandates) at the 2.4 GHz system clock. The
    /// cache-line address and cycle-domain timestamps are preserved under
    /// `args` for exact cross-referencing with simulator output.
    pub fn export_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, ev) in self.events().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts_us = crate::time::cycles_to_us(ev.start);
            let dur_us = crate::time::cycles_to_us(ev.dur.max(1));
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.4},\"dur\":{:.4},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"line\":{},\"start_cycle\":{},\"dur_cycles\":{}}}}}",
                ev.name, ev.cat, ts_us, dur_us, ev.pid, ev.tid, ev.line, ev.start, ev.dur
            ));
        }
        let mut first = self.events.is_empty();
        for ev in self.counter_samples() {
            if !first {
                out.push(',');
            }
            first = false;
            let ts_us = crate::time::cycles_to_us(ev.ts);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{:.4},\"pid\":{},\
                 \"args\":{{\"value\":{},\"cycle\":{}}}}}",
                ev.name, ev.cat, ts_us, ev.pid, ev.value, ev.ts
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn ev(start: Cycle, dur: Cycle) -> TraceEvent {
        TraceEvent { name: "dram", cat: "mem", pid: 0, tid: 1, start, dur, line: 0xdead }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = EventTracer::new(3);
        for i in 0..5 {
            t.record(ev(i * 10, 5));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let starts: Vec<Cycle> = t.events().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![20, 30, 40]);
    }

    #[test]
    fn window_filters_by_start() {
        let mut t = EventTracer::with_window(16, 100, 200);
        t.record(ev(50, 5)); // before window
        t.record(ev(150, 5)); // inside
        t.record(ev(199, 5)); // inside (start < end)
        t.record(ev(200, 5)); // at end: excluded
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 0);
    }

    /// The `traceEvents` array of an export, parsed with the workspace
    /// codec.
    fn trace_events(json: &str) -> Vec<Json> {
        let Json::Obj(mut top) = parse(json).expect("export must be valid JSON") else {
            panic!("top level must be an object")
        };
        let Some(Json::Arr(events)) = top.remove("traceEvents") else {
            panic!("traceEvents must be an array")
        };
        events
    }

    #[test]
    fn chrome_export_is_valid_json_with_required_schema() {
        let mut t = EventTracer::new(8);
        t.record(ev(240, 120)); // 100 ns start, 50 ns duration at 2.4 GHz
        t.record(TraceEvent {
            name: "cxl_link",
            cat: "cxl",
            pid: 2,
            tid: 0,
            start: 480,
            dur: 60,
            line: 42,
        });
        let events = trace_events(&t.export_chrome_json());
        assert_eq!(events.len(), 2);
        for e in &events {
            let Json::Obj(fields) = e else { panic!("event must be an object") };
            assert_eq!(fields.get("ph").and_then(Json::as_str), Some("X"));
            for k in ["ts", "dur", "pid", "tid"] {
                assert!(fields.get(k).and_then(Json::as_f64).is_some(), "{k} must be a number");
            }
            assert!(fields.get("name").and_then(Json::as_str).is_some());
        }
        // Cycle→µs conversion: 240 cycles @2.4 GHz = 0.1 µs.
        let Json::Obj(fields) = &events[0] else { unreachable!() };
        let ts = fields["ts"].as_f64().unwrap();
        assert!((ts - 0.1).abs() < 1e-9, "ts {ts} != 0.1 µs");
    }

    #[test]
    fn empty_trace_exports_empty_array() {
        let t = EventTracer::new(4);
        let json = t.export_chrome_json();
        assert!(json.contains("\"traceEvents\":[]"));
        assert!(trace_events(&json).is_empty());
    }

    fn ctr(ts: Cycle, value: u64) -> CounterEvent {
        CounterEvent { name: "mem_read_bytes", cat: "mem", pid: 300, ts, value }
    }

    #[test]
    fn counter_ring_overwrites_oldest_and_respects_window() {
        let mut t = EventTracer::with_window(3, 100, 300);
        t.record_counter(ctr(50, 1)); // before window: dropped silently
        t.record_counter(ctr(300, 1)); // at end: excluded
        for i in 0..5 {
            t.record_counter(ctr(100 + i * 10, i));
        }
        assert_eq!(t.dropped(), 2, "two overwrites once the counter ring filled");
        let ts: Vec<Cycle> = t.counter_samples().iter().map(|c| c.ts).collect();
        assert_eq!(ts, vec![120, 130, 140]);
        // Span events ride a separate ring: recording one evicts no counter.
        t.record(ev(150, 5));
        assert_eq!(t.counter_samples().len(), 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn chrome_export_emits_counter_events() {
        let mut t = EventTracer::new(8);
        t.record(ev(240, 120));
        t.record_counter(ctr(4096, 640));
        let events = trace_events(&t.export_chrome_json());
        assert_eq!(events.len(), 2, "one span + one counter");
        let Json::Obj(fields) = &events[1] else { panic!("counter must be an object") };
        assert_eq!(fields["ph"].as_str(), Some("C"));
        assert_eq!(fields["name"].as_str(), Some("mem_read_bytes"));
        assert_eq!(fields["pid"], Json::Int(300));
        let Json::Obj(args) = &fields["args"] else { panic!("args must be an object") };
        assert_eq!(args["value"], Json::Int(640));
        assert_eq!(args["cycle"], Json::Int(4096));
    }

    #[test]
    fn counters_alone_export_without_leading_comma() {
        let mut t = EventTracer::new(4);
        t.record_counter(ctr(0, 7));
        assert_eq!(trace_events(&t.export_chrome_json()).len(), 1);
    }
}
