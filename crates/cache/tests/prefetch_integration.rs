//! Integration tests of the prefetcher extension against the full
//! hierarchy: accuracy on friendly patterns, throttling under pressure,
//! and non-interference guarantees.

use coaxial_cache::hierarchy::AccessResult;
use coaxial_cache::{CalmPolicy, Hierarchy, HierarchyConfig, PrefetchPolicy};
use coaxial_dram::{DramConfig, MultiChannel};

fn hierarchy(prefetch: PrefetchPolicy) -> Hierarchy<MultiChannel> {
    let cfg = HierarchyConfig {
        prefetch,
        ..HierarchyConfig::table_iii(1, 1, 1.0, 38.4, CalmPolicy::Serial)
    };
    Hierarchy::new(cfg, MultiChannel::new(&DramConfig::ddr5_4800(), 1))
}

/// Drive a single-core access pattern to completion; returns total cycles.
fn run(h: &mut Hierarchy<MultiChannel>, lines: &[u64], pc: u32) -> u64 {
    let mut now = 0u64;
    let mut pending = Vec::new();
    for (token, &line) in (0u64..).zip(lines) {
        loop {
            match h.access(0, line, false, pc, now, token) {
                AccessResult::Pending => {
                    pending.push(token);
                    break;
                }
                AccessResult::Done(_) => break,
                AccessResult::Retry => {
                    now += 1;
                    h.tick(now);
                }
            }
        }
        // Pace accesses a little so prefetches have a chance to land.
        for _ in 0..20 {
            now += 1;
            h.tick(now);
            while let Some((_, id)) = h.pop_completion() {
                pending.retain(|&p| p != id);
            }
        }
    }
    let deadline = now + 2_000_000;
    while !pending.is_empty() && now < deadline {
        now += 1;
        h.tick(now);
        while let Some((_, id)) = h.pop_completion() {
            pending.retain(|&p| p != id);
        }
    }
    assert!(pending.is_empty(), "accesses must complete");
    now
}

#[test]
fn stride_prefetcher_is_accurate_on_sequential_streams() {
    let mut h = hierarchy(PrefetchPolicy::IpStride { degree: 2 });
    let lines: Vec<u64> = (0..600).map(|i| i * 3).collect(); // stride 3
    run(&mut h, &lines, 0x10);
    let st = h.stats();
    assert!(st.prefetch.issued > 100, "stride detected: {} issued", st.prefetch.issued);
    assert!(
        st.prefetch.accuracy() > 0.7,
        "sequential stride accuracy = {:.2} ({} useful / {} issued)",
        st.prefetch.accuracy(),
        st.prefetch.useful,
        st.prefetch.issued
    );
}

#[test]
fn prefetcher_stays_quiet_on_random_pointer_chases() {
    let mut h = hierarchy(PrefetchPolicy::IpStride { degree: 4 });
    let mut rng = coaxial_sim::SplitMix64::new(3);
    let lines: Vec<u64> = (0..600).map(|_| rng.next_below(1 << 24)).collect();
    run(&mut h, &lines, 0x20);
    let st = h.stats();
    // No stable stride exists, so the confidence filter should mostly hold
    // its fire.
    assert!(
        st.prefetch.issued < 100,
        "random pattern must not trigger stride prefetches: {}",
        st.prefetch.issued
    );
}

#[test]
fn next_line_helps_latency_on_streams() {
    let lines: Vec<u64> = (0..600).collect();
    let mut off = hierarchy(PrefetchPolicy::None);
    let t_off = run(&mut off, &lines, 0x30);
    let mut on = hierarchy(PrefetchPolicy::NextLine { degree: 2 });
    let t_on = run(&mut on, &lines, 0x30);
    // The paced driver absorbs most of the latency, so the win is small —
    // but prefetching must never cost more than noise on a pure stream.
    assert!(t_on <= t_off + t_off / 20, "next-line must not slow a pure stream: {t_on} vs {t_off}");
    let st = on.stats();
    assert!(st.prefetch.useful > 100, "stream prefetches get used: {}", st.prefetch.useful);
}

#[test]
fn prefetches_never_starve_demand_mshrs() {
    // Aggressive degree + dense misses: the reservation must keep demand
    // accesses from being locked out indefinitely.
    let mut h = hierarchy(PrefetchPolicy::NextLine { degree: 8 });
    let mut rng = coaxial_sim::SplitMix64::new(9);
    let lines: Vec<u64> = (0..400).map(|_| rng.next_below(1 << 22)).collect();
    run(&mut h, &lines, 0x40); // would hang without the reservation
    let st = h.stats();
    assert!(st.prefetch.throttled > 0, "pressure must be visible as throttling");
}

#[test]
fn serial_and_prefetch_runs_agree_on_cache_contents_for_used_lines() {
    // Whatever the prefetcher does, every demanded line ends up on chip.
    let lines: Vec<u64> = (0..300).map(|i| i * 7).collect();
    let mut h = hierarchy(PrefetchPolicy::IpStride { degree: 4 });
    run(&mut h, &lines, 0x50);
    for &l in &lines {
        assert!(h.probe_on_chip(0, l), "demanded line {l} missing");
    }
}

#[test]
fn prefetch_stats_reset_with_the_window() {
    let mut h = hierarchy(PrefetchPolicy::NextLine { degree: 2 });
    let lines: Vec<u64> = (0..200).collect();
    let now = run(&mut h, &lines, 0x60);
    assert!(h.stats().prefetch.issued > 0);
    h.reset_stats(now);
    assert_eq!(h.stats().prefetch.issued, 0);
}
