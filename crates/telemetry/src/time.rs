//! System clock and time unit conversions.
//!
//! Everything in the simulator advances on a single 2.4 GHz clock. The paper
//! (Table III) clocks its 12 OoO cores at 2.4 GHz; DDR5-4800 transfers data
//! on both edges of a 2.4 GHz I/O clock, so memory timing parameters quoted
//! in memory clocks translate 1:1 into system cycles.
//!
//! This is the workspace's one clock module: `coaxial_sim::time` re-exports
//! it, and `coaxial-lint` rule Q02 lets no other file spell out the
//! cycle↔ns factor.

/// Simulation timestamp / duration, in system clock cycles (2.4 GHz).
pub type Cycle = u64;

/// System (CPU and DDR5-4800 I/O) clock frequency in GHz.
pub const CPU_FREQ_GHZ: f64 = 2.4;

/// Duration of one system clock cycle in nanoseconds (≈ 0.41667 ns).
pub const NS_PER_CYCLE: f64 = 1.0 / CPU_FREQ_GHZ;

/// Convert a nanosecond latency into system cycles, rounding up so that a
/// quoted hardware latency is never under-modelled.
#[inline]
pub fn ns_to_cycles(ns: f64) -> Cycle {
    crate::narrow::trunc_u64((ns * CPU_FREQ_GHZ).ceil())
}

/// Convert a cycle count back into nanoseconds.
#[inline]
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 * NS_PER_CYCLE
}

/// Convert an already-fractional cycle quantity (a histogram mean or
/// percentile) into nanoseconds. Same arithmetic as [`cycles_to_ns`],
/// for callers whose cycle value left the integer domain upstream.
#[inline]
pub fn cycles_f64_to_ns(frac_cycles: f64) -> f64 {
    frac_cycles * NS_PER_CYCLE
}

/// Convert a cycle timestamp into microseconds (Chrome trace `ts`/`dur`
/// fields are µs).
#[inline]
pub fn cycles_to_us(cycles: Cycle) -> f64 {
    cycles as f64 * NS_PER_CYCLE / 1000.0
}

/// Convert a GB/s bandwidth figure into bytes per cycle. GB/s is
/// bytes/ns, so this is the same factor as [`cycles_to_ns`] — kept here
/// so rate math never re-derives the clock in place.
#[inline]
pub fn gbs_to_bytes_per_cycle(gbs: f64) -> f64 {
    gbs * NS_PER_CYCLE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_is_sub_nanosecond() {
        let ns = std::hint::black_box(NS_PER_CYCLE);
        assert!(ns > 0.41 && ns < 0.42);
    }

    #[test]
    fn ns_conversion_rounds_up() {
        // 12.5 ns (one CXL port crossing) = exactly 30 cycles.
        assert_eq!(ns_to_cycles(12.5), 30);
        // 1 ns does not fit in 2 cycles (0.833 ns); it needs 3.
        assert_eq!(ns_to_cycles(1.0), 3);
        assert_eq!(ns_to_cycles(0.0), 0);
    }

    #[test]
    fn round_trip_error_is_below_one_cycle() {
        for ns in [0.5, 1.0, 12.5, 50.0, 70.0, 123.456] {
            let c = ns_to_cycles(ns);
            let back = cycles_to_ns(c);
            assert!(back >= ns - 1e-9, "{back} < {ns}");
            assert!(back - ns < NS_PER_CYCLE + 1e-9);
        }
    }

    #[test]
    fn microseconds_and_fractional_cycles_share_the_clock() {
        assert_eq!(cycles_to_ns(2400), 1000.0);
        assert_eq!(cycles_to_us(2_400_000), 1000.0);
        assert_eq!(cycles_f64_to_ns(2.4), 1.0);
    }
}
