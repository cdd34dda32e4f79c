//! Small statistics and host helpers shared by the workloads.

use coaxial_sim::{KeyHasher, SplitMix64};

/// Quantile `p` of `values` by linear interpolation between closest ranks
/// (the `numpy` default). `values` need not be sorted; empty gives 0.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = coaxial_sim::trunc_usize(pos.floor());
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; empty gives 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Each input's fastest repeat: `passes[k][j]` is input `j`'s latency in
/// pass `k`.
pub fn fastest_repeats(passes: &[Vec<f64>]) -> Vec<f64> {
    let inputs = passes.first().map_or(0, Vec::len);
    (0..inputs).map(|j| passes.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min)).collect()
}

/// A seed for input stream `stream`, draw `k`, derived from the run seed:
/// the same `--seed` always yields the same inputs, and distinct draws
/// never share a checkpoint key.
pub fn derive_seed(seed: u64, stream: u64, k: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ stream.rotate_left(32) ^ k.wrapping_mul(0x9E37_79B9));
    rng.next_u64()
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// FNV-1a-128 digest over a report's fields, taken through its `Debug`
/// rendering rather than the JSON codec, so a change to the wire format
/// cannot move it while any change to a simulated statistic does.
pub fn digest(report: &impl std::fmt::Debug) -> u128 {
    let mut h = KeyHasher::new("coaxial-perf/report/v1");
    h.write_str(&format!("{report:?}"));
    h.finish()
}

/// Fold an ordered list of digests into one.
pub fn digest_all(digests: &[u128]) -> u128 {
    let mut h = KeyHasher::new("coaxial-perf/reports/v1");
    for d in digests {
        h.write_bytes(&d.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fastest_repeats_take_each_inputs_minimum() {
        let passes = vec![vec![1.0, 9.0], vec![2.0, 4.0], vec![100.0, 5.0]];
        assert_eq!(fastest_repeats(&passes), vec![1.0, 4.0]);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 1, 2), derive_seed(7, 1, 2));
        assert_ne!(derive_seed(7, 1, 2), derive_seed(7, 1, 3));
        assert_ne!(derive_seed(7, 1, 2), derive_seed(7, 2, 2));
        assert_ne!(derive_seed(7, 1, 2), derive_seed(8, 1, 2));
    }
}
