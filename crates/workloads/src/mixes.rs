//! Random workload mixes (paper Fig. 6).
//!
//! Each mix assigns 12 workloads, sampled uniformly at random from the 36,
//! one to each core of the simulated 12-core slice.

use coaxial_sim::SplitMix64;

use crate::registry::Workload;

/// Number of mixes evaluated in the paper.
pub const PAPER_MIX_COUNT: usize = 10;

/// Sample one mix of `cores` workloads, deterministic per `mix_id`.
pub fn mix(mix_id: u64, cores: usize) -> Vec<&'static Workload> {
    let all = Workload::all();
    let mut rng = SplitMix64::new(0x4D31_5800_u64 ^ mix_id.wrapping_mul(0x9E37_79B9));
    (0..cores).map(|_| &all[coaxial_sim::idx(rng.next_below(all.len() as u64))]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_have_requested_size() {
        assert_eq!(mix(0, 12).len(), 12);
        assert_eq!(mix(3, 4).len(), 4);
    }

    #[test]
    fn mixes_are_deterministic() {
        let a: Vec<&str> = mix(5, 12).iter().map(|w| w.name).collect();
        let b: Vec<&str> = mix(5, 12).iter().map(|w| w.name).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_mixes_differ() {
        let a: Vec<&str> = mix(0, 12).iter().map(|w| w.name).collect();
        let b: Vec<&str> = mix(1, 12).iter().map(|w| w.name).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mixes_draw_from_multiple_suites() {
        // Across the 10 paper mixes, at least 20 distinct workloads appear.
        let mut seen = std::collections::BTreeSet::new();
        for m in 0..PAPER_MIX_COUNT as u64 {
            for w in mix(m, 12) {
                seen.insert(w.name);
            }
        }
        assert!(seen.len() >= 20, "only {} distinct workloads drawn", seen.len());
    }
}
