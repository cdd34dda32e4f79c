//! Deterministic pseudo-random number generation.
//!
//! All stochastic behaviour in the simulator (workload address streams,
//! CALM probabilistic decisions, arrival processes) draws from
//! [`SplitMix64`], a tiny, fast, well-distributed generator. A fixed seed
//! makes every (workload, configuration) run bit-reproducible, which the
//! test suite and the paper-reproduction benches rely on.

/// SplitMix64 PRNG (Steele, Lea & Flood; public-domain reference algorithm).
///
/// Passes BigCrush when used as a 64-bit stream; more than adequate for
/// driving workload generators and Bernoulli decisions.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Distinct seeds give independent
    /// streams for practical purposes.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self {
            // Avoid the all-zero fixed point pitfall of weaker mixers by
            // pre-advancing once.
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses the widening-multiply technique (Lemire); the modulo bias is at
    /// most 2⁻⁶⁴·bound, irrelevant at simulation scales.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Sample an exponential inter-arrival gap with the given mean, in the
    /// same unit as `mean`. Used for Poisson arrival processes (Fig. 2a).
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // Inverse-CDF; guard against ln(0).
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// A seeded corruption of `bytes` for decoder fuzz tests: one to three
    /// edits, each a truncation, a bit flip, an inserted random word, or an
    /// overwrite with a length-like word (0, 3, 2^40, `u64::MAX`).
    pub fn corrupt(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut b = bytes.to_vec();
        for _ in 0..=self.next_below(3) {
            let at = crate::idx(self.next_below(b.len() as u64 + 1));
            match self.next_below(4) {
                0 => b.truncate(at),
                1 => {
                    if let Some(x) = b.get_mut(at) {
                        *x ^= 1 << self.next_below(8);
                    }
                }
                2 => {
                    let w = self.next_u64().to_le_bytes();
                    b.splice(at..at, w);
                }
                _ => {
                    let w = [0, 3, 1 << 40, u64::MAX][crate::idx(self.next_below(4))];
                    let end = (at + 8).min(b.len());
                    b.splice(at..end, u64::to_le_bytes(w));
                }
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn mean_of_uniform_is_near_half() {
        let mut rng = SplitMix64::new(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SplitMix64::new(13);
        let n = 100_000;
        let target = 37.5;
        let sum: f64 = (0..n).map(|_| rng.next_exp(target)).sum();
        let mean = sum / n as f64;
        assert!((mean - target).abs() / target < 0.03, "mean = {mean}");
    }

    #[test]
    fn chance_frequency_tracks_probability() {
        let mut rng = SplitMix64::new(17);
        let n = 100_000u32;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count() as f64;
        let freq = hits / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq = {freq}");
    }
}
