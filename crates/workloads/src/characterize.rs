//! Workload characterization: measure a generator's statistical profile
//! directly from its op stream (no simulation). Used to calibrate the
//! registry against Table IV and by the `coaxial profile` CLI command.

use std::collections::HashSet;

use coaxial_cpu::{MemKind, TraceSource};

use crate::registry::Workload;

/// Empirical profile of a trace stream.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    pub workload: String,
    /// Ops sampled.
    pub ops: u64,
    /// Instructions represented (ops + gaps).
    pub instructions: u64,
    /// Memory operations per kilo-instruction.
    pub density_per_ki: f64,
    /// Fraction of memory ops that are stores.
    pub write_frac: f64,
    /// Fraction of ops that depend on the previous load.
    pub dependent_frac: f64,
    /// Fraction of ops whose line is exactly the previous line + 1.
    pub sequential_frac: f64,
    /// Distinct lines touched in the sample.
    pub unique_lines: u64,
    /// Fraction of ops that re-touch a line already seen in the sample
    /// (a proxy for temporal locality).
    pub reuse_frac: f64,
}

/// Sample `n` ops from a workload's generator and profile them.
pub fn characterize(w: &Workload, core: u32, seed: u64, n: u64) -> TraceProfile {
    assert!(n > 0);
    let mut t = w.trace(core, seed);
    let mut instructions = 0u64;
    let mut stores = 0u64;
    let mut dependent = 0u64;
    let mut sequential = 0u64;
    let mut reuse = 0u64;
    let mut seen: HashSet<u64> = HashSet::new();
    let mut prev_line: Option<u64> = None;
    for _ in 0..n {
        let op = t.next_op();
        instructions += op.instructions();
        if op.kind == MemKind::Store {
            stores += 1;
        }
        if op.depends_on_last_load {
            dependent += 1;
        }
        if prev_line == Some(op.line_addr.wrapping_sub(1)) {
            sequential += 1;
        }
        prev_line = Some(op.line_addr);
        if !seen.insert(op.line_addr) {
            reuse += 1;
        }
    }
    TraceProfile {
        workload: w.name.to_string(),
        ops: n,
        instructions,
        density_per_ki: n as f64 * 1000.0 / instructions as f64,
        write_frac: stores as f64 / n as f64,
        dependent_frac: dependent as f64 / n as f64,
        sequential_frac: sequential as f64 / n as f64,
        unique_lines: seen.len() as u64,
        reuse_frac: reuse as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(name: &str) -> TraceProfile {
        characterize(Workload::by_name(name).unwrap(), 0, 42, 50_000)
    }

    #[test]
    fn stream_is_sequential_and_independent() {
        let p = profile("stream-copy");
        assert!(p.sequential_frac > 0.8, "streaming: seq = {}", p.sequential_frac);
        assert_eq!(p.dependent_frac, 0.0, "STREAM has no pointer chasing");
        assert!((p.write_frac - 0.5).abs() < 0.05, "copy is 1:1 ld:st");
    }

    #[test]
    fn masstree_chases_pointers() {
        let p = profile("masstree");
        // 5 of every 6 tree-walk steps depend on the previous load.
        assert!(p.dependent_frac > 0.7, "dep = {}", p.dependent_frac);
        assert!(p.sequential_frac < 0.1, "tree walks are not sequential");
    }

    #[test]
    fn density_tracks_registry_estimate() {
        // `density_per_ki()` is declared from the mean gap alone; graph
        // generators add gap-1 scatter stores on top, so allow a wider
        // band there.
        for (name, tol) in [("lbm", 0.15), ("pop2", 0.15), ("PageRank", 0.30), ("kmeans", 0.15)] {
            let w = Workload::by_name(name).unwrap();
            let p = characterize(w, 0, 7, 50_000);
            let expected = w.density_per_ki();
            let rel = (p.density_per_ki - expected).abs() / expected;
            assert!(rel < tol, "{name}: measured {} vs declared {expected}", p.density_per_ki);
        }
    }

    #[test]
    fn hot_workloads_reuse_lines() {
        let hot = profile("pop2"); // 88% hot-region accesses
        let cold = profile("stream-add"); // pure streaming
        assert!(
            hot.reuse_frac > cold.reuse_frac + 0.3,
            "pop2 reuse {} must far exceed stream {}",
            hot.reuse_frac,
            cold.reuse_frac
        );
    }

    #[test]
    fn mpki_intensity_ordering_is_visible_in_profiles() {
        // High-MPKI workloads touch more unique lines per instruction.
        let lbm = profile("lbm");
        let pop2 = profile("pop2");
        let lbm_rate = lbm.unique_lines as f64 / lbm.instructions as f64;
        let pop2_rate = pop2.unique_lines as f64 / pop2.instructions as f64;
        assert!(lbm_rate > 5.0 * pop2_rate, "lbm {lbm_rate} vs pop2 {pop2_rate}");
    }
}
