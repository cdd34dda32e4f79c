//! The 36 evaluated workloads (paper Table IV), with the paper's measured
//! baseline IPC and LLC MPKI recorded as calibration reference points.
//!
//! Parameters were chosen so that each workload's *class* is faithful:
//! memory-op density tracks the paper's MPKI, write fractions track its
//! R:W analysis (Fig. 9), pointer-chase fractions reflect known workload
//! behaviour (mcf/omnetpp/canneal/masstree chase pointers; STREAM does
//! not), and STREAM/lbm are bursty, bandwidth-saturating streams.
//! Absolute IPC need not match the paper (different core model); the
//! *relationships* — who is bandwidth-bound, who is latency-bound, who is
//! cache-resident — are what the experiments depend on.

use std::sync::OnceLock;

use coaxial_cpu::TraceSource;

use crate::graph::{GraphParams, GraphTrace};
use crate::synthetic::{SyntheticParams, SyntheticTrace};
use crate::tree::{TreeParams, TreeTrace};

/// Benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    Spec,
    Ligra,
    Stream,
    Parsec,
    Kvs,
}

/// Generator family + parameters.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Synthetic(SyntheticParams),
    Graph(GraphParams),
    Tree(TreeParams),
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub suite: Suite,
    /// Paper Table IV baseline IPC (reference, not a target to match).
    pub paper_ipc: f64,
    /// Paper Table IV baseline LLC MPKI.
    pub paper_mpki: u32,
    kind: Kind,
}

/// Mean gap for a density of `d` memory ops per kilo-instruction.
const fn gap(d: f64) -> f64 {
    1000.0 / d - 1.0
}

/// Convenience constructor for SPEC/PARSEC-style parameter sets.
#[allow(clippy::too_many_arguments)]
const fn synth(
    name: &'static str,
    suite: Suite,
    ipc: f64,
    mpki: u32,
    density: f64,
    footprint_lines: u64,
    spatial: f64,
    hot_frac: f64,
    hot_lines: u64,
    write_frac: f64,
    pointer_chase: f64,
    burstiness: f64,
) -> Workload {
    Workload {
        name,
        suite,
        paper_ipc: ipc,
        paper_mpki: mpki,
        kind: Kind::Synthetic(SyntheticParams {
            mean_gap: gap(density),
            footprint_lines,
            spatial,
            hot_frac,
            hot_lines,
            write_frac,
            pointer_chase,
            burstiness,
        }),
    }
}

#[allow(clippy::too_many_arguments)]
const fn ligra(
    name: &'static str,
    ipc: f64,
    mpki: u32,
    vertices: u64,
    avg_degree: u32,
    mean_gap: f64,
    frontier_chase: f64,
    write_frac: f64,
    scatter_frac: f64,
) -> Workload {
    Workload {
        name,
        suite: Suite::Ligra,
        paper_ipc: ipc,
        paper_mpki: mpki,
        kind: Kind::Graph(GraphParams {
            vertices,
            avg_degree,
            mean_gap,
            frontier_chase,
            write_frac,
            scatter_frac,
        }),
    }
}

const MB128: u64 = 1 << 21; // lines
const MB64: u64 = 1 << 20;
const MB32: u64 = 1 << 19;

fn build_all() -> Vec<Workload> {
    use Suite::*;
    vec![
        // ── SPEC-speed 2017 ────────────────────────────────────────────
        synth("lbm", Spec, 0.14, 64, 75.0, MB128, 0.90, 0.10, 1 << 10, 0.35, 0.05, 0.05),
        synth("bwaves", Spec, 0.33, 14, 20.0, MB64, 0.80, 0.25, 1 << 11, 0.25, 0.10, 0.03),
        synth("cactusBSSN", Spec, 0.68, 8, 12.0, MB64, 0.70, 0.30, 1 << 11, 0.20, 0.10, 0.04),
        synth("fotonik3d", Spec, 0.32, 22, 26.0, MB64, 0.85, 0.15, 1 << 10, 0.30, 0.05, 0.03),
        synth("cam4", Spec, 0.87, 6, 10.0, MB32, 0.60, 0.40, 1 << 11, 0.45, 0.10, 0.02),
        synth("wrf", Spec, 0.61, 11, 14.0, MB64, 0.75, 0.20, 1 << 11, 0.30, 0.10, 0.02),
        synth("mcf", Spec, 0.79, 13, 22.0, MB128, 0.20, 0.40, 1 << 12, 0.15, 0.45, 0.02),
        synth("roms", Spec, 0.77, 6, 9.0, MB64, 0.80, 0.35, 1 << 11, 0.30, 0.05, 0.02),
        synth("pop2", Spec, 1.50, 3, 25.0, MB32, 0.60, 0.88, 1 << 12, 0.25, 0.05, 0.01),
        synth("omnetpp", Spec, 0.50, 10, 18.0, MB32, 0.30, 0.45, 1 << 12, 0.25, 0.30, 0.02),
        synth("xalancbmk", Spec, 0.50, 12, 20.0, 32 << 10, 0.40, 0.45, 1 << 11, 0.20, 0.20, 0.02),
        synth("gcc", Spec, 0.27, 19, 30.0, MB32, 0.25, 0.35, 1 << 11, 0.20, 0.65, 0.01),
        // ── LIGRA graph analytics ──────────────────────────────────────
        ligra("PageRank", 0.36, 40, 1 << 21, 12, 10.0, 0.10, 0.80, 0.45),
        ligra("PageRankDelta", 0.30, 27, 1 << 20, 10, 16.0, 0.10, 0.60, 0.40),
        ligra("Components", 0.36, 48, 1 << 21, 14, 8.5, 0.10, 0.50, 0.40),
        ligra("Comp-shortcut", 0.34, 48, 1 << 21, 14, 8.5, 0.15, 0.50, 0.40),
        ligra("BC", 0.33, 34, 1 << 21, 10, 12.0, 0.15, 0.40, 0.30),
        ligra("Radii", 0.41, 33, 1 << 21, 10, 12.5, 0.10, 0.40, 0.30),
        ligra("CF", 0.80, 12, 1 << 18, 16, 18.0, 0.05, 0.50, 0.30),
        ligra("BFSCC", 0.65, 17, 1 << 20, 8, 24.0, 0.25, 0.30, 0.20),
        ligra("BellmanFord", 0.82, 9, 1 << 19, 10, 40.0, 0.10, 0.40, 0.30),
        ligra("BFS", 0.66, 15, 1 << 20, 8, 28.0, 0.30, 0.30, 0.15),
        ligra("BFS-Bitvector", 0.84, 15, 1 << 20, 8, 28.0, 0.20, 0.20, 0.15),
        ligra("Triangle", 0.61, 21, 1 << 20, 12, 20.0, 0.05, 0.10, 0.05),
        ligra("MIS", 0.50, 25, 1 << 20, 12, 17.0, 0.15, 0.40, 0.30),
        // ── STREAM kernels ─────────────────────────────────────────────
        synth("stream-copy", Stream, 0.17, 58, 60.0, MB128, 0.98, 0.02, 64, 0.50, 0.0, 0.02),
        synth("stream-scale", Stream, 0.21, 48, 50.0, MB128, 0.98, 0.02, 64, 0.50, 0.0, 0.02),
        synth("stream-add", Stream, 0.16, 69, 71.0, MB128, 0.98, 0.02, 64, 0.33, 0.0, 0.02),
        synth("stream-triad", Stream, 0.18, 59, 61.0, MB128, 0.98, 0.02, 64, 0.33, 0.0, 0.02),
        // ── PARSEC ─────────────────────────────────────────────────────
        synth("fluidanimate", Parsec, 0.73, 7, 11.0, MB64, 0.70, 0.35, 1 << 11, 0.30, 0.10, 0.02),
        synth("facesim", Parsec, 0.74, 6, 9.0, MB64, 0.75, 0.30, 1 << 11, 0.30, 0.05, 0.02),
        synth("raytrace", Parsec, 1.10, 5, 8.0, MB32, 0.40, 0.45, 1 << 12, 0.10, 0.20, 0.01),
        synth("streamcluster", Parsec, 0.95, 14, 16.0, MB64, 0.90, 0.12, 1 << 10, 0.05, 0.0, 0.02),
        synth("canneal", Parsec, 0.61, 7, 11.0, MB64, 0.20, 0.40, 1 << 12, 0.15, 0.30, 0.02),
        // ── KVS & data analytics ───────────────────────────────────────
        Workload {
            name: "masstree",
            suite: Kvs,
            paper_ipc: 0.37,
            paper_mpki: 21,
            kind: Kind::Tree(TreeParams {
                depth: 6,
                leaf_lines: 1 << 22,
                interior_base: 64,
                mean_gap: 7.0,
                update_frac: 0.15,
            }),
        },
        synth("kmeans", Kvs, 0.50, 36, 55.0, MB128, 0.95, 0.30, 1 << 10, 0.06, 0.0, 0.02),
    ]
}

static ALL: OnceLock<Vec<Workload>> = OnceLock::new();

impl Workload {
    /// All 36 workloads, in the paper's Table IV order (by suite).
    pub fn all() -> &'static [Workload] {
        ALL.get_or_init(build_all)
    }

    /// Look up a workload by its (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        Self::all().iter().find(|w| w.name.eq_ignore_ascii_case(name))
    }

    /// Workloads belonging to one suite.
    pub fn suite(suite: Suite) -> impl Iterator<Item = &'static Workload> {
        Self::all().iter().filter(move |w| w.suite == suite)
    }

    /// Build the trace stream for one core. Distinct `(core, seed)` pairs
    /// give decorrelated but deterministic streams. The box is `Send` so
    /// drivers can park partially-consumed generators in shared caches.
    pub fn trace(&self, core: u32, seed: u64) -> Box<dyn TraceSource + Send> {
        match self.kind {
            Kind::Synthetic(p) => Box::new(SyntheticTrace::new(p, core, seed)),
            Kind::Graph(p) => Box::new(GraphTrace::new(p, core, seed)),
            Kind::Tree(p) => Box::new(TreeTrace::new(p, core, seed)),
        }
    }

    /// Approximate memory-operation density (ops per kilo-instruction) —
    /// used by reports, not by the generators themselves.
    pub fn density_per_ki(&self) -> f64 {
        match self.kind {
            Kind::Synthetic(p) => 1000.0 / (p.mean_gap + 1.0),
            Kind::Graph(p) => 1000.0 / (p.mean_gap + 1.0),
            Kind::Tree(p) => 1000.0 / (p.mean_gap + 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_36_workloads() {
        assert_eq!(Workload::all().len(), 36);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Workload::all().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 36);
    }

    #[test]
    fn suite_counts_match_the_paper() {
        assert_eq!(Workload::suite(Suite::Spec).count(), 12);
        assert_eq!(Workload::suite(Suite::Ligra).count(), 13);
        assert_eq!(Workload::suite(Suite::Stream).count(), 4);
        assert_eq!(Workload::suite(Suite::Parsec).count(), 5);
        assert_eq!(Workload::suite(Suite::Kvs).count(), 2);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(Workload::by_name("LBM").is_some());
        assert!(Workload::by_name("Stream-Copy").is_some());
        assert!(Workload::by_name("nonexistent").is_none());
    }

    #[test]
    fn every_workload_yields_a_trace() {
        for w in Workload::all() {
            let mut t = w.trace(0, 42);
            for _ in 0..100 {
                let op = t.next_op();
                assert!(op.instructions() >= 1);
            }
        }
    }

    #[test]
    fn densities_track_paper_mpki_ordering_loosely() {
        // Highest-MPKI workload should be denser than the lowest-MPKI one.
        let lbm = Workload::by_name("lbm").unwrap();
        let pop2 = Workload::by_name("pop2").unwrap();
        assert!(lbm.density_per_ki() > pop2.density_per_ki());
    }

    #[test]
    fn paper_reference_points_recorded() {
        let lbm = Workload::by_name("lbm").unwrap();
        assert_eq!(lbm.paper_mpki, 64);
        assert!((lbm.paper_ipc - 0.14).abs() < 1e-9);
    }
}
