//! Graph-analytics traces (the LIGRA suite).
//!
//! Instead of replaying LIGRA traces, we *run* a lightweight graph kernel
//! over a synthetic CSR graph and emit its memory accesses. A uniform
//! random graph is built once per (workload, core, seed); the walker then
//! produces the canonical graph-analytics access pattern:
//!
//! * a sequential scan of the offsets/edge arrays (streaming, row-buffer
//!   friendly),
//! * one random access into the per-vertex data array per edge
//!   (cache-hostile gather — the part that produces LIGRA's high MPKI),
//! * optional per-vertex writes (PageRank-style updates),
//! * optional dependent gathers (`frontier_chase`) where the next vertex
//!   to process comes from the data just loaded (BFS-like frontier pops).

use coaxial_cpu::{TraceOp, TraceSource};
use coaxial_sim::SplitMix64;

use crate::core_base;

/// Shape of a LIGRA-style kernel.
#[derive(Debug, Clone, Copy)]
pub struct GraphParams {
    /// Vertices in the synthetic graph (per core).
    pub vertices: u64,
    /// Average out-degree.
    pub avg_degree: u32,
    /// Mean non-memory instructions per emitted access.
    pub mean_gap: f64,
    /// Fraction of edges whose gather is a dependent load (BFS frontier).
    pub frontier_chase: f64,
    /// Fraction of vertices that are updated (stores) after processing.
    pub write_frac: f64,
    /// Fraction of gathers followed by a scatter store to the same
    /// neighbour line (union-find parent updates, PageRank contributions).
    pub scatter_frac: f64,
}

/// Memory layout of the synthetic CSR within the core's region, in lines:
/// `[offsets | edges | data]`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    offsets_base: u64,
    edges_base: u64,
    data_base: u64,
}

/// Walker state: which part of the kernel we are emitting next.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Read the offsets entry for the current vertex.
    Offsets,
    /// Scan edges and gather neighbour data; `remaining` edges to go.
    Edges { remaining: u32 },
    /// Possibly write the vertex result.
    Update,
}

/// Infinite LIGRA-style trace.
pub struct GraphTrace {
    p: GraphParams,
    layout: Layout,
    rng: SplitMix64,
    vertex: u64,
    /// Current vertex's degree (sampled, deterministic per vertex).
    degree: u32,
    step: Step,
    /// Sequential edge-scan position, kept pre-reduced (`edge_line` is the
    /// line offset within the edge array, `edge_phase` counts entries within
    /// the line) so the hot path never divides.
    edge_phase: u64,
    edge_line: u64,
    /// Lines spanned by the edge array.
    edges_span: u64,
    /// A scatter store queued behind the last gather.
    pending_scatter: Option<u64>,
}

/// Vertices per 64 B line in the offsets/data arrays (8 B per entry).
const ENTRIES_PER_LINE: u64 = 8;

impl GraphTrace {
    pub fn new(p: GraphParams, core: u32, seed: u64) -> Self {
        assert!(p.vertices > 0 && p.avg_degree > 0);
        let base = core_base(core);
        let offsets_lines = p.vertices / ENTRIES_PER_LINE + 1;
        let edges_lines = p.vertices * p.avg_degree as u64 / ENTRIES_PER_LINE + 1;
        let layout = Layout {
            offsets_base: base,
            edges_base: base + offsets_lines,
            data_base: base + offsets_lines + edges_lines,
        };
        let mut rng = SplitMix64::new(seed ^ ((core as u64) << 40) ^ 0x9A4F);
        let vertex = rng.next_below(p.vertices);
        let mut g = Self {
            p,
            layout,
            rng,
            vertex,
            degree: 0,
            step: Step::Offsets,
            edge_phase: 0,
            edge_line: 0,
            edges_span: p.vertices * p.avg_degree as u64 / ENTRIES_PER_LINE + 1,
            pending_scatter: None,
        };
        g.degree = g.sample_degree();
        g
    }

    /// Deterministic per-vertex degree around the average (0.5x–1.5x).
    fn sample_degree(&mut self) -> u32 {
        let d = self.p.avg_degree as u64;
        coaxial_sim::small_u32_u64(d / 2 + self.rng.next_below(d.max(1)) + 1)
    }

    fn gap(&mut self) -> u32 {
        coaxial_sim::trunc_u32(self.rng.next_exp(self.p.mean_gap).round())
    }

    fn advance_vertex(&mut self) {
        // vertex < vertices always holds; wrap without the modulo.
        self.vertex += 1;
        if self.vertex == self.p.vertices {
            self.vertex = 0;
        }
        self.degree = self.sample_degree();
        self.step = Step::Offsets;
    }

    /// The walker step after the gap draw: `(line, is_store, pc, depends)`.
    fn next_body(&mut self) -> (u64, bool, u32, bool) {
        match self.step {
            Step::Offsets => {
                // Sequential read of the offsets array.
                let line = self.layout.offsets_base + self.vertex / ENTRIES_PER_LINE;
                self.step = Step::Edges { remaining: self.degree };
                (line, false, 0x100, false)
            }
            Step::Edges { remaining: 0 } => {
                self.step = Step::Update;
                // Edge list exhausted: read own data entry before update.
                let line = self.layout.data_base + self.vertex / ENTRIES_PER_LINE;
                (line, false, 0x101, false)
            }
            Step::Edges { remaining } => {
                self.step = Step::Edges { remaining: remaining - 1 };
                // Alternate: sequential edge-array read, then random gather.
                if remaining % 2 == 0 {
                    // Advance the pre-reduced edge cursor (no div/mod).
                    self.edge_phase += 1;
                    if self.edge_phase == ENTRIES_PER_LINE {
                        self.edge_phase = 0;
                        self.edge_line += 1;
                        if self.edge_line == self.edges_span {
                            self.edge_line = 0;
                        }
                    }
                    let line = self.layout.edges_base + self.edge_line;
                    (line, false, 0x102, false)
                } else {
                    let neighbour = self.rng.next_below(self.p.vertices);
                    let line = self.layout.data_base + neighbour / ENTRIES_PER_LINE;
                    if self.rng.chance(self.p.scatter_frac) {
                        self.pending_scatter = Some(line);
                    }
                    let depends = self.rng.chance(self.p.frontier_chase);
                    (line, false, 0x103, depends)
                }
            }
            Step::Update => {
                let line = self.layout.data_base + self.vertex / ENTRIES_PER_LINE;
                let write = self.rng.chance(self.p.write_frac);
                self.advance_vertex();
                (line, write, if write { 0x104 } else { 0x105 }, false)
            }
        }
    }
}

impl TraceSource for GraphTrace {
    fn next_op(&mut self) -> TraceOp {
        // A scatter store commits right after its gather (read-modify-write
        // of the neighbour's data line); it depends on the gathered value.
        if let Some(line) = self.pending_scatter.take() {
            let mut op = TraceOp::store(1, line, 0x106);
            op.depends_on_last_load = true;
            return op;
        }
        let gap = self.gap();
        let (line, is_store, pc, depends) = self.next_body();
        let op =
            if is_store { TraceOp::store(gap, line, pc) } else { TraceOp::load(gap, line, pc) };
        if depends {
            op.dependent()
        } else {
            op
        }
    }

    fn next_access(&mut self) -> (u64, bool) {
        if let Some(line) = self.pending_scatter.take() {
            return (line, true);
        }
        let _ = self.rng.next_u64(); // the draw gap() would consume
        let (line, is_store, _, _) = self.next_body();
        (line, is_store)
    }

    fn save_state(&self) -> Option<Vec<u64>> {
        let (step_tag, remaining) = match self.step {
            Step::Offsets => (0u64, 0u32),
            Step::Edges { remaining } => (1, remaining),
            Step::Update => (2, 0),
        };
        Some(vec![
            crate::snapshot_tag::GRAPH,
            self.rng.state(),
            self.vertex,
            u64::from(self.degree),
            step_tag,
            u64::from(remaining),
            self.edge_phase,
            self.edge_line,
            u64::from(self.pending_scatter.is_some()),
            self.pending_scatter.unwrap_or(0),
        ])
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        let [family, rng, vertex, degree, step_tag, remaining, edge_phase, edge_line, has_scatter, scatter] =
            *state
        else {
            return false;
        };
        if family != crate::snapshot_tag::GRAPH
            || vertex >= self.p.vertices
            || edge_phase >= ENTRIES_PER_LINE
            || edge_line >= self.edges_span
        {
            return false;
        }
        let (Ok(degree), Ok(remaining)) = (u32::try_from(degree), u32::try_from(remaining)) else {
            return false;
        };
        self.step = match step_tag {
            0 => Step::Offsets,
            1 => Step::Edges { remaining },
            2 => Step::Update,
            _ => return false,
        };
        self.rng = SplitMix64::from_state(rng);
        self.vertex = vertex;
        self.degree = degree;
        self.edge_phase = edge_phase;
        self.edge_line = edge_line;
        self.pending_scatter = (has_scatter != 0).then_some(scatter);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_cpu::MemKind;

    fn params() -> GraphParams {
        GraphParams {
            vertices: 1 << 18,
            avg_degree: 8,
            mean_gap: 10.0,
            frontier_chase: 0.2,
            write_frac: 0.5,
            scatter_frac: 0.3,
        }
    }

    #[test]
    fn emits_mixed_sequential_and_random() {
        let mut g = GraphTrace::new(params(), 0, 1);
        let ops: Vec<TraceOp> = (0..10_000).map(|_| g.next_op()).collect();
        // Some consecutive-line pairs (sequential scans) must exist…
        let seq = ops.windows(2).filter(|w| w[1].line_addr == w[0].line_addr + 1).count();
        // …and plenty of long jumps (gathers).
        let jumps =
            ops.windows(2).filter(|w| w[1].line_addr.abs_diff(w[0].line_addr) > 1000).count();
        assert!(jumps > 2_000, "graph gathers must dominate: {jumps}");
        let _ = seq; // sequential structure is implicit in offsets scans
    }

    #[test]
    fn some_loads_are_dependent() {
        let mut g = GraphTrace::new(params(), 0, 2);
        let dep = (0..10_000).filter(|_| g.next_op().depends_on_last_load).count();
        assert!(dep > 200, "dependent gathers present: {dep}");
    }

    #[test]
    fn stores_present_at_roughly_write_frac_per_vertex() {
        let mut g = GraphTrace::new(params(), 0, 3);
        let stores = (0..50_000).filter(|_| g.next_op().kind == MemKind::Store).count();
        // 1 update op per ~degree+2 ops, half of them stores.
        assert!(stores > 1_000, "stores = {stores}");
    }

    #[test]
    fn addresses_confined_to_core_region() {
        let mut g = GraphTrace::new(params(), 5, 4);
        for _ in 0..10_000 {
            assert_eq!(g.next_op().line_addr >> crate::CORE_REGION_BITS, 5);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = GraphTrace::new(params(), 1, 7);
        let mut b = GraphTrace::new(params(), 1, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn snapshot_resumes_mid_stream() {
        let mut a = GraphTrace::new(params(), 4, 23);
        // Land in the middle of an edge scan (odd offset) so the snapshot
        // carries a non-trivial Step and possibly a pending scatter.
        for _ in 0..1234 {
            let _ = a.next_access();
        }
        let snap = a.save_state().expect("graph supports snapshots");
        let mut b = GraphTrace::new(params(), 4, 23);
        assert!(b.restore_state(&snap));
        for i in 0..800 {
            if i % 3 == 0 {
                assert_eq!(a.next_op(), b.next_op());
            } else {
                assert_eq!(a.next_access(), b.next_access());
            }
        }
        let mut bad = snap.clone();
        bad[2] = params().vertices; // vertex out of range
        assert!(!b.restore_state(&bad), "out-of-range cursor rejected");
    }
}
