//! Compressed instruction-trace format.
//!
//! A workload is an infinite stream of [`TraceOp`]s. Each op stands for
//! `nonmem_before` ordinary instructions followed by one memory
//! instruction. This is the same information content ChampSim traces carry
//! after decoding, minus registers — dependencies are summarized by the
//! `depends_on_last_load` bit (true for pointer-chasing loads, which is
//! the dependency pattern that matters for MLP).

/// Memory operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    Load,
    Store,
}

/// One compressed trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions preceding this memory operation.
    pub nonmem_before: u32,
    pub kind: MemKind,
    /// 64 B line address (byte address >> 6).
    pub line_addr: u64,
    /// Program counter of the memory instruction (feeds MAP-I).
    pub pc: u32,
    /// This operation consumes the most recent prior load's result and
    /// cannot issue before it completes (pointer chasing).
    pub depends_on_last_load: bool,
}

impl TraceOp {
    /// Instructions this record accounts for (the gap plus the op itself).
    pub fn instructions(&self) -> u64 {
        self.nonmem_before as u64 + 1
    }

    pub fn load(gap: u32, line_addr: u64, pc: u32) -> Self {
        Self { nonmem_before: gap, kind: MemKind::Load, line_addr, pc, depends_on_last_load: false }
    }

    pub fn store(gap: u32, line_addr: u64, pc: u32) -> Self {
        Self {
            nonmem_before: gap,
            kind: MemKind::Store,
            line_addr,
            pc,
            depends_on_last_load: false,
        }
    }

    pub fn dependent(mut self) -> Self {
        self.depends_on_last_load = true;
        self
    }
}

/// An infinite source of trace records (one per core).
pub trait TraceSource {
    fn next_op(&mut self) -> TraceOp;

    /// The next op reduced to `(line address, is-store)`, advancing the
    /// generator state exactly as [`TraceSource::next_op`] would.
    ///
    /// The functional cache prefill discards everything except the address
    /// and the store bit, so generators whose gap sampling is expensive
    /// (exponential inter-arrival draws go through `ln`/`round`) override
    /// this to consume the same random draws while skipping that math. An
    /// override MUST leave the generator in the state `next_op` would have
    /// — the two are interchangeable call-for-call.
    fn next_access(&mut self) -> (u64, bool) {
        let op = self.next_op();
        (op.line_addr, op.kind == MemKind::Store)
    }
}

/// Advance a trace source functionally by at least `instructions`
/// instructions, feeding each memory access to `sink` as
/// `(line address, is-store)`. No timing model is involved — this is the
/// fast-forward half of SMARTS-style interval sampling, driving the same
/// functional cache path the prefill machinery uses.
///
/// Returns the number of instructions actually consumed. The count can
/// overshoot `instructions` by up to one op's `nonmem_before` gap because
/// trace records are consumed whole; callers needing exact accounting use
/// the return value. `instructions == 0` consumes nothing.
pub fn functional_advance(
    src: &mut dyn TraceSource,
    instructions: u64,
    mut sink: impl FnMut(u64, bool),
) -> u64 {
    let mut done = 0u64;
    while done < instructions {
        let op = src.next_op();
        done += op.instructions();
        sink(op.line_addr, op.kind == MemKind::Store);
    }
    done
}

/// A trace that replays a fixed vector of records forever. Mostly useful
/// in tests and microbenchmarks.
#[derive(Debug, Clone)]
pub struct VecTrace {
    ops: Vec<TraceOp>,
    pos: usize,
}

impl VecTrace {
    pub fn new(ops: Vec<TraceOp>) -> Self {
        assert!(!ops.is_empty(), "trace must contain at least one op");
        Self { ops, pos: 0 }
    }
}

impl TraceSource for VecTrace {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_op(&mut self) -> TraceOp {
        (**self).next_op()
    }

    fn next_access(&mut self) -> (u64, bool) {
        (**self).next_access()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_accounting() {
        let op = TraceOp::load(9, 100, 1);
        assert_eq!(op.instructions(), 10);
        assert_eq!(TraceOp::store(0, 5, 2).instructions(), 1);
    }

    #[test]
    fn vec_trace_wraps_around() {
        let mut t = VecTrace::new(vec![TraceOp::load(0, 1, 1), TraceOp::load(0, 2, 1)]);
        assert_eq!(t.next_op().line_addr, 1);
        assert_eq!(t.next_op().line_addr, 2);
        assert_eq!(t.next_op().line_addr, 1);
    }

    #[test]
    fn dependent_flag_builder() {
        let op = TraceOp::load(3, 7, 9).dependent();
        assert!(op.depends_on_last_load);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_vec_trace_panics() {
        let _ = VecTrace::new(vec![]);
    }
}
