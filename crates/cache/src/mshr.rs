//! Miss Status Holding Registers.
//!
//! Each core's L2 has a bounded MSHR file tracking its outstanding misses.
//! Secondary misses to a line already in flight merge onto the existing
//! entry; a full file back-pressures the core, which (together with the
//! ROB) bounds per-core memory-level parallelism.

/// MSHR file mapping in-flight line addresses to their transaction slot.
/// It holds at most `capacity` entries (16 in Table III), so a linear scan
/// is the whole lookup.
#[derive(Debug, Clone)]
pub(crate) struct Mshr {
    entries: Vec<(u64, u32)>,
    capacity: usize,
}

impl Mshr {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { entries: Vec::with_capacity(capacity), capacity }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Transaction already in flight for this line, if any.
    #[inline]
    pub(crate) fn lookup(&self, line_addr: u64) -> Option<u32> {
        self.entries.iter().find(|&&(line, _)| line == line_addr).map(|&(_, txn)| txn)
    }

    /// Allocate an entry. Panics if the file is full or the line is already
    /// tracked (callers check [`Mshr::is_full`] and merge via
    /// [`Mshr::lookup`] first).
    pub(crate) fn allocate(&mut self, line_addr: u64, txn: u32) {
        assert!(!self.is_full(), "MSHR file full");
        assert!(self.lookup(line_addr).is_none(), "line {line_addr:#x} already has an MSHR");
        self.entries.push((line_addr, txn));
    }

    /// Release the entry for a completed line.
    pub(crate) fn release(&mut self, line_addr: u64) {
        let at = self.entries.iter().position(|&(line, _)| line == line_addr);
        debug_assert!(at.is_some(), "releasing untracked line {line_addr:#x}");
        if let Some(at) = at {
            self.entries.swap_remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_release_cycle() {
        let mut m = Mshr::new(4);
        m.allocate(100, 7);
        assert_eq!(m.lookup(100), Some(7));
        assert_eq!(m.lookup(101), None);
        m.release(100);
        assert_eq!(m.lookup(100), None);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn fills_to_capacity_then_frees_on_release() {
        let mut m = Mshr::new(2);
        m.allocate(1, 0);
        m.allocate(2, 1);
        assert!(m.is_full());
        m.release(1);
        assert!(!m.is_full());
        m.allocate(3, 2);
        assert_eq!((m.lookup(2), m.lookup(3)), (Some(1), Some(2)));
    }

    #[test]
    #[should_panic(expected = "MSHR file full")]
    fn allocating_past_capacity_panics() {
        let mut m = Mshr::new(1);
        m.allocate(1, 0);
        m.allocate(2, 1);
    }

    #[test]
    #[should_panic(expected = "already has an MSHR")]
    fn double_allocate_panics() {
        let mut m = Mshr::new(4);
        m.allocate(5, 0);
        m.allocate(5, 1);
    }
}
