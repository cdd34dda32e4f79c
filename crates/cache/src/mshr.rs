//! Miss Status Holding Registers.
//!
//! Each core's L2 has a bounded MSHR file tracking its outstanding misses.
//! Secondary misses to a line already in flight merge onto the existing
//! entry; a full file back-pressures the core, which (together with the
//! ROB) bounds per-core memory-level parallelism.

use std::collections::HashMap;

/// Error returned when the MSHR file has no free entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrFull;

/// MSHR file mapping in-flight line addresses to an opaque transaction id.
#[derive(Debug, Clone)]
pub struct Mshr {
    /// Keyed lookup only — never iterated (clippy.toml disallowed-methods).
    entries: HashMap<u64, u32>,
    capacity: usize,
    /// High-water mark, for reporting.
    pub peak: usize,
}

impl Mshr {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { entries: HashMap::with_capacity(capacity), capacity, peak: 0 }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Transaction already in flight for this line, if any.
    #[inline]
    pub fn lookup(&self, line_addr: u64) -> Option<u32> {
        self.entries.get(&line_addr).copied()
    }

    /// Allocate an entry. Fails when full. Panics if the line is already
    /// tracked (callers must merge via [`Mshr::lookup`] first).
    pub fn allocate(&mut self, line_addr: u64, txn: u32) -> Result<(), MshrFull> {
        if self.is_full() {
            return Err(MshrFull);
        }
        let prev = self.entries.insert(line_addr, txn);
        assert!(prev.is_none(), "line {line_addr:#x} already has an MSHR");
        self.peak = self.peak.max(self.entries.len());
        Ok(())
    }

    /// Release the entry for a completed line.
    pub fn release(&mut self, line_addr: u64) {
        let removed = self.entries.remove(&line_addr);
        debug_assert!(removed.is_some(), "releasing untracked line {line_addr:#x}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_release_cycle() {
        let mut m = Mshr::new(4);
        m.allocate(100, 7).unwrap();
        assert_eq!(m.lookup(100), Some(7));
        assert_eq!(m.lookup(101), None);
        m.release(100);
        assert_eq!(m.lookup(100), None);
        assert!(m.is_empty());
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let mut m = Mshr::new(2);
        m.allocate(1, 0).unwrap();
        m.allocate(2, 1).unwrap();
        assert!(m.is_full());
        assert!(m.allocate(3, 2).is_err());
        m.release(1);
        assert!(m.allocate(3, 2).is_ok());
        assert_eq!(m.peak, 2);
    }

    #[test]
    #[should_panic(expected = "already has an MSHR")]
    fn double_allocate_panics() {
        let mut m = Mshr::new(4);
        m.allocate(5, 0).unwrap();
        let _ = m.allocate(5, 1);
    }
}
