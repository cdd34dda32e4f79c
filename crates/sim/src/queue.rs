//! Bounded FIFO queue.
//!
//! Every buffering point in the memory system (DDR read/write queues, CXL
//! controller message queues, MSHR overflow paths) is a [`BoundedQueue`].
//! Back-pressure — a full queue refusing a new entry — is how queuing delay
//! propagates upstream, which is the central mechanism of the paper's
//! load-latency analysis (Fig. 2a).

use std::collections::VecDeque;

/// Fixed-capacity FIFO. Rejects pushes beyond capacity rather than growing,
/// so producers observe back-pressure.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self { items: VecDeque::with_capacity(capacity), capacity }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Push an item; returns it back on failure (queue full).
    #[inline]
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Iterate entries front-to-back (used by FR-FCFS scans).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Remove and return the element at `index` (FR-FCFS picks row hits out
    /// of order).
    pub fn remove(&mut self, index: usize) -> Option<T> {
        self.items.remove(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full() {
        let mut q = BoundedQueue::new(2);
        q.try_push('a').unwrap();
        q.try_push('b').unwrap();
        assert!(q.is_full());
        assert_eq!(q.try_push('c'), Err('c'));
        q.pop();
        assert!(q.try_push('c').is_ok());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn remove_out_of_order() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.remove(2), Some(2));
        assert_eq!(q.len(), 4);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![0, 1, 3, 4]);
    }
}
