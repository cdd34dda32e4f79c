//! Memory request/response types shared by the DRAM and CXL models.

use coaxial_sim::Cycle;

/// Opaque request identifier assigned by the requester (cache hierarchy or
/// traffic generator); responses carry it back.
pub type ReqId = u64;

/// A 64 B line read or write presented to a memory backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    pub id: ReqId,
    /// Line address (byte address >> 6).
    pub line_addr: u64,
    pub is_write: bool,
    /// Cycle at which the requester handed the request to the backend.
    pub issued_at: Cycle,
}

impl MemRequest {
    pub fn read(id: ReqId, line_addr: u64, issued_at: Cycle) -> Self {
        Self { id, line_addr, is_write: false, issued_at }
    }

    pub fn write(id: ReqId, line_addr: u64, issued_at: Cycle) -> Self {
        Self { id, line_addr, is_write: true, issued_at }
    }
}

/// Completion record for a [`MemRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    pub id: ReqId,
    pub line_addr: u64,
    pub is_write: bool,
    /// Cycle the request entered the backend (copied from the request).
    pub issued_at: Cycle,
    /// Cycle the data transfer finished.
    pub completed_at: Cycle,
    /// Cycles spent waiting in controller queues before the first DRAM
    /// command was issued on the request's behalf.
    pub queue_cycles: Cycle,
    /// Cycles from first DRAM command to data completion (the "DRAM access
    /// time" component of the paper's latency breakdowns).
    pub service_cycles: Cycle,
    /// Extra cycles added by a CXL interface (0 for direct DDR attach).
    pub cxl_cycles: Cycle,
}

impl MemResponse {
    /// End-to-end latency observed by the requester.
    pub fn total_cycles(&self) -> Cycle {
        self.completed_at - self.issued_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let r = MemRequest::read(1, 100, 5);
        assert!(!r.is_write);
        let w = MemRequest::write(2, 200, 6);
        assert!(w.is_write);
    }

    #[test]
    fn total_latency_is_completion_minus_issue() {
        let resp = MemResponse {
            id: 1,
            line_addr: 0,
            is_write: false,
            issued_at: 100,
            completed_at: 250,
            queue_cycles: 60,
            service_cycles: 90,
            cxl_cycles: 0,
        };
        assert_eq!(resp.total_cycles(), 150);
        assert_eq!(resp.queue_cycles + resp.service_cycles, 150);
    }
}
