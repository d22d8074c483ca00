//! Deadline accounting for partition-aggregate (incast) workloads.
//!
//! Each aggregation request must gather every worker's response within a
//! deadline; the tracker records per-request completion times against
//! that deadline and reports the miss count and fraction.

/// Accumulates request completion times and counts deadline misses.
#[derive(Debug, Default, Clone)]
pub struct DeadlineTracker {
    total: u64,
    misses: u64,
    elapsed_ms: Vec<f64>,
}

impl DeadlineTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request: `elapsed_ms` against `deadline_ms`.
    /// A request that takes strictly longer than its deadline is a miss.
    pub fn record(&mut self, elapsed_ms: f64, deadline_ms: f64) {
        self.total += 1;
        if elapsed_ms > deadline_ms {
            self.misses += 1;
        }
        self.elapsed_ms.push(elapsed_ms);
    }

    /// Requests recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Requests that blew their deadline.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Completion times in recording order, milliseconds.
    pub fn elapsed_ms(&self) -> &[f64] {
        &self.elapsed_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hits_and_misses() {
        let mut t = DeadlineTracker::new();
        t.record(5.0, 10.0);
        t.record(10.0, 10.0); // exactly on time is a hit
        t.record(10.001, 10.0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.misses(), 1);
        assert_eq!(t.elapsed_ms(), &[5.0, 10.0, 10.001]);
    }
}
