//! Flow descriptors the testbed executes.

use presto_simcore::SimTime;

/// Mice flow size used throughout the paper's latency experiments: 50 KB.
pub const MICE_FLOW_BYTES: u64 = 50 * 1000;

/// Mice are sent every 100 ms (§4).
pub const MICE_INTERVAL_MS: u64 = 100;

/// Flows below this are "mice" in the trace-driven analysis (§6).
pub const MICE_THRESHOLD_BYTES: u64 = 100 * 1000;

/// One flow the testbed should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Sending host index.
    pub src: usize,
    /// Receiving host index.
    pub dst: usize,
    /// When the flow starts.
    pub start: SimTime,
    /// Bytes to transfer; `None` = elephant running for the whole
    /// experiment.
    pub bytes: Option<u64>,
    /// Measure flow completion time (mice) rather than throughput.
    pub measure_fct: bool,
}

impl FlowSpec {
    /// An unbounded elephant starting at `start`.
    pub fn elephant(src: usize, dst: usize, start: SimTime) -> Self {
        FlowSpec {
            src,
            dst,
            start,
            bytes: None,
            measure_fct: false,
        }
    }

    /// A finite transfer whose FCT is measured.
    pub fn mouse(src: usize, dst: usize, start: SimTime, bytes: u64) -> Self {
        FlowSpec {
            src,
            dst,
            start,
            bytes: Some(bytes),
            measure_fct: true,
        }
    }

    /// A finite bulk transfer measured for throughput (shuffle chunks).
    pub fn bulk(src: usize, dst: usize, start: SimTime, bytes: u64) -> Self {
        FlowSpec {
            src,
            dst,
            start,
            bytes: Some(bytes),
            measure_fct: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flags() {
        let e = FlowSpec::elephant(0, 1, SimTime::ZERO);
        assert!(!e.measure_fct);

        let m = FlowSpec::mouse(0, 1, SimTime::ZERO, MICE_FLOW_BYTES);
        assert!(m.measure_fct);

        let b = FlowSpec::bulk(0, 1, SimTime::ZERO, 16 * 1024 * 1024);
        assert!(!b.measure_fct);
    }
}
