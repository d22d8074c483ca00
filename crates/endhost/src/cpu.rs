//! Receiver CPU cost model.
//!
//! The paper's central computational observation (§2.2): receive-side cost
//! is dominated by *per-segment* work — buffer management and stack
//! traversal — not per-byte copies. GRO exists to amortize that cost over
//! 64 KB merges; reordering defeats GRO and floods the stack with
//! MTU-sized segments, saturating a core near 5 Gbps ("small segment
//! flooding").
//!
//! [`CpuModel`] charges three calibrated costs per pushed-up segment:
//!
//! * `per_packet` for every raw packet merged into it (driver + GRO merge),
//! * `per_segment` for the push up the stack (the dominant term),
//! * `per_byte` for copies/checksums.
//!
//! With the defaults below, a receiver processing 64 KB segments at
//! 9.3 Gbps sits near 55% utilization while MTU-sized segments saturate
//! the core at ≈4.9 Gbps — matching the shape of the paper's §5 numbers
//! (9.3 Gbps @ 69% for Presto GRO vs 4.6 Gbps @ 86% for reordered stock
//! GRO). The receiver is modeled as one core, as in the paper's
//! single-queue experiments.

use presto_simcore::{SimDuration, SimTime};

use crate::offload::Segment;

/// Calibrated cost constants.
#[derive(Debug, Clone, Copy)]
pub struct CpuCosts {
    /// Driver + GRO merge work per raw packet.
    pub per_packet: SimDuration,
    /// Stack traversal per segment pushed up (dominant, per Menon's and
    /// the paper's analysis).
    pub per_segment: SimDuration,
    /// Copy/checksum cost per payload byte, in nanoseconds.
    pub per_byte_ns: f64,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            per_packet: SimDuration::from_nanos(150),
            per_segment: SimDuration::from_nanos(1800),
            per_byte_ns: 0.3,
        }
    }
}

impl CpuCosts {
    /// Total processing cost of one pushed-up segment.
    pub fn segment_cost(&self, seg: &Segment) -> SimDuration {
        let pkt = self.per_packet.saturating_mul(seg.packets as u64);
        let bytes = SimDuration::from_nanos((seg.len as f64 * self.per_byte_ns).round() as u64);
        pkt + self.per_segment + bytes
    }
}

/// A single receive core processing segments in FIFO order.
#[derive(Debug)]
pub struct CpuModel {
    /// The cost constants in force.
    pub costs: CpuCosts,
    /// Extra per-packet work charged by the offload engine in use —
    /// Presto's GRO pays a little more bookkeeping per packet (the paper
    /// measures +6% CPU overall at line rate, Fig 6).
    pub per_packet_extra: SimDuration,
    busy_until: SimTime,
    busy_total: SimDuration,
    segments_processed: u64,
    packets_processed: u64,
}

impl CpuModel {
    /// A fresh, idle core.
    pub fn new(costs: CpuCosts) -> Self {
        CpuModel {
            costs,
            per_packet_extra: SimDuration::ZERO,
            busy_until: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
            segments_processed: 0,
            packets_processed: 0,
        }
    }

    /// Process a batch of segments arriving at `now`, appending each
    /// segment and the time its processing completes (when TCP sees it)
    /// to `out`. Buffer-reusing hot-path variant.
    pub fn process_into(
        &mut self,
        now: SimTime,
        segments: &[Segment],
        out: &mut Vec<(SimTime, Segment)>,
    ) {
        out.reserve(segments.len());
        for &seg in segments {
            let cost = self.costs.segment_cost(&seg)
                + self.per_packet_extra.saturating_mul(seg.packets as u64);
            let start = if self.busy_until > now {
                self.busy_until
            } else {
                now
            };
            let done = start + cost;
            self.busy_until = done;
            self.busy_total += cost;
            self.segments_processed += 1;
            self.packets_processed += seg.packets as u64;
            out.push((done, seg));
        }
    }

    /// Allocating convenience wrapper over [`CpuModel::process_into`].
    pub fn process(&mut self, now: SimTime, segments: Vec<Segment>) -> Vec<(SimTime, Segment)> {
        let mut out = Vec::with_capacity(segments.len());
        self.process_into(now, &segments, &mut out);
        out
    }

    /// Charge miscellaneous work (ACK processing, probe echo) without a
    /// segment attached; returns its completion time.
    pub fn charge(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let done = start + cost;
        self.busy_until = done;
        self.busy_total += cost;
        done
    }

    /// Cumulative busy time — callers snapshot this to compute utilization
    /// over windows (Fig 6 samples every 2 s).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Instant the core goes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Current backlog relative to `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Segments pushed up so far.
    pub fn segments_processed(&self) -> u64 {
        self.segments_processed
    }

    /// Raw packets accounted so far.
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_netsim::{FlowKey, HostId};

    fn seg(len: u32, packets: u32) -> Segment {
        Segment {
            flow: FlowKey::new(HostId(0), HostId(1), 1, 2),
            seq: 0,
            len,
            packets,
            flowcell: 0,
            retx: false,
            ce: false,
        }
    }

    #[test]
    fn segment_cost_components() {
        let c = CpuCosts::default();
        let cost = c.segment_cost(&seg(1460, 1));
        // 150 + 1800 + 438 = 2388 ns.
        assert_eq!(cost.as_nanos(), 150 + 1800 + 438);
        let big = c.segment_cost(&seg(65536, 45));
        // 45*150 + 1800 + 19661 = 28211 ns.
        assert_eq!(big.as_nanos(), 45 * 150 + 1800 + 19661);
    }

    #[test]
    fn big_segments_amortize_cost() {
        let c = CpuCosts::default();
        let small_per_byte = c.segment_cost(&seg(1460, 1)).as_nanos() as f64 / 1460.0;
        let big_per_byte = c.segment_cost(&seg(65536, 45)).as_nanos() as f64 / 65536.0;
        assert!(
            small_per_byte > 3.0 * big_per_byte,
            "per-byte cost should collapse with merging: {small_per_byte} vs {big_per_byte}"
        );
    }

    #[test]
    fn saturation_matches_paper_shape() {
        // The rate at which a steady stream of segments pins one core.
        let c = CpuCosts::default();
        let gbps = |bytes: u32, packets: u32| {
            bytes as f64 * 8.0 / c.segment_cost(&seg(bytes, packets)).as_nanos() as f64
        };
        // MTU segments: core saturates near 5 Gbps (paper: 4.6-5.7 Gbps).
        let mtu_gbps = gbps(1460, 1);
        assert!(
            (4.0..6.5).contains(&mtu_gbps),
            "MTU saturation {mtu_gbps} Gbps"
        );
        // 64 KB segments: ceiling far above 10 Gbps line rate.
        let big_gbps = gbps(65536, 45);
        assert!(big_gbps > 15.0, "64KB saturation {big_gbps} Gbps");
    }

    #[test]
    fn utilization_at_line_rate_is_moderate() {
        // 9.3 Gbps of 64 KB segments should cost ~50-70% of one core.
        let c = CpuCosts::default();
        let bytes_per_sec = 9.3e9 / 8.0;
        let segs_per_sec = bytes_per_sec / 65536.0;
        let cost = c.segment_cost(&seg(65536, 45));
        let util = segs_per_sec * cost.as_secs_f64();
        assert!((0.40..0.75).contains(&util), "utilization {util}");
    }

    #[test]
    fn fifo_processing_backs_up() {
        let mut cpu = CpuModel::new(CpuCosts::default());
        let now = SimTime::from_micros(10);
        let out = cpu.process(now, vec![seg(1460, 1), seg(1460, 1)]);
        let c = CpuCosts::default().segment_cost(&seg(1460, 1));
        assert_eq!(out[0].0, now + c);
        assert_eq!(out[1].0, now + c + c);
        assert_eq!(cpu.busy_total(), c + c);
        assert_eq!(cpu.segments_processed(), 2);
    }

    #[test]
    fn idle_gaps_do_not_accumulate_busy_time() {
        let mut cpu = CpuModel::new(CpuCosts::default());
        cpu.process(SimTime::from_micros(0), vec![seg(100, 1)]);
        // Long idle gap, then more work: busy_total counts only work.
        cpu.process(SimTime::from_millis(5), vec![seg(100, 1)]);
        let one = CpuCosts::default().segment_cost(&seg(100, 1));
        assert_eq!(cpu.busy_total(), one + one);
        assert!(cpu.backlog(SimTime::from_millis(10)) == SimDuration::ZERO);
    }

    #[test]
    fn engine_extra_charges_per_packet() {
        let mut base = CpuModel::new(CpuCosts::default());
        let mut presto = CpuModel::new(CpuCosts::default());
        presto.per_packet_extra = SimDuration::from_nanos(75);
        base.process(SimTime::ZERO, vec![seg(65536, 45)]);
        presto.process(SimTime::ZERO, vec![seg(65536, 45)]);
        let delta = presto.busy_total() - base.busy_total();
        assert_eq!(delta.as_nanos(), 45 * 75);
    }

    #[test]
    fn backlog_reflects_pending_work() {
        let mut cpu = CpuModel::new(CpuCosts::default());
        let now = SimTime::from_micros(100);
        cpu.process(now, vec![seg(65536, 45); 10]);
        assert!(cpu.backlog(now) > SimDuration::from_micros(200));
        // After the busy period, the backlog vanishes.
        assert_eq!(cpu.backlog(cpu.busy_until()), SimDuration::ZERO);
    }

    #[test]
    fn charge_misc_work() {
        let mut cpu = CpuModel::new(CpuCosts::default());
        let done = cpu.charge(SimTime::ZERO, SimDuration::from_nanos(500));
        assert_eq!(done, SimTime::from_nanos(500));
        assert_eq!(cpu.busy_total(), SimDuration::from_nanos(500));
    }
}
