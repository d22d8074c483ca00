//! The stock Linux GRO algorithm.
//!
//! As described in §3.2 of the paper: the driver calls the GRO handler on
//! each polled batch; GRO keeps a `gro_list` with *at most one* segment per
//! flow. An in-order packet merges into its flow's segment; a packet that
//! cannot be merged ejects the existing segment up the stack and starts a
//! new one. At the end of the poll, a flush pushes everything up. The
//! engine is deliberately stateless across polls ("no state is kept beyond
//! the segment being merged"), which is exactly why reordering degenerates
//! it into MTU-sized pushes — the small segment flooding problem.

use std::collections::BTreeMap;

use presto_endhost::{ReceiveOffload, Segment};
use presto_netsim::{FlowKey, Packet};
use presto_simcore::SimTime;
use presto_telemetry::{trace_event, FlushReason, SharedSink, TraceEvent};

/// Largest segment GRO will grow before pushing it up (64 KB, the TSO/GRO
/// limit in Linux).
pub const GRO_MAX_BYTES: u32 = 64 * 1024;

/// The unmodified Linux GRO engine.
#[derive(Debug, Default)]
pub struct OfficialGro {
    /// `gro_list`: one in-progress segment per flow.
    gro_list: BTreeMap<FlowKey, Segment>,
    /// Segments ejected mid-batch, in ejection order.
    ready: Vec<Segment>,
    /// Total segments pushed up (instrumentation).
    pub segments_pushed: u64,
    /// Pushes attributed per cause: `SizeCapEject`, `BoundaryEject`,
    /// `OutOfOrderEject` for mid-batch ejections, `EndOfPoll` for the
    /// end-of-batch drain — so Fig 5 comparisons can attribute per cause
    /// on the baseline side too.
    flush_reasons: [u64; FlushReason::COUNT],
    /// Merges that folded a CE-marked packet into an open segment — each
    /// one widens the stretch of bytes a single ECN-Echo will cover.
    ce_merges: u64,
    /// Host index stamped into trace events.
    host: u32,
    /// Optional trace sink for `GroFlush` events.
    sink: Option<SharedSink>,
}

impl OfficialGro {
    /// A fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    fn attribute(&mut self, now: SimTime, seg: &Segment, reason: FlushReason) {
        self.flush_reasons[reason.index()] += 1;
        trace_event!(
            self.sink,
            now.as_nanos(),
            TraceEvent::GroFlush {
                host: self.host,
                seq: seg.seq,
                len: seg.len,
                packets: seg.packets,
                reason,
            }
        );
    }
}

impl ReceiveOffload for OfficialGro {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        // Stray non-data packets (an ACK racing a closed flow, a probe)
        // carry no stream bytes: skip them rather than abort the host.
        let Ok(fresh) = Segment::try_from_packet(pkt) else {
            return;
        };
        match self.gro_list.get_mut(&pkt.flow) {
            Some(seg) => {
                let would_overflow = seg.len + pkt.payload_bytes() > GRO_MAX_BYTES;
                if !would_overflow && seg.try_merge_tail(pkt) {
                    if pkt.ce() {
                        self.ce_merges += 1;
                    }
                    return;
                }
                // Cannot merge (reordered, new flowcell, or size cap):
                // eject the existing segment and start fresh — the exact
                // behaviour Fig 2 illustrates. Attribute the ejection:
                // under spraying, flowcell boundaries (path changes) are
                // what floods small segments; in-flowcell sequence breaks
                // indicate loss on the cell's single path.
                let reason = if would_overflow {
                    FlushReason::SizeCapEject
                } else if pkt.flowcell() != seg.flowcell {
                    FlushReason::BoundaryEject
                } else {
                    FlushReason::OutOfOrderEject
                };
                let ejected = self
                    .gro_list
                    .insert(pkt.flow, fresh)
                    .expect("segment present");
                self.attribute(now, &ejected, reason);
                self.ready.push(ejected);
            }
            None => {
                self.gro_list.insert(pkt.flow, fresh);
            }
        }
    }

    fn flush_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        let pushed = self.ready.len() + self.gro_list.len();
        // Mid-batch ejections were attributed at ejection time.
        out.append(&mut self.ready);
        // End-of-poll flush pushes up every segment in the gro_list.
        let list = std::mem::take(&mut self.gro_list);
        for seg in list.values() {
            self.attribute(now, seg, FlushReason::EndOfPoll);
            out.push(*seg);
        }
        self.segments_pushed += pushed as u64;
    }

    fn next_deadline(&self) -> Option<SimTime> {
        // Stateless across polls: never holds segments.
        None
    }

    fn flush_expired_into(&mut self, _now: SimTime, _out: &mut Vec<Segment>) {}

    fn flush_reason_counts(&self) -> [u64; FlushReason::COUNT] {
        self.flush_reasons
    }

    fn set_telemetry(&mut self, host: u32, sink: SharedSink) {
        self.host = host;
        self.sink = Some(sink);
    }

    fn ce_merge_count(&self) -> u64 {
        self.ce_merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_netsim::{HostId, Mac, PacketKind, MSS};

    fn pkt_cell(seq: u64, flowcell: u64) -> Packet {
        let kind = PacketKind::Data {
            seq,
            len: MSS,
            retx: false,
        };
        Packet::new(
            FlowKey::new(HostId(0), HostId(1), 1, 2),
            Mac::host(HostId(1)),
            flowcell,
            kind,
        )
    }

    fn pkt(seq: u64) -> Packet {
        pkt_cell(seq, 0)
    }

    fn seq(i: u64) -> u64 {
        i * MSS as u64
    }

    #[test]
    fn stray_ack_is_skipped_not_fatal() {
        // An ACK arriving on the receive path (e.g. racing a torn-down
        // flow) must neither abort nor disturb the merge state.
        let mut g = OfficialGro::new();
        g.on_packet(SimTime::ZERO, &pkt(seq(0)));
        let mut ack = pkt(seq(1));
        ack.set_kind(PacketKind::Ack { ack: 0, sack_hi: 0 });
        g.on_packet(SimTime::ZERO, &ack);
        g.on_packet(SimTime::ZERO, &pkt(seq(1)));
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 1, "ACK must not eject the open segment");
        assert_eq!(segs[0].packets, 2);
    }

    #[test]
    fn in_order_packets_merge_into_one_segment() {
        let mut g = OfficialGro::new();
        for i in 0..10 {
            g.on_packet(SimTime::ZERO, &pkt(seq(i)));
        }
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].packets, 10);
        assert_eq!(segs[0].len, 10 * MSS);
    }

    #[test]
    fn fig2_reordering_floods_small_segments() {
        // The paper's Fig 2 sequence: P0 P1 P2 P5 P3 P6 P4 P7 P8.
        let order = [0u64, 1, 2, 5, 3, 6, 4, 7, 8];
        let mut g = OfficialGro::new();
        let mut pushed = Vec::new();
        for &i in &order {
            g.on_packet(SimTime::ZERO, &pkt(seq(i)));
        }
        pushed.extend(g.flush(SimTime::ZERO));
        // Fig 2 produces six segments: S1(P0-P2), S2(P5), S3(P3),
        // S4(P6), S5(P4), S6(P7,P8).
        assert_eq!(pushed.len(), 6);
        let sizes: Vec<u32> = pushed.iter().map(|s| s.packets).collect();
        assert_eq!(sizes.iter().sum::<u32>(), 9);
        assert!(sizes.contains(&3), "S1 has P0-P2: {sizes:?}");
        assert!(sizes.contains(&2), "S6 has P7,P8: {sizes:?}");
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 4);
    }

    #[test]
    fn reordered_push_order_exposes_tcp_to_reordering() {
        // P0 P2 P1: stock GRO pushes [P0] then at flush [P2-seg, P1-seg]?
        // No — ejection order: P2 ejects S(P0); P1 ejects S(P2).
        let mut g = OfficialGro::new();
        g.on_packet(SimTime::ZERO, &pkt(seq(0)));
        g.on_packet(SimTime::ZERO, &pkt(seq(2)));
        g.on_packet(SimTime::ZERO, &pkt(seq(1)));
        let segs = g.flush(SimTime::ZERO);
        let seqs: Vec<u64> = segs.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![seq(0), seq(2), seq(1)], "delivered out of order");
    }

    #[test]
    fn flowcell_boundary_breaks_merge() {
        // Contiguous sequence but different flowcell labels (different
        // source MACs in the real system) never merge.
        let mut g = OfficialGro::new();
        g.on_packet(SimTime::ZERO, &pkt_cell(seq(0), 0));
        g.on_packet(SimTime::ZERO, &pkt_cell(seq(1), 1));
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 2);
    }

    #[test]
    fn size_cap_ejects_at_64kb() {
        let mut g = OfficialGro::new();
        // 46 MSS packets = 67160 bytes > 64 KB: the 45th merge would
        // overflow, so one ejection happens.
        for i in 0..46 {
            g.on_packet(SimTime::ZERO, &pkt(seq(i)));
        }
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 2);
        assert!(segs[0].len <= GRO_MAX_BYTES);
    }

    #[test]
    fn flows_do_not_interfere() {
        let mut g = OfficialGro::new();
        let mut other = pkt(seq(0));
        other.flow = FlowKey::new(HostId(2), HostId(1), 9, 9);
        g.on_packet(SimTime::ZERO, &pkt(seq(0)));
        g.on_packet(SimTime::ZERO, &other);
        g.on_packet(SimTime::ZERO, &pkt(seq(1)));
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 2);
        let ours: Vec<_> = segs.iter().filter(|s| s.flow.src == HostId(0)).collect();
        assert_eq!(ours[0].packets, 2, "interleaved flows still merge");
    }

    #[test]
    fn flush_reasons_attribute_ejections_per_cause() {
        let mut g = OfficialGro::new();
        let reason = |g: &OfficialGro, r: FlushReason| g.flush_reason_counts()[r.index()];

        // Out-of-order within one flowcell (loss signature): P0 P2 ejects
        // S(P0), P1 ejects S(P2).
        g.on_packet(SimTime::ZERO, &pkt(seq(0)));
        g.on_packet(SimTime::ZERO, &pkt(seq(2)));
        g.on_packet(SimTime::ZERO, &pkt(seq(1)));
        g.flush(SimTime::ZERO);
        assert_eq!(reason(&g, FlushReason::OutOfOrderEject), 2);
        assert_eq!(reason(&g, FlushReason::EndOfPoll), 1);

        // Flowcell boundary (path change under spraying) ejects.
        g.on_packet(SimTime::ZERO, &pkt_cell(seq(10), 0));
        g.on_packet(SimTime::ZERO, &pkt_cell(seq(11), 1));
        g.flush(SimTime::ZERO);
        assert_eq!(reason(&g, FlushReason::BoundaryEject), 1);

        // 64 KB size cap ejects.
        for i in 0..46 {
            g.on_packet(SimTime::ZERO, &pkt(seq(100 + i)));
        }
        g.flush(SimTime::ZERO);
        assert_eq!(reason(&g, FlushReason::SizeCapEject), 1);

        // Every push is attributed.
        let total: u64 = g.flush_reason_counts().iter().sum();
        assert_eq!(total, g.segments_pushed);
        // The baseline's boundary ejections attribute to the reordering
        // side of the Fig 5 split, like Presto GRO's boundary reasons.
        assert!(FlushReason::BoundaryEject.indicates_reordering());
        assert!(FlushReason::OutOfOrderEject.indicates_loss());
    }

    #[test]
    fn ce_survives_merge_and_is_counted() {
        // P0 unmarked, P1 CE-marked, P2 unmarked: one segment whose CE is
        // the OR of its members, with two merges of which one carried CE.
        let mut g = OfficialGro::new();
        g.on_packet(SimTime::ZERO, &pkt(seq(0)));
        let mut marked = pkt(seq(1));
        marked.set_ce(true);
        g.on_packet(SimTime::ZERO, &marked);
        g.on_packet(SimTime::ZERO, &pkt(seq(2)));
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].ce, "merged segment must keep the CE mark");
        assert_eq!(g.ce_merge_count(), 1);

        // Unmarked traffic counts nothing.
        g.on_packet(SimTime::ZERO, &pkt(seq(10)));
        g.on_packet(SimTime::ZERO, &pkt(seq(11)));
        let segs = g.flush(SimTime::ZERO);
        assert!(!segs[0].ce);
        assert_eq!(g.ce_merge_count(), 1);
    }

    #[test]
    fn never_holds_across_polls() {
        let mut g = OfficialGro::new();
        g.on_packet(SimTime::ZERO, &pkt(seq(0)));
        assert_eq!(g.next_deadline(), None);
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 1);
        assert!(g.flush(SimTime::ZERO).is_empty(), "nothing retained");
        assert!(g.flush_expired(SimTime::ZERO).is_empty());
    }
}
