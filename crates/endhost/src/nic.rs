//! NIC model: TSO on transmit, interrupt coalescing on receive.
//!
//! **Transmit.** TCP hands the stack segments of up to 64 KB (the TSO
//! limit). After the vSwitch stamps a destination MAC and flowcell ID on
//! the skb, the NIC splits it into MTU-sized packets, *replicating the
//! header fields onto every derived packet* — the property Presto's
//! Algorithm 1 depends on (§3.1).
//!
//! **Receive.** The NIC coalesces interrupts: arriving packets accumulate
//! in a ring, and the driver polls a batch either after a short coalescing
//! delay or when the batch threshold is reached (§2.2's description of the
//! Linux receive chain). Each poll drives one GRO merge/flush cycle.

use presto_netsim::{FlowKey, Packet, PacketKind, MSS};
use presto_simcore::SimDuration;

use crate::vswitch::PathTag;

/// Maximum TSO segment: 64 KB, the flowcell granularity of the paper.
pub const TSO_MAX_BYTES: u32 = 64 * 1024;

/// An skb handed to the NIC for transmission (post-vSwitch).
#[derive(Debug, Clone, Copy)]
pub struct TxSegment {
    /// Flow of the payload.
    pub flow: FlowKey,
    /// First byte-stream offset.
    pub seq: u64,
    /// Payload length (≤ [`TSO_MAX_BYTES`]).
    pub len: u32,
    /// True when retransmitted.
    pub retx: bool,
    /// Path tag written by the vSwitch.
    pub tag: PathTag,
}

/// Split an skb into MTU packets, replicating the path tag onto each —
/// the NIC's TSO engine. Appends into `out`, so the hot path can reuse
/// one buffer instead of allocating per segment.
pub fn tso_split_into(seg: TxSegment, out: &mut Vec<Packet>) {
    assert!(
        seg.len > 0 && seg.len <= TSO_MAX_BYTES,
        "bad TSO segment len {}",
        seg.len
    );
    out.reserve((seg.len as usize).div_ceil(MSS as usize));
    let mut off = 0u32;
    while off < seg.len {
        let chunk = (seg.len - off).min(MSS);
        let kind = PacketKind::Data {
            seq: seg.seq + off as u64,
            len: chunk,
            retx: seg.retx,
        };
        out.push(Packet::new(
            seg.flow,
            seg.tag.dst_mac,
            seg.tag.flowcell,
            kind,
        ));
        off += chunk;
    }
}

/// Allocating convenience wrapper over [`tso_split_into`].
pub fn tso_split(seg: TxSegment) -> Vec<Packet> {
    let mut out = Vec::with_capacity((seg.len as usize).div_ceil(MSS as usize));
    tso_split_into(seg, &mut out);
    out
}

/// Build a pure ACK packet carrying the reverse-path tag. `ece` is the
/// ECN-Echo: true when the segment being acknowledged arrived CE-marked,
/// carried back to the sender on the ACK's `ce` bit (switches never mark
/// ACKs, so the bit is free on the reverse path).
pub fn make_ack(flow: FlowKey, ack: u64, sack_hi: u64, tag: PathTag, ece: bool) -> Packet {
    let mut p = Packet::new(
        flow,
        tag.dst_mac,
        tag.flowcell,
        PacketKind::Ack { ack, sack_hi },
    );
    p.set_ce(ece);
    p
}

/// Receive-side ring with interrupt coalescing.
///
/// Arrival side: [`RxRing::push`] stores the packet and reports whether a
/// poll must be scheduled (first packet of an idle ring) or fired
/// immediately (batch threshold reached). Poll side: [`RxRing::drain`]
/// hands the accumulated batch to the driver.
#[derive(Debug)]
pub struct RxRing {
    buf: Vec<Packet>,
    /// A poll event is outstanding.
    poll_pending: bool,
    /// Coalescing delay from first packet to poll.
    pub coalesce_delay: SimDuration,
    /// Poll immediately once this many packets accumulate.
    pub batch_limit: usize,
    /// Ring capacity; arrivals beyond it are dropped (receiver livelock).
    pub capacity: usize,
    /// Packets dropped due to ring overflow.
    pub overflow_drops: u64,
}

/// What the arrival path should do after [`RxRing::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxAction {
    /// Nothing: a poll is already scheduled.
    None,
    /// Schedule a poll after the coalescing delay.
    SchedulePoll(SimDuration),
    /// Batch threshold hit: poll right away.
    PollNow,
    /// Ring full: packet dropped.
    Dropped,
}

impl RxRing {
    /// A ring with typical 10 GbE driver parameters: ~20 µs coalescing,
    /// 64-packet NAPI batches, 4096-descriptor ring.
    pub fn new() -> Self {
        RxRing {
            buf: Vec::new(),
            poll_pending: false,
            coalesce_delay: SimDuration::from_micros(20),
            batch_limit: 64,
            capacity: 4096,
            overflow_drops: 0,
        }
    }

    /// Accept an arriving packet.
    pub fn push(&mut self, pkt: Packet) -> RxAction {
        if self.buf.len() >= self.capacity {
            self.overflow_drops += 1;
            return RxAction::Dropped;
        }
        self.buf.push(pkt);
        if self.buf.len() >= self.batch_limit && self.poll_pending {
            // Threshold reached before the coalescing timer: poll now. The
            // pending timer will find an empty ring and do nothing.
            return RxAction::PollNow;
        }
        if !self.poll_pending {
            self.poll_pending = true;
            return RxAction::SchedulePoll(self.coalesce_delay);
        }
        RxAction::None
    }

    /// Drain the accumulated batch for one poll event.
    pub fn drain(&mut self) -> Vec<Packet> {
        self.poll_pending = false;
        std::mem::take(&mut self.buf)
    }

    /// Drain the batch into `out` by buffer swap: `out` receives the
    /// accumulated packets and the ring keeps `out`'s (cleared) allocation
    /// for the next interrupt — no allocation on either side once warm.
    pub fn drain_into(&mut self, out: &mut Vec<Packet>) {
        self.poll_pending = false;
        out.clear();
        std::mem::swap(&mut self.buf, out);
    }

    /// Packets currently waiting.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

impl Default for RxRing {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_netsim::{HostId, Mac};

    fn tag() -> PathTag {
        PathTag {
            dst_mac: Mac::shadow(HostId(1), 2),
            flowcell: 7,
        }
    }

    fn seg(len: u32) -> TxSegment {
        TxSegment {
            flow: FlowKey::new(HostId(0), HostId(1), 5, 6),
            seq: 1000,
            len,
            retx: false,
            tag: tag(),
        }
    }

    #[test]
    fn tso_splits_64kb_into_mss_packets() {
        let pkts = tso_split(seg(TSO_MAX_BYTES));
        // ceil(65536 / 1460) = 45 packets.
        assert_eq!(pkts.len(), 45);
        let total: u32 = pkts.iter().map(|p| p.payload_bytes()).sum();
        assert_eq!(total, TSO_MAX_BYTES);
        // All but the last are full MSS.
        for p in &pkts[..44] {
            assert_eq!(p.payload_bytes(), MSS);
        }
    }

    #[test]
    fn tso_replicates_tag_to_all_packets() {
        // The paper: "the TSO algorithm in the NIC replicates these values
        // to all derived MTU-sized packets."
        let pkts = tso_split(seg(10_000));
        for p in &pkts {
            assert_eq!(p.dst_mac, tag().dst_mac);
            assert_eq!(p.flowcell(), 7);
        }
    }

    #[test]
    fn tso_sequences_are_contiguous() {
        let pkts = tso_split(seg(5000));
        let mut expect = 1000u64;
        for p in &pkts {
            match p.kind() {
                PacketKind::Data { seq, len, .. } => {
                    assert_eq!(seq, expect);
                    expect += len as u64;
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(expect, 6000);
    }

    #[test]
    fn tso_small_segment_is_one_packet() {
        let pkts = tso_split(seg(300));
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload_bytes(), 300);
    }

    #[test]
    #[should_panic(expected = "bad TSO segment")]
    fn tso_rejects_oversize() {
        let _ = tso_split(seg(TSO_MAX_BYTES + 1));
    }

    fn data_pkt() -> Packet {
        let kind = PacketKind::Data {
            seq: 0,
            len: 1460,
            retx: false,
        };
        Packet::new(
            FlowKey::new(HostId(0), HostId(1), 5, 6),
            Mac::host(HostId(1)),
            0,
            kind,
        )
    }

    #[test]
    fn first_packet_schedules_poll() {
        let mut r = RxRing::new();
        assert_eq!(
            r.push(data_pkt()),
            RxAction::SchedulePoll(SimDuration::from_micros(20))
        );
        assert_eq!(r.push(data_pkt()), RxAction::None);
        assert_eq!(r.pending(), 2);
    }

    #[test]
    fn batch_limit_forces_immediate_poll() {
        let mut r = RxRing::new();
        r.batch_limit = 4;
        assert!(matches!(r.push(data_pkt()), RxAction::SchedulePoll(_)));
        assert_eq!(r.push(data_pkt()), RxAction::None);
        assert_eq!(r.push(data_pkt()), RxAction::None);
        assert_eq!(r.push(data_pkt()), RxAction::PollNow);
    }

    #[test]
    fn drain_resets_for_next_interrupt() {
        let mut r = RxRing::new();
        r.push(data_pkt());
        r.push(data_pkt());
        let batch = r.drain();
        assert_eq!(batch.len(), 2);
        assert_eq!(r.pending(), 0);
        // Next packet re-arms the poll.
        assert!(matches!(r.push(data_pkt()), RxAction::SchedulePoll(_)));
    }

    #[test]
    fn overflow_drops_when_full() {
        let mut r = RxRing::new();
        r.capacity = 2;
        r.push(data_pkt());
        r.push(data_pkt());
        assert_eq!(r.push(data_pkt()), RxAction::Dropped);
        assert_eq!(r.overflow_drops, 1);
    }

    #[test]
    fn make_ack_carries_tag() {
        let f = FlowKey::new(HostId(1), HostId(0), 6, 5);
        let a = make_ack(f, 5000, 8000, tag(), false);
        assert_eq!(a.dst_mac, tag().dst_mac);
        assert!(matches!(
            a.kind(),
            PacketKind::Ack {
                ack: 5000,
                sack_hi: 8000
            }
        ));
        assert_eq!(a.flowcell(), tag().flowcell);
        // The fabric routes an ACK to its flow's destination.
        assert_eq!(a.flow, f);
        assert!(!a.ce());
    }

    #[test]
    fn make_ack_carries_ece_on_ce_bit() {
        let f = FlowKey::new(HostId(1), HostId(0), 6, 5);
        assert!(make_ack(f, 1460, 1460, tag(), true).ce());
    }

    #[test]
    fn tso_packets_start_unmarked() {
        // CE is a fabric signal: freshly segmented sender packets never
        // carry it.
        assert!(tso_split(seg(10_000)).iter().all(|p| !p.ce()));
    }
}
