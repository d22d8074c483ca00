//! The receive-offload interface.
//!
//! The NIC driver hands batches of raw packets to a receive-offload engine
//! (GRO in Linux); the engine merges them into [`Segment`]s and decides
//! when to push each segment up the networking stack. Both the stock Linux
//! algorithm and Presto's modified algorithm (in the `presto-gro` crate)
//! implement [`ReceiveOffload`], so the composed host can swap them freely
//! — exactly the comparison of Fig 5.

use std::fmt;

use presto_netsim::{FlowKey, Packet};
use presto_simcore::SimTime;
use presto_telemetry::{FlushReason, SharedSink};

/// Why a packet could not enter the receive-offload engine.
///
/// GRO only merges TCP data packets; anything else that reaches the
/// receive path — a stray ACK delivered after its flow's state was torn
/// down, a probe, a controller frame — must be skipped, not crash the
/// host. Engines surface that decision through this error instead of
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadError {
    /// The packet is not a TCP data packet (ACK, probe, …) and carries
    /// no byte-stream payload to merge.
    NotData,
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::NotData => write!(f, "receive offload only handles data packets"),
        }
    }
}

impl std::error::Error for OffloadError {}

/// A run of merged packets pushed up the stack as one unit (an `sk_buff`
/// after GRO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Flow the bytes belong to.
    pub flow: FlowKey,
    /// First byte-stream offset covered.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Number of raw MTU packets merged into this segment — the unit of
    /// the paper's "small segment flooding" CPU accounting.
    pub packets: u32,
    /// Flowcell ID of the packets (segments never span flowcells).
    pub flowcell: u64,
    /// Whether any merged packet was a TCP retransmission.
    pub retx: bool,
    /// ECN congestion-experienced: the OR of the merged packets' CE bits.
    /// GRO must not launder congestion signals — if any member packet was
    /// marked, the whole merged segment (and its ACK's ECE) is.
    pub ce: bool,
}

impl Segment {
    /// One byte past the last byte covered.
    pub fn end_seq(&self) -> u64 {
        self.seq + self.len as u64
    }

    /// Build the initial segment for a single raw data packet, or report
    /// why the packet cannot seed a segment. This is the checked entry
    /// point engines use to skip stray non-data packets.
    pub fn try_from_packet(pkt: &Packet) -> Result<Segment, OffloadError> {
        match pkt.kind() {
            presto_netsim::PacketKind::Data { seq, len, retx } => Ok(Segment {
                flow: pkt.flow,
                seq,
                len,
                packets: 1,
                flowcell: pkt.flowcell(),
                retx,
                ce: pkt.ce(),
            }),
            _ => Err(OffloadError::NotData),
        }
    }

    /// Try to append `pkt` to the tail of this segment: same flow, same
    /// flowcell, and exactly contiguous sequence. Returns true on merge.
    pub fn try_merge_tail(&mut self, pkt: &Packet) -> bool {
        if let presto_netsim::PacketKind::Data { seq, len, retx } = pkt.kind() {
            if pkt.flow == self.flow && pkt.flowcell() == self.flowcell && seq == self.end_seq() {
                self.len += len;
                self.packets += 1;
                self.retx |= retx;
                self.ce |= pkt.ce();
                return true;
            }
        }
        false
    }
}

/// A receive-offload engine (GRO).
///
/// Call sequence per interrupt/poll event, mirroring the Linux receive
/// chain described in §2.2 of the paper:
///
/// 1. [`ReceiveOffload::on_packet`] once per raw packet in the batch;
/// 2. [`ReceiveOffload::flush_into`] at the end of the batch — the engine
///    appends the segments it decides to push up the stack, in the order
///    they must be delivered to TCP;
/// 3. between polls, the host arms a timer for
///    [`ReceiveOffload::next_deadline`] and calls
///    [`ReceiveOffload::flush_expired_into`] when it fires (only Presto's
///    GRO holds segments across polls, so the stock engine returns no
///    deadlines).
///
/// The Vec-returning [`ReceiveOffload::flush`] and
/// [`ReceiveOffload::flush_expired`] wrap the buffer-reusing methods.
pub trait ReceiveOffload {
    /// Account one raw packet from the NIC into the engine's merge state.
    /// Engines must skip (not panic on) stray non-data packets — see
    /// [`OffloadError`].
    fn on_packet(&mut self, now: SimTime, pkt: &Packet);

    /// End-of-poll flush: append the segments to push up to `out`, in
    /// delivery order. Reusing `out` keeps the poll path allocation-free.
    fn flush_into(&mut self, now: SimTime, out: &mut Vec<Segment>);

    /// [`ReceiveOffload::flush_into`] into a fresh `Vec`.
    fn flush(&mut self, now: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        self.flush_into(now, &mut out);
        out
    }

    /// Earliest pending hold timeout, if the engine is holding segments.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Fire expired hold timeouts: append the segments they release to
    /// `out`.
    fn flush_expired_into(&mut self, now: SimTime, out: &mut Vec<Segment>);

    /// [`ReceiveOffload::flush_expired_into`] into a fresh `Vec`.
    fn flush_expired(&mut self, now: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        self.flush_expired_into(now, &mut out);
        out
    }

    /// `(reorders masked, hold timeouts fired)` — nonzero only for engines
    /// that hold segments (Presto's GRO).
    fn reorder_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Segments pushed per flush cause, indexed by
    /// [`FlushReason::index`]. Engines that attribute their pushes
    /// override this; the default reports nothing.
    fn flush_reason_counts(&self) -> [u64; FlushReason::COUNT] {
        [0; FlushReason::COUNT]
    }

    /// Install a trace sink for `GroHold`/`GroFlush` events, tagging them
    /// with the receiving `host` index. Engines without event support
    /// ignore the call.
    fn set_telemetry(&mut self, host: u32, sink: SharedSink) {
        let _ = (host, sink);
    }

    /// Number of merges that folded a CE-marked packet into an existing
    /// segment — how often this engine coalesced (and thus amplified the
    /// reach of) a congestion signal. Engines that merge override this.
    fn ce_merge_count(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_netsim::{HostId, Mac, PacketKind};

    fn pkt(seq: u64, len: u32, flowcell: u64) -> Packet {
        let kind = PacketKind::Data {
            seq,
            len,
            retx: false,
        };
        Packet::new(
            FlowKey::new(HostId(0), HostId(1), 1, 2),
            Mac::host(HostId(1)),
            flowcell,
            kind,
        )
    }

    #[test]
    fn try_from_packet_copies_fields() {
        let s = Segment::try_from_packet(&pkt(1000, 1460, 3)).unwrap();
        assert_eq!(s.seq, 1000);
        assert_eq!(s.len, 1460);
        assert_eq!(s.end_seq(), 2460);
        assert_eq!(s.packets, 1);
        assert_eq!(s.flowcell, 3);
        assert!(!s.retx);
    }

    #[test]
    fn try_from_packet_rejects_acks() {
        let mut p = pkt(0, 0, 0);
        p.set_kind(PacketKind::Ack { ack: 0, sack_hi: 0 });
        assert_eq!(Segment::try_from_packet(&p), Err(OffloadError::NotData));
        assert_eq!(
            OffloadError::NotData.to_string(),
            "receive offload only handles data packets"
        );
    }

    #[test]
    fn merge_contiguous_same_flowcell() {
        let mut s = Segment::try_from_packet(&pkt(0, 1460, 0)).unwrap();
        assert!(s.try_merge_tail(&pkt(1460, 1460, 0)));
        assert_eq!(s.len, 2920);
        assert_eq!(s.packets, 2);
    }

    #[test]
    fn merge_rejects_gap() {
        let mut s = Segment::try_from_packet(&pkt(0, 1460, 0)).unwrap();
        assert!(!s.try_merge_tail(&pkt(2920, 1460, 0)));
        assert_eq!(s.packets, 1);
    }

    #[test]
    fn merge_rejects_flowcell_change() {
        // Packets of a new flowcell never merge into the old segment even
        // when contiguous — flowcell boundaries are path boundaries.
        let mut s = Segment::try_from_packet(&pkt(0, 1460, 0)).unwrap();
        assert!(!s.try_merge_tail(&pkt(1460, 1460, 1)));
    }

    #[test]
    fn merge_rejects_other_flow() {
        let mut s = Segment::try_from_packet(&pkt(0, 1460, 0)).unwrap();
        let mut other = pkt(1460, 1460, 0);
        other.flow = FlowKey::new(HostId(5), HostId(1), 1, 2);
        assert!(!s.try_merge_tail(&other));
    }

    #[test]
    fn merge_propagates_retx_flag() {
        let mut s = Segment::try_from_packet(&pkt(0, 1460, 0)).unwrap();
        let mut r = pkt(1460, 1460, 0);
        r.set_kind(PacketKind::Data {
            seq: 1460,
            len: 1460,
            retx: true,
        });
        assert!(s.try_merge_tail(&r));
        assert!(s.retx);
    }

    #[test]
    fn merge_ors_ce_mark() {
        // CE from the seed packet sticks …
        let mut marked = pkt(0, 1460, 0);
        marked.set_ce(true);
        let mut s = Segment::try_from_packet(&marked).unwrap();
        assert!(s.ce);
        assert!(s.try_merge_tail(&pkt(1460, 1460, 0)));
        assert!(s.ce, "unmarked tail must not clear CE");

        // … and CE from a merged tail sets it.
        let mut s = Segment::try_from_packet(&pkt(0, 1460, 0)).unwrap();
        assert!(!s.ce);
        let mut m = pkt(1460, 1460, 0);
        m.set_ce(true);
        assert!(s.try_merge_tail(&m));
        assert!(s.ce, "marked tail must set CE on the merged segment");
    }
}
