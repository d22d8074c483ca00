//! Packets and flows.
//!
//! Simulated packets carry metadata only — sequence numbers and lengths
//! stand in for payload bytes. Each data packet also carries the two fields
//! Presto's vSwitch stamps on every skb before TSO (§3.1): the destination
//! (shadow) MAC, and the flowcell ID that the paper smuggles in the source
//! MAC / TCP options and that the receiver's GRO uses to tell loss from
//! reordering.

use std::fmt;

use crate::ids::{HostId, Mac};

/// TCP maximum segment size used throughout: 1500-byte MTU minus 40 bytes
/// of IP+TCP headers.
pub const MSS: u32 = 1460;

/// Per-packet wire overhead: Ethernet (14) + FCS (4) + preamble and
/// inter-frame gap (20) + IP (20) + TCP (20) = 78 bytes. With `MSS`-sized
/// payloads this caps goodput at 1460/1538 ≈ 94.9% of line rate, matching
/// the ~9.3 Gbps the paper reports on 10 GbE.
pub const WIRE_OVERHEAD: u32 = 78;

/// Wire size of a payload-less packet (pure ACK / probe): minimum Ethernet
/// frame (64 bytes) plus preamble and IFG.
pub const ACK_WIRE_BYTES: u32 = 84;

/// Wire size of one receiver-load probe exchange (request + minimal
/// response), used to *account* the control-plane cost of Prequal-style
/// probing. Probe rounds are modeled out-of-band — they never occupy data
/// queues or consume goodput — but their estimated wire cost is surfaced
/// as a telemetry counter so the overhead stays honest.
pub const PROBE_WIRE_BYTES: u64 = 2 * ACK_WIRE_BYTES as u64;

/// A transport flow's 4-tuple, oriented from the sender's perspective.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowKey {
    /// Originating host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Source transport port.
    pub sport: u16,
    /// Destination transport port.
    pub dport: u16,
}

impl FlowKey {
    /// Construct a flow key.
    pub fn new(src: HostId, dst: HostId, sport: u16, dport: u16) -> Self {
        FlowKey {
            src,
            dst,
            sport,
            dport,
        }
    }

    /// The reverse direction (where ACKs travel).
    pub fn reverse(self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            sport: self.dport,
            dport: self.sport,
        }
    }

    /// A stable 64-bit digest of the tuple, used for ECMP hashing and
    /// per-flow stream splitting.
    pub fn digest(self) -> u64 {
        ((self.src.0 as u64) << 48)
            | ((self.dst.0 as u64) << 32)
            | ((self.sport as u64) << 16)
            | self.dport as u64
    }
}

/// What a packet is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// TCP payload: `seq..seq+len` of the flow's byte stream.
    Data {
        /// Byte-stream offset of the first payload byte.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
        /// True for retransmissions — Presto GRO pushes these up at once.
        retx: bool,
    },
    /// A pure cumulative acknowledgement.
    Ack {
        /// Next byte expected by the receiver.
        ack: u64,
        /// Highest sequence number received so far (a 1-bit SACK
        /// abstraction, enough for the dup-ACK machinery).
        sack_hi: u64,
    },
    /// A latency probe (sockperf-style single packet, §4); echoed by the
    /// receiver with the same `id`.
    Probe {
        /// Matches request to echo.
        id: u64,
        /// True on the return path.
        echo: bool,
    },
}

/// A simulated packet, packed into 40 bytes: links hold every packet
/// from enqueue to arrival, so its size sets the fabric's memory.
///
/// The flow key and destination MAC are plain fields. The rest is stored
/// packed and read through accessors: the flowcell as a `u32`, the
/// [`PacketKind`] as one 64-bit word plus one 32-bit word, and the kind,
/// CE, retransmit and echo flags in one byte. Every value round-trips
/// exactly; a value the packing cannot hold panics at construction
/// rather than being truncated.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow the packet belongs to, oriented from its sender: an ACK
    /// carries the reverse of the data flow it acknowledges. `flow.dst`
    /// is the host the fabric must deliver the packet to.
    pub flow: FlowKey,
    /// Destination MAC — a real host MAC or a shadow (label) MAC.
    pub dst_mac: Mac,
    /// `seq` of a data packet, `ack` of an ACK, `id` of a probe.
    word: u64,
    /// `len` of a data packet, `sack_hi - ack` of an ACK, 0 for a probe.
    aux: u32,
    /// The flowcell ID, with [`Packet::NO_CELL`] standing for `u64::MAX`.
    cell: u32,
    /// [`KIND_MASK`] bits, then [`CE`], [`RETX`] and [`ECHO`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Packet>() <= 40);

/// [`Packet::flags`] bits holding the kind.
const KIND_MASK: u8 = 0b11;
const DATA: u8 = 0;
const ACK: u8 = 1;
const PROBE: u8 = 2;
/// The ECN congestion-experienced mark.
const CE: u8 = 1 << 2;
/// A data packet's retransmission flag.
const RETX: u8 = 1 << 3;
/// A probe's return-path flag.
const ECHO: u8 = 1 << 4;

impl Packet {
    /// The stored flowcell of `u64::MAX`, the sentinel of policies that
    /// pin a flow to one path (DiffFlow's elephants).
    const NO_CELL: u32 = u32::MAX;

    /// A packet of `flow` towards `dst_mac` in flowcell `flowcell`,
    /// without a CE mark.
    ///
    /// # Panics
    /// If `flowcell` is neither `u64::MAX` nor below `u32::MAX`, or if
    /// `kind` is an ACK whose `sack_hi` lies below its `ack` or more than
    /// `u32::MAX` above it.
    #[inline]
    pub fn new(flow: FlowKey, dst_mac: Mac, flowcell: u64, kind: PacketKind) -> Packet {
        let mut p = Packet {
            flow,
            dst_mac,
            word: 0,
            aux: 0,
            cell: 0,
            flags: 0,
        };
        p.set_flowcell(flowcell);
        p.set_kind(kind);
        p
    }

    /// Flowcell ID stamped by the sending vSwitch (paper: carried in the
    /// source MAC / TCP options). Monotonically increasing per flow.
    #[inline]
    pub fn flowcell(&self) -> u64 {
        match self.cell {
            Self::NO_CELL => u64::MAX,
            c => c as u64,
        }
    }

    /// Stamp the flowcell ID. Panics on a value the packet cannot hold
    /// (see [`Packet::new`]).
    #[inline]
    fn set_flowcell(&mut self, flowcell: u64) {
        self.cell = if flowcell == u64::MAX {
            Self::NO_CELL
        } else {
            assert!(
                flowcell < Self::NO_CELL as u64,
                "flowcell {flowcell} does not fit a packet"
            );
            flowcell as u32
        };
    }

    /// Payload semantics.
    #[inline]
    pub fn kind(&self) -> PacketKind {
        match self.flags & KIND_MASK {
            DATA => PacketKind::Data {
                seq: self.word,
                len: self.aux,
                retx: self.flags & RETX != 0,
            },
            ACK => PacketKind::Ack {
                ack: self.word,
                sack_hi: self.word + self.aux as u64,
            },
            _ => PacketKind::Probe {
                id: self.word,
                echo: self.flags & ECHO != 0,
            },
        }
    }

    /// Replace the payload semantics, keeping the CE mark. Panics on an
    /// ACK the packet cannot hold (see [`Packet::new`]).
    #[inline]
    pub fn set_kind(&mut self, kind: PacketKind) {
        let (word, aux, flags) = match kind {
            PacketKind::Data { seq, len, retx } => (seq, len, DATA | if retx { RETX } else { 0 }),
            PacketKind::Ack { ack, sack_hi } => {
                let span = sack_hi
                    .checked_sub(ack)
                    .and_then(|d| u32::try_from(d).ok())
                    .unwrap_or_else(|| {
                        panic!("ACK sack_hi {sack_hi} must lie within 2^32 bytes at or above {ack}")
                    });
                (ack, span, ACK)
            }
            PacketKind::Probe { id, echo } => (id, 0, PROBE | if echo { ECHO } else { 0 }),
        };
        self.word = word;
        self.aux = aux;
        self.flags = flags | (self.flags & CE);
    }

    /// ECN congestion-experienced mark. Set by a switch queue whose depth
    /// exceeds its marking threshold (data packets only); on ACKs the same
    /// bit carries the receiver's ECN-Echo back to the sender.
    #[inline]
    pub fn ce(&self) -> bool {
        self.flags & CE != 0
    }

    /// Set or clear the CE mark.
    #[inline]
    pub fn set_ce(&mut self, ce: bool) {
        self.flags = if ce {
            self.flags | CE
        } else {
            self.flags & !CE
        };
    }

    /// Total bytes the packet occupies on the wire, including all framing
    /// overhead.
    #[inline]
    pub fn wire_bytes(&self) -> u32 {
        if self.is_data() {
            self.aux + WIRE_OVERHEAD
        } else {
            ACK_WIRE_BYTES
        }
    }

    /// Payload bytes (zero for ACKs and probes).
    #[inline]
    pub fn payload_bytes(&self) -> u32 {
        if self.is_data() {
            self.aux
        } else {
            0
        }
    }

    /// True for TCP payload packets.
    #[inline]
    pub fn is_data(&self) -> bool {
        self.flags & KIND_MASK == DATA
    }

    /// End sequence (`seq + len`) for data packets.
    #[inline]
    pub fn end_seq(&self) -> Option<u64> {
        self.is_data().then(|| self.word + self.aux as u64)
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("flow", &self.flow)
            .field("dst_mac", &self.dst_mac)
            .field("flowcell", &self.flowcell())
            .field("ce", &self.ce())
            .field("kind", &self.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::new(HostId(1), HostId(2), 1000, 2000)
    }

    #[test]
    fn reverse_swaps_both_tuple_halves() {
        let k = key();
        let r = k.reverse();
        assert_eq!(r.src, HostId(2));
        assert_eq!(r.dst, HostId(1));
        assert_eq!(r.sport, 2000);
        assert_eq!(r.dport, 1000);
        assert_eq!(r.reverse(), k);
    }

    #[test]
    fn digest_is_injective_on_fields() {
        let a = FlowKey::new(HostId(1), HostId(2), 10, 20).digest();
        let b = FlowKey::new(HostId(2), HostId(1), 10, 20).digest();
        let c = FlowKey::new(HostId(1), HostId(2), 20, 10).digest();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    fn data(seq: u64, len: u32) -> Packet {
        let kind = PacketKind::Data {
            seq,
            len,
            retx: false,
        };
        Packet::new(key(), Mac::host(HostId(2)), 0, kind)
    }

    #[test]
    fn wire_sizes() {
        let data = data(0, MSS);
        assert_eq!(data.wire_bytes(), MSS + WIRE_OVERHEAD);
        assert_eq!(data.payload_bytes(), MSS);
        assert!(data.is_data());
        assert_eq!(data.end_seq(), Some(MSS as u64));

        let mut ack = data;
        ack.set_kind(PacketKind::Ack {
            ack: 100,
            sack_hi: 100,
        });
        assert_eq!(ack.wire_bytes(), ACK_WIRE_BYTES);
        assert_eq!(ack.payload_bytes(), 0);
        assert!(!ack.is_data());
        assert_eq!(ack.end_seq(), None);
    }

    #[test]
    fn packed_fields_round_trip_exactly() {
        let kinds = [
            PacketKind::Data {
                seq: u64::MAX - u32::MAX as u64,
                len: u32::MAX,
                retx: true,
            },
            PacketKind::Data {
                seq: 7,
                len: 0,
                retx: false,
            },
            PacketKind::Ack {
                ack: u64::MAX - u32::MAX as u64,
                sack_hi: u64::MAX,
            },
            PacketKind::Ack {
                ack: 1 << 40,
                sack_hi: 1 << 40,
            },
            PacketKind::Probe {
                id: u64::MAX,
                echo: true,
            },
            PacketKind::Probe { id: 0, echo: false },
        ];
        let cells = [0, 1, u32::MAX as u64 - 1, u64::MAX];
        for kind in kinds {
            for cell in cells {
                for ce in [false, true] {
                    let mut p = Packet::new(key(), Mac::shadow(HostId(2), 3), cell, kind);
                    p.set_ce(ce);
                    assert_eq!(p.kind(), kind);
                    assert_eq!(p.flowcell(), cell);
                    assert_eq!(p.ce(), ce);
                    // Restamping the kind keeps the mark, and vice versa.
                    p.set_kind(kind);
                    assert_eq!((p.kind(), p.ce()), (kind, ce));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a packet")]
    fn oversized_flowcell_panics() {
        let kind = data(0, MSS).kind();
        Packet::new(key(), Mac::host(HostId(2)), u32::MAX as u64, kind);
    }

    #[test]
    #[should_panic(expected = "sack_hi")]
    fn sack_hi_beyond_the_packed_span_panics() {
        data(0, MSS).set_kind(PacketKind::Ack {
            ack: 0,
            sack_hi: 1 << 32,
        });
    }

    #[test]
    #[should_panic(expected = "sack_hi")]
    fn sack_hi_below_ack_panics() {
        data(0, MSS).set_kind(PacketKind::Ack { ack: 1, sack_hi: 0 });
    }

    #[test]
    fn goodput_ceiling_is_realistic() {
        // MSS/(MSS+overhead) should be ~94.9%, giving ~9.49 Gbps on 10 GbE.
        let eff = MSS as f64 / (MSS + WIRE_OVERHEAD) as f64;
        assert!(eff > 0.94 && eff < 0.96, "efficiency {eff}");
    }
}
