//! Links and their drop-tail output queues.
//!
//! A [`Link`] is a unidirectional pipe with a fixed rate and propagation
//! delay, fed by a drop-tail byte-bounded FIFO at its source — the
//! output-queued switch model. Serialization is modeled exactly: one packet
//! occupies the transmitter for `wire_bytes / rate`, and the tail-drop
//! decision happens at enqueue time against the configured buffer size.
//!
//! One packet is on the wire at a time. [`Link::commit`] marks the oldest
//! waiting packet as committed and returns its serialization time; the
//! caller schedules the packet's arrival and a `TxDone` at its completion
//! instant, which calls [`Link::settle`] to release its bytes and then
//! commits the next packet. A committed packet stays in the link until its
//! arrival pops it with [`Link::arrive`], so the arrival event carries only
//! the link id. Arrivals come in commit order: serialization is sequential
//! and propagation constant, so each committed packet arrives no earlier
//! than the one before it, and equal-time events pop in push order.
//!
//! The link remembers the committed packet's completion instant, so
//! [`Link::occupancy`] excludes a packet that finished at exactly the
//! query instant even before its `TxDone` pops — the one tie between
//! same-instant events whose order would otherwise leak into drop
//! decisions.
//!
//! Per-link [`LinkCounters`] provide the "switch counters" the paper reads
//! loss rates from (§4).

use std::collections::VecDeque;

use presto_simcore::{SimDuration, SimTime};

use crate::ids::Node;
use crate::packet::Packet;

/// Transmit/drop statistics for one link, mirroring switch port counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCounters {
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Wire bytes serialized.
    pub tx_bytes: u64,
    /// Packets tail-dropped at enqueue.
    pub dropped_packets: u64,
    /// Wire bytes tail-dropped.
    pub dropped_bytes: u64,
    /// Data (payload-carrying) packets dropped — the numerator of the
    /// paper's loss-rate plots, which count TCP packet loss.
    pub dropped_data_packets: u64,
    /// High-water mark of queued bytes.
    pub max_queue_bytes: u64,
    /// Data packets whose ECN CE bit this link set at enqueue because
    /// queue occupancy met [`Link::ecn_threshold_bytes`] (DCTCP's K).
    pub ce_marked_packets: u64,
}

/// A unidirectional link plus its source-side drop-tail queue.
#[derive(Debug)]
pub struct Link {
    /// Transmitting endpoint.
    pub src: Node,
    /// Receiving endpoint.
    pub dst: Node,
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub propagation: SimDuration,
    /// Tail-drop threshold for the output queue, in wire bytes.
    pub queue_capacity_bytes: u64,
    /// Administrative and failure state; a down link drops at forwarding
    /// time and finishes (then discards) whatever is mid-flight.
    pub up: bool,
    /// Line rate the link was built with. [`Link::degrade`] lowers
    /// `rate_bps` relative to this; [`Link::restore_rate`] returns to it.
    nominal_rate_bps: u64,
    /// ECN marking threshold in wire bytes (DCTCP's K): a data packet
    /// enqueued while exact occupancy is at or above this gets its CE bit
    /// set. `None` (the default) disables marking entirely, keeping the
    /// drop-tail behaviour and event stream bit-identical.
    pub ecn_threshold_bytes: Option<u64>,

    /// Every packet the link holds, oldest first: a prefix of `committed`
    /// packets that have started serializing and not yet arrived, then
    /// the packets waiting for the transmitter.
    queue: VecDeque<Packet>,
    /// Length of the committed prefix of `queue`.
    committed: u32,
    /// Wire bytes of the waiting packets plus the one on the wire, until
    /// its [`Link::settle`]; packets already propagating do not count.
    queued_bytes: u64,
    /// The committed-but-unsettled packet, as `(completion instant, wire
    /// bytes)`: `Some` while its `TxDone` is outstanding. Its bytes stay
    /// in `queued_bytes` until [`Link::settle`].
    on_wire: Option<(SimTime, u64)>,
    /// The last `(wire bytes, rate, serialization time)` computed by
    /// [`Link::serialization`]. Most links carry mostly full data packets
    /// or mostly ACKs, so one entry saves most u128 divisions (88% on the
    /// headline point); keying on the rate keeps it exact across degrade
    /// and restore.
    tx_memo: (u64, u64, SimDuration),
    /// Counters for loss/throughput reporting.
    pub counters: LinkCounters,
}

/// Result of offering a packet to a link's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The transmitter was idle: the caller must now start it with
    /// [`Link::commit`] and schedule the packet's `TxDone`.
    StartTx,
    /// Queued behind in-flight traffic.
    Queued,
    /// Tail-dropped: the queue was full.
    Dropped,
}

impl Link {
    /// Create an idle, empty, up link.
    pub fn new(
        src: Node,
        dst: Node,
        rate_bps: u64,
        propagation: SimDuration,
        queue_capacity_bytes: u64,
    ) -> Self {
        assert!(rate_bps > 0);
        Link {
            src,
            dst,
            rate_bps,
            propagation,
            queue_capacity_bytes,
            up: true,
            nominal_rate_bps: rate_bps,
            ecn_threshold_bytes: None,
            queue: VecDeque::new(),
            committed: 0,
            queued_bytes: 0,
            on_wire: None,
            tx_memo: (0, rate_bps, SimDuration::ZERO),
            counters: LinkCounters::default(),
        }
    }

    /// Offer `pkt` to the output queue at simulated instant `now`.
    ///
    /// If the transmitter is idle ([`Enqueue::StartTx`]) the caller must
    /// start it with [`Link::commit`]. A full queue tail-drops; the drop
    /// decision uses [`Link::occupancy`] at `now`, so it does not depend
    /// on whether the `TxDone` of a packet finishing at `now` has popped.
    pub fn enqueue(&mut self, now: SimTime, mut pkt: Packet) -> Enqueue {
        let wire = pkt.wire_bytes() as u64;
        if self.on_wire.is_none() {
            debug_assert_eq!(self.queue_len(), 0);
            self.queue.push_back(pkt);
            self.queued_bytes += wire;
            self.counters.max_queue_bytes = self.counters.max_queue_bytes.max(self.queued_bytes);
            return Enqueue::StartTx;
        }
        let occ = self.occupancy(now);
        if occ + wire > self.queue_capacity_bytes {
            self.counters.dropped_packets += 1;
            self.counters.dropped_bytes += wire;
            if pkt.is_data() {
                self.counters.dropped_data_packets += 1;
            }
            return Enqueue::Dropped;
        }
        // ECN: mark-on-enqueue against instantaneous occupancy (DCTCP's
        // single threshold K). Only data packets are marked; ACKs carry
        // the echo, not the signal.
        if let Some(k) = self.ecn_threshold_bytes {
            if occ >= k && pkt.is_data() && !pkt.ce {
                pkt.ce = true;
                self.counters.ce_marked_packets += 1;
            }
        }
        self.queue.push_back(pkt);
        self.queued_bytes += wire;
        self.counters.max_queue_bytes = self.counters.max_queue_bytes.max(occ + wire);
        Enqueue::Queued
    }

    /// Commit the oldest waiting packet to the wire at `now`.
    ///
    /// Returns its serialization time: the caller schedules its arrival
    /// at that offset plus propagation, where [`Link::arrive`] hands the
    /// packet over, and a `TxDone` at that offset to [`Link::settle`] it
    /// and commit the next packet. Returns `None` (and stays idle) if
    /// nothing is waiting.
    #[inline]
    pub fn commit(&mut self, now: SimTime) -> Option<SimDuration> {
        debug_assert!(
            self.on_wire.is_none(),
            "commit while a packet is on the wire"
        );
        let wire = self.queue.get(self.committed as usize)?.wire_bytes() as u64;
        self.committed += 1;
        let d = self.serialization(wire);
        self.on_wire = Some((now + d, wire));
        Some(d)
    }

    /// Hand over the oldest committed packet when its arrival fires.
    /// Arrivals come in commit order (see the module docs), so this is
    /// always the packet the arrival was scheduled for.
    ///
    /// # Panics
    /// If no committed packet is pending.
    #[inline]
    pub fn arrive(&mut self) -> Packet {
        assert!(
            self.committed > 0,
            "arrival on a link with nothing in flight"
        );
        self.committed -= 1;
        self.queue
            .pop_front()
            .expect("committed packets are queued")
    }

    /// `SimDuration::transmission(wire, self.rate_bps)`, memoized on the
    /// last `(wire, rate)` pair.
    #[inline]
    fn serialization(&mut self, wire: u64) -> SimDuration {
        let (memo_wire, memo_rate, d) = self.tx_memo;
        if memo_wire == wire && memo_rate == self.rate_bps {
            return d;
        }
        let d = SimDuration::transmission(wire, self.rate_bps);
        self.tx_memo = (wire, self.rate_bps, d);
        d
    }

    /// Settle the committed packet when its `TxDone` fires: release its
    /// bytes from the queue occupancy and count the transmission. Returns
    /// its wire bytes so the caller can release shared-buffer occupancy
    /// upstream.
    #[inline]
    pub fn settle(&mut self) -> u64 {
        let (_, bytes) = self.on_wire.take().expect("TxDone on idle link");
        self.queued_bytes -= bytes;
        self.counters.tx_packets += 1;
        self.counters.tx_bytes += bytes;
        bytes
    }

    /// Total queued wire bytes, *including* the committed-but-unsettled
    /// packet. Coarser than [`Link::occupancy`] at the instant that packet
    /// completes; use `occupancy` for drop and admission decisions.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Exact queue occupancy at instant `now`, in wire bytes: total
    /// queued bytes minus the committed packet if it has already finished
    /// serializing (its `TxDone` is due at `now` but has not popped yet).
    /// Includes the packet currently on the wire.
    #[inline]
    pub fn occupancy(&self, now: SimTime) -> u64 {
        self.queued_bytes - self.finished_unsettled(now)
    }

    /// Wire bytes of the committed packet if it finished serializing by
    /// `now` but its `TxDone` has not settled it — the correction a
    /// shared-buffer pool needs for exact admission.
    #[inline]
    pub fn finished_unsettled(&self, now: SimTime) -> u64 {
        match self.on_wire {
            Some((end, wire)) if end <= now => wire,
            _ => 0,
        }
    }

    /// Number of packets waiting for the transmitter, excluding the one
    /// being serialized and those propagating.
    pub fn queue_len(&self) -> usize {
        self.queue.len() - self.committed as usize
    }

    /// Record a drop decided by switch-level admission (shared-buffer DT),
    /// which happens before the per-port queue is consulted.
    pub fn count_admission_drop(&mut self, pkt: &Packet) {
        let wire = pkt.wire_bytes() as u64;
        self.counters.dropped_packets += 1;
        self.counters.dropped_bytes += wire;
        if pkt.is_data() {
            self.counters.dropped_data_packets += 1;
        }
    }

    /// Mark the link down (fast-failover and controller pruning react to
    /// this). Queued packets drain; new forwarding decisions avoid it.
    pub fn set_down(&mut self) {
        self.up = false;
    }

    /// Restore the link.
    pub fn set_up(&mut self) {
        self.up = true;
    }

    /// Line rate the link was built with (the reference for degradation).
    pub fn nominal_rate_bps(&self) -> u64 {
        self.nominal_rate_bps
    }

    /// Degrade the line rate to `fraction` of nominal (clamped to
    /// `(0, 1]`). The link stays up — fast failover does not trigger —
    /// so only controller re-weighting can steer traffic away. A packet
    /// already committed to the wire keeps its departure time; the new
    /// rate applies from the next committed packet.
    pub fn degrade(&mut self, fraction: f64) {
        let f = fraction.clamp(0.0, 1.0);
        self.rate_bps = ((self.nominal_rate_bps as f64 * f).round() as u64).max(1);
    }

    /// Undo [`Link::degrade`]: return to the nominal line rate.
    pub fn restore_rate(&mut self) {
        self.rate_bps = self.nominal_rate_bps;
    }

    /// Current rate as a fraction of nominal — 1.0 for a healthy link.
    /// The controller quantizes this into spanning-tree weights.
    pub fn rate_fraction(&self) -> f64 {
        self.rate_bps as f64 / self.nominal_rate_bps as f64
    }

    /// Reset counters (used between measurement phases of an experiment).
    pub fn reset_counters(&mut self) {
        self.counters = LinkCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HostId, Mac, Node, SwitchId};
    use crate::packet::{FlowKey, PacketKind, MSS, WIRE_OVERHEAD};

    fn pkt(len: u32) -> Packet {
        Packet {
            flow: FlowKey::new(HostId(0), HostId(1), 1, 2),
            src_host: HostId(0),
            dst_host: HostId(1),
            dst_mac: Mac::host(HostId(1)),
            flowcell: 0,
            ce: false,
            kind: PacketKind::Data {
                seq: 0,
                len,
                retx: false,
            },
        }
    }

    fn link(cap: u64) -> Link {
        Link::new(
            Node::Host(HostId(0)),
            Node::Switch(SwitchId(0)),
            10_000_000_000,
            SimDuration::from_nanos(500),
            cap,
        )
    }

    /// Commit the next waiting packet at t = 0, returning it with its
    /// serialization time.
    fn commit(l: &mut Link) -> Option<(Packet, SimDuration)> {
        let d = l.commit(SimTime::ZERO)?;
        Some((l.queue[l.committed as usize - 1], d))
    }

    /// The packets waiting for the transmitter, oldest first.
    fn waiting(l: &Link) -> impl Iterator<Item = &Packet> {
        l.queue.iter().skip(l.committed as usize)
    }

    #[test]
    fn idle_link_starts_tx_immediately() {
        let mut l = link(1_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        let (p, d) = commit(&mut l).expect("a packet to commit");
        assert_eq!(p.payload_bytes(), MSS);
        assert_eq!(
            d,
            SimDuration::transmission((MSS + WIRE_OVERHEAD) as u64, 10_000_000_000)
        );
        assert!(l.on_wire.is_some());
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn busy_link_commits_one_packet_at_a_time_fifo() {
        let mut l = link(1_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(100)), Enqueue::StartTx);
        assert_eq!(commit(&mut l).unwrap().0.payload_bytes(), 100);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(200)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(300)), Enqueue::Queued);
        assert_eq!(l.queue_len(), 2);

        for len in [200, 300] {
            l.settle();
            let (p, d) = commit(&mut l).expect("queued packet");
            assert_eq!(p.payload_bytes(), len);
            assert_eq!(
                d,
                SimDuration::transmission((len + WIRE_OVERHEAD) as u64, 10_000_000_000)
            );
        }
        assert_eq!(l.queue_len(), 0);
        assert_eq!(l.settle(), (300 + WIRE_OVERHEAD) as u64);
        assert!(l.on_wire.is_none());
        assert!(commit(&mut l).is_none(), "an empty queue stays idle");
        assert!(l.on_wire.is_none());
        assert_eq!(l.counters.tx_packets, 3);
    }

    #[test]
    fn arrivals_pop_in_commit_order() {
        // Packets stay in the link from enqueue to arrival. Committed
        // packets still propagating must not show in the queue length or
        // the queued bytes, and arrivals hand them over oldest first.
        let wire = |len: u32| (len + WIRE_OVERHEAD) as u64;
        let mut l = link(1_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(100)), Enqueue::StartTx);
        commit(&mut l);
        for len in [200, 300, 400] {
            assert_eq!(l.enqueue(SimTime::ZERO, pkt(len)), Enqueue::Queued);
        }
        // Each step: (settle?, commit?, arrival, then the expected waiting
        // count and the bytes of the waiting packets plus the one on the
        // wire).
        let steps: [(bool, bool, Option<u32>, usize, u64); 7] = [
            (true, true, None, 2, wire(200) + wire(300) + wire(400)),
            (
                false,
                false,
                Some(100),
                2,
                wire(200) + wire(300) + wire(400),
            ),
            (true, true, None, 1, wire(300) + wire(400)),
            (true, true, None, 0, wire(400)),
            (false, false, Some(200), 0, wire(400)),
            (false, false, Some(300), 0, wire(400)),
            (true, false, Some(400), 0, 0),
        ];
        for (settle, start, arrival, len, bytes) in steps {
            if settle {
                l.settle();
            }
            if start {
                assert!(commit(&mut l).is_some());
            }
            if let Some(want) = arrival {
                assert_eq!(l.arrive().payload_bytes(), want);
            }
            assert_eq!(l.queue_len(), len);
            assert_eq!(l.queued_bytes(), bytes);
            assert_eq!(l.occupancy(SimTime::ZERO), bytes);
        }
        assert!(l.on_wire.is_none());
        assert!(l.queue.is_empty());
        assert_eq!(l.counters.tx_packets, 4);
    }

    #[test]
    #[should_panic(expected = "nothing in flight")]
    fn arrival_without_a_committed_packet_panics() {
        let mut l = link(1_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(100)), Enqueue::StartTx);
        l.arrive();
    }

    #[test]
    fn occupancy_excludes_head_finished_at_now() {
        // The head packet completes at `d`; its `TxDone` is due then but
        // has not popped. Occupancy and tail-drop at `d` must already
        // exclude it, and not a nanosecond earlier.
        let wire = (MSS + WIRE_OVERHEAD) as u64;
        let mut l = link(2 * wire);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        let (_, d) = commit(&mut l).unwrap();
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        let done = SimTime::ZERO + d;
        let before = done - SimDuration::from_nanos(1);
        assert_eq!(l.occupancy(before), 2 * wire);
        assert_eq!(l.finished_unsettled(before), 0);
        assert_eq!(l.occupancy(done), wire);
        assert_eq!(l.finished_unsettled(done), wire);
        assert_eq!(l.queued_bytes(), 2 * wire, "not settled yet");
        assert_eq!(l.enqueue(before, pkt(MSS)), Enqueue::Dropped);
        assert_eq!(l.enqueue(done, pkt(MSS)), Enqueue::Queued);
        // Settling converges to the same answer.
        l.settle();
        assert_eq!(l.finished_unsettled(done), 0);
        assert_eq!(l.occupancy(done), 2 * wire);
        assert_eq!(l.queued_bytes(), 2 * wire);
    }

    #[test]
    fn full_queue_tail_drops() {
        // Capacity fits the in-flight packet plus one queued MSS packet.
        let wire = (MSS + WIRE_OVERHEAD) as u64;
        let mut l = link(2 * wire);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        commit(&mut l);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Dropped);
        assert_eq!(l.counters.dropped_packets, 1);
        assert_eq!(l.counters.dropped_data_packets, 1);
        assert_eq!(l.counters.dropped_bytes, wire);
        // Settling the head frees space again.
        l.settle();
        commit(&mut l);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
    }

    #[test]
    fn occupancy_counts_committed_bytes() {
        let mut l = link(1_000_000);
        assert_eq!(l.occupancy(SimTime::ZERO), 0);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        commit(&mut l);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        // Committed-but-unsettled bytes still count toward occupancy.
        assert_eq!(l.occupancy(SimTime::ZERO), 2 * (MSS + WIRE_OVERHEAD) as u64);
    }

    #[test]
    fn max_queue_high_water_mark() {
        let mut l = link(1_000_000);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        commit(&mut l);
        for _ in 0..4 {
            l.enqueue(SimTime::ZERO, pkt(MSS));
        }
        let expect = 5 * (MSS + WIRE_OVERHEAD) as u64;
        assert_eq!(l.counters.max_queue_bytes, expect);
        while l.on_wire.is_some() {
            l.settle();
            commit(&mut l);
        }
        assert_eq!(
            l.counters.max_queue_bytes, expect,
            "high water mark persists"
        );
        assert_eq!(l.counters.tx_packets, 5);
        assert_eq!(l.queued_bytes(), 0);
    }

    #[test]
    fn ecn_marks_data_at_threshold() {
        let wire = (MSS + WIRE_OVERHEAD) as u64;
        let mut l = link(100 * wire);
        l.ecn_threshold_bytes = Some(2 * wire);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        commit(&mut l);
        // Occupancy 1*wire: below K, unmarked.
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        // Occupancy 2*wire: at K, marked from here on.
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        assert_eq!(l.counters.ce_marked_packets, 2);
        // The committed head is on the wire; three later packets wait:
        // below-K unmarked, then marked.
        let marks: Vec<bool> = waiting(&l).map(|p| p.ce).collect();
        assert_eq!(marks, vec![false, true, true]);

        // ACKs are never marked even over threshold.
        let ack = Packet {
            kind: PacketKind::Ack { ack: 0, sack_hi: 0 },
            ..pkt(0)
        };
        assert_eq!(l.enqueue(SimTime::ZERO, ack), Enqueue::Queued);
        assert_eq!(l.counters.ce_marked_packets, 2);
        assert!(!l.queue.back().unwrap().ce);
    }

    #[test]
    fn ecn_disabled_never_marks() {
        let mut l = link(1_000_000);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        commit(&mut l);
        for _ in 0..10 {
            l.enqueue(SimTime::ZERO, pkt(MSS));
        }
        assert_eq!(l.counters.ce_marked_packets, 0);
        assert!(waiting(&l).all(|p| !p.ce));
    }

    #[test]
    fn up_down_toggle() {
        let mut l = link(1000);
        assert!(l.up);
        l.set_down();
        assert!(!l.up);
        l.set_up();
        assert!(l.up);
    }

    #[test]
    fn degrade_and_restore_rate() {
        let mut l = link(1000);
        let nominal = l.rate_bps;
        assert_eq!(l.nominal_rate_bps(), nominal);
        assert_eq!(l.rate_fraction(), 1.0);
        l.degrade(0.1);
        assert_eq!(l.rate_bps, nominal / 10);
        assert!((l.rate_fraction() - 0.1).abs() < 1e-12);
        assert!(l.up, "degradation must not take the link down");
        l.restore_rate();
        assert_eq!(l.rate_bps, nominal);
        // Clamped: a zero fraction still leaves a crawling link, not a
        // division by zero.
        l.degrade(0.0);
        assert_eq!(l.rate_bps, 1);
        l.restore_rate();
        assert_eq!(l.rate_bps, nominal);
    }

    #[test]
    fn memoized_serialization_matches_transmission() {
        let mut l = link(1000);
        let check = |l: &mut Link| {
            for wire in [1538, 84, 84, 0, 1, 9000, 64 * 1024, 1538, 1538] {
                assert_eq!(
                    l.serialization(wire),
                    SimDuration::transmission(wire, l.rate_bps),
                    "wire {wire} at {} bps",
                    l.rate_bps
                );
            }
        };
        check(&mut l);
        // Each pass starts with the wire size the last one ended on, so
        // the memo is hit right across a rate change and must not return
        // the old rate's time.
        l.degrade(0.3);
        check(&mut l);
        l.degrade(0.0);
        check(&mut l);
        l.restore_rate();
        check(&mut l);
    }
}
