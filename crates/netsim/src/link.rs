//! Links and their drop-tail output queues.
//!
//! A [`Link`] is a unidirectional pipe with a fixed rate and propagation
//! delay, fed by a drop-tail byte-bounded FIFO at its source — the
//! output-queued switch model. Serialization is modeled exactly: one packet
//! occupies the transmitter for `wire_bytes / rate`, and the tail-drop
//! decision happens at enqueue time against the configured buffer size.
//!
//! Departures are *batched*: instead of one `TxDone` event per packet, the
//! link commits up to [`Link::tx_batch`] queued packets at a time. Each
//! committed packet's completion instant is the exact cumulative
//! serialization sum, so arrival timing is identical to the one-event-per-
//! packet model. Occupancy is also exact: the link remembers every
//! committed packet's completion offset, and [`Link::occupancy`] excludes
//! packets that have already finished serializing by the query instant —
//! so tail-drop decisions match the one-event-per-packet model bit for
//! bit. Only the *counter* updates (`tx_packets`, shared-buffer release
//! upstream) settle once per batch. A busy 10 Gbps port therefore costs
//! ~1 scheduled event per packet instead of 2.
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
    /// Maximum packets committed to the wire per `TxDone` event. 1 gives
    /// the classic one-event-per-packet model; larger values amortize
    /// event-queue traffic on busy ports without changing arrival times.
    pub tx_batch: u32,
    /// ECN marking threshold in wire bytes (DCTCP's K): a data packet
    /// enqueued while exact occupancy is at or above this gets its CE bit
    /// set. `None` (the default) disables marking entirely, keeping the
    /// drop-tail behaviour and event stream bit-identical.
    pub ecn_threshold_bytes: Option<u64>,

    queue: VecDeque<Packet>,
    queued_bytes: u64,
    /// Whether a `TxDone` event is outstanding (a committed batch is
    /// still on the wire).
    busy: bool,
    /// Wire bytes of the committed-but-unsettled batch (still included in
    /// `queued_bytes` until the batch's `TxDone` settles it).
    committed_bytes: u64,
    /// Packets in the committed-but-unsettled batch.
    committed_packets: u32,
    /// When the outstanding batch was committed.
    commit_start: SimTime,
    /// Per committed packet: (cumulative completion offset from
    /// `commit_start`, wire bytes). Ascending offsets; lets occupancy
    /// queries settle finished packets virtually, mid-batch.
    committed: Vec<(SimDuration, u64)>,
    /// The last `(wire bytes, rate, serialization time)` computed by
    /// [`Link::serialization`]. Most links carry mostly full data packets
    /// or mostly ACKs, so one entry saves most u128 divisions (88% on the
    /// headline point); keying on the rate keeps it exact across degrade
    /// and restore.
    tx_memo: (u64, u64, SimDuration),
    /// Counters for loss/throughput reporting.
    pub counters: LinkCounters,
}

/// Default departure batch: 1, the classic one-event-per-packet model —
/// the figure harnesses are calibrated against its event interleaving.
/// Raising it (e.g. to an interrupt-coalescing-sized 8) halves the event
/// rate on busy ports with bit-identical arrival times and drop
/// decisions; only same-instant tie ordering across links differs.
pub const DEFAULT_TX_BATCH: u32 = 1;

/// Result of offering a packet to a link's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The transmitter was idle: the caller must now start it by
    /// committing a departure batch ([`Link::commit_batch`]) and
    /// scheduling its `TxDone`.
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
            tx_batch: DEFAULT_TX_BATCH,
            ecn_threshold_bytes: None,
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy: false,
            committed_bytes: 0,
            committed_packets: 0,
            commit_start: SimTime::ZERO,
            committed: Vec::new(),
            tx_memo: (0, rate_bps, SimDuration::ZERO),
            counters: LinkCounters::default(),
        }
    }

    /// Offer `pkt` to the output queue at simulated instant `now`.
    ///
    /// If the transmitter is idle ([`Enqueue::StartTx`]) the caller must
    /// start it with [`Link::commit_batch`]. A full queue tail-drops; the
    /// drop decision uses [`Link::occupancy`] at `now`, so it is identical
    /// to the one-event-per-packet model regardless of `tx_batch`.
    pub fn enqueue(&mut self, now: SimTime, mut pkt: Packet) -> Enqueue {
        let wire = pkt.wire_bytes() as u64;
        if !self.busy {
            debug_assert!(self.queue.is_empty());
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

    /// Commit up to [`Link::tx_batch`] queued packets to the wire.
    ///
    /// For each committed packet, `emit(packet, completion)` is called
    /// with the exact cumulative serialization offset from now — the
    /// instant the packet finishes serializing, from which the caller
    /// pre-schedules its arrival (`+ propagation`). Returns the offset of
    /// the batch's last completion, when the caller must fire `TxDone` to
    /// [`Link::settle_batch`] the accounting and commit the next batch.
    /// Returns `None` (and stays idle) if nothing is queued.
    pub fn commit_batch(
        &mut self,
        now: SimTime,
        mut emit: impl FnMut(Packet, SimDuration),
    ) -> Option<SimDuration> {
        debug_assert!(!self.busy, "commit while a batch is outstanding");
        debug_assert_eq!(self.committed_bytes, 0);
        self.commit_start = now;
        let mut elapsed = SimDuration::ZERO;
        while self.committed_packets < self.tx_batch {
            let Some(pkt) = self.queue.pop_front() else {
                break;
            };
            let wire = pkt.wire_bytes() as u64;
            elapsed += self.serialization(wire);
            self.committed_bytes += wire;
            self.committed_packets += 1;
            self.committed.push((elapsed, wire));
            emit(pkt, elapsed);
        }
        if self.committed_packets > 0 {
            self.busy = true;
            Some(elapsed)
        } else {
            None
        }
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

    /// Settle the accounting for the committed batch when its `TxDone`
    /// fires: release the batch's bytes from the queue occupancy and count
    /// the transmissions. Returns `(wire_bytes, packets)` of the settled
    /// batch so the caller can release shared-buffer occupancy upstream.
    pub fn settle_batch(&mut self) -> (u64, u32) {
        debug_assert!(self.busy, "TxDone on idle link");
        let (bytes, pkts) = (self.committed_bytes, self.committed_packets);
        self.queued_bytes -= bytes;
        self.counters.tx_packets += pkts as u64;
        self.counters.tx_bytes += bytes;
        self.committed_bytes = 0;
        self.committed_packets = 0;
        self.committed.clear();
        self.busy = false;
        (bytes, pkts)
    }

    /// Total queued wire bytes, *including* the committed-but-unsettled
    /// batch. Coarser than [`Link::occupancy`] by up to one batch; use
    /// `occupancy` for any decision that must match the per-packet model.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Exact queue occupancy at instant `now`, in wire bytes: total
    /// queued bytes minus committed packets that have already finished
    /// serializing (their per-packet `TxDone` would have fired by `now`
    /// in the unbatched model). Includes the packet currently on the wire.
    pub fn occupancy(&self, now: SimTime) -> u64 {
        self.queued_bytes - self.finished_unsettled(now)
    }

    /// Wire bytes of committed packets already past their completion
    /// instant at `now` but not yet settled by the batch `TxDone` — the
    /// correction a shared-buffer pool needs for exact admission.
    pub fn finished_unsettled(&self, now: SimTime) -> u64 {
        self.committed
            .iter()
            .take_while(|&&(off, _)| self.commit_start + off <= now)
            .map(|&(_, wire)| wire)
            .sum()
    }

    /// Number of queued packets (including the one being serialized).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the transmitter is mid-packet.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Queueing delay a packet enqueued at `now` would experience.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        SimDuration::transmission(self.occupancy(now), self.rate_bps)
    }

    /// One-way latency floor for a packet of `wire` bytes on an idle link.
    pub fn min_latency(&self, wire: u64) -> SimDuration {
        SimDuration::transmission(wire, self.rate_bps) + self.propagation
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
    /// so only controller re-weighting can steer traffic away. Packets
    /// already committed to the wire keep their departure times; the
    /// new rate applies from the next committed batch.
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

/// Convenience: absolute delivery time for a packet finishing serialization
/// at `tx_end` on a link.
pub fn arrival_time(link: &Link, tx_end: SimTime) -> SimTime {
    tx_end + link.propagation
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

    /// Drive one commit/settle cycle, returning the committed packets and
    /// their completion offsets.
    fn commit(l: &mut Link) -> (Vec<(Packet, SimDuration)>, Option<SimDuration>) {
        commit_at(l, SimTime::ZERO)
    }

    fn commit_at(l: &mut Link, now: SimTime) -> (Vec<(Packet, SimDuration)>, Option<SimDuration>) {
        let mut emitted = Vec::new();
        let last = l.commit_batch(now, |p, off| emitted.push((p, off)));
        (emitted, last)
    }

    #[test]
    fn idle_link_starts_tx_immediately() {
        let mut l = link(1_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        let (emitted, last) = commit(&mut l);
        let d = SimDuration::transmission((MSS + WIRE_OVERHEAD) as u64, 10_000_000_000);
        assert_eq!(last, Some(d));
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].1, d);
        assert!(l.is_busy());
    }

    #[test]
    fn busy_link_queues_then_drains_fifo() {
        let mut l = link(1_000_000);
        l.tx_batch = 8;
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(100)), Enqueue::StartTx);
        let (first, _) = commit(&mut l);
        assert_eq!(first[0].0.payload_bytes(), 100);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(200)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(300)), Enqueue::Queued);
        assert_eq!(l.queue_len(), 2);

        l.settle_batch();
        let (rest, last) = commit(&mut l);
        // One batch commits both queued packets, FIFO, at cumulative
        // completion offsets.
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].0.payload_bytes(), 200);
        assert_eq!(rest[1].0.payload_bytes(), 300);
        let d2 = SimDuration::transmission((200 + WIRE_OVERHEAD) as u64, 10_000_000_000);
        let d3 = SimDuration::transmission((300 + WIRE_OVERHEAD) as u64, 10_000_000_000);
        assert_eq!(rest[0].1, d2);
        assert_eq!(rest[1].1, d2 + d3);
        assert_eq!(last, Some(d2 + d3));
        l.settle_batch();
        assert!(!l.is_busy());
        assert_eq!(l.counters.tx_packets, 3);
    }

    #[test]
    fn batch_limit_caps_commit() {
        let mut l = link(1_000_000);
        l.tx_batch = 2;
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(100)), Enqueue::StartTx);
        let (first, _) = commit(&mut l);
        assert_eq!(first.len(), 1);
        for _ in 0..5 {
            assert_eq!(l.enqueue(SimTime::ZERO, pkt(100)), Enqueue::Queued);
        }
        l.settle_batch();
        let (batch, _) = commit(&mut l);
        assert_eq!(batch.len(), 2, "commit respects tx_batch");
        assert_eq!(l.queue_len(), 3);
    }

    #[test]
    fn occupancy_settles_virtually_mid_batch() {
        // Three packets committed as one batch: occupancy at time t must
        // exclude every packet whose serialization finished by t, exactly
        // as per-packet TxDone would have released them.
        let mut l = link(1_000_000);
        l.tx_batch = 8;
        let wire = (MSS + WIRE_OVERHEAD) as u64;
        let d = SimDuration::transmission(wire, 10_000_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::StartTx);
        let (batch, last) = commit_at(&mut l, SimTime::ZERO);
        assert_eq!(batch.len(), 1);
        assert_eq!(last, Some(d));
        // Two more packets land behind the in-flight one.
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
        l.settle_batch();
        let (batch, _) = commit_at(&mut l, SimTime::ZERO + d);
        assert_eq!(batch.len(), 2, "one batch commits both queued packets");
        let t0 = SimTime::ZERO + d;
        assert_eq!(l.occupancy(t0), 2 * wire);
        // Just before the first completes: still both on the books.
        assert_eq!(l.occupancy(t0 + d - SimDuration::from_nanos(1)), 2 * wire);
        // First one done: released without any TxDone having fired.
        assert_eq!(l.occupancy(t0 + d), wire);
        assert_eq!(l.finished_unsettled(t0 + d), wire);
        assert_eq!(l.occupancy(t0 + d + d), 0);
        // Settling the batch converges to the same answer.
        l.settle_batch();
        assert_eq!(l.occupancy(t0 + d + d), 0);
        assert_eq!(l.queued_bytes(), 0);
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
        // Settling a batch frees space again.
        l.settle_batch();
        commit(&mut l);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(MSS)), Enqueue::Queued);
    }

    #[test]
    fn queue_delay_tracks_occupancy() {
        let mut l = link(1_000_000);
        assert_eq!(l.queue_delay(SimTime::ZERO), SimDuration::ZERO);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        commit(&mut l);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        // Committed-but-unsettled bytes still count toward occupancy.
        let expect = SimDuration::transmission(2 * (MSS + WIRE_OVERHEAD) as u64, 10_000_000_000);
        assert_eq!(l.queue_delay(SimTime::ZERO), expect);
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
        while l.is_busy() {
            l.settle_batch();
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
        // The committed head was popped by `commit`; the queue holds the
        // three later packets: below-K unmarked, then marked.
        let marks: Vec<bool> = l.queue.iter().map(|p| p.ce).collect();
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
        assert!(l.queue.iter().all(|p| !p.ce));
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

    #[test]
    fn min_latency_includes_propagation() {
        let l = link(1000);
        let d = l.min_latency(1538);
        // 1538B at 10G = 1230.4ns -> 1231ns (ceil), +500ns propagation.
        assert_eq!(d.as_nanos(), 1231 + 500);
    }
}
