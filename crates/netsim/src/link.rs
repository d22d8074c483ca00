//! Links and their drop-tail output queues.
//!
//! A link is a unidirectional pipe with a fixed rate and propagation
//! delay, fed by a drop-tail byte-bounded FIFO at its source — the
//! output-queued switch model. Serialization is modeled exactly: one packet
//! occupies the transmitter for `wire_bytes / rate`, and the tail-drop
//! decision happens at enqueue time against the configured buffer size.
//!
//! A link's state is split by how often it is used, because a large
//! fabric has tens of thousands of links and only a few carry traffic:
//!
//! * [`Link`] holds what every link has — its endpoints, its up flag, its
//!   [`LinkCounters`] and two `u32` handles into tables of its
//!   [`Fabric`](crate::Fabric).
//! * [`LinkConfig`] holds rate, propagation, buffer size and ECN
//!   threshold. The fabric interns configs: a fabric has a handful of
//!   distinct ones, however many links share them.
//! * [`LinkQueue`] holds the transmitter state and the ends of the
//!   link's packet list. The fabric builds it on the link's first enqueue
//!   or admission drop; a link that never sees a packet has none.
//! * The packets themselves live in the fabric's one [`PacketArena`],
//!   from enqueue to arrival, so memory follows the packets held at once
//!   rather than each link's own peak.
//!
//! One packet is on the wire at a time. [`LinkQueue::commit`] marks the
//! oldest waiting packet as committed and returns its serialization time;
//! the caller schedules the packet's arrival and a `TxDone` at its
//! completion instant, which calls [`LinkQueue::settle`] to release its
//! bytes and then commits the next packet. A committed packet stays in the
//! queue until its arrival pops it with [`LinkQueue::arrive`], so the
//! arrival event carries only the link id. Arrivals come in commit order:
//! serialization is sequential and propagation constant, so each committed
//! packet arrives no earlier than the one before it, and equal-time events
//! pop in push order.
//!
//! The queue remembers the committed packet's completion instant, so
//! [`LinkQueue::occupancy`] excludes a packet that finished at exactly the
//! query instant even before its `TxDone` pops — the one tie between
//! same-instant events whose order would otherwise leak into drop
//! decisions.
//!
//! Per-link [`LinkCounters`] provide the "switch counters" the paper reads
//! loss rates from (§4).

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
    /// queue occupancy met [`LinkConfig::ecn_threshold_bytes`] (DCTCP's
    /// K).
    pub ce_marked_packets: u64,
}

impl LinkCounters {
    /// Count `pkt` as dropped: by a full queue, or by switch-level
    /// admission (shared-buffer DT) before the queue is consulted.
    pub(crate) fn count_drop(&mut self, pkt: &Packet) {
        self.dropped_packets += 1;
        self.dropped_bytes += pkt.wire_bytes() as u64;
        if pkt.is_data() {
            self.dropped_data_packets += 1;
        }
    }
}

/// A link's configuration: line rate, propagation delay, buffer size and
/// ECN threshold. Links with equal configs share one interned copy in
/// their fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    rate_bps: u64,
    nominal_rate_bps: u64,
    propagation: SimDuration,
    queue_capacity_bytes: u64,
    ecn_threshold_bytes: Option<u64>,
}

impl LinkConfig {
    /// A healthy link of `rate_bps` with a `queue_capacity_bytes`
    /// drop-tail buffer and no ECN marking.
    pub fn new(rate_bps: u64, propagation: SimDuration, queue_capacity_bytes: u64) -> Self {
        assert!(rate_bps > 0);
        LinkConfig {
            rate_bps,
            nominal_rate_bps: rate_bps,
            propagation,
            queue_capacity_bytes,
            ecn_threshold_bytes: None,
        }
    }

    /// Current line rate in bits per second.
    #[inline]
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Line rate the link was built with (the reference for degradation).
    pub fn nominal_rate_bps(&self) -> u64 {
        self.nominal_rate_bps
    }

    /// Propagation delay.
    #[inline]
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Tail-drop threshold for the output queue, in wire bytes.
    pub fn queue_capacity_bytes(&self) -> u64 {
        self.queue_capacity_bytes
    }

    /// ECN marking threshold in wire bytes (DCTCP's K): a data packet
    /// enqueued while exact occupancy is at or above this gets its CE bit
    /// set. `None` (the default) disables marking entirely, keeping the
    /// drop-tail behaviour and event stream bit-identical.
    pub fn ecn_threshold_bytes(&self) -> Option<u64> {
        self.ecn_threshold_bytes
    }

    /// Current rate as a fraction of nominal — 1.0 for a healthy link.
    /// The controller quantizes this into spanning-tree weights.
    pub fn rate_fraction(&self) -> f64 {
        self.rate_bps as f64 / self.nominal_rate_bps as f64
    }

    /// This config with its rate at `fraction` of nominal (clamped to
    /// `(0, 1]`: a zero fraction still leaves a crawling link).
    pub(crate) fn degraded(self, fraction: f64) -> Self {
        let f = fraction.clamp(0.0, 1.0);
        LinkConfig {
            rate_bps: ((self.nominal_rate_bps as f64 * f).round() as u64).max(1),
            ..self
        }
    }

    /// This config back at its nominal rate.
    pub(crate) fn restored(self) -> Self {
        LinkConfig {
            rate_bps: self.nominal_rate_bps,
            ..self
        }
    }

    /// This config with a `bytes` drop-tail buffer.
    pub(crate) fn with_queue_capacity(self, bytes: u64) -> Self {
        LinkConfig {
            queue_capacity_bytes: bytes,
            ..self
        }
    }

    /// This config with ECN threshold `k` (`None` disables marking).
    pub(crate) fn with_ecn_threshold(self, k: Option<u64>) -> Self {
        LinkConfig {
            ecn_threshold_bytes: k,
            ..self
        }
    }
}

/// A unidirectional link as its fabric stores it: endpoints, state,
/// counters and handles to its config and queue. Read a link through
/// [`Fabric::link`](crate::Fabric::link), which resolves both.
#[derive(Debug)]
pub struct Link {
    /// Transmitting endpoint.
    pub src: Node,
    /// Receiving endpoint.
    pub dst: Node,
    /// Administrative and failure state; a down link drops at forwarding
    /// time and finishes (then discards) whatever is mid-flight.
    pub up: bool,
    /// Counters for loss/throughput reporting.
    pub counters: LinkCounters,
    /// Index of the link's config in the fabric's config table.
    pub(crate) config: u32,
    /// Index of the link's queue in the fabric's queue table, or
    /// [`Link::NO_QUEUE`] until its first packet.
    pub(crate) queue: u32,
}

// Counters (56 bytes) stay inline: reports read them straight off the
// link table. Everything else a busy link needs lives behind a handle.
const _: () = assert!(std::mem::size_of::<Link>() <= 88);

impl Link {
    /// The queue handle of a link that has never seen a packet.
    pub(crate) const NO_QUEUE: u32 = u32::MAX;

    /// An idle, up link with config `config` and no queue.
    pub(crate) fn new(src: Node, dst: Node, config: u32) -> Self {
        Link {
            src,
            dst,
            up: true,
            counters: LinkCounters::default(),
            config,
            queue: Link::NO_QUEUE,
        }
    }

    /// Reset counters (used between measurement phases of an experiment).
    pub fn reset_counters(&mut self) {
        self.counters = LinkCounters::default();
    }
}

/// The packets every link of one fabric holds, in one slab.
///
/// A packet takes a slot when a link's queue admits it and gives it back
/// when it arrives at the link's far end. Each slot links to the next
/// packet of the same queue, so a [`LinkQueue`] is a list threaded
/// through the arena; freed slots form a LIFO free list through the same
/// link. The arena grows only when no slot is free, so it holds as many
/// slots as the most packets held at once, however they spread over the
/// links, and once grown a packet hop allocates nothing.
#[derive(Debug)]
pub struct PacketArena {
    slots: Vec<Slot>,
    /// First free slot, or [`NIL`].
    free: u32,
}

#[derive(Debug)]
struct Slot {
    packet: Packet,
    /// The next packet of the same queue, or the next free slot; [`NIL`]
    /// for none.
    next: u32,
}

/// The end of a slot list.
const NIL: u32 = u32::MAX;

impl Default for PacketArena {
    /// An empty arena.
    fn default() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: NIL,
        }
    }
}

impl PacketArena {
    /// Slots built so far: the most packets held at once.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Store `packet` in a free slot, last in its list.
    #[inline]
    fn take(&mut self, packet: Packet) -> u32 {
        let slot = Slot { packet, next: NIL };
        match self.free {
            NIL => {
                assert!(self.slots.len() < NIL as usize, "packet slots exhausted");
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            i => {
                let s = &mut self.slots[i as usize];
                self.free = s.next;
                *s = slot;
                i
            }
        }
    }

    /// Free slot `i`, returning its packet and the slot that followed it.
    #[inline]
    fn give_back(&mut self, i: u32) -> (Packet, u32) {
        let s = &mut self.slots[i as usize];
        let next = s.next;
        s.next = self.free;
        self.free = i;
        (s.packet, next)
    }
}

/// A link's output queue: the transmitter state and a list of the
/// packets it holds, threaded through its fabric's [`PacketArena`].
/// Every call that takes an arena must get that same one.
#[derive(Debug)]
pub struct LinkQueue {
    /// The oldest packet the link holds, or [`NIL`]. The list runs from
    /// the committed packets that have started serializing and not yet
    /// arrived to the packets waiting for the transmitter.
    head: u32,
    /// The newest packet, or [`NIL`].
    tail: u32,
    /// The oldest waiting (uncommitted) packet, or [`NIL`].
    next: u32,
    /// Number of waiting packets.
    waiting: u32,
    /// Wire bytes of the waiting packets plus the one on the wire, until
    /// its [`LinkQueue::settle`]; packets already propagating do not
    /// count.
    queued_bytes: u64,
    /// The committed-but-unsettled packet, as `(completion instant, wire
    /// bytes)`: `Some` while its `TxDone` is outstanding. Its bytes stay
    /// in `queued_bytes` until [`LinkQueue::settle`].
    on_wire: Option<(SimTime, u64)>,
    /// The last `(wire bytes, rate, serialization time)` computed by
    /// [`LinkQueue::serialization`]. Most links carry mostly full data
    /// packets or mostly ACKs, so one entry saves most u128 divisions (88%
    /// on the headline point); keying on the rate keeps it exact across
    /// degrade and restore.
    tx_memo: (u64, u64, SimDuration),
}

// Built once per link that carries traffic; the packets live in the
// arena.
const _: () = assert!(std::mem::size_of::<LinkQueue>() <= 72);

impl Default for LinkQueue {
    fn default() -> Self {
        LinkQueue {
            head: NIL,
            tail: NIL,
            next: NIL,
            waiting: 0,
            queued_bytes: 0,
            on_wire: None,
            tx_memo: Default::default(),
        }
    }
}

/// Result of offering a packet to a link's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The transmitter was idle: the caller must now start it with
    /// [`LinkQueue::commit`] and schedule the packet's `TxDone`.
    StartTx,
    /// Queued behind in-flight traffic.
    Queued,
    /// Tail-dropped: the queue was full.
    Dropped,
}

impl LinkQueue {
    /// Offer `pkt` at simulated instant `now` to a link configured as
    /// `cfg`, counting into `counters`. An admitted packet takes a slot
    /// of `arena`.
    ///
    /// If the transmitter is idle ([`Enqueue::StartTx`]) the caller must
    /// start it with [`LinkQueue::commit`]. A full queue tail-drops; the
    /// drop decision uses [`LinkQueue::occupancy`] at `now`, so it does
    /// not depend on whether the `TxDone` of a packet finishing at `now`
    /// has popped.
    pub fn enqueue(
        &mut self,
        arena: &mut PacketArena,
        now: SimTime,
        mut pkt: Packet,
        cfg: &LinkConfig,
        counters: &mut LinkCounters,
    ) -> Enqueue {
        let wire = pkt.wire_bytes() as u64;
        if self.on_wire.is_none() {
            debug_assert_eq!(self.queue_len(), 0);
            self.push(arena, pkt);
            self.queued_bytes += wire;
            counters.max_queue_bytes = counters.max_queue_bytes.max(self.queued_bytes);
            return Enqueue::StartTx;
        }
        let occ = self.occupancy(now);
        if occ + wire > cfg.queue_capacity_bytes {
            counters.count_drop(&pkt);
            return Enqueue::Dropped;
        }
        // ECN: mark-on-enqueue against instantaneous occupancy (DCTCP's
        // single threshold K). Only data packets are marked; ACKs carry
        // the echo, not the signal.
        if let Some(k) = cfg.ecn_threshold_bytes {
            if occ >= k && pkt.is_data() && !pkt.ce() {
                pkt.set_ce(true);
                counters.ce_marked_packets += 1;
            }
        }
        self.push(arena, pkt);
        self.queued_bytes += wire;
        counters.max_queue_bytes = counters.max_queue_bytes.max(occ + wire);
        Enqueue::Queued
    }

    /// Append `pkt` to the waiting packets.
    #[inline]
    fn push(&mut self, arena: &mut PacketArena, pkt: Packet) {
        let slot = arena.take(pkt);
        match self.tail {
            NIL => self.head = slot,
            t => arena.slots[t as usize].next = slot,
        }
        self.tail = slot;
        if self.next == NIL {
            self.next = slot;
        }
        self.waiting += 1;
    }

    /// Commit the oldest waiting packet to a wire of `rate_bps` at `now`.
    ///
    /// Returns its serialization time: the caller schedules its arrival
    /// at that offset plus propagation, where [`LinkQueue::arrive`] hands
    /// the packet over, and a `TxDone` at that offset to
    /// [`LinkQueue::settle`] it and commit the next packet. Returns `None`
    /// (and stays idle) if nothing is waiting.
    #[inline]
    pub fn commit(
        &mut self,
        arena: &PacketArena,
        now: SimTime,
        rate_bps: u64,
    ) -> Option<SimDuration> {
        debug_assert!(
            self.on_wire.is_none(),
            "commit while a packet is on the wire"
        );
        let slot = arena.slots.get(self.next as usize)?;
        let wire = slot.packet.wire_bytes() as u64;
        self.next = slot.next;
        self.waiting -= 1;
        let d = self.serialization(wire, rate_bps);
        self.on_wire = Some((now + d, wire));
        Some(d)
    }

    /// Hand over the oldest committed packet when its arrival fires,
    /// returning its slot to `arena`. Arrivals come in commit order (see
    /// the module docs), so this is always the packet the arrival was
    /// scheduled for.
    ///
    /// # Panics
    /// If no committed packet is pending.
    #[inline]
    pub fn arrive(&mut self, arena: &mut PacketArena) -> Packet {
        assert!(
            self.head != self.next,
            "arrival on a link with nothing in flight"
        );
        let (packet, next) = arena.give_back(self.head);
        self.head = next;
        if next == NIL {
            self.tail = NIL;
        }
        packet
    }

    /// `SimDuration::transmission(wire, rate_bps)`, memoized on the last
    /// `(wire, rate)` pair.
    #[inline]
    pub(crate) fn serialization(&mut self, wire: u64, rate_bps: u64) -> SimDuration {
        let (memo_wire, memo_rate, d) = self.tx_memo;
        if memo_wire == wire && memo_rate == rate_bps {
            return d;
        }
        let d = SimDuration::transmission(wire, rate_bps);
        self.tx_memo = (wire, rate_bps, d);
        d
    }

    /// Settle the committed packet when its `TxDone` fires: release its
    /// bytes from the queue occupancy and count the transmission into
    /// `counters`. Returns its wire bytes so the caller can release
    /// shared-buffer occupancy upstream.
    #[inline]
    pub fn settle(&mut self, counters: &mut LinkCounters) -> u64 {
        let (_, bytes) = self.on_wire.take().expect("TxDone on idle link");
        self.queued_bytes -= bytes;
        counters.tx_packets += 1;
        counters.tx_bytes += bytes;
        bytes
    }

    /// Total queued wire bytes, *including* the committed-but-unsettled
    /// packet. Coarser than [`LinkQueue::occupancy`] at the instant that
    /// packet completes; use `occupancy` for drop and admission decisions.
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
        self.waiting as usize
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use crate::packet::{FlowKey, PacketKind, MSS, WIRE_OVERHEAD};
    use crate::HostId;
    use crate::Mac;

    fn pkt(len: u32) -> Packet {
        let kind = PacketKind::Data {
            seq: 0,
            len,
            retx: false,
        };
        Packet::new(
            FlowKey::new(HostId(0), HostId(1), 1, 2),
            Mac::host(HostId(1)),
            0,
            kind,
        )
    }

    /// One link's config, queue and counters, as the fabric keeps them,
    /// with an arena of its own.
    struct TestLink {
        cfg: LinkConfig,
        q: LinkQueue,
        counters: LinkCounters,
        arena: PacketArena,
    }

    impl TestLink {
        fn enqueue(&mut self, now: SimTime, p: Packet) -> Enqueue {
            self.q
                .enqueue(&mut self.arena, now, p, &self.cfg, &mut self.counters)
        }

        fn settle(&mut self) -> u64 {
            self.q.settle(&mut self.counters)
        }

        fn arrive(&mut self) -> Packet {
            self.q.arrive(&mut self.arena)
        }
    }

    fn link(cap: u64) -> TestLink {
        TestLink {
            cfg: LinkConfig::new(10_000_000_000, SimDuration::from_nanos(500), cap),
            q: LinkQueue::default(),
            counters: LinkCounters::default(),
            arena: PacketArena::default(),
        }
    }

    /// The packets of the list that starts at slot `at`, in order.
    fn list(arena: &PacketArena, mut at: u32) -> impl Iterator<Item = &Packet> {
        std::iter::from_fn(move || {
            let slot = arena.slots.get(at as usize)?;
            at = slot.next;
            Some(&slot.packet)
        })
    }

    /// Commit the next waiting packet at t = 0, returning it with its
    /// serialization time.
    fn commit(l: &mut TestLink) -> Option<(Packet, SimDuration)> {
        let next = list(&l.arena, l.q.next).next().copied();
        let d = l.q.commit(&l.arena, SimTime::ZERO, l.cfg.rate_bps())?;
        Some((next.expect("a committed packet was waiting"), d))
    }

    /// The packets waiting for the transmitter, oldest first.
    fn waiting(l: &TestLink) -> impl Iterator<Item = &Packet> {
        list(&l.arena, l.q.next)
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
        assert!(l.q.on_wire.is_some());
        assert_eq!(l.q.queue_len(), 0);
    }

    #[test]
    fn busy_link_commits_one_packet_at_a_time_fifo() {
        let mut l = link(1_000_000);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(100)), Enqueue::StartTx);
        assert_eq!(commit(&mut l).unwrap().0.payload_bytes(), 100);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(200)), Enqueue::Queued);
        assert_eq!(l.enqueue(SimTime::ZERO, pkt(300)), Enqueue::Queued);
        assert_eq!(l.q.queue_len(), 2);

        for len in [200, 300] {
            l.settle();
            let (p, d) = commit(&mut l).expect("queued packet");
            assert_eq!(p.payload_bytes(), len);
            assert_eq!(
                d,
                SimDuration::transmission((len + WIRE_OVERHEAD) as u64, 10_000_000_000)
            );
        }
        assert_eq!(l.q.queue_len(), 0);
        assert_eq!(l.settle(), (300 + WIRE_OVERHEAD) as u64);
        assert!(l.q.on_wire.is_none());
        assert!(commit(&mut l).is_none(), "an empty queue stays idle");
        assert!(l.q.on_wire.is_none());
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
            assert_eq!(l.q.queue_len(), len);
            assert_eq!(l.q.queued_bytes(), bytes);
            assert_eq!(l.q.occupancy(SimTime::ZERO), bytes);
        }
        assert!(l.q.on_wire.is_none());
        assert_eq!((l.q.head, l.q.tail, l.q.next), (NIL, NIL, NIL));
        assert_eq!(l.arena.slots(), 4, "four packets were held at once");
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
        assert_eq!(l.q.occupancy(before), 2 * wire);
        assert_eq!(l.q.finished_unsettled(before), 0);
        assert_eq!(l.q.occupancy(done), wire);
        assert_eq!(l.q.finished_unsettled(done), wire);
        assert_eq!(l.q.queued_bytes(), 2 * wire, "not settled yet");
        assert_eq!(l.enqueue(before, pkt(MSS)), Enqueue::Dropped);
        assert_eq!(l.enqueue(done, pkt(MSS)), Enqueue::Queued);
        // Settling converges to the same answer.
        l.settle();
        assert_eq!(l.q.finished_unsettled(done), 0);
        assert_eq!(l.q.occupancy(done), 2 * wire);
        assert_eq!(l.q.queued_bytes(), 2 * wire);
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
        assert_eq!(l.q.occupancy(SimTime::ZERO), 0);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        commit(&mut l);
        l.enqueue(SimTime::ZERO, pkt(MSS));
        // Committed-but-unsettled bytes still count toward occupancy.
        assert_eq!(
            l.q.occupancy(SimTime::ZERO),
            2 * (MSS + WIRE_OVERHEAD) as u64
        );
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
        while l.q.on_wire.is_some() {
            l.settle();
            commit(&mut l);
        }
        assert_eq!(
            l.counters.max_queue_bytes, expect,
            "high water mark persists"
        );
        assert_eq!(l.counters.tx_packets, 5);
        assert_eq!(l.q.queued_bytes(), 0);
    }

    #[test]
    fn ecn_marks_data_at_threshold() {
        let wire = (MSS + WIRE_OVERHEAD) as u64;
        let mut l = link(100 * wire);
        l.cfg = l.cfg.with_ecn_threshold(Some(2 * wire));
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
        let marks: Vec<bool> = waiting(&l).map(|p| p.ce()).collect();
        assert_eq!(marks, vec![false, true, true]);

        // ACKs are never marked even over threshold.
        let mut ack = pkt(0);
        ack.set_kind(PacketKind::Ack { ack: 0, sack_hi: 0 });
        assert_eq!(l.enqueue(SimTime::ZERO, ack), Enqueue::Queued);
        assert_eq!(l.counters.ce_marked_packets, 2);
        assert!(!list(&l.arena, l.q.tail).next().unwrap().ce());
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
        assert!(waiting(&l).all(|p| !p.ce()));
    }

    #[test]
    fn degrade_and_restore_rate() {
        let cfg = link(1000).cfg;
        let nominal = cfg.rate_bps();
        assert_eq!(cfg.nominal_rate_bps(), nominal);
        assert_eq!(cfg.rate_fraction(), 1.0);
        let slow = cfg.degraded(0.1);
        assert_eq!(slow.rate_bps(), nominal / 10);
        assert_eq!(slow.nominal_rate_bps(), nominal);
        assert!((slow.rate_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(slow.restored(), cfg);
        // Clamped: a zero fraction still leaves a crawling link, not a
        // division by zero.
        assert_eq!(cfg.degraded(0.0).rate_bps(), 1);
        assert_eq!(cfg.degraded(0.0).restored(), cfg);
    }

    #[test]
    fn memoized_serialization_matches_transmission() {
        let mut l = link(1000);
        let check = |l: &mut TestLink| {
            let rate = l.cfg.rate_bps();
            for wire in [1538, 84, 84, 0, 1, 9000, 64 * 1024, 1538, 1538] {
                assert_eq!(
                    l.q.serialization(wire, rate),
                    SimDuration::transmission(wire, rate),
                    "wire {wire} at {rate} bps"
                );
            }
        };
        check(&mut l);
        // Each pass starts with the wire size the last one ended on, so
        // the memo is hit right across a rate change and must not return
        // the old rate's time.
        for cfg in [l.cfg.degraded(0.3), l.cfg.degraded(0.0), l.cfg] {
            l.cfg = cfg;
            check(&mut l);
        }
    }

    /// A link of the model test: what a `VecDeque` queue would hold.
    #[derive(Default)]
    struct Reference {
        /// Committed packets, then waiting ones, oldest first.
        held: VecDeque<Packet>,
        committed: usize,
        queued_bytes: u64,
        on_wire: Option<(SimTime, u64)>,
    }

    impl Reference {
        fn occupancy(&self, now: SimTime) -> u64 {
            self.queued_bytes - self.finished_unsettled(now)
        }

        fn finished_unsettled(&self, now: SimTime) -> u64 {
            match self.on_wire {
                Some((end, wire)) if end <= now => wire,
                _ => 0,
            }
        }

        /// Commit the oldest waiting packet at `now`, if any.
        fn commit(&mut self, now: SimTime, cfg: &LinkConfig) {
            if let Some(p) = self.held.get(self.committed) {
                let wire = p.wire_bytes() as u64;
                self.committed += 1;
                let d = SimDuration::transmission(wire, cfg.rate_bps());
                self.on_wire = Some((now + d, wire));
            }
        }
    }

    proptest! {
        /// Random enqueues (some tail-dropped, some ECN-marked), `TxDone`
        /// settles and arrivals over three links that share one arena,
        /// against a `VecDeque` per link: every arrival hands over the
        /// packet the reference does, the queues' lengths and occupancies
        /// agree at every step, and the arena holds exactly as many slots
        /// as the most packets held at once.
        #[test]
        fn arena_queues_match_a_vecdeque_reference(
            ops in prop::collection::vec(0u64..u64::MAX, 1..400),
        ) {
            const LINKS: usize = 3;
            let wire = (MSS + WIRE_OVERHEAD) as u64;
            let base = LinkConfig::new(10_000_000_000, SimDuration::from_nanos(500), 4 * wire);
            let cfgs = [
                base,
                base.with_queue_capacity(9 * wire).degraded(0.25),
                base.with_queue_capacity(6 * wire).with_ecn_threshold(Some(2 * wire)),
            ];
            let mut arena = PacketArena::default();
            let mut queues: [LinkQueue; LINKS] = Default::default();
            let mut counters = [LinkCounters::default(); LINKS];
            let mut refs: [Reference; LINKS] = Default::default();
            let (mut now, mut sent, mut peak) = (SimTime::ZERO, 0u64, 0usize);
            for (step, &op) in ops.iter().enumerate() {
                let i = (op % LINKS as u64) as usize;
                let arg = op >> 4;
                let (q, r, cfg) = (&mut queues[i], &mut refs[i], &cfgs[i]);
                match (op >> 2) % 4 {
                    0 | 1 => {
                        // A data packet of any length, or an ACK.
                        let len = (arg % (MSS as u64 + 200)) as u32;
                        let mut p = pkt(len.min(MSS));
                        p.set_kind(if len > MSS {
                            PacketKind::Ack { ack: sent, sack_hi: sent + len as u64 }
                        } else {
                            PacketKind::Data { seq: sent, len, retx: false }
                        });
                        sent += 1;
                        let w = p.wire_bytes() as u64;
                        let want = if r.on_wire.is_none() {
                            Enqueue::StartTx
                        } else if r.occupancy(now) + w > cfg.queue_capacity_bytes() {
                            Enqueue::Dropped
                        } else {
                            Enqueue::Queued
                        };
                        let mut stored = p;
                        if want == Enqueue::Queued
                            && cfg.ecn_threshold_bytes().is_some_and(|k| r.occupancy(now) >= k)
                            && p.is_data()
                        {
                            stored.set_ce(true);
                        }
                        prop_assert_eq!(q.enqueue(&mut arena, now, p, cfg, &mut counters[i]), want, "step {}", step);
                        if want != Enqueue::Dropped {
                            r.held.push_back(stored);
                            r.queued_bytes += w;
                        }
                        if want == Enqueue::StartTx {
                            q.commit(&arena, now, cfg.rate_bps());
                            r.commit(now, cfg);
                        }
                    }
                    2 => {
                        // The `TxDone` of the packet on the wire, then
                        // the next commit.
                        if let Some((_, w)) = r.on_wire.take() {
                            prop_assert_eq!(q.settle(&mut counters[i]), w);
                            r.queued_bytes -= w;
                            q.commit(&arena, now, cfg.rate_bps());
                            r.commit(now, cfg);
                        }
                    }
                    _ => {
                        if r.committed > 0 {
                            r.committed -= 1;
                            let want = r.held.pop_front();
                            prop_assert_eq!(Some(q.arrive(&mut arena)), want, "step {}", step);
                        }
                        now += SimDuration::from_nanos(arg % 2000);
                    }
                }
                peak = peak.max(refs.iter().map(|r| r.held.len()).sum());
                for (q, r) in queues.iter().zip(&refs) {
                    prop_assert_eq!(q.occupancy(now), r.occupancy(now), "step {}", step);
                    prop_assert_eq!(q.finished_unsettled(now), r.finished_unsettled(now));
                    prop_assert_eq!(q.queued_bytes(), r.queued_bytes);
                    prop_assert_eq!(q.queue_len(), r.held.len() - r.committed);
                }
                prop_assert_eq!(arena.slots(), peak, "step {}", step);
            }
            // Drain: every packet still held comes out, in order.
            for ((q, r), cfg) in queues.iter_mut().zip(&mut refs).zip(&cfgs) {
                let mut c = LinkCounters::default();
                while !r.held.is_empty() {
                    if r.committed == 0 {
                        r.on_wire.take();
                        q.settle(&mut c);
                        q.commit(&arena, now, cfg.rate_bps());
                        r.commit(now, cfg);
                    }
                    r.committed -= 1;
                    prop_assert_eq!(Some(q.arrive(&mut arena)), r.held.pop_front());
                }
                prop_assert_eq!(q.queue_len(), 0);
            }
            prop_assert_eq!(arena.slots(), peak);
        }
    }
}
