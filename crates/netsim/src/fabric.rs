//! The fabric engine: links + switches + event plumbing.
//!
//! [`Fabric`] owns every switch and link and advances them in response to
//! two event kinds: `TxDone` (a link finished serializing a packet) and
//! `Arrive` (a packet reached the far end of a link after propagation).
//! Both carry only the link id: a packet waits in its link from enqueue to
//! arrival, so fabric events stay 8 bytes however large a packet grows.
//! Packets that arrive at a host are handed to the environment through the
//! [`NetScheduler`] trait — the fabric knows nothing about NICs, GRO or
//! TCP, which keeps it independently testable.
//!
//! The fabric also owns the forwarding state every switch shares: the
//! `HostId → slot` table that indexes each switch's per-host tables, and
//! the fast-failover backup of each link. Forwarding state is installed
//! and read through the fabric ([`Fabric::install_label_row`],
//! [`Fabric::switch`]), which resolves hosts to slots.

use std::ops::Deref;

use presto_simcore::{SimDuration, SimTime};
use presto_telemetry::{trace_event, DropReason, SharedSink, TraceEvent};

use crate::buffer::SharedBuffer;
use crate::ids::{HostId, LinkId, Mac, Node, SwitchId};
use crate::link::{Enqueue, Link};
use crate::packet::Packet;
use crate::switch::{HostSlots, Switch};

/// Events internal to the fabric. The composed simulator embeds these in
/// its global event enum and routes them back to [`Fabric::handle`].
#[derive(Debug, Clone, Copy)]
pub enum NetEvent {
    /// A link finished serializing its head packet.
    TxDone {
        /// The transmitting link.
        link: LinkId,
    },
    /// The oldest committed packet of the link finished propagating and
    /// arrives at the link's sink.
    Arrive {
        /// The delivering link.
        link: LinkId,
    },
}

// A packet-sized variant would widen every queued event of the simulator.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 8);

/// The fabric's interface to the outside world: a clock, a way to schedule
/// its own future events, and a sink for packets that reach hosts.
pub trait NetScheduler {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Schedule a fabric event `delay` from now.
    fn schedule_net(&mut self, delay: SimDuration, ev: NetEvent);
    /// A packet arrived at `host`'s NIC.
    fn deliver(&mut self, host: HostId, packet: Packet);
}

/// All switches and links of one experiment's network.
#[derive(Debug, Default)]
pub struct Fabric {
    switches: Vec<Switch>,
    links: Vec<Link>,
    /// Optional shared-memory buffer per switch (dynamic-threshold
    /// admission); `None` = static per-port drop-tail.
    shared: Vec<Option<SharedBuffer>>,
    /// Egress links per switch index (links whose `src` is the switch) —
    /// used to credit the pool for packets that finished serializing at
    /// the current instant but whose `TxDone` has not popped yet.
    egress: Vec<Vec<LinkId>>,
    /// Host uplink (host → leaf) per host index.
    host_uplink: Vec<LinkId>,
    /// The host slot of every host with forwarding state: the index into
    /// each switch's per-host tables.
    slots: HostSlots,
    /// Fast-failover backup per primary link id ([`Switch::NO_LINK`], or
    /// past the end, for none). A link leaves one switch, so one table
    /// serves every switch.
    failover: Vec<LinkId>,
    /// Optional trace sink for enqueue/drop events; without one a site
    /// costs one `Option` check.
    sink: Option<SharedSink>,
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Fabric::default()
    }

    /// Add a switch, returning its id.
    pub fn add_switch(&mut self) -> SwitchId {
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(Switch::new(id));
        self.shared.push(None);
        self.egress.push(Vec::new());
        id
    }

    /// Give `switch` a shared-memory buffer with dynamic-threshold
    /// admission (replacing static per-port drop-tail for its egress
    /// queues). Callers normally also raise the per-port static caps so
    /// the pool is the binding constraint.
    pub fn set_shared_buffer(&mut self, switch: SwitchId, buffer: SharedBuffer) {
        self.shared[switch.index()] = Some(buffer);
    }

    /// The shared buffer of a switch, if configured.
    pub fn shared_buffer(&self, switch: SwitchId) -> Option<&SharedBuffer> {
        self.shared[switch.index()].as_ref()
    }

    /// Add a unidirectional link, returning its id.
    pub fn add_link(&mut self, link: Link) -> LinkId {
        // Link ids stop short of the switches' "no link" sentinel.
        assert!(
            self.links.len() < Switch::NO_LINK.index(),
            "link ids exhausted"
        );
        let id = LinkId(self.links.len() as u32);
        if let Node::Switch(sw) = link.src {
            self.egress[sw.index()].push(id);
        }
        self.links.push(link);
        id
    }

    /// Register a host's uplink. Hosts must be registered in id order
    /// (host 0 first); panics otherwise.
    pub fn attach_host(&mut self, host: HostId, uplink: LinkId) {
        assert_eq!(
            host.index(),
            self.host_uplink.len(),
            "hosts must attach in order"
        );
        self.host_uplink.push(uplink);
    }

    /// Number of hosts attached.
    pub fn host_count(&self) -> usize {
        self.host_uplink.len()
    }

    /// A switch and the forwarding state it sees.
    pub fn switch(&self, id: SwitchId) -> SwitchView<'_> {
        SwitchView {
            switch: &self.switches[id.index()],
            fabric: self,
        }
    }

    /// Mutable access to a switch's own settings and counters.
    pub fn switch_mut(&mut self, id: SwitchId) -> &mut Switch {
        &mut self.switches[id.index()]
    }

    /// Install (or overwrite) the exact-match L2 entry `mac → out` at
    /// `sw`: a host MAC, or one shadow label (see
    /// [`Fabric::install_label_row`] for bulk installs).
    ///
    /// # Panics
    /// Panics on a MAC that is neither a host MAC nor a shadow MAC.
    pub fn install_l2(&mut self, sw: SwitchId, mac: Mac, out: LinkId) {
        self.switches[sw.index()].install_l2(&mut self.slots, mac, out);
    }

    /// Install (or replace) every shadow label of `dst` at `sw`: `row[t]`
    /// is the egress of its tree-`t` label, [`Switch::NO_LINK`] for none.
    /// Hosts with equal rows share one stored row.
    pub fn install_label_row(&mut self, sw: SwitchId, dst: HostId, row: &[LinkId]) {
        self.switches[sw.index()].install_label_row(&mut self.slots, dst, row);
    }

    /// Install (or replace) the ECMP group towards `dst` at `sw`. Hosts
    /// routed over the same links share one stored group.
    pub fn install_ecmp(&mut self, sw: SwitchId, dst: HostId, links: &[LinkId]) {
        self.switches[sw.index()].install_ecmp(&mut self.slots, dst, links);
    }

    /// Give `hosts`, in order, the next host slots. Installing for a host
    /// hands it a slot anyway; assigning every host first sizes each
    /// switch's per-host tables once, at their first write.
    pub(crate) fn assign_host_slots(&mut self, hosts: impl IntoIterator<Item = HostId>) {
        for h in hosts {
            self.slots.assign(h);
        }
    }

    /// Install a fast-failover backup for `primary`, a switch's egress.
    pub fn install_failover(&mut self, primary: LinkId, backup: LinkId) {
        assert!(
            matches!(self.links[primary.index()].src, Node::Switch(_)),
            "failover backs up a switch egress"
        );
        if self.failover.len() <= primary.index() {
            self.failover.resize(self.links.len(), Switch::NO_LINK);
        }
        self.failover[primary.index()] = backup;
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// All switches, in id order.
    pub fn switches(&self) -> impl ExactSizeIterator<Item = SwitchView<'_>> {
        self.switches.iter().map(|switch| SwitchView {
            switch,
            fabric: self,
        })
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Iterate mutably over all links (counter resets between phases).
    pub fn links_mut(&mut self) -> impl Iterator<Item = &mut Link> {
        self.links.iter_mut()
    }

    /// A host's uplink.
    pub fn host_uplink(&self, host: HostId) -> LinkId {
        self.host_uplink[host.index()]
    }

    /// Put a packet on `host`'s uplink (the host NIC's transmit path).
    /// Returns `false` if the uplink queue tail-dropped it.
    pub fn inject(&mut self, host: HostId, packet: Packet, s: &mut impl NetScheduler) -> bool {
        let uplink = self.host_uplink[host.index()];
        self.enqueue_on(uplink, packet, s)
    }

    /// Advance the fabric for one event.
    pub fn handle(&mut self, ev: NetEvent, s: &mut impl NetScheduler) {
        match ev {
            NetEvent::TxDone { link } => {
                let l = &mut self.links[link.index()];
                let bytes = l.settle();
                // Release shared-buffer occupancy at the egress switch.
                if let Node::Switch(sw) = l.src {
                    if let Some(buf) = &mut self.shared[sw.index()] {
                        buf.on_dequeue(bytes);
                    }
                }
                self.start_tx(link, s);
            }
            NetEvent::Arrive { link } => {
                let l = &mut self.links[link.index()];
                let packet = l.arrive();
                match l.dst {
                    Node::Host(h) => s.deliver(h, packet),
                    Node::Switch(sw) => self.forward_at(sw, packet, s),
                }
            }
        }
    }

    /// Install a trace sink; subsequent enqueues and drops are recorded.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// The egress link switch `sw` picks for `pkt` given which links are
    /// up, or `None` (counted in the switch's `no_route_drops`) if it has
    /// no usable one.
    #[inline]
    pub fn route(&mut self, sw: SwitchId, pkt: &Packet) -> Option<LinkId> {
        let links = &self.links;
        self.switches[sw.index()].forward(pkt, &self.slots, &self.failover, |l: LinkId| {
            links[l.index()].up
        })
    }

    /// Run the forwarding pipeline of switch `sw` on `packet`.
    fn forward_at(&mut self, sw: SwitchId, packet: Packet, s: &mut impl NetScheduler) {
        if let Some(out) = self.route(sw, &packet) {
            self.enqueue_on(out, packet, s);
        } else {
            // Already counted in the switch's no_route_drops.
            trace_event!(
                self.sink,
                s.now().as_nanos(),
                TraceEvent::PacketDropped {
                    site: sw.0,
                    reason: DropReason::NoRoute,
                }
            );
        }
    }

    fn enqueue_on(&mut self, link: LinkId, packet: Packet, s: &mut impl NetScheduler) -> bool {
        let now = s.now();
        // Shared-buffer admission at switch egress, when configured.
        let wire = packet.wire_bytes() as u64;
        let mut charge_pool: Option<usize> = None;
        if let Node::Switch(sw) = self.links[link.index()].src {
            if let Some(buf) = &self.shared[sw.index()] {
                // Credit the pool for packets that finished serializing at
                // `now` but whose same-instant TxDone has not popped yet,
                // so admission does not depend on that tie's order.
                let credit: u64 = self.egress[sw.index()]
                    .iter()
                    .map(|l| self.links[l.index()].finished_unsettled(now))
                    .sum();
                if !buf.admits_with_credit(credit, self.links[link.index()].occupancy(now), wire) {
                    self.links[link.index()].count_admission_drop(&packet);
                    trace_event!(
                        self.sink,
                        now.as_nanos(),
                        TraceEvent::PacketDropped {
                            site: link.0,
                            reason: DropReason::Admission,
                        }
                    );
                    return false;
                }
                charge_pool = Some(sw.index());
            }
        }
        match self.links[link.index()].enqueue(now, packet) {
            Enqueue::StartTx => {
                if let Some(i) = charge_pool {
                    self.shared[i]
                        .as_mut()
                        .expect("pool exists")
                        .on_enqueue(wire);
                }
                trace_event!(
                    self.sink,
                    now.as_nanos(),
                    TraceEvent::PacketEnqueued {
                        link: link.0,
                        queue_bytes: self.links[link.index()].occupancy(now),
                    }
                );
                self.start_tx(link, s);
                true
            }
            Enqueue::Queued => {
                if let Some(i) = charge_pool {
                    self.shared[i]
                        .as_mut()
                        .expect("pool exists")
                        .on_enqueue(wire);
                }
                trace_event!(
                    self.sink,
                    now.as_nanos(),
                    TraceEvent::PacketEnqueued {
                        link: link.0,
                        queue_bytes: self.links[link.index()].occupancy(now),
                    }
                );
                true
            }
            Enqueue::Dropped => {
                trace_event!(
                    self.sink,
                    now.as_nanos(),
                    TraceEvent::PacketDropped {
                        site: link.0,
                        reason: DropReason::QueueFull,
                    }
                );
                false
            }
        }
    }

    /// Commit the next waiting packet of `link` to the wire: pre-schedule
    /// its arrival at its completion + propagation instant, then its
    /// `TxDone` at completion. Propagation loss on a link that fails
    /// mid-flight is modeled at forwarding time, not here.
    #[inline]
    fn start_tx(&mut self, link: LinkId, s: &mut impl NetScheduler) {
        let l = &mut self.links[link.index()];
        if let Some(d) = l.commit(s.now()) {
            s.schedule_net(d + l.propagation, NetEvent::Arrive { link });
            s.schedule_net(d, NetEvent::TxDone { link });
        }
    }

    /// Mark a link down (fast failover applies on the next forwarding
    /// decision that would have used it).
    pub fn set_link_down(&mut self, link: LinkId) {
        self.links[link.index()].set_down();
    }

    /// Restore a link.
    pub fn set_link_up(&mut self, link: LinkId) {
        self.links[link.index()].set_up();
    }

    /// Degrade a link to `fraction` of its nominal rate (see
    /// [`Link::degrade`]). The symmetric partner of [`Fabric::set_link_down`]
    /// for partial faults: the link keeps forwarding, just slower.
    pub fn degrade_link(&mut self, link: LinkId, fraction: f64) {
        self.links[link.index()].degrade(fraction);
    }

    /// Restore a degraded link to its nominal rate.
    pub fn restore_link_rate(&mut self, link: LinkId) {
        self.links[link.index()].restore_rate();
    }

    /// Total data packets tail-dropped or unroutable across the fabric —
    /// the paper's loss-rate numerator.
    pub fn total_data_drops(&self) -> u64 {
        let q: u64 = self
            .links
            .iter()
            .map(|l| l.counters.dropped_data_packets)
            .sum();
        let r: u64 = self.switches.iter().map(|s| s.no_route_drops).sum();
        q + r
    }

    /// Total packets transmitted by host uplinks (the denominator used for
    /// loss rates: packets offered to the fabric).
    pub fn total_uplink_tx_packets(&self) -> u64 {
        self.host_uplink
            .iter()
            .map(|l| self.links[l.index()].counters.tx_packets)
            .sum()
    }

    /// Fraction of offered data packets lost inside the fabric.
    pub fn loss_rate(&self) -> f64 {
        let tx = self.total_uplink_tx_packets();
        if tx == 0 {
            0.0
        } else {
            self.total_data_drops() as f64 / tx as f64
        }
    }

    /// Reset every link counter and switch drop counter.
    pub fn reset_counters(&mut self) {
        for l in &mut self.links {
            l.reset_counters();
        }
        for sw in &mut self.switches {
            sw.no_route_drops = 0;
        }
    }
}

/// A switch as its fabric resolves it: its own tables, read through the
/// fabric's host slots and failover table. Dereferences to the [`Switch`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchView<'a> {
    switch: &'a Switch,
    fabric: &'a Fabric,
}

impl<'a> SwitchView<'a> {
    /// The exact-match L2 entry for `mac`, if any (controller
    /// verification).
    pub fn l2_lookup(&self, mac: Mac) -> Option<LinkId> {
        self.switch.l2_at(self.fabric.slots.of(mac.dst_host()), mac)
    }

    /// The installed ECMP group towards `dst`, if any.
    pub fn ecmp_group(&self, dst: HostId) -> Option<&'a [LinkId]> {
        self.switch.group_at(self.fabric.slots.of(dst))
    }

    /// The fast-failover backup of `primary`, if it is this switch's
    /// egress and has one.
    pub fn failover_backup(&self, primary: LinkId) -> Option<LinkId> {
        let backup = *self.fabric.failover.get(primary.index())?;
        let own = self.fabric.links[primary.index()].src == Node::Switch(self.switch.id);
        (own && backup != Switch::NO_LINK).then_some(backup)
    }
}

impl Deref for SwitchView<'_> {
    type Target = Switch;

    fn deref(&self) -> &Switch {
        self.switch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, PacketKind, MSS};
    use presto_simcore::EventQueue;

    /// A minimal harness driving the fabric alone.
    struct Harness {
        now: SimTime,
        queue: EventQueue<NetEvent>,
        delivered: Vec<(SimTime, HostId, Packet)>,
    }

    struct HarnessSched<'a> {
        now: SimTime,
        queue: &'a mut EventQueue<NetEvent>,
        delivered: &'a mut Vec<(SimTime, HostId, Packet)>,
    }

    impl NetScheduler for HarnessSched<'_> {
        fn now(&self) -> SimTime {
            self.now
        }
        fn schedule_net(&mut self, delay: SimDuration, ev: NetEvent) {
            self.queue.push(self.now + delay, ev);
        }
        fn deliver(&mut self, host: HostId, packet: Packet) {
            self.delivered.push((self.now, host, packet));
        }
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                delivered: Vec::new(),
            }
        }

        fn inject(&mut self, fabric: &mut Fabric, host: HostId, pkt: Packet) -> bool {
            let mut s = HarnessSched {
                now: self.now,
                queue: &mut self.queue,
                delivered: &mut self.delivered,
            };
            fabric.inject(host, pkt, &mut s)
        }

        fn run(&mut self, fabric: &mut Fabric) {
            self.run_until(fabric, SimTime::MAX);
        }

        /// Handle every event due at or before `end`.
        fn run_until(&mut self, fabric: &mut Fabric, end: SimTime) {
            while self.queue.peek_time().is_some_and(|t| t <= end) {
                let (t, ev) = self.queue.pop().expect("peeked");
                self.now = t;
                let mut s = HarnessSched {
                    now: t,
                    queue: &mut self.queue,
                    delivered: &mut self.delivered,
                };
                fabric.handle(ev, &mut s);
            }
        }
    }

    /// host0 -- sw0 -- host1, 10 Gbps, 1 us propagation each.
    fn two_host_fabric() -> (Fabric, LinkId, LinkId) {
        let mut f = Fabric::new();
        let sw = f.add_switch();
        let up0 = f.add_link(Link::new(
            Node::Host(HostId(0)),
            Node::Switch(sw),
            10_000_000_000,
            SimDuration::from_micros(1),
            1_000_000,
        ));
        let down1 = f.add_link(Link::new(
            Node::Switch(sw),
            Node::Host(HostId(1)),
            10_000_000_000,
            SimDuration::from_micros(1),
            1_000_000,
        ));
        f.attach_host(HostId(0), up0);
        f.install_l2(sw, Mac::host(HostId(1)), down1);
        (f, up0, down1)
    }

    fn data_pkt(len: u32, seq: u64) -> Packet {
        Packet {
            flow: FlowKey::new(HostId(0), HostId(1), 5, 6),
            src_host: HostId(0),
            dst_host: HostId(1),
            dst_mac: Mac::host(HostId(1)),
            flowcell: 0,
            ce: false,
            kind: PacketKind::Data {
                seq,
                len,
                retx: false,
            },
        }
    }

    #[test]
    fn end_to_end_delivery_and_timing() {
        let (mut f, ..) = two_host_fabric();
        let mut h = Harness::new();
        assert!(h.inject(&mut f, HostId(0), data_pkt(MSS, 0)));
        h.run(&mut f);
        assert_eq!(h.delivered.len(), 1);
        let (t, host, pkt) = h.delivered[0];
        assert_eq!(host, HostId(1));
        assert_eq!(pkt.payload_bytes(), MSS);
        // Two serializations of 1538B at 10G (1231ns each, ceil) + 2us prop.
        assert_eq!(t.as_nanos(), 2 * 1231 + 2_000);
    }

    #[test]
    fn pipeline_overlaps_serialization() {
        let (mut f, ..) = two_host_fabric();
        let mut h = Harness::new();
        for i in 0..10 {
            assert!(h.inject(&mut f, HostId(0), data_pkt(MSS, i * MSS as u64)));
        }
        h.run(&mut f);
        assert_eq!(h.delivered.len(), 10);
        // Delivery is in order and spaced by one serialization time.
        for w in h.delivered.windows(2) {
            let dt = w[1].0 - w[0].0;
            assert_eq!(dt.as_nanos(), 1231);
        }
        // Last delivery: first delivery + 9 serializations.
        let first = h.delivered[0].0;
        let last = h.delivered[9].0;
        assert_eq!((last - first).as_nanos(), 9 * 1231);
    }

    /// A fault on `two_host_fabric`, given its uplink and downlink.
    type Fault = fn(&mut Fabric, LinkId, LinkId);

    /// Delivery `(instant, seq)` pairs of three back-to-back MSS packets
    /// on `two_host_fabric`, with each fault applied at its instant.
    fn deliveries_with(faults: &[(u64, Fault)]) -> Vec<(u64, u64)> {
        let (mut f, up0, down1) = two_host_fabric();
        let mut h = Harness::new();
        for i in 0..3 {
            assert!(h.inject(&mut f, HostId(0), data_pkt(MSS, i * MSS as u64)));
        }
        for (at, fault) in faults {
            h.run_until(&mut f, SimTime::from_nanos(*at));
            fault(&mut f, up0, down1);
        }
        h.run(&mut f);
        h.delivered
            .iter()
            .map(|(t, _, p)| match p.kind {
                PacketKind::Data { seq, .. } => (t.as_nanos(), seq),
                _ => unreachable!("only data was sent"),
            })
            .collect()
    }

    #[test]
    fn faults_between_commit_and_arrival_keep_order_and_instants() {
        // Serialization s = 1231 ns per hop, propagation 1 µs. Packet i
        // leaves the host at i * s, reaches the switch at (i + 1) * s +
        // 1 µs and the host at (i + 2) * s + 2 µs.
        let s = SimDuration::transmission(1538, 10_000_000_000).as_nanos();
        let seqs = [0, MSS as u64, 2 * MSS as u64];
        let clean = deliveries_with(&[]);
        let want: Vec<(u64, u64)> = (0..3)
            .map(|i| ((i + 2) * s + 2_000, seqs[i as usize]))
            .collect();
        assert_eq!(clean, want);

        // The uplink goes down with packet 0 propagating and packet 1 on
        // the wire (t = 1300 ns): committed packets still arrive, queued
        // ones still drain, all at the fault-free instants.
        let down: Fault = |f, up0, _| f.set_link_down(up0);
        assert_eq!(deliveries_with(&[(1_300, down)]), clean);

        // The downlink halves its rate at t = 3500 ns, with packet 0
        // propagating and packet 1 on the wire: both keep their instants;
        // packet 2, committed at 3 s + 1 µs, serializes at half rate.
        let slow: Fault = |f, _, down1| f.degrade_link(down1, 0.5);
        let half = SimDuration::transmission(1538, 5_000_000_000).as_nanos();
        let mut want = clean.clone();
        want[2].0 = 3 * s + 1_000 + half + 1_000;
        assert_eq!(deliveries_with(&[(3_500, slow)]), want);
        assert_eq!(deliveries_with(&[(1_300, down), (3_500, slow)]), want);
    }

    #[test]
    fn unroutable_packet_counts_drop() {
        let (mut f, ..) = two_host_fabric();
        let mut h = Harness::new();
        let mut p = data_pkt(100, 0);
        p.dst_mac = Mac::host(HostId(7)); // no entry
        p.dst_host = HostId(7);
        h.inject(&mut f, HostId(0), p);
        h.run(&mut f);
        assert!(h.delivered.is_empty());
        assert_eq!(f.total_data_drops(), 1);
    }

    #[test]
    fn loss_rate_counts_queue_drops() {
        let (mut f, _, down1) = two_host_fabric();
        // Make the downlink a 10:1 bottleneck with a tiny buffer so the
        // burst overflows it.
        f.link_mut(down1).rate_bps = 1_000_000_000;
        f.link_mut(down1).queue_capacity_bytes = 3 * 1538;
        let mut h = Harness::new();
        for i in 0..20 {
            h.inject(&mut f, HostId(0), data_pkt(MSS, i * MSS as u64));
        }
        h.run(&mut f);
        assert!(h.delivered.len() < 20, "queue should have dropped some");
        assert!(f.total_data_drops() > 0);
        assert!(f.loss_rate() > 0.0);
        f.reset_counters();
        assert_eq!(f.total_data_drops(), 0);
        assert_eq!(f.loss_rate(), 0.0);
    }

    #[test]
    fn shared_buffer_admission_drops_and_releases() {
        // host0 -> sw0 -> host1 with a 1:10 bottleneck downlink and a tiny
        // shared pool at sw0: the burst must be cut by DT admission, and
        // the pool must fully drain afterwards.
        let (mut f, _, down1) = two_host_fabric();
        f.link_mut(down1).rate_bps = 1_000_000_000;
        f.link_mut(down1).queue_capacity_bytes = u64::MAX >> 1;
        f.set_shared_buffer(
            SwitchId(0),
            crate::buffer::SharedBuffer::new(10 * 1538, 1.0),
        );
        let mut h = Harness::new();
        for i in 0..40 {
            h.inject(&mut f, HostId(0), data_pkt(MSS, i * MSS as u64));
        }
        h.run(&mut f);
        assert!(h.delivered.len() < 40, "DT should have refused some");
        assert!(f.total_data_drops() > 0);
        let buf = f.shared_buffer(SwitchId(0)).unwrap();
        assert_eq!(buf.used(), 0, "pool must drain to zero");
    }

    #[test]
    fn shared_buffer_admission_credits_packet_finished_at_now() {
        // sw0 has two egress ports into one DT pool. Port `fast` carries
        // one packet finishing at `done`; port `slow` holds three. At
        // `done`, before `fast`'s TxDone pops, the pool must already
        // count `fast`'s packet as gone: without that credit, DT would
        // refuse `slow` a fourth packet at exactly the instant a
        // one-event-per-packet replay admits it.
        let wire = (MSS + crate::packet::WIRE_OVERHEAD) as u64;
        let mut f = Fabric::new();
        let sw = f.add_switch();
        let port = |f: &mut Fabric, host: u32, rate_bps: u64| {
            f.add_link(Link::new(
                Node::Switch(sw),
                Node::Host(HostId(host)),
                rate_bps,
                SimDuration::from_micros(1),
                u64::MAX >> 1,
            ))
        };
        let fast = port(&mut f, 1, 10_000_000_000);
        let slow = port(&mut f, 2, 1_000_000_000);
        // alpha = 1: `slow` (3 wire) is admitted only while the pool has
        // more than 3 wire free, i.e. while at most 3.5 wire are used.
        f.set_shared_buffer(sw, crate::buffer::SharedBuffer::new(13 * wire / 2, 1.0));
        let mut h = Harness::new();
        let mut enqueue_at = |f: &mut Fabric, now: SimTime, link: LinkId| {
            let mut s = HarnessSched {
                now,
                queue: &mut h.queue,
                delivered: &mut h.delivered,
            };
            f.enqueue_on(link, data_pkt(MSS, 0), &mut s)
        };
        assert!(enqueue_at(&mut f, SimTime::ZERO, fast));
        for _ in 0..3 {
            assert!(enqueue_at(&mut f, SimTime::ZERO, slow));
        }
        assert_eq!(f.shared_buffer(sw).unwrap().used(), 4 * wire);
        let done = SimTime::ZERO + SimDuration::transmission(wire, 10_000_000_000);
        let before = done - SimDuration::from_nanos(1);
        assert_eq!(f.link(fast).finished_unsettled(done), wire);
        assert!(!enqueue_at(&mut f, before, slow), "no credit yet");
        assert!(enqueue_at(&mut f, done, slow), "credit at done");
        assert_eq!(f.link(slow).counters.dropped_packets, 1);
        assert_eq!(f.shared_buffer(sw).unwrap().used(), 5 * wire);
        // The TxDone then settles the pool for real.
        h.run(&mut f);
        assert_eq!(f.shared_buffer(sw).unwrap().used(), 0);
        assert_eq!(h.delivered.len(), 5);
    }

    #[test]
    fn down_link_triggers_failover_path() {
        // host0 -> sw0 with two parallel links to host1's "switch"; model
        // failover by installing primary+backup toward two distinct links.
        let mut f = Fabric::new();
        let sw = f.add_switch();
        let up0 = f.add_link(Link::new(
            Node::Host(HostId(0)),
            Node::Switch(sw),
            10_000_000_000,
            SimDuration::from_micros(1),
            1_000_000,
        ));
        let primary = f.add_link(Link::new(
            Node::Switch(sw),
            Node::Host(HostId(1)),
            10_000_000_000,
            SimDuration::from_micros(1),
            1_000_000,
        ));
        let backup = f.add_link(Link::new(
            Node::Switch(sw),
            Node::Host(HostId(1)),
            10_000_000_000,
            SimDuration::from_micros(1),
            1_000_000,
        ));
        f.attach_host(HostId(0), up0);
        f.install_l2(sw, Mac::host(HostId(1)), primary);
        f.install_failover(primary, backup);

        f.set_link_down(primary);
        let mut h = Harness::new();
        h.inject(&mut f, HostId(0), data_pkt(MSS, 0));
        h.run(&mut f);
        assert_eq!(h.delivered.len(), 1);
        assert_eq!(f.link(backup).counters.tx_packets, 1);
        assert_eq!(f.link(primary).counters.tx_packets, 0);
    }
}
