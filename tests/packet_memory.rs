//! What the fabric's packet storage costs.
//!
//! Links hold every packet from enqueue to arrival in one arena per
//! fabric, which grows only when no slot is free. So its slot count is
//! the most packets the fabric held at once, and it is pinned here for
//! the paper-grid headline point and the 8192-host three-tier workload:
//! a change that stores packets more loosely, or moves when they are
//! queued, moves it. Once the arena has grown, a packet's hops allocate
//! nothing, and the headline run as a whole allocates little.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use presto::netsim::{
    Fabric, FlowKey, HostId, LinkConfig, LinkId, Mac, NetEvent, NetScheduler, Node, Packet,
    PacketKind, ThreeTierSpec, MSS,
};
use presto::simcore::{SimDuration, SimTime};
use presto::testbed::{stride_elephants, Scenario, SchemeSpec};

thread_local! {
    /// Heap allocation calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's calls apart, so tests
/// running beside each other do not count into one another.
struct CountingAlloc;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` that needs no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The paper-grid headline point, presto/testbed16/stride:8 at seed 1
/// over 40 ms, as `lab run` builds it.
fn headline() -> Scenario {
    let text = "[campaign]\nname = \"headline\"\nduration_ms = 40\nwarmup_ms = 10\n\
                [axes]\nscheme = [\"presto\"]\nworkload = [\"stride:8\"]\nseed = [1]\n";
    let points = presto_lab::Campaign::from_toml(text)
        .and_then(|c| c.expand())
        .expect("headline campaign expands");
    points[0].to_scenario()
}

/// 64 stride elephants on the 8192-host three-tier fabric, as the
/// benchmark's `threetier_8192` workload runs them.
fn eight_thousand_hosts() -> Scenario {
    let mut flows = stride_elephants(8192, 256);
    flows.truncate(64);
    Scenario::builder(SchemeSpec::presto(), 1)
        .three_tier(ThreeTierSpec {
            pods: 32,
            tors_per_pod: 16,
            hosts_per_tor: 16,
            aggs_per_pod: 16,
            ..ThreeTierSpec::default()
        })
        .duration(SimDuration::from_millis(10))
        .warmup(SimDuration::from_millis(2))
        .elephants(flows)
        .build()
}

/// The run's report digest and the fabric's packet slots after it.
fn digest_and_slots(scenario: &Scenario) -> (u64, usize) {
    let mut sim = scenario.build();
    let digest = sim.run().digest();
    (digest, sim.topo.fabric.packet_slots())
}

#[test]
fn headline_point_holds_one_slot_per_packet_held_at_once() {
    let (digest, slots) = digest_and_slots(&headline());
    assert_eq!(digest, 0x6a0e2d56a214c967, "the run itself moved");
    assert_eq!(slots, 3_792);
}

#[test]
fn eight_thousand_host_fabric_holds_one_slot_per_packet_held_at_once() {
    let (digest, slots) = digest_and_slots(&eight_thousand_hosts());
    assert_eq!(digest, 0xa541e7e93c48f261, "the run itself moved");
    assert_eq!(slots, 12_522);
}

#[test]
fn headline_run_allocates_little_once_built() {
    // A warm run reuses its buffers: the event wheel's slots, the sender
    // output of each ACK and the egress flow queues are recycled, so what
    // remains is growth to the run's high-water marks.
    let mut sim = headline().build();
    let before = allocs();
    let digest = sim.run().digest();
    let during = allocs() - before;
    assert_eq!(digest, 0x6a0e2d56a214c967, "the run itself moved");
    assert!(during <= 1_500, "the run made {during} allocations");
}

/// A fabric driver that allocates nothing once its buffers have grown:
/// a binary heap of pending events and a count of deliveries.
#[derive(Default)]
struct Driver {
    now: SimTime,
    seq: u64,
    pending: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    delivered: usize,
}

/// [`NetEvent`], ordered for the heap.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    TxDone(u32),
    Arrive(u32),
}

impl NetScheduler for Driver {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_net(&mut self, delay: SimDuration, ev: NetEvent) {
        let ev = match ev {
            NetEvent::TxDone { link } => Event::TxDone(link.0),
            NetEvent::Arrive { link } => Event::Arrive(link.0),
        };
        self.seq += 1;
        self.pending.push(Reverse((self.now + delay, self.seq, ev)));
    }

    fn deliver(&mut self, _host: HostId, _packet: Packet) {
        self.delivered += 1;
    }
}

impl Driver {
    /// Hand every pending event to `fabric`, in time order.
    fn drain(&mut self, fabric: &mut Fabric) {
        while let Some(Reverse((t, _, ev))) = self.pending.pop() {
            self.now = t;
            let ev = match ev {
                Event::TxDone(l) => NetEvent::TxDone { link: LinkId(l) },
                Event::Arrive(l) => NetEvent::Arrive { link: LinkId(l) },
            };
            fabric.handle(ev, self);
        }
    }
}

#[test]
fn packet_hops_allocate_nothing_once_the_arena_has_grown() {
    // Two hosts send bursts through one switch to a third, over a 10:1
    // bottleneck: packets queue at the uplinks and pile up at the
    // downlink, three links hold them at once.
    let mut f = Fabric::new();
    let sw = f.add_switch();
    let cfg = LinkConfig::new(10_000_000_000, SimDuration::from_micros(1), 1 << 20);
    for h in 0..2 {
        let up = f.add_link(Node::Host(HostId(h)), Node::Switch(sw), cfg);
        f.attach_host(HostId(h), up);
    }
    let down = f.add_link(Node::Switch(sw), Node::Host(HostId(2)), cfg);
    f.degrade_link(down, 0.1);
    f.install_l2(sw, Mac::host(HostId(2)), down);

    let burst = |f: &mut Fabric, d: &mut Driver| {
        for i in 0..200u64 {
            let src = HostId((i % 2) as u32);
            let kind = PacketKind::Data {
                seq: i * MSS as u64,
                len: MSS,
                retx: false,
            };
            let flow = FlowKey::new(src, HostId(2), 1, 2);
            assert!(f.inject(
                src,
                Packet::new(flow, Mac::host(HostId(2)), i / 45, kind),
                d
            ));
        }
        d.drain(f);
    };
    let mut d = Driver::default();
    burst(&mut f, &mut d);
    let slots = f.packet_slots();
    assert!(slots > 100, "the burst queued {slots} packets at most");

    let before = allocs();
    burst(&mut f, &mut d);
    assert_eq!(allocs() - before, 0, "a warm fabric allocated");
    assert_eq!(d.delivered, 400);
    assert_eq!(f.packet_slots(), slots, "the arena reuses its slots");
}
