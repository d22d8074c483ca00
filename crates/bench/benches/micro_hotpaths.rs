//! Criterion microbenchmarks of the simulator's hot paths.
//!
//! These measure the cost of the data structures every simulated packet
//! touches: the event queue, a link's departure cycle, a switch's
//! shadow-label lookup, the GRO merge/flush cycle, Algorithm 1's flowcell
//! scheduler, prequal's probe pool, TSO splitting, and the TCP receiver's
//! out-of-order store.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use presto_core::FlowcellScheduler;
use presto_endhost::{tso_split, tso_split_into, EdgePolicy, PathTag, ReceiveOffload, TxSegment};
use presto_gro::{OfficialGro, PrestoGro};
use presto_netsim::{
    Fabric, FlowKey, HostId, LinkConfig, LinkCounters, LinkId, LinkQueue, Mac, Node, Packet,
    PacketArena, PacketKind, MSS,
};
use presto_probe::{HclPool, ProbeParams};
use presto_simcore::{EventQueue, HeapEventQueue, SimDuration, SimTime};
use presto_transport::TcpReceiver;

fn flow() -> FlowKey {
    FlowKey::new(HostId(0), HostId(1), 5, 80)
}

fn data_packet(i: u64) -> Packet {
    let kind = PacketKind::Data {
        seq: i * MSS as u64,
        len: MSS,
        retx: false,
    };
    Packet::new(flow(), Mac::host(HostId(1)), i / 45, kind)
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
}

/// Push `times` in order, then pop everything — one bench body shared by
/// the calendar [`EventQueue`] and the reference [`HeapEventQueue`].
macro_rules! queue_bench {
    ($c:expr, $name:expr, $times:expr, $ty:ty) => {
        $c.bench_function($name, |b| {
            b.iter(|| {
                let mut q: $ty = <$ty>::new();
                for (i, &t) in $times.iter().enumerate() {
                    q.push(t, i as u64);
                }
                let mut sum = 0u64;
                while let Some((_, v)) = q.pop() {
                    sum += v;
                }
                black_box(sum)
            })
        });
    };
}

/// Steady state of a busy fabric, modelled on `perfbench`'s `stride`
/// workload so this number sits beside its `run_s`: 64 links, each with
/// a serialization end (`TxDone`, +1.231 µs) and an arrival (+2.231 µs)
/// pending, beside 12 k far, stale RTO-scale timers that never come due.
/// Every popped `TxDone` schedules the link's next pair. Every arrival
/// schedules its ACK's serialization end and arrival (+68 ns, +1.068 µs)
/// and, one time in four, a follow-up at a pseudo-random delay under
/// 3 µs, as `EgressDrain`, NIC polls and GRO holds do. So the queue runs
/// at about 220 events per simulated µs. In the calendar queue the first
/// link pushes claim its delay lanes, drain, and the four constant
/// delays reclaim them; the random delays take the wheel, and the stale
/// timers the overflow tier. Events are `u64` codes: links below 64 are
/// `TxDone`s, 64.. `Arrive`s, `ACK` an ACK or follow-up event, and
/// `u64::MAX` a stale timer. The five-argument form wraps each code in a
/// wider payload (`$wrap`) and reads it back (`$code`).
macro_rules! link_mix_bench {
    ($c:expr, $name:expr, $ty:ty) => {
        link_mix_bench!($c, $name, $ty, |code: u64| code, |ev: u64| ev)
    };
    ($c:expr, $name:expr, $ty:ty, $wrap:expr, $code:expr) => {
        $c.bench_function($name, |b| {
            const LINKS: u64 = 64;
            const ACK: u64 = 2 * LINKS;
            const STALE: u64 = u64::MAX;
            let (wrap, code) = ($wrap, $code);
            let ns = SimDuration::from_nanos;
            let (tx, arrive) = (ns(1_231), ns(2_231));
            let (ack_tx, ack_arrive) = (ns(68), ns(1_068));
            b.iter(|| {
                let mut q: $ty = <$ty>::new();
                for i in 0..12_000u64 {
                    let t = 10_000_000 + (i * 104_729) % 40_000_000;
                    q.push(SimTime::from_nanos(t), wrap(STALE));
                }
                for link in 0..LINKS {
                    q.push(SimTime::from_nanos(link * 19), wrap(link));
                }
                let mut x = 0x2545_F491_4F6C_DD1Du64;
                let mut arrivals = 0u64;
                for _ in 0..100_000 {
                    let (now, ev) = q.pop().expect("links keep the queue busy");
                    let ev = code(ev);
                    if ev < LINKS {
                        q.push(now + tx, wrap(ev));
                        q.push(now + arrive, wrap(LINKS + ev));
                    } else if ev < ACK {
                        arrivals += 1;
                        q.push(now + ack_tx, wrap(ACK));
                        q.push(now + ack_arrive, wrap(ACK));
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if x >> 62 == 0 {
                            q.push(now + ns((x >> 20) % 3_000), wrap(ACK));
                        }
                    }
                }
                black_box(arrivals)
            })
        });
    };
}

// The 16-byte link-mix payload is as wide as the simulator's own event.
const _: () =
    assert!(std::mem::size_of::<[u64; 2]>() == std::mem::size_of::<presto_testbed::sim::Event>());

/// The pattern a wheel slot's head cursor serves: the bucket being drained
/// keeps receiving keys. 32 keys seed one 256 ns bucket; every pop pushes
/// a follow-up into the rest of that bucket (or the next one) until 20 k
/// events have fired, as a busy port's `TxDone`/`Arrive` pairs and the NIC
/// and CPU events they trigger do.
macro_rules! drain_push_bench {
    ($c:expr, $name:expr, $ty:ty) => {
        $c.bench_function($name, |b| {
            b.iter(|| {
                let mut q: $ty = <$ty>::new();
                for i in 0..32u64 {
                    q.push(SimTime::from_nanos(i * 7), i);
                }
                let mut sum = 0u64;
                for i in 0..20_000u64 {
                    let (now, v) = q.pop().expect("every pop pushes one");
                    sum += v;
                    q.push(now + SimDuration::from_nanos((i * 37) % 300), i);
                }
                black_box(sum)
            })
        });
    };
}

fn bench_queue_head_to_head(c: &mut Criterion) {
    // Uniform near-horizon timers: the common case (packet serializations,
    // coalescing timers) — everything lands in the calendar wheel.
    let uniform: Vec<SimTime> = (0..2000u64)
        .map(|i| SimTime::from_nanos((i * 7919) % 100_000))
        .collect();
    queue_bench!(c, "queue_uniform_2k_calendar", uniform, EventQueue<u64>);
    queue_bench!(c, "queue_uniform_2k_heap", uniform, HeapEventQueue<u64>);

    // Bimodal near/far: 80% within 100 µs, 20% RTO-like timers 10-50 ms
    // out — exercises the overflow tier and its migration.
    let bimodal: Vec<SimTime> = (0..2000u64)
        .map(|i| {
            if i % 5 == 4 {
                SimTime::from_nanos(10_000_000 + (i * 104_729) % 40_000_000)
            } else {
                SimTime::from_nanos((i * 7919) % 100_000)
            }
        })
        .collect();
    queue_bench!(c, "queue_bimodal_2k_calendar", bimodal, EventQueue<u64>);
    queue_bench!(c, "queue_bimodal_2k_heap", bimodal, HeapEventQueue<u64>);

    // Same-instant burst: many events at few distinct times (incast
    // arrivals) — stresses the (time, seq) FIFO tiebreak path.
    let burst: Vec<SimTime> = (0..2000u64)
        .map(|i| SimTime::from_nanos((i / 250) * 4096))
        .collect();
    queue_bench!(c, "queue_burst_2k_calendar", burst, EventQueue<u64>);
    queue_bench!(c, "queue_burst_2k_heap", burst, HeapEventQueue<u64>);

    link_mix_bench!(c, "event_queue_link_mix_calendar", EventQueue<u64>);
    // The code in the first word; the second stands in for a timer
    // generation.
    link_mix_bench!(
        c,
        "event_queue_link_mix_calendar_event16",
        EventQueue<[u64; 2]>,
        |code: u64| [code, 0],
        |ev: [u64; 2]| ev[0]
    );
    link_mix_bench!(c, "event_queue_link_mix_heap", HeapEventQueue<u64>);

    drain_push_bench!(c, "queue_drain_push_calendar", EventQueue<u64>);
    drain_push_bench!(c, "queue_drain_push_heap", HeapEventQueue<u64>);
}

/// One busy 10 Gbps port, the netsim layer alone: each of 1000 departures
/// settles the packet on the wire (its `TxDone`), offers a new packet
/// behind a 16-packet backlog (occupancy and tail-drop check), commits
/// the next one, and hands over the packet settled before it (its
/// `Arrive`, due 1 µs after its `TxDone`), so in-flight packets do not
/// pile up in the link.
fn bench_link_departure(c: &mut Criterion) {
    c.bench_function("link_departure", |b| {
        let cfg = LinkConfig::new(10_000_000_000, SimDuration::from_micros(1), 1 << 30);
        let rate = cfg.rate_bps();
        let mut arena = PacketArena::default();
        let mut link = LinkQueue::default();
        let mut counters = LinkCounters::default();
        let mut now = SimTime::ZERO;
        for i in 0..16 {
            link.enqueue(&mut arena, now, data_packet(i), &cfg, &mut counters);
        }
        let mut done = now + link.commit(&arena, now, rate).expect("backlog");
        b.iter(|| {
            let mut bytes = 0u64;
            for i in 0..1000 {
                now = done;
                bytes += link.settle(&mut counters);
                link.enqueue(&mut arena, now, data_packet(i), &cfg, &mut counters);
                done = now + link.commit(&arena, now, rate).expect("backlog");
                black_box(link.arrive(&mut arena));
            }
            black_box(bytes)
        })
    });
}

/// A transit switch loaded like an aggregation switch of the 8192-host
/// three-tier workload: 128 active hosts × 16 trees, a quarter of them
/// below one of 4 down-neighbors and the rest behind the uplinks. It
/// routes a stream of 1024 shadow-labelled packets spread over every
/// (host, tree), resolving each destination's host slot as the fabric
/// does per hop.
fn bench_switch_forward_shadow(c: &mut Criterion) {
    const HOSTS: u32 = 128;
    const TREES: u32 = 16;
    // The workload's active hosts: 64 stride sources and their
    // destinations 256 ids on.
    let host = |h: u32| HostId(if h < 64 { h } else { 192 + h });
    c.bench_function("switch_forward_shadow", |b| {
        let mut fabric = Fabric::new();
        let sw = fabric.add_switch();
        // 16 uplinks and 4 down-groups of 4 links.
        for _ in 0..2 * TREES {
            fabric.add_link(
                Node::Switch(sw),
                Node::Switch(sw),
                LinkConfig::new(10_000_000_000, SimDuration::from_micros(1), 1 << 20),
            );
        }
        let ups: Vec<LinkId> = (0..TREES).map(LinkId).collect();
        for h in 0..HOSTS {
            let dst = host(h);
            let row: Vec<LinkId> = match h % 16 {
                d @ 0..=3 => (0..TREES).map(|t| LinkId(TREES + 4 * d + t % 4)).collect(),
                _ => ups.clone(),
            };
            fabric.install_label_row(sw, dst, &row);
        }
        let packets: Vec<Packet> = (0..1024u32)
            .map(|i| {
                let h = (i * 37) % HOSTS;
                let mut p = data_packet(i as u64);
                p.flow.dst = host(h);
                p.dst_mac = Mac::shadow(p.flow.dst, (i * 7) % TREES);
                p
            })
            .collect();
        b.iter(|| {
            let mut sum = 0u64;
            for p in &packets {
                sum += fabric.route(sw, p).map_or(0, |l| l.0 as u64);
            }
            black_box(sum)
        })
    });
}

fn bench_gro(c: &mut Criterion) {
    c.bench_function("presto_gro_inorder_batch64", |b| {
        b.iter(|| {
            let mut g = PrestoGro::new();
            let t = SimTime::from_micros(1);
            for i in 0..64 {
                g.on_packet(t, &data_packet(i));
            }
            black_box(g.flush(t).len())
        })
    });
    c.bench_function("official_gro_inorder_batch64", |b| {
        b.iter(|| {
            let mut g = OfficialGro::new();
            let t = SimTime::from_micros(1);
            for i in 0..64 {
                g.on_packet(t, &data_packet(i));
            }
            black_box(g.flush(t).len())
        })
    });
    c.bench_function("presto_gro_reordered_batch64", |b| {
        // Interleave two flowcells to exercise the multi-segment path.
        let order: Vec<u64> = (0..32).flat_map(|i| [i, 45 + i]).collect();
        b.iter(|| {
            let mut g = PrestoGro::new();
            let t = SimTime::from_micros(1);
            for &i in &order {
                g.on_packet(t, &data_packet(i));
            }
            black_box(g.flush(t).len())
        })
    });
}

fn bench_flowcell_scheduler(c: &mut Criterion) {
    c.bench_function("flowcell_assign_64kb", |b| {
        let mut s = FlowcellScheduler::new();
        s.set_labels(
            HostId(1),
            (0..4).map(|t| Mac::shadow(HostId(1), t)).collect(),
        );
        b.iter(|| black_box(s.assign(SimTime::ZERO, flow(), 64 * 1024, false)))
    });
}

/// One probe round as `skew_prequal` drives it at each host: 16 probed
/// hosts × 4 trees recorded into the default 32-entry pool at one instant,
/// the round closed, then one `classify` per host.
fn bench_probe_pool(c: &mut Criterion) {
    c.bench_function("probe_pool_round", |b| {
        let mut pool = HclPool::from_params(ProbeParams::default());
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            let now = SimTime::from_micros(100 * round);
            for h in 0..16u32 {
                let rif = (h as u64 + round) % 3;
                for tree in 0..4u32 {
                    pool.record(now, tree, HostId(h), rif, 1_000 * tree as u64);
                }
            }
            pool.note_round(now);
            for h in 0..16u32 {
                black_box(pool.classify(h % 4, HostId(h)));
            }
        })
    });
}

fn bench_tso(c: &mut Criterion) {
    c.bench_function("tso_split_64kb", |b| {
        let seg = TxSegment {
            flow: flow(),
            seq: 0,
            len: 64 * 1024,
            retx: false,
            tag: PathTag {
                dst_mac: Mac::shadow(HostId(1), 2),
                flowcell: 9,
            },
        };
        b.iter(|| black_box(tso_split(seg).len()))
    });
    // Same split into one reused Vec, as the egress path does: one warm
    // allocation instead of a fresh 45-packet Vec per segment.
    c.bench_function("tso_split_64kb_pooled", |b| {
        let seg = TxSegment {
            flow: flow(),
            seq: 0,
            len: 64 * 1024,
            retx: false,
            tag: PathTag {
                dst_mac: Mac::shadow(HostId(1), 2),
                flowcell: 9,
            },
        };
        let mut buf = Vec::new();
        b.iter(|| {
            tso_split_into(seg, &mut buf);
            let n = buf.len();
            buf.clear();
            black_box(n)
        })
    });
}

fn bench_receiver(c: &mut Criterion) {
    c.bench_function("tcp_receiver_inorder_100", |b| {
        b.iter(|| {
            let mut r = TcpReceiver::new();
            for i in 0..100u64 {
                r.on_segment(i * 1460, 1460);
            }
            black_box(r.rcv_nxt())
        })
    });
    c.bench_function("tcp_receiver_reordered_100", |b| {
        let order: Vec<u64> = (0..50).flat_map(|i| [i + 50, i]).collect();
        b.iter(|| {
            let mut r = TcpReceiver::new();
            for &i in &order {
                r.on_segment(i * 1460, 1460);
            }
            black_box(r.rcv_nxt())
        })
    });
}

criterion_group!(
    name = hotpaths;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_event_queue, bench_queue_head_to_head, bench_link_departure, bench_switch_forward_shadow, bench_gro, bench_flowcell_scheduler, bench_probe_pool, bench_tso, bench_receiver
);
criterion_main!(hotpaths);
