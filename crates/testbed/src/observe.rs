//! The observer seam: the one way to watch a run.
//!
//! The event queue and the fabric know nothing of observability. A run is
//! watched by [`Observer`]s attached to the [`Simulation`](crate::Simulation),
//! which hear four things: an event was scheduled, an event is about to be
//! dispatched, a component recorded a [`TraceEvent`], and a sender's edge
//! policy tagged a segment with its path. With nothing attached, each hook
//! site costs one branch.
//!
//! Two observers exist: `Telemetry`, attached by
//! [`Simulation::enable_telemetry`](crate::Simulation::enable_telemetry),
//! and [`EventStreamHash`].

use std::any::Any;
use std::hash::{Hash, Hasher};

use presto_endhost::TxSegment;
use presto_netsim::{Fabric, FlowKey, LinkId};
use presto_simcore::{EventQueue, FxHashMap, FxHasher, SimDuration, SimTime};
use presto_telemetry::{
    shared_sink, QueueDepthSummary, QueueProfileEntry, SharedSink, TelemetryConfig,
    TelemetryReport, TraceEvent,
};

use crate::sim::{Event, EVENT_NAMES};

/// A watcher of one run. Every hook defaults to doing nothing, and none
/// can change what the simulation does.
pub trait Observer: Any {
    /// `ev` was scheduled at `now` to fire at `at`.
    fn scheduled(&mut self, _now: SimTime, _at: SimTime, _ev: &Event) {}

    /// `ev`, due at `at`, is next: it has left `queue`, and `fabric` is as
    /// the previous event left it.
    fn dispatching(&mut self, _at: SimTime, _ev: &Event, _fabric: &Fabric, _queue: &Queue) {}

    /// A component recorded `ev` at `now`.
    fn recorded(&mut self, _now: SimTime, _ev: &TraceEvent) {}

    /// The sender's edge policy tagged `seg` with its path, and the
    /// segment joins the host's egress queue.
    fn tagged(&mut self, _now: SimTime, _seg: &TxSegment) {}
}

/// The simulation's event queue.
pub type Queue = EventQueue<Event>;

/// The event queue and the observers that watch it. Every push goes
/// through [`Agenda::push`], so the scheduled hook sees every event.
#[derive(Default)]
pub(crate) struct Agenda {
    pub(crate) queue: Queue,
    pub(crate) observers: Vec<Box<dyn Observer>>,
}

impl Agenda {
    /// Schedule `ev` at `at`; `now` is the simulation clock.
    #[inline]
    pub(crate) fn push(&mut self, now: SimTime, at: SimTime, ev: Event) {
        if !self.observers.is_empty() {
            notify(&mut self.observers, move |o| o.scheduled(now, at, &ev));
        }
        self.queue.push(at, ev);
    }

    /// Announce `ev`, just popped, due at `at`.
    #[inline]
    pub(crate) fn dispatching(&mut self, at: SimTime, ev: Event, fabric: &Fabric) {
        if !self.observers.is_empty() {
            let queue = &self.queue;
            notify(&mut self.observers, move |o| {
                o.dispatching(at, &ev, fabric, queue)
            });
        }
    }

    /// Report the trace event `ev` builds, building it only if someone
    /// is watching.
    #[inline]
    pub(crate) fn record(&mut self, now: SimTime, ev: impl FnOnce() -> TraceEvent) {
        if !self.observers.is_empty() {
            let ev = ev();
            notify(&mut self.observers, move |o| o.recorded(now, &ev));
        }
    }

    /// Announce that `seg` was tagged with its path.
    #[inline]
    pub(crate) fn tagged(&mut self, now: SimTime, seg: &TxSegment) {
        if !self.observers.is_empty() {
            notify(&mut self.observers, |o| o.tagged(now, seg));
        }
    }
}

/// Call `hook` on every observer. Out of line and cold, so a hook site
/// with nothing attached costs its caller one branch: inlined at the push
/// and dispatch sites, the observer loops slowed an unobserved `stride`
/// run by about 15%.
#[cold]
#[inline(never)]
fn notify(observers: &mut [Box<dyn Observer>], mut hook: impl FnMut(&mut dyn Observer)) {
    for o in observers {
        hook(&mut **o);
    }
}

/// The observer of type `T` among `observers`, if any.
pub(crate) fn find<T: Observer>(observers: &mut [Box<dyn Observer>]) -> Option<&mut T> {
    observers.iter_mut().find_map(|o| {
        let o: &mut dyn Any = &mut **o;
        o.downcast_mut()
    })
}

/// A 64-bit hash of every dispatched event, its time and the event
/// itself (kind and target), in dispatch order. Two runs with equal
/// hashes dispatched the same events in the same order: a stronger
/// contract than a report digest plus per-kind counts for a change that
/// must not move the event stream.
#[derive(Default)]
pub struct EventStreamHash(FxHasher);

impl EventStreamHash {
    /// The hash of the events dispatched so far.
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

impl Observer for EventStreamHash {
    fn dispatching(&mut self, at: SimTime, ev: &Event, _fabric: &Fabric, _queue: &Queue) {
        self.0.write_u64(at.as_nanos());
        ev.hash(&mut self.0);
    }
}

/// Event kinds, one profile row each.
const KINDS: usize = EVENT_NAMES.len();

/// The telemetry layer: the trace ring that the fabric, the edge and the
/// GRO engines record into, the per-kind profile of scheduled events, and
/// the periodic link/queue sampler. Sampling follows a fixed time grid
/// from the dispatch hook instead of scheduling events, so attaching
/// telemetry never perturbs the event stream or the report digest.
pub(crate) struct Telemetry {
    pub(crate) ring: SharedSink,
    every: SimDuration,
    next_sample: SimTime,
    /// Events scheduled per kind, in [`EVENT_NAMES`] order.
    counts: [u64; KINDS],
    /// Push-to-due nanoseconds per kind.
    dwell_ns: [u64; KINDS],
    /// Pending events, and their peak since the simulation was built.
    pending: usize,
    high_water: usize,
    /// Per-link queue-depth samples (bytes), one inner vec per link.
    depth_samples: Vec<Vec<u64>>,
    /// `tx_bytes` at the previous sample, per link.
    last_tx_bytes: Vec<u64>,
    /// Running sum of per-sample utilization fractions, per link.
    util_sum: Vec<f64>,
    /// Last flowcell tag seen per flow, to record `FlowcellEmitted` once
    /// per cell rather than once per segment.
    last_cell: FxHashMap<FlowKey, u64>,
}

impl Telemetry {
    /// Fresh telemetry for a fabric of `links` links, attached before the
    /// run while `pending` events wait (their peak so far: none has been
    /// popped).
    pub(crate) fn new(cfg: TelemetryConfig, links: usize, pending: usize) -> Self {
        Telemetry {
            ring: shared_sink(cfg.ring_capacity),
            every: cfg.sample_every,
            next_sample: SimTime::ZERO + cfg.sample_every,
            counts: [0; KINDS],
            dwell_ns: [0; KINDS],
            pending,
            high_water: pending,
            depth_samples: vec![Vec::new(); links],
            last_tx_bytes: vec![0; links],
            util_sum: vec![0.0; links],
            last_cell: FxHashMap::default(),
        }
    }

    /// Take one queue-depth / utilization / event-queue sample per grid
    /// point up to and including `t`.
    fn sample_until(&mut self, t: SimTime, fabric: &Fabric, queue: &Queue) {
        let window = self.every.as_secs_f64();
        while self.next_sample <= t {
            let g = self.next_sample;
            let t_ns = g.as_nanos();
            let mut ring = self.ring.borrow_mut();
            for (i, samples) in self.depth_samples.iter_mut().enumerate() {
                let link = fabric.link(LinkId(i as u32));
                let occ = link.occupancy(g);
                samples.push(occ);
                let tx = link.counters.tx_bytes;
                // `reset_counters` at the warmup mark can move tx_bytes
                // backwards; treat that sample's delta as zero.
                let delta = tx.saturating_sub(self.last_tx_bytes[i]);
                self.last_tx_bytes[i] = tx;
                let util = (delta as f64 * 8.0) / (window * link.config().rate_bps() as f64);
                self.util_sum[i] += util.min(1.0);
                ring.record(
                    t_ns,
                    TraceEvent::LinkOccupancySample {
                        link: i as u32,
                        queue_bytes: occ,
                    },
                );
            }
            ring.record(
                t_ns,
                TraceEvent::EventQueueSample {
                    len: queue.len() as u64,
                    high_water: self.high_water as u64,
                },
            );
            self.next_sample = g + self.every;
        }
    }

    /// Fill in the sections of `rep` this observer owns: queue-depth
    /// summaries, the event profile, the queue's peak and the drained
    /// ring. The grid points
    /// between the last dispatched event and `end` are sampled first;
    /// nothing has moved since that event, so they read what they would
    /// have read when the run ended.
    pub(crate) fn report_into(
        &mut self,
        rep: &mut TelemetryReport,
        end: SimTime,
        fabric: &Fabric,
        queue: &Queue,
    ) {
        self.sample_until(end, fabric, queue);
        for (i, samples) in self.depth_samples.iter().enumerate() {
            let mean_util = if samples.is_empty() {
                0.0
            } else {
                self.util_sum[i] / samples.len() as f64
            };
            rep.queue_depths.push(QueueDepthSummary::from_samples(
                i as u32,
                samples.clone(),
                mean_util,
            ));
        }
        for (i, name) in EVENT_NAMES.iter().enumerate() {
            rep.event_queue.push(QueueProfileEntry {
                name: name.to_string(),
                count: self.counts[i],
                dwell_ns: self.dwell_ns[i],
            });
        }
        rep.queue_high_water = self.high_water as u64;
        let mut ring = self.ring.borrow_mut();
        rep.events_dropped = ring.evicted();
        rep.events = ring.drain();
    }
}

impl Observer for Telemetry {
    fn scheduled(&mut self, now: SimTime, at: SimTime, ev: &Event) {
        let k = ev.kind();
        self.counts[k] += 1;
        self.dwell_ns[k] += at.as_nanos().saturating_sub(now.as_nanos());
        self.pending += 1;
        self.high_water = self.high_water.max(self.pending);
    }

    fn dispatching(&mut self, at: SimTime, _ev: &Event, fabric: &Fabric, queue: &Queue) {
        self.pending -= 1;
        self.sample_until(at, fabric, queue);
    }

    fn recorded(&mut self, now: SimTime, ev: &TraceEvent) {
        self.ring.borrow_mut().record(now.as_nanos(), *ev);
    }

    fn tagged(&mut self, now: SimTime, seg: &TxSegment) {
        let (t_ns, host, tag) = (now.as_nanos(), seg.flow.src.0, seg.tag);
        let mut ring = self.ring.borrow_mut();
        if seg.retx {
            ring.record(t_ns, TraceEvent::Retransmit { host, seq: seg.seq });
        }
        // One FlowcellEmitted per cell, not per segment.
        if self.last_cell.insert(seg.flow, tag.flowcell) != Some(tag.flowcell) {
            ring.record(
                t_ns,
                TraceEvent::FlowcellEmitted {
                    host,
                    flowcell: tag.flowcell,
                    path: tag.dst_mac.tree(),
                },
            );
        }
    }
}
