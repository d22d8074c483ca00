//! In-simulation telemetry: typed trace events, per-component counters and
//! exporters.
//!
//! Presto's evaluation hinges on *internal* dynamics — flowcell spray
//! balance (Algorithm 1), GRO hold/flush decisions (Algorithm 2), per-link
//! queue occupancy — that end-of-run aggregates cannot explain. This crate
//! provides the observability layer the rest of the workspace wires in:
//!
//! * [`TraceEvent`] — a typed event taxonomy covering the transmit path
//!   (flowcell emission, retransmissions), the fabric (enqueues, drops),
//!   the receive path (GRO holds and per-reason flushes) and the sampler
//!   (link occupancy, event-queue occupancy);
//! * [`TraceSink`] — a bounded ring buffer of sim-timestamped records,
//!   shared across components via [`SharedSink`] (`Rc<RefCell<..>>`: each
//!   simulation is strictly single-threaded);
//! * [`trace_event!`] — how the GRO engines record into the ring they
//!   are handed; everything else reports through the simulation's
//!   observers. A site with no sink attached costs one `Option` check
//!   and never evaluates its event-construction expression;
//! * [`FlushReason`] — the shared flush-cause taxonomy for both GRO
//!   engines, always counted (plain `u64` increments) so Fig 5
//!   comparisons can attribute segment pushes per cause even in default
//!   builds;
//! * [`report::TelemetryReport`] — the assembled per-run snapshot:
//!   counters, flush-reason and spray tables, queue-depth percentiles,
//!   event-queue profile and the drained event ring, with JSONL and
//!   Chrome `trace_event` exporters plus a summary printer.
//!
//! Determinism contract: recording telemetry never changes simulation
//! behaviour. Counters and samples are observations of state the
//! simulation computes anyway; `Report::digest()` is byte-identical with
//! tracing on or off, and exported traces are byte-identical regardless of
//! how many `ParallelRunner` workers ran the sweep.

pub mod json;
pub mod report;

pub use report::{
    CounterEntry, FailoverStage, FlushSplit, QueueDepthSummary, QueueProfileEntry, TelemetryReport,
    TOP_DROP_SITES,
};

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use presto_simcore::SimDuration;

/// Why a packet was dropped before reaching its destination NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// Tail drop: the link's static queue capacity was exceeded.
    QueueFull,
    /// Dynamic-threshold admission refused the packet at a shared buffer.
    Admission,
    /// No forwarding entry (and no live failover) for the destination MAC.
    NoRoute,
    /// The receive ring overflowed at the destination host.
    RingOverflow,
}

impl DropReason {
    /// Number of variants (array-table sizing).
    pub const COUNT: usize = 4;

    /// Stable display/wire name.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::QueueFull => "QueueFull",
            DropReason::Admission => "Admission",
            DropReason::NoRoute => "NoRoute",
            DropReason::RingOverflow => "RingOverflow",
        }
    }

    /// Inverse of [`DropReason::name`].
    pub fn from_name(s: &str) -> Option<DropReason> {
        Some(match s {
            "QueueFull" => DropReason::QueueFull,
            "Admission" => DropReason::Admission,
            "NoRoute" => DropReason::NoRoute,
            "RingOverflow" => DropReason::RingOverflow,
            _ => return None,
        })
    }
}

/// Why a GRO engine pushed a segment up the stack.
///
/// One taxonomy covers both engines so Fig 5 comparisons can attribute
/// per-cause push rates side by side. The first seven causes come from
/// Presto's Algorithm 2 flush function; the last four from the stock
/// Linux engine's eject-on-unmergeable behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlushReason {
    /// Segment was next in sequence — the no-anomaly path.
    InOrder,
    /// Sequence gap *within* a flowcell: packets of one flowcell share one
    /// path and arrive FIFO, so this is loss — pushed immediately for TCP
    /// to react (Algorithm 2, lines 3-5).
    InFlowcellGap,
    /// A flowcell-boundary gap filled while the segment was held: pure
    /// reordering, fully masked from TCP (the EWMA samples these).
    BoundaryGapFilled,
    /// A flowcell-boundary hold expired without the gap filling: presumed
    /// loss, released so TCP can recover (Algorithm 2, lines 14-17).
    BoundaryTimeout,
    /// First packet of a newer flowcell started below the expected
    /// sequence — a retransmission crossing cells (lines 11-13).
    CrossCellRetx,
    /// Segment contained a TCP retransmission: pushed immediately so
    /// recovery is never delayed (§3.2).
    Retransmit,
    /// Segment belonged to a flowcell older than the current one — a late
    /// straggler or duplicate, pushed immediately (lines 19-20).
    StaleFlowcell,
    /// Stock GRO: merging would exceed the 64 KB segment cap, so the
    /// in-progress segment was ejected.
    SizeCapEject,
    /// Stock GRO: the arriving packet's sequence did not extend the
    /// in-progress segment (reordering within a flowcell/path).
    OutOfOrderEject,
    /// Stock GRO: the arriving packet carried a different flowcell ID
    /// (path boundary) — the Fig 2 "small segment flooding" trigger under
    /// spraying.
    BoundaryEject,
    /// Stock GRO: end-of-poll flush of the in-progress `gro_list`.
    EndOfPoll,
}

impl FlushReason {
    /// Number of variants (array-table sizing).
    pub const COUNT: usize = 11;

    /// All variants in table order.
    pub const ALL: [FlushReason; FlushReason::COUNT] = [
        FlushReason::InOrder,
        FlushReason::InFlowcellGap,
        FlushReason::BoundaryGapFilled,
        FlushReason::BoundaryTimeout,
        FlushReason::CrossCellRetx,
        FlushReason::Retransmit,
        FlushReason::StaleFlowcell,
        FlushReason::SizeCapEject,
        FlushReason::OutOfOrderEject,
        FlushReason::BoundaryEject,
        FlushReason::EndOfPoll,
    ];

    /// Index into a `[u64; FlushReason::COUNT]` counter table.
    pub fn index(self) -> usize {
        match self {
            FlushReason::InOrder => 0,
            FlushReason::InFlowcellGap => 1,
            FlushReason::BoundaryGapFilled => 2,
            FlushReason::BoundaryTimeout => 3,
            FlushReason::CrossCellRetx => 4,
            FlushReason::Retransmit => 5,
            FlushReason::StaleFlowcell => 6,
            FlushReason::SizeCapEject => 7,
            FlushReason::OutOfOrderEject => 8,
            FlushReason::BoundaryEject => 9,
            FlushReason::EndOfPoll => 10,
        }
    }

    /// Stable display/wire name.
    pub fn name(self) -> &'static str {
        match self {
            FlushReason::InOrder => "InOrder",
            FlushReason::InFlowcellGap => "InFlowcellGap",
            FlushReason::BoundaryGapFilled => "BoundaryGapFilled",
            FlushReason::BoundaryTimeout => "BoundaryTimeout",
            FlushReason::CrossCellRetx => "CrossCellRetx",
            FlushReason::Retransmit => "Retransmit",
            FlushReason::StaleFlowcell => "StaleFlowcell",
            FlushReason::SizeCapEject => "SizeCapEject",
            FlushReason::OutOfOrderEject => "OutOfOrderEject",
            FlushReason::BoundaryEject => "BoundaryEject",
            FlushReason::EndOfPoll => "EndOfPoll",
        }
    }

    /// Inverse of [`FlushReason::name`].
    pub fn from_name(s: &str) -> Option<FlushReason> {
        FlushReason::ALL.into_iter().find(|r| r.name() == s)
    }

    /// Whether this cause indicates packet *loss* (an in-flowcell gap, or
    /// its stock-GRO analogue): one flowcell rides one path, so a hole in
    /// its sequence cannot be reordering.
    pub fn indicates_loss(self) -> bool {
        matches!(
            self,
            FlushReason::InFlowcellGap | FlushReason::OutOfOrderEject
        )
    }

    /// Whether this cause indicates *reordering at a flowcell boundary*
    /// (what multipath spraying creates and Presto's GRO masks).
    pub fn indicates_reordering(self) -> bool {
        matches!(
            self,
            FlushReason::BoundaryGapFilled
                | FlushReason::BoundaryTimeout
                | FlushReason::BoundaryEject
        )
    }
}

/// One typed trace event. Field types are plain integers so the crate
/// stays at the bottom of the dependency stack; call sites pass raw ids
/// (`LinkId::index()`, `HostId::index()`, `Mac::tree()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet was accepted onto a link's queue (or straight into
    /// serialization). `queue_bytes` is the occupancy after the enqueue.
    PacketEnqueued {
        /// Link index.
        link: u32,
        /// Queued wire bytes after the enqueue.
        queue_bytes: u64,
    },
    /// A packet was dropped. `site` is a link index for
    /// `QueueFull`/`Admission`, a switch index for `NoRoute`, a host index
    /// for `RingOverflow`.
    PacketDropped {
        /// Drop site (see above).
        site: u32,
        /// Why.
        reason: DropReason,
    },
    /// Presto GRO decided to hold a segment at a flowcell-boundary gap.
    GroHold {
        /// Receiving host index.
        host: u32,
        /// First byte offset of the held segment.
        seq: u64,
        /// The held segment's flowcell.
        flowcell: u64,
    },
    /// A GRO engine pushed a segment up the stack.
    GroFlush {
        /// Receiving host index.
        host: u32,
        /// First byte offset.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
        /// Raw packets merged into the segment.
        packets: u32,
        /// Why it was pushed.
        reason: FlushReason,
    },
    /// A sender's vSwitch started a new flowcell on a path.
    FlowcellEmitted {
        /// Sending host index.
        host: u32,
        /// The flowcell ID.
        flowcell: u64,
        /// Spanning-tree (path) index of the chosen label.
        path: u32,
    },
    /// A TCP retransmission entered the transmit datapath.
    Retransmit {
        /// Sending host index.
        host: u32,
        /// Retransmitted byte offset.
        seq: u64,
    },
    /// A scheduled fault hit the fabric (a `FaultPlan` timeline entry).
    FaultApplied {
        /// Index into the run's resolved fault timeline.
        index: u32,
        /// True for capacity-removing faults (down/degrade), false for
        /// restoring ones (up/restore).
        degrading: bool,
    },
    /// The controller learned of a fault and re-disseminated weighted
    /// label multisets to the edge.
    ControllerNotified {
        /// Index into the run's resolved fault timeline.
        index: u32,
    },
    /// Periodic sampler: one link's queue occupancy.
    LinkOccupancySample {
        /// Link index.
        link: u32,
        /// Queued wire bytes.
        queue_bytes: u64,
    },
    /// Periodic sampler: global event-queue occupancy.
    EventQueueSample {
        /// Pending events.
        len: u64,
        /// High-water mark so far.
        high_water: u64,
    },
}

/// A trace event plus its simulated timestamp in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event, nanoseconds.
    pub t_ns: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// A bounded ring buffer of [`TraceRecord`]s. When full, the oldest
/// record is evicted (and counted), so the tail of a run is always
/// retained — the part figure debugging usually needs.
#[derive(Debug)]
pub struct TraceSink {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    evicted: u64,
}

impl TraceSink {
    /// A sink holding at most `cap` records (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TraceSink {
            cap,
            buf: VecDeque::with_capacity(cap.min(1 << 16)),
            evicted: 0,
        }
    }

    /// Record one event at simulated time `t_ns`.
    #[inline]
    pub fn record(&mut self, t_ns: u64, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(TraceRecord { t_ns, ev });
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Drain all retained records, oldest first.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }
}

/// The sink handle components hold. Each simulation is strictly
/// single-threaded, so `Rc<RefCell<..>>` suffices; a `Simulation` holding
/// one is `!Send`, which is fine — `ParallelRunner` workers build and
/// consume their simulations locally.
pub type SharedSink = Rc<RefCell<TraceSink>>;

/// A fresh shared sink with the given ring capacity.
pub fn shared_sink(cap: usize) -> SharedSink {
    Rc::new(RefCell::new(TraceSink::new(cap)))
}

/// Record a trace event through an `Option<SharedSink>` field.
///
/// The timestamp and event expressions are only evaluated when a sink is
/// installed; without one, the cost is one `Option` check.
///
/// ```
/// use presto_telemetry::{shared_sink, SharedSink, TraceEvent};
/// let sink: Option<SharedSink> = Some(shared_sink(16));
/// presto_telemetry::trace_event!(sink, 42, TraceEvent::Retransmit { host: 0, seq: 1460 });
/// assert_eq!(sink.unwrap().borrow().len(), 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($sink:expr, $t_ns:expr, $ev:expr) => {
        if let Some(__sink) = ($sink).as_ref() {
            __sink.borrow_mut().record($t_ns, $ev);
        }
    };
}

/// Telemetry knobs for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity of the trace sink.
    pub ring_capacity: usize,
    /// Period of the queue-depth / link-utilization / event-queue sampler.
    pub sample_every: SimDuration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 1 << 16,
            sample_every: SimDuration::from_micros(100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut s = TraceSink::new(3);
        for i in 0..5u64 {
            s.record(i, TraceEvent::Retransmit { host: 0, seq: i });
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        let ts: Vec<u64> = s.records().map(|r| r.t_ns).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest records evicted first");
        assert_eq!(s.drain().len(), 3);
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 3);
    }

    #[test]
    fn macro_records_only_into_an_attached_sink() {
        let none: Option<SharedSink> = None;
        // Event expression must not be evaluated when there is no sink.
        let mut evaluated = false;
        trace_event!(none, 0, {
            evaluated = true;
            TraceEvent::EventQueueSample {
                len: 0,
                high_water: 0,
            }
        });
        assert!(!evaluated, "no sink, no evaluation");
        let ring = shared_sink(8);
        let sink = Some(Rc::clone(&ring));
        trace_event!(
            sink,
            7,
            TraceEvent::EventQueueSample {
                len: 1,
                high_water: 2
            }
        );
        assert_eq!(ring.borrow().len(), 1);
    }

    #[test]
    fn flush_reason_table_is_consistent() {
        assert_eq!(FlushReason::ALL.len(), FlushReason::COUNT);
        for (i, r) in FlushReason::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i, "{r:?} out of place");
            assert_eq!(FlushReason::from_name(r.name()), Some(r));
            // Loss and reordering attributions are mutually exclusive.
            assert!(!(r.indicates_loss() && r.indicates_reordering()), "{r:?}");
        }
        assert!(FlushReason::InFlowcellGap.indicates_loss());
        assert!(FlushReason::BoundaryGapFilled.indicates_reordering());
        assert!(FlushReason::BoundaryEject.indicates_reordering());
    }

    #[test]
    fn drop_reason_names_roundtrip() {
        for r in [
            DropReason::QueueFull,
            DropReason::Admission,
            DropReason::NoRoute,
            DropReason::RingOverflow,
        ] {
            assert_eq!(DropReason::from_name(r.name()), Some(r));
        }
        assert_eq!(DropReason::from_name("Gremlins"), None);
    }
}
