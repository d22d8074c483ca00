//! The composed event-driven simulator.
//!
//! One [`Simulation`] owns the fabric, every host's soft edge (vSwitch →
//! NIC TSO on transmit; rx ring → GRO → CPU → TCP on receive), all
//! transport state, the applications (elephants, mice, probes, shuffle),
//! and the experiment timeline (warmup, failures, controller updates).
//!
//! The receive chain mirrors §2.2 of the paper exactly:
//!
//! ```text
//! wire → rx ring (interrupt coalescing) → poll → GRO merge/flush →
//!   CPU cost model (per packet + per segment + per byte) → TCP → ACK →
//!     vSwitch (reverse-path policy) → wire
//! ```

use std::collections::{HashMap, VecDeque};

use presto_core::Controller;
use presto_endhost::{
    make_ack, tso_split_into, CpuCosts, CpuModel, EdgePolicy, PathSignal, ReceiveOffload, RxAction,
    RxRing, Segment, TxSegment, VSwitch,
};
use presto_metrics::TimeSeries;
use presto_netsim::{
    FlowKey, HostId, LinkId, NetEvent, NetScheduler, Packet, PacketKind, PacketPool, SwitchId,
    Topology,
};
use presto_simcore::{EventQueue, FxHashMap, SimDuration, SimTime};
use presto_telemetry::{
    shared_sink, CounterEntry, DropReason, FailoverStage, QueueDepthSummary, QueueProfileEntry,
    SharedSink, TelemetryConfig, TelemetryReport, TraceEvent,
};
use presto_transport::{
    CongestionControl, Cubic, MptcpConnection, SenderOutput, TcpConfig, TcpReceiver, TcpSender,
};

use crate::report::{ooo_cell_counts, Report};
use crate::scheme::{SchemeSpec, TransportKind};

/// Extra per-packet CPU charged by Presto's GRO bookkeeping — calibrated
/// so the overall overhead lands near the paper's +6% (Fig 6).
pub const PRESTO_GRO_EXTRA: SimDuration = SimDuration::from_nanos(75);

/// Which application a flow belongs to, for completion bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTag {
    /// A standalone flow (elephant, mouse, trace replay).
    Plain,
    /// A shuffle transfer from source host `src`.
    Shuffle(usize),
    /// A worker response belonging to incast request `req`.
    Incast(usize),
    /// One neighbor transfer of the current allreduce round.
    Allreduce,
}

/// Which sender state machine a flow belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderRef {
    /// `tcp_conns[i]`.
    Tcp(usize),
    /// `mptcp_conns[conn].subflows[sub]`.
    Mptcp {
        /// Connection index.
        conn: usize,
        /// Subflow index.
        sub: usize,
    },
}

/// A [`SenderRef`] packed into 32 bits, so that [`Event::Rto`] fits a
/// 16-byte event. Bit 31 clear is `Tcp(i)`, with `i` in the low 31 bits;
/// bit 31 set is an MPTCP subflow, with the connection in bits 8..31 and
/// the subflow in bits 0..8. [`Simulation::new`] rejects a subflow count
/// beyond [`TransportKind::MAX_SUBFLOWS`], and [`Simulation::start_flow`]
/// a connection beyond the field's reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtoOwner(u32);

impl RtoOwner {
    const MPTCP: u32 = 1 << 31;
    const SUB_BITS: u32 = 8;
    /// TCP connections an owner can name.
    const TCP_CONNS: usize = 1 << 31;
    /// MPTCP connections an owner can name.
    const MPTCP_CONNS: usize = 1 << (31 - Self::SUB_BITS);

    /// Pack `sender`; panics if an index does not fit its field.
    fn new(sender: SenderRef) -> Self {
        let packed = match sender {
            SenderRef::Tcp(i) => u32::try_from(i).ok().filter(|&i| i < Self::MPTCP),
            SenderRef::Mptcp { conn, sub } => u32::try_from(conn)
                .ok()
                .filter(|&c| c < Self::MPTCP >> Self::SUB_BITS && sub < 1 << Self::SUB_BITS)
                .map(|c| Self::MPTCP | c << Self::SUB_BITS | sub as u32),
        };
        RtoOwner(packed.expect("sender index too large for an RTO timer"))
    }

    fn sender(self) -> SenderRef {
        if self.0 & Self::MPTCP == 0 {
            SenderRef::Tcp(self.0 as usize)
        } else {
            SenderRef::Mptcp {
                conn: ((self.0 & !Self::MPTCP) >> Self::SUB_BITS) as usize,
                sub: (self.0 & ((1 << Self::SUB_BITS) - 1)) as usize,
            }
        }
    }
}

/// Global event type. Every variant is a small handle (16 bytes, pinned
/// below): payloads too large for that, such as packets in flight and
/// segments in the receive CPU, wait in the component that owns them.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Fabric-internal event.
    Net(NetEvent),
    /// NIC poll (interrupt) at a host.
    NicPoll(HostId),
    /// GRO hold-timeout re-evaluation at a host.
    GroTimer(HostId),
    /// The host's CPU finished its oldest pending segment; deliver it to
    /// TCP. Internal: each one is scheduled together with an entry of the
    /// host's CPU completion queue, so scheduling one by hand through
    /// [`Simulation::schedule`] is a logic error.
    CpuDone(HostId),
    /// TCP retransmission timer of a sender, with the timer generation.
    Rto(RtoOwner, u64),
    /// Start pending flow `i`.
    FlowStart(usize),
    /// Launch the next mouse of series `i`.
    MiceNext(usize),
    /// Send the next probe of pinger `i`.
    ProbeSend(usize),
    /// Sample CPU utilization.
    CpuSample,
    /// Post-warmup measurement window begins.
    WarmupMark,
    /// Apply fault `i` of the resolved timeline to the fabric.
    Fault(usize),
    /// Controller learned of fault `i`: re-weight and redistribute labels.
    ControllerNotify(usize),
    /// Try to start more shuffle transfers from `src`.
    ShuffleMore(usize),
    /// Host egress scheduler: move staged segments onto the uplink.
    EgressDrain(HostId),
    /// Sample per-tree path signals and deliver them to feedback-driven
    /// edge policies. Only ever scheduled when the scheme's policy
    /// advertises an [`EdgePolicy::feedback_interval`], so schemes that
    /// don't opt in see an unchanged event stream (and digest).
    PathFeedback,
    /// Issue the next partition-aggregate incast request wave.
    IncastNext,
    /// Start the next synchronized ring-allreduce round.
    AllreduceRound,
    /// Probe a window of destination hosts for load signals and deliver
    /// them to load-aware edge policies. Only ever scheduled when the
    /// scheme's policy advertises [`EdgePolicy::probe_params`], so schemes
    /// that don't opt in see an unchanged event stream (and digest) —
    /// the same contract as [`Event::PathFeedback`].
    ProbeRound,
}

// Events are stored inline in the event queue: a wider variant would
// widen every pending event.
const _: () = assert!(std::mem::size_of::<Event>() == 16);
const _: () = assert!(TransportKind::MAX_SUBFLOWS == 1 << RtoOwner::SUB_BITS);

/// Event-class names for the queue profiler, index-aligned with
/// [`classify_event`].
pub const EVENT_NAMES: &[&str] = &[
    "Net",
    "NicPoll",
    "GroTimer",
    "CpuDone",
    "Rto",
    "FlowStart",
    "MiceNext",
    "ProbeSend",
    "CpuSample",
    "WarmupMark",
    "Fault",
    "ControllerNotify",
    "ShuffleMore",
    "EgressDrain",
    "PathFeedback",
    "IncastNext",
    "AllreduceRound",
    "ProbeRound",
];

/// Map an [`Event`] to its [`EVENT_NAMES`] row for the queue profiler.
pub fn classify_event(ev: &Event) -> usize {
    match ev {
        Event::Net(_) => 0,
        Event::NicPoll(_) => 1,
        Event::GroTimer(_) => 2,
        Event::CpuDone(_) => 3,
        Event::Rto(..) => 4,
        Event::FlowStart(_) => 5,
        Event::MiceNext(_) => 6,
        Event::ProbeSend(_) => 7,
        Event::CpuSample => 8,
        Event::WarmupMark => 9,
        Event::Fault(_) => 10,
        Event::ControllerNotify(_) => 11,
        Event::ShuffleMore(_) => 12,
        Event::EgressDrain(_) => 13,
        Event::PathFeedback => 14,
        Event::IncastNext => 15,
        Event::AllreduceRound => 16,
        Event::ProbeRound => 17,
    }
}

/// Telemetry plumbing attached to a running simulation by
/// [`Simulation::enable_telemetry`].
///
/// Holds the shared trace ring plus the periodic sampler's state: the next
/// grid time, per-link queue-depth samples, and the tx-byte snapshots that
/// turn counter deltas into utilization. Sampling is driven from the run
/// loop against a fixed time grid rather than via queue events so that
/// enabling telemetry never perturbs `events_processed` (and therefore
/// never changes `Report::digest()`).
pub struct TelemetryState {
    cfg: TelemetryConfig,
    sink: SharedSink,
    next_sample: SimTime,
    /// Per-link queue-depth samples (bytes), one inner vec per link.
    depth_samples: Vec<Vec<u64>>,
    /// `tx_bytes` at the previous sample, per link.
    last_tx_bytes: Vec<u64>,
    /// Running sum of per-sample utilization fractions, per link.
    util_sum: Vec<f64>,
    /// Last flowcell tag seen per flow, to emit `FlowcellEmitted` once per
    /// cell rather than once per segment.
    last_cell: FxHashMap<FlowKey, u64>,
}

/// One host's soft edge.
pub struct HostNode {
    /// Transmit datapath (policy inside).
    pub vswitch: VSwitch,
    /// Receive ring with interrupt coalescing.
    pub ring: RxRing,
    /// Receive-side CPU.
    pub cpu: CpuModel,
    /// Receive-offload engine.
    pub gro: Box<dyn ReceiveOffload>,
    /// Per-flow egress staging (TSQ + fq semantics, see [`HostEgress`]).
    pub egress: HostEgress,
    gro_timer_at: Option<SimTime>,
    cpu_busy_snapshot: SimDuration,
    /// Segments the CPU is processing, with their completion instants,
    /// oldest first. The core is one FIFO whose completion instants never
    /// decrease, so the `CpuDone` events fire in this order.
    cpu_done: VecDeque<(SimTime, Segment)>,
}

/// Host egress scheduler modeling Linux TSQ + per-flow queueing.
///
/// A real sender never parks its whole congestion window in the NIC ring:
/// TCP Small Queues keep per-flow NIC backlog tiny and the qdisc
/// round-robins flows, so a mouse's packets interleave with an elephant's
/// stream instead of waiting behind hundreds of kilobytes. Segments are
/// staged per flow here and fed to the uplink only while its queue is
/// below [`EGRESS_TARGET_BYTES`].
#[derive(Default)]
pub struct HostEgress {
    order: std::collections::VecDeque<FlowKey>,
    queues: FxHashMap<FlowKey, std::collections::VecDeque<TxSegment>>,
    drain_at: Option<SimTime>,
    /// Segments staged over the host's lifetime (instrumentation).
    pub staged_total: u64,
}

/// Keep roughly this much in the NIC/uplink queue — about two TSO
/// segments, mirroring TSQ's default budget.
pub const EGRESS_TARGET_BYTES: u64 = 128 * 1024;

impl HostEgress {
    fn stage(&mut self, seg: TxSegment) {
        self.staged_total += 1;
        let q = self.queues.entry(seg.flow).or_default();
        // A flow sits in `order` iff its queue is non-empty (`pop` removes
        // drained queues), so the emptiness check alone decides membership
        // — no O(n) scan of `order` per staged segment.
        if q.is_empty() {
            debug_assert!(!self.order.contains(&seg.flow));
            self.order.push_back(seg.flow);
        }
        q.push_back(seg);
    }

    /// Next segment in per-flow round-robin order.
    fn pop(&mut self) -> Option<TxSegment> {
        let flow = self.order.pop_front()?;
        let q = self.queues.get_mut(&flow).expect("queued flow");
        let seg = q.pop_front().expect("non-empty flow queue");
        if q.is_empty() {
            self.queues.remove(&flow);
        } else {
            self.order.push_back(flow);
        }
        Some(seg)
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// A single-path TCP connection and its measurement state.
pub struct TcpConnState {
    /// Forward flow key.
    pub flow: FlowKey,
    /// The sender state machine.
    pub sender: TcpSender<Box<dyn CongestionControl>>,
    /// When the flow started.
    pub start: SimTime,
    /// Record FCT on completion.
    pub measure_fct: bool,
    /// Completion time, if finished.
    pub done_at: Option<SimTime>,
    /// Acked bytes at the warmup mark.
    pub warm_acked: u64,
    /// Unbounded elephant?
    pub unbounded: bool,
    /// Total bytes for bounded flows.
    pub bytes: u64,
    /// Owning application, for completion bookkeeping.
    pub tag: FlowTag,
}

/// An MPTCP connection and its measurement state.
pub struct MptcpConnState {
    /// The bundle of subflows.
    pub conn: MptcpConnection,
    /// Subflow flow keys, index-aligned with `conn.subflows`.
    pub flows: Vec<FlowKey>,
    /// When the connection started.
    pub start: SimTime,
    /// Record FCT on completion.
    pub measure_fct: bool,
    /// Completion time, if finished.
    pub done_at: Option<SimTime>,
    /// Acked bytes at the warmup mark.
    pub warm_acked: u64,
    /// Unbounded elephant?
    pub unbounded: bool,
    /// Total bytes for bounded connections.
    pub bytes: u64,
    /// Owning application, for completion bookkeeping.
    pub tag: FlowTag,
}

/// A sockperf-style RTT prober.
pub struct Pinger {
    /// Probe flow (dport 7).
    pub flow: FlowKey,
    interval: SimDuration,
    outstanding: FxHashMap<u64, SimTime>,
    next_id: u64,
}

/// A "mice every 100 ms" series (§4).
pub struct MiceSeries {
    /// Sender host index.
    pub src: usize,
    /// Receiver host index.
    pub dst: usize,
    /// Bytes per mouse.
    pub bytes: u64,
    /// Launch interval.
    pub interval: SimDuration,
}

/// A flow awaiting its start event.
pub struct PendingFlow {
    /// Sender host index.
    pub src: usize,
    /// Receiver host index.
    pub dst: usize,
    /// `None` = unbounded elephant.
    pub bytes: Option<u64>,
    /// Record FCT on completion.
    pub measure_fct: bool,
    /// Owning application, for completion bookkeeping.
    pub tag: FlowTag,
}

/// Shuffle workload state: per-source destination queues.
pub struct ShuffleState {
    /// Destination order per source; consumed via [`ShuffleState::pos`]
    /// rather than `remove(0)` so starting a transfer is O(1).
    pub orders: Vec<Vec<usize>>,
    /// Next unstarted index into `orders[src]`, per source.
    pub pos: Vec<usize>,
    /// Transfers in flight per source.
    pub active: Vec<usize>,
    /// Max concurrent transfers per source (paper: 2).
    pub concurrency: usize,
    /// Bytes per transfer.
    pub bytes: u64,
    /// Completed transfer throughputs (Gbps).
    pub tputs: Vec<f64>,
}

/// Partition-aggregate incast state: every [`Event::IncastNext`] issues a
/// request — all `senders` simultaneously answer the aggregator with
/// `bytes_per_worker` — and the request completes when its last response
/// lands, holding the elapsed time against `deadline`.
pub struct IncastState {
    /// Receiving (aggregator) host.
    pub aggregator: usize,
    /// Responding worker hosts.
    pub senders: Vec<usize>,
    /// Eligible responder hosts offered to the aggregator policy's
    /// [`EdgePolicy::select_replicas`] hook each wave. For load-oblivious
    /// policies this equals `senders`, and because the hook then returns
    /// `None` the wave falls back to `senders` verbatim — the pre-probe
    /// behaviour. Load-aware schemes get every server except the
    /// aggregator to choose cold responders from.
    pub candidates: Vec<usize>,
    /// Response size per worker, bytes.
    pub bytes_per_worker: u64,
    /// Request issue interval.
    pub interval: SimDuration,
    /// Per-request completion deadline.
    pub deadline: SimDuration,
    /// Per-request `(issued_at, responses outstanding)`, indexed by the
    /// request id carried in [`FlowTag::Incast`].
    pub requests: Vec<(SimTime, usize)>,
    /// Deadline accounting for requests issued after warmup.
    pub tracker: presto_metrics::DeadlineTracker,
}

/// Ring-allreduce state: each round, every ring member streams `bytes` to
/// its clockwise neighbor; the round ends when the last transfer
/// completes, immediately starting the next (synchronized elephant
/// rounds).
pub struct AllreduceState {
    /// `(src, dst)` transfer pairs of one round.
    pub ring: Vec<(usize, usize)>,
    /// Bytes per member per round.
    pub bytes: u64,
    /// Transfers outstanding in the current round.
    pub outstanding: usize,
    /// When the current round started.
    pub round_start: SimTime,
    /// Rounds completed over the whole run (including warmup).
    pub rounds_completed: u64,
    /// Post-warmup round durations, milliseconds.
    pub round_ms: Vec<f64>,
}

/// Live statistics accumulated during a run.
#[derive(Default)]
pub struct Stats {
    /// RTT samples (ms), post-warmup.
    pub rtt_ms: Vec<f64>,
    /// Mice FCTs (ms), for mice started post-warmup.
    pub mice_fct_ms: Vec<f64>,
    /// Segment sizes pushed up receive stacks (bytes), post-warmup.
    pub segment_bytes: Vec<f64>,
    /// Per-flow flowcell-ID sequences in push-up order (Fig 5a), only when
    /// reorder collection is enabled.
    pub cell_sequences: HashMap<FlowKey, Vec<u64>>,
    /// Per-flow byte-offset sequences in push-up order (RFC 4737-style
    /// reordered-fraction metric), only when reorder collection is on.
    pub seq_sequences: HashMap<FlowKey, Vec<u64>>,
    /// CPU utilization series per host.
    pub cpu_util: HashMap<u32, TimeSeries>,
    /// Rx ring overflow drops.
    pub ring_drops: u64,
    /// Goodputs of completed bounded elephant transfers (Gbps).
    pub bulk_tputs: Vec<f64>,
}

/// One concrete link-level action a resolved fault applies to the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take the link down (hardware fast failover covers it).
    Down(LinkId),
    /// Bring the link back up.
    Up(LinkId),
    /// Run the link at a fraction of its nominal rate.
    Degrade(LinkId, f64),
    /// Restore the link to its nominal rate.
    Restore(LinkId),
}

/// A fault-plan event resolved against the built topology: abstract
/// (leaf, spine, link) coordinates turned into concrete [`LinkId`]s, plus
/// the controller-notification time derived from the event's
/// [`presto_faults::Notify`] policy.
#[derive(Debug, Clone)]
pub struct ResolvedFault {
    /// When the fault hits the fabric.
    pub at: SimTime,
    /// Link actions applied atomically at `at`.
    pub actions: Vec<FaultAction>,
    /// Does this event remove capacity (down/degrade) rather than restore
    /// it? Drives the failure-timeline stage names.
    pub degrading: bool,
    /// Leaf whose host pairs the controller re-weights on notification;
    /// `None` means every leaf is affected (spine-wide faults).
    pub leaf: Option<SwitchId>,
    /// When the controller hears about it (`None`: notification dropped —
    /// only hardware fast failover reacts).
    pub notify_at: Option<SimTime>,
}

/// Accumulates the failure-recovery timeline (Fig 17): one
/// [`FailoverStage`] per interval between fault/notification boundaries,
/// each with its own goodput and loss figures. Active only when the run
/// has a fault timeline, so fault-free runs pay nothing.
struct StageTracker {
    stages: Vec<FailoverStage>,
    /// Name of the stage currently open.
    name: &'static str,
    /// When it opened.
    start: SimTime,
    // Open-stage accumulators, fed by deltas against the snapshots below
    // (the warmup counter reset forces delta accounting rather than
    // boundary-to-boundary subtraction).
    acc_drops: u64,
    acc_tx: u64,
    acc_acked: u64,
    snap_drops: u64,
    snap_tx: u64,
    snap_acked: u64,
}

impl StageTracker {
    fn new() -> Self {
        StageTracker {
            stages: Vec::new(),
            name: "pre-failure",
            start: SimTime::ZERO,
            acc_drops: 0,
            acc_tx: 0,
            acc_acked: 0,
            snap_drops: 0,
            snap_tx: 0,
            snap_acked: 0,
        }
    }

    /// Fold counter growth since the last sync into the open stage.
    fn sync(&mut self, drops: u64, tx: u64, acked: u64) {
        self.acc_drops += drops.saturating_sub(self.snap_drops);
        self.acc_tx += tx.saturating_sub(self.snap_tx);
        self.acc_acked += acked.saturating_sub(self.snap_acked);
        self.snap_drops = drops;
        self.snap_tx = tx;
        self.snap_acked = acked;
    }

    /// The fabric counters are about to be reset to zero (warmup mark):
    /// bank what has accrued, then rebase the fabric snapshots.
    fn rebase_fabric(&mut self, drops: u64, tx: u64, acked: u64) {
        self.sync(drops, tx, acked);
        self.snap_drops = 0;
        self.snap_tx = 0;
    }

    /// Close the open stage at `now` and open a new one named `next`.
    /// Zero-length stages are dropped (e.g. an immediate controller
    /// notification collapses "fast-failover" into nothing).
    fn boundary(&mut self, now: SimTime, next: &'static str, drops: u64, tx: u64, acked: u64) {
        self.sync(drops, tx, acked);
        if now > self.start {
            self.stages.push(self.closed(now));
        }
        self.name = next;
        self.start = now;
        self.acc_drops = 0;
        self.acc_tx = 0;
        self.acc_acked = 0;
    }

    /// Close the final stage at `end` and return the full timeline.
    fn close(mut self, end: SimTime, drops: u64, tx: u64, acked: u64) -> Vec<FailoverStage> {
        self.sync(drops, tx, acked);
        if end > self.start {
            let s = self.closed(end);
            self.stages.push(s);
        }
        self.stages
    }

    fn closed(&self, end: SimTime) -> FailoverStage {
        let dur = end.saturating_since(self.start).as_secs_f64();
        FailoverStage {
            name: self.name.to_string(),
            start_ns: self.start.as_nanos(),
            end_ns: end.as_nanos(),
            goodput_gbps: if dur > 0.0 {
                self.acc_acked as f64 * 8.0 / dur / 1e9
            } else {
                0.0
            },
            loss_rate: if self.acc_tx > 0 {
                self.acc_drops as f64 / self.acc_tx as f64
            } else {
                0.0
            },
            drops: self.acc_drops,
            tx_packets: self.acc_tx,
        }
    }
}

/// Reusable hot-path buffers.
///
/// Every per-event allocation in the dispatch loop goes through one of
/// these instead of a fresh `Vec`. Each buffer is `mem::take`n for the
/// duration of the handler that uses it and restored (cleared) on the way
/// out, so re-entrant handlers (ACK processing can re-enter the egress
/// path, for example) can never observe a buffer that is still in use —
/// the same "quiescent before reuse" invariant as [`PacketPool`].
#[derive(Default)]
struct Scratch {
    /// Fabric deliveries drained after each `fabric.handle` call.
    delivered: Vec<(HostId, Packet)>,
    /// One NIC poll's worth of raw packets.
    rx_batch: Vec<Packet>,
    /// ACKs seen in the current poll batch: `(flow, ack, sack_hi, ece)`.
    acks: Vec<(FlowKey, u64, u64, bool)>,
    /// Probe packets seen in the current poll batch.
    probes: Vec<Packet>,
    /// Segments flushed out of GRO this poll/timer.
    segs: Vec<Segment>,
    /// CPU completions for the flushed segments.
    completions: Vec<(SimTime, Segment)>,
    /// One path-feedback round's signals, `tree_count` per leaf.
    path_signals: Vec<PathSignal>,
}

/// The composed simulator.
pub struct Simulation {
    /// Current simulated time.
    pub now: SimTime,
    queue: EventQueue<Event>,
    /// The network.
    pub topo: Topology,
    /// Per-host soft edges, indexed by host id.
    pub hosts: Vec<HostNode>,
    /// Single-path connections.
    pub tcp_conns: Vec<TcpConnState>,
    /// MPTCP connections.
    pub mptcp_conns: Vec<MptcpConnState>,
    flow_senders: FxHashMap<FlowKey, SenderRef>,
    receivers: FxHashMap<FlowKey, TcpReceiver>,
    /// RTT probers.
    pub pingers: Vec<Pinger>,
    probe_flows: FxHashMap<FlowKey, usize>,
    /// Flows awaiting their start event.
    pub pending_flows: Vec<PendingFlow>,
    /// Mice series.
    pub mice_series: Vec<MiceSeries>,
    /// Shuffle state, if the workload is a shuffle.
    pub shuffle: Option<ShuffleState>,
    /// Incast state, if the workload is a partition-aggregate incast.
    pub incast: Option<IncastState>,
    /// Allreduce state, if the workload is a ring allreduce.
    pub allreduce: Option<AllreduceState>,
    sports: FxHashMap<(u32, u32), u16>,
    /// Scheme in force.
    pub scheme: SchemeSpec,
    /// Controller, for Presto-style schemes.
    pub controller: Option<Controller>,
    /// Per-source destinations whose label sequences were installed
    /// (ascending host id), set when scenario construction scopes label
    /// state to communicating pairs. Empty means "every pair" — the
    /// legacy behavior for simulations assembled by hand.
    pub label_pairs: Vec<Vec<HostId>>,
    /// TCP configuration applied to new connections.
    pub tcp_cfg: TcpConfig,
    /// End of simulated time.
    pub end: SimTime,
    /// Start of the measurement window.
    pub warmup: SimTime,
    /// Collect Fig 5a cell sequences (memory-heavy; off by default).
    pub collect_reorder: bool,
    /// CPU utilization sampling interval (None = off).
    pub cpu_sample_every: Option<SimDuration>,
    /// Path-feedback cadence, captured from the scheme's policy at
    /// construction ([`EdgePolicy::feedback_interval`]). `None` — the
    /// common case — schedules no feedback events at all.
    feedback_every: Option<SimDuration>,
    /// Receiver-load probe parameters, captured from the scheme's policy
    /// at construction ([`EdgePolicy::probe_params`]). `None` — the
    /// common case — schedules no probe events at all.
    probe_params: Option<presto_probe::ProbeParams>,
    /// Probe rounds executed (reported; digest-folded only when nonzero).
    probe_rounds: u64,
    /// Live statistics.
    pub stats: Stats,
    /// Pool of packet buffers reused by TSO splits on the egress path.
    pkt_pool: PacketPool,
    scratch: Scratch,
    events_processed: u64,
    /// Resolved fault timeline, indexed by [`Event::Fault`] /
    /// [`Event::ControllerNotify`] payloads.
    pub faults: Vec<ResolvedFault>,
    /// Failure-timeline accounting; present iff `faults` is non-empty.
    stage: Option<StageTracker>,
    /// The closed failure timeline, populated by `finish`.
    pub failover_stages: Vec<FailoverStage>,
    telemetry: Option<TelemetryState>,
}

/// `NetScheduler` adapter: fabric events go back into the event queue,
/// host deliveries into a drain buffer processed after each fabric call.
struct Sched<'a> {
    now: SimTime,
    queue: &'a mut EventQueue<Event>,
    delivered: &'a mut Vec<(HostId, Packet)>,
}

impl NetScheduler for Sched<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn schedule_net(&mut self, delay: SimDuration, ev: NetEvent) {
        self.queue.push(self.now + delay, Event::Net(ev));
    }
    fn deliver(&mut self, host: HostId, packet: Packet) {
        self.delivered.push((host, packet));
    }
}

/// Build the default congestion controller (CUBIC, IW10 — the testbed's
/// Linux default).
pub fn default_cc() -> Box<dyn CongestionControl> {
    Box::new(Cubic::new(10))
}

impl Simulation {
    /// A simulator over `topo` with per-host edges supplied by `mk_host`.
    pub fn new(
        topo: Topology,
        scheme: SchemeSpec,
        mut mk_host: impl FnMut(HostId) -> HostNode,
        end: SimTime,
        warmup: SimTime,
    ) -> Self {
        let hosts: Vec<HostNode> = topo.hosts.iter().map(|&h| mk_host(h)).collect();
        let feedback_every = hosts
            .iter()
            .find_map(|h| h.vswitch.policy().feedback_interval());
        let probe_params = hosts.iter().find_map(|h| h.vswitch.policy().probe_params());
        // Both rounds reschedule themselves one interval later; a zero
        // interval would spin at one instant forever.
        assert!(
            probe_params.is_none_or(|p| p.every != SimDuration::ZERO),
            "probe interval (ProbeParams::every) must be non-zero"
        );
        assert!(
            feedback_every != Some(SimDuration::ZERO),
            "path-feedback interval (EdgePolicy::feedback_interval) must be non-zero"
        );
        // RTO timers name an MPTCP subflow in a few bits (see `RtoOwner`).
        if let TransportKind::Mptcp { subflows } = scheme.transport {
            assert!(
                (1..=TransportKind::MAX_SUBFLOWS).contains(&subflows),
                "MPTCP subflow count must be in 1..={}, got {subflows}",
                TransportKind::MAX_SUBFLOWS
            );
        }
        let tcp_cfg = TcpConfig {
            max_tso: scheme.max_tso,
            ..TcpConfig::default()
        };
        let mut sim = Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            topo,
            hosts,
            tcp_conns: Vec::new(),
            mptcp_conns: Vec::new(),
            flow_senders: FxHashMap::default(),
            receivers: FxHashMap::default(),
            pingers: Vec::new(),
            probe_flows: FxHashMap::default(),
            pending_flows: Vec::new(),
            mice_series: Vec::new(),
            shuffle: None,
            incast: None,
            allreduce: None,
            sports: FxHashMap::default(),
            scheme,
            controller: None,
            label_pairs: Vec::new(),
            tcp_cfg,
            end,
            warmup,
            collect_reorder: false,
            cpu_sample_every: None,
            feedback_every,
            probe_params,
            probe_rounds: 0,
            stats: Stats::default(),
            pkt_pool: PacketPool::new(),
            scratch: Scratch::default(),
            events_processed: 0,
            faults: Vec::new(),
            stage: None,
            failover_stages: Vec::new(),
            telemetry: None,
        };
        sim.queue.push(warmup, Event::WarmupMark);
        sim
    }

    /// Schedule an event at an absolute time.
    pub fn schedule(&mut self, at: SimTime, ev: Event) {
        self.queue.push(at, ev);
    }

    /// Append a resolved fault to the timeline and schedule its fabric
    /// event (plus the controller notification, unless dropped). The first
    /// call arms the failure-timeline stage tracker.
    pub fn schedule_fault(&mut self, fault: ResolvedFault) {
        if self.stage.is_none() {
            self.stage = Some(StageTracker::new());
        }
        let i = self.faults.len();
        self.queue.push(fault.at, Event::Fault(i));
        if let Some(n) = fault.notify_at {
            // The controller can't hear about a fault before it happens;
            // a same-instant notification still runs after the fault
            // because the queue breaks time ties by insertion order.
            self.queue.push(
                if n < fault.at { fault.at } else { n },
                Event::ControllerNotify(i),
            );
        }
        self.faults.push(fault);
    }

    /// Attach the telemetry layer: a shared trace ring wired into the
    /// fabric and every host's GRO engine, the event-queue profiler, and
    /// the periodic link/queue sampler.
    ///
    /// Must be called before [`Simulation::run`]. Enabling telemetry does
    /// not change simulation behaviour: no events are added to the queue
    /// and no packet takes a different path, so `Report::digest()` is
    /// byte-identical with telemetry on or off.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let sink = shared_sink(cfg.ring_capacity);
        self.topo.fabric.set_trace_sink(std::rc::Rc::clone(&sink));
        for (hi, host) in self.hosts.iter_mut().enumerate() {
            host.gro.set_telemetry(hi as u32, std::rc::Rc::clone(&sink));
        }
        self.queue.enable_profiler(EVENT_NAMES, classify_event);
        let nlinks = self.topo.fabric.links().len();
        self.telemetry = Some(TelemetryState {
            next_sample: SimTime::ZERO + cfg.sample_every,
            depth_samples: vec![Vec::new(); nlinks],
            last_tx_bytes: vec![0; nlinks],
            util_sum: vec![0.0; nlinks],
            last_cell: FxHashMap::default(),
            sink,
            cfg,
        });
    }

    /// Is the telemetry layer attached?
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Advance the sampling grid up to (and including) `t`, taking one
    /// queue-depth / utilization / event-queue sample per grid crossing.
    fn telemetry_sample_until(&mut self, t: SimTime) {
        let Some(tel) = self.telemetry.as_mut() else {
            return;
        };
        let every = tel.cfg.sample_every;
        let window = every.as_secs_f64();
        while tel.next_sample <= t && tel.next_sample <= self.end {
            let g = tel.next_sample;
            let t_ns = g.as_nanos();
            for (i, samples) in tel.depth_samples.iter_mut().enumerate() {
                let link = self.topo.fabric.link(LinkId(i as u32));
                let occ = link.occupancy(g);
                samples.push(occ);
                let tx = link.counters.tx_bytes;
                // `reset_counters` at the warmup mark can move tx_bytes
                // backwards; treat that sample's delta as zero.
                let delta = tx.saturating_sub(tel.last_tx_bytes[i]);
                tel.last_tx_bytes[i] = tx;
                let util = (delta as f64 * 8.0) / (window * link.rate_bps as f64);
                tel.util_sum[i] += util.min(1.0);
                tel.sink.borrow_mut().record(
                    t_ns,
                    TraceEvent::LinkOccupancySample {
                        link: i as u32,
                        queue_bytes: occ,
                    },
                );
            }
            tel.sink.borrow_mut().record(
                t_ns,
                TraceEvent::EventQueueSample {
                    len: self.queue.len() as u64,
                    high_water: self.queue.high_water_mark() as u64,
                },
            );
            tel.next_sample = g + every;
        }
    }

    /// Allocate a fresh source port for a (src, dst) pair, reserving
    /// `span` consecutive ports (MPTCP takes 8).
    fn alloc_sport(&mut self, src: u32, dst: u32, span: u16) -> u16 {
        let c = self.sports.entry((src, dst)).or_insert(1000);
        let p = *c;
        *c = c.wrapping_add(span.max(1));
        p
    }

    /// Create (and start) a connection per the scheme's transport.
    pub fn start_flow(
        &mut self,
        src: usize,
        dst: usize,
        bytes: Option<u64>,
        measure_fct: bool,
        tag: FlowTag,
    ) {
        match self.scheme.transport {
            TransportKind::Tcp => {
                let sport = self.alloc_sport(src as u32, dst as u32, 1);
                let flow = FlowKey::new(HostId(src as u32), HostId(dst as u32), sport, 80);
                // Size hint before the first segment, so size-aware
                // policies classify the flow from byte zero.
                self.hosts[src].vswitch.policy_mut().flow_hint(flow, bytes);
                // The scheme's registry-selected congestion control; the
                // default (CUBIC, IW10) matches the testbed's pre-registry
                // behaviour exactly.
                let mut sender = TcpSender::new(self.tcp_cfg.clone(), self.scheme.cc.build(10));
                let now = self.now;
                let out = match bytes {
                    Some(b) => sender.app_write(now, b),
                    None => sender.set_unlimited(now),
                };
                let idx = self.tcp_conns.len();
                assert!(
                    idx < RtoOwner::TCP_CONNS,
                    "more TCP connections than RTO timers can name"
                );
                self.tcp_conns.push(TcpConnState {
                    flow,
                    sender,
                    start: now,
                    measure_fct,
                    done_at: None,
                    warm_acked: 0,
                    unbounded: bytes.is_none(),
                    bytes: bytes.unwrap_or(0),
                    tag,
                });
                self.flow_senders.insert(flow, SenderRef::Tcp(idx));
                self.receivers.insert(flow, TcpReceiver::new());
                self.emit(SenderRef::Tcp(idx), flow, out);
            }
            TransportKind::Mptcp { subflows } => {
                let sport = self.alloc_sport(src as u32, dst as u32, subflows as u16);
                let total = bytes.unwrap_or(u64::MAX);
                let mut conn = MptcpConnection::new(self.tcp_cfg.clone(), subflows, total);
                let flows: Vec<FlowKey> = (0..subflows)
                    .map(|i| {
                        FlowKey::new(HostId(src as u32), HostId(dst as u32), sport + i as u16, 80)
                    })
                    .collect();
                for &f in &flows {
                    self.hosts[src].vswitch.policy_mut().flow_hint(f, bytes);
                }
                let outs = conn.start(self.now);
                let idx = self.mptcp_conns.len();
                assert!(
                    idx < RtoOwner::MPTCP_CONNS,
                    "more MPTCP connections than RTO timers can name"
                );
                for (i, &f) in flows.iter().enumerate() {
                    self.flow_senders
                        .insert(f, SenderRef::Mptcp { conn: idx, sub: i });
                    self.receivers.insert(f, TcpReceiver::new());
                }
                self.mptcp_conns.push(MptcpConnState {
                    conn,
                    flows: flows.clone(),
                    start: self.now,
                    measure_fct,
                    done_at: None,
                    warm_acked: 0,
                    unbounded: bytes.is_none(),
                    bytes: bytes.unwrap_or(0),
                    tag,
                });
                for (i, out) in outs.into_iter().enumerate() {
                    self.emit(SenderRef::Mptcp { conn: idx, sub: i }, flows[i], out);
                }
            }
        }
    }

    /// Register an RTT prober between two hosts.
    pub fn add_pinger(&mut self, src: usize, dst: usize, interval: SimDuration, start: SimTime) {
        let flow = FlowKey::new(HostId(src as u32), HostId(dst as u32), 7, 7);
        let idx = self.pingers.len();
        self.pingers.push(Pinger {
            flow,
            interval,
            outstanding: FxHashMap::default(),
            next_id: 0,
        });
        self.probe_flows.insert(flow, idx);
        self.queue.push(start, Event::ProbeSend(idx));
    }

    /// Process a sender's output: transmit segments, arm timers, handle
    /// completion.
    fn emit(&mut self, sref: SenderRef, flow: FlowKey, out: SenderOutput) {
        for a in &out.to_send {
            self.send_segment(flow, a.seq, a.len, a.retx);
        }
        if let Some((deadline, gen)) = out.arm_rto {
            self.queue
                .push(deadline, Event::Rto(RtoOwner::new(sref), gen));
        }
        if out.completed {
            self.on_flow_complete(sref);
        }
    }

    /// vSwitch → egress staging; the drain loop performs TSO and puts
    /// packets on the wire while the uplink queue is shallow.
    fn send_segment(&mut self, flow: FlowKey, seq: u64, len: u32, retx: bool) {
        let host = flow.src;
        let tag = self.hosts[host.index()]
            .vswitch
            .process(self.now, flow, len, retx);
        if let Some(tel) = self.telemetry.as_mut() {
            let t_ns = self.now.as_nanos();
            if retx {
                tel.sink
                    .borrow_mut()
                    .record(t_ns, TraceEvent::Retransmit { host: host.0, seq });
            }
            // One FlowcellEmitted per cell, not per segment.
            if tel.last_cell.insert(flow, tag.flowcell) != Some(tag.flowcell) {
                tel.sink.borrow_mut().record(
                    t_ns,
                    TraceEvent::FlowcellEmitted {
                        host: host.0,
                        flowcell: tag.flowcell,
                        path: tag.dst_mac.tree(),
                    },
                );
            }
        }
        self.hosts[host.index()].egress.stage(TxSegment {
            flow,
            seq,
            len,
            retx,
            tag,
        });
        self.drain_egress(host);
    }

    /// Feed staged segments to the uplink while it is below the TSQ
    /// budget; re-arm a drain event for the remainder.
    fn drain_egress(&mut self, host: HostId) {
        let uplink = self.topo.fabric.host_uplink(host);
        loop {
            if self.topo.fabric.link(uplink).occupancy(self.now) >= EGRESS_TARGET_BYTES {
                break;
            }
            let Some(seg) = self.hosts[host.index()].egress.pop() else {
                break;
            };
            let mut pkts = self.pkt_pool.take();
            tso_split_into(seg, &mut pkts);
            {
                let mut sched = Sched {
                    now: self.now,
                    queue: &mut self.queue,
                    delivered: &mut self.scratch.delivered,
                };
                for p in pkts.drain(..) {
                    let _ = self.topo.fabric.inject(host, p, &mut sched);
                }
            }
            self.pkt_pool.put(pkts);
            debug_assert!(
                self.scratch.delivered.is_empty(),
                "inject cannot deliver directly"
            );
        }
        // More staged data: wake up when the uplink has drained to target.
        if !self.hosts[host.index()].egress.is_empty() {
            let link = self.topo.fabric.link(uplink);
            let backlog = link.occupancy(self.now).saturating_sub(EGRESS_TARGET_BYTES) + 1538;
            let at = self.now + SimDuration::transmission(backlog, link.rate_bps);
            let need = match self.hosts[host.index()].egress.drain_at {
                Some(cur) => at < cur || cur <= self.now,
                None => true,
            };
            if need {
                self.hosts[host.index()].egress.drain_at = Some(at);
                self.queue.push(at, Event::EgressDrain(host));
            }
        }
    }

    /// Inject one already-built packet (ACKs, probes) at `host`.
    fn inject(&mut self, host: HostId, pkt: Packet) {
        let mut sched = Sched {
            now: self.now,
            queue: &mut self.queue,
            delivered: &mut self.scratch.delivered,
        };
        let _ = self.topo.fabric.inject(host, pkt, &mut sched);
        debug_assert!(
            self.scratch.delivered.is_empty(),
            "inject cannot deliver directly"
        );
    }

    fn on_flow_complete(&mut self, sref: SenderRef) {
        let (start, measure, tag, bytes) = match sref {
            SenderRef::Tcp(i) => {
                let c = &mut self.tcp_conns[i];
                if c.done_at.is_some() {
                    return;
                }
                c.done_at = Some(self.now);
                (c.start, c.measure_fct, c.tag, c.bytes)
            }
            SenderRef::Mptcp { conn, .. } => {
                let c = &mut self.mptcp_conns[conn];
                if c.done_at.is_some() {
                    return;
                }
                c.done_at = Some(self.now);
                (c.start, c.measure_fct, c.tag, c.bytes)
            }
        };
        if measure && start >= self.warmup {
            self.stats
                .mice_fct_ms
                .push(self.now.saturating_since(start).as_millis_f64());
        }
        match tag {
            FlowTag::Shuffle(src) => {
                let dur = self.now.saturating_since(start).as_secs_f64();
                if let Some(sh) = &mut self.shuffle {
                    if dur > 0.0 {
                        sh.tputs.push(bytes as f64 * 8.0 / dur / 1e9);
                    }
                    sh.active[src] -= 1;
                }
                self.queue.push(self.now, Event::ShuffleMore(src));
            }
            FlowTag::Incast(req) => self.on_incast_response_done(req),
            FlowTag::Allreduce => self.on_allreduce_transfer_done(),
            FlowTag::Plain => {
                if !measure && bytes >= 1_000_000 && start >= self.warmup {
                    // A bounded elephant (trace-driven workload): record
                    // its goodput.
                    let dur = self.now.saturating_since(start).as_secs_f64();
                    if dur > 0.0 {
                        self.stats.bulk_tputs.push(bytes as f64 * 8.0 / dur / 1e9);
                    }
                }
            }
        }
    }

    /// One incast response landed: close its request when it was the last,
    /// holding the elapsed time against the deadline (post-warmup issues
    /// only).
    fn on_incast_response_done(&mut self, req: usize) {
        let now = self.now;
        let warm = self.warmup;
        let Some(inc) = &mut self.incast else { return };
        let (issued, remaining) = &mut inc.requests[req];
        *remaining -= 1;
        if *remaining == 0 {
            let issued = *issued;
            if issued >= warm {
                let elapsed = now.saturating_since(issued).as_millis_f64();
                inc.tracker.record(elapsed, inc.deadline.as_millis_f64());
            }
        }
    }

    /// One allreduce neighbor transfer finished: when it was the round's
    /// last, record the round time (post-warmup rounds) and kick off the
    /// next synchronized round.
    fn on_allreduce_transfer_done(&mut self) {
        let now = self.now;
        let warm = self.warmup;
        let mut next_round = false;
        if let Some(ar) = &mut self.allreduce {
            ar.outstanding -= 1;
            if ar.outstanding == 0 {
                ar.rounds_completed += 1;
                if ar.round_start >= warm {
                    ar.round_ms
                        .push(now.saturating_since(ar.round_start).as_millis_f64());
                }
                next_round = now < self.end;
            }
        }
        if next_round {
            self.queue.push(now, Event::AllreduceRound);
        }
    }

    /// Issue one incast request: every chosen worker simultaneously
    /// answers the aggregator with `bytes_per_worker`. The aggregator's
    /// edge policy gets first refusal on the responder set via
    /// [`EdgePolicy::select_replicas`]; the default `None` keeps the
    /// static `senders` list, so load-oblivious schemes issue exactly the
    /// waves they always did.
    fn on_incast_next(&mut self) {
        let now = self.now;
        let (dst, fanout, candidates, interval) = {
            let Some(inc) = &self.incast else { return };
            (
                inc.aggregator,
                inc.senders.len(),
                inc.candidates.clone(),
                inc.interval,
            )
        };
        let cand_ids: Vec<HostId> = candidates.iter().map(|&c| self.topo.hosts[c]).collect();
        let chosen = self.hosts[self.topo.hosts[dst].index()]
            .vswitch
            .policy_mut()
            .select_replicas(now, &cand_ids, fanout)
            .map(|hs| hs.into_iter().map(|h| h.index()).collect::<Vec<_>>());
        let (req, senders, bytes) = {
            let Some(inc) = &mut self.incast else { return };
            let senders = chosen.unwrap_or_else(|| inc.senders.clone());
            let req = inc.requests.len();
            inc.requests.push((now, senders.len()));
            (req, senders, inc.bytes_per_worker)
        };
        for src in senders {
            self.start_flow(src, dst, Some(bytes), true, FlowTag::Incast(req));
        }
        let next = now + interval;
        if next < self.end {
            self.queue.push(next, Event::IncastNext);
        }
    }

    /// Start one allreduce round: every ring member streams its chunk to
    /// its clockwise neighbor.
    fn on_allreduce_round(&mut self) {
        let (ring, bytes) = {
            let Some(ar) = &mut self.allreduce else {
                return;
            };
            ar.round_start = self.now;
            ar.outstanding = ar.ring.len();
            (ar.ring.clone(), ar.bytes)
        };
        for (src, dst) in ring {
            self.start_flow(src, dst, Some(bytes), false, FlowTag::Allreduce);
        }
    }

    /// Run until the simulated end time; returns the report.
    pub fn run(&mut self) -> Report {
        if let Some(every) = self.cpu_sample_every {
            self.queue.push(SimTime::ZERO + every, Event::CpuSample);
        }
        if let Some(every) = self.feedback_every {
            self.queue.push(SimTime::ZERO + every, Event::PathFeedback);
        }
        if let Some(params) = self.probe_params {
            self.queue
                .push(SimTime::ZERO + params.every, Event::ProbeRound);
        }
        let sampling = self.telemetry.is_some();
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.end {
                break;
            }
            if sampling {
                self.telemetry_sample_until(t);
            }
            self.now = t;
            self.events_processed += 1;
            self.dispatch(ev);
        }
        if sampling {
            self.telemetry_sample_until(self.end);
        }
        self.finish()
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Net(nev) => {
                // Take the scratch buffer for the duration of the handler:
                // `on_deliver` needs `&mut self` and must never see a
                // half-drained delivery list on re-entry.
                let mut delivered = std::mem::take(&mut self.scratch.delivered);
                {
                    let mut sched = Sched {
                        now: self.now,
                        queue: &mut self.queue,
                        delivered: &mut delivered,
                    };
                    self.topo.fabric.handle(nev, &mut sched);
                }
                for (h, pkt) in delivered.drain(..) {
                    self.on_deliver(h, pkt);
                }
                self.scratch.delivered = delivered;
            }
            Event::NicPoll(h) => self.on_poll(h),
            Event::GroTimer(h) => self.on_gro_timer(h),
            Event::CpuDone(h) => {
                let (done, seg) = self.hosts[h.index()]
                    .cpu_done
                    .pop_front()
                    .expect("CpuDone without a pending CPU completion");
                debug_assert_eq!(done, self.now, "CPU completions fire in order");
                self.on_segment_up(h, seg);
            }
            Event::Rto(owner, gen) => {
                let sref = owner.sender();
                let (flow, out) = match sref {
                    SenderRef::Tcp(i) => {
                        let c = &mut self.tcp_conns[i];
                        (c.flow, c.sender.on_rto(self.now, gen))
                    }
                    SenderRef::Mptcp { conn, sub } => {
                        let c = &mut self.mptcp_conns[conn];
                        (c.flows[sub], c.conn.on_rto(self.now, sub, gen))
                    }
                };
                self.emit(sref, flow, out);
            }
            Event::FlowStart(i) => {
                let p = &self.pending_flows[i];
                let (src, dst, bytes, mfct, tag) = (p.src, p.dst, p.bytes, p.measure_fct, p.tag);
                self.start_flow(src, dst, bytes, mfct, tag);
            }
            Event::MiceNext(i) => {
                let (src, dst, bytes, interval) = {
                    let m = &self.mice_series[i];
                    (m.src, m.dst, m.bytes, m.interval)
                };
                self.start_flow(src, dst, Some(bytes), true, FlowTag::Plain);
                let next = self.now + interval;
                if next < self.end {
                    self.queue.push(next, Event::MiceNext(i));
                }
            }
            Event::ProbeSend(i) => self.on_probe_send(i),
            Event::CpuSample => self.on_cpu_sample(),
            Event::WarmupMark => self.on_warmup(),
            Event::Fault(i) => self.on_fault(i),
            Event::ControllerNotify(i) => self.on_controller_notify(i),
            Event::ShuffleMore(src) => self.on_shuffle_more(src),
            Event::EgressDrain(h) => {
                self.hosts[h.index()].egress.drain_at = None;
                self.drain_egress(h);
            }
            Event::PathFeedback => self.on_path_feedback(),
            Event::IncastNext => self.on_incast_next(),
            Event::AllreduceRound => self.on_allreduce_round(),
            Event::ProbeRound => self.on_probe_round(),
        }
    }

    /// One receiver-load probe round: read the load signals of a rotating
    /// window of destination hosts and deliver them to every policy that
    /// opted in via [`EdgePolicy::probe_params`].
    ///
    /// Probes are modeled as out-of-band control-plane reads, exactly
    /// like [`Event::PathFeedback`] and the fault-notify plumbing: they
    /// occupy no data queue and consume no goodput, so enabling them
    /// cannot perturb a scheme that ignores the delivered signals. (The
    /// estimated wire cost is still accounted — see `telemetry_report`'s
    /// `probe_wire_bytes` counter.) The window rotates by `pool` hosts
    /// per round so a fabric wider than the pool is still swept
    /// completely, and entries between visits age toward the staleness
    /// bound — making eviction a live mechanism rather than dead code.
    fn on_probe_round(&mut self) {
        let Some(params) = self.probe_params else {
            return;
        };
        let now = self.now;
        let n = self.topo.hosts.len();
        let k = params.pool.min(n).max(1);
        let start = (self.probe_rounds as usize * k) % n;
        let mut loads = Vec::with_capacity(k);
        for off in 0..k {
            let h = self.topo.hosts[(start + off) % n];
            let mut rif = 0u64;
            let mut bytes_in_flight = 0u64;
            for c in &self.tcp_conns {
                if c.flow.src == h && c.done_at.is_none() {
                    rif += 1;
                    if !c.unbounded {
                        bytes_in_flight += c.bytes.saturating_sub(c.sender.acked_bytes());
                    }
                }
            }
            for c in &self.mptcp_conns {
                if c.done_at.is_none() && c.flows.first().is_some_and(|f| f.src == h) {
                    rif += 1;
                }
            }
            let link = self.topo.fabric.link(self.topo.fabric.host_uplink(h));
            let queue_bytes = link.occupancy(now);
            let latency_ns = if link.up && link.rate_bps > 0 {
                SimDuration::transmission(queue_bytes, link.rate_bps).as_nanos()
            } else {
                u64::MAX / 2
            };
            loads.push(presto_probe::HostLoad {
                host: h,
                rif,
                bytes_in_flight,
                queue_bytes,
                latency_ns,
            });
        }
        for i in 0..self.hosts.len() {
            let policy = self.hosts[i].vswitch.policy_mut();
            if policy.probe_params().is_some() {
                policy.probe_feedback(now, &loads);
            }
        }
        self.probe_rounds += 1;
        let next = now + params.every;
        if next <= self.end {
            self.queue.push(next, Event::ProbeRound);
        }
    }

    /// Sample every tree's first-hop uplink at each leaf and hand the
    /// signals to the edge policies that opted in. Hosts on the same leaf
    /// share a signal slice (the first ascending hop is a property of the
    /// leaf, not the host); hosts hanging off upper tiers (WAN remotes)
    /// are skipped — shadow-MAC trees don't cover them.
    fn on_path_feedback(&mut self) {
        let Some(every) = self.feedback_every else {
            return;
        };
        let Some(ctl) = &self.controller else { return };
        let now = self.now;
        let topo = &self.topo;
        let trees = ctl.tree_count();
        // One block of `trees` signals per leaf, in leaf order.
        let signals = &mut self.scratch.path_signals;
        signals.clear();
        for &leaf in &topo.leaves {
            signals.extend((0..trees).map(|t| match ctl.tree_uplink(topo, t, leaf) {
                Some(l) => {
                    let link = topo.fabric.link(l);
                    PathSignal {
                        tree: t as u32,
                        queue_bytes: link.occupancy(now),
                        rate_fraction: if link.up { link.rate_fraction() } else { 0.0 },
                    }
                }
                None => PathSignal {
                    tree: t as u32,
                    queue_bytes: 0,
                    rate_fraction: 1.0,
                },
            }));
        }
        for &h in &topo.hosts {
            let leaf = topo.host_leaf[h.index()];
            if !topo.is_leaf(leaf) {
                continue;
            }
            let at = topo.position_in_tier(leaf) * trees;
            self.hosts[h.index()]
                .vswitch
                .policy_mut()
                .path_feedback(now, &signals[at..at + trees]);
        }
        let next = now + every;
        if next <= self.end {
            self.queue.push(next, Event::PathFeedback);
        }
    }

    fn on_deliver(&mut self, h: HostId, pkt: Packet) {
        match self.hosts[h.index()].ring.push(pkt) {
            RxAction::SchedulePoll(d) => self.queue.push(self.now + d, Event::NicPoll(h)),
            RxAction::PollNow => self.queue.push(self.now, Event::NicPoll(h)),
            RxAction::Dropped => {
                self.stats.ring_drops += 1;
                if let Some(tel) = self.telemetry.as_ref() {
                    tel.sink.borrow_mut().record(
                        self.now.as_nanos(),
                        TraceEvent::PacketDropped {
                            site: h.0,
                            reason: DropReason::RingOverflow,
                        },
                    );
                }
            }
            RxAction::None => {}
        }
    }

    fn on_poll(&mut self, h: HostId) {
        let mut batch = std::mem::take(&mut self.scratch.rx_batch);
        self.hosts[h.index()].ring.drain_into(&mut batch);
        if batch.is_empty() {
            self.scratch.rx_batch = batch;
            return;
        }
        let mut acks = std::mem::take(&mut self.scratch.acks);
        let mut probes = std::mem::take(&mut self.scratch.probes);
        let mut misc_pkts = 0u64;
        {
            let host = &mut self.hosts[h.index()];
            for pkt in &batch {
                match pkt.kind {
                    PacketKind::Data { .. } => host.gro.on_packet(self.now, pkt),
                    PacketKind::Ack { ack, sack_hi } => {
                        misc_pkts += 1;
                        // On an ACK the `ce` bit carries the receiver's
                        // ECN-Echo, not a fabric mark.
                        acks.push((pkt.flow, ack, sack_hi, pkt.ce));
                    }
                    PacketKind::Probe { .. } => {
                        misc_pkts += 1;
                        probes.push(*pkt);
                    }
                }
            }
            // Driver work for non-data packets (data packets are charged
            // through their segments).
            if misc_pkts > 0 {
                let cost = host.cpu.costs.per_packet.saturating_mul(misc_pkts);
                host.cpu.charge(self.now, cost);
            }
        }
        self.push_up_flushed(h, false);
        self.arm_gro_timer(h);
        for (flow, ack, sack, ece) in acks.drain(..) {
            self.on_ack(flow, ack, sack, ece);
        }
        for p in probes.drain(..) {
            self.on_probe(h, p);
        }
        batch.clear();
        self.scratch.rx_batch = batch;
        self.scratch.acks = acks;
        self.scratch.probes = probes;
    }

    /// Flush GRO (end-of-poll or expired-only), run the CPU model, and
    /// schedule the completions — all through reused scratch buffers.
    fn push_up_flushed(&mut self, h: HostId, expired_only: bool) {
        let mut segs = std::mem::take(&mut self.scratch.segs);
        let mut completions = std::mem::take(&mut self.scratch.completions);
        let host = &mut self.hosts[h.index()];
        if expired_only {
            host.gro.flush_expired_into(self.now, &mut segs);
        } else {
            host.gro.flush_into(self.now, &mut segs);
        }
        host.cpu.process_into(self.now, &segs, &mut completions);
        for &(t, seg) in &completions {
            host.cpu_done.push_back((t, seg));
            self.queue.push(t, Event::CpuDone(h));
        }
        segs.clear();
        completions.clear();
        self.scratch.segs = segs;
        self.scratch.completions = completions;
    }

    fn on_gro_timer(&mut self, h: HostId) {
        self.hosts[h.index()].gro_timer_at = None;
        let due = match self.hosts[h.index()].gro.next_deadline() {
            Some(d) if d <= self.now => true,
            Some(_) => false,
            None => return,
        };
        if due {
            self.push_up_flushed(h, true);
        }
        self.arm_gro_timer(h);
    }

    fn arm_gro_timer(&mut self, h: HostId) {
        let host = &mut self.hosts[h.index()];
        if let Some(d) = host.gro.next_deadline() {
            let at = if d > self.now { d } else { self.now };
            let need = match host.gro_timer_at {
                Some(cur) => at < cur,
                None => true,
            };
            if need {
                host.gro_timer_at = Some(at);
                self.queue.push(at, Event::GroTimer(h));
            }
        }
    }

    /// A segment finished CPU processing: hand to TCP, emit the ACK.
    fn on_segment_up(&mut self, h: HostId, seg: Segment) {
        if self.now >= self.warmup {
            self.stats.segment_bytes.push(seg.len as f64);
        }
        if self.collect_reorder {
            self.stats
                .cell_sequences
                .entry(seg.flow)
                .or_default()
                .push(seg.flowcell);
            self.stats
                .seq_sequences
                .entry(seg.flow)
                .or_default()
                .push(seg.seq);
        }
        let out = match self.receivers.get_mut(&seg.flow) {
            Some(r) => r.on_segment(seg.seq, seg.len),
            // Data for an unknown flow (probe port etc.) — drop.
            None => return,
        };
        // One ACK per delivered segment, sent through the reverse-path
        // policy of the receiving host's vSwitch.
        let rflow = seg.flow.reverse();
        let tag = self.hosts[h.index()]
            .vswitch
            .process(self.now, rflow, 0, false);
        // DCTCP-style ECE echo: the receiver reflects the delivered
        // segment's CE state on the ACK it answers with. The OR across a
        // GRO merge means one marked member packet marks the whole
        // segment's ACK.
        let ack = make_ack(rflow, out.ack, out.sack_hi, tag, seg.ce);
        self.inject(h, ack);
    }

    fn on_ack(&mut self, ack_flow: FlowKey, ack: u64, sack_hi: u64, ece: bool) {
        let fwd = ack_flow.reverse();
        let Some(&sref) = self.flow_senders.get(&fwd) else {
            return;
        };
        let out = match sref {
            SenderRef::Tcp(i) => self.tcp_conns[i]
                .sender
                .on_ack_ecn(self.now, ack, sack_hi, ece),
            // MPTCP subflows run the coupled Lia controller, which ignores
            // ECE (its `on_ce_echo` is the default no-op).
            SenderRef::Mptcp { conn, sub } => self.mptcp_conns[conn]
                .conn
                .on_ack(self.now, sub, ack, sack_hi),
        };
        self.emit(sref, fwd, out);
    }

    fn on_probe_send(&mut self, i: usize) {
        let (flow, id) = {
            let p = &mut self.pingers[i];
            let id = p.next_id;
            p.next_id += 1;
            p.outstanding.insert(id, self.now);
            (p.flow, id)
        };
        let tag = self.hosts[flow.src.index()]
            .vswitch
            .process(self.now, flow, 0, false);
        let pkt = Packet {
            flow,
            src_host: flow.src,
            dst_host: flow.dst,
            dst_mac: tag.dst_mac,
            flowcell: tag.flowcell,
            ce: false,
            kind: PacketKind::Probe { id, echo: false },
        };
        self.inject(flow.src, pkt);
        let next = self.now + self.pingers[i].interval;
        if next < self.end {
            self.queue.push(next, Event::ProbeSend(i));
        }
    }

    fn on_probe(&mut self, h: HostId, pkt: Packet) {
        let PacketKind::Probe { id, echo } = pkt.kind else {
            return;
        };
        if !echo {
            // Echo it back through this host's policy.
            let rflow = pkt.flow.reverse();
            let tag = self.hosts[h.index()]
                .vswitch
                .process(self.now, rflow, 0, false);
            let back = Packet {
                flow: rflow,
                src_host: rflow.src,
                dst_host: rflow.dst,
                dst_mac: tag.dst_mac,
                flowcell: tag.flowcell,
                ce: false,
                kind: PacketKind::Probe { id, echo: true },
            };
            self.inject(h, back);
        } else {
            // This is the reply: the original probe flow is the reverse.
            let orig = pkt.flow.reverse();
            if let Some(&pi) = self.probe_flows.get(&orig) {
                if let Some(sent) = self.pingers[pi].outstanding.remove(&id) {
                    if self.now >= self.warmup {
                        self.stats
                            .rtt_ms
                            .push(self.now.saturating_since(sent).as_millis_f64());
                    }
                }
            }
        }
    }

    fn on_cpu_sample(&mut self) {
        let every = self.cpu_sample_every.expect("sampling enabled");
        for (idx, host) in self.hosts.iter_mut().enumerate() {
            let busy = host.cpu.busy_total();
            let delta = busy - host.cpu_busy_snapshot;
            host.cpu_busy_snapshot = busy;
            let util = 100.0 * delta.as_secs_f64() / every.as_secs_f64();
            self.stats
                .cpu_util
                .entry(idx as u32)
                .or_default()
                .push(self.now.as_secs_f64(), util.min(100.0));
        }
        let next = self.now + every;
        if next < self.end {
            self.queue.push(next, Event::CpuSample);
        }
    }

    fn on_warmup(&mut self) {
        // The counter reset below moves the fabric totals backwards; bank
        // the open stage's deltas first and rebase its snapshots to zero.
        if self.stage.is_some() {
            let (d, t) = self.fabric_drops_tx();
            let a = self.total_acked();
            if let Some(st) = self.stage.as_mut() {
                st.rebase_fabric(d, t, a);
            }
        }
        self.topo.fabric.reset_counters();
        for c in &mut self.tcp_conns {
            c.warm_acked = c.sender.acked_bytes();
        }
        for c in &mut self.mptcp_conns {
            c.warm_acked = c.conn.acked_bytes();
        }
    }

    /// Current fabric drop/tx totals for stage accounting.
    fn fabric_drops_tx(&self) -> (u64, u64) {
        (
            self.topo.fabric.total_data_drops(),
            self.topo.fabric.total_uplink_tx_packets(),
        )
    }

    /// Total acked bytes across every connection — monotonic, never reset,
    /// so stage goodput deltas are exact.
    fn total_acked(&self) -> u64 {
        let tcp: u64 = self.tcp_conns.iter().map(|c| c.sender.acked_bytes()).sum();
        let mptcp: u64 = self.mptcp_conns.iter().map(|c| c.conn.acked_bytes()).sum();
        tcp + mptcp
    }

    /// Close the open failure-timeline stage at `self.now` and open `next`.
    fn stage_boundary(&mut self, next: &'static str) {
        if self.stage.is_none() {
            return;
        }
        let (d, t) = self.fabric_drops_tx();
        let a = self.total_acked();
        if let Some(st) = self.stage.as_mut() {
            st.boundary(self.now, next, d, t, a);
        }
    }

    /// Apply fault `i`'s link actions to the fabric and open the next
    /// timeline stage ("fast-failover" while capacity is out and only the
    /// hardware failover groups mask it; "recovering" once it returns).
    fn on_fault(&mut self, i: usize) {
        let (actions, degrading) = {
            let f = &self.faults[i];
            (f.actions.clone(), f.degrading)
        };
        for a in actions {
            match a {
                FaultAction::Down(l) => self.topo.fabric.set_link_down(l),
                FaultAction::Up(l) => self.topo.fabric.set_link_up(l),
                FaultAction::Degrade(l, frac) => self.topo.fabric.degrade_link(l, frac),
                FaultAction::Restore(l) => self.topo.fabric.restore_link_rate(l),
            }
        }
        if let Some(tel) = self.telemetry.as_ref() {
            tel.sink.borrow_mut().record(
                self.now.as_nanos(),
                TraceEvent::FaultApplied {
                    index: i as u32,
                    degrading,
                },
            );
        }
        self.stage_boundary(if degrading {
            "fast-failover"
        } else {
            "recovering"
        });
    }

    /// The controller learned of fault `i`: recompute weighted label
    /// multisets for the affected pairs and open the next timeline stage
    /// ("post-reweight" after a capacity loss, "post-recovery" after a
    /// restoration).
    fn on_controller_notify(&mut self, i: usize) {
        let (leaf, degrading) = {
            let f = &self.faults[i];
            (f.leaf, f.degrading)
        };
        self.reweight_labels(leaf);
        if let Some(tel) = self.telemetry.as_ref() {
            tel.sink.borrow_mut().record(
                self.now.as_nanos(),
                TraceEvent::ControllerNotified { index: i as u32 },
            );
        }
        self.stage_boundary(if degrading {
            "post-reweight"
        } else {
            "post-recovery"
        });
    }

    /// Recompute and redistribute the controller's weighted label
    /// multisets (§3.1: label duplication expresses non-uniform weights).
    /// `affected` limits the update to pairs touching that leaf; `None`
    /// re-weights every pair. No-op without a controller, and for schemes
    /// whose labels are real host MACs (ECMP reroutes in the fabric, the
    /// edge schedule has nothing to re-weight).
    pub fn reweight_labels(&mut self, affected: Option<SwitchId>) {
        let Some(ctl) = &self.controller else { return };
        if self.scheme.policy == crate::scheme::PolicyKind::PrestoEcmp {
            return;
        }
        let hosts: Vec<HostId> = self.topo.hosts.clone();
        let pairs: Vec<(HostId, Vec<HostId>)> = if self.label_pairs.is_empty() {
            hosts.iter().map(|&src| (src, hosts.clone())).collect()
        } else {
            self.label_pairs
                .iter()
                .enumerate()
                .map(|(s, dsts)| (HostId(s as u32), dsts.clone()))
                .collect()
        };
        let mut updated: Vec<HostId> = Vec::new();
        for (src, dsts) in pairs {
            let mut touched = false;
            for dst in dsts {
                if src == dst || self.topo.same_leaf(src, dst) {
                    continue;
                }
                // WAN remotes hang off an upper-tier switch, not a leaf:
                // shadow-MAC trees don't cover them, so pairs involving
                // one keep their real-MAC labels.
                if !self.topo.is_leaf(self.topo.host_leaf[dst.index()])
                    || !self.topo.is_leaf(self.topo.host_leaf[src.index()])
                {
                    continue;
                }
                if let Some(lf) = affected {
                    let touches = self.topo.host_leaf[src.index()] == lf
                        || self.topo.host_leaf[dst.index()] == lf;
                    if !touches {
                        continue;
                    }
                }
                let labels = ctl.weighted_labels(&self.topo, src, dst);
                self.hosts[src.index()]
                    .vswitch
                    .policy_mut()
                    .set_labels(dst, labels);
                touched = true;
            }
            if touched {
                updated.push(src);
            }
        }
        // One lifecycle notification per source whose table changed, after
        // its whole batch of sequences is installed.
        let now = self.now;
        for src in updated {
            self.hosts[src.index()]
                .vswitch
                .policy_mut()
                .labels_updated(now);
        }
    }

    fn on_shuffle_more(&mut self, src: usize) {
        loop {
            let (dst, bytes) = {
                let Some(sh) = &mut self.shuffle else { return };
                if sh.active[src] >= sh.concurrency || sh.pos[src] >= sh.orders[src].len() {
                    return;
                }
                sh.active[src] += 1;
                let dst = sh.orders[src][sh.pos[src]];
                sh.pos[src] += 1;
                (dst, sh.bytes)
            };
            self.start_flow(src, dst, Some(bytes), false, FlowTag::Shuffle(src));
        }
    }

    /// Finalize: gather statistics into a [`Report`].
    fn finish(&mut self) -> Report {
        if let Some(st) = self.stage.take() {
            let (d, t) = self.fabric_drops_tx();
            let a = self.total_acked();
            self.failover_stages = st.close(self.end, d, t, a);
        }
        let mut report = Report {
            scheme: self.scheme.name.to_string(),
            failover_stages: self.failover_stages.clone(),
            ..Report::default()
        };
        let window = self.end.saturating_since(self.warmup).as_secs_f64();
        // Elephant goodputs.
        for c in &self.tcp_conns {
            if c.unbounded && window > 0.0 {
                let bytes = c.sender.acked_bytes() - c.warm_acked;
                report
                    .elephant_tputs
                    .push(bytes as f64 * 8.0 / window / 1e9);
            }
            report.retransmissions += c.sender.retransmissions;
            report.timeouts += c.sender.timeouts;
            report.fast_retransmits += c.sender.fast_retransmits;
        }
        for c in &self.mptcp_conns {
            if c.unbounded && window > 0.0 {
                let bytes = c.conn.acked_bytes() - c.warm_acked;
                report
                    .elephant_tputs
                    .push(bytes as f64 * 8.0 / window / 1e9);
            }
            report.retransmissions += c.conn.retransmissions();
            report.timeouts += c.conn.timeouts();
        }
        if let Some(sh) = &self.shuffle {
            report.elephant_tputs.extend(sh.tputs.iter().copied());
        }
        report
            .elephant_tputs
            .extend(self.stats.bulk_tputs.iter().copied());
        for v in &self.stats.rtt_ms {
            report.rtt_ms.add(*v);
        }
        for v in &self.stats.mice_fct_ms {
            report.mice_fct_ms.add(*v);
        }
        for v in &self.stats.segment_bytes {
            report.segment_bytes.add(*v);
        }
        // Flow order, not hash order: the samples fold into the digest in
        // insertion order.
        let mut cell_flows: Vec<_> = self.stats.cell_sequences.iter().collect();
        cell_flows.sort_unstable_by_key(|&(flow, _)| *flow);
        for (_, seq) in cell_flows {
            for c in ooo_cell_counts(seq) {
                report.ooo_cell_counts.add(c as f64);
            }
        }
        {
            let mut reordered = 0usize;
            let mut total = 0usize;
            for seq in self.stats.seq_sequences.values() {
                let st = presto_metrics::reorder_stats(seq);
                reordered += st.reordered;
                total += st.total;
            }
            report.reordered_fraction = if total > 0 {
                reordered as f64 / total as f64
            } else {
                0.0
            };
        }
        report.loss_rate = self.topo.fabric.loss_rate();
        report.cpu_util = std::mem::take(&mut self.stats.cpu_util);
        for r in self.receivers.values() {
            report.tcp_ooo_segments += r.ooo_segments;
        }
        for (hi, host) in self.hosts.iter().enumerate() {
            report.flowcells += host.vswitch.policy().flowcells_created();
            let fl = host.vswitch.policy().flowlet_sizes();
            if !fl.is_empty() {
                report.flowlet_sizes.insert(hi as u32, fl);
            }
            let (masked, fired) = host.gro.reorder_stats();
            report.gro_reorders_masked += masked;
            report.gro_timeout_fires += fired;
            report.gro_ce_merges += host.gro.ce_merge_count();
        }
        for link in self.topo.fabric.links() {
            report.ce_marked_packets += link.counters.ce_marked_packets;
        }
        if let Some(inc) = &self.incast {
            report.incast_requests = inc.tracker.total();
            report.incast_deadline_misses = inc.tracker.misses();
            for &v in inc.tracker.elapsed_ms() {
                report.incast_request_ms.add(v);
            }
        }
        if let Some(ar) = &self.allreduce {
            report.allreduce_rounds = ar.rounds_completed;
            for &v in &ar.round_ms {
                report.allreduce_round_ms.add(v);
            }
        }
        report.probe_rounds = self.probe_rounds;
        if self.probe_rounds != 0 {
            let mut pool = presto_probe::PoolStats::default();
            for host in &self.hosts {
                if let Some(s) = host.vswitch.policy().probe_pool_stats() {
                    pool.merge(s);
                }
            }
            report.probe_pool_samples = pool.samples;
            report.probe_pool_hot = pool.hot;
            report.probe_pool_cold = pool.cold;
        }
        report.events_processed = self.events_processed;
        report
    }

    /// Assemble the [`TelemetryReport`] after a run: per-component counter
    /// registries in a fixed order (links, switches, hosts, TCP
    /// aggregate), GRO flush-reason totals, per-path spray counts,
    /// queue-depth summaries, the event-queue profile, and the drained
    /// trace ring. Returns `None` unless telemetry was enabled.
    ///
    /// Every collection is emitted in index order — no map iteration — so
    /// two identical runs produce byte-identical reports.
    pub fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        let tel = self.telemetry.as_mut()?;
        let mut rep = TelemetryReport {
            scheme: self.scheme.name.to_string(),
            ..TelemetryReport::default()
        };
        // Link counters, ascending link id.
        for (i, link) in self.topo.fabric.links().iter().enumerate() {
            let component = format!("link{i}");
            let c = &link.counters;
            for (name, value) in [
                ("tx_packets", c.tx_packets),
                ("tx_bytes", c.tx_bytes),
                ("dropped_packets", c.dropped_packets),
                ("dropped_bytes", c.dropped_bytes),
                ("max_queue_bytes", c.max_queue_bytes),
            ] {
                rep.counters.push(CounterEntry {
                    component: component.clone(),
                    name: name.to_string(),
                    value,
                });
            }
            // Emitted only when ECN marked something, so ECN-off runs keep
            // their pre-ECN counter registry byte-identical.
            if c.ce_marked_packets != 0 {
                rep.counters.push(CounterEntry {
                    component: component.clone(),
                    name: "ce_marked_packets".to_string(),
                    value: c.ce_marked_packets,
                });
            }
        }
        // Switch counters, ascending switch id.
        for (i, sw) in self.topo.fabric.switches().enumerate() {
            rep.counters.push(CounterEntry {
                component: format!("switch{i}"),
                name: "no_route_drops".to_string(),
                value: sw.no_route_drops,
            });
        }
        // Host counters (NIC ring, egress, GRO), ascending host id.
        for (i, host) in self.hosts.iter().enumerate() {
            let component = format!("host{i}");
            let fr = host.gro.flush_reason_counts();
            for (name, value) in [
                ("ring_overflow_drops", host.ring.overflow_drops),
                ("egress_staged", host.egress.staged_total),
                ("gro_flushes", fr.iter().sum::<u64>()),
            ] {
                rep.counters.push(CounterEntry {
                    component: component.clone(),
                    name: name.to_string(),
                    value,
                });
            }
            // CE-preserving merges; zero (and absent) without ECN.
            let ce_merges = host.gro.ce_merge_count();
            if ce_merges != 0 {
                rep.counters.push(CounterEntry {
                    component: component.clone(),
                    name: "gro_ce_merges".to_string(),
                    value: ce_merges,
                });
            }
            for (j, v) in fr.iter().enumerate() {
                rep.flush_reasons[j] += v;
            }
            let sp = host.vswitch.policy().path_spray_counts();
            if rep.spray_counts.len() < sp.len() {
                rep.spray_counts.resize(sp.len(), 0);
            }
            for (j, v) in sp.iter().enumerate() {
                rep.spray_counts[j] += v;
            }
        }
        // Transport aggregate across all connections.
        let mut tcp = [
            ("acked_bytes", 0u64),
            ("retransmissions", 0),
            ("timeouts", 0),
            ("fast_retransmits", 0),
        ];
        for c in &self.tcp_conns {
            for (slot, (name, value)) in tcp.iter_mut().zip(c.sender.telemetry_counters()) {
                debug_assert_eq!(slot.0, name);
                slot.1 += value;
            }
        }
        for c in &self.mptcp_conns {
            tcp[0].1 += c.conn.acked_bytes();
            tcp[1].1 += c.conn.retransmissions();
            tcp[2].1 += c.conn.timeouts();
        }
        for (name, value) in tcp {
            rep.counters.push(CounterEntry {
                component: "tcp".to_string(),
                name: name.to_string(),
                value,
            });
        }
        // Estimated control-plane wire cost of receiver-load probing;
        // zero (and absent) unless a policy opted into probe rounds, so
        // probe-free runs keep their counter registry byte-identical.
        if self.probe_rounds != 0 {
            let params = self.probe_params.expect("probe rounds imply params");
            let per_round = params.pool.min(self.topo.hosts.len()).max(1) as u64;
            rep.counters.push(CounterEntry {
                component: "probe".to_string(),
                name: "probe_wire_bytes".to_string(),
                value: self.probe_rounds * per_round * presto_netsim::PROBE_WIRE_BYTES,
            });
        }
        // Queue-depth summaries per link, from the periodic sampler.
        for (i, samples) in tel.depth_samples.iter().enumerate() {
            let mean_util = if samples.is_empty() {
                0.0
            } else {
                tel.util_sum[i] / samples.len() as f64
            };
            rep.queue_depths.push(QueueDepthSummary::from_samples(
                i as u32,
                samples.clone(),
                mean_util,
            ));
        }
        // Event-queue profile, in EVENT_NAMES order.
        if let Some(profile) = self.queue.profile() {
            for (i, name) in profile.names().iter().enumerate() {
                rep.event_queue.push(QueueProfileEntry {
                    name: name.to_string(),
                    count: profile.counts()[i],
                    dwell_ns: profile.dwell_ns()[i],
                });
            }
        }
        rep.queue_high_water = self.queue.high_water_mark() as u64;
        rep.failover_stages = self.failover_stages.clone();
        rep.events_dropped = tel.sink.borrow().evicted();
        rep.events = tel.sink.borrow_mut().drain();
        Some(rep)
    }
}

/// Build a [`HostNode`] with the given policy and GRO engine.
pub fn make_host(
    policy: Box<dyn EdgePolicy>,
    gro: Box<dyn ReceiveOffload>,
    host: HostId,
    presto_gro_extra: bool,
) -> HostNode {
    let mut cpu = CpuModel::new(CpuCosts::default());
    if presto_gro_extra {
        cpu.per_packet_extra = PRESTO_GRO_EXTRA;
    }
    HostNode {
        vswitch: VSwitch::new(host, policy),
        ring: RxRing::new(),
        cpu,
        gro,
        egress: HostEgress::default(),
        gro_timer_at: None,
        cpu_busy_snapshot: SimDuration::ZERO,
        cpu_done: VecDeque::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_endhost::PathTag;
    use presto_netsim::Mac;

    fn seg(flow: FlowKey, seq: u64, len: u32) -> TxSegment {
        TxSegment {
            flow,
            seq,
            len,
            retx: false,
            tag: PathTag {
                dst_mac: Mac::host(flow.dst),
                flowcell: 0,
            },
        }
    }

    fn flow(sport: u16) -> FlowKey {
        FlowKey::new(HostId(0), HostId(1), sport, 80)
    }

    #[test]
    fn rto_owner_round_trips_every_sender() {
        let senders = [
            SenderRef::Tcp(0),
            SenderRef::Tcp(12_345),
            SenderRef::Tcp((1 << 31) - 1),
            SenderRef::Mptcp { conn: 0, sub: 0 },
            SenderRef::Mptcp { conn: 7, sub: 7 },
            SenderRef::Mptcp {
                conn: (1 << 23) - 1,
                sub: 255,
            },
        ];
        for s in senders {
            assert_eq!(RtoOwner::new(s).sender(), s);
        }
    }

    #[test]
    #[should_panic(expected = "too large for an RTO timer")]
    fn rto_owner_rejects_a_subflow_beyond_its_field() {
        RtoOwner::new(SenderRef::Mptcp { conn: 0, sub: 256 });
    }

    #[test]
    fn egress_round_robins_flows() {
        let mut e = HostEgress::default();
        // Elephant stages three segments, mouse stages one.
        e.stage(seg(flow(1), 0, 64 * 1024));
        e.stage(seg(flow(1), 65536, 64 * 1024));
        e.stage(seg(flow(1), 131072, 64 * 1024));
        e.stage(seg(flow(2), 0, 50_000));
        let order: Vec<u16> = std::iter::from_fn(|| e.pop().map(|s| s.flow.sport)).collect();
        // The mouse's segment goes second, not last: fq semantics.
        assert_eq!(order, vec![1, 2, 1, 1]);
        assert!(e.is_empty());
    }

    #[test]
    fn egress_preserves_intra_flow_order() {
        let mut e = HostEgress::default();
        for i in 0..5u64 {
            e.stage(seg(flow(1), i * 1000, 1000));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| e.pop().map(|s| s.seq)).collect();
        assert_eq!(seqs, vec![0, 1000, 2000, 3000, 4000]);
    }

    #[test]
    fn egress_flow_requeues_after_drain() {
        let mut e = HostEgress::default();
        e.stage(seg(flow(1), 0, 100));
        assert!(e.pop().is_some());
        assert!(e.is_empty());
        // Restaging the same flow works after it drained out.
        e.stage(seg(flow(1), 100, 100));
        assert_eq!(e.pop().unwrap().seq, 100);
        assert_eq!(e.staged_total, 2);
    }

    #[test]
    fn default_cc_is_cubic_iw10() {
        let cc = default_cc();
        assert_eq!(cc.name(), "cubic");
        assert_eq!(cc.cwnd(), 10.0 * 1460.0);
    }
}
