//! The composed event-driven simulator.
//!
//! One [`Simulation`] owns the fabric, every host's soft edge (vSwitch →
//! NIC TSO on transmit; rx ring → GRO → CPU → TCP on receive), all
//! transport state and the experiment timeline (warmup, failures,
//! controller updates). The workloads that drive it (elephants, mice,
//! probes, shuffle, incast, allreduce) live in the private `apps` module:
//! their handlers name the connections to start, and the simulation
//! starts them.
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
use presto_metrics::{Samples, TimeSeries};
use presto_netsim::{
    FlowKey, HostId, LinkId, NetEvent, NetScheduler, Packet, PacketKind, SwitchId, Topology,
};
use presto_simcore::{FxHashMap, SimDuration, SimTime};
use presto_telemetry::{
    CounterEntry, DropReason, FailoverStage, TelemetryConfig, TelemetryReport, TraceEvent,
};
use presto_transport::{
    CongestionControl, MptcpConnection, SenderOutput, TcpConfig, TcpReceiver, TcpSender,
};

use crate::apps::{Apps, FlowTag, Start};
use crate::observe::{self, Agenda, Observer, Telemetry};
use crate::report::{ooo_cell_counts, Report};
use crate::scheme::{SchemeSpec, TransportKind};

/// Extra per-packet CPU charged by Presto's GRO bookkeeping — calibrated
/// so the overall overhead lands near the paper's +6% (Fig 6).
pub const PRESTO_GRO_EXTRA: SimDuration = SimDuration::from_nanos(75);

/// One subflow of a connection, packed into 32 bits so that [`Event::Rto`]
/// fits a 16-byte event: the connection's index in the simulation's
/// connection table in bits 8..32, and the subflow in bits 0..8 (always 0
/// for single-path TCP). Building a simulation rejects a subflow count
/// beyond [`TransportKind::MAX_SUBFLOWS`], and starting a connection
/// panics past 2^24 connections in one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subflow(u32);

impl Subflow {
    const SUB_BITS: u32 = 8;

    /// Pack subflow `sub` of connection `conn`; panics if an index does
    /// not fit its field.
    fn new(conn: usize, sub: usize) -> Self {
        assert!(
            conn < 1 << (32 - Self::SUB_BITS) && sub < 1 << Self::SUB_BITS,
            "connection or subflow index too large for an RTO timer"
        );
        Subflow((conn as u32) << Self::SUB_BITS | sub as u32)
    }

    fn conn(self) -> usize {
        (self.0 >> Self::SUB_BITS) as usize
    }

    fn sub(self) -> usize {
        (self.0 & ((1 << Self::SUB_BITS) - 1)) as usize
    }
}

/// Global event type. Every variant is a small handle (16 bytes, pinned
/// below): payloads too large for that, such as packets in flight and
/// segments in the receive CPU, wait in the component that owns them.
#[derive(Debug, Clone, Copy, Hash)]
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
    /// TCP retransmission timer of a subflow, with the timer generation.
    Rto(Subflow, u64),
    /// Start one-shot flow `i` of the workloads.
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
const _: () = assert!(TransportKind::MAX_SUBFLOWS == 1 << Subflow::SUB_BITS);

/// Event kind names, index-aligned with [`Event::kind`].
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

impl Event {
    /// The event's row in [`EVENT_NAMES`].
    pub fn kind(&self) -> usize {
        match self {
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
    order: VecDeque<FlowKey>,
    /// Each flow with staged segments, and its queue.
    queues: FxHashMap<FlowKey, VecDeque<TxSegment>>,
    /// Emptied queues of drained flows: a flow staging its first segment
    /// takes one, so re-staging a flow allocates nothing.
    spare: Vec<VecDeque<TxSegment>>,
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
        let spare = &mut self.spare;
        let q = self
            .queues
            .entry(seg.flow)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        // A flow sits in `order` iff its queue is non-empty (`pop` moves
        // drained queues to `spare`), so the emptiness check alone decides
        // membership — no O(n) scan of `order` per staged segment.
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
            let q = self.queues.remove(&flow).expect("queued flow");
            self.spare.push(q);
        } else {
            self.order.push_back(flow);
        }
        Some(seg)
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// A connection, whatever its transport, and its measurement state.
struct Conn {
    /// Forward flow key of subflow 0; subflow `i` uses source port
    /// `sport + i`.
    flow: FlowKey,
    /// When the connection started.
    start: SimTime,
    /// Completion time, if finished.
    done_at: Option<SimTime>,
    /// Acked bytes at the warmup mark.
    warm_acked: u64,
    /// Unbounded elephant?
    unbounded: bool,
    /// Total bytes for bounded connections.
    bytes: u64,
    /// Owning application, for completion bookkeeping.
    tag: FlowTag,
    /// The sender state machines.
    transport: Transport,
}

impl Conn {
    /// Forward flow key of subflow `sub`.
    fn flow(&self, sub: usize) -> FlowKey {
        FlowKey {
            sport: self.flow.sport + sub as u16,
            ..self.flow
        }
    }

    /// Bytes a receiver-load probe counts in flight: the unacked rest of
    /// a bounded single-path flow. MPTCP connections count none.
    fn probe_bytes_in_flight(&self) -> u64 {
        match &self.transport {
            Transport::Tcp(sender) if !self.unbounded => {
                self.bytes.saturating_sub(sender.acked_bytes())
            }
            _ => 0,
        }
    }
}

/// A connection's sender state machines.
enum Transport {
    /// Single-path TCP: one flow's sender.
    Tcp(TcpSender<Box<dyn CongestionControl>>),
    /// MPTCP: the subflow bundle.
    Mptcp(MptcpConnection),
}

impl Transport {
    /// Hand subflow `sub` its share of the application's bytes (`None`:
    /// an unbounded elephant), adding its first output to `out`. Each
    /// subflow is started once, in subflow order.
    fn start_into(&mut self, now: SimTime, sub: usize, bytes: Option<u64>, out: &mut SenderOutput) {
        match self {
            Transport::Tcp(sender) => match bytes {
                Some(b) => sender.app_write_into(now, b, out),
                None => sender.set_unlimited_into(now, out),
            },
            Transport::Mptcp(conn) => conn.start_into(now, sub, out),
        }
    }

    fn on_ack_into(
        &mut self,
        now: SimTime,
        sub: usize,
        ack: u64,
        sack_hi: u64,
        ece: bool,
        out: &mut SenderOutput,
    ) {
        match self {
            Transport::Tcp(sender) => sender.on_ack_into(now, ack, sack_hi, ece, out),
            // MPTCP subflows run the coupled Lia controller, which ignores
            // ECE (its `on_ce_echo` is the default no-op).
            Transport::Mptcp(conn) => conn.on_ack_into(now, sub, ack, sack_hi, out),
        }
    }

    fn on_rto_into(&mut self, now: SimTime, sub: usize, gen: u64, out: &mut SenderOutput) {
        match self {
            Transport::Tcp(sender) => sender.on_rto_into(now, gen, out),
            Transport::Mptcp(conn) => conn.on_rto_into(now, sub, gen, out),
        }
    }

    fn acked_bytes(&self) -> u64 {
        self.counters()[0].1
    }

    /// Sender counters, named as [`TcpSender::telemetry_counters`] names
    /// them. MPTCP counts no fast retransmits: [`MptcpConnection`] keeps
    /// no such total.
    fn counters(&self) -> [(&'static str, u64); 4] {
        match self {
            Transport::Tcp(sender) => sender.telemetry_counters(),
            Transport::Mptcp(conn) => [
                ("acked_bytes", conn.acked_bytes()),
                ("retransmissions", conn.retransmissions()),
                ("timeouts", conn.timeouts()),
                ("fast_retransmits", 0),
            ],
        }
    }
}

/// A forward flow: the connection subflow that sends it, and its
/// receiver.
struct Flow {
    subflow: Subflow,
    receiver: TcpReceiver,
}

/// Live statistics accumulated during a run.
#[derive(Default)]
pub struct Stats {
    /// Segment sizes pushed up receive stacks (bytes), post-warmup.
    /// `finish` moves them into the report.
    pub segment_bytes: Samples,
    /// Per-flow flowcell-ID sequences in push-up order (Fig 5a), only when
    /// reorder collection is enabled.
    pub cell_sequences: HashMap<FlowKey, Vec<u64>>,
    /// Per-flow byte-offset sequences in push-up order (RFC 4737-style
    /// reordered-fraction metric), only when reorder collection is on.
    pub seq_sequences: HashMap<FlowKey, Vec<u64>>,
    /// CPU utilization series per host.
    pub cpu_util: HashMap<u32, TimeSeries>,
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
/// path, for example) can never observe a buffer that is still in use.
#[derive(Default)]
struct Scratch {
    /// One staged segment's TSO packets, on their way to the uplink.
    tso: Vec<Packet>,
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
    /// What one sender interaction (start, ACK, RTO) produced.
    sender: SenderOutput,
}

/// The composed simulator.
pub struct Simulation {
    /// Current simulated time.
    pub now: SimTime,
    /// The event queue and the observers watching the run.
    agenda: Agenda,
    /// The network.
    pub topo: Topology,
    /// The hosts' soft edges, in ascending host id: one per host that
    /// sends or receives in the scenario's workloads, plus any WAN
    /// remotes. Look one up by id with [`Simulation::host`].
    pub hosts: Vec<HostNode>,
    /// Each topology host's position in `hosts`, [`NO_EDGE`] for a host
    /// without edge state.
    edge_index: Vec<u32>,
    /// Every connection of the run in start order, whatever its
    /// transport; a [`Subflow`] names one by its index here.
    conns: Vec<Conn>,
    /// Every subflow's forward flow, for arriving data and ACKs.
    flows: FxHashMap<FlowKey, Flow>,
    /// The run's workloads.
    apps: Apps,
    sports: FxHashMap<(u32, u32), u16>,
    /// Scheme in force.
    pub scheme: SchemeSpec,
    /// Controller, for Presto-style schemes.
    pub controller: Option<Controller>,
    /// The destinations whose label sequences were installed, one row
    /// per source that has any, both in ascending host id. The
    /// controller re-weights exactly these pairs after a fault.
    pub label_pairs: Vec<(HostId, Vec<HostId>)>,
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
    scratch: Scratch,
    events_processed: u64,
    /// Resolved fault timeline, indexed by [`Event::Fault`] /
    /// [`Event::ControllerNotify`] payloads.
    pub faults: Vec<ResolvedFault>,
    /// Failure-timeline accounting; present iff `faults` is non-empty.
    stage: Option<StageTracker>,
    /// The closed failure timeline, populated by `finish`.
    pub failover_stages: Vec<FailoverStage>,
}

/// `NetScheduler` adapter: fabric events go back into the agenda, host
/// deliveries into a drain buffer processed after each fabric call, and
/// the fabric's trace events to the observers.
struct Sched<'a> {
    now: SimTime,
    agenda: &'a mut Agenda,
    delivered: &'a mut Vec<(HostId, Packet)>,
}

impl NetScheduler for Sched<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn schedule_net(&mut self, delay: SimDuration, ev: NetEvent) {
        self.agenda.push(self.now, self.now + delay, Event::Net(ev));
    }
    fn deliver(&mut self, host: HostId, packet: Packet) {
        self.delivered.push((host, packet));
    }
    #[inline]
    fn record(&mut self, ev: impl FnOnce() -> TraceEvent) {
        self.agenda.record(self.now, ev);
    }
}

/// [`Simulation::edge_index`] entry of a host without edge state.
const NO_EDGE: u32 = u32::MAX;

/// A host without edge state was looked up: it was not in the talking set
/// the simulation was built for.
#[cold]
#[inline(never)]
fn no_edge(id: HostId) -> ! {
    panic!(
        "host {} has no edge state: it is not in the talking set",
        id.0
    )
}

impl Simulation {
    /// A simulator over `topo` with per-host edges supplied by `mk_host`,
    /// running the workloads `apps`.
    ///
    /// `talking` marks, by server index, the servers that ever send or
    /// receive; `mk_host` runs only for those and for every host past
    /// the mask (WAN remotes). `None` builds every host's edge. The
    /// path-feedback and probe cadences are those of the scheme's
    /// registry policy. Nothing is scheduled yet: not the warm-up mark,
    /// and no workload before [`Simulation::schedule_apps`].
    pub(crate) fn new(
        topo: Topology,
        scheme: SchemeSpec,
        mut mk_host: impl FnMut(HostId) -> HostNode,
        talking: Option<&[bool]>,
        apps: Apps,
        end: SimTime,
        warmup: SimTime,
    ) -> Self {
        let (feedback_every, probe_params) = {
            let policy = crate::registry::build_policy(&scheme, 0);
            (policy.feedback_interval(), policy.probe_params())
        };
        let mut edge_index = vec![NO_EDGE; topo.host_count()];
        let mut hosts = Vec::new();
        for &h in &topo.hosts {
            if talking.is_some_and(|t| t.get(h.index()) == Some(&false)) {
                continue;
            }
            edge_index[h.index()] = hosts.len() as u32;
            hosts.push(mk_host(h));
        }
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
        // RTO timers name an MPTCP subflow in a few bits (see `Subflow`).
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
        Simulation {
            now: SimTime::ZERO,
            agenda: Agenda::default(),
            topo,
            hosts,
            edge_index,
            conns: Vec::new(),
            flows: FxHashMap::default(),
            apps,
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
            scratch: Scratch::default(),
            events_processed: 0,
            faults: Vec::new(),
            stage: None,
            failover_stages: Vec::new(),
        }
    }

    /// Schedule each workload's first event. Called once, after any
    /// telemetry is attached, so its event profile counts them.
    pub(crate) fn schedule_apps(&mut self) {
        for (at, ev) in self.apps.first_events() {
            self.agenda.push(self.now, at, ev);
        }
    }

    /// Host `id`'s edge state.
    ///
    /// # Panics
    /// If `id` has none: the host is outside the talking set.
    #[inline]
    pub fn host(&self, id: HostId) -> &HostNode {
        match self.hosts.get(self.edge_index[id.index()] as usize) {
            Some(host) => host,
            None => no_edge(id),
        }
    }

    /// Host `id`'s edge state, mutably.
    ///
    /// # Panics
    /// If `id` has none: the host is outside the talking set.
    #[inline]
    pub fn host_mut(&mut self, id: HostId) -> &mut HostNode {
        match self.hosts.get_mut(self.edge_index[id.index()] as usize) {
            Some(host) => host,
            None => no_edge(id),
        }
    }

    /// Schedule an event at an absolute time.
    pub fn schedule(&mut self, at: SimTime, ev: Event) {
        self.agenda.push(self.now, at, ev);
    }

    /// Append a resolved fault to the timeline and schedule its fabric
    /// event (plus the controller notification, unless dropped). The first
    /// call arms the failure-timeline stage tracker.
    pub fn schedule_fault(&mut self, fault: ResolvedFault) {
        if self.stage.is_none() {
            self.stage = Some(StageTracker::new());
        }
        let i = self.faults.len();
        self.schedule(fault.at, Event::Fault(i));
        if let Some(n) = fault.notify_at {
            // The controller can't hear about a fault before it happens;
            // a same-instant notification still runs after the fault
            // because the queue breaks time ties by insertion order.
            self.schedule(
                if n < fault.at { fault.at } else { n },
                Event::ControllerNotify(i),
            );
        }
        self.faults.push(fault);
    }

    /// Attach `observer`: it hears everything that happens from now on
    /// (see [`Observer`]). Observing never changes the run.
    pub fn attach(&mut self, observer: impl Observer) {
        self.agenda.observers.push(Box::new(observer));
    }

    /// The attached observer of type `T`, if any.
    pub fn observer<T: Observer>(&mut self) -> Option<&mut T> {
        observe::find(&mut self.agenda.observers)
    }

    /// Attach the telemetry layer, replacing any attached before: a trace
    /// ring that the fabric, the edge and every host's GRO engine record
    /// into, the per-kind event profile, and the periodic link/queue
    /// sampler.
    ///
    /// Must be called before [`Simulation::run`]. Enabling telemetry does
    /// not change simulation behaviour: no events are added to the queue
    /// and no packet takes a different path, so `Report::digest()` is
    /// byte-identical with telemetry on or off.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let links = self.topo.fabric.links().len();
        let tel = Telemetry::new(cfg, links, self.agenda.queue.len());
        for host in &mut self.hosts {
            host.gro
                .set_telemetry(host.vswitch.host.0, std::rc::Rc::clone(&tel.ring));
        }
        match self.observer::<Telemetry>() {
            Some(old) => *old = tel,
            None => self.attach(tel),
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
    fn start_flow(&mut self, start: Start) {
        let (src, dst, bytes) = (start.src, start.dst, start.bytes);
        let (transport, subflows) = match self.scheme.transport {
            // The scheme's registry-selected congestion control; the
            // default (CUBIC, IW10) matches the testbed's pre-registry
            // behaviour exactly.
            TransportKind::Tcp => (
                Transport::Tcp(TcpSender::new(
                    self.tcp_cfg.clone(),
                    self.scheme.cc.build(10),
                )),
                1,
            ),
            TransportKind::Mptcp { subflows } => (
                Transport::Mptcp(MptcpConnection::new(
                    self.tcp_cfg.clone(),
                    subflows,
                    bytes.unwrap_or(u64::MAX),
                )),
                subflows,
            ),
        };
        let sport = self.alloc_sport(src.0, dst.0, subflows as u16);
        let idx = self.conns.len();
        self.conns.push(Conn {
            flow: FlowKey::new(src, dst, sport, 80),
            start: self.now,
            done_at: None,
            warm_acked: 0,
            unbounded: bytes.is_none(),
            bytes: bytes.unwrap_or(0),
            tag: start.tag,
            transport,
        });
        for sub in 0..subflows {
            let flow = self.conns[idx].flow(sub);
            // Size hint before the first segment, so size-aware policies
            // classify the flow from byte zero.
            self.host_mut(src)
                .vswitch
                .policy_mut()
                .flow_hint(flow, bytes);
            self.flows.insert(
                flow,
                Flow {
                    subflow: Subflow::new(idx, sub),
                    receiver: TcpReceiver::new(),
                },
            );
        }
        for sub in 0..subflows {
            self.drive(Subflow::new(idx, sub), |transport, now, out| {
                transport.start_into(now, sub, bytes, out)
            });
        }
    }

    /// Run one interaction with `sf`'s connection on the scratch sender
    /// output, then emit what it produced.
    fn drive(
        &mut self,
        sf: Subflow,
        interact: impl FnOnce(&mut Transport, SimTime, &mut SenderOutput),
    ) {
        // Taken for the interaction, as the other scratch buffers are:
        // `emit` needs all of `self`.
        let mut out = std::mem::take(&mut self.scratch.sender);
        interact(&mut self.conns[sf.conn()].transport, self.now, &mut out);
        self.emit(sf, &out);
        out.clear();
        self.scratch.sender = out;
    }

    /// Process a sender's output: transmit segments, arm timers, handle
    /// completion.
    fn emit(&mut self, sf: Subflow, out: &SenderOutput) {
        let flow = self.conns[sf.conn()].flow(sf.sub());
        for a in &out.to_send {
            self.send_segment(flow, a.seq, a.len, a.retx);
        }
        if let Some((deadline, gen)) = out.arm_rto {
            self.schedule(deadline, Event::Rto(sf, gen));
        }
        if out.completed {
            self.on_flow_complete(sf.conn());
        }
    }

    /// vSwitch → egress staging; the drain loop performs TSO and puts
    /// packets on the wire while the uplink queue is shallow.
    fn send_segment(&mut self, flow: FlowKey, seq: u64, len: u32, retx: bool) {
        let host = flow.src;
        let now = self.now;
        let tag = self.host_mut(host).vswitch.process(now, flow, len, retx);
        let seg = TxSegment {
            flow,
            seq,
            len,
            retx,
            tag,
        };
        self.agenda.tagged(now, &seg);
        self.host_mut(host).egress.stage(seg);
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
            let Some(seg) = self.host_mut(host).egress.pop() else {
                break;
            };
            let mut pkts = std::mem::take(&mut self.scratch.tso);
            tso_split_into(seg, &mut pkts);
            for p in pkts.drain(..) {
                self.inject(host, p);
            }
            self.scratch.tso = pkts;
        }
        // More staged data: wake up when the uplink has drained to target.
        if !self.host(host).egress.is_empty() {
            let now = self.now;
            let link = self.topo.fabric.link(uplink);
            let backlog = link.occupancy(now).saturating_sub(EGRESS_TARGET_BYTES) + 1538;
            let at = now + SimDuration::transmission(backlog, link.config().rate_bps());
            let egress = &mut self.host_mut(host).egress;
            let need = match egress.drain_at {
                Some(cur) => at < cur || cur <= now,
                None => true,
            };
            if need {
                egress.drain_at = Some(at);
                self.schedule(at, Event::EgressDrain(host));
            }
        }
    }

    /// Inject one already-built packet at `host`.
    fn inject(&mut self, host: HostId, pkt: Packet) {
        let mut sched = Sched {
            now: self.now,
            agenda: &mut self.agenda,
            delivered: &mut self.scratch.delivered,
        };
        let _ = self.topo.fabric.inject(host, pkt, &mut sched);
        debug_assert!(
            self.scratch.delivered.is_empty(),
            "inject cannot deliver directly"
        );
    }

    fn on_flow_complete(&mut self, conn: usize) {
        let c = &mut self.conns[conn];
        if c.done_at.is_some() {
            return;
        }
        c.done_at = Some(self.now);
        let (tag, start, bytes) = (c.tag, c.start, c.bytes);
        let (now, warmup, end) = (self.now, self.warmup, self.end);
        if let Some(ev) = self.apps.on_flow_done(tag, start, bytes, now, warmup, end) {
            self.schedule(now, ev);
        }
    }

    /// Schedule `ev` one `every` from now, unless that is past the end of
    /// the run.
    fn repeat(&mut self, every: SimDuration, ev: Event) {
        let next = self.now + every;
        if next < self.end {
            self.schedule(next, ev);
        }
    }

    /// Issue one incast request. The aggregator's edge policy gets first
    /// refusal on the responder set via [`EdgePolicy::select_replicas`];
    /// the default `None` keeps the static senders, so load-oblivious
    /// schemes issue the same waves every time.
    fn on_incast_next(&mut self) {
        let Some((aggregator, candidates, fanout)) = self.apps.incast_offer() else {
            return;
        };
        let now = self.now;
        let chose = self
            .host_mut(aggregator)
            .vswitch
            .policy_mut()
            .select_replicas(now, &candidates, fanout);
        let (wave, every) = self.apps.incast_wave(now, chose);
        for start in wave {
            self.start_flow(start);
        }
        self.repeat(every, Event::IncastNext);
    }

    /// Run until the simulated end time; returns the report.
    pub fn run(&mut self) -> Report {
        if let Some(every) = self.cpu_sample_every {
            self.schedule(SimTime::ZERO + every, Event::CpuSample);
        }
        if let Some(every) = self.feedback_every {
            self.schedule(SimTime::ZERO + every, Event::PathFeedback);
        }
        if let Some(params) = self.probe_params {
            self.schedule(SimTime::ZERO + params.every, Event::ProbeRound);
        }
        while let Some((t, ev)) = self.agenda.queue.pop() {
            if t > self.end {
                break;
            }
            self.agenda.dispatching(t, ev, &self.topo.fabric);
            self.now = t;
            self.events_processed += 1;
            self.dispatch(ev);
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
                        agenda: &mut self.agenda,
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
                let (done, seg) = self
                    .host_mut(h)
                    .cpu_done
                    .pop_front()
                    .expect("CpuDone without a pending CPU completion");
                debug_assert_eq!(done, self.now, "CPU completions fire in order");
                self.on_segment_up(h, seg);
            }
            Event::Rto(sf, gen) => self.drive(sf, |transport, now, out| {
                transport.on_rto_into(now, sf.sub(), gen, out)
            }),
            Event::FlowStart(i) => self.start_flow(self.apps.flow(i)),
            Event::MiceNext(i) => {
                let (mouse, every) = self.apps.mouse(i);
                self.start_flow(mouse);
                self.repeat(every, Event::MiceNext(i));
            }
            Event::ProbeSend(i) => self.on_probe_send(i),
            Event::CpuSample => self.on_cpu_sample(),
            Event::WarmupMark => self.on_warmup(),
            Event::Fault(i) => self.on_fault(i),
            Event::ControllerNotify(i) => self.on_controller_notify(i),
            Event::ShuffleMore(src) => {
                while let Some(transfer) = self.apps.shuffle_next(src) {
                    self.start_flow(transfer);
                }
            }
            Event::EgressDrain(h) => {
                self.host_mut(h).egress.drain_at = None;
                self.drain_egress(h);
            }
            Event::PathFeedback => self.on_path_feedback(),
            Event::IncastNext => self.on_incast_next(),
            Event::AllreduceRound => {
                for transfer in self.apps.allreduce_round(self.now) {
                    self.start_flow(transfer);
                }
            }
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
            for c in &self.conns {
                if c.flow.src == h && c.done_at.is_none() {
                    rif += 1;
                    bytes_in_flight += c.probe_bytes_in_flight();
                }
            }
            let link = self.topo.fabric.link(self.topo.fabric.host_uplink(h));
            let queue_bytes = link.occupancy(now);
            let latency_ns = if link.up {
                SimDuration::transmission(queue_bytes, link.config().rate_bps()).as_nanos()
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
        for host in &mut self.hosts {
            let policy = host.vswitch.policy_mut();
            if policy.probe_params().is_some() {
                policy.probe_feedback(now, &loads);
            }
        }
        self.probe_rounds += 1;
        let next = now + params.every;
        if next <= self.end {
            self.schedule(next, Event::ProbeRound);
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
                        rate_fraction: if link.up {
                            link.config().rate_fraction()
                        } else {
                            0.0
                        },
                    }
                }
                None => PathSignal {
                    tree: t as u32,
                    queue_bytes: 0,
                    rate_fraction: 1.0,
                },
            }));
        }
        // A host without edge state never assigns a path, so it has no
        // use for the signals.
        for host in &mut self.hosts {
            let leaf = topo.host_leaf[host.vswitch.host.index()];
            if !topo.is_leaf(leaf) {
                continue;
            }
            let at = topo.position_in_tier(leaf) * trees;
            host.vswitch
                .policy_mut()
                .path_feedback(now, &signals[at..at + trees]);
        }
        let next = now + every;
        if next <= self.end {
            self.schedule(next, Event::PathFeedback);
        }
    }

    fn on_deliver(&mut self, h: HostId, pkt: Packet) {
        match self.host_mut(h).ring.push(pkt) {
            RxAction::SchedulePoll(d) => self.schedule(self.now + d, Event::NicPoll(h)),
            RxAction::PollNow => self.schedule(self.now, Event::NicPoll(h)),
            RxAction::Dropped => self.agenda.record(self.now, || TraceEvent::PacketDropped {
                site: h.0,
                reason: DropReason::RingOverflow,
            }),
            RxAction::None => {}
        }
    }

    fn on_poll(&mut self, h: HostId) {
        let mut batch = std::mem::take(&mut self.scratch.rx_batch);
        self.host_mut(h).ring.drain_into(&mut batch);
        if batch.is_empty() {
            self.scratch.rx_batch = batch;
            return;
        }
        let mut acks = std::mem::take(&mut self.scratch.acks);
        let mut probes = std::mem::take(&mut self.scratch.probes);
        let mut misc_pkts = 0u64;
        {
            let now = self.now;
            let host = self.host_mut(h);
            for pkt in &batch {
                match pkt.kind() {
                    PacketKind::Data { .. } => host.gro.on_packet(now, pkt),
                    PacketKind::Ack { ack, sack_hi } => {
                        misc_pkts += 1;
                        // On an ACK the `ce` bit carries the receiver's
                        // ECN-Echo, not a fabric mark.
                        acks.push((pkt.flow, ack, sack_hi, pkt.ce()));
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
                host.cpu.charge(now, cost);
            }
        }
        self.push_up_flushed(h, false);
        self.arm_gro_timer(h);
        for (flow, ack, sack, ece) in acks.drain(..) {
            self.on_ack(flow, ack, sack, ece);
        }
        for p in probes.drain(..) {
            self.on_probe(p);
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
        let now = self.now;
        let host = self.host_mut(h);
        if expired_only {
            host.gro.flush_expired_into(now, &mut segs);
        } else {
            host.gro.flush_into(now, &mut segs);
        }
        host.cpu.process_into(now, &segs, &mut completions);
        host.cpu_done.extend(completions.iter().copied());
        for &(t, _) in &completions {
            self.schedule(t, Event::CpuDone(h));
        }
        segs.clear();
        completions.clear();
        self.scratch.segs = segs;
        self.scratch.completions = completions;
    }

    fn on_gro_timer(&mut self, h: HostId) {
        let host = self.host_mut(h);
        host.gro_timer_at = None;
        let due = match host.gro.next_deadline() {
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
        let now = self.now;
        let host = self.host_mut(h);
        if let Some(d) = host.gro.next_deadline() {
            let at = if d > now { d } else { now };
            let need = match host.gro_timer_at {
                Some(cur) => at < cur,
                None => true,
            };
            if need {
                host.gro_timer_at = Some(at);
                self.schedule(at, Event::GroTimer(h));
            }
        }
    }

    /// A segment finished CPU processing: hand to TCP, emit the ACK.
    fn on_segment_up(&mut self, h: HostId, seg: Segment) {
        if self.now >= self.warmup {
            self.stats.segment_bytes.add(seg.len as f64);
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
        // Data for an unknown flow (probe port etc.) — drop.
        let Some(f) = self.flows.get_mut(&seg.flow) else {
            return;
        };
        let out = f.receiver.on_segment(seg.seq, seg.len);
        // One ACK per delivered segment, sent through the reverse-path
        // policy of the receiving host's vSwitch.
        let rflow = seg.flow.reverse();
        let now = self.now;
        let tag = self.host_mut(h).vswitch.process(now, rflow, 0, false);
        // DCTCP-style ECE echo: the receiver reflects the delivered
        // segment's CE state on the ACK it answers with. The OR across a
        // GRO merge means one marked member packet marks the whole
        // segment's ACK.
        let ack = make_ack(rflow, out.ack, out.sack_hi, tag, seg.ce);
        self.inject(h, ack);
    }

    fn on_ack(&mut self, ack_flow: FlowKey, ack: u64, sack_hi: u64, ece: bool) {
        let Some(sf) = self.flows.get(&ack_flow.reverse()).map(|f| f.subflow) else {
            return;
        };
        self.drive(sf, |transport, now, out| {
            transport.on_ack_into(now, sf.sub(), ack, sack_hi, ece, out)
        });
    }

    fn on_probe_send(&mut self, i: usize) {
        let (flow, id, every) = self.apps.probe(i, self.now);
        self.send_probe(flow, id, false);
        self.repeat(every, Event::ProbeSend(i));
    }

    /// Send probe `id` (or its echo) on `flow` through the policy of the
    /// flow's source host.
    fn send_probe(&mut self, flow: FlowKey, id: u64, echo: bool) {
        let now = self.now;
        let tag = self.host_mut(flow.src).vswitch.process(now, flow, 0, false);
        let pkt = Packet::new(
            flow,
            tag.dst_mac,
            tag.flowcell,
            PacketKind::Probe { id, echo },
        );
        self.inject(flow.src, pkt);
    }

    /// A probe reached its destination, or an echo came back to its
    /// sender; either way the answer travels the reverse flow.
    fn on_probe(&mut self, pkt: Packet) {
        let PacketKind::Probe { id, echo } = pkt.kind() else {
            return;
        };
        let back = pkt.flow.reverse();
        if echo {
            self.apps.on_probe_echo(id, self.now, self.warmup);
        } else {
            self.send_probe(back, id, true);
        }
    }

    fn on_cpu_sample(&mut self) {
        let every = self.cpu_sample_every.expect("sampling enabled");
        // Every topology host gets a sample; one without edge state never
        // ran its CPU.
        let mut edges = self.hosts.iter_mut().peekable();
        for &id in &self.topo.hosts {
            let util = match edges.next_if(|host| host.vswitch.host == id) {
                Some(host) => {
                    let busy = host.cpu.busy_total();
                    let delta = busy - host.cpu_busy_snapshot;
                    host.cpu_busy_snapshot = busy;
                    100.0 * delta.as_secs_f64() / every.as_secs_f64()
                }
                None => 0.0,
            };
            self.stats
                .cpu_util
                .entry(id.0)
                .or_default()
                .push(self.now.as_secs_f64(), util.min(100.0));
        }
        self.repeat(every, Event::CpuSample);
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
        for c in &mut self.conns {
            c.warm_acked = c.transport.acked_bytes();
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
        self.conns.iter().map(|c| c.transport.acked_bytes()).sum()
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
        self.agenda.record(self.now, || TraceEvent::FaultApplied {
            index: i as u32,
            degrading,
        });
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
        self.agenda
            .record(self.now, || TraceEvent::ControllerNotified {
                index: i as u32,
            });
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
        if self.scheme.policy == crate::scheme::PolicyKind::PrestoEcmp {
            return;
        }
        // Both are put back below; taken so the hosts can be updated.
        let Some(ctl) = self.controller.take() else {
            return;
        };
        let pairs = std::mem::take(&mut self.label_pairs);
        let mut updated: Vec<HostId> = Vec::new();
        for (src, dsts) in &pairs {
            let (src, mut touched) = (*src, false);
            for &dst in dsts {
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
                self.host_mut(src)
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
        self.controller = Some(ctl);
        self.label_pairs = pairs;
        let now = self.now;
        for src in updated {
            self.host_mut(src).vswitch.policy_mut().labels_updated(now);
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
        for c in &self.conns {
            let [(_, acked), (_, retx), (_, timeouts), (_, fast_retx)] = c.transport.counters();
            if c.unbounded && window > 0.0 {
                let bytes = acked - c.warm_acked;
                report
                    .elephant_tputs
                    .push(bytes as f64 * 8.0 / window / 1e9);
            }
            report.retransmissions += retx;
            report.timeouts += timeouts;
            report.fast_retransmits += fast_retx;
        }
        self.apps.report(&mut report);
        report.segment_bytes = std::mem::take(&mut self.stats.segment_bytes);
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
        for f in self.flows.values() {
            report.tcp_ooo_segments += f.receiver.ooo_segments;
        }
        for host in &self.hosts {
            report.flowcells += host.vswitch.policy().flowcells_created();
            let fl = host.vswitch.policy().flowlet_sizes();
            if !fl.is_empty() {
                report.flowlet_sizes.insert(host.vswitch.host.0, fl);
            }
            let (masked, fired) = host.gro.reorder_stats();
            report.gro_reorders_masked += masked;
            report.gro_timeout_fires += fired;
            report.gro_ce_merges += host.gro.ce_merge_count();
        }
        for link in self.topo.fabric.links() {
            report.ce_marked_packets += link.counters.ce_marked_packets;
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
        let tel = observe::find::<Telemetry>(&mut self.agenda.observers)?;
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
        // Host counters (NIC ring, egress, GRO), ascending host id. A
        // host without edge state lists its block, all zero.
        let mut edges = self.hosts.iter().peekable();
        for &id in &self.topo.hosts {
            let component = format!("host{}", id.0);
            let host = edges.next_if(|host| host.vswitch.host == id);
            let fr = host
                .map(|h| h.gro.flush_reason_counts())
                .unwrap_or_default();
            for (name, value) in [
                (
                    "ring_overflow_drops",
                    host.map_or(0, |h| h.ring.overflow_drops),
                ),
                ("egress_staged", host.map_or(0, |h| h.egress.staged_total)),
                ("gro_flushes", fr.iter().sum::<u64>()),
            ] {
                rep.counters.push(CounterEntry {
                    component: component.clone(),
                    name: name.to_string(),
                    value,
                });
            }
            let Some(host) = host else { continue };
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
        for c in &self.conns {
            for (slot, (name, value)) in tcp.iter_mut().zip(c.transport.counters()) {
                debug_assert_eq!(slot.0, name);
                slot.1 += value;
            }
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
        tel.report_into(&mut rep, self.end, &self.topo.fabric, &self.agenda.queue);
        rep.failover_stages = self.failover_stages.clone();
        Some(rep)
    }
}

/// Build one host's [`HostNode`] with the given policy and GRO engine.
/// [`Scenario::build`](crate::Scenario::build) builds one only for each
/// host that talks.
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
    fn subflow_round_trips_at_its_field_limits() {
        for (conn, sub) in [(0, 0), (7, 7), (12_345, 0), ((1 << 24) - 1, 255)] {
            let sf = Subflow::new(conn, sub);
            assert_eq!((sf.conn(), sf.sub()), (conn, sub));
        }
    }

    #[test]
    #[should_panic(expected = "too large for an RTO timer")]
    fn subflow_rejects_a_256th_subflow() {
        Subflow::new(0, 256);
    }

    #[test]
    #[should_panic(expected = "too large for an RTO timer")]
    fn subflow_rejects_a_connection_beyond_its_field() {
        Subflow::new(1 << 24, 0);
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
        let mut sim = crate::Scenario::builder(SchemeSpec::presto(), 1)
            .elephants(vec![presto_workloads::FlowSpec::elephant(
                0,
                1,
                SimTime::ZERO,
            )])
            .build()
            .build();
        sim.start_flow(Start {
            src: HostId(0),
            dst: HostId(1),
            bytes: Some(1_000_000),
            tag: FlowTag::Plain { measure_fct: false },
        });
        let Transport::Tcp(sender) = &sim.conns[0].transport else {
            panic!("the default scheme runs single-path TCP");
        };
        assert_eq!(sender.cc.name(), "cubic");
        assert_eq!(sender.cc.cwnd(), 10.0 * 1460.0);
    }
}
