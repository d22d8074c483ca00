//! Presto's modified GRO engine — Algorithm 2 of the paper.
//!
//! Differences from the stock engine:
//!
//! * **multiple segments per flow** are kept in a `segment_list`, so a
//!   reordered packet no longer ejects the in-progress segment (it simply
//!   starts, or fills, another segment);
//! * the **flush function** walks the flow's segments in sequence order and
//!   decides push-vs-hold using the flowcell ID:
//!   - a sequence gap *within* a flowcell means loss on a single path
//!     (packets of one flowcell traverse one path and arrive FIFO), so the
//!     segment is pushed immediately for TCP to react;
//!   - a gap *at a flowcell boundary* is ambiguous, so the segment is held
//!     for an adaptive timeout in the hope the straggling flowcell arrives;
//! * the **adaptive timeout** is `α × EWMA` of recently observed
//!   boundary-reordering delays, with an extra hold of `EWMA/β` after any
//!   merge into the timed-out segment (α = β = 2 in the paper);
//! * **retransmissions** are pushed up immediately so TCP's recovery is
//!   never delayed.
//!
//! The engine guarantees that, absent loss and timeouts, segments are
//! delivered to TCP strictly in order — the property the Fig 5a experiment
//! measures.

use std::collections::BTreeMap;

use presto_endhost::{ReceiveOffload, Segment};
use presto_netsim::{FlowKey, Packet};
use presto_simcore::{Ewma, SimDuration, SimTime};
use presto_telemetry::{trace_event, FlushReason, SharedSink, TraceEvent};

/// Tunables of the Presto GRO engine.
#[derive(Debug, Clone)]
pub struct PrestoGroConfig {
    /// Timeout multiplier over the reordering EWMA (paper: 2).
    pub alpha: f64,
    /// Recent-merge hold extension divisor (paper: 2; a segment that merged
    /// a packet within `EWMA/β` of its deadline is held a little longer).
    pub beta: f64,
    /// EWMA weight for new reordering samples.
    pub ewma_weight: f64,
    /// EWMA value assumed before the first reordering observation.
    pub ewma_init: SimDuration,
    /// When false, the EWMA never updates — the fixed-timeout strawman of
    /// §3.2 (prior work used a static 10 ms).
    pub adaptive: bool,
    /// Upper clamp on any hold: "the segment should be held long enough to
    /// handle reasonable amounts of reordering, but not so long that TCP
    /// cannot respond to loss promptly" (§3.2). Keeps a loss-induced hold
    /// far below the retransmission timeout.
    pub max_hold: SimDuration,
}

impl Default for PrestoGroConfig {
    fn default() -> Self {
        PrestoGroConfig {
            alpha: 2.0,
            beta: 2.0,
            ewma_weight: 0.125,
            ewma_init: SimDuration::from_micros(100),
            adaptive: true,
            max_hold: SimDuration::from_millis(1),
        }
    }
}

impl PrestoGroConfig {
    /// A fixed hold timeout of `timeout` (no adaptation, no β extension) —
    /// the static strawman the paper argues against.
    pub fn fixed(timeout: SimDuration) -> Self {
        PrestoGroConfig {
            alpha: 1.0,
            beta: 1e12,
            ewma_weight: 0.125,
            ewma_init: timeout,
            adaptive: false,
            max_hold: timeout,
        }
    }
}

impl PrestoGroConfig {
    /// The effective hold timeout for the current EWMA value.
    fn hold_timeout(&self, ewma: SimDuration) -> SimDuration {
        ewma.mul_f64(self.alpha).min(self.max_hold)
    }

    /// The effective recent-merge grace for the current EWMA value.
    fn merge_grace(&self, ewma: SimDuration) -> SimDuration {
        ewma.mul_f64(1.0 / self.beta).min(self.max_hold)
    }

    /// Clamp an EWMA sample so loss-dominated waits cannot blow the
    /// estimator up.
    fn clamp_sample(&self, waited: SimDuration) -> f64 {
        waited.min(self.max_hold).as_nanos() as f64
    }
}

/// A segment plus its hold bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Held {
    seg: Segment,
    /// When the flush function first decided to hold this segment.
    held_at: Option<SimTime>,
    /// Last time a packet merged into this segment (β optimization).
    last_merge: SimTime,
}

/// Per-flow receiver state (`f.expSeq`, `f.lastFlowcell`, `segment_list`).
#[derive(Debug)]
struct FlowState {
    /// Next expected in-order byte (f.expSeq). `None` until the first
    /// segment is pushed: the first bytes of a connection define it.
    exp_seq: Option<u64>,
    /// Flowcell of the most recent in-order data (f.lastFlowcell).
    last_flowcell: u64,
    /// The multi-segment list (kept unsorted; flush insertion-sorts, as in
    /// the paper).
    segs: Vec<Held>,
    /// EWMA over "reordering, but no loss, on flowcell boundaries" delays,
    /// in nanoseconds.
    reorder_ewma: Ewma,
}

/// # Example
///
/// ```
/// use presto_gro::PrestoGro;
/// use presto_endhost::ReceiveOffload;
/// use presto_netsim::{FlowKey, HostId, Mac, Packet, PacketKind, MSS};
/// use presto_simcore::SimTime;
///
/// let flow = FlowKey::new(HostId(0), HostId(1), 1, 2);
/// let pkt = |i: u64, cell: u64| Packet {
///     flow, src_host: HostId(0), dst_host: HostId(1),
///     dst_mac: Mac::host(HostId(1)), flowcell: cell, ce: false,
///     kind: PacketKind::Data { seq: i * MSS as u64, len: MSS, retx: false },
/// };
/// let mut gro = PrestoGro::new();
/// let t = SimTime::from_micros(5);
/// // Cell 1 arrives BEFORE cell 0 finishes: the boundary gap is held...
/// gro.on_packet(t, &pkt(0, 0));
/// gro.on_packet(t, &pkt(2, 1));
/// assert_eq!(gro.flush(t).len(), 1, "only the in-order cell-0 data passes");
/// // ...until the missing cell-0 tail arrives, then both go up in order.
/// gro.on_packet(t, &pkt(1, 0));
/// let segs = gro.flush(t);
/// assert_eq!(segs.len(), 2);
/// assert!(segs[0].seq < segs[1].seq);
/// ```
/// The Presto GRO engine.
pub struct PrestoGro {
    cfg: PrestoGroConfig,
    flows: BTreeMap<FlowKey, FlowState>,
    /// Segments pushed up, total (instrumentation).
    pub segments_pushed: u64,
    /// Boundary holds that ended by timeout rather than gap fill.
    pub timeout_fires: u64,
    /// Boundary holds that ended with the gap filled (reordering masked).
    pub reorders_masked: u64,
    /// Pushes attributed per flush cause (always counted; see
    /// [`FlushReason`] for the taxonomy).
    flush_reasons: [u64; FlushReason::COUNT],
    /// Merges that folded a CE-marked packet into a held segment — how
    /// often the hold machinery coalesced congestion signals.
    ce_merges: u64,
    /// Host index stamped into trace events.
    host: u32,
    /// Optional trace sink for `GroHold`/`GroFlush` events.
    sink: Option<SharedSink>,
}

impl PrestoGro {
    /// An engine with the paper's default parameters.
    pub fn new() -> Self {
        Self::with_config(PrestoGroConfig::default())
    }

    /// An engine with explicit tunables (the fixed-timeout ablation uses
    /// this).
    pub fn with_config(cfg: PrestoGroConfig) -> Self {
        PrestoGro {
            cfg,
            flows: BTreeMap::new(),
            segments_pushed: 0,
            timeout_fires: 0,
            reorders_masked: 0,
            flush_reasons: [0; FlushReason::COUNT],
            ce_merges: 0,
            host: 0,
            sink: None,
        }
    }

    /// Current EWMA of boundary-reordering delay for a flow (test and
    /// instrumentation hook).
    pub fn reorder_ewma_ns(&self, flow: &FlowKey) -> Option<f64> {
        self.flows.get(flow).map(|f| f.reorder_ewma.get())
    }

    fn flow_state(&mut self, flow: FlowKey) -> &mut FlowState {
        let cfg = &self.cfg;
        self.flows.entry(flow).or_insert_with(|| FlowState {
            exp_seq: None,
            last_flowcell: 0,
            segs: Vec::new(),
            reorder_ewma: Ewma::new(cfg.ewma_weight, cfg.ewma_init.as_nanos() as f64),
        })
    }

    /// The flush function of Algorithm 2, applied to one flow.
    /// Appends pushed segments to `out`; `masked`/`fired` count boundary
    /// holds resolved by gap fill vs by timeout; every push is attributed
    /// to a [`FlushReason`] row of `reasons` (and traced when a sink is
    /// installed).
    #[allow(clippy::too_many_arguments)]
    fn flush_flow(
        cfg: &PrestoGroConfig,
        f: &mut FlowState,
        now: SimTime,
        out: &mut Vec<Segment>,
        masked: &mut u64,
        fired: &mut u64,
        reasons: &mut [u64; FlushReason::COUNT],
        sink: &Option<SharedSink>,
        host: u32,
    ) {
        if f.segs.is_empty() {
            return;
        }
        // "at the beginning of flush an insertion sort is run" — segments
        // are mostly ordered already, so this is cheap in practice.
        insertion_sort(&mut f.segs);

        let mut kept: Vec<Held> = Vec::new();
        let ewma = SimDuration::from_nanos(f.reorder_ewma.get().max(0.0) as u64);
        let timeout = cfg.hold_timeout(ewma);
        let merge_grace = cfg.merge_grace(ewma);

        let mut push = |s: Segment, reason: FlushReason| {
            reasons[reason.index()] += 1;
            trace_event!(
                sink,
                now.as_nanos(),
                TraceEvent::GroFlush {
                    host,
                    seq: s.seq,
                    len: s.len,
                    packets: s.packets,
                    reason,
                }
            );
            out.push(s);
        };

        for mut h in f.segs.drain(..) {
            let s = h.seg;
            // Initialize expSeq from the very first segment of the flow.
            let exp = *f.exp_seq.get_or_insert(s.seq);

            if s.retx {
                // Retransmissions are pushed up immediately (§3.2).
                if s.flowcell >= f.last_flowcell {
                    f.last_flowcell = s.flowcell;
                    if s.end_seq() > exp {
                        f.exp_seq = Some(exp.max(s.end_seq()));
                    }
                }
                push(s, FlushReason::Retransmit);
                continue;
            }

            if f.last_flowcell == s.flowcell {
                // Lines 3-5: same flowcell — any gap is loss on one path,
                // push immediately.
                let reason = if h.held_at.is_some() {
                    FlushReason::BoundaryGapFilled
                } else if s.seq > exp {
                    FlushReason::InFlowcellGap
                } else {
                    FlushReason::InOrder
                };
                if let Some(held_at) = h.held_at {
                    // A previously held boundary segment whose cell became
                    // current: the gap filled — a pure reordering event.
                    if cfg.adaptive {
                        let waited = now.saturating_since(held_at);
                        f.reorder_ewma.update(cfg.clamp_sample(waited));
                    }
                    *masked += 1;
                }
                f.exp_seq = Some(exp.max(s.end_seq()));
                push(s, reason);
            } else if s.flowcell > f.last_flowcell {
                if exp == s.seq {
                    // Lines 7-10: boundary reached exactly in order.
                    let reason = if h.held_at.is_some() {
                        FlushReason::BoundaryGapFilled
                    } else {
                        FlushReason::InOrder
                    };
                    if let Some(held_at) = h.held_at {
                        // The gap filled while we held: a pure reordering
                        // event — feed the EWMA.
                        if cfg.adaptive {
                            let waited = now.saturating_since(held_at);
                            f.reorder_ewma.update(cfg.clamp_sample(waited));
                        }
                        *masked += 1;
                    }
                    f.last_flowcell = s.flowcell;
                    f.exp_seq = Some(s.end_seq());
                    push(s, reason);
                } else if exp > s.seq {
                    // Lines 11-13: first packet of a newer flowcell starts
                    // below expSeq — a retransmission crossing cells.
                    f.last_flowcell = s.flowcell;
                    push(s, FlushReason::CrossCellRetx);
                } else {
                    // Gap at a flowcell boundary: loss or reordering?
                    let first_hold = h.held_at.is_none();
                    let held_at = *h.held_at.get_or_insert(now);
                    if first_hold {
                        trace_event!(
                            sink,
                            now.as_nanos(),
                            TraceEvent::GroHold {
                                host,
                                seq: s.seq,
                                flowcell: s.flowcell,
                            }
                        );
                    }
                    let mut deadline = held_at + timeout;
                    if h.last_merge > held_at {
                        // β optimization: recent merge extends the hold.
                        deadline = deadline.max(h.last_merge + merge_grace);
                    }
                    if now >= deadline {
                        // Lines 14-17: timed out — assume loss, release.
                        *fired += 1;
                        if cfg.adaptive {
                            // A fire is evidence the timeout underestimates
                            // the reordering window: fold the waited time
                            // in so α lets the timeout grow, as §3.2 asks
                            // (clamped — persistent loss must not inflate
                            // the estimator).
                            let waited = now.saturating_since(held_at);
                            f.reorder_ewma.update(cfg.clamp_sample(waited));
                        }
                        f.last_flowcell = s.flowcell;
                        f.exp_seq = Some(s.end_seq());
                        push(s, FlushReason::BoundaryTimeout);
                    } else {
                        kept.push(h);
                    }
                }
            } else {
                // Lines 19-20: stale flowcell (below lastFlowcell) — a
                // late retransmission or straggler; push immediately.
                push(s, FlushReason::StaleFlowcell);
            }
        }
        f.segs = kept;
    }

    fn flush_impl_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        let before = out.len();
        let cfg = self.cfg.clone();
        let sink = self.sink.clone();
        let host = self.host;
        let mut masked = 0u64;
        let mut fired = 0u64;
        let mut reasons = [0u64; FlushReason::COUNT];
        for f in self.flows.values_mut() {
            Self::flush_flow(
                &cfg,
                f,
                now,
                out,
                &mut masked,
                &mut fired,
                &mut reasons,
                &sink,
                host,
            );
        }
        self.reorders_masked += masked;
        self.timeout_fires += fired;
        for (total, new) in self.flush_reasons.iter_mut().zip(reasons) {
            *total += new;
        }
        self.segments_pushed += (out.len() - before) as u64;
    }

    fn flush_impl(&mut self, now: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        self.flush_impl_into(now, &mut out);
        out
    }
}

impl Default for PrestoGro {
    fn default() -> Self {
        Self::new()
    }
}

/// Insertion sort by start sequence — cheap because the list is mostly in
/// (reverse) order already, as the paper notes.
fn insertion_sort(segs: &mut [Held]) {
    for i in 1..segs.len() {
        let mut j = i;
        while j > 0 && segs[j - 1].seg.seq > segs[j].seg.seq {
            segs.swap(j - 1, j);
            j -= 1;
        }
    }
}

impl ReceiveOffload for PrestoGro {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        // Stray non-data packets (an ACK racing a closed flow, a probe)
        // carry no stream bytes: skip them rather than abort the host.
        let Ok(seg) = Segment::try_from_packet(pkt) else {
            return;
        };
        let f = self.flow_state(pkt.flow);
        // Try to merge into an existing segment; new segments go to the
        // head so recent (likely-mergeable) segments are found first.
        for h in f.segs.iter_mut().rev() {
            if h.seg.try_merge_tail(pkt) {
                h.last_merge = now;
                if pkt.ce {
                    self.ce_merges += 1;
                }
                return;
            }
        }
        f.segs.push(Held {
            seg,
            held_at: None,
            last_merge: now,
        });
    }

    fn flush(&mut self, now: SimTime) -> Vec<Segment> {
        self.flush_impl(now)
    }

    fn flush_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        self.flush_impl_into(now, out);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        for f in self.flows.values() {
            let ewma = SimDuration::from_nanos(f.reorder_ewma.get().max(0.0) as u64);
            let timeout = self.cfg.hold_timeout(ewma);
            let grace = self.cfg.merge_grace(ewma);
            for h in &f.segs {
                if let Some(held_at) = h.held_at {
                    let mut d = held_at + timeout;
                    if h.last_merge > held_at {
                        d = d.max(h.last_merge + grace);
                    }
                    min = Some(match min {
                        Some(m) if m <= d => m,
                        _ => d,
                    });
                }
            }
        }
        min
    }

    fn flush_expired(&mut self, now: SimTime) -> Vec<Segment> {
        self.flush_impl(now)
    }

    fn flush_expired_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        self.flush_impl_into(now, out);
    }

    fn reorder_stats(&self) -> (u64, u64) {
        (self.reorders_masked, self.timeout_fires)
    }

    fn flush_reason_counts(&self) -> [u64; FlushReason::COUNT] {
        self.flush_reasons
    }

    fn set_telemetry(&mut self, host: u32, sink: SharedSink) {
        self.host = host;
        self.sink = Some(sink);
    }

    fn ce_merge_count(&self) -> u64 {
        self.ce_merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_netsim::{HostId, Mac, PacketKind, MSS};

    const CELL: u64 = 4; // packets per flowcell in these tests

    fn flow() -> FlowKey {
        FlowKey::new(HostId(0), HostId(1), 1, 2)
    }

    /// Packet `i` (global index); flowcell derived as i / CELL.
    fn pkt(i: u64) -> Packet {
        pkt_retx(i, false)
    }

    fn pkt_retx(i: u64, retx: bool) -> Packet {
        Packet {
            flow: flow(),
            src_host: HostId(0),
            dst_host: HostId(1),
            dst_mac: Mac::host(HostId(1)),
            flowcell: i / CELL,
            ce: false,
            kind: PacketKind::Data {
                seq: i * MSS as u64,
                len: MSS,
                retx,
            },
        }
    }

    fn push_all(g: &mut PrestoGro, t: SimTime, idxs: &[u64]) -> Vec<Segment> {
        for &i in idxs {
            g.on_packet(t, &pkt(i));
        }
        g.flush(t)
    }

    fn seqs(segs: &[Segment]) -> Vec<u64> {
        segs.iter().map(|s| s.seq / MSS as u64).collect()
    }

    #[test]
    fn stray_ack_is_skipped_not_fatal() {
        // An ACK arriving on the receive path must neither abort nor
        // break the in-flowcell merge around it.
        let mut g = PrestoGro::new();
        g.on_packet(SimTime::ZERO, &pkt(0));
        let mut ack = pkt(1);
        ack.kind = PacketKind::Ack { ack: 0, sack_hi: 0 };
        g.on_packet(SimTime::ZERO, &ack);
        g.on_packet(SimTime::ZERO, &pkt(1));
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 1, "ACK must not split the flowcell");
        assert_eq!(segs[0].packets, 2);
    }

    #[test]
    fn ce_survives_merge_and_hold() {
        // A CE mark in the middle of a flowcell must survive both the
        // merge and the boundary hold, and be counted once.
        let mut g = PrestoGro::new();
        let t = SimTime::from_micros(5);
        g.on_packet(t, &pkt(0));
        let mut marked = pkt(1);
        marked.ce = true;
        g.on_packet(t, &marked);
        g.on_packet(t, &pkt(2));
        g.on_packet(t, &pkt(3));
        let segs = g.flush(t);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].ce, "CE must survive Presto GRO's merge");
        assert_eq!(g.ce_merge_count(), 1);

        // Held-across-polls case: cell 2 arrives early with a mark while
        // cell 1's tail is missing; the mark must still be on the segment
        // when the hold resolves.
        let mut held = pkt(8); // cell 2 head
        held.ce = true;
        g.on_packet(t, &pkt(4));
        g.on_packet(t, &pkt(5));
        g.on_packet(t, &pkt(6));
        g.on_packet(t, &held);
        let first = g.flush(t);
        assert!(first.iter().all(|s| !s.ce), "cell-1 prefix is unmarked");
        g.on_packet(t, &pkt(7)); // fill the gap
        let rest = g.flush(t);
        assert!(
            rest.iter().any(|s| s.ce),
            "mark must survive the boundary hold: {rest:?}"
        );
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut g = PrestoGro::new();
        let segs = push_all(&mut g, SimTime::ZERO, &[0, 1, 2, 3, 4, 5, 6, 7]);
        // Two flowcells -> two segments, in order.
        assert_eq!(segs.len(), 2);
        assert_eq!(seqs(&segs), vec![0, 4]);
        assert_eq!(segs[0].packets, 4);
        assert_eq!(segs[1].packets, 4);
    }

    #[test]
    fn fig2_scenario_is_fully_masked() {
        // Packets of two interleaved paths: cell 0 = P0..P3, cell 1 =
        // P4..P7; arrival P0 P1 P4 P2 P5 P3 P6 P7 (boundary reordering).
        let mut g = PrestoGro::new();
        let segs = push_all(&mut g, SimTime::ZERO, &[0, 1, 4, 2, 5, 3, 6, 7]);
        // Everything arrives within one poll: cell 0 completes, so cell 1
        // can be pushed after it; TCP sees perfectly ordered segments.
        assert_eq!(seqs(&segs), vec![0, 4]);
        assert_eq!(segs[0].packets + segs[1].packets, 8);
    }

    #[test]
    fn boundary_gap_is_held_not_pushed() {
        let mut g = PrestoGro::new();
        // Cell 0 fully received, then cell 2 starts (cell 1 in flight).
        let segs = push_all(&mut g, SimTime::ZERO, &[0, 1, 2, 3, 8, 9]);
        assert_eq!(seqs(&segs), vec![0], "only cell 0 may pass");
        // The held segment has a deadline.
        assert!(g.next_deadline().is_some());
    }

    #[test]
    fn held_segment_released_when_gap_fills() {
        let mut g = PrestoGro::new();
        let t0 = SimTime::ZERO;
        let segs = push_all(&mut g, t0, &[0, 1, 2, 3, 8, 9]);
        assert_eq!(seqs(&segs), vec![0]);
        // The missing cell 1 arrives next poll.
        let t1 = SimTime::from_micros(30);
        let segs = push_all(&mut g, t1, &[4, 5, 6, 7]);
        // Cell 1 pushes, then the held cell 2 cascades in order.
        assert_eq!(seqs(&segs), vec![4, 8]);
        assert_eq!(g.reorders_masked, 1, "one reordering event sampled");
        assert_eq!(g.next_deadline(), None, "nothing held anymore");
    }

    #[test]
    fn in_flowcell_gap_means_loss_and_pushes_immediately() {
        let mut g = PrestoGro::new();
        // Cell 0: P0 P1 arrive, P2 lost, P3 arrives — same flowcell.
        let segs = push_all(&mut g, SimTime::ZERO, &[0, 1, 3]);
        // Both fragments pushed immediately so TCP can dup-ACK.
        assert_eq!(seqs(&segs), vec![0, 3]);
    }

    #[test]
    fn boundary_timeout_releases_after_alpha_ewma() {
        let cfg = PrestoGroConfig::default();
        let ewma0 = cfg.ewma_init;
        let mut g = PrestoGro::with_config(cfg.clone());
        let t0 = SimTime::from_micros(10);
        for i in [0u64, 1, 2, 3, 8, 9] {
            g.on_packet(t0, &pkt(i));
        }
        let segs = g.flush(t0);
        assert_eq!(seqs(&segs), vec![0]);
        let deadline = g.next_deadline().expect("held");
        assert_eq!(deadline, t0 + ewma0.mul_f64(cfg.alpha));
        // Before the deadline: still held.
        let early = g.flush(t0 + SimDuration::from_micros(100));
        assert!(early.is_empty(), "released early: {early:?}");
        // At the deadline: released, state advances past the gap.
        let late = g.flush_expired(deadline);
        assert_eq!(seqs(&late), vec![8]);
        assert_eq!(g.next_deadline(), None);
        // A straggler from the skipped cell is stale: pushed immediately.
        let stale = push_all(&mut g, deadline + SimDuration::from_micros(1), &[4]);
        assert_eq!(seqs(&stale), vec![4]);
    }

    #[test]
    fn recent_merge_extends_hold_beta_rule() {
        let cfg = PrestoGroConfig::default();
        let mut g = PrestoGro::with_config(cfg.clone());
        let t0 = SimTime::ZERO;
        for i in [0u64, 1, 2, 3, 8] {
            g.on_packet(t0, &pkt(i));
        }
        assert_eq!(seqs(&g.flush(t0)), vec![0]);
        let d0 = g.next_deadline().unwrap();
        // Just before the deadline, another packet merges into the held
        // segment: the deadline must extend by EWMA/beta.
        let near = d0 - SimDuration::from_nanos(1);
        g.on_packet(near, &pkt(9));
        assert!(g.flush(near).is_empty());
        let d1 = g.next_deadline().unwrap();
        assert_eq!(d1, near + cfg.ewma_init.mul_f64(1.0 / cfg.beta));
        assert!(d1 > d0);
    }

    #[test]
    fn ewma_adapts_to_observed_reordering() {
        let mut g = PrestoGro::new();
        let init = g.reorder_ewma_ns(&flow());
        assert_eq!(init, None, "no state before packets");
        // Create a boundary gap, fill it 50 us later, repeatedly.
        let mut t = SimTime::ZERO;
        for round in 0..20u64 {
            let base = round * 2 * CELL;
            for i in [base, base + 1, base + 2, base + 3] {
                g.on_packet(t, &pkt(i));
            }
            // next cell's tail arrives first (gap at boundary)
            g.on_packet(t, &pkt(base + CELL + 1));
            g.flush(t);
            t += SimDuration::from_micros(50);
            // fill the gap: push remaining packets of the next cell
            for i in [base + CELL, base + CELL + 2, base + CELL + 3] {
                g.on_packet(t, &pkt(i));
            }
            g.flush(t);
            t += SimDuration::from_micros(5);
        }
        let ewma = g.reorder_ewma_ns(&flow()).unwrap();
        assert!(
            (20_000.0..80_000.0).contains(&ewma),
            "EWMA should move toward the observed ~50us gaps: {ewma}"
        );
    }

    #[test]
    fn retransmission_pushes_immediately_even_with_gap() {
        let mut g = PrestoGro::new();
        let t0 = SimTime::ZERO;
        // Cell 0 received; then a *retransmitted* packet of cell 2 with a
        // boundary gap — must not be held.
        for i in [0u64, 1, 2, 3] {
            g.on_packet(t0, &pkt(i));
        }
        g.on_packet(t0, &pkt_retx(8, true));
        let segs = g.flush(t0);
        assert_eq!(seqs(&segs), vec![0, 8], "retx released instantly");
    }

    #[test]
    fn stale_flowcell_pushes_immediately() {
        let mut g = PrestoGro::new();
        let t = SimTime::ZERO;
        // Cells 0 and 1 complete in order.
        let segs = push_all(&mut g, t, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(segs.len(), 2);
        // A duplicate/straggler from cell 0 arrives now (stale).
        let segs = push_all(&mut g, t, &[2]);
        assert_eq!(seqs(&segs), vec![2]);
    }

    #[test]
    fn multiple_flows_are_independent() {
        let mut g = PrestoGro::new();
        let mut other = pkt(0);
        other.flow = FlowKey::new(HostId(3), HostId(1), 7, 7);
        g.on_packet(SimTime::ZERO, &pkt(0));
        g.on_packet(SimTime::ZERO, &other);
        g.on_packet(SimTime::ZERO, &pkt(1));
        let segs = g.flush(SimTime::ZERO);
        assert_eq!(segs.len(), 2);
        let ours: Vec<_> = segs.iter().filter(|s| s.flow == flow()).collect();
        assert_eq!(ours[0].packets, 2);
    }

    #[test]
    fn delivery_is_in_order_without_loss() {
        // Adversarial interleaving of three cells arriving within the hold
        // window must still deliver in order.
        let mut g = PrestoGro::new();
        let order = [0u64, 4, 1, 8, 5, 2, 9, 6, 3, 10, 7, 11];
        let mut delivered: Vec<u64> = Vec::new();
        let mut t = SimTime::ZERO;
        for &i in &order {
            g.on_packet(t, &pkt(i));
            for s in g.flush(t) {
                delivered.push(s.seq);
            }
            t += SimDuration::from_micros(5);
        }
        // drain any holds by timeout
        while let Some(d) = g.next_deadline() {
            for s in g.flush_expired(d) {
                delivered.push(s.seq);
            }
        }
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        assert_eq!(delivered, sorted, "TCP saw reordering: {delivered:?}");
        // All 12 packets' bytes delivered.
        assert_eq!(
            delivered.len(),
            delivered
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }

    #[test]
    fn segment_counter_tracks_pushes() {
        let mut g = PrestoGro::new();
        push_all(&mut g, SimTime::ZERO, &[0, 1, 2, 3]);
        assert_eq!(g.segments_pushed, 1);
    }

    #[test]
    fn max_hold_clamps_the_timeout() {
        let cfg = PrestoGroConfig {
            ewma_init: SimDuration::from_millis(100), // huge estimator
            max_hold: SimDuration::from_micros(50),
            ..PrestoGroConfig::default()
        };
        let mut g = PrestoGro::with_config(cfg);
        let t0 = SimTime::from_micros(10);
        for i in [0u64, 1, 2, 3, 8] {
            g.on_packet(t0, &pkt(i));
        }
        g.flush(t0);
        let d = g.next_deadline().expect("held");
        // Deadline is t0 + max_hold, not t0 + alpha * 100ms.
        assert_eq!(d, t0 + SimDuration::from_micros(50));
    }

    #[test]
    fn fixed_config_never_adapts() {
        let fixed = PrestoGroConfig::fixed(SimDuration::from_millis(10));
        assert!(!fixed.adaptive);
        let mut g = PrestoGro::with_config(fixed);
        // Create and resolve several boundary reorderings; EWMA must stay
        // pinned at the configured value.
        let mut t = SimTime::ZERO;
        for round in 0..5u64 {
            let base = round * 2 * CELL;
            for i in base..base + CELL {
                g.on_packet(t, &pkt(i));
            }
            g.on_packet(t, &pkt(base + CELL + 1));
            g.flush(t);
            t += SimDuration::from_micros(40);
            for i in [base + CELL, base + CELL + 2, base + CELL + 3] {
                g.on_packet(t, &pkt(i));
            }
            g.flush(t);
            t += SimDuration::from_micros(5);
        }
        let ewma = g.reorder_ewma_ns(&flow()).unwrap();
        assert_eq!(ewma, 10_000_000.0, "fixed timeout drifted: {ewma}");
    }

    #[test]
    fn flush_orders_across_multiple_flows_deterministically() {
        let mut g = PrestoGro::new();
        let mut f2 = pkt(0);
        f2.flow = FlowKey::new(HostId(2), HostId(1), 9, 9);
        let mut f3 = pkt(0);
        f3.flow = FlowKey::new(HostId(3), HostId(1), 9, 9);
        // Arrival order f3, f2, f1 — flush iterates the flow map in key
        // order, so output order is stable regardless.
        g.on_packet(SimTime::ZERO, &f3);
        g.on_packet(SimTime::ZERO, &f2);
        g.on_packet(SimTime::ZERO, &pkt(0));
        let a: Vec<_> = g.flush(SimTime::ZERO).iter().map(|s| s.flow.src).collect();
        let mut g2 = PrestoGro::new();
        g2.on_packet(SimTime::ZERO, &pkt(0));
        g2.on_packet(SimTime::ZERO, &f2);
        g2.on_packet(SimTime::ZERO, &f3);
        let b: Vec<_> = g2.flush(SimTime::ZERO).iter().map(|s| s.flow.src).collect();
        assert_eq!(a, b, "flush order must not depend on arrival order");
    }

    #[test]
    fn flush_reasons_attribute_every_push() {
        let mut g = PrestoGro::new();
        let t0 = SimTime::ZERO;
        let reason = |g: &PrestoGro, r: FlushReason| g.flush_reason_counts()[r.index()];

        // In-order cell 0 → InOrder.
        push_all(&mut g, t0, &[0, 1, 2, 3]);
        assert_eq!(reason(&g, FlushReason::InOrder), 1);

        // In-flowcell gap (packet 6 lost) → two pushes, one a loss signal.
        push_all(&mut g, t0, &[4, 5, 7]);
        assert_eq!(reason(&g, FlushReason::InFlowcellGap), 1);

        // Boundary gap held, then filled → BoundaryGapFilled.
        push_all(&mut g, t0, &[8, 9, 10, 11, 13]);
        let t1 = t0 + SimDuration::from_micros(20);
        push_all(&mut g, t1, &[12, 14, 15]);
        assert_eq!(reason(&g, FlushReason::BoundaryGapFilled), 1);

        // Boundary gap that times out → BoundaryTimeout.
        for i in [20u64, 21] {
            g.on_packet(t1, &pkt(i));
        }
        g.flush(t1);
        let deadline = g.next_deadline().expect("held");
        g.flush_expired(deadline);
        assert_eq!(reason(&g, FlushReason::BoundaryTimeout), 1);

        // Retransmission → Retransmit; stale flowcell → StaleFlowcell.
        let t2 = deadline + SimDuration::from_micros(1);
        g.on_packet(t2, &pkt_retx(22, true));
        g.flush(t2);
        assert_eq!(reason(&g, FlushReason::Retransmit), 1);
        g.on_packet(t2, &pkt(2));
        g.flush(t2);
        assert_eq!(reason(&g, FlushReason::StaleFlowcell), 1);

        // Every push is attributed: the reason table sums to the total.
        let total: u64 = g.flush_reason_counts().iter().sum();
        assert_eq!(total, g.segments_pushed);
        // Loss vs reordering lands on the right side of the Fig 5 split.
        assert!(FlushReason::InFlowcellGap.indicates_loss());
        assert!(FlushReason::BoundaryTimeout.indicates_reordering());
    }

    #[test]
    fn reorder_stats_expose_masked_and_fired() {
        let mut g = PrestoGro::new();
        let t0 = SimTime::ZERO;
        // One masked event.
        push_all(&mut g, t0, &[0, 1, 2, 3, 8, 9]);
        let t1 = t0 + SimDuration::from_micros(20);
        for i in [4u64, 5, 6, 7] {
            g.on_packet(t1, &pkt(i));
        }
        g.flush(t1);
        // One fired event.
        for i in [16u64, 17] {
            g.on_packet(t1, &pkt(i));
        }
        g.flush(t1);
        let deadline = g.next_deadline().unwrap();
        g.flush_expired(deadline);
        assert_eq!(g.reorder_stats(), (1, 1));
    }
}
