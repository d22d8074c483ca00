//! TCP send-side state machine.
//!
//! Window-driven, byte-stream, handshake-less (connections in the paper's
//! experiments are long-lived and pre-established). Implements:
//!
//! * slow start / congestion avoidance via a pluggable
//!   [`CongestionControl`] algorithm,
//! * dup-ACK fast retransmit with NewReno partial-ACK recovery — the
//!   machinery through which packet reordering damages throughput when the
//!   receiver's offload layer fails to mask it (§2.2),
//! * an RFC 6298 retransmission timer with exponential backoff and Karn's
//!   rule for RTT samples,
//! * TSO-sized output: the sender emits segments of up to 64 KB, which the
//!   vSwitch (Algorithm 1) then maps onto flowcells.
//!
//! The machine is pure: inputs are ACKs, timer firings and application
//! writes; outputs are [`SenderOutput`] — segments to transmit and a timer
//! to (re)arm. The composed host in `presto-testbed` owns the event queue
//! and one output it fills through the `_into` methods and clears after
//! each interaction, so an ACK allocates nothing; the by-value methods
//! return a fresh output instead.

use presto_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

use crate::cc::CongestionControl;
use crate::rtt::RttEstimator;

/// Sender tunables.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (bytes of payload per packet).
    pub mss: u32,
    /// Largest TSO segment handed down the stack.
    pub max_tso: u32,
    /// Receive-window clamp on flight size (the paper tunes buffer sizes;
    /// 768 KB comfortably covers the 10 Gbps × ~60 µs idle paths here
    /// without letting every flow park megabytes in switch buffers).
    pub rwnd: u64,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_threshold: u32,
    /// RTO floor. Linux defaults to 200 ms (§6 notes this is what turns
    /// MPTCP mice losses into visible timeouts); the simulator defaults to
    /// 10 ms so that sub-second runs can recover from timeout episodes the
    /// way the paper's 10-second runs do. An RTO-dominated FCT is still
    /// one to two orders of magnitude above normal completion times, so
    /// the "TIMEOUT" signature survives the rescaling.
    pub min_rto: SimDuration,
    /// RTO ceiling.
    pub max_rto: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            max_tso: 64 * 1024,
            rwnd: 768 * 1024,
            dupack_threshold: 3,
            min_rto: SimDuration::from_millis(10),
            max_rto: SimDuration::from_secs(60),
        }
    }
}

/// One segment the sender wants transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendAction {
    /// First byte offset.
    pub seq: u64,
    /// Payload length (≤ `max_tso`).
    pub len: u32,
    /// True for retransmissions.
    pub retx: bool,
}

/// Everything a sender interaction produced.
///
/// The `_into` methods add to a caller-owned output: they append segments
/// to `to_send`, set `arm_rto` when they arm the timer and `completed`
/// when the stream completes, and leave the rest as it was. One output
/// can therefore serve every interaction, [`SenderOutput::clear`]ed
/// between them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SenderOutput {
    /// Segments to hand to the vSwitch/NIC, in order.
    pub to_send: Vec<SendAction>,
    /// Re-arm the retransmission timer: `(deadline, generation)`. The
    /// previous timer is implicitly cancelled (stale generations are
    /// ignored on firing). `None` leaves any armed timer alone.
    pub arm_rto: Option<(SimTime, u64)>,
    /// The stream just became fully acknowledged.
    pub completed: bool,
}

impl SenderOutput {
    /// Empty the output for the next interaction, keeping the capacity of
    /// `to_send`.
    pub fn clear(&mut self) {
        self.to_send.clear();
        self.arm_rto = None;
        self.completed = false;
    }

    /// The output of one `_into` interaction run on a fresh output.
    pub(crate) fn collect(interact: impl FnOnce(&mut SenderOutput)) -> SenderOutput {
        let mut out = SenderOutput::default();
        interact(&mut out);
        out
    }
}

/// # Example
///
/// ```
/// use presto_transport::{Reno, SendAction, TcpConfig, TcpSender};
/// use presto_simcore::SimTime;
///
/// let mut tx = TcpSender::new(TcpConfig::default(), Reno::new(10));
/// let out = tx.app_write(SimTime::ZERO, 1_000_000);
/// // IW10: one 14.6 KB TSO segment goes out immediately.
/// assert_eq!(out.to_send, vec![SendAction { seq: 0, len: 14_600, retx: false }]);
/// // Acking it doubles the window (slow start) and releases more data.
/// let out = tx.on_ack(SimTime::from_micros(200), 14_600, 14_600);
/// assert_eq!(out.to_send.iter().map(|a| a.len as u64).sum::<u64>(), 29_200);
/// ```
/// Send-side connection state.
#[derive(Debug)]
pub struct TcpSender<C: CongestionControl> {
    /// Configuration in force.
    pub cfg: TcpConfig,
    /// Congestion control state (public so MPTCP can couple subflows).
    pub cc: C,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to send.
    snd_nxt: u64,
    /// Total bytes the application has committed (u64::MAX = unbounded).
    write_limit: u64,
    dup_acks: u32,
    in_recovery: bool,
    /// NewReno: recovery ends when this sequence is cumulatively acked.
    recover: u64,
    rtt: RttEstimator,
    /// Outstanding (end_seq, sent_at) pairs for RTT sampling; cleared on
    /// any retransmission (Karn).
    send_times: VecDeque<(u64, SimTime)>,
    rto_gen: u64,
    rto_backoff: u32,
    /// Highest sequence retransmitted in the current recovery episode —
    /// the effect of SACK (`tcp_sack = 1` on the paper's testbed): a hole
    /// is retransmitted once, never re-walked when later partial ACKs
    /// arrive for data the receiver already buffered.
    recovery_retx_next: u64,
    /// Duplicate ACKs observed against the current left-edge hole while in
    /// recovery (loss-vs-reordering discrimination).
    hole_dups: u32,
    /// Highest sequence ever transmitted; bytes below it re-sent after an
    /// RTO rewind are retransmissions.
    max_sent: u64,
    /// True once all finite data is acked.
    pub completed: bool,
    /// Statistics: retransmitted segments.
    pub retransmissions: u64,
    /// Statistics: RTO fires.
    pub timeouts: u64,
    /// Statistics: dup-ACK fast retransmits entered.
    pub fast_retransmits: u64,
}

impl<C: CongestionControl> TcpSender<C> {
    /// A sender with `cc` and an empty stream.
    pub fn new(cfg: TcpConfig, cc: C) -> Self {
        let min_rto = cfg.min_rto;
        let max_rto = cfg.max_rto;
        TcpSender {
            cfg,
            cc,
            snd_una: 0,
            snd_nxt: 0,
            write_limit: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            rtt: RttEstimator::new(min_rto, max_rto),
            send_times: VecDeque::new(),
            rto_gen: 0,
            rto_backoff: 0,
            recovery_retx_next: 0,
            hole_dups: 0,
            max_sent: 0,
            completed: false,
            retransmissions: 0,
            timeouts: 0,
            fast_retransmits: 0,
        }
    }

    /// Commit `bytes` more application data and emit whatever the window
    /// allows.
    pub fn app_write(&mut self, now: SimTime, bytes: u64) -> SenderOutput {
        SenderOutput::collect(|out| self.app_write_into(now, bytes, out))
    }

    /// [`Self::app_write`], adding to `out`.
    pub fn app_write_into(&mut self, now: SimTime, bytes: u64, out: &mut SenderOutput) {
        debug_assert!(self.write_limit != u64::MAX);
        self.write_limit = self.write_limit.saturating_add(bytes);
        self.completed = false;
        self.pump(now, out);
    }

    /// Mark the stream unbounded (an elephant that always has data).
    pub fn set_unlimited(&mut self, now: SimTime) -> SenderOutput {
        SenderOutput::collect(|out| self.set_unlimited_into(now, out))
    }

    /// [`Self::set_unlimited`], adding to `out`.
    pub fn set_unlimited_into(&mut self, now: SimTime, out: &mut SenderOutput) {
        self.write_limit = u64::MAX;
        self.pump(now, out);
    }

    /// Oldest unacked byte (== application bytes reliably delivered).
    pub fn acked_bytes(&self) -> u64 {
        self.snd_una
    }

    /// Named counter snapshot for the telemetry registry.
    pub fn telemetry_counters(&self) -> [(&'static str, u64); 4] {
        [
            ("acked_bytes", self.snd_una),
            ("retransmissions", self.retransmissions),
            ("timeouts", self.timeouts),
            ("fast_retransmits", self.fast_retransmits),
        ]
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> SimDuration {
        self.rtt.srtt()
    }

    /// Whether all committed data has been acknowledged.
    pub fn is_idle(&self) -> bool {
        self.snd_una == self.snd_nxt
    }

    /// Process a cumulative acknowledgement without ECN-Echo.
    pub fn on_ack(&mut self, now: SimTime, ack: u64, sack_hi: u64) -> SenderOutput {
        SenderOutput::collect(|out| self.on_ack_into(now, ack, sack_hi, false, out))
    }

    /// Process a cumulative acknowledgement that may carry ECN-Echo,
    /// adding to `out`. `ece = true` means the receiver saw CE marks on
    /// the acknowledged segment: the newly-acked bytes are reported to the
    /// congestion control via [`CongestionControl::on_ce_echo`] before its
    /// normal `on_ack` growth step. ECN-oblivious algorithms ignore the
    /// echo, so with unmarked traffic `ece` changes nothing.
    pub fn on_ack_into(
        &mut self,
        now: SimTime,
        ack: u64,
        sack_hi: u64,
        ece: bool,
        out: &mut SenderOutput,
    ) {
        if ack > self.max_sent {
            // Beyond anything ever transmitted: corrupt; ignore.
            return;
        }
        if ack > self.snd_nxt {
            // Legitimate after a timeout rewound snd_nxt: an original
            // transmission (still in flight when the RTO fired) was
            // delivered. Jump forward instead of resending it.
            self.snd_nxt = ack;
        }
        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            self.rto_backoff = 0;
            // RTT sample from the newest fully-acked transmission (Karn:
            // send_times was cleared on any retransmission).
            let mut sample: Option<SimTime> = None;
            while let Some(&(end, at)) = self.send_times.front() {
                if end <= ack {
                    sample = Some(at);
                    self.send_times.pop_front();
                } else {
                    break;
                }
            }
            if let Some(at) = sample {
                self.rtt.sample(now.saturating_since(at));
            }
            if self.in_recovery {
                if ack >= self.recover {
                    // Full recovery.
                    self.in_recovery = false;
                    self.dup_acks = 0;
                } else {
                    // Partial ACK: a new hole at the left edge. With SACK
                    // (tcp_sack = 1 on the paper's testbed) the hole is NOT
                    // retransmitted immediately — reordered originals are
                    // usually still in flight and fill it. Only if the hole
                    // survives further duplicate ACKs (data keeps landing
                    // above it) is it declared lost below.
                    self.hole_dups = 0;
                }
            } else {
                self.dup_acks = 0;
            }
            if ece {
                self.cc.on_ce_echo(now, acked);
            }
            self.cc.on_ack(now, acked, self.rtt.srtt());
            if self.write_limit != u64::MAX && self.snd_una >= self.write_limit && !self.completed {
                self.completed = true;
                out.completed = true;
            }
        } else if ack == self.snd_una && self.flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.in_recovery {
                // SACK-style loss detection inside recovery: the left-edge
                // hole persisted while more data was delivered above it.
                self.hole_dups += 1;
                if self.hole_dups >= 2 && self.snd_una >= self.recovery_retx_next {
                    self.retransmit_one(now, out);
                }
            } else if self.dup_acks == self.cfg.dupack_threshold {
                self.enter_recovery(now, sack_hi, out);
            }
        }
        self.pump(now, out);
    }

    /// The retransmission timer fired. Stale generations are no-ops.
    pub fn on_rto(&mut self, now: SimTime, gen: u64) -> SenderOutput {
        SenderOutput::collect(|out| self.on_rto_into(now, gen, out))
    }

    /// [`Self::on_rto`], adding to `out`.
    pub fn on_rto_into(&mut self, now: SimTime, gen: u64, out: &mut SenderOutput) {
        if gen != self.rto_gen || self.completed || self.flight() == 0 {
            return;
        }
        self.timeouts += 1;
        self.rto_backoff = (self.rto_backoff + 1).min(10);
        self.cc.on_timeout(now);
        self.in_recovery = false;
        self.dup_acks = 0;
        // Everything outstanding is presumed lost: rewind and rebuild the
        // window through slow start (Linux marks the whole retransmit
        // queue lost on RTO). Cumulative ACKs for data the receiver had
        // already buffered fast-forward `snd_nxt`, so only genuine holes
        // are actually resent.
        self.snd_nxt = self.snd_una;
        self.send_times.clear(); // Karn
        self.pump(now, out);
        self.arm_timer(now, out);
    }

    fn enter_recovery(&mut self, now: SimTime, _sack_hi: u64, out: &mut SenderOutput) {
        self.fast_retransmits += 1;
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.recovery_retx_next = 0;
        self.hole_dups = 0;
        self.cc.on_loss(now);
        self.retransmit_one(now, out);
    }

    /// Retransmit one MSS at the left edge.
    fn retransmit_one(&mut self, now: SimTime, out: &mut SenderOutput) {
        let avail = if self.write_limit == u64::MAX {
            u64::MAX
        } else {
            self.write_limit - self.snd_una
        };
        let len = (self.cfg.mss as u64)
            .min(avail)
            .min(self.snd_nxt - self.snd_una);
        if len == 0 {
            return;
        }
        self.retransmissions += 1;
        self.recovery_retx_next = self.snd_una + len;
        // Karn's rule: no RTT samples across a retransmission.
        self.send_times.clear();
        out.to_send.push(SendAction {
            seq: self.snd_una,
            len: len as u32,
            retx: true,
        });
        self.arm_timer(now, out);
    }

    /// Emit as much new data as the window allows, then manage the timer.
    fn pump(&mut self, now: SimTime, out: &mut SenderOutput) {
        let wnd = (self.cc.cwnd() as u64).min(self.cfg.rwnd);
        loop {
            let flight = self.snd_nxt - self.snd_una;
            if flight >= wnd {
                break;
            }
            let data_avail = if self.write_limit == u64::MAX {
                u64::MAX
            } else {
                self.write_limit.saturating_sub(self.snd_nxt)
            };
            if data_avail == 0 {
                break;
            }
            let room = wnd - flight;
            let mut len = room.min(data_avail).min(self.cfg.max_tso as u64);
            if len == 0 {
                break;
            }
            // After an RTO rewind, bytes below `max_sent` are
            // retransmissions: send them one MSS at a time (the receiver's
            // cumulative ACK usually jumps past buffered ranges after each
            // one) and take no RTT samples from them (Karn).
            let retx = self.snd_nxt < self.max_sent;
            if retx {
                len = len
                    .min(self.cfg.mss as u64)
                    .min(self.max_sent - self.snd_nxt);
                self.retransmissions += 1;
            }
            out.to_send.push(SendAction {
                seq: self.snd_nxt,
                len: len as u32,
                retx,
            });
            self.snd_nxt += len;
            if !retx {
                self.send_times.push_back((self.snd_nxt, now));
            }
            self.max_sent = self.max_sent.max(self.snd_nxt);
        }
        if self.flight() > 0 {
            // (Re)arm the timer whenever data is outstanding — Linux
            // restarts the RTO on every ACK that advances the window.
            self.arm_timer(now, out);
        }
    }

    fn arm_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        let rto = self
            .rtt
            .rto()
            .saturating_mul(1u64 << self.rto_backoff.min(6))
            .clamp(self.cfg.min_rto, self.cfg.max_rto);
        self.rto_gen += 1;
        out.arm_rto = Some((now + rto, self.rto_gen));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{Dctcp, Reno, MSS_F};

    fn sender() -> TcpSender<Reno> {
        TcpSender::new(TcpConfig::default(), Reno::new(10))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn initial_write_sends_iw10() {
        let mut s = sender();
        let out = s.app_write(t(0), 1_000_000);
        // IW10 = 14600 bytes in one TSO segment.
        assert_eq!(out.to_send.len(), 1);
        assert_eq!(
            out.to_send[0],
            SendAction {
                seq: 0,
                len: 14600,
                retx: false
            }
        );
        assert!(out.arm_rto.is_some());
        assert_eq!(s.flight(), 14600);
    }

    #[test]
    fn acks_release_more_data_and_grow_window() {
        let mut s = sender();
        s.app_write(t(0), 10_000_000);
        let out = s.on_ack(t(100), 14600, 14600);
        // Slow start: cwnd doubled to ~29200; flight 0 -> send 29200.
        let sent: u64 = out.to_send.iter().map(|a| a.len as u64).sum();
        assert_eq!(sent, 29200);
        assert!(!out.to_send[0].retx);
    }

    #[test]
    fn segments_respect_tso_limit() {
        let mut s = sender();
        s.cc = Reno::new(100); // 146000 byte window
        let out = s.app_write(t(0), 1_000_000);
        assert!(out.to_send.len() >= 2);
        for a in &out.to_send {
            assert!(a.len <= 64 * 1024);
        }
        let total: u64 = out.to_send.iter().map(|a| a.len as u64).sum();
        assert_eq!(total, 146_000);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = sender();
        s.app_write(t(0), 100_000);
        let before = s.cc.cwnd();
        s.on_ack(t(10), 0, 14600); // dup 1 (data in flight, no advance)
        s.on_ack(t(11), 0, 14600); // dup 2
        let out = s.on_ack(t(12), 0, 14600); // dup 3 -> fast retransmit
        assert_eq!(s.fast_retransmits, 1);
        let retx: Vec<_> = out.to_send.iter().filter(|a| a.retx).collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 0);
        assert_eq!(retx[0].len, 1460);
        assert!(s.cc.cwnd() < before);
    }

    #[test]
    fn dupacks_below_threshold_do_nothing() {
        let mut s = sender();
        s.app_write(t(0), 100_000);
        s.on_ack(t(10), 0, 14600);
        let out = s.on_ack(t(11), 0, 14600);
        assert_eq!(s.fast_retransmits, 0);
        assert!(out.to_send.iter().all(|a| !a.retx));
    }

    #[test]
    fn partial_ack_hole_needs_dupacks_before_retransmit() {
        let mut s = sender();
        s.app_write(t(0), 100_000); // 14600 in flight
        for i in 0..3 {
            s.on_ack(t(10 + i), 0, 14600);
        }
        assert!(s.fast_retransmits == 1);
        // Partial ACK: first hole filled, recovery point (14600) not
        // reached. SACK-style recovery does NOT retransmit yet — the
        // missing originals may simply be reordered.
        let out = s.on_ack(t(20), 1460, 14600);
        assert!(out.to_send.iter().all(|a| !a.retx), "no eager retx");
        // The hole survives two more duplicate ACKs: now it's lost.
        let _ = s.on_ack(t(21), 1460, 14600);
        let out = s.on_ack(t(22), 1460, 14600);
        let retx: Vec<_> = out.to_send.iter().filter(|a| a.retx).collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 1460);
        // Full ACK ends recovery.
        let _ = s.on_ack(t(30), 14600, 14600);
        let out = s.on_ack(t(31), 14600 + 1460, 14600 + 1460);
        assert!(out.to_send.iter().all(|a| !a.retx));
    }

    #[test]
    fn reordering_fill_in_recovery_sends_nothing_spurious() {
        // A pure-reordering episode: dupacks trigger recovery, then the
        // "missing" originals arrive and acks jump forward — the sender
        // must not retransmit anything beyond the initial fast retransmit.
        let mut s = sender();
        s.app_write(t(0), 200_000);
        for i in 0..3 {
            s.on_ack(t(10 + i), 0, 14600);
        }
        assert_eq!(s.retransmissions, 1);
        // Originals land: partial acks race forward without stalling.
        for (i, ack) in [1460u64, 4380, 8760, 14600].iter().enumerate() {
            let out = s.on_ack(t(20 + i as u64), *ack, 14600);
            assert!(
                out.to_send.iter().all(|a| !a.retx),
                "spurious retx at {ack}"
            );
        }
        assert_eq!(s.retransmissions, 1);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut s = sender();
        let out = s.app_write(t(0), 100_000);
        let (deadline, gen) = out.arm_rto.unwrap();
        assert_eq!(deadline, t(0) + SimDuration::from_millis(10));
        let out = s.on_rto(deadline, gen);
        assert_eq!(s.timeouts, 1);
        let retx: Vec<_> = out.to_send.iter().filter(|a| a.retx).collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 0);
        assert_eq!(s.cc.cwnd(), MSS_F);
        // Backoff doubles the next deadline.
        let (d2, _) = out.arm_rto.unwrap();
        assert_eq!(d2, deadline + SimDuration::from_millis(20));
    }

    #[test]
    fn stale_rto_generation_is_ignored() {
        let mut s = sender();
        let out = s.app_write(t(0), 100_000);
        let (_, gen) = out.arm_rto.unwrap();
        // An ACK re-arms the timer, bumping the generation.
        let out2 = s.on_ack(t(50), 14600, 14600);
        let (_, gen2) = out2.arm_rto.unwrap();
        assert!(gen2 > gen);
        let out3 = s.on_rto(t(1_000_000), gen);
        assert!(out3.to_send.is_empty());
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn completion_fires_once_when_all_acked() {
        let mut s = sender();
        s.app_write(t(0), 14600);
        let out = s.on_ack(t(100), 14600, 14600);
        assert!(out.completed);
        assert!(s.completed);
        let out = s.on_ack(t(101), 14600, 14600);
        assert!(!out.completed, "completion reported once");
    }

    #[test]
    fn unlimited_stream_never_completes() {
        let mut s = sender();
        let out = s.set_unlimited(t(0));
        assert!(!out.to_send.is_empty());
        let mut acked = 0;
        for i in 0..50 {
            acked += 14600;
            let out = s.on_ack(t(100 * (i + 1)), acked, acked);
            assert!(!out.completed);
            assert!(!out.to_send.is_empty(), "always more data");
        }
    }

    #[test]
    fn rwnd_caps_flight() {
        let cfg = TcpConfig {
            rwnd: 20_000,
            ..TcpConfig::default()
        };
        let mut s = TcpSender::new(cfg, Reno::new(1000));
        s.app_write(t(0), 10_000_000);
        assert!(s.flight() <= 20_000);
    }

    #[test]
    fn rtt_sampling_updates_srtt() {
        let mut s = sender();
        s.app_write(t(0), 14600);
        s.on_ack(t(350), 14600, 14600);
        assert_eq!(s.srtt(), SimDuration::from_micros(350));
    }

    #[test]
    fn no_rtt_sample_after_retransmission() {
        let mut s = sender();
        s.app_write(t(0), 100_000);
        for i in 0..3 {
            s.on_ack(t(10 + i), 0, 14600);
        }
        // Ack that covers the retransmitted range: no sample (Karn).
        let before = s.srtt();
        s.on_ack(t(50_000), 14600, 14600);
        assert_eq!(s.srtt(), before);
    }

    /// Twin senders driven through one sequence of interactions: `value`
    /// through the by-value methods, `reused` through the `_into`
    /// methods with one output cleared between interactions, `piled`
    /// through the `_into` methods with one output never cleared.
    struct Twins {
        value: TcpSender<Dctcp>,
        reused: TcpSender<Dctcp>,
        out: SenderOutput,
        piled: TcpSender<Dctcp>,
        pile: SenderOutput,
        /// The by-value outputs merged as `pile` should hold them: every
        /// segment in order, the timer last armed, completed if any was.
        merged: SenderOutput,
        /// The generation of the timer last armed.
        gen: u64,
    }

    impl Twins {
        fn new() -> Self {
            let mk = || TcpSender::new(TcpConfig::default(), Dctcp::new(10));
            Twins {
                value: mk(),
                reused: mk(),
                out: SenderOutput::default(),
                piled: mk(),
                pile: SenderOutput::default(),
                merged: SenderOutput::default(),
                gen: 0,
            }
        }

        /// Run one interaction on all three and check they agree.
        fn step(
            &mut self,
            by_value: impl FnOnce(&mut TcpSender<Dctcp>) -> SenderOutput,
            into: impl Fn(&mut TcpSender<Dctcp>, &mut SenderOutput),
        ) {
            let want = by_value(&mut self.value);
            self.out.clear();
            into(&mut self.reused, &mut self.out);
            assert_eq!(self.out, want);
            into(&mut self.piled, &mut self.pile);
            self.merged.to_send.extend(&want.to_send);
            if let Some((_, gen)) = want.arm_rto {
                self.gen = gen;
                self.merged.arm_rto = want.arm_rto;
            }
            self.merged.completed |= want.completed;
            assert_eq!(self.pile, self.merged);
            let state = format!("{:?}", self.value);
            assert_eq!(format!("{:?}", self.reused), state);
            assert_eq!(format!("{:?}", self.piled), state);
        }
    }

    proptest::proptest! {
        /// Random application writes, advancing, duplicate and corrupt
        /// ACKs with and without ECN-Echo, and RTO firings of the current
        /// and of stale generations: the `_into` methods produce exactly
        /// the by-value results whether their output is reused or piles
        /// up, and leave the sender in the same state.
        #[test]
        fn into_methods_match_the_by_value_results(
            unlimited in 0u64..2,
            ops in proptest::collection::vec(0u64..u64::MAX, 1..300),
        ) {
            let mut tw = Twins::new();
            let mut now = t(0);
            if unlimited == 1 {
                tw.step(|s| s.set_unlimited(now), |s, o| s.set_unlimited_into(now, o));
            }
            for &op in &ops {
                now += SimDuration::from_nanos(op >> 44);
                let (una, flight) = (tw.value.acked_bytes(), tw.value.flight());
                let arg = op >> 8;
                match op % 8 {
                    0 if unlimited == 0 => {
                        // Mostly small writes, so that streams complete.
                        let bytes = 1 + arg % if op & 0x10 != 0 { 200_000 } else { 5_000 };
                        tw.step(
                            |s| s.app_write(now, bytes),
                            |s, o| s.app_write_into(now, bytes, o),
                        );
                    }
                    0..=2 => {
                        // Part of the flight, or (op % 8 == 2) all of it.
                        let ack = una + if op % 8 == 2 { flight } else { arg % (flight + 1) };
                        let sack_hi = ack + arg % 30_000;
                        let ece = op & 0x10 != 0;
                        tw.step(
                            |s| SenderOutput::collect(|o| s.on_ack_into(now, ack, sack_hi, ece, o)),
                            |s, o| s.on_ack_into(now, ack, sack_hi, ece, o),
                        );
                    }
                    3 | 4 => {
                        // A duplicate ACK while data is in flight.
                        let hi = una + flight;
                        tw.step(
                            |s| s.on_ack(now, una, hi),
                            |s, o| s.on_ack_into(now, una, hi, false, o),
                        );
                    }
                    5 => {
                        // Beyond anything sent so far.
                        let ack = una + flight + 1 + arg % 10_000_000;
                        tw.step(
                            |s| s.on_ack(now, ack, ack),
                            |s, o| s.on_ack_into(now, ack, ack, false, o),
                        );
                    }
                    _ => {
                        let gen = tw.gen.saturating_sub(arg % 2);
                        tw.step(|s| s.on_rto(now, gen), |s, o| s.on_rto_into(now, gen, o));
                    }
                }
            }
        }
    }

    #[test]
    fn acks_beyond_snd_nxt_ignored() {
        let mut s = sender();
        s.app_write(t(0), 14600);
        let out = s.on_ack(t(10), 999_999, 999_999);
        assert!(out.to_send.is_empty());
        assert_eq!(s.acked_bytes(), 0);
    }
}
