//! MPTCP: a connection striped over several TCP subflows.
//!
//! The paper's comparison configuration (§4): MPTCP v0.88, 8 subflows,
//! coupled congestion control, subflow paths chosen by per-flow ECMP (each
//! subflow gets its own source port and therefore its own hash). This
//! module models that as a bundle of [`TcpSender`]s with [`Lia`] coupled
//! congestion control and a chunk dispatcher:
//!
//! * each subflow owns an independent byte stream; connection-level bytes
//!   are dealt to subflows in chunks as their windows open (a simplified
//!   data-sequence mapping — throughput and completion semantics are
//!   preserved, per-byte reinjection is not modeled);
//! * after every ACK the connection recomputes the LIA coupling factor
//!   `α = cwnd_total · max_i(cwnd_i/rtt_i²) / (Σ_i cwnd_i/rtt_i)²` and
//!   pushes it into every subflow's window state.
//!
//! Loss on one subflow halves only that subflow (the aggression the paper
//! observes in Fig 9a), while the coupled increase bounds the bundle's
//! total aggressiveness.

use presto_simcore::SimTime;

use crate::cc::{CongestionControl, Lia};
use crate::sender::{SenderOutput, TcpConfig, TcpSender};

/// Default subflow count from the paper's configuration.
pub const DEFAULT_SUBFLOWS: usize = 8;

/// An MPTCP connection: dispatcher plus `n` subflow senders.
#[derive(Debug)]
pub struct MptcpConnection {
    /// The subflow senders; index = subflow id. Each is wired to its own
    /// `FlowKey` (distinct source port) by the host layer.
    pub subflows: Vec<TcpSender<Lia>>,
    /// Total connection bytes (u64::MAX = unbounded elephant).
    total_bytes: u64,
    /// Bytes already dealt to subflows.
    dispatched: u64,
    /// Chunk size for the dispatcher.
    chunk: u64,
    /// True once every subflow finished its share.
    pub completed: bool,
}

impl MptcpConnection {
    /// A connection of `n_subflows` subflows carrying `total_bytes`
    /// (`u64::MAX` for an unbounded elephant).
    ///
    /// Finite flows are dealt in chunks of roughly `total/n` (at least two
    /// MSS) so mice spread across subflows, as real MPTCP's scheduler does;
    /// elephants use 64 KB chunks.
    pub fn new(cfg: TcpConfig, n_subflows: usize, total_bytes: u64) -> Self {
        assert!(n_subflows >= 1);
        let chunk = if total_bytes == u64::MAX {
            64 * 1024
        } else {
            (total_bytes / n_subflows as u64).max(2 * cfg.mss as u64)
        };
        let subflows = (0..n_subflows)
            .map(|_| TcpSender::new(cfg.clone(), Lia::new(10)))
            .collect();
        MptcpConnection {
            subflows,
            total_bytes,
            dispatched: 0,
            chunk,
            completed: false,
        }
    }

    /// Number of subflows.
    pub fn n_subflows(&self) -> usize {
        self.subflows.len()
    }

    /// Start the connection: deal the initial chunk to every subflow.
    /// Returns one [`SenderOutput`] per subflow (same order).
    pub fn start(&mut self, now: SimTime) -> Vec<SenderOutput> {
        (0..self.subflows.len())
            .map(|i| SenderOutput::collect(|out| self.start_into(now, i, out)))
            .collect()
    }

    /// Start subflow `i`, adding its output to `out`: deal it the next
    /// chunk and recouple windows. [`Self::start`] calls this for every
    /// subflow in order; a caller that starts the subflows itself must
    /// too, since each deal takes the chunk after the last one.
    pub fn start_into(&mut self, now: SimTime, i: usize, out: &mut SenderOutput) {
        // An elephant's chunks never run out (so it needs no unbounded
        // stream); a small finite flow may run out before its last
        // subflows, which then start idle.
        let grant = self.next_grant();
        if grant > 0 {
            self.subflows[i].app_write_into(now, grant, out);
            self.dispatched += grant;
        }
        self.recouple();
    }

    /// Process an ACK on subflow `i`; refills the subflow's stream from
    /// the connection backlog and recouples windows.
    pub fn on_ack(&mut self, now: SimTime, i: usize, ack: u64, sack_hi: u64) -> SenderOutput {
        SenderOutput::collect(|out| self.on_ack_into(now, i, ack, sack_hi, out))
    }

    /// [`Self::on_ack`], adding to `out`.
    pub fn on_ack_into(
        &mut self,
        now: SimTime,
        i: usize,
        ack: u64,
        sack_hi: u64,
        out: &mut SenderOutput,
    ) {
        // A subflow's completion is not the connection's.
        let completed = out.completed;
        self.subflows[i].on_ack_into(now, ack, sack_hi, false, out);
        out.completed = completed;
        // Refill: keep each subflow holding at most one undelivered chunk.
        if self.subflows[i].is_idle() {
            let grant = self.next_grant();
            if grant > 0 {
                self.subflows[i].app_write_into(now, grant, out);
                self.dispatched += grant;
            }
        }
        self.recouple();
        if self.check_complete() {
            out.completed = true;
        }
    }

    /// Process an RTO firing on subflow `i`.
    pub fn on_rto(&mut self, now: SimTime, i: usize, gen: u64) -> SenderOutput {
        SenderOutput::collect(|out| self.on_rto_into(now, i, gen, out))
    }

    /// [`Self::on_rto`], adding to `out`.
    pub fn on_rto_into(&mut self, now: SimTime, i: usize, gen: u64, out: &mut SenderOutput) {
        self.subflows[i].on_rto_into(now, gen, out);
        self.recouple();
    }

    /// Total bytes reliably delivered across subflows.
    pub fn acked_bytes(&self) -> u64 {
        self.subflows.iter().map(|s| s.acked_bytes()).sum()
    }

    /// Total retransmissions across subflows.
    pub fn retransmissions(&self) -> u64 {
        self.subflows.iter().map(|s| s.retransmissions).sum()
    }

    /// Total RTO fires across subflows (the "MPTCP experiences TIMEOUT"
    /// marker of Table 2).
    pub fn timeouts(&self) -> u64 {
        self.subflows.iter().map(|s| s.timeouts).sum()
    }

    fn next_grant(&self) -> u64 {
        if self.total_bytes == u64::MAX {
            self.chunk
        } else {
            self.chunk.min(self.total_bytes - self.dispatched)
        }
    }

    fn check_complete(&mut self) -> bool {
        if self.completed || self.total_bytes == u64::MAX {
            return false;
        }
        if self.acked_bytes() >= self.total_bytes {
            self.completed = true;
            return true;
        }
        false
    }

    /// Recompute the LIA coupling factor and push it into every subflow.
    fn recouple(&mut self) {
        let total: f64 = self.subflows.iter().map(|s| s.cc.cwnd()).sum();
        let mut best = 0.0f64;
        let mut denom = 0.0f64;
        for s in &self.subflows {
            let rtt = s.srtt().as_secs_f64().max(1e-6);
            best = best.max(s.cc.cwnd() / (rtt * rtt));
            denom += s.cc.cwnd() / rtt;
        }
        let alpha = if denom > 0.0 {
            (total * best / (denom * denom)).max(f64::MIN_POSITIVE)
        } else {
            1.0
        };
        for s in &mut self.subflows {
            s.cc.alpha = alpha;
            s.cc.cwnd_total = total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn start_deals_chunks_to_all_subflows() {
        let mut c = MptcpConnection::new(TcpConfig::default(), 8, 800_000);
        let outs = c.start(t(0));
        assert_eq!(outs.len(), 8);
        // Each subflow got a 100 KB chunk and sent its initial window.
        for o in &outs {
            assert!(!o.to_send.is_empty());
        }
        assert_eq!(c.dispatched, 800_000);
    }

    #[test]
    fn elephant_subflows_are_unbounded() {
        let mut c = MptcpConnection::new(TcpConfig::default(), 4, u64::MAX);
        let outs = c.start(t(0));
        for o in &outs {
            assert!(!o.to_send.is_empty());
        }
        // Keep acking one subflow's entire flight: the dispatcher must
        // keep granting fresh chunks forever.
        for i in 0..20 {
            let target = c.subflows[0].acked_bytes() + c.subflows[0].flight();
            let out = c.on_ack(t(100 * (i + 1)), 0, target, target);
            assert!(!out.completed);
            assert!(c.subflows[0].flight() > 0, "round {i}: no regrant");
        }
        assert!(
            c.acked_bytes() >= 10 * 64 * 1024,
            "acked {}",
            c.acked_bytes()
        );
    }

    #[test]
    fn completion_when_all_subflows_deliver() {
        let total = 100_000u64;
        let mut c = MptcpConnection::new(TcpConfig::default(), 2, total);
        c.start(t(0));
        // Drive both subflows to full delivery.
        let mut done = false;
        for step in 1..100 {
            for i in 0..2 {
                let target = c.subflows[i].flight() + c.subflows[i].acked_bytes();
                if target > c.subflows[i].acked_bytes() {
                    let out = c.on_ack(t(step * 10), i, target, target);
                    if out.completed {
                        done = true;
                    }
                }
            }
            if done {
                break;
            }
        }
        assert!(done, "connection never completed");
        assert!(c.completed);
        assert_eq!(c.acked_bytes(), total);
    }

    #[test]
    fn mice_spread_across_subflows() {
        // A 50 KB mouse over 8 subflows: chunk = max(50K/8, 2*MSS).
        let c = MptcpConnection::new(TcpConfig::default(), 8, 50_000);
        assert_eq!(c.chunk, 6_250);
    }

    #[test]
    fn coupling_factor_is_shared() {
        let mut c = MptcpConnection::new(TcpConfig::default(), 4, u64::MAX);
        c.start(t(0));
        let alphas: Vec<f64> = c.subflows.iter().map(|s| s.cc.alpha).collect();
        for a in &alphas {
            assert_eq!(*a, alphas[0]);
            assert!(*a > 0.0);
        }
        let totals: Vec<f64> = c.subflows.iter().map(|s| s.cc.cwnd_total).collect();
        let expect: f64 = c.subflows.iter().map(|s| s.cc.cwnd()).sum();
        for tot in totals {
            assert!((tot - expect).abs() < 1.0);
        }
    }

    #[test]
    fn rto_on_one_subflow_recouples_all() {
        let mut c = MptcpConnection::new(TcpConfig::default(), 3, u64::MAX);
        let outs = c.start(t(0));
        let (deadline, gen) = outs[1].arm_rto.unwrap();
        let total_before: f64 = c.subflows.iter().map(|s| s.cc.cwnd()).sum();
        c.on_rto(deadline, 1, gen);
        let total_after: f64 = c.subflows.iter().map(|s| s.cc.cwnd()).sum();
        assert!(total_after < total_before, "bundle window must shrink");
        // Every subflow's view of the bundle total is consistent.
        for s in &c.subflows {
            assert!((s.cc.cwnd_total - total_after).abs() < 1.0);
        }
    }

    #[test]
    fn single_subflow_degenerates_to_tcp() {
        let mut c = MptcpConnection::new(TcpConfig::default(), 1, 100_000);
        let outs = c.start(t(0));
        assert_eq!(outs.len(), 1);
        let sent: u64 = outs[0].to_send.iter().map(|a| a.len as u64).sum();
        assert_eq!(sent, 14_600, "IW10 from the lone subflow");
    }

    #[test]
    fn timeout_statistics_aggregate() {
        let mut c = MptcpConnection::new(TcpConfig::default(), 2, 1_000_000);
        let outs = c.start(t(0));
        let (deadline, gen) = outs[0].arm_rto.unwrap();
        let out = c.on_rto(deadline, 0, gen);
        assert!(out.to_send.iter().any(|a| a.retx));
        assert_eq!(c.timeouts(), 1);
        assert_eq!(c.retransmissions(), 1);
    }
}
