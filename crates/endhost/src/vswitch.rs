//! The transmit-side vSwitch datapath.
//!
//! Every skb TCP hands down traverses the vSwitch before reaching the NIC
//! (§3.1). The vSwitch consults an [`EdgePolicy`] — Presto's flowcell
//! scheduler, or one of the baselines in `presto-lb` — which returns the
//! destination MAC to write (a shadow MAC selecting a spanning tree, or
//! the real host MAC) and the flowcell ID to stamp. The datapath also
//! keeps the per-flow byte counters Algorithm 1 relies on (those live
//! inside the policies, which are per-flow stateful) and per-host transmit
//! statistics.

use std::collections::HashMap;

use presto_netsim::{FlowKey, HostId, Mac};
use presto_probe::{HostLoad, PoolStats, ProbeParams};
use presto_simcore::{SimDuration, SimTime};

/// The path-selection decision for one skb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathTag {
    /// Destination MAC to write into the skb (replicated by TSO).
    pub dst_mac: Mac,
    /// Flowcell ID to stamp (replicated by TSO).
    pub flowcell: u64,
}

/// A per-path congestion observation delivered to feedback-driven policies.
///
/// One signal per spanning tree reachable from the host's leaf, sampled on
/// the fault-notify plumbing's cadence (see [`EdgePolicy::feedback_interval`]).
/// The signal is derived from the first-hop uplink the tree rides, which is
/// the only queue the edge can observe without in-network support — the
/// same restriction CAFT and Prequal-style schemes operate under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSignal {
    /// Spanning-tree id the signal describes (matches `Mac::tree()`).
    pub tree: u32,
    /// Bytes queued on the tree's first-hop uplink at sample time.
    pub queue_bytes: u64,
    /// Fraction of the uplink's nominal rate currently available
    /// (1.0 = healthy, 0.0 = down), from the fault subsystem.
    pub rate_fraction: f64,
}

/// Shared per-destination label store for label-driven policies.
///
/// Every scheme that follows the controller's disseminated label sets
/// (ECMP, flowlet, per-packet, and the new arena schemes) needs the same
/// three operations: replace the set for a destination, look it up, and
/// report it back for tests. This helper hoists that boilerplate so a
/// policy holds a `LabelTable` instead of re-implementing the map.
#[derive(Debug, Default, Clone)]
pub struct LabelTable {
    labels: HashMap<HostId, Vec<Mac>>,
}

impl LabelTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the label sequence toward `dst`. Label sets are never empty:
    /// the controller always disseminates at least one path.
    pub fn set(&mut self, dst: HostId, labels: Vec<Mac>) {
        assert!(
            !labels.is_empty(),
            "label set for {dst:?} must be non-empty"
        );
        self.labels.insert(dst, labels);
    }

    /// The label sequence toward `dst`, if the controller installed one.
    pub fn get(&self, dst: HostId) -> Option<&[Mac]> {
        self.labels.get(&dst).map(Vec::as_slice)
    }

    /// The label sequence toward `dst` in schedule order, or empty.
    pub fn current(&self, dst: HostId) -> Vec<Mac> {
        self.labels.get(&dst).cloned().unwrap_or_default()
    }
}

/// An edge load-balancing policy: maps each outgoing skb to a path tag.
///
/// Implementations: Presto's Algorithm 1 (`presto_core::FlowcellScheduler`),
/// per-flow ECMP, flowlet switching and per-packet spraying (`presto-lb`),
/// and the pass-through [`DirectPolicy`].
pub trait EdgePolicy {
    /// Decide the tag for an skb of `len` bytes on `flow`.
    ///
    /// Retransmitted TCP packets run through this code again, exactly as
    /// the paper notes for Algorithm 1, so `retx` is visible to policies
    /// but must not short-circuit the accounting.
    fn assign(&mut self, now: SimTime, flow: FlowKey, len: u32, retx: bool) -> PathTag;

    /// Install (or replace) the label sequence toward `dst` — how the
    /// controller disseminates path sets and weighted schedules to the
    /// edge (§3.1). Policies that ignore labels (e.g. [`DirectPolicy`])
    /// keep the default no-op.
    fn set_labels(&mut self, dst: HostId, labels: Vec<Mac>) {
        let _ = (dst, labels);
    }

    /// The label sequence currently installed toward `dst`, in schedule
    /// order — lets tests and fault-recovery checks observe what the
    /// controller last disseminated. Label-less policies report none.
    fn current_labels(&self, dst: HostId) -> Vec<Mac> {
        let _ = dst;
        Vec::new()
    }

    /// Completed flowlet sizes, for policies that track them (Fig 1's
    /// analysis); everyone else reports none.
    fn flowlet_sizes(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Number of flowcells this policy has created (Algorithm 1 policies).
    fn flowcells_created(&self) -> u64 {
        0
    }

    /// Flowcells assigned per spanning-tree path, indexed by the label's
    /// tree id — the telemetry spray histogram. Policies that don't spray
    /// report nothing.
    fn path_spray_counts(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Lifecycle hook: the controller finished (re)installing labels on
    /// this policy — e.g. after a fault reweight or recovery. Policies
    /// with per-path state keyed by schedule position (congestion EWMAs,
    /// round-robin cursors) use this to resynchronize; everyone else
    /// keeps the no-op.
    fn labels_updated(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Advisory flow-size hint from the application layer: `bytes` is the
    /// flow's total intended size when known (`None` for open-ended
    /// streams). Size-aware schemes (DiffFlow) use it to classify
    /// elephants before the byte counters catch up; everyone else keeps
    /// the no-op.
    fn flow_hint(&mut self, flow: FlowKey, bytes: Option<u64>) {
        let _ = (flow, bytes);
    }

    /// Periodic per-path congestion/fault feedback (one [`PathSignal`]
    /// per tree), delivered on the cadence requested by
    /// [`feedback_interval`](EdgePolicy::feedback_interval). Reuses the
    /// fault-notify plumbing; congestion-aware schemes (CAFT) fold these
    /// into path weights.
    fn path_feedback(&mut self, now: SimTime, signals: &[PathSignal]) {
        let _ = (now, signals);
    }

    /// How often this policy wants [`path_feedback`](EdgePolicy::path_feedback)
    /// sampled, or `None` to opt out (the default). When every policy in a
    /// simulation opts out, no feedback events are scheduled at all, so
    /// feedback-free schemes keep byte-identical event streams.
    fn feedback_interval(&self) -> Option<SimDuration> {
        None
    }

    /// Receiver-load probing opt-in: the probe cadence, pool capacity and
    /// staleness bound this policy wants, or `None` (the default). Like
    /// [`feedback_interval`](EdgePolicy::feedback_interval), opting out
    /// means no probe event is ever scheduled, so load-oblivious schemes
    /// keep byte-identical event streams and digests.
    fn probe_params(&self) -> Option<ProbeParams> {
        None
    }

    /// A probe round completed: one [`HostLoad`] per destination probed
    /// this round, delivered out-of-band (probes ride the control plane,
    /// like fault notifications — they never occupy data queues).
    /// Load-aware policies fold these into their probe pool; everyone
    /// else keeps the no-op.
    fn probe_feedback(&mut self, now: SimTime, loads: &[HostLoad]) {
        let _ = (now, loads);
    }

    /// Replica selection for partition-aggregate requests: pick `k`
    /// responders from `candidates` (the aggregator's eligible worker
    /// set, in canonical order). Returning `None` (the default) keeps the
    /// static choice — the first `k` candidates — so load-oblivious
    /// schemes see exactly the sender set they always did.
    fn select_replicas(
        &mut self,
        now: SimTime,
        candidates: &[HostId],
        k: usize,
    ) -> Option<Vec<HostId>> {
        let _ = (now, candidates, k);
        None
    }

    /// Cumulative probe-pool occupancy counters, for the run report's
    /// probe figure. Policies without a pool report `None`.
    fn probe_pool_stats(&self) -> Option<PoolStats> {
        None
    }
}

/// Pass-through policy: real destination MAC, flowcell 0. Used for the
/// single-switch "Optimal" baseline where there is nothing to balance.
#[derive(Debug, Default, Clone)]
pub struct DirectPolicy;

impl EdgePolicy for DirectPolicy {
    fn assign(&mut self, _now: SimTime, flow: FlowKey, _len: u32, _retx: bool) -> PathTag {
        PathTag {
            dst_mac: Mac::host(flow.dst),
            flowcell: 0,
        }
    }
}

/// Per-host transmit datapath: policy + counters.
pub struct VSwitch {
    /// The host this vSwitch runs on.
    pub host: HostId,
    policy: Box<dyn EdgePolicy>,
    /// Skbs processed.
    pub tx_segments: u64,
    /// Payload bytes processed.
    pub tx_bytes: u64,
}

impl VSwitch {
    /// A vSwitch for `host` running `policy`.
    pub fn new(host: HostId, policy: Box<dyn EdgePolicy>) -> Self {
        VSwitch {
            host,
            policy,
            tx_segments: 0,
            tx_bytes: 0,
        }
    }

    /// Run the datapath on one outgoing skb, returning its path tag.
    pub fn process(&mut self, now: SimTime, flow: FlowKey, len: u32, retx: bool) -> PathTag {
        self.tx_segments += 1;
        self.tx_bytes += len as u64;
        self.policy.assign(now, flow, len, retx)
    }

    /// Borrow the policy for inspection/mutation by the controller.
    pub fn policy_mut(&mut self) -> &mut dyn EdgePolicy {
        self.policy.as_mut()
    }

    /// Borrow the policy for read-only instrumentation.
    pub fn policy(&self) -> &dyn EdgePolicy {
        self.policy.as_ref()
    }
}

impl std::fmt::Debug for VSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VSwitch")
            .field("host", &self.host)
            .field("tx_segments", &self.tx_segments)
            .field("tx_bytes", &self.tx_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowKey {
        FlowKey::new(HostId(3), HostId(7), 10, 20)
    }

    #[test]
    fn direct_policy_uses_real_mac() {
        let mut p = DirectPolicy;
        let tag = p.assign(SimTime::ZERO, flow(), 64 * 1024, false);
        assert_eq!(tag.dst_mac, Mac::host(HostId(7)));
        assert!(!tag.dst_mac.is_shadow());
        assert_eq!(tag.flowcell, 0);
    }

    #[test]
    fn vswitch_counts_traffic() {
        let mut v = VSwitch::new(HostId(3), Box::new(DirectPolicy));
        v.process(SimTime::ZERO, flow(), 1000, false);
        v.process(SimTime::ZERO, flow(), 2000, true);
        assert_eq!(v.tx_segments, 2);
        assert_eq!(v.tx_bytes, 3000);
    }

    /// A policy that alternates between two labels — verifies the trait
    /// object plumbing end to end.
    struct Alternating {
        count: u64,
    }

    impl EdgePolicy for Alternating {
        fn assign(&mut self, _now: SimTime, flow: FlowKey, _len: u32, _retx: bool) -> PathTag {
            self.count += 1;
            PathTag {
                dst_mac: Mac::shadow(flow.dst, (self.count % 2) as u32),
                flowcell: self.count,
            }
        }
    }

    #[test]
    fn custom_policy_drives_tags() {
        let mut v = VSwitch::new(HostId(0), Box::new(Alternating { count: 0 }));
        let a = v.process(SimTime::ZERO, flow(), 100, false);
        let b = v.process(SimTime::ZERO, flow(), 100, false);
        assert_ne!(a.dst_mac, b.dst_mac);
        assert_eq!(a.flowcell + 1, b.flowcell);
        assert!(a.dst_mac.is_shadow());
    }
}
