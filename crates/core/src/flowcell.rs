//! Algorithm 1: flowcell creation and round-robin path assignment.
//!
//! The sender's vSwitch keeps a per-flow byte counter. Consecutive skbs
//! share a destination shadow MAC (and flowcell ID) until adding the next
//! skb would exceed 64 KB; then the vSwitch advances to the next label in
//! the destination's sequence and increments the flowcell ID:
//!
//! ```text
//! if bytecount + len(skb) > threshold:
//!     bytecount   <- len(skb)
//!     current_mac <- (current_mac + 1) % total_macs
//!     flowcellID  <- flowcellID + 1
//! else:
//!     bytecount   <- bytecount + len(skb)
//! ```
//!
//! Weighted multipathing (§3.3) falls out of the label *sequence*: to give
//! paths weights 0.25/0.5/0.25 the controller sends the sequence
//! `p1 p2 p3 p2` and the round robin realizes the weights — WCMP pushed
//! entirely to the network edge.

use std::collections::HashMap;

use presto_endhost::{EdgePolicy, PathTag};
use presto_netsim::{FlowKey, HostId, Mac};
use presto_simcore::rng::hash_mix;
use presto_simcore::SimTime;

/// The flowcell threshold: the maximum TSO segment size (64 KB).
pub const FLOWCELL_BYTES: u64 = 64 * 1024;

#[derive(Debug, Clone)]
struct FlowState {
    bytecount: u64,
    current_mac: usize,
    flowcell: u64,
}

/// # Example
///
/// ```
/// use presto_core::FlowcellScheduler;
/// use presto_endhost::EdgePolicy;
/// use presto_netsim::{FlowKey, HostId, Mac};
/// use presto_simcore::SimTime;
///
/// let mut sched = FlowcellScheduler::new();
/// sched.set_labels(HostId(9), vec![Mac::shadow(HostId(9), 0), Mac::shadow(HostId(9), 1)]);
/// let flow = FlowKey::new(HostId(0), HostId(9), 1000, 80);
///
/// // Two full 64 KB skbs land in different flowcells on different paths.
/// let a = sched.assign(SimTime::ZERO, flow, 64 * 1024, false);
/// let b = sched.assign(SimTime::ZERO, flow, 64 * 1024, false);
/// assert_ne!(a.dst_mac, b.dst_mac);
/// assert_eq!(b.flowcell, a.flowcell + 1);
/// ```
/// Per-host Presto edge policy (one instance per sender vSwitch).
#[derive(Debug, Default)]
pub struct FlowcellScheduler {
    /// Label sequence per destination host, installed by the controller.
    /// Duplicated entries realize path weights.
    labels: HashMap<HostId, Vec<Mac>>,
    /// Per-flow Algorithm 1 state.
    flows: HashMap<FlowKey, FlowState>,
    /// Flowcell size threshold (64 KB in the paper; the ablation benches
    /// sweep it).
    pub threshold: u64,
    /// Flowcells created (instrumentation).
    pub flowcells_created: u64,
    /// Flowcells assigned per spanning-tree path, indexed by the chosen
    /// label's tree id (telemetry spray histogram).
    spray_counts: Vec<u64>,
}

impl FlowcellScheduler {
    /// A scheduler with the paper's 64 KB threshold and no labels yet.
    pub fn new() -> Self {
        FlowcellScheduler {
            labels: HashMap::new(),
            flows: HashMap::new(),
            threshold: FLOWCELL_BYTES,
            flowcells_created: 0,
            spray_counts: Vec::new(),
        }
    }

    /// Install (or replace) the label sequence toward `dst`. Existing flows
    /// keep their position modulo the new sequence length.
    pub fn set_labels(&mut self, dst: HostId, labels: Vec<Mac>) {
        assert!(!labels.is_empty(), "label sequence must be non-empty");
        self.labels.insert(dst, labels);
    }

    /// Install a weighted sequence from `(label, weight)` pairs by
    /// duplication — weights are small integers (the paper's p1 p2 p3 p2
    /// example is `[(p1,1),(p2,2),(p3,1)]`).
    pub fn set_weighted_labels(&mut self, dst: HostId, weighted: &[(Mac, u32)]) {
        let mut seq = Vec::new();
        // Interleave rather than concatenate so short-term balance holds:
        // emit labels in rounds, each label appearing while weight remains.
        let max_w = weighted.iter().map(|&(_, w)| w).max().unwrap_or(0);
        for round in 0..max_w {
            for &(mac, w) in weighted {
                if round < w {
                    seq.push(mac);
                }
            }
        }
        assert!(!seq.is_empty(), "total weight must be positive");
        self.labels.insert(dst, seq);
    }

    /// The current label sequence toward `dst` (test/inspection hook).
    pub fn labels_for(&self, dst: HostId) -> Option<&[Mac]> {
        self.labels.get(&dst).map(|v| v.as_slice())
    }
}

impl EdgePolicy for FlowcellScheduler {
    fn set_labels(&mut self, dst: HostId, labels: Vec<Mac>) {
        FlowcellScheduler::set_labels(self, dst, labels);
    }

    fn current_labels(&self, dst: HostId) -> Vec<Mac> {
        self.labels_for(dst)
            .map(<[Mac]>::to_vec)
            .unwrap_or_default()
    }

    fn flowcells_created(&self) -> u64 {
        self.flowcells_created
    }

    fn path_spray_counts(&self) -> Vec<u64> {
        self.spray_counts.clone()
    }

    fn assign(&mut self, _now: SimTime, flow: FlowKey, len: u32, _retx: bool) -> PathTag {
        let labels = match self.labels.get(&flow.dst) {
            Some(l) => l,
            // No labels installed (e.g. destination on the same leaf in a
            // future extension): fall back to direct forwarding.
            None => {
                return PathTag {
                    dst_mac: Mac::host(flow.dst),
                    flowcell: 0,
                }
            }
        };
        let n = labels.len();
        let mut new_cell = false;
        let state = self.flows.entry(flow).or_insert_with(|| {
            self.flowcells_created += 1;
            new_cell = true;
            FlowState {
                bytecount: 0,
                // Stagger flows across the sequence so simultaneous flows
                // don't all start on path 0.
                current_mac: (hash_mix(flow.digest(), 0x9E37) % n as u64) as usize,
                flowcell: 1,
            }
        });
        // Algorithm 1, verbatim. Retransmitted packets run through this
        // code again, as the paper notes — no special casing.
        if state.bytecount + len as u64 > self.threshold {
            state.bytecount = len as u64;
            state.current_mac = (state.current_mac + 1) % n;
            state.flowcell += 1;
            self.flowcells_created += 1;
            new_cell = true;
        } else {
            state.bytecount += len as u64;
        }
        let tag = PathTag {
            dst_mac: labels[state.current_mac % n],
            flowcell: state.flowcell,
        };
        if new_cell {
            let path = tag.dst_mac.tree() as usize;
            if self.spray_counts.len() <= path {
                self.spray_counts.resize(path + 1, 0);
            }
            self.spray_counts[path] += 1;
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(sport: u16) -> FlowKey {
        FlowKey::new(HostId(0), HostId(9), sport, 80)
    }

    fn labels(n: u32) -> Vec<Mac> {
        (0..n).map(|t| Mac::shadow(HostId(9), t)).collect()
    }

    fn sched(n: u32) -> FlowcellScheduler {
        let mut s = FlowcellScheduler::new();
        s.set_labels(HostId(9), labels(n));
        s
    }

    #[test]
    fn consecutive_segments_share_flowcell_until_64kb() {
        let mut s = sched(4);
        let f = flow(1);
        // Four 16 KB skbs fill exactly one flowcell.
        let tags: Vec<PathTag> = (0..4)
            .map(|_| s.assign(SimTime::ZERO, f, 16 * 1024, false))
            .collect();
        assert!(tags.windows(2).all(|w| w[0] == w[1]), "same cell: {tags:?}");
        // The fifth rotates.
        let t5 = s.assign(SimTime::ZERO, f, 16 * 1024, false);
        assert_ne!(t5.dst_mac, tags[0].dst_mac);
        assert_eq!(t5.flowcell, tags[0].flowcell + 1);
    }

    #[test]
    fn one_64kb_skb_is_one_flowcell() {
        let mut s = sched(4);
        let f = flow(1);
        let t1 = s.assign(SimTime::ZERO, f, 64 * 1024, false);
        let t2 = s.assign(SimTime::ZERO, f, 64 * 1024, false);
        let t3 = s.assign(SimTime::ZERO, f, 64 * 1024, false);
        assert_eq!(t2.flowcell, t1.flowcell + 1);
        assert_eq!(t3.flowcell, t2.flowcell + 1);
        assert_ne!(t1.dst_mac, t2.dst_mac);
    }

    #[test]
    fn round_robin_cycles_all_labels_evenly() {
        let n = 4u32;
        let mut s = sched(n);
        let f = flow(7);
        let mut counts: HashMap<Mac, u64> = HashMap::new();
        for _ in 0..400 {
            let t = s.assign(SimTime::ZERO, f, 64 * 1024, false);
            *counts.entry(t.dst_mac).or_default() += 1;
        }
        assert_eq!(counts.len(), n as usize);
        for (&mac, &c) in &counts {
            assert_eq!(c, 100, "label {mac:?} got {c}");
        }
    }

    #[test]
    fn byte_balance_invariant() {
        // Total bytes per label differ by at most one flowcell, for any
        // mix of skb sizes.
        let mut s = sched(3);
        let f = flow(3);
        let sizes = [1460u32, 40_000, 64 * 1024, 7_000, 1, 30_000, 64 * 1024];
        let mut bytes: HashMap<Mac, u64> = HashMap::new();
        for i in 0..500 {
            let len = sizes[i % sizes.len()];
            let t = s.assign(SimTime::ZERO, f, len, false);
            *bytes.entry(t.dst_mac).or_default() += len as u64;
        }
        let min = bytes.values().min().unwrap();
        let max = bytes.values().max().unwrap();
        assert!(
            max - min <= 2 * FLOWCELL_BYTES,
            "imbalance {} exceeds 2 flowcells",
            max - min
        );
    }

    #[test]
    fn flowcell_never_exceeds_threshold() {
        let mut s = sched(2);
        let f = flow(9);
        let mut cell_bytes: HashMap<u64, u64> = HashMap::new();
        let sizes = [10_000u32, 30_000, 1460, 64 * 1024, 500];
        for i in 0..300 {
            let len = sizes[i % sizes.len()];
            let t = s.assign(SimTime::ZERO, f, len, false);
            *cell_bytes.entry(t.flowcell).or_default() += len as u64;
        }
        for (&cell, &b) in &cell_bytes {
            assert!(b <= FLOWCELL_BYTES, "cell {cell} holds {b} bytes");
        }
    }

    #[test]
    fn flows_are_independent_and_staggered() {
        let mut s = sched(4);
        // Many flows: their starting labels should spread over all paths.
        let mut first_label: HashMap<Mac, u64> = HashMap::new();
        for sport in 0..64 {
            let t = s.assign(SimTime::ZERO, flow(sport), 1460, false);
            *first_label.entry(t.dst_mac).or_default() += 1;
        }
        assert_eq!(first_label.len(), 4, "flows all started on one path");
    }

    #[test]
    fn weighted_labels_realize_weights() {
        let mut s = FlowcellScheduler::new();
        let p1 = Mac::shadow(HostId(9), 0);
        let p2 = Mac::shadow(HostId(9), 1);
        let p3 = Mac::shadow(HostId(9), 2);
        // The paper's example: 0.25 / 0.5 / 0.25.
        s.set_weighted_labels(HostId(9), &[(p1, 1), (p2, 2), (p3, 1)]);
        assert_eq!(s.labels_for(HostId(9)).unwrap().len(), 4);
        let f = flow(1);
        let mut counts: HashMap<Mac, u64> = HashMap::new();
        for _ in 0..400 {
            let t = s.assign(SimTime::ZERO, f, 64 * 1024, false);
            *counts.entry(t.dst_mac).or_default() += 1;
        }
        assert_eq!(counts[&p1], 100);
        assert_eq!(counts[&p2], 200);
        assert_eq!(counts[&p3], 100);
    }

    #[test]
    fn spray_counts_track_flowcells_per_path() {
        let mut s = sched(4);
        let f = flow(1);
        for _ in 0..40 {
            s.assign(SimTime::ZERO, f, 64 * 1024, false);
        }
        let counts = s.path_spray_counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts.iter().sum::<u64>(), s.flowcells_created);
        // Round robin balances cells across all four trees.
        assert!(counts.iter().all(|&c| c == 10), "unbalanced: {counts:?}");
    }

    #[test]
    fn no_labels_falls_back_to_direct() {
        let mut s = FlowcellScheduler::new();
        let t = s.assign(SimTime::ZERO, flow(1), 1460, false);
        assert_eq!(t.dst_mac, Mac::host(HostId(9)));
        assert_eq!(t.flowcell, 0);
    }

    #[test]
    fn retransmissions_flow_through_the_same_counter() {
        // A retransmitted skb advances the byte counter exactly like a
        // fresh one (the paper: retransmissions re-run Algorithm 1).
        let mut s = sched(2);
        let f = flow(2);
        let t1 = s.assign(SimTime::ZERO, f, 60_000, false);
        let t2 = s.assign(SimTime::ZERO, f, 60_000, true);
        assert_eq!(t2.flowcell, t1.flowcell + 1, "retx skb still rotates");
    }

    #[test]
    fn single_label_rotates_flowcell_only() {
        // The Presto+ECMP variant (Fig 14): one real-MAC label, flowcell
        // counter still advances for per-hop hashing.
        let mut s = FlowcellScheduler::new();
        s.set_labels(HostId(9), vec![Mac::host(HostId(9))]);
        let f = flow(4);
        let t1 = s.assign(SimTime::ZERO, f, 64 * 1024, false);
        let t2 = s.assign(SimTime::ZERO, f, 64 * 1024, false);
        assert_eq!(t1.dst_mac, Mac::host(HostId(9)));
        assert_eq!(t2.dst_mac, Mac::host(HostId(9)));
        assert_eq!(t2.flowcell, t1.flowcell + 1);
    }
}
