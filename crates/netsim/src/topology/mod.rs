//! Topologies: a tiered graph model plus the builders that produce it.
//!
//! The paper's experiments run on a 2-tier Clos (Figures 3 and 4) and a
//! non-blocking single switch; §5.3 discusses larger, multi-tier
//! networks. This module therefore separates *structure* from
//! *construction*:
//!
//! * [`Topology`] is the structural graph model: hosts, switches arranged
//!   in tiers (tier 0 = leaves/ToRs, the highest tier = the network
//!   core), directional link adjacency, and per-pair parallel-link
//!   groups. Everything above this crate — the Presto controller, fault
//!   resolution, the testbed — works against this graph, not against any
//!   particular shape.
//! * [`TopologyBuilder`] assembles a `Topology` switch by switch and link
//!   by link, deriving the adjacency metadata in [`TopologyBuilder::finish`].
//! * The builders: [`ClosSpec`] (2-tier, [`Topology::clos`]),
//!   [`ThreeTierSpec`] (3-tier hosts → ToR → aggregation → core,
//!   [`Topology::three_tier`]) and the single-switch baseline
//!   ([`Topology::single_switch`]) all produce the same `Topology` type.
//!
//! The 2-tier names `leaves` and `spines` are kept as derived fields so
//! figure code keeps reading naturally; on a 3-tier fabric `spines` names
//! the aggregation tier. Links between two switches are read with
//! [`Topology::links_between`].

mod build;
mod single;
mod tables;
mod three_tier;
mod two_tier;

pub use build::TopologyBuilder;
pub use three_tier::ThreeTierSpec;
pub use two_tier::ClosSpec;

use std::collections::HashMap;

use presto_simcore::SimDuration;

use crate::fabric::Fabric;
use crate::ids::{HostId, LinkId, Mac, Node, SwitchId};
use crate::link::LinkConfig;
use tables::{DownClosure, PairLinks};

/// A built network plus the structural metadata controllers need.
///
/// Switches are arranged in [`Topology::tiers`]; hosts attach to tier-0
/// switches (except WAN extras added by [`Topology::attach_extra_host`]).
/// Links between switches live in directional per-pair parallel groups
/// ([`Topology::links_between`]); within a pair the group order is the
/// construction order, which the Presto controller uses as the γ
/// parallel-link index.
#[derive(Debug)]
pub struct Topology {
    /// The switches and links.
    pub fabric: Fabric,
    /// All host ids, 0..n.
    pub hosts: Vec<HostId>,
    /// Leaf switches (tier 0), in leaf order.
    pub leaves: Vec<SwitchId>,
    /// Tier-1 switches, in order: the spines of a 2-tier Clos, the
    /// aggregation switches of a 3-tier one. Empty for the single-switch
    /// layout.
    pub spines: Vec<SwitchId>,
    /// Each host's attachment switch (a leaf, except for WAN extras).
    pub host_leaf: Vec<SwitchId>,
    /// Host uplink (host → switch) per host.
    pub host_up: Vec<LinkId>,
    /// Host downlink (switch → host) per host.
    pub host_down: Vec<LinkId>,
    /// Switches per tier, bottom-up: `tiers[0]` are the leaves, the last
    /// entry is the top of the fabric.
    pub tiers: Vec<Vec<SwitchId>>,
    /// Directional parallel-link groups: `(a, b)` → every a→b link, in
    /// construction order. Covers all switch↔switch links of the graph.
    pair_links: PairLinks,
    /// Per switch (indexed by [`SwitchId::index`]): its next-tier-up
    /// neighbors, in connection order.
    pub up_adj: Vec<Vec<SwitchId>>,
    /// Per switch (indexed by [`SwitchId::index`]): its next-tier-down
    /// neighbors, in connection order.
    pub down_adj: Vec<Vec<SwitchId>>,
    /// Per switch (indexed by [`SwitchId::index`]): which tier it sits in.
    pub switch_tier: Vec<usize>,
    /// Per switch (indexed by [`SwitchId::index`]): its position within
    /// its tier.
    pub tier_pos: Vec<usize>,
    /// Switch `b` is strictly below switch `a` (reachable by only
    /// descending links).
    down_closure: DownClosure,
}

impl Topology {
    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of switch tiers (1 for the single-switch layout, 2 for a
    /// Clos, 3 for a three-tier fabric).
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The top tier of the fabric (the spines of a 2-tier Clos, the cores
    /// of a 3-tier one; the lone switch of the single-switch layout).
    pub fn top_tier(&self) -> &[SwitchId] {
        self.tiers.last().expect("at least one tier")
    }

    /// Which tier `sw` sits in.
    pub fn tier_of(&self, sw: SwitchId) -> usize {
        self.switch_tier[sw.index()]
    }

    /// True if `sw` is a leaf (tier-0) switch.
    pub fn is_leaf(&self, sw: SwitchId) -> bool {
        self.switch_tier[sw.index()] == 0
    }

    /// `sw`'s position within its tier (e.g. a leaf's index in
    /// [`Topology::leaves`]).
    pub fn position_in_tier(&self, sw: SwitchId) -> usize {
        self.tier_pos[sw.index()]
    }

    /// `sw`'s next-tier-up neighbors, in connection order.
    pub fn up_neighbors(&self, sw: SwitchId) -> &[SwitchId] {
        &self.up_adj[sw.index()]
    }

    /// `sw`'s next-tier-down neighbors, in connection order.
    pub fn down_neighbors(&self, sw: SwitchId) -> &[SwitchId] {
        &self.down_adj[sw.index()]
    }

    /// The parallel-link group from `a` to `b` (empty if not adjacent).
    pub fn links_between(&self, a: SwitchId, b: SwitchId) -> &[LinkId] {
        self.pair_links.get(a, b)
    }

    /// True if switch `desc` sits strictly below switch `anc` (reachable
    /// from `anc` by only descending links).
    pub fn switch_below(&self, anc: SwitchId, desc: SwitchId) -> bool {
        self.down_closure.get(anc, desc)
    }

    /// True if host `h` attaches at or below switch `sw`.
    pub fn host_below(&self, sw: SwitchId, h: HostId) -> bool {
        let attach = self.host_leaf[h.index()];
        attach == sw || self.switch_below(sw, attach)
    }

    /// The parallel-link group from non-leaf `sw` down toward the switch
    /// `attach` (a host's attachment point below `sw`): the group to the
    /// first down-neighbor, in connection order, at or above `attach`.
    ///
    /// # Panics
    /// Panics if `attach` is not below `sw`.
    pub fn down_group_toward(&self, sw: SwitchId, attach: SwitchId) -> &[LinkId] {
        let d = self.down_adj[sw.index()]
            .iter()
            .copied()
            .find(|&d| d == attach || self.switch_below(d, attach))
            .unwrap_or_else(|| panic!("{attach:?} is not below {sw:?}"));
        self.pair_links.get(sw, d)
    }

    /// The hosts `active` selects (`None` means every host), grouped by
    /// attachment switch: one `(switch, hosts)` entry per switch with at
    /// least one such host, in switch-id order, hosts in id order.
    /// Forwarding-state installs walk these groups, because every host
    /// behind one switch is routed alike everywhere else.
    pub fn hosts_by_attachment(&self, active: Option<&[bool]>) -> Vec<(SwitchId, Vec<HostId>)> {
        let mut by_switch = vec![Vec::new(); self.switch_tier.len()];
        for &h in &self.hosts {
            if active.is_none_or(|a| a.get(h.index()).copied().unwrap_or(false)) {
                by_switch[self.host_leaf[h.index()].index()].push(h);
            }
        }
        by_switch
            .into_iter()
            .enumerate()
            .filter(|(_, hosts)| !hosts.is_empty())
            .map(|(i, hosts)| (SwitchId(i as u32), hosts))
            .collect()
    }

    /// The ascending hop list from leaf `from` to an ancestor-direction
    /// switch `target`: `(switch, egress link)` pairs, one per hop, each
    /// using the first link of its parallel group. Used to install exact
    /// L2 routes toward hosts that hang off upper-tier switches (WAN
    /// remotes).
    ///
    /// # Panics
    /// Panics if `target` is unreachable by only ascending links.
    pub fn up_route(&self, from: SwitchId, target: SwitchId) -> Vec<(SwitchId, LinkId)> {
        let mut prev: HashMap<SwitchId, SwitchId> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if cur == target {
                let mut hops = Vec::new();
                let mut sw = target;
                while sw != from {
                    let below = prev[&sw];
                    hops.push((below, self.pair_links.get(below, sw)[0]));
                    sw = below;
                }
                hops.reverse();
                return hops;
            }
            for &u in self.up_neighbors(cur) {
                prev.entry(u).or_insert_with(|| {
                    queue.push_back(u);
                    cur
                });
            }
        }
        panic!("{target:?} is not reachable upward from {from:?}")
    }

    /// Number of link-disjoint end-to-end multipaths (spanning trees)
    /// available between hosts on different leaves, computed exactly over
    /// **all** (leaf, uplink) pairs: for each leaf uplink position, the
    /// worst-case disjoint capacity across every leaf, summed over
    /// positions. On the 2-tier Clos with uniform wiring this is ν·γ; on
    /// a 3-tier fabric it is `aggs_per_pod · min(γ, cores_per_group)`;
    /// non-uniform parallel-link counts are no longer miscounted from a
    /// single sampled pair.
    ///
    /// # Panics
    /// Panics if leaves disagree on their number of uplink positions —
    /// the tiered model assumes every leaf sees the same upper-tier
    /// fan-out, and a silent guess would miscount paths.
    pub fn path_count(&self) -> usize {
        if self.tiers.len() < 2 {
            return 1;
        }
        let n_pos = self.up_neighbors(self.leaves[0]).len();
        for &leaf in &self.leaves {
            assert_eq!(
                self.up_neighbors(leaf).len(),
                n_pos,
                "path_count requires a uniform uplink fan-out: leaf {leaf:?} has {} uplink \
                 positions, leaf {:?} has {n_pos}",
                self.up_neighbors(leaf).len(),
                self.leaves[0],
            );
        }
        (0..n_pos)
            .map(|p| {
                self.leaves
                    .iter()
                    .map(|&leaf| self.up_capacity(leaf, self.up_neighbors(leaf)[p]))
                    .min()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Disjoint-path capacity of the `lower` → `upper` adjacency: the
    /// bidirectional parallel-link count, further limited by the disjoint
    /// continuations above `upper` when it is not a top-tier switch.
    fn up_capacity(&self, lower: SwitchId, upper: SwitchId) -> usize {
        let up = self.links_between(lower, upper).len();
        let down = self.links_between(upper, lower).len();
        let mut cap = up.min(down);
        if self.tier_of(upper) + 1 < self.tiers.len() {
            let above: usize = self
                .up_neighbors(upper)
                .iter()
                .map(|&v| self.up_capacity(upper, v))
                .sum();
            cap = cap.min(above);
        }
        cap
    }

    /// True if both hosts hang off the same leaf (intra-rack traffic never
    /// enters the fabric core).
    pub fn same_leaf(&self, a: HostId, b: HostId) -> bool {
        self.host_leaf[a.index()] == self.host_leaf[b.index()]
    }

    /// Attach an extra host (e.g. a WAN "remote user", §6's north-south
    /// experiment) directly to `switch` with its own link rate — the
    /// paper throttles remote users to 100 Mbps. Installs the exact-match
    /// L2 entry for the host at its switch; reaching it from elsewhere is
    /// the caller's routing decision. Returns the new host id.
    pub fn attach_extra_host(
        &mut self,
        switch: SwitchId,
        link_rate_bps: u64,
        propagation: SimDuration,
        queue_bytes: u64,
    ) -> HostId {
        let host = HostId(self.hosts.len() as u32);
        let cfg = LinkConfig::new(link_rate_bps, propagation, queue_bytes);
        let up = self
            .fabric
            .add_link(Node::Host(host), Node::Switch(switch), cfg);
        let down = self
            .fabric
            .add_link(Node::Switch(switch), Node::Host(host), cfg);
        self.fabric.attach_host(host, up);
        self.fabric.install_l2(switch, Mac::host(host), down);
        self.hosts.push(host);
        self.host_leaf.push(switch);
        self.host_up.push(up);
        self.host_down.push(down);
        host
    }

    /// Install baseline connectivity for real host MACs:
    ///
    /// * every leaf: exact L2 entry for each local host → its downlink,
    ///   and an ECMP group over all uplinks for each remote host;
    /// * every upper-tier switch: an ECMP group over the parallel links
    ///   toward each host below it, or over all of its own uplinks for
    ///   hosts it cannot reach downward (cross-pod traffic climbing a
    ///   3-tier fabric);
    /// * the single-switch layout: exact L2 entries only.
    ///
    /// Shadow-MAC spanning trees are installed separately by the Presto
    /// controller (`presto-core`).
    pub fn install_basic_routing(&mut self) {
        self.install_basic_routing_for(None);
    }

    /// [`Topology::install_basic_routing`] restricted to an active-host
    /// subset: entries are installed only for hosts whose
    /// `active[h.index()]` is true (`None` means every host). State for
    /// an active host is identical to the unrestricted install, so a
    /// workload touching only active hosts behaves byte-identically —
    /// but an 8192-host fabric with a sparse workload no longer pays for
    /// tens of millions of ECMP groups it will never look up.
    ///
    /// The install is switch-major: each switch's uplink group is built
    /// once, and its down-group once per attachment switch below it. The
    /// active hosts get their host slots first, so every switch's per-host
    /// tables are sized once, to exactly those hosts.
    pub fn install_basic_routing_for(&mut self, active: Option<&[bool]>) {
        let groups = self.hosts_by_attachment(active);
        self.fabric
            .assign_host_slots(groups.iter().flat_map(|(_, hosts)| hosts.iter().copied()));
        let mut downs = Vec::new();
        for i in 0..self.switch_tier.len() {
            let sw = SwitchId(i as u32);
            let ups: Vec<LinkId> = self.up_adj[i]
                .iter()
                .flat_map(|&u| self.pair_links.get(sw, u).iter().copied())
                .collect();
            for (attach, hosts) in &groups {
                if *attach == sw {
                    // Local hosts: exact match to the downlink.
                    for &h in hosts {
                        let down = self.host_down[h.index()];
                        self.fabric.install_l2(sw, Mac::host(h), down);
                    }
                    continue;
                }
                let group = if self.switch_below(sw, *attach) {
                    // Hosts below: ECMP over every link toward them.
                    downs.clear();
                    for &d in &self.down_adj[i] {
                        if d == *attach || self.switch_below(d, *attach) {
                            downs.extend_from_slice(self.pair_links.get(sw, d));
                        }
                    }
                    &downs
                } else {
                    // Everyone else (remote leaves, other pods): ECMP over
                    // every uplink.
                    &ups
                };
                for &h in hosts {
                    self.fabric.install_ecmp(sw, h, group);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Node;

    #[test]
    fn graph_metadata_matches_two_tier_views() {
        let t = Topology::clos(&ClosSpec::default());
        assert_eq!(t.tier_count(), 2);
        assert_eq!(t.tiers[0], t.leaves);
        assert_eq!(t.tiers[1], t.spines);
        assert_eq!(t.top_tier(), &t.spines[..]);
        for &leaf in &t.leaves {
            assert!(t.is_leaf(leaf));
            assert_eq!(t.up_neighbors(leaf), &t.spines[..]);
            for &spine in &t.spines {
                // One cable per pair (γ = 1), one link each way.
                let up = t.links_between(leaf, spine);
                let down = t.links_between(spine, leaf);
                assert_eq!((up.len(), down.len()), (1, 1));
                assert_eq!(t.fabric.link(up[0]).src, Node::Switch(leaf));
                assert_eq!(t.fabric.link(up[0]).dst, Node::Switch(spine));
                assert_eq!(t.fabric.link(down[0]).src, Node::Switch(spine));
                assert_eq!(t.fabric.link(down[0]).dst, Node::Switch(leaf));
            }
        }
        for &spine in &t.spines {
            assert_eq!(t.tier_of(spine), 1);
            assert_eq!(t.down_neighbors(spine), &t.leaves[..]);
            for &leaf in &t.leaves {
                assert!(t.switch_below(spine, leaf));
                assert!(!t.switch_below(leaf, spine));
            }
        }
        assert!(t.host_below(t.spines[2], HostId(0)));
        assert!(t.host_below(t.leaves[0], HostId(0)));
        assert!(!t.host_below(t.leaves[1], HostId(0)));
    }

    #[test]
    fn down_group_toward_finds_the_group_above_attach() {
        let spec = ClosSpec {
            links_per_pair: 3,
            ..ClosSpec::default()
        };
        let t = Topology::clos(&spec);
        let (spine, leaf) = (t.spines[1], t.leaves[2]);
        assert_eq!(t.down_group_toward(spine, leaf).len(), 3);
        assert_eq!(
            t.down_group_toward(spine, leaf),
            t.links_between(spine, leaf)
        );
        // On 3 tiers a core reaches a ToR through that ToR's pod's agg.
        let t = Topology::three_tier(&ThreeTierSpec::default());
        let (core, tor) = (t.tiers[2][0], t.tiers[0][2]);
        let agg = t.tiers[1][2];
        assert!(t.switch_below(agg, tor));
        assert_eq!(t.down_group_toward(core, tor), t.links_between(core, agg));
    }

    #[test]
    fn up_route_is_single_hop_on_two_tier() {
        let t = Topology::clos(&ClosSpec::default());
        let hops = t.up_route(t.leaves[2], t.spines[3]);
        assert_eq!(
            hops,
            vec![(t.leaves[2], t.links_between(t.leaves[2], t.spines[3])[0])]
        );
    }

    #[test]
    fn hosts_group_by_attachment_switch() {
        let t = Topology::clos(&ClosSpec::default());
        let all = t.hosts_by_attachment(None);
        assert_eq!(all.len(), 4);
        for (i, (leaf, hosts)) in all.iter().enumerate() {
            assert_eq!(*leaf, t.leaves[i]);
            let expect: Vec<HostId> = (4 * i as u32..4 * i as u32 + 4).map(HostId).collect();
            assert_eq!(hosts, &expect);
        }
        // Scoped: leaf 1 has no active host and drops out; a short mask
        // leaves the hosts past its end inactive.
        let mut active = vec![false; 13];
        active[2] = true;
        active[9] = true;
        active[12] = true;
        assert_eq!(
            t.hosts_by_attachment(Some(&active)),
            vec![
                (t.leaves[0], vec![HostId(2)]),
                (t.leaves[2], vec![HostId(9)]),
                (t.leaves[3], vec![HostId(12)]),
            ]
        );
    }

    #[test]
    fn path_count_is_exact_over_all_pairs() {
        // Uniform shapes keep the ν·γ counts.
        assert_eq!(Topology::clos(&ClosSpec::default()).path_count(), 4);
        let spec = ClosSpec {
            spines: 2,
            links_per_pair: 3,
            ..ClosSpec::default()
        };
        assert_eq!(Topology::clos(&spec).path_count(), 6);

        // Non-uniform γ: leaf 0 reaches spine 0 over 2 cables but leaf 1
        // only over 1, so spine 0 supports a single disjoint tree. The old
        // first-pair sample would have reported 2 + 1; the exact count is
        // 1 + 1.
        let mut b = TopologyBuilder::new();
        let l0 = b.add_switch(0);
        let l1 = b.add_switch(0);
        let s0 = b.add_switch(1);
        let s1 = b.add_switch(1);
        let rate = 10_000_000_000;
        let prop = SimDuration::from_micros(1);
        for (i, &leaf) in [l0, l1].iter().enumerate() {
            b.attach_host(leaf, rate, prop, 1 << 20);
            b.connect(leaf, s0, 2 - i, rate, prop, 1 << 20);
            b.connect(leaf, s1, 1, rate, prop, 1 << 20);
        }
        let t = b.finish();
        assert_eq!(t.path_count(), 2);
    }

    #[test]
    #[should_panic(expected = "uniform uplink fan-out")]
    fn path_count_rejects_ragged_fanout() {
        let mut b = TopologyBuilder::new();
        let l0 = b.add_switch(0);
        let l1 = b.add_switch(0);
        let s0 = b.add_switch(1);
        let s1 = b.add_switch(1);
        let rate = 10_000_000_000;
        let prop = SimDuration::from_micros(1);
        b.attach_host(l0, rate, prop, 1 << 20);
        b.attach_host(l1, rate, prop, 1 << 20);
        b.connect(l0, s0, 1, rate, prop, 1 << 20);
        b.connect(l0, s1, 1, rate, prop, 1 << 20);
        b.connect(l1, s0, 1, rate, prop, 1 << 20);
        let _ = b.finish().path_count();
    }

    #[test]
    fn attach_extra_host_updates_metadata() {
        let mut t = Topology::clos(&ClosSpec::default());
        let wan = t.attach_extra_host(
            t.spines[1],
            100_000_000,
            SimDuration::from_micros(1),
            1 << 20,
        );
        assert_eq!(wan, HostId(16));
        assert_eq!(t.host_leaf[wan.index()], t.spines[1]);
        assert!(!t.is_leaf(t.host_leaf[wan.index()]));
        assert_eq!(
            t.fabric.link(t.host_up[wan.index()]).dst,
            Node::Switch(t.spines[1])
        );
    }
}
