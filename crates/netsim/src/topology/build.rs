//! Incremental assembly of a [`Topology`] graph.

use presto_simcore::SimDuration;

use crate::buffer::SharedBuffer;
use crate::fabric::Fabric;
use crate::ids::{HostId, LinkId, Node, SwitchId};
use crate::link::LinkConfig;

use super::tables::{DownClosure, PairLinks};
use super::Topology;

/// Builds a [`Topology`] switch by switch and link by link.
///
/// The builder records tier membership as switches are added and
/// adjacency as pairs are connected; [`TopologyBuilder::finish`] derives
/// the remaining structural metadata (tier positions and the downward
/// closure). Construction order is
/// significant and preserved: link ids are allocated in call order, and
/// the order of [`TopologyBuilder::connect`] calls fixes both the
/// parallel-link index within a pair and the neighbor order the
/// controller's tree allocation walks.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    fabric: Fabric,
    tiers: Vec<Vec<SwitchId>>,
    switch_tier: Vec<usize>,
    hosts: Vec<HostId>,
    host_leaf: Vec<SwitchId>,
    host_up: Vec<LinkId>,
    host_down: Vec<LinkId>,
    /// Every switch-to-switch link as `(src, dst, link)`, in construction
    /// order.
    pair_links: Vec<(SwitchId, SwitchId, LinkId)>,
    up_adj: Vec<Vec<SwitchId>>,
    down_adj: Vec<Vec<SwitchId>>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a switch to `tier` (0 = leaf). Tiers must be introduced in
    /// order — adding to tier `t` requires tiers `0..t` to exist.
    pub fn add_switch(&mut self, tier: usize) -> SwitchId {
        assert!(tier <= self.tiers.len(), "introduce tiers bottom-up");
        if tier == self.tiers.len() {
            self.tiers.push(Vec::new());
        }
        let sw = self.fabric.add_switch();
        self.tiers[tier].push(sw);
        self.switch_tier.push(tier);
        self.up_adj.push(Vec::new());
        self.down_adj.push(Vec::new());
        sw
    }

    /// Make room for exactly `additional` more links (each direction of
    /// a cable counts once). A builder that knows its link count up front
    /// leaves no doubled table behind.
    pub(crate) fn reserve_links(&mut self, additional: usize) {
        self.fabric.reserve_links(additional);
    }

    /// Attach the next host to leaf switch `leaf`: adds the up and down
    /// links (in that order) and registers the host with the fabric.
    /// Hosts receive sequential ids in call order.
    pub fn attach_host(
        &mut self,
        leaf: SwitchId,
        link_rate_bps: u64,
        propagation: SimDuration,
        queue_bytes: u64,
    ) -> HostId {
        assert_eq!(self.switch_tier[leaf.index()], 0, "hosts attach at tier 0");
        let host = HostId(self.hosts.len() as u32);
        let cfg = LinkConfig::new(link_rate_bps, propagation, queue_bytes);
        let up = self
            .fabric
            .add_link(Node::Host(host), Node::Switch(leaf), cfg);
        let down = self
            .fabric
            .add_link(Node::Switch(leaf), Node::Host(host), cfg);
        self.fabric.attach_host(host, up);
        self.hosts.push(host);
        self.host_leaf.push(leaf);
        self.host_up.push(up);
        self.host_down.push(down);
        host
    }

    /// Connect `lower` (tier t) and `upper` (tier t+1) with `n` parallel
    /// bidirectional link pairs, allocated alternating up/down so both
    /// directions interleave in link-id order. May be called repeatedly
    /// for the same pair; each call appends to the parallel group.
    pub fn connect(
        &mut self,
        lower: SwitchId,
        upper: SwitchId,
        n: usize,
        link_rate_bps: u64,
        propagation: SimDuration,
        queue_bytes: u64,
    ) {
        assert!(n >= 1, "a connection needs at least one link pair");
        assert_eq!(
            self.switch_tier[lower.index()] + 1,
            self.switch_tier[upper.index()],
            "connect joins adjacent tiers bottom-up"
        );
        if !self.up_adj[lower.index()].contains(&upper) {
            self.up_adj[lower.index()].push(upper);
            self.down_adj[upper.index()].push(lower);
        }
        let cfg = LinkConfig::new(link_rate_bps, propagation, queue_bytes);
        for _ in 0..n {
            let up = self
                .fabric
                .add_link(Node::Switch(lower), Node::Switch(upper), cfg);
            let down = self
                .fabric
                .add_link(Node::Switch(upper), Node::Switch(lower), cfg);
            self.pair_links.push((lower, upper, up));
            self.pair_links.push((upper, lower, down));
        }
    }

    /// Install a shared-memory buffer pool on `sw` (see
    /// [`SharedBuffer`]).
    pub fn set_shared_buffer(&mut self, sw: SwitchId, pool_bytes: u64, dt_alpha: f64) {
        self.fabric
            .set_shared_buffer(sw, SharedBuffer::new(pool_bytes, dt_alpha));
    }

    /// Derive the structural metadata and hand back the finished
    /// [`Topology`].
    pub fn finish(self) -> Topology {
        assert!(
            !self.tiers.is_empty() && !self.tiers[0].is_empty(),
            "a topology needs at least one leaf switch"
        );
        let n_sw = self.switch_tier.len();
        let mut tier_pos = vec![0usize; n_sw];
        for tier in &self.tiers {
            for (pos, &sw) in tier.iter().enumerate() {
                tier_pos[sw.index()] = pos;
            }
        }
        // Downward closure, computed bottom-up so lower tiers are final
        // before their parents union them in.
        let mut down_closure = DownClosure::new(n_sw);
        for tier in 1..self.tiers.len() {
            for &sw in &self.tiers[tier] {
                for &d in &self.down_adj[sw.index()] {
                    down_closure.add_subtree(sw, d);
                }
            }
        }
        let leaves = self.tiers[0].clone();
        let spines = self.tiers.get(1).cloned().unwrap_or_default();
        Topology {
            fabric: self.fabric,
            hosts: self.hosts,
            leaves,
            spines,
            host_leaf: self.host_leaf,
            host_up: self.host_up,
            host_down: self.host_down,
            tiers: self.tiers,
            pair_links: PairLinks::new(n_sw, self.pair_links),
            up_adj: self.up_adj,
            down_adj: self.down_adj,
            switch_tier: self.switch_tier,
            tier_pos,
            down_closure,
        }
    }
}
