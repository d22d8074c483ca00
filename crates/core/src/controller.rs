//! The centralized Presto controller.
//!
//! Responsibilities (§3.1, §3.3, generalized to tiered fabrics per §5.3):
//!
//! 1. **Spanning tree allocation.** The controller allocates link-disjoint
//!    spanning trees over the topology graph. Trees are enumerated
//!    uplink-position-major: tree (p, k) climbs from every leaf through
//!    its p-th upper-tier neighbor using the k-th parallel link, and keeps
//!    selecting the k-th continuation at higher tiers. On the paper's
//!    2-tier Clos with ν spines and γ parallel links this reproduces the
//!    classic ν·γ trees — tree (s, j) uses the j-th link between every
//!    leaf and spine s. On a 3-tier Clos it yields
//!    `aggs_per_pod · min(γ, cores_per_group)` trees.
//! 2. **Shadow MAC assignment.** One label per (destination host, tree);
//!    exact-match L2 entries route the label up at the source leaf, along
//!    the tree at every transit switch, and to the host port at the
//!    destination leaf.
//! 3. **Fast failover.** Every non-top switch with more than one uplink
//!    neighbor gets OpenFlow-style failover groups: if the uplink toward
//!    neighbor p is dead, traffic shifts to the uplink toward neighbor
//!    p+1 (transit switches carry L2 entries for *all* trees so
//!    redirected labels still route).
//! 4. **Failure response.** When told of a link failure, the controller
//!    recomputes, per (source host, destination host), the multiset of
//!    usable labels — pruning trees whose path crosses a dead link — and
//!    hands the new weighted sequences to the edge vSwitches.

use std::collections::HashMap;

use presto_netsim::{HostId, LinkId, Mac, SwitchId, Topology};

/// Quantization scale for tree weights: a healthy tree weighs
/// `WEIGHT_SCALE`, a link degraded to fraction f weighs
/// `round(f · WEIGHT_SCALE)` (min 1 while the link is up). Coarse on
/// purpose — weights become duplicated labels in the vSwitch sequence,
/// so the sequence length is bounded by `WEIGHT_SCALE` times the tree
/// count.
pub const WEIGHT_SCALE: u32 = 4;

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One ascending hop of a spanning tree's per-leaf chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeHop {
    /// The next-tier-up switch this hop climbs to.
    pub up: SwitchId,
    /// Parallel-link index within the pair's link group (clamped to the
    /// group size when the group is narrower than the tree's index).
    pub link: usize,
}

/// A spanning tree's route through the fabric: an explicit ascending hop
/// chain per leaf, all meeting at a common root region.
///
/// This replaces the 2-tier `TreeSpec { spine, link }`: on a 2-tier Clos
/// every chain is the single hop to spine [`TreePath::position`] over
/// parallel link [`TreePath::link`]; on deeper fabrics chains carry one
/// hop per tier. The path between two leaves is recovered by walking
/// both chains to their lowest common switch ([`Controller::tree_path`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePath {
    /// The leaf uplink-neighbor position this tree climbs through (the
    /// spine index on a 2-tier Clos, the aggregation position on 3-tier).
    pub position: usize,
    /// The parallel-link / continuation index (γ index at the first hop).
    pub link: usize,
    /// Ascending hop chain per leaf, indexed by the leaf's position in
    /// `Topology::leaves`.
    pub chains: Vec<Vec<TreeHop>>,
}

impl TreePath {
    /// The tree's root switch (the top-tier switch its chains meet at).
    pub fn root(&self) -> SwitchId {
        self.chains[0].last().expect("non-empty chain").up
    }
}

/// The controller's view of the installed state.
#[derive(Debug)]
pub struct Controller {
    /// Tree id → route.
    pub trees: Vec<TreePath>,
}

impl Controller {
    /// Compute spanning trees for `topo` and install all forwarding state:
    /// basic real-MAC routing, shadow-MAC entries for every tree, and
    /// fast-failover groups at every tier below the top.
    ///
    /// # Panics
    /// Panics on a single-switch topology — there is nothing to
    /// load-balance and Presto should not be deployed there.
    pub fn install(topo: &mut Topology) -> Controller {
        Self::install_for(topo, None)
    }

    /// [`Controller::install`] restricted to an active-host subset:
    /// shadow-MAC entries (and the underlying basic routing) are
    /// installed only for destinations whose `active[h.index()]` is true
    /// (`None` means every host). Tree allocation and failover groups are
    /// host-independent and always complete. Installed state for an
    /// active host is identical to the unrestricted install, so a
    /// workload touching only active hosts behaves byte-identically —
    /// the point is that a k=32 fat-tree (8192 hosts) with a sparse
    /// workload skips the ~10⁸ L2 entries it would never look up.
    pub fn install_for(topo: &mut Topology, active: Option<&[bool]>) -> Controller {
        assert!(
            topo.tier_count() >= 2,
            "Presto controller requires a multi-path topology"
        );
        topo.install_basic_routing_for(active);
        let trees = Self::allocate_trees(topo);
        Self::install_shadow_labels(topo, &trees, active);
        Self::install_failover_groups(topo);
        Controller { trees }
    }

    /// One L2 entry per (active destination host, tree) at every switch,
    /// switch by switch. A switch routes a label to the host port when
    /// the host hangs off it, down the tree's parallel index when the
    /// host sits below it, and otherwise up: along the tree's chain at a
    /// leaf, toward the tree's k-th continuation at a transit switch.
    /// Transit switches carry entries for EVERY tree's labels (not just
    /// the trees that transit them), so fast-failover redirected traffic
    /// still routes. The paper notes Trident II-class chips have 288k L2
    /// entries — hosts × trees fits easily.
    ///
    /// Every host behind one attachment switch gets the same egress per
    /// tree, so each switch computes its per-tree uplinks once and its
    /// per-tree downlinks once per attachment switch, then writes them as
    /// one label row per host of the group (the switch stores equal rows
    /// once).
    fn install_shadow_labels(topo: &mut Topology, trees: &[TreePath], active: Option<&[bool]>) {
        let groups = topo.hosts_by_attachment(active);
        let mut ups = Vec::with_capacity(trees.len());
        let mut downs = Vec::with_capacity(trees.len());
        let mut ports = Vec::with_capacity(trees.len());
        for tier in 0..topo.tier_count() {
            for pos in 0..topo.tiers[tier].len() {
                let sw = topo.tiers[tier][pos];
                // Per tree, the egress of labels this switch sends up
                // (none at the top tier).
                ups.clear();
                let above = topo.up_neighbors(sw);
                if tier == 0 {
                    ups.extend(trees.iter().map(|tree| {
                        let hop = tree.chains[pos][0];
                        let grp = topo.links_between(sw, hop.up);
                        grp[hop.link.min(grp.len() - 1)]
                    }));
                } else if !above.is_empty() {
                    ups.extend(trees.iter().map(|tree| {
                        let u = above[tree.link.min(above.len() - 1)];
                        let grp = topo.links_between(sw, u);
                        grp[tree.link.min(grp.len() - 1)]
                    }));
                }
                for (attach, hosts) in &groups {
                    let attach = *attach;
                    if attach == sw {
                        for &h in hosts {
                            ports.clear();
                            ports.resize(trees.len(), topo.host_down[h.index()]);
                            topo.fabric.install_label_row(sw, h, &ports);
                        }
                        continue;
                    }
                    let egress: &[LinkId] = if topo.switch_below(sw, attach) {
                        let grp = topo.down_group_toward(sw, attach);
                        downs.clear();
                        downs.extend(trees.iter().map(|tree| grp[tree.link.min(grp.len() - 1)]));
                        &downs
                    } else {
                        assert!(!ups.is_empty(), "{attach:?} is unreachable from {sw:?}");
                        &ups
                    };
                    for &h in hosts {
                        topo.fabric.install_label_row(sw, h, egress);
                    }
                }
            }
        }
    }

    /// Fast-failover groups at every non-top tier: the uplink toward
    /// neighbor p backs up onto the uplink toward neighbor (p+1) % n
    /// (same parallel index, clamped).
    fn install_failover_groups(topo: &mut Topology) {
        let mut groups = Vec::new();
        for tier in 0..topo.tier_count() - 1 {
            for &sw in &topo.tiers[tier] {
                let ups = topo.up_neighbors(sw);
                if ups.len() <= 1 {
                    continue;
                }
                for (p, &u) in ups.iter().enumerate() {
                    let next = ups[(p + 1) % ups.len()];
                    let primaries = topo.links_between(sw, u);
                    let backups = topo.links_between(sw, next);
                    for (j, &primary) in primaries.iter().enumerate() {
                        groups.push((primary, backups[j.min(backups.len() - 1)]));
                    }
                }
            }
        }
        for (primary, backup) in groups {
            topo.fabric.install_failover(primary, backup);
        }
    }

    /// Enumerate the disjoint spanning trees of `topo`: uplink-position
    /// major, continuation index minor, with the per-position fan-out
    /// limited by the narrowest leaf.
    fn allocate_trees(topo: &Topology) -> Vec<TreePath> {
        let n_pos = topo.up_neighbors(topo.leaves[0]).len();
        for &leaf in &topo.leaves {
            assert_eq!(
                topo.up_neighbors(leaf).len(),
                n_pos,
                "tree allocation requires a uniform uplink fan-out across leaves"
            );
        }
        let mut trees = Vec::new();
        for p in 0..n_pos {
            let fanout = topo
                .leaves
                .iter()
                .map(|&leaf| Self::position_fanout(topo, leaf, p))
                .min()
                .unwrap_or(0);
            for k in 0..fanout {
                let chains = topo
                    .leaves
                    .iter()
                    .map(|&leaf| Self::build_chain(topo, leaf, p, k))
                    .collect();
                trees.push(TreePath {
                    position: p,
                    link: k,
                    chains,
                });
            }
        }
        trees
    }

    /// How many disjoint trees can climb through `leaf`'s p-th uplink
    /// neighbor: the parallel-link count of that pair, further limited at
    /// each higher tier by the distinct (continuation switch, link)
    /// choices the k-th-continuation rule can reach.
    fn position_fanout(topo: &Topology, leaf: SwitchId, p: usize) -> usize {
        let first = topo.up_neighbors(leaf)[p];
        let mut cap = topo.links_between(leaf, first).len();
        let mut cur = first;
        while topo.tier_of(cur) + 1 < topo.tier_count() {
            let ups = topo.up_neighbors(cur);
            let gamma = ups
                .iter()
                .map(|&u| topo.links_between(cur, u).len())
                .min()
                .unwrap_or(0);
            cap = cap.min(ups.len().max(gamma));
            cur = ups[0];
        }
        cap
    }

    /// The ascending chain of tree (p, k) from `leaf`: first hop through
    /// uplink-neighbor position p over parallel link k, then the k-th
    /// continuation (neighbor and link clamped to what exists) until the
    /// top tier.
    fn build_chain(topo: &Topology, leaf: SwitchId, p: usize, k: usize) -> Vec<TreeHop> {
        let mut chain = Vec::new();
        let mut cur = leaf;
        let mut pos = p;
        loop {
            let ups = topo.up_neighbors(cur);
            let up = ups[pos.min(ups.len() - 1)];
            let grp_len = topo.links_between(cur, up).len();
            chain.push(TreeHop {
                up,
                link: k.min(grp_len - 1),
            });
            if topo.tier_of(up) + 1 == topo.tier_count() {
                return chain;
            }
            cur = up;
            pos = k;
        }
    }

    /// Number of allocated spanning trees (ν·γ on the 2-tier Clos).
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// The full, equal-weight label sequence toward `dst` (what every
    /// vSwitch starts with).
    pub fn labels_for(&self, dst: HostId) -> Vec<Mac> {
        (0..self.trees.len() as u32)
            .map(|t| Mac::shadow(dst, t))
            .collect()
    }

    /// The fabric links tree `t` uses between `src_leaf` and `dst_leaf`:
    /// the ascending hops of the source chain up to the lowest switch the
    /// two chains share, then the mirrored descending hops of the
    /// destination chain.
    pub fn tree_path(
        &self,
        topo: &Topology,
        t: usize,
        src_leaf: SwitchId,
        dst_leaf: SwitchId,
    ) -> Vec<LinkId> {
        let tree = &self.trees[t];
        let src_chain = &tree.chains[topo.position_in_tier(src_leaf)];
        let dst_chain = &tree.chains[topo.position_in_tier(dst_leaf)];
        let meet = src_chain
            .iter()
            .zip(dst_chain.iter())
            .position(|(s, d)| s.up == d.up)
            .expect("chains of one tree meet at its root");
        let mut links = Vec::new();
        let mut cur = src_leaf;
        for hop in &src_chain[..=meet] {
            let grp = topo.links_between(cur, hop.up);
            links.push(grp[hop.link.min(grp.len() - 1)]);
            cur = hop.up;
        }
        for j in (0..=meet).rev() {
            let below = if j == 0 {
                dst_leaf
            } else {
                dst_chain[j - 1].up
            };
            let grp = topo.links_between(dst_chain[j].up, below);
            links.push(grp[dst_chain[j].link.min(grp.len() - 1)]);
        }
        links
    }

    /// The first ascending link of tree `t` out of `leaf` — the hop every
    /// path of that tree from `leaf` shares, whatever the destination.
    /// This is the link edge feedback samples: its queue and rate tell a
    /// host at `leaf` how tree `t` is doing where it matters most (§3.1's
    /// edge-based view; congestion deeper in is visible through drops).
    /// `None` when `leaf` is not a leaf-tier switch.
    pub fn tree_uplink(&self, topo: &Topology, t: usize, leaf: SwitchId) -> Option<LinkId> {
        if !topo.is_leaf(leaf) {
            return None;
        }
        let tree = self.trees.get(t)?;
        let hop = tree.chains[topo.position_in_tier(leaf)].first()?;
        let grp = topo.links_between(leaf, hop.up);
        Some(grp[hop.link.min(grp.len() - 1)])
    }

    /// Recompute the usable label sequence from `src` to `dst`, pruning
    /// trees whose path crosses a down link. Called after the controller
    /// *learns* of a failure (the paper's "weighted" stage — the learning
    /// delay itself is modeled by the testbed).
    ///
    /// Falls back to the full sequence if every tree is dead (the fabric
    /// is partitioned; fast failover is the only hope).
    pub fn usable_labels(&self, topo: &Topology, src: HostId, dst: HostId) -> Vec<Mac> {
        let src_leaf = topo.host_leaf[src.index()];
        let dst_leaf = topo.host_leaf[dst.index()];
        if src_leaf == dst_leaf {
            return self.labels_for(dst);
        }
        let mut out = Vec::new();
        for t in 0..self.trees.len() {
            let path = self.tree_path(topo, t, src_leaf, dst_leaf);
            if path.iter().all(|&l| topo.fabric.link(l).up) {
                out.push(Mac::shadow(dst, t as u32));
            }
        }
        if out.is_empty() {
            self.labels_for(dst)
        } else {
            out
        }
    }

    /// Integer weight of tree `t` for traffic `src_leaf` → `dst_leaf`,
    /// in `0..=WEIGHT_SCALE`: 0 when any path link is down, otherwise
    /// the path's worst rate fraction quantized to `WEIGHT_SCALE` steps
    /// (a healthy tree scores `WEIGHT_SCALE`; a degraded-but-alive tree
    /// never rounds below 1, so it keeps draining at a trickle).
    pub fn tree_weight(
        &self,
        topo: &Topology,
        t: usize,
        src_leaf: SwitchId,
        dst_leaf: SwitchId,
    ) -> u32 {
        let mut frac = 1.0f64;
        for &l in &self.tree_path(topo, t, src_leaf, dst_leaf) {
            let link = topo.fabric.link(l);
            if !link.up {
                return 0;
            }
            frac = frac.min(link.config().rate_fraction());
        }
        ((frac * WEIGHT_SCALE as f64).round() as u32).clamp(1, WEIGHT_SCALE)
    }

    /// The weighted label multiset from `src` to `dst` (§3.1: weights are
    /// expressed by duplicating labels, e.g. `p1 p2 p3 p2`).
    ///
    /// Generalizes [`Controller::usable_labels`]: a tree crossing a down
    /// link is pruned (weight 0) exactly as before, and a tree crossing a
    /// *degraded* link is kept at reduced weight. Weights are normalized
    /// by their gcd so the all-healthy case collapses to the plain
    /// one-label-per-tree sequence, and trees are interleaved round-robin
    /// (not blocked per tree) so consecutive flowcells still spread.
    ///
    /// Falls back to the full equal-weight sequence when every tree is
    /// dead, mirroring `usable_labels`.
    pub fn weighted_labels(&self, topo: &Topology, src: HostId, dst: HostId) -> Vec<Mac> {
        let src_leaf = topo.host_leaf[src.index()];
        let dst_leaf = topo.host_leaf[dst.index()];
        if src_leaf == dst_leaf {
            return self.labels_for(dst);
        }
        let mut weights: Vec<u32> = (0..self.trees.len())
            .map(|t| self.tree_weight(topo, t, src_leaf, dst_leaf))
            .collect();
        let g = weights.iter().fold(0u32, |acc, &w| gcd(acc, w));
        if g == 0 {
            return self.labels_for(dst);
        }
        for w in &mut weights {
            *w /= g;
        }
        let max_w = *weights.iter().max().unwrap();
        let mut out = Vec::new();
        for round in 0..max_w {
            for (t, &w) in weights.iter().enumerate() {
                if round < w {
                    out.push(Mac::shadow(dst, t as u32));
                }
            }
        }
        out
    }

    /// Verify tree disjointness: no fabric link (ascending or its
    /// descending mirror) is claimed by two different trees. Returns true
    /// when the allocation is disjoint (always, by construction on the
    /// shipped builders; exposed for tests and sanity checks).
    pub fn trees_are_disjoint(&self, topo: &Topology) -> bool {
        let mut used: HashMap<LinkId, usize> = HashMap::new();
        for (t, tree) in self.trees.iter().enumerate() {
            for (li, chain) in tree.chains.iter().enumerate() {
                let mut cur = topo.leaves[li];
                for hop in chain {
                    let up_grp = topo.links_between(cur, hop.up);
                    let down_grp = topo.links_between(hop.up, cur);
                    let pair = [
                        up_grp[hop.link.min(up_grp.len() - 1)],
                        down_grp[hop.link.min(down_grp.len() - 1)],
                    ];
                    for &l in &pair {
                        if let Some(&other) = used.get(&l) {
                            if other != t {
                                return false;
                            }
                        }
                        used.insert(l, t);
                    }
                    cur = hop.up;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_netsim::{ClosSpec, ThreeTierSpec};

    fn testbed() -> (Topology, Controller) {
        let mut topo = Topology::clos(&ClosSpec::default());
        let ctl = Controller::install(&mut topo);
        (topo, ctl)
    }

    fn three_tier() -> (Topology, Controller) {
        let mut topo = Topology::three_tier(&ThreeTierSpec::default());
        let ctl = Controller::install(&mut topo);
        (topo, ctl)
    }

    #[test]
    fn allocates_nu_gamma_trees() {
        let (_, ctl) = testbed();
        assert_eq!(ctl.tree_count(), 4);

        let spec = ClosSpec {
            spines: 2,
            links_per_pair: 3,
            ..ClosSpec::default()
        };
        let mut topo = Topology::clos(&spec);
        let ctl = Controller::install(&mut topo);
        assert_eq!(ctl.tree_count(), 6);
    }

    #[test]
    fn two_tier_trees_reduce_to_spine_link_pairs() {
        // The path representation must reproduce the old TreeSpec
        // enumeration: spine-major, γ-minor, single-hop chains.
        let spec = ClosSpec {
            spines: 2,
            links_per_pair: 2,
            ..ClosSpec::default()
        };
        let mut topo = Topology::clos(&spec);
        let ctl = Controller::install(&mut topo);
        let expect: Vec<(usize, usize)> = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let got: Vec<(usize, usize)> = ctl.trees.iter().map(|t| (t.position, t.link)).collect();
        assert_eq!(got, expect);
        for tree in &ctl.trees {
            assert_eq!(tree.chains.len(), topo.leaves.len());
            for chain in &tree.chains {
                assert_eq!(chain.len(), 1, "2-tier chains are single-hop");
                assert_eq!(chain[0].up, topo.spines[tree.position]);
                assert_eq!(chain[0].link, tree.link);
            }
            assert_eq!(tree.root(), topo.spines[tree.position]);
        }
    }

    #[test]
    fn trees_are_disjoint_by_construction() {
        let (topo, ctl) = testbed();
        assert!(ctl.trees_are_disjoint(&topo));
        let spec = ClosSpec {
            spines: 3,
            links_per_pair: 2,
            ..ClosSpec::default()
        };
        let mut topo = Topology::clos(&spec);
        let ctl = Controller::install(&mut topo);
        assert!(ctl.trees_are_disjoint(&topo));
    }

    #[test]
    fn shadow_labels_route_end_to_end() {
        let (topo, ctl) = testbed();
        // Host 0 (leaf 0) to host 12 (leaf 3) on every tree: walk the L2
        // tables hop by hop.
        let dst = HostId(12);
        for t in 0..ctl.tree_count() as u32 {
            let mac = Mac::shadow(dst, t);
            let leaf0 = topo.leaves[0];
            let up = topo
                .fabric
                .switch(leaf0)
                .l2_lookup(mac)
                .expect("leaf entry");
            // The uplink must terminate at the tree's spine.
            let spine = ctl.trees[t as usize].root();
            assert_eq!(
                topo.fabric.link(up).dst,
                presto_netsim::ids::Node::Switch(spine)
            );
            let down = topo
                .fabric
                .switch(spine)
                .l2_lookup(mac)
                .expect("spine entry");
            let dst_leaf = topo.host_leaf[dst.index()];
            assert_eq!(
                topo.fabric.link(down).dst,
                presto_netsim::ids::Node::Switch(dst_leaf)
            );
            let port = topo
                .fabric
                .switch(dst_leaf)
                .l2_lookup(mac)
                .expect("dst leaf entry");
            assert_eq!(port, topo.host_down[dst.index()]);
        }
    }

    #[test]
    fn three_tier_labels_route_cross_pod() {
        let (topo, ctl) = three_tier();
        assert_eq!(ctl.tree_count(), 2);
        assert!(ctl.trees_are_disjoint(&topo));
        // Host 0 (pod 0, ToR 0) to host 12 (pod 1, ToR 3): walk the L2
        // tables hop by hop on every tree and land on the host port.
        let dst = HostId(12);
        for t in 0..ctl.tree_count() as u32 {
            let mac = Mac::shadow(dst, t);
            let mut sw = topo.host_leaf[0];
            let mut hops = 0;
            loop {
                let out = topo
                    .fabric
                    .switch(sw)
                    .l2_lookup(mac)
                    .unwrap_or_else(|| panic!("no entry for tree {t} at {sw:?}"));
                hops += 1;
                assert!(hops <= 8, "label loop on tree {t}");
                match topo.fabric.link(out).dst {
                    presto_netsim::ids::Node::Switch(next) => sw = next,
                    presto_netsim::ids::Node::Host(h) => {
                        assert_eq!(h, dst);
                        assert_eq!(out, topo.host_down[dst.index()]);
                        break;
                    }
                }
            }
            // ToR → agg → core → agg → ToR → host: 5 L2 lookups.
            assert_eq!(hops, 5, "cross-pod path climbs to the core");
        }
    }

    #[test]
    fn three_tier_tree_path_lengths() {
        let (topo, ctl) = three_tier();
        // Cross-pod: up 2, down 2.
        let cross = ctl.tree_path(&topo, 0, topo.leaves[0], topo.leaves[2]);
        assert_eq!(cross.len(), 4);
        // Same-pod, different ToR: meet at the aggregation tier.
        let intra = ctl.tree_path(&topo, 0, topo.leaves[0], topo.leaves[1]);
        assert_eq!(intra.len(), 2);
        // All path links are distinct.
        let mut seen = cross.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn label_sequences_cover_all_trees() {
        let (_, ctl) = testbed();
        let labels = ctl.labels_for(HostId(5));
        assert_eq!(labels.len(), 4);
        for (t, &m) in labels.iter().enumerate() {
            assert_eq!(m, Mac::shadow(HostId(5), t as u32));
        }
    }

    #[test]
    fn failure_prunes_affected_trees_only() {
        let (mut topo, ctl) = testbed();
        // Kill the S1-L1 link (spine 0, leaf 0) — the Fig 17 scenario.
        let bad_up = topo.links_between(topo.leaves[0], topo.spines[0])[0];
        let bad_down = topo.links_between(topo.spines[0], topo.leaves[0])[0];
        topo.fabric.set_link_down(bad_up);
        topo.fabric.set_link_down(bad_down);

        // Pairs crossing leaf 0 lose tree 0.
        let labels = ctl.usable_labels(&topo, HostId(0), HostId(12));
        assert_eq!(labels.len(), 3);
        assert!(!labels.contains(&Mac::shadow(HostId(12), 0)));
        let labels = ctl.usable_labels(&topo, HostId(12), HostId(0));
        assert_eq!(labels.len(), 3);

        // Pairs not involving leaf 0 keep all four trees.
        let labels = ctl.usable_labels(&topo, HostId(4), HostId(12));
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn three_tier_core_link_failure_prunes_cross_pod_only() {
        let (mut topo, ctl) = three_tier();
        // Kill tree 0's agg→core link out of pod 0: agg (pod 0, pos 0) to
        // core (group 0, index 0).
        let agg = topo.tiers[1][0];
        let core = ctl.trees[0].chains[0][1].up;
        let up = topo.links_between(agg, core)[0];
        let down = topo.links_between(core, agg)[0];
        topo.fabric.set_link_down(up);
        topo.fabric.set_link_down(down);
        // Cross-pod pairs from pod 0 lose tree 0.
        let labels = ctl.usable_labels(&topo, HostId(0), HostId(12));
        assert_eq!(labels.len(), 1);
        assert!(!labels.contains(&Mac::shadow(HostId(12), 0)));
        // Same-pod pairs never climb to the core: unaffected.
        let labels = ctl.usable_labels(&topo, HostId(0), HostId(4));
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn total_failure_falls_back_to_full_set() {
        let (mut topo, ctl) = testbed();
        for s in 0..4 {
            let l = topo.links_between(topo.leaves[0], topo.spines[s])[0];
            topo.fabric.set_link_down(l);
        }
        let labels = ctl.usable_labels(&topo, HostId(0), HostId(12));
        assert_eq!(labels.len(), 4, "partitioned: keep trying everything");
    }

    #[test]
    fn failover_groups_point_to_next_spine() {
        let (topo, _) = testbed();
        let leaf = topo.leaves[0];
        let p = topo.links_between(leaf, topo.spines[0])[0];
        let b = topo.fabric.switch(leaf).failover_backup(p).expect("backup");
        assert_eq!(b, topo.links_between(leaf, topo.spines[1])[0]);
        // Wraps around.
        let p3 = topo.links_between(leaf, topo.spines[3])[0];
        let b3 = topo.fabric.switch(leaf).failover_backup(p3).unwrap();
        assert_eq!(b3, topo.links_between(leaf, topo.spines[0])[0]);
    }

    #[test]
    fn three_tier_failover_covers_aggregation_uplinks() {
        let (topo, _) = three_tier();
        // ToR uplinks back onto the next aggregation switch.
        let tor = topo.leaves[0];
        let aggs = topo.up_neighbors(tor).to_vec();
        let p = topo.links_between(tor, aggs[0])[0];
        assert_eq!(
            topo.fabric.switch(tor).failover_backup(p),
            Some(topo.links_between(tor, aggs[1])[0])
        );
        // Aggregation uplinks back onto the next core of their group.
        let agg = topo.tiers[1][0];
        let cores = topo.up_neighbors(agg).to_vec();
        assert_eq!(cores.len(), 2);
        let p = topo.links_between(agg, cores[0])[0];
        assert_eq!(
            topo.fabric.switch(agg).failover_backup(p),
            Some(topo.links_between(agg, cores[1])[0])
        );
        // Cores are top-tier: no failover groups above them.
    }

    #[test]
    fn spines_hold_entries_for_all_trees() {
        let (topo, ctl) = testbed();
        // Every spine can route every (host, tree) label.
        for &spine in &topo.spines {
            for &h in &topo.hosts {
                for t in 0..ctl.tree_count() as u32 {
                    assert!(
                        topo.fabric
                            .switch(spine)
                            .l2_lookup(Mac::shadow(h, t))
                            .is_some(),
                        "spine {spine:?} missing shadow(h{},t{t})",
                        h.0
                    );
                }
            }
        }
    }

    #[test]
    fn three_tier_transit_switches_hold_all_labels() {
        let (topo, ctl) = three_tier();
        // Every aggregation and core switch can route every (host, tree)
        // label — redirected fast-failover traffic must never blackhole
        // at the L2 table.
        for tier in 1..topo.tier_count() {
            for &sw in &topo.tiers[tier] {
                for &h in &topo.hosts {
                    for t in 0..ctl.tree_count() as u32 {
                        assert!(
                            topo.fabric
                                .switch(sw)
                                .l2_lookup(Mac::shadow(h, t))
                                .is_some(),
                            "{sw:?} (tier {tier}) missing shadow(h{},t{t})",
                            h.0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn usable_labels_same_leaf_is_full_set() {
        let (topo, ctl) = testbed();
        // Same-leaf pairs are returned the full label set (the policy
        // normally routes them directly anyway).
        let labels = ctl.usable_labels(&topo, HostId(0), HostId(1));
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn tree_path_returns_up_and_down_links() {
        let (topo, ctl) = testbed();
        let path = ctl.tree_path(&topo, 2, topo.leaves[0], topo.leaves[3]);
        assert_eq!(path.len(), 2);
        let spine = ctl.trees[2].root();
        assert_eq!(path[0], topo.links_between(topo.leaves[0], spine)[0]);
        assert_eq!(path[1], topo.links_between(spine, topo.leaves[3])[0]);
    }

    #[test]
    fn tree_uplink_is_the_first_path_hop() {
        let (topo, ctl) = testbed();
        for t in 0..ctl.tree_count() {
            for &leaf in &topo.leaves {
                let up = ctl.tree_uplink(&topo, t, leaf).expect("leaf uplink");
                // Must agree with the first link of any path from `leaf`.
                let other = if leaf == topo.leaves[0] {
                    topo.leaves[1]
                } else {
                    topo.leaves[0]
                };
                assert_eq!(up, ctl.tree_path(&topo, t, leaf, other)[0]);
            }
        }
        // Non-leaf switches have no tree uplink.
        assert!(ctl.tree_uplink(&topo, 0, topo.spines[0]).is_none());
    }

    #[test]
    fn double_failure_prunes_two_trees() {
        let (mut topo, ctl) = testbed();
        for s in [0usize, 1] {
            let up = topo.links_between(topo.leaves[0], topo.spines[s])[0];
            let down = topo.links_between(topo.spines[s], topo.leaves[0])[0];
            topo.fabric.set_link_down(up);
            topo.fabric.set_link_down(down);
        }
        let labels = ctl.usable_labels(&topo, HostId(0), HostId(12));
        assert_eq!(labels.len(), 2);
        assert!(!labels.contains(&Mac::shadow(HostId(12), 0)));
        assert!(!labels.contains(&Mac::shadow(HostId(12), 1)));
    }

    #[test]
    fn gamma_two_routes_through_distinct_cables() {
        let spec = ClosSpec {
            spines: 2,
            links_per_pair: 2,
            ..ClosSpec::default()
        };
        let mut topo = Topology::clos(&spec);
        let ctl = Controller::install(&mut topo);
        assert_eq!(ctl.tree_count(), 4);
        // Trees (s=0,j=0) and (s=0,j=1) use different parallel cables.
        let a = ctl.tree_path(&topo, 0, topo.leaves[0], topo.leaves[1]);
        let b = ctl.tree_path(&topo, 1, topo.leaves[0], topo.leaves[1]);
        assert_ne!(a[0], b[0]);
        assert_ne!(a[1], b[1]);
    }

    #[test]
    fn weighted_labels_healthy_equals_full_sequence() {
        let (topo, ctl) = testbed();
        assert_eq!(
            ctl.weighted_labels(&topo, HostId(0), HostId(12)),
            ctl.labels_for(HostId(12)),
            "all-healthy weights must collapse to one label per tree"
        );
    }

    #[test]
    fn weighted_labels_prunes_down_links_like_usable_labels() {
        let (mut topo, ctl) = testbed();
        let up = topo.links_between(topo.leaves[0], topo.spines[0])[0];
        let down = topo.links_between(topo.spines[0], topo.leaves[0])[0];
        topo.fabric.set_link_down(up);
        topo.fabric.set_link_down(down);
        assert_eq!(
            ctl.weighted_labels(&topo, HostId(0), HostId(12)),
            ctl.usable_labels(&topo, HostId(0), HostId(12)),
            "pure up/down faults must reproduce the pruning behavior"
        );
    }

    #[test]
    fn weighted_labels_derate_degraded_trees() {
        let (mut topo, ctl) = testbed();
        // Degrade tree 0's uplink from leaf 0 to half rate.
        let up = topo.links_between(topo.leaves[0], topo.spines[0])[0];
        topo.fabric.degrade_link(up, 0.5);
        let labels = ctl.weighted_labels(&topo, HostId(0), HostId(12));
        // Weights [2,4,4,4] / gcd 2 = [1,2,2,2]: 7 labels, tree 0 once.
        assert_eq!(labels.len(), 7);
        let count = |t: u32| {
            labels
                .iter()
                .filter(|&&m| m == Mac::shadow(HostId(12), t))
                .count()
        };
        assert_eq!(count(0), 1);
        assert_eq!(count(1), 2);
        assert_eq!(count(2), 2);
        assert_eq!(count(3), 2);
        // First round still visits every tree (interleaved, not blocked).
        assert_eq!(
            &labels[..4],
            &[
                Mac::shadow(HostId(12), 0),
                Mac::shadow(HostId(12), 1),
                Mac::shadow(HostId(12), 2),
                Mac::shadow(HostId(12), 3),
            ]
        );
        // Pairs avoiding leaf 0 are unaffected.
        assert_eq!(
            ctl.weighted_labels(&topo, HostId(4), HostId(12)),
            ctl.labels_for(HostId(12))
        );
    }

    #[test]
    fn recovery_restores_full_weights() {
        let (mut topo, ctl) = testbed();
        let up = topo.links_between(topo.leaves[0], topo.spines[0])[0];
        let down = topo.links_between(topo.spines[0], topo.leaves[0])[0];
        topo.fabric.set_link_down(up);
        topo.fabric.set_link_down(down);
        assert_eq!(ctl.weighted_labels(&topo, HostId(0), HostId(12)).len(), 3);
        topo.fabric.set_link_up(up);
        topo.fabric.set_link_up(down);
        assert_eq!(
            ctl.weighted_labels(&topo, HostId(0), HostId(12)),
            ctl.labels_for(HostId(12)),
            "a restored link must bring its tree back at full weight"
        );
        // Same for degradation.
        topo.fabric.degrade_link(up, 0.25);
        assert_eq!(ctl.tree_weight(&topo, 0, topo.leaves[0], topo.leaves[3]), 1);
        topo.fabric.restore_link_rate(up);
        assert_eq!(
            ctl.tree_weight(&topo, 0, topo.leaves[0], topo.leaves[3]),
            WEIGHT_SCALE
        );
    }

    #[test]
    #[should_panic(expected = "multi-path")]
    fn rejects_single_switch() {
        let mut topo = Topology::single_switch(
            4,
            10_000_000_000,
            presto_simcore::SimDuration::from_micros(1),
            1 << 20,
        );
        let _ = Controller::install(&mut topo);
    }
}
