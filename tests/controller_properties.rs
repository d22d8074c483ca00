//! Property-based tests of the controller's spanning-tree allocation
//! (DESIGN.md §10): for randomized 2-tier and 3-tier fabric shapes the
//! carved trees are link-disjoint and spanning, and — because they are
//! disjoint — losing any single fabric link prunes at most one tree, so
//! no reachable host pair's label multiset ever empties. A scoped install
//! (`Controller::install_for` with an active-host mask) writes, for every
//! active host, exactly the state the unscoped install writes, and
//! nothing for the others. Switches store that state as shared label
//! rows, not one entry per (host, tree).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use presto::core::Controller;
use presto::netsim::{ClosSpec, HostId, LinkId, Mac, Node, ThreeTierSpec, Topology};

/// Every chain of every tree must terminate at that tree's root (one
/// switch spans all leaves), and the per-tree link sets — ascending hops
/// plus their descending mirrors, over all leaf pairs — must be pairwise
/// disjoint across trees.
fn assert_disjoint_spanning(topo: &Topology, ctl: &Controller) {
    assert!(ctl.tree_count() >= 1, "no trees carved");
    let mut owner: HashMap<LinkId, usize> = HashMap::new();
    for t in 0..ctl.tree_count() {
        let root = ctl.trees[t].root();
        for chain in &ctl.trees[t].chains {
            assert_eq!(
                chain.last().expect("non-empty chain").up,
                root,
                "tree {t} has a chain ending off-root"
            );
        }
        for &src in &topo.leaves {
            for &dst in &topo.leaves {
                if src == dst {
                    continue;
                }
                let path = ctl.tree_path(topo, t, src, dst);
                assert!(!path.is_empty(), "tree {t} has no path {src:?}->{dst:?}");
                // The hop list must be physically connected end to end.
                let mut at = Node::Switch(src);
                for &l in &path {
                    let link = topo.fabric.link(l);
                    assert_eq!(link.src, at, "tree {t} path breaks at {l:?}");
                    at = link.dst;
                }
                assert_eq!(at, Node::Switch(dst));
                for &l in &path {
                    if let Some(&o) = owner.get(&l) {
                        assert_eq!(o, t, "link {l:?} claimed by trees {o} and {t}");
                    }
                    owner.insert(l, t);
                }
            }
        }
    }
    assert!(ctl.trees_are_disjoint(topo), "self-check disagrees");
}

/// With exactly one fabric link down, disjointness bounds the damage to
/// one tree: every cross-leaf host pair keeps a non-empty label multiset
/// that avoids the dead link whenever the fabric still offers a live
/// tree.
fn assert_single_prune_survivable(topo: &mut Topology, ctl: &Controller, victim: LinkId) {
    topo.fabric.set_link_down(victim);
    let hosts = topo.host_count();
    for s in 0..hosts {
        for d in 0..hosts {
            let (src, dst) = (topo.hosts[s], topo.hosts[d]);
            if s == d || topo.same_leaf(src, dst) {
                continue;
            }
            let labels = ctl.weighted_labels(topo, src, dst);
            assert!(!labels.is_empty(), "empty multiset {src:?}->{dst:?}");
            let trees: HashSet<Mac> = labels.into_iter().collect();
            if ctl.tree_count() >= 2 {
                assert!(
                    trees.len() >= ctl.tree_count() - 1,
                    "one dead link pruned {} of {} trees for {src:?}->{dst:?}",
                    ctl.tree_count() - trees.len(),
                    ctl.tree_count()
                );
            }
        }
    }
    topo.fabric.link_mut(victim).up = true;
}

/// Install `build()`'s fabric twice — unscoped, and scoped to the hosts
/// whose bit in `mask_bits` (cycled) is set — and check the scoped
/// install against the unscoped one switch by switch.
fn assert_scoped_matches_full(build: impl Fn() -> Topology, mask_bits: u64) {
    let mut full = build();
    let full_ctl = Controller::install(&mut full);
    let mut scoped = build();
    let active: Vec<bool> = (0..scoped.host_count())
        .map(|h| (mask_bits >> (h % 64)) & 1 == 1)
        .collect();
    let ctl = Controller::install_for(&mut scoped, Some(&active));
    let trees = ctl.tree_count();
    assert_eq!(trees, full_ctl.tree_count());
    let live = active.iter().filter(|&&a| a).count();
    for (i, (s, f)) in scoped
        .fabric
        .switches()
        .zip(full.fabric.switches())
        .enumerate()
    {
        let mut host_macs = 0;
        for h in 0..scoped.host_count() {
            let h = HostId(h as u32);
            let macs =
                std::iter::once(Mac::host(h)).chain((0..trees as u32).map(|t| Mac::shadow(h, t)));
            if active[h.index()] {
                for mac in macs {
                    assert_eq!(s.l2_lookup(mac), f.l2_lookup(mac), "switch {i} {mac:?}");
                }
                assert_eq!(s.ecmp_group(h), f.ecmp_group(h), "switch {i} ECMP {h:?}");
                host_macs += usize::from(s.l2_lookup(Mac::host(h)).is_some());
            } else {
                for mac in macs {
                    assert_eq!(s.l2_lookup(mac), None, "switch {i} {mac:?} inactive");
                }
                assert_eq!(s.ecmp_group(h), None, "switch {i} ECMP {h:?} inactive");
            }
        }
        assert_eq!(s.l2_len(), trees * live + host_macs, "switch {i} L2 size");
        for l in 0..scoped.fabric.links().len() {
            let l = LinkId(l as u32);
            assert_eq!(
                s.failover_backup(l),
                f.failover_backup(l),
                "switch {i} failover {l:?}"
            );
        }
    }
}

/// Remote hosts share a label row per down-neighbor they sit behind, plus
/// one for the uplinks; only a switch's local hosts need a row each. A
/// switch storing one entry per (host, tree) again breaks this bound.
#[test]
fn switches_store_one_label_row_per_egress_pattern() {
    let mut topo = Topology::three_tier(&ThreeTierSpec::default());
    let ctl = Controller::install(&mut topo);
    for (i, switch) in topo.fabric.switches().enumerate() {
        let sw = switch.id;
        let local = topo.host_leaf.iter().filter(|&&leaf| leaf == sw).count();
        let bound = local + topo.down_neighbors(sw).len() + 1;
        assert!(
            switch.label_row_count() <= bound,
            "switch {i}: {} label rows, bound {bound}",
            switch.label_row_count()
        );
        // Every (host, tree) label still resolves.
        for &h in &topo.hosts {
            for t in 0..ctl.tree_count() as u32 {
                assert!(switch.l2_lookup(Mac::shadow(h, t)).is_some());
            }
        }
    }
}

proptest! {
    /// 2-tier Clos of any shape: ν·γ link-disjoint spanning trees.
    #[test]
    fn two_tier_trees_are_disjoint_and_spanning(
        spines in 1usize..5,
        leaves in 2usize..5,
        hosts_per_leaf in 1usize..3,
        links_per_pair in 1usize..3,
    ) {
        let spec = ClosSpec {
            spines,
            leaves,
            hosts_per_leaf,
            links_per_pair,
            ..ClosSpec::default()
        };
        let mut topo = Topology::clos(&spec);
        let ctl = Controller::install(&mut topo);
        prop_assert_eq!(ctl.tree_count(), spines * links_per_pair);
        assert_disjoint_spanning(&topo, &ctl);
    }

    /// 3-tier Clos of any (uniform) shape: still link-disjoint and
    /// spanning even though chains now climb two levels.
    #[test]
    fn three_tier_trees_are_disjoint_and_spanning(
        pods in 2usize..4,
        tors_per_pod in 1usize..3,
        aggs_per_pod in 2usize..4,
        links_per_pair in 1usize..3,
        cores_per_group in 1usize..3,
    ) {
        let spec = ThreeTierSpec {
            pods,
            tors_per_pod,
            hosts_per_tor: 1,
            aggs_per_pod,
            links_per_pair,
            cores_per_group,
            ..ThreeTierSpec::default()
        };
        let mut topo = Topology::three_tier(&spec);
        let ctl = Controller::install(&mut topo);
        assert_disjoint_spanning(&topo, &ctl);
    }

    /// Killing any single 2-tier fabric link leaves every cross-leaf
    /// pair a usable multiset missing at most one tree.
    #[test]
    fn two_tier_single_link_prune_never_empties_labels(
        spines in 1usize..4,
        leaves in 2usize..4,
        links_per_pair in 1usize..3,
        victim_seed in 0usize..1000,
    ) {
        let spec = ClosSpec {
            spines,
            leaves,
            hosts_per_leaf: 1,
            links_per_pair,
            ..ClosSpec::default()
        };
        let mut topo = Topology::clos(&spec);
        let ctl = Controller::install(&mut topo);
        let victim = LinkId((victim_seed % topo.fabric.links().len()) as u32);
        assert_single_prune_survivable(&mut topo, &ctl, victim);
    }

    /// Same survivability on a 3-tier fabric, where a dead link may sit
    /// at either the ToR-aggregation or the aggregation-core level.
    #[test]
    fn three_tier_single_link_prune_never_empties_labels(
        pods in 2usize..3,
        aggs_per_pod in 2usize..4,
        cores_per_group in 1usize..3,
        victim_seed in 0usize..1000,
    ) {
        let spec = ThreeTierSpec {
            pods,
            tors_per_pod: 2,
            hosts_per_tor: 1,
            aggs_per_pod,
            links_per_pair: 1,
            cores_per_group,
            ..ThreeTierSpec::default()
        };
        let mut topo = Topology::three_tier(&spec);
        let ctl = Controller::install(&mut topo);
        let victim = LinkId((victim_seed % topo.fabric.links().len()) as u32);
        assert_single_prune_survivable(&mut topo, &ctl, victim);
    }

    /// A 2-tier install scoped to a random active-host mask matches the
    /// unscoped install on every active host and is empty elsewhere.
    #[test]
    fn two_tier_scoped_install_matches_full(
        spines in 1usize..4,
        leaves in 2usize..5,
        hosts_per_leaf in 1usize..4,
        links_per_pair in 1usize..3,
        mask_bits in 0u64..u64::MAX,
    ) {
        let spec = ClosSpec {
            spines,
            leaves,
            hosts_per_leaf,
            links_per_pair,
            ..ClosSpec::default()
        };
        assert_scoped_matches_full(|| Topology::clos(&spec), mask_bits);
    }

    /// The same equivalence on a 3-tier fabric, where transit switches
    /// route some hosts down and climb toward the others.
    #[test]
    fn three_tier_scoped_install_matches_full(
        pods in 2usize..4,
        tors_per_pod in 1usize..3,
        hosts_per_tor in 1usize..3,
        aggs_per_pod in 1usize..3,
        links_per_pair in 1usize..3,
        cores_per_group in 1usize..3,
        mask_bits in 0u64..u64::MAX,
    ) {
        let spec = ThreeTierSpec {
            pods,
            tors_per_pod,
            hosts_per_tor,
            aggs_per_pod,
            links_per_pair,
            cores_per_group,
            ..ThreeTierSpec::default()
        };
        assert_scoped_matches_full(|| Topology::three_tier(&spec), mask_bits);
    }
}
