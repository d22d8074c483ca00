//! Domain partitioning for sharded simulation (DESIGN.md §12).
//!
//! The sharded engine (`presto-simcore::ShardedQueue`) runs one calendar
//! wheel per *domain* and hands cross-domain packets through
//! lookahead-windowed mailboxes. This module chooses the domains from the
//! topology graph:
//!
//! * Switches below the top tier are grouped into *pods*: connected
//!   components of the switch graph restricted to below-top links. On a
//!   3-tier fabric that recovers the ToR+aggregation pods; on a 2-tier
//!   Clos every leaf is its own component (leaves only connect upward to
//!   the spines).
//! * Pod `c` maps to domain `c % shards`; a top-tier switch at tier
//!   position `j` maps to domain `j % shards`. Hosts inherit the domain
//!   of their attachment switch (WAN extras included).
//!
//! Links crossing domains are *boundary* links; the minimum propagation
//! delay over them is the conservative lookahead window — any
//! cross-domain packet arrives at least that far in the future, so a
//! domain can safely execute a window of that width without seeing its
//! neighbors' mailboxes.

use presto_simcore::SimDuration;

use crate::ids::Node;

use super::Topology;

/// The domain assignment of every fabric element, plus the lookahead
/// window the assignment guarantees.
#[derive(Debug, Clone)]
pub struct DomainPartition {
    /// Number of domains (the requested shard count; some may be empty).
    pub domains: usize,
    /// Per switch (indexed by `SwitchId::index`): its domain.
    pub switch_domain: Vec<usize>,
    /// Per host (indexed by `HostId::index`): its domain (= its
    /// attachment switch's domain).
    pub host_domain: Vec<usize>,
    /// Per link (indexed by `LinkId::index`): the domain of its source
    /// endpoint.
    pub link_src_domain: Vec<usize>,
    /// Per link (indexed by `LinkId::index`): the domain of its
    /// destination endpoint.
    pub link_dst_domain: Vec<usize>,
    /// Number of links whose endpoints sit in different domains.
    pub boundary_links: usize,
    /// Minimum propagation delay over boundary links — the conservative
    /// synchronization window. Zero only when the fabric has no links at
    /// all (the engine then degenerates to flush-per-pop, which is still
    /// correct, just slow).
    pub lookahead: SimDuration,
}

impl Topology {
    /// Partition the fabric into `shards` domains for sharded execution.
    ///
    /// Deterministic: pods are numbered by the smallest switch index they
    /// contain, scanned in index order, so the same topology always
    /// yields the same assignment.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn partition(&self, shards: usize) -> DomainPartition {
        assert!(shards > 0, "shard count must be at least 1");
        let n_switches = self.switch_tier.len();
        let top = self.tiers.len() - 1;

        // Union-find over below-top switches joined by below-top links.
        let mut parent: Vec<usize> = (0..n_switches).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        // `pair_links` is Fx-hashed, so key order is arbitrary; the
        // components do not depend on it (see the union below).
        for &(a, b) in self.pair_links.keys() {
            if self.switch_tier[a.index()] < top && self.switch_tier[b.index()] < top {
                let (ra, rb) = (find(&mut parent, a.index()), find(&mut parent, b.index()));
                if ra != rb {
                    // Union by index keeps the smallest member as root,
                    // making component numbering iteration-order-free.
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    parent[hi] = lo;
                }
            }
        }

        // Number pods in root-index order, then assign domains.
        let mut comp_id = vec![usize::MAX; n_switches];
        let mut next_comp = 0;
        let mut switch_domain = vec![0usize; n_switches];
        for (sw, domain) in switch_domain.iter_mut().enumerate() {
            if self.switch_tier[sw] == top {
                *domain = self.tier_pos[sw] % shards;
            } else {
                let root = find(&mut parent, sw);
                if comp_id[root] == usize::MAX {
                    comp_id[root] = next_comp;
                    next_comp += 1;
                }
                *domain = comp_id[root] % shards;
            }
        }

        let host_domain: Vec<usize> = self
            .host_leaf
            .iter()
            .map(|sw| switch_domain[sw.index()])
            .collect();

        let node_domain = |n: Node| match n {
            Node::Switch(sw) => switch_domain[sw.index()],
            Node::Host(h) => host_domain[h.index()],
        };
        let links = self.fabric.links();
        let mut link_src_domain = Vec::with_capacity(links.len());
        let mut link_dst_domain = Vec::with_capacity(links.len());
        let mut boundary_links = 0;
        let mut lookahead: Option<SimDuration> = None;
        for link in links {
            let (s, d) = (node_domain(link.src), node_domain(link.dst));
            link_src_domain.push(s);
            link_dst_domain.push(d);
            if s != d {
                boundary_links += 1;
                lookahead = Some(match lookahead {
                    Some(cur) => cur.min(link.propagation),
                    None => link.propagation,
                });
            }
        }
        // No boundary (single effective domain): any window is safe; use
        // the fabric-wide minimum so the window still advances in big
        // strides instead of flush-per-pop.
        let lookahead = lookahead
            .or_else(|| links.iter().map(|l| l.propagation).min())
            .unwrap_or(SimDuration::ZERO);

        DomainPartition {
            domains: shards,
            switch_domain,
            host_domain,
            link_src_domain,
            link_dst_domain,
            boundary_links,
            lookahead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ClosSpec, ThreeTierSpec};
    use super::*;

    #[test]
    fn single_shard_is_one_domain_with_no_boundary() {
        let t = Topology::clos(&ClosSpec::default());
        let p = t.partition(1);
        assert_eq!(p.domains, 1);
        assert!(p.switch_domain.iter().all(|&d| d == 0));
        assert!(p.host_domain.iter().all(|&d| d == 0));
        assert_eq!(p.boundary_links, 0);
        // Falls back to the fabric-wide minimum propagation.
        let min_prop = t.fabric.links().iter().map(|l| l.propagation).min();
        assert_eq!(Some(p.lookahead), min_prop);
    }

    #[test]
    fn two_tier_leaves_are_their_own_pods() {
        let t = Topology::clos(&ClosSpec::default()); // 4 leaves, 4 spines
        let p = t.partition(2);
        for (i, &leaf) in t.leaves.iter().enumerate() {
            assert_eq!(p.switch_domain[leaf.index()], i % 2);
        }
        for (j, &spine) in t.spines.iter().enumerate() {
            assert_eq!(p.switch_domain[spine.index()], j % 2);
        }
        // Hosts follow their leaf.
        for &h in &t.hosts {
            assert_eq!(
                p.host_domain[h.index()],
                p.switch_domain[t.host_leaf[h.index()].index()]
            );
        }
        // Every leaf reaches spines in the other domain: boundaries exist
        // and the lookahead is the (uniform) leaf-spine propagation.
        assert!(p.boundary_links > 0);
        let some_up = t.links_between(t.leaves[0], t.spines[0])[0];
        assert_eq!(p.lookahead, t.fabric.link(some_up).propagation);
    }

    #[test]
    fn three_tier_pods_stay_whole() {
        let spec = ThreeTierSpec::default(); // 2 pods
        let t = Topology::three_tier(&spec);
        let p = t.partition(2);
        // Every switch below the core shares its pod's domain; the two
        // pods land in different domains.
        let pod_of = |pos: usize, per_pod: usize| pos / per_pod;
        for (i, &tor) in t.tiers[0].iter().enumerate() {
            for (j, &agg) in t.tiers[1].iter().enumerate() {
                if pod_of(i, spec.tors_per_pod) == pod_of(j, spec.aggs_per_pod) {
                    assert_eq!(
                        p.switch_domain[tor.index()],
                        p.switch_domain[agg.index()],
                        "ToR {i} and agg {j} share a pod but not a domain"
                    );
                }
            }
        }
        assert_ne!(
            p.switch_domain[t.tiers[0][0].index()],
            p.switch_domain[t.tiers[0][spec.tors_per_pod].index()],
            "pods 0 and 1 should land in different domains"
        );
        // Boundary links are exactly the agg↔core hops (plus nothing
        // intra-pod), so the lookahead matches the fabric propagation.
        assert!(p.boundary_links > 0);
        assert_eq!(p.lookahead, spec.propagation);
        // Intra-pod links never cross domains.
        for link in t.fabric.links() {
            if let (Node::Switch(a), Node::Switch(b)) = (link.src, link.dst) {
                if t.switch_tier[a.index()] < 2 && t.switch_tier[b.index()] < 2 {
                    assert_eq!(
                        p.switch_domain[a.index()],
                        p.switch_domain[b.index()],
                        "intra-pod link {a:?}->{b:?} crosses domains"
                    );
                }
            }
        }
    }

    #[test]
    fn more_shards_than_pods_leaves_empty_domains() {
        let t = Topology::three_tier(&ThreeTierSpec::default());
        let p = t.partition(8);
        assert_eq!(p.domains, 8);
        // Only pods 0,1 and core positions 0..4 exist: domains used ⊆ 0..4.
        assert!(p.switch_domain.iter().all(|&d| d < 8));
    }

    #[test]
    fn wan_extras_inherit_their_switch_domain() {
        let mut t = Topology::clos(&ClosSpec::default());
        let wan = t.attach_extra_host(
            t.spines[1],
            100_000_000,
            SimDuration::from_micros(1),
            1 << 20,
        );
        let p = t.partition(4);
        assert_eq!(
            p.host_domain[wan.index()],
            p.switch_domain[t.spines[1].index()]
        );
    }
}
