//! A 3-tier Clos fabric: hosts → ToR → aggregation → core (Presto §5.3).

use presto_simcore::SimDuration;

use super::{Topology, TopologyBuilder};

/// Parameters of a 3-tier Clos network.
///
/// Switches are grouped into *pods*: each pod holds `tors_per_pod`
/// top-of-rack switches fully meshed (with γ parallel links) to
/// `aggs_per_pod` aggregation switches. Core switches are arranged in
/// `aggs_per_pod` groups of `cores_per_group`; core group *g* connects
/// once to aggregation switch *g* of every pod, so each aggregation
/// switch sees `cores_per_group` uplinks. This is the classic folded-Clos
/// wiring (CAFT, Fat-tree) restated with independent knobs.
#[derive(Debug, Clone)]
pub struct ThreeTierSpec {
    /// Number of pods.
    pub pods: usize,
    /// Top-of-rack (leaf) switches per pod.
    pub tors_per_pod: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// Parallel links between each (ToR, aggregation) pair (γ).
    pub links_per_pair: usize,
    /// Core switches per group (one group per aggregation position);
    /// `cores_per_group / (tors_per_pod · links_per_pair)` sets the
    /// pod-to-core oversubscription.
    pub cores_per_group: usize,
    /// Line rate of every link, bits/sec.
    pub link_rate_bps: u64,
    /// Per-hop propagation delay.
    pub propagation: SimDuration,
    /// Per-port drop-tail buffer in bytes.
    pub queue_bytes: u64,
    /// Optional shared-memory buffering `(pool_bytes, dt_alpha)` applied
    /// to every switch, as in [`super::ClosSpec`].
    pub shared_buffer: Option<(u64, f64)>,
}

impl Default for ThreeTierSpec {
    /// A small non-oversubscribed fabric: 2 pods × 2 ToRs × 4 hosts =
    /// 16 hosts (the testbed's host count), 2 aggregation switches per
    /// pod, 2 cores per group — oversubscription ratio 1.0 and
    /// `2 · min(γ=1, 2) = 2` disjoint trees.
    fn default() -> Self {
        ThreeTierSpec {
            pods: 2,
            tors_per_pod: 2,
            hosts_per_tor: 4,
            aggs_per_pod: 2,
            links_per_pair: 1,
            cores_per_group: 2,
            link_rate_bps: 10_000_000_000,
            propagation: SimDuration::from_micros(1),
            queue_bytes: 1024 * 1024,
            shared_buffer: None,
        }
    }
}

impl ThreeTierSpec {
    /// Total host count: `pods · tors_per_pod · hosts_per_tor`.
    pub fn host_count(&self) -> usize {
        self.pods * self.tors_per_pod * self.hosts_per_tor
    }

    /// Pod-to-core oversubscription ratio: aggregate ToR-facing bandwidth
    /// over core-facing bandwidth at one aggregation switch,
    /// `tors_per_pod · γ / cores_per_group`. 1.0 is non-blocking above
    /// the ToR tier; larger means the core is the bottleneck.
    pub fn oversubscription(&self) -> f64 {
        (self.tors_per_pod * self.links_per_pair) as f64 / self.cores_per_group as f64
    }
}

impl Topology {
    /// Build a 3-tier Clos network per `spec`.
    ///
    /// Construction order (which fixes ids and therefore event ordering):
    /// ToRs pod-major in tier 0, aggregation switches pod-major in
    /// tier 1, cores group-major in tier 2; then hosts per ToR; then
    /// ToR↔aggregation links (per pod, ToR-major, γ each); then
    /// aggregation↔core links (per pod, group-major, 1 each).
    pub fn three_tier(spec: &ThreeTierSpec) -> Topology {
        assert!(spec.pods >= 1 && spec.tors_per_pod >= 1 && spec.hosts_per_tor >= 1);
        assert!(spec.aggs_per_pod >= 1 && spec.links_per_pair >= 1 && spec.cores_per_group >= 1);
        let port_cap = match spec.shared_buffer {
            Some((pool, _)) => pool,
            None => spec.queue_bytes,
        };
        let mut b = TopologyBuilder::new();
        let (tors, aggs) = (spec.pods * spec.tors_per_pod, spec.pods * spec.aggs_per_pod);
        // Host, ToR–aggregation and aggregation–core cables, two links
        // each.
        b.reserve_links(
            2 * (tors * spec.hosts_per_tor
                + tors * spec.aggs_per_pod * spec.links_per_pair
                + aggs * spec.cores_per_group),
        );
        let tors: Vec<_> = (0..tors).map(|_| b.add_switch(0)).collect();
        let aggs: Vec<_> = (0..aggs).map(|_| b.add_switch(1)).collect();
        let cores: Vec<_> = (0..spec.aggs_per_pod * spec.cores_per_group)
            .map(|_| b.add_switch(2))
            .collect();
        for &tor in &tors {
            for _ in 0..spec.hosts_per_tor {
                b.attach_host(tor, spec.link_rate_bps, spec.propagation, port_cap);
            }
        }
        if let Some((pool, alpha)) = spec.shared_buffer {
            for &sw in tors.iter().chain(aggs.iter()).chain(cores.iter()) {
                b.set_shared_buffer(sw, pool, alpha);
            }
        }
        for pod in 0..spec.pods {
            for t in 0..spec.tors_per_pod {
                let tor = tors[pod * spec.tors_per_pod + t];
                for a in 0..spec.aggs_per_pod {
                    b.connect(
                        tor,
                        aggs[pod * spec.aggs_per_pod + a],
                        spec.links_per_pair,
                        spec.link_rate_bps,
                        spec.propagation,
                        port_cap,
                    );
                }
            }
        }
        for pod in 0..spec.pods {
            for g in 0..spec.aggs_per_pod {
                let agg = aggs[pod * spec.aggs_per_pod + g];
                for k in 0..spec.cores_per_group {
                    b.connect(
                        agg,
                        cores[g * spec.cores_per_group + k],
                        1,
                        spec.link_rate_bps,
                        spec.propagation,
                        port_cap,
                    );
                }
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;

    #[test]
    fn default_shape_is_two_pods_sixteen_hosts() {
        let spec = ThreeTierSpec::default();
        assert_eq!(spec.host_count(), 16);
        assert!((spec.oversubscription() - 1.0).abs() < 1e-9);
        let t = Topology::three_tier(&spec);
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.tier_count(), 3);
        assert_eq!(t.tiers[0].len(), 4);
        assert_eq!(t.tiers[1].len(), 4);
        assert_eq!(t.tiers[2].len(), 4);
        // Legacy views: `spines` names the aggregation tier.
        assert_eq!(t.spines, t.tiers[1]);
        // Disjoint trees: aggs_per_pod * min(γ, cores_per_group).
        assert_eq!(t.path_count(), 2);
    }

    #[test]
    fn core_groups_connect_one_agg_position_per_pod() {
        let spec = ThreeTierSpec::default();
        let t = Topology::three_tier(&spec);
        for (ci, &core) in t.tiers[2].iter().enumerate() {
            let group = ci / spec.cores_per_group;
            let downs = t.down_neighbors(core);
            assert_eq!(downs.len(), spec.pods);
            for (pod, &agg) in downs.iter().enumerate() {
                assert_eq!(agg, t.tiers[1][pod * spec.aggs_per_pod + group]);
                assert_eq!(t.links_between(core, agg).len(), 1);
            }
        }
    }

    #[test]
    fn pods_partition_hosts() {
        let t = Topology::three_tier(&ThreeTierSpec::default());
        // Hosts 0..4 on ToR 0, pod 0; hosts 8..12 on ToR 2, pod 1.
        assert!(t.same_leaf(HostId(0), HostId(3)));
        assert!(!t.same_leaf(HostId(3), HostId(4)));
        assert_eq!(t.host_leaf[8.min(t.hosts.len() - 1)], t.tiers[0][2]);
        // Cross-pod reachability flows through the core: a pod-0 agg does
        // not sit above a pod-1 host.
        assert!(!t.host_below(t.tiers[1][0], HostId(8)));
        assert!(t.host_below(t.tiers[2][0], HostId(8)));
    }

    #[test]
    fn oversubscribed_fabric_reports_ratio() {
        let spec = ThreeTierSpec {
            tors_per_pod: 4,
            cores_per_group: 2,
            ..ThreeTierSpec::default()
        };
        assert!((spec.oversubscription() - 2.0).abs() < 1e-9);
        let t = Topology::three_tier(&spec);
        // min(γ=1, cores) keeps 2 disjoint trees per agg position.
        assert_eq!(t.path_count(), 2);
    }

    #[test]
    fn basic_routing_covers_cross_pod_pairs() {
        let mut t = Topology::three_tier(&ThreeTierSpec::default());
        t.install_basic_routing();
        // An aggregation switch in pod 0 routes pod-1 hosts upward: its
        // ECMP group for host 8 points at core links.
        let agg = t.tiers[1][0];
        let ups: Vec<_> = t
            .up_neighbors(agg)
            .iter()
            .flat_map(|&c| t.links_between(agg, c).to_vec())
            .collect();
        let group = t.fabric.switch(agg).ecmp_group(HostId(8)).expect("group");
        assert_eq!(group, &ups[..]);
    }
}
