//! The paper's 2-tier Clos testbed (Figures 3 and 4).

use presto_simcore::SimDuration;

use super::{Topology, TopologyBuilder};

/// Parameters of a 2-tier Clos network.
#[derive(Debug, Clone)]
pub struct ClosSpec {
    /// Number of spine switches (ν in the paper).
    pub spines: usize,
    /// Number of leaf (top-of-rack) switches.
    pub leaves: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// Parallel links between each (spine, leaf) pair (γ in the paper).
    pub links_per_pair: usize,
    /// Line rate of every link, bits/sec.
    pub link_rate_bps: u64,
    /// Per-hop propagation delay.
    pub propagation: SimDuration,
    /// Per-port drop-tail buffer in bytes.
    pub queue_bytes: u64,
    /// Optional shared-memory buffering: `(pool_bytes, dt_alpha)` applied
    /// to every switch (the G8264 is a shared-buffer switch). When set,
    /// per-port static caps are raised to the pool size and the dynamic
    /// threshold becomes the binding constraint.
    pub shared_buffer: Option<(u64, f64)>,
}

impl Default for ClosSpec {
    /// The paper's testbed defaults: 10 Gbps links, shallow sub-microsecond
    /// propagation, and a buffer sized like a shared-memory ToR port.
    fn default() -> Self {
        ClosSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 4,
            links_per_pair: 1,
            link_rate_bps: 10_000_000_000,
            propagation: SimDuration::from_micros(1),
            queue_bytes: 1024 * 1024,
            shared_buffer: None,
        }
    }
}

impl Topology {
    /// Build a 2-tier Clos network per `spec`: every leaf connects to
    /// every spine with γ parallel links.
    pub fn clos(spec: &ClosSpec) -> Topology {
        assert!(spec.leaves >= 1 && spec.hosts_per_leaf >= 1);
        assert!(spec.spines >= 1 && spec.links_per_pair >= 1);
        let port_cap = match spec.shared_buffer {
            Some((pool, _)) => pool,
            None => spec.queue_bytes,
        };
        let mut b = TopologyBuilder::new();
        b.reserve_links(
            2 * spec.leaves * (spec.hosts_per_leaf + spec.spines * spec.links_per_pair),
        );
        let leaves: Vec<_> = (0..spec.leaves).map(|_| b.add_switch(0)).collect();
        let spines: Vec<_> = (0..spec.spines).map(|_| b.add_switch(1)).collect();
        for &leaf in &leaves {
            for _ in 0..spec.hosts_per_leaf {
                b.attach_host(leaf, spec.link_rate_bps, spec.propagation, port_cap);
            }
        }
        if let Some((pool, alpha)) = spec.shared_buffer {
            for &sw in leaves.iter().chain(spines.iter()) {
                b.set_shared_buffer(sw, pool, alpha);
            }
        }
        for &leaf in &leaves {
            for &spine in &spines {
                b.connect(
                    leaf,
                    spine,
                    spec.links_per_pair,
                    spec.link_rate_bps,
                    spec.propagation,
                    port_cap,
                );
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
    fn testbed_shape_matches_fig3() {
        let t = Topology::clos(&ClosSpec::default());
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.leaves.len(), 4);
        assert_eq!(t.spines.len(), 4);
        assert_eq!(t.path_count(), 4);
        // Links: 16 hosts * 2 + 4 leaves * 4 spines * 1 * 2 = 32 + 32.
        assert_eq!(t.fabric.links().len(), 64);
        // Host 0..3 on leaf 0, 4..7 on leaf 1, etc.
        assert!(t.same_leaf(HostId(0), HostId(3)));
        assert!(!t.same_leaf(HostId(3), HostId(4)));
    }

    #[test]
    fn scalability_topology_fig4a() {
        let spec = ClosSpec {
            spines: 8,
            leaves: 2,
            hosts_per_leaf: 8,
            ..ClosSpec::default()
        };
        let t = Topology::clos(&spec);
        assert_eq!(t.path_count(), 8);
        assert_eq!(t.host_count(), 16);
    }

    #[test]
    fn parallel_links_multiply_paths() {
        let spec = ClosSpec {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 1,
            links_per_pair: 3,
            ..ClosSpec::default()
        };
        let t = Topology::clos(&spec);
        assert_eq!(t.path_count(), 6);
        assert_eq!(t.links_between(t.leaves[0], t.spines[1]).len(), 3);
    }

    #[test]
    fn shared_buffer_option_installs_pools() {
        let spec = ClosSpec {
            shared_buffer: Some((4 * 1024 * 1024, 1.0)),
            ..ClosSpec::default()
        };
        let t = Topology::clos(&spec);
        for sw in t.leaves.iter().chain(t.spines.iter()) {
            let buf = t.fabric.shared_buffer(*sw).expect("pool installed");
            assert_eq!(buf.pool_bytes, 4 * 1024 * 1024);
        }
        // Per-port static caps are raised to the pool size.
        let some_link = t.links_between(t.leaves[0], t.spines[0])[0];
        assert_eq!(
            t.fabric.link(some_link).config().queue_capacity_bytes(),
            4 * 1024 * 1024
        );
    }

    #[test]
    fn default_spec_has_no_shared_buffer() {
        let t = Topology::clos(&ClosSpec::default());
        assert!(t.fabric.shared_buffer(t.leaves[0]).is_none());
    }

    #[test]
    fn basic_routing_installs_l2_and_ecmp() {
        use crate::ids::Mac;
        let mut t = Topology::clos(&ClosSpec::default());
        t.install_basic_routing();
        // Leaf 0 has exact entries for its 4 local hosts.
        assert_eq!(t.fabric.switch(t.leaves[0]).l2_len(), 4);
        assert_eq!(
            t.fabric.switch(t.leaves[0]).l2_lookup(Mac::host(HostId(0))),
            Some(t.host_down[0])
        );
        // And no entry for a remote host's real MAC.
        assert_eq!(
            t.fabric.switch(t.leaves[0]).l2_lookup(Mac::host(HostId(4))),
            None
        );
    }
}
