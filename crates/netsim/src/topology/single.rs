//! The non-blocking "Optimal" baseline: every host on one switch.

use presto_simcore::SimDuration;

use super::{Topology, TopologyBuilder};

impl Topology {
    /// Build the non-blocking "Optimal" baseline: all hosts on one switch.
    pub fn single_switch(
        n_hosts: usize,
        link_rate_bps: u64,
        propagation: SimDuration,
        queue_bytes: u64,
    ) -> Topology {
        let mut b = TopologyBuilder::new();
        b.reserve_links(2 * n_hosts);
        let sw = b.add_switch(0);
        for _ in 0..n_hosts {
            b.attach_host(sw, link_rate_bps, propagation, queue_bytes);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HostId, Mac};

    #[test]
    fn single_switch_is_flat() {
        let t = Topology::single_switch(16, 10_000_000_000, SimDuration::from_micros(1), 1 << 20);
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.path_count(), 1);
        assert!(t.spines.is_empty());
        assert_eq!(t.tier_count(), 1);
        assert!(t.same_leaf(HostId(0), HostId(15)));
    }

    #[test]
    fn single_switch_routing_delivers_all() {
        let mut t =
            Topology::single_switch(4, 10_000_000_000, SimDuration::from_micros(1), 1 << 20);
        t.install_basic_routing();
        let sw = t.leaves[0];
        for &h in &t.hosts {
            assert_eq!(
                t.fabric.switch(sw).l2_lookup(Mac::host(h)),
                Some(t.host_down[h.index()])
            );
        }
    }
}
