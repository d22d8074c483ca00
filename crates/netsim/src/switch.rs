//! Output-queued switches.
//!
//! A switch forwards on, in priority order:
//!
//! 1. an exact-match L2 entry for the packet's destination MAC — this is
//!    the table shadow-MAC label switching lives in (§3.1; the paper notes
//!    Trident II chips hold 288k such entries), and
//! 2. an ECMP group keyed by destination host, hashing either the flow
//!    4-tuple (classic ECMP, used by MPTCP subflows) or the 4-tuple plus
//!    flowcell ID (the per-hop "Presto + ECMP" variant of Fig 14).
//!
//! If the selected egress link is down, an OpenFlow-style fast-failover
//! group can redirect to a pre-configured backup port (§3.3); otherwise the
//! packet is dropped and counted.
//!
//! The tables are Fx-hashed (`presto_simcore::fxhash`): they are probed
//! once per packet per hop and never iterated. ECMP groups are interned
//! per switch — a switch has one group per downward neighbor plus its
//! uplink group, however many hosts route over them.

use presto_simcore::rng::hash_mix;
use presto_simcore::FxHashMap;

use crate::ids::{HostId, LinkId, Mac, SwitchId};
use crate::packet::Packet;

/// What ECMP groups hash on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcmpMode {
    /// Hash the flow 4-tuple: all packets of a flow take one path.
    #[default]
    FlowHash,
    /// Hash the 4-tuple and the flowcell ID: per-hop flowcell spraying
    /// ("Presto + ECMP", Fig 14).
    FlowcellHash,
}

/// A switch's forwarding state.
#[derive(Debug)]
pub struct Switch {
    /// This switch's identifier.
    pub id: SwitchId,
    /// Exact-match L2 table: MAC label → egress link.
    l2: FxHashMap<Mac, LinkId>,
    /// ECMP routes: destination host → index into `ecmp_groups`.
    ecmp: FxHashMap<HostId, u32>,
    /// The distinct ECMP groups (candidate egress links) installed here.
    ecmp_groups: Vec<Box<[LinkId]>>,
    /// How ECMP groups hash.
    pub ecmp_mode: EcmpMode,
    /// Fast-failover: primary egress → backup egress.
    failover: FxHashMap<LinkId, LinkId>,
    /// Per-switch hash seed (real deployments perturb the hash per switch
    /// to avoid polarization).
    hash_salt: u64,
    /// Packets dropped because no usable egress existed.
    pub no_route_drops: u64,
}

impl Switch {
    /// An empty switch with the given identifier.
    pub fn new(id: SwitchId) -> Self {
        Switch {
            id,
            l2: FxHashMap::default(),
            ecmp: FxHashMap::default(),
            ecmp_groups: Vec::new(),
            ecmp_mode: EcmpMode::FlowHash,
            failover: FxHashMap::default(),
            hash_salt: hash_mix(0xEC4F, id.0 as u64),
            no_route_drops: 0,
        }
    }

    /// Install (or overwrite) an exact-match L2 entry.
    pub fn install_l2(&mut self, mac: Mac, out: LinkId) {
        self.l2.insert(mac, out);
    }

    /// Make room for `additional` more L2 entries, so a bulk install
    /// grows the table once.
    pub fn reserve_l2(&mut self, additional: usize) {
        self.l2.reserve(additional);
    }

    /// Remove an L2 entry (controller pruning after failures).
    pub fn remove_l2(&mut self, mac: Mac) -> bool {
        self.l2.remove(&mac).is_some()
    }

    /// Look up the L2 table without forwarding (controller verification).
    pub fn l2_lookup(&self, mac: Mac) -> Option<LinkId> {
        self.l2.get(&mac).copied()
    }

    /// Number of installed L2 entries.
    pub fn l2_len(&self) -> usize {
        self.l2.len()
    }

    /// Install (or replace) the ECMP group towards `dst`. Hosts routed
    /// over the same links share one stored group.
    pub fn install_ecmp(&mut self, dst: HostId, links: &[LinkId]) {
        assert!(!links.is_empty());
        // Scan newest first: installs arrive grouped by destination leaf,
        // so the group just created is the likeliest match.
        let id = match self.ecmp_groups.iter().rposition(|g| **g == *links) {
            Some(id) => id,
            None => {
                self.ecmp_groups.push(links.into());
                self.ecmp_groups.len() - 1
            }
        };
        self.ecmp.insert(dst, id as u32);
    }

    /// The installed ECMP group towards `dst`, if any (controller and
    /// test verification).
    pub fn ecmp_group(&self, dst: HostId) -> Option<&[LinkId]> {
        self.ecmp
            .get(&dst)
            .map(|&id| &*self.ecmp_groups[id as usize])
    }

    /// Install a fast-failover backup for `primary`.
    pub fn install_failover(&mut self, primary: LinkId, backup: LinkId) {
        self.failover.insert(primary, backup);
    }

    /// The configured backup for a link, if any.
    pub fn failover_backup(&self, primary: LinkId) -> Option<LinkId> {
        self.failover.get(&primary).copied()
    }

    /// Select the egress link for `pkt`. `link_up` reports liveness so the
    /// switch can apply fast failover / ECMP re-hashing exactly when the
    /// chosen port is dead. Returns `None` (and counts a drop) when no
    /// usable egress exists.
    pub fn forward(&mut self, pkt: &Packet, link_up: impl Fn(LinkId) -> bool) -> Option<LinkId> {
        // 1. Exact-match L2 (shadow MACs and directly attached hosts).
        if let Some(&out) = self.l2.get(&pkt.dst_mac) {
            if link_up(out) {
                return Some(out);
            }
            // Fast-failover group, if configured and alive.
            if let Some(&backup) = self.failover.get(&out) {
                if link_up(backup) {
                    return Some(backup);
                }
            }
            self.no_route_drops += 1;
            return None;
        }
        // 2. ECMP group towards the destination host.
        if let Some(&id) = self.ecmp.get(&pkt.dst_host) {
            let links = &self.ecmp_groups[id as usize];
            let key = match self.ecmp_mode {
                EcmpMode::FlowHash => pkt.flow.digest(),
                EcmpMode::FlowcellHash => hash_mix(pkt.flow.digest(), pkt.flowcell),
            };
            let h = hash_mix(key, self.hash_salt);
            let n = links.len() as u64;
            let first = links[(h % n) as usize];
            if link_up(first) {
                return Some(first);
            }
            // Deterministic re-hash over remaining members when the hashed
            // port is down (switches rebalance ECMP groups on port death).
            for i in 1..n {
                let cand = links[((h + i) % n) as usize];
                if link_up(cand) {
                    return Some(cand);
                }
            }
        }
        self.no_route_drops += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, PacketKind};

    fn pkt(sport: u16, flowcell: u64, dst_mac: Mac) -> Packet {
        Packet {
            flow: FlowKey::new(HostId(0), HostId(9), sport, 80),
            src_host: HostId(0),
            dst_host: HostId(9),
            dst_mac,
            flowcell,
            ce: false,
            kind: PacketKind::Data {
                seq: 0,
                len: 1460,
                retx: false,
            },
        }
    }

    #[test]
    fn l2_exact_match_wins() {
        let mut sw = Switch::new(SwitchId(0));
        sw.install_l2(Mac::shadow(HostId(9), 1), LinkId(3));
        sw.install_ecmp(HostId(9), &[LinkId(1), LinkId(2)]);
        let p = pkt(1, 0, Mac::shadow(HostId(9), 1));
        assert_eq!(sw.forward(&p, |_| true), Some(LinkId(3)));
    }

    #[test]
    fn ecmp_is_deterministic_per_flow() {
        let mut sw = Switch::new(SwitchId(0));
        sw.install_ecmp(HostId(9), &[LinkId(0), LinkId(1), LinkId(2), LinkId(3)]);
        let p = pkt(7, 0, Mac::host(HostId(9)));
        let first = sw.forward(&p, |_| true).unwrap();
        for _ in 0..20 {
            assert_eq!(sw.forward(&p, |_| true), Some(first));
        }
        // Different flowcells do NOT change the path in FlowHash mode.
        let p2 = pkt(7, 5, Mac::host(HostId(9)));
        assert_eq!(sw.forward(&p2, |_| true), Some(first));
    }

    #[test]
    fn ecmp_spreads_across_flows() {
        let mut sw = Switch::new(SwitchId(1));
        let links: Vec<LinkId> = (0..4).map(LinkId).collect();
        sw.install_ecmp(HostId(9), &links);
        let mut used = std::collections::HashSet::new();
        for sport in 0..64 {
            used.insert(
                sw.forward(&pkt(sport, 0, Mac::host(HostId(9))), |_| true)
                    .unwrap(),
            );
        }
        assert_eq!(used.len(), 4, "64 flows should hit all 4 links");
    }

    #[test]
    fn flowcell_hash_mode_sprays_one_flow() {
        let mut sw = Switch::new(SwitchId(2));
        sw.ecmp_mode = EcmpMode::FlowcellHash;
        let links: Vec<LinkId> = (0..4).map(LinkId).collect();
        sw.install_ecmp(HostId(9), &links);
        let mut used = std::collections::HashSet::new();
        for cell in 0..64 {
            used.insert(
                sw.forward(&pkt(7, cell, Mac::host(HostId(9))), |_| true)
                    .unwrap(),
            );
        }
        assert_eq!(used.len(), 4, "one flow's flowcells should hit all links");
    }

    #[test]
    fn failover_redirects_on_dead_primary() {
        let mut sw = Switch::new(SwitchId(0));
        sw.install_l2(Mac::shadow(HostId(9), 0), LinkId(1));
        sw.install_failover(LinkId(1), LinkId(2));
        let p = pkt(1, 0, Mac::shadow(HostId(9), 0));
        assert_eq!(sw.forward(&p, |l| l != LinkId(1)), Some(LinkId(2)));
        // Both dead: drop.
        assert_eq!(sw.forward(&p, |_| false), None);
        assert_eq!(sw.no_route_drops, 1);
    }

    #[test]
    fn ecmp_rehashes_around_dead_link() {
        let mut sw = Switch::new(SwitchId(0));
        sw.install_ecmp(HostId(9), &[LinkId(0), LinkId(1)]);
        for sport in 0..16 {
            let p = pkt(sport, 0, Mac::host(HostId(9)));
            let out = sw.forward(&p, |l| l == LinkId(1)).unwrap();
            assert_eq!(out, LinkId(1));
        }
    }

    #[test]
    fn hosts_over_the_same_links_share_one_group() {
        let mut sw = Switch::new(SwitchId(0));
        let ups = [LinkId(0), LinkId(1)];
        for h in 0..8 {
            sw.install_ecmp(HostId(h), &ups);
        }
        sw.install_ecmp(HostId(8), &[LinkId(2)]);
        sw.install_ecmp(HostId(9), &ups);
        assert_eq!(sw.ecmp_groups.len(), 2);
        assert_eq!(sw.ecmp_group(HostId(9)), Some(&ups[..]));
        // Re-installing a host moves it to the new group.
        sw.install_ecmp(HostId(0), &[LinkId(2)]);
        assert_eq!(sw.ecmp_group(HostId(0)), Some(&[LinkId(2)][..]));
        assert_eq!(sw.ecmp_groups.len(), 2);
    }

    #[test]
    fn no_route_counts_drop() {
        let mut sw = Switch::new(SwitchId(0));
        let p = pkt(1, 0, Mac::host(HostId(9)));
        assert_eq!(sw.forward(&p, |_| true), None);
        assert_eq!(sw.no_route_drops, 1);
    }

    #[test]
    fn l2_install_remove_roundtrip() {
        let mut sw = Switch::new(SwitchId(0));
        let m = Mac::shadow(HostId(1), 2);
        sw.install_l2(m, LinkId(5));
        assert_eq!(sw.l2_lookup(m), Some(LinkId(5)));
        assert_eq!(sw.l2_len(), 1);
        assert!(sw.remove_l2(m));
        assert!(!sw.remove_l2(m));
        assert_eq!(sw.l2_lookup(m), None);
    }
}
