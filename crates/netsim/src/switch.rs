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
//! Shadow labels are not stored one entry per (host, tree): each
//! destination host maps to a *label row*, its egress link per tree, and
//! hosts with equal rows share one stored row. ECMP groups are interned
//! the same way. Installed by the controller, a switch holds one row per
//! local host, one per downward neighbor and one for its uplinks, and one
//! ECMP group per downward neighbor plus its uplink group, however many
//! hosts route over them. The tables are Fx-hashed
//! (`presto_simcore::fxhash`): they are probed once per packet per hop and
//! never iterated.

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
    /// Exact-match L2 table for non-shadow MACs (host and WAN-remote
    /// entries): MAC → egress link.
    l2: FxHashMap<Mac, LinkId>,
    /// Shadow labels: destination host → its label row, as a
    /// `(start, len)` span of `label_slots`.
    labels: FxHashMap<HostId, (u32, u32)>,
    /// The distinct label rows installed here, back to back. Slot `t` of
    /// a row is the egress of the host's tree-`t` label, or
    /// [`Switch::EMPTY_SLOT`]. One flat arena keeps a label lookup one
    /// load past the map probe.
    label_slots: Vec<LinkId>,
    /// The span of each distinct row in `label_slots`.
    label_rows: Vec<(u32, u32)>,
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
    /// Marks a label-row slot with no entry. [`Fabric::add_link`] never
    /// hands out this id.
    ///
    /// [`Fabric::add_link`]: crate::Fabric::add_link
    pub const EMPTY_SLOT: LinkId = LinkId(u32::MAX);

    /// An empty switch with the given identifier.
    pub fn new(id: SwitchId) -> Self {
        Switch {
            id,
            l2: FxHashMap::default(),
            labels: FxHashMap::default(),
            label_slots: Vec::new(),
            label_rows: Vec::new(),
            ecmp: FxHashMap::default(),
            ecmp_groups: Vec::new(),
            ecmp_mode: EcmpMode::FlowHash,
            failover: FxHashMap::default(),
            hash_salt: hash_mix(0xEC4F, id.0 as u64),
            no_route_drops: 0,
        }
    }

    /// Install (or overwrite) an exact-match L2 entry. A shadow MAC sets
    /// one slot of its host's label row, growing the row with empty slots
    /// up to the tree index. The old row stays stored, so bulk installs
    /// go through [`Switch::install_label_row`].
    pub fn install_l2(&mut self, mac: Mac, out: LinkId) {
        if !mac.is_shadow() {
            self.l2.insert(mac, out);
            return;
        }
        let dst = mac.dst_host();
        let tree = mac.tree() as usize;
        let mut row = self.label_row(dst).to_vec();
        if row.len() <= tree {
            row.resize(tree + 1, Self::EMPTY_SLOT);
        }
        row[tree] = out;
        self.install_label_row(dst, &row);
    }

    /// Install (or replace) every shadow label of `dst` at once: `row[t]`
    /// is the egress of its tree-`t` label, [`Switch::EMPTY_SLOT`] for
    /// none. Hosts with equal rows share one stored row.
    pub fn install_label_row(&mut self, dst: HostId, row: &[LinkId]) {
        // Scan newest first: installs arrive grouped by destination, so
        // the row just created is the likeliest match.
        let found = self
            .label_rows
            .iter()
            .rev()
            .find(|&&r| self.slots(r) == row);
        let span = match found.copied() {
            Some(span) => span,
            None => {
                let span = (self.label_slots.len() as u32, row.len() as u32);
                self.label_slots.extend_from_slice(row);
                self.label_rows.push(span);
                span
            }
        };
        self.labels.insert(dst, span);
    }

    /// The label row of `dst`; empty if none is installed.
    fn label_row(&self, dst: HostId) -> &[LinkId] {
        self.labels.get(&dst).map_or(&[], |&span| self.slots(span))
    }

    /// The slots of the row stored at `(start, len)`.
    fn slots(&self, (start, len): (u32, u32)) -> &[LinkId] {
        &self.label_slots[start as usize..(start + len) as usize]
    }

    /// Number of distinct label rows stored, including any no host uses
    /// any more.
    pub fn label_row_count(&self) -> usize {
        self.label_rows.len()
    }

    /// Make room for label rows of `additional` more destination hosts,
    /// so a bulk install grows the table once.
    pub fn reserve_l2(&mut self, additional: usize) {
        self.labels.reserve(additional);
    }

    /// Look up the L2 table without forwarding (controller verification).
    #[inline]
    pub fn l2_lookup(&self, mac: Mac) -> Option<LinkId> {
        if mac.is_shadow() {
            let &(start, len) = self.labels.get(&mac.dst_host())?;
            let tree = mac.tree();
            if tree >= len {
                return None;
            }
            let out = self.label_slots[(start + tree) as usize];
            (out != Self::EMPTY_SLOT).then_some(out)
        } else {
            self.l2.get(&mac).copied()
        }
    }

    /// Number of installed L2 entries, one per (host, tree) label.
    pub fn l2_len(&self) -> usize {
        let filled = |&span: &(u32, u32)| {
            self.slots(span)
                .iter()
                .filter(|&&l| l != Self::EMPTY_SLOT)
                .count()
        };
        self.l2.len() + self.labels.values().map(filled).sum::<usize>()
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
        if let Some(out) = self.l2_lookup(pkt.dst_mac) {
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
    fn l2_install_overwrite_roundtrip() {
        let mut sw = Switch::new(SwitchId(0));
        for m in [Mac::shadow(HostId(1), 2), Mac::host(HostId(1))] {
            sw.install_l2(m, LinkId(5));
            assert_eq!(sw.l2_lookup(m), Some(LinkId(5)));
            // Overwriting replaces the entry in place.
            sw.install_l2(m, LinkId(6));
            assert_eq!(sw.l2_lookup(m), Some(LinkId(6)));
        }
        assert_eq!(sw.l2_len(), 2);
        // The host's other trees have no entry.
        assert_eq!(sw.l2_lookup(Mac::shadow(HostId(1), 0)), None);
    }

    #[test]
    fn hosts_with_equal_label_rows_share_one_row() {
        let mut sw = Switch::new(SwitchId(0));
        let ups = [LinkId(0), LinkId(1), LinkId(2)];
        for h in 0..8 {
            sw.install_label_row(HostId(h), &ups);
        }
        sw.install_label_row(HostId(8), &[LinkId(3); 3]);
        sw.install_label_row(HostId(9), &ups);
        assert_eq!(sw.label_row_count(), 2);
        assert_eq!(sw.l2_len(), 10 * 3);
        for t in 0..3 {
            assert_eq!(
                sw.l2_lookup(Mac::shadow(HostId(9), t)),
                Some(ups[t as usize])
            );
            assert_eq!(sw.l2_lookup(Mac::shadow(HostId(8), t)), Some(LinkId(3)));
        }
        // Re-installing a host moves it to the other row.
        sw.install_label_row(HostId(0), &[LinkId(3); 3]);
        assert_eq!(sw.l2_lookup(Mac::shadow(HostId(0), 1)), Some(LinkId(3)));
        assert_eq!(sw.label_row_count(), 2);
        assert_eq!(sw.l2_len(), 10 * 3);
    }

    #[test]
    fn overwriting_one_tree_unshares_only_that_host() {
        let mut sw = Switch::new(SwitchId(0));
        let row = [LinkId(1), LinkId(2), LinkId(3)];
        for h in 0..3 {
            sw.install_label_row(HostId(h), &row);
        }
        sw.install_l2(Mac::shadow(HostId(1), 1), LinkId(7));
        assert_eq!(sw.label_row_count(), 2);
        assert_eq!(sw.l2_lookup(Mac::shadow(HostId(1), 1)), Some(LinkId(7)));
        assert_eq!(sw.l2_lookup(Mac::shadow(HostId(1), 2)), Some(LinkId(3)));
        for h in [0, 2] {
            for t in 0..3 {
                assert_eq!(
                    sw.l2_lookup(Mac::shadow(HostId(h), t)),
                    Some(row[t as usize])
                );
            }
        }
        assert_eq!(sw.l2_len(), 9, "an overwrite adds no entry");
    }

    #[test]
    fn empty_slot_falls_through_to_ecmp() {
        let mut sw = Switch::new(SwitchId(0));
        sw.install_label_row(HostId(9), &[Switch::EMPTY_SLOT, LinkId(3)]);
        sw.install_ecmp(HostId(9), &[LinkId(1)]);
        let m = Mac::shadow(HostId(9), 0);
        assert_eq!(sw.l2_lookup(m), None);
        assert_eq!(sw.l2_len(), 1);
        assert_eq!(sw.forward(&pkt(1, 0, m), |_| true), Some(LinkId(1)));
        let m1 = Mac::shadow(HostId(9), 1);
        assert_eq!(sw.forward(&pkt(1, 0, m1), |_| true), Some(LinkId(3)));
    }

    #[test]
    fn out_of_range_tree_returns_none() {
        let mut sw = Switch::new(SwitchId(0));
        sw.install_label_row(HostId(9), &[LinkId(2), LinkId(3)]);
        for t in [2, 40] {
            let m = Mac::shadow(HostId(9), t);
            assert_eq!(sw.l2_lookup(m), None);
            assert_eq!(sw.forward(&pkt(1, 0, m), |_| true), None);
        }
        assert_eq!(sw.no_route_drops, 2);
        // Installing past the end pads the row with empty slots.
        sw.install_l2(Mac::shadow(HostId(9), 5), LinkId(4));
        assert_eq!(sw.l2_lookup(Mac::shadow(HostId(9), 5)), Some(LinkId(4)));
        assert_eq!(sw.l2_lookup(Mac::shadow(HostId(9), 3)), None);
        assert_eq!(sw.l2_len(), 3);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const HOSTS: u64 = 6;
        const LINKS: u64 = 8;
        const MAX_TREE: u64 = 41;

        /// A packet to `mac`'s host, so ECMP is keyed like the label.
        fn pkt_to(mac: Mac, sport: u16, flowcell: u64) -> Packet {
            Packet {
                dst_host: mac.dst_host(),
                ..pkt(sport, flowcell, mac)
            }
        }

        fn link(bits: u64) -> LinkId {
            LinkId((bits % LINKS) as u32)
        }

        /// A MAC from `bits`: a host MAC or a shadow label with a tree up
        /// to `MAX_TREE`.
        fn mac(bits: u64) -> Mac {
            let h = HostId((bits % HOSTS) as u32);
            match (bits / HOSTS) % (MAX_TREE + 2) {
                0 => Mac::host(h),
                t => Mac::shadow(h, (t - 1) as u32),
            }
        }

        proptest! {
            /// Random installs and lookups drive the switch and a flat
            /// reference in lockstep: every (MAC → link) entry in one
            /// `BTreeMap`, and a twin switch holding only the same ECMP
            /// groups and failover backups for L2 misses. `l2_lookup`,
            /// `l2_len`, `forward` and the drop count must agree at every
            /// step.
            #[test]
            fn label_rows_match_flat_l2_table(
                ops in prop::collection::vec(0u64..u64::MAX, 1..200),
            ) {
                let mut sw = Switch::new(SwitchId(3));
                let mut ecmp_only = Switch::new(SwitchId(3));
                let mut model: BTreeMap<Mac, LinkId> = BTreeMap::new();
                let mut backup: BTreeMap<LinkId, LinkId> = BTreeMap::new();
                let mut drops = 0u64;
                for (i, &op) in ops.iter().enumerate() {
                    // Low bits pick the operation, the rest its arguments.
                    let arg = op >> 4;
                    match op % 16 {
                        0..=3 => {
                            let (m, out) = (mac(arg), link(arg >> 12));
                            sw.install_l2(m, out);
                            model.insert(m, out);
                        }
                        4 | 5 => {
                            // Short rows over few links, so hosts share.
                            let h = HostId((arg % HOSTS) as u32);
                            let len = (arg >> 4) % 6;
                            let row: Vec<LinkId> = (0..len)
                                .map(|t| match (arg >> (8 + 2 * t)) % 4 {
                                    3 => Switch::EMPTY_SLOT,
                                    l => LinkId(l as u32),
                                })
                                .collect();
                            sw.install_label_row(h, &row);
                            model.retain(|m, _| !(m.is_shadow() && m.dst_host() == h));
                            for (t, &out) in row.iter().enumerate() {
                                if out != Switch::EMPTY_SLOT {
                                    model.insert(Mac::shadow(h, t as u32), out);
                                }
                            }
                        }
                        6 => {
                            let h = HostId((arg % HOSTS) as u32);
                            let n = 1 + (arg >> 4) % 3;
                            let links: Vec<LinkId> = (0..n).map(|j| link((arg >> 8) + j)).collect();
                            sw.install_ecmp(h, &links);
                            ecmp_only.install_ecmp(h, &links);
                        }
                        7 => {
                            let (p, b) = (link(arg), link(arg >> 4));
                            sw.install_failover(p, b);
                            ecmp_only.install_failover(p, b);
                            backup.insert(p, b);
                        }
                        _ => {
                            let m = mac(arg);
                            let down = arg >> 12;
                            let up = |l: LinkId| down & (1 << l.0) == 0;
                            let p = pkt_to(m, (arg >> 20) as u16, arg >> 36);
                            let want = match model.get(&m) {
                                Some(&out) if up(out) => Some(out),
                                Some(out) => backup.get(out).copied().filter(|&b| up(b)),
                                None => ecmp_only.forward(&p, up),
                            };
                            drops += u64::from(want.is_none());
                            prop_assert_eq!(sw.l2_lookup(m), model.get(&m).copied(), "op {} {:?}", i, m);
                            prop_assert_eq!(sw.forward(&p, up), want, "op {} {:?}", i, m);
                            prop_assert_eq!(sw.no_route_drops, drops);
                        }
                    }
                    prop_assert_eq!(sw.l2_len(), model.len(), "op {}", i);
                }
                for (&m, &out) in &model {
                    prop_assert_eq!(sw.l2_lookup(m), Some(out));
                }
            }
        }
    }
}
