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
//! packet is dropped and counted. Backups live in one table the
//! [`Fabric`] owns, indexed by primary link: every link leaves one switch.
//!
//! Every per-host table is indexed by the destination's *host slot*, a
//! dense index `HostSlots` hands out once per host that gets any
//! forwarding entry; all switches of a fabric share that one
//! `HostId → slot` table. A switch keeps, per slot, its host-MAC port,
//! its label row and its ECMP group, each table sized to the slots handed
//! out when it is first written. A fabric where 128 of 8192 hosts talk
//! thus holds 128 entries per table per switch, and no lookup hashes.
//!
//! Shadow labels are not stored one entry per (host, tree): each
//! destination host maps to a *label row*, its egress link per tree, and
//! hosts with equal rows share one stored row. ECMP groups are interned
//! the same way. Installed by the controller, a switch holds one row per
//! local host, one per downward neighbor and one for its uplinks, and one
//! ECMP group per downward neighbor plus its uplink group, however many
//! hosts route over them.
//!
//! [`Fabric`]: crate::Fabric

use presto_simcore::rng::hash_mix;

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

/// The fabric-wide `HostId → slot` table that every switch's per-host
/// tables are indexed by. Slots are dense and handed out in first-install
/// order, so tables cover only the hosts that have forwarding state.
#[derive(Debug, Default)]
pub(crate) struct HostSlots {
    /// Slot per host id; [`HostSlots::NONE`] (or past the end) for a host
    /// with none.
    slot: Vec<u32>,
    /// Slots handed out.
    count: usize,
}

impl HostSlots {
    const NONE: u32 = u32::MAX;

    /// `host`'s slot, or an index past the end of every table if it has
    /// none.
    #[inline]
    pub(crate) fn of(&self, host: HostId) -> usize {
        self.slot.get(host.index()).copied().unwrap_or(Self::NONE) as usize
    }

    /// `host`'s slot, handing out the next one if it has none.
    pub(crate) fn assign(&mut self, host: HostId) -> usize {
        let i = host.index();
        if i >= self.slot.len() {
            self.slot.resize(i + 1, Self::NONE);
        }
        if self.slot[i] == Self::NONE {
            assert!(self.count < Self::NONE as usize, "host slots exhausted");
            self.slot[i] = self.count as u32;
            self.count += 1;
        }
        self.slot[i] as usize
    }
}

/// Sets `table[slot]`. A table too short for `slot` grows to every slot
/// `slots` has handed out, and no further, so slots assigned in bulk size
/// each table with one exact allocation.
fn set_slot<T: Copy>(table: &mut Vec<T>, slots: &HostSlots, slot: usize, none: T, value: T) {
    if slot >= table.len() {
        table.reserve_exact(slots.count - table.len());
        table.resize(slots.count, none);
    }
    table[slot] = value;
}

/// A switch's forwarding state.
#[derive(Debug)]
pub struct Switch {
    /// This switch's identifier.
    pub id: SwitchId,
    /// Per host slot: the egress of the host's own MAC, or
    /// [`Switch::NO_LINK`]. Empty on switches with no host-MAC entry.
    host_ports: Vec<LinkId>,
    /// Per host slot: the index of its label row in `label_rows`, or
    /// [`Switch::NONE`].
    labels: Vec<u32>,
    /// The distinct label rows installed here, back to back. Cell `t` of
    /// a row is the egress of its host's tree-`t` label, or
    /// [`Switch::NO_LINK`]. One flat arena keeps a label lookup one load
    /// past the row's span.
    label_cells: Vec<LinkId>,
    /// The `(start, len)` span of each distinct row in `label_cells`.
    label_rows: Vec<(u32, u32)>,
    /// Per host slot: the index of its ECMP group in `ecmp_groups`, or
    /// [`Switch::NONE`].
    ecmp: Vec<u32>,
    /// The distinct ECMP groups (candidate egress links) installed here.
    ecmp_groups: Vec<Box<[LinkId]>>,
    /// How ECMP groups hash.
    pub ecmp_mode: EcmpMode,
    /// Per-switch hash seed (real deployments perturb the hash per switch
    /// to avoid polarization).
    hash_salt: u64,
    /// Packets dropped because no usable egress existed.
    pub no_route_drops: u64,
}

impl Switch {
    /// Marks "no link": an empty label-row cell, a host with no host-MAC
    /// entry, a link with no failover backup. [`Fabric::add_link`] never
    /// hands out this id.
    ///
    /// [`Fabric::add_link`]: crate::Fabric::add_link
    pub const NO_LINK: LinkId = LinkId(u32::MAX);

    /// Marks a host slot with no label row or no ECMP group.
    const NONE: u32 = u32::MAX;

    /// An empty switch with the given identifier.
    pub(crate) fn new(id: SwitchId) -> Self {
        Switch {
            id,
            host_ports: Vec::new(),
            labels: Vec::new(),
            label_cells: Vec::new(),
            label_rows: Vec::new(),
            ecmp: Vec::new(),
            ecmp_groups: Vec::new(),
            ecmp_mode: EcmpMode::FlowHash,
            hash_salt: hash_mix(0xEC4F, id.0 as u64),
            no_route_drops: 0,
        }
    }

    /// Install (or overwrite) an exact-match L2 entry. A shadow MAC sets
    /// one cell of its host's label row, growing the row with empty cells
    /// up to the tree index. The old row stays stored, so bulk installs go
    /// through [`Switch::install_label_row`].
    ///
    /// # Panics
    /// Panics on a MAC that is neither a host MAC nor a shadow MAC.
    pub(crate) fn install_l2(&mut self, slots: &mut HostSlots, mac: Mac, out: LinkId) {
        let dst = mac.dst_host();
        if !mac.is_shadow() {
            assert_eq!(mac, Mac::host(dst), "not a host or shadow MAC");
            let slot = slots.assign(dst);
            set_slot(&mut self.host_ports, slots, slot, Self::NO_LINK, out);
            return;
        }
        let tree = mac.tree() as usize;
        let mut row = self.label_row(slots.of(dst)).to_vec();
        if row.len() <= tree {
            row.resize(tree + 1, Self::NO_LINK);
        }
        row[tree] = out;
        self.install_label_row(slots, dst, &row);
    }

    /// Install (or replace) every shadow label of `dst` at once: `row[t]`
    /// is the egress of its tree-`t` label, [`Switch::NO_LINK`] for none.
    /// Hosts with equal rows share one stored row.
    pub(crate) fn install_label_row(&mut self, slots: &mut HostSlots, dst: HostId, row: &[LinkId]) {
        // Scan newest first: installs arrive grouped by destination, so
        // the row just created is the likeliest match.
        let id = match self.label_rows.iter().rposition(|&r| self.cells(r) == row) {
            Some(id) => id,
            None => {
                let span = (self.label_cells.len() as u32, row.len() as u32);
                self.label_cells.extend_from_slice(row);
                self.label_rows.push(span);
                self.label_rows.len() - 1
            }
        };
        let slot = slots.assign(dst);
        set_slot(&mut self.labels, slots, slot, Self::NONE, id as u32);
    }

    /// The label row of the host in `slot`; empty if none is installed.
    #[inline]
    fn label_row(&self, slot: usize) -> &[LinkId] {
        self.labels
            .get(slot)
            .and_then(|&id| self.label_rows.get(id as usize))
            .map_or(&[], |&span| self.cells(span))
    }

    /// The cells of the row stored at `(start, len)`.
    #[inline]
    fn cells(&self, (start, len): (u32, u32)) -> &[LinkId] {
        &self.label_cells[start as usize..(start + len) as usize]
    }

    /// Number of distinct label rows stored, including any no host uses
    /// any more.
    pub fn label_row_count(&self) -> usize {
        self.label_rows.len()
    }

    /// Host slots the label-row table has room for: the slots handed out
    /// when its first label was installed, 0 before.
    pub fn label_slots(&self) -> usize {
        self.labels.capacity()
    }

    /// Host slots the ECMP table has room for: the slots handed out when
    /// its first group was installed, 0 before.
    pub fn ecmp_slots(&self) -> usize {
        self.ecmp.capacity()
    }

    /// The exact-match entry for `mac`, whose host is in `slot`.
    #[inline]
    pub(crate) fn l2_at(&self, slot: usize, mac: Mac) -> Option<LinkId> {
        let out = if mac.is_shadow() {
            *self.label_row(slot).get(mac.tree() as usize)?
        } else if mac == Mac::host(mac.dst_host()) {
            *self.host_ports.get(slot)?
        } else {
            return None;
        };
        (out != Self::NO_LINK).then_some(out)
    }

    /// Number of installed L2 entries: one per host MAC and one per
    /// (host, tree) label.
    pub fn l2_len(&self) -> usize {
        let filled = |cells: &[LinkId]| cells.iter().filter(|&&l| l != Self::NO_LINK).count();
        let labels: usize = (0..self.labels.len())
            .map(|slot| filled(self.label_row(slot)))
            .sum();
        filled(&self.host_ports) + labels
    }

    /// Install (or replace) the ECMP group towards `dst`. Hosts routed
    /// over the same links share one stored group.
    pub(crate) fn install_ecmp(&mut self, slots: &mut HostSlots, dst: HostId, links: &[LinkId]) {
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
        let slot = slots.assign(dst);
        set_slot(&mut self.ecmp, slots, slot, Self::NONE, id as u32);
    }

    /// The ECMP group of the host in `slot`, if any.
    #[inline]
    pub(crate) fn group_at(&self, slot: usize) -> Option<&[LinkId]> {
        let &id = self.ecmp.get(slot)?;
        self.ecmp_groups.get(id as usize).map(|g| &**g)
    }

    /// Select the egress link for `pkt`, resolving its destination through
    /// `slots`. `failover[l]` is the backup of link `l` ([`Switch::NO_LINK`]
    /// or past the end for none), and `link_up` reports liveness, so the
    /// switch applies fast failover / ECMP re-hashing exactly when the
    /// chosen port is dead. Returns `None` (and counts a drop) when no
    /// usable egress exists.
    #[inline]
    pub(crate) fn forward(
        &mut self,
        pkt: &Packet,
        slots: &HostSlots,
        failover: &[LinkId],
        link_up: impl Fn(LinkId) -> bool,
    ) -> Option<LinkId> {
        let mac_host = pkt.dst_mac.dst_host();
        let slot = slots.of(mac_host);
        // 1. Exact-match L2 (shadow MACs and directly attached hosts).
        if let Some(out) = self.l2_at(slot, pkt.dst_mac) {
            if link_up(out) {
                return Some(out);
            }
            // Fast-failover group, if configured and alive.
            if let Some(&backup) = failover.get(out.index()) {
                if backup != Self::NO_LINK && link_up(backup) {
                    return Some(backup);
                }
            }
            self.no_route_drops += 1;
            return None;
        }
        // 2. ECMP group towards the destination host (the MAC's host, bar
        // a packet whose two disagree).
        let dst = pkt.flow.dst;
        let slot = if dst == mac_host { slot } else { slots.of(dst) };
        if let Some(links) = self.group_at(slot) {
            let key = match self.ecmp_mode {
                EcmpMode::FlowHash => pkt.flow.digest(),
                EcmpMode::FlowcellHash => hash_mix(pkt.flow.digest(), pkt.flowcell()),
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
    use crate::fabric::Fabric;
    use crate::ids::Node;
    use crate::link::LinkConfig;
    use crate::packet::{FlowKey, PacketKind};
    use presto_simcore::SimDuration;

    fn pkt(sport: u16, flowcell: u64, dst_mac: Mac) -> Packet {
        let kind = PacketKind::Data {
            seq: 0,
            len: 1460,
            retx: false,
        };
        Packet::new(
            FlowKey::new(HostId(0), HostId(9), sport, 80),
            dst_mac,
            flowcell,
            kind,
        )
    }

    /// A fabric of one switch with egress links `LinkId(0)..LinkId(n)`.
    fn one_switch(n: u32) -> (Fabric, SwitchId) {
        let mut f = Fabric::new();
        let sw = f.add_switch();
        for h in 0..n {
            f.add_link(
                Node::Switch(sw),
                Node::Host(HostId(h)),
                LinkConfig::new(10_000_000_000, SimDuration::from_micros(1), 1 << 20),
            );
        }
        (f, sw)
    }

    /// Mark down exactly the links whose bit is set in `down`.
    fn set_down(f: &mut Fabric, down: u64) {
        for l in 0..f.links().len() {
            if down >> l & 1 == 1 {
                f.set_link_down(LinkId(l as u32));
            } else {
                f.set_link_up(LinkId(l as u32));
            }
        }
    }

    #[test]
    fn l2_exact_match_wins() {
        let (mut f, sw) = one_switch(4);
        f.install_l2(sw, Mac::shadow(HostId(9), 1), LinkId(3));
        f.install_ecmp(sw, HostId(9), &[LinkId(1), LinkId(2)]);
        let p = pkt(1, 0, Mac::shadow(HostId(9), 1));
        assert_eq!(f.route(sw, &p), Some(LinkId(3)));
    }

    #[test]
    fn ecmp_is_deterministic_per_flow() {
        let (mut f, sw) = one_switch(4);
        f.install_ecmp(sw, HostId(9), &[LinkId(0), LinkId(1), LinkId(2), LinkId(3)]);
        let p = pkt(7, 0, Mac::host(HostId(9)));
        let first = f.route(sw, &p).unwrap();
        for _ in 0..20 {
            assert_eq!(f.route(sw, &p), Some(first));
        }
        // Different flowcells do NOT change the path in FlowHash mode.
        let p2 = pkt(7, 5, Mac::host(HostId(9)));
        assert_eq!(f.route(sw, &p2), Some(first));
    }

    #[test]
    fn ecmp_spreads_across_flows() {
        let (mut f, sw) = one_switch(4);
        let links: Vec<LinkId> = (0..4).map(LinkId).collect();
        f.install_ecmp(sw, HostId(9), &links);
        let mut used = std::collections::HashSet::new();
        for sport in 0..64 {
            used.insert(f.route(sw, &pkt(sport, 0, Mac::host(HostId(9)))).unwrap());
        }
        assert_eq!(used.len(), 4, "64 flows should hit all 4 links");
    }

    #[test]
    fn flowcell_hash_mode_sprays_one_flow() {
        let (mut f, sw) = one_switch(4);
        f.switch_mut(sw).ecmp_mode = EcmpMode::FlowcellHash;
        let links: Vec<LinkId> = (0..4).map(LinkId).collect();
        f.install_ecmp(sw, HostId(9), &links);
        let mut used = std::collections::HashSet::new();
        for cell in 0..64 {
            used.insert(f.route(sw, &pkt(7, cell, Mac::host(HostId(9)))).unwrap());
        }
        assert_eq!(used.len(), 4, "one flow's flowcells should hit all links");
    }

    #[test]
    fn failover_redirects_on_dead_primary() {
        let (mut f, sw) = one_switch(3);
        f.install_l2(sw, Mac::shadow(HostId(9), 0), LinkId(1));
        f.install_failover(LinkId(1), LinkId(2));
        assert_eq!(f.switch(sw).failover_backup(LinkId(1)), Some(LinkId(2)));
        assert_eq!(f.switch(sw).failover_backup(LinkId(2)), None);
        let p = pkt(1, 0, Mac::shadow(HostId(9), 0));
        set_down(&mut f, 0b010);
        assert_eq!(f.route(sw, &p), Some(LinkId(2)));
        // Both dead: drop.
        set_down(&mut f, 0b111);
        assert_eq!(f.route(sw, &p), None);
        assert_eq!(f.switch(sw).no_route_drops, 1);
    }

    #[test]
    fn failover_backups_belong_to_the_primary_switch() {
        let (mut f, a) = one_switch(2);
        let b = f.add_switch();
        f.install_failover(LinkId(0), LinkId(1));
        assert_eq!(f.switch(a).failover_backup(LinkId(0)), Some(LinkId(1)));
        assert_eq!(f.switch(b).failover_backup(LinkId(0)), None);
    }

    #[test]
    fn ecmp_rehashes_around_dead_link() {
        let (mut f, sw) = one_switch(2);
        f.install_ecmp(sw, HostId(9), &[LinkId(0), LinkId(1)]);
        set_down(&mut f, 0b01);
        for sport in 0..16 {
            let p = pkt(sport, 0, Mac::host(HostId(9)));
            assert_eq!(f.route(sw, &p), Some(LinkId(1)));
        }
    }

    #[test]
    fn hosts_over_the_same_links_share_one_group() {
        let (mut f, sw) = one_switch(3);
        let ups = [LinkId(0), LinkId(1)];
        for h in 0..8 {
            f.install_ecmp(sw, HostId(h), &ups);
        }
        f.install_ecmp(sw, HostId(8), &[LinkId(2)]);
        f.install_ecmp(sw, HostId(9), &ups);
        assert_eq!(f.switch(sw).ecmp_groups.len(), 2);
        assert_eq!(f.switch(sw).ecmp_group(HostId(9)), Some(&ups[..]));
        // Re-installing a host moves it to the new group.
        f.install_ecmp(sw, HostId(0), &[LinkId(2)]);
        assert_eq!(f.switch(sw).ecmp_group(HostId(0)), Some(&[LinkId(2)][..]));
        assert_eq!(f.switch(sw).ecmp_groups.len(), 2);
    }

    #[test]
    fn no_route_counts_drop() {
        let (mut f, sw) = one_switch(1);
        let p = pkt(1, 0, Mac::host(HostId(9)));
        assert_eq!(f.route(sw, &p), None);
        assert_eq!(f.switch(sw).no_route_drops, 1);
    }

    #[test]
    fn l2_install_overwrite_roundtrip() {
        let (mut f, sw) = one_switch(7);
        for m in [Mac::shadow(HostId(1), 2), Mac::host(HostId(1))] {
            f.install_l2(sw, m, LinkId(5));
            assert_eq!(f.switch(sw).l2_lookup(m), Some(LinkId(5)));
            // Overwriting replaces the entry in place.
            f.install_l2(sw, m, LinkId(6));
            assert_eq!(f.switch(sw).l2_lookup(m), Some(LinkId(6)));
        }
        assert_eq!(f.switch(sw).l2_len(), 2);
        // The host's other trees have no entry.
        assert_eq!(f.switch(sw).l2_lookup(Mac::shadow(HostId(1), 0)), None);
        // A MAC with stray bits is not the host's MAC.
        assert_eq!(f.switch(sw).l2_lookup(Mac(1 << 32 | 1)), None);
    }

    #[test]
    #[should_panic(expected = "not a host or shadow MAC")]
    fn stray_macs_are_not_installable() {
        let (mut f, sw) = one_switch(1);
        f.install_l2(sw, Mac(1 << 32 | 1), LinkId(0));
    }

    #[test]
    fn hosts_with_equal_label_rows_share_one_row() {
        let (mut f, sw) = one_switch(4);
        let ups = [LinkId(0), LinkId(1), LinkId(2)];
        for h in 0..8 {
            f.install_label_row(sw, HostId(h), &ups);
        }
        f.install_label_row(sw, HostId(8), &[LinkId(3); 3]);
        f.install_label_row(sw, HostId(9), &ups);
        let s = f.switch(sw);
        assert_eq!(s.label_row_count(), 2);
        assert_eq!(s.l2_len(), 10 * 3);
        for t in 0..3 {
            assert_eq!(
                s.l2_lookup(Mac::shadow(HostId(9), t)),
                Some(ups[t as usize])
            );
            assert_eq!(s.l2_lookup(Mac::shadow(HostId(8), t)), Some(LinkId(3)));
        }
        // Re-installing a host moves it to the other row.
        f.install_label_row(sw, HostId(0), &[LinkId(3); 3]);
        let s = f.switch(sw);
        assert_eq!(s.l2_lookup(Mac::shadow(HostId(0), 1)), Some(LinkId(3)));
        assert_eq!(s.label_row_count(), 2);
        assert_eq!(s.l2_len(), 10 * 3);
    }

    #[test]
    fn overwriting_one_tree_unshares_only_that_host() {
        let (mut f, sw) = one_switch(8);
        let row = [LinkId(1), LinkId(2), LinkId(3)];
        for h in 0..3 {
            f.install_label_row(sw, HostId(h), &row);
        }
        f.install_l2(sw, Mac::shadow(HostId(1), 1), LinkId(7));
        let s = f.switch(sw);
        assert_eq!(s.label_row_count(), 2);
        assert_eq!(s.l2_lookup(Mac::shadow(HostId(1), 1)), Some(LinkId(7)));
        assert_eq!(s.l2_lookup(Mac::shadow(HostId(1), 2)), Some(LinkId(3)));
        for h in [0, 2] {
            for t in 0..3 {
                assert_eq!(
                    s.l2_lookup(Mac::shadow(HostId(h), t)),
                    Some(row[t as usize])
                );
            }
        }
        assert_eq!(s.l2_len(), 9, "an overwrite adds no entry");
    }

    #[test]
    fn empty_cell_falls_through_to_ecmp() {
        let (mut f, sw) = one_switch(4);
        f.install_label_row(sw, HostId(9), &[Switch::NO_LINK, LinkId(3)]);
        f.install_ecmp(sw, HostId(9), &[LinkId(1)]);
        let m = Mac::shadow(HostId(9), 0);
        assert_eq!(f.switch(sw).l2_lookup(m), None);
        assert_eq!(f.switch(sw).l2_len(), 1);
        assert_eq!(f.route(sw, &pkt(1, 0, m)), Some(LinkId(1)));
        let m1 = Mac::shadow(HostId(9), 1);
        assert_eq!(f.route(sw, &pkt(1, 0, m1)), Some(LinkId(3)));
    }

    #[test]
    fn out_of_range_tree_returns_none() {
        let (mut f, sw) = one_switch(5);
        f.install_label_row(sw, HostId(9), &[LinkId(2), LinkId(3)]);
        for t in [2, 40] {
            let m = Mac::shadow(HostId(9), t);
            assert_eq!(f.switch(sw).l2_lookup(m), None);
            assert_eq!(f.route(sw, &pkt(1, 0, m)), None);
        }
        assert_eq!(f.switch(sw).no_route_drops, 2);
        // Installing past the end pads the row with empty cells.
        f.install_l2(sw, Mac::shadow(HostId(9), 5), LinkId(4));
        let s = f.switch(sw);
        assert_eq!(s.l2_lookup(Mac::shadow(HostId(9), 5)), Some(LinkId(4)));
        assert_eq!(s.l2_lookup(Mac::shadow(HostId(9), 3)), None);
        assert_eq!(s.l2_len(), 3);
    }

    #[test]
    fn tables_hold_the_slots_handed_out() {
        let (mut f, sw) = one_switch(2);
        let hosts = [HostId(8191), HostId(5), HostId(4096)];
        f.assign_host_slots(hosts);
        assert_eq!(
            (f.switch(sw).label_slots(), f.switch(sw).ecmp_slots()),
            (0, 0)
        );
        f.install_ecmp(sw, HostId(5), &[LinkId(0)]);
        assert_eq!(
            (f.switch(sw).label_slots(), f.switch(sw).ecmp_slots()),
            (0, 3)
        );
        f.install_label_row(sw, HostId(8191), &[LinkId(1)]);
        assert_eq!(f.switch(sw).label_slots(), 3);
        // A host without a slot gets the next one, and a table grows to it
        // at its next write.
        f.install_ecmp(sw, HostId(7), &[LinkId(1)]);
        assert_eq!(
            (f.switch(sw).label_slots(), f.switch(sw).ecmp_slots()),
            (3, 4)
        );
        assert_eq!(f.switch(sw).ecmp_group(HostId(7)), Some(&[LinkId(1)][..]));
        assert_eq!(f.switch(sw).ecmp_group(HostId(4096)), None);
        assert_eq!(f.switch(sw).ecmp_group(HostId(9000)), None);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const HOSTS: usize = 6;
        const LINKS: u32 = 8;
        const MAX_TREE: u64 = 41;

        fn link(bits: u64) -> LinkId {
            LinkId((bits % LINKS as u64) as u32)
        }

        proptest! {
            /// Random installs and lookups, for a few sparse host ids up to
            /// 8191 in any order, drive a one-switch fabric and a flat
            /// reference in lockstep: every (MAC → link) entry in one
            /// `BTreeMap`, the ECMP groups and failover backups in two
            /// more, and a twin fabric holding only the same groups and
            /// backups for the exact hash pick on L2 misses. `l2_lookup`,
            /// `l2_len`, `ecmp_group`, `failover_backup`, `route` and the
            /// drop count must agree at every step.
            #[test]
            fn slot_tables_match_flat_l2_table(
                ids in prop::collection::vec(0u32..8192, HOSTS..HOSTS + 1),
                ops in prop::collection::vec(0u64..u64::MAX, 1..200),
            ) {
                let host = |bits: u64| HostId(ids[(bits % HOSTS as u64) as usize]);
                // A host MAC or a shadow label with a tree up to MAX_TREE.
                let mac = |bits: u64| match (bits / HOSTS as u64) % (MAX_TREE + 2) {
                    0 => Mac::host(host(bits)),
                    t => Mac::shadow(host(bits), (t - 1) as u32),
                };
                let (mut f, sw) = one_switch(LINKS);
                let (mut ecmp_only, _) = one_switch(LINKS);
                let mut model: BTreeMap<Mac, LinkId> = BTreeMap::new();
                let mut groups: BTreeMap<HostId, Vec<LinkId>> = BTreeMap::new();
                let mut backup: BTreeMap<LinkId, LinkId> = BTreeMap::new();
                let mut drops = 0u64;
                for (i, &op) in ops.iter().enumerate() {
                    // Low bits pick the operation, the rest its arguments.
                    let arg = op >> 4;
                    match op % 16 {
                        0..=3 => {
                            let (m, out) = (mac(arg), link(arg >> 12));
                            f.install_l2(sw, m, out);
                            model.insert(m, out);
                        }
                        4 | 5 => {
                            // Short rows over few links, so hosts share.
                            let h = host(arg);
                            let len = (arg >> 4) % 6;
                            let row: Vec<LinkId> = (0..len)
                                .map(|t| match (arg >> (8 + 2 * t)) % 4 {
                                    3 => Switch::NO_LINK,
                                    l => LinkId(l as u32),
                                })
                                .collect();
                            f.install_label_row(sw, h, &row);
                            model.retain(|m, _| !(m.is_shadow() && m.dst_host() == h));
                            for (t, &out) in row.iter().enumerate() {
                                if out != Switch::NO_LINK {
                                    model.insert(Mac::shadow(h, t as u32), out);
                                }
                            }
                        }
                        6 => {
                            let h = host(arg);
                            let n = 1 + (arg >> 4) % 3;
                            let links: Vec<LinkId> = (0..n).map(|j| link((arg >> 8) + j)).collect();
                            f.install_ecmp(sw, h, &links);
                            ecmp_only.install_ecmp(sw, h, &links);
                            groups.insert(h, links);
                        }
                        7 => {
                            let (p, b) = (link(arg), link(arg >> 4));
                            f.install_failover(p, b);
                            ecmp_only.install_failover(p, b);
                            backup.insert(p, b);
                        }
                        _ => {
                            let m = mac(arg);
                            let down = arg >> 12;
                            set_down(&mut f, down);
                            set_down(&mut ecmp_only, down);
                            let up = |l: LinkId| down & (1 << l.0) == 0;
                            // One packet in four heads for another host
                            // than its MAC names; ECMP keys on the host.
                            let dst = match (arg >> 40) % 4 {
                                0 => host(arg >> 42),
                                _ => m.dst_host(),
                            };
                            let mut p = pkt((arg >> 20) as u16, arg >> 36, m);
                            p.flow.dst = dst;
                            let want = match model.get(&m) {
                                Some(&out) if up(out) => Some(out),
                                Some(out) => backup.get(out).copied().filter(|&b| up(b)),
                                None => {
                                    let pick = ecmp_only.route(sw, &p);
                                    let live = groups.get(&dst).map_or(&[][..], |g| g).iter().copied().filter(|&l| up(l));
                                    prop_assert_eq!(pick.is_some(), live.clone().count() > 0, "op {}", i);
                                    prop_assert!(pick.is_none_or(|l| live.clone().any(|g| g == l)), "op {}", i);
                                    pick
                                }
                            };
                            drops += u64::from(want.is_none());
                            prop_assert_eq!(f.switch(sw).l2_lookup(m), model.get(&m).copied(), "op {} {:?}", i, m);
                            prop_assert_eq!(f.route(sw, &p), want, "op {} {:?}", i, m);
                            prop_assert_eq!(f.switch(sw).no_route_drops, drops);
                        }
                    }
                    prop_assert_eq!(f.switch(sw).l2_len(), model.len(), "op {}", i);
                }
                let s = f.switch(sw);
                for (&m, &out) in &model {
                    prop_assert_eq!(s.l2_lookup(m), Some(out));
                }
                for &h in &ids {
                    let h = HostId(h);
                    prop_assert_eq!(s.ecmp_group(h), groups.get(&h).map(|g| &g[..]));
                }
                for l in 0..LINKS {
                    let l = LinkId(l);
                    prop_assert_eq!(s.failover_backup(l), backup.get(&l).copied());
                }
            }
        }
    }
}
