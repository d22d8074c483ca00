//! Identifiers for fabric entities.
//!
//! Hosts, switches and (unidirectional) links are referenced by small
//! integer newtypes; MAC addresses are opaque 64-bit labels, which is all
//! that shadow-MAC label switching requires (the paper's shadow MACs are
//! "opaque forwarding labels" installed in L2 tables, §3.1).

use std::fmt;

/// A host (server) attachment point on the fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

/// A switch in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SwitchId(pub u32);

/// A unidirectional link; each physical cable is modeled as two of these.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

impl HostId {
    /// Index into host-keyed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SwitchId {
    /// Index into switch-keyed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Index into link-keyed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Either endpoint kind of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// A switch port.
    Switch(SwitchId),
    /// A host NIC.
    Host(HostId),
}

/// An Ethernet address, treated as an opaque 64-bit forwarding label.
///
/// Real host MACs and shadow MACs share this type; the controller keeps
/// them distinct via [`Mac::host`] and [`Mac::shadow`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mac(pub u64);

const SHADOW_BIT: u64 = 1 << 63;

impl Mac {
    /// The real MAC address of a host NIC.
    #[inline]
    pub const fn host(h: HostId) -> Mac {
        Mac(h.0 as u64)
    }

    /// The shadow MAC assigned to destination host `h` in spanning tree
    /// `tree`. One label per (host, tree) pair, as in §3.1.
    #[inline]
    pub const fn shadow(h: HostId, tree: u32) -> Mac {
        Mac(SHADOW_BIT | ((tree as u64) << 32) | h.0 as u64)
    }

    /// Whether this is a shadow (label) MAC rather than a real host MAC.
    #[inline]
    pub const fn is_shadow(self) -> bool {
        self.0 & SHADOW_BIT != 0
    }

    /// The host a shadow or host MAC addresses.
    #[inline]
    pub const fn dst_host(self) -> HostId {
        HostId((self.0 & 0xFFFF_FFFF) as u32)
    }

    /// The spanning tree of a shadow MAC (0 for host MACs).
    #[inline]
    pub const fn tree(self) -> u32 {
        ((self.0 >> 32) & 0x7FFF_FFFF) as u32
    }
}

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_shadow() {
            write!(f, "shadow(h{},t{})", self.dst_host().0, self.tree())
        } else {
            write!(f, "mac(h{})", self.dst_host().0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_macs_are_not_shadow() {
        let m = Mac::host(HostId(7));
        assert!(!m.is_shadow());
        assert_eq!(m.dst_host(), HostId(7));
        assert_eq!(m.tree(), 0);
    }

    #[test]
    fn shadow_macs_encode_host_and_tree() {
        let m = Mac::shadow(HostId(12), 3);
        assert!(m.is_shadow());
        assert_eq!(m.dst_host(), HostId(12));
        assert_eq!(m.tree(), 3);
    }

    #[test]
    fn shadow_macs_are_unique_per_host_tree() {
        let mut seen = std::collections::HashSet::new();
        for h in 0..64 {
            for t in 0..8 {
                assert!(seen.insert(Mac::shadow(HostId(h), t)));
            }
        }
        // And never collide with host MACs.
        for h in 0..64 {
            assert!(seen.insert(Mac::host(HostId(h))));
        }
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", Mac::host(HostId(1))), "mac(h1)");
        assert_eq!(format!("{:?}", Mac::shadow(HostId(1), 2)), "shadow(h1,t2)");
    }
}
