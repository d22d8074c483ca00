//! The flat structural tables behind [`Topology`]'s adjacency queries.
//!
//! [`Topology`]: super::Topology

use crate::ids::{LinkId, SwitchId};

/// Directional parallel-link groups in one flat table: each source
/// switch's groups sorted by destination switch, each group's links in
/// construction order.
#[derive(Debug)]
pub(super) struct PairLinks {
    /// Switch `a`'s groups are `groups[by_src[a]..by_src[a + 1]]`.
    by_src: Vec<u32>,
    /// `(b, end)` per group: the group from its source to `b` is
    /// `links[start..end]`, where `start` is the previous group's end (0
    /// for the first group).
    groups: Vec<(SwitchId, u32)>,
    /// Every group's links, back to back.
    links: Vec<LinkId>,
}

impl PairLinks {
    /// The table of `n_sw` switches' `(a, b, link)` links, given in
    /// construction order.
    pub(super) fn new(n_sw: usize, mut pairs: Vec<(SwitchId, SwitchId, LinkId)>) -> Self {
        // Stable: a pair's links keep their construction order.
        pairs.sort_by_key(|&(a, b, _)| (a, b));
        let mut by_src = vec![0u32; n_sw + 1];
        let mut groups: Vec<(SwitchId, u32)> = Vec::new();
        for (i, &(a, b, _)) in pairs.iter().enumerate() {
            if i == 0 || (pairs[i - 1].0, pairs[i - 1].1) != (a, b) {
                groups.push((b, 0));
                by_src[a.index() + 1] += 1;
            }
            groups.last_mut().expect("pushed above").1 = i as u32 + 1;
        }
        for i in 0..n_sw {
            by_src[i + 1] += by_src[i];
        }
        PairLinks {
            by_src,
            groups,
            links: pairs.into_iter().map(|(_, _, l)| l).collect(),
        }
    }

    /// The parallel-link group from `a` to `b` (empty if not adjacent).
    pub(super) fn get(&self, a: SwitchId, b: SwitchId) -> &[LinkId] {
        let Some(&[lo, hi]) = self.by_src.get(a.index()..a.index() + 2) else {
            return &[];
        };
        let (lo, hi) = (lo as usize, hi as usize);
        match self.groups[lo..hi].binary_search_by_key(&b, |&(to, _)| to) {
            Ok(i) => {
                let g = lo + i;
                let start = g.checked_sub(1).map_or(0, |p| self.groups[p].1);
                &self.links[start as usize..self.groups[g].1 as usize]
            }
            Err(_) => &[],
        }
    }
}

/// Which switches sit strictly below which: one bit per ordered switch
/// pair, each switch's row packed into `u64` words.
#[derive(Debug)]
pub(super) struct DownClosure {
    /// Words per row.
    words: usize,
    bits: Vec<u64>,
}

impl DownClosure {
    /// An empty relation over `n_sw` switches.
    pub(super) fn new(n_sw: usize) -> Self {
        let words = n_sw.div_ceil(64);
        DownClosure {
            words,
            bits: vec![0; n_sw * words],
        }
    }

    /// True if `desc` is below `anc`.
    pub(super) fn get(&self, anc: SwitchId, desc: SwitchId) -> bool {
        let (w, b) = (desc.index() / 64, desc.index() % 64);
        self.bits[anc.index() * self.words + w] >> b & 1 == 1
    }

    /// Record that `desc`, and everything below it, is below `anc`.
    pub(super) fn add_subtree(&mut self, anc: SwitchId, desc: SwitchId) {
        let (a, d) = (anc.index() * self.words, desc.index() * self.words);
        for w in 0..self.words {
            self.bits[a + w] |= self.bits[d + w];
        }
        self.bits[a + desc.index() / 64] |= 1 << (desc.index() % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_groups_keep_construction_order() {
        let s = SwitchId;
        let l = LinkId;
        let pairs = vec![
            (s(2), s(0), l(5)),
            (s(0), s(2), l(4)),
            (s(0), s(1), l(9)),
            (s(0), s(2), l(1)),
            (s(0), s(1), l(3)),
        ];
        let t = PairLinks::new(3, pairs);
        assert_eq!(t.get(s(0), s(1)), &[l(9), l(3)]);
        assert_eq!(t.get(s(0), s(2)), &[l(4), l(1)]);
        assert_eq!(t.get(s(2), s(0)), &[l(5)]);
        assert!(t.get(s(1), s(0)).is_empty());
        assert!(t.get(s(2), s(1)).is_empty());
        assert!(t.get(s(7), s(0)).is_empty());
    }

    #[test]
    fn closure_spans_word_boundaries() {
        let s = SwitchId;
        let mut c = DownClosure::new(130);
        c.add_subtree(s(64), s(129));
        c.add_subtree(s(0), s(64));
        assert!(c.get(s(0), s(64)) && c.get(s(0), s(129)));
        assert!(c.get(s(64), s(129)));
        assert!(!c.get(s(64), s(0)) && !c.get(s(129), s(64)) && !c.get(s(0), s(1)));
    }
}
