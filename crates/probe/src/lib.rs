//! Receiver-load probing: per-host load signals and the hot/cold probe pool.
//!
//! Presto's vSwitch sprays flowcells with *static* weighted round-robin —
//! it never looks at how busy the receiver (or the path's last hop) is.
//! Prequal (NSDI'24) showed that probing **requests-in-flight** and
//! **latency**, then routing to *cold* destinations under the hot-cold
//! lexicographic (HCL) rule, beats load-oblivious balancing exactly where
//! spraying is weakest: converged last hops and skewed receiver load.
//!
//! This crate is the signal layer shared by the simulator and the
//! `prequal` edge policy in `presto-lb`:
//!
//! * [`ProbeParams`] — the probe cadence, pool capacity and staleness
//!   bound. These are canonical scenario inputs: they flow into scenario
//!   fingerprints via the policy's pinned name, so two runs with
//!   different probe knobs can never alias in the lab store.
//! * [`HostLoad`] — one probe response: requests/bytes in flight at the
//!   destination host, its NIC send-queue depth, and the estimated drain
//!   latency of that queue.
//! * [`HclPool`] — a bounded pool of `(path tree, destination)` entries
//!   with oldest-first eviction when full and staleness-based expiry,
//!   classified by the HCL rule: *cold* entries are ranked by latency,
//!   *hot* entries (requests-in-flight above the pool median) by RIF.
//! * [`PoolStats`] — exact integer occupancy counters, aggregated into
//!   the run [`Report`](../presto_testbed/report/struct.Report.html) so
//!   pool behaviour is digest-checked like every other output.
//!
//! Nothing here schedules events or touches packets: probes are modeled
//! as out-of-band control-plane reads (like the controller's path
//! feedback), issued by the simulator **only when a policy opts in** via
//! `EdgePolicy::probe_params`. With no opt-in, no probe event is ever
//! scheduled and every digest is byte-identical to a build without this
//! crate.

use std::cell::{Cell, RefCell};

use presto_netsim::HostId;
use presto_simcore::{SimDuration, SimTime};

/// Pseudo-tree id for destinations reached without shadow-MAC labels
/// (same-leaf traffic and single-switch topologies travel "direct").
pub const DIRECT_TREE: u32 = u32::MAX;

/// Probe cadence and pool sizing for a load-aware policy.
///
/// Carried inside `PolicyKind::Prequal`, so all three knobs are part of
/// the pinned canonical policy text (`prequal:<every_ns>:<pool>:<staleness_ns>`)
/// and therefore of every scenario fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProbeParams {
    /// Interval between probe rounds (also the path-feedback period the
    /// policy advertises, so tree EWMA scores refresh at the same rate).
    pub every: SimDuration,
    /// Pool capacity: the maximum number of `(tree, destination)` entries
    /// kept, and the number of destinations probed per round.
    pub pool: usize,
    /// Entries older than this are evicted before every classification
    /// pass; a stale signal is worse than no signal.
    pub staleness: SimDuration,
}

impl Default for ProbeParams {
    fn default() -> Self {
        ProbeParams {
            every: SimDuration::from_micros(100),
            pool: 32,
            staleness: SimDuration::from_millis(1),
        }
    }
}

/// One probe response: the load signals a destination host exposes.
///
/// All fields are exact integers read from simulator state, never floats,
/// so probe rounds are bit-reproducible at any worker count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HostLoad {
    /// The probed host.
    pub host: HostId,
    /// Requests in flight: open TCP connections this host is currently
    /// sourcing (the Prequal RIF signal, with the host as a *server*
    /// sending responses).
    pub rif: u64,
    /// Unacknowledged bytes across those connections (bounded flows only;
    /// elephants show up through `queue_bytes` instead).
    pub bytes_in_flight: u64,
    /// Occupancy of the host's NIC send queue (its fabric uplink), in
    /// bytes — the "NIC queue depth" signal.
    pub queue_bytes: u64,
    /// Estimated drain latency of that send queue at line rate, in
    /// nanoseconds. `u64::MAX / 2` when the uplink is down.
    pub latency_ns: u64,
}

/// How the HCL rule ranks a `(tree, destination)` pair.
///
/// The lexicographic order is `Cold < Unknown < Hot`: prefer a probed-cold
/// path, then an unprobed one (optimism keeps the default spray alive),
/// and only then a probed-hot path — least-loaded first within each band.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PoolClass {
    /// Probed and at-or-below the pool's median requests-in-flight;
    /// ranked by estimated latency.
    Cold {
        /// Estimated queue-drain latency from the freshest probe.
        latency_ns: u64,
    },
    /// No fresh probe for this pair; callers fall back to their static
    /// order (round-robin cursor or candidate index).
    Unknown,
    /// Probed and above the pool's median requests-in-flight; ranked by
    /// RIF so the least-overloaded hot entry wins if nothing is cold.
    Hot {
        /// Requests in flight from the freshest probe.
        rif: u64,
    },
}

impl PoolClass {
    /// The lexicographic band: 0 cold, 1 unknown, 2 hot.
    #[inline]
    pub fn band(self) -> u8 {
        match self {
            PoolClass::Cold { .. } => 0,
            PoolClass::Unknown => 1,
            PoolClass::Hot { .. } => 2,
        }
    }

    /// The within-band metric (latency for cold, RIF for hot, 0 for
    /// unknown — unknown ties are broken by the caller's static order).
    #[inline]
    pub fn metric(self) -> u64 {
        match self {
            PoolClass::Cold { latency_ns } => latency_ns,
            PoolClass::Unknown => 0,
            PoolClass::Hot { rif } => rif,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    updated_at: SimTime,
    /// `(tree, host)` packed as `tree << 32 | host`, so comparing keys
    /// compares `(tree, host)` lexicographically.
    key: u64,
    rif: u64,
    latency_ns: u64,
}

impl Entry {
    /// The eviction order: stalest first, ties on smallest `(tree, host)`.
    /// Keys are unique within a pool, so this order is total.
    #[inline]
    fn order(&self) -> (SimTime, u64) {
        (self.updated_at, self.key)
    }

    #[inline]
    fn host(&self) -> HostId {
        HostId(self.key as u32)
    }
}

#[inline]
fn pack(tree: u32, host: HostId) -> u64 {
    (tree as u64) << 32 | host.0 as u64
}

/// Exact integer occupancy counters for a probe pool.
///
/// Summed across hosts into the run report and folded into digests only
/// when probing actually ran, so load-oblivious runs are unaffected.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Probe rounds this pool has absorbed.
    pub rounds: u64,
    /// Live entries summed over rounds (mean occupancy = samples/rounds).
    pub samples: u64,
    /// Entries classified hot, summed over rounds.
    pub hot: u64,
    /// Entries classified cold, summed over rounds.
    pub cold: u64,
}

impl PoolStats {
    /// Fold another pool's counters into this one.
    pub fn merge(&mut self, other: PoolStats) {
        self.rounds += other.rounds;
        self.samples += other.samples;
        self.hot += other.hot;
        self.cold += other.cold;
    }
}

/// A bounded pool of `(tree, destination)` load entries with staleness
/// eviction and Prequal's hot-cold lexicographic classification.
///
/// Entries are kept sorted by the eviction order `(updated_at, tree,
/// host)`, so the next victim is always the front entry: when the pool is
/// full the entry with the oldest `updated_at` is evicted, ties broken by
/// smallest `(tree, host)`, and staleness expiry drops a prefix. Keys are
/// unique, so the order is total; and nothing the pool answers
/// (classifications, statistics, the RIF median) depends on entry order.
#[derive(Clone, Debug)]
pub struct HclPool {
    capacity: usize,
    staleness: SimDuration,
    entries: Vec<Entry>,
    stats: PoolStats,
    /// The hot/cold boundary, cached between changes to the entries'
    /// RIFs (`None` after a change).
    rif_median: Cell<Option<u64>>,
    /// Scratch for selecting the median, reused across recomputations.
    rifs: RefCell<Vec<u64>>,
}

impl HclPool {
    /// An empty pool holding at most `capacity` entries, evicting any
    /// entry not refreshed within `staleness`.
    pub fn new(capacity: usize, staleness: SimDuration) -> Self {
        HclPool {
            capacity: capacity.max(1),
            staleness,
            entries: Vec::new(),
            stats: PoolStats::default(),
            rif_median: Cell::new(None),
            rifs: RefCell::new(Vec::new()),
        }
    }

    /// A pool sized from probe parameters.
    pub fn from_params(p: ProbeParams) -> Self {
        Self::new(p.pool, p.staleness)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative occupancy counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn find(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    /// Record (insert or refresh) a probe result for `(tree, host)`.
    pub fn record(&mut self, now: SimTime, tree: u32, host: HostId, rif: u64, latency_ns: u64) {
        let entry = Entry {
            updated_at: now,
            key: pack(tree, host),
            rif,
            latency_ns,
        };
        // `from` is the slot the record vacates: the refreshed entry, the
        // victim (the front) when the pool is full, or a fresh slot.
        let from = match self.find(entry.key) {
            Some(i) => {
                let old = self.entries[i];
                if old.rif != rif {
                    self.rif_median.set(None);
                }
                if old.updated_at == now {
                    self.entries[i] = entry;
                    return;
                }
                i
            }
            None => {
                self.rif_median.set(None);
                if self.entries.len() >= self.capacity {
                    0
                } else {
                    self.entries.push(entry);
                    self.entries.len() - 1
                }
            }
        };
        // `at` counts the entries sorting before the new one, `from`
        // included exactly when `from < at`; a round's records share
        // `now`, so it lands in the tail. Close the gap at `from` by
        // shifting everything between the two by one slot.
        let at = self.entries.partition_point(|e| e.order() < entry.order());
        if from < at {
            self.entries.copy_within(from + 1..at, from);
            self.entries[at - 1] = entry;
        } else {
            self.entries.copy_within(at..from, at + 1);
            self.entries[at] = entry;
        }
    }

    /// Drop every entry whose last refresh is older than the staleness
    /// bound. Call before classifying so decisions never use dead data.
    pub fn evict_stale(&mut self, now: SimTime) {
        let staleness = self.staleness;
        let stale = self
            .entries
            .partition_point(|e| now.saturating_since(e.updated_at) > staleness);
        if stale > 0 {
            self.entries.drain(..stale);
            self.rif_median.set(None);
        }
    }

    /// Close a probe round: evict stale entries, then fold the pool's
    /// current occupancy into the cumulative [`PoolStats`].
    pub fn note_round(&mut self, now: SimTime) {
        self.evict_stale(now);
        let threshold = self.rif_threshold();
        self.stats.rounds += 1;
        self.stats.samples += self.entries.len() as u64;
        for e in &self.entries {
            if e.rif > threshold {
                self.stats.hot += 1;
            } else {
                self.stats.cold += 1;
            }
        }
    }

    /// The hot/cold boundary: the pool's median requests-in-flight (the
    /// element at index `len / 2` of the sorted RIFs). Entries strictly
    /// above it are hot. With an empty pool this is 0. Computed once per
    /// change to the pool's RIFs.
    fn rif_threshold(&self) -> u64 {
        if let Some(median) = self.rif_median.get() {
            return median;
        }
        let median = if self.entries.is_empty() {
            0
        } else {
            let mut rifs = self.rifs.borrow_mut();
            rifs.clear();
            rifs.extend(self.entries.iter().map(|e| e.rif));
            let mid = rifs.len() / 2;
            *rifs.select_nth_unstable(mid).1
        };
        self.rif_median.set(Some(median));
        median
    }

    fn class_of(e: &Entry, threshold: u64) -> PoolClass {
        if e.rif > threshold {
            PoolClass::Hot { rif: e.rif }
        } else {
            PoolClass::Cold {
                latency_ns: e.latency_ns,
            }
        }
    }

    /// Classify one `(tree, destination)` pair under the HCL rule.
    ///
    /// Callers must have evicted stale entries first (see
    /// [`HclPool::note_round`]); anything absent is [`PoolClass::Unknown`].
    pub fn classify(&self, tree: u32, host: HostId) -> PoolClass {
        let threshold = self.rif_threshold();
        match self.find(pack(tree, host)) {
            Some(i) => Self::class_of(&self.entries[i], threshold),
            None => PoolClass::Unknown,
        }
    }

    /// Classify a destination host across all trees: the best (lowest
    /// band, then lowest metric) of its per-tree entries. Used for
    /// replica selection, where the caller picks a host, not a path.
    pub fn classify_host(&self, host: HostId) -> PoolClass {
        let threshold = self.rif_threshold();
        self.entries
            .iter()
            .filter(|e| e.host() == host)
            .map(|e| Self::class_of(e, threshold))
            .min_by_key(|c| (c.band(), c.metric()))
            .unwrap_or(PoolClass::Unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference model: the pool as first written, entries in
    /// insertion order and every decision a linear scan. [`HclPool`] must
    /// agree with it on every observable answer.
    struct LinearPool {
        capacity: usize,
        staleness: SimDuration,
        /// `(tree, host, rif, latency_ns, updated_at)`.
        entries: Vec<(u32, HostId, u64, u64, SimTime)>,
        stats: PoolStats,
    }

    impl LinearPool {
        fn new(capacity: usize, staleness: SimDuration) -> Self {
            LinearPool {
                capacity: capacity.max(1),
                staleness,
                entries: Vec::new(),
                stats: PoolStats::default(),
            }
        }

        fn record(&mut self, now: SimTime, tree: u32, host: HostId, rif: u64, latency_ns: u64) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == tree && e.1 == host) {
                *e = (tree, host, rif, latency_ns, now);
                return;
            }
            if self.entries.len() >= self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.4, e.0, e.1))
                    .map(|(i, _)| i)
                    .unwrap();
                self.entries.remove(victim);
            }
            self.entries.push((tree, host, rif, latency_ns, now));
        }

        fn evict_stale(&mut self, now: SimTime) {
            let staleness = self.staleness;
            self.entries
                .retain(|e| now.saturating_since(e.4) <= staleness);
        }

        fn threshold(&self) -> u64 {
            let mut rifs: Vec<u64> = self.entries.iter().map(|e| e.2).collect();
            rifs.sort_unstable();
            rifs.get(rifs.len() / 2).copied().unwrap_or(0)
        }

        fn note_round(&mut self, now: SimTime) {
            self.evict_stale(now);
            let threshold = self.threshold();
            self.stats.rounds += 1;
            self.stats.samples += self.entries.len() as u64;
            for e in &self.entries {
                if e.2 > threshold {
                    self.stats.hot += 1;
                } else {
                    self.stats.cold += 1;
                }
            }
        }

        fn class(&self, e: &(u32, HostId, u64, u64, SimTime)) -> PoolClass {
            if e.2 > self.threshold() {
                PoolClass::Hot { rif: e.2 }
            } else {
                PoolClass::Cold { latency_ns: e.3 }
            }
        }

        fn classify(&self, tree: u32, host: HostId) -> PoolClass {
            match self.entries.iter().find(|e| e.0 == tree && e.1 == host) {
                Some(e) => self.class(e),
                None => PoolClass::Unknown,
            }
        }

        fn classify_host(&self, host: HostId) -> PoolClass {
            let mut best: Option<PoolClass> = None;
            for e in self.entries.iter().filter(|e| e.1 == host) {
                let c = self.class(e);
                if best.is_none_or(|b| (c.band(), c.metric()) < (b.band(), b.metric())) {
                    best = Some(c);
                }
            }
            best.unwrap_or(PoolClass::Unknown)
        }
    }

    const TREES: u32 = 3;
    const HOSTS: u32 = 4;

    /// Every observable answer of the two pools agrees.
    fn assert_same(pool: &HclPool, model: &LinearPool) {
        assert_eq!(pool.len(), model.entries.len());
        assert_eq!(pool.stats(), model.stats);
        for h in 0..HOSTS {
            let host = HostId(h);
            assert_eq!(
                pool.classify_host(host),
                model.classify_host(host),
                "host {h}"
            );
            for tree in (0..TREES).chain([DIRECT_TREE]) {
                assert_eq!(
                    pool.classify(tree, host),
                    model.classify(tree, host),
                    "tree {tree} host {h}"
                );
            }
        }
    }

    proptest! {
        /// Random operation sequences drive both pools in lockstep: a
        /// small key space so keys collide, a coarse clock so many records
        /// share an instant, rifs from a narrow range so refreshes often
        /// keep their rif, and a clock that may step backwards.
        #[test]
        fn sorted_pool_matches_linear_model(
            capacity in 1usize..=8,
            staleness_us in 0u64..40,
            ops in prop::collection::vec(0u64..u64::MAX, 1..160),
        ) {
            let staleness = SimDuration::from_micros(staleness_us);
            let mut pool = HclPool::new(capacity, staleness);
            let mut model = LinearPool::new(capacity, staleness);
            let mut now_us = 50u64;
            for &op in &ops {
                // Low bits pick the operation, the rest its arguments.
                let arg = op >> 8;
                match op % 16 {
                    // Move the clock: mostly forward, sometimes back.
                    0 => now_us += arg % 20,
                    1 => now_us = now_us.saturating_sub(arg % 20),
                    2 => {
                        pool.evict_stale(t(now_us));
                        model.evict_stale(t(now_us));
                    }
                    3 => {
                        pool.note_round(t(now_us));
                        model.note_round(t(now_us));
                    }
                    _ => {
                        let tree = match (arg % (TREES as u64 + 1)) as u32 {
                            TREES => DIRECT_TREE,
                            tree => tree,
                        };
                        let host = HostId((arg >> 4) as u32 % HOSTS);
                        let rif = (arg >> 8) % 4;
                        let latency = (arg >> 12) % 8;
                        pool.record(t(now_us), tree, host, rif, latency);
                        model.record(t(now_us), tree, host, rif, latency);
                    }
                }
                assert_same(&pool, &model);
            }
        }
    }

    #[test]
    fn skew_round_matches_linear_model() {
        // The shape prequal drives every round: 16 hosts × 4 trees
        // recorded into 32 slots at one instant, then the round closes.
        let mut pool = HclPool::new(32, SimDuration::from_millis(1));
        let mut model = LinearPool::new(32, SimDuration::from_millis(1));
        for round in 0..6u64 {
            let now = t(100 * (round + 1));
            for h in 0..16u32 {
                for tree in 0..4u32 {
                    let rif = (h as u64 * 7 + round) % 5;
                    let latency = (tree as u64 + 1) * (h as u64 + round);
                    pool.record(now, tree, HostId(h), rif, latency);
                    model.record(now, tree, HostId(h), rif, latency);
                }
            }
            pool.note_round(now);
            model.note_round(now);
            assert_eq!(pool.len(), 32);
            assert_eq!(pool.stats(), model.stats);
            for h in 0..16u32 {
                assert_eq!(
                    pool.classify_host(HostId(h)),
                    model.classify_host(HostId(h))
                );
                for tree in 0..4u32 {
                    assert_eq!(
                        pool.classify(tree, HostId(h)),
                        model.classify(tree, HostId(h))
                    );
                }
            }
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn default_params_are_pinned() {
        let p = ProbeParams::default();
        assert_eq!(p.every, SimDuration::from_micros(100));
        assert_eq!(p.pool, 32);
        assert_eq!(p.staleness, SimDuration::from_millis(1));
    }

    #[test]
    fn record_and_classify_cold_vs_hot() {
        let mut pool = HclPool::new(8, SimDuration::from_millis(1));
        // Median RIF will be 2 (sorted rifs [0, 2, 9] -> index 1).
        pool.record(t(0), 0, HostId(1), 0, 500);
        pool.record(t(0), 0, HostId(2), 2, 100);
        pool.record(t(0), 0, HostId(3), 9, 50);
        assert_eq!(
            pool.classify(0, HostId(1)),
            PoolClass::Cold { latency_ns: 500 }
        );
        assert_eq!(
            pool.classify(0, HostId(2)),
            PoolClass::Cold { latency_ns: 100 }
        );
        assert_eq!(pool.classify(0, HostId(3)), PoolClass::Hot { rif: 9 });
        assert_eq!(pool.classify(1, HostId(1)), PoolClass::Unknown);
    }

    #[test]
    fn hot_cold_boundary_follows_every_change() {
        // Each step moves the median; a boundary cached across the step
        // would misclassify the asserted entry.
        let hot = |pool: &HclPool, h: u32| pool.classify(0, HostId(h)).band() == 2;
        let mut pool = HclPool::new(4, SimDuration::from_millis(1));
        pool.record(t(0), 0, HostId(1), 1, 10);
        pool.record(t(0), 0, HostId(2), 2, 10);
        pool.record(t(0), 0, HostId(3), 3, 10);
        assert!(!hot(&pool, 2) && hot(&pool, 3)); // median 2
        pool.record(t(1), 0, HostId(3), 0, 10);
        assert!(hot(&pool, 2)); // refresh: median 1
        pool.record(t(1), 0, HostId(4), 10, 10);
        assert!(!hot(&pool, 2) && hot(&pool, 4)); // insert: median 2
        pool.record(t(2), 0, HostId(5), 10, 10);
        assert!(!hot(&pool, 4)); // host 1 evicted for capacity: median 10

        let mut pool = HclPool::new(4, SimDuration::from_millis(1));
        pool.record(t(0), 0, HostId(1), 0, 10);
        pool.record(t(500), 0, HostId(2), 1, 10);
        pool.record(t(500), 0, HostId(3), 2, 10);
        assert!(hot(&pool, 3)); // median 1
        pool.evict_stale(t(1_001));
        assert!(!hot(&pool, 3)); // host 1 expired: median 2
    }

    #[test]
    fn refresh_updates_in_place() {
        let mut pool = HclPool::new(2, SimDuration::from_millis(1));
        pool.record(t(0), 0, HostId(1), 0, 500);
        pool.record(t(10), 0, HostId(1), 0, 40);
        assert_eq!(pool.len(), 1);
        assert_eq!(
            pool.classify(0, HostId(1)),
            PoolClass::Cold { latency_ns: 40 }
        );
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut pool = HclPool::new(2, SimDuration::from_secs(1));
        pool.record(t(0), 0, HostId(1), 0, 1);
        pool.record(t(1), 0, HostId(2), 0, 1);
        pool.record(t(2), 0, HostId(3), 0, 1);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.classify(0, HostId(1)), PoolClass::Unknown);
        assert_ne!(pool.classify(0, HostId(2)), PoolClass::Unknown);
        assert_ne!(pool.classify(0, HostId(3)), PoolClass::Unknown);
    }

    #[test]
    fn eviction_tie_breaks_on_smallest_key() {
        let mut pool = HclPool::new(2, SimDuration::from_secs(1));
        pool.record(t(5), 1, HostId(7), 0, 1);
        pool.record(t(5), 0, HostId(9), 0, 1);
        pool.record(t(6), 2, HostId(1), 0, 1);
        // Both existing entries share updated_at; (tree 0, host 9) sorts
        // before (tree 1, host 7), so it is the deterministic victim.
        assert_eq!(pool.classify(0, HostId(9)), PoolClass::Unknown);
        assert_ne!(pool.classify(1, HostId(7)), PoolClass::Unknown);
    }

    #[test]
    fn staleness_evicts() {
        let mut pool = HclPool::new(8, SimDuration::from_micros(100));
        pool.record(t(0), 0, HostId(1), 0, 1);
        pool.record(t(90), 0, HostId(2), 0, 1);
        pool.evict_stale(t(150));
        assert_eq!(pool.classify(0, HostId(1)), PoolClass::Unknown);
        assert_ne!(pool.classify(0, HostId(2)), PoolClass::Unknown);
    }

    #[test]
    fn note_round_accumulates_stats() {
        let mut pool = HclPool::new(8, SimDuration::from_millis(1));
        pool.record(t(0), 0, HostId(1), 0, 10);
        pool.record(t(0), 0, HostId(2), 5, 10);
        pool.note_round(t(1));
        pool.note_round(t(2));
        let s = pool.stats();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.samples, 4);
        // Median of [0, 5] is 5 (index 1): host 2 is at the threshold,
        // not above it, so both entries are cold.
        assert_eq!(s.cold, 4);
        assert_eq!(s.hot, 0);
    }

    #[test]
    fn classify_host_takes_best_tree() {
        let mut pool = HclPool::new(8, SimDuration::from_millis(1));
        pool.record(t(0), 0, HostId(1), 9, 10);
        pool.record(t(0), 1, HostId(1), 0, 70);
        pool.record(t(0), 0, HostId(2), 0, 30);
        // Host 1 is hot on tree 0 but cold on tree 1 -> cold overall.
        assert_eq!(
            pool.classify_host(HostId(1)),
            PoolClass::Cold { latency_ns: 70 }
        );
        assert_eq!(
            pool.classify_host(HostId(2)),
            PoolClass::Cold { latency_ns: 30 }
        );
        assert_eq!(pool.classify_host(HostId(3)), PoolClass::Unknown);
    }

    #[test]
    fn band_order_is_cold_unknown_hot() {
        let cold = PoolClass::Cold { latency_ns: 1 };
        let hot = PoolClass::Hot { rif: 1 };
        assert!(cold.band() < PoolClass::Unknown.band());
        assert!(PoolClass::Unknown.band() < hot.band());
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = PoolStats {
            rounds: 1,
            samples: 2,
            hot: 3,
            cold: 4,
        };
        a.merge(PoolStats {
            rounds: 10,
            samples: 20,
            hot: 30,
            cold: 40,
        });
        assert_eq!(a.rounds, 11);
        assert_eq!(a.samples, 22);
        assert_eq!(a.hot, 33);
        assert_eq!(a.cold, 44);
    }
}
