//! Prequal-style receiver-load-aware flowcell spraying.
//!
//! Presto's weighted round-robin never looks past the first hop, and even
//! CAFT only sees its own uplink queues. Prequal (NSDI'24) adds the signal
//! both are missing: *receiver* load, gathered by asynchronous probes of
//! requests-in-flight and queue-drain latency, kept in a bounded
//! hot/cold pool (`presto-probe`) and consumed under the hot-cold
//! lexicographic rule — prefer probed-cold paths, then unprobed ones,
//! then the least-loaded hot path.
//!
//! The policy opts into two control-plane feeds:
//!
//! * [`EdgePolicy::probe_params`] — the simulator probes a rotating
//!   window of destinations every `every` and delivers [`HostLoad`]s via
//!   [`EdgePolicy::probe_feedback`]; entries land in the [`HclPool`]
//!   keyed by `(spanning tree, destination)`, with the tree's first-hop
//!   backlog folded into the recorded latency so congested trees rank
//!   behind clean ones toward the same host.
//! * [`EdgePolicy::feedback_interval`] — the same per-tree EWMA feed CAFT
//!   uses, which both seeds the latency penalty above and excludes dead
//!   trees outright.
//!
//! It also implements [`EdgePolicy::select_replicas`]: a partition-
//! aggregate aggregator running this policy picks the coldest `k`
//! responders instead of a static worker set — the Prequal experiment the
//! 2015 paper could not run.

use presto_endhost::{EdgePolicy, LabelTable, PathSignal, PathTag};
use presto_netsim::{FlowKey, HostId, Mac};
use presto_probe::{HclPool, HostLoad, PoolClass, PoolStats, ProbeParams, DIRECT_TREE};
use presto_simcore::rng::hash_mix;
use presto_simcore::{FxHashMap, SimDuration, SimTime};

/// EWMA weight of the newest congestion sample (α = 1/4), as in CAFT.
const EWMA_INV_ALPHA: f64 = 4.0;
/// Hash salt for each flow's round-robin tie-break cursor.
const START_SALT: u64 = 0x9E0B;

#[derive(Debug)]
struct PrequalFlowState {
    /// Bytes accumulated toward the current flowcell.
    cell_bytes: u64,
    /// Flowcell counter (the tag).
    cell_id: u64,
    /// Label index the current flowcell rides.
    path_idx: usize,
    /// Round-robin cursor for tie-breaks among equally ranked labels.
    cursor: usize,
}

/// Receiver-load-aware weighting over controller-installed labels.
#[derive(Debug)]
pub struct PrequalPolicy {
    labels: LabelTable,
    /// Per destination: the distinct trees its labels ride, ascending —
    /// the pool keys one probe response fans out to.
    trees: FxHashMap<HostId, Vec<u32>>,
    flows: FxHashMap<FlowKey, PrequalFlowState>,
    /// First-hop congestion score per spanning tree id (EWMA of queue
    /// bytes scaled by path health), indexed by tree id; `None` until the
    /// tree is first sampled, `f64::INFINITY` for a dead tree.
    scores: Vec<Option<f64>>,
    /// The bounded hot/cold pool of probed `(tree, destination)` entries.
    pool: HclPool,
    /// Probe cadence / pool sizing advertised to the harness.
    pub params: ProbeParams,
    /// Flowcell size threshold (bytes), as in Algorithm 1.
    pub cell_bytes: u64,
    /// Flowcells created.
    pub flowcells: u64,
    /// Flowcells assigned per spanning tree, indexed by tree id.
    spray_counts: Vec<u64>,
    /// Path-feedback rounds folded in (observability).
    pub feedback_rounds: u64,
    /// Probe rounds folded in (observability).
    pub probe_rounds: u64,
}

impl PrequalPolicy {
    /// A policy probing on `params`' cadence, cutting flowcells of
    /// `cell_bytes`.
    pub fn new(params: ProbeParams, cell_bytes: u64) -> Self {
        assert!(cell_bytes > 0, "flowcell size must be positive");
        PrequalPolicy {
            labels: LabelTable::new(),
            trees: FxHashMap::default(),
            flows: FxHashMap::default(),
            scores: Vec::new(),
            pool: HclPool::from_params(params),
            params,
            cell_bytes,
            flowcells: 0,
            spray_counts: Vec::new(),
            feedback_rounds: 0,
            probe_rounds: 0,
        }
    }

    /// The congestion score of tree `tree` (0 when never sampled).
    fn score(&self, tree: u32) -> f64 {
        self.scores
            .get(tree as usize)
            .copied()
            .flatten()
            .unwrap_or(0.0)
    }

    /// HCL rank of one label toward `dst`: `(band, in-band metric, tree
    /// score)`, lower is better. Dead trees rank behind everything.
    fn rank(&self, mac: Mac, dst: HostId) -> (u8, u64, u64) {
        let score = self.score(mac.tree());
        if score.is_infinite() {
            return (3, u64::MAX, u64::MAX);
        }
        let class = self.pool.classify(mac.tree(), dst);
        (class.band(), class.metric(), score as u64)
    }

    /// Pick the best label index: minimum HCL rank, ties broken by
    /// scanning round-robin from `cursor` — deterministic, and uniform
    /// when nothing has been probed yet.
    fn pick(&self, labels: &[Mac], dst: HostId, cursor: usize) -> usize {
        let n = labels.len();
        let mut best = cursor % n;
        let mut best_rank = self.rank(labels[best], dst);
        for off in 1..n {
            let idx = (cursor + off) % n;
            let r = self.rank(labels[idx], dst);
            if r < best_rank {
                best = idx;
                best_rank = r;
            }
        }
        best
    }

    fn count_spray(&mut self, mac: Mac) {
        let tree = mac.tree() as usize;
        if self.spray_counts.len() <= tree {
            self.spray_counts.resize(tree + 1, 0);
        }
        self.spray_counts[tree] += 1;
    }
}

impl EdgePolicy for PrequalPolicy {
    fn set_labels(&mut self, dst: HostId, labels: Vec<Mac>) {
        let mut trees: Vec<u32> = labels.iter().map(|m| m.tree()).collect();
        trees.sort_unstable();
        trees.dedup();
        self.trees.insert(dst, trees);
        self.labels.set(dst, labels);
    }

    fn current_labels(&self, dst: HostId) -> Vec<Mac> {
        self.labels.current(dst)
    }

    fn flowcells_created(&self) -> u64 {
        self.flowcells
    }

    fn path_spray_counts(&self) -> Vec<u64> {
        self.spray_counts.clone()
    }

    fn feedback_interval(&self) -> Option<SimDuration> {
        Some(self.params.every)
    }

    fn probe_params(&self) -> Option<ProbeParams> {
        Some(self.params)
    }

    fn probe_pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool.stats())
    }

    fn path_feedback(&mut self, _now: SimTime, signals: &[PathSignal]) {
        self.feedback_rounds += 1;
        for sig in signals {
            let sample = if sig.rate_fraction <= 0.0 {
                f64::INFINITY
            } else {
                sig.queue_bytes as f64 / sig.rate_fraction
            };
            let tree = sig.tree as usize;
            if self.scores.len() <= tree {
                self.scores.resize(tree + 1, None);
            }
            // A first sample seeds the average with itself.
            let slot = self.scores[tree].get_or_insert(sample);
            *slot = if slot.is_finite() && sample.is_finite() {
                (*slot * (EWMA_INV_ALPHA - 1.0) + sample) / EWMA_INV_ALPHA
            } else {
                // Entering or leaving the dead state snaps immediately.
                sample
            };
        }
    }

    fn probe_feedback(&mut self, now: SimTime, loads: &[HostLoad]) {
        self.probe_rounds += 1;
        for load in loads {
            // One pool entry per (tree, destination) pair. The receiver's
            // drain latency is tree-independent, so each tree's entry
            // carries it plus that tree's first-hop backlog — congested
            // trees toward the same host rank behind clean ones.
            let trees = self
                .trees
                .get(&load.host)
                .map_or(&[DIRECT_TREE][..], Vec::as_slice);
            for &tree in trees {
                let score = if tree == DIRECT_TREE {
                    0.0
                } else {
                    self.score(tree)
                };
                if score.is_infinite() {
                    continue; // dead tree: rank() already excludes it
                }
                let latency = load.latency_ns.saturating_add(score as u64);
                self.pool.record(now, tree, load.host, load.rif, latency);
            }
        }
        self.pool.note_round(now);
    }

    fn select_replicas(
        &mut self,
        now: SimTime,
        candidates: &[HostId],
        k: usize,
    ) -> Option<Vec<HostId>> {
        self.pool.evict_stale(now);
        if self.pool.is_empty() {
            // Nothing probed yet (or everything stale): keep the static
            // choice so behaviour degrades to plain Presto, not to noise.
            return None;
        }
        // Rank hosts by their best class; unprobed hosts keep their
        // candidate order (their "metric" is the index), so with a partial
        // pool the static prefix still wins among unknowns.
        let mut ranked: Vec<(u8, u64, usize)> = candidates
            .iter()
            .enumerate()
            .map(|(i, &h)| match self.pool.classify_host(h) {
                PoolClass::Unknown => (1, i as u64, i),
                c => (c.band(), c.metric(), i),
            })
            .collect();
        ranked.sort_unstable();
        Some(
            ranked
                .into_iter()
                .take(k)
                .map(|(_, _, i)| candidates[i])
                .collect(),
        )
    }

    fn labels_updated(&mut self, _now: SimTime) {
        // Controller reweight: positional per-flow state is stale and
        // pruned trees must re-learn. Pool entries describe hosts, which
        // the reweight does not invalidate, so they survive.
        for state in self.flows.values_mut() {
            state.cursor = state.path_idx;
        }
        self.scores.clear();
    }

    fn assign(&mut self, now: SimTime, flow: FlowKey, len: u32, _retx: bool) -> PathTag {
        let Some(labels) = self.labels.get(flow.dst) else {
            return PathTag {
                dst_mac: Mac::host(flow.dst),
                flowcell: 0,
            };
        };
        let n = labels.len();
        let new_cell = match self.flows.get(&flow) {
            None => {
                self.pool.evict_stale(now);
                let cursor = (hash_mix(flow.digest(), START_SALT) % n as u64) as usize;
                let path_idx = self.pick(labels, flow.dst, cursor);
                self.flows.insert(
                    flow,
                    PrequalFlowState {
                        cell_bytes: 0,
                        cell_id: 0,
                        path_idx,
                        cursor,
                    },
                );
                true
            }
            Some(state) if state.cell_bytes >= self.cell_bytes => {
                // Flowcell boundary: re-consult the pool and tree scores.
                let cursor = (state.cursor + 1) % n;
                self.pool.evict_stale(now);
                let path_idx = self.pick(labels, flow.dst, cursor);
                let state = self.flows.get_mut(&flow).unwrap();
                state.cursor = cursor;
                state.path_idx = path_idx;
                state.cell_bytes = 0;
                state.cell_id += 1;
                true
            }
            Some(_) => false,
        };
        let state = self.flows.get_mut(&flow).unwrap();
        state.cell_bytes += len as u64;
        let tag = PathTag {
            dst_mac: labels[state.path_idx % n],
            flowcell: state.cell_id,
        };
        if new_cell {
            self.flowcells += 1;
            self.count_spray(tag.dst_mac);
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(sport: u16) -> FlowKey {
        FlowKey::new(HostId(0), HostId(9), sport, 80)
    }

    fn labels() -> Vec<Mac> {
        (0..4).map(|t| Mac::shadow(HostId(9), t)).collect()
    }

    fn policy() -> PrequalPolicy {
        let mut p = PrequalPolicy::new(ProbeParams::default(), 64 * 1024);
        p.set_labels(HostId(9), labels());
        p
    }

    fn load(host: u32, rif: u64, latency_ns: u64) -> HostLoad {
        HostLoad {
            host: HostId(host),
            rif,
            bytes_in_flight: 0,
            queue_bytes: 0,
            latency_ns,
        }
    }

    fn sig(tree: u32, queue: u64, rate: f64) -> PathSignal {
        PathSignal {
            tree,
            queue_bytes: queue,
            rate_fraction: rate,
        }
    }

    #[test]
    fn unprobed_fabric_sprays_round_robin() {
        let mut p = policy();
        let macs: std::collections::HashSet<_> = (0..4 * 16)
            .map(|_| p.assign(SimTime::ZERO, flow(1), 64 * 1024, false).dst_mac)
            .collect();
        assert_eq!(macs.len(), 4, "no probes → uniform spraying");
    }

    #[test]
    fn congested_tree_ranks_behind_clean_ones() {
        let mut p = policy();
        // Tree 2's first-hop uplink is backed up; probes then stamp that
        // backlog into tree 2's pool entries toward host 9.
        p.path_feedback(
            SimTime::ZERO,
            &[
                sig(0, 0, 1.0),
                sig(1, 0, 1.0),
                sig(2, 1_000_000, 1.0),
                sig(3, 0, 1.0),
            ],
        );
        p.probe_feedback(SimTime::ZERO, &[load(9, 0, 100)]);
        let hot = Mac::shadow(HostId(9), 2);
        for _ in 0..32 {
            let tag = p.assign(SimTime::ZERO, flow(1), 64 * 1024, false);
            assert_ne!(tag.dst_mac, hot, "congested tree must be skipped");
        }
    }

    #[test]
    fn dead_tree_is_excluded_immediately() {
        let mut p = policy();
        p.path_feedback(SimTime::ZERO, &[sig(1, 0, 0.0)]);
        let dead = Mac::shadow(HostId(9), 1);
        for s in 0..8 {
            for _ in 0..8 {
                assert_ne!(
                    p.assign(SimTime::ZERO, flow(s), 64 * 1024, false).dst_mac,
                    dead
                );
            }
        }
    }

    #[test]
    fn select_replicas_is_static_until_probed() {
        let mut p = policy();
        let cands: Vec<HostId> = (1..=8).map(HostId).collect();
        assert_eq!(p.select_replicas(SimTime::ZERO, &cands, 4), None);
    }

    #[test]
    fn select_replicas_prefers_cold_hosts() {
        let mut p = policy();
        // Hosts 1 and 2 are drowning; 7 and 8 are idle. 3-6 unprobed.
        p.probe_feedback(
            SimTime::ZERO,
            &[
                load(1, 40, 900_000),
                load(2, 35, 800_000),
                load(7, 0, 10),
                load(8, 0, 20),
            ],
        );
        let cands: Vec<HostId> = (1..=8).map(HostId).collect();
        let picked = p.select_replicas(SimTime::ZERO, &cands, 4).unwrap();
        // Pool RIFs are [40, 35, 0, 0]: the median is 35, so host 1 is
        // hot (40 > 35) and host 2 sits *at* the threshold — cold, but
        // ranked last among cold by its huge latency. Probed entries
        // outrank unprobed ones, so host 2 still beats unknown host 3.
        assert_eq!(
            picked,
            vec![HostId(7), HostId(8), HostId(2), HostId(3)],
            "cold by latency, then unprobed in candidate order, hot last"
        );
    }

    #[test]
    fn stale_pool_reverts_to_static_selection() {
        let mut p = policy();
        p.probe_feedback(SimTime::ZERO, &[load(1, 40, 900_000)]);
        let cands: Vec<HostId> = (1..=8).map(HostId).collect();
        assert!(p.select_replicas(SimTime::ZERO, &cands, 4).is_some());
        // Default staleness is 1 ms; 2 ms later everything has expired.
        let later = SimTime::from_millis(2);
        assert_eq!(p.select_replicas(later, &cands, 4), None);
    }

    #[test]
    fn probe_and_feedback_cadences_are_advertised() {
        let p = policy();
        let params = EdgePolicy::probe_params(&p).unwrap();
        assert_eq!(params, ProbeParams::default());
        assert_eq!(
            EdgePolicy::feedback_interval(&p),
            Some(ProbeParams::default().every)
        );
        assert_eq!(EdgePolicy::probe_params(&crate::EcmpPolicy::new(0)), None);
    }

    #[test]
    fn pool_stats_are_exposed() {
        let mut p = policy();
        assert_eq!(p.probe_pool_stats(), Some(PoolStats::default()));
        p.probe_feedback(SimTime::ZERO, &[load(9, 0, 10)]);
        let stats = p.probe_pool_stats().unwrap();
        assert_eq!(stats.rounds, 1);
        // One load fanned out over the 4 label trees toward host 9.
        assert_eq!(stats.samples, 4);
    }

    #[test]
    fn flowcells_and_spray_counts_agree() {
        let mut p = policy();
        for _ in 0..40 {
            p.assign(SimTime::ZERO, flow(3), 64 * 1024, false);
        }
        let total: u64 = p.path_spray_counts().iter().sum();
        assert_eq!(total, p.flowcells_created());
        assert!(p.flowcells_created() >= 20);
    }

    #[test]
    fn fallback_without_labels() {
        let mut p = PrequalPolicy::new(ProbeParams::default(), 64 * 1024);
        let tag = p.assign(SimTime::ZERO, flow(1), 1460, false);
        assert_eq!(tag.dst_mac, Mac::host(HostId(9)));
        // Probes toward label-less hosts land under the direct pseudo-tree.
        p.probe_feedback(SimTime::ZERO, &[load(9, 3, 50)]);
        assert_eq!(p.probe_pool_stats().unwrap().samples, 1);
    }

    #[test]
    fn recovery_rejoins_after_labels_updated() {
        let mut p = policy();
        p.path_feedback(SimTime::ZERO, &[sig(1, 0, 0.0)]);
        p.set_labels(HostId(9), labels());
        p.labels_updated(SimTime::ZERO);
        let macs: std::collections::HashSet<_> = (0..64)
            .map(|_| p.assign(SimTime::ZERO, flow(9), 64 * 1024, false).dst_mac)
            .collect();
        assert_eq!(macs.len(), 4, "recovered tree back in rotation");
    }
}
