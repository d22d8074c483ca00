//! Experiment descriptions.
//!
//! A [`Scenario`] is everything one run needs: topology, scheme, flows,
//! mice series, RTT probes, shuffle configuration, north-south remotes and
//! the fault timeline. `run()` assembles the simulator (controller,
//! per-host policies, GRO engines) and executes it to a [`Report`].
//!
//! Scenarios are built with the fluent [`ScenarioBuilder`] (see
//! [`Scenario::builder`]) and read through accessor methods; the fields
//! are private to this crate.
//!
//! [`ScenarioBuilder`]: crate::ScenarioBuilder

use presto_core::Controller;
use presto_endhost::ReceiveOffload;
use presto_faults::{FaultEvent, FaultKind, FaultPlan};
use presto_gro::{OfficialGro, PrestoGro, PrestoGroConfig};
use presto_netsim::{ClosSpec, HostId, LinkId, Mac, Node, ThreeTierSpec, Topology};
use presto_simcore::rng::DetRng;
use presto_simcore::{SimDuration, SimTime};
use presto_telemetry::{TelemetryConfig, TelemetryReport};
use presto_workloads::patterns;
use presto_workloads::FlowSpec;

use crate::apps::Apps;
use crate::report::Report;
use crate::scheme::{GroKind, PolicyKind, SchemeSpec};
use crate::sim::{make_host, Event, FaultAction, ResolvedFault, Simulation};

/// XOR-folded into the scenario seed to derive the fault-plan expansion
/// stream, so flap draws never correlate with workload randomness.
const FAULT_SEED_SALT: u64 = 0xFA17;

/// A "50 KB every 100 ms" mice stream between two hosts.
#[derive(Debug, Clone, Copy)]
pub struct MiceSpec {
    /// Sender host.
    pub src: usize,
    /// Receiver host.
    pub dst: usize,
    /// Bytes per mouse (paper: 50 KB).
    pub bytes: u64,
    /// Launch interval (paper: 100 ms).
    pub interval: SimDuration,
}

/// Shuffle workload: every server sends `bytes` to every other server,
/// `concurrency` transfers at a time.
#[derive(Debug, Clone, Copy)]
pub struct ShuffleSpec {
    /// Bytes per transfer (paper: 1 GB; scaled down for simulation).
    pub bytes: u64,
    /// Concurrent transfers per sender (paper: 2).
    pub concurrency: usize,
}

/// Partition-aggregate incast: every `interval` the aggregator fans a
/// request out to `fanout` workers, each of which answers with
/// `bytes_per_worker`; the request must complete (last response received)
/// within `deadline`. Deadline accounting covers requests issued after
/// warmup.
#[derive(Debug, Clone, Copy)]
pub struct IncastSpec {
    /// Aggregator (receiver) host.
    pub aggregator: usize,
    /// Number of responding workers.
    pub fanout: usize,
    /// Response size per worker, bytes.
    pub bytes_per_worker: u64,
    /// Request issue interval.
    pub interval: SimDuration,
    /// Per-request completion deadline.
    pub deadline: SimDuration,
}

/// Ring allreduce: the first `participants` hosts each stream `bytes` to
/// their clockwise neighbor every round; rounds are synchronized — the
/// next begins when the last transfer of the current one completes.
#[derive(Debug, Clone, Copy)]
pub struct AllreduceSpec {
    /// Ring size (hosts `0..participants`).
    pub participants: usize,
    /// Bytes per member per round.
    pub bytes: u64,
}

/// A complete experiment description.
///
/// Build one with [`Scenario::builder`] and read it through the accessor
/// methods.
pub struct Scenario {
    /// Run label.
    pub(crate) name: String,
    /// Master seed.
    pub(crate) seed: u64,
    /// Scheme under test.
    pub(crate) scheme: SchemeSpec,
    /// Clos parameters (ignored for single-switch schemes, which reuse the
    /// host count).
    pub(crate) clos: ClosSpec,
    /// 3-tier topology override: when set, the fabric is built from this
    /// spec instead of `clos` (hosts → ToR → aggregation → core).
    pub(crate) three_tier: Option<ThreeTierSpec>,
    /// Simulated duration.
    pub(crate) duration: SimDuration,
    /// Measurement window starts here.
    pub(crate) warmup: SimDuration,
    /// Flows to run (host indices; `dst` may point at a WAN remote).
    pub(crate) flows: Vec<FlowSpec>,
    /// Mice series.
    pub(crate) mice: Vec<MiceSpec>,
    /// RTT probe pairs.
    pub(crate) probes: Vec<(usize, usize)>,
    /// Probe send interval.
    pub(crate) probe_interval: SimDuration,
    /// Shuffle workload (replaces `flows`).
    pub(crate) shuffle: Option<ShuffleSpec>,
    /// Partition-aggregate incast workload.
    pub(crate) incast: Option<IncastSpec>,
    /// Ring-allreduce collective workload.
    pub(crate) allreduce: Option<AllreduceSpec>,
    /// Fault timeline: typed, sim-time-scheduled link/spine events plus
    /// probabilistic flap processes, expanded deterministically from the
    /// scenario seed at build time.
    pub(crate) faults: FaultPlan,
    /// Number of WAN "remote users" attached to spines at 100 Mbps
    /// (Table 2's north-south experiment). Their host indices follow the
    /// servers'.
    pub(crate) wan_remotes: usize,
    /// Collect the Fig 5a flowcell-interleaving metric.
    pub(crate) collect_reorder: bool,
    /// CPU utilization sampling period (Fig 6).
    pub(crate) cpu_sample: Option<SimDuration>,
    /// Host uplink queue (large: the sender NIC/qdisc backpressures
    /// instead of dropping).
    pub(crate) host_uplink_queue: u64,
    /// Attach the telemetry layer with this configuration (`None` = off).
    /// Enabling it never changes simulation behaviour or the report
    /// digest; it only collects counters, samples, and trace events.
    pub(crate) telemetry: Option<TelemetryConfig>,
}

impl Scenario {
    /// Run label.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
    /// Scheme under test.
    pub fn scheme(&self) -> &SchemeSpec {
        &self.scheme
    }
    /// Clos parameters.
    pub fn clos(&self) -> &ClosSpec {
        &self.clos
    }
    /// 3-tier topology override, if any.
    pub fn three_tier(&self) -> Option<&ThreeTierSpec> {
        self.three_tier.as_ref()
    }
    /// Simulated duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }
    /// Measurement-window start.
    pub fn warmup(&self) -> SimDuration {
        self.warmup
    }
    /// Flows to run.
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }
    /// Mice series.
    pub fn mice(&self) -> &[MiceSpec] {
        &self.mice
    }
    /// RTT probe pairs.
    pub fn probes(&self) -> &[(usize, usize)] {
        &self.probes
    }
    /// Probe send interval.
    pub fn probe_interval(&self) -> SimDuration {
        self.probe_interval
    }
    /// Shuffle workload, if any.
    pub fn shuffle(&self) -> Option<ShuffleSpec> {
        self.shuffle
    }
    /// Partition-aggregate incast workload, if any.
    pub fn incast(&self) -> Option<IncastSpec> {
        self.incast
    }
    /// Ring-allreduce collective workload, if any.
    pub fn allreduce(&self) -> Option<AllreduceSpec> {
        self.allreduce
    }
    /// The fault timeline.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }
    /// Number of WAN remotes.
    pub fn wan_remotes(&self) -> usize {
        self.wan_remotes
    }
    /// Is Fig 5a reorder collection on?
    pub fn collect_reorder(&self) -> bool {
        self.collect_reorder
    }
    /// CPU utilization sampling period, if any.
    pub fn cpu_sample(&self) -> Option<SimDuration> {
        self.cpu_sample
    }
    /// Host uplink queue capacity in bytes.
    pub fn host_uplink_queue(&self) -> u64 {
        self.host_uplink_queue
    }
    /// Telemetry configuration, if attached.
    pub fn telemetry(&self) -> Option<TelemetryConfig> {
        self.telemetry
    }

    /// Number of server hosts in the chosen topology.
    pub fn n_servers(&self) -> usize {
        match &self.three_tier {
            Some(tt) => tt.host_count(),
            None => self.clos.leaves * self.clos.hosts_per_leaf,
        }
    }

    /// Assemble and run the experiment.
    pub fn run(&self) -> Report {
        let mut sim = self.build();
        sim.run()
    }

    /// Run with the telemetry layer attached — `self.telemetry` if set,
    /// the default configuration otherwise — and return the figure report
    /// together with the telemetry report. The default configuration is
    /// attached before the first event is scheduled, so its event profile
    /// counts the warm-up mark, the workloads' first events and the
    /// faults too.
    pub fn run_traced(&self) -> (Report, TelemetryReport) {
        let mut sim = self.assemble(self.telemetry.is_none().then(TelemetryConfig::default));
        let report = sim.run();
        let telemetry = sim.telemetry_report().expect("telemetry enabled");
        (report, telemetry)
    }

    /// Assemble the simulator without running it — useful for inspection
    /// and custom drivers.
    pub fn build(&self) -> Simulation {
        self.assemble(None)
    }

    /// [`Scenario::build`], with telemetry `early` attached before any
    /// event is scheduled. A scenario's own telemetry config attaches
    /// after the warm-up mark, as it always has: traces of it are pinned.
    fn assemble(&self, early: Option<TelemetryConfig>) -> Simulation {
        let n_servers = self.n_servers();
        // Routing and label state is only materialized for the hosts and
        // pairs that will ever see a packet.
        let apps = Apps::new(self);
        let pairs = apps.talking_pairs();
        let active = pairs.as_deref().and_then(|p| active_servers(n_servers, p));
        // 1. Topology.
        let mut topo = if self.scheme.single_switch {
            Topology::single_switch(
                n_servers,
                self.clos.link_rate_bps,
                self.clos.propagation,
                self.clos.queue_bytes,
            )
        } else if let Some(tt) = &self.three_tier {
            Topology::three_tier(tt)
        } else {
            Topology::clos(&self.clos)
        };

        // 2. Forwarding state + controller, scoped to active hosts (a
        // `None` filter installs for everyone — identical to the legacy
        // unscoped path).
        let controller = if self.scheme.needs_controller() {
            Some(Controller::install_for(&mut topo, active.as_deref()))
        } else {
            topo.install_basic_routing_for(active.as_deref());
            None
        };

        // 3. ECMP hash mode.
        let n_sw = topo.fabric.switches().len();
        for i in 0..n_sw {
            topo.fabric
                .switch_mut(presto_netsim::SwitchId(i as u32))
                .ecmp_mode = self.scheme.ecmp_mode;
        }

        // 4. WAN remotes (north-south), attached round-robin to the
        // fabric's top tier (the spines on 2-tier, the cores on 3-tier).
        for w in 0..self.wan_remotes {
            let attach = if self.scheme.single_switch {
                topo.leaves[0]
            } else {
                let top = topo.top_tier();
                top[w % top.len()]
            };
            let wan = topo.attach_extra_host(
                attach,
                presto_workloads::northsouth::WAN_RATE_BPS,
                self.clos.propagation,
                self.clos.queue_bytes,
            );
            if !self.scheme.single_switch {
                // Teach the fabric the way to this remote: exact L2
                // entries along every leaf's ascending route to the
                // switch it hangs off.
                let leaves = topo.leaves.clone();
                for leaf in leaves {
                    for (sw, up) in topo.up_route(leaf, attach) {
                        topo.fabric.install_l2(sw, Mac::host(wan), up);
                    }
                }
            }
        }

        // 5. Sender NICs backpressure rather than drop: large uplink queues.
        for &up in &topo.host_up.clone() {
            topo.fabric
                .set_link_queue_capacity(up, self.host_uplink_queue);
        }

        // 5b. ECN: arm the marking threshold on every switch-egress queue
        // (switch→switch and switch→host; DCTCP's K lives in the switches,
        // not the sender NIC). `None` — the default — leaves every link's
        // behaviour bit-identical to the pre-ECN testbed.
        if let Some(k) = self.scheme.ecn {
            for i in 0..topo.fabric.links().len() {
                let l = LinkId(i as u32);
                if matches!(topo.fabric.link(l).src, Node::Switch(_)) {
                    topo.fabric.set_link_ecn_threshold(l, Some(k));
                }
            }
        }

        // 6. Per-destination label sequences (server destinations only;
        // same-leaf pairs stay direct — no spine crossing needed). With
        // an active-host filter, labels are materialized only for
        // communicating pairs — both directions, since ACKs ride the
        // reverse path — instead of all n² of them. One row per source
        // that has any, ascending.
        let peers = active
            .as_ref()
            .and(pairs.as_deref())
            .map(|p| directed_pairs(topo.host_count(), p));
        let label_sets: Vec<_> = topo
            .hosts
            .iter()
            .map(|&src| {
                let mut v = Vec::new();
                if self.scheme.single_switch {
                    return (src, v);
                }
                let push_dst = |dst: usize, v: &mut Vec<(HostId, Vec<Mac>)>| {
                    if dst >= n_servers {
                        return;
                    }
                    let dst = HostId(dst as u32);
                    if dst == src || topo.same_leaf(src, dst) {
                        return;
                    }
                    let labels = match (&controller, self.scheme.policy) {
                        (_, PolicyKind::PrestoEcmp) => vec![Mac::host(dst)],
                        (Some(ctl), _) => ctl.labels_for(dst),
                        (None, _) => return,
                    };
                    v.push((dst, labels));
                };
                match &peers {
                    Some(p) => {
                        let from = p.partition_point(|&(a, _)| a < src.index());
                        for &(_, dst) in p[from..].iter().take_while(|&&(a, _)| a == src.index()) {
                            push_dst(dst, &mut v);
                        }
                    }
                    None => {
                        for dst in 0..n_servers {
                            push_dst(dst, &mut v);
                        }
                    }
                }
                (src, v)
            })
            .filter(|(_, v)| !v.is_empty())
            .collect();

        // 7. Hosts: edge state only for the servers that talk (and any
        // WAN remotes).
        let scheme = self.scheme.clone();
        let seed = self.seed;
        let mk_host = |h: HostId| {
            // The registry is the single place policies are instantiated;
            // adding a scheme never touches this file.
            let mut policy = crate::registry::build_policy(&scheme, seed);
            if let Ok(row) = label_sets.binary_search_by_key(&h, |&(src, _)| src) {
                for (dst, labels) in &label_sets[row].1 {
                    policy.set_labels(*dst, labels.clone());
                }
                policy.labels_updated(SimTime::ZERO);
            }
            let gro: Box<dyn ReceiveOffload> = match scheme.gro {
                GroKind::Official => Box::new(OfficialGro::new()),
                GroKind::Presto => Box::new(PrestoGro::new()),
                GroKind::PrestoFixedTimeout(d) => {
                    Box::new(PrestoGro::with_config(PrestoGroConfig::fixed(d)))
                }
            };
            let presto_extra = !matches!(scheme.gro, GroKind::Official);
            make_host(policy, gro, h, presto_extra)
        };

        let end = SimTime::ZERO + self.duration;
        let warm = SimTime::ZERO + self.warmup;
        let mut sim = Simulation::new(
            topo,
            self.scheme.clone(),
            mk_host,
            active.as_deref(),
            apps,
            end,
            warm,
        );
        if let Some(cfg) = early {
            sim.enable_telemetry(cfg);
        }
        sim.schedule(warm, Event::WarmupMark);
        sim.controller = controller;
        sim.label_pairs = label_sets
            .iter()
            .map(|(src, v)| (*src, v.iter().map(|(dst, _)| *dst).collect()))
            .collect();
        sim.collect_reorder = self.collect_reorder;
        sim.cpu_sample_every = self.cpu_sample;
        if let Some(cfg) = self.telemetry {
            sim.enable_telemetry(cfg);
        }

        // 8. Applications.
        sim.schedule_apps();

        // 9. Fault timeline: expand flap processes from the scenario seed,
        // resolve (leaf, spine, link) coordinates against the built
        // topology, and schedule each fault with its controller
        // notification.
        let timeline = self.faults.schedule(self.seed ^ FAULT_SEED_SALT);
        if !timeline.is_empty() {
            assert!(!self.scheme.single_switch, "fault injection needs a fabric");
        }
        for ev in &timeline {
            let fault = resolve_fault(&sim.topo, ev);
            sim.schedule_fault(fault);
        }

        sim
    }
}

/// The servers that appear in `pairs`, or `None` when every one does.
/// WAN-remote indices sit past the servers; their routing is installed by
/// the attach step, not the basic install.
fn active_servers(n_servers: usize, pairs: &[(usize, usize)]) -> Option<Vec<bool>> {
    let mut active = vec![false; n_servers];
    for &(a, b) in pairs {
        for h in [a, b] {
            if h < n_servers {
                active[h] = true;
            }
        }
    }
    if active.iter().all(|&a| a) {
        None
    } else {
        Some(active)
    }
}

/// `pairs` in both directions (ACKs ride the reverse path), sorted and
/// deduplicated, so each host's peers are one ascending run; self-pairs
/// and out-of-range hosts are skipped.
fn directed_pairs(n_hosts: usize, pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut directed: Vec<(usize, usize)> = pairs
        .iter()
        .filter(|&&(a, b)| a < n_hosts && b < n_hosts && a != b)
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect();
    directed.sort_unstable();
    directed.dedup();
    directed
}

/// Turn a fault event's structural `(leaf, spine, link)` coordinates into
/// concrete fabric link ids. `spine` indexes the leaf's upper-tier
/// neighbor list (the spine index on a 2-tier Clos, the pod-local
/// aggregation position on 3-tier). Every action covers both directions
/// of the pair; switch-wide events expand to every link touching the
/// switch (lower neighbors first, then — on 3-tier — its own uplinks, in
/// connection order, for determinism).
fn resolve_fault(topo: &Topology, ev: &FaultEvent) -> ResolvedFault {
    let pair = |leaf: usize, spine: usize, link: usize| {
        let lf = topo.leaves[leaf];
        let up_nbr = topo.up_neighbors(lf)[spine];
        let up = topo.links_between(lf, up_nbr)[link];
        let down = topo.links_between(up_nbr, lf)[link];
        (up, down, lf)
    };
    let switch_wide = |tier: usize, index: usize, mk: fn(presto_netsim::LinkId) -> FaultAction| {
        let sw = topo.tiers[tier][index];
        let mut acts = Vec::new();
        for &below in topo.down_neighbors(sw) {
            for &l in topo.links_between(below, sw) {
                acts.push(mk(l));
            }
            for &l in topo.links_between(sw, below) {
                acts.push(mk(l));
            }
        }
        for &above in topo.up_neighbors(sw) {
            for &l in topo.links_between(sw, above) {
                acts.push(mk(l));
            }
            for &l in topo.links_between(above, sw) {
                acts.push(mk(l));
            }
        }
        acts
    };
    let (actions, leaf) = match ev.kind {
        FaultKind::LinkDown { leaf, spine, link } => {
            let (u, d, lf) = pair(leaf, spine, link);
            (vec![FaultAction::Down(u), FaultAction::Down(d)], Some(lf))
        }
        FaultKind::LinkUp { leaf, spine, link } => {
            let (u, d, lf) = pair(leaf, spine, link);
            (vec![FaultAction::Up(u), FaultAction::Up(d)], Some(lf))
        }
        FaultKind::LinkDegrade {
            leaf,
            spine,
            link,
            fraction,
        } => {
            let (u, d, lf) = pair(leaf, spine, link);
            (
                vec![
                    FaultAction::Degrade(u, fraction),
                    FaultAction::Degrade(d, fraction),
                ],
                Some(lf),
            )
        }
        FaultKind::LinkRestore { leaf, spine, link } => {
            let (u, d, lf) = pair(leaf, spine, link);
            (
                vec![FaultAction::Restore(u), FaultAction::Restore(d)],
                Some(lf),
            )
        }
        FaultKind::SwitchDown { tier, index } => {
            (switch_wide(tier, index, FaultAction::Down), None)
        }
        FaultKind::SwitchUp { tier, index } => (switch_wide(tier, index, FaultAction::Up), None),
    };
    ResolvedFault {
        at: ev.at,
        actions,
        degrading: ev.kind.is_degrading(),
        leaf,
        notify_at: ev.notify.at(ev.at),
    }
}

/// Unbounded elephants on the stride(k) pattern.
pub fn stride_elephants(n_hosts: usize, k: usize) -> Vec<FlowSpec> {
    patterns::stride(n_hosts, k)
        .into_iter()
        .map(|(s, d)| FlowSpec::elephant(s, d, SimTime::ZERO))
        .collect()
}

/// Unbounded elephants on the random pattern.
pub fn random_elephants(n_hosts: usize, hosts_per_pod: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = DetRng::new(seed ^ 0xA11);
    patterns::random(n_hosts, hosts_per_pod, &mut rng)
        .into_iter()
        .map(|(s, d)| FlowSpec::elephant(s, d, SimTime::ZERO))
        .collect()
}

/// Unbounded elephants on the random-bijection pattern.
pub fn bijection_elephants(n_hosts: usize, hosts_per_pod: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = DetRng::new(seed ^ 0xB13);
    patterns::random_bijection(n_hosts, hosts_per_pod, &mut rng)
        .into_iter()
        .map(|(s, d)| FlowSpec::elephant(s, d, SimTime::ZERO))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_faults::Notify;

    #[test]
    fn helpers_build_flow_lists() {
        let s = stride_elephants(16, 8);
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|f| f.bytes.is_none()));
        let b = bijection_elephants(16, 4, 1);
        assert_eq!(b.len(), 16);
        let r = random_elephants(16, 4, 1);
        assert_eq!(r.len(), 16);
    }

    #[test]
    #[should_panic(expected = "MPTCP subflow count must be in 1..=256")]
    fn simulation_rejects_too_many_subflows_before_the_run() {
        let scheme = SchemeSpec::mptcp()
            .with_transport(crate::scheme::TransportKind::Mptcp { subflows: 257 });
        Scenario::builder(scheme, 3).build().build();
    }

    #[test]
    fn fault_resolution_covers_both_directions() {
        let s = Scenario::builder(SchemeSpec::presto(), 3)
            .faults(FaultPlan::new().link_down(SimTime::from_millis(5), 0, 1, 0, Notify::Immediate))
            .build();
        let sim = s.build();
        assert_eq!(sim.faults.len(), 1);
        let f = &sim.faults[0];
        assert_eq!(f.actions.len(), 2, "up- and downlink fail together");
        assert!(f.degrading);
        assert_eq!(f.notify_at, Some(SimTime::from_millis(5)));
        assert!(f.leaf.is_some());
    }

    #[test]
    fn spine_fault_resolves_to_all_leaves() {
        let s = Scenario::builder(SchemeSpec::presto(), 3)
            .faults(FaultPlan::new().spine_down(SimTime::from_millis(5), 1, Notify::Never))
            .build();
        let sim = s.build();
        let f = &sim.faults[0];
        // 4 leaves × (1 uplink + 1 downlink) toward the spine.
        assert_eq!(f.actions.len(), 8);
        assert_eq!(f.leaf, None, "spine faults touch every leaf");
        assert_eq!(f.notify_at, None);
    }
}
