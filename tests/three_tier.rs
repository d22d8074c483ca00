//! 3-tier Clos end-to-end: the generalized fabric runs real traffic and
//! obeys the same determinism contracts as the 2-tier testbed.
//!
//! 1. Cross-pod elephants on Presto achieve nonzero goodput with zero
//!    in-fabric loss on a non-oversubscribed 3-tier Clos.
//! 2. Digests are byte-identical with telemetry on/off and across
//!    1/2/8 `ParallelRunner` workers.
//! 3. An aggregation-switch failure (tier 1) resolves, degrades the
//!    fast-failover stage only, and recovers after reweighting.
//! 4. The 8192-host fabric (k=32-scale, 16 spanning trees) reproduces
//!    its pinned digest, and its switches size their per-host tables to
//!    the hosts that talk; so does the simulator's per-host edge state.

use presto_faults::{FaultPlan, Notify};
use presto_netsim::{HostId, LinkId, ThreeTierSpec};
use presto_simcore::{SimDuration, SimTime};
use presto_telemetry::TelemetryConfig;
use presto_testbed::{stride_elephants, ParallelRunner, Report, Scenario, SchemeSpec};
use presto_workloads::FlowSpec;

/// Bidirectional cross-pod elephants, one per ToR. The reverse flows
/// keep data descending into pod 0 at all times, so a pod-0
/// aggregation failure reliably blackholes in-flight traffic until the
/// controller reweights (ACK streams alone cross flowcell boundaries
/// too rarely to guarantee that).
fn cross_pod() -> Vec<FlowSpec> {
    vec![
        FlowSpec::elephant(0, 8, SimTime::ZERO),
        FlowSpec::elephant(4, 12, SimTime::ZERO),
        FlowSpec::elephant(9, 1, SimTime::ZERO),
        FlowSpec::elephant(13, 5, SimTime::ZERO),
    ]
}

/// A rebalanced 3-tier shape mirroring the paper testbed's 4-way
/// multipathing: 4 aggregation switches per pod, each wired to its own
/// core, so the controller carves 4 link-disjoint trees and losing one
/// aggregation switch leaves 3/4 of the cross-pod capacity — the same
/// head-room the 2-tier spine-failure experiments rely on.
fn balanced_spec() -> ThreeTierSpec {
    ThreeTierSpec {
        aggs_per_pod: 4,
        cores_per_group: 1,
        ..ThreeTierSpec::default()
    }
}

fn three_tier(seed: u64, telemetry: bool) -> Scenario {
    let mut b = Scenario::builder(SchemeSpec::presto(), seed)
        .three_tier(balanced_spec())
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(cross_pod());
    if telemetry {
        b = b.telemetry(TelemetryConfig::default());
    }
    b.build()
}

#[test]
fn cross_pod_elephants_flow_losslessly() {
    let report = three_tier(17, false).run();
    assert!(
        report.mean_elephant_tput() > 1.0,
        "cross-pod goodput too low: {} Gbps",
        report.mean_elephant_tput()
    );
    assert_eq!(
        report.loss_rate, 0.0,
        "non-oversubscribed fabric dropped packets"
    );
}

#[test]
fn three_tier_runs_are_deterministic() {
    let off = three_tier(17, false).run().digest();
    let on = three_tier(17, true).run().digest();
    assert_eq!(off, on, "telemetry changed a 3-tier simulation");

    let scenarios: Vec<Scenario> = (0..4).map(|s| three_tier(17 + s, false)).collect();
    let digests = |workers: usize| -> Vec<u64> {
        ParallelRunner::new(workers)
            .run(&scenarios)
            .iter()
            .map(Report::digest)
            .collect()
    };
    let one = digests(1);
    assert_eq!(one, digests(2), "2 workers changed a 3-tier report");
    assert_eq!(one, digests(8), "8 workers changed a 3-tier report");
    assert_eq!(one[0], off, "runner and direct run must agree");
}

#[test]
fn aggregation_switch_failure_follows_the_four_stage_timeline() {
    let report = Scenario::builder(SchemeSpec::presto(), 61)
        .three_tier(balanced_spec())
        .duration(SimDuration::from_millis(60))
        .warmup(SimDuration::from_millis(10))
        .elephants(cross_pod())
        .faults(
            FaultPlan::new()
                .switch_down(
                    SimTime::from_millis(20),
                    1,
                    0,
                    Notify::After(SimDuration::from_millis(3)),
                )
                .switch_up(SimTime::from_millis(40), 1, 0, Notify::Immediate),
        )
        .build()
        .run();

    let names: Vec<&str> = report
        .failover_stages
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "pre-failure",
            "fast-failover",
            "post-reweight",
            "post-recovery"
        ],
        "stage sequence"
    );
    let stage = |n: &str| {
        report
            .failover_stages
            .iter()
            .find(|s| s.name == n)
            .unwrap_or_else(|| panic!("missing stage {n}"))
    };
    assert_eq!(stage("pre-failure").drops, 0, "loss before the failure");
    // Down-direction traffic blackholes at the cores until the controller
    // reweights away from the dead aggregation switch, so the loss is
    // confined to the fast-failover stage.
    assert!(
        stage("fast-failover").drops > 0,
        "aggregation failure should drop packets until reweight"
    );
    assert_eq!(
        stage("post-reweight").drops,
        0,
        "reweighting must steer all labels off the dead switch"
    );
    assert_eq!(stage("post-recovery").drops, 0, "loss after recovery");
    assert_eq!(stage("fast-failover").start_ns, 20_000_000);
    assert_eq!(stage("post-reweight").start_ns, 23_000_000);
    assert_eq!(stage("post-recovery").start_ns, 40_000_000);
}

#[test]
fn oversubscribed_fabric_still_runs() {
    let spec = ThreeTierSpec {
        cores_per_group: 1,
        ..ThreeTierSpec::default()
    };
    assert_eq!(spec.oversubscription(), 2.0);
    let report = Scenario::builder(SchemeSpec::presto(), 9)
        .three_tier(spec)
        .duration(SimDuration::from_millis(20))
        .warmup(SimDuration::from_millis(5))
        .elephants(cross_pod())
        .build()
        .run();
    assert!(report.mean_elephant_tput() > 0.5);
}

/// Links get queue state on their first packet, so after a run exactly
/// the links that sent or dropped one hold it. Counters start at zero
/// (no warm-up reset) and the flows finish well before the end, so no
/// link's first packet is still in flight.
#[test]
fn only_links_that_carried_packets_hold_queue_state() {
    let flows = cross_pod()
        .into_iter()
        .map(|f| FlowSpec {
            bytes: Some(200_000),
            ..f
        })
        .collect();
    let mut sim = Scenario::builder(SchemeSpec::presto(), 17)
        .three_tier(balanced_spec())
        .duration(SimDuration::from_millis(10))
        .warmup(SimDuration::ZERO)
        .elephants(flows)
        .build()
        .build();
    sim.run();
    let fabric = &sim.topo.fabric;
    let links: Vec<_> = (0..fabric.links().len())
        .map(|i| fabric.link(LinkId(i as u32)))
        .collect();
    let queued = links.iter().filter(|l| l.queue().is_some()).count();
    let carried = links
        .iter()
        .filter(|l| l.counters.tx_packets + l.counters.dropped_packets > 0)
        .count();
    assert_eq!(queued, carried);
    assert!(
        0 < carried && carried < links.len(),
        "{carried} of {} links carried packets",
        links.len()
    );
    assert!(links
        .iter()
        .all(|l| l.queue().is_none_or(|q| q.queued_bytes() == 0)));
}

/// 64 stride elephants on the 8192-host three-tier fabric: 128 hosts talk.
fn eight_thousand_hosts() -> Scenario {
    let mut flows = stride_elephants(8192, 256);
    flows.truncate(64);
    Scenario::builder(SchemeSpec::presto(), 1)
        .three_tier(ThreeTierSpec {
            pods: 32,
            tors_per_pod: 16,
            hosts_per_tor: 16,
            aggs_per_pod: 16,
            ..ThreeTierSpec::default()
        })
        .duration(SimDuration::from_millis(10))
        .warmup(SimDuration::from_millis(2))
        .elephants(flows)
        .build()
}

/// The digest is the one `perfbench/pins.json` pins for the
/// `threetier_8192` workload; building this fabric is dominated by the
/// controller's forwarding-state install, so a change there that moves
/// any written entry moves it.
#[test]
fn eight_thousand_host_fabric_keeps_its_digest() {
    let report = eight_thousand_hosts().run();
    assert_eq!(report.digest(), 0xa541e7e93c48f261);
}

/// Every switch's per-host tables hold exactly the 128 hosts that talk:
/// tables keyed by host id would hold 8192, and hashed ones more buckets
/// than entries.
#[test]
fn eight_thousand_host_switches_hold_one_slot_per_talking_host() {
    let sim = eight_thousand_hosts().build();
    assert_eq!(sim.topo.fabric.switches().len(), 1056);
    for sw in sim.topo.fabric.switches() {
        assert_eq!(sw.label_slots(), 128, "{:?} label table", sw.id);
        assert_eq!(sw.ecmp_slots(), 128, "{:?} ECMP table", sw.id);
    }
}

/// Only the 128 hosts that talk get a soft edge (vSwitch, GRO, NIC ring,
/// CPU), in ascending host id; a workload in which every host talks
/// keeps one per host.
#[test]
fn eight_thousand_host_sim_holds_one_host_node_per_talking_host() {
    let sim = eight_thousand_hosts().build();
    assert_eq!(sim.topo.hosts.len(), 8192);
    assert_eq!(sim.hosts.len(), 128);
    assert!(sim
        .hosts
        .windows(2)
        .all(|w| w[0].vswitch.host < w[1].vswitch.host));
    for host in &sim.hosts {
        assert!(std::ptr::eq(sim.host(host.vswitch.host), host));
    }

    let stride = Scenario::builder(SchemeSpec::presto(), 1)
        .elephants(stride_elephants(16, 8))
        .build()
        .build();
    assert_eq!(stride.hosts.len(), 16);
}

/// Looking up a host outside the talking set is a bug, reported with
/// the host's id: leaf 3 sends to leaf 0, so host 4 is idle.
#[test]
#[should_panic(expected = "host 4 has no edge state")]
fn idle_host_lookup_panics_with_its_id() {
    let sim = Scenario::builder(SchemeSpec::presto(), 1)
        .elephants(
            (0..4)
                .map(|i| FlowSpec::elephant(12 + i, i, SimTime::ZERO))
                .collect(),
        )
        .build()
        .build();
    assert_eq!(sim.hosts.len(), 8);
    let _ = sim.host(HostId(4));
}
