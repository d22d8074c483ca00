//! Integration tests for the fault-injection subsystem: reversible fault
//! timelines, the per-stage failover report, and determinism of faulted
//! runs (ISSUE 3's acceptance criteria).

use presto::netsim::{HostId, Mac};
use presto::prelude::*;
use presto::workloads::FlowSpec;

fn l4_to_l1() -> Vec<FlowSpec> {
    (0..4)
        .map(|i| FlowSpec::elephant(12 + i, i, SimTime::ZERO))
        .collect()
}

fn scenario(faults: FaultPlan) -> Scenario {
    scenario_with(faults, l4_to_l1())
}

fn scenario_with(faults: FaultPlan, flows: Vec<FlowSpec>) -> Scenario {
    Scenario::builder(SchemeSpec::presto(), 61)
        .duration(SimDuration::from_millis(60))
        .warmup(SimDuration::from_millis(10))
        .elephants(flows)
        .faults(faults)
        .build()
}

/// The label multiset a sender's vSwitch currently round-robins over for
/// one destination. Only a host that talks has a vSwitch.
fn labels(sim: &Simulation, src: usize, dst: usize) -> Vec<Mac> {
    sim.host(HostId(src as u32))
        .vswitch
        .policy()
        .current_labels(HostId(dst as u32))
}

/// A flap (down, then back up, both notified) must restore the exact
/// pre-failure label schedules — recovery is not a one-way street.
#[test]
fn flap_restores_label_schedules() {
    let baseline = {
        let sim = scenario(FaultPlan::new()).build();
        labels(&sim, 12, 0)
    };
    assert_eq!(baseline.len(), 4, "4 trees before any fault");

    // Down only, never recovered: the run ends in the weighted (pruned)
    // state for pairs touching leaf 0.
    let mut sim =
        scenario(FaultPlan::new().link_down(SimTime::from_millis(20), 0, 0, 0, Notify::Immediate))
            .build();
    sim.run();
    let pruned = labels(&sim, 12, 0);
    assert_eq!(pruned.len(), 3, "the dead tree is pruned: {pruned:?}");
    assert!(
        pruned.iter().all(|m| baseline.contains(m)),
        "pruned labels must be a subset of the originals"
    );

    // Full flap: down at 20 ms, up at 35 ms, both transitions notified.
    // An extra L2 -> L3 elephant gives the run a pair the fault never
    // touches.
    let with_l2_l3 = || {
        let mut flows = l4_to_l1();
        flows.push(FlowSpec::elephant(4, 8, SimTime::ZERO));
        flows
    };
    let flap = FaultPlan::new().flap_once(
        SimTime::from_millis(20),
        SimTime::from_millis(35),
        0,
        0,
        0,
        Notify::Immediate,
    );
    let mut sim = scenario_with(flap, with_l2_l3()).build();
    sim.run();
    assert_eq!(
        labels(&sim, 12, 0),
        baseline,
        "recovery notification must restore the pre-failure schedule"
    );
    // The unaffected pair (L2 -> L3) was never rescheduled.
    let fresh = scenario_with(FaultPlan::new(), with_l2_l3()).build();
    assert_eq!(labels(&fresh, 4, 8).len(), 4, "4 trees for L2 -> L3");
    assert_eq!(labels(&sim, 4, 8), labels(&fresh, 4, 8));
}

/// A dropped controller notification leaves only hardware fast failover
/// in place: no post-reweight stage, untouched label schedules, and more
/// loss than the notified run.
#[test]
fn notification_drop_leaves_fast_failover_only() {
    let fail =
        |notify: Notify| FaultPlan::new().link_down(SimTime::from_millis(20), 0, 0, 0, notify);
    let mut sim = scenario(fail(Notify::Never)).build();
    let healthy_labels = labels(&sim, 12, 0);
    let never = sim.run();
    let names: Vec<&str> = never
        .failover_stages
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        names,
        ["pre-failure", "fast-failover"],
        "no notification, no reweight stage"
    );
    assert_eq!(
        labels(&sim, 12, 0),
        healthy_labels,
        "the vSwitch never hears about the failure"
    );

    let notified = scenario(fail(Notify::Immediate)).run();
    assert!(
        notified
            .failover_stages
            .iter()
            .any(|s| s.name == "post-reweight"),
        "notified run must reach the weighted stage"
    );
    assert!(
        never.loss_rate > notified.loss_rate,
        "blind failover keeps feeding the dead downlink: {} vs {}",
        never.loss_rate,
        notified.loss_rate
    );
}

/// The Fig 17 timeline as a reproducible table: a down event with delayed
/// notification plus a notified recovery yields exactly the four stages,
/// with loss confined to the fast-failover window and goodput recovering.
#[test]
fn four_stage_timeline_confines_loss_to_fast_failover() {
    let plan = FaultPlan::new()
        .link_down(
            SimTime::from_millis(20),
            0,
            0,
            0,
            Notify::After(SimDuration::from_millis(3)),
        )
        .link_up(SimTime::from_millis(40), 0, 0, 0, Notify::Immediate);
    let r = scenario(plan).run();
    let names: Vec<&str> = r.failover_stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "pre-failure",
            "fast-failover",
            "post-reweight",
            "post-recovery"
        ],
        "stages: {:?}",
        r.failover_stages
    );
    let stage = |n: &str| {
        r.failover_stages
            .iter()
            .find(|s| s.name == n)
            .expect("stage present")
    };
    let ff = stage("fast-failover");
    assert_eq!(
        stage("pre-failure").drops,
        0,
        "healthy fabric drops nothing"
    );
    assert!(ff.drops > 0, "the blackhole window must drop packets");
    assert!(
        ff.loss_rate > stage("post-reweight").loss_rate,
        "reweighting must stop the bleeding: {} vs {}",
        ff.loss_rate,
        stage("post-reweight").loss_rate
    );
    assert!(
        ff.loss_rate > stage("post-recovery").loss_rate,
        "recovery must beat the blackhole window"
    );
    assert!(
        stage("post-recovery").goodput_gbps > ff.goodput_gbps,
        "goodput recovers after the link returns: {} vs {}",
        stage("post-recovery").goodput_gbps,
        ff.goodput_gbps
    );
    // Stage boundaries sit exactly at the scheduled fault times.
    assert_eq!(ff.start_ns, 20_000_000);
    assert_eq!(stage("post-reweight").start_ns, 23_000_000);
    assert_eq!(stage("post-recovery").start_ns, 40_000_000);
}

/// Faulted runs obey the same determinism contracts as healthy ones:
/// byte-identical digests with tracing on or off, and across 1/2/8
/// parallel workers.
#[test]
fn faulted_runs_are_deterministic() {
    let faulted = |seed: u64, telemetry: bool| {
        let mut b = Scenario::builder(SchemeSpec::presto(), seed)
            .duration(SimDuration::from_millis(30))
            .warmup(SimDuration::from_millis(5))
            .elephants(l4_to_l1())
            .faults(FaultPlan::new().flap_once(
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                0,
                0,
                0,
                Notify::After(SimDuration::from_millis(1)),
            ));
        if telemetry {
            b = b.telemetry(TelemetryConfig::default());
        }
        b.build()
    };

    let off = faulted(62, false).run().digest();
    let on = faulted(62, true).run().digest();
    assert_eq!(off, on, "telemetry changed a faulted simulation");

    let scenarios: Vec<Scenario> = (0..4).map(|s| faulted(62 + s, false)).collect();
    let digests = |workers: usize| -> Vec<u64> {
        ParallelRunner::new(workers)
            .run(&scenarios)
            .iter()
            .map(Report::digest)
            .collect()
    };
    let one = digests(1);
    assert_eq!(one, digests(2), "2 workers changed a faulted report");
    assert_eq!(one, digests(8), "8 workers changed a faulted report");
    assert_eq!(one[0], off, "runner and direct run must agree");
}

/// Stochastic flap processes draw their timelines from the scenario seed:
/// the same seed gives the same schedule, different seeds differ.
#[test]
fn flap_process_schedules_are_seeded() {
    let plan = FaultPlan::new().flap_process(FlapProcess {
        leaf: 0,
        spine: 0,
        link: 0,
        start: SimTime::from_millis(5),
        end: SimTime::from_millis(200),
        mean_up: SimDuration::from_millis(20),
        mean_down: SimDuration::from_millis(5),
        notify: Notify::Immediate,
        stream: 0,
    });
    let a = plan.schedule(99);
    let b = plan.schedule(99);
    let c = plan.schedule(100);
    assert_eq!(a, b, "same seed, same timeline");
    assert_ne!(a, c, "different seed must move the flap times");
    assert!(a.len() >= 2, "the process should produce several events");
    assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
}
