//! Integration tests for failure handling (§3.3, Figs 17-18).

use presto::prelude::*;
use presto::workloads::FlowSpec;

fn scenario(faults: FaultPlan, flows: Vec<FlowSpec>) -> Scenario {
    Scenario::builder(SchemeSpec::presto(), 21)
        .duration(SimDuration::from_millis(60))
        .warmup(SimDuration::from_millis(20))
        .elephants(flows)
        .faults(faults)
        .build()
}

fn l1_to_l4() -> Vec<FlowSpec> {
    (0..4)
        .map(|i| FlowSpec::elephant(i, 12 + i, SimTime::ZERO))
        .collect()
}

fn l4_to_l1() -> Vec<FlowSpec> {
    (0..4)
        .map(|i| FlowSpec::elephant(12 + i, i, SimTime::ZERO))
        .collect()
}

fn fail(notify: Notify) -> FaultPlan {
    FaultPlan::new().link_down(SimTime::ZERO, 0, 0, 0, notify)
}

/// The uplink direction survives on pure fast failover: the leaf's
/// failover group redirects tree-0 traffic to the next spine.
#[test]
fn failover_keeps_uplink_direction_alive() {
    let healthy = scenario(FaultPlan::new(), l1_to_l4()).run();
    let failover = scenario(fail(Notify::Never), l1_to_l4()).run();
    let (h, f) = (healthy.mean_elephant_tput(), failover.mean_elephant_tput());
    assert!(h > 8.5, "healthy baseline {h}");
    // Fluid limit: the backup uplink (to S2) now carries two trees' worth
    // of cells — 2r per flow over a 10G link caps r at ~5 Gbps. Fast
    // failover keeps the network connected at that degraded-but-alive
    // rate; the weighted stage is what recovers to ~7.5 Gbps.
    assert!(
        f > 0.45 * h,
        "fast failover should keep roughly half throughput: {f} vs {h}"
    );
    assert!(f < 0.75 * h, "failover cannot beat the S2 bottleneck: {f}");
}

/// The downlink direction (S1→L1 dead) cannot be fixed by leaf failover:
/// flowcells routed via S1 die until the controller reroutes, so the
/// weighted stage must clearly beat the failover stage (Fig 17's L4→L1
/// bars).
#[test]
fn weighted_rerouting_recovers_downlink_direction() {
    let failover = scenario(fail(Notify::Never), l4_to_l1()).run();
    let weighted = scenario(fail(Notify::Immediate), l4_to_l1()).run();
    let (f, w) = (failover.mean_elephant_tput(), weighted.mean_elephant_tput());
    assert!(
        w > f,
        "controller rerouting must improve on blind failover: {w} vs {f}"
    );
    assert!(w > 6.0, "three healthy paths should carry real load: {w}");
    // The broken tree keeps eating packets under pure failover.
    assert!(
        failover.loss_rate > weighted.loss_rate,
        "failover loss {} vs weighted {}",
        failover.loss_rate,
        weighted.loss_rate
    );
}

/// After pruning, flows between unaffected leaves still use all 4 trees
/// and are not disturbed.
#[test]
fn unaffected_pairs_keep_full_throughput() {
    let flows = (0..4)
        .map(|i| FlowSpec::elephant(4 + i, 8 + i, SimTime::ZERO)) // L2 -> L3
        .collect();
    let r = scenario(fail(Notify::Immediate), flows).run();
    assert!(
        r.mean_elephant_tput() > 8.5,
        "L2->L3 should be oblivious to the S1-L1 failure: {}",
        r.mean_elephant_tput()
    );
}

/// Failure plus recovery mid-run: link dies at t=15ms (mid-warmup),
/// controller reacts at t=20ms; measured window sees the weighted state.
#[test]
fn mid_run_failure_recovers() {
    let plan = FaultPlan::new().link_down(
        SimTime::ZERO + SimDuration::from_millis(15),
        0,
        0,
        0,
        Notify::After(SimDuration::from_millis(5)),
    );
    let r = scenario(plan, l4_to_l1()).run();
    // The measurement window still contains TCP's recovery from the 5 ms
    // blackhole, so expect most — not all — of the 3-tree fluid limit
    // (~7.5 Gbps).
    assert!(
        r.mean_elephant_tput() > 4.5,
        "post-recovery window should be healthy: {}",
        r.mean_elephant_tput()
    );
}

/// An immediate notification at the instant of the fault leaves one
/// failover stage covering the whole run: post-reweight.
#[test]
fn immediate_notification_runs_post_reweight_throughout() {
    let r = scenario(fail(Notify::Immediate), l4_to_l1()).run();
    assert!(r.mean_elephant_tput() > 6.0);
    assert_eq!(r.failover_stages.len(), 1);
    assert_eq!(r.failover_stages[0].name, "post-reweight");
}
