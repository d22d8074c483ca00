//! 3-tier Clos demo: multi-tier Presto with an aggregation-switch
//! failure and the four-stage failover timeline.
//!
//! ```text
//! cargo run --release --example three_tier
//! ```
//!
//! Runs cross-pod elephants on a 2-pod, 3-tier Clos (hosts → ToR →
//! aggregation → core) with 4 aggregation switches per pod, each wired
//! to its own core — the controller carves 4 link-disjoint spanning
//! trees, the 3-tier analogue of the paper testbed's 4 spines. Mid-run
//! an aggregation switch in pod 0 dies and later returns:
//!
//! 1. **pre-failure** — symmetric spraying over all 4 trees, no loss.
//! 2. **fast-failover** — ToRs deflect uplink traffic around the dead
//!    switch via OpenFlow failover groups, but traffic already
//!    descending from the cores toward pod 0 blackholes at the dead
//!    aggregation switch until the controller hears of the failure.
//!    All of the run's loss lands in this window.
//! 3. **post-reweight** — the controller reweights label multisets so
//!    flowcells avoid every tree through the dead switch; loss stops.
//! 4. **post-recovery** — the switch returns, weights are restored, and
//!    goodput climbs back to the symmetric level.

use presto::prelude::*;

fn main() {
    let spec = ThreeTierSpec {
        aggs_per_pod: 4,
        cores_per_group: 1,
        ..ThreeTierSpec::default()
    };
    println!(
        "3-tier Clos: {} pods x {} ToRs x {} hosts = {} servers, {} aggs/pod, oversubscription {:.1}:1\n",
        spec.pods,
        spec.tors_per_pod,
        spec.hosts_per_tor,
        spec.host_count(),
        spec.aggs_per_pod,
        spec.oversubscription(),
    );

    // One bidirectional cross-pod elephant pair per ToR, so data is
    // always descending into pod 0; kill aggregation switch 0 of pod 0
    // (tier 1, index 0) at 15 ms with a 5 ms controller notification
    // delay, and bring it back at 40 ms.
    let report = Scenario::builder(SchemeSpec::presto(), 42)
        .three_tier(spec)
        .duration(SimDuration::from_millis(60))
        .warmup(SimDuration::from_millis(10))
        .elephants(vec![
            presto::workloads::FlowSpec::elephant(0, 8, SimTime::ZERO),
            presto::workloads::FlowSpec::elephant(4, 12, SimTime::ZERO),
            presto::workloads::FlowSpec::elephant(9, 1, SimTime::ZERO),
            presto::workloads::FlowSpec::elephant(13, 5, SimTime::ZERO),
        ])
        .faults(
            FaultPlan::new()
                .switch_down(
                    SimTime::from_millis(15),
                    1,
                    0,
                    Notify::After(SimDuration::from_millis(5)),
                )
                .switch_up(SimTime::from_millis(40), 1, 0, Notify::Immediate),
        )
        .build()
        .run();

    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>8} {:>10}",
        "stage", "start(ms)", "end(ms)", "tput(Gbps)", "drops", "loss"
    );
    for s in &report.failover_stages {
        println!(
            "{:<16} {:>10.1} {:>10.1} {:>12.2} {:>8} {:>9.4}%",
            s.name,
            s.start_ns as f64 / 1e6,
            s.end_ns as f64 / 1e6,
            s.goodput_gbps,
            s.drops,
            s.loss_rate * 100.0,
        );
    }
    println!(
        "\nmean elephant tput {:.2} Gbps, {} retransmissions, run loss rate {:.4}%",
        report.mean_elephant_tput(),
        report.retransmissions,
        report.loss_rate * 100.0,
    );

    let lossy: Vec<&str> = report
        .failover_stages
        .iter()
        .filter(|s| s.drops > 0)
        .map(|s| s.name.as_str())
        .collect();
    println!("stages with loss: {lossy:?} (expected: [\"fast-failover\"])");
}
