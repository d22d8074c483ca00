//! Cross-crate checks that traffic physically follows the paths Presto's
//! labels name — read from the same switch counters the paper uses.

use presto::prelude::*;
use presto::workloads::FlowSpec;

/// One Presto elephant must spread its bytes across *all four* spine
/// uplinks nearly equally — the round-robin invariant observed at the
/// fabric, not just at the scheduler.
#[test]
fn one_flow_spreads_evenly_over_all_spines() {
    let sc = Scenario::builder(SchemeSpec::presto(), 41)
        .duration(SimDuration::from_millis(40))
        .warmup(SimDuration::from_millis(5))
        .elephants(vec![FlowSpec::elephant(0, 8, SimTime::ZERO)])
        .build();
    let mut sim = sc.build();
    let _ = sim.run();

    let src_leaf = sim.topo.host_leaf[0];
    let mut per_spine = Vec::new();
    for &spine in &sim.topo.spines {
        let up = sim.topo.links_between(src_leaf, spine)[0];
        per_spine.push(sim.topo.fabric.link(up).counters.tx_bytes);
    }
    let total: u64 = per_spine.iter().sum();
    assert!(total > 10_000_000, "flow barely ran: {total} bytes");
    for (i, &b) in per_spine.iter().enumerate() {
        let share = b as f64 / total as f64;
        assert!(
            (0.22..0.28).contains(&share),
            "spine {i} carried {share:.3} of the bytes: {per_spine:?}"
        );
    }
}

/// An ECMP flow must use exactly one spine (all-or-nothing counters).
#[test]
fn ecmp_flow_sticks_to_one_spine() {
    let sc = Scenario::builder(SchemeSpec::ecmp(), 43)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(5))
        .elephants(vec![FlowSpec::elephant(0, 8, SimTime::ZERO)])
        .build();
    let mut sim = sc.build();
    let _ = sim.run();

    let src_leaf = sim.topo.host_leaf[0];
    let mut used_spines = 0;
    for &spine in &sim.topo.spines {
        let up = sim.topo.links_between(src_leaf, spine)[0];
        if sim.topo.fabric.link(up).counters.tx_bytes > 100_000 {
            used_spines += 1;
        }
    }
    assert_eq!(used_spines, 1, "ECMP must not spray");
}

/// After the controller prunes a failed tree, no data lands on the dead
/// spine pair, while fast-failover alone keeps feeding the dead downlink.
#[test]
fn weighted_stage_avoids_the_dead_tree() {
    let run = |notify: Notify| {
        // L4 -> L1 traffic crosses the dead S1->L1 downlink via tree 0.
        let sc = Scenario::builder(SchemeSpec::presto(), 47)
            .duration(SimDuration::from_millis(40))
            .warmup(SimDuration::from_millis(5))
            .elephants(
                (0..4)
                    .map(|i| FlowSpec::elephant(12 + i, i, SimTime::ZERO))
                    .collect(),
            )
            .faults(FaultPlan::new().link_down(SimTime::ZERO, 0, 0, 0, notify))
            .build();
        let mut sim = sc.build();
        let _ = sim.run();
        // Drops attributable to the dead downlink's unusable route.
        let spine0 = sim.topo.spines[0];
        let dead_down = sim.topo.links_between(spine0, sim.topo.leaves[0])[0];
        let drops: u64 = sim.topo.fabric.switch(spine0).no_route_drops
            + sim.topo.fabric.link(dead_down).counters.dropped_packets;
        drops
    };
    let failover_only = run(Notify::Never);
    let weighted = run(Notify::Immediate);
    // Pure failover keeps sending tree-0 cells into the dead downlink
    // (the window collapse throttles the volume, but drops keep accruing);
    // the weighted stage prunes the tree so almost nothing lands there.
    assert!(
        failover_only >= 10,
        "failover alone should blackhole tree-0 cells: {failover_only}"
    );
    assert!(
        weighted <= failover_only / 5,
        "controller pruning must stop the bleeding: {weighted} vs {failover_only}"
    );
}

/// Probe packets (latency measurement) follow the same label fabric: under
/// Presto a long-running prober eventually exercises several trees.
#[test]
fn probes_rotate_paths_under_presto() {
    let sc = Scenario::builder(SchemeSpec::presto(), 51)
        .duration(SimDuration::from_millis(60))
        .warmup(SimDuration::from_millis(5))
        .probes(vec![(0, 8)])
        .probe_interval(SimDuration::from_micros(100))
        .build();
    let mut sim = sc.build();
    let r = sim.run();
    assert!(r.rtt_ms.len() > 300, "probes recorded {}", r.rtt_ms.len());
    // Probes are tiny; Algorithm 1 rotates them every 64 KB of probe bytes
    // — over ~550 probes (84B wire, 0 payload counted) rotation is rare
    // but the probe flow must at least reach the receiver through the
    // shadow fabric (non-zero RTTs prove echo round trips).
    let p50 = r.rtt_ms.clone().percentile(50.0).unwrap();
    assert!(p50 > 0.01 && p50 < 1.0, "suspicious probe RTT {p50}");
}

/// Two pingers on one host pair share a probe flow; each must still match
/// its own echoes, so the pair records twice the samples of one pinger.
#[test]
fn pingers_sharing_a_host_pair_keep_every_sample() {
    let samples = |probes: Vec<(usize, usize)>| {
        let sc = Scenario::builder(SchemeSpec::presto(), 1)
            .duration(SimDuration::from_millis(30))
            .warmup(SimDuration::from_millis(10))
            .probes(probes)
            .build();
        sc.build().run().rtt_ms.len()
    };
    assert_eq!(samples(vec![(0, 12)]), 40);
    assert_eq!(samples(vec![(0, 12), (1, 12)]), 80);
    assert_eq!(samples(vec![(0, 12), (0, 12)]), 80);
}
