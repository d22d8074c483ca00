//! Extension: scalability over tier depth.
//!
//! The graph-based fabric supports arbitrary tiered topologies; this
//! bench grows the network two ways and checks that Presto's edge-based
//! spraying keeps its near-optimal throughput and fairness as the tree
//! deepens:
//!
//! 1. matched-capacity 2-tier vs 3-tier fabrics under the same
//!    cross-fabric elephant workload (per-hop cost of the extra tier);
//! 2. 3-tier fabrics of increasing pod count (controller install cost
//!    and simulated-events throughput as the switch graph grows).

use std::time::Instant;

use presto_bench::{banner, base_seed, new_table, sim_duration, table::f, warmup_of};
use presto_core::Controller;
use presto_netsim::{ClosSpec, ThreeTierSpec, Topology};
use presto_simcore::SimTime;
use presto_testbed::{Scenario, SchemeSpec};
use presto_workloads::FlowSpec;

/// Cross-fabric elephants: one sender per source ToR/leaf, all targeting
/// hosts in the far half of the fabric.
fn cross_flows(n_hosts: usize, senders: usize) -> Vec<FlowSpec> {
    let half = n_hosts / 2;
    (0..senders)
        .map(|i| {
            let src = i * (half / senders);
            FlowSpec::elephant(src, half + src, SimTime::ZERO)
        })
        .collect()
}

fn main() {
    banner(
        "Extension: tier depth",
        "2-tier vs 3-tier Clos, then 3-tier growth",
        "edge-based load balancing is topology-agnostic: deeper trees keep the gains",
    );

    // Part 1: same server count and per-host bandwidth, one extra tier.
    let mut tbl = new_table([
        "fabric",
        "servers",
        "trees",
        "scheme",
        "tput(Gbps)",
        "fairness",
    ]);
    for scheme in [SchemeSpec::ecmp(), SchemeSpec::presto()] {
        let name = scheme.name;
        let r = Scenario::builder(scheme, base_seed())
            .topology(ClosSpec::default())
            .duration(sim_duration())
            .warmup(warmup_of(sim_duration()))
            .elephants(cross_flows(16, 4))
            .build()
            .run();
        tbl.row([
            "2-tier 4sp x 4lf".to_string(),
            "16".to_string(),
            "4".to_string(),
            name.to_string(),
            f(r.mean_elephant_tput(), 2),
            f(r.fairness(), 3),
        ]);
    }
    let spec3 = ThreeTierSpec {
        aggs_per_pod: 4,
        cores_per_group: 1,
        ..ThreeTierSpec::default()
    };
    for scheme in [SchemeSpec::ecmp(), SchemeSpec::presto()] {
        let name = scheme.name;
        let r = Scenario::builder(scheme, base_seed())
            .three_tier(spec3.clone())
            .duration(sim_duration())
            .warmup(warmup_of(sim_duration()))
            .elephants(cross_flows(16, 4))
            .build()
            .run();
        tbl.row([
            "3-tier 2pod x 4agg".to_string(),
            "16".to_string(),
            "4".to_string(),
            name.to_string(),
            f(r.mean_elephant_tput(), 2),
            f(r.fairness(), 3),
        ]);
    }
    tbl.print();

    // Part 2: controller install cost and event throughput as the
    // 3-tier switch graph grows.
    println!();
    let mut tbl = new_table([
        "pods",
        "switches",
        "links",
        "trees",
        "install(ms)",
        "tput(Gbps)",
        "Mevents/s",
    ]);
    for pods in [2usize, 4, 8] {
        let spec = ThreeTierSpec {
            pods,
            tors_per_pod: 2,
            hosts_per_tor: 2,
            aggs_per_pod: 4,
            cores_per_group: 1,
            ..ThreeTierSpec::default()
        };
        let mut topo = Topology::three_tier(&spec);
        let switches = topo.tiers.iter().map(Vec::len).sum::<usize>();
        let links = topo.fabric.links().len();
        let t0 = Instant::now();
        let ctl = Controller::install(&mut topo);
        let install_ms = t0.elapsed().as_secs_f64() * 1e3;
        let trees = ctl.tree_count();

        let hosts = spec.host_count();
        let t0 = Instant::now();
        let r = Scenario::builder(SchemeSpec::presto(), base_seed())
            .three_tier(spec)
            .duration(sim_duration())
            .warmup(warmup_of(sim_duration()))
            .elephants(cross_flows(hosts, pods))
            .build()
            .run();
        let wall = t0.elapsed().as_secs_f64();
        tbl.row([
            pods.to_string(),
            switches.to_string(),
            links.to_string(),
            trees.to_string(),
            f(install_ms, 2),
            f(r.mean_elephant_tput(), 2),
            f(r.events_processed as f64 / wall / 1e6, 2),
        ]);
    }
    tbl.print();
    println!("\nReading: Presto's throughput and fairness should match across depths");
    println!("(the extra tier adds propagation, not collisions), and install cost");
    println!("should stay sub-second while the graph grows.");
}
