//! Building non-default fabrics with the library API.
//!
//! ```text
//! cargo run --release --example custom_topology
//! ```
//!
//! Shows three things the `ScenarioBuilder` defaults leave out:
//!
//! 1. a Clos fabric with γ = 2 parallel leaf-spine cables — the controller
//!    allocates ν·γ spanning trees (§3.1);
//! 2. shared-memory switch buffering with dynamic thresholds (the paper's
//!    G8264 is a shared-buffer switch);
//! 3. driving the simulator directly via `Scenario::build()` to inspect
//!    internal state after the run.

use presto::prelude::*;
use presto::workloads::FlowSpec;

fn main() {
    println!("Custom fabric: 2 spines x 2 parallel links, shared-buffer switches\n");
    let sc = Scenario::builder(SchemeSpec::presto(), 5)
        .topology(ClosSpec {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 8,
            links_per_pair: 2,
            shared_buffer: Some((4 * 1024 * 1024, 1.0)),
            ..ClosSpec::default()
        })
        .duration(SimDuration::from_millis(80))
        .warmup(SimDuration::from_millis(20))
        .elephants(
            (0..4)
                .map(|i| FlowSpec::elephant(i, 8 + i, SimTime::ZERO))
                .collect(),
        )
        .build();

    let mut sim = sc.build();
    // The controller allocated nu * gamma = 4 disjoint trees.
    let trees = sim.controller.as_ref().map(|c| c.tree_count()).unwrap_or(0);
    println!("spanning trees allocated: {trees}");
    let report = sim.run();
    println!(
        "mean elephant tput:       {:.2} Gbps",
        report.mean_elephant_tput()
    );
    println!("fairness:                 {:.3}", report.fairness());
    println!("flowcells created:        {}", report.flowcells);
    println!("loss rate:                {:.5}%", report.loss_rate * 100.0);

    // Peek at the shared pools after the run.
    for (i, sw) in sim
        .topo
        .leaves
        .iter()
        .chain(sim.topo.spines.iter())
        .enumerate()
    {
        if let Some(buf) = sim.topo.fabric.shared_buffer(*sw) {
            println!(
                "switch {i}: shared pool {} bytes, residual occupancy {}",
                buf.pool_bytes,
                buf.used()
            );
        }
    }
    println!("\n4 flows over 4 trees (2 spines x 2 cables) should sit near line rate");
    println!("with fairness ~1.0 — the tree abstraction hides where capacity lives.");
}
