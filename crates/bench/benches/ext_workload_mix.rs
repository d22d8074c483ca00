//! Extension: published workload mixes (web search & data mining).
//!
//! The paper's trace-driven experiment uses one measured mix; the DCTCP
//! "web search" and VL2 "data mining" CDFs are the other two canonical
//! datacenter workloads. This bench replays both through Presto and ECMP
//! to show the Table 1 conclusions are not an artifact of one size mix.
//!
//! Since PR 5 this harness is a `presto-lab` campaign rather than a
//! hand-rolled loop: the grid (scheme × mix) expands declaratively, runs
//! through the campaign runner, and is cached in a content-addressed
//! store under `target/lab-store` — re-running with the same
//! `PRESTO_SIM_MS` / `PRESTO_SEED` answers every point from the cache.
//! Set `PRESTO_LAB_STORE` to relocate (or wipe the directory to force
//! re-execution).

use presto_bench::{banner, base_seed, new_table, sim_duration, table::f, warmup_of, workers};
use presto_lab::{Campaign, LabRunner, ResultsStore, RunOptions, WorkloadId};

fn main() {
    banner(
        "Extension: workload mixes",
        "web-search (DCTCP) and data-mining (VL2) CDFs through the fabric",
        "Presto's mice-tail and elephant wins should hold across size mixes",
    );
    let duration = sim_duration() * 4;

    // The old hand-rolled double loop, as a declarative grid. The
    // campaign name carries the knobs that change the scenarios, so each
    // (duration, seed) sweep caches independently.
    let mut campaign = Campaign::new(format!(
        "ext_workload_mix_{}ms_s{}",
        duration.as_millis_f64() as u64,
        base_seed()
    ));
    campaign.duration = duration;
    campaign.warmup = warmup_of(duration);
    campaign.schemes = vec!["ecmp".parse().unwrap(), "presto".parse().unwrap()];
    campaign.workloads = vec![WorkloadId::WebSearch(3), WorkloadId::DataMining(4)];
    campaign.seeds = vec![base_seed()];

    let store_dir =
        std::env::var("PRESTO_LAB_STORE").unwrap_or_else(|_| "target/lab-store".to_string());
    let store = ResultsStore::open(store_dir).expect("open results store");
    let opts = RunOptions {
        workers: workers(),
        ..RunOptions::default()
    };
    let outcome = LabRunner::new(&store, opts)
        .run(&campaign)
        .expect("campaign failed");
    if outcome.cached > 0 {
        println!(
            "({} of {} points answered from the store)",
            outcome.cached,
            outcome.rows.len()
        );
    }

    let mut tbl = new_table([
        "mix",
        "scheme",
        "mice",
        "fct p50(ms)",
        "fct p99(ms)",
        "eleph(Gbps)",
        "loss(%)",
    ]);
    // Rows come back in grid order (scheme outermost, then workload);
    // re-group by mix to keep the table's historical layout.
    for workload in &campaign.workloads {
        let mix_name = match workload {
            WorkloadId::WebSearch(_) => "web-search",
            WorkloadId::DataMining(_) => "data-mining",
            other => unreachable!("unexpected workload {other}"),
        };
        for row in &outcome.rows {
            if !row.label.contains(&format!("/{workload}/")) {
                continue;
            }
            let scheme = row.label.split('/').next().unwrap_or("?");
            tbl.row([
                mix_name.to_string(),
                scheme.to_string(),
                row.get("fct_count").to_string(),
                f(row.get("fct_p50"), 2),
                f(row.get("fct_p99"), 2),
                f(row.get("goodput_gbps"), 2),
                f(row.get("loss_rate") * 100.0, 3),
            ]);
        }
    }
    tbl.print();
}
