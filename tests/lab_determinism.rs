//! Determinism of the campaign store: cache hits are bit-exact.
//!
//! The `presto-lab` contract extending `tests/parallel_determinism.rs`:
//! a row answered from the results store must carry the same
//! `Report::digest` a fresh execution would produce — at any worker
//! count, with telemetry tracing on or off — and a completed campaign
//! re-runs with zero executions and a byte-identical results table.

use std::fs;
use std::path::PathBuf;

use presto::prelude::SimDuration;
use presto_lab::{Campaign, LabRunner, PointMatch, ResultsStore, RowStatus, RunOptions};

/// A small but behaviourally distinct grid: two schemes × two seeds over
/// seeded bijection traffic, short enough for CI.
fn grid() -> Campaign {
    let mut campaign = Campaign::new("det");
    campaign.duration = SimDuration::from_millis(8);
    campaign.warmup = SimDuration::from_millis(2);
    campaign.schemes = vec!["presto".parse().unwrap(), "ecmp".parse().unwrap()];
    campaign.workloads = vec!["bijection".parse().unwrap()];
    campaign.seeds = vec![1, 2];
    campaign
}

fn temp_store(tag: &str) -> (PathBuf, ResultsStore) {
    let dir = std::env::temp_dir().join(format!("presto-lab-det-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = ResultsStore::open(&dir).unwrap();
    (dir, store)
}

/// Satellite: cache-hit rows must be byte-identical to a fresh run's
/// `Report::digest` at 1, 2, and 8 workers, with telemetry on and off.
#[test]
fn cached_rows_match_fresh_digests_across_workers_and_telemetry() {
    let campaign = grid();
    // Reference digests straight from the simulator, bypassing the lab.
    let expected: Vec<u64> = campaign
        .expand()
        .unwrap()
        .iter()
        .map(|p| p.to_scenario().run().digest())
        .collect();

    for workers in [1usize, 2, 8] {
        for traced in [false, true] {
            let (dir, store) = temp_store(&format!("w{workers}-t{traced}"));
            let mut campaign = grid();
            if traced {
                // Trace every point: [[trace]] must not perturb results.
                campaign.traces.push(PointMatch::default());
                // An unconstrained matcher is rejected by the TOML layer
                // but fine programmatically.
            }
            let opts = RunOptions {
                workers,
                write_traces: traced,
                ..RunOptions::default()
            };
            let fresh = LabRunner::new(&store, opts.clone()).run(&campaign).unwrap();
            for row in &fresh.rows {
                assert_eq!(row.status, RowStatus::Ok, "{}", row.label);
                assert!(row.events_per_sec > 0.0, "{}: rate recorded", row.label);
            }
            let fresh_digests: Vec<u64> = fresh.rows.iter().map(|r| r.digest).collect();
            assert_eq!(
                fresh_digests, expected,
                "fresh digests diverged (workers={workers}, traced={traced})"
            );

            // Second pass: pure cache hits, identical rows and bytes.
            let cached = LabRunner::new(&store, opts).run(&campaign).unwrap();
            assert_eq!(cached.executed, 0, "workers={workers}, traced={traced}");
            assert_eq!(cached.cached, fresh.rows.len());
            assert_eq!(cached.rows, fresh.rows, "cache must be bit-exact");
            assert_eq!(
                fs::read(&cached.table_json).unwrap(),
                fs::read(&fresh.table_json).unwrap(),
                "table artifact must be byte-identical on a cached re-run"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// An interrupted campaign resumes: points finished before the
/// interruption are cache hits, only the remainder executes, and the
/// final table equals an uninterrupted run's.
#[test]
fn interrupted_campaign_resumes_from_the_store() {
    let campaign = grid();
    // The uninterrupted reference.
    let (ref_dir, ref_store) = temp_store("ref");
    let reference = LabRunner::new(&ref_store, RunOptions::default())
        .run(&campaign)
        .unwrap();

    // "Interrupt" by running only the first scheme's half of the grid,
    // which shares those points' fingerprints with the full campaign.
    let (dir, store) = temp_store("resume");
    let mut half = grid();
    half.schemes.truncate(1);
    let partial = LabRunner::new(&store, RunOptions::default())
        .run(&half)
        .unwrap();
    assert_eq!(partial.executed, 2);

    let resumed = LabRunner::new(&store, RunOptions::default())
        .run(&campaign)
        .unwrap();
    assert_eq!(resumed.cached, 2, "the finished half is not re-executed");
    assert_eq!(resumed.executed, 2, "only the remainder runs");
    // Wall-clock time (and the events/s rate derived from it) is the one
    // legitimately non-deterministic part of a row.
    let strip_wall = |rows: &[presto_lab::Row]| {
        rows.iter()
            .cloned()
            .map(|mut r| {
                r.wall_ms = 0.0;
                r.events_per_sec = 0.0;
                r
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(strip_wall(&resumed.rows), strip_wall(&reference.rows));
    assert!(resumed.rows.iter().all(|r| r.status == RowStatus::Ok));
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}
