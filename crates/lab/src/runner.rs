//! Campaign execution: cache partitioning, isolated runs, artifacts.
//!
//! [`LabRunner`] drives one [`Campaign`] to a complete results table:
//!
//! 1. expand the grid and fingerprint every point,
//! 2. partition against the [`ResultsStore`] cache — points whose
//!    fingerprint already has a row are *not executed again*,
//! 3. fan the remaining points over [`ParallelRunner::run_isolated`], so
//!    a panicking configuration becomes a `Failed` row instead of sinking
//!    the sweep,
//! 4. append each finished row to the store immediately (an interrupted
//!    campaign resumes from the last completed point),
//! 5. write the deterministic `table.json` / `table.csv` artifacts in
//!    grid order, plus telemetry traces for `[[trace]]`-flagged points.
//!
//! Because each simulation is single-threaded and seeded only by its
//! scenario, a cache hit is not an approximation: the stored row carries
//! the same `Report::digest` a fresh run would produce, at any worker
//! count, with or without tracing.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use presto_testbed::{ParallelRunner, Scenario};

use crate::campaign::{Campaign, PointSpec};
use crate::store::{ResultsStore, Row, RowStatus};

/// Execution knobs for one campaign run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads for the fan-out (≥ 1).
    pub workers: usize,
    /// Re-execute points whose cached row is `Failed` (after a code fix,
    /// the config fingerprint is unchanged, so failures stay cached until
    /// retried explicitly).
    pub retry_failed: bool,
    /// Honor `[[trace]]` flags by running those points with telemetry and
    /// writing a trace artifact. Tracing never changes results.
    pub write_traces: bool,
    /// Error out if any point would actually execute — CI uses this to
    /// assert a second run is 100 % cache hits.
    pub require_cached: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: 1,
            retry_failed: false,
            write_traces: true,
            require_cached: false,
        }
    }
}

/// What a campaign run produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Campaign name.
    pub campaign: String,
    /// Final results table, in grid order.
    pub rows: Vec<Row>,
    /// Points actually executed this run.
    pub executed: usize,
    /// Points answered from the store.
    pub cached: usize,
    /// Rows in `Failed` state (cached or fresh).
    pub failed: usize,
    /// Path of the `table.json` artifact.
    pub table_json: PathBuf,
}

/// Progress narration callback; called from worker threads.
pub type Narrator<'a> = Box<dyn Fn(&str) + Sync + 'a>;

/// Executes campaigns against a results store.
pub struct LabRunner<'a> {
    store: &'a ResultsStore,
    opts: RunOptions,
    narrator: Option<Narrator<'a>>,
}

impl<'a> LabRunner<'a> {
    /// A runner over `store` with the given options.
    pub fn new(store: &'a ResultsStore, opts: RunOptions) -> Self {
        LabRunner {
            store,
            opts,
            narrator: None,
        }
    }

    /// Stream progress lines (start, per-point completion, summary) to
    /// `narrate`. Per-point lines arrive from worker threads in completion
    /// order; the results table itself is always in grid order.
    pub fn with_narrator(mut self, narrate: Narrator<'a>) -> Self {
        self.narrator = Some(narrate);
        self
    }

    fn say(&self, line: &str) {
        if let Some(n) = &self.narrator {
            n(line);
        }
    }

    /// Run the campaign to a complete results table. See the module docs
    /// for the phase breakdown.
    pub fn run(&self, campaign: &Campaign) -> Result<CampaignOutcome, String> {
        let points = campaign.expand()?;
        let fps: Vec<String> = points.iter().map(PointSpec::fingerprint).collect();
        let cache = self.store.load(&campaign.name)?;

        let mut slots: Vec<Option<Row>> = vec![None; points.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (i, fp) in fps.iter().enumerate() {
            match cache.get(fp) {
                Some(row) if row.status == RowStatus::Ok || !self.opts.retry_failed => {
                    slots[i] = Some(row.clone());
                }
                _ => pending.push(i),
            }
        }
        let cached = points.len() - pending.len();
        self.say(&format!(
            "campaign {}: {} points ({cached} cached, {} to run, workers={})",
            campaign.name,
            points.len(),
            pending.len(),
            self.opts.workers.max(1),
        ));
        if self.opts.require_cached && !pending.is_empty() {
            let labels: Vec<String> = pending.iter().map(|&i| points[i].label()).collect();
            return Err(format!(
                "campaign {}: {} point(s) not cached but --require-cached was set: {}",
                campaign.name,
                labels.len(),
                labels.join(", ")
            ));
        }

        let executed = pending.len();
        if !pending.is_empty() {
            // The scenario's run label is the point label, so the job can
            // look its grid point back up from the scenario alone.
            let by_label: HashMap<String, (usize, &str, bool)> = pending
                .iter()
                .map(|&i| (points[i].label(), (i, fps[i].as_str(), points[i].traced)))
                .collect();
            let scenarios: Vec<Scenario> =
                pending.iter().map(|&i| points[i].to_scenario()).collect();
            let store = self.store;
            let name = campaign.name.as_str();
            let opts = &self.opts;
            let results = ParallelRunner::new(opts.workers).run_isolated(&scenarios, |sc| {
                let (_, fp, traced) = by_label[sc.name()];
                let start = Instant::now();
                // Tracing uses the same deterministic simulation; the
                // report (and therefore the row digest) is identical
                // either way.
                let (report, telemetry) = if traced && opts.write_traces {
                    let (r, t) = sc.run_traced();
                    (r, Some(t))
                } else {
                    (sc.run(), None)
                };
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let row = Row::from_report(sc.name(), fp, &report, wall_ms);
                if let Some(tel) = telemetry {
                    // An unwritable trace panics into a Failed row: the
                    // artifact was requested, so losing it silently would
                    // be worse.
                    let dir = store.traces_dir(name).unwrap_or_else(|e| panic!("{e}"));
                    let path = dir.join(format!("{}.jsonl", sanitize_label(sc.name())));
                    std::fs::write(&path, tel.to_jsonl())
                        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                }
                store.append(name, &row).unwrap_or_else(|e| panic!("{e}"));
                self.say(&format!("  done {} ({:.0} ms)", sc.name(), wall_ms));
                row
            });
            for (slot, result) in pending.iter().zip(results) {
                let row = match result {
                    Ok(row) => row,
                    Err(panic_msg) => {
                        let p = &points[*slot];
                        self.say(&format!("  FAILED {}: {panic_msg}", p.label()));
                        let row = Row::failed(&p.label(), &fps[*slot], &panic_msg);
                        self.store.append(&campaign.name, &row)?;
                        row
                    }
                };
                slots[*slot] = Some(row);
            }
        }

        let rows: Vec<Row> = slots
            .into_iter()
            .map(|s| s.expect("every grid point has a row"))
            .collect();
        let refs: Vec<&Row> = rows.iter().collect();
        let table_json = self.store.write_table(&campaign.name, &refs)?;
        let failed = rows
            .iter()
            .filter(|r| r.status == RowStatus::Failed)
            .count();
        self.say(&format!(
            "campaign {}: wrote {} ({executed} ran, {cached} cached, {failed} failed)",
            campaign.name,
            table_json.display(),
        ));
        Ok(CampaignOutcome {
            campaign: campaign.name.clone(),
            rows,
            executed,
            cached,
            failed,
            table_json,
        })
    }
}

/// Turn a point label into a safe file stem
/// (`presto/testbed16/stride:8/...` → `presto_testbed16_stride-8_...`).
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| match c {
            '/' => '_',
            ':' => '-',
            c if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' => c,
            _ => '-',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_tables;
    use crate::store::read_table;
    use presto_simcore::SimDuration;
    use std::fs;
    use std::path::Path;

    fn tiny_campaign(name: &str) -> Campaign {
        let mut c = Campaign::new(name);
        c.duration = SimDuration::from_millis(6);
        c.warmup = SimDuration::from_millis(2);
        c.seeds = vec![1, 2];
        c
    }

    fn temp_store(tag: &str) -> (PathBuf, ResultsStore) {
        let dir =
            std::env::temp_dir().join(format!("presto-lab-runner-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn second_run_is_all_cache_hits_with_identical_table() {
        let (dir, store) = temp_store("cache");
        let campaign = tiny_campaign("demo");
        let runner = LabRunner::new(&store, RunOptions::default());
        let first = runner.run(&campaign).unwrap();
        assert_eq!(first.executed, 2);
        assert_eq!(first.cached, 0);
        let table_bytes = fs::read(&first.table_json).unwrap();

        // Second run: zero executions, byte-identical artifact, and it
        // must pass even under --require-cached.
        let opts = RunOptions {
            require_cached: true,
            ..RunOptions::default()
        };
        let second = LabRunner::new(&store, opts).run(&campaign).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.cached, 2);
        assert_eq!(fs::read(&second.table_json).unwrap(), table_bytes);
        assert_eq!(first.rows, second.rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn require_cached_fails_on_a_cold_store() {
        let (dir, store) = temp_store("cold");
        let opts = RunOptions {
            require_cached: true,
            ..RunOptions::default()
        };
        let err = LabRunner::new(&store, opts)
            .run(&tiny_campaign("cold"))
            .unwrap_err();
        assert!(err.contains("not cached"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_campaign_resumes_from_the_store() {
        let (dir, store) = temp_store("resume");
        let campaign = tiny_campaign("resume");
        // "Interrupt" after the first point: run a single-seed prefix of
        // the same grid, which caches that point's fingerprint.
        let mut prefix = campaign.clone();
        prefix.seeds = vec![1];
        LabRunner::new(&store, RunOptions::default())
            .run(&prefix)
            .unwrap();
        let resumed = LabRunner::new(&store, RunOptions::default())
            .run(&campaign)
            .unwrap();
        assert_eq!(resumed.cached, 1, "seed 1 must come from the store");
        assert_eq!(resumed.executed, 1, "only seed 2 still runs");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn halved_goodput_table_fails_diff_against_the_fresh_run() {
        // The paper grid's CI gate: the fresh table, read back as `lab
        // diff` reads it, passes against itself, and the same table with
        // every goodput halved fails with one goodput regression per row.
        let (dir, store) = temp_store("halved");
        let fresh = LabRunner::new(&store, RunOptions::default())
            .run(&tiny_campaign("halved"))
            .unwrap();
        let table = read_table(&fresh.table_json).unwrap();
        assert!(diff_tables(&table, &table, false).passed());
        let halved: Vec<Row> = table
            .iter()
            .map(|row| {
                let mut row = row.clone();
                row.set("goodput_gbps", row.get("goodput_gbps") * 0.5);
                row
            })
            .collect();
        let report = diff_tables(&table, &halved, false);
        assert_eq!(report.regressions.len(), table.len(), "{report:?}");
        assert!(report.regressions.iter().all(|r| r.contains("goodput")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn narration_streams_start_progress_and_summary() {
        let (dir, store) = temp_store("narrate");
        let lines = std::sync::Mutex::new(Vec::<String>::new());
        let campaign = tiny_campaign("narrate");
        LabRunner::new(&store, RunOptions::default())
            .with_narrator(Box::new(|l: &str| {
                lines.lock().unwrap().push(l.to_string());
            }))
            .run(&campaign)
            .unwrap();
        let lines = lines.into_inner().unwrap();
        assert!(
            lines[0].contains("2 points (0 cached, 2 to run"),
            "{lines:?}"
        );
        assert_eq!(lines.iter().filter(|l| l.contains("  done ")).count(), 2);
        assert!(lines.last().unwrap().contains("2 ran, 0 cached, 0 failed"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_points_emit_a_trace_artifact_without_changing_results() {
        let (dir, store) = temp_store("traces");
        let mut campaign = tiny_campaign("traced");
        campaign.traces.push(crate::campaign::PointMatch {
            seed: Some(1),
            ..Default::default()
        });
        let outcome = LabRunner::new(&store, RunOptions::default())
            .run(&campaign)
            .unwrap();
        let traces: Vec<_> = fs::read_dir(store.traces_dir("traced").unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(traces.len(), 1, "exactly the flagged point is traced");
        assert!(
            traces[0].starts_with("presto_testbed16_stride-8"),
            "{traces:?}"
        );

        // Same campaign without tracing, cold store: identical digests.
        let (dir2, store2) = temp_store("traces2");
        let mut untraced = campaign.clone();
        untraced.traces.clear();
        let plain = LabRunner::new(&store2, RunOptions::default())
            .run(&untraced)
            .unwrap();
        let digests = |o: &CampaignOutcome| o.rows.iter().map(|r| r.digest).collect::<Vec<_>>();
        assert_eq!(digests(&outcome), digests(&plain));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    /// The tentpole failure-semantics contract: a panicking grid point
    /// becomes a Failed row, its siblings complete, and the failure stays
    /// cached until `retry_failed`.
    #[test]
    fn panicking_point_becomes_a_failed_row_and_stays_cached() {
        let (dir, store) = temp_store("failrow");
        let campaign = tiny_campaign("failrow");
        let points = campaign.expand().unwrap();
        // Poison the cache by pre-seeding a Failed row for seed 2's
        // fingerprint, as a panicking run would have left behind.
        let bad = &points[1];
        store
            .append(
                "failrow",
                &Row::failed(&bad.label(), &bad.fingerprint(), "injected panic"),
            )
            .unwrap();
        let outcome = LabRunner::new(&store, RunOptions::default())
            .run(&campaign)
            .unwrap();
        assert_eq!(outcome.cached, 1, "the Failed row is a cache hit");
        assert_eq!(outcome.failed, 1);
        assert_eq!(outcome.rows[1].status, RowStatus::Failed);
        assert_eq!(outcome.rows[0].status, RowStatus::Ok, "sibling unharmed");

        // retry_failed re-executes exactly the failed point.
        let opts = RunOptions {
            retry_failed: true,
            ..RunOptions::default()
        };
        let retried = LabRunner::new(&store, opts).run(&campaign).unwrap();
        assert_eq!(retried.executed, 1);
        assert_eq!(retried.failed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_count_does_not_change_the_table() {
        let campaign = tiny_campaign("workers");
        let mut tables = Vec::new();
        for (i, workers) in [1usize, 2, 4].into_iter().enumerate() {
            let (dir, store) = temp_store(&format!("workers{i}"));
            let opts = RunOptions {
                workers,
                ..RunOptions::default()
            };
            let outcome = LabRunner::new(&store, opts).run(&campaign).unwrap();
            tables.push(
                outcome
                    .rows
                    .iter()
                    .map(|r| (r.label.clone(), r.fp.clone(), r.digest))
                    .collect::<Vec<_>>(),
            );
            let _ = fs::remove_dir_all(&dir);
        }
        assert_eq!(tables[0], tables[1]);
        assert_eq!(tables[0], tables[2]);
    }

    #[test]
    fn sanitize_label_is_filesystem_safe() {
        let s = sanitize_label("presto/testbed16/stride:8/none/cell64k/s1");
        assert_eq!(s, "presto_testbed16_stride-8_none_cell64k_s1");
        assert!(!Path::new(&s).is_absolute());
        assert!(!s.contains('/'));
    }
}
