//! The persistent, content-addressed results store.
//!
//! Layout on disk, one subdirectory per campaign under the store root:
//!
//! ```text
//! store/
//!   paper_grid/
//!     results.jsonl   append-only cache: one flat-JSON row per finished point
//!     table.json      deterministic artifact: rows in grid order
//!     table.csv       the same table for spreadsheet tooling
//!     traces/         telemetry traces for [[trace]]-flagged points
//! ```
//!
//! `results.jsonl` is the resume log: every completed grid point appends
//! one [`Row`] keyed by the point's scenario fingerprint, immediately and
//! under a lock, so an interrupted campaign loses at most the points still
//! in flight. On load, unparseable lines (a half-written tail after a
//! `kill -9`) are skipped and later duplicates win, so the store tolerates
//! truncation and re-runs without manual repair.
//!
//! Rows serialize through the deterministic flat-JSON writer of
//! `presto_telemetry::json`: floats round-trip through shortest-display
//! form, so decoding a cached row and re-encoding it reproduces the
//! original bytes — the property behind the "cached re-run emits an
//! identical results table" guarantee.
//!
//! Every metric is declared once, in `COLUMNS`: its key, its kind, how
//! it is read from a finished run, its group and its `lab diff` gate. The
//! JSON line, the CSV and the regression gate all iterate that table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use presto_metrics::MetricSummary;
use presto_telemetry::json::{json_f64, json_str, json_u64, push_f64, push_str_field};
use presto_testbed::Report;

/// Whether a column holds a count or a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A count, written as a JSON integer.
    Int,
    /// A measurement, written in shortest round-trip form.
    Float,
}

/// A run of columns headed by a count: a row *has* the group when that
/// count is nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Mice flow-completion times. Always written.
    Fct,
    /// Incast deadline accounting. Written only by rows that have it, so
    /// tables from before incast workloads re-encode to their bytes.
    Deadline,
    /// Receiver-load probe counters. Written only by rows that have them,
    /// so tables from before probing re-encode to their bytes.
    Probe,
}

impl Group {
    /// Index in [`COLUMNS`] of the count that heads the group.
    pub(crate) fn head(self) -> usize {
        COLUMNS
            .iter()
            .position(|c| c.group == Some(self))
            .expect("every group has columns")
    }

    /// Whether rows that lack the group leave its columns out.
    fn optional(self) -> bool {
        self != Group::Fct
    }
}

/// How far `lab diff` lets a column move against the baseline before the
/// row regresses; moving as far the other way is noted as an improvement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Gate {
    /// May fall by at most this fraction of the baseline value.
    DropRel(f64),
    /// May rise by at most this fraction of the baseline value.
    RiseRel(f64),
    /// May rise by at most this much.
    RiseAbs(f64),
    /// Taken as a share of its group's count, may rise by at most this much.
    ShareRiseAbs(f64),
}

/// What a measured column reads: one finished run, with its latency
/// summaries computed once.
struct Run<'a> {
    report: &'a Report,
    fct: MetricSummary,
    rtt: MetricSummary,
    wall_ms: f64,
}

/// Where a column's value comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Read from the finished run.
    Measured(fn(&Run) -> f64),
    /// Computed from the row's other columns: written, never stored.
    Derived(fn(&Row) -> f64),
}

/// One metric column of the results table.
#[derive(Clone, Copy)]
pub(crate) struct Column {
    /// JSON key and CSV header.
    pub(crate) key: &'static str,
    /// Count or measurement.
    kind: Kind,
    source: Source,
    /// The group the column belongs to, if any.
    pub(crate) group: Option<Group>,
    /// The `lab diff` gate, if any.
    pub(crate) gate: Option<Gate>,
}

const fn int(key: &'static str, read: fn(&Run) -> f64) -> Column {
    Column::new(key, Kind::Int, Source::Measured(read))
}

const fn float(key: &'static str, read: fn(&Run) -> f64) -> Column {
    Column::new(key, Kind::Float, Source::Measured(read))
}

const fn derived(key: &'static str, derive: fn(&Row) -> f64) -> Column {
    Column::new(key, Kind::Float, Source::Derived(derive))
}

impl Column {
    const fn new(key: &'static str, kind: Kind, source: Source) -> Column {
        Column {
            key,
            kind,
            source,
            group: None,
            gate: None,
        }
    }

    const fn of(self, group: Group) -> Column {
        Column {
            group: Some(group),
            ..self
        }
    }

    const fn gated(self, gate: Gate) -> Column {
        Column {
            gate: Some(gate),
            ..self
        }
    }

    /// Append `v` in the column's JSON form.
    fn push(&self, out: &mut String, v: f64) {
        match self.kind {
            Kind::Int => {
                let _ = write!(out, "{}", v as u64);
            }
            Kind::Float => push_f64(out, v),
        }
    }
}

/// The results table's metric columns, in JSON and CSV order.
pub(crate) const COLUMNS: &[Column] = &[
    float("goodput_gbps", |r| r.report.mean_elephant_tput()).gated(Gate::DropRel(0.05)),
    float("fairness", |r| r.report.fairness()),
    float("loss_rate", |r| r.report.loss_rate).gated(Gate::RiseAbs(0.002)),
    int("fct_count", |r| r.fct.count as f64).of(Group::Fct),
    float("fct_mean", |r| r.fct.mean).of(Group::Fct),
    float("fct_min", |r| r.fct.min).of(Group::Fct),
    float("fct_p50", |r| r.fct.p50).of(Group::Fct),
    float("fct_p90", |r| r.fct.p90).of(Group::Fct),
    float("fct_p99", |r| r.fct.p99)
        .of(Group::Fct)
        .gated(Gate::RiseRel(0.10)),
    float("fct_max", |r| r.fct.max).of(Group::Fct),
    int("rtt_count", |r| r.rtt.count as f64),
    float("rtt_mean", |r| r.rtt.mean),
    float("rtt_min", |r| r.rtt.min),
    float("rtt_p50", |r| r.rtt.p50),
    float("rtt_p90", |r| r.rtt.p90),
    float("rtt_p99", |r| r.rtt.p99),
    float("rtt_max", |r| r.rtt.max),
    int("retrans", |r| r.report.retransmissions as f64),
    int("events", |r| r.report.events_processed as f64),
    // Machine-dependent: cached re-runs keep the stored value, so tables
    // stay byte-identical across machines.
    float("wall_ms", |r| r.wall_ms),
    derived("events_per_sec", Row::events_per_sec),
    int("deadline_total", |r| r.report.incast_requests as f64).of(Group::Deadline),
    int("deadline_misses", |r| {
        r.report.incast_deadline_misses as f64
    })
    .of(Group::Deadline)
    .gated(Gate::ShareRiseAbs(0.02)),
    int("probe_rounds", |r| r.report.probe_rounds as f64).of(Group::Probe),
    int("probe_samples", |r| r.report.probe_pool_samples as f64).of(Group::Probe),
    int("probe_hot", |r| r.report.probe_pool_hot as f64).of(Group::Probe),
    int("probe_cold", |r| r.report.probe_pool_cold as f64).of(Group::Probe),
];

/// Events per wall-clock second; zero when no time was measured.
pub fn events_rate(events: f64, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        events * 1e3 / wall_ms
    } else {
        0.0
    }
}

/// Index of `key` in [`COLUMNS`]; an unknown key is a programming error.
fn column(key: &str) -> usize {
    COLUMNS
        .iter()
        .position(|c| c.key == key)
        .unwrap_or_else(|| panic!("no results column `{key}`"))
}

/// Terminal state of one grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// The scenario ran to completion.
    Ok,
    /// The scenario panicked; the row carries the panic message.
    Failed,
}

impl RowStatus {
    fn as_str(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Failed => "failed",
        }
    }
}

/// One results-table row: the summary a paper table or the regression
/// gate reads for a single grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Grid-point label (`presto/testbed16/stride:8/none/cell64k/s1`).
    pub label: String,
    /// Scenario fingerprint — the content address of the configuration.
    pub fp: String,
    /// Terminal state.
    pub status: RowStatus,
    /// `Report::digest()` of the run (zero for failed rows).
    pub digest: u64,
    /// One value per [`COLUMNS`] entry (derived columns' slots stay zero).
    /// Counts are held as `f64`, exact below 2^53.
    values: [f64; COLUMNS.len()],
    /// Panic message for failed rows; empty otherwise.
    pub error: String,
}

impl Row {
    /// Engine throughput: events processed per wall-clock second (zero
    /// for failed rows).
    pub fn events_per_sec(&self) -> f64 {
        events_rate(self.get("events"), self.get("wall_ms"))
    }

    /// The value of column `key`. Panics on a key not in `COLUMNS`.
    pub fn get(&self, key: &str) -> f64 {
        self.value(column(key))
    }

    /// Overwrite the stored value of column `key`.
    pub fn set(&mut self, key: &str, v: f64) {
        let i = column(key);
        assert!(
            matches!(COLUMNS[i].source, Source::Measured(_)),
            "`{key}` is derived"
        );
        self.values[i] = v;
    }

    /// The value of `COLUMNS[i]`.
    pub(crate) fn value(&self, i: usize) -> f64 {
        match COLUMNS[i].source {
            Source::Measured(_) => self.values[i],
            Source::Derived(derive) => derive(self),
        }
    }

    /// Whether the row has `group` (its heading count is nonzero).
    pub fn has(&self, group: Group) -> bool {
        self.values[group.head()] != 0.0
    }

    /// Summarize a completed run.
    pub fn from_report(label: &str, fp: &str, report: &Report, wall_ms: f64) -> Self {
        let run = Run {
            report,
            fct: MetricSummary::of(&report.mice_fct_ms),
            rtt: MetricSummary::of(&report.rtt_ms),
            wall_ms,
        };
        let mut values = [0.0; COLUMNS.len()];
        for (v, c) in values.iter_mut().zip(COLUMNS) {
            if let Source::Measured(read) = c.source {
                *v = read(&run);
            }
        }
        Row {
            label: label.to_string(),
            fp: fp.to_string(),
            status: RowStatus::Ok,
            digest: report.digest(),
            values,
            error: String::new(),
        }
    }

    /// Record a panicking configuration: every metric is zero.
    pub fn failed(label: &str, fp: &str, error: &str) -> Self {
        Row {
            label: label.to_string(),
            fp: fp.to_string(),
            status: RowStatus::Failed,
            digest: 0,
            values: [0.0; COLUMNS.len()],
            error: error.to_string(),
        }
    }

    /// Encode as one flat-JSON line (no trailing newline). Field order is
    /// fixed, floats are shortest-roundtrip: identical rows encode to
    /// identical bytes. Optional groups the row lacks are left out.
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"label\":");
        push_str_field(&mut s, &self.label);
        s.push_str(",\"fp\":");
        push_str_field(&mut s, &self.fp);
        s.push_str(",\"status\":");
        push_str_field(&mut s, self.status.as_str());
        let _ = write!(s, ",\"digest\":\"{:016x}\"", self.digest);
        for (i, c) in COLUMNS.iter().enumerate() {
            if c.group.is_some_and(|g| g.optional() && !self.has(g)) {
                continue;
            }
            let _ = write!(s, ",\"{}\":", c.key);
            c.push(&mut s, self.value(i));
        }
        s.push_str(",\"error\":");
        push_str_field(&mut s, &self.error);
        s.push('}');
        s
    }

    /// Decode one line; `None` for malformed or truncated lines. Derived
    /// columns are recomputed, never read back; absent optional groups
    /// decode to zeros.
    pub fn decode(line: &str) -> Option<Row> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let status = match json_str(line, "status")?.as_str() {
            "ok" => RowStatus::Ok,
            "failed" => RowStatus::Failed,
            _ => return None,
        };
        let mut values = [0.0; COLUMNS.len()];
        for (v, c) in values.iter_mut().zip(COLUMNS) {
            if let Source::Derived(_) = c.source {
                continue;
            }
            let read = match c.kind {
                Kind::Int => json_u64(line, c.key).map(|n| n as f64),
                Kind::Float => json_f64(line, c.key),
            };
            *v = match read {
                Some(x) => x,
                None if c.group.is_some_and(Group::optional) => 0.0,
                None => return None,
            };
        }
        Some(Row {
            label: json_str(line, "label")?,
            fp: json_str(line, "fp")?,
            status,
            digest: u64::from_str_radix(&json_str(line, "digest")?, 16).ok()?,
            values,
            error: json_str(line, "error")?,
        })
    }
}

/// A directory of per-campaign result caches. Appends are serialized by
/// an internal lock, so runner workers can record rows as they finish.
pub struct ResultsStore {
    root: PathBuf,
    append_lock: Mutex<()>,
}

impl ResultsStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, String> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(ResultsStore {
            root,
            append_lock: Mutex::new(()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The campaign's subdirectory.
    pub fn campaign_dir(&self, campaign: &str) -> PathBuf {
        self.root.join(campaign)
    }

    fn results_path(&self, campaign: &str) -> PathBuf {
        self.campaign_dir(campaign).join("results.jsonl")
    }

    /// Load the cached rows of a campaign, keyed by fingerprint. Missing
    /// file means an empty cache; malformed lines (truncated tail) are
    /// skipped; later duplicates win.
    pub fn load(&self, campaign: &str) -> Result<BTreeMap<String, Row>, String> {
        let path = self.results_path(campaign);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let mut rows = BTreeMap::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if let Some(row) = Row::decode(line) {
                rows.insert(row.fp.clone(), row);
            }
        }
        Ok(rows)
    }

    /// Append one finished row to the campaign's cache, durably (the line
    /// is flushed before returning). Thread-safe.
    pub fn append(&self, campaign: &str, row: &Row) -> Result<(), String> {
        let _guard = self.append_lock.lock().unwrap_or_else(|p| p.into_inner());
        let dir = self.campaign_dir(campaign);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = self.results_path(campaign);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        // Self-heal a truncated tail (crash mid-append): if the file does
        // not end in a newline, start a fresh line so the new row is not
        // glued onto the partial one and lost with it.
        let needs_newline = (|| -> std::io::Result<bool> {
            use std::io::{Read as _, Seek as _, SeekFrom};
            if file.seek(SeekFrom::End(0))? == 0 {
                return Ok(false);
            }
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            Ok(last[0] != b'\n')
        })()
        .map_err(|e| format!("inspect {}: {e}", path.display()))?;
        let mut line = String::new();
        if needs_newline {
            line.push('\n');
        }
        line.push_str(&row.encode());
        line.push('\n');
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("append {}: {e}", path.display()))
    }

    /// Write the deterministic table artifacts (`table.json`, `table.csv`)
    /// for rows in the given (grid) order. Returns the JSON path.
    pub fn write_table(&self, campaign: &str, rows: &[&Row]) -> Result<PathBuf, String> {
        let dir = self.campaign_dir(campaign);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let json_path = dir.join("table.json");
        let mut json = String::new();
        for row in rows {
            json.push_str(&row.encode());
            json.push('\n');
        }
        fs::write(&json_path, json).map_err(|e| format!("write {}: {e}", json_path.display()))?;
        let csv_path = dir.join("table.csv");
        fs::write(&csv_path, rows_to_csv(rows))
            .map_err(|e| format!("write {}: {e}", csv_path.display()))?;
        Ok(json_path)
    }

    /// Directory for telemetry-trace artifacts of `[[trace]]`-flagged
    /// points (created on demand).
    pub fn traces_dir(&self, campaign: &str) -> Result<PathBuf, String> {
        let dir = self.campaign_dir(campaign).join("traces");
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Render rows as CSV: the JSON keys as header, one line per row, every
/// column written (absent groups as zeros). Labels contain no commas by
/// construction; the error column is quoted.
pub fn rows_to_csv(rows: &[&Row]) -> String {
    let mut out = String::from("label,fp,status,digest");
    for c in COLUMNS {
        out.push(',');
        out.push_str(c.key);
    }
    out.push_str(",error\n");
    for r in rows {
        let _ = write!(
            out,
            "{},{},{},{:016x}",
            r.label,
            r.fp,
            r.status.as_str(),
            r.digest
        );
        for (i, c) in COLUMNS.iter().enumerate() {
            out.push(',');
            c.push(&mut out, r.value(i));
        }
        let _ = writeln!(out, ",\"{}\"", r.error.replace('"', "'"));
    }
    out
}

/// Read a table artifact (`table.json` — one row per line) back into rows
/// in file order.
pub fn read_table(path: &Path) -> Result<Vec<Row>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = Row::decode(line)
            .ok_or_else(|| format!("{}: malformed row on line {}", path.display(), i + 1))?;
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        let mut report = Report {
            scheme: "Presto".into(),
            elephant_tputs: vec![9.1, 9.3, 8.7],
            loss_rate: 0.0015,
            retransmissions: 12,
            events_processed: 123_456,
            ..Report::default()
        };
        report.mice_fct_ms = [1.25, 3.5, 0.75].into_iter().collect();
        report.rtt_ms = [0.11, 0.13].into_iter().collect();
        Row::from_report(
            "presto/testbed16/stride:8/none/cell64k/s1",
            "ab12",
            &report,
            84.25,
        )
    }

    #[test]
    fn column_table_is_well_formed() {
        for (i, c) in COLUMNS.iter().enumerate() {
            assert!(
                COLUMNS[..i].iter().all(|d| d.key != c.key),
                "{} repeats",
                c.key
            );
            if let Some(g) = c.group {
                assert_eq!(
                    COLUMNS[g.head()].kind,
                    Kind::Int,
                    "{g:?} is headed by a count"
                );
            }
            if let Some(Gate::ShareRiseAbs(_)) = c.gate {
                assert!(c.group.is_some(), "{} has no count to share", c.key);
            }
        }
    }

    #[test]
    fn encode_decode_round_trips_byte_identically() {
        let row = sample_row();
        let line = row.encode();
        let back = Row::decode(&line).expect("decodes");
        assert_eq!(back, row);
        assert_eq!(back.encode(), line, "re-encoding must reproduce the bytes");
    }

    #[test]
    fn events_per_sec_is_derived_and_survives_legacy_rows() {
        let row = sample_row();
        assert_eq!(row.events_per_sec(), 123_456.0 * 1e3 / 84.25);
        // A line from before the column existed still decodes, and
        // re-encodes with the derived rate.
        let line = row.encode();
        let mut rate = String::from(",\"events_per_sec\":");
        push_f64(&mut rate, row.events_per_sec());
        let legacy = line.replace(&rate, "");
        assert!(!legacy.contains("events_per_sec"));
        let back = Row::decode(&legacy).expect("legacy rows decode");
        assert_eq!(back, row);
        assert_eq!(back.encode(), line);
    }

    #[test]
    fn optional_groups_are_written_only_when_present_and_round_trip() {
        for group in [Group::Deadline, Group::Probe] {
            let keys: Vec<&str> = COLUMNS
                .iter()
                .filter(|c| c.group == Some(group))
                .map(|c| c.key)
                .collect();
            // Rows without the group omit every one of its keys, so older
            // tables re-encode byte-identically and decode to zeros.
            let row = sample_row();
            assert!(!row.has(group));
            let line = row.encode();
            for key in &keys {
                assert!(!line.contains(key), "{key} written while absent");
            }
            assert_eq!(Row::decode(&line).unwrap(), row);
            // Rows with it carry all of its columns, and round-trip.
            let mut with = sample_row();
            for (n, key) in keys.iter().enumerate() {
                with.set(key, 40.0 - n as f64);
            }
            assert!(with.has(group));
            let line = with.encode();
            for (n, key) in keys.iter().enumerate() {
                assert!(line.contains(&format!("\"{key}\":{}", 40 - n)), "{line}");
            }
            let back = Row::decode(&line).unwrap();
            assert_eq!(back, with);
            assert_eq!(back.encode(), line);
        }
    }

    #[test]
    fn failed_rows_round_trip_with_their_message() {
        let row = Row::failed("p/t/w/f/cell64k/s1", "cd34", "index out of bounds: \"7\"");
        let back = Row::decode(&row.encode()).unwrap();
        assert_eq!(back.status, RowStatus::Failed);
        assert_eq!(back.error, "index out of bounds: \"7\"");
        assert_eq!(back.encode(), row.encode());
    }

    #[test]
    fn store_appends_loads_and_survives_truncation() {
        let dir = std::env::temp_dir().join(format!("presto-lab-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).unwrap();
        let mut row = sample_row();
        store.append("demo", &row).unwrap();
        row.fp = "ef56".into();
        row.set("goodput_gbps", 7.5);
        store.append("demo", &row).unwrap();
        // Simulate a crash mid-append: a truncated trailing line.
        let path = store.results_path("demo");
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"label\":\"half-writ").unwrap();
        drop(file);
        let rows = store.load("demo").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows["ef56"].get("goodput_gbps"), 7.5);
        // A re-run appends an updated duplicate: later wins.
        row.set("goodput_gbps", 9.9);
        store.append("demo", &row).unwrap();
        assert_eq!(store.load("demo").unwrap()["ef56"].get("goodput_gbps"), 9.9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_campaign_loads_empty() {
        let dir = std::env::temp_dir().join(format!("presto-lab-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).unwrap();
        assert!(store.load("nope").unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_artifacts_round_trip_and_order_deterministically() {
        let dir = std::env::temp_dir().join(format!("presto-lab-table-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).unwrap();
        let a = sample_row();
        let mut b = sample_row();
        b.fp = "zz99".into();
        b.label = "ecmp/testbed16/stride:8/none/cell64k/s1".into();
        let path = store.write_table("demo", &[&a, &b]).unwrap();
        let rows = read_table(&path).unwrap();
        assert_eq!(rows, vec![a.clone(), b.clone()]);
        let again = store.write_table("demo", &[&a, &b]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), fs::read(&again).unwrap());
        let csv = fs::read_to_string(dir.join("demo/table.csv")).unwrap();
        assert!(csv.starts_with("label,"));
        assert_eq!(csv.lines().count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_carries_every_json_column() {
        let mut probing = sample_row();
        for (key, v) in [
            ("probe_rounds", 990.0),
            ("probe_samples", 640.0),
            ("probe_hot", 120.0),
            ("probe_cold", 480.0),
        ] {
            probing.set(key, v);
        }
        let csv = rows_to_csv(&[&probing]);
        let mut lines = csv.lines();
        let keys: Vec<&str> = COLUMNS.iter().map(|c| c.key).collect();
        let header = format!("label,fp,status,digest,{},error", keys.join(","));
        assert_eq!(lines.next(), Some(header.as_str()));
        // Every metric cell is the JSON value, byte for byte; absent
        // groups (deadline, here) are zeros.
        let json = probing.encode();
        let cells: Vec<&str> = lines.next().unwrap().split(',').collect();
        for (key, cell) in keys.iter().zip(&cells[4..]) {
            if json.contains(&format!("\"{key}\":")) {
                assert!(json.contains(&format!("\"{key}\":{cell},")), "{key}={cell}");
            } else {
                assert_eq!(*cell, "0", "{key}");
            }
        }
        assert!(cells.contains(&"990") && cells.contains(&"480"));
    }
}
