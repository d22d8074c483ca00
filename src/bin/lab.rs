//! `lab` — run experiment campaigns, gate on regressions, render reports.
//!
//! ```text
//! lab run <campaign.toml> [--store DIR] [--workers N] [--no-traces]
//!         [--retry-failed] [--require-cached] [--quiet]
//! lab ls  [CAMPAIGN] [--store DIR] [--sort label|wall|rate]
//! lab diff <baseline.json> <current.json> [--strict-digest]
//! lab report <campaign> [--store DIR] [--out DIR] [--baseline FILE]
//!         [--viewer] [--quiet]
//! lab schemes [--json]
//! ```
//!
//! `run` is resumable: every finished grid point is appended to the store
//! immediately, so interrupting a campaign (Ctrl-C) and re-running the
//! same command continues from the last completed point. A second run of
//! a completed campaign executes nothing and rewrites the identical
//! table. `diff` exits 1 when the current table regresses past a gate of
//! the lab's column table (`crates/lab/src/store.rs`) or lost a gated
//! metric the baseline has, 2 on usage errors.
//!
//! `report` renders the committed store into the paper's figures
//! (`figures/*.svg` + canonical `figures/*.txt`, both byte-deterministic)
//! and a single-file `index.html`; `--viewer` adds a self-contained trace
//! timeline. With `--baseline`, the report embeds the diff verdict and
//! the command exits 1 on regressions, so CI can gate on it directly.
//!
//! Output goes through a locked stdout. A reader that stops reading early
//! (`lab ls | head`) ends the output, not the command: `lab` finishes
//! quietly with its own exit status.
//!
//! Build with `cargo build --profile lab` (or any unwinding profile):
//! panic isolation — a crashing grid point becoming a `Failed` row
//! instead of killing the sweep — requires unwinding, which the plain
//! release profile disables.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use presto_lab::{
    diff_tables, events_rate, read_table, Campaign, LabRunner, ResultsStore, Row, RowStatus,
    RunOptions,
};
use presto_report::{write_report, ReportOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("ls") => cmd_ls(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("schemes") => cmd_schemes(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("lab: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  lab run <campaign.toml> [--store DIR] [--workers N] [--no-traces]
          [--retry-failed] [--require-cached] [--quiet]
  lab ls  [CAMPAIGN] [--store DIR] [--sort label|wall|rate]
  lab diff <baseline.json> <current.json> [--strict-digest]
  lab report <campaign> [--store DIR] [--out DIR] [--baseline FILE]
          [--viewer] [--quiet]
  lab schemes [--json]
";

/// Print to stdout, as `print!` does, returning from the command on a
/// write error.
macro_rules! put {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))?
    };
}

/// [`put!`] with a newline, as `println!`.
macro_rules! putln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Write `text` through the locked stdout. A write that finds the pipe
/// closed is dropped: the reader has all it wanted. Any other write error
/// is the command's failure.
fn write_stdout(text: std::fmt::Arguments) -> Result<(), String> {
    match io::stdout().lock().write_fmt(text) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        written => written.map_err(|e| format!("write to stdout: {e}")),
    }
}

/// Pull the value of `--flag VALUE` out of `args`, removing both tokens.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{flag} needs a value"));
            }
            args.remove(i);
            Ok(Some(args.remove(i)))
        }
    }
}

/// Pull a bare `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        None => false,
        Some(i) => {
            args.remove(i);
            true
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

/// One positional argument, after all flags were consumed.
fn positionals(args: Vec<String>, want: usize, what: &str) -> Result<Vec<String>, String> {
    if let Some(stray) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag `{stray}`\n{USAGE}"));
    }
    if args.len() != want {
        return Err(format!("expected {what}\n{USAGE}"));
    }
    Ok(args)
}

fn cmd_run(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let store_dir = take_value(&mut args, "--store")?.unwrap_or_else(|| "lab-store".into());
    let mut opts = RunOptions {
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        ..RunOptions::default()
    };
    if let Some(w) = take_value(&mut args, "--workers")? {
        opts.workers = parse_num("--workers", &w)?;
    }
    opts.write_traces = !take_flag(&mut args, "--no-traces");
    opts.retry_failed = take_flag(&mut args, "--retry-failed");
    opts.require_cached = take_flag(&mut args, "--require-cached");
    let quiet = take_flag(&mut args, "--quiet");
    let path = positionals(args, 1, "one campaign file")?.remove(0);

    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let campaign = Campaign::from_toml(&text).map_err(|e| format!("{path}: {e}"))?;
    let store = ResultsStore::open(&store_dir)?;
    let mut runner = LabRunner::new(&store, opts);
    if !quiet {
        runner = runner.with_narrator(Box::new(|line: &str| {
            if let Err(e) = write_stdout(format_args!("{line}\n")) {
                eprintln!("lab: {e}");
            }
        }));
    }
    let outcome = runner.run(&campaign)?;
    Ok(if outcome.failed > 0 {
        eprintln!(
            "lab: campaign {} has {} failed point(s) — see {}",
            outcome.campaign,
            outcome.failed,
            outcome.table_json.display()
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_ls(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let store_dir = take_value(&mut args, "--store")?.unwrap_or_else(|| "lab-store".into());
    let raw = take_value(&mut args, "--sort")?.unwrap_or_else(|| "label".into());
    let sort =
        ls_sort_key(&raw).ok_or_else(|| format!("--sort: `{raw}` (want label|wall|rate)"))?;
    let mut args = positionals_up_to(args, 1, "at most one campaign name")?;
    let store = ResultsStore::open(&store_dir)?;

    // `lab ls <campaign>`: per-row listing with the events/s of the stored
    // wall time — cached rows keep the rate of the run that recorded them.
    if let Some(name) = args.pop() {
        let mut rows: Vec<_> = store.load(&name)?.into_values().collect();
        if rows.is_empty() {
            putln!("(no cached rows for {name})");
            return Ok(ExitCode::SUCCESS);
        }
        sort_rows_for_ls(&mut rows, sort);
        for r in &rows {
            let status = match r.status {
                RowStatus::Ok => "ok",
                RowStatus::Failed => "FAILED",
            };
            putln!(
                "{:<52} {status:<6} {:>9.1} ms {:>10.0} events/s",
                r.label,
                r.get("wall_ms"),
                r.events_per_sec()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut campaigns: Vec<String> = std::fs::read_dir(store.root())
        .map_err(|e| format!("read {}: {e}", store.root().display()))?
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let name = entry.file_name().into_string().ok()?;
            entry.path().join("results.jsonl").exists().then_some(name)
        })
        .collect();
    campaigns.sort();
    if campaigns.is_empty() {
        putln!("(no campaigns in {})", store.root().display());
        return Ok(ExitCode::SUCCESS);
    }
    for name in campaigns {
        let rows = store.load(&name)?;
        let failed = rows
            .values()
            .filter(|r| r.status == RowStatus::Failed)
            .count();
        let wall_ms: f64 = rows.values().map(|r| r.get("wall_ms")).sum();
        let events: f64 = rows.values().map(|r| r.get("events")).sum();
        let table = store.campaign_dir(&name).join("table.json");
        putln!(
            "{name}: {} cached point(s), {failed} failed, {:.1} s wall, {:.0} events/s{}",
            rows.len(),
            wall_ms / 1e3,
            events_rate(events, wall_ms),
            if table.exists() {
                format!(", table {}", table.display())
            } else {
                String::new()
            }
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let store_dir = take_value(&mut args, "--store")?.unwrap_or_else(|| "lab-store".into());
    let opts = ReportOptions {
        out_dir: take_value(&mut args, "--out")?.map(PathBuf::from),
        baseline: take_value(&mut args, "--baseline")?.map(PathBuf::from),
        viewer: take_flag(&mut args, "--viewer"),
    };
    let quiet = take_flag(&mut args, "--quiet");
    let campaign = positionals(args, 1, "one campaign name")?.remove(0);
    let store = ResultsStore::open(&store_dir)?;
    let out = write_report(&store, &campaign, &opts)?;
    if !quiet {
        for (slug, path) in &out.figures {
            putln!("{slug}: {}", path.display());
        }
        putln!("report: {}", out.index.display());
        if let Some(viewer) = &out.viewer {
            putln!("viewer: {}", viewer.display());
        }
    }
    if let Some(diff) = &out.diff {
        if !quiet {
            put!("{}", diff.render());
        }
        if !diff.passed() {
            return Ok(ExitCode::from(1));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `lab schemes` — print the scheme registry, the arena's single
/// extension point, so docs can link here instead of hand-maintaining a
/// table. The canonical policy text is the exact string pinned by the
/// fingerprint contract (`PolicyKind::name`).
fn cmd_schemes(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let json = take_flag(&mut args, "--json");
    positionals(args, 0, "no positional arguments for `schemes`")?;
    if json {
        let mut out = String::from("[");
        for (i, e) in presto_testbed::SCHEMES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let spec = (e.build)();
            out.push_str("\n  {\"token\":");
            presto_telemetry::json::push_str_field(&mut out, e.token);
            out.push_str(",\"summary\":");
            presto_telemetry::json::push_str_field(&mut out, e.summary);
            out.push_str(",\"policy\":");
            presto_telemetry::json::push_str_field(&mut out, &spec.policy.name());
            out.push_str(",\"canon\":");
            presto_telemetry::json::push_str_field(&mut out, &presto_testbed::scheme_canon(&spec));
            out.push('}');
        }
        out.push_str("\n]\n");
        put!("{out}");
    } else {
        for e in presto_testbed::SCHEMES {
            let spec = (e.build)();
            putln!("{:<20} {:<28} {}", e.token, spec.policy.name(), e.summary);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Up to `max` positional arguments, after all flags were consumed.
fn positionals_up_to(args: Vec<String>, max: usize, what: &str) -> Result<Vec<String>, String> {
    if let Some(stray) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag `{stray}`\n{USAGE}"));
    }
    if args.len() > max {
        return Err(format!("expected {what}\n{USAGE}"));
    }
    Ok(args)
}

fn cmd_diff(rest: &[String]) -> Result<ExitCode, String> {
    let mut args = rest.to_vec();
    let strict_digest = take_flag(&mut args, "--strict-digest");
    let paths = positionals(args, 2, "<baseline.json> <current.json>")?;
    let baseline = read_table(&PathBuf::from(&paths[0]))?;
    let current = read_table(&PathBuf::from(&paths[1]))?;
    let report = diff_tables(&baseline, &current, strict_digest);
    put!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The key a `lab ls <campaign> --sort` value orders rows by, descending
/// (the slowest or fastest points surface first); `label` keys every row
/// alike, leaving the label order.
fn ls_sort_key(raw: &str) -> Option<fn(&Row) -> f64> {
    match raw {
        "label" => Some(|_| 0.0),
        "wall" => Some(|r| r.get("wall_ms")),
        "rate" => Some(Row::events_per_sec),
        _ => None,
    }
}

/// Sort rows for listing: descending by `key`, label ascending among
/// ties, so the output is total and deterministic.
fn sort_rows_for_ls(rows: &mut [Row], key: fn(&Row) -> f64) {
    rows.sort_by(|a, b| {
        key(b)
            .total_cmp(&key(a))
            .then_with(|| a.label.cmp(&b.label))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, wall_ms: f64, events: f64) -> Row {
        let mut r = Row::failed(label, "fp", "");
        r.set("wall_ms", wall_ms);
        r.set("events", events);
        r
    }

    fn sorted(rows: &mut [Row], sort: &str) -> Vec<String> {
        sort_rows_for_ls(rows, ls_sort_key(sort).expect("a --sort value"));
        rows.iter().map(|r| r.label.clone()).collect()
    }

    #[test]
    fn ls_sorts_are_total_and_deterministic() {
        let a = row("a", 10.0, 1.0); // 100 events/s
        let b = row("b", 30.0, 9.0); // 300 events/s
        let c = row("c", 30.0, 6.0); // ties with b on wall → label breaks the tie
        let mut rows = vec![c, a, b];
        assert_eq!(sorted(&mut rows, "label"), ["a", "b", "c"]);
        assert_eq!(sorted(&mut rows, "wall"), ["b", "c", "a"]);
        assert_eq!(sorted(&mut rows, "rate"), ["b", "c", "a"]);
        assert!(ls_sort_key("speed").is_none());
    }
}
