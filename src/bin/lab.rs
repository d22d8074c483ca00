//! `lab` — run experiment campaigns, gate on regressions, render reports.
//!
//! ```text
//! lab run <campaign.toml> [--store DIR] [--workers N] [--no-traces]
//!         [--retry-failed] [--require-cached] [--quiet]
//! lab ls  [CAMPAIGN] [--store DIR] [--sort label|wall|rate]
//! lab diff <baseline.json> <current.json>
//!         [--goodput-tol F] [--p99-fct-tol F] [--loss-tol F]
//!         [--deadline-tol F] [--wall-tol F] [--strict-digest]
//! lab report <campaign> [--store DIR] [--out DIR] [--baseline FILE]
//!         [--viewer] [--quiet]
//! lab schemes [--json]
//! ```
//!
//! `run` is resumable: every finished grid point is appended to the store
//! immediately, so interrupting a campaign (Ctrl-C) and re-running the
//! same command continues from the last completed point. A second run of
//! a completed campaign executes nothing and rewrites the identical
//! table. `diff` exits 1 when the current table regresses beyond the
//! tolerances, 2 on usage errors.
//!
//! `report` renders the committed store into the paper's figures
//! (`figures/*.svg` + canonical `figures/*.txt`, both byte-deterministic)
//! and a single-file `index.html`; `--viewer` adds a self-contained trace
//! timeline. With `--baseline`, the report embeds the diff verdict and
//! the command exits 1 on regressions, so CI can gate on it directly.
//!
//! Build with `cargo build --profile lab` (or any unwinding profile):
//! panic isolation — a crashing grid point becoming a `Failed` row
//! instead of killing the sweep — requires unwinding, which the plain
//! release profile disables.

use std::path::PathBuf;
use std::process::ExitCode;

use presto_lab::{
    diff_tables, read_table, sort_rows_for_ls, Campaign, LabRunner, LsSort, ResultsStore,
    RunOptions, Tolerances,
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
  lab diff <baseline.json> <current.json>
          [--goodput-tol F] [--p99-fct-tol F] [--loss-tol F]
          [--deadline-tol F]
          [--wall-tol F] [--strict-digest]
  lab report <campaign> [--store DIR] [--out DIR] [--baseline FILE]
          [--viewer] [--quiet]
  lab schemes [--json]
";

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
        runner = runner.with_narrator(Box::new(|line: &str| println!("{line}")));
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
    let sort = match take_value(&mut args, "--sort")? {
        None => LsSort::Label,
        Some(raw) => {
            LsSort::parse(&raw).ok_or_else(|| format!("--sort: `{raw}` (want label|wall|rate)"))?
        }
    };
    let mut args = positionals_up_to(args, 1, "at most one campaign name")?;
    let store = ResultsStore::open(&store_dir)?;

    // `lab ls <campaign>`: per-row listing with the stored events/s —
    // cached rows keep the rate they recorded when they actually ran.
    if let Some(name) = args.pop() {
        let mut rows: Vec<_> = store.load(&name)?.into_values().collect();
        if rows.is_empty() {
            println!("(no cached rows for {name})");
            return Ok(ExitCode::SUCCESS);
        }
        sort_rows_for_ls(&mut rows, sort);
        for r in &rows {
            let status = match r.status {
                presto_lab::RowStatus::Ok => "ok",
                presto_lab::RowStatus::Failed => "FAILED",
            };
            println!(
                "{:<52} {status:<6} {:>9.1} ms {:>10.0} events/s",
                r.label, r.wall_ms, r.events_per_sec
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
        println!("(no campaigns in {})", store.root().display());
        return Ok(ExitCode::SUCCESS);
    }
    for name in campaigns {
        let rows = store.load(&name)?;
        let failed = rows
            .values()
            .filter(|r| r.status == presto_lab::RowStatus::Failed)
            .count();
        let wall_ms: f64 = rows.values().map(|r| r.wall_ms).sum();
        let events: u64 = rows.values().map(|r| r.events).sum();
        let rate = if wall_ms > 0.0 {
            events as f64 * 1e3 / wall_ms
        } else {
            0.0
        };
        let table = store.campaign_dir(&name).join("table.json");
        println!(
            "{name}: {} cached point(s), {failed} failed, {:.1} s wall, {:.0} events/s{}",
            rows.len(),
            wall_ms / 1e3,
            rate,
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
            println!("{slug}: {}", path.display());
        }
        println!("report: {}", out.index.display());
        if let Some(viewer) = &out.viewer {
            println!("viewer: {}", viewer.display());
        }
    }
    if let Some(diff) = &out.diff {
        if !quiet {
            print!("{}", diff.render());
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
        print!("{out}");
    } else {
        for e in presto_testbed::SCHEMES {
            let spec = (e.build)();
            println!("{:<20} {:<28} {}", e.token, spec.policy.name(), e.summary);
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
    let mut tol = Tolerances::default();
    if let Some(v) = take_value(&mut args, "--goodput-tol")? {
        tol.goodput_drop_rel = parse_num("--goodput-tol", &v)?;
    }
    if let Some(v) = take_value(&mut args, "--p99-fct-tol")? {
        tol.p99_fct_rise_rel = parse_num("--p99-fct-tol", &v)?;
    }
    if let Some(v) = take_value(&mut args, "--loss-tol")? {
        tol.loss_rise_abs = parse_num("--loss-tol", &v)?;
    }
    if let Some(v) = take_value(&mut args, "--wall-tol")? {
        tol.wall_rise_rel = parse_num("--wall-tol", &v)?;
    }
    if let Some(v) = take_value(&mut args, "--deadline-tol")? {
        tol.deadline_miss_rise_abs = parse_num("--deadline-tol", &v)?;
    }
    tol.strict_digest = take_flag(&mut args, "--strict-digest");
    let paths = positionals(args, 2, "<baseline.json> <current.json>")?;
    let baseline = read_table(&PathBuf::from(&paths[0]))?;
    let current = read_table(&PathBuf::from(&paths[1]))?;
    let report = diff_tables(&baseline, &current, &tol);
    print!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
