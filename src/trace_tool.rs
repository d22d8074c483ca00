//! The trace inspector behind `src/bin/trace.rs`.
//!
//! Two modes:
//!
//! * **file mode** — summarize a previously exported telemetry JSONL
//!   trace, as text or (with `--json`) as one deterministic flat-JSON
//!   object for scripts;
//! * **demo mode** (no file) — run the Fig 5 GRO microbenchmark with
//!   telemetry attached and summarize both schemes, optionally exporting
//!   the Presto-side trace as JSONL and/or Chrome `trace_event` JSON.

use presto_telemetry::json::{push_f64, push_str_field};
use presto_telemetry::{FlushReason, TelemetryReport};
use presto_testbed::{Scenario, SchemeSpec};
use presto_workloads::FlowSpec;

use presto_netsim::ClosSpec;
use presto_simcore::{SimDuration, SimTime};

/// Parsed command line of the trace tool.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TraceArgs {
    /// Trace file to summarize; `None` selects demo mode.
    pub trace_file: Option<String>,
    /// Export the demo's Presto-side trace as JSONL here.
    pub write_jsonl: Option<String>,
    /// Export the demo's Presto-side trace as Chrome trace JSON here.
    pub write_chrome: Option<String>,
    /// Emit machine-readable JSON summaries instead of text.
    pub json: bool,
}

/// The usage string both binaries print.
pub const USAGE: &str =
    "usage: trace [TRACE.jsonl] [--json] [--write-jsonl PATH] [--write-chrome PATH]";

impl TraceArgs {
    /// Parse raw arguments (no `argv[0]`).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<TraceArgs, String> {
        let mut out = TraceArgs::default();
        let mut args = raw.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => out.json = true,
                "--write-jsonl" => {
                    out.write_jsonl = Some(args.next().ok_or("--write-jsonl needs a path")?);
                }
                "--write-chrome" => {
                    out.write_chrome = Some(args.next().ok_or("--write-chrome needs a path")?);
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                _ if a.starts_with('-') => return Err(format!("unknown flag `{a}`\n{USAGE}")),
                _ if out.trace_file.is_none() => out.trace_file = Some(a),
                _ => return Err(format!("unexpected argument `{a}`\n{USAGE}")),
            }
        }
        Ok(out)
    }
}

/// One deterministic flat-JSON summary line of a telemetry report: the
/// fields scripts grep a trace for, with fixed key order and
/// shortest-roundtrip floats (the conventions of the results store).
pub fn json_summary(rep: &TelemetryReport) -> String {
    let mut s = String::with_capacity(512);
    s.push_str("{\"scheme\":");
    push_str_field(&mut s, &rep.scheme);
    let split = rep.flush_split();
    s.push_str(&format!(
        ",\"events\":{},\"events_dropped\":{},\"queue_high_water\":{}",
        rep.events.len(),
        rep.events_dropped,
        rep.queue_high_water
    ));
    s.push_str(&format!(
        ",\"flush_loss\":{},\"flush_reordering\":{},\"flush_other\":{}",
        split.loss, split.reordering, split.other
    ));
    for r in FlushReason::ALL {
        let n = rep.flush_reasons[r.index()];
        if n > 0 {
            s.push_str(&format!(",\"flush_{}\":{n}", r.name()));
        }
    }
    s.push_str(",\"spray_counts\":[");
    for (i, n) in rep.spray_counts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&n.to_string());
    }
    s.push_str("],\"failover_stages\":[");
    for (i, st) in rep.failover_stages.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        push_str_field(&mut s, &st.name);
        s.push_str(&format!(
            ",\"start_ns\":{},\"end_ns\":{},\"goodput_gbps\":",
            st.start_ns, st.end_ns
        ));
        push_f64(&mut s, st.goodput_gbps);
        s.push_str(",\"loss_rate\":");
        push_f64(&mut s, st.loss_rate);
        s.push('}');
    }
    s.push_str("]}");
    s
}

/// Run the tool. Prints to stdout; returns an error message on failure
/// (the callers map it to exit code 1/2).
pub fn run(args: &TraceArgs) -> Result<(), String> {
    if let Some(path) = &args.trace_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let rep = TelemetryReport::from_jsonl(&text);
        if args.json {
            println!("{}", json_summary(&rep));
        } else {
            println!("{}", rep.summary());
        }
        return Ok(());
    }
    demo(args);
    Ok(())
}

/// Demo mode: the Fig 5 microbenchmark — two flows sprayed over two
/// spine paths — once with Presto's GRO and once with the stock Linux
/// engine, telemetry attached to both.
fn demo(args: &TraceArgs) {
    if !args.json {
        println!("trace demo — Fig 5 GRO comparison with telemetry attached\n");
    }
    for scheme in [
        SchemeSpec::presto(),
        SchemeSpec::from_token("presto-official-gro").unwrap(),
    ] {
        let sc = Scenario::builder(scheme, 1)
            .topology(ClosSpec {
                spines: 2,
                leaves: 2,
                hosts_per_leaf: 8,
                ..ClosSpec::default()
            })
            .duration(SimDuration::from_millis(40))
            .warmup(SimDuration::from_millis(10))
            .elephants(vec![
                FlowSpec::elephant(0, 8, SimTime::ZERO),
                FlowSpec::elephant(1, 9, SimTime::ZERO + SimDuration::from_micros(27)),
            ])
            .build();
        let (report, tel) = sc.run_traced();
        if args.json {
            println!("{}", json_summary(&tel));
        } else {
            println!(
                "=== {} (mean elephant tput {:.2} Gbps) ===",
                report.scheme,
                report.mean_elephant_tput()
            );
            println!("{}", tel.summary());
        }
        if report.scheme == SchemeSpec::presto().name {
            if let Some(path) = &args.write_jsonl {
                std::fs::write(path, tel.to_jsonl()).expect("write jsonl");
                if !args.json {
                    println!("wrote JSONL trace to {path}");
                }
            }
            if let Some(path) = &args.write_chrome {
                std::fs::write(path, tel.to_chrome_trace()).expect("write chrome trace");
                if !args.json {
                    println!("wrote chrome://tracing file to {path}");
                }
            }
        }
        if !args.json {
            println!();
        }
    }
    if !args.json {
        println!("Reading the flush-reason tables: under spraying, stock GRO ejects at");
        println!("every flowcell boundary (BoundaryEject — reordering), while Presto GRO");
        println!("absorbs those boundaries (BoundaryGapFilled) and reserves immediate");
        println!("pushes for in-flowcell gaps (InFlowcellGap — genuine loss).");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(raw: &[&str]) -> Result<TraceArgs, String> {
        TraceArgs::parse(raw.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_modes_and_flags() {
        assert_eq!(to_args(&[]).unwrap(), TraceArgs::default());
        let a = to_args(&["t.jsonl", "--json"]).unwrap();
        assert_eq!(a.trace_file.as_deref(), Some("t.jsonl"));
        assert!(a.json);
        let a = to_args(&["--write-jsonl", "x", "--write-chrome", "y"]).unwrap();
        assert_eq!(a.write_jsonl.as_deref(), Some("x"));
        assert_eq!(a.write_chrome.as_deref(), Some("y"));
        assert!(to_args(&["--write-jsonl"]).is_err());
        assert!(to_args(&["--nope"]).is_err());
        assert!(to_args(&["a", "b"]).is_err());
    }

    #[test]
    fn json_summary_is_flat_deterministic_json() {
        let mut rep = TelemetryReport {
            scheme: "Presto".into(),
            ..TelemetryReport::default()
        };
        rep.flush_reasons[FlushReason::InFlowcellGap.index()] = 3;
        rep.flush_reasons[FlushReason::BoundaryGapFilled.index()] = 17;
        rep.spray_counts = vec![5, 7];
        let line = json_summary(&rep);
        assert!(line.starts_with("{\"scheme\":\"Presto\""));
        assert!(line.contains("\"flush_loss\":3"));
        assert!(line.contains("\"flush_reordering\":17"));
        assert!(line.contains("\"flush_InFlowcellGap\":3"));
        assert!(line.contains("\"spray_counts\":[5,7]"));
        assert!(line.ends_with("\"failover_stages\":[]}"));
        assert_eq!(line, json_summary(&rep));
        // Round-trips through the repo's own JSON field readers.
        assert_eq!(
            presto_telemetry::json::json_u64(&line, "flush_reordering"),
            Some(17)
        );
    }
}
