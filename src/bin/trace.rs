//! `trace` — inspect telemetry traces, or generate one live.
//!
//! ```text
//! # Summarize an exported JSONL trace (as written by `lab run` into
//! # <store>/<campaign>/traces/, or by --write-jsonl below).
//! trace path/to/trace.jsonl
//!
//! # The same summary as one flat-JSON line, for scripts.
//! trace path/to/trace.jsonl --json
//!
//! # Demo mode: run the Fig 5 GRO comparison with telemetry attached and
//! # summarize both schemes; optionally export the Presto-side trace.
//! trace [--write-jsonl t.jsonl] [--write-chrome t.json]
//! ```
//!
//! All logic lives in [`presto::trace_tool`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match presto::trace_tool::TraceArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match presto::trace_tool::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("trace: {msg}");
            ExitCode::from(1)
        }
    }
}
