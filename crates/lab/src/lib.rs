//! Declarative experiment campaigns for the Presto testbed.
//!
//! This crate turns one-off figure harnesses into **campaigns**: named
//! parameter grids over the testbed's axes, expanded deterministically
//! into scenarios, executed with panic isolation, and cached in a
//! persistent content-addressed results store.
//!
//! * [`Campaign`] — the grid: axis lists (scheme × topology × workload ×
//!   fault × flowcell size × seed) refined by `[[drop]]` / `[[override]]`
//!   / `[[trace]]` combinators, loadable from a TOML-subset file
//!   ([`tomlmini`]).
//! * [`PointSpec`] — one grid point; its scenario's canonical-form hash
//!   ([`PointSpec::fingerprint`]) is the point's content address.
//! * [`ResultsStore`] — an append-only JSONL directory mapping
//!   fingerprint → [`Row`] summary. Re-running a campaign skips every
//!   cached point and reproduces the identical results table; an
//!   interrupted campaign resumes from the last completed point.
//! * [`LabRunner`] — expansion → cache partition → isolated parallel
//!   execution → `table.json` / `table.csv` artifacts (plus telemetry
//!   traces for flagged points).
//! * The column table (`store::COLUMNS`) — every row metric, declared
//!   once: the JSON and CSV writers and the regression gate iterate it.
//! * [`diff_tables`] — the regression gate: the table's per-column gates
//!   over two tables, for `lab diff` and CI.
//!
//! The `lab` binary (in the workspace root) wraps all of this in a small
//! CLI: `lab run`, `lab ls`, `lab diff`.

#![warn(missing_docs)]

pub mod axes;
pub mod campaign;
pub mod diff;
pub mod runner;
pub mod store;
pub mod tomlmini;

pub use axes::{CcKind, EcnId, FaultId, ProbeId, SchemeId, TopoId, WorkloadId};
pub use campaign::{Campaign, PointMatch, PointOverride, PointSpec};
pub use diff::{diff_tables, DiffReport};
pub use runner::{CampaignOutcome, LabRunner, RunOptions};
pub use store::{events_rate, read_table, Group, ResultsStore, Row, RowStatus};
