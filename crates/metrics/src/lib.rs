//! Measurement toolkit for the Presto reproduction.
//!
//! The paper evaluates throughput, round-trip time, mice flow completion
//! time, packet loss (switch counters), and Jain's fairness index (§4).
//! This crate provides the statistics used to report all of them:
//!
//! * [`Samples`] — an accumulating sample set with exact percentiles,
//! * [`Cdf`] — empirical CDFs matching the paper's figures,
//! * [`fairness::jain_index`] — Jain, Chiu & Hawe's fairness measure,
//! * [`TimeSeries`] — timestamped samples (e.g. the CPU usage of Fig 6),
//! * [`MetricSummary`] — six-number percentile summaries, the row format
//!   of campaign results tables (`presto-lab`),
//! * [`DeadlineTracker`] — per-request deadline accounting for
//!   partition-aggregate (incast) workloads,
//! * [`reorder`] — RFC 4737-style packet reordering metrics (§5 reports
//!   reordered-packet fractions for the flowlet comparison),
//! * [`table`] — plain-text table rendering for the benchmark harnesses.

#![warn(missing_docs)]

pub mod cdf;
pub mod deadline;
pub mod fairness;
pub mod reorder;
pub mod samples;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use cdf::Cdf;
pub use deadline::DeadlineTracker;
pub use reorder::{reorder_stats, ReorderStats};
pub use samples::Samples;
pub use summary::MetricSummary;
pub use timeseries::TimeSeries;
