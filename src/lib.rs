//! # presto-lab
//!
//! A from-scratch Rust reproduction of **Presto: Edge-based Load Balancing
//! for Fast Datacenter Networks** (He, Rozner, Felter, Carter, Agarwal,
//! Akella — SIGCOMM 2015).
//!
//! Presto load-balances a datacenter fabric from the *soft edge*: the
//! sending vSwitch chops every flow into ≤64 KB **flowcells** and
//! round-robins them over controller-installed shadow-MAC spanning trees
//! (Algorithm 1), while a modified GRO engine at the receiver masks the
//! resulting reordering below TCP (Algorithm 2). No transport or switch
//! hardware changes required.
//!
//! The paper's physical testbed is replaced by a deterministic
//! packet-level simulator (see `DESIGN.md` for the substitution map).
//! This meta-crate re-exports every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simcore`] | `presto-simcore` | simulated time, event queue, EWMA, RNG |
//! | [`netsim`] | `presto-netsim` | switches, links, drop-tail queues, Clos topologies |
//! | [`endhost`] | `presto-endhost` | NIC (TSO/coalescing), CPU cost model, vSwitch |
//! | [`gro`] | `presto-gro` | stock GRO and Presto's Algorithm 2 |
//! | [`transport`] | `presto-transport` | TCP (CUBIC/Reno) and MPTCP |
//! | [`core`] | `presto-core` | flowcell scheduler, controller, shadow MACs |
//! | [`lb`] | `presto-lb` | ECMP / flowlet / per-packet / prequal baselines |
//! | [`probe`] | `presto-probe` | receiver-load signals, HCL hot/cold pool |
//! | [`workloads`] | `presto-workloads` | stride/shuffle/random/trace generators |
//! | [`metrics`] | `presto-metrics` | percentiles, CDFs, Jain fairness |
//! | [`telemetry`] | `presto-telemetry` | trace events, counter registries, exporters |
//! | [`testbed`] | `presto-testbed` | the composed simulator and scenarios |
//!
//! ## Quick start
//!
//! ```
//! use presto::prelude::*;
//!
//! let sc = Scenario::builder(SchemeSpec::presto(), 42)
//!     .duration(SimDuration::from_millis(30))
//!     .warmup(SimDuration::from_millis(10))
//!     .elephants(stride_elephants(16, 8))
//!     .build();
//! let report = sc.run();
//! assert!(report.mean_elephant_tput() > 8.0, "{}", report.mean_elephant_tput());
//! ```

pub use presto_core as core;
pub use presto_endhost as endhost;
pub use presto_faults as faults;
pub use presto_gro as gro;
pub use presto_lb as lb;
pub use presto_metrics as metrics;
pub use presto_netsim as netsim;
pub use presto_probe as probe;
pub use presto_simcore as simcore;
pub use presto_telemetry as telemetry;
pub use presto_testbed as testbed;
pub use presto_transport as transport;
pub use presto_workloads as workloads;

pub mod trace_tool;

/// Everything a typical experiment driver needs, importable in one line.
///
/// Covers scenario construction ([`ScenarioBuilder`](presto_testbed::ScenarioBuilder)
/// and the workload helpers), scheme selection, fault timelines, simulated
/// time, and the report types the paper's figures are read from.
pub mod prelude {
    pub use presto_faults::{FaultEvent, FaultKind, FaultPlan, FlapProcess, Notify};
    pub use presto_netsim::{ClosSpec, ThreeTierSpec, Topology, TopologyBuilder};
    pub use presto_probe::{HclPool, HostLoad, PoolClass, PoolStats, ProbeParams};
    pub use presto_simcore::{SimDuration, SimTime};
    pub use presto_telemetry::{FailoverStage, TelemetryConfig, TelemetryReport, TraceEvent};
    pub use presto_testbed::{
        bijection_elephants, random_elephants, stride_elephants, AllreduceSpec, GroKind,
        IncastSpec, MiceSpec, ParallelRunner, PolicyKind, Report, Scenario, ScenarioBuilder,
        SchemeSpec, ShuffleSpec, Simulation, TransportKind, DEFAULT_ECN_THRESHOLD,
    };
    pub use presto_transport::CcKind;
}
