//! The composed simulator — the "physical testbed" of §4.
//!
//! Wires every substrate together: the fabric (`presto-netsim`), end hosts
//! with NIC/CPU models (`presto-endhost`), GRO engines (`presto-gro`),
//! TCP/MPTCP (`presto-transport`), the Presto controller and flowcell
//! scheduler (`presto-core`), the baseline policies (`presto-lb`), and
//! fault timelines (`presto-faults`).
//!
//! The public surface:
//!
//! * [`SchemeSpec`] — which load-balancing scheme a run uses (Presto,
//!   ECMP, MPTCP, Optimal, flowlet switching, Presto+ECMP, per-packet,
//!   and the Presto-sender/stock-GRO ablation of Fig 5);
//! * [`ScenarioBuilder`] — fluent construction of a complete experiment
//!   description: topology, scheme, flows, mice, probes, shuffle, fault
//!   plan, measurement windows;
//! * [`FaultPlan`] — the failure-recovery timeline (link flaps, rate
//!   degradation, spine loss, delayed/dropped controller notifications);
//! * [`Report`] — everything the paper's figures need: throughputs, RTT
//!   and FCT samples, loss rates, Jain fairness, CPU utilization series,
//!   segment-size and reordering distributions, and the per-stage
//!   failover timeline of Fig 17.
//!
//! ```no_run
//! use presto_testbed::{Scenario, SchemeSpec};
//!
//! let sc = Scenario::builder(SchemeSpec::presto(), 42)
//!     .elephants(presto_testbed::stride_elephants(16, 8))
//!     .build();
//! let report = sc.run();
//! println!("mean elephant tput: {:.2} Gbps", report.mean_elephant_tput());
//! ```

#![warn(missing_docs)]

mod apps;
pub mod builder;
pub mod canon;
pub mod observe;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scheme;
pub mod sim;

pub use builder::ScenarioBuilder;
pub use canon::{scheme_canon, Fnv128};
pub use observe::{EventStreamHash, Observer};
pub use presto_faults::{FaultEvent, FaultKind, FaultPlan, FlapProcess, Notify};
pub use presto_probe::{HclPool, HostLoad, PoolClass, PoolStats, ProbeParams};
pub use presto_telemetry::{FailoverStage, TelemetryConfig, TelemetryReport};
pub use registry::{build_policy, SchemeEntry, SCHEMES};
pub use report::Report;
pub use runner::ParallelRunner;
pub use scenario::{
    bijection_elephants, random_elephants, stride_elephants, AllreduceSpec, IncastSpec, MiceSpec,
    Scenario, ShuffleSpec,
};
pub use scheme::{GroKind, PolicyKind, SchemeSpec, TransportKind, DEFAULT_ECN_THRESHOLD};
pub use sim::{FaultAction, ResolvedFault, Simulation};
