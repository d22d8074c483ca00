//! Fluent construction of [`Scenario`]s.
//!
//! [`ScenarioBuilder`] is the supported way to assemble an experiment:
//! start from [`Scenario::builder`] (paper-testbed defaults), chain the
//! setters you need, and `build()`. It is the only way to construct a
//! [`Scenario`]: the fields are private to this crate.
//!
//! ```
//! use presto_simcore::{SimDuration, SimTime};
//! use presto_testbed::{FaultPlan, Notify, Scenario, SchemeSpec};
//!
//! let scenario = Scenario::builder(SchemeSpec::presto(), 7)
//!     .duration(SimDuration::from_millis(60))
//!     .warmup(SimDuration::from_millis(20))
//!     .elephants(presto_testbed::stride_elephants(16, 8))
//!     .faults(FaultPlan::new().flap_once(
//!         SimTime::from_millis(30),
//!         SimTime::from_millis(45),
//!         0,
//!         1,
//!         0,
//!         Notify::After(SimDuration::from_millis(2)),
//!     ))
//!     .build();
//! assert_eq!(scenario.n_servers(), 16);
//! ```

use presto_faults::FaultPlan;
use presto_netsim::{ClosSpec, ThreeTierSpec};
use presto_simcore::SimDuration;
use presto_telemetry::TelemetryConfig;
use presto_workloads::FlowSpec;

use crate::scenario::{AllreduceSpec, IncastSpec, MiceSpec, Scenario, ShuffleSpec};
use crate::scheme::SchemeSpec;

/// Fluent builder for [`Scenario`] — see the module docs for an example.
///
/// Every setter consumes and returns the builder, so a scenario reads as
/// one chained expression. Defaults match the paper's Fig 3 testbed:
/// 4 spines × 4 leaves × 4 hosts, 200 ms runs with a 40 ms warmup,
/// 500 µs probe interval, 16 MiB host uplink queues, no faults.
pub struct ScenarioBuilder {
    inner: Scenario,
}

impl Scenario {
    /// Start building a scenario from the paper-testbed defaults.
    pub fn builder(scheme: SchemeSpec, seed: u64) -> ScenarioBuilder {
        ScenarioBuilder::new(scheme, seed)
    }
}

impl ScenarioBuilder {
    /// A builder with the paper-testbed defaults, named after the scheme.
    pub fn new(scheme: SchemeSpec, seed: u64) -> Self {
        ScenarioBuilder {
            inner: Scenario {
                name: scheme.name.to_string(),
                seed,
                scheme,
                clos: ClosSpec::default(),
                three_tier: None,
                duration: SimDuration::from_millis(200),
                warmup: SimDuration::from_millis(40),
                flows: Vec::new(),
                mice: Vec::new(),
                probes: Vec::new(),
                probe_interval: SimDuration::from_micros(500),
                shuffle: None,
                incast: None,
                allreduce: None,
                faults: FaultPlan::new(),
                wan_remotes: 0,
                collect_reorder: false,
                cpu_sample: None,
                host_uplink_queue: 16 * 1024 * 1024,
                telemetry: None,
            },
        }
    }

    /// Override the run label (defaults to the scheme name).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.inner.name = name.into();
        self
    }

    /// Change the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Swap the scheme under test. Also resets the run label to the new
    /// scheme's name; chain [`ScenarioBuilder::name`] afterwards to keep a
    /// custom label.
    pub fn scheme(mut self, scheme: SchemeSpec) -> Self {
        self.inner.name = scheme.name.to_string();
        self.inner.scheme = scheme;
        self
    }

    /// Use a different Clos topology (spines/leaves/hosts, rates, queues).
    /// Clears any 3-tier override.
    pub fn topology(mut self, clos: ClosSpec) -> Self {
        self.inner.clos = clos;
        self.inner.three_tier = None;
        self
    }

    /// Run on a 3-tier Clos (hosts → ToR → aggregation → core) instead of
    /// the 2-tier testbed.
    pub fn three_tier(mut self, spec: ThreeTierSpec) -> Self {
        self.inner.three_tier = Some(spec);
        self
    }

    /// Simulated duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.inner.duration = duration;
        self
    }

    /// Measurement-window start.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.inner.warmup = warmup;
        self
    }

    /// Install the flow list — typically the output of
    /// [`stride_elephants`](crate::stride_elephants) and friends.
    pub fn elephants(mut self, flows: Vec<FlowSpec>) -> Self {
        self.inner.flows = flows;
        self
    }

    /// Synonym of [`ScenarioBuilder::elephants`] for mixed flow lists.
    pub fn flows(self, flows: Vec<FlowSpec>) -> Self {
        self.elephants(flows)
    }

    /// Install the mice series.
    pub fn mice(mut self, mice: Vec<MiceSpec>) -> Self {
        self.inner.mice = mice;
        self
    }

    /// Install RTT probe pairs.
    pub fn probes(mut self, probes: Vec<(usize, usize)>) -> Self {
        self.inner.probes = probes;
        self
    }

    /// Probe send interval.
    pub fn probe_interval(mut self, interval: SimDuration) -> Self {
        self.inner.probe_interval = interval;
        self
    }

    /// Run a shuffle workload instead of the flow list.
    pub fn shuffle(mut self, shuffle: ShuffleSpec) -> Self {
        self.inner.shuffle = Some(shuffle);
        self
    }

    /// Run a partition-aggregate incast workload.
    pub fn incast(mut self, spec: IncastSpec) -> Self {
        self.inner.incast = Some(spec);
        self
    }

    /// Run a ring-allreduce collective workload.
    pub fn allreduce(mut self, spec: AllreduceSpec) -> Self {
        self.inner.allreduce = Some(spec);
        self
    }

    /// Install the fault timeline.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.inner.faults = faults;
        self
    }

    /// Attach WAN "remote user" hosts to the spines.
    pub fn wan_remotes(mut self, n: usize) -> Self {
        self.inner.wan_remotes = n;
        self
    }

    /// Collect the Fig 5a flowcell-interleaving metric.
    pub fn collect_reorder(mut self, on: bool) -> Self {
        self.inner.collect_reorder = on;
        self
    }

    /// Sample CPU utilization at this period (Fig 6).
    pub fn cpu_sample(mut self, every: SimDuration) -> Self {
        self.inner.cpu_sample = Some(every);
        self
    }

    /// Host uplink queue capacity in bytes.
    pub fn host_uplink_queue(mut self, bytes: u64) -> Self {
        self.inner.host_uplink_queue = bytes;
        self
    }

    /// Attach the telemetry layer with this configuration.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.inner.telemetry = Some(cfg);
        self
    }

    /// Finish: hand back the assembled [`Scenario`].
    pub fn build(self) -> Scenario {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_faults::Notify;
    use presto_simcore::SimTime;

    #[test]
    fn builder_matches_preset_defaults() {
        let b = Scenario::builder(SchemeSpec::presto(), 5).build();
        assert_eq!(b.name(), SchemeSpec::presto().name);
        assert_eq!(b.seed(), 5);
        assert_eq!(b.duration(), SimDuration::from_millis(200));
        assert_eq!(b.warmup(), SimDuration::from_millis(40));
        assert_eq!(b.probe_interval(), SimDuration::from_micros(500));
        assert_eq!(b.host_uplink_queue(), 16 * 1024 * 1024);
        assert!(b.faults().is_empty());
        assert!(b.flows().is_empty());
        assert_eq!(b.n_servers(), 16);
    }

    #[test]
    fn setters_apply() {
        let s = Scenario::builder(SchemeSpec::presto(), 1)
            .name("custom")
            .seed(9)
            .duration(SimDuration::from_millis(10))
            .warmup(SimDuration::from_millis(2))
            .elephants(crate::stride_elephants(16, 8))
            .mice(vec![MiceSpec {
                src: 0,
                dst: 8,
                bytes: 50_000,
                interval: SimDuration::from_millis(100),
            }])
            .probes(vec![(0, 12)])
            .probe_interval(SimDuration::from_millis(1))
            .wan_remotes(2)
            .collect_reorder(true)
            .cpu_sample(SimDuration::from_millis(1))
            .host_uplink_queue(1 << 20)
            .faults(FaultPlan::new().link_down(SimTime::from_millis(5), 0, 0, 0, Notify::Immediate))
            .build();
        assert_eq!(s.name(), "custom");
        assert_eq!(s.seed(), 9);
        assert_eq!(s.flows().len(), 16);
        assert_eq!(s.mice().len(), 1);
        assert_eq!(s.probes(), &[(0, 12)]);
        assert_eq!(s.wan_remotes(), 2);
        assert!(s.collect_reorder());
        assert_eq!(s.cpu_sample(), Some(SimDuration::from_millis(1)));
        assert_eq!(s.host_uplink_queue(), 1 << 20);
        assert_eq!(s.faults().events.len(), 1);
    }

    #[test]
    fn three_tier_setter_switches_the_fabric() {
        let s = Scenario::builder(SchemeSpec::presto(), 1)
            .three_tier(ThreeTierSpec::default())
            .build();
        assert!(s.three_tier().is_some());
        assert_eq!(s.n_servers(), 16);
        let sim = s.build();
        assert_eq!(sim.topo.tier_count(), 3);
        // Selecting a 2-tier topology again clears the override.
        let s = Scenario::builder(SchemeSpec::presto(), 1)
            .three_tier(ThreeTierSpec::default())
            .topology(ClosSpec::default())
            .build();
        assert!(s.three_tier().is_none());
    }

    #[test]
    fn scheme_setter_renames() {
        let s = Scenario::builder(SchemeSpec::presto(), 1)
            .scheme(SchemeSpec::ecmp())
            .build();
        assert_eq!(s.name(), SchemeSpec::ecmp().name);
        let s = Scenario::builder(SchemeSpec::presto(), 1)
            .scheme(SchemeSpec::ecmp())
            .name("renamed")
            .build();
        assert_eq!(s.name(), "renamed");
    }
}
