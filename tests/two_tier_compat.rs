//! 2-tier backward-compatibility regression: report digests pinned.
//!
//! The multi-tier topology refactor (graph-based `Topology`, path-based
//! controller trees) must be behaviour-preserving on the classic 2-tier
//! testbed. These digests were captured on the pre-refactor tree; any
//! change here means the refactor altered packet-level behaviour, not
//! just structure. Each pin is asserted with the telemetry layer off and
//! on: attaching telemetry must never change the digest.

use presto::prelude::*;
use presto::workloads::FlowSpec;
use presto_telemetry::TelemetryConfig;
use presto_testbed::{MiceSpec, ShuffleSpec};

fn flows_l1_l4() -> Vec<FlowSpec> {
    (0..4)
        .map(|i| FlowSpec::elephant(i, 12 + i, SimTime::ZERO))
        .collect()
}

fn assert_digest(name: &str, builder: ScenarioBuilder, expected: u64, telemetry: bool) -> Report {
    let builder = if telemetry {
        builder.telemetry(TelemetryConfig::default())
    } else {
        builder
    };
    let report = builder.build().run();
    let digest = report.digest();
    assert_eq!(
        digest, expected,
        "{name} @ telemetry={telemetry}: \
         digest {digest:#018x} != pre-refactor baseline {expected:#018x}"
    );
    report
}

const SMOKE_PRESTO: u64 = 0xf3c2d3b083ddafe0;

fn smoke_presto() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::presto(), 21)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(flows_l1_l4())
        .mice(vec![MiceSpec {
            src: 1,
            dst: 9,
            bytes: 50_000,
            interval: SimDuration::from_millis(5),
        }])
        .probes(vec![(0, 12)])
}

#[test]
fn smoke_presto_digest_is_unchanged() {
    assert_digest("smoke_presto", smoke_presto(), SMOKE_PRESTO, false);
}

#[test]
fn smoke_presto_digest_is_unchanged_with_telemetry() {
    assert_digest("smoke_presto", smoke_presto(), SMOKE_PRESTO, true);
}

const SMOKE_ECMP: u64 = 0xf7bb59607124854c;

fn smoke_ecmp() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::ecmp(), 7)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(presto_testbed::bijection_elephants(16, 4, 7))
}

#[test]
fn smoke_ecmp_digest_is_unchanged() {
    assert_digest("smoke_ecmp", smoke_ecmp(), SMOKE_ECMP, false);
}

#[test]
fn smoke_ecmp_digest_is_unchanged_with_telemetry() {
    assert_digest("smoke_ecmp", smoke_ecmp(), SMOKE_ECMP, true);
}

const FAILURE_LINK_DOWN: u64 = 0xa96d4c409297cac9;

fn failure_link_down() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::presto(), 21)
        .duration(SimDuration::from_millis(40))
        .warmup(SimDuration::from_millis(10))
        .elephants(
            (0..4)
                .map(|i| FlowSpec::elephant(12 + i, i, SimTime::ZERO))
                .collect(),
        )
        .faults(FaultPlan::new().link_down(
            SimTime::from_millis(15),
            0,
            0,
            0,
            Notify::After(SimDuration::from_millis(5)),
        ))
}

#[test]
fn failure_link_down_digest_is_unchanged() {
    assert_digest(
        "failure_link_down",
        failure_link_down(),
        FAILURE_LINK_DOWN,
        false,
    );
}

#[test]
fn failure_link_down_digest_is_unchanged_with_telemetry() {
    assert_digest(
        "failure_link_down",
        failure_link_down(),
        FAILURE_LINK_DOWN,
        true,
    );
}

const FAILURE_SPINE_DOWN: u64 = 0xbf9a5aad4f5b0587;

fn failure_spine_down() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::presto(), 3)
        .duration(SimDuration::from_millis(40))
        .warmup(SimDuration::from_millis(10))
        .elephants(flows_l1_l4())
        .faults(
            FaultPlan::new()
                .spine_down(SimTime::from_millis(15), 1, Notify::Immediate)
                .spine_up(SimTime::from_millis(30), 1, Notify::Immediate),
        )
}

#[test]
fn failure_spine_down_digest_is_unchanged() {
    assert_digest(
        "failure_spine_down",
        failure_spine_down(),
        FAILURE_SPINE_DOWN,
        false,
    );
}

#[test]
fn failure_spine_down_digest_is_unchanged_with_telemetry() {
    assert_digest(
        "failure_spine_down",
        failure_spine_down(),
        FAILURE_SPINE_DOWN,
        true,
    );
}

const WAN_REMOTES: u64 = 0xf6c30370123e9909;

fn wan_remotes() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::presto(), 5)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(flows_l1_l4())
        .wan_remotes(2)
}

#[test]
fn wan_remotes_digest_is_unchanged() {
    assert_digest("wan_remotes", wan_remotes(), WAN_REMOTES, false);
}

#[test]
fn wan_remotes_digest_is_unchanged_with_telemetry() {
    assert_digest("wan_remotes", wan_remotes(), WAN_REMOTES, true);
}

const PRESTO_ECMP: u64 = 0x1c94dad6faab2659;

fn presto_ecmp() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::presto_ecmp(), 11)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(flows_l1_l4())
}

#[test]
fn presto_ecmp_digest_is_unchanged() {
    assert_digest("presto_ecmp", presto_ecmp(), PRESTO_ECMP, false);
}

#[test]
fn presto_ecmp_telemetry_digest_is_unchanged() {
    assert_digest("presto_ecmp", presto_ecmp(), PRESTO_ECMP, true);
}

// The pins below cover the transport paths the pins above leave out:
// MPTCP connections (elephants, mice, and subflow RTOs under a failure)
// and the shuffle workload's completion bookkeeping.

const MPTCP_STRIDE: u64 = 0x2e089b29f3fae6b8;

fn mptcp_stride() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::mptcp(), 13)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(presto_testbed::stride_elephants(16, 8))
        .mice(vec![MiceSpec {
            src: 2,
            dst: 10,
            bytes: 50_000,
            interval: SimDuration::from_millis(5),
        }])
}

#[test]
fn mptcp_stride_digest_is_unchanged() {
    assert_digest("mptcp_stride", mptcp_stride(), MPTCP_STRIDE, false);
}

#[test]
fn mptcp_stride_digest_is_unchanged_with_telemetry() {
    assert_digest("mptcp_stride", mptcp_stride(), MPTCP_STRIDE, true);
}

const MPTCP_LINK_DOWN: u64 = 0x3ffabd427ecc66a0;

fn mptcp_link_down() -> ScenarioBuilder {
    failure_link_down().scheme(SchemeSpec::mptcp())
}

#[test]
fn mptcp_link_down_digest_is_unchanged() {
    let report = assert_digest("mptcp_link_down", mptcp_link_down(), MPTCP_LINK_DOWN, false);
    // The pin must reach the subflow retransmission timer.
    assert!(report.timeouts > 0, "no MPTCP subflow timed out");
}

#[test]
fn mptcp_link_down_digest_is_unchanged_with_telemetry() {
    let report = assert_digest("mptcp_link_down", mptcp_link_down(), MPTCP_LINK_DOWN, true);
    assert!(report.timeouts > 0, "no MPTCP subflow timed out");
}

const TCP_SHUFFLE: u64 = 0x170e7cbbde369ed9;

fn tcp_shuffle() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::presto(), 17)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(5))
        .shuffle(ShuffleSpec {
            bytes: 500_000,
            concurrency: 2,
        })
}

#[test]
fn tcp_shuffle_digest_is_unchanged() {
    let report = assert_digest("tcp_shuffle", tcp_shuffle(), TCP_SHUFFLE, false);
    // The pin must reach shuffle completions, not only their starts.
    assert!(
        !report.elephant_tputs.is_empty(),
        "no shuffle transfer completed"
    );
}

#[test]
fn tcp_shuffle_digest_is_unchanged_with_telemetry() {
    assert_digest("tcp_shuffle", tcp_shuffle(), TCP_SHUFFLE, true);
}

/// Half the testbed talks (leaf 3's hosts send to leaf 0's); the other
/// eight hosts sit idle while the CPU sampler runs. Pins the per-host
/// outputs an idle host still contributes: its all-zero CPU series in
/// the digest and its counter block in the telemetry report.
const IDLE_HOSTS: u64 = 0x35a44dd7812af703;

fn idle_hosts() -> ScenarioBuilder {
    idle_hosts_under(SchemeSpec::presto())
}

fn idle_hosts_under(scheme: SchemeSpec) -> ScenarioBuilder {
    Scenario::builder(scheme, 21)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(
            (0..4)
                .map(|i| FlowSpec::elephant(12 + i, i, SimTime::ZERO))
                .collect(),
        )
        .cpu_sample(SimDuration::from_millis(1))
}

/// FNV-1a over every counter's (component, name, value), in report order.
fn counters_hash(tel: &presto_telemetry::TelemetryReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in &tel.counters {
        feed(c.component.as_bytes());
        feed(&[0]);
        feed(c.name.as_bytes());
        feed(&[0]);
        feed(&c.value.to_le_bytes());
    }
    h
}

const IDLE_HOSTS_COUNTERS: u64 = 0x6e4db1c8150bfa16;

#[test]
fn idle_hosts_digest_is_unchanged() {
    let report = assert_digest("idle_hosts", idle_hosts(), IDLE_HOSTS, false);
    // Every topology host keeps a CPU series, the idle ones included.
    let mut keys: Vec<u32> = report.cpu_util.keys().copied().collect();
    keys.sort_unstable();
    assert_eq!(keys, (0..16).collect::<Vec<u32>>());
    let idle = report.cpu_util[&8].points();
    assert!(!idle.is_empty() && idle.iter().all(|&(_, v)| v == 0.0));
}

#[test]
fn idle_hosts_digest_is_unchanged_with_telemetry() {
    let (report, tel) = idle_hosts().build().run_traced();
    assert_eq!(report.digest(), IDLE_HOSTS, "idle_hosts @ telemetry=true");
    let hash = counters_hash(&tel);
    assert_eq!(
        hash, IDLE_HOSTS_COUNTERS,
        "idle_hosts counters hash {hash:#018x} != {IDLE_HOSTS_COUNTERS:#018x}"
    );
    for i in 0..16 {
        let component = format!("host{i}");
        assert!(
            tel.counters.iter().any(|c| c.component == component),
            "no counter block for {component}"
        );
    }
}

/// The half-idle run under Prequal, whose probe rounds reach every host
/// with edge state. Only the eight talking hosts have one, so only their
/// probe pools count toward `probe_pool_samples/hot/cold`: 45,600 samples
/// over 300 rounds, where building every host's edge counted 84,000.
const IDLE_HOSTS_PREQUAL: u64 = 0x40ed6a587c2563d5;

#[test]
fn idle_hosts_prequal_probes_only_talking_hosts() {
    let sc = idle_hosts_under(SchemeSpec::prequal()).build();
    assert_eq!(sc.build().hosts.len(), 8, "one HostNode per talking host");
    let report = sc.run();
    assert_eq!(report.probe_rounds, 300);
    assert_eq!(report.probe_pool_samples, 45_600);
    let digest = report.digest();
    assert_eq!(
        digest, IDLE_HOSTS_PREQUAL,
        "idle_hosts under prequal: digest {digest:#018x} != {IDLE_HOSTS_PREQUAL:#018x}"
    );
}
