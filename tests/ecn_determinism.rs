//! ECN/DCTCP determinism matrix.
//!
//! The transport axis (DCTCP + fabric ECN marking) threads new state
//! through every layer: CE bits on packets, CE-preserving TSO/GRO merge,
//! the ECE echo on ACKs, and the DCTCP window law. None of it may
//! perturb engine determinism: the report digest must be byte-identical
//! across worker counts (1/2/8) and with the telemetry layer on or off —
//! the same invariant the pre-ECN scenarios pin in `two_tier_compat.rs`
//! and `parallel_determinism.rs`.

use presto_simcore::SimDuration;
use presto_telemetry::TelemetryConfig;
use presto_testbed::{
    stride_elephants, AllreduceSpec, IncastSpec, MiceSpec, ParallelRunner, Report, Scenario,
    ScenarioBuilder, SchemeSpec, DEFAULT_ECN_THRESHOLD,
};
use presto_transport::CcKind;

/// Switch the scheme's transport to DCTCP with marking at the paper
/// guideline threshold.
fn dctcp(scheme: SchemeSpec) -> SchemeSpec {
    scheme
        .with_cc(CcKind::Dctcp)
        .with_ecn(Some(DEFAULT_ECN_THRESHOLD))
}

/// Presto × DCTCP under stride elephants plus mice — sustained load with
/// FCT samples in the digest.
fn presto_stride() -> ScenarioBuilder {
    Scenario::builder(dctcp(SchemeSpec::presto()), 21)
        .duration(SimDuration::from_millis(20))
        .warmup(SimDuration::from_millis(5))
        .elephants(stride_elephants(16, 8))
        .mice(vec![MiceSpec {
            src: 1,
            dst: 9,
            bytes: 50_000,
            interval: SimDuration::from_millis(4),
        }])
}

/// ECMP × DCTCP under partition-aggregate incast — the workload built to
/// exceed the marking threshold at the aggregator's downlink.
fn ecmp_incast() -> ScenarioBuilder {
    Scenario::builder(dctcp(SchemeSpec::ecmp()), 7)
        .duration(SimDuration::from_millis(20))
        .warmup(SimDuration::from_millis(5))
        .incast(IncastSpec {
            aggregator: 0,
            fanout: 8,
            bytes_per_worker: 32 * 1024,
            interval: SimDuration::from_micros(1000),
            deadline: SimDuration::from_micros(900),
        })
}

/// Presto × DCTCP under ring all-reduce — synchronized elephant rounds.
fn presto_allreduce() -> ScenarioBuilder {
    Scenario::builder(dctcp(SchemeSpec::presto()), 5)
        .duration(SimDuration::from_millis(20))
        .warmup(SimDuration::from_millis(5))
        .allreduce(AllreduceSpec {
            participants: 8,
            bytes: 512 * 1024,
        })
}

/// Run `make` with the telemetry layer off and on and require the same
/// digest both times; returns the untraced report for content assertions.
fn assert_telemetry_invariant(name: &str, make: impl Fn() -> ScenarioBuilder) -> Report {
    let baseline = make().build().run();
    let expected = baseline.digest();
    let digest = make()
        .telemetry(TelemetryConfig::default())
        .build()
        .run()
        .digest();
    assert_eq!(
        digest, expected,
        "{name} @ telemetry=true: digest {digest:#018x} != untraced {expected:#018x}"
    );
    baseline
}

#[test]
fn presto_dctcp_stride_is_telemetry_invariant() {
    let report = assert_telemetry_invariant("presto_dctcp_stride", presto_stride);
    assert!(
        report.events_processed > 0,
        "the scenario must do real work"
    );
}

#[test]
fn ecmp_dctcp_incast_is_telemetry_invariant() {
    let report = assert_telemetry_invariant("ecmp_dctcp_incast", ecmp_incast);
    // The incast burst (8 × 32 KiB into one host) must exceed the marking
    // threshold: CE marks and deadline accounting both feed the digest.
    assert!(report.ce_marked_packets > 0, "incast must trigger marking");
    assert!(report.incast_requests > 0, "requests must complete");
    assert!(
        report.incast_request_ms.len() as u64 == report.incast_requests,
        "one latency sample per completed request"
    );
}

#[test]
fn presto_dctcp_allreduce_is_telemetry_invariant() {
    let report = assert_telemetry_invariant("presto_dctcp_allreduce", presto_allreduce);
    assert!(report.allreduce_rounds > 0, "rounds must complete");
    // Durations are recorded for post-warmup rounds only, so there are
    // samples but never more than completed rounds.
    assert!(!report.allreduce_round_ms.is_empty());
    assert!(report.allreduce_round_ms.len() as u64 <= report.allreduce_rounds);
}

#[test]
fn ecn_digests_identical_across_1_2_and_8_workers() {
    let scenarios: Vec<Scenario> = vec![
        presto_stride().build(),
        ecmp_incast().build(),
        presto_allreduce().build(),
    ];
    let digests = |workers: usize| -> Vec<u64> {
        ParallelRunner::new(workers)
            .run(&scenarios)
            .iter()
            .map(Report::digest)
            .collect()
    };
    let one = digests(1);
    assert_eq!(one, digests(2), "2 workers changed at least one report");
    assert_eq!(one, digests(8), "8 workers changed at least one report");
    let mut unique = one.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), one.len(), "scenario digests must differ");
}
