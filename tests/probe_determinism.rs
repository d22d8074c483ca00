//! Probe subsystem determinism matrix.
//!
//! The `prequal` scheme threads a whole control loop through the
//! engine: per-host load signals, periodic probe rounds, the HCL
//! hot/cold pool, WRR path biasing and replica selection at the incast
//! aggregator. None of it may perturb engine determinism — the report
//! digest must be byte-identical across worker counts (1/2/8) and with
//! telemetry on or off, the same invariant the transport axis pins in
//! `ecn_determinism.rs`.
//!
//! The second half pins the opt-in contract: with probing off (no
//! policy returns `probe_params`), no probe event is ever scheduled and
//! every pre-probe digest and fingerprint — the `two_tier_compat` pins
//! and the committed bakeoff baseline — is byte-identical.

use presto_simcore::{SimDuration, SimTime};
use presto_telemetry::TelemetryConfig;
use presto_testbed::{
    IncastSpec, MiceSpec, ParallelRunner, Report, Scenario, ScenarioBuilder, SchemeSpec,
};
use presto_workloads::FlowSpec;

/// Prequal under the skewed partition-aggregate shape: two incast
/// responders double as elephant sources, so probing has real load
/// asymmetry to react to (replica selection actively steers).
fn prequal_skew() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::prequal(), 1)
        .duration(SimDuration::from_millis(20))
        .warmup(SimDuration::from_millis(5))
        .elephants(vec![
            FlowSpec::elephant(1, 9, SimTime::ZERO),
            FlowSpec::elephant(2, 10, SimTime::ZERO),
        ])
        .incast(IncastSpec {
            aggregator: 0,
            fanout: 8,
            bytes_per_worker: 32 * 1024,
            interval: SimDuration::from_micros(1000),
            deadline: SimDuration::from_micros(400),
        })
}

/// Prequal under sustained stride elephants plus mice — the WRR
/// path-bias side of the policy, with FCT samples in the digest.
fn prequal_stride() -> ScenarioBuilder {
    Scenario::builder(SchemeSpec::prequal(), 21)
        .duration(SimDuration::from_millis(20))
        .warmup(SimDuration::from_millis(5))
        .elephants(presto_testbed::stride_elephants(16, 8))
        .mice(vec![MiceSpec {
            src: 1,
            dst: 9,
            bytes: 50_000,
            interval: SimDuration::from_millis(4),
        }])
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
fn prequal_skew_is_telemetry_invariant() {
    let report = assert_telemetry_invariant("prequal_skew", prequal_skew);
    assert!(report.probe_rounds > 0, "probing must actually run");
    assert!(report.probe_pool_samples > 0, "pools must fill");
    assert!(
        report.probe_pool_hot + report.probe_pool_cold <= report.probe_pool_samples,
        "HCL classes partition the samples"
    );
    assert!(report.incast_requests > 0, "requests must complete");
}

#[test]
fn prequal_stride_is_telemetry_invariant() {
    let report = assert_telemetry_invariant("prequal_stride", prequal_stride);
    assert!(report.probe_rounds > 0, "probing must actually run");
    assert!(report.events_processed > 0);
}

#[test]
fn prequal_digests_identical_across_1_2_and_8_workers() {
    let scenarios: Vec<Scenario> = vec![prequal_skew().build(), prequal_stride().build()];
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
    assert_ne!(one[0], one[1], "scenario digests must differ");
}

/// The digest folds probe counters only when probing ran: stale or
/// garbage values in the probe fields of a non-probing report must not
/// leak into the digest (this is what keeps every pre-probe pin valid).
#[test]
fn probe_fields_fold_into_the_digest_only_when_probing_ran() {
    let mut poked = Scenario::builder(SchemeSpec::presto(), 3)
        .duration(SimDuration::from_millis(10))
        .warmup(SimDuration::from_millis(2))
        .elephants(presto_testbed::stride_elephants(16, 8))
        .build()
        .run();
    assert_eq!(poked.probe_rounds, 0, "presto never opts into probing");
    let expected = poked.digest();

    poked.probe_pool_samples = 999;
    poked.probe_pool_hot = 500;
    poked.probe_pool_cold = 499;
    assert_eq!(
        poked.digest(),
        expected,
        "probe counters are digest-inert while probe_rounds == 0"
    );
    poked.probe_rounds = 1;
    assert_ne!(
        poked.digest(),
        expected,
        "once probing ran the counters must gate"
    );
}

/// The `two_tier_compat` pins, re-asserted post-probe: with no policy
/// opting in, the engine schedules zero probe events and the
/// pre-refactor digests hold bit-for-bit.
#[test]
fn pinned_two_tier_digests_are_unchanged_with_probing_off() {
    let smoke_presto = Scenario::builder(SchemeSpec::presto(), 21)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(
            (0..4)
                .map(|i| FlowSpec::elephant(i, 12 + i, SimTime::ZERO))
                .collect(),
        )
        .mice(vec![MiceSpec {
            src: 1,
            dst: 9,
            bytes: 50_000,
            interval: SimDuration::from_millis(5),
        }])
        .probes(vec![(0, 12)])
        .build()
        .run();
    assert_eq!(smoke_presto.probe_rounds, 0);
    assert_eq!(smoke_presto.digest(), 0xf3c2d3b083ddafe0);

    let smoke_ecmp = Scenario::builder(SchemeSpec::ecmp(), 7)
        .duration(SimDuration::from_millis(30))
        .warmup(SimDuration::from_millis(10))
        .elephants(presto_testbed::bijection_elephants(16, 4, 7))
        .build()
        .run();
    assert_eq!(smoke_ecmp.probe_rounds, 0);
    assert_eq!(smoke_ecmp.digest(), 0xf7bb59607124854c);
}

/// Every fingerprint in the four committed baselines must be reproduced by
/// today's canonical texts. Fingerprints hash the full scenario canon
/// (schemes, workloads, transport, faults and the constant link-departure
/// line), so this pins every committed grid without re-running any
/// simulation. The bakeoff's eight schemes never probe, so its rows also
/// pin that probing stays off for them.
#[test]
fn committed_baseline_fingerprints_are_unchanged() {
    for (name, points_expected, never_probes) in [
        ("paper_grid", 30, false),
        ("incast", 16, false),
        ("skew", 12, false),
        ("bakeoff", 64, true),
    ] {
        let toml =
            std::fs::read_to_string(format!("campaigns/{name}.toml")).expect("committed campaign");
        let points = presto_lab::Campaign::from_toml(&toml)
            .expect("parses")
            .expand()
            .expect("expands");
        let baseline =
            presto_lab::read_table(std::path::Path::new(&format!("baselines/{name}.json")))
                .expect("baseline");
        assert_eq!(points.len(), points_expected, "{name}: grid size");
        assert_eq!(baseline.len(), points.len(), "{name}: one row per point");
        for (point, row) in points.iter().zip(&baseline) {
            assert_eq!(point.label(), row.label, "{name}: grid order is pinned");
            assert_eq!(
                point.fingerprint(),
                row.fp,
                "{name}: canonical text of {} drifted",
                row.label
            );
            if never_probes {
                assert_eq!(row.probe_rounds, 0, "{}: never probed", row.label);
            }
        }
    }
}

/// Committed baseline digests, rebuilt through the lab exactly as
/// `ci/campaign_smoke.sh` runs them: the skew campaign's prequal points
/// (40 ms, 10 ms warm-up) and one bake-off point per arena scheme (web
/// search with a link failure, where every scheme's decisions matter),
/// plus the incast campaign's collective points: ring allreduce under
/// Presto and ECMP, and DCTCP incast with ECN under ECMP.
/// The matrices above only compare a scheme with itself; these pins catch
/// any change to what prequal and its probe pool, an arena scheme or a
/// collective workload decides.
#[test]
fn prequal_skew_campaign_digests_are_pinned() {
    for (campaign, label, pinned) in [
        (
            "skew",
            "prequal/testbed16/skew:8:32:1000:400:2/none/cell64k/s1",
            0x84c756644b4f66f5u64,
        ),
        (
            "skew",
            "prequal/testbed16/incast:8:32:1000:400/none/cell64k/s1",
            0xbb2b06951f2bfa6a,
        ),
        (
            "bakeoff",
            "flowlet-100us/testbed16/websearch:1/linkdown:20/cell64k/s1",
            0x3ffe3758424bbcea,
        ),
        (
            "bakeoff",
            "flowlet-500us/testbed16/websearch:1/linkdown:20/cell64k/s1",
            0x0a8644877c63429a,
        ),
        (
            "bakeoff",
            "flowdyn/testbed16/websearch:1/linkdown:20/cell64k/s1",
            0x5a7139ad6b5de721,
        ),
        (
            "bakeoff",
            "diffflow/testbed16/websearch:1/linkdown:20/cell64k/s1",
            0x4df277fa01b89979,
        ),
        (
            "bakeoff",
            "sprinklers/testbed16/websearch:1/linkdown:20/cell64k/s1",
            0xf3851f0a9f32f957,
        ),
        (
            "bakeoff",
            "caft/testbed16/websearch:1/linkdown:20/cell64k/s1",
            0xfc225bcacf903511,
        ),
        (
            "incast",
            "presto/testbed16/allreduce:8:256/none/cell64k/s1",
            0x4613b88f38260d45,
        ),
        (
            "incast",
            "ecmp/testbed16/allreduce:8:256/none/cell64k/s1",
            0xdb3d91c0656e066c,
        ),
        (
            "incast",
            "ecmp/testbed16/incast:8:32:1000:280/none/cell64k/s1/cc:dctcp/ecn:on",
            0xc282ce74eff16e74,
        ),
    ] {
        let toml = std::fs::read_to_string(format!("campaigns/{campaign}.toml"))
            .expect("committed campaign");
        let points = presto_lab::Campaign::from_toml(&toml)
            .expect("parses")
            .expand()
            .expect("expands");
        let point = points
            .iter()
            .find(|p| p.label() == label)
            .unwrap_or_else(|| panic!("{label} is in {campaign}"));
        let digest = point.to_scenario().run().digest();
        assert_eq!(digest, pinned, "{campaign} {label}: digest {digest:#018x}");
    }
}

/// A zero probe interval would reschedule the probe round at one instant
/// forever; building the simulation must refuse it instead.
#[test]
#[should_panic(expected = "probe interval")]
fn zero_probe_interval_is_rejected() {
    let params = presto_testbed::ProbeParams {
        every: SimDuration::ZERO,
        ..Default::default()
    };
    let scheme = SchemeSpec::prequal().with_policy(presto_testbed::PolicyKind::Prequal(params));
    Scenario::builder(scheme, 1)
        .duration(SimDuration::from_millis(1))
        .build()
        .run();
}

/// The same for a feedback-only scheme with a zero feedback period.
#[test]
#[should_panic(expected = "path-feedback interval")]
fn zero_feedback_interval_is_rejected() {
    let scheme =
        SchemeSpec::caft().with_policy(presto_testbed::PolicyKind::Caft(SimDuration::ZERO));
    Scenario::builder(scheme, 1)
        .duration(SimDuration::from_millis(1))
        .build()
        .run();
}
