//! The telemetry layer must be a pure observer.
//!
//! Two contracts, both required by the observability design (DESIGN.md
//! §8):
//!
//! 1. **Tracing never perturbs the simulation.** A run with the telemetry
//!    layer attached produces a byte-identical `Report::digest()` to the
//!    same run without it — no extra events, no changed packet paths.
//! 2. **Traces are as deterministic as reports.** The JSONL export of
//!    scenario *i* is byte-identical whether the sweep ran on 1, 2, or 8
//!    `ParallelRunner` workers.

use presto::simcore::SimDuration;
use presto::telemetry::{FlushReason, TelemetryConfig, TelemetryReport};
use presto::testbed::{stride_elephants, ParallelRunner, Scenario, ScenarioBuilder, SchemeSpec};

fn tiny(scheme: SchemeSpec, seed: u64) -> ScenarioBuilder {
    Scenario::builder(scheme, seed)
        .duration(SimDuration::from_millis(8))
        .warmup(SimDuration::from_millis(2))
        .elephants(stride_elephants(16, 8))
}

#[test]
fn digest_identical_with_tracing_on_and_off() {
    for scheme in [
        SchemeSpec::presto(),
        SchemeSpec::from_token("presto-official-gro").unwrap(),
    ] {
        let off = tiny(scheme.clone(), 7).build().run().digest();

        let on = tiny(scheme, 7)
            .telemetry(TelemetryConfig::default())
            .build()
            .run()
            .digest();

        assert_eq!(off, on, "telemetry changed the simulation");
    }
}

#[test]
fn traces_identical_across_worker_counts() {
    let scenarios: Vec<Scenario> = (0..3)
        .map(|s| tiny(SchemeSpec::presto(), s).build())
        .collect();
    let baseline: Vec<String> = ParallelRunner::new(1)
        .run_traced(&scenarios)
        .into_iter()
        .map(|(_, tel)| tel.to_jsonl())
        .collect();
    for (i, jsonl) in baseline.iter().enumerate() {
        assert!(
            jsonl.contains(r#""type":"event""#),
            "scenario {i}'s trace holds no event lines to compare"
        );
    }
    for workers in [2, 8] {
        let got: Vec<String> = ParallelRunner::new(workers)
            .run_traced(&scenarios)
            .into_iter()
            .map(|(_, tel)| tel.to_jsonl())
            .collect();
        assert_eq!(baseline, got, "trace changed under {workers} workers");
    }
}

#[test]
fn jsonl_roundtrips_a_real_trace() {
    let sc = tiny(SchemeSpec::presto(), 3).build();
    let (_, tel) = sc.run_traced();
    let parsed = TelemetryReport::from_jsonl(&tel.to_jsonl());
    assert_eq!(tel, parsed, "JSONL export must round-trip losslessly");
}

#[test]
fn flush_reasons_populate_for_both_engines() {
    // The Fig 5 attribution: Presto GRO absorbs flowcell boundaries,
    // stock GRO ejects at them.
    let (_, presto) = tiny(SchemeSpec::presto(), 5).build().run_traced();
    let (_, official) = tiny(SchemeSpec::from_token("presto-official-gro").unwrap(), 5)
        .build()
        .run_traced();

    let total = |t: &TelemetryReport| t.flush_reasons.iter().sum::<u64>();
    assert!(total(&presto) > 0, "presto GRO attributed no pushes");
    assert!(total(&official) > 0, "stock GRO attributed no pushes");
    assert!(
        official.flush_reasons[FlushReason::BoundaryEject.index()] > 0,
        "spraying must trigger boundary ejects in stock GRO"
    );
    assert_eq!(
        presto.flush_reasons[FlushReason::BoundaryEject.index()],
        0,
        "Presto GRO never size-ejects at boundaries"
    );
    // Both engines spray: per-path counts cover every spine path.
    assert!(presto.spray_counts.len() > 1);
    assert!(presto.spray_counts.iter().all(|&c| c > 0));
}

#[test]
fn traced_presto_run_records_every_datapath_event_kind() {
    let (_, tel) = tiny(SchemeSpec::presto(), 9).build().run_traced();
    // Every build records: the exported ring holds the fabric,
    // Algorithm 2, the flowcell spray and both samplers.
    let jsonl = tel.to_jsonl();
    for kind in [
        "PacketEnqueued",
        "GroFlush",
        "GroHold",
        "FlowcellEmitted",
        "LinkOccupancySample",
        "EventQueueSample",
    ] {
        assert!(
            jsonl.contains(&format!(r#""kind":"{kind}""#)),
            "traced Presto run recorded no {kind} event"
        );
    }
    // Counters, samples, and the queue profile are always-on.
    assert!(!tel.counters.is_empty());
    assert!(!tel.queue_depths.is_empty());
    assert!(!tel.event_queue.is_empty());
    assert!(tel.queue_high_water > 0);
}
