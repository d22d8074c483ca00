//! The telemetry layer must be a pure observer.
//!
//! Three contracts, all required by the observability design (DESIGN.md
//! §8):
//!
//! 1. **Tracing never perturbs the simulation.** A run with the telemetry
//!    layer attached produces a byte-identical `Report::digest()` to the
//!    same run without it — no extra events, no changed packet paths.
//! 2. **Traces are as deterministic as reports.** The JSONL export of
//!    scenario *i* is byte-identical whether the sweep ran on 1, 2, or 8
//!    `ParallelRunner` workers.
//! 3. **What a trace holds is pinned.** One faulted run's whole JSONL
//!    export, with every event kind in it, hashes to a committed value.

use presto::simcore::SimDuration;
use presto::telemetry::{FlushReason, TelemetryConfig, TelemetryReport};
use presto::testbed::{
    stride_elephants, EventStreamHash, ParallelRunner, Scenario, ScenarioBuilder, SchemeSpec,
};

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

/// FNV-128 of a faulted testbed16 Presto run's JSONL export: the trace's
/// content, not just its equality across worker counts. Any change to
/// what is recorded, when, or in which order moves it.
const FAULTED_TRACE_FNV: &str = "4fd2838ae289e14f048bba59168212be";

#[test]
fn faulted_presto_trace_is_pinned() {
    use presto::simcore::SimTime;
    use presto::testbed::{FaultPlan, Fnv128, Notify};

    let cfg = TelemetryConfig {
        ring_capacity: 1 << 22,
        ..TelemetryConfig::default()
    };
    let (_, tel) = tiny(SchemeSpec::presto(), 11)
        .duration(SimDuration::from_millis(5))
        .warmup(SimDuration::from_millis(1))
        .faults(FaultPlan::new().link_down(
            SimTime::from_millis(2),
            0,
            1,
            0,
            Notify::After(SimDuration::from_millis(1)),
        ))
        .telemetry(cfg)
        .build()
        .run_traced();
    assert_eq!(tel.events_dropped, 0, "the ring must hold the whole run");
    let jsonl = tel.to_jsonl();
    for kind in [
        "PacketEnqueued",
        "PacketDropped",
        "GroHold",
        "GroFlush",
        "FlowcellEmitted",
        "Retransmit",
        "FaultApplied",
        "ControllerNotified",
        "LinkOccupancySample",
        "EventQueueSample",
    ] {
        assert!(
            jsonl.contains(&format!(r#""kind":"{kind}""#)),
            "faulted Presto run recorded no {kind} event"
        );
    }
    assert!(
        jsonl.contains(r#""type":"event_queue""#),
        "trace holds no event-queue profile row"
    );
    let mut h = Fnv128::new();
    h.update(jsonl.as_bytes());
    assert_eq!(h.finish_hex(), FAULTED_TRACE_FNV, "trace content changed");
}

/// The paper-grid headline point, presto/testbed16/stride:8 at seed 1
/// over 40 ms, built from a campaign as `lab run` and the benchmark's
/// `stride` workload build it.
fn headline() -> Scenario {
    let text = "[campaign]\nname = \"headline\"\nduration_ms = 40\nwarmup_ms = 10\n\
                [axes]\nscheme = [\"presto\"]\nworkload = [\"stride:8\"]\nseed = [1]\n";
    let points = presto_lab::Campaign::from_toml(text)
        .and_then(|c| c.expand())
        .expect("headline campaign expands");
    points[0].to_scenario()
}

/// The headline point's report digest, as `baselines/paper_grid.json`
/// and the benchmark's pins hold it.
const HEADLINE_DIGEST: u64 = 0x6a0e2d56a214c967;

/// Its dispatched event stream: every event's time, kind and target.
const HEADLINE_STREAM: u64 = 0x32840e3f9d19b07b;

#[test]
fn headline_event_stream_is_pinned_with_telemetry_on_and_off() {
    for telemetry in [false, true] {
        let mut sim = headline().build();
        if telemetry {
            sim.enable_telemetry(TelemetryConfig::default());
        }
        sim.attach(EventStreamHash::default());
        let digest = sim.run().digest();
        assert_eq!(digest, HEADLINE_DIGEST, "telemetry={telemetry}");
        let stream = sim.observer::<EventStreamHash>().expect("attached").value();
        assert_eq!(
            stream, HEADLINE_STREAM,
            "telemetry={telemetry}: event stream {stream:#018x} moved"
        );
    }
}

/// Without a telemetry config of its own, `run_traced` attaches the
/// default one before the scenario schedules anything, so the per-kind
/// profile counts the warm-up mark and the 16 elephants' starts too.
#[test]
fn run_traced_profiles_what_the_build_schedules() {
    let (report, tel) = headline().run_traced();
    assert_eq!(report.digest(), HEADLINE_DIGEST);
    let count = |name: &str| {
        tel.event_queue
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.count)
    };
    assert_eq!(count("FlowStart"), Some(16));
    assert_eq!(count("WarmupMark"), Some(1));
}
