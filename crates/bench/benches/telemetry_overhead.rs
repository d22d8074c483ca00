//! Overhead of the telemetry layer on the simulator's end-to-end path.
//!
//! Three measurements on the same short testbed16 run:
//!
//! * `baseline` — no telemetry attached;
//! * `attached` — telemetry layer on (trace-event ring, counters,
//!   periodic sampler, queue profiler);
//! * the per-event cost of a `trace_event!` site with no sink attached.
//!
//! The observability contract (DESIGN.md §8): every build can record, and
//! with no telemetry attached — the default for every figure harness —
//! each instrumented site costs one live `Option` load-and-branch and
//! never builds its event (`trace_event_unattached_site_1k` times 1k such
//! sites). `attached` is the opt-in price: every site records into the
//! ring, plus the queue profiler (a classify call plus two counter adds
//! per scheduled event) and the periodic sampler. CI runs this as a smoke
//! check (it must build and complete), not as a threshold gate —
//! wall-clock thresholds on shared runners flake.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use presto_simcore::SimDuration;
use presto_telemetry::{trace_event, SharedSink, TelemetryConfig, TraceEvent};
use presto_testbed::{stride_elephants, Scenario, SchemeSpec};

fn tiny(telemetry: bool) -> Scenario {
    let mut b = Scenario::builder(SchemeSpec::presto(), 42)
        .duration(SimDuration::from_millis(4))
        .warmup(SimDuration::from_millis(1))
        .elephants(stride_elephants(16, 8));
    if telemetry {
        b = b.telemetry(TelemetryConfig::default());
    }
    b.build()
}

fn bench_run_overhead(c: &mut Criterion) {
    c.bench_function("telemetry_run_baseline", |b| {
        let sc = tiny(false);
        b.iter(|| black_box(sc.run().digest()))
    });
    c.bench_function("telemetry_run_attached", |b| {
        let sc = tiny(true);
        b.iter(|| black_box(sc.run().digest()))
    });
}

fn bench_noop_event(c: &mut Criterion) {
    // The cost of an instrumented site that is *not* wired to a sink —
    // what every fabric enqueue pays in a plain run. `black_box` keeps
    // the `Option` check live at every site instead of hoisted out of
    // the loop.
    c.bench_function("trace_event_unattached_site_1k", |b| {
        let sink: Option<SharedSink> = None;
        b.iter(|| {
            for i in 0..1000u64 {
                trace_event!(
                    black_box(&sink),
                    i,
                    TraceEvent::PacketEnqueued {
                        link: i as u32,
                        queue_bytes: i,
                    }
                );
            }
            black_box(&sink)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_run_overhead, bench_noop_event
);
criterion_main!(benches);
