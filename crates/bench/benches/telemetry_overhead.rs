//! Overhead of the telemetry observer on the simulator's end-to-end path.
//!
//! Two measurements on the same short testbed16 run:
//!
//! * `baseline` — no observer attached;
//! * `attached` — the telemetry observer on (trace-event ring, per-kind
//!   event profile, periodic sampler).
//!
//! The observability contract (DESIGN.md §8): a run is watched only
//! through the observer seam on `Simulation`. With nothing attached — the
//! default for every figure harness — each hook site (a push, a dispatch,
//! a fabric or edge record) costs one branch and never builds its event,
//! so `baseline` is the plain simulator. `attached` is the opt-in price:
//! every scheduled event feeds the profile, every dispatch checks the
//! sampling grid, and every record lands in the ring. CI runs this as a
//! smoke check (it must build and complete), not as a threshold gate —
//! wall-clock thresholds on shared runners flake.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use presto_simcore::SimDuration;
use presto_telemetry::TelemetryConfig;
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

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_run_overhead
);
criterion_main!(benches);
