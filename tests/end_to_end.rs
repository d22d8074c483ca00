//! Cross-crate integration tests: full scheme comparisons through the
//! public API, checking the paper's headline claims hold in-simulator.

use presto::prelude::*;
use presto::workloads::FlowSpec;

fn short(scheme: SchemeSpec, seed: u64) -> ScenarioBuilder {
    Scenario::builder(scheme, seed)
        .duration(SimDuration::from_millis(50))
        .warmup(SimDuration::from_millis(15))
}

/// §1: "Presto's performance closely tracks that of a single,
/// non-blocking switch over many workloads."
#[test]
fn presto_tracks_optimal_on_stride() {
    let rp = short(SchemeSpec::presto(), 11)
        .elephants(stride_elephants(16, 8))
        .build()
        .run();

    let ro = short(SchemeSpec::optimal(), 11)
        .elephants(stride_elephants(16, 8))
        .build()
        .run();

    let (tp, to) = (rp.mean_elephant_tput(), ro.mean_elephant_tput());
    assert!(to > 9.0, "optimal should be near line rate: {to}");
    assert!(tp > 0.93 * to, "presto {tp} vs optimal {to}");
    assert!(rp.fairness() > 0.98, "presto fairness {}", rp.fairness());
}

/// §1/§6: Presto beats ECMP substantially on non-shuffle workloads.
#[test]
fn presto_beats_ecmp_on_stride() {
    let re = short(SchemeSpec::ecmp(), 12)
        .elephants(stride_elephants(16, 8))
        .build()
        .run();

    let rp = short(SchemeSpec::presto(), 12)
        .elephants(stride_elephants(16, 8))
        .build()
        .run();

    assert!(
        rp.mean_elephant_tput() > 1.2 * re.mean_elephant_tput(),
        "presto {} should beat ecmp {} by >20%",
        rp.mean_elephant_tput(),
        re.mean_elephant_tput()
    );
    assert!(rp.fairness() > re.fairness(), "fairness should improve too");
}

/// §5 (Fig 5): the stock GRO receiver under flowcell spraying pushes
/// MTU-scale segments and loses throughput; Presto's GRO masks it.
#[test]
fn stock_gro_suffers_small_segment_flooding() {
    let run = |scheme: SchemeSpec| {
        Scenario::builder(scheme, 13)
            .topology(ClosSpec {
                spines: 2,
                leaves: 2,
                hosts_per_leaf: 8,
                ..ClosSpec::default()
            })
            .duration(SimDuration::from_millis(50))
            .warmup(SimDuration::from_millis(15))
            .elephants(vec![
                FlowSpec::elephant(0, 8, SimTime::ZERO),
                FlowSpec::elephant(1, 9, SimTime::ZERO + SimDuration::from_micros(27)),
            ])
            .build()
            .run()
    };
    let presto = run(SchemeSpec::presto());
    let stock = run(SchemeSpec::from_token("presto-official-gro").unwrap());

    let presto_seg = presto.segment_bytes.clone().percentile(50.0).unwrap();
    let stock_seg = stock.segment_bytes.clone().percentile(50.0).unwrap();
    assert!(
        stock_seg <= 2.0 * 1460.0,
        "stock GRO should be pushing MTU-ish segments, got {stock_seg}"
    );
    assert!(
        presto_seg > 4.0 * stock_seg,
        "presto GRO segments ({presto_seg}) should dwarf stock ({stock_seg})"
    );
    assert!(
        presto.mean_elephant_tput() > stock.mean_elephant_tput() + 0.8,
        "presto {} vs stock {}",
        presto.mean_elephant_tput(),
        stock.mean_elephant_tput()
    );
    assert!(
        stock.tcp_ooo_segments > 10 * presto.tcp_ooo_segments.max(1),
        "TCP reordering exposure: stock {} vs presto {}",
        stock.tcp_ooo_segments,
        presto.tcp_ooo_segments
    );
}

/// §6 (Fig 16): mice tail FCT under Presto stays near Optimal while ECMP's
/// tail blows up.
#[test]
fn mice_tail_fct_improves_under_presto() {
    let run = |scheme: SchemeSpec| {
        Scenario::builder(scheme, 14)
            .duration(SimDuration::from_millis(90))
            .warmup(SimDuration::from_millis(20))
            .elephants(stride_elephants(16, 8))
            .mice(
                (0..16)
                    .map(|i| MiceSpec {
                        src: i,
                        dst: (i + 8) % 16,
                        bytes: 50_000,
                        interval: SimDuration::from_millis(3),
                    })
                    .collect(),
            )
            .build()
            .run()
    };
    let presto = run(SchemeSpec::presto());
    let ecmp = run(SchemeSpec::ecmp());
    assert!(
        presto.mice_fct_ms.len() > 50,
        "presto mice {}",
        presto.mice_fct_ms.len()
    );
    let p99_presto = presto.mice_fct_ms.clone().percentile(99.0).unwrap();
    let p99_ecmp = ecmp.mice_fct_ms.clone().percentile(99.0).unwrap();
    assert!(
        p99_presto < p99_ecmp,
        "presto p99 {p99_presto} should beat ecmp {p99_ecmp}"
    );
}

/// The simulator is deterministic: identical scenarios produce identical
/// reports (DESIGN.md §5).
#[test]
fn same_seed_same_result() {
    let run = || {
        short(SchemeSpec::presto(), 99)
            .elephants(stride_elephants(16, 8))
            .probes(vec![(0, 8), (1, 9)])
            .build()
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.elephant_tputs, b.elephant_tputs);
    assert_eq!(a.retransmissions, b.retransmissions);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.rtt_ms.values(), b.rtt_ms.values());
}

/// Reorder collection keeps the report digest repeatable: the per-flow
/// flowcell sequences are folded in flow order, not in the order of a
/// randomly seeded hash map, so back-to-back runs in one process agree.
#[test]
fn reorder_collection_digest_is_repeatable() {
    let run = || {
        Scenario::builder(SchemeSpec::presto(), 5)
            .duration(SimDuration::from_millis(20))
            .warmup(SimDuration::from_millis(5))
            .elephants(
                (0..4)
                    .map(|i| FlowSpec::elephant(i, 12 + i, SimTime::ZERO))
                    .collect(),
            )
            .collect_reorder(true)
            .build()
            .run()
    };
    let first = run();
    assert!(!first.ooo_cell_counts.is_empty(), "no reorder samples");
    for _ in 0..5 {
        assert_eq!(run().digest(), first.digest());
    }
}

/// MPTCP lands between ECMP and Presto on stride throughput (Figs 7, 15).
#[test]
fn mptcp_sits_between_ecmp_and_presto() {
    let run = |scheme: SchemeSpec| {
        short(scheme, 15)
            .elephants(stride_elephants(16, 8))
            .build()
            .run()
            .mean_elephant_tput()
    };
    let ecmp = run(SchemeSpec::ecmp());
    let mptcp = run(SchemeSpec::mptcp());
    let presto = run(SchemeSpec::presto());
    assert!(mptcp > ecmp, "mptcp {mptcp} vs ecmp {ecmp}");
    assert!(presto > mptcp * 0.95, "presto {presto} vs mptcp {mptcp}");
}

/// Flowlet switching with a small timer reorders and loses throughput
/// relative to Presto (Fig 13).
#[test]
fn flowlet_100us_reorders_and_underperforms() {
    let run = |scheme: SchemeSpec| {
        short(scheme, 16)
            .elephants(stride_elephants(16, 8))
            .build()
            .run()
    };
    let fl = run(SchemeSpec::flowlet(SimDuration::from_micros(100)));
    let presto = run(SchemeSpec::presto());
    // Normalize reordering exposure by delivered bytes: the flowlet
    // scheme's stock GRO leaks far more reordering to TCP per byte than
    // Presto's holding GRO does.
    let ooo_rate = |r: &Report| r.tcp_ooo_segments as f64 / r.mean_elephant_tput().max(0.1);
    assert!(
        ooo_rate(&fl) > 2.0 * ooo_rate(&presto),
        "flowlet-100us should reorder more per byte: {} vs {}",
        ooo_rate(&fl),
        ooo_rate(&presto)
    );
    assert!(
        fl.mean_elephant_tput() < 0.8 * presto.mean_elephant_tput(),
        "flowlet {} vs presto {}",
        fl.mean_elephant_tput(),
        presto.mean_elephant_tput()
    );
}
