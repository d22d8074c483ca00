//! Figure determinism: the observability contract of `lab report`.
//!
//! Every `figures/*.svg` and `figures/*.txt` artifact must be a pure
//! function of the campaign's committed behavior — byte-identical across
//! worker counts and telemetry sampling configurations —
//! and each figure spec's canonical text is pinned against committed
//! goldens under `tests/goldens/` (regenerate with `UPDATE_GOLDENS=1`).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use presto::prelude::{SimDuration, TelemetryConfig};
use presto_lab::{Campaign, LabRunner, PointMatch, ResultsStore, RowStatus, RunOptions};
use presto_report::{write_report, CdfSeries, FctCdfFigure, Figure, ReportOptions};
use presto_telemetry::FailoverStage;

/// A small grid that exercises every figure: two schemes, an elephant
/// and a mice workload, a healthy and a faulted column, two seeds, with
/// every seed-1 point traced.
fn grid(name: &str) -> Campaign {
    let mut campaign = Campaign::new(name);
    campaign.duration = SimDuration::from_millis(12);
    campaign.warmup = SimDuration::from_millis(2);
    campaign.schemes = vec!["presto".parse().unwrap(), "ecmp".parse().unwrap()];
    campaign.workloads = vec!["stride:8".parse().unwrap(), "websearch:1".parse().unwrap()];
    campaign.faults = vec!["none".parse().unwrap(), "linkdown:5".parse().unwrap()];
    campaign.seeds = vec![1, 2];
    campaign.traces.push(PointMatch {
        seed: Some(1),
        ..PointMatch::default()
    });
    campaign
}

fn temp_store(tag: &str) -> (PathBuf, ResultsStore) {
    let dir = std::env::temp_dir().join(format!("presto-repfig-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = ResultsStore::open(&dir).unwrap();
    (dir, store)
}

/// Run `campaign` with `workers`, render its report, and return every
/// figure artifact as `(file name, bytes)` plus the emitted slugs.
fn run_and_render(
    campaign: &Campaign,
    workers: usize,
    tag: &str,
) -> (PathBuf, BTreeMap<String, Vec<u8>>, Vec<String>) {
    let (dir, store) = temp_store(tag);
    let outcome = LabRunner::new(
        &store,
        RunOptions {
            workers,
            write_traces: true,
            ..RunOptions::default()
        },
    )
    .run(campaign)
    .unwrap();
    assert!(
        outcome.rows.iter().all(|r| r.status == RowStatus::Ok),
        "{tag}: all grid points complete"
    );
    let out = write_report(&store, &campaign.name, &ReportOptions::default()).unwrap();
    let mut artifacts = BTreeMap::new();
    for entry in fs::read_dir(out.dir.join("figures")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        artifacts.insert(name, fs::read(&path).unwrap());
    }
    let slugs = out.figures.iter().map(|(s, _)| s.clone()).collect();
    (dir, artifacts, slugs)
}

/// Tentpole contract: figure SVGs and canonical texts are byte-identical
/// at 1, 2 and 8 workers, and the campaign actually produces the paper's
/// figure set (Fig 5 split, Fig 9 facets, Fig 17 timelines, heatmap).
#[test]
fn figures_are_byte_identical_across_worker_counts() {
    let campaign = grid("repfig-workers");
    let (ref_dir, reference, slugs) = run_and_render(&campaign, 1, "w1");

    // The grid must light up every figure family — a skipped figure
    // would make the byte-comparison below vacuous.
    assert!(slugs.contains(&"fig5_gro_split".to_string()), "{slugs:?}");
    assert!(
        slugs.iter().any(|s| s.starts_with("fig9_cdf_mice_")),
        "mice facet from the websearch rows: {slugs:?}"
    );
    assert!(
        slugs.iter().any(|s| s.starts_with("fig9_cdf_elephant_")),
        "elephant facet from the stride rows: {slugs:?}"
    );
    assert!(
        slugs.iter().any(|s| s.starts_with("fig17_failover_")),
        "failover timeline from the linkdown traces: {slugs:?}"
    );
    assert!(slugs.contains(&"spray_heatmap".to_string()), "{slugs:?}");
    // Every figure writes both projections.
    for slug in &slugs {
        assert!(reference.contains_key(&format!("{slug}.svg")));
        assert!(reference.contains_key(&format!("{slug}.txt")));
    }

    for workers in [2usize, 8] {
        let (dir, artifacts, _) = run_and_render(&campaign, workers, &format!("w{workers}"));
        assert_eq!(
            artifacts.keys().collect::<Vec<_>>(),
            reference.keys().collect::<Vec<_>>(),
            "workers={workers}: same artifact set"
        );
        for (name, bytes) in &artifacts {
            assert_eq!(
                bytes, &reference[name],
                "workers={workers}: {name} must be byte-identical"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

/// Telemetry sampling configuration (ring capacity, sampler period) only
/// affects the event ring — never the counters figures are built from.
/// The same traced scenario under three sampling grids must yield
/// byte-identical figure canonicals and SVGs.
#[test]
fn figures_are_invariant_to_telemetry_sampling() {
    let campaign = grid("repfig-sampling");
    let point = campaign
        .expand()
        .unwrap()
        .into_iter()
        .find(|p| p.label().starts_with("presto/") && p.label().contains("linkdown"))
        .expect("a traced faulted point");

    let configs = [
        TelemetryConfig::default(),
        TelemetryConfig {
            ring_capacity: 1 << 8,
            sample_every: SimDuration::from_micros(10),
        },
        TelemetryConfig {
            ring_capacity: 1 << 18,
            sample_every: SimDuration::from_millis(1),
        },
    ];
    let mut rendered: Vec<(String, String, String, String)> = Vec::new();
    for cfg in configs {
        // Rebuild the scenario with the sampling config attached; the
        // JSONL round-trip mirrors what `lab report` reads from disk.
        let (_, tel) = point.to_scenario_with(|b| b.telemetry(cfg)).run_traced();
        let tel = presto_telemetry::TelemetryReport::from_jsonl(&tel.to_jsonl());
        let gro = Figure::GroSplit(presto_report::GroSplitFigure {
            points: vec![presto_report::GroSplitPoint {
                label: point.label(),
                split: tel.flush_split(),
            }],
        });
        let fail = Figure::Failover(presto_report::FailoverFigure {
            point: point.label(),
            slug: "sampling".into(),
            stages: tel.failover_stages.clone(),
        });
        assert!(
            !tel.failover_stages.is_empty(),
            "faulted traced run records its failover stages"
        );
        rendered.push((
            gro.canonical(),
            gro.render_svg(),
            fail.canonical(),
            fail.render_svg(),
        ));
    }
    for other in &rendered[1..] {
        assert_eq!(
            other, &rendered[0],
            "sampling config leaked into figure artifacts"
        );
    }
}

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

/// Compare `content` against the committed golden, or bless it when
/// `UPDATE_GOLDENS=1`.
fn check_golden(name: &str, content: &str) {
    let path = goldens_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some_and(|v| v == "1") {
        fs::create_dir_all(goldens_dir()).unwrap();
        fs::write(&path, content).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} — bless with UPDATE_GOLDENS=1", path.display()));
    assert_eq!(
        golden, content,
        "{name} drifted from its committed golden; if intended, re-bless with UPDATE_GOLDENS=1"
    );
}

/// Hand-authored figure specs — fixed data, so their canonical text (the
/// regression-gated artifact format) and rendered SVG are pinned
/// byte-for-byte against committed goldens.
#[test]
fn figure_canonical_texts_match_committed_goldens() {
    let gro = Figure::GroSplit(presto_report::GroSplitFigure {
        points: vec![
            presto_report::GroSplitPoint {
                label: "presto/testbed16/stride:8/none/cell64k/s1".into(),
                split: presto_telemetry::FlushSplit {
                    loss: 4,
                    reordering: 129,
                    other: 833,
                },
            },
            presto_report::GroSplitPoint {
                label: "ecmp/testbed16/stride:8/none/cell64k/s1".into(),
                split: presto_telemetry::FlushSplit {
                    loss: 61,
                    reordering: 0,
                    other: 905,
                },
            },
        ],
    });
    let cdf = Figure::FctCdf(FctCdfFigure {
        slug: "mice_websearch-1".into(),
        title: "Mice FCT CDF — websearch:1 (Fig 9, seed-averaged)".into(),
        x_label: "flow completion time (ms)".into(),
        series: vec![
            CdfSeries {
                name: "presto".into(),
                points: vec![
                    (0.041, 0.0),
                    (0.38, 0.5),
                    (1.25, 0.9),
                    (2.5, 0.99),
                    (3.0, 1.0),
                ],
            },
            CdfSeries {
                name: "ecmp".into(),
                points: vec![
                    (0.041, 0.0),
                    (0.51, 0.5),
                    (2.5, 0.9),
                    (7.75, 0.99),
                    (9.0, 1.0),
                ],
            },
        ],
    });
    let fail = Figure::Failover(presto_report::FailoverFigure {
        point: "presto/testbed16/stride:8/linkdown:5/cell64k/s1".into(),
        slug: "presto_testbed16_stride-8_linkdown-5_cell64k_s1".into(),
        stages: vec![
            FailoverStage {
                name: "pre-failure".into(),
                start_ns: 0,
                end_ns: 5_000_000,
                goodput_gbps: 9.1,
                loss_rate: 0.0,
                drops: 0,
                tx_packets: 5000,
            },
            FailoverStage {
                name: "detection".into(),
                start_ns: 5_000_000,
                end_ns: 5_800_000,
                goodput_gbps: 4.2,
                loss_rate: 0.031,
                drops: 140,
                tx_packets: 2100,
            },
            FailoverStage {
                name: "reroute".into(),
                start_ns: 5_800_000,
                end_ns: 6_400_000,
                goodput_gbps: 7.0,
                loss_rate: 0.004,
                drops: 11,
                tx_packets: 2600,
            },
            FailoverStage {
                name: "recovered".into(),
                start_ns: 6_400_000,
                end_ns: 12_000_000,
                goodput_gbps: 8.9,
                loss_rate: 0.0,
                drops: 0,
                tx_packets: 5400,
            },
        ],
    });
    let spray = Figure::SprayHeatmap(presto_report::SprayHeatmapFigure {
        rows: vec![
            presto_report::SprayRow {
                label: "presto/testbed16/stride:8/none/cell64k/s1".into(),
                shares: vec![0.2493, 0.2507, 0.2502, 0.2498],
            },
            presto_report::SprayRow {
                label: "presto/testbed16/stride:8/linkdown:5/cell64k/s1".into(),
                shares: vec![0.331, 0.338, 0.0, 0.331],
            },
        ],
    });

    for fig in [&gro, &cdf, &fail, &spray] {
        check_golden(&format!("{}.txt", fig.slug()), &fig.canonical());
        check_golden(&format!("{}.svg", fig.slug()), &fig.render_svg());
    }
}
