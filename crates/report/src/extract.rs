//! Figure-input extraction: from the campaign store to [`Figure`]s.
//!
//! `lab report` never re-runs a simulation. Everything a figure needs is
//! already committed by `lab run`: the `table.json` rows (summaries in
//! grid order) and the per-point telemetry trace artifacts under
//! `traces/`. This module loads both and projects them into the typed
//! figure specs.
//!
//! Figures stay behavioral, identical across worker counts: extraction
//! never reads the machine-dependent row fields (`wall_ms`,
//! `events_per_sec`); the HTML report plots those separately, outside
//! the gated artifacts.

use std::collections::BTreeMap;
use std::path::Path;

use presto_lab::runner::sanitize_label;
use presto_lab::{read_table, Group, ResultsStore, Row, RowStatus};
use presto_metrics::MetricSummary;
use presto_telemetry::TelemetryReport;

use crate::spec::{
    CdfSeries, FailoverFigure, FctCdfFigure, Figure, GroSplitFigure, GroSplitPoint,
    ProbePoolFigure, ProbePoolRow, SprayHeatmapFigure, SprayRow,
};

/// A campaign's persisted outputs, loaded for rendering.
#[derive(Debug, Clone)]
pub struct CampaignData {
    /// Campaign name.
    pub campaign: String,
    /// Table rows in grid order (as written by `lab run`).
    pub rows: Vec<Row>,
    /// Telemetry traces of `[[trace]]`-flagged points, keyed by the
    /// point's label, in label order.
    pub traces: BTreeMap<String, TelemetryReport>,
}

/// The grid coordinates figures group by, parsed back out of a label
/// (`scheme/topo/workload/fault/cellNk/sN`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelParts {
    /// Scheme axis value.
    pub scheme: String,
    /// Topology axis value.
    pub topo: String,
    /// Workload axis value.
    pub workload: String,
    /// Fault axis value.
    pub fault: String,
}

impl LabelParts {
    /// Parse a label; `None` for labels not in grid form.
    pub fn parse(label: &str) -> Option<LabelParts> {
        let parts: Vec<&str> = label.split('/').collect();
        if parts.len() < 6 {
            return None;
        }
        Some(LabelParts {
            scheme: parts[0].to_string(),
            topo: parts[1].to_string(),
            workload: parts[2].to_string(),
            fault: parts[3].to_string(),
        })
    }
}

impl CampaignData {
    /// Load a campaign's table and trace artifacts from `store`. Fails
    /// when the table artifact is missing (the campaign was never run);
    /// missing or unreadable traces are not an error — the trace-backed
    /// figures are simply skipped.
    pub fn load(store: &ResultsStore, campaign: &str) -> Result<CampaignData, String> {
        let table = store.campaign_dir(campaign).join("table.json");
        if !table.exists() {
            return Err(format!(
                "{}: no table artifact — run `lab run` for campaign `{campaign}` first",
                table.display()
            ));
        }
        let rows = read_table(&table)?;
        let traces_dir = store.campaign_dir(campaign).join("traces");
        let traces = load_traces(&traces_dir, &rows);
        Ok(CampaignData {
            campaign: campaign.to_string(),
            rows,
            traces,
        })
    }

    /// Rows that completed, in grid order.
    pub fn ok_rows(&self) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.status == RowStatus::Ok)
            .collect()
    }

    /// Build every figure the campaign's data supports, in a fixed order:
    /// Fig 5 GRO split, Fig 9 CDF facets (mice FCT then elephant goodput,
    /// workloads in first-appearance order), Fig 17 failover timelines,
    /// then the spray heatmap. Figures whose inputs are absent (no
    /// traces, no mice, no faults) are skipped, not emitted empty.
    pub fn figures(&self) -> Vec<Figure> {
        let mut figures = Vec::new();

        // Fig 5: flush-reason split of every traced point.
        let gro_points: Vec<GroSplitPoint> = self
            .traces
            .iter()
            .filter(|(_, t)| t.flush_split().total() > 0)
            .map(|(label, t)| GroSplitPoint {
                label: label.clone(),
                split: t.flush_split(),
            })
            .collect();
        if !gro_points.is_empty() {
            figures.push(Figure::GroSplit(GroSplitFigure { points: gro_points }));
        }

        // Fig 9: per-workload facets over healthy rows.
        figures.extend(self.cdf_facets());

        // Fig 17: failover timeline per traced faulted point.
        for (label, trace) in &self.traces {
            if trace.failover_stages.is_empty() {
                continue;
            }
            figures.push(Figure::Failover(FailoverFigure {
                point: label.clone(),
                slug: sanitize_label(label),
                stages: trace.failover_stages.clone(),
            }));
        }

        // Spray heatmap over every traced point that sprayed.
        let spray_rows: Vec<SprayRow> = self
            .traces
            .iter()
            .filter(|(_, t)| !t.spray_shares().is_empty())
            .map(|(label, t)| SprayRow {
                label: label.clone(),
                shares: t.spray_shares(),
            })
            .collect();
        if !spray_rows.is_empty() {
            figures.push(Figure::SprayHeatmap(SprayHeatmapFigure {
                rows: spray_rows,
            }));
        }

        // Probe-pool composition over every probing row. Absent entirely
        // (not emitted empty) when no row opted into probing, so the
        // gated figure sets of existing campaigns are byte-identical.
        let probe_rows: Vec<ProbePoolRow> = self
            .ok_rows()
            .iter()
            .filter(|r| r.has(Group::Probe))
            .map(|r| ProbePoolRow {
                label: r.label.clone(),
                rounds: r.get("probe_rounds") as u64,
                samples: r.get("probe_samples") as u64,
                hot: r.get("probe_hot") as u64,
                cold: r.get("probe_cold") as u64,
            })
            .collect();
        if !probe_rows.is_empty() {
            figures.push(Figure::ProbePool(ProbePoolFigure { rows: probe_rows }));
        }

        figures
    }

    /// The Fig 9 facets: for every workload (first-appearance order over
    /// healthy fault-free rows), a mice-FCT CDF facet when any scheme
    /// recorded mice, and an elephant-goodput CDF facet when any scheme
    /// recorded elephants. The mice/elephant split follows DiffFlow's
    /// short/long-flow analysis.
    fn cdf_facets(&self) -> Vec<Figure> {
        let rows = self.ok_rows();
        let mut workloads: Vec<String> = Vec::new();
        let mut schemes: Vec<String> = Vec::new();
        for r in &rows {
            let Some(p) = LabelParts::parse(&r.label) else {
                continue;
            };
            if p.fault != "none" {
                continue;
            }
            if !workloads.contains(&p.workload) {
                workloads.push(p.workload.clone());
            }
            if !schemes.contains(&p.scheme) {
                schemes.push(p.scheme.clone());
            }
        }
        let mut figures = Vec::new();
        for workload in &workloads {
            let select = |scheme: &str| -> Vec<&&Row> {
                rows.iter()
                    .filter(|r| {
                        LabelParts::parse(&r.label).is_some_and(|p| {
                            p.fault == "none" && &p.workload == workload && p.scheme == scheme
                        })
                    })
                    .collect()
            };

            // Mice facet: average the persisted FCT quantile staircases
            // across seeds (every row has the same 5 quantiles).
            let mut mice_series = Vec::new();
            for scheme in &schemes {
                let staircases: Vec<Vec<(f64, f64)>> = select(scheme)
                    .iter()
                    .map(|r| fct_summary(r).quantile_points())
                    .filter(|p| !p.is_empty())
                    .collect();
                if let Some(points) = average_staircases(&staircases) {
                    mice_series.push(CdfSeries {
                        name: scheme.clone(),
                        // Plot value on x, quantile on y.
                        points: points.into_iter().map(|(q, v)| (v, q)).collect(),
                    });
                }
            }
            if !mice_series.is_empty() {
                figures.push(Figure::FctCdf(FctCdfFigure {
                    slug: format!("mice_{}", sanitize_label(workload)),
                    title: format!("Mice FCT CDF — {workload} (Fig 9, seed-averaged)"),
                    x_label: "flow completion time (ms)".into(),
                    series: mice_series,
                }));
            }

            // Elephant facet: empirical CDF of per-seed mean goodputs.
            let mut ele_series = Vec::new();
            for scheme in &schemes {
                let mut values: Vec<f64> = select(scheme)
                    .iter()
                    .map(|r| r.get("goodput_gbps"))
                    .filter(|&g| g > 0.0)
                    .collect();
                if values.is_empty() {
                    continue;
                }
                values.sort_by(|a, b| a.partial_cmp(b).expect("finite goodput"));
                let n = values.len() as f64;
                ele_series.push(CdfSeries {
                    name: scheme.clone(),
                    points: values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (v, (i + 1) as f64 / n))
                        .collect(),
                });
            }
            if !ele_series.is_empty() {
                figures.push(Figure::FctCdf(FctCdfFigure {
                    slug: format!("elephant_{}", sanitize_label(workload)),
                    title: format!("Elephant goodput CDF — {workload} (Fig 9, per seed)"),
                    x_label: "mean elephant goodput (Gbps)".into(),
                    series: ele_series,
                }));
            }
        }
        figures
    }
}

/// The row's mice-FCT summary, read back from its `fct_*` columns.
fn fct_summary(r: &Row) -> MetricSummary {
    let f = |stat: &str| r.get(&format!("fct_{stat}"));
    MetricSummary {
        count: f("count") as u64,
        mean: f("mean"),
        min: f("min"),
        p50: f("p50"),
        p90: f("p90"),
        p99: f("p99"),
        max: f("max"),
    }
}

/// Average aligned quantile staircases pointwise: all inputs carry the
/// same quantile grid (the persisted summary), so averaging the values
/// per quantile is well-defined. `None` when no staircase survives.
fn average_staircases(staircases: &[Vec<(f64, f64)>]) -> Option<Vec<(f64, f64)>> {
    let first = staircases.first()?;
    let mut out: Vec<(f64, f64)> = first.clone();
    for stairs in &staircases[1..] {
        debug_assert_eq!(stairs.len(), out.len(), "summary quantile grids agree");
        for (acc, &(q, v)) in out.iter_mut().zip(stairs) {
            debug_assert_eq!(acc.0, q);
            acc.1 += v;
        }
    }
    let n = staircases.len() as f64;
    for p in &mut out {
        p.1 /= n;
    }
    Some(out)
}

/// Read every trace artifact that belongs to a row of this campaign.
fn load_traces(dir: &Path, rows: &[Row]) -> BTreeMap<String, TelemetryReport> {
    let mut out = BTreeMap::new();
    for row in rows {
        let path = dir.join(format!("{}.jsonl", sanitize_label(&row.label)));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        out.insert(row.label.clone(), TelemetryReport::from_jsonl(&text));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, goodput: f64, fct: Option<MetricSummary>) -> Row {
        let mut r = Row::failed(label, &format!("fp-{label}"), "");
        r.status = RowStatus::Ok;
        r.digest = 1;
        let s = fct.unwrap_or_default();
        for (key, v) in [
            ("goodput_gbps", goodput),
            ("fairness", 1.0),
            ("fct_count", s.count as f64),
            ("fct_mean", s.mean),
            ("fct_min", s.min),
            ("fct_p50", s.p50),
            ("fct_p90", s.p90),
            ("fct_p99", s.p99),
            ("fct_max", s.max),
            ("events", 100.0),
            ("wall_ms", 5.0),
        ] {
            r.set(key, v);
        }
        r
    }

    #[test]
    fn label_parts_parse_grid_labels() {
        let p = LabelParts::parse("ecmp/testbed16/websearch:1/linkdown:20/cell64k/s2/cc:dctcp")
            .expect("parses");
        assert_eq!(p.scheme, "ecmp");
        assert_eq!(p.workload, "websearch:1");
        assert_eq!(p.fault, "linkdown:20");
        assert!(LabelParts::parse("free-form run label").is_none());
    }

    #[test]
    fn elephant_facet_builds_cdf_over_seeds() {
        let data = CampaignData {
            campaign: "t".into(),
            rows: vec![
                row("presto/testbed16/stride:8/none/cell64k/s1", 9.0, None),
                row("presto/testbed16/stride:8/none/cell64k/s2", 8.0, None),
                row("ecmp/testbed16/stride:8/none/cell64k/s1", 5.0, None),
                // Faulted rows must not leak into the healthy facet.
                row(
                    "presto/testbed16/stride:8/linkdown:20/cell64k/s1",
                    1.0,
                    None,
                ),
            ],
            traces: BTreeMap::new(),
        };
        let figs = data.figures();
        assert_eq!(figs.len(), 1, "one elephant facet, no mice/trace figures");
        let Figure::FctCdf(f) = &figs[0] else {
            panic!("expected cdf, got {figs:?}");
        };
        assert_eq!(f.slug, "elephant_stride-8");
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].name, "presto");
        assert_eq!(f.series[0].points, vec![(8.0, 0.5), (9.0, 1.0)]);
        assert_eq!(f.series[1].points, vec![(5.0, 1.0)]);
    }

    #[test]
    fn mice_facet_averages_seed_staircases() {
        let fct1 = MetricSummary {
            count: 10,
            mean: 1.0,
            min: 0.1,
            p50: 0.5,
            p90: 0.9,
            p99: 1.9,
            max: 2.0,
        };
        let fct2 = MetricSummary {
            count: 10,
            mean: 2.0,
            min: 0.3,
            p50: 1.5,
            p90: 1.9,
            p99: 2.1,
            max: 4.0,
        };
        let data = CampaignData {
            campaign: "t".into(),
            rows: vec![
                row(
                    "presto/testbed16/websearch:1/none/cell64k/s1",
                    5.0,
                    Some(fct1),
                ),
                row(
                    "presto/testbed16/websearch:1/none/cell64k/s2",
                    5.0,
                    Some(fct2),
                ),
            ],
            traces: BTreeMap::new(),
        };
        let figs = data.figures();
        let mice = figs
            .iter()
            .find_map(|f| match f {
                Figure::FctCdf(c) if c.slug.starts_with("mice_") => Some(c),
                _ => None,
            })
            .expect("mice facet present");
        // (value, quantile) with values averaged: min (0.1+0.3)/2 = 0.2.
        assert_eq!(mice.series[0].points[0], (0.2, 0.0));
        assert_eq!(mice.series[0].points[1], (1.0, 0.5));
    }

    #[test]
    fn probe_rows_build_the_pool_figure_only_when_present() {
        let plain = CampaignData {
            campaign: "t".into(),
            rows: vec![row("presto/testbed16/stride:8/none/cell64k/s1", 9.0, None)],
            traces: BTreeMap::new(),
        };
        assert!(
            !plain
                .figures()
                .iter()
                .any(|f| matches!(f, Figure::ProbePool(_))),
            "no probing rows, no probe figure"
        );

        let mut r = row(
            "prequal/testbed16/incast:8:64:1000:900/none/cell64k/s1",
            0.0,
            None,
        );
        r.set("probe_rounds", 10.0);
        r.set("probe_samples", 320.0);
        r.set("probe_hot", 80.0);
        r.set("probe_cold", 240.0);
        let data = CampaignData {
            campaign: "t".into(),
            rows: vec![r],
            traces: BTreeMap::new(),
        };
        let figs = data.figures();
        let pool = figs
            .iter()
            .find_map(|f| match f {
                Figure::ProbePool(p) => Some(p),
                _ => None,
            })
            .expect("probe figure present");
        assert_eq!(pool.rows.len(), 1);
        assert_eq!((pool.rows[0].hot, pool.rows[0].cold), (80, 240));
    }
}
