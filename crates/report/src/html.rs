//! The single-file HTML report.
//!
//! One self-contained document: every figure's SVG is inlined (no
//! external references, no scripts, no fonts), followed by campaign
//! metadata, the diff-vs-baseline verdict and the per-point engine
//! throughput trend. The document is safe to attach to CI artifacts or
//! mail around — it renders identically from a `file://` open.
//!
//! Only the figures themselves are regression-gated; the report adds
//! machine-dependent context (wall time, events/s) that deliberately
//! stays **outside** the gated canonical texts.

use std::fmt::Write as _;

use presto_lab::{DiffReport, Group, Row, RowStatus};

use crate::extract::CampaignData;
use crate::spec::Figure;
use crate::svg::{xml_escape, Series, SeriesKind, XyChart};

/// Everything `render_report` embeds besides the campaign data itself.
pub struct ReportContext<'a> {
    /// The figures, in render order, paired with their rendered SVG.
    pub figures: &'a [(Figure, String)],
    /// Baseline verdict, when a baseline table was given:
    /// `(baseline path, diff)`.
    pub diff: Option<(&'a str, &'a DiffReport)>,
    /// Whether a `viewer.html` sibling was written (adds a link).
    pub has_viewer: bool,
}

/// Render the complete single-file HTML report.
pub fn render_report(data: &CampaignData, ctx: &ReportContext<'_>) -> String {
    let mut out = String::with_capacity(64 * 1024);
    let title = format!("Presto campaign report — {}", data.campaign);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>{}</title>", xml_escape(&title));
    out.push_str("<style>\n");
    out.push_str(CSS);
    out.push_str("</style>\n</head>\n<body>\n");
    let _ = writeln!(out, "<h1>{}</h1>", xml_escape(&title));

    metadata_section(&mut out, data, ctx);
    diff_section(&mut out, data, ctx);

    out.push_str("<h2>Figures</h2>\n");
    if ctx.figures.is_empty() {
        out.push_str("<p>No figure inputs in this campaign (no completed rows or traces).</p>\n");
    }
    for (fig, svg) in ctx.figures {
        let _ = writeln!(
            out,
            "<figure>\n{svg}<figcaption><code>figures/{slug}.svg</code> — {t} \
             (canonical text: <code>figures/{slug}.txt</code>)</figcaption>\n</figure>",
            slug = fig.slug(),
            t = xml_escape(&fig.title()),
        );
    }

    trend_section(&mut out, data);
    table_section(&mut out, data);

    out.push_str("</body>\n</html>\n");
    out
}

fn metadata_section(out: &mut String, data: &CampaignData, ctx: &ReportContext<'_>) {
    let ok = data
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Ok)
        .count();
    let failed = data.rows.len() - ok;
    out.push_str("<h2>Campaign</h2>\n<ul>\n");
    let _ = writeln!(
        out,
        "<li>{} grid point(s): {ok} ok, {failed} failed</li>",
        data.rows.len()
    );
    let _ = writeln!(
        out,
        "<li>{} traced point(s): {}</li>",
        data.traces.len(),
        if data.traces.is_empty() {
            "none".to_string()
        } else {
            data.traces
                .keys()
                .map(|k| format!("<code>{}</code>", xml_escape(k)))
                .collect::<Vec<_>>()
                .join(", ")
        }
    );
    if ctx.has_viewer {
        out.push_str("<li>Trace timeline: <a href=\"viewer.html\">viewer.html</a></li>\n");
    }
    out.push_str("</ul>\n");
}

fn diff_section(out: &mut String, data: &CampaignData, ctx: &ReportContext<'_>) {
    out.push_str("<h2>Baseline</h2>\n");
    match ctx.diff {
        None => {
            out.push_str("<p>No baseline given (<code>--baseline FILE</code>).</p>\n");
        }
        Some((path, diff)) => {
            let (class, verdict) = if diff.passed() {
                ("pass", "PASS")
            } else {
                ("fail", "FAIL")
            };
            let _ = writeln!(
                out,
                "<p><span class=\"badge {class}\">{verdict}</span> vs <code>{}</code></p>",
                xml_escape(path)
            );
            let _ = writeln!(out, "<pre>{}</pre>", xml_escape(&diff.render()));
        }
    }
    deadline_verdict(out, data);
}

/// Deadline counters gate `lab diff` (a miss-count regression fails the
/// baseline) but historically never rendered in the report — surface
/// them next to the verdict for every row that tracked deadlines.
fn deadline_verdict(out: &mut String, data: &CampaignData) {
    let rows: Vec<&Row> = data
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Ok && r.has(Group::Deadline))
        .collect();
    if rows.is_empty() {
        return;
    }
    out.push_str("<h3>Deadlines</h3>\n<table>\n<tr>");
    for h in ["label", "deadline misses", "deadline total", "miss rate"] {
        let _ = write!(out, "<th>{h}</th>");
    }
    out.push_str("</tr>\n");
    for r in rows {
        let (misses, total) = (r.get("deadline_misses"), r.get("deadline_total"));
        let class = if misses == 0.0 { "pass" } else { "fail" };
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td class=\"{class}\">{}</td><td>{}</td><td>{:.1}%</td></tr>",
            xml_escape(&r.label),
            misses,
            total,
            misses / total * 100.0,
        );
    }
    out.push_str("</table>\n");
}

/// Engine-throughput trend over the grid, in grid order. Explicitly
/// machine-dependent: this chart exists for eyeballing performance, and
/// is not among the gated artifacts.
fn trend_section(out: &mut String, data: &CampaignData) {
    let points: Vec<(f64, f64)> = data
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Ok && r.events_per_sec() > 0.0)
        .enumerate()
        .map(|(i, r)| (i as f64, r.events_per_sec() / 1e6))
        .collect();
    if points.is_empty() {
        return;
    }
    out.push_str("<h2>Engine throughput</h2>\n");
    let chart = XyChart {
        title: "Events per second across the grid (machine-dependent)".into(),
        x_label: "grid point (table order)".into(),
        y_label: "Mevents/s".into(),
        series: vec![Series {
            name: "events/s".into(),
            points,
            kind: SeriesKind::Line,
        }],
        spans: Vec::new(),
        y_from_zero: true,
    };
    out.push_str(&chart.render());
    out.push_str(
        "<p>Wall-clock throughput per grid point, table order. Not regression-gated — \
         compare only across runs on the same machine.</p>\n",
    );
}

fn table_section(out: &mut String, data: &CampaignData) {
    out.push_str("<h2>Results table</h2>\n<table>\n<tr>");
    for h in [
        "label",
        "status",
        "goodput (Gbps)",
        "fairness",
        "loss",
        "p50 FCT (ms)",
        "p99 FCT (ms)",
        "retrans",
        "events/s",
    ] {
        let _ = write!(out, "<th>{h}</th>");
    }
    out.push_str("</tr>\n");
    for r in &data.rows {
        out.push_str("<tr>");
        let _ = write!(out, "<td><code>{}</code></td>", xml_escape(&r.label));
        match r.status {
            RowStatus::Ok => out.push_str("<td class=\"pass\">ok</td>"),
            RowStatus::Failed => {
                let _ = write!(
                    out,
                    "<td class=\"fail\" title=\"{}\">failed</td>",
                    xml_escape(&r.error)
                );
            }
        }
        for v in [
            format!("{:.3}", r.get("goodput_gbps")),
            format!("{:.3}", r.get("fairness")),
            format!("{:.5}", r.get("loss_rate")),
            fct_cell(r, "fct_p50"),
            fct_cell(r, "fct_p99"),
            r.get("retrans").to_string(),
            format!("{:.2}M", r.events_per_sec() / 1e6),
        ] {
            let _ = write!(out, "<td>{v}</td>");
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
}

fn fct_cell(r: &Row, key: &str) -> String {
    if r.has(Group::Fct) {
        format!("{:.3}", r.get(key))
    } else {
        "—".into()
    }
}

const CSS: &str = "\
body{font-family:sans-serif;max-width:960px;margin:24px auto;padding:0 16px;color:#222}
h1{font-size:22px}h2{font-size:17px;border-bottom:1px solid #ddd;padding-bottom:4px;margin-top:32px}
figure{margin:16px 0}figcaption{font-size:12px;color:#666;margin-top:4px}
table{border-collapse:collapse;font-size:12px}
th,td{border:1px solid #ddd;padding:3px 7px;text-align:right}
td:first-child,th:first-child{text-align:left}
code{background:#f4f4f4;padding:1px 3px;border-radius:3px}
pre{background:#f8f8f8;border:1px solid #ddd;padding:8px;font-size:12px;overflow-x:auto}
.badge{padding:2px 9px;border-radius:4px;color:#fff;font-weight:bold;font-size:12px}
.badge.pass{background:#3d9142}.badge.fail{background:#c0392b}
td.pass{color:#3d9142}td.fail{color:#c0392b}
svg{max-width:100%;height:auto}
";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_data() -> CampaignData {
        CampaignData {
            campaign: "demo".into(),
            rows: Vec::new(),
            traces: BTreeMap::new(),
        }
    }

    #[test]
    fn report_is_single_file_html() {
        let data = sample_data();
        let html = render_report(
            &data,
            &ReportContext {
                figures: &[],
                diff: None,
                has_viewer: false,
            },
        );
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert!(
            !html.contains("src=") && !html.contains("href=\"http"),
            "no external references"
        );
        assert!(html.contains("No baseline given"));
    }

    #[test]
    fn deadline_counters_render_next_to_the_verdict() {
        let mut data = sample_data();
        let report = presto_testbed::Report {
            elephant_tputs: vec![1.0],
            events_processed: 100,
            incast_requests: 40,
            incast_deadline_misses: 3,
            ..Default::default()
        };
        let mut row = Row::from_report(
            "prequal/testbed16/incast:8:64:1000:900/none/cell64k/s1",
            "fp",
            &report,
            5.0,
        );
        data.rows.push(row.clone());
        let html = render_report(
            &data,
            &ReportContext {
                figures: &[],
                diff: None,
                has_viewer: false,
            },
        );
        assert!(html.contains("<h3>Deadlines</h3>"));
        assert!(html.contains("deadline misses"));
        assert!(html.contains("<td class=\"fail\">3</td><td>40</td><td>7.5%</td>"));

        // Rows that never tracked deadlines keep the section out entirely.
        row.set("deadline_total", 0.0);
        row.set("deadline_misses", 0.0);
        data.rows = vec![row];
        let html = render_report(
            &data,
            &ReportContext {
                figures: &[],
                diff: None,
                has_viewer: false,
            },
        );
        assert!(!html.contains("<h3>Deadlines</h3>"));
    }

    #[test]
    fn diff_verdict_is_badged() {
        let data = sample_data();
        let mut diff = DiffReport::default();
        diff.regressions.push("a: goodput fell".into());
        let html = render_report(
            &data,
            &ReportContext {
                figures: &[],
                diff: Some(("baselines/paper_grid.json", &diff)),
                has_viewer: true,
            },
        );
        assert!(html.contains("badge fail"));
        assert!(html.contains("goodput fell"));
        assert!(html.contains("viewer.html"));
    }
}
