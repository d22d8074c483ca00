//! `write_report` — the one entry point `lab report` calls.
//!
//! Output layout, under the campaign's store directory by default:
//!
//! ```text
//! store/paper_grid/report/
//!   figures/<slug>.svg    byte-deterministic rendered figure
//!   figures/<slug>.txt    the figure's canonical text (the gated artifact)
//!   index.html            single-file report embedding everything
//!   viewer.html           single-file trace timeline (with --viewer)
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use presto_lab::runner::sanitize_label;
use presto_lab::{diff_tables, read_table, DiffReport, ResultsStore, Tolerances};

use crate::extract::CampaignData;
use crate::html::{render_report, ReportContext};
use crate::spec::Figure;
use crate::viewer::render_viewer;

/// What to generate and where.
#[derive(Default)]
pub struct ReportOptions {
    /// Output directory; defaults to `<campaign dir>/report`.
    pub out_dir: Option<PathBuf>,
    /// Baseline table to diff against, embedded as the verdict section.
    pub baseline: Option<PathBuf>,
    /// Also write `viewer.html`.
    pub viewer: bool,
}

/// Everything `write_report` produced, for the CLI to print.
pub struct ReportOutput {
    /// The output directory.
    pub dir: PathBuf,
    /// `(slug, svg path)` per figure, in render order.
    pub figures: Vec<(String, PathBuf)>,
    /// Path of `index.html`.
    pub index: PathBuf,
    /// Path of `viewer.html` when requested and traces existed.
    pub viewer: Option<PathBuf>,
    /// The baseline verdict, when a baseline was diffed.
    pub diff: Option<DiffReport>,
}

/// Render a campaign's figures, canonical texts, HTML report and
/// (optionally) trace viewer. Pure function of the committed store
/// contents: running it twice writes byte-identical files.
pub fn write_report(
    store: &ResultsStore,
    campaign: &str,
    opts: &ReportOptions,
) -> Result<ReportOutput, String> {
    let data = CampaignData::load(store, campaign)?;
    let dir = opts
        .out_dir
        .clone()
        .unwrap_or_else(|| store.campaign_dir(campaign).join("report"));
    let fig_dir = dir.join("figures");
    fs::create_dir_all(&fig_dir).map_err(|e| format!("create {}: {e}", fig_dir.display()))?;

    let figures: Vec<(Figure, String)> = data
        .figures()
        .into_iter()
        .map(|f| {
            let svg = f.render_svg();
            (f, svg)
        })
        .collect();
    let mut written = Vec::new();
    for (fig, svg) in &figures {
        let slug = fig.slug();
        let svg_path = fig_dir.join(format!("{slug}.svg"));
        write_file(&svg_path, svg)?;
        write_file(&fig_dir.join(format!("{slug}.txt")), &fig.canonical())?;
        written.push((slug, svg_path));
    }

    let diff = match &opts.baseline {
        None => None,
        Some(path) => {
            let baseline = read_table(path)?;
            Some(diff_tables(&baseline, &data.rows, &Tolerances::default()))
        }
    };

    let viewer = if opts.viewer && !data.traces.is_empty() {
        let raw = raw_traces(store, campaign, &data);
        let path = dir.join("viewer.html");
        write_file(&path, &render_viewer(&raw))?;
        Some(path)
    } else {
        None
    };

    let ctx = ReportContext {
        figures: &figures,
        diff: diff.as_ref().map(|d| (baseline_str(opts), d)),
        has_viewer: viewer.is_some(),
    };
    let index = dir.join("index.html");
    write_file(&index, &render_report(&data, &ctx))?;

    Ok(ReportOutput {
        dir,
        figures: written,
        index,
        viewer,
        diff,
    })
}

fn baseline_str(opts: &ReportOptions) -> &str {
    opts.baseline
        .as_ref()
        .and_then(|p| p.to_str())
        .unwrap_or("baseline")
}

/// Re-read the traced points' raw JSONL for embedding (the viewer embeds
/// the artifact bytes verbatim, not a re-serialization). Keyed by row
/// label like `CampaignData::traces`.
fn raw_traces(
    store: &ResultsStore,
    campaign: &str,
    data: &CampaignData,
) -> std::collections::BTreeMap<String, String> {
    let dir = store.campaign_dir(campaign).join("traces");
    let mut out = std::collections::BTreeMap::new();
    for row in &data.rows {
        let path = dir.join(format!("{}.jsonl", sanitize_label(&row.label)));
        if let Ok(text) = fs::read_to_string(&path) {
            out.insert(row.label.clone(), text);
        }
    }
    out
}

fn write_file(path: &Path, content: &str) -> Result<(), String> {
    fs::write(path, content).map_err(|e| format!("write {}: {e}", path.display()))
}
