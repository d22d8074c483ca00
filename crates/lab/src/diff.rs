//! Regression gating: compare two results tables column by column.
//!
//! `lab diff <baseline> <current>` reads two table artifacts (as written
//! by [`ResultsStore::write_table`](crate::ResultsStore::write_table)),
//! matches rows by grid-point label, and classifies every difference:
//!
//! * **regressions** — a gated column of the column table moving past its
//!   tolerance the wrong way; a gated group the baseline row has and the
//!   current row lacks (incast requests or mice that stopped
//!   completing); an `ok` point turning `failed`; a fingerprint mismatch
//!   (the configuration itself changed, so the baseline is stale); a
//!   point missing from the current table,
//! * **notes** — improvements beyond tolerance, newly added points, and
//!   digest changes at an unchanged fingerprint (expected whenever the
//!   simulator's behavior legitimately changed; `strict_digest` promotes
//!   them to regressions to pin bit-exact behavior).
//!
//! Any regression makes the CLI exit nonzero, which is how CI consumes
//! this: the committed baseline table is the contract, and loosening it
//! requires a deliberate re-baseline commit.

use crate::store::{Gate, Row, RowStatus, COLUMNS};

/// The outcome of a table comparison.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Failures: non-empty means the gate is closed (CLI exits nonzero).
    pub regressions: Vec<String>,
    /// Informational differences (improvements, additions, digest notes).
    pub notes: Vec<String>,
    /// Rows present in both tables.
    pub compared: usize,
}

impl DiffReport {
    /// True when no regression was found.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Render the human-readable verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            out.push_str("REGRESSION ");
            out.push_str(r);
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("note ");
            out.push_str(n);
            out.push('\n');
        }
        out.push_str(&format!(
            "{} row(s) compared, {} regression(s), {} note(s)\n",
            self.compared,
            self.regressions.len(),
            self.notes.len()
        ));
        out
    }
}

/// Compare `current` against `baseline` row-by-row (matched on label).
/// With `strict_digest`, a digest change at an unchanged fingerprint is a
/// regression instead of a note.
pub fn diff_tables(baseline: &[Row], current: &[Row], strict_digest: bool) -> DiffReport {
    let mut report = DiffReport::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|r| r.label == base.label) else {
            report
                .regressions
                .push(format!("{}: missing from current table", base.label));
            continue;
        };
        report.compared += 1;
        diff_row(base, cur, strict_digest, &mut report);
    }
    for cur in current {
        if !baseline.iter().any(|r| r.label == cur.label) {
            report
                .notes
                .push(format!("{}: new point (not in baseline)", cur.label));
        }
    }
    report
}

fn diff_row(base: &Row, cur: &Row, strict_digest: bool, report: &mut DiffReport) {
    let label = &base.label;
    if base.fp != cur.fp {
        report.regressions.push(format!(
            "{label}: configuration fingerprint changed ({} → {}); the baseline is stale — \
             re-baseline deliberately",
            base.fp, cur.fp
        ));
        return;
    }
    match (base.status, cur.status) {
        (RowStatus::Ok, RowStatus::Failed) => {
            report
                .regressions
                .push(format!("{label}: was ok, now failed ({})", cur.error));
            return;
        }
        (RowStatus::Failed, RowStatus::Ok) => {
            report.notes.push(format!("{label}: was failed, now ok"));
            return;
        }
        (RowStatus::Failed, RowStatus::Failed) => return,
        (RowStatus::Ok, RowStatus::Ok) => {}
    }
    if base.digest != cur.digest {
        let msg = format!(
            "{label}: digest changed at unchanged fingerprint \
             ({:016x} → {:016x})",
            base.digest, cur.digest
        );
        if strict_digest {
            report.regressions.push(msg);
        } else {
            report.notes.push(msg);
        }
    }
    for (i, col) in COLUMNS.iter().enumerate() {
        let Some(gate) = col.gate else { continue };
        let (key, mut b, mut c) = (col.key, base.value(i), cur.value(i));
        let (mut from, mut to) = (b.to_string(), c.to_string());
        if let Some(group) = col.group {
            let head = group.head();
            let (bn, cn) = (base.value(head), cur.value(head));
            if bn == 0.0 {
                continue; // the baseline never measured it
            }
            if cn == 0.0 {
                report.regressions.push(format!(
                    "{label}: {key} vanished ({} {bn} → 0)",
                    COLUMNS[head].key
                ));
                continue;
            }
            if let Gate::ShareRiseAbs(_) = gate {
                (from, to) = (format!("{from}/{bn}"), format!("{to}/{cn}"));
                (b, c) = (b / bn, c / cn);
            }
        }
        // How far the value moved the wrong way, and how to show it.
        let (worse, tol, scale, unit) = match gate {
            Gate::DropRel(_) | Gate::RiseRel(_) if b <= 0.0 => continue,
            Gate::DropRel(t) => ((b - c) / b, t, 100.0, " %"),
            Gate::RiseRel(t) => ((c - b) / b, t, 100.0, " %"),
            Gate::RiseAbs(t) => (c - b, t, 1.0, ""),
            Gate::ShareRiseAbs(t) => (c - b, t, 100.0, " pp"),
        };
        if worse > tol {
            report.regressions.push(format!(
                "{label}: {key} {from} → {to} (worse by {:.3}{unit} > {:.3}{unit} tolerance)",
                worse * scale,
                tol * scale
            ));
        } else if -worse > tol {
            report
                .notes
                .push(format!("{label}: {key} improved {from} → {to}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_row(label: &str) -> Row {
        let mut row = Row::failed(label, &format!("fp-{label}"), "");
        row.status = RowStatus::Ok;
        row.digest = 7;
        for (key, v) in [
            ("goodput_gbps", 9.0),
            ("fairness", 0.99),
            ("loss_rate", 0.001),
            ("fct_count", 100.0),
            ("fct_mean", 2.0),
            ("fct_min", 0.5),
            ("fct_p50", 1.8),
            ("fct_p90", 3.0),
            ("fct_p99", 4.0),
            ("fct_max", 6.0),
            ("retrans", 3.0),
            ("events", 1000.0),
            ("wall_ms", 100.0),
        ] {
            row.set(key, v);
        }
        row
    }

    #[test]
    fn deadline_miss_gate_fires_only_for_incast_rows() {
        let mut base = vec![ok_row("a")];
        let mut cur = vec![ok_row("a")];
        // Neither side tracked incast: fraction stays 0, gate silent.
        assert!(diff_tables(&base, &cur, false).passed());
        base[0].set("deadline_total", 100.0);
        base[0].set("deadline_misses", 5.0);
        cur[0].set("deadline_total", 100.0);
        cur[0].set("deadline_misses", 20.0); // +15 pp
        let report = diff_tables(&base, &cur, false);
        assert!(!report.passed());
        assert!(
            report.regressions[0].contains("deadline_misses 5/100 → 20/100"),
            "{report:?}"
        );
        // Within tolerance passes; a big drop is a note.
        cur[0].set("deadline_misses", 6.0);
        assert!(diff_tables(&base, &cur, false).passed());
        cur[0].set("deadline_misses", 0.0);
        let report = diff_tables(&base, &cur, false);
        assert!(report.passed());
        assert!(report.notes[0].contains("improved"), "{report:?}");
    }

    #[test]
    fn gated_groups_the_current_row_lost_are_regressions() {
        let mut base = vec![ok_row("a")];
        base[0].set("deadline_total", 100.0);
        base[0].set("deadline_misses", 5.0);
        // Every incast request stopped completing.
        let mut cur = vec![ok_row("a")];
        let report = diff_tables(&base, &cur, false);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        assert!(report.regressions[0].contains("deadline_misses vanished"));
        // Every mouse stopped completing.
        cur[0] = base[0].clone();
        cur[0].set("fct_count", 0.0);
        let report = diff_tables(&base, &cur, false);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        assert!(report.regressions[0].contains("fct_p99 vanished"));
        // A group only the current row has is not gated.
        assert!(diff_tables(&cur, &base, false).passed());
    }

    #[test]
    fn identical_tables_pass() {
        let rows = vec![ok_row("a"), ok_row("b")];
        let report = diff_tables(&rows, &rows, false);
        assert!(report.passed());
        assert_eq!(report.compared, 2);
        assert!(report.notes.is_empty());
    }

    #[test]
    fn goodput_drop_beyond_tolerance_fails() {
        let base = vec![ok_row("a")];
        let mut cur = vec![ok_row("a")];
        cur[0].set("goodput_gbps", 8.0); // ~11 % drop
        let report = diff_tables(&base, &cur, false);
        assert!(!report.passed());
        assert!(report.regressions[0].contains("goodput"), "{report:?}");
        // Within tolerance passes.
        cur[0].set("goodput_gbps", 8.8); // ~2 % drop
        assert!(diff_tables(&base, &cur, false).passed());
    }

    #[test]
    fn p99_fct_and_loss_gates_fire() {
        let base = vec![ok_row("a")];
        let mut cur = vec![ok_row("a")];
        cur[0].set("fct_p99", 5.0); // 25 % rise
        cur[0].set("loss_rate", 0.01); // +0.009 absolute
        let report = diff_tables(&base, &cur, false);
        assert_eq!(report.regressions.len(), 2, "{report:?}");
        assert!(report.regressions[0].contains("loss_rate"));
        assert!(report.regressions[1].contains("fct_p99"));
    }

    #[test]
    fn fingerprint_change_and_missing_rows_are_regressions() {
        let base = vec![ok_row("a"), ok_row("gone")];
        let mut cur = vec![ok_row("a"), ok_row("new")];
        cur[0].fp = "different".into();
        let report = diff_tables(&base, &cur, false);
        assert_eq!(report.regressions.len(), 2, "{report:?}");
        assert!(report.regressions[0].contains("fingerprint changed"));
        assert!(report.regressions[1].contains("missing from current"));
        assert!(report.notes.iter().any(|n| n.contains("new point")));
    }

    #[test]
    fn digest_change_is_a_note_unless_strict() {
        let base = vec![ok_row("a")];
        let mut cur = vec![ok_row("a")];
        cur[0].digest = 8;
        let report = diff_tables(&base, &cur, false);
        assert!(report.passed());
        assert!(report.notes[0].contains("digest changed"), "{report:?}");
        assert!(!diff_tables(&base, &cur, true).passed());
    }

    #[test]
    fn status_transitions_gate_correctly() {
        let base = vec![ok_row("a")];
        let mut cur = vec![ok_row("a")];
        cur[0].status = RowStatus::Failed;
        cur[0].error = "boom".into();
        let report = diff_tables(&base, &cur, false);
        assert!(report.regressions[0].contains("now failed"), "{report:?}");
        // The reverse direction is an improvement.
        let report = diff_tables(&cur, &base, false);
        assert!(report.passed());
        assert!(report.notes[0].contains("now ok"));
    }

    #[test]
    fn render_summarizes() {
        let base = vec![ok_row("a")];
        let mut cur = vec![ok_row("a")];
        cur[0].set("goodput_gbps", 1.0);
        let text = diff_tables(&base, &cur, false).render();
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("1 row(s) compared, 1 regression(s)"));
    }
}
