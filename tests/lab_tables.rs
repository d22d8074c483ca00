//! The committed results tables against the lab's column table: every
//! baseline row decodes and re-encodes to its own bytes, and `lab diff`
//! catches a table in which a gated metric group stopped being measured.

use presto_lab::{diff_tables, Row};

const BASELINES: [&str; 4] = ["paper_grid", "bakeoff", "incast", "skew"];

fn baseline_text(name: &str) -> String {
    std::fs::read_to_string(format!("baselines/{name}.json")).expect("committed baseline")
}

/// `line` with the value of its `"key":value` field replaced, or the
/// field removed when `value` is `None` (keys are never first).
fn edit_field(line: &str, key: &str, value: Option<&str>) -> String {
    let tag = format!(",\"{key}\":");
    let Some(at) = line.find(&tag) else {
        return line.to_string();
    };
    let rest = &line[at + tag.len()..];
    let tail = &rest[rest.find([',', '}']).expect("flat JSON")..];
    match value {
        Some(v) => format!("{}{tag}{v}{tail}", &line[..at]),
        None => format!("{}{tail}", &line[..at]),
    }
}

/// Decode a table's lines, as `lab diff` reads them.
fn rows(lines: impl Iterator<Item = String>) -> Vec<Row> {
    lines
        .map(|l| Row::decode(&l).expect("row decodes"))
        .collect()
}

#[test]
fn committed_baseline_rows_round_trip_byte_identically() {
    let mut total = 0;
    for name in BASELINES {
        for line in baseline_text(name).lines() {
            let row = Row::decode(line).unwrap_or_else(|| panic!("{name}: {line}"));
            // paper_grid predates the derived events/s column, which every
            // re-encoded row now carries.
            let encoded = match name {
                "paper_grid" => edit_field(&row.encode(), "events_per_sec", None),
                _ => row.encode(),
            };
            assert_eq!(encoded, line, "{name}: {}", row.label);
            total += 1;
        }
    }
    assert_eq!(total, 122, "rows across the committed baselines");
}

/// The skew baseline, and a copy with `edit` applied to every line.
fn skew_and_edited(edit: impl Fn(&str) -> String) -> (Vec<Row>, Vec<Row>) {
    let text = baseline_text("skew");
    (
        rows(text.lines().map(String::from)),
        rows(text.lines().map(edit)),
    )
}

#[test]
fn diff_flags_a_skew_table_whose_deadline_fields_vanished() {
    let (base, cur) = skew_and_edited(|l| {
        edit_field(
            &edit_field(l, "deadline_total", None),
            "deadline_misses",
            None,
        )
    });
    let incast = base
        .iter()
        .filter(|r| r.get("deadline_total") > 0.0)
        .count();
    assert!(incast > 0, "skew tracks incast deadlines");
    let report = diff_tables(&base, &cur, false);
    assert_eq!(report.regressions.len(), incast, "{}", report.render());
    assert!(report
        .regressions
        .iter()
        .all(|r| r.contains("deadline_misses vanished")));
}

#[test]
fn diff_flags_a_skew_table_whose_mice_stopped_completing() {
    let (base, cur) = skew_and_edited(|l| edit_field(l, "fct_count", Some("0")));
    let with_mice = base.iter().filter(|r| r.get("fct_count") > 0.0).count();
    assert!(with_mice > 0, "skew measures mice");
    let report = diff_tables(&base, &cur, false);
    assert_eq!(report.regressions.len(), with_mice, "{}", report.render());
    assert!(report
        .regressions
        .iter()
        .all(|r| r.contains("fct_p99 vanished")));
}
