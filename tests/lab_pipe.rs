//! The `lab` CLI under a reader that stops reading early, as
//! `lab ls | head` does: the output ends, the command exits with its own
//! status and says nothing on stderr.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use presto_lab::{ResultsStore, Row};

#[test]
fn lab_ls_exits_quietly_when_its_reader_closes_early() {
    let dir = std::env::temp_dir().join(format!("lab_pipe_{}", std::process::id()));
    let store = ResultsStore::open(&dir).expect("scratch store");
    // About 150 KB of listing: more than a pipe holds, so `lab` is still
    // writing when the reader goes, whenever that is.
    for i in 0..2_000 {
        let row = Row::failed(&format!("point/{i:05}"), &format!("{i:016x}"), "x");
        store.append("many", &row).expect("append a row");
    }
    let mut lab = Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(["ls", "many", "--store"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start lab");
    let mut first = String::new();
    BufReader::new(lab.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read one line");
    // The reader is dropped here: the pipe is closed.
    let out = lab.wait_with_output().expect("lab exits");
    std::fs::remove_dir_all(&dir).expect("remove the scratch store");
    assert!(first.starts_with("point/00000"), "first line: {first:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
    assert!(out.status.success(), "lab exited with {}", out.status);
}
