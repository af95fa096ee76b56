//! The CLI's results go through one buffered stdout that a closing
//! reader cannot make panic: `tdmatch match … | head -2`, and `query`
//! and `info` with a closed stdout, exit 0 with nothing on stderr, and
//! `run` still saves its artifact when nobody reads its metrics line.

mod common;

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use common::SplitMix;
use tdmatch::core::artifact::MatchArtifact;

/// Exit status of a command whose reader closed stdout early.
const CLOSED_STDOUT_STATUS: i32 = 0;

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tdmatch-closed-stdout-{}-{name}", std::process::id()))
}

/// Ends `child` and checks it ended quietly with the stated status.
fn assert_quiet_end(child: std::process::Child, what: &str) {
    let out = child.wait_with_output().expect("wait for tdmatch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert_eq!(out.status.code(), Some(CLOSED_STDOUT_STATUS), "{what}: {stderr}");
}

/// `match` over 2,000 queries at k = 64 writes about a megabyte, far
/// more than a pipe holds, so the reader's close lands while the
/// command is still writing. `query` and `info` find their stdout
/// closed before their first line.
#[test]
fn match_ends_quietly_when_its_reader_closes_after_one_line() {
    let (dim, targets, queries) = (8, 64, 2_000);
    let mut rng = SplitMix(11);
    let terms = vec![("alpha".to_string(), vec![1.0; dim])];
    let first = rng.clustered(targets, dim);
    let second = rng.clustered(queries, dim);
    let path = scratch("match.tdz");
    MatchArtifact::new(dim, terms, first, second).save(&path).expect("save artifact");

    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_tdmatch"))
            .args(["match", "--k", "64", "--artifact"])
            .arg(&path)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run tdmatch match")
    };
    let mut child = spawn();
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the first line");
    assert!(line.starts_with("query 0 "), "{line}");
    drop(reader);
    assert_quiet_end(child, "closed after one line");

    let mut child = spawn();
    drop(child.stdout.take());
    assert_quiet_end(child, "closed before the first line");

    for args in [&["query", "--text", "alpha", "--k", "64"][..], &["info"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tdmatch"))
            .args(args)
            .arg("--artifact")
            .arg(&path)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run tdmatch");
        drop(child.stdout.take());
        assert_quiet_end(child, args[0]);
    }
    std::fs::remove_file(&path).ok();
}

/// A closed stdout stops the printing, not the command: `run` still
/// writes the artifact `--save` names.
#[test]
fn run_still_saves_when_nobody_reads_its_metrics() {
    let path = scratch("run.tdz");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tdmatch"))
        .args(["run", "--scenario", "imdb-wt", "--scale", "tiny", "--save"])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run tdmatch run");
    drop(child.stdout.take());
    assert_quiet_end(child, "run");
    assert!(MatchArtifact::load(&path).is_ok(), "run did not save {}", path.display());
    std::fs::remove_file(&path).ok();
}
