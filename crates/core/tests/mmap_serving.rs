//! Cross-process serving tests: two reader processes map the same
//! artifact file and both serve correct top-k rankings from it; a
//! corrupt section no loader reads still fails the load; and a reader
//! whose file is truncated in place dies of `SIGBUS`.
//!
//! The test re-executes its own binary (filtered to this test with
//! `--exact`) with `TDMATCH_SERVING_CHILD_PATH` set; in child mode the
//! test body opens the artifact, matches, and prints a deterministic
//! digest of the rankings that the parent compares against its own.

use std::process::{Command, Stdio};

use tdmatch_core::artifact::{MatchArtifact, PersistError};
use tdmatch_core::matcher::MatchResult;
use tdmatch_core::serving::Matcher;
use tdmatch_graph::container::{Container, ContainerWriter, Storage};
use tdmatch_graph::DecodeError;

const CHILD_ENV: &str = "TDMATCH_SERVING_CHILD_PATH";

/// Bit-exact digest of a ranking set: same artifact + same binary must
/// produce the same digest in every process.
fn digest(results: &[MatchResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!("q{}[", r.query));
        for (idx, score) in &r.ranked {
            out.push_str(&format!("{}:{:08x};", idx, score.to_bits()));
        }
        out.push(']');
    }
    out
}

fn sample_artifact() -> MatchArtifact {
    MatchArtifact::new(
        3,
        vec![
            ("tarantino".into(), vec![1.0, 0.0, 0.0]),
            ("thriller".into(), vec![0.0, 1.0, 0.0]),
        ],
        vec![
            Some(vec![1.0, 0.0, 0.0]),
            Some(vec![0.0, 1.0, 0.0]),
            Some(vec![0.0, 0.0, 1.0]),
            None,
            Some(vec![0.7, 0.7, 0.1]),
        ],
        vec![
            Some(vec![0.9, 0.1, 0.0]),
            Some(vec![0.1, 0.2, 0.9]),
            Some(vec![0.6, 0.6, 0.0]),
        ],
    )
}

fn child_main(path: &str) {
    let storage = Storage::open(path).expect("child: open artifact storage");
    let artifact = MatchArtifact::from_storage(&storage).expect("child: load artifact");
    let results = artifact.match_top_k(3);
    println!(
        "CHILD mapped={} digest={}",
        storage.is_mapped(),
        digest(&results)
    );
}

#[test]
fn two_processes_serve_one_mapped_snapshot() {
    // Child mode: serve from the file the parent points us at.
    if let Ok(path) = std::env::var(CHILD_ENV) {
        child_main(&path);
        return;
    }

    let artifact = sample_artifact();
    let path = std::env::temp_dir().join(format!(
        "tdmatch-serving-smoke-{}.tdm",
        std::process::id()
    ));
    artifact.save(&path).unwrap();
    let expected = digest(&artifact.match_top_k(3));

    // Spawn both readers first so they are alive (and mapped)
    // concurrently, then collect.
    let exe = std::env::current_exe().unwrap();
    let spawn = || {
        Command::new(&exe)
            .args(["--exact", "two_processes_serve_one_mapped_snapshot", "--nocapture"])
            .env(CHILD_ENV, path.to_str().unwrap())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn reader process")
    };
    let readers = [spawn(), spawn()];

    for (i, child) in readers.into_iter().enumerate() {
        let out = child.wait_with_output().expect("reader process exited");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "reader {i} failed: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // With --nocapture the digest may share a line with libtest's
        // own progress output, so match by substring.
        let line = stdout
            .lines()
            .find(|l| l.contains("CHILD "))
            .unwrap_or_else(|| panic!("reader {i} printed no digest: {stdout}"));
        assert!(
            line.contains(&format!("digest={expected}")),
            "reader {i} ranked differently:\n  got      {line}\n  expected {expected}"
        );
        // On platforms with mmap support the readers must actually be
        // serving from a mapping (one shared physical copy), not a
        // private heap buffer.
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(
            line.contains("mapped=true"),
            "reader {i} fell off the mmap path: {line}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Readers ignore unknown tags, but their CRCs still count: an artifact
/// carrying one extra section whose payload has a corrupt byte fails the
/// parse on mapped and heap storage alike, and fails the load.
#[test]
fn a_corrupt_unknown_section_fails_the_artifact_load() {
    let mut clean = Vec::new();
    sample_artifact().write_to(&mut clean).unwrap();
    let container = Container::parse(&clean).unwrap();
    let mut w = ContainerWriter::new();
    for tag in container.tags() {
        w.add(tag, container.require(tag).unwrap().bytes());
    }
    w.add(*b"XTRA", vec![7u8; 100]);
    let mut bytes = w.finish();
    let last = Container::parse(&bytes)
        .unwrap()
        .require(*b"XTRA")
        .unwrap()
        .bytes()
        .as_ptr();
    let offset = last as usize - bytes.as_ptr() as usize;
    let path = std::env::temp_dir().join(format!(
        "tdmatch-unknown-section-{}.tdm",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    // Unmodified, the extra section is ignored.
    MatchArtifact::load(&path).unwrap();

    bytes[offset + 50] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let mapped = Storage::open(&path).unwrap();
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert!(mapped.is_mapped());
    assert!(matches!(mapped.container(), Err(DecodeError::Corrupt)));
    let heap = Storage::read_file(&path).unwrap();
    assert!(matches!(heap.container(), Err(DecodeError::Corrupt)));
    let err = MatchArtifact::load(&path).unwrap_err();
    assert!(matches!(err, PersistError::Corrupt), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A path that holds no artifact fails both loaders with an error,
/// never a panic or a fault: a zero-length file (the open falls back to
/// the heap and finds no magic), a directory, and a missing path.
#[test]
fn empty_files_directories_and_missing_paths_fail_the_loaders() {
    let dir = std::env::temp_dir().join(format!("tdmatch-loader-edges-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.tdm");
    std::fs::write(&empty, b"").unwrap();
    let missing = dir.join("missing.tdm");

    let artifact = |path: &std::path::Path| MatchArtifact::load(path).map(|_| ()).unwrap_err();
    let matcher = |path: &std::path::Path| Matcher::load(path).map(|_| ()).unwrap_err();
    for (what, load) in [("artifact", &artifact as &dyn Fn(&_) -> _), ("matcher", &matcher)] {
        let err = load(&empty);
        assert!(matches!(err, PersistError::BadMagic), "{what}: {err}");
        assert_eq!(err.to_string(), "not a TDmatch artifact (bad magic)");

        let err = load(&dir);
        assert!(matches!(err, PersistError::Io(_)), "{what}: {err}");
        #[cfg(target_os = "linux")]
        assert_eq!(err.to_string(), "I/O error: Is a directory (os error 21)", "{what}");

        let err = load(&missing);
        assert!(
            matches!(&err, PersistError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
            "{what}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The one hazard the CRC cannot cover: a served file rewritten in place
/// after the load parsed it. Truncating a mapped artifact (what
/// `cp new.tdm served.tdm` does first) leaves the mapping pointing past
/// the end of the file, and the reader's next scan dies of `SIGBUS`.
/// Publishing by rename (`publish_atomic`) never does this; this test
/// pins what happens when an operator does.
#[cfg(target_os = "linux")]
#[test]
fn truncating_a_served_file_in_place_kills_the_reader_with_sigbus() {
    use std::os::unix::process::ExitStatusExt;
    use tdmatch_testutil::respawn;

    const ROLE: &str = "TDMATCH_TRUNCATE_CHILD_PATH";
    const SIGBUS: i32 = 7;
    if let Some(path) = respawn::role(ROLE) {
        let storage = Storage::open(&path).expect("child: open");
        assert!(storage.is_mapped(), "child: the artifact is not mapped");
        let artifact = MatchArtifact::from_storage(&storage).expect("child: load");
        println!("CHILD loaded {} rankings", artifact.match_top_k(3).len());
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(0))
            .expect("child: truncate in place");
        let survived = artifact.match_top_k(3);
        println!("CHILD survived with {} rankings", survived.len());
        return;
    }

    let path = std::env::temp_dir().join(format!("tdmatch-truncated-{}.tdm", std::process::id()));
    sample_artifact().save(&path).unwrap();
    // Under AddressSanitizer, let the signal through instead of ASan's
    // own report, so the child dies the way a plain build does.
    let asan = format!(
        "{}:handle_sigbus=0",
        std::env::var("ASAN_OPTIONS").unwrap_or_default()
    );
    let out = respawn::spawn_self(
        "truncating_a_served_file_in_place_kills_the_reader_with_sigbus",
        ROLE,
        path.to_str().unwrap(),
        &[("ASAN_OPTIONS", &asan)],
    )
    .expect("spawn the reader")
    .wait_with_output()
    .expect("reader exited");
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CHILD loaded 3 rankings"), "{stdout}");
    assert!(!stdout.contains("CHILD survived"), "{stdout}");
    assert_eq!(
        out.status.signal(),
        Some(SIGBUS),
        "{:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
