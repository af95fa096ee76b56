//! Persistence recorder: what the repository benchmark cannot see of an
//! artifact *file* — how long it takes to open, and what each serving
//! process pays to hold it.
//!
//! On a synthetic artifact of `serve-scan`'s size (32,768 × 96 target
//! rows, 256 queries, built with [`MatchArtifact::new`]) it records:
//!
//! * **opens** — a mapped open of the file, the same open followed by the
//!   verifying parse every load runs (`Storage::container`, all CRCs), and
//!   a heap read plus that parse;
//! * **O(1) open** — mapped open latency on a small vs a 64× larger
//!   synthetic container must not scale (asserted when the file maps);
//! * **memory per reader** — reader subprocesses open the same file
//!   mapped vs heap and report their own `/proc/self/smaps_rollup`
//!   footprint: mapped readers carry file-backed shared pages (one
//!   physical copy for the whole fleet), heap readers each pay a private
//!   anonymous copy.
//!
//! On a term-heavy artifact (`imdb-wt` at `Scale::Small`, fitted: 1,883
//! terms × 80, 69% of the file term vectors) it records the full load
//! (`MatchArtifact::load` mapped, and a heap read plus `from_storage`),
//! one lookup of every term, and the same reader fleets, whose private
//! KB per mapped reader is what a loaded vocabulary costs each process.
//!
//! Results land in `BENCH_persist.json` at the repository root. Run with
//! `cargo bench -p tdmatch-bench --bench bench_persist`.

use tdmatch_bench::record::{best_of, gen_centers, gen_side, round, write_bench_json, Writer};
use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::{FitOptions, TdConfig, TdMatch};
use tdmatch_datasets::Scale;
use tdmatch_graph::container::Storage;
use tdmatch_graph::ContainerWriter;
use tdmatch_scenarios::lifecycle::conformance_config;
use tdmatch_scenarios::registry;

/// `serve-scan`'s corpus shape.
const TARGETS: usize = 32_768;
const QUERIES: usize = 256;
const DIM: usize = 96;

/// The term-heavy artifact: `imdb-wt` at `Scale::Small`, generated and
/// fitted as `tdmatch run` fits it by default (seed 42, similarity
/// merge, no expansion), with one walk per node and one epoch. Its
/// vocabulary is the graph's, whatever the training: 1,883 terms × 80.
fn term_heavy_artifact() -> MatchArtifact {
    let scenario = registry::by_key("imdb-wt")
        .expect("a registered scenario")
        .generate(Scale::Small, 42);
    let config = TdConfig {
        walks_per_node: 1,
        epochs: 1,
        ..conformance_config(&scenario.config, Scale::Small, 42)
    };
    let options = FitOptions {
        kb: None,
        compression: None,
        merge: Some((&scenario.pretrained, scenario.gamma)),
    };
    TdMatch::new(config)
        .fit_with(&scenario.first, &scenario.second, options)
        .expect("fit imdb-wt")
        .artifact()
}

/// Looks every term up once; how many were found.
fn look_up_every_term(artifact: &MatchArtifact) -> usize {
    artifact
        .term_labels()
        .filter(|label| artifact.term_vector(label).is_some())
        .count()
}

/// One process's memory footprint in kB, from `/proc/self/smaps_rollup`.
#[derive(Clone, Copy, Default)]
struct MemFootprint {
    rss_kb: u64,
    pss_kb: u64,
    private_kb: u64,
    shared_clean_kb: u64,
}

#[cfg(target_os = "linux")]
fn self_footprint() -> Option<MemFootprint> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let field = |name: &str| -> u64 {
        rollup
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Some(MemFootprint {
        rss_kb: field("Rss:"),
        pss_kb: field("Pss:"),
        private_kb: field("Private_Dirty:") + field("Private_Clean:"),
        shared_clean_kb: field("Shared_Clean:"),
    })
}

#[cfg(not(target_os = "linux"))]
fn self_footprint() -> Option<MemFootprint> {
    None
}

/// Child mode for the RSS-per-process measurement: open the artifact
/// file (mapped or heap per `mode`), serve a full top-k sweep and look
/// every term up so every page is touched, then signal readiness and
/// **wait** — the parent releases all readers only once the whole fleet
/// is resident, so the footprints are measured while the snapshot is
/// concurrently held.
/// (That concurrency is what the kernel's accounting keys sharing on:
/// mapped readers then split the file pages' Pss between them, while
/// heap readers each keep a full private copy.)
fn child_serve(path: &str, mode: &str) {
    use std::io::BufRead;
    let storage = match mode {
        "mapped" => Storage::open(path).expect("child open mapped"),
        _ => Storage::read_file(path).expect("child open heap"),
    };
    let artifact = MatchArtifact::from_storage(&storage).expect("child load artifact");
    let results = artifact.match_top_k(5);
    let terms = look_up_every_term(&artifact);
    println!("PERSIST_CHILD_READY");
    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line).expect("await release");
    let m = self_footprint().unwrap_or_default();
    println!(
        "PERSIST_CHILD mode={mode} is_mapped={} results={} terms={terms} rss_kb={} pss_kb={} \
         private_kb={} shared_clean_kb={}",
        storage.is_mapped(),
        results.len(),
        m.rss_kb,
        m.pss_kb,
        m.private_kb,
        m.shared_clean_kb,
    );
    // Second barrier: stay resident until every sibling has measured,
    // so no reader's footprint is taken after another unmapped.
    line.clear();
    std::io::stdin().lock().read_line(&mut line).expect("await shutdown");
}

/// Re-executes this bench binary as `n` concurrent reader processes over
/// one artifact file and collects each reader's footprint, measured
/// while the whole fleet holds the snapshot.
#[cfg(target_os = "linux")]
fn reader_fleet(path: &std::path::Path, mode: &str, n: usize) -> Vec<MemFootprint> {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let Ok(exe) = std::env::current_exe() else { return Vec::new() };
    let mut children = Vec::new();
    for _ in 0..n {
        let Ok(child) = std::process::Command::new(&exe)
            .env("TDMATCH_PERSIST_CHILD_PATH", path)
            .env("TDMATCH_PERSIST_CHILD_MODE", mode)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
        else {
            return Vec::new();
        };
        children.push(child);
    }
    let mut outs: Vec<BufReader<std::process::ChildStdout>> = children
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().expect("child stdout piped")))
        .collect();
    // Barrier: wait for every reader to be resident…
    for out in &mut outs {
        let mut line = String::new();
        while out.read_line(&mut line).is_ok_and(|b| b > 0) {
            if line.contains("PERSIST_CHILD_READY") {
                break;
            }
            line.clear();
        }
    }
    // …then release them all; each measures while the others still hold
    // the snapshot.
    for child in &mut children {
        let stdin = child.stdin.as_mut().expect("child stdin piped");
        let _ = stdin.write_all(b"go\n");
        let _ = stdin.flush();
    }
    // Collect every report while the whole fleet is still resident, then
    // release the second barrier and reap.
    let mut reports = Vec::new();
    for out in &mut outs {
        let mut report = String::new();
        let mut line = String::new();
        while out.read_line(&mut line).is_ok_and(|b| b > 0) {
            if line.contains("PERSIST_CHILD ") {
                report = line.clone();
                break;
            }
            line.clear();
        }
        reports.push(report);
    }
    for child in &mut children {
        if let Some(stdin) = child.stdin.as_mut() {
            let _ = stdin.write_all(b"done\n");
            let _ = stdin.flush();
        }
        let _ = child.wait();
    }
    let mut footprints = Vec::new();
    for report in reports {
        if report.is_empty() {
            continue;
        }
        // A reader that silently fell back to the other backing (e.g.
        // mmap refused by the filesystem) must not pollute this mode's
        // numbers: heap footprints labelled "mapped" would fake the
        // sharing evidence.
        let want_mapped = mode == "mapped";
        if report.contains(&format!("is_mapped={}", !want_mapped)) {
            continue;
        }
        let field = |name: &str| -> u64 {
            report
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        footprints.push(MemFootprint {
            rss_kb: field("rss_kb"),
            pss_kb: field("pss_kb"),
            private_kb: field("private_kb"),
            shared_clean_kb: field("shared_clean_kb"),
        });
    }
    footprints
}

#[cfg(not(target_os = "linux"))]
fn reader_fleet(_path: &std::path::Path, _mode: &str, _n: usize) -> Vec<MemFootprint> {
    Vec::new()
}

/// Writes a reader fleet's footprints, or `null` when none reported.
fn write_fleet(w: &mut Writer, readers: &[MemFootprint]) {
    if readers.is_empty() {
        return w.null();
    }
    w.obj(|w| {
        w.key("pss_total_kb")
            .num(readers.iter().map(|m| m.pss_kb).sum::<u64>() as f64);
        w.key("readers").arr(|w| {
            for m in readers {
                w.obj(|w| {
                    w.key("private_kb").num(m.private_kb as f64);
                    w.key("pss_kb").num(m.pss_kb as f64);
                    w.key("rss_kb").num(m.rss_kb as f64);
                    w.key("shared_clean_kb").num(m.shared_clean_kb as f64);
                });
            }
        });
    });
}

fn main() {
    // Reader-subprocess mode for the RSS measurement (see child_serve).
    if let (Ok(path), Ok(mode)) = (
        std::env::var("TDMATCH_PERSIST_CHILD_PATH"),
        std::env::var("TDMATCH_PERSIST_CHILD_MODE"),
    ) {
        child_serve(&path, &mode);
        return;
    }

    let mut state = 0x5E4E_5CA7u64;
    let centers = gen_centers(TARGETS / 256, DIM, &mut state);
    let targets = gen_side(TARGETS, DIM, &centers, &mut state);
    let queries = gen_side(QUERIES, DIM, &centers, &mut state);
    let artifact = MatchArtifact::new(DIM, Vec::new(), targets, queries);

    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let artifact_path = tmp.join(format!("tdmatch-bench-artifact-{pid}.tdm"));
    artifact.save(&artifact_path).expect("write artifact file");
    let artifact_bytes = std::fs::metadata(&artifact_path)
        .expect("stat artifact")
        .len();
    println!("persist workload: {TARGETS} targets × {QUERIES} queries, dim {DIM}, {artifact_bytes} bytes");

    // --- Opens: mapped (bare / parsed) vs heap, on a real file ---------
    const OPEN_REPS: usize = 50;
    const REPS: usize = 5;
    let serving_is_mapped = Storage::open(&artifact_path).unwrap().is_mapped();
    let (_, open_mapped) = best_of(OPEN_REPS, || {
        Storage::open(&artifact_path).unwrap().as_bytes().len()
    });
    let (_, open_mapped_parsed) = best_of(OPEN_REPS, || {
        let s = Storage::open(&artifact_path).unwrap();
        s.container().unwrap().section_count()
    });
    let (_, open_heap) = best_of(OPEN_REPS, || {
        let s = Storage::read_file(&artifact_path).unwrap();
        s.container().unwrap().section_count()
    });

    // --- O(1) open: mapped open latency must not scale with size -------
    let synthetic = |elems: usize, name: &str| {
        let data = vec![1.0f32; elems];
        let mut w = ContainerWriter::new();
        w.add_pod(*b"BLOB", &data);
        let path = tmp.join(format!("tdmatch-bench-{name}-{pid}.tdz"));
        let mut f = std::fs::File::create(&path).expect("create synthetic container");
        w.write_to(&mut f).expect("write synthetic container");
        path
    };
    let small_path = synthetic(1 << 18, "small"); // 1 MiB payload
    let large_path = synthetic(1 << 24, "large"); // 64 MiB payload
    let open_secs = |path: &std::path::Path, reps: usize, mapped: bool| {
        best_of(reps, || {
            let s = if mapped {
                Storage::open(path).unwrap()
            } else {
                Storage::read_file(path).unwrap()
            };
            s.as_bytes().len()
        })
        .1
    };
    let o1_small = open_secs(&small_path, OPEN_REPS, true);
    let o1_large = open_secs(&large_path, OPEN_REPS, true);
    let o1_small_heap = open_secs(&small_path, REPS, false);
    let o1_large_heap = open_secs(&large_path, REPS, false);
    let o1_ratio = o1_large / o1_small;
    let heap_ratio = o1_large_heap / o1_small_heap;
    if serving_is_mapped {
        assert!(
            o1_ratio < 16.0,
            "mapped open scaled with artifact size: 64x payload made open {o1_ratio:.1}x slower"
        );
    }
    std::fs::remove_file(&small_path).ok();
    std::fs::remove_file(&large_path).ok();
    println!(
        "opens: mapped {open_mapped:.6}s vs heap {open_heap:.6}s \
         (mapped + parse {open_mapped_parsed:.6}s) | O(1) check: 64x payload -> \
         mapped open x{o1_ratio:.2}, heap open x{heap_ratio:.2}",
    );

    // --- RSS per reader process: a concurrent fleet per backing ---------
    const FLEET: usize = 2;
    let mapped_readers = reader_fleet(&artifact_path, "mapped", FLEET);
    let heap_readers = reader_fleet(&artifact_path, "heap", FLEET);
    let pss = |readers: &[MemFootprint]| readers.iter().map(|m| m.pss_kb).collect::<Vec<_>>();
    println!(
        "serving fleet ({FLEET} readers, {} KiB artifact): mapped pss/reader {:?} KiB \
         vs heap {:?} KiB",
        artifact_bytes / 1024,
        pss(&mapped_readers),
        pss(&heap_readers),
    );
    std::fs::remove_file(&artifact_path).ok();

    // --- Term-heavy tier: a fitted vocabulary, loaded and held ----------
    let vocab_path = tmp.join(format!("tdmatch-bench-vocab-{pid}.tdm"));
    let vocab = term_heavy_artifact();
    vocab.save(&vocab_path).expect("write term-heavy artifact");
    let vocab_bytes = std::fs::metadata(&vocab_path)
        .expect("stat term-heavy artifact")
        .len();
    let (loaded, load_mapped) = best_of(OPEN_REPS, || MatchArtifact::load(&vocab_path).unwrap());
    let (_, load_heap) = best_of(OPEN_REPS, || {
        let s = Storage::read_file(&vocab_path).unwrap();
        MatchArtifact::from_storage(&s).unwrap().term_count()
    });
    let (found, lookup) = best_of(OPEN_REPS, || look_up_every_term(&loaded));
    assert_eq!(found, vocab.term_count(), "every stored term is found");
    let lookup_ns = lookup * 1e9 / found.max(1) as f64;
    let vocab_mapped = reader_fleet(&vocab_path, "mapped", FLEET);
    let vocab_heap = reader_fleet(&vocab_path, "heap", FLEET);
    let private =
        |readers: &[MemFootprint]| readers.iter().map(|m| m.private_kb).collect::<Vec<_>>();
    println!(
        "term-heavy (imdb-wt small, {} terms × {}, {vocab_bytes} bytes): load mapped \
         {load_mapped:.6}s vs heap {load_heap:.6}s, {lookup_ns:.0} ns per lookup | \
         private KiB per reader: mapped {:?} vs heap {:?}",
        vocab.term_count(),
        vocab.dim(),
        private(&vocab_mapped),
        private(&vocab_heap),
    );
    std::fs::remove_file(&vocab_path).ok();

    let secs = |w: &mut Writer, secs: f64| w.obj(|w| w.key("secs").num(round(secs, 9)));
    write_bench_json("persist", "persistence", |w| {
        w.key("serving").obj(|w| {
            w.key("artifact_file_open").obj(|w| {
                secs(w.key("heap"), open_heap);
                secs(w.key("mapped"), open_mapped);
                secs(w.key("mapped_parsed"), open_mapped_parsed);
            });
            w.key("is_mapped").bool(serving_is_mapped);
            w.key("o1_open").obj(|w| {
                w.key("heap_large_over_small").num(round(heap_ratio, 2));
                w.key("heap_large_secs").num(round(o1_large_heap, 9));
                w.key("heap_small_secs").num(round(o1_small_heap, 9));
                w.key("large_bytes").num((1u64 << 26) as f64);
                w.key("mapped_large_over_small").num(round(o1_ratio, 2));
                w.key("mapped_large_secs").num(round(o1_large, 9));
                w.key("mapped_small_secs").num(round(o1_small, 9));
                w.key("small_bytes").num((1u64 << 20) as f64);
            });
            w.key("rss_per_reader").obj(|w| {
                write_fleet(w.key("heap"), &heap_readers);
                write_fleet(w.key("mapped"), &mapped_readers);
            });
        });
        w.key("term_heavy").obj(|w| {
            w.key("load").obj(|w| {
                secs(w.key("heap"), load_heap);
                secs(w.key("mapped"), load_mapped);
            });
            w.key("lookup_ns_per_term").num(round(lookup_ns, 1));
            w.key("rss_per_reader").obj(|w| {
                write_fleet(w.key("heap"), &vocab_heap);
                write_fleet(w.key("mapped"), &vocab_mapped);
            });
            w.key("workload").obj(|w| {
                w.key("artifact_bytes").num(vocab_bytes as f64);
                w.key("dim").num(vocab.dim() as f64);
                w.key("scenario").str("imdb-wt small, seed 42");
                w.key("terms").num(vocab.term_count() as f64);
            });
        });
        w.key("workload").obj(|w| {
            w.key("artifact_bytes").num(artifact_bytes as f64);
            w.key("dim").num(DIM as f64);
            w.key("queries").num(QUERIES as f64);
            w.key("targets").num(TARGETS as f64);
        });
    });
}
