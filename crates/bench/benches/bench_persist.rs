//! Persistence recorder: cold pipeline fit vs warm artifact load.
//!
//! The pipeline is fit-once / match-many, so the number that matters for
//! serving is not how fast a fit is but how fast a *saved* fit comes
//! back. This recorder measures, on a `fig8_scaling`-sized STS workload:
//!
//! * **cold** — graph build + walks + Word2Vec training + normalization
//!   (`TdMatch::fit`), the price of not having a snapshot;
//! * **warm** — `TDZ1` container bytes → zero-copy `MatchArtifact`
//!   (`from_storage`: borrowed matrices, no re-normalization);
//! * **load-then-match** — warm load followed by a full `match_top_k`
//!   sweep, i.e. end-to-end time-to-first-ranking from bytes;
//! * **CSR snapshot** — freeze-from-graph vs zero-copy snapshot load;
//! * **serving opens** — mapped-lazy vs mapped-eager vs heap open of the
//!   artifact *file*, plus an O(1)-open check (mapped open latency on a
//!   small vs a 64× larger synthetic container must not scale);
//! * **RSS per process** — reader subprocesses open the same artifact
//!   file mapped vs heap and report their own `/proc/self/smaps_rollup`
//!   footprint: mapped readers carry file-backed shared pages (one
//!   physical copy for the whole fleet), heap readers each pay a private
//!   anonymous copy.
//!
//! The warm rankings are asserted identical to the live model's before
//! anything is recorded. Results land in `BENCH_persist.json` at the
//! repository root so the warm-start trajectory is tracked from PR to PR.
//!
//! Run with `cargo bench -p tdmatch-bench --bench bench_persist`.
//! `TDMATCH_BENCH_COPIES` (default 2) scales the corpus pair like
//! Figure 8's union-of-scenarios construction; `TDMATCH_SCALE` /
//! `TDMATCH_DIM` / … behave as in the other recorders.

use std::time::Instant;

use tdmatch_bench::alloc_probe::{AllocProbe, CountingAlloc};
use tdmatch_bench::bench_config;
use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::corpus::{Corpus, TextCorpus};
use tdmatch_core::pipeline::TdMatch;
use tdmatch_datasets::{sts, Scale};
use tdmatch_graph::container::{Storage, Verification};
use tdmatch_graph::{ContainerWriter, CsrGraph};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct LoadStats {
    secs: f64,
    allocations: u64,
    peak_bytes: u64,
}

fn json_load_stats(s: &LoadStats) -> String {
    format!(
        "{{\"secs\": {:.6}, \"allocations\": {}, \"peak_bytes\": {}}}",
        s.secs, s.allocations, s.peak_bytes,
    )
}

/// Best-of-N wall time + first-run allocation counters.
fn measure<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (T, LoadStats) {
    let probe = AllocProbe::start();
    let t = Instant::now();
    let out = f();
    let mut secs = t.elapsed().as_secs_f64();
    let (allocations, peak_bytes) = probe.finish();
    for _ in 1..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        secs = secs.min(t.elapsed().as_secs_f64());
    }
    (
        out,
        LoadStats {
            secs,
            allocations,
            peak_bytes,
        },
    )
}

/// One process's memory footprint in kB, from `/proc/self/smaps_rollup`.
#[derive(Clone, Copy, Default)]
struct MemFootprint {
    rss_kb: u64,
    pss_kb: u64,
    private_kb: u64,
    shared_clean_kb: u64,
}

fn json_footprint(m: &MemFootprint) -> String {
    format!(
        "{{\"rss_kb\": {}, \"pss_kb\": {}, \"private_kb\": {}, \"shared_clean_kb\": {}}}",
        m.rss_kb, m.pss_kb, m.private_kb, m.shared_clean_kb
    )
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
/// file (mapped or heap per `mode`), serve a full top-k sweep so every
/// page is touched, then signal readiness and **wait** — the parent
/// releases all readers only once the whole fleet is resident, so the
/// footprints are measured while the snapshot is concurrently held.
/// (That concurrency is what the kernel's accounting keys sharing on:
/// mapped readers then split the file pages' Pss between them, while
/// heap readers each keep a full private copy.)
fn child_serve(path: &str, mode: &str) {
    use std::io::BufRead;
    let storage = match mode {
        "mapped" => Storage::open_with(path, Verification::Lazy).expect("child open mapped"),
        _ => Storage::read_file(path).expect("child open heap"),
    };
    let artifact = MatchArtifact::from_storage(&storage).expect("child load artifact");
    let results = artifact.match_top_k(5);
    println!("PERSIST_CHILD_READY");
    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line).expect("await release");
    let m = self_footprint().unwrap_or_default();
    println!(
        "PERSIST_CHILD mode={mode} is_mapped={} results={} rss_kb={} pss_kb={} \
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

fn main() {
    // Reader-subprocess mode for the RSS measurement (see child_serve).
    if let (Ok(path), Ok(mode)) = (
        std::env::var("TDMATCH_PERSIST_CHILD_PATH"),
        std::env::var("TDMATCH_PERSIST_CHILD_MODE"),
    ) {
        child_serve(&path, &mode);
        return;
    }

    let copies: usize = std::env::var("TDMATCH_BENCH_COPIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let k = 20usize;
    const REPS: usize = 5;

    // Figure-8-sized corpus pair: a union of independently seeded STS
    // corpora, exactly like fig8_scaling / bench_walks build theirs.
    let mut first_docs = Vec::new();
    let mut second_docs = Vec::new();
    for seed in 0..copies as u64 {
        let s = sts::generate(Scale::Small, 100 + seed, 2);
        let Corpus::Text(f) = s.first else { unreachable!() };
        let Corpus::Text(snd) = s.second else { unreachable!() };
        first_docs.extend(f.docs);
        second_docs.extend(snd.docs);
    }
    let first = Corpus::Text(TextCorpus::new(first_docs));
    let second = Corpus::Text(TextCorpus::new(second_docs));
    let base = sts::generate(Scale::Tiny, 1, 2);
    let config = bench_config(&base.config);
    let dim = config.dim;
    println!(
        "persist workload: {} targets × {} queries, dim {dim}, k {k} ({copies} copies)",
        first.len(),
        second.len(),
    );

    // --- Cold: the full fit (build + walks + train + normalize) --------
    let trainer = TdMatch::new(config);
    let t = Instant::now();
    let model = trainer.fit(&first, &second).expect("pipeline fit failed");
    let cold_secs = t.elapsed().as_secs_f64();
    let live = model.match_top_k(k);

    // --- Artifact save ---------------------------------------------------
    let artifact = model.artifact();
    let t = Instant::now();
    let mut v2_bytes = Vec::new();
    artifact.write_to(&mut v2_bytes).unwrap();
    let save_secs = t.elapsed().as_secs_f64();

    // --- Warm: zero-copy container load ---------------------------------
    let (warm, v2_load) = measure(REPS, || {
        let storage = Storage::from_bytes(&v2_bytes);
        MatchArtifact::from_storage(&storage).unwrap()
    });
    assert!(warm.is_zero_copy(), "v2 load fell off the zero-copy path");

    // The warm artifact must rank exactly like the live model.
    let warm_results = warm.match_top_k(k);
    assert_eq!(live, warm_results, "warm artifact diverged from the live model");

    // --- Load-then-match: time-to-first-ranking from bytes -------------
    let pairs = (first.len() * second.len()) as f64;
    let (_, load_match) = measure(REPS, || {
        let storage = Storage::from_bytes(&v2_bytes);
        let a = MatchArtifact::from_storage(&storage).unwrap();
        a.match_top_k(k)
    });

    // --- CSR snapshot: cold (build graph + freeze) vs zero-copy load ----
    // The cold path to a walkable CsrGraph from scratch is graph
    // creation plus the freeze; the snapshot replaces both.
    let (csr, csr_cold) = measure(1, || {
        let built =
            tdmatch_core::builder::build_graph(&first, &second, trainer.config(), None);
        CsrGraph::from_graph(&built.graph)
    });
    let mut w = ContainerWriter::new();
    csr.write_sections(&mut w);
    let csr_bytes = w.finish();
    let (_, csr_load) = measure(REPS, || {
        let storage = Storage::from_bytes(&csr_bytes);
        let c = storage.container().unwrap();
        CsrGraph::from_sections(&storage, &c).unwrap()
    });

    // --- Serving opens: mapped (lazy / eager) vs heap, on a real file ---
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let artifact_path = tmp.join(format!("tdmatch-bench-artifact-{pid}.tdm"));
    std::fs::write(&artifact_path, &v2_bytes).expect("write artifact file");
    const OPEN_REPS: usize = 50;
    let probe_storage = Storage::open_with(&artifact_path, Verification::Lazy).unwrap();
    let serving_is_mapped = probe_storage.is_mapped();
    drop(probe_storage);
    let (_, open_mapped_lazy) = measure(OPEN_REPS, || {
        let s = Storage::open_with(&artifact_path, Verification::Lazy).unwrap();
        s.container().unwrap().section_count()
    });
    let (_, open_mapped_eager) = measure(OPEN_REPS, || {
        let s = Storage::open_verified(&artifact_path).unwrap();
        s.container().unwrap().section_count()
    });
    let (_, open_heap) = measure(OPEN_REPS, || {
        let s = Storage::read_file(&artifact_path).unwrap();
        s.container().unwrap().section_count()
    });

    // --- O(1) open: mapped-lazy open latency must not scale with size ---
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
    let (_, o1_small) = measure(OPEN_REPS, || {
        let s = Storage::open_with(&small_path, Verification::Lazy).unwrap();
        s.container().unwrap().section_count()
    });
    let (_, o1_large) = measure(OPEN_REPS, || {
        let s = Storage::open_with(&large_path, Verification::Lazy).unwrap();
        s.container().unwrap().section_count()
    });
    let (_, o1_small_heap) = measure(REPS, || {
        let s = Storage::read_file(&small_path).unwrap();
        s.container().unwrap().section_count()
    });
    let (_, o1_large_heap) = measure(REPS, || {
        let s = Storage::read_file(&large_path).unwrap();
        s.container().unwrap().section_count()
    });
    let o1_ratio = o1_large.secs / o1_small.secs;
    let heap_ratio = o1_large_heap.secs / o1_small_heap.secs;
    if serving_is_mapped {
        assert!(
            o1_ratio < 16.0,
            "mapped open scaled with artifact size: 64x payload made open {o1_ratio:.1}x slower"
        );
    }
    std::fs::remove_file(&small_path).ok();
    std::fs::remove_file(&large_path).ok();

    // --- RSS per reader process: a concurrent fleet per backing ---------
    const FLEET: usize = 2;
    let mapped_readers = reader_fleet(&artifact_path, "mapped", FLEET);
    let heap_readers = reader_fleet(&artifact_path, "heap", FLEET);
    let pss_total = |readers: &[MemFootprint]| readers.iter().map(|m| m.pss_kb).sum::<u64>();
    if !mapped_readers.is_empty() && !heap_readers.is_empty() {
        println!(
            "serving fleet ({FLEET} readers, {} KiB artifact): mapped pss/reader {:?} KiB \
             (total {}) vs heap {:?} KiB (total {})",
            v2_bytes.len() / 1024,
            mapped_readers.iter().map(|m| m.pss_kb).collect::<Vec<_>>(),
            pss_total(&mapped_readers),
            heap_readers.iter().map(|m| m.pss_kb).collect::<Vec<_>>(),
            pss_total(&heap_readers),
        );
    }
    let rss_json = |readers: &[MemFootprint]| -> String {
        if readers.is_empty() {
            return "null".into();
        }
        let parts: Vec<String> = readers.iter().map(json_footprint).collect();
        format!(
            "{{\"pss_total_kb\": {}, \"readers\": [{}]}}",
            readers.iter().map(|m| m.pss_kb).sum::<u64>(),
            parts.join(", ")
        )
    };
    let rss_mapped = rss_json(&mapped_readers);
    let rss_heap = rss_json(&heap_readers);

    std::fs::remove_file(&artifact_path).ok();

    let serving_json = format!(
        concat!(
            "{{\n",
            "    \"is_mapped\": {},\n",
            "    \"artifact_file_open\": {{\"mapped_lazy\": {}, \"mapped_eager\": {}, ",
            "\"heap\": {}}},\n",
            "    \"o1_open\": {{\"small_bytes\": {}, \"large_bytes\": {}, ",
            "\"mapped_small_secs\": {:.9}, \"mapped_large_secs\": {:.9}, ",
            "\"mapped_large_over_small\": {:.2}, ",
            "\"heap_small_secs\": {:.9}, \"heap_large_secs\": {:.9}, ",
            "\"heap_large_over_small\": {:.2}}},\n",
            "    \"rss_per_reader\": {{\"mapped\": {}, \"heap\": {}}}\n",
            "  }}"
        ),
        serving_is_mapped,
        json_load_stats(&open_mapped_lazy),
        json_load_stats(&open_mapped_eager),
        json_load_stats(&open_heap),
        1usize << 20,
        1usize << 26,
        o1_small.secs,
        o1_large.secs,
        o1_ratio,
        o1_small_heap.secs,
        o1_large_heap.secs,
        heap_ratio,
        rss_mapped,
        rss_heap,
    );
    println!(
        "serving: mapped-lazy open {:.6}s vs heap open {:.6}s (eager mapped {:.6}s) | \
         O(1) check: 64x payload -> mapped open x{o1_ratio:.2}, heap open x{heap_ratio:.2}",
        open_mapped_lazy.secs, open_heap.secs, open_mapped_eager.secs,
    );

    let speedup_warm_vs_cold = cold_secs / v2_load.secs;
    let speedup_csr = csr_cold.secs / csr_load.secs;
    println!(
        "cold fit: {cold_secs:.3}s | warm v2 load: {:.6}s ({speedup_warm_vs_cold:.0}x) | \
         load+match: {:.4}s \
         ({:.1}M pairs/s) | csr build+freeze {:.4}s vs load {:.6}s ({speedup_csr:.1}x)",
        v2_load.secs,
        load_match.secs,
        pairs / load_match.secs / 1e6,
        csr_cold.secs,
        csr_load.secs,
    );
    assert!(
        speedup_warm_vs_cold >= 10.0,
        "warm load regressed: only {speedup_warm_vs_cold:.1}x faster than the cold fit"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"persistence\",\n",
            "  \"workload\": {{\"targets\": {}, \"queries\": {}, \"dim\": {}, \"k\": {}, ",
            "\"copies\": {}}},\n",
            "  \"cold_fit_secs\": {:.6},\n",
            "  \"artifact_bytes\": {},\n",
            "  \"artifact_save_secs\": {:.6},\n",
            "  \"warm_load_v2\": {},\n",
            "  \"load_then_match\": {{\"secs\": {:.6}, \"pairs_per_sec\": {:.1}}},\n",
            "  \"csr_snapshot\": {{\"bytes\": {}, \"build_freeze_secs\": {:.6}, ",
            "\"load_secs\": {:.6}}},\n",
            "  \"serving\": {},\n",
            "  \"speedup_warm_vs_cold\": {:.1},\n",
            "  \"speedup_csr_load_vs_build\": {:.2}\n",
            "}}\n"
        ),
        first.len(),
        second.len(),
        dim,
        k,
        copies,
        cold_secs,
        v2_bytes.len(),
        save_secs,
        json_load_stats(&v2_load),
        load_match.secs,
        pairs / load_match.secs,
        csr_bytes.len(),
        csr_cold.secs,
        csr_load.secs,
        serving_json,
        speedup_warm_vs_cold,
        speedup_csr,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    std::fs::write(out, &json).expect("write BENCH_persist.json");
    println!("wrote {out}");
}
