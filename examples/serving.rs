//! Serving: two handles memory-map the *same* saved artifact and answer
//! top-k queries from one shared physical copy.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! The handles below live in one process for brevity, but nothing about
//! them is process-local: `MatchArtifact::load` maps the file read-only,
//! so N *processes* doing the same share the pages through the OS page
//! cache exactly like the two handles here share one mapping each.
//! `BENCH_persist.json` (`serving.rss_per_reader`) records that
//! cross-process effect; `crates/core/tests/mmap_serving.rs` proves it
//! with real subprocesses.

use tdmatch::core::artifact::MatchArtifact;
use tdmatch::core::config::TdConfig;
use tdmatch::core::corpus::{Corpus, Table, TextCorpus};
use tdmatch::core::pipeline::TdMatch;
use tdmatch::core::serving::Matcher;
use tdmatch::graph::container::Storage;

fn main() {
    let movies = Table::new(
        "movies",
        vec!["title".into(), "director".into(), "genre".into()],
        vec![
            vec!["The Sixth Sense".into(), "Shyamalan".into(), "Thriller".into()],
            vec!["Pulp Fiction".into(), "Tarantino".into(), "Drama".into()],
            vec!["Kill Bill".into(), "Tarantino".into(), "Action".into()],
        ],
    );
    let reviews = TextCorpus::new(vec![
        "shyamalan thriller with the famous twist ending".into(),
        "tarantino pulp dialogue and a drama that is a comedy".into(),
    ]);

    // Fit once and publish the artifact — the expensive step, done by
    // the fitting job, not the serving fleet.
    let model = TdMatch::new(TdConfig::for_tests())
        .fit(&Corpus::Table(movies), &Corpus::Text(reviews))
        .expect("fit");
    let path = std::env::temp_dir().join("tdmatch-serving-example.tdm");
    model.save_artifact(&path).expect("save artifact");
    println!(
        "published {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).expect("stat").len()
    );

    // Two independent serving handles open the same file. The file is
    // mapped, not read; each load checks the section checksums once.
    let serve_a = MatchArtifact::load(&path).expect("reader A");
    let serve_b = MatchArtifact::load(&path).expect("reader B");
    assert!(serve_a.is_zero_copy() && serve_b.is_zero_copy());

    // (Storage::open is what load uses under the hood — shown here only
    // to report the backing.)
    let storage = Storage::open(&path).expect("probe storage");
    println!(
        "backing: {}\n",
        if storage.is_mapped() { "mmap (one shared physical copy)" } else { "heap (no mmap on this target)" },
    );

    // Handle A sweeps the whole query corpus…
    println!("reader A: full top-2 sweep");
    for result in serve_a.match_top_k(2) {
        let ranked: Vec<String> = result
            .ranked
            .iter()
            .map(|(t, s)| format!("tuple{t}:{s:.3}"))
            .collect();
        println!("  query {} -> {}", result.query, ranked.join(" "));
    }

    // …while handle B answers ad-hoc, out-of-corpus queries against the
    // same mapped matrices, behind the facade a daemon serves through.
    let serve_b = Matcher::new(serve_b);
    let query = "a tarantino drama";
    let tokens = tdmatch::text::Preprocessor::default().base_tokens(query);
    let ranked = serve_b.query_by_tokens(&tokens, 2);
    println!("reader B: {query:?} -> ");
    for (rank, (target, score)) in ranked.iter().enumerate() {
        println!("  #{} tuple {target} (score {score:.3})", rank + 1);
    }

    // Both handles rank identically — they are views of the same bytes.
    assert_eq!(serve_a.match_top_k(2), serve_b.artifact().match_top_k(2));
    println!("\nreaders agree; dropping the last handle unmaps the file");
    std::fs::remove_file(&path).ok();
}
