//! Persistence: fit once, save the match artifact, reload it later and
//! match without re-training.
//!
//! ```sh
//! cargo run --release --example persistence
//! ```

use tdmatch::core::artifact::MatchArtifact;
use tdmatch::core::config::TdConfig;
use tdmatch::core::corpus::{Corpus, Table, TextCorpus};
use tdmatch::core::pipeline::TdMatch;

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

    // 1. Fit the pipeline — the expensive step.
    let model = TdMatch::new(TdConfig::for_tests())
        .fit(&Corpus::Table(movies), &Corpus::Text(reviews))
        .expect("fit");
    println!(
        "fitted in {:.2}s ({} nodes)",
        model.timings.total(),
        model.graph_size().0
    );

    // 2. Save the model's match artifact (embeddings only, versioned
    //    binary with a checksum).
    let path = std::env::temp_dir().join("tdmatch-example.tdm");
    model.save_artifact(&path).expect("save artifact");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!("saved {} ({bytes} bytes)", path.display());

    // 3. A later process loads the artifact and matches immediately —
    //    identical rankings, no graph, no training.
    let loaded = MatchArtifact::load(&path).expect("load artifact");
    println!(
        "loaded: dim {}, {} terms, {:?} corpora",
        loaded.dim(),
        loaded.term_count(),
        loaded.corpus_sizes()
    );
    for (live, cold) in model.match_top_k(3).iter().zip(loaded.match_top_k(3)) {
        assert_eq!(live.target_indices(), cold.target_indices());
        println!(
            "query {} -> {:?} (identical live vs loaded)",
            cold.query,
            cold.target_indices()
        );
    }

    // 4. Term embeddings survive too — usable as features downstream.
    let v = loaded.term_vector("tarantino").expect("term present");
    println!("'tarantino' vector: {} dims, first = {:.3}", v.len(), v[0]);

    std::fs::remove_file(&path).ok();
}
