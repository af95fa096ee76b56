//! The serving facade without the socket: an in-process [`Matcher`]
//! coalescing a batch of mixed queries into one tiled kernel call.
//!
//! ```sh
//! cargo run --release --example daemon
//! ```
//!
//! This is exactly what each `tdmatch serve` worker does with a batch it
//! takes from the queue — embed it directly when your application
//! already lives in the serving process and needs no protocol hop. For
//! the socket-fronted version, see `tdmatch serve` / `docs/SERVING.md`.

use tdmatch::core::config::TdConfig;
use tdmatch::core::corpus::{Corpus, Table, TextCorpus};
use tdmatch::core::pipeline::TdMatch;
use tdmatch::core::serving::{Matcher, Query};
use tdmatch::text::Preprocessor;

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

    // Fit once (the expensive step), publish, and load the artifact the
    // way a daemon would: memory-mapped, zero-copy.
    let model = TdMatch::new(TdConfig::for_tests())
        .fit(&Corpus::Table(movies), &Corpus::Text(reviews))
        .expect("fit");
    let path = std::env::temp_dir().join("tdmatch-daemon-example.tdm");
    model.save_artifact(&path).expect("save artifact");
    let matcher = Matcher::load(&path).expect("load artifact");
    println!(
        "loaded {} ({} targets, {} queries, dim {})",
        path.display(),
        matcher.targets(),
        matcher.queries(),
        matcher.dim(),
    );

    // A "batching window" worth of concurrent requests: two resident
    // documents by id, plus one free-text query embedded on the fly.
    let preprocessor = Preprocessor::default();
    let tokens = preprocessor.base_tokens("a tarantino movie that is really a comedy");
    let text_vector = matcher
        .artifact()
        .embed_tokens(&tokens)
        .expect("some token is in the vocabulary");
    let batch = [
        Query::ById(0),
        Query::ById(1),
        Query::ByVector(text_vector),
    ];

    // One engine call answers the whole batch (reuse the block across
    // batches in a real worker loop).
    let mut block = matcher.query_block();
    let (answers, _) = matcher.query_batch_with_mode(&mut block, &batch, 2, false);
    for (request, answer) in batch.iter().zip(&answers) {
        let ranked = answer.as_ref().expect("all requests are valid");
        let label = match request {
            Query::ById(id) => format!("review #{id}"),
            Query::ByVector(_) => "free text".to_string(),
        };
        let pretty: Vec<String> = ranked
            .iter()
            .map(|(t, s)| format!("tuple {t} ({s:.3})"))
            .collect();
        println!("{label:<9} -> {}", pretty.join(", "));
    }

    // The batched answers are bit-identical to serial matching.
    for (id, answer) in answers.iter().take(2).enumerate() {
        let serial = matcher.query_by_id(id, 2).expect("valid id");
        assert_eq!(answer.as_ref().unwrap(), &serial);
    }
    println!("batched answers verified bit-identical to serial matching");
    std::fs::remove_file(&path).ok();
}
