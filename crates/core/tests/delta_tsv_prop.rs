//! Hostile delta TSV suite.
//!
//! A delta file crosses a trust boundary: `tdmatch ingest` reads it from
//! disk and `DeltaBatch::from_tsv` parses it by hand. Here generated
//! text — arbitrary bytes, and lines assembled from op names, tabs and
//! row indices at the parser's edges (`+5`, ` 5`, `-1`, 2^64, `\r`,
//! empty fields, NUL) — goes through `from_tsv` and then `apply_delta`
//! on a small indexed artifact. The oracle:
//!
//! * nothing panics;
//! * a batch `apply_delta` refuses leaves the artifact unchanged, bit
//!   for bit (its saved bytes);
//! * an applied batch leaves an artifact that saves and loads, and that
//!   answers every query, exact and ANN at pools {1, 8, rows}, with
//!   distinct, in-range ids.
//!
//! The vendored proptest shim does not shrink: a failing case prints its
//! seed, and the text it parsed.

use std::panic::AssertUnwindSafe;

use proptest::prelude::*;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::delta::DeltaBatch;
use tdmatch_core::serving::{Matcher, Query};
use tdmatch_embed::ann::HnswParams;
use tdmatch_graph::container::Storage;
use tdmatch_text::Preprocessor;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw below `n` (> 0).
fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

fn row(state: &mut u64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}

const TARGETS: usize = 24;
const QUERIES: usize = 4;
const DIM: usize = 6;

/// Document words; each is a term of the fixture's frozen vocabulary.
const WORDS: &[&str] = &["quentin", "tarantino", "bruce", "willis", "thriller", "comedy"];

/// 24 × 6 targets (every fifth missing) under an HNSW index, 4 queries,
/// and a vocabulary holding the pre-processed form of every word in
/// `WORDS`, so parsed appends and updates embed to real rows.
fn fixture(pre: &Preprocessor) -> MatchArtifact {
    let mut state = 0xDE17_A75Fu64;
    let first = (0..TARGETS)
        .map(|i| (i % 5 != 2).then(|| row(&mut state, DIM)))
        .collect();
    let second = (0..QUERIES).map(|_| Some(row(&mut state, DIM))).collect();
    let mut terms: Vec<(String, Vec<f32>)> = Vec::new();
    for word in WORDS {
        for term in pre.terms_of_fields([*word]) {
            if !terms.iter().any(|(t, _)| *t == term) {
                terms.push((term, row(&mut state, DIM)));
            }
        }
    }
    let mut artifact = MatchArtifact::new(DIM, terms, first, second);
    artifact.build_ann(&HnswParams {
        m: 4,
        ef_construction: 16,
        seed: 3,
    });
    artifact
}

fn saved(artifact: &MatchArtifact) -> Vec<u8> {
    let mut bytes = Vec::new();
    artifact.write_to(&mut bytes).expect("write to a Vec");
    bytes
}

/// Row indices at the parser's edges, in range and out of it.
fn row_index(state: &mut u64) -> String {
    let rows = TARGETS;
    let picks = [
        "0".to_string(),
        "3".to_string(),
        (rows - 1).to_string(),
        rows.to_string(),
        (rows + 1).to_string(),
        "+5".to_string(),
        " 5".to_string(),
        "5 ".to_string(),
        "-1".to_string(),
        "-0".to_string(),
        "18446744073709551616".to_string(),
        "18446744073709551615".to_string(),
        "99999999999999999999999".to_string(),
        "5\r".to_string(),
        String::new(),
        "\0".to_string(),
        "5\0".to_string(),
        "0x5".to_string(),
        "1e3".to_string(),
        "٣".to_string(),
        "00000000000000000000003".to_string(),
    ];
    picks[below(state, picks.len())].clone()
}

/// A field: words, nothing, or control characters.
fn field(state: &mut u64) -> String {
    match below(state, 6) {
        0 => String::new(),
        1 => "\0".to_string(),
        2 => " \r ".to_string(),
        3 => "#not a comment".to_string(),
        _ => (0..1 + below(state, 3))
            .map(|_| WORDS[below(state, WORDS.len())])
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// One line: mostly an op in the shape it takes (with an edge-case row
/// index), sometimes a comment or a blank, sometimes an op name or near
/// miss followed by any mix of row indices and fields.
fn line(state: &mut u64) -> String {
    let fields = |state: &mut u64| {
        (0..1 + below(state, 2))
            .map(|_| field(state))
            .collect::<Vec<_>>()
            .join("\t")
    };
    match below(state, 10) {
        0..=2 => format!("append\t{}", fields(state)),
        3..=4 => format!("update\t{}\t{}", row_index(state), fields(state)),
        5..=6 => format!("tombstone\t{}", row_index(state)),
        7 => ["", "# a comment", "  ", "\t", " # indented"][below(state, 5)].to_string(),
        _ => {
            let ops = [
                "append", "update", "tombstone", "Append", "append ", " update", "", "#", "\0",
            ];
            let mut parts = vec![ops[below(state, ops.len())].to_string()];
            for _ in 0..below(state, 4) {
                parts.push(if below(state, 2) == 0 {
                    row_index(state)
                } else {
                    field(state)
                });
            }
            parts.join("\t")
        }
    }
}

/// Arbitrary bytes, lossily decoded, or assembled lines.
fn hostile_text(seed: u64) -> String {
    let mut state = seed;
    if below(&mut state, 4) == 0 {
        let bytes: Vec<u8> = (0..below(&mut state, 200))
            .map(|_| {
                let alphabet = b"\t\n\r\0 0123456789+-#appendupdatetombstone\xff\xc3";
                if below(&mut state, 3) == 0 {
                    splitmix(&mut state) as u8
                } else {
                    alphabet[below(&mut state, alphabet.len())]
                }
            })
            .collect();
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    let newline = ["\n", "\r\n", "\r"][below(&mut state, 3)];
    (0..below(&mut state, 8))
        .map(|_| line(&mut state))
        .collect::<Vec<_>>()
        .join(newline)
}

/// Every query of `artifact`, exact and ANN: distinct, in-range ids.
fn answer_everything(artifact: &MatchArtifact) {
    let rows = artifact.first_matrix().rows();
    let queries: Vec<Query> = (0..QUERIES).map(Query::ById).collect();
    for pool in [1, 8, rows.max(1)] {
        let matcher = Matcher::new(artifact.clone()).with_ann_pool(pool);
        let mut block = matcher.query_block();
        for k in [1, 5, rows + 3] {
            for ann in [false, true] {
                let (answers, _) = matcher.query_batch_with_mode(&mut block, &queries, k, ann);
                for answer in &answers {
                    let ranked = answer.as_ref().expect("every query is well-formed");
                    let mut ids: Vec<usize> = ranked.iter().map(|&(t, _)| t).collect();
                    assert!(ids.len() <= k.min(rows), "{} entries for k {k}", ids.len());
                    assert!(ids.iter().all(|&t| t < rows), "an id out of range: {ids:?}");
                    ids.sort_unstable();
                    ids.dedup();
                    assert_eq!(ids.len(), ranked.len(), "a repeated id: {ranked:?}");
                }
            }
        }
    }
}

/// Parses `text`, applies what parses, and checks the oracle.
fn ingest(pre: &Preprocessor, base: &MatchArtifact, base_bytes: &[u8], text: &str) {
    let Ok(batch) = DeltaBatch::from_tsv(text, pre) else {
        return;
    };
    let mut artifact = base.clone();
    match artifact.apply_delta(&batch) {
        Err(_) => assert_eq!(saved(&artifact), base_bytes, "a refused batch changed the artifact"),
        Ok(summary) => {
            assert_eq!(summary.rows, artifact.first_matrix().rows());
            let bytes = saved(&artifact);
            let loaded = MatchArtifact::from_storage(&Storage::from_bytes(&bytes))
                .expect("an applied batch saves a loadable artifact");
            answer_everything(&artifact);
            answer_everything(&loaded);
        }
    }
}

/// Runs the oracle on `text`, printing it if anything panics.
fn checked(pre: &Preprocessor, base: &MatchArtifact, base_bytes: &[u8], text: &str) {
    let run = AssertUnwindSafe(|| ingest(pre, base, base_bytes, text));
    if let Err(panic) = std::panic::catch_unwind(run) {
        eprintln!("delta text: {text:?}");
        std::panic::resume_unwind(panic);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Hostile delta text never panics the parser or the apply, a refused
    /// batch changes nothing, and an applied one still serves.
    #[test]
    fn hostile_delta_text_is_applied_whole_or_refused_whole(seed in 0u64..u64::MAX) {
        let pre = Preprocessor::default();
        let base = fixture(&pre);
        let base_bytes = saved(&base);
        checked(&pre, &base, &base_bytes, &hostile_text(seed));
    }
}

/// Every row-index edge case alone on an `update` and a `tombstone`
/// line: parsed or refused, then the oracle.
#[test]
fn row_index_edge_cases() {
    let pre = Preprocessor::default();
    let base = fixture(&pre);
    let base_bytes = saved(&base);
    let mut state = 0u64;
    for _ in 0..400 {
        let index = row_index(&mut state);
        for text in [
            format!("update\t{index}\tbruce willis"),
            format!("tombstone\t{index}"),
            format!("append\tquentin\nupdate\t{index}\tcomedy\ntombstone\t{index}"),
        ] {
            checked(&pre, &base, &base_bytes, &text);
        }
    }
}

/// The fixture's vocabulary is what parsed appends embed against.
#[test]
fn fixture_appends_embed() {
    let pre = Preprocessor::default();
    let mut artifact = fixture(&pre);
    let batch = DeltaBatch::from_tsv("append\tbruce willis\n", &pre).unwrap();
    artifact.apply_delta(&batch).unwrap();
    assert!(artifact.first_matrix().is_valid(TARGETS));
}

