//! CRC-restamped `TDZ1` mutation suite.
//!
//! A bit flip or a truncation never reaches a structural validator: the
//! section CRC rejects it first. Here every mutation is *re-stamped* —
//! the file is written again around the mutated payload, so its section
//! CRCs and header CRC are valid — and the loaders' structural validators
//! are what decides: the artifact's header, term table, `ScoreMatrix` and
//! `HnswIndex` sections, and a saved graph's `CsrGraph` and label
//! sections. Mutations are bit flips and aligned `u32`/`u64` fields set
//! to 0, 1, rows − 1, rows and the type's maximum, one or two per file.
//! Every mutant loads or is refused with an error, never a panic. The
//! oracle is what serving needs from whatever the validators accept:
//!
//! * an accepted artifact answers every query without panicking, exact
//!   and ANN at pools {1, 8, rows} and k ∈ {1, 5, rows + 3}: ids are
//!   distinct and in range; an exact ranking of a present query is
//!   exactly `min(k, rows)` long (missing targets rank at −1); an ANN
//!   ranking is at most that long and at least `min(k, missing rows)`,
//!   the missing rows every pool is extended with. Every stored term
//!   embeds as a one-token text and ranks the same way, or is refused as
//!   non-finite;
//! * walks over an accepted CSR snapshot stay in range under every walk
//!   strategy, and its adjacency and weight-table accessors answer
//!   without panicking; a graph that `Graph::load_snapshot` accepts finds
//!   every node by its label and walks in range the same way.
//!
//! The vendored proptest shim does not shrink: a failing case prints its
//! input (the seed) and each mutation (section, offset, old → new bytes).

use std::panic::AssertUnwindSafe;

use proptest::prelude::*;

use tdmatch_core::artifact::{MatchArtifact, PersistError};
use tdmatch_core::serving::{Matcher, Query, QueryError};
use tdmatch_embed::ann::HnswParams;
use tdmatch_embed::walks::{generate_walk_corpus, WalkConfig, WalkStrategy};
use tdmatch_graph::container::{Container, ContainerWriter, SectionTag, Storage};
use tdmatch_graph::{
    CorpusSide, CsrGraph, EdgeKind, EdgeTypeWeights, Graph, MetaKind, NodeId, NodeKind,
};

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

type Sections = Vec<(SectionTag, Vec<u8>)>;

/// Every section of a container, in table order, as owned payloads.
fn sections(bytes: &[u8]) -> Sections {
    let container = Container::parse(bytes).expect("a valid container");
    let tags: Vec<SectionTag> = container.tags().collect();
    tags.into_iter()
        .map(|tag| (tag, container.require(tag).unwrap().bytes().to_vec()))
        .collect()
}

/// Writes `sections` as a fresh container: every section CRC and the
/// header CRC are computed anew, so a mutated payload passes them.
fn restamp(sections: &Sections) -> Vec<u8> {
    let mut w = ContainerWriter::new();
    for (tag, payload) in sections {
        w.add(*tag, payload.as_slice());
    }
    w.finish()
}

/// One mutation of a non-empty section whose tag `targets` accepts: a
/// bit flip, or an aligned `u32`/`u64` set to 0, 1, rows − 1, rows or the
/// maximum, where `rows` is `rows_of(tag)`. Returns what it did.
fn mutate(
    sections: &mut Sections,
    state: &mut u64,
    targets: impl Fn(SectionTag) -> bool,
    rows_of: impl Fn(SectionTag) -> u64,
) -> String {
    let hits: Vec<usize> = (0..sections.len())
        .filter(|&i| targets(sections[i].0) && !sections[i].1.is_empty())
        .collect();
    let (tag, payload) = &mut sections[hits[below(state, hits.len())]];
    let width = [1, 4, 8][below(state, 3)];
    let (at, new) = if width > payload.len() || width == 1 {
        let at = below(state, payload.len());
        (at, vec![payload[at] ^ (1 << below(state, 8))])
    } else {
        let at = below(state, payload.len() / width) * width;
        let rows = rows_of(*tag);
        let value = [0, 1, rows.wrapping_sub(1), rows, u64::MAX][below(state, 5)];
        let new = if width == 4 {
            (value as u32).to_le_bytes().to_vec()
        } else {
            value.to_le_bytes().to_vec()
        };
        (at, new)
    };
    let old = payload[at..at + new.len()].to_vec();
    payload[at..at + new.len()].copy_from_slice(&new);
    format!("{} @{at}: {old:02x?} -> {new:02x?}", tag.escape_ascii())
}

/// One or two mutations, re-stamped; the bytes and what was done.
fn mutated(
    base: &Sections,
    seed: u64,
    targets: impl Fn(SectionTag) -> bool,
    rows_of: impl Fn(SectionTag) -> u64,
) -> (Vec<u8>, String) {
    let mut state = seed;
    let mut sections = base.clone();
    let done: Vec<String> = (0..1 + below(&mut state, 2))
        .map(|_| mutate(&mut sections, &mut state, &targets, &rows_of))
        .collect();
    (restamp(&sections), done.join("; "))
}

/// Runs `oracle`, printing `what` (the mutation) if it panics.
fn checked(what: &str, oracle: impl FnOnce()) {
    if let Err(panic) = std::panic::catch_unwind(AssertUnwindSafe(oracle)) {
        eprintln!("mutation: {what}");
        std::panic::resume_unwind(panic);
    }
}

fn artifact_bytes(artifact: &MatchArtifact) -> Vec<u8> {
    let mut bytes = Vec::new();
    artifact.write_to(&mut bytes).expect("write to a Vec");
    bytes
}

fn load(bytes: &[u8]) -> Result<MatchArtifact, PersistError> {
    MatchArtifact::from_storage(&Storage::from_bytes(bytes))
}

const TARGETS: usize = 40;
const QUERIES: usize = 6;
const DIM: usize = 6;
/// Term labels of the fixture, of assorted lengths (one not ASCII).
const TERMS: [&str; 6] = ["t", "willis", "a longer term", "ü", "pulp fiction", "zz"];

/// 40 × 6 targets (every seventh missing) under an HNSW index of `m` 2,
/// deep enough for every layer kind to be mutated, 6 queries (the last
/// missing) and 6 terms.
fn fixture_artifact() -> MatchArtifact {
    let mut state = 0x7D21_0A11u64;
    let first = (0..TARGETS)
        .map(|i| (i % 7 != 3).then(|| row(&mut state, DIM)))
        .collect();
    let second = (0..QUERIES)
        .map(|i| (i != QUERIES - 1).then(|| row(&mut state, DIM)))
        .collect();
    let terms = TERMS
        .iter()
        .map(|t| (t.to_string(), row(&mut state, DIM)))
        .collect();
    let mut artifact = MatchArtifact::new(DIM, terms, first, second);
    artifact.build_ann(&HnswParams {
        m: 2,
        ef_construction: 8,
        seed: 5,
    });
    artifact
}

/// Distinct, in range, and as long as the oracle says.
fn assert_ranking(ranked: &[(usize, f32)], rows: usize, len: std::ops::RangeInclusive<usize>) {
    let mut ids: Vec<usize> = ranked.iter().map(|&(t, _)| t).collect();
    assert!(
        len.contains(&ids.len()),
        "{} entries, want {len:?}",
        ids.len()
    );
    assert!(ids.iter().all(|&t| t < rows), "an id out of range: {ids:?}");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), ranked.len(), "a repeated id: {ranked:?}");
}

/// Every query of an accepted artifact, exact and ANN: each query row by
/// id, two random vectors, and each stored term embedded as a one-token
/// text (refused as non-finite when its vector is).
fn answer_everything(artifact: MatchArtifact) {
    let rows = artifact.first_matrix().rows();
    let missing = artifact.first_matrix().invalid_rows().count();
    let second = artifact.second_matrix().clone();
    let mut state = 0xA11_u64;
    let mut queries: Vec<Query> = (0..second.rows()).map(Query::ById).collect();
    queries.extend((0..2).map(|_| Query::ByVector(row(&mut state, artifact.dim()))));
    let texts = queries.len();
    for label in artifact.term_labels() {
        let vector = artifact
            .term_vector(label)
            .expect("a listed term has a vector");
        assert_eq!(vector.len(), artifact.dim(), "term {label:?}");
        let embedded = artifact
            .embed_tokens(&[label])
            .expect("a known term embeds");
        queries.push(Query::ByVector(embedded));
    }
    let present = |q: &Query| match q {
        Query::ById(id) => second.is_valid(*id),
        Query::ByVector(_) => true,
    };
    for pool in [1, 8, rows.max(1)] {
        let matcher = Matcher::new(artifact.clone()).with_ann_pool(pool);
        let mut block = matcher.query_block();
        for k in [1, 5, rows + 3] {
            for ann in [false, true] {
                let (answers, _) = matcher.query_batch_with_mode(&mut block, &queries, k, ann);
                for (i, (q, answer)) in queries.iter().zip(&answers).enumerate() {
                    let ranked = match answer {
                        Err(QueryError::NonFinite) if i >= texts => continue,
                        answer => answer.as_ref().expect("every query is well-formed"),
                    };
                    let most = if present(q) { k.min(rows) } else { 0 };
                    let least = match (present(q), ann) {
                        (false, _) => 0,
                        (true, false) => most,
                        (true, true) => k.min(missing),
                    };
                    assert_ranking(ranked, rows, least..=most);
                }
            }
        }
    }
}

/// Every artifact section: header, term labels and vectors, and the
/// score-matrix and HNSW sections of either slot.
fn artifact_target(tag: SectionTag) -> bool {
    tag.starts_with(b"A") || tag.starts_with(b"SM")
}

/// The count a field of `tag` is about: the term count for the header
/// and term table (the header's dim is 6 too), else the slot's matrix
/// rows.
fn artifact_rows(tag: SectionTag) -> u64 {
    match &tag {
        b"AHDR" | b"ALBL" | b"AVEC" => TERMS.len() as u64,
        _ if tag[3] == 1 => QUERIES as u64,
        _ => TARGETS as u64,
    }
}

#[test]
fn the_fixture_index_has_upper_layers() {
    let layers = fixture_artifact().ann().expect("indexed").layers();
    assert!(layers >= 3, "{layers} layers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Whatever a re-stamped artifact mutation gets past the validators
    /// answers every query with distinct, in-range ids.
    #[test]
    fn an_accepted_artifact_answers_every_query(seed in 0u64..u64::MAX) {
        let base = sections(&artifact_bytes(&fixture_artifact()));
        let (bytes, what) = mutated(&base, seed, artifact_target, artifact_rows);
        if let Ok(artifact) = load(&bytes) {
            checked(&what, || answer_everything(artifact));
        }
    }
}

/// The graph behind the CSR fixture: two documents per side and their
/// terms, every edge kind, and two tombstones.
fn fixture_graph() -> Graph {
    let mut g = Graph::new();
    let kinds = EdgeKind::ALL;
    let terms: Vec<NodeId> = (0..14)
        .map(|i| g.intern_data(&format!("term{i}")))
        .collect();
    for d in 0..4 {
        let side = if d < 2 {
            CorpusSide::First
        } else {
            CorpusSide::Second
        };
        let doc = g.add_meta(&format!("doc{d}"), side, MetaKind::TextDoc, d as u32);
        for t in (d..terms.len()).step_by(3) {
            g.add_edge_typed(doc, terms[t], kinds[(d + t) % kinds.len()]);
        }
    }
    for t in 1..terms.len() {
        g.add_edge_typed(terms[t - 1], terms[t], kinds[t % kinds.len()]);
    }
    g.remove_node(terms[4]);
    g.remove_node(terms[9]);
    g
}

/// Every accessor over an accepted snapshot, then walks under every
/// strategy: each token a node id below the id bound.
fn walk_everything(csr: &CsrGraph) {
    let bound = csr.id_bound();
    for id in (0..bound as u32).map(NodeId) {
        let _ = (csr.kind(id), csr.is_removed(id), csr.neighbor_kinds(id));
        for &t in csr.neighbors(id) {
            assert!(t.index() < bound, "node {} links {}", id.index(), t.index());
            let _ = (csr.has_edge(id, t), csr.edge_kind(id, t));
        }
    }
    let _ = (csr.metadata_nodes(None), csr.nodes().count());
    let cum = csr.edge_type_cum(&EdgeTypeWeights::uniform().with(EdgeKind::External, 2.0));
    for id in (0..bound as u32).map(NodeId) {
        let _ = csr.cum_slice(&cum, id);
    }
    let stranding = EdgeTypeWeights::uniform().with(EdgeKind::Generic, 0.0);
    for strategy in [
        WalkStrategy::Uniform,
        WalkStrategy::Node2Vec { p: 0.5, q: 2.0 },
        WalkStrategy::EdgeTyped(EdgeTypeWeights::uniform().with(EdgeKind::Contains, 3.0)),
        WalkStrategy::EdgeTyped(stranding),
    ] {
        let config = WalkConfig {
            walks_per_node: 2,
            walk_len: 8,
            seed: 3,
            strategy,
        };
        let corpus = generate_walk_corpus(csr, &config);
        let stray = corpus.tokens().iter().find(|&&t| t as usize >= bound);
        assert!(
            stray.is_none(),
            "{strategy:?} walked to {stray:?}, bound {bound}"
        );
    }
}

/// A graph `Graph::load_snapshot` accepted: every node found again by
/// its label, every neighbour in range, then the walks of
/// [`walk_everything`] over its frozen snapshot.
fn use_everything(g: &Graph) {
    for n in g.nodes() {
        let label = g.label(n);
        let found = match g.kind(n) {
            NodeKind::Meta { .. } => g.meta_node(label),
            _ => g.data_node(label),
        };
        assert_eq!(found, Some(n), "label {label:?}");
        assert!(g.neighbors(n).iter().all(|m| m.index() < g.id_bound()));
    }
    walk_everything(&CsrGraph::from_graph(g));
}

/// The bytes of `fixture_graph()` saved with `Graph::save_snapshot`: the
/// `CsrGraph` sections plus the `GLBL` label section.
fn saved_fixture_graph() -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("tdmatch-mutation-{}.tdz", std::process::id()));
    fixture_graph().save_snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Whatever a re-stamped mutation of a saved graph gets past the
    /// validators walks in range, read as a frozen snapshot
    /// (`CsrGraph::from_sections`) and as a mutable graph
    /// (`Graph::load_snapshot`).
    #[test]
    fn an_accepted_saved_graph_walks_in_range(seed in 0u64..u64::MAX) {
        let base = sections(&saved_fixture_graph());
        let bound = CsrGraph::from_graph(&fixture_graph()).id_bound() as u64;
        let (bytes, what) = mutated(&base, seed, |_| true, |_| bound);
        let storage = Storage::from_bytes(&bytes);
        let accepted = storage
            .container()
            .and_then(|c| CsrGraph::from_sections(&storage, &c));
        if let Ok(csr) = accepted {
            checked(&what, || walk_everything(&csr));
        }
        let path = std::env::temp_dir()
            .join(format!("tdmatch-mutation-{}-{seed}.tdz", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        checked(&what, || {
            if let Ok(g) = Graph::load_snapshot(&path) {
                use_everything(&g);
            }
        });
        std::fs::remove_file(&path).ok();
    }
}

/// The probe's artifact: `rows` × 4 targets with every third row missing,
/// and an index spliced in from the same rows *all present*, so it links
/// rows the matrix marks missing. CRC-valid throughout.
fn index_linking_missing_rows(rows: usize) -> Vec<u8> {
    let mut state = 0x0BAD_1DE5u64;
    let full: Vec<Option<Vec<f32>>> = (0..rows).map(|_| Some(row(&mut state, 4))).collect();
    let holed = full
        .iter()
        .enumerate()
        .map(|(i, r)| if i % 3 == 2 { None } else { r.clone() })
        .collect();
    let queries: Vec<Option<Vec<f32>>> = (0..4).map(|_| Some(row(&mut state, 4))).collect();
    let terms = vec![("t".to_string(), row(&mut state, 4))];
    let mut indexed = MatchArtifact::new(4, terms.clone(), full, queries.clone());
    indexed.build_ann(&HnswParams::default());
    let served = MatchArtifact::new(4, terms, holed, queries);

    let mut spliced = sections(&artifact_bytes(&served));
    let index = sections(&artifact_bytes(&indexed));
    spliced.extend(index.into_iter().filter(|(tag, _)| tag.starts_with(b"AN")));
    restamp(&spliced)
}

/// Regression, found by the suite (seed 4117280585455740708): a
/// CRC-valid artifact whose target rows hold NaN loads, and the exact
/// scan's final sort panicked on the NaN scores.
#[test]
fn nan_target_rows_answer_every_query() {
    let mut spliced = sections(&artifact_bytes(&fixture_artifact()));
    let (_, data) = spliced.iter_mut().find(|(tag, _)| tag == b"SMD\0").unwrap();
    for r in [0, 8, 32] {
        data[r * DIM * 4..][..8].fill(0xFF);
    }
    let artifact = load(&restamp(&spliced)).expect("no validator reads the row values");
    answer_everything(artifact);
}

/// Regression: an index linking rows the matrix marks missing used to
/// load, and an ANN ranking then listed those rows twice — walked into
/// the pool, then appended again as missing rows (k 60 at pool 50: 60
/// entries, 45 distinct ids).
#[test]
fn an_index_linking_a_missing_row_is_refused() {
    let err = load(&index_linking_missing_rows(60)).expect_err("the index links missing rows");
    assert!(
        matches!(err, PersistError::Invalid(what) if what.contains("missing row")),
        "{err}"
    );
}
