//! Graph creation — the paper's Algorithm 1 plus §II-B filtering and
//! §II-C merging.
//!
//! Both corpora become one undirected graph: a metadata node per document
//! (and per table attribute), a data node per term, and edges connecting
//! documents (and attributes) to their terms. Metadata nodes of different
//! corpora are never connected directly — discovering those connections
//! *is* the downstream matching task. Taxonomy nodes of the same
//! structured document are connected to their parents.

use std::collections::{HashMap, HashSet};

use tdmatch_graph::{CorpusSide, EdgeKind, Graph, MetaKind, NodeId};
use tdmatch_kb::PretrainedModel;
use tdmatch_text::ngrams::ngrams;
use tdmatch_text::Preprocessor;

use crate::config::{FilterMode, TdConfig};
use crate::corpus::Corpus;
use crate::merging::{similarity_merge, MergeStats, NumericBuckets};

/// Stable label of the metadata node for document `i` of a corpus side.
pub fn doc_label(side: CorpusSide, i: usize) -> String {
    match side {
        CorpusSide::First => format!("A:doc{i}"),
        CorpusSide::Second => format!("B:doc{i}"),
    }
}

/// Stable label of the metadata node for column `j` of a corpus side.
pub fn col_label(side: CorpusSide, j: usize) -> String {
    match side {
        CorpusSide::First => format!("A:col{j}"),
        CorpusSide::Second => format!("B:col{j}"),
    }
}

/// Statistics of graph creation.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Distinct term nodes created.
    pub terms_created: usize,
    /// Term occurrences dropped by filtering (Intersect / TF-IDF).
    pub terms_filtered: usize,
    /// Whether numeric bucketing was active.
    pub bucketing_active: bool,
    /// Similarity merging outcome (zero when disabled).
    pub merge: MergeStats,
}

/// The output of graph creation.
#[derive(Debug)]
pub struct BuiltGraph {
    /// The joint graph.
    pub graph: Graph,
    /// Creation statistics.
    pub stats: BuildStats,
}

/// Per-document base tokens, one list per field (n-grams never cross
/// fields).
type DocTokens = Vec<Vec<String>>;

/// Builds the joint graph over two corpora.
///
/// `merge` optionally enables §II-C similarity merging with the given
/// pre-trained model and threshold γ.
pub fn build_graph(
    first: &Corpus,
    second: &Corpus,
    config: &TdConfig,
    merge: Option<(&PretrainedModel, f32)>,
) -> BuiltGraph {
    let pre = Preprocessor::new(config.preprocess.clone());
    let mut stats = BuildStats::default();

    // 1. Base tokens per document per field, for both corpora.
    let mut tokens: [Vec<DocTokens>; 2] = [tokenize_corpus(first, &pre), tokenize_corpus(second, &pre)];

    // 2. Optional numeric bucketing fitted over both corpora (§II-C).
    let buckets = if config.bucket_numbers {
        let values: Vec<f64> = tokens
            .iter()
            .flatten()
            .flatten()
            .flatten()
            .filter_map(|t| tdmatch_text::normalize::parse_number(t))
            .collect();
        let b = NumericBuckets::fit(&values);
        stats.bucketing_active = b.is_enabled();
        b
    } else {
        NumericBuckets::default()
    };
    if buckets.is_enabled() {
        for corpus_tokens in &mut tokens {
            for doc in corpus_tokens.iter_mut() {
                for field in doc.iter_mut() {
                    for tok in field.iter_mut() {
                        let mapped = buckets.map_term(tok);
                        if mapped != *tok {
                            *tok = mapped;
                        }
                    }
                }
            }
        }
    }

    // 3. TF-IDF filtering keeps the k best tokens per document (Fig. 9
    //    baseline); applied to base tokens so n-grams respect it.
    if let FilterMode::TfIdf { k } = config.filtering {
        for corpus_tokens in &mut tokens {
            tfidf_filter(corpus_tokens, k, &mut stats);
        }
    }

    // 4. Decide the seed corpus for Intersect filtering: the one with the
    //    smaller distinct-token count creates term nodes; the other only
    //    attaches to existing terms (§II-B).
    let distinct: [usize; 2] = [distinct_tokens(&tokens[0]), distinct_tokens(&tokens[1])];
    let seed_first = distinct[0] <= distinct[1];
    let order: [usize; 2] = if seed_first { [0, 1] } else { [1, 0] };

    let mut graph = Graph::with_capacity(distinct[0] + distinct[1]);

    // 5. Metadata skeleton for both corpora (doc nodes, attribute nodes,
    //    taxonomy parent edges) — Alg. 1 lines 3–17 / 27–28.
    let corpora: [&Corpus; 2] = [first, second];
    let sides: [CorpusSide; 2] = [CorpusSide::First, CorpusSide::Second];
    for c in 0..2 {
        add_metadata_skeleton(&mut graph, corpora[c], sides[c], config.taxonomy_edges);
    }

    // 6. Term nodes and edges, seed corpus first.
    for (round, &c) in order.iter().enumerate() {
        let create_terms = round == 0 || config.filtering != FilterMode::Intersect;
        add_term_edges(
            &mut graph,
            corpora[c],
            sides[c],
            &tokens[c],
            config.preprocess.max_ngram,
            create_terms,
            &mut stats,
        );
    }

    // 7. Similarity merging (§II-C) over the finished graph. The token
    //    lists are done with; the merge's scratch takes their place.
    drop(tokens);
    if let Some((model, gamma)) = merge {
        stats.merge = similarity_merge(&mut graph, model, gamma);
    }

    stats.terms_created = graph
        .nodes()
        .filter(|&n| !graph.kind(n).is_metadata())
        .count();

    BuiltGraph { graph, stats }
}

/// Tokenizes every document of a corpus into per-field base tokens.
fn tokenize_corpus(corpus: &Corpus, pre: &Preprocessor) -> Vec<DocTokens> {
    (0..corpus.len())
        .map(|i| {
            corpus
                .fields(i)
                .iter()
                .map(|f| pre.base_tokens(f))
                .collect()
        })
        .collect()
}

fn distinct_tokens(docs: &[DocTokens]) -> usize {
    let mut set = HashSet::new();
    for doc in docs {
        for field in doc {
            for tok in field {
                set.insert(tok.as_str());
            }
        }
    }
    set.len()
}

/// Creates metadata nodes (and taxonomy parent edges) for one corpus.
fn add_metadata_skeleton(g: &mut Graph, corpus: &Corpus, side: CorpusSide, taxonomy_edges: bool) {
    match corpus {
        Corpus::Table(t) => {
            for j in 0..t.columns.len() {
                g.add_meta(&col_label(side, j), side, MetaKind::Attribute, j as u32);
            }
            for i in 0..t.rows.len() {
                g.add_meta(&doc_label(side, i), side, MetaKind::Tuple, i as u32);
            }
        }
        Corpus::Structured(s) => {
            for (i, node) in s.nodes.iter().enumerate() {
                let id = g.add_meta(&doc_label(side, i), side, MetaKind::Taxonomy, i as u32);
                if !taxonomy_edges {
                    continue;
                }
                if let Some(p) = node.parent {
                    let pid = g
                        .meta_node(&doc_label(side, p))
                        .expect("parents precede children");
                    g.add_edge_typed(id, pid, EdgeKind::Hierarchy);
                }
            }
        }
        Corpus::Text(t) => {
            for i in 0..t.docs.len() {
                g.add_meta(&doc_label(side, i), side, MetaKind::TextDoc, i as u32);
            }
        }
    }
}

/// Adds term nodes (when `create_terms`) and document/attribute → term
/// edges for one corpus.
fn add_term_edges(
    g: &mut Graph,
    corpus: &Corpus,
    side: CorpusSide,
    tokens: &[DocTokens],
    max_ngram: usize,
    create_terms: bool,
    stats: &mut BuildStats,
) {
    let is_table = matches!(corpus, Corpus::Table(_));
    for (i, doc) in tokens.iter().enumerate() {
        let doc_node = g
            .meta_node(&doc_label(side, i))
            .expect("metadata skeleton built first");
        for (j, field) in doc.iter().enumerate() {
            let col_node: Option<NodeId> = if is_table {
                g.meta_node(&col_label(side, j))
            } else {
                None
            };
            for term in ngrams(field, max_ngram) {
                let term_node = if create_terms {
                    Some(g.intern_data(&term))
                } else {
                    match g.data_node(&term) {
                        Some(n) => Some(n),
                        None => {
                            stats.terms_filtered += 1;
                            None
                        }
                    }
                };
                if let Some(tn) = term_node {
                    g.add_edge_typed(doc_node, tn, EdgeKind::Contains);
                    if let Some(cn) = col_node {
                        g.add_edge_typed(cn, tn, EdgeKind::ColumnOf);
                    }
                }
            }
        }
    }
}

/// Keeps only the `k` highest-TF-IDF tokens per document, in place.
fn tfidf_filter(docs: &mut [DocTokens], k: usize, stats: &mut BuildStats) {
    let n_docs = docs.len().max(1);
    // Document frequency per token.
    let mut df: HashMap<String, usize> = HashMap::new();
    for doc in docs.iter() {
        let mut seen = HashSet::new();
        for field in doc {
            for tok in field {
                if seen.insert(tok.as_str()) {
                    *df.entry(tok.clone()).or_insert(0) += 1;
                }
            }
        }
    }
    for doc in docs.iter_mut() {
        // Term frequency within the document.
        let mut tf: HashMap<&str, usize> = HashMap::new();
        for field in doc.iter() {
            for tok in field {
                *tf.entry(tok.as_str()).or_insert(0) += 1;
            }
        }
        let mut scored: Vec<(&str, f64)> = tf
            .iter()
            .map(|(&tok, &f)| {
                let idf = (n_docs as f64 / (1.0 + df[tok] as f64)).ln().max(0.0);
                (tok, f as f64 * idf)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        let keep: HashSet<String> = scored.iter().take(k).map(|(t, _)| t.to_string()).collect();
        for field in doc.iter_mut() {
            let before = field.len();
            field.retain(|t| keep.contains(t));
            stats.terms_filtered += before - field.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Table, TextCorpus};

    fn movie_corpora() -> (Corpus, Corpus) {
        let table = Table::new(
            "movies",
            vec!["title".into(), "director".into(), "genre".into()],
            vec![
                vec!["The Sixth Sense".into(), "Shyamalan".into(), "Thriller".into()],
                vec!["Pulp Fiction".into(), "Tarantino".into(), "Drama".into()],
            ],
        );
        let reviews = TextCorpus::new(vec![
            "a tarantino movie that is really a comedy".into(),
            "shyamalan directs a thriller with a twist".into(),
        ]);
        (Corpus::Table(table), Corpus::Text(reviews))
    }

    fn config() -> TdConfig {
        TdConfig::for_tests()
    }

    #[test]
    fn figure4_structure() {
        let (first, second) = movie_corpora();
        let built = build_graph(&first, &second, &config(), None);
        let g = &built.graph;
        // 2 tuples + 3 columns + 2 paragraphs metadata nodes.
        assert_eq!(g.metadata_nodes(None).len(), 7);
        // Tuple t1 connects to its terms.
        let t1 = g.meta_node("A:doc1").unwrap();
        let tarantino = g.data_node("tarantino").unwrap();
        assert!(g.has_edge(t1, tarantino));
        // Column node connects to both directors.
        let col_director = g.meta_node("A:col1").unwrap();
        assert!(g.has_edge(col_director, tarantino));
        // Review p0 attaches to the shared term.
        let p0 = g.meta_node("B:doc0").unwrap();
        assert!(g.has_edge(p0, tarantino));
    }

    #[test]
    fn builder_tags_edge_kinds() {
        let (first, second) = movie_corpora();
        let built = build_graph(&first, &second, &config(), None);
        let g = &built.graph;
        let t1 = g.meta_node("A:doc1").unwrap();
        let col_director = g.meta_node("A:col1").unwrap();
        let tarantino = g.data_node("tarantino").unwrap();
        assert_eq!(g.edge_kind(t1, tarantino), Some(EdgeKind::Contains));
        assert_eq!(g.edge_kind(col_director, tarantino), Some(EdgeKind::ColumnOf));
        // Every edge in a freshly built graph has a non-Generic kind.
        for (a, b, kind) in g.edges_with_kinds() {
            assert_ne!(kind, EdgeKind::Generic, "untyped edge {a}-{b}");
        }
    }

    #[test]
    fn taxonomy_edges_are_hierarchy_kind() {
        use crate::corpus::{StructuredText, TaxonomyNode};
        let tax = StructuredText::new(vec![
            TaxonomyNode { text: "audit".into(), parent: None },
            TaxonomyNode { text: "audit programme".into(), parent: Some(0) },
        ]);
        let docs = TextCorpus::new(vec!["the audit programme".into()]);
        let built = build_graph(&Corpus::Structured(tax), &Corpus::Text(docs), &config(), None);
        let g = &built.graph;
        let n0 = g.meta_node("A:doc0").unwrap();
        let n1 = g.meta_node("A:doc1").unwrap();
        assert_eq!(g.edge_kind(n0, n1), Some(EdgeKind::Hierarchy));
    }

    #[test]
    fn metadata_nodes_never_connect_across_corpora() {
        let (first, second) = movie_corpora();
        let built = build_graph(&first, &second, &config(), None);
        let g = &built.graph;
        for (a, b) in g.edges() {
            let (ka, kb) = (g.kind(a), g.kind(b));
            if ka.is_metadata() && kb.is_metadata() {
                assert_eq!(ka.side(), kb.side(), "cross-corpus metadata edge {a}-{b}");
            }
        }
    }

    #[test]
    fn intersect_filters_second_corpus_terms() {
        let (first, second) = movie_corpora();
        let built = build_graph(&first, &second, &config(), None);
        // "twist" appears only in reviews; table is the seed corpus (fewer
        // distinct tokens), so "twist" must be filtered out.
        assert!(built.graph.data_node("twist").is_none());
        assert!(built.stats.terms_filtered > 0);
    }

    #[test]
    fn no_filtering_keeps_everything() {
        let (first, second) = movie_corpora();
        let cfg = TdConfig {
            filtering: FilterMode::None,
            ..config()
        };
        let built = build_graph(&first, &second, &cfg, None);
        assert!(built.graph.data_node("twist").is_some());
    }

    #[test]
    fn ngram_terms_exist_for_titles() {
        let (first, second) = movie_corpora();
        let built = build_graph(&first, &second, &config(), None);
        // Multi-token title terms: stemmed "sixth sens" bigram node.
        let bigram = built.graph.data_node("sixth sens");
        assert!(bigram.is_some(), "title bigram missing");
    }

    #[test]
    fn taxonomy_parents_are_linked() {
        use crate::corpus::{StructuredText, TaxonomyNode};
        let tax = StructuredText::new(vec![
            TaxonomyNode { text: "audit".into(), parent: None },
            TaxonomyNode { text: "audit programme".into(), parent: Some(0) },
        ]);
        let docs = TextCorpus::new(vec!["the audit programme for planning".into()]);
        let built = build_graph(
            &Corpus::Structured(tax),
            &Corpus::Text(docs),
            &config(),
            None,
        );
        let g = &built.graph;
        let n0 = g.meta_node("A:doc0").unwrap();
        let n1 = g.meta_node("A:doc1").unwrap();
        assert!(g.has_edge(n0, n1), "taxonomy hierarchy edge missing");
    }

    #[test]
    fn tfidf_filtering_reduces_terms() {
        let (first, second) = movie_corpora();
        let none = build_graph(
            &first,
            &second,
            &TdConfig { filtering: FilterMode::None, ..config() },
            None,
        );
        let tfidf = build_graph(
            &first,
            &second,
            &TdConfig { filtering: FilterMode::TfIdf { k: 2 }, ..config() },
            None,
        );
        assert!(tfidf.stats.terms_created < none.stats.terms_created);
    }

    #[test]
    fn bucketing_merges_numeric_cells() {
        let table = Table::new(
            "cases",
            vec!["country".into(), "cases".into()],
            (0..30)
                .map(|i| vec![format!("country{i}"), format!("{}", 100 + i)])
                .collect(),
        );
        let text = TextCorpus::new(vec!["country5 has 105 cases".into()]);
        let cfg = TdConfig {
            bucket_numbers: true,
            filtering: FilterMode::None,
            ..config()
        };
        let built = build_graph(&Corpus::Table(table), &Corpus::Text(text), &cfg, None);
        assert!(built.stats.bucketing_active);
        // Raw numeric labels replaced by bucket labels.
        assert!(built.graph.data_node("105").is_none());
        let has_bucket = built
            .graph
            .nodes()
            .any(|n| built.graph.label(n).starts_with("num["));
        assert!(has_bucket);
    }

    /// Regression: a digit string past `f64::MAX` parsed as +inf, pushed
    /// the fitted upper quartile (of 1, 99, inf) and so the bucket width
    /// to infinity, and every number landed in one bucket, `num[NaN..NaN)`.
    #[test]
    fn an_overflowing_cell_leaves_the_other_numbers_bucketed_apart() {
        let hostile = "9".repeat(400);
        let table = Table::new(
            "counts",
            vec!["n".into()],
            ["1", "99", &hostile].iter().map(|c| vec![c.to_string()]).collect(),
        );
        let text = TextCorpus::new(vec!["no numbers".into()]);
        let cfg = TdConfig {
            bucket_numbers: true,
            filtering: FilterMode::None,
            ..config()
        };
        let built = build_graph(&Corpus::Table(table), &Corpus::Text(text), &cfg, None);
        let g = &built.graph;
        assert!(built.stats.bucketing_active);
        let bucket_of = |row: &str| {
            let doc = g.meta_node(row).unwrap();
            let labels: Vec<&str> = g
                .neighbors(doc)
                .iter()
                .map(|&n| g.label(n))
                .filter(|l| l.starts_with("num["))
                .collect();
            assert_eq!(labels.len(), 1, "{row}: {labels:?}");
            labels[0].to_string()
        };
        let (one, ninety_nine) = (bucket_of("A:doc0"), bucket_of("A:doc1"));
        assert_ne!(one, ninety_nine);
        assert!(!one.contains("inf") && !ninety_nine.contains("inf"), "{one} {ninety_nine}");
        // The overflowing cell stays a plain term.
        assert!(g.data_node(&hostile).is_some());
    }

    #[test]
    fn empty_corpora_build_empty_graphs() {
        let built = build_graph(
            &Corpus::Text(TextCorpus::new(vec![])),
            &Corpus::Text(TextCorpus::new(vec![])),
            &config(),
            None,
        );
        assert_eq!(built.graph.node_count(), 0);
    }

    #[test]
    fn stats_count_terms() {
        let (first, second) = movie_corpora();
        let built = build_graph(&first, &second, &config(), None);
        let data_nodes = built
            .graph
            .nodes()
            .filter(|&n| !built.graph.kind(n).is_metadata())
            .count();
        assert_eq!(built.stats.terms_created, data_nodes);
        assert!(data_nodes > 0);
    }
}
