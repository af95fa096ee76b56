//! The end-to-end TDmatch pipeline (Fig. 3): graph → (expand) →
//! (compress) → walks → Word2Vec → match.

use std::borrow::Cow;
use std::time::Instant;

use tdmatch_compress::{msp_compress, ssp_compress, ssum_compress, MspConfig, SspConfig, SsumConfig};
use tdmatch_embed::corpus::SentenceSource;
use tdmatch_embed::doc2vec::{train_pv_dbow, Doc2VecConfig};
use tdmatch_embed::score::ScoreMatrix;
use tdmatch_embed::walks::WalkStream;
use tdmatch_embed::word2vec::{train_rows, InputVectors};
use tdmatch_graph::{CorpusSide, CsrGraph, NodeId, NodeKind};
use tdmatch_kb::{KnowledgeBase, PretrainedModel};

use crate::artifact::MatchArtifact;
use crate::builder::{build_graph, BuildStats};
use crate::config::{Compression, EmbedMethod, TdConfig};
use crate::corpus::Corpus;
use crate::error::TdError;
use crate::expand::{expand_graph, ExpandStats};
use crate::matcher::{top_k_matches_matrix, MatchResult};

/// Optional resources for a fit.
#[derive(Default)]
pub struct FitOptions<'a> {
    /// External resource for graph expansion (Alg. 2). `None` = W-RW,
    /// `Some` = W-RW-EX.
    pub kb: Option<&'a dyn KnowledgeBase>,
    /// Compression applied after expansion (Alg. 3 / baselines).
    pub compression: Option<Compression>,
    /// Pre-trained model + threshold γ for similarity merging (§II-C).
    /// `None` skips the merge.
    pub merge: Option<(&'a PretrainedModel, f32)>,
}

/// Wall-clock seconds spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Graph creation (Alg. 1 + merging).
    pub build: f64,
    /// Expansion (Alg. 2).
    pub expand: f64,
    /// Compression (Alg. 3).
    pub compress: f64,
    /// Freezing the graph and the walk stream's counting pass.
    pub walks: f64,
    /// Training, including the walks each epoch regenerates.
    pub train: f64,
    /// Tokens the training stage streamed: walk tokens × epochs.
    pub train_tokens: u64,
}

impl StageTimings {
    /// Total training-side time (everything up to matching).
    pub fn total(&self) -> f64 {
        self.build + self.expand + self.compress + self.walks + self.train
    }
}

impl std::fmt::Display for StageTimings {
    /// The per-stage split on one line, stages that did not run left out.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, secs) in [
            ("build", self.build),
            ("expand", self.expand),
            ("compress", self.compress),
            ("walks", self.walks),
        ] {
            if secs > 0.0 {
                write!(f, "{name} {secs:.3}s, ")?;
            }
        }
        let tokens_per_s = if self.train > 0.0 {
            self.train_tokens as f64 / self.train
        } else {
            0.0
        };
        write!(
            f,
            "train {:.3}s ({tokens_per_s:.0} tokens/s), total {:.3}s",
            self.train,
            self.total()
        )
    }
}

/// The TDmatch trainer. Construct with a [`TdConfig`], then [`fit`] two
/// corpora.
///
/// [`fit`]: TdMatch::fit
pub struct TdMatch {
    config: TdConfig,
}

impl TdMatch {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TdConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TdConfig {
        &self.config
    }

    /// Fits the default pipeline (no expansion, no compression, no
    /// similarity merge) — the paper's **W-RW**.
    pub fn fit(&self, first: &Corpus, second: &Corpus) -> Result<TdModel, TdError> {
        self.fit_with(first, second, FitOptions::default())
    }

    /// Resumes the pipeline from a finished graph — e.g. a model's graph
    /// saved with [`CsrGraph::save`] after an expensive
    /// expansion/compression and read back with [`CsrGraph::load`] —
    /// skipping graph creation entirely. Runs walks, training, and vector
    /// extraction on `graph` as-is.
    ///
    /// Corpus sizes are recovered from the matchable metadata nodes'
    /// document indices, and each document's node is the live matchable
    /// node of its `(side, index)`: a graph in which two share one is
    /// refused ([`TdError::DuplicateDocument`]).
    pub fn fit_prebuilt(&self, graph: CsrGraph) -> Result<TdModel, TdError> {
        let has_terms = graph.nodes().any(|n| !graph.kind(n).is_metadata());
        if !has_terms {
            return Err(TdError::NoSharedTerms);
        }
        // Recover corpus sizes: max matchable document index + 1 per side.
        let mut lens = [0usize; 2];
        for n in graph.nodes() {
            if let Some((side, index)) = document(graph.kind(n)) {
                lens[side] = lens[side].max(index + 1);
            }
        }
        if lens[0] == 0 {
            return Err(TdError::EmptyCorpus { which: "first" });
        }
        if lens[1] == 0 {
            return Err(TdError::EmptyCorpus { which: "second" });
        }

        self.embed_and_index(
            graph,
            (lens[0], lens[1]),
            BuildStats::default(),
            ExpandStats::default(),
            StageTimings::default(),
        )
    }

    /// Trains node embeddings on the walk stream with the configured
    /// [`EmbedMethod`], read back by node id.
    fn train_vectors<'w>(&self, walks: &'w WalkStream<'_>) -> NodeVectors<'w> {
        match self.config.embed_method {
            // Input rows for the ids the walks visit only.
            EmbedMethod::WalkWord2Vec => NodeVectors::Rows(train_rows(
                &walks.rows(),
                walks.layout(),
                &self.config.w2v_config(),
            )),
            // Each node's "document" is the bag of all walks starting at
            // it, which the stream yields together; PV-DBOW then trains
            // one vector per node. Ids without walks (tombstones) get
            // empty documents.
            EmbedMethod::WalkDoc2Vec => NodeVectors::ById(train_pv_dbow(
                walks,
                walks.token_counts(),
                &Doc2VecConfig {
                    dim: self.config.dim,
                    negative: self.config.negative,
                    epochs: self.config.epochs,
                    initial_lr: 0.025,
                    min_count: 1,
                    seed: self.config.seed,
                },
            )),
        }
    }

    /// Fits with explicit options (expansion / compression / merging).
    pub fn fit_with(
        &self,
        first: &Corpus,
        second: &Corpus,
        options: FitOptions<'_>,
    ) -> Result<TdModel, TdError> {
        if first.is_empty() {
            return Err(TdError::EmptyCorpus { which: "first" });
        }
        if second.is_empty() {
            return Err(TdError::EmptyCorpus { which: "second" });
        }
        let mut timings = StageTimings::default();

        // 1. Graph creation (Alg. 1) + merging (§II-C).
        let t0 = Instant::now();
        let built = build_graph(first, second, &self.config, options.merge);
        let build_stats = built.stats;
        let mut graph = built.graph;
        timings.build = t0.elapsed().as_secs_f64();

        // A graph with no data nodes cannot relate the corpora.
        if build_stats.terms_created == 0 {
            return Err(TdError::NoSharedTerms);
        }

        // 2. Expansion (Alg. 2).
        let mut expand_stats = ExpandStats::default();
        if let Some(kb) = options.kb {
            let t = Instant::now();
            expand_stats = expand_graph(&mut graph, kb, self.config.max_relations_per_node);
            timings.expand = t.elapsed().as_secs_f64();
        }

        // 3. Compression (Alg. 3 or a baseline).
        if let Some(compression) = options.compression {
            let t = Instant::now();
            graph = match compression {
                Compression::Msp { beta } => msp_compress(
                    &graph,
                    &MspConfig {
                        beta,
                        seed: self.config.seed,
                        ..Default::default()
                    },
                ),
                Compression::Ssp { ratio } => ssp_compress(
                    &graph,
                    &SspConfig {
                        ratio,
                        seed: self.config.seed,
                        ..Default::default()
                    },
                ),
                Compression::Ssum { ratio } => ssum_compress(
                    &graph,
                    &SsumConfig {
                        ratio,
                        edge_ratio: ratio,
                        seed: self.config.seed,
                    },
                ),
            };
            timings.compress = t.elapsed().as_secs_f64();
        }

        // The graph is final: freeze it (timed with the walks) and drop
        // the mutable form before the first walk.
        let t = Instant::now();
        let frozen = CsrGraph::from_graph(&graph);
        drop(graph);
        timings.walks = t.elapsed().as_secs_f64();

        self.embed_and_index(
            frozen,
            (first.len(), second.len()),
            build_stats,
            expand_stats,
            timings,
        )
    }

    /// The stages every fit ends with, on a frozen graph that is final:
    /// walks → train → the match artifact (normalized document rows and
    /// the data nodes' term vectors, copied out of the trained matrix,
    /// which is then dropped). The model keeps `graph`, whose labels
    /// name the term vectors and which `--save-graph` writes.
    ///
    /// Each document's node is the live matchable node of its
    /// `(side, index)`, found in one pass over the node kinds; a document
    /// without one keeps an invalid row.
    ///
    /// The walk corpus is never stored: a [`WalkStream`] counts it in one
    /// pass, and training regenerates it once per epoch from its per-walk
    /// seeds — the same sentences in the same order as a stored corpus,
    /// so the same bits. A fit's memory is the model and the frozen
    /// graph, whatever its token count. Word2Vec keeps input rows only
    /// for the ids the walks visit (the stream's dense layout), and the
    /// artifact reads each node's row through that layout, once per node:
    /// no id-order copy of the trained matrix is made.
    fn embed_and_index(
        &self,
        graph: CsrGraph,
        (first_len, second_len): (usize, usize),
        build_stats: BuildStats,
        expand_stats: ExpandStats,
        mut timings: StageTimings,
    ) -> Result<TdModel, TdError> {
        // Zero of any of these trains nothing: the artifact would hold
        // all-zero vectors or the untrained random init.
        for (field, value) in [
            ("dim", self.config.dim),
            ("epochs", self.config.epochs),
            ("walk_len", self.config.walk_len),
        ] {
            if value == 0 {
                return Err(TdError::ZeroSetting { field });
            }
        }
        // Random walks (Alg. 4, first half): find the documents' nodes
        // and count the walks over the frozen graph.
        let t = Instant::now();
        let mut doc_nodes = [vec![None; first_len], vec![None; second_len]];
        for n in graph.nodes() {
            if let Some((side, index)) = document(graph.kind(n)) {
                if doc_nodes[side][index].replace(n).is_some() {
                    let side = ["first", "second"][side];
                    return Err(TdError::DuplicateDocument { side, index });
                }
            }
        }
        let walks = WalkStream::new(&graph, &self.config.walk_config());
        timings.walks += t.elapsed().as_secs_f64();
        if walks.total_tokens() == 0 {
            return Err(TdError::EmptyWalkCorpus);
        }

        // Embedding model over walks (Alg. 4, second half), each epoch
        // walking them again.
        let t = Instant::now();
        let vectors = self.train_vectors(&walks);
        timings.train = t.elapsed().as_secs_f64();
        timings.train_tokens = walks.total_tokens() * self.config.epochs as u64;

        let dim = self.config.dim;
        let node_row = |n: NodeId| vectors.vector(n.index(), dim);

        // Metadata vectors per (side, document index), normalized once:
        // every subsequent match call is dot-many over these rows. A
        // document without a metadata node keeps an invalid row.
        let [first, second] = doc_nodes.map(|nodes| {
            let mut rows = ScoreMatrix::invalid(nodes.len(), dim);
            for (i, n) in nodes.into_iter().enumerate() {
                if let Some(n) = n {
                    rows.set_row(i, &node_row(n));
                }
            }
            rows
        });

        // Term vectors (data nodes), raw.
        let terms = graph
            .labels()
            .filter(|&(n, _)| !graph.kind(n).is_metadata())
            .map(|(n, label)| (label.to_string(), node_row(n).to_vec()))
            .collect();
        let artifact = MatchArtifact::from_matrices(dim, terms, first, second);

        Ok(TdModel {
            config: self.config.clone(),
            graph,
            artifact,
            build_stats,
            expand_stats,
            timings,
        })
    }
}

/// The `(side, document index)` of a matchable metadata node, the side
/// as `CorpusSide`'s declaration order: 0 the first corpus, 1 the second.
fn document(kind: NodeKind) -> Option<(usize, usize)> {
    match kind {
        NodeKind::Meta { side, index, .. } if kind.is_matchable() => {
            Some((side as usize, index as usize))
        }
        _ => None,
    }
}

/// A fit's trained node vectors.
enum NodeVectors<'w> {
    /// Word2Vec's input rows, over the walk stream's dense layout.
    Rows(InputVectors<'w>),
    /// An `id_bound × dim` matrix in id order (PV-DBOW's documents).
    ById(Vec<f32>),
}

impl NodeVectors<'_> {
    /// The vector of node `id`.
    fn vector(&self, id: usize, dim: usize) -> Cow<'_, [f32]> {
        match self {
            NodeVectors::Rows(rows) => rows.vector(id),
            NodeVectors::ById(matrix) => Cow::Borrowed(&matrix[id * dim..(id + 1) * dim]),
        }
    }
}

/// A fitted TDmatch model: the final graph, frozen, plus the
/// [`MatchArtifact`] built from its trained embeddings. The artifact is
/// the model's only copy of those embeddings — matching, the vector
/// accessors and [`save_artifact`](TdModel::save_artifact) all read it —
/// so what a saved file answers is what the live model answers, by
/// construction.
#[derive(Debug)]
pub struct TdModel {
    config: TdConfig,
    /// The graph embeddings were trained on (post expansion/compression),
    /// frozen, with its node labels: what `GraphStats` reads and what
    /// [`CsrGraph::save`] writes for a later
    /// [`fit_prebuilt`](TdMatch::fit_prebuilt).
    pub graph: CsrGraph,
    /// Term vectors (raw) and both corpora's document rows
    /// (pre-normalized), built once at fit time.
    artifact: MatchArtifact,
    /// Graph-creation statistics.
    pub build_stats: BuildStats,
    /// Expansion statistics (zeroed when expansion was off).
    pub expand_stats: ExpandStats,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

impl TdModel {
    /// The configuration the model was fitted with.
    pub fn config(&self) -> &TdConfig {
        &self.config
    }

    /// Embedding of document `idx` on `side`, if its metadata node
    /// survived the pipeline — the stored row, **L2-normalized** (unit
    /// length), as the artifact keeps it.
    pub fn doc_vector(&self, side: CorpusSide, idx: usize) -> Option<&[f32]> {
        match side {
            CorpusSide::First => self.artifact.first_vector(idx),
            CorpusSide::Second => self.artifact.second_vector(idx),
        }
    }

    /// Embedding of a term (data node), if present in the final graph.
    pub fn term_vector(&self, term: &str) -> Option<&[f32]> {
        self.artifact.term_vector(term)
    }

    /// Ranks the top-`k` first-corpus documents for every second-corpus
    /// document (the default direction: queries are the text side).
    pub fn match_top_k(&self, k: usize) -> Vec<MatchResult> {
        self.artifact.match_top_k(k)
    }

    /// Like [`match_top_k`], averaging cosine scores with an external
    /// scorer (Fig. 10's combination with SentenceBERT).
    ///
    /// [`match_top_k`]: TdModel::match_top_k
    pub fn match_top_k_combined(
        &self,
        k: usize,
        extra_score: Option<&dyn Fn(usize, usize) -> f32>,
    ) -> Vec<MatchResult> {
        top_k_matches_matrix(
            self.artifact.second_matrix(),
            self.artifact.first_matrix(),
            k,
            extra_score,
            None,
        )
    }

    /// `(nodes, edges)` of the final graph (Table VIII's #N / #E).
    pub fn graph_size(&self) -> (usize, usize) {
        (self.graph.node_count(), self.graph.edge_count())
    }

    /// A copy of the model's matching state (term vectors + both
    /// corpora's document vectors) as an owned [`MatchArtifact`]: it
    /// matches exactly like [`match_top_k`](TdModel::match_top_k),
    /// because that *is* this artifact's ranking, and can be indexed,
    /// saved and loaded without re-training.
    pub fn artifact(&self) -> MatchArtifact {
        self.artifact.clone()
    }

    /// Writes the match artifact straight to `path` — fit-once /
    /// match-many in one call. The saved `TDZ1` container is what serving
    /// processes later memory-map with [`MatchArtifact::load`]: every
    /// reader of the same file shares one physical copy of the matrices
    /// through the OS page cache.
    pub fn save_artifact<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<(), crate::artifact::PersistError> {
        self.artifact.save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Table, TextCorpus};

    fn corpora() -> (Corpus, Corpus) {
        let table = Table::new(
            "movies",
            vec!["title".into(), "director".into(), "actor".into(), "genre".into()],
            vec![
                vec![
                    "The Sixth Sense".into(),
                    "Shyamalan".into(),
                    "Bruce Willis".into(),
                    "Thriller".into(),
                ],
                vec![
                    "Pulp Fiction".into(),
                    "Tarantino".into(),
                    "Samuel Jackson".into(),
                    "Drama".into(),
                ],
                vec![
                    "Dark City".into(),
                    "Proyas".into(),
                    "Rufus Sewell".into(),
                    "Mystery".into(),
                ],
            ],
        );
        let reviews = TextCorpus::new(vec![
            "shyamalan made a thriller with bruce willis and a twist".into(),
            "tarantino directs samuel jackson in pulp fiction".into(),
            "dark city is a mystery by proyas".into(),
        ]);
        (Corpus::Table(table), Corpus::Text(reviews))
    }

    #[test]
    fn end_to_end_matches_reviews_to_tuples() {
        let (first, second) = corpora();
        let model = TdMatch::new(TdConfig::for_tests())
            .fit(&first, &second)
            .unwrap();
        let results = model.match_top_k(3);
        assert_eq!(results.len(), 3);
        // Every review's top-1 should be its own tuple: the lexical
        // overlap is strong and the graph encodes it.
        let mut correct = 0;
        for (i, r) in results.iter().enumerate() {
            if r.target_indices().first() == Some(&i) {
                correct += 1;
            }
        }
        assert!(correct >= 2, "at least 2/3 top-1 correct, got {correct}");
    }

    #[test]
    fn empty_corpus_is_rejected() {
        let (first, _) = corpora();
        let empty = Corpus::Text(TextCorpus::new(vec![]));
        let err = TdMatch::new(TdConfig::for_tests())
            .fit(&first, &empty)
            .unwrap_err();
        assert_eq!(err, TdError::EmptyCorpus { which: "second" });
    }

    #[test]
    fn a_zero_dim_is_rejected() {
        assert_zero_rejected("dim", |c| c.dim = 0);
    }

    #[test]
    fn zero_epochs_are_rejected() {
        assert_zero_rejected("epochs", |c| c.epochs = 0);
    }

    #[test]
    fn a_zero_walk_len_is_rejected() {
        assert_zero_rejected("walk_len", |c| c.walk_len = 0);
    }

    /// Both fit entries refuse a config with `field` zeroed by `zero`.
    fn assert_zero_rejected(field: &'static str, zero: impl Fn(&mut TdConfig)) {
        let (first, second) = corpora();
        let mut config = TdConfig::for_tests();
        zero(&mut config);
        let trainer = TdMatch::new(config);
        let want = TdError::ZeroSetting { field };
        assert_eq!(trainer.fit(&first, &second).unwrap_err(), want);
        let graph = build_graph(&first, &second, &TdConfig::for_tests(), None).graph;
        assert_eq!(trainer.fit_prebuilt(CsrGraph::from_graph(&graph)).unwrap_err(), want);
    }

    #[test]
    fn timings_are_populated() {
        let (first, second) = corpora();
        let model = TdMatch::new(TdConfig::for_tests())
            .fit(&first, &second)
            .unwrap();
        assert!(model.timings.build > 0.0);
        assert!(model.timings.walks > 0.0);
        assert!(model.timings.train > 0.0);
        assert!(model.timings.train_tokens > 0);
        assert!(model.timings.total() > 0.0);
        assert_eq!(model.timings.expand, 0.0);
        let line = model.timings.to_string();
        assert!(line.starts_with("build ") && line.contains("tokens/s"), "{line}");
        assert!(!line.contains("expand"), "{line}");
    }

    #[test]
    fn term_vectors_are_accessible() {
        let (first, second) = corpora();
        let model = TdMatch::new(TdConfig::for_tests())
            .fit(&first, &second)
            .unwrap();
        assert!(model.term_vector("tarantino").is_some());
        assert!(model.term_vector("not-a-term").is_none());
    }

    #[test]
    fn compression_keeps_model_usable() {
        let (first, second) = corpora();
        let model = TdMatch::new(TdConfig::for_tests())
            .fit_with(
                &first,
                &second,
                FitOptions {
                    compression: Some(Compression::Msp { beta: 0.5 }),
                    ..Default::default()
                },
            )
            .unwrap();
        let results = model.match_top_k(2);
        assert_eq!(results.len(), 3);
        let (n, e) = model.graph_size();
        assert!(n > 0 && e > 0);
    }

    #[test]
    fn doc2vec_embedding_method_matches_reasonably() {
        use crate::config::EmbedMethod;
        let (first, second) = corpora();
        let model = TdMatch::new(TdConfig {
            embed_method: EmbedMethod::WalkDoc2Vec,
            ..TdConfig::for_tests()
        })
        .fit(&first, &second)
        .unwrap();
        let results = model.match_top_k(3);
        assert_eq!(results.len(), 3);
        let correct = results
            .iter()
            .enumerate()
            .filter(|(i, r)| r.target_indices().first() == Some(i))
            .count();
        assert!(correct >= 2, "doc2vec embeddings collapsed: {correct}/3");
    }

    #[test]
    fn fit_prebuilt_resumes_from_persisted_graph() {
        let (first, second) = corpora();
        let trainer = TdMatch::new(TdConfig::for_tests());
        let model = trainer.fit(&first, &second).unwrap();

        // Persist the fitted graph and resume from it.
        let path = std::env::temp_dir()
            .join(format!("tdmatch-fit-prebuilt-{}.tdz", std::process::id()));
        model.graph.save(&path).unwrap();
        let restored = CsrGraph::load(&path);
        std::fs::remove_file(&path).ok();
        let resumed = trainer.fit_prebuilt(restored.unwrap()).unwrap();

        assert_eq!(resumed.graph_size(), model.graph_size());
        // Matching still works and mostly agrees at top-1 (walk RNG keys
        // off node ids, which a roundtrip renumbers, so require quality,
        // not bit-equality).
        let results = resumed.match_top_k(3);
        assert_eq!(results.len(), 3);
        let correct = results
            .iter()
            .enumerate()
            .filter(|(i, r)| r.target_indices().first() == Some(i))
            .count();
        assert!(correct >= 2, "resumed model degraded: {correct}/3");
    }

    #[test]
    fn fit_prebuilt_rejects_a_one_sided_graph() {
        let mut g = tdmatch_graph::Graph::new();
        let m = g.add_meta("A:doc0", CorpusSide::First, tdmatch_graph::MetaKind::Tuple, 0);
        let d = g.intern_data("term");
        g.add_edge(m, d);
        assert_eq!(
            TdMatch::new(TdConfig::for_tests())
                .fit_prebuilt(CsrGraph::from_graph(&g))
                .unwrap_err(),
            TdError::EmptyCorpus { which: "second" }
        );
    }

    #[test]
    fn fit_prebuilt_refuses_two_nodes_for_one_document() {
        use tdmatch_graph::MetaKind;
        let mut g = tdmatch_graph::Graph::new();
        let term = g.intern_data("term");
        for (label, side, kind, index) in [
            ("A:doc0", CorpusSide::First, MetaKind::Tuple, 0),
            ("B:doc0", CorpusSide::Second, MetaKind::TextDoc, 0),
            // An attribute is not a document: its index is a column.
            ("B:col1", CorpusSide::Second, MetaKind::Attribute, 1),
            ("B:doc1", CorpusSide::Second, MetaKind::TextDoc, 1),
        ] {
            let m = g.add_meta(label, side, kind, index);
            g.add_edge(m, term);
        }
        let trainer = TdMatch::new(TdConfig::for_tests());
        let model = trainer.fit_prebuilt(CsrGraph::from_graph(&g)).unwrap();
        assert!(model.doc_vector(CorpusSide::Second, 1).is_some());
        // A second live node that claims to be document 1 of the second
        // corpus, whatever its label.
        let twin = g.add_meta("B:doc1 again", CorpusSide::Second, MetaKind::Taxonomy, 1);
        g.add_edge(twin, term);
        assert_eq!(
            trainer.fit_prebuilt(CsrGraph::from_graph(&g)).unwrap_err(),
            TdError::DuplicateDocument { side: "second", index: 1 }
        );
        // Once it is gone, the graph fits again.
        g.remove_node(twin);
        trainer.fit_prebuilt(CsrGraph::from_graph(&g)).unwrap();
    }

    #[test]
    fn artifact_roundtrip_matches_like_the_model() {
        let (first, second) = corpora();
        let model = TdMatch::new(TdConfig::for_tests())
            .fit(&first, &second)
            .unwrap();
        let mut buf = Vec::new();
        model.artifact().write_to(&mut buf).unwrap();
        // Reload from bytes on the borrowed (zero-copy) path.
        let storage = tdmatch_graph::container::Storage::from_bytes(&buf);
        let loaded = crate::artifact::MatchArtifact::from_storage(&storage).unwrap();
        assert!(loaded.is_zero_copy());
        // The warm artifact ranks *identically* to the live model — same
        // indices, same scores, no per-call normalization on either side.
        assert_eq!(model.match_top_k(3), loaded.match_top_k(3));
        // Term vectors survive too.
        assert_eq!(
            model.term_vector("tarantino"),
            loaded.term_vector("tarantino")
        );
    }
}
