//! Pipeline configuration.

use tdmatch_embed::walks::{WalkConfig, WalkStrategy};
use tdmatch_embed::word2vec::{default_threads, W2vMode, Word2VecConfig};
use tdmatch_text::PreprocessOptions;

/// Which data-node filtering to apply during graph creation (§II-B and the
/// Fig. 9 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// No filtering: every term of both corpora becomes a node ("Normal").
    None,
    /// The paper's default: the corpus with fewer distinct tokens seeds the
    /// term vocabulary; the other corpus only connects to existing terms.
    Intersect,
    /// TF-IDF baseline: keep only the `k` highest-TF-IDF tokens of every
    /// document (both corpora).
    TfIdf {
        /// Tokens kept per document.
        k: usize,
    },
}

/// How node embeddings are produced from the walk corpus (§IV-A: the
/// embedding generator is pluggable; the paper found graph-native
/// alternatives "comparable in quality ... but more resource intensive"
/// than Word2Vec on walks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmbedMethod {
    /// Word2Vec (Skip-gram / CBOW) over walk sentences — the paper's
    /// default (Alg. 4).
    #[default]
    WalkWord2Vec,
    /// PV-DBOW where each node's "document" is the bag of all walks
    /// starting at it (a DeepWalk-style graph-native alternative).
    WalkDoc2Vec,
}

/// Compression to apply after (optional) expansion — Table VIII.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compression {
    /// The paper's Metadata-Shortest-Path method with ratio β (Alg. 3).
    Msp {
        /// Iterations = β · |V|.
        beta: f64,
    },
    /// Random-pair shortest-path sampling (SSP \[33\]).
    Ssp {
        /// Iterations = ratio · |V|.
        ratio: f64,
    },
    /// SSuM-like summarization keeping ~`ratio` of nodes and edges.
    Ssum {
        /// Fraction of nodes/edges kept.
        ratio: f64,
    },
}

/// End-to-end TDmatch configuration.
#[derive(Debug, Clone)]
pub struct TdConfig {
    /// Pre-processing (stop-words, stemming, n-gram order).
    pub preprocess: PreprocessOptions,
    /// Term filtering during graph creation.
    pub filtering: FilterMode,
    /// Merge numeric data nodes into Freedman–Diaconis equal-width buckets.
    pub bucket_numbers: bool,
    /// Random walks per node (paper default 100).
    pub walks_per_node: usize,
    /// Steps per walk (paper default 30).
    pub walk_len: usize,
    /// Word2Vec objective: Skip-gram for text-to-data (window 3), CBOW for
    /// text-oriented tasks (window 15) — §V.
    pub w2v_mode: W2vMode,
    /// Context window.
    pub window: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Word2Vec epochs over the walk corpus.
    pub epochs: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Worker threads for walks and training.
    pub threads: usize,
    /// Master seed (walks, training init, compression sampling).
    pub seed: u64,
    /// Connect taxonomy metadata nodes to their parents (§II-A). On by
    /// default; the §V-F2 ablation turns it off.
    pub taxonomy_edges: bool,
    /// Cap on relations fetched per node during expansion.
    pub max_relations_per_node: usize,
    /// Transition rule for the walk generator. [`WalkStrategy::Uniform`]
    /// reproduces the paper; the node2vec / edge-typed variants are the
    /// pluggable-embedding extension (§IV-A, conclusion).
    pub walk_strategy: WalkStrategy,
    /// Embedding generator over the walk corpus (paper default:
    /// Word2Vec).
    pub embed_method: EmbedMethod,
}

impl TdConfig {
    /// Paper defaults for the **text-to-data** task: Skip-gram, window 3
    /// (as in the data-to-data predecessor \[1\]).
    pub fn text_to_data() -> Self {
        Self {
            preprocess: PreprocessOptions::default(),
            filtering: FilterMode::Intersect,
            bucket_numbers: false,
            walks_per_node: 100,
            walk_len: 30,
            w2v_mode: W2vMode::SkipGram,
            window: 3,
            dim: 100,
            epochs: 5,
            negative: 5,
            threads: default_threads(),
            seed: 42,
            taxonomy_edges: true,
            max_relations_per_node: 64,
            walk_strategy: WalkStrategy::Uniform,
            embed_method: EmbedMethod::WalkWord2Vec,
        }
    }

    /// Paper defaults for **text-oriented** tasks (text-to-text and
    /// text-to-structured-text): CBOW with window 15.
    pub fn text_oriented() -> Self {
        Self {
            w2v_mode: W2vMode::Cbow,
            window: 15,
            ..Self::text_to_data()
        }
    }

    /// A tiny, fast, deterministic configuration for unit tests and doc
    /// examples.
    pub fn for_tests() -> Self {
        Self {
            walks_per_node: 12,
            walk_len: 8,
            dim: 32,
            epochs: 3,
            threads: 1,
            ..Self::text_to_data()
        }
    }

    /// Walk-generation parameters derived from this config.
    pub fn walk_config(&self) -> WalkConfig {
        WalkConfig {
            walks_per_node: self.walks_per_node,
            walk_len: self.walk_len,
            seed: self.seed,
            threads: self.threads,
            strategy: self.walk_strategy,
        }
    }

    /// Word2Vec parameters derived from this config.
    pub fn w2v_config(&self) -> Word2VecConfig {
        Word2VecConfig {
            dim: self.dim,
            window: self.window,
            negative: self.negative,
            epochs: self.epochs,
            initial_lr: match self.w2v_mode {
                W2vMode::SkipGram => 0.025,
                W2vMode::Cbow => 0.05,
            },
            min_count: 1,
            mode: self.w2v_mode,
            threads: self.threads,
            seed: self.seed,
            subsample: 0.0,
        }
    }
}

impl Default for TdConfig {
    fn default() -> Self {
        Self::text_to_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_presets_match_paper() {
        let td = TdConfig::text_to_data();
        assert_eq!(td.w2v_mode, W2vMode::SkipGram);
        assert_eq!(td.window, 3);
        assert_eq!(td.walks_per_node, 100);
        assert_eq!(td.walk_len, 30);

        let to = TdConfig::text_oriented();
        assert_eq!(to.w2v_mode, W2vMode::Cbow);
        assert_eq!(to.window, 15);
    }

    #[test]
    fn derived_configs_inherit_fields() {
        let cfg = TdConfig::for_tests();
        assert_eq!(cfg.walk_config().walks_per_node, cfg.walks_per_node);
        assert_eq!(cfg.w2v_config().dim, cfg.dim);
        assert_eq!(cfg.w2v_config().seed, cfg.seed);
    }

    #[test]
    fn cbow_uses_higher_lr() {
        let sg = TdConfig::text_to_data().w2v_config().initial_lr;
        let cb = TdConfig::text_oriented().w2v_config().initial_lr;
        assert!(cb > sg);
    }
}
