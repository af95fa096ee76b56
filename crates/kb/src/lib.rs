//! External-resource substrate for TDmatch.
//!
//! The paper plugs three kinds of external resources into the pipeline:
//!
//! 1. **Knowledge bases** for graph expansion (§III-A): DBpedia for
//!    entity-centric corpora (IMDb), ConceptNet/WordNet for concept-heavy
//!    ones. We model them behind the [`KnowledgeBase`] trait and provide
//!    synthetic implementations built from the same lexicons as the
//!    synthetic datasets — so expansion can genuinely add useful
//!    cross-corpus paths (and noise for compression to prune).
//! 2. **Synonym dictionaries** for node merging (§II-C): a synthetic
//!    WordNet whose synonym groups mirror the generators' vocabulary.
//! 3. **Pre-trained embeddings** (Wikipedia2Vec for merging, SentenceBERT
//!    for the S-BE baseline): simulated by [`pretrained::PretrainedModel`],
//!    a deterministic vector space that knows *general* vocabulary and
//!    popular entities but is out-of-vocabulary on domain-specific terms —
//!    reproducing the paper's central observation that pre-trained
//!    resources fail on specialised corpora.

pub mod conceptnet;
pub mod dbpedia;
pub mod lexicon;
pub mod pretrained;
pub mod wordnet;

pub use conceptnet::SyntheticConceptNet;
pub use dbpedia::SyntheticDbpedia;
pub use pretrained::{LabelVectors, PretrainedModel};
pub use wordnet::SyntheticWordNet;

/// A single relation fetched from an external resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Predicate label, e.g. `relatedTo`, `starringOf`, `spouse`.
    pub predicate: String,
    /// The object term/entity the subject is related to.
    pub object: String,
}

impl Relation {
    /// Convenience constructor.
    pub fn new(predicate: impl Into<String>, object: impl Into<String>) -> Self {
        Self {
            predicate: predicate.into(),
            object: object.into(),
        }
    }
}

/// An external resource that can be queried for a node's relations
/// (Alg. 2: "relations ← all connections of node in E").
pub trait KnowledgeBase {
    /// All relations whose subject is `term`. Empty when unknown.
    fn relations(&self, term: &str) -> Vec<Relation>;

    /// Number of distinct subjects (diagnostics).
    fn subject_count(&self) -> usize;

    /// Resource name for logs/reports.
    fn name(&self) -> &str;
}
