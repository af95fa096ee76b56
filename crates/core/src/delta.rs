//! Corpus deltas for incremental ingest — append / update / tombstone
//! of first-corpus (target-side) documents, applied to a
//! [`MatchArtifact`](crate::artifact::MatchArtifact) — loaded, or freshly
//! exported from a fitted model — without a refit.
//!
//! The fit is expensive (graph build → walks → Word2Vec, tens of
//! seconds on the benchmark corpus) while the quantity that matching
//! actually consumes — a document's embedding — is a *cheap, frozen
//! function of the vocabulary*: the mean of its known terms' vectors
//! (§V's aggregation, [`MatchArtifact::embed_tokens`]). A delta
//! therefore re-embeds only the touched documents against the frozen
//! term table and leaves every other row's bits untouched, which is
//! what makes the delta path **bit-identical** to a from-scratch
//! re-export over the final corpus with the same vocabulary
//! (`crates/core/tests/delta_prop.rs` pins this).
//!
//! Tokens in a [`DeltaOp`] must be pre-processed the same way the fit
//! was — use `tdmatch_text::Preprocessor::terms_of_fields` with the
//! fitted config's preprocess options, or [`DeltaBatch::from_tsv`]
//! which does exactly that. Terms outside the frozen vocabulary are
//! ignored; a document with *no* known term embeds to nothing and its
//! row becomes invalid (it still occupies its slot and ranks last at
//! exactly −1.0 — the engine's missing-row semantics).
//!
//! [`MatchArtifact::embed_tokens`]: crate::artifact::MatchArtifact::embed_tokens

use tdmatch_text::Preprocessor;

/// One target-side mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Adds a new target document at the next free row index.
    Append {
        /// Pre-processed terms of the new document.
        tokens: Vec<String>,
    },
    /// Re-embeds an existing target row in place.
    Update {
        /// Row index of the target to re-embed.
        target: usize,
        /// Pre-processed terms of the replacement document.
        tokens: Vec<String>,
    },
    /// Removes a target row. Its slot stays allocated (ids are stable)
    /// and scores exactly −1.0 from then on.
    Tombstone {
        /// Row index of the target to remove.
        target: usize,
    },
}

/// An ordered batch of target-side mutations.
///
/// Ops apply in order: an `Append` allocates the next row index, so a
/// later `Update`/`Tombstone` may address a row appended earlier in the
/// same batch. Built programmatically with the chaining constructors or
/// parsed from the `tdmatch ingest` TSV format via
/// [`from_tsv`](DeltaBatch::from_tsv).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// The mutations, in application order.
    pub ops: Vec<DeltaOp>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a new target document (chaining).
    pub fn append<S: Into<String>>(mut self, tokens: impl IntoIterator<Item = S>) -> Self {
        self.ops.push(DeltaOp::Append {
            tokens: tokens.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Re-embeds target row `target` (chaining).
    pub fn update<S: Into<String>>(
        mut self,
        target: usize,
        tokens: impl IntoIterator<Item = S>,
    ) -> Self {
        self.ops.push(DeltaOp::Update {
            target,
            tokens: tokens.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Tombstones target row `target` (chaining).
    pub fn tombstone(mut self, target: usize) -> Self {
        self.ops.push(DeltaOp::Tombstone { target });
        self
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Parses the `tdmatch ingest` delta file format: one op per line,
    /// tab-separated, `#`-comments and blank lines ignored.
    ///
    /// ```text
    /// append <TAB> field1 [<TAB> field2 ...]
    /// update <TAB> ROW <TAB> field1 [<TAB> field2 ...]
    /// tombstone <TAB> ROW
    /// ```
    ///
    /// Fields are raw document text; they are pre-processed here with
    /// `pre` (the same `base_tokens` → per-field n-grams pipeline the
    /// fit used, so parsed deltas embed exactly like fitted documents).
    pub fn from_tsv(text: &str, pre: &Preprocessor) -> Result<Self, String> {
        let mut batch = DeltaBatch::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let op = parts.next().unwrap_or("");
            let parse_row = |s: Option<&str>| -> Result<usize, String> {
                s.ok_or_else(|| format!("line {}: missing row index", ln + 1))?
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {}: bad row index", ln + 1))
            };
            match op {
                "append" => {
                    let fields: Vec<&str> = parts.collect();
                    if fields.is_empty() {
                        return Err(format!("line {}: append needs at least one field", ln + 1));
                    }
                    batch = batch.append(pre.terms_of_fields(fields));
                }
                "update" => {
                    let target = parse_row(parts.next())?;
                    let fields: Vec<&str> = parts.collect();
                    if fields.is_empty() {
                        return Err(format!("line {}: update needs at least one field", ln + 1));
                    }
                    batch = batch.update(target, pre.terms_of_fields(fields));
                }
                "tombstone" => {
                    let target = parse_row(parts.next())?;
                    if parts.next().is_some() {
                        return Err(format!("line {}: tombstone takes only a row index", ln + 1));
                    }
                    batch = batch.tombstone(target);
                }
                other => {
                    return Err(format!(
                        "line {}: unknown op {other:?} (expected append/update/tombstone)",
                        ln + 1
                    ));
                }
            }
        }
        Ok(batch)
    }
}

/// What applying a delta changed — returned by
/// [`MatchArtifact::apply_delta`](crate::artifact::MatchArtifact::apply_delta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Rows appended to the target matrix.
    pub appended: usize,
    /// Existing rows re-embedded in place.
    pub updated: usize,
    /// Rows tombstoned.
    pub tombstoned: usize,
    /// Rows inserted into the ANN index (0 when no index is carried).
    pub ann_inserted: usize,
    /// Members dropped from the ANN index (0 when no index is carried).
    pub ann_removed: usize,
    /// Target-side row count after the delta.
    pub rows: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmatch_text::PreprocessOptions;

    #[test]
    fn builder_chains_ops_in_order() {
        let b = DeltaBatch::new()
            .append(["quentin", "tarantino"])
            .update(3, ["bruce", "willis"])
            .tombstone(1);
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.ops[0],
            DeltaOp::Append { tokens: vec!["quentin".into(), "tarantino".into()] }
        );
        assert_eq!(b.ops[2], DeltaOp::Tombstone { target: 1 });
    }

    #[test]
    fn tsv_parses_ops_and_preprocesses_fields() {
        let pre = Preprocessor::new(PreprocessOptions {
            remove_stopwords: false,
            stem: false,
            max_ngram: 1,
        });
        let text = "# a comment\n\nappend\talpha beta\nupdate\t2\tgamma\ntombstone\t0\n";
        let b = DeltaBatch::from_tsv(text, &pre).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.ops[0],
            DeltaOp::Append { tokens: vec!["alpha".into(), "beta".into()] }
        );
        assert_eq!(
            b.ops[1],
            DeltaOp::Update { target: 2, tokens: vec!["gamma".into()] }
        );
        assert_eq!(b.ops[2], DeltaOp::Tombstone { target: 0 });
    }

    #[test]
    fn tsv_rejects_malformed_lines() {
        let pre = Preprocessor::default();
        for bad in [
            "frobnicate\tx",
            "append",
            "update\tnot-a-number\tx",
            "update\t1",
            "tombstone\t1\textra",
        ] {
            assert!(DeltaBatch::from_tsv(bad, &pre).is_err(), "{bad:?} parsed");
        }
    }
}
