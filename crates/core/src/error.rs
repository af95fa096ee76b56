//! Error type for the TDmatch pipeline.

/// Errors surfaced by [`crate::pipeline::TdMatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdError {
    /// One of the corpora holds no documents.
    EmptyCorpus {
        /// Which input ("first" / "second").
        which: &'static str,
    },
    /// After preprocessing/filtering no term connects the corpora, so no
    /// embedding can relate them.
    NoSharedTerms,
    /// The walk corpus came out empty (e.g. all nodes isolated).
    EmptyWalkCorpus,
    /// A fit setting that must be at least 1 is 0, which would train
    /// nothing and publish meaningless vectors.
    ZeroSetting {
        /// The `TdConfig` field (`dim`, `epochs` or `walk_len`).
        field: &'static str,
    },
    /// Two live matchable nodes of a prebuilt graph claim the same
    /// document, so neither can stand for it.
    DuplicateDocument {
        /// Which corpus ("first" / "second").
        side: &'static str,
        /// The document index both claim.
        index: usize,
    },
}

impl std::fmt::Display for TdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdError::EmptyCorpus { which } => write!(f, "the {which} corpus has no documents"),
            TdError::NoSharedTerms => {
                write!(f, "no shared terms between the corpora after filtering")
            }
            TdError::EmptyWalkCorpus => write!(f, "random-walk corpus is empty"),
            TdError::ZeroSetting { field } => write!(f, "`{field}` must be at least 1"),
            TdError::DuplicateDocument { side, index } => {
                write!(
                    f,
                    "two graph nodes are document {index} of the {side} corpus"
                )
            }
        }
    }
}

impl std::error::Error for TdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TdError::EmptyCorpus { which: "first" };
        assert!(e.to_string().contains("first"));
        assert!(TdError::NoSharedTerms.to_string().contains("shared"));
        let e = TdError::ZeroSetting { field: "dim" };
        assert_eq!(e.to_string(), "`dim` must be at least 1");
    }
}
