//! Flat arena storage for token-sequence corpora.
//!
//! A walk corpus at paper scale is `nodes × 100` sentences of ~31 tokens.
//! Holding it as `Vec<Vec<u32>>` costs one heap allocation per sentence
//! and scatters sentences across the heap, so the trainers' inner loops
//! pay a pointer chase per sentence. [`FlatCorpus`] stores every token in
//! one contiguous `tokens` array with an `offsets` fence table — two
//! allocations total, cache-linear iteration, and cheap concatenation of
//! per-thread partial corpora.

/// A corpus of token sentences in one flat arena.
///
/// `offsets` has `len() + 1` entries; sentence `i` is
/// `tokens[offsets[i] .. offsets[i + 1]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatCorpus {
    tokens: Vec<u32>,
    offsets: Vec<u32>,
}

impl FlatCorpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self {
            tokens: Vec::new(),
            offsets: vec![0],
        }
    }

    /// An empty corpus with room for `sentences` sentences totalling
    /// `tokens` tokens.
    pub fn with_capacity(sentences: usize, tokens: usize) -> Self {
        let mut offsets = Vec::with_capacity(sentences + 1);
        offsets.push(0);
        Self {
            tokens: Vec::with_capacity(tokens),
            offsets,
        }
    }

    /// Copies a nested corpus into a flat arena (compatibility path for
    /// callers still producing `Vec<Vec<u32>>`).
    pub fn from_nested(sentences: &[Vec<u32>]) -> Self {
        let total: usize = sentences.iter().map(Vec::len).sum();
        let mut corpus = Self::with_capacity(sentences.len(), total);
        for s in sentences {
            corpus.push(s);
        }
        corpus
    }

    /// Appends one sentence.
    pub fn push(&mut self, sentence: &[u32]) {
        self.tokens.extend_from_slice(sentence);
        self.push_fence();
    }

    /// Appends raw tokens without closing a sentence; pair with
    /// [`push_fence`](FlatCorpus::push_fence). Used by writers that stream
    /// tokens (e.g. the walk generator) straight into the arena.
    #[inline]
    pub fn extend_tokens(&mut self, tokens: &[u32]) {
        self.tokens.extend_from_slice(tokens);
    }

    /// Closes the current sentence at the present end of the arena.
    #[inline]
    pub fn push_fence(&mut self) {
        let end = u32::try_from(self.tokens.len())
            .expect("FlatCorpus overflow: more than u32::MAX tokens");
        self.offsets.push(end);
    }

    /// Appends a partial corpus produced by another builder: `tokens` is
    /// its arena, `lens` its per-sentence lengths. This is how per-thread
    /// corpora are merged in chunk order.
    pub fn append_parts(&mut self, tokens: &[u32], lens: &[u32]) {
        debug_assert_eq!(lens.iter().map(|&l| l as usize).sum::<usize>(), tokens.len());
        let mut end = self.tokens.len() as u64;
        self.tokens.extend_from_slice(tokens);
        for &l in lens {
            end += l as u64;
            self.offsets
                .push(u32::try_from(end).expect("FlatCorpus overflow"));
        }
        debug_assert_eq!(*self.offsets.last().unwrap() as usize, self.tokens.len());
    }

    /// Number of sentences.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the corpus holds no sentences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total token count across all sentences.
    #[inline]
    pub fn total_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// The whole token arena as one slice (sentence boundaries live in the
    /// offsets table). Lets consumers carve zero-copy views over ranges
    /// that span multiple sentences.
    #[inline]
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Sentence `i` as a token slice.
    #[inline]
    pub fn sentence(&self, i: usize) -> &[u32] {
        &self.tokens[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates over all sentences as slices.
    pub fn sentences(&self) -> Sentences<'_> {
        Sentences {
            corpus: self,
            next: 0,
            end: self.len(),
        }
    }

    /// Token frequencies sized to `id_bound`, the flat-arena equivalent of
    /// [`walk_counts`](crate::walks::walk_counts): counts index by token
    /// value so they double as a Word2Vec vocabulary over node ids. With
    /// `floor_missing`, absent tokens get a floor count of 1.
    pub fn token_counts(&self, id_bound: usize, floor_missing: bool) -> Vec<u64> {
        let mut counts = vec![0u64; id_bound];
        for &tok in &self.tokens {
            counts[tok as usize] += 1;
        }
        if floor_missing {
            for c in &mut counts {
                if *c == 0 {
                    *c = 1;
                }
            }
        }
        counts
    }

    /// Copies out to the nested representation (compatibility path).
    pub fn to_nested(&self) -> Vec<Vec<u32>> {
        self.sentences().map(<[u32]>::to_vec).collect()
    }
}

/// Iterator over a [`FlatCorpus`]'s sentences as `&[u32]` slices.
#[derive(Debug, Clone)]
pub struct Sentences<'a> {
    corpus: &'a FlatCorpus,
    next: usize,
    end: usize,
}

impl<'a> Iterator for Sentences<'a> {
    type Item = &'a [u32];

    #[inline]
    fn next(&mut self) -> Option<&'a [u32]> {
        if self.next >= self.end {
            return None;
        }
        let s = self.corpus.sentence(self.next);
        self.next += 1;
        Some(s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Sentences<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut c = FlatCorpus::new();
        c.push(&[1, 2, 3]);
        c.push(&[]);
        c.push(&[9]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_tokens(), 4);
        assert_eq!(c.sentence(0), &[1, 2, 3]);
        assert_eq!(c.sentence(1), &[] as &[u32]);
        assert_eq!(c.sentence(2), &[9]);
    }

    #[test]
    fn nested_roundtrip() {
        let nested = vec![vec![5, 6], vec![], vec![7, 8, 9]];
        let c = FlatCorpus::from_nested(&nested);
        assert_eq!(c.to_nested(), nested);
        let slices: Vec<&[u32]> = c.sentences().collect();
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[2], &[7, 8, 9]);
    }

    #[test]
    fn streaming_writer_with_fences() {
        let mut c = FlatCorpus::new();
        c.extend_tokens(&[1, 2]);
        c.extend_tokens(&[3]);
        c.push_fence();
        c.extend_tokens(&[4]);
        c.push_fence();
        assert_eq!(c.len(), 2);
        assert_eq!(c.sentence(0), &[1, 2, 3]);
        assert_eq!(c.sentence(1), &[4]);
    }

    #[test]
    fn append_parts_merges_in_order() {
        let mut c = FlatCorpus::new();
        c.push(&[1]);
        c.append_parts(&[2, 3, 4, 5], &[2, 0, 2]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.sentence(1), &[2, 3]);
        assert_eq!(c.sentence(2), &[] as &[u32]);
        assert_eq!(c.sentence(3), &[4, 5]);
    }

    #[test]
    fn token_counts_match_walk_counts_semantics() {
        let c = FlatCorpus::from_nested(&[vec![0, 1, 1], vec![2]]);
        assert_eq!(c.token_counts(4, false), vec![1, 2, 1, 0]);
        assert_eq!(c.token_counts(4, true), vec![1, 2, 1, 1]);
    }
}
