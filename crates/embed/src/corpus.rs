//! Token-sequence corpora as the trainers read them.
//!
//! A trainer reads its corpus once per epoch, in order, through
//! [`SentenceSource`]; it never needs the whole corpus at hand. Two
//! sources matter:
//!
//! * [`FlatCorpus`], a stored corpus: every token in one contiguous
//!   `tokens` array with an `offsets` fence table — two allocations and
//!   cache-linear iteration. Strings encoded by a [`Vocab`](crate::Vocab)
//!   (the baselines) and stored walk corpora (benches, tests) live here.
//! * [`WalkStream`](crate::walks::WalkStream), the walks of a fit,
//!   regenerated on every pass from their per-walk seeds, so a fit's
//!   memory does not grow with its token count.

/// A corpus a trainer reads in order, once per pass, without holding
/// it: documents, each a run of sentences.
///
/// Word2Vec trains on the sentences and ignores where documents begin;
/// PV-DBOW trains one row per document on its tokens. The methods the
/// trainers call per pass are `#[inline(always)]` in every
/// implementation, and so are the callbacks the trainers pass, so the
/// per-token loop is compiled into each trainer's dispatched
/// instantiation (see `crate::simd`).
pub trait SentenceSource {
    /// Number of documents; every document index is below it.
    fn documents(&self) -> usize;
    /// Whether document `doc` has no tokens.
    fn is_empty_document(&self, doc: usize) -> bool;
    /// Tokens in one pass.
    fn total_tokens(&self) -> u64;
    /// Calls `f(doc, tokens, lens)` for every document in index order
    /// (an empty one may be skipped): `tokens` holds its sentences back
    /// to back, `lens` their lengths.
    fn for_each_document(&self, f: impl FnMut(usize, &[u32], &[u32]));
}

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

    /// Appends one sentence.
    pub fn push(&mut self, sentence: &[u32]) {
        self.tokens.extend_from_slice(sentence);
        self.push_fence();
    }

    /// Appends raw tokens without closing a sentence; pair with
    /// [`push_fence`](FlatCorpus::push_fence).
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

    /// Appends a run of sentences: `tokens` holds them back to back,
    /// `lens` their lengths. This is how a stored walk corpus takes one
    /// chunk of walks at a time.
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

    /// Token frequencies sized to `id_bound`: counts index by token value
    /// so they double as a Word2Vec vocabulary over node ids. With
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

/// Each sentence is its own document.
impl SentenceSource for FlatCorpus {
    fn documents(&self) -> usize {
        self.len()
    }

    fn is_empty_document(&self, doc: usize) -> bool {
        self.sentence(doc).is_empty()
    }

    fn total_tokens(&self) -> u64 {
        self.tokens.len() as u64
    }

    #[inline(always)]
    fn for_each_document(&self, mut f: impl FnMut(usize, &[u32], &[u32])) {
        for (doc, sent) in self.sentences().enumerate() {
            f(doc, sent, &[sent.len() as u32]);
        }
    }
}

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
    fn sentences_iterate_in_order() {
        let mut c = FlatCorpus::with_capacity(3, 5);
        for s in [&[5, 6][..], &[], &[7, 8, 9]] {
            c.push(s);
        }
        let slices: Vec<&[u32]> = c.sentences().collect();
        assert_eq!(slices, [&[5, 6][..], &[], &[7, 8, 9]]);
        assert_eq!(c.sentences().len(), 3);
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
    fn token_counts_index_by_token() {
        let mut c = FlatCorpus::new();
        c.push(&[0, 1, 1]);
        c.push(&[2]);
        assert_eq!(c.token_counts(4, false), vec![1, 2, 1, 0]);
        assert_eq!(c.token_counts(4, true), vec![1, 2, 1, 1]);
    }
}
