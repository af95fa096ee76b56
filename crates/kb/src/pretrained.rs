//! Simulated pre-trained embeddings (Wikipedia2Vec / SentenceBERT stand-in).
//!
//! The paper uses two pre-trained resources: Wikipedia2Vec vectors to merge
//! similar data nodes (γ = 0.57, §II-C) and SentenceBERT as the strongest
//! unsupervised baseline (S-BE, §V). Neither can be shipped here, so we
//! build a deterministic vector space with the properties that matter:
//!
//! * words in the same synonym group embed close (cosine well above
//!   unrelated words) — merging and generic-text matching work;
//! * every general-lexicon word and each registered "popular entity" has a
//!   vector — the model is good on generic text (STS, Snopes);
//! * domain-specific terms (audit vocabulary, invented movie titles, most
//!   synthetic person names) are **out of vocabulary** — the model degrades
//!   exactly where the paper says pre-trained resources degrade;
//! * for sentence embeddings, unknown words contribute only a weak
//!   hash-based vector, mimicking a transformer's subword fallback.

use std::collections::HashMap;

use tdmatch_text::stem::stem;

use crate::lexicon;

/// Deterministic hash → unit-ish vector, used for concept bases and OOV
/// fallbacks.
fn hash_vector(key: &str, salt: u64, dim: usize) -> Vec<f32> {
    let mut state = salt ^ 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        state ^= b as u64;
        state = state.wrapping_mul(0x100_0000_01b3);
    }
    let mut v = Vec::with_capacity(dim);
    for i in 0..dim {
        let mut x = state ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let unit = (x >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
        v.push(unit * 2.0 - 1.0);
    }
    normalize(&mut v);
    v
}

fn normalize(v: &mut [f32]) {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// How strongly a word's idiosyncratic component perturbs its concept base.
/// Chosen so that synonym cosine lands near the paper's γ = 0.57.
const WORD_NOISE: f32 = 0.95;
/// Weight of the OOV hash fallback in sentence embeddings. Deterministic
/// per surface form, so shared unseen tokens still align two sentences —
/// the behavior of subword vocabularies in real sentence encoders.
const OOV_WEIGHT: f32 = 0.6;

/// The simulated pre-trained model.
///
/// A label's vector costs one hash lookup per token (two, and a `stem`
/// allocation, on a miss) and a fresh `dim`-float mean. Code comparing
/// many pairs over a fixed set of labels embeds each label once with
/// [`label_vectors`](Self::label_vectors), so a pair costs one cosine.
#[derive(Debug, Clone)]
pub struct PretrainedModel {
    dim: usize,
    vectors: HashMap<String, Vec<f32>>,
    seed: u64,
}

impl PretrainedModel {
    /// Builds the standard model over the general lexicon: nouns, verbs,
    /// adjectives, title words, countries, genre pairs, first names, and a
    /// deterministic fraction (`entity_coverage` in `[0,1]`) of last names
    /// — "popular entities" the pre-trained resource happens to know.
    ///
    /// Audit terms and acronyms are deliberately excluded.
    pub fn standard(dim: usize, seed: u64, entity_coverage: f64) -> Self {
        let mut model = Self {
            dim,
            vectors: HashMap::new(),
            seed,
        };
        // Synonym groups first: one shared concept base per group.
        for (gi, group) in lexicon::SYNONYM_GROUPS.iter().enumerate() {
            let base = hash_vector(&format!("concept-group-{gi}"), seed, dim);
            for &w in *group {
                model.insert_word(w, &base);
            }
        }
        // Genre colloquialisms share a concept with their genre.
        for (genre, colloquial) in lexicon::GENRES {
            let base = hash_vector(&format!("concept-genre-{genre}"), seed, dim);
            model.insert_word(genre, &base);
            model.insert_word(colloquial, &base);
        }
        // Remaining general vocabulary: own concept each.
        let singles = lexicon::GENERIC_NOUNS
            .iter()
            .chain(lexicon::GENERIC_VERBS)
            .chain(lexicon::GENERIC_ADJS)
            .chain(lexicon::TITLE_WORDS)
            .chain(lexicon::COUNTRIES)
            .chain(lexicon::FIRST_NAMES);
        for &w in singles {
            if !model.vectors.contains_key(w) {
                let base = hash_vector(&format!("concept-{w}"), seed, dim);
                model.insert_word(w, &base);
            }
        }
        // Popular entities: a deterministic subset of last names.
        for (i, &name) in lexicon::LAST_NAMES.iter().enumerate() {
            let covered =
                lexicon::pick(seed ^ 0xE17, i as u64, 1000) < (entity_coverage * 1000.0) as usize;
            if covered {
                let base = hash_vector(&format!("concept-entity-{name}"), seed, dim);
                model.insert_word(name, &base);
            }
        }
        model
    }

    /// Inserts `word` (and its stemmed form) as `base + WORD_NOISE · hash`.
    fn insert_word(&mut self, word: &str, base: &[f32]) {
        let noise = hash_vector(word, self.seed ^ 0xBEEF, self.dim);
        let mut v: Vec<f32> = base
            .iter()
            .zip(&noise)
            .map(|(&b, &n)| b + WORD_NOISE * n)
            .collect();
        normalize(&mut v);
        let stemmed = stem(word);
        self.vectors.entry(word.to_string()).or_insert_with(|| v.clone());
        self.vectors.entry(stemmed).or_insert(v);
    }

    /// Registers an additional known entity (e.g. a famous full name the
    /// dataset generator marks as popular).
    pub fn add_entity(&mut self, name: &str) {
        let base = hash_vector(&format!("concept-entity-{name}"), self.seed, self.dim);
        self.insert_word(name, &base);
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of known surface forms.
    pub fn vocab_size(&self) -> usize {
        self.vectors.len()
    }

    /// The vector of `word`, trying the raw form then the stemmed form.
    /// `None` for out-of-vocabulary words.
    pub fn word_vector(&self, word: &str) -> Option<&[f32]> {
        self.vectors
            .get(word)
            .or_else(|| self.vectors.get(&stem(word)))
            .map(|v| v.as_slice())
    }

    /// True if the model knows `word`.
    pub fn knows(&self, word: &str) -> bool {
        self.word_vector(word).is_some()
    }

    /// Cosine similarity between two words; `None` if either is OOV.
    pub fn similarity(&self, a: &str, b: &str) -> Option<f32> {
        Some(cosine(self.word_vector(a)?, self.word_vector(b)?))
    }

    /// Similarity between two multi-token labels (mean-of-tokens on each
    /// side); `None` if either side is fully OOV. This is the cosine the
    /// merging step compares against γ; it embeds both labels on every
    /// call, so a caller scoring many pairs over the same labels embeds
    /// them once with [`label_vectors`](Self::label_vectors) instead.
    pub fn label_similarity(&self, a: &str, b: &str) -> Option<f32> {
        let va = self.label_vector(a)?;
        let vb = self.label_vector(b)?;
        Some(cosine(&va, &vb))
    }

    /// Mean vector of the known tokens of a label; `None` if all OOV.
    pub fn label_vector(&self, label: &str) -> Option<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim];
        self.mean_into(label, &mut acc).then_some(acc)
    }

    /// Writes the mean vector of `label`'s known tokens into the zeroed
    /// `acc`; false (and `acc` left zero) if every token is OOV.
    fn mean_into(&self, label: &str, acc: &mut [f32]) -> bool {
        let mut n = 0usize;
        for tok in label.split_whitespace() {
            if let Some(v) = self.word_vector(tok) {
                for (a, &x) in acc.iter_mut().zip(v) {
                    *a += x;
                }
                n += 1;
            }
        }
        if n == 0 {
            return false;
        }
        let inv = 1.0 / n as f32;
        for a in acc {
            *a *= inv;
        }
        true
    }

    /// Embeds every label once: the [`label_vector`](Self::label_vector)
    /// of each, in one flat arena, with its norm cached. Scoring a pair
    /// through [`LabelVectors::similarity`] then costs one dot product,
    /// and gives the same bits as [`label_similarity`](Self::label_similarity)
    /// on the two labels.
    ///
    /// The arena is sized exactly: a first pass finds the labels with a
    /// known token, so it holds one row per such label and nothing more
    /// (growing it by doubling held up to twice that).
    pub fn label_vectors<S: AsRef<str>>(&self, labels: &[S]) -> LabelVectors {
        let present = labels
            .iter()
            .filter(|label| label.as_ref().split_whitespace().any(|tok| self.knows(tok)))
            .count();
        let mut arena = Vec::with_capacity(present * self.dim);
        let mut norms = Vec::with_capacity(present);
        let mut acc = vec![0.0f32; self.dim];
        let rows = labels
            .iter()
            .map(|label| {
                if !self.mean_into(label.as_ref(), &mut acc) {
                    return None;
                }
                arena.extend_from_slice(&acc);
                // `cosine`'s own sum, in its order.
                let mut sq = 0.0f32;
                for &x in &acc {
                    sq += x * x;
                }
                acc.fill(0.0);
                norms.push(sq.sqrt());
                Some(u32::try_from(norms.len() - 1).expect("fewer than 2^32 labels"))
            })
            .collect();
        LabelVectors {
            dim: self.dim,
            arena,
            norms,
            rows,
        }
    }

    /// Sentence embedding: mean over token vectors, with OOV tokens
    /// contributing a weak hash vector (subword-fallback behavior). This is
    /// the S-BE baseline's encoder.
    pub fn sentence_vector<S: AsRef<str>>(&self, tokens: &[S]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        let mut n = 0usize;
        for tok in tokens {
            let tok = tok.as_ref();
            match self.word_vector(tok) {
                Some(v) => {
                    for (a, &x) in acc.iter_mut().zip(v) {
                        *a += x;
                    }
                }
                None => {
                    let v = hash_vector(tok, self.seed ^ OOV_SALT, self.dim);
                    for (a, &x) in acc.iter_mut().zip(&v) {
                        *a += OOV_WEIGHT * x;
                    }
                }
            }
            n += 1;
        }
        if n > 0 {
            let inv = 1.0 / n as f32;
            for a in &mut acc {
                *a *= inv;
            }
        }
        acc
    }

    /// Calibrates the merge threshold γ as the mean cosine over known
    /// synonym pairs (§II-C). Falls back to `0.57` (the paper's
    /// Wikipedia2Vec value) when no pair is in vocabulary.
    pub fn calibrate_gamma(&self, pairs: &[(String, String)]) -> f32 {
        let mut sum = 0.0f32;
        let mut n = 0usize;
        for (a, b) in pairs {
            if let Some(s) = self.similarity(a, b) {
                sum += s;
                n += 1;
            }
        }
        if n == 0 {
            0.57
        } else {
            sum / n as f32
        }
    }
}

/// Salt separating the OOV fallback space from concept vectors.
const OOV_SALT: u64 = 0xF00D;

/// The label vectors of a list of labels, each computed once
/// ([`PretrainedModel::label_vectors`]). Fully-OOV labels take no space.
#[derive(Debug, Clone)]
pub struct LabelVectors {
    dim: usize,
    /// One `dim`-float row per label that has a vector, in label order.
    arena: Vec<f32>,
    /// `√Σx²` of each arena row, summed in `cosine`'s order.
    norms: Vec<f32>,
    /// Each label's arena row; `None` when every token is OOV.
    rows: Vec<Option<u32>>,
}

impl LabelVectors {
    /// Whether label `i` has a vector (some token is known).
    pub fn is_present(&self, i: usize) -> bool {
        self.rows[i].is_some()
    }

    /// The cosine between labels `a` and `b`; `None` if either is fully
    /// OOV. The same bits as `label_similarity` on the two labels: the dot
    /// runs in `cosine`'s order, and each norm's sum never depended on
    /// the other vector, so caching its root changes nothing — nor does
    /// the zero rule, since `√s == 0` exactly when `s == 0`.
    pub fn similarity(&self, a: usize, b: usize) -> Option<f32> {
        let (ra, rb) = (self.rows[a]? as usize, self.rows[b]? as usize);
        let va = &self.arena[ra * self.dim..(ra + 1) * self.dim];
        let vb = &self.arena[rb * self.dim..(rb + 1) * self.dim];
        let mut dot = 0.0f32;
        for (&x, &y) in va.iter().zip(vb) {
            dot += x * y;
        }
        let (na, nb) = (self.norms[ra], self.norms[rb]);
        Some(if na == 0.0 || nb == 0.0 { 0.0 } else { dot / (na * nb) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wordnet::SyntheticWordNet;

    fn model() -> PretrainedModel {
        PretrainedModel::standard(64, 42, 0.25)
    }

    #[test]
    fn the_label_arena_holds_exactly_the_present_rows() {
        let m = model();
        let labels = ["big", "zorblat qwx", "large doctor", "", "qqqq", "zorblat big"];
        let v = m.label_vectors(&labels);
        let present: Vec<bool> = (0..labels.len()).map(|i| v.is_present(i)).collect();
        assert_eq!(present, [true, false, true, false, false, true]);
        assert_eq!(v.arena.capacity(), 3 * m.dim());
        assert_eq!(v.norms.capacity(), 3);
    }

    #[test]
    fn synonyms_are_closer_than_random_words() {
        let m = model();
        let syn = m.similarity("big", "large").unwrap();
        let unrel = m.similarity("big", "doctor").unwrap();
        assert!(syn > 0.35, "synonym similarity too low: {syn}");
        assert!(syn > unrel + 0.25, "syn={syn} unrel={unrel}");
    }

    #[test]
    fn audit_terms_are_oov() {
        let m = model();
        assert!(!m.knows("materiality"));
        assert!(!m.knows("pdca"));
        assert!(m.knows("movie"));
    }

    #[test]
    fn gamma_calibration_matches_paper_ballpark() {
        let m = model();
        let wn = SyntheticWordNet::standard();
        let gamma = m.calibrate_gamma(wn.synonym_pairs());
        // The paper reports γ = 0.57 for Wikipedia2Vec; our space is tuned
        // to land in the same region.
        assert!(
            (0.35..=0.75).contains(&gamma),
            "gamma {gamma} out of plausible band"
        );
    }

    #[test]
    fn sentence_vectors_reflect_content() {
        let m = model();
        let a = m.sentence_vector(&["the", "movie", "was", "great"]);
        let b = m.sentence_vector(&["the", "film", "was", "excellent"]);
        let c = m.sentence_vector(&["tax", "policy", "vote", "senate"]);
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn oov_sentences_are_weakly_distinguishable() {
        let m = model();
        let a = m.sentence_vector(&["materiality", "workpaper"]);
        let b = m.sentence_vector(&["materiality", "workpaper"]);
        let c = m.sentence_vector(&["substantive", "sampling"]);
        assert_eq!(a, b, "deterministic");
        assert!(cosine(&a, &c) < 0.9, "distinct OOV content should differ");
        assert!(a.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn entity_coverage_is_partial() {
        let m = model();
        let known = crate::lexicon::LAST_NAMES
            .iter()
            .filter(|n| m.knows(n))
            .count();
        let frac = known as f64 / crate::lexicon::LAST_NAMES.len() as f64;
        assert!(frac > 0.05 && frac < 0.6, "coverage fraction {frac}");
    }

    #[test]
    fn add_entity_registers_full_names() {
        let mut m = model();
        assert!(!m.knows("zorblat"));
        m.add_entity("zorblat");
        assert!(m.knows("zorblat"));
    }

    #[test]
    fn label_similarity_handles_multi_token() {
        let m = model();
        let s = m.label_similarity("dark night", "dark night");
        assert!((s.unwrap() - 1.0).abs() < 1e-5);
        assert!(m.label_similarity("materiality", "workpaper").is_none());
    }

    #[test]
    fn deterministic_across_constructions() {
        let a = PretrainedModel::standard(32, 7, 0.2);
        let b = PretrainedModel::standard(32, 7, 0.2);
        assert_eq!(a.word_vector("movie"), b.word_vector("movie"));
    }
}
