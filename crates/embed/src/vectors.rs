//! Dense embedding stores and cosine similarity. Ranking lives in
//! [`crate::score`].

use std::collections::HashMap;

/// Cosine similarity of two equal-length vectors; 0 when either is zero.
///
/// ```
/// use tdmatch_embed::cosine;
/// assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
/// assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
/// ```
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// L2-normalizes `v` in place; leaves zero vectors untouched.
pub fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

/// Element-wise mean of vectors; `None` if the iterator is empty.
pub fn mean_of<'a, I: IntoIterator<Item = &'a [f32]>>(vectors: I) -> Option<Vec<f32>> {
    let mut iter = vectors.into_iter();
    let first = iter.next()?;
    let mut acc: Vec<f32> = first.to_vec();
    let mut n = 1usize;
    for v in iter {
        debug_assert_eq!(v.len(), acc.len());
        for (a, &x) in acc.iter_mut().zip(v) {
            *a += x;
        }
        n += 1;
    }
    let inv = 1.0 / n as f32;
    for a in &mut acc {
        *a *= inv;
    }
    Some(acc)
}

/// A word → vector store, the output of Word2Vec / Doc2Vec training.
#[derive(Debug, Clone, Default)]
pub struct Embeddings {
    dim: usize,
    index: HashMap<String, usize>,
    data: Vec<f32>,
}

impl Embeddings {
    /// Creates an empty store of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            index: HashMap::new(),
            data: Vec::new(),
        }
    }

    /// Builds a store from parallel word/matrix slices.
    pub fn from_matrix(words: &[String], matrix: Vec<f32>, dim: usize) -> Self {
        assert_eq!(words.len() * dim, matrix.len());
        let index = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        Self {
            dim,
            index,
            data: matrix,
        }
    }

    /// Inserts (or replaces) a vector for `word`.
    pub fn insert(&mut self, word: &str, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim);
        if let Some(&row) = self.index.get(word) {
            self.data[row * self.dim..(row + 1) * self.dim].copy_from_slice(vector);
        } else {
            let row = self.index.len();
            self.index.insert(word.to_string(), row);
            self.data.extend_from_slice(vector);
        }
    }

    /// The vector for `word`, if present.
    pub fn get(&self, word: &str) -> Option<&[f32]> {
        self.index
            .get(word)
            .map(|&row| &self.data[row * self.dim..(row + 1) * self.dim])
    }

    /// Dimensionality of the stored vectors.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored words.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no vector is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterates over stored words.
    pub fn words(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(|s| s.as_str())
    }

    /// Cosine similarity between two stored words; `None` if either is
    /// missing.
    pub fn similarity(&self, a: &str, b: &str) -> Option<f32> {
        Some(cosine(self.get(a)?, self.get(b)?))
    }

    /// Mean vector of the in-store subset of `words`; `None` if none is
    /// stored. This is the standard composition for longer text \[38\].
    pub fn mean_vector<S: AsRef<str>>(&self, words: &[S]) -> Option<Vec<f32>> {
        mean_of(words.iter().filter_map(|w| self.get(w.as_ref())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_bounds_and_degenerate() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        let s = cosine(&[1.0, 2.0], &[-1.0, -2.0]);
        assert!((s + 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalization() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((v[0] - 0.6).abs() < 1e-6 && (v[1] - 0.8).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_vector_composition() {
        let mut e = Embeddings::new(2);
        e.insert("a", &[1.0, 0.0]);
        e.insert("b", &[0.0, 1.0]);
        let m = e.mean_vector(&["a", "b", "oov"]).unwrap();
        assert_eq!(m, vec![0.5, 0.5]);
        assert!(e.mean_vector(&["oov"]).is_none());
    }

    #[test]
    fn insert_replaces() {
        let mut e = Embeddings::new(2);
        e.insert("a", &[1.0, 0.0]);
        e.insert("a", &[0.0, 2.0]);
        assert_eq!(e.get("a").unwrap(), &[0.0, 2.0]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn from_matrix_layout() {
        let words = vec!["x".to_string(), "y".to_string()];
        let e = Embeddings::from_matrix(&words, vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(e.get("x").unwrap(), &[1.0, 2.0]);
        assert_eq!(e.get("y").unwrap(), &[3.0, 4.0]);
    }
}
