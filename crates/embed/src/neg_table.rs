//! Unigram negative-sampling table.
//!
//! Negative examples are drawn from the unigram distribution raised to the
//! 3/4 power, exactly as in word2vec.c: word `w` owns a run of consecutive
//! slots of a `size`-slot table, proportional to `count[w]^0.75`, and a
//! draw is one uniform slot number.
//!
//! The table itself is never materialized. Words take their runs in id
//! order, so the table is fully described by where each run starts; a
//! draw finds its run through a coarse index (the word owning every
//! 256th slot) and a short forward walk. That is `4·V + size/64` bytes —
//! 27 KB at the benchmark's `V = 2792`, `size = 1 << 20` — instead of
//! `4·size` (4 MiB), which did not fit beside the weight rows in a
//! 2 MiB L2: every draw used to evict rows being trained. The slot → word
//! map is bit for bit the one word2vec.c's loop fills in (the test-only
//! `materialize` is that loop, and the index is held against it slot by
//! slot).

use rand::{Rng, RngExt};

/// Power applied to unigram counts (word2vec.c constant).
const POWER: f64 = 0.75;

/// `log2` of the slots per index bucket. 256 slots keep the index at
/// `size / 64` bytes and the walk after it short: a word owns
/// `size / V ≥ 32` slots on average, so a bucket spans few runs.
const BUCKET_SHIFT: u32 = 8;

/// A sampled-unigram table over word ids `0..counts.len()`.
#[derive(Debug, Clone)]
pub struct NegativeTable {
    /// Slots in the (virtual) table.
    size: usize,
    /// `starts[w]` is the first slot word `w` owns; strictly ascending.
    /// Shorter than the vocabulary when its tail never gets a slot.
    starts: Vec<u32>,
    /// `bucket[b]` is the word owning slot `b << BUCKET_SHIFT`.
    bucket: Vec<u32>,
}

impl NegativeTable {
    /// Builds the table; `size` trades sampling resolution for
    /// construction time (word2vec.c uses 1e8; 1e6 is ample for our
    /// vocabulary sizes). Which word a given draw lands on depends on
    /// `size`, so callers with a pinned trajectory must not change it.
    pub fn new(counts: &[u64], size: usize) -> Self {
        assert!(!counts.is_empty(), "cannot build a table over no words");
        let size = size.max(counts.len());
        assert!(size <= u32::MAX as usize, "slot numbers are stored as u32");
        let norm: f64 = counts.iter().map(|&c| (c as f64).powf(POWER)).sum();
        let mut starts = vec![0u32];
        let mut bucket = Vec::with_capacity(size.div_ceil(1 << BUCKET_SHIFT));
        let mut cumulative = (counts[0] as f64).powf(POWER) / norm;
        let mut word = 0usize;
        for i in 0..size {
            if i & ((1 << BUCKET_SHIFT) - 1) == 0 {
                bucket.push(word as u32);
            }
            if (i + 1) as f64 / size as f64 > cumulative {
                if word + 1 < counts.len() {
                    word += 1;
                    if i + 1 < size {
                        starts.push((i + 1) as u32);
                    }
                }
                cumulative += (counts[word] as f64).powf(POWER) / norm;
            }
        }
        Self { size, starts, bucket }
    }

    /// The word owning slot `slot` (`slot < self.len()`).
    #[inline]
    fn word_at(&self, slot: usize) -> u32 {
        let mut w = self.bucket[slot >> BUCKET_SHIFT] as usize;
        while w + 1 < self.starts.len() && self.starts[w + 1] as usize <= slot {
            w += 1;
        }
        w as u32
    }

    /// Draws one negative word id: exactly one `random_range(0..len)`
    /// draw, mapped through the slot → word map.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.word_at(rng.random_range(0..self.size))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the table is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The materialized table, as word2vec.c fills it — the reference
    /// the index is held against.
    fn materialize(counts: &[u64], size: usize) -> Vec<u32> {
        let size = size.max(counts.len());
        let norm: f64 = counts.iter().map(|&c| (c as f64).powf(POWER)).sum();
        let mut table = Vec::with_capacity(size);
        let mut cumulative = (counts[0] as f64).powf(POWER) / norm;
        let mut word = 0usize;
        for i in 0..size {
            table.push(word as u32);
            if (i + 1) as f64 / size as f64 > cumulative {
                if word + 1 < counts.len() {
                    word += 1;
                }
                cumulative += (counts[word] as f64).powf(POWER) / norm;
            }
        }
        table
    }

    /// Every slot of the index against the materialized table, and the
    /// allocation bound that makes it an index rather than a table.
    fn assert_matches_table(counts: &[u64], size: usize) {
        let t = NegativeTable::new(counts, size);
        let table = materialize(counts, size);
        assert_eq!(t.len(), table.len());
        for (slot, &word) in table.iter().enumerate() {
            assert_eq!(t.word_at(slot), word, "V {} size {size} slot {slot}", counts.len());
        }
        assert!(
            t.starts.len() + t.bucket.len() <= counts.len() + t.len() / 256 + 1,
            "V {} size {size}: {} starts + {} buckets",
            counts.len(),
            t.starts.len(),
            t.bucket.len()
        );
    }

    /// Zipf-like counts with a zero every seventh word.
    fn skewed_counts(v: usize) -> Vec<u64> {
        (0..v)
            .map(|w| if w % 7 == 3 { 0 } else { 1 + 5000 / (w as u64 + 1) })
            .collect()
    }

    #[test]
    fn index_equals_the_materialized_table_at_every_slot() {
        for v in [1usize, 2, 255, 256, 257, 3000] {
            let counts = skewed_counts(v);
            for size in [v, v + 1, 300, 4096, 1 << 20] {
                assert_matches_table(&counts, size);
            }
        }
    }

    #[test]
    fn index_equals_the_table_on_degenerate_counts() {
        // All-zero counts: `norm == 0`, every share is NaN, no
        // comparison ever advances — word 0 owns the whole table.
        assert_matches_table(&[0, 0, 0], 300);
        assert_eq!(NegativeTable::new(&[0, 0, 0], 300).starts, [0]);
        // A single word.
        assert_matches_table(&[5], 100);
        // A head so heavy that the tail never gets a slot.
        let mut counts = vec![1u64; 40];
        counts[0] = u64::MAX;
        assert_matches_table(&counts, 40);
        assert!(NegativeTable::new(&counts, 40).starts.len() < 40);
        // Zeros at the head, in the middle and at the tail.
        assert_matches_table(&[0, 0, 9, 0, 4, 4, 0, 0], 300);
        assert_matches_table(&[0, 0, 9, 0, 4, 4, 0, 0], 8);
    }

    #[test]
    fn sample_is_one_range_draw_through_the_map() {
        let counts = skewed_counts(300);
        let t = NegativeTable::new(&counts, 4096);
        let table = materialize(&counts, 4096);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut twin = rng.clone();
        for _ in 0..1000 {
            let slot: usize = twin.random_range(0..table.len());
            assert_eq!(t.sample(&mut rng), table[slot]);
        }
        // Both generators consumed the same draws.
        assert_eq!(rng.random::<u64>(), twin.random::<u64>());
    }

    #[test]
    fn covers_all_words() {
        let t = NegativeTable::new(&[10, 10, 10], 300);
        let mut seen = [false; 3];
        for slot in 0..t.len() {
            seen[t.word_at(slot) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn frequent_words_sampled_more() {
        let t = NegativeTable::new(&[1000, 10], 10_000);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0usize; 2];
        for _ in 0..20_000 {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        assert!(
            counts[0] > counts[1] * 5,
            "frequent word should dominate: {counts:?}"
        );
        assert!(counts[1] > 0, "rare word must still appear");
    }

    #[test]
    fn proportions_follow_power_law() {
        // counts 16:1 → (16^.75):(1^.75) = 8:1 sampling ratio.
        let t = NegativeTable::new(&[16, 1], 100_000);
        let share0 = (0..t.len()).filter(|&s| t.word_at(s) == 0).count() as f64 / t.len() as f64;
        assert!((share0 - 8.0 / 9.0).abs() < 0.01, "share0 = {share0}");
    }

    #[test]
    fn single_word_vocab() {
        let t = NegativeTable::new(&[5], 100);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(t.sample(&mut rng), 0);
    }
}
