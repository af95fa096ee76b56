//! Unigram negative-sampling table.
//!
//! Negative examples are drawn from the unigram distribution raised to the
//! 3/4 power, exactly as in word2vec.c: word `w` owns a run of consecutive
//! slots of a `size`-slot table, proportional to `count[w]^0.75`, and a
//! draw is one uniform slot number. What a draw returns is the drawn
//! word's *row*: the trainers keep their weights in the rows of a
//! [`RowLayout`], not in id order (for [`NegativeTable::new`], row = id).
//!
//! The table itself is never materialized. Words take their runs in id
//! order, so the table is fully described by where each run starts; each
//! run start is stored beside its word's row. A draw finds its run
//! through an index (the word owning every 16th slot) and a forward walk
//! over the run starts inside that 16-slot bucket, and reads the row
//! from the run it stops on, next to the start it last compared. Every
//! run is at least one slot long, so the walk takes at most 15 steps, and
//! on the benchmark's counts it is almost always zero. That is
//! `8·(V + 1) + size/4` bytes — 336 KiB at `fit-table`'s `V = 10297`,
//! `size = 1 << 20` — instead of `4·size` (4 MiB), which did not fit
//! beside the weight rows in a 2 MiB L2: every draw used to evict rows
//! being trained. The slot → word map is bit for bit the one word2vec.c's
//! loop fills in (the test-only `materialize` is that loop, and the index
//! is held against it slot by slot), so which word a draw lands on does
//! not depend on the layout; only the row it returns does.
//!
//! `V` counts every id of the walk vocabulary, the data nodes §II-C
//! similarity merging removed included: 10,297 ids at `fit-table`, 3,715
//! at `fit-text`. A merged id never appears in a walk, so its count is 0
//! and word2vec.c's loop still gives it exactly one slot; at `fit-table`
//! 8,084 of the 10,297 counts are 0. Those one-slot runs bunch together in
//! id order, and with 256-slot buckets a draw walked over them: 1.22
//! steps on average and up to 180 (0.43 and 255 at `fit-text`). With
//! 16-slot buckets the mean is 0.074 (0.025 at `fit-text`).

use rand::{Rng, RngExt};

use crate::rows::RowLayout;

/// Power applied to unigram counts (word2vec.c constant).
const POWER: f64 = 0.75;

/// `log2` of the slots per index bucket. 16 slots bound the walk after
/// the index at 15 steps, for an index of `size / 4` bytes. On
/// `fit-table`, 16 slots trained faster than 32 in 6 of 7 paired runs,
/// and 64 slots were slower than both.
const BUCKET_SHIFT: u32 = 4;

/// A sampled-unigram table over word ids `0..V`, whose draws are rows.
#[derive(Debug, Clone)]
pub struct NegativeTable {
    /// Slots in the (virtual) table.
    size: usize,
    /// `runs[w]` is the first slot word `w` owns, strictly ascending,
    /// and `w`'s row; then `size` as a sentinel start that ends every
    /// walk. Shorter than the vocabulary (plus one) when its tail never
    /// gets a slot.
    runs: Vec<Run>,
    /// `bucket[b]` is the word owning slot `b << BUCKET_SHIFT`.
    bucket: Vec<u32>,
}

/// One word's run of slots: where it starts, and the row a draw in it
/// returns.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    row: u32,
}

impl NegativeTable {
    /// Builds the table over `counts` (by id), each draw returning the
    /// drawn id; `size` trades sampling resolution for construction time
    /// (word2vec.c uses 1e8; 1e6 is ample for our vocabulary sizes).
    /// Which word a given draw lands on depends on `size`, so callers
    /// with a pinned trajectory must not change it.
    pub fn new(counts: &[u64], size: usize) -> Self {
        Self::build(counts.len(), |w| counts[w], |w| w as u32, size)
    }

    /// The table of [`new`](Self::new) over `layout`'s counts in id
    /// order — the same runs, so the same word for every draw — whose
    /// draws return the drawn word's row of `layout`.
    pub fn over_rows(layout: &RowLayout, size: usize) -> Self {
        Self::build(layout.ids(), |w| layout.count(w), |w| layout.row(w) as u32, size)
    }

    fn build(
        words: usize,
        count: impl Fn(usize) -> u64,
        row: impl Fn(usize) -> u32,
        size: usize,
    ) -> Self {
        assert!(words > 0, "cannot build a table over no words");
        let size = size.max(words);
        assert!(size <= u32::MAX as usize, "slot numbers are stored as u32");
        let norm: f64 = (0..words).map(|w| (count(w) as f64).powf(POWER)).sum();
        let mut runs = vec![Run { start: 0, row: row(0) }];
        let mut bucket = Vec::with_capacity(size.div_ceil(1 << BUCKET_SHIFT));
        let mut cumulative = (count(0) as f64).powf(POWER) / norm;
        let mut word = 0usize;
        for i in 0..size {
            if i & ((1 << BUCKET_SHIFT) - 1) == 0 {
                bucket.push(word as u32);
            }
            if (i + 1) as f64 / size as f64 > cumulative {
                if word + 1 < words {
                    word += 1;
                    if i + 1 < size {
                        runs.push(Run {
                            start: (i + 1) as u32,
                            row: row(word),
                        });
                    }
                }
                cumulative += (count(word) as f64).powf(POWER) / norm;
            }
        }
        runs.push(Run {
            start: size as u32,
            row: 0,
        });
        Self { size, runs, bucket }
    }

    /// The run owning slot `slot` (`slot < self.len()`): the bucket's
    /// word, then one step per run start between the bucket's first slot
    /// and `slot` — fewer than `1 << BUCKET_SHIFT`, since run starts are
    /// distinct slots. The sentinel start (`size > slot`) stops the walk.
    #[inline]
    fn run_at(&self, slot: usize) -> usize {
        let mut w = self.bucket[slot >> BUCKET_SHIFT] as usize;
        while self.runs[w + 1].start as usize <= slot {
            w += 1;
        }
        w
    }

    /// Draws one negative word and returns its row: exactly one
    /// `random_range(0..len)` draw, mapped through the slot → word map.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.runs[self.run_at(rng.random_range(0..self.size))].row
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

    impl NegativeTable {
        /// The word owning `slot`: its run's index.
        fn word_at(&self, slot: usize) -> u32 {
            self.run_at(slot) as u32
        }

        fn starts(&self) -> Vec<u32> {
            self.runs.iter().map(|r| r.start).collect()
        }
    }

    /// Walk steps behind the draw of `slot`: how many run starts
    /// `run_at` passes after its bucket's word.
    fn walk_steps(t: &NegativeTable, slot: usize) -> usize {
        (t.word_at(slot) - t.bucket[slot >> BUCKET_SHIFT]) as usize
    }

    /// Every slot of the index against the materialized table, the walk
    /// bound, and the allocation bound that makes it an index rather than
    /// a table: a start per word plus the sentinel, a word per bucket.
    fn assert_matches_table(counts: &[u64], size: usize) {
        let t = NegativeTable::new(counts, size);
        let table = materialize(counts, size);
        assert_eq!(t.len(), table.len());
        for (slot, &word) in table.iter().enumerate() {
            assert_eq!(t.word_at(slot), word, "V {} size {size} slot {slot}", counts.len());
            assert!(walk_steps(&t, slot) < 1 << BUCKET_SHIFT, "slot {slot}");
        }
        assert!(
            t.runs.len() + t.bucket.len()
                <= counts.len() + 1 + t.len().div_ceil(1 << BUCKET_SHIFT),
            "V {} size {size}: {} starts + {} buckets",
            counts.len(),
            t.runs.len(),
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
        assert_eq!(NegativeTable::new(&[0, 0, 0], 300).starts(), [0, 300]);
        // A single word.
        assert_matches_table(&[5], 100);
        // A head so heavy that the tail never gets a slot.
        let mut counts = vec![1u64; 40];
        counts[0] = u64::MAX;
        assert_matches_table(&counts, 40);
        assert!(NegativeTable::new(&counts, 40).runs.len() - 1 < 40);
        // Zeros at the head, in the middle and at the tail.
        assert_matches_table(&[0, 0, 9, 0, 4, 4, 0, 0], 300);
        assert_matches_table(&[0, 0, 9, 0, 4, 4, 0, 0], 8);
    }

    /// The vocabulary a fit on a merged graph trains over: live ids in
    /// short runs with Zipf-like counts, and the ids similarity merging
    /// removed in runs of up to 200 with count 0 — over 70% zeros, the
    /// shape of `fit-table`'s counts (8,084 zeros of 10,297).
    fn merged_counts() -> Vec<u64> {
        let mut state = 0x5EED_u64;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut counts = Vec::new();
        while counts.len() < 10_000 {
            let live = 1 + next(40);
            for _ in 0..live {
                counts.push(1 + 20_000 / (counts.len() as u64 + 1) + next(30));
            }
            let dead = 1 + next(200);
            counts.extend((0..dead).map(|_| 0));
        }
        counts
    }

    #[test]
    fn index_equals_the_table_on_merged_counts() {
        let counts = merged_counts();
        let zeros = counts.iter().filter(|&&c| c == 0).count();
        assert!(zeros * 10 >= counts.len() * 7, "{zeros} zeros of {}", counts.len());
        // The size `train_corpus` builds for this vocabulary.
        let size = (counts.len() * 32).max(1 << 20);
        assert_matches_table(&counts, size);
        // The fixture is one the coarse index walks far on: from the word
        // at every 256th slot, some draw passes more run starts than the
        // shipped bucket can hold.
        let t = NegativeTable::new(&counts, size);
        let coarse = (0..size)
            .map(|slot| t.word_at(slot) - t.word_at(slot & !255))
            .max()
            .unwrap();
        assert!(coarse >= 1 << BUCKET_SHIFT, "256-slot walk at most {coarse}");
        let mean = (0..size).map(|s| walk_steps(&t, s)).sum::<usize>() as f64 / size as f64;
        assert!(mean < 0.5, "mean walk {mean}");
    }

    /// Over a dense layout the table has the same runs, and every slot
    /// returns its word's row: draws land on the same words as over ids.
    #[test]
    fn a_table_over_rows_returns_the_drawn_words_row() {
        let counts = merged_counts();
        let layout = RowLayout::dense(&counts);
        let size = (counts.len() * 32).max(1 << 20);
        let by_id = NegativeTable::new(&counts, size);
        let by_row = NegativeTable::over_rows(&layout, size);
        assert_eq!(by_row.starts(), by_id.starts());
        assert_eq!(by_row.bucket, by_id.bucket);
        for slot in 0..size {
            let word = by_id.run_at(slot);
            assert_eq!(by_row.runs[by_row.run_at(slot)].row as usize, layout.row(word));
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let mut twin = rng.clone();
        for _ in 0..10_000 {
            let id = by_id.sample(&mut rng) as usize;
            assert_eq!(by_row.sample(&mut twin) as usize, layout.row(id));
        }
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
