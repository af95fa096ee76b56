//! Seeded input generators: every workload is a function of `--seed`.

use std::collections::HashSet;

use tdmatch_core::delta::DeltaBatch;

/// SplitMix64 — small, seedable, and the same stream on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by purpose (`salt`) so the request
    /// plan, the corpus and the deltas of one run do not share draws.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// A clustered embedding corpus, the shape fitted score matrices take
/// (documents about one entity embed near each other; `bench_ann`'s
/// generator): `rows / 64` centres, each row its centre ± 0.3 per
/// dimension, 2% of rows missing. Every query is a valid target row
/// perturbed by the same noise, and that row is its one true match.
pub struct Synthetic {
    pub dim: usize,
    pub targets: Vec<Option<Vec<f32>>>,
    pub queries: Vec<Option<Vec<f32>>>,
    pub truth: Vec<HashSet<usize>>,
}

pub fn synthetic(seed: u64, rows: usize, dim: usize, queries: usize) -> Synthetic {
    let mut rng = Rng::new(seed, 1);
    let centres: Vec<Vec<f32>> = (0..(rows / 64).max(1))
        .map(|_| (0..dim).map(|_| rng.unit()).collect())
        .collect();
    let targets: Vec<Option<Vec<f32>>> = (0..rows)
        .map(|_| {
            if rng.below(50) == 0 {
                None
            } else {
                let c = &centres[rng.below(centres.len())];
                Some(c.iter().map(|x| x + 0.3 * rng.unit()).collect())
            }
        })
        .collect();
    let mut truth = Vec::with_capacity(queries);
    let queries = (0..queries)
        .map(|_| loop {
            let t = rng.below(rows);
            if let Some(row) = &targets[t] {
                truth.push(HashSet::from([t]));
                break Some(row.iter().map(|x| x + 0.3 * rng.unit()).collect());
            }
        })
        .collect();
    Synthetic {
        dim,
        targets,
        queries,
        truth,
    }
}

/// One request of the serve-type load: query document `doc`, asked by
/// id or by its raw text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedRequest {
    pub doc: usize,
    pub by_text: bool,
}

/// The endless request sequence of one client connection. `text_in_4`
/// of every 4 requests (in expectation) are text queries.
pub struct RequestPlan {
    rng: Rng,
    docs: usize,
    text_in_4: usize,
}

impl RequestPlan {
    pub fn new(seed: u64, client: usize, docs: usize, text_in_4: usize) -> RequestPlan {
        RequestPlan {
            rng: Rng::new(seed, 100 + client as u64),
            docs,
            text_in_4,
        }
    }
}

impl Iterator for RequestPlan {
    type Item = PlannedRequest;

    fn next(&mut self) -> Option<PlannedRequest> {
        let doc = self.rng.below(self.docs);
        let by_text = self.rng.below(4) < self.text_in_4;
        Some(PlannedRequest { doc, by_text })
    }
}

const DELTA_APPENDS: usize = 4;
const DELTA_UPDATES: usize = 2;
const DELTA_TOMBSTONES: usize = 2;
const DELTA_DOC_TOKENS: usize = 6;

/// The delta stream of the `ingest` workload: each batch appends 4
/// documents, re-embeds 2 live rows and tombstones 2 live rows, with
/// tokens drawn from the artifact's frozen vocabulary.
pub struct DeltaStream {
    rng: Rng,
    vocabulary: Vec<String>,
    /// Liveness per target row, kept in step with the batches handed out.
    live: Vec<bool>,
    /// Rows of the base corpus no batch has updated or tombstoned yet.
    pristine: Vec<bool>,
}

/// What one batch did, for the visibility checks.
pub struct DeltaPlan {
    pub batch: DeltaBatch,
    /// `(row, tokens)` of the first appended document.
    pub appended: (usize, Vec<String>),
    pub tombstoned: Vec<usize>,
}

impl DeltaStream {
    pub fn new(seed: u64, vocabulary: Vec<String>, rows: usize) -> DeltaStream {
        assert!(!vocabulary.is_empty(), "delta stream needs a vocabulary");
        DeltaStream {
            rng: Rng::new(seed, 2),
            vocabulary,
            live: vec![true; rows],
            pristine: vec![true; rows],
        }
    }

    fn document(&mut self) -> Vec<String> {
        (0..DELTA_DOC_TOKENS)
            .map(|_| self.vocabulary[self.rng.below(self.vocabulary.len())].clone())
            .collect()
    }

    fn touch(&mut self, row: usize) {
        if let Some(p) = self.pristine.get_mut(row) {
            *p = false;
        }
    }

    fn live_row(&mut self) -> usize {
        loop {
            let row = self.rng.below(self.live.len());
            if self.live[row] {
                return row;
            }
        }
    }

    pub fn rows(&self) -> usize {
        self.live.len()
    }

    pub fn live_rows(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Per row of the base corpus: still as it was fitted.
    pub fn pristine(&self) -> &[bool] {
        &self.pristine
    }

    pub fn next_batch(&mut self) -> DeltaPlan {
        let mut batch = DeltaBatch::new();
        let first_new = self.live.len();
        let first_tokens = self.document();
        batch = batch.append(first_tokens.clone());
        for _ in 1..DELTA_APPENDS {
            batch = batch.append(self.document());
        }
        for _ in 0..DELTA_UPDATES {
            let row = self.live_row();
            self.touch(row);
            batch = batch.update(row, self.document());
        }
        let mut tombstoned = Vec::with_capacity(DELTA_TOMBSTONES);
        for _ in 0..DELTA_TOMBSTONES {
            let row = self.live_row();
            self.live[row] = false;
            self.touch(row);
            tombstoned.push(row);
            batch = batch.tombstone(row);
        }
        self.live.resize(first_new + DELTA_APPENDS, true);
        DeltaPlan {
            batch,
            appended: (first_new, first_tokens),
            tombstoned,
        }
    }
}
