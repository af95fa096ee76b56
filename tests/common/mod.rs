//! The fixed 64 × 8 artifact material and the ranking hash the root
//! `rank_bits.rs` and `delta_bits.rs` contracts share, and the
//! clustered generator `ann_bits.rs` and `scan_bits.rs` draw their
//! corpora from (both also use the hash). Moving any of them moves every
//! constant pinned in those files.
#![allow(dead_code)]

use tdmatch::core::matcher::MatchResult;

pub const DIM: usize = 8;
pub const TARGETS: usize = 64;
pub const QUERIES: usize = 8;
pub const K: usize = 5;

pub type Rows = Vec<Option<Vec<f32>>>;

/// 64 targets (rows 7, 18, 29, 40, 51, 62 missing) × 8 queries (row 5
/// missing) × 5 terms, xorshift material, default index parameters.
pub fn fixture_rows() -> (Vec<(String, Vec<f32>)>, Rows, Rows) {
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1 << 24) as f32 - 0.5
    };
    let mut row = move || -> Vec<f32> { (0..DIM).map(|_| next()).collect() };
    let terms = ["alpha", "beta", "gamma", "delta", "epsilon"]
        .iter()
        .map(|t| (t.to_string(), row()))
        .collect();
    let first = (0..TARGETS).map(|i| (i % 11 != 7).then(&mut row)).collect();
    let second = (0..QUERIES).map(|i| (i != 5).then(&mut row)).collect();
    (terms, first, second)
}

/// SplitMix64, as the benchmark's generator draws.
pub struct SplitMix(pub u64);

impl SplitMix {
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
    pub fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    /// `rows` targets in the benchmark's clustered shape: `rows / 64`
    /// centres, each row its centre ± 0.3 per dimension, 2% of rows
    /// missing.
    pub fn clustered(&mut self, rows: usize, dim: usize) -> Rows {
        let centres: Vec<Vec<f32>> = (0..(rows / 64).max(1))
            .map(|_| (0..dim).map(|_| self.unit()).collect())
            .collect();
        (0..rows)
            .map(|_| {
                if self.below(50) == 0 {
                    return None;
                }
                let c = &centres[self.below(centres.len())];
                Some(c.iter().map(|x| x + 0.3 * self.unit()).collect())
            })
            .collect()
    }
}

/// FNV-1a over little-endian `u64` words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The ranking's length, then `(query, target, score bits)` per entry.
    pub fn ranked(&mut self, query: usize, ranked: &[(usize, f32)]) {
        self.word(ranked.len() as u64);
        for &(t, s) in ranked {
            self.word(query as u64);
            self.word(t as u64);
            self.word(s.to_bits() as u64);
        }
    }
}

pub fn hash_results(results: &[MatchResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.ranked(r.query, &r.ranked);
    }
    h.0
}
