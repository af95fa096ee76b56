//! Weight-matrix storage for Word2Vec / PV-DBOW training.
//!
//! Training runs on one worker, which owns its weights: an
//! [`OwnedMatrix`] of plain `f32`. The trainers run six row kernels over
//! it — read a row, dot with a row, dot with four rows, accumulate a
//! scaled row, the fused negative-sampling update, add into a row — as
//! loops over `&[f32]` / `&mut [f32]` slices, which the compiler
//! vectorizes.
//!
//! The dots are the scoring engine's: [`dot_unrolled`] keeps 8
//! accumulator lanes, a fixed reduction tree and a scalar remainder loop,
//! and [`dot_unrolled4`] computes four of them in one pass over the
//! operand, the same bits per row. Every other kernel is element-wise.
//! The trained bits are pinned by the root `tests/train_bits.rs`.
//!
//! The fused update ([`OwnedMatrix::update_row`]) is the second half of a
//! negative-sampling step in one pass over the target row: per element it
//! loads the row's old value once, adds `g ·` old into the error
//! accumulator, and stores old `+ g · buf` back — read-old-then-write, so
//! it is element for element the accumulate-then-add pair it replaced,
//! without walking the row twice.
//!
//! # Vector width
//!
//! Each trainer hands its epoch loop to [`simd::dispatch`], which runs
//! it at AVX2 width on a CPU that has it and at the default target's
//! width otherwise, with the same bits (see `crate::simd`). The kernels
//! below are `#[inline(always)]`, so they are compiled into both
//! instantiations. The two dots keep the scoring engine's attributes:
//! [`dot_unrolled`] is inlined, while [`dot_unrolled4`] stays one
//! out-of-line SSE2 call.
//!
//! [`simd::dispatch`]: crate::simd::dispatch

use crate::score::{dot_unrolled, dot_unrolled4};

/// The classic word2vec.c initialization: cell `i` uniform in
/// `[-0.5/dim, 0.5/dim)` from a deterministic per-cell hash of `seed`.
#[inline]
fn init_cell(seed: u64, i: usize, scale: f32) -> f32 {
    let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Map the top 24 bits to [0, 1).
    let unit = (h >> 40) as f32 / (1u64 << 24) as f32;
    (unit - 0.5) * 2.0 * scale
}

/// Row `id` of the uniform initialization: the `dim` cells from
/// `id × dim` on.
pub(crate) fn init_row(seed: u64, id: usize, dim: usize) -> impl Iterator<Item = f32> {
    let scale = 0.5 / dim as f32;
    (id * dim..(id + 1) * dim).map(move |i| init_cell(seed, i, scale))
}

/// A `rows × dim` matrix of plain `f32` owned by the training worker.
pub(crate) struct OwnedMatrix {
    data: Vec<f32>,
    dim: usize,
}

impl OwnedMatrix {
    /// Creates a zero-initialized matrix.
    pub(crate) fn zeroed(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            dim,
        }
    }

    /// Creates a matrix with the word2vec.c uniform initialization.
    pub(crate) fn uniform_init(rows: usize, dim: usize, seed: u64) -> Self {
        Self::uniform_init_rows(0..rows, rows, dim, seed)
    }

    /// The rows of [`uniform_init`](Self::uniform_init)'s matrix whose
    /// indices `ids` yields (`rows` of them), in that order: row `r`
    /// holds the cells id `ids[r]` has there.
    pub(crate) fn uniform_init_rows(
        ids: impl Iterator<Item = usize>,
        rows: usize,
        dim: usize,
        seed: u64,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * dim);
        for id in ids {
            data.extend(init_row(seed, id, dim));
        }
        assert_eq!(data.len(), rows * dim, "one id per row");
        Self { data, dim }
    }

    /// The full matrix as a dense row-major `Vec<f32>`.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline(always)]
    fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    #[inline(always)]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Copies row `r` into `buf` (`buf.len() == dim`).
    #[inline(always)]
    pub(crate) fn read_row(&self, r: usize, buf: &mut [f32]) {
        buf.copy_from_slice(self.row(r));
    }

    /// `Σ buf[i] * row_r[i]` — the scoring engine's [`dot_unrolled`].
    #[inline(always)]
    pub(crate) fn dot_with_row(&self, r: usize, buf: &[f32]) -> f32 {
        dot_unrolled(buf, self.row(r))
    }

    /// [`dot_with_row`](Self::dot_with_row) for four rows in one pass of
    /// [`dot_unrolled4`] over `buf`, the same bits per row.
    #[inline(always)]
    pub(crate) fn dot_with_rows4(&self, rows: [usize; 4], buf: &[f32]) -> [f32; 4] {
        // Spelled out: `rows.map(..)` is an out-of-line call.
        let [r0, r1, r2, r3] = rows;
        dot_unrolled4(buf, [self.row(r0), self.row(r1), self.row(r2), self.row(r3)])
    }

    /// `acc[i] += g * row_r[i]` — accumulate a scaled row.
    #[inline(always)]
    pub(crate) fn axpy_row_into(&self, r: usize, g: f32, acc: &mut [f32]) {
        debug_assert_eq!(acc.len(), self.dim);
        for (a, &x) in acc.iter_mut().zip(self.row(r)) {
            *a += g * x;
        }
    }

    /// `acc[i] += g * row_r[i]; row_r[i] += g * buf[i]`, both from the
    /// row's old value — one pass over the row.
    #[inline(always)]
    pub(crate) fn update_row(&mut self, r: usize, g: f32, buf: &[f32], acc: &mut [f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        debug_assert_eq!(acc.len(), self.dim);
        for ((x, &b), a) in self.row_mut(r).iter_mut().zip(buf).zip(acc) {
            let old = *x;
            *a += g * old;
            *x = old + g * b;
        }
    }

    /// Adds `delta` element-wise into row `r`.
    #[inline(always)]
    pub(crate) fn add_to_row(&mut self, r: usize, delta: &[f32]) {
        debug_assert_eq!(delta.len(), self.dim);
        for (x, &d) in self.row_mut(r).iter_mut().zip(delta) {
            *x += d;
        }
    }
}

/// SplitMix64 — tiny, high-quality 64-bit mixer for reproducible init.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reads_back_zero() {
        let m = OwnedMatrix::zeroed(3, 4);
        let mut buf = [1.0f32; 4];
        m.read_row(2, &mut buf);
        assert_eq!(buf, [0.0; 4]);
    }

    #[test]
    fn add_and_dot_roundtrip() {
        let mut m = OwnedMatrix::zeroed(2, 3);
        m.add_to_row(0, &[1.0, 2.0, 3.0]);
        m.add_to_row(0, &[0.5, 0.5, 0.5]);
        let mut buf = [0.0f32; 3];
        m.read_row(0, &mut buf);
        assert_eq!(buf, [1.5, 2.5, 3.5]);
        assert!((m.dot_with_row(0, &[1.0, 1.0, 1.0]) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn uniform_init_is_bounded_and_deterministic() {
        let a = OwnedMatrix::uniform_init(10, 16, 42).into_vec();
        let b = OwnedMatrix::uniform_init(10, 16, 42).into_vec();
        let c = OwnedMatrix::uniform_init(10, 16, 43).into_vec();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bound = 0.5 / 16.0 + 1e-6;
        assert!(a.iter().all(|x| x.abs() <= bound));
        // Not all zero.
        assert!(a.iter().any(|x| x.abs() > 1e-6));
    }

    #[test]
    fn init_rows_are_their_ids_rows_of_the_full_init() {
        let full = OwnedMatrix::uniform_init(10, 7, 42).into_vec();
        let ids = [1, 4, 5, 9];
        let picked = OwnedMatrix::uniform_init_rows(ids.into_iter(), ids.len(), 7, 42).into_vec();
        for (r, &id) in ids.iter().enumerate() {
            assert_eq!(picked[r * 7..(r + 1) * 7], full[id * 7..(id + 1) * 7], "id {id}");
            assert_eq!(init_row(42, id, 7).collect::<Vec<_>>(), full[id * 7..(id + 1) * 7]);
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut m = OwnedMatrix::zeroed(1, 2);
        m.add_to_row(0, &[2.0, 4.0]);
        let mut acc = [1.0f32, 1.0];
        m.axpy_row_into(0, 0.5, &mut acc);
        assert_eq!(acc, [2.0, 3.0]);
    }

    /// Dims covering every remainder of the 8-lane dot and of the
    /// vectorized element-wise loops, plus the dims the fits use.
    const DIMS: [usize; 22] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33, 80, 100, 128,
    ];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One pass of the four-row kernel ≡ four one-row dots, with a row
    /// repeated in the four.
    #[test]
    fn dot_with_rows4_equals_four_row_dots() {
        for dim in DIMS {
            let operand: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let m = OwnedMatrix::uniform_init(3, dim, 11);
            let rows = [2, 0, 1, 2];
            let one_by_one = rows.map(|r| m.dot_with_row(r, &operand));
            assert_eq!(
                bits(&m.dot_with_rows4(rows, &operand)),
                bits(&one_by_one),
                "dim {dim}"
            );
        }
    }

    /// The fused kernel against the two passes it replaced: accumulate
    /// the scaled old row, then add the scaled vector into the row.
    #[test]
    fn update_row_equals_axpy_then_add() {
        for dim in DIMS {
            let buf: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let acc0: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).cos()).collect();
            let g = -0.0173f32;

            let mut fused = OwnedMatrix::uniform_init(3, dim, 11);
            let mut acc = acc0.clone();
            fused.update_row(1, g, &buf, &mut acc);

            let mut two_pass = OwnedMatrix::uniform_init(3, dim, 11);
            let mut want_acc = acc0;
            two_pass.axpy_row_into(1, g, &mut want_acc);
            let scaled: Vec<f32> = buf.iter().map(|&b| g * b).collect();
            two_pass.add_to_row(1, &scaled);

            assert_eq!(bits(&acc), bits(&want_acc), "dim {dim}: accumulator");
            assert_eq!(
                bits(&fused.into_vec()),
                bits(&two_pass.into_vec()),
                "dim {dim}: matrix"
            );
        }
    }
}
