//! Weight-matrix storage for Word2Vec / PV-DBOW training.
//!
//! The trainers run six row kernels ([`Rows`]: read a row, dot with a
//! row, dot with four rows, accumulate a scaled row, the fused
//! negative-sampling update, add into a row) over one of two storages,
//! chosen by the resolved worker count alone:
//!
//! * [`OwnedMatrix`] — plain `f32`, for a single worker. Nothing is
//!   shared, so the kernels run over `&[f32]` / `&mut [f32]` slices and
//!   the compiler vectorizes them (SSE2 at the default target, no flags).
//! * [`SharedMatrix`] — lock-free cells for Hogwild-style SGD with several
//!   workers. Word2Vec training is embarrassingly parallel if one accepts
//!   benign data races on the weight matrix (Recht et al., "Hogwild!").
//!   Instead of `unsafe` aliasing, rows are stored as relaxed
//!   [`AtomicU32`] bit-casts of `f32`, which is sound Rust with Hogwild
//!   semantics (occasional lost updates). On x86-64 a relaxed atomic
//!   load/store is a plain `mov`, but LLVM never merges atomic accesses
//!   into vector operations, so these kernels stay scalar — one element
//!   per instruction, roughly half the owned path's training throughput.
//!   That is the price of sharing, and why one worker does not pay it.
//!
//! Both storages compute every element with the same operations in the
//! same order (the dot keeps its 8 accumulator lanes, reduction tree and
//! scalar remainder loop; every other kernel is element-wise), so a single
//! worker produces bit-identical weights over either — property-tested in
//! `word2vec.rs` and pinned by the root `tests/train_bits.rs`. The
//! four-row dot is four one-row dots on the shared storage and one pass
//! of [`dot_unrolled4`] over the operand on the owned one; per row it is
//! the same bits either way.
//!
//! The fused update ([`Rows::update_row`]) is the second half of a
//! negative-sampling step in one pass over the target row: per element it
//! loads the row's old value once, adds `g ·` old into the error
//! accumulator, and stores old `+ g · buf` back — read-old-then-write, so
//! it is element for element the accumulate-then-add pair it replaced,
//! without walking the row twice.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::score::{dot_unrolled, dot_unrolled4};

/// The row kernels training runs against a `rows × dim` weight matrix.
///
/// Updates take `&mut self`: the owned storage really is exclusive, and
/// the shared storage implements the trait on `&SharedMatrix`, a handle
/// every worker holds its own copy of.
pub trait Rows {
    /// Copies row `r` into `buf` (`buf.len() == dim`).
    fn read_row(&self, r: usize, buf: &mut [f32]);
    /// `Σ buf[i] * row_r[i]` without materializing the row.
    fn dot_with_row(&self, r: usize, buf: &[f32]) -> f32;
    /// [`dot_with_row`](Rows::dot_with_row) for four rows, same bits
    /// per row. The default makes four calls; the owned storage
    /// overrides it with [`dot_unrolled4`]'s one pass over `buf`.
    fn dot_with_rows4(&self, rows: [usize; 4], buf: &[f32]) -> [f32; 4] {
        rows.map(|r| self.dot_with_row(r, buf))
    }
    /// `acc[i] += g * row_r[i]` — accumulate a scaled row.
    fn axpy_row_into(&self, r: usize, g: f32, acc: &mut [f32]);
    /// `acc[i] += g * row_r[i]; row_r[i] += g * buf[i]`, both from the
    /// row's old value — one pass over the row.
    fn update_row(&mut self, r: usize, g: f32, buf: &[f32], acc: &mut [f32]);
    /// Adds `delta` element-wise into row `r`.
    fn add_to_row(&mut self, r: usize, delta: &[f32]);
}

/// The classic word2vec.c initialization: cell `i` uniform in
/// `[-0.5/dim, 0.5/dim)` from a deterministic per-cell hash of `seed`, so
/// initialization is reproducible regardless of storage or thread count.
#[inline]
fn init_cell(seed: u64, i: usize, scale: f32) -> f32 {
    let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Map the top 24 bits to [0, 1).
    let unit = (h >> 40) as f32 / (1u64 << 24) as f32;
    (unit - 0.5) * 2.0 * scale
}

/// A `rows × dim` matrix of plain `f32` owned by a single worker.
pub struct OwnedMatrix {
    data: Vec<f32>,
    dim: usize,
}

impl OwnedMatrix {
    /// Creates a zero-initialized matrix.
    pub fn zeroed(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            dim,
        }
    }

    /// Creates a matrix with the word2vec.c uniform initialization — cell
    /// for cell the values of [`SharedMatrix::uniform_init`].
    pub fn uniform_init(rows: usize, dim: usize, seed: u64) -> Self {
        let scale = 0.5 / dim as f32;
        Self {
            data: (0..rows * dim).map(|i| init_cell(seed, i, scale)).collect(),
            dim,
        }
    }

    /// The full matrix as a dense row-major `Vec<f32>`.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.dim..(r + 1) * self.dim]
    }
}

impl Rows for OwnedMatrix {
    #[inline]
    fn read_row(&self, r: usize, buf: &mut [f32]) {
        buf.copy_from_slice(self.row(r));
    }

    /// The scoring engine's dot: the same 8 lanes, reduction tree and
    /// remainder loop as [`SharedMatrix::dot_with_row`], term for term.
    #[inline]
    fn dot_with_row(&self, r: usize, buf: &[f32]) -> f32 {
        dot_unrolled(buf, self.row(r))
    }

    #[inline]
    fn dot_with_rows4(&self, rows: [usize; 4], buf: &[f32]) -> [f32; 4] {
        dot_unrolled4(buf, rows.map(|r| self.row(r)))
    }

    #[inline]
    fn axpy_row_into(&self, r: usize, g: f32, acc: &mut [f32]) {
        debug_assert_eq!(acc.len(), self.dim);
        for (a, &x) in acc.iter_mut().zip(self.row(r)) {
            *a += g * x;
        }
    }

    #[inline]
    fn update_row(&mut self, r: usize, g: f32, buf: &[f32], acc: &mut [f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        debug_assert_eq!(acc.len(), self.dim);
        for ((x, &b), a) in self.row_mut(r).iter_mut().zip(buf).zip(acc) {
            let old = *x;
            *a += g * old;
            *x = old + g * b;
        }
    }

    #[inline]
    fn add_to_row(&mut self, r: usize, delta: &[f32]) {
        debug_assert_eq!(delta.len(), self.dim);
        for (x, &d) in self.row_mut(r).iter_mut().zip(delta) {
            *x += d;
        }
    }
}

/// A `rows × dim` matrix of `f32` shareable across threads without locks.
pub struct SharedMatrix {
    data: Box<[AtomicU32]>,
    rows: usize,
    dim: usize,
}

impl SharedMatrix {
    /// Creates a zero-initialized matrix.
    pub fn zeroed(rows: usize, dim: usize) -> Self {
        let data: Box<[AtomicU32]> = (0..rows * dim).map(|_| AtomicU32::new(0)).collect();
        Self { data, rows, dim }
    }

    /// Creates a matrix with entries uniform in `[-0.5/dim, 0.5/dim)` — the
    /// classic word2vec.c initialization — from a deterministic per-cell
    /// hash of `seed`, so initialization is reproducible regardless of
    /// thread count.
    pub fn uniform_init(rows: usize, dim: usize, seed: u64) -> Self {
        let scale = 0.5 / dim as f32;
        let data: Box<[AtomicU32]> = (0..rows * dim)
            .map(|i| AtomicU32::new(init_cell(seed, i, scale).to_bits()))
            .collect();
        Self { data, rows, dim }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The atomic cells of row `r`.
    #[inline]
    fn row_cells(&self, r: usize) -> &[AtomicU32] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Copies row `r` into `buf` (`buf.len() == dim`).
    #[inline]
    pub fn read_row(&self, r: usize, buf: &mut [f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        for (b, cell) in buf.iter_mut().zip(self.row_cells(r)) {
            *b = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    // The row kernels below are unrolled into chunked loops over the
    // atomic cells (4-wide for the store kernels, 8 accumulator lanes for
    // the dot). That trims loop overhead and splits the dot's chain of
    // dependent adds eight ways, but every cell access is still its own
    // scalar `mov`: atomic loads and stores are never combined into
    // vector ops. The dot's lane layout and reduction tree are what
    // `OwnedMatrix` reproduces bit for bit.

    /// Adds `delta` element-wise into row `r` (racy read-modify-write:
    /// concurrent updates may occasionally be lost — Hogwild semantics).
    #[inline]
    pub fn add_to_row(&self, r: usize, delta: &[f32]) {
        debug_assert_eq!(delta.len(), self.dim);
        let row = self.row_cells(r);
        let mut cells = row.chunks_exact(4);
        let mut ds = delta.chunks_exact(4);
        for (cell4, d4) in (&mut cells).zip(&mut ds) {
            for l in 0..4 {
                let cur = f32::from_bits(cell4[l].load(Ordering::Relaxed));
                cell4[l].store((cur + d4[l]).to_bits(), Ordering::Relaxed);
            }
        }
        for (cell, &d) in cells.remainder().iter().zip(ds.remainder()) {
            let cur = f32::from_bits(cell.load(Ordering::Relaxed));
            cell.store((cur + d).to_bits(), Ordering::Relaxed);
        }
    }

    /// `Σ buf[i] * row_r[i]` without materializing the row.
    #[inline]
    pub fn dot_with_row(&self, r: usize, buf: &[f32]) -> f32 {
        debug_assert_eq!(buf.len(), self.dim);
        let row = self.row_cells(r);
        let mut lanes = [0.0f32; 8];
        let mut cells = row.chunks_exact(8);
        let mut bs = buf.chunks_exact(8);
        for (cell8, b8) in (&mut cells).zip(&mut bs) {
            for l in 0..8 {
                lanes[l] += b8[l] * f32::from_bits(cell8[l].load(Ordering::Relaxed));
            }
        }
        let mut acc = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
            + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
        for (cell, &b) in cells.remainder().iter().zip(bs.remainder()) {
            acc += b * f32::from_bits(cell.load(Ordering::Relaxed));
        }
        acc
    }

    /// `acc[i] += g * row_r[i]` — accumulate a scaled row.
    #[inline]
    pub fn axpy_row_into(&self, r: usize, g: f32, acc: &mut [f32]) {
        debug_assert_eq!(acc.len(), self.dim);
        let row = self.row_cells(r);
        let mut cells = row.chunks_exact(4);
        let mut accs = acc.chunks_exact_mut(4);
        for (cell4, a4) in (&mut cells).zip(&mut accs) {
            for l in 0..4 {
                a4[l] += g * f32::from_bits(cell4[l].load(Ordering::Relaxed));
            }
        }
        for (cell, a) in cells.remainder().iter().zip(accs.into_remainder()) {
            *a += g * f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// `acc[i] += g * row_r[i]; row_r[i] += g * buf[i]`, each cell loaded
    /// once and both computed from that value (racy, Hogwild).
    #[inline]
    pub fn update_row(&self, r: usize, g: f32, buf: &[f32], acc: &mut [f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        debug_assert_eq!(acc.len(), self.dim);
        let row = self.row_cells(r);
        let mut cells = row.chunks_exact(4);
        let mut bs = buf.chunks_exact(4);
        let mut accs = acc.chunks_exact_mut(4);
        for ((cell4, b4), a4) in (&mut cells).zip(&mut bs).zip(&mut accs) {
            for l in 0..4 {
                let cur = f32::from_bits(cell4[l].load(Ordering::Relaxed));
                a4[l] += g * cur;
                cell4[l].store((cur + g * b4[l]).to_bits(), Ordering::Relaxed);
            }
        }
        let tail = cells.remainder().iter().zip(bs.remainder());
        for ((cell, &b), a) in tail.zip(accs.into_remainder()) {
            let cur = f32::from_bits(cell.load(Ordering::Relaxed));
            *a += g * cur;
            cell.store((cur + g * b).to_bits(), Ordering::Relaxed);
        }
    }

    /// Extracts the full matrix as a dense `Vec<f32>` (row-major).
    pub fn to_vec(&self) -> Vec<f32> {
        self.data
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }
}

impl Rows for &SharedMatrix {
    #[inline]
    fn read_row(&self, r: usize, buf: &mut [f32]) {
        SharedMatrix::read_row(self, r, buf);
    }

    #[inline]
    fn dot_with_row(&self, r: usize, buf: &[f32]) -> f32 {
        SharedMatrix::dot_with_row(self, r, buf)
    }

    #[inline]
    fn axpy_row_into(&self, r: usize, g: f32, acc: &mut [f32]) {
        SharedMatrix::axpy_row_into(self, r, g, acc);
    }

    #[inline]
    fn update_row(&mut self, r: usize, g: f32, buf: &[f32], acc: &mut [f32]) {
        SharedMatrix::update_row(self, r, g, buf, acc);
    }

    #[inline]
    fn add_to_row(&mut self, r: usize, delta: &[f32]) {
        SharedMatrix::add_to_row(self, r, delta);
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
        let m = SharedMatrix::zeroed(3, 4);
        let mut buf = [1.0f32; 4];
        m.read_row(2, &mut buf);
        assert_eq!(buf, [0.0; 4]);
    }

    #[test]
    fn add_and_dot_roundtrip() {
        let m = SharedMatrix::zeroed(2, 3);
        m.add_to_row(0, &[1.0, 2.0, 3.0]);
        m.add_to_row(0, &[0.5, 0.5, 0.5]);
        let mut buf = [0.0f32; 3];
        m.read_row(0, &mut buf);
        assert_eq!(buf, [1.5, 2.5, 3.5]);
        assert!((m.dot_with_row(0, &[1.0, 1.0, 1.0]) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn uniform_init_is_bounded_and_deterministic() {
        let a = SharedMatrix::uniform_init(10, 16, 42);
        let b = SharedMatrix::uniform_init(10, 16, 42);
        let c = SharedMatrix::uniform_init(10, 16, 43);
        let (va, vb, vc) = (a.to_vec(), b.to_vec(), c.to_vec());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        let bound = 0.5 / 16.0 + 1e-6;
        assert!(va.iter().all(|x| x.abs() <= bound));
        // Not all zero.
        assert!(va.iter().any(|x| x.abs() > 1e-6));
    }

    #[test]
    fn axpy_accumulates() {
        let m = SharedMatrix::zeroed(1, 2);
        m.add_to_row(0, &[2.0, 4.0]);
        let mut acc = [1.0f32, 1.0];
        m.axpy_row_into(0, 0.5, &mut acc);
        assert_eq!(acc, [2.0, 3.0]);
    }

    /// Dims covering every remainder of the 4-wide and 8-lane chunked
    /// loops, plus the dims the fits and the contract test use.
    const TWIN_DIMS: [usize; 22] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33, 80, 100, 128,
    ];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `kernel(matrix, operand, out)` over an owned matrix and its
    /// atomic twin (same init, same operand) at every dim in `TWIN_DIMS`
    /// and requires the same bits in `out` and in the matrix afterwards.
    fn assert_twins(kernel: impl Fn(&mut dyn Rows, &[f32], &mut [f32])) {
        for dim in TWIN_DIMS {
            let operand: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let mut owned = OwnedMatrix::uniform_init(3, dim, 11);
            let shared = SharedMatrix::uniform_init(3, dim, 11);
            let (mut out_o, mut out_s) = (operand.clone(), operand.clone());
            kernel(&mut owned, &operand, &mut out_o);
            kernel(&mut &shared, &operand, &mut out_s);
            assert_eq!(bits(&out_o), bits(&out_s), "dim {dim}: output");
            assert_eq!(bits(&owned.into_vec()), bits(&shared.to_vec()), "dim {dim}: matrix");
        }
    }

    #[test]
    fn owned_read_row_matches_atomic_twin() {
        assert_twins(|m, _, out| m.read_row(1, out));
    }

    #[test]
    fn owned_dot_with_row_matches_atomic_twin() {
        assert_twins(|m, operand, out| out[0] = m.dot_with_row(1, operand));
    }

    /// Owned (one pass of the four-row kernel) ≡ shared (four one-row
    /// dots) ≡ four owned one-row dots, with a row repeated in the four.
    #[test]
    fn owned_dot_with_rows4_matches_atomic_twin() {
        for dim in TWIN_DIMS {
            let operand: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let owned = OwnedMatrix::uniform_init(3, dim, 11);
            let shared = SharedMatrix::uniform_init(3, dim, 11);
            let rows = [2, 0, 1, 2];
            let got = owned.dot_with_rows4(rows, &operand);
            let one_by_one = rows.map(|r| owned.dot_with_row(r, &operand));
            assert_eq!(bits(&got), bits(&(&shared).dot_with_rows4(rows, &operand)), "dim {dim}");
            assert_eq!(bits(&got), bits(&one_by_one), "dim {dim}");
        }
    }

    #[test]
    fn owned_axpy_row_into_matches_atomic_twin() {
        assert_twins(|m, _, out| m.axpy_row_into(1, -0.7, out));
    }

    #[test]
    fn owned_update_row_matches_atomic_twin() {
        assert_twins(|m, operand, out| m.update_row(1, 0.3, operand, out));
    }

    /// The fused kernel against the two passes it replaced: accumulate
    /// the scaled old row, then add the scaled vector into the row.
    #[test]
    fn update_row_equals_axpy_then_add() {
        for dim in TWIN_DIMS {
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
            assert_eq!(bits(&fused.into_vec()), bits(&two_pass.into_vec()), "dim {dim}: matrix");
        }
    }

    #[test]
    fn owned_add_to_row_matches_atomic_twin() {
        assert_twins(|m, operand, _| m.add_to_row(1, operand));
    }

    #[test]
    fn concurrent_updates_do_not_crash_and_mostly_land() {
        use std::sync::Arc;
        let m = Arc::new(SharedMatrix::zeroed(1, 8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.add_to_row(0, &[1.0; 8]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut buf = [0.0f32; 8];
        m.read_row(0, &mut buf);
        // Hogwild may lose updates but most should land.
        assert!(buf[0] > 1000.0, "buf[0] = {}", buf[0]);
        assert!(buf[0] <= 4000.0);
    }
}
