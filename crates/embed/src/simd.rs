//! The one place that picks the vector width a hot loop runs at.
//!
//! Two kinds of loop go through [`dispatch`]: the trainers' epoch loops
//! (`Worker` behind `word2vec::train_corpus`, `PvDbow` behind
//! `doc2vec::train_pv_dbow`) and the exact dense scan
//! (`score::score_dense_into`, which every exact ranking runs). Each is
//! a [`Kernel`], which `dispatch` runs in one of two instantiations of
//! the same source. At the default `x86_64` target (SSE2, no flags) the
//! 8 lanes of a dot live in two `xmm` registers. On an `x86_64` CPU that
//! reports AVX2 at run time, `dispatch` runs the loop compiled with AVX2
//! enabled, and the 8 lanes fit one `ymm` register. Any other CPU or
//! architecture runs the default build. Only AVX2 is enabled: AVX-512
//! would want 16 lanes, which is a different reduction tree and
//! different bits.
//!
//! Both instantiations give the same bits, by construction: the dots fix
//! their lanes, reduction tree and remainder in source; every other
//! kernel works element by element; and Rust never fuses a multiply and
//! an add into an FMA, nor reassociates a float sum. The
//! `dispatched_training_equals_the_plain_body` tests in `word2vec.rs`
//! and `doc2vec.rs`, and `dispatched_scan_equals_the_plain_body` in
//! `score.rs`, hold the two instantiations to the same bits.
//!
//! A kernel's `run`, and what it calls per element, must be
//! `#[inline(always)]`, so it is compiled into the AVX2 instantiation
//! rather than called at SSE2 width. What each user inlines differs:
//!
//! * **Training** inlines its loop, the negative-sampling step and the
//!   `OwnedMatrix` kernels. [`dot_unrolled`](crate::score::dot_unrolled)
//!   is inlined too, while
//!   [`dot_unrolled4`](crate::score::dot_unrolled4) stays one
//!   out-of-line SSE2 call. That costs nothing there. At SSE2 width its
//!   four rows keep eight `xmm` add chains in flight; at AVX2 width they
//!   would be four `ymm` chains, each waiting on its own adds. Both take
//!   about the same time per 8 elements, and an inlined variant measured
//!   no faster.
//! * **The scan** inlines the four-row kernel (`score::dot4`, the same
//!   source as `dot_unrolled4`) and its `TopK` feed, so a tile fill runs
//!   at AVX2 width with no call per four rows.
//!
//! The HNSW walk (`ann.rs`) does not dispatch: it runs at the default
//! width and calls `dot_unrolled4` out of line.

/// A hot loop and the state it runs over.
pub(crate) trait Kernel {
    /// Runs the loop. Implementations are `#[inline(always)]`, as is
    /// what they call per element, so [`dispatch`] compiles the loop
    /// into each instantiation. A closure or a function value would not
    /// do: the compiler inlines those only when it finds them small,
    /// and an epoch loop is not small.
    fn run(&mut self);
}

/// Runs `kernel` at the widest vector width this CPU offers that keeps
/// the bits: AVX2 when it has it, the default target otherwise. See the
/// [module docs](self).
#[inline(always)]
pub(crate) fn dispatch(kernel: &mut impl Kernel) {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: `with_avx2` only enables AVX2, which this CPU has.
        return unsafe { with_avx2(kernel) };
    }
    kernel.run()
}

/// Whether [`dispatch`] runs the AVX2 instantiation on this CPU.
#[cfg(any(test, target_arch = "x86_64"))]
pub(crate) fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `kernel.run()`, compiled with AVX2 enabled: its inlined hot chain is
/// the AVX2 instantiation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2(kernel: &mut impl Kernel) {
    kernel.run()
}
