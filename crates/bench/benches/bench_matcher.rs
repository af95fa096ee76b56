//! Batch-matching throughput recorder: times the seed nested-`Option`
//! scoring path (`top_k_matches_naive`: cosine recomputed per pair + full
//! sort) against the flat similarity engine (pre-normalized
//! `ScoreMatrix`, tiled dot kernels, bounded top-k) on a
//! `fig8_scaling`-sized query/target set, counts heap allocations, and
//! writes `BENCH_matcher.json` at the repository root so the matching
//! phase's perf trajectory is tracked from PR to PR.
//!
//! Run with `cargo bench -p tdmatch-bench --bench bench_matcher`.
//! `TDMATCH_BENCH_COPIES` (default 4) scales the corpus pair like
//! Figure 8's union-of-scenarios construction; `TDMATCH_DIM` overrides
//! the embedding dimensionality (default: the Small-scale 80).
//!
//! Embeddings are synthesized deterministically (SplitMix64) at the
//! corpus sizes the fig8 construction yields — the matcher's cost depends
//! only on shapes and missing-row density, not on where the vectors came
//! from — with ~2% missing rows per side, matching documents whose
//! metadata node vanished.

use std::time::Instant;

use tdmatch_bench::alloc_probe::{AllocProbe, CountingAlloc};
use tdmatch_core::matcher::{
    top_k_matches_matrix, top_k_matches_matrix_parallel, top_k_matches_naive,
    MatchResult,
};
use tdmatch_datasets::{sts, Scale};
use tdmatch_embed::score::ScoreMatrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Synthetic metadata embeddings: ~2% missing, entries in [-1, 1).
fn gen_side(n: usize, dim: usize, state: &mut u64) -> Vec<Option<Vec<f32>>> {
    (0..n)
        .map(|_| {
            if splitmix(state).is_multiple_of(50) {
                None
            } else {
                Some(
                    (0..dim)
                        .map(|_| (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
                        .collect(),
                )
            }
        })
        .collect()
}

struct PathStats {
    secs: f64,
    pairs_per_sec: f64,
    allocations: u64,
    peak_bytes: u64,
}

fn json_path_stats(s: &PathStats) -> String {
    format!(
        "{{\"secs\": {:.6}, \"pairs_per_sec\": {:.1}, \"allocations\": {}, \"peak_bytes\": {}}}",
        s.secs, s.pairs_per_sec, s.allocations, s.peak_bytes,
    )
}

/// Best-of-N wall time + first-run allocation counters for one path.
fn measure<F: FnMut() -> Vec<MatchResult>>(
    pairs: f64,
    reps: usize,
    mut f: F,
) -> (Vec<MatchResult>, PathStats) {
    let probe = AllocProbe::start();
    let t = Instant::now();
    let out = f();
    let mut secs = t.elapsed().as_secs_f64();
    let (allocations, peak_bytes) = probe.finish();
    for _ in 1..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        secs = secs.min(t.elapsed().as_secs_f64());
    }
    let stats = PathStats {
        secs,
        pairs_per_sec: pairs / secs,
        allocations,
        peak_bytes,
    };
    (out, stats)
}

fn main() {
    let copies: usize = std::env::var("TDMATCH_BENCH_COPIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let dim: usize = std::env::var("TDMATCH_DIM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(80);
    let k = 20usize;

    // Figure-8-sized corpus pair: a union of independently seeded STS
    // corpora, exactly like fig8_scaling / bench_walks build theirs.
    let mut n_targets = 0usize;
    let mut n_queries = 0usize;
    for seed in 0..copies as u64 {
        let s = sts::generate(Scale::Small, 100 + seed, 2);
        n_targets += s.first.len();
        n_queries += s.second.len();
    }

    let mut state = 0x7D_5EEDu64;
    let targets = gen_side(n_targets, dim, &mut state);
    let queries = gen_side(n_queries, dim, &mut state);
    let pairs = (n_queries * n_targets) as f64;
    // Matching is compute-bound (unlike training), so the parallel row
    // uses every core.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "matching workload: {n_queries} queries × {n_targets} targets, dim {dim}, k {k} \
         ({} missing targets, {} missing queries)",
        targets.iter().filter(|t| t.is_none()).count(),
        queries.iter().filter(|q| q.is_none()).count(),
    );

    const REPS: usize = 3;

    // --- Seed path: nested Options, cosine per pair, full sort ---------
    let (naive_out, naive) =
        measure(pairs, REPS, || top_k_matches_naive(&queries, &targets, k, None, None));

    // --- Engine, one-shot: per-call matrix build + batch top-k ---------
    let (engine_out, engine_oneshot) =
        measure(pairs, REPS, || {
            let q = ScoreMatrix::from_options(&queries);
            let t = ScoreMatrix::from_options(&targets);
            top_k_matches_matrix(&q, &t, k, None, None)
        });

    // --- Engine, normalize-once: pre-built matrices (the TdModel path) --
    let t = Instant::now();
    let qm = ScoreMatrix::from_options_dim(&queries, dim);
    let tm = ScoreMatrix::from_options_dim(&targets, dim);
    let normalize_secs = t.elapsed().as_secs_f64();
    let (_, engine_seq) =
        measure(pairs, REPS, || top_k_matches_matrix(&qm, &tm, k, None, None));
    let (par_out, engine_par) = measure(pairs, REPS, || {
        top_k_matches_matrix_parallel(&qm, &tm, k, None, None, threads)
    });

    // The engine must reproduce the seed rankings exactly.
    assert_eq!(naive_out.len(), engine_out.len());
    for (n, e) in naive_out.iter().zip(&engine_out) {
        assert_eq!(
            n.target_indices(),
            e.target_indices(),
            "engine diverged from the seed ranking at query {}",
            n.query
        );
    }
    assert_eq!(engine_out, par_out, "parallel engine diverged");

    let speedup_seq = naive.secs / engine_seq.secs;
    let speedup_oneshot = naive.secs / engine_oneshot.secs;
    let speedup_par = naive.secs / engine_par.secs;
    println!(
        "naive: {:.3}s | engine one-shot: {:.3}s ({:.2}x) | engine seq: {:.3}s ({:.2}x) | \
         engine {}T: {:.3}s ({:.2}x)",
        naive.secs, engine_oneshot.secs, speedup_oneshot, engine_seq.secs, speedup_seq,
        threads, engine_par.secs, speedup_par,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"batch_matching\",\n",
            "  \"workload\": {{\"queries\": {}, \"targets\": {}, \"dim\": {}, \"k\": {}, ",
            "\"copies\": {}, \"threads\": {}}},\n",
            "  \"normalize_secs\": {:.6},\n",
            "  \"nested_option\": {},\n",
            "  \"engine_oneshot\": {},\n",
            "  \"engine_prenormalized\": {},\n",
            "  \"engine_parallel\": {},\n",
            "  \"speedup_oneshot\": {:.3},\n",
            "  \"speedup_prenormalized\": {:.3},\n",
            "  \"speedup_parallel\": {:.3}\n",
            "}}\n"
        ),
        n_queries,
        n_targets,
        dim,
        k,
        copies,
        threads,
        normalize_secs,
        json_path_stats(&naive),
        json_path_stats(&engine_oneshot),
        json_path_stats(&engine_seq),
        json_path_stats(&engine_par),
        speedup_oneshot,
        speedup_seq,
        speedup_par,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matcher.json");
    std::fs::write(out, &json).expect("write BENCH_matcher.json");
    println!("wrote {out}");
}
