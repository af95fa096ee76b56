//! ANN retrieval recorder: recall@k-vs-speedup curve for the persisted
//! HNSW index with exact widened-pool rescoring, against the exact
//! full-scan top-k, across target-corpus sizes up to ≥262k rows.
//!
//! For each corpus tier the recorder builds the index (timed), takes
//! the exact scan's rankings as ground truth, then sweeps the candidate
//! pool width: every swept point reports wall time, per-query
//! throughput, speedup over the exact scan, mean pool size actually
//! offered, and mean recall@k against the exact top-k. Results land in
//! `BENCH_ann.json` at the repository root so the retrieval tradeoff is
//! tracked from PR to PR.
//!
//! Run with `cargo bench -p tdmatch-bench --bench bench_ann`.
//! Environment knobs (all optional):
//!
//! * `TDMATCH_ANN_TARGETS` — comma-separated corpus tiers
//!   (default `16384,65536,262144`); CI smoke uses a single small tier;
//! * `TDMATCH_ANN_POOLS` — comma-separated pool widths
//!   (default `128,256,512,1024,2048,4096`);
//! * `TDMATCH_ANN_QUERIES` — queries per batch (default 256);
//! * `TDMATCH_DIM` — embedding dimensionality (default 96).
//!
//! Both paths are timed on the same sequential matrix kernel
//! ([`top_k_matches_matrix`]) — the ANN path differs only by the
//! candidate closure, exactly like the serving integration — so the
//! speedup isolates what the index buys, not a threading difference.

use std::time::Instant;

use tdmatch_bench::alloc_probe::{AllocProbe, CountingAlloc};
use tdmatch_core::matcher::{top_k_matches_matrix, MatchResult};
use tdmatch_embed::ann::{HnswIndex, HnswParams, SearchScratch};
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

fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// Cluster centers for one tier, entries in [-1, 1).
fn gen_centers(count: usize, dim: usize, state: &mut u64) -> Vec<Vec<f32>> {
    (0..count)
        .map(|_| (0..dim).map(|_| unit(state)).collect())
        .collect()
}

/// Synthetic embeddings with planted cluster structure — the shape
/// fitted score matrices take (documents about one entity embed near
/// each other), and the standard ANN-benchmark workload. Each row is a
/// shared center plus ±0.3 per-dim noise (≈17° angular spread after
/// normalization); ~2% of rows are missing. Queries draw from the same
/// centers, so the exact top-k is intra-cluster and recall@k measures
/// whether the index navigates to the right region. Uniform random
/// vectors would instead concentrate all pairwise distances — a
/// workload where *no* metric index can beat a linear scan and which no
/// real embedding matrix resembles.
fn gen_side(
    n: usize,
    dim: usize,
    centers: &[Vec<f32>],
    state: &mut u64,
) -> Vec<Option<Vec<f32>>> {
    (0..n)
        .map(|_| {
            if splitmix(state).is_multiple_of(50) {
                None
            } else {
                let c = &centers[(splitmix(state) % centers.len() as u64) as usize];
                Some((0..dim).map(|j| c[j] + 0.3 * unit(state)).collect())
            }
        })
        .collect()
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => default.to_vec(),
    }
}

fn env_num(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Best-of-N wall time for one path.
fn measure<F: FnMut() -> Vec<MatchResult>>(reps: usize, mut f: F) -> (Vec<MatchResult>, f64) {
    let t = Instant::now();
    let out = f();
    let mut secs = t.elapsed().as_secs_f64();
    for _ in 1..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        secs = secs.min(t.elapsed().as_secs_f64());
    }
    (out, secs)
}

/// Mean recall@k of `got` against the exact `truth` rankings.
fn mean_recall(truth: &[MatchResult], got: &[MatchResult]) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for (t, g) in truth.iter().zip(got) {
        if t.ranked.is_empty() {
            continue;
        }
        let want: std::collections::HashSet<usize> =
            t.ranked.iter().map(|&(idx, _)| idx).collect();
        let hit = g.ranked.iter().filter(|&&(idx, _)| want.contains(&idx)).count();
        total += hit as f64 / want.len() as f64;
        counted += 1;
    }
    if counted == 0 {
        1.0
    } else {
        total / counted as f64
    }
}

fn main() {
    let tiers = env_list("TDMATCH_ANN_TARGETS", &[16_384, 65_536, 262_144]);
    let pools = env_list("TDMATCH_ANN_POOLS", &[128, 256, 512, 1024, 2048, 4096]);
    let n_queries = env_num("TDMATCH_ANN_QUERIES", 256);
    let dim = env_num("TDMATCH_DIM", 96);
    let k = 20usize;
    let params = HnswParams::default();

    let mut tier_json = Vec::new();
    for &n_targets in &tiers {
        let mut state = 0xA220_5EEDu64 ^ (n_targets as u64);
        // ~256 rows per cluster at every tier (clamped for tiny smokes).
        let centers = gen_centers((n_targets / 256).clamp(8, 4096), dim, &mut state);
        let targets = gen_side(n_targets, dim, &centers, &mut state);
        let queries = gen_side(n_queries, dim, &centers, &mut state);
        let tm = ScoreMatrix::from_options_dim(&targets, dim);
        let qm = ScoreMatrix::from_options_dim(&queries, dim);
        let invalid: Vec<usize> = (0..tm.rows()).filter(|&t| !tm.is_valid(t)).collect();

        let t = Instant::now();
        let index = HnswIndex::build(&tm, &params);
        let build_secs = t.elapsed().as_secs_f64();
        println!(
            "tier {n_targets}: index built in {build_secs:.2}s \
             ({} layers, {} edges, m {}, ef {})",
            index.layers(),
            index.edges(),
            index.m(),
            index.ef_construction(),
        );

        // Scratch-reuse probe: `search` allocates a fresh scratch (the
        // ~rows-byte visited set, heaps and layer buffers) per query;
        // `search_with` + one warm scratch allocates only the returned
        // pool. Count both over one pass of the query batch at the
        // narrowest pool.
        let probe_pool = pools.first().copied().unwrap_or(128);
        let valid_queries: Vec<usize> = (0..qm.rows()).filter(|&q| qm.is_valid(q)).collect();
        let probe = AllocProbe::start();
        for &q in &valid_queries {
            std::hint::black_box(index.search(&tm, qm.row(q), probe_pool));
        }
        let (fresh_allocs, fresh_peak) = probe.finish();
        let mut scratch = SearchScratch::new();
        // Warm the scratch so the probe sees the steady state a batch
        // worker reaches after its first query.
        if let Some(&q) = valid_queries.first() {
            std::hint::black_box(index.search_with(&tm, qm.row(q), probe_pool, probe_pool, &mut scratch));
        }
        let probe = AllocProbe::start();
        for &q in &valid_queries {
            std::hint::black_box(index.search_with(
                &tm,
                qm.row(q),
                probe_pool,
                probe_pool,
                &mut scratch,
            ));
        }
        let (reused_allocs, reused_peak) = probe.finish();
        println!(
            "tier {n_targets} pool {probe_pool}: scratch reuse saves {:.1} allocs/query \
             ({fresh_allocs} -> {reused_allocs} over {} queries)",
            (fresh_allocs.saturating_sub(reused_allocs)) as f64
                / valid_queries.len().max(1) as f64,
            valid_queries.len(),
        );
        assert!(
            reused_allocs < fresh_allocs,
            "scratch reuse must cut allocations ({reused_allocs} !< {fresh_allocs})"
        );

        let reps = if n_targets >= 100_000 { 2 } else { 3 };
        let (truth, exact_secs) =
            measure(reps, || top_k_matches_matrix(&qm, &tm, k, None, None));
        println!(
            "tier {n_targets}: exact scan {exact_secs:.3}s ({:.0} queries/s)",
            n_queries as f64 / exact_secs
        );

        let mut sweep_json = Vec::new();
        for &pool in &pools {
            // The production candidate closure: ANN pool plus every
            // invalid row, so rescoring semantics match the exact scan.
            let pooled_total = std::sync::atomic::AtomicU64::new(0);
            let cand = |q: usize| {
                let mut c = index.search(&tm, qm.row(q), pool);
                c.extend(invalid.iter().copied());
                pooled_total.fetch_add(c.len() as u64, std::sync::atomic::Ordering::Relaxed);
                c
            };
            let (got, ann_secs) =
                measure(reps, || top_k_matches_matrix(&qm, &tm, k, None, Some(&cand)));
            let calls = pooled_total.load(std::sync::atomic::Ordering::Relaxed);
            let mean_pool = if got.is_empty() {
                0.0
            } else {
                // Every rep runs the closure once per valid query.
                calls as f64 / (reps * got.len()).max(1) as f64
            };
            let recall = mean_recall(&truth, &got);
            let speedup = exact_secs / ann_secs;
            println!(
                "tier {n_targets} pool {pool}: {ann_secs:.3}s \
                 ({speedup:.2}x, recall@{k} {recall:.4}, mean pool {mean_pool:.0})"
            );
            sweep_json.push(format!(
                "      {{\"pool\": {pool}, \"secs\": {ann_secs:.6}, \
                 \"queries_per_sec\": {:.1}, \"speedup\": {speedup:.3}, \
                 \"recall_at_k\": {recall:.6}, \"mean_pool\": {mean_pool:.1}}}",
                n_queries as f64 / ann_secs
            ));
        }
        tier_json.push(format!(
            concat!(
                "    {{\n",
                "      \"targets\": {},\n",
                "      \"valid_targets\": {},\n",
                "      \"index_build_secs\": {:.3},\n",
                "      \"index_layers\": {},\n",
                "      \"index_edges\": {},\n",
                "      \"exact_secs\": {:.6},\n",
                "      \"exact_queries_per_sec\": {:.1},\n",
                "      \"scratch_alloc\": {{\"pool\": {}, \"queries\": {}, ",
                "\"fresh_allocs\": {}, \"reused_allocs\": {}, ",
                "\"fresh_peak_bytes\": {}, \"reused_peak_bytes\": {}}},\n",
                "      \"sweep\": [\n{}\n      ]\n",
                "    }}"
            ),
            n_targets,
            n_targets - invalid.len(),
            build_secs,
            index.layers(),
            index.edges(),
            exact_secs,
            n_queries as f64 / exact_secs,
            probe_pool,
            valid_queries.len(),
            fresh_allocs,
            reused_allocs,
            fresh_peak,
            reused_peak,
            sweep_json.join(",\n"),
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ann_retrieval\",\n",
            "  \"workload\": {{\"queries\": {}, \"dim\": {}, \"k\": {}, ",
            "\"m\": {}, \"ef_construction\": {}, \"seed\": {}}},\n",
            "  \"tiers\": [\n{}\n  ]\n",
            "}}\n"
        ),
        n_queries,
        dim,
        k,
        params.m,
        params.ef_construction,
        params.seed,
        tier_json.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ann.json");
    std::fs::write(out, &json).expect("write BENCH_ann.json");
    println!("wrote {out}");
}
