//! ANN retrieval recorder: recall@k-vs-speedup curve for the persisted
//! HNSW index with exact widened-pool rescoring, against the exact
//! full-scan top-k, across target-corpus sizes up to ≥262k rows.
//!
//! For each corpus tier the recorder builds the index (timed), takes
//! the exact scan's rankings as ground truth, then sweeps the candidate
//! pool width: every swept point reports wall time, per-query
//! throughput, speedup over the exact scan, mean pool size actually
//! offered, and mean recall@k against the exact top-k. Results land in
//! `BENCH_ann.json` at the repository root.
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
//! Both paths are the shipped one, [`MatchArtifact::rank`]: `None` scans
//! exactly, `Some(AnnSearch { pool, ef: pool })` rescores the index's
//! pool plus every invalid row on the same sequential kernel — so the
//! speedup isolates what the index buys, not a threading difference.
//! The mean pool is what `rank` reports offering the rescorer
//! ([`AnnUsage`]).

use tdmatch_bench::record::{best_of, gen_centers, gen_side, round, write_bench_json};
use tdmatch_core::artifact::{AnnSearch, AnnUsage, MatchArtifact};
use tdmatch_core::matcher::MatchResult;
use tdmatch_embed::ann::HnswParams;

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

/// One swept pool width.
struct SweepPoint {
    pool: usize,
    secs: f64,
    speedup: f64,
    recall: f64,
    mean_pool: f64,
}

/// One corpus tier.
struct Tier {
    targets: usize,
    valid_targets: usize,
    build_secs: f64,
    layers: usize,
    edges: usize,
    exact_secs: f64,
    sweep: Vec<SweepPoint>,
}

fn main() {
    let tiers = env_list("TDMATCH_ANN_TARGETS", &[16_384, 65_536, 262_144]);
    let pools = env_list("TDMATCH_ANN_POOLS", &[128, 256, 512, 1024, 2048, 4096]);
    let n_queries = env_num("TDMATCH_ANN_QUERIES", 256);
    let dim = env_num("TDMATCH_DIM", 96);
    let k = 20usize;
    let params = HnswParams::default();

    let mut recorded = Vec::new();
    for &n_targets in &tiers {
        let mut state = 0xA220_5EEDu64 ^ (n_targets as u64);
        // ~256 rows per cluster at every tier (clamped for tiny smokes).
        let centers = gen_centers((n_targets / 256).clamp(8, 4096), dim, &mut state);
        let targets = gen_side(n_targets, dim, &centers, &mut state);
        let queries = gen_side(n_queries, dim, &centers, &mut state);
        let mut artifact = MatchArtifact::new(dim, Vec::new(), targets, queries);
        let (tm, qm) = (artifact.first_matrix(), artifact.second_matrix());
        let invalid = tm.invalid_rows().count();
        let valid_targets = n_targets - invalid;
        let valid_queries = (0..qm.rows()).filter(|&q| qm.is_valid(q)).count() as u64;

        let ((), build_secs) = best_of(1, || artifact.build_ann(&params));
        let index = artifact.ann().expect("index just built");
        let (layers, edges) = (index.layers(), index.edges());
        println!(
            "tier {n_targets}: index built in {build_secs:.2}s \
             ({layers} layers, {edges} edges, m {}, ef {})",
            index.m(),
            index.ef_construction(),
        );

        let reps = if n_targets >= 100_000 { 2 } else { 3 };
        let qm = artifact.second_matrix();
        let (truth, exact_secs) = best_of(reps, || artifact.rank(qm, k, None).0);
        println!(
            "tier {n_targets}: exact scan {exact_secs:.3}s ({:.0} queries/s)",
            n_queries as f64 / exact_secs
        );

        let mut sweep = Vec::new();
        for &pool in &pools {
            let search = Some(AnnSearch { pool, ef: pool });
            let ((got, usage), secs) = best_of(reps, || artifact.rank(qm, k, search));
            let AnnUsage { queries, pooled } = usage;
            assert_eq!(
                queries, valid_queries,
                "every valid query walks the index once"
            );
            if pool <= valid_targets {
                assert_eq!(
                    pooled,
                    queries * (pool + invalid) as u64,
                    "each walk offers its full pool plus every invalid row"
                );
            }
            let mean_pool = pooled as f64 / queries.max(1) as f64;
            let recall = mean_recall(&truth, &got);
            let speedup = exact_secs / secs;
            println!(
                "tier {n_targets} pool {pool}: {secs:.3}s \
                 ({speedup:.2}x, recall@{k} {recall:.4}, mean pool {mean_pool:.0})"
            );
            sweep.push(SweepPoint {
                pool,
                secs,
                speedup,
                recall,
                mean_pool,
            });
        }
        recorded.push(Tier {
            targets: n_targets,
            valid_targets,
            build_secs,
            layers,
            edges,
            exact_secs,
            sweep,
        });
    }

    let per_sec = |secs: f64| round(n_queries as f64 / secs, 1);
    write_bench_json("ann", "ann_retrieval", |w| {
        w.key("tiers").arr(|w| {
            for t in &recorded {
                w.obj(|w| {
                    w.key("exact_queries_per_sec").num(per_sec(t.exact_secs));
                    w.key("exact_secs").num(round(t.exact_secs, 6));
                    w.key("index_build_secs").num(round(t.build_secs, 3));
                    w.key("index_edges").num(t.edges as f64);
                    w.key("index_layers").num(t.layers as f64);
                    w.key("sweep").arr(|w| {
                        for p in &t.sweep {
                            w.obj(|w| {
                                w.key("mean_pool").num(round(p.mean_pool, 1));
                                w.key("pool").num(p.pool as f64);
                                w.key("queries_per_sec").num(per_sec(p.secs));
                                w.key("recall_at_k").num(round(p.recall, 6));
                                w.key("secs").num(round(p.secs, 6));
                                w.key("speedup").num(round(p.speedup, 3));
                            });
                        }
                    });
                    w.key("targets").num(t.targets as f64);
                    w.key("valid_targets").num(t.valid_targets as f64);
                });
            }
        });
        w.key("workload").obj(|w| {
            w.key("dim").num(dim as f64);
            w.key("ef_construction").num(params.ef_construction as f64);
            w.key("k").num(k as f64);
            w.key("m").num(params.m as f64);
            w.key("queries").num(n_queries as f64);
            w.key("seed").num(params.seed as f64);
        });
    });
}
