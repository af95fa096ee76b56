//! Shared experiment plumbing, hoisted out of `tdmatch-bench`.
//!
//! Every table and figure of the paper has a `harness = false` bench
//! target in `crates/bench/benches/`; this module holds the pieces they
//! share: the scaled-down pipeline configuration, the W-RW(-EX)
//! pipeline runners producing a uniform [`MethodRun`], metric
//! evaluation, and table printing. The conformance lifecycle
//! ([`crate::lifecycle`]) and the method dispatcher
//! ([`crate::methods`]) build on the same surface.
//!
//! Scales are controlled by environment variables so a paper-scale run
//! is one `TDMATCH_SCALE=paper cargo bench` away (the tiers' presets are
//! listed under "Scale tiers" in `docs/SCENARIOS.md`):
//!
//! * `TDMATCH_SCALE` — `tiny` | `small` (default) | `paper`;
//! * `TDMATCH_WALKS`, `TDMATCH_WALK_LEN`, `TDMATCH_DIM`,
//!   `TDMATCH_EPOCHS` — pipeline overrides.

use std::collections::HashSet;

use tdmatch_baselines::RankedMatches;
use tdmatch_core::config::TdConfig;
use tdmatch_core::pipeline::{FitOptions, TdMatch, TdModel};
use tdmatch_datasets::{Scale, Scenario};
use tdmatch_eval::ranking::{mean_metrics_over, RankMetrics};

/// A uniform view over one method's output on one scenario.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Method name as printed in the tables.
    pub method: String,
    /// Ranked first-corpus indices per query.
    pub ranked: Vec<Vec<usize>>,
    /// Training seconds.
    pub train_secs: f64,
    /// Matching seconds.
    pub test_secs: f64,
}

impl From<RankedMatches> for MethodRun {
    fn from(r: RankedMatches) -> Self {
        MethodRun {
            ranked: r.all_indices(),
            method: r.method,
            train_secs: r.train_secs,
            test_secs: r.test_secs,
        }
    }
}

/// Reads the dataset scale from `TDMATCH_SCALE`.
pub fn scale_from_env() -> Scale {
    match std::env::var("TDMATCH_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("paper") => Scale::Paper,
        _ => Scale::Small,
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The per-scale pipeline presets (walks/node, walk length, dimension,
/// epochs) shared by the benches, the CLI's `--scale`, and the
/// conformance lifecycle.
pub fn scale_presets(scale: Scale) -> (usize, usize, usize, usize) {
    match scale {
        Scale::Tiny => (10, 10, 48, 3),
        Scale::Small => (30, 18, 80, 4),
        Scale::Paper => (100, 30, 300, 5),
    }
}

/// Scales a scenario's paper-default config down to bench size (or up,
/// via environment overrides).
pub fn bench_config(base: &TdConfig) -> TdConfig {
    let scale = scale_from_env();
    let (walks, len, dim, epochs) = scale_presets(scale);
    TdConfig {
        walks_per_node: env_usize("TDMATCH_WALKS", walks),
        walk_len: env_usize("TDMATCH_WALK_LEN", len),
        dim: env_usize("TDMATCH_DIM", dim),
        epochs: env_usize("TDMATCH_EPOCHS", epochs),
        ..base.clone()
    }
}

/// Fits W-RW (no expansion) on a scenario and returns the run + model.
pub fn run_wrw(scenario: &Scenario, k: usize) -> (MethodRun, TdModel) {
    run_pipeline(scenario, k, false, None)
}

/// Fits W-RW-EX (with expansion) on a scenario.
pub fn run_wrw_ex(scenario: &Scenario, k: usize) -> (MethodRun, TdModel) {
    run_pipeline(scenario, k, true, None)
}

/// Fits the pipeline with optional expansion and compression.
pub fn run_pipeline(
    scenario: &Scenario,
    k: usize,
    expand: bool,
    compression: Option<tdmatch_core::config::Compression>,
) -> (MethodRun, TdModel) {
    let config = bench_config(&scenario.config);
    let trainer = TdMatch::new(config);
    let options = FitOptions {
        kb: if expand { Some(scenario.kb.as_ref()) } else { None },
        compression,
        merge: Some((&scenario.pretrained, scenario.gamma)),
    };
    let model = trainer
        .fit_with(&scenario.first, &scenario.second, options)
        .expect("pipeline fit failed");
    let t0 = std::time::Instant::now();
    let results = model.match_top_k(k);
    let test_secs = t0.elapsed().as_secs_f64();
    let ranked = results.iter().map(|r| r.target_indices()).collect();
    let name = if expand { "W-RW-EX" } else { "W-RW" };
    (
        MethodRun {
            method: name.to_string(),
            ranked,
            train_secs: model.timings.total(),
            test_secs,
        },
        model,
    )
}

/// Fits the pipeline under an explicit configuration (for parameter
/// sweeps — Figs. 6/7/9 and the ablations).
pub fn run_with_config(
    scenario: &Scenario,
    config: TdConfig,
    k: usize,
    expand: bool,
) -> (MethodRun, TdModel) {
    let trainer = TdMatch::new(config);
    let options = FitOptions {
        kb: if expand { Some(scenario.kb.as_ref()) } else { None },
        compression: None,
        merge: Some((&scenario.pretrained, scenario.gamma)),
    };
    let model = trainer
        .fit_with(&scenario.first, &scenario.second, options)
        .expect("pipeline fit failed");
    let t0 = std::time::Instant::now();
    let results = model.match_top_k(k);
    let test_secs = t0.elapsed().as_secs_f64();
    let ranked = results.iter().map(|r| r.target_indices()).collect();
    (
        MethodRun {
            method: "W-RW".to_string(),
            ranked,
            train_secs: model.timings.total(),
            test_secs,
        },
        model,
    )
}

/// Evaluates a run against the scenario's ground truth (queries without
/// truth are skipped inside the metrics). Ranked lists are borrowed
/// straight from the run — no per-query clone.
pub fn evaluate(run: &MethodRun, scenario: &Scenario) -> RankMetrics {
    let truth = scenario.truth_sets();
    mean_metrics_over(
        run.ranked
            .iter()
            .zip(&truth)
            .map(|(r, rel)| (r.as_slice(), rel)),
    )
}

/// Prints the header of a ranking table (Tables I/II/IV/V/VI layout).
pub fn print_ranking_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<10} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "Method", "MRR", "MAP@1", "MAP@5", "MAP@20", "HP@1", "HP@5", "HP@20"
    );
    println!("{}", "-".repeat(66));
}

/// Prints one ranking-table row.
pub fn print_ranking_row(method: &str, m: &RankMetrics) {
    println!(
        "{:<10} {:>6.3} | {:>6.3} {:>6.3} {:>6.3} | {:>6.3} {:>6.3} {:>6.3}",
        method,
        m.mrr,
        m.map_at[0],
        m.map_at[1],
        m.map_at[2],
        m.has_positive_at[0],
        m.has_positive_at[1],
        m.has_positive_at[2],
    );
}

/// Default supervised-baseline options at bench scale.
pub fn supervised_options(seed: u64) -> tdmatch_baselines::supervised::SupervisedOptions {
    tdmatch_baselines::supervised::SupervisedOptions {
        epochs: match scale_from_env() {
            Scale::Tiny => 8,
            _ => 15,
        },
        seed,
        ..Default::default()
    }
}

/// The k the ranking tables report up to.
pub const TABLE_K: usize = 20;

/// Exact and Node P/R/F for a run on the Audit scenario at cut-off `k`
/// (Table III): predictions are root-to-node taxonomy paths.
pub fn audit_eval(
    run: &MethodRun,
    scenario: &Scenario,
    k: usize,
) -> (tdmatch_eval::Prf, tdmatch_eval::Prf) {
    let tdmatch_core::corpus::Corpus::Structured(tax) = &scenario.first else {
        panic!("audit_eval needs a structured first corpus");
    };
    let path_of = |i: usize| tax.path(i);
    // Exact: top-k path strings vs truth path strings.
    let mut exact_docs: Vec<(Vec<String>, HashSet<String>)> = Vec::new();
    let mut node_docs: Vec<tdmatch_eval::node_score::DocPathPair<String>> = Vec::new();
    for (q, ranked) in run.ranked.iter().enumerate() {
        let truth = &scenario.ground_truth[q];
        if truth.is_empty() {
            continue;
        }
        let predicted: Vec<Vec<String>> = ranked.iter().take(k).map(|&t| path_of(t)).collect();
        exact_docs.push((
            predicted.iter().map(|p| p.join("/")).collect(),
            truth.iter().map(|&t| path_of(t).join("/")).collect(),
        ));
        node_docs.push((predicted, truth.iter().map(|&t| path_of(t)).collect()));
    }
    (
        tdmatch_eval::exact_prf(&exact_docs),
        tdmatch_eval::node_prf(&node_docs),
    )
}

/// Prints the Table III header.
pub fn print_prf_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<4} {:<10} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "K", "Method", "ExP", "ExR", "ExF", "NodeP", "NodeR", "NodeF"
    );
    println!("{}", "-".repeat(66));
}

/// Prints one Table III row.
pub fn print_prf_row(k: usize, method: &str, exact: &tdmatch_eval::Prf, node: &tdmatch_eval::Prf) {
    println!(
        "{:<4} {:<10} | {:>6.3} {:>6.3} {:>6.3} | {:>6.3} {:>6.3} {:>6.3}",
        k, method, exact.precision, exact.recall, exact.f1, node.precision, node.recall, node.f1
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmatch_datasets::imdb;

    #[test]
    fn wrw_runs_on_tiny_imdb() {
        let scenario = imdb::generate(Scale::Tiny, 7, true);
        let config = TdConfig {
            walks_per_node: 10,
            walk_len: 8,
            dim: 32,
            epochs: 2,
            ..scenario.config.clone()
        };
        let (run, model) = run_with_config(&scenario, config, 5, false);
        assert_eq!(run.ranked.len(), scenario.second.len());
        let metrics = evaluate(&run, &scenario);
        assert!(metrics.mrr > 0.0, "mrr {}", metrics.mrr);
        assert!(model.graph_size().0 > 0);
    }

    #[test]
    fn env_scale_parsing_defaults_to_small() {
        // No env var set in tests → Small.
        assert_eq!(scale_from_env(), Scale::Small);
    }
}
