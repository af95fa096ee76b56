//! The end-to-end production lifecycle, one scenario at a time.
//!
//! [`run_lifecycle`] takes a registered scenario through every stage a
//! real deployment uses, in order:
//!
//! 1. **generate** the corpora (seeded, deterministic);
//! 2. **fit** the W-RW pipeline (merge with the pre-trained model, no
//!    expansion — plus a separate W-RW-EX fit for the metric record);
//! 3. **index**: build the HNSW sections over the target matrix;
//! 4. **publish** atomically (`MatchArtifact::save` = temp + fsync +
//!    rename);
//! 5. **load** the published file as a read-only mapping;
//! 6. **serve** it from a live daemon — Unix socket *and* TCP front on
//!    one process, two or more workers (`workers ≥ 2`), queried in
//!    both retrieval modes (exact scan and ANN);
//! 7. **ingest** a delta (when [`LifecycleOptions::delta`] is set):
//!    append / re-embed / tombstone against the frozen vocabulary,
//!    republish atomically, hot-reload the daemon, and re-assert every
//!    wire answer against a fresh post-delta facade;
//! 8. **score** the daemon's answers with `tdmatch-eval`'s ranking
//!    metrics.
//!
//! Along the way it asserts the stack's two differential invariants:
//!
//! * every wire answer — Unix or TCP, exact or ANN — is **bit-identical**
//!   to the in-process [`Matcher`] facade on the same mapped artifact;
//! * ANN retrieval with a candidate pool ≥ the corpus is bit-identical
//!   to the exact scan (the property PR 7 pinned, revalidated through
//!   the full serving path).
//!
//! The third invariant — quality metrics within tolerance of committed
//! goldens — lives in [`crate::golden`]; this module only produces the
//! [`ScenarioReport`] the gate consumes.

use std::path::PathBuf;
use std::time::Instant;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::config::TdConfig;
use tdmatch_core::delta::DeltaBatch;
use tdmatch_core::pipeline::{FitOptions, TdMatch};
use tdmatch_core::serving::Matcher;
use tdmatch_datasets::{Scale, Scenario};
use tdmatch_embed::ann::HnswParams;
use tdmatch_eval::ranking::RankMetrics;
use tdmatch_serve::client::Client;
use tdmatch_serve::server::{ServeOptions, Server};

use crate::harness::{evaluate, scale_presets, MethodRun, TABLE_K};
use crate::registry::ScenarioSpec;

/// How to drive one scenario through the lifecycle.
pub struct LifecycleOptions {
    /// Dataset scale tier.
    pub scale: Scale,
    /// Generator + pipeline seed.
    pub seed: u64,
    /// Ranking depth for every query (the tables' k = 20 by default).
    pub k: usize,
    /// Worker threads for the daemon (the conformance suite runs with
    /// ≥ 2).
    pub workers: usize,
    /// Directory the artifact is published into.
    pub dir: PathBuf,
    /// Run the incremental-ingest stage: apply a delta to the published
    /// artifact, republish, hot-reload the daemon, and re-assert the
    /// wire invariants against a post-delta facade.
    pub delta: bool,
}

impl LifecycleOptions {
    /// The conformance defaults at a given tier: seed 42, k = 20, a
    /// daemon with 2 workers, publishing into `dir`, no delta stage.
    pub fn at_tier(scale: Scale, dir: PathBuf) -> LifecycleOptions {
        LifecycleOptions {
            scale,
            seed: 42,
            k: TABLE_K,
            workers: 2,
            dir,
            delta: false,
        }
    }

    /// Enables the incremental-ingest stage.
    pub fn with_delta(mut self) -> LifecycleOptions {
        self.delta = true;
        self
    }
}

/// Targets the delta stage appends — the post-delta corpus is
/// `targets + DELTA_APPENDS` rows (tombstones keep their row slots).
pub const DELTA_APPENDS: usize = 1;

/// Quality metrics for one method on one scenario, as recorded in (and
/// gated against) `BENCH_scenarios.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodMetrics {
    /// Method key (`wrw` is scored through the daemon's wire answers;
    /// `wrw-ex` in process).
    pub method: String,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Mean average precision at 5.
    pub map_at_5: f64,
    /// Fraction of labeled queries with a true match in the top 20
    /// (hit rate — the harness's recall@20 stand-in).
    pub recall_at_20: f64,
}

impl MethodMetrics {
    fn from_rank(method: &str, m: &RankMetrics) -> MethodMetrics {
        MethodMetrics {
            method: method.to_string(),
            mrr: m.mrr,
            map_at_5: m.map_at[1],
            recall_at_20: m.has_positive_at[2],
        }
    }
}

/// Everything one lifecycle run measured on one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Registry key of the scenario.
    pub key: String,
    /// Scale tier the run used.
    pub scale: Scale,
    /// Target-corpus size (rows served).
    pub targets: usize,
    /// Query-corpus size (rows asked).
    pub queries: usize,
    /// Wall seconds for the W-RW fit.
    pub fit_secs: f64,
    /// Post-delta target-corpus size, when the ingest stage ran
    /// (gated exactly: the delta is deterministic).
    pub delta_targets: Option<usize>,
    /// Per-method quality metrics (`wrw` via the daemon, `wrw-ex` in
    /// process).
    pub methods: Vec<MethodMetrics>,
}

/// The deterministic pipeline configuration the conformance harness
/// fits with: the shared per-scale presets, **one** training thread
/// (Hogwild with more threads is run-to-run nondeterministic, which
/// would poison golden metrics), and the run's seed. Unlike
/// [`bench_config`](crate::harness::bench_config) this reads no
/// environment variables — a stray `TDMATCH_DIM` cannot silently
/// invalidate the committed goldens.
pub fn conformance_config(base: &TdConfig, scale: Scale, seed: u64) -> TdConfig {
    let (walks, len, dim, epochs) = scale_presets(scale);
    TdConfig {
        walks_per_node: walks,
        walk_len: len,
        dim,
        epochs,
        threads: 1,
        seed,
        ..base.clone()
    }
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// Queries every query-corpus document through one client and returns
/// the bit-views of the ranked answers.
fn drain_queries(client: &mut Client, queries: usize, k: usize, what: &str) -> Vec<Vec<(usize, u32)>> {
    (0..queries)
        .map(|q| {
            let (ranked, _) = client
                .query_id(q, k)
                .unwrap_or_else(|e| panic!("{what}: query {q} failed: {e}"));
            bits(&ranked)
        })
        .collect()
}

/// Runs the full lifecycle for one scenario. Panics on any broken
/// invariant — this is the conformance harness's assertion surface.
pub fn run_lifecycle(spec: &ScenarioSpec, opts: &LifecycleOptions) -> ScenarioReport {
    let scenario = spec.generate(opts.scale, opts.seed);
    let config = conformance_config(&scenario.config, opts.scale, opts.seed);

    // Fit W-RW (merge with the pre-trained model, no expansion).
    let t0 = Instant::now();
    let model = TdMatch::new(config.clone())
        .fit_with(
            &scenario.first,
            &scenario.second,
            FitOptions {
                kb: None,
                compression: None,
                merge: Some((&scenario.pretrained, scenario.gamma)),
            },
        )
        .unwrap_or_else(|e| panic!("{}: W-RW fit failed: {e}", spec.key));
    let fit_secs = t0.elapsed().as_secs_f64();

    // Index + atomic publish.
    let mut artifact = model.artifact();
    artifact.build_ann(&HnswParams::default());
    let (targets, queries) = artifact.corpus_sizes();
    assert!(targets > 0 && queries > 0, "{}: degenerate corpora", spec.key);
    let path = opts.dir.join(format!("{}.tdz", spec.key));
    artifact
        .save(&path)
        .unwrap_or_else(|e| panic!("{}: publish failed: {e}", spec.key));

    // Mapped open; the exact-scan facade is the reference every wire
    // answer is compared against. (A facade without a configured pool
    // answers by exact scan; the ANN facade pools through the index.)
    let facade = Matcher::load(&path).unwrap_or_else(|e| panic!("{}: mapped load failed: {e}", spec.key));
    assert!(facade.ann_ready(), "{}: published index did not survive the mapped load", spec.key);
    let reference: Vec<Vec<(usize, u32)>> = (0..queries)
        .map(|q| {
            bits(&facade
                .query_by_id(q, opts.k)
                .unwrap_or_else(|e| panic!("{}: facade query {q} failed: {e}", spec.key)))
        })
        .collect();

    // In-process half of the ANN invariant: a pool spanning the whole
    // corpus must reproduce the exact scan bit-for-bit.
    let ann_facade = Matcher::load(&path)
        .unwrap_or_else(|e| panic!("{}: second mapped load failed: {e}", spec.key))
        .with_ann_pool(targets);
    let mut block = ann_facade.query_block();
    let all: Vec<tdmatch_core::serving::Query> =
        (0..queries).map(tdmatch_core::serving::Query::ById).collect();
    let (ann_answers, usage) = ann_facade.query_batch_with_mode(&mut block, &all, opts.k, true);
    assert!(usage.queries > 0, "{}: ANN mode never touched the index", spec.key);
    for (q, answer) in ann_answers.into_iter().enumerate() {
        let answer = answer.unwrap_or_else(|e| panic!("{}: ANN query {q} failed: {e}", spec.key));
        assert_eq!(
            bits(&answer),
            reference[q],
            "{}: in-process ANN (pool = corpus) diverged from the exact scan on query {q}",
            spec.key
        );
    }

    // Serve: one daemon, Unix socket + TCP front, several workers.
    // The pool is sized for the *post-delta* corpus when the ingest
    // stage will run — `reload_from` carries the pool across the swap,
    // and the corpus-wide ANN invariant must keep holding afterwards.
    let serve_pool = targets + if opts.delta { DELTA_APPENDS } else { 0 };
    let socket = opts.dir.join(format!("{}.sock", spec.key));
    let server = Server::start(
        Matcher::load(&path)
            .unwrap_or_else(|e| panic!("{}: serving load failed: {e}", spec.key))
            .with_ann_pool(serve_pool),
        ServeOptions::at(&socket)
            .artifact(&path)
            .workers(opts.workers)
            .tcp("127.0.0.1:0"),
    )
    .unwrap_or_else(|e| panic!("{}: daemon start failed: {e}", spec.key));
    let tcp_addr = server
        .tcp_addr()
        .unwrap_or_else(|| panic!("{}: daemon came up without its TCP front", spec.key))
        .to_string();

    let mut unix = Client::connect(&socket).unwrap_or_else(|e| panic!("{}: unix connect: {e}", spec.key));
    let mut tcp =
        Client::connect_tcp(&tcp_addr).unwrap_or_else(|e| panic!("{}: tcp connect: {e}", spec.key));

    // Wire invariants: both transports, both retrieval modes, every
    // query — all bit-identical to the facade reference.
    unix.set_ann(Some(false));
    let unix_exact = drain_queries(&mut unix, queries, opts.k, "unix/exact");
    assert_eq!(unix_exact, reference, "{}: unix exact answers diverged from the facade", spec.key);
    unix.set_ann(Some(true));
    let unix_ann = drain_queries(&mut unix, queries, opts.k, "unix/ann");
    assert_eq!(unix_ann, reference, "{}: unix ANN answers diverged from the exact scan", spec.key);
    tcp.set_ann(Some(false));
    let tcp_exact = drain_queries(&mut tcp, queries, opts.k, "tcp/exact");
    assert_eq!(tcp_exact, reference, "{}: tcp exact answers diverged from the facade", spec.key);
    tcp.set_ann(Some(true));
    let tcp_ann = drain_queries(&mut tcp, queries, opts.k, "tcp/ann");
    assert_eq!(tcp_ann, reference, "{}: tcp ANN answers diverged from the exact scan", spec.key);

    // The daemon must have actually exercised both retrieval paths and
    // run with the workers we asked for.
    let stats = unix.stats().unwrap_or_else(|e| panic!("{}: stats failed: {e}", spec.key));
    assert!(stats.ann_queries > 0, "{}: no query ran the ANN path", spec.key);
    assert!(stats.exact_queries > 0, "{}: no query ran the exact path", spec.key);
    assert_eq!(
        stats.workers, opts.workers as u64,
        "{}: daemon pool width diverged from the requested workers",
        spec.key
    );

    // Incremental ingest: delta fit → republish → hot reload → the
    // same wire invariants re-asserted against a post-delta facade.
    let delta_targets = opts
        .delta
        .then(|| delta_stage(spec.key, &path, targets, queries, opts.k, &reference, &mut unix, &mut tcp));

    unix.shutdown().unwrap_or_else(|e| panic!("{}: shutdown failed: {e}", spec.key));
    server.join();

    // Quality metrics: W-RW is scored from the daemon's own wire
    // answers (indices of the exact-mode Unix responses), W-RW-EX from
    // a separate in-process fit with expansion.
    let wrw_run = MethodRun {
        method: "wrw".into(),
        ranked: unix_exact
            .iter()
            .map(|r| r.iter().map(|&(t, _)| t).collect())
            .collect(),
        train_secs: fit_secs,
        test_secs: 0.0,
    };
    let wrw = MethodMetrics::from_rank("wrw", &evaluate(&wrw_run, &scenario));
    let wrw_ex = MethodMetrics::from_rank("wrw-ex", &wrw_ex_metrics(&scenario, &config, opts.k, spec.key));

    ScenarioReport {
        key: spec.key.to_string(),
        scale: opts.scale,
        targets,
        queries,
        fit_secs,
        delta_targets,
        methods: vec![wrw, wrw_ex],
    }
}

/// The incremental-ingest stage: build a small deterministic delta
/// against the frozen vocabulary (tombstone the target query 0 ranked
/// first, re-embed one survivor, append one new target), apply it to
/// the *published* artifact, republish atomically over the served path,
/// hot-reload the daemon, and re-assert every wire answer — both
/// transports, both retrieval modes — against a fresh post-delta
/// facade. Returns the post-delta target count for the golden gate.
#[allow(clippy::too_many_arguments)]
fn delta_stage(
    key: &str,
    path: &std::path::Path,
    targets: usize,
    queries: usize,
    k: usize,
    reference: &[Vec<(usize, u32)>],
    unix: &mut Client,
    tcp: &mut Client,
) -> usize {
    // The ingest step a production delta producer runs: mapped load,
    // in-place delta, atomic republish.
    let mut artifact =
        MatchArtifact::load(path).unwrap_or_else(|e| panic!("{key}: ingest load failed: {e}"));
    let vocab: Vec<String> = artifact.term_labels().take(3).map(str::to_string).collect();
    assert!(!vocab.is_empty(), "{key}: fitted artifact has an empty vocabulary");
    let dead = reference
        .first()
        .and_then(|r| r.first())
        .map(|&(t, _)| t)
        .unwrap_or(0);
    let refreshed = (dead + 1) % targets;
    let batch = DeltaBatch::new()
        .append(vocab.clone())
        .update(refreshed, vocab)
        .tombstone(dead);
    let summary = artifact
        .apply_delta(&batch)
        .unwrap_or_else(|e| panic!("{key}: delta application failed: {e}"));
    assert_eq!(summary.rows, targets + DELTA_APPENDS, "{key}: unexpected post-delta shape");
    artifact
        .save(path)
        .unwrap_or_else(|e| panic!("{key}: delta republish failed: {e}"));

    // Hot reload over the live connection; the daemon must land on the
    // first post-publish generation.
    let generation = unix
        .reload()
        .unwrap_or_else(|e| panic!("{key}: delta reload failed: {e}"));
    assert_eq!(generation, 1, "{key}: delta reload skipped a generation");

    // The post-delta facade is the new reference — and it must actually
    // differ from the pre-delta one (the tombstoned target was ranked
    // first for query 0).
    let facade =
        Matcher::load(path).unwrap_or_else(|e| panic!("{key}: post-delta load failed: {e}"));
    let delta_reference: Vec<Vec<(usize, u32)>> = (0..queries)
        .map(|q| {
            bits(&facade
                .query_by_id(q, k)
                .unwrap_or_else(|e| panic!("{key}: post-delta facade query {q} failed: {e}")))
        })
        .collect();
    assert_ne!(
        delta_reference, reference,
        "{key}: the delta changed nothing the wire could observe"
    );

    // Wire invariants, round two: both transports, both retrieval
    // modes, every query — bit-identical to the post-delta facade.
    unix.set_ann(Some(false));
    let unix_exact = drain_queries(unix, queries, k, "unix/exact post-delta");
    assert_eq!(unix_exact, delta_reference, "{key}: post-delta unix exact answers diverged");
    unix.set_ann(Some(true));
    let unix_ann = drain_queries(unix, queries, k, "unix/ann post-delta");
    assert_eq!(unix_ann, delta_reference, "{key}: post-delta unix ANN answers diverged");
    tcp.set_ann(Some(false));
    let tcp_exact = drain_queries(tcp, queries, k, "tcp/exact post-delta");
    assert_eq!(tcp_exact, delta_reference, "{key}: post-delta tcp exact answers diverged");
    tcp.set_ann(Some(true));
    let tcp_ann = drain_queries(tcp, queries, k, "tcp/ann post-delta");
    assert_eq!(tcp_ann, delta_reference, "{key}: post-delta tcp ANN answers diverged");

    summary.rows
}

/// Fits W-RW-EX (knowledge-base expansion) in process and evaluates it.
fn wrw_ex_metrics(scenario: &Scenario, config: &TdConfig, k: usize, key: &str) -> RankMetrics {
    let model = TdMatch::new(config.clone())
        .fit_with(
            &scenario.first,
            &scenario.second,
            FitOptions {
                kb: Some(scenario.kb.as_ref()),
                compression: None,
                merge: Some((&scenario.pretrained, scenario.gamma)),
            },
        )
        .unwrap_or_else(|e| panic!("{key}: W-RW-EX fit failed: {e}"));
    let run = MethodRun {
        method: "wrw-ex".into(),
        ranked: model.match_top_k(k).iter().map(|r| r.target_indices()).collect(),
        train_secs: 0.0,
        test_secs: 0.0,
    };
    evaluate(&run, scenario)
}
