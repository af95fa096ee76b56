//! The serve-type workloads: closed-loop callers against the real
//! daemon, every answer checked against an in-process oracle, and (in
//! the traced run) an in-process replay of the same requests through
//! the public codec and facade calls, one span per call.

use std::collections::HashSet;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::serving::{Matcher, Query};
use tdmatch_embed::ann::{HnswParams, SearchScratch};
use tdmatch_eval::ranking::mean_metrics_over;
use tdmatch_serve::client::Client;
use tdmatch_serve::protocol::{
    read_frame, write_frame, FrameReader, Request, RequestBody, Response, ResponseBody,
    StatsSnapshot,
};
use tdmatch_text::Preprocessor;

use crate::daemon::{Daemon, ProcSample, WorkDir};
use crate::fit::FitCase;
use crate::gen::{synthetic, PlannedRequest, RequestPlan};
use crate::report::Outcome;
use crate::stats::{beyond, median, percentile, sorted, tail_percentile, Summary};
use crate::trace::Tracer;

/// Ranking depth of every query in the benchmark.
pub const K: usize = 20;
/// The measured load is one closed-loop caller: one connection, one
/// thread, the next request sent when the answer to the last has been
/// checked. A request then passes from thread to thread (caller,
/// connection handler, scheduler, worker) with one of them runnable at
/// a time, which is what lets a run live on one CPU (see
/// `daemon::pin_to_one_cpu`). With two callers on the reference host's
/// two CPUs six threads competed for them and the run read the host's
/// scheduler: the same code spread 15–27% from run to run.
const CALLERS: usize = 1;
/// The traced run adds a phase with this many callers, to read the time
/// a request waits behind another caller's on the single worker.
const QUEUE_CALLERS: usize = 2;
/// A measured phase is a warm-up, then equal rounds of this length; a
/// timing metric is the per-round statistic of the quietest round (see
/// [`Summary::quietest`]).
pub const WARMUP_S: f64 = 1.0;
pub const ROUND_S: f64 = 0.25;
/// Set-up is repeated — at most this often, and not again once another
/// repeat would end past the budget — and `setup_s` reads the quietest.
const SETUP_REPEATS: usize = 3;
const SETUP_BUDGET_S: f64 = 6.0;
/// `serve --ann-pool` of the ANN workloads.
pub const ANN_POOL: usize = 256;

/// The synthetic corpus of `serve-scan` and `serve-ann`: 12.6 MB of
/// target rows against a 4 MiB L2, so the exact scan streams from
/// beyond the cache.
const SCAN_ROWS: usize = 32_768;
const SCAN_DIM: usize = 96;
const SCAN_QUERIES: usize = 256;

/// Requests the traced run replays in process, and the length of the
/// stretches their stage medians are taken over.
const REPLAY_REQUESTS: usize = 2_000;
const REPLAY_STRETCH: usize = 250;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The `fit-text` artifact, 3 : 1 by-id : by-text requests.
    Small,
    /// The synthetic corpus, exact scan.
    Scan,
    /// The synthetic corpus behind the HNSW index.
    Ann,
}

impl Kind {
    /// Tail percentile of the query latencies: the highest that leaves
    /// ten samples beyond it in a round of [`ROUND_S`] at the workload's
    /// request rate (≈ 23 000, 1 000 and 2 900 requests a second). Fixed
    /// per workload, not taken from the count at hand, so that a faster
    /// build reads the same percentile.
    fn tail_p(self) -> f64 {
        match self {
            Kind::Small => 99.0,
            Kind::Scan | Kind::Ann => 90.0,
        }
    }
}

pub type Bits = Vec<(usize, u32)>;

pub fn bits(ranked: &[(usize, f32)]) -> Bits {
    ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// What the daemon must answer, computed in process from the same file.
pub struct Expected {
    /// Per query document: the facade's answer in the daemon's mode.
    pub by_id: Vec<Bits>,
    /// Per query document asked by its raw text (empty when the
    /// workload sends no text).
    pub by_text: Vec<Bits>,
    /// Per query document: the exact top-k, as a set, for recall.
    pub exact: Vec<HashSet<usize>>,
}

/// A published corpus ready to serve.
pub struct Served {
    pub name: &'static str,
    pub dir: WorkDir,
    pub artifact_bytes: u64,
    pub truth: Vec<HashSet<usize>>,
    /// Raw text per query document; empty when no text is sent.
    pub texts: Vec<String>,
    pub ann: bool,
    pub index_build_s: f64,
    pub rows: usize,
    pub dim: usize,
}

impl Served {
    pub fn artifact_path(&self) -> std::path::PathBuf {
        self.dir.join("a.tdz")
    }

    pub fn socket_path(&self) -> std::path::PathBuf {
        self.dir.join("d.sock")
    }

    pub fn queries(&self) -> usize {
        self.truth.len()
    }

    /// Requests in 4 that go by text: 1 when there is text to send.
    fn text_in_4(&self) -> usize {
        usize::from(!self.texts.is_empty())
    }
}

/// Indexes (when asked) and publishes an artifact into a fresh work
/// directory.
pub fn publish(
    name: &'static str,
    mut artifact: MatchArtifact,
    truth: Vec<HashSet<usize>>,
    texts: Vec<String>,
    ann: bool,
) -> Result<Served, String> {
    let mut index_build_s = 0.0;
    if ann {
        let t = Instant::now();
        artifact.build_ann(&HnswParams::default());
        index_build_s = t.elapsed().as_secs_f64();
    }
    let dir = WorkDir::create(name)?;
    let path = dir.join("a.tdz");
    artifact
        .save(&path)
        .map_err(|e| format!("publishing: {e}"))?;
    let artifact_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok(Served {
        name,
        dir,
        artifact_bytes,
        truth,
        texts,
        ann,
        index_build_s,
        rows: artifact.corpus_sizes().0,
        dim: artifact.dim(),
    })
}

fn build(kind: Kind, seed: u64) -> Result<Served, String> {
    match kind {
        Kind::Small => {
            let case = FitCase::text(seed);
            let model = case.fit()?;
            let texts = case.query_texts();
            publish(
                "serve-small",
                model.artifact(),
                case.scenario.truth_sets(),
                texts,
                false,
            )
        }
        Kind::Scan | Kind::Ann => {
            let s = synthetic(seed, SCAN_ROWS, SCAN_DIM, SCAN_QUERIES);
            let artifact = MatchArtifact::new(s.dim, Vec::new(), s.targets, s.queries);
            let name = if kind == Kind::Ann {
                "serve-ann"
            } else {
                "serve-scan"
            };
            publish(name, artifact, s.truth, Vec::new(), kind == Kind::Ann)
        }
    }
}

/// The facade's answers on the published file, in the daemon's mode.
pub fn oracle(served: &Served) -> Result<Expected, String> {
    let path = served.artifact_path();
    let facade = Matcher::load(&path).map_err(|e| format!("oracle load: {e}"))?;
    let queries = served.queries();
    let exact: Vec<Bits> = (0..queries)
        .map(|q| {
            facade
                .query_by_id(q, K)
                .map(|r| bits(&r))
                .map_err(|e| format!("oracle query {q}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let exact_sets = exact
        .iter()
        .map(|r| r.iter().map(|&(t, _)| t).collect())
        .collect();
    let by_id = if served.ann {
        let ann = facade.clone().with_ann_pool(ANN_POOL);
        let mut block = ann.query_block();
        (0..queries)
            .map(|q| {
                let (mut answers, _) =
                    ann.query_batch_with_mode(&mut block, &[Query::ById(q)], K, true);
                answers
                    .pop()
                    .expect("one query in, one answer out")
                    .map(|r| bits(&r))
                    .map_err(|e| format!("ANN oracle query {q}: {e}"))
            })
            .collect::<Result<_, _>>()?
    } else {
        exact
    };
    let pre = Preprocessor::default();
    let by_text = served
        .texts
        .iter()
        .map(|text| bits(&facade.query_by_tokens(&pre.base_tokens(text), K)))
        .collect();
    Ok(Expected {
        by_id,
        by_text,
        exact: exact_sets,
    })
}

/// Ranking quality of the answers a user got.
pub struct Quality {
    pub mrr: f64,
    pub hit_at_20: f64,
    pub recall_at_20: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Judges one answer per query document (`None` = the operation
/// failed): checks each bit for bit against the expected answer, scores
/// the rankings against the ground truth, and takes their overlap with
/// the exact top-k.
pub fn judge(
    answers: impl Iterator<Item = Option<Vec<(usize, f32)>>>,
    expected: &Expected,
    truth: &[HashSet<usize>],
) -> Result<Quality, String> {
    let mut failed = 0;
    let mut rankings: Vec<Vec<usize>> = Vec::with_capacity(truth.len());
    for (got, want) in answers.zip(&expected.by_id) {
        match got {
            Some(ranked) if bits(&ranked) == *want => {
                rankings.push(ranked.iter().map(|&(t, _)| t).collect())
            }
            _ => {
                failed += 1;
                rankings.push(Vec::new());
            }
        }
    }
    let rank = mean_metrics_over(
        rankings
            .iter()
            .zip(truth)
            .map(|(r, rel)| (r.as_slice(), rel)),
    );
    let (mut overlap, mut counted) = (0.0, 0usize);
    for (ranking, exact) in rankings.iter().zip(&expected.exact) {
        if !exact.is_empty() {
            overlap +=
                ranking.iter().filter(|t| exact.contains(t)).count() as f64 / exact.len() as f64;
            counted += 1;
        }
    }
    if counted == 0 {
        return Err("no query has an exact answer to recall".into());
    }
    Ok(Quality {
        mrr: rank.mrr,
        hit_at_20: rank.has_positive_at[2],
        recall_at_20: overlap / counted as f64,
        attempted: rankings.len() as u64,
        failed,
    })
}

/// Asks every query document once over the wire and judges the answers.
/// Doubles as the daemon's warm-up.
pub fn wire_pass(
    client: &mut Client,
    expected: &Expected,
    truth: &[HashSet<usize>],
) -> Result<Quality, String> {
    let answers = (0..truth.len()).map(|q| client.query_id(q, K).ok().map(|(ranked, _)| ranked));
    judge(answers, expected, truth)
}

/// Latencies of one caller's correct operations (in the caller's own
/// unit), stamped with their completion time since the phase began.
#[derive(Default)]
pub struct CallerLog {
    pub samples: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl CallerLog {
    /// Counts one operation; a wrong or failed one misses the statistics.
    pub fn record(&mut self, since_start_s: f64, latency: f64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.samples.push((since_start_s, latency));
        } else {
            self.failed += 1;
        }
    }
}

fn send(client: &mut Client, req: PlannedRequest, served: &Served) -> Option<Bits> {
    let answer = if req.by_text {
        client.query_text(&served.texts[req.doc], K)
    } else {
        client.query_id(req.doc, K)
    };
    answer.ok().map(|(ranked, _)| bits(&ranked))
}

/// The live side of a serve workload: the daemon, what it serves and
/// what it must answer.
struct Load<'a> {
    daemon: &'a Daemon,
    served: &'a Served,
    expected: &'a Expected,
    seed: u64,
    tail_p: f64,
}

impl Load<'_> {
    /// One measured phase: `callers` closed-loop connections for a
    /// warm-up plus `seconds`, each following its own seeded request
    /// plan and checking every answer against the oracle.
    fn phase(&self, callers: usize, seconds: f64) -> Result<Phase, String> {
        let (served, expected, seed) = (self.served, self.expected, self.seed);
        let total_s = WARMUP_S + seconds;
        let clients: Vec<Client> = (0..callers)
            .map(|_| self.daemon.connect())
            .collect::<Result<_, _>>()?;
        let start = Instant::now();
        let logs: Vec<CallerLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    scope.spawn(move || {
                        let mut plan =
                            RequestPlan::new(seed, c, served.queries(), served.text_in_4());
                        let mut log = CallerLog::default();
                        loop {
                            let req = plan.next().expect("the plan is endless");
                            let t = Instant::now();
                            let got = send(&mut client, req, served);
                            let done = start.elapsed().as_secs_f64();
                            if done > total_s {
                                return log;
                            }
                            let want = if req.by_text {
                                &expected.by_text[req.doc]
                            } else {
                                &expected.by_id[req.doc]
                            };
                            let latency_us = t.elapsed().as_secs_f64() * 1e6;
                            log.record(done, latency_us, got.as_ref() == Some(want));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "a caller thread panicked".to_string()))
                .collect::<Result<_, _>>()
        })?;
        Phase::measure(&logs, WARMUP_S, seconds, self.tail_p)
    }
}

/// The statistics of a measured phase, each that of its quietest round.
pub struct Phase {
    pub p50: Summary,
    pub tail: Summary,
    pub per_s: Summary,
    /// Samples in the thinnest round.
    pub thinnest_round: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// Cuts the `seconds` after the first `skip_s` into equal rounds
    /// about [`ROUND_S`] long and reads each statistic off its quietest
    /// round.
    pub fn measure(
        logs: &[CallerLog],
        skip_s: f64,
        seconds: f64,
        tail_p: f64,
    ) -> Result<Phase, String> {
        let rounds = ((seconds / ROUND_S).floor() as usize).max(1);
        let round_s = seconds / rounds as f64;
        let mut per_round: Vec<Vec<f64>> = vec![Vec::new(); rounds];
        for (at, latency) in logs.iter().flat_map(|l| &l.samples) {
            let r = ((at - skip_s) / round_s).floor();
            if r >= 0.0 && (r as usize) < rounds {
                per_round[r as usize].push(*latency);
            }
        }
        // A round in which nothing completed was a stall of the host's:
        // the most disturbed round there can be, and never the quietest.
        let per_round: Vec<Vec<f64>> = per_round
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(sorted)
            .collect();
        if per_round.is_empty() {
            return Err("no measured round saw a correct operation".into());
        }
        let mut phase = Phase::of_rounds(&per_round, &vec![round_s; per_round.len()], tail_p);
        phase.attempted = logs.iter().map(|l| l.attempted).sum();
        phase.failed = logs.iter().map(|l| l.failed).sum();
        Ok(phase)
    }

    /// From rounds already cut, each ascending; `busy_s` is the time
    /// each took.
    pub fn of_rounds(rounds: &[Vec<f64>], busy_s: &[f64], tail_p: f64) -> Phase {
        let stat = |p: f64| {
            let per_round: Vec<f64> = rounds.iter().map(|r| percentile(r, p)).collect();
            Summary::quietest(&per_round, false)
        };
        let rates: Vec<f64> = rounds
            .iter()
            .zip(busy_s)
            .map(|(r, s)| r.len() as f64 / s)
            .collect();
        Phase {
            p50: stat(50.0),
            tail: stat(tail_p),
            per_s: Summary::quietest(&rates, true),
            thinnest_round: rounds.iter().map(Vec::len).min().unwrap_or(0),
            attempted: 0,
            failed: 0,
        }
    }
}

/// States the tail statistic and whether the rule for tails — the
/// highest percentile with at least ten samples beyond it — admits it
/// in every round.
pub fn tail_note(what: &str, tail_p: f64, phase: &Phase) -> String {
    let admitted = tail_percentile(phase.thinnest_round);
    format!(
        "op_tail_ms is the p{tail_p} of {what}; the thinnest round has {} samples, {} beyond it{}",
        phase.thinnest_round,
        beyond(phase.thinnest_round, tail_p),
        match admitted {
            Some(p) if p >= tail_p => String::new(),
            Some(p) => format!(" (too few: only p{p} leaves ten)"),
            None => " (too few for any percentile)".into(),
        }
    )
}

/// The daemon's gauges must read 0 once every caller has its answers.
pub fn check_drained(stats: &StatsSnapshot, outcome: &mut Outcome) {
    if stats.inflight != 0 || stats.queue_depth != 0 {
        outcome.violations.push(format!(
            "gauges after the drain: inflight {} queue_depth {}",
            stats.inflight, stats.queue_depth
        ));
    }
}

/// Runs `prepare` up to [`SETUP_REPEATS`] times within
/// [`SETUP_BUDGET_S`], handing every result but the last to `discard`.
/// Returns the last with the times the repeats took.
pub fn set_up<T>(
    mut prepare: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Summary), String> {
    let began = Instant::now();
    let mut took = Vec::with_capacity(SETUP_REPEATS);
    loop {
        let t = Instant::now();
        let ready = prepare()?;
        let last = t.elapsed().as_secs_f64();
        took.push(last);
        if took.len() == SETUP_REPEATS || began.elapsed().as_secs_f64() + last > SETUP_BUDGET_S {
            return Ok((ready, Summary::quietest(&took, false)));
        }
        discard(ready)?;
    }
}

/// A daemon serving a published corpus, every query document asked once
/// over the wire and judged.
struct Ready {
    served: Served,
    daemon: Daemon,
    expected: Expected,
    control: Client,
    quality: Quality,
}

fn prepare(kind: Kind, seed: u64) -> Result<Ready, String> {
    let served = build(kind, seed)?;
    let daemon = Daemon::spawn(
        &served.artifact_path(),
        &served.socket_path(),
        served.ann.then_some(ANN_POOL),
    )?;
    let expected = oracle(&served)?;
    let mut control = daemon.connect()?;
    let quality = wire_pass(&mut control, &expected, &served.truth)?;
    Ok(Ready {
        served,
        daemon,
        expected,
        control,
        quality,
    })
}

pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let (ready, setup) = set_up(
        || prepare(kind, seed),
        |mut r| r.daemon.stop(&mut r.control).map(|_| ()),
    )?;
    let Ready {
        served,
        daemon,
        expected,
        mut control,
        quality,
    } = ready;

    let mut outcome = Outcome {
        attempted: quality.attempted,
        failed: quality.failed,
        ..Outcome::default()
    };
    let load = Load {
        daemon: &daemon,
        served: &served,
        expected: &expected,
        seed,
        tail_p: kind.tail_p(),
    };
    if traced {
        layers(&load, &mut control, seconds, &mut outcome)?;
    } else {
        let phase = load.phase(CALLERS, seconds)?;
        outcome.attempted += phase.attempted;
        outcome.failed += phase.failed;
        outcome
            .notes
            .push(tail_note("query round trips", kind.tail_p(), &phase));
        outcome.put("setup_s", setup);
        outcome.put("op_p50_ms", phase.p50.scaled(1e-3));
        outcome.put("op_tail_ms", phase.tail.scaled(1e-3));
        outcome.put("ops_per_s", phase.per_s);
        outcome.set("mrr", quality.mrr);
        outcome.set("hit_at_20", quality.hit_at_20);
        outcome.set("recall_at_20", quality.recall_at_20);
        outcome.set("peak_rss_mb", daemon.peak_rss_mb()?);
        outcome.set("artifact_bytes", served.artifact_bytes as f64);
    }
    let stats = daemon.stop(&mut control)?;
    check_drained(&stats, &mut outcome);
    Ok(outcome)
}

/// Stage medians of the in-process replay, in µs.
pub struct Replay {
    pub client_encode: f64,
    pub protocol_decode: f64,
    /// Median over the text requests only.
    pub embed_text: f64,
    pub text_share: f64,
    pub score: f64,
    pub ann_search: f64,
    pub rescore: f64,
    pub protocol_encode: f64,
    pub client_decode: f64,
    /// Median of the whole replayed request, traced and bare.
    pub request_traced: f64,
    pub request_bare: f64,
}

impl Replay {
    /// Sum of the stage medians of one request; the text stage counts
    /// by the share of requests that run it.
    pub fn stages(&self) -> f64 {
        self.client_encode
            + self.protocol_decode
            + self.embed_text * self.text_share
            + self.score
            + self.protocol_encode
            + self.client_decode
    }
}

/// The replay's counterpart of the quietest round: the least median
/// over stretches of [`REPLAY_STRETCH`] consecutive calls, so that a
/// stage reads at the host's undisturbed speed as the live p50 it is
/// subtracted from does. 0 for a stage that never ran.
fn quietest_median(values: &[f64]) -> f64 {
    values
        .chunks(REPLAY_STRETCH)
        .map(median)
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

/// Replays caller 0's request sequence single-threaded through the
/// calls the wire path makes, twice: once recording a span per call,
/// once bare to price the tracing itself.
pub fn replay(
    tracer: &mut Tracer,
    artifact_path: &Path,
    seed: u64,
    served: &Served,
) -> Result<Replay, String> {
    let mut matcher = Matcher::load(artifact_path).map_err(|e| format!("replay load: {e}"))?;
    if served.ann {
        matcher.set_ann_pool(Some(ANN_POOL));
    }
    let pre = Preprocessor::default();
    let mut block = matcher.query_block();
    let mut scratch = SearchScratch::new();
    let plan: Vec<PlannedRequest> = RequestPlan::new(seed, 0, served.queries(), served.text_in_4())
        .take(REPLAY_REQUESTS)
        .collect();

    // Each request runs twice back to back, traced and bare, the order
    // alternating so that neither side always finds the caches warm.
    let (mut traced, mut bare) = (Vec::new(), Vec::new());
    let mut off = Tracer::off();
    for (i, req) in plan.iter().enumerate() {
        let mut score_span = 0;
        for pass in [i % 2 == 0, i % 2 != 0] {
            let id = i as u64 + 1;
            let started = Instant::now();
            let tr = if pass { &mut *tracer } else { &mut off };
            let root = tr.enter("request", None, id);

            let mut frame = Vec::new();
            tr.span("client.encode", Some(root), id, || {
                let body = if req.by_text {
                    RequestBody::QueryText {
                        text: served.texts[req.doc].clone(),
                        k: K,
                        ann: None,
                    }
                } else {
                    RequestBody::QueryId {
                        doc: req.doc,
                        k: K,
                        ann: None,
                    }
                };
                write_frame(&mut frame, &Request { id, body }.encode())
            })
            .map_err(|e| format!("replay encode: {e}"))?;

            let request = tr
                .span("protocol.decode", Some(root), id, || {
                    let payload = FrameReader::new()
                        .next(&mut Cursor::new(&frame))
                        .ok()
                        .flatten()?;
                    Request::decode(&payload).ok()
                })
                .ok_or("replay: the request frame did not decode")?;

            // A text with no known token is answered empty, unscored.
            let query = match request.body {
                RequestBody::QueryId { doc, .. } => Some(Query::ById(doc)),
                RequestBody::QueryText { text, .. } => {
                    tr.span("serving.embed_text", Some(root), id, || {
                        matcher
                            .artifact()
                            .embed_tokens(&pre.base_tokens(&text))
                            .map(Query::ByVector)
                    })
                }
                other => return Err(format!("replay: unexpected request {other:?}")),
            };

            let score = tr.enter("serving.score", Some(root), id);
            let matches = match query {
                Some(query) => matcher
                    .query_batch_with_mode(&mut block, &[query], K, served.ann)
                    .0
                    .pop()
                    .expect("one query in, one answer out")
                    .map_err(|e| format!("replay query: {e}"))?,
                None => Vec::new(),
            };
            tr.exit(score);

            let mut reply = Vec::new();
            tr.span("protocol.encode", Some(root), id, || {
                let response = Response {
                    id,
                    body: ResponseBody::Matches { matches, batch: 1 },
                };
                write_frame(&mut reply, &response.encode())
            })
            .map_err(|e| format!("replay encode: {e}"))?;

            let response = tr
                .span("client.decode", Some(root), id, || {
                    let payload = read_frame(&mut Cursor::new(&reply)).ok().flatten()?;
                    Response::decode(&payload).ok()
                })
                .ok_or("replay: the response frame did not decode")?;
            tr.exit(root);
            let whole_us = started.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(response);
            if pass { &mut traced } else { &mut bare }.push(whole_us);
            if pass {
                score_span = score;
            }
        }
        if served.ann {
            // The pool search runs inside the facade call; measured
            // again on its own, once both passes are over, and placed
            // as the child of the traced span it ran in.
            let row = matcher.artifact().second_matrix().row(req.doc);
            let t = Instant::now();
            std::hint::black_box(matcher.artifact().ann_pool_with(
                row,
                ANN_POOL,
                ANN_POOL,
                &mut scratch,
            ));
            tracer.place_child("ann.search", score_span, t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let m = |name: &str| quietest_median(&tracer.durations_us(name));
    let texts = plan.iter().filter(|r| r.by_text).count();
    Ok(Replay {
        client_encode: m("client.encode"),
        protocol_decode: m("protocol.decode"),
        embed_text: m("serving.embed_text"),
        text_share: texts as f64 / plan.len() as f64,
        score: m("serving.score"),
        ann_search: m("ann.search"),
        rescore: if served.ann {
            quietest_median(&tracer.self_times_us("serving.score"))
        } else {
            0.0
        },
        protocol_encode: m("protocol.encode"),
        client_decode: m("client.decode"),
        request_traced: quietest_median(&traced),
        request_bare: quietest_median(&bare),
    })
}

/// Daemon-side readings at one instant; two of them bracket a phase.
pub struct Window {
    stats: StatsSnapshot,
    proc_: ProcSample,
}

impl Window {
    pub fn open(daemon: &Daemon, control: &mut Client) -> Result<Window, String> {
        Ok(Window {
            stats: control.stats().map_err(|e| format!("stats: {e}"))?,
            proc_: daemon.sample()?,
        })
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics read from the daemon's `stats` op and from
/// `/proc/<pid>` over one phase. The request count includes the two
/// `stats` exchanges that bracket the phase.
pub fn counters(before: &Window, after: &Window, outcome: &mut Outcome) {
    let s = |f: fn(&StatsSnapshot) -> u64| f(&after.stats) - f(&before.stats);
    let requests = s(|s| s.requests);
    let pool_mean = ratio(s(|s| s.pooled), s(|s| s.ann_queries));
    outcome.set("ann.pool_mean", pool_mean);
    outcome.set(
        "ann.useful_share",
        if pool_mean > 0.0 {
            ANN_POOL as f64 / pool_mean
        } else {
            0.0
        },
    );
    outcome.set(
        "batch.mean_size",
        ratio(s(|s| s.batched_requests), s(|s| s.batches)),
    );
    outcome.set("batch.coalesced_share", ratio(s(|s| s.coalesced), requests));
    outcome.set(
        "pool.shards_per_batch",
        ratio(s(|s| s.shards), s(|s| s.batches)),
    );
    outcome.set(
        "server.cpu_us_per_req",
        (after.proc_.cpu_us - before.proc_.cpu_us) / requests as f64,
    );
    outcome.set(
        "server.ctxsw_per_req",
        (after.proc_.context_switches - before.proc_.context_switches) / requests as f64,
    );
    outcome.set("server.shed", s(|s| s.shed) as f64);
    outcome.set("server.evicted", s(|s| s.evicted) as f64);
    outcome.set("server.errors", s(|s| s.errors) as f64);
}

/// The traced run: the measured one-caller phase and a two-caller phase
/// against the live daemon (their p50s bracket queueing), daemon-side
/// counters over the second, where batching can engage, then the
/// in-process replay.
fn layers(
    load: &Load<'_>,
    control: &mut Client,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (daemon, served) = (load.daemon, load.served);
    // The traced run splits the budget: half to the one-caller phase,
    // a quarter to the two-caller phase, the rest to the replay.
    let one = load.phase(CALLERS, seconds / 2.0)?;
    let before = Window::open(daemon, control)?;
    let two = load.phase(QUEUE_CALLERS, seconds / 4.0)?;
    let after = Window::open(daemon, control)?;
    outcome.attempted += two.attempted + one.attempted;
    outcome.failed += two.failed + one.failed;

    let mut tracer = Tracer::new();
    let r = replay(&mut tracer, &served.artifact_path(), load.seed, served)?;
    tracer.write(served.name)?;

    let (one_p50, two_p50) = (one.p50.value, two.p50.value);
    let overhead = one_p50 - r.stages();
    let queue = two_p50 - one_p50;

    outcome.set("client.encode_us", r.client_encode);
    outcome.set("protocol.decode_us", r.protocol_decode);
    outcome.set("serving.embed_text_us", r.embed_text);
    outcome.set("serving.score_us", r.score);
    // Computed, not measured: the bytes an exact scan must stream.
    let scanned_gb = if served.ann {
        0.0
    } else {
        (served.rows * served.dim * 4) as f64 / 1e9
    };
    outcome.set("score.gb_per_s", scanned_gb / (r.score * 1e-6));
    outcome.set("ann.search_us", r.ann_search);
    outcome.set("serving.rescore_us", r.rescore);
    outcome.set("ann.build_s", served.index_build_s);
    outcome.set(
        "ann.build_rows_per_s",
        if served.ann {
            served.rows as f64 / served.index_build_s
        } else {
            0.0
        },
    );
    outcome.set("protocol.encode_us", r.protocol_encode);
    outcome.set("client.decode_us", r.client_decode);
    outcome.set("server.overhead_us", overhead);
    outcome.set("server.overhead_share", overhead / one_p50);
    outcome.set("server.queue_us", queue);
    counters(&before, &after, outcome);
    outcome.set(
        "trace.overhead_share",
        r.request_traced / r.request_bare - 1.0,
    );
    outcome.notes.push(format!(
        "live p50: two callers {two_p50:.1} µs, one caller {one_p50:.1} µs; replayed stages sum to {:.1} µs",
        r.stages()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_reads_each_statistic_off_its_quietest_round() {
        let quiet: Vec<f64> = (1..=100).map(f64::from).collect();
        let disturbed: Vec<f64> = quiet.iter().map(|x| x + 10.0).collect();
        // The disturbed round was the shorter one, so it has the rate.
        let phase = Phase::of_rounds(&[disturbed, quiet], &[0.25, 0.5], 90.0);
        assert_eq!(phase.p50.value, 50.0);
        assert_eq!(phase.tail.value, 90.0);
        assert_eq!(phase.per_s.value, 400.0);
        assert_eq!((phase.p50.n, phase.thinnest_round), (2, 100));
    }

    #[test]
    fn a_replayed_stage_reads_its_quietest_stretch() {
        let mut calls = vec![5.0; REPLAY_STRETCH];
        calls.extend(vec![3.0; REPLAY_STRETCH]);
        calls.push(1.0); // a last, short stretch counts as one
        assert_eq!(quietest_median(&calls), 1.0);
        assert_eq!(quietest_median(&calls[..2 * REPLAY_STRETCH]), 3.0);
        assert_eq!(quietest_median(&[]), 0.0);
    }
}
