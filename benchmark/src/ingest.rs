//! The `ingest` workload: one writer pushes delta batches through
//! load → apply → save → reload → first query while one reader queries
//! beside it — writes beside reads on the layers the serve workloads
//! only read.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::serving::Matcher;
use tdmatch_serve::client::Client;

use crate::daemon::Daemon;
use crate::fit::FitCase;
use crate::gen::{DeltaPlan, DeltaStream, Rng};
use crate::report::Outcome;
use crate::serve::{
    bits, check_drained, counters, oracle, publish, set_up, tail_note, wire_pass, CallerLog, Phase,
    Quality, Served, Window, ANN_POOL, K, WARMUP_S,
};
use crate::stats::{median, sorted};
use crate::trace::Tracer;

/// Tail percentile of delta visibility: a round holds a hundred
/// batches, not thousands.
const DELTA_TAIL: f64 = 90.0;
/// The reader's tail: 250 queries a round leave 25 beyond the p90.
const READER_TAIL: f64 = 90.0;
/// A round of this workload is a **cycle**: this many batches applied
/// to the base artifact, after which the base file is put back. Every
/// cycle pushes the same batches onto the same corpus (400 rows growing
/// to 800, 200 of them dead), so cycles are rounds of identical work,
/// which rounds cut by time are not when every batch grows the corpus.
/// A hundred batches leave ten beyond the p90.
const CYCLE: usize = 100;
/// The corpus state the run is scored at: sizes, live and dead rows and
/// ranking quality after this many batches of the first cycle, which
/// repeat exactly for a seed.
const CHECKPOINT: usize = 30;
/// Every this many batches the writer holds the daemon's answers
/// against a fresh in-process load of the file it just published.
const VERIFY_EVERY: usize = 10;
const VERIFY_QUERIES: usize = 8;
/// Batches at each end of a cycle that `delta.visible_drift` compares.
const DRIFT_WINDOW: usize = 20;
/// The reader asks one query per interval rather than as fast as it
/// can: writer, reader and daemon then need about one core between
/// them, and a neighbour on the host's other core does not reach them.
const READER_INTERVAL: Duration = Duration::from_millis(1);

struct WriterLog {
    /// Visibility in ms of the correct batches of each cycle.
    cycles: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
    /// Visibility of the batches pushed with the tracer off (every
    /// second batch of a traced run), to price the tracing.
    bare_ms: Vec<f64>,
    /// `(live rows, all rows, file bytes)` at the checkpoint.
    checkpoint: (usize, usize, u64),
    /// Per fitted target row: untouched by any delta at the checkpoint.
    pristine: Vec<bool>,
    /// Verification operations beside the timed path.
    checked: u64,
    wrong: u64,
}

/// One batch on the timed path. `Err` is a failed operation.
fn push(
    tr: &mut Tracer,
    id: u64,
    plan: &DeltaPlan,
    served: &Served,
    client: &mut Client,
    probe: usize,
) -> Result<MatchArtifact, String> {
    let path = served.artifact_path();
    let root = tr.enter("delta", None, id);
    let mut artifact = tr
        .span("artifact.load", Some(root), id, || {
            MatchArtifact::load(&path)
        })
        .map_err(|e| e.to_string())?;
    tr.span("delta.apply", Some(root), id, || {
        artifact.apply_delta(&plan.batch)
    })
    .map_err(|e| e.to_string())?;
    tr.span("artifact.save", Some(root), id, || artifact.save(&path))
        .map_err(|e| e.to_string())?;
    tr.span("server.reload", Some(root), id, || client.reload())
        .map_err(|e| e.to_string())?;
    tr.span("delta.first_query", Some(root), id, || {
        client.query_id(probe, K)
    })
    .map_err(|e| e.to_string())?;
    tr.exit(root);
    Ok(artifact)
}

/// Holds the daemon against a fresh load of the published file: sampled
/// queries bit-for-bit in exact mode, the appended document retrievable
/// by its own embedding. Returns `(checked, wrong)`.
fn verify(
    served: &Served,
    exact: &mut Client,
    plan: &DeltaPlan,
    rng: &mut Rng,
) -> Result<(u64, u64), String> {
    let facade =
        Matcher::load(served.artifact_path()).map_err(|e| format!("post-delta load: {e}"))?;
    let mut wrong = 0;
    for _ in 0..VERIFY_QUERIES {
        let q = rng.below(served.queries());
        let want = facade
            .query_by_id(q, K)
            .map_err(|e| format!("post-delta facade query {q}: {e}"))?;
        if !matches!(exact.query_id(q, K), Ok((got, _)) if bits(&got) == bits(&want)) {
            wrong += 1;
        }
    }
    let (row, tokens) = &plan.appended;
    let vector = facade
        .artifact()
        .embed_tokens(tokens)
        .ok_or("an appended document has no known token")?;
    if !matches!(exact.query_vector(vector, K), Ok((got, _)) if got.iter().any(|(t, _)| t == row)) {
        wrong += 1;
    }
    Ok((VERIFY_QUERIES as u64 + 1, wrong))
}

/// The writer's two connections: the timed path in the daemon's own
/// mode, and the verification beside it in exact mode.
struct WriterClients {
    timed: Client,
    exact: Client,
}

/// Puts `file` behind the daemon: copied beside the artifact, renamed
/// over it (the daemon maps the file it serves) and reloaded.
fn put_back(file: &Path, served: &Served, client: &mut Client) -> Result<(), String> {
    let staged = served.dir.join("staged.tdz");
    std::fs::copy(file, &staged)
        .and_then(|_| std::fs::rename(&staged, served.artifact_path()))
        .map_err(|e| format!("putting {} back: {e}", file.display()))?;
    client.reload().map_err(|e| format!("reloading: {e}"))?;
    Ok(())
}

/// Pushes cycles until `total_s` have passed (at least one).
fn write(
    mut clients: WriterClients,
    vocabulary: &[String],
    seed: u64,
    served: &Served,
    start: Instant,
    total_s: f64,
    traced: bool,
) -> Result<WriterLog, String> {
    let mut log = WriterLog {
        cycles: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::new(),
        bare_ms: Vec::new(),
        checkpoint: (0, 0, 0),
        pristine: Vec::new(),
        checked: 0,
        wrong: 0,
    };
    let mut off = Tracer::off();
    let mut batches = 0;
    while log.cycles.is_empty() || start.elapsed().as_secs_f64() < total_s {
        // The same stream and the same probes in every cycle.
        let mut stream = DeltaStream::new(seed, vocabulary.to_vec(), served.rows);
        let mut rng = Rng::new(seed, 3);
        let mut visible = Vec::with_capacity(CYCLE);
        for in_cycle in 1..=CYCLE {
            batches += 1;
            let plan = stream.next_batch();
            let probe = rng.below(served.queries());
            let t = Instant::now();
            let spans = traced && batches % 2 == 1;
            let tr = if spans { &mut log.tracer } else { &mut off };
            let pushed = push(tr, batches as u64, &plan, served, &mut clients.timed, probe);
            let visible_ms = t.elapsed().as_secs_f64() * 1e3;
            if traced && !spans {
                log.bare_ms.push(visible_ms);
            }
            // The artifact in hand must show the delta it was given.
            let ok = pushed.as_ref().is_ok_and(|a| {
                a.corpus_sizes().0 == stream.rows()
                    && a.first_vector(plan.appended.0).is_some()
                    && plan.tombstoned.iter().all(|&t| a.first_vector(t).is_none())
            });
            log.attempted += 1;
            if ok {
                visible.push(visible_ms);
            } else {
                log.failed += 1;
            }
            if in_cycle % VERIFY_EVERY == 0 {
                let (checked, wrong) = verify(served, &mut clients.exact, &plan, &mut rng)?;
                log.checked += checked;
                log.wrong += wrong;
            }
            if in_cycle == CHECKPOINT && log.cycles.is_empty() {
                let kept = served.dir.join("checkpoint.tdz");
                let bytes = std::fs::copy(served.artifact_path(), &kept)
                    .map_err(|e| format!("keeping the checkpoint: {e}"))?;
                log.checkpoint = (stream.live_rows(), stream.rows(), bytes);
                log.pristine = stream.pristine().to_vec();
            }
        }
        log.cycles.push(visible);
        put_back(&served.dir.join("base.tdz"), served, &mut clients.timed)?;
    }
    Ok(log)
}

/// A well-formed answer: at most `K` entries, scores non-increasing.
fn well_formed(ranked: &[(usize, f32)]) -> bool {
    ranked.len() <= K && ranked.windows(2).all(|w| w[0].1 >= w[1].1)
}

/// Asks one query per [`READER_INTERVAL`] until the writer is done.
fn read(
    mut client: Client,
    seed: u64,
    served: &Served,
    start: Instant,
    done: &AtomicBool,
) -> CallerLog {
    let mut rng = Rng::new(seed, 4);
    let mut log = CallerLog::default();
    while !done.load(Ordering::Relaxed) {
        let q = rng.below(served.queries());
        let t = Instant::now();
        let got = client.query_id(q, K);
        let took = t.elapsed();
        log.record(
            start.elapsed().as_secs_f64(),
            took.as_secs_f64() * 1e6,
            got.is_ok_and(|(r, _)| well_formed(&r)),
        );
        std::thread::sleep(READER_INTERVAL.saturating_sub(took));
    }
    log
}

/// The fitted corpus, indexed and published (a copy kept as the base
/// every cycle starts from), behind a daemon that has answered every
/// query document once.
struct Ready {
    served: Served,
    vocabulary: Vec<String>,
    daemon: Daemon,
    control: Client,
    warm: Quality,
}

fn prepare(seed: u64) -> Result<Ready, String> {
    let case = FitCase::text(seed);
    let artifact = case.fit()?.artifact();
    let vocabulary = artifact.term_labels().map(str::to_string).collect();
    let served = publish(
        "ingest",
        artifact,
        case.scenario.truth_sets(),
        Vec::new(),
        true,
    )?;
    std::fs::copy(served.artifact_path(), served.dir.join("base.tdz"))
        .map_err(|e| format!("keeping the base artifact: {e}"))?;
    let daemon = Daemon::spawn(
        &served.artifact_path(),
        &served.socket_path(),
        Some(ANN_POOL),
    )?;
    let mut control = daemon.connect()?;
    let warm = wire_pass(&mut control, &oracle(&served)?, &served.truth)?;
    Ok(Ready {
        served,
        vocabulary,
        daemon,
        control,
        warm,
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let (ready, setup) = set_up(
        || prepare(seed),
        |mut r| r.daemon.stop(&mut r.control).map(|_| ()),
    )?;
    let Ready {
        served,
        vocabulary,
        daemon,
        mut control,
        warm,
    } = ready;

    let total_s = WARMUP_S + seconds;
    let mut clients = WriterClients {
        timed: daemon.connect()?,
        exact: daemon.connect()?,
    };
    clients.exact.set_ann(Some(false));
    let reader_client = daemon.connect()?;
    let before = Window::open(&daemon, &mut control)?;
    let start = Instant::now();
    let done = AtomicBool::new(false);
    let (writer, reader) = std::thread::scope(|scope| {
        let w = scope.spawn(|| {
            let log = write(clients, &vocabulary, seed, &served, start, total_s, traced);
            // Whether it ended well or not, or the reader never ends.
            done.store(true, Ordering::Relaxed);
            log
        });
        let r = scope.spawn(|| read(reader_client, seed, &served, start, &done));
        (w.join(), r.join())
    });
    let writer = writer.map_err(|_| "the writer thread panicked".to_string())??;
    let reader = reader.map_err(|_| "the reader thread panicked".to_string())?;
    let after = Window::open(&daemon, &mut control)?;

    // Score the corpus as it stood at the checkpoint: put that file
    // back behind the daemon and ask every query over the wire. A true
    // match the deltas rewrote or removed is no longer one: the ranking
    // is held to the matches still standing, so that it moves when
    // deltas damage retrieval and not with which rows they drew.
    let (live, rows, bytes) = writer.checkpoint;
    put_back(&served.dir.join("checkpoint.tdz"), &served, &mut control)?;
    let standing: Vec<HashSet<usize>> = served
        .truth
        .iter()
        .map(|t| {
            t.iter()
                .copied()
                .filter(|&row| writer.pristine[row])
                .collect()
        })
        .collect();
    let quality = wire_pass(&mut control, &oracle(&served)?, &standing)?;

    let cycles: Vec<Vec<f64>> = writer.cycles.iter().cloned().map(sorted).collect();
    let busy_s: Vec<f64> = cycles.iter().map(|c| c.iter().sum::<f64>() / 1e3).collect();
    if cycles.iter().any(Vec::is_empty) {
        return Err("a cycle saw no correct delta".into());
    }
    let visible = Phase::of_rounds(&cycles, &busy_s, DELTA_TAIL);
    let reads = Phase::measure(
        std::slice::from_ref(&reader),
        WARMUP_S,
        seconds,
        READER_TAIL,
    )?;
    let mut outcome = Outcome {
        attempted: warm.attempted
            + quality.attempted
            + writer.attempted
            + reads.attempted
            + writer.checked,
        failed: warm.failed + quality.failed + writer.failed + reads.failed + writer.wrong,
        ..Outcome::default()
    };
    if traced {
        let tr = &writer.tracer;
        tr.write("ingest")?;
        let ms = |name: &str| median(&tr.durations_us(name)) / 1e3;
        // A delta's place in its cycle, from the batch number its span
        // carries.
        let deltas = || tr.spans().iter().filter(|s| s.name == "delta");
        let at = |keep: fn(usize) -> bool| -> Vec<f64> {
            deltas()
                .filter(|s| keep((s.request as usize - 1) % CYCLE))
                .map(|s| s.duration_us())
                .collect()
        };
        let all: Vec<f64> = deltas().map(|s| s.duration_us()).collect();
        outcome.set("artifact.load_ms", ms("artifact.load"));
        outcome.set("delta.apply_ms", ms("delta.apply"));
        outcome.set("artifact.save_ms", ms("artifact.save"));
        outcome.set("server.reload_ms", ms("server.reload"));
        outcome.set("delta.first_query_us", ms("delta.first_query") * 1e3);
        outcome.set("delta.rows_live", live as f64);
        outcome.set("delta.rows_dead", (rows - live) as f64);
        outcome.set("artifact.bytes_per_live_row", bytes as f64 / live as f64);
        outcome.set(
            "delta.visible_drift",
            median(&at(|i| i >= CYCLE - DRIFT_WINDOW)) / median(&at(|i| i < DRIFT_WINDOW)),
        );
        outcome.set("ingest.reader_p50_us", reads.p50.value);
        outcome.set("ingest.reader_p90_us", reads.tail.value);
        outcome.set("ann.build_s", served.index_build_s);
        outcome.set(
            "ann.build_rows_per_s",
            served.rows as f64 / served.index_build_s,
        );
        counters(&before, &after, &mut outcome);
        outcome.set(
            "trace.overhead_share",
            median(&all) / 1e3 / median(&writer.bare_ms) - 1.0,
        );
        outcome.notes.push(format!(
            "{} cycles of {CYCLE} batches, every second batch traced; drift compares the last and first {DRIFT_WINDOW} of a cycle",
            cycles.len()
        ));
    } else {
        outcome.notes.push(format!(
            "{} cycles of {CYCLE} batches; {}",
            cycles.len(),
            tail_note("delta visibility", DELTA_TAIL, &visible)
        ));
        outcome.notes.push(format!(
            "reader beside the writer, one query per {} ms: p50 {:.1} µs, p90 {:.1} µs over {} queries",
            READER_INTERVAL.as_millis(),
            reads.p50.value,
            reads.tail.value,
            reads.attempted
        ));
        outcome.put("setup_s", setup);
        outcome.put("op_p50_ms", visible.p50);
        outcome.put("op_tail_ms", visible.tail);
        outcome.put("ops_per_s", visible.per_s);
        outcome.set("mrr", quality.mrr);
        outcome.set("hit_at_20", quality.hit_at_20);
        outcome.set("recall_at_20", quality.recall_at_20);
        outcome.set("peak_rss_mb", daemon.peak_rss_mb()?);
        outcome.set("artifact_bytes", bytes as f64);
    }
    let stats = daemon.stop(&mut control)?;
    check_drained(&stats, &mut outcome);
    Ok(outcome)
}
