//! `tdmatch` — command-line front end for the TDmatch pipeline.
//!
//! ```sh
//! # Fit a scenario, print the paper's ranking metrics, save the model:
//! tdmatch run --scenario imdb-wt --scale tiny --expand --save model.tdm
//!
//! # Match again later from the saved artifact (no re-training):
//! tdmatch match --artifact model.tdm --k 5
//!
//! # Or keep a daemon resident and query it over its socket:
//! tdmatch serve --artifact model.tdm --socket /run/tdmatch.sock &
//! tdmatch query --socket /run/tdmatch.sock --text "tarantino thriller"
//! tdmatch query --socket /run/tdmatch.sock --shutdown
//!
//! # Inspect an artifact:
//! tdmatch info --artifact model.tdm
//! ```
//!
//! Flag parsing is hand-rolled (`--flag value` / boolean `--flag`): a
//! handful of subcommands and flags do not justify an argument-parsing
//! dependency, and the offline build would have to vendor a stand-in for
//! it (README, "Workspace map", `vendor/` row).

use std::collections::HashSet;
use std::process::ExitCode;

use tdmatch::core::artifact::{AnnSearch, MatchArtifact};
use tdmatch::core::config::TdConfig;
use tdmatch::core::pipeline::{FitOptions, TdMatch};
use tdmatch::core::serving::Matcher;
use tdmatch::datasets::{Scale, Scenario};
use tdmatch::eval::ranking::mean_metrics;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let result = match command {
        "run" => cmd_run(&args[1..]),
        "resume" => cmd_resume(&args[1..]),
        "match" => cmd_match(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "index" => cmd_index(&args[1..]),
        "ingest" => cmd_ingest(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `tdmatch help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "tdmatch — unsupervised matching of data and text (ICDE 2022 reproduction)

USAGE:
    tdmatch run   --scenario NAME [options]   fit a synthetic scenario, report metrics
    tdmatch resume --graph PATH [options]     re-embed + match from a persisted graph
    tdmatch match --artifact PATH [--k N]     rank matches from a saved artifact
                  [--ann [--pool N] [--ef-search N]]
    tdmatch query --artifact PATH --text \"…\"  match one new document against the artifact
    tdmatch query --socket PATH [op]          send one request to a running daemon
    tdmatch query --tcp HOST:PORT [op]        same, over the daemon's TCP front
    tdmatch serve --artifact PATH [options]   run the batch-matching daemon
    tdmatch index --artifact PATH [options]   add (or drop) an ANN index in the artifact
    tdmatch ingest --artifact PATH --delta F  apply a corpus delta, republish, hot-reload
    tdmatch info  --artifact PATH             print artifact statistics
    tdmatch help                              show this message

RUN OPTIONS:
    --scenario NAME    imdb-wt | imdb-nt | corona-gen | corona-usr | audit
                       | snopes | politifact | sts2 | sts3
    --scale SCALE      tiny | small (default) | paper
    --seed N           scenario + pipeline seed (default 42)
    --k N              ranked matches per query (default 20)
    --expand           enable graph expansion (W-RW-EX)
    --walks N          random walks per node
    --walk-len N       steps per walk
    --dim N            embedding dimensionality
    --epochs N         Word2Vec epochs
    --save PATH        write the fitted match artifact to PATH
    --save-graph PATH  write the fitted joint graph to PATH (reusable via `resume`)
    --stats            print graph composition (node/edge kinds, degrees, components)

RESUME OPTIONS:
    --graph PATH       joint graph written by `run --save-graph`
    --k N              ranked matches per query (default 5)
    --walks N          random walks per node (default 30)
    --walk-len N       steps per walk (default 18)
    --dim N            embedding dimensionality (default 80)
    --epochs N         Word2Vec epochs (default 4)
    --save PATH        write the re-embedded match artifact to PATH

SERVE OPTIONS:
    --artifact PATH    TDZ1 artifact to serve (memory-mapped)
    --socket PATH      Unix socket to listen on (default tdmatch.sock;
                       must not exist — the daemon unlinks it on exit)
    --window-us N      batching window in microseconds (default 500):
                       requests arriving within the window coalesce into
                       one batched top-k scan
    --batch-max N      max queries per batch (default 8, the engine's
                       query-block width)
    --io-timeout-ms N  per-connection read/write deadline (default
                       30000; 0 disables): clients stalled mid-frame or
                       not draining responses are evicted
    --max-inflight N   shed queries past N admitted-but-unanswered with
                       a retryable `overloaded` error (default 1024;
                       0 = unlimited)
    --workers N        worker threads (default 1): each takes the next
                       batch from the queue, scores it and writes its
                       responses, so up to N batches are scored at
                       once — wire output is bit-identical at any count
    --tcp HOST:PORT    additionally listen on TCP with the same framed
                       protocol (NO authentication — bind loopback
                       unless the network is trusted)
    --ann              make ANN candidate retrieval the default mode
                       (needs an indexed artifact; see `tdmatch index`)
    --ann-pool N       ANN candidate pool width (default 4096); the pool
                       is still rescored exactly
    --ef-search N      ANN beam width, decoupled from the pool (default:
                       the pool width; values below it are clamped up,
                       keeping ANN-vs-exact bit-identity at wide pools)

    The daemon hot-swaps its artifact on SIGHUP or a `reload` request:
    publish a new file over PATH (atomic rename), then signal. A failed
    reload keeps the old snapshot serving.

QUERY OPTIONS (daemon mode, with --socket or --tcp):
    --text \"…\"         match one new document (tokenized by the daemon)
    --id N             match query-corpus document N
    --k N              ranked matches to return (default 5)
    --ping             liveness probe
    --stats            print the daemon's serving counters
    --reload           ask the daemon to hot-swap its artifact
    --shutdown         ask the daemon to drain and exit
    --retries N        retry retryable failures (overloaded, daemon
                       restarting) with capped backoff + jitter
                       (default 0)
    --timeout-ms N     client-side socket deadline (default none)
    --ann | --exact    override the daemon's retrieval mode for this
                       query (default: daemon decides)

INDEX OPTIONS:
    --artifact PATH    artifact to (re)index in place
    --out PATH         write the indexed artifact here instead
    --m N              HNSW connectivity (default 16)
    --ef N             construction beam width (default 100)
    --seed N           index construction seed (default 42)
    --drop             remove the ANN index instead of building one

INGEST OPTIONS:
    --artifact PATH    artifact to apply the delta to (republished in
                       place via atomic rename unless --out is given)
    --delta FILE       delta batch, one op per line, tab-separated:
                         append <TAB> field1 [<TAB> field2 ...]
                         update <TAB> ROW <TAB> field1 [...]
                         tombstone <TAB> ROW
                       (`-` reads the batch from stdin)
    --out PATH         publish the updated artifact here instead
    --reload-socket P  after publishing, ask the daemon on Unix socket P
                       to hot-swap (equivalent to SIGHUP / `query --reload`)
    --reload-tcp H:P   same, over the daemon's TCP front
    --max-ngram N      n-gram order for delta fields (default 3 — match
                       the fitted config's preprocess options)
    --keep-stopwords   skip stop-word removal when tokenizing fields
    --no-stem          skip stemming when tokenizing fields

    Touched rows are re-embedded against the artifact's frozen
    vocabulary (unknown terms are dropped; a document with no known
    term scores -1.0). A carried ANN index is updated incrementally —
    no rebuild. The publish is crash-safe: a killed ingest leaves the
    previous artifact serving.

SERVING:
    `match`, `query`, `serve`, and `info` memory-map TDZ1 artifacts
    read-only, so concurrent tdmatch processes (or N daemons) serving one
    artifact file share a single physical copy via the OS page cache.
    Opening only maps the file; every section checksum is verified once,
    when the artifact loads (for the daemon: at startup and at each
    reload). Protocol and operations guide: docs/SERVING.md."
    );
}

/// Minimal `--flag [value]` parser: returns the value after `name`, if any.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("flag {name} expects a value")),
        },
    }
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn build_scenario(name: &str, scale: Scale, seed: u64) -> Result<Scenario, String> {
    match tdmatch::scenarios::registry::by_key(name) {
        Some(spec) => Ok(spec.generate(scale, seed)),
        None => Err(format!(
            "unknown scenario `{name}` (known: {})",
            tdmatch::scenarios::registry::keys().join(", ")
        )),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let scenario_name = flag_value(args, "--scenario")?
        .ok_or("run requires --scenario (try `tdmatch help`)")?;
    let scale = match flag_value(args, "--scale")?.unwrap_or("small") {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "paper" => Scale::Paper,
        other => return Err(format!("unknown scale `{other}`")),
    };
    let seed: u64 = match flag_value(args, "--seed")? {
        Some(s) => parse_num(s, "seed")?,
        None => 42,
    };
    let k: usize = match flag_value(args, "--k")? {
        Some(s) => parse_num(s, "k")?,
        None => 20,
    };
    let expand = flag_present(args, "--expand");

    let scenario = build_scenario(scenario_name, scale, seed)?;
    let mut config: TdConfig = scenario.config.clone();
    config.seed = seed;
    // Scale the pipeline with the corpora (same presets as the bench
    // harness); explicit flags below override.
    (config.walks_per_node, config.walk_len, config.dim, config.epochs) =
        tdmatch::scenarios::scale_presets(scale);
    let usize_flag = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name)? {
            Some(v) => parse_num(v, name),
            None => Ok(default),
        }
    };
    config.walks_per_node = usize_flag("--walks", config.walks_per_node)?;
    config.walk_len = usize_flag("--walk-len", config.walk_len)?;
    config.dim = usize_flag("--dim", config.dim)?;
    config.epochs = usize_flag("--epochs", config.epochs)?;

    eprintln!(
        "fitting {} ({} targets, {} queries){}…",
        scenario.name,
        scenario.first.len(),
        scenario.second.len(),
        if expand { " with expansion" } else { "" },
    );
    let trainer = TdMatch::new(config);
    let options = FitOptions {
        kb: if expand { Some(scenario.kb.as_ref()) } else { None },
        compression: None,
        merge: Some((&scenario.pretrained, scenario.gamma)),
    };
    let model = trainer
        .fit_with(&scenario.first, &scenario.second, options)
        .map_err(|e| e.to_string())?;

    let (nodes, edges) = model.graph_size();
    eprintln!("graph: {nodes} nodes, {edges} edges — {}", model.timings);
    if flag_present(args, "--stats") {
        eprintln!("{}", tdmatch::graph::GraphStats::of(&model.graph));
    }

    let results = model.match_top_k(k);
    let queries: Vec<(Vec<usize>, HashSet<usize>)> = results
        .iter()
        .map(|r| r.target_indices())
        .zip(scenario.truth_sets())
        .collect();
    let m = mean_metrics(&queries);
    println!(
        "{:<12} MRR {:.3} | MAP@1 {:.3} MAP@5 {:.3} MAP@20 {:.3} | HP@1 {:.3} HP@5 {:.3} HP@20 {:.3}",
        scenario.name,
        m.mrr,
        m.map_at[0],
        m.map_at[1],
        m.map_at[2],
        m.has_positive_at[0],
        m.has_positive_at[1],
        m.has_positive_at[2],
    );

    if let Some(path) = flag_value(args, "--save")? {
        model
            .save_artifact(path)
            .map_err(|e| format!("saving artifact: {e}"))?;
        eprintln!("artifact written to {path}");
    }
    if let Some(path) = flag_value(args, "--save-graph")? {
        model
            .graph
            .save(path)
            .map_err(|e| format!("saving graph: {e}"))?;
        eprintln!("graph written to {path}");
    }
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let path = flag_value(args, "--graph")?.ok_or("resume requires --graph PATH")?;
    let k: usize = match flag_value(args, "--k")? {
        Some(s) => parse_num(s, "k")?,
        None => 5,
    };
    let graph = tdmatch::graph::CsrGraph::load(path).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    let mut config = TdConfig::text_to_data();
    (config.walks_per_node, config.walk_len, config.dim, config.epochs) = (30, 18, 80, 4);
    let usize_flag = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name)? {
            Some(v) => parse_num(v, name),
            None => Ok(default),
        }
    };
    config.walks_per_node = usize_flag("--walks", config.walks_per_node)?;
    config.walk_len = usize_flag("--walk-len", config.walk_len)?;
    config.dim = usize_flag("--dim", config.dim)?;
    config.epochs = usize_flag("--epochs", config.epochs)?;
    let model = TdMatch::new(config)
        .fit_prebuilt(graph)
        .map_err(|e| e.to_string())?;
    eprintln!("re-embedded: {}", model.timings);
    for result in model.match_top_k(k) {
        let ranked: Vec<String> = result
            .ranked
            .iter()
            .map(|(t, s)| format!("{t}:{s:.3}"))
            .collect();
        println!("query {:<5} -> {}", result.query, ranked.join(" "));
    }
    if let Some(out) = flag_value(args, "--save")? {
        model
            .save_artifact(out)
            .map_err(|e| format!("saving artifact: {e}"))?;
        eprintln!("artifact written to {out}");
    }
    Ok(())
}

fn cmd_match(args: &[String]) -> Result<(), String> {
    let path = flag_value(args, "--artifact")?.ok_or("match requires --artifact PATH")?;
    let k: usize = match flag_value(args, "--k")? {
        Some(s) => parse_num(s, "k")?,
        None => 5,
    };
    let artifact = MatchArtifact::load(path).map_err(|e| e.to_string())?;
    let results = if flag_present(args, "--ann") {
        if artifact.ann().is_none() {
            return Err(format!(
                "{path} has no ANN index; build one with `tdmatch index --artifact {path}`"
            ));
        }
        let pool: usize = match flag_value(args, "--pool")? {
            Some(s) => parse_num(s, "pool")?,
            None => tdmatch::embed::ann::DEFAULT_POOL,
        };
        let ef: usize = match flag_value(args, "--ef-search")? {
            Some(s) => parse_num(s, "ef-search")?,
            None => pool,
        };
        if ef < pool {
            eprintln!(
                "note: --ef-search {ef} is below --pool {pool}; \
                 the beam is clamped up to the pool width"
            );
        }
        let search = Some(AnnSearch { pool, ef });
        artifact.rank(artifact.second_matrix(), k, search).0
    } else {
        artifact.match_top_k(k)
    };
    for result in results {
        let ranked: Vec<String> = result
            .ranked
            .iter()
            .map(|(t, s)| format!("{t}:{s:.3}"))
            .collect();
        println!("query {:<5} -> {}", result.query, ranked.join(" "));
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    if flag_value(args, "--socket")?.is_some() || flag_value(args, "--tcp")?.is_some() {
        return cmd_query_socket(args);
    }
    let path = flag_value(args, "--artifact")?.ok_or(
        "query requires --artifact PATH (one-shot) or --socket PATH / --tcp HOST:PORT (daemon)",
    )?;
    let text = flag_value(args, "--text")?.ok_or("query requires --text \"…\"")?;
    let k: usize = match flag_value(args, "--k")? {
        Some(s) => parse_num(s, "k")?,
        None => 5,
    };
    let matcher = Matcher::load(path).map_err(|e| e.to_string())?;
    let tokens = tdmatch::text::Preprocessor::default().base_tokens(text);
    let ranked = matcher.query_by_tokens(&tokens, k);
    if ranked.is_empty() {
        return Err("no query token is in the model vocabulary".into());
    }
    for (rank, (target, score)) in ranked.iter().enumerate() {
        println!("#{:<3} target {:<6} score {score:.3}", rank + 1, target);
    }
    Ok(())
}

/// `query --socket` / `query --tcp`: one request against a running
/// daemon, over either transport.
#[cfg(unix)]
fn cmd_query_socket(args: &[String]) -> Result<(), String> {
    use std::time::Duration;
    use tdmatch::serve::client::{Client, RetryPolicy};

    let socket = flag_value(args, "--socket")?;
    let tcp = flag_value(args, "--tcp")?;
    let endpoint = match (socket, tcp) {
        (Some(_), Some(_)) => return Err("--socket and --tcp are mutually exclusive".into()),
        (Some(s), None) => s,
        (None, Some(t)) => t,
        (None, None) => unreachable!("checked by caller"),
    };
    let k: usize = match flag_value(args, "--k")? {
        Some(s) => parse_num(s, "k")?,
        None => 5,
    };
    let retries: u32 = match flag_value(args, "--retries")? {
        Some(s) => parse_num(s, "retries")?,
        None => 0,
    };
    let timeout_ms: u64 = match flag_value(args, "--timeout-ms")? {
        Some(s) => parse_num(s, "timeout-ms")?,
        None => 0,
    };
    let mut client = if tcp.is_some() {
        Client::connect_tcp(endpoint).map_err(|e| format!("connecting to {endpoint}: {e}"))?
    } else {
        Client::connect(endpoint).map_err(|e| format!("connecting to {endpoint}: {e}"))?
    };
    if retries > 0 {
        client.set_retry_policy(RetryPolicy::with_retries(retries));
    }
    if timeout_ms > 0 {
        client
            .set_io_timeout(Some(Duration::from_millis(timeout_ms)))
            .map_err(|e| e.to_string())?;
    }
    match (flag_present(args, "--ann"), flag_present(args, "--exact")) {
        (true, true) => return Err("--ann and --exact are mutually exclusive".into()),
        (true, false) => client.set_ann(Some(true)),
        (false, true) => client.set_ann(Some(false)),
        (false, false) => {}
    }
    if flag_present(args, "--ping") {
        client.ping().map_err(|e| e.to_string())?;
        println!("pong");
        return Ok(());
    }
    if flag_present(args, "--stats") {
        let s = client.stats().map_err(|e| e.to_string())?;
        println!("requests:   {}", s.requests);
        println!("batches:    {}", s.batches);
        println!("coalesced:  {}", s.coalesced);
        println!("mean batch: {:.2}", s.mean_batch());
        println!("max batch:  {}", s.max_batch);
        println!("errors:     {}", s.errors);
        println!("shed:       {}", s.shed);
        println!("evicted:    {}", s.evicted);
        println!("reloads:    {} ({} failed)", s.reloads, s.reload_failures);
        println!("generation: {}", s.generation);
        println!("ann:        {} queries (mean pool {:.0})", s.ann_queries, s.mean_pool());
        println!("exact:      {} queries", s.exact_queries);
        println!("workers:    {} ({} engine calls)", s.workers, s.shards);
        println!("inflight:   {} (queue depth {})", s.inflight, s.queue_depth);
        println!("uptime:     {:.1}s", s.uptime_secs);
        return Ok(());
    }
    if flag_present(args, "--reload") {
        let generation = client.reload().map_err(|e| e.to_string())?;
        println!("reloaded (generation {generation})");
        return Ok(());
    }
    if flag_present(args, "--shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        eprintln!("daemon acknowledged shutdown");
        return Ok(());
    }
    let (ranked, batch) = if let Some(text) = flag_value(args, "--text")? {
        client.query_text(text, k).map_err(|e| e.to_string())?
    } else if let Some(id) = flag_value(args, "--id")? {
        let doc: usize = parse_num(id, "id")?;
        client.query_id(doc, k).map_err(|e| e.to_string())?
    } else {
        return Err(
            "daemon query needs --text, --id, --ping, --stats, --reload, or --shutdown".into(),
        );
    };
    if ranked.is_empty() {
        return Err("no match (query unknown to the model)".into());
    }
    for (rank, (target, score)) in ranked.iter().enumerate() {
        println!("#{:<3} target {:<6} score {score:.3}", rank + 1, target);
    }
    eprintln!("(answered in a batch of {batch})");
    Ok(())
}

#[cfg(not(unix))]
fn cmd_query_socket(_args: &[String]) -> Result<(), String> {
    Err("daemon queries need Unix-domain sockets (unsupported on this platform)".into())
}

/// `serve`: the long-lived batch-matching daemon. Maps the artifact
/// once, then answers socket queries until a shutdown request arrives.
#[cfg(unix)]
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::time::Duration;
    use tdmatch::serve::batch::BatchOptions;
    use tdmatch::serve::server::{ServeOptions, Server};

    let path = flag_value(args, "--artifact")?.ok_or("serve requires --artifact PATH")?;
    let socket = flag_value(args, "--socket")?.unwrap_or("tdmatch.sock");
    let window_us: u64 = match flag_value(args, "--window-us")? {
        Some(s) => parse_num(s, "window-us")?,
        None => 500,
    };
    let batch_max: usize = match flag_value(args, "--batch-max")? {
        Some(s) => parse_num(s, "batch-max")?,
        None => tdmatch::embed::score::QUERY_BLOCK,
    };
    if batch_max == 0 {
        return Err("--batch-max must be at least 1".into());
    }
    let io_timeout_ms: u64 = match flag_value(args, "--io-timeout-ms")? {
        Some(s) => parse_num(s, "io-timeout-ms")?,
        None => 30_000,
    };
    let max_inflight: usize = match flag_value(args, "--max-inflight")? {
        Some(s) => parse_num(s, "max-inflight")?,
        None => 1024,
    };
    let workers: usize = match flag_value(args, "--workers")? {
        Some(s) => parse_num(s, "workers")?,
        None => 1,
    };
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let tcp = flag_value(args, "--tcp")?.map(str::to_string);
    let ann_pool: Option<usize> = match flag_value(args, "--ann-pool")? {
        Some(s) => Some(parse_num(s, "ann-pool")?),
        None if flag_present(args, "--ann") => Some(tdmatch::embed::ann::DEFAULT_POOL),
        None => None,
    };
    let ann_ef: Option<usize> = match flag_value(args, "--ef-search")? {
        Some(s) => Some(parse_num(s, "ef-search")?),
        None => None,
    };
    if let (Some(ef), Some(pool)) = (ann_ef, ann_pool) {
        if ef < pool {
            eprintln!(
                "note: --ef-search {ef} is below --ann-pool {pool}; \
                 the beam is clamped up to the pool width"
            );
        }
    }

    let matcher = Matcher::load(path).map_err(|e| format!("loading artifact: {e}"))?;
    if ann_pool.is_some() && !matcher.ann_ready() {
        return Err(format!(
            "--ann needs an indexed artifact; build one with `tdmatch index --artifact {path}`"
        ));
    }
    let (targets, queries) = (matcher.targets(), matcher.queries());
    let server = Server::start(
        matcher,
        ServeOptions {
            socket: socket.into(),
            batch: BatchOptions {
                window: Duration::from_micros(window_us),
                max_batch: batch_max,
            },
            artifact: Some(path.into()),
            io_timeout: Duration::from_millis(io_timeout_ms),
            max_inflight,
            reload_signal: Some(tdmatch::serve::signals::install_sighup()),
            ann_pool,
            ann_ef,
            workers,
            tcp,
        },
    )
    .map_err(|e| format!("starting daemon: {e}"))?;
    let mode = match ann_pool {
        Some(pool) => match ann_ef {
            Some(ef) => format!("ann pool {pool} ef {ef}"),
            None => format!("ann pool {pool}"),
        },
        None => "exact".to_string(),
    };
    eprintln!(
        "serving {path} ({targets} targets, {queries} queries) on {socket} \
         [window {window_us}µs, batch ≤{batch_max}, inflight ≤{max_inflight}, \
         {workers} worker{}, {mode}]",
        if workers == 1 { "" } else { "s" },
    );
    if let Some(addr) = server.tcp_addr() {
        eprintln!("tcp front: {addr} (no authentication — keep it loopback or firewalled)");
    }
    eprintln!("stop with: tdmatch query --socket {socket} --shutdown");
    eprintln!("hot swap:  republish {path}, then `kill -HUP {}`", std::process::id());
    let stats = server.join();
    eprintln!(
        "daemon stopped: {} requests in {} batches (mean {:.2}, max {}) over {} engine calls, \
         {} errors, {} shed, {} evicted, {} reloads ({} failed)",
        stats.requests,
        stats.batches,
        stats.mean_batch(),
        stats.max_batch,
        stats.shards,
        stats.errors,
        stats.shed,
        stats.evicted,
        stats.reloads,
        stats.reload_failures,
    );
    Ok(())
}

#[cfg(not(unix))]
fn cmd_serve(_args: &[String]) -> Result<(), String> {
    Err("the daemon needs Unix-domain sockets (unsupported on this platform)".into())
}

/// `index`: build (or drop) the persisted HNSW index inside an
/// artifact, so daemons can serve ANN retrieval without paying the
/// construction cost at startup.
fn cmd_index(args: &[String]) -> Result<(), String> {
    use tdmatch::embed::ann::HnswParams;

    let path = flag_value(args, "--artifact")?.ok_or("index requires --artifact PATH")?;
    let out = flag_value(args, "--out")?.unwrap_or(path);
    let mut artifact = MatchArtifact::load(path).map_err(|e| e.to_string())?;
    if flag_present(args, "--drop") {
        if artifact.ann().is_none() {
            return Err(format!("{path} has no ANN index to drop"));
        }
        artifact.clear_ann();
        artifact.save(out).map_err(|e| format!("saving artifact: {e}"))?;
        eprintln!("ANN index dropped; artifact written to {out}");
        return Ok(());
    }
    let defaults = HnswParams::default();
    let params = HnswParams {
        m: match flag_value(args, "--m")? {
            Some(s) => parse_num(s, "m")?,
            None => defaults.m,
        },
        ef_construction: match flag_value(args, "--ef")? {
            Some(s) => parse_num(s, "ef")?,
            None => defaults.ef_construction,
        },
        seed: match flag_value(args, "--seed")? {
            Some(s) => parse_num(s, "seed")?,
            None => defaults.seed,
        },
    };
    let start = std::time::Instant::now();
    artifact.build_ann(&params);
    let index = artifact.ann().expect("index just built");
    eprintln!(
        "indexed {} rows in {:.2}s: {} layers, {} edges (m {}, ef {}, seed {})",
        index.count(),
        start.elapsed().as_secs_f64(),
        index.layers(),
        index.edges(),
        index.m(),
        index.ef_construction(),
        index.seed(),
    );
    artifact.save(out).map_err(|e| format!("saving artifact: {e}"))?;
    eprintln!("artifact written to {out}");
    Ok(())
}

/// `ingest`: the incremental-ingest producer — apply a delta batch to a
/// published artifact, republish it atomically, and (optionally) tell a
/// running daemon to hot-swap. 2.6 ms end to end for an 8-op delta at
/// the median (the repository benchmark's `ingest` `op_p50_ms`), vs a
/// refit of the corpus.
fn cmd_ingest(args: &[String]) -> Result<(), String> {
    use std::io::Read as _;
    use tdmatch::core::delta::DeltaBatch;
    use tdmatch::text::{PreprocessOptions, Preprocessor};

    let path = flag_value(args, "--artifact")?.ok_or("ingest requires --artifact PATH")?;
    let delta_path = flag_value(args, "--delta")?.ok_or("ingest requires --delta FILE")?;
    let out = flag_value(args, "--out")?.unwrap_or(path);

    let mut options = PreprocessOptions::default();
    if let Some(n) = flag_value(args, "--max-ngram")? {
        options.max_ngram = parse_num(n, "max-ngram")?;
    }
    options.remove_stopwords = !flag_present(args, "--keep-stopwords");
    options.stem = !flag_present(args, "--no-stem");
    let pre = Preprocessor::new(options);

    let text = if delta_path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading delta from stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(delta_path)
            .map_err(|e| format!("reading {delta_path}: {e}"))?
    };
    let batch = DeltaBatch::from_tsv(&text, &pre).map_err(|e| format!("parsing delta: {e}"))?;
    if batch.is_empty() {
        return Err("delta file holds no ops".into());
    }

    let start = std::time::Instant::now();
    let mut artifact = MatchArtifact::load(path).map_err(|e| e.to_string())?;
    let summary = artifact
        .apply_delta(&batch)
        .map_err(|e| format!("applying delta: {e}"))?;
    let applied = start.elapsed();
    artifact.save(out).map_err(|e| format!("publishing artifact: {e}"))?;
    let published = start.elapsed();
    eprintln!(
        "delta applied: +{} appended, {} updated, {} tombstoned → {} rows \
         (ann: {} inserted, {} dropped) in {:.3}s; published to {out} at {:.3}s",
        summary.appended,
        summary.updated,
        summary.tombstoned,
        summary.rows,
        summary.ann_inserted,
        summary.ann_removed,
        applied.as_secs_f64(),
        published.as_secs_f64(),
    );

    let reload_socket = flag_value(args, "--reload-socket")?;
    let reload_tcp = flag_value(args, "--reload-tcp")?;
    if reload_socket.is_some() || reload_tcp.is_some() {
        reload_daemon(reload_socket, reload_tcp)?;
        eprintln!("daemon reloaded at {:.3}s", start.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Asks a running daemon to hot-swap its artifact, over either front.
#[cfg(unix)]
fn reload_daemon(socket: Option<&str>, tcp: Option<&str>) -> Result<(), String> {
    use tdmatch::serve::client::Client;
    let mut client = match (socket, tcp) {
        (Some(_), Some(_)) => {
            return Err("--reload-socket and --reload-tcp are mutually exclusive".into())
        }
        (Some(s), None) => Client::connect(s).map_err(|e| format!("connecting to {s}: {e}"))?,
        (None, Some(t)) => {
            Client::connect_tcp(t).map_err(|e| format!("connecting to {t}: {e}"))?
        }
        (None, None) => unreachable!("checked by caller"),
    };
    let generation = client.reload().map_err(|e| format!("reload: {e}"))?;
    eprintln!("daemon now serving generation {generation}");
    Ok(())
}

#[cfg(not(unix))]
fn reload_daemon(_socket: Option<&str>, _tcp: Option<&str>) -> Result<(), String> {
    Err("daemon reload needs sockets (unsupported on this platform)".into())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = flag_value(args, "--artifact")?.ok_or("info requires --artifact PATH")?;
    // Open the storage explicitly (rather than through
    // MatchArtifact::load) so the serving backing can be reported:
    // mapped storage shares one physical copy across processes.
    let storage =
        tdmatch::graph::container::Storage::open(path).map_err(|e| e.to_string())?;
    let backing = if storage.is_mapped() { "mmap (shared)" } else { "heap (private)" };
    let bytes = storage.as_bytes().len();
    let artifact = MatchArtifact::from_storage(&storage).map_err(|e| e.to_string())?;
    let (first, second) = artifact.corpus_sizes();
    println!("dim:     {}", artifact.dim());
    println!("terms:   {}", artifact.term_count());
    println!("targets: {first}");
    println!("queries: {second}");
    println!("bytes:   {bytes}");
    println!("backing: {backing}");
    match artifact.ann() {
        Some(index) => println!(
            "ann:     hnsw ({} layers, {} edges, m {}, ef {})",
            index.layers(),
            index.edges(),
            index.m(),
            index.ef_construction(),
        ),
        None => println!("ann:     none (build with `tdmatch index --artifact {path}`)"),
    }
    println!("serve:   tdmatch serve --artifact {path}   (then: tdmatch query --socket …)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_finds_values_and_rejects_missing() {
        let a = args(&["--k", "5", "--expand", "--scale", "tiny"]);
        assert_eq!(flag_value(&a, "--k").unwrap(), Some("5"));
        assert_eq!(flag_value(&a, "--scale").unwrap(), Some("tiny"));
        assert_eq!(flag_value(&a, "--seed").unwrap(), None);
        // A flag followed by another flag has no value.
        assert!(flag_value(&a, "--expand").is_err());
        // A flag at the end of the list has no value either.
        let b = args(&["--save"]);
        assert!(flag_value(&b, "--save").is_err());
    }

    #[test]
    fn flag_present_detects_booleans() {
        let a = args(&["--expand", "--k", "3"]);
        assert!(flag_present(&a, "--expand"));
        assert!(!flag_present(&a, "--stats"));
    }

    #[test]
    fn parse_num_reports_the_field_name() {
        assert_eq!(parse_num::<usize>("12", "k").unwrap(), 12);
        let err = parse_num::<usize>("abc", "walks").unwrap_err();
        assert!(err.contains("walks") && err.contains("abc"));
    }

    #[test]
    fn every_documented_scenario_builds() {
        for name in [
            "imdb-wt", "imdb-nt", "corona-gen", "corona-usr", "audit",
            "snopes", "politifact", "sts2", "sts3",
        ] {
            let s = build_scenario(name, Scale::Tiny, 1).unwrap();
            assert!(!s.first.is_empty(), "{name}");
        }
        assert!(build_scenario("nope", Scale::Tiny, 1).is_err());
    }
}
