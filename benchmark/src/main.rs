//! `tdbench`, the repository benchmark. `benchmark/run.sh` builds the
//! daemon and this harness and runs it from the repository root; see
//! `benchmark/README.md`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   and prints its result as one JSON object on the last line;
//! * without `--workload`, or with `--runs N`, it runs a set: every
//!   workload (or the one named), each run in a process of its own, N
//!   times under seeds `seed..seed+N`, written to
//!   `benchmark/out/results.json`; with several runs it prints the
//!   spread of every end-to-end metric against its bound;
//! * `--compare A.json B.json` holds set B against set A.

mod compare;
mod daemon;
mod fit;
mod gen;
mod ingest;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use tdmatch_serve::json::{obj, Json};

use report::{cores, host_block, read_runs, RunResult, StoredRun};
use spec::Spec;

const DEFAULT_SEED: u64 = 42;
const RESULTS_FILE: &str = "benchmark/out/results.json";
const BASELINE_FILE: &str = "benchmark/baseline.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    runs: usize,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        runs: 1,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| format!("{flag} needs a whole number"))?
            }
            "--seconds" => args.seconds = Some(number(value()?)?).filter(|s| *s > 0.0),
            "--trace" => args.traced = number(value()?)? != 0.0,
            "--traced" => args.traced = true,
            "--runs" => args.runs = (number(value()?)? as usize).max(1),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_workload(
    spec: &Spec,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload}; BENCHMARK.json lists {}",
            spec.workloads.join(", ")
        ));
    }
    let outcome = match workload {
        "fit-text" => fit::run(true, seed, seconds, traced),
        "fit-table" => fit::run(false, seed, seconds, traced),
        "serve-small" => serve::run(serve::Kind::Small, seed, seconds, traced),
        "serve-scan" => serve::run(serve::Kind::Scan, seed, seconds, traced),
        "serve-ann" => serve::run(serve::Kind::Ann, seed, seconds, traced),
        "ingest" => ingest::run(seed, seconds, traced),
        other => Err(format!(
            "BENCHMARK.json lists {other}, which the harness does not implement"
        )),
    }?;
    let mut outcome = outcome;
    if traced {
        outcome.set("host.calibration_ms", calibration_ms());
    }
    let wanted = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    RunResult::new(workload, seed, seconds, traced, wanted, outcome)
}

/// A fixed loop of integer arithmetic, the median of five timings: the
/// speed of the host at the moment of the run. When this moves between
/// two runs, the host moved, whatever the code did.
fn calibration_ms() -> f64 {
    let timings: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut acc = 0u64;
            for i in 0..20_000_000u64 {
                acc = std::hint::black_box(acc.wrapping_add(i.wrapping_mul(i)));
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&timings)
}

/// One workload in this process: result file, table on stderr, the
/// driver's line last on stdout.
fn single(spec: &Spec, workload: &str, args: &Args) -> Result<ExitCode, String> {
    // Before anything is measured or started: see `pin_to_one_cpu`.
    let host = host_block(cores(), daemon::pin_to_one_cpu());
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("creating benchmark/out: {e}"))?;
    let result = run_workload(spec, workload, args.seed, seconds, args.traced)?;
    let file = RunResult::file(workload, args.traced);
    std::fs::write(&file, result.to_json(&host).encode())
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    eprint!("{}", result.table());
    println!("{}", result.driver_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a child process (peak memory is per process)
/// and reads its result file back.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let file = RunResult::file(workload, traced);
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    tdmatch_serve::json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

/// Ranking quality repeats exactly for a seed, so a run at a seed the
/// committed baseline holds must reproduce its `mrr` within the bound.
fn off_the_committed_mrr(spec: &Spec, runs: &[StoredRun]) -> Result<usize, String> {
    if !std::path::Path::new(BASELINE_FILE).is_file() {
        return Ok(0);
    }
    let baseline = read_runs(BASELINE_FILE)?;
    let mrr = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "mrr")
        .ok_or("BENCHMARK.json lists no mrr")?;
    let mut off = 0;
    for run in runs.iter().filter(|r| !r.traced) {
        let committed = baseline
            .iter()
            .find(|b| !b.traced && b.workload == run.workload && b.seed == run.seed);
        if let (Some(b), Some(now)) = (
            committed.and_then(|b| b.metrics.get("mrr")),
            run.metrics.get("mrr"),
        ) {
            if compare::worsening(mrr, b.value, now.value) > mrr.bound.unwrap_or(0.0) {
                eprintln!(
                    "{} seed {}: mrr {} left its bound against the committed {}",
                    run.workload, run.seed, now.value, b.value
                );
                off += 1;
            }
        }
    }
    Ok(off)
}

/// The acceptance rule of this benchmark, run on itself: per workload
/// and end-to-end metric, the distance between the quartiles of the
/// runs' values as a share of their median, which must stay within the
/// bound (`setup_s` excepted) and should stay under a third of it.
/// Returns how many rows are wider than their bound.
fn print_spreads(spec: &Spec, workloads: &[String], runs: &[StoredRun]) -> usize {
    let mut wide = 0;
    println!(
        "{:<12} {:<16} {:>16} {:>9} {:>7}  reading",
        "workload", "metric", "median", "spread", "bound"
    );
    for workload in workloads {
        for metric in &spec.end_to_end {
            let s = compare::across_runs(runs, workload, &metric.name);
            let bound = metric.bound.unwrap_or(0.0);
            let reading = if s.spread() <= bound / 3.0 {
                "steady"
            } else if s.spread() <= bound || metric.name == "setup_s" {
                "within the bound"
            } else {
                wide += 1;
                "WIDER THAN THE BOUND"
            };
            println!(
                "{:<12} {:<16} {:>16.6} {:>8.2}% {:>6.1}%  {}",
                workload,
                metric.name,
                s.value,
                s.spread() * 100.0,
                bound * 100.0,
                reading
            );
        }
    }
    wide
}

/// A set: every workload (or the one named), `--runs` times under
/// consecutive seeds, one process per run.
fn set(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let workloads: Vec<String> = spec
        .workloads
        .iter()
        .filter(|w| args.workload.as_ref().is_none_or(|only| only == *w))
        .cloned()
        .collect();
    if workloads.is_empty() {
        return Err(format!(
            "unknown workload; BENCHMARK.json lists {}",
            spec.workloads.join(", ")
        ));
    }
    let mut runs = Vec::new();
    let mut incorrect = 0;
    for workload in &workloads {
        for i in 0..args.runs as u64 {
            let run = child(workload, args.seed + i, seconds, args.traced)?;
            incorrect += usize::from(run.get("correct") != Some(&Json::Bool(true)));
            runs.push(run);
        }
    }
    let set = obj([("runs", Json::Arr(runs))]);
    std::fs::write(RESULTS_FILE, set.encode())
        .map_err(|e| format!("writing {RESULTS_FILE}: {e}"))?;
    let stored = read_runs(RESULTS_FILE)?;
    let wide = if args.runs > 1 && !args.traced {
        print_spreads(spec, &workloads, &stored)
    } else {
        0
    };
    let off = off_the_committed_mrr(spec, &stored)?;
    println!(
        "{} runs: {incorrect} incorrect, {off} off the committed mrr, {wide} spreads wider than their bound; written to {RESULTS_FILE}",
        stored.len()
    );
    Ok(if incorrect + off + wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let spec = Spec::load()?;
    if let Some((a, b)) = &args.compare {
        let worse = compare::compare(
            &spec.workloads,
            &spec.end_to_end,
            &read_runs(a)?,
            &read_runs(b)?,
        );
        return Ok(if worse == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    match &args.workload {
        Some(workload) if args.runs == 1 => single(&spec, workload, &args),
        _ => set(&spec, &args),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("tdbench: {e}");
        ExitCode::FAILURE
    })
}
