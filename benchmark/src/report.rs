//! What one run of one workload produced, and its JSON forms: the
//! single result line the driver reads and the fuller result file
//! (host block, quartiles, counts) under `benchmark/out/`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use tdmatch_serve::json::{self, obj, Json};

use crate::spec::MetricSpec;
use crate::stats::Summary;

/// One run's measurements, keyed by metric name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed, refused, timed-out or *wrong* operations. A failed
    /// operation contributes to no latency statistic.
    pub failed: u64,
    /// Broken invariants that are not one operation's failure (a gauge
    /// left non-zero after the drain, a layer sum that does not add up).
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, Summary>,
    /// How to read the numbers (which tail percentile, how many samples
    /// beyond it), carried into the result file.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::single(value));
    }

    pub fn put(&mut self, name: &'static str, summary: Summary) {
        assert!(
            self.metrics.insert(name, summary).is_none(),
            "metric {name} set twice"
        );
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// A finished run laid out against the metric list of `BENCHMARK.json`.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricSpec, Summary)>,
    pub notes: Vec<String>,
}

impl RunResult {
    /// Lines `outcome` up with `wanted`. An end-to-end metric the
    /// workload did not produce is a harness bug; a per-layer metric it
    /// did not produce belongs to a layer the workload never enters and
    /// reads 0 (no time busy, no work done).
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
        wanted: &[MetricSpec],
        mut outcome: Outcome,
    ) -> Result<RunResult, String> {
        let correct = outcome.correct();
        let mut metrics = Vec::with_capacity(wanted.len());
        for spec in wanted {
            let summary = match outcome.metrics.remove(spec.name.as_str()) {
                Some(s) => s,
                None if traced => Summary::single(0.0),
                None => return Err(format!("{workload} did not measure {}", spec.name)),
            };
            if !summary.value.is_finite() {
                return Err(format!("{workload}: {} is not a finite number", spec.name));
            }
            metrics.push((spec.clone(), summary));
        }
        if let Some(extra) = outcome.metrics.keys().next() {
            return Err(format!(
                "{workload} measured {extra}, which BENCHMARK.json does not list"
            ));
        }
        let mut notes = outcome.notes;
        notes.extend(
            outcome
                .violations
                .into_iter()
                .map(|v| format!("VIOLATION: {v}")),
        );
        Ok(RunResult {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            correct,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics,
            notes,
        })
    }

    /// The driver's result line.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(spec, s)| {
                let entry = obj([
                    ("value", Json::Num(s.value)),
                    ("unit", Json::Str(spec.unit.clone())),
                ]);
                (spec.name.clone(), entry)
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    }

    pub fn to_json(&self, host: &Json) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(spec, s)| {
                let entry = obj([
                    ("value", Json::Num(s.value)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                    ("unit", Json::Str(spec.unit.clone())),
                ]);
                (spec.name.clone(), entry)
            })
            .collect();
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("host", host.clone()),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    pub fn file(workload: &str, traced: bool) -> PathBuf {
        let kind = if traced { "layers" } else { "result" };
        PathBuf::from(format!("benchmark/out/{workload}.{kind}.json"))
    }

    /// One line per metric: name, median, unit, quartiles, count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {} s, {}): {} attempted, {} failed\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for (spec, s) in &self.metrics {
            out.push_str(&format!(
                "  {:<28} {:>16.6} {:<6}",
                spec.name, s.value, spec.unit
            ));
            if s.n > 1 {
                out.push_str(&format!(" q1 {:.6} q3 {:.6} n {}", s.q1, s.q3, s.n));
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

/// A stored run, as `--compare` reads it back.
pub struct StoredRun {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub metrics: BTreeMap<String, Summary>,
}

/// Reads a result file: one run, or the `runs` of a set.
pub fn read_runs(path: &str) -> Result<Vec<StoredRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![&doc],
    };
    runs.into_iter()
        .map(|run| {
            let bad = |what: &str| format!("{path}: a run lacks {what}");
            let Some(Json::Obj(entries)) = run.get("metrics") else {
                return Err(bad("`metrics`"));
            };
            let mut metrics = BTreeMap::new();
            for (name, entry) in entries {
                let num = |key: &str| {
                    entry
                        .get(key)
                        .and_then(Json::as_num)
                        .ok_or_else(|| bad(key))
                };
                let summary = Summary {
                    value: num("value")?,
                    q1: num("q1")?,
                    q3: num("q3")?,
                    n: num("n")? as usize,
                };
                metrics.insert(name.clone(), summary);
            }
            Ok(StoredRun {
                workload: run
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("`workload`"))?
                    .to_string(),
                seed: run
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("`seed`"))?,
                traced: matches!(run.get("traced"), Some(Json::Bool(true))),
                metrics,
            })
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Keeps git from searching above the checkout for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// CPUs this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Where and on what the numbers were taken: `cores` as counted before
/// the run pinned itself, `pinned_cpu` the CPU it pinned itself to
/// (`null` where pinning was refused).
pub fn host_block(cores: usize, pinned_cpu: Option<usize>) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    obj([
        ("cores", Json::Num(cores as f64)),
        ("cpu", Json::Str(cpu)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("loadavg_at_start", Json::Str(loadavg)),
    ])
}
