//! In-memory spans around the calls into each layer, written out as
//! JSON lines when the run ends.
//!
//! Spans are recorded from the benchmark's own files only: a span wraps
//! one call into a layer's public function. A layer the harness cannot
//! wrap where it runs (it is called from inside another crate) is
//! measured in a call of its own and *placed* as a child at the start
//! of the span that contains it, so self time stays interval arithmetic.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use tdmatch_serve::json::{obj, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request (or one fit, one delta).
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    recording: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            recording: true,
        }
    }

    /// A tracer that records nothing: the same code path, bare, to
    /// price the tracing itself.
    pub fn off() -> Tracer {
        Tracer {
            recording: false,
            ..Tracer::new()
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`exit`](Tracer::exit).
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.recording {
            return 0;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        if self.recording {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Records one call as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Places a child measured in a call of its own at the start of
    /// `parent`, clipped to the parent's interval.
    pub fn place_child(&mut self, name: &'static str, parent: usize, duration_us: f64) {
        let p = &self.spans[parent];
        let (start_us, request) = (p.start_us, p.request);
        let end_us = (start_us + duration_us).min(p.end_us);
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: Some(parent),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span with this name, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self times of every span with this name.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let all = self_times_us(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes `benchmark/out/<workload>.spans.jsonl`, one JSON object
    /// per line: name, start_us, end_us, parent, request.
    pub fn write(&self, workload: &str) -> Result<(), String> {
        let path = format!("benchmark/out/{workload}.spans.jsonl");
        self.write_jsonl(Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = obj([
                ("name", Json::Str(s.name.to_string())),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("request", Json::Num(s.request as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_cover_of_direct_children() {
        let spans = vec![
            span("request", 0.0, 100.0, None),
            span("decode", 10.0, 30.0, Some(0)),
            span("score", 25.0, 70.0, Some(0)), // overlaps decode by 5
            span("ann", 25.0, 40.0, Some(2)),   // grandchild: not the root's cover
            span("late", 90.0, 120.0, Some(0)), // clipped to the parent's end
        ];
        let own = self_times_us(&spans);
        // children cover [10,70] and [90,100] of the root
        assert_eq!(own[0], 100.0 - 60.0 - 10.0);
        assert_eq!(own[1], 20.0);
        assert_eq!(own[2], 45.0 - 15.0);
        assert_eq!(own[3], 15.0);
        assert_eq!(own[4], 30.0);
    }

    #[test]
    fn placed_children_sit_inside_their_parent_and_share_its_request() {
        let mut t = Tracer::new();
        let parent = t.enter("score", None, 7);
        t.exit(parent);
        t.spans[parent].end_us = t.spans[parent].start_us + 50.0;
        t.place_child("ann", parent, 20.0);
        t.place_child("huge", parent, 500.0);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(parent));
        assert_eq!(s[1].request, 7);
        assert_eq!(s[1].duration_us(), 20.0);
        assert_eq!(s[2].end_us, s[0].end_us);
        assert_eq!(t.self_times_us("score"), vec![0.0]);
        assert_eq!(t.durations_us("ann"), vec![20.0]);
    }
}
