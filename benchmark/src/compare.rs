//! `--compare A.json B.json`: holds a candidate's end-to-end numbers
//! against a baseline's, one row per (workload, metric), under the
//! bounds `BENCHMARK.json` fixes.

use crate::report::StoredRun;
use crate::spec::MetricSpec;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The candidate's median is worse than the baseline's by more than
    /// the bound.
    Worse,
    /// Within the bound, and the spread is narrow enough to say so.
    Same,
    /// The spread of either side is wider than the bound: the numbers
    /// cannot show that nothing moved.
    Unresolved,
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when better).
pub fn worsening(spec: &MetricSpec, base: f64, candidate: f64) -> f64 {
    let delta = if spec.higher_is_better {
        base - candidate
    } else {
        candidate - base
    };
    delta / base.abs()
}

pub fn verdict(spec: &MetricSpec, base: &Summary, candidate: &Summary) -> Verdict {
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    // Every quartile of the candidate better than every quartile of the
    // baseline: better whatever the spread.
    let clearly_better = if spec.higher_is_better {
        candidate.q1 > base.q3
    } else {
        candidate.q3 < base.q1
    };
    if clearly_better {
        Verdict::Same
    } else if base.spread().max(candidate.spread()) > bound {
        Verdict::Unresolved
    } else if worsening(spec, base.value, candidate.value) > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// One metric of one workload over every untraced run of a set: the
/// median of the runs' values with the quartiles between runs. A set of
/// one run has no spread, and resolves only what its bound allows.
pub fn across_runs(runs: &[StoredRun], workload: &str, metric: &str) -> Summary {
    let values: Vec<f64> = runs
        .iter()
        .filter(|r| !r.traced && r.workload == workload)
        .filter_map(|r| r.metrics.get(metric))
        .map(|s| s.value)
        .collect();
    if values.is_empty() {
        Summary::single(f64::NAN)
    } else {
        Summary::of(&values)
    }
}

/// Prints one row per (workload, end-to-end metric) present in both
/// sets; returns how many rows read worse.
pub fn compare(
    workloads: &[String],
    end_to_end: &[MetricSpec],
    base: &[StoredRun],
    candidate: &[StoredRun],
) -> usize {
    let mut worse = 0;
    println!(
        "{:<12} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for workload in workloads {
        for spec in end_to_end {
            let (bs, cs) = (
                across_runs(base, workload, &spec.name),
                across_runs(candidate, workload, &spec.name),
            );
            if bs.value.is_nan() || cs.value.is_nan() {
                continue;
            }
            let v = verdict(spec, &bs, &cs);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<12} {:<16} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {} (n {} vs {})",
                workload,
                spec.name,
                bs.value,
                cs.value,
                worsening(spec, bs.value, cs.value) * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Worse => "WORSE",
                    Verdict::Same => "same",
                    Verdict::Unresolved => "unresolved",
                },
                bs.n,
                cs.n
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    fn tight(value: f64) -> Summary {
        Summary {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
            n: 4,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let latency = spec(false, 0.10);
        assert_eq!(
            verdict(&latency, &tight(100.0), &tight(105.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&latency, &tight(100.0), &tight(111.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&latency, &tight(100.0), &tight(50.0)),
            Verdict::Same
        );

        let rate = spec(true, 0.10);
        assert_eq!(verdict(&rate, &tight(100.0), &tight(95.0)), Verdict::Same);
        assert_eq!(verdict(&rate, &tight(100.0), &tight(89.0)), Verdict::Worse);
        assert_eq!(verdict(&rate, &tight(100.0), &tight(200.0)), Verdict::Same);

        // A spread wider than the bound resolves nothing, in either
        // direction — unless the candidate is better quartile for quartile.
        let noisy = Summary {
            value: 100.0,
            q1: 90.0,
            q3: 110.0,
            n: 4,
        };
        assert_eq!(
            verdict(&latency, &noisy, &tight(100.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&latency, &tight(100.0), &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&latency, &noisy, &tight(120.0)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&latency, &noisy, &tight(80.0)), Verdict::Same);
        assert_eq!(verdict(&rate, &noisy, &tight(120.0)), Verdict::Same);

        // Values measured once (counts, sizes) have no spread.
        let bytes = spec(false, 0.01);
        assert_eq!(
            verdict(&bytes, &Summary::single(1000.0), &Summary::single(1005.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&bytes, &Summary::single(1000.0), &Summary::single(1011.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(worsening(&spec(false, 0.1), 100.0, 110.0), 0.10);
        assert_eq!(worsening(&spec(true, 0.1), 100.0, 110.0), -0.10);
    }
}
