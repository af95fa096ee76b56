//! Order statistics the benchmark reports: medians, quartiles, and the
//! tail-percentile rule.

/// Percentiles a tail statistic may use, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Number of samples strictly beyond percentile `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // In whole per-mille steps: 99.9% of 10 000 in floating point is
    // 9990.000000000002, one rank too far.
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest ladder percentile that still leaves [`MIN_BEYOND`]
/// samples beyond it; `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the midpoint rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the rule the acceptance check
/// of this benchmark is stated in. One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    assert!(!v.is_empty(), "quartiles of no samples");
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A reported statistic: the value the metric reads, with the
/// quartiles and count of the samples (per-round statistics, repeated
/// fits, …) it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// The median of the samples.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            value: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// The quietest of the samples: the least of a timing, the most of
    /// a rate. The reference host is shared: neighbours slow it down in
    /// bursts of seconds, which only ever adds time. A run is cut into
    /// many short rounds of identical work so that some fall between
    /// bursts, and the metric reads the round the host disturbed least,
    /// where a median over rounds would read the neighbours' load. The
    /// quartiles of the rounds are kept beside it in the result file.
    pub fn quietest(values: &[f64], higher_is_better: bool) -> Summary {
        let (least, most) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        Summary {
            value: if higher_is_better { most } else { least },
            ..Summary::of(values)
        }
    }

    /// A value measured once (a count, a file size).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// The same statistic in another unit.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            value: self.value * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            n: self.n,
        }
    }

    /// Interquartile range as a share of the value.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.value.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None); // the median leaves 9
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0)); // p90 leaves 9
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0)); // p99 leaves 9
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        let s = Summary::of(&[8.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.value, s.n), (3.0, 4));
        assert!((s.spread() - 5.75 / 3.0).abs() < 1e-12);
        let quietest = Summary::quietest(&[8.0, 1.0, 4.0, 2.0], false);
        assert_eq!((quietest.value, quietest.q1, quietest.q3), (1.0, 1.25, 7.0));
        assert_eq!(Summary::quietest(&[8.0, 1.0, 4.0, 2.0], true).value, 8.0);
    }
}
