//! Numeric normalization helpers.
//!
//! CoronaCheck-style tables are full of numeric cells; §II-C merges numeric
//! data nodes via equal-width binning with the Freedman–Diaconis rule. This
//! module detects numeric tokens and computes the binning parameters; the
//! actual node merge lives in `tdmatch-core::merging`.

/// Attempts to parse a token as a number, accepting thousands separators
/// (`1,234`), decimals and a leading sign.
///
/// ```
/// use tdmatch_text::normalize::parse_number;
/// assert_eq!(parse_number("1,234"), Some(1234.0));
/// assert_eq!(parse_number("-3.5"), Some(-3.5));
/// assert_eq!(parse_number("covid-19"), None);
/// ```
pub fn parse_number(token: &str) -> Option<f64> {
    let cleaned: String = token.chars().filter(|&c| c != ',').collect();
    if cleaned.is_empty() {
        return None;
    }
    // Reject things like "covid-19": a number may only contain digits,
    // one dot, and a leading sign.
    let body = cleaned.strip_prefix(['-', '+']).unwrap_or(&cleaned);
    if body.is_empty() || body.chars().filter(|&c| c == '.').count() > 1 {
        return None;
    }
    if !body.chars().all(|c| c.is_ascii_digit() || c == '.') {
        return None;
    }
    if !body.chars().any(|c| c.is_ascii_digit()) {
        return None;
    }
    // A digit string past `f64::MAX` parses to ±inf; one such value in
    // a fitted set would stretch every bucket to infinity.
    cleaned.parse().ok().filter(|v: &f64| v.is_finite())
}

/// Returns true if the token parses as a number.
#[inline]
pub fn is_numeric(token: &str) -> bool {
    parse_number(token).is_some()
}

/// Freedman–Diaconis bin width: `2·IQR·n^(-1/3)`.
///
/// Returns `None` when fewer than two samples or when the IQR is zero (all
/// mass at one point — binning would be meaningless).
pub fn freedman_diaconis_width(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in numeric cells"));
    let q1 = percentile(&sorted, 0.25);
    let q3 = percentile(&sorted, 0.75);
    let iqr = q3 - q1;
    if iqr <= 0.0 {
        return None;
    }
    Some(2.0 * iqr / (values.len() as f64).cbrt())
}

/// Linear-interpolated percentile of pre-sorted data, `p` in `[0, 1]`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Assigns `value` to an equal-width bucket of width `width` anchored at
/// `min`. Returns the bucket index.
#[inline]
pub fn bucket_index(value: f64, min: f64, width: f64) -> u64 {
    debug_assert!(width > 0.0);
    (((value - min) / width).floor().max(0.0)) as u64
}

/// A canonical label for a numeric bucket, used as the merged node label.
pub fn bucket_label(index: u64, min: f64, width: f64) -> String {
    let lo = min + index as f64 * width;
    let hi = lo + width;
    format!("num[{lo:.4}..{hi:.4})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_separated() {
        assert_eq!(parse_number("42"), Some(42.0));
        assert_eq!(parse_number("1,234,567"), Some(1_234_567.0));
        assert_eq!(parse_number("3.25"), Some(3.25));
        assert_eq!(parse_number("+7"), Some(7.0));
    }

    #[test]
    fn rejects_words_and_mixed() {
        assert_eq!(parse_number("abc"), None);
        assert_eq!(parse_number("covid-19"), None);
        assert_eq!(parse_number("1.2.3"), None);
        assert_eq!(parse_number(""), None);
        assert_eq!(parse_number("-"), None);
        assert_eq!(parse_number("."), None);
    }

    #[test]
    fn rejects_digit_strings_past_f64() {
        let nines = "9".repeat(400);
        assert_eq!(parse_number(&nines), None);
        assert_eq!(parse_number(&format!("-{nines}")), None);
        assert_eq!(parse_number(&format!("{nines}.5")), None);
        // The largest finite spelling still parses.
        assert_eq!(parse_number(&format!("{}", f64::MAX)), Some(f64::MAX));
    }

    #[test]
    fn fd_width_on_uniform() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let w = freedman_diaconis_width(&vals).unwrap();
        // IQR of 0..99 ≈ 49.5; width = 2*49.5/100^(1/3) ≈ 21.3
        assert!((w - 21.33).abs() < 0.1, "w = {w}");
    }

    #[test]
    fn fd_width_degenerate() {
        assert!(freedman_diaconis_width(&[1.0]).is_none());
        assert!(freedman_diaconis_width(&[5.0; 10]).is_none());
        assert!(freedman_diaconis_width(&[]).is_none());
    }

    #[test]
    fn buckets_are_monotone() {
        let (min, w) = (0.0, 10.0);
        assert_eq!(bucket_index(0.0, min, w), 0);
        assert_eq!(bucket_index(9.99, min, w), 0);
        assert_eq!(bucket_index(10.0, min, w), 1);
        assert_eq!(bucket_index(95.0, min, w), 9);
    }

    #[test]
    fn bucket_below_min_clamps_to_zero() {
        assert_eq!(bucket_index(-5.0, 0.0, 10.0), 0);
    }

    #[test]
    fn labels_are_distinct_per_bucket() {
        assert_ne!(bucket_label(0, 0.0, 7.0), bucket_label(1, 0.0, 7.0));
    }
}
