//! Sample statistics used by every report: the median, the fastest sample
//! that `compile_s` is made of, the tail rule
//! ("the highest percentile that has at least ten samples beyond it"),
//! and the worsening the agreement check uses.

/// Median of a sample (mean of the two middle values for even counts).
/// Returns 0 for an empty sample so an idle layer reads as zero work.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest sample (0 for an empty sample).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest sample (0 for an empty sample).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percent, value)`. With fewer than eleven samples no percentile
/// qualifies and the report falls back to the median and the maximum.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at_or_below = n - 10;
    Some((
        100.0 * at_or_below as f64 / n as f64,
        sorted[at_or_below - 1],
    ))
}

/// By how much `candidate` is worse than `base`, as a share of `base`
/// (negative when it is better). `higher_is_better` flips the direction.
pub fn worsening(base: f64, candidate: f64, higher_is_better: bool) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (candidate - base) / base.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!((max(&[3.0, 1.0, 2.0]), max(&[])), (3.0, 0.0));
        assert_eq!((fastest(&[3.0, 1.0, 2.0]), fastest(&[])), (1.0, 0.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "ten samples leave nothing below the tail");
        // Eleven samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        // A hundred samples: p90 is the highest with ten beyond it.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        // A thousand samples reach p99.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn worsening_respects_the_metric_direction() {
        assert!((worsening(10.0, 11.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 1.5, true) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }
}
