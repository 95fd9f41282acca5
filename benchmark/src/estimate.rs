//! The estimators every reported number goes through.
//!
//! The sandbox class this benchmark runs on is not quiet (see README.md,
//! "host-noise findings"). Rates go through [`steady_rate`], repeated
//! timings of the same work through [`steady_duration`]; medians and
//! nearest-rank percentiles are written beside them so tails stay
//! visible.

/// The rate a timed section reports: the mean of the fastest tenth (at
/// least one) of its per-rep rates — the largest values. Under a slow
/// spell of the host the median of reps drops by a fifth; the fastest
/// tenth holds as long as a tenth of the run was quiet (README.md,
/// "host-noise findings"). `None` on an empty slice.
pub fn steady_rate(rates: &[f64]) -> Option<f64> {
    if rates.is_empty() {
        return None;
    }
    let mut v = rates.to_vec();
    v.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
    let k = (v.len() / 10).max(1);
    Some(v[..k].iter().sum::<f64>() / k as f64)
}

/// The duration repeated timings of the same work report — the set-ups
/// of a run, the passes over one epoch: their lower tercile by nearest
/// rank (the 2nd fastest of 4 to 6, the 17th of 50). The host's noise
/// is two-sided — slow spells that last seconds, and rarer fast ones —
/// so the fastest timing follows the fast spells and the median the
/// slow ones; the lower tercile ignores one fast outlier and a slow
/// majority.
///
/// # Panics
/// Panics on an empty slice.
pub fn steady_duration(durations: &[f64]) -> f64 {
    let mut v = durations.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    nearest_rank(&v, 1.0 / 3.0)
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle elements for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median`: the relative range `repeat.sh` holds against
/// each end-to-end metric's bound. 0 when the median is 0.
pub fn relative_range(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / m.abs()
}

/// `(Q3 − Q1) / median`, quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method): the spread the driver holds against each metric's bound.
/// 0 for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let quartile = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_rate_takes_the_best_decile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // 20 reps → the fastest two.
        assert_eq!(steady_rate(&v), Some(19.5));
        // Fewer than ten reps still yields the single fastest one.
        assert_eq!(steady_rate(&[3.0, 1.0, 2.0]), Some(3.0));
        assert_eq!(steady_rate(&[]), None);
    }

    #[test]
    fn steady_rate_ignores_slowed_reps() {
        let mut v = vec![10.0; 30];
        for slow in v.iter_mut().skip(3) {
            *slow = 7.0;
        }
        assert_eq!(steady_rate(&v), Some(10.0));
    }

    #[test]
    fn steady_duration_is_the_lower_tercile() {
        // One fast outlier and a slow majority: the 2nd fastest of 4.
        assert_eq!(steady_duration(&[2.6, 2.1, 3.3, 3.2]), 2.6);
        assert_eq!(steady_duration(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]), 2.0);
        assert_eq!(steady_duration(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(steady_duration(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 0.999), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&[7u64], 0.5), 7);
        // Five samples: p50 is the 3rd, p90 the 5th.
        assert_eq!(nearest_rank(&[1, 2, 3, 4, 5], 0.5), 3);
        assert_eq!(nearest_rank(&[1, 2, 3, 4, 5], 0.9), 5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((quartile_spread(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert!((quartile_spread(&[10.0, 20.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn median_and_relative_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((relative_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(relative_range(&[5.0, 5.0]), 0.0);
        assert_eq!(relative_range(&[0.0, 0.0]), 0.0);
    }
}
