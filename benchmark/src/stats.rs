//! The arithmetic the report rests on: percentiles, spread, bound
//! evaluation, span closure, and open-loop due-time accounting.

use std::time::Duration as Wall;

/// Percentiles a timing may be reported at, per mille, lowest first.
const LADDER: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile on the ladder that still has at least ten samples
/// beyond it, or `None` below twenty samples (not even a median qualifies).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    LADDER.iter().rfind(|pm| samples as u64 * (1_000 - **pm) >= 10_000).map(|pm| *pm as f64 / 1e3)
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
///
/// # Panics
/// If `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are comparable"));
    values
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The quartiles `statistics.quantiles(values, n=4)` returns (Python's
/// default *exclusive* method), or `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the acceptance rule compares with a metric's bound. `None` below two
/// samples or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like.
    Higher,
    /// Latency- or cost-like.
    Lower,
}

/// The outcome of holding a change's runs against a base's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median beats the base's by more than the bound.
    Better,
    /// The medians differ by no more than the bound.
    Within,
    /// The change's median is worse than the base's by more than the bound.
    Worse,
    /// A set's own spread exceeds the bound, so a difference of that size
    /// cannot be told from noise — unless every run of one side beats every
    /// run of the other.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `change` median relative to `base` median, signed so that positive is
/// *worse* (slower, bigger, or lower throughput).
pub fn worsening(base: f64, change: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (change - base) / base.abs(),
        Better::Higher => (base - change) / base.abs(),
    }
}

/// Applies `bound` (a share of the base median) to two sets of runs.
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let worse_by = worsening(median(base), median(change), better);
    let noisy = [base, change].iter().any(|set| spread(set).is_some_and(|s| s > bound));
    if noisy {
        // Noise wider than the bound: only fully separated runs resolve.
        let ((base_lo, base_hi), (change_lo, change_hi)) = (range(base), range(change));
        let (all_better, all_worse) = match better {
            Better::Lower => (change_hi < base_lo, change_lo > base_hi),
            Better::Higher => (change_lo > base_hi, change_hi < base_lo),
        };
        return if all_better && worse_by < -bound {
            Verdict::Better
        } else if all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Smallest and largest value of a non-empty sample.
fn range(set: &[f64]) -> (f64, f64) {
    let v = sorted(set.to_vec());
    (v[0], v[v.len() - 1])
}

/// Share of the traced wall clock the top-level spans account for.
pub fn closure_frac(span_seconds: f64, wall_seconds: f64) -> f64 {
    if wall_seconds > 0.0 {
        span_seconds / wall_seconds
    } else {
        0.0
    }
}

/// Open-loop due-time accounting, in whole intervals: how many buckets
/// after bucket `index` were already due `elapsed` after the schedule
/// started. Bucket `i` is due at `(i + 1) * interval`.
pub fn backlog_after(index: u64, elapsed: Wall, interval: Wall) -> u64 {
    let due_count = (elapsed.as_nanos() / interval.as_nanos().max(1)) as u64;
    due_count.saturating_sub(index + 1)
}

/// Median of the per-segment rates when `per_bucket` `(units, seconds)`
/// pairs are cut into `segments` runs of consecutive buckets. Robust to a
/// transient stall in a way `sum / sum` is not; a change in per-unit cost
/// moves every segment and therefore the median.
pub fn median_segment_rate(per_bucket: &[(u64, f64)], segments: usize) -> f64 {
    let len = per_bucket.len().div_ceil(segments.max(1)).max(1);
    let rates: Vec<f64> = per_bucket
        .chunks(len)
        .filter_map(|chunk| {
            let units: u64 = chunk.iter().map(|(u, _)| u).sum();
            let seconds: f64 = chunk.iter().map(|(_, s)| s).sum();
            (seconds > 0.0 && units > 0).then(|| units as f64 / seconds)
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn bounds_are_applied_to_medians_in_the_right_direction() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [110.0, 111.0, 109.0, 110.0, 110.5];
        assert_eq!(judge(&base, &slower, Better::Lower, 0.07), Verdict::Worse);
        assert_eq!(judge(&base, &slower, Better::Higher, 0.07), Verdict::Better);
        assert_eq!(judge(&base, &slower, Better::Lower, 0.20), Verdict::Within);
        assert_eq!(judge(&base, &base, Better::Higher, 0.07), Verdict::Within);
        assert!((worsening(100.0, 93.0, Better::Higher) - 0.07).abs() < 1e-12);
    }

    #[test]
    fn a_noisy_set_is_unresolved_unless_the_runs_separate() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let similar = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(judge(&noisy, &similar, Better::Lower, 0.07), Verdict::Unresolved);
        let far = [200.0, 220.0, 240.0, 210.0, 230.0];
        assert_eq!(judge(&noisy, &far, Better::Lower, 0.07), Verdict::Worse);
        assert_eq!(judge(&far, &noisy, Better::Lower, 0.07), Verdict::Better);
    }

    #[test]
    fn closure_is_spans_over_wall() {
        assert_eq!(closure_frac(9.0, 10.0), 0.9);
        assert_eq!(closure_frac(1.0, 0.0), 0.0);
    }

    #[test]
    fn backlog_counts_buckets_already_due() {
        let interval = Wall::from_millis(10);
        // Bucket 0 is due at 10 ms; finishing at 15 ms leaves nothing due.
        assert_eq!(backlog_after(0, Wall::from_millis(15), interval), 0);
        // Finishing at 35 ms: buckets 1 and 2 (due at 20, 30 ms) wait.
        assert_eq!(backlog_after(0, Wall::from_millis(35), interval), 2);
        // A bucket finishing before its successor is due has no backlog.
        assert_eq!(backlog_after(4, Wall::from_millis(52), interval), 0);
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        let mut buckets = vec![(100u64, 0.001f64); 40];
        buckets[7].1 = 1.0; // one bucket stalls for a second
        let rate = median_segment_rate(&buckets, 8);
        assert!((rate - 100_000.0).abs() < 1e-6, "{rate}");
        let overall = 4_000.0 / (39.0 * 0.001 + 1.0);
        assert!(overall < 4_000.0, "the plain ratio is dominated by the stall");
    }
}
