//! Summary statistics shared by every workload: the tail-percentile
//! rule, medians, the monotone goodput search and the backlog-growth
//! test the search applies to each trial rate.

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in a sample of `n` values.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // one rank up (99.9 / 100 is not exact in binary).
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Percentile `p` of an ascending sample, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[u64], p: f64) -> Result<u64, String> {
    let n = beyond(sorted.len(), p);
    if n < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has only {n} beyond it (need {MIN_BEYOND})",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

/// Median of host-measured values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Whether the queue grew across a window: the mean backlog of the last
/// third exceeds twice the first third's plus `slack`. A stable rate
/// fluctuates around a level; an overloaded one climbs steadily.
pub fn backlog_grows(samples: &[u64], slack: u64) -> bool {
    let third = samples.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let first = mean(&samples[..third]);
    let last = mean(&samples[samples.len() - third..]);
    last > 2.0 * first + slack as f64
}

/// Highest rate in `[lo, hi]` that `meets` accepts, by geometric
/// bisection over `steps` trials; assumes a rate that meets the limit
/// implies every lower rate does. `lo` must meet it; `hi` is returned
/// when it meets it too.
pub fn max_passing_rate(
    lo: f64,
    hi: f64,
    steps: u32,
    mut meets: impl FnMut(f64) -> Result<bool, String>,
) -> Result<f64, String> {
    if !meets(lo)? {
        return Err(format!("the lowest searched rate {lo} misses the limit"));
    }
    if meets(hi)? {
        return Ok(hi);
    }
    let (mut pass, mut fail) = (lo, hi);
    for _ in 0..steps {
        let mid = (pass * fail).sqrt();
        if meets(mid)? {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 10 000 samples: p99.9 is rank 9 999 of 10 000 → 10 beyond.
        assert_eq!(beyond(10_000, 99.9), 10);
        // One fewer sample leaves only 9 beyond p99.9.
        assert_eq!(beyond(9_999, 99.9), 9);
        // 128 container starts support p90 (12 beyond) but not p99.
        assert_eq!(beyond(128, 90.0), 12);
        assert_eq!(beyond(128, 99.0), 1);

        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&sorted, 99.0), Ok(990));
        assert!(tail(&sorted, 99.9).is_err());
        assert_eq!(percentile(&sorted, 50.0), 500);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn backlog_growth_rule() {
        let steady: Vec<u64> = (0..300).map(|i| 4 + (i % 7)).collect();
        assert!(!backlog_grows(&steady, 16));
        let climbing: Vec<u64> = (0..300).collect();
        assert!(backlog_grows(&climbing, 16));
    }

    #[test]
    fn goodput_search_is_monotone_and_tight() {
        let limit = 12_345.0;
        let mut trials = Vec::new();
        let got = max_passing_rate(1_000.0, 100_000.0, 12, |r| {
            trials.push(r);
            Ok(r <= limit)
        })
        .unwrap();
        assert!(got <= limit, "never reports a failing rate");
        assert!(got > limit * 0.99, "12 steps resolve within 1%: {got}");
        assert_eq!(trials.len(), 14, "lo, hi, then one trial per step");

        // A raised limit never lowers the answer.
        let higher = max_passing_rate(1_000.0, 100_000.0, 12, |r| Ok(r <= 2.0 * limit)).unwrap();
        assert!(higher >= got);
        // Every rate passing returns the top of the range.
        assert_eq!(max_passing_rate(1.0, 8.0, 3, |_| Ok(true)), Ok(8.0));
        // A failing floor is an error, not a zero goodput.
        assert!(max_passing_rate(1.0, 8.0, 3, |_| Ok(false)).is_err());
    }
}
