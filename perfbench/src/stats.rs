//! Exact order statistics over client-side samples.
//!
//! Percentiles are read from the full sorted sample, never from a
//! bucketed histogram: a log-bucketed histogram can only answer with a
//! bucket midpoint, which is exactly the error this benchmark exists to
//! avoid.

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted sample by the
/// nearest-rank rule: the smallest value with at least `q·n` samples at
/// or below it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of an unsorted sample (mean of the two middle values for
/// an even count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Splits a time-ordered sample into `groups` consecutive runs and
/// returns the median of the runs' `stat`. A disturbance confined to a
/// few runs (a host stall, a burst of thread-spawn latency) moves only
/// their figures, not the result. Fewer samples than groups gives one
/// run per sample.
pub fn median_of_groups(
    values: &[f64],
    groups: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let groups = groups.clamp(1, values.len());
    let per = values.len() / groups;
    let stats: Vec<f64> = (0..groups)
        .map(|g| {
            let end = if g + 1 == groups {
                values.len()
            } else {
                (g + 1) * per
            };
            stat(&values[g * per..end])
        })
        .collect();
    median(&stats)
}

/// The arithmetic mean (`NaN` for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sorts a sample in place and returns it, for chained percentile reads.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// How many samples lie strictly above the `q`-quantile: the support a
/// reported percentile has. A percentile with fewer than ten samples
/// beyond it is reported, but flagged as thin.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    match percentile(sorted, q) {
        Some(p) => sorted.len() - sorted.partition_point(|&v| v <= p),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_a_sample_value_not_a_bucket_midpoint() {
        let s = sorted(vec![6.0, 6.1, 6.2, 9.0, 12.5]);
        assert_eq!(percentile(&s, 0.5), Some(6.2));
        assert_eq!(percentile(&s, 0.95), Some(12.5));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_groups_ignores_a_disturbed_group() {
        // Ten groups of ten; one group is ten times slower.
        let mut v = vec![1.0; 100];
        for x in &mut v[30..40] {
            *x = 10.0;
        }
        assert_eq!(median_of_groups(&v, 10, mean), Some(1.0));
        // The tail of each group, not of the pooled sample.
        let p90 = |g: &[f64]| percentile(&sorted(g.to_vec()), 0.9).unwrap_or(f64::NAN);
        assert_eq!(median_of_groups(&v, 10, p90), Some(1.0));
        assert_eq!(percentile(&sorted(v.clone()), 0.95), Some(10.0));
        // Fewer samples than groups: one group per sample; the last
        // group takes the remainder.
        assert_eq!(median_of_groups(&[3.0, 1.0, 2.0], 10, mean), Some(2.0));
        assert_eq!(median_of_groups(&[1.0, 1.0, 1.0, 7.0], 3, mean), Some(1.0));
        assert_eq!(median_of_groups(&[], 3, mean), None);
    }

    #[test]
    fn support_beyond_the_p99() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&s, 0.99), 10);
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(beyond(&small, 0.99), 0);
    }
}
