//! Order statistics over repeat timings and span durations.

/// Smallest sample — the "best of the repeats" for a lower-is-better
/// time. Noise on a shared box only ever adds time, so the minimum is
/// the steadiest estimate of what the code costs.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample — the best repeat of a higher-is-better rate.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median (mean of the two middle samples for an even count); 0 for an
/// empty sample, which per-layer reporting reads as "layer not reached".
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// A tail percentile and the sample that supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in percent (99, 90 or 50).
    pub percentile: u32,
    /// Its nearest-rank value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The highest of p99 / p90 / p50 that has at least
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it, by nearest rank. A p99 of
/// 200 samples is the second-largest value and says nothing about the
/// tail, so small samples fall back to p90 and then the median.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let percentile = [99u32, 90]
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= TAIL_SAMPLES_BEYOND)
        .unwrap_or(50);
    let rank = (n * percentile as usize).div_ceil(100).max(1);
    Some(Tail {
        percentile,
        value: v[rank - 1],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_picks_the_right_end() {
        let xs = [2.5, 1.5, 9.0, 1.75];
        assert_eq!(min(&xs), 1.5);
        assert_eq!(max(&xs), 9.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: exactly ten lie beyond the 990th.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.n), (99, 990.0, 1000));
        // 999 samples: only nine beyond p99, so p90 is the honest tail.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 900.0);
        // 100 samples support p90 exactly; 99 do not.
        assert_eq!(tail(&ramp(100)).unwrap().percentile, 90);
        let t = tail(&ramp(99)).unwrap();
        assert_eq!((t.percentile, t.value), (50, 50.0));
        assert_eq!(tail(&[]), None);
    }
}
