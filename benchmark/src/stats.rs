//! Order statistics over measured samples.

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a timing is reported at, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest rank of percentile `p` among `n` samples, in whole numbers so
/// that 99.9 % of 10 000 is rank 9 990 and not one above it.
fn rank_of(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000)
}

/// Nearest-rank percentile of an ascending slice (`0 < p <= 100`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_of(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// The highest percentile of the ladder that still has [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p75 has not.
pub fn upper_percentile(samples: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| samples >= rank_of(p, samples) + MIN_BEYOND)
}

/// Samples a stretch of a run needs for its own percentile.
const STRETCH_SAMPLES: usize = 100;

/// A percentile that one disturbed stretch of a run cannot move: the
/// samples, in the order they were taken, are cut into up to ten equal
/// stretches of at least [`STRETCH_SAMPLES`], and the median of the
/// stretches' percentiles is reported. With fewer than 200 samples this is
/// the plain percentile.
pub fn steady_percentile(in_time_order: &[f64], p: f64) -> f64 {
    if in_time_order.is_empty() {
        return 0.0;
    }
    let stretches = (in_time_order.len() / STRETCH_SAMPLES).clamp(1, 10);
    let each = in_time_order.len().div_ceil(stretches);
    let per_stretch: Vec<f64> = in_time_order
        .chunks(each)
        .map(|c| percentile(c, p))
        .collect();
    median(&per_stretch)
}

/// A timing as the guide asks for it: median and p90 (steady, see
/// [`steady_percentile`]), the highest percentile the whole sample supports
/// (0 when it supports none), and the sample count. `values` are in the
/// order they were taken.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub p50: f64,
    pub p90: f64,
    pub upper_p: f64,
    pub upper: f64,
    pub samples: usize,
}

pub fn timing(values: &[f64]) -> Timing {
    if values.is_empty() {
        return Timing::default();
    }
    let s = sorted(values);
    let upper_p = upper_percentile(s.len()).unwrap_or(0.0);
    Timing {
        p50: steady_percentile(values, 50.0),
        p90: steady_percentile(values, 90.0),
        upper_p,
        upper: if upper_p > 0.0 {
            percentile_sorted(&s, upper_p)
        } else {
            0.0
        },
        samples: s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_percentile_leaves_ten_samples_beyond() {
        assert_eq!(upper_percentile(39), None);
        assert_eq!(upper_percentile(40), Some(75.0));
        assert_eq!(upper_percentile(100), Some(90.0));
        // Atoms' ~280 updates: p95 leaves 14 beyond, p99 only 2.
        assert_eq!(upper_percentile(280), Some(95.0));
        assert_eq!(upper_percentile(999), Some(95.0));
        assert_eq!(upper_percentile(1000), Some(99.0));
        assert_eq!(upper_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn one_disturbed_stretch_does_not_move_a_steady_percentile() {
        // 1000 samples of 100, one stretch of which is all 5000.
        let mut v = vec![100.0; 1000];
        for x in &mut v[300..400] {
            *x = 5000.0;
        }
        assert_eq!(percentile(&v, 90.0), 100.0);
        for x in &mut v[400..420] {
            *x = 5000.0;
        }
        assert_eq!(percentile(&v, 90.0), 5000.0, "12 % of the run is slow");
        assert_eq!(
            steady_percentile(&v, 90.0),
            100.0,
            "but only two stretches of ten"
        );
        // Too few samples to cut up: the plain percentile.
        let few: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(steady_percentile(&few, 90.0), percentile(&few, 90.0));
        assert_eq!(steady_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
