//! Pieces every workload shares: the run's arguments, windowed rates, and
//! the repeated, timed set-up.

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::stats;

/// Arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Measured seconds (after the warm-up).
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_path: Option<std::path::PathBuf>,
}

/// Excluded from every measurement: caches fill, lazy indexes build, TCP
/// windows open.
pub fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.clamp(0.2, 1.0))
}

/// Length of one rate window.
pub fn window(seconds: f64) -> Duration {
    // Ten windows in a run, one second each at the standard length.
    Duration::from_secs_f64((seconds / 10.0).clamp(0.05, 1.0))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A rate from a cumulative counter read at window edges: the median
/// window, with the quartiles.
#[derive(Debug, Clone, Default)]
pub struct Rate {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub windows: usize,
    /// Counter increase over the whole measured interval, and its length.
    pub total: u64,
    pub elapsed_s: f64,
}

pub fn rate(edges: &[(Instant, u64)]) -> Rate {
    let per_s: Vec<f64> = edges
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0).as_secs_f64())
        .collect();
    let (Some(first), Some(last)) = (edges.first(), edges.last()) else {
        return Rate::default();
    };
    let (q1, median, q3) = match per_s.len() {
        0 => return Rate::default(),
        1 => (per_s[0], per_s[0], per_s[0]),
        _ => stats::quartiles(&per_s),
    };
    Rate {
        median,
        q1,
        q3,
        windows: per_s.len(),
        total: last.1 - first.1,
        elapsed_s: (last.0 - first.0).as_secs_f64(),
    }
}

impl Rate {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("windows", Json::Int(self.windows as i64)),
        ])
    }
}

pub fn timing_json(t: &stats::Timing) -> Json {
    Json::obj([
        ("p50", Json::Num(t.p50)),
        ("p90", Json::Num(t.p90)),
        ("upper_percentile", Json::Num(t.upper_p)),
        ("upper", Json::Num(t.upper)),
        ("samples", Json::Int(t.samples as i64)),
    ])
}

/// Set-ups in a run: `full` of them, or one in a smoke run too short to
/// support a claim anyway.
pub fn setup_reps(full: usize, seconds: f64) -> usize {
    if seconds < 2.0 {
        1
    } else {
        full
    }
}

/// Set up `reps` times and keep the last: returns it with the median
/// set-up time. `teardown` disposes of the earlier ones, untimed.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = kept.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up ran"),
        stats::median(&times),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_the_median_window() {
        let t0 = Instant::now();
        let s = Duration::from_secs(1);
        let edges = [(t0, 0), (t0 + s, 100), (t0 + 2 * s, 300), (t0 + 3 * s, 400)];
        let r = rate(&edges);
        assert_eq!(r.median, 100.0);
        assert_eq!((r.windows, r.total), (3, 400));
        assert!((r.elapsed_s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_setup_keeps_the_last() {
        let mut made = 0;
        let mut torn = Vec::new();
        let (kept, median) = repeated_setup(
            3,
            || {
                made += 1;
                made
            },
            |x| torn.push(x),
        );
        assert_eq!((kept, torn), (3, vec![1, 2]));
        assert!(median >= 0.0);
    }
}
