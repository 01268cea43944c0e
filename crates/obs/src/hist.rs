//! HDR-style log-linear histograms.
//!
//! Values (nanoseconds, depths, sizes — any `u64`) are binned into buckets
//! whose width grows with magnitude: values below 2^[`SUB_BITS`] get exact
//! unit buckets, and every further power-of-two range is split into
//! 2^[`SUB_BITS`] linear sub-buckets. With `SUB_BITS = 4` the relative
//! quantile error is bounded by 1/16 (6.25 %) while the whole table covers
//! the full `u64` range in [`BUCKET_COUNT`] (= 976) buckets — small enough
//! to keep one histogram per metric resident forever.
//!
//! Two flavors share the bucketing:
//!
//! * [`Histogram`] — atomic, registered in the global registry, safe to
//!   record into from any thread with relaxed ordering;
//! * [`LocalHistogram`] — plain `u64` buckets for per-worker recording on
//!   hot loops (no atomics at all), folded into a global [`Histogram`] at
//!   join time via [`Histogram::merge_local`] — the shape the sharded
//!   batch-ingest pipeline needs.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-bucket resolution: each power-of-two range splits into `2^SUB_BITS`
/// linear buckets.
pub const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the whole `u64` range.
pub const BUCKET_COUNT: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index for a value. Total order preserving: monotone in `v`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // SUB_BITS..=63
        let sub = ((v >> (e - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + (e - SUB_BITS) as usize * SUB + sub
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket) —
/// the value Prometheus histogram exposition uses as the `le` label, since
/// bucket values are integers and an inclusive integer bound is exactly a
/// `le` bound.
pub(crate) fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        bucket_lo(i + 1) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
pub(crate) fn bucket_lo(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let g = ((i - SUB) / SUB) as u32;
        let sub = ((i - SUB) % SUB) as u64;
        let e = g + SUB_BITS;
        (1u64 << e) + (sub << (e - SUB_BITS))
    }
}

/// Representative value reported for bucket `i` (its midpoint).
fn bucket_mid(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let lo = bucket_lo(i);
        let g = ((i - SUB) / SUB) as u32;
        let width = 1u64 << g; // 2^(e - SUB_BITS)
        lo + width / 2
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
}

impl HistSnapshot {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Quantile extraction shared by both flavors: one cumulative walk resolves
/// every quantile (the targets are nondecreasing), reporting each matched
/// bucket's midpoint clamped into the exact observed `[min, max]` envelope.
/// `buckets[0]` corresponds to absolute bucket index `first`, so callers can
/// pass just the touched range.
fn snapshot_from(
    buckets: &[u64],
    first: usize,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
) -> HistSnapshot {
    if count == 0 {
        return HistSnapshot::default();
    }
    let target = |q: f64| ((q * count as f64).ceil() as u64).clamp(1, count);
    let targets = [target(0.50), target(0.90), target(0.99), target(0.999)];
    let mut vals = [max; 4];
    let mut seen = 0u64;
    let mut k = 0usize;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        seen += c;
        while k < targets.len() && seen >= targets[k] {
            vals[k] = bucket_mid(first + i).clamp(min, max);
            k += 1;
        }
        if k == targets.len() {
            break;
        }
    }
    HistSnapshot {
        count,
        sum,
        min,
        max,
        p50: vals[0],
        p90: vals[1],
        p99: vals[2],
        p999: vals[3],
    }
}

/// Shared, lock-free histogram. All recording uses relaxed atomics; reads
/// ([`Histogram::snapshot`]) are racy-but-consistent-enough for reporting.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::ENABLED {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Record a duration as whole nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold a worker-private [`LocalHistogram`] in (batch-join time). Only
    /// walks the bucket range the worker actually hit.
    pub fn merge_local(&self, local: &LocalHistogram) {
        if !crate::ENABLED || local.count == 0 {
            return;
        }
        for i in local.lo..=local.hi {
            let c = local.buckets[i];
            if c != 0 {
                self.buckets[i].fetch_add(c, Relaxed);
            }
        }
        self.count.fetch_add(local.count, Relaxed);
        self.sum.fetch_add(local.sum, Relaxed);
        self.min.fetch_min(local.min, Relaxed);
        self.max.fetch_max(local.max, Relaxed);
    }

    /// Current summary (quantiles, extrema, mean inputs).
    pub fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Relaxed);
        if count == 0 {
            return HistSnapshot::default();
        }
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        snapshot_from(
            &buckets,
            0,
            count,
            self.sum.load(Relaxed),
            self.min.load(Relaxed),
            self.max.load(Relaxed),
        )
    }

    /// Touched buckets as `(le, cumulative_count)` pairs, `le` strictly
    /// increasing — the Prometheus `_bucket{le="..."}` series, minus the
    /// implicit trailing `+Inf` (which equals the total count). Only
    /// nonempty buckets are emitted; cumulative sums make the sparse form
    /// lossless for any `histogram_quantile` consumer.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Relaxed);
            if c != 0 {
                cum += c;
                out.push((bucket_hi(i), cum));
            }
        }
        out
    }
}

/// Worker-private histogram: identical bucketing, plain integers, no
/// atomics. Record on the hot loop, then fold into the shared histogram
/// once at join ([`Histogram::merge_local`]).
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Lowest/highest touched bucket index — bounds the merge walks so a
    /// per-batch fold costs O(buckets hit), not O(table size).
    lo: usize,
    hi: usize,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty local histogram.
    pub fn new() -> Self {
        LocalHistogram {
            // Compiled out: keep the allocation at zero too.
            buckets: if crate::ENABLED {
                vec![0; BUCKET_COUNT]
            } else {
                Vec::new()
            },
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            lo: BUCKET_COUNT,
            hi: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if !crate::ENABLED {
            return;
        }
        let i = bucket_index(v);
        self.buckets[i] += 1;
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration as whole nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold another local histogram in (tree-merging worker results).
    pub fn merge(&mut self, other: &LocalHistogram) {
        if !crate::ENABLED || other.count == 0 {
            return;
        }
        for i in other.lo..=other.hi {
            self.buckets[i] += other.buckets[i];
        }
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Forget every sample, keeping the allocation: a per-batch buffer is
    /// merged out and reused. Only walks the touched bucket range.
    pub fn clear(&mut self) {
        if self.count > 0 {
            self.buckets[self.lo..=self.hi].fill(0);
            (self.count, self.sum, self.min, self.max) = (0, 0, u64::MAX, 0);
            (self.lo, self.hi) = (BUCKET_COUNT, 0);
        }
    }

    /// Current summary. Only walks the touched bucket range.
    pub fn snapshot(&self) -> HistSnapshot {
        if self.count == 0 {
            return HistSnapshot::default();
        }
        snapshot_from(
            &self.buckets[self.lo..=self.hi],
            self.lo,
            self.count,
            self.sum,
            self.min,
            self.max,
        )
    }
}
