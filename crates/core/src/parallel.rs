//! Multi-threaded tag-report verification.
//!
//! The paper's server verifies ~5×10⁵ reports/s single-threaded and notes
//! that "we expect a higher throughput with multi-threading in the future"
//! (§6.4). Verification is embarrassingly parallel — Algorithm 3 only reads
//! the path table — so this module shards report batches across scoped
//! threads. The speedup is measured by the `fig13` experiment's parallel
//! variant and the `verify_report` bench.
//!
//! The fan-out creates and joins its threads per call (≈65 µs a thread),
//! so it pays only for batches of tens of thousands of reports: the
//! in-process callers — [`crate::VeriDpServer::ingest_batch`] with
//! `threads > 1`, the fig. 13 experiment, the benches. The wire path
//! (`veridp-net`) does not call it: its long-lived verify workers each take
//! a whole ~1 000-report batch and run the single-threaded fold here
//! (`threads = 1`, no spawn) through [`crate::ReaderHandle::verify_summary`].
//!
//! The `*_fast` variants run the same sharding through the verification
//! fast path (`crate::fastpath`): the immutable [`TagIndex`] is shared
//! across workers by reference, while every worker owns a **private**
//! [`VerdictCache`] and private hit/miss counters —
//! no shared mutable state on the hot path. Worker caches live inside the
//! [`VerifyFastPath`] and stay warm across batches; counters are folded
//! into the returned [`BatchSummary`] (and, by the server, into
//! [`crate::ServerStats`]) at join time.

use veridp_obs as obs;
use veridp_packet::TagReport;

use crate::backend::HeaderSetBackend;
use crate::fastpath::{FastPathStats, TagIndex, VerdictCache, VerifyFastPath};
use crate::path_table::PathTable;
use crate::verify::VerifyOutcome;

/// One report in [`LATENCY_SAMPLE`] gets a wall-clock measurement in the
/// summary pipelines. The fold loops iterate in chunks of this size and
/// time only each chunk's first report, so the remaining reports run the
/// same instructions as the obs-off build — no per-report branch at all.
const LATENCY_SAMPLE: usize = 128;

/// Verify a batch of reports across `threads` worker threads, preserving
/// input order in the output.
///
/// With `threads <= 1` (or a batch smaller than the thread count) this
/// degrades to the sequential path with no spawning overhead.
pub fn verify_batch<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    reports: &[TagReport],
    threads: usize,
) -> Vec<VerifyOutcome> {
    if threads <= 1 || reports.len() < threads * 2 {
        return reports.iter().map(|r| table.verify(r, hs)).collect();
    }
    let chunk = reports.len().div_ceil(threads);
    let mut out: Vec<Vec<VerifyOutcome>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = reports
            .chunks(chunk)
            .map(|slice| {
                s.spawn(move || {
                    slice
                        .iter()
                        .map(|r| table.verify(r, hs))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("verifier thread panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// Verify a batch and return only the aggregate counts.
///
/// Fast path for throughput measurement (the fig. 13 experiment): each
/// worker folds its shard into a [`BatchSummary`] as it verifies, so no
/// per-report verdict vector is allocated or concatenated.
pub fn verify_batch_summary<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    reports: &[TagReport],
    threads: usize,
) -> BatchSummary {
    fn fold<B: HeaderSetBackend>(
        table: &PathTable<B>,
        hs: &B,
        slice: &[TagReport],
    ) -> (BatchSummary, obs::LocalHistogram) {
        let mut s = BatchSummary::default();
        let mut lat = obs::LocalHistogram::new();
        let epoch = table.epoch();
        for chunk in slice.chunks(LATENCY_SAMPLE) {
            let mut it = chunk.iter();
            if let Some(r) = it.next() {
                let t0 = obs::ENABLED.then(obs::monotonic_ns);
                s.add(table.verify(r, hs));
                if let Some(t0) = t0 {
                    let now = obs::monotonic_ns();
                    lat.record(now.saturating_sub(t0));
                    crate::server::record_gap_at(r, epoch, now, &mut s.gap_detect);
                }
            }
            for r in it {
                s.add(table.verify(r, hs));
            }
        }
        (s, lat)
    }
    let (mut total, lat) = if threads <= 1 || reports.len() < threads * 2 {
        fold(table, hs, reports)
    } else {
        let chunk = reports.len().div_ceil(threads);
        let mut total = BatchSummary::default();
        let mut lat = obs::LocalHistogram::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = reports
                .chunks(chunk)
                .map(|slice| {
                    s.spawn(move || {
                        let _span = obs::histogram!("veridp_batch_worker_compute_ns").start_span();
                        fold(table, hs, slice)
                    })
                })
                .collect();
            for h in handles {
                let (shard, shard_lat) = h.join().expect("verifier thread panicked");
                total.merge(&shard);
                lat.merge(&shard_lat);
            }
        });
        (total, lat)
    };
    obs::histogram!("veridp_batch_verify_report_ns").merge_local(&lat);
    obs::histogram!("veridp_gap_detect_ns").merge_local(&total.gap_detect);
    if lat.count() > 0 {
        total.latency = Some(lat.snapshot());
    }
    total
}

/// One report through the fast path against a worker-private cache. Mirrors
/// [`VerifyFastPath::verify`] but with the cache and counters supplied by
/// the caller, so batch workers never touch shared mutable state.
fn verify_cached<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    index: &TagIndex,
    cache: &mut VerdictCache,
    stats: &mut FastPathStats,
    report: &TagReport,
) -> VerifyOutcome {
    if let Some(v) = cache.lookup(report, index) {
        stats.hits += 1;
        return v;
    }
    let v = table.verify_indexed(report, hs, index);
    cache.insert(report, index.epoch(), v);
    stats.misses += 1;
    v
}

/// [`verify_batch`] through the verification fast path: the fast path's
/// index is synced once, shared read-only across workers, and each worker
/// runs its shard against its own private verdict cache. Verdicts are
/// bit-identical to [`verify_batch`]; `fp` accumulates the hit/miss
/// counters.
pub fn verify_batch_fast<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    fp: &mut VerifyFastPath,
    reports: &[TagReport],
    threads: usize,
) -> Vec<VerifyOutcome> {
    fp.sync(table);
    if threads <= 1 || reports.len() < threads * 2 {
        return reports.iter().map(|r| fp.verify(table, hs, r)).collect();
    }
    let chunk = reports.len().div_ceil(threads);
    let workers = reports.len().div_ceil(chunk);
    let (index, caches) = fp.index_and_workers(workers);
    let mut out: Vec<Vec<VerifyOutcome>> = Vec::with_capacity(workers);
    let mut stats = FastPathStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = reports
            .chunks(chunk)
            .zip(caches.iter_mut())
            .map(|(slice, cache)| {
                s.spawn(move || {
                    let mut local = FastPathStats::default();
                    let verdicts: Vec<_> = slice
                        .iter()
                        .map(|r| verify_cached(table, hs, index, cache, &mut local, r))
                        .collect();
                    (verdicts, local)
                })
            })
            .collect();
        for h in handles {
            let (verdicts, local) = h.join().expect("verifier thread panicked");
            out.push(verdicts);
            stats.merge(&local);
        }
    });
    fp.record(&stats);
    out.into_iter().flatten().collect()
}

/// [`verify_batch_summary`] through the verification fast path: per-worker
/// private caches, per-worker counters, one fold at join. The summary's
/// verdict counts are identical to the plain variant's; `cache_hits` /
/// `cache_misses` carry the fast-path counters (also accumulated into
/// `fp`).
pub fn verify_batch_summary_fast<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    fp: &mut VerifyFastPath,
    reports: &[TagReport],
    threads: usize,
) -> BatchSummary {
    fp.sync(table);
    let total = if threads <= 1 || reports.len() < threads * 2 {
        let (index, caches) = fp.index_and_workers(1);
        run_indexed(table, hs, index, caches, reports, threads)
    } else {
        let chunk = reports.len().div_ceil(threads);
        let workers = reports.len().div_ceil(chunk);
        let (index, caches) = fp.index_and_workers(workers);
        run_indexed(table, hs, index, caches, reports, threads)
    };
    fp.record(&FastPathStats {
        hits: total.cache_hits as u64,
        misses: total.cache_misses as u64,
    });
    total
}

/// One worker's shard through the indexed fast path (private cache, private
/// counters, sampled latency). Shared by the fast-path and snapshot-pinned
/// batch entry points.
fn fold_indexed<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    index: &TagIndex,
    cache: &mut VerdictCache,
    slice: &[TagReport],
) -> (BatchSummary, obs::LocalHistogram) {
    let mut s = BatchSummary::default();
    let mut stats = FastPathStats::default();
    let mut lat = obs::LocalHistogram::new();
    let epoch = table.epoch();
    for chunk in slice.chunks(LATENCY_SAMPLE) {
        let mut it = chunk.iter();
        if let Some(r) = it.next() {
            let t0 = obs::ENABLED.then(obs::monotonic_ns);
            s.add(verify_cached(table, hs, index, cache, &mut stats, r));
            if let Some(t0) = t0 {
                let now = obs::monotonic_ns();
                lat.record(now.saturating_sub(t0));
                crate::server::record_gap_at(r, epoch, now, &mut s.gap_detect);
            }
        }
        for r in it {
            s.add(verify_cached(table, hs, index, cache, &mut stats, r));
        }
    }
    s.cache_hits = stats.hits as usize;
    s.cache_misses = stats.misses as usize;
    (s, lat)
}

/// The sharded indexed pipeline over caller-supplied worker caches: the
/// common machinery of [`verify_batch_summary_fast`] and
/// [`verify_batch_summary_indexed`]. `caches` must hold one cache per
/// worker the thread split produces.
fn run_indexed<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    index: &TagIndex,
    caches: &mut [VerdictCache],
    reports: &[TagReport],
    threads: usize,
) -> BatchSummary {
    let (mut total, lat) = if threads <= 1 || reports.len() < threads * 2 {
        fold_indexed(table, hs, index, &mut caches[0], reports)
    } else {
        let chunk = reports.len().div_ceil(threads);
        let mut total = BatchSummary::default();
        let mut lat = obs::LocalHistogram::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = reports
                .chunks(chunk)
                .zip(caches.iter_mut())
                .map(|(slice, cache)| {
                    s.spawn(move || {
                        let _span = obs::histogram!("veridp_batch_worker_compute_ns").start_span();
                        fold_indexed(table, hs, index, cache, slice)
                    })
                })
                .collect();
            for h in handles {
                let (shard, shard_lat) = h.join().expect("verifier thread panicked");
                total.merge(&shard);
                lat.merge(&shard_lat);
            }
        });
        (total, lat)
    };
    obs::histogram!("veridp_batch_verify_report_ns").merge_local(&lat);
    obs::histogram!("veridp_gap_detect_ns").merge_local(&total.gap_detect);
    if lat.count() > 0 {
        total.latency = Some(lat.snapshot());
    }
    total
}

/// [`verify_batch_summary_fast`] against an externally-owned [`TagIndex`]
/// and worker caches, with no [`VerifyFastPath`] in the loop — the shape
/// the snapshot readers (`crate::snapshot`) need: the index belongs to the
/// pinned table version, the caches to the reader handle, and nothing is
/// shared with the writer. `caches` grows on demand and persists across
/// calls (epoch keying invalidates stale verdicts lazily).
///
/// # Panics
/// Panics (inside [`PathTable::verify_indexed`]) if `index` was not built
/// against `table`'s current epoch.
pub fn verify_batch_summary_indexed<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    index: &TagIndex,
    caches: &mut Vec<VerdictCache>,
    reports: &[TagReport],
    threads: usize,
) -> BatchSummary {
    let workers = if threads <= 1 || reports.len() < threads * 2 {
        1
    } else {
        reports.len().div_ceil(reports.len().div_ceil(threads))
    };
    if caches.len() < workers {
        caches.resize_with(workers, VerdictCache::new);
    }
    run_indexed(table, hs, index, &mut caches[..workers], reports, threads)
}

/// Aggregate verdict counts from a batch, in the same shape as
/// [`crate::ServerStats`].
#[derive(Debug, Clone, Default)]
pub struct BatchSummary {
    pub total: usize,
    pub passed: usize,
    pub tag_mismatch: usize,
    pub no_matching_path: usize,
    /// Verdicts served from worker verdict caches (fast-path batches only;
    /// zero on the plain scan variants).
    pub cache_hits: usize,
    /// Verdicts computed via index probe or scan.
    pub cache_misses: usize,
    /// Sampled per-report verify latency (nanoseconds), folded from the
    /// workers' private histograms at join. `None` when instrumentation is
    /// compiled out (`obs-off`) or the batch went through a non-summary
    /// entry point. Excluded from equality: two runs with identical
    /// verdicts compare equal regardless of timing.
    pub latency: Option<veridp_obs::HistSnapshot>,
    /// End-to-end gap-detection latency (origin stamp → verdict) for
    /// origin-stamped reports, recorded inside the worker folds while the
    /// report is still cache-hot and on the same 1-in-`LATENCY_SAMPLE`
    /// rhythm as `latency` — the batch pipeline keeps its hot loop free of
    /// per-report instrumentation, so this histogram is a sample of the
    /// batch, not a census (the per-report robust/wire ingest paths record
    /// every stamped report). Empty for unstamped batches and under
    /// `obs-off`; excluded from equality like `latency`.
    pub gap_detect: veridp_obs::LocalHistogram,
}

impl PartialEq for BatchSummary {
    fn eq(&self, other: &Self) -> bool {
        (
            self.total,
            self.passed,
            self.tag_mismatch,
            self.no_matching_path,
            self.cache_hits,
            self.cache_misses,
        ) == (
            other.total,
            other.passed,
            other.tag_mismatch,
            other.no_matching_path,
            other.cache_hits,
            other.cache_misses,
        )
    }
}

impl Eq for BatchSummary {}

impl BatchSummary {
    /// Summarize a verdict list.
    pub fn from_outcomes(outcomes: &[VerifyOutcome]) -> Self {
        let mut s = BatchSummary {
            total: outcomes.len(),
            ..Default::default()
        };
        for o in outcomes {
            match o {
                VerifyOutcome::Pass => s.passed += 1,
                VerifyOutcome::TagMismatch => s.tag_mismatch += 1,
                VerifyOutcome::NoMatchingPath => s.no_matching_path += 1,
            }
        }
        s
    }

    /// Count one verdict.
    pub fn add(&mut self, o: VerifyOutcome) {
        self.total += 1;
        match o {
            VerifyOutcome::Pass => self.passed += 1,
            VerifyOutcome::TagMismatch => self.tag_mismatch += 1,
            VerifyOutcome::NoMatchingPath => self.no_matching_path += 1,
        }
    }

    /// Fold another summary (e.g. one worker's shard) into this one. The
    /// counts and the worker gap histograms merge; `latency` snapshots are
    /// not mergeable (the entry points attach one from the still-mergeable
    /// worker histograms before returning), so `self.latency` is left
    /// as-is.
    pub fn merge(&mut self, other: &BatchSummary) {
        self.total += other.total;
        self.passed += other.passed;
        self.tag_mismatch += other.tag_mismatch;
        self.no_matching_path += other.no_matching_path;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.gap_detect.merge(&other.gap_detect);
    }

    /// The verdict counts alone — equal between the plain and fast-path
    /// pipelines, while the cache counters are fast-path-only by design.
    pub fn verdict_counts(&self) -> (usize, usize, usize, usize) {
        (
            self.total,
            self.passed,
            self.tag_mismatch,
            self.no_matching_path,
        )
    }

    /// Failed verifications.
    pub fn failed(&self) -> usize {
        self.tag_mismatch + self.no_matching_path
    }
}
