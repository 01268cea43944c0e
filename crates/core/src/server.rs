//! The VeriDP server (§3.2, §3.4).
//!
//! Sits alongside the controller, intercepts the OpenFlow message stream to
//! keep its path table synchronized with the *intended* configuration, and
//! verifies tag reports arriving from exit switches. On verification failure
//! it runs fault localization and accumulates statistics.

use std::collections::{HashMap, VecDeque};

use veridp_obs as obs;
use veridp_packet::{SwitchId, TagReport};
use veridp_switch::OfMessage;
use veridp_topo::Topology;

use crate::backend::HeaderSetBackend;
use crate::fastpath::VerifyFastPath;
use crate::headerspace::HeaderSpace;
use crate::localize::LocalizeOutcome;
use crate::parallel::BatchSummary;
use crate::path_table::PathTable;
use crate::robust::{Disposition, RobustConfig, RobustState};
use crate::snapshot::{ReaderHandle, RuleUpdate, SnapshotPublisher, SnapshotStats};
use crate::verify::VerifyOutcome;

/// The server's snapshot publication layer ([`crate::snapshot`]), when
/// enabled: the publisher kept in lock-step with the master table, plus the
/// server's own reader handle so the ingest paths pin a version per
/// batch/report instead of reading the master directly.
struct SnapshotLayer<B: HeaderSetBackend> {
    publisher: SnapshotPublisher<B>,
    reader: ReaderHandle<B>,
}

impl<B: HeaderSetBackend> SnapshotLayer<B> {
    fn new(table: &PathTable<B>, hs: &B, build_index: bool) -> Self {
        let publisher = SnapshotPublisher::new(table, hs, build_index);
        let reader = publisher.reader();
        SnapshotLayer { publisher, reader }
    }
}

/// Running verification statistics.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    pub reports: u64,
    pub passed: u64,
    pub tag_mismatch: u64,
    pub no_matching_path: u64,
    /// Localizations attempted / with at least one candidate path.
    pub localizations: u64,
    pub localized: u64,
    /// Verdicts answered from the fast path's verdict cache. Both cache
    /// counters stay zero while the fast path is disabled.
    pub cache_hits: u64,
    /// Verdicts that missed the cache and were computed against the path
    /// table (via the tag index).
    pub cache_misses: u64,
    /// Reports dropped by the robust ingest's duplicate filter (not counted
    /// in `reports`). All four robust counters stay zero outside robust
    /// ingest ([`VeriDpServer::ingest_robust`]).
    pub duplicates: u64,
    /// Failing reports converted to a Pass by epoch grace (included in
    /// `passed`).
    pub graced: u64,
    /// Reports that entered the quarantine queue (counted into the verdict
    /// totals only once resolved at [`VeriDpServer::settle`] or shed).
    pub quarantined: u64,
    /// Quarantined reports resolved early by overflow shedding.
    pub shed: u64,
    /// Per-run end-to-end gap-detection latency (origin stamp → verdict),
    /// recorded only for origin-stamped reports (wire v2 frames). A local
    /// histogram rather than the global `veridp_gap_detect_ns` alone so each
    /// run/shard owns an isolated distribution (the global registry is
    /// process-wide and shared across concurrent pipelines). Excluded from
    /// equality: two runs with identical verdict counts compare equal even
    /// though their latencies never will.
    pub gap_detect: obs::LocalHistogram,
}

/// Equality over the verdict/accounting counters only; the latency
/// histogram is observability payload, not identity (and timestamps are
/// never bit-reproducible across runs).
impl PartialEq for ServerStats {
    fn eq(&self, other: &Self) -> bool {
        self.reports == other.reports
            && self.passed == other.passed
            && self.tag_mismatch == other.tag_mismatch
            && self.no_matching_path == other.no_matching_path
            && self.localizations == other.localizations
            && self.localized == other.localized
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.duplicates == other.duplicates
            && self.graced == other.graced
            && self.quarantined == other.quarantined
            && self.shed == other.shed
    }
}

impl Eq for ServerStats {}

impl ServerStats {
    /// Failed verifications.
    pub fn failed(&self) -> u64 {
        self.tag_mismatch + self.no_matching_path
    }

    /// Fold another stats block into this one, field-wise. This is the one
    /// place stats aggregation is defined: batch ingest folds worker
    /// summaries through it, and it is associative — merging shards in any
    /// grouping yields the same totals (the unit suite asserts it).
    pub fn merge(&mut self, other: &ServerStats) {
        self.reports += other.reports;
        self.passed += other.passed;
        self.tag_mismatch += other.tag_mismatch;
        self.no_matching_path += other.no_matching_path;
        self.localizations += other.localizations;
        self.localized += other.localized;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.duplicates += other.duplicates;
        self.graced += other.graced;
        self.quarantined += other.quarantined;
        self.shed += other.shed;
        self.gap_detect.merge(&other.gap_detect);
    }

    /// The verdict/localization counters alone, excluding the cache
    /// counters: a fast-path server and a plain server processing the same
    /// report stream must agree exactly on these (the differential suite
    /// asserts it), while their cache counters differ by design.
    pub fn verdict_counts(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.reports,
            self.passed,
            self.tag_mismatch,
            self.no_matching_path,
            self.localizations,
            self.localized,
        )
    }

    /// Fraction of verdicts served from the verdict cache.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl From<&BatchSummary> for ServerStats {
    /// A batch summary viewed as a stats block (no localization runs in the
    /// batch pipeline, so those counters are zero), ready for
    /// [`ServerStats::merge`].
    fn from(s: &BatchSummary) -> Self {
        ServerStats {
            reports: s.total as u64,
            passed: s.passed as u64,
            tag_mismatch: s.tag_mismatch as u64,
            no_matching_path: s.no_matching_path as u64,
            localizations: 0,
            localized: 0,
            cache_hits: s.cache_hits as u64,
            cache_misses: s.cache_misses as u64,
            gap_detect: s.gap_detect.clone(),
            ..ServerStats::default()
        }
    }
}

/// The verification server.
///
/// Owns the header-set backend, the path table, and the statistics.
/// Construction takes the controller's logical rules; afterwards the server
/// stays in sync by watching the same FlowMods the switches receive
/// ([`VeriDpServer::intercept`]). Generic over the header-set backend, with
/// the BDD [`HeaderSpace`] as the default.
pub struct VeriDpServer<B: HeaderSetBackend = HeaderSpace> {
    hs: B,
    table: PathTable<B>,
    /// The verification fast path (tag index + verdict cache), when enabled
    /// via [`VeriDpServer::set_fastpath`]. Verdicts are identical either
    /// way; only throughput differs.
    fastpath: Option<VerifyFastPath>,
    /// Robust ingest state (dedup + quarantine + confirmed alarms), when
    /// enabled via [`VeriDpServer::set_robust`].
    robust: Option<RobustState>,
    /// RCU-style snapshot publication ([`crate::snapshot`]), when enabled
    /// via [`VeriDpServer::set_snapshots`]: every intercepted rule change is
    /// recorded and republished, and the verify paths pin a version per
    /// batch/report — identical verdicts (the published epoch always equals
    /// the master's), but external reader threads run wait-free under churn.
    snapshots: Option<SnapshotLayer<B>>,
    stats: ServerStats,
    /// Count of localization candidates per switch, for operator dashboards.
    suspects: HashMap<SwitchId, u64>,
}

impl VeriDpServer<HeaderSpace> {
    /// Build the server from a topology and per-switch logical rules, on
    /// the default BDD backend. (Use [`VeriDpServer::with_backend`] to pick
    /// a different header-set representation.)
    pub fn new(
        topo: &Topology,
        rules: &HashMap<SwitchId, Vec<veridp_switch::FlowRule>>,
        tag_bits: u32,
    ) -> Self {
        Self::with_backend(HeaderSpace::new(), topo, rules, tag_bits)
    }

    /// Like [`VeriDpServer::new`], but constructing the path table with the
    /// sharded parallel build on `threads` workers (semantically identical
    /// to the sequential build; see [`PathTable::build_parallel`]).
    pub fn new_parallel(
        topo: &Topology,
        rules: &HashMap<SwitchId, Vec<veridp_switch::FlowRule>>,
        tag_bits: u32,
        threads: usize,
    ) -> Self {
        Self::with_backend_parallel(HeaderSpace::new(), topo, rules, tag_bits, threads)
    }

    /// Build directly from a controller's current state.
    pub fn from_controller(ctrl: &veridp_controller::Controller, tag_bits: u32) -> Self {
        let rules: HashMap<SwitchId, Vec<veridp_switch::FlowRule>> = ctrl
            .logical_rules()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        Self::new(ctrl.topo(), &rules, tag_bits)
    }
}

impl<B: HeaderSetBackend> VeriDpServer<B> {
    /// Build the server on an explicit backend instance (`--backend atoms`
    /// wiring goes through here).
    pub fn with_backend(
        mut hs: B,
        topo: &Topology,
        rules: &HashMap<SwitchId, Vec<veridp_switch::FlowRule>>,
        tag_bits: u32,
    ) -> Self {
        let table = PathTable::build(topo, rules, &mut hs, tag_bits);
        VeriDpServer {
            hs,
            table,
            fastpath: None,
            robust: None,
            snapshots: None,
            stats: ServerStats::default(),
            suspects: HashMap::new(),
        }
    }

    /// [`VeriDpServer::with_backend`] with the sharded parallel build.
    pub fn with_backend_parallel(
        mut hs: B,
        topo: &Topology,
        rules: &HashMap<SwitchId, Vec<veridp_switch::FlowRule>>,
        tag_bits: u32,
        threads: usize,
    ) -> Self {
        let table = PathTable::build_parallel(topo, rules, &mut hs, tag_bits, threads);
        VeriDpServer {
            hs,
            table,
            fastpath: None,
            robust: None,
            snapshots: None,
            stats: ServerStats::default(),
            suspects: HashMap::new(),
        }
    }

    /// The path table.
    pub fn table(&self) -> &PathTable<B> {
        &self.table
    }

    /// The header-set backend.
    pub fn header_space(&self) -> &B {
        &self.hs
    }

    /// Mutable backend (witness generation for experiments).
    pub fn header_space_mut(&mut self) -> &mut B {
        &mut self.hs
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Mirror the running [`ServerStats`] into the global obs registry.
    ///
    /// The plain `u64` fields stay the source of truth; this publishes them
    /// as absolute values with relaxed stores ([`obs::Counter::store`]) —
    /// far cheaper than atomic increments on the per-report hot path. Called
    /// automatically whenever the running report count crosses a
    /// 1024-report boundary (single reports and batches alike); call it
    /// manually before snapshotting if exact up-to-the-report counts
    /// matter.
    pub fn publish_obs(&self) {
        publish_stats_obs(&self.stats, self.suspects.len());
    }

    /// Enable or disable the verification fast path. Enabling builds the
    /// tag index lazily on the next verification; disabling drops the index
    /// and all cached verdicts. Verdicts, localization, and every
    /// non-cache statistic are identical in both modes.
    pub fn set_fastpath(&mut self, on: bool) {
        match (on, &self.fastpath) {
            (true, None) => self.fastpath = Some(VerifyFastPath::new()),
            (false, Some(_)) => self.fastpath = None,
            _ => {}
        }
    }

    /// Whether the verification fast path is enabled.
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath.is_some()
    }

    /// Suspect counts per switch accumulated by localization.
    pub fn suspects(&self) -> &HashMap<SwitchId, u64> {
        &self.suspects
    }

    /// Watch one controller→switch message and update the path table
    /// incrementally (§4.4). Barriers are ignored. With snapshots enabled
    /// the update is also recorded and a fresh version published, so pinned
    /// readers converge within one atomic load.
    pub fn intercept(&mut self, switch: SwitchId, msg: &OfMessage) {
        let upd = match msg {
            OfMessage::FlowAdd(rule) => RuleUpdate::Add(switch, *rule),
            OfMessage::FlowDelete(id) => RuleUpdate::Delete(switch, *id),
            OfMessage::FlowModify(id, action) => RuleUpdate::Modify(switch, *id, *action),
            OfMessage::Barrier(_) => return,
        };
        self.table.apply(upd, &mut self.hs);
        if let Some(layer) = &mut self.snapshots {
            layer.publisher.record(upd);
            layer.publisher.publish(&self.table, &self.hs);
        }
    }

    /// Enable or disable RCU-style snapshot publication ([`crate::snapshot`]).
    ///
    /// Enabling publishes a first version (a deep copy of the current table)
    /// and from then on keeps the published snapshot in lock-step with every
    /// intercepted rule change; the ingest paths pin a version per
    /// batch/report, and [`VeriDpServer::snapshot_reader`] hands out
    /// wait-free reader handles for external verify threads. Verdicts and
    /// statistics are identical with snapshots on or off (the differential
    /// suite asserts it). Published versions carry a tag index iff the fast
    /// path is enabled at the time of this call.
    pub fn set_snapshots(&mut self, on: bool) {
        match (on, &self.snapshots) {
            (true, None) => {
                self.snapshots = Some(SnapshotLayer::new(
                    &self.table,
                    &self.hs,
                    self.fastpath.is_some(),
                ))
            }
            (false, Some(_)) => self.snapshots = None,
            _ => {}
        }
    }

    /// Whether snapshot publication is enabled.
    pub fn snapshots_enabled(&self) -> bool {
        self.snapshots.is_some()
    }

    /// A wait-free reader handle onto the published snapshots, for verify
    /// threads that must keep running while this server applies churn.
    /// `None` while snapshots are disabled, or when every reader slot of the
    /// snapshot layer is taken (64 per table, one of them the server's own).
    pub fn snapshot_reader(&self) -> Option<ReaderHandle<B>> {
        self.snapshots.as_ref()?.publisher.try_reader()
    }

    /// Publication counters of the snapshot layer (`None` while disabled).
    pub fn snapshot_stats(&self) -> Option<&SnapshotStats> {
        self.snapshots.as_ref().map(|l| l.publisher.stats())
    }

    /// Raw Algorithm-3 verdict (fast path when enabled, cache counters
    /// updated) without touching the verdict statistics. With snapshots
    /// enabled the verdict is computed against a pinned published version —
    /// identical outcome, since publication tracks every intercept.
    #[inline]
    fn raw_verify(&mut self, report: &TagReport) -> VerifyOutcome {
        let VeriDpServer {
            hs,
            table,
            fastpath,
            stats,
            snapshots,
            ..
        } = self;
        match snapshots {
            Some(layer) => {
                let guard = layer.reader.pin();
                Self::verdict_at(fastpath, stats, guard.table(), guard.backend(), report)
            }
            None => Self::verdict_at(fastpath, stats, table, hs, report),
        }
    }

    /// One Algorithm-3 verdict against an explicit (table, backend) view —
    /// the master or a pinned snapshot — folding cache-hit counters.
    #[inline]
    fn verdict_at(
        fastpath: &mut Option<VerifyFastPath>,
        stats: &mut ServerStats,
        table: &PathTable<B>,
        hs: &B,
        report: &TagReport,
    ) -> VerifyOutcome {
        match fastpath {
            Some(fp) => {
                let (outcome, hit) = fp.verify_flagged(table, hs, report);
                if hit {
                    stats.cache_hits += 1;
                } else {
                    stats.cache_misses += 1;
                }
                outcome
            }
            None => table.verify(report, hs),
        }
    }

    /// Fold one final verdict into the statistics (with the periodic obs
    /// publish rhythm).
    #[inline]
    fn count_verdict(&mut self, report: &TagReport, outcome: VerifyOutcome) {
        let epoch = self.table.epoch();
        record_verdict_obs(report, epoch, &mut self.stats.gap_detect);
        self.stats.reports += 1;
        match outcome {
            VerifyOutcome::Pass => self.stats.passed += 1,
            VerifyOutcome::TagMismatch => self.stats.tag_mismatch += 1,
            VerifyOutcome::NoMatchingPath => self.stats.no_matching_path += 1,
        }
        // Periodic pull-model publish: one branch per report, the stores
        // amortized over 1024 verdicts.
        if obs::ENABLED && self.stats.reports & 1023 == 0 {
            self.publish_obs();
        }
    }

    /// Verify one tag report (Algorithm 3), updating statistics. Routed
    /// through the fast path when enabled; the verdict is identical either
    /// way.
    pub fn verify(&mut self, report: &TagReport) -> VerifyOutcome {
        let outcome = self.raw_verify(report);
        self.count_verdict(report, outcome);
        outcome
    }

    /// Verify a whole batch of reports across `threads` workers and fold
    /// the counts into the server statistics — the high-throughput ingest
    /// entry point (no per-report localization; failing flows surface via
    /// the summary counts). Uses the sharded fast-path pipeline when the
    /// fast path is enabled, with one private verdict cache per worker.
    pub fn ingest_batch(&mut self, reports: &[TagReport], threads: usize) -> BatchSummary {
        let VeriDpServer {
            hs,
            table,
            fastpath,
            snapshots,
            ..
        } = self;
        let summary = match snapshots {
            Some(layer) => {
                // One pin for the whole batch: the workers read an immutable
                // version while the writer stays free to publish successors.
                let guard = layer.reader.pin();
                obs::gauge!("veridp_snapshot_age")
                    .set(table.epoch().saturating_sub(guard.table().epoch()) as i64);
                Self::batch_at(fastpath, guard.table(), guard.backend(), reports, threads)
            }
            None => Self::batch_at(fastpath, table, hs, reports, threads),
        };
        let before = self.stats.reports;
        // The workers sampled detection latency for stamped reports into
        // `summary.gap_detect` (while each report was still cache-hot);
        // the merge folds the samples into `stats.gap_detect`.
        self.stats.merge(&ServerStats::from(&summary));
        // Same 1024-report publish rhythm as single-report verify(): mirror
        // the stats whenever this batch crossed a 1024 boundary, so small
        // hot batches don't pay the store fan-out every time.
        if obs::ENABLED && before >> 10 != self.stats.reports >> 10 {
            self.publish_obs();
        }
        summary
    }

    /// One batch summary against an explicit (table, backend) view.
    fn batch_at(
        fastpath: &mut Option<VerifyFastPath>,
        table: &PathTable<B>,
        hs: &B,
        reports: &[TagReport],
        threads: usize,
    ) -> BatchSummary {
        match fastpath {
            Some(fp) => crate::parallel::verify_batch_summary_fast(table, hs, fp, reports, threads),
            None => crate::parallel::verify_batch_summary(table, hs, reports, threads),
        }
    }

    /// Verify, and on failure localize (Algorithm 4). Returns the verdict
    /// and, for failures, the localization outcome.
    pub fn verify_and_localize(
        &mut self,
        report: &TagReport,
    ) -> (VerifyOutcome, Option<LocalizeOutcome>) {
        let outcome = self.verify(report);
        if outcome.is_pass() {
            return (outcome, None);
        }
        let loc = self.table.localize(report, &self.hs);
        self.stats.localizations += 1;
        if !loc.candidates.is_empty() {
            self.stats.localized += 1;
        }
        for c in &loc.candidates {
            *self.suspects.entry(c.faulty_switch).or_default() += 1;
        }
        obs::event!(
            "localization",
            "{outcome:?} for flow entering {:?}: {} candidate switch(es)",
            report.inport,
            loc.candidates.len()
        );
        (outcome, Some(loc))
    }

    // ---- Robust ingest: dedup + epoch grace + quarantine + confirmation ----

    /// Enable (with `Some(config)`) or disable (`None`) the robust ingest
    /// path. Enabling sizes the table's epoch-grace ring from the config and
    /// resets the dedup filter, quarantine, and confirmed-alarm state.
    pub fn set_robust(&mut self, config: Option<RobustConfig>) {
        match config {
            Some(cfg) => {
                self.table.set_grace_depth(cfg.grace_depth);
                self.robust = Some(RobustState::new(cfg));
                // Published versions carry their own retired rings; rebuild
                // the layer so every future version adopts the new depth.
                if self.snapshots.is_some() {
                    self.snapshots = Some(SnapshotLayer::new(
                        &self.table,
                        &self.hs,
                        self.fastpath.is_some(),
                    ));
                }
            }
            None => self.robust = None,
        }
    }

    /// Robust ingest state, when enabled (confirmed alarms live here).
    pub fn robust(&self) -> Option<&RobustState> {
        self.robust.as_ref()
    }

    /// Mutable robust ingest state.
    pub fn robust_mut(&mut self) -> Option<&mut RobustState> {
        self.robust.as_mut()
    }

    /// Ingest one report through the hardened pipeline: duplicate filter,
    /// Algorithm-3 verdict, epoch grace for update races, quarantine for
    /// unexplained old-epoch failures, localization + K-of-N alarm
    /// confirmation for genuine current-epoch failures.
    ///
    /// With no update in flight (report epoch == table epoch, no duplicate
    /// frames) every report takes the plain `verify`+localize path and the
    /// verdict statistics are bit-identical to [`VeriDpServer::verify`] /
    /// [`VeriDpServer::verify_and_localize`].
    ///
    /// # Panics
    /// Panics if robust mode is not enabled ([`VeriDpServer::set_robust`]).
    pub fn ingest_robust(&mut self, report: &TagReport) -> Disposition {
        let mut robust = self
            .robust
            .take()
            .expect("ingest_robust requires set_robust(Some(..))");
        let VeriDpServer {
            hs,
            table,
            fastpath,
            snapshots,
            stats,
            suspects,
            ..
        } = self;
        // One pinned view per report: under lock-step publication the
        // latest published version *is* the master state, so every check
        // (verdict, epoch compare, grace, localization) reads the same
        // world the master-path branch does.
        let disposition = match snapshots {
            Some(layer) => {
                let guard = layer.reader.pin();
                obs::gauge!("veridp_snapshot_age")
                    .set(table.epoch().saturating_sub(guard.table().epoch()) as i64);
                RobustCtx {
                    table: guard.table(),
                    hs: guard.backend(),
                    fastpath,
                    stats,
                    suspects,
                    deferred: None,
                }
                .step(&mut robust, report)
            }
            None => RobustCtx {
                table,
                hs,
                fastpath,
                stats,
                suspects,
                deferred: None,
            }
            .step(&mut robust, report),
        };
        self.robust = Some(robust);
        disposition
    }

    /// Drain the quarantine once updates have settled, re-verifying each
    /// held report (with grace) and landing final verdicts in the
    /// statistics and alarm aggregator. No-op outside robust mode.
    pub fn settle(&mut self) {
        let Some(mut robust) = self.robust.take() else {
            return;
        };
        let VeriDpServer {
            hs,
            table,
            fastpath,
            snapshots,
            stats,
            suspects,
            ..
        } = self;
        match snapshots {
            Some(layer) => {
                let guard = layer.reader.pin();
                RobustCtx {
                    table: guard.table(),
                    hs: guard.backend(),
                    fastpath,
                    stats,
                    suspects,
                    deferred: None,
                }
                .settle(&mut robust)
            }
            None => RobustCtx {
                table,
                hs,
                fastpath,
                stats,
                suspects,
                deferred: None,
            }
            .settle(&mut robust),
        }
        self.robust = Some(robust);
    }

    /// A sharded robust-verify worker over this server's published
    /// snapshots: its own dedup filter, quarantine, alarm aggregator,
    /// statistics, and (when the fast path is on here) a private verdict
    /// cache, all driven by the exact step logic
    /// [`VeriDpServer::ingest_robust`] runs.
    ///
    /// Workers exist so a network pipeline can run the robust path on N
    /// threads without locking the server: reports are partitioned by
    /// [`TagReport::shard`] (the `(inport, outport)` pair), and because the
    /// dedup filter, quarantine resolution, and alarm confirmation are all
    /// pair-keyed, shard-local state loses nothing — every duplicate and
    /// every supporting failure for a given pair lands on the same worker.
    /// The one documented divergence: K-of-N confirmation windows count
    /// per-shard failing observations, so a suspect implicated by several
    /// *pairs* confirms per pair-shard rather than against the global
    /// failure sequence.
    ///
    /// Returns `None` unless both snapshots and robust mode are enabled.
    pub fn robust_worker(&self) -> Option<RobustWorker<B>> {
        let reader = self.snapshot_reader()?;
        let config = self.robust.as_ref()?.config.clone();
        Some(RobustWorker {
            reader,
            fastpath: self.fastpath.is_some().then(VerifyFastPath::new),
            state: RobustState::new(config),
            stats: ServerStats::default(),
            suspects: HashMap::new(),
            deferred: DeferredObs::default(),
        })
    }

    /// Fold a finished worker's harvest back into this server: statistics
    /// merge field-wise ([`ServerStats::merge`] is associative), suspect
    /// counts add, and the worker's alarms — confirmed and pending — merge
    /// into the server's aggregator ([`AlarmAggregator::absorb`]). Requires
    /// robust mode for the alarm merge; stats and suspects fold regardless.
    pub fn absorb(&mut self, harvest: RobustHarvest) {
        for (s, n) in harvest.suspects {
            *self.suspects.entry(s).or_default() += n;
        }
        if let Some(robust) = &mut self.robust {
            robust.alarms.absorb(harvest.alarms);
        }
        self.absorb_stats(&harvest.stats);
    }

    /// Fold the statistics a plain verify worker accumulated on its own
    /// [`VeriDpServer::snapshot_reader`] back into this server — the
    /// stats-only sibling of [`VeriDpServer::absorb`] for workers that
    /// localize nothing and raise no alarms.
    pub fn absorb_stats(&mut self, stats: &ServerStats) {
        self.stats.merge(stats);
        self.publish_obs();
    }
}

/// One immutable verification view — the master state or a pinned snapshot
/// — plus the mutable sinks the robust pipeline folds into. The server's
/// own `ingest_robust`/`settle` and the sharded [`RobustWorker`]s all drive
/// this same step logic, which is what keeps wire-path verdicts
/// bit-identical to in-process ones.
struct RobustCtx<'a, B: HeaderSetBackend> {
    table: &'a PathTable<B>,
    hs: &'a B,
    fastpath: &'a mut Option<VerifyFastPath>,
    stats: &'a mut ServerStats,
    suspects: &'a mut HashMap<SwitchId, u64>,
    /// Where per-verdict telemetry goes. `None` on the single-owner server
    /// paths: every stamped verdict lands in the global gap histogram and
    /// lag gauge at once, absolute stats are mirrored into the obs registry
    /// on the 1024-report rhythm and the quarantine gauge is kept fresh.
    /// Sharded workers pass their [`DeferredObs`] instead: absolute stores
    /// from several workers would clobber each other (their totals reach
    /// obs when the server absorbs the harvest), and per-report RMWs on the
    /// one global histogram would have every worker fighting over its cache
    /// lines — they record locally and publish once per call.
    deferred: Option<&'a mut DeferredObs>,
}

/// A sharded worker's per-call telemetry buffer: the gap-detection samples
/// and the last epoch lag of one `ingest_batch_with`/`settle` call, published
/// by [`DeferredObs::flush`] when the call ends. Still a census — every
/// stamped verdict is recorded, only the atomic traffic is batched.
#[derive(Default)]
struct DeferredObs {
    gap: obs::LocalHistogram,
    lag: Option<i64>,
}

impl DeferredObs {
    #[inline]
    fn record(&mut self, report: &TagReport, table_epoch: u64) {
        if !obs::ENABLED || report.origin_ns == 0 {
            return;
        }
        self.lag = epoch_lag(report, table_epoch).or(self.lag);
        record_gap_local(report, obs::monotonic_ns(), &mut self.gap);
    }

    /// Publish the call's samples: into the global histogram and gauge, and
    /// into the worker's own run-local histogram.
    fn flush(&mut self, stats: &mut ServerStats) {
        if let Some(lag) = self.lag.take() {
            obs::gauge!("veridp_epoch_lag").set(lag);
        }
        if self.gap.count() > 0 {
            obs::histogram!("veridp_gap_detect_ns").merge_local(&self.gap);
            stats.gap_detect.merge(&self.gap);
            self.gap.clear();
        }
    }
}

impl<B: HeaderSetBackend> RobustCtx<'_, B> {
    /// The full robust disposition of one report against this view.
    fn step(&mut self, robust: &mut RobustState, report: &TagReport) -> Disposition {
        if !robust.filter.insert(report) {
            self.stats.duplicates += 1;
            obs::counter!("veridp_robust_duplicates_total").inc();
            return Disposition::Duplicate;
        }
        let outcome =
            VeriDpServer::verdict_at(self.fastpath, self.stats, self.table, self.hs, report);
        if outcome.is_pass() {
            self.count_verdict(report, outcome);
            return Disposition::Passed;
        }
        if report.epoch < self.table.epoch() {
            // The report predates the table: an update raced it.
            if self.table.grace_check(report, self.hs) {
                self.stats.graced += 1;
                self.count_verdict(report, VerifyOutcome::Pass);
                return Disposition::Graced;
            }
            // Grace cannot explain it, but the trajectory may have mixed
            // epochs mid-path; hold the verdict until updates settle.
            self.stats.quarantined += 1;
            obs::counter!("veridp_robust_quarantined_total").inc();
            robust.quarantine.push_back(*report);
            if robust.quarantine.len() > robust.config.quarantine_capacity {
                if let Some(old) = robust.quarantine.pop_front() {
                    self.stats.shed += 1;
                    obs::counter!("veridp_robust_shed_total").inc();
                    self.resolve_final(&old, &mut robust.alarms);
                }
            }
            if self.deferred.is_none() {
                obs::gauge!("veridp_robust_quarantine_len").set(robust.quarantine.len() as i64);
            }
            return Disposition::Quarantined;
        }
        // Sampled against the live table and still failing: a real fault.
        self.finalize_failure(report, outcome, &mut robust.alarms);
        Disposition::Failed
    }

    /// Drain the quarantine through grace-aware re-verification.
    fn settle(&mut self, robust: &mut RobustState) {
        while let Some(report) = robust.quarantine.pop_front() {
            self.resolve_final(&report, &mut robust.alarms);
        }
        if self.deferred.is_none() {
            obs::gauge!("veridp_robust_quarantine_len").set(0);
        }
    }

    /// Final resolution of a quarantined report: re-verify against the
    /// now-settled view, grace what an update retired, fail the rest.
    fn resolve_final(&mut self, report: &TagReport, alarms: &mut AlarmAggregator) {
        let outcome =
            VeriDpServer::verdict_at(self.fastpath, self.stats, self.table, self.hs, report);
        if outcome.is_pass() {
            self.count_verdict(report, outcome);
            return;
        }
        if self.table.grace_check(report, self.hs) {
            self.stats.graced += 1;
            self.count_verdict(report, VerifyOutcome::Pass);
            return;
        }
        self.finalize_failure(report, outcome, alarms);
    }

    /// A failure that survived every forgiveness layer: count it, localize
    /// it, and feed the alarm aggregator.
    fn finalize_failure(
        &mut self,
        report: &TagReport,
        outcome: VerifyOutcome,
        alarms: &mut AlarmAggregator,
    ) {
        self.count_verdict(report, outcome);
        let loc = self.table.localize(report, self.hs);
        self.stats.localizations += 1;
        if !loc.candidates.is_empty() {
            self.stats.localized += 1;
        }
        for c in &loc.candidates {
            *self.suspects.entry(c.faulty_switch).or_default() += 1;
        }
        alarms.observe(report, &outcome, Some(&loc));
    }

    /// Fold one final verdict in, mirroring to obs on the same 1024-report
    /// rhythm [`VeriDpServer::count_verdict`] uses (when enabled).
    fn count_verdict(&mut self, report: &TagReport, outcome: VerifyOutcome) {
        match &mut self.deferred {
            Some(deferred) => deferred.record(report, self.table.epoch()),
            None => record_verdict_obs(report, self.table.epoch(), &mut self.stats.gap_detect),
        }
        self.stats.reports += 1;
        match outcome {
            VerifyOutcome::Pass => self.stats.passed += 1,
            VerifyOutcome::TagMismatch => self.stats.tag_mismatch += 1,
            VerifyOutcome::NoMatchingPath => self.stats.no_matching_path += 1,
        }
        if self.deferred.is_none() && obs::ENABLED && self.stats.reports & 1023 == 0 {
            publish_stats_obs(self.stats, self.suspects.len());
        }
    }
}

/// A sharded robust-verify worker: one pinned-snapshot reader plus
/// shard-local robust state (see [`VeriDpServer::robust_worker`] for the
/// partitioning contract that makes shard-local state lossless).
///
/// The worker is `Send` — built on one thread, driven on another — and
/// wait-free with respect to the server: batches pin a published version,
/// never a lock the intercept path holds.
pub struct RobustWorker<B: HeaderSetBackend = HeaderSpace> {
    reader: ReaderHandle<B>,
    fastpath: Option<VerifyFastPath>,
    state: RobustState,
    stats: ServerStats,
    suspects: HashMap<SwitchId, u64>,
    deferred: DeferredObs,
}

impl<B: HeaderSetBackend> RobustWorker<B> {
    /// Robust-ingest one report (pins a snapshot for the single step).
    pub fn ingest(&mut self, report: &TagReport) -> Disposition {
        let mut last = Disposition::Passed;
        self.ingest_batch_with(std::slice::from_ref(report), |d| last = d);
        last
    }

    /// Robust-ingest a batch under one snapshot pin — the wire-path entry
    /// point. Every report in the batch sees the same immutable version;
    /// the publisher stays free to publish successors concurrently.
    pub fn ingest_batch(&mut self, reports: &[TagReport]) {
        self.ingest_batch_with(reports, |_| {});
    }

    /// [`RobustWorker::ingest_batch`] with a per-report disposition
    /// observer, for callers that track dispositions without re-deriving
    /// them from stats deltas.
    pub fn ingest_batch_with(
        &mut self,
        reports: &[TagReport],
        mut observe: impl FnMut(Disposition),
    ) {
        let RobustWorker {
            reader,
            fastpath,
            state,
            stats,
            suspects,
            deferred,
        } = self;
        let guard = reader.pin();
        let mut ctx = RobustCtx {
            table: guard.table(),
            hs: guard.backend(),
            fastpath,
            stats,
            suspects,
            deferred: Some(deferred),
        };
        for r in reports {
            observe(ctx.step(state, r));
        }
        deferred.flush(stats);
    }

    /// Drain this shard's quarantine against the latest published version.
    pub fn settle(&mut self) {
        let RobustWorker {
            reader,
            fastpath,
            state,
            stats,
            suspects,
            deferred,
        } = self;
        let guard = reader.pin();
        RobustCtx {
            table: guard.table(),
            hs: guard.backend(),
            fastpath,
            stats,
            suspects,
            deferred: Some(deferred),
        }
        .settle(state);
        deferred.flush(stats);
    }

    /// This shard's running statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// This shard's alarm aggregator (confirmed alarms live here until
    /// harvest).
    pub fn alarms(&self) -> &AlarmAggregator {
        &self.state.alarms
    }

    /// Label this shard's flight-recorder events with its shard index, so
    /// dumps assembled after [`VeriDpServer::absorb`] say which worker saw
    /// each event.
    pub fn set_shard(&mut self, shard: usize) {
        self.state.alarms.set_shard(shard);
    }

    /// Reports currently quarantined on this shard.
    pub fn quarantine_len(&self) -> usize {
        self.state.quarantine_len()
    }

    /// Settle and consume the worker, yielding everything the server needs
    /// to fold the shard back in ([`VeriDpServer::absorb`]).
    pub fn harvest(mut self) -> RobustHarvest {
        self.settle();
        RobustHarvest {
            stats: self.stats,
            suspects: self.suspects,
            alarms: self.state.alarms,
        }
    }
}

/// Everything a finished [`RobustWorker`] hands back: the shard's verdict
/// statistics, localization suspect counts, and alarm state.
pub struct RobustHarvest {
    pub stats: ServerStats,
    pub suspects: HashMap<SwitchId, u64>,
    pub alarms: AlarmAggregator,
}

/// Stamp deltas beyond this (one hour) are implausible — a report stamped
/// by a different machine's monotonic clock, or a corrupted stamp that
/// slipped the wire checksum — and are counted instead of recorded, so one
/// garbage stamp cannot stretch the latency histograms across decades.
const GAP_STAMP_PLAUSIBLE_NS: u64 = 3_600_000_000_000;

/// Per-verdict telemetry, shared by every final-verdict site: the
/// end-to-end gap-detection latency (origin stamp → verdict, stamped wire
/// reports only) into both the global `veridp_gap_detect_ns` histogram and
/// the run-local one, plus the `veridp_epoch_lag` gauge. `table_epoch` is
/// the epoch of the view the verdict was computed against.
#[inline]
fn record_verdict_obs(report: &TagReport, table_epoch: u64, gap: &mut obs::LocalHistogram) {
    // Unstamped reports (in-process ingest, v1 frames) exit after two plain
    // compares, before any clock is read — the telemetry below is priced
    // for wire reports only.
    if !obs::ENABLED || report.origin_ns == 0 {
        return;
    }
    if let Some(delta) = record_gap_at(report, table_epoch, obs::monotonic_ns(), gap) {
        obs::histogram!("veridp_gap_detect_ns").record(delta);
    }
}

/// Worker-side core of [`record_verdict_obs`]: `now_ns` is supplied by the
/// caller (the batch folds reuse the clock read their verify-latency
/// sample already paid for), the sample lands in the caller's
/// [`obs::LocalHistogram`] only, and the recorded delta is returned so
/// single-report callers can mirror it into the global histogram. Batch
/// workers instead merge their local histogram into the global one once
/// per batch — one round of atomic traffic per batch, not per report.
#[inline]
pub(crate) fn record_gap_at(
    report: &TagReport,
    table_epoch: u64,
    now_ns: u64,
    gap: &mut obs::LocalHistogram,
) -> Option<u64> {
    if !obs::ENABLED || report.origin_ns == 0 {
        return None;
    }
    if let Some(lag) = epoch_lag(report, table_epoch) {
        obs::gauge!("veridp_epoch_lag").set(lag);
    }
    record_gap_local(report, now_ns, gap)
}

/// Table epochs between an epoch-stamped report and the view that judged
/// it — the `veridp_epoch_lag` sample.
#[inline]
fn epoch_lag(report: &TagReport, table_epoch: u64) -> Option<i64> {
    (report.epoch != 0 && report.epoch <= table_epoch).then(|| (table_epoch - report.epoch) as i64)
}

/// The gap sample of one origin-stamped report into a local histogram,
/// touching nothing shared unless the stamp is implausible.
#[inline]
fn record_gap_local(report: &TagReport, now_ns: u64, gap: &mut obs::LocalHistogram) -> Option<u64> {
    let delta = now_ns.saturating_sub(report.origin_ns).max(1);
    if delta > GAP_STAMP_PLAUSIBLE_NS {
        obs::counter!("veridp_gap_stamp_implausible_total").inc();
        return None;
    }
    gap.record(delta);
    Some(delta)
}

/// Mirror a stats block into the global obs registry as absolute stores —
/// the shared body of [`VeriDpServer::publish_obs`] and the ctx rhythm.
fn publish_stats_obs(stats: &ServerStats, suspect_switches: usize) {
    if !obs::ENABLED {
        return;
    }
    obs::counter!("veridp_server_reports_total").store(stats.reports);
    obs::counter!("veridp_server_passed_total").store(stats.passed);
    obs::counter!("veridp_server_tag_mismatch_total").store(stats.tag_mismatch);
    obs::counter!("veridp_server_no_matching_path_total").store(stats.no_matching_path);
    obs::counter!("veridp_server_localizations_total").store(stats.localizations);
    obs::counter!("veridp_server_localized_total").store(stats.localized);
    obs::counter!("veridp_server_cache_hits_total").store(stats.cache_hits);
    obs::counter!("veridp_server_cache_misses_total").store(stats.cache_misses);
    obs::counter!("veridp_server_duplicates_total").store(stats.duplicates);
    obs::counter!("veridp_server_graced_total").store(stats.graced);
    obs::counter!("veridp_server_quarantined_total").store(stats.quarantined);
    obs::counter!("veridp_server_shed_total").store(stats.shed);
    obs::gauge!("veridp_server_suspect_switches").set(suspect_switches as i64);
}

/// One aggregated alarm: every failed report for the same flow and entry
/// point collapses into one operator-facing item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// Entry port of the affected flow.
    pub inport: veridp_packet::PortRef,
    /// The flow header (first observed witness).
    pub header: veridp_packet::FiveTuple,
    /// Failed reports aggregated into this alarm.
    pub count: u64,
    /// Suspect switches across those failures, with candidate counts.
    pub suspects: Vec<(SwitchId, u64)>,
}

/// A confirmed alarm: a `(pair, suspect)` that accumulated at least K
/// distinct failing observations within the sliding confirmation window —
/// evidence strong enough to page an operator or trigger repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmedAlarm {
    /// The `(inport, outport)` pair whose reports implicated the suspect.
    pub pair: (veridp_packet::PortRef, veridp_packet::PortRef),
    /// The implicated switch.
    pub suspect: SwitchId,
    /// Total failing observations supporting the confirmation so far.
    pub count: u64,
}

/// One retained verification event in the alarm flight recorder: enough to
/// reconstruct what a pair's reports looked like in the run-up to a
/// confirmed alarm without storing the full report stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// The aggregator's failing-observation sequence number when recorded.
    pub seq: u64,
    /// Epoch the report was stamped with.
    pub epoch: u64,
    /// Raw Bloom-tag bits / width carried by the report.
    pub tag_bits: u64,
    pub tag_nbits: u32,
    /// Shard that processed the report (0 for the unsharded server path).
    pub shard: usize,
    /// Final verdict, as a stable lowercase token.
    pub verdict: &'static str,
    /// Origin-stamp-to-observation latency in nanoseconds (0 when the
    /// report carried no stamp).
    pub latency_ns: u64,
}

/// A frozen flight-recorder dump: the retained event ring for a pair at the
/// moment one of its alarms reached K-of-N confirmation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// The `(inport, outport)` pair whose ring was frozen.
    pub pair: (veridp_packet::PortRef, veridp_packet::PortRef),
    /// The confirmed suspect switch.
    pub suspect: SwitchId,
    /// Supporting failing observations at confirmation time.
    pub count: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Render the dump as one self-describing JSON document (hand-rolled,
    /// matching the workspace's zero-dependency JSON idiom).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        let port = |p: &veridp_packet::PortRef| format!("\"{}:{}\"", p.switch.0, p.port.0);
        let _ = write!(
            out,
            "{{\"pair\":{{\"in\":{},\"out\":{}}},\"suspect_switch\":{},\"count\":{},\"events\":[",
            port(&self.pair.0),
            port(&self.pair.1),
            self.suspect.0,
            self.count
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"epoch\":{},\"tag\":\"{:#x}/{}\",\"shard\":{},\
                 \"verdict\":\"{}\",\"latency_ns\":{}}}",
                e.seq, e.epoch, e.tag_bits, e.tag_nbits, e.shard, e.verdict, e.latency_ns
            );
        }
        out.push_str("]}");
        out
    }
}

/// Pending confirmation support for one `(pair, suspect)`: the sliding
/// window of implicating sequence numbers plus the timestamp of the first
/// implication, which anchors the confirmation-latency histogram.
#[derive(Debug)]
struct SupportWindow {
    seqs: VecDeque<u64>,
    /// Origin stamp of the first implicating report (falling back to the
    /// local monotonic clock for unstamped reports; 0 when obs is compiled
    /// out, which disables the latency sample).
    first_ns: u64,
}

/// Events retained per pair in the flight recorder.
const FLIGHT_RING_EVENTS: usize = 16;
/// Pairs the flight recorder tracks at most; beyond this, new pairs are not
/// recorded (existing rings keep rolling) so a pathological workload cannot
/// grow the recorder without bound.
const FLIGHT_MAX_PAIRS: usize = 512;

/// Aggregates failed verifications into per-flow alarms so a persistent
/// fault raises one escalating alarm instead of one alert per sampled
/// packet.
///
/// Two robustness layers (Burdonov et al.'s confirm-before-repair
/// principle) sit on top of the aggregation:
///
/// * **Duplicate suppression** — an identical failing report (same pair,
///   header, tag, and epoch) observed twice bumps nothing twice; the
///   transport duplicates frames, not evidence.
/// * **K-of-N confirmation** — a `(pair, suspect)` alarm is only *confirmed*
///   once `confirm_k` distinct failing observations implicate it within the
///   last `confirm_window` failing observations network-wide. A flipped
///   Bloom bit that slips the wire checksum produces one isolated failure
///   (usually with no localization candidates at all) and never confirms; a
///   faulty switch keeps failing and crosses K quickly.
#[derive(Debug)]
pub struct AlarmAggregator {
    alarms: HashMap<(veridp_packet::PortRef, veridp_packet::FiveTuple), Alarm>,
    /// Exact bounded dedup over failing reports.
    recent: crate::robust::RecentFilter,
    confirm_k: u64,
    confirm_window: u64,
    /// Monotone counter of non-duplicate failing observations.
    seq: u64,
    /// Per-`(pair, suspect)` recent supporting observation sequence numbers
    /// (pruned to the sliding window) plus the first-implication timestamp.
    support: HashMap<((veridp_packet::PortRef, veridp_packet::PortRef), SwitchId), SupportWindow>,
    /// Confirmed `(pair, suspect)`s with their total supporting counts.
    confirmed: HashMap<((veridp_packet::PortRef, veridp_packet::PortRef), SwitchId), u64>,
    /// Flight recorder: per-pair bounded ring of recent failing
    /// observations, frozen into `dumps` when an alarm confirms.
    flight: HashMap<(veridp_packet::PortRef, veridp_packet::PortRef), VecDeque<FlightEvent>>,
    /// Frozen flight-recorder dumps, in confirmation order.
    dumps: Vec<FlightDump>,
    /// Stale-reporter alarms raised by the liveness registry
    /// ([`crate::liveness`]): reporters whose *silence* — not whose reports
    /// — implicates them. Kept beside the report-driven alarms so one
    /// aggregator holds the operator's complete picture.
    stale: Vec<crate::liveness::StaleReporter>,
    /// Shard label stamped into recorded events (0 for the unsharded
    /// server; workers set their shard index via [`RobustWorker::set_shard`]).
    shard: usize,
}

/// Dedup horizon for failing reports; only needs to cover the transport's
/// duplication window.
const ALARM_DEDUP_CAPACITY: usize = 4096;

impl Default for AlarmAggregator {
    fn default() -> Self {
        // K=3 within a 256-failure window: small enough to confirm a real
        // fault after a handful of sampled packets, large enough that
        // isolated corruption artifacts never confirm.
        Self::with_confirmation(3, 256)
    }
}

impl AlarmAggregator {
    /// A fresh aggregator with default confirmation tuning (K=3, N=256).
    pub fn new() -> Self {
        Self::default()
    }

    /// An aggregator confirming after `k` supporting failures within a
    /// sliding window of `window` failing observations. `k = 1` confirms on
    /// first implication; `window` is clamped to at least `k`.
    pub fn with_confirmation(k: u64, window: u64) -> Self {
        AlarmAggregator {
            alarms: HashMap::new(),
            recent: crate::robust::RecentFilter::new(ALARM_DEDUP_CAPACITY),
            confirm_k: k.max(1),
            confirm_window: window.max(k.max(1)),
            seq: 0,
            support: HashMap::new(),
            confirmed: HashMap::new(),
            flight: HashMap::new(),
            dumps: Vec::new(),
            stale: Vec::new(),
            shard: 0,
        }
    }

    /// Label events recorded from here on with `shard` (sharded pipelines
    /// call this once per worker so dumps say which shard saw what).
    pub fn set_shard(&mut self, shard: usize) {
        self.shard = shard;
    }

    /// Fold one verdict in; only failures create or update alarms.
    /// Duplicate failing reports (same pair, header, tag, epoch) within the
    /// dedup window are counted once.
    pub fn observe(
        &mut self,
        report: &TagReport,
        outcome: &crate::verify::VerifyOutcome,
        localization: Option<&LocalizeOutcome>,
    ) {
        if outcome.is_pass() {
            return;
        }
        if !self.recent.insert(report) {
            obs::counter!("veridp_alarm_duplicates_total").inc();
            return;
        }
        obs::counter!("veridp_alarm_observations_total").inc();
        self.seq += 1;
        if obs::ENABLED {
            let pair = (report.inport, report.outport);
            if self.flight.len() < FLIGHT_MAX_PAIRS || self.flight.contains_key(&pair) {
                let latency_ns = if report.origin_ns != 0 {
                    obs::monotonic_ns().saturating_sub(report.origin_ns)
                } else {
                    0
                };
                let ring = self.flight.entry(pair).or_default();
                if ring.len() == FLIGHT_RING_EVENTS {
                    ring.pop_front();
                }
                ring.push_back(FlightEvent {
                    seq: self.seq,
                    epoch: report.epoch,
                    tag_bits: report.tag.bits(),
                    tag_nbits: report.tag.nbits(),
                    shard: self.shard,
                    verdict: match outcome {
                        crate::verify::VerifyOutcome::Pass => "pass",
                        crate::verify::VerifyOutcome::TagMismatch => "tag_mismatch",
                        crate::verify::VerifyOutcome::NoMatchingPath => "no_matching_path",
                    },
                    latency_ns,
                });
            }
        }
        let key = (report.inport, report.header);
        let is_new = !self.alarms.contains_key(&key);
        if is_new {
            obs::event!(
                "alarm_raised",
                "new alarm ({outcome:?}) for flow entering {:?}",
                report.inport
            );
        }
        let alarm = self.alarms.entry(key).or_insert_with(|| Alarm {
            inport: report.inport,
            header: report.header,
            count: 0,
            suspects: Vec::new(),
        });
        alarm.count += 1;
        if let Some(loc) = localization {
            for c in &loc.candidates {
                match alarm
                    .suspects
                    .iter_mut()
                    .find(|(s, _)| *s == c.faulty_switch)
                {
                    Some((_, n)) => *n += 1,
                    None => alarm.suspects.push((c.faulty_switch, 1)),
                }
            }
            for c in &loc.candidates {
                self.note_support(report, c.faulty_switch);
            }
        }
    }

    /// Record one supporting observation for `(pair, suspect)` and confirm
    /// once K of the last N failing observations implicate it.
    fn note_support(&mut self, report: &TagReport, suspect: SwitchId) {
        let ckey = ((report.inport, report.outport), suspect);
        if let Some(total) = self.confirmed.get_mut(&ckey) {
            *total += 1;
            return;
        }
        let window_floor = self.seq.saturating_sub(self.confirm_window - 1);
        let w = self.support.entry(ckey).or_insert_with(|| SupportWindow {
            seqs: VecDeque::new(),
            first_ns: if report.origin_ns != 0 {
                report.origin_ns
            } else {
                obs::monotonic_ns()
            },
        });
        w.seqs.push_back(self.seq);
        while w.seqs.front().is_some_and(|&s| s < window_floor) {
            w.seqs.pop_front();
        }
        if w.seqs.len() as u64 >= self.confirm_k {
            let total = w.seqs.len() as u64;
            let first_ns = w.first_ns;
            self.support.remove(&ckey);
            self.confirmed.insert(ckey, total);
            obs::counter!("veridp_alarms_confirmed_total").inc();
            // First-failure → K-of-N-confirmed latency, anchored on the
            // first implicating report's origin stamp when it carried one.
            if first_ns != 0 {
                let delta = obs::monotonic_ns().saturating_sub(first_ns).max(1);
                if delta <= GAP_STAMP_PLAUSIBLE_NS {
                    obs::histogram!("veridp_gap_confirm_ns").record(delta);
                } else {
                    obs::counter!("veridp_gap_stamp_implausible_total").inc();
                }
            }
            // Freeze the pair's event ring into a flight-recorder dump.
            let events: Vec<FlightEvent> = self
                .flight
                .get(&ckey.0)
                .map(|r| r.iter().cloned().collect())
                .unwrap_or_default();
            let dump = FlightDump {
                pair: ckey.0,
                suspect,
                count: total,
                events,
            };
            obs::event!("flight_recorder", "{}", dump.to_json());
            self.dumps.push(dump);
            obs::event!(
                "alarm_confirmed",
                "suspect {suspect:?} confirmed for pair {:?} -> {:?} after {total} failures",
                report.inport,
                report.outport
            );
        }
    }

    /// Flight-recorder dumps frozen so far, in confirmation order.
    pub fn flight_dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Raise a stale-reporter alarm from the liveness registry. Unlike
    /// report-driven alarms these need no K-of-N confirmation — the
    /// registry already debounced (one flag per stale episode, idle pairs
    /// suppressed), and the evidence is the *absence* of reports, which
    /// cannot be corroborated by more of them.
    pub fn note_stale(&mut self, stale: crate::liveness::StaleReporter) {
        obs::counter!("veridp_liveness_stale_alarms_total").inc();
        obs::event!(
            "stale_alarm",
            "stale reporter alarm: {} (idle {}ms)",
            stale.reporter,
            stale.idle_ns / 1_000_000
        );
        self.stale.push(stale);
    }

    /// Stale-reporter alarms raised so far, in arrival order.
    pub fn stale_reporters(&self) -> &[crate::liveness::StaleReporter] {
        &self.stale
    }

    /// Active alarms, most-failures first; suspects within each alarm are
    /// ordered by candidate count (ties broken by switch id for
    /// determinism).
    pub fn alarms(&self) -> Vec<Alarm> {
        let mut v: Vec<Alarm> = self.alarms.values().cloned().collect();
        for a in &mut v {
            a.suspects.sort_by_key(|&(s, n)| (std::cmp::Reverse(n), s));
        }
        v.sort_by_key(|a| {
            (
                std::cmp::Reverse(a.count),
                a.inport,
                (
                    a.header.src_ip,
                    a.header.dst_ip,
                    a.header.proto,
                    a.header.src_port,
                    a.header.dst_port,
                ),
            )
        });
        v
    }

    /// Confirmed alarms in deterministic order (most-supported first, ties
    /// by suspect then pair).
    pub fn confirmed(&self) -> Vec<ConfirmedAlarm> {
        let mut v: Vec<ConfirmedAlarm> = self
            .confirmed
            .iter()
            .map(|(&(pair, suspect), &count)| ConfirmedAlarm {
                pair,
                suspect,
                count,
            })
            .collect();
        v.sort_by_key(|c| (std::cmp::Reverse(c.count), c.suspect, c.pair));
        v
    }

    /// Switches with at least one confirmed alarm, deduplicated and sorted.
    pub fn confirmed_suspects(&self) -> Vec<SwitchId> {
        let mut v: Vec<SwitchId> = self.confirmed.keys().map(|&(_, s)| s).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Number of distinct flows currently alarming.
    pub fn len(&self) -> usize {
        self.alarms.len()
    }

    /// Whether no alarms are active.
    pub fn is_empty(&self) -> bool {
        self.alarms.is_empty()
    }

    /// Merge another aggregator (a finished shard's) into this one.
    ///
    /// Per-flow alarms add their counts and suspect tallies; confirmed
    /// `(pair, suspect)`s add their supporting counts (confirming here if
    /// the other side confirmed); the failing-observation sequence counters
    /// add so future windows keep advancing. What does *not* transfer is
    /// the other side's pending (unconfirmed) window support: sequence
    /// numbers are aggregator-local, so partial support cannot be aligned
    /// across shards — confirmation is per-shard by design, which the
    /// pair-sharding contract makes sound (all support for a given pair
    /// accumulates on one shard; see [`VeriDpServer::robust_worker`]).
    pub fn absorb(&mut self, other: AlarmAggregator) {
        for (key, alarm) in other.alarms {
            match self.alarms.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(alarm);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let mine = e.get_mut();
                    mine.count += alarm.count;
                    for (s, n) in alarm.suspects {
                        match mine.suspects.iter_mut().find(|(ms, _)| *ms == s) {
                            Some((_, mn)) => *mn += n,
                            None => mine.suspects.push((s, n)),
                        }
                    }
                }
            }
        }
        self.seq += other.seq;
        for (ckey, count) in other.confirmed {
            // A confirmation anywhere is a confirmation here; any pending
            // local support for the same key is subsumed by it.
            self.support.remove(&ckey);
            *self.confirmed.entry(ckey).or_insert(0) += count;
        }
        // Pair-sharding means rings never overlap across shards; append any
        // the bound allows and carry every frozen dump over verbatim.
        for (pair, ring) in other.flight {
            if self.flight.len() < FLIGHT_MAX_PAIRS || self.flight.contains_key(&pair) {
                let mine = self.flight.entry(pair).or_default();
                for e in ring {
                    if mine.len() == FLIGHT_RING_EVENTS {
                        mine.pop_front();
                    }
                    mine.push_back(e);
                }
            }
        }
        self.dumps.extend(other.dumps);
        self.stale.extend(other.stale);
    }

    /// Clear all alarm state, including confirmations (e.g. after a repair
    /// round).
    pub fn clear(&mut self) {
        self.alarms.clear();
        self.recent = crate::robust::RecentFilter::new(ALARM_DEDUP_CAPACITY);
        self.seq = 0;
        self.support.clear();
        self.confirmed.clear();
        self.flight.clear();
        self.dumps.clear();
        self.stale.clear();
    }
}
