//! RCU-style snapshot publication for the path table: verify workers never
//! block on rule churn.
//!
//! The incremental updater (§4.4, `incremental`) and the verify
//! paths (Algorithm 3) share one [`PathTable`] — under sustained churn a
//! server would stall its hot verify loop exactly when verification matters
//! most. This module separates them with epoch-based publication:
//!
//! * The **writer** ([`SnapshotPublisher`], or the batteries-included
//!   [`ConcurrentTable`]) keeps a mutable *master* table, appends every rule
//!   change to an update log ([`RuleUpdate`]), and publishes immutable
//!   [`TableVersion`]s with a single atomic pointer swap. A new version is
//!   produced by *replaying* only the log entries a recycled buffer missed
//!   through the ordinary incremental update — O(delta) per publish, never
//!   O(table) — so every version converges to the same entries, the same
//!   epoch, and the same [`RetiredRing`](crate::grace::RetiredRing) contents
//!   as the master.
//! * **Readers** ([`ReaderHandle`]) pin a version per batch with two atomic
//!   stores ([`ReaderHandle::pin`]) and verify wait-free against it: no
//!   lock, no retry loop, no interaction with the writer whatsoever.
//! * Superseded versions are **retired into a bounded pool** and recycled
//!   once every pinned reader has advanced past them — the same grace-period
//!   idea the [`RetiredRing`](crate::grace::RetiredRing) applies to
//!   individual path entries, lifted to whole table versions. Snapshot
//!   lifetime, `TagIndex`/`VerdictCache` invalidation, and epoch-grace
//!   verification thereby run on one unified epoch story: the table epoch.
//!
//! # Memory ordering
//!
//! All protocol atomics use `SeqCst`; the single total order makes the
//! reclamation argument short. Publish is *swap pointer, then store
//! `publish_seq`*; pin is *load `publish_seq` into own slot, then load
//! pointer*. Hence a pinned slot value `s` implies the guard's version has
//! sequence `>= s`, and the writer reclaims a retired version `v` only when
//! every non-zero slot holds `s > v.seq`. If the writer's reclaim scan saw a
//! slot empty, that reader's subsequent pointer load is ordered after the
//! writer's swap and can only observe a newer version — so a version chosen
//! for reclaim can never be re-pinned, and neither side ever retries.
//!
//! # Why each version owns a backend
//!
//! [`HeaderSetBackend`] handles are only valid in the instance that created
//! them, and the set algebra needs `&mut` — one shared backend would
//! serialize readers against the writer. Each version therefore carries its
//! own backend instance; verification only needs the `&self` half of the
//! trait ([`HeaderSetBackend::contains`]), which is why reads are wait-free.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use veridp_obs as obs;
use veridp_packet::{SwitchId, TagReport};
use veridp_switch::{Action, FlowRule, RuleId};

use crate::backend::HeaderSetBackend;
use crate::fastpath::{TagIndex, VerdictCache};
use crate::parallel::{verify_batch_summary, verify_batch_summary_indexed, BatchSummary};
use crate::path_table::PathTable;

/// One control-plane rule change, as recorded in the publisher's update log
/// and replayed into version buffers. Mirrors the three incremental
/// operations of §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleUpdate {
    /// Install (or replace, by id) a rule at a switch.
    Add(SwitchId, FlowRule),
    /// Remove a rule by id.
    Delete(SwitchId, RuleId),
    /// Change a rule's action (delete + add, as in §4.4).
    Modify(SwitchId, RuleId, Action),
}

impl RuleUpdate {
    /// The switch the update applies to.
    pub fn switch(&self) -> SwitchId {
        match *self {
            RuleUpdate::Add(s, _) | RuleUpdate::Delete(s, _) | RuleUpdate::Modify(s, ..) => s,
        }
    }
}

/// One immutable published table version: a full [`PathTable`] with its own
/// backend instance (handles are instance-local), the tag index built for
/// its epoch when the fast path is on, and the publication bookkeeping.
///
/// Readers see versions only through [`SnapshotGuard`]s, which expose the
/// shared-reference surface; the writer mutates a version only while it is
/// withdrawn from publication and provably unpinned.
pub struct TableVersion<B: HeaderSetBackend> {
    table: PathTable<B>,
    hs: B,
    index: Option<TagIndex>,
    /// Publication sequence number (1-based; 0 is the "unpinned" sentinel in
    /// reader slots).
    seq: u64,
    /// Absolute update-log position this version reflects: the table equals
    /// the master after the first `applied` recorded updates.
    applied: u64,
}

impl<B: HeaderSetBackend> TableVersion<B> {
    /// The version's path table.
    pub fn table(&self) -> &PathTable<B> {
        &self.table
    }

    /// The version's backend instance (read-only half).
    pub fn backend(&self) -> &B {
        &self.hs
    }

    /// Tag index over this version's table, when index publication is on.
    pub fn index(&self) -> Option<&TagIndex> {
        self.index.as_ref()
    }

    /// Publication sequence of this version.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Maximum number of simultaneously-registered reader handles.
const MAX_READERS: usize = 64;

/// How many retired version buffers the publisher keeps for recycling
/// before falling back to cloning the master. Each buffer is a full table
/// copy, so this (together with reader pin discipline) bounds snapshot
/// memory under churn the same way the grace ring's depth bounds retired
/// path entries.
const DEFAULT_POOL_CAP: usize = 3;

/// Publish attempts spin-yield this many times for a reclaimable buffer
/// before giving up and cloning a fresh one (a pinned-forever reader must
/// never block the writer).
const PUBLISH_YIELDS: usize = 64;

/// Raw pointer to a heap-allocated version, owned by the
/// [`SnapshotCell::versions`] registry. Plain `*mut` is neither `Send` nor
/// `Sync`; the wrapper asserts both because ownership and mutation are
/// governed by the publication protocol, not by the pointer itself.
struct VersionPtr<B: HeaderSetBackend>(*mut TableVersion<B>);

// SAFETY: the pointee is only mutated by the single writer while withdrawn
// from publication and unpinned (see the module docs); readers only obtain
// shared references. `TableVersion<B>` is `Send + Sync` because `B` and
// `B::Set` are.
unsafe impl<B: HeaderSetBackend> Send for VersionPtr<B> {}
unsafe impl<B: HeaderSetBackend> Sync for VersionPtr<B> {}

/// The shared publication cell: everything readers touch. Owned by an
/// `Arc` held by the publisher and every reader handle, so versions stay
/// alive as long as anyone could still pin them.
struct SnapshotCell<B: HeaderSetBackend> {
    /// The currently-published version. Readers load; the writer swaps.
    current: AtomicPtr<TableVersion<B>>,
    /// Sequence of the current version. Stored *after* the pointer swap, so
    /// a reader that observed sequence `s` loads a pointer of sequence
    /// `>= s`.
    publish_seq: AtomicU64,
    /// Per-reader pin slots: 0 = unpinned, otherwise the `publish_seq`
    /// observed at pin time.
    slots: [AtomicU64; MAX_READERS],
    /// Slot allocation bitmap for reader handles.
    claimed: [AtomicBool; MAX_READERS],
    /// All live version allocations, including the published one. Locked
    /// only by the writer (allocation, replay, reclaim) — never on any read
    /// path.
    versions: Mutex<Vec<VersionPtr<B>>>,
}

impl<B: HeaderSetBackend> Drop for SnapshotCell<B> {
    fn drop(&mut self) {
        // The cell dropping means no publisher and no reader handle remain,
        // so no guard can exist: every version is exclusively ours to free.
        let versions = self.versions.get_mut().expect("snapshot registry poisoned");
        for v in versions.drain(..) {
            // SAFETY: allocated via Box::into_raw in `install`, never freed
            // elsewhere (reclaim recycles in place, it does not free).
            drop(unsafe { Box::from_raw(v.0) });
        }
    }
}

impl<B: HeaderSetBackend> SnapshotCell<B> {
    fn new() -> Self {
        SnapshotCell {
            current: AtomicPtr::new(std::ptr::null_mut()),
            publish_seq: AtomicU64::new(0),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            claimed: std::array::from_fn(|_| AtomicBool::new(false)),
            versions: Mutex::new(Vec::new()),
        }
    }

    /// Whether a retired version with sequence `seq` can be reused: no
    /// pinned reader may still reach it (see the module docs for why no
    /// retry is needed).
    fn reclaimable(&self, seq: u64) -> bool {
        self.slots.iter().all(|slot| match slot.load(SeqCst) {
            0 => true,
            s => s > seq,
        })
    }
}

/// Pin a snapshot from `cell` into `slot`. Shared by [`ReaderHandle::pin`]
/// and the split-borrow verify helpers.
fn pin_at<B: HeaderSetBackend>(cell: &SnapshotCell<B>, slot: usize) -> SnapshotGuard<'_, B> {
    let seq = cell.publish_seq.load(SeqCst);
    cell.slots[slot].store(seq, SeqCst);
    let ptr = cell.current.load(SeqCst);
    debug_assert!(!ptr.is_null(), "pin before first publish");
    // SAFETY: `ptr` was published after the slot store above, so its version
    // has sequence >= our slot value and the writer's reclaim rule keeps it
    // alive (and un-mutated) until the guard drops and clears the slot.
    let version = unsafe { &*ptr };
    SnapshotGuard {
        cell,
        slot,
        version,
        pinned_at: obs::ENABLED.then(Instant::now),
    }
}

/// A pinned snapshot: wait-free shared access to one [`TableVersion`] for
/// the guard's lifetime. Dropping the guard unpins (one atomic store) and
/// records the pin duration histogram.
pub struct SnapshotGuard<'a, B: HeaderSetBackend> {
    cell: &'a SnapshotCell<B>,
    slot: usize,
    version: &'a TableVersion<B>,
    pinned_at: Option<Instant>,
}

impl<B: HeaderSetBackend> SnapshotGuard<'_, B> {
    /// The pinned version.
    pub fn version(&self) -> &TableVersion<B> {
        self.version
    }

    /// The pinned version's path table.
    pub fn table(&self) -> &PathTable<B> {
        &self.version.table
    }

    /// The pinned version's backend.
    pub fn backend(&self) -> &B {
        &self.version.hs
    }

    /// The pinned version's tag index, when published.
    pub fn index(&self) -> Option<&TagIndex> {
        self.version.index.as_ref()
    }
}

impl<B: HeaderSetBackend> Drop for SnapshotGuard<'_, B> {
    fn drop(&mut self) {
        self.cell.slots[self.slot].store(0, SeqCst);
        if let Some(t0) = self.pinned_at {
            obs::histogram!("veridp_snapshot_pin_ns").record_duration(t0.elapsed());
        }
    }
}

/// A registered reader: owns one pin slot of the publication cell plus
/// private per-worker verdict caches, so batch verification through the
/// handle touches no shared mutable state at all.
///
/// Handles are `Send`: create them on the writer side
/// ([`SnapshotPublisher::reader`]) and move them into verify threads.
pub struct ReaderHandle<B: HeaderSetBackend> {
    cell: Arc<SnapshotCell<B>>,
    slot: usize,
    /// Worker-private verdict caches for indexed batch verification, kept
    /// warm across pins (epoch keying invalidates them lazily on churn).
    caches: Vec<VerdictCache>,
}

impl<B: HeaderSetBackend> ReaderHandle<B> {
    /// Claim a free pin slot; `None` when all `MAX_READERS` are taken.
    fn register(cell: Arc<SnapshotCell<B>>) -> Option<Self> {
        let slot = (0..MAX_READERS).find(|&i| {
            cell.claimed[i]
                .compare_exchange(false, true, SeqCst, SeqCst)
                .is_ok()
        })?;
        Some(ReaderHandle {
            cell,
            slot,
            caches: Vec::new(),
        })
    }

    /// Pin the currently-published version: two atomic operations, never a
    /// lock, never a retry. The table epoch, tag index, grace ring, and
    /// backend exposed by the guard are mutually consistent for the guard's
    /// whole lifetime, regardless of writer churn.
    pub fn pin(&mut self) -> SnapshotGuard<'_, B> {
        pin_at(&self.cell, self.slot)
    }

    /// Verify a report batch against a pinned snapshot and return the
    /// aggregate summary. Uses the version's published tag index with this
    /// handle's private worker caches when available, the plain Algorithm-3
    /// scan otherwise; verdicts are identical either way.
    pub fn verify_summary(&mut self, reports: &[TagReport], threads: usize) -> BatchSummary {
        let ReaderHandle { cell, slot, caches } = self;
        let guard = pin_at(cell, *slot);
        match guard.index() {
            Some(index) => verify_batch_summary_indexed(
                guard.table(),
                guard.backend(),
                index,
                caches,
                reports,
                threads,
            ),
            None => verify_batch_summary(guard.table(), guard.backend(), reports, threads),
        }
    }
}

impl<B: HeaderSetBackend> Drop for ReaderHandle<B> {
    fn drop(&mut self) {
        self.cell.slots[self.slot].store(0, SeqCst);
        self.cell.claimed[self.slot].store(false, SeqCst);
    }
}

/// Writer-side counters of the publication machinery, mirrored into the obs
/// registry and exposed as plain values for tests and reporting (obs may be
/// compiled out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Versions published (atomic pointer swaps).
    pub publishes: u64,
    /// Retired version buffers recycled after their grace period (every
    /// pinned reader advanced past them).
    pub reclaims: u64,
    /// Publishes that had to deep-clone the master because no retired
    /// buffer was reclaimable within the yield budget.
    pub clone_fallbacks: u64,
    /// Spin-yields spent waiting for a reclaimable buffer.
    pub publish_yields: u64,
}

/// The publication side of the snapshot layer: update log, version pool,
/// and the atomic publish protocol. Deliberately does *not* own the master
/// table — the [`VeriDpServer`](crate::VeriDpServer) keeps its table and
/// backend exactly as before and layers a publisher next to them; the
/// standalone [`ConcurrentTable`] bundles master and publisher for tests,
/// benches, and the demo.
pub struct SnapshotPublisher<B: HeaderSetBackend> {
    cell: Arc<SnapshotCell<B>>,
    /// Update log suffix still needed by the laggiest version buffer.
    log: VecDeque<RuleUpdate>,
    /// Absolute index of `log[0]`.
    log_base: u64,
    /// Total updates recorded since construction.
    total: u64,
    /// Whether published versions carry a [`TagIndex`].
    build_index: bool,
    pool_cap: usize,
    next_seq: u64,
    stats: SnapshotStats,
}

impl<B: HeaderSetBackend> std::fmt::Debug for SnapshotPublisher<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPublisher")
            .field("total_updates", &self.total)
            .field("log_len", &self.log.len())
            .field("next_seq", &self.next_seq)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<B: HeaderSetBackend> SnapshotPublisher<B> {
    /// Create a publisher and publish the first version: a deep copy of
    /// `master` into a fresh backend instance. `build_index` controls
    /// whether versions carry a per-epoch [`TagIndex`] (the fast path).
    pub fn new(master: &PathTable<B>, hs: &B, build_index: bool) -> Self {
        let mut p = SnapshotPublisher {
            cell: Arc::new(SnapshotCell::new()),
            log: VecDeque::new(),
            log_base: 0,
            total: 0,
            build_index,
            pool_cap: DEFAULT_POOL_CAP,
            next_seq: 1,
            stats: SnapshotStats::default(),
        };
        let version = p.clone_version(master, hs);
        p.install(version);
        p
    }

    /// Change the retired-buffer pool cap (number of superseded versions
    /// kept for recycling before publish clones instead).
    pub fn set_pool_cap(&mut self, cap: usize) {
        self.pool_cap = cap.max(1);
    }

    /// Record one applied update in the log. The caller must have applied
    /// the same update to the master table already (or do so before the
    /// next [`publish`](Self::publish)); versions replay the log in order.
    pub fn record(&mut self, upd: RuleUpdate) {
        self.log.push_back(upd);
        self.total += 1;
    }

    /// Register a new reader. Handles are `Send`; hand them to verify
    /// threads before starting churn.
    ///
    /// # Panics
    /// Panics when every reader slot is taken; [`Self::try_reader`] reports
    /// that as `None` instead.
    pub fn reader(&self) -> ReaderHandle<B> {
        self.try_reader()
            .expect("snapshot reader limit (64 handles) exceeded")
    }

    /// [`Self::reader`] for callers whose reader count comes from
    /// configuration: `None` when all 64 slots are taken (a dropped handle
    /// frees its slot).
    pub fn try_reader(&self) -> Option<ReaderHandle<B>> {
        ReaderHandle::register(Arc::clone(&self.cell))
    }

    /// Sequence number of the currently-published version.
    pub fn published_seq(&self) -> u64 {
        self.cell.publish_seq.load(SeqCst)
    }

    /// Epoch of the currently-published version's table.
    pub fn published_epoch(&self) -> u64 {
        let ptr = self.cell.current.load(SeqCst);
        // SAFETY: published versions are immutable and outlive the cell's
        // registry; `&self` keeps the cell alive.
        unsafe { (*ptr).table.epoch() }
    }

    /// Number of live version allocations (published + retired pool).
    pub fn live_versions(&self) -> usize {
        self.cell
            .versions
            .lock()
            .expect("snapshot registry poisoned")
            .len()
    }

    /// Writer-side publication counters.
    pub fn stats(&self) -> &SnapshotStats {
        &self.stats
    }

    /// Whether the published version already reflects every recorded
    /// update.
    pub fn is_current(&self) -> bool {
        let ptr = self.cell.current.load(SeqCst);
        // SAFETY: as in `published_epoch`.
        unsafe { (*ptr).applied == self.total }
    }

    /// Publish a version reflecting every recorded update. Recycles a
    /// retired buffer when one is past its grace period (replaying only the
    /// log entries it missed — O(delta)); falls back to deep-cloning
    /// `master` when the pool is empty or every buffer is still pinned.
    /// No-op when the published version is already current.
    pub fn publish(&mut self, master: &PathTable<B>, hs: &B) {
        if self.is_current() {
            return;
        }
        let _span = obs::histogram!("veridp_snapshot_publish_ns").start_span();
        let version = match self.acquire_buffer() {
            Some(v) => v,
            None => {
                self.stats.clone_fallbacks += 1;
                obs::counter!("veridp_snapshot_clone_fallbacks_total").inc();
                self.clone_version(master, hs)
            }
        };
        self.install(version);
        self.trim_log();
        self.shrink_pool();
    }

    /// Free reclaimable buffers beyond the pool cap — clone fallbacks taken
    /// while readers were slow must not inflate memory forever.
    fn shrink_pool(&mut self) {
        let current = self.cell.current.load(SeqCst);
        let mut versions = self
            .cell
            .versions
            .lock()
            .expect("snapshot registry poisoned");
        let mut i = 0;
        while versions.len() > self.pool_cap + 1 && i < versions.len() {
            let v = &versions[i];
            // SAFETY: reading `seq` of a version we own.
            if v.0 != current && self.cell.reclaimable(unsafe { (*v.0).seq }) {
                let ptr = versions.swap_remove(i);
                // SAFETY: withdrawn, not current, provably unpinned (and
                // never re-pinnable) — exclusive ownership.
                drop(unsafe { Box::from_raw(ptr.0) });
                continue;
            }
            i += 1;
        }
        obs::gauge!("veridp_snapshot_live_versions").set(versions.len() as i64);
    }

    /// Withdraw a reclaimable retired buffer from the pool and bring it up
    /// to date by replaying the log it missed. Returns `None` when no
    /// buffer becomes reclaimable within the yield budget.
    fn acquire_buffer(&mut self) -> Option<Box<TableVersion<B>>> {
        for round in 0..=PUBLISH_YIELDS {
            let current = self.cell.current.load(SeqCst);
            let mut versions = self
                .cell
                .versions
                .lock()
                .expect("snapshot registry poisoned");
            if versions.len() <= self.pool_cap {
                // Pool not full yet: prefer growing it over waiting, so a
                // long-pinned reader never slows the writer down.
                return None;
            }
            let pos = versions.iter().position(|v| {
                v.0 != current && {
                    // SAFETY: reading `seq` of a version we own; concurrent
                    // readers only read too.
                    let seq = unsafe { (*v.0).seq };
                    self.cell.reclaimable(seq)
                }
            });
            if let Some(pos) = pos {
                let ptr = versions.swap_remove(pos);
                drop(versions);
                self.stats.reclaims += 1;
                obs::counter!("veridp_snapshot_reclaims_total").inc();
                // SAFETY: the buffer is withdrawn from the registry, is not
                // the published version, and `reclaimable` proved no reader
                // holds or can re-obtain it — exclusive access.
                let mut version = unsafe { Box::from_raw(ptr.0) };
                self.replay(&mut version);
                return Some(version);
            }
            drop(versions);
            if round < PUBLISH_YIELDS {
                self.stats.publish_yields += 1;
                obs::counter!("veridp_snapshot_publish_yields_total").inc();
                std::thread::yield_now();
            }
        }
        None
    }

    /// Replay the log entries `version` missed, converging it to the master
    /// state (same entries, same epoch, same retired-ring contents — the
    /// incremental updater is deterministic given table + update order).
    fn replay(&self, version: &mut TableVersion<B>) {
        debug_assert!(
            version.applied >= self.log_base,
            "log trimmed past a live buffer"
        );
        for i in version.applied..self.total {
            let upd = self.log[(i - self.log_base) as usize];
            version.table.apply(upd, &mut version.hs);
        }
        version.applied = self.total;
        version.index = self.build_index.then(|| TagIndex::build(&version.table));
    }

    /// Deep-copy the master into a brand-new version buffer.
    fn clone_version(&self, master: &PathTable<B>, hs: &B) -> Box<TableVersion<B>> {
        let mut fresh = hs.fork_worker();
        let table = master.translated(hs, &mut fresh);
        let index = self.build_index.then(|| TagIndex::build(&table));
        Box::new(TableVersion {
            table,
            hs: fresh,
            index,
            seq: 0,
            applied: self.total,
        })
    }

    /// Stamp, register, and atomically publish a ready version.
    fn install(&mut self, mut version: Box<TableVersion<B>>) {
        version.seq = self.next_seq;
        self.next_seq += 1;
        let seq = version.seq;
        let ptr = Box::into_raw(version);
        {
            let mut versions = self
                .cell
                .versions
                .lock()
                .expect("snapshot registry poisoned");
            versions.push(VersionPtr(ptr));
            obs::gauge!("veridp_snapshot_live_versions").set(versions.len() as i64);
        }
        // Protocol order: swap the pointer first, then advance the
        // sequence. A reader that observes the new sequence is guaranteed
        // to load this (or a newer) pointer.
        self.cell.current.swap(ptr, SeqCst);
        self.cell.publish_seq.store(seq, SeqCst);
        self.stats.publishes += 1;
        obs::counter!("veridp_snapshot_publishes_total").inc();
    }

    /// Drop log entries every live buffer has already applied.
    fn trim_log(&mut self) {
        let min_applied = {
            let versions = self
                .cell
                .versions
                .lock()
                .expect("snapshot registry poisoned");
            versions
                .iter()
                // SAFETY: reading writer-side bookkeeping of versions we own.
                .map(|v| unsafe { (*v.0).applied })
                .min()
                .unwrap_or(self.total)
        };
        while self.log_base < min_applied {
            self.log.pop_front();
            self.log_base += 1;
        }
    }
}

/// A path table with built-in snapshot publication: the master table, its
/// backend, and a [`SnapshotPublisher`] kept in lock-step. Every
/// [`apply`](Self::apply) runs the incremental update on the master,
/// records it in the log, and publishes — so the published snapshot always
/// carries the master's epoch and readers are never more than one atomic
/// load behind the control plane.
pub struct ConcurrentTable<B: HeaderSetBackend> {
    table: PathTable<B>,
    hs: B,
    publisher: SnapshotPublisher<B>,
}

impl<B: HeaderSetBackend> ConcurrentTable<B> {
    /// Build the master table and publish its first snapshot. `build_index`
    /// enables per-version tag indexes (the verification fast path).
    pub fn build(
        topo: &veridp_topo::Topology,
        rules: &std::collections::HashMap<SwitchId, Vec<FlowRule>>,
        mut hs: B,
        tag_bits: u32,
        build_index: bool,
    ) -> Self {
        let table = PathTable::build(topo, rules, &mut hs, tag_bits);
        let publisher = SnapshotPublisher::new(&table, &hs, build_index);
        ConcurrentTable {
            table,
            hs,
            publisher,
        }
    }

    /// Apply one rule update to the master and publish the new snapshot.
    pub fn apply(&mut self, upd: RuleUpdate) {
        self.table.apply(upd, &mut self.hs);
        self.publisher.record(upd);
        self.publisher.publish(&self.table, &self.hs);
    }

    /// Apply a batch of updates with a single publication at the end
    /// (readers observe the batch atomically).
    pub fn apply_batch(&mut self, upds: &[RuleUpdate]) {
        for upd in upds {
            self.table.apply(*upd, &mut self.hs);
            self.publisher.record(*upd);
        }
        self.publisher.publish(&self.table, &self.hs);
    }

    /// The master path table (writer side; reflects every applied update).
    pub fn table(&self) -> &PathTable<B> {
        &self.table
    }

    /// The master backend.
    pub fn backend(&self) -> &B {
        &self.hs
    }

    /// Register a wait-free reader.
    pub fn reader(&self) -> ReaderHandle<B> {
        self.publisher.reader()
    }

    /// The publication machinery (counters, pool controls).
    pub fn publisher(&self) -> &SnapshotPublisher<B> {
        &self.publisher
    }

    /// Mutable publication machinery ([`SnapshotPublisher::set_pool_cap`]).
    pub fn publisher_mut(&mut self) -> &mut SnapshotPublisher<B> {
        &mut self.publisher
    }
}
