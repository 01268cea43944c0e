//! The report-verification fast path: tag-indexed candidate lookup plus an
//! epoch-invalidated verdict cache.
//!
//! Algorithm 3's steady-state cost is a linear scan over the `(inport,
//! outport)` pair's paths with one header-set containment test per path. Two
//! observations make that cheaper without changing a single verdict:
//!
//! 1. **Most reports match a known tag.** A correctly-forwarded packet
//!    carries exactly the Bloom tag of one of its pair's paths, so indexing
//!    each pair's paths by tag bits ([`TagIndex`]) turns the Pass probe into
//!    a hash lookup followed by containment tests on the (usually one)
//!    candidate. Only failing reports — the rare case — fall back to a scan,
//!    and then only to tell `TagMismatch` from `NoMatchingPath`.
//! 2. **Most reports are repeats.** Long-lived flows are sampled over and
//!    over, producing the same `(inport, outport, header, tag)` triple; a
//!    bounded direct-mapped [`VerdictCache`] (same overwrite-on-collision
//!    design as the BDD kernel's apply cache) answers those without touching
//!    the path table at all.
//!
//! Caching verdicts is safe because Algorithm 3 is a pure function of the
//! report and its pair's path entries: a cached verdict can only go stale
//! when an update changes that pair. Every incremental update bumps the
//! table's [`epoch`](crate::PathTable::epoch) and stamps each pair whose
//! entry list it changed ([`PathTable::pair_changed`]); the [`TagIndex`]
//! of an epoch carries those stamps. A cache slot records the epoch it was
//! filled at. A lookup at the same epoch is the hit path — one key and
//! epoch compare. A slot holding the same report from an older epoch is
//! *revalidated*: re-stamped and served if its pair has not changed since
//! the fill (counted by `veridp_verdict_cache_revalidated_total`),
//! disbelieved otherwise (`veridp_verdict_cache_stale_epoch_total` counts
//! exactly those: verdicts an update really invalidated). No eager flush
//! runs, a stale verdict is never served, and an update costs the readers
//! only the pairs it changed. The index is rebuilt wholesale on epoch
//! change ([`VerifyFastPath::sync`]) — it holds only tag bits, path
//! positions and pair stamps, so a rebuild is a cheap linear pass.
//!
//! Neither structure holds backend handles, so one [`VerifyFastPath`] works
//! unchanged on the BDD and the atom backend, and the sharded batch-ingest
//! pipeline (`crate::parallel`) can share one immutable [`TagIndex`] across
//! workers while giving each worker a private cache.

use std::collections::HashMap;

use veridp_obs as obs;
use veridp_packet::{PortRef, TagReport};

use crate::backend::HeaderSetBackend;
use crate::path_table::{PairStamps, PathTable};
use crate::verify::VerifyOutcome;

/// Per-pair index: tag bits → positions (into the pair's path list) of the
/// paths carrying that tag.
#[derive(Debug, Clone, Default)]
struct PairIndex {
    by_tag: HashMap<u64, Vec<u32>>,
}

/// Immutable snapshot index over one [`PathTable`] at one epoch: for every
/// `(inport, outport)` pair, its paths grouped by tag bits, plus the epoch
/// at which each pair last changed ([`PathTable::pair_changed`]).
#[derive(Debug, Clone)]
pub struct TagIndex {
    epoch: u64,
    pairs: HashMap<(PortRef, PortRef), PairIndex>,
    changed: PairStamps,
}

impl TagIndex {
    /// Build the index for the table's current epoch.
    pub fn build<B: HeaderSetBackend>(table: &PathTable<B>) -> Self {
        let mut pairs: HashMap<(PortRef, PortRef), PairIndex> = HashMap::new();
        for (&pair, list) in table.iter() {
            let idx = pairs.entry(pair).or_default();
            for (i, entry) in list.iter().enumerate() {
                idx.by_tag
                    .entry(entry.tag.bits())
                    .or_default()
                    .push(i as u32);
            }
        }
        TagIndex {
            epoch: table.epoch(),
            pairs,
            changed: table.pair_epochs.clone(),
        }
    }

    /// The table epoch this index was built against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// [`PathTable::pair_changed`] as of this index's epoch.
    pub fn pair_changed(&self, inport: PortRef, outport: PortRef) -> u64 {
        self.changed.get(&(inport, outport)).copied().unwrap_or(0)
    }

    /// Positions of the pair's paths whose tag bits equal `tag_bits`.
    pub fn candidates(&self, inport: PortRef, outport: PortRef, tag_bits: u64) -> &[u32] {
        self.pairs
            .get(&(inport, outport))
            .and_then(|p| p.by_tag.get(&tag_bits))
            .map_or(&[], |v| v.as_slice())
    }
}

/// Initial verdict-cache size: `2^INITIAL_BITS` slots.
const INITIAL_BITS: u32 = 12;

/// Size ceiling: `2^MAX_BITS` slots (48 bytes each — 48 MiB at the cap,
/// reached only after a million-plus distinct reports).
const MAX_BITS: u32 = 20;

/// Golden-ratio-derived odd multiplier (same constant family as the BDD
/// kernel's FxHash).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    inport: PortRef,
    outport: PortRef,
    header: veridp_packet::FiveTuple,
    tag_bits: u64,
    tag_nbits: u32,
}

impl CacheKey {
    fn of(report: &TagReport) -> Self {
        CacheKey {
            inport: report.inport,
            outport: report.outport,
            header: report.header,
            tag_bits: report.tag.bits(),
            tag_nbits: report.tag.nbits(),
        }
    }

    /// Multiply-rotate hash over the key's words. Not keyed — report fields
    /// are not adversary-controlled arena state, and a collision only costs
    /// one recomputation.
    fn hash(&self) -> u64 {
        let words = [
            ((self.inport.switch.0 as u64) << 16) | self.inport.port.0 as u64,
            ((self.outport.switch.0 as u64) << 16) | self.outport.port.0 as u64,
            ((self.header.src_ip as u64) << 32) | self.header.dst_ip as u64,
            ((self.header.proto as u64) << 32)
                | ((self.header.src_port as u64) << 16)
                | self.header.dst_port as u64,
            self.tag_bits,
            self.tag_nbits as u64,
        ];
        let mut h = 0u64;
        for w in words {
            h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        }
        h
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    key: CacheKey,
    /// Table epoch at fill time, or at the last revalidation; a slot is
    /// believed at a later epoch only while its pair has not changed since.
    /// `u64::MAX` marks a never-filled slot (tables would need 2^64 updates
    /// to reach it).
    epoch: u64,
    verdict: VerifyOutcome,
}

const EMPTY_SLOT: CacheSlot = CacheSlot {
    key: CacheKey {
        inport: PortRef {
            switch: veridp_packet::SwitchId(0),
            port: veridp_packet::PortNo(0),
        },
        outport: PortRef {
            switch: veridp_packet::SwitchId(0),
            port: veridp_packet::PortNo(0),
        },
        header: veridp_packet::FiveTuple {
            src_ip: 0,
            dst_ip: 0,
            proto: 0,
            src_port: 0,
            dst_port: 0,
        },
        tag_bits: 0,
        tag_nbits: 0,
    },
    epoch: u64::MAX,
    verdict: VerifyOutcome::NoMatchingPath,
};

/// Bounded, direct-mapped `(inport, outport, header, tag) → verdict` cache
/// with epoch-based lazy invalidation.
///
/// Each key hashes to exactly one slot; a colliding insert evicts the
/// previous entry (losing one only costs a recomputation). Slots remember
/// the table epoch they were filled at, so after a rule change a lookup
/// revalidates against the pair's change stamp without any flush ever
/// running. Grows by doubling (entries dropped, as in the apply cache) up
/// to 2^`MAX_BITS` slots.
#[derive(Debug, Clone)]
pub struct VerdictCache {
    slots: Vec<CacheSlot>,
    mask: u64,
    /// Inserts since the last growth; drives the doubling heuristic.
    inserts: u64,
}

impl Default for VerdictCache {
    fn default() -> Self {
        Self::new()
    }
}

impl VerdictCache {
    /// An empty cache at the initial capacity.
    pub fn new() -> Self {
        let len = 1usize << INITIAL_BITS;
        VerdictCache {
            slots: vec![EMPTY_SLOT; len],
            mask: len as u64 - 1,
            inserts: 0,
        }
    }

    /// Cached verdict for `report` against the table `index` was built
    /// for. A slot filled at this epoch answers directly; one holding the
    /// same report from an older epoch answers iff the report's pair has
    /// not changed since ([`TagIndex::pair_changed`]), and is re-stamped.
    #[inline]
    pub fn lookup(&mut self, report: &TagReport, index: &TagIndex) -> Option<VerifyOutcome> {
        let key = CacheKey::of(report);
        let epoch = index.epoch();
        let s = &mut self.slots[(key.hash() & self.mask) as usize];
        if s.epoch == epoch && s.key == key {
            return Some(s.verdict);
        }
        if s.epoch < epoch && s.key == key {
            return Self::revalidate(s, index);
        }
        None
    }

    /// A slot holding the report at an older epoch (never-filled slots
    /// carry `u64::MAX`, so never land here): its verdict still holds iff
    /// the report's pair has not changed since the fill — Algorithm 3 reads
    /// nothing else — and is then re-stamped to the index's epoch and
    /// served. Otherwise the slot is stale: counted, and recomputed by the
    /// caller. Kept out of line so the hit path stays one compare.
    #[cold]
    #[inline(never)]
    fn revalidate(s: &mut CacheSlot, index: &TagIndex) -> Option<VerifyOutcome> {
        if index.pair_changed(s.key.inport, s.key.outport) <= s.epoch {
            s.epoch = index.epoch();
            obs::counter!("veridp_verdict_cache_revalidated_total").inc();
            return Some(s.verdict);
        }
        obs::counter!("veridp_verdict_cache_stale_epoch_total").inc();
        None
    }

    /// Record `verdict` for `report` at `epoch`, evicting whatever occupied
    /// the slot.
    pub fn insert(&mut self, report: &TagReport, epoch: u64, verdict: VerifyOutcome) {
        let key = CacheKey::of(report);
        let idx = (key.hash() & self.mask) as usize;
        self.slots[idx] = CacheSlot {
            key,
            epoch,
            verdict,
        };
        self.inserts += 1;
        if self.inserts > self.slots.len() as u64 && self.slots.len() < (1 << MAX_BITS) {
            self.grow();
        }
    }

    /// Double the table, dropping entries (a cold restart is cheaper than
    /// rehashing slots that are mostly about to be evicted anyway).
    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(len, EMPTY_SLOT);
        self.mask = len as u64 - 1;
        self.inserts = 0;
    }

    /// Current slot count (diagnostics).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Hit/miss counters of a fast-path instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Verdicts answered from the cache.
    pub hits: u64,
    /// Verdicts computed via the tag index (and cached).
    pub misses: u64,
}

impl FastPathStats {
    /// Fold another instance's counters in (per-worker stats of the sharded
    /// batch pipeline).
    pub fn merge(&mut self, other: &FastPathStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Fraction of verdicts served from the cache (0 when nothing was
    /// verified yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The layered verification fast path: a [`TagIndex`] for the Pass probe, a
/// [`VerdictCache`] in front of it, and per-worker caches for the sharded
/// batch pipeline — all bound to one [`PathTable`] by epoch.
///
/// Holds no backend handles, so one instance serves a table on any
/// [`HeaderSetBackend`]. Use [`VerifyFastPath::verify`] on the hot loop;
/// the state re-syncs itself whenever the table's epoch moved.
#[derive(Debug, Clone, Default)]
pub struct VerifyFastPath {
    index: Option<TagIndex>,
    cache: VerdictCache,
    /// Private per-worker caches of the sharded batch pipeline, kept warm
    /// across batches. `workers[i]` belongs exclusively to worker `i`.
    workers: Vec<VerdictCache>,
    stats: FastPathStats,
}

impl VerifyFastPath {
    /// A fresh fast path; the first [`verify`](Self::verify) or
    /// [`sync`](Self::sync) against a table builds the index.
    pub fn new() -> Self {
        VerifyFastPath {
            index: None,
            cache: VerdictCache::new(),
            workers: Vec::new(),
            stats: FastPathStats::default(),
        }
    }

    /// Bring the index up to the table's current epoch (no-op when already
    /// current). Cached verdicts need no flush: their slots carry the epoch
    /// they were filled at and stop matching on their own.
    pub fn sync<B: HeaderSetBackend>(&mut self, table: &PathTable<B>) {
        if self
            .index
            .as_ref()
            .is_none_or(|idx| idx.epoch() != table.epoch())
        {
            self.index = Some(TagIndex::build(table));
        }
    }

    /// The current index (present once synced against a table).
    pub fn index(&self) -> Option<&TagIndex> {
        self.index.as_ref()
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> FastPathStats {
        self.stats
    }

    /// Fold externally-collected counters in (the batch pipeline's
    /// per-worker stats).
    pub(crate) fn record(&mut self, stats: &FastPathStats) {
        self.stats.merge(stats);
    }

    /// Ensure `n` private worker caches exist, and borrow the (immutable)
    /// index alongside them — the shape the sharded batch pipeline needs:
    /// one shared read-only index, `n` exclusively-owned caches.
    ///
    /// # Panics
    /// Panics if [`sync`](Self::sync) has not run yet.
    pub(crate) fn index_and_workers(&mut self, n: usize) -> (&TagIndex, &mut [VerdictCache]) {
        if self.workers.len() < n {
            self.workers.resize_with(n, VerdictCache::new);
        }
        (
            self.index
                .as_ref()
                .expect("sync() before index_and_workers"),
            &mut self.workers[..n],
        )
    }

    /// Verify one report through the cache and index, updating counters.
    /// Identical verdict to [`PathTable::verify`] on the same table.
    pub fn verify<B: HeaderSetBackend>(
        &mut self,
        table: &PathTable<B>,
        hs: &B,
        report: &TagReport,
    ) -> VerifyOutcome {
        let (outcome, _hit) = self.verify_flagged(table, hs, report);
        outcome
    }

    /// [`verify`](Self::verify), additionally reporting whether the verdict
    /// came from the cache (the server folds this into [`crate::ServerStats`]).
    pub fn verify_flagged<B: HeaderSetBackend>(
        &mut self,
        table: &PathTable<B>,
        hs: &B,
        report: &TagReport,
    ) -> (VerifyOutcome, bool) {
        self.sync(table);
        let epoch = table.epoch();
        let index = self.index.as_ref().expect("sync populated the index");
        if let Some(v) = self.cache.lookup(report, index) {
            // Cache hits run instruction-identical to the obs-off build:
            // all latency sampling lives on the miss path below, and the
            // hit count itself is mirrored from `stats` pull-style.
            self.stats.hits += 1;
            return (v, true);
        }
        // Decimated span over the computed-verdict (miss) path: index probe,
        // containment tests, cache fill. Hit latency is the verdict-cache
        // lookup itself — effectively constant — so sampling misses is what
        // tells an operator whether the index is doing its job.
        let _span = obs::sampled_span!(obs::histogram!("veridp_fastpath_miss_ns"), 16);
        let v = table.verify_indexed(report, hs, index);
        self.cache.insert(report, epoch, v);
        self.stats.misses += 1;
        (v, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridp_bloom::BloomTag;
    use veridp_packet::FiveTuple;

    fn report(seed: u32) -> TagReport {
        let header = FiveTuple::tcp(seed, seed.wrapping_mul(31), 40000, 80);
        TagReport::new(
            PortRef::new(1, 1),
            PortRef::new(2, 2),
            header,
            BloomTag::from_bits((seed as u64) & 0xffff, 16),
        )
    }

    /// An index at `epoch` whose only changed pair is `r`'s, stamped
    /// `changed`.
    fn at(epoch: u64, r: &TagReport, changed: u64) -> TagIndex {
        TagIndex {
            epoch,
            pairs: HashMap::new(),
            changed: HashMap::from([((r.inport, r.outport), changed)]),
        }
    }

    #[test]
    fn cache_hit_after_insert_and_epoch_miss() {
        let mut c = VerdictCache::new();
        let r = report(7);
        assert_eq!(c.lookup(&r, &at(0, &r, 0)), None);
        c.insert(&r, 0, VerifyOutcome::Pass);
        assert_eq!(c.lookup(&r, &at(0, &r, 0)), Some(VerifyOutcome::Pass));
        // An epoch bump that changed the report's pair invalidates without
        // any flush.
        assert_eq!(c.lookup(&r, &at(1, &r, 1)), None);
        // Re-filling at the new epoch works, and the old epoch is dead.
        c.insert(&r, 1, VerifyOutcome::TagMismatch);
        assert_eq!(
            c.lookup(&r, &at(1, &r, 1)),
            Some(VerifyOutcome::TagMismatch)
        );
        assert_eq!(c.lookup(&r, &at(0, &r, 0)), None);
    }

    #[test]
    fn epoch_bump_elsewhere_revalidates_and_restamps() {
        let mut c = VerdictCache::new();
        let r = report(7);
        c.insert(&r, 3, VerifyOutcome::Pass);
        // Pair last changed at 3, when the verdict was filled: still good
        // at epoch 5, and re-stamped to it.
        assert_eq!(c.lookup(&r, &at(5, &r, 3)), Some(VerifyOutcome::Pass));
        assert_eq!(
            c.slots[(CacheKey::of(&r).hash() & c.mask) as usize].epoch,
            5
        );
        // A later change of the pair kills it.
        assert_eq!(c.lookup(&r, &at(7, &r, 6)), None);
        // An index older than the fill never vouches for it.
        c.insert(&r, 9, VerifyOutcome::Pass);
        assert_eq!(c.lookup(&r, &at(8, &r, 0)), None);
    }

    #[test]
    fn cache_distinguishes_full_key() {
        let mut c = VerdictCache::new();
        let r = report(7);
        let idx = at(0, &r, 0);
        c.insert(&r, 0, VerifyOutcome::Pass);
        // Same bits, different width: different tag, must miss.
        let mut wider = r;
        wider.tag = BloomTag::from_bits(r.tag.bits(), 32);
        assert_eq!(c.lookup(&wider, &idx), None);
        let mut other_pair = r;
        other_pair.outport = PortRef::new(3, 1);
        assert_eq!(c.lookup(&other_pair, &idx), None);
    }

    #[test]
    fn collision_evicts_rather_than_grows_unboundedly() {
        let mut c = VerdictCache::new();
        let n = 1u32 << 21;
        for i in 0..n {
            c.insert(&report(i), 0, VerifyOutcome::Pass);
        }
        assert!(c.capacity() <= 1 << MAX_BITS);
        // Whatever survived the evictions must still answer correctly.
        let mut hits = 0u32;
        for i in 0..n {
            let r = report(i);
            if let Some(v) = c.lookup(&r, &at(0, &r, 0)) {
                assert_eq!(v, VerifyOutcome::Pass);
                hits += 1;
            }
        }
        assert!(hits > 0);
    }

    #[test]
    fn cache_grows_up_to_cap() {
        let mut c = VerdictCache::new();
        let initial = c.capacity();
        for i in 0..(1u32 << 21) {
            c.insert(&report(i), 0, VerifyOutcome::NoMatchingPath);
        }
        assert!(c.capacity() > initial);
        assert_eq!(c.capacity(), 1 << MAX_BITS);
    }
}
