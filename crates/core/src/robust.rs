//! Robust report ingest: deduplication, quarantine, and their knobs.
//!
//! Reports reach the server over a lossy, reordering, duplicating transport
//! (plain UDP in the paper, §5). The robust ingest path
//! ([`crate::VeriDpServer::ingest_robust`]) layers three defenses over plain
//! verification, each bounded and counted:
//!
//! 1. **Deduplication** ([`RecentFilter`]) — an exact bounded filter over
//!    recently-seen reports, so a duplicated frame neither double-counts
//!    statistics nor double-feeds alarm confirmation.
//! 2. **Epoch grace** ([`crate::grace`]) — failing reports sampled before
//!    the table's current epoch are re-checked against recently-retired
//!    paths.
//! 3. **Quarantine** — a failing old-epoch report that grace cannot explain
//!    is *held*, not failed: it may be a mixed-epoch trajectory (sampled
//!    while an update was propagating hop by hop). Once updates settle
//!    ([`crate::VeriDpServer::settle`]) the quarantine drains through
//!    grace-aware re-verification and only then do verdicts land in the
//!    statistics and the alarm aggregator. Overflow sheds the oldest report
//!    by resolving it immediately (counted, never silently dropped).
//!
//! With no update in flight (every report stamped with the current epoch)
//! none of the three arms can trigger, and robust ingest is bit-identical to
//! plain verification — the differential suite asserts this.

use std::collections::VecDeque;

use veridp_packet::TagReport;

/// Tuning for the robust ingest path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobustConfig {
    /// Entries kept by the duplicate filter. Must exceed the largest burst
    /// between a frame and its duplicate; defaults comfortably above any
    /// realistic reorder window.
    pub dedup_capacity: usize,
    /// Maximum reports held in quarantine before overflow shedding.
    pub quarantine_capacity: usize,
    /// Epoch-grace ring depth applied to the path table on enable
    /// (see [`crate::DEFAULT_GRACE_DEPTH`]).
    pub grace_depth: usize,
    /// Alarm confirmation threshold K: a `(pair, suspect)` needs K distinct
    /// failing observations before its alarm is confirmed.
    pub confirm_k: u64,
    /// Sliding confirmation window N (in failing observations): only the
    /// last N failures network-wide can contribute to a confirmation.
    pub confirm_window: u64,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            dedup_capacity: 8192,
            quarantine_capacity: 4096,
            grace_depth: crate::grace::DEFAULT_GRACE_DEPTH,
            confirm_k: 3,
            confirm_window: 256,
        }
    }
}

/// Exact bounded filter over recently-seen reports (FIFO eviction).
///
/// Exactness matters: a probabilistic filter would occasionally swallow a
/// *fresh* report, and under K-of-N confirmation every genuine failing
/// observation counts. The window only needs to cover the transport's
/// duplication horizon, so a few thousand entries suffice.
///
/// One copy of each remembered report lives in a ring (arrival order, so
/// the oldest is always at `head`), found through an open-addressed index
/// of ring positions. Reports come off the wire, so the index hash is keyed
/// by a per-instance random seed: a sender that cannot read the seed cannot
/// aim reports at one probe chain. A collision never costs exactness — a
/// slot only matches after the full report compares equal — only time.
#[derive(Debug)]
pub struct RecentFilter {
    capacity: usize,
    /// The remembered reports; grows to `capacity`, then wraps.
    ring: Vec<TagReport>,
    /// Ring position of the oldest report once the ring is full.
    head: usize,
    /// Linear-probing table, a power of two at least twice the ring. A slot
    /// is 0 when empty, else `(ring position + 1) << 32 | low 32 hash bits`.
    index: Vec<u64>,
    seed: (u64, u64),
}

impl Default for RecentFilter {
    /// A zero-capacity filter (dedup disabled).
    fn default() -> Self {
        RecentFilter::new(0)
    }
}

/// `a * b` with the high half folded into the low one: the mixing step of
/// the keyed hash (as in aHash's fallback and foldhash).
#[inline]
fn folded_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

impl RecentFilter {
    /// Ring positions are stored in 32 bits next to 32 hash bits.
    const MAX_CAPACITY: usize = 1 << 30;

    /// A filter remembering at most `capacity` recent reports (at most
    /// 2^30; ring and index grow as reports arrive).
    pub fn new(capacity: usize) -> Self {
        let seeds = std::collections::hash_map::RandomState::new();
        RecentFilter {
            capacity: capacity.min(Self::MAX_CAPACITY),
            ring: Vec::new(),
            head: 0,
            index: vec![0; 2],
            seed: (
                std::hash::BuildHasher::hash_one(&seeds, 0u8),
                std::hash::BuildHasher::hash_one(&seeds, 1u8) | 1,
            ),
        }
    }

    /// Keyed hash over the fields [`TagReport`] equality covers (never
    /// `origin_ns`: a re-sent report is the same observation).
    #[inline]
    fn hash(&self, r: &TagReport) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let words = [
            u64::from(r.inport.switch.0)
                | u64::from(r.inport.port.0) << 32
                | u64::from(r.header.src_port) << 48,
            u64::from(r.outport.switch.0)
                | u64::from(r.outport.port.0) << 32
                | u64::from(r.header.dst_port) << 48,
            u64::from(r.header.src_ip) | u64::from(r.header.dst_ip) << 32,
            u64::from(r.tag.nbits()) | u64::from(r.header.proto) << 32,
            r.tag.bits(),
            r.epoch,
        ];
        let mixed = words.iter().fold(self.seed.0, |h, &w| folded_mul(h ^ w, K));
        folded_mul(mixed, self.seed.1)
    }

    /// Where `report` is indexed: `Ok(slot)` holding it, or `Err(slot)`,
    /// the empty slot that ends its probe chain.
    #[inline]
    fn probe(&self, report: &TagReport, hash: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.index[i] {
                0 => return Err(i),
                slot if slot as u32 == hash as u32
                    && self.ring[(slot >> 32) as usize - 1] == *report =>
                {
                    return Ok(i)
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Empty slot `i`, closing the gap so no probe chain is cut: each
    /// later entry of the run moves back unless that would put it before
    /// its home slot.
    fn unindex(&mut self, mut i: usize) {
        let mask = self.index.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let slot = self.index[j];
            if slot == 0 {
                break;
            }
            let home = slot as u32 as usize & mask;
            // `home` cyclically outside (i, j]: the entry may sit at `i`.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.index[i] = slot;
                i = j;
            }
        }
        self.index[i] = 0;
    }

    /// Record a report; `true` if it is fresh (not currently in the window),
    /// `false` if it duplicates a recent one. A zero-capacity filter treats
    /// everything as fresh (dedup disabled).
    pub fn insert(&mut self, report: &TagReport) -> bool {
        if self.capacity == 0 {
            return true;
        }
        let hash = self.hash(report);
        if self.probe(report, hash).is_ok() {
            return false;
        }
        let pos = if self.ring.len() < self.capacity {
            self.ring.push(*report);
            self.ring.len() - 1
        } else {
            // Full: the newcomer takes the oldest report's ring position.
            let oldest = self.ring[self.head];
            let slot = self
                .probe(&oldest, self.hash(&oldest))
                .expect("every remembered report is indexed");
            self.unindex(slot);
            self.ring[self.head] = *report;
            let pos = self.head;
            self.head = (self.head + 1) % self.capacity;
            pos
        };
        if self.ring.len() * 2 > self.index.len() {
            // Keep the table at most half full: double it and re-enter
            // every remembered report, the newcomer included.
            self.index = vec![0; self.index.len() * 2];
            for pos in 0..self.ring.len() {
                self.enter(pos, self.hash(&self.ring[pos]));
            }
        } else {
            self.enter(pos, hash);
        }
        true
    }

    /// Index the (not yet indexed) report at ring position `pos`.
    fn enter(&mut self, pos: usize, hash: u64) {
        let free = self
            .probe(&self.ring[pos], hash)
            .expect_err("remembered reports are distinct");
        self.index[free] = (pos as u64 + 1) << 32 | u64::from(hash as u32);
    }

    /// Number of reports currently remembered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the filter is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// What [`crate::VeriDpServer::ingest_robust`] did with one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Duplicate of a recently-seen report; dropped, counted.
    Duplicate,
    /// Passed plain verification.
    Passed,
    /// Failed plain verification but a retired path explains it (update
    /// race); counted as a pass.
    Graced,
    /// Old-epoch failure grace could not explain; held for
    /// [`crate::VeriDpServer::settle`].
    Quarantined,
    /// Current-epoch failure: verified, localized, fed to alarms.
    Failed,
}

/// Mutable state of the robust ingest path, owned by the server while
/// robust mode is enabled.
pub struct RobustState {
    pub config: RobustConfig,
    pub(crate) filter: RecentFilter,
    pub(crate) quarantine: VecDeque<TagReport>,
    /// Alarm aggregation with K-of-N confirmation, fed only by resolved
    /// (non-duplicate, non-graced) failures.
    pub alarms: crate::server::AlarmAggregator,
}

impl std::fmt::Debug for RobustState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobustState")
            .field("config", &self.config)
            .field("filter", &self.filter.len())
            .field("quarantine", &self.quarantine.len())
            .finish()
    }
}

impl RobustState {
    /// Fresh state for the given configuration.
    pub fn new(config: RobustConfig) -> Self {
        let filter = RecentFilter::new(config.dedup_capacity);
        let alarms = crate::server::AlarmAggregator::with_confirmation(
            config.confirm_k,
            config.confirm_window,
        );
        RobustState {
            config,
            filter,
            quarantine: VecDeque::new(),
            alarms,
        }
    }

    /// Reports currently held in quarantine.
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }
}
