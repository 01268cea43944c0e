//! The path table and its construction (Algorithm 2, §3.4 and §4.1).
//!
//! The table is generic over the header-set representation
//! ([`HeaderSetBackend`]): `PathTable` defaults to the BDD backend
//! ([`HeaderSpace`]), `PathTable<AtomSpace>` runs the identical algorithm on
//! the atom-partition backend. Both produce the same pairs, hop sequences,
//! and tags; the differential test suite asserts this on every supported
//! topology.

use std::collections::HashMap;

use veridp_bloom::BloomTag;
use veridp_packet::{FiveTuple, Hop, PortNo, PortRef, SwitchId, DROP_PORT, MAX_PATH_LENGTH};
use veridp_switch::{FlowRule, Match};
use veridp_topo::Topology;

use crate::backend::HeaderSetBackend;
use crate::grace::{RetiredRing, DEFAULT_GRACE_DEPTH};
use crate::headerspace::HeaderSpace;
use crate::predicates::SwitchPredicates;

/// One path for an `(inport, outport)` pair: the header set admitted on it,
/// the hop sequence, and the Bloom tag a correctly-forwarded packet would
/// carry.
pub struct PathEntry<B: HeaderSetBackend = HeaderSpace> {
    pub headers: B::Set,
    pub hops: Vec<Hop>,
    pub tag: BloomTag,
}

impl<B: HeaderSetBackend> std::fmt::Debug for PathEntry<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathEntry")
            .field("headers", &self.headers)
            .field("hops", &self.hops)
            .field("tag", &self.tag)
            .finish()
    }
}

impl<B: HeaderSetBackend> Clone for PathEntry<B> {
    fn clone(&self) -> Self {
        PathEntry {
            headers: self.headers,
            hops: self.hops.clone(),
            tag: self.tag,
        }
    }
}

impl<B: HeaderSetBackend> PathEntry<B> {
    /// The exit port of the path, or `None` for an entry with no recorded
    /// hops. Construction always records at least one hop, so `None` never
    /// occurs for table-built entries — but the accessor stays total instead
    /// of panicking on hand-assembled values.
    pub fn outport(&self) -> Option<PortRef> {
        self.hops.last().map(|last| last.out_ref())
    }
}

/// A header set that reached some switch during construction, with the path
/// it took to get there. Kept so the incremental update (§4.4) can resume
/// traversal at the modified switch instead of rebuilding.
pub struct ReachRecord<B: HeaderSetBackend = HeaderSpace> {
    /// The network entry port of this traversal.
    pub inport: PortRef,
    /// Where the headers arrived: switch and local in-port.
    pub at: PortRef,
    /// The headers that got this far.
    pub headers: B::Set,
    /// Hops completed before arriving (empty at the entry switch).
    pub hops: Vec<Hop>,
    /// Tag accumulated so far.
    pub tag: BloomTag,
}

impl<B: HeaderSetBackend> std::fmt::Debug for ReachRecord<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReachRecord")
            .field("inport", &self.inport)
            .field("at", &self.at)
            .field("headers", &self.headers)
            .field("hops", &self.hops)
            .field("tag", &self.tag)
            .finish()
    }
}

impl<B: HeaderSetBackend> Clone for ReachRecord<B> {
    fn clone(&self) -> Self {
        ReachRecord {
            inport: self.inport,
            at: self.at,
            headers: self.headers,
            hops: self.hops.clone(),
            tag: self.tag,
        }
    }
}

/// Per `(inport, outport)` pair, the epoch at which an update last changed
/// its entry list ([`PathTable::pair_changed`]).
pub(crate) type PairStamps = HashMap<(PortRef, PortRef), u64>;

/// Aggregate statistics for Table 2 / Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTableStats {
    /// Number of `(inport, outport)` pairs with at least one path.
    pub num_pairs: usize,
    /// Total number of paths.
    pub num_paths: usize,
    /// Mean path length in hops.
    pub avg_path_len: f64,
    /// Histogram of paths-per-pair: `histogram[k]` = number of pairs with
    /// exactly `k+1` paths.
    pub paths_per_pair: Vec<usize>,
}

/// The path table: for every `(inport, outport)` pair, the list of paths a
/// packet may legitimately take, each with its header set and tag.
pub struct PathTable<B: HeaderSetBackend = HeaderSpace> {
    topo: Topology,
    tag_bits: u32,
    max_hops: usize,
    /// Whether reach records are kept (required for incremental update;
    /// [`PathTable::build_static`] skips them to save memory at scale).
    track_reach: bool,
    /// Update generation: bumped on every incremental rule change. The
    /// verification fast path ([`crate::VerifyFastPath`]) keys its tag index
    /// and verdict cache on this, so stale index entries and cached verdicts
    /// are lazily invalidated the moment the table changes.
    epoch: u64,
    /// Recently-retired path entries, kept so reports sampled before an
    /// incremental update can still be verified against the table state they
    /// actually traversed (epoch-grace verification, [`crate::grace`]).
    pub(crate) retired: RetiredRing<B>,
    /// Per-switch transfer predicates, which also hold the switch's
    /// logical rules (the control-plane view `R`).
    pub(crate) preds: HashMap<SwitchId, SwitchPredicates<B>>,
    pub(crate) entries: HashMap<(PortRef, PortRef), Vec<PathEntry<B>>>,
    /// Per pair, the epoch at which an update last changed its entry list
    /// (absent: not since the build). Kept when a pair loses its last entry.
    pub(crate) pair_epochs: PairStamps,
    pub(crate) reach: HashMap<SwitchId, Vec<ReachRecord<B>>>,
}

impl<B: HeaderSetBackend> std::fmt::Debug for PathTable<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathTable")
            .field("tag_bits", &self.tag_bits)
            .field("max_hops", &self.max_hops)
            .field("track_reach", &self.track_reach)
            .field("pairs", &self.entries.len())
            .finish()
    }
}

impl<B: HeaderSetBackend> PathTable<B> {
    /// Build the table from the topology and per-switch logical rules,
    /// traversing from every host-facing edge port (the network's entry
    /// points). `tag_bits` is the Bloom tag width used for path tags.
    pub fn build(
        topo: &Topology,
        rules: &HashMap<SwitchId, Vec<FlowRule>>,
        hs: &mut B,
        tag_bits: u32,
    ) -> Self {
        Self::build_inner(topo, rules, hs, tag_bits, true)
    }

    /// Like [`PathTable::build`], but without reach records: roughly halves
    /// memory on large workloads at the cost of incremental updates
    /// (add/delete/modify will panic; rebuild instead).
    pub fn build_static(
        topo: &Topology,
        rules: &HashMap<SwitchId, Vec<FlowRule>>,
        hs: &mut B,
        tag_bits: u32,
    ) -> Self {
        Self::build_inner(topo, rules, hs, tag_bits, false)
    }

    /// Empty table skeleton shared by the builds: topology recorded,
    /// predicates and entries not yet computed.
    pub(crate) fn new_empty(topo: &Topology, tag_bits: u32, track_reach: bool) -> Self {
        PathTable {
            topo: topo.clone(),
            tag_bits,
            max_hops: MAX_PATH_LENGTH as usize,
            track_reach,
            epoch: 0,
            retired: RetiredRing::new(DEFAULT_GRACE_DEPTH),
            preds: HashMap::new(),
            entries: HashMap::new(),
            pair_epochs: HashMap::new(),
            reach: HashMap::new(),
        }
    }

    /// Batch-announce every rule match to the backend before predicate
    /// computation ([`HeaderSetBackend::prepare`]); the atom backend builds
    /// its whole partition here in one pass.
    pub(crate) fn prepare_backend(rules: &HashMap<SwitchId, Vec<FlowRule>>, hs: &mut B) {
        let matches: Vec<Match> = rules
            .values()
            .flat_map(|v| v.iter().map(|r| r.fields))
            .collect();
        hs.prepare(&matches);
    }

    fn build_inner(
        topo: &Topology,
        rules: &HashMap<SwitchId, Vec<FlowRule>>,
        hs: &mut B,
        tag_bits: u32,
        track_reach: bool,
    ) -> Self {
        let mut table = Self::new_empty(topo, tag_bits, track_reach);
        Self::prepare_backend(rules, hs);
        for info in topo.switches() {
            let ports: Vec<PortNo> = (1..=info.num_ports).map(PortNo).collect();
            let list = rules.get(&info.id).map_or(&[][..], |v| v.as_slice());
            table.preds.insert(
                info.id,
                SwitchPredicates::from_rules(info.id, &ports, list, hs),
            );
        }
        let entry_ports: Vec<PortRef> = topo
            .host_ports()
            .into_iter()
            .filter(|p| topo.is_terminal_port(*p))
            .collect();
        for inport in entry_ports {
            let full = hs.full();
            table.traverse(
                inport,
                inport,
                full,
                Vec::new(),
                BloomTag::empty(tag_bits),
                hs,
            );
        }
        table
    }

    /// Build the table from precomputed transfer predicates (the §4.1
    /// configuration pipeline: forwarding + in/out-bound ACLs composed by
    /// [`crate::config::SwitchConfig::predicates`]).
    ///
    /// Tables built this way carry no per-switch rule lists, so the
    /// rule-granular incremental update is unavailable — rebuild on change
    /// (configuration files change far less often than OpenFlow rules).
    pub fn build_with_predicates(
        topo: &Topology,
        preds: HashMap<SwitchId, SwitchPredicates<B>>,
        hs: &mut B,
        tag_bits: u32,
    ) -> Self {
        let mut table = PathTable {
            preds,
            ..Self::new_empty(topo, tag_bits, true)
        };
        let entry_ports: Vec<PortRef> = topo
            .host_ports()
            .into_iter()
            .filter(|p| topo.is_terminal_port(*p))
            .collect();
        for inport in entry_ports {
            let full = hs.full();
            table.traverse(
                inport,
                inport,
                full,
                Vec::new(),
                BloomTag::empty(tag_bits),
                hs,
            );
        }
        table
    }

    /// Tag width used by this table.
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// Whether reach records are kept (i.e. incremental update is available).
    pub fn tracks_reach(&self) -> bool {
        self.track_reach
    }

    /// Current update generation. Every incremental rule change bumps this;
    /// fast-path state built against an older epoch must be refreshed before
    /// use (see [`crate::VerifyFastPath::sync`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mark the table as changed, invalidating all fast-path state derived
    /// from it.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The epoch at which an update last changed the pair's entry list (0:
    /// not since the build). A verdict on the pair computed at epoch `e`
    /// still holds at the current epoch iff this is `<= e`: Algorithm 3
    /// reads nothing but the pair's entries.
    pub fn pair_changed(&self, inport: PortRef, outport: PortRef) -> u64 {
        self.pair_epochs
            .get(&(inport, outport))
            .copied()
            .unwrap_or(0)
    }

    /// The ring of recently-retired path entries (epoch-grace state).
    pub fn retired_ring(&self) -> &RetiredRing<B> {
        &self.retired
    }

    /// Resize the epoch-grace ring. Depth 0 disables grace: retired entries
    /// are discarded immediately and [`PathTable::grace_check`] never hits.
    pub fn set_grace_depth(&mut self, depth: usize) {
        self.retired.set_depth(depth);
    }

    /// The monitored topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Predicates of one switch.
    pub fn predicates(&self, s: SwitchId) -> Option<&SwitchPredicates<B>> {
        self.preds.get(&s)
    }

    /// Algorithm 2, one step: expand header set `h` arriving at `⟨s,x⟩ = at`,
    /// with path `hops` and tag `tag` accumulated so far.
    pub(crate) fn traverse(
        &mut self,
        inport: PortRef,
        at: PortRef,
        h: B::Set,
        hops: Vec<Hop>,
        tag: BloomTag,
        hs: &mut B,
    ) {
        let mut t = Traversal {
            topo: &self.topo,
            preds: &self.preds,
            tag_bits: self.tag_bits,
            max_hops: self.max_hops,
            track_reach: self.track_reach,
            entries: &mut self.entries,
            reach: &mut self.reach,
            changed: Some((&mut self.pair_epochs, self.epoch)),
        };
        t.traverse(hs, inport, at, h, hops, tag);
    }

    /// Insert (or merge into) a path entry.
    pub(crate) fn insert_entry(
        &mut self,
        inport: PortRef,
        outport: PortRef,
        headers: B::Set,
        hops: Vec<Hop>,
        tag: BloomTag,
        hs: &mut B,
    ) {
        if Traversal::insert_into(&mut self.entries, hs, inport, outport, headers, hops, tag) {
            self.pair_epochs.insert((inport, outport), self.epoch);
        }
    }

    /// Paths recorded for a pair.
    pub fn paths(&self, inport: PortRef, outport: PortRef) -> &[PathEntry<B>] {
        self.entries
            .get(&(inport, outport))
            .map_or(&[], |v| v.as_slice())
    }

    /// Iterate over all `(pair, paths)` groups.
    pub fn iter(&self) -> impl Iterator<Item = (&(PortRef, PortRef), &Vec<PathEntry<B>>)> {
        self.entries.iter()
    }

    /// All entries flattened, in a deterministic order.
    pub fn all_entries(&self) -> Vec<(&(PortRef, PortRef), &PathEntry<B>)> {
        let mut keys: Vec<&(PortRef, PortRef)> = self.entries.keys().collect();
        keys.sort();
        keys.into_iter()
            .flat_map(|k| self.entries[k].iter().map(move |e| (k, e)))
            .collect()
    }

    /// The forwarding trace the *control plane* expects for a concrete
    /// header injected at `from` — `GetPath` of Algorithm 4. Walks the
    /// transfer predicates hop by hop until the packet leaves the network,
    /// drops, or the hop budget runs out.
    pub fn trace(&self, from: PortRef, header: &FiveTuple, hs: &B) -> Vec<Hop> {
        let mut hops = Vec::new();
        let mut at = from;
        while hops.len() < self.max_hops {
            let Some(preds) = self.preds.get(&at.switch) else {
                break;
            };
            let mut out = None;
            for (y, p) in preds.outputs(at.port) {
                if hs.contains(p, header) {
                    out = Some(y);
                    break;
                }
            }
            let Some(y) = out else { break };
            let hop = Hop {
                in_port: at.port,
                switch: at.switch,
                out_port: y,
            };
            hops.push(hop);
            let out_ref = PortRef {
                switch: at.switch,
                port: y,
            };
            if y.is_drop() || self.topo.is_terminal_port(out_ref) {
                break;
            }
            if self.topo.is_middlebox_port(out_ref) {
                at = out_ref;
                continue;
            }
            match self.topo.peer(out_ref) {
                Some(next) => at = next,
                None => break,
            }
        }
        hops
    }

    /// Aggregate statistics (Table 2, Fig. 6).
    pub fn stats(&self) -> PathTableStats {
        let num_pairs = self.entries.len();
        let num_paths: usize = self.entries.values().map(Vec::len).sum();
        let total_hops: usize = self.entries.values().flatten().map(|e| e.hops.len()).sum();
        let mut histogram = Vec::new();
        for list in self.entries.values() {
            let k = list.len();
            if histogram.len() < k {
                histogram.resize(k, 0);
            }
            histogram[k - 1] += 1;
        }
        PathTableStats {
            num_pairs,
            num_paths,
            avg_path_len: if num_paths == 0 {
                0.0
            } else {
                total_hops as f64 / num_paths as f64
            },
            paths_per_pair: histogram,
        }
    }

    /// Total number of concrete headers admitted across all paths
    /// (saturating), via [`HeaderSetBackend::sat_count`]. A cheap semantic
    /// fingerprint: two tables over the same topology and rules must agree
    /// on it regardless of backend.
    pub fn total_header_count(&self, hs: &B) -> u128 {
        self.entries
            .values()
            .flatten()
            .fold(0u128, |acc, e| acc.saturating_add(hs.sat_count(e.headers)))
    }

    /// Drop-port reference for a switch (convenience).
    pub fn drop_port(s: SwitchId) -> PortRef {
        PortRef {
            switch: s,
            port: DROP_PORT,
        }
    }

    /// Deep-copy this table into a fresh backend instance, translating every
    /// header-set handle via [`HeaderSetBackend::import`]. The copy is
    /// observationally identical to `self` — same pairs, per-pair path order,
    /// hops, tags, reach records, epoch, and retired ring — but all its
    /// handles belong to `dst`, so it can be read (or incrementally updated)
    /// independently of the original. This is how the snapshot publisher
    /// ([`crate::snapshot`]) seeds a new version buffer.
    pub(crate) fn translated(&self, src: &B, dst: &mut B) -> PathTable<B> {
        let mut memo = B::Memo::default();
        PathTable {
            topo: self.topo.clone(),
            tag_bits: self.tag_bits,
            max_hops: self.max_hops,
            track_reach: self.track_reach,
            epoch: self.epoch,
            retired: self.retired.translated(src, dst, &mut memo),
            preds: self
                .preds
                .iter()
                .map(|(&s, p)| (s, p.translated(src, dst, &mut memo, true)))
                .collect(),
            pair_epochs: self.pair_epochs.clone(),
            entries: self
                .entries
                .iter()
                .map(|(&pair, list)| {
                    (
                        pair,
                        list.iter()
                            .map(|e| PathEntry {
                                headers: dst.import(src, e.headers, &mut memo),
                                hops: e.hops.clone(),
                                tag: e.tag,
                            })
                            .collect(),
                    )
                })
                .collect(),
            reach: self
                .reach
                .iter()
                .map(|(&s, list)| {
                    (
                        s,
                        list.iter()
                            .map(|r| ReachRecord {
                                inport: r.inport,
                                at: r.at,
                                headers: dst.import(src, r.headers, &mut memo),
                                hops: r.hops.clone(),
                                tag: r.tag,
                            })
                            .collect(),
                    )
                })
                .collect(),
        }
    }
}

/// Borrowed view of everything Algorithm 2 needs, decoupled from
/// [`PathTable`] so the same traversal drives both the sequential build
/// (borrowing the table's own fields) and the per-shard workers of
/// [`PathTable::build_parallel`] (borrowing worker-local state and a
/// worker-private backend instance).
pub(crate) struct Traversal<'a, B: HeaderSetBackend> {
    pub topo: &'a Topology,
    pub preds: &'a HashMap<SwitchId, SwitchPredicates<B>>,
    pub tag_bits: u32,
    pub max_hops: usize,
    pub track_reach: bool,
    pub entries: &'a mut HashMap<(PortRef, PortRef), Vec<PathEntry<B>>>,
    pub reach: &'a mut HashMap<SwitchId, Vec<ReachRecord<B>>>,
    /// Where to stamp each pair whose entry list changes, and the epoch to
    /// stamp ([`PathTable::pair_changed`]); `None` in a parallel build's
    /// workers, whose pairs are all new.
    pub changed: Option<(&'a mut PairStamps, u64)>,
}

impl<B: HeaderSetBackend> Traversal<'_, B> {
    /// Algorithm 2, one step (see [`PathTable::traverse`] for the
    /// semantics). All set algebra goes through the supplied backend `hs`;
    /// handles in `h` and in `self.preds` must belong to it.
    pub(crate) fn traverse(
        &mut self,
        hs: &mut B,
        inport: PortRef,
        at: PortRef,
        h: B::Set,
        hops: Vec<Hop>,
        tag: BloomTag,
    ) {
        if hops.len() >= self.max_hops {
            return; // TTL guard; mirrors the data-plane loop cut
        }
        // Loop removal (§6.1): stop if this port was already visited on the
        // current path.
        if hops.iter().any(|hop| hop.in_ref() == at) {
            return;
        }
        let s = at.switch;
        let x = at.port;
        if self.track_reach {
            self.reach.entry(s).or_default().push(ReachRecord {
                inport,
                at,
                headers: h,
                hops: hops.clone(),
                tag,
            });
        }
        let Some(preds) = self.preds.get(&s) else {
            return;
        };
        let outputs = preds.outputs(x);
        for (y, p_xy) in outputs {
            let h2 = hs.and(h, p_xy);
            if hs.is_empty(h2) {
                continue;
            }
            let hop = Hop {
                in_port: x,
                switch: s,
                out_port: y,
            };
            let mut hops2 = hops.clone();
            hops2.push(hop);
            let tag2 = tag.union(BloomTag::singleton(&hop.encode(), self.tag_bits));
            let out_ref = PortRef { switch: s, port: y };
            if y.is_drop() || self.topo.is_terminal_port(out_ref) {
                if Self::insert_into(self.entries, hs, inport, out_ref, h2, hops2, tag2) {
                    if let Some((stamps, epoch)) = self.changed.as_mut() {
                        stamps.insert((inport, out_ref), *epoch);
                    }
                }
            } else if self.topo.is_middlebox_port(out_ref) {
                // Reflecting middlebox: the packet re-enters on the same port.
                self.traverse(hs, inport, out_ref, h2, hops2, tag2);
            } else if let Some(next) = self.topo.peer(out_ref) {
                self.traverse(hs, inport, next, h2, hops2, tag2);
            }
        }
    }

    /// Insert (or merge into) a path entry of `entries`; whether the pair's
    /// entry list changed.
    pub(crate) fn insert_into(
        entries: &mut HashMap<(PortRef, PortRef), Vec<PathEntry<B>>>,
        hs: &mut B,
        inport: PortRef,
        outport: PortRef,
        headers: B::Set,
        hops: Vec<Hop>,
        tag: BloomTag,
    ) -> bool {
        let list = entries.entry((inport, outport)).or_default();
        if let Some(e) = list.iter_mut().find(|e| e.hops == hops) {
            let merged = hs.or(e.headers, headers);
            let changed = merged != e.headers;
            e.headers = merged;
            changed
        } else {
            list.push(PathEntry { headers, hops, tag });
            true
        }
    }
}
