//! Sharded parallel path-table construction.
//!
//! Algorithm 2 is embarrassingly parallel across network entry ports: the
//! traversal from one entry port never reads state produced by another. What
//! serializes the sequential build is the single backend instance — for the
//! BDD backend every `and` on the hot path mutates the shared arena and
//! caches; for the atom backend it is the shared set interner.
//!
//! The parallel build removes that bottleneck with *sharded backends*:
//!
//! 1. transfer predicates are computed once in the main backend (exactly as
//!    the sequential build does);
//! 2. entry ports are partitioned into contiguous shards, one per worker;
//! 3. each worker forks a private backend instance
//!    ([`HeaderSetBackend::fork_worker`]), seeds it by importing the shared
//!    predicates ([`HeaderSetBackend::import`] — translation that preserves
//!    canonicity), and traverses its shard with zero locking;
//! 4. the main thread imports each shard's path entries and reach records
//!    back into the main backend, in shard order.
//!
//! Because shards are contiguous and merged in order, and because a
//! traversal's output depends only on its entry port, the merged table is
//! *identical* to the sequential one: same pairs, same per-pair path order,
//! same hop sequences and tags, and — by canonicity of import — the same
//! header-set functions. The only nondeterminism-shaped difference is
//! handle numbering in intermediate worker instances, which never escapes.

use std::collections::HashMap;

use veridp_bloom::BloomTag;
use veridp_obs as obs;
use veridp_packet::{PortNo, PortRef, SwitchId, MAX_PATH_LENGTH};
use veridp_switch::FlowRule;
use veridp_topo::Topology;

use crate::backend::HeaderSetBackend;
use crate::path_table::{PathEntry, PathTable, ReachRecord, Traversal};
use crate::predicates::SwitchPredicates;

/// Everything a worker sends back: its private backend plus results whose
/// handles still point into it.
struct ShardResult<B: HeaderSetBackend> {
    backend: B,
    entries: HashMap<(PortRef, PortRef), Vec<PathEntry<B>>>,
    reach: HashMap<SwitchId, Vec<ReachRecord<B>>>,
}

/// Traverse one shard of entry ports against a worker-private backend.
fn run_shard<B: HeaderSetBackend>(
    topo: &Topology,
    preds: &HashMap<SwitchId, SwitchPredicates<B>>,
    src: &B,
    ports: &[PortRef],
    tag_bits: u32,
    track_reach: bool,
) -> ShardResult<B> {
    let mut backend = src.fork_worker();
    let mut memo = B::Memo::default();
    // Builds are rare, whole-phase events, so full (undecimated) spans per
    // shard are affordable and give the per-phase breakdown directly.
    let translate_span = obs::histogram!("veridp_build_shard_translate_ns").start_span();
    let local_preds: HashMap<SwitchId, SwitchPredicates<B>> = preds
        .iter()
        .map(|(s, p)| (*s, p.translated(src, &mut backend, &mut memo, false)))
        .collect();
    drop(translate_span);
    let _traverse_span = obs::histogram!("veridp_build_shard_traverse_ns").start_span();
    let mut entries = HashMap::new();
    let mut reach = HashMap::new();
    let mut t = Traversal {
        topo,
        preds: &local_preds,
        tag_bits,
        max_hops: MAX_PATH_LENGTH as usize,
        track_reach,
        entries: &mut entries,
        reach: &mut reach,
        changed: None,
    };
    for &inport in ports {
        let full = backend.full();
        t.traverse(
            &mut backend,
            inport,
            inport,
            full,
            Vec::new(),
            BloomTag::empty(tag_bits),
        );
    }
    ShardResult {
        backend,
        entries,
        reach,
    }
}

impl<B: HeaderSetBackend> PathTable<B> {
    /// Build the table as [`PathTable::build`] does, but traversing entry
    /// ports on `threads` worker threads, each with a private sharded
    /// backend instance. The result is semantically identical to the
    /// sequential build — same pairs, hops, tags, and header sets — for any
    /// thread count.
    ///
    /// `threads` is clamped to `[1, entry ports]`; `threads <= 1` still
    /// runs the sharded path (one worker), so timing it measures the true
    /// sharding overhead.
    pub fn build_parallel(
        topo: &Topology,
        rules: &HashMap<SwitchId, Vec<FlowRule>>,
        hs: &mut B,
        tag_bits: u32,
        threads: usize,
    ) -> Self {
        let _build_span = obs::histogram!("veridp_build_parallel_ns").start_span();
        obs::counter!("veridp_build_parallel_total").inc();
        let mut table = PathTable::new_empty(topo, tag_bits, true);
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
        if entry_ports.is_empty() {
            return table;
        }

        let workers = threads.clamp(1, entry_ports.len());
        obs::gauge!("veridp_build_workers").set(workers as i64);
        let chunk = entry_ports.len().div_ceil(workers);
        let preds = &table.preds;
        let src: &B = hs;
        // Contiguous shards, joined in order: merge order equals the
        // sequential build's entry-port order.
        let results: Vec<ShardResult<B>> = std::thread::scope(|scope| {
            let handles: Vec<_> = entry_ports
                .chunks(chunk)
                .map(|ports| {
                    scope.spawn(move || run_shard(topo, preds, src, ports, tag_bits, true))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        let _merge_span = obs::histogram!("veridp_build_merge_ns").start_span();
        for shard in results {
            let mut memo = B::Memo::default();
            for (pair, list) in shard.entries {
                // Entry-port disjointness makes pairs disjoint across
                // shards, so this is a pure extend — no cross-shard merge.
                let dst = table.entries.entry(pair).or_default();
                for e in list {
                    let headers = hs.import(&shard.backend, e.headers, &mut memo);
                    dst.push(PathEntry {
                        headers,
                        hops: e.hops,
                        tag: e.tag,
                    });
                }
            }
            for (s, recs) in shard.reach {
                let dst = table.reach.entry(s).or_default();
                for r in recs {
                    let headers = hs.import(&shard.backend, r.headers, &mut memo);
                    dst.push(ReachRecord { headers, ..r });
                }
            }
        }
        table
    }
}
