//! Incremental path-table update (§4.4).
//!
//! When the controller adds/deletes/modifies one rule at switch `S`, only the
//! paths that cross the affected `⟨x, S, y⟩` hops change. The update runs in
//! two phases, exactly as the paper describes:
//!
//! 1. **Port-predicate update** — [`SwitchPredicates::update`] moves headers
//!    between the owned sets of `S`'s rules, touching only the rules whose
//!    match overlaps the changed one (the paper's rule tree, Figure 8,
//!    generalized to ACLs, port ranges, priority interleaving and `in_port`
//!    rules), and reports the transfer predicates it changed. Their diffs
//!    are the per-`(x, y)` deltas `Δ⁻` (headers that no longer transfer
//!    `x→y`) and `Δ⁺` (headers that newly do). Cost is proportional to the
//!    change, not to `S`'s table.
//! 2. **Path-entry update** — subtract `Δ⁻` from every path (and reach
//!    record) through the shrunk hop, pruning emptied paths; then, for every
//!    header set recorded as having *reached* `S` ([`ReachRecord`]), push its
//!    intersection with `Δ⁺` out of the new port and resume the Algorithm-2
//!    traversal from there, merging the resulting paths in. Every pair whose
//!    entry list this phase changes is stamped with the new epoch
//!    ([`PathTable::pair_changed`]), which lets verdict caches keep the
//!    verdicts of all other pairs across the update.
//!
//! The result is semantically identical to a full rebuild (a property the
//! test-suite checks exhaustively) at a small fraction of the cost — Fig. 14
//! measures it.
//!
//! [`ReachRecord`]: crate::path_table::ReachRecord
//! [`SwitchPredicates::update`]: crate::predicates::SwitchPredicates::update

use std::collections::HashMap;

use veridp_bloom::BloomTag;
use veridp_obs as obs;
use veridp_packet::{Hop, PortNo, PortRef, SwitchId};
use veridp_switch::{Action, FlowRule, RuleId};

use crate::backend::HeaderSetBackend;
use crate::path_table::PathTable;
use crate::snapshot::RuleUpdate;

impl<B: HeaderSetBackend> PathTable<B> {
    /// Incrementally apply a rule addition at switch `s`.
    pub fn add_rule(&mut self, s: SwitchId, rule: FlowRule, hs: &mut B) {
        self.apply(RuleUpdate::Add(s, rule), hs);
    }

    /// Incrementally apply a rule deletion at switch `s`.
    pub fn delete_rule(&mut self, s: SwitchId, id: RuleId, hs: &mut B) {
        self.apply(RuleUpdate::Delete(s, id), hs);
    }

    /// Incrementally apply an action change (delete + add, as in §4.4).
    pub fn modify_rule(&mut self, s: SwitchId, id: RuleId, action: Action, hs: &mut B) {
        self.apply(RuleUpdate::Modify(s, id, action), hs);
    }

    /// Apply one rule update: both phases of the module docs.
    pub(crate) fn apply(&mut self, upd: RuleUpdate, hs: &mut B) {
        // Updates are control-plane-rate (not report-rate) events, so a
        // full span per update is affordable and the latency distribution
        // is exactly what Fig. 14 measures.
        obs::counter!("veridp_incremental_updates_total").inc();
        let _span = obs::histogram!("veridp_incremental_update_ns").start_span();
        assert!(
            self.tracks_reach(),
            "incremental update requires reach records (use PathTable::build, not build_static)"
        );
        let s = upd.switch();

        // Phase 1: port-predicate update.
        let Some(preds) = self.preds.get_mut(&s) else {
            return;
        };
        let changes = preds.update(&upd, hs);
        // Invalidate fast-path state before any early return below: even a
        // semantically-neutral rule edit must never leave a verdict cache
        // keyed on the pre-edit table. (Conservative; a spurious bump only
        // costs a revalidation per cached verdict.)
        self.bump_epoch();
        obs::counter!("veridp_epoch_bumps_total").inc();
        obs::event!(
            "epoch_bump",
            "rule update at {s:?} bumped table epoch to {}",
            self.epoch()
        );
        let mut shrink: HashMap<Hop, B::Set> = HashMap::new();
        let mut grow: HashMap<(PortNo, PortNo), B::Set> = HashMap::new();
        for (x, y, before, after) in changes {
            let minus = hs.diff(before, after);
            if !hs.is_empty(minus) {
                shrink.insert(
                    Hop {
                        in_port: x,
                        switch: s,
                        out_port: y,
                    },
                    minus,
                );
            }
            let plus = hs.diff(after, before);
            if !hs.is_empty(plus) {
                grow.insert((x, y), plus);
            }
        }
        if shrink.is_empty() && grow.is_empty() {
            return;
        }

        // Phase 2a: shrink — subtract Δ⁻ from every path and reach record
        // crossing an affected hop.
        if !shrink.is_empty() {
            // Before mutating, snapshot every affected entry into the
            // epoch-grace ring: reports sampled at epochs up to (and
            // including) the pre-bump epoch may still legitimately match
            // these paths while they are in flight (see `crate::grace`).
            let valid_until = self.epoch() - 1;
            let mut retired_pairs: HashMap<(PortRef, PortRef), Vec<crate::grace::RetiredEntry<B>>> =
                HashMap::new();
            let mut retired_count: u64 = 0;
            for (&pair, list) in &self.entries {
                for entry in list {
                    if entry.hops.iter().any(|hop| shrink.contains_key(hop)) {
                        retired_pairs
                            .entry(pair)
                            .or_default()
                            .push(crate::grace::RetiredEntry {
                                headers: entry.headers,
                                tag: entry.tag,
                            });
                        retired_count += 1;
                    }
                }
            }
            if !retired_pairs.is_empty() {
                obs::counter!("veridp_grace_entries_retired_total").add(retired_count);
                self.retired.push(crate::grace::RetiredRecord {
                    valid_until,
                    pairs: retired_pairs,
                });
            }

            let mut pruned: u64 = 0;
            let epoch = self.epoch();
            for (pair, list) in self.entries.iter_mut() {
                let mut changed = false;
                list.retain_mut(|entry| {
                    for hop in &entry.hops {
                        if let Some(&minus) = shrink.get(hop) {
                            let headers = hs.diff(entry.headers, minus);
                            changed |= headers != entry.headers;
                            entry.headers = headers;
                            if hs.is_empty(entry.headers) {
                                pruned += 1;
                                return false;
                            }
                        }
                    }
                    true
                });
                if changed {
                    self.pair_epochs.insert(*pair, epoch);
                }
            }
            // An emptied pair leaves `entries`, but its stamp stays: a
            // verdict cached while it had paths must not be revalidated.
            self.entries.retain(|_, v| !v.is_empty());
            for records in self.reach.values_mut() {
                records.retain_mut(|r| {
                    for hop in &r.hops {
                        if let Some(&minus) = shrink.get(hop) {
                            r.headers = hs.diff(r.headers, minus);
                            if hs.is_empty(r.headers) {
                                return false;
                            }
                        }
                    }
                    true
                });
            }
            obs::counter!("veridp_incremental_paths_pruned_total").add(pruned);
        }

        // Phase 2b: grow — resume traversal for headers that reached S and
        // now transfer out of a new (x, y) delta.
        if grow.is_empty() {
            return;
        }
        let snapshot: Vec<crate::path_table::ReachRecord<B>> =
            self.reach.get(&s).map(|v| v.to_vec()).unwrap_or_default();
        let tag_bits = self.tag_bits();
        let mut regrown: u64 = 0;
        for rec in snapshot {
            for (&(x, y), &plus) in &grow {
                if rec.at.port != x {
                    continue;
                }
                let h2 = hs.and(rec.headers, plus);
                if hs.is_empty(h2) {
                    continue;
                }
                let hop = Hop {
                    in_port: x,
                    switch: s,
                    out_port: y,
                };
                // Loop guard: skip if this port pair already appears upstream.
                if rec.hops.iter().any(|h| h.in_ref() == rec.at) {
                    continue;
                }
                let mut hops2 = rec.hops.clone();
                hops2.push(hop);
                let tag2 = rec.tag.union(BloomTag::singleton(&hop.encode(), tag_bits));
                let out_ref = PortRef { switch: s, port: y };
                regrown += 1;
                if y.is_drop() || self.topo().is_terminal_port(out_ref) {
                    self.insert_entry(rec.inport, out_ref, h2, hops2, tag2, hs);
                } else if self.topo().is_middlebox_port(out_ref) {
                    self.traverse(rec.inport, out_ref, h2, hops2, tag2, hs);
                } else if let Some(next) = self.topo().peer(out_ref) {
                    self.traverse(rec.inport, next, h2, hops2, tag2, hs);
                }
            }
        }
        obs::counter!("veridp_incremental_paths_regrown_total").add(regrown);
    }
}
