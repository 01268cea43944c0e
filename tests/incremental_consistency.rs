//! Property-style integration tests for the incremental path-table update:
//! randomized rule churn on real topologies must leave the table
//! semantically identical to a fresh rebuild, and the per-switch predicate
//! deltas of phase 1 must equal a full rescan after every update.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veridp::atoms::AtomSpace;
use veridp::core::{HeaderSetBackend, HeaderSpace, PathTable, RuleUpdate, SwitchPredicates};
use veridp::packet::{Hop, PortNo, PortRef, SwitchId, DROP_PORT};
use veridp::switch::{Action, FlowRule, Match, PortRange, RuleId};
use veridp::topo::{gen, Topology};

type Rules = HashMap<SwitchId, Vec<FlowRule>>;

fn normalized(t: &PathTable) -> Vec<(PortRef, PortRef, Vec<Hop>, u64, u32)> {
    let mut v: Vec<_> = t
        .all_entries()
        .into_iter()
        .map(|((i, o), e)| (*i, *o, e.hops.clone(), e.tag.bits(), e.headers.index()))
        .collect();
    v.sort();
    v
}

fn random_rule(rng: &mut StdRng, topo: &Topology, s: SwitchId, id: u64) -> FlowRule {
    let nports = topo.switch(s).unwrap().num_ports;
    let plen = rng.gen_range(8..=32);
    let base = gen::ip(10, 0, rng.gen_range(0..8), rng.gen_range(0..4u8) * 64);
    let mut fields = Match::dst_prefix(base, plen);
    if rng.gen_bool(0.2) {
        fields = fields.with_dst_port(rng.gen_range(1..1024));
    }
    if rng.gen_bool(0.15) {
        fields = fields.with_in_port(PortNo(rng.gen_range(1..=nports)));
    }
    let action = if rng.gen_bool(0.15) {
        Action::Drop
    } else {
        Action::Forward(PortNo(rng.gen_range(1..=nports)))
    };
    FlowRule::new(id, plen as u16 + rng.gen_range(0..3u16), fields, action)
}

/// Apply `steps` random add/delete/modify operations, checking equivalence
/// with a rebuild after every step.
fn churn(topo: Topology, seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let switches: Vec<SwitchId> = topo.switches().map(|i| i.id).collect();
    let mut hs = HeaderSpace::new();
    let mut current: Rules = HashMap::new();
    let mut table = PathTable::build(&topo, &current, &mut hs, 16);
    let mut next_id = 1u64;

    for step in 0..steps {
        let s = switches[rng.gen_range(0..switches.len())];
        let have: Vec<RuleId> = current
            .get(&s)
            .map_or(Vec::new(), |v| v.iter().map(|r| r.id).collect());
        match rng.gen_range(0..10u8) {
            // Mostly adds, some deletes, some modifies.
            0..=5 => {
                let rule = random_rule(&mut rng, &topo, s, next_id);
                next_id += 1;
                table.add_rule(s, rule, &mut hs);
                current.entry(s).or_default().push(rule);
            }
            6..=7 if !have.is_empty() => {
                let id = have[rng.gen_range(0..have.len())];
                table.delete_rule(s, id, &mut hs);
                current.get_mut(&s).unwrap().retain(|r| r.id != id);
            }
            _ if !have.is_empty() => {
                let id = have[rng.gen_range(0..have.len())];
                let nports = topo.switch(s).unwrap().num_ports;
                let action = Action::Forward(PortNo(rng.gen_range(1..=nports)));
                table.modify_rule(s, id, action, &mut hs);
                if let Some(r) = current.get_mut(&s).unwrap().iter_mut().find(|r| r.id == id) {
                    r.action = action;
                }
            }
            _ => continue,
        }
        let rebuilt = PathTable::build(&topo, &current, &mut hs, 16);
        assert_eq!(
            normalized(&table),
            normalized(&rebuilt),
            "diverged at step {step} (seed {seed})"
        );
    }
}

#[test]
fn churn_on_linear_chain() {
    churn(gen::linear(4), 1, 60);
}

#[test]
fn churn_on_figure5_with_middlebox() {
    churn(gen::figure5(), 2, 60);
}

#[test]
fn churn_on_figure7() {
    churn(gen::figure7(), 3, 60);
}

#[test]
fn churn_on_internet2() {
    churn(gen::internet2(), 4, 40);
}

#[test]
fn churn_on_fat_tree() {
    churn(gen::fat_tree(4), 5, 25);
}

#[test]
fn churn_multiple_seeds_linear() {
    for seed in 10..16 {
        churn(gen::linear(3), seed, 30);
    }
}

// ------------------------------------------- predicate deltas vs rescan

/// A random rule over a small header space, so overlaps, shadowing and
/// priority ties are common: prefixes of every length inside 10.0.0.0/22,
/// some proto and port-range matches, some `in_port` rules, some drops.
fn delta_rule(rng: &mut StdRng, id: u64, in_port_rate: f64) -> FlowRule {
    let plen = *[0u8, 8, 22, 23, 24, 26, 30, 32]
        .get(rng.gen_range(0..8usize))
        .unwrap();
    let base = gen::ip(10, 0, rng.gen_range(0..4), rng.gen_range(0..4u8) * 64);
    let mut fields = Match::dst_prefix(base, plen);
    if rng.gen_bool(0.2) {
        fields = fields.with_proto(*[6u8, 17].get(rng.gen_range(0..2usize)).unwrap());
    }
    if rng.gen_bool(0.2) {
        // On a coarse grid, so range ends often touch.
        let lo = rng.gen_range(0..4u16) * 100;
        fields.dst_port = PortRange::new(lo, lo + rng.gen_range(0..3u16) * 100);
    }
    if rng.gen_bool(0.1) {
        fields = fields.with_src_port(rng.gen_range(0..4));
    }
    if rng.gen_bool(in_port_rate) {
        fields = fields.with_in_port(PortNo(rng.gen_range(1..=4)));
    }
    let action = if rng.gen_bool(0.15) {
        Action::Drop
    } else {
        Action::Forward(PortNo(rng.gen_range(1..=4)))
    };
    // Few priority levels: ties, broken by id, are the common case.
    FlowRule::new(id, rng.gen_range(0..4), fields, action)
}

/// Seeded random update sequences through `SwitchPredicates::update`; after
/// every step each `transfer(x, y)`, drop included, must be the same handle
/// as a full `from_rules` rescan of the same rule list.
fn delta_matches_rescan<B: HeaderSetBackend>(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = SwitchId(1);
    let ports: Vec<PortNo> = (1..=4).map(PortNo).collect();
    let mut hs = B::default();
    let mut rules: Vec<FlowRule> = Vec::new();
    let mut preds = SwitchPredicates::from_rules(s, &ports, &rules, &mut hs);
    let mut next_id = 1u64;
    // Ids of rules added fully shadowed (same match, lower priority than a
    // live rule); deleting one must change nothing.
    let mut shadowed: Vec<RuleId> = Vec::new();
    let mut transitions = 0;
    for step in 0..steps {
        // Phases with and without in-port rules, so both shape changes
        // (first in_port rule arriving, last one leaving) happen.
        let in_port_rate = if (step / 40) % 2 == 1 { 0.3 } else { 0.0 };
        let pick = |rng: &mut StdRng, rules: &[FlowRule]| rules[rng.gen_range(0..rules.len())];
        let upd = match rng.gen_range(0..20u8) {
            _ if rules.is_empty() => {
                next_id += 1;
                RuleUpdate::Add(s, delta_rule(&mut rng, next_id, in_port_rate))
            }
            0..=5 => {
                next_id += 1;
                RuleUpdate::Add(s, delta_rule(&mut rng, next_id, in_port_rate))
            }
            6 | 7 => {
                // A fully shadowed rule: a live rule's match, lower rank.
                let over = pick(&mut rng, &rules);
                next_id += 1;
                shadowed.push(RuleId(next_id));
                let prio = over.priority.saturating_sub(rng.gen_range(0..2));
                let action = Action::Forward(PortNo(rng.gen_range(1..=4)));
                RuleUpdate::Add(s, FlowRule::new(next_id, prio, over.fields, action))
            }
            8 | 9 if !shadowed.is_empty() => {
                let id = shadowed.swap_remove(rng.gen_range(0..shadowed.len()));
                RuleUpdate::Delete(s, id)
            }
            // Outside in-port phases, deletes go to in-port rules first,
            // so the last one leaves.
            8..=12 => {
                let ported: Vec<FlowRule> = rules
                    .iter()
                    .filter(|r| r.fields.in_port.is_some() && in_port_rate == 0.0)
                    .copied()
                    .collect();
                let from = if ported.is_empty() { &rules } else { &ported };
                RuleUpdate::Delete(s, pick(&mut rng, from).id)
            }
            13..=15 => {
                let r = pick(&mut rng, &rules);
                let action = Action::Forward(PortNo(rng.gen_range(1..=4)));
                RuleUpdate::Modify(s, r.id, action)
            }
            // A modify to the port the rule already uses.
            16 => {
                let r = pick(&mut rng, &rules);
                RuleUpdate::Modify(s, r.id, r.action)
            }
            // Re-add of a live id: new match, priority and action.
            _ => {
                let id = pick(&mut rng, &rules).id;
                RuleUpdate::Add(s, delta_rule(&mut rng, id.0, in_port_rate))
            }
        };
        match upd {
            RuleUpdate::Add(_, rule) => {
                rules.retain(|r| r.id != rule.id);
                rules.push(rule);
            }
            RuleUpdate::Delete(_, id) => rules.retain(|r| r.id != id),
            RuleUpdate::Modify(_, id, action) => {
                rules.iter_mut().find(|r| r.id == id).unwrap().action = action;
            }
        }
        let was_dependent = preds.is_port_dependent();
        preds.update(&upd, &mut hs);
        transitions += usize::from(was_dependent != preds.is_port_dependent());
        let rescan = SwitchPredicates::from_rules(s, &ports, &rules, &mut hs);
        assert_eq!(
            preds.is_port_dependent(),
            rescan.is_port_dependent(),
            "{} seed {seed} step {step}: {upd:?}",
            B::NAME
        );
        for &x in &ports {
            for y in ports.iter().copied().chain([DROP_PORT]) {
                assert_eq!(
                    preds.transfer(x, y),
                    rescan.transfer(x, y),
                    "{} seed {seed} step {step}: P({x}, {y}) after {upd:?}",
                    B::NAME
                );
            }
        }
    }
    assert!(
        transitions >= 2,
        "seed {seed}: no scope transition exercised"
    );
}

#[test]
fn predicate_deltas_match_rescan_bdd() {
    for seed in 0..6 {
        delta_matches_rescan::<HeaderSpace>(seed, 240);
    }
}

#[test]
fn predicate_deltas_match_rescan_atoms() {
    for seed in 0..6 {
        delta_matches_rescan::<AtomSpace>(seed, 240);
    }
}
