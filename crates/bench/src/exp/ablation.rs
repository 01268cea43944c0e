//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Strawman vs PathInfer localization** (§4.3): the strawman blames
//!    the first correct-path hop whose filter bits are missing; Bloom false
//!    positives make it skip past the real fault. PathInfer's
//!    downstream-completion check dismisses those.
//! 2. **Incremental update vs full rebuild** (§4.4): per-rule latency.
//! 3. **Owned-set delta vs predicate rescan** (§4.4, Fig. 8): port-predicate
//!    maintenance alone.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veridp_controller::{synth, Intent};
use veridp_core::{HeaderSpace, PathTable};
use veridp_packet::{PortNo, SwitchId};
use veridp_sim::Monitor;
use veridp_switch::{Action, Fault, FlowRule};
use veridp_topo::gen;

use crate::setup::{build_setup, Setup};

/// Localization accuracy: strawman first-failing-hop vs Algorithm 4.
#[derive(Debug, Clone)]
pub struct LocalizationAblation {
    pub tag_bits: u32,
    pub failures: usize,
    pub strawman_correct: usize,
    pub pathinfer_correct: usize,
}

/// Run the localization ablation on FT(k=4) with the given tag width.
/// Smaller widths raise the Bloom false-positive rate, which is exactly
/// where the strawman falls behind.
pub fn localization(tag_bits: u32, trials: usize, seed: u64) -> LocalizationAblation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = 0usize;
    let mut strawman_ok = 0usize;
    let mut pathinfer_ok = 0usize;

    for _ in 0..trials {
        let mut m =
            Monitor::deploy(gen::fat_tree(4), &[Intent::Connectivity], tag_bits).expect("deploys");
        let switches = m.net.switch_ids();
        let (sid, rule_id, old_port) = loop {
            let s = switches[rng.gen_range(0..switches.len())];
            let rules = m.controller.rules_of(s);
            if rules.is_empty() {
                continue;
            }
            let r = rules[rng.gen_range(0..rules.len())];
            let Action::Forward(p) = r.action else {
                continue;
            };
            break (s, r.id, p);
        };
        let nports = m.net.topo().switch(sid).unwrap().num_ports;
        let wrong = loop {
            let p = PortNo(rng.gen_range(1..=nports));
            if p != old_port {
                break p;
            }
        };
        m.net
            .switch_mut(sid)
            .faults_mut()
            .add(Fault::ExternalModify(rule_id, Action::Forward(wrong)));

        for outcome in m.ping_all_pairs(80) {
            for (report, verdict, loc) in &outcome.verdicts {
                if verdict.is_pass() {
                    continue;
                }
                failures += 1;
                // Ground truth: the first hop of the real path that differs
                // from the correct path.
                let correct =
                    m.server
                        .table()
                        .trace(report.inport, &report.header, m.server.header_space());
                let real = &outcome.trace.hops;
                let truth: Option<SwitchId> = correct
                    .iter()
                    .zip(real.iter())
                    .find(|(c, r)| c != r)
                    .map(|(c, _)| c.switch)
                    .or_else(|| real.get(correct.len()).map(|h| h.switch));

                // Strawman: first correct-path hop missing from the tag.
                let strawman = correct
                    .iter()
                    .find(|h| !report.tag.contains(&h.encode()))
                    .map(|h| h.switch);
                if strawman.is_some() && strawman == truth {
                    strawman_ok += 1;
                }
                // PathInfer (already computed by the monitor); same
                // prefix-vs-exact criterion as Table 3, plus the candidate
                // must name the right switch.
                if let Some(loc) = loc {
                    let matches_real = |c: &&veridp_core::InferredPath| {
                        if outcome.trace.looped {
                            !c.hops.is_empty()
                                && c.hops.len() <= real.len()
                                && c.hops[..] == real[..c.hops.len()]
                        } else {
                            &c.hops == real
                        }
                    };
                    if loc
                        .candidates
                        .iter()
                        .find(matches_real)
                        .is_some_and(|c| Some(c.faulty_switch) == truth)
                    {
                        pathinfer_ok += 1;
                    }
                }
            }
        }
    }
    LocalizationAblation {
        tag_bits,
        failures,
        strawman_correct: strawman_ok,
        pathinfer_correct: pathinfer_ok,
    }
}

/// Incremental vs rebuild cost for one rule change on Internet2.
#[derive(Debug, Clone)]
pub struct UpdateAblation {
    pub rules_changed: usize,
    pub incremental_ms_mean: f64,
    pub rebuild_ms_mean: f64,
}

impl UpdateAblation {
    pub fn speedup(&self) -> f64 {
        self.rebuild_ms_mean / self.incremental_ms_mean.max(1e-9)
    }
}

/// Time `changes` single-rule additions both ways.
pub fn incremental_vs_rebuild(
    background_prefixes: usize,
    changes: usize,
    seed: u64,
) -> UpdateAblation {
    let data = build_setup(Setup::Internet2, Some(background_prefixes), seed);
    let target = data.topo.switch_by_name("KANS").unwrap();
    let mut hs = HeaderSpace::new();
    let mut table = PathTable::build(&data.topo, &data.rules, &mut hs, 16);
    let fresh = synth::single_switch_rules(&data.topo, target, changes, seed ^ 0x1234);

    let mut rules_now = data.rules.clone();
    let mut inc_total = 0.0;
    let mut reb_total = 0.0;
    for (i, (prio, fields, action)) in fresh.into_iter().enumerate() {
        let rule = FlowRule::new(3_000_000 + i as u64, prio, fields, action);
        let t = Instant::now();
        table.add_rule(target, rule, &mut hs);
        inc_total += t.elapsed().as_secs_f64() * 1e3;

        rules_now.entry(target).or_default().push(rule);
        let t = Instant::now();
        let rebuilt = PathTable::build(&data.topo, &rules_now, &mut hs, 16);
        reb_total += t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&rebuilt);
    }
    UpdateAblation {
        rules_changed: changes,
        incremental_ms_mean: inc_total / changes as f64,
        rebuild_ms_mean: reb_total / changes as f64,
    }
}

/// Render both ablations.
pub fn render(loc: &[LocalizationAblation], upd: &UpdateAblation) -> String {
    let mut out = String::from(
        "Ablation 1: strawman vs PathInfer localization (FT k=4)\n\
         tag bits | failures | strawman correct | PathInfer correct\n\
         ---------+----------+------------------+------------------\n",
    );
    for l in loc {
        out.push_str(&format!(
            "{:>8} | {:>8} | {:>7} ({:>5.1}%) | {:>7} ({:>5.1}%)\n",
            l.tag_bits,
            l.failures,
            l.strawman_correct,
            l.strawman_correct as f64 / l.failures.max(1) as f64 * 100.0,
            l.pathinfer_correct,
            l.pathinfer_correct as f64 / l.failures.max(1) as f64 * 100.0,
        ));
    }
    out.push_str(&format!(
        "\nAblation 2: incremental update vs full rebuild (Internet2, {} changes)\n\
         incremental mean {:.3} ms | rebuild mean {:.1} ms | speedup {:.0}x\n",
        upd.rules_changed,
        upd.incremental_ms_mean,
        upd.rebuild_ms_mean,
        upd.speedup()
    ));
    out
}

/// Render the predicate-maintenance ablation.
pub fn render_predicates(p: &PredicateAblation) -> String {
    format!(
        "\nAblation 3: port-predicate maintenance, owned-set delta (§4.4, Fig. 8) vs rescan\n\
         {} rules | delta {:.1} ms total | rescan {:.1} ms total | speedup {:.0}x\n",
        p.rules,
        p.delta_total_ms,
        p.rescan_total_ms,
        p.speedup()
    )
}

/// Port-predicate maintenance: the production owned-set delta
/// ([`SwitchPredicates::update`](veridp_core::SwitchPredicates::update))
/// vs a full priority rescan
/// ([`SwitchPredicates::from_rules`](veridp_core::SwitchPredicates::from_rules))
/// after every rule — the question the paper's rule tree (Fig. 8) answers.
#[derive(Debug, Clone)]
pub struct PredicateAblation {
    pub rules: usize,
    pub delta_total_ms: f64,
    pub rescan_total_ms: f64,
}

impl PredicateAblation {
    pub fn speedup(&self) -> f64 {
        self.rescan_total_ms / self.delta_total_ms.max(1e-9)
    }
}

/// Time `n` rule additions both ways on one switch, and check that both
/// end in the same predicates.
pub fn delta_vs_rescan(n: usize, seed: u64) -> PredicateAblation {
    use veridp_core::{RuleUpdate, SwitchPredicates};

    let topo = gen::internet2();
    let target = topo.switch_by_name("KANS").unwrap();
    let rules: Vec<FlowRule> = synth::single_switch_rules(&topo, target, n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, (prio, fields, action))| FlowRule::new(i as u64, prio, fields, action))
        .collect();
    let ports: Vec<PortNo> = (1..=8).map(PortNo).collect();

    // Delta: one owned-set update per add.
    let mut hs = HeaderSpace::new();
    let mut delta = SwitchPredicates::from_rules(target, &ports, &[], &mut hs);
    let t = Instant::now();
    for rule in &rules {
        std::hint::black_box(delta.update(&RuleUpdate::Add(target, *rule), &mut hs));
    }
    let delta_total_ms = t.elapsed().as_secs_f64() * 1e3;

    // Rescan: rebuild the whole predicate vector after every add.
    let mut hs2 = HeaderSpace::new();
    let t = Instant::now();
    for k in 1..=rules.len() {
        std::hint::black_box(SwitchPredicates::from_rules(
            target,
            &ports,
            &rules[..k],
            &mut hs2,
        ));
    }
    let rescan_total_ms = t.elapsed().as_secs_f64() * 1e3;

    let rescan = SwitchPredicates::from_rules(target, &ports, &rules, &mut hs);
    for y in ports.iter().copied().chain([veridp_packet::DROP_PORT]) {
        assert_eq!(delta.transfer(PortNo(1), y), rescan.transfer(PortNo(1), y));
    }
    PredicateAblation {
        rules: rules.len(),
        delta_total_ms,
        rescan_total_ms,
    }
}
