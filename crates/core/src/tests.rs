use std::collections::HashMap;

use veridp_bloom::{BloomTag, HopEncoder};
use veridp_packet::{FiveTuple, Hop, PortNo, PortRef, SwitchId, TagReport, DROP_PORT};
use veridp_switch::{Action, FlowRule, Match, PortRange};
use veridp_topo::gen::{self, ip};

use crate::{HeaderSpace, PathTable, SwitchPredicates, VeriDpServer, VerifyOutcome};

type Rules = HashMap<SwitchId, Vec<FlowRule>>;

fn fwd(id: u64, prio: u16, fields: Match, port: u16) -> FlowRule {
    FlowRule::new(id, prio, fields, Action::Forward(PortNo(port)))
}

/// The 10-rule configuration of Figure 5 (§3.4): SSH via the middlebox, the
/// rest direct, H2's traffic dropped at S3.
fn figure5_rules() -> Rules {
    let mut rules: Rules = HashMap::new();
    rules.insert(
        SwitchId(1),
        vec![
            fwd(1, 32, Match::dst_prefix(ip(10, 0, 1, 1), 32), 1),
            fwd(2, 32, Match::dst_prefix(ip(10, 0, 1, 2), 32), 2),
            // R3: SSH traffic to 10.0.2/24 goes via S2 (towards the MB).
            fwd(
                3,
                40,
                Match::dst_prefix(ip(10, 0, 2, 0), 24).with_dst_port(22),
                3,
            ),
            // R4: everything else towards 10.0.2/24 goes to S3 directly.
            fwd(4, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 4),
        ],
    );
    rules.insert(
        SwitchId(2),
        vec![
            // R5: traffic from port 1 (S1) goes to the middlebox.
            fwd(5, 50, Match::ANY.with_in_port(PortNo(1)), 3),
            // R6: traffic back from the middlebox continues towards S3.
            fwd(
                6,
                50,
                Match::dst_prefix(ip(10, 0, 2, 0), 24).with_in_port(PortNo(3)),
                2,
            ),
            // R7: return path towards H1/H2's subnet.
            fwd(
                7,
                24,
                Match::dst_prefix(ip(10, 0, 1, 0), 24).with_in_port(PortNo(2)),
                1,
            ),
        ],
    );
    rules.insert(
        SwitchId(3),
        vec![
            // R8: drop all traffic from H2.
            FlowRule::new(8, 60, Match::src_prefix(ip(10, 0, 1, 2), 32), Action::Drop),
            fwd(9, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 2),
            fwd(10, 24, Match::dst_prefix(ip(10, 0, 1, 0), 24), 3),
        ],
    );
    rules
}

fn figure5_table(hs: &mut HeaderSpace) -> PathTable {
    PathTable::build(&gen::figure5(), &figure5_rules(), hs, 16)
}

fn tag_of(hops: &[(u16, u32, u16)]) -> BloomTag {
    let mut t = BloomTag::default_width();
    for &(x, s, y) in hops {
        t.insert(&HopEncoder::encode(x, s, y));
    }
    t
}

// ------------------------------------------------------------- headerspace

#[test]
fn headerspace_prefix_contains() {
    let mut hs = HeaderSpace::new();
    let set = hs.dst_prefix(ip(10, 0, 2, 0), 24);
    assert!(hs.contains(set, &FiveTuple::tcp(1, ip(10, 0, 2, 200), 1, 1)));
    assert!(!hs.contains(set, &FiveTuple::tcp(1, ip(10, 0, 3, 1), 1, 1)));
}

#[test]
fn headerspace_zero_plen_is_true() {
    let mut hs = HeaderSpace::new();
    assert!(hs.dst_prefix(0, 0).is_true());
    assert!(hs.src_prefix(0xffff_ffff, 0).is_true());
}

#[test]
fn headerspace_port_ranges() {
    let mut hs = HeaderSpace::new();
    let set = hs.dst_port_range(PortRange::new(100, 300));
    for p in [100u16, 101, 200, 299, 300] {
        assert!(hs.contains(set, &FiveTuple::tcp(0, 0, 0, p)), "port {p}");
    }
    for p in [0u16, 99, 301, 65535] {
        assert!(!hs.contains(set, &FiveTuple::tcp(0, 0, 0, p)), "port {p}");
    }
    assert!(hs.dst_port_range(PortRange::ANY).is_true());
    let exact = hs.src_port_range(PortRange::exact(443));
    assert!(hs.contains(exact, &FiveTuple::tcp(0, 0, 443, 0)));
    assert!(!hs.contains(exact, &FiveTuple::tcp(0, 0, 444, 0)));
}

#[test]
fn headerspace_port_range_satcount() {
    let mut hs = HeaderSpace::new();
    let set = hs.dst_port_range(PortRange::new(10, 20));
    // 11 ports × 2^88 remaining header bits.
    assert_eq!(hs.mgr().sat_count(set), 11u128 << 88);
}

#[test]
fn headerspace_proto() {
    let mut hs = HeaderSpace::new();
    let set = hs.proto_is(6);
    assert!(hs.contains(set, &FiveTuple::tcp(0, 0, 0, 0)));
    assert!(!hs.contains(set, &FiveTuple::udp(0, 0, 0, 0)));
}

#[test]
fn headerspace_match_set_composition() {
    let mut hs = HeaderSpace::new();
    let m = Match::dst_prefix(ip(10, 0, 2, 0), 24)
        .with_dst_port(22)
        .with_proto(6);
    let set = hs.match_set(&m);
    assert!(hs.contains(set, &FiveTuple::tcp(9, ip(10, 0, 2, 1), 5, 22)));
    assert!(!hs.contains(set, &FiveTuple::tcp(9, ip(10, 0, 2, 1), 5, 23)));
    assert!(!hs.contains(set, &FiveTuple::udp(9, ip(10, 0, 2, 1), 5, 22)));
    assert!(!hs.contains(set, &FiveTuple::tcp(9, ip(10, 1, 2, 1), 5, 22)));
}

#[test]
fn headerspace_negated_port_needs_no_union() {
    // The motivating example: dst_port != 22 is one BDD operation.
    let mut hs = HeaderSpace::new();
    let eq22 = hs.dst_port_range(PortRange::exact(22));
    let ne22 = hs.mgr().not(eq22);
    assert!(hs.contains(ne22, &FiveTuple::tcp(0, 0, 0, 23)));
    assert!(!hs.contains(ne22, &FiveTuple::tcp(0, 0, 0, 22)));
    assert_eq!(hs.mgr().sat_count(ne22), 65535u128 << 88);
}

#[test]
fn headerspace_witness_in_set() {
    let mut hs = HeaderSpace::new();
    let m = Match::dst_prefix(ip(10, 0, 2, 0), 24).with_dst_port(22);
    let set = hs.match_set(&m);
    let w = hs.witness(set).expect("non-empty");
    assert!(hs.contains(set, &w));
    assert_eq!(w.dst_port, 22);
    assert_eq!(w.dst_ip & 0xffff_ff00, ip(10, 0, 2, 0));
    assert!(hs.witness(veridp_bdd::Bdd::FALSE).is_none());
}

#[test]
fn headerspace_singleton() {
    let mut hs = HeaderSpace::new();
    let h = FiveTuple::tcp(ip(1, 2, 3, 4), ip(5, 6, 7, 8), 1000, 2000);
    let s = hs.header_singleton(&h);
    assert!(hs.contains(s, &h));
    assert_eq!(hs.mgr().sat_count(s), 1);
}

// -------------------------------------------------------------- predicates

#[test]
fn predicates_partition_header_space() {
    // Key invariant: for any in-port, the outputs (incl. ⊥) partition the
    // full header space — every header goes somewhere, nowhere twice.
    let mut hs = HeaderSpace::new();
    let rules = figure5_rules();
    for (sid, list) in &rules {
        let ports: Vec<PortNo> = (1..=4).map(PortNo).collect();
        let p = SwitchPredicates::from_rules(*sid, &ports, list, &mut hs);
        for x in &ports {
            let outs = p.outputs(*x);
            let sets: Vec<_> = outs.iter().map(|(_, b)| *b).collect();
            let union = hs.mgr().or_many(&sets);
            assert!(union.is_true(), "outputs of {sid}:{x} do not cover");
            for i in 0..sets.len() {
                for j in i + 1..sets.len() {
                    assert!(
                        !hs.mgr().intersects(sets[i], sets[j]),
                        "outputs {i} and {j} of {sid}:{x} overlap"
                    );
                }
            }
        }
    }
}

#[test]
fn predicates_priority_shadowing() {
    let mut hs = HeaderSpace::new();
    let rules = vec![
        fwd(
            1,
            40,
            Match::dst_prefix(ip(10, 0, 2, 0), 24).with_dst_port(22),
            3,
        ),
        fwd(2, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 4),
    ];
    let p = SwitchPredicates::from_rules(
        SwitchId(1),
        &[PortNo(1), PortNo(3), PortNo(4)],
        &rules,
        &mut hs,
    );
    let ssh = FiveTuple::tcp(0, ip(10, 0, 2, 1), 5, 22);
    let web = FiveTuple::tcp(0, ip(10, 0, 2, 1), 5, 80);
    assert!(hs.contains(p.transfer(PortNo(1), PortNo(3)), &ssh));
    assert!(!hs.contains(p.transfer(PortNo(1), PortNo(4)), &ssh));
    assert!(hs.contains(p.transfer(PortNo(1), PortNo(4)), &web));
    assert!(!p.is_port_dependent());
}

#[test]
fn predicates_miss_and_explicit_drop_both_reach_bottom() {
    let mut hs = HeaderSpace::new();
    let rules = vec![
        FlowRule::new(1, 50, Match::src_prefix(ip(10, 0, 1, 2), 32), Action::Drop),
        fwd(2, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 2),
    ];
    let p = SwitchPredicates::from_rules(SwitchId(3), &[PortNo(1), PortNo(2)], &rules, &mut hs);
    let dropped = FiveTuple::tcp(ip(10, 0, 1, 2), ip(10, 0, 2, 1), 5, 80); // explicit
    let missed = FiveTuple::tcp(ip(9, 9, 9, 9), ip(9, 9, 9, 9), 5, 80); // miss
    let bot = p.transfer(PortNo(1), DROP_PORT);
    assert!(hs.contains(bot, &dropped));
    assert!(hs.contains(bot, &missed));
}

#[test]
fn predicates_in_port_dependence() {
    let mut hs = HeaderSpace::new();
    let rules = vec![
        fwd(1, 50, Match::ANY.with_in_port(PortNo(1)), 3),
        fwd(2, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 2),
    ];
    let ports: Vec<PortNo> = (1..=3).map(PortNo).collect();
    let p = SwitchPredicates::from_rules(SwitchId(2), &ports, &rules, &mut hs);
    assert!(p.is_port_dependent());
    let h = FiveTuple::tcp(0, ip(10, 0, 2, 1), 5, 80);
    assert!(hs.contains(p.transfer(PortNo(1), PortNo(3)), &h)); // in-port rule wins
    assert!(hs.contains(p.transfer(PortNo(2), PortNo(2)), &h)); // fallback elsewhere
}

#[test]
fn predicates_empty_ruleset_drops_everything() {
    let mut hs = HeaderSpace::new();
    let p = SwitchPredicates::from_rules(SwitchId(9), &[PortNo(1)], &[], &mut hs);
    assert!(p.transfer(PortNo(1), DROP_PORT).is_true());
    assert!(p.transfer(PortNo(1), PortNo(1)).is_false());
}

// -------------------------------------------------------------- path table

#[test]
fn figure5_path_table_matches_paper_table1() {
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);

    let h1 = PortRef::new(1, 1);
    let h2_port = PortRef::new(1, 2);
    let h3 = PortRef::new(3, 2);

    // Row 1: SSH from H1 to H3 goes through the middlebox — 4 hops.
    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let paths = table.paths(h1, h3);
    assert!(!paths.is_empty(), "no (S1,1)->(S3,2) paths");
    let ssh_path = paths
        .iter()
        .find(|p| hs.contains(p.headers, &ssh))
        .expect("ssh path");
    let expect_hops = vec![
        Hop::new(1, 1, 3),
        Hop::new(1, 2, 3),
        Hop::new(3, 2, 2),
        Hop::new(1, 3, 2),
    ];
    assert_eq!(ssh_path.hops, expect_hops, "worked example of §4.2");
    assert_eq!(
        ssh_path.tag,
        tag_of(&[(1, 1, 3), (1, 2, 3), (3, 2, 2), (1, 3, 2)])
    );

    // Row 2: non-SSH from H1 goes direct S1→S3.
    let web = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 80);
    let web_path = paths
        .iter()
        .find(|p| hs.contains(p.headers, &web))
        .expect("web path");
    assert_eq!(web_path.hops, vec![Hop::new(1, 1, 4), Hop::new(3, 3, 2)]);
    assert_eq!(web_path.tag, tag_of(&[(1, 1, 4), (3, 3, 2)]));
    // Header sets are disjoint: SSH not in the direct path.
    assert!(!hs.contains(web_path.headers, &ssh));

    // Row 3: H2's non-SSH traffic is dropped at S3.
    let from_h2 = FiveTuple::tcp(ip(10, 0, 1, 2), ip(10, 0, 2, 1), 999, 80);
    let drop_paths = table.paths(h2_port, PathTable::<HeaderSpace>::drop_port(SwitchId(3)));
    let dp = drop_paths
        .iter()
        .find(|p| hs.contains(p.headers, &from_h2))
        .expect("drop path");
    assert_eq!(
        dp.hops,
        vec![Hop::new(2, 1, 4), Hop::new(3, 3, DROP_PORT.0)]
    );
    assert_eq!(dp.tag, tag_of(&[(2, 1, 4), (3, 3, DROP_PORT.0)]));
}

#[test]
fn path_table_stats_figure5() {
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    let stats = table.stats();
    assert!(stats.num_pairs >= 3);
    assert_eq!(stats.num_paths, table.all_entries().len());
    assert!(stats.avg_path_len > 1.0);
    assert_eq!(stats.paths_per_pair.iter().sum::<usize>(), stats.num_pairs);
}

#[test]
fn path_table_fat_tree_connectivity() {
    // With shortest-path connectivity rules, every host pair has a path.
    let topo = gen::fat_tree(4);
    let mut ctrl = veridp_controller::Controller::new(topo.clone());
    ctrl.install_intent(&veridp_controller::Intent::Connectivity)
        .unwrap();
    let rules: Rules = ctrl
        .logical_rules()
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    let mut hs = HeaderSpace::new();
    let table = PathTable::build(&topo, &rules, &mut hs, 16);
    let hosts = topo.hosts();
    for a in hosts.iter().take(4) {
        for b in hosts.iter().rev().take(4) {
            if a.name == b.name {
                continue;
            }
            let h = FiveTuple::tcp(a.ip, b.ip, 1, 1);
            let paths = table.paths(a.attached, b.attached);
            assert!(
                paths.iter().any(|p| hs.contains(p.headers, &h)),
                "no path {} -> {}",
                a.name,
                b.name
            );
        }
    }
}

#[test]
fn trace_follows_control_plane() {
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let hops = table.trace(PortRef::new(1, 1), &ssh, &hs);
    assert_eq!(
        hops,
        vec![
            Hop::new(1, 1, 3),
            Hop::new(1, 2, 3),
            Hop::new(3, 2, 2),
            Hop::new(1, 3, 2)
        ]
    );
    // A header with no matching entry at S1's port 1 still drops somewhere.
    let stray = FiveTuple::tcp(ip(9, 9, 9, 9), ip(9, 9, 9, 9), 1, 1);
    let hops = table.trace(PortRef::new(1, 1), &stray, &hs);
    assert_eq!(hops.last().unwrap().out_port, DROP_PORT);
}

// ------------------------------------------------------------------ verify

#[test]
fn verify_pass_on_correct_tag() {
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let report = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh,
        tag_of(&[(1, 1, 3), (1, 2, 3), (3, 2, 2), (1, 3, 2)]),
    );
    assert_eq!(table.verify(&report, &hs), VerifyOutcome::Pass);
}

#[test]
fn verify_detects_deviation() {
    // R3 fails: the SSH packet takes the direct path. The paper's example:
    // tag becomes [1‖S1‖4] ⊔ [3‖S3‖2], disagreeing with the SSH path's tag.
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let report = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh,
        tag_of(&[(1, 1, 4), (3, 3, 2)]),
    );
    assert_eq!(table.verify(&report, &hs), VerifyOutcome::TagMismatch);
}

#[test]
fn verify_detects_wrong_destination() {
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    // H2's traffic should never reach H3's port (it is dropped at S3).
    let h = FiveTuple::tcp(ip(10, 0, 1, 2), ip(10, 0, 2, 1), 999, 80);
    let report = TagReport::new(
        PortRef::new(1, 2),
        PortRef::new(3, 2),
        h,
        tag_of(&[(2, 1, 4), (3, 3, 2)]),
    );
    assert_eq!(table.verify(&report, &hs), VerifyOutcome::NoMatchingPath);
}

#[test]
fn verify_no_false_positive_for_every_figure5_path() {
    // §6.3: verification has no false positives — a correctly forwarded
    // packet always passes. Exercise every path in the table.
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    let entries: Vec<(PortRef, PortRef, FiveTuple, BloomTag)> = table
        .all_entries()
        .iter()
        .filter_map(|((ip_, op), e)| hs.witness(e.headers).map(|w| (*ip_, *op, w, e.tag)))
        .collect();
    assert!(!entries.is_empty());
    for (inport, outport, witness, tag) in entries {
        let report = TagReport::new(inport, outport, witness, tag);
        assert_eq!(table.verify(&report, &hs), VerifyOutcome::Pass, "{report}");
    }
}

// ---------------------------------------------------------------- localize

/// Figure 7 rules: correct path S1→S2→S4; S3/S5/S6 provide the detour row.
fn figure7_rules() -> Rules {
    let dst = Match::dst_prefix(ip(10, 0, 2, 0), 24);
    let mut rules: Rules = HashMap::new();
    rules.insert(SwitchId(1), vec![fwd(1, 24, dst, 2)]);
    rules.insert(SwitchId(2), vec![fwd(2, 24, dst, 2)]);
    rules.insert(SwitchId(4), vec![fwd(3, 24, dst, 3)]);
    rules.insert(SwitchId(3), vec![fwd(4, 24, dst, 3)]);
    rules.insert(SwitchId(5), vec![fwd(5, 24, dst, 3)]);
    // S6 has no rule for dst → table-miss drop.
    rules.insert(SwitchId(6), vec![]);
    rules
}

#[test]
fn localize_recovers_figure7_real_path() {
    let mut hs = HeaderSpace::new();
    let table = PathTable::build(&gen::figure7(), &figure7_rules(), &mut hs, 64);
    let h = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 80);

    // S1 faulty: outputs port 4; real path ⟨1,S1,4⟩ ⟨1,S3,3⟩ ⟨1,S6,⊥⟩.
    let real = [(1u16, 1u32, 4u16), (1, 3, 3), (1, 6, DROP_PORT.0)];
    let mut tag = BloomTag::empty(64);
    for &(x, s, y) in &real {
        tag.insert(&HopEncoder::encode(x, s, y));
    }
    let report = TagReport::new(PortRef::new(1, 1), PortRef::drop_of(SwitchId(6)), h, tag);
    assert_ne!(table.verify(&report, &hs), VerifyOutcome::Pass);
    let loc = table.localize(&report, &hs);
    assert_eq!(
        loc.correct_path,
        vec![Hop::new(1, 1, 2), Hop::new(1, 2, 2), Hop::new(1, 4, 3)]
    );
    let expect: Vec<Hop> = real.iter().map(|&(x, s, y)| Hop::new(x, s, y)).collect();
    assert!(
        loc.candidates
            .iter()
            .any(|c| c.hops == expect && c.faulty_switch == SwitchId(1)),
        "real path not recovered: {:?}",
        loc.candidates
    );
}

#[test]
fn localize_mid_path_fault() {
    let mut hs = HeaderSpace::new();
    let table = PathTable::build(&gen::figure7(), &figure7_rules(), &mut hs, 64);
    let h = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 80);

    // S2 faulty: outputs port 3 (to S5); S5 forwards correctly to S4, which
    // delivers. Real path: ⟨1,S1,2⟩ ⟨1,S2,3⟩ ⟨1,S5,3⟩ ⟨2,S4,3⟩.
    let real = [(1u16, 1u32, 2u16), (1, 2, 3), (1, 5, 3), (2, 4, 3)];
    let mut tag = BloomTag::empty(64);
    for &(x, s, y) in &real {
        tag.insert(&HopEncoder::encode(x, s, y));
    }
    let report = TagReport::new(PortRef::new(1, 1), PortRef::new(4, 3), h, tag);
    assert_eq!(table.verify(&report, &hs), VerifyOutcome::TagMismatch);
    let loc = table.localize(&report, &hs);
    let expect: Vec<Hop> = real.iter().map(|&(x, s, y)| Hop::new(x, s, y)).collect();
    assert!(
        loc.candidates
            .iter()
            .any(|c| c.hops == expect && c.faulty_switch == SwitchId(2)),
        "candidates: {:?}",
        loc.candidates
    );
}

// ------------------------------------------------------------- incremental

/// Compare two path tables built over the same header space.
fn assert_tables_equal(a: &PathTable, b: &PathTable) {
    let norm = |t: &PathTable| {
        let mut v: Vec<(PortRef, PortRef, Vec<Hop>, u64, u32)> = t
            .all_entries()
            .into_iter()
            .map(|((i, o), e)| (*i, *o, e.hops.clone(), e.tag.bits(), e.headers.index()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(norm(a), norm(b));
}

#[test]
fn incremental_add_matches_rebuild() {
    let topo = gen::figure5();
    let mut hs = HeaderSpace::new();
    let base = figure5_rules();

    // Start from a table without R3 (the SSH detour), then add it.
    let mut without: Rules = base.clone();
    without
        .get_mut(&SwitchId(1))
        .unwrap()
        .retain(|r| r.id.0 != 3);
    let mut incremental = PathTable::build(&topo, &without, &mut hs, 16);
    let r3 = base[&SwitchId(1)]
        .iter()
        .find(|r| r.id.0 == 3)
        .copied()
        .unwrap();
    incremental.add_rule(SwitchId(1), r3, &mut hs);

    let rebuilt = PathTable::build(&topo, &base, &mut hs, 16);
    assert_tables_equal(&incremental, &rebuilt);
}

#[test]
fn incremental_delete_matches_rebuild() {
    let topo = gen::figure5();
    let mut hs = HeaderSpace::new();
    let base = figure5_rules();
    let mut incremental = PathTable::build(&topo, &base, &mut hs, 16);
    incremental.delete_rule(SwitchId(1), veridp_switch::RuleId(3), &mut hs);

    let mut without: Rules = base.clone();
    without
        .get_mut(&SwitchId(1))
        .unwrap()
        .retain(|r| r.id.0 != 3);
    let rebuilt = PathTable::build(&topo, &without, &mut hs, 16);
    assert_tables_equal(&incremental, &rebuilt);
}

#[test]
fn incremental_modify_matches_rebuild() {
    let topo = gen::figure5();
    let mut hs = HeaderSpace::new();
    let base = figure5_rules();
    let mut incremental = PathTable::build(&topo, &base, &mut hs, 16);
    // Redirect R4 to port 3 (everything via S2).
    incremental.modify_rule(
        SwitchId(1),
        veridp_switch::RuleId(4),
        Action::Forward(PortNo(3)),
        &mut hs,
    );

    let mut modified: Rules = base.clone();
    for r in modified.get_mut(&SwitchId(1)).unwrap() {
        if r.id.0 == 4 {
            r.action = Action::Forward(PortNo(3));
        }
    }
    let rebuilt = PathTable::build(&topo, &modified, &mut hs, 16);
    assert_tables_equal(&incremental, &rebuilt);
}

#[test]
fn incremental_rule_sequence_matches_rebuild_linear() {
    // Install a batch of prefix rules one-by-one on a linear topology and
    // compare against the monolithic build after each step.
    let topo = gen::linear(3);
    let mut hs = HeaderSpace::new();
    let mut current: Rules = HashMap::new();
    let mut incremental = PathTable::build(&topo, &current, &mut hs, 16);

    let steps = vec![
        (
            SwitchId(1),
            fwd(1, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 2),
        ),
        (
            SwitchId(2),
            fwd(2, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 2),
        ),
        (
            SwitchId(3),
            fwd(3, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 2),
        ),
        (
            SwitchId(3),
            fwd(4, 32, Match::dst_prefix(ip(10, 0, 2, 7), 32), 1),
        ), // punch-hole
        (
            SwitchId(1),
            fwd(5, 16, Match::dst_prefix(ip(10, 0, 0, 0), 16), 2),
        ), // covering
    ];
    for (s, rule) in steps {
        incremental.add_rule(s, rule, &mut hs);
        current.entry(s).or_default().push(rule);
        let rebuilt = PathTable::build(&topo, &current, &mut hs, 16);
        assert_tables_equal(&incremental, &rebuilt);
    }
}

// ------------------------------------------------------------------ server

#[test]
fn server_end_to_end_verify_and_stats() {
    let topo = gen::figure5();
    let mut server = VeriDpServer::new(&topo, &figure5_rules(), 16);
    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let good = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh,
        tag_of(&[(1, 1, 3), (1, 2, 3), (3, 2, 2), (1, 3, 2)]),
    );
    assert!(server.verify(&good).is_pass());

    let bad = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh,
        tag_of(&[(1, 1, 4), (3, 3, 2)]),
    );
    let (outcome, loc) = server.verify_and_localize(&bad);
    assert_eq!(outcome, VerifyOutcome::TagMismatch);
    let loc = loc.unwrap();
    assert_eq!(loc.primary_suspect(), Some(SwitchId(1)));

    let stats = server.stats();
    assert_eq!(stats.reports, 2);
    assert_eq!(stats.passed, 1);
    assert_eq!(stats.failed(), 1);
    assert_eq!(stats.localizations, 1);
    assert_eq!(stats.localized, 1);
    assert!(server.suspects().contains_key(&SwitchId(1)));
}

#[test]
fn server_intercept_keeps_table_synced() {
    let topo = gen::figure5();
    let mut without: Rules = figure5_rules();
    without
        .get_mut(&SwitchId(1))
        .unwrap()
        .retain(|r| r.id.0 != 3);
    let mut server = VeriDpServer::new(&topo, &without, 16);

    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let via_mb = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh,
        tag_of(&[(1, 1, 3), (1, 2, 3), (3, 2, 2), (1, 3, 2)]),
    );
    // Without R3, SSH takes the direct path; the MB tag must fail.
    assert!(!server.verify(&via_mb).is_pass());

    // Controller installs R3; server intercepts the FlowMod.
    let r3 = fwd(
        3,
        40,
        Match::dst_prefix(ip(10, 0, 2, 0), 24).with_dst_port(22),
        3,
    );
    server.intercept(SwitchId(1), &veridp_switch::OfMessage::FlowAdd(r3));
    assert!(server.verify(&via_mb).is_pass());
}

#[test]
fn repair_proposes_the_disobeyed_rule() {
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let proposal =
        crate::repair::propose(&table, SwitchId(1), PortNo(1), &ssh).expect("rule found");
    assert_eq!(proposal.rule.id.0, 3, "R3 governs SSH at S1");
    assert_eq!(proposal.messages.len(), 2);
    assert!(crate::repair::propose(&table, SwitchId(6), PortNo(1), &ssh).is_none());
}

// ---------------------------------------------------------------- property

mod property {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Port-range BDDs agree with arithmetic on random probes.
    #[test]
    fn range_bdd_matches_arithmetic() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b): (u16, u16) = (rng.gen(), rng.gen());
            let (lo, hi) = (a.min(b), a.max(b));
            let mut hs = HeaderSpace::new();
            let set = hs.dst_port_range(PortRange::new(lo, hi));
            for _ in 0..20 {
                let p: u16 = rng.gen();
                let h = FiveTuple::tcp(0, 0, 0, p);
                assert_eq!(hs.contains(set, &h), lo <= p && p <= hi, "seed {seed}");
            }
        }
    }

    /// match_set agrees with Match::matches on random headers
    /// (in_port excluded — it is not part of the header space).
    #[test]
    fn match_set_agrees_with_matcher() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dst: u32 = rng.gen();
            let dplen = rng.gen_range(0u8..=32);
            let src: u32 = rng.gen();
            let splen = rng.gen_range(0u8..=32);
            let port: u16 = rng.gen();
            let mut hs = HeaderSpace::new();
            let mut m = Match::dst_prefix(dst, dplen);
            let sm = Match::src_prefix(src, splen);
            m.src_ip = sm.src_ip;
            m.src_plen = sm.src_plen;
            m.dst_port = PortRange::exact(port);
            let set = hs.match_set(&m);
            for _ in 0..20 {
                let (s, d, dp): (u32, u32, u16) = (rng.gen(), rng.gen(), rng.gen());
                let h = FiveTuple::tcp(s, d, 7, dp);
                assert_eq!(
                    hs.contains(set, &h),
                    m.matches(PortNo(1), &h),
                    "seed {seed}"
                );
            }
        }
    }

    /// Predicate outputs always partition the header space, for random
    /// rule sets.
    #[test]
    fn random_rules_partition() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hs = HeaderSpace::new();
            let n = rng.gen_range(1..12);
            let rules: Vec<FlowRule> = (0..n)
                .map(|i| {
                    let plen = rng.gen_range(0..=32);
                    let m = Match::dst_prefix(rng.gen(), plen);
                    let action = if rng.gen_bool(0.2) {
                        Action::Drop
                    } else {
                        Action::Forward(PortNo(rng.gen_range(1..4)))
                    };
                    FlowRule::new(i, rng.gen_range(0..100), m, action)
                })
                .collect();
            let ports: Vec<PortNo> = (1..=4).map(PortNo).collect();
            let p = SwitchPredicates::from_rules(SwitchId(1), &ports, &rules, &mut hs);
            let outs = p.outputs(PortNo(1));
            let sets: Vec<_> = outs.iter().map(|(_, b)| *b).collect();
            let union = hs.mgr().or_many(&sets);
            assert!(union.is_true(), "seed {seed}");
            for i in 0..sets.len() {
                for j in i + 1..sets.len() {
                    assert!(!hs.mgr().intersects(sets[i], sets[j]), "seed {seed}");
                }
            }
        }
    }

    /// For random rule sets on a linear topology, trace() lands where
    /// the path table says the witness header should land, and the tag
    /// verification of a faithful walk always passes.
    #[test]
    fn witness_walk_always_verifies() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = gen::linear(3);
            let mut rules: Rules = HashMap::new();
            for s in 1..=3u32 {
                let n = rng.gen_range(1..6);
                let list: Vec<FlowRule> = (0..n)
                    .map(|i| {
                        let plen = rng.gen_range(8..=32);
                        let base = ip(10, 0, rng.gen_range(0..4), 0);
                        let m = Match::dst_prefix(base, plen);
                        let port = PortNo(rng.gen_range(1..=3));
                        FlowRule::new(s as u64 * 100 + i, plen as u16, m, Action::Forward(port))
                    })
                    .collect();
                rules.insert(SwitchId(s), list);
            }
            let mut hs = HeaderSpace::new();
            let table = PathTable::build(&topo, &rules, &mut hs, 16);
            for ((inport, outport), entries) in table.iter() {
                for e in entries {
                    if let Some(w) = hs.witness(e.headers) {
                        let report = TagReport::new(*inport, *outport, w, e.tag);
                        assert_eq!(
                            table.verify(&report, &hs),
                            VerifyOutcome::Pass,
                            "seed {seed}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- parallel

#[test]
fn parallel_verify_matches_sequential() {
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    let mut reports = Vec::new();
    for ((inport, outport), entries) in table.iter() {
        for e in entries {
            if let Some(w) = hs.witness(e.headers) {
                reports.push(TagReport::new(*inport, *outport, w, e.tag));
            }
        }
    }
    // Add some corrupted reports so both verdict kinds appear.
    for r in reports.clone() {
        let mut bad = r;
        bad.tag = tag_of(&[(9, 9, 9)]);
        reports.push(bad);
    }
    let sequential: Vec<_> = reports.iter().map(|r| table.verify(r, &hs)).collect();
    let summary = crate::parallel::BatchSummary::from_outcomes(&sequential);
    for threads in [1usize, 2, 4, 8] {
        let parallel = crate::parallel::verify_batch(&table, &hs, &reports, threads);
        assert_eq!(parallel, sequential, "threads={threads}");
        // The folding fast path must count exactly what the verdict
        // vector counts, at every thread count.
        let fast = crate::parallel::verify_batch_summary(&table, &hs, &reports, threads);
        assert_eq!(
            fast, summary,
            "summary fast path diverged at threads={threads}"
        );
    }
    assert_eq!(summary.total, reports.len());
    assert!(summary.passed > 0);
    assert!(summary.failed() > 0);
    assert_eq!(summary.passed + summary.failed(), summary.total);
}

// ----------------------------------------------------------------- rewrite

mod rewrite_tests {
    use super::*;
    use crate::rewrite::{self, RwPathTable, RwRule};
    use veridp_switch::FieldSet;

    #[test]
    fn image_moves_sets_between_fields_values() {
        let mut hs = HeaderSpace::new();
        let set = hs.dst_prefix(ip(10, 0, 2, 0), 24);
        let img = rewrite::image_one(&mut hs, set, &FieldSet::dst_ip(ip(192, 168, 1, 5)));
        // Every image header has the rewritten address...
        let w = hs.witness(img).unwrap();
        assert_eq!(w.dst_ip, ip(192, 168, 1, 5));
        // ...and only that address.
        assert!(!hs.contains(img, &FiveTuple::tcp(0, ip(10, 0, 2, 1), 0, 0)));
        assert!(hs.contains(img, &FiveTuple::tcp(0, ip(192, 168, 1, 5), 0, 0)));
    }

    #[test]
    fn image_of_empty_is_empty() {
        let mut hs = HeaderSpace::new();
        let img = rewrite::image_one(&mut hs, veridp_bdd::Bdd::FALSE, &FieldSet::dst_port(80));
        assert!(img.is_false());
    }

    #[test]
    fn preimage_inverts_image_membership() {
        let mut hs = HeaderSpace::new();
        let fs = FieldSet::dst_port(8080);
        // Set of post-rewrite headers: dst_port == 8080 and dst in 10/8.
        let a = hs.dst_prefix(ip(10, 0, 0, 0), 8);
        let b = hs.dst_port_range(veridp_switch::PortRange::exact(8080));
        let post = hs.mgr().and(a, b);
        let pre = rewrite::preimage_one(&mut hs, post, &fs);
        // Any dst_port maps into the set, as long as dst ip constraint holds.
        assert!(hs.contains(pre, &FiveTuple::tcp(1, ip(10, 1, 2, 3), 1, 22)));
        assert!(hs.contains(pre, &FiveTuple::tcp(1, ip(10, 1, 2, 3), 1, 65000)));
        assert!(!hs.contains(pre, &FiveTuple::tcp(1, ip(11, 1, 2, 3), 1, 8080)));
    }

    #[test]
    fn preimage_of_mismatching_constant_is_empty() {
        let mut hs = HeaderSpace::new();
        let fs = FieldSet::dst_port(8080);
        let post = hs.dst_port_range(veridp_switch::PortRange::exact(80));
        let pre = rewrite::preimage_one(&mut hs, post, &fs);
        assert!(
            pre.is_false(),
            "rewriting to 8080 can never land in dst_port==80"
        );
    }

    #[test]
    fn chain_image_composes_in_order() {
        let mut hs = HeaderSpace::new();
        let chain = [FieldSet::dst_port(80), FieldSet::dst_port(8080)];
        let img = rewrite::image(&mut hs, veridp_bdd::Bdd::TRUE, &chain);
        // Later set wins.
        let w = hs.witness(img).unwrap();
        assert_eq!(w.dst_port, 8080);
    }

    /// A 2-switch NAT scenario: S1 rewrites dst_ip from a virtual IP to the
    /// real server address and forwards to S2, which delivers.
    fn nat_setup() -> (veridp_topo::Topology, HashMap<SwitchId, Vec<RwRule>>) {
        let topo = gen::linear(2);
        let vip = ip(203, 0, 113, 10);
        let server_subnet = ip(10, 0, 2, 0);
        let mut rules: HashMap<SwitchId, Vec<RwRule>> = HashMap::new();
        rules.insert(
            SwitchId(1),
            vec![RwRule::rewriting(
                fwd(1, 32, Match::dst_prefix(vip, 32), 2),
                vec![FieldSet::dst_ip(server_subnet | 1)],
            )],
        );
        rules.insert(
            SwitchId(2),
            vec![RwRule::plain(fwd(
                2,
                24,
                Match::dst_prefix(server_subnet, 24),
                2,
            ))],
        );
        (topo, rules)
    }

    #[test]
    fn nat_path_table_tracks_entry_and_exit_sets() {
        let (topo, rules) = nat_setup();
        let mut hs = HeaderSpace::new();
        let table = RwPathTable::build(&topo, &rules, &mut hs, 16);
        let inport = PortRef::new(1, 1);
        let outport = PortRef::new(2, 2);
        let paths = table.paths(inport, outport);
        let vip_hdr = FiveTuple::tcp(ip(1, 2, 3, 4), ip(203, 0, 113, 10), 5, 80);
        let rewritten = FiveTuple::tcp(ip(1, 2, 3, 4), ip(10, 0, 2, 1), 5, 80);
        let p = paths
            .iter()
            .find(|p| hs.contains(p.entry_headers, &vip_hdr))
            .expect("VIP traffic admitted");
        // Exit set holds the rewritten header, not the VIP.
        assert!(hs.contains(p.exit_headers, &rewritten));
        assert!(!hs.contains(p.exit_headers, &vip_hdr));
        assert_eq!(p.chain, vec![FieldSet::dst_ip(ip(10, 0, 2, 1))]);
        assert_eq!(p.hops, vec![Hop::new(1, 1, 2), Hop::new(1, 2, 2)]);
    }

    #[test]
    fn nat_trace_applies_rewrites() {
        let (topo, rules) = nat_setup();
        let mut hs = HeaderSpace::new();
        let table = RwPathTable::build(&topo, &rules, &mut hs, 16);
        let vip_hdr = FiveTuple::tcp(ip(1, 2, 3, 4), ip(203, 0, 113, 10), 5, 80);
        let (hops, final_h) = table.trace(PortRef::new(1, 1), &vip_hdr, &hs);
        assert_eq!(hops.len(), 2);
        assert_eq!(final_h.dst_ip, ip(10, 0, 2, 1));
    }

    #[test]
    fn nat_end_to_end_verification_passes() {
        // Drive the real data plane: switch applies the rewrite, the exit
        // report carries the rewritten header, and the rewrite-aware table
        // verifies it — the thing the base system cannot do.
        let (topo, rules) = nat_setup();
        let mut hs = HeaderSpace::new();
        let table = RwPathTable::build(&topo, &rules, &mut hs, 16);

        let mut net = veridp_sim_stub::Net::new(&topo);
        for (sid, list) in &rules {
            for r in list {
                net.install(*sid, r.rule, r.sets.clone());
            }
        }
        let vip_hdr = FiveTuple::tcp(ip(1, 2, 3, 4), ip(203, 0, 113, 10), 5, 80);
        let report = net
            .send(&topo, PortRef::new(1, 1), vip_hdr)
            .expect("report");
        assert_eq!(
            report.header.dst_ip,
            ip(10, 0, 2, 1),
            "exit header is rewritten"
        );
        assert_eq!(table.verify(&report, &hs), VerifyOutcome::Pass);

        // And a tampered rewrite (wrong target) is caught.
        let mut net2 = veridp_sim_stub::Net::new(&topo);
        for (sid, list) in &rules {
            for r in list {
                let sets = if r.rule.id.0 == 1 {
                    vec![FieldSet::dst_ip(ip(10, 0, 2, 99))] // attacker redirect
                } else {
                    r.sets.clone()
                };
                net2.install(*sid, r.rule, sets);
            }
        }
        let bad = net2
            .send(&topo, PortRef::new(1, 1), vip_hdr)
            .expect("report");
        assert_ne!(table.verify(&bad, &hs), VerifyOutcome::Pass);
    }

    /// Minimal data-plane driver local to this test (the full simulator
    /// lives in veridp-sim, which depends on this crate).
    mod veridp_sim_stub {
        use super::*;
        use veridp_switch::{OfMessage, Switch};

        pub struct Net {
            switches: HashMap<SwitchId, Switch>,
        }

        impl Net {
            pub fn new(topo: &veridp_topo::Topology) -> Self {
                Net {
                    switches: topo.switches().map(|i| (i.id, Switch::new(i.id))).collect(),
                }
            }

            pub fn install(&mut self, s: SwitchId, rule: FlowRule, sets: Vec<FieldSet>) {
                let sw = self.switches.get_mut(&s).unwrap();
                sw.handle(OfMessage::FlowAdd(rule));
                if !sets.is_empty() {
                    sw.set_rewrite(rule.id, sets);
                }
            }

            pub fn send(
                &mut self,
                topo: &veridp_topo::Topology,
                from: PortRef,
                header: FiveTuple,
            ) -> Option<TagReport> {
                let mut pkt = veridp_packet::Packet::new(header);
                let mut here = from;
                for step in 0..64u64 {
                    let sw = self.switches.get_mut(&here.switch)?;
                    let (out, report) = sw.process_packet(&mut pkt, here.port, step, topo);
                    if let Some(r) = report {
                        return Some(r);
                    }
                    let out_ref = PortRef {
                        switch: here.switch,
                        port: out,
                    };
                    if out.is_drop() || topo.is_terminal_port(out_ref) {
                        return None;
                    }
                    here = if topo.is_middlebox_port(out_ref) {
                        out_ref
                    } else {
                        topo.peer(out_ref)?
                    };
                }
                None
            }
        }
    }
}

// ------------------------------------------------------------------ config

mod config_tests {
    use super::*;
    use crate::config::{parse_config, AclEntry, SwitchConfig};

    fn basic_config() -> SwitchConfig {
        SwitchConfig {
            name: "r1".into(),
            num_ports: 3,
            fwd_rules: vec![
                fwd(1, 24, Match::dst_prefix(ip(10, 0, 2, 0), 24), 2),
                fwd(2, 16, Match::dst_prefix(ip(10, 0, 0, 0), 16), 3),
            ],
            acl_in: HashMap::new(),
            acl_out: HashMap::new(),
        }
    }

    #[test]
    fn config_without_acls_matches_plain_predicates() {
        let mut hs = HeaderSpace::new();
        let cfg = basic_config();
        let p = cfg.predicates(SwitchId(1), &mut hs);
        let h24 = FiveTuple::tcp(1, ip(10, 0, 2, 9), 5, 80);
        let h16 = FiveTuple::tcp(1, ip(10, 0, 9, 9), 5, 80);
        let miss = FiveTuple::tcp(1, ip(9, 9, 9, 9), 5, 80);
        assert!(hs.contains(p.transfer(PortNo(1), PortNo(2)), &h24));
        assert!(hs.contains(p.transfer(PortNo(1), PortNo(3)), &h16));
        assert!(hs.contains(p.transfer(PortNo(1), DROP_PORT), &miss));
    }

    #[test]
    fn inbound_acl_filters_before_forwarding() {
        // Drop term 1: ¬P^in_x.
        let mut hs = HeaderSpace::new();
        let mut cfg = basic_config();
        cfg.acl_in.insert(
            PortNo(1),
            vec![
                AclEntry::deny(Match::src_prefix(ip(10, 0, 1, 2), 32)),
                AclEntry::permit(Match::ANY),
            ],
        );
        let p = cfg.predicates(SwitchId(1), &mut hs);
        let denied = FiveTuple::tcp(ip(10, 0, 1, 2), ip(10, 0, 2, 9), 5, 80);
        let allowed = FiveTuple::tcp(ip(10, 0, 1, 3), ip(10, 0, 2, 9), 5, 80);
        assert!(hs.contains(p.transfer(PortNo(1), DROP_PORT), &denied));
        assert!(!hs.contains(p.transfer(PortNo(1), PortNo(2)), &denied));
        assert!(hs.contains(p.transfer(PortNo(1), PortNo(2)), &allowed));
        // The ACL applies per in-port: port 2 is unfiltered.
        assert!(hs.contains(p.transfer(PortNo(2), PortNo(2)), &denied));
    }

    #[test]
    fn outbound_acl_filters_after_forwarding() {
        // Drop term 3: P^in ∧ P^fwd_y ∧ ¬P^out_y.
        let mut hs = HeaderSpace::new();
        let mut cfg = basic_config();
        cfg.acl_out.insert(
            PortNo(2),
            vec![AclEntry::permit(Match::ANY.with_dst_port(443))],
        );
        let p = cfg.predicates(SwitchId(1), &mut hs);
        let https = FiveTuple::tcp(1, ip(10, 0, 2, 9), 5, 443);
        let http = FiveTuple::tcp(1, ip(10, 0, 2, 9), 5, 80);
        assert!(hs.contains(p.transfer(PortNo(1), PortNo(2)), &https));
        assert!(!hs.contains(p.transfer(PortNo(1), PortNo(2)), &http));
        assert!(hs.contains(p.transfer(PortNo(1), DROP_PORT), &http));
        // Port 3 (no out ACL) is untouched.
        let h16 = FiveTuple::tcp(1, ip(10, 0, 9, 9), 5, 80);
        assert!(hs.contains(p.transfer(PortNo(1), PortNo(3)), &h16));
    }

    #[test]
    fn implicit_deny_at_acl_end() {
        let mut hs = HeaderSpace::new();
        let mut cfg = basic_config();
        // Only HTTPS from 10.0.1.0/24 is permitted in; everything else dies.
        cfg.acl_in.insert(
            PortNo(1),
            vec![AclEntry::permit(
                Match::src_prefix(ip(10, 0, 1, 0), 24).with_dst_port(443),
            )],
        );
        let p = cfg.predicates(SwitchId(1), &mut hs);
        let ok = FiveTuple::tcp(ip(10, 0, 1, 7), ip(10, 0, 2, 9), 5, 443);
        let bad = FiveTuple::tcp(ip(10, 0, 1, 7), ip(10, 0, 2, 9), 5, 80);
        assert!(hs.contains(p.transfer(PortNo(1), PortNo(2)), &ok));
        assert!(hs.contains(p.transfer(PortNo(1), DROP_PORT), &bad));
    }

    #[test]
    fn config_predicates_partition() {
        // The three-term drop formula must complete the partition.
        let mut hs = HeaderSpace::new();
        let mut cfg = basic_config();
        cfg.acl_in.insert(
            PortNo(1),
            vec![
                AclEntry::deny(Match::src_prefix(ip(10, 0, 1, 2), 32)),
                AclEntry::permit(Match::ANY),
            ],
        );
        cfg.acl_out.insert(
            PortNo(2),
            vec![AclEntry::permit(Match::ANY.with_dst_port(443))],
        );
        let p = cfg.predicates(SwitchId(1), &mut hs);
        for x in [PortNo(1), PortNo(2), PortNo(3)] {
            let outs = p.outputs(x);
            let sets: Vec<_> = outs.iter().map(|(_, b)| *b).collect();
            let union = hs.mgr().or_many(&sets);
            assert!(union.is_true(), "port {x} outputs do not cover");
            for i in 0..sets.len() {
                for j in i + 1..sets.len() {
                    assert!(!hs.mgr().intersects(sets[i], sets[j]));
                }
            }
        }
    }

    const FIGURE5_CONFIG: &str = r#"
# Figure 5 as a device configuration file.
switch S1 ports 4
fwd 10.0.1.1/32 -> 1
fwd 10.0.1.2/32 -> 2
fwd 10.0.2.0/24 dport 22 -> 3   # SSH via the middlebox
fwd 10.0.2.0/24 -> 4

switch S2 ports 4
fwd 10.0.2.0/24 -> 2
fwd 10.0.1.0/24 -> 1

switch S3 ports 4
fwd 10.0.2.0/24 -> 2
fwd 10.0.1.0/24 -> 3
acl in 1 deny src 10.0.1.2/32   # R8: drop all traffic from H2
acl in 1 permit any
acl in 3 deny src 10.0.1.2/32
acl in 3 permit any
"#;

    #[test]
    fn parse_figure5_config() {
        let cfgs = parse_config(FIGURE5_CONFIG).expect("parses");
        assert_eq!(cfgs.len(), 3);
        assert_eq!(cfgs[0].name, "S1");
        assert_eq!(cfgs[0].fwd_rules.len(), 4);
        // SSH rule has the dport qualifier and higher priority via plen tie:
        // both /24s share plen 24, so file order (rule id) breaks the tie —
        // the SSH rule comes first and wins for port 22.
        let ssh = &cfgs[0].fwd_rules[2];
        assert_eq!(ssh.fields.dst_port, PortRange::exact(22));
        assert_eq!(cfgs[2].acl_in.len(), 2);
    }

    #[test]
    fn parse_errors_are_reported_with_line_numbers() {
        assert!(parse_config("fwd 10.0.0.0/8 -> 1")
            .unwrap_err()
            .message
            .contains("before switch"));
        assert!(parse_config("switch s ports x").is_err());
        let e = parse_config("switch s ports 2\nfwd 10.0.0.0/40 -> 1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse_config("switch s ports 2\nacl in 1 maybe").is_err());
        assert!(parse_config("switch s ports 2\nbogus 1 2 3").is_err());
    }

    #[test]
    fn config_pipeline_builds_equivalent_path_table() {
        // Build the Figure 5 path table from the *text configuration* and
        // check the paper's worked example still holds.
        let topo = gen::figure5();
        let cfgs = parse_config(FIGURE5_CONFIG).unwrap();
        let mut hs = HeaderSpace::new();
        let preds: HashMap<SwitchId, crate::SwitchPredicates> = cfgs
            .iter()
            .map(|c| {
                let sid = topo.switch_by_name(&c.name).unwrap();
                (sid, c.predicates(sid, &mut hs))
            })
            .collect();
        let table = PathTable::build_with_predicates(&topo, preds, &mut hs, 16);

        // Non-SSH from H1 goes direct S1→S3 (no in_port rules at S2 in this
        // config, so the middlebox leg needs the OpenFlow variant; the
        // config variant still must match destination-based behaviour).
        let web = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 80);
        let paths = table.paths(PortRef::new(1, 1), PortRef::new(3, 2));
        let p = paths
            .iter()
            .find(|p| hs.contains(p.headers, &web))
            .expect("direct path");
        assert_eq!(p.hops, vec![Hop::new(1, 1, 4), Hop::new(3, 3, 2)]);

        // H2's traffic dies at S3's in-bound ACL — the drop path exists and
        // verification accepts only the drop, not a delivery.
        let from_h2 = FiveTuple::tcp(ip(10, 0, 1, 2), ip(10, 0, 2, 1), 999, 80);
        let drops = table.paths(
            PortRef::new(1, 2),
            PathTable::<HeaderSpace>::drop_port(SwitchId(3)),
        );
        assert!(drops.iter().any(|p| hs.contains(p.headers, &from_h2)));
        let leak = TagReport::new(
            PortRef::new(1, 2),
            PortRef::new(3, 2),
            from_h2,
            tag_of(&[(2, 1, 4), (3, 3, 2)]),
        );
        assert_ne!(table.verify(&leak, &hs), VerifyOutcome::Pass);
    }
}

// ------------------------------------------------------- rewrite property

mod extension_properties {
    use super::*;
    use crate::rewrite;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use veridp_switch::{FieldSet, RwField};

    fn arb_fieldset(rng: &mut StdRng) -> FieldSet {
        match rng.gen_range(0..4) {
            0 => FieldSet::src_ip(rng.gen()),
            1 => FieldSet::dst_ip(rng.gen()),
            2 => FieldSet::src_port(rng.gen()),
            _ => FieldSet::dst_port(rng.gen()),
        }
    }

    fn arb_header(rng: &mut StdRng) -> FiveTuple {
        FiveTuple::tcp(rng.gen(), rng.gen(), rng.gen(), rng.gen())
    }

    /// Adjointness: h ∈ preimage(S) ⟺ apply(h) ∈ S.
    #[test]
    fn preimage_is_adjoint_to_apply() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fs = arb_fieldset(&mut rng);
            let h = arb_header(&mut rng);
            let dst: u32 = rng.gen();
            let plen = rng.gen_range(0u8..=32);
            let port_lo: u16 = rng.gen();
            let mut hs = HeaderSpace::new();
            // S: a non-trivial set mixing two fields.
            let a = hs.dst_prefix(dst, plen);
            let b = hs.src_port_range(PortRange::new(port_lo.min(40000), 40000u16.max(port_lo)));
            let s = hs.mgr().and(a, b);
            let pre = rewrite::preimage_one(&mut hs, s, &fs);
            let mut applied = h;
            fs.apply(&mut applied);
            assert_eq!(
                hs.contains(pre, &h),
                hs.contains(s, &applied),
                "seed {seed}"
            );
        }
    }

    /// Image soundness: apply(h) ∈ image(S) for every h ∈ S.
    #[test]
    fn image_contains_applied_members() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fs = arb_fieldset(&mut rng);
            let dst: u32 = rng.gen();
            let plen = rng.gen_range(0u8..=32);
            let mut hs = HeaderSpace::new();
            let s = hs.dst_prefix(dst, plen);
            let img = rewrite::image_one(&mut hs, s, &fs);
            if let Some(h) = hs.witness(s) {
                let mut applied = h;
                fs.apply(&mut applied);
                assert!(hs.contains(img, &applied), "seed {seed}");
            }
        }
    }

    /// Field metadata is consistent with the canonical layout.
    #[test]
    fn rwfield_layout_consistent() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fs = arb_fieldset(&mut rng);
            let f = fs.field;
            assert!(f.offset() + f.width() <= veridp_packet::HEADER_BITS);
            let expect = match f {
                RwField::SrcIp | RwField::DstIp => 32,
                RwField::SrcPort | RwField::DstPort => 16,
            };
            assert_eq!(f.width(), expect);
        }
    }
}

#[test]
fn static_table_matches_tracking_table() {
    let mut hs = HeaderSpace::new();
    let topo = gen::figure5();
    let rules = figure5_rules();
    let tracking = PathTable::build(&topo, &rules, &mut hs, 16);
    let static_ = PathTable::build_static(&topo, &rules, &mut hs, 16);
    assert!(tracking.tracks_reach());
    assert!(!static_.tracks_reach());
    let norm = |t: &PathTable| {
        let mut v: Vec<_> = t
            .all_entries()
            .into_iter()
            .map(|((i, o), e)| (*i, *o, e.hops.clone(), e.tag.bits(), e.headers.index()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(norm(&tracking), norm(&static_));
}

#[test]
#[should_panic(expected = "incremental update requires reach records")]
fn static_table_rejects_incremental_update() {
    let mut hs = HeaderSpace::new();
    let mut t = PathTable::build_static(&gen::figure5(), &figure5_rules(), &mut hs, 16);
    t.delete_rule(SwitchId(1), veridp_switch::RuleId(3), &mut hs);
}

#[test]
fn alarm_aggregator_collapses_per_flow_failures() {
    let mut hs = HeaderSpace::new();
    let table = figure5_table(&mut hs);
    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let bad = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh,
        tag_of(&[(1, 1, 4), (3, 3, 2)]),
    );
    let good = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh,
        tag_of(&[(1, 1, 3), (1, 2, 3), (3, 2, 2), (1, 3, 2)]),
    );

    let mut agg = crate::AlarmAggregator::new();
    assert!(agg.is_empty());
    // Ten distinct sampled failures of the same flow (one per epoch) → one
    // alarm with count 10.
    for epoch in 0..10 {
        let bad = bad.with_epoch(epoch);
        let outcome = table.verify(&bad, &hs);
        let loc = table.localize(&bad, &hs);
        agg.observe(&bad, &outcome, Some(&loc));
    }
    // Passing reports never alarm.
    let outcome = table.verify(&good, &hs);
    agg.observe(&good, &outcome, None);

    assert_eq!(agg.len(), 1);
    let alarms = agg.alarms();
    assert_eq!(alarms[0].count, 10);
    assert_eq!(alarms[0].header, ssh);
    assert_eq!(
        alarms[0].suspects.first().map(|(s, _)| *s),
        Some(SwitchId(1))
    );

    agg.clear();
    assert!(agg.is_empty());
}

#[test]
fn alarm_aggregator_dedups_suspects_and_orders_output() {
    use crate::{InferredPath, LocalizeOutcome};
    let loc = |suspects: &[u32]| LocalizeOutcome {
        correct_path: Vec::new(),
        candidates: suspects
            .iter()
            .map(|&s| InferredPath {
                hops: Vec::new(),
                faulty_switch: SwitchId(s),
                deviation_index: 0,
            })
            .collect(),
    };
    let h1 = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 1000, 80);
    let h2 = FiveTuple::tcp(ip(10, 0, 1, 2), ip(10, 0, 2, 2), 1000, 443);
    let r1 = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        h1,
        tag_of(&[(1, 1, 1)]),
    );
    let r2 = TagReport::new(
        PortRef::new(2, 1),
        PortRef::new(3, 2),
        h2,
        tag_of(&[(2, 2, 2)]),
    );

    let mut agg = crate::AlarmAggregator::new();
    // Flow 1 fails three times (distinct epochs, so none dedup away):
    // switch 5 implicated every time, 7 once. Repeated (switch, verdict)
    // observations must fold into one suspect entry with a count, not
    // duplicate entries.
    agg.observe(
        &r1.with_epoch(1),
        &VerifyOutcome::TagMismatch,
        Some(&loc(&[5])),
    );
    agg.observe(
        &r1.with_epoch(2),
        &VerifyOutcome::TagMismatch,
        Some(&loc(&[5, 7])),
    );
    agg.observe(
        &r1.with_epoch(3),
        &VerifyOutcome::NoMatchingPath,
        Some(&loc(&[5])),
    );
    // Flow 2 fails once.
    agg.observe(&r2, &VerifyOutcome::TagMismatch, Some(&loc(&[9])));

    assert_eq!(agg.len(), 2);
    let alarms = agg.alarms();
    // Most-failures first, suspects by descending candidate count.
    assert_eq!(alarms[0].count, 3);
    assert_eq!(alarms[0].header, h1);
    assert_eq!(alarms[0].suspects, vec![(SwitchId(5), 3), (SwitchId(7), 1)]);
    assert_eq!(alarms[1].count, 1);
    assert_eq!(alarms[1].suspects, vec![(SwitchId(9), 1)]);

    // Pass verdicts never touch an existing alarm.
    agg.observe(&r1, &VerifyOutcome::Pass, None);
    assert_eq!(agg.alarms()[0].count, 3);

    // clear() empties everything, is idempotent, and observation afterwards
    // starts from fresh counts.
    agg.clear();
    assert!(agg.is_empty());
    assert_eq!(agg.len(), 0);
    assert!(agg.alarms().is_empty());
    agg.clear();
    assert!(agg.is_empty());
    agg.observe(&r1, &VerifyOutcome::TagMismatch, None);
    assert_eq!(agg.alarms()[0].count, 1);
    assert!(agg.alarms()[0].suspects.is_empty());
}

#[test]
fn flight_recorder_freezes_on_confirmation() {
    use crate::{InferredPath, LocalizeOutcome};
    let loc = |suspects: &[u32]| LocalizeOutcome {
        correct_path: Vec::new(),
        candidates: suspects
            .iter()
            .map(|&s| InferredPath {
                hops: Vec::new(),
                faulty_switch: SwitchId(s),
                deviation_index: 0,
            })
            .collect(),
    };
    let h = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 1000, 80);
    let r = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        h,
        tag_of(&[(1, 1, 1)]),
    );

    let mut agg = crate::AlarmAggregator::with_confirmation(3, 256);
    agg.set_shard(4);
    assert!(agg.flight_dumps().is_empty());
    for epoch in 1..=3u64 {
        let stamped = r.with_epoch(epoch).with_origin(veridp_obs::monotonic_ns());
        agg.observe(&stamped, &VerifyOutcome::TagMismatch, Some(&loc(&[5])));
    }

    // Third implication confirms (5, pair) and freezes the pair's ring.
    let dumps = agg.flight_dumps();
    assert_eq!(dumps.len(), 1);
    let d = &dumps[0];
    assert_eq!(d.pair, (r.inport, r.outport));
    assert_eq!(d.suspect, SwitchId(5));
    assert_eq!(d.count, 3);
    let json = d.to_json();
    assert!(json.contains("\"suspect_switch\":5"), "json: {json}");
    assert!(
        json.contains("\"pair\":{\"in\":\"1:1\",\"out\":\"3:2\"}"),
        "json: {json}"
    );
    if veridp_obs::ENABLED {
        assert_eq!(d.events.len(), 3);
        assert!(d.events.iter().all(|e| e.shard == 4));
        assert!(d.events.iter().all(|e| e.verdict == "tag_mismatch"));
        assert!(d.events.iter().all(|e| e.latency_ns > 0));
        assert!(d.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(json.contains("\"verdict\":\"tag_mismatch\""));
    }

    // Dumps survive a shard merge, and clear() drops them.
    let mut root = crate::AlarmAggregator::new();
    root.absorb(agg);
    assert_eq!(root.flight_dumps().len(), 1);
    assert_eq!(root.flight_dumps()[0].suspect, SwitchId(5));
    root.clear();
    assert!(root.flight_dumps().is_empty());
}

#[test]
fn server_stats_merge_is_associative() {
    use crate::ServerStats;
    let mk = |seed: u64| ServerStats {
        reports: seed,
        passed: seed / 2,
        tag_mismatch: seed % 7,
        no_matching_path: seed % 5,
        localizations: seed % 3,
        localized: seed % 2,
        cache_hits: seed * 3,
        cache_misses: seed + 1,
        duplicates: seed % 11,
        graced: seed % 13,
        quarantined: seed % 17,
        shed: seed % 19,
        ..ServerStats::default()
    };
    let (a, b, c) = (mk(10), mk(23), mk(47));

    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): shard grouping can't change totals.
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left, right);

    // Commutative, with the default as identity.
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba);
    let mut id = a.clone();
    id.merge(&ServerStats::default());
    assert_eq!(id, a);

    // Derived quantities distribute over the merge.
    assert_eq!(left.failed(), a.failed() + b.failed() + c.failed());
}

// ------------------------------------------------------------- robustness

/// Satellite regression: an identical failing report (same pair, header,
/// tag, epoch) observed twice must not bump the alarm or suspect counts
/// twice — transports duplicate frames, not evidence.
#[test]
fn alarm_aggregator_ignores_duplicate_reports() {
    use crate::{InferredPath, LocalizeOutcome};
    let loc = LocalizeOutcome {
        correct_path: Vec::new(),
        candidates: vec![InferredPath {
            hops: Vec::new(),
            faulty_switch: SwitchId(5),
            deviation_index: 0,
        }],
    };
    let h = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 1000, 80);
    let r = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        h,
        tag_of(&[(1, 1, 1)]),
    );

    let mut agg = crate::AlarmAggregator::new();
    agg.observe(&r, &VerifyOutcome::TagMismatch, Some(&loc));
    agg.observe(&r, &VerifyOutcome::TagMismatch, Some(&loc));
    agg.observe(&r, &VerifyOutcome::TagMismatch, Some(&loc));

    let alarms = agg.alarms();
    assert_eq!(alarms.len(), 1);
    assert_eq!(alarms[0].count, 1, "duplicates must not inflate the count");
    assert_eq!(alarms[0].suspects, vec![(SwitchId(5), 1)]);

    // A genuinely new observation (different epoch) still counts.
    agg.observe(&r.with_epoch(7), &VerifyOutcome::TagMismatch, Some(&loc));
    assert_eq!(agg.alarms()[0].count, 2);
    assert_eq!(agg.alarms()[0].suspects, vec![(SwitchId(5), 2)]);
}

#[test]
fn alarm_confirmation_requires_k_failures() {
    use crate::{InferredPath, LocalizeOutcome};
    let loc = |s: u32| LocalizeOutcome {
        correct_path: Vec::new(),
        candidates: vec![InferredPath {
            hops: Vec::new(),
            faulty_switch: SwitchId(s),
            deviation_index: 0,
        }],
    };
    let h = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 1000, 80);
    let r = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        h,
        tag_of(&[(1, 1, 1)]),
    );

    let mut agg = crate::AlarmAggregator::with_confirmation(3, 256);
    agg.observe(&r.with_epoch(1), &VerifyOutcome::TagMismatch, Some(&loc(5)));
    agg.observe(&r.with_epoch(2), &VerifyOutcome::TagMismatch, Some(&loc(5)));
    assert!(agg.confirmed().is_empty(), "2 of 3 must not confirm");

    agg.observe(&r.with_epoch(3), &VerifyOutcome::TagMismatch, Some(&loc(5)));
    let confirmed = agg.confirmed();
    assert_eq!(confirmed.len(), 1);
    assert_eq!(confirmed[0].suspect, SwitchId(5));
    assert_eq!(confirmed[0].count, 3);
    assert_eq!(agg.confirmed_suspects(), vec![SwitchId(5)]);

    // Post-confirmation observations keep escalating the count.
    agg.observe(&r.with_epoch(4), &VerifyOutcome::TagMismatch, Some(&loc(5)));
    assert_eq!(agg.confirmed()[0].count, 4);

    // A suspect-less failure (e.g. corruption artifact) can never confirm.
    let other = r.with_epoch(5);
    agg.observe(&other, &VerifyOutcome::NoMatchingPath, None);
    assert_eq!(agg.confirmed().len(), 1);
}

#[test]
fn alarm_confirmation_window_slides() {
    use crate::{InferredPath, LocalizeOutcome};
    let loc = |s: u32| LocalizeOutcome {
        correct_path: Vec::new(),
        candidates: vec![InferredPath {
            hops: Vec::new(),
            faulty_switch: SwitchId(s),
            deviation_index: 0,
        }],
    };
    let h = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 1000, 80);
    let ra = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        h,
        tag_of(&[(1, 1, 1)]),
    );
    let rb = TagReport::new(
        PortRef::new(2, 1),
        PortRef::new(3, 2),
        FiveTuple::tcp(ip(10, 0, 1, 2), ip(10, 0, 2, 2), 1000, 80),
        tag_of(&[(2, 2, 2)]),
    );

    // K=2 within the last N=2 failing observations: an intervening failure
    // of another flow ages the first support for A out of the window.
    let mut agg = crate::AlarmAggregator::with_confirmation(2, 2);
    agg.observe(
        &ra.with_epoch(1),
        &VerifyOutcome::TagMismatch,
        Some(&loc(5)),
    );
    agg.observe(
        &rb.with_epoch(1),
        &VerifyOutcome::TagMismatch,
        Some(&loc(9)),
    );
    agg.observe(
        &ra.with_epoch(2),
        &VerifyOutcome::TagMismatch,
        Some(&loc(5)),
    );
    assert!(
        agg.confirmed().is_empty(),
        "support outside the sliding window must not count"
    );

    // Two back-to-back failures confirm.
    agg.observe(
        &ra.with_epoch(3),
        &VerifyOutcome::TagMismatch,
        Some(&loc(5)),
    );
    assert_eq!(agg.confirmed_suspects(), vec![SwitchId(5)]);
}

#[test]
fn grace_ring_passes_pre_update_reports() {
    let topo = gen::figure5();
    let mut hs = HeaderSpace::new();
    let mut table = PathTable::build(&topo, &figure5_rules(), &mut hs, 16);
    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let detour = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh,
        tag_of(&[(1, 1, 3), (1, 2, 3), (3, 2, 2), (1, 3, 2)]),
    );
    assert_eq!(table.verify(&detour, &hs), VerifyOutcome::Pass);
    assert_eq!(table.epoch(), 0);

    // Delete the SSH detour rule while `detour`'s packet is in flight.
    table.delete_rule(SwitchId(1), veridp_switch::RuleId(3), &mut hs);
    assert_eq!(table.epoch(), 1);
    assert!(!table.retired_ring().is_empty());

    // The pre-update report now fails plain verification...
    assert_ne!(table.verify(&detour, &hs), VerifyOutcome::Pass);
    // ...but grace recognizes the retired path (report epoch 0 < table 1).
    let (outcome, graced) = table.verify_graced(&detour, &hs);
    assert_eq!(outcome, VerifyOutcome::Pass);
    assert!(graced);

    // The same trajectory stamped with the current epoch gets no grace: it
    // was sampled against the live table and must answer to it.
    let (outcome, graced) = table.verify_graced(&detour.with_epoch(1), &hs);
    assert_ne!(outcome, VerifyOutcome::Pass);
    assert!(!graced);

    // Depth 0 drops all retired state and disables grace.
    table.set_grace_depth(0);
    let (outcome, graced) = table.verify_graced(&detour, &hs);
    assert_ne!(outcome, VerifyOutcome::Pass);
    assert!(!graced);
}

#[test]
fn retired_ring_bounded_by_depth() {
    let topo = gen::figure5();
    let mut hs = HeaderSpace::new();
    let base = figure5_rules();
    let mut table = PathTable::build(&topo, &base, &mut hs, 16);
    let r3 = base[&SwitchId(1)]
        .iter()
        .find(|r| r.id.0 == 3)
        .copied()
        .unwrap();

    // Each delete/re-add cycle shrinks some hop, producing ring records;
    // the ring must stay bounded at its depth and count evictions.
    for _ in 0..10 {
        table.delete_rule(SwitchId(1), veridp_switch::RuleId(3), &mut hs);
        table.add_rule(SwitchId(1), r3, &mut hs);
    }
    let ring = table.retired_ring();
    assert!(ring.len() <= ring.depth());
    assert_eq!(ring.len(), ring.depth());
    assert!(ring.evictions() > 0);
}

#[test]
fn recent_filter_exact_and_bounded() {
    let r = |n: u64| {
        TagReport::new(
            PortRef::new(1, 1),
            PortRef::new(2, 2),
            FiveTuple::tcp(0, 0, 0, 80),
            BloomTag::default_width(),
        )
        .with_epoch(n)
    };
    let mut f = crate::RecentFilter::new(2);
    assert!(f.insert(&r(1)));
    assert!(!f.insert(&r(1)), "exact duplicate is caught");
    assert!(f.insert(&r(2)));
    assert!(f.insert(&r(3))); // evicts r(1)
    assert!(f.insert(&r(1)), "evicted entries read as fresh again");
    assert_eq!(f.len(), 2);

    // Zero capacity disables dedup entirely.
    let mut off = crate::RecentFilter::new(0);
    assert!(off.insert(&r(1)));
    assert!(off.insert(&r(1)));
}

/// The previous `RecentFilter` — a `HashSet` of the window plus a
/// `VecDeque` of the same reports in arrival order — kept as the reference
/// model the ring + index implementation is checked against.
struct RecentFilterModel {
    capacity: usize,
    seen: std::collections::HashSet<TagReport>,
    order: std::collections::VecDeque<TagReport>,
}

impl RecentFilterModel {
    fn insert(&mut self, report: &TagReport) -> bool {
        if self.capacity == 0 {
            return true;
        }
        if !self.seen.insert(*report) {
            return false;
        }
        self.order.push_back(*report);
        if self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }
}

#[test]
fn recent_filter_matches_reference_model() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    for capacity in [0usize, 1, 7, 8192] {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + capacity as u64);
            let mut filter = crate::RecentFilter::new(capacity);
            let mut model = RecentFilterModel {
                capacity,
                seen: Default::default(),
                order: Default::default(),
            };
            // Every field equality covers varies; the origin stamp varies
            // too and must never tell two copies apart.
            let fresh = |rng: &mut StdRng| {
                TagReport::new(
                    PortRef::new(rng.gen_range(1..4), rng.gen_range(1..3)),
                    PortRef::new(rng.gen_range(1..4), rng.gen_range(1..3)),
                    FiveTuple::tcp(rng.gen(), rng.gen(), rng.gen(), 80),
                    BloomTag::from_bits(rng.gen::<u64>() & 0xffff, 16),
                )
                .with_epoch(rng.gen_range(0..3))
            };
            let mut sent: Vec<TagReport> = Vec::new();
            for step in 0..40_000usize {
                let report = match rng.gen_range(0..10) {
                    // Near duplicate: one of the last few reports, well
                    // inside every non-trivial window.
                    0 | 1 if !sent.is_empty() => {
                        sent[sent.len() - 1 - rng.gen_range(0..sent.len().min(5))]
                    }
                    // Far duplicate: anywhere in the history, so around
                    // the eviction boundary and long past it.
                    2 if !sent.is_empty() => sent[rng.gen_range(0..sent.len())],
                    _ => fresh(&mut rng),
                }
                .with_origin(step as u64);
                sent.push(report);
                assert_eq!(
                    filter.insert(&report),
                    model.insert(&report),
                    "capacity {capacity} seed {seed} step {step}"
                );
                assert_eq!(filter.len(), model.order.len());
            }
            assert_eq!(filter.is_empty(), capacity == 0);
        }
    }
}

#[test]
fn robust_ingest_dispositions_and_settle() {
    use crate::{Disposition, RobustConfig};
    let topo = gen::figure5();
    let rules = figure5_rules();
    let mut server = VeriDpServer::new(&topo, &rules, 16);
    server.set_robust(Some(RobustConfig::default()));

    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let detour_tag = tag_of(&[(1, 1, 3), (1, 2, 3), (3, 2, 2), (1, 3, 2)]);
    let good = TagReport::new(PortRef::new(1, 1), PortRef::new(3, 2), ssh, detour_tag);

    assert_eq!(server.ingest_robust(&good), Disposition::Passed);
    assert_eq!(server.ingest_robust(&good), Disposition::Duplicate);
    assert_eq!(server.stats().duplicates, 1);
    assert_eq!(server.stats().reports, 1);

    // Delete the SSH detour: the table moves to epoch 1.
    server.intercept(
        SwitchId(1),
        &veridp_switch::OfMessage::FlowDelete(veridp_switch::RuleId(3)),
    );
    assert_eq!(server.table().epoch(), 1);

    // An in-flight pre-update report of another SSH flow: graced.
    let ssh2 = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 1000, 22);
    let late = TagReport::new(PortRef::new(1, 1), PortRef::new(3, 2), ssh2, detour_tag);
    assert_eq!(server.ingest_robust(&late), Disposition::Graced);
    assert_eq!(server.stats().graced, 1);

    // Old-epoch garbage neither passes nor graces: held until settle, with
    // its verdict deferred.
    let garbage = TagReport::new(
        PortRef::new(1, 1),
        PortRef::new(3, 2),
        ssh2,
        tag_of(&[(2, 9, 2)]),
    );
    assert_eq!(server.ingest_robust(&garbage), Disposition::Quarantined);
    assert_eq!(server.stats().quarantined, 1);
    assert_eq!(server.stats().reports, 2);
    assert_eq!(server.stats().failed(), 0);
    assert_eq!(server.robust().unwrap().quarantine_len(), 1);

    server.settle();
    assert_eq!(server.robust().unwrap().quarantine_len(), 0);
    assert_eq!(server.stats().reports, 3);
    assert_eq!(server.stats().failed(), 1);
    assert_eq!(server.robust().unwrap().alarms.len(), 1);

    // A current-epoch failure is final immediately and feeds the same alarm.
    let fresh_bad = garbage.with_epoch(1);
    assert_eq!(server.ingest_robust(&fresh_bad), Disposition::Failed);
    assert_eq!(server.stats().failed(), 2);
    assert_eq!(server.robust().unwrap().alarms.len(), 1);
    assert_eq!(server.robust().unwrap().alarms.alarms()[0].count, 2);
}

/// With every report stamped at the table's current epoch and no duplicate
/// frames, robust ingest must produce verdict statistics bit-identical to
/// the plain verify-and-localize path.
#[test]
fn robust_ingest_matches_plain_when_settled() {
    use crate::RobustConfig;
    let topo = gen::figure5();
    let rules = figure5_rules();
    let mut plain = VeriDpServer::new(&topo, &rules, 16);
    let mut robust = VeriDpServer::new(&topo, &rules, 16);
    robust.set_robust(Some(RobustConfig::default()));

    let ssh = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 22);
    let web = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 1), 999, 80);
    let reports = [
        TagReport::new(
            PortRef::new(1, 1),
            PortRef::new(3, 2),
            ssh,
            tag_of(&[(1, 1, 3), (1, 2, 3), (3, 2, 2), (1, 3, 2)]),
        ),
        TagReport::new(
            PortRef::new(1, 1),
            PortRef::new(3, 2),
            web,
            tag_of(&[(1, 1, 4), (1, 3, 2)]),
        ),
        TagReport::new(
            PortRef::new(1, 1),
            PortRef::new(3, 2),
            web,
            tag_of(&[(9, 9, 9)]),
        ),
        TagReport::new(
            PortRef::new(1, 1),
            PortRef::new(3, 2),
            ssh,
            tag_of(&[(1, 1, 4), (1, 3, 2)]),
        ),
    ];
    for r in &reports {
        plain.verify_and_localize(r);
        robust.ingest_robust(r);
    }
    robust.settle();
    assert_eq!(
        plain.stats().verdict_counts(),
        robust.stats().verdict_counts()
    );
    assert_eq!(robust.stats().graced, 0);
    assert_eq!(robust.stats().quarantined, 0);
    assert_eq!(plain.suspects(), robust.suspects());
}

/// Pair-sharded [`crate::RobustWorker`]s fed through [`TagReport::shard`]
/// must land exactly where single-threaded `ingest_robust` + `settle` does:
/// same verdict counts, same robust counters, same suspects, same alarms —
/// under dedup, epoch churn, grace, and quarantine all firing.
#[test]
fn sharded_workers_match_single_threaded_robust() {
    use crate::{RobustConfig, RobustWorker};
    let topo = gen::figure5();
    let rules = figure5_rules();
    let mk = || {
        let mut s = VeriDpServer::new(&topo, &rules, 16);
        s.set_fastpath(true);
        s.set_robust(Some(RobustConfig::default()));
        s.set_snapshots(true);
        s
    };
    let mut reference = mk();
    let mut sharded = mk();

    // A battery touching every pair: faithful witnesses, corrupted tags,
    // and duplicated frames.
    let mut stream: Vec<TagReport> = Vec::new();
    for ((i, o), entries) in reference.table().iter() {
        for e in entries {
            if let Some(w) = reference.header_space().witness(e.headers) {
                let good = TagReport::new(*i, *o, w, e.tag);
                stream.push(good);
                stream.push(TagReport::new(*i, *o, w, tag_of(&[(9, 9, 9)])));
                stream.push(good); // exact duplicate frame
            }
        }
    }

    const SHARDS: usize = 3;
    let mut workers: Vec<RobustWorker> = (0..SHARDS)
        .map(|_| sharded.robust_worker().expect("snapshots+robust enabled"))
        .collect();
    let churn_at = stream.len() / 2;
    for (k, r) in stream.iter().enumerate() {
        if k == churn_at {
            // Epoch churn mid-stream: later old-epoch failures hit the
            // grace/quarantine arms on both sides.
            let upd = veridp_switch::OfMessage::FlowDelete(veridp_switch::RuleId(3));
            reference.intercept(SwitchId(1), &upd);
            sharded.intercept(SwitchId(1), &upd);
        }
        reference.ingest_robust(r);
        workers[r.shard(SHARDS)].ingest(r);
    }
    reference.settle();
    for w in workers {
        sharded.absorb(w.harvest());
    }

    assert_eq!(
        reference.stats().verdict_counts(),
        sharded.stats().verdict_counts()
    );
    assert_eq!(reference.stats().duplicates, sharded.stats().duplicates);
    assert_eq!(reference.stats().graced, sharded.stats().graced);
    assert_eq!(reference.stats().quarantined, sharded.stats().quarantined);
    assert_eq!(reference.stats().shed, sharded.stats().shed);
    assert_eq!(reference.suspects(), sharded.suspects());
    let (ra, sa) = (
        &reference.robust().unwrap().alarms,
        &sharded.robust().unwrap().alarms,
    );
    assert_eq!(ra.alarms(), sa.alarms());
    assert_eq!(ra.confirmed(), sa.confirmed());
    assert_eq!(ra.confirmed_suspects(), sa.confirmed_suspects());
}

// ---------------------------------------------------------------- fastpath

mod fastpath_tests {
    use super::*;
    use crate::{
        verify_batch, verify_batch_fast, verify_batch_summary, verify_batch_summary_fast,
        VerifyFastPath,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rules(rng: &mut StdRng, switches: u32, nports: u16) -> Rules {
        let mut rules: Rules = HashMap::new();
        let mut id = 1u64;
        for s in 1..=switches {
            let n = rng.gen_range(2..6);
            let list: Vec<FlowRule> = (0..n)
                .map(|_| {
                    let plen = rng.gen_range(8..=24u8);
                    let base = ip(10, 0, rng.gen_range(0..4), 0);
                    let mut m = Match::dst_prefix(base, plen);
                    if rng.gen_bool(0.2) {
                        m = m.with_dst_port(rng.gen_range(1..1024));
                    }
                    let action = if rng.gen_bool(0.1) {
                        Action::Drop
                    } else {
                        Action::Forward(PortNo(rng.gen_range(1..=nports)))
                    };
                    id += 1;
                    FlowRule::new(id, plen as u16, m, action)
                })
                .collect();
            rules.insert(SwitchId(s), list);
        }
        rules
    }

    /// Faithful witnesses plus perturbations: corrupted tags, shuffled
    /// pairs, and random headers — all three verdict kinds appear.
    fn report_battery(table: &PathTable, hs: &HeaderSpace, rng: &mut StdRng) -> Vec<TagReport> {
        let mut reports = Vec::new();
        let pairs: Vec<(PortRef, PortRef)> = table.iter().map(|(k, _)| *k).collect();
        for ((i, o), entries) in table.iter() {
            for e in entries {
                if let Some(w) = hs.witness(e.headers) {
                    reports.push(TagReport::new(*i, *o, w, e.tag));
                    let mut bad = TagReport::new(*i, *o, w, e.tag);
                    bad.tag = tag_of(&[(9, 9, 9)]);
                    reports.push(bad);
                    if !pairs.is_empty() {
                        let (j, p) = pairs[rng.gen_range(0..pairs.len())];
                        reports.push(TagReport::new(j, p, w, e.tag));
                    }
                }
            }
        }
        for _ in 0..32 {
            let h = FiveTuple::tcp(rng.gen(), rng.gen(), rng.gen(), rng.gen());
            if pairs.is_empty() {
                break;
            }
            let (i, o) = pairs[rng.gen_range(0..pairs.len())];
            reports.push(TagReport::new(
                i,
                o,
                h,
                BloomTag::from_bits(rng.gen::<u64>() & 0xffff, 16),
            ));
        }
        reports
    }

    /// Apply exactly one incremental rule change (always bumps the epoch):
    /// delete or modify when the chosen switch has rules, add otherwise.
    fn random_update(
        rng: &mut StdRng,
        table: &mut PathTable,
        hs: &mut HeaderSpace,
        next_id: &mut u64,
    ) {
        let sids: Vec<SwitchId> = table.topo().switches().map(|s| s.id).collect();
        let s = sids[rng.gen_range(0..sids.len())];
        let nports = table.topo().switch(s).unwrap().num_ports;
        let ids: Vec<_> = table
            .predicates(s)
            .map(|p| p.rules().iter().map(|r| r.id).collect())
            .unwrap_or_default();
        match rng.gen_range(0..3u8) {
            1 if !ids.is_empty() => {
                table.delete_rule(s, ids[0], hs);
            }
            2 if !ids.is_empty() => {
                let id = ids[rng.gen_range(0..ids.len())];
                table.modify_rule(
                    s,
                    id,
                    Action::Forward(PortNo(rng.gen_range(1..=nports))),
                    hs,
                );
            }
            _ => {
                let plen = rng.gen_range(8..=24u8);
                let base = ip(10, 0, rng.gen_range(0..4), 0);
                let rule = FlowRule::new(
                    *next_id,
                    plen as u16,
                    Match::dst_prefix(base, plen),
                    Action::Forward(PortNo(rng.gen_range(1..=nports))),
                );
                *next_id += 1;
                table.add_rule(s, rule, hs);
            }
        }
    }

    /// Seeded loop: the fast path (index + cache) agrees with the plain scan
    /// on randomized report streams interleaved with rule updates; a cached
    /// verdict survives an update only where its pair did not change.
    #[test]
    fn fastpath_agrees_with_scan_under_updates() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = gen::linear(3);
            let rules = random_rules(&mut rng, 3, 3);
            let mut hs = HeaderSpace::new();
            let mut table = PathTable::build(&topo, &rules, &mut hs, 16);
            let mut fp = VerifyFastPath::new();
            let mut next_id = 10_000u64;
            for round in 0..6 {
                let reports = report_battery(&table, &hs, &mut rng);
                // Verify the stream twice so repeats hit the cache.
                for r in reports.iter().chain(reports.iter()) {
                    assert_eq!(
                        fp.verify(&table, &hs, r),
                        table.verify(r, &hs),
                        "seed {seed} round {round} report {r}"
                    );
                }
                random_update(&mut rng, &mut table, &mut hs, &mut next_id);
            }
            let stats = fp.stats();
            assert!(stats.hits > 0, "seed {seed}: repeats never hit the cache");
            assert!(stats.misses > 0, "seed {seed}: nothing was ever computed");
        }
    }

    /// A pinned report is re-verified after every single update; the cached
    /// verdict from before the update must never be served if the table
    /// changed the answer (and even when it didn't, the verdict must match
    /// the plain scan exactly).
    #[test]
    fn verdict_cache_never_serves_stale_across_epochs() {
        for seed in 100..112u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = gen::linear(3);
            let rules = random_rules(&mut rng, 3, 3);
            let mut hs = HeaderSpace::new();
            let mut table = PathTable::build(&topo, &rules, &mut hs, 16);
            let mut fp = VerifyFastPath::new();
            let pinned = report_battery(&table, &hs, &mut rng);
            let mut next_id = 20_000u64;
            for step in 0..10 {
                for r in pinned.iter().take(16) {
                    // Warm the cache, then change the table, then re-ask.
                    let before = fp.verify(&table, &hs, r);
                    assert_eq!(before, table.verify(r, &hs), "seed {seed} step {step}");
                }
                let epoch_before = table.epoch();
                random_update(&mut rng, &mut table, &mut hs, &mut next_id);
                assert!(table.epoch() > epoch_before, "update must bump the epoch");
                for r in pinned.iter().take(16) {
                    assert_eq!(
                        fp.verify(&table, &hs, r),
                        table.verify(r, &hs),
                        "seed {seed} step {step}: stale verdict after update"
                    );
                }
            }
        }
    }

    /// An update revalidates the cached verdicts of the pairs it left alone
    /// (served as hits) and recomputes those of the pairs it changed.
    #[test]
    fn update_keeps_untouched_pairs_cached() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut hs = HeaderSpace::new();
        let mut table = figure5_table(&mut hs);
        let mut battery = report_battery(&table, &hs, &mut rng);
        battery.sort_by_key(|r| (r.inport, r.outport, r.header, r.tag.bits()));
        battery.dedup();
        let mut fp = VerifyFastPath::new();
        for r in &battery {
            fp.verify(&table, &hs, r);
        }
        // Keep the reports that hit on a second pass: those share their
        // cache slot with no other report of the battery.
        battery.retain(|r| fp.verify_flagged(&table, &hs, r).1);

        let (mut kept, mut recomputed) = (0, 0);
        let mut next_id = 30_000u64;
        for step in 0..12 {
            random_update(&mut rng, &mut table, &mut hs, &mut next_id);
            let epoch = table.epoch();
            for r in &battery {
                let touched = table.pair_changed(r.inport, r.outport) == epoch;
                let (v, hit) = fp.verify_flagged(&table, &hs, r);
                assert_eq!(v, table.verify(r, &hs), "step {step}: {r}");
                assert_eq!(hit, !touched, "step {step}: {r}");
                kept += usize::from(hit);
                recomputed += usize::from(!hit);
            }
        }
        assert!(
            kept > 0 && recomputed > 0,
            "kept {kept}, recomputed {recomputed}"
        );
    }

    /// A pair that loses its last entry keeps its change stamp: a verdict
    /// cached while it had paths is never served after it emptied, even
    /// across later updates that leave it alone — nor after it regains one.
    #[test]
    fn emptied_pair_is_never_served_stale() {
        let topo = gen::linear(3);
        let m = Match::dst_prefix(ip(10, 0, 2, 0), 24);
        let rules: Rules = (1..=3)
            .map(|s| (SwitchId(s), vec![fwd(s as u64, 24, m, 2)]))
            .collect();
        let mut hs = HeaderSpace::new();
        let mut table = PathTable::build(&topo, &rules, &mut hs, 16);
        let header = FiveTuple::tcp(ip(10, 0, 1, 1), ip(10, 0, 2, 5), 9, 80);
        let tag = tag_of(&[(1, 1, 2), (1, 2, 2), (1, 3, 2)]);
        let report = TagReport::new(PortRef::new(1, 1), PortRef::new(3, 2), header, tag);
        let mut fp = VerifyFastPath::new();
        assert_eq!(fp.verify(&table, &hs, &report), VerifyOutcome::Pass);

        // S2 loses its rule: the pair's only path is gone.
        table.delete_rule(SwitchId(2), veridp_switch::RuleId(2), &mut hs);
        assert!(table.paths(report.inport, report.outport).is_empty());
        // An update that changes no pair, before the report is asked again.
        table.modify_rule(
            SwitchId(3),
            veridp_switch::RuleId(3),
            Action::Forward(PortNo(2)),
            &mut hs,
        );
        assert_eq!(
            fp.verify(&table, &hs, &report),
            VerifyOutcome::NoMatchingPath
        );

        // The rule returns, and so does the path.
        table.add_rule(SwitchId(2), fwd(2, 24, m, 2), &mut hs);
        table.modify_rule(
            SwitchId(3),
            veridp_switch::RuleId(3),
            Action::Forward(PortNo(2)),
            &mut hs,
        );
        assert_eq!(fp.verify(&table, &hs, &report), VerifyOutcome::Pass);
        assert_eq!(fp.verify(&table, &hs, &report), table.verify(&report, &hs));
    }

    /// The sharded fast-path batch pipeline is bit-identical to the plain
    /// batch pipeline at every thread count, and its summary counts the
    /// same verdicts plus coherent cache counters.
    #[test]
    fn batch_fastpath_matches_plain_batches() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut hs = HeaderSpace::new();
        let table = figure5_table(&mut hs);
        // Duplicate every report adjacently so each worker's chunk contains
        // repeats no matter how the batch is sharded.
        let reports: Vec<TagReport> = report_battery(&table, &hs, &mut rng)
            .into_iter()
            .flat_map(|r| [r, r])
            .collect();
        let plain: Vec<_> = reports.iter().map(|r| table.verify(r, &hs)).collect();
        let summary = verify_batch_summary(&table, &hs, &reports, 1);
        for threads in [1usize, 2, 4, 8] {
            let mut fp = VerifyFastPath::new();
            let fast = verify_batch_fast(&table, &hs, &mut fp, &reports, threads);
            assert_eq!(fast, plain, "threads={threads}");
            assert_eq!(
                verify_batch(&table, &hs, &reports, threads),
                plain,
                "plain batch self-check threads={threads}"
            );
            let mut fp2 = VerifyFastPath::new();
            let fast_summary = verify_batch_summary_fast(&table, &hs, &mut fp2, &reports, threads);
            assert_eq!(
                fast_summary.verdict_counts(),
                summary.verdict_counts(),
                "threads={threads}"
            );
            assert_eq!(
                fast_summary.cache_hits + fast_summary.cache_misses,
                reports.len(),
                "every report is either a hit or a miss (threads={threads})"
            );
            assert!(
                fast_summary.cache_hits > 0,
                "repeated stream must produce hits (threads={threads})"
            );
        }
    }

    /// Server-level wiring: a fast-path server and a plain server agree on
    /// every verdict and on all verdict statistics; the fast-path server
    /// additionally reports cache traffic.
    #[test]
    fn server_fastpath_stats_and_verdicts() {
        let mut hs = HeaderSpace::new();
        let table = figure5_table(&mut hs);
        let mut rng = StdRng::seed_from_u64(3);
        let reports = report_battery(&table, &hs, &mut rng);

        let topo = gen::figure5();
        let rules = figure5_rules();
        let mut plain = VeriDpServer::new(&topo, &rules, 16);
        let mut fast = VeriDpServer::new(&topo, &rules, 16);
        fast.set_fastpath(true);
        assert!(fast.fastpath_enabled());

        for r in reports.iter().chain(reports.iter()) {
            assert_eq!(plain.verify(r), fast.verify(r), "{r}");
        }
        assert_eq!(
            plain.stats().verdict_counts(),
            fast.stats().verdict_counts()
        );
        assert_eq!(plain.stats().cache_hits + plain.stats().cache_misses, 0);
        assert_eq!(
            fast.stats().cache_hits + fast.stats().cache_misses,
            fast.stats().reports
        );
        assert!(fast.stats().cache_hits > 0);
        assert!(fast.stats().cache_hit_ratio() > 0.0);

        // Batch ingest folds into the same statistics.
        let before = fast.stats().reports;
        let summary = fast.ingest_batch(&reports, 4);
        assert_eq!(summary.total, reports.len());
        assert_eq!(fast.stats().reports, before + reports.len() as u64);

        // Toggling the fast path off drops cache state but not verdicts.
        fast.set_fastpath(false);
        assert!(!fast.fastpath_enabled());
        for r in reports.iter().take(8) {
            assert_eq!(plain.verify(r), fast.verify(r));
        }
    }
}
