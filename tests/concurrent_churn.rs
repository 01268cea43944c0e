//! Concurrent-churn stress test for the RCU-style snapshot path table
//! (`veridp_core::snapshot`): reader threads verify a witness battery
//! continuously while a writer applies mirrored rule churn, and nothing may
//! go wrong in any of three dimensions:
//!
//! * **zero false alarms** — churn touches only TEST-NET-3 prefixes
//!   (RFC 5737, no simulated host lives there), so every witness verdict
//!   must stay `Pass` at every epoch a reader happens to pin;
//! * **convergence** — after the churn fully drains, the master table must
//!   be denotationally identical to a fresh sequential build from the same
//!   logical rules, and the published version identical to the master;
//! * **safe reclamation** — a version stays alive (and verifiable) for as
//!   long as any reader guard pins it, no matter how many publications
//!   happen meanwhile; reclamation resumes once the guard drops.
//!
//! The matrix (3 seeds × bdd/atoms × fastpath index on/off) is the same one
//! the CI churn soak runs in release.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veridp::atoms::AtomSpace;
use veridp::controller::{Controller, Intent};
use veridp::core::{ConcurrentTable, HeaderSetBackend, HeaderSpace, PathTable};
use veridp::packet::{SwitchId, TagReport};
use veridp::sim::churn::ChurnGen;
use veridp::switch::FlowRule;
use veridp::topo::gen;

const READERS: usize = 4;

/// Internet2 all-pairs connectivity rules — the deployed control plane the
/// churn runs alongside.
fn deployed_rules() -> (veridp::topo::Topology, HashMap<SwitchId, Vec<FlowRule>>) {
    let topo = gen::internet2();
    let mut ctrl = Controller::new(topo.clone());
    ctrl.install_intent(&Intent::Connectivity).unwrap();
    let rules = ctrl
        .logical_rules()
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    (topo, rules)
}

/// One witness report per path entry, seeded, deterministic per table.
/// Witnesses inside the churn block are dropped ([`ChurnGen::covers`]):
/// a live churn rule legitimately re-routes those points, so they cannot
/// serve as churn-invariant probes.
fn witness_reports<B: HeaderSetBackend>(table: &PathTable<B>, hs: &B) -> Vec<TagReport> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut reports = Vec::new();
    for ((i, o), entries) in table.iter() {
        for e in entries {
            let s: u64 = rng.gen();
            let mut wr = StdRng::seed_from_u64(s);
            if let Some(w) = hs.random_witness(e.headers, |_| wr.gen()) {
                if ChurnGen::covers(&w) {
                    continue;
                }
                reports.push(TagReport::new(*i, *o, w, e.tag));
            }
        }
    }
    assert!(!reports.is_empty());
    reports
}

/// Denotational fingerprint of a table: per pair, the multiset of
/// `(hops, tag bits, header count)` paths, plus the total header count.
/// Path *order* within a pair may differ across replicas (the incremental
/// engine iterates hash maps), so entries are sorted before comparison; set
/// handles are instance-local, so header sets compare by model count.
fn fingerprint<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
) -> Vec<(
    veridp::packet::PortRef,
    veridp::packet::PortRef,
    Vec<veridp::packet::Hop>,
    u64,
    u128,
)> {
    let mut v: Vec<_> = table
        .all_entries()
        .into_iter()
        .map(|((i, o), e)| {
            (
                *i,
                *o,
                e.hops.clone(),
                e.tag.bits(),
                hs.sat_count(e.headers),
            )
        })
        .collect();
    v.sort();
    v
}

/// The stress proper: `READERS` threads verify the battery in a loop while
/// the writer applies announce/reroute/withdraw rounds, then drains.
fn churn_under_verify<B: HeaderSetBackend>(seed: u64, build_index: bool) {
    let (topo, rules) = deployed_rules();
    let mut ct = ConcurrentTable::<B>::build(&topo, &rules, B::default(), 16, build_index);
    let reports = witness_reports(ct.table(), ct.backend());
    let baseline = {
        let mut hs = B::default();
        let fresh = PathTable::build(&topo, &rules, &mut hs, 16);
        fingerprint(&fresh, &hs)
    };

    let stop = &AtomicBool::new(false);
    let progress: &Vec<AtomicU64> = &(0..READERS).map(|_| AtomicU64::new(0)).collect();
    let mut readers: Vec<_> = (0..READERS).map(|_| ct.reader()).collect();
    let ct_ref = &mut ct;
    let topo_ref = &topo;
    let reports_ref = &reports[..];

    std::thread::scope(|s| {
        for (slot, mut reader) in readers.drain(..).enumerate() {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let summary = reader.verify_summary(reports_ref, 1);
                    assert_eq!(
                        summary.passed,
                        summary.total,
                        "false alarm in reader {slot} (seed {seed}, {}, index={build_index}): \
                         {summary:?}",
                        B::NAME
                    );
                    progress[slot].fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Writer: at least three rounds of announce burst → reroute storm →
        // partial withdraw — more until every reader has finished a pass
        // under churn (updates are fast enough for three rounds to end
        // before a reader thread is first scheduled), then a full drain
        // back to the deployed rule set.
        let mut churn = ChurnGen::new(topo_ref, seed);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut rounds = 0;
        while rounds < 3
            || (progress.iter().any(|p| p.load(Ordering::Relaxed) == 0)
                && Instant::now() < deadline)
        {
            rounds += 1;
            for upd in churn.announce(6) {
                ct_ref.apply(upd);
            }
            ct_ref.apply_batch(&churn.reroute_storm());
            for upd in churn.withdraw(3) {
                ct_ref.apply(upd);
            }
        }
        ct_ref.apply_batch(&churn.drain());
        assert_eq!(churn.live(), 0);
        stop.store(true, Ordering::Relaxed);
    });

    // Stalled-reader guard: every reader must have completed at least one
    // battery pass (wait-freedom means churn cannot park them).
    for (slot, p) in progress.iter().enumerate() {
        assert!(
            p.load(Ordering::Relaxed) > 0,
            "reader {slot} never completed a battery pass (seed {seed}, {})",
            B::NAME
        );
    }

    // Convergence: master == fresh sequential rebuild, published == master.
    assert_eq!(
        fingerprint(ct.table(), ct.backend()),
        baseline,
        "drained master diverged from a sequential rebuild (seed {seed}, {})",
        B::NAME
    );
    assert!(ct.publisher().is_current());
    assert_eq!(ct.publisher().published_epoch(), ct.table().epoch());
    let mut reader = ct.reader();
    let guard = reader.pin();
    assert_eq!(
        fingerprint(guard.table(), guard.backend()),
        baseline,
        "published version diverged from the master (seed {seed}, {})",
        B::NAME
    );
    let stats = ct.publisher().stats();
    assert!(stats.publishes > 0, "churn must actually publish");
}

#[test]
fn churn_under_verify_bdd() {
    for seed in [11u64, 12, 13] {
        churn_under_verify::<HeaderSpace>(seed, false);
        churn_under_verify::<HeaderSpace>(seed, true);
    }
}

#[test]
fn churn_under_verify_atoms() {
    for seed in [11u64, 12, 13] {
        churn_under_verify::<AtomSpace>(seed, false);
        churn_under_verify::<AtomSpace>(seed, true);
    }
}

/// A held guard must keep its version alive and verifiable across
/// arbitrarily many publications; dropping it re-enables reclamation.
#[test]
fn pinned_version_survives_publications() {
    let (topo, rules) = deployed_rules();
    let mut ct = ConcurrentTable::<HeaderSpace>::build(&topo, &rules, HeaderSpace::new(), 16, true);
    let reports = witness_reports(ct.table(), ct.backend());
    let pinned_epoch = ct.table().epoch();

    let mut reader = ct.reader();
    let guard = reader.pin();
    assert_eq!(guard.table().epoch(), pinned_epoch);

    // Publish far past the version pool capacity while the guard is held.
    let mut churn = ChurnGen::new(&topo, 5);
    for _ in 0..10 {
        ct.apply(churn.step());
    }
    let live_while_pinned = ct.publisher().live_versions();
    assert!(
        live_while_pinned > 10,
        "versions newer than the pin must not be recycled while it is held \
         (live={live_while_pinned})"
    );
    assert_eq!(
        ct.publisher().stats().reclaims,
        0,
        "nothing may be reclaimed while the oldest version is pinned"
    );

    // The pinned view is frozen at its epoch and still verifies cleanly.
    assert_eq!(guard.table().epoch(), pinned_epoch);
    for r in &reports {
        assert!(
            guard.table().verify(r, guard.backend()).is_pass(),
            "pinned version must keep verifying its own witnesses"
        );
    }

    drop(guard);
    ct.apply_batch(&churn.drain());
    let stats = ct.publisher().stats();
    assert!(
        stats.reclaims > 0,
        "dropping the guard must re-enable buffer reclamation"
    );
    assert!(
        ct.publisher().live_versions() < live_while_pinned,
        "the version pool must shrink once the pin is gone"
    );
}
