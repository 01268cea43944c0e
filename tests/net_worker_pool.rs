//! Checks on the verify worker pool that read process-wide state — the
//! thread list and the global obs registry — and therefore live in a test
//! binary of their own, one at a time.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use veridp::controller::Intent;
use veridp::core::{RobustConfig, VeriDpServer};
use veridp::net::{serve, IngestConfig, NetSender, Transport};
use veridp::packet::TagReport;
use veridp::sim::Monitor;
use veridp::topo::gen;

/// Both tests observe the whole process; neither may see the other's
/// threads or histogram samples.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A fresh server and the all-pairs report set of an identical deployment
/// (whose own server judged the pings, so it is not the one handed out).
fn deployment() -> (VeriDpServer, Vec<TagReport>) {
    let deploy = || Monitor::deploy(gen::fat_tree(4), &[Intent::Connectivity], 16).unwrap();
    let mut m = deploy();
    let epoch = m.server.table().epoch();
    let reports: Vec<TagReport> = m
        .ping_all_pairs(80)
        .iter()
        .flat_map(|o| o.trace.reports.iter().map(|r| r.with_epoch(epoch)))
        .collect();
    assert!(reports.len() > 100, "need a meaningful report set");
    let Monitor { server, .. } = deploy();
    (server, reports)
}

/// Thread ids of this process whose name starts with `net-verify-`.
#[cfg(target_os = "linux")]
fn verify_worker_tids() -> std::collections::BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            comm.starts_with("net-verify-").then_some(tid)
        })
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn verify_workers_are_created_once_and_persist() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const WORKERS: usize = 3;
    let (server, reports) = deployment();
    let mut cfg = IngestConfig::for_addr(Transport::Tcp, "127.0.0.1:0").unwrap();
    cfg.verify_threads = WORKERS;
    cfg.batch_reports = 8;
    let pipeline = serve(cfg, server).unwrap();

    // A thread names itself as it starts; wait for all of them.
    let deadline = Instant::now() + Duration::from_secs(5);
    while verify_worker_tids().len() < WORKERS {
        assert!(Instant::now() < deadline, "workers never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = verify_worker_tids();
    assert_eq!(before.len(), WORKERS, "exactly verify_threads workers");

    let mut tx = NetSender::connect(Transport::Tcp, pipeline.local_addr()).unwrap();
    let mut sent = 0u64;
    while pipeline.stats().batches < 200 {
        for r in &reports {
            tx.send_report(r).unwrap();
        }
        tx.flush().unwrap();
        sent += reports.len() as u64;
        assert!(pipeline.wait_frames(sent, Duration::from_secs(10)));
    }
    // Mid-run, with batches still in flight: the same threads, no others.
    assert_eq!(verify_worker_tids(), before, "no thread per batch");
    tx.finish().unwrap();
    let (server, snap) = pipeline.shutdown();
    assert!(snap.batches >= 200 && snap.conserved(), "{snap:?}");
    assert_eq!(server.stats().reports, sent);
    assert!(
        verify_worker_tids().is_empty(),
        "workers joined at shutdown"
    );
}

#[test]
fn gap_histogram_is_a_census_through_sharded_robust_pumps() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let global_count = || {
        veridp::obs::snapshot()
            .histograms
            .iter()
            .find(|(name, _)| name == "veridp_gap_detect_ns")
            .map_or(0, |(_, h)| h.count)
    };
    let (server, reports) = deployment();
    let mut cfg = IngestConfig::for_addr(Transport::Tcp, "127.0.0.1:0").unwrap();
    cfg.robust = Some(RobustConfig::default());
    cfg.verify_shards = 3;
    cfg.batch_reports = 16;
    let before = global_count();
    let pipeline = serve(cfg, server).unwrap();
    // `NetSender` origin-stamps every report it ships. The second copy of
    // each is a duplicate: dropped by dedup before any verdict, so it adds
    // nothing to the census.
    let mut tx = NetSender::connect(Transport::Tcp, pipeline.local_addr()).unwrap();
    for r in reports.iter().chain(&reports[..50]) {
        tx.send_report(r).unwrap();
    }
    tx.finish().unwrap();
    assert!(pipeline.wait_frames(reports.len() as u64 + 50, Duration::from_secs(10)));
    let (server, snap) = pipeline.shutdown();
    assert!(snap.conserved(), "{snap:?}");
    let s = server.stats();
    assert_eq!(s.reports, reports.len() as u64);
    assert_eq!(s.duplicates, 50);
    if veridp::obs::ENABLED {
        // Workers batch their samples per call; by shutdown every stamped
        // verdict is in both the run-local and the global histogram.
        assert_eq!(s.gap_detect.count(), s.reports);
        assert_eq!(global_count() - before, s.reports);
    } else {
        assert_eq!(global_count(), 0);
    }
}
