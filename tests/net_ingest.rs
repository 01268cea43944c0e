//! The socket front end against the in-process pipeline: verdicts over a
//! real wire must be bit-identical to `ingest_batch` called directly, and
//! the drain-then-shutdown ordering must account for every frame the
//! listener accepted — verified or counted shed, never silently lost.

use std::time::Duration;

use veridp::controller::Intent;
use veridp::core::{RobustConfig, VeriDpServer};
use veridp::net::{serve, IngestConfig, IngestMode, IngestServer, NetSender, Transport};
use veridp::packet::{PortNo, TagReport};
use veridp::sim::Monitor;
use veridp::switch::{Action, Fault};
use veridp::topo::gen;

/// Deploy the reference monitor and produce the all-pairs report set,
/// epoch-stamped the way live switch agents stamp them.
fn report_set() -> (Monitor, Vec<TagReport>) {
    let mut m = Monitor::deploy(gen::fat_tree(4), &[Intent::Connectivity], 16).unwrap();
    let outcomes = m.ping_all_pairs(80);
    let epoch = m.server.table().epoch();
    let reports: Vec<TagReport> = outcomes
        .iter()
        .flat_map(|o| o.trace.reports.iter().map(|r| r.with_epoch(epoch)))
        .collect();
    assert!(reports.len() > 100, "need a meaningful report set");
    (m, reports)
}

/// A second, independently deployed server (identical topology/intents) —
/// the baseline the socket path is differentially compared against.
fn fresh_server() -> VeriDpServer {
    let m = Monitor::deploy(gen::fat_tree(4), &[Intent::Connectivity], 16).unwrap();
    let Monitor { server, .. } = m;
    server
}

#[test]
fn tcp_verdicts_bit_identical_to_in_process() {
    let (_m, reports) = report_set();

    // Baseline: straight into ingest_batch.
    let mut baseline = fresh_server();
    baseline.ingest_batch(&reports, 4);
    let want = baseline.stats().verdict_counts();

    // Wire path: the same reports over loopback TCP from 4 senders, each
    // shipping a contiguous shard (TCP is lossless, so counts must match
    // exactly; verdicts are order-independent).
    let pipeline = serve(
        IngestConfig::for_addr(Transport::Tcp, "127.0.0.1:0").unwrap(),
        fresh_server(),
    )
    .unwrap();
    let addr = pipeline.local_addr();
    let shards: Vec<Vec<TagReport>> = reports
        .chunks(reports.len().div_ceil(4))
        .map(<[TagReport]>::to_vec)
        .collect();
    let handles: Vec<_> = shards
        .into_iter()
        .map(|shard| {
            std::thread::spawn(move || {
                let mut tx = NetSender::connect(Transport::Tcp, addr).unwrap();
                for r in &shard {
                    tx.send_report(r).unwrap();
                }
                tx.finish().unwrap()
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        pipeline.wait_frames(reports.len() as u64, Duration::from_secs(20)),
        "all frames arrive over lossless TCP"
    );
    let (server, snap) = pipeline.shutdown();

    assert_eq!(snap.reports, reports.len() as u64);
    assert_eq!(snap.shed, 0, "TCP backpressure never sheds");
    assert_eq!(snap.decode_errors, 0);
    assert!(snap.conserved(), "{snap:?}");
    assert_eq!(
        server.stats().verdict_counts(),
        want,
        "socket-path verdicts must be bit-identical to in-process ingest"
    );
    // The pump's per-batch latency histogram rides on the obs crate; when
    // instrumentation is compiled out the snapshot legitimately omits it.
    if veridp::obs::ENABLED {
        let lat = snap.ingest_latency.expect("pump recorded latency");
        assert!(lat.count > 0 && lat.p99 >= lat.p50);
    } else {
        assert!(snap.ingest_latency.is_none(), "obs-off records no latency");
    }
}

#[test]
fn udp_verdicts_match_for_delivered_subset() {
    let (_m, reports) = report_set();
    let pipeline = serve(
        IngestConfig::for_addr(Transport::Udp, "127.0.0.1:0").unwrap(),
        fresh_server(),
    )
    .unwrap();
    let addr = pipeline.local_addr();

    // One paced sender: chunked flushes with small sleeps keep loopback
    // kernel buffers from dropping, so in practice everything arrives.
    let mut tx = NetSender::connect(Transport::Udp, addr).unwrap();
    for (i, r) in reports.iter().enumerate() {
        tx.send_report(r).unwrap();
        if i % 256 == 255 {
            tx.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    tx.finish().unwrap();
    pipeline.wait_frames(reports.len() as u64, Duration::from_secs(10));
    let (server, snap) = pipeline.shutdown();

    // UDP may drop on the wire (kernel, not us) — but every report the
    // listener decoded must be verified, and with no corruption every
    // verdict must pass exactly as in-process verification would.
    assert!(snap.conserved(), "{snap:?}");
    assert_eq!(snap.decode_errors, 0);
    let s = server.stats();
    assert_eq!(s.reports, snap.verified);
    assert_eq!(s.failed(), 0, "clean reports never fail: {s:?}");
    assert!(
        s.reports as usize >= reports.len() * 9 / 10,
        "paced loopback UDP should deliver nearly everything ({} of {})",
        s.reports,
        reports.len()
    );
}

#[test]
fn shutdown_drains_in_flight_tcp_frames() {
    let (_m, reports) = report_set();
    let mut cfg = IngestConfig::for_addr(Transport::Tcp, "127.0.0.1:0").unwrap();
    // Tiny batches + tiny queue: shutdown lands while frames are still
    // queued, buffered in the FrameReader, and in kernel socket buffers.
    cfg.batch_reports = 8;
    cfg.queue_reports = 32;
    let pipeline = serve(cfg, fresh_server()).unwrap();
    let addr = pipeline.local_addr();

    let sender = {
        let reports = reports.clone();
        std::thread::spawn(move || {
            let mut tx = NetSender::connect(Transport::Tcp, addr).unwrap();
            for r in &reports {
                tx.send_report(r).unwrap();
            }
            tx.finish().unwrap()
        })
    };
    // Shut down as soon as a little traffic has landed — the rest is in
    // flight somewhere between the client buffer and the verify queue.
    assert!(pipeline.wait_frames(32, Duration::from_secs(10)));
    let (server, snap) = pipeline.shutdown();
    let client = sender.join().unwrap();

    // Everything decoded off the wire is verified or counted shed; nothing
    // vanishes untracked.
    assert!(snap.conserved(), "{snap:?}");
    assert_eq!(snap.unaccounted(), 0);
    assert_eq!(server.stats().reports, snap.verified);
    // The drain keeps reading through stop, so the accepted byte stream is
    // fully decoded: frames seen == frames the client managed to send (the
    // client finished before we closed, so all of them).
    assert_eq!(snap.frames, client.frames_sent);
}

/// Misdirect the first traffic-carrying forward rule on the
/// first-to-last-host shortest path (deterministic — no rng), then
/// generate three distinct all-pairs rounds (dst port varies; prefix rules
/// keep paths identical) so the same `(pair, suspect)` fails often enough
/// to clear the default K-of-N confirmation threshold.
fn faulty_report_set() -> Vec<TagReport> {
    let mut m = Monitor::deploy(gen::fat_tree(4), &[Intent::Connectivity], 16).unwrap();
    let hosts = m.net.topo().hosts().to_vec();
    let (a, b) = (&hosts[0], &hosts[hosts.len() - 1]);
    let path = m
        .net
        .topo()
        .shortest_path(a.attached.switch, b.attached.switch)
        .unwrap();
    let subnet = veridp::switch::prefix_mask(b.ip, b.plen);
    let (sid, rid, old) = path
        .iter()
        .find_map(|&s| {
            m.controller
                .rules_of(s)
                .iter()
                .find(|r| r.fields.dst_ip == subnet && r.fields.dst_plen == b.plen)
                .and_then(|r| match r.action {
                    Action::Forward(p) => Some((s, r.id, p)),
                    _ => None,
                })
        })
        .expect("a traffic-carrying forward rule on the path");
    let nports = m.net.topo().switch(sid).unwrap().num_ports;
    let wrong = (1..=nports).map(PortNo).find(|&q| q != old).unwrap();
    m.net
        .switch_mut(sid)
        .faults_mut()
        .add(Fault::ExternalModify(rid, Action::Forward(wrong)));

    let epoch = m.server.table().epoch();
    (0..3u16)
        .flat_map(|round| {
            m.ping_all_pairs(80 + round)
                .iter()
                .flat_map(|o| o.trace.reports.iter().map(|r| r.with_epoch(epoch)))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn sharded_robust_pump_matches_in_process_robust_ingest() {
    let reports = faulty_report_set();

    // Baseline: the in-process robust path, one report at a time, in order.
    let mut baseline = fresh_server();
    baseline.set_robust(Some(RobustConfig::default()));
    for r in &reports {
        baseline.ingest_robust(r);
    }
    baseline.settle();

    // Wire path: the same reports in the same order down one lossless TCP
    // stream, decoded by the intake engine and fanned out to pair-sharded
    // RobustWorker pumps. All reports of a pair land on one shard, so
    // dedup, grace, quarantine, and K-of-N confirmation state is
    // shard-local — and the verdict sheet must still be bit-identical.
    let mut cfg = IngestConfig::for_addr(Transport::Tcp, "127.0.0.1:0").unwrap();
    cfg.robust = Some(RobustConfig::default());
    let shards = cfg.verify_shards;
    let pipeline = serve(cfg, fresh_server()).unwrap();
    let addr = pipeline.local_addr();
    let mut tx = NetSender::connect(Transport::Tcp, addr).unwrap();
    for r in &reports {
        tx.send_report(r).unwrap();
    }
    tx.finish().unwrap();
    assert!(
        pipeline.wait_frames(reports.len() as u64, Duration::from_secs(20)),
        "all frames arrive over lossless TCP"
    );
    let (server, snap) = pipeline.shutdown();

    // Cross-shard conservation: every enqueued report was verified by
    // exactly one shard.
    assert!(snap.conserved(), "{snap:?}");
    assert_eq!(snap.shard_verified.len(), shards, "{snap:?}");
    assert_eq!(
        snap.shard_verified.iter().sum::<u64>(),
        snap.verified,
        "{snap:?}"
    );

    // Bit-identical verdict sheet and robust counters.
    let (b, s) = (baseline.stats().clone(), server.stats().clone());
    assert_eq!(
        (b.reports, b.passed, b.tag_mismatch, b.no_matching_path),
        (s.reports, s.passed, s.tag_mismatch, s.no_matching_path),
        "verdict counts"
    );
    assert_eq!(
        (b.duplicates, b.graced, b.quarantined, b.shed),
        (s.duplicates, s.graced, s.quarantined, s.shed),
        "robust counters"
    );
    assert!(
        s.failed() > 0,
        "the misdirection must actually fail verdicts"
    );

    // And the same confirmed alarms, down to the observation counts.
    let key = |srv: &VeriDpServer| {
        let mut k: Vec<_> = srv
            .robust()
            .expect("robust mode enabled")
            .alarms
            .confirmed()
            .iter()
            .map(|a| (a.suspect, a.pair, a.count))
            .collect();
        k.sort();
        k
    };
    let (want, got) = (key(&baseline), key(&server));
    assert!(!want.is_empty(), "K-of-N must confirm the misdirection");
    assert_eq!(want, got, "confirmed alarms match the direct robust path");
}

#[test]
fn plain_worker_pool_matches_in_process_across_the_matrix() {
    // A stream with failing verdicts in it, so equal counts mean more than
    // "everything passed".
    let reports = faulty_report_set();
    let mut baseline = fresh_server();
    baseline.set_fastpath(true);
    baseline.ingest_batch(&reports, 1);
    let want = baseline.stats().verdict_counts();
    assert!(baseline.stats().failed() > 0);

    let mut engines = vec![IngestMode::Threaded];
    if cfg!(target_os = "linux") {
        engines.push(IngestMode::Reactor);
    }
    for mode in engines {
        for transport in [Transport::Tcp, Transport::Udp] {
            for verify_threads in [1, 2, 4] {
                for poison_after in [None, Some(2)] {
                    let case = format!("{mode} {transport} x{verify_threads} {poison_after:?}");
                    let mut cfg = IngestConfig::for_addr(transport, "127.0.0.1:0").unwrap();
                    cfg.mode = mode;
                    cfg.verify_threads = verify_threads;
                    cfg.batch_reports = 32;
                    cfg.poison_after = poison_after;
                    let mut server = fresh_server();
                    server.set_fastpath(true);
                    let pipeline = serve(cfg, server).unwrap();
                    let mut tx = NetSender::connect(transport, pipeline.local_addr()).unwrap();
                    for (i, r) in reports.iter().enumerate() {
                        tx.send_report(r).unwrap();
                        // Paced, so intake cuts many batches: every worker
                        // gets some, the poison has a second batch to land
                        // on, and loopback UDP keeps up.
                        if i % 64 == 63 {
                            tx.flush().unwrap();
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    tx.finish().unwrap();
                    pipeline.wait_frames(reports.len() as u64, Duration::from_secs(10));
                    let (server, snap) = pipeline.shutdown();

                    assert!(snap.conserved(), "{case}: {snap:?}");
                    assert_eq!(
                        snap.worker_restarts,
                        poison_after.map_or(0, |_| 1),
                        "{case}"
                    );
                    assert!(
                        snap.shard_verified.is_empty(),
                        "{case}: no shards in plain mode"
                    );
                    assert!(
                        !server.snapshots_enabled(),
                        "{case}: handed back as it came"
                    );
                    // Every worker's counters came home: verdicts and the
                    // private caches' hits and misses.
                    let s = server.stats();
                    assert_eq!(s.reports, snap.verified, "{case}");
                    assert_eq!(s.cache_hits + s.cache_misses, s.reports, "{case}");
                    if transport == Transport::Tcp || snap.reports == reports.len() as u64 {
                        assert_eq!(s.verdict_counts(), want, "{case}");
                    } else {
                        // The kernel may drop datagrams; what arrived is
                        // still judged like the baseline judged it.
                        assert!(s.reports as usize >= reports.len() * 9 / 10, "{case}");
                        assert!(s.failed() <= baseline.stats().failed(), "{case}");
                    }
                }
            }
        }
    }
}

#[test]
fn more_verify_threads_than_reader_slots_is_an_error() {
    let mut cfg = IngestConfig::for_addr(Transport::Tcp, "127.0.0.1:0").unwrap();
    cfg.verify_threads = 64;
    let err = match serve(cfg, fresh_server()) {
        Ok(_) => panic!("64 workers cannot all have a reader slot"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    // The limit itself is fine: 63 readers beside the server's own.
    let mut cfg = IngestConfig::for_addr(Transport::Tcp, "127.0.0.1:0").unwrap();
    cfg.verify_threads = 63;
    let (_server, snap) = serve(cfg, fresh_server()).unwrap().shutdown();
    assert!(snap.conserved(), "{snap:?}");
}

#[test]
fn udp_overflow_sheds_counted_under_pressure() {
    let (_m, reports) = report_set();
    let mut cfg = IngestConfig::for_addr(Transport::Udp, "127.0.0.1:0").unwrap();
    cfg.batch_reports = 16;
    cfg.queue_reports = 32;
    cfg.recv_threads = 1;
    // A deliberately slow consumer: sleep-heavy verify threads are not
    // needed — a queue this small overflows against a normal pump when the
    // sender bursts.
    let listener = IngestServer::bind(cfg).unwrap();
    let addr = listener.local_addr();

    let mut tx = NetSender::connect(Transport::Udp, addr).unwrap();
    for rep in 0..6 {
        for r in &reports {
            tx.send_report(r).unwrap();
        }
        tx.flush().unwrap();
        if rep % 2 == 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    tx.finish().unwrap();
    // Nobody drains while the burst lands: the bounded queue must shed —
    // and count every shed report.
    std::thread::sleep(Duration::from_millis(50));
    let mut got = Vec::new();
    let snap = listener.shutdown_polled(&mut got);
    assert!(snap.shed > 0, "tiny queue under burst must shed: {snap:?}");
    assert_eq!(snap.reports, snap.enqueued + snap.shed, "{snap:?}");
    assert_eq!(snap.enqueued, snap.verified, "{snap:?}");
    assert_eq!(got.len() as u64, snap.verified);
}
