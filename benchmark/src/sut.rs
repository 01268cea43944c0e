//! The adapter: every call into the program under test is in this file.
//!
//! Later changes to the program may not edit the benchmark, so what this
//! file uses is the surface the program has to keep (README, "Pinned
//! API"). The rest of the benchmark sees only the wrappers below and plain
//! data: [`Report`], counters, verdicts.

use std::collections::{BTreeSet, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use veridp_bench::{build_setup, Setup, SetupData};
use veridp_bloom::BloomTag;
use veridp_controller::Intent;
use veridp_core::{ReaderHandle, RobustConfig, RuleUpdate, VeriDpServer, VerifyOutcome};
use veridp_net::{
    serve, IngestConfig, IngestPipeline, IngestServer, NetSender, NetStats, NetStatsSnapshot,
};
use veridp_packet::{append_framed_report, FrameReader, Hop, PortNo, PortRef, SwitchId};
use veridp_sim::churn::ChurnGen;
use veridp_sim::Monitor;
use veridp_switch::{Action, Fault, OfMessage};

pub use veridp_atoms::AtomSpace as Atoms;
pub use veridp_core::HeaderSetBackend as Backend;
pub use veridp_core::HeaderSpace as Bdd;
pub use veridp_net::Transport;
pub use veridp_packet::TagReport as Report;

use crate::rng::Rng;

/// Tag width of every deployment, the demo's default.
const TAG_BITS: u32 = 16;

/// Seed of the synthetic rule sets and of the churn sequence. The network
/// and its updates are the same in every run; `--seed` varies the traffic,
/// the duplicates and the fault.
const RULE_SEED: u64 = 2016;

/// Bytes of one framed report on the wire (origin-stamped v2 frame).
pub const FRAME_LEN: usize = veridp_packet::FRAMED_REPORT_WIRE_LEN;

/// The three evaluation networks of the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// Fat tree, k = 4: 20 switches, 272 path entries.
    FatTree4,
    /// Stanford-like backbone, 300 prefixes: ≈7.8 k rules, 2144 paths.
    Stanford,
    /// Internet2, 300 prefixes: 2.7 k rules, 130 paths.
    Internet2,
}

impl Net {
    fn setup(self) -> (Setup, Option<usize>) {
        match self {
            Net::FatTree4 => (Setup::FatTree(4), None),
            Net::Stanford => (Setup::Stanford, Some(300)),
            Net::Internet2 => (Setup::Internet2, Some(300)),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Net::FatTree4 => "FT(k=4)",
            Net::Stanford => "Stanford/300",
            Net::Internet2 => "Internet2/300",
        }
    }
}

/// A verdict, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    TagMismatch,
    NoMatchingPath,
}

impl From<VerifyOutcome> for Verdict {
    fn from(o: VerifyOutcome) -> Self {
        match o {
            VerifyOutcome::Pass => Verdict::Pass,
            VerifyOutcome::TagMismatch => Verdict::TagMismatch,
            VerifyOutcome::NoMatchingPath => Verdict::NoMatchingPath,
        }
    }
}

/// Verdict counts of a set of reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub pass: u64,
    pub tag_mismatch: u64,
    pub no_matching_path: u64,
}

impl Counts {
    pub fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Pass => self.pass += 1,
            Verdict::TagMismatch => self.tag_mismatch += 1,
            Verdict::NoMatchingPath => self.no_matching_path += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.pass + self.tag_mismatch + self.no_matching_path
    }

    pub fn merge(&mut self, o: &Counts) {
        self.pass += o.pass;
        self.tag_mismatch += o.tag_mismatch;
        self.no_matching_path += o.no_matching_path;
    }

    /// Reports on which `self` and `other` disagree, at least.
    pub fn distance(&self, other: &Counts) -> u64 {
        (self.pass.abs_diff(other.pass)
            + self.tag_mismatch.abs_diff(other.tag_mismatch)
            + self.no_matching_path.abs_diff(other.no_matching_path))
        .div_ceil(2)
    }
}

/// The verify server's running statistics, as plain data.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    pub verdicts: Counts,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub duplicates: u64,
    pub graced: u64,
    pub quarantined: u64,
    pub shed: u64,
    pub localizations: u64,
    pub localized: u64,
    /// The program's own origin-stamp → verdict histogram.
    pub gap_detect_p50_ns: u64,
    pub gap_detect_p99_ns: u64,
}

/// The socket front end's counters, as plain data.
#[derive(Debug, Clone, Default)]
pub struct NetCounts {
    pub datagrams: u64,
    pub bytes: u64,
    pub reports: u64,
    pub decode_errors: u64,
    pub shed: u64,
    pub verified: u64,
    pub batches: u64,
    pub push_timeouts: u64,
    pub worker_restarts: u64,
    pub idle_wakeups: u64,
    pub ingest_p50_ns: u64,
    pub ingest_p99_ns: u64,
    pub shard_verified: Vec<u64>,
    /// `NetStatsSnapshot::conserved()`; meaningful after shutdown.
    pub conserved: bool,
    /// Decoded reports neither verified nor shed.
    pub unaccounted: u64,
}

impl From<NetStatsSnapshot> for NetCounts {
    fn from(s: NetStatsSnapshot) -> Self {
        NetCounts {
            datagrams: s.datagrams,
            bytes: s.bytes,
            reports: s.reports,
            decode_errors: s.decode_errors,
            shed: s.shed,
            verified: s.verified,
            batches: s.batches,
            push_timeouts: s.push_timeouts,
            worker_restarts: s.worker_restarts,
            idle_wakeups: s.idle_wakeups,
            ingest_p50_ns: s.ingest_latency.map_or(0, |l| l.p50),
            ingest_p99_ns: s.ingest_latency.map_or(0, |l| l.p99),
            conserved: s.conserved(),
            unaccounted: s.unaccounted(),
            shard_verified: s.shard_verified,
        }
    }
}

/// The ingest configuration a run resolved to, for the results file.
#[derive(Debug, Clone)]
pub struct ResolvedConfig {
    pub transport: &'static str,
    pub mode: String,
    pub event_loops: usize,
    pub verify_threads: usize,
    pub verify_shards: usize,
    pub batch_reports: usize,
    pub queue_reports: usize,
    pub robust: bool,
}

/// A deployed verify server with the network it was built from.
pub struct Sut<B: Backend> {
    server: VeriDpServer<B>,
    data: SetupData,
    pub net: Net,
    /// Path-table construction alone, seconds.
    pub build_s: f64,
}

/// Size of the built table.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableSize {
    pub rules: usize,
    pub pairs: usize,
    pub paths: usize,
    pub backend_size: usize,
}

impl<B: Backend> Sut<B> {
    /// Topology, rules and path table, with the fast path on — the way
    /// `veridp-demo` builds its server by default.
    pub fn build(net: Net) -> Sut<B> {
        let (setup, prefixes) = net.setup();
        let data = build_setup(setup, prefixes, RULE_SEED);
        let t0 = Instant::now();
        let mut server =
            VeriDpServer::with_backend(B::default(), &data.topo, &data.rules, TAG_BITS);
        let build_s = t0.elapsed().as_secs_f64();
        server.set_fastpath(true);
        Sut {
            server,
            data,
            net,
            build_s,
        }
    }

    /// The table's update generation; reports are stamped with it.
    pub fn epoch(&self) -> u64 {
        self.server.table().epoch()
    }

    pub fn backend_name(&self) -> &'static str {
        B::NAME
    }

    pub fn table_size(&self) -> TableSize {
        let s = self.server.table().stats();
        TableSize {
            rules: self.data.num_rules,
            pairs: s.num_pairs,
            paths: s.num_paths,
            backend_size: self.server.header_space().size_metric(),
        }
    }

    /// `per_entry` distinct witness reports for every path entry, all of
    /// which the table passes: the representative-header idea, so a stream
    /// exercises every entry and not the few that random traffic hits.
    /// Entries are walked in sorted order, since the table's own order
    /// differs between processes. With `outside_churn`, headers inside the
    /// churn generator's address block are left out.
    pub fn witness_reports(&self, per_entry: usize, rng: &Rng, outside_churn: bool) -> Vec<Report> {
        let table = self.server.table();
        let hs = self.server.header_space();
        let epoch = table.epoch();
        let mut pairs: Vec<_> = table.iter().collect();
        pairs.sort_by_key(|(pair, _)| **pair);
        let mut seen: HashSet<Report> = HashSet::new();
        let mut out = Vec::new();
        for (n, ((inport, outport), entries)) in pairs.into_iter().enumerate() {
            let mut entries: Vec<_> = entries.iter().collect();
            entries.sort_by(|a, b| (a.tag.bits(), &a.hops).cmp(&(b.tag.bits(), &b.hops)));
            for (k, e) in entries.into_iter().enumerate() {
                let mut picks = rng.fork(((n as u64) << 20) | k as u64);
                let mut made = 0;
                // A small header set may not hold `per_entry` distinct
                // headers: give up on it after a bounded number of draws.
                for _ in 0..per_entry * 4 {
                    if made == per_entry {
                        break;
                    }
                    let Some(h) = hs.random_witness(e.headers, |_| picks.coin()) else {
                        break;
                    };
                    if outside_churn && ChurnGen::covers(&h) {
                        continue;
                    }
                    let r = Report::new(*inport, *outport, h, e.tag).with_epoch(epoch);
                    if seen.insert(r) {
                        out.push(r);
                        made += 1;
                    }
                }
            }
        }
        assert!(!out.is_empty(), "the path table yields no witness");
        out
    }

    /// Reports of packets that one switch forwarded to a wrong port: a
    /// witness follows its entry's path up to a seeded hop, leaves that
    /// switch by another wired port, and from there goes where the rules
    /// send it; the tag is the Bloom filter of the hops it really took.
    /// Every one fails verification.
    pub fn wrong_port_reports(&self, want: usize, rng: &mut Rng) -> Vec<Report> {
        let table = self.server.table();
        let hs = self.server.header_space();
        let topo = &self.data.topo;
        let epoch = table.epoch();
        let mut entries: Vec<_> = table
            .iter()
            .flat_map(|(pair, es)| es.iter().map(move |e| (*pair, e)))
            .filter(|(_, e)| !e.hops.is_empty())
            .collect();
        entries.sort_by(|a, b| {
            (a.0, a.1.tag.bits(), &a.1.hops).cmp(&(b.0, b.1.tag.bits(), &b.1.hops))
        });
        let mut seen: HashSet<Report> = HashSet::new();
        let mut out = Vec::new();
        for _ in 0..want * 20 {
            if out.len() == want {
                break;
            }
            let (pair, e) = entries[rng.below(entries.len())];
            let Some(h) = hs.random_witness(e.headers, |_| rng.coin()) else {
                continue;
            };
            let k = rng.below(e.hops.len());
            let right = e.hops[k];
            let others: Vec<(PortNo, PortRef)> = topo
                .neighbors(right.switch)
                .into_iter()
                .filter(|(p, _)| *p != right.out_port && *p != right.in_port)
                .collect();
            if others.is_empty() {
                continue;
            }
            let (wrong, next) = others[rng.below(others.len())];
            let mut path = e.hops[..k].to_vec();
            path.push(Hop {
                out_port: wrong,
                ..right
            });
            path.extend(table.trace(next, &h, hs));
            // The packet must leave the network or be dropped within the
            // hop budget; one that loops is reported differently.
            let last = path[path.len() - 1];
            let left = last.out_port.is_drop() || topo.is_terminal_port(last.out_ref());
            if path.len() == k + 1 || !left {
                continue;
            }
            let mut tag = BloomTag::empty(TAG_BITS);
            for hop in &path {
                tag.insert(&hop.encode());
            }
            let r = Report::new(pair.0, last.out_ref(), h, tag).with_epoch(epoch);
            if table.verify(&r, hs).is_pass() || !seen.insert(r) {
                continue;
            }
            out.push(r);
        }
        out
    }

    /// The oracle: every report's verdict by the plain scan, fast path
    /// off. Also returns the scan's cost in ns per report.
    pub fn oracle(&self, reports: &[Report]) -> (Vec<Verdict>, f64) {
        let table = self.server.table();
        let hs = self.server.header_space();
        let t0 = Instant::now();
        let verdicts: Vec<Verdict> = reports.iter().map(|r| table.verify(r, hs).into()).collect();
        let ns = t0.elapsed().as_nanos() as f64 / reports.len().max(1) as f64;
        (verdicts, ns)
    }

    /// One batch through `ingest_batch` on the calling thread.
    pub fn ingest(&mut self, batch: &[Report]) -> Counts {
        let s = self.server.ingest_batch(batch, 1);
        Counts {
            pass: s.passed as u64,
            tag_mismatch: s.tag_mismatch as u64,
            no_matching_path: s.no_matching_path as u64,
        }
    }

    /// Verify one report and, if it fails, localize: the verdict and the
    /// suspected switches.
    pub fn verify_and_localize(&mut self, r: &Report) -> (Verdict, Vec<u32>) {
        let (v, loc) = self.server.verify_and_localize(r);
        let suspects = loc.map_or(Vec::new(), |l| {
            l.candidates.iter().map(|c| c.faulty_switch.0).collect()
        });
        (v.into(), suspects)
    }

    pub fn enable_robust(&mut self) {
        self.server.set_robust(Some(RobustConfig::default()));
    }

    pub fn ingest_robust(&mut self, r: &Report) {
        self.server.ingest_robust(r);
    }

    pub fn settle(&mut self) {
        self.server.settle();
    }

    /// Switches with a confirmed alarm (robust mode), sorted.
    pub fn confirmed_suspects(&self) -> Vec<u32> {
        self.server.robust().map_or(Vec::new(), |r| {
            r.alarms.confirmed_suspects().iter().map(|s| s.0).collect()
        })
    }

    pub fn confirmed_alarms(&self) -> usize {
        self.server
            .robust()
            .map_or(0, |r| r.alarms.confirmed().len())
    }

    pub fn stats(&self) -> ServerCounts {
        let s = self.server.stats();
        let gap = s.gap_detect.snapshot();
        ServerCounts {
            verdicts: Counts {
                pass: s.passed,
                tag_mismatch: s.tag_mismatch,
                no_matching_path: s.no_matching_path,
            },
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            duplicates: s.duplicates,
            graced: s.graced,
            quarantined: s.quarantined,
            shed: s.shed,
            localizations: s.localizations,
            localized: s.localized,
            gap_detect_p50_ns: gap.p50,
            gap_detect_p99_ns: gap.p99,
        }
    }

    // ---- churn -------------------------------------------------------

    /// Publish snapshots from now on; `reader` hands out verify handles.
    pub fn enable_snapshots(&mut self) {
        self.server.set_snapshots(true);
    }

    /// The churn sequence. Like the rule sets it is the same in every run:
    /// an update's cost depends on its kind and on all the updates before
    /// it, so only one sequence gives comparable timings.
    pub fn churn(&self) -> Churn {
        Churn(ChurnGen::new(&self.data.topo, RULE_SEED))
    }

    /// Apply one rule update the way the server sees it: as an intercepted
    /// controller message. On return the new table version is visible.
    pub fn apply(&mut self, u: &Update) {
        self.server.intercept(u.0, &u.1);
    }

    pub fn reader(&self) -> Reader<B> {
        Reader(
            self.server
                .snapshot_reader()
                .expect("snapshots are enabled before a reader is taken"),
        )
    }

    /// (publishes, reclaims, clone fallbacks) of the snapshot layer.
    pub fn snapshot_counts(&self) -> (u64, u64, u64) {
        self.server
            .snapshot_stats()
            .map_or((0, 0, 0), |s| (s.publishes, s.reclaims, s.clone_fallbacks))
    }

    // ---- wire --------------------------------------------------------

    /// Put the server behind a loopback socket with `IngestConfig::new`
    /// defaults; `robust` selects the pair-sharded robust pumps.
    pub fn serve(self, transport: Transport, robust: bool) -> Wire<B> {
        let Sut {
            server,
            data,
            net,
            build_s,
        } = self;
        let cfg = ingest_config(transport, robust);
        let mut config = resolved(&cfg);
        let pipeline = serve(cfg, server).expect("bind a loopback listener");
        config.mode = pipeline.mode().to_string();
        Wire {
            stats: pipeline.stats_arc(),
            pipeline,
            rest: (data, net, build_s),
            config,
        }
    }
}

fn ingest_config(transport: Transport, robust: bool) -> IngestConfig {
    let mut cfg = IngestConfig::new(transport, SocketAddr::from(([127, 0, 0, 1], 0)));
    if robust {
        cfg.robust = Some(RobustConfig::default());
    }
    cfg
}

/// Verify shards of the robust pumps under the default configuration.
pub fn robust_shards() -> usize {
    ingest_config(Transport::Tcp, true).verify_shards.max(1)
}

/// The verify shard (of `shards`) the robust pumps route a report to.
pub fn shard_of(r: &Report, shards: usize) -> usize {
    r.shard(shards)
}

fn resolved(cfg: &IngestConfig) -> ResolvedConfig {
    ResolvedConfig {
        transport: cfg.transport.name(),
        mode: cfg.mode.to_string(),
        event_loops: cfg.event_loops,
        verify_threads: cfg.verify_threads,
        verify_shards: cfg.verify_shards,
        batch_reports: cfg.batch_reports,
        queue_reports: cfg.queue_reports,
        robust: cfg.robust.is_some(),
    }
}

/// Failing traffic of one seeded wrong-port switch in the fat tree.
pub struct FaultyTraffic {
    pub reports: Vec<Report>,
    /// The switch whose rule forwards to the wrong port.
    pub switch: u32,
}

/// Run traffic through a simulated fat tree in which one seeded rule
/// forwards to a wrong port, and keep `want` distinct failing reports.
/// The fault is re-drawn until every failing report localizes to the
/// faulty switch and no other, so "the confirmed suspects are exactly the
/// seeded switch" is a fair check. Reports are stamped with `epoch`.
pub fn wrong_port_traffic(want: usize, epoch: u64, rng: &mut Rng) -> FaultyTraffic {
    let (setup, prefixes) = Net::FatTree4.setup();
    for _ in 0..64 {
        let topo = build_setup(setup, prefixes, RULE_SEED).topo;
        let mut m =
            Monitor::deploy(topo, &[Intent::Connectivity], TAG_BITS).expect("intents compile");
        let switches = m.net.switch_ids();
        let sid = switches[rng.below(switches.len())];
        let rules = m.controller.rules_of(sid);
        let rule = rules[rng.below(rules.len())];
        let Action::Forward(right) = rule.action else {
            continue;
        };
        // Every fat-tree switch has k = 4 ports.
        let wrong = PortNo(1 + ((right.0 - 1 + 1 + rng.below(3) as u16) % 4));
        m.net
            .switch_mut(sid)
            .faults_mut()
            .add(Fault::ExternalModify(rule.id, Action::Forward(wrong)));

        // One round over all host pairs finds the flows the fault breaks.
        let broken: Vec<(PortRef, Report)> = m
            .ping_all_pairs(80)
            .iter()
            .flat_map(|o| o.verdicts.iter())
            .filter(|(_, v, _)| !v.is_pass())
            .map(|(r, _, _)| (r.inport, *r))
            .collect();
        if broken.is_empty() {
            continue;
        }
        // More packets of those flows, on other ports, until enough.
        let mut seen: HashSet<Report> = HashSet::new();
        let mut suspects: BTreeSet<SwitchId> = BTreeSet::new();
        let mut reports = Vec::new();
        let mut unlocalized = false;
        let mut port = 0u32;
        'more: while reports.len() < want && port < 60_000 {
            port += 1;
            for (from, base) in &broken {
                let mut h = base.header;
                h.src_port = 1024 + (port % 60_000) as u16;
                h.dst_port = 1 + (port / 251) as u16;
                m.net.advance_clock(1_000_000);
                for (r, v, loc) in m.send_header(*from, h).verdicts {
                    if v.is_pass() {
                        continue;
                    }
                    let candidates = loc.map_or(Vec::new(), |l| l.candidates);
                    unlocalized |= candidates.is_empty();
                    suspects.extend(candidates.iter().map(|c| c.faulty_switch));
                    let r = r.with_epoch(epoch);
                    if seen.insert(r) {
                        reports.push(r);
                        if reports.len() == want {
                            break 'more;
                        }
                    }
                }
            }
        }
        if reports.len() == want && !unlocalized && suspects.iter().eq([sid].iter()) {
            return FaultyTraffic {
                reports,
                switch: sid.0,
            };
        }
    }
    panic!("no wrong-port fault localizes to its switch alone in 64 draws");
}

/// Rule churn outside the address space of the traffic.
pub struct Churn(ChurnGen);

/// One rule update, as the controller message that carries it.
pub struct Update(SwitchId, OfMessage);

impl Churn {
    /// The next update of the production mix (announce, withdraw, reroute).
    pub fn step(&mut self) -> Update {
        match self.0.step() {
            RuleUpdate::Add(s, rule) => Update(s, OfMessage::FlowAdd(rule)),
            RuleUpdate::Delete(s, id) => Update(s, OfMessage::FlowDelete(id)),
            RuleUpdate::Modify(s, id, action) => Update(s, OfMessage::FlowModify(id, action)),
        }
    }
}

/// A wait-free verify handle onto the published snapshots.
pub struct Reader<B: Backend>(ReaderHandle<B>);

impl<B: Backend> Reader<B> {
    pub fn verify(&mut self, battery: &[Report]) -> Counts {
        let s = self.0.verify_summary(battery, 1);
        Counts {
            pass: s.passed as u64,
            tag_mismatch: s.tag_mismatch as u64,
            no_matching_path: s.no_matching_path as u64,
        }
    }
}

/// A server behind a loopback socket (`serve()`): intake threads, queue,
/// verify pump.
pub struct Wire<B: Backend> {
    pipeline: IngestPipeline<B>,
    stats: Arc<NetStats>,
    rest: (SetupData, Net, f64),
    pub config: ResolvedConfig,
}

impl<B: Backend> Wire<B> {
    pub fn addr(&self) -> SocketAddr {
        self.pipeline.local_addr()
    }

    /// A handle other threads can poll the live counters through.
    pub fn progress(&self) -> Progress {
        Progress(Arc::clone(&self.stats))
    }

    pub fn wait_frames(&self, n: u64, timeout: Duration) -> bool {
        self.pipeline.wait_frames(n, timeout)
    }

    /// Drain, stop, and take the server back with the final counters.
    pub fn shutdown(self) -> (Sut<B>, NetCounts) {
        let (server, snap) = self.pipeline.shutdown();
        let (data, net, build_s) = self.rest;
        (
            Sut {
                server,
                data,
                net,
                build_s,
            },
            snap.into(),
        )
    }
}

/// Live counters of a listener, readable from any thread.
#[derive(Clone)]
pub struct Progress(Arc<NetStats>);

impl Progress {
    pub fn verified(&self) -> u64 {
        self.0.verified.load(Relaxed)
    }

    /// Reports decoded off the sockets so far.
    pub fn decoded(&self) -> u64 {
        self.0.reports.load(Relaxed)
    }

    /// Reports with a final fate: verified, or counted as shed.
    pub fn settled(&self) -> u64 {
        self.0.verified.load(Relaxed) + self.0.shed.load(Relaxed)
    }

    /// Reports in the queue, or in the verify stage: enqueued − verified.
    pub fn queue_depth(&self) -> u64 {
        // Two loads are not one instant; a negative difference is zero.
        let verified = self.0.verified.load(Relaxed);
        self.0.enqueued.load(Relaxed).saturating_sub(verified)
    }
}

/// The program's client: buffers framed reports, writes them to a socket.
pub struct Sender(NetSender);

impl Sender {
    pub fn connect(transport: Transport, addr: SocketAddr) -> Sender {
        Sender(NetSender::connect(transport, addr).expect("connect to the loopback listener"))
    }

    pub fn send(&mut self, r: &Report) {
        self.0.send_report(r).expect("send on a loopback socket");
    }

    /// Write out what is buffered: one datagram, or one stream write.
    pub fn flush(&mut self) {
        self.0.flush().expect("flush a loopback socket");
    }

    /// Flush and close; returns (reports, bytes, writes) sent.
    pub fn finish(self) -> (u64, u64, u64) {
        let s = self.0.finish().expect("close a loopback socket");
        (s.reports_sent, s.bytes_sent, s.flushes)
    }
}

/// The listener alone, no verify stage: the benchmark drains the queue.
pub struct Intake(IngestServer);

impl Intake {
    pub fn bind(transport: Transport) -> Intake {
        Intake(
            IngestServer::bind(ingest_config(transport, false)).expect("bind a loopback listener"),
        )
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    pub fn drain(&self, out: &mut Vec<Report>) -> usize {
        self.0.try_drain(out)
    }

    pub fn shutdown(self, out: &mut Vec<Report>) -> NetCounts {
        self.0.shutdown_polled(out).into()
    }
}

/// Append one framed report to a wire buffer.
pub fn encode(out: &mut Vec<u8>, r: &Report) {
    append_framed_report(out, r);
}

/// Decode a datagram's frames; returns the frames it rejected.
pub fn decode_datagram(buf: &[u8], out: &mut Vec<Report>) -> u64 {
    veridp_packet::decode_datagram(buf, out).decode_errors
}

/// The stream decoder of a TCP connection.
#[derive(Default)]
pub struct StreamDecoder(FrameReader);

impl StreamDecoder {
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<Report>) -> usize {
        self.0.push(bytes);
        self.0.drain_into(out)
    }

    pub fn decode_errors(&self) -> u64 {
        self.0.decode_errors()
    }
}
