//! The wire workloads: `tcp_sat`, `tcp_sat_robust`, `udp_paced`. A real
//! `serve()` pipeline on a loopback socket, fed by the program's own
//! client from generator threads of this process.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::budget::{self, Budget};
use crate::common::{self, RunArgs};
use crate::json::Json;
use crate::metrics::Outcome;
use crate::procfs;
use crate::stats;
use crate::stream::{self, Expect, Sub};
use crate::sut::{
    self, Bdd, Intake, Net, NetCounts, Progress, Report, Sender, ServerCounts, StreamDecoder, Sut,
    Transport, Wire,
};
use crate::trace::Tracer;

/// What distinguishes the three wire workloads.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub transport: Transport,
    /// Pair-sharded robust pumps and the wide stream with duplicates and
    /// failing reports; otherwise the plain pump and the hot stream.
    pub robust: bool,
}

pub const TCP_SAT: Spec = Spec {
    name: "tcp_sat",
    transport: Transport::Tcp,
    robust: false,
};
pub const TCP_SAT_ROBUST: Spec = Spec {
    name: "tcp_sat_robust",
    transport: Transport::Tcp,
    robust: true,
};
pub const UDP_PACED: Spec = Spec {
    name: "udp_paced",
    transport: Transport::Udp,
    robust: false,
};

/// Open-loop pacing of `udp_paced`: 200 000 reports/s as 200 reports in
/// 8 datagrams every millisecond — far below the knee, so throughput
/// cannot move and delay and loss are what the workload shows.
const TICK: Duration = Duration::from_millis(1);
const TICK_REPORTS: usize = 200;
const DATAGRAM_REPORTS: usize = 25;
/// The pacer sleeps to this long before a tick is due, then spins.
const SPIN: Duration = Duration::from_micros(100);
/// How long the pacer sleeps between looks at the server's counters while
/// a tick awaits its verdicts; with the kernel's timer slack a look comes
/// every 70 µs or so, which is the resolution of the latency.
const POLL: Duration = Duration::from_micros(20);

/// Reports a closed-loop generator sends between looks at the stop flag.
const CHUNK: usize = 256;
/// A closed-loop latency probe starts this often: note how many reports
/// the server has decoded off its sockets, time until as many have a
/// verdict. What the kernel's socket buffers hold is left out on purpose:
/// loopback autotuning moves it by megabytes between runs, while the
/// server's own queue is bounded and its wait is the server's doing.
const PROBE_EVERY: Duration = Duration::from_millis(10);
/// Reports sent and awaited during set-up, so that lazily built indexes
/// and the first connection's accept are part of `setup_s`.
const PRIME: usize = 1024;
/// Batch of the single-threaded layer replay.
const REPLAY_BATCH: usize = 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// What a run sends and what the oracle expects of it: made once from the
/// seed, before any set-up is timed.
struct Inputs {
    subs: Vec<Arc<Sub>>,
    fault_switch: Option<u32>,
    scan_ns_per_report: f64,
    stream_checksum: u64,
    /// Seconds this took; the benchmark's own work, not the program's.
    inputs_s: f64,
}

/// A pipeline ready to measure.
struct Prepared {
    wire: Wire<Bdd>,
    senders: Vec<Sender>,
    table: sut::TableSize,
    build_s: f64,
}

fn generators(spec: &Spec) -> usize {
    match spec.transport {
        // One pacer: the schedule is one sequence of ticks.
        Transport::Udp => 1,
        Transport::Tcp => common::nproc().min(2),
    }
}

/// The streams, one per generator, with the oracle's verdict for every
/// position.
fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let t0 = Instant::now();
    let sut = Sut::<Bdd>::build(Net::FatTree4);
    let parts = generators(spec);
    let (streams, fault_switch) = if spec.robust {
        let (parts, switch) = stream::wide_robust(&sut, seed, parts);
        (parts, Some(switch))
    } else {
        (stream::hot(&sut, seed, parts), None)
    };
    let mut scan_ns = 0.0;
    let mut stream_checksum = 0;
    let subs = streams
        .into_iter()
        .map(|(reports, duplicate)| {
            let (verdicts, ns) = sut.oracle(&reports);
            scan_ns += ns / parts as f64;
            stream_checksum ^= stream::checksum(&reports);
            Arc::new(Sub::new(reports, &verdicts, &duplicate))
        })
        .collect();
    Inputs {
        subs,
        fault_switch,
        scan_ns_per_report: scan_ns,
        stream_checksum,
        inputs_s: t0.elapsed().as_secs_f64(),
    }
}

/// The set-up that `setup_s` times: topology, rules, path table, listener,
/// connections, and a first batch verified — which builds what the server
/// builds lazily.
fn prepare(spec: &Spec, inputs: &Inputs) -> Prepared {
    let sut = Sut::<Bdd>::build(Net::FatTree4);
    let table = sut.table_size();
    let build_s = sut.build_s;
    let wire = sut.serve(spec.transport, spec.robust);
    let mut senders: Vec<Sender> = (0..inputs.subs.len())
        .map(|_| Sender::connect(spec.transport, wire.addr()))
        .collect();
    let first = &inputs.subs[0].reports;
    for r in &first[..PRIME.min(first.len())] {
        senders[0].send(r);
    }
    senders[0].flush();
    let progress = wire.progress();
    let deadline = Instant::now() + Duration::from_secs(2);
    while progress.settled() < PRIME as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(50));
    }
    Prepared {
        wire,
        senders,
        table,
        build_s,
    }
}

fn teardown(p: Prepared) {
    for s in p.senders {
        s.finish();
    }
    p.wire.shutdown();
}

/// What one measured interval over a live pipeline produced.
struct Live {
    sut: Sut<Bdd>,
    config: sut::ResolvedConfig,
    rate: common::Rate,
    /// Send → verdict counted, µs; `INFINITY` for a tick that lost reports.
    latency_us: Vec<f64>,
    /// How late the pacer started each tick, µs (open loop only).
    late_us: Vec<f64>,
    /// Reports each generator sent in all, the priming batch included.
    sent: Vec<u64>,
    net: NetCounts,
    server: ServerCounts,
    kernel_drops: u64,
    /// Stage budget over the measured interval (traced runs).
    budget: Option<Budget>,
    depth: Vec<f64>,
    tracer: Option<Tracer>,
}

/// Closed loop: write as fast as backpressure allows.
fn tcp_generator(
    mut tx: Sender,
    sub: Arc<Sub>,
    mut pos: usize,
    sent: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> Generated {
    let len = sub.reports.len();
    let mut n = 0u64;
    while !stop.load(Relaxed) {
        for _ in 0..CHUNK {
            tx.send(&sub.reports[pos]);
            pos += 1;
            if pos == len {
                pos = 0;
            }
        }
        n += CHUNK as u64;
        sent.fetch_add(CHUNK as u64, Relaxed);
    }
    Generated {
        tx,
        sent: n,
        latency_us: Vec::new(),
        late_us: Vec::new(),
        kernel_drops: 0,
        tracer: None,
    }
}

/// What a generator thread hands back.
struct Generated {
    tx: Sender,
    sent: u64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    kernel_drops: u64,
    tracer: Option<Tracer>,
}

/// One outstanding tick of the pacer.
struct Tick {
    due: Instant,
    /// Reports sent up to and including this tick.
    upto: u64,
    measured: bool,
    lossy: bool,
    span: Option<crate::trace::Open>,
}

/// The pacer's view of what the server has settled.
struct Settling {
    progress: Progress,
    port: u16,
    /// Counter readings when the pacer started.
    base: u64,
    base_drops: u64,
    /// Reports in datagrams the kernel dropped, as last read.
    lost: u64,
    drops_read: Instant,
    waiting: VecDeque<Tick>,
    latency_us: Vec<f64>,
    tracer: Option<Tracer>,
}

impl Settling {
    /// Retire every tick the server has caught up with.
    fn retire(&mut self) {
        let now = Instant::now();
        // A datagram the kernel dropped never reaches a counter. When a
        // tick is long overdue, ask the kernel; what it dropped counts as
        // settled, and the tick at the front as having lost reports.
        if let Some(front) = self.waiting.front_mut() {
            if now > front.due + 5 * TICK && now > self.drops_read + 5 * TICK {
                self.drops_read = now;
                let dropped =
                    (procfs::udp_drops(self.port) - self.base_drops) * DATAGRAM_REPORTS as u64;
                if dropped > self.lost {
                    self.lost = dropped;
                    front.lossy = true;
                }
            }
        }
        let settled = self.progress.settled() - self.base + self.lost;
        while self.waiting.front().is_some_and(|t| t.upto <= settled) {
            let t = self.waiting.pop_front().expect("front was just seen");
            if let (Some(tr), Some(span)) = (self.tracer.as_mut(), t.span) {
                tr.end(span);
            }
            if t.measured {
                self.latency_us.push(if t.lossy {
                    f64::INFINITY
                } else {
                    (now - t.due).as_secs_f64() * 1e6
                });
            }
        }
    }
}

/// Open loop: a tick every millisecond whatever the server does, each
/// timed from when it was *due* until the server has counted a verdict
/// (or a shed) for all its reports.
#[allow(clippy::too_many_arguments)]
fn pacer(
    mut tx: Sender,
    sub: Arc<Sub>,
    mut pos: usize,
    progress: Progress,
    port: u16,
    start: Instant,
    warmup: Duration,
    measure: Duration,
    tracer: Option<Tracer>,
) -> Generated {
    let len = sub.reports.len();
    // A few ticks past the measured interval, so the thread is still there
    // when its CPU time is read at the interval's end.
    let ticks = ((warmup + measure).as_nanos() / TICK.as_nanos()) as u32 + 20;
    let mut s = Settling {
        base: progress.settled(),
        progress,
        port,
        base_drops: procfs::udp_drops(port),
        lost: 0,
        drops_read: start,
        waiting: VecDeque::new(),
        latency_us: Vec::with_capacity(ticks as usize),
        tracer,
    };
    let mut late_us = Vec::with_capacity(ticks as usize);
    let mut sent = 0u64;
    for k in 0..ticks {
        let due = start + TICK * k;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if !s.waiting.is_empty() {
                s.retire();
                // Sleep between looks: a spinning pacer would hold one of
                // two processors and delay the very threads it is timing.
                std::thread::sleep(POLL.min(due - now));
            } else if due - now > SPIN {
                std::thread::sleep(due - now - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        let measured = due >= start + warmup && due < start + warmup + measure;
        if measured {
            late_us.push((Instant::now() - due).as_secs_f64() * 1e6);
        }
        let id = u64::from(k);
        let span = s.tracer.as_mut().map(|t| t.begin("tick", None, id));
        let send = s
            .tracer
            .as_mut()
            .zip(span)
            .map(|(t, parent)| t.begin("client.send", parent.as_parent(), id));
        for i in 0..TICK_REPORTS {
            tx.send(&sub.reports[pos]);
            pos += 1;
            if pos == len {
                pos = 0;
            }
            if (i + 1) % DATAGRAM_REPORTS == 0 {
                tx.flush();
            }
        }
        if let (Some(t), Some(open)) = (s.tracer.as_mut(), send) {
            t.end(open);
        }
        sent += TICK_REPORTS as u64;
        s.waiting.push_back(Tick {
            due,
            upto: sent,
            measured,
            lossy: false,
            span,
        });
        s.retire();
    }
    // The last ticks: give the server 100 ms, then count them lost.
    let deadline = Instant::now() + Duration::from_millis(100);
    while !s.waiting.is_empty() && Instant::now() < deadline {
        s.retire();
        std::thread::sleep(POLL);
    }
    let unsettled = s.waiting.iter().filter(|t| t.measured).count();
    s.latency_us
        .extend(std::iter::repeat_n(f64::INFINITY, unsettled));
    Generated {
        tx,
        sent,
        latency_us: s.latency_us,
        late_us,
        kernel_drops: procfs::udp_drops(port) - s.base_drops,
        tracer: s.tracer,
    }
}

/// Warm up, measure `seconds`, drain and shut down.
fn live_run(spec: &Spec, p: Prepared, subs: &[Arc<Sub>], seconds: f64, traced: bool) -> Live {
    let Prepared { wire, senders, .. } = p;
    let warmup = common::warmup(seconds);
    let window = common::window(seconds);
    let measure = Duration::from_secs_f64(seconds);
    let progress = wire.progress();
    let port = wire.addr().port();
    let primed = PRIME.min(subs[0].reports.len());
    let mut tracer = traced.then(Tracer::new);

    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for (g, tx) in senders.into_iter().enumerate() {
        let sub = Arc::clone(&subs[g]);
        let pos = if g == 0 {
            primed % sub.reports.len()
        } else {
            0
        };
        let builder = std::thread::Builder::new().name(format!("gen-{g}"));
        let handle = match spec.transport {
            Transport::Tcp => {
                let (sent, stop) = (Arc::clone(&sent), Arc::clone(&stop));
                builder.spawn(move || tcp_generator(tx, sub, pos, sent, stop))
            }
            Transport::Udp => {
                let progress = progress.clone();
                let tracer = tracer.take();
                builder.spawn(move || {
                    pacer(tx, sub, pos, progress, port, start, warmup, measure, tracer)
                })
            }
        };
        handles.push(handle.expect("spawn a generator thread"));
    }

    // This thread keeps the windows, and on TCP probes the latency.
    let mut edges: Vec<(Instant, u64)> = Vec::new();
    let mut next_edge = start + warmup;
    let end = start + warmup + measure;
    let mut cpu_start = None;
    let mut depth = Vec::new();
    let mut next_depth = start + warmup;
    let mut latency_us = Vec::new();
    let mut probes: VecDeque<(Instant, u64, Option<crate::trace::Open>)> = VecDeque::new();
    let mut next_probe = start + warmup;
    let mut probe_id = 0u64;
    loop {
        let now = Instant::now();
        if now >= next_edge {
            edges.push((now, progress.verified()));
            if traced && cpu_start.is_none() {
                cpu_start = Some(budget::sample());
            }
            next_edge += window;
            if now >= end {
                break;
            }
        }
        if spec.transport == Transport::Tcp {
            if now >= next_probe {
                let span = tracer.as_mut().map(|t| t.begin("probe", None, probe_id));
                probe_id += 1;
                probes.push_back((now, progress.decoded(), span));
                next_probe += PROBE_EVERY;
            }
            let verified = progress.verified();
            while probes.front().is_some_and(|p| p.1 <= verified) {
                let (t0, _, span) = probes.pop_front().expect("front was just seen");
                latency_us.push((now - t0).as_secs_f64() * 1e6);
                if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                    t.end(s);
                }
            }
        }
        if traced && now >= next_depth {
            depth.push(progress.queue_depth() as f64);
            next_depth += Duration::from_millis(10);
        }
        std::thread::sleep(match spec.transport {
            Transport::Tcp => Duration::from_micros(100),
            Transport::Udp => Duration::from_millis(2),
        });
    }
    let budget = cpu_start.map(|a| budget::between(&a, &budget::sample()));

    stop.store(true, Relaxed);
    let mut sent_by = Vec::new();
    let mut late_us = Vec::new();
    let mut kernel_drops = 0;
    for (g, h) in handles.into_iter().enumerate() {
        let paced = h.join().expect("generator thread panicked");
        sent_by.push(paced.sent + if g == 0 { primed as u64 } else { 0 });
        latency_us.extend(paced.latency_us);
        late_us.extend(paced.late_us);
        kernel_drops += paced.kernel_drops;
        if paced.tracer.is_some() {
            tracer = paced.tracer;
        }
        paced.tx.finish();
    }
    let total: u64 = sent_by.iter().sum();
    match spec.transport {
        Transport::Tcp => {
            wire.wait_frames(total, Duration::from_secs(30));
        }
        Transport::Udp => {
            wire.wait_frames(total, Duration::from_millis(300));
        }
    }
    let config = wire.config.clone();
    let (sut, net) = wire.shutdown();
    Live {
        server: sut.stats(),
        sut,
        config,
        rate: common::rate(&edges),
        latency_us,
        late_us,
        sent: sent_by,
        net,
        kernel_drops,
        budget,
        depth,
        tracer,
    }
}

/// Compare what the server counted with what the oracle expects of the
/// reports actually sent. Returns (reports checked, reports that failed).
fn check(spec: &Spec, subs: &[Arc<Sub>], fault_switch: Option<u32>, live: &Live) -> (u64, u64) {
    let sent: u64 = live.sent.iter().sum();
    let mut failed = 0;
    let mut complain = |what: &str, n: u64| {
        if n > 0 {
            eprintln!("{}: CHECK FAILED: {what}: {n}", spec.name);
            failed += n;
        }
    };
    if !live.net.conserved {
        complain("reports the accounting lost", live.net.unaccounted.max(1));
    }
    complain("frames rejected by the decoder", live.net.decode_errors);
    let mut expect = Expect::default();
    for (sub, n) in subs.iter().zip(&live.sent) {
        expect.merge(&sub.expect(*n));
    }
    match spec.transport {
        // Lossless: every report sent has its oracle verdict, duplicates
        // are counted as such (robust) or verified again (plain).
        Transport::Tcp => {
            complain(
                "reports sent but not verified",
                sent.abs_diff(live.net.verified),
            );
            if spec.robust {
                complain(
                    "verdicts differing from the oracle",
                    expect.verdicts.distance(&live.server.verdicts),
                );
                complain(
                    "duplicates miscounted",
                    expect.duplicates.abs_diff(live.server.duplicates),
                );
                complain(
                    "reports graced, quarantined or shed with no update in flight",
                    live.server.graced + live.server.quarantined + live.server.shed,
                );
                let confirmed = live.sut.confirmed_suspects();
                let want: Vec<u32> = fault_switch.into_iter().collect();
                if confirmed != want {
                    eprintln!("confirmed suspects {confirmed:?}, seeded {want:?}");
                    complain("missed or false confirmed suspects", 1);
                }
            } else {
                // The plain pump verifies a duplicate like any report; the
                // hot stream has none and every verdict is Pass.
                complain(
                    "verdicts differing from the oracle",
                    expect.verdicts.distance(&live.server.verdicts),
                );
            }
        }
        // Lossy by nature: the delivered subset must all pass.
        Transport::Udp => {
            let v = live.server.verdicts;
            complain("failing verdicts on a passing stream", v.total() - v.pass);
            complain(
                "verdicts not matching verified",
                v.total().abs_diff(live.net.verified),
            );
        }
    }
    (sent, failed)
}

fn config_json(c: &sut::ResolvedConfig) -> Json {
    Json::obj([
        ("transport", Json::str(c.transport)),
        ("link", Json::str("loopback")),
        ("mode", Json::str(c.mode.clone())),
        ("event_loops", Json::Int(c.event_loops as i64)),
        ("verify_threads", Json::Int(c.verify_threads as i64)),
        ("verify_shards", Json::Int(c.verify_shards as i64)),
        ("batch_reports", Json::Int(c.batch_reports as i64)),
        ("queue_reports", Json::Int(c.queue_reports as i64)),
        ("robust", Json::Bool(c.robust)),
        ("fastpath", Json::Bool(true)),
    ])
}

/// A latency percentile, with a lost tick standing in as the whole run.
fn finite(us: f64, seconds: f64) -> f64 {
    if us.is_finite() {
        us
    } else {
        seconds * 1e6
    }
}

pub fn run(spec: &Spec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(spec, args.seed);
    let reps = common::setup_reps(SETUP_REPS, args.seconds);
    let (prepared, setup_s) = common::repeated_setup(reps, || prepare(spec, &inputs), teardown);
    let subs = &inputs.subs;
    let fault_switch = inputs.fault_switch;
    let (table, build_s) = (prepared.table, prepared.build_s);
    let scan_ns = inputs.scan_ns_per_report;
    out.note("network", Json::str(Net::FatTree4.name()));
    out.note("backend", Json::str("bdd"));
    out.note("generators", Json::Int(generators(spec) as i64));
    out.note(
        "stream_reports",
        Json::Int(subs.iter().map(|s| s.reports.len()).sum::<usize>() as i64),
    );
    out.note(
        "stream_checksum",
        Json::str(format!("{:016x}", inputs.stream_checksum)),
    );
    out.note("inputs_s", Json::Num(inputs.inputs_s));
    if let Some(s) = fault_switch {
        out.note("fault_switch", Json::Int(i64::from(s)));
    }

    if !args.trace {
        let live = live_run(spec, prepared, subs, args.seconds, false);
        let (attempted, failed) = check(spec, subs, fault_switch, &live);
        out.attempted = attempted;
        out.failed = failed;
        let lat = stats::timing(&live.latency_us);
        let sent: u64 = live.sent.iter().sum();
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("reports_per_s", live.rate.median);
        out.metrics
            .set("latency_p50_us", finite(lat.p50, args.seconds));
        out.metrics
            .set("latency_p90_us", finite(lat.p90, args.seconds));
        out.metrics.set(
            "delivered_frac",
            live.net.verified as f64 / sent.max(1) as f64,
        );
        out.note("config", config_json(&live.config));
        out.note("reports_per_s_windows", live.rate.to_json());
        out.note("latency_us", common::timing_json(&lat));
        out.note("sent", Json::Int(sent as i64));
        out.note("verified", Json::Int(live.net.verified as i64));
        if spec.transport == Transport::Udp {
            let late = stats::timing(&live.late_us);
            out.note("gen_late_us", common::timing_json(&late));
            // A generator more than a tick late did not offer the load the
            // workload names.
            let late_p99 = stats::percentile(&live.late_us, 99.0);
            out.note("noisy", Json::Bool(late_p99 > TICK.as_secs_f64() * 1e6));
            out.note("kernel_drops", Json::Int(live.kernel_drops as i64));
        }
        return out;
    }

    // ---- traced run: a quarter of the time untraced for the overhead,
    // the layers alone, then the live pipeline under observation.
    let untraced = live_run(spec, prepared, subs, args.seconds * 0.25, false);
    let stream: Vec<Report> = subs
        .iter()
        .flat_map(|s| s.reports.iter().copied())
        .collect();
    let mut tracer = Tracer::new();
    let replayed = replay(spec, &stream, args.seconds * 0.15, &mut tracer);
    let intake_rate = intake_only(spec, subs, args.seconds * 0.15);
    let live = live_run(
        spec,
        prepare(spec, &inputs),
        subs,
        args.seconds * 0.45,
        true,
    );
    let (attempted, failed) = check(spec, subs, fault_switch, &live);
    out.attempted = attempted;
    out.failed = failed;

    let m = &mut out.metrics;
    let per_report = |ns: u64| ns as f64 / replayed.max(1) as f64;
    m.set(
        "packet.encode_ns_per_report",
        per_report(tracer.self_ns("encode")),
    );
    match spec.transport {
        Transport::Tcp => m.set(
            "packet.decode_stream_ns_per_report",
            per_report(tracer.self_ns("decode")),
        ),
        Transport::Udp => m.set(
            "packet.decode_datagram_ns_per_report",
            per_report(tracer.self_ns("decode")),
        ),
    }
    if spec.robust {
        m.set(
            "core.robust.ns_per_report",
            per_report(tracer.self_ns("robust")),
        );
    } else {
        m.set(
            "core.verify.ns_per_report",
            per_report(tracer.self_ns("verify")),
        );
    }
    m.set("core.verify.scan_ns_per_report", scan_ns);
    m.set("net.intake.only_reports_per_s", intake_rate);

    let n = &live.net;
    let reports = live.rate.total.max(1) as f64;
    m.set(
        "packet.wire_bytes_per_report",
        n.bytes as f64 / n.reports.max(1) as f64,
    );
    m.set("packet.decode_errors", n.decode_errors as f64);
    m.set(
        "net.intake.reports_per_datagram",
        if n.datagrams > 0 {
            n.reports as f64 / n.datagrams as f64
        } else {
            0.0
        },
    );
    let sent: u64 = live.sent.iter().sum();
    m.set(
        "net.intake.kernel_drop_frac",
        (live.kernel_drops * DATAGRAM_REPORTS as u64) as f64 / sent.max(1) as f64,
    );
    m.set("net.intake.idle_wakeups", n.idle_wakeups as f64);
    m.set(
        "net.queue.shed_frac",
        n.shed as f64 / n.reports.max(1) as f64,
    );
    m.set("net.queue.push_timeouts", n.push_timeouts as f64);
    if !live.depth.is_empty() {
        m.set("net.queue.depth_p50", stats::percentile(&live.depth, 50.0));
        m.set("net.queue.depth_p99", stats::percentile(&live.depth, 99.0));
    }
    m.set(
        "net.pump.reports_per_batch",
        n.verified as f64 / n.batches.max(1) as f64,
    );
    m.set("net.pump.ingest_p50_ns", n.ingest_p50_ns as f64);
    m.set("net.pump.ingest_p99_ns", n.ingest_p99_ns as f64);
    if !n.shard_verified.is_empty() {
        let max = *n.shard_verified.iter().max().expect("non-empty") as f64;
        let mean = n.shard_verified.iter().sum::<u64>() as f64 / n.shard_verified.len() as f64;
        m.set("net.pump.shard_imbalance", max / mean.max(1.0));
    }
    m.set("net.pump.worker_restarts", n.worker_restarts as f64);
    if !live.late_us.is_empty() {
        m.set(
            "net.client.gen_late_p99_us",
            stats::percentile(&live.late_us, 99.0),
        );
    }
    if let Some(b) = &live.budget {
        let us = |ns: f64| ns / reports / 1e3;
        m.set("net.client.cpu_us_per_report", us(b.generator_ns));
        m.set("net.intake.cpu_us_per_report", us(b.intake_ns));
        m.set("net.intake.runq_wait_us_per_report", us(b.intake_wait_ns));
        m.set("net.pump.cpu_us_per_report", us(b.pump_ns));
        m.set("net.pump.runq_wait_us_per_report", us(b.pump_wait_ns));
        m.set("net.other.cpu_us_per_report", us(b.other_ns));
        m.set("proc.cpu_us_per_report", us(b.process_ns));
        m.set("proc.ctx_switches_per_kreport", b.switches / reports * 1e3);
        out.note(
            "stage_table",
            stage_table(spec, b, reports, &tracer, replayed),
        );
    }
    let s = &live.server;
    let m = &mut out.metrics;
    let lookups = (s.cache_hits + s.cache_misses).max(1) as f64;
    m.set("core.fastpath.hit_ratio", s.cache_hits as f64 / lookups);
    m.set(
        "core.server.gap_detect_p50_us",
        s.gap_detect_p50_ns as f64 / 1e3,
    );
    m.set(
        "core.server.gap_detect_p99_us",
        s.gap_detect_p99_ns as f64 / 1e3,
    );
    m.set("core.robust.duplicates", s.duplicates as f64);
    m.set("core.robust.graced", s.graced as f64);
    m.set("core.robust.quarantined", s.quarantined as f64);
    m.set("core.robust.shed", s.shed as f64);
    m.set(
        "core.robust.confirmed_alarms",
        live.sut.confirmed_alarms() as f64,
    );
    let false_alarms = live
        .sut
        .confirmed_suspects()
        .iter()
        .filter(|s| Some(**s) != fault_switch)
        .count();
    m.set("core.robust.false_alarms", false_alarms as f64);
    m.set("core.localize.localized_frac", {
        if s.localizations > 0 {
            s.localized as f64 / s.localizations as f64
        } else {
            0.0
        }
    });
    m.set("core.path_table.build_s", build_s);
    m.set("core.path_table.pairs", table.pairs as f64);
    m.set("core.path_table.paths", table.paths as f64);
    m.set("backend.size_metric", table.backend_size as f64);
    m.set(
        "proc.tracing_overhead_frac",
        1.0 - live.rate.median / untraced.rate.median.max(1.0),
    );
    m.set("proc.peak_rss_mb", procfs::peak_rss_mb());
    out.note("config", config_json(&live.config));
    out.note("untraced_reports_per_s", Json::Num(untraced.rate.median));
    out.note("traced_reports_per_s", Json::Num(live.rate.median));
    out.note("replayed_reports", Json::Int(replayed as i64));

    if let Some(path) = &args.trace_path {
        let live_spans = live.tracer.as_ref().map_or(Json::Null, Tracer::to_json);
        let doc = Json::obj([
            ("workload", Json::str(spec.name)),
            ("replay", tracer.to_json()),
            ("live", live_spans),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    out
}

/// The stage table: CPU per report and layer over the live pipeline, next
/// to the self time of the same layer replayed on one thread.
fn stage_table(spec: &Spec, b: &Budget, reports: f64, tracer: &Tracer, replayed: u64) -> Json {
    let replay_ns = |names: &[&str]| {
        names.iter().map(|n| tracer.self_ns(n)).sum::<u64>() as f64 / replayed.max(1) as f64
    };
    let verify = if spec.robust { "robust" } else { "verify" };
    let rows = [
        (
            "net::client (generator)",
            b.generator_ns,
            replay_ns(&["encode"]),
        ),
        (
            "net::reactor + packet::wire (intake)",
            b.intake_ns,
            replay_ns(&["decode"]),
        ),
        (
            "net::server pump + core verify",
            b.pump_ns,
            replay_ns(&[verify]),
        ),
        ("benchmark's own threads", b.bench_ns, 0.0),
        ("other (exited scoped workers, …)", b.other_ns, 0.0),
    ];
    let largest = rows
        .iter()
        .filter(|r| !r.0.starts_with("benchmark"))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |r| r.0);
    println!(
        "stage table, {} (ns of CPU per verified report):",
        spec.name
    );
    println!("  {:<40} {:>10} {:>16}", "layer", "live", "replayed self");
    for (name, ns, replayed) in &rows {
        println!("  {:<40} {:>10.1} {:>16.1}", name, ns / reports, replayed);
    }
    println!(
        "  {:<40} {:>10.1}   largest layer: {largest}",
        "process",
        b.process_ns / reports
    );
    Json::obj([
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|(name, ns, replayed)| {
                        Json::obj([
                            ("layer", Json::str(*name)),
                            ("live_cpu_ns_per_report", Json::Num(ns / reports)),
                            ("replayed_self_ns_per_report", Json::Num(*replayed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "process_cpu_ns_per_report",
            Json::Num(b.process_ns / reports),
        ),
        ("largest_layer", Json::str(largest)),
    ])
}

/// Each batch through the layers' public functions on one thread, with no
/// socket, queue or second thread: encode → decode → verify (or robust),
/// as child spans of one batch span. Returns the reports replayed.
fn replay(spec: &Spec, stream: &[Report], seconds: f64, tracer: &mut Tracer) -> u64 {
    let mut sut = Sut::<Bdd>::build(Net::FatTree4);
    if spec.robust {
        // What `serve()` switches on for the robust pumps.
        sut.enable_robust();
        sut.enable_snapshots();
    }
    // Stamped like the client stamps live reports, with time since boot:
    // stamped reports travel as the longer v2 frame.
    let boot = procfs::uptime_ns();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut wire = Vec::with_capacity(REPLAY_BATCH * sut::FRAME_LEN);
    let mut decoded: Vec<Report> = Vec::with_capacity(REPLAY_BATCH);
    let mut decoder = StreamDecoder::default();
    let mut replayed = 0u64;
    let mut errors = 0u64;
    let mut batch_id = 0u64;
    'run: loop {
        for batch in stream.chunks(REPLAY_BATCH) {
            if Instant::now() >= deadline {
                break 'run;
            }
            let stamp = boot + start.elapsed().as_nanos() as u64;
            let whole = tracer.begin("batch", None, batch_id);
            let parent = whole.as_parent();

            wire.clear();
            let span = tracer.begin("encode", parent, batch_id);
            for r in batch {
                sut::encode(&mut wire, &r.with_origin(stamp));
            }
            tracer.end(span);

            decoded.clear();
            let span = tracer.begin("decode", parent, batch_id);
            match spec.transport {
                Transport::Tcp => {
                    decoder.push(&wire, &mut decoded);
                }
                Transport::Udp => {
                    for datagram in wire.chunks(DATAGRAM_REPORTS * sut::FRAME_LEN) {
                        errors += sut::decode_datagram(datagram, &mut decoded);
                    }
                }
            }
            tracer.end(span);

            if spec.robust {
                let span = tracer.begin("robust", parent, batch_id);
                for r in &decoded {
                    sut.ingest_robust(r);
                }
                sut.settle();
                tracer.end(span);
            } else {
                let span = tracer.begin("verify", parent, batch_id);
                sut.ingest(&decoded);
                tracer.end(span);
            }
            tracer.end(whole);
            assert_eq!(decoded.len(), batch.len(), "the codec lost reports");
            replayed += batch.len() as u64;
            batch_id += 1;
        }
    }
    assert_eq!(
        errors + decoder.decode_errors(),
        0,
        "the codec rejected its own frames"
    );
    replayed
}

/// Datagrams the intake-only sender keeps in flight: fewer than the
/// default socket buffer holds, so the kernel drops none.
const INTAKE_WINDOW_REPORTS: u64 = 32 * DATAGRAM_REPORTS as u64;

/// The listener without a verify stage: generators send, this thread
/// drains the queue. TCP generators write as fast as backpressure allows;
/// the UDP generator keeps a window of datagrams in flight, since an
/// unpaced blast measures the sender outrunning the kernel and not the
/// intake. Returns reports per second through intake alone.
fn intake_only(spec: &Spec, subs: &[Arc<Sub>], seconds: f64) -> f64 {
    let intake = Intake::bind(spec.transport);
    let addr = intake.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let drained = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..generators(spec))
        .map(|g| {
            let sub = Arc::clone(&subs[g % subs.len()]);
            let (stop, drained) = (Arc::clone(&stop), Arc::clone(&drained));
            let transport = spec.transport;
            std::thread::Builder::new()
                .name(format!("gen-{g}"))
                .spawn(move || {
                    let mut tx = Sender::connect(transport, addr);
                    let mut pos = 0;
                    let mut sent = 0u64;
                    let mut progressed = Instant::now();
                    while !stop.load(Relaxed) {
                        if transport == Transport::Udp {
                            let seen = drained.load(Relaxed);
                            if sent - seen.min(sent) >= INTAKE_WINDOW_REPORTS {
                                // A lost datagram would shrink the window
                                // for good: after 5 ms write it off.
                                if progressed.elapsed() > 5 * TICK {
                                    sent = seen;
                                }
                                std::thread::yield_now();
                                continue;
                            }
                            progressed = Instant::now();
                        }
                        let n = match transport {
                            Transport::Udp => DATAGRAM_REPORTS,
                            Transport::Tcp => CHUNK,
                        };
                        for _ in 0..n {
                            tx.send(&sub.reports[pos]);
                            pos = (pos + 1) % sub.reports.len();
                        }
                        if transport == Transport::Udp {
                            tx.flush();
                        }
                        sent += n as u64;
                    }
                    tx.finish();
                })
                .expect("spawn a generator thread")
        })
        .collect();
    let warmup = Duration::from_secs_f64((seconds * 0.2).max(0.05));
    let start = Instant::now();
    let mut sink: Vec<Report> = Vec::new();
    let mut total = 0u64;
    let mut at_warm = None;
    loop {
        let now = Instant::now();
        if at_warm.is_none() && now >= start + warmup {
            at_warm = Some((now, total));
        }
        if now >= start + Duration::from_secs_f64(seconds) {
            break;
        }
        sink.clear();
        if intake.drain(&mut sink) == 0 {
            std::thread::yield_now();
        }
        total += sink.len() as u64;
        drained.store(total, Relaxed);
    }
    let (t0, n0) = at_warm.unwrap_or((start, 0));
    let rate = (total - n0) as f64 / t0.elapsed().as_secs_f64();
    stop.store(true, Relaxed);
    // Producers blocked on a full queue need the drain of the shutdown.
    sink.clear();
    let counts = intake.shutdown(&mut sink);
    for h in handles {
        h.join().expect("generator thread panicked");
    }
    if !counts.conserved {
        eprintln!(
            "{}: intake-only run lost {} reports",
            spec.name, counts.unaccounted
        );
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_tcp_run_is_correct() {
        let args = RunArgs {
            seed: 3,
            seconds: 0.3,
            trace: false,
            trace_path: None,
        };
        let out = run(&TCP_SAT, &args);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 1000);
        assert!(out.metrics.get("reports_per_s").unwrap() > 0.0);
        assert_eq!(out.metrics.get("delivered_frac"), Some(1.0));
    }
}
