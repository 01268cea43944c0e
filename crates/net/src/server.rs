//! The listener, the verify pump, and the pipeline that glues them.
//!
//! Two intake engines share one contract (see [`IngestMode`]):
//!
//! * **Reactor** (Linux, the default there) — a small fixed pool of
//!   event-loop threads multiplexing every TCP connection (or the UDP
//!   socket) through level-triggered epoll; nonblocking accept/read, no
//!   timeouts, no thread-per-connection. Loop 0 owns the listener and
//!   hands accepted sockets round-robin to its peers.
//! * **Threaded** (portable fallback) — one blocking handler thread per
//!   TCP connection (plus `recv_threads` UDP loops), each parked in
//!   `poll(2)` on its socket *and* the shared stop pipe. No read-timeout
//!   spinning: a quiet server makes zero wakeups (`NetStats::idle_wakeups`
//!   stays 0; only the non-unix timeout shim accrues them).
//!
//! Batching and backpressure are identical in both engines: decoded
//! reports accumulate into batches; full batches go to the bounded queue
//! with a blocking push (TCP — queue pressure stalls the read path and TCP
//! flow control carries it to the sender) or a shedding push (UDP —
//! counted, never silent); partial batches flush the moment a read drains
//! to would-block, so idle periods never hold reports hostage and no timer
//! is needed.
//!
//! The verify side is a fixed pool of long-lived `net-verify-{i}` workers,
//! each popping *whole batches* and verifying them inline against a pinned
//! RCU snapshot of the server's table: the steady state creates no thread
//! and takes no lock beyond the queue pop. Two worker kinds, one loop:
//!
//! * **Plain** — [`IngestConfig::verify_threads`] workers share the one
//!   queue, each with its own snapshot reader, verdict cache, and stats
//!   (verdicts are pure, so which worker takes a batch is unobservable).
//! * **Sharded robust** — with [`IngestConfig::robust`] set, intake
//!   partitions every batch by [`TagReport::shard`] (the `(inport,
//!   outport)` pair) across `verify_shards` queues, and one
//!   `RobustWorker` per shard runs the full robust path — dedup, epoch
//!   grace, quarantine, alarm confirmation — with all pair-keyed state
//!   shard-local.
//!
//! At shutdown each worker's results are absorbed back into the server;
//! the conservation identity extends across workers (`reports == Σ enqueued
//! + shed` and `enqueued == verified`, summed over every queue).
//!
//! [`IngestPipeline::shutdown`] sequences the drain: stop intake (one
//! level-triggered wake, no polling) → intake reads kernel-accepted bytes
//! until quiet and flushes partials → join intake → close the queues → the
//! workers empty them and exit → hand the `VeriDpServer` back with the final
//! [`NetStatsSnapshot`].
//!
//! The listener can also run *polled* (no pump): the owner pulls decoded
//! reports out with [`IngestServer::try_drain`] and ends with
//! [`IngestServer::shutdown_polled`], which drains concurrently with the
//! intake join so a blocked producer can never deadlock the shutdown. The
//! chaos scenarios use this mode because they interleave rule churn on the
//! same `VeriDpServer` between drains.

use std::io;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

#[cfg(unix)]
use std::os::fd::AsRawFd;

use veridp_core::{
    HeaderSetBackend, LivenessConfig, ReaderHandle, RobustConfig, RobustWorker, ServerStats,
    VeriDpServer,
};
use veridp_obs as obs;
use veridp_obs::LocalHistogram;
use veridp_packet::{decode_datagram_full, FrameReader, Heartbeat, TagReport};

use crate::liveness::LivenessHandle;
use crate::queue::{BatchQueue, Pop, PushError};
use crate::reactor;
#[cfg(unix)]
use crate::reactor::readiness;
use crate::reactor::StopSignal;
use crate::stats::{NetStats, NetStatsSnapshot};
use crate::Transport;

/// Socket read timeout for the non-unix shim, which has no `poll(2)`: the
/// cadence at which its loops notice the stop flag. Every such wake is
/// counted in `NetStats::idle_wakeups`.
#[cfg(not(unix))]
const READ_TIMEOUT: Duration = Duration::from_millis(10);

/// How long a draining socket must stay silent, after stop, before its
/// kernel-buffered bytes are considered fully read.
#[cfg(unix)]
const DRAIN_QUIET_MS: i32 = 15;

/// Receive buffer per intake thread/event loop. Comfortably above any UDP
/// datagram and large enough to amortize TCP syscalls.
pub(crate) const RECV_BUF_LEN: usize = 64 * 1024;

/// Which intake engine an [`IngestServer`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Pick per platform (epoll reactor on Linux, threaded elsewhere),
    /// honouring a `VERIDP_NET_MODE=reactor|threaded` override when it
    /// names an engine the platform supports.
    Auto,
    /// The epoll event-loop pool. Binding fails with
    /// [`io::ErrorKind::Unsupported`] off Linux.
    Reactor,
    /// Blocking threads parked on `poll(2)` readiness (read timeouts only
    /// on non-unix platforms).
    Threaded,
}

impl IngestMode {
    /// Resolve to a concrete engine ([`IngestMode::Reactor`] or
    /// [`IngestMode::Threaded`]), or fail if an explicitly requested
    /// engine is unsupported here.
    pub fn resolve(self) -> io::Result<IngestMode> {
        let linux = cfg!(target_os = "linux");
        match self {
            IngestMode::Reactor if linux => Ok(IngestMode::Reactor),
            IngestMode::Reactor => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "reactor mode requires Linux epoll",
            )),
            IngestMode::Threaded => Ok(IngestMode::Threaded),
            IngestMode::Auto => {
                let env = std::env::var("VERIDP_NET_MODE")
                    .ok()
                    .and_then(|v| v.parse::<IngestMode>().ok());
                Ok(match env {
                    Some(IngestMode::Reactor) if linux => IngestMode::Reactor,
                    Some(IngestMode::Threaded) => IngestMode::Threaded,
                    _ if linux => IngestMode::Reactor,
                    _ => IngestMode::Threaded,
                })
            }
        }
    }
}

impl std::fmt::Display for IngestMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IngestMode::Auto => "auto",
            IngestMode::Reactor => "reactor",
            IngestMode::Threaded => "threaded",
        })
    }
}

impl std::str::FromStr for IngestMode {
    type Err = String;

    fn from_str(s: &str) -> Result<IngestMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(IngestMode::Auto),
            "reactor" | "epoll" => Ok(IngestMode::Reactor),
            "threaded" | "threads" => Ok(IngestMode::Threaded),
            other => Err(format!(
                "unknown ingest mode {other:?} (expected auto, reactor, or threaded)"
            )),
        }
    }
}

/// How an [`IngestServer`] binds and batches.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// UDP or TCP.
    pub transport: Transport,
    /// Bind address, e.g. `127.0.0.1:0` to let the OS pick a port.
    pub addr: SocketAddr,
    /// Intake engine (see [`IngestMode`]).
    pub mode: IngestMode,
    /// Event-loop threads in reactor mode (TCP; the UDP reactor always
    /// runs one loop). Ignored in threaded mode.
    pub event_loops: usize,
    /// UDP receive loops sharing the socket in threaded mode (ignored for
    /// TCP and for the reactor).
    pub recv_threads: usize,
    /// Decoded reports accumulated per intake thread/event loop before the
    /// batch is pushed to the queue.
    pub batch_reports: usize,
    /// Bounded queue capacity, in reports (per shard queue in robust
    /// mode). This is the backpressure knob: TCP blocks on it, UDP sheds
    /// over it.
    pub queue_reports: usize,
    /// Verify workers in plain mode: long-lived threads that each pop
    /// whole batches off the shared queue and verify them inline. At least
    /// one runs; [`serve`] fails beyond the snapshot layer's 63 reader
    /// slots. (Robust mode runs one worker per shard instead.)
    pub verify_threads: usize,
    /// When set, [`serve`] runs the robust wire path: intake shards every
    /// batch by `(inport, outport)` pair across [`IngestConfig::verify_shards`]
    /// queues, and one `RobustWorker` per shard applies dedup, epoch
    /// grace, quarantine, and alarm confirmation against pinned RCU
    /// snapshots.
    pub robust: Option<RobustConfig>,
    /// Verify shards (queues + `RobustWorker` threads) in robust mode.
    pub verify_shards: usize,
    /// When set, the listener tracks reporter liveness: every report and
    /// heartbeat refreshes a freshness registry, and a background sweeper
    /// flags previously-active reporters that go silent past the window
    /// (see [`LivenessHandle`]). `None` (the default) keeps the clean
    /// ingest path free of any liveness overhead.
    pub liveness: Option<LivenessConfig>,
    /// Ceiling on how long a blocking (TCP) queue push may wait for the
    /// verify side. A push that hits this deadline means the consumer is
    /// dead or wedged: the reports are counted shed + `push_timeouts`, and
    /// the threaded connection handler errors out rather than blocking
    /// forever.
    pub push_deadline: Duration,
    /// Fault injection for the supervision tests: panic the verify worker
    /// right before ingesting the Nth batch (counted across all shards).
    /// The supervisor catches it, counts a restart, and replays the batch.
    pub poison_after: Option<u64>,
}

impl IngestConfig {
    /// Defaults tuned for loopback ingest; `addr` may use port 0.
    pub fn new(transport: Transport, addr: SocketAddr) -> Self {
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        IngestConfig {
            transport,
            addr,
            mode: IngestMode::Auto,
            event_loops: 2,
            recv_threads: 2,
            batch_reports: 1024,
            queue_reports: 1 << 16,
            verify_threads: cores.min(4),
            robust: None,
            verify_shards: cores.clamp(2, 4),
            liveness: None,
            push_deadline: Duration::from_secs(5),
            poison_after: None,
        }
    }

    /// Convenience over a string address (first resolution wins).
    pub fn for_addr(transport: Transport, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        Ok(IngestConfig::new(transport, addr))
    }
}

/// Decrements the live-intake count when an intake thread exits, however
/// it exits.
pub(crate) struct LiveGuard(pub(crate) Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Everything an intake loop needs to decode, batch, and account: shared
/// between the reactor event loops and the threaded handlers.
#[derive(Clone)]
pub(crate) struct IntakeCtx {
    pub(crate) stats: Arc<NetStats>,
    /// One queue in plain mode; `verify_shards` queues in robust mode,
    /// indexed by [`TagReport::shard`].
    pub(crate) queues: Arc<Vec<Arc<BatchQueue>>>,
    pub(crate) stop: Arc<StopSignal>,
    pub(crate) batch_reports: usize,
    /// Freshness registry, present only when the config enabled liveness.
    pub(crate) liveness: Option<Arc<LivenessHandle>>,
    /// Ceiling for blocking queue pushes (see [`IngestConfig::push_deadline`]).
    pub(crate) push_deadline: Duration,
}

/// Flush a batch to the queue(s), counting the outcome. With sharded
/// queues the batch is partitioned by `(inport, outport)` pair first.
/// `blocking` selects the transport's overflow policy: deadline-bounded
/// wait (TCP) or shed (UDP). Returns `false` if a blocking push hit the
/// deadline — the consumer side is gone, and a stream handler should drop
/// its connection rather than keep feeding a dead pipeline.
pub(crate) fn flush_batch(batch: &mut Vec<TagReport>, ctx: &IntakeCtx, blocking: bool) -> bool {
    if batch.is_empty() {
        return true;
    }
    if let Some(liveness) = &ctx.liveness {
        liveness.note_reports(batch);
    }
    let full = std::mem::replace(batch, Vec::with_capacity(ctx.batch_reports));
    let shards = ctx.queues.len();
    if shards == 1 {
        return push_part(&ctx.queues[0], full, ctx, blocking);
    }
    let mut parts: Vec<Vec<TagReport>> = (0..shards).map(|_| Vec::new()).collect();
    for report in full {
        parts[report.shard(shards)].push(report);
    }
    let mut ok = true;
    for (queue, part) in ctx.queues.iter().zip(parts) {
        if !part.is_empty() {
            ok &= push_part(queue, part, ctx, blocking);
        }
    }
    ok
}

fn push_part(queue: &BatchQueue, part: Vec<TagReport>, ctx: &IntakeCtx, blocking: bool) -> bool {
    let n = part.len() as u64;
    if blocking {
        match queue.push_deadline(part, Instant::now() + ctx.push_deadline) {
            Ok(()) => ctx.stats.add_enqueued(n),
            // Routine shutdown path: the queue closed under us.
            Err(PushError::Closed) => ctx.stats.add_shed(n),
            Err(PushError::TimedOut) => {
                ctx.stats.add_shed(n);
                ctx.stats.add_push_timeout(n);
                return false;
            }
        }
    } else {
        match queue.try_push(part) {
            Ok(()) => ctx.stats.add_enqueued(n),
            Err(_) => ctx.stats.add_shed(n),
        }
    }
    true
}

/// Drain any heartbeat frames the reader buffered: count them and refresh
/// the liveness registry. `scratch` is a reusable buffer owned by the
/// intake loop.
pub(crate) fn drain_heartbeats(
    reader: &mut FrameReader,
    ctx: &IntakeCtx,
    scratch: &mut Vec<Heartbeat>,
) {
    scratch.clear();
    let n = reader.take_heartbeats(scratch);
    if n > 0 {
        ctx.stats.add_heartbeats(n as u64);
        if let Some(liveness) = &ctx.liveness {
            liveness.note_heartbeats(scratch);
        }
    }
}

/// Count + register heartbeats decoded out of one datagram, clearing the
/// buffer for reuse.
pub(crate) fn note_datagram_heartbeats(ctx: &IntakeCtx, hbs: &mut Vec<Heartbeat>) {
    if !hbs.is_empty() {
        ctx.stats.add_heartbeats(hbs.len() as u64);
        if let Some(liveness) = &ctx.liveness {
            liveness.note_heartbeats(hbs);
        }
        hbs.clear();
    }
}

/// Publish a `FrameReader`'s cumulative counters as deltas against what
/// was already published for this stream.
pub(crate) fn sync_reader(reader: &FrameReader, seen: &mut (u64, u64, u64), stats: &NetStats) {
    stats.add_decoded(
        reader.frames() - seen.0,
        reader.reports() - seen.1,
        reader.decode_errors() - seen.2,
    );
    *seen = (reader.frames(), reader.reports(), reader.decode_errors());
}

/// The socket front end: owns the bound socket(s), the intake threads, and
/// the bounded batch queue(s).
pub struct IngestServer {
    transport: Transport,
    mode: IngestMode,
    local_addr: SocketAddr,
    stats: Arc<NetStats>,
    queues: Arc<Vec<Arc<BatchQueue>>>,
    stop: Arc<StopSignal>,
    live: Arc<AtomicUsize>,
    intake: Vec<JoinHandle<()>>,
    /// TCP connection handlers, appended by the threaded accept loop
    /// (empty in reactor mode, where the event loops are the intake).
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Present when the config enabled liveness tracking.
    liveness: Option<Arc<LivenessHandle>>,
}

impl IngestServer {
    /// Bind and start the intake engine. Returns once the socket is
    /// listening; the actual bound address (with the OS-assigned port when
    /// the config used port 0) is [`IngestServer::local_addr`].
    pub fn bind(config: IngestConfig) -> io::Result<IngestServer> {
        let mode = config.mode.resolve()?;
        let shards = if config.robust.is_some() {
            config.verify_shards.max(1)
        } else {
            1
        };
        let stats = Arc::new(NetStats::default());
        let queues: Arc<Vec<Arc<BatchQueue>>> = Arc::new(
            (0..shards)
                .map(|_| Arc::new(BatchQueue::new(config.queue_reports)))
                .collect(),
        );
        let stop = Arc::new(StopSignal::new()?);
        let live = Arc::new(AtomicUsize::new(0));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let liveness = config.liveness.map(|lc| Arc::new(LivenessHandle::new(lc)));
        let ctx = IntakeCtx {
            stats: Arc::clone(&stats),
            queues: Arc::clone(&queues),
            stop: Arc::clone(&stop),
            batch_reports: config.batch_reports.max(1),
            liveness: liveness.clone(),
            push_deadline: config.push_deadline.max(Duration::from_millis(1)),
        };

        let (local_addr, mut intake) = match (config.transport, mode) {
            (Transport::Udp, IngestMode::Reactor) => {
                bind_reactor_udp(&config, ctx, Arc::clone(&live))?
            }
            (Transport::Tcp, IngestMode::Reactor) => {
                bind_reactor_tcp(&config, ctx, Arc::clone(&live))?
            }
            (Transport::Udp, IngestMode::Threaded) => {
                bind_threaded_udp(&config, ctx, Arc::clone(&live))?
            }
            (Transport::Tcp, IngestMode::Threaded) => {
                bind_threaded_tcp(&config, ctx, Arc::clone(&live), Arc::clone(&handlers))?
            }
            (_, IngestMode::Auto) => unreachable!("resolve() never returns Auto"),
        };

        if let Some(handle) = &liveness {
            intake.push(spawn_sweeper(
                Arc::clone(handle),
                Arc::clone(&stop),
                Arc::clone(&live),
            )?);
        }

        Ok(IngestServer {
            transport: config.transport,
            mode,
            local_addr,
            stats,
            queues,
            stop,
            live,
            intake,
            handlers,
            liveness,
        })
    }

    /// The transport this listener speaks.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// The resolved intake engine this listener runs.
    pub fn mode(&self) -> IngestMode {
        self.mode
    }

    /// The bound address (resolved port when the config asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// The liveness registry, when [`IngestConfig::liveness`] was set:
    /// publish active pairs, run deterministic sweeps, and read stale
    /// flags through this.
    pub fn liveness(&self) -> Option<Arc<LivenessHandle>> {
        self.liveness.clone()
    }

    /// Reports currently sitting in the bounded queue(s) (diagnostics).
    pub fn queued_reports(&self) -> usize {
        self.queues.iter().map(|q| q.queued_reports()).sum()
    }

    pub(crate) fn stats_arc(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    pub(crate) fn queues_arc(&self) -> Arc<Vec<Arc<BatchQueue>>> {
        Arc::clone(&self.queues)
    }

    /// Pop every currently queued batch into `out` (polled mode). The
    /// drained reports count as `verified` in the stats — the caller is
    /// the consumer now.
    pub fn try_drain(&self, out: &mut Vec<TagReport>) -> usize {
        let mut n = 0;
        loop {
            let mut got = false;
            for queue in self.queues.iter() {
                while let Some(batch) = queue.try_pop() {
                    got = true;
                    n += batch.len();
                    self.stats.add_verified(batch.len() as u64);
                    out.extend(batch);
                }
            }
            if !got {
                break;
            }
        }
        n
    }

    /// Block until at least `n` whole frames have been read off the wire,
    /// or the timeout passes. Lets tests and scenarios wait for in-flight
    /// loopback traffic without guessing at sleeps.
    pub fn wait_frames(&self, n: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.stats.frames.load(Ordering::Relaxed) >= n {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Signal intake to wind down: one level-triggered wake (the stop
    /// pipe) reaches every blocked wait at once; loops drain
    /// kernel-accepted bytes, flush partials, and exit.
    pub(crate) fn begin_stop(&self) {
        self.stop.stop();
    }

    pub(crate) fn intake_done(&self) -> bool {
        self.live.load(Ordering::Acquire) == 0
    }

    /// Join every intake thread. Call only when a consumer is draining (or
    /// has drained) the queue, otherwise a producer blocked on a full
    /// queue would block the join.
    pub(crate) fn join_intake(&mut self) {
        for handle in self.intake.drain(..) {
            let _ = handle.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().unwrap());
        for handle in handlers {
            let _ = handle.join();
        }
    }

    pub(crate) fn close_queue(&self) {
        for queue in self.queues.iter() {
            queue.close();
        }
    }

    /// Polled-mode shutdown: stop intake while *concurrently* draining the
    /// queue into `out`, so producers blocked on a full queue always make
    /// progress; then join, close, and take the final sweep. Afterwards the
    /// stats satisfy the conservation identity
    /// [`NetStatsSnapshot::conserved`].
    pub fn shutdown_polled(mut self, out: &mut Vec<TagReport>) -> NetStatsSnapshot {
        self.begin_stop();
        while !self.intake_done() {
            self.try_drain(out);
            thread::sleep(Duration::from_micros(500));
        }
        self.join_intake();
        self.close_queue();
        self.try_drain(out);
        self.stats.snapshot()
    }
}

/// The background staleness sweeper: wakes at a quarter of the window (so
/// a freshly-stale reporter is flagged well inside one extra window),
/// sleeping in short slices to notice the stop signal promptly. No final
/// sweep runs at shutdown — agents legitimately stop sending then, and a
/// parting sweep would flag every healthy reporter.
fn spawn_sweeper(
    handle: Arc<LivenessHandle>,
    stop: Arc<StopSignal>,
    live: Arc<AtomicUsize>,
) -> io::Result<JoinHandle<()>> {
    live.fetch_add(1, Ordering::Relaxed);
    let guard = LiveGuard(Arc::clone(&live));
    thread::Builder::new()
        .name("net-liveness".into())
        .spawn(move || {
            let _guard = guard;
            let interval = Duration::from_nanos(handle.window_ns() / 4)
                .clamp(Duration::from_millis(5), Duration::from_millis(250));
            let slice = Duration::from_millis(5);
            let mut next = Instant::now() + interval;
            while !stop.is_stopped() {
                thread::sleep(slice.min(next.saturating_duration_since(Instant::now())));
                if stop.is_stopped() {
                    break;
                }
                if Instant::now() >= next {
                    handle.sweep();
                    next = Instant::now() + interval;
                }
            }
        })
}

// ---------------------------------------------------------------- binding

#[cfg(target_os = "linux")]
fn bind_reactor_udp(
    config: &IngestConfig,
    ctx: IntakeCtx,
    live: Arc<AtomicUsize>,
) -> io::Result<(SocketAddr, Vec<JoinHandle<()>>)> {
    let socket = UdpSocket::bind(config.addr)?;
    let local = socket.local_addr()?;
    Ok((local, reactor::udp::spawn(socket, ctx, live)?))
}

#[cfg(not(target_os = "linux"))]
fn bind_reactor_udp(
    _config: &IngestConfig,
    _ctx: IntakeCtx,
    _live: Arc<AtomicUsize>,
) -> io::Result<(SocketAddr, Vec<JoinHandle<()>>)> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "reactor mode requires Linux epoll",
    ))
}

#[cfg(target_os = "linux")]
fn bind_reactor_tcp(
    config: &IngestConfig,
    ctx: IntakeCtx,
    live: Arc<AtomicUsize>,
) -> io::Result<(SocketAddr, Vec<JoinHandle<()>>)> {
    let listener = TcpListener::bind(config.addr)?;
    listener.set_nonblocking(true)?;
    reactor::deepen_backlog(&listener);
    let local = listener.local_addr()?;
    let loops = config.event_loops.max(1);
    Ok((local, reactor::tcp::spawn(listener, ctx, live, loops)?))
}

#[cfg(not(target_os = "linux"))]
fn bind_reactor_tcp(
    _config: &IngestConfig,
    _ctx: IntakeCtx,
    _live: Arc<AtomicUsize>,
) -> io::Result<(SocketAddr, Vec<JoinHandle<()>>)> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "reactor mode requires Linux epoll",
    ))
}

fn bind_threaded_udp(
    config: &IngestConfig,
    ctx: IntakeCtx,
    live: Arc<AtomicUsize>,
) -> io::Result<(SocketAddr, Vec<JoinHandle<()>>)> {
    let socket = UdpSocket::bind(config.addr)?;
    #[cfg(unix)]
    socket.set_nonblocking(true)?;
    #[cfg(not(unix))]
    socket.set_read_timeout(Some(READ_TIMEOUT))?;
    let local = socket.local_addr()?;
    let mut intake = Vec::new();
    for i in 0..config.recv_threads.max(1) {
        let socket = socket.try_clone()?;
        let ctx = ctx.clone();
        live.fetch_add(1, Ordering::Relaxed);
        let guard = LiveGuard(Arc::clone(&live));
        intake.push(
            thread::Builder::new()
                .name(format!("net-udp-{i}"))
                .spawn(move || {
                    let _guard = guard;
                    udp_loop(socket, ctx);
                })?,
        );
    }
    Ok((local, intake))
}

fn bind_threaded_tcp(
    config: &IngestConfig,
    ctx: IntakeCtx,
    live: Arc<AtomicUsize>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> io::Result<(SocketAddr, Vec<JoinHandle<()>>)> {
    let listener = TcpListener::bind(config.addr)?;
    listener.set_nonblocking(true)?;
    #[cfg(unix)]
    reactor::deepen_backlog(&listener);
    let local = listener.local_addr()?;
    live.fetch_add(1, Ordering::Relaxed);
    let guard = LiveGuard(Arc::clone(&live));
    let handle = thread::Builder::new()
        .name("net-accept".into())
        .spawn(move || {
            let _guard = guard;
            accept_loop(listener, ctx, live, handlers);
        })?;
    Ok((local, vec![handle]))
}

// Threaded engine, unix flavour: every socket is nonblocking and every
// thread parks in poll(2) on its socket plus the shared stop pipe — no
// timeouts, zero wakeups on a quiet server. The non-unix variants further
// below fall back to short read timeouts and count each timeout wake.

#[cfg(unix)]
fn accept_loop(
    listener: TcpListener,
    ctx: IntakeCtx,
    live: Arc<AtomicUsize>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let lfd = listener.as_raw_fd();
    let mut next_id = 0u64;
    let mut spawn_handler = |stream: TcpStream| {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        ctx.stats.add_connection();
        let conn_ctx = ctx.clone();
        live.fetch_add(1, Ordering::Relaxed);
        let guard = LiveGuard(Arc::clone(&live));
        let handle = thread::Builder::new()
            .name(format!("net-conn-{next_id}"))
            .spawn(move || {
                let _guard = guard;
                conn_loop(stream, conn_ctx);
            });
        next_id += 1;
        match handle {
            Ok(h) => handlers.lock().unwrap().push(h),
            Err(_) => ctx.stats.close_connection(),
        }
    };
    loop {
        if ctx.stop.is_stopped() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => spawn_handler(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                match readiness::wait_readable(lfd, &ctx.stop) {
                    Ok(w) => {
                        if w.stopped {
                            break;
                        }
                        if !w.readable {
                            ctx.stats.add_idle_wakeup();
                        }
                    }
                    Err(_) => return,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    // Final sweep: connections the kernel completed before the stop signal
    // count as accepted — hand them to (draining) handlers rather than
    // abandoning their bytes.
    while let Ok((stream, _peer)) = listener.accept() {
        spawn_handler(stream);
    }
}

#[cfg(unix)]
fn conn_loop(mut stream: TcpStream, ctx: IntakeCtx) {
    let fd = stream.as_raw_fd();
    let mut buf = vec![0u8; RECV_BUF_LEN];
    let mut reader = FrameReader::new();
    let mut batch: Vec<TagReport> = Vec::with_capacity(ctx.batch_reports);
    let mut hbs: Vec<Heartbeat> = Vec::new();
    let mut seen = (0u64, 0u64, 0u64);
    // On stop we keep reading: bytes already accepted by the kernel are
    // part of the drain contract. The loop ends at EOF or at the first
    // sustained quiet window after the stop signal.
    let mut draining = false;
    loop {
        if !draining && ctx.stop.is_stopped() {
            draining = true;
        }
        if draining {
            match readiness::readable_within(fd, DRAIN_QUIET_MS) {
                Ok(true) => {}
                _ => break,
            }
        } else {
            match readiness::readable_within(fd, 0) {
                Ok(true) => {}
                Ok(false) => {
                    // About to block: flush the partial batch first so idle
                    // periods do not hold reports hostage. A deadline-hit
                    // push means the verify side is gone — error out rather
                    // than keep reading for a dead pipeline.
                    if !flush_batch(&mut batch, &ctx, true) {
                        break;
                    }
                    match readiness::wait_readable(fd, &ctx.stop) {
                        Ok(w) => {
                            if w.stopped {
                                draining = true;
                            }
                            if !w.readable {
                                if !w.stopped {
                                    ctx.stats.add_idle_wakeup();
                                }
                                continue;
                            }
                        }
                        Err(_) => break,
                    }
                }
                Err(_) => break,
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => break, // clean EOF
            Ok(n) => {
                ctx.stats.add_stream_bytes(n);
                reader.push(&buf[..n]);
                reader.drain_into(&mut batch);
                sync_reader(&reader, &mut seen, &ctx.stats);
                drain_heartbeats(&mut reader, &ctx, &mut hbs);
                if reader.poisoned() {
                    // Framing lost: nothing downstream of this point can be
                    // trusted, drop the connection.
                    break;
                }
                if batch.len() >= ctx.batch_reports {
                    // Blocking push: queue pressure stalls this read loop
                    // and TCP flow control carries it back to the sender —
                    // but never past the push deadline.
                    if !flush_batch(&mut batch, &ctx, true) {
                        break;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    reader.finish();
    sync_reader(&reader, &mut seen, &ctx.stats);
    drain_heartbeats(&mut reader, &ctx, &mut hbs);
    flush_batch(&mut batch, &ctx, true);
    ctx.stats.close_connection();
}

#[cfg(unix)]
fn udp_loop(socket: UdpSocket, ctx: IntakeCtx) {
    let fd = socket.as_raw_fd();
    let mut buf = vec![0u8; RECV_BUF_LEN];
    let mut batch: Vec<TagReport> = Vec::with_capacity(ctx.batch_reports);
    let mut hbs: Vec<Heartbeat> = Vec::new();
    let mut draining = false;
    loop {
        if !draining && ctx.stop.is_stopped() {
            draining = true;
        }
        if draining {
            match readiness::readable_within(fd, DRAIN_QUIET_MS) {
                Ok(true) => {}
                _ => break,
            }
        } else {
            match readiness::readable_within(fd, 0) {
                Ok(true) => {}
                Ok(false) => {
                    flush_batch(&mut batch, &ctx, false);
                    match readiness::wait_readable(fd, &ctx.stop) {
                        Ok(w) => {
                            if w.stopped {
                                draining = true;
                            }
                            if !w.readable {
                                if !w.stopped {
                                    ctx.stats.add_idle_wakeup();
                                }
                                continue;
                            }
                        }
                        Err(_) => break,
                    }
                }
                Err(_) => break,
            }
        }
        match socket.recv(&mut buf) {
            Ok(n) => {
                ctx.stats.add_datagram(n);
                let before = batch.len();
                let summary = decode_datagram_full(&buf[..n], &mut batch, &mut hbs);
                ctx.stats.add_decoded(
                    summary.frames,
                    (batch.len() - before) as u64,
                    summary.decode_errors,
                );
                note_datagram_heartbeats(&ctx, &mut hbs);
                if batch.len() >= ctx.batch_reports {
                    flush_batch(&mut batch, &ctx, false);
                }
            }
            // Lost a recv race against a sibling loop on the cloned fd.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    flush_batch(&mut batch, &ctx, true);
}

// Non-unix: no poll(2); fall back to short read timeouts and count every
// timeout-driven wake in `NetStats::idle_wakeups`.

#[cfg(not(unix))]
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(not(unix))]
fn accept_loop(
    listener: TcpListener,
    ctx: IntakeCtx,
    live: Arc<AtomicUsize>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_id = 0u64;
    let mut spawn_handler = |stream: TcpStream| {
        if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        {
            return;
        }
        ctx.stats.add_connection();
        let conn_ctx = ctx.clone();
        live.fetch_add(1, Ordering::Relaxed);
        let guard = LiveGuard(Arc::clone(&live));
        let handle = thread::Builder::new()
            .name(format!("net-conn-{next_id}"))
            .spawn(move || {
                let _guard = guard;
                conn_loop(stream, conn_ctx);
            });
        next_id += 1;
        match handle {
            Ok(h) => handlers.lock().unwrap().push(h),
            Err(_) => ctx.stats.close_connection(),
        }
    };
    while !ctx.stop.is_stopped() {
        match listener.accept() {
            Ok((stream, _peer)) => spawn_handler(stream),
            Err(e) if is_timeout(&e) => {
                ctx.stats.add_idle_wakeup();
                thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    while let Ok((stream, _peer)) = listener.accept() {
        spawn_handler(stream);
    }
}

#[cfg(not(unix))]
fn conn_loop(mut stream: TcpStream, ctx: IntakeCtx) {
    let mut buf = vec![0u8; RECV_BUF_LEN];
    let mut reader = FrameReader::new();
    let mut batch: Vec<TagReport> = Vec::with_capacity(ctx.batch_reports);
    let mut hbs: Vec<Heartbeat> = Vec::new();
    let mut seen = (0u64, 0u64, 0u64);
    let mut draining = false;
    loop {
        if ctx.stop.is_stopped() {
            draining = true;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                ctx.stats.add_stream_bytes(n);
                reader.push(&buf[..n]);
                reader.drain_into(&mut batch);
                sync_reader(&reader, &mut seen, &ctx.stats);
                drain_heartbeats(&mut reader, &ctx, &mut hbs);
                if reader.poisoned() {
                    break;
                }
                if batch.len() >= ctx.batch_reports && !flush_batch(&mut batch, &ctx, true) {
                    break;
                }
            }
            Err(e) if is_timeout(&e) => {
                if !flush_batch(&mut batch, &ctx, true) {
                    break;
                }
                if draining {
                    break;
                }
                ctx.stats.add_idle_wakeup();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    reader.finish();
    sync_reader(&reader, &mut seen, &ctx.stats);
    drain_heartbeats(&mut reader, &ctx, &mut hbs);
    flush_batch(&mut batch, &ctx, true);
    ctx.stats.close_connection();
}

#[cfg(not(unix))]
fn udp_loop(socket: UdpSocket, ctx: IntakeCtx) {
    let mut buf = vec![0u8; RECV_BUF_LEN];
    let mut batch: Vec<TagReport> = Vec::with_capacity(ctx.batch_reports);
    let mut hbs: Vec<Heartbeat> = Vec::new();
    loop {
        match socket.recv(&mut buf) {
            Ok(n) => {
                ctx.stats.add_datagram(n);
                let before = batch.len();
                let summary = decode_datagram_full(&buf[..n], &mut batch, &mut hbs);
                ctx.stats.add_decoded(
                    summary.frames,
                    (batch.len() - before) as u64,
                    summary.decode_errors,
                );
                note_datagram_heartbeats(&ctx, &mut hbs);
                if batch.len() >= ctx.batch_reports {
                    flush_batch(&mut batch, &ctx, false);
                }
            }
            Err(e) if is_timeout(&e) => {
                flush_batch(&mut batch, &ctx, false);
                if ctx.stop.is_stopped() {
                    break;
                }
                ctx.stats.add_idle_wakeup();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    flush_batch(&mut batch, &ctx, true);
}

// ---------------------------------------------------------------- pumps

/// The consumer side: long-lived `net-verify-{i}` threads that pop whole
/// batches off the listener's queue(s) and verify them inline against a
/// pinned RCU snapshot, with the `VeriDpServer` held back until
/// [`VerifyPump::join`] absorbs what each worker accumulated. Each worker
/// keeps a private ingest-latency histogram so every pipeline's percentiles
/// are self-contained (the global obs histogram is cumulative across all
/// pipelines in the process).
pub struct VerifyPump<B: HeaderSetBackend> {
    server: VeriDpServer<B>,
    workers: Vec<JoinHandle<(Worker<B>, LocalHistogram, u64)>>,
    /// Plain mode switched snapshots on for its readers; `join` hands the
    /// server back the way it came.
    restore_snapshots_off: bool,
}

/// What a joined pump hands back.
pub struct PumpOutput<B: HeaderSetBackend> {
    /// The `VeriDpServer`, with every worker's results absorbed.
    pub server: VeriDpServer<B>,
    /// Per-report ingest latency across every worker thread.
    pub latency: LocalHistogram,
    /// Reports verified per shard (empty in plain mode).
    pub shard_verified: Vec<u64>,
}

/// One verify worker's private state: nothing here is shared, so a batch
/// costs no lock beyond the queue pop.
enum Worker<B: HeaderSetBackend> {
    /// A snapshot reader (with its own verdict cache) counting into its own
    /// stats block.
    Plain {
        reader: ReaderHandle<B>,
        stats: ServerStats,
    },
    /// The full robust path with all pair-keyed state shard-local.
    Robust(Box<RobustWorker<B>>),
}

impl<B: HeaderSetBackend> Worker<B> {
    /// Verify one whole batch on this thread, under one snapshot pin.
    fn ingest(&mut self, batch: &[TagReport]) {
        match self {
            Worker::Plain { reader, stats } => {
                stats.merge(&ServerStats::from(&reader.verify_summary(batch, 1)));
            }
            Worker::Robust(worker) => worker.ingest_batch(batch),
        }
    }
}

impl<B: HeaderSetBackend> VerifyPump<B> {
    /// Attach the verify workers to a listener's queue(s): with `robust`
    /// set, robust mode on the server and one `RobustWorker` per shard
    /// queue; otherwise `verify_threads` snapshot readers on the single
    /// queue. Workers pin an RCU snapshot per batch, so the server (held
    /// here until [`VerifyPump::join`]) stays free for concurrent churn.
    /// `poison` is the countdown of [`IngestConfig::poison_after`]. Fails,
    /// before any thread starts, when the snapshot reader slots run out.
    pub fn spawn(
        listener: &IngestServer,
        mut server: VeriDpServer<B>,
        robust: Option<RobustConfig>,
        verify_threads: usize,
        poison: Option<Arc<AtomicI64>>,
    ) -> io::Result<Self> {
        let queues = listener.queues_arc();
        let sharded = robust.is_some();
        let restore_snapshots_off = !sharded && !server.snapshots_enabled();
        let mut count = verify_threads.max(1);
        if sharded {
            server.set_robust(robust);
            count = queues.len();
        }
        server.set_snapshots(true);
        let worker = |i| {
            if sharded {
                let mut worker = server.robust_worker()?;
                worker.set_shard(i);
                Some(Worker::Robust(Box::new(worker)))
            } else {
                let stats = ServerStats::default();
                let reader = server.snapshot_reader()?;
                Some(Worker::Plain { reader, stats })
            }
        };
        let workers: Option<Vec<Worker<B>>> = (0..count).map(worker).collect();
        let workers = workers.ok_or_else(|| {
            let what = "more verify workers than the snapshot layer has reader slots";
            io::Error::new(io::ErrorKind::InvalidInput, what)
        })?;
        let stats = listener.stats_arc();
        let workers = workers
            .into_iter()
            .enumerate()
            .map(|(i, worker)| {
                // Robust worker `i` owns shard queue `i`; plain ones share queue 0.
                let queue = Arc::clone(&queues[i % queues.len()]);
                let stats = Arc::clone(&stats);
                let poison = poison.clone();
                thread::Builder::new()
                    .name(format!("net-verify-{i}"))
                    .spawn(move || worker_loop(worker, queue, stats, poison))
                    .expect("spawn verify worker")
            })
            .collect();
        Ok(VerifyPump {
            server,
            workers,
            restore_snapshots_off,
        })
    }

    /// Wait for the workers to exit (once the queues are closed and drained)
    /// and take the `VeriDpServer` back, every worker's results absorbed.
    pub fn join(self) -> PumpOutput<B> {
        let mut server = self.server;
        let mut latency = LocalHistogram::new();
        let mut shard_verified = Vec::new();
        for handle in self.workers {
            let (worker, lat, verified) = handle.join().expect("verify worker panicked");
            match worker {
                Worker::Plain { stats, .. } => server.absorb_stats(&stats),
                Worker::Robust(worker) => {
                    server.absorb(worker.harvest());
                    shard_verified.push(verified);
                }
            }
            latency.merge(&lat);
        }
        if self.restore_snapshots_off {
            server.set_snapshots(false);
        }
        PumpOutput {
            server,
            latency,
            shard_verified,
        }
    }
}

/// Supervise one batch ingest: catch a panic, count a restart + the
/// replayed reports, and retry the batch once. The worker's own state
/// (verdict cache, and on the robust path dedup filter, grace, alarms)
/// lives on the same thread and survives; the retry re-pins a fresh RCU
/// snapshot because workers pin per batch — which is the whole restart
/// story: fresh snapshot, same accumulated state, same verdicts. A second
/// panic on the same batch is a real bug and propagates.
fn supervised<T>(stats: &NetStats, batch_len: u64, mut f: impl FnMut() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(&mut f)) {
        Ok(v) => v,
        Err(_) => {
            stats.add_worker_restart(batch_len);
            obs::event!(
                "worker_restart",
                "verify worker panicked; restarted and replaying {batch_len} reports"
            );
            match catch_unwind(AssertUnwindSafe(&mut f)) {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            }
        }
    }
}

/// The one verify loop, plain or robust: pop a whole batch, ingest it
/// supervised, account it; exit once the queue is closed and drained.
fn worker_loop<B: HeaderSetBackend>(
    mut worker: Worker<B>,
    queue: Arc<BatchQueue>,
    stats: Arc<NetStats>,
    poison: Option<Arc<AtomicI64>>,
) -> (Worker<B>, LocalHistogram, u64) {
    let mut lat = LocalHistogram::new();
    let mut verified = 0u64;
    while let Pop::Batch(batch) = queue.pop_wait() {
        let t0 = Instant::now();
        supervised(&stats, batch.len() as u64, || {
            // Injected poison panics exactly once, when the countdown
            // crosses 1 → 0 — *before* any ingest work touches worker
            // state, so the supervised retry runs against a clean slate and
            // produces the verdicts an uninterrupted run would.
            if poison
                .as_ref()
                .is_some_and(|p| p.fetch_sub(1, Ordering::SeqCst) == 1)
            {
                panic!("injected verify-worker poison");
            }
            worker.ingest(&batch);
        });
        let per_report = t0.elapsed().as_nanos() as u64 / batch.len().max(1) as u64;
        lat.record(per_report);
        verified += batch.len() as u64;
        stats.add_verified(batch.len() as u64);
    }
    obs::histogram!("veridp_net_ingest_report_ns").merge_local(&lat);
    (worker, lat, verified)
}

/// Listener + pump, bundled. Build with [`serve`].
pub struct IngestPipeline<B: HeaderSetBackend> {
    listener: IngestServer,
    pump: Option<VerifyPump<B>>,
}

/// Bind a listener per `config` and attach the verify workers sharing
/// `server`'s published snapshots: [`IngestConfig::verify_threads`] plain
/// ones, or — with [`IngestConfig::robust`] set — one `RobustWorker` per
/// shard. Fails like [`IngestServer::bind`], or with `InvalidInput` when
/// the workers outnumber the snapshot layer's reader slots.
pub fn serve<B: HeaderSetBackend>(
    config: IngestConfig,
    server: VeriDpServer<B>,
) -> io::Result<IngestPipeline<B>> {
    let verify_threads = config.verify_threads;
    let robust = config.robust.clone();
    let poison = config
        .poison_after
        .map(|n| Arc::new(AtomicI64::new(n.max(1) as i64)));
    let listener = IngestServer::bind(config)?;
    let pump = match VerifyPump::spawn(&listener, server, robust, verify_threads, poison) {
        Ok(pump) => Some(pump),
        Err(e) => {
            // No worker started; stop the intake threads `bind` did start.
            listener.shutdown_polled(&mut Vec::new());
            return Err(e);
        }
    };
    Ok(IngestPipeline { listener, pump })
}

impl<B: HeaderSetBackend> IngestPipeline<B> {
    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The listener's transport.
    pub fn transport(&self) -> Transport {
        self.listener.transport()
    }

    /// The resolved intake engine the listener runs.
    pub fn mode(&self) -> IngestMode {
        self.listener.mode()
    }

    /// Point-in-time counters (no latency histogram until shutdown).
    pub fn stats(&self) -> NetStatsSnapshot {
        self.listener.stats()
    }

    /// Shared handle to the live counters — for scrape endpoints that read
    /// stats from another thread while the pipeline keeps running.
    pub fn stats_arc(&self) -> Arc<NetStats> {
        self.listener.stats_arc()
    }

    /// The liveness registry (see [`IngestServer::liveness`]).
    pub fn liveness(&self) -> Option<Arc<LivenessHandle>> {
        self.listener.liveness()
    }

    /// Block until `n` frames arrived or `timeout` passed (see
    /// [`IngestServer::wait_frames`]).
    pub fn wait_frames(&self, n: u64, timeout: Duration) -> bool {
        self.listener.wait_frames(n, timeout)
    }

    /// Drain-then-stop: stop intake (one level-triggered wake), let intake
    /// read kernel-accepted bytes until quiet and flush partial batches
    /// (the pumps keep draining, so blocking pushes land), join intake,
    /// close the queues, and join the pumps after they empty them. Every
    /// report decoded off the wire has been verified or counted shed when
    /// this returns — the snapshot satisfies
    /// [`NetStatsSnapshot::conserved`], across every shard.
    pub fn shutdown(mut self) -> (VeriDpServer<B>, NetStatsSnapshot) {
        self.listener.begin_stop();
        while !self.listener.intake_done() {
            thread::sleep(Duration::from_micros(500));
        }
        self.listener.join_intake();
        self.listener.close_queue();
        let out = self.pump.take().expect("pump already joined").join();
        let mut server = out.server;
        // Surface silence-implicated reporters next to the report-driven
        // alarms: every stale flag the liveness sweeper raised during the
        // run rides home on the server's alarm aggregator.
        if let Some(liveness) = self.listener.liveness() {
            if let Some(robust) = server.robust_mut() {
                for stale in liveness.stale_log() {
                    robust.alarms.note_stale(stale);
                }
            }
        }
        let mut snap = self.listener.stats();
        if out.latency.count() > 0 {
            snap.ingest_latency = Some(out.latency.snapshot());
        }
        snap.shard_verified = out.shard_verified;
        (server, snap)
    }
}
