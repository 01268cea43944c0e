//! Network-facing report ingest: the socket front end between real switch
//! agents and the VeriDP verification pipeline.
//!
//! The paper's monitoring server receives tag reports from switches over
//! plain UDP (§5); everything in this reproduction used to hand reports to
//! [`veridp_core::VeriDpServer`] in-process. This crate puts an actual wire
//! between the two endpoints, zero-dependency over nonblocking
//! `std::net` sockets plus a raw-syscall epoll shim:
//!
//! * [`IngestServer`] — the listener, behind two interchangeable intake
//!   engines selected by [`IngestMode`]. On Linux the default is an
//!   **epoll reactor**: a small fixed pool of event-loop threads
//!   multiplexing every TCP connection (or the UDP socket) through
//!   level-triggered readiness — nonblocking accept/read, no timers, no
//!   thread-per-connection, so thousands of agents cost a handful of
//!   threads. Elsewhere (or with `VERIDP_NET_MODE=threaded`) a portable
//!   **threaded** engine runs one handler thread per connection, parked in
//!   `poll(2)` on its socket and a shared stop pipe — still zero wakeups
//!   on a quiet server ([`NetStats::idle_wakeups`] gates this). UDP
//!   datagrams pack whole length-prefixed report frames
//!   ([`veridp_packet::decode_datagram`]); TCP connections carry the same
//!   frames as a stream decoded by [`veridp_packet::FrameReader`].
//!   Decoding is zero-copy off the recv buffers, batches accumulate up to
//!   a configured size (partials flush the moment a read drains to
//!   would-block), and completed batches land in bounded queues with
//!   explicit backpressure: TCP producers *block* (the kernel's flow
//!   control then pushes back to the sender), UDP producers *shed* —
//!   counted in [`NetStats`], never silent, the same contract as
//!   `veridp_core::robust`'s quarantine overflow.
//! * [`VerifyPump`] / [`serve`] — the consumer side: a fixed pool of
//!   long-lived verify workers, each popping whole batches and verifying
//!   them inline against a pinned RCU snapshot with worker-private caches
//!   and counters. Without [`IngestConfig::robust`]:
//!   [`IngestConfig::verify_threads`] workers share the one queue. With
//!   it: intake shards every batch by `(inport, outport)` pair and one
//!   `RobustWorker` per shard runs the full robust path (dedup, epoch
//!   grace, quarantine, alarm confirmation), all pair-keyed state
//!   shard-local. [`serve`] wires listener + workers into an
//!   [`IngestPipeline`] whose [`shutdown`](IngestPipeline::shutdown)
//!   performs the drain-then-stop dance: intake stops first, the queues
//!   are closed, the workers drain them to empty, their harvests are
//!   absorbed back into the server, and only then does the call return —
//!   every accepted frame is either verified or counted as shed.
//! * [`NetSender`] — the client half: connect over either transport, buffer
//!   framed reports, flush as full datagrams / stream writes. The
//!   simulator's `SwitchAgent` wraps this to ship reports from simulated
//!   switches over real loopback sockets.
//! * **Self-healing** — the monitoring plane monitors itself and survives
//!   its own failures. [`ResilientSender`] wraps the client with
//!   seeded full-jitter reconnect backoff, a bounded resend ring replayed
//!   on reconnect (at-least-once on the wire; the server's robust dedup
//!   makes verdicts exactly-once), and idle-timer [`veridp_packet::Heartbeat`]
//!   emission. Server-side, [`IngestConfig::liveness`] attaches a
//!   [`LivenessHandle`] freshness registry + background sweeper that flags
//!   reporters whose silence outlives the staleness window (dead agents
//!   are otherwise *invisible* to passive verification), verify workers
//!   run supervised (a panic is caught, counted, and the batch replayed
//!   against a fresh RCU snapshot), and blocking queue pushes carry a
//!   deadline ([`IngestConfig::push_deadline`]) so a dead consumer turns
//!   into counted `push_timeouts` instead of a wedged intake thread.
//!
//! Accounting is conservation-based end to end. With `frames` counted as
//! whole frames read off the wire:
//!
//! ```text
//! frames  == reports + (decode_errors - torn_or_poisoned_streams)
//! reports == enqueued + shed
//! enqueued == verified            (after IngestPipeline::shutdown)
//! ```
//!
//! and [`NetStatsSnapshot::conserved`] checks the report-level identity —
//! the invariant the loopback soak and the drain tests gate on.

mod client;
mod liveness;
mod queue;
mod reactor;
mod resilient;
mod server;
mod stats;

pub use client::{ClientStats, NetSender};
pub use liveness::LivenessHandle;
pub use resilient::{BackoffConfig, ReconnectBackoff, ResilientConfig, ResilientSender};
pub use server::{
    serve, IngestConfig, IngestMode, IngestPipeline, IngestServer, PumpOutput, VerifyPump,
};
pub use stats::{NetStats, NetStatsSnapshot};

/// Which transport a listener or sender speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Datagrams; each packs whole length-prefixed report frames. Lossy by
    /// nature: overflow at the bounded queue sheds (counted).
    Udp,
    /// A length-prefixed frame stream per connection. Lossless end to end:
    /// queue pressure blocks the reader, and TCP flow control propagates
    /// the backpressure to the sending agent.
    Tcp,
}

impl Transport {
    /// Lowercase name, as used in CLI flags and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "udp" => Ok(Transport::Udp),
            "tcp" => Ok(Transport::Tcp),
            other => Err(format!("unknown transport {other:?} (use udp|tcp)")),
        }
    }
}

#[cfg(test)]
mod tests;
