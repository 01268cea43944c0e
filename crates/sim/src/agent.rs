//! The switch-side report agent: ships tag reports to a VeriDP server over
//! a real socket, with the chaos knobs applied *at the send side*.
//!
//! [`crate::ReportChannel`] simulates a hostile report path in process;
//! [`SwitchAgent`] moves the same seeded misbehaviour onto an actual wire.
//! Drop means the frame is never written; duplicate means it is framed
//! twice; corrupt means 1–3 bits of the encoded report payload are flipped
//! before framing, so the *server's* checksum — not a simulated decoder —
//! has to catch it. What survives then crosses a real UDP or TCP loopback
//! socket into an [`veridp_net::IngestServer`], exercising datagram
//! packing, stream reassembly, backpressure, and shed accounting end to
//! end.
//!
//! [`SwitchAgent::connect_resilient`] swaps the plain sender for a
//! [`ResilientSender`], adding the self-healing chaos dimension: the
//! harness can [`sever`](SwitchAgent::sever) the connection mid-stream and
//! the agent reconnects with seeded backoff, replays its resend ring, and
//! re-announces its identity heartbeat — the server's robust dedup then
//! collapses the replayed duplicates back to exactly-once verdicts.

use std::io;
use std::net::ToSocketAddrs;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veridp_net::{ClientStats, NetSender, ResilientConfig, ResilientSender, Transport};
use veridp_obs as obs;
use veridp_packet::{encode_report, TagReport};

use crate::chaos::{ChaosConfig, ChaosStats};

/// The wire under the agent: plain (a sever would be fatal) or resilient
/// (severs heal by reconnect + replay).
#[derive(Debug)]
enum Link {
    Plain(NetSender),
    // Boxed: the resilient sender carries its resend ring + backoff state
    // and would otherwise dominate the enum's footprint.
    Resilient(Box<ResilientSender>),
}

impl Link {
    fn send_report(&mut self, r: &TagReport) -> io::Result<()> {
        match self {
            Link::Plain(s) => s.send_report(r),
            Link::Resilient(s) => s.send_report(r),
        }
    }

    fn send_frame_payload(&mut self, payload: &[u8]) -> io::Result<()> {
        match self {
            Link::Plain(s) => s.send_frame_payload(payload),
            Link::Resilient(s) => s.send_frame_payload(payload),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Link::Plain(s) => s.flush(),
            Link::Resilient(s) => s.flush(),
        }
    }

    fn stats(&self) -> ClientStats {
        match self {
            Link::Plain(s) => s.stats(),
            Link::Resilient(s) => s.stats(),
        }
    }

    fn finish(self) -> io::Result<ClientStats> {
        match self {
            Link::Plain(s) => s.finish(),
            Link::Resilient(s) => s.finish(),
        }
    }
}

/// A report sender with seeded drop/duplicate/corrupt faults applied
/// before the bytes hit the socket.
#[derive(Debug)]
pub struct SwitchAgent {
    link: Link,
    config: ChaosConfig,
    rng: StdRng,
    stats: ChaosStats,
}

impl SwitchAgent {
    /// Connect to a listener and seed the chaos stream from
    /// `config.seed`. A config with all rates at zero is a faithful agent.
    pub fn connect(
        transport: Transport,
        addr: impl ToSocketAddrs,
        config: ChaosConfig,
    ) -> io::Result<SwitchAgent> {
        let rng = StdRng::seed_from_u64(config.seed ^ 0xa9e47);
        Ok(SwitchAgent {
            link: Link::Plain(NetSender::connect(transport, addr)?),
            config,
            rng,
            stats: ChaosStats::default(),
        })
    }

    /// Connect through a [`ResilientSender`]: the agent then survives
    /// [`SwitchAgent::sever`] by reconnecting (seeded backoff) and
    /// replaying its resend ring, and announces `resilient.identity` with
    /// a heartbeat on every (re)connect.
    pub fn connect_resilient(
        transport: Transport,
        addr: impl ToSocketAddrs,
        config: ChaosConfig,
        resilient: ResilientConfig,
    ) -> io::Result<SwitchAgent> {
        let rng = StdRng::seed_from_u64(config.seed ^ 0xa9e47);
        Ok(SwitchAgent {
            link: Link::Resilient(Box::new(ResilientSender::connect(
                transport, addr, resilient,
            )?)),
            config,
            rng,
            stats: ChaosStats::default(),
        })
    }

    /// Submit one report. Depending on the seeded dice it is dropped,
    /// corrupted, duplicated, or sent faithfully; whatever goes out is
    /// buffered in the underlying sender until the next flush.
    pub fn send(&mut self, report: &TagReport) -> io::Result<()> {
        self.stats.emitted += 1;
        obs::counter!("veridp_chaos_emitted_total").inc();
        if self.rng.gen_bool(self.config.loss_prob()) {
            self.stats.dropped += 1;
            obs::counter!("veridp_chaos_dropped_total").inc();
            return Ok(());
        }
        let corrupted = self.rng.gen_bool(self.config.corrupt_prob());
        let copies = if self.rng.gen_bool(self.config.dup_prob()) {
            self.stats.duplicated += 1;
            obs::counter!("veridp_chaos_duplicated_total").inc();
            2
        } else {
            1
        };
        if corrupted {
            self.stats.corrupted += 1;
            obs::counter!("veridp_chaos_corrupted_total").inc();
            let mut frame = encode_report(report).to_vec();
            let flips = self.rng.gen_range(1..=3usize);
            for _ in 0..flips {
                let bit = self.rng.gen_range(0..frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            for _ in 0..copies {
                self.link.send_frame_payload(&frame)?;
            }
        } else {
            for _ in 0..copies {
                self.link.send_report(report)?;
            }
        }
        Ok(())
    }

    /// Push everything buffered onto the wire.
    pub fn flush(&mut self) -> io::Result<()> {
        self.link.flush()
    }

    /// Chaos hook (resilient link only; a no-op on a plain one): flush,
    /// then drop the connection so the next send exercises the
    /// reconnect-and-replay path.
    pub fn sever(&mut self) -> io::Result<()> {
        match &mut self.link {
            Link::Plain(_) => Ok(()),
            Link::Resilient(s) => s.sever(),
        }
    }

    /// Times the resilient link rebuilt its connection (0 on plain).
    pub fn reconnects(&self) -> u64 {
        match &self.link {
            Link::Plain(_) => 0,
            Link::Resilient(s) => s.reconnects(),
        }
    }

    /// Reports re-shipped by ring replay (0 on plain).
    pub fn replayed(&self) -> u64 {
        match &self.link {
            Link::Plain(_) => 0,
            Link::Resilient(s) => s.replayed(),
        }
    }

    /// Whole frames put on the wire so far (post-chaos: drops excluded,
    /// duplicates counted twice, replays and heartbeats included). This is
    /// what the server's `frames` counter converges to on a lossless
    /// transport.
    pub fn frames_sent(&self) -> u64 {
        self.link.stats().frames_sent
    }

    /// Chaos accounting so far. `rejected`/`delivered` stay zero here —
    /// those outcomes happen on the server side of the wire.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Flush, close the stream (TCP half-close), and return both sides of
    /// the accounting: what chaos did and what actually got sent.
    pub fn finish(mut self) -> io::Result<(ChaosStats, ClientStats)> {
        self.stats.reconnects = self.reconnects();
        self.stats.replayed = self.replayed();
        let client = self.link.finish()?;
        Ok((self.stats, client))
    }
}
