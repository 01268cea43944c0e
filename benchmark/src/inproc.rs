//! The in-process workloads: `verify_inproc` (core alone, no socket) and
//! `churn_bdd` / `churn_atoms` (rule updates beside a verifying reader).

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

use crate::common::{self, RunArgs};
use crate::json::Json;
use crate::metrics::Outcome;
use crate::procfs;
use crate::rng::Rng;
use crate::stats;
use crate::stream::{self, Sub};
use crate::sut::{Backend, Bdd, Counts, Net, Reader, Report, Sut, Verdict};
use crate::trace::Tracer;

/// Reports per `ingest_batch` call, the wire pipeline's batch size.
const CHUNK: usize = 1024;
/// Failing reports timed through `verify_and_localize` in a run.
const LOCALIZE_SAMPLE: usize = 4000;
/// Witnesses per path entry in the churn reader's battery: ≈1 k reports a
/// call on Internet2's 130 paths, a batch like the wire pipeline's.
const BATTERY_PER_ENTRY: usize = 8;
/// The updates a churn run times: the first of the sequence bring the live
/// churn rules up to their working number and are skipped. An update costs
/// more the more updates the table has seen (atoms refinement is
/// append-only, the BDD store grows too), so the sample is a range of the
/// sequence and not a stretch of time: the same updates on a fast machine
/// and on a slow one. On atoms, about half the updates take 3 ms and the
/// others fifty times that, so a median over a different mix would flip
/// between the two.
const CHURN_SKIP: usize = 8;

/// A churn workload: its name and how many updates it times.
pub struct ChurnSpec {
    pub name: &'static str,
    sample: usize,
}

pub const CHURN_BDD: ChurnSpec = ChurnSpec {
    name: "churn_bdd",
    sample: 2000,
};
pub const CHURN_ATOMS: ChurnSpec = ChurnSpec {
    name: "churn_atoms",
    sample: 100,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

fn write_trace(args: &RunArgs, workload: &str, tracer: &Tracer) {
    if let Some(path) = &args.trace_path {
        let doc = Json::obj([("workload", Json::str(workload)), ("run", tracer.to_json())]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

// ------------------------------------------------------------ verify_inproc

/// The stream and the oracle's verdicts: made once from the seed, before
/// any set-up is timed.
struct VerifyInputs {
    sub: Sub,
    /// The failing reports, each with the oracle's verdict.
    failing: Vec<(Report, Verdict)>,
    scan_ns_per_report: f64,
    checksum: u64,
    inputs_s: f64,
}

fn verify_inputs(seed: u64) -> VerifyInputs {
    let t0 = Instant::now();
    let sut = Sut::<Bdd>::build(Net::Stanford);
    let mut rng = Rng::new(seed);
    let passing = sut.witness_reports(stream::WIDE_PER_ENTRY, &rng.fork(2), false);
    let mut wrong = Vec::new();
    let mut fail_rng = rng.fork(3);
    let reports = stream::wide(
        passing,
        |want| {
            wrong = sut.wrong_port_reports(want, &mut fail_rng);
            wrong.clone()
        },
        &mut rng,
    );
    let (verdicts, scan_ns_per_report) = sut.oracle(&reports);
    let (wrong_verdicts, _) = sut.oracle(&wrong);
    let checksum = stream::checksum(&reports);
    let duplicate = vec![false; reports.len()];
    VerifyInputs {
        sub: Sub::new(reports, &verdicts, &duplicate),
        failing: wrong.into_iter().zip(wrong_verdicts).collect(),
        scan_ns_per_report,
        checksum,
        inputs_s: t0.elapsed().as_secs_f64(),
    }
}

struct Verifier<'a> {
    sut: Sut<Bdd>,
    inputs: &'a VerifyInputs,
    /// Reports ingested so far; the stream position is this modulo its
    /// length.
    ingested: u64,
    /// Verdicts `ingest_batch` returned for them.
    seen: Counts,
}

/// The set-up that `setup_s` times: topology, rules, path table, and a
/// first batch verified, which builds the tag index.
fn prepare_verifier(inputs: &VerifyInputs) -> Verifier<'_> {
    let mut v = Verifier {
        sut: Sut::<Bdd>::build(Net::Stanford),
        inputs,
        ingested: 0,
        seen: Counts::default(),
    };
    v.ingest_next(&mut None);
    v
}

impl Verifier<'_> {
    /// The next chunk of the stream through `ingest_batch`; returns its
    /// length.
    fn ingest_next(&mut self, tracer: &mut Option<Tracer>) -> usize {
        let reports = &self.inputs.sub.reports;
        let pos = (self.ingested % reports.len() as u64) as usize;
        let chunk = &reports[pos..(pos + CHUNK).min(reports.len())];
        let span = tracer
            .as_mut()
            .map(|t| t.begin("verify", None, self.ingested));
        let counts = self.sut.ingest(chunk);
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.end(s);
        }
        self.ingested += chunk.len() as u64;
        self.seen.merge(&counts);
        chunk.len()
    }

    /// Ingest for a warm-up and `seconds`; returns the rate over the
    /// measured windows and the µs each measured `ingest_batch` call took.
    fn measure(&mut self, seconds: f64, tracer: &mut Option<Tracer>) -> (common::Rate, Vec<f64>) {
        let start = Instant::now();
        let window = common::window(seconds);
        let mut next_edge = start + common::warmup(seconds);
        let end = next_edge + Duration::from_secs_f64(seconds);
        let mut edges = Vec::new();
        let mut batch_us = Vec::new();
        let mut now = start;
        loop {
            if now >= next_edge {
                edges.push((now, self.ingested));
                next_edge += window;
                if now >= end {
                    break;
                }
            }
            let len = self.ingest_next(tracer);
            let done = Instant::now();
            // The stream's last chunk is short; its time is no batch time.
            if !edges.is_empty() && len == CHUNK {
                batch_us.push((done - now).as_secs_f64() * 1e6);
            }
            now = done;
        }
        (common::rate(&edges), batch_us)
    }

    /// `verify_and_localize` over the failing sample, each call timed.
    /// Returns µs per call and the verdicts differing from the oracle.
    fn localize(&mut self, tracer: &mut Option<Tracer>) -> (Vec<f64>, u64) {
        let mut us = Vec::with_capacity(LOCALIZE_SAMPLE);
        let mut wrong = 0;
        for (i, (r, verdict)) in self.inputs.failing.iter().take(LOCALIZE_SAMPLE).enumerate() {
            let span = tracer.as_mut().map(|t| t.begin("localize", None, i as u64));
            let t0 = Instant::now();
            let (v, _suspects) = self.sut.verify_and_localize(r);
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                t.end(s);
            }
            wrong += u64::from(v != *verdict);
        }
        (us, wrong)
    }
}

pub fn verify_inproc(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let inputs = verify_inputs(args.seed);
    let reps = common::setup_reps(SETUP_REPS, args.seconds);
    let (mut v, setup_s) = common::repeated_setup(reps, || prepare_verifier(&inputs), drop);
    let table = v.sut.table_size();
    out.note("network", Json::str(v.sut.net.name()));
    out.note("backend", Json::str(v.sut.backend_name()));
    out.note("stream_reports", Json::Int(inputs.sub.reports.len() as i64));
    out.note(
        "stream_checksum",
        Json::str(format!("{:016x}", inputs.checksum)),
    );
    out.note("failing_reports", Json::Int(inputs.failing.len() as i64));
    out.note("inputs_s", Json::Num(inputs.inputs_s));

    let mut tracer = None;
    let untraced_rate = if args.trace {
        // A first stretch untraced, for the tracing overhead.
        let (rate, _) = v.measure(args.seconds * 0.3, &mut tracer);
        tracer = Some(Tracer::new());
        Some(rate.median)
    } else {
        None
    };
    let ingested_untraced = v.ingested;
    let seconds = if args.trace {
        args.seconds * 0.5
    } else {
        args.seconds
    };
    let (rate, batch_us) = v.measure(seconds, &mut tracer);
    let before = v.sut.stats();
    let (localize_us, wrong_verdicts) = v.localize(&mut tracer);
    let after = v.sut.stats();

    // Every report ingested since the build has its oracle verdict, in the
    // batch summaries and in the server's statistics alike.
    let expect = inputs.sub.expect(v.ingested).verdicts;
    let failed = expect
        .distance(&before.verdicts)
        .max(expect.distance(&v.seen))
        + wrong_verdicts;
    if failed > 0 {
        eprintln!(
            "verify_inproc: CHECK FAILED: {failed} verdicts differ from the oracle \
             (expected {expect:?}, summaries {:?}, statistics {:?})",
            v.seen, before.verdicts
        );
    }
    out.attempted = v.ingested + localize_us.len() as u64;
    out.failed = failed;

    let lat = stats::timing(&batch_us);
    if !args.trace {
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        m.set("reports_per_s", rate.median);
        m.set("latency_p50_us", lat.p50);
        m.set("latency_p90_us", lat.p90);
        m.set(
            "delivered_frac",
            before.verdicts.total() as f64 / v.ingested as f64,
        );
        out.note("reports_per_s_windows", rate.to_json());
        out.note("latency_us", common::timing_json(&lat));
        out.note(
            "localize_us",
            common::timing_json(&stats::timing(&localize_us)),
        );
        return out;
    }
    let tracer = tracer.expect("traced run has a tracer");
    let m = &mut out.metrics;
    let traced_reports = (v.ingested - ingested_untraced).max(1) as f64;
    m.set(
        "core.verify.ns_per_report",
        tracer.self_ns("verify") as f64 / traced_reports,
    );
    m.set("core.verify.scan_ns_per_report", inputs.scan_ns_per_report);
    let lookups = (before.cache_hits + before.cache_misses).max(1) as f64;
    m.set(
        "core.fastpath.hit_ratio",
        before.cache_hits as f64 / lookups,
    );
    m.set(
        "core.localize.ns_per_failure",
        tracer.self_ns("localize") as f64 / tracer.count("localize").max(1) as f64,
    );
    // Share of the failures for which Algorithm 4 found a candidate path.
    let localizations = (after.localizations - before.localizations).max(1) as f64;
    m.set(
        "core.localize.localized_frac",
        (after.localized - before.localized) as f64 / localizations,
    );
    m.set("core.path_table.build_s", v.sut.build_s);
    m.set("core.path_table.pairs", table.pairs as f64);
    m.set("core.path_table.paths", table.paths as f64);
    m.set("backend.size_metric", table.backend_size as f64);
    let cpu_ns = rate.elapsed_s * 1e9;
    m.set(
        "proc.cpu_us_per_report",
        cpu_ns / rate.total.max(1) as f64 / 1e3,
    );
    m.set(
        "proc.tracing_overhead_frac",
        1.0 - rate.median / untraced_rate.unwrap_or(rate.median).max(1.0),
    );
    m.set("proc.peak_rss_mb", procfs::peak_rss_mb());
    out.note(
        "untraced_reports_per_s",
        Json::Num(untraced_rate.unwrap_or(0.0)),
    );
    out.note("traced_reports_per_s", Json::Num(rate.median));
    out.note("rules", Json::Int(table.rules as i64));
    write_trace(args, "verify_inproc", &tracer);
    out
}

// -------------------------------------------------------------------- churn

struct Churned<'a, B: Backend> {
    sut: Sut<B>,
    reader: Reader<B>,
    battery: &'a [Report],
}

/// The reader's battery: witnesses of every path entry outside the churn
/// generator's address block. Made once from the seed.
fn battery<B: Backend>(seed: u64) -> Vec<Report> {
    Sut::<B>::build(Net::Internet2).witness_reports(
        BATTERY_PER_ENTRY,
        &Rng::new(seed).fork(2),
        true,
    )
}

/// The set-up that `setup_s` times: topology, rules, path table, first
/// snapshot, and the battery verified once through a reader.
fn prepare_churn<B: Backend>(battery: &[Report]) -> Churned<'_, B> {
    let mut sut = Sut::<B>::build(Net::Internet2);
    sut.enable_snapshots();
    let mut reader = sut.reader();
    reader.verify(battery);
    Churned {
        sut,
        reader,
        battery,
    }
}

/// What a stretch of churn produced.
struct ChurnRun {
    rate: common::Rate,
    /// `intercept` call → return, µs, for the updates of the sample.
    update_us: Vec<f64>,
    /// The same for every update of the stretch.
    all_update_us: Vec<f64>,
    verdicts: Counts,
}

/// A writer thread applies updates back to back, each call timed, while
/// this thread verifies the battery through its reader.
fn churn_stretch<B: Backend>(
    c: &mut Churned<'_, B>,
    sample: usize,
    seconds: f64,
    tracer: &mut Option<Tracer>,
) -> ChurnRun {
    let start = Instant::now();
    let warm = start + common::warmup(seconds);
    let end = warm + Duration::from_secs_f64(seconds);
    let window = common::window(seconds);
    let stop = AtomicBool::new(false);
    let Churned {
        sut,
        reader,
        battery,
    } = c;
    let mut churn = sut.churn();
    let traced = tracer.is_some();
    let (writer_out, rate, verdicts) = std::thread::scope(|s| {
        let stop = &stop;
        let writer = std::thread::Builder::new()
            .name("bench-writer".into())
            .spawn_scoped(s, move || {
                let mut tracer = traced.then(Tracer::new);
                let mut measured = Vec::new();
                let mut all = Vec::new();
                while !stop.load(Relaxed) {
                    let update = churn.step();
                    let span = tracer
                        .as_mut()
                        .map(|t| t.begin("intercept", None, all.len() as u64));
                    let t0 = Instant::now();
                    sut.apply(&update);
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                        t.end(s);
                    }
                    if (CHURN_SKIP..CHURN_SKIP + sample).contains(&all.len()) {
                        measured.push(us);
                    }
                    all.push(us);
                }
                (measured, all, tracer)
            })
            .expect("spawn the writer thread");
        let mut edges = Vec::new();
        let mut next_edge = warm;
        let mut verdicts = Counts::default();
        loop {
            let now = Instant::now();
            if now >= next_edge {
                edges.push((now, verdicts.total()));
                next_edge += window;
                if now >= end {
                    break;
                }
            }
            let span = tracer
                .as_mut()
                .map(|t| t.begin("verify_summary", None, verdicts.total()));
            verdicts.merge(&reader.verify(battery));
            if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                t.end(s);
            }
        }
        stop.store(true, Relaxed);
        (
            writer.join().expect("writer thread panicked"),
            common::rate(&edges),
            verdicts,
        )
    });
    let (mut update_us, all_update_us, writer_tracer) = writer_out;
    if let (Some(t), Some(w)) = (tracer.as_mut(), writer_tracer) {
        t.absorb(w);
    }
    if update_us.is_empty() {
        // A smoke run too short to reach the sample: time what there is.
        update_us.clone_from(&all_update_us);
    }
    ChurnRun {
        rate,
        update_us,
        all_update_us,
        verdicts,
    }
}

/// The same update stream on a table that publishes no snapshots: µs per
/// `intercept`, i.e. the incremental update alone.
fn incremental_only<B: Backend>(seconds: f64) -> Vec<f64> {
    let mut sut = Sut::<B>::build(Net::Internet2);
    let mut churn = sut.churn();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut us = Vec::new();
    while Instant::now() < end {
        let update = churn.step();
        let t0 = Instant::now();
        sut.apply(&update);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    us
}

/// The reader alone, no writer: reports per second.
fn quiescent_reader<B: Backend>(c: &mut Churned<'_, B>, seconds: f64) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        n += c.reader.verify(c.battery).total();
    }
    n as f64 / start.elapsed().as_secs_f64()
}

pub fn churn<B: Backend>(spec: &ChurnSpec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let ChurnSpec { name, sample } = *spec;
    let battery = battery::<B>(args.seed);
    let reps = common::setup_reps(SETUP_REPS, args.seconds);
    let (mut c, setup_s) = common::repeated_setup(reps, || prepare_churn::<B>(&battery), drop);
    let table = c.sut.table_size();
    out.note("network", Json::str(c.sut.net.name()));
    out.note("backend", Json::str(c.sut.backend_name()));
    out.note("battery_reports", Json::Int(c.battery.len() as i64));
    out.note(
        "stream_checksum",
        Json::str(format!("{:016x}", stream::checksum(c.battery))),
    );

    let check = |out: &mut Outcome, run: &ChurnRun| {
        // Churn stays outside the battery's addresses: every verdict of
        // every table version must be Pass.
        let failing = run.verdicts.total() - run.verdicts.pass;
        if failing > 0 {
            eprintln!("{name}: CHECK FAILED: {failing} battery verdicts not Pass under churn");
        }
        out.attempted += run.verdicts.total() + run.all_update_us.len() as u64;
        out.failed += failing;
    };

    if !args.trace {
        let run = churn_stretch(&mut c, sample, args.seconds, &mut None);
        check(&mut out, &run);
        let lat = stats::timing(&run.update_us);
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        m.set("reports_per_s", run.rate.median);
        m.set("latency_p50_us", lat.p50);
        m.set("latency_p90_us", lat.p90);
        m.set(
            "delivered_frac",
            run.verdicts.pass as f64 / run.verdicts.total().max(1) as f64,
        );
        out.note("reports_per_s_windows", run.rate.to_json());
        out.note("latency_us", common::timing_json(&lat));
        out.note("updates", Json::Int(run.all_update_us.len() as i64));
        return out;
    }

    let quiescent = quiescent_reader(&mut c, args.seconds * 0.1);
    let untraced = churn_stretch(&mut c, sample, args.seconds * 0.2, &mut None);
    check(&mut out, &untraced);
    let incremental = incremental_only::<B>(args.seconds * 0.15);
    // A fresh table: updates cost more the more a table has seen.
    let mut c = prepare_churn::<B>(&battery);
    let mut tracer = Some(Tracer::new());
    let run = churn_stretch(&mut c, sample, args.seconds * 0.35, &mut tracer);
    check(&mut out, &run);
    let tracer = tracer.expect("traced run has a tracer");

    // Update k is the same update in both streams (one sequence, fresh
    // tables), so visible − incremental pairs up by position.
    let publish: Vec<f64> = run
        .all_update_us
        .iter()
        .zip(&incremental)
        .map(|(visible, inc)| visible - inc)
        .collect();
    let (publishes, reclaims, clone_fallbacks) = c.sut.snapshot_counts();
    let m = &mut out.metrics;
    if !incremental.is_empty() {
        m.set(
            "core.incremental.update_p50_us",
            stats::percentile(&incremental, 50.0),
        );
    }
    if !publish.is_empty() {
        m.set(
            "core.snapshot.publish_p50_us",
            stats::percentile(&publish, 50.0),
        );
    }
    m.set("core.snapshot.publishes", publishes as f64);
    m.set("core.snapshot.reclaims", reclaims as f64);
    m.set("core.snapshot.clone_fallbacks", clone_fallbacks as f64);
    m.set("core.snapshot.reader_quiescent_reports_per_s", quiescent);
    m.set(
        "core.verify.ns_per_report",
        tracer.self_ns("verify_summary") as f64 / run.verdicts.total().max(1) as f64,
    );
    m.set("core.path_table.build_s", c.sut.build_s);
    m.set("core.path_table.pairs", table.pairs as f64);
    m.set("core.path_table.paths", table.paths as f64);
    m.set(
        "backend.size_metric",
        c.sut.table_size().backend_size as f64,
    );
    m.set(
        "proc.tracing_overhead_frac",
        1.0 - run.rate.median / untraced.rate.median.max(1.0),
    );
    m.set("proc.peak_rss_mb", procfs::peak_rss_mb());
    out.note("untraced_reports_per_s", Json::Num(untraced.rate.median));
    out.note("traced_reports_per_s", Json::Num(run.rate.median));
    out.note("paired_updates", Json::Int(publish.len() as i64));
    out.note(
        "update_visible_us",
        common::timing_json(&stats::timing(&run.update_us)),
    );
    write_trace(args, name, &tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Atoms;

    fn short() -> RunArgs {
        RunArgs {
            seed: 5,
            seconds: 0.3,
            trace: false,
            trace_path: None,
        }
    }

    #[test]
    fn a_short_churn_run_keeps_every_verdict_pass() {
        for out in [
            churn::<Bdd>(&CHURN_BDD, &short()),
            churn::<Atoms>(&CHURN_ATOMS, &short()),
        ] {
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            assert!(out.metrics.get("latency_p50_us").unwrap() > 0.0);
        }
    }
}
