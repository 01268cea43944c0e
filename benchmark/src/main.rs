//! `gapbench`: one repeatable end-to-end + per-layer benchmark for the
//! VeriDP report pipeline. See README.md for the workloads and metrics.
//!
//! ```text
//! gapbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! gapbench run [--seed <u64>] [--workload <name>] [--quick]
//! gapbench check-repeat <a.json> <b.json> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! The first form runs one workload in this process and prints, as its last
//! line, one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). `run` runs every workload that way, each
//! in a child process of its own, and writes `benchmark/out/results.json`.

mod budget;
mod common;
mod inproc;
mod json;
mod metrics;
mod procfs;
mod repeat;
mod rng;
mod stats;
mod stream;
mod sut;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use common::RunArgs;
use json::Json;
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 2016;
/// Measured seconds per run: `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 10.0;
/// Measured seconds per run of `run --quick`.
const QUICK_SECONDS: f64 = 0.4;
/// Where `run` and traced runs leave their files, from the repository root.
const OUT_DIR: &str = "benchmark/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: gapbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>\n       \
         gapbench run [--seed <u64>] [--workload <name>] [--quick]\n       \
         gapbench check-repeat <a.json> <b.json> [--benchmark <BENCHMARK.json>]\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare words of a command line.
struct Cli {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Option<Cli> {
        let mut cli = Cli {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => cli.flags.push(("quick".into(), "1".into())),
                Some(key) => cli.flags.push((key.to_string(), it.next()?.clone())),
                None => cli.words.push(a.clone()),
            }
        }
        Some(cli)
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "tcp_sat" => wire::run(&wire::TCP_SAT, args),
        "tcp_sat_robust" => wire::run(&wire::TCP_SAT_ROBUST, args),
        "udp_paced" => wire::run(&wire::UDP_PACED, args),
        "verify_inproc" => inproc::verify_inproc(args),
        "churn_bdd" => inproc::churn::<sut::Bdd>(&inproc::CHURN_BDD, args),
        "churn_atoms" => inproc::churn::<sut::Atoms>(&inproc::CHURN_ATOMS, args),
        _ => return None,
    })
}

/// One workload in this process: the contract's entry point.
fn single(cli: &Cli) -> ExitCode {
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        cli.flag("workload"),
        cli.flag("seed").and_then(|s| s.parse::<u64>().ok()),
        cli.flag("seconds").and_then(|s| s.parse::<f64>().ok()),
        cli.flag("trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }
    let trace_path = trace.then(|| {
        let _ = std::fs::create_dir_all(OUT_DIR);
        Path::new(OUT_DIR).join(format!("trace_{name}.json"))
    });
    let args = RunArgs {
        seed,
        seconds,
        trace,
        trace_path,
    };
    let Some(mut out) = run_workload(name, &args) else {
        return usage();
    };
    out.note("workload", Json::str(name));
    out.note("seed", Json::str(seed.to_string()));
    out.note("seconds", Json::Num(seconds));
    out.note("nproc", Json::Int(common::nproc() as i64));
    let defs = if trace { PER_LAYER } else { END_TO_END };
    print_metrics(name, defs, &out);
    println!("details: {}", Json::Obj(out.info.clone()).render());
    println!("{}", out.result_line(defs));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_metrics(workload: &str, defs: &[MetricDef], out: &Outcome) {
    for d in defs {
        if let Some(v) = out.metrics.get(d.name) {
            println!(
                "{workload:<16} {:<46} {v:>16.4} {:<6} ({} is better)",
                d.name, d.unit, d.better
            );
        }
    }
    println!(
        "{workload:<16} {:<46} {:>16} of {}",
        "failed", out.failed, out.attempted
    );
}

/// The commit of the working tree, read from `.git` without running git.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// One child run: its `details:` line and its result line, parsed.
fn child_run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().ok_or("the child printed nothing")?;
    let details = lines
        .pop()
        .and_then(|l| l.strip_prefix("details: "))
        .ok_or("the child printed no details line")?;
    for l in lines {
        println!("{l}");
    }
    Ok((Json::parse(details)?, Json::parse(result)?))
}

/// Every workload, each in its own child process (so `peak_rss_mb` is the
/// workload's own): an untraced run for the end-to-end metrics, then a
/// traced one for the layers.
fn run_all(cli: &Cli) -> ExitCode {
    let seed = match cli.flag("seed").map(str::parse::<u64>) {
        None => DEFAULT_SEED,
        Some(Ok(s)) => s,
        Some(Err(_)) => return usage(),
    };
    let quick = cli.flag("quick").is_some();
    let seconds = if quick { QUICK_SECONDS } else { RUN_SECONDS };
    let chosen: Vec<&str> = match cli.flag("workload") {
        None => WORKLOADS.to_vec(),
        Some(w) if WORKLOADS.contains(&w) => vec![w],
        Some(_) => return usage(),
    };
    let mut workloads = Vec::new();
    let mut failed_total = 0u64;
    for name in chosen {
        let runs = [false, true].map(|trace| child_run(name, seed, seconds, trace));
        let [Ok((details, end_to_end)), Ok((traced_details, per_layer))] = runs else {
            eprintln!("{name}: a run produced no result");
            return ExitCode::FAILURE;
        };
        let count =
            |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let attempted = count(&end_to_end, "attempted") + count(&per_layer, "attempted");
        let failed = count(&end_to_end, "failed") + count(&per_layer, "failed");
        failed_total += failed;
        workloads.push(Json::obj([
            ("name", Json::str(name)),
            ("failed", Json::Int(failed as i64)),
            ("attempted", Json::Int(attempted as i64)),
            (
                "failed_frac",
                Json::Num(failed as f64 / attempted.max(1) as f64),
            ),
            (
                "end_to_end",
                end_to_end.get("metrics").cloned().unwrap_or(Json::Null),
            ),
            (
                "per_layer",
                per_layer.get("metrics").cloned().unwrap_or(Json::Null),
            ),
            ("details", details),
            ("traced_details", traced_details),
        ]));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("gapbench")),
        ("seed", Json::str(seed.to_string())),
        ("quick", Json::Bool(quick)),
        ("run_seconds", Json::Num(seconds)),
        ("nproc", Json::Int(common::nproc() as i64)),
        ("git_revision", Json::str(git_revision())),
        ("rmem_default", Json::Int(procfs::rmem_default() as i64)),
        ("link", Json::str("loopback")),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = PathBuf::from(OUT_DIR).join("results.json");
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.render()))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed_total} operations failed the correctness checks");
        ExitCode::FAILURE
    }
}

fn check_repeat(cli: &Cli) -> ExitCode {
    let [_, a, b] = cli.words.as_slice() else {
        return usage();
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let benchmark = cli.flag("benchmark").unwrap_or("BENCHMARK.json");
    let rows = load(benchmark)
        .and_then(|bm| Ok((bm, load(a)?, load(b)?)))
        .and_then(|(bm, a, b)| repeat::compare(&bm, &a, &b));
    match rows {
        Ok(rows) => {
            repeat::print(&rows);
            let breaches = rows.iter().filter(|r| r.breach).count();
            if breaches == 0 {
                println!("no metric of the second set is worse than its bound allows");
                ExitCode::SUCCESS
            } else {
                println!("{breaches} breach(es)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("check-repeat: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cli) = Cli::parse(&args) else {
        return usage();
    };
    match cli.words.first().map(String::as_str) {
        Some("run") => run_all(&cli),
        Some("check-repeat") => check_repeat(&cli),
        Some(_) => usage(),
        None if args.is_empty() => run_all(&cli),
        None => single(&cli),
    }
}
