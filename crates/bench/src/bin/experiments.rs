//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [all|table2|fig6|function|fig12|table3|fig13|fig14|table4|baselines|sampling|ablation|backends|verify_fastpath]
//!             [--quick] [--seed N]
//! ```
//!
//! `--quick` shrinks sample counts for smoke runs; default scales are the
//! ones recorded in EXPERIMENTS.md.

use std::env;

use veridp_bench::exp;

struct Config {
    seed: u64,
    quick: bool,
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut cfg = Config {
        seed: 2016,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            other if !other.starts_with('-') => which.push(other.to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = [
            "table2",
            "fig6",
            "function",
            "fig12",
            "table3",
            "fig13",
            "fig14",
            "table4",
            "baselines",
            "sampling",
            "ablation",
            "backends",
            "verify_fastpath",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    for w in which {
        run(&w, &cfg);
        println!();
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments [all|table2|fig6|function|fig12|table3|fig13|fig14|table4|baselines|sampling|ablation|backends|verify_fastpath] [--quick] [--seed N]"
    );
    std::process::exit(2);
}

fn run(which: &str, cfg: &Config) {
    match which {
        "table2" => {
            let rows = exp::table2::run(cfg.seed);
            print!("{}", exp::table2::render(&rows));
        }
        "fig6" => {
            let dists = exp::fig6::run(cfg.seed);
            print!("{}", exp::fig6::render(&dists));
        }
        "function" => {
            let scenarios = exp::function::run();
            print!("{}", exp::function::render(&scenarios));
        }
        "fig12" => {
            let samples = if cfg.quick { 300 } else { 2000 };
            let points = exp::fig12::run(samples, cfg.seed);
            print!("{}", exp::fig12::render(&points));
        }
        "table3" => {
            let trials = if cfg.quick { 8 } else { 60 };
            let rows = exp::table3::run(trials, cfg.seed);
            print!("{}", exp::table3::render(&rows));
        }
        "fig13" => {
            let iters = if cfg.quick { 2_000 } else { 10_000 };
            let series = exp::fig13::run(iters, cfg.seed);
            print!("{}", exp::fig13::render(&series));
            let batch = if cfg.quick { 50_000 } else { 400_000 };
            let points = exp::fig13::run_parallel(
                veridp_bench::Setup::Stanford,
                batch,
                &[1, 2, 4, 8],
                cfg.seed,
            );
            print!("{}", exp::fig13::render_parallel(&points));
        }
        "fig14" => {
            let (bg, rules) = if cfg.quick { (300, 200) } else { (1200, 2000) };
            let run = exp::fig14::run(bg, rules, cfg.seed);
            print!("{}", exp::fig14::render(&run));
        }
        "table4" => {
            let model = exp::table4::run_model();
            let iters = if cfg.quick { 100_000 } else { 1_000_000 };
            let sw = exp::table4::run_software(
                10_000.min(if cfg.quick { 1_000 } else { 10_000 }),
                iters,
                cfg.seed,
            );
            print!("{}", exp::table4::render(&model, &sw));
        }
        "baselines" => {
            let matrix = exp::baselines::detection_matrix();
            let counts: &[usize] = if cfg.quick {
                &[50, 100, 200]
            } else {
                &[100, 200, 400, 800]
            };
            let costs = exp::baselines::probe_cost(counts, cfg.seed);
            print!("{}", exp::baselines::render(&matrix, &costs));
        }
        "sampling" => {
            let values: &[u64] = if cfg.quick {
                &[1, 4, 16]
            } else {
                &[1, 2, 4, 8, 16, 32]
            };
            let points = exp::sampling::run(values);
            print!("{}", exp::sampling::render(&points));
        }
        "backends" => {
            let iters = if cfg.quick { 2_000 } else { 20_000 };
            let rows = exp::backends::run(iters, cfg.seed);
            print!("{}", exp::backends::render(&rows));
        }
        "ablation" => {
            let trials = if cfg.quick { 1 } else { 5 };
            let loc: Vec<_> = [8u32, 16, 32]
                .into_iter()
                .map(|bits| exp::ablation::localization(bits, trials, cfg.seed))
                .collect();
            let changes = if cfg.quick { 10 } else { 50 };
            let upd = exp::ablation::incremental_vs_rebuild(
                if cfg.quick { 200 } else { 800 },
                changes,
                cfg.seed,
            );
            print!("{}", exp::ablation::render(&loc, &upd));
            let n = if cfg.quick { 150 } else { 600 };
            let pred = exp::ablation::delta_vs_rescan(n, cfg.seed);
            print!("{}", exp::ablation::render_predicates(&pred));
        }
        "verify_fastpath" => {
            let iters = if cfg.quick { 20_000 } else { 400_000 };
            let rows = exp::verify_fastpath::run(iters, cfg.seed);
            print!("{}", exp::verify_fastpath::render(&rows));
            let batch = if cfg.quick { 50_000 } else { 400_000 };
            let points = exp::verify_fastpath::run_batch(
                veridp_bench::Setup::Stanford,
                batch,
                &[1, 2, 4, 8],
                cfg.seed,
            );
            print!("{}", exp::verify_fastpath::render_batch(&points));
        }
        other => usage(&format!("unknown experiment {other}")),
    }
}
