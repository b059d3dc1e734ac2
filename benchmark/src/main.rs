//! The repo's benchmark: six ms-scale workloads, end-to-end metrics
//! measured with tracing off, and a traced pass that times each layer
//! from outside through its public functions. See `README.md` beside
//! this package for the definitions.
//!
//! ```text
//! irred-benchmark [--workload NAME] [--seed N] [--seconds S]
//!                 [--trace 0|1 | --layers] [--quick]
//! irred-benchmark manifest      print BENCHMARK.json
//! irred-benchmark fingerprint   print the host fingerprint
//! irred-benchmark daemon        (internal) the reductiond child
//! ```
//!
//! Every workload's block on standard output ends with one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--workload`
//! that object is the last line.

mod daemon;
mod engine;
mod host;
mod layers;
mod metrics;
mod serve;
mod spans;
mod stats;
mod timed;

use std::process::exit;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use timed::{Layers, Setups, Timed};

/// A median job shorter than this measures the scheduler, not the code.
const MIN_JOB_MS: f64 = 2.0;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// Run the timed pass (tracing off).
    timed: bool,
    /// Run the traced pass.
    layers: bool,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: irred-benchmark [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1 | --layers] [--quick]\n       irred-benchmark manifest\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    exit(2);
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 12.0,
        timed: true,
        layers: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => o.workload = Some(val()),
            "--seed" => o.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => match val().as_str() {
                "0" => (o.timed, o.layers) = (true, false),
                "1" => (o.timed, o.layers) = (false, true),
                _ => usage(),
            },
            "--layers" => o.layers = true,
            "--quick" => o.quick = true,
            _ => usage(),
        }
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.iter().any(|x| x.name == w) {
            usage();
        }
    }
    if o.quick {
        o.seconds = o.seconds.min(1.0);
    }
    o
}

/// The harness prints no numbers it would not stand behind.
fn refuse(why: &str) -> ! {
    eprintln!("irred-benchmark: refusing to report: {why}");
    exit(3);
}

/// Print a timed pass: the table, then the result object.
fn print_end_to_end(name: &str, t: &Timed) {
    let values = t.end_to_end();
    println!(
        "{name}: {} jobs in a {:.1} s window, {} set-ups, {} outputs checked, {} failed",
        t.completed(),
        t.window_s,
        t.setup_s.len(),
        t.checked,
        t.failed
    );
    for (m, (_, v)) in END_TO_END.iter().zip(&values) {
        let n = if m.name == "setup_s" {
            t.setup_s.len() as u64
        } else {
            t.completed()
        };
        println!(
            "  {:<16} {:>12.4} {:<5} n={:<6} {} is better, bound {:.0}%",
            m.name,
            v,
            m.unit,
            n,
            m.better,
            m.bound * 100.0
        );
    }
    println!(
        "  {:<16} {:>12.6} ratio n={:<6} lower is better, bound 0 (any failure fails the run)",
        "error_share",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.attempted
    );
    let rows: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(&values)
        .map(|(m, (_, v))| (m.name, *v, m.unit))
        .collect();
    println!("{}", metrics::result_json(t.attempted, t.failed, &rows));
}

/// Print a traced pass: the layers that did work, then the result
/// object with every per-layer metric.
fn print_per_layer(name: &str, attempted: u64, failed: u64, layers: &Layers) {
    println!("{name}: per-layer metrics (a layer the workload does not run reads 0)");
    let rows: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    for (n, v, u) in &rows {
        if *v != 0.0 {
            println!("  {n:<40} {v:>14.4} {u}");
        }
    }
    println!("{}", metrics::result_json(attempted, failed, &rows));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("daemon") => daemon::serve(),
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            return;
        }
        Some("fingerprint") => {
            println!("{}", host::fingerprint());
            return;
        }
        _ => {}
    }
    let o = parse_opts(&args);
    if !o.quick {
        if o.seconds < RUN_SECONDS as f64 {
            refuse(&format!(
                "a {} s window is under {RUN_SECONDS} s (use --quick for a smoke run)",
                o.seconds
            ));
        }
        if serve::CONNECTIONS > host::nproc() {
            refuse("more generator threads than processors");
        }
    }
    println!(
        "# irred-benchmark {} seed={} seconds={}{}",
        host::fingerprint(),
        o.seed,
        o.seconds,
        if o.quick {
            " QUICK SMOKE RUN: NOT FOR NUMBERS"
        } else {
            ""
        }
    );
    let setups = if o.quick {
        Setups::ONCE
    } else {
        Setups::MEASURED
    };
    let mut any_failed = false;
    for w in WORKLOADS {
        if o.workload.as_deref().is_some_and(|n| n != w.name) {
            continue;
        }
        if o.timed {
            let t = timed::run(w.name, o.seed, o.seconds, setups);
            let p50 = stats::median(&t.job_ms());
            if !o.quick && p50 < MIN_JOB_MS {
                refuse(&format!(
                    "{}: median job of {p50:.3} ms is under {MIN_JOB_MS} ms",
                    w.name
                ));
            }
            any_failed |= t.failed > 0;
            print_end_to_end(w.name, &t);
        }
        if o.layers {
            let l = layers::run(w.name, o.seed, o.seconds);
            any_failed |= l.failed > 0;
            print_per_layer(w.name, l.attempted, l.failed, &l.layers);
        }
    }
    if any_failed {
        eprintln!("irred-benchmark: error_share > 0");
        exit(1);
    }
}
