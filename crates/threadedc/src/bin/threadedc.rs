//! `threadedc` — the compiler's command-line front door.
//!
//! Compiles a DSL source file and prints the reference-group report
//! (the compile log: array sections, reference groups, fission,
//! LIGHTINSPECTOR parameters) plus a per-loop summary of the CSR flat
//! plans the compiler emits. Diagnostics come out with source spans
//! (`line L:C: message`) and a nonzero exit code.
//!
//! ```text
//! threadedc [--procs N] [--k K] [--dist block|cyclic] [--size S]
//!           [--run] <file.tc>
//! ```
//!
//! The plan preview (and `--run`) uses deterministic synthetic bindings
//! sized by `--size` (default 64, clamped by literal array sizes), so
//! the CLI needs no user data.

use std::process::ExitCode;

use earth_model::sim::SimConfig;
use irred::{Distribution, StrategyConfig};
use threadedc::{compile, synthetic_bindings, LoopPlan};

struct Args {
    procs: usize,
    k: usize,
    dist: Distribution,
    size: usize,
    run: bool,
    file: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: threadedc [--procs N] [--k K] [--dist block|cyclic] [--size S] \
         [--run] <file.tc>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        procs: 4,
        k: 2,
        dist: Distribution::Cyclic,
        size: 64,
        run: false,
        file: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |min: usize| -> usize {
            it.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| usage())
                .max(min)
        };
        match a.as_str() {
            "--procs" => args.procs = num(1),
            "--k" => args.k = num(1),
            "--size" => args.size = num(2),
            "--dist" => {
                args.dist = match it.next().as_deref() {
                    Some("block") => Distribution::Block,
                    Some("cyclic") => Distribution::Cyclic,
                    _ => usage(),
                }
            }
            "--run" => args.run = true,
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') && args.file.is_empty() => args.file = f.to_string(),
            _ => usage(),
        }
    }
    if args.file.is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("threadedc: cannot read `{}`: {e}", args.file);
            return ExitCode::from(2);
        }
    };

    let compiled = match compile(&src) {
        Ok(c) => c,
        Err(d) => {
            // The span-carrying diagnostic is the contract: file, then
            // `line L:C: message`.
            eprintln!("{}: error: {d}", args.file);
            return ExitCode::FAILURE;
        }
    };

    println!("== {} ==", args.file);
    println!("-- reference-group report --");
    for line in &compiled.log {
        println!("{line}");
    }

    let phased = compiled
        .plan
        .iter()
        .filter(|p| matches!(p, LoopPlan::Phased(_)))
        .count();
    let regular = compiled.plan.len() - phased;
    println!("-- plan: {phased} phased loop(s), {regular} regular loop(s) --");

    let strat = StrategyConfig::new(args.procs, args.k, args.dist, 1);
    let mut b = synthetic_bindings(&compiled.program, args.size);
    match compiled.flat_summaries(&mut b, &strat) {
        Ok(summaries) => {
            for (line, s) in &summaries {
                println!("loop@{line}: flat plan {s}");
            }
        }
        Err(d) => {
            eprintln!("{}: error: {d}", args.file);
            return ExitCode::FAILURE;
        }
    }

    if args.run {
        let mut b = synthetic_bindings(&compiled.program, args.size);
        match compiled.execute_sim(&mut b, &strat, SimConfig::default()) {
            Ok(rep) => {
                println!(
                    "-- run (sim, synthetic bindings): {} cycles, {} phased / {} regular --",
                    rep.time_cycles, rep.phased_loops, rep.regular_loops
                );
                let mut names: Vec<&String> = b.f64s.keys().collect();
                names.sort();
                for name in names {
                    let v = &b.f64s[name];
                    let sum: f64 = v.iter().sum();
                    println!("{name}[{}]: sum={sum:.6}", v.len());
                }
            }
            Err(d) => {
                eprintln!("{}: error: {d}", args.file);
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}
