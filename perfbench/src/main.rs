//! The repository benchmark. One command runs one workload and prints
//! every end-to-end metric by name with its unit (or, with `--trace 1`,
//! every per-layer metric), then one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fine_grid_mg --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `fine_grid_mg`, `design_sweep`, `serve_mix`. See
//! `perfbench/NOTES.md` for why each exists and what each metric means.

mod design_sweep;
mod fine_grid;
mod inputs;
mod layers;
mod reference;
mod report;
mod serve_mix;
mod util;

use std::process::ExitCode;

use report::{metric_list, Run};

const USAGE: &str = "usage: cmosaic-perfbench --workload <fine_grid_mg|design_sweep|serve_mix> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fine_grid_mg", "design_sweep", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(inputs::DEFAULT_SEED),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} | host: {threads} hardware threads | \
         held-out seed for gain claims: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::HELD_OUT_SEED
    );
    let mut run = Run::default();
    let self_test = inputs::self_test(&args.workload, args.seed);
    run.check(self_test.is_ok(), || self_test.clone().unwrap_err());
    match args.workload.as_str() {
        "fine_grid_mg" => fine_grid::run(&mut run, args.seed, args.seconds, args.trace),
        "design_sweep" => design_sweep::run(&mut run, args.seed, args.seconds, args.trace),
        _ => serve_mix::run(&mut run, args.seed, args.seconds, args.trace),
    }
    reference::check(&mut run, &args.workload);
    run.finish(&metric_list(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }));
    ExitCode::SUCCESS
}
