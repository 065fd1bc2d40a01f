//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-mix|read-heavy|fleet> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), a run measures the end-to-end metrics; traced
//! (`--trace 1`), it times every call into each layer and reports the
//! per-layer metrics. Either way it checks the outputs, and the last line
//! of standard output is one JSON object. README.md explains the
//! workloads and how each layer metric maps onto an end-to-end one.

mod fleet;
mod replay;
mod report;

use std::time::Duration;

const USAGE: &str =
    "usage: hps-perfbench --workload <paper-mix|read-heavy|fleet> --seed N --seconds S --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let outcome = match args.workload.as_str() {
        "paper-mix" => replay::PAPER_MIX.run(args.seed, budget, args.traced),
        "read-heavy" => replay::READ_HEAVY.run(args.seed, budget, args.traced),
        "fleet" => fleet::run(args.seed, budget, args.traced),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", report::host_fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let correct = outcome.print(args.traced);
    std::process::exit(if correct { 0 } else { 1 });
}
