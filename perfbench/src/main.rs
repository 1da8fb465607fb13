//! The repository benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire_small|wire_large|ledger_1m|protocol_attested> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced rounds, with
//! the global `zmail_obs` registry disabled. `--trace 1` reports the
//! per-layer metrics from traced rounds interleaved with untraced ones.
//! Every run checks its outputs; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod layers;
mod report;
mod sims;
mod stats;
mod wire;

use report::{json_string, Outcome, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = ["wire_small", "wire_large", "ledger_1m", "protocol_attested"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            args.self_check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_check && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run(workload: &str, seed: u64, seconds: f64, traced: bool, tiny: bool) -> Outcome {
    match workload {
        "wire_small" => {
            let shape = wire::Shape::small();
            wire::run(
                &if tiny { shape.tiny() } else { shape },
                seed,
                seconds,
                traced,
            )
        }
        "wire_large" => {
            let shape = wire::Shape::large(seed);
            wire::run(
                &if tiny { shape.tiny() } else { shape },
                seed,
                seconds,
                traced,
            )
        }
        "ledger_1m" => {
            let shape = if tiny {
                sims::LedgerShape::tiny()
            } else {
                sims::LedgerShape::full()
            };
            sims::ledger(shape, seed, seconds, traced)
        }
        "protocol_attested" => {
            let shape = if tiny {
                sims::ProtocolShape::tiny()
            } else {
                sims::ProtocolShape::full()
            };
            sims::protocol(shape, seed, seconds, traced)
        }
        other => unreachable!("workload {other} was validated"),
    }
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host record printed with every result.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: {{\"nproc\": {nproc}, \"git\": {}, \"rustc\": {}, \"profile\": \"{profile}\"}}",
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        json_string(&command_line("rustc", &["--version"])),
    )
}

fn print_outcome(workload: &str, out: &Outcome, traced: bool) {
    for note in &out.notes {
        println!("{note}");
    }
    for (gate, held) in &out.gates {
        println!("gate {}: {gate}", if *held { "ok  " } else { "FAIL" });
    }
    println!(
        "error_rate = {} ({} failed / {} attempted)",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for (name, unit) in Outcome::catalogue(traced) {
        let v = out.values(traced).get(name).copied().unwrap_or(0.0);
        println!("{workload} {name} = {v} {unit}");
    }
}

/// Every workload at tiny size, plus checks of the benchmark itself.
fn self_check() -> bool {
    let mut checks: Vec<(String, bool)> = Vec::new();
    let declared = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let listed = declared.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""));
        checks.push((format!("BENCHMARK.json lists {name} in {unit}"), listed));
    }
    for workload in WORKLOADS {
        for traced in [false, true] {
            let out = run(workload, 7, 0.0, traced, true);
            print_outcome(workload, &out, traced);
            let line = out.result_line(traced);
            println!("{line}");
            checks.push((
                format!("{workload} trace={traced}: gates hold"),
                out.correct(),
            ));
            checks.push((
                format!("{workload} trace={traced}: attempted and failed reported"),
                out.attempted > 0
                    && line.contains("\"attempted\": ")
                    && line.contains("\"failed\": "),
            ));
            let values = out.values(traced);
            for (name, unit) in Outcome::catalogue(traced) {
                let present = line.contains(&format!("\"{name}\": {{\"value\": "))
                    && line.contains(&format!("\"unit\": \"{unit}\""));
                let measured = traced || values.get(name).is_some_and(|v| *v > 0.0);
                checks.push((
                    format!("{workload} trace={traced}: {name} reported"),
                    present && measured,
                ));
            }
        }
    }
    checks.extend(wire::self_check(&wire::Shape::small().tiny()));
    let mut ok = true;
    for (name, held) in &checks {
        if !held {
            println!("self-check FAIL: {name}");
        }
        ok &= held;
    }
    println!(
        "self-check: {} checks, {}",
        checks.len(),
        if ok { "all hold" } else { "FAILED" }
    );
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line());
    if args.self_check {
        return if self_check() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let out = run(&args.workload, args.seed, args.seconds, args.trace, false);
    print_outcome(&args.workload, &out, args.trace);
    println!("{}", out.result_line(args.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
