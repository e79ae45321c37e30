//! Live benchmark of the gridpaxos reactor cluster.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload put_durable --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Each run launches an in-process 3-node `ReactorCluster`, drives it from
//! a single-threaded load generator, checks the outputs, and prints every
//! metric by name with its unit and sample count. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). Data directories live under `.perfbench-data/` in
//! the working directory and are removed at the end of the run. See
//! `perfbench/NOTES.md` for the workloads and metric definitions.

mod check;
mod cluster;
mod gen;
mod procfs;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod fidelity;

use std::path::Path;
use std::process::ExitCode;
use workloads::{Metric, RunArgs};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let res = match workloads::run(&args, Path::new(".perfbench-data")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let shown = if args.trace { &res.layer } else { &res.e2e };
    for m in shown {
        println!(
            "{:<34} {:>14.4} {:<9} ({})",
            m.name, m.value, m.unit, m.detail
        );
    }
    println!("attempted {} failed {}", res.attempted, res.failed);
    for n in &res.notes {
        println!("{n}");
    }
    for p in &res.problems {
        println!("PROBLEM: {p}");
    }
    let correct = res.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.attempted,
        res.failed,
        json_metrics(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
