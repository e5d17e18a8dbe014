//! Layered benchmark over the gossip-aggregation runtimes.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` in this directory), prints every
//! metric by name with its unit, the operation counts and every check, and
//! ends with one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` records spans around each layer's calls, runs the
//! per-layer probes, reports the per-layer metrics and writes the spans as
//! JSONL. A failed check makes the exit code 1.

mod engine;
mod inputs;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{result_json, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {:<30} {:>16.6} {:<11}{note}", m.name, m.value, m.unit);
    }
}

/// Where the traced run's spans go: under the build directory, inside the
/// checkout the benchmark runs from.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join("perfbench")
        .join(format!("{workload}-seed{seed}.spans.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {}: {} nodes, {} worker(s), sampler {}, telemetry {}, seed {}, {} s, trace {}, {} cores",
        w.name(),
        w.nodes(),
        w.workers(),
        w.sampler(),
        if w.telemetry() { "full" } else { "off" },
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );

    let outcome = workloads::run(w, args.seed, args.seconds, args.trace);

    print_metrics("end-to-end", &outcome.end_to_end);
    if args.trace {
        print_metrics("per-layer", &outcome.per_layer);
        println!("spans (count, total ms, self ms):");
        for (name, (count, total, self_ns)) in outcome.tracer.summary() {
            println!(
                "  {name:<30} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        let path = spans_path(w.name(), args.seed);
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let checks = &outcome.checks;
    for c in &checks.list {
        println!(
            "check {:<4} {:<36} {}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let ops = outcome.ops;
    let failed_checks = checks.failed() as u64;
    println!(
        "operations: {} exchanges attempted, {} messages lost, {} exchanges blocked; {} checks, {} failed",
        ops.attempted,
        ops.lost,
        ops.blocked,
        checks.list.len(),
        failed_checks
    );

    let correct = failed_checks == 0;
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{}",
        result_json(
            correct,
            ops.attempted + checks.list.len() as u64,
            failed_checks,
            metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
