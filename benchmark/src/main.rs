//! The benchmark's command line.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
//! benchmark compare <parent.jsonl> <change.jsonl>
//! benchmark list
//! ```
//!
//! A run prints every metric by name with its unit, then — as the last
//! line of standard output — one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. It exits 0 when the run
//! completed (a failed output check is reported through `correct`), 2 on a
//! usage error.

use qserve_benchmark::clock;
use qserve_benchmark::compare::{compare, parse_records};
use qserve_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use qserve_benchmark::probes::par_gemm_ns;
use qserve_benchmark::run::{run, RunArgs};
use qserve_benchmark::workloads::Workload;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
  benchmark compare <parent.jsonl> <change.jsonl>
  benchmark list";

/// The sweeps' seed, used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20240603;

fn parse_run(args: &[String]) -> Result<(RunArgs, Option<String>), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut quick = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" | "--traced" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        RunArgs {
            workload,
            seed,
            seconds,
            trace,
            quick,
        },
        out,
    ))
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<18} {why}");
    }
    println!("end-to-end metrics (--trace 0):");
    for m in END_TO_END {
        println!(
            "  {:<22} {:<6} {:<6} bound {:>3.0}%  [{}]",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.kind
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in PER_LAYER {
        println!(
            "  {:<52} {:<6} {:<6} [{}]",
            m.name,
            m.unit,
            m.better.word(),
            m.kind
        );
    }
}

fn main() -> ExitCode {
    let args = clock::args();
    match args.first().map(String::as_str) {
        // Internal: the 2-thread arm of `kernels.par2_speedup`.
        Some("par-gemm-child") => {
            clock::pin_pool_threads(2);
            let (Some(Ok(budget)), Some(Ok(seed))) = (
                args.get(1).map(|s| s.parse::<f64>()),
                args.get(2).map(|s| s.parse::<u64>()),
            ) else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            println!("{}", par_gemm_ns(budget, seed));
            ExitCode::SUCCESS
        }
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| parse_records(&text).map_err(|e| format!("{path}: {e}")))
            };
            match (read(a), read(b)) {
                (Ok(a), Ok(b)) => {
                    let (text, worse, unresolved) = compare(&a, &b);
                    print!("{text}");
                    println!("\n{worse} worse, {unresolved} unresolved");
                    if worse + unresolved == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("benchmark compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            // One thread: repeatable on a shared 2-core host. The 2-thread
            // numbers are per-layer probes with pools of their own.
            clock::pin_pool_threads(1);
            let (run_args, out) = match parse_run(&args) {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("benchmark: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let result = run(&run_args);
            print!("{}", result.report());
            if let Some(path) = out {
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .and_then(|mut f| writeln!(f, "{}", result.record_line()));
                if let Err(e) = appended {
                    eprintln!("benchmark: cannot append to {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            println!("{}", result.contract_line());
            ExitCode::SUCCESS
        }
    }
}
