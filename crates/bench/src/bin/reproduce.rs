//! Regenerates the QServe paper's tables and figures.
//!
//! ```text
//! cargo run --release -p qserve-bench --bin reproduce -- all
//! cargo run --release -p qserve-bench --bin reproduce -- fig3 table1 table4
//! ```
//!
//! Outputs are printed and also written as CSV under `results/`. Exit
//! status: 2 for an unknown id (nothing is run or written), 1 if any CSV
//! could not be written.

use qserve_bench::{experiment_ids, resolve_experiment};
use std::fs;
use std::process::ExitCode;

fn main() -> ExitCode {
    // lint: allow(wall-clock) -- CLI entry point parsing its argv, not simulation state
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        experiment_ids()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    // Resolve every id before running any: a typo at the end of the list
    // must not cost the minutes the experiments before it take.
    let mut runs = Vec::with_capacity(ids.len());
    for id in ids {
        let Some(run) = resolve_experiment(id) else {
            eprintln!("unknown experiment '{}'; known: {:?} (or 'all')", id, experiment_ids());
            return ExitCode::from(2);
        };
        runs.push((id, run));
    }
    let mut write_failed = false;
    if let Err(e) = fs::create_dir_all("results") {
        eprintln!("error: could not create results/: {}", e);
        write_failed = true;
    }
    for (id, run) in runs {
        for (i, table) in run().into_iter().enumerate() {
            let path = if i == 0 {
                format!("results/{}.csv", id)
            } else {
                format!("results/{}_{}.csv", id, i)
            };
            // Write the CSV before printing: stdout may be a pipe that
            // closes early (e.g. `| head`), and the artifact must survive.
            if let Err(e) = fs::write(&path, table.to_csv()) {
                eprintln!("error: could not write {}: {}", path, e);
                write_failed = true;
            }
            println!("{}", table.render());
        }
    }
    if write_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
