//! The `reproduce` binary's exit status: an unknown id anywhere in the list
//! stops the run before it starts, and a CSV that cannot be written is a
//! failure, not a warning.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `reproduce <args>` in a fresh scratch directory (created by `prepare`).
fn reproduce_in(dir: &str, prepare: impl FnOnce(&PathBuf), args: &[&str]) -> (PathBuf, Output) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).unwrap();
    prepare(&cwd);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("reproduce runs");
    (cwd, out)
}

#[test]
fn an_unknown_id_exits_2_before_anything_runs_or_is_written() {
    let (cwd, out) = reproduce_in("reproduce_cli_unknown_id", |_| {}, &["table1", "no_such_id"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "table1 ran before the bad id was rejected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'no_such_id'"));
    assert!(!cwd.join("results").exists(), "nothing may be written");
}

#[test]
fn an_unwritable_csv_fails_the_run() {
    // `results` exists as a file, so neither the directory nor the CSV can
    // be created; the table is still printed.
    let block = |cwd: &PathBuf| fs::write(cwd.join("results"), "in the way").unwrap();
    let (_, out) = reproduce_in("reproduce_cli_unwritable", block, &["table1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!out.stdout.is_empty(), "the table is printed regardless");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("could not create results/"), "{}", stderr);
    assert!(stderr.contains("could not write results/table1.csv"), "{}", stderr);
}
