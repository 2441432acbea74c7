//! The benchmark's own contract, checked from outside: names and limits of
//! `BENCHMARK.json`, the shape of what the binary prints, determinism of
//! the simulated numbers, and `compare`.
//!
//! Runs use `--quick` (simulator counts ÷ 100, a three-request functional
//! serve, millisecond probe budgets): they exercise every code path of a
//! real run in seconds, and their numbers are never compared.

use qserve_benchmark::compare::{compare, parse_records, Verdict};
use qserve_benchmark::json::{self, Value};
use qserve_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::process::Command;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn names_units_and_counts_fit_the_contract() {
    let mut seen = BTreeSet::new();
    assert!((2..=8).contains(&WORKLOADS.len()));
    for (name, why) in WORKLOADS {
        assert!(is_name(name), "workload name `{name}`");
        assert!(seen.insert(name), "name `{name}` used twice");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "`why` of {name} is {} chars",
            why.len()
        );
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(m.name), "metric name `{}`", m.name);
        assert!(is_unit(m.unit), "unit `{}` of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "name `{}` used twice", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(widest),
        "setup_s carries the largest bound"
    );
}

#[test]
fn benchmark_json_repeats_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024);
    let v = json::parse(&text).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = v
        .obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let strings = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Value::arr)
            .expect("an array")
            .iter()
            .map(|s| s.str().expect("a string").to_string())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    let seconds = v.get("run_seconds").and_then(Value::num).expect("a number");
    assert!(seconds.fract().abs() < f64::EPSILON && (1.0..=60.0).contains(&seconds));

    let rows = |key: &str| v.get(key).and_then(Value::arr).expect("an array").to_vec();
    let field = |row: &Value, k: &str| {
        row.get(k)
            .and_then(Value::str)
            .expect("a string")
            .to_string()
    };
    let listed: Vec<(String, String)> = rows("workloads")
        .iter()
        .map(|r| (field(r, "name"), field(r, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(listed, ours);

    for (key, table, with_bound) in [
        ("end_to_end", &END_TO_END[..], true),
        ("per_layer", PER_LAYER, false),
    ] {
        let rows = rows(key);
        assert_eq!(
            rows.len(),
            table.len(),
            "{key} has another number of metrics"
        );
        for (row, m) in rows.iter().zip(table) {
            assert_eq!(
                row.obj().expect("an object").len(),
                if with_bound { 4 } else { 3 }
            );
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit, "unit of {}", m.name);
            assert_eq!(
                field(row, "better"),
                m.better.word(),
                "direction of {}",
                m.name
            );
            assert_eq!(
                row.get("bound").and_then(Value::num),
                m.bound,
                "bound of {}",
                m.name
            );
        }
    }
}

/// Runs the built binary and returns `(standard output, record written by --out)`.
fn run_binary(workload: &str, seed: u64, trace: u8, tag: &str) -> (String, String) {
    let out = format!(
        "{}/{workload}-{seed}-{trace}-{tag}.jsonl",
        env!("CARGO_TARGET_TMPDIR")
    );
    let _ = std::fs::remove_file(&out);
    let done = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--quick", "--out", &out])
        // The traced pass byte-diffs the golden CSVs relative to the root.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark binary runs");
    assert!(
        done.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&done.stderr)
    );
    let record = std::fs::read_to_string(&out).expect("--out wrote a record");
    (
        String::from_utf8(done.stdout).expect("UTF-8 output"),
        record,
    )
}

/// Checks the contract's last line against `table` and returns its metrics.
fn contract_metrics(stdout: &str, table: &[qserve_benchmark::metrics::MetricSpec]) -> Vec<f64> {
    let last = stdout.lines().last().expect("some output");
    let v = json::parse(last).expect("the last line is one JSON object");
    let keys: Vec<&str> = v
        .obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        v.get("correct").and_then(Value::bool),
        Some(true),
        "{stdout}"
    );
    let attempted = v.get("attempted").and_then(Value::num).expect("a number");
    let failed = v.get("failed").and_then(Value::num).expect("a number");
    assert!(attempted >= 1.0 && attempted.fract().abs() < f64::EPSILON);
    assert_eq!(failed, 0.0, "a quick run failed operations");
    let metrics = v.get("metrics").and_then(Value::obj).expect("an object");
    // Every metric of the table exactly once, nothing else.
    assert_eq!(metrics.len(), table.len());
    table
        .iter()
        .map(|m| {
            let entry = metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{} is missing", m.name));
            assert_eq!(entry.get("unit").and_then(Value::str), Some(m.unit));
            // Each name is also printed by name, with its unit, above.
            assert!(
                stdout.contains(&format!("  {} ", m.name)),
                "{} is not printed",
                m.name
            );
            let value = entry.get("value").and_then(Value::num);
            value.unwrap_or_else(|| panic!("{} was not measured: {entry:?}", m.name))
        })
        .collect()
}

#[test]
fn quick_runs_print_the_contract_and_repeat_exactly() {
    let sim_metrics = |values: &[f64]| values[3..].to_vec();
    for (workload, _) in WORKLOADS {
        let (first, record_a) = run_binary(workload, 5, 0, "a");
        let (other_seed, _) = run_binary(workload, 6, 0, "b");
        let (again, record_c) = run_binary(workload, 5, 0, "c");
        let a = contract_metrics(&first, &END_TO_END);
        let b = contract_metrics(&other_seed, &END_TO_END);
        let c = contract_metrics(&again, &END_TO_END);
        assert!(
            a.iter().all(|v| *v > 0.0),
            "{workload}: an end-to-end metric is 0: {a:?}"
        );
        // Same seed, same simulated numbers and digest; another seed,
        // other inputs; and back again.
        assert_eq!(
            sim_metrics(&a),
            sim_metrics(&c),
            "{workload} does not repeat"
        );
        assert_ne!(
            sim_metrics(&a),
            sim_metrics(&b),
            "{workload} ignores its seed"
        );
        let digest = |record: &str| {
            json::parse(record.trim())
                .expect("a record is JSON")
                .get("sim_digest")
                .and_then(Value::str)
                .expect("a digest")
                .to_string()
        };
        assert_eq!(digest(&record_a), digest(&record_c));
        // Quick records are labelled, and refused by `compare`.
        assert!(first.contains("QUICK"));
        assert!(parse_records(&record_a)
            .expect_err("quick is refused")
            .contains("--quick"));
    }
}

#[test]
fn traced_pass_emits_every_per_layer_metric_once() {
    for workload in ["mega_chat", "func_serve"] {
        let (stdout, _) = run_binary(workload, 5, 1, "t");
        let values = contract_metrics(&stdout, PER_LAYER);
        assert!(values.iter().all(|v| v.is_finite()));
        let of = |name: &str| values[PER_LAYER.iter().position(|m| m.name == name).expect(name)];
        assert_eq!(of("bench.golden_mismatches"), 0.0);
        assert_eq!(of("model_exec.greedy_match_frac"), 1.0);
        // A layer the workload bypasses reads 0; the one it exercises does not.
        let sim = workload == "mega_chat";
        assert_eq!(of("cluster.completed") > 0.0, sim);
        assert_eq!(of("model_exec.serve.tokens") > 0.0, !sim);
        assert_eq!(of("kernels.gemm.macs") > 0.0, !sim);
    }
}

#[test]
fn a_file_compared_with_itself_is_all_unchanged() {
    // Three full-size-looking records per workload: a quick record with
    // its label cleared and its host times nudged, as three runs would be.
    let mut text = String::new();
    for (workload, _) in WORKLOADS {
        let (_, record) = run_binary(workload, 5, 0, "cmp");
        for scale in ["0.99", "1", "1.01"] {
            let line = record.trim().replace("\"quick\": true", "\"quick\": false");
            let v = json::parse(&line).expect("a record is JSON");
            let wall = v
                .get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("value"));
            let wall = wall.and_then(Value::num).expect("wall_s");
            let nudged = wall * scale.parse::<f64>().expect("a number");
            text.push_str(&line.replace(&json::num(wall), &json::num(nudged)));
            text.push('\n');
        }
    }
    let records = parse_records(&text).expect("labelled full-size now");
    assert_eq!(records.len(), 3 * WORKLOADS.len());
    let (table, worse, unresolved) = compare(&records, &records);
    assert_eq!((worse, unresolved), (0, 0), "{table}");
    let rows = table
        .lines()
        .filter(|l| l.contains(" | ") && !l.starts_with("workload"))
        .count();
    assert_eq!(rows, WORKLOADS.len() * END_TO_END.len());
    for line in table
        .lines()
        .filter(|l| l.contains(" | ") && !l.starts_with("workload"))
    {
        assert!(line.contains(Verdict::Unchanged.word()), "{line}");
    }
    assert!(table.contains("1 of 1 shared seeds identical"), "{table}");
}
