//! `benchmark compare A B`: two result files, one verdict per workload ×
//! end-to-end metric, then digest equality and per-layer deltas.
//!
//! A result file holds one record per line, as `--out` appends them
//! (several seeds and workloads per file). `A` is the parent, `B` the
//! change. Every ratio is printed with its base.
//!
//! Verdicts, per workload × metric, over the runs of each side:
//!
//! * `unresolved` — either side's spread (inter-quartile distance ÷
//!   median) is wider than the metric's bound: the data cannot tell;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `improved` — B's median is better than A's by more than the two
//!   sides' spreads together (a hint to go and run the paired protocol of
//!   the README, not a claim);
//! * `unchanged` — anything else.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;

/// One parsed record of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Traced pass?
    pub trace: bool,
    /// Hash of the run's reports.
    pub digest: String,
    /// All checks passed.
    pub correct: bool,
    /// Failed requests.
    pub failed: f64,
    /// Requests sent.
    pub attempted: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a result file (one JSON record per non-empty line).
///
/// # Errors
/// Names the line that is not a record, or a record made with `--quick`
/// (quick runs are for tests; their numbers are not comparable).
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("line {}: no `{k}`", i + 1));
        if field("quick")?.bool() != Some(false) {
            return Err(format!(
                "line {}: a --quick record cannot be compared",
                i + 1
            ));
        }
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?
            .obj()
            .ok_or("`metrics` is not an object")?
        {
            if let Some(x) = m.get("value").and_then(Value::num) {
                metrics.insert(name.clone(), x);
            }
        }
        out.push(Record {
            workload: field("workload")?.str().unwrap_or_default().to_string(),
            seed: field("seed")?.num().unwrap_or(0.0) as u64,
            trace: field("trace")?.num().is_some_and(|t| t > 0.5),
            digest: field("sim_digest")?.str().unwrap_or_default().to_string(),
            correct: field("correct")?.bool() == Some(true),
            failed: field("failed")?.num().unwrap_or(0.0),
            attempted: field("attempted")?.num().unwrap_or(0.0),
            metrics,
        });
    }
    Ok(out)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method);
/// a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    if m < 2 {
        let v = x.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Summary of one side's runs of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Inter-quartile distance ÷ median.
    pub spread: f64,
}

fn side(values: &[f64]) -> Side {
    let (q1, med, q3) = quartiles(values);
    Side {
        n: values.len(),
        median: med,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        spread: if med.abs() > 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        },
    }
}

/// The four verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than both sides' spreads together.
    Improved,
    /// Within the bound and the noise.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case word for the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric. `worsening` is the share of A's
/// median by which B is worse (negative when better).
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> (f64, Verdict) {
    let delta = (b.median - a.median) / a.median.abs();
    let worsening = match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let v = if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if -worsening > a.spread + b.spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worsening, v)
}

fn values_of(records: &[Record], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// The full comparison of parent `a` against change `b`, as text, plus how
/// many rows were `worse` and how many `unresolved`.
pub fn compare(a: &[Record], b: &[Record]) -> (String, usize, usize) {
    let mut out = String::new();
    let (mut worse, mut unresolved) = (0, 0);
    out.push_str(
        "end-to-end: A = parent, B = change; delta is B's worsening as a share of A's median\n",
    );
    out.push_str(&format!(
        "{:<18} {:<20} {:>3} {:>14} {:>14} {:>14} {:>7} | {:>3} {:>14} {:>14} {:>14} {:>7} | {:>8} {:>6}  {}\n",
        "workload", "metric", "nA", "median A", "min A", "max A", "iqr/med",
        "nB", "median B", "min B", "max B", "iqr/med", "delta", "bound", "verdict"
    ));
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (
                values_of(a, workload, false, m.name),
                values_of(b, workload, false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (side(&va), side(&vb));
            let bound = m.bound.expect("end-to-end metrics carry bounds");
            let (worsening, v) = verdict(&sa, &sb, m.better, bound);
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            out.push_str(&format!(
                "{:<18} {:<20} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>6.2}% | {:>3} {:>14.6} {:>14.6} {:>14.6} {:>6.2}% | {:>+7.2}% {:>5.0}%  {} ({} {})\n",
                workload, m.name, sa.n, sa.median, sa.min, sa.max, sa.spread * 100.0,
                sb.n, sb.median, sb.min, sb.max, sb.spread * 100.0,
                worsening * 100.0, bound * 100.0, v.word(), m.better.word(), m.unit
            ));
        }
    }

    out.push_str(
        "\nfailures: failed requests / requests attempted, summed over each side's runs\n",
    );
    for (workload, _) in WORKLOADS {
        let share = |rs: &[Record]| {
            let (f, n) = rs
                .iter()
                .filter(|r| r.workload == workload)
                .fold((0.0, 0.0), |(f, n), r| (f + r.failed, n + r.attempted));
            let bad = rs
                .iter()
                .filter(|r| r.workload == workload && !r.correct)
                .count();
            format!("{f} / {n} ({bad} runs with a failed check)")
        };
        out.push_str(&format!("{workload:<18} A {}   B {}\n", share(a), share(b)));
    }

    out.push_str("\nsim_digest: per workload and seed present on both sides (a change is reported, not failed)\n");
    for (workload, _) in WORKLOADS {
        let digests = |rs: &[Record]| -> BTreeMap<u64, String> {
            rs.iter()
                .filter(|r| r.workload == workload)
                .map(|r| (r.seed, r.digest.clone()))
                .collect()
        };
        let (da, db) = (digests(a), digests(b));
        let shared: Vec<u64> = da.keys().filter(|s| db.contains_key(s)).copied().collect();
        let same = shared.iter().filter(|s| da[s] == db[s]).count();
        out.push_str(&format!(
            "{workload:<18} {same} of {} shared seeds identical{}\n",
            shared.len(),
            if same == shared.len() {
                ""
            } else {
                "  <-- simulated results moved"
            }
        ));
    }

    out.push_str("\nper-layer (traced pass): median A -> median B, change as a share of A\n");
    for (workload, _) in WORKLOADS {
        for m in PER_LAYER {
            let (va, vb) = (
                values_of(a, workload, true, m.name),
                values_of(b, workload, true, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (side(&va), side(&vb));
            let change = if sa.median.abs() > 0.0 {
                format!(
                    "{:+.2}% of {}",
                    (sb.median - sa.median) / sa.median.abs() * 100.0,
                    sa.median
                )
            } else {
                format!("{:+} from 0", sb.median)
            };
            out.push_str(&format!(
                "{:<18} {:<52} {:>16.6} -> {:>16.6} {:<6} {}\n",
                workload, m.name, sa.median, sb.median, m.unit, change
            ));
        }
    }
    (out, worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn verdicts_cover_the_four_cases() {
        let tight = |m: f64| side(&[m * 0.99, m, m, m * 1.01]);
        let noisy = side(&[1.0, 2.0, 3.0, 4.0]);
        let a = tight(10.0);
        assert_eq!(
            verdict(&a, &tight(10.0), Better::Lower, 0.1).1,
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &tight(12.0), Better::Lower, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &tight(12.0), Better::Higher, 0.1).1,
            Verdict::Improved
        );
        assert_eq!(
            verdict(&a, &tight(9.0), Better::Lower, 0.1).1,
            Verdict::Improved
        );
        assert_eq!(
            verdict(&a, &tight(10.5), Better::Lower, 0.1).1,
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
    }
}
