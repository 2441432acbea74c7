//! Everything that touches the host: the monotonic clock, the process
//! arguments and environment, and `/proc/self/status`.
//!
//! The determinism contract (`qserve-lint`, rule `wall-clock`) forbids
//! `Instant`, `std::env` and `std::thread` outside `qserve_bench::timing`
//! and `qserve_tensor::pool`. A benchmark has to read the clock, so the
//! exceptions live in this one file, each under a reasoned allow comment,
//! and the rest of `benchmark/src/` stays clean under the rule.

// lint: allow(wall-clock) -- the benchmark's only clock: host time is what it measures, never an input to the program under test
use std::time::Instant;

/// A started stopwatch over the host's monotonic clock.
#[derive(Debug, Clone, Copy)]
// lint: allow(wall-clock) -- wrapper type so no other file names the clock type
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // lint: allow(wall-clock) -- reads host time for a measurement
        Self(Instant::now())
    }

    /// Host seconds since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Host nanoseconds since [`Stopwatch::start`], as a float (spans and
    /// per-call costs are reported with all their digits).
    pub fn nanos(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e9
    }
}

/// The process arguments after the program name.
pub fn args() -> Vec<String> {
    // lint: allow(wall-clock) -- the command line is the benchmark's input channel (workload, seed, seconds, trace)
    std::env::args().skip(1).collect()
}

/// Pins the process-wide worker pool (`qserve_tensor::pool::global`, sized
/// from `QSERVE_THREADS` on first use) to `threads`. Must run before any
/// kernel or sweep call; `main` calls it first thing, while the process is
/// still single-threaded.
pub fn pin_pool_threads(threads: usize) {
    // lint: allow(wall-clock) -- sets the pool width the measurement is defined at; the program itself only reads it
    std::env::set_var("QSERVE_THREADS", threads.to_string());
}

/// Path of the running benchmark binary, for the one child process the
/// traced pass starts (the 2-thread kernel probe).
pub fn current_exe() -> std::io::Result<std::path::PathBuf> {
    // lint: allow(wall-clock) -- locates this binary to re-run it at another pool width
    std::env::current_exe()
}

/// How many threads the host offers (reported beside every 2-thread number).
pub fn available_parallelism() -> usize {
    // lint: allow(wall-clock) -- host description only, printed next to the parallel probes
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc/self/status` is not readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The fastest of `samples`.
///
/// Every timing the benchmark reports is the fastest of its repeats, not
/// their median. On this shared host contention only ever *adds* time, in
/// episodes that last from seconds to minutes: over 75 bodies per workload
/// the median of a run's bodies moved 4-13% from run to run, the fastest
/// body 1-4%. The program is deterministic, so every repeat does the same
/// work and the fastest is the one the neighbours disturbed least.
///
/// # Panics
/// Panics on an empty slice.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `samples` (upper median for even counts), printed beside the
/// fastest so the run's noise is visible.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Host nanoseconds of one call of `f` — the fastest batch mean — measured
/// for about `budget_s`: the call count per batch is calibrated so a batch
/// lasts roughly a tenth of the budget, then batches repeat until the
/// budget is spent (at least five). The first call warms caches and is not
/// counted.
pub fn ns_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let warm = Stopwatch::start();
    f();
    let one = warm.nanos().max(1.0);
    let batch_ns = budget_s * 1e9 / 10.0;
    let iters = (batch_ns / one).clamp(1.0, 1e7) as u64;
    let total = Stopwatch::start();
    let mut samples = Vec::new();
    while samples.len() < 5 || (total.seconds() < budget_s && samples.len() < 200) {
        let sw = Stopwatch::start();
        for _ in 0..iters {
            f();
        }
        samples.push(sw.nanos() / iters as f64);
    }
    fastest(&samples)
}

/// Host nanoseconds of one call of `f`, for probes too expensive to
/// repeat many times: the fastest of `repeats` single calls.
pub fn ns_once(repeats: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let sw = Stopwatch::start();
            f();
            sw.nanos()
        })
        .collect();
    fastest(&samples)
}
