//! One run of one workload: set-up, timed bodies, output checks, and — in
//! the traced pass — the span ledger and the per-layer probes.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced pass: it runs the body with and
//! without spans (the difference is `trace.overhead_frac`), derives the
//! workload's ledger from the spans and the reports, and runs the probes.

use crate::clock::{self, fastest, median, Stopwatch};
use crate::json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::Probes;
use crate::surface::black_box;
use crate::trace::Tracer;
use crate::workloads::{self, BodyOut, Prepared, Summary, Workload};

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Host seconds the run measures for.
    pub seconds: f64,
    /// `true` for the traced pass.
    pub trace: bool,
    /// Counts ÷ 100, for tests; `compare` refuses such records.
    pub quick: bool,
}

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The arguments the run was made with.
    pub args: RunArgs,
    /// All output checks passed.
    pub correct: bool,
    /// Requests sent over all bodies.
    pub attempted: usize,
    /// Requests that failed over all bodies (neither finished nor shed, or
    /// finished with wrong tokens).
    pub failed: usize,
    /// The summary of one body (all bodies are equal).
    pub summary: Summary,
    /// Bodies run.
    pub bodies: usize,
    /// `(name, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Host seconds of every timed body, in run order (untraced bodies in
    /// the traced pass).
    pub body_seconds: Vec<f64>,
}

/// Fewest timed set-ups per untraced run (one under `--quick`); `setup_s`
/// is the fastest of all of them (see [`fastest`]).
const MIN_SETUPS: usize = 5;
/// Set-ups repeat until they have taken this long in total (a simulator
/// workload sets up in milliseconds, and five such times are not steady
/// enough to gate on) ...
const SETUP_BUDGET_S: f64 = 1.0;
/// ... but never more often than this.
const MAX_SETUPS: usize = 200;
/// Fewest timed bodies per run, whatever `--seconds` says.
const MIN_BODIES: usize = 3;

/// Runs `args.workload` once, as the contract describes.
pub fn run(args: &RunArgs) -> RunResult {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

/// Sets the workload up and runs one unmeasured body, so that what is
/// timed afterwards runs on a warm machine: after an idle gap the first
/// seconds of a process here are up to 70% slower (memory-bound code more
/// than arithmetic), which would otherwise land on the set-ups and the
/// first bodies.
fn warm_start(args: &RunArgs) -> Prepared {
    let mut prepared = workloads::setup(args.workload, args.seed, args.quick);
    black_box(workloads::body(&mut prepared, &mut Tracer::off()));
    prepared
}

/// Sets the workload up repeatedly, returning the last product and the
/// host seconds of the fastest set-up.
fn timed_setups(args: &RunArgs, mut prepared: Prepared) -> (Prepared, f64) {
    let (fewest, budget_s) = if args.quick {
        (1, 0.0)
    } else {
        (MIN_SETUPS, SETUP_BUDGET_S)
    };
    let mut times = Vec::new();
    let total = Stopwatch::start();
    while times.len() < MAX_SETUPS && (times.len() < fewest || total.seconds() < budget_s) {
        // Drop the previous fleet first so peak RSS is one set-up's.
        drop(prepared);
        let sw = Stopwatch::start();
        prepared = workloads::setup(args.workload, args.seed, args.quick);
        times.push(sw.seconds());
    }
    (prepared, fastest(&times))
}

/// Output checks shared by both passes. Returns `(mismatched requests,
/// (greedy match fraction, FP16 agreement) on `func_serve`, problems)`.
fn check(
    args: &RunArgs,
    prepared: &Prepared,
    outs: &[BodyOut],
    summary: &Summary,
) -> (usize, Option<(f64, f64)>, Vec<String>) {
    let mut problems = workloads::shape_violations(args.workload, &outs[0], summary, args.quick);
    if outs.iter().any(|o| *o != outs[0]) {
        problems.push("repeated bodies returned different reports".to_string());
    }
    let quality = workloads::func_quality(prepared, &outs[0]);
    let mismatches = quality.map_or(0, |(bad, _, _)| bad);
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} served requests differ from solo greedy generation"
        ));
    }
    (
        mismatches,
        quality.map(|(_, greedy, fp16)| (greedy, fp16)),
        problems,
    )
}

fn untraced(args: &RunArgs) -> RunResult {
    let prepared = warm_start(args);
    // One set-up and one body: the same allocations on every run, so the
    // high-water mark does not depend on how many repeats the time budget
    // allowed (repeats fragment the heap by a few MB either way).
    let peak_rss_mb = clock::peak_rss_mb().unwrap_or(f64::NAN);
    let (mut prepared, setup_s) = timed_setups(args, prepared);
    let mut tracer = Tracer::off();
    let mut walls = Vec::new();
    let mut outs = Vec::new();
    let min_bodies = if args.quick { 2 } else { MIN_BODIES };
    let total = Stopwatch::start();
    while walls.len() < min_bodies || (!args.quick && total.seconds() < args.seconds) {
        let sw = Stopwatch::start();
        let out = workloads::body(&mut prepared, &mut tracer);
        walls.push(sw.seconds());
        outs.push(out);
    }
    let summary = workloads::summarise(&prepared, &outs[0]);
    let (mismatches, _, problems) = check(args, &prepared, &outs, &summary);

    let bodies = walls.len();
    let values = [
        setup_s,
        fastest(&walls),
        peak_rss_mb,
        summary.generated_tokens as f64 / summary.makespan_s,
        summary.met / summary.sent as f64,
        summary.p99_latency_s,
        summary.mean_ttft_s,
        summary.gpu_seconds,
    ];
    let metrics: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| m.name).zip(values).collect();
    RunResult {
        args: args.clone(),
        correct: problems.is_empty() && metrics.iter().all(|(_, v)| v.is_finite()),
        attempted: summary.sent * bodies,
        failed: (summary.failed + mismatches) * bodies,
        summary,
        bodies,
        metrics,
        problems,
        body_seconds: walls,
    }
}

fn traced(args: &RunArgs) -> RunResult {
    let mut prepared = warm_start(args);
    let mut off = Tracer::off();
    let mut on = Tracer::on(args.workload.index());
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    let mut outs = Vec::new();
    // Untraced and traced bodies alternate for about a third of the run.
    let total = Stopwatch::start();
    while plain.len() < 2 || (!args.quick && total.seconds() < args.seconds / 3.0) {
        let sw = Stopwatch::start();
        outs.push(workloads::body(&mut prepared, &mut off));
        plain.push(sw.seconds());
        let sw = Stopwatch::start();
        outs.push(on.span("workload.body", |t| workloads::body(&mut prepared, t)));
        spanned.push(sw.seconds());
    }
    let summary = workloads::summarise(&prepared, &outs[0]);
    let (mismatches, quality, mut problems) = check(args, &prepared, &outs, &summary);

    // The ledger: host time inside the program, from the spans.
    let traced_bodies = spanned.len() as f64;
    let layer_ns = (on.total_ns("cluster.serve_paged")
        + on.total_ns("cluster.serve_paged_faulty")
        + on.total_ns("model_exec.serve_with"))
        / traced_bodies;
    let token_steps = match args.workload {
        Workload::FuncServe => summary.func_tokens,
        _ => summary.generated_tokens,
    } as f64;
    let wall_ns = fastest(&plain) * 1e9;
    let overhead = fastest(&spanned) / wall_ns * 1e9 - 1.0;
    let body_spans = on.spans().len();

    // The probes share most of the other two thirds, evenly (about fifty
    // of them are repeated for a budget; a handful are single shots).
    let budget_s = if args.quick {
        0.002
    } else {
        args.seconds * 0.55 / 50.0
    };
    let probes = Probes::new(
        budget_s,
        args.seed,
        args.quick,
        args.workload,
        quality,
        &mut on,
    )
    .run();
    let probe = |name: &str| -> f64 {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };

    // The MLSYSIM check: rebuild the body's wall from counts × per-call
    // costs measured in this same pass. What the parts do not explain —
    // report aggregation, the event loop's own bookkeeping, cache misses
    // the probes do not see — is `cluster.unattributed_frac`.
    let sim = args.workload != Workload::FuncServe;
    let sim_sent = if sim { summary.sent as f64 } else { 0.0 };
    let sim_steps = if sim { token_steps } else { 0.0 };
    let tick = sim_steps * probe("engine.replay.ns_per_token_step") / wall_ns;
    // One arrival event per request and at least one replica-lane event
    // per retirement: a floor on the events the driver popped and pushed.
    let event = 2.0 * sim_sent * probe("event.push_pop_ns.d8") / wall_ns;
    let place_cost = match args.workload {
        Workload::ControlChurn => probe("control.place_ns.deadline_aware.r4"),
        _ => probe("control.place_ns.least_outstanding.r4"),
    };
    let place = sim_sent * place_cost / wall_ns;
    let sample = sim_sent * probe("request.sample_ns_per_req") / wall_ns;
    let model_step = if sim {
        0.0
    } else {
        token_steps * probe("model_exec.us_per_token") * 1e3 / wall_ns
    };
    let unattributed = 1.0 - tick - event - place - sample - model_step;

    let shapes = workloads::kernel_work(args.workload, &outs[0]);
    let ledger: [(&'static str, f64); 25] = [
        ("serve.ns_per_request", layer_ns / summary.sent as f64),
        ("serve.ns_per_token_step", layer_ns / token_steps),
        (
            "cluster.completed",
            if sim { summary.succeeded as f64 } else { 0.0 },
        ),
        ("cluster.generated_tokens", sim_steps),
        ("cluster.preemptions", summary.preemptions as f64),
        ("control.shed", summary.refused as f64),
        ("control.migrations", summary.migrations as f64),
        ("control.requeued", summary.requeued as f64),
        ("control.restarts", summary.restarts as f64),
        ("fault.plan_events", summary.plan_events as f64),
        ("host_tier.swap_outs", summary.swap_outs as f64),
        ("host_tier.swap_pages", summary.swap_pages as f64),
        ("model_exec.serve.steps", summary.func_steps as f64),
        ("model_exec.serve.tokens", summary.func_tokens as f64),
        ("kernels.gemm.macs", shapes.gemm_macs),
        ("kernels.attn.kv_tokens_read", shapes.kv_tokens_read),
        ("kernels.attn.kv_bytes", shapes.kv_bytes),
        ("attrib.tick_frac", tick),
        ("attrib.event_frac", event),
        ("attrib.place_frac", place),
        ("attrib.sample_frac", sample),
        ("attrib.model_step_frac", model_step),
        ("cluster.unattributed_frac", unattributed),
        ("trace.spans", (body_spans + probes.len()) as f64),
        ("trace.overhead_frac", overhead),
    ];
    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            let v = ledger
                .iter()
                .chain(&probes)
                .find(|(n, _)| *n == m.name)
                .map_or(f64::NAN, |(_, v)| *v);
            (m.name, v)
        })
        .collect();
    for (name, v) in &metrics {
        if !v.is_finite() {
            problems.push(format!("per-layer metric {name} was not measured"));
        }
    }
    if probe("bench.golden_mismatches") > 0.0 {
        problems.push(format!(
            "{} golden CSVs differ from tests/golden/",
            probe("bench.golden_mismatches")
        ));
    }
    if probe("model_exec.greedy_match_frac") < 1.0 {
        problems.push("the probe serve differs from solo greedy generation".to_string());
    }
    let bodies = outs.len();
    RunResult {
        args: args.clone(),
        correct: problems.is_empty(),
        attempted: summary.sent * bodies,
        failed: (summary.failed + mismatches) * bodies,
        summary,
        bodies,
        metrics,
        problems,
        body_seconds: plain,
    }
}

impl RunResult {
    fn unit_of(name: &str) -> &'static str {
        crate::metrics::spec_of(name).map_or("", |m| m.unit)
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(name),
                    json::num(*v),
                    json::escape(Self::unit_of(name))
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The richer record `--out` appends and `compare` reads: the
    /// contract's keys plus what identifies the run.
    pub fn record_line(&self) -> String {
        let s = &self.summary;
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, \"seconds\": {}, \
             \"bodies\": {}, \"sent\": {}, \"succeeded\": {}, \"refused\": {}, \"failed\": {}, \
             \"sim_digest\": \"{:016x}\", \"correct\": {}, \"attempted\": {}, \"metrics\": {}}}",
            self.args.workload.name(),
            self.args.seed,
            u8::from(self.args.trace),
            self.args.quick,
            json::num(self.args.seconds),
            self.bodies,
            s.sent,
            s.succeeded,
            s.refused,
            self.failed,
            s.digest,
            self.correct,
            self.attempted,
            self.metrics_json()
        )
    }

    /// The human-readable report: every metric by name with its unit, the
    /// request accounting and the digest.
    pub fn report(&self) -> String {
        let s = &self.summary;
        let mut out = format!(
            "workload {}  seed {}  {}  {} bodies{}\n",
            self.args.workload.name(),
            self.args.seed,
            if self.args.trace {
                "traced pass (per-layer)"
            } else {
                "untraced (end-to-end)"
            },
            self.bodies,
            if self.args.quick {
                "  QUICK (counts / 100; not comparable)"
            } else {
                ""
            },
        );
        out.push_str(&format!(
            "  per body: sent {} / succeeded {} / refused (shed) {} / failed {}   sim_digest {:016x}\n",
            s.sent, s.succeeded, s.refused, s.failed, s.digest
        ));
        out.push_str(&format!(
            "  timed bodies: {} samples, fastest {:.6} s, median {:.6} s, slowest {:.6} s (host)\n",
            self.body_seconds.len(),
            fastest(&self.body_seconds),
            median(&self.body_seconds),
            self.body_seconds.iter().copied().fold(0.0, f64::max),
        ));
        if self.args.trace {
            out.push_str(&format!(
                "  host threads available: {} (the two par2 probes need 2)\n",
                clock::available_parallelism()
            ));
        }
        for (name, v) in &self.metrics {
            let kind = crate::metrics::spec_of(name).map_or("", |m| m.kind);
            out.push_str(&format!(
                "  {:<52} {:>22} {:<6} [{}]\n",
                name,
                json::num(*v),
                Self::unit_of(name),
                kind
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("  CHECK FAILED: {p}\n"));
        }
        out
    }
}
