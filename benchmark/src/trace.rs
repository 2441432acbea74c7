//! In-memory spans around the benchmark's calls into each layer.
//!
//! This is the outside-in half of tracing: every span is opened and closed
//! in `benchmark/src/`, around a call into a layer's public functions.
//! Spans *inside* the program (per event kind, scheduler vs engine inside
//! a tick, report aggregation) are the tracing issue's job.
//!
//! A span records its name, start and end (host ns since the tracer was
//! made), the span that caused it, and the workload it belongs to. Spans
//! stay in memory and are summarised when the run ends. With tracing off
//! [`Tracer::span`] is a direct call — end-to-end metrics are measured
//! that way, and the traced pass reports the difference as
//! `trace.overhead_frac`.

use crate::clock::Stopwatch;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call` name, e.g. `cluster.serve_paged`.
    pub name: &'static str,
    /// Host ns from the tracer's origin to the span's start.
    pub start_ns: f64,
    /// Host ns from the tracer's origin to the span's end.
    pub end_ns: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the workload in [`crate::metrics::WORKLOADS`].
    pub workload: usize,
}

/// Records spans when on; a plain call-through when off.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    workload: usize,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: Stopwatch::start(),
            workload: 0,
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer for workload number `workload`.
    pub fn on(workload: usize) -> Self {
        Self {
            on: true,
            workload,
            ..Self::off()
        }
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span). `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.nanos(),
            end_ns: 0.0,
            parent: self.open.last().copied(),
            workload: self.workload,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.nanos();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total host ns inside spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::on(2);
        let v = t.span("outer", |t| {
            let a = t.span("inner", |_| (0..10_000u64).sum::<u64>());
            let b = t.span("inner", |_| (0..10_000u64).sum::<u64>());
            a + b
        });
        assert_eq!(v, 2 * 49_995_000);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.workload == 2 && s.end_ns >= s.start_ns));
        assert!(t.total_ns("outer") >= t.total_ns("inner"));
    }

    #[test]
    fn off_records_nothing_and_still_calls() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
