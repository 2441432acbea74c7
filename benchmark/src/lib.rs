//! The repository's benchmark: four named workloads, end-to-end metrics in
//! host time and simulated time, and an outside-in per-layer ledger.
//!
//! See `benchmark/README.md` for the metric dictionary, the workload
//! rationale and the protocol a performance claim has to follow. The
//! module map:
//!
//! * [`surface`] — every name the benchmark binds to in the program under
//!   test, imported in that one file;
//! * [`clock`] — the only file that reads host time, the command line or
//!   `/proc` (each use under a reasoned `qserve-lint` allow);
//! * [`metrics`] — workload and metric tables (names, units, bounds);
//! * [`workloads`] — set-up, timed body, summary and shape checks;
//! * [`trace`] — in-memory spans around calls into each layer;
//! * [`probes`] — the per-layer probes of the traced pass;
//! * [`run`] — one run: untraced (end-to-end) or traced (per-layer);
//! * [`compare`] — `benchmark compare A B`: medians, spreads, verdicts;
//! * [`json`] — hand-rolled writer and reader for the result lines.

pub mod clock;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod surface;
pub mod trace;
pub mod workloads;
