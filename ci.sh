#!/usr/bin/env sh
# Tier-1 verification, fully offline. Any attempt to pull a crates.io
# dependency fails the build immediately — the workspace must stay
# dependency-free (internal path dependencies only). Warnings are
# promoted to errors so zero-warning status is enforced, not incidental.
set -eu

cd "$(dirname "$0")"

export RUSTFLAGS="-D warnings"

cargo build --release --offline --locked --workspace --all-targets

# Contract gate: qserve-lint must find zero unsuppressed violations of the
# determinism/accounting contract before any test runs. Its summary line
# prints the suppression count, so every `lint: allow` stays visible here.
cargo run --release --offline --locked -p qserve-lint

# Tier-1 shape (root package, debug), then the whole workspace in release —
# release reuses the artifacts built above and keeps the heavy bench/model
# suites fast. QSERVE_THREADS=1 pins the golden suite to the sequential
# driver: the reference arm of the determinism contract.
QSERVE_THREADS=1 cargo test -q --offline --locked

# The scheduler audits its `outstanding` counter, and the resident set
# (`crates/serve/src/resident.rs`) its `prefilling` counter, its decodable
# `(count, Σ prefilled)` and its step columns, against full scans with
# `debug_assert`, which release compiles out — with the scheduler's check
# that a page boundary opens exactly one page per layer, and the debug
# oracle of make-room's calendar (`Residents::take_due`: the day's due set
# must equal the scan of `page_end`, in admission order).
# The preemption / swap churn suites, the ledger audit, the twelve pinned
# tight-pool scenarios of the frozen tick, the tick-against-its-reference
# property, the scheduler's, the resident set's (its naive-model property)
# and the ledger's own unit tests (their preemption and growth corners)
# therefore run in debug too (a few seconds,
# reusing the debug libraries built above), so those audits see eviction
# and re-admission — and so does the functional-vs-counts lockstep
# differential (~8 s), so they also see the functional executor, which
# seats each request on its first prefill slice. The KV page pool's own
# unit tests join them: its allocator checks that a popped page is free and
# that storage is handed out at the high-water mark are `debug_assert`s
# too. So do `Request`'s: its lifecycle setters `debug_assert` that
# `generated <= output_len`, that `prefilled <= prefill_len()` and that a
# first token is stamped once, which every suite on these two lines drives.
# `report::` joins them for its fold-merge properties: they draw records
# through those same setters, and the merge that crosses `EXACT_STATS_MAX`
# (columns dropped, sketches merged) runs there under the sketch's bucket
# `debug_assert`s and with overflow checks on the folds' counts — beside
# `selection_is_the_sorted_concatenations_percentile`, which holds the
# percentile selected across each fold's sorted column, in place, to the
# bits of the sorted concatenation's, with its index arithmetic
# overflow-checked. `engine::` joins them for
# `totals_priced_step_equals_the_per_sequence_price_bit_for_bit`: its
# chunked, preempting run drives the cost model (`CostModel`, the one
# implementation of every step price) under the scheduler's and the resident
# set's debug scans, holding each decode price to the public per-sequence
# one (about a second).
# The lib filters are a line of their own: cargo applies a test-name
# filter to every target it runs.
QSERVE_THREADS=1 cargo test -q --offline --locked -p qserve-serve \
    --test preemption_accounting --test swap_accounting --test ledger_audit --test frozen_tick \
    --test reference_tick
QSERVE_THREADS=1 cargo test -q --offline --locked -p qserve-serve --lib -- scheduler:: resident:: ledger:: kv_cache:: \
    request:: report:: engine:: model_exec::tests::functional_serve_ticks_in_lockstep
QSERVE_THREADS=1 cargo test -q --offline --locked --workspace --release

# Memory follows the resident set: the counting-allocator test prints its
# four per-request heap readings (cluster, serve, overload, past the
# threshold), so every log shows the figures the docs quote.
cargo test -q --offline --locked --release -p qserve-serve --test heap_proportional -- --nocapture

# The parallel arm of the contract: regenerate and byte-diff every golden
# CSV again with a 4-thread pool (sweep grids fan out cell-per-task and
# the cluster driver ticks every replica due before the next queue event
# concurrently — same bytes or this fails naming the experiment that
# drifted). Sweep cells call `ServingEngine::serve` from pool workers, and
# `serve` is a one-replica driver run on a one-thread pool of its own: its
# reports must not depend on the pool width either, so `frozen_serve` runs
# at four threads below, beside the frozen tick — and `frozen_report`,
# whose fleets advance their replicas on the global pool, beside it.
QSERVE_THREADS=4 cargo test -q --offline --locked --release -p qserve-bench --test golden_snapshots

# The functional data plane has a parallel arm too: the W4A8 GEMMs fork
# their output columns into panels once n >= 32 and the pool has threads —
# a branch no 1-thread run reaches (the benchmark's included) — and every
# panel reads the one widened activation buffer. Same kernel properties,
# same frozen logits and KV bytes, and the same deployed = evaluated
# property, at four threads. `serve_with` reaches those GEMMs through
# `Scheduler::tick`, so the frozen tick and the functional-vs-counts
# lockstep differential run on this arm too.
QSERVE_THREADS=4 cargo test -q --offline --locked --release -p qserve-kernels
QSERVE_THREADS=4 cargo test -q --offline --locked --release -p qserve-serve --test frozen_func --test frozen_tick --test frozen_serve --test frozen_report
QSERVE_THREADS=4 cargo test -q --offline --locked --release -p qserve-serve --lib functional_serve_ticks_in_lockstep
QSERVE_THREADS=4 cargo test -q --offline --locked --release --test deployed_is_what_is_evaluated

# The reproduce binary is the user-facing entry point; prove it writes CSV
# for the paper table, the prefix/chunk and cluster grids, the (small, so
# full) heterogeneous-fleet grid, and the CI-sized event-core, failure and
# control-plane sweeps (their full ids — `mega_sweep`, `failure_sweep`,
# `elastic_sweep` — take minutes). Clear each artifact first so a stale
# file cannot mask a broken write path.
for id in table1 prefix_sweep cluster_sweep hetero_sweep mega_sweep_smoke \
          failure_sweep_smoke elastic_sweep_smoke; do
    rm -f "results/$id.csv"
    cargo run --release --offline --locked -p qserve-bench --bin reproduce -- "$id" >/dev/null
    test -s "results/$id.csv"
done

# The benchmark is a package of its own (own [workspace] and lock file, so
# no --locked: see benchmark/run.sh): its contract tests, then quick runs
# through the driver's entry point — the functional data plane (outputs
# checked against solo greedy generation inside the run), the paged
# simulator under swap preemption + chunked prefill, the streamed front door
# under overload, and the fault / autoscale cells (the only workload that
# reaches the driver's shed, requeue and park paths). run.sh exits 0 even
# when an output check fails; the verdict is the JSON on the last stdout
# line, so that line is what gets asserted.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in func_serve longctx_pressure mega_chat control_churn; do
    verdict=$(bash benchmark/run.sh --workload "$workload" --quick --seconds 1 --trace 0 | tail -n 1)
    case "$verdict" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
        echo "ci.sh: benchmark smoke '$workload' failed its checks: $verdict" >&2
        exit 1
        ;;
    esac
done

# Every example must run end to end, offline (smoke: exit status only).
for ex in quickstart generate kv4_attention prefix_caching \
          cluster_serving heterogeneous_fleet roofline serving_throughput \
          ablation replica_failover elastic_fleet; do
    cargo run --release --offline --locked --example "$ex" >/dev/null
done

echo "ci.sh: all green"
