#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package offline, then
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload in one process: prints every metric by
#       name with its unit, then the contract's JSON object as the last
#       line of standard output (this is the form BENCHMARK.json names);
#
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--quick]
#       the whole ledger: each of the four workloads, untraced then traced,
#       each in its own process (so peak RSS is per workload), records
#       appended to results/benchmark/latest.jsonl;
#
#   benchmark/run.sh compare <parent.jsonl> <change.jsonl>
#   benchmark/run.sh list
#
# Everything runs at one pool thread (the binary pins QSERVE_THREADS=1
# itself); the 2-thread numbers are per-layer probes with pools of their
# own. No --locked: a later change may add an in-tree crate, which has to
# be able to refresh benchmark/Cargo.lock without editing this directory.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

case " $* " in
*" --workload "* | " compare "* | " list "*)
    exec "$bin" "$@"
    ;;
esac

out=results/benchmark/latest.jsonl
mkdir -p "$(dirname "$out")"
rm -f "$out"
for workload in mega_chat longctx_pressure control_churn func_serve; do
    for trace in 0 1; do
        # The contract line is for the driver; the ledger keeps the record.
        "$bin" --workload "$workload" --trace "$trace" --out "$out" "$@" | sed '$d'
    done
done
echo "records appended to $out; compare two such files with: benchmark/run.sh compare A B"
