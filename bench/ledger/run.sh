#!/usr/bin/env bash
# Builds bench_ledger and runs its own tests (the repository's tier-1
# `cargo test` does not reach this package), measures every workload
# (run), traces every workload (trace), then measures again and compares
# the two runs of the same code against the benchmark's own bounds — the
# A/A check. Everything runs at the binary's default seed, 42.
#
#   bench/ledger/run.sh           full sizes, 7 repetitions, compare enforced
#   bench/ledger/run.sh --quick   1/20 sizes, 1 repetition, no bounds (a smoke test)
#
# Outputs land in bench/ledger/out/ (git-ignored): run_a.json, trace.json,
# run_b.json and BENCH.json = {"run": run_a, "trace": trace}, the file to
# check in as bench/ledger/BENCH_<pr>.json.
set -euo pipefail
cd "$(dirname "$0")/../.."

quick=()
if [[ "${1:-}" == "--quick" ]]; then
    quick=(--quick)
fi
out=bench/ledger/out
mkdir -p "$out"

cargo build --release --quiet --manifest-path bench/ledger/Cargo.toml
cargo test --release --quiet --manifest-path bench/ledger/Cargo.toml
ledger=(cargo run --release --quiet --manifest-path bench/ledger/Cargo.toml --)

"${ledger[@]}" run --workload all "${quick[@]}" --out "$out/run_a.json"
"${ledger[@]}" trace --workload all "${quick[@]}" --out "$out/trace.json"
"${ledger[@]}" run --workload all "${quick[@]}" --out "$out/run_b.json"

printf '{\n"run": %s,\n"trace": %s\n}\n' "$(cat "$out/run_a.json")" "$(cat "$out/trace.json")" \
    > "$out/BENCH.json"

if [[ ${#quick[@]} -eq 0 ]]; then
    "${ledger[@]}" compare "$out/run_a.json" "$out/run_b.json"
else
    # One repetition of a twentieth of the work resolves nothing: show
    # the table, do not gate on it.
    "${ledger[@]}" compare "$out/run_a.json" "$out/run_b.json" || true
fi
