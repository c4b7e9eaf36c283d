#!/usr/bin/env bash
# Samples where a command spends its CPU time and prints the result as a
# top-down tree of this repository's functions — the profiler for a sandbox
# that has `cc` and `addr2line` but no perf.
#
#     scripts/hostprof/hostprof.sh [--min-pct P] [--self | --peak | --lines FRAME] \
#         [--under FRAME] <command> [args...]
#     scripts/hostprof/hostprof.sh bench/ledger/target/release/bench_ledger \
#         --workload scan --seed 7 --seconds 10 --trace 0
#
# --self prints a flat self-time table instead of the tree: samples by
# innermost repository frame, with its [memcpy] / [malloc] / [free] /
# [realloc] leaf — which function does the work, where the tree says who
# asked for it. --under FRAME keeps only the samples whose stack passes
# through a function whose name contains FRAME, with shares of those
# samples: `--under '::timed'` leaves a ledger workload's setup out, and
# `--under 'Db>::get'` keeps the engine's GETs (methods resolve as
# `<impl noblsm::db::Db>::get`).
#
# --lines FRAME splits one function's self time by source line: the samples
# --self counts under a frame naming FRAME, grouped by the innermost
# file:line of that frame's address and the leaf below it. With line tables
# (below) the line is often code inlined into FRAME, so a decoder's time
# falls apart into its `?` conversions, its `Vec::push`es and its [malloc]
# calls: `hostprof.sh --lines parse_frame <bench_ledger> --workload scan …`.
#
# --peak asks where the peak resident set is reached rather than where the
# CPU time goes: every sample also records getrusage's ru_maxrss, and the
# table ranks repository functions by the KB that high-water mark rose
# while they were on the stack — the phase that sets a run's peak RSS
# (`host_peak_rss_mb` of the ledger) without instrumenting the program.
# `hostprof.sh --peak bench/ledger/target/release/bench_ledger --workload
# serve --seed 1 --seconds 10 --trace 0` names the functions that drove
# serve's peak. A rise is charged to the thread the timer interrupted, and
# only a new mark counts: memory a phase allocates and keeps shows where it
# pushed the mark up, and otherwise as a higher floor for later phases.
#
# Builds the LD_PRELOAD shim (hostprof.c) into target/hostprof/, runs the
# command under it — its output goes to stderr, so stdout is the tree alone —
# and feeds the samples to report.py. Name the program itself, not `cargo
# run`: the shim profiles the process it is loaded into and nothing that
# process spawns. Sampling is on CPU time (ITIMER_PROF), and the kernel here
# ticks at 250 Hz: a sample every 4 ms, about 250 per busy second, so ten
# seconds of the ledger give a tree whose 1 % lines rest on ~25 samples.
# Lines below --min-pct (default 1) are hidden. Function names come from the
# symbol table; build with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only to
# see inlined frames as well. The raw samples stay in target/hostprof/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
cd "$here/../.."

min_pct=1
view=()
while [[ ${1:-} == --min-pct || ${1:-} == --self || ${1:-} == --peak || ${1:-} == --under ||
    ${1:-} == --lines ]]; do
    case $1 in
        --self | --peak)
            view+=("$1")
            shift
            ;;
        --under | --lines)
            view+=("$1" "${2:?$1 needs a frame name}")
            shift 2
            ;;
        *)
            min_pct=${2:?--min-pct needs a value}
            shift 2
            ;;
    esac
done
if [[ $# -eq 0 ]]; then
    sed -n '2,/^set -euo/{/^set -euo/!s/^# \{0,1\}//p}' "$0" >&2
    exit 2
fi
for tool in cc addr2line python3; do
    if ! command -v "$tool" > /dev/null; then
        echo "hostprof: \`$tool\` is not installed; it needs cc, addr2line and python3" >&2
        exit 2
    fi
done

out=target/hostprof
mkdir -p "$out"
cc -O2 -fPIC -shared -o "$out/hostprof.so" "$here/hostprof.c" -ldl
samples=$out/samples.$$
HOSTPROF_OUT=$samples LD_PRELOAD=$PWD/$out/hostprof.so "$@" >&2
python3 "$here/report.py" "$samples" --min-pct "$min_pct" "${view[@]}"
