#!/usr/bin/env bash
# Parent-vs-change measurement of one bench_ledger workload by the
# protocol a host-clock claim must use (bench/ledger/README.md; the
# choosing-metrics guide, "Measuring in a small sandbox"): N pairs of runs,
# parent and change alternating which goes first, the benchmark's own run
# length, and per end-to-end metric both medians, both quartile pairs and
# how many pairs the change won.
#
#     scripts/ledger-pairs.sh <parent-rev> <workload>|all [pairs=10]
#     scripts/ledger-pairs.sh <parent-rev> <workload>|all --counters a,b,c
#     scripts/ledger-pairs.sh HEAD~1 read
#     scripts/ledger-pairs.sh HEAD~1 all
#     scripts/ledger-pairs.sh HEAD~1 scan --counters core.cache_misses,store.groups
#
# `all` measures every workload BENCHMARK.json lists, one after the other.
# The output ends with one verdict line per workload — which metrics earned
# `claim`, which are worse than their bound, which virtual metrics differ
# inside a same-seed pair (and whether the worst pair stays inside the
# bound) — because a change is rejected on any of the metric x workload
# cells, not only on the one it claims.
#
# "Change" is the working tree as it stands; "parent" is <parent-rev>,
# exported with `git archive` into target/ledger-pairs/<sha>/ (git-ignored,
# reused by later calls) and built there from its own bench/ledger — no
# worktree is registered and the checkout is never switched. Both sides
# run the driver's command line (`--workload W --seed S --seconds
# <run_seconds of BENCHMARK.json> --trace 0`); pair i uses seed i on both
# sides, so a virtual metric that differs inside a pair is a behaviour
# change, not noise. Each run's result line is kept under
# target/ledger-pairs/out/<workload>/.
#
# A gain may be claimed for a metric only on the last column's `claim`:
# at least ten pairs were run,
# the change won at least nine tenths of the pairs (ties count for
# neither) and the medians differ by more than the parent's own
# interquartile distance. A metric is `WORSE` when the change's median is
# worse than the parent's by more than the metric's `bound`. A virtual
# metric (every one but `setup_s` and `host_*`) that any pair disagrees on
# also shows, beside the median's delta, the worst pair's delta signed in
# the metric's own "worse" direction (positive = the change is worse), and
# is `DIFFERS` when even that pair is inside the bound, `DIFFERS>BOUND`
# when a pair is beyond it. Nothing else should run on the box meanwhile.
#
# `--counters` answers the other question a perf change is asked — is the
# saving where it was claimed? — and runs no pairs: one `--trace 1` run per
# side at seed 1, then the named per-layer rows of BENCHMARK.json side by
# side, `=` where they repeat exactly and the change's delta where they do
# not. A name neither result line carries is an error, not an equal.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/ledger-pairs.sh <parent-rev> <workload>|all [pairs=10 | --counters a,b,c]"
if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "$usage" >&2
    exit 2
fi
workload=$2
pairs=10
counters=
if [[ ${3:-} == --counters ]]; then
    counters=${4:-}
    if ! [[ $counters =~ ^[a-z0-9_.]+(,[a-z0-9_.]+)*$ ]]; then
        echo "--counters takes a comma-separated list of per-layer metric names, got \`$counters\`" >&2
        echo "$usage" >&2
        exit 2
    fi
elif [[ $# -eq 4 ]]; then
    echo "$usage" >&2
    exit 2
else
    pairs=${3:-10}
fi
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "pairs must be an integer >= 1, got \`$pairs\`" >&2
    echo "$usage" >&2
    exit 2
fi
listed=$(sed -n 's/.*{"name": "\([a-z]*\)", "why".*/\1/p' BENCHMARK.json | tr '\n' ' ')
if [[ $workload == all ]]; then
    workloads=$listed
elif [[ " $listed" == *" $workload "* ]]; then
    workloads=$workload
else
    echo "unknown workload \`$workload\` (BENCHMARK.json lists: ${listed}or \`all\`)" >&2
    exit 2
fi
sha=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "not a commit: $1" >&2
    exit 2
}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)

parent=target/ledger-pairs/$sha
if [[ ! -d $parent ]]; then
    mkdir -p "$parent.partial"
    git archive "$sha" | tar -x -C "$parent.partial"
    mv "$parent.partial" "$parent"
fi
cargo build --release --quiet --manifest-path "$parent/bench/ledger/Cargo.toml"
cargo build --release --quiet --manifest-path bench/ledger/Cargo.toml

parent_bin=$parent/bench/ledger/target/release/bench_ledger
change_bin=bench/ledger/target/release/bench_ledger

# Runs the pairs of one workload and prints its table: one line per
# end-to-end metric of BENCHMARK.json (name, direction and bound come from
# there, the values from the result lines).
measure() { # workload
    local workload=$1 out=target/ledger-pairs/out/$1 i side
    rm -rf "$out"
    mkdir -p "$out"
    run() { # side binary seed
        "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1 \
            > "$out/$1_$3.json"
    }
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2 == 1)); then
            run parent "$parent_bin" "$i"
            run change "$change_bin" "$i"
        else
            run change "$change_bin" "$i"
            run parent "$parent_bin" "$i"
        fi
        echo "$workload: pair $i/$pairs done" >&2
    done

    echo "workload $workload: parent ${sha:0:7} vs working tree, $pairs pairs, seeds 1..$pairs, ${seconds} s per run"
    for side in parent change; do
        echo "$side failed operations: $(cat "$out/$side"_*.json | sed -n 's/.*"failed": \([0-9]*\),.*/\1/p' | awk '{ n += $1 } END { print n + 0 }')"
    done
    sed -n 's/.*{"name": "\([a-z_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1 \2 \3/p' BENCHMARK.json |
        while read -r metric better bound; do
            for side in parent change; do
                for ((i = 1; i <= pairs; i++)); do
                    sed -n "s/.*\"$metric\": {\"value\": \([-0-9.e+]*\),.*/$side $i \1/p" "$out/${side}_$i.json"
                done
            done | awk -v metric="$metric" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
                { v[$1, $2] = $3; n[$1]++ }
                function sorted(side,    i, j, t) {
                    for (i = 1; i <= pairs; i++) s[i] = v[side, i]
                    for (i = 2; i <= pairs; i++)
                        for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
                }
                # Quartiles by the exclusive method, as bench_ledger and the driver compute them.
                function quantile(q,    p, j) {
                    if (pairs == 1) return s[1]
                    p = q * (pairs + 1) / 4; j = int(p)
                    if (j < 1) j = 1
                    if (j > pairs - 1) j = pairs - 1
                    return s[j] + (p - j) * (s[j + 1] - s[j])
                }
                END {
                    if (n["parent"] != pairs || n["change"] != pairs) {
                        printf "%-17s missing from a result line (a run failed?)\n", metric
                        exit 1
                    }
                    sorted("parent"); pm = quantile(2); p1 = quantile(1); p3 = quantile(3)
                    sorted("change"); cm = quantile(2); c1 = quantile(1); c3 = quantile(3)
                    # d is signed so that positive means the change is worse.
                    for (i = 1; i <= pairs; i++) {
                        d = v["change", i] - v["parent", i]
                        if (better == "higher") d = -d
                        if (d < 0) wins++; else if (d > 0) losses++
                        base = v["parent", i] < 0 ? -v["parent", i] : v["parent", i]
                        rel = (base != 0) ? d / base : (d != 0) ? 1e300 : 0
                        if (i == 1 || rel > worst) worst = rel
                    }
                    gain = (better == "higher") ? cm - pm : pm - cm
                    verdict = (pairs >= 10 && wins * 10 >= pairs * 9 && gain > p3 - p1) ? "claim" : \
                              (wins + losses == 0) ? "equal" : "-"
                    if (pm != 0 && -gain / (pm < 0 ? -pm : pm) > bound) verdict = verdict " WORSE"
                    virtual = metric != "setup_s" && metric !~ /^host_/
                    differs = virtual && wins + losses > 0
                    if (differs) verdict = verdict ((worst > bound) ? " DIFFERS>BOUND" : " DIFFERS")
                    printf "%-17s %-6s parent %.6g [%.6g .. %.6g]  change %.6g [%.6g .. %.6g]  %+.1f%%%s  wins %d/%d losses %d  %s\n", \
                        metric, better, pm, p1, p3, cm, c1, c3, (pm != 0) ? (cm - pm) / pm * 100 : 0, \
                        differs ? sprintf(" (worst pair %+.1f%% worse)", worst * 100) : "", wins, pairs, losses, verdict
                }'
        done
}

# One traced run per side at seed 1 and the named per-layer rows side by
# side. Fails when a name is on neither result line.
trace_counters() { # workload
    local workload=$1 out=target/ledger-pairs/out/$1 side bin name missing=0
    mkdir -p "$out"
    for side in parent change; do
        bin=${side}_bin
        "${!bin}" --workload "$workload" --seed 1 --seconds "$seconds" --trace 1 | tail -n 1 \
            > "$out/${side}_trace.json"
    done
    echo "workload $workload: parent ${sha:0:7} vs working tree, --trace 1, seed 1"
    for name in ${counters//,/ }; do
        for side in parent change; do
            sed -n "s/.*\"${name//./\\.}\": {\"value\": \([-0-9.e+]*\),.*/$side \1/p" "$out/${side}_trace.json"
        done | awk -v name="$name" '
            { v[$1] = $2; n++ }
            END {
                if (n != 2) { printf "%-32s missing from a traced result line\n", name; exit 1 }
                delta = (v["parent"] == v["change"]) ? "=" : \
                        (v["parent"] != 0) ? sprintf("%+.1f%%", (v["change"] - v["parent"]) / v["parent"] * 100) : "from 0"
                printf "%-32s parent %-14.10g change %-14.10g %s\n", name, v["parent"], v["change"], delta
            }' || missing=1
    done
    return $missing
}

# One line saying what a table amounts to: the last column's words, each
# with the metrics that earned it.
verdict() { # workload table-file
    awk -v workload="$1" '
        $2 == "higher" || $2 == "lower" {
            for (i = NF; i > 0 && $i ~ /^(claim|equal|-|WORSE|DIFFERS|DIFFERS>BOUND)$/; i--) seen[$i] = seen[$i] " " $1
            next
        }
        / failed operations: / { failed[$1] = $4 }
        /missing from a result line/ { seen["WORSE"] = seen["WORSE"] " " $1 "(missing)" }
        END {
            printf "verdict %-6s claim:%s | worse than bound:%s | virtual metric differs, worst pair inside bound:%s | differs, a pair beyond bound:%s | failed operations: parent %d change %d\n", \
                workload, (seen["claim"] == "") ? " no claim" : seen["claim"], \
                (seen["WORSE"] == "") ? " none" : seen["WORSE"], \
                (seen["DIFFERS"] == "") ? " none" : seen["DIFFERS"], \
                (seen["DIFFERS>BOUND"] == "") ? " none" : seen["DIFFERS>BOUND"], failed["parent"], failed["change"]
        }' "$2"
}

mkdir -p target/ledger-pairs/out
if [[ -n $counters ]]; then
    status=0
    for workload in $workloads; do
        trace_counters "$workload" || status=1
    done
    exit $status
fi
for workload in $workloads; do
    measure "$workload" | tee "target/ledger-pairs/out/$workload.table"
done
for workload in $workloads; do
    verdict "$workload" "target/ledger-pairs/out/$workload.table"
done
