#!/usr/bin/env sh
# Regenerates, together, the two sets of pinned numbers a performance
# change moves: the golden sweep documents under
# crates/bench/tests/golden/ (compared byte-for-byte by nob-bench's
# `golden` test, which Tier-1 and CI both run) and bench/baseline.json
# (what the CI bench-smoke job gates against: throughput must not drop
# >15%, p99 must not rise >25%).
#
# Run this ONLY after an intentional performance change, from the repo
# root, and commit the resulting diff together with the change that
# caused it — after explaining every moved number in EXPERIMENTS.md:
#
#     scripts/regen-bench-baseline.sh
#     git add crates/bench/tests/golden bench/baseline.json
#
# Both or neither: if either step fails (a sweep invariant no longer
# holds, a scenario panics) every file is put back as it was, so goldens
# and baseline can never describe two different states of the code.
#
# Everything runs over virtual time, so the numbers are deterministic:
# regenerating without a code change must produce byte-identical files.
# The sweeps are the entries of nob-bench's `sweep::SWEEPS`, the smoke
# scenarios those of `scenarios::smoke_all` — adding one there is all
# that is needed for it to be pinned here.
#
# To see the gate fail on purpose (e.g. to verify the CI wiring), run
# the smoke binary against a synthetically 2x-slower device:
#
#     cargo run --release -p nob-bench --bin bench_smoke -- --inject-slow-ssd
#
# which must exit nonzero with both throughput and p99 failures.
set -eu
cd "$(dirname "$0")/.."
backup=$(mktemp -d)
cp -R crates/bench/tests/golden "$backup/golden"
cp bench/baseline.json "$backup/baseline.json"
finish() {
    status=$?
    if [ "$status" -ne 0 ]; then
        rm -rf crates/bench/tests/golden
        cp -R "$backup/golden" crates/bench/tests/golden
        cp "$backup/baseline.json" bench/baseline.json
        echo "regen failed: goldens and baseline restored" >&2
    fi
    rm -rf "$backup"
    exit "$status"
}
trap finish EXIT
NOB_BLESS=1 cargo test -p nob-bench --test golden
cargo run --release -p nob-bench --bin bench_smoke -- --write-baseline
git --no-pager diff --stat crates/bench/tests/golden bench/baseline.json || true
