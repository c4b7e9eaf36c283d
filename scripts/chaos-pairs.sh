#!/usr/bin/env bash
# Parent-vs-change check of the chaos campaigns: `chaos smoke`, `chaos
# sweep` and `chaos failover` on both sides, then every field whose value
# differs between the two JSON documents.
#
#     scripts/chaos-pairs.sh <parent-rev>
#     scripts/chaos-pairs.sh HEAD~1
#
# "Change" is the working tree as it stands; "parent" is <parent-rev>,
# exported with `git archive` into target/chaos-pairs/<sha>/ (git-ignored,
# reused by later calls) and built there — no worktree is registered and
# the checkout is never switched. The documents are kept under
# target/chaos-pairs/out/<side>_<campaign>.json.
#
# A field is an *instant* when its name ends in `_ns` (`crash_at_ns`,
# `run_end_ns`, an injection's `at_ns`, the latency summaries): a change to
# virtual timing may move those. Every other field is a *verdict* field —
# pass, losses, recovered keys, injection kinds, the shape of the
# document — and must not move. The output lists the differing fields of
# each campaign in those two groups, one line per result, and ends with
# one line per campaign. The script exits 1 if any verdict field differs.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/chaos-pairs.sh <parent-rev>" >&2
    exit 2
fi
sha=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "not a commit: $1" >&2
    exit 2
}

parent=target/chaos-pairs/$sha
if [[ ! -d $parent ]]; then
    mkdir -p "$parent.partial"
    git archive "$sha" | tar -x -C "$parent.partial"
    mv "$parent.partial" "$parent"
fi
cargo build --release --quiet --manifest-path "$parent/Cargo.toml" -p nob-chaos --bin chaos
cargo build --release --quiet -p nob-chaos --bin chaos

out=target/chaos-pairs/out
mkdir -p "$out"
for campaign in smoke sweep failover; do
    for side in parent change; do
        bin=target/release/chaos
        [[ $side == parent ]] && bin=$parent/target/release/chaos
        # A failing case exits non-zero; its document is still the evidence.
        "$bin" "$campaign" > "$out/${side}_$campaign.json" 2> /dev/null || true
        echo "chaos $campaign: $side done" >&2
    done
done

python3 - "$out" <<'EOF'
import json
import re
import sys

out = sys.argv[1]


def leaves(value, path, into):
    """Flattens a document into {path: leaf}, keeping number texts exact."""
    if isinstance(value, dict):
        into[path + "{}"] = sorted(value)
        for key, v in value.items():
            leaves(v, f"{path}.{key}" if path else key, into)
    elif isinstance(value, list):
        into[path + "[]"] = len(value)
        for i, v in enumerate(value):
            leaves(v, f"{path}[{i}]", into)
    else:
        into[path] = value
    return into


def load(side, campaign):
    with open(f"{out}/{side}_{campaign}.json") as f:
        return json.load(f, parse_float=str, parse_int=str)


def is_instant(path):
    return path.split(".")[-1].endswith("_ns")


def result_of(path):
    """`results[7]` for a field of the eighth result, else the whole path."""
    head = path.split(".")[0]
    return head if head.startswith("results[") and head.endswith("]") else path


def natural(text):
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", text)]


verdict_moved = False
summary = []
for campaign in ["smoke", "sweep", "failover"]:
    a = leaves(load("parent", campaign), "", {})
    b = leaves(load("change", campaign), "", {})
    diffs = sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))
    groups = {"verdict": {}, "instant": {}}
    for p in diffs:
        group = "instant" if is_instant(p) and p in a and p in b else "verdict"
        result = result_of(p)
        field = f"{p[len(result) + 1:]} " if result != p else ""
        groups[group].setdefault(result, []).append(f"{field}{a.get(p)} -> {b.get(p)}")
    for group, by_result in groups.items():
        if by_result:
            print(f"chaos {campaign}: {group} fields that differ")
            for result in sorted(by_result, key=natural):
                print(f"  {result}: " + ", ".join(by_result[result]))
    verdict_moved |= bool(groups["verdict"])
    moved = groups["verdict"].keys() | groups["instant"].keys()
    results = sum(1 for r in moved if r.startswith("results["))
    summary.append(
        f"chaos {campaign:<8} {results} of {a.get('results[]', 0)} results and "
        f"{len(moved) - results} other fields differ; verdict fields in "
        f"{len(groups['verdict'])}, instants only in {len(moved - groups['verdict'].keys())}"
    )
print("\n".join(summary))
sys.exit(1 if verdict_moved else 0)
EOF
