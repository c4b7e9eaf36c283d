#!/usr/bin/env sh
# Checks (default) or reblesses (--bless) the public-API golden file
# tests/golden/api_surface.txt: the rustdoc-visible surface of every crate
# listed in `CRATES` (tests/lex/mod.rs), pinned so unreviewed API drift
# fails CI. tests/dep_graph.rs caps the file at MAX_SURFACE_LINES.
#
#     scripts/api-surface.sh            # compare against the golden file
#     scripts/api-surface.sh --bless    # regenerate after an intentional
#                                       # API change, then review the diff:
#     git diff tests/golden/api_surface.txt
set -eu
cd "$(dirname "$0")/.."
if [ "${1:-}" = "--bless" ]; then
    NOB_BLESS=1 cargo test --quiet --test api_surface
    git --no-pager diff --stat tests/golden/api_surface.txt || true
else
    cargo test --quiet --test api_surface
fi
