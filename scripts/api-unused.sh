#!/usr/bin/env sh
# Prints the candidates for narrowing: every `pub` declaration of the
# crates tests/golden/api_surface.txt pins whose name no file outside its
# crate mentions (other crates, the root package, bench/ledger, the
# crate's own integration tests, examples and doctests). The search is the
# golden's own lexical scanner (tests/lex/mod.rs), so a name it lists is
# on the pinned surface, and a name it does not list may still be unused:
# a common name (`new`, `len`) matches anywhere.
#
#     scripts/api-unused.sh
#
# A type that a `pub` signature or a struct literal elsewhere needs stays
# `pub` even when nothing outside names it; the compiler says which.
set -eu
cd "$(dirname "$0")/.."
cargo test --quiet --test api_surface lists_the_unused_candidates -- --exact --nocapture |
    grep -v -e '^running ' -e '^test result: ' -e '^\.*$'
