//! Public-API golden test: the rustdoc-visible surface of every crate
//! another crate builds on (`lex::CRATES`) is dumped to
//! `tests/golden/api_surface.txt` and compared byte-for-byte, so an
//! unreviewed API change fails CI the same way an unreviewed figure
//! change does. `tests/dep_graph.rs` caps the file's length, so the
//! surface only shrinks unless a PR raises the cap on purpose.
//!
//! The dump is a lexical scan of the crates' sources (`lex::surface`):
//! every `pub` declaration (functions, structs and their public fields,
//! enums, traits, consts, type aliases, modules and re-exports) outside
//! `#[cfg(test)]` blocks, with signatures truncated at the body. It is a
//! drift detector, not a compiler — if the surface changed *on purpose*,
//! rebless and review the diff like any other golden update:
//!
//! ```sh
//! NOB_BLESS=1 cargo test --test api_surface     # or scripts/api-surface.sh --bless
//! ```
//!
//! `scripts/api-unused.sh` prints the declarations no file outside their
//! crate names, found by the same scanner.

mod lex;

use std::path::PathBuf;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/api_surface.txt");

#[test]
fn public_api_surface_matches_golden_file() {
    let got = lex::surface();
    if std::env::var_os("NOB_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("missing golden fixture; generate with NOB_BLESS=1 cargo test --test api_surface");
    assert_eq!(
        got,
        want,
        "the public API surface of {} drifted from tests/golden/api_surface.txt; if the change \
         is intentional, rebless with NOB_BLESS=1 and review the diff",
        lex::crate_list()
    );
}

#[test]
fn surface_extraction_sees_the_canonical_entry_points() {
    // Self-check that the lexical scan actually captures the canonical
    // API — guards against the extractor silently going blind.
    let doc = lex::surface();
    for needle in [
        "pub fn write(&mut self, wopts: &WriteOptions, batch: WriteBatch) -> Result<Nanos>",
        "pub struct ReadOptions<'a>",
        "pub struct WriteOptions",
        "pub fn enqueue(&mut self, wopts: &WriteOptions, batch: &WriteBatch) -> Ticket",
        "pub struct StoreOptions",
        "pub enum DbError",
    ] {
        assert!(doc.contains(needle), "surface dump must contain `{needle}`");
    }
    for (label, _) in lex::CRATES {
        assert!(doc.contains(&format!("\n== {label} ==\n")), "surface dump must pin {label}");
    }
    // And that test-module internals and restricted visibility never leak
    // into the surface.
    assert!(!doc.contains("mod tests"), "cfg(test) modules must be excluded");
    assert!(!doc.contains("pub("), "pub(crate) and pub(super) are not surface");
    let restricted = "pub(crate) fn a() {}\npub(super) struct B;\n\
                      pub struct C {\n    pub(crate) d: u8,\n    pub e: u8,\n}\n\
                      #[cfg(test)]\n#[allow(unused)]\npub fn f() {}\npub fn g() {}\n";
    assert_eq!(lex::declarations(restricted), ["pub struct C", "pub e: u8", "pub fn g()"]);
}

#[test]
fn the_candidate_search_reports_exactly_the_uncalled_item() {
    let source =
        |path: &str, text: &str| lex::Source { path: PathBuf::from(path), text: text.into() };
    let own = [source(
        "crates/fixture/src/lib.rs",
        "/// ```\n/// fixture::named_in_a_doctest();\n/// ```\npub fn named_in_a_doctest() {}\n\
         pub fn named_by_the_ledger() {}\n\
         // never_called_fixture() is mentioned here, inside its own crate only.\n\
         pub fn never_called_fixture() { named_by_the_ledger() }\n\
         pub(crate) fn restricted_fixture() {}\n",
    )];
    let outside =
        [source("bench/ledger/src/main.rs", "fn main() { fixture::named_by_the_ledger(); }")];
    assert_eq!(
        lex::unused(&own, &outside),
        ["crates/fixture/src/lib.rs: pub fn never_called_fixture()  [`never_called_fixture`]"]
    );
    assert_eq!(lex::declared_names("pub use a::{b::C, D as E, self};"), ["C", "E"]);
    assert_eq!(lex::declared_names("pub const fn len(&self) -> usize"), ["len"]);
    assert_eq!(lex::declared_names("pub seq: u64"), ["seq"]);
}

/// The search `scripts/api-unused.sh` prints (run with `--nocapture`).
#[test]
fn lists_the_unused_candidates() {
    print!("{}", lex::unused_candidates());
}
