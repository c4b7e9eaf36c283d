//! The one figure binary: runs one golden-pinned document, the paper's
//! figures, or all of them — each at the scale its golden is pinned at
//! unless `--scale N` says otherwise — prints the tables, writes
//! `target/nob-results/<figure>.json` for `report`, and then checks the
//! sweep's invariants, so a run at a documented scale fails on a shape
//! claim that does not hold there.
//!
//! ```text
//! fig <name>|paper|all [--scale N]      name: paper_fig4, shards, smoke, …
//! ```
//!
//! The documents are the entries of `nob_bench::sweep::SWEEPS`; this
//! binary knows nothing about any one of them.

use nob_bench::sweep::{self, SWEEPS};
use nob_bench::Scale;
use nob_sim::json::Json;

/// A document's command-line name: its id without the `fig_` of the
/// extension sweeps (`fig_shards` → `shards`, `paper_fig4` as is).
fn name(figure: &str) -> &str {
    figure.strip_prefix("fig_").unwrap_or(figure)
}

fn main() {
    let scale = Scale::from_args();
    let wanted = std::env::args().nth(1).unwrap_or_default();
    let selected = |figure: &str| match wanted.as_str() {
        "all" => true,
        "paper" => figure.starts_with("paper_"),
        one => name(figure) == one,
    };
    if !SWEEPS.iter().any(|s| selected(s.figure)) {
        let names: Vec<&str> = SWEEPS.iter().map(|s| name(s.figure)).collect();
        eprintln!("usage: fig <{}|paper|all> [--scale N]", names.join("|"));
        std::process::exit(2);
    }
    for s in SWEEPS.iter().filter(|s| selected(s.figure)) {
        let text = s.document(scale.unwrap_or(Scale::new(s.golden_scale)));
        let doc = Json::parse(&text).expect("a produced document parses");
        print!("{}", sweep::render(s, &doc, false).expect("a produced document renders"));
        let path = nob_bench::output::save(s.figure, &text).expect("write results json");
        println!("wrote {} ({} bytes)\n", path.display(), text.len());
        (s.invariants)(&s.grid(&doc).expect("a produced document covers its grid"));
    }
}
