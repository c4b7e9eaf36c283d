//! The one figure binary: runs one golden-pinned document, the paper's
//! figures, or all of them — each at the scale its golden is pinned at
//! unless `--scale N` says otherwise — prints the tables, writes
//! `target/nob-results/<figure>.json` for `report`, and then checks the
//! sweep's invariants, so a run at a documented scale fails on a shape
//! claim that does not hold there.
//!
//! ```text
//! fig <name>|paper|all [--scale N]      name: paper_fig4, shards, timeline, …
//! ```
//!
//! The sweeps themselves are the entries of `nob_bench::sweep::SWEEPS`
//! (plus the gauge timelines and the fig2a trace, which are not grids);
//! this binary knows nothing about any one of them.

use nob_bench::json::Json;
use nob_bench::sweep::{self, PLAIN_DOCUMENTS, SWEEPS};
use nob_bench::Scale;

/// A document's command-line name: its id without the `fig_` of the
/// extension sweeps (`fig_shards` → `shards`, `paper_fig4` as is).
fn name(figure: &str) -> &str {
    figure.strip_prefix("fig_").unwrap_or(figure)
}

/// Prints a produced document's tables and writes its result file.
fn emit(figure: &str, text: &str, render: impl Fn(&Json) -> Option<String>) -> Json {
    let doc = Json::parse(text).expect("a produced document parses");
    print!("{}", render(&doc).expect("a produced document renders"));
    let path = nob_bench::output::save(figure, text).expect("write results json");
    println!("wrote {} ({} bytes)\n", path.display(), text.len());
    doc
}

fn main() {
    let scale = Scale::from_args();
    let at = |pinned: u64| scale.unwrap_or(Scale::new(pinned));
    let wanted = std::env::args().nth(1).unwrap_or_default();
    let selected = |figure: &str| match wanted.as_str() {
        "all" => true,
        "paper" => figure.starts_with("paper_"),
        one => name(figure) == one,
    };
    let figures = SWEEPS.iter().map(|s| s.figure).chain(PLAIN_DOCUMENTS.iter().map(|d| d.0));
    if !figures.clone().any(selected) {
        let names: Vec<&str> = figures.map(name).collect();
        eprintln!("usage: fig <{}|paper|all> [--scale N]", names.join("|"));
        std::process::exit(2);
    }
    for s in SWEEPS.iter().filter(|s| selected(s.figure)) {
        let text = s.document(at(s.golden_scale));
        let doc = emit(s.figure, &text, |doc| sweep::render(s, doc, false));
        (s.invariants)(&s.grid(&doc).expect("a produced document covers its grid"));
    }
    for (figure, pinned, produce) in PLAIN_DOCUMENTS.into_iter().filter(|d| selected(d.0)) {
        emit(figure, &produce(at(pinned)), |doc| nob_bench::report::render(figure, doc));
    }
}
