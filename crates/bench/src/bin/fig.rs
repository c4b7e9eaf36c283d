//! The sweep binary: runs one golden-pinned sweep (or all of them) at
//! the default scale the golden test pins, prints its tables and writes
//! `target/nob-results/<figure>.json` for `report`.
//!
//! ```text
//! fig <shards|server|repl|breakdown|scan|compact|timeline|all> [--scale N]
//! ```
//!
//! The sweeps themselves are the entries of `nob_bench::sweep::SWEEPS`
//! (plus the gauge timelines, which are not a grid); this binary knows
//! nothing about any one of them.

use nob_bench::json::Json;
use nob_bench::sweep::{self, GOLDEN_SCALE, PLAIN_DOCUMENTS, SWEEPS};
use nob_bench::Scale;

fn main() {
    let scale = Scale::from_args(GOLDEN_SCALE);
    let documents = SWEEPS.iter().map(|s| s.figure).chain(PLAIN_DOCUMENTS.iter().map(|d| d.0));
    let names: Vec<&str> = documents.filter_map(|figure| figure.strip_prefix("fig_")).collect();
    let wanted = std::env::args().nth(1).unwrap_or_default();
    if wanted != "all" && !names.contains(&wanted.as_str()) {
        eprintln!("usage: fig <{}|all> [--scale N]", names.join("|"));
        std::process::exit(2);
    }
    for name in names.iter().filter(|n| wanted == "all" || **n == wanted) {
        let figure = format!("fig_{name}");
        let sweep = SWEEPS.iter().find(|s| s.figure == figure);
        let plain = PLAIN_DOCUMENTS.iter().find(|d| d.0 == figure);
        let text = match sweep {
            Some(s) => s.document(scale),
            None => plain.expect("names come from these two tables").1(scale),
        };
        let doc = Json::parse(&text).expect("a produced document parses");
        let rendered = match sweep {
            Some(s) => sweep::render(s, &doc, false),
            None => nob_bench::report::render(&figure, &doc),
        };
        print!("{}", rendered.expect("a produced document renders"));
        let path = nob_bench::output::save(&figure, &text).expect("write results json");
        println!("wrote {} ({} bytes)\n", path.display(), text.len());
    }
}
