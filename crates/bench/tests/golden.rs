//! The golden test: every pinned document — the six grid sweeps, the
//! gauge timelines and the fig2a trace summary — must reproduce its
//! checked-in fixture under `tests/golden/` byte for byte, and every
//! sweep's grid must hold that sweep's invariants (monotonicity,
//! ordering, content-hash equality, segment summation, determinism).
//! A second test renders the checked-in fixtures through `report`'s
//! renderer without running anything.
//!
//! If a change *intentionally* alters timing or a schema, regenerate
//! the fixtures and review the diff like any other golden update:
//!
//! ```sh
//! NOB_BLESS=1 cargo test -p nob-bench --test golden
//! ```

use std::path::PathBuf;

use nob_bench::json::Json;
use nob_bench::sweep::{compare_or_bless, GOLDEN_SCALE, PLAIN_DOCUMENTS, SWEEPS};
use nob_bench::Scale;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

#[test]
fn every_document_matches_its_golden_file_and_holds_its_invariants() {
    let scale = Scale::new(GOLDEN_SCALE);
    let mut diverged = Vec::new();
    for sweep in SWEEPS {
        let text = sweep.document(scale);
        sweep.check(&text, scale);
        diverged.extend(compare_or_bless(&golden(sweep.figure), &text).err());
    }
    for (name, produce) in PLAIN_DOCUMENTS {
        diverged.extend(compare_or_bless(&golden(name), &produce(scale)).err());
    }
    assert!(diverged.is_empty(), "stale golden files:\n{}", diverged.join("\n"));
}

/// `report` must render every cell of every checked-in document: a
/// renderer that falls behind a schema fails here, not silently in CI.
#[test]
fn report_renders_every_cell_of_every_golden_document() {
    for sweep in SWEEPS {
        let text = std::fs::read_to_string(golden(sweep.figure)).expect("golden file");
        let doc = Json::parse(&text).expect("golden file parses");
        let grid = sweep.grid(&doc).unwrap_or_else(|| panic!("{}: grid incomplete", sweep.figure));
        let tables =
            (sweep.tables)(grid.cells()).unwrap_or_else(|| panic!("{}: schema", sweep.figure));
        // Together the tables cover the grid exactly: one entry per cell
        // where the columns are an axis, one row per cell where the
        // columns are metrics.
        let sizes: Vec<(usize, usize)> =
            tables.iter().map(|table| (table.labels().0.len(), table.labels().1.len())).collect();
        let cells = grid.cells().len();
        let (rows, entries) = sizes.iter().fold((0, 0), |(r, e), (rs, cs)| (r + rs, e + rs * cs));
        assert!(entries == cells || rows == cells, "{}: {sizes:?} vs {cells} cells", sweep.figure);
        // A hole would be the only source of a placeholder dash, and the
        // renderer refuses a table with a hole instead of printing one.
        nob_bench::report::render(sweep.figure, &doc).expect("renders");
        let Json::Object(mut fields) = doc else { panic!("{}: not an object", sweep.figure) };
        if let Some(Json::Array(cells)) = fields.get_mut(sweep.cells_key) {
            cells.pop();
        }
        let short = Json::Object(fields);
        assert!(nob_bench::report::render(sweep.figure, &short).is_none(), "a cell short");
    }
    for (name, _) in PLAIN_DOCUMENTS {
        let text = std::fs::read_to_string(golden(name)).expect("golden file");
        let doc = Json::parse(&text).expect("golden file parses");
        let markdown = nob_bench::report::render(name, &doc).expect("renders");
        assert!(markdown.starts_with(&format!("## {name} — ")), "{markdown}");
    }
}
