//! The golden test: every pinned document — the paper's figures, the
//! extension sweeps, the gauge timelines and the smoke scenarios — must
//! reproduce its checked-in fixture under `tests/golden/` byte for byte
//! at its pinned scale, and every sweep's grid must hold that sweep's
//! invariants (the paper's shape claims, monotonicity, ordering,
//! content-hash equality, segment summation, determinism). Two more
//! tests read only the checked-in fixtures: `report`'s renderer must
//! render every cell of each, and the generated blocks of
//! `EXPERIMENTS.md` must be exactly those renderings.
//!
//! If a change *intentionally* alters timing or a schema, regenerate
//! the fixtures and the EXPERIMENTS.md blocks together, and review the
//! diff like any other golden update:
//!
//! ```sh
//! NOB_BLESS=1 cargo test -p nob-bench --test golden
//! ```

use std::path::{Path, PathBuf};

use nob_bench::json::Json;
use nob_bench::sweep::{self, compare_or_bless, SWEEPS};
use nob_bench::Scale;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

/// Compares (or, blessing, rewrites) `EXPERIMENTS.md` against itself
/// with the inside of every `<!-- BEGIN <figure> … -->` / `<!-- END … -->`
/// pair replaced by the one renderer's markdown for that figure's
/// checked-in golden. Every paper sweep must have a block.
fn experiments_md_from_goldens() -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let current = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    let mut out = String::new();
    let mut inside_block = false;
    for line in current.split_inclusive('\n') {
        if let Some(rest) = line.strip_prefix("<!-- BEGIN ") {
            let figure = rest.split_whitespace().next().unwrap_or_default();
            let sweep = SWEEPS.iter().find(|s| s.figure == figure);
            let sweep = sweep.unwrap_or_else(|| panic!("EXPERIMENTS.md marks unknown `{figure}`"));
            let text = std::fs::read_to_string(golden(figure)).expect("golden file");
            let doc = Json::parse(&text).expect("golden file parses");
            out.push_str(line);
            out.push_str(&sweep::render(sweep, &doc, true).expect("golden renders"));
            inside_block = true;
        } else if line.starts_with("<!-- END ") {
            out.push_str(line);
            inside_block = false;
        } else if !inside_block {
            out.push_str(line);
        }
    }
    for sweep in SWEEPS.iter().filter(|s| s.figure.starts_with("paper_")) {
        let marker = format!("<!-- BEGIN {} ", sweep.figure);
        assert!(out.contains(&marker), "EXPERIMENTS.md lost its {} block", sweep.figure);
    }
    compare_or_bless(&path, &out)
}

#[test]
fn every_document_matches_its_golden_file_and_holds_its_invariants() {
    // One thread per document (named after it, for the panic message),
    // so the two long ones (`paper_fig4`, `paper_fig5`) overlap on a
    // two-core box instead of adding up.
    let mut diverged: Vec<String> = std::thread::scope(|threads| {
        let spawn = |sweep: &'static sweep::Sweep| {
            let job = move || {
                let scale = Scale::new(sweep.golden_scale);
                let text = sweep.document(scale);
                sweep.check(&text, scale);
                compare_or_bless(&golden(sweep.figure), &text)
            };
            let thread = std::thread::Builder::new().name(sweep.figure.into());
            thread.spawn_scoped(threads, job).expect("spawn")
        };
        let handles: Vec<_> = SWEEPS.into_iter().map(spawn).collect();
        let done =
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        done.filter_map(Result::err).collect()
    });
    // Only now, so that a bless rewrites the blocks from the new goldens.
    diverged.extend(experiments_md_from_goldens().err());
    assert!(diverged.is_empty(), "stale golden files:\n{}", diverged.join("\n"));
}

/// The paper tables in EXPERIMENTS.md are generated, never typed: each
/// marked block equals the rendering of the checked-in golden, so the
/// prose cannot disagree with the tree. (A bless rewrites them in the
/// test above, after the goldens.)
#[test]
fn experiments_md_blocks_are_rendered_from_the_goldens() {
    if std::env::var_os("NOB_BLESS").is_none() {
        experiments_md_from_goldens().unwrap_or_else(|stale| panic!("{stale}"));
    }
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
        nob_bench::report::render(&doc).expect("renders");
        let Json::Object(mut fields) = doc else { panic!("{}: not an object", sweep.figure) };
        if let Some((_, Json::Array(cells))) = fields.iter_mut().find(|(k, _)| k == sweep.cells_key)
        {
            cells.pop();
        }
        let short = Json::Object(fields);
        assert!(nob_bench::report::render(&short).is_none(), "a cell short");
    }
}
