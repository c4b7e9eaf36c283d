//! The one sweep harness: a sweep is a table entry ([`Sweep`]) and
//! everything generic about sweeps lives here exactly once — grid
//! iteration, the JSON document format, the fixed-seed key stream,
//! stdout/markdown rendering and the golden compare/bless.
//!
//! A sweep module (`shards`, `server`, `repl`, `breakdown`, `scan`,
//! `compact`, `timeline`, `scenarios` for the smoke scenarios, `chaos`
//! for the crash and failover cases, and `paper` for the paper's own
//! figures) keeps only what is particular
//! to it: why it exists, its workload (`run_cell`), how its cells read
//! as tables (`tables`) and the properties its grid must show
//! (`invariants`). Adding a sweep is adding one entry to
//! [`SWEEPS`]: the `fig` binary, the golden test, `report`,
//! EXPERIMENTS.md's generated blocks, CI and the artifact list pick it
//! up from there.
//!
//! Readers of a sweep — the renderer and the invariants — work on the
//! *parsed document*, never on in-memory rows, so what is asserted and
//! rendered is exactly what the golden file pins and what `report`
//! finds under `target/nob-results/`.

use std::path::Path;

use nob_sim::json::Json;

use crate::output::Pivot;
use crate::Scale;

/// One cell of a sweep: named values, in document order.
pub type Row = Vec<(&'static str, Json)>;

/// One axis of a sweep's grid. Values are integers; a discipline axis
/// holds indices into [`crate::shards::disciplines`].
#[derive(Debug)]
pub struct Axis {
    /// What the axis varies (for messages; cells name their own fields).
    pub name: &'static str,
    /// The points on the axis, in sweep order.
    pub values: &'static [u64],
}

/// The discipline axis shared by every sweep that compares Sync, Async
/// and NobLSM: indices into [`crate::shards::disciplines`].
pub const DISCIPLINES: Axis = Axis { name: "discipline", values: &[SYNC, ASYNC, NOBLSM] };
/// Position of the Sync discipline on [`DISCIPLINES`].
pub const SYNC: u64 = 0;
/// Position of the Async discipline on [`DISCIPLINES`].
pub const ASYNC: u64 = 1;
/// Position of the NobLSM discipline on [`DISCIPLINES`].
pub const NOBLSM: u64 = 2;

/// A sweep definition: everything that distinguishes one sweep from
/// another, as plain data and plain functions.
pub struct Sweep {
    /// Document id and result-file stem, e.g. `"fig_shards"`.
    pub figure: &'static str,
    /// Human title for headings.
    pub title: &'static str,
    /// JSON key of the cell array (the schema marker of old).
    pub cells_key: &'static str,
    /// Fixed integer fields written between `scale` and the cells.
    pub header: &'static [(&'static str, u64)],
    /// The scale the golden document is pinned at (and the `fig`
    /// default): the largest whose dev-profile run Tier-1 can afford.
    pub golden_scale: u64,
    /// The grid, first axis outermost.
    pub axes: &'static [Axis],
    /// Runs one grid point (one value per axis, in axis order).
    pub run_cell: fn(&[u64], Scale) -> Row,
    /// The italic line under the heading, after the scale: sizes and
    /// units. `{key}` stands for header field `key` of the document.
    pub note: &'static str,
    /// The cells as one or more pivot tables; `None` on a schema
    /// mismatch (a field the renderer needs is missing).
    pub tables: fn(&[Json]) -> Option<Vec<Pivot>>,
    /// Markdown after the tables ([`no_footer`] for none).
    pub footer: fn(&[Json]) -> Option<String>,
    /// The properties the grid must show; panics with the violated one.
    pub invariants: fn(&Grid<'_>),
}

/// Every golden-pinned document, in `fig all` and report order: the
/// paper's figures (`fig paper`), then the extensions.
pub const SWEEPS: [&Sweep; 18] = [
    &crate::paper::FIG2A,
    &crate::paper::FIG2B,
    &crate::paper::FIG4,
    &crate::paper::TABLE1,
    &crate::paper::CONSISTENCY,
    &crate::paper::FIG5,
    &crate::paper::ABLATE,
    &crate::shards::SWEEP,
    &crate::server::SWEEP,
    &crate::repl::SWEEP,
    &crate::breakdown::SWEEP,
    &crate::scan::SWEEP,
    &crate::paper::YCSB_E_STORE,
    &crate::compact::SWEEP,
    &crate::timeline::SWEEP,
    &crate::scenarios::SWEEP,
    &crate::campaign::CRASH,
    &crate::campaign::FAILOVER,
];

impl Sweep {
    /// The grid points in document order (first axis outermost).
    pub fn points(&self) -> Vec<Vec<u64>> {
        let mut points = vec![Vec::new()];
        for axis in self.axes {
            points = points
                .iter()
                .flat_map(|p| axis.values.iter().map(move |&v| [p.as_slice(), &[v]].concat()))
                .collect();
        }
        points
    }

    /// Runs the whole grid and serialises it. Deterministic under the
    /// fixed seed — the golden test pins these bytes.
    pub fn document(&self, scale: Scale) -> String {
        let cells = self.points().iter().map(|p| Json::object((self.run_cell)(p, scale))).collect();
        let header = self.header.iter().map(|&(key, value)| (key, value.into()));
        let doc = Json::object(
            [("figure", self.figure.into()), ("scale", scale.factor.into())]
                .into_iter()
                .chain(header)
                .chain([(self.cells_key, Json::Array(cells))]),
        );
        format!("{doc}\n")
    }

    /// Views a parsed document as this sweep's grid; `None` unless it
    /// is this sweep's document with exactly one cell per grid point.
    pub fn grid<'a>(&'a self, doc: &'a Json) -> Option<Grid<'a>> {
        let cells = doc.get(self.cells_key)?.as_array()?;
        let full = cells.len() == self.axes.iter().map(|a| a.values.len()).product::<usize>();
        (doc.text("figure") == Some(self.figure) && full).then_some(Grid { sweep: self, cells })
    }

    /// Checks a freshly produced document: it parses, covers the grid,
    /// holds the sweep's invariants, and rerunning its last cell
    /// reproduces that cell (determinism is per cell; a second full
    /// sweep would double the suite's cost).
    ///
    /// # Panics
    ///
    /// Panics with the violated property.
    pub fn check(&self, text: &str, scale: Scale) {
        let doc =
            Json::parse(text).unwrap_or_else(|| panic!("{}: document must parse", self.figure));
        let grid = self.grid(&doc).unwrap_or_else(|| panic!("{}: grid incomplete", self.figure));
        (self.invariants)(&grid);
        let last = self.points().pop().expect("a sweep has at least one point");
        let rerun = Json::object((self.run_cell)(&last, scale));
        assert!(
            grid.cells.last() == Some(&rerun),
            "{}: rerunning cell {last:?} gave {rerun}",
            self.figure
        );
    }
}

/// A parsed sweep document addressed by grid point.
pub struct Grid<'a> {
    sweep: &'a Sweep,
    cells: &'a [Json],
}

impl Grid<'_> {
    /// The cell at `point` (one value per axis, in axis order).
    ///
    /// # Panics
    ///
    /// Panics if `point` is not on the sweep's axes.
    pub fn at(&self, point: &[u64]) -> &Json {
        assert_eq!(point.len(), self.sweep.axes.len(), "{}: wrong arity", self.sweep.figure);
        let index = self.sweep.axes.iter().zip(point).fold(0, |index, (axis, v)| {
            let pos = axis.values.iter().position(|x| x == v);
            let pos = pos.unwrap_or_else(|| panic!("{v} is not on the {} axis", axis.name));
            index * axis.values.len() + pos
        });
        &self.cells[index]
    }

    /// The numeric field `key` of the cell at `point`.
    ///
    /// # Panics
    ///
    /// Panics if the point is off-grid or the field is missing.
    pub fn num(&self, point: &[u64], key: &str) -> f64 {
        self.at(point)
            .num(key)
            .unwrap_or_else(|| panic!("{} cell {point:?} lacks `{key}`", self.sweep.figure))
    }

    /// The values of axis `i`, in sweep order.
    pub fn axis(&self, i: usize) -> &'static [u64] {
        self.sweep.axes[i].values
    }

    /// Every cell, in document order.
    pub fn cells(&self) -> &[Json] {
        self.cells
    }
}

/// The common `tables` shape: a single table with one entry per cell,
/// `place` giving each cell its (row label, column label, text).
/// `None` if a cell lacks a field.
pub fn pivot(
    cells: &[Json],
    corner: &str,
    place: impl Fn(&Json) -> Option<(String, String, String)>,
) -> Option<Vec<Pivot>> {
    let mut table = Pivot::new(corner);
    for c in cells {
        let (row, col, text) = place(c)?;
        table.push(&row, &col, text);
    }
    Some(vec![table])
}

/// Renders a sweep document as a `REPORT.md` section, or as the same
/// tables in aligned plain text for stdout. `None` if `doc` is not a
/// complete document of `sweep`: a missing cell, field or table entry
/// is a schema error, never a placeholder.
pub fn render(sweep: &Sweep, doc: &Json, markdown: bool) -> Option<String> {
    let cells = sweep.grid(doc)?.cells;
    let tables = (sweep.tables)(cells)?;
    if !tables.iter().all(Pivot::is_complete) {
        return None;
    }
    let mut note = format!("scale 1/{}; {}", doc.num("scale")?, sweep.note);
    for (key, _) in sweep.header {
        note = note.replace(&format!("{{{key}}}"), &doc.num(key)?.to_string());
    }
    let mut out = if markdown {
        format!("## {} — {}\n\n*{note}*\n\n", sweep.figure, sweep.title)
    } else {
        format!("== {} — {} ==\n{note}\n\n", sweep.figure, sweep.title)
    };
    for t in &tables {
        out.push_str(&if markdown { t.markdown() } else { t.text() + "\n" });
    }
    out.push_str(&(sweep.footer)(cells)?);
    Some(out)
}

/// The footer of a sweep whose tables say it all.
pub fn no_footer(_: &[Json]) -> Option<String> {
    Some(String::new())
}

/// Batches retired per group committed — the coalescing factor two
/// sweeps report next to their throughput.
pub fn coalescing(cell: &Json) -> Option<f64> {
    let groups = cell.num("groups")?;
    Some(if groups > 0.0 { cell.num("batches")? / groups } else { 0.0 })
}

/// The fixed-seed key stream every sweep draws from: Knuth's MMIX LCG
/// from seed 42, reduced modulo the keyspace. One definition, so every
/// sweep (the smoke scenarios among them) writes the same keys.
#[derive(Debug, Clone)]
pub struct KeyStream {
    state: u64,
    keyspace: u64,
}

impl KeyStream {
    /// The stream from the fixed seed over `0..keyspace`.
    pub fn new(keyspace: u64) -> Self {
        KeyStream { state: 42, keyspace }
    }

    /// The next key index.
    pub fn draw(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.state % self.keyspace
    }
}

/// The record for key index `k`: a zero-padded `key…` of `key_digits`
/// digits and a `val{k}-` value padded with `x` to `value_len` bytes.
pub fn record(k: u64, key_digits: usize, value_len: usize) -> (Vec<u8>, Vec<u8>) {
    let mut value = format!("val{k}-").into_bytes();
    value.resize(value_len, b'x');
    (key(k, key_digits), value)
}

/// The key of [`record`] `k` alone.
pub fn key(k: u64, key_digits: usize) -> Vec<u8> {
    format!("key{k:0key_digits$}").into_bytes()
}

/// [`record`] as the single-put batch the store-level sweeps enqueue.
pub fn put_batch(k: u64, key_digits: usize, value_len: usize) -> noblsm::WriteBatch {
    let (key, value) = record(k, key_digits, value_len);
    let mut batch = noblsm::WriteBatch::new();
    batch.put(&key, &value);
    batch
}

/// The exact-sample quantile of the bench crate: nearest rank over the
/// samples (sorted in place), `pct` in percent. Zero for no samples.
pub fn quantile_ns(samples: &mut [u64], pct: usize) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[(samples.len() * pct).div_ceil(100).max(1) - 1]
}

/// Compares `got` with the golden file at `path`, or overwrites the
/// file when `NOB_BLESS` is set (after an *intentional* change to
/// timing or schema; review the diff like any other golden update).
///
/// # Errors
///
/// Says which document diverged and how to rebless it. When both sides
/// are documents of one sweep on the same grid, it says so cell by cell:
/// a markdown table of every field that moved, ready to paste into the
/// change's explanation. Otherwise it names the first differing line.
pub fn compare_or_bless(path: &Path, got: &str) -> Result<(), String> {
    if std::env::var_os("NOB_BLESS").is_some() {
        // Write-then-rename: a test reading the fixtures concurrently
        // sees the old or the new file, never a torn one.
        let tmp = path.with_extension("json.tmp");
        return std::fs::write(&tmp, got)
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("bless {}: {e}", path.display()));
    }
    let want = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if got == want {
        return Ok(());
    }
    let how = cells_moved(&want, got).unwrap_or_else(|| {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let line = line.unwrap_or_else(|| got.lines().count().min(want.lines().count())) + 1;
        format!(" at line {line}")
    });
    Err(format!(
        "{} diverged{how}; if intentional, rebless with \
         NOB_BLESS=1 cargo test -p nob-bench --test golden",
        path.display()
    ))
}

/// The per-cell table of [`compare_or_bless`]: every field that differs
/// between two texts of one [`SWEEPS`] document on the same grid, one
/// markdown row each — the cell named by its grid point (`axis=value` per
/// axis), the field's path in the cell, its old and new values and, for
/// numbers, the change in percent. `None` unless both texts parse as
/// complete documents of that sweep.
fn cells_moved(old: &str, new: &str) -> Option<String> {
    let (old, new) = (Json::parse(old)?, Json::parse(new)?);
    let sweep = SWEEPS.iter().find(|s| Some(s.figure) == new.text("figure"))?;
    let (old, new) = (sweep.grid(&old)?, sweep.grid(&new)?);
    let mut table = String::from(" cell by cell:\n\n| cell | field | old | new | Δ % |\n");
    table.push_str("|---|---|---|---|---|\n");
    for ((point, a), b) in sweep.points().iter().zip(old.cells()).zip(new.cells()) {
        let at: Vec<String> =
            sweep.axes.iter().zip(point).map(|(axis, v)| format!("{}={v}", axis.name)).collect();
        let mut moved = Vec::new();
        moved_leaves(String::new(), a, b, &mut moved);
        for (field, a, b) in moved {
            let delta = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}", (y - x) / x * 100.0),
                _ => "–".to_string(),
            };
            table.push_str(&format!("| {} | {field} | {a} | {b} | {delta} |\n", at.join(" ")));
        }
    }
    Some(table + "\n")
}

/// Each value where `old` and `new` differ, under its path in the cell
/// (`field`, `field.key`, `field[i]`), descending where both sides have
/// the same keys or the same length.
fn moved_leaves<'a>(
    path: String,
    old: &'a Json,
    new: &'a Json,
    out: &mut Vec<(String, &'a Json, &'a Json)>,
) {
    match (old, new) {
        (Json::Object(a), Json::Object(b)) if a.iter().map(|f| &f.0).eq(b.iter().map(|f| &f.0)) => {
            for ((key, x), (_, y)) in a.iter().zip(b) {
                let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                moved_leaves(path, x, y, out);
            }
        }
        (Json::Array(a), Json::Array(b)) if a.len() == b.len() => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                moved_leaves(format!("{path}[{i}]"), x, y, out);
            }
        }
        _ if old != new => out.push((path, old, new)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile_ns(&mut [], 99), 0);
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile_ns(&mut hundred, 99), 99);
        assert_eq!(quantile_ns(&mut hundred, 50), 50);
        assert_eq!(quantile_ns(&mut [5, 3], 99), 5);
        assert_eq!(quantile_ns(&mut [5], 0), 5);
    }

    #[test]
    fn a_moved_cell_is_one_row_named_by_its_grid_point() {
        let golden = include_str!("../tests/golden/paper_consistency.json");
        let moved = golden.replace("\"lost\": 1069", "\"lost\": 1282");
        let table = cells_moved(golden, &moved).expect("both are the sweep's grid");
        let row =
            "|---|---|---|---|---|\n| system=6 repetition=2 | lost | 1069 | 1282 | +19.9 |\n\n";
        assert!(table.ends_with(row), "{table}");
        assert_eq!(cells_moved(golden, "{}"), None, "not a sweep document");
    }
}
