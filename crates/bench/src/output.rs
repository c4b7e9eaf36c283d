//! Result tables: aligned stdout printing plus JSON files under
//! `target/nob-results/` for EXPERIMENTS.md bookkeeping.

use nob_sim::json_escape;
use nob_trace::TraceSummary;

/// One measured cell of a figure or table.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Series label (usually the system name).
    pub series: String,
    /// X-axis label (value size, workload name, …).
    pub x: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: String,
}

/// A whole experiment's results.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment id, e.g. `"fig4a"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Scale factor used.
    pub scale: u64,
    /// All measured cells.
    pub cells: Vec<Cell>,
    /// Optional whole-run trace summary, embedded in the JSON output.
    pub trace: Option<TraceSummary>,
}

impl Experiment {
    /// Creates an empty experiment record.
    pub fn new(id: &str, title: &str, scale: u64) -> Self {
        Experiment {
            id: id.to_string(),
            title: title.to_string(),
            scale,
            cells: Vec::new(),
            trace: None,
        }
    }

    /// Attaches the run's trace summary for the JSON output.
    pub fn set_trace(&mut self, summary: TraceSummary) {
        self.trace = Some(summary);
    }

    /// Records one cell.
    pub fn push(&mut self, series: &str, x: &str, value: f64, unit: &str) {
        self.cells.push(Cell {
            series: series.to_string(),
            x: x.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Prints an aligned series × x table to stdout.
    pub fn print(&self) {
        println!("== {} ({}) — scale 1/{} ==", self.id, self.title, self.scale);
        let unit = self.cells.first().map_or("", |c| c.unit.as_str());
        let mut pivot = Pivot::new(format!("[{unit}]"));
        for c in &self.cells {
            pivot.push(&c.series, &c.x, format!("{:.2}", c.value));
        }
        println!("{}", pivot.text());
    }

    /// Writes the experiment as JSON under `target/nob-results/<id>.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the host.
    pub fn save(&self) -> std::io::Result<()> {
        save(&self.id, &to_json(self)).map(|_| ())
    }
}

/// Writes a result document to `target/nob-results/<name>.json`.
///
/// # Errors
///
/// Propagates filesystem errors from the host.
pub fn save(name: &str, doc: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target/nob-results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// A series × x pivot of pre-formatted cell texts — the one place a
/// list of measurements becomes a table, for stdout ([`Pivot::text`])
/// and for `REPORT.md` ([`Pivot::markdown`]) alike. Rows and columns
/// appear in first-push order; a missing combination prints a dash.
#[derive(Debug, Clone)]
pub struct Pivot {
    /// Optional bold heading above the table (one table of several).
    pub heading: Option<String>,
    /// Label of the top-left corner (what the row labels are).
    pub corner: String,
    cells: Vec<(String, String, String)>,
}

impl Pivot {
    /// An empty table whose row labels are described by `corner`.
    pub fn new(corner: impl Into<String>) -> Self {
        Pivot { heading: None, corner: corner.into(), cells: Vec::new() }
    }

    /// The same table under a bold heading (one table of several).
    pub fn headed(mut self, heading: &str) -> Self {
        self.heading = Some(heading.to_string());
        self
    }

    /// Records the text shown at (`row`, `col`).
    pub fn push(&mut self, row: &str, col: &str, text: String) {
        self.cells.push((row.to_string(), col.to_string(), text));
    }

    /// Distinct row and column labels, in first-push order.
    pub fn labels(&self) -> (Vec<&str>, Vec<&str>) {
        let (mut rows, mut cols): (Vec<&str>, Vec<&str>) = (Vec::new(), Vec::new());
        for (r, c, _) in &self.cells {
            if !rows.contains(&r.as_str()) {
                rows.push(r);
            }
            if !cols.contains(&c.as_str()) {
                cols.push(c);
            }
        }
        (rows, cols)
    }

    /// Whether every (row, column) combination was pushed exactly once.
    pub fn is_complete(&self) -> bool {
        let (rows, cols) = self.labels();
        self.cells.len() == rows.len() * cols.len()
            && rows.iter().all(|r| cols.iter().all(|c| self.at(r, c).is_some()))
    }

    fn at(&self, row: &str, col: &str) -> Option<&str> {
        self.cells.iter().find(|(r, c, _)| r == row && c == col).map(|(_, _, t)| t.as_str())
    }

    /// The table as aligned plain text (label column ≥ 16 wide, value
    /// columns ≥ 12, both growing to fit).
    pub fn text(&self) -> String {
        let (rows, cols) = self.labels();
        let widest = |labels: &[&str]| labels.iter().map(|l| l.chars().count() + 2).max();
        let label_w = widest(&rows).max(widest(&[&self.corner])).map_or(16, |n| n.max(16));
        let texts: Vec<&str> = self.cells.iter().map(|(_, _, t)| t.as_str()).collect();
        let w = widest(&texts).max(widest(&cols)).map_or(12, |n| n.max(12));
        let mut out = self.heading.as_ref().map_or(String::new(), |h| format!("-- {h} --\n"));
        out.push_str(&format!("{:<label_w$}", self.corner));
        for c in &cols {
            out.push_str(&format!("{c:>w$}"));
        }
        out.push('\n');
        for r in &rows {
            out.push_str(&format!("{r:<label_w$}"));
            for c in &cols {
                out.push_str(&format!("{:>w$}", self.at(r, c).unwrap_or("-")));
            }
            out.push('\n');
        }
        out
    }

    /// The table as a markdown table followed by a blank line.
    pub fn markdown(&self) -> String {
        let (rows, cols) = self.labels();
        let mut out = self.heading.as_ref().map_or(String::new(), |h| format!("**{h}**\n\n"));
        out.push_str(&format!("| {} |", self.corner));
        for c in &cols {
            out.push_str(&format!(" {c} |"));
        }
        out.push_str("\n|---|");
        out.push_str(&"---|".repeat(cols.len()));
        out.push('\n');
        for r in &rows {
            out.push_str(&format!("| {r} |"));
            for c in &cols {
                out.push_str(&format!(" {} |", self.at(r, c).unwrap_or("–")));
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

/// Minimal JSON serialization (avoids a serde_json dependency).
fn to_json(e: &Experiment) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"scale\": {},\n  \"cells\": [\n",
        json_escape(&e.id),
        json_escape(&e.title),
        e.scale
    ));
    for (i, c) in e.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"series\": \"{}\", \"x\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}{}\n",
            json_escape(&c.series),
            json_escape(&c.x),
            c.value,
            json_escape(&c.unit),
            if i + 1 == e.cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]");
    if let Some(t) = &e.trace {
        out.push_str(",\n  \"trace\": ");
        out.push_str(&t.to_json_indented(1));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_valid_enough() {
        let mut e = Experiment::new("figX", "test \"title\"", 64);
        e.push("NobLSM", "1024", 12.5, "us/op");
        e.push("LevelDB", "1024", 22.0, "us/op");
        let j = to_json(&e);
        assert!(j.contains("\"id\": \"figX\""));
        assert!(j.contains("\\\"title\\\""));
        assert!(j.contains("\"value\": 12.5"));
        assert_eq!(j.matches("series").count(), 2);
    }

    #[test]
    fn embedded_trace_appears_in_json() {
        let mut e = Experiment::new("figY", "traced", 1);
        e.push("A", "1", 1.0, "u");
        let sink = nob_trace::TraceSink::new();
        sink.emit(
            nob_trace::EventClass::SsdWrite,
            nob_sim::Nanos::ZERO,
            nob_sim::Nanos::from_micros(3),
            4096,
        );
        e.set_trace(sink.summary());
        let j = to_json(&e);
        assert!(j.contains("\"trace\": {"));
        assert!(j.contains("\"ssd_write\""));
        assert!(crate::json::Json::parse(&j).is_some(), "document must stay parseable:\n{j}");
    }

    #[test]
    fn print_does_not_panic_on_sparse_cells() {
        let mut e = Experiment::new("x", "t", 1);
        e.push("A", "1", 1.0, "u");
        e.push("B", "2", 2.0, "u");
        e.print();
    }

    #[test]
    fn pivot_renders_both_forms_and_flags_holes() {
        let mut p = Pivot::new("[u]");
        p.push("A", "1", "1.00".into());
        p.push("A", "2", "2.00".into());
        p.push("B", "1", "3.00".into());
        assert!(!p.is_complete(), "B × 2 is missing");
        assert_eq!(
            p.markdown(),
            "| [u] | 1 | 2 |\n|---|---|---|\n| A | 1.00 | 2.00 |\n| B | 3.00 | – |\n\n"
        );
        let text = p.text();
        assert_eq!(text.lines().next(), Some("[u]                        1           2"));
        assert!(text.ends_with("B                       3.00           -\n"), "{text}");
        p.push("B", "2", "4.00".into());
        assert!(p.is_complete());
    }
}
