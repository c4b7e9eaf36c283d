//! Result tables ([`Pivot`]: aligned stdout text and markdown from one
//! definition) and the result files under `target/nob-results/`.

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

#[cfg(test)]
mod tests {
    use super::*;

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
