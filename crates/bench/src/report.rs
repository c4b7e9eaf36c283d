//! Renders result documents as `REPORT.md` sections: the one renderer
//! behind the `report` binary. Every document is a sweep's — the paper's
//! figures and the crash and failover sweeps among them — and goes
//! through the sweep harness's table definitions
//! ([`crate::sweep::render`]). A document of no sweep is an error.

use nob_sim::json::Json;

use crate::sweep;

/// Formats an integer nanosecond quantity with a human unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Renders one result document as a markdown section: the tables of the
/// sweep it names. `None` means the document names no sweep — or lacks a
/// field its sweep's tables need — and the caller must not pass over that
/// silently.
pub fn render(doc: &Json) -> Option<String> {
    let sweep = sweep::SWEEPS.iter().find(|s| doc.text("figure") == Some(s.figure))?;
    sweep::render(sweep, doc, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crash and failover documents render through the one entry
    /// point as sweeps; the old campaign schema is no document.
    #[test]
    fn renders_the_chaos_campaign_documents() {
        let render = |text: &str| render(&Json::parse(text).expect("the golden parses"));
        let chaos = render(include_str!("../tests/golden/fig_chaos.json")).expect("it renders");
        assert!(
            chaos.starts_with("## fig_chaos — crash recovery under device faults\n"),
            "{chaos}"
        );
        assert_eq!(chaos.matches("| 10/10 |").count(), 20, "every run's cuts pass: {chaos}");
        let failover =
            render(include_str!("../tests/golden/fig_failover.json")).expect("it renders");
        assert!(
            failover.starts_with("## fig_failover — leader kill and promotion\n"),
            "{failover}"
        );
        assert!(failover.contains("kill 125 ‰") && !failover.contains("FAIL"), "{failover}");
        assert_eq!(render(r#"{"campaign": "chaos", "cases": 24, "results": []}"#), None);
    }
}
