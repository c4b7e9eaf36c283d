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

    /// 100 each of 1, 2, 4, 10, 100 and 1000 µs, as fig_server collects
    /// its SET latencies: the quantiles are ordered and each is a recorded
    /// sample, where log₂ buckets would report 4.096 µs and 1.049 ms.
    #[test]
    fn histogram_quantiles_are_monotone_and_bracketing() {
        let mut mix: Vec<u64> =
            [1u64, 2, 4, 10, 100, 1000].iter().flat_map(|&us| [us * 1000; 100]).collect();
        let p50 = sweep::quantile_ns(&mut mix, 50);
        let p99 = sweep::quantile_ns(&mut mix, 99);
        assert!(p50 <= p99);
        assert_eq!((p50, p99), (4_000, 1_000_000));
        assert_eq!((fmt_ns(p50 as f64), fmt_ns(p99 as f64)), ("4.00us".into(), "1.00ms".into()));
    }

    /// A sweep cell that recorded no latency reports zero at every
    /// quantile rather than panicking.
    #[test]
    fn empty_histogram_is_zero() {
        for pct in [0, 50, 99, 100] {
            assert_eq!(sweep::quantile_ns(&mut [], pct), 0);
        }
        assert_eq!(fmt_ns(0.0), "0ns");
    }
}
