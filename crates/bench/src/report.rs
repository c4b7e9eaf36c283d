//! Renders result documents as `REPORT.md` sections: the one renderer
//! behind the `report` binary. Sweep documents — the paper's figures
//! among them — go through the sweep harness's table definitions
//! ([`crate::sweep::render`]); the two chaos campaigns have their own
//! shape. A document that matches none of them is an error.

use std::fmt::Write as _;

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

/// The per-class latency percentile table (nothing for no classes).
pub(crate) fn class_table(classes: &[(String, Json)], out: &mut String) {
    if classes.is_empty() {
        return;
    }
    let _ = writeln!(out, "| class | count | p50 | p95 | p99 | p999 | max |");
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for (name, c) in classes {
        let ns = |k: &str| fmt_ns(c.num(k).unwrap_or(0.0));
        let _ = writeln!(
            out,
            "| {name} | {} | {} | {} | {} | {} | {} |",
            c.num("count").unwrap_or(0.0) as u64,
            ns("p50_ns"),
            ns("p95_ns"),
            ns("p99_ns"),
            ns("p999_ns"),
            ns("max_ns"),
        );
    }
    let _ = writeln!(out);
}

/// Sums an integer field over the sweep's per-case results.
fn sum_field(results: &[Json], key: &str) -> u64 {
    results.iter().filter_map(|r| r.num(key)).sum::<f64>() as u64
}

/// Counts cases whose boolean field is set.
fn count_true(results: &[Json], key: &str) -> u64 {
    results.iter().filter(|r| r.get(key).and_then(Json::as_bool) == Some(true)).count() as u64
}

/// Renders a failover-campaign document (the `nob-chaos` leader-kill
/// schema): promotion outcomes and replication-loss accounting.
fn render_failover(exp: &Json, out: &mut String) -> Option<()> {
    let cases = exp.num("cases")? as u64;
    let passed = exp.num("passed")? as u64;
    let failed = exp.num("failed")? as u64;
    let results = exp.get("results")?.as_array()?;
    let _ = writeln!(out, "## chaos failover — leader-kill replication sweep\n");
    let _ = writeln!(
        out,
        "**{cases} cases, {passed} passed, {failed} failed** — {} acked records verified, \
         {} keys recovered byte-for-byte, {} unacked in-flight writes lost (explained), \
         {} changefeed records delivered exactly once across promotion\n",
        sum_field(results, "acked_records"),
        sum_field(results, "recovered_keys"),
        sum_field(results, "lost_unacked"),
        sum_field(results, "feed_records"),
    );
    let bad: Vec<&Json> =
        results.iter().filter(|r| r.get("pass").and_then(Json::as_bool) == Some(false)).collect();
    if !bad.is_empty() {
        let _ = writeln!(out, "failing cases:\n");
        for r in bad {
            let seed = r.num("seed").unwrap_or(0.0) as u64;
            let kill = r.num("kill_pm").unwrap_or(0.0) as u64;
            let _ = writeln!(out, "- seed {seed}, kill {kill}‰");
        }
        let _ = writeln!(out);
    }
    Some(())
}

/// Renders a chaos-sweep document (the `nob-chaos` campaign schema):
/// fault-injection and recovery counters as one summary table.
fn render_chaos(exp: &Json, out: &mut String) -> Option<()> {
    let profile = exp.text("profile")?;
    let results = exp.get("results")?.as_array()?;
    let field = |key: &str| exp.num(key).map(|v| v as u64);
    let injections = results.iter().filter_map(|r| r.get("injections")?.as_array()).map(<[_]>::len);
    let counters = [
        ("cases", field("cases")?),
        ("passed", field("passed")?),
        ("failed", field("failed")?),
        ("faults injected", injections.sum::<usize>() as u64),
        ("undetected (fabricated) values", field("undetected_values")?),
        ("unexplained acked losses", field("unexplained_losses")?),
        ("acked pairs checked", sum_field(results, "acked_pairs")),
        ("acked losses (explained)", sum_field(results, "lost_acked")),
        ("WAL corruptions detected", sum_field(results, "wal_corruptions_detected")),
        ("WAL bytes dropped", sum_field(results, "wal_bytes_dropped")),
        ("ordered-mode violations", sum_field(results, "ordered_violations")),
        ("repairs engaged", count_true(results, "repaired")),
        ("journal chains broken", count_true(results, "journal_broken")),
    ];
    let _ = writeln!(out, "## chaos — fault injection & recovery ({profile})\n");
    let _ = writeln!(out, "| counter | value |\n|---|---|");
    for (name, value) in counters {
        let _ = writeln!(out, "| {name} | {value} |");
    }
    let _ = writeln!(out);
    if let Some(groups) = exp.get("latency_histograms") {
        for group in ["clean", "faulted"] {
            let Some(Json::Object(classes)) = groups.get(group) else { continue };
            if !classes.is_empty() {
                let _ = writeln!(out, "### {group} runs — per-class latency\n");
                class_table(classes, out);
            }
        }
    }
    Some(())
}

/// Renders one result document as a markdown section. `None` means the
/// document matches no known schema — or claims a schema and lacks one
/// of its fields — and the caller must not pass over that silently.
pub fn render(doc: &Json) -> Option<String> {
    if let Some(s) = sweep::SWEEPS.iter().find(|s| doc.text("figure") == Some(s.figure)) {
        return sweep::render(s, doc, true);
    }
    let mut out = String::new();
    if doc.get("profile").is_some() {
        render_chaos(doc, &mut out)?;
    } else if doc.text("campaign") == Some("failover") {
        render_failover(doc, &mut out)?;
    } else {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use nob_chaos::{run_campaign, run_failover_campaign, CampaignSpec, FailoverSpec};

    use super::*;

    /// The two chaos schemas render through the one entry point, from
    /// their printed documents, as the `report` binary reads them.
    #[test]
    fn renders_the_chaos_campaign_documents() {
        let parse = |doc: Json| Json::parse(&doc.to_string()).expect("the document parses");
        let render = |doc: Json| render(&parse(doc)).expect("it renders");
        let chaos = render(run_campaign(&CampaignSpec::smoke()).to_json());
        assert!(chaos.starts_with("## chaos — fault injection & recovery (mixed)\n"), "{chaos}");
        assert!(chaos.contains("| cases | 24 |\n| passed | 24 |\n| failed | 0 |\n"), "{chaos}");
        assert!(chaos.contains("### clean runs — per-class latency"), "{chaos}");
        assert!(chaos.contains("### faulted runs — per-class latency"), "{chaos}");
        let spec = FailoverSpec { seeds: vec![1, 2], ..FailoverSpec::smoke() };
        let failover = render(run_failover_campaign(&spec).to_json());
        assert!(failover.starts_with("## chaos failover — leader-kill replication sweep\n"));
        assert!(failover.contains("**8 cases, 8 passed, 0 failed**"), "{failover}");
    }
}
