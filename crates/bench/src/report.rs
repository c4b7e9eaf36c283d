//! Renders result documents as `REPORT.md` sections: the one renderer
//! behind the `report` binary. Sweep documents — the paper's figures
//! among them — go through the sweep harness's table definitions
//! ([`crate::sweep::render`]); the two chaos campaigns have their own
//! shape. A document that matches none of them is an error.

use std::fmt::Write as _;

use crate::json::Json;
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
pub(crate) fn class_table(classes: &std::collections::BTreeMap<String, Json>, out: &mut String) {
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
fn count_true(results: &[Json], key: &str) -> usize {
    results.iter().filter(|r| r.get(key).and_then(Json::as_bool) == Some(true)).count()
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
    let cases = exp.num("cases")? as u64;
    let passed = exp.num("passed")? as u64;
    let failed = exp.num("failed")? as u64;
    let undetected = exp.num("undetected_values")? as u64;
    let unexplained = exp.num("unexplained_losses")? as u64;
    let results = exp.get("results")?.as_array()?;
    let injections: usize = results
        .iter()
        .filter_map(|r| r.get("injections").and_then(Json::as_array))
        .map(<[Json]>::len)
        .sum();
    let _ = writeln!(out, "## chaos — fault injection & recovery ({profile})\n");
    let _ = writeln!(out, "| counter | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| cases | {cases} |");
    let _ = writeln!(out, "| passed | {passed} |");
    let _ = writeln!(out, "| failed | {failed} |");
    let _ = writeln!(out, "| faults injected | {injections} |");
    let _ = writeln!(out, "| undetected (fabricated) values | {undetected} |");
    let _ = writeln!(out, "| unexplained acked losses | {unexplained} |");
    let _ = writeln!(out, "| acked pairs checked | {} |", sum_field(results, "acked_pairs"));
    let _ = writeln!(out, "| acked losses (explained) | {} |", sum_field(results, "lost_acked"));
    let _ = writeln!(
        out,
        "| WAL corruptions detected | {} |",
        sum_field(results, "wal_corruptions_detected")
    );
    let _ = writeln!(out, "| WAL bytes dropped | {} |", sum_field(results, "wal_bytes_dropped"));
    let _ =
        writeln!(out, "| ordered-mode violations | {} |", sum_field(results, "ordered_violations"));
    let _ = writeln!(out, "| repairs engaged | {} |", count_true(results, "repaired"));
    let _ = writeln!(out, "| journal chains broken | {} |", count_true(results, "journal_broken"));
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
