//! `bench_ledger compare A.json B.json`: one row per (workload,
//! end-to-end metric) with both values, the ratio B/A, the bound from
//! `BENCHMARK.json` and a verdict, plus one `fail_share` row per
//! workload. `worse` means B is past the bound on the bad side, fails a
//! larger share of its operations than A (any increase), or lacks a
//! workload or metric the other document has; `unresolved` means a
//! document recorded a repetition spread wider than the bound, so the
//! pair cannot be told apart.

use nob_bench::json::Json;

use crate::spec::spec;

/// A ledger document, or the `run` half of a `BENCH_<n>.json`.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).ok_or_else(|| format!("{path}: not JSON"))?;
    Ok(doc.get("run").cloned().unwrap_or(doc))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(name)
}

fn number(entry: &Json, section: &str, metric: &str) -> Option<f64> {
    let v = entry.get(section)?.get(metric)?;
    v.as_f64().or_else(|| v.get("value")?.as_f64())
}

/// `failed ÷ attempted` of a workload's entry.
fn fail_share(entry: &Json) -> Option<f64> {
    let attempted = entry.get("attempted")?.as_f64()?;
    (attempted > 0.0).then_some(entry.get("failed")?.as_f64()? / attempted)
}

/// One line of the comparison.
#[derive(Debug, PartialEq)]
struct Row {
    workload: String,
    metric: String,
    unit: String,
    /// The two values; `None` where a document lacks the metric.
    a: Option<f64>,
    b: Option<f64>,
    bound: f64,
    verdict: &'static str,
}

/// The rows for every workload either document holds, in spec order.
fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let mut out = Vec::new();
    for (name, _) in &spec().workloads {
        let (ea, eb) = (workload(a, name), workload(b, name));
        if ea.is_none() && eb.is_none() {
            continue;
        }
        let row = |metric: &str, unit: &str, va, vb, bound, verdict| Row {
            workload: name.clone(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            a: va,
            b: vb,
            bound,
            verdict,
        };
        for m in &spec().end_to_end {
            let va = ea.and_then(|e| number(e, "metrics", &m.name));
            let vb = eb.and_then(|e| number(e, "metrics", &m.name));
            let spread = [ea, eb]
                .iter()
                .filter_map(|e| number((*e)?, "spread", &m.name))
                .fold(0.0, f64::max);
            let verdict = match (va, vb) {
                (Some(va), Some(vb)) => {
                    let ratio = vb / va;
                    let past = if m.lower_is_better {
                        ratio > 1.0 + m.bound
                    } else {
                        ratio < 1.0 - m.bound
                    };
                    if spread > m.bound {
                        "unresolved"
                    } else if past {
                        "worse"
                    } else {
                        "ok"
                    }
                }
                // A metric only one side reports cannot be a gain.
                _ => "worse",
            };
            out.push(row(&m.name, &m.unit, va, vb, m.bound, verdict));
        }
        let (fa, fb) = (ea.and_then(fail_share), eb.and_then(fail_share));
        let verdict = match (fa, fb) {
            (Some(fa), Some(fb)) if fb <= fa => "ok",
            _ => "worse",
        };
        out.push(row("fail_share", "ratio", fa, fb, 0.0, verdict));
    }
    out
}

/// Prints the comparison; `Ok(true)` when no row is `worse`.
///
/// # Errors
///
/// Unreadable or malformed documents, or documents that hold none of
/// the benchmark's workloads.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let rows = rows(&load(a_path)?, &load(b_path)?);
    if rows.is_empty() {
        return Err(format!("{a_path}, {b_path}: no workload of the benchmark in either"));
    }
    println!(
        "{:<8} {:<18} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let cell = |v: Option<f64>| v.map_or("missing".to_string(), |v| format!("{v:.4}"));
    for r in &rows {
        let ratio = match (r.a, r.b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:.4}", b / a),
            _ => "-".to_string(),
        };
        println!(
            "{:<8} {:<18} {:>16} {:>16} {ratio:>9} {:>5.0}%  {} (base A = {} {})",
            r.workload,
            r.metric,
            cell(r.a),
            cell(r.b),
            r.bound * 100.0,
            r.verdict,
            cell(r.a),
            r.unit
        );
    }
    Ok(rows.iter().all(|r| r.verdict != "worse"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document with one `fill` entry: every end-to-end metric at
    /// `value` except those in `skip`, and the given failure count.
    fn document(value: f64, skip: &[&str], failed: u64, spread: f64) -> Json {
        let metrics: Vec<String> = spec()
            .end_to_end
            .iter()
            .filter(|m| !skip.contains(&m.name.as_str()))
            .map(|m| format!("\"{}\": {{\"value\": {value}}}", m.name))
            .collect();
        let text = format!(
            "{{\"workloads\": {{\"fill\": {{\"attempted\": 1000, \"failed\": {failed}, \
             \"metrics\": {{{}}}, \"spread\": {{\"host_ns_per_op\": {spread}}}}}}}}}",
            metrics.join(", ")
        );
        Json::parse(&text).expect("test document parses")
    }

    fn verdict(rows: &[Row], metric: &str) -> &'static str {
        rows.iter().find(|r| r.metric == metric).expect("row").verdict
    }

    #[test]
    fn same_documents_are_ok() {
        let a = document(100.0, &[], 0, 0.01);
        let rows = rows(&a, &a);
        assert_eq!(rows.len(), spec().end_to_end.len() + 1);
        assert!(rows.iter().all(|r| r.verdict == "ok" && r.workload == "fill"));
    }

    #[test]
    fn past_the_bound_is_worse_on_the_bad_side_only() {
        let (a, b) = (document(100.0, &[], 0, 0.0), document(200.0, &[], 0, 0.0));
        let doubled = rows(&a, &b);
        assert_eq!(verdict(&doubled, "host_ns_per_op"), "worse");
        assert_eq!(verdict(&doubled, "virt_ops_per_s"), "ok");
        let halved = rows(&b, &a);
        assert_eq!(verdict(&halved, "host_ns_per_op"), "ok");
        assert_eq!(verdict(&halved, "virt_ops_per_s"), "worse");
    }

    #[test]
    fn more_failures_or_a_missing_metric_are_worse() {
        let a = document(100.0, &[], 0, 0.0);
        let failing = rows(&a, &document(100.0, &[], 3, 0.0));
        assert_eq!(verdict(&failing, "fail_share"), "worse");
        assert_eq!(verdict(&failing, "write_amp"), "ok");
        // Fewer failures is fine.
        assert_eq!(verdict(&rows(&document(100.0, &[], 3, 0.0), &a), "fail_share"), "ok");
        let partial = document(100.0, &["write_amp"], 0, 0.0);
        assert_eq!(verdict(&rows(&a, &partial), "write_amp"), "worse");
        assert_eq!(verdict(&rows(&partial, &a), "write_amp"), "worse");
    }

    #[test]
    fn a_missing_workload_is_worse_and_no_workload_is_no_comparison() {
        let a = document(100.0, &[], 0, 0.0);
        let empty = Json::parse("{\"workloads\": {}}").expect("parses");
        assert!(rows(&a, &empty).iter().all(|r| r.verdict == "worse"));
        assert!(rows(&empty, &a).iter().all(|r| r.verdict == "worse"));
        assert!(rows(&empty, &empty).is_empty());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let (a, b) = (document(100.0, &[], 0, 0.9), document(200.0, &[], 0, 0.0));
        let rows = rows(&a, &b);
        assert_eq!(verdict(&rows, "host_ns_per_op"), "unresolved");
        assert_eq!(verdict(&rows, "setup_s"), "worse");
    }
}
