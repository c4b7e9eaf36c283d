//! CI bench-smoke: runs the fixed-seed fig2a + fig4 + replication +
//! scan smoke scenarios, writes `bench_smoke.json` (throughput, p99 and
//! the full nob-trace summary per scenario) and gates against
//! `bench/baseline.json`.
//!
//! ```text
//! bench_smoke [--baseline <path>] [--out <path>]
//!             [--write-baseline] [--inject-slow-ssd] [--no-gate]
//!             [--trace-overhead [--max-overhead-pct N]]
//! ```
//!
//! Exit codes: 0 = gate passed (or `--write-baseline`/`--no-gate`),
//! 1 = regression detected or baseline unreadable, 2 = usage error
//! (`--max-overhead-pct` without a number).
//!
//! `--inject-slow-ssd` runs with a synthetically degraded device (half
//! bandwidth, double command/FLUSH latency) — the documented dry run
//! proving the gate actually fails on a ≥2× tail-latency regression.
//!
//! `--trace-overhead` skips the scenarios and instead measures the
//! *wall-clock* cost of span recording: seven interleaved traced/untraced
//! rounds of twenty fillrandom fills, compared by median. Exits 1 if tracing costs more
//! than `--max-overhead-pct` (default 10) over the untraced run.

use nob_bench::json::Json;
use nob_bench::smoke::{baseline_json, gate_run, run_json};

/// The trace-overhead guard's run: seven interleaved traced/untraced
/// rounds of twenty fills each, so the untraced interval the percentage
/// is taken against is at least 150 ms (it was ≈ 20 ms as one fill, and a
/// few milliseconds of runner noise read as +17 % or +24 %).
const OVERHEAD_ROUNDS: usize = 7;
const OVERHEAD_FILLS: usize = 20;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

/// The trace-overhead budget in percent: `--max-overhead-pct N`, 10 when
/// the flag is absent. A missing or non-numeric value must not fall back
/// to the default (the gate would silently run with a budget nobody
/// asked for), and NaN would pass every comparison: both are usage errors.
fn parse_overhead_limit(args: &[String]) -> Result<f64, String> {
    let Some(at) = args.iter().position(|a| a == "--max-overhead-pct") else {
        return Ok(10.0);
    };
    match args.get(at + 1).map(|v| v.parse::<f64>()) {
        Some(Ok(limit)) if limit.is_finite() && limit >= 0.0 => Ok(limit),
        Some(_) => Err(format!("--max-overhead-pct takes a number >= 0, got `{}`", args[at + 1])),
        None => Err("--max-overhead-pct takes a value: --max-overhead-pct N".to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path =
        arg_value(&args, "--baseline").unwrap_or_else(|| "bench/baseline.json".to_string());
    let out_path = arg_value(&args, "--out")
        .unwrap_or_else(|| "target/nob-results/bench_smoke.json".to_string());
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let slow_ssd = args.iter().any(|a| a == "--inject-slow-ssd");
    let no_gate = args.iter().any(|a| a == "--no-gate");

    if args.iter().any(|a| a == "--trace-overhead") {
        let limit = parse_overhead_limit(&args).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        });
        let (traced, untraced) =
            nob_bench::scenarios::trace_overhead(OVERHEAD_ROUNDS, OVERHEAD_FILLS);
        let pct = if untraced > 0 { (traced as f64 / untraced as f64 - 1.0) * 100.0 } else { 0.0 };
        println!(
            "trace overhead: traced {traced} ns vs untraced {untraced} ns \
             (median of {OVERHEAD_ROUNDS}, {OVERHEAD_FILLS} fills each) = {pct:+.1}% \
             (limit +{limit:.0}%)"
        );
        if pct > limit {
            eprintln!("bench_smoke: tracing overhead {pct:+.1}% exceeds the +{limit:.0}% budget");
            std::process::exit(1);
        }
        println!("bench_smoke: tracing overhead within budget");
        return;
    }
    if slow_ssd {
        println!("bench_smoke: running with synthetic 2x-slower SSD (gate demo)");
    }
    let results = nob_bench::scenarios::smoke_all(slow_ssd);
    for r in &results {
        println!(
            "{:<18} {:>12.2} {:<8} p99({}) = {} ns",
            r.name,
            r.throughput,
            r.unit,
            r.p99_class.name(),
            r.p99_ns
        );
    }

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, run_json(&results)).expect("write bench_smoke.json");
    println!("wrote {out_path}");

    if write_baseline {
        if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
            std::fs::create_dir_all(dir).expect("create baseline directory");
        }
        std::fs::write(&baseline_path, baseline_json(&results)).expect("write baseline");
        println!("wrote {baseline_path}");
        return;
    }
    if no_gate {
        return;
    }

    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {baseline_path}: {e}");
        eprintln!("regenerate it with scripts/regen-bench-baseline.sh");
        std::process::exit(1);
    });
    let baseline = Json::parse(&text).unwrap_or_else(|| {
        eprintln!("baseline {baseline_path} is not valid JSON");
        std::process::exit(1);
    });
    let verdicts = gate_run(&results, &baseline);
    let mut failed = false;
    for v in &verdicts {
        if v.pass() {
            println!("gate: {} OK", v.name);
        } else {
            failed = true;
            for f in &v.failures {
                eprintln!("gate: FAIL {f}");
            }
        }
    }
    if failed {
        eprintln!("bench_smoke: regression gate failed (thresholds: throughput -15%, p99 +25%)");
        eprintln!("if the change is intentional, rerun scripts/regen-bench-baseline.sh");
        std::process::exit(1);
    }
    println!("bench_smoke: all scenarios within thresholds");
}

#[cfg(test)]
mod tests {
    use super::parse_overhead_limit;

    #[test]
    fn overhead_limit_is_parsed_strictly() {
        let args = |rest: &[&str]| -> Vec<String> {
            std::iter::once("bench_smoke").chain(rest.iter().copied()).map(String::from).collect()
        };
        assert_eq!(parse_overhead_limit(&args(&["--trace-overhead"])), Ok(10.0));
        assert_eq!(
            parse_overhead_limit(&args(&["--trace-overhead", "--max-overhead-pct", "7.5"])),
            Ok(7.5)
        );
        for bad in [
            &["--max-overhead-pct", "abc"][..],
            &["--max-overhead-pct"],
            &["--max-overhead-pct", "--trace-overhead"],
            &["--max-overhead-pct", "NaN"],
            &["--max-overhead-pct", "inf"],
            &["--max-overhead-pct", "-1"],
        ] {
            assert!(parse_overhead_limit(&args(bad)).is_err(), "{bad:?} must be a usage error");
        }
    }
}
