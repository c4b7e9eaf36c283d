//! Rendering: the human table, the ledger document (`--out`), and the
//! one-line result the benchmark driver reads.

use crate::ledger::Outcome;
use crate::spec::{spec, Clock};

/// Unit and clock of the metric called `name`.
fn unit_and_clock(name: &str) -> (&'static str, Clock) {
    (spec().metric(name).map_or("", |m| m.unit.as_str()), Clock::of(name))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Prints one workload's metrics by name with unit and clock, then its
/// notes and verdict.
pub fn print(o: &Outcome) {
    println!("== {} ({} repetitions)", o.workload, o.reps);
    for &(name, v) in &o.metrics {
        let (unit, clock) = unit_and_clock(name);
        let spread = o.spread.iter().find(|s| s.0 == name);
        let spread =
            spread.map_or(String::new(), |s| format!("  (rep spread {:.1}%)", s.1 * 100.0));
        println!("  {name:<34} {v:>18.4} {unit:<6} {}{spread}", clock.name());
    }
    for note in o.notes.iter().chain(&o.host_notes) {
        println!("  . {note}");
    }
    println!(
        "  fail_share = {} / {} -> {}",
        o.failed,
        o.attempted,
        if o.failed == 0 { "checks pass" } else { "CHECKS FAIL" }
    );
}

/// The result line of the driver protocol.
pub fn driver_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|&(name, v)| {
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_and_clock(name).0)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// One workload's entry of the ledger document. With `host` false,
/// everything read from the host clock is left out, and what remains
/// must be byte-identical between two runs of the same seed.
pub fn entry(o: &Outcome, host: bool) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| host || unit_and_clock(m.0).1 == Clock::Virtual)
        .map(|&(name, v)| {
            let (unit, clock) = unit_and_clock(name);
            format!(
                "        \"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\", \"clock\": \"{}\"}}",
                clock.name()
            )
        })
        .collect();
    let spread: Vec<String> =
        o.spread.iter().filter(|_| host).map(|&(name, v)| format!("\"{name}\": {v}")).collect();
    let notes: Vec<String> = o
        .notes
        .iter()
        .chain(o.host_notes.iter().filter(|_| host))
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    format!(
        "    \"{}\": {{\n      \"reps\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \
         \"metrics\": {{\n{}\n      }},\n      \"spread\": {{{}}},\n      \"notes\": [\n        {}\n      ]\n    }}",
        o.workload,
        o.reps,
        o.attempted,
        o.failed,
        metrics.join(",\n"),
        spread.join(", "),
        notes.join(",\n        ")
    )
}

/// The ledger document around the workloads' `entries`.
pub fn document(mode: &str, seed: u64, div: u64, entries: &[String]) -> String {
    format!(
        "{{\n  \"bench\": \"bench_ledger\",\n  \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \
         \"size_divisor\": {div},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    )
}
