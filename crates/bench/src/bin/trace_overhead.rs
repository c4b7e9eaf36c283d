//! The trace-overhead guard: tracing must stay observation, not cost.
//! Measures the *wall-clock* price of span recording — seven interleaved
//! traced/untraced rounds of twenty fig4-style fillrandom fills,
//! compared by median — and exits 1 if tracing costs more than
//! [`BUDGET_PCT`] over the untraced run. Takes no arguments.

/// Seven rounds of twenty fills each, so the untraced interval the
/// percentage is taken against is at least 150 ms (it was ≈ 20 ms as one
/// fill, and a few milliseconds of runner noise read as +17 % or +24 %).
const ROUNDS: usize = 7;
const FILLS: usize = 20;
/// The overhead budget, in percent of the untraced run.
const BUDGET_PCT: f64 = 10.0;

fn main() {
    let (traced, untraced) = nob_bench::scenarios::trace_overhead(ROUNDS, FILLS);
    let pct = if untraced > 0 { (traced as f64 / untraced as f64 - 1.0) * 100.0 } else { 0.0 };
    println!(
        "trace overhead: traced {traced} ns vs untraced {untraced} ns (median of {ROUNDS}, \
         {FILLS} fills each) = {pct:+.1}% (limit +{BUDGET_PCT:.0}%)"
    );
    if pct > BUDGET_PCT {
        eprintln!("trace_overhead: tracing costs {pct:+.1}%, over the +{BUDGET_PCT:.0}% budget");
        std::process::exit(1);
    }
}
