//! `bench_ledger`: the two-clock, steady-state benchmark behind
//! `BENCHMARK.json`. See `bench/ledger/README.md`.
//!
//! ```text
//! bench_ledger run     [--workload <name>|all] [--seed 42] [--reps 7] [--quick] [--out FILE]
//! bench_ledger trace   [--workload <name>|all] [--seed 42] [--quick] [--out FILE]
//! bench_ledger compare A.json B.json
//! bench_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   # driver protocol
//! ```

use std::process::ExitCode;
use std::time::Instant;

mod alloc;
mod checks;
mod compare;
mod input;
mod layers;
mod ledger;
mod measure;
mod primitives;
mod report;
mod spec;
mod stack;
mod workload;

use input::Sizes;
use ledger::{Budget, Outcome};
use spec::spec;
use workload::Scenario;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What to measure: the untraced end-to-end run or the traced per-layer
/// run.
#[derive(Clone, Copy)]
enum Mode {
    Run(Budget),
    Trace,
}

fn measure<S: Scenario>(name: &'static str, generate: impl FnOnce() -> S, mode: Mode) -> Outcome {
    let t = Instant::now();
    let sc = generate();
    let gen_s = t.elapsed().as_secs_f64();
    match mode {
        Mode::Run(budget) => ledger::run(name, &sc, gen_s, budget),
        Mode::Trace => ledger::trace(name, &sc),
    }
}

/// Runs workload `name`; `None` for an unknown name.
fn workload(name: &str, seed: u64, sizes: Sizes, mode: Mode) -> Option<Outcome> {
    Some(match name {
        "fill" => measure("fill", || input::fill(seed, sizes), mode),
        "read" => measure("read", || input::read(seed, sizes), mode),
        "serve" => measure("serve", || input::serve(seed, sizes), mode),
        "scan" => measure("scan", || input::scan(seed, sizes), mode),
        _ => return None,
    })
}

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.words.windows(2).find(|w| w[0] == flag).map(|w| w[1].as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")),
            None => Ok(default),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.words.iter().any(|w| w == flag)
    }
}

/// `--workload all`: one child process per workload, so that
/// `host_peak_rss_mb` is each workload's own and one workload's heap
/// never shapes the next one's timings. Children print their tables to
/// the inherited stdout and, when `out` is set, leave their document
/// entry beside it for the parent to assemble.
fn every_workload(args: &Args, out: Option<&str>) -> Result<(Vec<String>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut entries = Vec::new();
    let mut ok = true;
    for (name, _) in &spec().workloads {
        let part = out.map(|path| format!("{path}.{name}.part"));
        let mut child = std::process::Command::new(&exe);
        // The same command line, minus the flags this loop sets itself.
        let mut words = args.words.iter();
        while let Some(word) = words.next() {
            if word == "--workload" || word == "--out" {
                words.next();
            } else {
                child.arg(word);
            }
        }
        child.args(["--workload", name]);
        if let Some(part) = &part {
            child.args(["--part", "--out", part]);
        }
        let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
        ok &= status.success();
        if let Some(part) = &part {
            entries.push(std::fs::read_to_string(part).map_err(|e| format!("{part}: {e}"))?);
            std::fs::remove_file(part).map_err(|e| format!("{part}: {e}"))?;
        }
    }
    Ok((entries, ok))
}

fn usage() -> String {
    "usage: bench_ledger run|trace [--workload <name>|all] [--seed N] [--reps N] [--quick] \
     [--out FILE]\n       bench_ledger compare A.json B.json\n       \
     bench_ledger --workload <name> --seed N --seconds S --trace 0|1"
        .to_string()
}

fn main_inner() -> Result<bool, String> {
    let args = Args { words: std::env::args().skip(1).collect() };
    let command = args.words.first().map(String::as_str).unwrap_or_default();
    let seed: u64 = args.number("--seed", 42)?;
    let sizes = if args.has("--quick") { Sizes { div: 20 } } else { Sizes::FULL };
    match command {
        "compare" => match &args.words[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err(usage()),
        },
        "run" | "trace" => {
            let out = args.value("--out");
            let min_reps = args.number("--reps", if args.has("--quick") { 1 } else { 7 })?;
            if min_reps == 0 {
                return Err(format!("--reps: at least 1\n{}", usage()));
            }
            let (entries, ok) = match args.value("--workload").unwrap_or("all") {
                "all" => every_workload(&args, out)?,
                name => {
                    let mode = if command == "trace" {
                        Mode::Trace
                    } else {
                        Mode::Run(Budget { min_reps, seconds: 0.0 })
                    };
                    let o =
                        workload(name, seed, sizes, mode).ok_or(format!("no workload `{name}`"))?;
                    report::print(&o);
                    (vec![report::entry(&o, true)], o.failed == 0)
                }
            };
            if let Some(path) = out {
                // `--part` (set by `every_workload`) asks for the bare entry.
                let text = if args.has("--part") {
                    entries.concat()
                } else {
                    report::document(command, seed, sizes.div, &entries)
                };
                std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            }
            Ok(ok)
        }
        // The driver protocol: one workload, one result line last.
        _ if args.has("--workload") => {
            let name = args.value("--workload").ok_or_else(usage)?;
            let mode = match args.number("--trace", 0u8)? {
                0 => {
                    let seconds = args.number("--seconds", spec().run_seconds)?;
                    Mode::Run(Budget { min_reps: 3, seconds })
                }
                _ => Mode::Trace,
            };
            let o = workload(name, seed, sizes, mode).ok_or(format!("no workload `{name}`"))?;
            report::print(&o);
            println!("{}", report::driver_line(&o));
            Ok(true)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two runs of one seed must agree on every virtual metric, every
    /// count and every check, byte for byte; only host-clock fields may
    /// differ. Runs every workload at the `--quick` size, in both modes.
    #[test]
    fn same_seed_same_document_apart_from_host_fields() {
        let sizes = Sizes { div: 20 };
        let budget = Budget { min_reps: 2, seconds: 0.0 };
        for mode in [Mode::Run(budget), Mode::Trace] {
            let document = || {
                let outcomes: Vec<Outcome> = spec()
                    .workloads
                    .iter()
                    .map(|w| workload(&w.0, 7, sizes, mode).expect("listed workload"))
                    .collect();
                let listed = match mode {
                    Mode::Run(_) => &spec().end_to_end,
                    Mode::Trace => &spec().per_layer,
                };
                for o in &outcomes {
                    assert_eq!(o.failed, 0, "{}: {:?}", o.workload, o.notes);
                    // Exactly the metrics BENCHMARK.json lists, in its order.
                    let reported: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
                    let listed: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
                    assert_eq!(reported, listed, "{}", o.workload);
                }
                let entries: Vec<String> =
                    outcomes.iter().map(|o| report::entry(o, false)).collect();
                report::document("test", 7, sizes.div, &entries)
            };
            let (a, b) = (document(), document());
            assert_eq!(a, b);
            assert!(nob_bench::json::Json::parse(&a).is_some(), "document parses");
        }
    }
}
