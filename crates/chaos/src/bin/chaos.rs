//! `chaos` — one fault-injected crash/recovery case over the simulated
//! stack. The sweeps over many cases are `nob-bench`'s `fig chaos` and
//! `fig failover` documents.
//!
//! ```text
//! chaos case --seed S [--config 0..3] [--crash-pm P] [--ops K]
//!            [--fault-seed F] [--snap]
//!                                     one case, its full JSON to stdout
//! ```
//!
//! The JSON holds the run's fields (`seed` … `reclaimed_files`), then the
//! cut's (`crash_pm` … `pass`).
//!
//! Exit status is non-zero if the case fails its invariants.

use std::process::ExitCode;

use nob_chaos::{config_name, prepare_run, validate_crash, ChaosCase, FaultPlan, CONFIGS};
use nob_sim::json::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos case --seed S [--config 0..{}] [--crash-pm P] [--ops K] [--fault-seed F] \
         [--snap]",
        CONFIGS - 1
    );
    ExitCode::from(2)
}

/// The integer after `--name`, if the flag is given.
fn parse_flag(args: &[String], name: &str) -> Result<Option<u64>, ExitCode> {
    let value = args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let parse = |v: &String| {
        v.parse().map_err(|_| {
            eprintln!("chaos: {name} expects an integer, got {v:?}");
            ExitCode::from(2)
        })
    };
    value.map(parse).transpose()
}

/// Sets `field` from `--name N` when the flag is given, else leaves it.
fn set<T>(args: &[String], name: &str, field: &mut T, f: fn(u64) -> T) -> Result<(), ExitCode> {
    if let Some(n) = parse_flag(args, name)? {
        *field = f(n);
    }
    Ok(())
}

fn run_one(args: &[String]) -> Result<ExitCode, ExitCode> {
    let Some(seed) = parse_flag(args, "--seed")? else {
        eprintln!("chaos case: --seed is required");
        return Err(ExitCode::from(2));
    };
    let mut case =
        ChaosCase::new(seed, parse_flag(args, "--config")?.unwrap_or(1) as usize % CONFIGS);
    let mut crash_pm = 500;
    set(args, "--crash-pm", &mut crash_pm, |p| p as u32)?;
    set(args, "--ops", &mut case.ops, |k| k as usize)?;
    set(args, "--fault-seed", &mut case.plan, FaultPlan::seeded)?;
    let run = prepare_run(&case);
    let r = validate_crash(&run, crash_pm, args.iter().any(|a| a == "--snap"));
    let Json::Object(cut) = r.to_json() else { unreachable!("a cut is an object") };
    let fields = [
        ("seed", case.seed.into()),
        ("config", config_name(case.config).into()),
        ("run_end_ns", run.end.as_nanos().into()),
        ("faulted_plan", (!case.plan.is_none()).into()),
        ("shadow_files", run.final_stats.shadow_files.into()),
        ("reclaimed_files", run.final_stats.reclaimed_files.into()),
    ];
    let fields = fields.into_iter().map(|(key, value)| (key.to_string(), value));
    println!("{}", Json::object(fields.chain(cut)));
    Ok(if r.pass { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "case" => run_one(rest).unwrap_or_else(|code| code),
        _ => usage(),
    }
}
