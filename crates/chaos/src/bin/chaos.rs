//! `chaos` — crash/fault sweep campaigns over the simulated stack.
//!
//! ```text
//! chaos smoke                         CI-sized sweep (24 cases), JSON to stdout
//! chaos sweep [--seeds N] [--crash-points M] [--ops K]
//!             [--profile power_cut|device_lies|mixed] [--snap] [--out PATH]
//!                                     full sweep (default 200 cases)
//! chaos case --seed S [--config 0..3] [--crash-pm P] [--ops K]
//!            [--fault-seed F] [--snap]
//!                                     one case, verbose JSON
//! chaos failover [--full] [--seeds N] [--kill-points M] [--ops K] [--out PATH]
//!                                     leader-kill replication sweep
//! ```
//!
//! Exit status is non-zero if any case fails its invariants.

use std::process::ExitCode;

use nob_chaos::campaign::{run_campaign, CampaignSpec, FaultProfile};
use nob_chaos::{run_case, run_failover_campaign, ChaosCase, FailoverSpec, FaultPlan, CONFIGS};
use nob_sim::json::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos smoke\n       chaos sweep [--seeds N] [--crash-points M] [--ops K] \
         [--profile power_cut|device_lies|mixed] [--snap]\n       chaos case --seed S \
         [--config 0..{}] [--crash-pm P] [--ops K] [--fault-seed F] [--snap]\n       \
         chaos failover [--full] [--seeds N] [--kill-points M] [--ops K] [--out PATH]",
        CONFIGS - 1
    );
    ExitCode::from(2)
}

/// Pulls `--name value` out of the argument list.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The integer after `--name`, if the flag is given.
fn parse_flag(args: &[String], name: &str) -> Result<Option<u64>, ExitCode> {
    let parse = |v: String| {
        v.parse().map_err(|_| {
            eprintln!("chaos: {name} expects an integer, got {v:?}");
            ExitCode::from(2)
        })
    };
    flag_value(args, name).map(parse).transpose()
}

/// Sets `field` from `--name N` when the flag is given, else leaves it.
fn set<T>(args: &[String], name: &str, field: &mut T, f: fn(u64) -> T) -> Result<(), ExitCode> {
    if let Some(n) = parse_flag(args, name)? {
        *field = f(n);
    }
    Ok(())
}

/// `m` points spread evenly over the run, ending at 1000 ‰.
fn points(m: u64) -> Vec<u32> {
    let m = m.max(1) as u32;
    (1..=m).map(|i| i * 1000 / m).collect()
}

/// `spec` with each flag given applied to its field.
fn sweep_spec(mut spec: CampaignSpec, args: &[String]) -> Result<CampaignSpec, ExitCode> {
    set(args, "--seeds", &mut spec.seeds, |n| (1..=n.max(1)).collect())?;
    set(args, "--crash-points", &mut spec.crash_points_pm, points)?;
    set(args, "--ops", &mut spec.ops, |k| k as usize)?;
    spec.snap_to_commit_phase |= flag_present(args, "--snap");
    if let Some(p) = flag_value(args, "--profile") {
        spec.profile = FaultProfile::parse(&p).ok_or_else(|| {
            eprintln!("chaos: unknown profile {p:?}");
            ExitCode::from(2)
        })?;
    }
    Ok(spec)
}

/// The smoke (or `--full`) failover spec with each flag given applied.
fn failover_spec(args: &[String]) -> Result<FailoverSpec, ExitCode> {
    let mut spec =
        if flag_present(args, "--full") { FailoverSpec::full() } else { FailoverSpec::smoke() };
    set(args, "--seeds", &mut spec.seeds, |n| (1..=n.max(1)).collect())?;
    set(args, "--kill-points", &mut spec.kill_points_pm, points)?;
    set(args, "--ops", &mut spec.ops, |k| k as usize)?;
    Ok(spec)
}

/// Writes a report to `--out PATH`, or to stdout without the flag.
fn emit(report: &Json, args: &[String]) -> Result<(), ExitCode> {
    let Some(path) = flag_value(args, "--out") else {
        println!("{report}");
        return Ok(());
    };
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
        eprintln!("chaos: cannot write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    eprintln!("chaos: wrote {path}");
    Ok(())
}

fn run_sweep(spec: CampaignSpec, args: &[String]) -> Result<ExitCode, ExitCode> {
    let result = run_campaign(&sweep_spec(spec, args)?);
    emit(&result.to_json(), args)?;
    eprintln!(
        "chaos: {} cases, {} passed, {} failed, {} undetected values, {} unexplained losses",
        result.results.len(),
        result.passed(),
        result.failed(),
        result.undetected_total(),
        result.unexplained_losses()
    );
    Ok(if result.failed() == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_one(args: &[String]) -> Result<ExitCode, ExitCode> {
    let Some(seed) = parse_flag(args, "--seed")? else {
        eprintln!("chaos case: --seed is required");
        return Err(ExitCode::from(2));
    };
    let mut case =
        ChaosCase::new(seed, parse_flag(args, "--config")?.unwrap_or(1) as usize % CONFIGS);
    set(args, "--crash-pm", &mut case.crash_pm, |p| p as u32)?;
    set(args, "--ops", &mut case.ops, |k| k as usize)?;
    set(args, "--fault-seed", &mut case.plan, FaultPlan::seeded)?;
    case.snap_to_commit_phase = flag_present(args, "--snap");
    let r = run_case(&case);
    println!("{}", r.to_json());
    Ok(if r.pass { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_failover(args: &[String]) -> Result<ExitCode, ExitCode> {
    let result = run_failover_campaign(&failover_spec(args)?);
    emit(&result.to_json(), args)?;
    eprintln!(
        "chaos failover: {} cases, {} passed, {} failed",
        result.results.len(),
        result.passed(),
        result.failed()
    );
    Ok(if result.failed() == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let rest = &args[1..];
    let out = match cmd.as_str() {
        "smoke" => run_sweep(CampaignSpec::smoke(), rest),
        "sweep" => run_sweep(CampaignSpec::full(), rest),
        "case" => run_one(rest),
        "failover" => run_failover(rest),
        _ => return usage(),
    };
    match out {
        Ok(code) | Err(code) => code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_sets_its_field_and_nothing_else() {
        let same = |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        };
        same(&sweep_spec(CampaignSpec::smoke(), &[]).unwrap(), &CampaignSpec::smoke());
        same(&sweep_spec(CampaignSpec::full(), &[]).unwrap(), &CampaignSpec::full());
        same(&failover_spec(&[]).unwrap(), &FailoverSpec::smoke());
        same(&failover_spec(&["--full".into()]).unwrap(), &FailoverSpec::full());
        let args = ["--crash-points", "4", "--ops", "9"].map(String::from);
        let spec = sweep_spec(CampaignSpec::smoke(), &args).unwrap();
        assert_eq!((spec.crash_points_pm, spec.ops), (vec![250, 500, 750, 1000], 9));
        same(&spec.seeds, &CampaignSpec::smoke().seeds);
    }
}
