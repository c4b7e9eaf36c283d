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

fn parse_u64(args: &[String], name: &str, default: u64) -> Result<u64, ExitCode> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            eprintln!("chaos: {name} expects an integer, got {v:?}");
            ExitCode::from(2)
        }),
    }
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

fn run_sweep(mut spec: CampaignSpec, args: &[String]) -> Result<ExitCode, ExitCode> {
    let seeds = parse_u64(args, "--seeds", spec.seeds.len() as u64)?;
    let points = parse_u64(args, "--crash-points", spec.crash_points_pm.len() as u64)?;
    spec.ops = parse_u64(args, "--ops", spec.ops as u64)? as usize;
    spec.seeds = (1..=seeds.max(1)).collect();
    let m = points.max(1) as u32;
    spec.crash_points_pm = (1..=m).map(|i| i * 1000 / m).collect();
    spec.snap_to_commit_phase = flag_present(args, "--snap");
    if let Some(p) = flag_value(args, "--profile") {
        spec.profile = FaultProfile::parse(&p).ok_or_else(|| {
            eprintln!("chaos: unknown profile {p:?}");
            ExitCode::from(2)
        })?;
    }
    let result = run_campaign(&spec);
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
    let Some(seed) = flag_value(args, "--seed") else {
        eprintln!("chaos case: --seed is required");
        return Err(ExitCode::from(2));
    };
    let seed: u64 = seed.parse().map_err(|_| {
        eprintln!("chaos: --seed expects an integer");
        ExitCode::from(2)
    })?;
    let config = parse_u64(args, "--config", 1)? as usize % CONFIGS;
    let mut case = ChaosCase::new(seed, config);
    case.crash_pm = parse_u64(args, "--crash-pm", 500)? as u32;
    case.ops = parse_u64(args, "--ops", 120)? as usize;
    case.snap_to_commit_phase = flag_present(args, "--snap");
    if let Some(f) = flag_value(args, "--fault-seed") {
        let f: u64 = f.parse().map_err(|_| {
            eprintln!("chaos: --fault-seed expects an integer");
            ExitCode::from(2)
        })?;
        case.plan = FaultPlan::seeded(f);
    }
    let r = run_case(&case);
    println!("{}", r.to_json());
    Ok(if r.pass { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_failover(args: &[String]) -> Result<ExitCode, ExitCode> {
    let mut spec =
        if flag_present(args, "--full") { FailoverSpec::full() } else { FailoverSpec::smoke() };
    let seeds = parse_u64(args, "--seeds", spec.seeds.len() as u64)?;
    spec.seeds = (1..=seeds.max(1)).collect();
    let points = parse_u64(args, "--kill-points", spec.kill_points_pm.len() as u64)?;
    let m = points.max(1) as u32;
    spec.kill_points_pm = (1..=m).map(|i| i * 1000 / m).collect();
    spec.ops = parse_u64(args, "--ops", spec.ops as u64)? as usize;
    let result = run_failover_campaign(&spec);
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
