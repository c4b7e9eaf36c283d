//! The crash and failover campaigns as sweeps, `fig_chaos` and
//! `fig_failover`: `nob-chaos`'s crash and leader-kill cases over fixed
//! grids, pinned like every other document.
//!
//! * **`fig_chaos`** checks the paper's §4.4 claim under device faults:
//!   each cell replays one seeded workload under one of the four
//!   sync/layout configurations, with seeded device lies on odd seeds and
//!   none on even ones, then cuts power at ten instants of that one run
//!   and recovers each cut through `Db::open` (falling back to
//!   `Db::repair`). [`nob_sim::oracle`] judges every cut: nothing
//!   fabricated, and an acked write lost only where the injection log
//!   explains it.
//! * **`fig_failover`** kills a 4-shard replication leader at eight
//!   instants of ten seeded workloads, promotes the follower and checks
//!   that it holds exactly the acked writes, that follower reads never go
//!   backwards and that the changefeed resumes without a gap.
//!
//! Both run over virtual time from fixed seeds, so a moved verdict or
//! instant fails the golden test with the per-cell diff table.

use nob_chaos::{
    config_name, prepare_run, run_failover_case, validate_crash, CaseResult, ChaosCase,
    FailoverCase, FaultPlan, Injection,
};
use nob_sim::json::Json;

use crate::output::Pivot;
use crate::sweep::{self, Axis, Grid, Row, Sweep};
use crate::Scale;

/// Operations per crash workload.
const OPS: u64 = 120;
/// Value payload of both workloads, bytes.
const VALUE: u64 = 64;
/// Store shards on both sides of a failover.
const SHARDS: u64 = 4;
/// Writes per failover workload.
const WRITES: u64 = 200;
/// The crash instants probed in every run, per-mille of its duration.
const CRASH_POINTS_PM: [u32; 10] = [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];

/// The crash sweep: configuration × workload seed, ten cuts per cell.
pub const CRASH: Sweep = Sweep {
    figure: "fig_chaos",
    title: "crash recovery under device faults",
    cells_key: "chaos_cells",
    header: &[("ops", OPS), ("value_size", VALUE)],
    golden_scale: 1,
    axes: &[
        Axis { name: "config", values: &[0, 1, 2, 3] },
        Axis { name: "seed", values: &[1, 2, 3, 4, 5] },
    ],
    run_cell: crash_cell,
    note: "{ops} ops of {value_size} B values per run, cut at 100, 200, …, 1000 ‰ of it; odd \
           seeds run with seeded device lies, even seeds clean; the cells do not read the scale",
    tables: crash_tables,
    footer: sweep::no_footer,
    invariants: crash_invariants,
};

/// The failover sweep: workload seed × kill instant.
pub const FAILOVER: Sweep = Sweep {
    figure: "fig_failover",
    title: "leader kill and promotion",
    cells_key: "failover_cells",
    header: &[("shards", SHARDS), ("ops", WRITES), ("value_size", VALUE)],
    golden_scale: 1,
    axes: &[
        Axis { name: "seed", values: &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10] },
        Axis { name: "kill", values: &[125, 250, 375, 500, 625, 750, 875, 1000] },
    ],
    run_cell: failover_cell,
    note: "{ops} writes of {value_size} B values on {shards} shards, the leader killed at the \
           column's ‰ of them; each entry is keys verified on the promoted leader / unacked \
           writes lost with the old one; the cells do not read the scale",
    tables: failover_tables,
    footer: sweep::no_footer,
    invariants: failover_invariants,
};

fn crash_cell(point: &[u64], _: Scale) -> Row {
    let [config, seed] = *point else { unreachable!("two axes") };
    let config = config as usize;
    // Odd seeds lie; the config is mixed into the plan's seed so that the
    // layouts see distinct lies.
    let plan = if seed % 2 == 1 {
        FaultPlan::seeded(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ config as u64)
    } else {
        FaultPlan::none()
    };
    let faulted = !plan.is_none();
    let case = ChaosCase {
        ops: OPS as usize,
        value_size: VALUE as usize,
        plan,
        ..ChaosCase::new(seed, config)
    };
    let run = prepare_run(&case);
    let points: Vec<Json> =
        CRASH_POINTS_PM.iter().map(|&pm| crash_point(&validate_crash(&run, pm, false))).collect();
    let injections: Vec<Json> =
        run.log.lock().unwrap_or_else(|p| p.into_inner()).iter().map(Injection::to_json).collect();
    vec![
        ("config", config_name(config).into()),
        ("seed", seed.into()),
        ("faulted", faulted.into()),
        ("run_end_ns", run.end.as_nanos().into()),
        ("shadow_files", run.final_stats.shadow_files.into()),
        ("reclaimed_files", run.final_stats.reclaimed_files.into()),
        ("injections", Json::Array(injections)),
        ("points", Json::Array(points)),
        ("trace", run.trace.summary().to_json()),
    ]
}

/// One cut's verdict, with the injections before the cut as a count.
fn crash_point(r: &CaseResult) -> Json {
    let Json::Object(fields) = r.to_json() else { unreachable!("a cut is an object") };
    Json::object(fields.into_iter().map(|(key, value)| match key.as_str() {
        "injections" => (key, r.injections.len().into()),
        _ => (key, value),
    }))
}

/// A cell's cuts.
fn points(cell: &Json) -> Option<&[Json]> {
    cell.get("points")?.as_array()
}

/// Whether the boolean field `key` of `doc` is set.
fn is_true(doc: &Json, key: &str) -> bool {
    doc.get(key).and_then(Json::as_bool) == Some(true)
}

/// One row per run: its faults and what its cuts recovered.
fn crash_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut table = Pivot::new("config / seed");
    for c in cells {
        let row = format!("{} / {}", c.text("config")?, c.num("seed")?);
        let points = points(c)?;
        let sum = |key: &str| points.iter().map(|p| p.num(key)).sum::<Option<f64>>();
        let count = |key: &str| points.iter().filter(|p| is_true(p, key)).count();
        let faulted = c.get("faulted")?.as_bool()?;
        table.push(&row, "faults", if faulted { "seeded" } else { "none" }.to_string());
        table.push(&row, "injections", c.get("injections")?.as_array()?.len().to_string());
        table.push(&row, "cuts passed", format!("{}/{}", count("pass"), points.len()));
        table.push(&row, "acked pairs", sum("acked_pairs")?.to_string());
        table.push(&row, "acked lost", sum("lost_acked")?.to_string());
        table.push(&row, "fabricated", sum("undetected_values")?.to_string());
        table.push(&row, "repairs", count("repaired").to_string());
        table.push(&row, "WAL corruptions", sum("wal_corruptions_detected")?.to_string());
    }
    Some(vec![table])
}

fn crash_invariants(g: &Grid<'_>) {
    let mut fault_traced = false;
    for &config in g.axis(0) {
        for &seed in g.axis(1) {
            let cell = g.at(&[config, seed]);
            let at = format!("fig_chaos config={config} seed={seed}");
            for p in points(cell).unwrap_or_else(|| panic!("{at}: no cuts")) {
                let pm = p.num("crash_pm").unwrap_or(f64::NAN);
                assert!(is_true(p, "pass"), "{at}: the crash at {pm} ‰ fails: {p}");
                assert_eq!(
                    p.num("undetected_values"),
                    Some(0.0),
                    "{at}: the crash at {pm} ‰ recovered a value never written"
                );
                assert!(
                    p.num("lost_acked") == Some(0.0) || is_true(p, "explained"),
                    "{at}: the crash at {pm} ‰ lost acked writes no injection explains"
                );
                // Without device lies the first open recovers, as the
                // crash property tests demand.
                if !is_true(cell, "faulted") {
                    assert!(
                        !is_true(p, "repaired"),
                        "{at}: the clean crash at {pm} ‰ needed repair"
                    );
                    assert_eq!(
                        p.num("wal_corruptions_detected"),
                        Some(0.0),
                        "{at}: the clean crash at {pm} ‰ found a corrupt WAL"
                    );
                }
            }
            let Some(Json::Object(classes)) = cell.get("trace").and_then(|t| t.get("classes"))
            else {
                panic!("{at}: no trace classes")
            };
            let put = classes.iter().any(|(class, _)| class == "engine_put");
            assert!(put, "{at}: the trace lacks `engine_put`");
            let fault = classes.iter().any(|(class, _)| class.starts_with("fault_"));
            if is_true(cell, "faulted") {
                fault_traced |= fault;
            } else {
                assert!(!fault, "{at}: a clean run traced a device fault");
            }
        }
    }
    assert!(fault_traced, "fig_chaos: no faulted run traced a device fault");
}

fn failover_cell(point: &[u64], _: Scale) -> Row {
    let [seed, kill] = *point else { unreachable!("two axes") };
    let case = FailoverCase {
        seed,
        kill_pm: kill as u32,
        shards: SHARDS as usize,
        ops: WRITES as usize,
        value_size: VALUE as usize,
    };
    let o = run_failover_case(&case);
    let failures = o.failures.iter().map(|f| f.as_str().into()).collect();
    vec![
        ("seed", seed.into()),
        ("kill_pm", kill.into()),
        ("shards", case.shards.into()),
        ("ops", case.ops.into()),
        ("pass", o.pass().into()),
        ("acked_records", o.acked_records.into()),
        ("applied_seq_total", o.applied_seq_total.into()),
        ("lost_unacked", o.lost_unacked.into()),
        ("recovered_keys", o.recovered_keys.into()),
        ("feed_records", o.feed_records.into()),
        ("old_epoch", o.old_epoch.into()),
        ("new_epoch", o.new_epoch.into()),
        ("failures", Json::Array(failures)),
    ]
}

/// Seeds down, kill instants across.
fn failover_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    sweep::pivot(cells, "seed", |c| {
        let text = if c.get("pass")?.as_bool()? {
            format!("{}/{}", c.num("recovered_keys")?, c.num("lost_unacked")?)
        } else {
            "FAIL".to_string()
        };
        Some((c.num("seed")?.to_string(), format!("kill {} ‰", c.num("kill_pm")?), text))
    })
}

fn failover_invariants(g: &Grid<'_>) {
    for &seed in g.axis(0) {
        for &kill in g.axis(1) {
            let cell = g.at(&[seed, kill]);
            let at = format!("fig_failover seed={seed} kill={kill}");
            let failures = cell.get("failures").unwrap_or(&Json::Null);
            assert!(is_true(cell, "pass"), "{at}: fails: {failures}");
            assert!(g.num(&[seed, kill], "recovered_keys") > 0.0, "{at}: no key recovered");
            assert!(g.num(&[seed, kill], "feed_records") > 0.0, "{at}: the changefeed is empty");
            assert_eq!(g.num(&[seed, kill], "new_epoch"), 2.0, "{at}: the promotion's epoch");
        }
    }
    let lost = g.cells().iter().any(|c| c.num("lost_unacked") > Some(0.0));
    assert!(lost, "fig_failover: no kill left an unacked write behind");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `sweep`'s invariants on its golden with the `n`th `from`
    /// (counting from 0) replaced by `to`.
    fn check_doctored(sweep: &Sweep, golden: &str, from: &str, to: &str, n: usize) {
        let (at, _) = golden.match_indices(from).nth(n).expect("the golden has the text");
        let text = [&golden[..at], to, &golden[at + from.len()..]].concat();
        let doc = Json::parse(&text).expect("the doctored golden parses");
        (sweep.invariants)(&sweep.grid(&doc).expect("the doctored golden covers the grid"));
    }

    /// The whole crash sweep, run twice: every cell reproduces byte for
    /// byte (not only the last one `Sweep::check` reruns), every cut of
    /// the fresh document passes and the invariants hold on it.
    #[test]
    fn smoke_campaign_passes_and_reproduces() {
        let text = CRASH.document(Scale::new(1));
        assert_eq!(text, CRASH.document(Scale::new(1)), "a fixed-seed sweep is bit-for-bit stable");
        let doc = Json::parse(&text).expect("the document parses");
        let grid = CRASH.grid(&doc).expect("the document covers the grid");
        let cuts: Vec<&Json> = grid.cells().iter().flat_map(|c| points(c).unwrap()).collect();
        assert_eq!(cuts.len(), 4 * 5 * CRASH_POINTS_PM.len());
        assert!(cuts.iter().all(|p| is_true(p, "pass")), "every cut passes");
        (CRASH.invariants)(&grid);
    }

    /// A clean and a faulted run of the same configuration: both carry
    /// per-class latency histograms of the engine's writes, and device
    /// faults show up only in the faulted one.
    #[test]
    fn campaign_reports_clean_vs_faulted_latency_histograms() {
        let trace = |seed: u64| {
            let cell = Json::object(crash_cell(&[0, seed], Scale::new(1)));
            assert_eq!(is_true(&cell, "faulted"), seed % 2 == 1, "odd seeds run faulted");
            cell.get("trace").and_then(|t| t.get("classes")).cloned().expect("trace classes")
        };
        let faults = ["fault_torn_write", "fault_corrupt_write", "fault_dropped_flush"];
        let (clean, faulted) = (trace(2), trace(1));
        for classes in [&clean, &faulted] {
            let put = classes.get("engine_put").expect("an engine_put histogram");
            assert!(put.num("count") > Some(0.0), "{put}");
            assert!(put.num("p99_ns") >= put.num("p50_ns"), "{put}");
        }
        assert!(faults.iter().all(|f| clean.get(f).is_none()), "a fault in a clean run: {clean}");
        assert!(faults.iter().any(|f| faulted.get(f).is_some()), "no fault traced: {faulted}");
    }

    #[test]
    #[should_panic(expected = "fig_chaos config=0 seed=1: the crash at 100 ‰ fails")]
    fn a_failed_cut_is_named_by_its_cell() {
        let golden = include_str!("../tests/golden/fig_chaos.json");
        check_doctored(&CRASH, golden, "\"pass\": true", "\"pass\": false", 0);
    }

    /// The second cell, seed 2, runs clean: a device fault in its trace
    /// is the injector leaking into a run without a plan.
    #[test]
    #[should_panic(expected = "fig_chaos config=0 seed=2: a clean run traced a device fault")]
    fn a_fault_in_a_clean_trace_is_named_by_its_cell() {
        let golden = include_str!("../tests/golden/fig_chaos.json");
        let torn = "\"fault_torn_write\": {\"count\": 1}, \"engine_put\": {";
        check_doctored(&CRASH, golden, "\"engine_put\": {", torn, 1);
    }

    /// The second cell, seed 2, runs clean: its first cut must open
    /// without repair.
    #[test]
    #[should_panic(expected = "fig_chaos config=0 seed=2: the clean crash at 100 ‰ needed repair")]
    fn a_repaired_clean_cut_is_named_by_its_cell() {
        let golden = include_str!("../tests/golden/fig_chaos.json");
        let (from, to) = ("\"repaired\": false", "\"repaired\": true");
        let seed2 = golden.find("\"seed\": 2,").expect("the golden has seed 2");
        check_doctored(&CRASH, golden, from, to, golden[..seed2].matches(from).count());
    }

    #[test]
    #[should_panic(expected = "fig_failover seed=1 kill=125: fails")]
    fn a_failed_failover_is_named_by_its_cell() {
        let golden = include_str!("../tests/golden/fig_failover.json");
        check_doctored(&FAILOVER, golden, "\"pass\": true", "\"pass\": false", 0);
    }
}
