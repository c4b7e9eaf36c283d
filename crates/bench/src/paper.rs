//! The paper's own evaluation as sweeps: Fig. 2a / 2b (§3's motivation),
//! Fig. 4 (db_bench), Table 1 (syncs), §5.2 (power-off consistency),
//! Fig. 5 (YCSB) and the ablations DESIGN.md calls out — plus YCSB-E
//! through the sharded store. Each is an entry of [`sweep::SWEEPS`], so
//! each is golden-pinned (at the scale Tier-1 can afford), rendered into
//! EXPERIMENTS.md from that golden, and runnable at the documented scale
//! with `fig -- <name> --scale N`.
//!
//! An invariant here is a *shape claim of the paper that was measured to
//! hold at both the pinned and the documented scale*. Claims that flip
//! with scale (which of seven systems is fastest on fillrandom, NobLSM
//! against LevelDB on readrandom and on the read-mostly YCSB phases, the
//! factor between HyperLevelDB's sync count and LevelDB's) are pinned by
//! the golden bytes and deliberately not asserted; EXPERIMENTS.md lists
//! them.

use nob_baselines::Variant;
use nob_ext4::Ext4Fs;
use nob_sim::json::Json;
use nob_sim::Nanos;
use nob_store::Store;
use nob_workloads::keys::{key, shuffled, value};
use nob_workloads::ycsb::{self, YcsbWorkload};
use nob_workloads::{dbbench, Report};
use noblsm::{Db, SyncMode};

use crate::output::Pivot;
use crate::scenarios::{fig2a_strategy, raw_fs};
use crate::shards::{disciplines, store_options};
use crate::sweep::{self, Axis, Grid, Row, Sweep, ASYNC, DISCIPLINES, SYNC};
use crate::{gb, us_per_op, Scale, PAPER_TABLE_LARGE, PAPER_TABLE_SMALL};

/// The seven systems of Figs. 4–5 and Table 1, as positions in
/// [`Variant::paper_seven`].
const SYSTEMS: Axis = Axis { name: "system", values: &[0, 1, 2, 3, 4, 5, 6] };
const LEVELDB: u64 = 0;
const BOLT: u64 = 1;
const ROCKSDB: u64 = 3;
const HYPER: u64 = 4;
const PEBBLES: u64 = 5;
const NOB: u64 = 6;

fn system(position: u64) -> Variant {
    Variant::paper_seven()[position as usize]
}

/// A fresh database of `variant` on a fresh paper-shaped filesystem.
fn open(variant: Variant, scale: Scale, paper_table: u64) -> (Ext4Fs, Db) {
    let fs = scale.fresh_fs();
    let opts = variant.options(&scale.base_options(paper_table));
    (fs.clone(), Db::open(fs, "db", opts, Nanos::ZERO).expect("open db"))
}

/// The table headed `heading`, begun when the cells move on to it: the
/// panels of a figure are consecutive runs of its cells.
fn panel<'t>(tables: &'t mut Vec<Pivot>, corner: &str, heading: &str) -> &'t mut Pivot {
    if tables.last().and_then(|t| t.heading.as_deref()) != Some(heading) {
        tables.push(Pivot::new(corner).headed(heading));
    }
    tables.last_mut().expect("pushed above if empty")
}

const STRATEGIES: [&str; 3] = ["Async", "Direct", "Sync"];

/// Fig. 2a: 4 GB and 8 GB written in 2 MB files, three strategies.
pub const FIG2A: Sweep = Sweep {
    figure: "paper_fig2a",
    title: "Fig. 2a: the cost of syncs on a raw SSD",
    cells_key: "fig2a_cells",
    header: &[],
    golden_scale: 32,
    axes: &[
        Axis { name: "volume_gb", values: &[4, 8] },
        Axis { name: "strategy", values: &[0, 1, 2] },
    ],
    run_cell: fig2a_cell,
    note: "real 2 MB files and unscaled device costs, only the file count scales; virtual \
           seconds, × scale to compare with the paper's",
    tables: fig2a_tables,
    footer: fig2a_footer,
    invariants: fig2a_invariants,
};

fn fig2a_cell(point: &[u64], scale: Scale) -> Row {
    let [volume_gb, strategy] = *point else { unreachable!("two axes") };
    let strategy = STRATEGIES[strategy as usize];
    // Files keep the paper's real 2 MB size: the per-file flush/latency
    // ratio is what shapes this figure.
    let bytes = (volume_gb << 30) / scale.factor;
    let elapsed = fig2a_strategy(&raw_fs(), strategy, bytes, 2 << 20);
    vec![
        ("strategy", strategy.into()),
        ("volume_gb", volume_gb.into()),
        ("seconds", Json::fixed(elapsed.as_secs_f64(), 6)),
    ]
}

fn fig2a_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    sweep::pivot(cells, "[s]", |c| {
        let volume = format!("{} GB", c.num("volume_gb")?);
        Some((c.text("strategy")?.to_string(), volume, format!("{:.2}", c.num("seconds")?)))
    })
}

/// Direct / Async, Sync / Direct and Sync / Async of one volume's cells.
fn fig2a_ratios(seconds: [f64; 3]) -> [f64; 3] {
    let [asynchronous, direct, sync] = seconds;
    [direct / asynchronous, sync / direct, sync / asynchronous]
}

fn fig2a_footer(cells: &[Json]) -> Option<String> {
    let [a, d, s] = cells.get(..3)? else { return None };
    let r = fig2a_ratios([a.num("seconds")?, d.num("seconds")?, s.num("seconds")?]);
    Some(format!(
        "Ratios at 4 GB (paper): Direct / Async = {:.1}× (9.5×), Sync / Direct = +{:.1} % \
         (+36.7 %), Sync / Async = {:.1}× (13.0×)\n\n",
        r[0],
        (r[1] - 1.0) * 100.0,
        r[2]
    ))
}

fn fig2a_invariants(g: &Grid<'_>) {
    for &volume in g.axis(0) {
        let r = fig2a_ratios([0, 1, 2].map(|s| g.num(&[volume, s], "seconds")));
        assert!((8.0..=12.0).contains(&r[0]), "Direct / Async at {volume} GB: {r:?}");
        assert!((1.2..=1.5).contains(&r[1]), "Sync / Direct at {volume} GB: {r:?}");
        assert!((11.0..=15.0).contains(&r[2]), "Sync / Async at {volume} GB: {r:?}");
    }
}

/// Fig. 2b: LevelDB with and without syncs, small against large
/// SSTables, fillrandom then overwrite at 1 KB values. [`Scale::bytes`]
/// floors a table at 16 KB, so beyond 1/128 the "2 MB" column is larger
/// than a 2 MB-equivalent table and at 1/4096 both columns are the same
/// table; every row therefore records the table size it really ran with
/// and the invariants demand a ≥ 4× gap.
pub const FIG2B: Sweep = Sweep {
    figure: "paper_fig2b",
    title: "Fig. 2b: SSTable size and syncs on LevelDB",
    cells_key: "fig2b_cells",
    header: &[],
    golden_scale: 1024,
    axes: &[
        Axis { name: "paper_table", values: &[PAPER_TABLE_SMALL, PAPER_TABLE_LARGE] },
        Axis { name: "no_sync", values: &[0, 1] },
    ],
    run_cell: fig2b_cell,
    note: "10 M / scale requests of 1 KB per phase; tables floor at 16 KB and `table bytes` is \
           what each row really ran with; virtual seconds, × scale to compare with the paper's",
    tables: fig2b_tables,
    footer: sweep::no_footer,
    invariants: fig2b_invariants,
};

fn fig2b_cell(point: &[u64], scale: Scale) -> Row {
    let [paper_table, no_sync] = *point else { unreachable!("two axes") };
    let (series, variant) =
        [("Sync", Variant::LevelDb), ("No-Sync", Variant::VolatileLevelDb)][no_sync as usize];
    let ops = scale.micro_ops();
    let (_, mut db) = open(variant, scale, paper_table);
    // db_bench semantics: a phase's time ends when the foreground
    // finishes; compaction debt drains between phases, unmeasured.
    let fill = dbbench::fillrandom(&mut db, ops, 1024, 42, Nanos::ZERO).expect("fillrandom");
    let settled = db.wait_idle(fill.finished).expect("drain compactions");
    let over = dbbench::overwrite(&mut db, ops, 1024, 43, settled).expect("overwrite");
    vec![
        ("paper_table_mb", Json::from(paper_table >> 20)),
        ("series", series.into()),
        ("table_bytes", Json::from(scale.base_options(paper_table).table_size)),
        ("fillrandom_s", Json::fixed(fill.wall().as_secs_f64(), 6)),
        ("overwrite_s", Json::fixed(over.wall().as_secs_f64(), 6)),
    ]
}

fn fig2b_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut table = Pivot::new("paper table size, series");
    for c in cells {
        let row = format!("{} MB, {}", c.num("paper_table_mb")?, c.text("series")?);
        table.push(&row, "table bytes", c.num("table_bytes")?.to_string());
        table.push(&row, "fillrandom [s]", format!("{:.2}", c.num("fillrandom_s")?));
        table.push(&row, "overwrite [s]", format!("{:.2}", c.num("overwrite_s")?));
    }
    Some(vec![table])
}

fn fig2b_invariants(g: &Grid<'_>) {
    let (small, large) = (PAPER_TABLE_SMALL, PAPER_TABLE_LARGE);
    let bytes = |table| g.num(&[table, 0], "table_bytes");
    let (floored, full) = (bytes(small), bytes(large));
    assert!(full >= 4.0 * floored, "the 16 KB floor merged the columns: {floored} vs {full} B");
    for phase in ["fillrandom_s", "overwrite_s"] {
        let (sync, no_sync) = (|t| g.num(&[t, 0], phase), |t| g.num(&[t, 1], phase));
        for table in [small, large] {
            assert!(sync(table) > no_sync(table), "{phase}: syncs must cost (paper table {table})");
        }
        assert!(sync(small) > sync(large), "{phase}: small tables must be slower under Sync");
        assert!(sync(large) > 1.5 * no_sync(large), "{phase}: large tables must not hide syncs");
    }
}

const WORKLOADS: [&str; 4] = ["fillrandom", "overwrite", "readseq", "readrandom"];
const VALUE_SIZES: [u64; 5] = [256, 512, 1024, 2048, 4096];

/// Fig. 4: seven systems × four db_bench workloads × five value sizes,
/// mean time per operation. Every cell fills its own fresh database.
pub const FIG4: Sweep = Sweep {
    figure: "paper_fig4",
    title: "Fig. 4: seven systems × db_bench × value size",
    cells_key: "fig4_cells",
    header: &[],
    golden_scale: 4096,
    axes: &[
        Axis { name: "workload", values: &[0, 1, 2, 3] },
        SYSTEMS,
        Axis { name: "value_size", values: &VALUE_SIZES },
    ],
    run_cell: fig4_cell,
    note: "10 M / scale requests at every value size (the byte volume grows with the value); \
           µs/op of virtual time by value size in bytes",
    tables: fig4_tables,
    footer: sweep::no_footer,
    invariants: fig4_invariants,
};

fn fig4_cell(point: &[u64], scale: Scale) -> Row {
    let [workload, sys, value_size] = *point else { unreachable!("three axes") };
    let (workload, vsize) = (WORKLOADS[workload as usize], value_size as usize);
    let ops = scale.micro_ops();
    let (_, mut db) = open(system(sys), scale, PAPER_TABLE_LARGE);
    let fill = dbbench::fillrandom(&mut db, ops, vsize, 42, Nanos::ZERO).expect("fillrandom");
    // db_bench semantics: measure until the foreground finishes; drain
    // compaction debt only between phases.
    let us = if workload == "fillrandom" {
        us_per_op(fill.wall(), ops)
    } else {
        let t = db.wait_idle(fill.finished).expect("drain");
        match workload {
            "overwrite" => {
                let over = dbbench::overwrite(&mut db, ops, vsize, 43, t).expect("overwrite");
                us_per_op(over.wall(), ops)
            }
            "readseq" => dbbench::readseq(&mut db, t).expect("readseq").mean_us_per_op(),
            _ => {
                dbbench::readrandom(&mut db, ops, ops, 44, t).expect("readrandom").mean_us_per_op()
            }
        }
    };
    vec![
        ("workload", workload.into()),
        ("system", Json::from(system(sys).name())),
        ("value_size", value_size.into()),
        ("us_per_op", Json::fixed(us, 6)),
    ]
}

fn fig4_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut tables = Vec::new();
    for c in cells {
        let workload = c.text("workload")?;
        let letter = ["a", "b", "c", "d"][WORKLOADS.iter().position(|w| *w == workload)?];
        let table = panel(&mut tables, "[µs/op]", &format!("Fig. 4{letter} — {workload}"));
        let size = c.num("value_size")?.to_string();
        table.push(c.text("system")?, &size, format!("{:.2}", c.num("us_per_op")?));
    }
    Some(tables)
}

fn fig4_invariants(g: &Grid<'_>) {
    let us = |workload: u64, sys: u64, size: u64| g.num(&[workload, sys, size], "us_per_op");
    for size in VALUE_SIZES {
        for (w, name) in [(0, "fillrandom"), (1, "overwrite")] {
            let (nob, leveldb) = (us(w, NOB, size), us(w, LEVELDB, size));
            assert!(nob < leveldb, "{name} @ {size} B: NobLSM {nob} must beat LevelDB {leveldb}");
        }
        // readseq walks the same data in the same order whatever wrote
        // it; only PebblesDB's fragmented levels make the walk dearer.
        let leveldb = us(2, LEVELDB, size);
        for &sys in SYSTEMS.values.iter().filter(|&&s| s != PEBBLES) {
            let other = us(2, sys, size);
            let off = (other - leveldb).abs();
            assert!(off <= 0.01 * leveldb, "readseq @ {size} B: system {sys} at {other}");
        }
        assert!(us(2, PEBBLES, size) > 1.01 * leveldb, "readseq @ {size} B: PebblesDB outlier");
        // readrandom: LevelDB and NobLSM share the cheapest tree shape;
        // which of the two is ahead flips with the value size.
        for ahead in [LEVELDB, NOB] {
            for behind in [BOLT, ROCKSDB, HYPER, PEBBLES] {
                let (a, b) = (us(3, ahead, size), us(3, behind, size));
                assert!(a < b, "readrandom @ {size} B: system {ahead} above system {behind}");
            }
        }
    }
}

/// Table 1: syncs and data synced during fillrandom with 1 KB values.
pub const TABLE1: Sweep = Sweep {
    figure: "paper_table1",
    title: "Table 1: number of syncs and data synced (fillrandom, 1 KB)",
    cells_key: "table1_cells",
    header: &[],
    golden_scale: 2048,
    axes: &[SYSTEMS],
    run_cell: table1_cell,
    note: "counters read when the foreground finishes; ratios are to LevelDB; `GB × scale` \
           compares with the paper's GB; `read amp` (tables probed per GET) is a sanity column",
    tables: table1_tables,
    footer: sweep::no_footer,
    invariants: table1_invariants,
};

fn table1_cell(point: &[u64], scale: Scale) -> Row {
    let variant = system(point[0]);
    let ops = scale.micro_ops();
    let (fs, mut db) = open(variant, scale, PAPER_TABLE_LARGE);
    fs.reset_stats(); // exclude DB-creation syncs, as the paper's counters would
    let fill = dbbench::fillrandom(&mut db, ops, 1024, 42, Nanos::ZERO).expect("fillrandom");
    // Read when the foreground finishes, like the paper's
    // instrumentation of a terminating db_bench process.
    let stats = fs.stats();
    // A healthy leveled tree probes a low single-digit number of tables
    // per get; a blowup means compaction stopped keeping up.
    let t = db.wait_idle(fill.finished).expect("drain");
    dbbench::readrandom(&mut db, (ops / 10).max(100), ops, 44, t).expect("readrandom");
    vec![
        ("system", variant.name().into()),
        ("syncs", stats.sync_calls.into()),
        ("bytes_synced", stats.bytes_synced.into()),
        ("rescaled_synced_gb", Json::fixed(gb(stats.bytes_synced * scale.factor), 2)),
        ("read_amp", Json::fixed(db.stats().read_amplification(), 2)),
    ]
}

fn table1_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let leveldb = cells.first()?;
    let mut table = Pivot::new("LSM-tree");
    for c in cells {
        let row = c.text("system")?;
        let ratio = |key| Some(format!("{:.2}", c.num(key)? / leveldb.num(key)?));
        table.push(row, "syncs", c.num("syncs")?.to_string());
        table.push(row, "sync ratio", ratio("syncs")?);
        table.push(row, "synced GB", format!("{:.4}", c.num("bytes_synced")? / 1e9));
        table.push(row, "GB ratio", ratio("bytes_synced")?);
        table.push(row, "GB × scale", format!("{:.2}", c.num("rescaled_synced_gb")?));
        table.push(row, "read amp", format!("{:.2}", c.num("read_amp")?));
    }
    Some(vec![table])
}

fn table1_invariants(g: &Grid<'_>) {
    for (key, band) in [("syncs", 0.08..=0.16), ("bytes_synced", 0.10..=0.18)] {
        let of = |sys: u64| g.num(&[sys], key);
        let ratio = of(NOB) / of(LEVELDB);
        assert!(band.contains(&ratio), "NobLSM's {key} are {ratio:.3} of LevelDB's, not {band:?}");
        for sys in [BOLT, PEBBLES] {
            assert!(of(sys) < of(LEVELDB), "system {sys} must stay below LevelDB on {key}");
        }
    }
    for &sys in SYSTEMS.values.iter().filter(|&&s| s != NOB) {
        assert!(g.num(&[NOB], "syncs") < g.num(&[sys], "syncs"), "NobLSM syncs least (vs {sys})");
    }
    // Its hardcoded small tables. The paper's 2.53× is not asserted: the
    // factor shrinks with the scale (3.39× at 1/256, 1.85× at 1/2048).
    assert!(g.num(&[HYPER], "syncs") > g.num(&[LEVELDB], "syncs"), "HyperLevelDB > LevelDB");
}

/// §5.2: sudden power-off (`halt -f -p -n`) during fillrandom, three
/// times each for LevelDB and NobLSM. The paper's observation: "KV pairs
/// stored in SSTables are intact while some ones in the logs are broken".
pub const CONSISTENCY: Sweep = Sweep {
    figure: "paper_consistency",
    title: "§5.2: power-off during fillrandom",
    cells_key: "consistency_cells",
    header: &[],
    golden_scale: 2048,
    axes: &[
        Axis { name: "system", values: &[LEVELDB, NOB] },
        Axis { name: "repetition", values: &[1, 2, 3] },
    ],
    run_cell: consistency_cell,
    note: "repetition r cuts power (4 + r) / 8 of the way through the run; every written key \
           is then read back from the recovered tree",
    tables: consistency_tables,
    footer: sweep::no_footer,
    invariants: consistency_invariants,
};

fn consistency_cell(point: &[u64], scale: Scale) -> Row {
    let [sys, rep] = *point else { unreachable!("two axes") };
    let variant = system(sys);
    let ops = scale.micro_ops();
    let (fs, mut db) = open(variant, scale, PAPER_TABLE_LARGE);
    // The cut lands mid-run, after the run: keep every instant.
    fs.pin_crash_horizon();
    // fillrandom writes in the order `shuffled(ops, rep)`, which classifies
    // the losses below.
    let fill = dbbench::fillrandom(&mut db, ops, 1024, rep, Nanos::ZERO).expect("fillrandom");
    let order = shuffled(ops, rep);
    // No flushing of dirty data: power goes at a repetition-specific
    // instant of the (virtual) run.
    let crash_at = Nanos::from_nanos(fill.finished.as_nanos() * (4 + rep) / 8);
    let crashed = fs.crashed_view(crash_at);
    let recovered = Db::open(crashed, "db", db.options().clone(), crash_at);
    let mut recovered = recovered.expect("recovery succeeds");
    recovered.check_invariants().expect("recovered tree is well formed");
    let (mut intact, mut lost, mut corrupt) = (0u64, 0u64, 0u64);
    let mut t = crash_at;
    for &k in &order {
        let (got, t2) = recovered.get_at_time(t, &key(k)).expect("get");
        t = t2;
        match got {
            Some(v) if v == value(k, 0, 1024) => intact += 1,
            Some(_) => corrupt += 1,
            None => lost += 1,
        }
    }
    vec![
        ("system", variant.name().into()),
        ("repetition", rep.into()),
        ("wrote", ops.into()),
        ("intact", intact.into()),
        ("lost", lost.into()),
        ("corrupt", corrupt.into()),
    ]
}

fn consistency_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut table = Pivot::new("system, repetition");
    for c in cells {
        let row = format!("{} rep {}", c.text("system")?, c.num("repetition")?);
        let percent = 100.0 * c.num("intact")? / c.num("wrote")?;
        table.push(&row, "wrote", c.num("wrote")?.to_string());
        table.push(&row, "intact", c.num("intact")?.to_string());
        table.push(&row, "recovered", format!("{percent:.1} %"));
        table.push(&row, "lost from log", c.num("lost")?.to_string());
        table.push(&row, "corrupt", c.num("corrupt")?.to_string());
    }
    Some(vec![table])
}

fn consistency_invariants(g: &Grid<'_>) {
    for c in g.cells() {
        assert_eq!(c.num("corrupt"), Some(0.0), "no KV pair may ever be corrupt: {c:?}");
        assert_eq!(c.num("intact").zip(c.num("lost")).map(|(i, l)| i + l), c.num("wrote"), "{c:?}");
        assert!(c.num("intact") > Some(0.0), "flushed data must survive: {c:?}");
    }
    for &rep in g.axis(1) {
        let recovered = |sys| 100.0 * g.num(&[sys, rep], "intact") / g.num(&[sys, rep], "wrote");
        let (leveldb, nob) = (recovered(LEVELDB), recovered(NOB));
        assert!((leveldb - nob).abs() <= 5.0, "rep {rep}: LevelDB {leveldb} % vs NobLSM {nob} %");
    }
}

/// The paper's run order; each is a field of a [`FIG5`] cell.
const PHASES: [&str; 8] = ["Load-A", "A", "B", "C", "F", "D", "Load-E", "E"];

/// Fig. 5: YCSB, seven systems, single- and four-threaded; one cell is
/// one system's whole eight-phase sequence (the phases share a tree, so
/// they cannot be separate cells).
pub const FIG5: Sweep = Sweep {
    figure: "paper_fig5",
    title: "Fig. 5: YCSB average time per request",
    cells_key: "fig5_cells",
    header: &[],
    golden_scale: 4096,
    axes: &[Axis { name: "threads", values: &[1, 4] }, SYSTEMS],
    run_cell: fig5_cell,
    note: "50 M / scale records of 1 KB, 10 M / scale requests per workload, in the paper's run \
           order; µs/op of virtual time (the loads are single-threaded at either thread count)",
    tables: fig5_tables,
    footer: sweep::no_footer,
    invariants: fig5_invariants,
};

fn fig5_cell(point: &[u64], scale: Scale) -> Row {
    let [threads, sys] = *point else { unreachable!("two axes") };
    let variant = system(sys);
    let (records, ops) = (scale.ycsb_records(), scale.ycsb_ops());
    let mut row = vec![("threads", threads.into()), ("system", variant.name().into())];
    let mut record = |phase: &'static str, r: &Report| {
        row.push((phase, Json::fixed(r.mean_us_per_op(), 6)));
    };
    // Load-A: clear data set, fill with records (fresh DB ⇒ just fill).
    let (_, mut db) = open(variant, scale, PAPER_TABLE_LARGE);
    let load_a = ycsb::load(&mut db, records, 1024, 1, Nanos::ZERO).expect("Load-A");
    record("Load-A", &load_a);
    let mut now = db.wait_idle(load_a.finished).expect("drain");
    for w in [YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::C, YcsbWorkload::F, YcsbWorkload::D] {
        let r = ycsb::run(&mut db, w, ops, records, 1024, threads as usize, 7, now)
            .unwrap_or_else(|e| panic!("workload {w}: {e}"));
        record(w.name(), &r);
        now = db.wait_idle(r.finished).expect("drain");
    }
    // Load-E: clear data sets and refill — fresh DB on a fresh fs.
    let (_, mut db) = open(variant, scale, PAPER_TABLE_LARGE);
    let load_e = ycsb::load(&mut db, records, 1024, 2, Nanos::ZERO).expect("Load-E");
    record("Load-E", &load_e);
    let now = db.wait_idle(load_e.finished).expect("drain");
    let e = ycsb::run(&mut db, YcsbWorkload::E, ops, records, 1024, threads as usize, 8, now);
    record("E", &e.expect("workload E"));
    row
}

fn fig5_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut tables = Vec::new();
    for c in cells {
        let heading = match c.num("threads")? as u64 {
            1 => "Fig. 5a — 1 thread".to_string(),
            n => format!("Fig. 5b — {n} threads"),
        };
        let table = panel(&mut tables, "[µs/op]", &heading);
        for phase in PHASES {
            table.push(c.text("system")?, phase, format!("{:.2}", c.num(phase)?));
        }
    }
    Some(tables)
}

fn fig5_invariants(g: &Grid<'_>) {
    for &threads in g.axis(0) {
        for phase in ["Load-A", "A", "F", "Load-E"] {
            let (nob, leveldb) = (g.num(&[threads, NOB], phase), g.num(&[threads, LEVELDB], phase));
            assert!(nob < leveldb, "{phase} × {threads}: NobLSM {nob} must beat LevelDB {leveldb}");
        }
        // Fragmented levels make PebblesDB's scans the outlier of E.
        let (pebbles, leveldb) = (g.num(&[threads, PEBBLES], "E"), g.num(&[threads, LEVELDB], "E"));
        assert!(pebbles > 2.0 * leveldb, "E × {threads}: PebblesDB {pebbles} vs LevelDB {leveldb}");
    }
}

/// What one ablation arm moves away from the NobLSM-shaped default;
/// multiples are of the knob's scaled default.
#[derive(Clone, Copy)]
enum Knob {
    Nothing,
    Reclaim(u64),
    Commit(u64),
    Writeback(u64),
    FastCommit,
}

const RECLAIM: &str = "reclamation interval";
const COMMIT: &str = "Ext4 async-commit interval";
const L0_SYNC: &str = "the one remaining sync";
const WRITEBACK: &str = "streaming write-back threshold";
const FAST_COMMIT: &str = "fast-commit Ext4 vs NobLSM's co-design";

/// The five studies, as (study, arm, sync mode, knob): (1) the
/// `is_committed` poll the paper matches to Ext4's 5 s commit interval
/// "to reduce unnecessary checks"; (2) how fast asynchronous commits make
/// successors durable; (3) what NobLSM's single sync per minor compaction
/// buys and costs; (4) the kernel-flusher model that lets commits find
/// ordered data already persisted; (5) §3's system-side alternative,
/// LevelDB on fast-commit Ext4.
const ARMS: [(&str, &str, SyncMode, Knob); 18] = [
    (RECLAIM, "×1", SyncMode::NobLsm, Knob::Reclaim(1)),
    (RECLAIM, "×2", SyncMode::NobLsm, Knob::Reclaim(2)),
    (RECLAIM, "×4", SyncMode::NobLsm, Knob::Reclaim(4)),
    (RECLAIM, "×16", SyncMode::NobLsm, Knob::Reclaim(16)),
    (COMMIT, "×1", SyncMode::NobLsm, Knob::Commit(1)),
    (COMMIT, "×2", SyncMode::NobLsm, Knob::Commit(2)),
    (COMMIT, "×4", SyncMode::NobLsm, Knob::Commit(4)),
    (COMMIT, "×16", SyncMode::NobLsm, Knob::Commit(16)),
    (L0_SYNC, "LevelDB (sync all)", SyncMode::Always, Knob::Nothing),
    (L0_SYNC, "NobLSM (sync L0)", SyncMode::NobLsm, Knob::Nothing),
    (L0_SYNC, "no syncs (volatile)", SyncMode::Never, Knob::Nothing),
    (WRITEBACK, "×1", SyncMode::NobLsm, Knob::Writeback(1)),
    (WRITEBACK, "×8", SyncMode::NobLsm, Knob::Writeback(8)),
    (WRITEBACK, "×64", SyncMode::NobLsm, Knob::Writeback(64)),
    (WRITEBACK, "off (commit-time only)", SyncMode::NobLsm, Knob::Writeback(u64::MAX)),
    (FAST_COMMIT, "LevelDB / ordered", SyncMode::Always, Knob::Nothing),
    (FAST_COMMIT, "LevelDB / fast-commit", SyncMode::Always, Knob::FastCommit),
    (FAST_COMMIT, "NobLSM / ordered", SyncMode::NobLsm, Knob::Nothing),
];
/// Positions in [`ARMS`] the invariants name.
const RECLAIM_ARMS: std::ops::Range<u64> = 0..4;
const SYNC_ALL: u64 = 8;
const SYNC_L0: u64 = 9;
const SYNC_NONE: u64 = 10;

/// The ablations as one axis over the eighteen arms of the five studies.
pub const ABLATE: Sweep = Sweep {
    figure: "paper_ablate",
    title: "Ablations of the design choices DESIGN.md calls out",
    cells_key: "ablate_cells",
    header: &[],
    golden_scale: 2048,
    axes: &[Axis {
        name: "arm",
        values: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
    }],
    run_cell: ablate_cell,
    note: "5 M / scale fillrandom requests of 1 KB per arm; `×n` multiplies the scaled default \
           of the study's knob; shadow files are sampled twenty times per run",
    tables: ablate_tables,
    footer: sweep::no_footer,
    invariants: ablate_invariants,
};

fn ablate_cell(point: &[u64], scale: Scale) -> Row {
    let (study, arm, mode, knob) = ARMS[point[0] as usize];
    let (mut cfg, five_seconds) = (scale.fs_config(), scale.duration(Nanos::from_secs(5)));
    let mut base = scale.base_options(PAPER_TABLE_LARGE).with_sync_mode(mode);
    match knob {
        Knob::Nothing => {}
        Knob::Reclaim(mult) => base.reclaim_interval = five_seconds * mult,
        Knob::Commit(mult) => cfg.commit_interval = five_seconds * mult,
        Knob::Writeback(mult) => {
            cfg.writeback_chunk = ((256 << 10) / scale.factor).max(1).saturating_mul(mult);
        }
        Knob::FastCommit => cfg.fast_commit = true,
    }
    let fs = Ext4Fs::new(cfg);
    let mut db = Db::open(fs.clone(), "db", base, Nanos::ZERO).expect("open db");
    fs.reset_stats();
    let ops = scale.micro_ops() / 2;
    // Run in slices so the shadow count can be sampled.
    let slice = (ops / 20).max(1);
    let (mut done, mut peak, mut now) = (0, 0, Nanos::ZERO);
    while done < ops {
        let n = slice.min(ops - done);
        now = dbbench::fillrandom(&mut db, n, 1024, 42 + done, now).expect("fill").finished;
        done += n;
        peak = peak.max(db.stats().shadow_files);
    }
    vec![
        ("study", study.into()),
        ("arm", arm.into()),
        ("us_per_op", Json::fixed(us_per_op(now, ops), 6)),
        ("peak_shadow_files", peak.into()),
        ("syncs", Json::from(fs.stats().sync_calls)),
    ]
}

fn ablate_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut tables = Vec::new();
    for c in cells {
        let (table, row) = (panel(&mut tables, "arm", c.text("study")?), c.text("arm")?);
        table.push(row, "time [µs/op]", format!("{:.2}", c.num("us_per_op")?));
        table.push(row, "peak shadow files", c.num("peak_shadow_files")?.to_string());
        table.push(row, "syncs", c.num("syncs")?.to_string());
    }
    Some(tables)
}

fn ablate_invariants(g: &Grid<'_>) {
    let [all, l0, none] = [SYNC_ALL, SYNC_L0, SYNC_NONE].map(|a| g.num(&[a], "us_per_op"));
    assert!(none <= l0 && l0 < all, "volatile {none} <= NobLSM {l0} < LevelDB {all}");
    assert_eq!(g.num(&[SYNC_NONE], "syncs"), 0.0, "the volatile build never syncs");
    let (l0, all) = (g.num(&[SYNC_L0], "syncs"), g.num(&[SYNC_ALL], "syncs"));
    assert!(4.0 * l0 < all, "one sync per minor compaction: {l0} vs LevelDB's {all}");
    let shadows: Vec<f64> = RECLAIM_ARMS.map(|a| g.num(&[a], "peak_shadow_files")).collect();
    let grows = shadows.windows(2).all(|w| w[0] <= w[1]);
    assert!(grows, "a slower reclamation poll can only retain more shadows: {shadows:?}");
}

/// YCSB-E end to end against the sharded store (an extension, not a
/// paper figure): Load-E, then the 95 % scan / 5 % insert mix with every
/// scan going through `Store::scan`'s snapshot-pinned cross-shard merge.
pub const YCSB_E_STORE: Sweep = Sweep {
    figure: "fig_ycsb_e_store",
    title: "YCSB-E through the store's snapshot-pinned cross-shard scan",
    cells_key: "ycsb_e_store_cells",
    header: &[],
    golden_scale: 4096,
    axes: &[DISCIPLINES, Axis { name: "shards", values: &[1, 2, 4] }],
    run_cell: ycsb_e_store_cell,
    note: "50 M / scale records of 1 KB, 10 M / scale requests (scan length ~U(1, 100)); mean \
           µs/op of virtual time",
    tables: ycsb_e_store_tables,
    footer: sweep::no_footer,
    invariants: ycsb_e_store_invariants,
};

fn ycsb_e_store_cell(point: &[u64], scale: Scale) -> Row {
    let [discipline, shards] = *point else { unreachable!("two axes") };
    let (name, variant, wopts) = disciplines()[discipline as usize];
    let (records, ops) = (scale.ycsb_records(), scale.ycsb_ops());
    let opts = store_options(variant, shards as usize, scale);
    let mut store = Store::open(opts).expect("open store");
    let load = ycsb::load_store(&mut store, &wopts, records, 1024, 2).expect("Load-E");
    let e = ycsb::run_e_store(&mut store, &wopts, ops, records, 1024, 8).expect("workload E");
    vec![
        ("name", name.into()),
        ("shards", shards.into()),
        ("load_e_us", Json::fixed(load.mean_us_per_op(), 6)),
        ("e_us", Json::fixed(e.mean_us_per_op(), 6)),
    ]
}

fn ycsb_e_store_tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut table = Pivot::new("discipline × shards");
    for c in cells {
        let row = format!("{} × {}", c.text("name")?, c.num("shards")?);
        table.push(&row, "Load-E [µs/op]", format!("{:.2}", c.num("load_e_us")?));
        table.push(&row, "E [µs/op]", format!("{:.2}", c.num("e_us")?));
    }
    Some(vec![table])
}

fn ycsb_e_store_invariants(g: &Grid<'_>) {
    for &discipline in g.axis(0) {
        for phase in ["load_e_us", "e_us"] {
            let us: Vec<f64> = g.axis(1).iter().map(|&s| g.num(&[discipline, s], phase)).collect();
            let falls = us.windows(2).all(|w| w[0] > w[1]);
            assert!(falls, "{phase} must fall with shards under discipline {discipline}: {us:?}");
        }
    }
    for &shards in g.axis(1) {
        for phase in ["load_e_us", "e_us"] {
            let (sync, unsynced) = (g.num(&[SYNC, shards], phase), g.num(&[ASYNC, shards], phase));
            assert!(sync > unsynced, "{phase} at {shards} shards: Sync {sync} <= Async {unsynced}");
        }
    }
}
