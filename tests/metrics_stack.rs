//! Cross-layer metrics integration: one hub shared by the engine, the
//! filesystem and the device samples gauges from all three layers on one
//! virtual-time grid, fixed-seed runs serialize byte-identically, and
//! sampling never changes virtual time.

use nob_baselines::Variant;
use nob_ext4::{Ext4Config, Ext4Fs};
use nob_metrics::MetricsHub;
use nob_sim::Nanos;
use nob_workloads::dbbench;
use noblsm::{Db, Options};

fn small() -> Options {
    let mut o = Options::default().with_table_size(64 << 10);
    o.level1_max_bytes = 256 << 10;
    o
}

fn open(variant: Variant, opts: &Options) -> Db {
    let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(16 << 20));
    Db::open(fs, "db", variant.options(opts), Nanos::ZERO).unwrap()
}

fn metered_fill(variant: Variant, n: u64, seed: u64) -> MetricsHub {
    let mut db = open(variant, &small());
    let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
    db.set_metrics_hub(hub.clone());
    let fill = dbbench::fillrandom(&mut db, n, 256, seed, Nanos::ZERO).unwrap();
    let t = db.wait_idle(fill.finished).unwrap();
    // Drive past the 5 s JBD2 timer so pending asynchronous commits fire.
    db.clock().advance_to(t + Nanos::from_secs(6));
    db.tick().unwrap();
    hub
}

#[test]
fn all_three_layers_sample_onto_one_grid() {
    let tl = metered_fill(Variant::NobLsm, 3000, 1).timeline();
    assert!(tl.samples > 10, "a multi-second run crosses many 10 ms grid instants");
    // Engine gauges (pushed).
    let mem = tl.series("engine.mem_bytes").expect("engine gauge sampled");
    assert!(mem.values.iter().any(|&v| v > 0.0), "memtable filled at some instant");
    assert!(tl.series("engine.l0.files").is_some());
    let shadows = tl.series("engine.shadow_files").expect("NobLSM shadows sampled");
    assert!(shadows.values.iter().any(|&v| v > 0.0), "NobLSM retains shadows mid-run");
    // Ext4 gauges (registered closures).
    let dirty = tl.series("ext4.dirty_bytes").expect("ext4 gauge sampled");
    assert!(dirty.values.iter().any(|&v| v > 0.0), "buffered writes dirty the cache");
    assert!(tl.series("ext4.pending_inodes").is_some());
    // SSD gauges (registered closures, two hops down).
    let flushes = tl.series("ssd.flush_commands").expect("ssd gauge sampled");
    assert!(flushes.last() > 0.0, "the L0 sync path issues FLUSH commands");
    // Every series sits on the shared grid.
    for s in &tl.series {
        assert_eq!(s.values.len(), tl.samples, "{} off-grid", s.name);
    }
}

#[test]
fn fixed_seed_timelines_serialize_byte_identically() {
    let a = metered_fill(Variant::NobLsm, 1500, 42).timeline().to_json().to_string();
    let b = metered_fill(Variant::NobLsm, 1500, 42).timeline().to_json().to_string();
    assert_eq!(a, b, "same seed must sample identically");
    let c = metered_fill(Variant::NobLsm, 1500, 43).timeline().to_json().to_string();
    assert_ne!(a, c, "different seed must differ");
}

#[test]
fn sampling_never_changes_virtual_time() {
    let run = |meter: bool| {
        let mut db = open(Variant::LevelDb, &small());
        let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
        if meter {
            db.set_metrics_hub(hub.clone());
        }
        let fill = dbbench::fillrandom(&mut db, 1000, 256, 3, Nanos::ZERO).unwrap();
        (fill.wall(), hub)
    };
    let (metered_wall, _) = run(true);
    let (unmetered_wall, unmetered_hub) = run(false);
    assert_eq!(metered_wall, unmetered_wall, "metrics must not change virtual time");
    assert_eq!(unmetered_hub.samples(), 0);
}

#[test]
fn detaching_the_hub_stops_sampling_but_keeps_the_timeline() {
    let mut db = open(Variant::LevelDb, &small());
    let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
    db.set_metrics_hub(hub.clone());
    let fill = dbbench::fillrandom(&mut db, 500, 256, 9, Nanos::ZERO).unwrap();
    let t = db.wait_idle(fill.finished).unwrap();
    let taken = hub.samples();
    assert!(taken > 0);
    db.clear_metrics_hub();
    db.clock().advance_to(t + Nanos::from_secs(10));
    db.tick().unwrap();
    assert_eq!(hub.samples(), taken, "no samples after detach");
    assert!(hub.timeline().series("engine.mem_bytes").is_some(), "history survives");
}

#[test]
fn properties_pass_through_all_three_layers() {
    let mut db = open(Variant::NobLsm, &small());
    let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
    db.set_metrics_hub(hub.clone());
    let fill = dbbench::fillrandom(&mut db, 2000, 256, 5, Nanos::ZERO).unwrap();
    db.wait_idle(fill.finished).unwrap();
    let timeline = hub.timeline();
    let last = |name: &str| timeline.series(name).unwrap_or_else(|| panic!("{name}")).last();
    // Engine: the two named properties, and the memtable gauge.
    assert!(db.property("noblsm.stats").unwrap().contains("engine.files_read="));
    let table = db.property("noblsm.compaction-stats").unwrap();
    assert!(table.contains("level") && table.contains("size(MB)"), "{table}");
    assert!(last("engine.mem_bytes") >= 0.0);
    // Ext4, through the handle the engine runs on.
    let fs = db.fs();
    assert!(fs.stats().journal_bytes > 0);
    assert!(fs.retained_bytes() > 0);
    let free = last("ext4.journal_free_bytes");
    assert!(
        free <= f64::from(128 << 20),
        "free journal space is bounded by the 128 MiB mkfs default"
    );
    // SSD.
    let io = fs.io_stats();
    assert!(io.flush_commands > 0 && io.bytes_written > 0, "{io:?}");
    assert!(fs.device_busy_time() > Nanos::ZERO);
    // Numbers with typed accessors have no property name.
    assert_eq!(db.property("noblsm.ext4.dirty-bytes"), None);
    assert_eq!(db.property("noblsm.ssd.stats"), None);
}
