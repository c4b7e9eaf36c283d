//! Cross-layer tracing integration: one sink shared by the engine, the
//! filesystem and the device sees spans from all three layers, stalls
//! carry causal attribution, and fixed-seed runs summarise identically.

use nob_baselines::Variant;
use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_trace::{EventClass, TraceSink, TraceSummary};
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

fn traced_fill(variant: Variant, n: u64, seed: u64) -> TraceSummary {
    let mut db = open(variant, &small());
    let sink = TraceSink::new();
    db.set_trace_sink(sink.clone());
    let fill = dbbench::fillrandom(&mut db, n, 256, seed, Nanos::ZERO).unwrap();
    let t = db.wait_idle(fill.finished).unwrap();
    // Drive past the 5 s JBD2 timer so pending asynchronous commits fire.
    db.clock().advance_to(t + Nanos::from_secs(6));
    db.tick().unwrap();
    sink.summary()
}

#[test]
fn all_three_layers_emit_into_one_sink() {
    let s = traced_fill(Variant::LevelDb, 3000, 1);
    // Engine layer.
    let puts = s.class(EventClass::EnginePut).expect("puts traced");
    assert_eq!(puts.count, 3000);
    assert!(s.class(EventClass::MinorCompaction).is_some(), "minor compactions traced");
    // Ext4 layer: LevelDB fsyncs each flushed table → synchronous
    // journal commits at every minor compaction.
    let commits = s.class(EventClass::JournalCommit).expect("sync commits traced");
    assert!(commits.count >= 1, "table fsyncs should drive sync commits");
    // SSD layer: every sync commit ends in a foreground FLUSH.
    let flushes = s.class(EventClass::SsdFlush).expect("device FLUSH traced");
    assert!(flushes.count >= commits.count);
    // Percentiles are ordered.
    assert!(puts.p50_ns <= puts.p95_ns && puts.p95_ns <= puts.p99_ns);
    assert!(puts.p999_ns <= puts.max_ns);
}

#[test]
fn noblsm_variant_rides_asynchronous_checkpoints() {
    // NobLSM piggybacks on Ext4's timer/threshold commits instead of
    // forcing its own: the trace must show checkpoint spans, and no more
    // sync commits than LevelDB issues on the same workload.
    let nob = traced_fill(Variant::NobLsm, 3000, 1);
    let ldb = traced_fill(Variant::LevelDb, 3000, 1);
    assert!(nob.class(EventClass::Checkpoint).is_some(), "async commits traced");
    let sync_of = |s: &TraceSummary| s.class(EventClass::JournalCommit).map_or(0, |c| c.count);
    assert!(
        sync_of(&nob) <= sync_of(&ldb),
        "NobLSM must not sync more than LevelDB (nob {} vs ldb {})",
        sync_of(&nob),
        sync_of(&ldb)
    );
}

#[test]
fn stalls_carry_causal_attribution() {
    // A tiny write buffer forces memtable switches and stalls.
    let mut opts = small();
    opts.write_buffer_size = 16 << 10;
    let mut db = open(Variant::LevelDb, &opts);
    let sink = TraceSink::new();
    db.set_trace_sink(sink.clone());
    let fill = dbbench::fillrandom(&mut db, 2000, 256, 7, Nanos::ZERO).unwrap();
    db.wait_idle(fill.finished).unwrap();
    let s = sink.summary();
    assert!(s.stall_count > 0, "tiny write buffer must stall");
    assert!(!s.top_stalls.is_empty());
    assert!(s.top_stalls.len() <= TraceSummary::TOP_STALLS);
    // At least the longest stall should know what I/O it waited on —
    // under fsync-per-write there is always a prior commit and FLUSH.
    let top = &s.top_stalls[0];
    assert!(top.cause_commit.is_some(), "stall missing commit attribution");
    assert!(top.cause_flush.is_some(), "stall missing FLUSH attribution");
    let rendered = s.render();
    assert!(rendered.contains("write_stall"));
    assert!(rendered.contains("top"));
}

#[test]
fn fixed_seed_runs_summarise_byte_identically() {
    let a = traced_fill(Variant::LevelDb, 1500, 42);
    let b = traced_fill(Variant::LevelDb, 1500, 42);
    assert_eq!(
        a.to_json().to_string(),
        b.to_json().to_string(),
        "same seed must summarise identically"
    );
    let c = traced_fill(Variant::LevelDb, 1500, 43);
    assert_ne!(a.to_json().to_string(), c.to_json().to_string(), "different seed must differ");
}

#[test]
fn disabling_the_sink_restores_the_untraced_run() {
    // Timing must be identical with and without a sink (tracing is
    // observation, not behaviour), and clearing the sink stops emission.
    let run = |trace: bool| {
        let mut db = open(Variant::LevelDb, &small());
        let sink = TraceSink::new();
        if trace {
            db.set_trace_sink(sink.clone());
        }
        let fill = dbbench::fillrandom(&mut db, 1000, 256, 3, Nanos::ZERO).unwrap();
        (fill.wall(), sink)
    };
    let (traced_wall, _) = run(true);
    let (untraced_wall, untraced_sink) = run(false);
    assert_eq!(traced_wall, untraced_wall, "tracing must not change virtual time");
    assert_eq!(untraced_sink.events(), 0);
}
