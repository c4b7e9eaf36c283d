//! Assembles the per-layer metrics of a traced run. Three sources, all
//! outside the program: exact counters read through the public stats
//! surfaces around the timed phase; the existing `TraceSink` attached
//! over the trace window (per-class percentiles and the critical-path
//! segments); and host timings taken from outside — the layered drive
//! and the primitives.

use std::collections::BTreeMap;
use std::time::Instant;

use nob_sim::Nanos;
use nob_trace::{EventClass, TraceSink};

use crate::spec::spec;
use crate::stack::{scale, Counters};
use crate::workload::{PerOp, Rep};

/// Host cost per operation at each lower entry point of the layered
/// drive.
pub struct Layered {
    /// Entering at the store API.
    pub store: PerOp,
    /// Entering at the shard engines.
    pub db: PerOp,
}

/// Everything a traced run measured for one workload.
pub struct Traced<'a> {
    /// The uninstrumented repetition run first; counts and virtual
    /// results are read from it.
    pub plain: &'a Rep,
    /// The uninstrumented repetition run last: the overheads' base.
    pub plain_again: &'a Rep,
    /// The repetition with `sink` attached over the trace window.
    pub traced: &'a Rep,
    /// The repetition with a metrics hub attached.
    pub sampled: &'a Rep,
    /// The sink `traced` filled.
    pub sink: &'a TraceSink,
    /// The layered drive (serving workloads).
    pub layered: Option<Layered>,
    /// The same inputs under `Variant::LevelDb` (`fill`).
    pub leveldb: Option<&'a Rep>,
    /// Range scans among the timed operations.
    pub scans: u64,
    /// Host primitives.
    pub primitives: Vec<(&'static str, f64)>,
    /// Check comparisons made and failed.
    pub checked: (u64, u64),
    /// The run's failures over its attempts.
    pub fail_share: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host ns per timed operation of a volume-matched replay against a
/// fresh filesystem model: the bytes the engines appended (in 4 KiB
/// calls to files rotated at 1 MiB), the fsyncs they issued (evenly
/// spaced) and the bytes the device read back (4 KiB `read_at` calls).
fn ext4_replay_ns(c: &Counters, ops: u64) -> f64 {
    let fs = scale().fresh_fs();
    let page = vec![0x5au8; 4096];
    let appends = c["ext4.bytes_buffered"] / 4096;
    let reads = c["ssd.bytes_read"] / 4096;
    let sync_every = appends / c["ext4.sync_calls"].max(1) + 1;
    let t = Instant::now();
    let mut now = Nanos::ZERO;
    let mut handle = fs.create("r0", now).expect("fresh file");
    for i in 0..appends {
        if i % 256 == 255 {
            fs.delete(&format!("r{}", i / 256), now).expect("delete");
            handle = fs.create(&format!("r{}", i / 256 + 1), now).expect("fresh file");
        }
        now = fs.append(handle, &page, now).expect("append");
        if i % sync_every == 0 {
            now = fs.fsync(handle, now).expect("fsync");
        }
    }
    for _ in 0..reads {
        now = fs.read_at(handle, 0, 4096, now).expect("read").1;
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
///
/// # Panics
///
/// Panics if a metric is set that `BENCHMARK.json` does not list (a typo
/// here or there).
pub fn assemble(t: &Traced) -> Vec<(&'static str, f64)> {
    let listed = &spec().per_layer;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, v: f64| {
        assert!(listed.iter().any(|p| p.name == name), "{name} is not in BENCHMARK.json");
        m.insert(name, v);
    };
    let c = &t.plain.counts;
    let n = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    let ops = t.plain.ops as f64;
    let virt = &t.plain.virt;

    set("lat.primary_p50_ns", virt.primary.p50_ns as f64);
    set("lat.primary_p99_ns", virt.primary.p99_ns as f64);
    set("lat.primary_p999_ns", virt.primary.p999_ns as f64);
    if let Some(other) = &virt.other {
        set("lat.other_mean_ns", other.mean_ns);
        set("lat.other_p50_ns", other.p50_ns as f64);
        set("lat.other_p99_ns", other.p99_ns as f64);
    }

    // Exact counters, passed through under their own names.
    for name in [
        "server.requests",
        "server.busy_rejects",
        "server.cursors_expired",
        "store.groups",
        "core.stalls",
        "core.slowdowns",
        "core.minor_compactions",
        "core.major_compactions",
        "core.seek_compactions",
        "core.compaction_bytes_read",
        "core.compaction_bytes_written",
        "core.cache_misses",
        "core.reclaimed_files",
        "compact.read_ns",
        "compact.merge_ns",
        "compact.write_ns",
        "compact.preempt_l0",
        "compact.backoffs",
        "ext4.sync_calls",
        "ext4.bytes_synced",
        "ext4.sync_commits",
        "ext4.async_commits",
        "ext4.journal_bytes",
        "ext4.bytes_written_back",
        "ext4.bytes_buffered",
        "ssd.bytes_written",
        "ssd.bytes_read",
        "ssd.write_commands",
        "ssd.read_commands",
        "ssd.flush_commands",
    ] {
        set(name, n(name));
    }
    set("core.shadow_files", n("end.core.shadow_files"));
    set("core.level_files", n("end.core.level_files"));
    set("core.levels", n("end.core.levels"));
    set("compact.debt_bytes_end", n("end.compact.debt_bytes"));

    // Ratios of those counters. `clock.ns` runs from the start of the
    // timed phase to settled, the span the counters cover.
    set("server.scan_pages_per_scan", ratio(n("server.scan_pages"), t.scans as f64));
    set("store.batches_per_group", ratio(n("store.batches"), n("store.groups")));
    set("store.merged_bytes_per_group", ratio(n("store.merged_bytes"), n("store.groups")));
    set("store.shard_skew", n("end.store.skew_permille") / 1000.0);
    set("core.stall_share", ratio(n("core.stall_ns"), virt.elapsed_ns as f64));
    set(
        "core.engine_write_amp",
        ratio(n("core.compaction_bytes_written"), t.plain.user_bytes as f64),
    );
    set("core.files_read_per_get", ratio(n("core.files_read"), n("core.gets")));
    set("core.get_hit_share", ratio(n("core.get_hits"), n("core.gets")));
    set(
        "core.cache_hit_rate",
        ratio(n("core.cache_hits"), n("core.cache_hits") + n("core.cache_misses")),
    );
    set(
        "compact.lane_busy_share",
        ratio(n("compact.lane_busy_ns"), n("end.compact.lanes") * n("clock.ns")),
    );
    set("ext4.syncs_per_kop", ratio(n("ext4.sync_calls") * 1000.0, ops));
    set("ssd.bytes_per_write_command", ratio(n("ssd.bytes_written"), n("ssd.write_commands")));
    set("ssd.busy_share", ratio(n("ssd.busy_ns"), n("end.shards") * n("clock.ns")));

    // Virtual percentiles per span class over the trace window.
    let summary = t.sink.summary();
    for (class, p50, p99) in [
        (EventClass::ServerRead, Some("server.read_ns_p50"), "server.read_ns_p99"),
        (EventClass::ServerWrite, Some("server.write_ns_p50"), "server.write_ns_p99"),
        (EventClass::ServerScan, Some("server.scan_ns_p50"), "server.scan_ns_p99"),
        (EventClass::GroupCommit, Some("store.group_commit_ns_p50"), "store.group_commit_ns_p99"),
        (EventClass::EnginePut, Some("core.put_ns_p50"), "core.put_ns_p99"),
        (EventClass::EngineGet, Some("core.get_ns_p50"), "core.get_ns_p99"),
        (EventClass::MinorCompaction, None, "core.minor_ns_p99"),
        (EventClass::MajorCompaction, None, "core.major_ns_p99"),
        (
            EventClass::JournalCommit,
            Some("ext4.journal_commit_ns_p50"),
            "ext4.journal_commit_ns_p99",
        ),
        (EventClass::SsdFlush, Some("ssd.flush_ns_p50"), "ssd.flush_ns_p99"),
        (EventClass::SsdRead, None, "ssd.read_ns_p99"),
    ] {
        if let Some(stats) = summary.class(class) {
            if let Some(p50) = p50 {
                set(p50, stats.p50_ns as f64);
            }
            set(p99, stats.p99_ns as f64);
        }
    }
    set("trace.dropped_spans", summary.dropped as f64);

    // Critical path: each traced request's send→reply window split into
    // named segments that sum to it exactly; means are per request.
    let cp = t.sink.critical_summary(0);
    let mut named = 0;
    for (segment, name) in [
        ("admission", "server.admission_ns_mean"),
        ("group_wait", "store.group_wait_ns_mean"),
        ("wal_write", "core.wal_write_ns_mean"),
        ("stall", "core.stall_ns_mean"),
        ("journal_wait", "ext4.journal_wait_ns_mean"),
        ("flush", "ssd.flush_wait_ns_mean"),
    ] {
        let total = cp.segment(segment).map_or(0, |s| s.total_ns);
        named += total;
        set(name, ratio(total as f64, cp.paths as f64));
    }
    set("cp.paths", cp.paths as f64);
    set("cp.other_ns_mean", ratio((cp.total_ns - named) as f64, cp.paths as f64));
    set("cp.total_ns_mean", ratio(cp.total_ns as f64, cp.paths as f64));

    // Host time per layer, from outside. With one thread and nothing
    // contended, a layer's own cost is what entering one layer lower
    // saves; the three shares sum to the wire-level figure by
    // construction. The wire-level figure is the last plain repetition's
    // (the first one of a process runs slow on a cold heap).
    let wire = PerOp::of((t.plain_again.timed_s, t.plain_again.allocs), t.plain.ops);
    let (store, db) = t.layered.as_ref().map_or((wire, wire), |l| (l.store, l.db));
    set("server.self_host_ns", wire.ns - store.ns);
    set("server.allocs_per_op", wire.allocs - store.allocs);
    set("store.self_host_ns", store.ns - db.ns);
    set("store.allocs_per_op", store.allocs - db.allocs);
    set("core.host_ns", db.ns);
    set("core.allocs_per_op", db.allocs);
    set("core.alloc_bytes_per_op", db.alloc_bytes);
    set("ext4.replay_host_ns", ext4_replay_ns(c, t.plain.ops));
    for &(name, v) in &t.primitives {
        set(name, v);
    }

    let base = t.plain_again;
    set("trace.overhead_pct", (ratio(t.traced.window_s, base.window_s) - 1.0) * 100.0);
    set("metrics.overhead_pct", (ratio(t.sampled.timed_s, base.timed_s) - 1.0) * 100.0);
    if let Some(leveldb) = t.leveldb {
        set("baselines.speedup_vs_leveldb", ratio(virt.ops_per_s, leveldb.virt.ops_per_s));
        let syncs = leveldb.counts["ext4.sync_calls"] as f64;
        set("baselines.sync_calls_vs_leveldb", ratio(n("ext4.sync_calls"), syncs));
    }

    set("check.attempted", t.checked.0 as f64);
    set("check.failed", t.checked.1 as f64);
    set("fail_share", t.fail_share);

    listed
        .iter()
        .map(|p| (p.name.as_str(), m.get(p.name.as_str()).copied().unwrap_or(0.0)))
        .collect()
}
