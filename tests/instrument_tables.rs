//! The instrument tables: the engine's (`noblsm::db::METRICS`), the
//! filesystem's and device's (`nob_ext4::METRICS`), the store's
//! (`nob_store::METRICS`) and the server's (`nob_server::core::STATS`).
//! Each instrument has one name, and every reader — the metrics hub's
//! Prometheus exposition, the `noblsm.stats` property and INFO — prints
//! exactly the rows of its layer's table, once each, under the row's kind.

use std::collections::HashSet;

use nob_metrics::{MetricKind, MetricsHub};
use nob_server::core::STATS;
use nob_server::{shared, Client, LoopbackTransport, ServerCore, ServerOptions, SharedCore};
use nob_store::StoreOptions;

const SHARDS: usize = 2;

/// One row as the hub names it (before any shard scope) and its kind.
struct Row {
    name: String,
    kind: MetricKind,
    /// Sampled once per shard (`shardN.` scope) rather than once.
    per_shard: bool,
}

/// Every row of the four tables, plus the per-level `engine.lN.*`
/// gauges, under its hub name.
fn rows() -> Vec<Row> {
    let row = |name: String, kind, per_shard| Row { name, kind, per_shard };
    let mut rows = Vec::new();
    rows.extend(noblsm::db::METRICS.iter().map(|r| row(r.1.to_string(), r.0, true)));
    rows.extend(nob_ext4::METRICS.iter().map(|r| row(r.1.to_string(), r.0, true)));
    rows.extend(nob_store::METRICS.iter().map(|r| row(format!("store.{}", r.1), r.0, false)));
    rows.extend(STATS.iter().map(|r| row(format!("server.{}", r.2), r.1, false)));
    for level in 0..7 {
        for what in ["files", "bytes"] {
            rows.push(row(format!("engine.l{level}.{what}"), MetricKind::Gauge, true));
        }
    }
    rows
}

/// The sampled names of `row`: one per shard, or the row's own.
fn sampled_names(row: &Row) -> Vec<String> {
    if row.per_shard {
        (0..SHARDS).map(|i| format!("shard{i}.{}", row.name)).collect()
    } else {
        vec![row.name.clone()]
    }
}

/// `noblsm_`-prefixed Prometheus name of a dotted metric name.
fn prom(name: &str) -> String {
    format!("noblsm_{}", name.replace('.', "_"))
}

/// A 2-shard serving core with a hub attached, after writes, reads, a
/// scan and a flush, sampled once more at rest.
fn served() -> (SharedCore, MetricsHub) {
    let core = shared(
        ServerCore::open(ServerOptions {
            store: StoreOptions { shards: SHARDS, ..StoreOptions::default() },
            ..ServerOptions::default()
        })
        .expect("open server core"),
    );
    let hub = MetricsHub::new();
    core.borrow_mut().set_metrics_hub(&hub);
    let mut c = Client::new(LoopbackTransport::connect(&core));
    for i in 0..64u32 {
        c.set(format!("key{i:02}").as_bytes(), b"value").expect("SET");
    }
    assert_eq!(c.get(b"key07").expect("GET"), Some(b"value".to_vec()));
    assert_eq!(c.scan_all(b"", b"", 16).expect("SCAN").len(), 64);
    drop(c);
    core.borrow_mut().flush().expect("flush");
    // Shards share the grid: whoever takes an instant samples every
    // shard's engine rows, so one sample at rest sees them all.
    let rest = core.borrow().clock().now() + nob_metrics::DEFAULT_PERIOD;
    core.borrow().clock().advance_to(rest);
    assert!(hub.sample_due(rest) > 0, "a grid instant passed at rest");
    let timeline = hub.timeline();
    for name in rows().iter().filter(|r| r.per_shard).flat_map(sampled_names) {
        assert!(timeline.series(&name).is_some(), "no series `{name}`");
    }
    // Both shards took SETs. A write is counted after the pump that
    // publishes it, so the sampled value may trail `noblsm.stats`.
    for shard in 0..SHARDS {
        let writes = timeline.series(&format!("shard{shard}.engine.writes"));
        assert!(writes.is_some_and(|s| s.last() > 0.0), "shard{shard} sampled no writes");
    }
    (core, hub)
}

#[test]
fn no_name_appears_in_two_rows() {
    let mut seen = HashSet::new();
    for row in rows() {
        assert!(seen.insert(row.name.clone()), "`{}` names two rows", row.name);
    }
}

#[test]
fn every_row_is_one_series_under_its_kind() {
    let (_core, hub) = served();
    let timeline = hub.timeline();
    let text = timeline.prometheus();
    let lines: Vec<&str> = text.lines().collect();
    let mut expected = 0;
    for row in rows() {
        for name in sampled_names(&row) {
            let prom = prom(&name);
            let typed = format!("# TYPE {prom} ");
            let types: Vec<&&str> = lines.iter().filter(|l| l.starts_with(&typed)).collect();
            let kind = match row.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            };
            assert_eq!(types, [&format!("{typed}{kind}")], "{name}");
            let valued = format!("{prom} ");
            assert_eq!(lines.iter().filter(|l| l.starts_with(&valued)).count(), 1, "{name}");
            expected += 1;
        }
    }
    assert_eq!(timeline.series.len(), expected, "a series no table names");
    assert!(text.contains("# TYPE noblsm_shard0_engine_writes counter\n"), "{text}");
}

#[test]
fn every_engine_row_is_one_noblsm_stats_field() {
    let (core, _hub) = served();
    for shard in 0..SHARDS {
        let line = core.borrow().store().shard_db(shard).property("noblsm.stats");
        let line = line.expect("a property");
        let keys: Vec<&str> = line.split(' ').filter_map(|f| Some(f.split_once('=')?.0)).collect();
        for (_, name, ..) in noblsm::db::METRICS {
            assert_eq!(keys.iter().filter(|&&k| k == name).count(), 1, "{name}: {line}");
        }
        assert!(keys.iter().all(|k| !k.contains("compaction_debt")), "{line}");
    }
}

#[test]
fn every_filesystem_device_and_store_row_is_one_info_field() {
    let (core, _hub) = served();
    let info = core.borrow().info_text();
    let fs_lines: Vec<&str> = info.lines().filter_map(|l| l.strip_prefix("fs:")).collect();
    assert_eq!(fs_lines.len(), SHARDS, "{info}");
    for line in fs_lines {
        let keys: Vec<&str> = line.split(' ').filter_map(|f| Some(f.split_once('=')?.0)).collect();
        assert_eq!(keys.len(), nob_ext4::METRICS.len(), "{line}");
        for (_, name, ..) in nob_ext4::METRICS {
            assert_eq!(keys.iter().filter(|&&k| k == name).count(), 1, "{name}: {line}");
        }
    }
    let fields = STATS.iter().map(|r| r.2).chain(nob_store::METRICS.iter().map(|r| r.1));
    for name in fields {
        let field = format!("{name}:");
        assert_eq!(info.lines().filter(|l| l.starts_with(&field)).count(), 1, "{name}: {info}");
    }
}
