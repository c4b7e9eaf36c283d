//! Reusable workload scenarios shared by the figure binaries, the CI
//! bench-smoke gate and the golden-file tests.
//!
//! Everything here runs over virtual time, so a fixed configuration is
//! bit-for-bit reproducible across machines — which is what lets CI
//! compare throughput and tail latency against a checked-in baseline
//! with tight thresholds.

use nob_baselines::Variant;
use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_trace::{EventClass, TraceSink, TraceSummary};
use nob_workloads::dbbench;

use crate::shards::store_options;
use crate::Scale;

/// Runs one fig2a write strategy: `total` bytes in `file_size` files.
///
/// Strategies are the paper's three: `"Async"` (buffered), `"Direct"`
/// (O_DIRECT) and `"Sync"` (buffered + per-file fsync).
///
/// # Panics
///
/// Panics on an unknown strategy name or filesystem error (the harness
/// controls both).
pub fn fig2a_strategy(fs: &Ext4Fs, strategy: &str, total: u64, file_size: u64) -> Nanos {
    let files = total / file_size;
    let data = vec![0x5au8; file_size as usize];
    let mut now = Nanos::ZERO;
    for i in 0..files {
        let path = format!("out/{strategy}-{i:06}.dat");
        let h = fs.create(&path, now).expect("fresh path");
        now = match strategy {
            "Async" => fs.append(h, &data, now).expect("buffered write"),
            "Direct" => fs.append_direct(h, &data, now).expect("direct write"),
            "Sync" => {
                let t = fs.append(h, &data, now).expect("buffered write");
                fs.fsync(h, t).expect("fsync")
            }
            _ => unreachable!("unknown strategy"),
        };
    }
    now
}

/// A paper-platform filesystem for raw-file scenarios (page cache large
/// enough to never evict), optionally with a uniformly slower SSD.
///
/// The `slow_ssd` degradation (half bandwidth, double command and FLUSH
/// latency) exists to *demonstrate* the CI regression gate: a run with
/// it enabled must trip both the throughput and the p99 thresholds.
pub fn raw_fs(slow_ssd: bool) -> Ext4Fs {
    Ext4Fs::new(degraded(Ext4Config::default().with_page_cache(64 << 30), slow_ssd))
}

/// `cfg`, with the SSD uniformly degraded if the gate demo asks for it.
fn degraded(mut cfg: Ext4Config, slow_ssd: bool) -> Ext4Config {
    if slow_ssd {
        cfg.ssd.seq_write_bw /= 2;
        cfg.ssd.seq_read_bw /= 2;
        cfg.ssd.cmd_latency = cfg.ssd.cmd_latency + cfg.ssd.cmd_latency;
        cfg.ssd.flush_latency = cfg.ssd.flush_latency + cfg.ssd.flush_latency;
    }
    cfg
}

/// One smoke measurement: a throughput figure, the tail latency of the
/// scenario's dominant event class, and the full trace behind both.
#[derive(Debug, Clone)]
pub struct SmokeResult {
    /// Stable scenario name (JSON key in `bench_smoke.json`).
    pub name: String,
    /// Throughput in `unit` (higher is better).
    pub throughput: f64,
    /// Throughput unit.
    pub unit: String,
    /// p99 of the scenario's dominant event class, integer ns.
    pub p99_ns: u64,
    /// Event class the p99 is measured over.
    pub p99_class: EventClass,
    /// The run's full trace summary.
    pub summary: TraceSummary,
}

/// Fixed-seed fig2a Sync smoke: 64 MiB in 2 MiB fsynced files.
///
/// Sync is the strategy the paper's figure 2a is about (and the one the
/// FLUSH barrier dominates), so its throughput and per-file fsync tail
/// are the regression signals.
pub fn smoke_fig2a(slow_ssd: bool) -> SmokeResult {
    let total: u64 = 64 << 20;
    let file_size: u64 = 2 << 20;
    let fs = raw_fs(slow_ssd);
    let sink = TraceSink::new();
    fs.set_trace_sink(sink.clone());
    let elapsed = fig2a_strategy(&fs, "Sync", total, file_size);
    let throughput = total as f64 / (1 << 20) as f64 / elapsed.as_secs_f64();
    smoke_result("fig2a_sync", throughput, "MiB/s", EventClass::JournalCommit, &sink)
}

/// Operations in the fig4-style fill.
pub const FIG4_OPS: u64 = 6_000;

/// The fig4-style fill shared by the `fig4_fillrandom` smoke, the
/// trace-overhead guard and `fig_timeline`: [`FIG4_OPS`] of 256 B
/// fillrandom at seed 42 on paper-shaped options, with `instrument`
/// attaching whatever sinks the caller wants before the first write.
/// Returns the fill's virtual wall time.
pub fn fig4_fill(
    variant: Variant,
    fs: Ext4Fs,
    scale: Scale,
    instrument: impl FnOnce(&mut noblsm::Db),
) -> Nanos {
    let opts = scale.base_options(crate::PAPER_TABLE_LARGE);
    let mut db = variant.open(fs, "db", &opts, Nanos::ZERO).expect("open db");
    instrument(&mut db);
    let fill = dbbench::fillrandom(&mut db, FIG4_OPS, 256, 42, Nanos::ZERO).expect("fillrandom");
    let t = db.wait_idle(fill.finished).expect("drain");
    // Fire the journal timer so asynchronous checkpoints reach the trace
    // and the timeline before they are cut. The 6 s paper-scale settle
    // window scales like every other time-like constant (an unscaled
    // window would fire hundreds of scaled commit intervals and skew the
    // trace relative to the run it belongs to).
    db.tick(t + scale.duration(Nanos::from_secs(6))).expect("tick");
    fill.wall()
}

/// Fixed-seed fig4-style fillrandom smoke: NobLSM, 256 B values,
/// seed 42, paper-shaped options at 1/512 scale.
pub fn smoke_fig4(slow_ssd: bool) -> SmokeResult {
    let scale = Scale::new(512);
    let fs = Ext4Fs::new(degraded(scale.fs_config(), slow_ssd));
    let sink = TraceSink::new();
    let wall = fig4_fill(Variant::NobLsm, fs, scale, |db| db.set_trace_sink(sink.clone()));
    let throughput = FIG4_OPS as f64 / wall.as_secs_f64();
    smoke_result("fig4_fillrandom", throughput, "ops/s", EventClass::EnginePut, &sink)
}

/// Fixed-seed replication smoke: the `fig_repl` workload on a 2-shard
/// leader/follower pair, WAL-shipped over the loopback transport in
/// bursts of 4, then a timed follower-read phase — traced. Throughput
/// is the follower-read rate; the tail signal is the `repl_apply` p99,
/// so a regression in either the engine read path or the shipping/apply
/// path trips the gate.
pub fn smoke_repl(slow_ssd: bool) -> SmokeResult {
    let scale = Scale::new(512);
    let mut opts = store_options(Variant::LevelDb, 2, scale);
    opts.fs = degraded(scale.fs_config(), slow_ssd);
    let sink = TraceSink::new();
    let run = crate::repl::replicate(opts, 4, 1_200, 600, Some(&sink));
    smoke_result("repl_follower", run.read_throughput, "reads/s", EventClass::ReplApply, &sink)
}

/// Fixed-seed scan smoke: the `fig_scan` ranges as cursor-paged scans
/// through the whole serving stack (wire protocol → cursor leases → the
/// store's snapshot-pinned shard merge) over a table-resident keyspace.
/// Throughput is rows streamed per virtual second; the tail signal is
/// the `server_scan` p99, so a regression in the iterator read path, the
/// k-way merge or the cursor machinery trips the gate.
pub fn smoke_scan(slow_ssd: bool) -> SmokeResult {
    use nob_server::{shared, Client, LoopbackTransport, ServerCore, ServerOptions};

    let scale = Scale::new(512);
    let (keys, scans, range) = (1_024u64, 48u64, 64u64);
    let mut store = store_options(Variant::LevelDb, 2, scale);
    store.fs = degraded(scale.fs_config(), slow_ssd);
    let mut core =
        ServerCore::open(ServerOptions { store, ..ServerOptions::default() }).expect("open core");
    let sink = TraceSink::new();
    core.set_trace_sink(sink.clone());
    let core = shared(core);
    let clock = core.borrow().clock().clone();
    let mut client = Client::new(LoopbackTransport::connect(&core));
    for i in 0..keys {
        let (key, value) = crate::scan::dense_record(i, 256);
        client.set(&key, &value).expect("SET");
    }
    crate::scan::flush_shards(core.borrow_mut().store_mut());
    let (rows, elapsed) = crate::scan::timed_scans(&clock, keys, range, scans, |start, end| {
        client.scan_all(start, end, range).expect("SCAN").len() as u64
    });
    let throughput = rows as f64 / elapsed.as_secs_f64();
    smoke_result("scan", throughput, "rows/s", EventClass::ServerScan, &sink)
}

/// Fixed-seed staged-lane compaction smoke: the `fig_compact` workload's
/// NobLSM × 2 shards × 4 lanes cell, traced, so CI guards both the
/// bursty-fill throughput and the major-compaction tail under the lane
/// scheduler.
pub fn smoke_compact(slow_ssd: bool) -> SmokeResult {
    let scale = Scale::new(512);
    let ops = 2_000u64;
    let mut opts = crate::compact::lane_store_options(Variant::NobLsm, 2, 4, scale);
    opts.fs = degraded(scale.fs_config(), slow_ssd);
    let mut store = nob_store::Store::open(opts).expect("open store");
    let sink = TraceSink::new();
    store.set_trace_sink(sink.clone());
    let (elapsed, _) =
        crate::compact::bursty_fill(&mut store, &noblsm::WriteOptions::buffered(), ops);
    let throughput = ops as f64 / elapsed.as_secs_f64();
    smoke_result("compact", throughput, "ops/s", EventClass::MajorCompaction, &sink)
}

/// Packs a scenario's throughput with the p99 of its dominant event
/// class and the full trace behind both.
fn smoke_result(
    name: &str,
    throughput: f64,
    unit: &str,
    p99_class: EventClass,
    sink: &TraceSink,
) -> SmokeResult {
    let summary = sink.summary();
    SmokeResult {
        name: name.to_string(),
        throughput,
        unit: unit.to_string(),
        p99_ns: summary.class(p99_class).map_or(0, |c| c.p99_ns),
        p99_class,
        summary,
    }
}

/// All CI smoke scenarios, in report order.
pub fn smoke_all(slow_ssd: bool) -> Vec<SmokeResult> {
    vec![
        smoke_fig2a(slow_ssd),
        smoke_fig4(slow_ssd),
        smoke_repl(slow_ssd),
        smoke_scan(slow_ssd),
        smoke_compact(slow_ssd),
    ]
}

/// One run for the trace-overhead guard: `fills` fig4-style fillrandom
/// fills back to back, each on a fresh stack, optionally traced; returns
/// their *wall-clock* (host) nanoseconds. Virtual time is identical
/// either way — pinned by the trace-stack integration tests — so any
/// wall-clock delta is the real CPU cost of span recording.
fn overhead_run(traced: bool, fills: usize) -> u64 {
    let scale = Scale::new(512);
    let wall = std::time::Instant::now();
    for _ in 0..fills {
        fig4_fill(Variant::NobLsm, scale.fresh_fs(), scale, |db| {
            if traced {
                db.set_trace_sink(TraceSink::new());
            }
        });
    }
    wall.elapsed().as_nanos() as u64
}

/// Measures tracing's wall-clock overhead: `rounds` interleaved
/// traced/untraced runs of `fills` fig4-style fills each (plus one
/// discarded warm-up), returning the median host nanoseconds of each
/// mode as `(traced, untraced)`. Interleaving and the median keep the
/// guard robust against machine noise; the CI gate compares the two.
///
/// One fill is ≈ 10 ms of host time, and a scheduler hiccup on a shared
/// runner is a few milliseconds: `fills` is what lifts the measured
/// interval clear of that, without touching the fill the smoke scenario
/// and `fig_timeline` pin.
pub fn trace_overhead(rounds: usize, fills: usize) -> (u64, u64) {
    let fills = fills.max(1);
    let _ = overhead_run(false, 1); // warm-up: page in the code and allocator
    let mut traced = Vec::with_capacity(rounds);
    let mut untraced = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        traced.push(overhead_run(true, fills));
        untraced.push(overhead_run(false, fills));
    }
    traced.sort_unstable();
    untraced.sort_unstable();
    (traced[traced.len() / 2], untraced[untraced.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_smoke_is_deterministic_and_traced() {
        let a = smoke_fig2a(false);
        let b = smoke_fig2a(false);
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert!(a.throughput > 0.0);
        assert!(a.p99_ns > 0, "per-file fsync must produce journal commits");
        assert!(a.summary.class(EventClass::SsdFlush).is_some());
    }

    #[test]
    fn slow_ssd_degrades_both_gate_signals() {
        let fast = smoke_fig2a(false);
        let slow = smoke_fig2a(true);
        assert!(
            slow.throughput < fast.throughput * 0.85,
            "2x-latency SSD must trip the throughput gate ({} vs {})",
            slow.throughput,
            fast.throughput
        );
        assert!(
            slow.p99_ns as f64 > fast.p99_ns as f64 * 1.25,
            "2x-latency SSD must trip the p99 gate ({} vs {})",
            slow.p99_ns,
            fast.p99_ns
        );
    }

    #[test]
    fn repl_smoke_is_deterministic_and_traces_the_apply_path() {
        let a = smoke_repl(false);
        let b = smoke_repl(false);
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert!(a.throughput > 0.0);
        assert!(a.p99_ns > 0, "the apply path must be traced");
        assert!(a.summary.class(EventClass::ReplShip).is_some());
        assert!(a.summary.class(EventClass::ReplAck).is_some());
    }

    #[test]
    fn scan_smoke_is_deterministic_and_traces_the_scan_path() {
        let a = smoke_scan(false);
        let b = smoke_scan(false);
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert!(a.throughput > 0.0 && a.throughput.is_finite());
        assert!(a.p99_ns > 0, "the scan path must be traced");
        assert!(a.summary.class(EventClass::ServerScan).is_some());
    }

    #[test]
    fn trace_overhead_measures_both_modes() {
        // One round keeps the test cheap; the ratio itself is asserted
        // only by the CI guard (wall-clock is too noisy for unit tests).
        let (traced, untraced) = trace_overhead(1, 1);
        assert!(traced > 0 && untraced > 0);
    }

    #[test]
    fn fig4_smoke_traces_the_engine() {
        let r = smoke_fig4(false);
        assert!(r.throughput > 0.0);
        assert_eq!(r.p99_class, EventClass::EnginePut);
        assert!(r.summary.class(EventClass::EnginePut).is_some());
        assert!(r.summary.class(EventClass::MinorCompaction).is_some());
    }
}
