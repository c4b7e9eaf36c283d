//! The command interpreter behind `noblsm-cli`: a scriptable driver for a
//! simulated NobLSM database — open a store, write, read, scan, advance
//! virtual time, pull the power cable, and inspect engine internals.
//!
//! # Commands
//!
//! ```text
//! open <mode>            noblsm | leveldb | volatile | bolt | pebbles …
//! put <key> <value>      insert/overwrite
//! get <key>              point read
//! del <key>              delete
//! scan <start> <n> [reverse] [count]   range scan (optionally reversed
//!                        or counting rows without materialising them)
//! fill <n> <value_size>  bulk-load n random records
//! advance <ms>           advance virtual time (journal timers fire)
//! crash <percent>        power-off at a fraction of elapsed time + reopen
//! flush                  force the memtable to L0
//! compact                full manual compaction
//! compact status         lane occupancy, pressure, debt, stage split
//! compact lanes <n>      reconfigure the compaction lane count
//! stats                  engine + filesystem counters
//! levels                 files per level
//! time                   current virtual instant
//! chaos <seed> [pm] [fseed]   one fault-injected crash/recovery case
//! chaos sweep [seeds] [points]  campaign over seeds × crash points
//! trace on|off           start/stop recording spans from all layers
//! trace summary          per-class latency percentiles + top stalls
//! trace stalls           the recorded stalls with causal attribution
//! trace tree [trace_id]  render recorded span trees (all roots, or one)
//! trace critical [n]     critical-path decomposition + n slowest trees
//! trace export json|chrome <path>   dump raw spans to a file
//! metrics                the leveldb.stats-style per-level table
//! metrics on|off         start/stop gauge sampling (100 ms virtual grid)
//! metrics timeline       sampled gauges as ASCII sparklines
//! metrics export [--format] prom|json [path]   exposition / raw timeline
//! store open <shards> [mode]     open a sharded store (own stacks)
//! store put <key> <value>        enqueue + group-commit one write
//! store get <key>                routed point read
//! store scan <start> <n> [reverse] [count]  snapshot-pinned merge scan
//!                                across every shard
//! store fill <n> <vsize> [writers]  n records from W logical writers
//! store stats                    group-commit counters + shard levels
//! store close                    drop the store
//! repl open [shards]             leader + loopback follower pair
//! repl put <key> <value>         committed write on the leader
//! repl follow                    ship -> apply -> ack until the link idles
//! repl get <key> [staleness_ms]  bounded-staleness follower read
//! repl subscribe [from_seq]      (re)connect the changefeed + drain it
//! repl promote                   follower -> leader, fence the old epoch
//! repl status                    epochs, sequences, lag, staleness
//! repl close                     drop the replication pair
//! help                   this text
//! ```
//!
//! # Examples
//!
//! ```
//! use nob_cli::Session;
//!
//! let mut s = Session::new();
//! let out = s.run_script("open noblsm\nput k hello\nget k\n");
//! assert!(out.contains("hello"));
//! ```

#![forbid(unsafe_code)]

pub mod net;

use std::fmt::Write as _;

use nob_baselines::Variant;
use nob_ext4::Ext4Fs;
use nob_metrics::{MetricsHub, DEFAULT_PERIOD};
use nob_repl::{
    shared as shared_repl, Follower, FollowerLink, Leader, ReplCore, ReplLoopback, SharedRepl,
    Subscription,
};
use nob_sim::{Nanos, SharedClock};
use nob_store::{Store, StoreOptions};
use nob_trace::TraceSink;
use nob_workloads::dbbench;
use noblsm::{Db, Error, Options, ReadOptions, ScanOptions, WriteBatch, WriteOptions};

/// One interactive session: a filesystem, an optional open database, and
/// the session's shared virtual clock.
pub struct Session {
    fs: Ext4Fs,
    db: Option<Db>,
    variant: Variant,
    /// The session's clock, shared with the open database: commands no
    /// longer thread `now` by hand, they read and advance this.
    clock: SharedClock,
    /// Optional sharded store, independent of the session's single `db`.
    store: Option<Store>,
    /// Optional replication pair, independent of `db` and `store`.
    repl: Option<ReplSession>,
    /// Live trace sink, kept across `open`/`crash` reattachments.
    trace: Option<TraceSink>,
    /// Live metrics hub, kept across `open`/`crash` reattachments.
    metrics: Option<MetricsHub>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("open", &self.db.is_some())
            .field("now", &self.clock.now())
            .finish()
    }
}

/// The `repl` command family's state: the leader behind the shared
/// core, the follower link (absent once promoted), and at most one
/// changefeed. The pair lives on its own shared virtual clock, like the
/// chaos and bench harnesses.
struct ReplSession {
    core: SharedRepl,
    link: Option<FollowerLink<ReplLoopback>>,
    sub: Option<Subscription<ReplLoopback>>,
}

fn base_options() -> Options {
    let mut o = Options::default().with_table_size(256 << 10);
    o.level1_max_bytes = 1 << 20;
    o
}

impl Session {
    /// Creates a session over a fresh simulated filesystem. `crash <pct>`
    /// rewinds, so the filesystem's crash horizon is pinned.
    pub fn new() -> Self {
        let fs = Ext4Fs::new(nob_ext4::Ext4Config::default());
        fs.pin_crash_horizon();
        Session {
            fs,
            db: None,
            variant: Variant::NobLsm,
            clock: SharedClock::new(),
            store: None,
            repl: None,
            trace: None,
            metrics: None,
        }
    }

    /// Executes one command line; returns its output.
    pub fn run_line(&mut self, line: &str) -> String {
        let mut out = String::new();
        if let Err(e) = self.dispatch(line.trim(), &mut out) {
            // Usage errors carry a ready-made message; engine errors keep
            // their full Display (layer prefix included).
            match e {
                Error::Usage(m) => {
                    let _ = writeln!(out, "error: {m}");
                }
                e => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
        out
    }

    /// Executes a newline-separated script; returns concatenated output.
    pub fn run_script(&mut self, script: &str) -> String {
        let mut out = String::new();
        for line in script.lines() {
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            out.push_str(&self.run_line(line));
        }
        out
    }

    fn db(&mut self) -> Result<&mut Db, Error> {
        self.db.as_mut().ok_or_else(|| Error::Usage("no database open (use `open <mode>`)".into()))
    }

    fn store(&mut self) -> Result<&mut Store, Error> {
        self.store
            .as_mut()
            .ok_or_else(|| Error::Usage("no store open (use `store open <shards>`)".into()))
    }

    fn repl(&mut self) -> Result<&mut ReplSession, Error> {
        self.repl
            .as_mut()
            .ok_or_else(|| Error::Usage("no replication pair (use `repl open [shards]`)".into()))
    }

    fn dispatch(&mut self, line: &str, out: &mut String) -> Result<(), Error> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { return Ok(()) };
        let args: Vec<&str> = parts.collect();
        match cmd {
            "open" => {
                let mode = args.first().copied().unwrap_or("noblsm");
                let variant = parse_variant(mode)?;
                let opts = variant.options(&base_options());
                let mut db = Db::open_with_clock(self.fs.clone(), "db", opts, self.clock.clone())?;
                if let Some(sink) = &self.trace {
                    db.set_trace_sink(sink.clone());
                }
                if let Some(hub) = &self.metrics {
                    db.set_metrics_hub(hub.clone());
                }
                self.db = Some(db);
                self.variant = variant;
                let _ = writeln!(out, "opened {} at {}", variant.name(), self.clock.now());
            }
            "put" => {
                let [k, v] = args[..] else { return Err("usage: put <key> <value>".into()) };
                let mut batch = WriteBatch::new();
                batch.put(k.as_bytes(), v.as_bytes());
                let t = self.db()?.write(&WriteOptions::default(), batch)?;
                let _ = writeln!(out, "OK ({t})");
            }
            "get" => {
                let [k] = args[..] else { return Err("usage: get <key>".into()) };
                let k = k.as_bytes().to_vec();
                let got = self.db()?.get(&ReadOptions::default(), &k)?;
                let t = self.clock.now();
                match got {
                    Some(v) => {
                        let _ = writeln!(out, "{} ({t})", String::from_utf8_lossy(&v));
                    }
                    None => {
                        let _ = writeln!(out, "<not found> ({t})");
                    }
                }
            }
            "del" => {
                let [k] = args[..] else { return Err("usage: del <key>".into()) };
                let mut batch = WriteBatch::new();
                batch.delete(k.as_bytes());
                let t = self.db()?.write(&WriteOptions::default(), batch)?;
                let _ = writeln!(out, "OK ({t})");
            }
            "scan" => {
                let [start, n, flags @ ..] = &args[..] else {
                    return Err("usage: scan <start> <n> [reverse] [count]".into());
                };
                let n: usize = n.parse().map_err(|_| "n must be a number")?;
                let start = start.as_bytes().to_vec();
                let mut sopts = ScanOptions::starting_at(&start).with_limit(n);
                for f in flags {
                    match *f {
                        "reverse" => sopts = sopts.reversed(),
                        "count" => sopts = sopts.counting(),
                        _ => return Err("usage: scan <start> <n> [reverse] [count]".into()),
                    }
                }
                let r = self.db()?.scan(&ReadOptions::default(), &sopts)?;
                let t = self.clock.now();
                for (k, v) in &r.rows {
                    let _ = writeln!(
                        out,
                        "{} = {}",
                        String::from_utf8_lossy(k),
                        String::from_utf8_lossy(v)
                    );
                }
                let _ = writeln!(out, "({} rows, {t})", r.count);
            }
            "fill" => {
                let [n, vs] = args[..] else { return Err("usage: fill <n> <value_size>".into()) };
                let n: u64 = n.parse().map_err(|_| "n must be a number")?;
                let vs: usize = vs.parse().map_err(|_| "value_size must be a number")?;
                let now = self.clock.now();
                let r = dbbench::fillrandom(self.db()?, n, vs, 42, now)?;
                let _ = writeln!(
                    out,
                    "filled {} records in {} ({:.2} us/op)",
                    n,
                    r.wall(),
                    r.mean_us_per_op()
                );
            }
            "advance" => {
                let [ms] = args[..] else { return Err("usage: advance <ms>".into()) };
                let ms: u64 = ms.parse().map_err(|_| "ms must be a number")?;
                self.clock.advance(Nanos::from_millis(ms));
                if let Ok(db) = self.db() {
                    db.tick()?;
                } else {
                    self.fs.tick(self.clock.now());
                }
                let _ = writeln!(out, "now {}", self.clock.now());
            }
            "flush" => {
                let t = self.db()?.flush()?;
                let _ = writeln!(out, "flushed ({t})");
            }
            "compact" => match args.first().copied() {
                None => {
                    let now = self.clock.now();
                    let t = self.db()?.compact_range(now, None, None)?;
                    let _ = writeln!(out, "compacted ({t})");
                }
                Some("status") => {
                    let now = self.clock.now();
                    let db = self.db()?;
                    let s = db.stats();
                    let _ = writeln!(
                        out,
                        "lanes={} active={} pressure={:.2} debt={} preempt_l0={} backoff={}",
                        db.compaction_lanes(),
                        db.active_majors(),
                        db.l0_pressure(),
                        db.compaction_debt_bytes(),
                        s.l0_preempts,
                        s.lane_backoffs,
                    );
                    let _ = writeln!(
                        out,
                        "stages: read={} merge={} write={}",
                        s.compact_read_time, s.compact_merge_time, s.compact_write_time,
                    );
                    for (i, ls) in db.lane_stats().iter().enumerate() {
                        let idle = if ls.free <= now { "idle" } else { "busy" };
                        let _ = writeln!(
                            out,
                            "lane{i}: jobs={} busy={} bytes={} {idle}",
                            ls.jobs, ls.busy, ls.bytes_written,
                        );
                    }
                }
                Some("lanes") => {
                    let n: usize = args
                        .get(1)
                        .ok_or("usage: compact lanes <n>")?
                        .parse()
                        .map_err(|_| "n must be a number")?;
                    if n == 0 {
                        return Err("n must be at least 1".into());
                    }
                    self.db()?.set_compaction_lanes(n);
                    let _ = writeln!(out, "lanes {n}");
                }
                Some(sub) => return Err(format!("unknown compact subcommand: {sub}").into()),
            },
            "crash" => {
                let pct: u64 = args
                    .first()
                    .map(|p| p.parse().map_err(|_| "percent must be a number"))
                    .transpose()?
                    .unwrap_or(100);
                let at = Nanos::from_nanos(self.clock.now().as_nanos() * pct.min(100) / 100);
                let crashed = self.fs.crashed_view(at);
                crashed.pin_crash_horizon();
                let variant = self.variant;
                // A crash rewinds the session to `at`; the shared clock is
                // monotone, so the recovered stack gets a fresh one.
                self.clock = SharedClock::at(at);
                let opts = variant.options(&base_options());
                let mut db = Db::open_with_clock(crashed.clone(), "db", opts, self.clock.clone())?;
                // The crash view is a new stack; the sink and hub survive
                // it so recovery I/O lands in the same trace and the
                // timeline keeps its pre-crash history.
                if let Some(sink) = &self.trace {
                    db.set_trace_sink(sink.clone());
                }
                if let Some(hub) = &self.metrics {
                    db.set_metrics_hub(hub.clone());
                }
                self.fs = crashed;
                self.db = Some(db);
                let _ = writeln!(out, "power failed at {at}; recovered {}", variant.name());
            }
            "levels" => {
                let counts = self.db()?.level_file_counts();
                let _ = writeln!(out, "{counts:?}");
            }
            "stats" => {
                let fs_stats = self.fs.stats();
                let db = self.db()?;
                let s = db.stats();
                let _ = writeln!(
                    out,
                    "writes={} gets={} minor={} major={} stalls={} stall_time={} shadows={}",
                    s.writes,
                    s.gets,
                    s.minor_compactions,
                    s.major_compactions,
                    s.stalls,
                    s.stall_time,
                    s.shadow_files
                );
                let _ = writeln!(
                    out,
                    "syncs={} bytes_synced={} async_commits={} journal_bytes={}",
                    fs_stats.sync_calls,
                    fs_stats.bytes_synced,
                    fs_stats.async_commits,
                    fs_stats.journal_bytes
                );
            }
            "time" => {
                let _ = writeln!(out, "{}", self.clock.now());
            }
            "store" => self.dispatch_store(&args, out)?,
            "repl" => self.dispatch_repl(&args, out)?,
            // Self-contained: runs against its own fresh simulated stack,
            // leaving the session's filesystem and database untouched.
            "chaos" => match args.first().copied() {
                Some("sweep") => {
                    let seeds: u64 = args
                        .get(1)
                        .map(|s| s.parse().map_err(|_| "seeds must be a number".to_string()))
                        .transpose()?
                        .unwrap_or(2);
                    let points: u32 = args
                        .get(2)
                        .map(|s| s.parse().map_err(|_| "points must be a number".to_string()))
                        .transpose()?
                        .unwrap_or(3);
                    let mut spec = nob_chaos::CampaignSpec::smoke();
                    spec.seeds = (1..=seeds.max(1)).collect();
                    let m = points.max(1);
                    spec.crash_points_pm = (1..=m).map(|i| i * 1000 / m).collect();
                    let r = nob_chaos::run_campaign(&spec);
                    let _ = writeln!(
                        out,
                        "chaos sweep: {} cases, {} passed, {} failed, {} undetected values, {} unexplained losses",
                        r.results.len(),
                        r.passed(),
                        r.failed(),
                        r.undetected_total(),
                        r.unexplained_losses()
                    );
                }
                Some(seed) => {
                    let seed: u64 =
                        seed.parse().map_err(|_| "seed must be a number".to_string())?;
                    let crash_pm: u32 = args
                        .get(1)
                        .map(|s| s.parse().map_err(|_| "pm must be a number".to_string()))
                        .transpose()?
                        .unwrap_or(500);
                    let fault_seed: u64 = args
                        .get(2)
                        .map(|s| s.parse().map_err(|_| "fseed must be a number".to_string()))
                        .transpose()?
                        .unwrap_or(seed);
                    let mut case = nob_chaos::ChaosCase::new(seed, 1);
                    case.crash_pm = crash_pm.min(1000);
                    case.plan = nob_chaos::FaultPlan::seeded(fault_seed);
                    let r = nob_chaos::run_case(&case);
                    let _ = writeln!(
                        out,
                        "chaos case seed={seed} crash@{} of {}: {}",
                        r.crash_at,
                        r.run_end,
                        if r.pass { "PASS" } else { "FAIL" }
                    );
                    let _ = writeln!(
                        out,
                        "  injections={} acked={} lost={} explained={} undetected={}",
                        r.injections.len(),
                        r.acked_pairs,
                        r.lost_acked,
                        r.explained,
                        r.undetected_values
                    );
                    let _ = writeln!(
                        out,
                        "  wal_corruptions={} wal_dropped_bytes={} repaired={} ordered_violations={} journal_broken={}",
                        r.wal_corruptions_detected,
                        r.wal_bytes_dropped,
                        r.repaired,
                        r.ordered_violations,
                        r.journal_broken
                    );
                }
                None => return Err(
                    "usage: chaos <seed> [crash_pm] [fault_seed] | chaos sweep [seeds] [points]"
                        .into(),
                ),
            },
            "trace" => match args.first().copied() {
                Some("on") => {
                    let sink = self.trace.get_or_insert_with(TraceSink::new).clone();
                    match self.db.as_mut() {
                        Some(db) => db.set_trace_sink(sink),
                        None => self.fs.set_trace_sink(sink),
                    }
                    let _ = writeln!(out, "tracing on");
                }
                Some("off") => {
                    match self.db.as_mut() {
                        Some(db) => db.clear_trace_sink(),
                        None => self.fs.clear_trace_sink(),
                    }
                    self.trace = None;
                    let _ = writeln!(out, "tracing off");
                }
                Some("summary") => {
                    let sink = self.trace.as_ref().ok_or("tracing is off (use `trace on`)")?;
                    out.push_str(&sink.summary().render());
                }
                Some("stalls") => {
                    let sink = self.trace.as_ref().ok_or("tracing is off (use `trace on`)")?;
                    let s = sink.summary();
                    if s.top_stalls.is_empty() {
                        let _ = writeln!(out, "no write stalls recorded");
                    }
                    for (i, st) in s.top_stalls.iter().enumerate() {
                        let _ = write!(
                            out,
                            "{:>3}. {:<9} {} at t={}",
                            i + 1,
                            st.kind.name(),
                            st.duration(),
                            st.start
                        );
                        for cause in [&st.cause_commit, &st.cause_flush].into_iter().flatten() {
                            let _ = write!(
                                out,
                                "  <- {} #{} [t={}, {}]",
                                cause.class.name(),
                                cause.seq,
                                cause.start,
                                cause.duration()
                            );
                        }
                        let _ = writeln!(out);
                    }
                }
                Some("tree") => {
                    let sink = self.trace.as_ref().ok_or("tracing is off (use `trace on`)")?;
                    match args.get(1) {
                        Some(id) => {
                            let id: u64 =
                                id.parse().map_err(|_| "trace_id must be a number")?;
                            let tree = sink
                                .tree(id)
                                .ok_or_else(|| format!("no recorded trace with id {id}"))?;
                            out.push_str(&tree.render());
                        }
                        None => {
                            let forest = sink.forest();
                            let roots = forest.roots();
                            if roots.is_empty() {
                                let _ = writeln!(out, "no spans recorded");
                            }
                            for root in &roots {
                                if let Some(tree) = forest.tree(root.trace) {
                                    out.push_str(&tree.render());
                                }
                            }
                        }
                    }
                }
                Some("critical") => {
                    let sink = self.trace.as_ref().ok_or("tracing is off (use `trace on`)")?;
                    let top_n: usize = args
                        .get(1)
                        .map(|n| n.parse().map_err(|_| "n must be a number"))
                        .transpose()?
                        .unwrap_or(3);
                    out.push_str(&sink.critical_summary(top_n).render());
                }
                Some("export") => {
                    let sink = self.trace.as_ref().ok_or("tracing is off (use `trace on`)")?;
                    let [_, format, path] = args[..] else {
                        return Err("usage: trace export <json|chrome> <path>".into());
                    };
                    let body = match format {
                        "json" => sink.events_json().to_string(),
                        "chrome" => sink.chrome_trace().to_string(),
                        other => return Err(format!("unknown export format {other}").into()),
                    };
                    std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
                    let _ = writeln!(out, "wrote {path} ({} bytes)", body.len());
                }
                _ => {
                    return Err(
                        "usage: trace on|off|summary|stalls|tree [trace_id]|critical [n]|export <json|chrome> <path>"
                            .into()
                    )
                }
            },
            "metrics" => match args.first().copied() {
                Some("on") => {
                    let hub = self.metrics.get_or_insert_with(MetricsHub::new).clone();
                    match self.db.as_mut() {
                        Some(db) => db.set_metrics_hub(hub),
                        None => self.fs.register_metrics(&hub),
                    }
                    let _ = writeln!(out, "metrics on (period {})", DEFAULT_PERIOD);
                }
                Some("off") => {
                    match self.db.as_mut() {
                        Some(db) => db.clear_metrics_hub(),
                        None => {
                            if let Some(hub) = &self.metrics {
                                Ext4Fs::unregister_metrics(hub);
                            }
                        }
                    }
                    self.metrics = None;
                    let _ = writeln!(out, "metrics off");
                }
                Some("timeline") => {
                    let hub = self.metrics.as_ref().ok_or("metrics are off (use `metrics on`)")?;
                    let tl = hub.timeline();
                    if tl.samples == 0 {
                        let _ = writeln!(out, "no samples yet (advance virtual time first)");
                    } else {
                        out.push_str(&tl.render(64));
                    }
                }
                Some("export") => {
                    let hub = self.metrics.as_ref().ok_or("metrics are off (use `metrics on`)")?;
                    // Accept both `export prom [path]` and the long
                    // `export --format prom [path]` spelling.
                    let rest: Vec<&str> =
                        args[1..].iter().copied().filter(|a| *a != "--format").collect();
                    let (format, path) = match rest[..] {
                        [f] => (f, None),
                        [f, p] => (f, Some(p)),
                        _ => {
                            return Err("usage: metrics export [--format] <prom|json> [path]".into())
                        }
                    };
                    let body = match format {
                        "prom" => hub.timeline().prometheus(),
                        "json" => hub.timeline().to_json().to_string(),
                        other => return Err(format!("unknown export format {other}").into()),
                    };
                    match path {
                        Some(p) => {
                            std::fs::write(p, &body)
                                .map_err(|e| format!("cannot write {p}: {e}"))?;
                            let _ = writeln!(out, "wrote {p} ({} bytes)", body.len());
                        }
                        None => out.push_str(&body),
                    }
                }
                None => {
                    let db = self.db.as_ref().ok_or("no database open")?;
                    let table = db
                        .property("noblsm.compaction-stats")
                        .ok_or("property noblsm.compaction-stats unavailable")?;
                    out.push_str(&table);
                    if let Some(stats) = db.property("noblsm.stats") {
                        let _ = writeln!(out, "{stats}");
                    }
                }
                _ => {
                    return Err(
                        "usage: metrics [on|off|timeline|export [--format] <prom|json> [path]]"
                            .into(),
                    )
                }
            },
            "help" => {
                let _ = writeln!(
                    out,
                    "commands: open put get del scan fill advance flush compact [status|lanes <n>] crash chaos trace metrics store repl levels stats time help quit"
                );
            }
            "quit" | "exit" => {}
            other => return Err(format!("unknown command {other} (try `help`)").into()),
        }
        Ok(())
    }

    /// The `store` command family: a sharded group-commit store living
    /// beside the session's single database, on its own stacks.
    fn dispatch_store(&mut self, args: &[&str], out: &mut String) -> Result<(), Error> {
        match args.first().copied() {
            Some("open") => {
                let shards: usize = args
                    .get(1)
                    .ok_or("usage: store open <shards> [mode]")?
                    .parse()
                    .map_err(|_| "shards must be a number")?;
                let variant = parse_variant(args.get(2).copied().unwrap_or("noblsm"))?;
                let mut store = Store::open(StoreOptions {
                    shards,
                    db: variant.options(&base_options()),
                    ..StoreOptions::default()
                })?;
                if let Some(sink) = &self.trace {
                    store.set_trace_sink(sink.clone());
                }
                if let Some(hub) = &self.metrics {
                    store.set_metrics_hub(hub);
                }
                self.store = Some(store);
                let _ = writeln!(out, "store open: {shards} shards of {}", variant.name());
            }
            Some("put") => {
                let [_, k, v] = args[..] else {
                    return Err("usage: store put <key> <value>".into());
                };
                let mut batch = WriteBatch::new();
                batch.put(k.as_bytes(), v.as_bytes());
                let t = self.store()?.write(&WriteOptions::default(), batch)?;
                let _ = writeln!(out, "OK ({t})");
            }
            Some("get") => {
                let [_, k] = args[..] else { return Err("usage: store get <key>".into()) };
                let k = k.as_bytes().to_vec();
                let store = self.store()?;
                let shard = store.shard_of(&k);
                match store.get(&ReadOptions::default(), &k)? {
                    Some(v) => {
                        let _ = writeln!(out, "{} (shard {shard})", String::from_utf8_lossy(&v));
                    }
                    None => {
                        let _ = writeln!(out, "<not found> (shard {shard})");
                    }
                }
            }
            Some("scan") => {
                let [_, start, n, flags @ ..] = args else {
                    return Err("usage: store scan <start> <n> [reverse] [count]".into());
                };
                let n: usize = n.parse().map_err(|_| "n must be a number")?;
                let start = start.as_bytes().to_vec();
                let mut sopts = ScanOptions::starting_at(&start).with_limit(n);
                for f in flags {
                    match *f {
                        "reverse" => sopts = sopts.reversed(),
                        "count" => sopts = sopts.counting(),
                        _ => return Err("usage: store scan <start> <n> [reverse] [count]".into()),
                    }
                }
                let store = self.store()?;
                let r = store.scan(&ReadOptions::default(), &sopts)?;
                let t = store.clock().now();
                for (k, v) in &r.rows {
                    let _ = writeln!(
                        out,
                        "{} = {}",
                        String::from_utf8_lossy(k),
                        String::from_utf8_lossy(v)
                    );
                }
                match &r.resume {
                    Some(next) => {
                        let _ = writeln!(
                            out,
                            "({} rows, more from {}, {t})",
                            r.count,
                            String::from_utf8_lossy(next)
                        );
                    }
                    None => {
                        let _ = writeln!(out, "({} rows, {t})", r.count);
                    }
                }
            }
            Some("fill") => {
                let n: u64 = args
                    .get(1)
                    .ok_or("usage: store fill <n> <value_size> [writers]")?
                    .parse()
                    .map_err(|_| "n must be a number")?;
                let vs: usize = args
                    .get(2)
                    .ok_or("usage: store fill <n> <value_size> [writers]")?
                    .parse()
                    .map_err(|_| "value_size must be a number")?;
                let writers: usize = args
                    .get(3)
                    .map(|w| w.parse().map_err(|_| "writers must be a number"))
                    .transpose()?
                    .unwrap_or(1)
                    .max(1);
                let store = self.store()?;
                let start = store.clock().now();
                // W logical writers each enqueue one single-record batch
                // per round; the pump after each round lets shard leaders
                // coalesce that round's arrivals into groups.
                let mut key_state = 0x9e37_79b9_7f4a_7c15u64;
                let mut i = 0u64;
                while i < n {
                    for _ in 0..writers.min((n - i) as usize) {
                        key_state = key_state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let mut batch = WriteBatch::new();
                        batch.put(format!("key{:016x}", key_state).as_bytes(), &vec![b'x'; vs]);
                        store.enqueue(&WriteOptions::synced(), &batch);
                        i += 1;
                    }
                    store.pump()?;
                }
                store.drain()?;
                let s = store.stats();
                let wall = store.clock().now() - start;
                let _ = writeln!(
                    out,
                    "store filled {n} records in {wall}: {} groups for {} batches ({:.2} batches/group)",
                    s.groups,
                    s.batches,
                    s.batches as f64 / s.groups.max(1) as f64
                );
            }
            Some("stats") => {
                let store = self.store()?;
                let s = store.stats();
                let _ = writeln!(
                    out,
                    "shards={} groups={} batches={} merged_bytes={} pending={}",
                    store.shards(),
                    s.groups,
                    s.batches,
                    s.merged_bytes,
                    store.pending()
                );
                for i in 0..store.shards() {
                    let _ = writeln!(
                        out,
                        "  shard{i}: levels {:?}",
                        store.shard_db(i).level_file_counts()
                    );
                }
            }
            Some("close") => {
                self.store = None;
                let _ = writeln!(out, "store closed");
            }
            _ => {
                return Err("usage: store open|put|get|scan|fill|stats|close".into());
            }
        }
        Ok(())
    }

    /// The `repl` command family: an in-process leader/follower pair
    /// over the loopback shipping transport, with a resumable changefeed
    /// and promote-and-fence failover — the whole replication stack in a
    /// scriptable shell.
    fn dispatch_repl(&mut self, args: &[&str], out: &mut String) -> Result<(), Error> {
        match args.first().copied() {
            Some("open") => {
                let shards: usize = args
                    .get(1)
                    .map(|s| s.parse().map_err(|_| "shards must be a number"))
                    .transpose()?
                    .unwrap_or(2);
                let opts = StoreOptions { shards, db: base_options(), ..StoreOptions::default() };
                let clock = SharedClock::new();
                let leader = Store::open_with_clock(opts.clone(), clock.clone())?;
                let follower = Store::open_with_clock(opts, clock)?;
                let mut leader = Leader::new(leader, 1);
                let mut follower = Follower::new(follower, 1);
                // The pair shares the session sink, so one traced commit
                // yields a single tree spanning both replicas.
                if let Some(sink) = &self.trace {
                    leader.set_trace_sink(sink.clone());
                    follower.set_trace_sink(sink.clone());
                }
                let core = shared_repl(ReplCore::new(leader));
                let mut link = FollowerLink::new(ReplLoopback::connect(&core), follower);
                link.subscribe()?;
                self.repl = Some(ReplSession { core, link: Some(link), sub: None });
                let _ = writeln!(out, "repl open: {shards} shards, epoch 1, loopback follower");
            }
            Some("put") => {
                let [_, k, v] = args[..] else {
                    return Err("usage: repl put <key> <value>".into());
                };
                let mut batch = WriteBatch::new();
                batch.put(k.as_bytes(), v.as_bytes());
                let t = self
                    .repl()?
                    .core
                    .borrow_mut()
                    .leader_mut()
                    .write(&WriteOptions::default(), batch)?;
                let _ = writeln!(out, "OK ({t})");
            }
            Some("follow") => {
                let r = self.repl()?;
                let link = r
                    .link
                    .as_mut()
                    .ok_or("follower was promoted (use `repl open` for a new pair)")?;
                let applied = link.poll_until_idle()?;
                let _ = writeln!(
                    out,
                    "applied {applied} records; follower at {:?}",
                    link.follower().shard_seqs()
                );
            }
            Some("get") => {
                let k = args.get(1).ok_or("usage: repl get <key> [staleness_ms]")?;
                let ms: u64 = args
                    .get(2)
                    .map(|s| s.parse().map_err(|_| "staleness_ms must be a number"))
                    .transpose()?
                    .unwrap_or(60_000);
                let key = k.as_bytes().to_vec();
                let ropts = ReadOptions::default().with_max_staleness(Nanos::from_millis(ms));
                let r = self.repl()?;
                let link = r
                    .link
                    .as_mut()
                    .ok_or("follower was promoted (use `repl open` for a new pair)")?;
                match link.get(&ropts, &key)? {
                    Some(v) => {
                        let _ = writeln!(
                            out,
                            "{} (follower, bound {ms} ms)",
                            String::from_utf8_lossy(&v)
                        );
                    }
                    None => {
                        let _ = writeln!(out, "<not found> (follower, bound {ms} ms)");
                    }
                }
            }
            Some("subscribe") => {
                let from: Option<u64> = args
                    .get(1)
                    .map(|s| s.parse().map_err(|_| "from_seq must be a number"))
                    .transpose()?;
                let r = self.repl()?;
                let conn = ReplLoopback::connect(&r.core);
                // An explicit sequence starts a fresh feed; otherwise an
                // existing feed resumes from where it left off (across a
                // promotion too — the new leader kept the change log).
                let mut sub = match (r.sub.take(), from) {
                    (_, Some(seq)) => Subscription::start(conn, 0, seq)?,
                    (Some(prev), None) => prev.resume(conn)?,
                    (None, None) => Subscription::start(conn, 0, 1)?,
                };
                let mut n = 0usize;
                loop {
                    let recs = sub.poll()?;
                    if recs.is_empty() {
                        break;
                    }
                    for rec in recs {
                        n += 1;
                        let _ = writeln!(
                            out,
                            "  shard {} seq {}..{} epoch {} ({} payload bytes)",
                            rec.shard,
                            rec.first_seq,
                            rec.last_seq,
                            rec.epoch,
                            rec.payload.len()
                        );
                    }
                }
                let _ = writeln!(out, "changefeed: {n} records, next seq {}", sub.next_seq());
                r.sub = Some(sub);
            }
            Some("promote") => {
                let r = self.repl()?;
                let link = r.link.take().ok_or("follower already promoted")?;
                let new_leader = link.into_follower().promote();
                let epoch = new_leader.epoch();
                r.core.borrow_mut().leader_mut().fence(epoch);
                r.core = shared_repl(ReplCore::new(new_leader));
                let _ = writeln!(out, "promoted follower to epoch {epoch}; old leader fenced");
            }
            Some("status") => {
                let r = self.repl()?;
                {
                    let core = r.core.borrow();
                    let l = core.leader();
                    let _ = writeln!(
                        out,
                        "leader: epoch={} fenced={} seqs={:?} acked={:?} lag={}",
                        l.epoch(),
                        l.fenced(),
                        l.store().shard_seqs(),
                        l.acked_seqs(),
                        l.replication_lag()
                    );
                }
                match &r.link {
                    Some(link) => {
                        let f = link.follower();
                        let seqs = f.shard_seqs();
                        let stale: Vec<String> =
                            (0..seqs.len()).map(|s| f.staleness(s).to_string()).collect();
                        let _ = writeln!(
                            out,
                            "follower: epoch={} seqs={seqs:?} staleness={stale:?}",
                            f.epoch()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "follower: promoted");
                    }
                }
                match &r.sub {
                    Some(sub) => {
                        let _ = writeln!(
                            out,
                            "changefeed: shard {} next seq {}",
                            sub.shard(),
                            sub.next_seq()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "changefeed: none");
                    }
                }
            }
            Some("close") => {
                self.repl = None;
                let _ = writeln!(out, "repl closed");
            }
            _ => {
                return Err("usage: repl open|put|follow|get|subscribe|promote|status|close".into());
            }
        }
        Ok(())
    }
}

/// Parses a variant name shared by `open` and `store open`.
fn parse_variant(mode: &str) -> Result<Variant, Error> {
    match mode {
        "noblsm" => Ok(Variant::NobLsm),
        "leveldb" => Ok(Variant::LevelDb),
        "volatile" => Ok(Variant::VolatileLevelDb),
        "bolt" => Ok(Variant::Bolt),
        "l2sm" => Ok(Variant::L2sm),
        "rocksdb" => Ok(Variant::RocksDb),
        "hyperleveldb" => Ok(Variant::HyperLevelDb),
        "pebblesdb" => Ok(Variant::PebblesDb),
        other => Err(format!("unknown mode {other}").into()),
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

#[cfg(test)]
mod tests {
    use nob_sim::json::Json;

    use super::*;

    #[test]
    fn put_get_del_cycle() {
        let mut s = Session::new();
        let out = s.run_script("open noblsm\nput name noblsm\nget name\ndel name\nget name\n");
        assert!(out.contains("opened NobLSM"));
        assert!(out.contains("name") || out.contains("noblsm"));
        assert!(out.contains("<not found>"));
    }

    #[test]
    fn commands_require_open_db() {
        let mut s = Session::new();
        let out = s.run_line("put a b");
        assert!(out.contains("no database open"), "{out}");
    }

    #[test]
    fn fill_scan_and_levels() {
        let mut s = Session::new();
        let out = s.run_script("open leveldb\nfill 2000 100\nflush\nlevels\nscan 00 3\nstats\n");
        assert!(out.contains("filled 2000 records"));
        assert!(out.contains("rows,"));
        assert!(out.contains("syncs="), "{out}");
    }

    #[test]
    fn crash_recovers_flushed_data() {
        let mut s = Session::new();
        let out =
            s.run_script("open noblsm\nput k persisted\nflush\nadvance 11000\ncrash 100\nget k\n");
        assert!(out.contains("power failed"));
        assert!(out.contains("persisted"), "{out}");
    }

    #[test]
    fn unknown_commands_and_bad_usage_report_errors() {
        let mut s = Session::new();
        assert!(s.run_line("frobnicate").contains("unknown command"));
        let _ = s.run_line("open noblsm");
        assert!(s.run_line("put onlykey").contains("usage: put"));
        assert!(s.run_line("scan a notanumber").contains("must be a number"));
        assert!(s.run_line("open alienDB").contains("unknown mode"));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let mut s = Session::new();
        let out = s.run_script("# a comment\n\nopen volatile\n# another\ntime\n");
        assert!(out.contains("opened LevelDB-nosync"));
    }

    #[test]
    fn chaos_command_runs_case_and_sweep() {
        let mut s = Session::new();
        let out = s.run_line("chaos 7 600");
        assert!(out.contains("chaos case seed=7"), "{out}");
        assert!(out.contains("PASS") || out.contains("FAIL"));
        let out = s.run_line("chaos sweep 1 2");
        assert!(out.contains("chaos sweep: 8 cases"), "{out}");
        assert!(s.run_line("chaos").contains("usage: chaos"));
    }

    #[test]
    fn trace_records_summarises_and_exports() {
        let dir = std::env::temp_dir().join("nob-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("spans.json");
        let chrome = dir.join("spans.chrome.json");
        let mut s = Session::new();
        let out = s.run_script(&format!(
            "open leveldb\ntrace on\nfill 2000 100\nflush\ntrace summary\ntrace stalls\n\
             trace export json {}\ntrace export chrome {}\n",
            json.display(),
            chrome.display()
        ));
        assert!(out.contains("tracing on"), "{out}");
        assert!(out.contains("engine_put"), "summary must list engine spans: {out}");
        assert!(out.contains("p999"), "{out}");
        let retained = s.trace.as_ref().expect("tracing is on").snapshot().0.len();
        assert!(s.run_line("trace off").contains("tracing off"));
        let parse = |path: &std::path::Path| {
            Json::parse(&std::fs::read_to_string(path).unwrap()).expect("the export parses")
        };
        let spans = parse(&json);
        let listed = spans.get("events").and_then(Json::as_array).map(<[Json]>::len);
        assert_eq!(listed, Some(retained), "one entry per span the ring retains");
        let chrome = parse(&chrome);
        let events = chrome.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        let slices: Vec<&Json> = events.iter().filter(|e| e.text("ph") == Some("X")).collect();
        assert_eq!(slices.len(), retained);
        assert!(slices.iter().all(|e| e.num("ts").is_some() && e.num("dur").is_some()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_survives_a_crash_reopen() {
        let mut s = Session::new();
        let out = s.run_script(
            "open noblsm\ntrace on\nput k v\nflush\nadvance 11000\ncrash 100\nget k\ntrace summary\n",
        );
        assert!(out.contains("power failed"), "{out}");
        // Reads issued after recovery land in the same trace.
        assert!(out.contains("engine_get"), "{out}");
    }

    #[test]
    fn trace_usage_errors_are_reported() {
        let mut s = Session::new();
        assert!(s.run_line("trace summary").contains("tracing is off"));
        assert!(s.run_line("trace tree").contains("tracing is off"));
        assert!(s.run_line("trace critical").contains("tracing is off"));
        assert!(s.run_line("trace").contains("usage: trace"));
        let _ = s.run_line("trace on");
        assert!(s.run_line("trace export json").contains("usage: trace export"));
        assert!(s.run_line("trace export gif /tmp/x").contains("unknown export format"));
        assert!(s.run_line("trace tree notanumber").contains("must be a number"));
        assert!(s.run_line("trace tree 999999").contains("no recorded trace"));
        assert!(s.run_line("trace critical nan").contains("must be a number"));
    }

    #[test]
    fn trace_tree_and_critical_cover_a_replicated_commit() {
        let mut s = Session::new();
        let out = s.run_script(
            "trace on\nrepl open 1\nrepl put alpha 1\nrepl follow\ntrace tree\ntrace critical 1\n",
        );
        // The group commit's tree spans both replicas: engine + journal
        // work under the leader, ship/apply/ack across the link.
        assert!(out.contains("group_commit"), "{out}");
        assert!(out.contains("repl_ship"), "{out}");
        assert!(out.contains("repl_apply"), "{out}");
        assert!(out.contains("repl_ack"), "{out}");
        assert!(out.contains("critical path:"), "{out}");
        assert!(out.contains("slowest 1 requests"), "{out}");
    }

    #[test]
    fn metrics_table_timeline_and_prometheus_export() {
        let dir = std::env::temp_dir().join("nob-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let prom = dir.join("metrics.prom");
        let mut s = Session::new();
        let out = s.run_script(&format!(
            "open noblsm\nmetrics on\nfill 3000 100\nflush\nmetrics\nmetrics timeline\n\
             metrics export --format prom {}\n",
            prom.display()
        ));
        assert!(out.contains("metrics on"), "{out}");
        assert!(out.contains("size(MB)"), "compaction table header: {out}");
        assert!(out.contains("engine.mem_bytes"), "timeline sparklines: {out}");
        let inline = Json::parse(&s.run_line("metrics export json")).expect("inline export parses");
        let series = inline.get("series").and_then(Json::as_array).map(<[Json]>::len);
        let hub = s.metrics.as_ref().expect("metrics are on").timeline().series.len();
        assert_eq!(series, Some(hub), "one entry per series the hub samples");
        assert!(s.run_line("metrics off").contains("metrics off"));
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE noblsm_engine_mem_bytes gauge"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_survive_a_crash_reopen() {
        let mut s = Session::new();
        let out = s.run_script(
            "open noblsm\nmetrics on\nfill 1000 100\nflush\nadvance 11000\ncrash 100\n\
             advance 1000\nmetrics timeline\n",
        );
        assert!(out.contains("power failed"), "{out}");
        // The timeline keeps sampling across the crash reopen.
        assert!(out.contains("engine.mem_bytes"), "{out}");
    }

    #[test]
    fn metrics_usage_errors_are_reported() {
        let mut s = Session::new();
        assert!(s.run_line("metrics timeline").contains("metrics are off"));
        assert!(s.run_line("metrics").contains("no database open"));
        assert!(s.run_line("metrics bogus").contains("usage: metrics"));
        let _ = s.run_line("metrics on");
        assert!(s.run_line("metrics export gif").contains("unknown export format"));
        assert!(s.run_line("metrics export").contains("usage: metrics export"));
    }

    #[test]
    fn store_commands_group_commit_and_read_back() {
        let mut s = Session::new();
        let out = s.run_script(
            "store open 4\nstore put alpha 1\nstore get alpha\nstore fill 200 64 4\n\
             store stats\nstore close\n",
        );
        assert!(out.contains("store open: 4 shards of NobLSM"), "{out}");
        assert!(out.contains("1 (shard"), "{out}");
        assert!(out.contains("store filled 200 records"), "{out}");
        assert!(out.contains("batches/group"), "{out}");
        assert!(out.contains("shards=4"), "{out}");
        assert!(out.contains("store closed"), "{out}");
    }

    #[test]
    fn store_scan_merges_shards_and_pages_with_a_resume_key() {
        let mut s = Session::new();
        let out = s.run_script(
            "store open 4\nstore put b 2\nstore put a 1\nstore put d 4\nstore put c 3\n\
             store scan a 3\nstore scan a 10 count\nstore scan a 10 reverse\n",
        );
        // Three rows from four shards, globally sorted, with the resume
        // key pointing at the truncated remainder.
        assert!(out.contains("a = 1\nb = 2\nc = 3\n(3 rows, more from d,"), "{out}");
        assert!(out.contains("(4 rows,"), "{out}");
        let d = out.find("d = 4").expect("reverse scan emits d");
        let a = out.rfind("a = 1").expect("reverse scan emits a");
        assert!(d < a, "reverse order: {out}");
    }

    #[test]
    fn store_usage_errors_are_reported() {
        let mut s = Session::new();
        assert!(s.run_line("store get k").contains("no store open"), "store get before open");
        assert!(s.run_line("store").contains("usage: store"));
        assert!(s.run_line("store open").contains("usage: store open"));
        assert!(s.run_line("store open 0").contains("at least one shard"));
        assert!(s.run_line("store open 2 alienDB").contains("unknown mode"));
        assert!(s.run_line("store scan").contains("usage: store scan"));
    }

    #[test]
    fn repl_commands_ship_read_subscribe_and_promote() {
        let mut s = Session::new();
        // One shard so the shard-0 changefeed deterministically sees
        // every record regardless of key hashing.
        let out = s.run_script(
            "repl open 1\nrepl put alpha 1\nrepl put beta 2\nrepl follow\nrepl get alpha\n\
             repl subscribe\nrepl status\nrepl promote\nrepl put gamma 3\nrepl subscribe\n\
             repl status\nrepl close\n",
        );
        assert!(out.contains("repl open: 1 shards, epoch 1"), "{out}");
        assert!(out.contains("applied 2 records"), "{out}");
        assert!(out.contains("1 (follower, bound 60000 ms)"), "{out}");
        assert!(out.contains("seq 1..1 epoch 1"), "pre-failover record: {out}");
        assert!(out.contains("seq 2..2 epoch 1"), "{out}");
        assert!(out.contains("promoted follower to epoch 2"), "{out}");
        assert!(out.contains("seq 3..3 epoch 2"), "the resumed feed crosses the failover: {out}");
        assert!(out.contains("leader: epoch=2"), "{out}");
        assert!(out.contains("follower: promoted"), "{out}");
        assert!(out.contains("repl closed"), "{out}");
    }

    #[test]
    fn repl_get_enforces_the_staleness_bound() {
        let mut s = Session::new();
        let out = s.run_script("repl open 1\nrepl put k v\nrepl follow\nrepl get k 0\n");
        // Staleness on the follower is never exactly zero (the ack trails
        // the commit), so a 0 ms bound must be refused.
        assert!(out.contains("error:"), "{out}");
        let out = s.run_line("repl get k 60000");
        assert!(out.contains("v (follower"), "{out}");
    }

    #[test]
    fn repl_usage_errors_are_reported() {
        let mut s = Session::new();
        assert!(s.run_line("repl put a b").contains("no replication pair"));
        assert!(s.run_line("repl").contains("usage: repl"));
        let _ = s.run_line("repl open 1");
        assert!(s.run_line("repl get").contains("usage: repl get"));
        assert!(s.run_line("repl put onlykey").contains("usage: repl put"));
        let _ = s.run_line("repl promote");
        assert!(s.run_line("repl follow").contains("promoted"), "follow after promote");
        assert!(s.run_line("repl promote").contains("already promoted"));
    }

    #[test]
    fn compact_command_runs() {
        let mut s = Session::new();
        let out = s.run_script("open leveldb\nfill 3000 64\ncompact\nlevels\n");
        assert!(out.contains("compacted"));
        // After a full compaction L0 is empty: the levels line starts [0, …
        assert!(out.contains("[0,"), "{out}");
    }
}
