//! The command interpreter behind `noblsm-cli`: a scriptable driver for a
//! simulated NobLSM deployment — open a store of one or more shards, talk
//! to it as a wire client, advance virtual time, pull the power cable,
//! and inspect engine internals.
//!
//! # Commands
//!
//! ```text
//! open <mode> [shards]   noblsm | leveldb | volatile | bolt | pebblesdb …
//!                        on 1 shard unless told, served in process; each
//!                        shard is its own engine + ext4 + SSD stack, all
//!                        on one clock
//! connect <addr>         send the wire verbs to a `noblsm-cli serve` over
//!                        TCP instead (the local store closes)
//! fill <n> <value_size> [writers]   n records from W logical writers
//!                        per group-commit round (default 1)
//! advance <ms>           advance virtual time (journal timers fire)
//! crash <percent>        cut power to every shard at once, that far into
//!                        the time since the store opened or last
//!                        recovered, and recover
//! flush                  force every shard's memtable to L0
//! compact                full manual compaction of every shard
//! compact lanes <n>      reconfigure every shard's compaction lanes
//! levels                 files per level, per shard
//! time                   current virtual instant
//! trace on|off           start/stop recording spans from all layers
//! trace summary          per-class latency percentiles + top stalls
//! trace tree [trace_id]  render recorded span trees (all roots, or one)
//! trace critical [n]     critical-path decomposition + n slowest trees
//! trace export json|chrome <path>   dump raw spans to a file
//! metrics                the leveldb.stats-style per-level table, per shard
//! metrics on|off         start/stop gauge sampling (100 ms virtual grid;
//!                        series are named per shard: shard0.engine.mem_bytes)
//! metrics timeline       sampled gauges as ASCII sparklines
//! metrics export [--format] prom|json [path]   exposition / raw timeline
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
//! Any other line is a request of the server's wire protocol, its words
//! the request's arguments (`""` is the empty one), and prints the reply
//! as redis-cli does:
//!
//! ```text
//! set <key> <value> | get <key> | del <key> | mget <key>…
//! batch set <k> <v> | del <k> …            one atomic write
//! scan <start> <end> <n> [PREFIX <p>] [COUNT]   a page: cursor (0 when
//!                        done) and rows; `""` leaves a bound open
//! scan next <cursor>     the cursor's next page
//! ping | info            liveness; server, store and per-shard counters
//!                        (engine stats, syncs, journal bytes)
//! ```
//!
//! A word starting with `#` begins a comment that runs to the end of the
//! line.
//!
//! # Examples
//!
//! ```
//! use nob_cli::Session;
//!
//! let mut s = Session::new();
//! let out = s.run_script("open noblsm\nset k hello\nget k\n");
//! assert!(out.contains("hello"));
//! ```

#![forbid(unsafe_code)]

pub mod net;

use std::cell::RefMut;
use std::fmt::Write as _;

use nob_baselines::Variant;
use nob_metrics::{MetricsHub, DEFAULT_PERIOD};
use nob_repl::{
    shared as shared_repl, Follower, FollowerLink, Leader, ReplCore, ReplLoopback, SharedRepl,
    Subscription,
};
use nob_server::{
    shared, Client, Frame, LoopbackTransport, Request, ServerCore, ServerOptions, SharedCore,
    TcpTransport, Transport,
};
use nob_sim::{Nanos, SharedClock};
use nob_store::{Store, StoreOptions};
use nob_trace::TraceSink;
use noblsm::{Db, Error, Options, WriteBatch, WriteOptions};

/// One interactive session: an optional store served in process, the
/// client the wire verbs go through, and the session's shared virtual
/// clock.
pub struct Session {
    /// The open store (one shard or several, each its own stack), behind
    /// the in-process server the loopback client talks to.
    local: Option<SharedCore>,
    /// The client every wire verb goes through: a loopback to `local`,
    /// or TCP after `connect`.
    client: Option<Client<Link>>,
    variant: Variant,
    /// The session's clock, shared with the open store: commands read
    /// and advance it.
    clock: SharedClock,
    /// The instant the store finished opening or recovering: `crash`
    /// cuts power no earlier than this.
    opened_at: Nanos,
    /// Optional replication pair, independent of `local`.
    repl: Option<ReplSession>,
    /// Live trace sink, kept across `open`/`crash` reattachments.
    trace: Option<TraceSink>,
    /// Live metrics hub, kept across `open`/`crash` reattachments.
    metrics: Option<MetricsHub>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("open", &self.local.is_some())
            .field("now", &self.clock.now())
            .finish()
    }
}

/// The transport under the session's client: the local server in
/// process, or a remote one over TCP.
enum Link {
    Loopback(LoopbackTransport),
    Tcp(TcpTransport),
}

impl Transport for Link {
    fn send(&mut self, bytes: &[u8]) -> Result<(), Error> {
        match self {
            Link::Loopback(t) => t.send(bytes),
            Link::Tcp(t) => t.send(bytes),
        }
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize, Error> {
        match self {
            Link::Loopback(t) => t.recv(out),
            Link::Tcp(t) => t.recv(out),
        }
    }
}

/// The `repl` command family's state: the leader behind the shared
/// core, the follower link (absent once promoted), and at most one
/// changefeed. The pair lives on its own shared virtual clock, like the
/// bench harnesses.
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

fn no_database() -> Error {
    Error::Usage("no database open (use `open <mode> [shards]` or `connect <addr>`)".into())
}

/// Parses `s` as a number, naming it `what` in the error.
fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, Error> {
    s.parse().map_err(|_| format!("{what} must be a number").into())
}

/// Parses the optional argument `args[i]` with [`num`], else `default`.
fn arg_or<T: std::str::FromStr>(
    args: &[&str],
    i: usize,
    what: &str,
    default: T,
) -> Result<T, Error> {
    args.get(i).map_or(Ok(default), |a| num(a, what))
}

impl Session {
    /// Creates a session with no store open, at virtual time zero.
    pub fn new() -> Self {
        Session {
            local: None,
            client: None,
            variant: Variant::NobLsm,
            clock: SharedClock::new(),
            opened_at: Nanos::ZERO,
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
            let msg = match e {
                Error::Usage(m) => m,
                e => e.to_string(),
            };
            let _ = writeln!(out, "error: {msg}");
        }
        out
    }

    /// Executes a newline-separated script; returns concatenated output.
    pub fn run_script(&mut self, script: &str) -> String {
        script.lines().map(|line| self.run_line(line)).collect()
    }

    /// The local store, borrowed out of the server that serves it.
    fn store(&self) -> Result<RefMut<'_, Store>, Error> {
        let core = self.local.as_ref().ok_or_else(no_database)?;
        Ok(RefMut::map(core.borrow_mut(), ServerCore::store_mut))
    }

    fn repl(&mut self) -> Result<&mut ReplSession, Error> {
        self.repl
            .as_mut()
            .ok_or_else(|| Error::Usage("no replication pair (use `repl open [shards]`)".into()))
    }

    fn follower_link(&mut self) -> Result<&mut FollowerLink<ReplLoopback>, Error> {
        let link = self.repl()?.link.as_mut();
        link.ok_or_else(|| "follower was promoted (use `repl open` for a new pair)".into())
    }

    /// Makes `store` the session's, served in process: every shard's
    /// crash horizon is pinned (`crash` cuts power in the past), the live
    /// sink and hub move over from the store it replaces, and the session
    /// runs on its clock.
    fn install(&mut self, mut store: Store) -> Result<(), Error> {
        self.detach_metrics();
        for i in 0..store.shards() {
            store.shard_db(i).fs().pin_crash_horizon();
        }
        if let Some(sink) = &self.trace {
            store.set_trace_sink(sink.clone());
        }
        if let Some(hub) = &self.metrics {
            store.set_metrics_hub(hub);
        }
        self.clock = store.clock().clone();
        self.opened_at = self.clock.now();
        let core = shared(ServerCore::new(store, ServerOptions::default())?);
        self.client = Some(Client::new(Link::Loopback(LoopbackTransport::connect(&core))));
        self.local = Some(core);
        Ok(())
    }

    /// Stops the open store's shards sampling into the hub; the hub keeps
    /// its timeline.
    fn detach_metrics(&self) {
        if let Ok(mut store) = self.store() {
            for i in 0..store.shards() {
                store.shard_db_mut(i).clear_metrics_hub();
            }
        }
    }

    /// Runs `op` on every shard's engine in shard order, handing it the
    /// clock's instant; returns the latest instant an `op` returned.
    fn on_every_shard(
        &self,
        mut op: impl FnMut(&mut Db, Nanos) -> Result<Nanos, Error>,
    ) -> Result<Nanos, Error> {
        let mut store = self.store()?;
        let mut end = store.clock().now();
        for i in 0..store.shards() {
            let now = store.clock().now();
            end = end.max(op(store.shard_db_mut(i), now)?);
        }
        Ok(end)
    }

    /// Sends `words` as one wire request and prints the reply. The
    /// request is parsed here first, so a bad one reads the same whether
    /// or not there is a server to send it to.
    fn request(&mut self, words: &[&str], out: &mut String) -> Result<(), Error> {
        let word = |&w: &&str| Frame::Bulk(if w == "\"\"" { Vec::new() } else { w.into() });
        let frame = Frame::Array(words.iter().map(word).collect());
        let req = Request::parse(&frame).map_err(|e| format!("ERR {e}"))?;
        let client = self.client.as_mut().ok_or_else(no_database)?;
        client.send(&req)?;
        match client.recv_reply()? {
            Frame::Error(m) => Err(m.into()),
            reply => {
                render(&reply, 0, out);
                Ok(())
            }
        }
    }

    fn dispatch(&mut self, line: &str, out: &mut String) -> Result<(), Error> {
        let words: Vec<&str> =
            line.split_whitespace().take_while(|w| !w.starts_with('#')).collect();
        let Some((&cmd, args)) = words.split_first() else { return Ok(()) };
        match cmd {
            "open" => {
                let variant = parse_variant(args.first().copied().unwrap_or("noblsm"))?;
                let shards: usize = arg_or(args, 1, "shards", 1)?;
                let opts = StoreOptions {
                    shards,
                    db: variant.options(&base_options()),
                    ..StoreOptions::default()
                };
                let store = Store::open_with_clock(opts, self.clock.clone())?;
                self.install(store)?;
                self.variant = variant;
                let (name, now) = (variant.name(), self.clock.now());
                let _ = writeln!(out, "opened {name} on {shards} shards at {now}");
            }
            "connect" => {
                let [addr] = args[..] else { return Err("usage: connect <addr>".into()) };
                let link = Link::Tcp(TcpTransport::connect(addr)?);
                self.detach_metrics();
                self.local = None;
                self.client = Some(Client::new(link));
                let _ = writeln!(out, "connected to {addr}");
            }
            "fill" => {
                let ([n, vs] | [n, vs, _]) = args[..] else {
                    return Err("usage: fill <n> <value_size> [writers]".into());
                };
                let n: u64 = num(n, "n")?;
                let value = vec![b'x'; num(vs, "value_size")?];
                let writers: u64 = arg_or(args, 2, "writers", 1)?.max(1);
                let mut store = self.store()?;
                let (before, start) = (store.stats(), store.clock().now());
                // Keys 0..n, zero-padded, in a shuffled order: a
                // full-period LCG modulo a power of two (multiplier ≡ 1
                // mod 4, odd increment) visits every residue once; those
                // ≥ n are skipped. Each round, every writer enqueues one
                // record and the pump lets shard leaders coalesce them.
                let mask = n.checked_next_power_of_two().ok_or("n is too large")?.max(4) - 1;
                let (mut x, mut tickets) = (0u64, Vec::new());
                while (tickets.len() as u64) < n {
                    for _ in 0..writers.min(n - tickets.len() as u64) {
                        loop {
                            x = x.wrapping_mul(5).wrapping_add(0x9e37_79b9) & mask;
                            if x < n {
                                break;
                            }
                        }
                        let mut batch = WriteBatch::new();
                        batch.put(format!("{x:016}").as_bytes(), &value);
                        tickets.push(store.enqueue(&WriteOptions::default(), &batch));
                    }
                    store.pump()?;
                }
                store.drain()?;
                for t in tickets {
                    store.take_outcome(t);
                }
                let s = store.stats();
                let (groups, batches) = (s.groups - before.groups, s.batches - before.batches);
                let wall = store.clock().now() - start;
                let _ = writeln!(
                    out,
                    "filled {n} records in {wall} ({:.2} us/op): {groups} groups for {batches} \
                     batches ({:.2} batches/group)",
                    wall.as_nanos() as f64 / 1e3 / n.max(1) as f64,
                    batches as f64 / groups.max(1) as f64
                );
            }
            "advance" => {
                let [ms] = args[..] else { return Err("usage: advance <ms>".into()) };
                // `Nanos::MAX` is where saturating time sticks: a journal
                // timer loop chasing it would never finish.
                let end = num::<u64>(ms, "ms")?
                    .checked_mul(1_000_000)
                    .and_then(|ns| self.clock.now().as_nanos().checked_add(ns))
                    .filter(|&end| end < u64::MAX)
                    .ok_or("usage: advance <ms> (the end overflows the virtual clock)")?;
                self.clock.advance_to(Nanos::from_nanos(end));
                if let Ok(mut store) = self.store() {
                    store.tick()?;
                }
                let _ = writeln!(out, "now {}", self.clock.now());
            }
            "flush" => {
                let t = self.on_every_shard(|db, _| db.flush())?;
                let _ = writeln!(out, "flushed ({t})");
            }
            "compact" => match args[..] {
                [] => {
                    let t = self.on_every_shard(|db, now| db.compact_range(now, None, None))?;
                    let _ = writeln!(out, "compacted ({t})");
                }
                ["lanes", n] => {
                    let n: usize = num(n, "n")?;
                    if n == 0 {
                        return Err("n must be at least 1".into());
                    }
                    self.on_every_shard(|db, now| {
                        db.set_compaction_lanes(n);
                        Ok(now)
                    })?;
                    let _ = writeln!(out, "lanes {n}");
                }
                _ => return Err("usage: compact [lanes <n>]".into()),
            },
            "crash" => {
                let pct: u64 = arg_or(args, 0, "percent", 100)?;
                // Measured from the instant this stack finished opening or
                // recovering: a cut before it would rewind past the
                // recovery whose files the stack now runs on.
                let ran = u128::from((self.clock.now() - self.opened_at).as_nanos());
                let cut = ran * u128::from(pct.min(100)) / 100;
                let at = self.opened_at + Nanos::from_nanos(cut as u64);
                let recovered = self.store()?.crashed_view(at)?;
                let shards = recovered.shards();
                self.install(recovered)?;
                let name = self.variant.name();
                let _ = writeln!(out, "power failed at {at}; recovered {name} on {shards} shards");
            }
            "levels" => {
                let store = self.store()?;
                for i in 0..store.shards() {
                    let _ = writeln!(out, "shard{i}: {:?}", store.shard_db(i).level_file_counts());
                }
            }
            "time" => {
                let _ = writeln!(out, "{}", self.clock.now());
            }
            "repl" => self.dispatch_repl(args, out)?,
            "trace" => match args.first().copied() {
                Some("on") => {
                    let sink = self.trace.get_or_insert_with(TraceSink::new).clone();
                    if let Ok(mut store) = self.store() {
                        store.set_trace_sink(sink);
                    }
                    let _ = writeln!(out, "tracing on");
                }
                Some("off") => {
                    if let Ok(mut store) = self.store() {
                        store.clear_trace_sink();
                    }
                    self.trace = None;
                    let _ = writeln!(out, "tracing off");
                }
                Some("summary") => {
                    let sink = self.trace.as_ref().ok_or("tracing is off (use `trace on`)")?;
                    out.push_str(&sink.summary().render());
                }
                Some("tree") => {
                    let sink = self.trace.as_ref().ok_or("tracing is off (use `trace on`)")?;
                    match args.get(1) {
                        Some(id) => {
                            let id: u64 = num(id, "trace_id")?;
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
                    let top_n: usize = arg_or(args, 1, "n", 3)?;
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
                    write_file(path, &body, out)?;
                }
                _ => {
                    return Err(
                        "usage: trace on|off|summary|tree [trace_id]|critical [n]|export <json|chrome> <path>"
                            .into()
                    )
                }
            },
            "metrics" => match args.first().copied() {
                Some("on") => {
                    let hub = self.metrics.get_or_insert_with(MetricsHub::new).clone();
                    if let Ok(mut store) = self.store() {
                        store.set_metrics_hub(&hub);
                    }
                    let _ = writeln!(out, "metrics on (period {})", DEFAULT_PERIOD);
                }
                Some("off") => {
                    self.detach_metrics();
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
                        Some(p) => write_file(p, &body, out)?,
                        None => out.push_str(&body),
                    }
                }
                None => {
                    let store = self.store()?;
                    for i in 0..store.shards() {
                        let table = store.shard_db(i).property("noblsm.compaction-stats");
                        let _ = write!(out, "shard{i}:\n{}", table.unwrap_or_default());
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
                    "commands: open connect fill advance flush compact [lanes <n>] crash levels time trace metrics repl help quit\n\
                     wire requests: set get del mget batch scan [next] ping info"
                );
            }
            "quit" | "exit" => {}
            _ => self.request(&words, out)?,
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
                let shards: usize = arg_or(args, 1, "shards", 2)?;
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
                let core = &self.repl()?.core;
                let t = core.borrow_mut().leader_mut().write(&WriteOptions::default(), batch)?;
                let _ = writeln!(out, "OK ({t})");
            }
            Some("follow") => {
                let link = self.follower_link()?;
                let applied = link.poll_until_idle()?;
                let _ = writeln!(
                    out,
                    "applied {applied} records; follower at {:?}",
                    link.follower().shard_seqs()
                );
            }
            Some("get") => {
                let k = args.get(1).ok_or("usage: repl get <key> [staleness_ms]")?;
                let ms: u64 = arg_or(args, 2, "staleness_ms", 60_000)?;
                let bound = Some(Nanos::from_millis(ms));
                let got = self.follower_link()?.get(k.as_bytes(), bound)?;
                let got =
                    got.map_or("<not found>".into(), |v| String::from_utf8_lossy(&v).into_owned());
                let _ = writeln!(out, "{got} (follower, bound {ms} ms)");
            }
            Some("subscribe") => {
                let from: Option<u64> = args.get(1).map(|s| num(s, "from_seq")).transpose()?;
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
                let follower = r.link.as_ref().map_or("promoted".into(), |link| {
                    let f = link.follower();
                    let seqs = f.shard_seqs();
                    let stale: Vec<String> =
                        (0..seqs.len()).map(|s| f.staleness(s).to_string()).collect();
                    format!("epoch={} seqs={seqs:?} staleness={stale:?}", f.epoch())
                });
                let _ = writeln!(out, "follower: {follower}");
                let feed = r.sub.as_ref().map_or("none".into(), |sub| {
                    format!("shard {} next seq {}", sub.shard(), sub.next_seq())
                });
                let _ = writeln!(out, "changefeed: {feed}");
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

/// Writes an export's `body` to `path` and says so.
fn write_file(path: &str, body: &str, out: &mut String) -> Result<(), Error> {
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    let _ = writeln!(out, "wrote {path} ({} bytes)", body.len());
    Ok(())
}

/// Appends `frame` as redis-cli prints a reply: a bulk string quoted
/// (one ending in a newline, INFO's text, as it is), an array one
/// numbered element a line, a nested array's elements aligned under its
/// first.
fn render(frame: &Frame, indent: usize, out: &mut String) {
    let _ = match frame {
        Frame::Simple(s) => writeln!(out, "{s}"),
        Frame::Error(m) => writeln!(out, "(error) {m}"),
        Frame::Integer(n) => writeln!(out, "(integer) {n}"),
        Frame::Bulk(b) if b.ends_with(b"\n") => write!(out, "{}", String::from_utf8_lossy(b)),
        Frame::Bulk(b) => writeln!(out, "{:?}", String::from_utf8_lossy(b)),
        Frame::Nil => writeln!(out, "(nil)"),
        Frame::Array(items) if items.is_empty() => writeln!(out, "(empty array)"),
        Frame::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let tag = format!("{}) ", i + 1);
                let _ = write!(out, "{:pad$}{tag}", "", pad = if i == 0 { 0 } else { indent });
                render(item, indent + tag.len(), out);
            }
            Ok(())
        }
    };
}

/// Parses the variant name `open` takes.
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
        let out = s.run_script("open noblsm\nset name noblsm\nget name\ndel name\nget name\n");
        assert!(out.contains("opened NobLSM on 1 shards"), "{out}");
        assert!(out.contains("OK\n\"noblsm\"\nOK\n(nil)\n"), "{out}");
    }

    #[test]
    fn store_commands_group_commit_and_read_back() {
        let mut s = Session::new();
        let out =
            s.run_script("open noblsm 4\nset alpha 1\nget alpha\nfill 200 64 4\ninfo\nlevels\n");
        assert!(out.contains("opened NobLSM on 4 shards"), "{out}");
        assert!(out.contains("\"1\"\n"), "{out}");
        assert!(out.contains("filled 200 records"), "{out}");
        assert!(out.contains("batches/group"), "{out}");
        assert!(out.contains("shards:4"), "{out}");
        assert!(out.contains("# shard3\nnoblsm.stats:engine.writes="), "{out}");
        assert!(out.contains("\nfs:ext4.sync_calls="), "{out}");
        assert!(out.contains("shard3: ["), "{out}");
    }

    #[test]
    fn commands_require_open_db() {
        let mut s = Session::new();
        let out = s.run_line("set a b");
        assert!(out.contains("no database open"), "{out}");
    }

    #[test]
    fn fill_scan_and_levels() {
        let mut s = Session::new();
        let out =
            s.run_script("open leveldb\nfill 2000 100\nflush\nlevels\nscan 00 \"\" 3\ninfo\n");
        assert!(out.contains("filled 2000 records"));
        assert!(out.contains("5) \"0000000000000002\""), "fill writes keys 0..n: {out}");
        assert!(out.contains("1) (integer) 1\n"), "a cursor for the rest: {out}");
        assert!(out.contains("fs:ext4.sync_calls="), "{out}");
    }

    #[test]
    fn store_scan_merges_shards_and_pages_with_a_resume_key() {
        let mut s = Session::new();
        let out = s.run_script(
            "open noblsm 4\nset b 2\nset a 1\nset d 4\nset c 3\n\
             scan a \"\" 3\nscan next 1\nscan a \"\" 10 COUNT\n",
        );
        // Three rows from four shards, globally sorted, with a cursor
        // for the truncated remainder; its page ends the range.
        let first = "1) (integer) 1\n2) 1) \"a\"\n   2) \"1\"\n   3) \"b\"\n   4) \"2\"\n   \
                     5) \"c\"\n   6) \"3\"\n";
        assert!(out.contains(first), "{out}");
        assert!(out.contains("1) (integer) 0\n2) 1) \"d\"\n   2) \"4\"\n"), "{out}");
        assert!(out.ends_with("1) (integer) 0\n2) (integer) 4\n"), "{out}");
    }

    #[test]
    fn crash_recovers_flushed_data() {
        let mut s = Session::new();
        let out =
            s.run_script("open noblsm\nset k persisted\nflush\nadvance 11000\ncrash 100\nget k\n");
        assert!(out.contains("power failed"));
        assert!(out.contains("persisted"), "{out}");
        // The next cut is measured from the recovery, never before it.
        let out = s.run_script("set a b\nadvance 3000\ncrash 10\nget k\n");
        assert_eq!(out.lines().last(), Some("\"persisted\""), "{out}");
    }

    #[test]
    fn every_crash_keeps_a_flushed_key_at_any_shard_count() {
        for shards in [1, 4] {
            let mut s = Session::new();
            let _ = s.run_script(&format!("open noblsm {shards}\nset k persisted\nflush\n"));
            for (round, pct) in [100, 0, 37, 10, 100, 0, 64, 1, 90, 100].into_iter().enumerate() {
                let out = s.run_script(&format!(
                    "set r{round} x\nfill 40 32 2\nadvance {}\ncrash {pct}\nget k\n",
                    round * 1700
                ));
                assert!(out.contains("power failed"), "{shards} shards, crash {pct}: {out}");
                assert!(out.ends_with("\n\"persisted\"\n"), "{shards} shards, crash {pct}: {out}");
            }
        }
    }

    #[test]
    fn unknown_commands_and_bad_usage_report_errors() {
        let mut s = Session::new();
        assert!(s.run_line("frobnicate").contains("unknown command"));
        let _ = s.run_line("open noblsm");
        assert!(s.run_line("set onlykey").contains("wrong arity: SET"));
        assert!(s.run_line("scan a \"\" notanumber").contains("must be a decimal integer"));
        assert!(s.run_line("compact status").contains("usage: compact"));
        assert!(s.run_line("store open 2").contains("unknown command"));
        assert!(s.run_line("advance 18446744073709").contains("usage: advance"), "end of time");
    }

    #[test]
    fn store_usage_errors_are_reported() {
        let mut s = Session::new();
        assert!(s.run_line("get k").contains("no database open"), "get before open");
        assert!(s.run_line("open alienDB").contains("unknown mode"));
        assert!(s.run_line("open noblsm 0").contains("at least one shard"));
        assert!(s.run_line("open noblsm many").contains("shards must be a number"));
        assert!(s.run_line("scan").contains("wrong arity: SCAN"));
        assert!(s.run_line("scan a \"\" 3 sideways").contains("SCAN options are PREFIX"));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let mut s = Session::new();
        let out = s.run_script("# a comment\n\nopen volatile\n# another\ntime\n");
        assert!(out.contains("opened LevelDB-nosync"));
    }

    #[test]
    fn trace_records_summarises_and_exports() {
        let dir = std::env::temp_dir().join("nob-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("spans.json");
        let chrome = dir.join("spans.chrome.json");
        let mut s = Session::new();
        let out = s.run_script(&format!(
            "open leveldb\ntrace on\nfill 2000 100\nflush\ntrace summary\n\
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
            "open noblsm\ntrace on\nset k v\nflush\nadvance 11000\ncrash 100\nget k\ntrace summary\n",
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
        assert!(out.contains("shard0.engine.mem_bytes"), "timeline sparklines: {out}");
        let inline = Json::parse(&s.run_line("metrics export json")).expect("inline export parses");
        let series = inline.get("series").and_then(Json::as_array).map(<[Json]>::len);
        let hub = s.metrics.as_ref().expect("metrics are on").timeline().series.len();
        assert_eq!(series, Some(hub), "one entry per series the hub samples");
        assert!(s.run_line("metrics off").contains("metrics off"));
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE noblsm_shard0_engine_mem_bytes gauge"), "{text}");
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

    #[test]
    fn wire_verbs_print_the_same_over_loopback_and_tcp() {
        const SCRIPT: &str = "set b 2\nset a 1\nset d 4\nset c 3\ndel c\nget a\nget c\n\
                              mget a c d\nbatch set e 5 del b\nscan a \"\" 2\nscan next 1\n\
                              scan a \"\" 10 COUNT\nping\n";
        let mut local = Session::new();
        let _ = local.run_line("open noblsm 2");
        let server = net::serve("127.0.0.1:0", 2).expect("bind");
        let mut remote = Session::new();
        let connected = remote.run_line(&format!("connect {}", server.local_addr()));
        assert!(connected.starts_with("connected to"), "{connected}");
        let (here, there) = (local.run_script(SCRIPT), remote.run_script(SCRIPT));
        // The simulation verbs need a local store.
        assert!(remote.run_line("flush").contains("no database open"));
        assert!(remote.run_line("connect").contains("usage: connect"));
        drop(remote);
        server.shutdown().expect("graceful shutdown");
        assert_eq!(here, there);
        assert!(!here.contains("error:"), "{here}");
        assert!(here.contains("1) \"1\"\n2) (nil)\n3) \"4\"\n"), "MGET: {here}");
        assert!(here.contains("(integer) 2\n"), "BATCH counts its operations: {here}");
        assert!(here.ends_with("1) (integer) 0\n2) (integer) 3\nPONG\n"), "{here}");
    }

    #[test]
    fn readme_shell_transcript_runs_without_errors() {
        let dir = std::env::temp_dir().join(format!("nob-cli-readme-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let readme = include_str!("../../../README.md");
        let mut outs = Vec::new();
        for block in readme.split("```sh\n").skip(1) {
            let script: String = block
                .split("```")
                .next()
                .unwrap_or_default()
                .lines()
                .filter_map(|l| l.strip_prefix("> "))
                .map(|l| format!("{l}\n"))
                .collect();
            if script.is_empty() {
                continue;
            }
            // Each transcript runs alone, its files kept out of /tmp.
            let script = script.replace("/tmp/", &format!("{}/", dir.display()));
            let out = Session::new().run_script(&script);
            assert!(!out.lines().any(|l| l.starts_with("error:")), "{script}\n{out}");
            outs.push(out);
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outs.len(), 4, "the shell, trace, repl and metrics transcripts");
        assert!(outs[0].contains("power failed"), "{}", outs[0]);
    }
}
