//! The system under test as the benchmark holds it: either one engine
//! (`fill`, `read`) or a serving core over a sharded store (`serve`,
//! `scan`), reached only through public functions, plus the counter
//! snapshots every rep takes around its timed phase.

use std::collections::BTreeMap;

use nob_baselines::Variant;
use nob_bench::{Scale, PAPER_TABLE_LARGE};
use nob_ext4::Ext4Fs;
use nob_metrics::MetricsHub;
use nob_server::{shared, ServerCore, ServerOptions, SharedCore};
use nob_sim::{Nanos, SharedClock};
use nob_store::StoreOptions;
use noblsm::{Db, Options, ReadOptions, ScanOptions, WriteOptions};

/// Shards behind the serving workloads.
pub const SHARDS: usize = 2;

/// Every size-like parameter is the paper's divided by 64
/// (`nob_bench::Scale`): 1 MiB tables and memtable, 1 MiB L1 budget,
/// 1 MiB block cache, 78 ms journal-commit and reclaim intervals.
pub fn scale() -> Scale {
    Scale::new(64)
}

/// Engine options of `variant` at the benchmark's scale.
pub fn engine_options(variant: Variant) -> Options {
    variant.options(&scale().base_options(PAPER_TABLE_LARGE))
}

/// Exact counters summed over shards, keyed by per-layer metric name.
pub type Counters = BTreeMap<&'static str, u64>;

/// The system under test.
pub enum Stack {
    /// One engine on its own filesystem and device.
    Engine(Box<Db>),
    /// A serving core over `SHARDS` engines.
    Server(SharedCore),
}

impl Stack {
    /// Opens a fresh single-engine stack.
    pub fn engine(variant: Variant) -> Stack {
        let db = Db::open(scale().fresh_fs(), "db", engine_options(variant), Nanos::ZERO)
            .expect("open a fresh engine");
        Stack::Engine(Box::new(db))
    }

    /// Opens a fresh serving stack acking writes under `write`, with
    /// `cache_bytes` of block cache per shard.
    pub fn server(write: WriteOptions, cache_bytes: u64) -> Stack {
        let mut db = engine_options(Variant::NobLsm);
        db.block_cache_bytes = cache_bytes;
        let store =
            StoreOptions { shards: SHARDS, fs: scale().fs_config(), db, ..StoreOptions::default() };
        let opts = ServerOptions { store, write, ..ServerOptions::default() };
        Stack::Server(shared(ServerCore::open(opts).expect("open a fresh serving core")))
    }

    /// The single engine.
    ///
    /// # Panics
    ///
    /// Panics on a serving stack (a driver bug).
    pub fn db(&mut self) -> &mut Db {
        match self {
            Stack::Engine(db) => db,
            Stack::Server(_) => panic!("engine entry point on a serving stack"),
        }
    }

    /// The serving core.
    ///
    /// # Panics
    ///
    /// Panics on an engine stack (a driver bug).
    pub fn core(&self) -> &SharedCore {
        match self {
            Stack::Server(core) => core,
            Stack::Engine(_) => panic!("wire entry point on an engine stack"),
        }
    }

    /// The stack's virtual clock.
    pub fn clock(&self) -> SharedClock {
        match self {
            Stack::Engine(db) => db.clock().clone(),
            Stack::Server(core) => core.borrow().clock().clone(),
        }
    }

    /// Runs `f` on every shard engine, in shard order.
    pub fn each_db(&mut self, mut f: impl FnMut(&mut Db)) {
        match self {
            Stack::Engine(db) => f(db),
            Stack::Server(core) => {
                let mut core = core.borrow_mut();
                for i in 0..SHARDS {
                    f(core.store_mut().shard_db_mut(i));
                }
            }
        }
    }

    /// Attaches `hub` to every layer of the stack.
    pub fn sample(&mut self, hub: &MetricsHub) {
        match self {
            Stack::Engine(db) => db.set_metrics_hub(hub.clone()),
            Stack::Server(core) => core.borrow_mut().set_metrics_hub(hub),
        }
    }

    /// Settles: drains queued writes and compactions, then moves the
    /// clock two journal-commit plus reclaim intervals on so buffered
    /// data commits and NobLSM's reclamation poll runs, and drains again.
    /// Shadow tables still unreclaimed after that count into `space_amp`.
    pub fn settle(&mut self) {
        let clock = self.clock();
        let mut wait = Nanos::ZERO;
        self.each_db(|db| {
            wait = wait.max(db.fs().config().commit_interval + db.options().reclaim_interval);
        });
        for pass in 0..2 {
            if pass == 1 {
                clock.advance(wait + wait);
            }
            match self {
                Stack::Engine(db) => {
                    let now = clock.now();
                    db.wait_idle(now).expect("drain compactions");
                }
                Stack::Server(core) => {
                    let mut core = core.borrow_mut();
                    core.flush().expect("drain the commit queue");
                    core.store_mut().tick().expect("journal timers");
                    core.store_mut().wait_idle().expect("drain compactions");
                }
            }
        }
    }

    /// Point read through the highest API below the wire.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let ropts = ReadOptions::default();
        match self {
            Stack::Engine(db) => db.get(&ropts, key),
            Stack::Server(core) => core.borrow_mut().store_mut().get(&ropts, key),
        }
        .expect("point read")
    }

    /// Rows alive (a counting full scan).
    pub fn rows(&mut self) -> u64 {
        let (ropts, sopts) = (ReadOptions::default(), ScanOptions::all().counting());
        match self {
            Stack::Engine(db) => db.scan(&ropts, &sopts),
            Stack::Server(core) => core.borrow_mut().store_mut().scan(&ropts, &sopts),
        }
        .expect("full scan")
        .count
    }

    /// What a power cut at `at` leaves behind: every shard's filesystem
    /// reduced to its durable state and its engine reopened on it.
    pub fn crashed(&mut self, at: Nanos) -> Crashed {
        let mut shards = Vec::new();
        let mut i = 0;
        let single = matches!(self, Stack::Engine(_));
        self.each_db(|db| {
            let dir = if single { "db".to_string() } else { format!("shard{i}") };
            let view: Ext4Fs = db.fs().crashed_view(at);
            shards.push(Db::open(view, &dir, db.options().clone(), at).expect("recover"));
            i += 1;
        });
        Crashed { shards, router: self.router() }
    }

    fn router(&self) -> Option<SharedCore> {
        match self {
            Stack::Engine(_) => None,
            Stack::Server(core) => Some(core.clone()),
        }
    }

    /// Bytes every file of every shard occupies (`space_amp`'s numerator).
    pub fn stored_bytes(&mut self) -> u64 {
        let mut total = 0;
        self.each_db(|db| {
            let fs = db.fs();
            total += fs.list("").iter().map(|p| fs.file_size(p).unwrap_or(0)).sum::<u64>();
        });
        total
    }

    /// Exact counters since open, summed over shards. Names are the
    /// per-layer metric names they feed; `end.*` entries are levels read
    /// at the instant of the call, not running totals.
    pub fn counters(&mut self) -> Counters {
        let mut c = Counters::new();
        let mut add = |name: &'static str, v: u64| *c.entry(name).or_insert(0) += v;
        add("clock.ns", self.clock().now().as_nanos());
        let mut shard_writes = Vec::new();
        let mut levels_populated = 0;
        self.each_db(|db| {
            let s = db.stats().clone();
            shard_writes.push(s.writes);
            add("end.shards", 1);
            add("core.writes", s.writes);
            add("core.gets", s.gets);
            add("core.get_hits", s.hits);
            add("core.stalls", s.stalls);
            add("core.stall_ns", s.stall_time.as_nanos());
            add("core.slowdowns", s.slowdowns);
            add("core.minor_compactions", s.minor_compactions);
            add("core.major_compactions", s.major_compactions);
            add("core.seek_compactions", s.seek_compactions);
            add("core.compaction_bytes_read", s.compaction_bytes_read);
            add("core.compaction_bytes_written", s.compaction_bytes_written);
            add("core.files_read", s.files_read_per_get);
            add("core.reclaimed_files", s.reclaimed_files);
            add("end.core.shadow_files", s.shadow_files);
            let (hits, misses) = db.cache_hit_stats();
            add("core.cache_hits", hits);
            add("core.cache_misses", misses);
            let levels = db.level_file_counts();
            add("end.core.level_files", levels.iter().sum::<usize>() as u64);
            levels_populated = levels_populated.max(levels.iter().filter(|&&n| n > 0).count());
            add("compact.read_ns", s.compact_read_time.as_nanos());
            add("compact.merge_ns", s.compact_merge_time.as_nanos());
            add("compact.write_ns", s.compact_write_time.as_nanos());
            add("compact.preempt_l0", s.l0_preempts);
            add("compact.backoffs", s.lane_backoffs);
            add("compact.lane_busy_ns", db.lane_stats().iter().map(|l| l.busy.as_nanos()).sum());
            add("end.compact.lanes", db.lane_stats().len() as u64);
            add("end.compact.debt_bytes", db.compaction_debt_bytes());
            let f = db.fs().stats();
            add("ext4.sync_calls", f.sync_calls);
            add("ext4.bytes_synced", f.bytes_synced);
            add("ext4.sync_commits", f.sync_commits);
            add("ext4.async_commits", f.async_commits);
            add("ext4.journal_bytes", f.journal_bytes);
            add("ext4.bytes_written_back", f.bytes_written_back);
            add("ext4.bytes_buffered", f.bytes_buffered);
            let io = db.fs().io_stats();
            add("ssd.bytes_written", io.bytes_written);
            add("ssd.bytes_read", io.bytes_read);
            add("ssd.write_commands", io.write_commands);
            add("ssd.read_commands", io.read_commands);
            add("ssd.flush_commands", io.flush_commands);
            add("ssd.busy_ns", db.fs().device_busy_time().as_nanos());
        });
        add("end.core.levels", levels_populated as u64);
        // Busiest shard's writes over the mean shard's, in thousandths.
        let busiest = shard_writes.iter().max().copied().unwrap_or(0) * 1000;
        let total: u64 = shard_writes.iter().sum();
        add("end.store.skew_permille", busiest * shard_writes.len() as u64 / total.max(1));
        if let Stack::Server(core) = self {
            let core = core.borrow();
            let st = core.store().stats();
            add("store.groups", st.groups);
            add("store.batches", st.batches);
            add("store.merged_bytes", st.merged_bytes);
            // The serving core exposes its counters as INFO text only. A
            // renamed key must not read as a silent zero.
            let info = core.info_text();
            let field = |name: &str| -> u64 {
                let value = info.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(':'));
                let value = value.and_then(|v| v.parse().ok());
                value.unwrap_or_else(|| panic!("INFO has no counter `{name}`"))
            };
            for class in ["requests_read", "requests_write", "requests_control", "requests_scan"] {
                add("server.requests", field(class));
            }
            add("server.scan_pages", field("requests_scan"));
            add("server.busy_rejects", field("busy_rejections"));
            add("server.cursors_expired", field("cursors_expired"));
        }
        c
    }
}

/// The engines a crash left behind (see [`Stack::crashed`]).
pub struct Crashed {
    shards: Vec<Db>,
    router: Option<SharedCore>,
}

impl Crashed {
    /// Point read on the recovered engine owning `key`.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let shard = self.router.as_ref().map_or(0, |core| core.borrow().store().shard_of(key));
        self.shards[shard].get(&ReadOptions::default(), key).expect("read after recovery")
    }

    /// Rows alive across the recovered engines.
    pub fn rows(&mut self) -> u64 {
        let (ropts, sopts) = (ReadOptions::default(), ScanOptions::all().counting());
        self.shards.iter_mut().map(|db| db.scan(&ropts, &sopts).expect("full scan").count).sum()
    }
}

/// `after − before` for running totals; `end.*` levels pass through
/// from `after`.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(&name, &v)| {
            let base =
                if name.starts_with("end.") { 0 } else { before.get(name).copied().unwrap_or(0) };
            (name, v - base)
        })
        .collect()
}
