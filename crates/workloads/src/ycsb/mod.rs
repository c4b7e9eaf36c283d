//! YCSB core workloads (§5.3 of the paper).
//!
//! The paper runs, in order: Load-A, A, B, C, F, D, Load-E, E — each
//! operation phase issuing 10 M requests over 50 M 1 KB records (we scale
//! the counts down; the mix and distributions are exact):
//!
//! | Workload | Mix | Distribution |
//! |---|---|---|
//! | A | 50 % read / 50 % update | scrambled zipfian |
//! | B | 95 % read / 5 % update | scrambled zipfian |
//! | C | 100 % read | scrambled zipfian |
//! | D | 95 % read-latest / 5 % insert | latest |
//! | E | 95 % scan / 5 % insert | scrambled zipfian, scan length ~U(1,100) |
//! | F | 50 % read / 50 % read-modify-write | scrambled zipfian |

mod zipfian;

pub use zipfian::{fnv1a, Latest, ScrambledZipfian, Zipfian, ZIPFIAN_CONSTANT};

use nob_sim::Nanos;
use nob_store::Store;
use noblsm::{Db, ReadOptions, Result, ScanOptions, WriteBatch, WriteOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::keys::{key, shuffled, value};
use crate::Report;

/// One of the YCSB core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbWorkload {
    /// 50/50 read/update, zipfian.
    A,
    /// 95/5 read/update, zipfian.
    B,
    /// 100 % read, zipfian.
    C,
    /// 95/5 read-latest/insert.
    D,
    /// 95/5 scan/insert, zipfian.
    E,
    /// 50/50 read/read-modify-write, zipfian.
    F,
}

impl YcsbWorkload {
    /// The paper's run order for the operation phases (Load phases are
    /// driven separately by the harness).
    pub fn paper_order() -> [YcsbWorkload; 6] {
        [
            YcsbWorkload::A,
            YcsbWorkload::B,
            YcsbWorkload::C,
            YcsbWorkload::F,
            YcsbWorkload::D,
            YcsbWorkload::E,
        ]
    }

    /// Workload label, e.g. `"A"`.
    pub fn name(&self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        }
    }
}

impl std::fmt::Display for YcsbWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Loads `records` fresh KV pairs in shuffled order (the Load-A / Load-E
/// phases).
///
/// # Errors
///
/// Propagates engine errors.
pub fn load(
    db: &mut Db,
    records: u64,
    value_size: usize,
    seed: u64,
    start: Nanos,
) -> Result<Report> {
    crate::dbbench::put_each(db, "Load", shuffled(records, seed), value_size, 0, start)
}

/// Runs `ops` requests of `workload` over a database loaded with
/// `records` records, from `threads` simulated client threads.
///
/// Threads interleave in virtual time: at each step the thread with the
/// earliest clock issues the next request. Mean latency is averaged over
/// all requests; the wall time is the latest thread's finish.
///
/// # Errors
///
/// Propagates engine errors.
#[allow(clippy::too_many_arguments)]
pub fn run(
    db: &mut Db,
    workload: YcsbWorkload,
    ops: u64,
    records: u64,
    value_size: usize,
    threads: usize,
    seed: u64,
    start: Nanos,
) -> Result<Report> {
    assert!(threads >= 1, "at least one client thread");
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = ScrambledZipfian::new(records);
    let latest = Latest::new(records);
    let mut record_count = records;
    let mut clocks = vec![start; threads];
    let mut total_latency = Nanos::ZERO;

    for _ in 0..ops {
        // The earliest-clock thread issues the next request.
        let (tid, _) = clocks.iter().enumerate().min_by_key(|(_, c)| **c).expect("threads >= 1");
        let now = clocks[tid];
        let end = match workload {
            YcsbWorkload::A => {
                if rng.gen_bool(0.5) {
                    read(db, &zipf, record_count, &mut rng, now)?
                } else {
                    update(db, &zipf, record_count, value_size, &mut rng, now)?
                }
            }
            YcsbWorkload::B => {
                if rng.gen_bool(0.95) {
                    read(db, &zipf, record_count, &mut rng, now)?
                } else {
                    update(db, &zipf, record_count, value_size, &mut rng, now)?
                }
            }
            YcsbWorkload::C => read(db, &zipf, record_count, &mut rng, now)?,
            YcsbWorkload::D => {
                if rng.gen_bool(0.95) {
                    let k = latest.next(record_count, &mut rng);
                    db.get_at_time(now, &key(k))?.1
                } else {
                    let k = record_count;
                    record_count += 1;
                    crate::put_at(db, now, &key(k), &value(k, 0, value_size))?
                }
            }
            YcsbWorkload::E => {
                if rng.gen_bool(0.95) {
                    let k = zipf.next(&mut rng) % record_count;
                    let len = rng.gen_range(1..=100usize);
                    crate::scan_at(db, now, &key(k), len)?.1
                } else {
                    let k = record_count;
                    record_count += 1;
                    crate::put_at(db, now, &key(k), &value(k, 0, value_size))?
                }
            }
            YcsbWorkload::F => {
                if rng.gen_bool(0.5) {
                    read(db, &zipf, record_count, &mut rng, now)?
                } else {
                    // Read-modify-write.
                    let k = zipf.next(&mut rng) % record_count;
                    let (_, t) = db.get_at_time(now, &key(k))?;
                    crate::put_at(db, t, &key(k), &value(k, 2, value_size))?
                }
            }
        };
        total_latency += end - now;
        clocks[tid] = end;
    }
    let finished = clocks.into_iter().max().expect("threads >= 1");
    Ok(Report {
        name: format!("ycsb-{workload}"),
        ops,
        started: start,
        finished,
        total_latency,
        threads,
    })
}

/// Loads `records` fresh KV pairs into a sharded [`Store`] in shuffled
/// order, each written with `wopts` — the Load-E phase for the
/// store-level workload E run.
///
/// # Errors
///
/// Propagates store and engine errors.
pub fn load_store(
    store: &mut Store,
    wopts: &WriteOptions,
    records: u64,
    value_size: usize,
    seed: u64,
) -> Result<Report> {
    let order = shuffled(records, seed);
    let start = store.clock().now();
    for k in order {
        let mut batch = WriteBatch::new();
        batch.put(&key(k), &value(k, 0, value_size));
        store.write(wopts, batch)?;
    }
    let finished = store.clock().now();
    Ok(Report {
        name: "Load-E/store".to_string(),
        ops: records,
        started: start,
        finished,
        total_latency: finished - start,
        threads: 1,
    })
}

/// Runs workload E end to end against a sharded [`Store`]: every scan
/// (95 %, length ~U(1,100)) goes through the store's snapshot-pinned
/// cross-shard k-way merge ([`Store::scan`]), every insert (5 %) through
/// its group-commit write path with `wopts` — the same request mix as
/// the single-engine [`run`], but exercising the sharded range-query path.
///
/// # Errors
///
/// Propagates store and engine errors.
pub fn run_e_store(
    store: &mut Store,
    wopts: &WriteOptions,
    ops: u64,
    records: u64,
    value_size: usize,
    seed: u64,
) -> Result<Report> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = ScrambledZipfian::new(records);
    let mut record_count = records;
    let start = store.clock().now();
    let mut total_latency = Nanos::ZERO;
    for _ in 0..ops {
        let now = store.clock().now();
        if rng.gen_bool(0.95) {
            let k = zipf.next(&mut rng) % record_count;
            let len = rng.gen_range(1..=100usize);
            let from = key(k);
            let sopts = ScanOptions::starting_at(&from).with_limit(len);
            store.scan(&ReadOptions::default(), &sopts)?;
        } else {
            let k = record_count;
            record_count += 1;
            let mut batch = WriteBatch::new();
            batch.put(&key(k), &value(k, 0, value_size));
            store.write(wopts, batch)?;
        }
        let end = store.clock().now();
        total_latency += end - now;
    }
    let finished = store.clock().now();
    Ok(Report {
        name: "ycsb-E/store".to_string(),
        ops,
        started: start,
        finished,
        total_latency,
        threads: 1,
    })
}

fn read(
    db: &mut Db,
    zipf: &ScrambledZipfian,
    records: u64,
    rng: &mut SmallRng,
    now: Nanos,
) -> Result<Nanos> {
    let k = zipf.next(rng) % records;
    Ok(db.get_at_time(now, &key(k))?.1)
}

fn update(
    db: &mut Db,
    zipf: &ScrambledZipfian,
    records: u64,
    value_size: usize,
    rng: &mut SmallRng,
    now: Nanos,
) -> Result<Nanos> {
    let k = zipf.next(rng) % records;
    crate::put_at(db, now, &key(k), &value(k, 1, value_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nob_ext4::{Ext4Config, Ext4Fs};
    use noblsm::Options;

    fn db_with_records(records: u64) -> (Db, Nanos) {
        let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20));
        let mut opts = Options::default().with_table_size(32 << 10);
        opts.level1_max_bytes = 128 << 10;
        let mut db = Db::open(fs, "db", opts, Nanos::ZERO).unwrap();
        let r = load(&mut db, records, 100, 3, Nanos::ZERO).unwrap();
        (db, r.finished)
    }

    #[test]
    fn all_workloads_run_and_advance_time() {
        let (mut db, t0) = db_with_records(2000);
        let mut now = t0;
        for w in YcsbWorkload::paper_order() {
            let r = run(&mut db, w, 300, 2000, 100, 1, 7, now).unwrap();
            assert_eq!(r.ops, 300, "{w}");
            assert!(r.finished > r.started, "{w} must advance time");
            assert!(r.mean_us_per_op() > 0.0, "{w}");
            now = r.finished;
        }
    }

    #[test]
    fn multithreaded_run_matches_totals_and_speeds_wall() {
        let (mut db, t0) = db_with_records(2000);
        let single = run(&mut db, YcsbWorkload::C, 400, 2000, 100, 1, 5, t0).unwrap();
        let quad = run(&mut db, YcsbWorkload::C, 400, 2000, 100, 4, 5, single.finished).unwrap();
        assert_eq!(quad.ops, single.ops);
        assert_eq!(quad.threads, 4);
        // Read-only work interleaves across threads: wall time shrinks.
        assert!(
            quad.wall() < single.wall(),
            "4-thread wall {} !< 1-thread wall {}",
            quad.wall(),
            single.wall()
        );
    }

    #[test]
    fn workload_d_inserts_grow_the_keyspace() {
        let (mut db, t0) = db_with_records(1000);
        let r = run(&mut db, YcsbWorkload::D, 1000, 1000, 100, 1, 5, t0).unwrap();
        // ~5 % inserts: some keys beyond the initial range must now exist.
        let (got, _) = db.get_at_time(r.finished, &key(1000)).unwrap();
        assert!(got.is_some(), "insert phase must have added key 1000");
    }

    #[test]
    fn workload_e_scans_return_rows() {
        let (mut db, t0) = db_with_records(1000);
        // Direct scan sanity besides the throughput run.
        let (rows, _) = crate::scan_at(&mut db, t0, &key(10), 20).unwrap();
        assert_eq!(rows, 20);
        let r = run(&mut db, YcsbWorkload::E, 200, 1000, 100, 1, 5, t0).unwrap();
        assert_eq!(r.ops, 200);
    }

    #[test]
    fn a_lagging_thread_puts_and_scans_at_its_own_instant() {
        let (mut db, t0) = db_with_records(1000);
        // Another thread's operations pushed the shared clock far ahead.
        let ahead = t0 + Nanos::from_secs(1);
        db.clock().advance_to(ahead);
        let put = crate::put_at(&mut db, t0, &key(7), &value(7, 1, 100)).unwrap();
        assert!(put < ahead, "the put started at the thread's instant, ended {put}");
        let (rows, scan) = crate::scan_at(&mut db, put, &key(10), 20).unwrap();
        assert_eq!(rows, 20);
        assert!(put < scan && scan < ahead, "the scan started at the thread's instant");
        assert_eq!(db.clock().now(), ahead, "the shared clock never moves back");
    }

    #[test]
    fn four_scanning_threads_cost_per_op_what_one_does() {
        // 95 % scans: a thread that lags the shared clock must not wait for
        // it, so four threads each pay about one thread's per-op cost.
        let (mut one, t1) = db_with_records(2000);
        let single = run(&mut one, YcsbWorkload::E, 400, 2000, 100, 1, 5, t1).unwrap();
        let (mut four, t4) = db_with_records(2000);
        let quad = run(&mut four, YcsbWorkload::E, 400, 2000, 100, 4, 5, t4).unwrap();
        let ratio = quad.mean_us_per_op() / single.mean_us_per_op();
        assert!(ratio < 1.5, "4-thread E costs {ratio:.2}× the 1-thread per-op time");
    }

    #[test]
    fn workload_e_runs_against_the_sharded_store() {
        use nob_store::StoreOptions;

        let open = || {
            let mut db = Options::default().with_table_size(32 << 10);
            db.level1_max_bytes = 128 << 10;
            let mut store =
                Store::open(StoreOptions { shards: 4, db, ..StoreOptions::default() }).unwrap();
            let loaded = load_store(&mut store, &WriteOptions::default(), 1000, 100, 3).unwrap();
            assert_eq!(loaded.ops, 1000);
            store
        };
        // The scans must actually merge across shards: a direct probe on
        // its own instance (so the timed runs below stay cache-cold).
        let from = key(10);
        let r = open()
            .scan(&ReadOptions::default(), &ScanOptions::starting_at(&from).with_limit(20))
            .unwrap();
        assert_eq!(r.rows.len(), 20, "dense keyspace over 4 shards");
        let mut store = open();
        let a = run_e_store(&mut store, &WriteOptions::default(), 300, 1000, 100, 7).unwrap();
        assert_eq!(a.ops, 300);
        assert!(a.finished > a.started, "E must advance virtual time");
        // Deterministic under the seed, including the store's clock.
        let b = run_e_store(&mut open(), &WriteOptions::default(), 300, 1000, 100, 7).unwrap();
        assert_eq!(a.total_latency, b.total_latency, "same seed, same virtual time");
        // ~5 % inserts grow the keyspace past the loaded range.
        let probe = key(1000);
        let grown = store
            .scan(&ReadOptions::default(), &ScanOptions::starting_at(&probe).with_limit(1))
            .unwrap();
        assert_eq!(grown.rows.len(), 1, "insert phase must have added key 1000");
    }

    #[test]
    fn deterministic_by_seed() {
        let (mut db1, t0) = db_with_records(1000);
        let a = run(&mut db1, YcsbWorkload::A, 300, 1000, 100, 1, 11, t0).unwrap();
        let (mut db2, t1) = db_with_records(1000);
        let b = run(&mut db2, YcsbWorkload::A, 300, 1000, 100, 1, 11, t1).unwrap();
        assert_eq!(a.total_latency, b.total_latency, "same seed, same virtual time");
    }
}
