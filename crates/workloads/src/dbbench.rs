//! LevelDB's `db_bench` micro-benchmarks (§5.2 of the paper).

use nob_sim::Nanos;
use noblsm::{Db, Result};

use crate::keys::{key, shuffled, value};
use crate::Report;

/// Randomly puts `n` fresh KV pairs (`fillrandom`).
///
/// # Errors
///
/// Propagates engine errors.
pub fn fillrandom(
    db: &mut Db,
    n: u64,
    value_size: usize,
    seed: u64,
    start: Nanos,
) -> Result<Report> {
    put_each(db, "fillrandom", shuffled(n, seed), value_size, 0, start)
}

/// Randomly overwrites the `n` existing KV pairs (`overwrite`).
///
/// # Errors
///
/// Propagates engine errors.
pub fn overwrite(
    db: &mut Db,
    n: u64,
    value_size: usize,
    seed: u64,
    start: Nanos,
) -> Result<Report> {
    put_each(db, "overwrite", shuffled(n, seed ^ 0xdead_beef), value_size, 1, start)
}

/// The single-threaded write driver behind the fills, `overwrite` and
/// YCSB's Load phases: puts `keys` one after another, each with its value
/// of `round`. It starts no earlier than the engine's clock, so a run
/// started at zero on a freshly opened engine writes first at the open's
/// end.
pub(crate) fn put_each(
    db: &mut Db,
    name: &str,
    keys: impl IntoIterator<Item = u64>,
    value_size: usize,
    round: u64,
    start: Nanos,
) -> Result<Report> {
    let (mut ops, mut now) = (0, start.max(db.clock().now()));
    for k in keys {
        now = crate::put_at(db, now, &key(k), &value(k, round, value_size))?;
        ops += 1;
    }
    Ok(Report {
        name: name.to_string(),
        ops,
        started: start,
        finished: now,
        total_latency: now - start,
        threads: 1,
    })
}

/// Sequentially iterates every live KV pair (`readseq`). The reported
/// operation count is the number of entries visited.
///
/// # Errors
///
/// Propagates engine errors.
pub fn readseq(db: &mut Db, start: Nanos) -> Result<Report> {
    let mut it = db.iter_at(start)?;
    it.seek_to_first()?;
    let mut ops = 0u64;
    while it.valid() {
        ops += 1;
        it.next()?;
    }
    let finished = it.now();
    Ok(Report {
        name: "readseq".to_string(),
        ops,
        started: start,
        finished,
        total_latency: finished - start,
        threads: 1,
    })
}

/// Randomly reads `n` existing keys (`readrandom`) out of a keyspace of
/// `records`.
///
/// # Errors
///
/// Propagates engine errors.
pub fn readrandom(db: &mut Db, n: u64, records: u64, seed: u64, start: Nanos) -> Result<Report> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut now = start;
    let mut found = 0u64;
    for _ in 0..n {
        let k = rng.gen_range(0..records);
        let (got, t) = db.get_at_time(now, &key(k))?;
        now = t;
        if got.is_some() {
            found += 1;
        }
    }
    debug_assert!(found * 10 >= n * 9, "readrandom should mostly hit ({found}/{n})");
    Ok(Report {
        name: "readrandom".to_string(),
        ops: n,
        started: start,
        finished: now,
        total_latency: now - start,
        threads: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nob_ext4::{Ext4Config, Ext4Fs};
    use noblsm::Options;

    fn small_db() -> Db {
        let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20));
        let mut opts = Options::default().with_table_size(32 << 10);
        opts.level1_max_bytes = 128 << 10;
        Db::open(fs, "db", opts, Nanos::ZERO).unwrap()
    }

    #[test]
    fn fillrandom_then_readrandom_hits_everything() {
        let mut db = small_db();
        let r = fillrandom(&mut db, 2000, 100, 1, Nanos::ZERO).unwrap();
        assert_eq!(r.ops, 2000);
        assert!(r.finished > r.started);
        let rr = readrandom(&mut db, 500, 2000, 2, r.finished).unwrap();
        assert_eq!(rr.ops, 500);
        assert!(rr.mean_us_per_op() > 0.0);
    }

    #[test]
    fn overwrite_changes_values() {
        let mut db = small_db();
        let r1 = fillrandom(&mut db, 500, 64, 1, Nanos::ZERO).unwrap();
        let r2 = overwrite(&mut db, 500, 64, 1, r1.finished).unwrap();
        let (got, _) = db.get_at_time(r2.finished, &key(42)).unwrap();
        assert_eq!(got, Some(value(42, 1, 64)), "overwrite round visible");
    }

    #[test]
    fn a_run_from_zero_on_a_fresh_engine_writes_first_at_the_open_end() {
        let mut db = small_db();
        let opened = db.clock().now();
        assert!(opened > Nanos::ZERO, "opening a database takes virtual time");
        let r = fillrandom(&mut db, 1, 100, 1, Nanos::ZERO).unwrap();
        // The same write, issued at the open's end on a twin engine.
        let mut twin = small_db();
        let k = shuffled(1, 1)[0];
        let end = crate::put_at(&mut twin, opened, &key(k), &value(k, 0, 100)).unwrap();
        assert_eq!(r.finished, end, "the first write starts at the open's end, not at zero");
        assert_eq!(r.started, Nanos::ZERO);
    }

    #[test]
    fn readseq_visits_each_key_once() {
        let mut db = small_db();
        let r1 = fillrandom(&mut db, 1500, 64, 1, Nanos::ZERO).unwrap();
        let r2 = overwrite(&mut db, 1500, 64, 9, r1.finished).unwrap();
        let rs = readseq(&mut db, r2.finished).unwrap();
        assert_eq!(rs.ops, 1500, "duplicates must not be double counted");
    }
}
