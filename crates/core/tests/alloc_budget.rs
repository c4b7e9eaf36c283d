//! An allocation budget for the write pipeline and the read path, so
//! per-entry heap traffic cannot creep back unnoticed: a one-entry
//! `Db::write`, a memtable flush and a major compaction over 10 000 × 128 B
//! entries (the mean of the one-table majors a full `compact_range` runs,
//! one per level) must each stay under a stated number of allocations *per
//! entry* (the flush and the major under a number of bytes too), and so
//! must a `Db::get` that misses the block cache (in allocations and in
//! bytes), one that hits, one the bloom filter rejects, a forward-scanned
//! row and an iterator's construction plus seek, all against the one-level
//! tree the majors leave; all but the first with its blocks cached.
//!
//! The write budgets are the counts measured when they were written plus a
//! quarter: 1.01 per one-entry write (its WAL record, and now and then an
//! arena doubling; 3.01 while a batch was a list of owned entries that
//! `Db::write` collected and encoded into a payload first — one `to_vec` per
//! entry, or a second encode of the payload, adds 1.0 and fails the test),
//! 0.011 per flushed entry (the table image and the builder's buffers
//! growing; 0.009 since the image is reserved once) and 0.158 per merged
//! entry (reading and parsing one 4 KiB input block per 28 entries; 0.086
//! since blocks keep their restart array in place and a table iterator
//! keeps one block iterator; 0.084 since the image is reserved once; 0.048
//! since a block read views the file's bytes instead of copying them). One
//! `to_vec` per entry in the flush or merge loop adds 1.0 to the last two
//! and fails the test.
//!
//! The flush and the major also have a budget of bytes requested per entry
//! (an allocation's size, or a growing realloc's new size; a shrinking one
//! hands bytes back), measured plus a quarter. Measured here / at the
//! parent of the change that added them: 245.1 / 593.4 per flushed entry
//! and 254.8 / 752.0 per merged entry (403.7 before block reads stopped
//! copying the ≈ 155 bytes per entry of input blocks out of the file). Most
//! of what is left is the table image, reserved once at the table size plus
//! a sixteenth and a block (223 per entry). At the parent the image grew by
//! doubling and the file copied it; either alone fails both budgets (an
//! image that doubles: 533.0 / 691.7; a file that copies: 394.7 / 553.4).
//!
//! The read budgets are likewise measured plus a quarter. Measured here /
//! at the parent of the change that added them (PR 17): 3.00 / 7.00 per GET
//! hit (the value, and the key buffers of the index and data block
//! iterators; before, also a heap lookup key, two per-level candidate
//! vectors and a copy of the found key), 0.017 / 3.02 per bloom-rejected
//! GET (what is left is the filter's false positives), 0.0006 / 2.04 per
//! scanned row through a sink that copies nothing (at the parent: a
//! counting `Db::scan`, which copied key and value out of the block only to
//! count them) and 6 / 10 per iterator construction + seek (two child lists
//! — the memtable children, and since PR 22 the table-side ones a cursor
//! can keep, apart — the boxed memtable child, the seek probe and the key
//! buffers of the index and data block iterators; before, also the cloned
//! level, its cold remainder and a copy each of the surfaced key and
//! value; 7 since the merge keeps its loser tree in one vector of its own,
//! and a second one would fail the budget). A GET that misses the block
//! cache: 4.00 allocations and 233.3 bytes here (the parsed block, the
//! value, the key buffers of the index and data block iterators), 5.00 and
//! 4 354.4 at the parent of the change that added it, which copied each ≈ 4
//! KiB block out of the file; its allocation budget is rounded down to 5.0.
//!
//! A `Db::tick` at which no grid instant is due allocates no more with a
//! scoped metrics hub installed than with none: 0 and 0 here; 0 and 98 at
//! the parent of the change that added the check, where every tick pushed
//! its 47 engine values to the hub in a fresh vector and, under a scope,
//! formatted a prefixed name for each.
//!
//! The counts are exact, so the same binary gives the same numbers on every
//! run.
//!
//! The counters are this test binary's own `#[global_allocator]`, and the one
//! test function keeps the harness from running anything beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_metrics::MetricsHub;
use nob_sim::Nanos;
use noblsm::{Db, Options, ReadOptions, ScanOptions, SyncMode, WriteBatch, WriteOptions};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (Relaxed) and publish no other memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // A growing realloc requests its new size; a shrinking one is
        // served in place and hands bytes back.
        if new_size > layout.size() {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ENTRIES: u64 = 10_000;

/// Allocations made while `f` runs, per entry.
fn allocs_per_entry(f: impl FnOnce()) -> f64 {
    per_entry(f).0
}

/// Allocations made and bytes requested while `f` runs, per entry.
fn per_entry(f: impl FnOnce()) -> (f64, f64) {
    let (allocs, bytes) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    f();
    let per = |counter: &AtomicU64, before: u64| {
        (counter.load(Ordering::Relaxed) - before) as f64 / ENTRIES as f64
    };
    (per(&ALLOCS, allocs), per(&BYTES, bytes))
}

fn user_key(i: u64) -> Vec<u8> {
    format!("user{:012}", i.wrapping_mul(0x9e37_79b9) % 1_000_000_007).into_bytes()
}

#[test]
fn write_flush_and_major_stay_inside_their_allocation_budgets() {
    // One memtable holds all the entries, so the flush and every major
    // see exactly ENTRIES of them: `compact_range` moves the one table
    // down a level at a time, one major per level, to the last level.
    let opts = Options { write_buffer_size: 8 << 20, ..Options::default() }
        .with_sync_mode(SyncMode::NobLsm);
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut db = Db::open(fs, "db", opts, Nanos::ZERO).expect("fresh database");

    // Batches are the caller's; only `Db::write` itself is on the budget.
    let wopts = WriteOptions::buffered();
    let value = [0x5au8; 128];
    let mut batches: Vec<WriteBatch> = (0..ENTRIES)
        .map(|i| {
            let mut b = WriteBatch::new();
            b.put(&user_key(i), &value);
            b
        })
        .collect();
    let write = allocs_per_entry(|| {
        for batch in batches.drain(..) {
            db.write(&wopts, batch).expect("write");
        }
    });

    let (flush, flush_bytes) = per_entry(|| {
        db.flush().expect("flush");
    });
    assert_eq!(db.level_file_counts()[0], 1, "the flush made one L0 table");

    let now = db.clock().now();
    let (majors, majors_bytes) = per_entry(|| {
        db.compact_range(now, None, None).expect("compact");
    });
    let levels = db.level_file_counts();
    assert_eq!(levels.iter().sum::<usize>(), 1, "the majors moved it down: {levels:?}");
    assert_eq!(levels.last(), Some(&1), "to the last level: {levels:?}");
    // Each level's major merges every entry once.
    let merges = db.stats().major_compactions as f64;
    assert_eq!(merges as usize, levels.len() - 1);
    let (major, major_bytes) = (majors / merges, majors_bytes / merges);

    eprintln!("allocations per entry: write {write:.4}, flush {flush:.4}, major {major:.4}");
    eprintln!("bytes requested per entry: flush {flush_bytes:.1}, major {major_bytes:.1}");
    assert!(write <= 1.26, "Db::write: {write:.4} allocations per entry");
    assert!(flush <= 0.014, "memtable flush: {flush:.4} allocations per entry");
    assert!(major <= 0.061, "major: {major:.4} allocations per entry");
    assert!(flush_bytes <= 306.0, "memtable flush: {flush_bytes:.1} bytes per entry");
    assert!(major_bytes <= 319.0, "major: {major_bytes:.1} bytes per entry");

    // Reads, against the one-level tree the majors left. The keys are the
    // caller's. After the GETs that miss the block cache, one pass over
    // everything, so every block the later timed passes touch is in the
    // block cache and a block load is not counted as a read's own
    // allocation.
    let ropts = ReadOptions::default();
    let present: Vec<Vec<u8>> = (0..ENTRIES).map(user_key).collect();
    // Same length, same range, in no table: the bloom filter's business.
    let absent: Vec<Vec<u8>> = present.iter().map(|k| [&k[..15], b"x"].concat()).collect();

    // GETs that miss the block cache, and leave it as they found it: each
    // one reads its data block out of the file.
    let cold = ReadOptions::default().without_fill_cache();
    let mut hits = 0;
    let (get_miss, get_miss_bytes) = per_entry(|| {
        for key in &present {
            hits += u64::from(db.get(&cold, key).expect("get").is_some());
        }
    });
    assert_eq!(hits, ENTRIES);

    db.scan_with(&ropts, &ScanOptions::all(), |_, _| {}).expect("warm the block cache");

    hits = 0;
    let get_hit = allocs_per_entry(|| {
        for key in &present {
            hits += u64::from(db.get(&ropts, key).expect("get").is_some());
        }
    });
    assert_eq!(hits, ENTRIES);
    let get_absent = allocs_per_entry(|| {
        for key in &absent {
            hits += u64::from(db.get(&ropts, key).expect("get").is_some());
        }
    });
    assert_eq!(hits, ENTRIES, "no absent key may be found");

    let mut bytes = 0;
    let scan_row = allocs_per_entry(|| {
        let page = db
            .scan_with(&ropts, &ScanOptions::all(), |k, v| bytes += k.len() + v.len())
            .expect("scan");
        assert_eq!(page.count, ENTRIES);
    });
    assert_eq!(bytes as u64, ENTRIES * (16 + 128));

    let seek = allocs_per_entry(|| {
        for key in &present {
            let mut it = db.iter(&ropts).expect("iterator");
            it.seek(key).expect("seek");
            assert_eq!(it.key(), key.as_slice());
        }
    });

    eprintln!(
        "allocations: GET hit {get_hit:.4}, GET absent {get_absent:.4}, \
         scanned row {scan_row:.4}, iterator + seek {seek:.4}, \
         GET miss {get_miss:.4} ({get_miss_bytes:.1} bytes)"
    );
    assert!(get_miss <= 5.0, "Db::get, cache miss: {get_miss:.4} allocations");
    assert!(get_miss_bytes <= 292.0, "Db::get, cache miss: {get_miss_bytes:.1} bytes");
    assert!(get_hit <= 3.75, "Db::get, hit: {get_hit:.4} allocations");
    assert!(get_absent <= 0.022, "Db::get, bloom-rejected: {get_absent:.4} allocations");
    assert!(scan_row <= 0.0008, "Db::scan_with: {scan_row:.4} allocations per row");
    assert!(seek <= 7.5, "Db::iter + seek: {seek:.4} allocations");

    // A tick at which no grid instant is due: a scoped hub adds nothing
    // to what the same tick allocates with no hub. The first tick drains
    // whatever was due, and the hub's first tick anchors its grid.
    let idle_tick = |db: &mut Db| {
        let before = ALLOCS.load(Ordering::Relaxed);
        db.tick().expect("tick");
        ALLOCS.load(Ordering::Relaxed) - before
    };
    idle_tick(&mut db);
    let bare = idle_tick(&mut db);
    let hub = MetricsHub::new();
    db.set_metrics_hub(hub.scoped("shard0."));
    idle_tick(&mut db);
    let sampled = idle_tick(&mut db);
    assert_eq!(hub.samples(), 1, "only the anchoring tick took an instant");
    eprintln!("allocations per idle tick: no hub {bare}, scoped hub {sampled}");
    assert!(sampled <= bare, "an idle tick with a hub: {sampled} allocations, {bare} without");
}
