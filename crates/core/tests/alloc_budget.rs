//! An allocation budget for the write pipeline, so per-entry heap traffic
//! cannot creep back unnoticed: a one-entry `Db::write`, a memtable flush
//! and an L0→L1 major compaction over 10 000 × 128 B entries must each stay
//! under a stated number of allocations *per entry*.
//!
//! The budgets are the counts measured when this test was written plus a
//! quarter: 3.01 per one-entry write (the batch's entry list, its WAL
//! payload, its WAL record, and now and then an arena doubling), 0.011 per
//! flushed entry (the table image and the builder's buffers growing) and
//! 0.158 per merged entry (reading and parsing one 4 KiB input block per 28
//! entries). One `to_vec` per entry in the flush or merge loop adds 1.0 to
//! the last two and fails the test; the counts are exact, so the same
//! binary gives the same numbers on every run.
//!
//! The counter is this test binary's own `#[global_allocator]`, and the one
//! test function keeps the harness from running anything beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{Db, Options, SyncMode, WriteBatch, WriteOptions};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic
// (Relaxed) and publishes no other memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / ENTRIES as f64
}

#[test]
fn write_flush_and_major_stay_inside_their_allocation_budgets() {
    // One memtable holds all the entries, so the flush and the major each
    // see exactly ENTRIES of them; with two levels `compact_range` is one
    // L0→L1 major and nothing after it.
    let opts = Options { write_buffer_size: 8 << 20, max_levels: 2, ..Options::default() }
        .with_sync_mode(SyncMode::NobLsm);
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut db = Db::open(fs, "db", opts, Nanos::ZERO).expect("fresh database");

    // Batches are the caller's; only `Db::write` itself is on the budget.
    let wopts = WriteOptions::buffered();
    let value = [0x5au8; 128];
    let mut batches: Vec<WriteBatch> = (0..ENTRIES)
        .map(|i| {
            let mut b = WriteBatch::new();
            b.put(
                format!("user{:012}", i.wrapping_mul(0x9e37_79b9) % 1_000_000_007).as_bytes(),
                &value,
            );
            b
        })
        .collect();
    let write = allocs_per_entry(|| {
        for batch in batches.drain(..) {
            db.write(&wopts, batch).expect("write");
        }
    });

    let mut now = db.clock().now();
    let flush = allocs_per_entry(|| now = db.flush(now).expect("flush"));
    assert_eq!(db.level_file_counts()[0], 1, "the flush made one L0 table");

    let major = allocs_per_entry(|| now = db.compact_range(now, None, None).expect("compact"));
    assert_eq!(db.level_file_counts()[0], 0, "the major moved it down");
    assert_eq!(db.stats().major_compactions, 1);

    eprintln!("allocations per entry: write {write:.4}, flush {flush:.4}, major {major:.4}");
    assert!(write <= 3.8, "Db::write: {write:.4} allocations per entry");
    assert!(flush <= 0.014, "memtable flush: {flush:.4} allocations per entry");
    assert!(major <= 0.2, "L0→L1 major: {major:.4} allocations per entry");
}
