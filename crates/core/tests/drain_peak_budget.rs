//! A peak-memory budget for a drain: how far the live heap rises while
//! `Db::compact_range` pushes a loaded NobLSM tree to one level.
//!
//! NobLSM keeps a compaction's inputs as shadows until Ext4 has committed
//! their successors, then deletes them, and the simulated disk keeps a
//! deleted table's bytes until the crash horizon passes its durable
//! deletion. A drain moves the shared clock to each instant it reaches and
//! the pump raises the horizon once what is due there is applied, so a
//! table deleted early in `compact_range` is forgotten while the drain
//! goes on.
//!
//! The engine is small — 32 KiB tables, a 50 ms journal commit interval
//! and a 20 ms reclamation poll — so that one `compact_range` (≈ 0.45 s of
//! virtual time) spans several commits and many reclamation rounds. Before
//! it, the clock steps through one second so that what the load deleted is
//! forgotten. The rise of the live heap's high-water mark over the call
//! may be at most the bytes measured when the budget was written plus a
//! quarter. Measured here: 6 498 648 bytes. With the horizon raised before
//! the pump applied anything and the clock moved only at each drain's end,
//! every table deleted inside one drain stayed in memory until it was
//! over: 11 694 081 bytes, which fails the budget.
//!
//! The counters are this test binary's own `#[global_allocator]`, and the
//! one test function keeps the harness from running anything beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{Db, Options, SyncMode, WriteBatch, WriteOptions};

/// Bytes the heap holds now.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(by: u64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (Relaxed) and publish no other memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new > old {
            grow(new - old);
        } else {
            LIVE.fetch_sub(old - new, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u64 = 16_000;
const VALUE_BYTES: usize = 256;
const OVERWRITES: u64 = 3;
/// 6 498 648 bytes measured, plus a quarter.
const BUDGET_BYTES: u64 = 8_123_310;

#[test]
fn compact_range_forgets_what_it_deleted_as_it_goes() {
    let mut cfg = Ext4Config::default().with_page_cache(1 << 20);
    cfg.commit_interval = Nanos::from_millis(50);
    let fs = Ext4Fs::new(cfg);
    let mut opts = Options::default().with_sync_mode(SyncMode::NobLsm).with_table_size(32 << 10);
    opts.level1_max_bytes = 128 << 10;
    opts.block_cache_bytes = 256 << 10;
    opts.reclaim_interval = Nanos::from_millis(20);
    let mut db = Db::open(fs, "db", opts, Nanos::ZERO).unwrap();
    for round in 0..OVERWRITES {
        for i in 0..KEYS {
            let k = (i * 2_654_435_761 + round) % KEYS;
            let mut batch = WriteBatch::new();
            batch.put(format!("key{k:08}").as_bytes(), &[round as u8; VALUE_BYTES]);
            db.write(&WriteOptions::default(), batch).unwrap();
        }
    }
    // Step the clock, so the reclamation polls and journal commits the
    // load left behind run at their own instants: one pump ticks the
    // filesystem to its instant before it applies what is due.
    let mut now = db.wait_idle(db.clock().now()).unwrap();
    for _ in 0..100 {
        now += Nanos::from_millis(10);
        db.clock().advance_to(now);
        db.tick().unwrap();
    }

    let majors = db.stats().major_compactions;
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let end = db.compact_range(now, None, None).unwrap();
    let rise = PEAK.load(Ordering::Relaxed) - before;

    let majors = db.stats().major_compactions - majors;
    eprintln!(
        "compact_range: {majors} majors over {:?} of virtual time; the live heap rose {rise} \
         bytes to its peak",
        end - now
    );
    assert!(majors >= 5, "compact_range must run several majors, ran {majors}");
    assert!(
        rise <= BUDGET_BYTES,
        "compact_range raised the live heap by {rise} bytes, over its budget of {BUDGET_BYTES}: \
         does the disk keep the tables deleted earlier in the drain?"
    );
}
