//! An allocation budget for `Ext4Fs::crashed_view`: rebuilding the disk a
//! power cut leaves must cost what its number of files costs, not what
//! their bytes do. A view of 16 settled files of 512 KiB each may request
//! at most the bytes measured when the budget was written plus a quarter.
//!
//! Measured here: 22 268 bytes in 109 allocations (the fresh filesystem,
//! the view's inode and name maps, and each inode's path and its persist
//! and commit events; every file's bytes are shared with the filesystem
//! the view was cut from). At the parent of the change that added the
//! budget, which copied every surviving file into the view: 8 411 516
//! bytes in 141 allocations, the 8 MiB of the files, a new `Arc` for each
//! and the same bookkeeping.
//!
//! The counters are this test binary's own `#[global_allocator]`, and the
//! one test function keeps the harness from running anything beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;

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

const FILES: usize = 16;
const FILE_BYTES: usize = 512 << 10;
/// 22 268 bytes measured, plus a quarter.
const BUDGET_BYTES: u64 = 27_835;

#[test]
fn a_crash_view_allocates_for_its_files_not_their_bytes() {
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut now = Nanos::ZERO;
    for i in 0..FILES {
        let h = fs.create(&format!("{i:06}.ldb"), now).unwrap();
        now = fs.append(h, vec![i as u8; FILE_BYTES], now).unwrap();
        now = fs.fsync(h, now).unwrap();
    }

    let (allocs, bytes) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let view = fs.crashed_view(now);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;

    assert_eq!(view.list("").len(), FILES, "the view lost a settled file");
    assert!(
        bytes <= BUDGET_BYTES,
        "crashed_view requested {bytes} bytes in {allocs} allocations for {FILES} files, over \
         its budget of {BUDGET_BYTES}: did it copy a file it could share?"
    );
}
