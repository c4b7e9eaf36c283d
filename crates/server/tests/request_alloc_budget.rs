//! An allocation budget for the serving path: requests fed to a
//! `ServerCore` connection, executed, group-committed and answered, so a
//! copy added anywhere between the wire and the reply bytes shows up here
//! and not first as a drift in a benchmark's allocation counters.
//!
//! Each round pipelines `K` SETs of 16 B keys and 128 B values, then a GET
//! of each key, into one connection of a two-shard store with synced
//! writes, then calls `flush` and takes the connection's output — the
//! three entry points both transports drive. The requests' wire bytes are
//! encoded before counting; what is counted is the server's whole share:
//! decoding, parsing, admission, the write batches, group commit with its
//! WAL and journal work, the reads and the reply bytes.
//!
//! Measured when the budget was written: 2 749 allocations for 256
//! requests, 10.74 per request. The budget is that count plus a quarter of
//! an allocation per request, so one more allocation for either request
//! kind (half the requests) fails it. The counts are exact, so the same
//! binary gives the same numbers on every run.
//!
//! The counter is this test binary's own `#[global_allocator]`, and the
//! one test function keeps the harness from running anything beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nob_server::{Decoder, Endpoint, Frame, Request, ServerCore, ServerOptions};
use nob_store::StoreOptions;
use noblsm::WriteOptions;

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

/// SETs per round, and as many GETs: the round's 2·K replies fit the
/// default per-connection pipeline of 128.
const K: u64 = 32;
const ROUNDS: u64 = 4;
/// Allocations per request measured when the budget was written.
const MEASURED: f64 = 10.74;

fn key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// One round's requests as the wire bytes a client sends.
fn round(r: u64) -> Vec<u8> {
    let keys = (r * K..(r + 1) * K).map(key);
    let sets = keys.clone().map(|k| Request::Set(k, vec![0xa5; 128]));
    let mut wire = Vec::new();
    for req in sets.chain(keys.map(Request::Get)) {
        req.to_frame().encode(&mut wire);
    }
    wire
}

#[test]
fn a_request_stays_inside_its_allocation_budget() {
    let opts = ServerOptions {
        store: StoreOptions { shards: 2, ..StoreOptions::default() },
        write: WriteOptions::synced(),
        ..ServerOptions::default()
    };
    let mut core = ServerCore::open(opts).expect("server");
    let conn = core.connect();
    let mut serve = |wire: &[u8]| {
        core.feed(conn, wire).expect("feed");
        core.flush().expect("flush");
        core.drain(conn).expect("drain")
    };

    // Warm what a long-lived connection has warm: its decoder and reply
    // queue, the store's group buffers.
    serve(&round(ROUNDS));

    let wires: Vec<Vec<u8>> = (0..ROUNDS).map(round).collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    let replies: Vec<Vec<u8>> = wires.iter().map(|w| serve(w)).collect();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    for out in &replies {
        let mut decoder = Decoder::new();
        decoder.push(out);
        let frames: Vec<Frame> =
            std::iter::from_fn(|| decoder.next_frame().expect("reply frame")).collect();
        assert_eq!(frames.len() as u64, 2 * K, "one reply per request");
        assert!(frames[..K as usize].iter().all(|f| *f == Frame::ok()), "{frames:?}");
        assert!(frames[K as usize..].iter().all(|f| *f == Frame::Bulk(vec![0xa5; 128])));
    }
    let requests = 2 * K * ROUNDS;
    let per_request = allocs as f64 / requests as f64;
    eprintln!("allocations: {allocs} for {requests} requests, {per_request:.3} per request");
    assert!(
        per_request <= MEASURED + 0.25,
        "{per_request:.3} allocations per request, over the budget of {MEASURED} + 0.25"
    );
}
