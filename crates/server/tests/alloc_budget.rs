//! An allocation budget for one SCAN page over the loopback, so the rows
//! of a page cannot go back to being owned several times on their way out:
//! 32 rows of 16 B key + 128 B value (144 B) per page, from a two-shard
//! store whose tables are one level deep. And one for a wire SET of such a
//! row, so a write cannot go back to being one either.
//!
//! Over the loopback `Client::send` runs the server's whole share of a
//! request — decode, scan, encode, queue — and `Client::recv_reply` runs the
//! client's: taking the queued bytes and parsing them into a `Frame`. So
//! the two calls are counted apart.
//!
//! Measured when this test was written (PR 17) / at its parent, per page of
//! 32 rows, and per row from the difference to a page of 64:
//!
//! * server, `SCAN` (opens the cursor): 30 / 192, per row 0.16 / 4.25;
//! * server, `SCAN NEXT`: 29 / 189, per row 0.00 / 4.06;
//! * client: 66 / 144, per row 2.03 / 4.09 — two `Vec`s per row, which
//!   `Frame::Bulk(Vec<u8>)` asks for, the reply's two arrays and, past 64
//!   elements, the inner array's one doubling. (At the parent the reply was
//!   encoded when taken, so two `String`s per row of the server's share
//!   were counted on this side.)
//!
//! Since PR 22 a cursor keeps its shards' iterators, and a `SCAN NEXT` page
//! continues them: 18 allocations (29 before). What is left is two shards'
//! memtable children built and sought afresh (a list, a box and a seek probe
//! each), the blocks the page crosses, the resume key, the request and the
//! reply buffer. The first page still builds both iterator stacks and now
//! parks them: 30, as before — the cursor's state list and each stack's
//! second child list are paid for by table-side children that are no longer
//! boxed and an end bound that is borrowed. A longer page reads more blocks
//! (server scans bypass the block cache): the 0.16.
//!
//! The budgets are the measured counts plus a quarter — 37 for `SCAN`, 22
//! for `SCAN NEXT`, so a `SCAN NEXT` that rebuilt its iterators would fail;
//! the per-row budget is 0.5. The counts are exact, so the same binary gives
//! the same numbers on every run.
//!
//! A wire SET, both ends together (the client's encode and its parse of
//! `+OK`; the server's decode, batch, shard split, group commit with up to
//! seven followers folded in, buffered engine write and reply), measured when
//! its budget was added (PR 18) / at its parent: 15.86 / 21.36 per SET. The
//! 5.5 are the owned key and value of every entry, which the server's
//! batch, the shard split and the group's `extend` each allocated again
//! while a batch was a list of entries. The budget is the measured count
//! plus a quarter, so it fails at the parent.
//!
//! The counter is this test binary's own `#[global_allocator]`, and the one
//! test function keeps the harness from running anything beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nob_server::{Client, Frame, LoopbackTransport, Request, ServerCore, ServerOptions};
use nob_store::StoreOptions;
use noblsm::{WriteBatch, WriteOptions};

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

const ROWS: u64 = 4_000;

/// The value `f` returns and the allocations made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

fn key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Server-side and client-side allocations of one scan request and the
/// reply's cursor.
fn page(client: &mut Client<LoopbackTransport>, req: &Request, rows: usize) -> (u64, u64, u64) {
    let ((), server) = counted(|| client.send(req).expect("send"));
    let (reply, parse) = counted(|| client.recv_reply().expect("reply"));
    let Frame::Array(items) = reply else { panic!("scan reply: {reply:?}") };
    let [Frame::Integer(cursor), Frame::Array(flat)] = items.as_slice() else {
        panic!("scan reply shape: {items:?}")
    };
    assert_eq!(flat.len(), 2 * rows);
    (server, parse, *cursor as u64)
}

#[test]
fn a_scan_page_stays_inside_its_allocation_budget() {
    let opts = ServerOptions {
        store: StoreOptions { shards: 2, ..StoreOptions::default() },
        ..ServerOptions::default()
    };
    let core = nob_server::shared(ServerCore::open(opts).expect("server"));
    {
        let mut core = core.borrow_mut();
        let store = core.store_mut();
        let value = [0x5au8; 128];
        for i in 0..ROWS {
            let mut batch = WriteBatch::new();
            batch.put(&key(i), &value);
            store.write(&WriteOptions::buffered(), batch).expect("load");
        }
        for shard in 0..store.shards() {
            let db = store.shard_db_mut(shard);
            let now = db.clock().now();
            db.compact_range(now, None, None).expect("compact the load");
        }
    }
    let mut client = Client::new(LoopbackTransport::connect(&core));

    // Warm what a long-lived connection has warm: the client's buffers, the
    // server's reply-size hint, the cursor table.
    let open = |first: u64, pages: u64, rows: u64| {
        Request::scan(key(first), key(first + pages * rows), rows)
    };
    let (.., cursor) = page(&mut client, &open(0, 2, 32), 32);
    page(&mut client, &Request::ScanNext(cursor), 32);

    // Pages of 32 and of 64 rows: the difference is 32 rows' worth.
    let (scan32, parse32, cursor) = page(&mut client, &open(1_000, 2, 32), 32);
    let (next32, ..) = page(&mut client, &Request::ScanNext(cursor), 32);
    let (scan64, parse64, cursor) = page(&mut client, &open(2_000, 2, 64), 64);
    let (next64, ..) = page(&mut client, &Request::ScanNext(cursor), 64);

    let per_row = |a32: u64, a64: u64| (a64 as f64 - a32 as f64) / 32.0;
    eprintln!(
        "allocations per page of 32: server SCAN {scan32} ({:.2} per row), \
         SCAN NEXT {next32} ({:.2} per row), client {parse32} ({:.2} per row)",
        per_row(scan32, scan64),
        per_row(next32, next64),
        per_row(parse32, parse64),
    );
    assert!(per_row(scan32, scan64) <= 0.5, "server, SCAN: {scan32} then {scan64}");
    assert!(per_row(next32, next64) <= 0.5, "server, SCAN NEXT: {next32} then {next64}");
    assert!(scan32 <= 37, "server, SCAN page of 32 rows: {scan32} allocations");
    assert!(next32 <= 22, "server, SCAN NEXT page of 32 rows: {next32} allocations");
    // Two per row and the two arrays; the decoder sizes an array for at
    // most 64 elements up front, so 128 of them double it once.
    assert!(parse32 <= 2 * 32 + 2, "client, page of 32 rows: {parse32} allocations");
    assert!(parse64 <= 2 * 64 + 3, "client, page of 64 rows: {parse64} allocations");

    // Wire SETs, eight in the pipeline per round as the ledger's `serve`
    // clients keep them, so group commit has followers to fold in.
    const SETS: u64 = 1_000;
    let value = vec![0xa5u8; 128];
    let sets: Vec<Request> =
        (0..SETS).map(|i| Request::Set(key(ROWS + i), value.clone())).collect();
    let ((), set) = counted(|| {
        for round in sets.chunks(8) {
            for req in round {
                client.send(req).expect("send");
            }
            for _ in round {
                assert_eq!(client.recv_reply().expect("reply"), Frame::ok());
            }
        }
    });
    let per_set = set as f64 / SETS as f64;
    eprintln!("allocations per wire SET, both ends: {per_set:.3}");
    assert!(per_set <= 19.8, "wire SET: {per_set:.3} allocations");
}
