//! A paged scan that keeps its place. `Store::scan_at_with` hands the
//! shards' iterators back when a page stops at its limit and continues
//! them on the next page if their shard is still on the version they read
//! (`Db::iter_resume`: validate, don't pin). Whatever happens between two
//! pages — writes, deletes, a flush, a manual compaction, a memtable
//! switch — the pages put end to end are the pinned view, and a page that
//! did keep its place reads no block twice.

use std::collections::BTreeMap;

use nob_sim::Nanos;
use nob_store::{Store, StoreOptions};
use noblsm::{
    IterState, Options, ReadOptions, ScanOptions, Snapshot, SyncMode, WriteBatch, WriteOptions,
};
use proptest::prelude::*;

type Rows = Vec<(Vec<u8>, Vec<u8>)>;
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Small tables and a memtable of a few dozen rows, so that a handful of
/// writes switches memtables and compactions apply while a scan is paged.
fn small_db() -> Options {
    let mut o = Options::default().with_sync_mode(SyncMode::NobLsm).with_table_size(8 << 10);
    o.write_buffer_size = 4 << 10;
    o.level1_max_bytes = 32 << 10;
    o
}

fn open(shards: usize) -> Store {
    Store::open(StoreOptions { shards, db: small_db(), ..StoreOptions::default() }).unwrap()
}

const KEYS: u16 = 400;

fn kname(k: u16) -> Vec<u8> {
    format!("key{k:04}").into_bytes()
}

fn vname(k: u16, v: u16) -> Vec<u8> {
    let mut out = format!("value-{k}-{v}-").into_bytes();
    out.resize(48, b'p');
    out
}

/// Applies `(key, value)` pairs as one-entry batches — one value in seven
/// stands for a deletion — to the store and to the model of its live rows.
fn write(store: &mut Store, model: &mut Model, ops: &[(u16, u16)]) {
    for &(k, v) in ops {
        let mut batch = WriteBatch::new();
        if v % 7 == 0 {
            batch.delete(&kname(k));
            model.remove(&kname(k));
        } else {
            batch.put(&kname(k), &vname(k, v));
            model.insert(kname(k), vname(k, v));
        }
        store.write(&WriteOptions::buffered(), batch).unwrap();
    }
}

fn flush(store: &mut Store, shard: usize) {
    store.shard_db_mut(shard).flush().unwrap();
}

fn compact(store: &mut Store, shard: usize) {
    let db = store.shard_db_mut(shard);
    let now = db.clock().now();
    db.compact_range(now, None, None).unwrap();
}

/// Block-cache misses of every shard together. A scan that does not fill
/// the cache misses once per block it loads.
fn misses(store: &Store) -> u64 {
    (0..store.shards()).map(|i| store.shard_db(i).cache_hit_stats().1).sum()
}

/// Iterators the shards have continued from a held state.
fn resumed(store: &Store) -> u64 {
    (0..store.shards()).map(|i| store.shard_db(i).stats().iters_resumed).sum()
}

/// One page of a paged scan: its rows, the virtual time it took and the
/// blocks it loaded.
#[derive(Debug)]
struct Page {
    rows: Rows,
    took: Nanos,
    blocks: u64,
}

/// Pages through `sopts` by its limit at `snaps`. After every page that
/// stopped at its limit, `between` gets the store, the states the page
/// handed back and the page's index, before the next page is asked for.
fn paged(
    store: &mut Store,
    snaps: &[Snapshot],
    sopts: ScanOptions<'_>,
    mut between: impl FnMut(&mut Store, &mut Vec<IterState>, usize),
) -> Vec<Page> {
    let mut pages = Vec::new();
    let mut held = Vec::new();
    let mut resume: Option<Vec<u8>> = None;
    loop {
        let sopts = ScanOptions { start: resume.as_deref().or(sopts.start), ..sopts };
        let (t0, m0, mut rows) = (store.clock().now(), misses(store), Vec::new());
        let result = store
            .scan_at_with(snaps, &sopts, &mut held, |k, v| rows.push((k.to_vec(), v.to_vec())))
            .expect("a page never fails, whatever became of the files the last one read");
        pages.push(Page { rows, took: store.clock().now() - t0, blocks: misses(store) - m0 });
        let expect_held = if result.resume.is_some() { store.shards() } else { 0 };
        assert_eq!(held.len(), expect_held, "states come back with a resume key, only then");
        match result.resume {
            Some(key) => resume = Some(key),
            None => return pages,
        }
        between(store, &mut held, pages.len() - 1);
    }
}

fn rows_of(pages: &[Page]) -> Rows {
    pages.iter().flat_map(|p| p.rows.iter().cloned()).collect()
}

/// What happens to the store between two pages of a scan.
#[derive(Debug, Clone)]
enum Between {
    Nothing,
    /// Overwrites and deletes; a long run of them switches memtables.
    Writes(Vec<(u16, u16)>),
    Flush(usize),
    Compact(usize),
}

fn between() -> impl Strategy<Value = Between> {
    prop_oneof![
        Just(Between::Nothing),
        proptest::collection::vec((0..KEYS, 0u16..1000), 1..60).prop_map(Between::Writes),
        (0usize..4).prop_map(Between::Flush),
        (0usize..4).prop_map(Between::Compact),
    ]
}

/// An optional bound: `(false, _)` is none.
fn bound() -> impl Strategy<Value = Option<u16>> {
    (any::<bool>(), 0..KEYS).prop_map(|(some, k)| some.then_some(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pages of a scan, with the store changing between them, put end to
    /// end are the one-shot scan at the same snapshots and the rows that
    /// were live when the snapshots were pinned.
    #[test]
    fn pages_put_end_to_end_are_the_pinned_view(
        shards in 1usize..=4,
        limit in 1usize..=64,
        load in proptest::collection::vec((0..KEYS, 0u16..1000), 50..400),
        flushed in 0usize..=400,
        bounds in (bound(), bound(), bound()),
        fill_cache in any::<bool>(),
        script in proptest::collection::vec(between(), 1..10),
    ) {
        let mut store = open(shards);
        let mut model = Model::new();
        // Part of the load reaches tables; the rest lives only in the
        // memtables when the snapshots are pinned.
        let flushed = flushed.min(load.len());
        write(&mut store, &mut model, &load[..flushed]);
        for shard in 0..shards {
            flush(&mut store, shard);
        }
        write(&mut store, &mut model, &load[flushed..]);

        let (from, to) = (bounds.0.map(kname), bounds.1.map(kname));
        let prefix = bounds.2.map(|p| format!("key0{}", p % 4).into_bytes());
        let snaps = store.pin_snapshots();
        let pinned: Rows = model
            .iter()
            .filter(|(k, _)| from.as_ref().is_none_or(|f| *k >= f))
            .filter(|(k, _)| to.as_ref().is_none_or(|t| *k < t))
            .filter(|(k, _)| prefix.as_ref().is_none_or(|p| k.starts_with(p)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();

        let sopts = ScanOptions {
            start: from.as_deref(),
            end: to.as_deref(),
            prefix: prefix.as_deref(),
            limit,
            fill_cache,
            ..ScanOptions::default()
        };
        let pages = paged(&mut store, &snaps, sopts, |store, _, page| {
            match &script[page % script.len()] {
                Between::Nothing => {}
                Between::Writes(ops) => write(store, &mut model, ops),
                Between::Flush(shard) => flush(store, shard % shards),
                Between::Compact(shard) => compact(store, shard % shards),
            }
        });
        prop_assert_eq!(&rows_of(&pages), &pinned);
        let whole = ScanOptions { limit: usize::MAX, ..sopts };
        prop_assert_eq!(store.scan_at(&snaps, &whole).unwrap().rows, pinned);
        store.release_snapshots(snaps);
    }
}

/// Whether `tables_and_memtable` leaves key `k` in the memtable only.
fn memtable_only(k: u16) -> bool {
    k % 20 == 3
}

/// A store whose two shards hold `KEYS` keys in one level of tables and,
/// scattered between them, every twentieth key only in the memtable (too
/// few of them to switch it), and the rows alive in it.
fn tables_and_memtable() -> (Store, Rows) {
    let mut store = open(2);
    let mut model = Model::new();
    let in_tables: Vec<_> = (0..KEYS).filter(|k| !memtable_only(*k)).map(|k| (k, 1)).collect();
    write(&mut store, &mut model, &in_tables);
    for shard in 0..2 {
        compact(&mut store, shard);
    }
    let in_memtable: Vec<_> = (0..KEYS).filter(|k| memtable_only(*k)).map(|k| (k, 2)).collect();
    write(&mut store, &mut model, &in_memtable);
    (store, model.into_iter().collect())
}

/// A paged scan of everything that bypasses the block cache, as the
/// server's do.
fn by(limit: usize) -> ScanOptions<'static> {
    ScanOptions::all().with_limit(limit).without_fill_cache()
}

#[test]
fn rows_only_a_memtable_held_at_pin_time_appear_on_continued_pages() {
    let (mut store, alive) = tables_and_memtable();
    let snaps = store.pin_snapshots();
    let pages = paged(&mut store, &snaps, by(7), |_, _, _| {});
    store.release_snapshots(snaps);
    let rows = rows_of(&pages);
    assert_eq!(rows, alive);
    for k in (0..KEYS).filter(|k| memtable_only(*k)) {
        assert!(rows.contains(&(kname(k), vname(k, 2))), "key {k} lived only in a memtable");
    }
    // Nothing changed a version, so every page after the first continued
    // both shards' iterators.
    assert_eq!(resumed(&store), 2 * (pages.len() as u64 - 1));
}

#[test]
fn a_continued_page_reads_each_block_once_and_costs_less_than_a_reseek() {
    let scan = |limit: usize, reseek: bool| {
        let (mut store, _) = tables_and_memtable();
        let snaps = store.pin_snapshots();
        let pages = paged(&mut store, &snaps, by(limit), |_, held, _| {
            if reseek {
                held.clear();
            }
        });
        (pages, resumed(&store))
    };
    let (whole, _) = scan(usize::MAX, false);
    let (kept, kept_resumed) = scan(16, false);
    let (resought, resought_resumed) = scan(16, true);
    assert_eq!(rows_of(&kept), rows_of(&whole));
    assert_eq!(rows_of(&resought), rows_of(&whole));
    assert!(kept.len() > 10 && kept.len() == resought.len());
    let reseeks = kept.len() as u64 - 1;
    assert_eq!((kept_resumed, resought_resumed), (2 * reseeks, 0));

    // The pages of a scan that keeps its place cross every block once, as
    // the one-shot scan does; one that re-seeks loads the block each
    // shard's level iterator rested on again, page after page (until the
    // shard has no rows left).
    let blocks = |pages: &[Page]| pages.iter().map(|p| p.blocks).sum::<u64>();
    assert_eq!(blocks(&kept), blocks(&whole));
    assert!(blocks(&resought) > blocks(&whole) + reseeks, "{resought:?}");
    assert!(blocks(&resought) <= blocks(&whole) + 2 * reseeks, "{resought:?}");
    // The first page is the same page either way; every later one is
    // cheaper for not reading that block.
    assert_eq!(kept[0].took, resought[0].took);
    for (i, (k, r)) in kept.iter().zip(&resought).enumerate().skip(1) {
        assert!(k.blocks <= r.blocks && k.took < r.took, "page {i}: kept {k:?}, re-sought {r:?}");
    }
}

#[test]
fn a_page_resumed_on_a_new_version_is_a_reseek_in_rows_and_in_cost() {
    for compacted in [false, true] {
        // Two stores in step: one offers its held states, one never does.
        let scan = |offer: bool| {
            let (mut store, alive) = tables_and_memtable();
            let snaps = store.pin_snapshots();
            let pages = paged(&mut store, &snaps, by(40), |store, held, _| {
                // Every shard moves to a new version between two pages: its
                // memtable reaches L0, or its tree is rewritten and the
                // files the held iterators had open are deleted.
                let after_pin: Vec<_> = (0..16).map(|k| (k, 5)).collect();
                write(store, &mut Model::new(), &after_pin);
                for shard in 0..2 {
                    if compacted {
                        compact(store, shard);
                    } else {
                        flush(store, shard);
                    }
                }
                if !offer {
                    held.clear();
                }
            });
            assert_eq!(rows_of(&pages), alive, "compacted: {compacted}, offers: {offer}");
            (store.clock().now(), misses(&store), resumed(&store))
        };
        let (offers, reseeks) = (scan(true), scan(false));
        assert_eq!(offers, reseeks, "a stale state must cost exactly a re-seek");
        assert_eq!(offers.2, 0, "no state outlives the version it read");
    }
}

/// ROADMAP 4(c): `fill_cache` decides what a read puts into the cache, not
/// whether it looks there first.
#[test]
fn a_block_a_get_cached_is_a_hit_for_a_scan_that_fills_nothing() {
    let mut store = open(1);
    write(&mut store, &mut Model::new(), &(0..40).map(|k| (k, 1)).collect::<Vec<_>>());
    compact(&mut store, 0);
    assert!(store.get(&ReadOptions::default(), &kname(0)).unwrap().is_some());
    let (hits, missed) = store.shard_db(0).cache_hit_stats();
    let first_row = ScanOptions::range(b"key0000", b"key0001").without_fill_cache();
    assert_eq!(store.scan(&ReadOptions::default(), &first_row).unwrap().count, 1);
    assert_eq!(store.shard_db(0).cache_hit_stats(), (hits + 1, missed));
}
