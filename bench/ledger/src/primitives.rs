//! Host-clock cost of the primitives each layer is built from, timed in
//! isolation through their public functions. These are the calibration
//! inputs for pricing CPU on the virtual clock (ROADMAP item 4) and the
//! first place to look when `host_ns_per_op` moves: skiplist and WAL on
//! `fill`, bloom and block on `read`, merge on `scan`, codec on `serve`.

use std::hint::black_box;
use std::time::Instant;

use nob_ext4::Ext4Fs;
use nob_server::{Decoder, Frame, Request};
use nob_sim::Nanos;
use nob_trace::{EventClass, TraceSink};
use noblsm::iterator::{InternalIterator, MergingIterator, VecIterator};
use noblsm::memtable::{MemTable, SkipList};
use noblsm::sstable::{Block, BlockBuilder, BloomFilter, TableBuilder};
use noblsm::util::crc32c;
use noblsm::wal::LogWriter;
use noblsm::{InternalKey, ValueType};

use crate::input::{key, value, VALUE_LEN};
use crate::measure::median;
use crate::stack::{engine_options, scale};

/// Median over five passes of the mean host ns of one call of `f`.
fn ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    median(&passes)
}

fn internal(kid: u64) -> Vec<u8> {
    InternalKey::new(&key(kid), kid + 1, ValueType::Value).as_bytes().to_vec()
}

/// Times every primitive; names are per-layer metric names.
pub fn all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let page = vec![0xa5u8; 4096];
    out.push((
        "core.crc32c_4k_host_ns",
        ns_per_call(2_000, || {
            black_box(crc32c(black_box(&page)));
        }),
    ));

    let keys: Vec<Vec<u8>> = (0..10_000).map(key).collect();
    let filter = BloomFilter::build(&keys, 10);
    let mut i = 0;
    out.push((
        "core.bloom_probe_host_ns",
        ns_per_call(100_000, || {
            i = (i + 37) % keys.len();
            black_box(filter.may_contain(&keys[i]));
        }),
    ));

    // A 4 KiB data block of this benchmark's rows (28 × 16 B + 128 B).
    let mut builder = BlockBuilder::new(16);
    let rows: Vec<(Vec<u8>, Vec<u8>)> =
        (0..28).map(|k| (internal(k), value(k, 0, VALUE_LEN))).collect();
    for (k, v) in &rows {
        builder.add(k, v);
    }
    let payload = builder.finish_without_trailer();
    out.push((
        "core.block_parse_4k_host_ns",
        ns_per_call(20_000, || {
            black_box(Block::parse(black_box(payload.clone())).expect("well-formed block"));
        }),
    ));
    let block = Block::parse(payload.clone()).expect("well-formed block");
    let mut i = 0;
    out.push((
        "core.block_seek_host_ns",
        ns_per_call(50_000, || {
            i = (i + 11) % rows.len();
            let mut it = block.iter();
            it.seek(&rows[i].0);
            black_box(it.valid());
        }),
    ));

    let row = value(0, 0, VALUE_LEN);
    let mut list = SkipList::new();
    let mut n = 0u64;
    out.push((
        "core.skiplist_insert_host_ns",
        ns_per_call(20_000, || {
            // A multiplicative hash scatters the insert positions.
            n += 1;
            list.insert(internal(n.wrapping_mul(0x9e37_79b9) % 1_000_000_007), row.clone());
        }),
    ));

    let mut mem = MemTable::new();
    for k in 0..10_000u64 {
        mem.add(k + 1, ValueType::Value, &keys[k as usize], &row);
    }
    let mut i = 0;
    out.push((
        "core.memtable_get_host_ns",
        ns_per_call(50_000, || {
            i = (i + 7919) % keys.len();
            black_box(mem.get(&keys[i], u64::MAX >> 9));
        }),
    ));

    let record = vec![1u8; 1024];
    let mut wal = LogWriter::new();
    out.push((
        "core.wal_encode_1k_host_ns",
        ns_per_call(20_000, || {
            black_box(wal.encode_record(black_box(&record)).len());
        }),
    ));

    let opts = engine_options(nob_baselines::Variant::NobLsm);
    let table: Vec<(Vec<u8>, Vec<u8>)> =
        (0..2_000).map(|k| (internal(k), value(k, 0, VALUE_LEN))).collect();
    let table_kib = table.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>() as f64 / 1024.0;
    out.push((
        "core.table_build_kib_host_ns",
        ns_per_call(20, || {
            let mut b = TableBuilder::new(&opts);
            for (k, v) in &table {
                b.add(k, v);
            }
            black_box(b.finish().len());
        }) / table_kib,
    ));

    // A 4-way merge of interleaved sorted runs, per entry stepped.
    let runs: Vec<Vec<(Vec<u8>, Vec<u8>)>> =
        (0..4).map(|r| (0..2_000).map(|k| (internal(k * 4 + r), row.clone())).collect()).collect();
    out.push((
        "core.merge_next_host_ns",
        ns_per_call(5, || {
            let children: Vec<Box<dyn InternalIterator>> = runs
                .iter()
                .map(|r| Box::new(VecIterator::new(r.clone())) as Box<dyn InternalIterator>)
                .collect();
            let mut it = MergingIterator::new(children);
            let mut now = Nanos::ZERO;
            it.seek_to_first(&mut now).expect("in-memory");
            while it.valid() {
                it.next(&mut now).expect("in-memory");
            }
        }) / 8_000.0,
    ));

    let set = Request::Set(key(1), row.clone()).to_frame().to_bytes();
    let mut decoder = Decoder::new();
    out.push((
        "server.proto_decode_set_host_ns",
        ns_per_call(50_000, || {
            decoder.push(&set);
            let frame = decoder.next_frame().expect("valid frame").expect("complete frame");
            black_box(Request::parse(&frame).expect("valid request"));
        }),
    ));
    let bulk = Frame::Bulk(row.clone());
    let mut wire = Vec::with_capacity(256);
    out.push((
        "server.proto_encode_bulk_host_ns",
        ns_per_call(100_000, || {
            wire.clear();
            black_box(&bulk).encode(&mut wire);
        }),
    ));

    // The filesystem model's own cost per call; files rotate at 1 MiB so
    // the model's in-memory contents stay small.
    let fs: Ext4Fs = scale().fresh_fs();
    let mut now = Nanos::ZERO;
    let mut handle = fs.create("f0", now).expect("fresh file");
    let (mut written, mut file) = (0u64, 0u64);
    out.push((
        "ext4.append_4k_host_ns",
        ns_per_call(20_000, || {
            if written == 1 << 20 {
                fs.delete(&format!("f{file}"), now).expect("delete");
                file += 1;
                written = 0;
                handle = fs.create(&format!("f{file}"), now).expect("fresh file");
            }
            now = fs.append(handle, &page, now).expect("append");
            written += 4096;
        }),
    ));
    out.push((
        "ext4.fsync_host_ns",
        ns_per_call(2_000, || {
            now = fs.append(handle, &page[..512], now).expect("append");
            now = fs.fsync(handle, now).expect("fsync");
        }),
    ));
    let size = fs.file_size(&format!("f{file}")).expect("live file");
    let mut offset = 0u64;
    out.push((
        "ext4.read_4k_host_ns",
        ns_per_call(20_000, || {
            offset = (offset + 4096) % (size - 4096);
            let (data, t) = fs.read_at(handle, offset, 4096, now).expect("read");
            now = t;
            black_box(data);
        }),
    ));

    let sink = TraceSink::with_ring_capacity(1 << 12);
    let mut t = 0u64;
    out.push((
        "trace.emit_host_ns",
        ns_per_call(100_000, || {
            t += 10;
            sink.emit(EventClass::EnginePut, Nanos::from_nanos(t), Nanos::from_nanos(t + 5), 144);
        }),
    ));
    out
}
