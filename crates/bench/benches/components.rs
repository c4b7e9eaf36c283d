//! Real-time (host CPU) micro-benchmarks of the engine's components:
//! skiplist memtable, SSTable build/read, bloom filter, CRC32C, WAL
//! encoding and the zipfian generator. These measure the *simulator's*
//! own speed, complementing the virtual-time paper benches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_workloads::ycsb::ScrambledZipfian;
use noblsm::memtable::MemTable;
use noblsm::sstable::{BloomFilter, TableBuilder};
use noblsm::util::crc32c;
use noblsm::wal::LogWriter;
use noblsm::{InternalKey, Options, ValueType};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_memtable(c: &mut Criterion) {
    let mut g = c.benchmark_group("memtable");
    g.bench_function("insert_1k_entries", |b| {
        b.iter_batched(
            MemTable::new,
            |mut mem| {
                for i in 0..1000u64 {
                    mem.add(i + 1, ValueType::Value, format!("key{i:08}").as_bytes(), &[0u8; 100]);
                }
                mem
            },
            BatchSize::SmallInput,
        )
    });
    let mut mem = MemTable::new();
    for i in 0..10_000u64 {
        mem.add(i + 1, ValueType::Value, format!("key{i:08}").as_bytes(), &[0u8; 100]);
    }
    g.bench_function("get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 10_000;
            mem.get(format!("key{i:08}").as_bytes(), u64::MAX >> 9)
        })
    });
    g.finish();
}

fn bench_sstable(c: &mut Criterion) {
    let mut g = c.benchmark_group("sstable");
    g.sample_size(20);
    let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..5000u64)
        .map(|i| {
            (
                InternalKey::new(format!("key{i:08}").as_bytes(), i + 1, ValueType::Value)
                    .as_bytes()
                    .to_vec(),
                vec![0u8; 100],
            )
        })
        .collect();
    g.bench_function("build_5k_entries", |b| {
        b.iter(|| {
            let mut builder = TableBuilder::new(&Options::default());
            for (k, v) in &entries {
                builder.add(k, v);
            }
            builder.finish().len()
        })
    });
    // Point reads through a built table.
    let mut builder = TableBuilder::new(&Options::default());
    for (k, v) in &entries {
        builder.add(k, v);
    }
    let bytes = builder.finish();
    let fs = Ext4Fs::new(Ext4Config::default());
    let h = fs.create("t", Nanos::ZERO).expect("fresh file");
    let mut now = fs.append(h, &bytes, Nanos::ZERO).expect("write");
    let table =
        noblsm::sstable::Table::open_file(fs, h, bytes.len() as u64, &Options::default(), &mut now)
            .expect("open");
    g.bench_function("point_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 2711) % 5000;
            let probe =
                InternalKey::new(format!("key{i:08}").as_bytes(), u64::MAX >> 9, ValueType::Value);
            table.get(probe.as_bytes(), &mut now, true).expect("read")
        })
    });
    g.finish();
}

fn bench_small_parts(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    let data = vec![0xa5u8; 4096];
    g.bench_function("crc32c_4k", |b| b.iter(|| crc32c(&data)));

    let keys: Vec<Vec<u8>> = (0..10_000).map(|i| format!("user{i:012}").into_bytes()).collect();
    let filter = BloomFilter::build(&keys, 10);
    g.bench_function("bloom_build_10k", |b| b.iter(|| BloomFilter::build(&keys, 10)));
    g.bench_function("bloom_probe", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 37) % keys.len();
            filter.may_contain(&keys[i])
        })
    });

    g.bench_function("wal_encode_1k_record", |b| {
        let payload = vec![1u8; 1024];
        let mut w = LogWriter::new();
        b.iter(|| w.encode_record(&payload).len())
    });

    let zipf = ScrambledZipfian::new(1_000_000);
    let mut rng = SmallRng::seed_from_u64(7);
    g.bench_function("zipfian_next", |b| b.iter(|| zipf.next(&mut rng)));
    g.finish();
}

criterion_group!(benches, bench_memtable, bench_sstable, bench_small_parts);
criterion_main!(benches);
