//! Seeded input generation. Everything a timed phase consumes — keys,
//! values, operation order, scan lengths — is drawn from `--seed` into
//! vectors here, before any clock starts; the system under test only
//! ever sees the generated inputs.
//!
//! Keys are the paper's 16-byte decimal keys. Record `i` owns key id
//! `2 i`; odd ids are never preloaded, so they serve as in-range absent
//! keys (`read`) and as fresh insert keys (`scan`).

use std::collections::BTreeMap;

use nob_server::Request;
use nob_workloads::keys;
use nob_workloads::ycsb::ScrambledZipfian;
use noblsm::WriteBatch;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key length in bytes (`nob_workloads::keys::key`).
pub const KEY_LEN: u64 = 16;
/// Value length of `read`, `serve` and `scan`.
pub const VALUE_LEN: usize = 128;
/// Value length of `fill`: at 128 B compaction keeps up and the
/// foreground is bound by the 4 µs per-put CPU charge, so no write-path
/// or compaction change could move a virtual metric; at 1 KiB (the
/// paper's YCSB record size) compaction is the bottleneck and stalls are
/// frequent enough to measure.
pub const FILL_VALUE_LEN: usize = 1024;

/// The key id of record `i`.
pub fn record(i: u64) -> u64 {
    2 * i
}

/// The encoded key of key id `kid`.
pub fn key(kid: u64) -> Vec<u8> {
    keys::key(kid)
}

/// The value version `round` of key id `kid`.
pub fn value(kid: u64, round: u32, len: usize) -> Vec<u8> {
    keys::value(kid, u64::from(round), len)
}

/// A one-entry batch writing version `round` of key id `kid`.
pub fn put(kid: u64, round: u32, len: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    b.put(&key(kid), &value(kid, round, len));
    b
}

/// Workload sizes: the full-size figures divided by `div` (1 for the
/// benchmark, 20 for `--quick` and the determinism test).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// The divide-every-count factor.
    pub div: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes { div: 1 };

    fn of(self, full: u64) -> u64 {
        (full / self.div).max(64)
    }
}

/// What the database must hold once a workload's writes have landed:
/// the latest version of every key, as the driver issued them.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Value length of every version.
    pub value_len: usize,
    /// Latest round written to record `i` (round 0 is the preload).
    pub rounds: Vec<u32>,
    /// Keys inserted beyond the preload: key id → round.
    pub inserts: BTreeMap<u64, u32>,
}

impl Reference {
    fn preloaded(records: u64, value_len: usize) -> Reference {
        Reference { value_len, rounds: vec![0; records as usize], inserts: BTreeMap::new() }
    }

    /// Keys alive.
    pub fn live(&self) -> u64 {
        self.rounds.len() as u64 + self.inserts.len() as u64
    }

    /// The expected value of key id `kid`, `None` if never written.
    pub fn expected(&self, kid: u64) -> Option<Vec<u8>> {
        let round = if kid.is_multiple_of(2) {
            self.rounds.get((kid / 2) as usize).copied()
        } else {
            self.inserts.get(&kid).copied()
        };
        round.map(|r| value(kid, r, self.value_len))
    }
}

/// `fill`: fillrandom preload, then uniform overwrites.
pub struct FillInput {
    /// Preload order (record numbers, a permutation).
    pub preload: Vec<u64>,
    /// The timed overwrites, one batch per operation.
    pub batches: Vec<WriteBatch>,
    /// Final expected state.
    pub reference: Reference,
}

/// `read`: fillrandom preload, then uniform point lookups.
pub struct ReadInput {
    /// Preload order.
    pub preload: Vec<u64>,
    /// The timed lookups: key id (odd ids are absent keys).
    pub gets: Vec<u64>,
    /// Final expected state (the preload).
    pub reference: Reference,
}

/// One request of `serve`'s YCSB-A mix.
pub struct ServeOp {
    /// The wire request.
    pub req: Request,
    /// Record addressed.
    pub rec: u32,
    /// SET: the round written. GET: the round the reply must carry.
    pub round: u32,
    /// SET (`true`) or GET.
    pub is_set: bool,
}

/// `serve`: loaded records, cache warm-up, then zipfian 50/50 GET/SET.
pub struct ServeInput {
    /// Load order.
    pub load: Vec<u64>,
    /// Records read once before the timed phase to warm the block cache.
    pub warm: Vec<u64>,
    /// The timed requests, in send order.
    pub ops: Vec<ServeOp>,
    /// Final expected state.
    pub reference: Reference,
}

/// One operation of `scan`'s YCSB-E mix.
pub enum ScanOp {
    /// Range scan over records `[first, first + len)`.
    Scan {
        /// First record of the range.
        first: u64,
        /// Records spanned (1..=100).
        len: u64,
    },
    /// SET of a key id never written before.
    Insert {
        /// The wire request.
        req: Request,
        /// Key id inserted (odd).
        kid: u64,
    },
}

/// `scan`: loaded records, then 95 % paged range scans and 5 % inserts.
pub struct ScanInput {
    /// Load order.
    pub load: Vec<u64>,
    /// The timed operations, in issue order.
    pub ops: Vec<ScanOp>,
    /// Scans among `ops`.
    pub scans: u64,
    /// Final expected state.
    pub reference: Reference,
}

/// Generates `fill`'s inputs.
pub fn fill(seed: u64, sizes: Sizes) -> FillInput {
    let records = sizes.of(30_000);
    let ops = sizes.of(40_000);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf111);
    let mut reference = Reference::preloaded(records, FILL_VALUE_LEN);
    let batches = (1..=ops as u32)
        .map(|round| {
            let rec = rng.gen_range(0..records);
            reference.rounds[rec as usize] = round;
            put(record(rec), round, FILL_VALUE_LEN)
        })
        .collect();
    FillInput { preload: keys::shuffled(records, seed), batches, reference }
}

/// Generates `read`'s inputs: every tenth lookup addresses an absent
/// (odd) key id inside the populated range, so the bloom filters — not
/// the key-range check — must turn it away.
pub fn read(seed: u64, sizes: Sizes) -> ReadInput {
    let records = sizes.of(200_000);
    let ops = sizes.of(200_000);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4ead);
    let gets =
        (0..ops).map(|i| record(rng.gen_range(0..records)) + u64::from(i % 10 == 9)).collect();
    ReadInput {
        preload: keys::shuffled(records, seed),
        gets,
        reference: Reference::preloaded(records, VALUE_LEN),
    }
}

/// Generates `serve`'s inputs.
pub fn serve(seed: u64, sizes: Sizes) -> ServeInput {
    let records = sizes.of(100_000);
    let requests = sizes.of(150_000);
    let zipf = ScrambledZipfian::new(records);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e47e);
    let warm = (0..sizes.of(50_000)).map(|_| zipf.next(&mut rng)).collect();
    let mut reference = Reference::preloaded(records, VALUE_LEN);
    let ops = (1..=requests as u32)
        .map(|i| {
            let rec = zipf.next(&mut rng);
            let kid = record(rec);
            if rng.gen_bool(0.5) {
                reference.rounds[rec as usize] = i;
                let req = Request::Set(key(kid), value(kid, i, VALUE_LEN));
                ServeOp { req, rec: rec as u32, round: i, is_set: true }
            } else {
                let round = reference.rounds[rec as usize];
                ServeOp { req: Request::Get(key(kid)), rec: rec as u32, round, is_set: false }
            }
        })
        .collect();
    ServeInput { load: keys::shuffled(records, seed), warm, ops, reference }
}

/// Generates `scan`'s inputs.
pub fn scan(seed: u64, sizes: Sizes) -> ScanInput {
    let records = sizes.of(200_000);
    let n = sizes.of(16_000);
    let zipf = ScrambledZipfian::new(records);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca9);
    let mut reference = Reference::preloaded(records, VALUE_LEN);
    let mut scans = 0;
    let ops = (1..=n as u32)
        .map(|i| {
            if rng.gen_ratio(1, 20) {
                // Odd ids sit between records, so inserts land inside
                // later scan ranges, not past the end of the key space.
                let mut kid = record(rng.gen_range(0..records)) + 1;
                while reference.inserts.contains_key(&kid) {
                    kid = (kid + 2) % (2 * records);
                }
                reference.inserts.insert(kid, i);
                ScanOp::Insert { req: Request::Set(key(kid), value(kid, i, VALUE_LEN)), kid }
            } else {
                scans += 1;
                ScanOp::Scan { first: zipf.next(&mut rng), len: rng.gen_range(1..=100) }
            }
        })
        .collect();
    ScanInput { load: keys::shuffled(records, seed), ops, scans, reference }
}
