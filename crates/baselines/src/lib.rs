//! Policy-level models of the seven LSM-trees the NobLSM paper evaluates.
//!
//! Each [`Variant`] configures the shared engine (`noblsm::Db`) to
//! reproduce the property the paper attributes to that system:
//!
//! | Variant | Key property modelled |
//! |---|---|
//! | `LevelDb` | fsync every new SSTable and the MANIFEST, single background thread |
//! | `VolatileLevelDb` | all syncs disabled (motivation experiments only) |
//! | `Bolt` | one large *physical* SSTable per compaction, synced once; logical tables re-synced whenever future compactions touch them |
//! | `L2sm` | hot keys diverted from compaction push-down (log-assisted de-amplification) |
//! | `RocksDb` | 4 parallel compaction lanes, larger L1 budget |
//! | `HyperLevelDb` | 2 parallel lanes, *hardcoded* small SSTables (the paper notes Hyper ignores the 64 MB setting) |
//! | `PebblesDb` | fragmented (guard-style) compaction: parent files pushed down without rewriting the child level |
//! | `NobLsm` | syncs only at minor compaction; major compactions ride Ext4's async commits with predecessor/successor tracking |
//!
//! # Examples
//!
//! ```
//! use nob_baselines::Variant;
//! use nob_ext4::{Ext4Config, Ext4Fs};
//! use nob_sim::Nanos;
//! use noblsm::{Db, Options};
//!
//! # fn main() -> Result<(), noblsm::DbError> {
//! let fs = Ext4Fs::new(Ext4Config::default());
//! let base = Options::default().with_table_size(64 << 20);
//! let mut db = Db::open(fs, "db", Variant::NobLsm.options(&base), Nanos::ZERO)?;
//! let mut batch = noblsm::WriteBatch::new();
//! batch.put(b"k", b"v");
//! db.write(&noblsm::WriteOptions::default(), batch)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use nob_sim::Nanos;
use noblsm::{CompactionStyle, Options, SyncMode};

/// One of the systems compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Original LevelDB 1.23.
    LevelDb,
    /// LevelDB with every sync disabled (§3's motivation build).
    VolatileLevelDb,
    /// BoLT (Middleware '20): barrier-optimized grouped SSTables.
    Bolt,
    /// L2SM (ICDE '21): log-assisted hot/cold de-amplification.
    L2sm,
    /// RocksDB-like: parallelized compactions, bigger level budgets.
    RocksDb,
    /// HyperLevelDB-like: parallel compactions, hardcoded small tables.
    HyperLevelDb,
    /// PebblesDB (SOSP '17): fragmented LSM with guards.
    PebblesDb,
    /// This paper's system.
    NobLsm,
}

impl Variant {
    /// The seven systems of Figs. 4–5 and Table 1, in the paper's order.
    pub fn paper_seven() -> [Variant; 7] {
        [
            Variant::LevelDb,
            Variant::Bolt,
            Variant::L2sm,
            Variant::RocksDb,
            Variant::HyperLevelDb,
            Variant::PebblesDb,
            Variant::NobLsm,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::LevelDb => "LevelDB",
            Variant::VolatileLevelDb => "LevelDB-nosync",
            Variant::Bolt => "BoLT",
            Variant::L2sm => "L2SM",
            Variant::RocksDb => "RocksDB",
            Variant::HyperLevelDb => "HyperLevelDB",
            Variant::PebblesDb => "PebblesDB",
            Variant::NobLsm => "NobLSM",
        }
    }

    /// Derives this variant's engine options from the harness baseline
    /// (which fixes the table size, level budgets and CPU model).
    pub fn options(&self, base: &Options) -> Options {
        let mut o = base.clone();
        match self {
            Variant::LevelDb => {
                o.sync_mode = SyncMode::Always;
            }
            Variant::VolatileLevelDb => {
                o.sync_mode = SyncMode::Never;
            }
            Variant::Bolt => {
                o.sync_mode = SyncMode::Always;
                o.grouped_output = true;
                // The paper attributes extra cost to BoLT's maintenance of
                // logical SSTables (§5.2); modelled as per-op CPU.
                o.extra_op_cpu = Nanos::from_nanos(3_000);
            }
            Variant::L2sm => {
                o.sync_mode = SyncMode::Always;
                o.hot_cold = true;
            }
            Variant::RocksDb => {
                o.sync_mode = SyncMode::Always;
                o = o.with_lanes(4);
                // Write-group coordination and fine-grained locking.
                o.extra_op_cpu = Nanos::from_nanos(2_000);
                // RocksDB's default L1 budget (256 MB) is far larger than
                // LevelDB's 10 MB; scale the same ratio onto the base.
                o.level1_max_bytes = base.level1_max_bytes.saturating_mul(4);
            }
            Variant::HyperLevelDb => {
                o.sync_mode = SyncMode::Always;
                o = o.with_lanes(2);
                // Fine-grained synchronization on the write path (the
                // price of its parallelism on single-threaded loads).
                o.extra_op_cpu = Nanos::from_nanos(4_000);
                // Hyper hardcodes its sizes and does not benefit from the
                // harness's 64 MB setting (§5.1): smaller tables make it
                // sync a few times more often than LevelDB (Table 1's
                // outlier), while its overlap-minimizing picks (modelled
                // as a larger L1 budget) keep the synced volume below
                // LevelDB's.
                o.table_size = (base.table_size / 4).max(16 << 10);
                o.level1_max_bytes = base.level1_max_bytes.saturating_mul(4);
            }
            Variant::PebblesDb => {
                o.sync_mode = SyncMode::Always;
                o.style = CompactionStyle::Fragmented;
                o = o.with_lanes(2);
                // Guard maintenance and the HyperLevelDB base's locking:
                // the paper measures PebblesDB distinctly slower per
                // operation than its write volume alone would suggest
                // (Fig. 4a vs Table 1); modelled as per-op CPU plus the
                // FLSM CPU/IO trade-off its own paper reports (≈3× the
                // compaction CPU of LevelDB).
                o.extra_op_cpu = Nanos::from_nanos(6_000);
                o.cpu.next = o.cpu.next * 4;
                o.cpu.block_per_kib = o.cpu.block_per_kib * 4;
            }
            Variant::NobLsm => {
                o.sync_mode = SyncMode::NobLsm;
            }
        }
        o
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nob_ext4::{Ext4Config, Ext4Fs};
    use noblsm::{Db, WriteBatch, WriteOptions};

    fn base() -> Options {
        let mut o = Options::default().with_table_size(32 << 10);
        o.level1_max_bytes = 128 << 10;
        o
    }

    fn fs() -> Ext4Fs {
        Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20))
    }

    fn open(v: Variant, fs: Ext4Fs) -> Db {
        Db::open(fs, "db", v.options(&base()), Nanos::ZERO).unwrap()
    }

    fn put_at(db: &mut Db, now: Nanos, key: &[u8], value: &[u8]) -> Nanos {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        db.write_at(now, &WriteOptions::default(), batch).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("key{:08}", i).into_bytes()
    }

    fn load(db: &mut Db, n: u64, vlen: usize) -> Nanos {
        let mut now = db.clock().now();
        for i in 0..n {
            let k = (i * 2654435761) % n;
            let mut v = format!("val{k}-").into_bytes();
            v.resize(vlen, b'z');
            now = put_at(db, now, &key(k), &v);
        }
        db.wait_idle(now).unwrap()
    }

    #[test]
    fn every_variant_preserves_data() {
        let mut variants = Variant::paper_seven().to_vec();
        variants.push(Variant::VolatileLevelDb);
        for v in variants {
            let fs = fs();
            let mut db = open(v, fs);
            let mut now = load(&mut db, 2000, 128);
            db.check_invariants().unwrap();
            for i in (0..2000u64).step_by(43) {
                let (got, t) = db.get_at_time(now, &key(i)).unwrap();
                now = t;
                assert!(got.is_some(), "{v}: key {i} lost");
            }
        }
    }

    #[test]
    fn sync_counts_follow_the_papers_ordering() {
        let run = |v: Variant| {
            let fs = fs();
            let mut db = open(v, fs.clone());
            load(&mut db, 4000, 128);
            fs.stats().sync_calls
        };
        let leveldb = run(Variant::LevelDb);
        let noblsm = run(Variant::NobLsm);
        let hyper = run(Variant::HyperLevelDb);
        let volatile = run(Variant::VolatileLevelDb);
        // Table 1's ordering: NobLSM fewest, HyperLevelDB the outlier max.
        assert!(noblsm < leveldb, "NobLSM {noblsm} !< LevelDB {leveldb}");
        assert!(hyper > leveldb, "Hyper {hyper} !> LevelDB {leveldb}");
        assert!(volatile <= 1);
    }

    #[test]
    fn bolt_groups_outputs_into_fewer_physical_files() {
        let count_tables = |v: Variant| {
            let fs = fs();
            let mut db = open(v, fs.clone());
            load(&mut db, 3000, 128);
            let logical: usize = db.level_file_counts().iter().sum();
            let physical = fs.list("db/").iter().filter(|p| p.ends_with(".ldb")).count();
            (logical, physical)
        };
        let (bolt_logical, bolt_physical) = count_tables(Variant::Bolt);
        assert!(bolt_physical <= bolt_logical, "grouped outputs cannot exceed logical tables");
        let (ldb_logical, ldb_physical) = count_tables(Variant::LevelDb);
        assert_eq!(ldb_logical, ldb_physical, "ungrouped: one file per table");
    }

    #[test]
    fn pebbles_writes_less_than_leveldb() {
        let run = |v: Variant| {
            let fs = fs();
            let mut db = open(v, fs);
            load(&mut db, 4000, 128);
            db.stats().compaction_bytes_written
        };
        let leveldb = run(Variant::LevelDb);
        let pebbles = run(Variant::PebblesDb);
        assert!(
            pebbles < leveldb,
            "fragmented compaction must reduce write amplification: {pebbles} vs {leveldb}"
        );
    }

    #[test]
    fn l2sm_tracks_leveldb_and_diverts_hot_keys() {
        // The paper's own data has L2SM ≈ LevelDB (Table 1: 1046 vs 1061
        // syncs, 60.98 vs 61.55 GB): hot/cold separation neither helps nor
        // hurts much on these workloads. Assert (a) L2SM stays within a
        // sane band of LevelDB and (b) the hot-diversion mechanism is
        // actually active under skew.
        let run = |v: Variant| {
            let fs = fs();
            let mut db = open(v, fs);
            let mut now = db.clock().now();
            // Heavy skew: 90 % of updates hit 5 % of the keyspace.
            let mut state = 99u64;
            for i in 0..6000u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = if state % 10 < 9 { state % 100 } else { 100 + (i % 1900) };
                let mut val = format!("v{k}-{i}").into_bytes();
                val.resize(128, b'q');
                now = put_at(&mut db, now, &key(k), &val);
            }
            db.wait_idle(now).unwrap();
            let hot_files: usize =
                db.current_version().files.iter().map(|l| l.iter().filter(|f| f.hot).count()).sum();
            (db.stats().compaction_bytes_written, hot_files)
        };
        let (leveldb, ldb_hot) = run(Variant::LevelDb);
        let (l2sm, l2sm_hot) = run(Variant::L2sm);
        assert_eq!(ldb_hot, 0, "LevelDB must not produce hot files");
        assert!(l2sm_hot > 0, "L2SM must divert hot keys under skew");
        assert!(
            l2sm * 2 < leveldb * 3 && leveldb * 2 < l2sm * 5,
            "L2SM should track LevelDB within a band: {l2sm} vs {leveldb}"
        );
    }

    #[test]
    fn variant_names_are_stable() {
        assert_eq!(Variant::NobLsm.to_string(), "NobLSM");
        assert_eq!(Variant::paper_seven().len(), 7);
        assert_eq!(Variant::paper_seven()[0].name(), "LevelDB");
        assert_eq!(Variant::paper_seven()[6].name(), "NobLSM");
    }

    #[test]
    fn hyper_hardcodes_small_tables() {
        let o = Variant::HyperLevelDb.options(&Options::default().with_table_size(64 << 20));
        assert_eq!(o.table_size, 16 << 20, "hardcoded, ignores the 64 MB setting");
        assert_eq!(o.write_buffer_size, 64 << 20, "memtable keeps the harness size");
        let o2 = Variant::LevelDb.options(&Options::default().with_table_size(64 << 20));
        assert_eq!(o2.table_size, 64 << 20);
    }
}
