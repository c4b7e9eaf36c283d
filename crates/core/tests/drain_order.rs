//! A drain applies Ext4's journal commits and the engine's completions in
//! time order, so a settle that jumps the clock forgets every table whose
//! deletion became durable inside the jump.
//!
//! NobLSM deletes a compaction's inputs once Ext4 has committed their
//! successors; the deletion is durable at the next journal commit, and
//! only then may the simulated disk forget the file's bytes. A settle
//! moves the clock two journal-commit plus reclamation intervals on and
//! drains there. The drain steps through each pending completion below
//! its instant in order, so a reclamation poll's deletions join the
//! commit that follows the poll, not the one after the jump; and the pump
//! raises the crash horizon only to the instant it stepped to, so the last
//! step forgets every deletion that became durable on the way.
//!
//! After the jump, the disk must hold exactly the live files' bytes. With
//! every completion applied at the jump's end after the commits before it
//! had been issued, the disk kept 5 642 960 bytes against 811 866 live.

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{Db, Options, SyncMode, WriteBatch, WriteOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KEYS: u64 = 4_000;
const PUTS: usize = 6_000;
const VALUE_BYTES: usize = 200;

/// A small NobLSM engine whose load leaves several levels and shadows.
fn open() -> Db {
    let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20));
    let mut opts = Options::default().with_sync_mode(SyncMode::NobLsm).with_table_size(32 << 10);
    opts.level1_max_bytes = 128 << 10;
    Db::open(fs, "db", opts, Nanos::ZERO).unwrap()
}

/// Bytes of every file the filesystem lists.
fn live_bytes(fs: &Ext4Fs) -> u64 {
    fs.list("").iter().map(|p| fs.file_size(p).unwrap()).sum()
}

#[test]
fn a_settle_jump_forgets_every_durable_deletion() {
    let mut db = open();
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..PUTS {
        let k = format!("key{:08}", rng.gen_range(0..KEYS));
        let mut batch = WriteBatch::new();
        batch.put(k.as_bytes(), &[rng.gen::<u8>(); VALUE_BYTES]);
        db.write(&WriteOptions::default(), batch).unwrap();
    }
    db.wait_idle(db.clock().now()).unwrap();
    assert!(db.stats().major_compactions > 0, "the load must compact");

    let wait = db.fs().config().commit_interval + db.options().reclaim_interval;
    db.clock().advance(wait + wait);
    db.wait_idle(db.clock().now()).unwrap();

    let fs = db.fs();
    assert_eq!(
        fs.retained_bytes(),
        live_bytes(fs),
        "the disk holds deleted tables whose deletion is durable"
    );
}
