//! Shared helpers for the engine integration tests: canonical-API
//! equivalents of the removed positional write shims (`Db::put`,
//! `Db::put_opt`, `Db::write_batch`, `Db::delete`), preserving the
//! explicit `now`-threading style the timing assertions rely on. Each
//! starts at the caller's instant through [`Db::write_at`], as those shims
//! did, and leaves the shared clock at the write's end.

#![allow(dead_code)]

use nob_sim::Nanos;
use noblsm::{Db, Result, WriteBatch, WriteOptions};

/// Inserts or overwrites `key` at `now` with default write options.
pub fn put(db: &mut Db, now: Nanos, key: &[u8], value: &[u8]) -> Result<Nanos> {
    put_with(db, now, key, value, &WriteOptions::default())
}

/// Inserts with explicit [`WriteOptions`] (e.g. a synced WAL write).
pub fn put_with(
    db: &mut Db,
    now: Nanos,
    key: &[u8],
    value: &[u8],
    wopts: &WriteOptions,
) -> Result<Nanos> {
    let mut batch = WriteBatch::new();
    batch.put(key, value);
    db.write_at(now, wopts, batch)
}

/// Applies an atomic [`WriteBatch`] at `now`.
pub fn write_batch_at(
    db: &mut Db,
    now: Nanos,
    batch: &WriteBatch,
    wopts: &WriteOptions,
) -> Result<Nanos> {
    db.write_at(now, wopts, batch.clone())
}

/// Deletes `key` at `now`: a one-tombstone batch.
pub fn delete(db: &mut Db, now: Nanos, key: &[u8]) -> Result<Nanos> {
    let mut batch = WriteBatch::new();
    batch.delete(key);
    db.write_at(now, &WriteOptions::default(), batch)
}
