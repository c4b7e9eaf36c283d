//! Database repair: rebuilding a usable MANIFEST from whatever table and
//! log files survive, when the metadata itself is lost or corrupt
//! (LevelDB's `RepairDB`).

use nob_ext4::Ext4Fs;
use nob_sim::Nanos;

use crate::cache::TableCache;
use crate::compaction::write_table;
use crate::memtable::MemTable;
use crate::options::{Options, SyncMode};
use crate::types::sequence_of;
use crate::version::{file_path, list_dir, FileKind, FileMetaData, VersionEdit, VersionSet};
use crate::wal::ReplayCursor;
use crate::{InternalKey, Result};

/// Everything salvaged about one surviving table file.
struct SalvagedTable {
    physical: u64,
    size: u64,
    smallest: InternalKey,
    largest: InternalKey,
    max_seq: u64,
}

/// What a [`Db::repair`](super::Db::repair) run found and did, for
/// recovery-validation harnesses that must distinguish *detected* loss
/// from silent loss.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RepairReport {
    /// Table files scanned end to end and re-registered at `L0`.
    pub(crate) tables_salvaged: u64,
    /// Table files that failed to parse and were discarded.
    pub tables_skipped: u64,
    /// WAL batches replayed into fresh tables.
    pub wal_records_recovered: u64,
    /// Checksum mismatches (or malformed records) detected in WALs.
    pub wal_corruptions_detected: u64,
    /// WAL bytes dropped after torn tails or damaged records.
    pub wal_bytes_dropped: u64,
}

/// Rebuilds the database metadata in `dir` from its surviving files.
///
/// Every parseable `.ldb` file is scanned and re-registered at `L0`
/// (overlap there is legal; normal compaction re-sorts the tree), ordered
/// so that tables holding newer sequence numbers shadow older ones.
/// Surviving WALs are replayed into fresh, synced `L0` tables. A new
/// MANIFEST and `CURRENT` replace whatever was there.
///
/// Unparseable table files are skipped (their bytes are unreachable
/// anyway); BoLT-style grouped files are salvaged as their *last* logical
/// table only, since earlier footers are not discoverable without the
/// manifest.
///
/// # Errors
///
/// Propagates filesystem errors; fails if a fresh MANIFEST cannot be
/// written.
pub(crate) fn repair(
    fs: &Ext4Fs,
    dir: &str,
    opts: &Options,
    now: Nanos,
) -> Result<(Nanos, RepairReport)> {
    let mut t = now;
    let mut report = RepairReport::default();
    let mut tables: Vec<SalvagedTable> = Vec::new();
    let mut logs: Vec<u64> = Vec::new();
    let mut stale: Vec<String> = Vec::new();
    let mut max_number = 1u64;

    let scratch = TableCache::new(fs.clone(), dir.to_string(), opts.block_cache_bytes, opts.cpu);
    let current_tmp = format!("{dir}/CURRENT.tmp");
    for (p, parsed) in list_dir(fs, dir) {
        match parsed {
            Some((FileKind::Table, n)) => {
                max_number = max_number.max(n);
                match salvage_table(fs, &scratch, dir, n, &mut t) {
                    Some(s) => {
                        report.tables_salvaged += 1;
                        tables.push(s);
                    }
                    None => {
                        report.tables_skipped += 1;
                        stale.push(p);
                    }
                }
            }
            Some((FileKind::Wal, n)) => {
                max_number = max_number.max(n);
                logs.push(n);
            }
            Some((FileKind::Manifest, n)) => {
                max_number = max_number.max(n);
                stale.push(p);
            }
            Some((FileKind::Current, _)) => stale.push(p),
            None if p == current_tmp => stale.push(p),
            None => {}
        }
    }

    // Replay logs into fresh synced tables.
    logs.sort_unstable();
    let mut next_number = max_number + 1;
    let mut max_seq = tables.iter().map(|s| s.max_seq).max().unwrap_or(0);
    for n in &logs {
        let path = file_path(dir, FileKind::Wal, *n);
        let Ok(h) = fs.open(&path, t) else { continue };
        let size = fs.file_size(&path)?;
        let (data, t2) = fs.read_at(h, 0, size, t)?;
        t = t2;
        let mut mem = MemTable::new();
        let mut cursor = ReplayCursor::new(data.to_vec());
        while let Some(batch) = cursor.next_batch() {
            max_seq = max_seq.max(batch.insert_into(&mut mem));
        }
        report.wal_records_recovered += cursor.records_replayed();
        report.wal_corruptions_detected += u64::from(cursor.payload_corruption_detected())
            + u64::from(cursor.record_corruption_detected());
        report.wal_bytes_dropped += cursor.bytes_dropped();
        if !mem.is_empty() {
            let number = next_number;
            next_number += 1;
            if let Some(out) = write_table(fs, dir, opts, number, mem.iter(), &mut t)? {
                let seq_hi = out.meta.smallest.sequence().max(out.meta.largest.sequence());
                tables.push(SalvagedTable {
                    physical: number,
                    size: out.meta.size,
                    smallest: out.meta.smallest,
                    largest: out.meta.largest,
                    max_seq: seq_hi.max(max_seq),
                });
            }
        }
        stale.push(path);
    }

    // Remove the stale metadata (and unparseable files) BEFORE creating
    // the fresh manifest so names cannot collide.
    for p in &stale {
        let _ = fs.delete(p, t);
    }

    // Fresh version set: tables registered at L0, newer sequences shadowing
    // older ones (L0 lookup order is by logical number, newest first).
    let (mut versions, t2) = VersionSet::create(fs.clone(), dir, opts.clone(), t)?;
    t = t2;
    versions.next_file_number = versions.next_file_number.max(next_number);
    tables.sort_by_key(|s| s.max_seq);
    let mut edit = VersionEdit::new();
    for s in tables {
        let number = versions.new_file_number();
        edit.add_file(0, FileMetaData::new(number, s.physical, 0, s.size, s.smallest, s.largest));
    }
    versions.last_sequence = max_seq;
    let t3 = versions.log_and_apply(edit, t, opts.sync_mode != SyncMode::Never)?;
    Ok((t3, report))
}

/// Scans one table file end to end; returns its metadata if parseable.
fn salvage_table(
    fs: &Ext4Fs,
    scratch: &TableCache,
    dir: &str,
    number: u64,
    t: &mut Nanos,
) -> Option<SalvagedTable> {
    let path = file_path(dir, FileKind::Table, number);
    let size = fs.file_size(&path).ok()?;
    let meta = FileMetaData::new(
        number,
        number,
        0,
        size,
        InternalKey::new(b"", 0, crate::ValueType::Value),
        InternalKey::new(b"", 0, crate::ValueType::Value),
    );
    let table = scratch.table(&meta, t).ok()?;
    let mut it = table.iter(true);
    it.seek_to_first(t).ok()?;
    use crate::iterator::InternalIterator;
    let mut smallest: Option<Vec<u8>> = None;
    let mut largest: Option<Vec<u8>> = None;
    let mut max_seq = 0u64;
    while it.valid() {
        if smallest.is_none() {
            smallest = Some(it.key().to_vec());
        }
        largest = Some(it.key().to_vec());
        max_seq = max_seq.max(sequence_of(it.key()));
        it.next(t).ok()?;
    }
    scratch.evict(number);
    let smallest = smallest?;
    let largest = largest?;
    Some(SalvagedTable {
        physical: number,
        size,
        smallest: InternalKey::from_encoded(&smallest),
        largest: InternalKey::from_encoded(&largest),
        max_seq,
    })
}
