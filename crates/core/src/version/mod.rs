//! Version management: file metadata, level structure, the MANIFEST log,
//! and compaction picking.
//!
//! A [`Version`] is an immutable snapshot of the level structure; the
//! `VersionSet` owns the current version, the MANIFEST file that
//! persists [`VersionEdit`]s, and the allocation counters (file numbers,
//! sequence numbers).

mod edit;
mod set;
#[allow(clippy::module_inception)]
mod version;

pub use edit::VersionEdit;
pub(crate) use set::{CompactionInputs, VersionSet};
pub use version::{FileMetaData, Version};
pub(crate) use version::{GetResult, MAX_FREE_HOT_FILES};

/// Database file kinds and naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// A write-ahead log: `NNNNNN.log`.
    Wal,
    /// An SSTable: `NNNNNN.ldb`.
    Table,
    /// A manifest: `MANIFEST-NNNNNN`.
    Manifest,
    /// The `CURRENT` pointer file.
    Current,
}

/// Builds the path of a numbered database file.
pub(crate) fn file_path(dir: &str, kind: FileKind, number: u64) -> String {
    match kind {
        FileKind::Wal => format!("{dir}/{number:06}.log"),
        FileKind::Table => format!("{dir}/{number:06}.ldb"),
        FileKind::Manifest => format!("{dir}/MANIFEST-{number:06}"),
        FileKind::Current => format!("{dir}/CURRENT"),
    }
}

/// Parses a database file name (without directory) into its kind/number.
pub(crate) fn parse_file_name(name: &str) -> Option<(FileKind, u64)> {
    if name == "CURRENT" {
        return Some((FileKind::Current, 0));
    }
    if let Some(num) = name.strip_prefix("MANIFEST-") {
        return num.parse().ok().map(|n| (FileKind::Manifest, n));
    }
    if let Some(num) = name.strip_suffix(".log") {
        return num.parse().ok().map(|n| (FileKind::Wal, n));
    }
    if let Some(num) = name.strip_suffix(".ldb") {
        return num.parse().ok().map(|n| (FileKind::Table, n));
    }
    None
}

/// Every file under `dir/` in name order, each with the kind and number
/// its name parses to (`None` for names the engine does not own).
pub(crate) fn list_dir(fs: &nob_ext4::Ext4Fs, dir: &str) -> Vec<(String, Option<(FileKind, u64)>)> {
    let prefix = format!("{dir}/");
    fs.list(&prefix)
        .into_iter()
        .filter_map(|p| {
            let parsed = parse_file_name(p.strip_prefix(&prefix)?);
            Some((p, parsed))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_round_trip_through_parse() {
        for (kind, n) in [(FileKind::Wal, 7), (FileKind::Table, 42), (FileKind::Manifest, 3)] {
            let p = file_path("db", kind, n);
            let name = p.strip_prefix("db/").unwrap();
            assert_eq!(parse_file_name(name), Some((kind, n)));
        }
        assert_eq!(parse_file_name("CURRENT"), Some((FileKind::Current, 0)));
        assert_eq!(parse_file_name("garbage.txt"), None);
        assert_eq!(parse_file_name("xx.ldb"), None);
    }
}
