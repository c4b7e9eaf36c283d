//! Engine configuration: sync discipline, compaction style, sizes, CPU
//! cost model.

use std::borrow::Cow;

use nob_sim::Nanos;

/// When the engine calls `fsync`/`fdatasync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncMode {
    /// LevelDB: sync every new SSTable (minor and major) and the MANIFEST
    /// on each version change, before deleting obsolete files.
    Always,
    /// The paper's "volatile" LevelDB: no syncs at all (no crash
    /// consistency — used only for motivation experiments).
    Never,
    /// NobLSM: sync only the `L0` SSTable of each minor compaction; major
    /// compactions rely on Ext4's asynchronous commits, tracked via
    /// `check_commit`/`is_committed`, with predecessors retained as
    /// shadows until all successors commit.
    NobLsm,
}

/// The structural compaction model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompactionStyle {
    /// LevelDB's leveled compaction: levels `L1+` hold non-overlapping
    /// files; a major compaction merges parent files with all overlapping
    /// child files.
    Leveled,
    /// A PebblesDB-like fragmented LSM: major compactions push parent
    /// files down *without* rewriting resident child files, so levels may
    /// hold overlapping files (guards); reads consult every overlapping
    /// file; overcrowded levels are consolidated in place.
    Fragmented,
}

/// Per-operation CPU costs charged to the virtual clock.
///
/// These model the host-side work that the paper's microsecond-scale
/// figures include alongside device time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCosts {
    /// Fixed cost of a `put`/`delete` (WAL encode + memtable insert).
    pub(crate) put: Nanos,
    /// Fixed cost of a `get` (memtable probe + version walk).
    pub(crate) get: Nanos,
    /// Cost per SSTable probed during a `get` (index + bloom checks).
    pub(crate) table_probe: Nanos,
    /// Cost of advancing an iterator one entry.
    pub next: Nanos,
    /// Cost per KiB of block parsed or built.
    pub block_per_kib: Nanos,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            put: Nanos::from_nanos(4_000),
            get: Nanos::from_nanos(2_500),
            table_probe: Nanos::from_nanos(1_000),
            next: Nanos::from_nanos(400),
            block_per_kib: Nanos::from_nanos(150),
        }
    }
}

/// Per-write options (mirrors LevelDB's `WriteOptions`), consumed by the
/// canonical [`Db::write`](crate::Db::write) entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOptions {
    /// Whether to fsync the WAL after this write. LevelDB's default — and
    /// the setting used throughout the paper — is `false`, which is why
    /// log tails can break on power loss.
    pub sync: bool,
}

impl WriteOptions {
    /// Options for a buffered (non-synced) write — the default.
    pub fn buffered() -> Self {
        WriteOptions::default()
    }

    /// Options for a synced write.
    pub fn synced() -> Self {
        WriteOptions { sync: true }
    }
}

/// Per-read options (mirrors LevelDB's `ReadOptions`), consumed by the
/// canonical [`Db::get`](crate::Db::get) entry point.
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions<'a> {
    /// Read as of this pinned snapshot instead of the latest state.
    pub snapshot: Option<&'a crate::Snapshot>,
    /// Whether blocks loaded for this read should populate the block
    /// cache (LevelDB's `fill_cache`; scans set it `false` to avoid
    /// evicting the point-read working set).
    pub fill_cache: bool,
}

impl Default for ReadOptions<'_> {
    fn default() -> Self {
        ReadOptions { snapshot: None, fill_cache: true }
    }
}

impl<'a> ReadOptions<'a> {
    /// Options pinned at `snapshot`.
    pub fn at(snapshot: &'a crate::Snapshot) -> Self {
        ReadOptions { snapshot: Some(snapshot), ..ReadOptions::default() }
    }

    /// Disables block-cache population for this read.
    pub fn without_fill_cache(mut self) -> Self {
        self.fill_cache = false;
        self
    }
}

/// Per-scan options, consumed by the canonical
/// [`Db::scan`](crate::Db::scan) entry point and by `Store::scan`. The
/// server's SCAN builds its own from the command's arguments, with
/// `fill_cache` off.
///
/// A scan visits keys in ascending order. Bounds are user keys: `start` is
/// inclusive, `end` exclusive. A `prefix` narrows the effective bounds to
/// keys sharing it. `limit` caps the rows returned (the scan reports a
/// resume key when it truncates), and `count_only` suppresses row
/// materialisation for cardinality queries.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions<'a> {
    /// Inclusive lower bound; `None` scans from the first key.
    pub start: Option<&'a [u8]>,
    /// Exclusive upper bound; `None` scans to the last key.
    pub end: Option<&'a [u8]>,
    /// Restrict the scan to keys carrying this prefix (combined with
    /// `start`/`end`: the tighter bound wins).
    pub prefix: Option<&'a [u8]>,
    /// Maximum rows to return; `usize::MAX` (the default) is unbounded.
    pub limit: usize,
    /// Count matching rows without materialising keys or values.
    pub count_only: bool,
    /// Whether blocks loaded by the scan populate the block cache.
    /// Defaults `true` for embedded use; the server's SCAN path sets it
    /// `false` so large ranges cannot evict the point-read hot set.
    pub fill_cache: bool,
}

impl Default for ScanOptions<'_> {
    fn default() -> Self {
        ScanOptions {
            start: None,
            end: None,
            prefix: None,
            limit: usize::MAX,
            count_only: false,
            fill_cache: true,
        }
    }
}

impl<'a> ScanOptions<'a> {
    /// A full-range, unbounded scan — the default.
    pub fn all() -> Self {
        ScanOptions::default()
    }

    /// Options scanning `[start, end)`.
    pub fn range(start: &'a [u8], end: &'a [u8]) -> Self {
        ScanOptions { start: Some(start), end: Some(end), ..ScanOptions::default() }
    }

    /// Options scanning from `start` (inclusive) to the end of the keyspace.
    pub fn starting_at(start: &'a [u8]) -> Self {
        ScanOptions { start: Some(start), ..ScanOptions::default() }
    }

    /// Restricts the scan to keys carrying `prefix`.
    pub fn with_prefix(mut self, prefix: &'a [u8]) -> Self {
        self.prefix = Some(prefix);
        self
    }

    /// Caps the number of rows returned.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Counts matching rows without materialising them.
    pub fn counting(mut self) -> Self {
        self.count_only = true;
        self
    }

    /// Disables block-cache population for this scan.
    pub fn without_fill_cache(mut self) -> Self {
        self.fill_cache = false;
        self
    }

    /// The effective inclusive lower bound after folding in `prefix`
    /// (the tighter of `start` and the prefix itself).
    pub fn effective_start(&self) -> Option<&'a [u8]> {
        match (self.start, self.prefix) {
            (Some(s), Some(p)) => Some(if s >= p { s } else { p }),
            (Some(s), None) => Some(s),
            (None, p) => p,
        }
    }

    /// The effective exclusive upper bound after folding in `prefix`
    /// (borrowed when it is `end` itself). `None` means unbounded
    /// (possible even with a prefix of all-0xff bytes, which has no
    /// byte-string successor).
    pub fn effective_end(&self) -> Option<Cow<'a, [u8]>> {
        let from_prefix = self.prefix.and_then(prefix_successor);
        match (self.end, from_prefix) {
            (Some(e), Some(p)) => Some(if e <= p.as_slice() { e.into() } else { p.into() }),
            (Some(e), None) => Some(e.into()),
            (None, p) => p.map(Cow::Owned),
        }
    }
}

/// The smallest byte string greater than every string carrying `prefix`:
/// the prefix with its last non-0xff byte incremented and the tail cut.
/// `None` when every byte is 0xff (no successor exists).
pub(crate) fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

/// Engine configuration.
///
/// # Examples
///
/// ```
/// use noblsm::{Options, SyncMode};
///
/// let opts = Options::default()
///     .with_sync_mode(SyncMode::NobLsm)
///     .with_table_size(64 << 20);
/// assert_eq!(opts.table_size, 64 << 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Target size of one SSTable (the paper evaluates 2 MB and 64 MB).
    pub table_size: u64,
    /// Memtable capacity; a full memtable triggers a minor compaction.
    pub write_buffer_size: u64,
    /// Capacity of the block cache in bytes.
    pub block_cache_bytes: u64,
    /// `L0` file count that triggers a compaction.
    pub l0_compaction_trigger: usize,
    /// `L0` file count at which writes are slowed by 1 ms each.
    pub l0_slowdown_trigger: usize,
    /// `L0` file count at which writes stop until compaction catches up.
    pub l0_stop_trigger: usize,
    /// Byte budget of `L1`; each deeper level is 10×.
    pub level1_max_bytes: u64,
    /// Sync discipline.
    pub sync_mode: SyncMode,
    /// Structural compaction model.
    pub style: CompactionStyle,
    /// Parallel background compaction lanes (1 = LevelDB's single thread).
    pub compaction_lanes: usize,
    /// BoLT: bundle all outputs of one major compaction into a single
    /// physical file synced once; logical tables address into it.
    pub grouped_output: bool,
    /// L2SM: divert recently-hot keys to a parent-level hot table during
    /// major compactions instead of pushing them down.
    pub hot_cold: bool,
    /// NobLSM's reclamation-poll interval (matched to the Ext4 commit
    /// interval in the paper).
    pub reclaim_interval: Nanos,
    /// CPU cost model.
    pub cpu: CpuCosts,
    /// Additional per-operation CPU charged on every put and get. The
    /// baseline models use this for measured real-system overheads that
    /// the structural simulation does not produce by itself (guard
    /// maintenance, logical-SSTable indirection, fine-grained locking).
    pub extra_op_cpu: Nanos,
}

/// Growth factor between the byte budgets of adjacent levels (LevelDB's).
const LEVEL_MULTIPLIER: u64 = 10;

/// Number of on-disk levels (LevelDB's `kNumLevels`).
pub(crate) const NUM_LEVELS: usize = 7;

impl Options {
    /// LevelDB-flavoured defaults (2 MB tables, sync always, one lane).
    pub(crate) fn new() -> Self {
        Options {
            table_size: 2 << 20,
            write_buffer_size: 2 << 20,
            block_cache_bytes: 8 << 20,
            l0_compaction_trigger: 4,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 12,
            level1_max_bytes: 10 << 20,
            sync_mode: SyncMode::Always,
            style: CompactionStyle::Leveled,
            compaction_lanes: 1,
            grouped_output: false,
            hot_cold: false,
            reclaim_interval: Nanos::from_secs(5),
            cpu: CpuCosts::default(),
            extra_op_cpu: Nanos::ZERO,
        }
    }

    /// Sets the sync discipline.
    pub fn with_sync_mode(mut self, mode: SyncMode) -> Self {
        self.sync_mode = mode;
        self
    }

    /// Sets both the SSTable target size and the memtable size (the paper
    /// ties them together: "we set the SSTable in 64 MB").
    pub fn with_table_size(mut self, bytes: u64) -> Self {
        self.table_size = bytes;
        self.write_buffer_size = bytes;
        self
    }

    /// Sets the number of parallel compaction lanes.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes >= 1, "at least one compaction lane is required");
        self.compaction_lanes = lanes;
        self
    }

    /// Byte budget of level `n` (`n >= 1`).
    pub(crate) fn max_bytes_for_level(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        let mut bytes = self.level1_max_bytes;
        for _ in 1..level {
            bytes = bytes.saturating_mul(LEVEL_MULTIPLIER);
        }
        bytes
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_leveldb() {
        let o = Options::default();
        assert_eq!(o.table_size, 2 << 20);
        assert_eq!(o.l0_compaction_trigger, 4);
        assert_eq!(o.l0_slowdown_trigger, 8);
        assert_eq!(o.l0_stop_trigger, 12);
        assert_eq!(o.sync_mode, SyncMode::Always);
        assert_eq!(o.compaction_lanes, 1);
    }

    #[test]
    fn level_budgets_grow_by_multiplier() {
        let o = Options::default();
        assert_eq!(o.max_bytes_for_level(1), 10 << 20);
        assert_eq!(o.max_bytes_for_level(2), 100 << 20);
        assert_eq!(o.max_bytes_for_level(3), 1000 << 20);
    }

    #[test]
    fn scan_options_fold_prefix_into_bounds() {
        let s = ScanOptions::default();
        assert_eq!(s.effective_start(), None);
        assert_eq!(s.effective_end(), None);
        assert_eq!(s.limit, usize::MAX);
        assert!(s.fill_cache && !s.count_only);

        let s = ScanOptions::range(b"b", b"d");
        assert_eq!(s.effective_start(), Some(&b"b"[..]));
        assert_eq!(s.effective_end().as_deref(), Some(&b"d"[..]));

        // Prefix tightens both bounds.
        let s = ScanOptions::range(b"a", b"z").with_prefix(b"key1");
        assert_eq!(s.effective_start(), Some(&b"key1"[..]));
        assert_eq!(s.effective_end().as_deref(), Some(&b"key2"[..]));
        // A tighter explicit bound survives the prefix.
        let s = ScanOptions::range(b"key12", b"key15").with_prefix(b"key1");
        assert_eq!(s.effective_start(), Some(&b"key12"[..]));
        assert_eq!(s.effective_end().as_deref(), Some(&b"key15"[..]));
    }

    #[test]
    fn prefix_successor_handles_carries() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(&[0x61, 0xff]), Some(vec![0x62]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn with_table_size_ties_memtable() {
        let o = Options::default().with_table_size(64 << 20);
        assert_eq!(o.write_buffer_size, 64 << 20);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_lanes_rejected() {
        let _ = Options::default().with_lanes(0);
    }
}
