//! Decoder hardening: every on-disk parser must handle *arbitrary* bytes
//! without panicking — returning an error or clean EOF instead. Crashed
//! and bit-rotted files flow through these paths during recovery, so this
//! is part of the crash-safety story.

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::sstable::{Block, BlockHandle, Footer, Table, TABLE_MAGIC};
use noblsm::version::VersionEdit;
use noblsm::wal::LogReader;
use noblsm::Options;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// VersionEdit::decode never panics.
    #[test]
    fn version_edit_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = VersionEdit::decode(&bytes);
    }

    /// Footer::decode never panics, for any input length.
    #[test]
    fn footer_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Footer::decode(&bytes);
    }

    /// The footer is the one part of a table no checksum covers: whatever
    /// its 40 handle bytes say — raw noise, or well-formed handles with
    /// arbitrary (mostly huge) offsets and sizes — opening the table
    /// returns a table or an error and never unwinds.
    #[test]
    fn table_open_is_total_over_footer_bytes(
        body in proptest::collection::vec(any::<u8>(), 0..600),
        noise in proptest::collection::vec(any::<u8>(), 40..41),
        filter in (any::<u64>(), any::<u64>()),
        index in (any::<u64>(), any::<u64>()),
    ) {
        let handles = Footer {
            filter: BlockHandle::new(filter.0, filter.1),
            index: BlockHandle::new(index.0, index.1),
        }
        .encode();
        for footer in [&noise[..], &handles[..40]] {
            let mut image = body.clone();
            image.extend_from_slice(footer);
            image.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
            let fs = Ext4Fs::new(Ext4Config::default());
            let h = fs.create("t.sst", Nanos::ZERO).unwrap();
            let mut now = fs.append(h, &image, Nanos::ZERO).unwrap();
            let _ = Table::open_file(fs, h, image.len() as u64, &Options::default(), &mut now);
        }
    }

    /// Block::parse never panics, and a parsed block's iterator never
    /// panics on seeks/walks even when the restart array is garbage.
    #[test]
    fn block_parse_and_iterate_are_total(
        bytes in proptest::collection::vec(any::<u8>(), 4..1024),
        probe in proptest::collection::vec(any::<u8>(), 8..24),
    ) {
        if let Ok(block) = Block::parse(bytes) {
            let mut it = block.iter();
            it.seek_to_first();
            for _ in 0..20 {
                if !it.valid() {
                    break;
                }
                let _ = it.key();
                let _ = it.value();
                it.next();
            }
            it.seek(&probe);
            it.next();
        }
    }

    /// The WAL reader never panics and never returns more payload bytes
    /// than the file holds.
    #[test]
    fn wal_reader_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let len = bytes.len();
        let mut r = LogReader::new(bytes);
        let mut total = 0usize;
        while let Some(rec) = r.next_record() {
            total += rec.len();
            prop_assert!(total <= len, "yielded more bytes than the file contains");
        }
    }

    /// A valid edit corrupted by a single bit flip either still decodes
    /// (the flip hit a value) or errors — never panics, never decodes to
    /// something with more files than the original.
    #[test]
    fn version_edit_survives_bit_flips(
        numbers in proptest::collection::vec(1u64..1_000_000, 1..10),
        flip_byte in 0usize..256,
        flip_bit in 0u8..8,
    ) {
        let mut edit = VersionEdit::new();
        edit.set_log_number(7);
        for n in &numbers {
            edit.delete_file(1, *n);
        }
        let mut bytes = edit.encode();
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        if let Ok(decoded) = VersionEdit::decode(&bytes) {
            prop_assert!(decoded.deleted_files.len() <= numbers.len() + 1);
        }
    }
}
