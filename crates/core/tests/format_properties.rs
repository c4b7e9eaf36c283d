//! Property tests for the on-disk formats: SSTable build/read round-trips
//! and WAL encode/decode under truncation — for arbitrary generated data.

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::{fnv1a, Nanos};
use noblsm::iterator::InternalIterator;
use noblsm::wal::{LogReader, LogWriter};
use noblsm::{InternalKey, Options, ValueType};
use proptest::prelude::*;

/// Sorted, deduplicated internal keys from arbitrary user keys.
fn sorted_entries(raw: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(InternalKey, Vec<u8>)> {
    let mut seen = std::collections::BTreeMap::new();
    for (k, v) in raw {
        seen.insert(k, v);
    }
    seen.into_iter()
        .enumerate()
        .map(|(i, (k, v))| (InternalKey::new(&k, (i + 1) as u64, ValueType::Value), v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sorted entry set written as a table reads back exactly, both by
    /// full iteration and by point lookup.
    #[test]
    fn table_round_trips_arbitrary_entries(
        raw in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..40),
             proptest::collection::vec(any::<u8>(), 0..200)),
            1..300,
        ),
        block_size in 64usize..2048,
    ) {
        let entries = sorted_entries(raw);
        let opts = Options { block_size, ..Options::default() };
        let mut builder = noblsm::sstable::TableBuilder::new(&opts);
        for (k, v) in &entries {
            builder.add(k.as_bytes(), v);
        }
        let bytes = builder.finish();

        let fs = Ext4Fs::new(Ext4Config::default());
        let h = fs.create("t", Nanos::ZERO).unwrap();
        let mut now = fs.append(h, &bytes, Nanos::ZERO).unwrap();
        let table = noblsm::sstable::Table::open_file(
            fs,
            h,
            bytes.len() as u64,
            &opts,
            &mut now,
        ).unwrap();

        // Full iteration returns every entry in order.
        let mut it = table.iter(true);
        it.seek_to_first(&mut now).unwrap();
        for (k, v) in &entries {
            prop_assert!(it.valid());
            prop_assert_eq!(it.key(), k.as_bytes());
            prop_assert_eq!(it.value(), v.as_slice());
            it.next(&mut now).unwrap();
        }
        prop_assert!(!it.valid());

        // Point lookups find a sample of the keys.
        for (k, v) in entries.iter().step_by(13) {
            let probe = InternalKey::new(k.user_key(), u64::MAX >> 9, ValueType::Value);
            let got = table.get(probe.as_bytes(), &mut now, true).unwrap();
            prop_assert_eq!(got.map(|(_, val)| val), Some(v.clone()));
        }
    }

    /// Any record sequence round-trips through the WAL format, and any
    /// byte-truncation of the file yields a clean prefix of the records —
    /// never garbage.
    #[test]
    fn wal_truncation_yields_clean_prefix(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..5000), 1..30),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut w = LogWriter::new();
        let mut file = Vec::new();
        let mut offsets = Vec::new();
        for r in &records {
            file.extend_from_slice(&w.encode_record(r));
            offsets.push(file.len());
        }
        // Full read returns everything.
        let mut reader = LogReader::new(file.clone());
        for r in &records {
            let got = reader.next_record();
            prop_assert_eq!(got.as_deref(), Some(r.as_slice()));
        }
        prop_assert!(reader.next_record().is_none());
        prop_assert!(!reader.corruption_detected());

        // Truncated read returns exactly the records wholly before the cut.
        let cut = (file.len() as f64 * cut_frac) as usize;
        let expect = offsets.iter().filter(|&&o| o <= cut).count();
        let mut reader = LogReader::new(file[..cut].to_vec());
        let mut got = 0;
        while let Some(r) = reader.next_record() {
            prop_assert_eq!(r.as_slice(), records[got].as_slice());
            got += 1;
        }
        prop_assert_eq!(got, expect, "cut at {} of {}", cut, file.len());
        prop_assert!(!reader.corruption_detected(), "truncation is not corruption");
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checksummed bytes generated at commit 46b9fa2 (the byte-at-a-time CRC)
/// and pinned: whichever checksum tier runs, the WAL and block formats on
/// disk must not move.
#[test]
fn checksummed_formats_are_pinned() {
    use noblsm::sstable::BlockBuilder;
    use noblsm::wal::{BLOCK_SIZE, HEADER_SIZE};

    // One Full record.
    let full = LogWriter::new().encode_record(b"noblsm format pin");
    assert_eq!(hex(&full), "2ff0595b1100016e6f626c736d20666f726d61742070696e");

    // One record starting 20 bytes before a 32 KiB block boundary: a
    // 13-byte First fragment, then a 17-byte Last fragment in the next block.
    let mut w = LogWriter::new();
    let mut file = w.encode_record(&vec![7u8; BLOCK_SIZE - 20 - HEADER_SIZE]);
    let split = w.encode_record(b"split across a 32 KiB boundary");
    assert_eq!(
        hex(&split),
        "1e099be00d000273706c6974206163726f737320c2a309ea11000461203332204b694220626f756e64617279"
    );
    file.extend_from_slice(&split);
    let mut reader = LogReader::new(file);
    assert_eq!(reader.next_record().map(|r| r.len()), Some(BLOCK_SIZE - 20 - HEADER_SIZE));
    assert_eq!(reader.next_record().as_deref(), Some(&b"split across a 32 KiB boundary"[..]));

    // The 5-byte trailer (type 0 + masked CRC) of a two-entry block.
    let mut b = BlockBuilder::new(16);
    b.add(InternalKey::new(b"apple", 1, ValueType::Value).as_bytes(), b"red");
    b.add(InternalKey::new(b"apricot", 2, ValueType::Value).as_bytes(), b"orange");
    let block = b.finish();
    assert_eq!(block.len(), 54);
    assert_eq!(hex(&block[block.len() - 5..]), "00f1db5aab");
}

/// The whole image of a fixed 5 000-entry table — data blocks, bloom
/// filter, index, footer — pinned by hashes taken from the builder as it
/// stood before it reused its buffers and hashed keys as they arrive, raw
/// and with block compression (values alternate between runs, which
/// compress, and counters, which do not, so both block types appear).
#[test]
fn table_image_is_pinned() {
    use noblsm::sstable::TableBuilder;
    use noblsm::CompressionType;

    let image = |compression| {
        let opts = Options { compression, ..Options::default() };
        let mut b = TableBuilder::new(&opts);
        for i in 0..5_000u64 {
            let key =
                InternalKey::new(format!("user{:09}", i * 7).as_bytes(), i + 1, ValueType::Value);
            let value: Vec<u8> = if i % 64 < 32 {
                vec![(i % 251) as u8; 100 + (i % 29) as usize]
            } else {
                (0..100 + i % 29).map(|j| (i * 31 + j * 17) as u8).collect()
            };
            b.add(key.as_bytes(), &value);
        }
        b.finish()
    };
    let raw = image(CompressionType::None);
    assert_eq!((raw.len(), fnv1a(&raw)), (652_548, 15_715_471_886_533_784_599));
    let rle = image(CompressionType::Rle);
    assert_eq!((rle.len(), fnv1a(&rle)), (374_903, 10_391_758_309_576_846_011));
}
