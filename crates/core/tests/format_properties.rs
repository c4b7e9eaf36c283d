//! Property tests for the on-disk formats: SSTable build/read round-trips,
//! WAL encode/decode under truncation, and the write batch that is the WAL
//! record's payload — for arbitrary generated data.

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::{fnv1a, Nanos};
use noblsm::iterator::InternalIterator;
use noblsm::wal::{LogReader, LogWriter};
use noblsm::{DbError, InternalKey, Options, ValueType, WriteBatch};
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
    ) {
        let entries = sorted_entries(raw);
        let opts = Options::default();
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

/// A generated batch operation: a deletion of the key when the tag is 0,
/// else a put of the key and value.
type Op = (u8, Vec<u8>, Vec<u8>);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    // Values past 127 bytes take a two-byte length varint.
    let key = proptest::collection::vec(any::<u8>(), 0..24);
    let value = proptest::collection::vec(any::<u8>(), 0..200);
    proptest::collection::vec((0u8..4, key, value), 0..24)
}

fn append(batch: &mut WriteBatch, (tag, key, value): &Op) {
    match tag {
        0 => batch.delete(key),
        _ => batch.put(key, value),
    }
}

fn batch_of(ops: &[Op]) -> WriteBatch {
    let mut batch = WriteBatch::new();
    ops.iter().for_each(|op| append(&mut batch, op));
    batch
}

fn is_corruption(payload: Vec<u8>) -> bool {
    matches!(WriteBatch::from_payload(payload), Err(DbError::Corruption(_)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch is its payload: what went in reads back through `ops()` in
    /// order, the payload alone rebuilds the batch, folding one batch into
    /// another is the same as building the whole in one go, and the byte
    /// counter is the sum of key and value lengths however the batch came
    /// to be.
    #[test]
    fn write_batch_is_its_payload(
        ops in ops_strategy(),
        cut_frac in 0.0f64..1.0,
        seq in any::<u64>(),
    ) {
        let mut batch = batch_of(&ops);
        let expected: Vec<(ValueType, &[u8], &[u8])> = ops
            .iter()
            .map(|(tag, k, v)| match tag {
                0 => (ValueType::Deletion, k.as_slice(), &[][..]),
                _ => (ValueType::Value, k.as_slice(), v.as_slice()),
            })
            .collect();
        let bytes: u64 = expected.iter().map(|(_, k, v)| (k.len() + v.len()) as u64).sum();
        prop_assert_eq!(batch.ops().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!((batch.len(), batch.is_empty()), (ops.len(), ops.is_empty()));
        prop_assert_eq!(batch.byte_size(), bytes);

        // Stamping the sequence touches nothing but the sequence.
        let unstamped = batch.payload()[8..].to_vec();
        batch.set_sequence(seq);
        prop_assert_eq!(batch.sequence(), seq);
        prop_assert_eq!(&batch.payload()[8..], unstamped.as_slice());

        let parsed = WriteBatch::from_payload(batch.payload().to_vec()).expect("own payload");
        prop_assert_eq!(parsed.payload(), batch.payload());
        prop_assert_eq!(parsed.ops().collect::<Vec<_>>(), expected);
        prop_assert_eq!((parsed.sequence(), parsed.len()), (seq, ops.len()));
        prop_assert_eq!(parsed.byte_size(), bytes);

        let cut = (ops.len() as f64 * cut_frac) as usize;
        let mut folded = batch_of(&ops[..cut]);
        folded.set_sequence(seq);
        folded.extend(&batch_of(&ops[cut..]));
        prop_assert_eq!(folded.payload(), batch.payload());
        prop_assert_eq!(folded.byte_size(), bytes);

        batch.clear();
        prop_assert!(batch.is_empty() && batch.byte_size() == 0 && batch.ops().next().is_none());
    }

    /// Damage to a valid payload is `Corruption`, never a panic and never a
    /// different batch: every strict prefix, any appended byte, an unknown
    /// type byte on any entry, and any entry count but the right one.
    #[test]
    fn damaged_batch_payloads_are_corruption(
        ops in ops_strategy(),
        junk in any::<u8>(),
        bad_type in 2u8..=255,
    ) {
        // Where each entry starts: the payload's length before it went in.
        let mut batch = WriteBatch::new();
        let mut starts = Vec::new();
        for op in &ops {
            starts.push(batch.payload().len());
            append(&mut batch, op);
        }
        let payload = batch.payload().to_vec();

        for cut in 0..payload.len() {
            prop_assert!(is_corruption(payload[..cut].to_vec()), "prefix of {cut} bytes");
        }
        prop_assert!(is_corruption([payload.as_slice(), &[junk]].concat()), "appended byte");
        for &at in &starts {
            let mut damaged = payload.clone();
            damaged[at] = bad_type;
            prop_assert!(is_corruption(damaged), "type byte {bad_type} at {at}");
        }
        let count = ops.len() as u32;
        for wrong in [count.wrapping_sub(1), count + 1, u32::MAX] {
            let mut damaged = payload.clone();
            damaged[8..12].copy_from_slice(&wrong.to_le_bytes());
            prop_assert!(is_corruption(damaged), "count {wrong} for {count} entries");
        }
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

/// A batch's payload and the WAL record framing it, generated at commit
/// e62e8a3 (by the separate encoder a batch went through before it held
/// its own payload) and pinned: the bytes a `Db::write` logs and a leader
/// ships must not move.
#[test]
fn batch_payload_is_pinned() {
    let long = [0xabu8; 300];
    let mut batch = WriteBatch::new();
    batch.put(b"k1", b"v1");
    batch.delete(b"k2");
    batch.put(b"", b"empty key ok");
    batch.put(b"long", &long);
    batch.set_sequence(0x0102_0304_0506_0708);
    let payload = batch.payload();
    assert_eq!(payload.len(), 346);
    assert_eq!(
        hex(&payload[..46]),
        "08070605040302010400000001026b3102763100026b3201000c656d707479206b6579206f6b01046c6f6e67ac02"
    );
    assert_eq!(payload[46..], long);
    let record = LogWriter::new().encode_record(payload);
    assert_eq!((record.len(), hex(&record[..7])), (353, "190aa9215a0101".to_string()));
}

/// The whole image of a fixed 5 000-entry table — data blocks, bloom
/// filter, index, footer — pinned by its hash, taken from the builder as it
/// stood before it reused its buffers and hashed keys as they arrive.
#[test]
fn table_image_is_pinned() {
    use noblsm::sstable::TableBuilder;

    let mut b = TableBuilder::new(&Options::default());
    for i in 0..5_000u64 {
        let key = InternalKey::new(format!("user{:09}", i * 7).as_bytes(), i + 1, ValueType::Value);
        let value: Vec<u8> = if i % 64 < 32 {
            vec![(i % 251) as u8; 100 + (i % 29) as usize]
        } else {
            (0..100 + i % 29).map(|j| (i * 31 + j * 17) as u8).collect()
        };
        b.add(key.as_bytes(), &value);
    }
    let raw = b.finish();
    assert_eq!((raw.len(), fnv1a(&raw)), (652_548, 15_715_471_886_533_784_599));
}
