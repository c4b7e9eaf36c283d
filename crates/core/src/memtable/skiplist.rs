//! A deterministic skiplist over encoded internal keys.
//!
//! Everything lives in two flat arenas, so an insert copies its bytes once
//! and allocates nothing of its own: `bytes` holds every entry's key and
//! value back to back, and `nodes` holds every node as a run of `u32`
//! words — where its bytes are, then its tower of forward links. A node is
//! named by the index of its first word; the head sentinel is node 0, so 0
//! doubles as "no successor". Heights are drawn from a seeded RNG so runs
//! are reproducible.

use std::cmp::Ordering;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::types::{compare_internal, compare_internal_to_parts};

const MAX_HEIGHT: usize = 12;
const BRANCHING: u32 = 4;

/// Words of a node before its tower: key offset in `bytes`, key length,
/// value length (the value follows the key).
const KEY_OFFSET: usize = 0;
const KEY_LEN: usize = 1;
const VALUE_LEN: usize = 2;
const TOWER: usize = 3;

/// An ordered map from encoded internal keys to values.
///
/// Keys are compared with the internal-key comparator (user key ascending,
/// sequence descending). Duplicate internal keys are not expected (the
/// engine assigns unique sequence numbers); a duplicate insert simply adds
/// a second node adjacent to the first.
#[derive(Debug)]
pub struct SkipList {
    bytes: Vec<u8>,
    /// `nodes[..TOWER + MAX_HEIGHT]` is the head sentinel.
    nodes: Vec<u32>,
    height: usize,
    len: usize,
    rng: SmallRng,
}

impl SkipList {
    /// Creates an empty list.
    pub fn new() -> Self {
        SkipList {
            bytes: Vec::new(),
            nodes: vec![0; TOWER + MAX_HEIGHT],
            height: 1,
            len: 0,
            rng: SmallRng::seed_from_u64(0x5eed_1357),
        }
    }

    /// Whether the list is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn random_height(&mut self) -> usize {
        let mut h = 1;
        while h < MAX_HEIGHT && self.rng.gen_ratio(1, BRANCHING) {
            h += 1;
        }
        h
    }

    fn next(&self, node: u32, level: usize) -> u32 {
        self.nodes[node as usize + TOWER + level]
    }

    fn key(&self, node: u32) -> &[u8] {
        let n = node as usize;
        let start = self.nodes[n + KEY_OFFSET] as usize;
        &self.bytes[start..start + self.nodes[n + KEY_LEN] as usize]
    }

    fn value(&self, node: u32) -> &[u8] {
        let n = node as usize;
        let start = (self.nodes[n + KEY_OFFSET] + self.nodes[n + KEY_LEN]) as usize;
        &self.bytes[start..start + self.nodes[n + VALUE_LEN] as usize]
    }

    fn entry(&self, node: u32) -> Option<(&[u8], &[u8])> {
        (node != 0).then(|| (self.key(node), self.value(node)))
    }

    /// Finds, per level, the last node whose key `target_cmp` orders
    /// before the target (`Less`).
    fn find_prevs(&self, target_cmp: impl Fn(&[u8]) -> Ordering) -> [u32; MAX_HEIGHT] {
        let mut prevs = [0u32; MAX_HEIGHT];
        let mut x = 0u32; // head
        for level in (0..self.height).rev() {
            loop {
                let nxt = self.next(x, level);
                if nxt != 0 && target_cmp(self.key(nxt)).is_lt() {
                    x = nxt;
                } else {
                    break;
                }
            }
            prevs[level] = x;
        }
        prevs
    }

    /// Inserts an entry.
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.insert_parts(&key, &[], &value);
    }

    /// Inserts the entry whose key is `key_head ++ key_tail`, copying the
    /// three slices straight into the arena (the memtable hands over a user
    /// key and its trailer without joining them first).
    ///
    /// # Panics
    ///
    /// Panics if either arena would outgrow `u32` addressing (4 GiB) — a
    /// memtable is sealed at a few MiB.
    pub(crate) fn insert_parts(&mut self, key_head: &[u8], key_tail: &[u8], value: &[u8]) {
        let key_start = self.bytes.len();
        self.bytes.extend_from_slice(key_head);
        self.bytes.extend_from_slice(key_tail);
        let key_len = self.bytes.len() - key_start;
        self.bytes.extend_from_slice(value);
        // Every offset and node name stored below is at most one of these.
        assert!(
            self.bytes.len().max(self.nodes.len()) <= u32::MAX as usize,
            "memtable arena exceeds u32 addressing"
        );
        let key = &self.bytes[key_start..key_start + key_len];
        let prevs = self.find_prevs(|k| compare_internal(k, key));
        let h = self.random_height();
        if h > self.height {
            self.height = h;
        }
        let node = self.nodes.len() as u32;
        self.nodes.extend_from_slice(&[key_start as u32, key_len as u32, value.len() as u32]);
        for (level, &p) in prevs[..h].iter().enumerate() {
            let link = p as usize + TOWER + level;
            self.nodes.push(self.nodes[link]);
            self.nodes[link] = node;
        }
        self.len += 1;
    }

    /// The first entry with key >= `user_key ++ trailer`, found without
    /// building that key.
    // Every memtable GET, like `Cursor::seek` and `Cursor::key` every scan
    // step: `#[inline]` keeps the three inlined into their callers whatever
    // the crate's codegen-unit split (a split that left them out of line
    // cost the ledger's `scan` ≈ 10 % of its host time).
    #[inline]
    pub(crate) fn seek_parts(&self, user_key: &[u8], trailer: u64) -> Option<(&[u8], &[u8])> {
        self.entry(self.first_at_or_after(|k| compare_internal_to_parts(k, user_key, trailer)))
    }

    fn first_at_or_after(&self, target_cmp: impl Fn(&[u8]) -> Ordering) -> u32 {
        self.next(self.find_prevs(target_cmp)[0], 0)
    }

    /// Iterates entries in key order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter { list: self, node: self.next(0, 0) }
    }

    /// Creates a positionable cursor (initially invalid).
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor { list: self, node: 0 }
    }
}

/// A positionable cursor over a [`SkipList`]; node 0 (the head sentinel)
/// means "invalid".
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    list: &'a SkipList,
    node: u32,
}

impl<'a> Cursor<'a> {
    /// Whether the cursor points at an entry.
    pub(crate) fn valid(&self) -> bool {
        self.node != 0
    }

    /// Positions at the first entry.
    pub(crate) fn seek_to_first(&mut self) {
        self.node = self.list.next(0, 0);
    }

    /// Positions at the first entry with key ≥ `target`.
    #[inline]
    pub(crate) fn seek(&mut self, target: &[u8]) {
        self.node = self.list.first_at_or_after(|k| compare_internal(k, target));
    }

    /// Advances one entry (no-op when invalid).
    pub(crate) fn next(&mut self) {
        if self.node != 0 {
            self.node = self.list.next(self.node, 0);
        }
    }

    /// The current key.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not [`valid`](Cursor::valid).
    #[inline]
    pub(crate) fn key(&self) -> &'a [u8] {
        assert!(self.valid(), "cursor not valid");
        self.list.key(self.node)
    }

    /// The current value.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not [`valid`](Cursor::valid).
    pub(crate) fn value(&self) -> &'a [u8] {
        assert!(self.valid(), "cursor not valid");
        self.list.value(self.node)
    }
}

impl Default for SkipList {
    fn default() -> Self {
        SkipList::new()
    }
}

/// Iterator over a [`SkipList`] in key order.
#[derive(Debug)]
pub(crate) struct Iter<'a> {
    list: &'a SkipList,
    node: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let entry = self.list.entry(self.node)?;
        self.node = self.list.next(self.node, 0);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternalKey, ValueType};

    fn ik(key: &str, seq: u64) -> Vec<u8> {
        InternalKey::new(key.as_bytes(), seq, ValueType::Value).as_bytes().to_vec()
    }

    #[test]
    fn insert_and_iterate_sorted() {
        let mut l = SkipList::new();
        for (k, s) in [("d", 4), ("a", 1), ("c", 3), ("b", 2)] {
            l.insert(ik(k, s), vec![]);
        }
        let keys: Vec<Vec<u8>> = l.iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys.len(), 4);
        for w in keys.windows(2) {
            assert!(compare_internal(&w[0], &w[1]).is_lt());
        }
    }

    #[test]
    fn seek_finds_first_at_or_after() {
        let mut l = SkipList::new();
        l.insert(ik("b", 1), b"vb".to_vec());
        l.insert(ik("d", 1), b"vd".to_vec());
        let mut c = l.cursor();
        c.seek(&ik("c", u64::MAX >> 8));
        assert_eq!(crate::types::user_key(c.key()), b"d");
        assert_eq!(c.value(), b"vd");
        c.seek(&ik("e", 1));
        assert!(!c.valid());
    }

    #[test]
    fn large_insert_stays_sorted_against_model() {
        use std::collections::BTreeMap;
        let mut l = SkipList::new();
        let mut model = BTreeMap::new();
        let mut state = 12345u64;
        for i in 0..2000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = format!("key{:05}", state % 500);
            l.insert(ik(&key, i), i.to_le_bytes().to_vec());
            model.insert((key, u64::MAX - i), i);
        }
        assert_eq!(l.len, 2000);
        let got: Vec<(String, u64)> = l
            .iter()
            .map(|(k, _)| {
                (
                    String::from_utf8(crate::types::user_key(k).to_vec()).unwrap(),
                    u64::MAX - crate::types::sequence_of(k),
                )
            })
            .collect();
        let want: Vec<(String, u64)> = model.keys().cloned().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deterministic_across_instances() {
        let build = || {
            let mut l = SkipList::new();
            for i in 0..100u64 {
                l.insert(ik(&format!("{i:03}"), i), vec![]);
            }
            l.nodes
        };
        assert_eq!(build(), build(), "heights and links must be reproducible");
    }

    #[test]
    fn twenty_thousand_random_inserts_match_the_btree_model_in_both_key_forms() {
        use std::collections::BTreeMap;
        // The model orders as the comparator does: user key ascending,
        // sequence descending.
        let mut model: BTreeMap<(Vec<u8>, std::cmp::Reverse<u64>), Vec<u8>> = BTreeMap::new();
        let mut l = SkipList::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for seq in 1..=20_000u64 {
            // Keys of varying length over a space small enough to repeat,
            // values of varying length including empty.
            let key = format!("k{:0width$}", draw() % 6_000, width = 1 + (draw() % 9) as usize);
            let value = vec![seq as u8; (draw() % 40) as usize];
            // Alternate the two ways in: a joined key, and the memtable's
            // split user key and trailer.
            let joined = ik(&key, seq);
            if seq % 2 == 0 {
                l.insert(joined, value.clone());
            } else {
                l.insert_parts(key.as_bytes(), &joined[joined.len() - 8..], &value);
            }
            model.insert((key.into_bytes(), std::cmp::Reverse(seq)), value);
        }
        assert_eq!(l.len, model.len());
        let want: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .map(|((k, s), v)| (ik(std::str::from_utf8(k).unwrap(), s.0), v.clone()))
            .collect();

        let forward: Vec<(Vec<u8>, Vec<u8>)> =
            l.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(forward, want);

        // Seeks — by joined key and by parts — land where the model's
        // range does; stepping on from there brackets the target.
        for probe in 0..2_000u64 {
            let key = format!("k{:0width$}", draw() % 6_500, width = 1 + (draw() % 9) as usize);
            let seq = draw() % 21_000;
            let target = ik(&key, seq);
            let expect = want.partition_point(|(k, _)| compare_internal(k, &target).is_lt());
            let expect_entry = want.get(expect).map(|(k, v)| (k.as_slice(), v.as_slice()));
            let trailer = u64::from_le_bytes(target[target.len() - 8..].try_into().unwrap());
            assert_eq!(l.seek_parts(key.as_bytes(), trailer), expect_entry, "probe {probe}");
            let mut c = l.cursor();
            c.seek(&target);
            assert_eq!(c.valid().then(|| c.key()), expect_entry.map(|(k, _)| k));
            if c.valid() {
                c.next();
                let after = want.get(expect + 1).map(|(k, _)| k.as_slice());
                assert_eq!(c.valid().then(|| c.key()), after);
            }
        }
    }
}
