//! The one reference model of the crash contract.
//!
//! An [`Oracle`] is the ordered log of the puts and deletes an application
//! issued, each stamped with the instant it was issued and, once known,
//! the instant it was acknowledged durable. Every crash check in the
//! workspace logs its writes here and asks [`Oracle::check`] whether a
//! recovered state keeps the contract at a cut. The rule, stated once:
//!
//! * A recovered value must have been put to that key at or before the
//!   cut; otherwise the key is *fabricated*.
//! * Take the last write to a key acknowledged by the cut. The recovered
//!   state must hold that write's value, or the value of a later write to
//!   that key issued by the cut. The key may be absent only if that
//!   write, or such a later one, is a delete. Otherwise the key is *lost*.
//!
//! When every write is acknowledged by the cut, the rule is exact
//! equality with the log applied in order.
//!
//! # Examples
//!
//! ```
//! use nob_sim::oracle::Oracle;
//! use nob_sim::Nanos;
//!
//! let mut oracle = Oracle::default();
//! oracle.put(Nanos::from_micros(1), b"k", b"v1");
//! oracle.ack(.., Nanos::from_micros(2));
//! oracle.put(Nanos::from_micros(3), b"k", b"v2");
//! let rows = [(b"k".to_vec(), b"v2".to_vec())];
//! // Cut at 4 µs: the unacknowledged v2 may have survived.
//! assert!(oracle.check(&rows, Nanos::from_micros(4)).holds());
//! // Cut at 2 µs: v2 was not issued yet.
//! assert_eq!(oracle.check(&rows, Nanos::from_micros(2)).fabricated, [b"k".to_vec()]);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::RangeBounds;

use crate::Nanos;

/// One logged write: a put, or a delete when `value` is `None`.
#[derive(Debug, Clone)]
struct Write {
    key: Vec<u8>,
    value: Option<Vec<u8>>,
    issued: Nanos,
    acked: Option<Nanos>,
}

/// The ordered log of writes a crash check compares a recovered state
/// against (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    log: Vec<Write>,
}

/// What [`Oracle::check`] found at one cut.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Keys whose last write acknowledged by the cut is a put, in key
    /// order: the pairs the recovered state must keep.
    pub acked: Vec<Vec<u8>>,
    /// Keys whose recovered state breaks the acknowledged-write rule, in
    /// key order.
    pub lost: Vec<Vec<u8>>,
    /// Recovered keys whose value was never put to them by the cut, in
    /// row order.
    pub fabricated: Vec<Vec<u8>>,
}

impl Verdict {
    /// Whether the recovered state keeps the contract.
    pub fn holds(&self) -> bool {
        self.lost.is_empty() && self.fabricated.is_empty()
    }
}

/// The acked count and the failing keys, as (lossy) text.
impl fmt::Debug for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = |ks: &[Vec<u8>]| {
            ks.iter().map(|k| String::from_utf8_lossy(k).into_owned()).collect::<Vec<_>>()
        };
        let (acked, lost, fabricated) =
            (self.acked.len(), text(&self.lost), text(&self.fabricated));
        write!(f, "Verdict {{ acked: {acked}, lost: {lost:?}, fabricated: {fabricated:?} }}")
    }
}

impl Oracle {
    /// Logs a put of `key` = `value` issued at `issued`.
    pub fn put(&mut self, issued: Nanos, key: &[u8], value: &[u8]) {
        self.log.push(Write {
            key: key.to_vec(),
            value: Some(value.to_vec()),
            issued,
            acked: None,
        });
    }

    /// Logs a delete of `key` issued at `issued`.
    pub fn delete(&mut self, issued: Nanos, key: &[u8]) {
        self.log.push(Write { key: key.to_vec(), value: None, issued, acked: None });
    }

    /// Writes logged so far: the index the next write gets.
    pub fn logged(&self) -> usize {
        self.log.len()
    }

    /// Acknowledges the writes at the given log indices as durable at
    /// `at`. A write keeps its first acknowledgement.
    pub fn ack(&mut self, writes: impl RangeBounds<usize>, at: Nanos) {
        let range = (writes.start_bound().cloned(), writes.end_bound().cloned());
        for w in &mut self.log[range] {
            debug_assert!(w.issued <= at, "a write is acknowledged before it was issued");
            w.acked.get_or_insert(at);
        }
    }

    /// Drops every write not yet acknowledged: they died with the node
    /// that took them, so no later state may show them.
    pub fn forget_unacked(&mut self) {
        self.log.retain(|w| w.acked.is_some());
    }

    /// Checks the recovered `rows` (unique keys) against the log at `cut`.
    pub fn check(&self, rows: &[(Vec<u8>, Vec<u8>)], cut: Nanos) -> Verdict {
        let mut by_key: BTreeMap<&[u8], Vec<&Write>> = BTreeMap::new();
        for w in &self.log {
            by_key.entry(&w.key).or_default().push(w);
        }
        let recovered: HashMap<&[u8], &[u8]> =
            rows.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        let mut verdict = Verdict::default();
        for (key, writes) in &by_key {
            let acked = |w: &&Write| w.acked.is_some_and(|a| a <= cut);
            let Some(last) = writes.iter().rposition(acked) else { continue };
            if writes[last].value.is_some() {
                verdict.acked.push(key.to_vec());
            }
            let got = recovered.get(key).copied();
            if !writes[last..].iter().any(|w| w.issued <= cut && w.value.as_deref() == got) {
                verdict.lost.push(key.to_vec());
            }
        }
        for (key, value) in rows {
            let put = by_key.get(key.as_slice()).is_some_and(|writes| {
                writes.iter().any(|w| w.issued <= cut && w.value.as_deref() == Some(value))
            });
            if !put {
                verdict.fabricated.push(key.clone());
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Nanos {
        Nanos::from_micros(us)
    }

    /// Checks `pairs` at `cut` µs: (acked, lost, fabricated) key names.
    fn check(o: &Oracle, pairs: &[(&str, &str)], cut: u64) -> (String, String, String) {
        let bytes = |s: &str| s.as_bytes().to_vec();
        let rows: Vec<_> = pairs.iter().map(|(k, v)| (bytes(k), bytes(v))).collect();
        let v = o.check(&rows, t(cut));
        let names = |ks: Vec<Vec<u8>>| String::from_utf8(ks.concat()).unwrap();
        (names(v.acked), names(v.lost), names(v.fabricated))
    }

    fn s(names: [&str; 3]) -> (String, String, String) {
        (names[0].into(), names[1].into(), names[2].into())
    }

    /// `k` = v0 at 1 and v1 at 2, both acked at 3; v2 issued at 4 and v3
    /// at 10, never acked.
    fn versions() -> Oracle {
        let mut o = Oracle::default();
        o.put(t(1), b"k", b"v0");
        o.put(t(2), b"k", b"v1");
        o.ack(.., t(3));
        o.put(t(4), b"k", b"v2");
        o.put(t(10), b"k", b"v3");
        o
    }

    #[test]
    fn each_version_an_acked_key_may_recover_as() {
        let o = versions();
        assert_eq!(check(&o, &[("k", "v1")], 5), s(["k", "", ""]), "the acked version");
        assert_eq!(check(&o, &[("k", "v0")], 5), s(["k", "k", ""]), "an older one is lost");
        assert_eq!(check(&o, &[], 5), s(["k", "k", ""]), "so is none");
        assert_eq!(check(&o, &[("k", "v2")], 5), s(["k", "", ""]), "a later one issued by 5");
        assert_eq!(check(&o, &[("k", "v3")], 5), s(["k", "k", "k"]), "one issued after 5");
        assert_eq!(check(&o, &[("j", "v1")], 5), s(["k", "k", "j"]), "one never written");
    }

    #[test]
    fn a_delete_after_the_ack_lets_the_key_go() {
        let mut o = versions();
        o.delete(t(5), b"k");
        assert_eq!(check(&o, &[], 6), s(["k", "", ""]), "issued by the cut");
        assert_eq!(check(&o, &[], 4), s(["k", "k", ""]), "issued after it");
        o.ack(4.., t(7));
        assert_eq!(check(&o, &[], 8), s(["", "", ""]), "an acked delete acks no pair");
        assert_eq!(check(&o, &[("k", "v1")], 8), s(["", "k", ""]), "and stays done");
    }

    #[test]
    fn a_two_part_ticket_with_one_part_missing_is_lost() {
        let mut o = Oracle::default();
        let first = o.logged();
        o.put(t(1), b"a", b"1");
        o.put(t(1), b"b", b"1");
        o.put(t(1), b"c", b"1");
        o.ack(first..first + 2, t(4));
        assert_eq!(check(&o, &[("a", "1")], 4), s(["ab", "b", ""]));
        assert_eq!(check(&o, &[("a", "1")], 3), s(["", "", ""]), "not acknowledged by 3");
    }

    #[test]
    fn every_write_acked_is_exact_equality() {
        let mut o = Oracle::default();
        o.put(t(1), b"a", b"1");
        o.put(t(2), b"b", b"1");
        o.put(t(3), b"a", b"2");
        o.delete(t(4), b"b");
        o.ack(.., t(5));
        o.put(t(6), b"c", b"1");
        o.forget_unacked();
        assert_eq!(check(&o, &[("a", "2")], 7), s(["a", "", ""]));
        assert_eq!(check(&o, &[], 7), s(["a", "a", ""]));
        assert_eq!(check(&o, &[("a", "1")], 7), s(["a", "a", ""]));
        assert_eq!(check(&o, &[("a", "2"), ("b", "1")], 7), s(["a", "b", ""]));
        assert_eq!(check(&o, &[("a", "2"), ("c", "1")], 7), s(["a", "", "c"]), "c died");
    }
}
