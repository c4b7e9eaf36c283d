//! Iterator abstractions: the internal-key iterator trait, the merging
//! iterator, and the user-facing [`DbIterator`].

use std::sync::Arc;

use nob_sim::Nanos;

use crate::db::TableChild;
use crate::types::{compare_internal, lookup_key, sequence_of, user_key, value_type_of};
use crate::version::Version;
use crate::{Result, SequenceNumber, ValueType};

/// An iterator over encoded internal keys, charging I/O to a virtual
/// clock.
///
/// Methods that may touch the device take `now: &mut Nanos` and advance it
/// by the cost of any block loads.
pub trait InternalIterator {
    /// Whether the iterator points at an entry.
    fn valid(&self) -> bool;
    /// Positions at the first entry.
    ///
    /// # Errors
    ///
    /// Propagates read failures from the underlying storage.
    fn seek_to_first(&mut self, now: &mut Nanos) -> Result<()>;
    /// Positions at the first entry with key ≥ `target`.
    ///
    /// # Errors
    ///
    /// Propagates read failures from the underlying storage.
    fn seek(&mut self, target: &[u8], now: &mut Nanos) -> Result<()>;
    /// Advances one entry.
    ///
    /// # Errors
    ///
    /// Propagates read failures from the underlying storage.
    fn next(&mut self, now: &mut Nanos) -> Result<()>;
    /// The current internal key.
    fn key(&self) -> &[u8];
    /// The current value.
    fn value(&self) -> &[u8];
}

/// An iterator over an in-memory sorted `(internal key, value)` list —
/// used for memtable snapshots handed to iterators and compactions.
#[derive(Debug)]
pub struct VecIterator {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
}

impl VecIterator {
    /// Wraps a sorted entry list.
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| compare_internal(&w[0].0, &w[1].0).is_lt()));
        let pos = entries.len();
        VecIterator { entries, pos }
    }
}

impl InternalIterator for VecIterator {
    fn valid(&self) -> bool {
        self.pos < self.entries.len()
    }

    fn seek_to_first(&mut self, _now: &mut Nanos) -> Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn seek(&mut self, target: &[u8], _now: &mut Nanos) -> Result<()> {
        self.pos = self.entries.partition_point(|(k, _)| compare_internal(k, target).is_lt());
        Ok(())
    }

    fn next(&mut self, _now: &mut Nanos) -> Result<()> {
        if self.pos < self.entries.len() {
            self.pos += 1;
        }
        Ok(())
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }

    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
}

/// Merges several internal iterators into one sorted stream.
///
/// The children come in two lists, merged as one: a *front* that may
/// borrow (an engine's memtables) and a *tail* that owns what it reads
/// (tables and levels), so the tail can leave the iterator where it stands
/// and be continued by a later one ([`DbIterator::detach`]).
///
/// The current child is the winner of a loser tree: a seek, which moves
/// every child, plays the whole tournament again (k − 1 matches); a step,
/// which moves only the winner, replays the winner's path to the root
/// (⌈log₂ k⌉ matches).
pub struct MergingIterator<'a> {
    front: Vec<Box<dyn InternalIterator + 'a>>,
    tail: Vec<TableChild>,
    /// The tournament over the children, each an index into `front`
    /// followed by `tail`: `tree[0]` is the winner and `tree[n]`, for
    /// `0 < n < k`, the loser of the match at node `n`, played between the
    /// winners of nodes `2n` and `2n + 1`. Child `i` is the leaf at node
    /// `k + i`.
    tree: Vec<usize>,
    /// The winner, when it is valid.
    current: Option<usize>,
}

impl<'a> std::fmt::Debug for MergingIterator<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergingIterator")
            .field("children", &self.len())
            .field("current", &self.current)
            .finish()
    }
}

impl<'a> MergingIterator<'a> {
    /// Creates a merging iterator over `children`.
    pub fn new(children: Vec<Box<dyn InternalIterator + 'a>>) -> Self {
        MergingIterator::with_tail(children, Vec::new())
    }

    /// Creates a merging iterator over `front` followed by `tail`.
    pub(crate) fn with_tail(
        front: Vec<Box<dyn InternalIterator + 'a>>,
        tail: Vec<TableChild>,
    ) -> Self {
        let tree = vec![0; front.len() + tail.len()];
        MergingIterator { front, tail, tree, current: None }
    }

    /// The tail children, each where the merge left it.
    pub(crate) fn into_tail(self) -> Vec<TableChild> {
        self.tail
    }

    /// Seeks the front children only and merges them with a tail that
    /// already rests at or after `target`.
    pub(crate) fn seek_front(&mut self, target: &[u8], now: &mut Nanos) -> Result<()> {
        for c in &mut self.front {
            c.seek(target, now)?;
        }
        self.rebuild();
        Ok(())
    }

    fn len(&self) -> usize {
        self.front.len() + self.tail.len()
    }

    fn child(&self, i: usize) -> &dyn InternalIterator {
        child_of(&self.front, &self.tail, i)
    }

    fn child_mut(&mut self, i: usize) -> &mut (dyn InternalIterator + 'a) {
        match i.checked_sub(self.front.len()) {
            None => &mut *self.front[i],
            Some(t) => self.tail[t].as_dyn_mut(),
        }
    }

    /// Plays every match again, for when every child may have moved.
    fn rebuild(&mut self) {
        if self.tree.is_empty() {
            return;
        }
        let entrant = |i| entrant(&self.front, &self.tail, i);
        let winner = play(&mut self.tree, 1, &entrant);
        self.tree[0] = winner.0;
        self.current = winner.1.map(|_| winner.0);
    }

    /// Replays the matches on the path from the winner's leaf to the root,
    /// for when the winner alone moved: every other match stands.
    fn replay(&mut self) {
        let entrant = |i| entrant(&self.front, &self.tail, i);
        let tree = &mut self.tree;
        let mut winner = entrant(tree[0]);
        let mut n = (tree.len() + winner.0) / 2;
        while n > 0 {
            let other = entrant(tree[n]);
            if beats(other, winner) {
                tree[n] = winner.0;
                winner = other;
            }
            n /= 2;
        }
        tree[0] = winner.0;
        self.current = winner.1.map(|_| winner.0);
    }

    /// The merge's pick before the tournament, kept as the tests' reference:
    /// the valid child with the smallest key; the earliest child wins a tie.
    #[cfg(test)]
    fn find_smallest(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..self.len() {
            let c = self.child(i);
            if !c.valid() {
                continue;
            }
            if best.is_none_or(|b| compare_internal(c.key(), self.child(b).key()).is_lt()) {
                best = Some(i);
            }
        }
        best
    }
}

/// Child `i` of a merge's `front` followed by its `tail`.
fn child_of<'s>(
    front: &'s [Box<dyn InternalIterator + '_>],
    tail: &'s [TableChild],
    i: usize,
) -> &'s dyn InternalIterator {
    match i.checked_sub(front.len()) {
        None => &*front[i],
        Some(t) => tail[t].as_dyn(),
    }
}

/// A child as it enters a match: its index, and its key if it is valid.
type Entrant<'s> = (usize, Option<&'s [u8]>);

fn entrant<'s>(
    front: &'s [Box<dyn InternalIterator + '_>],
    tail: &'s [TableChild],
    i: usize,
) -> Entrant<'s> {
    let c = child_of(front, tail, i);
    (i, c.valid().then(|| c.key()))
}

/// Whether `a` wins its match against `b`. A valid child beats an invalid
/// one; of two valid ones, the smaller key. A tie goes to the lower index,
/// so the earliest child wins.
fn beats(a: Entrant<'_>, b: Entrant<'_>) -> bool {
    match (a.1, b.1) {
        (Some(x), Some(y)) => compare_internal(x, y).then(a.0.cmp(&b.0)).is_lt(),
        (None, None) => a.0 < b.0,
        (key, _) => key.is_some(),
    }
}

/// Plays the matches below node `n` of `tree`, records each loser there
/// and returns the winner. A valid child beats every invalid one, so an
/// invalid winner means every child is exhausted.
fn play<'s>(tree: &mut [usize], n: usize, entrant: &impl Fn(usize) -> Entrant<'s>) -> Entrant<'s> {
    let k = tree.len();
    if n >= k {
        return entrant(n - k);
    }
    let (a, b) = (play(tree, 2 * n, entrant), play(tree, 2 * n + 1, entrant));
    let (winner, loser) = if beats(a, b) { (a, b) } else { (b, a) };
    tree[n] = loser.0;
    winner
}

impl<'a> InternalIterator for MergingIterator<'a> {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn seek_to_first(&mut self, now: &mut Nanos) -> Result<()> {
        for i in 0..self.len() {
            self.child_mut(i).seek_to_first(now)?;
        }
        self.rebuild();
        Ok(())
    }

    fn seek(&mut self, target: &[u8], now: &mut Nanos) -> Result<()> {
        for i in 0..self.len() {
            self.child_mut(i).seek(target, now)?;
        }
        self.rebuild();
        Ok(())
    }

    fn next(&mut self, now: &mut Nanos) -> Result<()> {
        let Some(i) = self.current else { return Ok(()) };
        self.child_mut(i).next(now)?;
        self.replay();
        Ok(())
    }

    fn key(&self) -> &[u8] {
        self.child(self.current.expect("valid")).key()
    }

    fn value(&self) -> &[u8] {
        self.child(self.current.expect("valid")).value()
    }
}

/// The user-facing iterator: walks live user keys in ascending order,
/// hiding tombstones and entries newer than the read snapshot.
///
/// The inner iterator rests on the surfaced entry, and
/// [`key`](DbIterator::key) / [`value`](DbIterator::value) borrow from it.
///
/// `DbIterator` owns its virtual clock; read the accumulated time with
/// [`now`](DbIterator::now) when done.
pub struct DbIterator<'a> {
    inner: MergingIterator<'a>,
    /// The version the table-side children read.
    version: Arc<Version>,
    snapshot: SequenceNumber,
    fill_cache: bool,
    now: Nanos,
    valid: bool,
    per_entry_cpu: Nanos,
    /// A seek has positioned the children.
    positioned: bool,
    /// Scratch: the user key whose older versions are being skipped, or a
    /// seek probe.
    saved_key: Vec<u8>,
}

impl<'a> std::fmt::Debug for DbIterator<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbIterator")
            .field("snapshot", &self.snapshot)
            .field("now", &self.now)
            .finish()
    }
}

impl<'a> DbIterator<'a> {
    pub(crate) fn new(
        inner: MergingIterator<'a>,
        version: Arc<Version>,
        snapshot: SequenceNumber,
        fill_cache: bool,
        now: Nanos,
        per_entry_cpu: Nanos,
    ) -> Self {
        DbIterator {
            inner,
            version,
            snapshot,
            fill_cache,
            now,
            valid: false,
            per_entry_cpu,
            positioned: false,
            saved_key: Vec::new(),
        }
    }

    /// Takes the iterator apart, keeping its table-side children exactly
    /// where they stand so that [`Db::iter_resume`](crate::Db::iter_resume)
    /// can continue them instead of re-seeking. The memtable children,
    /// which borrow the engine, are dropped.
    pub fn detach(self) -> IterState {
        IterState {
            positioned: self.positioned,
            tables: self.inner.into_tail(),
            version: self.version,
            snapshot: self.snapshot,
            fill_cache: self.fill_cache,
        }
    }

    /// Continues a detached iterator's table-side children: only the
    /// memtable children, built anew, are sought to `target`.
    pub(crate) fn resume(&mut self, target: &[u8]) -> Result<()> {
        lookup_key(&mut self.saved_key, target, self.snapshot);
        let mut now = self.now;
        self.inner.seek_front(&self.saved_key, &mut now)?;
        self.now = now;
        self.positioned = true;
        self.advance_to_visible(false)
    }

    /// The iterator's virtual clock.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Whether the iterator points at an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// The current user key.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](DbIterator::valid).
    pub fn key(&self) -> &[u8] {
        assert!(self.valid, "iterator not valid");
        user_key(self.inner.key())
    }

    /// The current value.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](DbIterator::valid).
    pub fn value(&self) -> &[u8] {
        assert!(self.valid, "iterator not valid");
        self.inner.value()
    }

    /// Positions at the first live user key.
    ///
    /// # Errors
    ///
    /// Propagates storage read failures.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.valid = false;
        let mut now = self.now;
        self.inner.seek_to_first(&mut now)?;
        self.now = now;
        self.positioned = true;
        self.advance_to_visible(false)
    }

    /// Positions at the first live user key ≥ `target`.
    ///
    /// # Errors
    ///
    /// Propagates storage read failures.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.valid = false;
        lookup_key(&mut self.saved_key, target, self.snapshot);
        let mut now = self.now;
        self.inner.seek(&self.saved_key, &mut now)?;
        self.now = now;
        self.positioned = true;
        self.advance_to_visible(false)
    }

    /// Advances to the next live user key.
    ///
    /// # Errors
    ///
    /// Propagates storage read failures.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<()> {
        let skipping = std::mem::take(&mut self.valid);
        if skipping {
            // The entry about to be left lends out the current key; keep a
            // copy to skip its older versions by.
            replace(&mut self.saved_key, user_key(self.inner.key()));
            let mut now = self.now;
            self.inner.next(&mut now)?;
            self.now = now;
        }
        self.advance_to_visible(skipping)
    }

    /// Skips entries invisible at the snapshot, tombstoned keys, and —
    /// when `skipping` — any older versions of `saved_key`; stops with the
    /// inner iterator resting on the entry to surface.
    fn advance_to_visible(&mut self, mut skipping: bool) -> Result<()> {
        let mut now = self.now;
        while self.inner.valid() {
            now += self.per_entry_cpu;
            let ikey = self.inner.key();
            let uk = user_key(ikey);
            if sequence_of(ikey) <= self.snapshot && !(skipping && uk == self.saved_key.as_slice())
            {
                if value_type_of(ikey) == Some(ValueType::Value) {
                    self.valid = true;
                    break;
                }
                // Tombstone: hide every older version of this key.
                replace(&mut self.saved_key, uk);
                skipping = true;
            }
            self.inner.next(&mut now)?;
        }
        self.now = now;
        Ok(())
    }
}

/// What is left of a [`DbIterator`] after [`detach`](DbIterator::detach):
/// the version it read and its table and level iterators, each still on the
/// block it had loaded. It holds memory — at most one data block per child
/// — and no file: a state whose version is no longer the engine's current
/// one is dropped by [`Db::iter_resume`](crate::Db::iter_resume), never
/// waited for, so it delays neither a compaction nor the reclamation of a
/// shadow file.
pub struct IterState {
    pub(crate) version: Arc<Version>,
    pub(crate) tables: Vec<TableChild>,
    pub(crate) snapshot: SequenceNumber,
    pub(crate) fill_cache: bool,
    /// A seek had positioned the children, so `iter_resume` can continue
    /// them.
    pub(crate) positioned: bool,
}

impl std::fmt::Debug for IterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterState")
            .field("tables", &self.tables.len())
            .field("snapshot", &self.snapshot)
            .finish()
    }
}

/// Overwrites `buf` with `bytes`, keeping its allocation.
fn replace(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.clear();
    buf.extend_from_slice(bytes);
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::types::InternalKey;

    fn entry(key: &str, seq: u64, vt: ValueType, value: &str) -> (Vec<u8>, Vec<u8>) {
        (InternalKey::new(key.as_bytes(), seq, vt).as_bytes().to_vec(), value.as_bytes().to_vec())
    }

    fn db_iter(m: MergingIterator<'_>, snapshot: u64, per_entry_cpu: Nanos) -> DbIterator<'_> {
        DbIterator::new(m, Arc::new(Version::new(1)), snapshot, true, Nanos::ZERO, per_entry_cpu)
    }

    fn sorted(mut v: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(Vec<u8>, Vec<u8>)> {
        v.sort_by(|a, b| compare_internal(&a.0, &b.0));
        v
    }

    #[test]
    fn vec_iterator_seek_and_walk() {
        let mut it = VecIterator::new(sorted(vec![
            entry("a", 1, ValueType::Value, "1"),
            entry("c", 2, ValueType::Value, "2"),
        ]));
        let mut now = Nanos::ZERO;
        it.seek(InternalKey::new(b"b", 100, ValueType::Value).as_bytes(), &mut now).unwrap();
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"c");
        it.next(&mut now).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn merging_interleaves_sorted() {
        let a = VecIterator::new(sorted(vec![
            entry("a", 1, ValueType::Value, ""),
            entry("c", 1, ValueType::Value, ""),
        ]));
        let b = VecIterator::new(sorted(vec![
            entry("b", 1, ValueType::Value, ""),
            entry("d", 1, ValueType::Value, ""),
        ]));
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        let mut now = Nanos::ZERO;
        m.seek_to_first(&mut now).unwrap();
        let mut keys = Vec::new();
        while m.valid() {
            keys.push(user_key(m.key()).to_vec());
            m.next(&mut now).unwrap();
        }
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn merging_orders_same_user_key_by_sequence() {
        let a = VecIterator::new(sorted(vec![entry("k", 5, ValueType::Value, "old")]));
        let b = VecIterator::new(sorted(vec![entry("k", 9, ValueType::Value, "new")]));
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        let mut now = Nanos::ZERO;
        m.seek_to_first(&mut now).unwrap();
        assert_eq!(m.value(), b"new");
        m.next(&mut now).unwrap();
        assert_eq!(m.value(), b"old");
    }

    /// A positioning call one child received.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        First,
        Seek(Vec<u8>),
        Next,
    }

    type Log = Rc<RefCell<Vec<(usize, Call)>>>;

    /// A child that logs every positioning call into a log it shares with
    /// its siblings.
    struct Recording {
        id: usize,
        inner: VecIterator,
        log: Log,
    }

    impl Recording {
        fn record(&self, call: Call) {
            self.log.borrow_mut().push((self.id, call));
        }
    }

    impl InternalIterator for Recording {
        fn valid(&self) -> bool {
            self.inner.valid()
        }
        fn seek_to_first(&mut self, now: &mut Nanos) -> Result<()> {
            self.record(Call::First);
            self.inner.seek_to_first(now)
        }
        fn seek(&mut self, target: &[u8], now: &mut Nanos) -> Result<()> {
            self.record(Call::Seek(target.to_vec()));
            self.inner.seek(target, now)
        }
        fn next(&mut self, now: &mut Nanos) -> Result<()> {
            self.record(Call::Next);
            self.inner.next(now)
        }
        fn key(&self) -> &[u8] {
            self.inner.key()
        }
        fn value(&self) -> &[u8] {
            self.inner.value()
        }
    }

    /// One step of a random walk.
    #[derive(Debug)]
    enum Step {
        First,
        Seek(Vec<u8>),
        SeekFront(Vec<u8>),
        Next,
    }

    fn take(m: &mut MergingIterator<'_>, step: &Step) {
        let mut clock = Nanos::ZERO;
        let now = &mut clock;
        match step {
            Step::First => m.seek_to_first(now),
            Step::Seek(target) => m.seek(target, now),
            Step::SeekFront(target) => m.seek_front(target, now),
            Step::Next => m.next(now),
        }
        .unwrap();
    }

    /// A merge over `children`, each a recording child of one shared log.
    fn recorded(children: &[Vec<(Vec<u8>, Vec<u8>)>]) -> (MergingIterator<'static>, Log) {
        let log = Log::default();
        let boxed = children.iter().enumerate().map(|(id, entries)| {
            let inner = VecIterator::new(entries.clone());
            Box::new(Recording { id, inner, log: Rc::clone(&log) }) as Box<dyn InternalIterator>
        });
        (MergingIterator::new(boxed.collect()), log)
    }

    /// The tournament picks what the linear merge it replaced picked, and
    /// so moves the same children in the same order: for k from 0 to 40,
    /// over children that are empty, run out at different keys and share
    /// internal keys (a tie the earliest child must win), random walks of
    /// every positioning call give the same entries and the same log of
    /// child calls as the same merge with the linear pick.
    #[test]
    fn the_tournament_picks_what_the_linear_merge_picked() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let ikey = |user: usize, seq: u64| {
            let user = format!("k{user:02}");
            InternalKey::new(user.as_bytes(), seq, ValueType::Value).as_bytes().to_vec()
        };
        let mut pool: Vec<Vec<u8>> =
            (0..30).flat_map(|u| (1..=3).map(move |s| ikey(u, s))).collect();
        pool.sort_by(|a, b| compare_internal(a, b));
        let mut rng = SmallRng::seed_from_u64(32);
        let mut ties = 0;
        for k in [0, 1, 2, 3, 5, 8, 17, 28, 40] {
            for _ in 0..12 {
                // Each child keeps a share of the pool between none and
                // all of it; its value names the child.
                let children: Vec<Vec<(Vec<u8>, Vec<u8>)>> = (0..k)
                    .map(|id| {
                        let keep = [0.0, 0.05, 0.3, 0.9][rng.gen_range(0..4usize)];
                        let value = id.to_string().into_bytes();
                        let mut entries: Vec<_> = pool
                            .iter()
                            .filter(|_| rng.gen_bool(keep))
                            .map(|key| (key.clone(), value.clone()))
                            .collect();
                        // Some children end early, some start late.
                        match rng.gen_range(0..3usize) {
                            0 => entries.truncate(entries.len() / 2),
                            1 => drop(entries.drain(..entries.len() / 2)),
                            _ => {}
                        }
                        entries
                    })
                    .collect();
                let (mut tree, tree_log) = recorded(&children);
                let (mut linear, linear_log) = recorded(&children);
                for _ in 0..80 {
                    let target = |rng: &mut SmallRng| {
                        ikey(rng.gen_range(0..32usize), rng.gen_range(0..5u64))
                    };
                    let step = match rng.gen_range(0..10usize) {
                        0 => Step::First,
                        1 => Step::Seek(target(&mut rng)),
                        2 => Step::SeekFront(target(&mut rng)),
                        _ => Step::Next,
                    };
                    take(&mut tree, &step);
                    take(&mut linear, &step);
                    // The reference overrules its own tree's pick, so the
                    // next step moves the child the linear pick chose.
                    linear.current = linear.find_smallest();
                    assert_eq!(tree.valid(), linear.valid(), "k {k}, after {step:?}");
                    if linear.valid() {
                        assert_eq!(tree.key(), linear.key(), "k {k}, after {step:?}");
                        assert_eq!(tree.value(), linear.value(), "k {k}, after {step:?}");
                        let key = linear.key();
                        ties +=
                            children.iter().filter(|c| c.iter().any(|e| e.0 == key)).count() - 1;
                    }
                    assert_eq!(*tree_log.borrow(), *linear_log.borrow(), "k {k}, after {step:?}");
                }
            }
        }
        assert!(ties > 1000, "the walks met only {ties} tied entries");
    }

    #[test]
    fn db_iterator_hides_tombstones_and_old_versions() {
        let data = sorted(vec![
            entry("a", 1, ValueType::Value, "a1"),
            entry("b", 2, ValueType::Value, "b1"),
            entry("b", 4, ValueType::Deletion, ""),
            entry("c", 3, ValueType::Value, "c1"),
            entry("c", 5, ValueType::Value, "c2"),
        ]);
        let m = MergingIterator::new(vec![
            Box::new(VecIterator::new(data)) as Box<dyn InternalIterator>
        ]);
        let mut it = db_iter(m, 100, Nanos::from_nanos(100));
        it.seek_to_first().unwrap();
        let mut out = Vec::new();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next().unwrap();
        }
        assert_eq!(out, vec![(b"a".to_vec(), b"a1".to_vec()), (b"c".to_vec(), b"c2".to_vec())]);
        assert!(it.now() > Nanos::ZERO);
    }

    #[test]
    fn db_iterator_respects_snapshot() {
        let data = sorted(vec![
            entry("b", 2, ValueType::Value, "old"),
            entry("b", 8, ValueType::Value, "new"),
            entry("d", 9, ValueType::Value, "invisible"),
        ]);
        let m = MergingIterator::new(vec![
            Box::new(VecIterator::new(data)) as Box<dyn InternalIterator>
        ]);
        let mut it = db_iter(m, 5, Nanos::ZERO);
        it.seek_to_first().unwrap();
        assert_eq!(it.value(), b"old");
        it.next().unwrap();
        assert!(!it.valid(), "seq-9 entries are invisible at snapshot 5");
    }

    #[test]
    fn db_iterator_seek_targets_user_keys() {
        let data = sorted(vec![
            entry("apple", 1, ValueType::Value, "1"),
            entry("banana", 2, ValueType::Value, "2"),
            entry("cherry", 3, ValueType::Value, "3"),
        ]);
        let m = MergingIterator::new(vec![
            Box::new(VecIterator::new(data)) as Box<dyn InternalIterator>
        ]);
        let mut it = db_iter(m, 100, Nanos::ZERO);
        it.seek(b"b").unwrap();
        assert_eq!(it.key(), b"banana");
    }
}
