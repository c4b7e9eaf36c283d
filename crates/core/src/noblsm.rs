//! NobLSM's user-space SSTable dependency tracking (§4.1/§4.3 of the
//! paper).
//!
//! After a major compaction the engine *retains* the `p` compacted old
//! SSTables (the **predecessors**) as backup copies while Ext4
//! asynchronously commits the `q` new SSTables (the **successors**). A
//! global pair of sets accumulates the `p`-to-`q` mappings of every
//! in-flight and historical major compaction whose successors Ext4 has not
//! yet committed. Only when *all* successors of a dependency are found in
//! the kernel's Committed Table (via the `is_committed` syscall) are its
//! predecessors deleted.
//!
//! Predecessors are "shadow" SSTables: the version no longer references
//! them, so no search request is ever directed to them — they exist only
//! for crash recoverability.

use nob_ext4::{Ext4Fs, InodeId};
use nob_sim::Nanos;

/// One predecessor file awaiting reclamation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predecessor {
    /// Logical table number.
    pub number: u64,
    /// Physical file number (for grouped tables).
    pub physical: u64,
}

/// One `p`-to-`q` dependency from a major compaction.
#[derive(Debug, Clone)]
struct Dependency {
    predecessors: Vec<Predecessor>,
    /// Inodes of the successor physical files still awaiting commit.
    waiting: Vec<InodeId>,
}

/// The global pair of predecessor/successor sets.
///
/// # Examples
///
/// ```
/// use noblsm::noblsm::{DependencyTracker, Predecessor};
/// use nob_ext4::InodeId;
///
/// let mut t = DependencyTracker::new();
/// t.register(vec![Predecessor { number: 123, physical: 123 }], vec![InodeId(4567)]);
/// assert_eq!(t.pending_dependencies(), 1);
/// assert_eq!(t.shadow_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct DependencyTracker {
    deps: Vec<Dependency>,
}

impl DependencyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        DependencyTracker::default()
    }

    /// Registers a major compaction's mapping: `predecessors` may be
    /// deleted once every inode in `successors` is committed.
    pub fn register(&mut self, predecessors: Vec<Predecessor>, successors: Vec<InodeId>) {
        if successors.is_empty() {
            // Nothing to wait for (all outputs already durable or the
            // compaction produced none): predecessors are immediately
            // reclaimable; model as an empty-waiting dependency.
            self.deps.push(Dependency { predecessors, waiting: Vec::new() });
        } else {
            self.deps.push(Dependency { predecessors, waiting: successors });
        }
    }

    /// Polls Ext4 (the `is_committed` syscall) and returns every
    /// predecessor whose dependency is fully committed; those are removed
    /// from the tracker.
    pub(crate) fn poll(&mut self, fs: &Ext4Fs, now: Nanos) -> Vec<Predecessor> {
        let mut ready = Vec::new();
        self.deps.retain_mut(|dep| {
            dep.waiting.retain(|ino| !fs.is_committed(*ino, now));
            if dep.waiting.is_empty() {
                ready.append(&mut dep.predecessors);
                false
            } else {
                true
            }
        });
        ready
    }

    /// Number of dependencies still waiting.
    pub fn pending_dependencies(&self) -> usize {
        self.deps.len()
    }

    /// Number of shadow (retained predecessor) files.
    pub fn shadow_count(&self) -> usize {
        self.deps.iter().map(|d| d.predecessors.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nob_ext4::Ext4Config;

    fn pred(n: u64) -> Predecessor {
        Predecessor { number: n, physical: n }
    }

    /// Creates a file, writes, and returns its inode (not yet committed).
    fn make_file(fs: &Ext4Fs, path: &str, now: Nanos) -> InodeId {
        let h = fs.create(path, now).unwrap();
        fs.append(h, b"data", now).unwrap();
        fs.inode_of(path).unwrap()
    }

    #[test]
    fn predecessors_wait_for_all_successors() {
        let fs = Ext4Fs::new(Ext4Config::default());
        // Commit `a` first (a JBD2 commit covers the whole running
        // transaction, so `b` must be dirtied *after* it to stay pending).
        let a = make_file(&fs, "a", Nanos::ZERO);
        let ha = fs.open("a", Nanos::ZERO).unwrap();
        let t1 = fs.fsync(ha, Nanos::ZERO).unwrap();
        let b = make_file(&fs, "b", t1);
        fs.check_commit(&[a, b], t1);
        let mut t = DependencyTracker::new();
        t.register(vec![pred(1), pred(2)], vec![a, b]);
        // `a` is committed but `b` is not: nothing reclaims.
        assert!(t.poll(&fs, t1).is_empty(), "one of two successors is not enough");
        assert_eq!(t.shadow_count(), 2);
        // After the 5 s async commit covers `b`, everything reclaims.
        let later = t1 + Nanos::from_secs(7);
        fs.tick(later);
        let ready = t.poll(&fs, later);
        assert_eq!(ready.len(), 2);
        assert_eq!(t.pending_dependencies(), 0);
    }

    #[test]
    fn multiple_concurrent_dependencies_resolve_independently() {
        let fs = Ext4Fs::new(Ext4Config::default());
        let a = make_file(&fs, "a", Nanos::ZERO);
        fs.check_commit(&[a], Nanos::ZERO);
        let ha = fs.open("a", Nanos::ZERO).unwrap();
        let t1 = fs.fsync(ha, Nanos::ZERO).unwrap();

        let b = make_file(&fs, "b", t1);
        fs.check_commit(&[b], t1);

        let mut t = DependencyTracker::new();
        t.register(vec![pred(10)], vec![a]); // committed already
        t.register(vec![pred(20)], vec![b]); // still pending
        let ready = t.poll(&fs, t1);
        assert_eq!(ready, vec![pred(10)]);
        assert_eq!(t.pending_dependencies(), 1);
    }

    #[test]
    fn empty_successors_reclaim_immediately() {
        let fs = Ext4Fs::new(Ext4Config::default());
        let mut t = DependencyTracker::new();
        t.register(vec![pred(1)], Vec::new());
        let ready = t.poll(&fs, Nanos::ZERO);
        assert_eq!(ready, vec![pred(1)]);
    }
}
