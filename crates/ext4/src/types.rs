//! Identifier newtypes and the bytes a read hands back.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The number of an inode, as exposed to user space.
///
/// NobLSM's user-space dependency tracker stores these and hands them to
/// the [`check_commit`](crate::Ext4Fs::check_commit) /
/// [`is_committed`](crate::Ext4Fs::is_committed) syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InodeId(pub u64);

impl fmt::Display for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An open-file handle returned by [`create`](crate::Ext4Fs::create) and
/// [`open`](crate::Ext4Fs::open).
///
/// Handles are plain inode references; there is no per-handle cursor —
/// reads are positional and writes are appends, matching how an LSM engine
/// uses files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle {
    pub(crate) ino: InodeId,
}

/// Bytes returned by [`read_at`](crate::Ext4Fs::read_at): a view of the
/// file's content, shared rather than copied, as an mmap'd read would be.
///
/// An extent is a snapshot. A later append to its file copies the
/// content first while any extent of it is alive, so the bytes an extent
/// shows never change; once none is alive, appends grow the content in
/// place. An extent also keeps its file's whole content in memory, after
/// a deletion too, until it is dropped.
#[derive(Clone)]
pub struct Extent {
    bytes: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Extent {
    /// The view `range` of `bytes`.
    pub(crate) fn new(bytes: Arc<Vec<u8>>, range: Range<usize>) -> Self {
        debug_assert!(range.start <= range.end && range.end <= bytes.len());
        Extent { bytes, range }
    }

    /// Shortens the view to its first `len` bytes, like
    /// [`Vec::truncate`]; a longer `len` changes nothing.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.range.end = self.range.end.min(self.range.start.saturating_add(len));
    }
}

impl Deref for Extent {
    type Target = [u8];

    // Inlined across crates: a block decoder derefs once per field.
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.bytes[self.range.clone()]
    }
}

impl From<Vec<u8>> for Extent {
    fn from(bytes: Vec<u8>) -> Self {
        let range = 0..bytes.len();
        Extent { bytes: Arc::new(bytes), range }
    }
}

impl fmt::Debug for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_display_matches_kernel_style() {
        assert_eq!(InodeId(4567).to_string(), "#4567");
    }

    #[test]
    fn an_extent_views_its_range_and_truncates_within_it() {
        let mut e = Extent::new(Arc::new((0u8..10).collect()), 2..7);
        assert_eq!(&*e, &[2, 3, 4, 5, 6]);
        e.truncate(9);
        assert_eq!(e.len(), 5);
        e.truncate(2);
        assert_eq!(&*e, &[2, 3]);
        e.truncate(usize::MAX);
        assert_eq!(e.len(), 2);
        assert_eq!(format!("{e:?}"), "[2, 3]");
        assert_eq!(&*Extent::from(vec![1, 2]), &[1, 2]);
    }
}
