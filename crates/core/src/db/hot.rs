//! Hotness tracking for the L2SM-like hot/cold separation.
//!
//! A key is *hot* when it was updated at least twice within the recent
//! window (two rotating count maps over hashed keys). Under uniform
//! unique-key loads almost nothing is hot; under skewed update loads
//! (overwrite, YCSB zipfian) the head of the distribution is.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Rotating-window update counter.
#[derive(Debug)]
pub(crate) struct HotTracker {
    current: HashMap<u64, u32>,
    previous: HashMap<u64, u32>,
    window: usize,
    recorded: usize,
}

fn hash_key(key: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl HotTracker {
    /// Creates a tracker whose window holds `window` updates.
    pub(crate) fn new(window: usize) -> Self {
        HotTracker {
            current: HashMap::new(),
            previous: HashMap::new(),
            window: window.max(1),
            recorded: 0,
        }
    }

    /// Records one update of `key`.
    pub(crate) fn record(&mut self, key: &[u8]) {
        *self.current.entry(hash_key(key)).or_insert(0) += 1;
        self.recorded += 1;
        if self.recorded >= self.window {
            self.previous = std::mem::take(&mut self.current);
            self.recorded = 0;
        }
    }

    /// Total recent update count of `key`.
    fn count(&self, key: &[u8]) -> u32 {
        let h = hash_key(key);
        self.current.get(&h).copied().unwrap_or(0) + self.previous.get(&h).copied().unwrap_or(0)
    }

    /// Whether `user_key` was updated at least twice within the window.
    pub(crate) fn is_hot(&self, user_key: &[u8]) -> bool {
        self.count(user_key) >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_update_is_cold() {
        let mut t = HotTracker::new(100);
        t.record(b"k");
        assert!(!t.is_hot(b"k"));
    }

    #[test]
    fn repeated_updates_become_hot() {
        let mut t = HotTracker::new(100);
        t.record(b"k");
        t.record(b"k");
        assert!(t.is_hot(b"k"));
        assert!(!t.is_hot(b"other"));
    }

    #[test]
    fn window_rotation_forgets_old_heat() {
        let mut t = HotTracker::new(4);
        t.record(b"k");
        t.record(b"k");
        assert!(t.is_hot(b"k"));
        // Two full windows of other traffic age the counts out.
        for i in 0..8 {
            t.record(format!("x{i}").as_bytes());
        }
        assert!(!t.is_hot(b"k"));
    }

    #[test]
    fn uniform_unique_load_stays_cold() {
        let mut t = HotTracker::new(1000);
        for i in 0..5000 {
            t.record(format!("key{i}").as_bytes());
        }
        let hot = (0..5000).filter(|i| t.is_hot(format!("key{i}").as_bytes())).count();
        assert!(hot < 50, "uniform load should be almost entirely cold, got {hot}");
    }
}
