//! The retained change stream: per-shard chains of shipped group-commit
//! records.
//!
//! Both sides of a replication pair keep a [`ChangeLog`] — the leader
//! appends records as its store commits them, the follower appends as it
//! applies them. Keeping the log on *both* sides is what makes promotion
//! seamless for subscribers: a changefeed that was following the old
//! leader resumes against the promoted follower from any sequence number
//! the follower has applied, with no gap and no duplicate.

use nob_sim::Nanos;
use nob_store::ShippedRecord;
use nob_trace::TraceCtx;
use noblsm::{Error, Result};

/// One retained record: a shipped group tagged with the leadership epoch
/// it was committed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The shard the group committed on.
    pub shard: usize,
    /// Leadership epoch at commit time.
    pub epoch: u64,
    /// Sequence of the group's first entry.
    pub first_seq: u64,
    /// Sequence of the group's last entry.
    pub last_seq: u64,
    /// The group's batch as logged (`noblsm::WriteBatch::payload`).
    pub payload: Vec<u8>,
    /// The group's durable instant on the leader clock.
    pub(crate) committed_at: Nanos,
    /// Causal context this record rides under ([`TraceCtx::NONE`] when
    /// untraced). On a leader's log this is the `repl_ship` span's
    /// identity (whose parent is the group-commit span); a follower
    /// stores the identity it received over the wire and parents its
    /// `repl_apply` span beneath it.
    pub(crate) ctx: TraceCtx,
}

impl LogRecord {
    /// Tags a store-shipped record with its epoch, carrying the group's
    /// causal context (the leader's absorb replaces it with the ship
    /// span's identity once that span is minted).
    pub(crate) fn from_shipped(rec: ShippedRecord, epoch: u64) -> LogRecord {
        LogRecord {
            shard: rec.shard,
            epoch,
            first_seq: rec.first_seq,
            last_seq: rec.last_seq,
            payload: rec.payload,
            committed_at: rec.committed_at,
            ctx: rec.ctx,
        }
    }
}

/// Per-shard chains of [`LogRecord`]s with gap-free append and
/// resume-from-sequence reads.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    shards: Vec<Vec<LogRecord>>,
}

impl ChangeLog {
    /// An empty log over `shards` shards.
    pub(crate) fn new(shards: usize) -> ChangeLog {
        ChangeLog { shards: vec![Vec::new(); shards] }
    }

    /// The last appended sequence on `shard` (0 before the first record).
    pub(crate) fn last_seq(&self, shard: usize) -> u64 {
        self.shards[shard].last().map_or(0, |r| r.last_seq)
    }

    /// Appends `rec` to its shard's chain.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when `rec` does not extend the
    /// chain contiguously (`first_seq` must be the chain's
    /// `last_seq + 1`) or its range is inverted.
    pub(crate) fn append(&mut self, rec: LogRecord) -> Result<()> {
        if rec.shard >= self.shards.len() {
            return Err(Error::Replication(format!(
                "record for shard {} but the log has {} shards",
                rec.shard,
                self.shards.len()
            )));
        }
        if rec.last_seq < rec.first_seq {
            return Err(Error::Replication(format!(
                "inverted record range [{}, {}]",
                rec.first_seq, rec.last_seq
            )));
        }
        let expect = self.last_seq(rec.shard) + 1;
        if rec.first_seq != expect {
            return Err(Error::Replication(format!(
                "log gap on shard {}: expected seq {expect}, record starts at {}",
                rec.shard, rec.first_seq
            )));
        }
        self.shards[rec.shard].push(rec);
        Ok(())
    }

    /// The records on `shard` containing sequence `from_seq` and
    /// everything after it. `from_seq` past the chain's end is an empty
    /// slice (nothing new yet).
    pub fn records_from(&self, shard: usize, from_seq: u64) -> &[LogRecord] {
        let chain = &self.shards[shard];
        // First record whose range reaches from_seq.
        let at = chain.partition_point(|r| r.last_seq < from_seq);
        &chain[at..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(shard: usize, first: u64, last: u64) -> LogRecord {
        LogRecord {
            shard,
            epoch: 1,
            first_seq: first,
            last_seq: last,
            payload: vec![0xaa; 4],
            committed_at: Nanos::from_micros(first),
            ctx: TraceCtx::NONE,
        }
    }

    #[test]
    fn chains_append_contiguously_per_shard() {
        let mut log = ChangeLog::new(2);
        log.append(rec(0, 1, 3)).unwrap();
        log.append(rec(1, 1, 1)).unwrap();
        log.append(rec(0, 4, 4)).unwrap();
        assert_eq!(log.last_seq(0), 4);
        assert_eq!(log.last_seq(1), 1);
        let err = log.append(rec(0, 6, 7)).unwrap_err();
        assert!(matches!(err, Error::Replication(_)), "{err}");
        let err = log.append(rec(1, 3, 2)).unwrap_err();
        assert!(matches!(err, Error::Replication(_)), "{err}");
    }

    #[test]
    fn records_from_lands_mid_chain() {
        let mut log = ChangeLog::new(1);
        log.append(rec(0, 1, 3)).unwrap();
        log.append(rec(0, 4, 4)).unwrap();
        log.append(rec(0, 5, 9)).unwrap();
        // Sequence 4 starts at the second record.
        let tail = log.records_from(0, 4);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].first_seq, 4);
        // Mid-record sequence lands on the record containing it.
        let tail = log.records_from(0, 7);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].first_seq, 5);
        // Past the end: nothing new, not an error.
        assert!(log.records_from(0, 10).is_empty());
        // Zero normalizes to "from the beginning".
        assert_eq!(log.records_from(0, 0).len(), 3);
    }
}
