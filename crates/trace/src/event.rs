//! The trace event taxonomy: one typed class per span the stack emits.

use nob_sim::Nanos;

/// Every span class the three layers emit. The numeric discriminant
/// indexes the per-class histogram array, so the order is part of the
/// crate's stable output format (JSON summaries list classes in this
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EventClass {
    /// Foreground SSD read command, issue → completion.
    SsdRead = 0,
    /// Foreground SSD write command, issue → completion.
    SsdWrite = 1,
    /// Foreground SSD FLUSH, issue → completion (the barrier the paper
    /// blames for sync stalls).
    SsdFlush = 2,
    /// Background (write-back class) SSD write, issue → completion.
    SsdBgWrite = 3,
    /// Background SSD FLUSH (asynchronous commit records).
    SsdBgFlush = 4,
    /// One data write-back command of an inode (Ext4 `data=ordered`
    /// phase 1, or the kernel flusher streaming dirty pages out).
    Writeback = 5,
    /// A synchronous (fsync-driven) JBD2 journal commit, start → FLUSH
    /// acknowledged.
    JournalCommit = 6,
    /// An asynchronous (timer / dirty-threshold) JBD2 commit — the
    /// checkpoint-style commits NobLSM piggybacks on.
    Checkpoint = 7,
    /// An Ext4 fast-commit of a single inode.
    FastCommit = 8,
    /// Engine write (put/delete/batch), caller issue → WAL + memtable
    /// done. Includes writer-mutex wait and any write stall.
    EnginePut = 9,
    /// Engine point read, caller issue → value resolved.
    EngineGet = 10,
    /// Minor compaction (memtable flush to L0), schedule → table synced.
    MinorCompaction = 11,
    /// Major compaction, schedule → outputs written.
    MajorCompaction = 12,
    /// Foreground write stall (memtable wait, L0 slowdown/stop).
    WriteStall = 13,
    /// A write the fault injector tore (span of the torn command).
    FaultTornWrite = 14,
    /// A write the fault injector corrupted.
    FaultCorruptWrite = 15,
    /// A FLUSH the fault injector acknowledged without draining.
    FaultDroppedFlush = 16,
    /// One coalesced group commit on a store shard: leader drain start →
    /// merged batch durable. `bytes` is the merged payload; the span
    /// covers every follower the leader carried.
    GroupCommit = 17,
    /// One served read-class request (GET/MGET), server receipt → reply
    /// encoded. `bytes` is the reply payload.
    ServerRead = 18,
    /// One served write-class request (SET/DEL/BATCH), server receipt →
    /// group-commit outcome resolved. `bytes` is the request payload.
    ServerWrite = 19,
    /// One served control request (PING/INFO), receipt → reply encoded.
    ServerControl = 20,
    /// One committed group shipped by a replication leader: commit
    /// instant → record handed to the subscriber's outbox. `bytes` is the
    /// shipped payload.
    ReplShip = 21,
    /// One shipped record applied by a follower: receipt → entries in the
    /// follower's engine. `bytes` is the applied payload.
    ReplApply = 22,
    /// One acknowledgement round-trip observed by the leader: the span of
    /// the acked record from its commit to the ack's arrival — the
    /// per-record replication lag. `bytes` is the acked payload.
    ReplAck = 23,
    /// One served SCAN page (SCAN / cursor resume), server receipt →
    /// page encoded. `bytes` is the reply payload.
    ServerScan = 24,
    /// Input-read stage of one staged major-compaction granule.
    CompactRead = 25,
    /// Merge-CPU stage of one staged major-compaction granule.
    CompactMerge = 26,
    /// Output-write stage of one staged major-compaction granule.
    /// `bytes` is the granule's output size.
    CompactWrite = 27,
}

/// Number of event classes (length of [`EventClass::ALL`]).
pub(crate) const N_CLASSES: usize = 28;

impl EventClass {
    /// Every class, in discriminant order.
    pub const ALL: [EventClass; N_CLASSES] = [
        EventClass::SsdRead,
        EventClass::SsdWrite,
        EventClass::SsdFlush,
        EventClass::SsdBgWrite,
        EventClass::SsdBgFlush,
        EventClass::Writeback,
        EventClass::JournalCommit,
        EventClass::Checkpoint,
        EventClass::FastCommit,
        EventClass::EnginePut,
        EventClass::EngineGet,
        EventClass::MinorCompaction,
        EventClass::MajorCompaction,
        EventClass::WriteStall,
        EventClass::FaultTornWrite,
        EventClass::FaultCorruptWrite,
        EventClass::FaultDroppedFlush,
        EventClass::GroupCommit,
        EventClass::ServerRead,
        EventClass::ServerWrite,
        EventClass::ServerControl,
        EventClass::ReplShip,
        EventClass::ReplApply,
        EventClass::ReplAck,
        EventClass::ServerScan,
        EventClass::CompactRead,
        EventClass::CompactMerge,
        EventClass::CompactWrite,
    ];

    /// Stable snake_case name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::SsdRead => "ssd_read",
            EventClass::SsdWrite => "ssd_write",
            EventClass::SsdFlush => "ssd_flush",
            EventClass::SsdBgWrite => "ssd_bg_write",
            EventClass::SsdBgFlush => "ssd_bg_flush",
            EventClass::Writeback => "writeback",
            EventClass::JournalCommit => "journal_commit",
            EventClass::Checkpoint => "checkpoint",
            EventClass::FastCommit => "fast_commit",
            EventClass::EnginePut => "engine_put",
            EventClass::EngineGet => "engine_get",
            EventClass::MinorCompaction => "minor_compaction",
            EventClass::MajorCompaction => "major_compaction",
            EventClass::WriteStall => "write_stall",
            EventClass::FaultTornWrite => "fault_torn_write",
            EventClass::FaultCorruptWrite => "fault_corrupt_write",
            EventClass::FaultDroppedFlush => "fault_dropped_flush",
            EventClass::GroupCommit => "group_commit",
            EventClass::ServerRead => "server_read",
            EventClass::ServerWrite => "server_write",
            EventClass::ServerControl => "server_control",
            EventClass::ReplShip => "repl_ship",
            EventClass::ReplApply => "repl_apply",
            EventClass::ReplAck => "repl_ack",
            EventClass::ServerScan => "server_scan",
            EventClass::CompactRead => "compact_read",
            EventClass::CompactMerge => "compact_merge",
            EventClass::CompactWrite => "compact_write",
        }
    }

    /// Which layer of the stack emits this class (the Chrome-trace
    /// "thread" the span renders on).
    pub(crate) fn layer(self) -> &'static str {
        match self {
            EventClass::SsdRead
            | EventClass::SsdWrite
            | EventClass::SsdFlush
            | EventClass::SsdBgWrite
            | EventClass::SsdBgFlush
            | EventClass::FaultTornWrite
            | EventClass::FaultCorruptWrite
            | EventClass::FaultDroppedFlush => "ssd",
            EventClass::Writeback
            | EventClass::JournalCommit
            | EventClass::Checkpoint
            | EventClass::FastCommit => "ext4",
            EventClass::EnginePut
            | EventClass::EngineGet
            | EventClass::MinorCompaction
            | EventClass::MajorCompaction
            | EventClass::WriteStall
            | EventClass::GroupCommit
            | EventClass::CompactRead
            | EventClass::CompactMerge
            | EventClass::CompactWrite => "engine",
            EventClass::ServerRead
            | EventClass::ServerWrite
            | EventClass::ServerControl
            | EventClass::ServerScan => "server",
            EventClass::ReplShip | EventClass::ReplApply | EventClass::ReplAck => "repl",
        }
    }

    /// Chrome-trace tid for the class's layer (4 = repl, 3 = server,
    /// 0 = engine, 1 = ext4, 2 = ssd), so the layers stack naturally in
    /// `chrome://tracing`.
    pub(crate) fn tid(self) -> u32 {
        match self.layer() {
            "engine" => 0,
            "ext4" => 1,
            "server" => 3,
            "repl" => 4,
            _ => 2,
        }
    }
}

/// Causal identity of a span: the request tree it belongs to, its own
/// span id, and its parent span. Ids are allocated per sink, starting at
/// 1; 0 everywhere means "untraced" and is what spans emitted outside any
/// request scope carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id: the root span's id, shared by every span in the tree
    /// (0 = untraced).
    pub trace: u64,
    /// This span's id (unique per sink).
    pub span: u64,
    /// Parent span id (0 = this span is the tree root).
    pub parent: u64,
}

impl TraceCtx {
    /// The untraced context (all zeros).
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0, parent: 0 };

    /// Whether this is the untraced context.
    pub fn is_none(&self) -> bool {
        self.span == 0
    }
}

/// One recorded span: a class plus its `[start, end]` window and an
/// optional byte payload (0 where meaningless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Monotone per-sink sequence number (emission order).
    pub seq: u64,
    /// The span's class.
    pub class: EventClass,
    /// Issue instant.
    pub start: Nanos,
    /// Completion instant.
    pub end: Nanos,
    /// Bytes moved, where the class has a payload.
    pub(crate) bytes: u64,
    /// Trace id this span belongs to (0 = untraced).
    pub trace: u64,
    /// This span's id (0 = untraced).
    pub span: u64,
    /// Parent span id (0 = root or untraced).
    pub parent: u64,
}

impl SpanEvent {
    /// The span's latency (`end - start`, saturating).
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }

    /// Whether the span is the root of a trace.
    pub(crate) fn is_root(&self) -> bool {
        self.span != 0 && self.parent == 0
    }
}

/// What the foreground was stalled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Memtable full, predecessor still flushing.
    Memtable,
    /// `L0` at the stop trigger.
    L0Stop,
    /// LevelDB's 1 ms slowdown delay at the `L0` slowdown trigger.
    Slowdown,
}

impl StallKind {
    /// Stable snake_case name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            StallKind::Memtable => "memtable",
            StallKind::L0Stop => "l0_stop",
            StallKind::Slowdown => "slowdown",
        }
    }
}

/// One foreground stall with its causal chain: the journal commit and
/// device FLUSH most recently observed when the stall ended — the I/O the
/// stalled writer was transitively waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallRecord {
    /// What the foreground was stalled on.
    pub kind: StallKind,
    /// Stall begin.
    pub start: Nanos,
    /// Stall end (foreground resumed).
    pub end: Nanos,
    /// The journal commit / checkpoint / fast-commit span last emitted
    /// before the stall resolved, if any.
    pub cause_commit: Option<SpanEvent>,
    /// The device FLUSH span last emitted before the stall resolved.
    pub cause_flush: Option<SpanEvent>,
}

impl StallRecord {
    /// The stall's duration.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_index_all() {
        for (i, c) in EventClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EventClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_CLASSES);
    }

    #[test]
    fn layers_cover_the_stack() {
        assert_eq!(EventClass::SsdFlush.layer(), "ssd");
        assert_eq!(EventClass::JournalCommit.layer(), "ext4");
        assert_eq!(EventClass::EnginePut.layer(), "engine");
        assert_eq!(EventClass::EnginePut.tid(), 0);
        assert_eq!(EventClass::SsdFlush.tid(), 2);
        assert_eq!(EventClass::ServerWrite.layer(), "server");
        assert_eq!(EventClass::ServerRead.tid(), 3);
        assert_eq!(EventClass::ServerScan.layer(), "server");
        assert_eq!(EventClass::ServerScan.tid(), 3);
        assert_eq!(EventClass::ReplShip.layer(), "repl");
        assert_eq!(EventClass::ReplAck.tid(), 4);
        assert_eq!(EventClass::CompactRead.layer(), "engine");
        assert_eq!(EventClass::CompactWrite.tid(), 0);
    }

    #[test]
    fn span_duration_saturates() {
        let e = SpanEvent {
            seq: 0,
            class: EventClass::SsdRead,
            start: Nanos::from_micros(5),
            end: Nanos::from_micros(2),
            bytes: 0,
            trace: 0,
            span: 0,
            parent: 0,
        };
        assert_eq!(e.duration(), Nanos::ZERO);
    }

    #[test]
    fn ctx_roundtrips_and_classifies() {
        assert!(TraceCtx::NONE.is_none());
        let root = TraceCtx { trace: 7, span: 7, parent: 0 };
        assert!(!root.is_none());
        let e = SpanEvent {
            seq: 0,
            class: EventClass::EnginePut,
            start: Nanos::ZERO,
            end: Nanos::from_nanos(1),
            bytes: 0,
            trace: 7,
            span: 9,
            parent: 7,
        };
        assert!(!e.is_root());
    }
}
