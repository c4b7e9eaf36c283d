//! Scan cursors: a SCAN's first page, the leases that park a pinned
//! cross-shard snapshot between pages, and every page after it.

use nob_sim::Nanos;
use nob_trace::{EventClass, SpanScope};
use noblsm::{IterState, Result, ScanOptions, Snapshot};

use super::{ConnId, ServerCore, Stat};
use crate::proto::{
    number_line_ending_at, put_array_header, put_bulk, put_number_line, Frame, NUMBER_LINE_MAX,
};

/// The longest header of a scan page carrying rows: `*2`, `:cursor`, `*2n`.
const PAGE_HEADER_MAX: usize = 4 + 2 * NUMBER_LINE_MAX;

/// One open scan cursor: a lease on a pinned cross-shard snapshot plus
/// the position the next page resumes from.
#[derive(Debug)]
pub(super) struct Cursor {
    /// One pinned snapshot per shard, released when the cursor closes.
    snaps: Vec<Snapshot>,
    /// Inclusive start key of the next page.
    resume: Vec<u8>,
    /// Every shard's iterator as the last page left it, resting at
    /// `resume`: the next page continues the ones whose shard has not
    /// changed version since. Memory only, freed with the lease.
    held: Vec<IterState>,
    /// Exclusive end bound (`None` = to the last key).
    end: Option<Vec<u8>>,
    /// Rows per page (already clamped to `max_scan_page`).
    page: usize,
    /// Server-side key-prefix filter carried across pages.
    prefix: Option<Vec<u8>>,
    /// Pages reply with row counts instead of row payloads.
    count_only: bool,
    /// Lease expiry on the virtual clock; renewed by every resume.
    deadline: Nanos,
}

/// One scan page as the store hands it back: the rows already in wire
/// form, the reply's header still to come.
struct ScannedPage {
    /// [`PAGE_HEADER_MAX`] bytes of room, then every row as two bulks
    /// (empty for a counting scan).
    wire: Vec<u8>,
    /// Key and value bytes of the rows (the trace span's byte count).
    payload: u64,
    count: u64,
    resume: Option<Vec<u8>>,
}

impl ServerCore {
    /// Expires cursors whose lease deadline has passed on the virtual
    /// clock, releasing their pinned snapshots.
    pub(super) fn sweep_cursors(&mut self) {
        let now = self.clock().now();
        let dead: Vec<u64> =
            self.cursors.iter().filter(|(_, c)| c.deadline < now).map(|(id, _)| *id).collect();
        for id in dead {
            let cur = self.cursors.remove(&id).expect("id came from the map");
            self.store.release_snapshots(cur.snaps);
            self.counters.add(Stat::CursorsExpired, 1);
        }
        self.counters.set(Stat::CursorsOpen, self.cursors.len());
    }

    /// `SCAN start end limit [PREFIX p] [COUNT]`: settle the queue
    /// (read-your-writes), pin a cross-shard snapshot, serve the first
    /// page — filtering and counting server-side — and, if the range is
    /// not exhausted, park the snapshot under a fresh cursor lease.
    pub(super) fn open_scan(
        &mut self,
        id: ConnId,
        start: Vec<u8>,
        end: Vec<u8>,
        limit: u64,
        prefix: Option<Vec<u8>>,
        count_only: bool,
    ) -> Result<()> {
        self.sweep_cursors();
        if self.cursors.len() >= self.max_cursors {
            self.counters.add(Stat::BusyRejections, 1);
            self.push_frame(id, &Frame::busy());
            return Ok(());
        }
        let t0 = self.read_barrier()?;
        let cur = Cursor {
            snaps: self.store.pin_snapshots(),
            resume: start,
            held: Vec::new(),
            end: if end.is_empty() { None } else { Some(end) },
            page: (limit.min(self.max_scan_page as u64)) as usize,
            prefix,
            count_only,
            deadline: t0,
        };
        self.serve_page(id, None, cur, t0)
    }

    /// `SCAN NEXT cursor`: serve the next page at the cursor's pinned
    /// snapshot (no read barrier — post-pin writes are invisible anyway)
    /// and renew or retire the lease.
    pub(super) fn resume_scan(&mut self, id: ConnId, cid: u64) -> Result<()> {
        self.sweep_cursors();
        let t0 = self.clock().now();
        let Some(cur) = self.cursors.remove(&cid) else {
            self.push_frame(id, &Frame::Error(format!("ERR cursor {cid} not found or expired")));
            return Ok(());
        };
        self.serve_page(id, Some(cid), cur, t0)
    }

    /// Serves one page of `cur` — under the lease `cid` when it has one —
    /// and parks the cursor again (minting the lease after a first page)
    /// if the page stopped at its limit, or releases its snapshots.
    fn serve_page(
        &mut self,
        id: ConnId,
        cid: Option<u64>,
        mut cur: Cursor,
        t0: Nanos,
    ) -> Result<()> {
        let scope = self.open_request();
        let resumed_before = self.iters_resumed();
        let mut scanned = match self.scan_one_page(&mut cur) {
            Ok(p) => p,
            Err(e) => {
                self.store.release_snapshots(cur.snaps);
                self.counters.set(Stat::CursorsOpen, self.cursors.len());
                return Err(e);
            }
        };
        if cid.is_some() {
            // A page kept its place only if every shard continued the
            // iterator the last page left it.
            let continued = self.iters_resumed() - resumed_before;
            let stat = if continued == self.store.shards() as u64 {
                Stat::ScanResumesHeld
            } else {
                Stat::ScanResumesRebuilt
            };
            self.counters.add(stat, 1);
        }
        let count_only = cur.count_only;
        let cursor = match scanned.resume.take() {
            Some(resume) => {
                let cid = cid.unwrap_or_else(|| {
                    self.counters.add(Stat::CursorsOpened, 1);
                    self.next_cursor += 1;
                    self.next_cursor - 1
                });
                cur.resume = resume;
                cur.deadline = self.clock().now() + self.cursor_ttl;
                self.cursors.insert(cid, cur);
                cid
            }
            None => {
                self.store.release_snapshots(cur.snaps);
                0
            }
        };
        self.counters.set(Stat::CursorsOpen, self.cursors.len());
        self.finish_scan_reply(id, cursor, scanned, count_only, t0, scope);
        Ok(())
    }

    /// Iterators the shards' engines have continued from a held state.
    fn iters_resumed(&self) -> u64 {
        (0..self.store.shards()).map(|i| self.store.shard_db(i).stats().iters_resumed).sum()
    }

    /// One scan page against the cursor's pinned snapshots, each row
    /// encoded into the reply as the merge surfaces it; the shards'
    /// iterators change hands through `cur.held`. Server scans never fill
    /// the block cache: a client streaming a large range must not evict
    /// the point-read hot set.
    fn scan_one_page(&mut self, cur: &mut Cursor) -> Result<ScannedPage> {
        let sopts = ScanOptions {
            start: Some(&cur.resume),
            end: cur.end.as_deref(),
            prefix: cur.prefix.as_deref(),
            limit: cur.page,
            count_only: cur.count_only,
            fill_cache: false,
        };
        let mut wire = Vec::new();
        if !cur.count_only {
            // Rows follow a header that cannot be written before the scan
            // ends; leave room for the longest one.
            wire.reserve(self.scan_reply_hint.max(PAGE_HEADER_MAX));
            wire.resize(PAGE_HEADER_MAX, 0);
        }
        let mut payload = 0u64;
        let result = self.store.scan_at_with(&cur.snaps, &sopts, &mut cur.held, |k, v| {
            payload += (k.len() + v.len()) as u64;
            put_bulk(&mut wire, k);
            put_bulk(&mut wire, v);
        })?;
        Ok(ScannedPage { wire, payload, count: result.count, resume: result.resume })
    }

    /// Counts, traces and queues one scan page reply:
    /// `*2 [:cursor, *2n k/v bulks]`, or `*2 [:cursor, :count]` for a
    /// counting scan (no row payloads cross the wire).
    fn finish_scan_reply(
        &mut self,
        id: ConnId,
        cursor: u64,
        page: ScannedPage,
        count_only: bool,
        start: Nanos,
        scope: Option<SpanScope>,
    ) {
        self.counters.add(Stat::ScanRows, page.count);
        self.close_request(scope, EventClass::ServerScan, start, page.payload);
        let mut wire = page.wire;
        if count_only {
            put_array_header(&mut wire, 2);
            put_number_line(&mut wire, b':', cursor as i64);
            put_number_line(&mut wire, b':', page.count as i64);
        } else {
            // The header is laid down backwards so that it ends where the
            // rows begin; the slack in front of it is then closed up.
            let rows = 2 * page.count as i64;
            let at = number_line_ending_at(&mut wire, PAGE_HEADER_MAX, b'*', rows);
            let at = number_line_ending_at(&mut wire, at, b':', cursor as i64);
            let at = number_line_ending_at(&mut wire, at, b'*', 2);
            wire.drain(..at);
            self.scan_reply_hint = wire.len() + at;
        }
        self.push_ready(id, wire);
    }
}
