//! The replication wire protocol: length-prefixed little-endian frames.
//!
//! Every frame is `u32 length ++ u8 kind ++ body`, where `length` counts
//! the kind byte plus the body. The codec is encode/decode symmetric and
//! incremental: a `FrameReader` buffers partial frames across `recv`
//! boundaries, so the same parser serves the loopback transport (whole
//! frames per call) and TCP (arbitrary splits).
//!
//! A malformed frame — unknown kind, truncated body, trailing bytes — is
//! a protocol error ([`noblsm::Error::Replication`]), never a silent
//! skip: replication peers share a versioned format, and disagreement
//! means the stream cannot be trusted.

use noblsm::{Error, Result};

/// One replication protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → leader: stream shard `shard`'s records starting at the
    /// first record containing `from_seq`.
    Subscribe {
        /// Shard to subscribe to.
        shard: u32,
        /// First sequence number the subscriber has not seen.
        from_seq: u64,
    },
    /// Leader → client: one shipped group-commit record.
    Record {
        /// Shard the group committed on.
        shard: u32,
        /// Leadership epoch the record was shipped under.
        epoch: u64,
        /// Sequence of the record's first entry.
        first_seq: u64,
        /// Sequence of the record's last entry.
        last_seq: u64,
        /// The group's durable instant on the leader clock, in nanos.
        committed_at: u64,
        /// Trace id of the record's `repl_ship` span (0 when untraced).
        trace: u64,
        /// Span id of the record's `repl_ship` span (0 when untraced).
        span: u64,
        /// The group's batch as logged (`noblsm::WriteBatch::payload`).
        payload: Vec<u8>,
    },
    /// Client → leader: everything up to `last_seq` on `shard` is applied
    /// durably on the subscriber's side.
    Ack {
        /// Shard being acknowledged.
        shard: u32,
        /// Highest applied sequence on that shard.
        last_seq: u64,
    },
    /// Leader → client: liveness plus the leader's view of time and
    /// progress; the staleness clock for bounded follower reads.
    Heartbeat {
        /// The leader's current epoch.
        epoch: u64,
        /// The leader clock's current instant, in nanos.
        leader_now: u64,
        /// Last committed sequence per shard, in shard order.
        shard_seqs: Vec<u64>,
    },
    /// Peer → leader: a higher epoch exists; stop accepting writes.
    Fence {
        /// The epoch of the new leadership.
        epoch: u64,
    },
}

/// Frame kind tags (the byte after the length prefix).
const KIND_SUBSCRIBE: u8 = 1;
const KIND_RECORD: u8 = 2;
const KIND_ACK: u8 = 3;
const KIND_HEARTBEAT: u8 = 4;
const KIND_FENCE: u8 = 5;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `frame`'s encoding to `out`.
pub(crate) fn encode(frame: &Frame, out: &mut Vec<u8>) {
    let at = out.len();
    put_u32(out, 0); // length backpatched below
    match frame {
        Frame::Subscribe { shard, from_seq } => {
            out.push(KIND_SUBSCRIBE);
            put_u32(out, *shard);
            put_u64(out, *from_seq);
        }
        Frame::Record { shard, epoch, first_seq, last_seq, committed_at, trace, span, payload } => {
            out.push(KIND_RECORD);
            put_u32(out, *shard);
            put_u64(out, *epoch);
            put_u64(out, *first_seq);
            put_u64(out, *last_seq);
            put_u64(out, *committed_at);
            put_u64(out, *trace);
            put_u64(out, *span);
            put_u32(out, payload.len() as u32);
            out.extend_from_slice(payload);
        }
        Frame::Ack { shard, last_seq } => {
            out.push(KIND_ACK);
            put_u32(out, *shard);
            put_u64(out, *last_seq);
        }
        Frame::Heartbeat { epoch, leader_now, shard_seqs } => {
            out.push(KIND_HEARTBEAT);
            put_u64(out, *epoch);
            put_u64(out, *leader_now);
            put_u32(out, shard_seqs.len() as u32);
            for s in shard_seqs {
                put_u64(out, *s);
            }
        }
        Frame::Fence { epoch } => {
            out.push(KIND_FENCE);
            put_u64(out, *epoch);
        }
    }
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A strict little-endian cursor over one frame body.
struct Body<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(Error::Replication("truncated replication frame body".into()));
        };
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn done(&self) -> Result<()> {
        if self.at != self.bytes.len() {
            return Err(Error::Replication("trailing bytes in replication frame".into()));
        }
        Ok(())
    }
}

fn decode_body(kind: u8, body: &[u8]) -> Result<Frame> {
    let mut b = Body { bytes: body, at: 0 };
    let frame = match kind {
        KIND_SUBSCRIBE => Frame::Subscribe { shard: b.u32()?, from_seq: b.u64()? },
        KIND_RECORD => {
            let shard = b.u32()?;
            let epoch = b.u64()?;
            let first_seq = b.u64()?;
            let last_seq = b.u64()?;
            let committed_at = b.u64()?;
            let trace = b.u64()?;
            let span = b.u64()?;
            let n = b.u32()? as usize;
            let payload = b.take(n)?.to_vec();
            Frame::Record { shard, epoch, first_seq, last_seq, committed_at, trace, span, payload }
        }
        KIND_ACK => Frame::Ack { shard: b.u32()?, last_seq: b.u64()? },
        KIND_HEARTBEAT => {
            let epoch = b.u64()?;
            let leader_now = b.u64()?;
            let n = b.u32()? as usize;
            let mut shard_seqs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                shard_seqs.push(b.u64()?);
            }
            Frame::Heartbeat { epoch, leader_now, shard_seqs }
        }
        KIND_FENCE => Frame::Fence { epoch: b.u64()? },
        other => {
            return Err(Error::Replication(format!("unknown replication frame kind {other}")));
        }
    };
    b.done()?;
    Ok(frame)
}

/// Incremental frame parser: [`feed`](FrameReader::feed) bytes as they
/// arrive, [`next_frame`](FrameReader::next_frame) complete frames as they become
/// available. Partial frames are buffered across feeds.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    at: usize,
}

/// The largest frame a peer may send (guards against a corrupt length
/// prefix allocating unbounded memory). Generous next to the store's
/// default 1 MiB group budget.
pub(crate) const MAX_FRAME: usize = 64 << 20;

impl FrameReader {
    /// An empty reader.
    pub(crate) fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Buffers newly received bytes.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so a long-lived subscription doesn't grow without
        // bound while staying O(1) amortized.
        if self.at > 0 && self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at > 64 << 10 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Parses the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] on a malformed frame; the reader is
    /// then poisoned-by-construction (the buffer no longer aligns with a
    /// frame boundary) and the connection should be dropped.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Frame>> {
        let avail = self.buf.len() - self.at;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.at..self.at + 4].try_into().expect("4 bytes"))
            as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(Error::Replication(format!("invalid replication frame length {len}")));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let kind = self.buf[self.at + 4];
        let body = &self.buf[self.at + 5..self.at + 4 + len];
        let frame = decode_body(kind, body)?;
        self.at += 4 + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Subscribe { shard: 3, from_seq: 42 },
            Frame::Record {
                shard: 1,
                epoch: 2,
                first_seq: 10,
                last_seq: 12,
                committed_at: 9_999,
                trace: 77,
                span: 81,
                payload: b"abcdef".to_vec(),
            },
            Frame::Ack { shard: 0, last_seq: 12 },
            Frame::Heartbeat { epoch: 2, leader_now: 10_000, shard_seqs: vec![12, 7] },
            Frame::Fence { epoch: 3 },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        for f in &samples() {
            encode(f, &mut wire);
        }
        let mut r = FrameReader::new();
        r.feed(&wire);
        let mut out = Vec::new();
        while let Some(f) = r.next_frame().unwrap() {
            out.push(f);
        }
        assert_eq!(out, samples());
    }

    #[test]
    fn split_delivery_reassembles() {
        let mut wire = Vec::new();
        for f in &samples() {
            encode(f, &mut wire);
        }
        // Feed one byte at a time — the worst TCP fragmentation possible.
        let mut r = FrameReader::new();
        let mut out = Vec::new();
        for b in &wire {
            r.feed(std::slice::from_ref(b));
            while let Some(f) = r.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, samples());
    }

    #[test]
    fn unknown_kind_is_a_protocol_error() {
        let mut wire = Vec::new();
        encode(&Frame::Fence { epoch: 1 }, &mut wire);
        wire[4] = 99; // corrupt the kind byte
        let mut r = FrameReader::new();
        r.feed(&wire);
        let err = r.next_frame().unwrap_err();
        assert!(matches!(err, Error::Replication(_)), "{err}");
    }

    #[test]
    fn truncated_body_is_a_protocol_error() {
        let mut wire = Vec::new();
        encode(&Frame::Ack { shard: 0, last_seq: 7 }, &mut wire);
        // Shrink the body but fix up the length prefix so the frame
        // "completes" with too few bytes for its kind.
        let short = (wire.len() - 4 - 2) as u32;
        wire.truncate(wire.len() - 2);
        wire[..4].copy_from_slice(&short.to_le_bytes());
        let mut r = FrameReader::new();
        r.feed(&wire);
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn zero_length_prefix_is_rejected() {
        let mut r = FrameReader::new();
        r.feed(&0u32.to_le_bytes());
        assert!(r.next_frame().is_err());
    }
}
