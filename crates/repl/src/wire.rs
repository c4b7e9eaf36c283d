//! The replication messages on the serving crate's wire.
//!
//! Replication has no codec of its own: every message is a RESP array
//! that starts with a verb bulk, written by [`Frame::encode`] and read by
//! the serving crate's incremental [`Decoder`], so one set of size caps
//! and one malformed-input corpus guard both protocols.
//!
//! ```text
//! SUBSCRIBE shard from_seq
//! RECORD    shard epoch first_seq last_seq committed_at trace span <payload bulk>
//! ACK       shard last_seq
//! HEARTBEAT epoch leader_now seq...
//! FENCE     epoch
//! ```
//!
//! Every number is a RESP integer holding the `u64`'s bit pattern, so
//! every `u64` round-trips exactly. A frame the decoder rejects, or a
//! well-formed frame that is not one of these messages, is
//! [`noblsm::Error::Replication`]: peers share one format, and
//! disagreement means the stream cannot be trusted.

use nob_server::{Decoder, Frame, Transport};
use nob_sim::Nanos;
use nob_trace::TraceCtx;
use noblsm::{Error, Result};

use crate::changelog::LogRecord;

/// One replication protocol message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Msg {
    /// Client → leader: stream `shard`'s records starting at the first
    /// record containing `from_seq`.
    Subscribe { shard: usize, from_seq: u64 },
    /// Leader → client: one shipped group-commit record, tagged with the
    /// leader's current epoch. Only the ship span's identity crosses the
    /// wire (`ctx.parent` arrives as 0).
    Record(LogRecord),
    /// Client → leader: everything up to `last_seq` on `shard` is applied
    /// on the subscriber's side.
    Ack { shard: usize, last_seq: u64 },
    /// Leader → client: liveness plus the leader's view of time and
    /// progress (last committed sequence per shard); the staleness clock
    /// for bounded follower reads.
    Heartbeat { epoch: u64, leader_now: Nanos, shard_seqs: Vec<u64> },
    /// Peer → leader: a higher epoch exists; stop accepting writes.
    Fence { epoch: u64 },
}

fn int(n: u64) -> Frame {
    Frame::Integer(n as i64)
}

fn bad(what: impl std::fmt::Display) -> Error {
    Error::Replication(format!("not a replication message: {what}"))
}

impl Msg {
    /// Appends this message's wire encoding to `out`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        let verb = |v: &[u8]| Frame::Bulk(v.to_vec());
        let items = match self {
            Msg::Subscribe { shard, from_seq } => {
                vec![verb(b"SUBSCRIBE"), int(shard as u64), int(from_seq)]
            }
            Msg::Record(rec) => vec![
                verb(b"RECORD"),
                int(rec.shard as u64),
                int(rec.epoch),
                int(rec.first_seq),
                int(rec.last_seq),
                int(rec.committed_at.as_nanos()),
                int(rec.ctx.trace),
                int(rec.ctx.span),
                Frame::Bulk(rec.payload),
            ],
            Msg::Ack { shard, last_seq } => vec![verb(b"ACK"), int(shard as u64), int(last_seq)],
            Msg::Heartbeat { epoch, leader_now, shard_seqs } => {
                [verb(b"HEARTBEAT"), int(epoch), int(leader_now.as_nanos())]
                    .into_iter()
                    .chain(shard_seqs.into_iter().map(int))
                    .collect()
            }
            Msg::Fence { epoch } => vec![verb(b"FENCE"), int(epoch)],
        };
        Frame::Array(items).encode(out);
    }

    /// Reads one message out of a decoded frame: an array that starts
    /// with a known verb and holds exactly that verb's arguments, or else
    /// [`noblsm::Error::Replication`].
    pub(crate) fn parse(frame: Frame) -> Result<Msg> {
        let Frame::Array(items) = frame else { return Err(bad("not an array")) };
        let mut args = Args(items.into_iter());
        let verb = args.bulk()?;
        let msg = match &verb[..] {
            b"SUBSCRIBE" => Msg::Subscribe { shard: args.shard()?, from_seq: args.u64()? },
            b"RECORD" => Msg::Record(LogRecord {
                shard: args.shard()?,
                epoch: args.u64()?,
                first_seq: args.u64()?,
                last_seq: args.u64()?,
                committed_at: Nanos::from_nanos(args.u64()?),
                ctx: TraceCtx { trace: args.u64()?, span: args.u64()?, parent: 0 },
                payload: args.bulk()?,
            }),
            b"ACK" => Msg::Ack { shard: args.shard()?, last_seq: args.u64()? },
            b"HEARTBEAT" => {
                let epoch = args.u64()?;
                let leader_now = Nanos::from_nanos(args.u64()?);
                let mut shard_seqs = Vec::new();
                while !args.done() {
                    shard_seqs.push(args.u64()?);
                }
                Msg::Heartbeat { epoch, leader_now, shard_seqs }
            }
            b"FENCE" => Msg::Fence { epoch: args.u64()? },
            other => return Err(bad(format!("verb {:?}", String::from_utf8_lossy(other)))),
        };
        if !args.done() {
            return Err(bad("trailing arguments"));
        }
        Ok(msg)
    }
}

/// A message's arguments, taken front to back.
struct Args(std::vec::IntoIter<Frame>);

impl Args {
    fn done(&self) -> bool {
        self.0.as_slice().is_empty()
    }

    fn u64(&mut self) -> Result<u64> {
        match self.0.next() {
            Some(Frame::Integer(n)) => Ok(n as u64),
            other => Err(bad(format!("expected an integer, got {other:?}"))),
        }
    }

    fn shard(&mut self) -> Result<usize> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| bad(format!("shard {n}")))
    }

    fn bulk(&mut self) -> Result<Vec<u8>> {
        match self.0.next() {
            Some(Frame::Bulk(b)) => Ok(b),
            other => Err(bad(format!("expected a bulk, got {other:?}"))),
        }
    }
}

/// The next complete message `decoder` holds, `Ok(None)` when more bytes
/// are needed. A frame the decoder rejects (it keeps failing from then
/// on) or one that is not a message is [`noblsm::Error::Replication`].
pub(crate) fn next_msg(decoder: &mut Decoder) -> Result<Option<Msg>> {
    match decoder.next_frame() {
        Ok(frame) => frame.map(Msg::parse).transpose(),
        Err(e) => Err(Error::Replication(format!("replication stream: {e}"))),
    }
}

/// Sends `msgs` in one write (none when there are none); transport
/// failures pass through.
pub(crate) fn send<T: Transport>(
    transport: &mut T,
    msgs: impl IntoIterator<Item = Msg>,
) -> Result<()> {
    let mut wire = Vec::new();
    msgs.into_iter().for_each(|msg| msg.encode(&mut wire));
    if wire.is_empty() {
        return Ok(());
    }
    transport.send(&wire)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Subscribe { shard: 3, from_seq: 42 },
            Msg::Record(LogRecord {
                shard: 1,
                epoch: 2,
                first_seq: 10,
                last_seq: 12,
                payload: b"abcdef".to_vec(),
                committed_at: Nanos::from_nanos(9_999),
                ctx: TraceCtx { trace: 77, span: 81, parent: 0 },
            }),
            Msg::Record(LogRecord {
                shard: 0,
                epoch: u64::MAX,
                first_seq: 1 << 63,
                last_seq: u64::MAX,
                payload: Vec::new(),
                committed_at: Nanos::from_nanos(u64::MAX),
                ctx: TraceCtx { trace: u64::MAX, span: 1 << 63, parent: 0 },
            }),
            Msg::Ack { shard: 0, last_seq: u64::MAX },
            Msg::Heartbeat {
                epoch: 2,
                leader_now: Nanos::from_nanos(10_000),
                shard_seqs: vec![12, 7, u64::MAX],
            },
            Msg::Heartbeat { epoch: 0, leader_now: Nanos::ZERO, shard_seqs: Vec::new() },
            Msg::Fence { epoch: u64::MAX },
        ]
    }

    /// Encodes every sample, delivers the bytes `chunk` at a time and
    /// decodes what arrives.
    fn deliver(chunk: usize) -> Vec<Msg> {
        let mut wire = Vec::new();
        samples().into_iter().for_each(|msg| msg.encode(&mut wire));
        let (mut decoder, mut out) = (Decoder::new(), Vec::new());
        for bytes in wire.chunks(chunk) {
            decoder.push(bytes);
            while let Some(msg) = next_msg(&mut decoder).unwrap() {
                out.push(msg);
            }
        }
        out
    }

    #[test]
    fn frames_round_trip() {
        assert_eq!(deliver(usize::MAX), samples());
    }

    #[test]
    fn split_delivery_reassembles() {
        // One byte at a time — the worst TCP fragmentation possible.
        assert_eq!(deliver(1), samples());
    }

    /// Asserts every case is rejected as a replication error, both as
    /// a parsed frame and as bytes through the decoder.
    fn assert_rejected(cases: Vec<(&str, Frame)>) {
        for (what, frame) in cases {
            let mut wire = Vec::new();
            frame.encode(&mut wire);
            let mut decoder = Decoder::new();
            decoder.push(&wire);
            let err = next_msg(&mut decoder).unwrap_err();
            assert!(matches!(err, Error::Replication(_)), "{what} (decoded): {err}");
            let err = Msg::parse(frame).unwrap_err();
            assert!(matches!(err, Error::Replication(_)), "{what}: {err}");
        }
    }

    fn bulk(s: &[u8]) -> Frame {
        Frame::Bulk(s.to_vec())
    }

    /// `verb` followed by `n` integer arguments.
    fn ints(verb: &[u8], n: u64) -> Frame {
        Frame::Array([bulk(verb)].into_iter().chain((0..n).map(int)).collect())
    }

    #[test]
    fn unknown_kind_is_a_protocol_error() {
        assert_rejected(vec![
            ("wrong verb", ints(b"PING", 0)),
            ("lower-case verb", ints(b"fence", 1)),
            ("integer verb", Frame::Array(vec![int(1), int(1)])),
        ]);
    }

    #[test]
    fn truncated_body_is_a_protocol_error() {
        assert_rejected(vec![
            ("too few arguments", ints(b"ACK", 1)),
            ("no arguments", ints(b"SUBSCRIBE", 0)),
            ("missing payload", ints(b"RECORD", 7)),
            ("heartbeat without its clock", ints(b"HEARTBEAT", 1)),
        ]);
    }

    #[test]
    fn non_messages_are_protocol_errors() {
        assert_rejected(vec![
            ("too many arguments", ints(b"FENCE", 2)),
            ("bulk where an integer belongs", Frame::Array(vec![bulk(b"FENCE"), bulk(b"1")])),
            ("integer where the payload belongs", ints(b"RECORD", 8)),
            ("empty array", Frame::Array(Vec::new())),
            ("not an array", bulk(b"FENCE")),
            ("nil", Frame::Nil),
        ]);
    }
}
