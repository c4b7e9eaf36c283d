//! Pipelining client over any [`Transport`].
//!
//! Two usage styles:
//!
//! * **Synchronous conveniences** — [`get`](Client::get),
//!   [`set`](Client::set), … send one request and wait for its reply.
//! * **Pipelining** — [`send`](Client::send) any number of requests
//!   without waiting, then collect replies in order with
//!   [`recv_reply`](Client::recv_reply). Replies arrive strictly in
//!   request order; [`outstanding`](Client::outstanding) tracks the open
//!   window.
//!
//! Admission pushback surfaces as an error whose message starts with
//! `BUSY`; test with [`is_busy_error`].

use noblsm::{Error, Result};

use crate::proto::{Decoder, Frame, Request};
use crate::transport::Transport;

/// Whether `e` is the server's admission-control pushback (retryable).
pub fn is_busy_error(e: &Error) -> bool {
    matches!(e, Error::Usage(m) if m.starts_with("BUSY"))
}

/// A pipelining RESP client. See the module docs.
pub struct Client<T> {
    transport: T,
    decoder: Decoder,
    /// The last request's wire bytes; every send encodes into it.
    outbox: Vec<u8>,
    outstanding: usize,
}

impl<T: Transport> Client<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Client<T> {
        Client { transport, decoder: Decoder::new(), outbox: Vec::new(), outstanding: 0 }
    }

    /// Requests sent whose replies have not been received yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The underlying transport (tests).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Ships one request without waiting for its reply.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(&mut self, req: &Request) -> Result<()> {
        self.outbox.clear();
        req.encode(&mut self.outbox);
        self.transport.send(&self.outbox)?;
        self.outstanding += 1;
        Ok(())
    }

    /// Receives the next reply, in request order.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when no request is outstanding, the peer closed
    /// mid-reply, or the reply stream is malformed; transport failures
    /// pass through.
    pub fn recv_reply(&mut self) -> Result<Frame> {
        if self.outstanding == 0 {
            return Err(Error::Usage("recv_reply with no outstanding request".into()));
        }
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    self.outstanding -= 1;
                    return Ok(frame);
                }
                Ok(None) => {}
                Err(e) => return Err(Error::Usage(format!("reply stream desynced: {e}"))),
            }
            if self.transport.recv(self.decoder.inbox())? == 0 {
                return Err(Error::Usage("connection closed with replies outstanding".into()));
            }
        }
    }

    /// Turns a reply frame into `Result`, mapping `-ERR`/`-BUSY` to
    /// [`Error::Usage`].
    fn expect(frame: Frame) -> Result<Frame> {
        match frame {
            Frame::Error(m) => Err(Error::Usage(m)),
            f => Ok(f),
        }
    }

    /// Round-trip GET.
    ///
    /// # Errors
    ///
    /// Server error replies and transport failures.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.send(&Request::Get(key.to_vec()))?;
        match Self::expect(self.recv_reply()?)? {
            Frame::Bulk(v) => Ok(Some(v)),
            Frame::Nil => Ok(None),
            other => Err(Error::Usage(format!("unexpected GET reply: {other:?}"))),
        }
    }

    /// Round-trip SET.
    ///
    /// # Errors
    ///
    /// Server error replies (including BUSY) and transport failures.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.send(&Request::Set(key.to_vec(), value.to_vec()))?;
        Self::expect(self.recv_reply()?)?;
        Ok(())
    }

    /// Round-trip PING.
    ///
    /// # Errors
    ///
    /// Server error replies and transport failures.
    pub fn ping(&mut self) -> Result<()> {
        self.send(&Request::Ping)?;
        match Self::expect(self.recv_reply()?)? {
            Frame::Simple(s) if s == "PONG" => Ok(()),
            other => Err(Error::Usage(format!("unexpected PING reply: {other:?}"))),
        }
    }

    /// Decodes one scan page reply: `(cursor, rows)`.
    #[allow(clippy::type_complexity)]
    fn parse_scan_reply(frame: Frame) -> Result<(u64, Vec<(Vec<u8>, Vec<u8>)>)> {
        let Frame::Array(items) = frame else {
            return Err(Error::Usage("unexpected SCAN reply: not an array".into()));
        };
        let [Frame::Integer(cursor), Frame::Array(flat)] = items.as_slice() else {
            return Err(Error::Usage("unexpected SCAN reply shape".into()));
        };
        if *cursor < 0 || !flat.len().is_multiple_of(2) {
            return Err(Error::Usage("unexpected SCAN reply shape".into()));
        }
        let mut rows = Vec::with_capacity(flat.len() / 2);
        for pair in flat.chunks_exact(2) {
            let [Frame::Bulk(k), Frame::Bulk(v)] = pair else {
                return Err(Error::Usage("unexpected SCAN row element".into()));
            };
            rows.push((k.clone(), v.clone()));
        }
        Ok((*cursor as u64, rows))
    }

    /// Round-trip SCAN: opens a scan over `[start, end)` (empty slices =
    /// unbounded) and returns the first page as `(cursor, rows)`. A
    /// non-zero cursor means more rows remain — fetch them with
    /// [`scan_next`](Client::scan_next) before the cursor lease expires;
    /// cursor `0` means the range is exhausted.
    ///
    /// # Errors
    ///
    /// Server error replies (including BUSY) and transport failures.
    #[allow(clippy::type_complexity)]
    pub fn scan_page(
        &mut self,
        start: &[u8],
        end: &[u8],
        limit: u64,
    ) -> Result<(u64, Vec<(Vec<u8>, Vec<u8>)>)> {
        self.send(&Request::Scan {
            start: start.to_vec(),
            end: end.to_vec(),
            limit,
            prefix: None,
            count_only: false,
        })?;
        Self::parse_scan_reply(Self::expect(self.recv_reply()?)?)
    }

    /// Round-trip SCAN NEXT: the next page of an open cursor.
    ///
    /// # Errors
    ///
    /// Server error replies (including an expired cursor) and transport
    /// failures.
    #[allow(clippy::type_complexity)]
    pub fn scan_next(&mut self, cursor: u64) -> Result<(u64, Vec<(Vec<u8>, Vec<u8>)>)> {
        self.send(&Request::ScanNext(cursor))?;
        Self::parse_scan_reply(Self::expect(self.recv_reply()?)?)
    }

    /// Streams the whole range `[start, end)` by chaining
    /// [`scan_page`](Client::scan_page) / [`scan_next`](Client::scan_next)
    /// pages of `page_size` rows.
    ///
    /// # Errors
    ///
    /// As for [`scan_page`](Client::scan_page).
    #[allow(clippy::type_complexity)]
    pub fn scan_all(
        &mut self,
        start: &[u8],
        end: &[u8],
        page_size: u64,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let (mut cursor, mut rows) = self.scan_page(start, end, page_size)?;
        while cursor != 0 {
            let (next, page) = self.scan_next(cursor)?;
            rows.extend(page);
            cursor = next;
        }
        Ok(rows)
    }

    /// Round-trip INFO; returns the server's stats text.
    ///
    /// # Errors
    ///
    /// Server error replies and transport failures.
    pub fn info(&mut self) -> Result<String> {
        self.send(&Request::Info)?;
        match Self::expect(self.recv_reply()?)? {
            Frame::Bulk(text) => Ok(String::from_utf8_lossy(&text).into_owned()),
            other => Err(Error::Usage(format!("unexpected INFO reply: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::core::{ServerCore, ServerOptions};
    use crate::transport::{shared, LoopbackTransport};

    use super::*;

    fn loopback_client() -> Client<LoopbackTransport> {
        let core = ServerCore::open(ServerOptions::default()).unwrap();
        let core = shared(core);
        Client::new(LoopbackTransport::connect(&core))
    }

    #[test]
    fn conveniences_round_trip() {
        let mut c = loopback_client();
        c.ping().unwrap();
        assert_eq!(c.get(b"missing").unwrap(), None);
        c.set(b"k", b"v").unwrap();
        assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
        assert!(c.info().unwrap().contains("# server"));
    }

    #[test]
    fn pipelined_replies_arrive_in_request_order() {
        let mut c = loopback_client();
        for i in 0..32u32 {
            c.send(&Request::Set(format!("k{i}").into_bytes(), i.to_string().into_bytes()))
                .unwrap();
        }
        for i in 0..32u32 {
            c.send(&Request::Get(format!("k{i}").into_bytes())).unwrap();
        }
        assert_eq!(c.outstanding(), 64);
        for _ in 0..32 {
            assert_eq!(c.recv_reply().unwrap(), Frame::ok());
        }
        for i in 0..32u32 {
            assert_eq!(c.recv_reply().unwrap(), Frame::Bulk(i.to_string().into_bytes()));
        }
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn scan_pages_stream_the_range_in_order() {
        let core =
            ServerCore::open(ServerOptions { max_scan_page: 16, ..ServerOptions::default() })
                .unwrap();
        let core = shared(core);
        let mut c = Client::new(LoopbackTransport::connect(&core));
        for i in 0..50u32 {
            c.set(format!("k{i:02}").into_bytes().as_slice(), b"v").unwrap();
        }
        // First page caps at the server's max_scan_page and leaves a
        // live cursor.
        let (cursor, rows) = c.scan_page(b"", b"", 1000).unwrap();
        assert_eq!(rows.len(), 16);
        assert_ne!(cursor, 0);
        let all = c.scan_all(b"", b"", 16).unwrap();
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
        // Bounded sub-range.
        let some = c.scan_all(b"k10", b"k20", 7).unwrap();
        assert_eq!(some.len(), 10);
        assert_eq!(some[0].0, b"k10".to_vec());
        // Exhausted ranges reply cursor 0 immediately.
        let (cursor, rows) = c.scan_page(b"z", b"", 5).unwrap();
        assert_eq!((cursor, rows.len()), (0, 0));
        // A bogus cursor is an in-band error, not a hang.
        assert!(c.scan_next(9999).is_err());
    }

    #[test]
    fn prefix_and_count_scans_filter_server_side() {
        let core = ServerCore::open(ServerOptions { max_scan_page: 8, ..ServerOptions::default() })
            .unwrap();
        let core = shared(core);
        let mut c = Client::new(LoopbackTransport::connect(&core));
        for i in 0..30u32 {
            c.set(format!("a{i:02}").into_bytes().as_slice(), b"v").unwrap();
            c.set(format!("b{i:02}").into_bytes().as_slice(), b"v").unwrap();
        }
        // Every page of one SCAN, chained through its cursor: each reply
        // is `[:cursor, payload]`.
        let mut pages = |start: &[u8], end: &[u8], limit, prefix: Option<&[u8]>, count_only| {
            let (start, end, prefix) = (start.to_vec(), end.to_vec(), prefix.map(<[u8]>::to_vec));
            c.send(&Request::Scan { start, end, limit, prefix, count_only }).unwrap();
            let mut payloads = Vec::new();
            loop {
                let Frame::Array(reply) = c.recv_reply().unwrap() else { panic!("not an array") };
                let [Frame::Integer(cursor), payload] = <[Frame; 2]>::try_from(reply).unwrap()
                else {
                    panic!("not a cursor page")
                };
                payloads.push(payload);
                if cursor == 0 {
                    return payloads;
                }
                c.send(&Request::ScanNext(cursor as u64)).unwrap();
            }
        };
        // Prefix filter: only `a*` rows come back, across multiple pages.
        let rows: Vec<Frame> = pages(b"", b"", 8, Some(b"a"), false)
            .into_iter()
            .flat_map(|p| match p {
                Frame::Array(flat) => flat.into_iter().step_by(2),
                other => panic!("rows expected, got {other:?}"),
            })
            .collect();
        assert_eq!(rows.len(), 30);
        assert!(rows.iter().all(|k| matches!(k, Frame::Bulk(k) if k.starts_with(b"a"))));
        // Counting scan: the tally pages through the whole range without
        // shipping a single row payload.
        let mut count = |start: &[u8], end: &[u8], limit, prefix: Option<&[u8]>| -> i64 {
            pages(start, end, limit, prefix, true)
                .into_iter()
                .map(|p| match p {
                    Frame::Integer(n) => n,
                    other => panic!("a count expected, got {other:?}"),
                })
                .sum()
        };
        assert_eq!(count(b"", b"", 8, None), 60);
        assert_eq!(count(b"", b"", 8, Some(b"b")), 30);
        assert_eq!(count(b"a10", b"a20", 4, Some(b"a")), 10);
        // Prefix disjoint from the range: nothing matches.
        assert_eq!(count(b"b", b"", 8, Some(b"a")), 0);
    }

    #[test]
    fn recv_without_outstanding_is_a_usage_error() {
        let mut c = loopback_client();
        assert!(matches!(c.recv_reply(), Err(Error::Usage(_))));
    }

    #[test]
    fn busy_pushback_is_detectable() {
        let core = ServerCore::open(ServerOptions { max_inflight: 1, ..ServerOptions::default() })
            .unwrap();
        let core = shared(core);
        let mut c = Client::new(LoopbackTransport::connect(&core));
        // Two pipelined writes with a budget of one: the second must be
        // rejected, and the rejection must classify as busy.
        c.send(&Request::Set(b"a".to_vec(), b"1".to_vec())).unwrap();
        c.send(&Request::Set(b"b".to_vec(), b"2".to_vec())).unwrap();
        assert_eq!(c.recv_reply().unwrap(), Frame::ok());
        let err = Client::<LoopbackTransport>::expect(c.recv_reply().unwrap()).unwrap_err();
        assert!(is_busy_error(&err), "{err}");
    }
}
