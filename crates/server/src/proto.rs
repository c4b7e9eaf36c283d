//! RESP-subset wire protocol: frames, an incremental decoder, and the
//! request vocabulary the server understands.
//!
//! The frame grammar is the classic Redis serialization protocol,
//! restricted to the five types the server actually uses:
//!
//! ```text
//! +<text>\r\n            simple string (e.g. +OK, +PONG)
//! -<text>\r\n            error (e.g. -ERR ..., -BUSY ...)
//! :<int>\r\n             integer
//! $<len>\r\n<bytes>\r\n  bulk string ($-1\r\n is the nil bulk)
//! *<len>\r\n<frames>     array (*-1 is rejected: requests are never nil)
//! ```
//!
//! Requests are arrays of bulk strings — `["SET", key, value]` — and the
//! decoder enforces hard caps on bulk length, array arity and nesting
//! depth so a malformed or hostile peer can make the server reply with a
//! protocol error but never allocate unboundedly, panic or desync.

use std::fmt;

/// Hard cap on one bulk string's declared length (16 MiB).
pub(crate) const MAX_BULK: usize = 16 << 20;
/// Hard cap on one array's declared arity.
pub(crate) const MAX_ARRAY: usize = 4096;
/// Hard cap on array nesting depth.
pub(crate) const MAX_DEPTH: usize = 4;
/// Hard cap on a simple-string / error line length.
pub(crate) const MAX_LINE: usize = 4096;

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `+text` — status replies (`+OK`, `+PONG`).
    Simple(String),
    /// `-text` — error replies (`-ERR …`, `-BUSY …`).
    Error(String),
    /// `:n` — integer replies (DEL count, BATCH count).
    Integer(i64),
    /// `$n` + payload — a binary-safe string.
    Bulk(Vec<u8>),
    /// `$-1` — the nil bulk (GET miss).
    Nil,
    /// `*n` + elements.
    Array(Vec<Frame>),
}

impl Frame {
    /// The canonical `+OK` reply.
    pub fn ok() -> Frame {
        Frame::Simple("OK".into())
    }

    /// An admission-control pushback reply; see [`Frame::is_busy`].
    pub(crate) fn busy() -> Frame {
        Frame::Error("BUSY server in-flight budget exhausted, retry".into())
    }

    /// Whether this frame is the admission controller's BUSY pushback.
    pub fn is_busy(&self) -> bool {
        matches!(self, Frame::Error(m) if m.starts_with("BUSY"))
    }

    /// Whether this frame is any error reply.
    pub fn is_error(&self) -> bool {
        matches!(self, Frame::Error(_))
    }

    /// Appends this frame's wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Simple(s) => put_text_line(out, b'+', s),
            Frame::Error(s) => put_text_line(out, b'-', s),
            Frame::Integer(n) => put_number_line(out, b':', *n),
            Frame::Bulk(b) => put_bulk(out, b),
            Frame::Nil => out.extend_from_slice(NIL_WIRE),
            Frame::Array(items) => {
                put_array_header(out, items.len());
                for it in items {
                    it.encode(out);
                }
            }
        }
    }

    /// This frame's wire encoding as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// The wire form of [`Frame::ok`].
pub(crate) const OK_WIRE: &[u8] = b"+OK\r\n";
/// The wire form of [`Frame::Nil`].
pub(crate) const NIL_WIRE: &[u8] = b"$-1\r\n";

/// The longest `<tag><decimal i64>\r\n` line: tag, sign, 19 digits, CRLF.
pub(crate) const NUMBER_LINE_MAX: usize = 23;

/// Writes the line `<tag><n in decimal>\r\n` — every length and integer
/// line of the protocol — so that it ends at `buf[end]`, and returns where
/// it starts. Digits come out last-first, so the line is laid down
/// backwards with no heap formatting.
///
/// # Panics
///
/// Panics if fewer than [`NUMBER_LINE_MAX`] bytes precede `end`.
pub(crate) fn number_line_ending_at(buf: &mut [u8], end: usize, tag: u8, n: i64) -> usize {
    buf[end - 2..end].copy_from_slice(b"\r\n");
    let mut at = decimal_ending_at(buf, end - 2, n.unsigned_abs());
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    at -= 1;
    buf[at] = tag;
    at
}

/// Writes `n` in decimal so that it ends at `buf[end]`; returns where it
/// starts (at most 20 bytes earlier).
fn decimal_ending_at(buf: &mut [u8], end: usize, mut n: u64) -> usize {
    let mut at = end;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return at;
        }
    }
}

/// Appends the line `<tag><n in decimal>\r\n`.
pub(crate) fn put_number_line(out: &mut Vec<u8>, tag: u8, n: i64) {
    let mut line = [0u8; NUMBER_LINE_MAX];
    let at = number_line_ending_at(&mut line, NUMBER_LINE_MAX, tag, n);
    out.extend_from_slice(&line[at..]);
}

fn put_text_line(out: &mut Vec<u8>, tag: u8, text: &str) {
    out.push(tag);
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Appends the bulk string `$<len>\r\n<bytes>\r\n`.
pub(crate) fn put_bulk(out: &mut Vec<u8>, bytes: &[u8]) {
    put_number_line(out, b'$', bytes.len() as i64);
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// Appends the array header `*<len>\r\n`; the elements follow.
pub(crate) fn put_array_header(out: &mut Vec<u8>, len: usize) {
    put_number_line(out, b'*', len as i64);
}

/// Why a byte stream failed to parse as a frame (or a frame as a request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The first byte of a frame is not one of `+ - : $ *`.
    BadType(u8),
    /// A `$`/`*`/`:` length or integer field failed to parse.
    BadLength,
    /// A declared length exceeds `MAX_BULK`, `MAX_ARRAY` or `MAX_LINE`,
    /// or arrays nest past `MAX_DEPTH`.
    Oversize(&'static str),
    /// A bulk payload was not terminated by `\r\n`.
    BadTerminator,
    /// The frame parsed but is not a request the server understands.
    BadRequest(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadType(b) => write!(f, "protocol: unknown frame type byte 0x{b:02x}"),
            ProtoError::BadLength => write!(f, "protocol: malformed length"),
            ProtoError::Oversize(what) => write!(f, "protocol: {what} limit exceeded"),
            ProtoError::BadTerminator => write!(f, "protocol: missing CRLF terminator"),
            ProtoError::BadRequest(m) => write!(f, "request: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// An incremental frame decoder over a growable byte buffer.
///
/// Feed raw bytes with [`push`](Decoder::push), then call
/// [`next_frame`](Decoder::next_frame) until it returns `Ok(None)`
/// (need more bytes). A `ProtoError` is **sticky**: the stream position
/// is no longer trustworthy, so every later call returns the same error
/// and the connection must be torn down after flushing the error reply.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: Option<ProtoError>,
}

/// Outcome of one parse attempt: a frame and the cursor past it.
type Parsed = Option<(Frame, usize)>;

impl Decoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The buffer [`push`](Decoder::push) appends to, for a transport that
    /// can receive straight into it.
    pub(crate) fn inbox(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Decodes the next complete frame, `Ok(None)` when more bytes are
    /// needed, or the (sticky) protocol error.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match parse_frame(&self.buf[self.pos..], 0) {
            Ok(Some((frame, used))) => {
                self.pos += used;
                if self.pos == self.buf.len() {
                    // Everything consumed: rewind for free.
                    self.buf.clear();
                    self.pos = 0;
                } else if self.pos > 4096 && self.pos * 2 > self.buf.len() {
                    // Compact once the consumed prefix dominates the buffer.
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }
}

/// Finds the `\r\n` terminating the line starting at `buf[0]`, returning
/// the line body and the cursor past the terminator.
fn parse_line(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtoError> {
    let limit = buf.len().min(MAX_LINE + 2);
    for i in 0..limit {
        if buf[i] == b'\n' {
            if i == 0 || buf[i - 1] != b'\r' {
                return Err(ProtoError::BadTerminator);
            }
            return Ok(Some((&buf[..i - 1], i + 1)));
        }
    }
    if buf.len() > MAX_LINE + 1 {
        return Err(ProtoError::Oversize("line"));
    }
    Ok(None)
}

/// Parses a decimal integer field (optionally negative, as in `$-1`).
fn parse_int(body: &[u8]) -> Result<i64, ProtoError> {
    if body.is_empty() || body.len() > 20 {
        return Err(ProtoError::BadLength);
    }
    let (neg, digits) = match body[0] {
        b'-' => (true, &body[1..]),
        _ => (false, body),
    };
    if digits.is_empty() {
        return Err(ProtoError::BadLength);
    }
    // Accumulate toward the sign so that `i64::MIN` parses too.
    let mut n: i64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(ProtoError::BadLength);
        }
        let d = i64::from(b - b'0');
        n = n
            .checked_mul(10)
            .and_then(|n| if neg { n.checked_sub(d) } else { n.checked_add(d) })
            .ok_or(ProtoError::BadLength)?;
    }
    Ok(n)
}

/// Recursive-descent frame parser over `buf`, `Ok(None)` if incomplete.
fn parse_frame(buf: &[u8], depth: usize) -> Result<Parsed, ProtoError> {
    if depth > MAX_DEPTH {
        return Err(ProtoError::Oversize("nesting depth"));
    }
    let Some(&ty) = buf.first() else { return Ok(None) };
    let rest = &buf[1..];
    match ty {
        b'+' | b'-' => {
            let Some((body, used)) = parse_line(rest)? else { return Ok(None) };
            let text = String::from_utf8_lossy(body).into_owned();
            let frame = if ty == b'+' { Frame::Simple(text) } else { Frame::Error(text) };
            Ok(Some((frame, 1 + used)))
        }
        b':' => {
            let Some((body, used)) = parse_line(rest)? else { return Ok(None) };
            Ok(Some((Frame::Integer(parse_int(body)?), 1 + used)))
        }
        b'$' => {
            let Some((body, used)) = parse_line(rest)? else { return Ok(None) };
            let len = parse_int(body)?;
            if len == -1 {
                return Ok(Some((Frame::Nil, 1 + used)));
            }
            if len < 0 {
                return Err(ProtoError::BadLength);
            }
            let len = len as usize;
            if len > MAX_BULK {
                return Err(ProtoError::Oversize("bulk length"));
            }
            let payload = &rest[used..];
            if payload.len() < len + 2 {
                return Ok(None);
            }
            if &payload[len..len + 2] != b"\r\n" {
                return Err(ProtoError::BadTerminator);
            }
            Ok(Some((Frame::Bulk(payload[..len].to_vec()), 1 + used + len + 2)))
        }
        b'*' => {
            let Some((body, used)) = parse_line(rest)? else { return Ok(None) };
            let len = parse_int(body)?;
            if len < 0 {
                return Err(ProtoError::BadLength);
            }
            let len = len as usize;
            if len > MAX_ARRAY {
                return Err(ProtoError::Oversize("array arity"));
            }
            let mut items = Vec::with_capacity(len.min(64));
            let mut cursor = 1 + used;
            for _ in 0..len {
                let Some((item, item_used)) = parse_frame(&buf[cursor..], depth + 1)? else {
                    return Ok(None);
                };
                items.push(item);
                cursor += item_used;
            }
            Ok(Some((Frame::Array(items), cursor)))
        }
        other => Err(ProtoError::BadType(other)),
    }
}

/// Parses an ASCII-decimal `u64` request argument (SCAN limit / cursor).
fn parse_decimal_arg(bytes: &[u8], what: &str) -> Result<u64, ProtoError> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ProtoError::BadRequest(format!("{what} must be a decimal integer")))
}

/// One operation inside a BATCH request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or overwrite `key` with `value`.
    Put(Vec<u8>, Vec<u8>),
    /// Delete `key`.
    Del(Vec<u8>),
}

/// Coarse request class, used for admission accounting, per-class trace
/// spans and the `server.*` metrics namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// GET / MGET — served from the store without queueing.
    Read,
    /// SET / DEL / BATCH — enqueued into the group-commit queue.
    Write,
    /// PING / INFO — served by the server itself.
    Control,
    /// SCAN / SCAN NEXT — range pages served at a pinned cursor snapshot.
    Scan,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup; replies `$v` or `$-1`.
    Get(Vec<u8>),
    /// Insert or overwrite; replies `+OK`.
    Set(Vec<u8>, Vec<u8>),
    /// Delete; replies `+OK`.
    Del(Vec<u8>),
    /// Multi-key lookup; replies an array of `$v` / `$-1`.
    MGet(Vec<Vec<u8>>),
    /// Atomic multi-op write; replies `:n` (operation count).
    Batch(Vec<BatchOp>),
    /// Liveness probe; replies `+PONG`.
    Ping,
    /// Server + store introspection; replies one bulk text blob.
    Info,
    /// Open a range scan over `[start, end)` (empty bulk = unbounded
    /// bound) returning up to `limit` rows; replies
    /// `*2 [:cursor, *2n k/v bulks]`. A non-zero cursor is a lease on a
    /// pinned cross-shard snapshot — resume with [`Request::ScanNext`]
    /// before it expires; cursor `0` means the range is exhausted.
    ///
    /// Wire form: `SCAN <start> <end> <limit> [PREFIX <p>] [COUNT]`.
    /// `PREFIX` narrows the range server-side to keys starting with `p`;
    /// `COUNT` suppresses the row payload and replies
    /// `*2 [:cursor, :count]` instead — the filter and the tally both run
    /// on the server, so neither ships unwanted rows over the wire.
    Scan {
        /// Inclusive range start (empty = unbounded).
        start: Vec<u8>,
        /// Exclusive range end (empty = unbounded).
        end: Vec<u8>,
        /// Maximum rows visited per page.
        limit: u64,
        /// Server-side key-prefix filter.
        prefix: Option<Vec<u8>>,
        /// Reply with a row count instead of row payloads.
        count_only: bool,
    },
    /// Fetch the next page of an open scan cursor (`SCAN NEXT <cursor>`);
    /// reply as for [`Request::Scan`], served at the cursor's pinned
    /// snapshot.
    ScanNext(u64),
}

impl Request {
    /// Plain range scan: no prefix filter, full row payloads.
    pub fn scan(start: Vec<u8>, end: Vec<u8>, limit: u64) -> Request {
        Request::Scan { start, end, limit, prefix: None, count_only: false }
    }

    /// The request's admission/trace class.
    pub(crate) fn class(&self) -> RequestClass {
        match self {
            Request::Get(_) | Request::MGet(_) => RequestClass::Read,
            Request::Set(..) | Request::Del(_) | Request::Batch(_) => RequestClass::Write,
            Request::Ping | Request::Info => RequestClass::Control,
            Request::Scan { .. } | Request::ScanNext(_) => RequestClass::Scan,
        }
    }

    /// Approximate payload bytes carried by the request (keys + values),
    /// the unit the trace span's `bytes` field reports.
    pub(crate) fn payload_bytes(&self) -> u64 {
        match self {
            Request::Get(k) | Request::Del(k) => k.len() as u64,
            Request::Set(k, v) => (k.len() + v.len()) as u64,
            Request::MGet(keys) => keys.iter().map(|k| k.len() as u64).sum(),
            Request::Batch(ops) => ops
                .iter()
                .map(|op| match op {
                    BatchOp::Put(k, v) => (k.len() + v.len()) as u64,
                    BatchOp::Del(k) => k.len() as u64,
                })
                .sum(),
            Request::Scan { start, end, prefix, .. } => {
                (start.len() + end.len() + prefix.as_ref().map_or(0, Vec::len)) as u64
            }
            Request::Ping | Request::Info | Request::ScanNext(_) => 0,
        }
    }

    /// Calls `arg` with each bulk string of the request's wire form, in
    /// order, the command word first: the one walk of the vocabulary that
    /// [`to_frame`](Request::to_frame) and [`encode`](Request::encode) share.
    fn for_each_arg(&self, mut arg: impl FnMut(&[u8])) {
        let mut digits = [0u8; 20];
        match self {
            Request::Get(k) => {
                arg(b"GET");
                arg(k);
            }
            Request::Set(k, v) => {
                arg(b"SET");
                arg(k);
                arg(v);
            }
            Request::Del(k) => {
                arg(b"DEL");
                arg(k);
            }
            Request::MGet(keys) => {
                arg(b"MGET");
                keys.iter().for_each(|k| arg(k));
            }
            Request::Batch(ops) => {
                arg(b"BATCH");
                for op in ops {
                    match op {
                        BatchOp::Put(k, v) => {
                            arg(b"SET");
                            arg(k);
                            arg(v);
                        }
                        BatchOp::Del(k) => {
                            arg(b"DEL");
                            arg(k);
                        }
                    }
                }
            }
            Request::Ping => arg(b"PING"),
            Request::Info => arg(b"INFO"),
            Request::Scan { start, end, limit, prefix, count_only } => {
                arg(b"SCAN");
                arg(start);
                arg(end);
                let at = decimal_ending_at(&mut digits, 20, *limit);
                arg(&digits[at..]);
                if let Some(p) = prefix {
                    arg(b"PREFIX");
                    arg(p);
                }
                if *count_only {
                    arg(b"COUNT");
                }
            }
            Request::ScanNext(cursor) => {
                arg(b"SCAN");
                arg(b"NEXT");
                let at = decimal_ending_at(&mut digits, 20, *cursor);
                arg(&digits[at..]);
            }
        }
    }

    /// Encodes the request as its wire frame (array of bulk strings).
    pub fn to_frame(&self) -> Frame {
        let mut items = Vec::new();
        self.for_each_arg(|a| items.push(Frame::Bulk(a.to_vec())));
        Frame::Array(items)
    }

    /// Appends the request's wire encoding — that of
    /// [`to_frame`](Request::to_frame) — to `out` without building the frame.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let mut arity = 0;
        self.for_each_arg(|_| arity += 1);
        put_array_header(out, arity);
        self.for_each_arg(|a| put_bulk(out, a));
    }

    /// Parses a decoded frame as a request.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadRequest`] when the frame is not an array of bulk
    /// strings spelling a known command with the right arity.
    pub fn parse(frame: &Frame) -> Result<Request, ProtoError> {
        let Frame::Array(items) = frame else {
            return Err(ProtoError::BadRequest("request must be an array".into()));
        };
        let mut args = Vec::with_capacity(items.len());
        for it in items {
            match it {
                Frame::Bulk(b) => args.push(b.as_slice()),
                _ => {
                    return Err(ProtoError::BadRequest(
                        "request elements must be bulk strings".into(),
                    ))
                }
            }
        }
        let [cmd, rest @ ..] = args.as_slice() else {
            return Err(ProtoError::BadRequest("empty request".into()));
        };
        let cmd = cmd.to_ascii_uppercase();
        match (cmd.as_slice(), rest) {
            (b"GET", [k]) => Ok(Request::Get(k.to_vec())),
            (b"SET", [k, v]) => Ok(Request::Set(k.to_vec(), v.to_vec())),
            (b"DEL", [k]) => Ok(Request::Del(k.to_vec())),
            (b"MGET", keys) if !keys.is_empty() => {
                Ok(Request::MGet(keys.iter().map(|k| k.to_vec()).collect()))
            }
            (b"BATCH", ops) if !ops.is_empty() => {
                let mut parsed = Vec::new();
                let mut i = 0;
                while i < ops.len() {
                    match ops[i].to_ascii_uppercase().as_slice() {
                        b"SET" if i + 2 < ops.len() => {
                            parsed.push(BatchOp::Put(ops[i + 1].to_vec(), ops[i + 2].to_vec()));
                            i += 3;
                        }
                        b"DEL" if i + 1 < ops.len() => {
                            parsed.push(BatchOp::Del(ops[i + 1].to_vec()));
                            i += 2;
                        }
                        _ => {
                            return Err(ProtoError::BadRequest(
                                "BATCH expects SET k v / DEL k sequences".into(),
                            ))
                        }
                    }
                }
                Ok(Request::Batch(parsed))
            }
            (b"PING", []) => Ok(Request::Ping),
            (b"INFO", []) => Ok(Request::Info),
            (b"SCAN", [sub, cursor]) if sub.eq_ignore_ascii_case(b"NEXT") => {
                Ok(Request::ScanNext(parse_decimal_arg(cursor, "SCAN NEXT cursor")?))
            }
            (b"SCAN", [start, end, limit, opts @ ..]) => {
                let limit = parse_decimal_arg(limit, "SCAN limit")?;
                if limit == 0 {
                    return Err(ProtoError::BadRequest("SCAN limit must be at least 1".into()));
                }
                let mut prefix = None;
                let mut count_only = false;
                let mut i = 0;
                while i < opts.len() {
                    if opts[i].eq_ignore_ascii_case(b"PREFIX") && i + 1 < opts.len() {
                        prefix = Some(opts[i + 1].to_vec());
                        i += 2;
                    } else if opts[i].eq_ignore_ascii_case(b"COUNT") {
                        count_only = true;
                        i += 1;
                    } else {
                        return Err(ProtoError::BadRequest(
                            "SCAN options are PREFIX <p> and COUNT".into(),
                        ));
                    }
                }
                Ok(Request::Scan {
                    start: start.to_vec(),
                    end: end.to_vec(),
                    limit,
                    prefix,
                    count_only,
                })
            }
            _ => Err(ProtoError::BadRequest(format!(
                "unknown command or wrong arity: {}",
                String::from_utf8_lossy(&cmd)
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    use super::*;

    fn decode_one(bytes: &[u8]) -> Result<Option<Frame>, ProtoError> {
        let mut d = Decoder::new();
        d.push(bytes);
        d.next_frame()
    }

    /// A decoder with a past: `whole` frames fed and decoded, after which
    /// its buffer has rewound to offset 0, then — if `pending` — one more
    /// frame pushed together with the first byte of the stream to come, so
    /// that decoding it leaves a consumed prefix in front of live bytes.
    /// The properties below must hold from any of these states.
    fn seasoned(whole: usize, pending: bool, stream: &[u8]) -> (Decoder, usize) {
        let mut d = Decoder::new();
        let past = Request::Set(b"earlier".to_vec(), vec![7; 300]).to_frame();
        for _ in 0..whole {
            d.push(&past.to_bytes());
            assert_eq!(d.next_frame().unwrap(), Some(past.clone()));
            assert_eq!(d.buf.len() - d.pos, 0);
        }
        let fed = usize::from(pending).min(stream.len());
        if pending {
            d.push(&past.to_bytes());
            d.push(&stream[..fed]);
            assert_eq!(d.next_frame().unwrap(), Some(past));
            assert_eq!(d.buf.len() - d.pos, fed);
        }
        (d, fed)
    }

    #[test]
    fn scalar_frames_round_trip() {
        for frame in [
            Frame::Simple("OK".into()),
            Frame::Error("ERR boom".into()),
            Frame::Integer(-42),
            Frame::Integer(i64::MIN),
            Frame::Integer(i64::MAX),
            Frame::Bulk(b"hello\r\nworld".to_vec()),
            Frame::Nil,
            Frame::Array(vec![Frame::Bulk(b"GET".to_vec()), Frame::Nil, Frame::Integer(7)]),
        ] {
            let got = decode_one(&frame.to_bytes()).unwrap().expect("complete");
            assert_eq!(got, frame);
        }
    }

    #[test]
    fn decoder_is_incremental_byte_by_byte() {
        let frame = Request::Set(b"key".to_vec(), b"value".to_vec()).to_frame();
        let bytes = frame.to_bytes();
        let mut d = Decoder::new();
        for (i, b) in bytes.iter().enumerate() {
            d.push(std::slice::from_ref(b));
            let got = d.next_frame().unwrap();
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "complete after {} of {} bytes", i + 1, bytes.len());
            } else {
                assert_eq!(got, Some(frame.clone()));
            }
        }
        assert_eq!(d.buf.len() - d.pos, 0);
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut bytes = Vec::new();
        let frames: Vec<Frame> =
            (0..10).map(|i| Request::Get(format!("k{i}").into_bytes()).to_frame()).collect();
        for f in &frames {
            f.encode(&mut bytes);
        }
        let mut d = Decoder::new();
        d.push(&bytes);
        for f in &frames {
            assert_eq!(d.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn malformed_corpus_errors_never_panics() {
        // Every entry must produce a ProtoError — not a panic, not a
        // silent partial parse.
        let corpus: &[&[u8]] = &[
            b"?\r\n",                                      // unknown type byte
            b"!garbage",                                   // unknown type byte
            b"$abc\r\n",                                   // non-numeric bulk length
            b"$-2\r\n",                                    // negative non-nil length
            b"$99999999999999999999\r\n",                  // overflowing length
            b"$1000000000\r\n",                            // oversized bulk
            b"*-5\r\n",                                    // negative array arity
            b"*999999\r\n",                                // oversized array
            b"$3\r\nabcXY",                                // bad bulk terminator
            b":12a\r\n",                                   // trailing garbage in int
            b":\r\n",                                      // empty int
            b"*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n:1\r\n", // nesting depth
        ];
        for (i, case) in corpus.iter().enumerate() {
            let got = decode_one(case);
            assert!(got.is_err(), "corpus[{i}] {:?} must error, got {got:?}", case);
        }
    }

    #[test]
    fn truncated_prefixes_ask_for_more_bytes() {
        let frame = Request::Set(b"some-key".to_vec(), b"some-value".to_vec()).to_frame();
        let bytes = frame.to_bytes();
        for cut in 0..bytes.len() {
            let got = decode_one(&bytes[..cut]);
            assert_eq!(got, Ok(None), "prefix of {cut} bytes must be incomplete");
        }
    }

    #[test]
    fn protocol_error_is_sticky() {
        let mut d = Decoder::new();
        d.push(b"?oops\r\n");
        assert!(d.next_frame().is_err());
        // Even after valid bytes arrive the decoder stays poisoned: the
        // stream position is untrustworthy.
        d.push(&Frame::ok().to_bytes());
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn requests_parse_and_classify() {
        let cases: Vec<(Request, RequestClass)> = vec![
            (Request::Get(b"k".to_vec()), RequestClass::Read),
            (Request::Set(b"k".to_vec(), b"v".to_vec()), RequestClass::Write),
            (Request::Del(b"k".to_vec()), RequestClass::Write),
            (Request::MGet(vec![b"a".to_vec(), b"b".to_vec()]), RequestClass::Read),
            (
                Request::Batch(vec![
                    BatchOp::Put(b"a".to_vec(), b"1".to_vec()),
                    BatchOp::Del(b"b".to_vec()),
                ]),
                RequestClass::Write,
            ),
            (Request::Ping, RequestClass::Control),
            (Request::Info, RequestClass::Control),
            (Request::scan(b"a".to_vec(), b"z".to_vec(), 100), RequestClass::Scan),
            (Request::scan(Vec::new(), Vec::new(), 1), RequestClass::Scan),
            (
                Request::Scan {
                    start: b"a".to_vec(),
                    end: b"z".to_vec(),
                    limit: 9,
                    prefix: Some(b"ab".to_vec()),
                    count_only: true,
                },
                RequestClass::Scan,
            ),
            (Request::ScanNext(7), RequestClass::Scan),
        ];
        // One buffer across all of them, as a client's sends reuse one.
        let mut wire = Vec::new();
        for (req, class) in cases {
            assert_eq!(req.class(), class);
            let round = Request::parse(&req.to_frame()).unwrap();
            assert_eq!(round, req);
            wire.clear();
            req.encode(&mut wire);
            assert_eq!(wire, req.to_frame().to_bytes(), "{req:?} encoded without its frame");
        }
    }

    #[test]
    fn number_lines_and_fixed_replies_are_what_display_would_write() {
        for n in [0, 1, 9, 10, 99, 100, 4096, -1, -10, i64::from(u32::MAX), i64::MAX, i64::MIN] {
            for tag in [b':', b'$', b'*'] {
                let mut line = Vec::new();
                put_number_line(&mut line, tag, n);
                assert_eq!(line, format!("{}{n}\r\n", tag as char).into_bytes());
                assert!(line.len() <= NUMBER_LINE_MAX);
            }
        }
        assert_eq!(Frame::ok().to_bytes(), OK_WIRE);
        assert_eq!(Frame::Nil.to_bytes(), NIL_WIRE);
    }

    #[test]
    fn request_commands_are_case_insensitive() {
        let frame = Frame::Array(vec![
            Frame::Bulk(b"set".to_vec()),
            Frame::Bulk(b"k".to_vec()),
            Frame::Bulk(b"v".to_vec()),
        ]);
        assert_eq!(Request::parse(&frame).unwrap(), Request::Set(b"k".to_vec(), b"v".to_vec()));
    }

    #[test]
    fn bad_requests_are_rejected() {
        for frame in [
            Frame::Integer(1),
            Frame::Array(vec![]),
            Frame::Array(vec![Frame::Integer(1)]),
            Frame::Array(vec![Frame::Bulk(b"NOPE".to_vec())]),
            Frame::Array(vec![Frame::Bulk(b"GET".to_vec())]),
            Frame::Array(vec![Frame::Bulk(b"MGET".to_vec())]),
            Frame::Array(vec![Frame::Bulk(b"BATCH".to_vec()), Frame::Bulk(b"SET".to_vec())]),
        ] {
            assert!(matches!(Request::parse(&frame), Err(ProtoError::BadRequest(_))));
        }
    }

    #[test]
    fn scan_requests_validate_their_arguments() {
        fn req(args: &[&[u8]]) -> Result<Request, ProtoError> {
            let mut items = vec![Frame::Bulk(b"SCAN".to_vec())];
            items.extend(args.iter().map(|a| Frame::Bulk(a.to_vec())));
            Request::parse(&Frame::Array(items))
        }
        assert_eq!(
            req(&[b"a", b"z", b"50"]).unwrap(),
            Request::scan(b"a".to_vec(), b"z".to_vec(), 50)
        );
        assert_eq!(req(&[b"", b"", b"1"]).unwrap(), Request::scan(Vec::new(), Vec::new(), 1));
        assert_eq!(req(&[b"next", b"42"]).unwrap(), Request::ScanNext(42));
        // A key literally spelled NEXT still works at the 3-arg arity.
        assert_eq!(
            req(&[b"NEXT", b"z", b"5"]).unwrap(),
            Request::scan(b"NEXT".to_vec(), b"z".to_vec(), 5)
        );
        for bad in
            [&[b"a" as &[u8], b"z", b"0"][..], &[b"a", b"z", b"ten"], &[b"NEXT", b"4x2"], &[b"a"]]
        {
            assert!(matches!(req(bad), Err(ProtoError::BadRequest(_))), "{bad:?}");
        }
    }

    #[test]
    fn scan_options_parse_and_round_trip() {
        fn req(args: &[&[u8]]) -> Result<Request, ProtoError> {
            let mut items = vec![Frame::Bulk(b"SCAN".to_vec())];
            items.extend(args.iter().map(|a| Frame::Bulk(a.to_vec())));
            Request::parse(&Frame::Array(items))
        }
        let full = Request::Scan {
            start: b"a".to_vec(),
            end: b"z".to_vec(),
            limit: 10,
            prefix: Some(b"ab".to_vec()),
            count_only: true,
        };
        // Keywords are case-insensitive and order-insensitive.
        assert_eq!(req(&[b"a", b"z", b"10", b"prefix", b"ab", b"count"]).unwrap(), full);
        assert_eq!(req(&[b"a", b"z", b"10", b"COUNT", b"PREFIX", b"ab"]).unwrap(), full);
        assert_eq!(
            req(&[b"a", b"z", b"10", b"COUNT"]).unwrap(),
            Request::Scan {
                start: b"a".to_vec(),
                end: b"z".to_vec(),
                limit: 10,
                prefix: None,
                count_only: true,
            }
        );
        assert_eq!(Request::parse(&full.to_frame()).unwrap(), full);
        assert_eq!(full.payload_bytes(), 4, "prefix bytes count toward the traced payload size");
        // PREFIX without its argument, or stray tokens, are rejected.
        for bad in [&[b"a" as &[u8], b"z", b"10", b"PREFIX"][..], &[b"a", b"z", b"10", b"NOPE"]] {
            assert!(matches!(req(bad), Err(ProtoError::BadRequest(_))), "{bad:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bulk_round_trips(payload in pvec(any::<u8>(), 0..512)) {
            let frame = Frame::Bulk(payload);
            let got = decode_one(&frame.to_bytes()).unwrap();
            prop_assert_eq!(got, Some(frame));
        }

        #[test]
        fn set_requests_round_trip(
            key in pvec(any::<u8>(), 1..64),
            value in pvec(any::<u8>(), 0..256),
        ) {
            let req = Request::Set(key, value);
            let mut d = Decoder::new();
            d.push(&req.to_frame().to_bytes());
            let frame = d.next_frame().unwrap().expect("complete");
            prop_assert_eq!(Request::parse(&frame).unwrap(), req);
        }

        #[test]
        fn split_feeding_never_changes_the_result(
            keys in pvec(pvec(any::<u8>(), 1..32), 1..8),
            split in any::<usize>(),
            whole in 0usize..3,
            pending in any::<bool>(),
        ) {
            let req = Request::MGet(keys);
            let bytes = req.to_frame().to_bytes();
            let (mut d, fed) = seasoned(whole, pending, &bytes);
            let cut = fed.max(split % bytes.len());
            d.push(&bytes[fed..cut]);
            let early = d.next_frame().unwrap();
            d.push(&bytes[cut..]);
            let frame = match early {
                Some(f) => f,
                None => d.next_frame().unwrap().expect("complete after full feed"),
            };
            prop_assert_eq!(Request::parse(&frame).unwrap(), req);
            prop_assert_eq!(d.buf.len() - d.pos, 0);
            prop_assert_eq!(d.next_frame(), Ok(None));
        }

        #[test]
        fn garbage_never_panics_the_decoder(
            bytes in pvec(any::<u8>(), 0..128),
            whole in 0usize..3,
            pending in any::<bool>(),
        ) {
            let (mut d, fed) = seasoned(whole, pending, &bytes);
            d.push(&bytes[fed..]);
            // Drain until incomplete or error; the only failure mode under
            // test is a panic / infinite loop, bounded by the byte count.
            let mut poisoned = None;
            for _ in 0..=bytes.len() {
                match d.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        poisoned = Some(e);
                        break;
                    }
                }
            }
            // Poison outlives anything the buffer does afterwards.
            if let Some(e) = poisoned {
                d.push(&Frame::ok().to_bytes());
                prop_assert_eq!(d.next_frame(), Err(e));
            }
        }
    }
}
