//! `std::net` TCP front-end over any [`Endpoint`]: [`ServerCore`] here,
//! `nob-repl`'s `ReplCore` for replication.
//!
//! Thread layout (no async runtime, no external deps):
//!
//! ```text
//! accept thread ──spawns──► per-conn reader ──Msg──►┐
//!                           per-conn writer ◄─bytes─┤ engine thread
//!                                                   │ (owns the core)
//! ```
//!
//! The engine thread is the only one touching the core, so the serving
//! logic stays exactly the single-threaded logic the loopback transport
//! exercises deterministically. Readers forward raw bytes; the engine
//! decodes, admits and executes, then — whenever its inbox goes quiet —
//! flushes the group-commit queue and pushes each connection's resolved
//! replies to its writer. Batching falls out naturally: bytes from many
//! connections pile up while a group commits, and the next flush
//! coalesces their writes. An endpoint with an [`Endpoint::IDLE_TICK`]
//! additionally wakes the engine on that timer, so what it produces on
//! its own ships while the peers are silent.
//!
//! Shutdown is graceful: stop accepting, let readers wind down, answer
//! every request already received, then close. In-flight tickets are
//! drained, not dropped.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use noblsm::{Error, Result};

use crate::core::{ServerCore, ServerOptions};
use crate::endpoint::Endpoint;

/// How long a reader blocks in `read()` before re-checking the shutdown
/// flag. Bounds shutdown latency, not request latency.
const READ_TICK: Duration = Duration::from_millis(25);

/// Reader/accept → engine messages. `u64` is the per-process connection
/// token minted by the accept thread.
#[derive(Debug)]
enum Msg {
    /// New connection; the sender half feeds its writer thread.
    Open(u64, mpsc::Sender<Vec<u8>>),
    /// Raw request bytes from the connection.
    Data(u64, Vec<u8>),
    /// Peer closed (EOF/error) or reader wound down on shutdown.
    Closed(u64),
}

/// A running TCP server over the endpoint `E`; dropping it without
/// [`shutdown`](TcpServer::shutdown) aborts non-gracefully (threads are
/// detached).
pub struct TcpServer<E = ServerCore> {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<Result<E>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`), opens the store and spawns
    /// the accept + engine threads.
    ///
    /// # Errors
    ///
    /// Bind failures as [`Error::Io`]; store open failures pass through.
    pub fn bind(addr: &str, opts: ServerOptions) -> Result<TcpServer> {
        let core = ServerCore::open(opts)?;
        Self::serve(addr, core)
    }
}

impl<E: Endpoint + Send + 'static> TcpServer<E> {
    /// Binds `addr` and serves an already-open core (pre-loaded data,
    /// custom trace/metrics wiring, a replication leader).
    ///
    /// # Errors
    ///
    /// Bind failures as [`Error::Io`].
    pub fn serve(addr: &str, core: E) -> Result<TcpServer<E>> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel::<Msg>();

        let engine = std::thread::spawn(move || engine_loop(core, rx));
        let accept = {
            let stop = Arc::clone(&stop);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || accept_loop(listener, tx, stop, conn_threads))
        };
        Ok(TcpServer {
            addr: local,
            stop,
            accept: Some(accept),
            engine: Some(engine),
            conn_threads,
        })
    }

    /// The bound address (use with port 0 to discover the ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, answer everything already
    /// received, close all connections, join all threads. Returns the
    /// core (final stats, store inspection).
    ///
    /// # Errors
    ///
    /// Propagates the first engine-side failure, if any.
    pub fn shutdown(mut self) -> Result<E> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept(): it is parked waiting for a connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Readers drain what their peers already sent and exit on the
        // flag (one READ_TICK after the last byte), dropping their
        // engine senders; the engine then drains, replies and returns;
        // writers exit once the engine drops their channels.
        let engine = self.engine.take().expect("shutdown runs once");
        let core = engine.join().map_err(|_| Error::Usage("engine thread panicked".into()))??;
        let handles = std::mem::take(&mut *self.conn_threads.lock().expect("no poisoned lock"));
        for h in handles {
            let _ = h.join();
        }
        Ok(core)
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: mpsc::Sender<Msg>,
    stop: Arc<AtomicBool>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_token: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else { continue };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let token = next_token;
        next_token += 1;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_TICK));
        let Ok(write_half) = stream.try_clone() else { continue };
        let (out_tx, out_rx) = mpsc::channel::<Vec<u8>>();
        if tx.send(Msg::Open(token, out_tx)).is_err() {
            break;
        }
        let reader = {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || reader_loop(token, stream, tx, stop))
        };
        let writer = std::thread::spawn(move || writer_loop(write_half, out_rx));
        let mut guard = conn_threads.lock().expect("no poisoned lock");
        guard.push(reader);
        guard.push(writer);
    }
    // Dropping `tx` here lets the engine observe disconnection once every
    // reader has wound down too.
}

/// Forwards the connection's bytes to the engine until EOF, an error, or
/// a read that times out after `stop` is set: bytes the peer sent before
/// the shutdown are still in the socket then, and are forwarded first.
fn reader_loop(token: u64, mut stream: TcpStream, tx: mpsc::Sender<Msg>, stop: Arc<AtomicBool>) {
    use std::io::{ErrorKind, Read};
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if tx.send(Msg::Data(token, buf[..n].to_vec())).is_err() {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stopping {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = tx.send(Msg::Closed(token));
}

fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<Vec<u8>>) {
    use std::io::Write;
    while let Ok(chunk) = rx.recv() {
        if stream.write_all(&chunk).is_err() {
            return;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// One registered connection on the engine side.
struct Registered<C> {
    conn: C,
    out: mpsc::Sender<Vec<u8>>,
    /// Reader reported EOF; close once remaining replies are pushed.
    closed: bool,
}

fn engine_loop<E: Endpoint>(mut core: E, rx: mpsc::Receiver<Msg>) -> Result<E> {
    let mut conns: HashMap<u64, Registered<E::Conn>> = HashMap::new();
    'serve: loop {
        // Block for one message (or the endpoint's idle tick), then
        // opportunistically batch whatever else is already queued: the
        // flush below then group-commits writes from every connection
        // that arrived in the window.
        let first = match E::IDLE_TICK {
            None => match rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break 'serve,
            },
            Some(tick) => match rx.recv_timeout(tick) {
                Ok(m) => Some(m),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => break 'serve,
            },
        };
        let mut inbox: Vec<Msg> = first.into_iter().collect();
        while let Ok(m) = rx.try_recv() {
            inbox.push(m);
        }
        for msg in inbox {
            match msg {
                Msg::Open(token, out) => {
                    let conn = core.connect();
                    conns.insert(token, Registered { conn, out, closed: false });
                }
                Msg::Data(token, bytes) => {
                    if let Some(reg) = conns.get(&token) {
                        core.feed(reg.conn, &bytes)?;
                    }
                }
                Msg::Closed(token) => {
                    if let Some(reg) = conns.get_mut(&token) {
                        reg.closed = true;
                    }
                }
            }
        }
        pump_outputs(&mut core, &mut conns)?;
    }
    // All senders gone (accept thread exited, every reader wound down):
    // answer whatever is still parked, then close every connection.
    pump_outputs(&mut core, &mut conns)?;
    for (_, reg) in conns.drain() {
        core.disconnect(reg.conn);
    }
    Ok(core)
}

/// Settles the endpoint and pushes each connection's due bytes to its
/// writer; reaps connections that are finished (closed or poisoned with
/// nothing left to say) or that the endpoint can no longer serve.
fn pump_outputs<E: Endpoint>(
    core: &mut E,
    conns: &mut HashMap<u64, Registered<E::Conn>>,
) -> Result<()> {
    core.settle()?;
    let mut reap = Vec::new();
    for (&token, reg) in conns.iter_mut() {
        // A send failure means the writer died (peer gone), a drain
        // failure that the endpoint gave up on the peer: treat either as
        // closed, replies are undeliverable.
        let delivered = match core.drain(reg.conn) {
            Ok(out) => out.is_empty() || reg.out.send(out).is_ok(),
            Err(_) => false,
        };
        if !delivered {
            reg.closed = true;
        }
        if core.finished(reg.conn, reg.closed) {
            reap.push(token);
        }
    }
    for token in reap {
        if let Some(reg) = conns.remove(&token) {
            core.disconnect(reg.conn);
            // Dropping `reg.out` ends the writer thread, which closes the
            // write half after the last queued chunk is on the wire.
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::client::Client;
    use crate::transport::TcpTransport;

    use super::*;

    #[test]
    fn tcp_round_trip_and_graceful_shutdown() {
        let server = TcpServer::bind("127.0.0.1:0", ServerOptions::default()).unwrap();
        let addr = server.local_addr().to_string();
        let mut c = Client::new(TcpTransport::connect(&addr).unwrap());
        c.ping().unwrap();
        c.set(b"k", b"v").unwrap();
        assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
        drop(c);
        let core = server.shutdown().unwrap();
        assert_eq!(core.store().pending(), 0, "shutdown drains the queue");
    }

    /// A reader that sees the stop flag still forwards the bytes its
    /// peer already sent, then reports the close.
    #[test]
    fn a_stopped_reader_forwards_bytes_already_sent() {
        use std::io::Write;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(READ_TICK)).unwrap();
        let request = b"*1\r\n$4\r\nPING\r\n";
        peer.write_all(request).unwrap();
        // Wait until every byte sits in the socket, without consuming any.
        let mut probe = [0u8; 64];
        while stream.peek(&mut probe).unwrap() < request.len() {}

        let (tx, rx) = mpsc::channel();
        reader_loop(7, stream, tx, Arc::new(AtomicBool::new(true)));
        let msgs: Vec<Msg> = rx.try_iter().collect();
        assert!(
            matches!(&msgs[..], [Msg::Data(7, bytes), Msg::Closed(7)] if bytes == request),
            "{msgs:?}"
        );
        drop(peer);
    }
}
