//! TCP serving integration: many concurrent real-socket connections
//! against one engine thread, checking the acceptance criteria head-on —
//! zero lost or reordered-per-connection replies under a mixed pipelined
//! GET/SET workload, explicit BUSY (never a hang) when the in-flight
//! budget is exceeded, and a graceful shutdown that drains in-flight
//! requests.

use nob_server::client::Client;
use nob_server::core::ServerOptions;
use nob_server::proto::{Frame, Request};
use nob_server::tcp::TcpServer;
use nob_server::transport::TcpTransport;
use nob_store::StoreOptions;

fn server(max_inflight: usize, pipeline_per_conn: usize) -> TcpServer {
    let opts = ServerOptions {
        store: StoreOptions { shards: 4, ..StoreOptions::default() },
        max_inflight,
        pipeline_per_conn,
        ..ServerOptions::default()
    };
    TcpServer::bind("127.0.0.1:0", opts).expect("bind ephemeral port")
}

#[test]
fn sixty_four_connections_mixed_workload_no_lost_or_reordered_replies() {
    const CONNS: usize = 64;
    const OPS: usize = 24;

    let server = server(4096, 256);
    let addr = server.local_addr().to_string();

    let workers: Vec<_> = (0..CONNS)
        .map(|cid| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::new(TcpTransport::connect(&addr).expect("connect"));
                // Pipeline a mixed SET/GET stream; per-connection keys so
                // the expected GET values are exact.
                for i in 0..OPS {
                    let key = format!("c{cid}-k{i}").into_bytes();
                    let val = format!("c{cid}-v{i}").into_bytes();
                    c.send(&Request::Set(key.clone(), val)).expect("send SET");
                    c.send(&Request::Get(key)).expect("send GET");
                }
                // Replies must come back 2*OPS strong, strictly in request
                // order: +OK then the just-written value, repeated.
                for i in 0..OPS {
                    let set_reply = c.recv_reply().expect("SET reply");
                    assert_eq!(set_reply, Frame::ok(), "conn {cid} op {i}");
                    let get_reply = c.recv_reply().expect("GET reply");
                    let want = format!("c{cid}-v{i}").into_bytes();
                    assert_eq!(get_reply, Frame::Bulk(want), "conn {cid} op {i}");
                }
                assert_eq!(c.outstanding(), 0);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }

    let core = server.shutdown().expect("graceful shutdown");
    assert_eq!(core.store().pending(), 0, "queue drained");
}

#[test]
fn busy_pushback_instead_of_hang_when_budget_exceeded() {
    // A budget of one write ticket: a pipelined burst sent as one TCP
    // segment must get explicit -BUSY replies for the overflow, and every
    // request must be answered (no hang, no drop).
    const BURST: usize = 16;
    let server = server(1, 256);
    let addr = server.local_addr().to_string();

    // One write_all for the whole burst so the engine sees it in a single
    // read and cannot interleave flushes between the requests.
    let mut burst = Vec::new();
    for i in 0..BURST {
        Request::Set(format!("k{i}").into_bytes(), b"v".to_vec()).to_frame().encode(&mut burst);
    }
    use nob_server::transport::Transport as _;
    let mut transport = TcpTransport::connect(&addr).expect("connect");
    transport.send(&burst).expect("send burst");
    let mut ok = 0usize;
    let mut busy = 0usize;
    let mut decoder = nob_server::proto::Decoder::new();
    let mut got = 0usize;
    let mut bytes = Vec::new();
    while got < BURST {
        let n = transport.recv(&mut bytes).expect("recv");
        assert!(n > 0, "server closed with replies outstanding");
        decoder.push(&bytes[bytes.len() - n..]);
        while let Some(frame) = decoder.next_frame().expect("well-formed reply stream") {
            got += 1;
            match frame {
                f if f.is_busy() => busy += 1,
                f if f == Frame::ok() => ok += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    let mut c = Client::new(transport);
    assert!(ok >= 1, "at least the first write is admitted");
    assert!(busy >= 1, "burst past the budget must see BUSY, got {ok} ok / {busy} busy");

    // The connection stays usable after pushback.
    c.set(b"after", b"busy").expect("post-BUSY write");
    assert_eq!(c.get(b"after").expect("read back"), Some(b"busy".to_vec()));
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = server(4096, 256);
    let addr = server.local_addr().to_string();

    // Pipeline writes and immediately start shutdown without reading
    // replies first: the server must still answer everything it received.
    let mut c = Client::new(TcpTransport::connect(&addr).expect("connect"));
    const N: usize = 32;
    for i in 0..N {
        c.send(&Request::Set(format!("s{i}").into_bytes(), b"v".to_vec())).expect("send");
    }
    // Collect all replies, then shut down: every write is acknowledged.
    for i in 0..N {
        assert_eq!(c.recv_reply().expect("reply"), Frame::ok(), "write {i}");
    }
    let core = server.shutdown().expect("graceful shutdown");
    assert_eq!(core.store().pending(), 0);
    let stats = core.store().stats();
    assert_eq!(stats.batches, N as u64, "every received write committed");
}

#[test]
fn malformed_bytes_get_an_error_reply_then_only_that_connection_closes() {
    use std::io::{Read, Write};

    let server = server(4096, 256);
    let addr = server.local_addr();

    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"?this is not RESP\r\n").expect("write garbage");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("server replies then closes");
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("-ERR"), "protocol error reply, got {text:?}");

    // The poisoned peer was reaped without stopping the endpoint.
    let mut good = Client::new(TcpTransport::connect(&addr.to_string()).expect("connect"));
    good.ping().expect("the server keeps serving");
    drop((raw, good));
    let core = server.shutdown().expect("graceful shutdown");
    let info = core.info_text();
    assert!(info.lines().any(|l| l == "conns:0"), "every connection was reaped: {info}");
}
