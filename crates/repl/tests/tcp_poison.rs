//! A subscriber that breaks the frame protocol is dropped by the TCP
//! endpoint without disturbing it: well-behaved followers connected
//! before and after keep streaming.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nob_repl::{Follower, FollowerLink, Leader, ReplCore, ReplTcpServer};
use nob_server::TcpTransport;
use nob_store::{Store, StoreOptions};
use noblsm::{WriteBatch, WriteOptions};

#[test]
fn poisoned_subscriber_is_reaped_and_the_endpoint_keeps_streaming() {
    let opts = StoreOptions { shards: 1, ..StoreOptions::default() };
    let mut leader = Leader::new(Store::open(opts.clone()).unwrap(), 1);
    let mut batch = WriteBatch::new();
    batch.put(b"k", b"v");
    leader.write(&WriteOptions::default(), batch).unwrap();
    let server = ReplTcpServer::serve("127.0.0.1:0", ReplCore::new(leader)).unwrap();
    let addr = server.local_addr().to_string();

    // A zero-length frame is a protocol error: the endpoint hangs up on
    // this peer (EOF, possibly after heartbeats already in flight).
    let mut bad = TcpStream::connect(&addr).unwrap();
    bad.write_all(&0u32.to_le_bytes()).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sink = Vec::new();
    bad.read_to_end(&mut sink).expect("the endpoint closes a poisoned connection");

    let follower = Follower::new(Store::open(opts).unwrap(), 1);
    let mut link = FollowerLink::new(TcpTransport::connect(&addr).unwrap(), follower);
    link.subscribe().unwrap();
    for _ in 0..400 {
        link.poll().unwrap();
        if link.follower().shard_seqs() == [1] {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(link.follower().shard_seqs(), [1], "the follower caught up");
    drop((bad, link));
    let core = server.shutdown().unwrap();
    assert_eq!(core.connections(), 0, "every connection was reaped");
}
