//! A subscriber that breaks the protocol — bytes the RESP decoder
//! rejects, or a well-formed RESP frame that is not a replication
//! message — is dropped by the TCP endpoint without disturbing it: a
//! well-behaved follower connected after them keeps streaming.

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

    // Each is a protocol error: the endpoint hangs up on that peer (EOF,
    // possibly after heartbeats already in flight).
    let zero_length_prefix: &[u8] = &[0; 4];
    let not_a_message: &[u8] = b"*1\r\n$4\r\nPING\r\n";
    let mut bad = Vec::new();
    for bytes in [zero_length_prefix, not_a_message] {
        let mut peer = TcpStream::connect(&addr).unwrap();
        peer.write_all(bytes).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = Vec::new();
        peer.read_to_end(&mut sink).expect("the endpoint closes a poisoned connection");
        bad.push(peer);
    }

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
