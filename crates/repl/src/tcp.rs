//! `std::net` TCP front-end over [`ReplCore`]: the serving crate's
//! accept / reader / writer / engine thread set, instantiated for the
//! replication endpoint — so the replication logic on the wire is exactly
//! the single-threaded logic the loopback transport exercises
//! deterministically. `ReplCore`'s idle tick wakes the engine so
//! heartbeats and freshly committed records flow even while the
//! subscribers are silent.

use nob_server::TcpServer;

use crate::core::ReplCore;

/// A running replication TCP endpoint: `serve(addr, core)`, `local_addr()`
/// and a graceful `shutdown()` that hands the core back.
pub type ReplTcpServer = TcpServer<ReplCore>;

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use nob_server::TcpTransport;
    use nob_store::{Store, StoreOptions};
    use noblsm::{WriteBatch, WriteOptions};

    use crate::core::ReplCore;
    use crate::follower::Follower;
    use crate::leader::Leader;
    use crate::subscriber::FollowerLink;

    use super::*;

    #[test]
    fn tcp_follower_catches_up_and_serves_reads() {
        let opts = StoreOptions { shards: 2, ..StoreOptions::default() };
        let mut leader = Leader::new(Store::open(opts.clone()).unwrap(), 1);
        for i in 0..20u64 {
            let mut b = WriteBatch::new();
            b.put(format!("key{i:02}").as_bytes(), format!("val{i}").as_bytes());
            leader.write(&WriteOptions::default(), b).unwrap();
        }
        let server = ReplTcpServer::serve("127.0.0.1:0", ReplCore::new(leader)).unwrap();
        let addr = server.local_addr().to_string();

        let follower = Follower::new(Store::open(opts).unwrap(), 1);
        let transport = TcpTransport::connect(&addr).unwrap();
        let mut link = FollowerLink::new(transport, follower);
        link.subscribe().unwrap();
        // Real sockets deliver asynchronously: poll until caught up (the
        // records exist already, so this terminates quickly).
        let mut applied = 0;
        for _ in 0..400 {
            applied += link.poll().unwrap();
            if applied >= 20 && link.follower().shard_seqs().iter().sum::<u64>() == 20 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(link.follower().shard_seqs().iter().sum::<u64>(), 20);
        for i in 0..20u64 {
            let got = link.get(format!("key{i:02}").as_bytes(), None).unwrap();
            assert_eq!(got.as_deref(), Some(format!("val{i}").as_bytes()), "key{i:02}");
        }
        drop(link);
        let core = server.shutdown().unwrap();
        assert_eq!(core.leader().acked_seqs().iter().sum::<u64>(), 20, "acks reached the leader");
    }
}
