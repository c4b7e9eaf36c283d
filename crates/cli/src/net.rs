//! The network-facing subcommands of `noblsm-cli`:
//!
//! * `serve --addr <host:port> --shards <n>` — run a `nob-server` TCP
//!   front-end over a sharded store until stopped.
//! * `bench-net --clients <n> --ops <n> [--addr <host:port>]` — a
//!   closed-loop load generator over real sockets: pipelined mixed
//!   GET/SET per client, throughput and the server's `INFO` (which maps
//!   each shard onto [`noblsm::Db::property`]) in the report.
//!
//! Both speak the same wire protocol as any other client; `bench-net`
//! with no `--addr` spins up its own loopback-address server so the
//! command is self-contained.

use std::fmt::Write as _;

use nob_server::{Client, Request, ServerCore, ServerOptions, TcpServer, TcpTransport};
use nob_store::StoreOptions;
use noblsm::Error;

/// Binds a serving stack: `shards` hash-partitioned engines behind one
/// group-commit front-end listening on `addr`.
///
/// # Errors
///
/// Fails if the address cannot be bound or a shard cannot open.
pub fn serve(addr: &str, shards: usize) -> Result<TcpServer, Error> {
    let opts = ServerOptions {
        store: StoreOptions { shards, ..StoreOptions::default() },
        ..ServerOptions::default()
    };
    TcpServer::bind(addr, opts)
}

/// How many requests a bench client keeps in flight before pulling
/// replies. Must stay under the server's per-connection pipeline cap
/// (with headroom for the SET+GET pairs), or deep runs get `-BUSY`.
const PIPELINE_WINDOW: usize = 64;

/// Closed-loop TCP load: `clients` connections each issue `ops /
/// clients` SET requests (values of `value_size` bytes) with a
/// read-back GET every eighth op, pipelined up to `PIPELINE_WINDOW`
/// deep, then the server's `INFO` section is appended to the report.
/// With `addr: None` an in-process server on an ephemeral port is used
/// and gracefully drained afterwards.
///
/// # Errors
///
/// Propagates bind, connect and protocol errors.
pub fn bench_net(
    addr: Option<&str>,
    clients: usize,
    ops: u64,
    value_size: usize,
) -> Result<String, Error> {
    let clients = clients.max(1);
    let own_server = if addr.is_none() { Some(serve("127.0.0.1:0", 2)?) } else { None };
    let target = own_server
        .as_ref()
        .map_or_else(|| addr.unwrap_or_default().to_string(), |s| s.local_addr().to_string());

    let per_client = (ops / clients as u64).max(1);
    let started = std::time::Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|cid| {
            let target = target.clone();
            std::thread::spawn(move || -> Result<(), Error> {
                let pull = |c: &mut Client<TcpTransport>| -> Result<(), Error> {
                    let reply = c.recv_reply()?;
                    if reply.is_error() {
                        return Err(Error::Usage(format!("server rejected a request: {reply:?}")));
                    }
                    Ok(())
                };
                let mut c = Client::new(TcpTransport::connect(&target)?);
                for i in 0..per_client {
                    while c.outstanding() >= PIPELINE_WINDOW {
                        pull(&mut c)?;
                    }
                    let key = format!("bench-c{cid}-k{i}").into_bytes();
                    let value = vec![b'x'; value_size.max(1)];
                    c.send(&Request::Set(key.clone(), value))?;
                    if i % 8 == 7 {
                        c.send(&Request::Get(key))?;
                    }
                }
                while c.outstanding() > 0 {
                    pull(&mut c)?;
                }
                Ok(())
            })
        })
        .collect();
    let mut failures = Vec::new();
    for (cid, w) in workers.into_iter().enumerate() {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(format!("client {cid}: {e}")),
            Err(_) => failures.push(format!("client {cid}: panicked")),
        }
    }
    let elapsed = started.elapsed();

    let total = per_client * clients as u64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench-net: {clients} clients x {per_client} ops = {total} SET requests in {:.3}s \
         ({:.0} req/s wall-clock)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    for f in &failures {
        let _ = writeln!(out, "FAILED {f}");
    }

    // One more connection pulls INFO so the report carries the server's
    // own counters (and each shard's `noblsm.stats` property line).
    let mut probe = Client::new(TcpTransport::connect(&target)?);
    out.push_str(&probe.info()?);
    drop(probe);

    if let Some(server) = own_server {
        let core: ServerCore = server.shutdown()?;
        let stats = core.store().stats();
        let _ = writeln!(
            out,
            "drained: {} groups for {} batches ({:.2} batches/group)",
            stats.groups,
            stats.batches,
            stats.batches as f64 / stats.groups.max(1) as f64
        );
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(Error::Usage(format!("bench-net had failures:\n{out}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_net_self_contained_run_reports_throughput_and_info() {
        let report = bench_net(None, 4, 160, 64).expect("bench-net runs");
        assert!(report.contains("4 clients x 40 ops = 160 SET requests"), "{report}");
        assert!(report.contains("# server"), "INFO section present: {report}");
        assert!(report.contains("noblsm.stats:"), "per-shard property line: {report}");
        assert!(report.contains("batches/group"), "{report}");
        assert!(!report.contains("FAILED"), "{report}");
    }

    #[test]
    fn bench_net_runs_deeper_than_the_server_pipeline_cap() {
        // 600 ops on one connection far exceeds the per-connection
        // pipeline cap; the window must keep the client under it.
        let report = bench_net(None, 1, 600, 16).expect("windowed bench-net runs");
        assert!(report.contains("1 clients x 600 ops"), "{report}");
        assert!(!report.contains("FAILED"), "{report}");
        assert!(report.contains("busy_rejections:0"), "no BUSY pushback: {report}");
    }

    #[test]
    fn bench_net_against_an_external_server() {
        let server = serve("127.0.0.1:0", 4).expect("bind");
        let addr = server.local_addr().to_string();
        let report = bench_net(Some(&addr), 2, 32, 32).expect("bench-net runs");
        assert!(report.contains("2 clients x 16 ops"), "{report}");
        // An external server is left running for the caller to stop.
        server.shutdown().expect("graceful shutdown");
    }

    #[test]
    fn serve_rejects_unbindable_addresses() {
        assert!(serve("256.0.0.1:notaport", 2).is_err());
    }
}
