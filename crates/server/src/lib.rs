//! `nob-server` — a pipelined network serving layer with admission
//! control over the sharded store.
//!
//! This crate is where NobLSM's engine-level claims become
//! client-visible: write stalls at the engine surface as tail-latency
//! spikes at the wire, and group commit turns many small pipelined
//! client writes into few engine writes. The layout:
//!
//! * [`proto`] — the RESP-subset frame codec and request vocabulary
//!   (GET/SET/DEL/MGET/BATCH/SCAN/PING/INFO), with hard caps so
//!   malformed input yields protocol errors, never panics or desyncs.
//! * [`core`] — [`ServerCore`]: transport-independent
//!   connection registry, request execution against
//!   [`nob_store::Store`], two-level admission control with `-BUSY`
//!   pushback, and strictly in-order per-connection replies.
//! * [`transport`] — the [`Transport`] trait with
//!   two implementations: a real TCP socket and a deterministic
//!   in-process loopback on virtual time (the golden-pinnable one).
//! * [`client`] — a pipelining client generic over the transport.
//! * [`Endpoint`] — the trait a serving core implements
//!   (connect / feed / settle / drain / finished / disconnect), which is
//!   all the two front-ends know about it.
//! * [`tcp`] — [`TcpServer`]: accept / per-connection
//!   reader & writer / single engine thread over `std::net`.
//!
//! # Example (loopback, deterministic)
//!
//! ```
//! use nob_server::client::Client;
//! use nob_server::core::{ServerCore, ServerOptions};
//! use nob_server::transport::{shared, LoopbackTransport};
//!
//! # fn main() -> noblsm::Result<()> {
//! let core = shared(ServerCore::open(ServerOptions::default())?);
//! let mut client = Client::new(LoopbackTransport::connect(&core));
//! client.set(b"paper", b"NobLSM")?;
//! assert_eq!(client.get(b"paper")?.as_deref(), Some(&b"NobLSM"[..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod client;
pub mod core;
mod endpoint;
pub mod proto;
pub mod tcp;
pub mod transport;

pub use client::{is_busy_error, Client};
pub use core::{ConnId, ServerCore, ServerOptions};
pub use endpoint::Endpoint;
pub use noblsm::{Error, Result};
pub use proto::{BatchOp, Decoder, Frame, ProtoError, Request, RequestClass};
pub use tcp::TcpServer;
pub use transport::{shared, Loopback, LoopbackTransport, SharedCore, TcpTransport, Transport};
