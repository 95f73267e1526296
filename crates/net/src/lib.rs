//! ecfrm-net: a real networked shard service for EC-FRM.
//!
//! The crate turns any [`ecfrm_sim::DiskBackend`] into a TCP shard server
//! and gives the client side a [`RemoteDisk`] adapter that implements the
//! same trait over the wire — so `ThreadedArray` and `ObjectStore` run
//! unmodified against remote shards, including degraded-read fallback
//! when a node times out or dies mid-read.
//!
//! Layers:
//! * [`protocol`] — version 6 of the length-prefixed binary framing:
//!   `Read` / `PutMany` / `CombineRange` / `Health` / `Wipe` / `Stats`
//!   and the object ops, every frame carrying its request id. The
//!   version byte is the whole handshake. No op marks a shard failed:
//!   that is the store's disk table, on the client's side.
//! * [`server`] — [`ShardServer`], a thread-per-connection server
//!   wrapping a `DiskBackend`, with a per-connection worker pool for the
//!   frames that have to wait.
//! * [`client`] — [`RemoteDisk`], and the crate's one client connection:
//!   one per peer, many id-tagged requests in flight, failures complete
//!   as absent cells or typed errors.
//! * [`front`] — [`FrontClient`], the object front door over the same
//!   kind of connection.
//! * [`cluster`] — [`Cluster`], an n-node loopback harness for tests,
//!   benches, and the CLI.
//!
//! # Example
//!
//! Boot a three-node loopback cluster and round-trip an element over
//! real TCP sockets:
//!
//! ```
//! use ecfrm_net::Cluster;
//! use ecfrm_sim::DiskBackend;
//!
//! let mut cluster = Cluster::spawn(3).unwrap();
//! let shard0 = &cluster.backends()[0];
//! shard0.write(0, b"hello over the wire".to_vec());
//! assert_eq!(shard0.read(0).as_deref(), Some(&b"hello over the wire"[..]));
//!
//! // Kill a node: reads fail cleanly instead of hanging, which is what
//! // lets the store fall back to a degraded-read plan.
//! cluster.kill(0);
//! assert!(cluster.backends()[0].read(0).is_none());
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod front;
pub mod protocol;
pub mod server;

pub use client::{RemoteDisk, RemoteDiskConfig};
pub use cluster::Cluster;
pub use front::FrontClient;
pub use protocol::{NetError, Request, Response};
pub use server::ShardServer;
