//! [`FrontClient`]: the object front door over the wire.
//!
//! A front node serves the object namespace ops (opcodes 13–15, 18) through
//! a [`FrontDoor`](ecfrm_store::FrontDoor) attached with
//! [`ShardServer::spawn_with_front`](crate::ShardServer::spawn_with_front).
//! `FrontClient` is the matching client: typed errors instead of
//! strings, over the crate's one connection per peer, whose replies it
//! reads itself — it never starts a thread. Under the crate's one retry
//! rule ([`crate::client`]) an op runs at most once: a lost *response*
//! to a [`Request::ObjPut`] is an error, because the put may have
//! landed and a replay would answer `AlreadyExists` for it. A put is
//! one `ObjPut`, so like [`FrontDoor::put`](ecfrm_store::FrontDoor::put)
//! it lands whole or not at all.
//!
//! Every failure is a typed error and none of them changes what the
//! next call does: a timeout, an outage, a mid-op connection drop or a
//! server with no front door ([`NO_FRONT`]) is [`StoreError::Net`], and
//! the next call goes to the wire again — on the same connection after a
//! timeout (the late reply is dropped), on a fresh dial after a drop. A
//! request over the frame cap is [`StoreError::TooLarge`], refused before
//! a byte of it is sent, and its connection serves the next call.
//!
//! Store errors cross the wire as prefixed strings ([`wire_error`]) and
//! are re-typed client-side ([`unwire_error`]), so `match`ing on
//! [`StoreError::NotFound`] vs [`StoreError::Throttled`] works
//! identically against a local or remote front door.

use std::net::SocketAddr;

use ecfrm_obs::{Counter, NetStats, Recorder};
use ecfrm_store::{ObjectStat, StoreError};

use crate::client::{Link, RemoteDiskConfig};
use crate::protocol::{write_obj_bytes, write_request, NetError, Request, Response, SendFrame};

/// The typed error a server with no front door attached answers every
/// object op with; a [`FrontClient`] reports it as [`StoreError::Net`].
pub const NO_FRONT: &str = "no_front: this node serves raw shard ops only";

/// Encode a [`StoreError`] as the prefixed wire string carried in
/// [`Response::Error`], so [`unwire_error`] can re-type it client-side.
pub fn wire_error(e: &StoreError) -> String {
    match e {
        StoreError::NotFound(n) => format!("not_found: {n}"),
        StoreError::AlreadyExists(n) => format!("already_exists: {n}"),
        StoreError::RangeOutOfBounds { name, len } => format!("range: {len} {name}"),
        StoreError::Throttled(m) => format!("throttled: {m}"),
        StoreError::TooLarge(m) => format!("too_large: {m}"),
        other => format!("store: {other}"),
    }
}

/// Re-type a wire error string produced by [`wire_error`]. Unknown
/// shapes become [`StoreError::Net`] so nothing is silently dropped.
pub fn unwire_error(msg: &str) -> StoreError {
    if let Some(n) = msg.strip_prefix("not_found: ") {
        return StoreError::NotFound(n.to_string());
    }
    if let Some(n) = msg.strip_prefix("already_exists: ") {
        return StoreError::AlreadyExists(n.to_string());
    }
    if let Some(rest) = msg.strip_prefix("range: ") {
        if let Some((len, name)) = rest.split_once(' ') {
            if let Ok(len) = len.parse() {
                return StoreError::RangeOutOfBounds {
                    name: name.to_string(),
                    len,
                };
            }
        }
    }
    if let Some(m) = msg.strip_prefix("throttled: ") {
        return StoreError::Throttled(m.to_string());
    }
    if let Some(m) = msg.strip_prefix("too_large: ") {
        return StoreError::TooLarge(m.to_string());
    }
    StoreError::Net(msg.to_string())
}

/// Object front door client: speaks opcodes 13–15 and 18 to a front node.
pub struct FrontClient {
    link: Link,
    recorder: Recorder,
    remote_ops: Counter,
}

impl std::fmt::Debug for FrontClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrontClient({})", self.link.addr)
    }
}

impl FrontClient {
    /// Client for the front node at `addr` (timeouts come from `cfg`).
    pub fn new(addr: SocketAddr, cfg: RemoteDiskConfig) -> Self {
        let recorder = Recorder::new();
        let remote_ops = recorder.counter("front.remote");
        Self {
            link: Link::new(addr, cfg),
            recorder,
            remote_ops,
        }
    }

    /// This client's metrics registry: `front.remote`, the ops the
    /// server answered with something other than an error.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The transport counters of this client's connection: retries,
    /// timeouts, reconnects, failed requests, discarded connections.
    pub fn net_stats(&self) -> NetStats {
        self.link.counters.snapshot()
    }

    /// Create an object holding `bytes`, in one RPC: it lands whole or
    /// not at all. See [`FrontDoor::put`](ecfrm_store::FrontDoor::put).
    ///
    /// # Errors
    /// [`StoreError::AlreadyExists`], [`StoreError::Throttled`],
    /// [`StoreError::TooLarge`] for more than one frame carries, or any
    /// store/transport error.
    pub fn put(&self, tenant: &str, object: &str, bytes: &[u8]) -> Result<(), StoreError> {
        // Sent from the caller's buffer: no owned `Request`, no payload.
        self.dispatch(&|w, id| write_obj_bytes(w, id, tenant, object, bytes), ack)
    }

    /// Read a whole object. See
    /// [`FrontDoor::read`](ecfrm_store::FrontDoor::read).
    ///
    /// # Errors
    /// [`StoreError::NotFound`], [`StoreError::Throttled`], or any
    /// store/transport error.
    pub fn read(&self, tenant: &str, object: &str) -> Result<Vec<u8>, StoreError> {
        // `u64::MAX` is the wire encoding of "to the end".
        self.read_range(tenant, object, 0, u64::MAX)
    }

    /// Read `len` bytes from byte `start` (`len == u64::MAX` reads to
    /// the end). See
    /// [`FrontDoor::read_range`](ecfrm_store::FrontDoor::read_range).
    ///
    /// # Errors
    /// [`StoreError::NotFound`], [`StoreError::RangeOutOfBounds`],
    /// [`StoreError::TooLarge`] for more than one reply frame carries,
    /// [`StoreError::Throttled`], or any store/transport error.
    pub fn read_range(
        &self,
        tenant: &str,
        object: &str,
        start: u64,
        len: u64,
    ) -> Result<Vec<u8>, StoreError> {
        let req = Request::ObjGet {
            tenant: tenant.to_string(),
            object: object.to_string(),
            start,
            len,
        };
        self.dispatch(&|w, id| write_request(w, id, &req), |resp| match resp {
            Response::ObjData(bytes) => Ok(bytes),
            other => Err(unexpected(&other)),
        })
    }

    /// Object metadata. See
    /// [`FrontDoor::stat`](ecfrm_store::FrontDoor::stat).
    ///
    /// # Errors
    /// [`StoreError::NotFound`] / [`StoreError::Net`].
    pub fn stat(&self, tenant: &str, object: &str) -> Result<ObjectStat, StoreError> {
        let req = Request::ObjStat {
            tenant: tenant.to_string(),
            object: object.to_string(),
        };
        self.dispatch(&|w, id| write_request(w, id, &req), |resp| match resp {
            Response::ObjStat { len } => Ok(ObjectStat { len }),
            other => Err(unexpected(&other)),
        })
    }

    /// Drop an object's namespace record. See
    /// [`FrontDoor::delete`](ecfrm_store::FrontDoor::delete).
    ///
    /// # Errors
    /// [`StoreError::NotFound`] / [`StoreError::Net`].
    pub fn delete(&self, tenant: &str, object: &str) -> Result<(), StoreError> {
        let req = Request::ObjDelete {
            tenant: tenant.to_string(),
            object: object.to_string(),
        };
        self.dispatch(&|w, id| write_request(w, id, &req), ack)
    }

    /// One op: `send` writes its request frame, `decode` types the
    /// answer.
    fn dispatch<T>(
        &self,
        send: SendFrame<'_>,
        decode: impl FnOnce(Response) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        match self.link.call(send) {
            Ok(resp) => {
                self.remote_ops.inc();
                decode(resp)
            }
            Err(NetError::Remote(msg)) => Err(unwire_error(&msg)),
            Err(too_large @ NetError::TooLarge(_)) => Err(too_large.into()),
            Err(e) => Err(StoreError::Net(format!("front op failed: {e}"))),
        }
    }
}

/// Shared decode for the two ops whose success is a bare
/// [`Response::ObjAck`].
fn ack(resp: Response) -> Result<(), StoreError> {
    match resp {
        Response::ObjAck => Ok(()),
        other => Err(unexpected(&other)),
    }
}

fn unexpected(resp: &Response) -> StoreError {
    StoreError::Net(format!("unexpected response to object op: {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_errors_round_trip_typed() {
        let cases = vec![
            StoreError::NotFound("t/a".into()),
            StoreError::AlreadyExists("t/a b c".into()),
            StoreError::RangeOutOfBounds {
                name: "t/obj with spaces".into(),
                len: 12345,
            },
            StoreError::Throttled("bulk over budget".into()),
            StoreError::TooLarge("t/a: 70000000 bytes".into()),
        ];
        for e in cases {
            assert_eq!(unwire_error(&wire_error(&e)), e, "round-tripping {e}");
        }
        // Errors without a dedicated prefix degrade to Net, never panic.
        let e = wire_error(&StoreError::DataLoss("stripe 7".into()));
        assert!(matches!(unwire_error(&e), StoreError::Net(_)));
        assert!(matches!(unwire_error("garbage"), StoreError::Net(_)));
        assert!(matches!(unwire_error("range: xyz abc"), StoreError::Net(_)));
    }
}
