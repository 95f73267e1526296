//! [`FrontClient`]: the object front door over the wire, with
//! old-server fallback.
//!
//! A front node serves the object namespace ops (opcodes 11–15) through
//! a [`FrontDoor`] attached with
//! [`ShardServer::spawn_with_front`](crate::ShardServer::spawn_with_front).
//! `FrontClient` is the matching client: typed errors instead of
//! strings, and the additive-opcode negotiation rule the rest of the
//! protocol follows (PR-4 style, same as `GetRange` / `CombineRange`):
//!
//! * An **old server** rejects the opcode at decode and drops the
//!   connection. From the caller's side that is just a dead connection
//!   — the same face an outage or a flaky link wears — so the client
//!   never latches on the failure alone. It probes a fresh connection
//!   with a read-only *object op* ([`Request::ObjStat`]): a server
//!   that answers the probe frame (even with a typed `not_found`
//!   error) provably decodes object ops, so the failure was transient.
//!   Only the unknown-opcode rejection signature — the probe
//!   connection killed on the object opcode while [`Request::Health`]
//!   still answers — latches object ops **off permanently**, after
//!   which every call is served through the local fallback
//!   [`FrontDoor`] (when configured) over the raw shard data path.
//! * A **new but front-less server** answers with the typed
//!   [`NO_FRONT`] error — an *answering* server telling us it cannot
//!   serve object ops — which demotes the client the same way, without
//!   needing a probe.
//! * A **transient failure** — a request timeout (slow server, queued
//!   admission delay, large transfer), an outage (both probes fail),
//!   or a mid-op connection drop against a live new server — never
//!   latches: the call errors with [`StoreError::Net`] and the next
//!   call retries the wire.
//!
//! Retries follow an at-most-once discipline: a pooled connection that
//! fails mid-round-trip is retried on a fresh dial only when the
//! request provably did not execute — either the request frame never
//! fully left this host, or the op is idempotent ([`Request::ObjGet`] /
//! [`Request::ObjStat`]). A lost *response* to [`Request::ObjWrite`]
//! surfaces as an error instead: the write may have landed server-side,
//! and a blind retry would append the extent twice.
//!
//! Store errors cross the wire as prefixed strings ([`wire_error`]) and
//! are re-typed client-side ([`unwire_error`]), so `match`ing on
//! [`StoreError::NotFound`] vs [`StoreError::Throttled`] works
//! identically against a local or remote front door.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ecfrm_obs::{Counter, Recorder};
use ecfrm_store::{FrontDoor, ObjectStat, StoreError};
use ecfrm_util::Mutex;

use crate::client::RemoteDiskConfig;
use crate::protocol::{
    read_response, write_obj_write, write_request, NetError, Request, Response, SendFrame,
};

/// The typed error a front-less (but object-op-aware) server answers
/// every object op with. Receiving it demotes a [`FrontClient`] to its
/// local fallback, exactly like an old server failing the probe.
pub const NO_FRONT: &str = "no_front: this node serves raw shard ops only";

/// Encode a [`StoreError`] as the prefixed wire string carried in
/// [`Response::Error`], so [`unwire_error`] can re-type it client-side.
pub fn wire_error(e: &StoreError) -> String {
    match e {
        StoreError::NotFound(n) => format!("not_found: {n}"),
        StoreError::AlreadyExists(n) => format!("already_exists: {n}"),
        StoreError::RangeOutOfBounds { name, len } => format!("range: {len} {name}"),
        StoreError::Throttled(m) => format!("throttled: {m}"),
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
    StoreError::Net(msg.to_string())
}

/// Object front door client: speaks opcodes 11–15 to a front node, and
/// transparently demotes to a local [`FrontDoor`] when the server
/// predates them (see the [module docs](self) for the negotiation
/// rule).
pub struct FrontClient {
    addr: SocketAddr,
    cfg: RemoteDiskConfig,
    /// Pooled idle connections (object ops are strictly one-at-a-time
    /// per connection; concurrency comes from pooling).
    pool: Mutex<Vec<TcpStream>>,
    /// Cleared permanently the first time an *answering* server proves
    /// it cannot serve object ops.
    supported: AtomicBool,
    /// Where latched-off calls go. Without one, a demoted client
    /// errors instead.
    fallback: Option<Arc<FrontDoor>>,
    recorder: Recorder,
    remote_ops: Counter,
    fallback_ops: Counter,
    demotions: Counter,
}

impl std::fmt::Debug for FrontClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrontClient({}, supported={})",
            self.addr,
            self.supported.load(Ordering::Acquire)
        )
    }
}

impl FrontClient {
    /// Client for the front node at `addr` (timeouts and pool size come
    /// from `cfg`), with no local fallback: a server that cannot serve
    /// object ops makes every call error.
    pub fn new(addr: SocketAddr, cfg: RemoteDiskConfig) -> Self {
        let recorder = Recorder::new();
        let remote_ops = recorder.counter("front.remote");
        let fallback_ops = recorder.counter("front.fallback");
        let demotions = recorder.counter("front.demoted");
        Self {
            addr,
            cfg,
            pool: Mutex::new(Vec::new()),
            supported: AtomicBool::new(true),
            fallback: None,
            recorder,
            remote_ops,
            fallback_ops,
            demotions,
        }
    }

    /// Attach the local [`FrontDoor`] a demoted client serves through —
    /// typically built over [`RemoteDisk`](crate::RemoteDisk) backends
    /// pointing at the same cluster's shard nodes, so a mixed-version
    /// deployment stays byte-correct: new shard nodes do the data path,
    /// the old front node is simply bypassed.
    #[must_use]
    pub fn with_fallback(mut self, front: Arc<FrontDoor>) -> Self {
        self.fallback = Some(front);
        self
    }

    /// True until the server proves it cannot serve object ops; once
    /// false, every call goes to the fallback (the latch is permanent —
    /// servers do not upgrade mid-flight).
    pub fn remote_enabled(&self) -> bool {
        self.supported.load(Ordering::Acquire)
    }

    /// This client's metrics registry: `front.remote` / `front.fallback`
    /// ops served on each path, and the `front.demoted` latch count
    /// (0 or 1).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Create an empty object. See [`FrontDoor::create`].
    ///
    /// # Errors
    /// [`StoreError::AlreadyExists`] / [`StoreError::Net`].
    pub fn create(&self, tenant: &str, object: &str) -> Result<(), StoreError> {
        let req = Request::ObjCreate {
            tenant: tenant.to_string(),
            object: object.to_string(),
        };
        self.dispatch(&|w| write_request(w, &req), false, ack, |f| {
            f.create(tenant, object)
        })
    }

    /// Append `bytes` to an object as one extent. See
    /// [`FrontDoor::write`].
    ///
    /// # Errors
    /// [`StoreError::NotFound`], [`StoreError::Throttled`], or any
    /// store/transport error.
    pub fn write(&self, tenant: &str, object: &str, bytes: &[u8]) -> Result<(), StoreError> {
        // Sent from the caller's buffer: no owned `Request`, no payload.
        self.dispatch(
            &|w| write_obj_write(w, tenant, object, bytes),
            false,
            ack,
            |f| f.write(tenant, object, bytes),
        )
    }

    /// Create + first write in one call. See [`FrontDoor::put`].
    ///
    /// # Errors
    /// [`StoreError::AlreadyExists`], [`StoreError::Throttled`], or any
    /// store/transport error.
    pub fn put(&self, tenant: &str, object: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.create(tenant, object)?;
        self.write(tenant, object, bytes)
    }

    /// Read a whole object. See [`FrontDoor::read`].
    ///
    /// # Errors
    /// [`StoreError::NotFound`], [`StoreError::Throttled`], or any
    /// store/transport error.
    pub fn read(&self, tenant: &str, object: &str) -> Result<Vec<u8>, StoreError> {
        // `u64::MAX` is the wire encoding of "to the end".
        self.read_range(tenant, object, 0, u64::MAX)
    }

    /// Read `len` bytes from byte `start` (`len == u64::MAX` reads to
    /// the end). See [`FrontDoor::read_range`].
    ///
    /// # Errors
    /// [`StoreError::NotFound`], [`StoreError::RangeOutOfBounds`],
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
        self.dispatch(
            &|w| write_request(w, &req),
            true,
            |resp| match resp {
                Response::ObjData(bytes) => Ok(bytes),
                other => Err(unexpected(&other)),
            },
            |f| {
                let len = if len == u64::MAX {
                    f.stat(tenant, object)?.len.saturating_sub(start)
                } else {
                    len
                };
                f.read_range(tenant, object, start, len)
            },
        )
    }

    /// Object metadata. See [`FrontDoor::stat`].
    ///
    /// # Errors
    /// [`StoreError::NotFound`] / [`StoreError::Net`].
    pub fn stat(&self, tenant: &str, object: &str) -> Result<ObjectStat, StoreError> {
        let req = Request::ObjStat {
            tenant: tenant.to_string(),
            object: object.to_string(),
        };
        self.dispatch(
            &|w| write_request(w, &req),
            true,
            |resp| match resp {
                Response::ObjStat {
                    len,
                    version,
                    extents,
                } => Ok(ObjectStat {
                    len,
                    version,
                    extents: extents as usize,
                }),
                other => Err(unexpected(&other)),
            },
            |f| f.stat(tenant, object),
        )
    }

    /// Drop an object's namespace record. See [`FrontDoor::delete`].
    ///
    /// # Errors
    /// [`StoreError::NotFound`] / [`StoreError::Net`].
    pub fn delete(&self, tenant: &str, object: &str) -> Result<(), StoreError> {
        let req = Request::ObjDelete {
            tenant: tenant.to_string(),
            object: object.to_string(),
        };
        self.dispatch(&|w| write_request(w, &req), false, ack, |f| {
            f.delete(tenant, object)
        })
    }

    /// One op, either path: remote while the latch holds, local
    /// fallback once demoted. `send` writes the op's request frame;
    /// `idempotent` says whether it may be sent twice (see
    /// [`Self::request`]).
    fn dispatch<T>(
        &self,
        send: SendFrame<'_>,
        idempotent: bool,
        decode: impl FnOnce(Response) -> Result<T, StoreError>,
        local: impl Fn(&FrontDoor) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        if !self.remote_enabled() {
            return self.local(&local);
        }
        match self.request(send, idempotent) {
            Ok(Response::Error(msg)) if msg == NO_FRONT => {
                // An answering, object-op-aware server with no front
                // door: demote, same as an old server.
                self.demote();
                self.local(&local)
            }
            Ok(Response::Error(msg)) => Err(unwire_error(&msg)),
            Ok(resp) => {
                self.remote_ops.inc();
                decode(resp)
            }
            Err(NetError::Timeout) => {
                // A slow answer is not evidence of an old server: a
                // repair tenant's admission delay, a bulk deadline
                // above our request timeout, or a large ObjGet all
                // blow the deadline on a perfectly object-op-capable
                // node. Never latch on a timeout.
                Err(StoreError::Net(
                    "front op timed out (server slow or queueing, not demoting)".to_string(),
                ))
            }
            Err(e) => {
                // The connection died mid-op. An old server kills the
                // connection on the unknown opcode, which looks exactly
                // like an outage or a flaky link — only the failure
                // signature of unknown-opcode rejection (a fresh
                // connection killed on an object op while Health still
                // answers) demotes.
                match self.probe() {
                    Probe::NoObjectOps => {
                        self.demote();
                        self.local(&local)
                    }
                    Probe::Inconclusive => Err(StoreError::Net(format!("front op failed: {e}"))),
                }
            }
        }
    }

    fn local<T>(
        &self,
        local: &impl Fn(&FrontDoor) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        match &self.fallback {
            Some(f) => {
                self.fallback_ops.inc();
                local(f)
            }
            None => Err(StoreError::Net(
                "server does not serve object ops and no local fallback is configured".to_string(),
            )),
        }
    }

    fn demote(&self) {
        if self.supported.swap(false, Ordering::AcqRel) {
            self.demotions.inc();
        }
    }

    /// One request/response round trip on a pooled connection. A stale
    /// pooled connection gets one retry on a fresh dial only when the
    /// request provably did not execute server-side (the frame never
    /// fully left, or the op is idempotent); a fresh-dial failure is
    /// final.
    ///
    /// Only reads with no server-side effects are `idempotent`: a
    /// replayed `ObjWrite` would append its extent a second time, and a
    /// replayed `ObjCreate`/`ObjDelete` would flip a success into a
    /// spurious `already_exists`/`not_found`.
    fn request(&self, send: SendFrame<'_>, idempotent: bool) -> Result<Response, NetError> {
        // Pop in its own statement: an `if let` scrutinee's lock guard
        // would live for the whole block and deadlock against `park`.
        let pooled = self.pool.lock().pop();
        if let Some(mut stream) = pooled {
            match round_trip(&mut stream, send) {
                Ok(resp) => {
                    self.park(stream);
                    return Ok(resp);
                }
                // The request frame never fully left this host: the
                // server cannot have decoded it, so any op may retry
                // on a fresh dial.
                Err(TripError::Send(_)) => {}
                // The request may have executed with only the response
                // lost. Retrying a non-idempotent op here could run it
                // twice (an ObjWrite would append its extent again) —
                // surface the failure instead.
                Err(TripError::Recv(e)) if !idempotent => return Err(e),
                Err(TripError::Recv(_)) => {}
            }
        }
        let mut stream = self.dial()?;
        let resp = round_trip(&mut stream, send).map_err(TripError::into_inner)?;
        self.park(stream);
        Ok(resp)
    }

    /// Can this server serve object ops? Dials fresh and asks a
    /// read-only *object op* ([`Request::ObjStat`]): any answered frame
    /// — even a typed `not_found` error — proves the server decodes the
    /// opcode family, while an old server kills the connection at
    /// decode. [`Request::Health`] (which every protocol generation
    /// speaks) then separates "old server" from "nobody home".
    fn probe(&self) -> Probe {
        let req = Request::ObjStat {
            tenant: String::new(),
            object: String::new(),
        };
        let Ok(mut stream) = self.dial() else {
            return Probe::Inconclusive; // outage, not evidence of age
        };
        match round_trip(&mut stream, &|w| write_request(w, &req)) {
            // An answering front-less server cannot serve object ops,
            // same verdict as the typed-error path in `dispatch`.
            Ok(Response::Error(msg)) if msg == NO_FRONT => Probe::NoObjectOps,
            Ok(_) => Probe::Inconclusive,
            // A slow probe is a slow server, not an old one.
            Err(e) if matches!(e.inner(), NetError::Timeout) => Probe::Inconclusive,
            // The object opcode killed a fresh connection — the old-
            // server signature, if anyone is home at all.
            Err(_) => {
                if self.probe_alive() {
                    Probe::NoObjectOps
                } else {
                    Probe::Inconclusive
                }
            }
        }
    }

    /// Is anyone home? Dials fresh and asks [`Request::Health`] —
    /// deliberately *not* an object op, so every protocol generation
    /// can answer it.
    fn probe_alive(&self) -> bool {
        let Ok(mut stream) = self.dial() else {
            return false;
        };
        round_trip(&mut stream, &|w| write_request(w, &Request::Health)).is_ok()
    }

    fn dial(&self) -> Result<TcpStream, NetError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        stream.set_read_timeout(Some(self.cfg.request_timeout))?;
        stream.set_write_timeout(Some(self.cfg.request_timeout))?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    fn park(&self, stream: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < self.cfg.pool_size {
            pool.push(stream);
        }
    }
}

/// The verdict of a [`FrontClient::probe`]: demote only on proof.
enum Probe {
    /// The server provably cannot serve object ops: it killed a fresh
    /// connection on an object opcode while still answering `Health`
    /// (old server), or it answered the typed [`NO_FRONT`] error.
    NoObjectOps,
    /// Everything else — the probe answered (transient failure), timed
    /// out (slow, not old), or nothing answered (outage). Never latch.
    Inconclusive,
}

/// Which phase of a round trip failed. After a `Send`-phase failure
/// the request frame never fully left this host, so the server cannot
/// have decoded (let alone executed) it; after a `Recv`-phase failure
/// it may have executed with only the response lost.
enum TripError {
    /// `write_request` failed: the request was not fully transmitted.
    Send(NetError),
    /// `read_response` failed: the request may have executed.
    Recv(NetError),
}

impl TripError {
    fn inner(&self) -> &NetError {
        match self {
            TripError::Send(e) | TripError::Recv(e) => e,
        }
    }

    fn into_inner(self) -> NetError {
        match self {
            TripError::Send(e) | TripError::Recv(e) => e,
        }
    }
}

fn round_trip(stream: &mut TcpStream, send: SendFrame<'_>) -> Result<Response, TripError> {
    send(stream).map_err(TripError::Send)?;
    read_response(stream).map_err(TripError::Recv)
}

/// Shared decode for the three ops whose success is a bare
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
