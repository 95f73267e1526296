//! The pooled, sequential connections kept for ops that go one request
//! at a time — [`FrontClient`](crate::FrontClient)'s object ops,
//! [`RemoteDisk`](crate::RemoteDisk)'s `Stats`, `Health`, `InjectFault`
//! and `CombineRange`, and a shard's `CombineRange` fetches from its
//! peers — and the one retry rule they follow.
//!
//! Retries are at-most-once: a pooled connection that fails
//! mid-round-trip is retried on a fresh dial only when the request
//! provably did not execute — either the request frame never fully left
//! this host, or the op is idempotent. A lost *response* to a
//! non-idempotent op surfaces as an error instead: the op may have
//! landed server-side, and a blind retry would run it twice.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ecfrm_util::Mutex;

use crate::client::RemoteDiskConfig;
use crate::protocol::{read_response, NetError, Response, SendFrame};

type Conn = BufReader<TcpStream>;

/// Idle connections to one server, and how to dial another.
pub(crate) struct Pool {
    addr: SocketAddr,
    connect_timeout: Duration,
    request_timeout: Duration,
    size: usize,
    /// Strictly one request at a time per connection; concurrency comes
    /// from pooling.
    idle: Mutex<Vec<Conn>>,
}

impl Pool {
    pub(crate) fn new(addr: SocketAddr, cfg: &RemoteDiskConfig) -> Self {
        Self {
            addr,
            connect_timeout: cfg.connect_timeout,
            request_timeout: cfg.request_timeout,
            size: cfg.pool_size,
            idle: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One request/response round trip on a pooled connection. A stale
    /// pooled connection gets one retry on a fresh dial only when the
    /// request provably did not execute server-side (the frame never
    /// fully left, or the op is idempotent); a fresh-dial failure is
    /// final.
    ///
    /// Only ops with no server-side effect that a replay would repeat
    /// are `idempotent`: a replayed `ObjWrite` would append its extent a
    /// second time, and a replayed `ObjCreate`/`ObjDelete` would flip a
    /// success into a spurious `already_exists`/`not_found`.
    pub(crate) fn request(
        &self,
        send: SendFrame<'_>,
        idempotent: bool,
    ) -> Result<Response, NetError> {
        // Pop in its own statement: an `if let` scrutinee's lock guard
        // would live for the whole block and deadlock against `park`.
        let pooled = self.idle.lock().pop();
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
        let mut stream = BufReader::new(self.dial()?);
        let resp = round_trip(&mut stream, send).map_err(TripError::into_inner)?;
        self.park(stream);
        Ok(resp)
    }

    /// A fresh connection with this pool's deadlines on it.
    pub(crate) fn dial(&self) -> Result<TcpStream, NetError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.request_timeout))?;
        stream.set_write_timeout(Some(self.request_timeout))?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    /// Keep a connection for reuse — only ever called after a clean
    /// request/response exchange, so its framing state is known-good.
    fn park(&self, stream: Conn) {
        let mut idle = self.idle.lock();
        if idle.len() < self.size {
            idle.push(stream);
        }
    }
}

/// Which phase of a round trip failed. After a `Send`-phase failure
/// the request frame never fully left this host, so the server cannot
/// have decoded (let alone executed) it; after a `Recv`-phase failure
/// it may have executed with only the response lost.
enum TripError {
    /// Writing the request failed: it was not fully transmitted.
    Send(NetError),
    /// `read_response` failed: the request may have executed.
    Recv(NetError),
}

impl TripError {
    fn into_inner(self) -> NetError {
        match self {
            TripError::Send(e) | TripError::Recv(e) => e,
        }
    }
}

/// The response is parsed field by field as it arrives, so it comes in
/// through a buffer (which a body bigger than it bypasses).
fn round_trip(stream: &mut Conn, send: SendFrame<'_>) -> Result<Response, TripError> {
    send(stream.get_mut()).map_err(TripError::Send)?;
    read_response(stream).map_err(TripError::Recv)
}
