//! [`RemoteDisk`]: a [`DiskBackend`] that speaks the wire protocol, and
//! the one client connection every client in this crate rides.
//!
//! Drop-in client for a [`ShardServer`](crate::server::ShardServer):
//! `ThreadedArray` and `ObjectStore` run unmodified over it. Every op it
//! sends rides one connection to its shard, dialled on first use, with
//! many id-tagged requests in flight answered in completion order; so do
//! [`FrontClient`](crate::FrontClient)'s object ops and a combine root's
//! peer fetches — one connection per (client, peer). Until its first
//! async submission (`Read`, `PutMany`, a peer fetch) a connection has
//! no thread of its own: a blocking call reads its own reply, completing
//! any other id it reads on the way. That submission starts the demux
//! thread, so [`DiskBackend::submit_read_many`] never blocks on the
//! shard. The one fault it sends is [`DiskBackend::wipe`] (`Wipe`):
//! whether its shard is failed is the store's disk table, which no
//! other client of the shard sees.
//!
//! One retry rule for every op: a frame that never fully left this host
//! is re-sent once on a fresh dial (`net.retries`) — unless it never
//! started to, being over the frame cap: that request fails
//! [`NetError::TooLarge`] and its connection carries on. Anything else —
//! a refused dial, a connection lost with the request in flight, an
//! error reply — fails the request (`net.failed_requests`): a read's cells
//! complete absent, so the store replans it through parity, and every
//! other op returns the error. One timeout rule: a request past its
//! deadline completes `Timeout` (`net.timeouts`); its connection stays
//! up and its late reply is dropped. The array sums every client's
//! [`NetCounters`] into the store's `net.*` counters.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_obs::{Histogram, HistogramSnapshot, NetCounters, NetStats};
use ecfrm_sim::{
    io_pair, CombineReply, CombineSpec, DiskBackend, IoCompleter, IoHandle, IoResults, WriteRun,
};
use ecfrm_util::Mutex;

use crate::protocol::{
    read_response_polling, version_mismatch, write_put_many, write_request, NetError, Polled,
    Request, Response, SendFrame, MAX_PAYLOAD, MAX_RANGE,
};

/// What a client needs to know about its connections. Build one with
/// [`RemoteDiskConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteDiskConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-request response deadline.
    pub request_timeout: Duration,
}

impl Default for RemoteDiskConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(1),
        }
    }
}

impl RemoteDiskConfig {
    /// Start building a config from the defaults, in the
    /// `Scheme::builder` style:
    ///
    /// ```
    /// use std::time::Duration;
    /// use ecfrm_net::RemoteDiskConfig;
    ///
    /// let cfg = RemoteDiskConfig::builder()
    ///     .request_timeout(Duration::from_millis(500))
    ///     .build();
    /// assert_eq!(cfg.request_timeout, Duration::from_millis(500));
    /// ```
    pub fn builder() -> RemoteDiskConfigBuilder {
        RemoteDiskConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Fluent constructor for [`RemoteDiskConfig`]: chain setters and/or a
/// preset, then [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct RemoteDiskConfigBuilder {
    cfg: RemoteDiskConfig,
}

impl RemoteDiskConfigBuilder {
    /// TCP connect deadline.
    #[must_use]
    pub fn connect_timeout(mut self, d: Duration) -> Self {
        self.cfg.connect_timeout = d;
        self
    }

    /// Per-request response deadline.
    #[must_use]
    pub fn request_timeout(mut self, d: Duration) -> Self {
        self.cfg.request_timeout = d;
        self
    }

    /// Does nothing: every peer gets one connection, so there is no
    /// pool to size. Kept so callers written against the pooled
    /// transport still build.
    #[deprecated(note = "one connection per peer: there is no pool to size")]
    #[must_use]
    pub fn pool_size(self, _n: usize) -> Self {
        self
    }

    /// Does nothing: a shard ships each cell as stored and the store
    /// checks it where it is used (DESIGN.md §13). Kept so callers
    /// written against the keyed `Read` still build.
    #[deprecated(note = "the store checks every cell once: a read carries no key")]
    #[doc(hidden)]
    #[must_use]
    pub fn integrity_key(self, _k0: u64, _k1: u64) -> Self {
        self
    }

    /// Preset: tight timeouts for tests and latency-sensitive callers —
    /// failures are detected in tens of milliseconds instead of
    /// seconds.
    #[must_use]
    pub fn low_latency(mut self) -> Self {
        self.cfg.connect_timeout = Duration::from_millis(200);
        self.cfg.request_timeout = Duration::from_millis(200);
        self
    }

    /// Finish: the assembled config.
    #[must_use]
    pub fn build(self) -> RemoteDiskConfig {
        self.cfg
    }
}

/// How often a connection's reader wakes when idle to check liveness,
/// and how often — idle or not — it sweeps request deadlines.
const MUX_POLL: Duration = Duration::from_millis(10);

/// What a request comes to: its reply, or why there is none. An error
/// reply is [`NetError::Remote`].
type Reply = Result<Response, NetError>;

/// Completion callback for one request — guaranteed to run exactly
/// once: with the reply, a timeout, or a transport error.
pub(crate) type Callback = Box<dyn FnOnce(Reply) + Send>;

struct Pending {
    deadline: Instant,
    done: Callback,
}

/// State shared between submitters and whoever reads the connection.
struct MuxShared {
    pending: Mutex<HashMap<u64, Pending>>,
    /// Set on any unclean event (EOF, garbage frame, failed write) and
    /// on intentional shutdown; the reader polls it as its stop flag.
    dead: AtomicBool,
    counters: Arc<NetCounters>,
}

impl MuxShared {
    /// Complete every outstanding request with a transport error
    /// saying `why` (callbacks run outside the lock).
    fn fail_all(&self, why: &str) {
        let drained: Vec<Pending> = self.pending.lock().drain().map(|(_, p)| p).collect();
        for p in drained {
            (p.done)(Err(NetError::Protocol(why.to_string())));
        }
    }

    /// Time out every request past its deadline (callbacks run outside
    /// the lock). The connection itself stays up; a late response for a
    /// swept id is dropped on arrival.
    fn sweep(&self) {
        let now = Instant::now();
        let expired: Vec<Pending> = {
            let mut pending = self.pending.lock();
            let ids: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&id, _)| id)
                .collect();
            ids.iter().filter_map(|id| pending.remove(id)).collect()
        };
        for p in expired {
            self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            (p.done)(Err(NetError::Timeout));
        }
    }

    /// Mark the connection unusable; the first to do so accounts the
    /// discard. (An intentional shutdown raised the flag already, so it
    /// is never counted.)
    fn discard(&self) {
        if !self.dead.swap(true, Ordering::AcqRel) {
            self.counters
                .conns_discarded
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Said of a request that was in flight when its connection died.
const CONN_LOST: &str = "mux connection lost";

fn lost() -> Reply {
    Err(NetError::Protocol(CONN_LOST.into()))
}

/// A connection's read half, and when its deadlines were last swept.
struct Reader {
    stream: BufReader<TcpStream>,
    swept: Instant,
}

impl Reader {
    /// Read one reply — or wait out one idle tick — and complete the
    /// request it answers; sweep deadlines once per [`MUX_POLL`], idle
    /// or busy. `false` once the connection is dead, every outstanding
    /// request failed.
    fn pump(&mut self, shared: &MuxShared) -> bool {
        let why = match read_response_polling(&mut self.stream, &shared.dead) {
            Polled::Frame(id, resp) => {
                let entry = shared.pending.lock().remove(&id);
                // else: a late reply for a swept id — drop it.
                if let Some(p) = entry {
                    (p.done)(match resp {
                        Response::Error(msg) => Err(NetError::Remote(msg)),
                        ok => Ok(ok),
                    });
                }
                // A busy connection never idles: it sweeps between replies.
                if self.swept.elapsed() < MUX_POLL {
                    return true;
                }
                None
            }
            Polled::Idle => None,
            // EOF, garbage, or the stop flag raised by a failed write or
            // an intentional shutdown.
            Polled::Closed => Some(CONN_LOST.to_string()),
            Polled::WrongVersion(peer) => Some(version_mismatch(peer)),
        };
        if let Some(why) = why {
            shared.discard();
            shared.fail_all(&why);
            return false;
        }
        shared.sweep();
        self.swept = Instant::now();
        true
    }
}

/// One connection to a peer: submitters write id-tagged frames under
/// the writer lock, and whoever reads completes the replies as they
/// land, whatever the order.
struct MuxConn {
    writer: Mutex<TcpStream>,
    shared: Arc<MuxShared>,
    next_id: AtomicU64,
    /// The read half, read by blocking callers under this lock until the
    /// demux thread takes it (`None`).
    reader: Mutex<Option<Reader>>,
}

impl MuxConn {
    /// Dial a fresh connection. Nothing is exchanged first: the version
    /// byte of the first frame is the handshake.
    fn dial(link: &Link) -> Result<Self, NetError> {
        let stream = TcpStream::connect_timeout(&link.addr, link.cfg.connect_timeout)?;
        // The reader polls, so it notices the stop flag and sweeps
        // deadlines while idle.
        stream.set_read_timeout(Some(MUX_POLL))?;
        stream.set_write_timeout(Some(link.cfg.request_timeout))?;
        stream.set_nodelay(true).ok();
        let reader = Reader {
            stream: BufReader::new(stream.try_clone()?),
            swept: Instant::now(),
        };
        Ok(Self {
            writer: Mutex::new(stream),
            shared: Arc::new(MuxShared {
                pending: Mutex::new(HashMap::new()),
                dead: AtomicBool::new(false),
                counters: Arc::clone(&link.counters),
            }),
            next_id: AtomicU64::new(1),
            reader: Mutex::new(Some(reader)),
        })
    }

    fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Hand the read half to a demux thread, unless one has it already.
    fn start_demux(&self) {
        if let Some(mut reader) = self.reader.lock().take() {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || while reader.pump(&shared) {});
        }
    }

    /// Send one id-tagged frame: `send` writes it, given the writer and
    /// the id to tag it with; an async submission (`demux`) starts the
    /// demux thread first. `Ok` means `done` runs exactly once — with
    /// the response, with `Timeout` after the deadline, with
    /// [`NetError::TooLarge`] for a frame refused before its first byte
    /// (the connection untouched), or with a transport error if the
    /// connection dies first. `Err` hands `done` back unrun: the frame
    /// did not (wholly) leave this host.
    fn submit(
        &self,
        send: SendFrame<'_>,
        timeout: Duration,
        done: Callback,
        demux: bool,
    ) -> Result<(), Callback> {
        if self.is_dead() {
            return Err(done);
        }
        if demux {
            self.start_demux();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.pending.lock().insert(
            id,
            Pending {
                deadline: Instant::now() + timeout,
                done,
            },
        );
        let sent = send(&mut self.writer.lock(), id);
        if let Err(too_large @ NetError::TooLarge(_)) = sent {
            if let Some(p) = self.shared.pending.lock().remove(&id) {
                (p.done)(Err(too_large));
            }
            return Ok(());
        }
        let wrote = sent.is_ok();
        if !wrote {
            self.shared.discard();
        }
        if !wrote || self.is_dead() {
            // Either our write failed, or the reader died and drained
            // `pending` while we were inserting. Whoever still finds the
            // entry settles it; a missing entry means the reader beat
            // us to it.
            if let Some(p) = self.shared.pending.lock().remove(&id) {
                if !wrote {
                    return Err(p.done);
                }
                (p.done)(lost());
            }
        }
        Ok(())
    }

    /// Wait for the reply `rx` carries: read the socket, completing
    /// whatever reply comes, this caller's or another's — or, once the
    /// demux thread reads, wait to be completed.
    fn wait(&self, rx: &Receiver<Reply>) -> Reply {
        loop {
            let mut reader = self.reader.lock();
            if let Ok(reply) = rx.try_recv() {
                return reply;
            }
            match reader.as_mut() {
                // A dead connection failed every request, this one too.
                Some(reader) => reader.pump(&self.shared),
                None => break,
            };
        }
        rx.recv().unwrap_or_else(|_| lost())
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Intentional shutdown: stop the reader (it exits at its next
        // poll tick) without counting a discarded connection.
        self.shared.dead.store(true, Ordering::Release);
    }
}

/// One client's connection to one peer, and how to dial another when it
/// dies. [`RemoteDisk`], [`FrontClient`](crate::FrontClient) and a
/// combine root's peer fetches each hold one per peer.
pub(crate) struct Link {
    pub(crate) addr: SocketAddr,
    cfg: RemoteDiskConfig,
    pub(crate) counters: Arc<NetCounters>,
    /// The connection, once dialled; a dead one stays here until a dial
    /// replaces it. Also the re-dial critical section.
    conn: Mutex<Option<Arc<MuxConn>>>,
}

impl Link {
    /// A link to `addr`. Nothing is dialled until the first request.
    pub(crate) fn new(addr: SocketAddr, cfg: RemoteDiskConfig) -> Self {
        Self {
            addr,
            cfg,
            counters: Arc::new(NetCounters::new()),
            conn: Mutex::new(None),
        }
    }

    /// The live connection, dialling if there is none or the last one
    /// died.
    fn conn(&self) -> Result<Arc<MuxConn>, NetError> {
        let mut slot = self.conn.lock();
        if let Some(conn) = slot.as_ref().filter(|conn| !conn.is_dead()) {
            return Ok(Arc::clone(conn));
        }
        let conn = Arc::new(MuxConn::dial(self)?);
        if slot.replace(Arc::clone(&conn)).is_some() {
            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        Ok(conn)
    }

    /// Send one frame; `done` runs exactly once. The one retry rule
    /// lives here: a frame that never fully left this host is re-sent
    /// once, on a fresh dial. Nothing sleeps. `Some` is the connection
    /// the frame is in flight on.
    fn send(&self, send: SendFrame<'_>, mut done: Callback, demux: bool) -> Option<Arc<MuxConn>> {
        for attempt in 0..2 {
            if attempt == 1 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            let conn = match self.conn() {
                Ok(conn) => conn,
                Err(e) => {
                    done(Err(e));
                    return None;
                }
            };
            match conn.submit(send, self.cfg.request_timeout, done, demux) {
                Ok(()) => return Some(conn),
                Err(unsent) => done = unsent,
            }
        }
        done(lost());
        None
    }

    /// An async submission: `done` runs exactly once, on the
    /// connection's demux thread — with the reply, with `Timeout` after
    /// the deadline, or with the transport error.
    pub(crate) fn submit(&self, send: SendFrame<'_>, done: Callback) {
        self.send(send, done, true);
    }

    /// A blocking call: the reply, or why there is none. Any error
    /// counts one failed request.
    pub(crate) fn call(&self, send: SendFrame<'_>) -> Reply {
        let (tx, rx) = sync_channel(1);
        let done: Callback = Box::new(move |reply| {
            let _ = tx.send(reply);
        });
        // No connection: `done` has run already.
        let reply = match self.send(send, done, false) {
            Some(conn) => conn.wait(&rx),
            None => rx.recv().unwrap_or_else(|_| lost()),
        };
        if reply.is_err() {
            self.counters
                .failed_requests
                .fetch_add(1, Ordering::Relaxed);
        }
        reply
    }
}

/// The cells of one read, filled in by the frames it went out as; when
/// the last of them lets go, the read's handle completes.
struct Gather {
    cells: Mutex<IoResults>,
    completer: Option<IoCompleter>,
}

impl Drop for Gather {
    fn drop(&mut self) {
        if let Some(completer) = self.completer.take() {
            completer.complete(std::mem::take(&mut *self.cells.lock()));
        }
    }
}

/// A remote shard, presented as a local [`DiskBackend`].
pub struct RemoteDisk {
    /// The one connection to the shard, and how to dial it.
    link: Link,
    /// End-to-end latency of data-path requests (read / write /
    /// combine), in microseconds.
    request_us: Histogram,
}

impl std::fmt::Debug for RemoteDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RemoteDisk({})", self.addr())
    }
}

impl RemoteDisk {
    /// A client for the shard at `addr`. No connection is made until the
    /// first request.
    pub fn new(addr: SocketAddr, cfg: RemoteDiskConfig) -> Self {
        Self {
            link: Link::new(addr, cfg),
            request_us: Histogram::new(),
        }
    }

    /// The shard address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.link.addr
    }

    /// Live handle to the transport counters.
    pub fn counters(&self) -> Arc<NetCounters> {
        Arc::clone(&self.link.counters)
    }

    /// Snapshot of the end-to-end data-path request latency histogram
    /// (microseconds).
    pub fn request_latency(&self) -> HistogramSnapshot {
        self.request_us.snapshot()
    }

    /// Fetch the server's metrics registry as flat `(name, value)`
    /// pairs — per-op serve counters plus the `serve_us` histogram
    /// summary.
    ///
    /// # Errors
    /// Transport failure, or an error reply.
    pub fn stats(&self) -> Result<Vec<(String, u64)>, NetError> {
        match self.rpc(&Request::Stats)? {
            Response::Stats(pairs) => Ok(pairs),
            other => Err(unexpected("stats request", &other)),
        }
    }

    /// Liveness probe: stored element count, or an error if the shard is
    /// unreachable.
    ///
    /// # Errors
    /// Transport failure, or an error reply.
    pub fn health(&self) -> Result<u64, NetError> {
        match self.rpc(&Request::Health)? {
            Response::Health { elements } => Ok(elements),
            other => Err(unexpected("health probe", &other)),
        }
    }

    /// One blocking call on the shard's connection.
    fn rpc(&self, req: &Request) -> Reply {
        self.link.call(&|w, id| write_request(w, id, req))
    }
}

fn unexpected(what: &str, resp: &Response) -> NetError {
    NetError::Protocol(format!("unexpected response to {what}: {resp:?}"))
}

/// Pack `offsets` into `Read` frames of order-preserving runs: a new run
/// wherever an offset is not its predecessor plus one — so repeated and
/// unsorted offsets are answered in the order they were asked — and a
/// new frame every `max_cells` cells.
fn pack_runs(offsets: &[u64], max_cells: usize) -> Vec<Vec<(u64, u32)>> {
    offsets
        .chunks(max_cells)
        .map(|chunk| {
            let mut runs: Vec<(u64, u32)> = Vec::new();
            for &offset in chunk {
                match runs.last_mut() {
                    // Checked: the offset after `u64::MAX` is not 0.
                    Some((start, count))
                        if start.checked_add(u64::from(*count)) == Some(offset) =>
                    {
                        *count += 1;
                    }
                    _ => runs.push((offset, 1)),
                }
            }
            runs
        })
        .collect()
}

/// Split `runs` into `PutMany` frames: one cell size per frame, at most
/// `max_bytes` of run table plus cells and [`MAX_RANGE`] cells in each.
/// A run that does not fit is cut at a cell boundary; empty runs go
/// nowhere.
fn pack_frames<'a>(runs: &[WriteRun<'a>], max_bytes: usize) -> Vec<Vec<WriteRun<'a>>> {
    let mut frames: Vec<Vec<WriteRun<'a>>> = Vec::new();
    // Bytes and cells the frame being filled (the last one) has room for.
    let (mut room, mut cells) = (0usize, 0usize);
    for run in runs {
        let mut rest = *run;
        while rest.count() > 0 {
            let fits = room.saturating_sub(12) / rest.cell_len;
            // A frame takes the run while it is empty, or holds cells of
            // this size and has room for one more.
            let open = frames.last().is_some_and(|f| {
                f.first()
                    .is_none_or(|r| r.cell_len == rest.cell_len && fits > 0 && cells > 0)
            });
            if !open {
                frames.push(Vec::new());
                (room, cells) = (max_bytes, MAX_RANGE as usize);
                continue;
            }
            // (A cell too big for any frame still gets one, alone: it is
            // refused — and counted — before a byte of it is written,
            // and the connection carries on.)
            let take = rest.count().min(fits.max(1)).min(cells);
            let (head, tail) = rest.bytes.split_at(take * rest.cell_len);
            frames.last_mut().expect("pushed above").push(WriteRun {
                bytes: head,
                ..rest
            });
            room = room.saturating_sub(12 + head.len());
            cells -= take;
            rest = WriteRun {
                start: rest.start + take as u64,
                bytes: tail,
                ..rest
            };
        }
    }
    frames
}

impl DiskBackend for RemoteDisk {
    /// Submit a batch read: one `Read` frame (more only past
    /// [`MAX_RANGE`] cells). The handle completes when the demux thread
    /// delivers the cells, as stored, or the deadline passes; a frame
    /// that fails for any reason leaves its cells absent, counts one
    /// failed request, and the store replans degraded.
    fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
        let (handle, completer) = io_pair(offsets.len());
        let gather = Arc::new(Gather {
            cells: Mutex::new(vec![None; offsets.len()]),
            completer: Some(completer),
        });
        let mut at = 0;
        for runs in pack_runs(offsets, MAX_RANGE as usize) {
            let n: usize = runs.iter().map(|&(_, count)| count as usize).sum();
            let req = Request::Read { runs };
            let gather = Arc::clone(&gather);
            let counters = Arc::clone(&self.link.counters);
            let request_us = self.request_us.clone();
            let t0 = Instant::now();
            let done: Callback = Box::new(move |res| {
                request_us.record_duration(t0.elapsed());
                match res {
                    Ok(Response::Cells(cells)) if cells.len() == n => {
                        let mut slots = gather.cells.lock();
                        for (slot, cell) in slots[at..at + n].iter_mut().zip(cells) {
                            *slot = cell;
                        }
                    }
                    _ => {
                        counters.failed_requests.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            self.link.submit(&|w, id| write_request(w, id, &req), done);
            at += n;
        }
        handle
    }

    /// Submissions return un-completed handles, so the array drives this
    /// backend from the reactor's completion side instead of parking a
    /// pool worker on it.
    fn submits_async(&self) -> bool {
        true
    }

    /// Submit a batch write: one `PutMany` frame (more only past the
    /// payload cap, or for mixed cell sizes), sent from the caller's
    /// buffers. The handle completes when the demux thread has every
    /// acknowledgement, so a caller writing to many shards sends all its
    /// frames before it waits for any. `DiskBackend` writes are
    /// infallible by contract: a frame that is never acknowledged is one
    /// failed request in the counters, and its cells read back as
    /// absent.
    fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
        let (handle, completer) = io_pair(0);
        // Dropped — which completes the handle — by whichever frame's
        // completion runs last.
        let completer = Arc::new(completer);
        for frame in pack_frames(runs, MAX_PAYLOAD as usize - 32) {
            let cell_len = frame[0].cell_len as u32;
            let counters = Arc::clone(&self.link.counters);
            let request_us = self.request_us.clone();
            let completer = Arc::clone(&completer);
            let t0 = Instant::now();
            let done: Callback = Box::new(move |res| {
                request_us.record_duration(t0.elapsed());
                if !matches!(res, Ok(Response::Put)) {
                    counters.failed_requests.fetch_add(1, Ordering::Relaxed);
                }
                drop(completer);
            });
            self.link
                .submit(&|w, id| write_put_many(w, id, cell_len, &frame), done);
        }
        handle
    }

    /// Erase the shard's backend with one `Wipe` frame; a transport
    /// failure or an error reply is one failed request.
    fn wipe(&self) {
        let _ = self.rpc(&Request::Wipe);
    }

    fn len(&self) -> usize {
        self.health().map_or(0, |n| n as usize)
    }

    fn net_stats(&self) -> Option<NetStats> {
        Some(self.link.counters.snapshot())
    }

    /// Ship decode coefficients to the shard and receive pre-summed
    /// regions back (the repair-traffic-optimal path).
    fn combine(&self, spec: &CombineSpec) -> Result<CombineReply, String> {
        let req = Request::CombineRange(spec.clone());
        let t0 = Instant::now();
        let res = self.rpc(&req);
        self.request_us.record_duration(t0.elapsed());
        match res.map_err(|e| e.to_string())? {
            Response::Combined(reply) => Ok(reply),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }

    fn peer_addr(&self) -> Option<String> {
        Some(self.addr().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ShardServer;
    use ecfrm_integrity::{append_footer, HashKey};
    use ecfrm_sim::{FaultKind, FaultyDisk, MemDisk};

    fn server() -> ShardServer {
        ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap()
    }

    /// The test profile: tight timeouts via the builder.
    fn fast() -> RemoteDiskConfig {
        RemoteDiskConfig::builder().low_latency().build()
    }

    /// One server-side counter, over the `Stats` op.
    fn served(disk: &RemoteDisk, name: &str) -> u64 {
        let stats = disk.stats().unwrap();
        stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    #[test]
    #[allow(deprecated)]
    fn builder_sets_each_of_the_two_fields() {
        assert_eq!(
            RemoteDiskConfig::builder().build(),
            RemoteDiskConfig::default()
        );
        let cfg = RemoteDiskConfig::builder()
            .connect_timeout(Duration::from_millis(10))
            .request_timeout(Duration::from_millis(20))
            .build();
        let want = RemoteDiskConfig {
            connect_timeout: Duration::from_millis(10),
            request_timeout: Duration::from_millis(20),
        };
        assert_eq!(cfg, want);
        // A pool size and an integrity key are accepted, and change
        // nothing.
        assert_eq!(
            RemoteDiskConfig::builder()
                .pool_size(9)
                .integrity_key(3, 4)
                .build(),
            RemoteDiskConfig::default()
        );
    }

    #[test]
    fn read_write_roundtrip_over_wire() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        assert!(disk.submits_async(), "from construction: nothing to probe");
        assert!(disk.is_empty());
        disk.write(7, vec![1, 2, 3]);
        assert_eq!(disk.read(7), Some(vec![1, 2, 3]));
        assert_eq!(disk.read(8), None);
        assert_eq!(disk.len(), 1);
        assert_eq!(disk.net_stats().unwrap(), NetStats::default());
    }

    /// Every op a `RemoteDisk` sends rides the one connection it dialled
    /// first — two at the pooled transport: reads and writes on one,
    /// everything else on another.
    #[test]
    fn every_op_of_a_remote_disk_rides_one_connection() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        let key = HashKey::DEFAULT.derive(0x4F4E_4521, 0);
        for off in 0..3u64 {
            let mut cell = vec![off as u8; 16];
            append_footer(&key, off, &mut cell);
            disk.write(off, cell);
        }
        assert_eq!(disk.read_many(&[0, 1, 2]).len(), 3);
        assert_eq!(disk.health().unwrap(), 3);
        let spec = CombineSpec {
            offset: 0,
            count: 3,
            outputs: 1,
            coeffs: vec![1, 2, 3],
            key: (key.k0, key.k1),
            peers: Vec::new(),
        };
        assert_eq!(disk.combine(&spec).unwrap().local_status, [0, 0, 0]);
        disk.wipe();
        assert!(disk.is_empty());
        assert_eq!(served(&disk, "serve.conns"), 1);
        assert_eq!(disk.net_stats().unwrap(), NetStats::default());
    }

    #[test]
    fn offsets_pack_into_order_preserving_runs() {
        let pack = |offsets: &[u64]| pack_runs(offsets, 1 << 20);
        assert!(pack(&[]).is_empty());
        assert_eq!(pack(&[5]), [[(5, 1)]]);
        assert_eq!(pack(&[5, 6, 7]), [[(5, 3)]]);
        // Holes, descending and repeated offsets each start a run, so
        // the reply's cells line up with the offsets as asked.
        assert_eq!(pack(&[5, 7, 8, 20]), [[(5, 1), (7, 2), (20, 1)]]);
        assert_eq!(pack(&[6, 5, 4]), [[(6, 1), (5, 1), (4, 1)]]);
        assert_eq!(pack(&[5, 5, 6, 6]), [[(5, 1), (5, 2), (6, 1)]]);
        // Nothing follows the last offset: 0 after it is a new run (the
        // wrapped `(u64::MAX, 2)` is a frame every server refuses).
        assert_eq!(
            pack(&[u64::MAX - 1, u64::MAX, 0, 1]),
            [[(u64::MAX - 1, 2), (0, 2)]]
        );
        // A frame holds `max_cells` cells; a run is cut where one ends.
        assert_eq!(
            pack_runs(&[0, 1, 2, 3, 4, 9, 10], 3),
            [vec![(0, 3)], vec![(3, 2), (9, 1)], vec![(10, 1)]]
        );
    }

    #[test]
    fn a_read_is_one_frame_whatever_its_shape() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        for o in 0..8u64 {
            disk.write(o, vec![o as u8; 4]);
        }
        let cell = |o: u64| Some(vec![o as u8; 4]);
        assert_eq!(
            disk.read_many(&[2, 3, 4, 5]),
            (2..6).map(cell).collect::<Vec<_>>()
        );
        assert_eq!(served(&disk, "serve.read"), 1, "a contiguous run");
        assert_eq!(
            disk.read_many(&[7, 0, 3, 100, 7, u64::MAX, 0]),
            vec![cell(7), cell(0), cell(3), None, cell(7), None, cell(0)]
        );
        assert_eq!(served(&disk, "serve.read"), 2, "a scattered batch");
        assert_eq!(disk.read(6), cell(6));
        assert_eq!(served(&disk, "serve.read"), 3, "a single cell");
        assert!(disk.read_many(&[]).is_empty());
        assert_eq!(
            served(&disk, "serve.read"),
            3,
            "nothing asked, nothing sent"
        );
        assert_eq!(disk.net_stats().unwrap().failed_requests, 0);
    }

    #[test]
    fn read_many_matches_per_element_loop() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        for o in [0u64, 1, 2, 3, 7] {
            disk.write(o, vec![o as u8; 2]);
        }
        for offsets in [
            vec![0u64, 1, 2, 3],
            vec![3, 7, 1],
            vec![5, 6],
            vec![],
            vec![7],
        ] {
            let want: Vec<Option<Vec<u8>>> = offsets.iter().map(|&o| disk.read(o)).collect();
            assert_eq!(disk.read_many(&offsets), want, "offsets {offsets:?}");
        }
    }

    /// For seeded random offset lists — runs, holes, repeats, both ends
    /// of the offset space — a `RemoteDisk` answers exactly as the
    /// `MemDisk` behind its shard does.
    #[test]
    fn read_many_matches_the_backing_disk_on_random_offset_lists() {
        let backend = Arc::new(MemDisk::new());
        let stored: Vec<u64> = (0..200).chain([u64::MAX - 2, u64::MAX - 1]).collect();
        for &off in stored.iter().filter(|o| *o % 7 != 3) {
            backend.write(off, vec![off as u8; 24]);
        }
        let server =
            ShardServer::spawn(Arc::clone(&backend) as Arc<dyn DiskBackend>, "127.0.0.1:0")
                .unwrap();
        let disk = RemoteDisk::new(server.addr(), fast());
        let mut rng = ecfrm_util::Rng::seed_from_u64(0xEC_F2);
        for round in 0..60 {
            let mut offsets = Vec::new();
            while offsets.len() < rng.random_range(0..40usize) {
                let start = match rng.random_range(0..10u32) {
                    0 => u64::MAX - rng.random_range(0..4u64),
                    _ => rng.random_range(0..220u64),
                };
                let run = rng.random_range(1..6u64);
                offsets.extend((0..run).map(|i| start.saturating_add(i)));
            }
            assert_eq!(
                disk.read_many(&offsets),
                backend.read_many(&offsets),
                "round {round}: {offsets:?}"
            );
        }
        assert_eq!(disk.net_stats().unwrap().failed_requests, 0);
    }

    /// A shard backend that answers every read one cell short.
    #[derive(Debug)]
    struct ShortDisk(MemDisk);

    impl DiskBackend for ShortDisk {
        fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
            let mut cells = self.0.read_many(offsets);
            cells.pop();
            IoHandle::ready(cells)
        }
        fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
            self.0.submit_write_many(runs)
        }
        fn wipe(&self) {}
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn a_reply_of_the_wrong_length_is_a_failed_request_not_a_panic() {
        let server =
            ShardServer::spawn(Arc::new(ShortDisk(MemDisk::new())), "127.0.0.1:0").unwrap();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![1; 4]);
        disk.write(1, vec![2; 4]);
        assert_eq!(disk.read_many(&[0, 1, 2]), vec![None; 3]);
        assert_eq!(disk.net_stats().unwrap().failed_requests, 1);
        // The connection is fine: the reply was well-formed, just wrong.
        assert_eq!(disk.net_stats().unwrap().conns_discarded, 0);
    }

    /// A `PutMany` no frame can carry is refused before a byte of it is
    /// written: one failed request, and the connection — with the read
    /// in flight beside it — carries on. (It used to be discarded, failing
    /// that read, and the frame re-sent on a fresh dial.)
    #[test]
    fn a_write_over_the_frame_cap_fails_alone_and_its_connection_carries_on() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![1; 4]); // dials, and starts the demux thread
        let big = vec![2u8; MAX_PAYLOAD as usize];
        let read = disk.submit_read_many(&[0]);
        let run = WriteRun {
            start: 1,
            cell_len: big.len(),
            bytes: &big,
        };
        disk.submit_write_many(&[run]).wait();
        assert_eq!(read.wait(), vec![Some(vec![1; 4])]);
        assert_eq!(disk.read(1), None, "nothing of it was stored");
        let failed = NetStats {
            failed_requests: 1,
            ..NetStats::default()
        };
        assert_eq!(disk.net_stats().unwrap(), failed);
        assert_eq!(served(&disk, "serve.conns"), 1);
    }

    #[test]
    fn mux_path_serves_many_concurrent_submissions() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        for o in 0..64u64 {
            disk.write(o, vec![o as u8; 8]);
        }
        // Pile up in-flight submissions on the one connection before
        // collecting any of them.
        let handles: Vec<IoHandle> = (0..64u64).map(|o| disk.submit_read_many(&[o])).collect();
        for (o, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), vec![Some(vec![o as u8; 8])], "offset {o}");
        }
        assert_eq!(served(&disk, "serve.put_many"), 64);
        assert_eq!(served(&disk, "serve.read"), 64);
        assert_eq!(served(&disk, "serve.conns"), 1, "all on one connection");
        assert_eq!(disk.net_stats().unwrap(), NetStats::default());
    }

    #[test]
    fn combine_roundtrip_over_wire_matches_local_oracle() {
        use ecfrm_integrity::{append_footer, verify_footer, HashKey};
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        let key = HashKey::DEFAULT.derive(0x434F_4D42, 1);
        for off in 0..3u64 {
            let mut cell = vec![off as u8 + 1; 16];
            append_footer(&key, off, &mut cell);
            disk.write(off, cell);
        }
        let spec = CombineSpec {
            offset: 0,
            count: 3,
            outputs: 1,
            coeffs: vec![3, 5, 7],
            key: (key.k0, key.k1),
            peers: Vec::new(),
        };
        let reply = disk.combine(&spec).expect("a live server combines");
        assert_eq!(reply.local_status, vec![0, 0, 0]);
        let region = verify_footer(&key, 0, &reply.regions[0]).expect("region sealed");
        let mut want = vec![0u8; 16];
        for (c, off) in [(3u8, 0u64), (5, 1), (7, 2)] {
            ecfrm_gf::region::mul_add_region(c, &[off as u8 + 1; 16], &mut want);
        }
        assert_eq!(region, &want[..]);
    }

    #[test]
    fn frames_split_by_size_cell_count_and_cell_size() {
        let bytes = vec![0u8; 4096];
        let run = |start, cell_len, cells: usize| WriteRun {
            start,
            cell_len,
            bytes: &bytes[..cells * cell_len],
        };
        let shape = |frames: &[Vec<WriteRun<'_>>]| -> Vec<Vec<(u64, usize)>> {
            frames
                .iter()
                .map(|f| f.iter().map(|r| (r.start, r.count())).collect())
                .collect()
        };
        // Everything fits: one frame, runs as given; nothing: no frame.
        let runs = [run(7, 16, 3), run(100, 16, 2)];
        assert_eq!(shape(&pack_frames(&runs, 1 << 20)), [[(7, 3), (100, 2)]]);
        assert!(pack_frames(&[], 1 << 20).is_empty());
        assert!(pack_frames(&[run(5, 16, 0), run(5, 0, 0)], 1 << 20).is_empty());
        // 100 bytes a frame, 12 of them per run's table entry: a run of
        // ten 16-byte cells is cut at cell boundaries, 5 + 5, and the
        // next run starts where the room left allows.
        let runs = [run(0, 16, 10), run(50, 16, 1)];
        assert_eq!(
            shape(&pack_frames(&runs, 100)),
            [vec![(0, 5)], vec![(5, 5)], vec![(50, 1)]]
        );
        // A change of cell size closes the frame.
        let runs = [run(0, 16, 2), run(9, 8, 2), run(20, 8, 1)];
        assert_eq!(
            shape(&pack_frames(&runs, 1 << 20)),
            [vec![(0, 2)], vec![(9, 2), (20, 1)]]
        );
        // A cell no frame can hold still goes out, alone (and is refused
        // by the frame writer); the cells around it are unaffected.
        let runs = [run(0, 16, 1), run(1, 512, 1), run(2, 16, 1)];
        assert_eq!(
            shape(&pack_frames(&runs, 100)),
            [vec![(0, 1)], vec![(1, 1)], vec![(2, 1)]]
        );
        // Cut runs keep their bytes in order.
        let bytes: Vec<u8> = (0..=255).collect();
        let all = [WriteRun {
            start: 0,
            cell_len: 8,
            bytes: &bytes,
        }];
        let cut = pack_frames(&all, 60);
        assert!(cut.len() > 4);
        let joined: Vec<u8> = cut
            .iter()
            .flatten()
            .flat_map(|r| r.bytes.to_vec())
            .collect();
        assert_eq!(joined, bytes);
    }

    #[test]
    fn fault_injection_via_backend_trait() {
        // A killed disk behind a live server answers absent; wiping is
        // the one fault the client itself sends.
        let faulty = FaultyDisk::wrap(Arc::new(MemDisk::new()));
        let server = ShardServer::spawn(Arc::clone(&faulty) as _, "127.0.0.1:0").unwrap();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![9]);
        faulty.arm(FaultKind::Kill, 0);
        assert_eq!(disk.read(0), None);
        faulty.clear();
        assert_eq!(disk.read(0), Some(vec![9]));
        disk.wipe();
        assert_eq!(disk.read(0), None);
        assert_eq!(disk.len(), 0);
    }

    #[test]
    fn two_clients_share_one_shard() {
        let server = server();
        let a = RemoteDisk::new(server.addr(), fast());
        let b = RemoteDisk::new(server.addr(), fast());
        a.write(0, vec![5; 8]);
        assert_eq!(b.read(0), Some(vec![5; 8]));
    }

    #[test]
    fn a_killed_shard_fails_fast_without_backoff_and_a_restarted_one_is_redialled() {
        let mut server = server();
        let addr = server.addr();
        let disk = RemoteDisk::new(addr, fast());
        disk.write(0, vec![1]);
        assert_eq!(disk.read(0), Some(vec![1]));
        server.kill();
        // Each submission is one attempt (plus one re-send if the frame
        // could not even be written): it completes absent within a
        // refused dial or the dying connection's EOF — far inside
        // `connect_timeout` — and nothing sleeps in between.
        let before = disk.net_stats().unwrap().failed_requests;
        let t0 = Instant::now();
        for i in 1..=5u64 {
            assert_eq!(disk.read_many(&[0, 1, 2]), vec![None; 3]);
            assert_eq!(disk.net_stats().unwrap().failed_requests, before + i);
        }
        assert!(
            t0.elapsed() < 5 * fast().connect_timeout,
            "five reads of a dead shard took {:?}",
            t0.elapsed()
        );
        let stats = disk.net_stats().unwrap();
        assert!(stats.conns_discarded >= 1, "{stats:?}");
        // Rebind the same port (data is gone — fresh MemDisk): the next
        // submission dials it, no latch to clear, no probe to pass.
        let server2 = match ShardServer::spawn(Arc::new(MemDisk::new()), &addr.to_string()) {
            Ok(s) => s,
            Err(_) => return, // port taken by another process: skip
        };
        assert_eq!(server2.addr(), addr);
        disk.write(1, vec![4]);
        assert_eq!(disk.read(1), Some(vec![4]));
        assert!(disk.net_stats().unwrap().reconnects >= 1);
        assert_eq!(disk.net_stats().unwrap().failed_requests, before + 5);
    }

    #[test]
    fn in_flight_mux_submissions_complete_when_server_dies() {
        // A straggling backend, so submissions are still in flight when
        // the server dies mid-request.
        let slow = FaultyDisk::wrap(Arc::new(MemDisk::new()));
        let mut server = ShardServer::spawn(slow.clone(), "127.0.0.1:0").unwrap();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![7; 4]);
        assert_eq!(disk.read(0), Some(vec![7; 4]));
        slow.arm(FaultKind::Delay(Duration::from_millis(150)), 0);
        let handles: Vec<IoHandle> = (0..8u64).map(|_| disk.submit_read_many(&[0])).collect();
        server.kill();
        // Every handle must complete, not hang: the demux thread fails
        // outstanding requests when the connection dies. A request the
        // server answered in the instant before the kill legitimately
        // resolves to its real bytes; everything else is absent —
        // never torn, never wrong.
        let mut absent = 0;
        for h in handles {
            match h.wait().as_slice() {
                [None] => absent += 1,
                [Some(bytes)] => assert_eq!(bytes, &vec![7u8; 4]),
                other => panic!("batch kept its shape: {other:?}"),
            }
        }
        // With an extra 150 ms of service delay per request, the kill
        // always beats most of the 8 outstanding requests.
        assert!(absent >= 1, "kill left no request unanswered");
        assert!(disk.net_stats().unwrap().conns_discarded >= 1);
    }

    #[test]
    fn unreachable_address_fails_fast_and_counts() {
        // A port from the ephemeral range with no listener.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let disk = RemoteDisk::new(addr, fast());
        assert_eq!(disk.read(0), None);
        assert!(disk.net_stats().unwrap().failed_requests >= 1);
    }

    #[test]
    fn request_latency_histogram_counts_data_requests() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![1; 8]);
        for _ in 0..5 {
            assert_eq!(disk.read(0), Some(vec![1; 8]));
        }
        disk.read_many(&[0, 1]);
        let lat = disk.request_latency();
        assert_eq!(lat.count, 7, "1 write + 5 reads + 1 batch");
        assert!(lat.p99() >= lat.p50());
    }

    #[test]
    fn stats_rpc_reports_server_side_counters() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![2; 4]);
        for _ in 0..3 {
            disk.read(0);
        }
        assert_eq!(served(&disk, "serve.read"), 3);
        assert_eq!(served(&disk, "serve.put_many"), 1);
        // The probe rode the data path's connection, and opened no other.
        assert_eq!(served(&disk, "serve.conns"), 1);
        assert_eq!(served(&disk, "serve.health"), 0);
        // The same registry is visible locally on the server handle.
        let local = server.recorder().snapshot();
        assert_eq!(local.counters.get("serve.read"), Some(&3));
    }
}
