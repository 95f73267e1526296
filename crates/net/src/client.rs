//! [`RemoteDisk`]: a [`DiskBackend`] that speaks the wire protocol.
//!
//! Drop-in client for a [`ShardServer`](crate::server::ShardServer):
//! `ThreadedArray` and `ObjectStore` run unmodified over it. Two
//! transports are layered behind the one trait:
//!
//! * **multiplexed** (preferred) — one connection per shard carries many
//!   in-flight requests, id-tagged with [`Request::Mux`] framing. A
//!   demux thread matches responses to completion callbacks, so
//!   [`DiskBackend::submit_read_many`] is truly non-blocking and the
//!   store's reactor can keep thousands of stripe reads in flight.
//!   Support is negotiated on first use with a `Mux(Health)` probe; a
//!   shard that predates the opcode permanently demotes this client to
//!   the legacy transport (the PR-4-style additive-negotiation rule: an
//!   *answering* shard demotes, a transient outage does not).
//! * **legacy pooled** — one blocking request per pooled connection,
//!   with the full resilience stack: per-request timeouts, bounded
//!   retries with exponential backoff, and optional hedged reads
//!   (`hedge_after` — a tail-latency tool for the blocking path; the
//!   multiplexed path gets its tail protection from the store's
//!   replanning instead).
//!
//! On either path, a read that ultimately fails returns *absent*
//! (`None`) — the store treats it as a suspect disk and replans the
//! read degraded, so the network failure domain degrades into the
//! erasure-code failure domain instead of erroring.
//!
//! Every event increments the shared [`NetCounters`], surfaced through
//! [`DiskBackend::net_stats`] into the store's `ReadStats`.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_obs::{Histogram, HistogramSnapshot};
use ecfrm_sim::{
    io_pair, CombineOutcome, CombineReply, CombineSpec, DiskBackend, IoHandle, NetCounters,
    NetStats, WriteRun,
};
use ecfrm_util::{Mutex, Rng};

use crate::protocol::{
    read_response, read_response_polling, write_put_many, write_request, CheckedElement,
    CombinePeer, Fault, NetError, PolledResponse, Request, Response, SendFrame, MAX_PAYLOAD,
    MAX_RANGE,
};

/// Client-side resilience knobs. Build one with
/// [`RemoteDiskConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteDiskConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-request response deadline.
    pub request_timeout: Duration,
    /// Re-sends after the first attempt (0 = one attempt only). Applies
    /// to the legacy blocking path; multiplexed submissions are
    /// single-attempt (a failure completes as absent and the store
    /// replans).
    pub max_retries: u32,
    /// First backoff step; doubles each retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Launch a duplicate read on a second connection if the primary
    /// has not answered within this window. `None` disables hedging.
    /// Legacy-path only: hedging and multiplexing are alternative
    /// tail-latency strategies, so configs that hedge usually also set
    /// `multiplex: false`.
    pub hedge_after: Option<Duration>,
    /// Idle connections kept for reuse.
    pub pool_size: usize,
    /// Emit coalesced `GetRange` requests when a batch forms one
    /// contiguous ascending run. Disabled, every batch goes out as
    /// `BatchGet`. Even when enabled, the client auto-falls-back (and
    /// stops asking) if the server predates the opcode.
    pub use_range: bool,
    /// The store's integrity key `(k0, k1)`. When set (and `use_range`
    /// allows coalescing), contiguous runs go out as `RangeChecked`:
    /// the server verifies each cell's checksum footer at the source
    /// and corrupt cells come back as a one-byte verdict instead of a
    /// payload. `None` keeps all verification client-side. As with
    /// `GetRange`, an old server that rejects the opcode demotes the
    /// client to the unchecked path permanently.
    pub integrity_key: Option<(u64, u64)>,
    /// Allow the multiplexed transport (one connection, many in-flight
    /// requests). Disabled, every request takes the legacy pooled path
    /// — the shape of a pre-mux client, kept for wire compatibility
    /// tests and for hedging configs.
    pub multiplex: bool,
}

impl Default for RemoteDiskConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(1),
            max_retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            hedge_after: None,
            pool_size: 2,
            use_range: true,
            integrity_key: None,
            multiplex: true,
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
    ///     .pool_size(4)
    ///     .build();
    /// assert_eq!(cfg.pool_size, 4);
    /// ```
    pub fn builder() -> RemoteDiskConfigBuilder {
        RemoteDiskConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Enable server-side footer verification with the given key: the
    /// store's `(k0, k1)` integrity key words, shipped on every
    /// `RangeChecked` request.
    #[must_use]
    pub fn with_integrity(mut self, k0: u64, k1: u64) -> Self {
        self.integrity_key = Some((k0, k1));
        self
    }
}

/// Fluent constructor for [`RemoteDiskConfig`]: chain knob setters
/// and/or a preset, then [`build`](Self::build).
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

    /// Re-sends after the first attempt (0 = one attempt only).
    #[must_use]
    pub fn max_retries(mut self, n: u32) -> Self {
        self.cfg.max_retries = n;
        self
    }

    /// Exponential backoff: first step and ceiling.
    #[must_use]
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.cfg.backoff_base = base;
        self.cfg.backoff_cap = cap;
        self
    }

    /// Hedge window for the legacy read path (`None` disables hedging).
    #[must_use]
    pub fn hedge_after(mut self, d: Option<Duration>) -> Self {
        self.cfg.hedge_after = d;
        self
    }

    /// Idle connections kept for reuse.
    #[must_use]
    pub fn pool_size(mut self, n: usize) -> Self {
        self.cfg.pool_size = n;
        self
    }

    /// Allow coalesced `GetRange` requests for contiguous runs.
    #[must_use]
    pub fn use_range(mut self, yes: bool) -> Self {
        self.cfg.use_range = yes;
        self
    }

    /// The store's `(k0, k1)` integrity key, enabling server-side
    /// footer verification via `RangeChecked`.
    #[must_use]
    pub fn integrity_key(mut self, k0: u64, k1: u64) -> Self {
        self.cfg.integrity_key = Some((k0, k1));
        self
    }

    /// Allow the multiplexed transport.
    #[must_use]
    pub fn multiplex(mut self, yes: bool) -> Self {
        self.cfg.multiplex = yes;
        self
    }

    /// Preset: tight timeouts for tests and latency-sensitive callers —
    /// failures are detected in tens of milliseconds instead of
    /// seconds.
    #[must_use]
    pub fn low_latency(mut self) -> Self {
        self.cfg.connect_timeout = Duration::from_millis(200);
        self.cfg.request_timeout = Duration::from_millis(200);
        self.cfg.max_retries = 1;
        self.cfg.backoff_base = Duration::from_millis(2);
        self.cfg.backoff_cap = Duration::from_millis(10);
        self
    }

    /// Preset: low-priority profile for background repair traffic — no
    /// hedging (hedges exist to cut foreground tail latency; repair has
    /// no tail-latency SLO and duplicate reads would double its load on
    /// the survivors), relaxed timeouts with patient backoff (a busy
    /// shard serving foreground reads is the expected case, not a
    /// failure), and a single pooled connection per shard.
    #[must_use]
    pub fn repair_profile(mut self) -> Self {
        self.cfg.connect_timeout = Duration::from_secs(2);
        self.cfg.request_timeout = Duration::from_secs(5);
        self.cfg.max_retries = 3;
        self.cfg.backoff_base = Duration::from_millis(50);
        self.cfg.backoff_cap = Duration::from_secs(1);
        self.cfg.hedge_after = None;
        self.cfg.pool_size = 1;
        self
    }

    /// Finish: the assembled config.
    #[must_use]
    pub fn build(self) -> RemoteDiskConfig {
        self.cfg
    }
}

/// How often the demux reader wakes when idle, to check liveness and
/// sweep request deadlines.
const MUX_POLL: Duration = Duration::from_millis(10);

/// Mux negotiation has not run yet (first data request triggers it).
const MUX_UNKNOWN: u8 = 0;
/// The shard answered the `Mux(Health)` probe: multiplex everything.
const MUX_ON: u8 = 1;
/// The shard answered legacy but not mux: never ask again.
const MUX_OFF: u8 = 2;

/// Completion callback for one multiplexed request — guaranteed to run
/// exactly once: with the response, a timeout, or a transport error.
type MuxCallback = Box<dyn FnOnce(Result<Response, NetError>) + Send>;

struct MuxPending {
    deadline: Instant,
    done: MuxCallback,
}

/// State shared between submitters and the demux reader thread.
struct MuxShared {
    pending: Mutex<HashMap<u64, MuxPending>>,
    /// Set on any unclean event (EOF, garbage frame, failed write) and
    /// on intentional shutdown; the reader polls it as its stop flag.
    dead: AtomicBool,
    counters: Arc<NetCounters>,
}

impl MuxShared {
    /// Complete every outstanding request with a transport error
    /// (callbacks run outside the lock).
    fn fail_all(&self) {
        let drained: Vec<MuxPending> = self.pending.lock().drain().map(|(_, p)| p).collect();
        for p in drained {
            (p.done)(Err(NetError::Protocol("mux connection lost".into())));
        }
    }

    /// Time out every request past its deadline (callbacks run outside
    /// the lock). The connection itself stays up; a late response for a
    /// swept id is dropped on arrival.
    fn sweep(&self) {
        let now = Instant::now();
        let expired: Vec<MuxPending> = {
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
}

/// One multiplexed connection to a shard: submitters write id-tagged
/// frames under the writer lock; a demux thread reads responses and
/// fires the matching callbacks as they land, whatever the order.
struct MuxConn {
    writer: Mutex<BufWriter<TcpStream>>,
    shared: Arc<MuxShared>,
    next_id: AtomicU64,
}

/// Why a multiplexed connection could not be established.
#[derive(Debug)]
enum MuxProbe {
    /// The shard answered the probe with a *plain* response: it is alive
    /// but predates the mux opcode. Carries the still-clean connection
    /// so the caller can recycle it into the legacy pool.
    Unsupported(TcpStream),
    /// Transport-level failure: an old server dropping the unknown
    /// opcode, or an outage — indistinguishable without a legacy probe.
    /// The error is carried for `Debug` output only; negotiation cares
    /// about the *kind* of failure, not its detail.
    Transport(#[allow(dead_code)] NetError),
}

impl MuxConn {
    /// Dial a fresh connection and negotiate: one `Mux(Health)` probe,
    /// answered in kind, promotes the connection to a demuxed transport.
    fn establish(
        addr: SocketAddr,
        cfg: &RemoteDiskConfig,
        counters: &Arc<NetCounters>,
    ) -> Result<Self, MuxProbe> {
        let dial = || -> Result<TcpStream, NetError> {
            let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
            stream.set_read_timeout(Some(cfg.request_timeout))?;
            stream.set_write_timeout(Some(cfg.request_timeout))?;
            stream.set_nodelay(true).ok();
            Ok(stream)
        };
        let mut stream = dial().map_err(MuxProbe::Transport)?;
        let probe = Request::Mux {
            id: 0,
            inner: Box::new(Request::Health),
        };
        match write_request(&mut stream, &probe).and_then(|()| read_response(&mut stream)) {
            Ok(Response::Mux { .. }) => {}
            Ok(_) => return Err(MuxProbe::Unsupported(stream)),
            Err(e) => {
                if matches!(e, NetError::Timeout) {
                    counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                counters.conns_discarded.fetch_add(1, Ordering::Relaxed);
                return Err(MuxProbe::Transport(e));
            }
        }
        // Promoted: the reader needs a short timeout so it can poll the
        // stop flag and sweep deadlines while idle.
        if stream.set_read_timeout(Some(MUX_POLL)).is_err() {
            counters.conns_discarded.fetch_add(1, Ordering::Relaxed);
            return Err(MuxProbe::Transport(NetError::Protocol(
                "could not re-arm read timeout".into(),
            )));
        }
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(e) => {
                counters.conns_discarded.fetch_add(1, Ordering::Relaxed);
                return Err(MuxProbe::Transport(e.into()));
            }
        };
        let shared = Arc::new(MuxShared {
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            counters: Arc::clone(counters),
        });
        let reader_shared = Arc::clone(&shared);
        std::thread::spawn(move || demux_loop(BufReader::new(reader), &reader_shared));
        Ok(Self {
            writer: Mutex::new(BufWriter::new(stream)),
            shared,
            next_id: AtomicU64::new(1),
        })
    }

    fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Send one id-tagged frame: `send` writes it, given the writer and
    /// the id to tag it with. `Ok` means `done` runs exactly once — with
    /// the response, with `Timeout` after the deadline, or with a
    /// transport error if the connection dies first. `Err` hands `done`
    /// back unrun: the frame did not (wholly) leave this host.
    fn submit(
        &self,
        send: impl FnOnce(&mut BufWriter<TcpStream>, u64) -> Result<(), NetError>,
        timeout: Duration,
        done: MuxCallback,
    ) -> Result<(), MuxCallback> {
        if self.is_dead() {
            return Err(done);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.pending.lock().insert(
            id,
            MuxPending {
                deadline: Instant::now() + timeout,
                done,
            },
        );
        let wrote = send(&mut self.writer.lock(), id).is_ok();
        if !wrote && !self.shared.dead.swap(true, Ordering::AcqRel) {
            // First to notice the death: account the discard (the reader
            // will see the stop flag and exit without double-counting).
            self.shared
                .counters
                .conns_discarded
                .fetch_add(1, Ordering::Relaxed);
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
                (p.done)(Err(NetError::Protocol("mux connection lost".into())));
            }
        }
        Ok(())
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Intentional shutdown: stop the reader (it exits at its next
        // poll tick) without counting a discarded connection.
        self.shared.dead.store(true, Ordering::Release);
    }
}

/// The demux reader: matches id-tagged responses to pending callbacks,
/// sweeps deadlines while idle, and on connection death fails every
/// outstanding request.
fn demux_loop(mut reader: BufReader<TcpStream>, shared: &Arc<MuxShared>) {
    loop {
        match read_response_polling(&mut reader, &shared.dead) {
            PolledResponse::Frame(Response::Mux { id, inner }) => {
                let entry = shared.pending.lock().remove(&id);
                if let Some(p) = entry {
                    (p.done)(match *inner {
                        Response::Error(msg) => Err(NetError::Remote(msg)),
                        ok => Ok(ok),
                    });
                }
                // else: a late response for a swept id — drop it.
                shared.sweep();
            }
            PolledResponse::Frame(_) => {
                // A plain response on a mux connection: framing
                // confusion, the stream is unusable.
                if !shared.dead.swap(true, Ordering::AcqRel) {
                    shared
                        .counters
                        .conns_discarded
                        .fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            PolledResponse::Idle => shared.sweep(),
            PolledResponse::Closed => {
                // EOF/garbage — or the stop flag raised by an intentional
                // shutdown, which must not count as a discard.
                if !shared.dead.swap(true, Ordering::AcqRel) {
                    shared
                        .counters
                        .conns_discarded
                        .fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
        }
    }
    shared.fail_all();
}

/// Which read shape went out, for decoding the mux reply.
enum ReadShape {
    Element,
    Batch,
    Range,
    Checked,
}

/// Map a read response back onto per-offset cells. `None` on any
/// shape/length mismatch (the caller treats it as a failed request).
fn map_read_response(
    resp: Response,
    shape: &ReadShape,
    n: usize,
    remote_verify_fails: &AtomicU64,
) -> Option<Vec<Option<Vec<u8>>>> {
    let items = match (shape, resp) {
        (ReadShape::Element, Response::Element(v)) => vec![v],
        (ReadShape::Batch, Response::Batch(items)) => items,
        (ReadShape::Range, Response::Range(items)) => items,
        (ReadShape::Checked, Response::Checked(items)) => items
            .into_iter()
            .map(|item| match item {
                CheckedElement::Valid(bytes) => Some(bytes),
                CheckedElement::Missing => None,
                CheckedElement::Corrupt => {
                    remote_verify_fails.fetch_add(1, Ordering::Relaxed);
                    None
                }
            })
            .collect(),
        _ => return None,
    };
    (items.len() == n).then_some(items)
}

/// A remote shard, presented as a local [`DiskBackend`].
pub struct RemoteDisk {
    addr: SocketAddr,
    cfg: RemoteDiskConfig,
    pool: Mutex<Vec<TcpStream>>,
    counters: Arc<NetCounters>,
    /// End-to-end latency of data-path requests (read / write / batch),
    /// including retries and hedges, in microseconds.
    request_us: Histogram,
    ever_connected: AtomicBool,
    /// Cleared the first time a `GetRange` fails but a `BatchGet` of the
    /// same offsets succeeds — the shard is alive but predates the
    /// opcode, so stop asking (forward compatibility with old servers).
    range_supported: AtomicBool,
    /// Same demotion latch for `RangeChecked`: cleared the first time
    /// the checked opcode fails but a `BatchGet` of the same offsets
    /// succeeds.
    checked_supported: AtomicBool,
    /// Same demotion latch for `CombineRange`: cleared the first time
    /// the combine opcode fails but a `BatchGet` of the same offsets
    /// succeeds (the shard is alive but predates server-side
    /// combining — the repair planner falls back to raw elements).
    combine_supported: AtomicBool,
    /// Three-state mux negotiation latch: [`MUX_UNKNOWN`] until the
    /// first data request probes, then [`MUX_ON`] or [`MUX_OFF`].
    mux_state: AtomicU8,
    /// The live multiplexed connection, when negotiated on. Also serves
    /// as the negotiation/re-dial critical section.
    mux: Mutex<Option<Arc<MuxConn>>>,
    /// Cells the server reported as failing footer verification
    /// (`CheckedElement::Corrupt`). Surfaced via
    /// [`RemoteDisk::remote_verify_fails`].
    remote_verify_fails: Arc<AtomicU64>,
    rng: Mutex<Rng>,
}

impl std::fmt::Debug for RemoteDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RemoteDisk({})", self.addr)
    }
}

impl RemoteDisk {
    /// A client for the shard at `addr`. No connection is made until the
    /// first request.
    pub fn new(addr: SocketAddr, cfg: RemoteDiskConfig) -> Self {
        Self {
            addr,
            cfg,
            pool: Mutex::new(Vec::new()),
            counters: Arc::new(NetCounters::new()),
            request_us: Histogram::new(),
            ever_connected: AtomicBool::new(false),
            range_supported: AtomicBool::new(true),
            checked_supported: AtomicBool::new(true),
            combine_supported: AtomicBool::new(true),
            mux_state: AtomicU8::new(MUX_UNKNOWN),
            mux: Mutex::new(None),
            remote_verify_fails: Arc::new(AtomicU64::new(0)),
            rng: Mutex::new(Rng::seed_from_u64(addr.port() as u64 ^ 0xD15C)),
        }
    }

    /// The shard address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live handle to the transport counters.
    pub fn counters(&self) -> Arc<NetCounters> {
        Arc::clone(&self.counters)
    }

    /// Snapshot of the end-to-end data-path request latency histogram
    /// (microseconds, including retries and hedges).
    pub fn request_latency(&self) -> HistogramSnapshot {
        self.request_us.snapshot()
    }

    /// Fetch the server's metrics registry as flat `(name, value)`
    /// pairs — per-op serve counters plus the `serve_us` histogram
    /// summary.
    ///
    /// # Errors
    /// Transport failure after the full retry budget.
    pub fn stats(&self) -> Result<Vec<(String, u64)>, NetError> {
        match self.rpc(&Request::Stats)? {
            Response::Stats(pairs) => Ok(pairs),
            other => Err(NetError::Protocol(format!(
                "unexpected response to stats request: {other:?}"
            ))),
        }
    }

    /// Run `f` and record its wall-clock in the request histogram.
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.request_us.record_duration(t0.elapsed());
        out
    }

    /// Pop a pooled connection or dial a fresh one.
    fn connection(&self) -> Result<TcpStream, NetError> {
        if let Some(s) = self.pool.lock().pop() {
            return Ok(s);
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        stream.set_read_timeout(Some(self.cfg.request_timeout))?;
        stream.set_write_timeout(Some(self.cfg.request_timeout))?;
        stream.set_nodelay(true).ok();
        if self.ever_connected.swap(true, Ordering::AcqRel) {
            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        Ok(stream)
    }

    /// Return a connection to the pool — only ever called after a clean
    /// request/response exchange, so its framing state is known-good.
    fn recycle(&self, stream: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < self.cfg.pool_size {
            pool.push(stream);
        }
    }

    /// One attempt: dial/reuse, send, await the response.
    fn rpc_once(&self, send: SendFrame<'_>) -> Result<Response, NetError> {
        let mut stream = self.connection()?;
        match send(&mut stream).and_then(|()| read_response(&mut stream)) {
            Ok(resp) => {
                self.recycle(stream);
                match resp {
                    Response::Error(msg) => Err(NetError::Remote(msg)),
                    ok => Ok(ok),
                }
            }
            Err(e) => {
                // The connection's framing state is unknown — drop it
                // (and account the drop) rather than recycling.
                self.counters
                    .conns_discarded
                    .fetch_add(1, Ordering::Relaxed);
                if matches!(e, NetError::Timeout) {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Backoff before retry `attempt` (1-based): `base × 2^(attempt-1)`
    /// capped, scaled by uniform jitter in [0.5, 1.5).
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .cfg
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.cfg.backoff_cap);
        let jitter = self.rng.lock().random_range(0.5f64..1.5);
        exp.mul_f64(jitter)
    }

    /// Full resilience stack: attempts with backoff until one succeeds
    /// or the retry budget is spent.
    fn rpc(&self, req: &Request) -> Result<Response, NetError> {
        self.rpc_with(&|w| write_request(w, req))
    }

    /// [`Self::rpc`] for a frame `send` writes from borrowed buffers.
    fn rpc_with(&self, send: SendFrame<'_>) -> Result<Response, NetError> {
        let attempts = 1 + self.cfg.max_retries;
        let mut last = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.backoff(attempt - 1));
            }
            match self.rpc_once(send) {
                Ok(resp) => return Ok(resp),
                Err(e) => last = Some(e),
            }
        }
        self.counters
            .failed_requests
            .fetch_add(1, Ordering::Relaxed);
        Err(last.expect("at least one attempt ran"))
    }

    /// A read with hedging: if the primary attempt has not answered
    /// within `hedge_after`, race a duplicate on a second connection and
    /// take whichever answers first. Loser responses are discarded (the
    /// connections are not recycled into each other's streams, so no
    /// frame mixing is possible).
    fn hedged_read(&self, req: &Request, hedge_after: Duration) -> Result<Response, NetError> {
        let (tx, rx) = mpsc::channel::<(bool, Result<Response, NetError>)>();
        std::thread::scope(|scope| {
            let primary_tx = tx.clone();
            scope.spawn(move || {
                let _ = primary_tx.send((false, self.rpc_once(&|w| write_request(w, req))));
            });
            let first = match rx.recv_timeout(hedge_after) {
                Ok(result) => Some(result),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Protocol("hedge channel broke".into()))
                }
            };
            let (from_hedge, result) = match first {
                Some(r) => r,
                None => {
                    // Primary is slow: launch the hedge and take the
                    // first answer from either.
                    self.counters.hedges.fetch_add(1, Ordering::Relaxed);
                    let hedge_tx = tx.clone();
                    scope.spawn(move || {
                        let _ = hedge_tx.send((true, self.rpc_once(&|w| write_request(w, req))));
                    });
                    // Prefer the first *successful* answer; fall back to
                    // the second result if the first errored.
                    match rx.recv() {
                        Ok((who, Ok(resp))) => (who, Ok(resp)),
                        Ok((_, Err(_))) => match rx.recv() {
                            Ok(r) => r,
                            Err(_) => return Err(NetError::Protocol("hedge channel broke".into())),
                        },
                        Err(_) => return Err(NetError::Protocol("hedge channel broke".into())),
                    }
                }
            };
            if from_hedge && result.is_ok() {
                self.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
            }
            result
        })
    }

    /// Read with the full stack: hedging (if enabled) inside the retry
    /// loop.
    fn read_rpc(&self, req: &Request) -> Result<Response, NetError> {
        match self.cfg.hedge_after {
            None => self.rpc(req),
            Some(hedge_after) => {
                let attempts = 1 + self.cfg.max_retries;
                let mut last = None;
                for attempt in 1..=attempts {
                    if attempt > 1 {
                        self.counters.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(self.backoff(attempt - 1));
                    }
                    match self.hedged_read(req, hedge_after) {
                        Ok(resp) => return Ok(resp),
                        Err(e) => last = Some(e),
                    }
                }
                self.counters
                    .failed_requests
                    .fetch_add(1, Ordering::Relaxed);
                Err(last.expect("at least one attempt ran"))
            }
        }
    }

    /// Send a fault-injection command to the shard, with retries.
    ///
    /// # Errors
    /// Transport failure after the full retry budget.
    pub fn inject(&self, fault: Fault) -> Result<(), NetError> {
        match self.rpc(&Request::InjectFault(fault))? {
            Response::FaultInjected => Ok(()),
            other => Err(NetError::Protocol(format!(
                "unexpected response to fault injection: {other:?}"
            ))),
        }
    }

    /// Liveness probe: stored element count, or an error if the shard is
    /// unreachable.
    ///
    /// # Errors
    /// Transport failure after the full retry budget.
    pub fn health(&self) -> Result<u64, NetError> {
        match self.rpc(&Request::Health)? {
            Response::Health { elements } => Ok(elements),
            other => Err(NetError::Protocol(format!(
                "unexpected response to health probe: {other:?}"
            ))),
        }
    }

    /// Fetch several elements in one round trip. `None` entries are
    /// absent/failed elements; a transport failure after all retries
    /// yields all-`None`.
    pub fn read_batch(&self, offsets: &[u64]) -> Vec<Option<Vec<u8>>> {
        match self.timed(|| {
            self.read_rpc(&Request::BatchGet {
                offsets: offsets.to_vec(),
            })
        }) {
            Ok(Response::Batch(items)) if items.len() == offsets.len() => items,
            _ => vec![None; offsets.len()],
        }
    }

    /// True while this client will still emit `GetRange` (config allows
    /// it and the server has not demonstrated it predates the opcode).
    pub fn range_enabled(&self) -> bool {
        self.cfg.use_range && self.range_supported.load(Ordering::Acquire)
    }

    /// True while this client will still emit `RangeChecked` (an
    /// integrity key is configured, coalescing is allowed, and the
    /// server has not demonstrated it predates the opcode).
    pub fn checked_enabled(&self) -> bool {
        self.cfg.integrity_key.is_some()
            && self.cfg.use_range
            && self.checked_supported.load(Ordering::Acquire)
    }

    /// Cells the server has reported as corrupt (footer verification
    /// failed at the source) over this client's lifetime.
    pub fn remote_verify_fails(&self) -> u64 {
        self.remote_verify_fails.load(Ordering::Relaxed)
    }

    /// True while requests go over the multiplexed transport (config
    /// allows it and negotiation latched it on).
    pub fn mux_enabled(&self) -> bool {
        self.cfg.multiplex && self.mux_state.load(Ordering::Acquire) == MUX_ON
    }

    /// Whether to take the mux path, negotiating on first use.
    fn use_mux(&self) -> bool {
        if !self.cfg.multiplex {
            return false;
        }
        match self.mux_state.load(Ordering::Acquire) {
            MUX_ON => true,
            MUX_OFF => false,
            _ => self.negotiate_mux(),
        }
    }

    /// First-use negotiation, serialized on the mux slot lock: probe
    /// with `Mux(Health)`; an in-kind answer latches mux on, a *plain*
    /// answer (or an answering legacy path after a dropped probe)
    /// latches it off permanently, and a total outage leaves the state
    /// unknown so a later request re-probes.
    fn negotiate_mux(&self) -> bool {
        let mut slot = self.mux.lock();
        match self.mux_state.load(Ordering::Acquire) {
            MUX_ON => return true,
            MUX_OFF => return false,
            _ => {}
        }
        match MuxConn::establish(self.addr, &self.cfg, &self.counters) {
            Ok(conn) => {
                *slot = Some(Arc::new(conn));
                self.mux_state.store(MUX_ON, Ordering::Release);
                true
            }
            Err(MuxProbe::Unsupported(stream)) => {
                // The shard answered without demuxing: it predates the
                // opcode. The exchange was clean, so the connection is
                // reusable by the legacy path.
                self.recycle(stream);
                self.mux_state.store(MUX_OFF, Ordering::Release);
                false
            }
            Err(MuxProbe::Transport(_)) => {
                // Ambiguous: an old server dropping the unknown opcode
                // looks exactly like an outage. Ask on the legacy path;
                // only an *answering* shard demotes (a transient outage
                // must not latch mux off).
                if self.health().is_ok() {
                    self.mux_state.store(MUX_OFF, Ordering::Release);
                }
                false
            }
        }
    }

    /// The live mux connection, re-dialing if the previous one died.
    /// `None` means the transport is unavailable right now (caller
    /// falls back to the blocking path, which carries the retry
    /// budget).
    fn mux_conn(&self) -> Option<Arc<MuxConn>> {
        let mut slot = self.mux.lock();
        if let Some(conn) = slot.as_ref() {
            if !conn.is_dead() {
                return Some(Arc::clone(conn));
            }
            *slot = None;
        }
        // Mux was negotiated on, so the server speaks it: this is an
        // outage or restart, not a protocol question.
        self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        match MuxConn::establish(self.addr, &self.cfg, &self.counters) {
            Ok(conn) => {
                let conn = Arc::new(conn);
                *slot = Some(Arc::clone(&conn));
                Some(conn)
            }
            Err(MuxProbe::Unsupported(stream)) => {
                // The shard came back *older* (rollback): demote.
                self.recycle(stream);
                self.mux_state.store(MUX_OFF, Ordering::Release);
                None
            }
            Err(MuxProbe::Transport(_)) => None,
        }
    }

    /// Pick the wire shape for a batch of offsets: single element,
    /// coalesced (checked) range for one contiguous ascending run, or
    /// order-preserving batch.
    fn plan_read(&self, offsets: &[u64]) -> (Request, ReadShape) {
        if offsets.len() == 1 {
            return (
                Request::GetElement { offset: offsets[0] },
                ReadShape::Element,
            );
        }
        if let Some(count) = contiguous_run(offsets) {
            if self.checked_enabled() {
                let (k0, k1) = self
                    .cfg
                    .integrity_key
                    .expect("checked_enabled implies a key");
                return (
                    Request::RangeChecked {
                        offset: offsets[0],
                        count,
                        k0,
                        k1,
                    },
                    ReadShape::Checked,
                );
            }
            if self.range_enabled() {
                return (
                    Request::GetRange {
                        offset: offsets[0],
                        count,
                    },
                    ReadShape::Range,
                );
            }
        }
        (
            Request::BatchGet {
                offsets: offsets.to_vec(),
            },
            ReadShape::Batch,
        )
    }

    /// The blocking read path: retries, backoff, hedging, and the
    /// range/checked opcode negotiation. Used when multiplexing is off
    /// (old servers, hedging configs) and as the fallback when the mux
    /// transport cannot be (re-)established.
    fn read_many_blocking(&self, offsets: &[u64]) -> Vec<Option<Vec<u8>>> {
        if offsets.is_empty() {
            return Vec::new();
        }
        if offsets.len() == 1 {
            let got =
                match self.timed(|| self.read_rpc(&Request::GetElement { offset: offsets[0] })) {
                    Ok(Response::Element(v)) => v,
                    _ => None,
                };
            return vec![got];
        }
        if self.checked_enabled() {
            if let Some(count) = contiguous_run(offsets) {
                if let Some(items) = self.read_checked(offsets[0], count) {
                    return items;
                }
                // Transient fault or an old server. Retry unchecked
                // (GetRange negotiates its own fallback below); if the
                // shard answers, it is alive but checked-less —
                // remember and stop asking.
                let items = self.read_many_unchecked(offsets);
                if items.iter().any(Option::is_some) {
                    self.checked_supported.store(false, Ordering::Release);
                }
                return items;
            }
        }
        self.read_many_unchecked(offsets)
    }

    /// One `RangeChecked` attempt for a contiguous run, or `None` if
    /// the checked path is unavailable/failed (caller falls back).
    /// Corrupt cells map to absent entries — the store's verify-on-read
    /// treats both as erasures — after bumping the corrupt counter.
    fn read_checked(&self, offset: u64, count: u32) -> Option<Vec<Option<Vec<u8>>>> {
        let (k0, k1) = self.cfg.integrity_key?;
        match self.timed(|| {
            self.read_rpc(&Request::RangeChecked {
                offset,
                count,
                k0,
                k1,
            })
        }) {
            Ok(Response::Checked(items)) if items.len() == count as usize => Some(
                items
                    .into_iter()
                    .map(|item| match item {
                        CheckedElement::Valid(bytes) => Some(bytes),
                        CheckedElement::Missing => None,
                        CheckedElement::Corrupt => {
                            self.remote_verify_fails.fetch_add(1, Ordering::Relaxed);
                            None
                        }
                    })
                    .collect(),
            ),
            _ => None,
        }
    }

    /// The unchecked multi-element path: coalesced `GetRange` for a
    /// contiguous run (with its own old-server fallback), `BatchGet`
    /// otherwise.
    fn read_many_unchecked(&self, offsets: &[u64]) -> Vec<Option<Vec<u8>>> {
        if self.range_enabled() {
            if let Some(count) = contiguous_run(offsets) {
                match self.timed(|| {
                    self.read_rpc(&Request::GetRange {
                        offset: offsets[0],
                        count,
                    })
                }) {
                    Ok(Response::Range(items)) if items.len() == offsets.len() => return items,
                    _ => {
                        // Either a transient fault or an old server (which
                        // drops the connection on the unknown opcode). Retry
                        // the batch as BatchGet; if *that* works, the shard
                        // is alive but range-less — remember and stop asking.
                        match self.timed(|| {
                            self.read_rpc(&Request::BatchGet {
                                offsets: offsets.to_vec(),
                            })
                        }) {
                            Ok(Response::Batch(items)) if items.len() == offsets.len() => {
                                self.range_supported.store(false, Ordering::Release);
                                return items;
                            }
                            _ => return vec![None; offsets.len()],
                        }
                    }
                }
            }
        }
        self.read_batch(offsets)
    }
}

/// `Some(count)` when `offsets` is one contiguous ascending run
/// (`o, o+1, …, o+len-1`) — the shape `GetRange` carries.
fn contiguous_run(offsets: &[u64]) -> Option<u32> {
    if offsets.is_empty() || offsets.len() > u32::MAX as usize {
        return None;
    }
    let contiguous = offsets.windows(2).all(|w| w[1] == w[0].wrapping_add(1));
    contiguous.then_some(offsets.len() as u32)
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
            // (A cell too big for any frame still goes out, alone, and
            // is refused — and counted — when the frame is written.)
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
    /// Submit a batch read. Over the multiplexed transport this is
    /// truly non-blocking: the request goes out id-tagged on the shared
    /// connection and the handle completes when the demux thread
    /// delivers the response (or its deadline passes — mux submissions
    /// are single-attempt; a failure completes as all-absent and the
    /// store replans degraded). When multiplexing is off or
    /// unavailable, the blocking path — with its full retry/hedge
    /// budget — runs inline and the handle returns already complete.
    fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
        if offsets.is_empty() {
            return IoHandle::ready(Vec::new());
        }
        if !self.use_mux() {
            return IoHandle::ready(self.read_many_blocking(offsets));
        }
        let Some(conn) = self.mux_conn() else {
            // Transport down right now: the blocking path carries the
            // retry budget and the failure accounting.
            return IoHandle::ready(self.read_many_blocking(offsets));
        };
        let (handle, completer) = io_pair(offsets.len());
        let (req, shape) = self.plan_read(offsets);
        let n = offsets.len();
        let counters = Arc::clone(&self.counters);
        let request_us = self.request_us.clone();
        let verify_fails = Arc::clone(&self.remote_verify_fails);
        let t0 = Instant::now();
        let framed = |w: &mut BufWriter<TcpStream>, id| {
            let inner = Box::new(req);
            write_request(w, &Request::Mux { id, inner })
        };
        let done: MuxCallback = Box::new(move |res| {
            request_us.record_duration(t0.elapsed());
            let results = res
                .ok()
                .and_then(|resp| map_read_response(resp, &shape, n, &verify_fails))
                .unwrap_or_else(|| {
                    counters.failed_requests.fetch_add(1, Ordering::Relaxed);
                    vec![None; n]
                });
            completer.complete(results);
        });
        if let Err(done) = conn.submit(framed, self.cfg.request_timeout, done) {
            done(Err(NetError::Protocol("mux connection lost".into())));
        }
        handle
    }

    /// True once mux negotiation has latched on: submissions return
    /// un-completed handles, so the array drives this backend from the
    /// reactor's completion side instead of parking a pool worker on it.
    fn submits_async(&self) -> bool {
        self.mux_enabled()
    }

    /// Submit a batch write: one `PutMany` frame (more only past the
    /// payload cap, or for mixed cell sizes), sent from the caller's
    /// buffers. Over the multiplexed transport the frame is written and
    /// the handle completes when the demux thread has the
    /// acknowledgement, so a caller writing to many shards sends all
    /// its frames before it waits for any. A frame that could not be
    /// written there — transport down, or the write failed part-way:
    /// puts are idempotent by offset, so sending it again is safe —
    /// takes the blocking path with its retry budget, inline.
    /// `DiskBackend` writes are infallible by contract: a frame that is
    /// never acknowledged is one failed request in the counters, and
    /// its cells read back as absent.
    fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
        let (handle, completer) = io_pair(0);
        // Dropped — which completes the handle — by whichever frame's
        // completion runs last.
        let completer = Arc::new(completer);
        let mux = self.use_mux().then(|| self.mux_conn()).flatten();
        for frame in pack_frames(runs, MAX_PAYLOAD as usize - 32) {
            let cell_len = frame[0].cell_len as u32;
            let on_mux = mux.as_ref().is_some_and(|conn| {
                let framed = |w: &mut BufWriter<TcpStream>, id| {
                    write_put_many(w, Some(id), cell_len, &frame)
                };
                let counters = Arc::clone(&self.counters);
                let request_us = self.request_us.clone();
                let completer = Arc::clone(&completer);
                let t0 = Instant::now();
                let done: MuxCallback = Box::new(move |res| {
                    request_us.record_duration(t0.elapsed());
                    if !matches!(res, Ok(Response::Put)) {
                        counters.failed_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(completer);
                });
                conn.submit(framed, self.cfg.request_timeout, done).is_ok()
            });
            if !on_mux {
                let _ =
                    self.timed(|| self.rpc_with(&|w| write_put_many(w, None, cell_len, &frame)));
            }
        }
        handle
    }

    /// Remote failure injection: flips the *server's* backend, so every
    /// client of that shard sees the failure.
    fn fail(&self) {
        let _ = self.inject(Fault::Fail);
    }

    fn heal(&self) {
        let _ = self.inject(Fault::Heal);
    }

    fn wipe(&self) {
        let _ = self.inject(Fault::Wipe);
    }

    fn len(&self) -> usize {
        self.health().map_or(0, |n| n as usize)
    }

    fn net_stats(&self) -> Option<NetStats> {
        Some(self.counters.snapshot())
    }

    /// Ship decode coefficients to the shard and receive pre-summed
    /// regions back (the repair-traffic-optimal path). An old server
    /// drops the connection on the unknown opcode; like the range
    /// latches, a `BatchGet` probe of the same offsets distinguishes
    /// "combine-less but alive" (latch off, caller falls back to raw
    /// elements) from "shard down" (report the failure).
    fn combine(&self, spec: &CombineSpec) -> CombineOutcome {
        if !self.combine_supported.load(Ordering::Acquire) {
            return CombineOutcome::Unsupported;
        }
        let req = Request::CombineRange {
            offset: spec.offset,
            count: spec.count,
            outputs: spec.outputs,
            coeffs: spec.coeffs.clone(),
            k0: spec.key.0,
            k1: spec.key.1,
            peers: spec
                .peers
                .iter()
                .map(|p| CombinePeer {
                    addr: p.addr.clone(),
                    offset: p.offset,
                    count: p.count,
                    coeffs: p.coeffs.clone(),
                })
                .collect(),
        };
        match self.timed(|| self.rpc(&req)) {
            Ok(Response::Combined {
                regions,
                local_status,
                peer_status,
            }) => CombineOutcome::Combined(CombineReply {
                regions,
                local_status,
                peer_status,
            }),
            Ok(other) => CombineOutcome::Failed(format!("unexpected response: {other:?}")),
            // A structured Error came back over the wire: the server
            // speaks the opcode (it rejected this *request*), so the
            // latch stays on.
            Err(NetError::Remote(msg)) => CombineOutcome::Failed(msg),
            Err(e) => {
                let offsets: Vec<u64> = (0..u64::from(spec.count))
                    .map(|i| spec.offset + i)
                    .collect();
                let probe = self.read_batch(&offsets);
                if probe.iter().any(Option::is_some) {
                    self.combine_supported.store(false, Ordering::Release);
                    return CombineOutcome::Unsupported;
                }
                CombineOutcome::Failed(e.to_string())
            }
        }
    }

    fn supports_combine(&self) -> bool {
        self.combine_supported.load(Ordering::Acquire)
    }

    fn peer_addr(&self) -> Option<String> {
        Some(self.addr.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ShardServer;
    use ecfrm_sim::MemDisk;

    fn server() -> ShardServer {
        ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap()
    }

    /// The test profile: tight timeouts via the builder.
    fn fast() -> RemoteDiskConfig {
        RemoteDiskConfig::builder().low_latency().build()
    }

    #[test]
    fn builder_default_matches_config_default() {
        assert_eq!(
            RemoteDiskConfig::builder().build(),
            RemoteDiskConfig::default()
        );
    }

    #[test]
    fn builder_sets_individual_knobs() {
        let cfg = RemoteDiskConfig::builder()
            .connect_timeout(Duration::from_millis(10))
            .request_timeout(Duration::from_millis(20))
            .max_retries(7)
            .backoff(Duration::from_millis(1), Duration::from_millis(2))
            .hedge_after(Some(Duration::from_millis(30)))
            .pool_size(9)
            .use_range(false)
            .integrity_key(3, 4)
            .multiplex(false)
            .build();
        assert_eq!(cfg.connect_timeout, Duration::from_millis(10));
        assert_eq!(cfg.request_timeout, Duration::from_millis(20));
        assert_eq!(cfg.max_retries, 7);
        assert_eq!(cfg.backoff_base, Duration::from_millis(1));
        assert_eq!(cfg.backoff_cap, Duration::from_millis(2));
        assert_eq!(cfg.hedge_after, Some(Duration::from_millis(30)));
        assert_eq!(cfg.pool_size, 9);
        assert!(!cfg.use_range);
        assert_eq!(cfg.integrity_key, Some((3, 4)));
        assert!(!cfg.multiplex);
    }

    #[test]
    fn read_write_roundtrip_over_wire() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        assert!(disk.is_empty());
        disk.write(7, vec![1, 2, 3]);
        assert_eq!(disk.read(7), Some(vec![1, 2, 3]));
        assert_eq!(disk.read(8), None);
        assert_eq!(disk.len(), 1);
        let stats = disk.net_stats().unwrap();
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(stats.timeouts, 0);
        assert!(disk.mux_enabled(), "a live new server negotiates mux on");
        assert!(disk.submits_async());
    }

    #[test]
    fn batch_get_roundtrip() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        for o in 0..3u64 {
            disk.write(o, vec![o as u8; 4]);
        }
        let got = disk.read_batch(&[1, 5, 2]);
        assert_eq!(got, vec![Some(vec![1u8; 4]), None, Some(vec![2u8; 4])]);
    }

    #[test]
    fn read_many_coalesces_contiguous_run_into_one_range_rpc() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        for o in 0..6u64 {
            disk.write(o, vec![o as u8; 4]);
        }
        let got = disk.read_many(&[2, 3, 4, 5]);
        assert_eq!(
            got,
            (2..6u64)
                .map(|o| Some(vec![o as u8; 4]))
                .collect::<Vec<_>>()
        );
        let stats = disk.stats().unwrap();
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("serve.range"), Some(1), "one coalesced RPC");
        assert_eq!(get("serve.batch"), Some(0), "no per-batch fallback used");
    }

    #[test]
    fn read_many_non_contiguous_uses_batch_get() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        for o in 0..8u64 {
            disk.write(o, vec![o as u8]);
        }
        let got = disk.read_many(&[7, 0, 3, 100]);
        assert_eq!(got, vec![Some(vec![7]), Some(vec![0]), Some(vec![3]), None]);
        let stats = disk.stats().unwrap();
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("serve.batch"), Some(1));
        assert_eq!(get("serve.range"), Some(0));
        assert!(disk.range_enabled(), "fallback must not disable range");
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

    #[test]
    fn mux_path_serves_many_concurrent_submissions() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        for o in 0..64u64 {
            disk.write(o, vec![o as u8; 8]);
        }
        // Trigger negotiation, then pile up in-flight submissions on
        // the one connection before collecting any of them.
        assert_eq!(disk.read(0), Some(vec![0u8; 8]));
        assert!(disk.submits_async());
        let handles: Vec<IoHandle> = (0..64u64).map(|o| disk.submit_read_many(&[o])).collect();
        for (o, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), vec![Some(vec![o as u8; 8])], "offset {o}");
        }
        let stats = disk.stats().unwrap();
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert!(get("serve.mux").unwrap() >= 65, "{stats:?}");
        assert_eq!(disk.net_stats().unwrap().failed_requests, 0);
    }

    #[test]
    fn read_many_on_dead_server_is_all_absent() {
        let mut server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        server.kill();
        assert_eq!(disk.read_many(&[0, 1, 2]), vec![None, None, None]);
        // A transient outage must not permanently disable coalescing —
        // or multiplexing.
        assert!(disk.range_enabled());
        assert!(!disk.mux_enabled(), "outage leaves mux undetermined");
    }

    #[test]
    fn read_many_checked_maps_corrupt_to_absent_and_counts() {
        use ecfrm_integrity::{append_footer, HashKey};
        let backend = Arc::new(MemDisk::new());
        let server =
            ShardServer::spawn(Arc::clone(&backend) as Arc<dyn DiskBackend>, "127.0.0.1:0")
                .unwrap();
        let key = HashKey::DEFAULT.derive(0x454C_454D, 7);
        let disk = RemoteDisk::new(server.addr(), fast().with_integrity(key.k0, key.k1));
        for off in 0..4u64 {
            let mut cell = vec![off as u8; 8];
            append_footer(&key, off, &mut cell);
            disk.write(off, cell);
        }
        // Flip a payload byte behind the server's back: bit rot.
        let mut rotted = backend.read(2).unwrap();
        rotted[3] ^= 0x80;
        backend.write(2, rotted);

        let got = disk.read_many(&[0, 1, 2, 3]);
        assert!(got[0].is_some() && got[1].is_some() && got[3].is_some());
        assert_eq!(got[2], None, "corrupt cell reads as absent");
        assert_eq!(disk.remote_verify_fails(), 1);
        assert!(disk.checked_enabled(), "corruption must not demote the op");
        let stats = disk.stats().unwrap();
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("serve.checked"), Some(1));
        assert_eq!(get("serve.checked_corrupt"), Some(1));
        assert_eq!(get("serve.batch"), Some(0), "no fallback was needed");
    }

    #[test]
    fn old_server_demotes_checked_to_unchecked_path() {
        // A hand-rolled shard that predates `RangeChecked`: it drops the
        // connection on the unknown opcode (exactly what an old
        // `read_request` does with an unparseable frame) but serves
        // `BatchGet`/`GetRange` fine. It answers a `Mux` probe with a
        // plain error, so mux negotiation latches off first.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let backend = Arc::new(MemDisk::new());
        for off in 0..4u64 {
            backend.write(off, vec![off as u8; 4]);
        }
        let serve_backend = Arc::clone(&backend);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let disk = Arc::clone(&serve_backend);
                std::thread::spawn(move || loop {
                    let req = match crate::protocol::read_request(&mut stream) {
                        Ok(r) => r,
                        Err(_) => return,
                    };
                    let resp = match req {
                        Request::RangeChecked { .. } => return, // "unknown opcode"
                        Request::BatchGet { offsets } => Response::Batch(disk.read_many(&offsets)),
                        Request::GetRange { offset, count } => {
                            let offsets: Vec<u64> =
                                (0..u64::from(count)).map(|i| offset + i).collect();
                            Response::Range(disk.read_many(&offsets))
                        }
                        Request::GetElement { offset } => Response::Element(disk.read(offset)),
                        _ => Response::Error("unsupported".into()),
                    };
                    if crate::protocol::write_response(&mut stream, &resp).is_err() {
                        return;
                    }
                });
            }
        });

        let disk = RemoteDisk::new(addr, fast().with_integrity(1, 2));
        assert!(disk.checked_enabled());
        let want: Vec<Option<Vec<u8>>> = (0..4u64).map(|o| Some(vec![o as u8; 4])).collect();
        assert_eq!(disk.read_many(&[0, 1, 2, 3]), want);
        assert!(
            !disk.checked_enabled(),
            "an answering but checked-less shard demotes the op permanently"
        );
        assert!(disk.range_enabled(), "range negotiation is independent");
        assert!(!disk.mux_enabled(), "plain probe answer demotes mux");
        // Subsequent batches skip the checked attempt entirely.
        assert_eq!(disk.read_many(&[0, 1, 2, 3]), want);
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
        let CombineOutcome::Combined(reply) = disk.combine(&spec) else {
            panic!("live new server must combine");
        };
        assert!(disk.supports_combine());
        assert_eq!(reply.local_status, vec![0, 0, 0]);
        let region = verify_footer(&key, 0, &reply.regions[0]).expect("region sealed");
        let mut want = vec![0u8; 16];
        for (c, off) in [(3u8, 0u64), (5, 1), (7, 2)] {
            ecfrm_gf::region::mul_add_region(c, &[off as u8 + 1; 16], &mut want);
        }
        assert_eq!(region, &want[..]);
    }

    #[test]
    fn old_server_latches_combine_off_after_one_probe() {
        // A pre-combine shard: drops the connection on the unknown
        // opcode but answers `BatchGet` — the probe that tells the
        // client "alive but combine-less". The latch must be permanent
        // and must not disturb the other negotiations.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let combine_frames = Arc::new(AtomicU64::new(0));
        let backend = Arc::new(MemDisk::new());
        for off in 0..3u64 {
            backend.write(off, vec![off as u8; 4]);
        }
        let serve_backend = Arc::clone(&backend);
        let serve_frames = Arc::clone(&combine_frames);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let disk = Arc::clone(&serve_backend);
                let frames = Arc::clone(&serve_frames);
                std::thread::spawn(move || loop {
                    let req = match crate::protocol::read_request(&mut stream) {
                        Ok(r) => r,
                        Err(_) => return,
                    };
                    let resp = match req {
                        Request::CombineRange { .. } => {
                            frames.fetch_add(1, Ordering::Relaxed);
                            return; // "unknown opcode"
                        }
                        Request::BatchGet { offsets } => Response::Batch(disk.read_many(&offsets)),
                        Request::GetElement { offset } => Response::Element(disk.read(offset)),
                        _ => Response::Error("unsupported".into()),
                    };
                    if crate::protocol::write_response(&mut stream, &resp).is_err() {
                        return;
                    }
                });
            }
        });

        let disk = RemoteDisk::new(addr, fast());
        assert!(disk.supports_combine(), "optimistic until proven otherwise");
        let spec = CombineSpec {
            offset: 0,
            count: 3,
            outputs: 1,
            coeffs: vec![1, 1, 1],
            key: (0, 0),
            peers: Vec::new(),
        };
        assert!(matches!(disk.combine(&spec), CombineOutcome::Unsupported));
        assert!(
            !disk.supports_combine(),
            "an answering but combine-less shard latches the op off"
        );
        let after_first = combine_frames.load(Ordering::Relaxed);
        assert!(after_first >= 1);
        // The latch is permanent: no further combine frames on the wire.
        assert!(matches!(disk.combine(&spec), CombineOutcome::Unsupported));
        assert_eq!(combine_frames.load(Ordering::Relaxed), after_first);
    }

    #[test]
    fn old_server_dropping_mux_frames_latches_mux_off() {
        // A pre-mux shard as it actually behaves: an unknown opcode is
        // an unparseable frame, so the connection is dropped. The
        // legacy path answers fine — the client must latch mux off
        // after one probe and never ask again.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let probes = Arc::new(AtomicU64::new(0));
        let backend = Arc::new(MemDisk::new());
        backend.write(0, vec![9; 4]);
        let serve_backend = Arc::clone(&backend);
        let serve_probes = Arc::clone(&probes);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let disk = Arc::clone(&serve_backend);
                let probes = Arc::clone(&serve_probes);
                std::thread::spawn(move || loop {
                    let req = match crate::protocol::read_request(&mut stream) {
                        Ok(r) => r,
                        Err(_) => return,
                    };
                    let resp = match req {
                        Request::Mux { .. } => {
                            probes.fetch_add(1, Ordering::Relaxed);
                            return; // old server: drop on unknown opcode
                        }
                        Request::Health => Response::Health {
                            elements: disk.len() as u64,
                        },
                        Request::GetElement { offset } => Response::Element(disk.read(offset)),
                        Request::BatchGet { offsets } => Response::Batch(disk.read_many(&offsets)),
                        Request::GetRange { offset, count } => {
                            let offsets: Vec<u64> =
                                (0..u64::from(count)).map(|i| offset + i).collect();
                            Response::Range(disk.read_many(&offsets))
                        }
                        _ => Response::Error("unsupported".into()),
                    };
                    if crate::protocol::write_response(&mut stream, &resp).is_err() {
                        return;
                    }
                });
            }
        });

        let disk = RemoteDisk::new(addr, fast());
        assert_eq!(disk.read(0), Some(vec![9; 4]));
        assert!(!disk.mux_enabled());
        assert!(!disk.submits_async());
        assert_eq!(disk.read(0), Some(vec![9; 4]));
        assert_eq!(
            probes.load(Ordering::Relaxed),
            1,
            "exactly one probe, then never again"
        );
        assert!(
            disk.net_stats().unwrap().conns_discarded >= 1,
            "the dropped probe connection is accounted"
        );
    }

    #[test]
    fn legacy_client_against_new_server_stays_plain() {
        // Old-client wire compatibility: a client configured like a
        // pre-mux build (no multiplex) must work against a new server
        // without ever emitting the new opcode.
        let server = server();
        let cfg = RemoteDiskConfig::builder()
            .low_latency()
            .multiplex(false)
            .build();
        let disk = RemoteDisk::new(server.addr(), cfg);
        for o in 0..4u64 {
            disk.write(o, vec![o as u8; 4]);
        }
        let want: Vec<Option<Vec<u8>>> = (0..4u64).map(|o| Some(vec![o as u8; 4])).collect();
        assert_eq!(disk.read_many(&[0, 1, 2, 3]), want);
        assert!(!disk.submits_async());
        let stats = disk.stats().unwrap();
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("serve.mux"), Some(0), "no mux frames on the wire");
        assert_eq!(get("serve.range"), Some(1));
    }

    #[test]
    fn contiguous_run_detection() {
        assert_eq!(contiguous_run(&[]), None);
        assert_eq!(contiguous_run(&[5]), Some(1));
        assert_eq!(contiguous_run(&[5, 6, 7]), Some(3));
        assert_eq!(contiguous_run(&[5, 7]), None);
        assert_eq!(contiguous_run(&[6, 5]), None);
        assert_eq!(contiguous_run(&[5, 5]), None);
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
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![9]);
        disk.fail();
        assert_eq!(disk.read(0), None);
        disk.heal();
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
        b.fail();
        assert_eq!(a.read(0), None, "failure is server-side state");
        b.heal();
    }

    #[test]
    fn dead_server_reads_as_absent_with_counters() {
        let mut server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![1]);
        assert_eq!(disk.read(0), Some(vec![1]));
        assert!(disk.mux_enabled());
        server.kill();
        let t0 = std::time::Instant::now();
        assert_eq!(disk.read(0), None, "dead shard reads as absent");
        // The first read may still go out on the mux connection, whose
        // reader has not seen the EOF yet, and fail there without a
        // retry; the next one finds it dead and takes the blocking path
        // with its retry budget.
        assert_eq!(disk.read(0), None, "and stays absent");
        // Bounded failure detection: the low-latency profile allows
        // ~(1+1) × 200ms plus backoff; it must not hang for seconds.
        assert!(t0.elapsed() < Duration::from_secs(2));
        let stats = disk.net_stats().unwrap();
        assert!(stats.failed_requests >= 1, "{stats:?}");
        assert!(stats.retries >= 1, "{stats:?}");
        assert!(stats.conns_discarded >= 1, "{stats:?}");
    }

    #[test]
    fn in_flight_mux_submissions_complete_when_server_dies() {
        let mut server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![7; 4]);
        assert_eq!(disk.read(0), Some(vec![7; 4]));
        assert!(disk.submits_async());
        // Make the server a straggler so submissions are still in
        // flight when it dies mid-request.
        disk.inject(Fault::DelayMs(150)).unwrap();
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
    fn retry_recovers_after_restart_on_same_port() {
        let mut server = server();
        let addr = server.addr();
        let disk = RemoteDisk::new(addr, fast());
        disk.write(0, vec![3]);
        server.kill();
        assert_eq!(disk.read(0), None);
        // Rebind the same port (data is gone — fresh MemDisk — but the
        // transport must reconnect transparently).
        let server2 = match ShardServer::spawn(Arc::new(MemDisk::new()), &addr.to_string()) {
            Ok(s) => s,
            Err(_) => return, // port taken by another process: skip
        };
        assert_eq!(server2.addr(), addr);
        disk.write(1, vec![4]);
        assert_eq!(disk.read(1), Some(vec![4]));
        assert!(disk.net_stats().unwrap().reconnects >= 1);
        assert!(disk.mux_enabled(), "mux comes back with the server");
    }

    #[test]
    fn hedged_read_beats_straggler() {
        let server = server();
        let cfg = RemoteDiskConfig::builder()
            .low_latency()
            .request_timeout(Duration::from_secs(2))
            .hedge_after(Some(Duration::from_millis(30)))
            .multiplex(false) // hedging is a legacy-path strategy
            .build();
        let disk = RemoteDisk::new(server.addr(), cfg);
        disk.write(0, vec![7; 16]);

        // Make the server a straggler: every read sleeps 150 ms. The
        // hedge fires at 30 ms and (also delayed) still answers; the
        // counters must show hedges were launched.
        disk.inject(Fault::DelayMs(150)).unwrap();
        let got = disk.read(0);
        disk.inject(Fault::DelayMs(0)).unwrap();
        assert_eq!(got, Some(vec![7; 16]));
        let stats = disk.net_stats().unwrap();
        assert!(stats.hedges >= 1, "{stats:?}");
    }

    #[test]
    fn fast_reads_do_not_hedge() {
        let server = server();
        let cfg = RemoteDiskConfig::builder()
            .low_latency()
            .hedge_after(Some(Duration::from_millis(150)))
            .multiplex(false)
            .build();
        let disk = RemoteDisk::new(server.addr(), cfg);
        disk.write(0, vec![1]);
        for _ in 0..20 {
            assert_eq!(disk.read(0), Some(vec![1]));
        }
        assert_eq!(disk.net_stats().unwrap().hedges, 0);
    }

    #[test]
    fn request_latency_histogram_counts_data_requests() {
        let server = server();
        let disk = RemoteDisk::new(server.addr(), fast());
        disk.write(0, vec![1; 8]);
        for _ in 0..5 {
            assert_eq!(disk.read(0), Some(vec![1; 8]));
        }
        disk.read_batch(&[0, 1]);
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
        let stats = disk.stats().unwrap();
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("serve.get"), Some(3));
        assert_eq!(get("serve.put_many"), Some(1));
        // 1 put + the Mux(Health) negotiation probe + 3 gets.
        assert_eq!(get("serve_us.count"), Some(5));
        assert_eq!(
            get("serve.mux"),
            Some(5),
            "probe + the mux'd write and reads"
        );
        // The same registry is visible locally on the server handle.
        let local = server.recorder().snapshot();
        assert_eq!(local.counters.get("serve.get"), Some(&3));
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let server = server();
        let cfg = RemoteDiskConfig::builder()
            .low_latency()
            .backoff(Duration::from_millis(8), Duration::from_millis(20))
            .build();
        let disk = RemoteDisk::new(server.addr(), cfg);
        // attempt 1: 8ms × jitter ∈ [4, 12); attempt 4+: capped 20 × jitter < 30.
        for attempt in 1..=8 {
            let d = disk.backoff(attempt);
            assert!(d >= Duration::from_millis(4), "attempt {attempt}: {d:?}");
            assert!(d < Duration::from_millis(30), "attempt {attempt}: {d:?}");
        }
    }
}
