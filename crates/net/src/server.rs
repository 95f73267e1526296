//! [`ShardServer`]: serve any [`DiskBackend`] over TCP.
//!
//! Thread-per-connection, with short socket timeouts so every thread
//! notices the stop flag quickly. One connection carries many requests
//! in flight, answered by id in completion order through one writer.
//! Which thread serves a frame is chosen per frame (`start`): the
//! connection thread answers object ops, `Health`, `Stats`, `Wipe`,
//! and a `Read` or `PutMany` whose backend submits
//! without blocking ([`DiskBackend::submits_async`]) and has the result
//! in hand; a per-connection worker pool, spawned on the first frame
//! that needs it, serves the rest — and every `CombineRange`, at most
//! `MAX_COMBINES` (two) of a connection's at once.
//!
//! Only connection threads and their workers write to a socket: a
//! backend's completion thread never does. [`ShardServer::kill`] models
//! a node crash: the accept loop and all connection handlers exit
//! without draining in-flight requests, so clients see resets/timeouts —
//! the stimulus the store's degraded-read fallback exists for.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_obs::{Counter, Histogram, Recorder};
use ecfrm_sim::{CombinePeerSpec, CombineReply, CombineSpec, DiskBackend, IoHandle, WriteRun};
use ecfrm_util::{Mutex, Queue};

use ecfrm_integrity::{verify_footer, HashKey};

use crate::client::{Callback, Link, RemoteDiskConfig};
use crate::protocol::{
    read_request_polling, version_mismatch, write_request, write_response, NetError, Polled,
    Request, Response, MAX_PAYLOAD, MAX_RANGE,
};

/// How often blocked accept/read loops wake to check the stop flag.
const POLL: Duration = Duration::from_millis(20);

/// Most output lanes one `CombineRange` may request. Lanes are sized by
/// the caller's rows-per-stripe (single digits in practice); the cap
/// only exists so a hostile request cannot make the server allocate
/// `outputs` full regions unboundedly.
const MAX_COMBINE_OUTPUTS: u32 = 256;

/// Most peers one `CombineRange` may fan out to.
const MAX_COMBINE_PEERS: usize = 32;

/// Dial timeout for a combined-read peer fetch.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Deadline for a peer's partial sums.
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Workers per connection: how many of its requests one connection
/// services concurrently. Small and fixed — the client may queue
/// thousands of submissions, but per-connection handler parallelism
/// beyond a few threads only buys writer-lock contention.
const MUX_WORKERS: usize = 4;

/// The combine rule: at most this many of one connection's
/// `CombineRange`s are in service at once; the others wait, holding no
/// worker, so a repair window leaves the foreground reads on its
/// connection half of the workers.
const MAX_COMBINES: usize = MUX_WORKERS / 2;

/// Most object bytes one `ObjGet` reply carries: what fits a frame
/// beside its length field.
const MAX_OBJ_REPLY: u64 = MAX_PAYLOAD as u64 - 4;

/// Bound on a blocked socket write, so a stalled client cannot wedge a
/// handler (and therefore `kill`) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Pre-resolved metric handles so the request loop never touches the
/// registry maps.
struct ServerMetrics {
    read: Counter,
    put_many: Counter,
    combine: Counter,
    combine_corrupt: Counter,
    obj: Counter,
    health: Counter,
    wipe: Counter,
    stats: Counter,
    inline: Counter,
    conns: Counter,
    serve_us: Histogram,
}

impl ServerMetrics {
    fn new(recorder: &Recorder) -> Self {
        Self {
            read: recorder.counter("serve.read"),
            put_many: recorder.counter("serve.put_many"),
            combine: recorder.counter("serve.combine"),
            combine_corrupt: recorder.counter("serve.combine_corrupt"),
            obj: recorder.counter("serve.obj"),
            health: recorder.counter("serve.health"),
            wipe: recorder.counter("serve.wipe"),
            stats: recorder.counter("serve.stats"),
            inline: recorder.counter("serve.inline"),
            conns: recorder.counter("serve.conns"),
            serve_us: recorder.histogram("serve_us"),
        }
    }

    fn count(&self, req: &Request) {
        match req {
            Request::Read { .. } => self.read.inc(),
            Request::PutMany { .. } => self.put_many.inc(),
            Request::CombineRange { .. } => self.combine.inc(),
            Request::ObjPut { .. }
            | Request::ObjGet { .. }
            | Request::ObjStat { .. }
            | Request::ObjDelete { .. } => self.obj.inc(),
            Request::Health => self.health.inc(),
            Request::Wipe => self.wipe.inc(),
            Request::Stats => self.stats.inc(),
        }
    }
}

struct Shared {
    backend: Arc<dyn DiskBackend>,
    /// Object front door served by opcodes 13–15 and 18, when this node is a
    /// front node and not just a raw shard. `None` answers object ops
    /// with a typed wire error.
    front: Option<Arc<ecfrm_store::FrontDoor>>,
    stop: AtomicBool,
    recorder: Recorder,
    metrics: ServerMetrics,
    /// One connection per combine peer, keyed by the address requests
    /// name it by, kept for every stripe of a rebuild.
    links: Mutex<HashMap<String, Arc<Link>>>,
}

/// A TCP server exposing one disk shard.
pub struct ShardServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardServer({})", self.addr)
    }
}

impl ShardServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `backend`.
    ///
    /// # Errors
    /// Socket bind errors.
    pub fn spawn(backend: Arc<dyn DiskBackend>, addr: &str) -> std::io::Result<Self> {
        Self::spawn_inner(backend, None, addr)
    }

    /// Like [`Self::spawn`], but also attach an object front door: this
    /// node serves the object namespace ops (opcodes 13–15, 18) through
    /// `front` in addition to the raw shard ops on `backend`. Plain
    /// [`Self::spawn`] servers answer object ops with a typed
    /// `"no front door attached"` error.
    ///
    /// # Errors
    /// Socket bind errors.
    pub fn spawn_with_front(
        backend: Arc<dyn DiskBackend>,
        front: Arc<ecfrm_store::FrontDoor>,
        addr: &str,
    ) -> std::io::Result<Self> {
        Self::spawn_inner(backend, Some(front), addr)
    }

    fn spawn_inner(
        backend: Arc<dyn DiskBackend>,
        front: Option<Arc<ecfrm_store::FrontDoor>>,
        addr: &str,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let recorder = Recorder::new();
        let metrics = ServerMetrics::new(&recorder);
        // A shard node has no array above its disk: the file I/O
        // engine's gauges reach `Stats` through this registry.
        recorder.observe(ecfrm_sim::file_disk::sample);
        let shared = Arc::new(Shared {
            backend,
            front,
            stop: AtomicBool::new(false),
            recorder,
            metrics,
            links: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Self {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry: per-op counters (`serve.read`,
    /// `serve.put_many`, `serve.combine`, `serve.obj`, `serve.health`,
    /// `serve.wipe`, `serve.stats`), `serve.inline` — the frames the
    /// connection thread answered itself instead of handing them to its
    /// worker pool — `serve.conns`, the connections accepted,
    /// `serve.combine_corrupt`, the cells that failed footer
    /// verification before they could join a combined sum, and the
    /// `serve_us` request-service histogram; plus the gauges of the file
    /// I/O engine under the shard's disk (`io.uring_*`,
    /// `io.file_errors`), read at snapshot time.
    /// Remote clients can fetch the same data with [`Request::Stats`].
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// Stop serving: accept loop and every connection handler exit at
    /// their next poll tick, dropping in-flight connections. Blocks
    /// until the accept loop has exited. An attached front door is shut
    /// down first so connection threads queued in QoS admission unpark
    /// and can be joined instead of sleeping out their delay.
    pub fn kill(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(front) = &self.shared.front {
            front.shutdown();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// True once [`Self::kill`] has run.
    pub fn is_dead(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        self.kill();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    // Connection handler threads park their handles here so the accept
    // loop can join them on shutdown.
    let handlers: Mutex<Vec<std::thread::JoinHandle<()>>> = Mutex::new(Vec::new());
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.conns.inc();
                let shared = Arc::clone(shared);
                handlers.lock().push(std::thread::spawn(move || {
                    serve_connection(stream, &shared)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => break,
        }
    }
    for h in handlers.into_inner() {
        let _ = h.join();
    }
}

/// The writer half of a connection, shared between the connection
/// thread and its workers so responses interleave without tearing
/// frames. The socket itself: a response leaves in one vectored write
/// from the buffers that hold it.
type SharedWriter = Arc<Mutex<TcpStream>>;

/// Record the service time since `t0` and write the response to request
/// `id`. Returns `false` if it could not be written (connection is
/// dead).
fn respond(resp: Response, id: u64, t0: Instant, shared: &Shared, writer: &SharedWriter) -> bool {
    shared.metrics.serve_us.record_duration(t0.elapsed());
    write_response(&mut *writer.lock(), id, &resp).is_ok()
}

/// [`handle`], with a panic turned into a wire error.
///
/// A panicking backend (e.g. an element-size mismatch on a file-backed
/// shard) must surface as a wire-level error the client can count and
/// report — not kill the connection and masquerade as a network fault.
fn handle_caught(req: &Request, shared: &Shared) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle(req, shared)))
        .unwrap_or_else(|payload| Response::Error(panic_message(payload.as_ref())))
}

/// Count, time, handle, and write one request's response. Returns
/// `false` if the response could not be written (connection is dead).
fn serve_one(req: &Request, id: u64, shared: &Shared, writer: &SharedWriter) -> bool {
    shared.metrics.count(req);
    let t0 = Instant::now();
    respond(handle_caught(req, shared), id, t0, shared, writer)
}

/// A request the connection thread could not answer itself.
enum Job {
    /// Not started: a worker handles it from start to finish.
    Serve { id: u64, req: Request },
    /// A read the connection thread already submitted, whose backend has
    /// to wait for it (cold page, `O_DIRECT`): a worker waits it out.
    Finish {
        id: u64,
        handle: IoHandle,
        t0: Instant,
    },
}

impl Job {
    fn is_combine(&self) -> bool {
        matches!(self, Job::Serve { req, .. } if matches!(req, Request::CombineRange(_)))
    }
}

/// What [`start`] made of a frame.
enum Started {
    /// Answered on the connection thread; write this.
    Done(Response, Instant),
    /// Needs a worker.
    Job(Job),
}

/// Start request `id` on the connection thread unless it has to wait
/// for something. A read on a backend whose submission only stages the
/// I/O is submitted here: a result already there (page-cache hit) is
/// answered on the spot, one still pending is handed to the workers.
fn start(id: u64, req: Request, shared: &Shared) -> Started {
    let to_workers = match &req {
        Request::CombineRange(_) => true,
        Request::Read { .. } | Request::PutMany { .. } => !shared.backend.submits_async(),
        _ => false,
    };
    if to_workers {
        return Started::Job(Job::Serve { id, req });
    }
    shared.metrics.count(&req);
    let t0 = Instant::now();
    let Request::Read { runs } = &req else {
        return Started::Done(handle_caught(&req, shared), t0);
    };
    let offsets = match read_offsets(runs) {
        Ok(offsets) => offsets,
        Err(msg) => return Started::Done(Response::Error(msg), t0),
    };
    let submit = || shared.backend.submit_read_many(&offsets);
    let mut handle = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(submit)) {
        Ok(handle) => handle,
        Err(payload) => return Started::Done(Response::Error(panic_message(payload.as_ref())), t0),
    };
    match handle.try_take() {
        Some(cells) => Started::Done(Response::Cells(cells), t0),
        None => Started::Job(Job::Finish { id, handle, t0 }),
    }
}

/// A connection's combines in service, and the ones waiting for one of
/// them to finish (the combine rule, [`MAX_COMBINES`]).
type CombineGate = Mutex<(usize, VecDeque<Job>)>;

/// The worker pool a connection grows on the first frame that has to
/// wait for something (see [`start`]).
///
/// One queue, one condvar: a push wakes exactly one parked worker, and
/// handling — the expensive part — overlaps up to [`MUX_WORKERS`]
/// deep. Dropping the pool closes the queue; each worker drains out
/// and is joined.
struct Workers {
    queue: Arc<Queue<Job>>,
    combines: Arc<CombineGate>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Workers {
    fn spawn(shared: &Arc<Shared>, writer: &SharedWriter) -> Self {
        let queue = Arc::new(Queue::new());
        let combines = Arc::new(Mutex::new((0, VecDeque::new())));
        let threads = (0..MUX_WORKERS)
            .map(|_| {
                let (queue, combines) = (Arc::clone(&queue), Arc::clone(&combines));
                let (shared, writer) = (Arc::clone(shared), Arc::clone(writer));
                std::thread::spawn(move || worker(&queue, &combines, &shared, &writer))
            })
            .collect();
        Self {
            queue,
            combines,
            threads,
        }
    }

    /// Queue `job` — a combine only while fewer than [`MAX_COMBINES`]
    /// are in service; otherwise it waits its turn off the queue.
    /// `false` once the queue is closed.
    fn push(&self, job: Job) -> bool {
        if job.is_combine() {
            let mut gate = self.combines.lock();
            if gate.0 == MAX_COMBINES {
                gate.1.push_back(job);
                return true;
            }
            gate.0 += 1;
        }
        self.queue.push(job).is_ok()
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.queue.close();
        for w in self.threads.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker(queue: &Queue<Job>, combines: &CombineGate, shared: &Shared, writer: &SharedWriter) {
    while let Some(job) = queue.pop() {
        if shared.stop.load(Ordering::Acquire) {
            return; // hard kill: abandon the in-flight request
        }
        let combine = job.is_combine();
        let alive = match job {
            Job::Serve { id, req } => serve_one(&req, id, shared, writer),
            Job::Finish { id, mut handle, t0 } => {
                // Wait in slices so a kill interrupts it.
                let cells = loop {
                    if let Some(cells) = handle.wait_timeout(POLL) {
                        break cells;
                    }
                    if shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                };
                respond(Response::Cells(cells), id, t0, shared, writer)
            }
        };
        if combine {
            // The next waiting combine takes this one's place in service,
            // queued behind whatever the connection sent meanwhile.
            let next = {
                let mut gate = combines.lock();
                let next = gate.1.pop_front();
                if next.is_none() {
                    gate.0 -= 1;
                }
                next
            };
            if next.is_some_and(|job| queue.push(job).is_err()) {
                return;
            }
        }
        if !alive {
            return; // dead socket: stop servicing this connection
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let writer: SharedWriter = Arc::new(Mutex::new(stream));
    // Spawned lazily on the first frame that needs it: clients of
    // connection-thread ops and reads of a warm async backend never pay
    // for it.
    let mut workers: Option<Workers> = None;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return; // hard kill: drop the connection mid-stream
        }
        let (id, req) = match read_request_polling(&mut reader, &shared.stop) {
            Polled::Frame(id, req) => (id, req),
            Polled::Idle => continue, // poll tick, check stop
            Polled::Closed => return, // peer gone, kill, or garbage
            Polled::WrongVersion(peer) => {
                // Say why before hanging up: a silent close reads as an
                // outage on the other side.
                let refusal = Response::Error(version_mismatch(peer));
                let _ = write_response(&mut *writer.lock(), 0, &refusal);
                return;
            }
        };
        let alive = match start(id, req, shared) {
            Started::Done(resp, t0) => {
                shared.metrics.inline.inc();
                respond(resp, id, t0, shared, &writer)
            }
            // Only this thread, leaving, closes the queue.
            Started::Job(job) => workers
                .get_or_insert_with(|| Workers::spawn(shared, &writer))
                .push(job),
        };
        if !alive {
            return;
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("shard panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("shard panicked: {s}")
    } else {
        "shard panicked handling request".to_string()
    }
}

/// Dispatch one object op to the attached front door, mapping store
/// errors to the typed wire strings [`crate::front::unwire_error`]
/// re-types client-side. A front-less server answers every object op
/// with the same typed error.
fn obj_result(
    shared: &Shared,
    f: impl FnOnce(&ecfrm_store::FrontDoor) -> Result<Response, ecfrm_store::StoreError>,
) -> Response {
    match &shared.front {
        Some(front) => f(front).unwrap_or_else(|e| Response::Error(crate::front::wire_error(&e))),
        None => Response::Error(crate::front::NO_FRONT.to_string()),
    }
}

/// The offsets of the `count`-element run starting at `offset`, refused
/// (before anything is allocated) when it is longer than [`MAX_RANGE`]
/// or would run past the last `u64` offset instead of wrapping to 0.
fn range_offsets(offset: u64, count: u32) -> Result<Vec<u64>, String> {
    // Even an all-absent answer allocates per requested slot (a run
    // longer than the cap could not fit a reply frame anyway).
    if count > MAX_RANGE {
        return Err(format!(
            "range of {count} elements exceeds the {MAX_RANGE}-element cap"
        ));
    }
    match offset.checked_add(u64::from(count)) {
        Some(end) => Ok((offset..end).collect()),
        None => Err(format!(
            "range of {count} elements from offset {offset} overflows the offset space"
        )),
    }
}

/// The runs of a `PutMany`, each over its own share of `bytes` — or why
/// the frame is refused. Everything a hostile or mismatched client can
/// get wrong is answered here, before the backend sees a byte: a table
/// and a byte count that disagree, an empty run, a run past the last
/// offset, more than [`MAX_RANGE`] cells, cells of a size the backend
/// does not store (a `FileDisk` would otherwise panic on them).
fn put_runs<'a>(
    table: &[(u64, u32)],
    cell_len: u32,
    bytes: &'a [u8],
    shared: &Shared,
) -> Result<Vec<WriteRun<'a>>, String> {
    let cell_len = cell_len as usize;
    if cell_len == 0 {
        return Err("cells of zero bytes".into());
    }
    if let Some(stored) = shared.backend.cell_len().filter(|&s| s != cell_len) {
        return Err(format!(
            "cells of {cell_len} bytes sent to a shard that stores {stored}-byte cells"
        ));
    }
    let mut runs = Vec::with_capacity(table.len());
    let (mut cells, mut rest) = (0u64, bytes);
    for &(start, count) in table {
        if count == 0 {
            return Err(format!("empty run at offset {start}"));
        }
        if start.checked_add(u64::from(count)).is_none() {
            return Err(format!(
                "run of {count} cells from offset {start} overflows the offset space"
            ));
        }
        cells += u64::from(count);
        if cells > u64::from(MAX_RANGE) {
            return Err(format!("more than the {MAX_RANGE}-cell cap in one write"));
        }
        // `count` ≤ 2^20 here, so the product cannot overflow.
        let Some((head, tail)) = rest.split_at_checked(count as usize * cell_len) else {
            return Err(format!("{} bytes are too few for the runs", bytes.len()));
        };
        runs.push(WriteRun {
            start,
            cell_len,
            bytes: head,
        });
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(format!(
            "{} bytes are {} too many for {cells} cells of {cell_len}",
            bytes.len(),
            rest.len()
        ));
    }
    Ok(runs)
}

/// The offsets a `Read`'s runs name, in run order — or why the frame
/// is refused, before anything is allocated for what it claims: an
/// empty run, a run past the last `u64` offset (never wrapped to 0),
/// more than [`MAX_RANGE`] cells in all.
fn read_offsets(runs: &[(u64, u32)]) -> Result<Vec<u64>, String> {
    let mut cells = 0u64;
    for &(start, count) in runs {
        if count == 0 {
            return Err(format!("empty run at offset {start}"));
        }
        if start.checked_add(u64::from(count) - 1).is_none() {
            return Err(format!(
                "run of {count} cells from offset {start} overflows the offset space"
            ));
        }
        // Even an all-absent answer allocates per requested slot (more
        // cells than the cap could not fit a reply frame anyway).
        cells += u64::from(count);
        if cells > u64::from(MAX_RANGE) {
            return Err(format!("more than the {MAX_RANGE}-cell cap in one read"));
        }
    }
    let mut offsets = Vec::with_capacity(cells as usize);
    for &(start, count) in runs {
        offsets.extend(start..=start + (u64::from(count) - 1));
    }
    Ok(offsets)
}

/// The integrity key as the wire carries it, `(k0, k1)`.
fn hash_key((k0, k1): (u64, u64)) -> HashKey {
    HashKey { k0, k1 }
}

fn handle(req: &Request, shared: &Shared) -> Response {
    match req {
        Request::Read { runs } => match read_offsets(runs) {
            Ok(offsets) => Response::Cells(shared.backend.read_many(&offsets)),
            Err(msg) => Response::Error(msg),
        },
        Request::PutMany {
            runs,
            cell_len,
            bytes,
        } => match put_runs(runs, *cell_len, bytes, shared) {
            Ok(runs) => {
                let _ = shared.backend.submit_write_many(&runs).wait();
                Response::Put
            }
            Err(msg) => Response::Error(msg),
        },
        Request::CombineRange(spec) => handle_combine(spec, shared),
        Request::ObjPut {
            tenant,
            object,
            bytes,
        } => obj_result(shared, |f| {
            f.put(tenant, object, bytes).map(|()| Response::ObjAck)
        }),
        Request::ObjGet {
            tenant,
            object,
            start,
            len,
        } => obj_result(shared, |f| {
            // `u64::MAX`, "to the end", means the same to the front door,
            // and a read no frame could carry is refused before it runs.
            f.read_pieces(tenant, object, *start, *len, MAX_OBJ_REPLY)
                .map(Response::ObjPieces)
        }),
        Request::ObjStat { tenant, object } => obj_result(shared, |f| {
            f.stat(tenant, object)
                .map(|s| Response::ObjStat { len: s.len })
        }),
        Request::ObjDelete { tenant, object } => obj_result(shared, |f| {
            f.delete(tenant, object).map(|()| Response::ObjAck)
        }),
        Request::Health => Response::Health {
            elements: shared.backend.len() as u64,
        },
        Request::Wipe => {
            shared.backend.wipe();
            Response::Wiped
        }
        Request::Stats => Response::Stats(shared.recorder.snapshot().flatten()),
    }
}

/// Serve one [`Request::CombineRange`]: multiply the local contiguous
/// run by the caller's coefficient matrix (footer-verified, SIMD
/// dot-product kernels), fetch and XOR-merge any peers' partial sums,
/// and seal each output region with a footer salted by `offset + lane`.
///
/// Sums are only returned when every *used* local element (one whose
/// coefficient column is not all-zero) verified and every peer
/// contributed; otherwise `regions` is empty and the per-element /
/// per-peer verdicts tell the rebuilder whom to exclude.
fn handle_combine(spec: &CombineSpec, shared: &Shared) -> Response {
    use ecfrm_sim::combine_status as cstat;

    let &CombineSpec {
        offset,
        count,
        outputs,
        key: wire_key,
        ..
    } = spec;
    let (coeffs, peers) = (&spec.coeffs, &spec.peers);

    // Bound the work before touching the backend (the hostile-vector
    // guard): run length, lane count, matrix shape, and fan-out caps.
    let offsets = match range_offsets(offset, count) {
        Ok(offsets) => offsets,
        Err(msg) => return Response::Error(msg),
    };
    if outputs == 0 || outputs > MAX_COMBINE_OUTPUTS {
        return Response::Error(format!(
            "{outputs} output lanes outside the 1..={MAX_COMBINE_OUTPUTS} cap"
        ));
    }
    if coeffs.len() as u64 != u64::from(outputs) * u64::from(count) {
        return Response::Error(format!(
            "coefficient matrix of {} bytes does not match {outputs}\u{d7}{count} elements",
            coeffs.len()
        ));
    }
    if peers.len() > MAX_COMBINE_PEERS {
        return Response::Error(format!(
            "{} peers exceeds the {MAX_COMBINE_PEERS}-peer fan-out cap",
            peers.len()
        ));
    }
    for p in peers {
        if p.count > MAX_RANGE {
            return Response::Error(format!(
                "peer range of {} elements exceeds the {MAX_RANGE}-element cap",
                p.count
            ));
        }
        if p.coeffs.len() as u64 != u64::from(outputs) * u64::from(p.count) {
            return Response::Error(format!(
                "peer coefficient matrix of {} bytes does not match {outputs}\u{d7}{} elements",
                p.coeffs.len(),
                p.count
            ));
        }
    }

    let key = hash_key(wire_key);
    let lanes = outputs as usize;
    let n = count as usize;

    // Ask every peer for its partial sums before the local read + math
    // runs: async submissions on the one connection per peer (leaf
    // requests — aggregation is one level deep), all sent before any
    // reply is awaited.
    let (tx, rx) = std::sync::mpsc::channel();
    for (i, p) in peers.iter().enumerate() {
        let tx = tx.clone();
        let done: Callback = Box::new(move |reply| {
            let _ = tx.send((i, reply));
        });
        let req = Request::CombineRange(CombineSpec {
            offset: p.offset,
            count: p.count,
            outputs,
            coeffs: p.coeffs.clone(),
            key: wire_key,
            peers: Vec::new(),
        });
        match peer_link(shared, &p.addr) {
            Some(link) => link.submit(&|w, id| write_request(w, id, &req), done),
            None => done(Err(NetError::Protocol(format!(
                "{} does not resolve",
                p.addr
            )))),
        }
    }
    drop(tx);

    // Local partial: verify every cell's footer at the data, before it
    // can contribute to a sum.
    let cells = shared.backend.read_many(&offsets);
    let mut local_status = vec![cstat::OK; n];
    let mut payloads: Vec<Option<Vec<u8>>> = Vec::with_capacity(n);
    for (i, cell) in cells.into_iter().enumerate() {
        match cell {
            None => {
                local_status[i] = cstat::MISSING;
                payloads.push(None);
            }
            Some(mut cell) => match verify_footer(&key, offsets[i], &cell) {
                Some(payload) => {
                    let len = payload.len();
                    cell.truncate(len);
                    payloads.push(Some(cell));
                }
                None => {
                    shared.metrics.combine_corrupt.inc();
                    local_status[i] = cstat::CORRUPT;
                    payloads.push(None);
                }
            },
        }
    }
    // An element only matters if some lane gives it a nonzero
    // coefficient; a hole in an unused column must not veto the sum.
    let used = |i: usize| (0..lanes).any(|r| coeffs[r * n + i] != 0);
    let local_ok = (0..n).all(|i| local_status[i] == cstat::OK || !used(i));
    let lens: Vec<usize> = payloads.iter().flatten().map(Vec::len).collect();
    if lens.windows(2).any(|w| w[0] != w[1]) {
        return Response::Error("element size mismatch across combined range".into());
    }

    // Every peer's reply arrives exactly once, so this ends.
    let mut peer_results = vec![(cstat::MISSING, Vec::new()); peers.len()];
    for (i, reply) in rx {
        peer_results[i] = judge_peer(&peers[i], reply, outputs, &key);
    }
    let peer_status: Vec<u8> = peer_results.iter().map(|(s, _)| *s).collect();

    let mut regions: Vec<Vec<u8>> = Vec::new();
    if local_ok && peer_status.iter().all(|&s| s == cstat::OK) {
        // Region length: from the local cells, else from a peer (a
        // pure-aggregator request may carry no local coefficients).
        let len = lens.first().copied().or_else(|| {
            peer_results
                .iter()
                .find_map(|(_, rs)| rs.first().map(Vec::len))
        });
        if let Some(len) = len {
            if peer_results
                .iter()
                .flat_map(|(_, rs)| rs.iter())
                .any(|r| r.len() != len)
            {
                return Response::Error("element size mismatch across combined peers".into());
            }
            let mut outs: Vec<Vec<u8>> = (0..lanes).map(|_| vec![0u8; len]).collect();
            // srcs = the valid cells; rows = their coefficient columns.
            let srcs: Vec<&[u8]> = payloads.iter().flatten().map(Vec::as_slice).collect();
            if !srcs.is_empty() {
                let rows: Vec<Vec<u8>> = (0..lanes)
                    .map(|r| {
                        (0..n)
                            .filter(|&i| payloads[i].is_some())
                            .map(|i| coeffs[r * n + i])
                            .collect()
                    })
                    .collect();
                let row_refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
                let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
                ecfrm_gf::region::dot_region_multi(&row_refs, &srcs, &mut out_refs);
            }
            for (_, peer_regions) in &peer_results {
                for (out, pr) in outs.iter_mut().zip(peer_regions) {
                    ecfrm_gf::region::xor_region(out, pr);
                }
            }
            for (r, out) in outs.iter_mut().enumerate() {
                ecfrm_integrity::append_footer(&key, offset + r as u64, out);
            }
            regions = outs;
        }
    }
    Response::Combined(CombineReply {
        regions,
        local_status,
        peer_status,
    })
}

/// The connection to combine peer `addr`, made on first use; `None`
/// when the address does not resolve.
fn peer_link(shared: &Shared, addr: &str) -> Option<Arc<Link>> {
    if let Some(link) = shared.links.lock().get(addr) {
        return Some(Arc::clone(link));
    }
    // Resolve outside the lock: a slow name lookup must not stall the
    // fetches to every other peer.
    let resolved = addr.to_socket_addrs().ok()?.next()?;
    let cfg = RemoteDiskConfig::builder()
        .connect_timeout(PEER_CONNECT_TIMEOUT)
        .request_timeout(PEER_IO_TIMEOUT)
        .build();
    let mut links = shared.links.lock();
    let link = links
        .entry(addr.to_string())
        .or_insert_with(|| Arc::new(Link::new(resolved, cfg)));
    Some(Arc::clone(link))
}

/// A combine peer's [`ecfrm_sim::combine_status`] from its reply, and
/// its regions, footer-verified and stripped (empty unless OK). A peer
/// not resolved, dialled or heard from is missing; a typed error is a
/// decline.
fn judge_peer(
    p: &CombinePeerSpec,
    reply: Result<Response, NetError>,
    outputs: u32,
    key: &HashKey,
) -> (u8, Vec<Vec<u8>>) {
    use ecfrm_sim::combine_status as cstat;

    let (regions, local_status) = match reply {
        Ok(Response::Combined(CombineReply {
            regions,
            local_status,
            ..
        })) => (regions, local_status),
        Err(NetError::Remote(_)) | Ok(_) => return (cstat::DECLINED, Vec::new()),
        Err(_) => return (cstat::MISSING, Vec::new()),
    };
    if regions.len() == outputs as usize {
        let mut stripped = Vec::with_capacity(regions.len());
        for (r, region) in regions.into_iter().enumerate() {
            match verify_footer(key, p.offset + r as u64, &region) {
                Some(payload) => stripped.push(payload.to_vec()),
                None => return (cstat::CORRUPT, Vec::new()),
            }
        }
        if stripped.windows(2).any(|w| w[0].len() != w[1].len()) {
            return (cstat::CORRUPT, Vec::new());
        }
        (cstat::OK, stripped)
    } else if local_status.contains(&cstat::CORRUPT) {
        (cstat::CORRUPT, Vec::new())
    } else if local_status.iter().any(|&s| s != cstat::OK) {
        (cstat::MISSING, Vec::new())
    } else {
        (cstat::DECLINED, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfrm_sim::{FaultKind, FaultyDisk, MemDisk};

    fn dial(server: &ShardServer) -> TcpStream {
        let s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s
    }

    /// One request and its reply, on a connection with nothing else in
    /// flight.
    fn rpc(stream: &mut TcpStream, req: &Request) -> Response {
        write_request(stream, 1, req).unwrap();
        let (id, resp) = crate::protocol::read_response(stream).unwrap();
        assert_eq!(id, 1, "the reply carries the request's id");
        resp
    }

    /// A read of one run.
    fn read(start: u64, count: u32) -> Request {
        Request::Read {
            runs: vec![(start, count)],
        }
    }

    /// A one-cell write.
    fn put(offset: u64, bytes: Vec<u8>) -> Request {
        Request::PutMany {
            runs: vec![(offset, 1)],
            cell_len: bytes.len() as u32,
            bytes: bytes.into(),
        }
    }

    #[test]
    fn serves_put_get_health() {
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        assert_eq!(rpc(&mut c, &put(3, vec![1, 2, 3])), Response::Put);
        assert_eq!(
            rpc(&mut c, &read(3, 1)),
            Response::Cells(vec![Some(vec![1, 2, 3])])
        );
        assert_eq!(rpc(&mut c, &read(99, 1)), Response::Cells(vec![None]));
        assert_eq!(
            rpc(&mut c, &Request::Health),
            Response::Health { elements: 1 }
        );
    }

    #[test]
    fn read_answers_runs_in_the_order_asked_holes_included() {
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        for o in [0u64, 2, 3, 5] {
            rpc(&mut c, &put(o, vec![o as u8; 2]));
        }
        // Unsorted and repeated runs come back the way they were asked.
        let scattered = Request::Read {
            runs: vec![(2, 1), (9, 1), (0, 1), (2, 1)],
        };
        assert_eq!(
            rpc(&mut c, &scattered),
            Response::Cells(vec![
                Some(vec![2, 2]),
                None,
                Some(vec![0, 0]),
                Some(vec![2, 2])
            ])
        );
        assert_eq!(
            rpc(&mut c, &read(2, 4)),
            Response::Cells(vec![
                Some(vec![2, 2]),
                Some(vec![3, 3]),
                None,
                Some(vec![5, 5])
            ])
        );
        assert_eq!(
            rpc(&mut c, &read(100, 2)),
            Response::Cells(vec![None, None])
        );
        // A footered cell, a hole and a cell rotted after sealing: the
        // shard judges none of them and ships each as stored.
        let key = HashKey::DEFAULT.derive(0x454C_454D, 0);
        let sealed = |off: u64| {
            let mut cell = vec![off as u8; 16];
            ecfrm_integrity::append_footer(&key, off, &mut cell);
            cell
        };
        let mut rotted = sealed(12);
        rotted[4] ^= 0x40;
        rpc(&mut c, &put(10, sealed(10)));
        rpc(&mut c, &put(12, rotted.clone()));
        assert_eq!(
            rpc(&mut c, &read(10, 3)),
            Response::Cells(vec![Some(sealed(10)), None, Some(rotted)])
        );
        let snap = server.recorder().snapshot();
        assert_eq!(snap.counters.get("serve.read").copied(), Some(4));
    }

    #[test]
    fn hostile_read_frames_get_typed_errors() {
        // A run past the last offset used to wrap in release builds and
        // read back elements 0 and 1 as its tail.
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        for o in 0..2u64 {
            rpc(&mut c, &put(o, vec![o as u8; 2]));
        }
        let cases = [
            (vec![(0, u32::MAX)], "cap"),
            // The cap is on the cells of all runs together.
            (vec![(0, MAX_RANGE), (1 << 40, 1)], "cap"),
            (vec![(u64::MAX - 1, 4)], "overflows"),
            (vec![(0, 1), (u64::MAX, 2)], "overflows"),
            (vec![(0, 1), (5, 0)], "empty run"),
        ];
        for (runs, needle) in cases {
            match rpc(&mut c, &Request::Read { runs }) {
                Response::Error(msg) => assert!(msg.contains(needle), "got: {msg}"),
                other => panic!("expected Response::Error, got {other:?}"),
            }
        }
        // Every offset there is can be asked for (and is absent), and
        // the connection survived the refusals.
        assert_eq!(
            rpc(&mut c, &read(u64::MAX - 3, 4)),
            Response::Cells(vec![None; 4])
        );
        assert_eq!(
            rpc(&mut c, &Request::Health),
            Response::Health { elements: 2 }
        );
    }

    #[test]
    fn fault_injection_controls_backend() {
        let disk = Arc::new(MemDisk::new());
        let server =
            ShardServer::spawn(Arc::clone(&disk) as Arc<dyn DiskBackend>, "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        rpc(&mut c, &put(0, vec![7]));
        assert_eq!(
            rpc(&mut c, &read(0, 1)),
            Response::Cells(vec![Some(vec![7])])
        );
        assert_eq!(rpc(&mut c, &Request::Wipe), Response::Wiped);
        assert_eq!(rpc(&mut c, &read(0, 1)), Response::Cells(vec![None]));
        assert!(disk.is_empty());
    }

    #[test]
    fn injected_delay_slows_reads() {
        let slow = FaultyDisk::wrap(Arc::new(MemDisk::new()));
        let server = ShardServer::spawn(slow.clone(), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        rpc(&mut c, &put(0, vec![1]));
        slow.arm(FaultKind::Delay(Duration::from_millis(80)), 0);
        let t0 = std::time::Instant::now();
        rpc(&mut c, &read(0, 1));
        assert!(t0.elapsed() >= Duration::from_millis(70));
        slow.clear();
        let t0 = std::time::Instant::now();
        rpc(&mut c, &read(0, 1));
        assert!(t0.elapsed() < Duration::from_millis(70));
    }

    /// A backend that panics on writes, like `FileDisk` does when the
    /// served element size disagrees with what the client sends.
    #[derive(Debug)]
    struct SizeCheckedDisk {
        inner: MemDisk,
        element_size: usize,
    }

    impl DiskBackend for SizeCheckedDisk {
        fn submit_read_many(&self, offsets: &[u64]) -> ecfrm_sim::IoHandle {
            self.inner.submit_read_many(offsets)
        }
        fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> ecfrm_sim::IoHandle {
            for run in runs {
                assert_eq!(run.cell_len, self.element_size, "element size mismatch");
            }
            self.inner.submit_write_many(runs)
        }
        fn wipe(&self) {
            self.inner.wipe();
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn backend_panic_becomes_wire_error_not_dead_connection() {
        let server = ShardServer::spawn(
            Arc::new(SizeCheckedDisk {
                inner: MemDisk::new(),
                element_size: 8,
            }),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut c = dial(&server);
        // Wrong-sized write: the handler panics, but the client must get
        // a structured error back instead of a dropped connection.
        match rpc(&mut c, &put(0, vec![1; 3])) {
            Response::Error(msg) => assert!(msg.contains("panicked"), "got: {msg}"),
            other => panic!("expected Response::Error, got {other:?}"),
        }
        // Same connection still serves well-formed requests.
        assert_eq!(rpc(&mut c, &put(0, vec![2; 8])), Response::Put);
        assert_eq!(
            rpc(&mut c, &read(0, 1)),
            Response::Cells(vec![Some(vec![2; 8])])
        );
    }

    #[test]
    fn hostile_put_many_frames_get_typed_errors_and_write_nothing() {
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        let frame = |runs: Vec<(u64, u32)>, cell_len: u32, bytes: usize| Request::PutMany {
            runs,
            cell_len,
            bytes: vec![7u8; bytes].into(),
        };
        let cases = [
            (frame(vec![(0, 2)], 8, 15), "too few"),
            (frame(vec![(0, 2)], 8, 17), "too many"),
            (frame(vec![(0, 2), (9, 1)], 8, 16), "too few"),
            (frame(vec![], 8, 8), "too many"),
            (frame(vec![(0, 1), (5, 0)], 8, 8), "empty run"),
            (frame(vec![(u64::MAX - 1, 2)], 8, 16), "overflows"),
            // The cap is on the cells of all runs together...
            (frame(vec![(0, MAX_RANGE), (1 << 40, 1)], 1, 1 << 20), "cap"),
            // ...and a run is refused on its table entry alone: what it
            // claims is never allocated for, or multiplied out.
            (frame(vec![(0, u32::MAX)], 1 << 31, 0), "cap"),
            (frame(vec![(0, 1)], 0, 0), "zero bytes"),
        ];
        for (req, needle) in cases {
            match rpc(&mut c, &req) {
                Response::Error(msg) => {
                    assert!(msg.contains(needle), "{req:?}: got {msg}");
                    assert!(!msg.contains("panicked"), "{msg}");
                }
                other => panic!("{req:?}: expected Response::Error, got {other:?}"),
            }
        }
        // Nothing reached the backend, and the connection survived.
        assert_eq!(
            rpc(&mut c, &Request::Health),
            Response::Health { elements: 0 }
        );
        // The last offset itself is writable.
        assert_eq!(rpc(&mut c, &put(u64::MAX - 1, vec![1; 8])), Response::Put);
    }

    #[test]
    fn wrong_cell_size_for_a_file_shard_is_refused_not_a_panic() {
        let path = std::env::temp_dir().join(format!("ecfrm-srv-cell-{}", std::process::id()));
        let disk = ecfrm_sim::FileDisk::create(&path, 8).unwrap();
        let on_uring = disk.io_backend() != "blocking";
        let server = ShardServer::spawn(Arc::new(disk), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        match rpc(&mut c, &put(0, vec![1; 3])) {
            Response::Error(msg) => {
                assert!(msg.contains("stores 8-byte cells"), "got: {msg}");
                assert!(!msg.contains("panicked"), "got: {msg}");
            }
            other => panic!("expected Response::Error, got {other:?}"),
        }
        assert_eq!(rpc(&mut c, &put(0, vec![2; 8])), Response::Put);
        assert_eq!(
            rpc(&mut c, &read(0, 1)),
            Response::Cells(vec![Some(vec![2; 8])])
        );
        // A shard node's `Stats` carries the I/O engine under its disk.
        let Response::Stats(pairs) = rpc(&mut c, &Request::Stats) else {
            panic!("expected Response::Stats");
        };
        let get = |name: &str| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert!(get("io.file_errors").is_some(), "{pairs:?}");
        assert!(
            !on_uring || get("io.uring_batches").unwrap() > 0,
            "{pairs:?}"
        );
        drop(server);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn kill_drops_connections_and_stops_accepting() {
        let mut server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let mut c = dial(&server);
        rpc(&mut c, &Request::Health);
        server.kill();
        assert!(server.is_dead());
        // In-flight connection dies: the next RPC fails (EOF/reset) or
        // times out rather than answering.
        write_request(&mut c, 2, &Request::Health).ok();
        assert!(crate::protocol::read_response(&mut c).is_err());
        // New connections are not served (a refused connect — the bind
        // already released — is also fine).
        if let Ok(mut s) = TcpStream::connect(addr) {
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            write_request(&mut s, 1, &Request::Health).ok();
            assert!(crate::protocol::read_response(&mut s).is_err());
        }
    }

    #[test]
    fn mux_frames_pipeline_on_one_connection() {
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        for o in 0..6u64 {
            rpc(&mut c, &put(o, vec![o as u8; 4]));
        }
        // Fire a burst of reads without waiting for replies, then
        // collect: every id must come back with its own element,
        // whatever order the workers finished in.
        for id in 0..6u64 {
            write_request(&mut c, 100 + id, &read(id, 1)).unwrap();
        }
        let mut seen = std::collections::BTreeMap::new();
        for _ in 0..6 {
            let (id, resp) = crate::protocol::read_response(&mut c).unwrap();
            seen.insert(id, resp);
        }
        for id in 0..6u64 {
            assert_eq!(
                seen.get(&(100 + id)),
                Some(&Response::Cells(vec![Some(vec![id as u8; 4])])),
                "id {id}"
            );
        }
        let snap = server.recorder().snapshot();
        assert_eq!(snap.counters.get("serve.read").copied(), Some(6));
        assert_eq!(snap.counters.get("serve.conns").copied(), Some(1));
        assert_eq!(
            rpc(&mut c, &Request::Health),
            Response::Health { elements: 6 }
        );
    }

    #[test]
    fn mux_requests_are_served_concurrently() {
        let slow = FaultyDisk::wrap(Arc::new(MemDisk::new()));
        let server = ShardServer::spawn(slow.clone(), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        rpc(&mut c, &put(0, vec![1]));
        slow.arm(FaultKind::Delay(Duration::from_millis(80)), 0);
        // Four delayed reads in flight at once: if the workers overlap
        // them they finish in ~1 delay, not 4 back-to-back.
        let t0 = std::time::Instant::now();
        for id in 0..4u64 {
            write_request(&mut c, id, &read(0, 1)).unwrap();
        }
        for _ in 0..4 {
            let (_, resp) = crate::protocol::read_response(&mut c).unwrap();
            assert_eq!(resp, Response::Cells(vec![Some(vec![1])]));
        }
        assert!(
            t0.elapsed() < Duration::from_millis(240),
            "4×80 ms requests took {:?} — the workers are not overlapping them",
            t0.elapsed()
        );
    }

    /// A slow backend holds a worker, never the connection: a frame
    /// sent after the slow one is answered before it.
    #[test]
    fn a_later_health_frame_overtakes_a_read_of_a_delayed_backend() {
        let slow = FaultyDisk::wrap(Arc::new(MemDisk::new()));
        let server = ShardServer::spawn(slow.clone(), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        rpc(&mut c, &put(0, vec![1]));
        slow.arm(FaultKind::Delay(Duration::from_millis(80)), 0);
        let t0 = std::time::Instant::now();
        for (id, req) in [(1, read(0, 1)), (2, Request::Health)] {
            write_request(&mut c, id, &req).unwrap();
        }
        let mut next = || crate::protocol::read_response(&mut c).unwrap();
        assert_eq!(next(), (2, Response::Health { elements: 1 }));
        assert!(
            t0.elapsed() < Duration::from_millis(70),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(next(), (1, Response::Cells(vec![Some(vec![1])])));
        assert!(
            t0.elapsed() >= Duration::from_millis(70),
            "{:?}",
            t0.elapsed()
        );
    }

    /// Seed a server's disk with footered cells at `offsets` under `key`
    /// (payload = `[off; 16]`), via the wire like a real client.
    fn seed_cells(c: &mut TcpStream, key: &HashKey, offsets: &[u64]) {
        for &off in offsets {
            let mut cell = vec![off as u8; 16];
            ecfrm_integrity::append_footer(key, off, &mut cell);
            rpc(c, &put(off, cell));
        }
    }

    /// GF dot product of `[off; 16]` payload cells under `coeffs`, the
    /// oracle the combine handler's SIMD path is checked against.
    fn expected_sum(coeffs: &[(u8, u64)]) -> Vec<u8> {
        let mut out = vec![0u8; 16];
        for &(c, off) in coeffs {
            ecfrm_gf::region::mul_add_region(c, &[off as u8; 16], &mut out);
        }
        out
    }

    #[test]
    fn combine_range_sums_verified_local_elements() {
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        let key = HashKey::DEFAULT.derive(0xC0_4B1E, 0);
        seed_cells(&mut c, &key, &[0, 1, 2]);
        // Two output lanes over three local elements.
        let resp = rpc(
            &mut c,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: 3,
                outputs: 2,
                coeffs: vec![1, 2, 3, 0, 5, 7],
                key: (key.k0, key.k1),
                peers: vec![],
            }),
        );
        let Response::Combined(CombineReply {
            regions,
            local_status,
            peer_status,
        }) = resp
        else {
            panic!("expected Combined, got {resp:?}");
        };
        assert_eq!(local_status, vec![0, 0, 0]);
        assert!(peer_status.is_empty());
        assert_eq!(regions.len(), 2);
        for (r, want) in [
            expected_sum(&[(1, 0), (2, 1), (3, 2)]),
            expected_sum(&[(5, 1), (7, 2)]),
        ]
        .iter()
        .enumerate()
        {
            // Each region is sealed with a footer salted by offset+lane.
            let payload = verify_footer(&key, r as u64, &regions[r])
                .unwrap_or_else(|| panic!("lane {r} footer"));
            assert_eq!(payload, &want[..], "lane {r}");
        }
        let snap = server.recorder().snapshot();
        assert_eq!(snap.counters.get("serve.combine").copied(), Some(1));
    }

    #[test]
    fn combine_range_vetoes_on_used_corrupt_cell_but_ignores_unused_holes() {
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        let key = HashKey::DEFAULT.derive(0xC0_4B1E, 1);
        seed_cells(&mut c, &key, &[0, 2]);
        // Corrupt offset 2 after sealing.
        let mut bad = vec![2u8; 16];
        ecfrm_integrity::append_footer(&key, 2, &mut bad);
        bad[5] ^= 0x10;
        rpc(&mut c, &put(2, bad));
        // Lane uses the corrupt cell: no sums, verdicts localize it
        // (offset 1 is a hole).
        let resp = rpc(
            &mut c,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: 3,
                outputs: 1,
                coeffs: vec![1, 1, 1],
                key: (key.k0, key.k1),
                peers: vec![],
            }),
        );
        assert_eq!(
            resp,
            Response::Combined(CombineReply {
                regions: vec![],
                local_status: vec![0, 1, 2],
                peer_status: vec![],
            })
        );
        // Zero coefficients on the hole and the corrupt cell: the sum
        // goes through, built from the one clean element.
        let resp = rpc(
            &mut c,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: 3,
                outputs: 1,
                coeffs: vec![9, 0, 0],
                key: (key.k0, key.k1),
                peers: vec![],
            }),
        );
        let Response::Combined(CombineReply { regions, .. }) = resp else {
            panic!("expected Combined, got {resp:?}");
        };
        assert_eq!(
            verify_footer(&key, 0, &regions[0]).unwrap(),
            &expected_sum(&[(9, 0)])[..]
        );
        let snap = server.recorder().snapshot();
        assert_eq!(snap.counters.get("serve.combine_corrupt").copied(), Some(2));
    }

    #[test]
    fn combine_range_caps_hostile_vectors() {
        // Satellite guard: a hostile request is answered with a
        // structured error before any allocation or backend touch —
        // and the connection stays serviceable.
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut c = dial(&server);
        let err = |resp: Response| match resp {
            Response::Error(msg) => msg,
            other => panic!("expected Error, got {other:?}"),
        };
        let msg = err(rpc(
            &mut c,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: MAX_RANGE + 1,
                outputs: 1,
                coeffs: vec![],
                key: (0, 0),
                peers: vec![],
            }),
        ));
        assert!(msg.contains("cap"), "{msg}");
        let msg = err(rpc(
            &mut c,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: 1,
                outputs: 0,
                coeffs: vec![],
                key: (0, 0),
                peers: vec![],
            }),
        ));
        assert!(msg.contains("output lanes"), "{msg}");
        // A coefficient matrix that lies about its shape must not drive
        // allocations: 3 claimed elements, 1 byte of coefficients.
        let msg = err(rpc(
            &mut c,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: 3,
                outputs: 1,
                coeffs: vec![1],
                key: (0, 0),
                peers: vec![],
            }),
        ));
        assert!(msg.contains("does not match"), "{msg}");
        let peer = CombinePeerSpec {
            addr: "127.0.0.1:1".into(),
            offset: 0,
            count: 1,
            coeffs: vec![0],
        };
        let msg = err(rpc(
            &mut c,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: 1,
                outputs: 1,
                coeffs: vec![1],
                key: (0, 0),
                peers: vec![peer; MAX_COMBINE_PEERS + 1],
            }),
        ));
        assert!(msg.contains("fan-out cap"), "{msg}");
        // The connection survived every rejection.
        assert_eq!(
            rpc(&mut c, &Request::Health),
            Response::Health { elements: 0 }
        );
    }

    #[test]
    fn combine_range_merges_peer_partial_sums() {
        let key = HashKey::DEFAULT.derive(0xC0_4B1E, 2);
        let root = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let helper = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let mut rc = dial(&root);
        let mut hc = dial(&helper);
        seed_cells(&mut rc, &key, &[0, 1]);
        seed_cells(&mut hc, &key, &[0, 1]);
        let resp = rpc(
            &mut rc,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: 2,
                outputs: 2,
                coeffs: vec![1, 2, 3, 4],
                key: (key.k0, key.k1),
                peers: vec![CombinePeerSpec {
                    addr: helper.addr().to_string(),
                    offset: 0,
                    count: 2,
                    coeffs: vec![5, 6, 7, 8],
                }],
            }),
        );
        let Response::Combined(CombineReply {
            regions,
            local_status,
            peer_status,
        }) = resp
        else {
            panic!("expected Combined, got {resp:?}");
        };
        assert_eq!(local_status, vec![0, 0]);
        assert_eq!(peer_status, vec![0]);
        assert_eq!(regions.len(), 2);
        // Lane r = root's partial XOR the helper's partial: GF addition
        // is XOR, so merging near the data equals decoding centrally.
        for (r, want) in [
            expected_sum(&[(1, 0), (2, 1), (5, 0), (6, 1)]),
            expected_sum(&[(3, 0), (4, 1), (7, 0), (8, 1)]),
        ]
        .iter()
        .enumerate()
        {
            let payload = verify_footer(&key, r as u64, &regions[r]).unwrap();
            assert_eq!(payload, &want[..], "lane {r}");
        }
        // An unreachable peer: verdict reported, no sums fabricated.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let resp = rpc(
            &mut rc,
            &Request::CombineRange(CombineSpec {
                offset: 0,
                count: 2,
                outputs: 1,
                coeffs: vec![1, 1],
                key: (key.k0, key.k1),
                peers: vec![CombinePeerSpec {
                    addr: dead.to_string(),
                    offset: 0,
                    count: 2,
                    coeffs: vec![1, 1],
                }],
            }),
        );
        assert_eq!(
            resp,
            Response::Combined(CombineReply {
                regions: vec![],
                local_status: vec![0, 0],
                peer_status: vec![1],
            })
        );
    }

    #[test]
    fn concurrent_connections_are_served() {
        let server = Arc::new(ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap());
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut c = dial(&server);
                    rpc(&mut c, &put(i, vec![i as u8; 16]));
                    assert_eq!(
                        rpc(&mut c, &read(i, 1)),
                        Response::Cells(vec![Some(vec![i as u8; 16])])
                    );
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut c = dial(&server);
        assert_eq!(
            rpc(&mut c, &Request::Health),
            Response::Health { elements: 8 }
        );
    }
}
