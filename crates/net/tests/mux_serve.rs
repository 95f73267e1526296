//! Who answers a frame: the connection thread, or its worker pool.
//!
//! A read on a backend that submits without blocking is submitted by the
//! connection thread, which also answers it when the result is already
//! there; everything that has to wait goes to the per-connection pool,
//! and so does every `CombineRange` — at most `MUX_WORKERS / 2` of them
//! in service at once. `serve.inline` counts the frames the connection
//! thread answered itself. These tests drive a raw socket, so every
//! frame on the wire is theirs.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_net::protocol::{read_response, write_request};
use ecfrm_net::{RemoteDisk, RemoteDiskConfig, Request, Response, ShardServer};
use ecfrm_sim::{
    io_pair, CombineSpec, DiskBackend, FaultKind, FaultyDisk, FileDisk, FileIoConfig, IoCompleter,
    IoHandle, MemDisk, WriteRun,
};
use ecfrm_util::Mutex;

const ES: usize = 64;

fn cell(offset: u64) -> Vec<u8> {
    (0..ES).map(|i| (offset as usize * 7 + i) as u8).collect()
}

fn dial(server: &ShardServer) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

fn send(c: &mut TcpStream, id: u64, req: Request) {
    write_request(c, id, &req).unwrap();
}

fn recv(c: &mut TcpStream) -> (u64, Response) {
    read_response(c).unwrap()
}

/// A read of the given runs.
fn read(runs: &[(u64, u32)]) -> Request {
    Request::Read {
        runs: runs.to_vec(),
    }
}

/// The reply to a read holding `cell(o)` for each `Some(o)`.
fn cells(offsets: &[Option<u64>]) -> Response {
    Response::Cells(offsets.iter().map(|o| o.map(cell)).collect())
}

fn rpc(c: &mut TcpStream, req: &Request) -> Response {
    write_request(c, 0, req).unwrap();
    read_response(c).unwrap().1
}

fn counter(server: &ShardServer, name: &str) -> u64 {
    let snap = server.recorder().snapshot();
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Wait, up to five seconds, until `cond` holds.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A file-backed shard holding `cell(o)` at offsets `0..n`.
fn file_shard(tag: &str, n: u64, direct: bool) -> (ShardServer, Arc<FileDisk>, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("ecfrm-muxserve-{tag}-{}", std::process::id()));
    let io = FileIoConfig {
        direct,
        ..FileIoConfig::default()
    };
    let disk = Arc::new(FileDisk::create_with(&path, ES, io).unwrap());
    for o in 0..n {
        disk.write(o, cell(o));
    }
    let backend = Arc::clone(&disk) as Arc<dyn DiskBackend>;
    let server = ShardServer::spawn(backend, "127.0.0.1:0").unwrap();
    (server, disk, path)
}

#[test]
fn hot_file_shard_answers_pipelined_mux_reads_without_its_pool() {
    const N: u64 = 1000;
    let (server, disk, path) = file_shard("hot", 256, false);
    let mut c = dial(&server);
    // Every shape a batch takes: one cell, one run, scattered.
    for id in 1..=N {
        let o = id % 250;
        let req = match id % 3 {
            0 => read(&[(o, 1)]),
            1 => read(&[(o, 3)]),
            _ => read(&[(o + 2, 1), (999, 1), (o, 1)]),
        };
        send(&mut c, id, req);
    }
    let mut seen = vec![false; N as usize + 1];
    for _ in 0..N {
        let (id, resp) = recv(&mut c);
        assert!(
            !std::mem::replace(&mut seen[id as usize], true),
            "id {id} twice"
        );
        let o = id % 250;
        let want = match id % 3 {
            0 => cells(&[Some(o)]),
            1 => cells(&[Some(o), Some(o + 1), Some(o + 2)]),
            _ => cells(&[Some(o + 2), None, Some(o)]),
        };
        assert_eq!(resp, want, "id {id}");
    }
    assert_eq!(counter(&server, "serve.read"), N);
    if disk.io_backend() == "uring" {
        // Buffered uring disk, pages hot from the writes: nothing was
        // handed off, so the pool was never spawned.
        assert_eq!(counter(&server, "serve.inline"), N);
    } else {
        // Blocking disk (no io_uring here, or forced): the pool as ever.
        assert_eq!(counter(&server, "serve.inline"), 0);
    }
    drop(server);
    let _ = std::fs::remove_file(path);
}

#[test]
fn mux_writes_are_served_by_the_connection_thread_of_an_async_backend() {
    const N: u64 = 200;
    let put = |o: u64| Request::PutMany {
        runs: vec![(o * 4, 3)],
        cell_len: ES as u32,
        bytes: [cell(o), cell(o + 1), cell(o + 2)].concat().into(),
    };
    let (server, disk, path) = file_shard("put", 0, false);
    let mut c = dial(&server);
    for id in 0..N {
        send(&mut c, id, put(id));
    }
    for _ in 0..N {
        assert!(matches!(recv(&mut c), (_, Response::Put)));
    }
    assert_eq!(disk.len() as u64, 3 * N);
    assert_eq!(disk.read(4 * 7 + 2), Some(cell(9)));
    assert_eq!(counter(&server, "serve.put_many"), N);
    let inline = counter(&server, "serve.inline");
    if disk.io_backend() == "uring" {
        // A buffered write waits for nothing: no hand-off, no pool.
        assert_eq!(inline, N);
    } else {
        assert_eq!(inline, 0, "a blocking disk serves from the pool");
    }
    // The same disk behind a `FaultyDisk` (how a test makes a backend
    // slow) does not report `submits_async()`: its write takes the
    // pool, by the one rule there is.
    let wrapped = ShardServer::spawn(FaultyDisk::wrap(disk.clone()), "127.0.0.1:0").unwrap();
    let mut c = dial(&wrapped);
    send(&mut c, N, put(N));
    assert!(matches!(recv(&mut c), (_, Response::Put)));
    assert_eq!(counter(&wrapped, "serve.inline"), 0);
    assert_eq!(counter(&wrapped, "serve.put_many"), 1);
    assert_eq!(disk.len() as u64, 3 * N + 3);
    drop((server, wrapped));
    let _ = std::fs::remove_file(path);
}

/// A backend that submits asynchronously and keeps reads that touch
/// offset 0 pending until the test releases them.
#[derive(Debug, Default)]
struct GatedDisk {
    inner: MemDisk,
    held: Mutex<Vec<(IoCompleter, Vec<u64>)>>,
}

impl GatedDisk {
    fn held(&self) -> usize {
        self.held.lock().len()
    }

    fn release(&self) {
        for (completer, offsets) in self.held.lock().drain(..) {
            completer.complete(self.inner.read_many(&offsets));
        }
    }

    /// Complete the oldest held read.
    fn release_one(&self) {
        let (completer, offsets) = self.held.lock().remove(0);
        completer.complete(self.inner.read_many(&offsets));
    }
}

impl DiskBackend for GatedDisk {
    fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
        if !offsets.contains(&0) {
            return self.inner.submit_read_many(offsets);
        }
        let (handle, completer) = io_pair(offsets.len());
        self.held.lock().push((completer, offsets.to_vec()));
        handle
    }
    fn submits_async(&self) -> bool {
        true
    }
    fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
        self.inner.submit_write_many(runs)
    }
    fn wipe(&self) {
        self.inner.wipe();
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

fn gated_disk() -> Arc<GatedDisk> {
    let disk = Arc::new(GatedDisk::default());
    for o in 0..4 {
        disk.write(o, cell(o));
    }
    disk
}

fn gated_shard() -> (ShardServer, Arc<GatedDisk>) {
    let disk = gated_disk();
    let backend = Arc::clone(&disk) as Arc<dyn DiskBackend>;
    (ShardServer::spawn(backend, "127.0.0.1:0").unwrap(), disk)
}

#[test]
fn a_pending_read_and_a_delayed_read_overlap_on_one_connection() {
    // A `FaultyDisk` serves where it is called and so does not report
    // `submits_async()`: every read below is the pool's, start to
    // finish.
    let disk = gated_disk();
    let slow = FaultyDisk::wrap(disk.clone());
    let server = ShardServer::spawn(slow.clone(), "127.0.0.1:0").unwrap();
    let mut c = dial(&server);
    // Id 1 stays pending in the backend (the cold page / O_DIRECT
    // case): a worker waits on it.
    send(&mut c, 1, read(&[(0, 1)]));
    eventually("id 1 never reached the backend", || disk.held() == 1);
    slow.arm(FaultKind::Delay(Duration::from_millis(80)), 0);
    // Ids 2 and 3 are straggler reads. Neither waits for id 1 or for
    // the other.
    let t0 = Instant::now();
    send(&mut c, 2, read(&[(1, 1)]));
    send(&mut c, 3, read(&[(2, 1)]));
    let mut got = [recv(&mut c), recv(&mut c)];
    got.sort_by_key(|(id, _)| *id);
    assert_eq!(got[0], (2, cells(&[Some(1)])));
    assert_eq!(got[1], (3, cells(&[Some(2)])));
    assert!(
        t0.elapsed() >= Duration::from_millis(70),
        "the delay applied"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(150),
        "two 80 ms reads took {:?} — the pool is not overlapping them",
        t0.elapsed()
    );
    disk.release();
    assert_eq!(recv(&mut c), (1, cells(&[Some(0)])));
    // Only the inline-served frames count as inline: none of the three.
    assert_eq!(counter(&server, "serve.inline"), 0);
    assert_eq!(counter(&server, "serve.read"), 3);
}

/// The combine rule: a connection's combines hold at most
/// `MUX_WORKERS / 2` = 2 of its 4 workers. With two combines parked in
/// the backend, a read that needs a worker is still answered at once,
/// and a third combine waits — off the workers — until one of the two
/// finishes.
#[test]
fn combines_hold_at_most_half_the_workers_and_a_read_is_served_beside_them() {
    let disk = gated_disk();
    // Wrapped, so reads need a worker too (see above).
    let server = ShardServer::spawn(FaultyDisk::wrap(disk.clone()), "127.0.0.1:0").unwrap();
    let mut c = dial(&server);
    let combine = Request::CombineRange(CombineSpec {
        offset: 0,
        count: 1,
        outputs: 1,
        coeffs: vec![1],
        key: (0, 0),
        peers: vec![],
    });
    // One at a time, so the oldest held read is combine 1's.
    send(&mut c, 1, combine.clone());
    eventually("one combine in service", || disk.held() == 1);
    send(&mut c, 2, combine.clone());
    eventually("two combines in service", || disk.held() == 2);
    send(&mut c, 3, combine);
    send(&mut c, 4, read(&[(1, 1)]));
    assert_eq!(recv(&mut c), (4, cells(&[Some(1)])));
    // Had the third combine been queued, a free worker would have taken
    // it before the read behind it: give it every chance to show up.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(disk.held(), 2, "the third combine waits for a turn");
    disk.release_one();
    let (first, resp) = recv(&mut c);
    assert!(matches!(resp, Response::Combined(_)), "{resp:?}");
    eventually("the third combine takes the freed turn", || {
        disk.held() == 2
    });
    disk.release();
    let mut rest = [recv(&mut c).0, recv(&mut c).0];
    rest.sort_unstable();
    assert_eq!((first, rest), (1, [2, 3]));
    assert_eq!(counter(&server, "serve.combine"), 3);
}

#[test]
fn o_direct_reads_are_handed_off_and_answered() {
    let (server, _, path) = file_shard("direct", 64, true);
    let mut c = dial(&server);
    for id in 0..32u64 {
        send(&mut c, id, read(&[(id, 1)]));
    }
    let mut seen = [false; 32];
    for _ in 0..32 {
        let (id, resp) = recv(&mut c);
        assert!(
            !std::mem::replace(&mut seen[id as usize], true),
            "id {id} twice"
        );
        assert_eq!(resp, cells(&[Some(id)]), "id {id}");
    }
    // Who answered each read is not pinned here: a `uring-direct`
    // completion can land between the submit and the connection
    // thread's look, and that read is then rightly answered inline. The
    // gated-disk tests in this file pin the hand-off itself.
    assert_eq!(counter(&server, "serve.read"), 32);
    drop(server);
    let _ = std::fs::remove_file(path);
}

#[test]
fn kill_with_pending_hand_offs_joins_and_drops_every_handle() {
    let (mut server, disk) = gated_shard();
    let mut c = dial(&server);
    // More pending reads than the pool has workers: some wait in a
    // worker, the rest in the queue.
    for id in 0..8u64 {
        send(&mut c, id, read(&[(0, 1)]));
    }
    // `Health` is the connection thread's: answered with every worker
    // busy.
    assert_eq!(
        rpc(&mut c, &Request::Health),
        Response::Health { elements: 4 }
    );
    assert_eq!(disk.held(), 8);
    let t0 = Instant::now();
    server.kill(); // joins the connection thread and its workers
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "kill waited {:?} on reads that never complete",
        t0.elapsed()
    );
    assert!(read_response(&mut c).is_err(), "connection dropped");
    // Every handle was dropped: completing now reaches no one, quietly.
    disk.release();
    assert_eq!(disk.held(), 0);
}

/// The demux thread sweeps deadlines on its idle tick; a connection
/// whose replies never leave it idle must sweep between them, or a
/// request whose reply never comes would outlive its deadline for as
/// long as the traffic lasts.
#[test]
fn an_unanswered_request_times_out_while_other_replies_keep_the_connection_busy() {
    let (server, gate) = gated_shard();
    let timeout = Duration::from_millis(100);
    let cfg = RemoteDiskConfig::builder().request_timeout(timeout).build();
    let disk = RemoteDisk::new(server.addr(), cfg);
    let t0 = Instant::now();
    let stuck = disk.submit_read_many(&[0]); // held by the gate, for good
    let done = AtomicBool::new(false);
    let waited = std::thread::scope(|s| {
        // Back-to-back reads on the same connection: a reply lands every
        // few tens of microseconds, far inside the 10 ms idle tick.
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                assert_eq!(disk.read(1), Some(cell(1)));
            }
        });
        let cells = stuck.wait();
        let waited = t0.elapsed();
        done.store(true, Ordering::Release);
        assert_eq!(cells, vec![None], "timed out, so absent");
        waited
    });
    assert!(waited >= timeout, "timed out after {waited:?}");
    assert!(
        waited < timeout + Duration::from_millis(200),
        "a {timeout:?} deadline took {waited:?} on a busy connection"
    );
    let stats = disk.net_stats().unwrap();
    assert_eq!((stats.timeouts, stats.failed_requests), (1, 1), "{stats:?}");
    assert_eq!(stats.conns_discarded, 0, "the connection stays up");
    assert_eq!(gate.held(), 1);
}
