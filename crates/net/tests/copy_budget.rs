//! The copy budget of a read and of a put, as an exact count of
//! allocations.
//!
//! Bytes are written from the buffers that hold them and read into the
//! buffers that keep them, so on each hop the only buffers as big as
//! the bytes are the ones that have to exist: the front door's reply
//! and the client's result for an object read, one `Vec` per cell on
//! each side of a shard read, the received frame for a put. A payload
//! joined for sending, a frame zero-filled for receiving or a cell
//! copied out of one would each show here as one more. DESIGN §14 ("Who copies a cell on its way to
//! the tenant") states the counts this test backs.
//!
//! The allocator counts for the whole process, so the tests in this
//! file take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_integrity::FOOTER_LEN;
use ecfrm_net::protocol::{read_response, MAGIC, VERSION};
use ecfrm_net::{Cluster, FrontClient, RemoteDisk, RemoteDiskConfig, ShardServer};
use ecfrm_sim::{uring, DiskBackend, FileDisk, FileIoConfig, MemDisk, ThreadedArray};
use ecfrm_store::{FrontConfig, FrontDoor, ObjectStore};

/// Counts allocations of at least `FLOOR` bytes while `ARMED`.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static FLOOR: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) && size >= FLOOR.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static TURN: Mutex<()> = Mutex::new(());

/// Run `f`; `(allocations of at least `floor` bytes, their bytes)` made
/// meanwhile, by any thread.
fn counted<T>(floor: usize, f: impl FnOnce() -> T) -> (T, usize, usize) {
    FLOOR.store(floor, Ordering::Relaxed);
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        out,
        COUNT.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn pattern(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + seed) as u8).collect()
}

fn rs63() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build()
}

const LEN: usize = 256 * 1024;

/// A front node over RS(6,3), a client of it, and the 256 KiB object
/// `t/hot` they share, cached whole on a connection that is up: the
/// client has read it twice, the first read filling the cache and the
/// second finding every element there. The server must outlive the
/// reads.
fn warm_256k_object() -> (Arc<FrontDoor>, ShardServer, FrontClient, Vec<u8>) {
    let store = Arc::new(ObjectStore::new(rs63(), 4096));
    let front = FrontDoor::new(store, FrontConfig::builder().cache_bytes(4 * LEN).build());
    let server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), RemoteDiskConfig::default());
    let data = pattern(LEN, 3);
    client.put("t", "hot", &data).unwrap();
    for _ in 0..2 {
        assert_eq!(client.read("t", "hot").unwrap(), data);
    }
    (front, server, client, data)
}

#[test]
fn a_warm_256k_object_read_allocates_one_body_the_clients() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (front, _server, client, data) = warm_256k_object();
    let (hits, _) = front.cache_stats();

    // Anything a quarter of the body or more is a buffer of its bytes.
    // In process, the one `Vec` returned is one.
    let (got, in_process, _) = counted(LEN / 4, || front.read_range("t", "hot", 0, LEN as u64));
    assert_eq!(got.unwrap(), data);
    assert_eq!(in_process, 1, "the buffer returned, once");

    // Over the wire the reply leaves from the cached elements: the only
    // body in the process is the one the client returns.
    let (got, both, bytes) = counted(LEN / 4, || client.read_range("t", "hot", 0, u64::MAX));
    assert_eq!(got.unwrap(), data);
    assert_eq!(both, 1, "the buffer the client returns, and no reply");
    assert_eq!(bytes, LEN, "exactly the body: reserved, not grown");
    assert_eq!(
        front.cache_stats().0,
        hits + 2 * (LEN / 4096) as u64,
        "warm"
    );
}

/// The same warm read, every allocation counted, whatever its size. In
/// process: the cache's run of hits, the pieces and the buffer returned
/// — the one namespace record is copied out, not cloned. Over the wire
/// the rest is both ends' frames, names and bookkeeping.
#[test]
fn a_warm_256k_object_read_makes_three_allocations_in_process_and_eighteen_remote() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (front, _server, client, data) = warm_256k_object();

    let (got, in_process, _) = counted(1, || front.read_range("t", "hot", 0, LEN as u64));
    assert_eq!(got.unwrap(), data);
    assert_eq!(in_process, 3, "hits, pieces, the buffer returned");

    let (got, remote, _) = counted(1, || client.read_range("t", "hot", 0, u64::MAX));
    assert_eq!(got.unwrap(), data);
    assert_eq!(remote, 18);
}

/// The write side of the same hop: a warm 256 KiB put. The client sends
/// from the caller's buffer and the front node appends from the frame it
/// received, so the one buffer of a quarter of the body or more is that
/// frame — the body behind 15 bytes of names and length. In process,
/// there is none.
#[test]
fn a_warm_256k_put_allocates_one_body_the_received_frame() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let store = Arc::new(ObjectStore::new(rs63(), 4096));
    let front = FrontDoor::new(store, FrontConfig::default());
    let server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), RemoteDiskConfig::default());
    let data = pattern(LEN, 5);
    // Dials, and grows the store's pending tail to what a put needs.
    for name in ["w0", "w1"] {
        client.put("t", name, &data).unwrap();
        front.put("u", name, &data).unwrap();
    }

    let (put, in_process, _) = counted(LEN / 4, || front.put("u", "p1", &data));
    put.unwrap();
    assert_eq!(in_process, 0, "appended from the caller's buffer");

    // `[4]["t"][4]["p1"][4]`: 15 bytes ahead of the body.
    let (put, both, bytes) = counted(LEN / 4, || client.put("t", "p1", &data));
    put.unwrap();
    assert_eq!(both, 1, "the frame the front node received, and no payload");
    assert_eq!(bytes, LEN + 15, "exactly the frame: reserved, not grown");
    assert_eq!(front.read("t", "p1").unwrap(), data);
}

#[test]
fn an_eight_cell_read_reply_allocates_one_vec_per_cell_on_the_client() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    const CELL: usize = 4104;
    let backend = Arc::new(MemDisk::new());
    for o in 0..8u64 {
        backend.write(o, pattern(CELL, o as usize));
    }
    let server =
        ShardServer::spawn(Arc::clone(&backend) as Arc<dyn DiskBackend>, "127.0.0.1:0").unwrap();
    let disk = RemoteDisk::new(server.addr(), RemoteDiskConfig::default());
    let offsets: Vec<u64> = (0..8).collect();
    let want = backend.read_many(&offsets);
    assert_eq!(disk.read_many(&offsets), want, "dials, and warms both ends");

    // What the serving side allocates is its backend's answer: a
    // `MemDisk` hands out a copy of each cell.
    let (_, serving, _) = counted(CELL / 2, || backend.read_many(&offsets));
    assert_eq!(serving, 8);

    let (got, both, bytes) = counted(CELL / 2, || disk.read_many(&offsets));
    assert_eq!(got, want);
    assert_eq!(both - serving, 8, "one `Vec` per cell on the client");
    assert_eq!(bytes, 16 * CELL, "nothing frame-sized on either side");
}

/// A cold 32 KiB object read on the `zipf_get` shape: RS(6,3) over nine
/// `MemDisk` shards, eight one-cell shard reads. What is as big as half a
/// cell is a cell or the body: each shard's `MemDisk` copy, the cell the
/// store's client reads it into (kept by the cache, and sent from there),
/// and the client's result — no reply `Vec` at the front node.
#[test]
fn a_cold_32k_object_read_allocates_the_cells_and_the_result() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    const LEN: usize = 32 * 1024;
    const CELL: usize = 4096 + FOOTER_LEN;
    let cluster = Cluster::spawn_with(9, &RemoteDiskConfig::default()).unwrap();
    let array = ThreadedArray::from_backends(cluster.backends());
    let store = Arc::new(ObjectStore::with_array(rs63(), 4096, array));
    let front = FrontDoor::new(store, FrontConfig::builder().cache_bytes(1 << 20).build());
    let server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), RemoteDiskConfig::default());
    let (warm, cold) = (pattern(LEN, 1), pattern(LEN, 2));
    client.put("t", "warm", &warm).unwrap();
    client.put("t", "cold", &cold).unwrap();
    front.store().flush();
    // Every connection is up: the seal wrote to all nine shards, and
    // this read warms the paths the counted one takes.
    assert_eq!(client.read("t", "warm").unwrap(), warm);

    let (got, allocs, bytes) = counted(CELL / 2, || client.read("t", "cold"));
    assert_eq!(got.unwrap(), cold);
    assert_eq!(front.cache_stats().1, 16, "both reads missed every element");
    assert_eq!(
        allocs,
        8 + 8 + 1,
        "8 shard copies, 8 cells received, 1 result"
    );
    assert_eq!(bytes, 16 * CELL + LEN);
}

/// An eight-cell `Read` of a page-cache-warm `FileDisk` shard, answered
/// on the connection thread through `preadv2(RWF_NOWAIT)`: the run lands
/// in a pooled buffer and `Run::scatter` copies each cell out of it —
/// one cell-sized `Vec` per cell at the shard (ROADMAP 7(e), pinned
/// before it is changed), one per cell on the client.
#[test]
fn an_eight_cell_inline_uring_read_allocates_one_cell_per_cell_on_each_side() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    const CELL: usize = 4104;
    let path = std::env::temp_dir().join(format!("ecfrm-copy-budget-{}", std::process::id()));
    let config = FileIoConfig {
        direct: false,
        ..FileIoConfig::uring(8)
    };
    let Ok(backend) = FileDisk::create_with(&path, CELL, config) else {
        eprintln!("no io_uring on this kernel: nothing to pin");
        return;
    };
    let backend = Arc::new(backend);
    for o in 0..8u64 {
        backend.write(o, pattern(CELL, o as usize));
    }
    let server =
        ShardServer::spawn(Arc::clone(&backend) as Arc<dyn DiskBackend>, "127.0.0.1:0").unwrap();
    let disk = RemoteDisk::new(server.addr(), RemoteDiskConfig::default());
    let offsets: Vec<u64> = (0..8).collect();
    let want: Vec<_> = (0..8).map(|o| Some(pattern(CELL, o))).collect();
    // Dials, fills the run-buffer pool and the page cache.
    assert_eq!(disk.read_many(&offsets), want);

    let inline = uring::snapshot().inline_runs;
    let (got, both, bytes) = counted(CELL / 2, || disk.read_many(&offsets));
    assert_eq!(got, want);
    assert_eq!(uring::snapshot().inline_runs, inline + 1, "one run, inline");
    assert_eq!(
        both,
        8 + 8,
        "`scatter`'s copy of each cell, and the client's"
    );
    assert_eq!(bytes, 16 * CELL, "nothing run- or frame-sized");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_length_is_not_allocated_for_before_the_frame_covers_it() {
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // An `ObjData` claiming 48 MiB — under the frame cap — in a frame
    // of 14 bytes, and a cell doing the same inside a `Cells`.
    let lie = (48u32 << 20).to_le_bytes();
    let mut cells = 1u32.to_le_bytes().to_vec();
    cells.push(1);
    cells.extend_from_slice(&lie);
    for (opcode, payload) in [(140u8, lie.to_vec()), (145, cells)] {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&[VERSION, opcode]);
        frame.extend_from_slice(&1u64.to_le_bytes()); // id
        frame.extend_from_slice(&(payload.len() as u32 + 10).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&[0; 10]);
        let (got, big, _) = counted(1 << 20, || read_response(&mut frame.as_slice()));
        assert!(got.is_err(), "opcode {opcode}");
        assert_eq!(big, 0, "opcode {opcode}: allocated for the claim");
    }
}
