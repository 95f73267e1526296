//! The object front door over real TCP: opcodes 11–15 end-to-end,
//! typed errors across the wire, and what the client does when the
//! wire lets it down — every failure a typed error that changes nothing
//! about the next call, and no write ever sent twice.

use std::sync::Arc;

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_net::protocol::{read_request, write_response, MAX_PAYLOAD};
use ecfrm_net::{FrontClient, RemoteDiskConfig, Request, Response, ShardServer};
use ecfrm_sim::MemDisk;
use ecfrm_store::{FrontConfig, FrontDoor, ObjectStore, QosClass, StoreError, TenantSpec};

const ELEMENT: usize = 512;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 137 + 11) % 256) as u8).collect()
}

fn scheme() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(4, 2)))
        .layout(LayoutKind::EcFrm)
        .build()
}

fn local_front() -> Arc<FrontDoor> {
    let store = Arc::new(ObjectStore::new(scheme(), ELEMENT));
    FrontDoor::new(store, FrontConfig::default())
}

fn client_cfg() -> RemoteDiskConfig {
    RemoteDiskConfig::builder().build()
}

/// Full object lifecycle against a front node over real sockets:
/// create / write (multi-extent) / stat / ranged + whole reads /
/// delete, with bytes compared against a reference copy.
#[test]
fn remote_front_round_trips_every_op() {
    let front = local_front();
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());

    let a = payload(10_000);
    let b = payload(3_000);
    client.create("web", "hero.png").unwrap();
    client.write("web", "hero.png", &a).unwrap();
    client.write("web", "hero.png", &b).unwrap();

    let stat = client.stat("web", "hero.png").unwrap();
    assert_eq!(stat.len, 13_000);
    assert_eq!(stat.extents, 2);
    assert_eq!(stat.version, 3); // create=1, +1 per write

    let mut want = a.clone();
    want.extend_from_slice(&b);
    assert_eq!(client.read("web", "hero.png").unwrap(), want);
    // A range crossing the extent seam.
    assert_eq!(
        client.read_range("web", "hero.png", 9_990, 20).unwrap(),
        &want[9_990..10_010]
    );

    client.delete("web", "hero.png").unwrap();
    assert!(matches!(
        client.stat("web", "hero.png"),
        Err(StoreError::NotFound(_))
    ));
    server.kill();
}

/// Store errors cross the wire re-typed, not stringified: the client
/// can match on the same variants it would get from a local front.
#[test]
fn wire_errors_arrive_typed() {
    let front = local_front();
    front.register_tenant(TenantSpec::new("bulk", QosClass::Bulk).rate(1)); // 1 B/s: everything throttles
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());

    assert!(matches!(
        client.read("web", "missing"),
        Err(StoreError::NotFound(n)) if n == "web/missing"
    ));
    client.create("web", "dup").unwrap();
    assert!(matches!(
        client.create("web", "dup"),
        Err(StoreError::AlreadyExists(_))
    ));
    client.write("web", "dup", &payload(100)).unwrap();
    assert!(matches!(
        client.read_range("web", "dup", 90, 20),
        Err(StoreError::RangeOutOfBounds { len: 100, .. })
    ));
    // The bulk tenant's first byte overdraws its 1 B/s bucket for far
    // longer than the 500 ms default deadline.
    client.create("bulk", "slow").unwrap();
    client.write("bulk", "slow", &payload(4096)).unwrap();
    assert!(matches!(
        client.read("bulk", "slow"),
        Err(StoreError::Throttled(_))
    ));
    server.kill();
}

/// A reply of more pieces than one `writev` takes (`IOV_MAX`, 1 024):
/// 2 049 elements of 64 bytes, read whole, once cold and once warm.
#[test]
fn a_reply_of_more_pieces_than_one_writev_takes_arrives_whole() {
    let store = Arc::new(ObjectStore::new(scheme(), 64));
    let front = FrontDoor::new(store, FrontConfig::default());
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());
    let data = payload(2048 * 64 + 40);
    client.put("t", "o", &data).unwrap();
    for cache in [(0, 2049), (2049, 2049)] {
        assert_eq!(client.read("t", "o").unwrap(), data);
        assert_eq!(front.cache_stats(), cache, "(hits, misses)");
    }
    server.kill();
}

/// An object read no reply frame can carry is refused with a typed
/// error on the namespace lookup alone — no admission charge, no cache
/// lookup, no fetch — in one attempt, and the connection it was asked
/// on serves the next read. (It used to be read whole, dropped by the
/// frame writer with the connection, and read again by the client's
/// retry of an idempotent op.)
#[test]
fn a_read_over_the_frame_cap_is_a_typed_error_in_one_attempt() {
    const HALF: usize = MAX_PAYLOAD as usize / 2;
    let store = Arc::new(ObjectStore::new(scheme(), 1 << 20));
    let front = FrontDoor::new(store, FrontConfig::default());
    let bytes = payload(HALF + 1);
    front.put("t", "big", &bytes[..HALF]).unwrap();
    front.write("t", "big", &bytes).unwrap(); // two extents, cap + 1 bytes
    front.put("t", "small", b"hello").unwrap();
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());
    assert_eq!(client.stat("t", "big").unwrap().len, MAX_PAYLOAD as u64 + 1);

    let count = |name: &str| -> u64 {
        let (server, node) = (
            server.recorder().snapshot(),
            front.store().recorder().snapshot(),
        );
        server
            .counters
            .get(name)
            .or(node.counters.get(name))
            .copied()
            .unwrap_or(0)
    };
    let (asked, admitted, cache) = (count("serve.obj"), count("admit.ok"), front.cache_stats());
    assert!(matches!(
        client.read("t", "big"),
        Err(StoreError::TooLarge(m)) if m.starts_with("t/big")
    ));
    assert_eq!(count("serve.obj"), asked + 1, "asked once: not retried");
    assert_eq!(count("admit.ok"), admitted, "not charged");
    assert_eq!(front.cache_stats(), cache, "not looked up");

    assert_eq!(client.read("t", "small").unwrap(), b"hello");
    let seam = HALF as u64 - 10;
    assert_eq!(
        client.read_range("t", "big", seam, 20).unwrap(),
        [&bytes[HALF - 10..HALF], &bytes[..10]].concat()
    );
    server.kill();
}

/// A server with no front door attached answers a typed error, and a
/// dead one is a transport error; both are `StoreError::Net`, and the
/// same client goes back to the wire on its next call.
#[test]
fn a_front_less_or_dead_server_is_a_typed_net_error() {
    let mut server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());
    for _ in 0..2 {
        match client.create("web", "obj") {
            Err(StoreError::Net(msg)) => assert!(msg.starts_with("no_front"), "{msg}"),
            other => panic!("expected a typed no_front error, got {other:?}"),
        }
    }
    let served = |server: &ShardServer| {
        let snap = server.recorder().snapshot();
        snap.counters.get("serve.obj").copied()
    };
    assert_eq!(served(&server), Some(2), "the second call asked again");
    server.kill();

    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }; // listener dropped: nothing is home
    let client = FrontClient::new(addr, client_cfg());
    assert!(matches!(
        client.create("web", "obj"),
        Err(StoreError::Net(_))
    ));
}

/// A server that answers `ObjStat` promptly but sits on `ObjGet` for
/// `get_delay` — a live node that merely blows the client's request
/// deadline (queued admission, slow disk, big transfer); the late reply
/// goes out when it is ready, whatever was answered meanwhile. Also
/// counts `ObjWrite` frames it *receives* and, when `drop_writes` is
/// set, kills the connection after reading one instead of answering —
/// the executed-but-response-lost case. Returns its address, the write
/// count and the count of connections it accepted.
fn spawn_slow_server(
    get_delay: std::time::Duration,
    drop_writes: bool,
) -> (
    std::net::SocketAddr,
    Arc<std::sync::atomic::AtomicUsize>,
    Arc<std::sync::atomic::AtomicUsize>,
) {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (writes, accepted) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let (counter, conns) = (Arc::clone(&writes), Arc::clone(&accepted));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            conns.fetch_add(1, Ordering::SeqCst);
            let writes = Arc::clone(&counter);
            let writer = Arc::new(std::sync::Mutex::new(stream.try_clone().unwrap()));
            let reply = move |id, resp: &Response| {
                let mut w = writer.lock().unwrap();
                write_response(&mut *w, id, resp).is_ok()
            };
            std::thread::spawn(move || loop {
                let Ok((id, req)) = read_request(&mut stream) else {
                    return;
                };
                let resp = match req {
                    Request::ObjCreate { .. } => Response::ObjAck,
                    Request::ObjStat { .. } => Response::ObjStat {
                        len: 0,
                        version: 1,
                        extents: 0,
                    },
                    Request::ObjGet { .. } => {
                        let reply = reply.clone();
                        std::thread::spawn(move || {
                            std::thread::sleep(get_delay);
                            reply(id, &Response::ObjData(vec![7; 8]))
                        });
                        continue;
                    }
                    Request::ObjWrite { .. } => {
                        writes.fetch_add(1, Ordering::SeqCst);
                        if drop_writes {
                            return; // connection dies with the response unsent
                        }
                        Response::ObjAck
                    }
                    _ => Response::Error("unexpected op".into()),
                };
                if !reply(id, &resp) {
                    return;
                }
            });
        }
    });
    (addr, writes, accepted)
}

/// A request that merely exceeds the client timeout on a live server
/// is a transient `Net` error; its connection stays up, and the very
/// next (fast) op is answered on it while the late reply is dropped.
#[test]
fn slow_server_times_out_and_the_next_op_is_served() {
    let (addr, _, accepted) = spawn_slow_server(std::time::Duration::from_millis(300), false);
    let cfg = RemoteDiskConfig::builder()
        .request_timeout(std::time::Duration::from_millis(100))
        .build();
    let client = FrontClient::new(addr, cfg);

    assert!(matches!(
        client.read_range("web", "obj", 0, 8),
        Err(StoreError::Net(_))
    ));
    // The next op answers within the deadline, on the same connection.
    assert_eq!(client.stat("web", "obj").unwrap().len, 0);
    let snap = client.recorder().snapshot();
    assert_eq!(snap.counters.get("front.remote").copied(), Some(1));
    // The late reply arrives and is dropped; the connection serves on.
    std::thread::sleep(std::time::Duration::from_millis(300));
    assert_eq!(client.stat("web", "obj").unwrap().version, 1);
    let stats = client.net_stats();
    assert_eq!((stats.timeouts, stats.conns_discarded), (1, 0), "{stats:?}");
    assert_eq!(accepted.load(std::sync::atomic::Ordering::SeqCst), 1);
}

/// A lost `ObjWrite` *response* must not trigger a blind retry: the
/// server may have appended the extent with only the answer lost, and
/// a replay would append it twice. The server here counts the write
/// frames it receives — exactly one may arrive.
#[test]
fn lost_write_response_is_not_retried() {
    let (addr, writes, _) = spawn_slow_server(std::time::Duration::ZERO, true);
    let client = FrontClient::new(addr, RemoteDiskConfig::builder().build());

    client.create("web", "obj").unwrap(); // dials the connection
    let r = client.write("web", "obj", &payload(100));
    assert!(matches!(r, Err(StoreError::Net(_))), "{r:?}");
    assert_eq!(
        writes.load(std::sync::atomic::Ordering::SeqCst),
        1,
        "the write frame must cross the wire exactly once"
    );
}

/// One retry rule for every op: a frame that left is never sent again.
/// The server here hangs up after every response, so the op after the
/// first goes out on a connection its server has left: it fails typed
/// `Net`, having reached the server at most once (here: not at all),
/// and the op after it dials fresh and is served.
#[test]
fn the_first_op_after_a_hang_up_fails_typed_and_the_next_dials_fresh() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let served = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&served);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let count = Arc::clone(&count);
            std::thread::spawn(move || {
                // One request, one answer, hang up.
                if let Ok((id, req)) = read_request(&mut stream) {
                    count.fetch_add(1, Ordering::SeqCst);
                    let resp = match req {
                        Request::ObjCreate { .. } => Response::ObjAck,
                        Request::ObjStat { .. } => Response::ObjStat {
                            len: 42,
                            version: 1,
                            extents: 0,
                        },
                        _ => Response::Error("unexpected op".into()),
                    };
                    let _ = write_response(&mut stream, id, &resp);
                }
            });
        }
    });

    let client = FrontClient::new(addr, RemoteDiskConfig::builder().build());
    client.create("web", "obj").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30)); // let the server hang up
    assert!(matches!(client.stat("web", "obj"), Err(StoreError::Net(_))));
    assert_eq!(served.load(Ordering::SeqCst), 1, "the stat never arrived");
    assert_eq!(client.stat("web", "obj").unwrap().len, 42);
    assert_eq!(served.load(Ordering::SeqCst), 2);
    assert_eq!(client.net_stats().reconnects, 1);
}
