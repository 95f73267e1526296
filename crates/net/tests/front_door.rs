//! The object front door over real TCP: opcodes 13–15 and 18 end-to-end,
//! typed errors across the wire, and what the client does when the
//! wire lets it down — every failure a typed error that changes nothing
//! about the next call, and no put ever sent twice.

use std::sync::Arc;

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_net::protocol::{read_request, write_response, MAX_PAYLOAD};
use ecfrm_net::{FrontClient, RemoteDiskConfig, Request, Response, ShardServer};
use ecfrm_obs::NetStats;
use ecfrm_sim::MemDisk;
use ecfrm_store::{
    FrontConfig, FrontDoor, ObjectStat, ObjectStore, QosClass, StoreError, TenantSpec,
};

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

/// `name`'s count in the front node's registry — the server's `serve.*`
/// or its front door's `admit.*` — or 0.
fn count(server: &ShardServer, front: &FrontDoor, name: &str) -> u64 {
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
}

/// Full object lifecycle against a front node over real sockets:
/// put / stat / ranged + whole reads / delete, with bytes compared
/// against a reference copy. A put is one frame and one admission.
#[test]
fn remote_front_round_trips_every_op() {
    let front = local_front();
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());

    let a = payload(10_000);
    let (asked, admitted) = (
        count(&server, &front, "serve.obj"),
        count(&server, &front, "admit.ok"),
    );
    client.put("web", "hero.png", &a).unwrap();
    assert_eq!(count(&server, &front, "serve.obj"), asked + 1, "one frame");
    assert_eq!(count(&server, &front, "admit.ok"), admitted + 1);

    assert_eq!(
        client.stat("web", "hero.png").unwrap(),
        ObjectStat { len: 10_000 }
    );
    // An empty object is a put of no bytes.
    client.put("web", "empty", &[]).unwrap();
    assert_eq!(client.stat("web", "empty").unwrap(), ObjectStat { len: 0 });
    assert!(client.read("web", "empty").unwrap().is_empty());

    assert_eq!(client.read("web", "hero.png").unwrap(), a);
    assert_eq!(
        client.read_range("web", "hero.png", 9_990, 10).unwrap(),
        &a[9_990..]
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
    client.put("web", "dup", &payload(100)).unwrap();
    assert!(matches!(
        client.put("web", "dup", &payload(10)),
        Err(StoreError::AlreadyExists(_))
    ));
    assert!(matches!(
        client.read_range("web", "dup", 90, 20),
        Err(StoreError::RangeOutOfBounds { len: 100, .. })
    ));
    // The bulk tenant's first byte overdraws its 1 B/s bucket for far
    // longer than the 500 ms default deadline.
    client.put("bulk", "slow", &payload(4096)).unwrap();
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
/// error on the namespace lookup alone — nothing charged to the
/// tenant, no cache lookup, no fetch — in one attempt, and the
/// connection it was asked on serves the next read. (It used to be
/// read whole, dropped by the frame writer with the connection, and
/// read again by the client's retry of an idempotent op.)
#[test]
fn a_read_over_the_frame_cap_is_a_typed_error_in_one_attempt() {
    let store = Arc::new(ObjectStore::new(scheme(), 1 << 20));
    let front = FrontDoor::new(store, FrontConfig::default());
    // In process a put has no cap: one byte more than a frame carries.
    let bytes = payload(MAX_PAYLOAD as usize + 1);
    front.put("t", "big", &bytes).unwrap();
    front.put("t", "small", b"hello").unwrap();
    // Seal the tail now: a read that reaches into it seals it first, and
    // a 4 MiB stripe sealed inside a debug build's 1 s request deadline
    // is what this test would otherwise time.
    front.store().flush();
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());
    assert_eq!(client.stat("t", "big").unwrap().len, MAX_PAYLOAD as u64 + 1);

    let n = |name: &str| count(&server, &front, name);
    let (asked, admitted, cache) = (n("serve.obj"), n("admit.ok"), front.cache_stats());
    assert!(matches!(
        client.read("t", "big"),
        Err(StoreError::TooLarge(m)) if m.starts_with("t/big")
    ));
    assert_eq!(n("serve.obj"), asked + 1, "asked once: not retried");
    assert_eq!(n("admit.ok"), admitted, "not charged");
    assert_eq!(front.cache_stats(), cache, "not looked up");

    assert_eq!(client.read("t", "small").unwrap(), b"hello");
    let half = MAX_PAYLOAD as usize / 2;
    assert_eq!(
        client.read_range("t", "big", half as u64 - 10, 20).unwrap(),
        &bytes[half - 10..half + 10]
    );
    server.kill();
}

/// A put no request frame can carry is refused before a byte of it is
/// sent: a typed error, in one attempt, and the connection it was meant
/// for carries the next put. Nothing reached the front node,
/// so nothing is left behind. (It used to discard the connection, send
/// the frame again on a fresh dial and — a remote put then being a
/// create and a write — leave an empty object.)
#[test]
fn a_write_over_the_frame_cap_is_a_typed_error_in_one_attempt() {
    let front = local_front();
    let mut server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let client = FrontClient::new(server.addr(), client_cfg());
    client.put("t", "small", b"hello").unwrap(); // dials the connection

    let n = |name: &str| count(&server, &front, name);
    let (asked, admitted, conns) = (n("serve.obj"), n("admit.ok"), n("serve.conns"));
    let net = client.net_stats();
    let big = vec![7u8; MAX_PAYLOAD as usize];
    let refused = client.put("t", "big", &big);
    assert!(
        matches!(&refused, Err(StoreError::TooLarge(m)) if m.contains("cap")),
        "{refused:?}"
    );
    assert_eq!(n("serve.obj"), asked, "the frame never left the client");
    assert_eq!(n("admit.ok"), admitted);
    // No retry, no redial, no discard: the refusal is one failed
    // request, as any error reply is, and nothing else.
    let failed_requests = net.failed_requests + 1;
    assert_eq!(
        client.net_stats(),
        NetStats {
            failed_requests,
            ..net
        }
    );

    assert!(matches!(
        client.stat("t", "big"),
        Err(StoreError::NotFound(_))
    ));
    assert_eq!(client.read("t", "small").unwrap(), b"hello");
    client.put("t", "next", b"x").unwrap();
    assert_eq!(n("serve.conns"), conns, "every op rode the same connection");
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
        match client.put("web", "obj", b"x") {
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
        client.put("web", "obj", b"x"),
        Err(StoreError::Net(_))
    ));
}

/// A server that answers `ObjStat` promptly but sits on `ObjGet` for
/// `get_delay` — a live node that merely blows the client's request
/// deadline (queued admission, slow disk, big transfer); the late reply
/// goes out when it is ready, whatever was answered meanwhile. Also
/// counts the `ObjPut` frames it *receives* and, when `drop_puts` is
/// set, kills the connection after reading one instead of answering —
/// the executed-but-response-lost case. Returns its address, the put
/// count and the count of connections it accepted.
fn spawn_slow_server(
    get_delay: std::time::Duration,
    drop_puts: bool,
) -> (
    std::net::SocketAddr,
    Arc<std::sync::atomic::AtomicUsize>,
    Arc<std::sync::atomic::AtomicUsize>,
) {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (puts, accepted) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let (counter, conns) = (Arc::clone(&puts), Arc::clone(&accepted));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            conns.fetch_add(1, Ordering::SeqCst);
            let puts = Arc::clone(&counter);
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
                    Request::ObjStat { .. } => Response::ObjStat { len: 0 },
                    Request::ObjGet { .. } => {
                        let reply = reply.clone();
                        std::thread::spawn(move || {
                            std::thread::sleep(get_delay);
                            reply(id, &Response::ObjData(vec![7; 8]))
                        });
                        continue;
                    }
                    Request::ObjPut { .. } => {
                        puts.fetch_add(1, Ordering::SeqCst);
                        if drop_puts {
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
    (addr, puts, accepted)
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
    assert_eq!(client.stat("web", "obj").unwrap().len, 0);
    let stats = client.net_stats();
    assert_eq!((stats.timeouts, stats.conns_discarded), (1, 0), "{stats:?}");
    assert_eq!(accepted.load(std::sync::atomic::Ordering::SeqCst), 1);
}

/// A lost `ObjPut` *response* must not trigger a blind retry: the
/// server may have made the object with only the answer lost, and a
/// replay would be answered `AlreadyExists` for the put that landed.
/// The server here counts the put frames it receives — exactly one may
/// arrive per call.
#[test]
fn lost_write_response_is_not_retried() {
    let (addr, puts, _) = spawn_slow_server(std::time::Duration::ZERO, true);
    let client = FrontClient::new(addr, RemoteDiskConfig::builder().build());

    client.stat("web", "obj").unwrap(); // dials the connection
    for (object, sent) in [("obj", 1), ("other", 2)] {
        // The second on a fresh dial.
        let r = client.put("web", object, &payload(100));
        assert!(matches!(r, Err(StoreError::Net(_))), "{r:?}");
        assert_eq!(
            puts.load(std::sync::atomic::Ordering::SeqCst),
            sent,
            "the put frame must cross the wire exactly once"
        );
    }
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
                        Request::ObjPut { .. } => Response::ObjAck,
                        Request::ObjStat { .. } => Response::ObjStat { len: 42 },
                        _ => Response::Error("unexpected op".into()),
                    };
                    let _ = write_response(&mut stream, id, &resp);
                }
            });
        }
    });

    let client = FrontClient::new(addr, RemoteDiskConfig::builder().build());
    client.put("web", "obj", b"x").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30)); // let the server hang up
    assert!(matches!(client.stat("web", "obj"), Err(StoreError::Net(_))));
    assert_eq!(served.load(Ordering::SeqCst), 1, "the stat never arrived");
    assert_eq!(client.stat("web", "obj").unwrap().len, 42);
    assert_eq!(served.load(Ordering::SeqCst), 2);
    assert_eq!(client.net_stats().reconnects, 1);
}
