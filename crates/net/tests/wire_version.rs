//! The one compatibility promise the wire makes: a peer that speaks
//! another protocol version is told so, in one typed frame, and nothing
//! else about the node changes — no latch, no hang, no outage face.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_net::protocol::{read_response, version_mismatch, write_request, MAGIC, VERSION};
use ecfrm_net::{NetError, RemoteDisk, RemoteDiskConfig, Request, Response, ShardServer};
use ecfrm_sim::{DiskBackend, MemDisk};

/// A `Health` frame of version 1 or 2: good magic, the old version
/// byte, and the ten-byte header both of them had.
fn old_health_frame(version: u8) -> Vec<u8> {
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&[version, 4, 0, 0, 0, 0]); // version, opcode, empty payload
    frame
}

/// An old peer's frame gets one typed refusal naming both versions, the
/// connection is closed, and the next client is served.
fn refused_then_served(version: u8) {
    let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
    let mut old = TcpStream::connect(server.addr()).unwrap();
    old.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    old.write_all(&old_health_frame(version)).unwrap();
    // One frame that says why (in this node's version: the old peer's
    // own version check then names ours)...
    match read_response(&mut old).unwrap() {
        (_, Response::Error(msg)) => {
            assert_eq!(msg, version_mismatch(version));
            let want = format!("peer speaks {version}, this node speaks 3");
            assert!(msg.contains(&want), "{msg}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // ...and then the connection is closed, not left to time out.
    let mut rest = Vec::new();
    assert_eq!(
        old.read_to_end(&mut rest).unwrap(),
        0,
        "closed after the refusal"
    );

    // The next v3 client is served as if nothing happened.
    let mut new = TcpStream::connect(server.addr()).unwrap();
    new.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    write_request(&mut new, 5, &Request::Health).unwrap();
    assert_eq!(
        read_response(&mut new).unwrap(),
        (5, Response::Health { elements: 0 })
    );
    let disk = RemoteDisk::new(
        server.addr(),
        RemoteDiskConfig::builder().low_latency().build(),
    );
    disk.write(3, vec![7; 8]);
    assert_eq!(disk.read(3), Some(vec![7; 8]));
}

#[test]
fn a_v1_frame_is_refused_in_one_typed_frame_and_the_server_carries_on() {
    refused_then_served(1);
}

/// Version 2's header is eight bytes shorter than version 3's: the
/// server judges the version byte before it waits for the rest.
#[test]
fn a_v2_frame_is_refused_exactly_as_a_v1_frame_is() {
    refused_then_served(2);
}

/// A peer that answers every frame it is sent, whatever it was, with a
/// version-1 `Health` reply.
fn spawn_v1_peer() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                let mut header = [0u8; 10];
                while stream.read_exact(&mut header).is_ok() {
                    let len = u32::from_le_bytes(header[6..10].try_into().unwrap());
                    let mut payload = vec![0u8; len as usize];
                    if stream.read_exact(&mut payload).is_err() {
                        return;
                    }
                    let mut reply = MAGIC.to_vec();
                    reply.extend_from_slice(&[1, 132, 8, 0, 0, 0]);
                    reply.extend_from_slice(&0u64.to_le_bytes());
                    if stream.write_all(&reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn a_v3_client_names_a_v1_peers_version_and_its_reads_complete_absent() {
    assert_eq!(VERSION, 3);
    let disk = RemoteDisk::new(
        spawn_v1_peer(),
        RemoteDiskConfig::builder().low_latency().build(),
    );
    // The blocking ops report the version, not a lost connection.
    for _ in 0..2 {
        match disk.health() {
            Err(NetError::Protocol(msg)) => assert_eq!(msg, version_mismatch(1)),
            other => panic!("expected a protocol error naming the version, got {other:?}"),
        }
    }
    // Reads and writes complete — absent, counted — well inside the
    // request deadline, every time: nothing latched after the first.
    let t0 = Instant::now();
    for i in 1..=3u64 {
        assert_eq!(disk.read_many(&[0, 1, 5]), vec![None; 3]);
        disk.write(0, vec![1; 4]);
        let stats = disk.net_stats().unwrap();
        // Two failed health probes above, then a read and a write a round.
        assert_eq!(stats.failed_requests, 2 + 2 * i, "{stats:?}");
        assert_eq!(stats.timeouts, 0, "refused by version, not by deadline");
    }
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
}
