//! The wire is the v3 frame, and the by-value receive path refuses what
//! lies about itself.
//!
//! Frames are written from the buffers that hold their bytes and read
//! into the buffers that keep them. The first half pins every request
//! and response against golden frames built here independently — the
//! 18-byte header by hand, the payload by the encoder every frame used
//! to go through (small fields and bulk bytes joined into one payload),
//! restated here with its own opcode table. The second half feeds the
//! reader frames whose inner lengths disagree with the frame around
//! them — blocking and polling — and a client a server that sends them.

use std::io::{IoSlice, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ecfrm_net::protocol::{
    read_request, read_response, read_response_polling, write_request, write_response, Polled,
    HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use ecfrm_net::{
    CheckedElement, Fault, FrontClient, NetError, RemoteDisk, RemoteDiskConfig, Request, Response,
};
use ecfrm_sim::{CombinePeerSpec, CombineReply, CombineSpec, DiskBackend};
use ecfrm_store::{Piece, StoreError};

fn u32le(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn u64le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn string(out: &mut Vec<u8>, s: &str) {
    u32le(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// `payload` in the frame a peer would send it in, tagged `id`:
/// `[magic 4][version 1][opcode 1][id u64][len u32]`, then the payload.
fn frame(id: u64, opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&[VERSION, opcode]);
    u64le(&mut out, id);
    u32le(&mut out, payload.len());
    out.extend_from_slice(payload);
    out
}

/// The joined-payload encoder responses went through before they were
/// written from their own buffers: `(opcode, payload)`.
fn old_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut out = Vec::new();
    let opcode = match resp {
        Response::Put => 130,
        Response::FaultInjected => 133,
        Response::ObjAck => 139,
        Response::Cells(items) => {
            u32le(&mut out, items.len());
            for item in items {
                out.push(match item {
                    CheckedElement::Missing => 0,
                    CheckedElement::Valid(_) => 1,
                    CheckedElement::Corrupt => 2,
                });
            }
            for item in items {
                if let CheckedElement::Valid(v) = item {
                    u32le(&mut out, v.len());
                    out.extend_from_slice(v);
                }
            }
            145
        }
        Response::Combined(reply) => {
            u32le(&mut out, reply.regions.len());
            for r in &reply.regions {
                u32le(&mut out, r.len());
                out.extend_from_slice(r);
            }
            u32le(&mut out, reply.local_status.len());
            out.extend_from_slice(&reply.local_status);
            u32le(&mut out, reply.peer_status.len());
            out.extend_from_slice(&reply.peer_status);
            138
        }
        Response::ObjData(bytes) => {
            u32le(&mut out, bytes.len());
            out.extend_from_slice(bytes);
            140
        }
        // The same reply, its pieces joined.
        Response::ObjPieces(pieces) => {
            let bytes: Vec<&[u8]> = pieces.iter().map(|p| &p[..]).collect();
            return old_response(&Response::ObjData(bytes.concat()));
        }
        Response::ObjStat {
            len,
            version,
            extents,
        } => {
            u64le(&mut out, *len);
            u64le(&mut out, *version);
            u32le(&mut out, *extents as usize);
            141
        }
        Response::Health { elements } => {
            u64le(&mut out, *elements);
            132
        }
        Response::Stats(pairs) => {
            u32le(&mut out, pairs.len());
            for (name, value) in pairs {
                string(&mut out, name);
                u64le(&mut out, *value);
            }
            134
        }
        Response::Error(msg) => {
            out.extend_from_slice(msg.as_bytes());
            255
        }
    };
    (opcode, out)
}

/// The same for requests.
fn old_request(req: &Request) -> (u8, Vec<u8>) {
    let mut out = Vec::new();
    let runs = |out: &mut Vec<u8>, runs: &[(u64, u32)]| {
        u32le(out, runs.len());
        for &(start, count) in runs {
            u64le(out, start);
            u32le(out, count as usize);
        }
    };
    let opcode = match req {
        Request::Read { runs: table, key } => {
            out.push(u8::from(key.is_some()));
            if let Some((k0, k1)) = key {
                u64le(&mut out, *k0);
                u64le(&mut out, *k1);
            }
            runs(&mut out, table);
            17
        }
        Request::PutMany {
            runs: table,
            cell_len,
            bytes,
        } => {
            u32le(&mut out, *cell_len as usize);
            runs(&mut out, table);
            out.extend_from_slice(bytes);
            16
        }
        Request::CombineRange(spec) => {
            u64le(&mut out, spec.offset);
            u32le(&mut out, spec.count as usize);
            u32le(&mut out, spec.outputs as usize);
            u32le(&mut out, spec.coeffs.len());
            out.extend_from_slice(&spec.coeffs);
            u64le(&mut out, spec.key.0);
            u64le(&mut out, spec.key.1);
            u32le(&mut out, spec.peers.len());
            for p in &spec.peers {
                string(&mut out, &p.addr);
                u64le(&mut out, p.offset);
                u32le(&mut out, p.count as usize);
                u32le(&mut out, p.coeffs.len());
                out.extend_from_slice(&p.coeffs);
            }
            10
        }
        Request::ObjCreate { tenant, object } => {
            string(&mut out, tenant);
            string(&mut out, object);
            11
        }
        Request::ObjWrite {
            tenant,
            object,
            bytes,
        } => {
            string(&mut out, tenant);
            string(&mut out, object);
            u32le(&mut out, bytes.len());
            out.extend_from_slice(bytes);
            12
        }
        Request::ObjGet {
            tenant,
            object,
            start,
            len,
        } => {
            string(&mut out, tenant);
            string(&mut out, object);
            u64le(&mut out, *start);
            u64le(&mut out, *len);
            13
        }
        Request::ObjStat { tenant, object } => {
            string(&mut out, tenant);
            string(&mut out, object);
            14
        }
        Request::ObjDelete { tenant, object } => {
            string(&mut out, tenant);
            string(&mut out, object);
            15
        }
        Request::Health => 4,
        Request::InjectFault(fault) => {
            out.push(match fault {
                Fault::Fail => 0,
                Fault::Heal => 1,
                Fault::Wipe => 2,
            });
            5
        }
        Request::Stats => 6,
    };
    (opcode, out)
}

/// The header, byte by byte, for a request and a response: the frame
/// every other golden frame here is built the same way as.
#[test]
fn the_v3_header_is_magic_version_opcode_id_and_length() {
    assert_eq!((VERSION, HEADER_LEN), (3, 18));
    let mut sent = Vec::new();
    write_request(&mut sent, 0x0102_0304_0506_0708, &Request::Health).unwrap();
    #[rustfmt::skip]
    assert_eq!(sent, [
        b'E', b'F', b'R', b'M', 3, 4, // v3, Health
        8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, // id, empty payload
    ]);
    let mut sent = Vec::new();
    write_response(&mut sent, 9, &Response::Health { elements: 2 }).unwrap();
    #[rustfmt::skip]
    assert_eq!(sent, [
        b'E', b'F', b'R', b'M', 3, 132, // v3, Health reply
        9, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, // id 9, 8 B
        2, 0, 0, 0, 0, 0, 0, 0, // elements
    ]);
}

/// One response of every variant, the bulk ones in several shapes.
fn every_response() -> Vec<Response> {
    let pattern = |n: usize| (0..n).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>();
    vec![
        Response::Put,
        Response::FaultInjected,
        Response::ObjAck,
        Response::Cells(vec![]),
        Response::Cells(vec![CheckedElement::Missing, CheckedElement::Corrupt]),
        Response::Cells(vec![
            CheckedElement::Valid(pattern(4104)),
            CheckedElement::Missing,
            CheckedElement::Valid(vec![]),
            CheckedElement::Corrupt,
            CheckedElement::Valid(pattern(3)),
            CheckedElement::Valid(pattern(70_000)),
        ]),
        Response::Combined(CombineReply {
            regions: vec![],
            local_status: vec![1, 2],
            peer_status: vec![],
        }),
        Response::Combined(CombineReply {
            regions: vec![pattern(40), vec![], pattern(9000)],
            local_status: vec![0, 0, 2],
            peer_status: vec![3, 0],
        }),
        Response::ObjData(vec![]),
        Response::ObjData(pattern(1)),
        Response::ObjData(pattern(256 * 1024)),
        Response::ObjStat {
            len: u64::MAX,
            version: 3,
            extents: u32::MAX,
        },
        Response::Health { elements: 12345 },
        Response::Stats(vec![("serve.read".into(), 42), ("x".into(), u64::MAX)]),
        Response::Error("disk on fire".into()),
    ]
}

#[test]
fn responses_leave_as_the_bytes_the_joined_encoder_produced() {
    for resp in every_response() {
        for id in [0, 0xFEED_0000_0000_0001] {
            let (opcode, payload) = old_response(&resp);
            let mut sent = Vec::new();
            write_response(&mut sent, id, &resp).unwrap();
            assert_eq!(sent, frame(id, opcode, &payload), "{resp:?}");
            // And what was sent is what is read back, by value.
            assert_eq!(
                read_response(&mut sent.as_slice()).unwrap(),
                (id, resp.clone())
            );
            let stop = AtomicBool::new(false);
            match read_response_polling(&mut sent.as_slice(), &stop) {
                Polled::Frame(got_id, got) => assert_eq!((got_id, got), (id, resp.clone())),
                other => panic!("{resp:?} polled as {other:?}"),
            }
        }
    }
}

/// A writer that takes at most `IOV_MAX` (1 024) buffers a call, as a
/// socket's `writev` does, and counts its calls.
#[derive(Default)]
struct IovMax {
    bytes: Vec<u8>,
    calls: usize,
}

impl Write for IovMax {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.calls += 1;
        let before = self.bytes.len();
        for buf in bufs.iter().take(1024) {
            self.bytes.extend_from_slice(buf);
        }
        Ok(self.bytes.len() - before)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A front node's reply leaves from the elements that hold its bytes —
/// one buffer each, more of them than one `writev` takes in the last
/// case — and is the frame the joined encoder made of those bytes; it
/// reads back as `ObjData`.
#[test]
fn object_pieces_leave_as_the_bytes_the_joined_encoder_produced() {
    for count in [0usize, 1, 64, 2048] {
        // 64-byte elements; the first and last stick out of the read.
        let pieces: Vec<Piece> = (0..count)
            .map(|i| Piece {
                element: Arc::new((0..64).map(|b| (b * 7 + i) as u8).collect()),
                range: if i == 0 { 5 } else { 0 }..if i + 1 == count { 17 } else { 64 },
            })
            .collect();
        let joined: Vec<&[u8]> = pieces.iter().map(|p| &p[..]).collect();
        let want = Response::ObjData(joined.concat());
        let mut sent = IovMax::default();
        write_response(&mut sent, 3, &Response::ObjPieces(pieces)).unwrap();
        let (opcode, payload) = old_response(&want);
        assert_eq!(sent.bytes, frame(3, opcode, &payload), "{count} pieces");
        // Header, length field and the pieces, 1 024 buffers a call
        // (the empty tail of the small fields needs no call).
        assert_eq!(sent.calls, (count + 2).div_ceil(1024));
        assert_eq!(
            read_response(&mut sent.bytes.as_slice()).unwrap(),
            (3, want)
        );
    }
}

#[test]
fn requests_leave_as_the_bytes_the_joined_encoder_produced() {
    let bytes: Vec<u8> = (0..=255).collect();
    let tenant = || "tenant".to_string();
    let every = vec![
        Request::Read {
            runs: vec![(1 << 40, 4096), (7, 1)],
            key: Some((u64::MAX, 0xDEAD_BEEF)),
        },
        Request::Read {
            runs: vec![],
            key: None,
        },
        Request::PutMany {
            runs: vec![(3, 16), (100, 16)],
            cell_len: 8,
            bytes: bytes.clone().into(),
        },
        Request::CombineRange(CombineSpec {
            offset: 3,
            count: 2,
            outputs: 1,
            coeffs: vec![7, 9],
            key: (1, 2),
            peers: vec![CombinePeerSpec {
                addr: "a:1".into(),
                offset: 5,
                count: 1,
                coeffs: vec![4],
            }],
        }),
        Request::ObjCreate {
            tenant: tenant(),
            object: "c".into(),
        },
        Request::ObjWrite {
            tenant: tenant(),
            object: "w".into(),
            bytes: bytes.clone().into(),
        },
        Request::ObjGet {
            tenant: tenant(),
            object: "g".into(),
            start: 9,
            len: u64::MAX,
        },
        Request::ObjStat {
            tenant: tenant(),
            object: "s".into(),
        },
        Request::ObjDelete {
            tenant: tenant(),
            object: "d".into(),
        },
        Request::Health,
        Request::InjectFault(Fault::Wipe),
        Request::Stats,
    ];
    for req in every {
        for id in [1, 99, u64::MAX] {
            let (opcode, payload) = old_request(&req);
            let mut sent = Vec::new();
            write_request(&mut sent, id, &req).unwrap();
            assert_eq!(sent, frame(id, opcode, &payload), "{req:?}");
            assert_eq!(
                read_request(&mut sent.as_slice()).unwrap(),
                (id, req.clone())
            );
        }
    }
}

/// A `Cells` payload: `count`, the status bytes, then `(claimed length,
/// bytes shipped)` per valid cell.
fn cells_payload(count: usize, statuses: &[u8], cells: &[(usize, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    u32le(&mut out, count);
    out.extend_from_slice(statuses);
    for &(claimed, shipped) in cells {
        u32le(&mut out, claimed);
        out.extend(std::iter::repeat_n(9u8, shipped));
    }
    out
}

/// An `ObjData` payload claiming `claimed` bytes and shipping `shipped`.
fn obj_payload(claimed: usize, shipped: usize) -> Vec<u8> {
    cells_payload(claimed, &vec![9u8; shipped], &[])
}

/// Payloads that lie about their own shape: `(opcode, payload, what the
/// reader says)`.
fn hostile_payloads() -> Vec<(u8, Vec<u8>, &'static str)> {
    vec![
        (140, obj_payload(5, 10), "trailing"),
        (140, obj_payload(100, 10), "truncated"),
        (140, obj_payload(u32::MAX as usize, 0), "truncated"),
        (140, vec![1, 0], "truncated"),
        // A status table longer than the payload it is in.
        (145, cells_payload(1000, &[0; 3], &[]), "truncated"),
        (145, cells_payload(u32::MAX as usize, &[], &[]), "truncated"),
        // A cell longer than what is left of it.
        (145, cells_payload(1, &[1], &[(100, 10)]), "truncated"),
        (
            145,
            cells_payload(2, &[1, 1], &[(4, 4), (u32::MAX as usize, 4)]),
            "truncated",
        ),
        // A valid cell with no length at all.
        (145, cells_payload(1, &[1], &[]), "truncated"),
        // Bytes nobody claimed.
        (145, cells_payload(1, &[1], &[(4, 5)]), "trailing"),
        (145, cells_payload(2, &[0, 2, 0], &[]), "trailing"),
        (145, cells_payload(1, &[7], &[]), "cell status"),
    ]
}

/// Both readers on the same bytes: the blocking one's typed error, and
/// the polling one's `Closed`.
fn refused(bytes: &[u8]) -> NetError {
    let stop = AtomicBool::new(false);
    let mut polled = bytes;
    match read_response_polling(&mut polled, &stop) {
        Polled::Closed => {}
        other => panic!("polled as {other:?}"),
    }
    let mut blocking = bytes;
    read_response(&mut blocking).expect_err("a hostile frame decoded")
}

#[test]
fn frames_whose_lengths_disagree_are_typed_errors() {
    for (opcode, payload, needle) in hostile_payloads() {
        match refused(&frame(7, opcode, &payload)) {
            NetError::Protocol(msg) => {
                assert!(msg.contains(needle), "op {opcode} {payload:?}: {msg}");
            }
            other => panic!("op {opcode} {payload:?}: {other}"),
        }
    }
    // The retired `Mux` envelope is an opcode like any unknown one.
    let retired = frame(7, 137, &[0; 9]);
    assert!(refused(&retired).to_string().contains("opcode 137"));
    // A frame that declares more than any frame may hold is refused on
    // its header: nothing after it is read (there is nothing here).
    let mut over = frame(7, 140, &[]);
    over[14..18].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    assert!(refused(&over).to_string().contains("exceeds"));
}

#[test]
fn a_peer_that_stops_mid_body_is_an_io_error_not_a_short_cell() {
    let good = Response::Cells(vec![
        CheckedElement::Valid(vec![5; 300]),
        CheckedElement::Valid(vec![6; 300]),
    ]);
    let big = Response::ObjData(vec![7; 100_000]);
    for resp in [good, big] {
        let mut sent = Vec::new();
        write_response(&mut sent, 1, &resp).unwrap();
        // Cut in the magic, in the header, in the small fields and in
        // each body.
        for keep in [4, 12, 30, 200, 400, sent.len() - 1] {
            let err = refused(&sent[..keep.min(sent.len() - 1)]);
            assert!(matches!(err, NetError::Io(_)), "cut at {keep}: {err}");
        }
    }
}

/// A server that accepts connections one at a time and answers every
/// request on each with the next of `replies` — `(opcode, payload)`,
/// framed with the request's id. Returns its address and the count of
/// connections it has accepted.
fn scripted_server(replies: Vec<(u8, Vec<u8>)>) -> (std::net::SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        let mut replies = replies.into_iter();
        while let Ok((mut stream, _)) = listener.accept() {
            count.fetch_add(1, Ordering::SeqCst);
            while let Ok((id, _)) = read_request(&mut stream) {
                let Some((opcode, payload)) = replies.next() else {
                    return;
                };
                if stream.write_all(&frame(id, opcode, &payload)).is_err() {
                    break;
                }
            }
        }
    });
    (addr, accepted)
}

#[test]
fn a_front_client_drops_the_connection_a_hostile_frame_arrived_on() {
    // Claims 100 object bytes in a frame that holds 10, then behaves.
    let (addr, accepted) = scripted_server(vec![
        (140, obj_payload(100, 10)),
        old_response(&Response::ObjData(vec![1, 2, 3])),
    ]);
    let client = FrontClient::new(addr, RemoteDiskConfig::builder().low_latency().build());
    let err = client.read("t", "o").unwrap_err();
    assert!(matches!(&err, StoreError::Net(_)), "{err}");
    // The stream is out of sync past that frame: it was discarded, and
    // the next op dials again.
    assert_eq!(client.read("t", "o").unwrap(), vec![1, 2, 3]);
    assert_eq!(accepted.load(Ordering::SeqCst), 2);
    let stats = client.net_stats();
    assert_eq!((stats.conns_discarded, stats.reconnects), (1, 1));
}

#[test]
fn a_remote_disk_discards_the_mux_connection_a_hostile_frame_arrived_on() {
    let honest = Response::Cells(vec![CheckedElement::Valid(vec![4; 8])]);
    // One valid cell claiming 4 GiB.
    let (addr, accepted) = scripted_server(vec![
        (145, cells_payload(1, &[1], &[(u32::MAX as usize, 16)])),
        old_response(&honest),
    ]);
    let disk = RemoteDisk::new(addr, RemoteDiskConfig::builder().low_latency().build());
    assert_eq!(disk.read_many(&[0, 1]), vec![None, None]);
    let stats = disk.net_stats().unwrap();
    assert_eq!((stats.conns_discarded, stats.failed_requests), (1, 1));
    // A fresh connection serves the next.
    assert_eq!(disk.read(0), Some(vec![4; 8]));
    assert_eq!(accepted.load(Ordering::SeqCst), 2);
    assert_eq!(disk.net_stats().unwrap().reconnects, 1);
}
