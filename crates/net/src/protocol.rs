//! The wire protocol, version 6: a length-prefixed binary frame.
//!
//! Every frame is
//!
//! ```text
//! [ magic "EFRM" : 4 ][ version : 1 ][ opcode : 1 ][ id : u64 LE ][ payload len : u32 LE ][ payload ]
//! ```
//!
//! Integers inside payloads are little-endian. The id is the client's:
//! a response carries the id of the request it answers, so one
//! connection carries many requests in flight and their answers in
//! whatever order they complete. The version byte is the whole
//! handshake, and it sits where it sat in every version, so a peer of
//! any version reads it before anything else: a peer that speaks another
//! version gets one typed [`Response::Error`] naming both versions
//! ([`version_mismatch`]) and the connection is closed. Nothing is
//! negotiated per connection or per op; DESIGN.md ("The wire, v6") has
//! the rule and the opcode table, retired numbers included.
//!
//! A shard serves `Read` (17), `PutMany` (16), `CombineRange` (10),
//! `Health`, `Wipe` and `Stats`; a front node also serves the
//! object ops (13–15, 18). [`Request`]'s variants say what each one does. No
//! sender joins a payload: the small fields and the bulk buffers they
//! sit between, borrowed from whoever holds them, leave in one vectored
//! write (`Parts`). No receiver copies one out: a request's frame is
//! read into the buffer that becomes its [`Body`], a response's cells
//! and object bytes each into the `Vec` the caller keeps
//! (`Frame::body`).

use std::io::ErrorKind::{Interrupted, TimedOut, UnexpectedEof, WouldBlock};
use std::io::{IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use ecfrm_sim::{CombinePeerSpec, CombineReply, CombineSpec, WriteRun};
use ecfrm_store::Piece;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"EFRM";
/// Protocol version this build speaks.
pub const VERSION: u8 = 6;
/// Bytes of a frame ahead of its payload: magic, version, opcode, id
/// and payload length.
pub const HEADER_LEN: usize = 18;
/// Upper bound on a sane payload (guards allocation on corrupt frames).
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;
/// Most cells one request may name: what one `Read` may ask for, one
/// `PutMany` carry and one `CombineRange` sum.
pub const MAX_RANGE: u32 = 1 << 20;

/// What either side says about a frame of another protocol version: the
/// text of the server's one [`Response::Error`] before it hangs up, and
/// of the client's [`NetError::Protocol`].
pub fn version_mismatch(peer: u8) -> String {
    format!("version: peer speaks {peer}, this node speaks {VERSION}")
}

/// The bulk bytes of a received request, kept in the frame they arrived
/// in: decoding a [`Request::PutMany`] or [`Request::ObjPut`] moves
/// the frame here instead of copying the bytes out of it. Reads as a
/// byte slice; build one for sending with `Vec::into`.
#[derive(Clone)]
pub struct Body {
    /// The whole frame payload.
    frame: Vec<u8>,
    /// Where the bulk bytes start in it.
    start: usize,
}

impl std::ops::Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.frame[self.start..]
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Body {}

impl From<Vec<u8>> for Body {
    fn from(frame: Vec<u8>) -> Self {
        Self { frame, start: 0 }
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Body({} bytes)", self.len())
    }
}

/// Transport / protocol failure.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed or unexpected frame.
    Protocol(String),
    /// The request exceeded its deadline.
    Timeout,
    /// The server reported an error.
    Remote(String),
    /// A frame over [`MAX_PAYLOAD`], refused before its first byte was
    /// written: the connection it was meant for is as it was.
    TooLarge(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Timeout => write!(f, "request timed out"),
            NetError::Remote(m) => write!(f, "remote error: {m}"),
            NetError::TooLarge(m) => write!(f, "too large: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            NetError::Timeout
        } else {
            NetError::Io(e)
        }
    }
}

/// A transport failure surfacing through the store reads as a network
/// error; callers holding a `Result<_, StoreError>` can `?` net calls.
/// A frame refused for its size keeps its type: nothing was sent, so it
/// is the caller's request that is too large, not the network that failed.
impl From<NetError> for ecfrm_store::StoreError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::TooLarge(m) => ecfrm_store::StoreError::TooLarge(m),
            e => ecfrm_store::StoreError::Net(e.to_string()),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Fetch runs of consecutive cells — the one read op. Run `i` covers
    /// offsets `runs[i].0 .. runs[i].0 + runs[i].1`; the answer is one
    /// [`Response::Cells`] entry per cell, in run order (so unsorted and
    /// repeated offsets come back the way they were asked), as stored:
    /// the shard judges no cell, the store checks each where it uses it
    /// (DESIGN.md §13). The server refuses (with [`Response::Error`],
    /// before touching its backend) an empty run, a run past the last
    /// offset and more than [`MAX_RANGE`] cells.
    Read {
        /// `(first offset, cell count)` per run.
        runs: Vec<(u64, u32)>,
    },
    /// Store runs of consecutive cells — the one write op. Run `i`
    /// covers offsets `runs[i].0 .. runs[i].0 + runs[i].1`; `bytes`
    /// holds every run's cells back to back, `cell_len` bytes each.
    /// Cells are applied in order, so a later cell at the same offset
    /// wins. The server refuses (with [`Response::Error`], before
    /// touching its backend) a frame whose table and bytes disagree, an
    /// empty run, a run past the last offset, more than [`MAX_RANGE`]
    /// cells, and a `cell_len` its backend does not store.
    PutMany {
        /// `(first offset, cell count)` per run.
        runs: Vec<(u64, u32)>,
        /// Bytes per cell.
        cell_len: u32,
        /// The cells of all runs, in run order.
        bytes: Body,
    },
    /// Multiply a contiguous run of local elements by a GF(2^8)
    /// coefficient matrix (the array's own [`CombineSpec`]) and
    /// answer with one pre-summed region per output lane
    /// ([`Response::Combined`]) — the repair-traffic optimisation: a
    /// rebuild ships decode coefficients *to* the data and moves one
    /// combined region back instead of `k` raw elements. The server
    /// verifies each local element's checksum footer (under the shipped
    /// key) before it contributes, fetches and XOR-merges the partial
    /// sums of any `peers` (one level deep — forwarded requests carry
    /// no peers), and seals each returned region with a footer salted
    /// by `offset + lane`.
    CombineRange(CombineSpec),
    /// Create a named object holding `bytes` on the server's object
    /// front door ([`ecfrm_store::FrontDoor`]), whole or not at all. A
    /// server without one answers every object op with the typed
    /// [`crate::front::NO_FRONT`] error.
    ObjPut {
        /// Owning tenant.
        tenant: String,
        /// Object name, unique per tenant.
        object: String,
        /// The object's bytes.
        bytes: Body,
    },
    /// Read `len` bytes of an object starting at `start`
    /// (`len == u64::MAX` means "to the end").
    ObjGet {
        /// Owning tenant.
        tenant: String,
        /// Object name.
        object: String,
        /// First byte to read.
        start: u64,
        /// Bytes to read, or `u64::MAX` for the whole remainder.
        len: u64,
    },
    /// Object metadata probe.
    ObjStat {
        /// Owning tenant.
        tenant: String,
        /// Object name.
        object: String,
    },
    /// Drop an object's namespace record (metadata-only delete).
    ObjDelete {
        /// Owning tenant.
        tenant: String,
        /// Object name.
        object: String,
    },
    /// Liveness + occupancy probe.
    Health,
    /// Permanently erase every cell the shard stores: the one fault
    /// sent over the wire, a lost disk before its rebuild. Whether a
    /// disk is failed is the client's own record, never the shard's.
    Wipe,
    /// Dump the server's metrics registry.
    Stats,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Write acknowledged.
    Put,
    /// The cells answering a [`Request::Read`], in run order, each
    /// whole (`payload || footer`) or absent: one status byte per cell
    /// (so an absent cell costs 1 byte) followed by the stored cells'
    /// bytes.
    Cells(Vec<Option<Vec<u8>>>),
    /// The answer to a [`Request::CombineRange`] (the array's own
    /// [`CombineReply`]): one pre-summed region per output lane plus
    /// per-local-element and per-peer verdicts (0 = ok,
    /// 1 = missing/unreachable, 2 = corrupt, 3 = declined) so the
    /// rebuilder can exclude a bad helper and re-plan. `regions` is
    /// empty when nothing contributed.
    Combined(CombineReply),
    /// Object op acknowledged ([`Request::ObjPut`] /
    /// [`Request::ObjDelete`]).
    ObjAck,
    /// The bytes answering a [`Request::ObjGet`].
    ObjData(Vec<u8>),
    /// [`Response::ObjData`] as a front node sends it: the bytes in the
    /// cached (or just-read) elements that hold them, written from
    /// there and never joined. The same frame on the wire; what a
    /// reader gets back is `ObjData`.
    ObjPieces(Vec<Piece>),
    /// The answer to a [`Request::ObjStat`].
    ObjStat {
        /// Object length in bytes.
        len: u64,
    },
    /// Health probe answer: stored element count.
    Health {
        /// Elements currently stored.
        elements: u64,
    },
    /// Wipe acknowledged.
    Wiped,
    /// Flattened metrics: sorted `(name, value)` pairs.
    Stats(Vec<(String, u64)>),
    /// Server-side failure.
    Error(String),
}

// Opcodes 1, 2, 3, 7 and 8 (and replies 129, 131, 135 and 136) belonged
// to version 1's per-shape reads and per-cell write; 9 and 137 to
// version 2's `Mux` envelope, whose id every header carries now; 11 to
// version 3's empty-object create, which `ObjPut` replaced; 12 to
// version 4's append-to-object, gone with it: an object is one put. A
// number is never reused. 5 kept its number when its one-byte fault tag
// went: `Wipe` has an empty payload, so a tag is trailing bytes.
const OP_HEALTH: u8 = 4;
const OP_WIPE: u8 = 5;
const OP_STATS: u8 = 6;
const OP_COMBINE_RANGE: u8 = 10;
const OP_OBJ_GET: u8 = 13;
const OP_OBJ_STAT: u8 = 14;
const OP_OBJ_DELETE: u8 = 15;
const OP_PUT_MANY: u8 = 16;
const OP_READ: u8 = 17;
const OP_OBJ_PUT: u8 = 18;

const RESP_PUT: u8 = 130;
const RESP_HEALTH: u8 = 132;
const RESP_WIPED: u8 = 133;
const RESP_STATS: u8 = 134;
const RESP_COMBINED: u8 = 138;
const RESP_OBJ_ACK: u8 = 139;
const RESP_OBJ_DATA: u8 = 140;
const RESP_OBJ_STAT: u8 = 141;
const RESP_CELLS: u8 = 145;
const RESP_ERROR: u8 = 255;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A frame's payload as the pieces it leaves from: the small fields,
/// encoded into one scratch buffer, and the bulk buffers they sit
/// between, borrowed from whoever holds them.
#[derive(Default)]
struct Parts<'a> {
    small: Vec<u8>,
    /// `(cut, bytes)`: `bytes` goes on the wire after `small[..cut]`.
    bulk: Vec<(usize, &'a [u8])>,
}

impl<'a> Parts<'a> {
    /// `bytes` come next, sent from where they are.
    fn bulk(&mut self, bytes: &'a [u8]) {
        self.bulk.push((self.small.len(), bytes));
    }

    /// Write the payload as one frame tagged `id`, never joined in
    /// memory: header, fields and buffers leave in one vectored write —
    /// on a socket one syscall and (with `TCP_NODELAY`) one segment
    /// train.
    fn send(&self, w: &mut impl Write, opcode: u8, id: u64) -> Result<(), NetError> {
        let bulk: u64 = self.bulk.iter().map(|(_, b)| b.len() as u64).sum();
        let len = self.small.len() as u64 + bulk;
        if len > u64::from(MAX_PAYLOAD) {
            return Err(NetError::TooLarge(format!(
                "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
            )));
        }
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        header[5] = opcode;
        header[6..14].copy_from_slice(&id.to_le_bytes());
        header[14..].copy_from_slice(&(len as u32).to_le_bytes());
        let mut bufs = Vec::with_capacity(2 * self.bulk.len() + 2);
        bufs.push(IoSlice::new(&header));
        let mut at = 0;
        for &(cut, bytes) in &self.bulk {
            if cut > at {
                bufs.push(IoSlice::new(&self.small[at..cut]));
            }
            bufs.push(IoSlice::new(bytes));
            at = cut;
        }
        bufs.push(IoSlice::new(&self.small[at..]));
        let mut bufs = &mut bufs[..];
        while !bufs.is_empty() {
            match w.write_vectored(bufs) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
                Ok(n) => IoSlice::advance_slices(&mut bufs, n),
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        w.flush()?;
        Ok(())
    }
}

/// `[len:u32][utf-8 bytes]`.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The run table `Read` and `PutMany` share: `[n_runs:u32]` then
/// `[start:u64][count:u32]` per run.
fn put_runs(out: &mut Vec<u8>, runs: impl ExactSizeIterator<Item = (u64, u32)>) {
    put_u32(out, runs.len() as u32);
    for (start, count) in runs {
        put_u64(out, start);
        put_u32(out, count);
    }
}

/// Decode a run table, bounding it by the frame before allocating for
/// it. What the runs *say* (an empty run, one past the last offset, too
/// many cells) is the server's to refuse, with a typed error.
fn get_runs<R: Read>(f: &mut Frame<'_, R>) -> Result<Vec<(u64, u32)>, NetError> {
    let n = f.u32()? as usize;
    if n > f.left / 12 {
        return Err(NetError::Protocol(format!(
            "table of {n} runs overruns the payload"
        )));
    }
    let mut runs = Vec::with_capacity(n);
    for _ in 0..n {
        runs.push((f.u64()?, f.u32()?));
    }
    Ok(runs)
}

/// Everything of an `ObjPut` payload ahead of the bytes:
/// `[tenant][object][bytes len:u32]`.
fn obj_put_head(out: &mut Vec<u8>, tenant: &str, object: &str, len: usize) {
    put_str(out, tenant);
    put_str(out, object);
    put_u32(out, len as u32);
}

fn get_str<R: Read>(f: &mut Frame<'_, R>) -> Result<String, NetError> {
    let len = f.u32()? as usize;
    String::from_utf8(f.body(len)?).map_err(|_| NetError::Protocol("string is not UTF-8".into()))
}

impl Request {
    fn opcode(&self) -> u8 {
        match self {
            Request::Read { .. } => OP_READ,
            Request::PutMany { .. } => OP_PUT_MANY,
            Request::CombineRange { .. } => OP_COMBINE_RANGE,
            Request::ObjPut { .. } => OP_OBJ_PUT,
            Request::ObjGet { .. } => OP_OBJ_GET,
            Request::ObjStat { .. } => OP_OBJ_STAT,
            Request::ObjDelete { .. } => OP_OBJ_DELETE,
            Request::Health => OP_HEALTH,
            Request::Wipe => OP_WIPE,
            Request::Stats => OP_STATS,
        }
    }

    /// Encode the payload, borrowing a bulk op's bytes.
    fn encode<'a>(&'a self, parts: &mut Parts<'a>) {
        let out = &mut parts.small;
        match self {
            // The run table.
            Request::Read { runs } => put_runs(out, runs.iter().copied()),
            Request::PutMany {
                runs,
                cell_len,
                bytes,
            } => {
                // [cell_len:u32] then the run table, then the cells.
                put_u32(out, *cell_len);
                put_runs(out, runs.iter().copied());
                parts.bulk(bytes);
            }
            Request::CombineRange(CombineSpec {
                offset,
                count,
                outputs,
                coeffs,
                key: (k0, k1),
                peers,
            }) => {
                // [offset:u64][count:u32][outputs:u32][coeffs len:u32]
                // [coeffs][k0:u64][k1:u64][n_peers:u32] then per peer
                // [addr len:u32][addr][offset:u64][count:u32]
                // [coeffs len:u32][coeffs].
                put_u64(out, *offset);
                put_u32(out, *count);
                put_u32(out, *outputs);
                put_u32(out, coeffs.len() as u32);
                out.extend_from_slice(coeffs);
                put_u64(out, *k0);
                put_u64(out, *k1);
                put_u32(out, peers.len() as u32);
                for p in peers {
                    put_str(out, &p.addr);
                    put_u64(out, p.offset);
                    put_u32(out, p.count);
                    put_u32(out, p.coeffs.len() as u32);
                    out.extend_from_slice(&p.coeffs);
                }
            }
            // [tenant len:u32][tenant][object len:u32][object].
            Request::ObjDelete { tenant, object } | Request::ObjStat { tenant, object } => {
                put_str(out, tenant);
                put_str(out, object);
            }
            Request::ObjPut {
                tenant,
                object,
                bytes,
            } => {
                obj_put_head(out, tenant, object, bytes.len());
                parts.bulk(bytes);
            }
            Request::ObjGet {
                tenant,
                object,
                start,
                len,
            } => {
                // [tenant][object][start:u64][len:u64].
                put_str(out, tenant);
                put_str(out, object);
                put_u64(out, *start);
                put_u64(out, *len);
            }
            Request::Health | Request::Stats | Request::Wipe => {}
        }
    }

    /// Decode the request whose payload is `frame`. The bulk ops keep
    /// `frame` as their [`Body`].
    fn decode(opcode: u8, frame: Vec<u8>) -> Result<Self, NetError> {
        let mut f = Frame {
            r: &frame[..],
            stop: None,
            left: frame.len(),
        };
        // Where in `frame` the fields read so far end.
        let here = |f: &Frame<'_, &[u8]>| frame.len() - f.left;
        let f = &mut f;
        let req = match opcode {
            OP_PUT_MANY => {
                let cell_len = f.u32()?;
                let runs = get_runs(f)?;
                let start = here(f);
                let bytes = Body { frame, start };
                return Ok(Request::PutMany {
                    runs,
                    cell_len,
                    bytes,
                });
            }
            OP_OBJ_PUT => {
                let tenant = get_str(f)?;
                let object = get_str(f)?;
                if f.u32()? as usize != f.left {
                    return Err(NetError::Protocol("object bytes length mismatch".into()));
                }
                let start = here(f);
                let bytes = Body { frame, start };
                return Ok(Request::ObjPut {
                    tenant,
                    object,
                    bytes,
                });
            }
            OP_READ => Request::Read { runs: get_runs(f)? },
            OP_COMBINE_RANGE => {
                let offset = f.u64()?;
                let count = f.u32()?;
                let outputs = f.u32()?;
                let clen = f.u32()? as usize;
                let coeffs = f.body(clen)?;
                let key = (f.u64()?, f.u64()?);
                let n = f.u32()? as usize;
                let mut peers = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    let addr = get_str(f)?;
                    let offset = f.u64()?;
                    let count = f.u32()?;
                    let clen = f.u32()? as usize;
                    let coeffs = f.body(clen)?;
                    peers.push(CombinePeerSpec {
                        addr,
                        offset,
                        count,
                        coeffs,
                    });
                }
                Request::CombineRange(CombineSpec {
                    offset,
                    count,
                    outputs,
                    coeffs,
                    key,
                    peers,
                })
            }
            OP_OBJ_GET => Request::ObjGet {
                tenant: get_str(f)?,
                object: get_str(f)?,
                start: f.u64()?,
                len: f.u64()?,
            },
            OP_OBJ_STAT => Request::ObjStat {
                tenant: get_str(f)?,
                object: get_str(f)?,
            },
            OP_OBJ_DELETE => Request::ObjDelete {
                tenant: get_str(f)?,
                object: get_str(f)?,
            },
            OP_HEALTH => Request::Health,
            OP_STATS => Request::Stats,
            OP_WIPE => Request::Wipe,
            op => return Err(NetError::Protocol(format!("unknown request opcode {op}"))),
        };
        f.done()?;
        Ok(req)
    }
}

impl Response {
    fn opcode(&self) -> u8 {
        match self {
            Response::Put => RESP_PUT,
            Response::Cells(_) => RESP_CELLS,
            Response::Combined(_) => RESP_COMBINED,
            Response::ObjAck => RESP_OBJ_ACK,
            Response::ObjData(_) | Response::ObjPieces(_) => RESP_OBJ_DATA,
            Response::ObjStat { .. } => RESP_OBJ_STAT,
            Response::Health { .. } => RESP_HEALTH,
            Response::Wiped => RESP_WIPED,
            Response::Stats(_) => RESP_STATS,
            Response::Error(_) => RESP_ERROR,
        }
    }

    /// Encode the payload, borrowing the cells, object bytes and
    /// combined regions from the response that holds them.
    fn encode<'a>(&'a self, parts: &mut Parts<'a>) {
        let out = &mut parts.small;
        match self {
            Response::Put | Response::Wiped | Response::ObjAck => {}
            Response::Cells(cells) => {
                // [count:u32][status byte per cell: 0=missing,
                // 1=stored][per stored cell, in order: len:u32 + bytes].
                put_u32(out, cells.len() as u32);
                out.extend(cells.iter().map(|cell| u8::from(cell.is_some())));
                for cell in cells.iter().flatten() {
                    put_u32(&mut parts.small, cell.len() as u32);
                    parts.bulk(cell);
                }
            }
            Response::Combined(CombineReply {
                regions,
                local_status,
                peer_status,
            }) => {
                // [n_regions:u32][per region: len:u32 + bytes]
                // [n_local:u32][status bytes][n_peers:u32][status bytes].
                put_u32(out, regions.len() as u32);
                for r in regions {
                    put_u32(&mut parts.small, r.len() as u32);
                    parts.bulk(r);
                }
                let out = &mut parts.small;
                put_u32(out, local_status.len() as u32);
                out.extend_from_slice(local_status);
                put_u32(out, peer_status.len() as u32);
                out.extend_from_slice(peer_status);
            }
            Response::ObjData(bytes) => {
                put_u32(out, bytes.len() as u32);
                parts.bulk(bytes);
            }
            Response::ObjPieces(pieces) => {
                put_u32(out, pieces.iter().map(|p| p.len()).sum::<usize>() as u32);
                parts.bulk.reserve(pieces.len());
                for piece in pieces {
                    parts.bulk(piece);
                }
            }
            Response::ObjStat { len } => put_u64(out, *len),
            Response::Health { elements } => put_u64(out, *elements),
            Response::Stats(pairs) => {
                put_u32(out, pairs.len() as u32);
                for (name, value) in pairs {
                    put_str(out, name);
                    put_u64(out, *value);
                }
            }
            Response::Error(msg) => out.extend_from_slice(msg.as_bytes()),
        }
    }

    /// Read the response whose payload `f` has yet to deliver, by
    /// value: the small fields parsed as they arrive, each cell, region
    /// and the object bytes read into the `Vec` the caller keeps.
    fn read<R: Read>(opcode: u8, f: &mut Frame<'_, R>) -> Result<Self, NetError> {
        Ok(match opcode {
            RESP_PUT => Response::Put,
            RESP_CELLS => {
                // The status bytes are read off the frame before
                // anything is allocated for the count it claims.
                let n = f.u32()? as usize;
                let statuses = f.body(n)?;
                let mut cells = Vec::with_capacity(n);
                for s in statuses {
                    cells.push(match s {
                        0 => None,
                        1 => {
                            let len = f.u32()? as usize;
                            Some(f.body(len)?)
                        }
                        t => {
                            return Err(NetError::Protocol(format!("bad cell status {t}")));
                        }
                    });
                }
                Response::Cells(cells)
            }
            RESP_COMBINED => {
                let n = f.u32()? as usize;
                let mut regions = Vec::with_capacity(n.min(1 << 10));
                for _ in 0..n {
                    let len = f.u32()? as usize;
                    regions.push(f.body(len)?);
                }
                let nl = f.u32()? as usize;
                let local_status = f.body(nl)?;
                let np = f.u32()? as usize;
                let peer_status = f.body(np)?;
                Response::Combined(CombineReply {
                    regions,
                    local_status,
                    peer_status,
                })
            }
            RESP_OBJ_ACK => Response::ObjAck,
            RESP_OBJ_DATA => {
                let len = f.u32()? as usize;
                Response::ObjData(f.body(len)?)
            }
            RESP_OBJ_STAT => Response::ObjStat { len: f.u64()? },
            RESP_HEALTH => Response::Health { elements: f.u64()? },
            RESP_WIPED => Response::Wiped,
            RESP_STATS => {
                let n = f.u32()? as usize;
                let mut pairs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    pairs.push((get_str(f)?, f.u64()?));
                }
                Response::Stats(pairs)
            }
            RESP_ERROR => Response::Error(String::from_utf8_lossy(&f.body(f.left)?).into_owned()),
            op => return Err(NetError::Protocol(format!("unknown response opcode {op}"))),
        })
    }
}

/// Outcome of one polling read attempt on a connection whose socket has
/// a short read timeout.
#[derive(Debug)]
pub enum Polled<T> {
    /// A complete, well-formed frame, and the id its header carried.
    Frame(u64, T),
    /// The timeout elapsed with no frame started — poll again (a client
    /// also sweeps its request deadlines).
    Idle,
    /// Peer hung up, the stop flag was raised, or the stream is garbage.
    Closed,
    /// The peer sent a frame of this other protocol version. Nothing of
    /// it past the header was read: the connection is of no further use.
    WrongVersion(u8),
}

/// One frame coming off a connection (or, for a request, lying in the
/// buffer it was read into). The one reader, blocking and polling: with
/// a `stop` flag the socket has a short read timeout, a timeout before
/// the frame's first byte is [`Polled::Idle`] and one inside the frame
/// keeps waiting while the flag is down, so the stream never loses
/// sync; without one a timeout is [`NetError::Timeout`].
struct Frame<'a, R> {
    r: R,
    stop: Option<&'a AtomicBool>,
    /// Payload bytes not read yet.
    left: usize,
}

/// What to do about a failed read: `Ok` is "try again" — after an
/// interrupt, or a polling reader's timeout with its stop flag down.
fn retry(stop: Option<&AtomicBool>, e: std::io::Error) -> Result<(), NetError> {
    match (e.kind(), stop) {
        (Interrupted, _) => Ok(()),
        (WouldBlock | TimedOut, Some(stop)) if !stop.load(Ordering::Acquire) => Ok(()),
        _ => Err(e.into()),
    }
}

impl<R: Read> Frame<'_, R> {
    /// Fill `buf` from the connection. `Ok(false)`: a polling reader's
    /// timeout passed before the first byte, and `idle_ok`.
    fn fill(&mut self, buf: &mut [u8], idle_ok: bool) -> Result<bool, NetError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.r.read(&mut buf[filled..]) {
                Ok(0) => return Err(std::io::Error::from(UnexpectedEof).into()),
                Ok(n) => filled += n,
                Err(e) => {
                    let timed_out = e.kind() != Interrupted;
                    retry(self.stop, e)?;
                    if timed_out && idle_ok && filled == 0 {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// The next `N` payload bytes: a small field.
    fn field<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        if N > self.left {
            return Err(NetError::Protocol("payload truncated".into()));
        }
        self.left -= N;
        let mut buf = [0u8; N];
        self.fill(&mut buf, false)?;
        Ok(buf)
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.field()?))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.field()?))
    }

    /// The next `n` payload bytes, read into a `Vec` of their own —
    /// reserved, never zero-filled, and the one the caller keeps.
    /// Nothing is allocated for an `n` the (capped) frame does not cover.
    fn body(&mut self, n: usize) -> Result<Vec<u8>, NetError> {
        if n > self.left {
            return Err(NetError::Protocol("payload truncated".into()));
        }
        self.left -= n;
        let mut buf = Vec::with_capacity(n);
        let mut rest = Read::take(&mut self.r, n as u64);
        while rest.limit() > 0 {
            // Appends what arrived before an error, so a timeout
            // mid-body resumes where it stopped.
            match rest.read_to_end(&mut buf) {
                Ok(_) if rest.limit() > 0 => return Err(std::io::Error::from(UnexpectedEof).into()),
                Ok(_) => {}
                Err(e) => retry(self.stop, e)?,
            }
        }
        Ok(buf)
    }

    fn done(&self) -> Result<(), NetError> {
        match self.left {
            0 => Ok(()),
            _ => Err(NetError::Protocol("trailing bytes in payload".into())),
        }
    }
}

/// Read one frame off `r` and hand its opcode and payload to `decode`.
/// The version byte is judged before the rest of the header is read: a
/// peer of another version may send a shorter header than this one.
/// Garbage — bad magic, a payload over [`MAX_PAYLOAD`], one `decode`
/// refuses or leaves bytes of — is an error, after which the stream is
/// out of sync and of no further use.
fn poll<R: Read, T>(
    r: R,
    stop: Option<&AtomicBool>,
    decode: impl FnOnce(u8, &mut Frame<'_, R>) -> Result<T, NetError>,
) -> Result<Polled<T>, NetError> {
    let mut frame = Frame { r, stop, left: 0 };
    let mut header = [0u8; HEADER_LEN];
    if !frame.fill(&mut header[..5], true)? {
        return Ok(Polled::Idle);
    }
    if header[..4] != MAGIC {
        return Err(NetError::Protocol("bad magic".into()));
    }
    if header[4] != VERSION {
        return Ok(Polled::WrongVersion(header[4]));
    }
    frame.fill(&mut header[5..], false)?;
    let id = u64::from_le_bytes(header[6..14].try_into().unwrap());
    let len = u32::from_le_bytes(header[14..].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(NetError::Protocol(format!(
            "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    frame.left = len as usize;
    let decoded = decode(header[5], &mut frame)?;
    frame.done()?;
    Ok(Polled::Frame(id, decoded))
}

/// A blocking reader's frame: never idle, and another version an error.
fn whole<T>(polled: Polled<T>) -> Result<(u64, T), NetError> {
    match polled {
        Polled::Frame(id, frame) => Ok((id, frame)),
        Polled::WrongVersion(peer) => Err(NetError::Protocol(version_mismatch(peer))),
        Polled::Idle | Polled::Closed => Err(NetError::Timeout),
    }
}

/// A request's payload is read whole, into the buffer a bulk op keeps
/// as its [`Body`].
fn request_frame<R: Read>(opcode: u8, frame: &mut Frame<'_, R>) -> Result<Request, NetError> {
    Request::decode(opcode, frame.body(frame.left)?)
}

/// Read one request frame from a server connection's socket (see
/// [`Polled`]): idle only ever between frames.
pub fn read_request_polling(r: &mut impl Read, stop: &AtomicBool) -> Polled<Request> {
    poll(r, Some(stop), request_frame).unwrap_or(Polled::Closed)
}

/// Read one response frame from a client connection's socket. Same
/// sync discipline as [`read_request_polling`].
pub fn read_response_polling(r: &mut impl Read, stop: &AtomicBool) -> Polled<Response> {
    poll(r, Some(stop), Response::read).unwrap_or(Polled::Closed)
}

/// Writes one request frame, tagged with the id it is given, onto a
/// connection — a closure, so a bulk write can send from buffers it only
/// borrows ([`write_put_many`], [`write_obj_bytes`]) where everything
/// else sends an owned [`Request`] ([`write_request`]). A frame over
/// [`MAX_PAYLOAD`] is [`NetError::TooLarge`], and nothing of it is
/// written.
pub(crate) type SendFrame<'a> = &'a dyn Fn(&mut std::net::TcpStream, u64) -> Result<(), NetError>;

/// Serialise one request tagged `id` onto a stream.
///
/// # Errors
/// I/O failure, or an oversized payload ([`NetError::TooLarge`]).
pub fn write_request(w: &mut impl Write, id: u64, req: &Request) -> Result<(), NetError> {
    let mut parts = Parts::default();
    req.encode(&mut parts);
    parts.send(w, req.opcode(), id)
}

/// Send `runs` (all of `cell_len`-byte cells) as one
/// [`Request::PutMany`] tagged `id`, straight from the caller's buffers.
///
/// # Errors
/// I/O failure, or an oversized payload.
pub fn write_put_many(
    w: &mut impl Write,
    id: u64,
    cell_len: u32,
    runs: &[WriteRun<'_>],
) -> Result<(), NetError> {
    let mut parts = Parts::default();
    put_u32(&mut parts.small, cell_len);
    put_runs(
        &mut parts.small,
        runs.iter().map(|r| (r.start, r.count() as u32)),
    );
    for run in runs {
        parts.bulk(run.bytes);
    }
    parts.send(w, OP_PUT_MANY, id)
}

/// Send `bytes` tagged `id` as a [`Request::ObjPut`], straight from
/// the caller's buffer.
///
/// # Errors
/// I/O failure, or an oversized payload.
pub fn write_obj_bytes(
    w: &mut impl Write,
    id: u64,
    tenant: &str,
    object: &str,
    bytes: &[u8],
) -> Result<(), NetError> {
    let mut parts = Parts::default();
    obj_put_head(&mut parts.small, tenant, object, bytes.len());
    parts.bulk(bytes);
    parts.send(w, OP_OBJ_PUT, id)
}

/// Read one request frame off a stream: its id and the request.
///
/// # Errors
/// I/O failure or a malformed frame.
pub fn read_request(r: &mut impl Read) -> Result<(u64, Request), NetError> {
    whole(poll(r, None, request_frame)?)
}

/// Serialise one response, answering request `id`, onto a stream.
///
/// # Errors
/// I/O failure, or an oversized payload.
pub fn write_response(w: &mut impl Write, id: u64, resp: &Response) -> Result<(), NetError> {
    let mut parts = Parts::default();
    resp.encode(&mut parts);
    parts.send(w, resp.opcode(), id)
}

/// Read one response frame off a stream: the id of the request it
/// answers, and the response.
///
/// # Errors
/// I/O failure or a malformed frame.
pub fn read_response(r: &mut impl Read) -> Result<(u64, Response), NetError> {
    whole(poll(r, None, Response::read)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `payload` as the frame a peer would send it in.
    fn frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
        let (small, bulk, mut buf) = (payload.to_vec(), Vec::new(), Vec::new());
        Parts { small, bulk }.send(&mut buf, opcode, 1).unwrap();
        buf
    }

    fn roundtrip_request(req: Request) {
        for id in [0, 42, u64::MAX] {
            let mut buf = Vec::new();
            write_request(&mut buf, id, &req).unwrap();
            assert_eq!(
                read_request(&mut buf.as_slice()).unwrap(),
                (id, req.clone())
            );
        }
    }

    fn roundtrip_response(resp: Response) {
        for id in [0, 9, 1 << 50] {
            let mut buf = Vec::new();
            write_response(&mut buf, id, &resp).unwrap();
            let got = read_response(&mut buf.as_slice()).unwrap();
            assert_eq!(got, (id, resp.clone()));
        }
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Read {
            runs: vec![(42, 1)],
        });
        // Unsorted, repeated and far-apart runs.
        roundtrip_request(Request::Read {
            runs: vec![(1 << 40, 4096), (7, 1), (7, 1), (u64::MAX, u32::MAX)],
        });
        roundtrip_request(Request::Read { runs: vec![] });
        roundtrip_request(Request::PutMany {
            runs: vec![(u64::MAX - 1, 1), (0, 2)],
            cell_len: 2,
            bytes: vec![1, 2, 3, 0, 255, 9].into(),
        });
        roundtrip_request(Request::PutMany {
            runs: vec![],
            cell_len: 0,
            bytes: vec![].into(),
        });
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Wipe);
    }

    #[test]
    fn object_op_roundtrips() {
        roundtrip_request(Request::ObjPut {
            tenant: "web".into(),
            object: "profile.json".into(),
            bytes: vec![7; 300].into(),
        });
        roundtrip_request(Request::ObjPut {
            tenant: "t".into(),
            object: "empty".into(),
            bytes: vec![].into(),
        });
        roundtrip_request(Request::ObjPut {
            tenant: "".into(),
            object: "naïve/名前".into(),
            bytes: vec![0, 1, 255].into(),
        });
        roundtrip_request(Request::ObjGet {
            tenant: "t".into(),
            object: "o".into(),
            start: 1 << 40,
            len: u64::MAX,
        });
        roundtrip_request(Request::ObjStat {
            tenant: "t".into(),
            object: "o".into(),
        });
        roundtrip_request(Request::ObjDelete {
            tenant: "t".into(),
            object: "o".into(),
        });
        roundtrip_response(Response::ObjAck);
        roundtrip_response(Response::ObjData(vec![9; 4096]));
        roundtrip_response(Response::ObjData(vec![]));
        roundtrip_response(Response::ObjStat { len: u64::MAX });
        // Non-UTF-8 tenant bytes are a protocol error, not garbage.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            1,
            &Request::ObjStat {
                tenant: "ab".into(),
                object: "o".into(),
            },
        )
        .unwrap();
        let tenant_start = HEADER_LEN + 4; // header + tenant len
        buf[tenant_start] = 0xFF;
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn combine_range_roundtrips() {
        roundtrip_request(Request::CombineRange(CombineSpec {
            offset: 0,
            count: 1,
            outputs: 1,
            coeffs: vec![7],
            key: (0, 0),
            peers: vec![],
        }));
        roundtrip_request(Request::CombineRange(CombineSpec {
            offset: 1 << 40,
            count: 3,
            outputs: 3,
            coeffs: vec![1, 0, 0, 0, 2, 0, 0, 0, 3],
            key: (u64::MAX, 0xDEAD_BEEF_CAFE_F00D),
            peers: vec![
                CombinePeerSpec {
                    addr: "127.0.0.1:9001".into(),
                    offset: 12,
                    count: 3,
                    coeffs: vec![9; 9],
                },
                CombinePeerSpec {
                    addr: "[::1]:80".into(),
                    offset: 0,
                    count: 1,
                    coeffs: vec![0, 0, 255],
                },
            ],
        }));
        roundtrip_response(Response::Combined(CombineReply {
            regions: vec![],
            local_status: vec![],
            peer_status: vec![],
        }));
        roundtrip_response(Response::Combined(CombineReply {
            regions: vec![vec![1; 32], vec![], vec![0xAB; 4096]],
            local_status: vec![0, 2, 1],
            peer_status: vec![0, 3],
        }));
    }

    /// The two combine variants carry `ecfrm-sim`'s types since PR 19;
    /// the payloads are byte for byte what the loose fields encoded to
    /// (captured at the commit before), behind the v6 header.
    #[test]
    fn combine_frames_are_the_bytes_they_always_were() {
        let mut buf = Vec::new();
        let req = Request::CombineRange(CombineSpec {
            offset: 3,
            count: 2,
            outputs: 1,
            coeffs: vec![7, 9],
            key: (0x0102_0304_0506_0708, 0x1112_1314_1516_1718),
            peers: vec![CombinePeerSpec {
                addr: "a:1".into(),
                offset: 5,
                count: 1,
                coeffs: vec![4],
            }],
        });
        write_request(&mut buf, 7, &req).unwrap();
        #[rustfmt::skip]
        assert_eq!(buf, [
            b'E', b'F', b'R', b'M', 6, 10, // v6, op 10
            7, 0, 0, 0, 0, 0, 0, 0, 66, 0, 0, 0, // id 7, 66 B
            3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, // offset, count, outputs
            2, 0, 0, 0, 7, 9, // coeffs
            8, 7, 6, 5, 4, 3, 2, 1, 24, 23, 22, 21, 20, 19, 18, 17, // k0, k1
            1, 0, 0, 0, // one peer:
            3, 0, 0, 0, b'a', b':', b'1', 5, 0, 0, 0, 0, 0, 0, 0, // addr, offset
            1, 0, 0, 0, 1, 0, 0, 0, 4, // count, coeffs
        ]);
        let mut buf = Vec::new();
        let resp = Response::Combined(CombineReply {
            regions: vec![vec![0xAB, 0xCD]],
            local_status: vec![0, 2],
            peer_status: vec![3],
        });
        write_response(&mut buf, 7, &resp).unwrap();
        #[rustfmt::skip]
        assert_eq!(buf, [
            b'E', b'F', b'R', b'M', 6, 138, // v6, op 138
            7, 0, 0, 0, 0, 0, 0, 0, 21, 0, 0, 0, // id 7, 21 B
            1, 0, 0, 0, 2, 0, 0, 0, 0xAB, 0xCD, // one region
            2, 0, 0, 0, 0, 2, // local verdicts
            1, 0, 0, 0, 3, // peer verdicts
        ]);
    }

    /// Many requests share one stream, each tagged with its own id, and
    /// are read back in the order they were written, ids and all.
    #[test]
    fn mux_request_roundtrips() {
        let reqs = [
            (0, Request::Health),
            (
                u64::MAX,
                Request::Read {
                    runs: vec![(1 << 33, 512), (3, 2)],
                },
            ),
            (
                42,
                Request::PutMany {
                    runs: vec![(3, 3)],
                    cell_len: 1,
                    bytes: vec![1, 2, 3].into(),
                },
            ),
        ];
        let mut stream = Vec::new();
        for (id, req) in &reqs {
            write_request(&mut stream, *id, req).unwrap();
        }
        let mut r = stream.as_slice();
        for want in reqs {
            assert_eq!(read_request(&mut r).unwrap(), want);
        }
        assert!(r.is_empty());
    }

    /// Replies likewise, in whatever order their requests completed.
    #[test]
    fn mux_response_roundtrips() {
        let resps = [
            (9, Response::Cells(vec![Some(vec![5; 16]), None])),
            (1 << 50, Response::Error("shard offline".into())),
            (3, Response::Put),
        ];
        let mut stream = Vec::new();
        for (id, resp) in &resps {
            write_response(&mut stream, *id, resp).unwrap();
        }
        let mut r = stream.as_slice();
        for want in resps {
            assert_eq!(read_response(&mut r).unwrap(), want);
        }
        assert!(r.is_empty());
    }

    /// `write_put_many` (borrowed runs, no payload built) and
    /// `write_request` (an owned `PutMany`) put the same frame on the
    /// wire, and the decoded body is the run bytes; likewise
    /// `write_obj_bytes` and an owned `ObjPut`.
    #[test]
    fn borrowed_put_many_is_the_same_frame() {
        let cells: Vec<u8> = (0..40).collect();
        let runs = [
            WriteRun {
                start: 7,
                cell_len: 8,
                bytes: &cells[..24],
            },
            WriteRun {
                start: 100,
                cell_len: 8,
                bytes: &cells[24..],
            },
        ];
        let want = Request::PutMany {
            runs: vec![(7, 3), (100, 2)],
            cell_len: 8,
            bytes: cells.clone().into(),
        };
        let (mut borrowed, mut whole) = (Vec::new(), Vec::new());
        write_put_many(&mut borrowed, 0xABCD, 8, &runs).unwrap();
        write_request(&mut whole, 0xABCD, &want).unwrap();
        assert_eq!(borrowed, whole);
        assert_eq!(
            read_request(&mut borrowed.as_slice()).unwrap(),
            (0xABCD, want)
        );
        let want = Request::ObjPut {
            tenant: "t".into(),
            object: "o".into(),
            bytes: cells.clone().into(),
        };
        let (mut borrowed, mut whole) = (Vec::new(), Vec::new());
        write_obj_bytes(&mut borrowed, 5, "t", "o", &cells).unwrap();
        write_request(&mut whole, 5, &want).unwrap();
        assert_eq!(borrowed, whole);
        assert_eq!(read_request(&mut borrowed.as_slice()).unwrap(), (5, want));
    }

    /// Frames that lie about their own shape are refused at decode
    /// without allocating for what they claim; what a run table says
    /// about its *cells* is the server's to refuse (see `server.rs`).
    #[test]
    fn a_run_table_must_fit_the_frame() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 4096); // cell_len
        put_u32(&mut payload, u32::MAX); // 4 Gi runs claimed...
        payload.extend_from_slice(&[0; 24]); // ...two shipped
        let err = Request::decode(OP_PUT_MANY, payload).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
        // The same table under a `Read`.
        let mut read = Vec::new();
        put_u32(&mut read, 3);
        read.extend_from_slice(&[0; 24]);
        let err = Request::decode(OP_READ, read).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
        // An object put whose length field disagrees with the frame,
        // either way.
        for (claimed, shipped) in [(100, 10), (10, 100)] {
            let mut payload = Vec::new();
            obj_put_head(&mut payload, "t", "o", claimed);
            payload.extend(std::iter::repeat_n(9, shipped));
            assert!(matches!(
                Request::decode(OP_OBJ_PUT, payload),
                Err(NetError::Protocol(_))
            ));
        }
    }

    /// Retired opcodes are unknown opcodes now: the `Mux` envelope's
    /// (9, 137), version 3's create (11) and version 4's append (12),
    /// whose payload is still a well-formed `ObjPut`'s.
    #[test]
    fn retired_opcodes_are_refused() {
        let mut put = Vec::new();
        obj_put_head(&mut put, "t", "o", 1);
        put.push(7);
        for (op, payload) in [(9, vec![0; 10]), (11, put.clone()), (12, put)] {
            let err = Request::decode(op, payload).unwrap_err();
            let want = format!("unknown request opcode {op}");
            assert!(err.to_string().contains(&want), "{err}");
        }
        let err = read_response(&mut frame(137, &[0; 10]).as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("unknown response opcode 137"),
            "{err}"
        );
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Put);
        roundtrip_response(Response::Cells(vec![]));
        roundtrip_response(Response::Cells(vec![Some(vec![7; 32])]));
        roundtrip_response(Response::Cells(vec![None; 3]));
        // Stored and absent interleaved, with an empty stored cell.
        roundtrip_response(Response::Cells(vec![
            Some(vec![1, 2, 3]),
            None,
            Some(vec![]),
            None,
            Some(vec![0xFF; 4096]),
        ]));
        roundtrip_response(Response::Health { elements: 12345 });
        roundtrip_response(Response::Wiped);
        roundtrip_response(Response::Stats(vec![]));
        roundtrip_response(Response::Stats(vec![
            ("serve.read".into(), 42),
            ("serve_us.p99".into(), u64::MAX),
            ("net.retries".into(), 0),
        ]));
        roundtrip_response(Response::Error("disk on fire".into()));
    }

    /// A writer that counts calls and takes at most `chunk` bytes each.
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
        chunk: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for b in bufs {
                let room = self.chunk - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_survives_partial_writes() {
        let resp = Response::ObjData(vec![7u8; 32 * 1024]);
        let mut whole = CountingWriter {
            bytes: Vec::new(),
            calls: 0,
            chunk: usize::MAX,
        };
        write_response(&mut whole, 3, &resp).unwrap();
        assert_eq!(whole.calls, 1, "header and payload leave together");
        // A writer that takes 7 bytes a call splits header and payload
        // at every possible place; the frame must still arrive whole.
        let mut dribble = CountingWriter {
            bytes: Vec::new(),
            calls: 0,
            chunk: 7,
        };
        write_response(&mut dribble, 3, &resp).unwrap();
        assert_eq!(dribble.bytes, whole.bytes);
        assert_eq!(
            read_response(&mut dribble.bytes.as_slice()).unwrap(),
            (3, resp)
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &Request::Health).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &Request::Health).unwrap();
        buf[4] = 2;
        let err = read_request(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(&err, NetError::Protocol(m) if m == &version_mismatch(2)));
        assert!(err
            .to_string()
            .contains("peer speaks 2, this node speaks 6"));
        // The polling reader names the version too, and reads no further:
        // five bytes are all an older peer's header need share with ours.
        let stop = std::sync::atomic::AtomicBool::new(false);
        assert!(matches!(
            read_request_polling(&mut &buf[..5], &stop),
            Polled::WrongVersion(2)
        ));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &Request::Health).unwrap();
        buf[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            1,
            &Request::Read {
                runs: vec![(5, 1); 8],
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let req = Request::Read { runs: vec![(3, 1)] };
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &req).unwrap();
        let mut payload = buf.split_off(HEADER_LEN);
        payload.push(0xEE);
        assert!(matches!(
            Request::decode(OP_READ, payload),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn retired_fault_tag_rejected() {
        // Opcode 5 carried a fault tag (fail, heal, wipe, and once a
        // straggle delay); it is `Wipe` now, whose payload is empty.
        for tag in [0u8, 1, 2, 3] {
            let err = Request::decode(OP_WIPE, vec![tag]).unwrap_err();
            assert!(err.to_string().contains("trailing bytes"), "{err}");
        }
    }

    #[test]
    fn bad_cell_status_rejected() {
        // count=1, one status byte: only 0 (missing) and 1 (stored) are
        // defined, and 2 is version 5's "corrupt".
        for status in [2, 3, 255] {
            let mut payload = Vec::new();
            put_u32(&mut payload, 1);
            payload.push(status);
            let err = read_response(&mut frame(RESP_CELLS, &payload).as_slice()).unwrap_err();
            assert!(err.to_string().contains("cell status"), "{err}");
        }
    }

    #[test]
    fn cells_reply_cannot_claim_more_than_its_frame() {
        // 4 Gi cells claimed, three status bytes shipped: refused on the
        // count alone, nothing allocated for it.
        let mut payload = Vec::new();
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(&[0; 3]);
        assert!(matches!(
            read_response(&mut frame(RESP_CELLS, &payload).as_slice()),
            Err(NetError::Protocol(_))
        ));
        // A stored cell whose bytes the frame does not hold.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        payload.push(1); // stored...
        put_u32(&mut payload, 100); // ...claiming 100 bytes
        payload.extend_from_slice(&[9; 10]); // but shipping 10
        assert!(matches!(
            read_response(&mut frame(RESP_CELLS, &payload).as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn timeout_errors_classified() {
        let e: NetError = std::io::Error::new(std::io::ErrorKind::WouldBlock, "slow").into();
        assert!(matches!(e, NetError::Timeout));
        let e: NetError = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert!(matches!(e, NetError::Timeout));
        let e: NetError = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "gone").into();
        assert!(matches!(e, NetError::Io(_)));
    }

    #[test]
    fn an_oversized_frame_stays_typed_as_a_store_error() {
        use ecfrm_store::StoreError;
        let e: StoreError = NetError::TooLarge("70000000 bytes".into()).into();
        assert!(matches!(e, StoreError::TooLarge(_)), "{e:?}");
        let e: StoreError = NetError::Timeout.into();
        assert!(matches!(e, StoreError::Net(_)), "{e:?}");
    }
}
