//! Everything the benchmark makes from `--seed`: object contents and
//! the op lists the clients replay. The program under test sees only
//! the requests; nothing here reads a clock or shared state, so a seed
//! names one run's inputs exactly.

use ecfrm_sim::{NormalReadWorkload, Zipf};
use ecfrm_util::Rng;

/// Element size of every workload, bytes.
pub const ELEMENT: u64 = 4096;

/// Object ids at and above this are the ones `ingest_mix` writes during
/// the measured phase (named `w<n>`); below it, the ingested dataset
/// (named `o<n>`).
pub const WRITTEN: u64 = 1 << 32;

/// The wire name of object `id`.
pub fn object_name(id: u64) -> String {
    if id >= WRITTEN {
        format!("w{}", id - WRITTEN)
    } else {
        format!("o{id}")
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent stream seed for (`seed`, `tag`, `round`, `client`).
pub fn stream(seed: u64, tag: u64, round: u64, client: u64) -> u64 {
    mix(mix(mix(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ round) ^ (client << 32))
}

/// 8-byte word `i` of the object whose content key is `base`.
fn word(base: u64, i: u64) -> u64 {
    let x = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (x ^ (x >> 29)).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

fn content_key(seed: u64, object: u64) -> u64 {
    mix(seed ^ mix(object.wrapping_add(0x51AF_D7ED_558C_CD1B)))
}

/// The reference bytes `[offset, offset + len)` of `object`: a pure
/// function of `(seed, object, offset)`, so neither the writer nor the
/// checker keeps a copy and `peak_rss_mb` measures the program.
///
/// # Panics
/// Panics unless `offset` is a multiple of 8.
pub fn fill(seed: u64, object: u64, offset: u64, len: usize) -> Vec<u8> {
    assert!(
        offset.is_multiple_of(8),
        "reference data is generated in 8-byte words"
    );
    let base = content_key(seed, object);
    let mut out = vec![0u8; len];
    let mut i = offset / 8;
    let mut chunks = out.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&word(base, i).to_le_bytes());
        i += 1;
    }
    let rest = chunks.into_remainder();
    let n = rest.len();
    rest.copy_from_slice(&word(base, i).to_le_bytes()[..n]);
    out
}

/// True when `reply` is exactly the reference bytes of `object` from
/// `offset` on — compared word by word against the regenerated stream,
/// no reference copy held.
pub fn matches(seed: u64, object: u64, offset: u64, want_len: u64, reply: &[u8]) -> bool {
    if reply.len() as u64 != want_len || !offset.is_multiple_of(8) {
        return false;
    }
    let base = content_key(seed, object);
    let mut i = offset / 8;
    let mut chunks = reply.chunks_exact(8);
    for c in &mut chunks {
        if c != word(base, i).to_le_bytes() {
            return false;
        }
        i += 1;
    }
    let rest = chunks.remainder();
    rest == &word(base, i).to_le_bytes()[..rest.len()]
}

/// One read a client issues: `len` bytes of `object` from byte `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    /// Object id (see [`object_name`]).
    pub object: u64,
    /// First byte.
    pub start: u64,
    /// Byte count.
    pub len: u64,
}

/// The paper's §VI-B reads (§VI-C's are the same shapes with a disk
/// down): uniformly random start element, 1–20 elements, here cut at
/// the object's end so every request is one `read_range`.
///
/// The starts are `NormalReadWorkload::paper`'s. The sizes are dealt,
/// not drawn: every list holds each size equally often (to within one),
/// in an order of its own. On 1 ms disks a read's latency comes in
/// steps of its size (nine disks: 1–9 elements load the busiest disk
/// once, 10–18 twice), and `read_p50_us` sits just above the first
/// step. With drawn sizes the quietest rounds of a run were the ones
/// whose lists happened to hold the most small reads, and
/// `paper_read`'s `read_p50_us` spread 9.9 % over ten runs; dealt, the
/// same ten seeds spread 0.5 %.
pub fn range_reads(stream_seed: u64, n: usize, objects: u64, object_bytes: u64) -> Vec<ReadOp> {
    let per_object = object_bytes / ELEMENT;
    let workload = NormalReadWorkload {
        trials: n,
        ..NormalReadWorkload::paper(objects * per_object)
    };
    let span = workload.max_size - workload.min_size + 1;
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| (workload.min_size + i % span) as u64)
        .collect();
    Rng::seed_from_u64(mix(stream_seed)).shuffle(&mut sizes);
    workload
        .generate(stream_seed)
        .into_iter()
        .zip(sizes)
        .map(|(r, size)| {
            let first = r.start % per_object;
            let elements = size.min(per_object - first);
            ReadOp {
                object: r.start / per_object,
                start: first * ELEMENT,
                len: elements * ELEMENT,
            }
        })
        .collect()
}

/// Whole-object reads with zipf popularity over `universe` objects.
/// Rank `r` is object `r · stride mod universe` (`stride` coprime with
/// `universe`), so hot objects do not share stripes.
pub struct ZipfReads {
    zipf: Zipf,
    universe: u64,
    stride: u64,
    object_bytes: u64,
}

impl ZipfReads {
    /// A sampler over `universe` objects of `object_bytes` with zipf
    /// exponent `s`.
    pub fn new(universe: u64, object_bytes: u64, s: f64) -> Self {
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        // First stride at or above the golden-ratio point that is
        // coprime with the universe.
        let mut stride = (universe as f64 * 0.618) as u64 | 1;
        while gcd(stride, universe) != 1 {
            stride += 2;
        }
        Self {
            zipf: Zipf::new(universe as usize, s),
            universe,
            stride,
            object_bytes,
        }
    }

    fn object_of_rank(&self, rank: u64) -> u64 {
        rank * self.stride % self.universe
    }

    /// Draw one read.
    pub fn draw(&self, rng: &mut Rng) -> ReadOp {
        let rank = self.zipf.sample(rng) as u64;
        ReadOp {
            object: self.object_of_rank(rank),
            start: 0,
            len: self.object_bytes,
        }
    }

    /// `n` reads from the stream named by `stream_seed`.
    pub fn reads(&self, stream_seed: u64, n: usize) -> Vec<ReadOp> {
        let mut rng = Rng::seed_from_u64(stream_seed);
        (0..n).map(|_| self.draw(&mut rng)).collect()
    }

    /// `ingest_mix`'s reader: zipf over the hot set, and every fifth op
    /// one of the `recent` written objects (ids `newest - recent ..
    /// newest`, all sealed before the round starts) read whole.
    pub fn reads_with_recent(
        &self,
        stream_seed: u64,
        n: usize,
        newest: u64,
        recent: u64,
        written_bytes: u64,
    ) -> Vec<ReadOp> {
        let mut rng = Rng::seed_from_u64(stream_seed);
        (0..n)
            .map(|i| {
                if i % 5 == 4 && newest > 0 {
                    let back = rng.bounded(recent.min(newest));
                    ReadOp {
                        object: WRITTEN + newest - 1 - back,
                        start: 0,
                        len: written_bytes,
                    }
                } else {
                    self.draw(&mut rng)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_list_other_seed_other_list() {
        let a = range_reads(stream(7, 1, 3, 0), 500, 48, 1 << 20);
        let b = range_reads(stream(7, 1, 3, 0), 500, 48, 1 << 20);
        assert_eq!(a, b);
        assert_ne!(a, range_reads(stream(8, 1, 3, 0), 500, 48, 1 << 20));
        assert_ne!(a, range_reads(stream(7, 1, 4, 0), 500, 48, 1 << 20));
        assert_ne!(a, range_reads(stream(7, 1, 3, 1), 500, 48, 1 << 20));

        let z = ZipfReads::new(4104, 32 << 10, 1.0);
        assert_eq!(
            z.reads(stream(7, 2, 0, 1), 500),
            z.reads(stream(7, 2, 0, 1), 500)
        );
        assert_eq!(
            z.reads_with_recent(stream(7, 3, 5, 1), 500, 40, 16, 256 << 10),
            z.reads_with_recent(stream(7, 3, 5, 1), 500, 40, 16, 256 << 10)
        );
    }

    #[test]
    fn range_reads_are_the_papers_shapes_inside_one_object() {
        let per_object = (1u64 << 20) / ELEMENT;
        for op in range_reads(11, 5000, 48, 1 << 20) {
            assert!(op.object < 48);
            assert_eq!(op.start % ELEMENT, 0);
            assert_eq!(op.len % ELEMENT, 0);
            let elements = op.len / ELEMENT;
            assert!((1..=20).contains(&elements));
            assert!(op.start / ELEMENT + elements <= per_object);
        }
        // Sizes are dealt, not drawn: where no read is cut at an
        // object's end (one huge object), each comes up equally often.
        let mut dealt = [0usize; 21];
        for op in range_reads(11, 5000, 1, 1 << 30) {
            dealt[(op.len / ELEMENT) as usize] += 1;
        }
        assert!(dealt[1..].iter().all(|&c| c == 250), "{dealt:?}");
    }

    #[test]
    fn zipf_ranks_scatter_over_the_whole_universe_and_skew_to_the_head() {
        let z = ZipfReads::new(4104, 32 << 10, 1.0);
        let ops = z.reads(5, 50_000);
        let hottest = z.object_of_rank(0);
        let head = ops.iter().filter(|o| o.object == hottest).count();
        assert!(head > 50_000 / 20, "rank 0 drew only {head} of 50000");
        let distinct: std::collections::BTreeSet<u64> = ops.iter().map(|o| o.object).collect();
        assert!(distinct.len() > 2000 && distinct.iter().all(|&o| o < 4104));
    }

    #[test]
    fn recent_reads_are_every_fifth_and_only_sealed_objects() {
        let z = ZipfReads::new(256, 32 << 10, 1.0);
        let ops = z.reads_with_recent(9, 1000, 100, 16, 256 << 10);
        for (i, op) in ops.iter().enumerate() {
            if i % 5 == 4 {
                let id = op.object - WRITTEN;
                assert!((84..100).contains(&id), "recent id {id}");
                assert_eq!(op.len, 256 << 10);
            } else {
                assert!(op.object < 256);
            }
        }
        // Nothing written yet: the fifth op falls back to the hot set.
        assert!(z
            .reads_with_recent(9, 100, 0, 16, 256 << 10)
            .iter()
            .all(|o| o.object < 256));
    }

    #[test]
    fn reference_bytes_depend_on_seed_object_and_offset_only() {
        let whole = fill(3, 17, 0, 3 * ELEMENT as usize);
        let part = fill(3, 17, ELEMENT, ELEMENT as usize);
        assert_eq!(&whole[ELEMENT as usize..2 * ELEMENT as usize], &part[..]);
        assert!(matches(3, 17, ELEMENT, ELEMENT, &part));
        assert!(!matches(3, 18, ELEMENT, ELEMENT, &part));
        assert!(!matches(4, 17, ELEMENT, ELEMENT, &part));
        assert!(!matches(3, 17, 0, ELEMENT, &part));
        assert!(!matches(3, 17, ELEMENT, ELEMENT + 8, &part));
        let mut flipped = part.clone();
        flipped[4095] ^= 1;
        assert!(!matches(3, 17, ELEMENT, ELEMENT, &flipped));
        // Lengths that are not a word multiple still round-trip.
        let odd = fill(3, 17, 8, 21);
        assert!(matches(3, 17, 8, 21, &odd));
        assert_eq!(&odd[..16], &whole[8..24]);
    }
}
