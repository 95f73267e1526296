//! Stream extents, the front door's extent records, stripe integrity
//! manifests, and store statistics.

use ecfrm_integrity::{leaf_hash, HashKey, MerkleStep, MerkleTree};

/// An extent: where a run of appended bytes lives in the logical byte
/// stream, as [`ObjectStore::append`](crate::ObjectStore::append)
/// returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Byte offset in the append-only logical stream.
    pub offset: u64,
    /// Extent length in bytes.
    pub len: u64,
}

impl ObjectMeta {
    /// Inclusive first and exclusive last *data element* the object
    /// spans, for `element_size`-byte elements; `None` when
    /// `offset + len` does not fit the stream's `u64` offsets (an
    /// extent the store never handed out).
    pub fn element_range(&self, element_size: usize) -> Option<(u64, u64)> {
        let es = element_size as u64;
        let first = self.offset / es;
        let last = self.offset.checked_add(self.len)?.div_ceil(es);
        Some((first, last.max(first)))
    }

    /// Which bytes of data element `e`, `element_size` of them, lie
    /// inside this range: all of them, except where the first and last
    /// element stick out.
    pub(crate) fn part_of(&self, e: u64, element_size: usize) -> std::ops::Range<usize> {
        let start = e * element_size as u64;
        let from = self.offset.saturating_sub(start) as usize;
        let to = (self.offset + self.len - start).min(element_size as u64) as usize;
        from..to
    }
}

/// A named object's extent map — the front door's namespace record,
/// kept next to the [`StripeManifest`]s as the store's per-object
/// metadata (scfs-style: an object is an ordered list of extents over
/// the append-only stream, so appends never rewrite data in place).
///
/// Each write to an object appends one [`ObjectMeta`] extent (a stream
/// location returned by
/// [`ObjectStore::append`](crate::ObjectStore::append)); a read
/// concatenates the extents in order. Deleting an object drops the
/// record — the underlying stream bytes are unreferenced garbage until
/// a future compaction pass, exactly like a real append-only store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtentRecord {
    /// Stream extents in append order; the object's bytes are their
    /// concatenation.
    pub extents: Vec<ObjectMeta>,
    /// Bumped on every mutation (create = 1), so cached stats can be
    /// recognized as stale.
    pub version: u64,
}

impl ExtentRecord {
    /// Total object length in bytes.
    pub fn len(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Whether the object holds no bytes yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Map the object-relative byte range `start .. start + len` to
    /// `(extent, offset_within_extent, run_len)` pieces in read order.
    /// Pieces never cross extent boundaries.
    pub fn slices(&self, start: u64, len: u64) -> Vec<(ObjectMeta, u64, u64)> {
        let mut out = Vec::new();
        let (mut pos, end) = (0u64, start + len);
        for e in &self.extents {
            let (a, b) = (pos.max(start), (pos + e.len).min(end));
            if a < b {
                out.push((*e, a - pos, b - a));
            }
            pos += e.len;
            if pos >= end {
                break;
            }
        }
        out
    }
}

/// What [`FrontDoor::stat`](crate::front::FrontDoor::stat) reports for
/// a named object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStat {
    /// Object length in bytes (sum over extents).
    pub len: u64,
    /// Mutation version (create = 1, +1 per write).
    pub version: u64,
    /// Number of stream extents backing the object.
    pub extents: usize,
}

/// Per-read instrumentation returned by
/// [`ObjectStore::read`](crate::ObjectStore::read).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReadStats {
    /// Data elements the request spanned.
    pub requested_elements: usize,
    /// Elements physically fetched (demand + repair).
    pub fetched_elements: usize,
    /// Elements fetched only for reconstruction.
    pub repair_elements: usize,
    /// Elements served by the most-loaded disk.
    pub max_disk_load: usize,
    /// Degraded-read cost (fetched / requested).
    pub cost: f64,
    /// Whether the read was planned around failed disks.
    pub degraded: bool,
    /// Times the read re-planned after a disk stopped answering
    /// mid-read (normal plan → degraded plan fallback).
    pub replans: usize,
    /// Wall-clock time of the parallel fetch + reconstruction.
    pub elapsed: std::time::Duration,
}

/// Outcome of rebuilding one stripe of one disk
/// ([`ObjectStore::repair_stripe`](crate::ObjectStore::repair_stripe)) —
/// the unit of work of the background repair pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StripeRepair {
    /// Elements rebuilt and written back.
    pub elements: usize,
    /// Source bytes fetched from surviving disks.
    pub bytes_read: u64,
    /// Rebuilt bytes written to the target disk.
    pub bytes_written: u64,
}

/// The integrity manifest of one sealed stripe: a merkle tree over the
/// stripe's element payloads in layout order (row by row, data then
/// parity within each row).
///
/// The 128-bit [`root`](Self::root) is the stripe's identity. A scrub
/// — or any reader holding nothing but the root — can check a single
/// element in O(log n) hashes via [`verify_element`](Self::verify_element),
/// and a mismatch localizes to that exact element without decoding the
/// stripe or touching its siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeManifest {
    tree: MerkleTree,
}

impl StripeManifest {
    /// Wrap a built merkle tree (leaves must be in layout order).
    pub fn new(tree: MerkleTree) -> Self {
        StripeManifest { tree }
    }

    /// The stripe's merkle root.
    pub fn root(&self) -> u128 {
        self.tree.root()
    }

    /// Number of elements (leaves) the manifest covers.
    pub fn n_elements(&self) -> usize {
        self.tree.n_leaves()
    }

    /// The O(log n) inclusion proof for the element at `index`.
    pub fn proof(&self, index: usize) -> Vec<MerkleStep> {
        self.tree.proof(index)
    }

    /// Verify `payload` as the element at `index` against the root via
    /// its merkle path — O(log n) hashes, trusting only the root.
    pub fn verify_element(&self, key: &HashKey, index: usize, payload: &[u8]) -> bool {
        let leaf = leaf_hash(key, index as u64, payload);
        MerkleTree::verify(key, self.root(), leaf, &self.proof(index))
    }
}

/// Outcome of a scrub ([`ObjectStore::scrub`](crate::ObjectStore::scrub)
/// verifies merkle manifests;
/// [`ObjectStore::scrub_decode`](crate::ObjectStore::scrub_decode)
/// re-derives parity equations).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Stripes examined.
    pub stripes_checked: u64,
    /// Groups whose recomputed parity disagreed with storage, as
    /// `(stripe, group)` pairs. The merkle scrub derives the group from
    /// the offending element; the decode scrub cannot do better than
    /// this granularity.
    pub corrupt_groups: Vec<(u64, usize)>,
    /// Exact elements whose checksum or merkle path failed, as
    /// `(stripe, element index in layout order)` pairs. Only the merkle
    /// scrub can localize this precisely; the decode scrub leaves it
    /// empty.
    pub corrupt_elements: Vec<(u64, usize)>,
    /// Elements that could not be read at all.
    pub missing_elements: usize,
}

impl ScrubReport {
    /// True when no corruption or missing element was found.
    pub fn is_clean(&self) -> bool {
        self.corrupt_groups.is_empty()
            && self.corrupt_elements.is_empty()
            && self.missing_elements == 0
    }
}

/// A snapshot of store occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Logical bytes appended, flush padding included.
    pub logical_bytes: u64,
    /// Data elements sealed into stripes so far.
    pub sealed_elements: u64,
    /// Full stripes written.
    pub stripes: u64,
    /// Bytes sitting in the unsealed write buffer.
    pub pending_bytes: usize,
    /// Disks planned around: failed, rebuilding or given up on.
    pub failed_disks: Vec<usize>,
    /// Disks a read or a repair found silent or lying, not yet probed.
    pub suspect_disks: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_range_basics() {
        let m = ObjectMeta { offset: 0, len: 10 };
        assert_eq!(m.element_range(4), Some((0, 3))); // bytes 0..10 -> elems 0,1,2
        let m = ObjectMeta { offset: 4, len: 4 };
        assert_eq!(m.element_range(4), Some((1, 2)));
        let m = ObjectMeta { offset: 5, len: 2 };
        assert_eq!(m.element_range(4), Some((1, 2)));
        let m = ObjectMeta { offset: 5, len: 6 };
        assert_eq!(m.element_range(4), Some((1, 3)));
        let m = ObjectMeta {
            offset: u64::MAX - 3,
            len: 10,
        };
        assert_eq!(m.element_range(4), None);
    }

    #[test]
    fn scrub_report_cleanliness() {
        let clean = ScrubReport {
            stripes_checked: 4,
            ..Default::default()
        };
        assert!(clean.is_clean());
        let dirty = ScrubReport {
            stripes_checked: 4,
            corrupt_groups: vec![(1, 2)],
            ..Default::default()
        };
        assert!(!dirty.is_clean());
        let pinpointed = ScrubReport {
            stripes_checked: 4,
            corrupt_elements: vec![(1, 17)],
            ..Default::default()
        };
        assert!(!pinpointed.is_clean());
    }

    #[test]
    fn stripe_manifest_localizes_and_rejects() {
        let key = HashKey::DEFAULT;
        let elements: Vec<Vec<u8>> = (0..12).map(|i| vec![i as u8; 64]).collect();
        let leaves: Vec<u128> = elements
            .iter()
            .enumerate()
            .map(|(i, e)| leaf_hash(&key, i as u64, e))
            .collect();
        let m = StripeManifest::new(MerkleTree::from_leaves(&key, leaves));
        assert_eq!(m.n_elements(), 12);
        for (i, e) in elements.iter().enumerate() {
            assert!(m.verify_element(&key, i, e));
        }
        // Wrong bytes and right-bytes-wrong-slot both fail.
        assert!(!m.verify_element(&key, 3, &[0xFFu8; 64]));
        assert!(!m.verify_element(&key, 3, &elements[4]));
    }

    #[test]
    fn empty_object_spans_nothing() {
        let m = ObjectMeta { offset: 8, len: 0 };
        let (a, b) = m.element_range(4).unwrap();
        assert!(
            b <= a + 1,
            "empty object should span at most its start element"
        );
    }
}
