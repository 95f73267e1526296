//! The write side: append to the logical stream, seal full stripes.
//!
//! These are the writers of `StripeState`: everything here runs with
//! the state lock held from the append to the last disk write, so a
//! reader that sees `sealed_elements` grow sees the cells on disk.

use ecfrm_integrity::{element_checksum, leaf_hash, MerkleTree, FOOTER_LEN};
use ecfrm_layout::Loc;
use ecfrm_sim::RunBuf;
use ecfrm_util::{par_map, Mutex};

use super::{ObjectStore, StripeState};
use crate::error::StoreError;
use crate::meta::{ObjectMeta, StripeManifest};

impl ObjectStore {
    /// Append `bytes` to the logical stream, returning the extent they
    /// occupy. Full stripes are sealed and encoded eagerly; the tail
    /// stays buffered until [`Self::flush`] or a read needs it. Read
    /// the bytes back with [`Self::read`] or [`Self::read_extent`];
    /// naming them is the [`FrontDoor`](crate::FrontDoor)'s job.
    pub fn append(&self, bytes: &[u8]) -> ObjectMeta {
        let mut state = self.state.lock();
        let meta = ObjectMeta {
            offset: state.logical_len,
            len: bytes.len() as u64,
        };
        state.pending.extend_from_slice(bytes);
        state.logical_len += bytes.len() as u64;
        self.seal_full_stripes(&mut state);
        meta
    }

    /// [`Self::append`], dropping the extent. Kept only for the frozen
    /// e2e trace probe (`crates/bench/src/bin/e2e`); the name is not
    /// recorded anywhere.
    #[deprecated(note = "use `append` and keep the extent it returns")]
    #[doc(hidden)]
    pub fn put(&self, _name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.append(bytes);
        Ok(())
    }

    /// Seal the pending tail by zero-padding to a stripe boundary, so
    /// everything written so far becomes readable. Later appends start
    /// after the padding (alignment loss, as in real append-only stores).
    pub fn flush(&self) {
        let mut state = self.state.lock();
        if state.pending.is_empty() {
            return;
        }
        let stripe_bytes = self.stripe_bytes();
        let pad = (stripe_bytes - state.pending.len() % stripe_bytes) % stripe_bytes;
        let padded = state.pending.len() + pad;
        state.pending.resize(padded, 0);
        state.logical_len += pad as u64;
        self.seal_full_stripes(&mut state);
        debug_assert!(state.pending.is_empty());
    }

    pub(super) fn stripe_bytes(&self) -> usize {
        self.scheme.data_per_stripe() * self.element_size
    }

    /// Encode and write out every complete stripe in the pending buffer.
    ///
    /// A stripe occupies `rows` consecutive offsets on every disk and
    /// stripes follow each other, so what a seal sends to one disk is
    /// one run. Each disk's run buffer is allocated once and every cell
    /// is built in place in it: the data payload copied from `pending`
    /// (stripe blocks are slices straight over it), the parity encoded
    /// into its cell, the footer hashed and the manifest leaf hashed
    /// from there — no per-cell allocation, and nothing is copied again
    /// on the way to the backends.
    fn seal_full_stripes(&self, state: &mut StripeState) {
        let stripe_bytes = self.stripe_bytes();
        let full = state.pending.len() / stripe_bytes;
        if full == 0 {
            return;
        }
        let first_stripe = state.stripes;
        let layout = self.scheme.layout();
        let (n, k, rows) = (layout.n_disks(), layout.code_k(), layout.rows_per_stripe());
        let dps = layout.data_per_stripe();
        let es = self.element_size;
        let cell_len = es + FOOTER_LEN;
        let per_disk = layout.offsets_per_stripe();
        assert_eq!(
            layout.total_per_stripe() as u64,
            n as u64 * per_disk,
            "a stripe fills the same offsets on every disk"
        );
        // Bytes one stripe occupies in one disk's run.
        let share = per_disk as usize * cell_len;
        let mut runs: Vec<RunBuf> = (0..n)
            .map(|_| RunBuf {
                start: first_stripe * per_disk,
                cell_len,
                bytes: vec![0u8; full * share],
            })
            .collect();
        // Stripe `i`'s share of every disk's run, so stripes can be
        // built in parallel. (`par_map` hands out `&T`; each stripe's
        // shares sit behind a lock only it ever takes.)
        let mut shares: Vec<Vec<&mut [u8]>> = (0..full).map(|_| Vec::with_capacity(n)).collect();
        for run in &mut runs {
            for (stripe, chunk) in shares.iter_mut().zip(run.bytes.chunks_exact_mut(share)) {
                stripe.push(chunk);
            }
        }
        let shares: Vec<Mutex<Vec<&mut [u8]>>> = shares.into_iter().map(Mutex::new).collect();

        // Encode stripes in parallel: each is an independent set of
        // group-by-group parity computations. Each cell is
        // `payload || checksum footer`, and each stripe additionally
        // yields its merkle manifest (leaves in layout order).
        let manifests: Vec<StripeManifest> = par_map(&shares, |i, disks| {
            let stripe = first_stripe + i as u64;
            let mut disks = disks.lock();
            let block = &state.pending[i * stripe_bytes..][..stripe_bytes];
            let data: Vec<&[u8]> = block.chunks_exact(es).collect();
            // Where `loc`'s cell starts in its disk's share.
            let at = |loc: Loc| (loc.offset - stripe * per_disk) as usize * cell_len;
            let base = stripe * dps as u64;
            for (t, d) in data.iter().enumerate() {
                let loc = layout.data_location(base + t as u64);
                disks[loc.disk][at(loc)..][..es].copy_from_slice(d);
            }
            for (g, group) in data.chunks_exact(k).enumerate() {
                // A candidate row's elements sit on distinct disks, so
                // its parity cells are disjoint borrows of `disks`.
                let locs: Vec<Loc> = (0..n - k)
                    .map(|p| layout.parity_location(stripe, g, p))
                    .collect();
                let mut cells: Vec<(usize, &mut [u8])> = disks
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(d, share)| {
                        let p = locs.iter().position(|l| l.disk == d)?;
                        Some((p, &mut share[at(locs[p])..][..es]))
                    })
                    .collect();
                cells.sort_unstable_by_key(|(p, _)| *p);
                let mut parity: Vec<&mut [u8]> = cells.into_iter().map(|(_, c)| c).collect();
                self.scheme.code().encode_into(group, &mut parity);
            }
            // Footers, and manifest leaves in layout order: row by row,
            // data then parity within each row (the order scrub reads
            // them back).
            let mut leaves = Vec::with_capacity(n * rows);
            for row in 0..rows {
                for loc in layout.row_locations(stripe, row) {
                    let cell = &mut disks[loc.disk][at(loc)..][..cell_len];
                    let (payload, footer) = cell.split_at_mut(es);
                    let sum = element_checksum(&self.key, loc.offset, payload);
                    footer.copy_from_slice(&sum.to_le_bytes());
                    leaves.push(leaf_hash(&self.key, leaves.len() as u64, payload));
                }
            }
            StripeManifest::new(MerkleTree::from_leaves(&self.key, leaves))
        });
        drop(shares);
        state.pending.drain(..full * stripe_bytes);
        state.manifests.extend(manifests);

        let shape = self
            .array
            .write_runs(runs.into_iter().enumerate().collect());
        self.metrics.note_write(shape);
        state.stripes += full as u64;
        state.sealed_elements += (full * dps) as u64;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap};
    use std::sync::Arc;

    use ecfrm_codes::{CandidateCode, LrcCode, RsCode};
    use ecfrm_core::{LayoutKind, Scheme};
    use ecfrm_integrity::append_footer;

    use super::super::testkit::{blob, ecfrm_scheme, lrc_store};
    use super::*;

    /// Stored cells by `(disk, offset)`.
    type SealedCells = BTreeMap<(usize, u64), Vec<u8>>;

    /// What the per-cell seal (one `Vec` per cell through
    /// `encode_stripe_parities` and `append_footer`) stored for the
    /// first `stripes` stripes of `stream`: the reference the run-built
    /// seal is compared with, cell for cell and manifest for manifest.
    fn per_cell_seal(store: &ObjectStore, stream: &[u8], stripes: u64) -> (SealedCells, Vec<u128>) {
        let (scheme, es) = (store.scheme(), store.element_size());
        let layout = scheme.layout();
        let key = store.integrity_key();
        let dps = scheme.data_per_stripe();
        let mut cells = BTreeMap::new();
        let mut roots = Vec::new();
        for stripe in 0..stripes {
            let block = &stream[stripe as usize * dps * es..][..dps * es];
            let data: Vec<&[u8]> = block.chunks_exact(es).collect();
            let mut payloads: HashMap<(usize, u64), Vec<u8>> = HashMap::new();
            for (t, d) in data.iter().enumerate() {
                let loc = layout.data_location(stripe * dps as u64 + t as u64);
                payloads.insert((loc.disk, loc.offset), d.to_vec());
            }
            for (loc, bytes) in scheme.encode_stripe_parities(stripe, &data) {
                payloads.insert((loc.disk, loc.offset), bytes);
            }
            let mut leaves = Vec::new();
            for row in 0..layout.rows_per_stripe() {
                for loc in layout.row_locations(stripe, row) {
                    let payload = &payloads[&(loc.disk, loc.offset)];
                    leaves.push(leaf_hash(&key, leaves.len() as u64, payload));
                }
            }
            roots.push(MerkleTree::from_leaves(&key, leaves).root());
            for ((disk, offset), mut cell) in payloads {
                append_footer(&key, offset, &mut cell);
                cells.insert((disk, offset), cell);
            }
        }
        (cells, roots)
    }

    #[test]
    fn run_built_seal_stores_what_the_per_cell_seal_stored() {
        for layout in [LayoutKind::EcFrm, LayoutKind::Standard, LayoutKind::Rotated] {
            for code in [
                Arc::new(RsCode::vandermonde(6, 3)) as Arc<dyn CandidateCode>,
                Arc::new(LrcCode::new(6, 2, 2)),
            ] {
                let scheme = Scheme::builder(code).layout(layout).build();
                let store = ObjectStore::new(scheme, 64);
                let stripe_bytes = store.stripe_bytes();
                // Three seals: several stripes at once, a stripe
                // completed by two puts, and the flush's padded tail.
                let lens = [
                    3 * stripe_bytes + 17,
                    stripe_bytes - 17,
                    2 * stripe_bytes + 5,
                ];
                let objects: Vec<Vec<u8>> = (0..3).map(|i| blob(lens[i], 40 + i as u8)).collect();
                let extents: Vec<ObjectMeta> = objects.iter().map(|o| store.append(o)).collect();
                store.flush();
                let mut stream = objects.concat();
                let stripes = store.stats().stripes;
                assert_eq!(stripes, 7, "{layout:?}");
                stream.resize(stripes as usize * stripe_bytes, 0);

                let (want, roots) = per_cell_seal(&store, &stream, stripes);
                let n = store.scheme().n_disks();
                let per_disk = store.scheme().layout().offsets_per_stripe();
                let stored: usize = (0..n).map(|d| store.array().disk(d).len()).sum();
                assert_eq!(stored, want.len(), "{layout:?}: nothing extra stored");
                for d in 0..n {
                    for o in 0..stripes * per_disk {
                        let got = store.array().disk(d).read(o);
                        assert_eq!(got.as_ref(), want.get(&(d, o)), "{layout:?}: ({d}, {o})");
                    }
                }
                for (s, root) in roots.iter().enumerate() {
                    assert_eq!(store.manifest(s as u64).unwrap().root(), *root);
                }
                assert!(store.manifest(stripes).is_none());
                let report = store.scrub().unwrap();
                assert!(report.is_clean(), "{layout:?}: {report:?}");
                for (extent, data) in extents.into_iter().zip(&objects) {
                    assert_eq!(&store.read(extent).unwrap().0, data);
                }
            }
        }
    }

    #[test]
    fn a_seal_is_one_write_per_disk_and_one_run_in_it() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 32);
        let counter = |name: &str| store.recorder().snapshot().counters[name];
        let stripe_bytes = store.stripe_bytes();
        let a = store.append(&blob(5 * stripe_bytes + 9, 1));
        assert_eq!(counter("write.rpcs"), 9);
        assert_eq!(counter("write.runs"), 9);
        assert_eq!(counter("write.batch_elems"), 5 * 27);
        store.flush();
        assert_eq!(counter("write.rpcs"), 18);
        assert_eq!(counter("write.batch_elems"), 6 * 27);
        // A rebuild writes stripe by stripe: one request to the one
        // disk per stripe, its 3 rows of cells consecutive — one run.
        store.fail_disk(3).unwrap();
        store.recover_disk(3).unwrap();
        assert_eq!(counter("write.rpcs"), 18 + 6);
        assert_eq!(counter("write.runs"), 18 + 6);
        assert_eq!(counter("write.batch_elems"), 6 * 27 + 18);
        assert_eq!(store.read(a).unwrap().0, blob(5 * stripe_bytes + 9, 1));
    }

    #[test]
    fn small_object_needs_flush_and_gets_it() {
        let store = lrc_store();
        let data = blob(10, 2);
        let tiny = store.append(&data);
        // Not yet sealed...
        assert_eq!(store.stats().stripes, 0);
        // ...but a read flushes automatically.
        assert_eq!(store.read(tiny).unwrap().0, data);
        assert!(store.stats().stripes >= 1);
    }

    #[test]
    fn stats_track_growth() {
        let store = lrc_store();
        let s0 = store.stats();
        assert_eq!(s0.logical_bytes, 0);
        store.append(&blob(100, 12));
        let s1 = store.stats();
        assert_eq!(s1.logical_bytes, 100);
        assert_eq!(s1.pending_bytes, 100);
        store.flush();
        let s2 = store.stats();
        assert_eq!(s2.pending_bytes, 0);
        assert!(s2.sealed_elements > 0);
    }
}
