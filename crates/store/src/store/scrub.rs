//! Checking stored cells against what was sealed: the merkle scrub, the
//! decode cross-check, and the failure detector's single-cell probe.

use ecfrm_integrity::verify_footer;

use super::ObjectStore;
use crate::error::StoreError;
use crate::meta::ScrubReport;

impl ObjectStore {
    /// Every cell of `stripe` in layout order (row by row) — the
    /// manifest's leaf order — with its offset, those on an up or
    /// suspect disk read in one batch (one vectored request per disk). A
    /// cell on a disk in `down` is `None` unread: the disk table plans
    /// around that disk, and so does a scrub.
    fn stripe_cells(&self, stripe: u64, down: &[usize]) -> Vec<(u64, Option<Vec<u8>>)> {
        let layout = self.scheme.layout();
        let rows = (0..layout.rows_per_stripe()).flat_map(|row| layout.row_locations(stripe, row));
        let addrs: Vec<(usize, u64)> = rows.map(|l| (l.disk, l.offset)).collect();
        let up = |&(d, _): &(usize, u64)| !down.contains(&d);
        let wanted: Vec<(usize, u64)> = addrs.iter().copied().filter(up).collect();
        let mut read = self.array.read_batch(&wanted).into_iter();
        let mut cell = |a| if up(&a) { read.next().flatten() } else { None };
        addrs.into_iter().map(|a| (a.1, cell(a))).collect()
    }

    /// Verifying merkle scrub: check every stored element's checksum
    /// footer *and* its O(log n) merkle path against the stripe root —
    /// no decoding, no parity recomputation — and localize any mismatch
    /// to the exact `(stripe, element)`. Flushes pending writes first.
    ///
    /// Elements on disks the table has down are counted as missing, not
    /// corrupt, and not read. For the decode-based parity cross-check
    /// (slower, group-granular) see [`Self::scrub_decode`].
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ecfrm_codes::RsCode;
    /// use ecfrm_core::Scheme;
    /// use ecfrm_store::ObjectStore;
    ///
    /// let store = ObjectStore::new(
    ///     Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
    ///         .layout(ecfrm_core::LayoutKind::EcFrm)
    ///         .build(),
    ///     512);
    /// let x = store.append(&vec![1u8; 40_000]);
    /// assert_eq!(store.read(x).unwrap().0, vec![1u8; 40_000]);
    /// assert!(store.scrub().unwrap().is_clean());
    ///
    /// // A down disk is planned around by reads and not read by scrubs.
    /// store.fail_disk(4).unwrap();
    /// assert_eq!(store.read(x).unwrap().0, vec![1u8; 40_000]);
    /// let report = store.scrub().unwrap();
    /// assert!(report.corrupt_elements.is_empty() && report.missing_elements > 0);
    /// ```
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        self.flush();
        let sealed = self.sealed();
        let stripes = sealed.stripes;
        let n = self.scheme.code().n();
        let mut corrupt_elements: Vec<(u64, usize)> = Vec::new();
        let mut corrupt_groups: Vec<(u64, usize)> = Vec::new();
        let mut missing = 0usize;
        for stripe in 0..stripes {
            let manifest = self
                .manifest(stripe)
                .expect("every sealed stripe has a manifest");
            let t_v = std::time::Instant::now();
            let cells = self.stripe_cells(stripe, &sealed.down);
            for (i, (offset, cell)) in cells.into_iter().enumerate() {
                let Some(cell) = cell else {
                    missing += 1;
                    continue;
                };
                self.metrics.elements_verified.inc();
                // Footer first (one hash), merkle path second: both must
                // agree for the element to count as intact.
                let ok = verify_footer(&self.key, offset, &cell)
                    .map(|payload| manifest.verify_element(&self.key, i, payload))
                    .unwrap_or(false);
                if !ok {
                    self.metrics.verify_fail.inc();
                    corrupt_elements.push((stripe, i));
                    let group = (stripe, i / n);
                    if corrupt_groups.last() != Some(&group) {
                        corrupt_groups.push(group);
                    }
                }
            }
            self.metrics.verify_us.record_duration(t_v.elapsed());
        }
        Ok(ScrubReport {
            stripes_checked: stripes,
            corrupt_groups,
            corrupt_elements,
            missing_elements: missing,
        })
    }

    /// Decode-based scrub: recompute every group's parities from stored
    /// data and compare with the stored parities. Group-granular (it
    /// cannot say *which* element of a dirty group lies) and pays a
    /// full re-encode per group; kept as the cross-check that needs no
    /// manifests and as the merkle scrub's benchmark baseline.
    ///
    /// Elements on disks the table has down are counted as missing, not
    /// corrupt, and not read.
    pub fn scrub_decode(&self) -> Result<ScrubReport, StoreError> {
        self.flush();
        let sealed = self.sealed();
        let stripes = sealed.stripes;
        let layout = self.scheme.layout();
        let code = self.scheme.code();
        let k = code.k();
        let n = code.n();
        let mut corrupt_groups = Vec::new();
        let mut missing = 0usize;
        // One set of scratch parities for the whole pass: `encode`
        // overwrites every byte of them for each group.
        let mut parity = vec![vec![0u8; self.element_size]; n - k];
        for stripe in 0..stripes {
            let rows = layout.rows_per_stripe();
            let mut stripe_cells = self.stripe_cells(stripe, &sealed.down).into_iter();
            for row in 0..rows {
                let cells: Vec<Option<Vec<u8>>> =
                    stripe_cells.by_ref().take(n).map(|(_, c)| c).collect();
                debug_assert_eq!(cells.len(), n);
                if cells.iter().any(|c| c.is_none()) {
                    missing += cells.iter().filter(|c| c.is_none()).count();
                    continue;
                }
                let mut cells: Vec<Vec<u8>> = cells.into_iter().map(Option::unwrap).collect();
                // Strip checksum footers; the parity equations hold over
                // payloads.
                for c in &mut cells {
                    c.truncate(self.element_size);
                }
                let data_refs: Vec<&[u8]> = cells[..k].iter().map(|v| v.as_slice()).collect();
                code.encode(&data_refs, &mut parity);
                if parity
                    .iter()
                    .zip(&cells[k..])
                    .any(|(want, got)| want != got)
                {
                    corrupt_groups.push((stripe, row));
                }
            }
        }
        Ok(ScrubReport {
            stripes_checked: stripes,
            corrupt_groups,
            corrupt_elements: Vec::new(),
            missing_elements: missing,
        })
    }

    /// Probe a suspect disk: read its first element *and verify the
    /// checksum footer*. Verification matters — a disk silently
    /// corrupting answers happily serves probe reads, and without the
    /// footer check the failure detector would vouch for it forever.
    /// Used by the [`RepairManager`](crate::RepairManager) detector to
    /// decide transient blip vs lost/lying disk.
    pub fn probe_disk(&self, disk: usize) -> bool {
        match self.array.read_batch(&[(disk, 0)]).pop().flatten() {
            Some(cell) => verify_footer(&self.key, 0, &cell).is_some(),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{blob, faulty_store, lrc_store};

    #[test]
    fn scrub_clean_then_detects_corruption() {
        let store = lrc_store();
        store.append(&blob(9_000, 21));
        store.flush();
        let report = store.scrub().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.stripes_checked > 0);
        assert!(store.scrub_decode().unwrap().is_clean());

        // Flip a byte of one stored element.
        let victim = store.array().disk(3);
        let original = victim.read(0).expect("element exists");
        let mut tampered = original.clone();
        tampered[0] ^= 0xFF;
        victim.write(0, tampered);
        let report = store.scrub().unwrap();
        assert!(!report.is_clean());
        assert_eq!(
            report.corrupt_elements.len(),
            1,
            "merkle scrub localizes the single flipped byte: {report:?}"
        );
        assert!(!report.corrupt_groups.is_empty());
        // The decode cross-check sees the same stripe dirty (at group
        // granularity only).
        let decode_report = store.scrub_decode().unwrap();
        assert!(!decode_report.is_clean());
        assert!(decode_report.corrupt_elements.is_empty());

        // Restore and re-verify.
        victim.write(0, original);
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn merkle_scrub_localizes_flip_to_the_exact_element() {
        // Corrupt one byte of one known cell and require the scrub to
        // name exactly that (stripe, leaf) via the merkle path.
        let store = lrc_store();
        store.append(&blob(9_000, 33));
        store.flush();
        let disk = 7usize;
        let victim = store.array().disk(disk);
        let original = victim.read(0).expect("element exists");
        let mut tampered = original.clone();
        tampered[17] ^= 0x04;
        victim.write(0, tampered);

        let report = store.scrub().unwrap();
        assert_eq!(report.corrupt_elements.len(), 1, "{report:?}");
        let (stripe, leaf) = report.corrupt_elements[0];
        assert_eq!(stripe, 0);
        // The named leaf really is disk 7 offset 0 in layout order.
        let layout = store.scheme().layout();
        let n = store.scheme().code().n();
        let loc = layout.row_locations(0, leaf / n)[leaf % n];
        assert_eq!((loc.disk, loc.offset), (disk, 0));
        // And the manifest confirms the element once restored.
        let payload = &original[..store.element_size()];
        assert!(store
            .manifest(0)
            .unwrap()
            .verify_element(&store.integrity_key(), leaf, payload));
        // Healing is a rebuild: the disk is rewritten from survivors and
        // the scrub comes back clean.
        store.fail_disk(disk).unwrap();
        store.recover_disk(disk).unwrap();
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(victim.read(0), Some(original));
    }

    #[test]
    fn scrub_counts_missing_on_failed_disk() {
        let store = lrc_store();
        store.append(&blob(5_000, 22));
        store.flush();
        store.fail_disk(1).unwrap();
        let report = store.scrub().unwrap();
        assert!(report.missing_elements > 0);
        assert!(report.corrupt_groups.is_empty());
    }

    #[test]
    fn scrub_reads_no_cell_of_a_down_disk() {
        // `FaultyDisk` counts every read it is sent, armed or not.
        let (store, faulty) = faulty_store();
        store.append(&blob(30_000, 23));
        store.flush();
        store.fail_disk(1).unwrap();
        let sealed_cells = faulty[1].inner().len();
        assert!(sealed_cells > 0);
        let (before, up_before) = (faulty[1].reads(), faulty[0].reads());
        let report = store.scrub().unwrap();
        assert_eq!(report.missing_elements, sealed_cells);
        assert!(report.corrupt_elements.is_empty(), "{report:?}");
        let report = store.scrub_decode().unwrap();
        assert_eq!(report.missing_elements, sealed_cells);
        assert!(report.corrupt_groups.is_empty(), "{report:?}");
        assert_eq!(faulty[1].reads(), before, "a scrub read the down disk");
        assert!(faulty[0].reads() > up_before, "the scrub read the up disks");
    }
}
