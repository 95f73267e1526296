//! The read side: plan through the scheme, fetch one vectored request
//! per touched disk, verify every cell, decode around what is down.

use std::collections::{BTreeSet, HashMap};

use ecfrm_core::{Purpose, ReadCtx};
use ecfrm_layout::Loc;

use super::ObjectStore;
use crate::error::StoreError;
use crate::meta::{ObjectMeta, ReadStats};

/// Per-read options for [`ObjectStore::read_extent`]. There are none:
/// the type survives, field-less, only because the e2e trace probe
/// (`crates/bench/src/bin/e2e`, frozen by BENCHMARK.json) names it in
/// `read_extent(…, &ReadOpts::default())`. It leaves with the same
/// benchmark-only change ROADMAP 9 waits on for [`ObjectStore::put`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadOpts {}

/// The typed error for a byte range that leaves its extent or the
/// sealed stream; `len` is what the range had to fit in.
fn out_of_bounds(offset: u64, len: u64) -> StoreError {
    StoreError::RangeOutOfBounds {
        name: format!("<extent @{offset}>"),
        len,
    }
}

impl ObjectStore {
    /// Read a whole object.
    pub fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        Ok(self.get_with_stats(name)?.0)
    }

    /// Read a whole object and report how the read went (plan metrics +
    /// wall-clock time) — the instrumentation behind the examples'
    /// speed reports.
    pub fn get_with_stats(&self, name: &str) -> Result<(Vec<u8>, ReadStats), StoreError> {
        self.read_absolute(self.named(name)?)
    }

    /// Read `len` bytes of an object starting at byte `start` within it.
    ///
    /// If any referenced element is still unsealed the store flushes
    /// first. Under failed disks the read is planned as a degraded read
    /// and lost elements are reconstructed inline. A disk that stops
    /// answering *during* the read (e.g. a remote shard timing out) is
    /// marked suspect for this read and the plan falls back to degraded
    /// around it.
    pub fn get_range(&self, name: &str, start: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let meta = self.named(name)?;
        if start.checked_add(len).is_none_or(|end| end > meta.len) {
            return Err(StoreError::RangeOutOfBounds {
                name: name.to_string(),
                len: meta.len,
            });
        }
        let abs = ObjectMeta {
            offset: meta.offset + start,
            len,
        };
        Ok(self.read_absolute(abs)?.0)
    }

    fn named(&self, name: &str) -> Result<ObjectMeta, StoreError> {
        self.meta(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    /// Read `len` bytes starting `start` bytes into `extent` — an
    /// anonymous stream location previously returned by
    /// [`Self::append`]. This is the front door's read primitive: its
    /// extent records carry [`ObjectMeta`] locations instead of store
    /// catalog names.
    ///
    /// # Errors
    /// [`StoreError::RangeOutOfBounds`] if `start + len` overruns the
    /// extent (or the logical stream, or `u64`, for a forged extent);
    /// otherwise exactly like [`Self::get_range`].
    pub fn read_extent(
        &self,
        extent: ObjectMeta,
        start: u64,
        len: u64,
        _opts: &ReadOpts,
    ) -> Result<(Vec<u8>, ReadStats), StoreError> {
        if start.checked_add(len).is_none_or(|end| end > extent.len) {
            return Err(out_of_bounds(extent.offset, extent.len));
        }
        let offset = extent
            .offset
            .checked_add(start)
            .ok_or_else(|| out_of_bounds(extent.offset, extent.len))?;
        self.read_absolute(ObjectMeta { offset, len })
    }

    /// Read the bytes at `meta`, whose `offset` is an *absolute*
    /// logical stream offset (catalog lookups already applied): the
    /// elements they span, appended in order.
    fn read_absolute(&self, meta: ObjectMeta) -> Result<(Vec<u8>, ReadStats), StoreError> {
        let (first, last) = meta
            .element_range(self.element_size)
            .ok_or_else(|| out_of_bounds(meta.offset, meta.len))?;
        if meta.len == 0 {
            // Touches no element, so it never flushes the tail.
            let stats = ReadStats {
                degraded: !self.disks.down().is_empty(),
                ..ReadStats::default()
            };
            return Ok((Vec::new(), stats));
        }
        let (elements, stats) = self.read_elements(first, (last - first) as usize)?;
        let mut out = Vec::with_capacity(meta.len as usize);
        for (e, bytes) in (first..last).zip(elements) {
            out.extend_from_slice(&bytes[meta.part_of(e, bytes.len())]);
        }
        Ok((out, stats))
    }

    /// The shared read core: data elements `first .. first + count` of
    /// the stream, in order, each in a buffer of its own — the one its
    /// cell arrived in or the decoder filled, so a caller that keeps an
    /// element (the front door's cache) keeps that buffer.
    pub(crate) fn read_elements(
        &self,
        first: u64,
        count: usize,
    ) -> Result<(Vec<Vec<u8>>, ReadStats), StoreError> {
        let last = first + count as u64;
        let mut sealed = self.sealed();
        if last > sealed.sealed_elements {
            self.flush(); // it reaches into the unsealed tail
            sealed = self.sealed();
        }
        if last > sealed.sealed_elements {
            let es = self.element_size as u64;
            return Err(out_of_bounds(first * es, sealed.sealed_elements * es));
        }
        let t0 = std::time::Instant::now();

        // Plan, fetch, and — when a disk stops answering mid-read —
        // replan degraded around it. Each iteration strictly grows the
        // set planned around, so the loop terminates.
        //
        // Fetches go out as one vectored request per touched disk and
        // are verified as each disk answers (`fetch_verified`, which also
        // tells the disk table who answered and who did not). A demand
        // cell lands in the slot of the element it is, degraded or not;
        // a cell fetched only to repair with waits beside the slots, and
        // the decode fills just the holes.
        let mut verify_spent = std::time::Duration::ZERO;
        let mut suspects: BTreeSet<usize> = sealed.down.into_iter().collect();
        let mut replans = 0usize;
        let layout = self.scheme.layout();
        let (plan, elements) = loop {
            let down: Vec<usize> = suspects.iter().copied().collect();
            let t_plan = std::time::Instant::now();
            let plan = if down.is_empty() {
                self.scheme.normal_read_plan(first, count)
            } else {
                self.scheme.degraded_read_plan(first, count, &down)
            };
            self.metrics.plan_us.record_duration(t_plan.elapsed());
            if !plan.unreadable.is_empty() {
                return Err(StoreError::DataLoss(format!(
                    "{} elements unrecoverable under failed disks {down:?}",
                    plan.unreadable.len()
                )));
            }

            let addrs: Vec<(usize, u64)> = plan
                .fetches
                .iter()
                .map(|f| (f.loc.disk, f.loc.offset))
                .collect();
            let batch = self.array.read_batch_streaming(&addrs);
            self.metrics.note_batch(&batch, addrs.len());
            let mut slots: Vec<Vec<u8>> = vec![Vec::new(); count];
            let mut repair: HashMap<Loc, Vec<u8>> = HashMap::new();
            let (bad, verify) = self.fetch_verified(batch, &addrs, |tag, bytes| {
                let f = &plan.fetches[tag];
                match f.purpose {
                    Purpose::Demand => {
                        let idx = layout.data_index(f.stripe, f.row, f.pos);
                        slots[(idx - first) as usize] = bytes;
                    }
                    Purpose::Repair => {
                        repair.insert(f.loc, bytes);
                    }
                }
            });
            verify_spent += verify;
            if bad.is_empty() {
                let cell = |loc| repair.get(&loc).map(Vec::as_slice);
                let ctx = ReadCtx::new().with_recorder(&self.recorder);
                self.scheme
                    .fill_holes(first, &mut slots, cell, self.element_size, ctx)?;
                break (plan, slots);
            }
            if bad.iter().all(|d| suspects.contains(d)) {
                return Err(StoreError::DataLoss(format!(
                    "disks {bad:?} still unresponsive after degraded replan"
                )));
            }
            suspects.extend(bad);
            replans += 1;
        };
        // Leave breadcrumbs for the background repair pipeline: the
        // stripes this degraded read actually touched, per down disk —
        // they rebuild first so hot data regains redundancy first.
        if !suspects.is_empty() {
            let dps = self.scheme.data_per_stripe() as u64;
            let stripes = first / dps..(last - 1) / dps + 1;
            self.disks.hint(suspects.iter().copied(), stripes);
        }
        let stats = ReadStats {
            requested_elements: count,
            fetched_elements: plan.total_fetched(),
            repair_elements: plan.repair_fetched(),
            max_disk_load: plan.max_load(),
            cost: plan.cost(),
            degraded: !suspects.is_empty(),
            replans,
            elapsed: t0.elapsed(),
        };

        let m = &self.metrics;
        m.reads.inc();
        if stats.degraded {
            m.degraded_reads.inc();
        }
        if replans > 0 {
            m.replans.add(replans as u64);
        }
        m.fetched_elements.add(stats.fetched_elements as u64);
        m.repair_elements.add(stats.repair_elements as u64);
        if verify_spent > std::time::Duration::ZERO {
            m.verify_us.record_duration(verify_spent);
        }
        for f in &plan.fetches {
            m.disk_load.record(f.loc.disk, 1, self.element_size as u64);
        }
        m.read_us.record_duration(stats.elapsed);

        Ok((elements, stats))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;

    use ecfrm_codes::{LrcCode, RsCode};
    use ecfrm_integrity::FOOTER_LEN;
    use ecfrm_sim::{
        DiskBackend, FaultKind, IoHandle, MemDisk, NetCounters, NetStats, ThreadedArray, WriteRun,
    };
    use ecfrm_util::Mutex;

    use super::super::testkit::{blob, ecfrm_scheme, faulty_store, lrc_store};
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = lrc_store();
        let data = blob(10_000, 1);
        store.put("a", &data).unwrap();
        assert_eq!(store.get("a").unwrap(), data);
    }

    #[test]
    fn multiple_objects_are_separate() {
        let store = lrc_store();
        let a = blob(5000, 3);
        let b = blob(777, 4);
        let c = blob(12_345, 5);
        store.put("a", &a).unwrap();
        store.put("b", &b).unwrap();
        store.put("c", &c).unwrap();
        assert_eq!(store.get("b").unwrap(), b);
        assert_eq!(store.get("a").unwrap(), a);
        assert_eq!(store.get("c").unwrap(), c);
        assert_eq!(store.stats().objects, 3);
        assert_eq!(store.meta("b").unwrap().len, 777);
        assert!(store.meta("zz").is_none());
    }

    #[test]
    fn missing_object_not_found() {
        let store = lrc_store();
        assert!(matches!(store.get("nope"), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn range_reads() {
        let store = lrc_store();
        let data = blob(4000, 6);
        store.put("r", &data).unwrap();
        assert_eq!(store.get_range("r", 0, 10).unwrap(), &data[0..10]);
        assert_eq!(store.get_range("r", 100, 500).unwrap(), &data[100..600]);
        assert_eq!(store.get_range("r", 3990, 10).unwrap(), &data[3990..4000]);
        assert_eq!(store.get_range("r", 0, 0).unwrap().len(), 0);
        assert!(matches!(
            store.get_range("r", 3990, 11),
            Err(StoreError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn a_forged_extent_is_a_typed_error_not_an_overflow() {
        let store = lrc_store();
        store.put("x", &blob(4000, 7)).unwrap();
        let forged = ObjectMeta {
            offset: u64::MAX - 3,
            len: 10,
        };
        // `offset + len` wraps in the element range; `offset + start`
        // wraps before it gets there.
        for start in [0, 5] {
            let got = store.read_extent(forged, start, 10 - start, &ReadOpts::default());
            assert!(
                matches!(got, Err(StoreError::RangeOutOfBounds { .. })),
                "start {start}: {got:?}"
            );
        }
        assert!(matches!(
            store.get_range("x", u64::MAX, 2),
            Err(StoreError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn degraded_read_under_every_single_disk_failure() {
        let store = lrc_store();
        let data = blob(20_000, 7);
        store.put("d", &data).unwrap();
        for disk in 0..10 {
            store.fail_disk(disk).unwrap();
            assert_eq!(store.get("d").unwrap(), data, "failed disk {disk}");
            store.heal_disk(disk).unwrap();
        }
    }

    #[test]
    fn degraded_read_under_triple_failure_lrc() {
        // (6,2,2) LRC tolerates any 3 disk failures.
        let store = lrc_store();
        let data = blob(8_000, 8);
        store.put("t", &data).unwrap();
        for disks in [[0, 1, 2], [3, 6, 9], [7, 8, 9]] {
            for &d in &disks {
                store.fail_disk(d).unwrap();
            }
            assert_eq!(store.get("t").unwrap(), data, "failed {disks:?}");
            for &d in &disks {
                store.heal_disk(d).unwrap();
            }
        }
    }

    #[test]
    fn too_many_failures_is_data_loss_not_garbage() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        let data = blob(10_000, 9);
        store.put("x", &data).unwrap();
        store.get("x").unwrap(); // seal
        for d in [0, 1, 2, 3] {
            store.fail_disk(d).unwrap();
        }
        assert!(matches!(store.get("x"), Err(StoreError::DataLoss(_))));
        for d in [0, 1, 2, 3] {
            store.heal_disk(d).unwrap();
        }
        assert_eq!(store.get("x").unwrap(), data);
    }

    #[test]
    fn suspect_lifecycle_clears_on_answer_and_dedups_hints() {
        let (store, faulty) = faulty_store();
        let data = blob(30_000, 50);
        store.put("x", &data).unwrap();
        store.flush();

        // Disk 2 stops answering mid-workload: the read replans degraded
        // around it, marks it suspect, and stages repair hints.
        faulty[2].arm(FaultKind::Kill, 0);
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data);
        assert!(stats.degraded);
        assert_eq!(stats.replans, 1, "exactly one mid-read replan");
        assert_eq!(store.stats().suspect_disks, vec![2]);
        let staged = store.disks().hint_count();
        assert!(staged > 0, "degraded read stages repair hints");

        // Re-reading the same range is another degraded read but must
        // not stage duplicate work.
        let (_, stats) = store.get_with_stats("x").unwrap();
        assert!(stats.degraded);
        assert_eq!(
            store.disks().hint_count(),
            staged,
            "hints dedup across repeated degraded reads"
        );

        // The disk answers again (transient blip): the next read plans
        // normally, vouches for it, and the suspicion is withdrawn.
        faulty[2].clear();
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data);
        assert!(!stats.degraded);
        assert_eq!(stats.replans, 0);
        assert!(
            store.stats().suspect_disks.is_empty(),
            "suspicion withdrawn"
        );
        // Hints are staging only — nothing was promoted to repair work.
        assert_eq!(store.disks().depth(), 0);
    }

    /// A backend whose every submission panics.
    #[derive(Debug)]
    struct PanicDisk;

    impl DiskBackend for PanicDisk {
        fn submit_read_many(&self, _offsets: &[u64]) -> IoHandle {
            panic!("injected backend panic");
        }
        fn submit_write_many(&self, _runs: &[WriteRun<'_>]) -> IoHandle {
            panic!("injected backend panic");
        }
        fn fail(&self) {}
        fn heal(&self) {}
        fn wipe(&self) {}
        fn len(&self) -> usize {
            0
        }
    }

    #[test]
    fn panicking_backend_is_marked_suspect() {
        let scheme = ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3)));
        let backends: Vec<Arc<dyn DiskBackend>> = (0..scheme.n_disks())
            .map(|d| match d {
                3 => Arc::new(PanicDisk) as Arc<dyn DiskBackend>,
                _ => Arc::new(MemDisk::new()),
            })
            .collect();
        let store = ObjectStore::with_array(scheme, 64, ThreadedArray::from_backends(backends));
        let data = blob(10_000, 52);
        // The seal's writes to disk 3 panic and are lost like any failed
        // write; the first read of those cells flags the disk.
        store.put("x", &data).unwrap();
        store.flush();
        assert!(store.stats().suspect_disks.is_empty());
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data);
        assert!(stats.degraded);
        assert_eq!(store.stats().suspect_disks, vec![3]);
        let gauges = store.recorder().snapshot().gauges;
        assert_eq!((gauges["disks.suspect"], gauges["disks.down"]), (1, 0));
    }

    #[test]
    fn zero_length_reads_seal_nothing() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        store.put("a", &blob(10, 53)).unwrap();
        store.put("e", &[]).unwrap();
        store.put("b", &blob(10, 54)).unwrap();
        let before = store.stats();
        assert_eq!(before.pending_bytes, 20);
        assert_eq!(store.get("e").unwrap(), Vec::<u8>::new());
        assert_eq!(store.get_range("b", 3, 0).unwrap(), Vec::<u8>::new());
        assert_eq!(store.stats(), before, "an empty read flushed the tail");
        store.fail_disk(0).unwrap();
        let (_, stats) = store.get_with_stats("e").unwrap();
        assert!(stats.degraded, "degraded comes from the down set");
        assert_eq!(store.stats().stripes, 0);
    }

    #[test]
    fn store_over_file_backed_disks() {
        use ecfrm_sim::FileDisk;
        let dir = std::env::temp_dir().join(format!("ecfrm-store-files-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scheme = ecfrm_scheme(Arc::new(LrcCode::new(6, 2, 2)));
        let backends: Vec<Arc<dyn DiskBackend>> = (0..scheme.n_disks())
            .map(|d| {
                Arc::new(FileDisk::create(dir.join(format!("d{d}.bin")), 64 + FOOTER_LEN).unwrap())
                    as Arc<dyn DiskBackend>
            })
            .collect();
        let store = ObjectStore::with_array(scheme, 64, ThreadedArray::from_backends(backends));
        let data = blob(12_000, 30);
        store.put("f", &data).unwrap();
        assert_eq!(store.get("f").unwrap(), data);
        // Degraded read off real files.
        store.fail_disk(5).unwrap();
        assert_eq!(store.get("f").unwrap(), data);
        // Real loss: wipe the file, rebuild it.
        store.array().disk(5).wipe();
        store.recover_disk(5).unwrap();
        assert_eq!(store.get("f").unwrap(), data);
        assert!(store.scrub().unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_stats_reflect_degradation() {
        let store = lrc_store();
        let data = blob(10_000, 20);
        store.put("s", &data).unwrap();
        let (bytes, normal) = store.get_with_stats("s").unwrap();
        assert_eq!(bytes, data);
        assert!(!normal.degraded);
        assert_eq!(normal.repair_elements, 0);
        assert!((normal.cost - 1.0).abs() < 1e-12);
        assert!(normal.fetched_elements >= normal.requested_elements);

        store.fail_disk(0).unwrap();
        let (bytes, degraded) = store.get_with_stats("s").unwrap();
        assert_eq!(bytes, data);
        assert!(degraded.degraded);
        assert!(degraded.cost >= 1.0);
    }

    #[test]
    fn verify_on_read_treats_corruption_as_erasure() {
        let (store, faulty) = faulty_store();
        let data = blob(30_000, 51);
        store.put("x", &data).unwrap();
        store.flush();

        // Disk 2 starts lying: every read comes back bit-flipped. The
        // read must detect it, replan degraded, and still return
        // byte-correct data.
        faulty[2].arm(FaultKind::FlipCorrupt, 0);
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data, "corrupted answers never reach the caller");
        assert!(stats.degraded);
        assert_eq!(stats.replans, 1);
        assert_eq!(store.stats().suspect_disks, vec![2]);
        assert!(store.disks().hint_count() > 0, "stripe hints staged");
        assert!(store.recorder().snapshot().counters["integrity.verify_fail"] > 0);

        // The probe sees through the lie too: corrupt answers must not
        // clear the suspicion.
        assert!(!store.probe_disk(2));
        // Honest again: probe passes, reads are clean and normal.
        faulty[2].clear();
        assert!(store.probe_disk(2));
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data);
        assert!(!stats.degraded);
    }

    #[test]
    fn degraded_reads_reuse_solved_coefficients() {
        let store = lrc_store();
        let data = blob(20_000, 23);
        store.put("hot", &data).unwrap();
        store.fail_disk(2).unwrap();
        for _ in 0..10 {
            assert_eq!(store.get("hot").unwrap(), data);
        }
        let (hits, misses) = store.scheme().decoder().stats();
        assert!(misses > 0, "cache must have been exercised");
        assert!(
            hits > misses * 3,
            "repeated degraded reads should mostly hit: {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn read_issues_one_rpc_per_touched_disk() {
        // (6,3) EC-FRM over 9 disks: a full-stripe read touches every
        // data element. The batched path must issue at most one
        // per-disk request per disk per read round.
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        let data = blob(30_000, 40);
        store.put("x", &data).unwrap();
        store.flush();
        let before = store.recorder().snapshot().counters["read.rpcs"];
        assert_eq!(store.get("x").unwrap(), data);
        let snap = store.recorder().snapshot();
        let rpcs = snap.counters["read.rpcs"] - before;
        assert!(
            rpcs <= store.scheme().n_disks() as u64,
            "one read issued {rpcs} per-disk requests over {} disks",
            store.scheme().n_disks()
        );
        assert!(rpcs >= 1);
        let elems = snap.counters["read.batch_elems"];
        assert!(elems as usize >= data.len() / 64, "batch_elems: {elems}");
    }

    #[test]
    fn sequential_layout_reads_coalesce_into_runs() {
        // EC-FRM places data sequentially across all disks, so a read
        // spanning two data rows hands (at least) the wrap-around disks
        // a strictly contiguous per-disk offset run. (Full-object reads
        // cross parity rows, which punch periodic holes in the per-disk
        // offsets — those batches stay `BatchGet`.)
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        store.put("x", &blob(30_000, 41)).unwrap();
        store.flush();
        // Elements 0..11: every disk serves offset 0, the first two also
        // serve offset 1 → two [0, 1] runs.
        store.get_range("x", 0, 700).unwrap();
        let runs = store.recorder().snapshot().counters["read.coalesced_runs"];
        assert!(
            runs >= 2,
            "sequential layout produced {runs} coalesced runs, expected ≥ 2"
        );
    }

    /// A disk with transport counters of its own: every read it serves
    /// costs one retry, and a read can be parked inside it.
    #[derive(Debug, Default)]
    struct RetryingDisk {
        inner: MemDisk,
        net: NetCounters,
        /// When set, the next read reports in on the first channel and
        /// waits for the second before it is served.
        park: Mutex<Option<(Sender<()>, Receiver<()>)>>,
    }

    impl DiskBackend for RetryingDisk {
        fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
            self.net.retries.fetch_add(1, Ordering::Relaxed);
            let park = self.park.lock().take();
            if let Some((parked, release)) = park {
                parked.send(()).unwrap();
                release.recv().unwrap();
            }
            self.inner.submit_read_many(offsets)
        }
        fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
            self.inner.submit_write_many(runs)
        }
        fn fail(&self) {}
        fn heal(&self) {}
        fn wipe(&self) {}
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn net_stats(&self) -> Option<NetStats> {
            Some(self.net.snapshot())
        }
    }

    #[test]
    fn overlapping_reads_fold_each_retry_into_the_registry_once() {
        let scheme = ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3)));
        let retrying = Arc::new(RetryingDisk::default());
        let mut backends: Vec<Arc<dyn DiskBackend>> = vec![Arc::clone(&retrying) as _];
        backends.extend((1..scheme.n_disks()).map(|_| Arc::new(MemDisk::new()) as _));
        let store = Arc::new(ObjectStore::with_array(
            scheme,
            64,
            ThreadedArray::from_backends(backends),
        ));
        let data = blob(30_000, 60);
        store.put("x", &data).unwrap();
        store.flush();

        // Read A parks inside disk 0 (one retry so far); read B runs
        // start to finish while A is parked (a second retry); then A
        // finishes. Whoever asks, whenever, the registry says what the
        // client has counted by then — no read has to end first, and
        // no retry is seen twice.
        let registry = || store.recorder().snapshot().counters["net.retries"];
        let (parked_tx, parked) = channel();
        let (release, release_rx) = channel();
        *retrying.park.lock() = Some((parked_tx, release_rx));
        let a = std::thread::spawn({
            let store = Arc::clone(&store);
            move || store.get("x").unwrap()
        });
        parked.recv().unwrap();
        assert_eq!(registry(), 1, "A's retry shows while A is in flight");
        assert_eq!(store.get("x").unwrap(), data);
        assert_eq!(registry(), 2);
        release.send(()).unwrap();
        assert_eq!(a.join().unwrap(), data);
        assert_eq!(retrying.net_stats().unwrap().retries, 2);
        assert_eq!(registry(), 2);

        // A new drive in the slot (with no counters of its own) does
        // not take the old client's retries out of the total.
        store.array().replace_disk(0, Arc::new(MemDisk::new()));
        assert_eq!(registry(), 2);
    }
}
