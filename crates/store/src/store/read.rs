//! The read side: plan through the scheme, fetch one vectored request
//! per touched disk, verify every cell, decode around what is down.

use std::collections::{BTreeSet, HashMap};

use ecfrm_core::{Fetch, Purpose, ReadCtx, ReadPlan};
use ecfrm_layout::Loc;

use super::ObjectStore;
use crate::error::StoreError;
use crate::meta::{ObjectMeta, ReadStats};

/// Per-read options for [`ObjectStore::read_extent`]. There are none:
/// the type survives, field-less, only because the e2e trace probe
/// (`crates/bench/src/bin/e2e`, frozen by BENCHMARK.json) names it in
/// `read_extent(…, &ReadOpts::default())`. It leaves with the
/// deprecated `ObjectStore::put` shim, in the next change to that
/// benchmark.
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
    /// Read `len` bytes starting `start` bytes into `extent` — a
    /// stream location previously returned by [`Self::append`].
    ///
    /// # Errors
    /// [`StoreError::RangeOutOfBounds`] if `start + len` overruns the
    /// extent (or the logical stream, or `u64`, for a forged extent);
    /// otherwise exactly like [`Self::read`].
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
        self.read(ObjectMeta { offset, len })
    }

    /// Read the whole of `extent` — a stream location previously
    /// returned by [`Self::append`] — and report how the read went
    /// (plan metrics + wall-clock time).
    ///
    /// If any referenced element is still unsealed the store flushes
    /// first. Under failed disks the read is planned as a degraded read
    /// and lost elements are reconstructed inline. A disk that stops
    /// answering *during* the read (e.g. a remote shard timing out) is
    /// marked suspect for this read and the plan falls back to degraded
    /// around it.
    ///
    /// # Errors
    /// [`StoreError::RangeOutOfBounds`] for an extent past the end of
    /// the stream; [`StoreError::DataLoss`] when too many disks are
    /// down to reconstruct it.
    pub fn read(&self, extent: ObjectMeta) -> Result<(Vec<u8>, ReadStats), StoreError> {
        let (first, last) = extent
            .element_range(self.element_size)
            .ok_or_else(|| out_of_bounds(extent.offset, extent.len))?;
        if extent.len == 0 {
            // Touches no element, so it never flushes the tail.
            let stats = ReadStats {
                degraded: !self.disks.down().is_empty(),
                ..ReadStats::default()
            };
            return Ok((Vec::new(), stats));
        }
        let (elements, stats) = self.read_elements(first, (last - first) as usize)?;
        let mut out = Vec::with_capacity(extent.len as usize);
        for (e, bytes) in (first..last).zip(elements) {
            out.extend_from_slice(&bytes[extent.part_of(e, bytes.len())]);
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
        let mut stats = ReadStats::default();
        let read = self.read_rounds(first, count, sealed.down, &mut stats);
        stats.elapsed = t0.elapsed();
        let done = read.as_ref().ok().map(|(_, plan)| plan);
        self.metrics.note_read(&stats, done, self.element_size);
        read.map(|(slots, _)| (slots, stats))
    }

    /// Plan, fetch, and — when a disk stops answering mid-read — replan
    /// degraded around it, starting from the `down` disks. Each round's
    /// record joins `stats` as it is made, and the final plan's figures
    /// once the holes are filled. Each iteration strictly grows the set
    /// planned around, so the loop terminates.
    ///
    /// Fetches go out as one vectored request per touched disk and are
    /// verified as each disk answers (`fetch_verified`, which also tells
    /// the disk table who answered and who did not). A demand cell lands
    /// in the slot of the element it is, degraded or not; a cell fetched
    /// only to repair with waits beside the slots, and the decode fills
    /// just the holes. Both outlive a round: a replan fetches only the
    /// cells of its plan that no round has verified.
    fn read_rounds(
        &self,
        first: u64,
        count: usize,
        down: Vec<usize>,
        stats: &mut ReadStats,
    ) -> Result<(Vec<Vec<u8>>, ReadPlan), StoreError> {
        let mut suspects: BTreeSet<usize> = down.into_iter().collect();
        let layout = self.scheme.layout();
        let mut slots: Vec<Vec<u8>> = vec![Vec::new(); count];
        let mut repair: HashMap<Loc, Vec<u8>> = HashMap::new();
        let plan = loop {
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

            let slot = |f: &Fetch| (layout.data_index(f.stripe, f.row, f.pos) - first) as usize;
            let held = |f: &Fetch| match f.purpose {
                Purpose::Demand => !slots[slot(f)].is_empty(),
                Purpose::Repair => repair.contains_key(&f.loc),
            };
            let wanted: Vec<&Fetch> = plan.fetches.iter().filter(|f| !held(f)).collect();
            let addrs: Vec<(usize, u64)> =
                wanted.iter().map(|f| (f.loc.disk, f.loc.offset)).collect();
            let round = self.fetch_verified(&addrs, |tag, bytes| {
                let f = wanted[tag];
                match f.purpose {
                    Purpose::Demand => slots[slot(f)] = bytes,
                    Purpose::Repair => {
                        repair.insert(f.loc, bytes);
                    }
                }
            });
            let bad: Vec<usize> = round.bad().collect();
            stats.rounds.push(round);
            if bad.is_empty() {
                let cell = |loc| repair.get(&loc).map(Vec::as_slice);
                let ctx = ReadCtx::new().with_recorder(&self.recorder);
                self.scheme
                    .fill_holes(first, &mut slots, cell, self.element_size, ctx)?;
                break plan;
            }
            if bad.iter().all(|d| suspects.contains(d)) {
                return Err(StoreError::DataLoss(format!(
                    "disks {bad:?} still unresponsive after degraded replan"
                )));
            }
            suspects.extend(bad);
        };
        // Leave breadcrumbs for the background repair pipeline: the
        // stripes this degraded read actually touched, per down disk —
        // they rebuild first so hot data regains redundancy first.
        if !suspects.is_empty() {
            let dps = self.scheme.data_per_stripe() as u64;
            let stripes = first / dps..(first + count as u64 - 1) / dps + 1;
            self.disks.hint(suspects.iter().copied(), stripes);
        }
        stats.requested_elements = count;
        stats.fetched_elements = plan.total_fetched();
        stats.repair_elements = plan.repair_fetched();
        stats.max_disk_load = plan.max_load();
        stats.cost = plan.cost();
        stats.degraded = !suspects.is_empty();
        Ok((slots, plan))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;

    use ecfrm_codes::{LrcCode, RsCode};
    use ecfrm_integrity::FOOTER_LEN;
    use ecfrm_obs::{NetCounters, NetStats};
    use ecfrm_sim::{DiskBackend, FaultKind, IoHandle, MemDisk, ThreadedArray, WriteRun};
    use ecfrm_util::Mutex;

    use super::super::testkit::{blob, ecfrm_scheme, faulty_store, lrc_store};
    use super::*;
    use crate::meta::Outcome;

    #[test]
    fn put_get_roundtrip() {
        let store = lrc_store();
        let data = blob(10_000, 1);
        let a = store.append(&data);
        assert_eq!(store.read(a).unwrap().0, data);
    }

    #[test]
    fn multiple_objects_are_separate() {
        let store = lrc_store();
        let (a, b, c) = (blob(5000, 3), blob(777, 4), blob(12_345, 5));
        let (ea, eb, ec) = (store.append(&a), store.append(&b), store.append(&c));
        assert_eq!(store.read(eb).unwrap().0, b);
        assert_eq!(store.read(ea).unwrap().0, a);
        assert_eq!(store.read(ec).unwrap().0, c);
        assert_eq!((eb.offset, eb.len), (5000, 777));
    }

    #[test]
    fn range_reads() {
        let store = lrc_store();
        let data = blob(4000, 6);
        let r = store.append(&data);
        let range = |start, len| {
            let read = store.read_extent(r, start, len, &ReadOpts::default());
            read.map(|(bytes, _)| bytes)
        };
        assert_eq!(range(0, 10).unwrap(), &data[0..10]);
        assert_eq!(range(100, 500).unwrap(), &data[100..600]);
        assert_eq!(range(3990, 10).unwrap(), &data[3990..4000]);
        assert_eq!(range(0, 0).unwrap().len(), 0);
        assert!(matches!(
            range(3990, 11),
            Err(StoreError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn a_forged_extent_is_a_typed_error_not_an_overflow() {
        let store = lrc_store();
        let x = store.append(&blob(4000, 7));
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
            store.read_extent(x, u64::MAX, 2, &ReadOpts::default()),
            Err(StoreError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn degraded_read_under_every_single_disk_failure() {
        let store = lrc_store();
        let data = blob(20_000, 7);
        let d = store.append(&data);
        for disk in 0..10 {
            store.fail_disk(disk).unwrap();
            assert_eq!(store.read(d).unwrap().0, data, "failed disk {disk}");
            store.heal_disk(disk).unwrap();
        }
    }

    #[test]
    fn degraded_read_under_triple_failure_lrc() {
        // (6,2,2) LRC tolerates any 3 disk failures.
        let store = lrc_store();
        let data = blob(8_000, 8);
        let t = store.append(&data);
        for disks in [[0, 1, 2], [3, 6, 9], [7, 8, 9]] {
            for &d in &disks {
                store.fail_disk(d).unwrap();
            }
            assert_eq!(store.read(t).unwrap().0, data, "failed {disks:?}");
            for &d in &disks {
                store.heal_disk(d).unwrap();
            }
        }
    }

    #[test]
    fn too_many_failures_is_data_loss_not_garbage() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        let data = blob(10_000, 9);
        let x = store.append(&data);
        store.read(x).unwrap(); // seal
        for d in [0, 1, 2, 3] {
            store.fail_disk(d).unwrap();
        }
        assert!(matches!(store.read(x), Err(StoreError::DataLoss(_))));
        for d in [0, 1, 2, 3] {
            store.heal_disk(d).unwrap();
        }
        assert_eq!(store.read(x).unwrap().0, data);
    }

    #[test]
    fn suspect_lifecycle_clears_on_answer_and_dedups_hints() {
        let (store, faulty) = faulty_store();
        let data = blob(30_000, 50);
        let x = store.append(&data);
        store.flush();

        // Disk 2 stops answering mid-workload: the read replans degraded
        // around it, marks it suspect, and stages repair hints.
        faulty[2].arm(FaultKind::Kill, 0);
        let (bytes, stats) = store.read(x).unwrap();
        assert_eq!(bytes, data);
        assert!(stats.degraded);
        assert_eq!(stats.replans(), 1, "exactly one mid-read replan");
        assert_eq!(store.stats().suspect_disks, vec![2]);
        let staged = store.disks().hint_count();
        assert!(staged > 0, "degraded read stages repair hints");

        // Re-reading the same range is another degraded read but must
        // not stage duplicate work.
        let (_, stats) = store.read(x).unwrap();
        assert!(stats.degraded);
        assert_eq!(
            store.disks().hint_count(),
            staged,
            "hints dedup across repeated degraded reads"
        );

        // The disk answers again (transient blip): the next read plans
        // normally, vouches for it, and the suspicion is withdrawn.
        faulty[2].clear();
        let (bytes, stats) = store.read(x).unwrap();
        assert_eq!(bytes, data);
        assert!(!stats.degraded);
        assert_eq!(stats.replans(), 0);
        assert!(
            store.stats().suspect_disks.is_empty(),
            "suspicion withdrawn"
        );
        // Hints are staging only — nothing was promoted to repair work.
        assert_eq!(store.disks().depth(), 0);
    }

    /// Each disk's cells over every round of `stats`' record.
    fn cells_per_disk(stats: &ReadStats, n_disks: usize) -> Vec<u64> {
        let mut cells = vec![0; n_disks];
        for (asked, _) in stats.rounds.iter().flat_map(|r| &r.disks) {
            cells[asked.disk] += asked.cells as u64;
        }
        cells
    }

    #[test]
    fn a_replan_fetches_only_the_cells_no_pass_has_verified() {
        let (store, faulty) = faulty_store();
        let data = blob(30_000, 50);
        let x = store.append(&data);
        store.flush();
        let (first, last) = x.element_range(64).unwrap();
        let count = (last - first) as usize;

        // Disk 2 stops answering: pass 1 verifies every cell of the
        // normal plan but disk 2's, pass 2 plans around disk 2.
        faulty[2].arm(FaultKind::Kill, 0);
        let (bytes, stats) = store.read(x).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(stats.replans(), 1);

        let scheme = store.scheme();
        let p1 = scheme.normal_read_plan(first, count).fetches;
        let p2 = scheme.degraded_read_plan(first, count, &[2]).fetches;
        let held: std::collections::HashSet<Loc> =
            p1.iter().map(|f| f.loc).filter(|l| l.disk != 2).collect();
        let new = p2.iter().filter(|f| !held.contains(&f.loc)).count();
        assert!(new < p2.len(), "pass 2 shares cells with pass 1");
        let sent: u64 = cells_per_disk(&stats, scheme.n_disks()).iter().sum();
        assert_eq!(sent, (p1.len() + new) as u64);
        // `fetched_elements` is the final plan's, not what was sent.
        assert_eq!(stats.fetched_elements, p2.len());
    }

    #[test]
    fn the_record_is_what_the_disks_saw() {
        let (store, faulty) = faulty_store();
        let data = blob(30_000, 55);
        let x = store.append(&data);
        store.flush();
        let n = store.scheme().n_disks();
        let outcomes = |stats: &ReadStats, round: usize| {
            let disks = stats.rounds[round].disks.iter();
            disks.map(|(a, o)| (a.disk, *o)).collect::<Vec<_>>()
        };
        // Each scenario: the fault, then the read's rounds and how each
        // round-1 disk answered, checked against what every disk served.
        for scenario in ["kill", "flip", "down"] {
            let before: Vec<u64> = faulty.iter().map(|f| f.reads()).collect();
            match scenario {
                "kill" => faulty[2].arm(FaultKind::Kill, 0),
                "flip" => faulty[4].arm(FaultKind::FlipCorrupt, 0),
                _ => store.fail_disk(5).unwrap(),
            }
            let (bytes, stats) = store.read(x).unwrap();
            assert_eq!(bytes, data, "{scenario}");
            let served: Vec<u64> = faulty
                .iter()
                .zip(&before)
                .map(|(f, b)| f.reads() - b)
                .collect();
            assert_eq!(cells_per_disk(&stats, n), served, "{scenario}");
            let first = outcomes(&stats, 0);
            let expect = |d: usize| match (scenario, d) {
                ("kill", 2) | ("flip", 4) => Outcome::Owes,
                _ => Outcome::Verified,
            };
            let asked = |d| scenario != "down" || d != 5;
            let want: Vec<_> = (0..n)
                .filter(|&d| asked(d))
                .map(|d| (d, expect(d)))
                .collect();
            assert_eq!(first, want, "{scenario}");
            assert_eq!(stats.rounds.len(), if scenario == "down" { 1 } else { 2 });
            faulty.iter().for_each(|f| f.clear());
            store.heal_disk(5).unwrap();
        }
    }

    #[test]
    fn a_read_lost_after_round_one_counts_that_round_and_no_read() {
        let (store, faulty) = faulty_store();
        let x = store.append(&blob(30_000, 56));
        store.flush();
        let (first, last) = x.element_range(64).unwrap();
        let plan = store
            .scheme()
            .normal_read_plan(first, (last - first) as usize);
        let counters = || store.recorder().snapshot().counters;
        let before = counters();
        // Four silent disks: round 1 finds them, the replan cannot read
        // around them.
        for f in &faulty[..4] {
            f.arm(FaultKind::Kill, 0);
        }
        assert!(matches!(store.read(x), Err(StoreError::DataLoss(_))));
        let after = counters();
        let moved = |name: &str| after[name] - before[name];
        assert_eq!(moved("read.rpcs"), plan.disks_touched() as u64);
        assert_eq!(moved("read.batch_elems"), plan.total_fetched() as u64);
        for name in ["reads", "replans", "fetched_elements", "degraded_reads"] {
            assert_eq!(moved(name), 0, "{name}");
        }
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
        let x = store.append(&data);
        store.flush();
        assert!(store.stats().suspect_disks.is_empty());
        let (bytes, stats) = store.read(x).unwrap();
        assert_eq!(bytes, data);
        assert!(stats.degraded);
        assert_eq!(store.stats().suspect_disks, vec![3]);
        let gauges = store.recorder().snapshot().gauges;
        assert_eq!((gauges["disks.suspect"], gauges["disks.down"]), (1, 0));
    }

    #[test]
    fn zero_length_reads_seal_nothing() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        store.append(&blob(10, 53));
        let e = store.append(&[]);
        let b = store.append(&blob(10, 54));
        let before = store.stats();
        assert_eq!(before.pending_bytes, 20);
        assert_eq!(store.read(e).unwrap().0, Vec::<u8>::new());
        assert_eq!(
            store.read_extent(b, 3, 0, &ReadOpts::default()).unwrap().0,
            Vec::<u8>::new()
        );
        assert_eq!(store.stats(), before, "an empty read flushed the tail");
        store.fail_disk(0).unwrap();
        let (_, stats) = store.read(e).unwrap();
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
        let f = store.append(&data);
        assert_eq!(store.read(f).unwrap().0, data);
        // Degraded read off real files.
        store.fail_disk(5).unwrap();
        assert_eq!(store.read(f).unwrap().0, data);
        // Real loss: wipe the file, rebuild it.
        store.array().disk(5).wipe();
        store.recover_disk(5).unwrap();
        assert_eq!(store.read(f).unwrap().0, data);
        assert!(store.scrub().unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_stats_reflect_degradation() {
        let store = lrc_store();
        let data = blob(10_000, 20);
        let s = store.append(&data);
        let (bytes, normal) = store.read(s).unwrap();
        assert_eq!(bytes, data);
        assert!(!normal.degraded);
        assert_eq!(normal.repair_elements, 0);
        assert!((normal.cost - 1.0).abs() < 1e-12);
        assert!(normal.fetched_elements >= normal.requested_elements);

        store.fail_disk(0).unwrap();
        let (bytes, degraded) = store.read(s).unwrap();
        assert_eq!(bytes, data);
        assert!(degraded.degraded);
        assert!(degraded.cost >= 1.0);
    }

    #[test]
    fn verify_on_read_treats_corruption_as_erasure() {
        let (store, faulty) = faulty_store();
        let data = blob(30_000, 51);
        let x = store.append(&data);
        store.flush();

        // Disk 2 starts lying: every read comes back bit-flipped. The
        // read must detect it, replan degraded, and still return
        // byte-correct data.
        faulty[2].arm(FaultKind::FlipCorrupt, 0);
        let (bytes, stats) = store.read(x).unwrap();
        assert_eq!(bytes, data, "corrupted answers never reach the caller");
        assert!(stats.degraded);
        assert_eq!(stats.replans(), 1);
        assert_eq!(store.stats().suspect_disks, vec![2]);
        assert!(store.disks().hint_count() > 0, "stripe hints staged");
        assert!(store.recorder().snapshot().counters["integrity.verify_fail"] > 0);

        // The probe sees through the lie too: corrupt answers must not
        // clear the suspicion.
        assert!(!store.probe_disk(2));
        // Honest again: probe passes, reads are clean and normal.
        faulty[2].clear();
        assert!(store.probe_disk(2));
        let (bytes, stats) = store.read(x).unwrap();
        assert_eq!(bytes, data);
        assert!(!stats.degraded);
    }

    #[test]
    fn degraded_reads_reuse_solved_coefficients() {
        let store = lrc_store();
        let data = blob(20_000, 23);
        let hot = store.append(&data);
        store.fail_disk(2).unwrap();
        for _ in 0..10 {
            assert_eq!(store.read(hot).unwrap().0, data);
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
        let x = store.append(&data);
        store.flush();
        let (bytes, stats) = store.read(x).unwrap();
        assert_eq!(bytes, data);
        let [round] = &stats.rounds[..] else {
            panic!("one round: {stats:?}")
        };
        let rpcs = round.disks.len();
        assert!(
            (1..=store.scheme().n_disks()).contains(&rpcs),
            "one read issued {rpcs} per-disk requests over {} disks",
            store.scheme().n_disks()
        );
        let elems: usize = round.disks.iter().map(|(a, _)| a.cells).sum();
        assert_eq!(elems, stats.fetched_elements);
        assert!(elems >= data.len() / 64, "cells: {elems}");
    }

    #[test]
    fn sequential_layout_reads_coalesce_into_runs() {
        // EC-FRM places data sequentially across all disks, so a read
        // spanning two data rows hands (at least) the wrap-around disks
        // a strictly contiguous per-disk offset run. (Full-object reads
        // cross parity rows, which punch periodic holes in the per-disk
        // offsets — those batches are not a one-run `Read`.)
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        let x = store.append(&blob(30_000, 41));
        store.flush();
        // Elements 0..11: every disk serves offset 0, the first two also
        // serve offset 1 → two [0, 1] runs.
        let (_, stats) = store.read_extent(x, 0, 700, &ReadOpts::default()).unwrap();
        let shape: Vec<_> = stats.rounds[0]
            .disks
            .iter()
            .map(|(a, _)| (a.disk, a.cells, a.runs))
            .collect();
        let want: Vec<_> = (0..9).map(|d| (d, if d < 2 { 2 } else { 1 }, 1)).collect();
        assert_eq!(shape, want);
        assert_eq!(
            store.recorder().snapshot().counters["read.coalesced_runs"],
            2
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
        let x = store.append(&data);
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
            move || store.read(x).unwrap().0
        });
        parked.recv().unwrap();
        assert_eq!(registry(), 1, "A's retry shows while A is in flight");
        assert_eq!(store.read(x).unwrap().0, data);
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
