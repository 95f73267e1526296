//! Reconstruction (paper §IV-D): one engine, [`ObjectStore::repair_stripe`],
//! rebuilds what a disk stores for a stripe, group by group, and one
//! record, the disk's row of the [`DiskTable`](crate::DiskTable), says
//! which stripes are still owed — whoever drains it: the background
//! [`RepairManager`](crate::RepairManager)'s workers under its rate
//! limit, or [`ObjectStore::recover_disk`] in the caller's thread. Both
//! are counted here: each rebuilt stripe by the engine, each settled
//! disk by `settle_rebuilds`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use ecfrm_core::DiskRecovery;
use ecfrm_integrity::{append_footer, verify_footer, FOOTER_LEN};
use ecfrm_layout::Loc;
use ecfrm_sim::{combine_status, CombinePeerSpec, CombineSpec};

use super::ObjectStore;
use crate::error::StoreError;
use crate::meta::StripeRepair;
use crate::repair::{Settled, TICK};

/// One try at a stripe: rebuilt and written back, or the helpers that
/// lied or did not answer — to be excluded before the stripe is
/// replanned.
type Attempt = Result<StripeRepair, Vec<usize>>;

impl ObjectStore {
    /// Rebuild a lost disk from the survivors, write the reconstructed
    /// elements back, and return how many this call rebuilt.
    ///
    /// Models the *permanent* failure path: the disk is wiped, becomes
    /// rebuilding (reads plan around it), and the caller's thread pops
    /// and rebuilds its owed stripes with [`Self::repair_stripe`] the way
    /// a [`RepairManager`](crate::RepairManager)'s workers do, on the same
    /// record — so a manager beside it rebuilds no stripe twice — and
    /// heals it once none is owed. A disk already rebuilding is resumed,
    /// not wiped. It counts in the [registry](Self::recorder) as a
    /// manager's rebuild does: `repair.stripes_done`, `repair.bytes`,
    /// `repair_us`, `repair.disks_restored`, `repair.abandoned_stripes`.
    ///
    /// # Errors
    /// [`StoreError::DataLoss`], before anything is wiped, when too many
    /// disks are down for the rebuild to succeed; otherwise the first
    /// failed stripe's error, as [`Self::repair_stripe`]. That stripe
    /// stays owed: calling again rebuilds only what is still owed, until
    /// it has run out of tries and the disk is given up on.
    pub fn recover_disk(&self, disk: usize) -> Result<usize, StoreError> {
        if disk >= self.scheme.n_disks() {
            return Err(StoreError::NoSuchDisk(disk));
        }
        self.flush();
        let sealed = self.sealed();
        if !self.disks.rebuilding().contains(&disk) {
            // Refuse before destroying anything: wiping a disk whose
            // rebuild cannot succeed would turn an outage that may be
            // transient into a loss.
            DiskRecovery::plan_among(&self.scheme, disk, &sealed.down, sealed.stripes)
                .map_err(StoreError::DataLoss)?;
            let backend = self.array.disk(disk);
            self.disks.start(disk, sealed.stripes, || backend.wipe());
        }
        // Until healed, by this call or a manager beside it.
        let mut rebuilt = 0;
        while self.disks.rebuilding().contains(&disk) {
            if let Some((_, stripe)) = self.disks.pop(Some(disk)) {
                let repaired = self.repair_stripe(disk, stripe);
                self.disks.finish(disk, stripe, repaired.is_ok());
                rebuilt += repaired?.elements;
                continue;
            }
            match self.settle_rebuilds(Some(disk))[..] {
                [(_, Settled::Heal(_))] => {}
                [(_, Settled::GaveUp(n))] => {
                    let lost = format!("gave up on {n} stripes of disk {disk}");
                    return Err(StoreError::DataLoss(lost));
                }
                // A manager's worker holds a stripe of it, or stripes
                // sealed since joined what is owed.
                _ => std::thread::sleep(TICK),
            }
        }
        Ok(rebuilt)
    }

    /// Settle every rebuilding disk with nothing owed — `only` that disk
    /// when given — for either driver: a rebuilt disk is healed inside
    /// the table's lock and counted there, so it is restored and counted
    /// once whoever settles it, and a disk given up on counts its
    /// abandoned stripes.
    pub(crate) fn settle_rebuilds(&self, only: Option<usize>) -> Vec<(usize, Settled)> {
        let sealed = self.with_state(|s| s.stripes);
        self.disks
            .settle(sealed, only, |s| self.metrics.note_settled(s))
    }

    /// Rebuild every element `disk` stores for `stripe` (data *and*
    /// parity) from the survivors and write them back — the one
    /// reconstruction engine.
    ///
    /// This neither wipes nor heals the target: repair of a disk
    /// proceeds stripe by stripe while reads keep planning around it,
    /// and the disk is healed only once every stripe is back (so
    /// redundancy is restored atomically from the planner's point of
    /// view). A rebuilt stripe counts in `repair.stripes_done`,
    /// `repair.bytes`, `repair.read_bytes`, `repair.wire_bytes` and
    /// `repair_us`.
    ///
    /// Where every helper is a shard other shards can dial
    /// ([`DiskBackend::peer_addr`](ecfrm_sim::DiskBackend::peer_addr)),
    /// the helpers pre-sum their elements server-side and the rebuilder
    /// ingests `rows` regions; otherwise it fetches the `k·rows` source
    /// elements and decodes here. A helper caught lying (checksum
    /// mismatch) or not answering is reported suspect, excluded, and the
    /// stripe replanned around it — the erasure code has spare sources
    /// precisely for this.
    ///
    /// # Errors
    /// [`StoreError::NoSuchDisk`] / [`StoreError::NoSuchStripe`] for
    /// bad coordinates; [`StoreError::DataLoss`] if too many disks are
    /// down or excluded for the stripe to be rebuilt.
    pub fn repair_stripe(&self, disk: usize, stripe: u64) -> Result<StripeRepair, StoreError> {
        if disk >= self.scheme.n_disks() {
            return Err(StoreError::NoSuchDisk(disk));
        }
        let sealed = self.sealed();
        if stripe >= sealed.stripes {
            return Err(StoreError::NoSuchStripe(stripe));
        }
        let t0 = Instant::now();
        let mut excluded = sealed.down;
        for _attempt in 0..3 {
            let recovery = DiskRecovery::plan_stripes(&self.scheme, disk, &excluded, &[stripe])
                .map_err(StoreError::DataLoss)?;
            self.note_cross_domain(disk, &recovery);
            let attempt = match self.repair_stripe_combined(&recovery) {
                Some(attempt) => attempt,
                None => self.repair_stripe_batched(&recovery),
            };
            match attempt {
                Ok(repair) => {
                    self.metrics.note_repair(&repair, t0.elapsed());
                    return Ok(repair);
                }
                Err(helpers) => {
                    for d in helpers {
                        if !excluded.contains(&d) {
                            excluded.push(d);
                        }
                    }
                }
            }
        }
        Err(StoreError::DataLoss(format!(
            "repair of stripe {stripe} exhausted retries: helpers kept failing verification"
        )))
    }

    /// The batched path: fetch every source element, verify, decode
    /// client-side — what an array with a local disk among the helpers
    /// takes, and a stripe whose combine root could not be reached.
    fn repair_stripe_batched(&self, recovery: &DiskRecovery) -> Attempt {
        // One vectored request per disk for all distinct sources of this
        // stripe. Repair must not launder corruption into freshly sealed
        // cells: a source that fails verification is as bad as one that
        // never answered.
        let want: BTreeSet<(usize, u64)> = recovery
            .tasks
            .iter()
            .flat_map(|t| &t.sources)
            .map(|(_, loc)| (loc.disk, loc.offset))
            .collect();
        let addrs: Vec<(usize, u64)> = want.into_iter().collect();
        let mut fetched: HashMap<Loc, Vec<u8>> = HashMap::with_capacity(addrs.len());
        let round = self.fetch_verified(&addrs, |tag, bytes| {
            let (disk, offset) = addrs[tag];
            fetched.insert(Loc::new(disk, offset), bytes);
        });
        let bad: Vec<usize> = round.bad().collect();
        if !bad.is_empty() {
            return Err(bad);
        }
        // Every source arrived whole: a payload and its footer each.
        let bytes_read = (addrs.len() * (self.element_size + FOOTER_LEN)) as u64;

        // Stripe-level work is small; rebuild serially to keep repair's
        // CPU footprint low (parallelism comes from the worker pool).
        // Each rebuilt element is re-sealed with a fresh footer.
        let mut rebuilt: Vec<((usize, u64), Vec<u8>)> = Vec::with_capacity(recovery.tasks.len());
        let mut bytes_written = 0u64;
        for task in &recovery.tasks {
            let sources: Vec<(usize, &[u8])> = task
                .sources
                .iter()
                .map(|(p, loc)| (*p, fetched[loc].as_slice()))
                .collect();
            let mut bytes = self
                .scheme
                .reconstruct(task.pos, &sources, self.element_size)
                .expect("plan sources span the target");
            append_footer(&self.key, task.target.offset, &mut bytes);
            bytes_written += bytes.len() as u64;
            rebuilt.push(((task.target.disk, task.target.offset), bytes));
        }
        let elements = rebuilt.len();
        self.metrics.note_write(self.array.write_batch(rebuilt));
        Ok(StripeRepair {
            elements,
            bytes_read,
            bytes_written,
        })
    }

    /// Count planned repair sources that sit outside the failed disk's
    /// failure domain (distinct elements, the way they are fetched).
    fn note_cross_domain(&self, target: usize, recovery: &DiskRecovery) {
        let domains = self.scheme.domains();
        let distinct: BTreeSet<(usize, u64)> = recovery
            .tasks
            .iter()
            .flat_map(|t| &t.sources)
            .filter(|(_, loc)| !domains.same_domain(target, loc.disk))
            .map(|(_, loc)| (loc.disk, loc.offset))
            .collect();
        if !distinct.is_empty() {
            self.metrics.cross_domain_reads.add(distinct.len() as u64);
        }
    }

    /// The repair-traffic-optimal path: ship each helper's decode
    /// coefficients to the shard (`CombineRange`), let one *root* helper
    /// XOR-merge the other helpers' partial sums server-side, and ingest
    /// `rows` sealed regions instead of `k·rows` raw elements.
    ///
    /// Every helper must be dialable by the others
    /// ([`DiskBackend::peer_addr`](ecfrm_sim::DiskBackend::peer_addr));
    /// this is where a stripe's path is chosen, and nothing but what the
    /// array reports chooses it. `None` sends the stripe down the
    /// batched path: a local disk among the helpers, or a root that
    /// could not be reached or vetoed without naming a liar.
    fn repair_stripe_combined(&self, recovery: &DiskRecovery) -> Option<Attempt> {
        let tasks = &recovery.tasks;
        if tasks.is_empty() {
            return Some(Ok(StripeRepair::default()));
        }
        let outputs = tasks.len();
        // Column-assign decode coefficients: helper disk → offset →
        // (output lane, coefficient). Lane r rebuilds task r.
        let mut per_disk: BTreeMap<usize, BTreeMap<u64, Vec<(usize, u8)>>> = BTreeMap::new();
        for (r, task) in tasks.iter().enumerate() {
            let mut avail: Vec<usize> = task.sources.iter().map(|(p, _)| *p).collect();
            avail.sort_unstable();
            let coeffs = self.scheme.decoder().coefficients(task.pos, &avail)?;
            for (p, loc) in &task.sources {
                let i = avail.binary_search(p).expect("source position in avail");
                if coeffs[i] != 0 {
                    per_disk
                        .entry(loc.disk)
                        .or_default()
                        .entry(loc.offset)
                        .or_default()
                        .push((r, coeffs[i]));
                }
            }
        }
        // One contiguous window + row-major coefficient matrix per
        // helper; unused columns stay zero and are never verified or
        // summed server-side.
        struct Helper {
            disk: usize,
            addr: String,
            offset: u64,
            count: usize,
            coeffs: Vec<u8>,
        }
        let mut helpers: Vec<Helper> = Vec::new();
        for (disk, cells) in per_disk {
            let first = *cells.keys().next().expect("non-empty helper");
            let last = *cells.keys().next_back().expect("non-empty helper");
            let count = (last - first + 1) as usize;
            let mut coeffs = vec![0u8; outputs * count];
            for (&o, lanes) in &cells {
                for &(r, c) in lanes {
                    coeffs[r * count + (o - first) as usize] = c;
                }
            }
            helpers.push(Helper {
                disk,
                addr: self.array.disk(disk).peer_addr()?,
                offset: first,
                count,
                coeffs,
            });
        }
        if helpers.is_empty() {
            return None;
        }
        // Root: the helper that merges everyone else's partials. Prefer
        // one inside the failed disk's rack so the fat flows (peer →
        // root, root → client) stay intra-domain.
        let domains = self.scheme.domains();
        let root_idx = helpers
            .iter()
            .position(|h| domains.same_domain(h.disk, recovery.failed))
            .unwrap_or(0);
        let root = helpers.swap_remove(root_idx);
        let peers = helpers;
        let spec = CombineSpec {
            offset: root.offset,
            count: root.count as u32,
            outputs: outputs as u32,
            coeffs: root.coeffs,
            key: (self.key.k0, self.key.k1),
            peers: peers
                .iter()
                .map(|h| CombinePeerSpec {
                    addr: h.addr.clone(),
                    offset: h.offset,
                    count: h.count as u32,
                    coeffs: h.coeffs.clone(),
                })
                .collect(),
        };
        // The root is unreachable or refused the request: nothing to
        // exclude, use the batched path for this stripe.
        let reply = self.array.disk(root.disk).combine(&spec).ok()?;
        if reply.regions.is_empty() {
            // The root vetoed: some used element or peer failed
            // verification. Corrupt parties are excluded and the stripe
            // replanned; mere absence falls back to the batched path,
            // which has its own suspect handling.
            let mut corrupt = Vec::new();
            if reply.local_status.contains(&combine_status::CORRUPT) {
                corrupt.push(root.disk);
            }
            for (i, &s) in reply.peer_status.iter().enumerate() {
                if s == combine_status::CORRUPT {
                    corrupt.push(peers[i].disk);
                }
            }
            if corrupt.is_empty() {
                return None;
            }
            self.metrics.verify_fail.add(corrupt.len() as u64);
            self.disks.report([], &corrupt.iter().copied().collect());
            return Some(Err(corrupt));
        }
        if reply.regions.len() != outputs {
            return None;
        }
        // Verify and strip the root's seal on each merged region, then
        // re-seal each completed sum at its home offset.
        let mut wire_bytes = 0u64;
        let mut bytes_written = 0u64;
        let mut rebuilt: Vec<((usize, u64), Vec<u8>)> = Vec::with_capacity(outputs);
        for (r, (task, region)) in tasks.iter().zip(&reply.regions).enumerate() {
            wire_bytes += region.len() as u64;
            let Some(payload) = verify_footer(&self.key, root.offset + r as u64, region) else {
                self.metrics.verify_fail.inc();
                self.disks.report([], &BTreeSet::from([root.disk]));
                return Some(Err(vec![root.disk]));
            };
            let mut bytes = payload.to_vec();
            bytes.truncate(self.element_size);
            append_footer(&self.key, task.target.offset, &mut bytes);
            bytes_written += bytes.len() as u64;
            rebuilt.push(((task.target.disk, task.target.offset), bytes));
        }
        self.metrics.combined_stripes.inc();
        self.metrics.note_write(self.array.write_batch(rebuilt));
        Some(Ok(StripeRepair {
            elements: outputs,
            bytes_read: wire_bytes,
            bytes_written,
        }))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use ecfrm_codes::{CandidateCode, LrcCode, RsCode};
    use ecfrm_core::{LayoutKind, Scheme};
    use ecfrm_integrity::FOOTER_LEN;
    use ecfrm_sim::{DiskBackend, FaultKind, IoHandle, MemDisk, ThreadedArray, WriteRun};

    use super::super::testkit::{blob, ecfrm_scheme, faulty_store, lrc_store};
    use super::*;
    use crate::repair::MAX_TRIES;
    use crate::{ObjectMeta, RepairConfig, RepairManager};

    /// A disk that counts the cells written to it.
    #[derive(Debug, Default)]
    struct CountingDisk {
        inner: MemDisk,
        cells: AtomicUsize,
    }

    impl DiskBackend for CountingDisk {
        fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
            self.inner.submit_read_many(offsets)
        }
        fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
            let cells: usize = runs.iter().map(WriteRun::count).sum();
            self.cells.fetch_add(cells, Ordering::Relaxed);
            self.inner.submit_write_many(runs)
        }
        fn wipe(&self) {
            self.inner.wipe();
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    /// An RS(6,3) EC-FRM store of 64-byte elements on 100 µs disks, a
    /// [`CountingDisk`] in slot 4, holding `data` sealed at the extent
    /// returned beside it.
    fn counted_store(data: &[u8]) -> (Arc<ObjectStore>, Arc<CountingDisk>, ObjectMeta) {
        let scheme = ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3)));
        let counting = Arc::new(CountingDisk::default());
        let backends: Vec<Arc<dyn DiskBackend>> = (0..scheme.n_disks())
            .map(|d| match d {
                4 => Arc::clone(&counting) as Arc<dyn DiskBackend>,
                _ => Arc::new(MemDisk::with_latency(Duration::from_micros(100))),
            })
            .collect();
        let array = ThreadedArray::from_backends(backends);
        let store = Arc::new(ObjectStore::with_array(scheme, 64, array));
        let x = store.append(data);
        store.flush();
        (store, counting, x)
    }

    /// Make helpers 0, 1 and 2 lie about every cell of `stripe`: with
    /// disk 4 lost, four disks of an RS(6,3) stripe are out. Returns
    /// each cell as it was, to put back.
    fn lie_about(store: &ObjectStore, stripe: u64) -> Vec<(Arc<dyn DiskBackend>, u64, Vec<u8>)> {
        let rows = store.scheme().layout().offsets_per_stripe();
        let mut saved = Vec::new();
        for helper in [0, 1, 2] {
            let disk = store.array().disk(helper);
            for offset in stripe * rows..(stripe + 1) * rows {
                let cell = disk.read(offset).unwrap();
                let mut lie = cell.clone();
                lie[0] ^= 1;
                disk.write(offset, lie);
                saved.push((disk.clone(), offset, cell));
            }
        }
        saved
    }

    /// A registry counter, 0 if never registered.
    fn counter(store: &ObjectStore, name: &str) -> u64 {
        let snap = store.recorder().snapshot();
        snap.counters.get(name).copied().unwrap_or(0)
    }

    #[test]
    fn recover_disk_beside_a_manager_writes_each_victim_cell_once() {
        let data = blob(40_000, 18);
        let (store, counting, x) = counted_store(&data);
        let stripes = store.stats().stripes;
        let rows = store.scheme().layout().offsets_per_stripe();
        let mgr = RepairManager::spawn(Arc::clone(&store), RepairConfig::default());
        let before = counting.cells.load(Ordering::Relaxed);
        // The call and the manager's workers pop one record between them.
        let rebuilt = store.recover_disk(4).unwrap() as u64;
        assert!(
            mgr.wait_idle(Duration::from_secs(30)),
            "{:?}",
            store.disks()
        );
        mgr.shutdown();
        let written = (counting.cells.load(Ordering::Relaxed) - before) as u64;
        assert_eq!(written, stripes * rows, "every victim cell written once");
        assert!(rebuilt <= stripes * rows);
        // Each stripe counted once, whichever driver rebuilt it, and the
        // disk restored once, whichever settled it.
        assert_eq!(counter(&store, "repair.stripes_done"), stripes);
        assert_eq!(counter(&store, "repair.disks_restored"), 1);
        assert!(store.stats().failed_disks.is_empty());
        assert_eq!(store.read(x).unwrap().0, data);
    }

    #[test]
    fn recover_disk_counts_its_rebuild_as_a_manager_does() {
        let data = blob(40_000, 20);
        let (store, _, x) = counted_store(&data);
        let stripes = store.stats().stripes;
        let cells = store.array().disk(4).len() as u64;
        assert_eq!(store.recover_disk(4).unwrap() as u64, cells);
        let snap = store.recorder().snapshot();
        let counter = |name: &str| snap.counters.get(name).copied();
        assert_eq!(counter("repair.stripes_done"), Some(stripes));
        assert_eq!(counter("repair.disks_restored"), Some(1));
        let cell = 64 + FOOTER_LEN as u64;
        assert_eq!(counter("repair.bytes"), Some(cells * cell));
        let samples = snap.histograms.get("repair_us").map(|h| h.count);
        assert_eq!(samples, Some(stripes), "one repair_us sample per stripe");
        let ttr = snap.gauges.get("repair.time_to_redundancy_ms");
        assert!(ttr.is_some_and(|&ms| ms >= 0), "{ttr:?}");
        assert_eq!(store.read(x).unwrap().0, data);
    }

    #[test]
    fn a_recover_disk_that_gives_up_counts_the_abandoned_stripes() {
        let (store, _, _) = counted_store(&blob(40_000, 21));
        let stripes = store.stats().stripes;
        lie_about(&store, stripes / 2);
        // Each call fails on the stripe the helpers lie about and charges
        // it one try; the call after its last try gives the disk up.
        for call in 1..=MAX_TRIES {
            let err = store.recover_disk(4).unwrap_err();
            assert!(!err.to_string().contains("gave up"), "call {call}: {err}");
        }
        let err = store.recover_disk(4).unwrap_err();
        assert!(
            matches!(&err, StoreError::DataLoss(e) if e == "gave up on 1 stripes of disk 4"),
            "{err}"
        );
        assert_eq!(store.stats().failed_disks, vec![4], "given up on: down");
        assert_eq!(counter(&store, "repair.abandoned_stripes"), 1);
        assert_eq!(counter(&store, "repair.stripes_done"), stripes - 1);
        assert_eq!(counter(&store, "repair.disks_restored"), 0);
    }

    #[test]
    fn repair_gauges_agree_with_the_table_after_a_stopped_manager_and_recover_disk() {
        let data = blob(40_000, 22);
        let (store, _, x) = counted_store(&data);
        let stripes = store.stats().stripes;
        let done = store.recorder().counter("repair.stripes_done");
        store.fail_disk(4).unwrap();
        store.array().disk(4).wipe();
        // At 1 B/s the lone worker rebuilds one stripe and parks on the
        // limiter; the call finishes the disk once the manager is gone.
        let throttled = RepairManager::spawn(
            Arc::clone(&store),
            RepairConfig {
                workers: 1,
                rate_limit: Some(1),
                replacer: None,
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while done.get() == 0 {
            assert!(std::time::Instant::now() < deadline, "no stripe rebuilt");
            std::thread::sleep(Duration::from_millis(1));
        }
        throttled.shutdown();
        store.recover_disk(4).unwrap();

        let snap = store.recorder().snapshot();
        assert_eq!(snap.counters.get("repair.stripes_done"), Some(&stripes));
        assert_eq!(snap.counters.get("repair.disks_restored"), Some(&1));
        assert_eq!(snap.gauges.get("disks.rebuilding"), Some(&0));
        // Every disk is up and nothing is owed: so says every gauge.
        let backlog = snap.gauges.iter().filter(|(name, _)| {
            let repair = name.starts_with("repair.") && *name != "repair.time_to_redundancy_ms";
            repair || name.starts_with("disks.")
        });
        for (name, &v) in backlog {
            assert_eq!(v, 0, "{name} with every disk up and nothing owed");
        }
        assert_eq!(store.read(x).unwrap().0, data);
    }

    #[test]
    fn a_failed_recover_disk_resumes_with_only_the_owed_stripes() {
        let data = blob(40_000, 19);
        let (store, counting, x) = counted_store(&data);
        let stripes = store.stats().stripes;
        let rows = store.scheme().layout().offsets_per_stripe();
        let written = || counting.cells.load(Ordering::Relaxed) as u64;
        // Three helpers lie about every cell of stripe `s`: with the
        // victim, four disks of an RS(6,3) stripe are out.
        let s = stripes / 2;
        let saved = lie_about(&store, s);
        let before = written();
        assert!(matches!(
            store.recover_disk(4),
            Err(StoreError::DataLoss(_))
        ));
        assert_eq!(written() - before, s * rows, "stripes before `s` rebuilt");
        assert_eq!(store.stats().failed_disks, vec![4], "still rebuilding");

        for (disk, offset, cell) in saved {
            disk.write(offset, cell);
        }
        let before = written();
        let rebuilt = store.recover_disk(4).unwrap() as u64;
        assert_eq!(written() - before, (stripes - s) * rows, "no re-wipe");
        assert_eq!(rebuilt, (stripes - s) * rows);
        assert!(store.stats().failed_disks.is_empty());
        assert_eq!(store.read(x).unwrap().0, data);
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn recovery_works_for_every_disk_and_scheme_form() {
        let code: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        // The last form is EC-FRM over three racks of three: helpers
        // prefer the lost disk's rack.
        for (kind, racks) in [
            (LayoutKind::Standard, 1),
            (LayoutKind::Rotated, 1),
            (LayoutKind::EcFrm, 1),
            (LayoutKind::EcFrm, 3),
        ] {
            let scheme = Scheme::builder(code.clone())
                .layout(kind)
                .racks(racks)
                .build();
            let name = format!("{} over {racks} racks", scheme.name());
            let store = ObjectStore::new(scheme, 32);
            let data = blob(9_000, 11);
            let o = store.append(&data);
            store.flush();
            for d in 0..6 {
                store.fail_disk(d).unwrap();
                store.array.disk(d).wipe();
                store.recover_disk(d).unwrap();
                assert_eq!(store.read(o).unwrap().0, data, "{name} disk {d}");
            }
        }
    }

    #[test]
    fn recover_under_concurrent_failures() {
        // Three disks lost at once — the limit of both codes — rebuilt
        // one at a time while the others are still down; the last is
        // the plain single-disk rebuild.
        for code in [
            Arc::new(LrcCode::new(6, 2, 2)) as Arc<dyn CandidateCode>,
            Arc::new(RsCode::vandermonde(6, 3)),
        ] {
            let store = ObjectStore::new(ecfrm_scheme(code), 64);
            let name = store.scheme().name();
            let data = blob(15_000, 13);
            let m = store.append(&data);
            store.flush();
            let lost = [0usize, 4, 8];
            let cells: Vec<usize> = lost.iter().map(|&d| store.array.disk(d).len()).collect();
            assert!(cells.iter().all(|&c| c > 0));
            for d in lost {
                store.fail_disk(d).unwrap();
                store.array.disk(d).wipe();
            }
            for (d, cells) in lost.into_iter().zip(cells) {
                assert_eq!(store.recover_disk(d).unwrap(), cells, "{name} disk {d}");
                assert_eq!(store.read(m).unwrap().0, data, "{name} disk {d}");
            }
            assert!(store.stats().failed_disks.is_empty());
            assert!(store.scrub().unwrap().is_clean(), "{name}");
        }
    }

    #[test]
    fn recover_beyond_tolerance_is_data_loss_and_destroys_nothing() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        store.append(&blob(5_000, 14));
        store.flush();
        for d in [0usize, 1, 2, 3] {
            store.fail_disk(d).unwrap();
        }
        let cells = store.array.disk(0).len();
        assert!(matches!(
            store.recover_disk(0),
            Err(StoreError::DataLoss(_))
        ));
        assert_eq!(store.array.disk(0).len(), cells);
    }

    #[test]
    fn recover_disk_excludes_a_lying_helper_and_rebuilds_exact_bytes() {
        let (store, faulty) = faulty_store();
        let data = blob(30_000, 17);
        let x = store.append(&data);
        store.flush();
        let (lost, liar) = (2usize, 5usize);
        let cells = store.array.disk(lost).len() as u64;
        let originals: Vec<Vec<u8>> = (0..cells)
            .map(|o| store.array.disk(lost).read(o).unwrap())
            .collect();

        faulty[liar].arm(FaultKind::FlipCorrupt, 0);
        assert_eq!(store.recover_disk(lost).unwrap() as u64, cells);
        assert_eq!(store.stats().suspect_disks, vec![liar]);
        assert!(store.recorder().snapshot().counters["integrity.verify_fail"] > 0);
        for (o, want) in originals.iter().enumerate() {
            let got = store.array.disk(lost).read(o as u64);
            assert_eq!(got.as_ref(), Some(want), "rebuilt cell {o}");
        }
        faulty[liar].clear();
        assert_eq!(store.read(x).unwrap().0, data);
    }

    #[test]
    fn repair_stripe_by_stripe_restores_a_wiped_disk() {
        let store = lrc_store();
        let data = blob(30_000, 15);
        let big = store.append(&data);
        store.flush();
        let elements = store.array.disk(4).len();
        store.fail_disk(4).unwrap();
        store.array.disk(4).wipe();
        let stripes = store.stats().stripes;
        let mut rebuilt = 0usize;
        for s in 0..stripes {
            let r = store.repair_stripe(4, s).unwrap();
            assert!(r.elements > 0);
            assert!(r.bytes_read > 0);
            // Rebuilt cells carry a fresh checksum footer each.
            assert_eq!(
                r.bytes_written,
                r.elements as u64 * (64 + FOOTER_LEN as u64)
            );
            rebuilt += r.elements;
        }
        assert_eq!(rebuilt, elements, "every lost element rebuilt");
        // Still planned around until healed — then fully back.
        assert!(store.read(big).unwrap().1.degraded);
        store.heal_disk(4).unwrap();
        let (bytes, stats) = store.read(big).unwrap();
        assert_eq!(bytes, data);
        assert!(!stats.degraded);
        assert_eq!(stats.repair_elements, 0);
    }

    #[test]
    fn repair_stripe_rejects_bad_coordinates() {
        let store = lrc_store();
        store.append(&blob(5_000, 16));
        store.flush();
        assert!(matches!(
            store.repair_stripe(10, 0),
            Err(StoreError::NoSuchDisk(10))
        ));
        assert!(matches!(
            store.repair_stripe(0, 999),
            Err(StoreError::NoSuchStripe(999))
        ));
    }

    #[test]
    fn invalid_disk_operations() {
        let store = lrc_store();
        assert!(matches!(
            store.fail_disk(10),
            Err(StoreError::NoSuchDisk(10))
        ));
        assert!(matches!(
            store.heal_disk(99),
            Err(StoreError::NoSuchDisk(99))
        ));
        assert!(matches!(
            store.recover_disk(10),
            Err(StoreError::NoSuchDisk(10))
        ));
    }
}
