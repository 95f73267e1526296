//! Whole-disk recovery (paper §IV-D): rebuild every element of a failed
//! disk, group by group.
//!
//! Recovery follows the paper's three steps: identify failed elements at
//! stripe level, establish each group's decoding relationship, and solve
//! it. [`DiskRecovery`] produces the full task list plus the read-load
//! distribution the rebuild induces on the surviving disks — EC-FRM
//! spreads that load like a vertical code would, which is one of the
//! merits §V-B claims.

use ecfrm_layout::Loc;

use crate::scheme::Scheme;

/// Rebuild instructions for one lost element.
#[derive(Debug, Clone)]
pub struct RepairTask {
    /// Stripe containing the lost element.
    pub stripe: u64,
    /// Candidate row (group) within the stripe.
    pub row: usize,
    /// Row position of the lost element.
    pub pos: usize,
    /// Where the rebuilt element must be written.
    pub target: Loc,
    /// `(row position, location)` of each element to read.
    pub sources: Vec<(usize, Loc)>,
}

/// A complete single-disk recovery plan over a stripe range.
#[derive(Debug, Clone)]
pub struct DiskRecovery {
    /// The failed disk.
    pub failed: usize,
    /// One task per lost element.
    pub tasks: Vec<RepairTask>,
    n_disks: usize,
}

impl DiskRecovery {
    /// Plan the recovery of `failed` over stripes `0..stripes`, assuming
    /// it is the only disk down.
    ///
    /// Repair sources are chosen greedily to keep the surviving disks'
    /// cumulative read loads balanced, by the same rule a degraded read
    /// picks its helpers with ([`Scheme::degraded_read_plan`]).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ecfrm_codes::RsCode;
    /// use ecfrm_core::{DiskRecovery, Scheme};
    ///
    /// let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
    ///     .layout(ecfrm_core::LayoutKind::EcFrm)
    ///     .build();
    /// let rec = DiskRecovery::plan(&scheme, 0, 4);
    /// // Every offset of the failed disk gets one rebuild task, each
    /// // reading k = 6 surviving elements.
    /// assert_eq!(rec.total_rebuilt(), 4 * 3); // 3 offsets per stripe
    /// assert_eq!(rec.total_reads(), rec.total_rebuilt() * 6);
    /// assert_eq!(rec.read_load()[0], 0);      // nothing read from disk 0
    /// ```
    ///
    /// # Panics
    /// Panics if `failed` is not a valid disk, or if some element of the
    /// failed disk is unrecoverable (single-disk failure is always within
    /// tolerance for any code with `m ≥ 1`).
    pub fn plan(scheme: &Scheme, failed: usize, stripes: u64) -> Self {
        Self::plan_among(scheme, failed, &[failed], stripes)
            .expect("single-disk failure must be repairable")
    }

    /// Plan the recovery of `target` while the disks in `all_failed`
    /// (which should include `target`) are simultaneously unavailable —
    /// the multi-failure rebuild path, where sources must avoid every
    /// downed disk.
    ///
    /// # Errors
    /// Returns a description of the first unrecoverable element if the
    /// combined failure pattern exceeds the code's tolerance.
    ///
    /// # Panics
    /// Panics if `target` is not a valid disk.
    pub fn plan_among(
        scheme: &Scheme,
        target: usize,
        all_failed: &[usize],
        stripes: u64,
    ) -> Result<Self, String> {
        let ids: Vec<u64> = (0..stripes).collect();
        Self::plan_stripes(scheme, target, all_failed, &ids)
    }

    /// Plan the recovery of `target` restricted to the given stripes —
    /// the unit of work of an incremental (background) repair pipeline,
    /// which rebuilds a lost disk stripe by stripe instead of in one
    /// blocking pass. Greedy source balancing runs over exactly the
    /// stripes given, so a one-stripe plan is self-contained.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ecfrm_codes::RsCode;
    /// use ecfrm_core::{DiskRecovery, Scheme};
    ///
    /// let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
    ///     .layout(ecfrm_core::LayoutKind::EcFrm)
    ///     .build();
    /// let one = DiskRecovery::plan_stripes(&scheme, 0, &[0], &[7]).unwrap();
    /// // Exactly the failed disk's elements of stripe 7.
    /// assert_eq!(one.total_rebuilt() as u64, scheme.layout().offsets_per_stripe());
    /// assert!(one.tasks.iter().all(|t| t.stripe == 7));
    /// ```
    ///
    /// # Errors
    /// Returns a description of the first unrecoverable element if the
    /// combined failure pattern exceeds the code's tolerance.
    ///
    /// # Panics
    /// Panics if `target` is not a valid disk.
    pub fn plan_stripes(
        scheme: &Scheme,
        target: usize,
        all_failed: &[usize],
        stripe_ids: &[u64],
    ) -> Result<Self, String> {
        let layout = scheme.layout();
        assert!(target < layout.n_disks(), "failed disk out of range");
        let down = |d: usize| d == target || all_failed.contains(&d);
        let mut loads = vec![0usize; layout.n_disks()];
        let mut tasks = Vec::new();
        for &stripe in stripe_ids {
            for row in 0..layout.rows_per_stripe() {
                let locs = layout.row_locations(stripe, row);
                // A row's elements sit on distinct disks: at most one of
                // them is `target`'s.
                let Some(pos) = locs.iter().position(|l| l.disk == target) else {
                    continue;
                };
                let chosen = scheme
                    .helpers(&locs, pos, down, &loads, |_| false)
                    .ok_or_else(|| {
                        format!(
                            "element (stripe {stripe}, row {row}, pos {pos}) unrecoverable \
                             with disks {all_failed:?} down"
                        )
                    })?;
                for &p in &chosen {
                    loads[locs[p].disk] += 1;
                }
                tasks.push(RepairTask {
                    stripe,
                    row,
                    pos,
                    target: locs[pos],
                    sources: chosen.into_iter().map(|p| (p, locs[p])).collect(),
                });
            }
        }
        Ok(Self {
            failed: target,
            tasks,
            n_disks: layout.n_disks(),
        })
    }

    /// Elements read from each surviving disk during recovery.
    pub fn read_load(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.n_disks];
        for t in &self.tasks {
            for (_, loc) in &t.sources {
                load[loc.disk] += 1;
            }
        }
        load
    }

    /// Total elements read.
    pub fn total_reads(&self) -> usize {
        self.tasks.iter().map(|t| t.sources.len()).sum()
    }

    /// Elements rebuilt (= elements the failed disk held in the range).
    pub fn total_rebuilt(&self) -> usize {
        self.tasks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfrm_codes::{CandidateCode, LrcCode, RsCode};
    use ecfrm_layout::{DomainMap, LayoutKind};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Execute one task against a full stripe image.
    fn rebuild(scheme: &Scheme, task: &RepairTask, all: &HashMap<Loc, Vec<u8>>) -> Vec<u8> {
        let sources: Vec<(usize, &[u8])> = task
            .sources
            .iter()
            .map(|(p, loc)| (*p, all[loc].as_slice()))
            .collect();
        scheme.reconstruct(task.pos, &sources, 8).unwrap()
    }

    fn ecfrm(code: Arc<dyn CandidateCode>) -> Scheme {
        Scheme::builder(code).layout(LayoutKind::EcFrm).build()
    }

    fn sample_elements(count: usize, size: usize) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| {
                (0..size)
                    .map(|j| ((i * 59 + j * 17 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn encode_stripes(scheme: &Scheme, data: &[Vec<u8>], stripes: u64) -> HashMap<Loc, Vec<u8>> {
        let dps = scheme.data_per_stripe();
        let mut all = HashMap::new();
        for s in 0..stripes {
            let refs: Vec<&[u8]> = data[s as usize * dps..(s as usize + 1) * dps]
                .iter()
                .map(|v| v.as_slice())
                .collect();
            for (loc, bytes) in scheme.encode_stripe(s, &refs).iter() {
                all.insert(loc, bytes.to_vec());
            }
        }
        all
    }

    #[test]
    fn recovery_rebuilds_every_element_exactly() {
        let codes: Vec<Arc<dyn CandidateCode>> = vec![
            Arc::new(RsCode::vandermonde(6, 3)),
            Arc::new(LrcCode::new(6, 2, 2)),
        ];
        for code in codes {
            for kind in [LayoutKind::Standard, LayoutKind::Rotated, LayoutKind::EcFrm] {
                let scheme = Scheme::builder(code.clone()).layout(kind).build();
                let stripes = 4u64;
                let dps = scheme.data_per_stripe();
                let data = sample_elements(stripes as usize * dps, 8);
                let all = encode_stripes(&scheme, &data, stripes);
                for failed in 0..scheme.n_disks() {
                    let rec = DiskRecovery::plan(&scheme, failed, stripes);
                    // One rebuilt element per offset of the failed disk.
                    assert_eq!(
                        rec.total_rebuilt() as u64,
                        stripes * scheme.layout().offsets_per_stripe(),
                        "{} failed={failed}",
                        scheme.name()
                    );
                    for task in &rec.tasks {
                        assert_eq!(task.target.disk, failed);
                        for (_, loc) in &task.sources {
                            assert_ne!(loc.disk, failed, "source on failed disk");
                        }
                        let rebuilt = rebuild(&scheme, task, &all);
                        assert_eq!(
                            rebuilt,
                            all[&task.target],
                            "{} failed={failed} task={task:?}",
                            scheme.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lrc_recovery_reads_fewer_elements_than_rs() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        let rs_rec = DiskRecovery::plan(&ecfrm(rs), 0, 4);
        let lrc_rec = DiskRecovery::plan(&ecfrm(lrc), 0, 4);
        // Per rebuilt element: RS reads k = 6, LRC reads k/l = 3 (data)
        // or slightly more for global parities.
        let rs_per = rs_rec.total_reads() as f64 / rs_rec.total_rebuilt() as f64;
        let lrc_per = lrc_rec.total_reads() as f64 / lrc_rec.total_rebuilt() as f64;
        assert!((rs_per - 6.0).abs() < 1e-9);
        assert!(lrc_per < rs_per, "LRC {lrc_per} vs RS {rs_per}");
    }

    #[test]
    fn ecfrm_recovery_spreads_load_across_all_disks() {
        // With EC-FRM, a failed disk's elements belong to different
        // groups whose sources span all surviving disks.
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = ecfrm(rs);
        let rec = DiskRecovery::plan(&scheme, 2, 6);
        let load = rec.read_load();
        assert_eq!(load[2], 0, "failed disk reads nothing");
        let surviving: Vec<usize> = load
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != 2)
            .map(|(_, &l)| l)
            .collect();
        assert!(
            surviving.iter().all(|&l| l > 0),
            "all survivors help: {load:?}"
        );
        let max = *surviving.iter().max().unwrap();
        let min = *surviving.iter().min().unwrap();
        assert!(
            max - min <= rec.total_rebuilt(),
            "recovery load wildly unbalanced: {load:?}"
        );
    }

    #[test]
    fn rack_aware_plan_keeps_rebuild_traffic_inside_the_rack() {
        // Rack 0 holds the failed disk plus exactly k = 6 survivors, so
        // every rebuild can be served without crossing racks — and with
        // domain labels set, it must be.
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = Scheme::builder(rs)
            .layout(LayoutKind::EcFrm)
            .domains(DomainMap::from_labels(&[0, 1, 1, 0, 0, 0, 0, 0, 0]))
            .build();
        let rec = DiskRecovery::plan(&scheme, 0, 6);
        let load = rec.read_load();
        assert_eq!(load[1], 0, "cross-rack helper used: {load:?}");
        assert_eq!(load[2], 0, "cross-rack helper used: {load:?}");
        assert!(
            load[3..].iter().all(|&l| l > 0),
            "all in-rack survivors help: {load:?}"
        );
    }

    #[test]
    fn plan_among_avoids_all_downed_disks() {
        // RS(6,3): rebuild disk 0 while disks 4 and 8 are also down.
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = ecfrm(rs);
        let stripes = 3u64;
        let dps = scheme.data_per_stripe();
        let data = sample_elements(stripes as usize * dps, 8);
        let all = encode_stripes(&scheme, &data, stripes);
        let rec = DiskRecovery::plan_among(&scheme, 0, &[0, 4, 8], stripes).unwrap();
        assert_eq!(
            rec.total_rebuilt() as u64,
            stripes * scheme.layout().offsets_per_stripe()
        );
        for task in &rec.tasks {
            assert_eq!(task.target.disk, 0);
            for (_, loc) in &task.sources {
                assert!(![0, 4, 8].contains(&loc.disk), "source on downed disk");
            }
            let rebuilt = rebuild(&scheme, task, &all);
            assert_eq!(rebuilt, all[&task.target]);
        }
    }

    #[test]
    fn plan_among_fails_beyond_tolerance() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = ecfrm(rs);
        // Four failures exceed RS(6,3)'s MDS limit.
        assert!(DiskRecovery::plan_among(&scheme, 0, &[0, 1, 2, 3], 2).is_err());
    }

    #[test]
    #[should_panic]
    fn invalid_disk_rejected() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = Scheme::builder(rs).build();
        DiskRecovery::plan(&scheme, 9, 1);
    }
}
