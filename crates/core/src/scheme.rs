//! [`Scheme`]: a candidate code bound to a layout — the unit the paper
//! evaluates ("RS", "R-RS", "EC-FRM-RS", …).

use std::collections::HashMap;
use std::sync::Arc;

use ecfrm_codes::{CandidateCode, CodeError, DecoderCache, RepairSpec};
use ecfrm_layout::{DomainMap, Layout, LayoutKind, Loc};
use ecfrm_obs::Recorder;

use crate::plan::{Fetch, Purpose, ReadPlan};
use crate::stripe::StripeImage;

/// Per-read context for [`Scheme::assemble_read`] and
/// [`Scheme::fill_holes`]: an optional [`Recorder`] (decode timing lands
/// in its `decode_us` histogram and `decoded_elements` counter).
///
/// `ReadCtx::default()` is the plain unrecorded read. Coefficients come
/// from the scheme's own [`DecoderCache`] either way.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCtx<'a> {
    recorder: Option<&'a Recorder>,
}

impl<'a> ReadCtx<'a> {
    /// No recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record decode timings into `recorder`.
    pub fn with_recorder(mut self, recorder: &'a Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// A complete erasure-coding scheme: `(n, k)` candidate code + element
/// placement. All read planning, encoding and reconstruction go through
/// this type.
///
/// Clones share one [`DecoderCache`], so every reader and rebuilder of a
/// store solves each erasure geometry once.
#[derive(Clone)]
pub struct Scheme {
    code: Arc<dyn CandidateCode>,
    layout: Arc<dyn Layout>,
    domains: Arc<DomainMap>,
    decoder: Arc<DecoderCache>,
}

impl std::fmt::Debug for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheme({})", self.name())
    }
}

impl Scheme {
    /// Bind `code` to an arbitrary layout.
    ///
    /// # Panics
    /// Panics if the layout's `(n, k)` disagrees with the code's.
    pub fn new(code: Arc<dyn CandidateCode>, layout: Arc<dyn Layout>) -> Self {
        let domains = Arc::new(DomainMap::single(layout.n_disks()));
        Self::with_domains(code, layout, domains)
    }

    /// Bind `code` to a layout with explicit failure-domain labels.
    /// Repair and degraded-read planning prefer helper disks that share
    /// a domain with the disk being repaired.
    ///
    /// # Panics
    /// Panics if the layout's `(n, k)` disagrees with the code's, or
    /// the domain map covers a different number of disks.
    pub fn with_domains(
        code: Arc<dyn CandidateCode>,
        layout: Arc<dyn Layout>,
        domains: Arc<DomainMap>,
    ) -> Self {
        assert_eq!(layout.code_n(), code.n(), "layout n != code n");
        assert_eq!(layout.code_k(), code.k(), "layout k != code k");
        assert_eq!(
            domains.n_disks(),
            layout.n_disks(),
            "domain map disks != layout disks"
        );
        Self {
            decoder: Arc::new(DecoderCache::new(code.generator().clone())),
            code,
            layout,
            domains,
        }
    }

    /// Start building a scheme: pick the layout (and, for shuffled, the
    /// seed) on the returned [`SchemeBuilder`].
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ecfrm_codes::RsCode;
    /// use ecfrm_core::{LayoutKind, Scheme};
    ///
    /// let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
    ///     .layout(LayoutKind::EcFrm)
    ///     .build();
    /// assert_eq!(scheme.name(), "EC-FRM-RS(6,3)");
    /// ```
    pub fn builder(code: Arc<dyn CandidateCode>) -> SchemeBuilder {
        SchemeBuilder {
            code,
            layout: LayoutKind::default(),
            seed: 0,
            domains: None,
        }
    }

    /// The candidate code.
    pub fn code(&self) -> &dyn CandidateCode {
        self.code.as_ref()
    }

    /// The layout.
    pub fn layout(&self) -> &dyn Layout {
        self.layout.as_ref()
    }

    /// Failure-domain labels; [`DomainMap::single`] unless configured.
    pub fn domains(&self) -> &DomainMap {
        &self.domains
    }

    /// The solved decode coefficients, one vector per `(lost position,
    /// sources)` geometry — what [`Self::reconstruct`] applies, and what
    /// a helper-side combine is handed.
    pub fn decoder(&self) -> &DecoderCache {
        &self.decoder
    }

    /// Display name following the paper's convention: `RS(6,3)`,
    /// `R-RS(6,3)`, `EC-FRM-RS(6,3)`, `SHUF-RS(6,3)`.
    pub fn name(&self) -> String {
        match self.layout.name() {
            "standard" => self.code.name(),
            "rotated" => format!("R-{}", self.code.name()),
            "ecfrm" => format!("EC-FRM-{}", self.code.name()),
            other => format!("{}-{}", other.to_uppercase(), self.code.name()),
        }
    }

    /// Number of disks (`n`).
    pub fn n_disks(&self) -> usize {
        self.layout.n_disks()
    }

    /// Data elements per layout stripe.
    pub fn data_per_stripe(&self) -> usize {
        self.layout.data_per_stripe()
    }

    /// Encode one layout stripe (paper §IV-B Step 2): group `g`'s
    /// parities are computed from data elements `g·k .. g·k+k` with the
    /// candidate code's own encoding rules.
    ///
    /// `data` must hold exactly [`Self::data_per_stripe`] equally-sized
    /// regions, in logical order.
    ///
    /// # Panics
    /// Panics on arity or length mismatches.
    pub fn encode_stripe(&self, stripe: u64, data: &[&[u8]]) -> StripeImage {
        let dps = self.data_per_stripe();
        let element_size = data.first().map_or(0, |d| d.len());
        let parities = self.encode_stripe_parities(stripe, data); // validates shapes
        let mut img = StripeImage::empty(self.layout.as_ref(), stripe, element_size);
        let base = stripe * dps as u64;
        for (t, d) in data.iter().enumerate() {
            img.put(self.layout.data_location(base + t as u64), d.to_vec());
        }
        for (loc, bytes) in parities {
            img.put(loc, bytes);
        }
        debug_assert!(img.is_complete());
        img
    }

    /// Compute only the parity cells of one layout stripe, returning
    /// `(location, bytes)` pairs. This is the zero-copy building block
    /// behind [`Self::encode_stripe`]: callers that already own the data
    /// regions (e.g. the store's stripe-seal pipeline slicing its pending
    /// buffer) avoid materialising a [`StripeImage`] full of data copies.
    ///
    /// # Panics
    /// Panics on arity or length mismatches.
    pub fn encode_stripe_parities(&self, stripe: u64, data: &[&[u8]]) -> Vec<(Loc, Vec<u8>)> {
        let dps = self.data_per_stripe();
        assert_eq!(data.len(), dps, "expected {dps} data elements per stripe");
        let element_size = data.first().map_or(0, |d| d.len());
        assert!(
            data.iter().all(|d| d.len() == element_size),
            "all elements in a stripe must have equal size"
        );
        let k = self.code.k();
        let pcount = self.code.n() - k;
        let mut out = Vec::with_capacity(self.layout.rows_per_stripe() * pcount);
        for g in 0..self.layout.rows_per_stripe() {
            let group_data = &data[g * k..(g + 1) * k];
            let mut parity = vec![vec![0u8; element_size]; pcount];
            self.code.encode(group_data, &mut parity);
            for (p, bytes) in parity.into_iter().enumerate() {
                out.push((self.layout.parity_location(stripe, g, p), bytes));
            }
        }
        out
    }

    /// Plan a normal read of data elements `start .. start+count`
    /// (paper §VI-B's workload unit). Every element is a demand fetch
    /// from its own disk.
    pub fn normal_read_plan(&self, start: u64, count: usize) -> ReadPlan {
        let mut plan = ReadPlan::new(self.n_disks(), count);
        for i in 0..count as u64 {
            let idx = start + i;
            let (stripe, row, pos) = self.layout.data_coordinates(idx);
            plan.fetches.push(Fetch {
                loc: self.layout.data_location(idx),
                stripe,
                row,
                pos,
                purpose: Purpose::Demand,
            });
        }
        plan
    }

    /// Plan a degraded read of `start .. start+count` with the disks in
    /// `failed` unavailable (paper §VI-C: one random erased disk).
    ///
    /// Demand elements on surviving disks are fetched directly; each
    /// requested element on a failed disk is reconstructed within its
    /// group from helpers picked by the rule [`DiskRecovery`] uses too:
    /// sources already being fetched first, then the least-loaded
    /// surviving disks — greedy minimisation of the bottleneck disk.
    ///
    /// [`DiskRecovery`]: crate::DiskRecovery
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ecfrm_codes::LrcCode;
    /// use ecfrm_core::{LayoutKind, Scheme};
    ///
    /// let scheme = Scheme::builder(Arc::new(LrcCode::new(6, 2, 2)))
    ///     .layout(LayoutKind::EcFrm)
    ///     .build();
    /// let plan = scheme.degraded_read_plan(0, 8, &[0]);
    /// assert!(plan.unreadable.is_empty());          // single failure: readable
    /// assert!(plan.fetches.iter().all(|f| f.loc.disk != 0));
    /// assert!(plan.cost() >= 1.0);                  // repair adds traffic
    /// ```
    pub fn degraded_read_plan(&self, start: u64, count: usize, failed: &[usize]) -> ReadPlan {
        let mut plan = ReadPlan::new(self.n_disks(), count);
        let is_failed = |d: usize| failed.contains(&d);
        let mut loads = vec![0usize; self.n_disks()];
        let mut lost: Vec<(u64, u64, usize, usize)> = Vec::new();

        for i in 0..count as u64 {
            let idx = start + i;
            let loc = self.layout.data_location(idx);
            let (stripe, row, pos) = self.layout.data_coordinates(idx);
            if is_failed(loc.disk) {
                lost.push((idx, stripe, row, pos));
            } else {
                plan.fetches.push(Fetch {
                    loc,
                    stripe,
                    row,
                    pos,
                    purpose: Purpose::Demand,
                });
                loads[loc.disk] += 1;
            }
        }

        for (idx, stripe, row, pos) in lost {
            let row_locs = self.layout.row_locations(stripe, row);
            let Some(chosen) =
                self.helpers(&row_locs, pos, is_failed, &loads, |l| plan.contains(l))
            else {
                plan.unreadable.push(idx);
                continue;
            };
            for p in chosen {
                let loc = row_locs[p];
                if !plan.contains(loc) {
                    plan.fetches.push(Fetch {
                        loc,
                        stripe,
                        row,
                        pos: p,
                        purpose: Purpose::Repair,
                    });
                    loads[loc.disk] += 1;
                }
            }
        }
        plan
    }

    /// The one helper rule, for degraded reads and disk rebuilds alike
    /// (paper §IV-D: set up the lost element's group decoding relation):
    /// which positions of a row at `locs` rebuild position `pos` while
    /// the disks `down` names are unavailable.
    ///
    /// The code's repair spec decides. Where it leaves a choice, sources
    /// `fetched` says are already being read come first (they are free),
    /// then the rest ranked by `(outside the lost disk's failure domain,
    /// load, disk, position)`: repair traffic stays inside the rack, then
    /// spreads over the least-loaded disks, deterministically. `None` if
    /// the erasures leave `pos` unrecoverable.
    pub(crate) fn helpers(
        &self,
        locs: &[Loc],
        pos: usize,
        down: impl Fn(usize) -> bool,
        loads: &[usize],
        fetched: impl Fn(Loc) -> bool,
    ) -> Option<Vec<usize>> {
        let erased: Vec<usize> = (0..locs.len()).filter(|&p| down(locs[p].disk)).collect();
        let (from, count) = match self.code.repair_spec(pos, &erased)? {
            RepairSpec::Exact { read } => return Some(read),
            RepairSpec::AnyOf { from, count } => (from, count),
        };
        let (mut chosen, rest): (Vec<usize>, Vec<usize>) = from
            .into_iter()
            .filter(|&p| !down(locs[p].disk))
            .partition(|&p| fetched(locs[p]));
        chosen.truncate(count);
        let target = locs[pos].disk;
        let mut ranked: Vec<(bool, usize, usize, usize)> = rest
            .into_iter()
            .map(|p| {
                let d = locs[p].disk;
                (!self.domains.same_domain(target, d), loads[d], d, p)
            })
            .collect();
        ranked.sort_unstable();
        let short = count - chosen.len();
        chosen.extend(ranked.into_iter().take(short).map(|(.., p)| p));
        (chosen.len() == count).then_some(chosen)
    }

    /// Rebuild row position `pos` from `(position, bytes)` sources of its
    /// row, each `len` bytes long — paper §IV-D's group decode, and the
    /// one every reconstruction goes through. Coefficients come from
    /// [`Self::decoder`], so repairs of the same erasure geometry (every
    /// row while one disk is down) solve it once. `None` if the sources
    /// do not span `pos`.
    ///
    /// # Panics
    /// Panics if a source region is not `len` bytes long.
    pub fn reconstruct(
        &self,
        pos: usize,
        sources: &[(usize, &[u8])],
        len: usize,
    ) -> Option<Vec<u8>> {
        self.decoder.reconstruct(pos, sources, len)
    }

    /// Decode a read's holes in place: `slots[i]` holds data element
    /// `start + i` as fetched, or is empty where its disk was down. Each
    /// hole is rebuilt by [`Self::reconstruct`] from every other cell of
    /// its row at hand — a filled slot, or `cell(loc)` for one fetched
    /// only to repair with. Filled slots are left as they are.
    ///
    /// # Errors
    /// [`CodeError::Unrecoverable`] if the cells at hand do not span a
    /// hole.
    pub fn fill_holes<'c>(
        &self,
        start: u64,
        slots: &mut [Vec<u8>],
        cell: impl Fn(Loc) -> Option<&'c [u8]>,
        len: usize,
        ctx: ReadCtx<'_>,
    ) -> Result<(), CodeError> {
        let holes: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_empty()).collect();
        if holes.is_empty() {
            return Ok(());
        }
        let k = self.code.k();
        let end = start + slots.len() as u64;
        // Resolve instruments once per call, not per element.
        let decode_hist = ctx.recorder.map(|r| r.histogram("decode_us"));
        let mut rebuilt = Vec::with_capacity(holes.len());
        for &i in &holes {
            let idx = start + i as u64;
            let (stripe, row, pos) = self.layout.data_coordinates(idx);
            let sources: Vec<(usize, &[u8])> = self
                .layout
                .row_locations(stripe, row)
                .into_iter()
                .enumerate()
                .filter(|&(p, _)| p != pos)
                .filter_map(|(p, loc)| {
                    let d = self.layout.data_index(stripe, row, p);
                    let bytes = if p < k && (start..end).contains(&d) {
                        Some(slots[(d - start) as usize].as_slice()).filter(|b| !b.is_empty())
                    } else {
                        cell(loc)
                    };
                    bytes.map(|b| (p, b))
                })
                .collect();
            let t0 = decode_hist.as_ref().map(|_| std::time::Instant::now());
            let bytes = self
                .reconstruct(pos, &sources, len)
                .ok_or(CodeError::Unrecoverable { erased: vec![pos] })?;
            if let (Some(h), Some(t0)) = (&decode_hist, t0) {
                h.record_duration(t0.elapsed());
            }
            rebuilt.push(bytes);
        }
        for (&i, bytes) in holes.iter().zip(rebuilt) {
            slots[i] = bytes;
        }
        if let Some(r) = ctx.recorder {
            r.counter("decoded_elements").add(holes.len() as u64);
        }
        Ok(())
    }

    /// Materialise the requested data elements from fetched bytes,
    /// reconstructing any element that was not fetched directly
    /// ([`Self::fill_holes`]).
    ///
    /// `fetched` maps every planned location to its bytes. Returns the
    /// `count` data regions in logical order. `ctx` optionally records
    /// decode timing; pass `ReadCtx::default()` for a plain read.
    pub fn assemble_read(
        &self,
        start: u64,
        count: usize,
        fetched: &HashMap<Loc, Vec<u8>>,
        ctx: ReadCtx<'_>,
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let element_size = match fetched.values().next() {
            Some(v) => v.len(),
            None if count == 0 => return Ok(Vec::new()),
            None => {
                return Err(CodeError::Shape("no fetched data to assemble".into()));
            }
        };
        let mut out: Vec<Vec<u8>> = (start..start + count as u64)
            .map(|idx| {
                let loc = self.layout.data_location(idx);
                fetched.get(&loc).cloned().unwrap_or_default()
            })
            .collect();
        let cell = |loc| fetched.get(&loc).map(Vec::as_slice);
        self.fill_holes(start, &mut out, cell, element_size, ctx)?;
        Ok(out)
    }

    /// Check that every pattern of `f` simultaneous *disk* failures is
    /// recoverable across `stripes` consecutive stripes — the
    /// machine-checked form of the paper's §IV-C claim that EC-FRM
    /// preserves candidate-code fault tolerance.
    ///
    /// Rotated and shuffled layouts are not stripe-invariant, so callers
    /// should pass at least `n` stripes for them.
    pub fn verify_disk_tolerance(&self, f: usize, stripes: u64) -> bool {
        let n = self.n_disks();
        if f > n {
            return false;
        }
        let mut disks: Vec<usize> = (0..f).collect();
        loop {
            for stripe in 0..stripes {
                for row in 0..self.layout.rows_per_stripe() {
                    let locs = self.layout.row_locations(stripe, row);
                    let erased: Vec<usize> = (0..locs.len())
                        .filter(|&p| disks.contains(&locs[p].disk))
                        .collect();
                    if !self.code.is_recoverable(&erased) {
                        return false;
                    }
                }
            }
            // Next f-combination of disks.
            let mut advanced = false;
            let mut i = f;
            while i > 0 {
                i -= 1;
                if disks[i] != i + n - f {
                    disks[i] += 1;
                    for j in i + 1..f {
                        disks[j] = disks[j - 1] + 1;
                    }
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return true;
            }
        }
    }
}

/// Builds a [`Scheme`] from a candidate code, a [`LayoutKind`], and (for
/// [`LayoutKind::Shuffled`]) a permutation seed. Obtained from
/// [`Scheme::builder`]; the default layout is [`LayoutKind::Standard`]
/// and the default seed is 0.
#[derive(Clone)]
pub struct SchemeBuilder {
    code: Arc<dyn CandidateCode>,
    layout: LayoutKind,
    seed: u64,
    domains: Option<DomainMap>,
}

impl std::fmt::Debug for SchemeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SchemeBuilder({}, {}, seed {})",
            self.code.name(),
            self.layout,
            self.seed
        )
    }
}

impl SchemeBuilder {
    /// Choose the layout form.
    pub fn layout(mut self, kind: LayoutKind) -> Self {
        self.layout = kind;
        self
    }

    /// Seed for layouts with randomised placement (only
    /// [`LayoutKind::Shuffled`] consults it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit failure-domain labels (see [`DomainMap`]). Must cover
    /// exactly the layout's disks.
    pub fn domains(mut self, map: DomainMap) -> Self {
        self.domains = Some(map);
        self
    }

    /// Convenience: `racks` contiguous failure domains of (near-)equal
    /// size over the code's `n` disks.
    pub fn racks(self, racks: usize) -> Self {
        let n = self.code.n();
        self.domains(DomainMap::contiguous(n, racks))
    }

    /// Construct the scheme.
    pub fn build(self) -> Scheme {
        let layout = self.layout.build(self.code.n(), self.code.k(), self.seed);
        match self.domains {
            Some(map) => Scheme::with_domains(self.code, layout, Arc::new(map)),
            None => Scheme::new(self.code, layout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfrm_codes::{decode, LrcCode, RsCode, XorCode};
    use ecfrm_layout::StandardLayout;

    fn sample_elements(count: usize, size: usize) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| {
                (0..size)
                    .map(|j| ((i * 101 + j * 31 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn form(code: Arc<dyn CandidateCode>, kind: LayoutKind) -> Scheme {
        Scheme::builder(code).layout(kind).build()
    }

    fn all_schemes(code: Arc<dyn CandidateCode>) -> Vec<Scheme> {
        vec![
            form(code.clone(), LayoutKind::Standard),
            form(code.clone(), LayoutKind::Rotated),
            form(code.clone(), LayoutKind::EcFrm),
            Scheme::builder(code)
                .layout(LayoutKind::Shuffled)
                .seed(11)
                .build(),
        ]
    }

    #[test]
    fn names_follow_paper_convention() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        assert_eq!(form(rs.clone(), LayoutKind::Standard).name(), "RS(6,3)");
        assert_eq!(form(rs.clone(), LayoutKind::Rotated).name(), "R-RS(6,3)");
        assert_eq!(form(rs.clone(), LayoutKind::EcFrm).name(), "EC-FRM-RS(6,3)");
        assert_eq!(
            Scheme::builder(rs)
                .layout(LayoutKind::Shuffled)
                .seed(1)
                .build()
                .name(),
            "SHUFFLED-RS(6,3)"
        );
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        assert_eq!(form(lrc, LayoutKind::EcFrm).name(), "EC-FRM-LRC(6,2,2)");
    }

    #[test]
    fn encode_stripe_is_complete_for_all_layouts() {
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        for scheme in all_schemes(lrc) {
            let dps = scheme.data_per_stripe();
            let data = sample_elements(dps, 16);
            let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
            let img = scheme.encode_stripe(0, &refs);
            assert!(img.is_complete(), "{}", scheme.name());
            assert_eq!(
                img.filled(),
                scheme.layout().total_per_stripe(),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn figure_3a_standard_lrc_bottleneck() {
        // Figure 3(a): 8-element read over standard (6,2,2) LRC — the
        // most loaded disk serves 2 elements.
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        let plan = form(lrc, LayoutKind::Standard).normal_read_plan(0, 8);
        assert_eq!(plan.max_load(), 2);
        assert_eq!(plan.total_fetched(), 8);
        assert_eq!(plan.disks_touched(), 6);
    }

    #[test]
    fn figure_3b_rotated_lrc_still_bottlenecked() {
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        let plan = form(lrc, LayoutKind::Rotated).normal_read_plan(0, 8);
        assert_eq!(plan.max_load(), 2);
    }

    #[test]
    fn figure_7a_ecfrm_lrc_fixes_the_bottleneck() {
        // Figure 7(a): same 8-element read over (6,2,2) EC-FRM-LRC — max
        // load drops to 1 because all 10 disks hold data.
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        let plan = form(lrc, LayoutKind::EcFrm).normal_read_plan(0, 8);
        assert_eq!(plan.max_load(), 1);
        assert_eq!(plan.disks_touched(), 8);
    }

    #[test]
    fn normal_read_max_load_bound_ecfrm() {
        // EC-FRM guarantee: a c-element read loads no disk more than
        // ceil(c / n) — data is sequential across all n disks.
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = form(rs, LayoutKind::EcFrm);
        for start in 0..30u64 {
            for count in 1..=20usize {
                let plan = scheme.normal_read_plan(start, count);
                let bound = count.div_ceil(9);
                assert!(
                    plan.max_load() <= bound,
                    "start={start} count={count}: {} > {bound}",
                    plan.max_load()
                );
            }
        }
    }

    #[test]
    fn roundtrip_normal_read_all_schemes() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        for scheme in all_schemes(rs) {
            let dps = scheme.data_per_stripe();
            let data = sample_elements(2 * dps, 8);
            let mut fetched = HashMap::new();
            for s in 0..2u64 {
                let refs: Vec<&[u8]> = data[s as usize * dps..(s as usize + 1) * dps]
                    .iter()
                    .map(|v| v.as_slice())
                    .collect();
                let img = scheme.encode_stripe(s, &refs);
                for (loc, bytes) in img.iter() {
                    fetched.insert(loc, bytes.to_vec());
                }
            }
            let start = 3u64;
            let count = dps; // spans two stripes
            let got = scheme
                .assemble_read(start, count, &fetched, ReadCtx::default())
                .unwrap();
            for (i, g) in got.iter().enumerate() {
                assert_eq!(g, &data[start as usize + i], "{} elem {i}", scheme.name());
            }
        }
    }

    #[test]
    fn degraded_read_reconstructs_lost_elements() {
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        for scheme in all_schemes(lrc) {
            let dps = scheme.data_per_stripe();
            let data = sample_elements(2 * dps, 8);
            // Encode two stripes; keep a full map, then drop failed disk.
            let mut all = HashMap::new();
            for s in 0..2u64 {
                let refs: Vec<&[u8]> = data[s as usize * dps..(s as usize + 1) * dps]
                    .iter()
                    .map(|v| v.as_slice())
                    .collect();
                for (loc, bytes) in scheme.encode_stripe(s, &refs).iter() {
                    all.insert(loc, bytes.to_vec());
                }
            }
            for failed in 0..scheme.n_disks() {
                let start = 1u64;
                let count = (dps - 1).min(14);
                let plan = scheme.degraded_read_plan(start, count, &[failed]);
                assert!(
                    plan.unreadable.is_empty(),
                    "{} disk {failed}",
                    scheme.name()
                );
                // Execute the plan against surviving disks only.
                let fetched: HashMap<Loc, Vec<u8>> = plan
                    .fetches
                    .iter()
                    .map(|f| {
                        assert_ne!(f.loc.disk, failed, "plan reads failed disk");
                        (f.loc, all[&f.loc].clone())
                    })
                    .collect();
                let got = scheme
                    .assemble_read(start, count, &fetched, ReadCtx::default())
                    .unwrap();
                for (i, g) in got.iter().enumerate() {
                    assert_eq!(
                        g,
                        &data[start as usize + i],
                        "{} failed={failed} elem {i}",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn degraded_cost_lrc_below_rs() {
        // LRC's raison d'être (and preserved by EC-FRM): repairing a lost
        // element costs k/l reads instead of k.
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        let rs_scheme = form(rs, LayoutKind::EcFrm);
        let lrc_scheme = form(lrc, LayoutKind::EcFrm);
        let mut rs_cost = 0.0;
        let mut lrc_cost = 0.0;
        let mut cases = 0;
        for start in 0..20u64 {
            for failed in 0..9 {
                let p = rs_scheme.degraded_read_plan(start, 10, &[failed]);
                rs_cost += p.cost();
                cases += 1;
            }
        }
        rs_cost /= cases as f64;
        let mut cases = 0;
        for start in 0..20u64 {
            for failed in 0..10 {
                let p = lrc_scheme.degraded_read_plan(start, 10, &[failed]);
                lrc_cost += p.cost();
                cases += 1;
            }
        }
        lrc_cost /= cases as f64;
        assert!(
            lrc_cost < rs_cost,
            "LRC degraded cost {lrc_cost} should be below RS {rs_cost}"
        );
    }

    #[test]
    fn ecfrm_preserves_fault_tolerance_rs() {
        // §IV-C: EC-FRM-RS(6,3) tolerates any 3 disk failures, like RS.
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        for scheme in all_schemes(rs) {
            assert!(
                scheme.verify_disk_tolerance(3, 9),
                "{} must tolerate any 3 disks",
                scheme.name()
            );
            assert!(
                !scheme.verify_disk_tolerance(4, 9),
                "{} cannot tolerate any 4 disks (MDS limit)",
                scheme.name()
            );
        }
    }

    #[test]
    fn ecfrm_preserves_fault_tolerance_lrc() {
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        for scheme in all_schemes(lrc) {
            assert!(
                scheme.verify_disk_tolerance(3, 10),
                "{} must tolerate any 3 disks",
                scheme.name()
            );
        }
    }

    #[test]
    fn ecfrm_preserves_fault_tolerance_xor() {
        let xor: Arc<dyn CandidateCode> = Arc::new(XorCode::new(4));
        for scheme in all_schemes(xor) {
            assert!(scheme.verify_disk_tolerance(1, 5), "{}", scheme.name());
            assert!(!scheme.verify_disk_tolerance(2, 5), "{}", scheme.name());
        }
    }

    #[test]
    fn krotated_form_roundtrips_and_sits_between() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = form(rs.clone(), LayoutKind::KRotated);
        assert_eq!(scheme.name(), "KROTATED-RS(6,3)");
        // Fault tolerance preserved (stripe period = n for the shift).
        assert!(scheme.verify_disk_tolerance(3, 9));
        // Roundtrip with a failure.
        let dps = scheme.data_per_stripe();
        let data = sample_elements(12 * dps, 8);
        let mut all = HashMap::new();
        for s in 0..12u64 {
            let refs: Vec<&[u8]> = data[s as usize * dps..(s as usize + 1) * dps]
                .iter()
                .map(|v| v.as_slice())
                .collect();
            for (loc, bytes) in scheme.encode_stripe(s, &refs).iter() {
                all.insert(loc, bytes.to_vec());
            }
        }
        let plan = scheme.degraded_read_plan(3, 20, &[4]);
        let fetched: HashMap<Loc, Vec<u8>> = plan
            .fetches
            .iter()
            .map(|f| (f.loc, all[&f.loc].clone()))
            .collect();
        let got = scheme
            .assemble_read(3, 20, &fetched, ReadCtx::default())
            .unwrap();
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g, &data[3 + i]);
        }
        // Normal-read balance: strictly better than standard on average,
        // no better than EC-FRM.
        let std = form(rs.clone(), LayoutKind::Standard);
        let ec = form(rs, LayoutKind::EcFrm);
        let mut sum = [0usize; 3];
        for start in 0..60u64 {
            for size in 1..=20usize {
                sum[0] += std.normal_read_plan(start, size).max_load();
                sum[1] += scheme.normal_read_plan(start, size).max_load();
                sum[2] += ec.normal_read_plan(start, size).max_load();
            }
        }
        assert!(sum[1] < sum[0], "k-rotation beats standard: {sum:?}");
        assert!(
            sum[2] <= sum[1],
            "EC-FRM at least matches k-rotation: {sum:?}"
        );
    }

    #[test]
    fn multi_failure_degraded_plans_execute_correctly() {
        // (6,2,2) LRC tolerates any 3 disks; plans must route around all
        // of them and assembly must restore every element.
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        let scheme = form(lrc, LayoutKind::EcFrm);
        let dps = scheme.data_per_stripe();
        let data = sample_elements(2 * dps, 8);
        let mut all = HashMap::new();
        for s in 0..2u64 {
            let refs: Vec<&[u8]> = data[s as usize * dps..(s as usize + 1) * dps]
                .iter()
                .map(|v| v.as_slice())
                .collect();
            for (loc, bytes) in scheme.encode_stripe(s, &refs).iter() {
                all.insert(loc, bytes.to_vec());
            }
        }
        for failed in [[0usize, 1, 2], [3, 6, 9], [2, 5, 8], [0, 4, 9]] {
            let plan = scheme.degraded_read_plan(2, 20, &failed);
            assert!(plan.unreadable.is_empty(), "failed {failed:?}");
            for f in &plan.fetches {
                assert!(!failed.contains(&f.loc.disk), "plan uses downed disk");
            }
            let fetched: HashMap<Loc, Vec<u8>> = plan
                .fetches
                .iter()
                .map(|f| (f.loc, all[&f.loc].clone()))
                .collect();
            let got = scheme
                .assemble_read(2, 20, &fetched, ReadCtx::default())
                .unwrap();
            for (i, g) in got.iter().enumerate() {
                assert_eq!(g, &data[2 + i], "failed {failed:?} elem {i}");
            }
        }
    }

    #[test]
    fn degraded_plan_with_multiple_failures_uses_joint_erasure_set() {
        // Two failures in the SAME local group force the global fallback;
        // the spec must not pretend the second failure is available.
        let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
        let scheme = form(lrc, LayoutKind::Standard);
        // Disks 0 and 1 are data positions 0 and 1 (same local group).
        let plan = scheme.degraded_read_plan(0, 2, &[0, 1]);
        assert!(plan.unreadable.is_empty());
        // Repairs must involve global parities (disks 8/9), since local
        // group 0 has two holes.
        assert!(
            plan.fetches.iter().any(|f| f.loc.disk >= 8),
            "expected global-parity reads: {:?}",
            plan.fetches
        );
    }

    #[test]
    fn cached_assembly_matches_uncached() {
        // Every hole decodes through the scheme's cache, which clones
        // share; each must equal the uncached reference decode.
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = form(rs, LayoutKind::EcFrm);
        let twin = scheme.clone();
        let dps = scheme.data_per_stripe();
        let data = sample_elements(dps, 8);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let all: HashMap<Loc, Vec<u8>> = scheme
            .encode_stripe(0, &refs)
            .iter()
            .map(|(l, b)| (l, b.to_vec()))
            .collect();
        let layout = scheme.layout();
        for failed in 0..scheme.n_disks() {
            let plan = scheme.degraded_read_plan(0, dps, &[failed]);
            let fetched: HashMap<Loc, Vec<u8>> = plan
                .fetches
                .iter()
                .map(|f| (f.loc, all[&f.loc].clone()))
                .collect();
            let got = scheme
                .assemble_read(0, dps, &fetched, ReadCtx::default())
                .unwrap();
            let again = twin
                .assemble_read(0, dps, &fetched, ReadCtx::default())
                .unwrap();
            assert_eq!(got, again, "failed={failed}");
            for (i, g) in got.iter().enumerate() {
                assert_eq!(g, &data[i], "failed={failed} elem {i}");
                if layout.data_location(i as u64).disk != failed {
                    continue;
                }
                let (stripe, row, pos) = layout.data_coordinates(i as u64);
                let sources: Vec<(usize, &[u8])> = layout
                    .row_locations(stripe, row)
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| *p != pos)
                    .filter_map(|(p, l)| fetched.get(l).map(|b| (p, b.as_slice())))
                    .collect();
                let reference =
                    decode::reconstruct_one(scheme.code().generator(), pos, &sources, 8).unwrap();
                assert_eq!(g, &reference, "failed={failed} elem {i}");
            }
        }
        // The twin's reads hit what the original solved.
        let (hits, misses) = scheme.decoder().stats();
        assert!(misses > 0);
        assert!(hits >= misses, "{hits} hits / {misses} misses");
    }

    #[test]
    fn degraded_read_prefers_helpers_in_the_lost_disks_rack() {
        // Standard RS(6,3): position p sits on disk p, so repairing
        // element 0 (disk 0) may read any 6 of disks 1..=8. Put disks 1
        // and 2 in a foreign rack: a rack-aware plan must leave them
        // alone, the domain-blind default reads them first.
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let rack_aware = Scheme::builder(rs.clone())
            .layout(LayoutKind::Standard)
            .domains(DomainMap::from_labels(&[0, 1, 1, 0, 0, 0, 0, 0, 0]))
            .build();
        let plan = rack_aware.degraded_read_plan(0, 1, &[0]);
        assert!(plan.unreadable.is_empty());
        assert!(
            plan.fetches.iter().all(|f| f.loc.disk >= 3),
            "intra-rack helpers suffice: {:?}",
            plan.fetches
        );
        let blind = form(rs, LayoutKind::Standard);
        let plan = blind.degraded_read_plan(0, 1, &[0]);
        assert!(
            plan.fetches.iter().any(|f| f.loc.disk == 1),
            "domain-blind ranking starts at the lowest disk"
        );
    }

    #[test]
    fn racks_builder_splits_contiguously() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = Scheme::builder(rs)
            .layout(LayoutKind::EcFrm)
            .racks(3)
            .build();
        assert_eq!(scheme.domains().n_domains(), 3);
        assert!(scheme.domains().same_domain(0, 2));
        assert!(!scheme.domains().same_domain(2, 3));
    }

    #[test]
    fn unreadable_reported_beyond_tolerance() {
        let xor: Arc<dyn CandidateCode> = Arc::new(XorCode::new(4));
        let scheme = form(xor, LayoutKind::Standard);
        // Two failed disks exceed XOR tolerance; requested elements on
        // them are unreadable.
        let plan = scheme.degraded_read_plan(0, 4, &[0, 1]);
        assert_eq!(plan.unreadable.len(), 2);
    }

    #[test]
    fn empty_read_plans() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = form(rs, LayoutKind::EcFrm);
        let plan = scheme.normal_read_plan(5, 0);
        assert_eq!(plan.total_fetched(), 0);
        let fetched = HashMap::new();
        assert!(scheme
            .assemble_read(5, 0, &fetched, ReadCtx::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn recorder_ctx_counts_decodes() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let scheme = form(rs, LayoutKind::EcFrm);
        let dps = scheme.data_per_stripe();
        let data = sample_elements(dps, 8);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let all: HashMap<Loc, Vec<u8>> = scheme
            .encode_stripe(0, &refs)
            .iter()
            .map(|(l, b)| (l, b.to_vec()))
            .collect();
        let plan = scheme.degraded_read_plan(0, dps, &[0]);
        let fetched: HashMap<Loc, Vec<u8>> = plan
            .fetches
            .iter()
            .map(|f| (f.loc, all[&f.loc].clone()))
            .collect();
        let rec = ecfrm_obs::Recorder::new();
        scheme
            .assemble_read(0, dps, &fetched, ReadCtx::new().with_recorder(&rec))
            .unwrap();
        let snap = rec.snapshot();
        let decoded = snap.counters["decoded_elements"];
        assert!(decoded > 0, "degraded read must reconstruct something");
        assert_eq!(snap.histograms["decode_us"].count, decoded);
    }

    #[test]
    #[should_panic]
    fn mismatched_layout_rejected() {
        let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        let wrong = Arc::new(StandardLayout::new(10, 6));
        Scheme::new(rs, wrong);
    }
}
