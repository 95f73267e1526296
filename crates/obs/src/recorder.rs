//! The [`Recorder`] registry and its scalar instruments.
//!
//! A `Recorder` is the handle a subsystem threads through its stack:
//! cloning it clones one `Arc`. Instruments are registered by name on
//! first use; the lookup takes a short mutex hold, but the returned
//! [`Counter`]/[`Gauge`]/[`Histogram`]/[`DiskBoard`] handles are
//! lock-free, so hot paths resolve their instruments once (at
//! construction time) and then only touch atomics.
//! Values another layer already keeps are not pushed in at all: it
//! registers one source ([`Recorder::observe`]), read at each snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use ecfrm_util::Mutex;

use crate::board::{DiskBoard, DiskBoardSnapshot};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::json;

/// Monotonically increasing counter behind a cheap-clone handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed point-in-time value (queue depths, open connections).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A sampling closure registered with [`Recorder::observe`].
struct Source(Box<dyn Fn(&mut Snapshot) + Send + Sync>);

impl std::fmt::Debug for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Source")
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    boards: Mutex<BTreeMap<String, DiskBoard>>,
    sources: Mutex<Vec<Source>>,
}

/// The instrument named `name`, made with `new` on first use. A hit
/// borrows `name`; only a first registration allocates the key.
fn lookup<T: Clone>(map: &Mutex<BTreeMap<String, T>>, name: &str, new: impl FnOnce() -> T) -> T {
    let mut map = map.lock();
    if let Some(found) = map.get(name) {
        return found.clone();
    }
    map.entry(name.to_string()).or_insert_with(new).clone()
}

/// Every instrument of one kind, read out by name.
fn read_all<T, V>(map: &Mutex<BTreeMap<String, T>>, read: impl Fn(&T) -> V) -> BTreeMap<String, V> {
    let map = map.lock();
    map.iter().map(|(k, v)| (k.clone(), read(v))).collect()
}

/// A cheap-to-clone handle to a metrics registry.
///
/// Every `clone` shares the same registry, so a `Recorder` can be handed
/// to each layer of the stack and snapshotted once at the top.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    registry: Arc<Registry>,
}

impl Recorder {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        lookup(&self.registry.counters, name, Counter::new)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        lookup(&self.registry.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        lookup(&self.registry.histograms, name, Histogram::new)
    }

    /// The disk board named `name`, registering it on first use with
    /// `n_disks` slots (an existing board is returned as-is; boards are
    /// fixed-size).
    pub fn disk_board(&self, name: &str, n_disks: usize) -> DiskBoard {
        lookup(&self.registry.boards, name, || DiskBoard::new(n_disks))
    }

    /// Register a source: `f` runs inside every [`Self::snapshot`],
    /// after the registered instruments are read, and writes the values
    /// its layer keeps (an engine's queue depth, a client's transport
    /// totals) into `counters` / `gauges` under names it owns — as of
    /// the asking, and at no cost when nobody asks. Sources live as long
    /// as the registry; `f` must not capture or call this recorder.
    pub fn observe(&self, f: impl Fn(&mut Snapshot) + Send + Sync + 'static) {
        self.registry.sources.lock().push(Source(Box::new(f)));
    }

    /// Point-in-time readout of every registered instrument and every
    /// [observed](Self::observe) source.
    pub fn snapshot(&self) -> Snapshot {
        let reg = &self.registry;
        let mut snap = Snapshot {
            counters: read_all(&reg.counters, Counter::get),
            gauges: read_all(&reg.gauges, Gauge::get),
            histograms: read_all(&reg.histograms, Histogram::snapshot),
            boards: read_all(&reg.boards, DiskBoard::snapshot),
        };
        for source in reg.sources.lock().iter() {
            (source.0)(&mut snap);
        }
        snap
    }
}

/// Point-in-time readout of a [`Recorder`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Disk-board snapshots by name.
    pub boards: BTreeMap<String, DiskBoardSnapshot>,
}

impl Snapshot {
    /// True when nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.boards.is_empty()
    }

    /// Flatten everything to `(name, u64)` pairs — the shape the wire
    /// protocol's `Stats` message carries. Histograms flatten to their
    /// `count`/`p50`/`p95`/`p99`/`max` (suffixed names); boards to
    /// per-disk element counts plus totals; gauges are clamped at zero.
    pub fn flatten(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (k, v) in &self.counters {
            out.push((k.clone(), *v));
        }
        for (k, v) in &self.gauges {
            out.push((k.clone(), (*v).max(0) as u64));
        }
        for (k, h) in &self.histograms {
            out.push((format!("{k}.count"), h.count));
            out.push((format!("{k}.p50"), h.p50()));
            out.push((format!("{k}.p95"), h.p95()));
            out.push((format!("{k}.p99"), h.p99()));
            out.push((format!("{k}.max"), h.max));
        }
        for (k, b) in &self.boards {
            for (d, (elems, bytes)) in b.elements.iter().zip(&b.bytes).enumerate() {
                out.push((format!("{k}.disk{d}.elements"), *elems));
                out.push((format!("{k}.disk{d}.bytes"), *bytes));
            }
        }
        out
    }

    /// Human-readable rendering: counters and gauges as aligned
    /// `name value` lines, each histogram as a one-line summary (values
    /// are microseconds by convention), each board as a per-disk table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(8);
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<width$} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("{k}: {}\n", h.summary("us")));
        }
        for (k, b) in &self.boards {
            out.push_str(&format!("{k}:\n{}", b.table()));
        }
        out
    }

    /// Serialise to a JSON object (hand-rolled; the offline workspace
    /// carries no serde). Histograms become objects with
    /// `count/mean/p50/p95/p99/max`; boards become objects with
    /// per-disk arrays plus `max/mean/imbalance`.
    pub fn to_json(&self) -> String {
        let mut root = Vec::new();
        let counters: Vec<(String, String)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        root.push(("counters".to_string(), json::object(&counters)));
        let gauges: Vec<(String, String)> = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        root.push(("gauges".to_string(), json::object(&gauges)));
        let hists: Vec<(String, String)> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let fields = vec![
                    ("count".to_string(), h.count.to_string()),
                    ("mean".to_string(), json::number(h.mean())),
                    ("p50".to_string(), h.p50().to_string()),
                    ("p95".to_string(), h.p95().to_string()),
                    ("p99".to_string(), h.p99().to_string()),
                    ("max".to_string(), h.max.to_string()),
                ];
                (k.clone(), json::object(&fields))
            })
            .collect();
        root.push(("histograms".to_string(), json::object(&hists)));
        let boards: Vec<(String, String)> = self
            .boards
            .iter()
            .map(|(k, b)| {
                let fields = vec![
                    ("elements".to_string(), json::array_u64(&b.elements)),
                    ("bytes".to_string(), json::array_u64(&b.bytes)),
                    ("max".to_string(), b.max_elements().to_string()),
                    ("mean".to_string(), json::number(b.mean_elements())),
                    ("imbalance".to_string(), json::number(b.imbalance())),
                ];
                (k.clone(), json::object(&fields))
            })
            .collect();
        root.push(("boards".to_string(), json::object(&boards)));
        json::object(&root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Recorder::new();
        let c = r.counter("reads");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("reads").get(), 5);
        let g = r.gauge("depth");
        g.set(7);
        g.add(-2);
        assert_eq!(r.gauge("depth").get(), 5);
    }

    #[test]
    fn clones_share_the_registry() {
        let r = Recorder::new();
        let r2 = r.clone();
        r.counter("x").add(3);
        r2.counter("x").add(4);
        assert_eq!(r.snapshot().counters["x"], 7);
    }

    #[test]
    fn snapshot_collects_everything() {
        let r = Recorder::new();
        r.counter("c").inc();
        r.gauge("g").set(-1);
        r.histogram("h").record(10);
        r.disk_board("d", 2).record(1, 3, 300);
        let s = r.snapshot();
        assert_eq!(s.counters["c"], 1);
        assert_eq!(s.gauges["g"], -1);
        assert_eq!(s.histograms["h"].count, 1);
        assert_eq!(s.boards["d"].elements, vec![0, 3]);
        assert!(!s.is_empty());
        assert!(Recorder::new().snapshot().is_empty());
    }

    #[test]
    fn flatten_has_histogram_percentiles_and_board_disks() {
        let r = Recorder::new();
        r.counter("reads").add(2);
        r.histogram("lat_us").record(100);
        r.disk_board("load", 2).record(0, 1, 50);
        let flat = r.snapshot().flatten();
        let get = |name: &str| flat.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(get("reads"), Some(2));
        assert_eq!(get("lat_us.count"), Some(1));
        assert!(get("lat_us.p99").unwrap() >= 100);
        assert_eq!(get("load.disk0.elements"), Some(1));
        assert_eq!(get("load.disk1.bytes"), Some(0));
    }

    #[test]
    fn render_and_json_are_well_formed() {
        let r = Recorder::new();
        r.counter("reads").add(2);
        r.histogram("lat_us").record(100);
        r.disk_board("load", 2).record(0, 1, 50);
        let s = r.snapshot();
        let text = s.render();
        assert!(text.contains("reads"));
        assert!(text.contains("p99"));
        let js = s.to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"counters\""));
        assert!(js.contains("\"reads\":2"));
        assert!(js.contains("\"imbalance\""));
    }

    #[test]
    fn observed_sources_are_sampled_at_every_snapshot() {
        let r = Recorder::new();
        r.counter("reads").add(2);
        let live = Arc::new(AtomicI64::new(3));
        let seen = Arc::clone(&live);
        r.observe(move |s| {
            s.gauges
                .insert("io.depth".to_string(), seen.load(Ordering::Relaxed));
        });
        r.observe(|s| {
            s.counters.insert("net.retries".to_string(), 7);
        });
        // Two sources compose with each other and with what is registered.
        let s = r.snapshot();
        assert_eq!(s.counters["reads"], 2);
        assert_eq!(s.counters["net.retries"], 7);
        assert_eq!(s.gauges["io.depth"], 3);
        let flat = s.flatten();
        assert!(flat.contains(&("io.depth".to_string(), 3)));
        assert!(flat.contains(&("net.retries".to_string(), 7)));
        assert!(s.render().contains("io.depth"));
        assert!(s.to_json().contains("\"io.depth\":3"));
        assert!(s.to_json().contains("\"net.retries\":7"));
        // A source is read, not copied: the next snapshot sees the
        // value as it is then, and clones share the sources.
        live.store(9, Ordering::Relaxed);
        assert_eq!(r.clone().snapshot().gauges["io.depth"], 9);
    }
}
