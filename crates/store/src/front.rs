//! The multi-tenant object front door: namespace, QoS admission, and a
//! read cache over an [`ObjectStore`].
//!
//! This is the layer that turns the stripe store into a *service*:
//!
//! * **Namespace** — tenants own named objects; each object is an
//!   ordered list of stream extents ([`ExtentRecord`], kept next to the
//!   stripe manifests in [`crate::meta`]). Writes append extents via
//!   [`ObjectStore::append`], so object data is erasure coded exactly
//!   like everything else and deletes are metadata-only.
//! * **Admission control** — per-tenant pay-after token buckets
//!   ([`ecfrm_util::TokenBucket`], the same limiter background repair
//!   uses) behind two priority classes: [`QosClass::Latency`] is
//!   never queued (over-budget requests are rejected immediately) and
//!   [`QosClass::Bulk`] is smoothed by queueing up to
//!   [`FrontConfig::max_delay`]. Queued waiters
//!   sleep in short slices and re-check [`FrontDoor::shutdown`]'s stop
//!   flag, so no server thread is ever parked past shutdown. Requests
//!   are validated (object exists, range in bounds) *before* the
//!   bucket is charged — a misspelled name cannot push a tenant into
//!   throttling. Bulk scans therefore cannot starve latency tenants:
//!   their requests are delayed or shed before they reach the disks.
//! * **Read cache** — a byte-bounded SIEVE cache of *decoded* data
//!   elements keyed by global element index (equivalently `(object,
//!   stripe, element)`, since extents never alias). A run of elements
//!   is looked up under one lock; a hit sets one flag and moves
//!   nothing. Misses fetch whole elements with one planned store read
//!   per contiguous run, and the cache keeps the buffers that read
//!   returns, admitted under one lock; nothing leaves except by
//!   eviction (see `ElementCache` for why that is sound, and for the
//!   policy). A read is `namespace → admission → cache → store read`
//!   and nothing else, and it yields its bytes where they already are:
//!   an ordered list of [`Piece`]s of cached or just-read elements,
//!   which a front node writes to the socket as they lie and
//!   [`FrontDoor::read_range`] appends to the one buffer it returns.
//!
//! # Example: two tenants, one throttled
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use ecfrm_codes::RsCode;
//! use ecfrm_core::{LayoutKind, Scheme};
//! use ecfrm_store::front::{FrontConfig, FrontDoor, QosClass, TenantSpec};
//! use ecfrm_store::{ObjectStore, StoreError};
//!
//! let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(4, 2)))
//!     .layout(LayoutKind::EcFrm)
//!     .build();
//! let store = Arc::new(ObjectStore::new(scheme, 1024));
//! let front = FrontDoor::new(
//!     store,
//!     FrontConfig::builder()
//!         .cache_bytes(1 << 20)
//!         .max_delay(Duration::from_millis(1))
//!         .build(),
//! );
//! // "web" is latency class (no limit); "scan" is bulk, capped so hard
//! // that its second write overdraws the bucket and is shed.
//! front.register_tenant(TenantSpec::new("web", QosClass::Latency));
//! front.register_tenant(TenantSpec::new("scan", QosClass::Bulk).rate(1024));
//!
//! front.put("web", "profile.json", b"{\"name\":\"ada\"}").unwrap();
//! assert_eq!(front.read("web", "profile.json").unwrap(), b"{\"name\":\"ada\"}");
//!
//! front.put("scan", "chunk-0", &[0u8; 4096]).unwrap(); // rides the burst
//! let shed = front.put("scan", "chunk-1", &[0u8; 4096]);
//! assert!(matches!(shed, Err(StoreError::Throttled(_))));
//! assert_eq!(front.stat("web", "profile.json").unwrap().len, 14);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ecfrm_obs::{Counter, Gauge, Recorder};
use ecfrm_util::{Mutex, TokenBucket};

use crate::meta::{ExtentRecord, ObjectMeta, ObjectStat};
use crate::store::ObjectStore;
use crate::StoreError;

/// Admission priority class of a tenant.
///
/// The class decides what happens when the tenant's token bucket is
/// overdrawn (see the module docs for the admission state machine):
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Foreground, latency-sensitive traffic. Never queued: if the
    /// bucket cannot cover the request *now*, it is rejected
    /// ([`StoreError::Throttled`]) rather than delayed behind it.
    Latency,
    /// Throughput traffic (scans, backfills). Queued (the calling
    /// thread sleeps) up to [`FrontConfig::max_delay`], then rejected.
    Bulk,
}

impl QosClass {
    /// The class's lowercase wire/CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            QosClass::Latency => "latency",
            QosClass::Bulk => "bulk",
        }
    }

    /// Parse a lowercase class name (as used by `--tenant` CLI specs).
    pub fn parse(s: &str) -> Option<QosClass> {
        match s {
            "latency" => Some(QosClass::Latency),
            "bulk" => Some(QosClass::Bulk),
            _ => None,
        }
    }
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A tenant registration: name, priority class, and an optional rate
/// limit in bytes/second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant name (also the label on its `tenant.<name>.*` counters).
    pub name: String,
    /// Admission priority class.
    pub class: QosClass,
    /// Token-bucket refill rate in bytes/second. `None` means
    /// unlimited: the tenant is never throttled regardless of class.
    pub rate_limit: Option<u64>,
}

impl TenantSpec {
    /// A spec with no rate limit.
    pub fn new(name: &str, class: QosClass) -> Self {
        Self {
            name: name.to_string(),
            class,
            rate_limit: None,
        }
    }

    /// Set the bucket's refill rate in bytes/second.
    pub fn rate(mut self, bytes_per_sec: u64) -> Self {
        self.rate_limit = Some(bytes_per_sec);
        self
    }

    /// Parse a CLI spec `name:class[:rate]`, e.g. `web:latency` or
    /// `scan:bulk:8000000`. Returns a usage message on malformed input.
    pub fn parse(s: &str) -> Result<TenantSpec, String> {
        let mut parts = s.split(':');
        let name = parts.next().filter(|n| !n.is_empty()).ok_or_else(|| {
            format!("bad tenant spec `{s}`: expected name:class[:rate_bytes_per_sec]")
        })?;
        let class = parts
            .next()
            .and_then(QosClass::parse)
            .ok_or_else(|| format!("bad tenant spec `{s}`: class must be latency|bulk"))?;
        let rate = match parts.next() {
            None => None,
            Some(r) => Some(
                r.parse::<u64>()
                    .map_err(|_| format!("bad tenant spec `{s}`: rate must be an integer"))?,
            ),
        };
        if parts.next().is_some() {
            return Err(format!("bad tenant spec `{s}`: too many fields"));
        }
        Ok(TenantSpec {
            name: name.to_string(),
            class,
            rate_limit: rate,
        })
    }
}

/// Front-door configuration. Build with [`FrontConfig::builder`] (the
/// same builder-knob shape as `RemoteDiskConfig`).
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Decoded-element cache capacity in bytes (`0` disables caching).
    pub cache_bytes: usize,
    /// How long a [`QosClass::Bulk`] request may be queued before it is
    /// rejected.
    pub max_delay: Duration,
}

impl FrontConfig {
    /// Start building a config from the defaults: 32 MiB cache,
    /// 500 ms max bulk delay.
    pub fn builder() -> FrontConfigBuilder {
        FrontConfigBuilder {
            cfg: FrontConfig {
                cache_bytes: 32 << 20,
                max_delay: Duration::from_millis(500),
            },
        }
    }
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig::builder().build()
    }
}

/// Builder for [`FrontConfig`].
#[derive(Debug, Clone)]
pub struct FrontConfigBuilder {
    cfg: FrontConfig,
}

impl FrontConfigBuilder {
    /// Decoded-element cache capacity in bytes (`0` disables caching).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cfg.cache_bytes = bytes;
        self
    }

    /// Maximum queueing delay for [`QosClass::Bulk`] requests.
    pub fn max_delay(mut self, d: Duration) -> Self {
        self.cfg.max_delay = d;
        self
    }

    /// Finish building.
    pub fn build(self) -> FrontConfig {
        self.cfg
    }
}

/// One registered tenant: spec, bucket, and pre-resolved counters.
struct Tenant {
    spec: TenantSpec,
    bucket: Option<TokenBucket>,
    reads: Counter,
    read_bytes: Counter,
    writes: Counter,
    write_bytes: Counter,
    delayed: Counter,
    rejected: Counter,
}

impl Tenant {
    fn new(spec: TenantSpec, recorder: &Recorder) -> Self {
        let c = |what: &str| recorder.counter(&format!("tenant.{}.{what}", spec.name));
        Self {
            bucket: spec.rate_limit.map(TokenBucket::new),
            reads: c("reads"),
            read_bytes: c("read_bytes"),
            writes: c("writes"),
            write_bytes: c("write_bytes"),
            delayed: c("delayed"),
            rejected: c("rejected"),
            spec,
        }
    }
}

/// Bounded SIEVE cache of decoded data elements, keyed by global
/// element index.
///
/// The contract, stated once: an entry is a *decoded data element that
/// passed its footer on the way in* (the store verifies every cell it
/// fetches), and its key is an index into an append-only stream whose
/// sealed elements never change — [`ObjectStore::flush`] pads the tail
/// and never reuses the padding, delete is metadata-only, and repair
/// rewrites byte-identical cells. So nothing ever has to leave the
/// cache except by eviction: no seal, repair or whole-disk rebuild
/// touches it (pinned by `tests/front_door.rs`).
///
/// The policy is SIEVE (Zhang et al., NSDI '24): one FIFO, new elements
/// enter at the head, a hit sets `visited` and moves nothing, and
/// eviction walks a retained *hand* from the tail toward the head,
/// clearing `visited` on the entries it spares and removing the first
/// unvisited one. One-touch elements leave on the hand's next pass,
/// re-read ones stay, and a scan — all one-touch — feeds the hand
/// without ever making it wrap, so it cannot flush what is re-read.
struct ElementCache {
    cap: usize,
    inner: Mutex<CacheInner>,
    hits: Counter,
    misses: Counter,
    evicted: Counter,
    bytes: Gauge,
}

/// "No node": the end of the queue in either direction.
const NIL: u32 = u32::MAX;

/// One slab slot: a resident element linked into the FIFO, or a free
/// slot (`payload` is `None`) waiting on the free list.
struct Node {
    elem: u64,
    payload: Option<Arc<Vec<u8>>>,
    visited: bool,
    /// The neighbour inserted after this one (toward the head).
    newer: u32,
    /// The neighbour inserted before this one (toward the tail).
    older: u32,
}

/// The FIFO lives in a slab indexed by `u32`: no allocation per entry,
/// and no ordered map — the queue order *is* the eviction order.
struct CacheInner {
    index: HashMap<u64, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Where the last eviction stopped; `NIL` restarts at the tail.
    hand: u32,
    bytes: usize,
}

impl CacheInner {
    /// Unlink and free the first unvisited entry at or past the hand,
    /// clearing `visited` on every entry passed over. Must not be
    /// called on an empty queue.
    fn evict(&mut self) {
        let mut at = self.hand;
        let node = loop {
            if at == NIL {
                at = self.tail;
            }
            let node = &mut self.nodes[at as usize];
            if !std::mem::take(&mut node.visited) {
                break node;
            }
            at = node.newer;
        };
        let (newer, older) = (node.newer, node.older);
        self.bytes -= node.payload.take().map_or(0, |p| p.len());
        self.index.remove(&node.elem);
        match newer {
            NIL => self.head = older,
            n => self.nodes[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.nodes[o as usize].newer = newer,
        }
        self.hand = newer;
        self.free.push(at);
    }

    /// Link `payload` in at the head, unvisited, in a reused slot if
    /// there is one.
    fn push_head(&mut self, elem: u64, payload: Arc<Vec<u8>>) {
        self.bytes += payload.len();
        let node = Node {
            elem,
            payload: Some(payload),
            visited: false,
            newer: NIL,
            older: self.head,
        };
        let at = match self.free.pop() {
            Some(at) => {
                self.nodes[at as usize] = node;
                at
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        match self.head {
            NIL => self.tail = at,
            h => self.nodes[h as usize].newer = at,
        }
        self.head = at;
        self.index.insert(elem, at);
    }
}

impl ElementCache {
    fn new(cap: usize, recorder: &Recorder) -> Self {
        let inner = CacheInner {
            index: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            bytes: 0,
        };
        Self {
            cap,
            inner: Mutex::new(inner),
            hits: recorder.counter("cache.hit"),
            misses: recorder.counter("cache.miss"),
            evicted: recorder.counter("cache.evict"),
            bytes: recorder.gauge("cache.bytes"),
        }
    }

    /// Look a run of consecutive elements up under one lock: one entry
    /// per element, in order. A hit marks its entry visited — one flag
    /// write; the queue is not touched.
    fn get_run(&self, elems: std::ops::Range<u64>) -> Vec<Option<Arc<Vec<u8>>>> {
        let n = (elems.end - elems.start) as usize;
        if self.cap == 0 {
            self.misses.add(n as u64);
            return vec![None; n];
        }
        let mut inner = self.inner.lock();
        let CacheInner { index, nodes, .. } = &mut *inner;
        let found: Vec<_> = elems
            .map(|elem| {
                let node = &mut nodes[*index.get(&elem)? as usize];
                node.visited = true;
                node.payload.clone()
            })
            .collect();
        drop(inner);
        let hits = found.iter().flatten().count();
        self.hits.add(hits as u64);
        self.misses.add((n - hits) as u64);
        found
    }

    /// Admit the consecutive elements `first..` under one lock, each as
    /// if inserted on its own: room is made *before* it enters, so the
    /// newcomer is never its own victim, and an element larger than the
    /// whole budget is not admitted (it would evict everything and
    /// still not fit).
    fn insert_run(&self, first: u64, payloads: Vec<Arc<Vec<u8>>>) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let mut evicted = 0;
        for (elem, payload) in (first..).zip(payloads) {
            // Oversized, or a racing miss already filled it.
            if payload.len() > self.cap || inner.index.contains_key(&elem) {
                continue;
            }
            while inner.bytes + payload.len() > self.cap {
                inner.evict();
                evicted += 1;
            }
            inner.push_head(elem, payload);
        }
        self.evicted.add(evicted);
        self.bytes.set(inner.bytes as i64);
    }
}

/// Part of an object read: bytes `range` of one decoded element, in the
/// buffer that holds them — the cache's, or the one a miss read the cell
/// into. A read is a list of these, in order ([`FrontDoor::read_pieces`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piece {
    /// The whole element, shared with the cache.
    pub element: Arc<Vec<u8>>,
    /// The bytes of it the read covers.
    pub range: std::ops::Range<usize>,
}

impl std::ops::Deref for Piece {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.element[self.range.clone()]
    }
}

/// Front-door counters that are not per-tenant or cache-owned.
struct FrontMetrics {
    admit_ok: Counter,
    admit_delayed: Counter,
    admit_rejected: Counter,
    objects: Gauge,
}

/// The multi-tenant object layer over an [`ObjectStore`]. See the
/// [module docs](self) for the full design and a runnable example.
pub struct FrontDoor {
    store: Arc<ObjectStore>,
    cfg: FrontConfig,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    /// tenant → object → extent record.
    namespace: Mutex<HashMap<String, HashMap<String, ExtentRecord>>>,
    cache: ElementCache,
    metrics: FrontMetrics,
    /// Raised by [`Self::shutdown`]: unparks every admission waiter
    /// (they reject instead of finishing their sleep) so connection
    /// threads can be joined promptly.
    stopped: AtomicBool,
}

impl std::fmt::Debug for FrontDoor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrontDoor({:?}, cache {} B)",
            self.store, self.cfg.cache_bytes
        )
    }
}

impl FrontDoor {
    /// Stand a front door up over `store`; counters register on the
    /// store's [`Recorder`].
    pub fn new(store: Arc<ObjectStore>, cfg: FrontConfig) -> Arc<FrontDoor> {
        let recorder = store.recorder();
        let cache = ElementCache::new(cfg.cache_bytes, recorder);
        let metrics = FrontMetrics {
            admit_ok: recorder.counter("admit.ok"),
            admit_delayed: recorder.counter("admit.delayed"),
            admit_rejected: recorder.counter("admit.rejected"),
            objects: recorder.gauge("front.objects"),
        };
        Arc::new(FrontDoor {
            stopped: AtomicBool::new(false),
            cfg,
            tenants: Mutex::new(HashMap::new()),
            namespace: Mutex::new(HashMap::new()),
            cache,
            metrics,
            store,
        })
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// Register (or replace) a tenant. Unregistered tenants are
    /// auto-registered on first use as unlimited [`QosClass::Latency`].
    pub fn register_tenant(&self, spec: TenantSpec) {
        let t = Arc::new(Tenant::new(spec, self.store.recorder()));
        self.tenants.lock().insert(t.spec.name.clone(), t);
    }

    /// Begin shutdown: every queued admission waiter unparks at its
    /// next poll slice and rejects ([`StoreError::Throttled`]), and no
    /// new request queues. Requests that need no delay still pass, so
    /// in-flight drains complete. Permanent — called by the serving
    /// layer when its listener stops, so parked connection threads can
    /// be joined.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::Release);
    }

    fn tenant(&self, name: &str) -> Arc<Tenant> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(name) {
            return Arc::clone(t);
        }
        let t = Arc::new(Tenant::new(
            TenantSpec::new(name, QosClass::Latency),
            self.store.recorder(),
        ));
        tenants.insert(name.to_string(), Arc::clone(&t));
        t
    }

    /// The admission state machine: charge `bytes` against the
    /// tenant's bucket, passing / delaying / rejecting by class.
    ///
    /// Callers validate the request (object exists, range in bounds)
    /// *before* admitting, so invalid requests never spend budget.
    /// Delayed waiters sleep in short slices, re-checking the
    /// [`Self::shutdown`] flag each round, and every class's deadline
    /// is finite — no server thread parks here unboundedly.
    fn admit(&self, tenant: &Tenant, bytes: u64) -> Result<(), StoreError> {
        /// How coarsely a queued waiter observes the shutdown flag.
        const POLL: Duration = Duration::from_millis(10);

        let Some(bucket) = &tenant.bucket else {
            self.metrics.admit_ok.inc();
            return Ok(());
        };
        let wait = bucket.ready_in();
        if wait > Duration::ZERO {
            let deadline = match tenant.spec.class {
                QosClass::Latency => Duration::ZERO,
                QosClass::Bulk => self.cfg.max_delay,
            };
            if wait > deadline {
                tenant.rejected.inc();
                self.metrics.admit_rejected.inc();
                return Err(StoreError::Throttled(format!(
                    "tenant {} ({}) over rate limit: bucket ready in {wait:?}",
                    tenant.spec.name, tenant.spec.class,
                )));
            }
            let mut remaining = wait;
            while remaining > Duration::ZERO {
                if self.stopped.load(Ordering::Acquire) {
                    tenant.rejected.inc();
                    self.metrics.admit_rejected.inc();
                    return Err(StoreError::Throttled(format!(
                        "front door shutting down: tenant {} not admitted",
                        tenant.spec.name,
                    )));
                }
                let slice = remaining.min(POLL);
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
            tenant.delayed.inc();
            self.metrics.admit_delayed.inc();
        }
        bucket.spend(bytes);
        self.metrics.admit_ok.inc();
        Ok(())
    }

    /// Create an empty object.
    ///
    /// # Errors
    /// [`StoreError::AlreadyExists`] if the tenant already has an
    /// object with that name; [`StoreError::Throttled`] on admission
    /// rejection.
    pub fn create(&self, tenant: &str, object: &str) -> Result<(), StoreError> {
        let t = self.tenant(tenant);
        // Validate before admitting (and without holding the namespace
        // lock across a potential admission sleep) so an invalid
        // request costs no budget; the post-admission insert re-checks
        // in case a racing create won meanwhile.
        {
            let ns = self.namespace.lock();
            if ns.get(tenant).is_some_and(|o| o.contains_key(object)) {
                return Err(StoreError::AlreadyExists(format!("{tenant}/{object}")));
            }
        }
        self.admit(&t, 0)?;
        let mut ns = self.namespace.lock();
        let objects = ns.entry(tenant.to_string()).or_default();
        if objects.contains_key(object) {
            return Err(StoreError::AlreadyExists(format!("{tenant}/{object}")));
        }
        objects.insert(
            object.to_string(),
            ExtentRecord {
                extents: Vec::new(),
                version: 1,
            },
        );
        self.metrics.objects.add(1);
        Ok(())
    }

    /// Append `bytes` to an existing object as one new extent.
    ///
    /// # Errors
    /// [`StoreError::NotFound`] if the object does not exist;
    /// [`StoreError::Throttled`] on admission rejection (the bytes are
    /// not written).
    pub fn write(&self, tenant: &str, object: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let t = self.tenant(tenant);
        // Check existence *before* admitting or appending so a
        // misspelled name neither spends the tenant's budget nor leaks
        // stream bytes.
        {
            let ns = self.namespace.lock();
            ns.get(tenant)
                .and_then(|o| o.get(object))
                .ok_or_else(|| StoreError::NotFound(format!("{tenant}/{object}")))?;
        }
        self.admit(&t, bytes.len() as u64)?;
        let extent = self.store.append(bytes);
        let mut ns = self.namespace.lock();
        let rec = ns
            .get_mut(tenant)
            .and_then(|o| o.get_mut(object))
            .ok_or_else(|| StoreError::NotFound(format!("{tenant}/{object}")))?;
        rec.extents.push(extent);
        rec.version += 1;
        t.writes.inc();
        t.write_bytes.add(bytes.len() as u64);
        Ok(())
    }

    /// [`Self::create`] followed by [`Self::write`].
    ///
    /// # Errors
    /// As for the two steps.
    pub fn put(&self, tenant: &str, object: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.create(tenant, object)?;
        self.write(tenant, object, bytes)
    }

    /// Read a whole object.
    ///
    /// # Errors
    /// [`StoreError::NotFound`] / [`StoreError::Throttled`], or any
    /// store read error.
    pub fn read(&self, tenant: &str, object: &str) -> Result<Vec<u8>, StoreError> {
        self.read_range(tenant, object, 0, u64::MAX)
    }

    /// Read `len` bytes of an object starting at byte `start`: the
    /// pieces of [`Self::read_pieces`] (no cap) appended to one buffer.
    ///
    /// # Errors
    /// [`StoreError::NotFound`], [`StoreError::RangeOutOfBounds`],
    /// [`StoreError::Throttled`], or any store read error.
    pub fn read_range(
        &self,
        tenant: &str,
        object: &str,
        start: u64,
        len: u64,
    ) -> Result<Vec<u8>, StoreError> {
        let pieces = self.read_pieces(tenant, object, start, len, u64::MAX)?;
        let mut out = Vec::with_capacity(pieces.iter().map(|p| p.len()).sum());
        for piece in &pieces {
            out.extend_from_slice(piece);
        }
        Ok(out)
    }

    /// Read `len` bytes of an object starting at byte `start`,
    /// read-through the decoded-element cache, as the buffers that hold
    /// them, in order: no byte is copied. `len == u64::MAX` reads to the
    /// end — of the object as the one namespace lookup finds it, so a
    /// whole-object read racing a write or a delete-and-recreate returns
    /// one version's bytes whole.
    ///
    /// # Errors
    /// [`StoreError::NotFound`], [`StoreError::RangeOutOfBounds`],
    /// [`StoreError::TooLarge`] for more than `cap` bytes (refused, like
    /// the first two, before admission and before any fetch),
    /// [`StoreError::Throttled`], or any store read error.
    pub fn read_pieces(
        &self,
        tenant: &str,
        object: &str,
        start: u64,
        len: u64,
        cap: u64,
    ) -> Result<Vec<Piece>, StoreError> {
        let t = self.tenant(tenant);
        let rec = {
            let ns = self.namespace.lock();
            ns.get(tenant)
                .and_then(|o| o.get(object))
                .cloned()
                .ok_or_else(|| StoreError::NotFound(format!("{tenant}/{object}")))?
        };
        let total = rec.len();
        let len = match len {
            u64::MAX => total.saturating_sub(start),
            len => len,
        };
        if start.checked_add(len).is_none_or(|end| end > total) {
            return Err(StoreError::RangeOutOfBounds {
                name: format!("{tenant}/{object}"),
                len: total,
            });
        }
        if len > cap {
            return Err(StoreError::TooLarge(format!(
                "{tenant}/{object}: {len} bytes in one reply, over the {cap}-byte cap"
            )));
        }
        // Admit only after the request is known valid, so NotFound /
        // RangeOutOfBounds / TooLarge traffic cannot throttle a tenant.
        self.admit(&t, len)?;
        let mut pieces = Vec::new();
        for (extent, off, run) in rec.slices(start, len) {
            self.extent_pieces(extent, off, run, &mut pieces)?;
        }
        t.reads.inc();
        t.read_bytes.add(len);
        Ok(pieces)
    }

    /// Object metadata: length, version, extent count.
    ///
    /// # Errors
    /// [`StoreError::NotFound`].
    pub fn stat(&self, tenant: &str, object: &str) -> Result<ObjectStat, StoreError> {
        let ns = self.namespace.lock();
        let rec = ns
            .get(tenant)
            .and_then(|o| o.get(object))
            .ok_or_else(|| StoreError::NotFound(format!("{tenant}/{object}")))?;
        Ok(ObjectStat {
            len: rec.len(),
            version: rec.version,
            extents: rec.extents.len(),
        })
    }

    /// Delete an object: the namespace record is dropped, the stream
    /// bytes become unreferenced (append-only store — space is
    /// reclaimed by future compaction, not now). The name is
    /// immediately reusable.
    ///
    /// # Errors
    /// [`StoreError::NotFound`].
    pub fn delete(&self, tenant: &str, object: &str) -> Result<(), StoreError> {
        let mut ns = self.namespace.lock();
        let objects = ns
            .get_mut(tenant)
            .ok_or_else(|| StoreError::NotFound(format!("{tenant}/{object}")))?;
        objects
            .remove(object)
            .ok_or_else(|| StoreError::NotFound(format!("{tenant}/{object}")))?;
        self.metrics.objects.add(-1);
        Ok(())
    }

    /// A tenant's object names, sorted.
    pub fn list(&self, tenant: &str) -> Vec<String> {
        let ns = self.namespace.lock();
        let mut names: Vec<String> = ns
            .get(tenant)
            .map(|o| o.keys().cloned().collect())
            .unwrap_or_default();
        names.sort();
        names
    }

    /// Cache hit/miss totals so far — `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits.get(), self.cache.misses.get())
    }

    /// Push the pieces of the `run` bytes starting `off` into `extent`,
    /// in order: decoded elements from the cache, contiguous miss runs
    /// batch-read through the store — each element buffer wrapped once
    /// and shared between the pieces and the cache.
    fn extent_pieces(
        &self,
        extent: ObjectMeta,
        off: u64,
        run: u64,
        pieces: &mut Vec<Piece>,
    ) -> Result<(), StoreError> {
        let abs = ObjectMeta {
            offset: extent.offset + off,
            len: run,
        };
        let (first, last) = abs
            .element_range(self.store.element_size())
            .expect("namespace extents were handed out by the store's append");
        let piece = |e: u64, element: Arc<Vec<u8>>| Piece {
            range: abs.part_of(e, element.len()),
            element,
        };
        let mut cached = self.cache.get_run(first..last);
        pieces.reserve(cached.len());
        let mut e = first;
        while e < last {
            if let Some(element) = cached[(e - first) as usize].take() {
                pieces.push(piece(e, element));
                e += 1;
                continue;
            }
            // One planned read per contiguous miss run.
            let misses = cached[(e - first) as usize..]
                .iter()
                .take_while(|hit| hit.is_none())
                .count();
            let (elements, _) = self.store.read_elements(e, misses)?;
            let elements: Vec<_> = elements.into_iter().map(Arc::new).collect();
            pieces.extend((e..).zip(&elements).map(|(e, el)| piece(e, Arc::clone(el))));
            let fetched = elements.len() as u64;
            self.cache.insert_run(e, elements);
            e += fetched;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use ecfrm_codes::RsCode;
    use ecfrm_core::{LayoutKind, Scheme};

    fn front_with(cfg: FrontConfig) -> Arc<FrontDoor> {
        let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(4, 2)))
            .layout(LayoutKind::EcFrm)
            .build();
        FrontDoor::new(Arc::new(ObjectStore::new(scheme, 512)), cfg)
    }

    fn front() -> Arc<FrontDoor> {
        front_with(FrontConfig::builder().cache_bytes(1 << 20).build())
    }

    fn blob(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn namespace_crud_roundtrip() {
        let f = front();
        let data = blob(5000, 3);
        f.put("a", "obj", &data).unwrap();
        assert_eq!(f.read("a", "obj").unwrap(), data);
        let st = f.stat("a", "obj").unwrap();
        assert_eq!((st.len, st.version, st.extents), (5000, 2, 1));
        // Appends add extents; reads concatenate.
        let more = blob(700, 9);
        f.write("a", "obj", &more).unwrap();
        let mut all = data.clone();
        all.extend_from_slice(&more);
        assert_eq!(f.read("a", "obj").unwrap(), all);
        assert_eq!(f.stat("a", "obj").unwrap().extents, 2);
        // Ranged read across the extent boundary.
        assert_eq!(
            f.read_range("a", "obj", 4990, 20).unwrap(),
            &all[4990..5010]
        );
        // Delete frees the name.
        f.delete("a", "obj").unwrap();
        assert!(matches!(f.read("a", "obj"), Err(StoreError::NotFound(_))));
        f.put("a", "obj", b"fresh").unwrap();
        assert_eq!(f.read("a", "obj").unwrap(), b"fresh");
    }

    #[test]
    fn reading_to_the_end_is_resolved_in_the_one_lookup() {
        let f = front();
        let data = blob(3000, 4);
        f.put("a", "o", &data).unwrap();
        assert_eq!(f.read_range("a", "o", 0, u64::MAX).unwrap(), data);
        assert_eq!(
            f.read_range("a", "o", 2990, u64::MAX).unwrap(),
            &data[2990..]
        );
        assert!(f.read_range("a", "o", 3000, u64::MAX).unwrap().is_empty());
        assert!(matches!(
            f.read_range("a", "o", 3001, u64::MAX),
            Err(StoreError::RangeOutOfBounds { len: 3000, .. })
        ));
    }

    /// A whole-object read used to ask for the length and then for that
    /// many bytes: a writer in between made it fail (the object
    /// replaced by a shorter one) or tear. Now it is one lookup, so
    /// whatever the interleaving it returns one version whole. (The
    /// window is gone, so there is no seam left to force it at; 4000
    /// swaps hit the old one in about three runs of four.)
    #[test]
    fn a_whole_object_read_racing_writers_returns_one_version_whole() {
        let f = front();
        let (long, short, more) = (blob(3000, 1), blob(700, 2), blob(900, 3));
        let grown = [long.clone(), more.clone()].concat();
        f.put("a", "swap", &long).unwrap();
        f.put("a", "grow", &long).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // `swap` alternates between a long and a short version;
                // `grow` is appended to once.
                for round in 0..4000 {
                    f.delete("a", "swap").unwrap();
                    let next = if round % 2 == 0 { &short } else { &long };
                    f.put("a", "swap", next).unwrap();
                    if round == 2000 {
                        f.write("a", "grow", &more).unwrap();
                    }
                }
                stop.store(true, Ordering::Release);
            });
            while !stop.load(Ordering::Acquire) {
                match f.read("a", "swap") {
                    // Deleted, created and not yet written, or whole.
                    Err(StoreError::NotFound(_)) => {}
                    Ok(got) => assert!(
                        got.is_empty() || got == long || got == short,
                        "torn read of {} bytes",
                        got.len()
                    ),
                    Err(e) => panic!("a racing whole-object read failed: {e}"),
                }
                let got = f.read("a", "grow").unwrap();
                assert!(got == long || got == grown, "{} bytes", got.len());
            }
        });
        assert_eq!(f.read("a", "grow").unwrap(), grown);
    }

    #[test]
    fn tenants_are_isolated() {
        let f = front();
        f.put("a", "obj", b"alpha").unwrap();
        f.put("b", "obj", b"bravo").unwrap();
        assert_eq!(f.read("a", "obj").unwrap(), b"alpha");
        assert_eq!(f.read("b", "obj").unwrap(), b"bravo");
        assert!(matches!(f.stat("c", "obj"), Err(StoreError::NotFound(_))));
        assert_eq!(f.list("a"), vec!["obj".to_string()]);
    }

    #[test]
    fn duplicate_create_rejected_and_errors_typed() {
        let f = front();
        f.create("a", "x").unwrap();
        assert!(matches!(
            f.create("a", "x"),
            Err(StoreError::AlreadyExists(_))
        ));
        assert!(matches!(
            f.write("a", "nope", b"z"),
            Err(StoreError::NotFound(_))
        ));
        f.write("a", "x", &blob(100, 1)).unwrap();
        assert!(matches!(
            f.read_range("a", "x", 90, 20),
            Err(StoreError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn cache_hits_on_hot_reread() {
        let f = front();
        let data = blob(8192, 5);
        f.put("a", "hot", &data).unwrap();
        for _ in 0..10 {
            assert_eq!(f.read("a", "hot").unwrap(), data);
        }
        let (hits, misses) = f.cache_stats();
        assert!(hits > misses, "hits {hits} misses {misses}");
        // The cached bytes really are what the store holds.
        assert_eq!(f.read("a", "hot").unwrap(), data);
    }

    /// A read hands back the buffers the bytes are in: a miss's pieces
    /// are the very elements the cache admitted, and a hit's are those
    /// again — nothing in between was copied.
    #[test]
    fn pieces_are_the_cached_elements() {
        let f = front();
        let data = blob(3 * 512, 6);
        f.put("a", "o", &data).unwrap();
        let cold = f.read_pieces("a", "o", 100, 1000, u64::MAX).unwrap();
        let warm = f.read_pieces("a", "o", 100, 1000, u64::MAX).unwrap();
        let bytes: Vec<&[u8]> = cold.iter().map(|p| &p[..]).collect();
        assert_eq!(bytes.concat(), &data[100..1100]);
        let cached = f.cache.get_run(0..3);
        for pieces in [&cold, &warm] {
            let ranges: Vec<_> = pieces.iter().map(|p| p.range.clone()).collect();
            assert_eq!(ranges, [100..512, 0..512, 0..76]);
            for (piece, element) in pieces.iter().zip(cached.iter().flatten()) {
                assert!(Arc::ptr_eq(&piece.element, element));
            }
        }
    }

    /// More than `cap` bytes is refused on the namespace lookup alone:
    /// no admission charge, no cache lookup, no fetch.
    #[test]
    fn a_read_over_the_cap_is_refused_before_admission() {
        let f = front();
        f.put("a", "o", &blob(2000, 1)).unwrap();
        let admitted = f.metrics.admit_ok.get();
        let r = f.read_pieces("a", "o", 0, u64::MAX, 1999);
        assert!(matches!(r, Err(StoreError::TooLarge(_))), "{r:?}");
        assert_eq!(
            (f.metrics.admit_ok.get(), f.cache_stats()),
            (admitted, (0, 0))
        );
        assert_eq!(f.read_pieces("a", "o", 1, 1999, 1999).unwrap().len(), 4);
    }

    #[test]
    fn cache_disabled_still_correct() {
        let f = front_with(FrontConfig::builder().cache_bytes(0).build());
        let data = blob(8192, 5);
        f.put("a", "o", &data).unwrap();
        assert_eq!(f.read("a", "o").unwrap(), data);
        let (hits, _) = f.cache_stats();
        assert_eq!(hits, 0);
    }

    #[test]
    fn cache_eviction_bounds_bytes() {
        // Cap of 4 elements' worth; read 16 elements.
        let f = front_with(FrontConfig::builder().cache_bytes(4 * 512).build());
        let data = blob(16 * 512, 7);
        f.put("a", "o", &data).unwrap();
        assert_eq!(f.read("a", "o").unwrap(), data);
        let snap = f.store().recorder().snapshot();
        let evicted = snap
            .flatten()
            .into_iter()
            .find(|(n, _)| n == "cache.evict")
            .map(|(_, v)| v)
            .unwrap_or(0);
        assert!(evicted >= 12, "evicted {evicted}");
        // Still byte-correct after churn.
        assert_eq!(f.read("a", "o").unwrap(), data);
    }

    #[test]
    fn cache_smaller_than_one_element_admits_nothing() {
        let f = front_with(FrontConfig::builder().cache_bytes(100).build());
        let data = blob(8 * 512, 7);
        f.put("a", "o", &data).unwrap();
        for _ in 0..3 {
            assert_eq!(f.read("a", "o").unwrap(), data);
        }
        assert_eq!(f.cache_stats().0, 0, "nothing fits, so nothing hits");
        assert_eq!((f.cache.evicted.get(), f.cache.bytes.get()), (0, 0));
    }

    // The cache on its own: seeded traces, counts that repeat exactly.

    fn cache(cap: usize) -> ElementCache {
        ElementCache::new(cap, &Recorder::new())
    }

    /// `n` zeroed elements of `len` bytes, each a buffer of its own.
    fn zeroed(n: usize, len: usize) -> Vec<Arc<Vec<u8>>> {
        (0..n).map(|_| Arc::new(vec![0u8; len])).collect()
    }

    /// Read `elems` the way `extent_pieces` does — one `get_run`, one
    /// `insert_run` (of one-byte payloads, so the budget counts
    /// elements) per contiguous miss run — and return how many hit.
    fn read_through(c: &ElementCache, elems: std::ops::Range<u64>) -> usize {
        let found = c.get_run(elems.clone());
        let mut e = elems.start;
        for run in found.chunk_by(|a, b| a.is_some() == b.is_some()) {
            if run[0].is_none() {
                c.insert_run(e, zeroed(run.len(), 1));
            }
            e += run.len() as u64;
        }
        found.iter().flatten().count()
    }

    /// The tier-1 pin of SIEVE's gain, on the `zipf_get` benchmark's own
    /// shape: whole-object reads of 4 104 eight-element objects,
    /// Zipf(1.08), a budget of 4 096 elements (1/8 of the data). SIEVE
    /// hits 0.813 of this trace's lookups; the LRU it replaced hit
    /// 0.755 of the same trace (0.752 on the benchmark's own), and
    /// keeping the 512 most popular objects forever — the static
    /// optimum — would hit 0.825.
    #[test]
    fn cache_hit_rate_on_a_zipf_trace_is_near_the_static_optimum() {
        let c = cache(4096);
        let zipf = ecfrm_sim::Zipf::new(4104, 1.08);
        let mut rng = ecfrm_util::Rng::seed_from_u64(21);
        let (mut hits, mut lookups) = (0, 0);
        for read in 0..300_000 {
            let first = 8 * zipf.sample(&mut rng) as u64;
            let hit = read_through(&c, first..first + 8);
            if read >= 100_000 {
                hits += hit;
                lookups += 8;
            }
        }
        let rate = hits as f64 / lookups as f64;
        assert!(rate >= 0.79, "hit rate {rate:.4}");
    }

    /// Scan resistance: a hot set of half the budget, read twice,
    /// outlives a single pass over twice the budget of cold elements.
    /// (An LRU ends this with no hot element left.)
    #[test]
    fn cache_hot_set_survives_a_scan_of_twice_the_budget() {
        const CAP: u64 = 1024;
        let c = cache(CAP as usize);
        for _ in 0..2 {
            for first in (0..CAP / 2).step_by(8) {
                read_through(&c, first..first + 8);
            }
        }
        let cold = 1 << 20;
        for first in (cold..cold + 2 * CAP).step_by(8) {
            assert_eq!(read_through(&c, first..first + 8), 0);
        }
        let hot = c.get_run(0..CAP / 2);
        assert_eq!(hot.iter().flatten().count() as u64, CAP / 2);
        assert_eq!(c.evicted.get(), 2 * CAP - CAP / 2, "cold ones only");
    }

    /// Under a random mix of run lookups and run inserts of mixed-size
    /// payloads: `cache.bytes` is the sum of the resident payloads and
    /// never over budget, the slab is no longer than the most elements
    /// ever resident at once (freed slots are reused), and
    /// `get_run`/`insert_run` hit, count and evict exactly as the same
    /// elements offered one at a time.
    #[test]
    fn cache_bytes_slab_and_run_totals_hold_under_a_random_mix() {
        const CAP: usize = 4000;
        let (runs, singles) = (cache(CAP), cache(CAP));
        let mut rng = ecfrm_util::Rng::seed_from_u64(7);
        let mut peak = 0;
        for _ in 0..20_000 {
            let first = rng.bounded(600);
            let elems = first..first + 1 + rng.bounded(12);
            if rng.bounded(3) == 0 {
                let payloads: Vec<_> = elems
                    .clone()
                    .map(|e| Arc::new(vec![e as u8; 1 + (e * 37 % 96) as usize]))
                    .collect();
                for (e, payload) in elems.clone().zip(&payloads) {
                    singles.insert_run(e, vec![payload.clone()]);
                    peak = peak.max(singles.inner.lock().index.len());
                }
                runs.insert_run(first, payloads);
            } else {
                let one_by_one: Vec<_> = elems
                    .clone()
                    .map(|e| singles.get_run(e..e + 1).remove(0))
                    .collect();
                assert_eq!(runs.get_run(elems), one_by_one);
            }
            let inner = runs.inner.lock();
            let resident: usize = inner
                .index
                .values()
                .map(|&at| inner.nodes[at as usize].payload.as_ref().unwrap().len())
                .sum();
            assert_eq!((inner.bytes, runs.bytes.get()), (resident, resident as i64));
            assert!(resident <= CAP, "{resident} B resident");
            assert!(inner.nodes.len() <= peak, "a freed slot was not reused");
            assert_eq!(inner.nodes.len(), inner.index.len() + inner.free.len());
        }
        assert!(runs.evicted.get() > 1000, "the mix must churn the cache");
        for (a, b) in [
            (&runs.hits, &singles.hits),
            (&runs.misses, &singles.misses),
            (&runs.evicted, &singles.evicted),
        ] {
            assert_eq!(a.get(), b.get());
        }
    }

    /// An element larger than the whole budget used to be inserted,
    /// evict every older entry, and then be evicted itself.
    #[test]
    fn cache_does_not_admit_an_element_larger_than_the_budget() {
        let c = cache(100);
        c.insert_run(0, zeroed(4, 25)); // warm, exactly full
        c.insert_run(10, vec![Arc::new(vec![1u8; 101]), Arc::new(vec![2u8; 25])]);
        assert!(c.get_run(10..11)[0].is_none(), "oversized: not admitted");
        assert!(c.get_run(11..12)[0].is_some(), "its run-mate is");
        let warm = c.get_run(0..4);
        assert_eq!(warm.iter().flatten().count(), 3, "one left for the mate");
        assert_eq!((c.evicted.get(), c.bytes.get()), (1, 100));
    }

    #[test]
    fn latency_class_rejects_instead_of_queueing() {
        let f = front();
        f.register_tenant(TenantSpec::new("lat", QosClass::Latency).rate(1024));
        f.put("lat", "o", &blob(4096, 1)).unwrap(); // burst covers it
                                                    // Bucket now deeply overdrawn: the next charged op must reject
                                                    // immediately, not sleep.
        let t0 = Instant::now();
        let r = f.put("lat", "o2", &blob(4096, 2));
        assert!(matches!(r, Err(StoreError::Throttled(_))), "{r:?}");
        assert!(t0.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn bulk_class_queues_within_deadline() {
        let f = front_with(
            FrontConfig::builder()
                .cache_bytes(0)
                .max_delay(Duration::from_secs(5))
                .build(),
        );
        f.register_tenant(TenantSpec::new("bulk", QosClass::Bulk).rate(100_000));
        f.put("bulk", "o", &blob(20_000, 1)).unwrap(); // ~2× burst
                                                       // Overdrawn by ~10 KB → next op waits ~100 ms instead of
                                                       // rejecting.
        let t0 = Instant::now();
        f.put("bulk", "o2", b"x").unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(50),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn shutdown_unparks_queued_waiters() {
        let f = front_with(
            FrontConfig::builder()
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        f.register_tenant(TenantSpec::new("bulk", QosClass::Bulk).rate(1024));
        f.put("bulk", "o", &blob(4096, 1)).unwrap(); // ~4 s of deficit
        let waiter = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.put("bulk", "o2", b"x"))
        };
        std::thread::sleep(Duration::from_millis(50)); // let it park
        f.shutdown();
        let t0 = Instant::now();
        let r = waiter.join().unwrap();
        assert!(matches!(r, Err(StoreError::Throttled(_))), "{r:?}");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn invalid_requests_spend_no_budget() {
        let f = front_with(
            FrontConfig::builder()
                .max_delay(Duration::from_millis(200))
                .build(),
        );
        f.register_tenant(TenantSpec::new("t", QosClass::Bulk).rate(100_000));
        f.put("t", "o", &blob(100, 1)).unwrap();
        // A storm of invalid traffic: were any of it charged, the
        // deficit would dwarf the 200 ms bulk deadline and every later
        // request would throttle.
        for _ in 0..5 {
            assert!(matches!(
                f.read_range("t", "missing", 0, 10_000_000),
                Err(StoreError::NotFound(_))
            ));
            assert!(matches!(
                f.read_range("t", "o", 0, 10_000_000),
                Err(StoreError::RangeOutOfBounds { .. })
            ));
            assert!(matches!(
                f.write("t", "missing", &blob(10_000_000, 2)),
                Err(StoreError::NotFound(_))
            ));
            assert!(matches!(
                f.create("t", "o"),
                Err(StoreError::AlreadyExists(_))
            ));
        }
        assert_eq!(f.read("t", "o").unwrap(), blob(100, 1));
    }

    #[test]
    fn tenant_counters_register() {
        let f = front();
        f.put("acct", "o", &blob(2000, 1)).unwrap();
        f.read("acct", "o").unwrap();
        let snap = f.store().recorder().snapshot();
        let get = |name: &str| {
            snap.flatten()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(get("tenant.acct.writes"), 1);
        assert_eq!(get("tenant.acct.write_bytes"), 2000);
        assert_eq!(get("tenant.acct.reads"), 1);
        assert_eq!(get("tenant.acct.read_bytes"), 2000);
    }

    #[test]
    fn tenant_spec_parsing() {
        let s = TenantSpec::parse("web:latency").unwrap();
        assert_eq!(
            (s.name.as_str(), s.class, s.rate_limit),
            ("web", QosClass::Latency, None)
        );
        let s = TenantSpec::parse("scan:bulk:8000000").unwrap();
        assert_eq!(s.rate_limit, Some(8_000_000));
        assert!(TenantSpec::parse("scan").is_err());
        assert!(TenantSpec::parse("scan:fast").is_err());
        // There is no repair class: background repair never passes
        // through the front door.
        let err = TenantSpec::parse("x:repair").unwrap_err();
        assert!(err.contains("latency|bulk"), "{err}");
        assert!(TenantSpec::parse("scan:bulk:zap").is_err());
        assert!(TenantSpec::parse("scan:bulk:1:2").is_err());
    }

    #[test]
    fn extent_record_slices() {
        let rec = ExtentRecord {
            extents: vec![
                ObjectMeta {
                    offset: 100,
                    len: 10,
                },
                ObjectMeta {
                    offset: 500,
                    len: 20,
                },
            ],
            version: 3,
        };
        assert_eq!(rec.len(), 30);
        // Range straddling both extents.
        assert_eq!(
            rec.slices(5, 10),
            vec![
                (
                    ObjectMeta {
                        offset: 100,
                        len: 10
                    },
                    5,
                    5
                ),
                (
                    ObjectMeta {
                        offset: 500,
                        len: 20
                    },
                    0,
                    5
                ),
            ]
        );
        assert_eq!(rec.slices(10, 0), vec![]);
    }
}
