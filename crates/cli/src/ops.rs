//! The CLI operations: plan / bench / drill / scrub / serve / stats.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ecfrm_store::ObjectStore;
use ecfrm_util::Rng;

use crate::args::Options;
use crate::error::CliError;

/// Put `--stripes` stripes of the `i % 251` byte pattern into `store`
/// as `object` and flush them to the disks. Returns the payload and how
/// long `put` + `flush` took.
fn ingest(
    opts: &Options,
    store: &ObjectStore,
    object: &str,
) -> Result<(Vec<u8>, Duration), CliError> {
    let elements = opts.stripe_count()? * store.scheme().data_per_stripe();
    let payload: Vec<u8> = (0..elements * store.element_size())
        .map(|i| (i % 251) as u8)
        .collect();
    let t0 = Instant::now();
    store.put(object, &payload)?;
    store.flush();
    Ok((payload, t0.elapsed()))
}

/// A random element-aligned read of 1..=`max` elements inside the `len`
/// ingested bytes, as `(start, len)` in bytes. A store of fewer than
/// `max` elements caps the read at all of it.
fn random_read(rng: &mut Rng, max: u64, len: u64, element_size: u64) -> (u64, u64) {
    let elements = len / element_size;
    let size = rng.random_range(1..=max.min(elements));
    let start = rng.random_range(0..=elements - size);
    (start * element_size, size * element_size)
}

/// A directory removed with everything in it when dropped, so a command
/// cleans up after itself on every return, error or not.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `ecfrm serve`: expose a shard (one disk's elements) over TCP so
/// remote `ecfrm bench --remote` / `RemoteDisk` clients can read it.
/// Backed by a `FileDisk` under `--dir` when given (persistent), else an
/// in-memory disk. Runs until killed.
///
/// With `--front` the node also hosts the multi-tenant object front
/// door (opcodes 11–15): it builds a full `--code`/`--layout` store —
/// over `--remote` shard servers when given, else over local disks —
/// and answers object create/write/read/stat/delete with QoS admission
/// and the parity-aware read cache in the path. `--tenant
/// name:class[:rate]` registers tenants (one without a rate is never
/// throttled), `--cache-bytes` sizes the cache.
pub fn serve(opts: &Options) -> Result<(), CliError> {
    use ecfrm_net::ShardServer;

    let listen = Options::require(&opts.listen, "listen")?;
    let element_size = opts.element_size.unwrap_or(64 * 1024);
    let dir = opts.dir.as_deref().map(Path::new);
    let mut shard = open_disks(opts, &[], dir, 1, element_size, |_| "shard.bin".into())?;
    let storage = match shard.file_io {
        Some(io) => format!("file-backed, {io} reads"),
        None => "in-memory".to_string(),
    };
    let backend = shard.backends.remove(0);
    let server = if opts.front {
        let front = build_front(opts, element_size)?;
        println!(
            "front door up: {} tenants, {} B cache",
            opts.tenant.len(),
            opts.cache_bytes.unwrap_or(32 << 20),
        );
        ShardServer::spawn_with_front(backend, front, listen)
    } else {
        ShardServer::spawn(backend, listen)
    }
    .map_err(|e| CliError::io(format!("bind {listen}"), e))?;
    println!("serving shard on {} ({storage})", server.addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Disks opened by [`open_disks`].
#[derive(Default)]
struct Disks {
    backends: Vec<std::sync::Arc<dyn ecfrm_sim::DiskBackend>>,
    /// The same disks as shard clients, when `--remote` named them.
    remotes: Vec<std::sync::Arc<ecfrm_net::RemoteDisk>>,
    /// The read engine of file-backed disks (`FileDisk::io_backend`).
    file_io: Option<&'static str>,
}

/// Open `n` disks: one shard client per `remote` address when there are
/// any, else `FileDisk`s named `file(d)` under `dir`, else in-memory
/// disks. Shard files hold whole cells (element payload plus the
/// store's checksum footer), and every shard client ships the store's
/// integrity key, so whatever it reads is verified at the shard.
fn open_disks(
    opts: &Options,
    remote: &[String],
    dir: Option<&Path>,
    n: usize,
    element_size: usize,
    file: impl Fn(usize) -> String,
) -> Result<Disks, CliError> {
    use ecfrm_net::{RemoteDisk, RemoteDiskConfig};
    use ecfrm_sim::{DiskBackend, FileDisk, MemDisk};
    use std::sync::Arc;

    let file_io = opts.file_io_config().map_err(CliError::Usage)?;
    if !remote.is_empty() {
        if remote.len() != n {
            return Err(CliError::Usage(format!(
                "--remote needs exactly n = {n} addresses (one per disk), got {}",
                remote.len()
            )));
        }
        let key = ecfrm_integrity::HashKey::DEFAULT;
        let cfg = RemoteDiskConfig::builder()
            .integrity_key(key.k0, key.k1)
            .build();
        let remotes = remote
            .iter()
            .map(|a| match a.parse() {
                Ok(addr) => Ok(Arc::new(RemoteDisk::new(addr, cfg.clone()))),
                Err(e) => Err(CliError::Usage(format!("bad --remote address `{a}`: {e}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Disks {
            backends: remotes.iter().map(|d| Arc::clone(d) as _).collect(),
            remotes,
            ..Disks::default()
        });
    }
    let Some(dir) = dir else {
        return Ok(Disks {
            backends: (0..n).map(|_| Arc::new(MemDisk::new()) as _).collect(),
            ..Disks::default()
        });
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::io(format!("creating {}", dir.display()), e))?;
    let files = (0..n)
        .map(|d| {
            let cell = element_size + ecfrm_integrity::FOOTER_LEN;
            FileDisk::create_with(dir.join(file(d)), cell, file_io)
                .map_err(|e| CliError::io(format!("creating disk file {d}"), e))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Disks {
        file_io: files.first().map(FileDisk::io_backend),
        backends: files
            .into_iter()
            .map(|d| Arc::new(d) as Arc<dyn DiskBackend>)
            .collect(),
        ..Disks::default()
    })
}

/// Build the `serve --front` object front door: a full store over
/// `--remote` shard servers (one address per disk) or local disks
/// (file-backed under `--dir`, else in-memory), with `--tenant` /
/// `--cache-bytes` applied.
fn build_front(
    opts: &Options,
    element_size: usize,
) -> Result<std::sync::Arc<ecfrm_store::FrontDoor>, CliError> {
    use ecfrm_sim::ThreadedArray;
    use ecfrm_store::{FrontConfig, FrontDoor, TenantSpec};
    use std::sync::Arc;

    let scheme = opts.scheme()?;
    let dir = opts.dir.as_deref().map(Path::new);
    let disks = open_disks(
        opts,
        &opts.remote,
        dir,
        scheme.n_disks(),
        element_size,
        |d| format!("front-d{d}.bin"),
    )?;
    let store = Arc::new(ObjectStore::with_array(
        scheme,
        element_size,
        ThreadedArray::from_backends(disks.backends),
    ));
    let front = FrontDoor::new(
        store,
        FrontConfig::builder()
            .cache_bytes(opts.cache_bytes.unwrap_or(32 << 20))
            .build(),
    );
    for spec in &opts.tenant {
        front.register_tenant(TenantSpec::parse(spec).map_err(CliError::Usage)?);
    }
    Ok(front)
}

/// `ecfrm bench`: a quick real-I/O microbenchmark — build a store over
/// file-backed disks in a temp directory (or over `--remote` shard
/// servers), ingest data, and replay the paper's random-read workload,
/// reporting actual wall-clock speeds for normal and degraded reads.
pub fn bench(opts: &Options) -> Result<(), CliError> {
    use ecfrm_sim::ThreadedArray;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let element_size = opts.element_size.unwrap_or(64 * 1024);
    let scheme = opts.scheme()?;
    let trials = opts.count.unwrap_or(200);

    // One directory per call: tests run benches side by side in one
    // process. Declared before the disks, so it outlives their files.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = RemoveOnDrop(
        std::env::temp_dir().join(format!("ecfrm-bench-{}-{call}", std::process::id())),
    );
    let disks = open_disks(
        opts,
        &opts.remote,
        Some(&dir.0),
        scheme.n_disks(),
        element_size,
        |d| format!("bench-d{d}.bin"),
    )?;
    if let Some(io) = disks.file_io {
        println!("local disks     {io} reads");
    }
    let remotes = disks.remotes;
    // Health-check up front so a dead shard fails the bench with a
    // clear message instead of silently running degraded.
    for disk in &remotes {
        disk.health()
            .map_err(|e| CliError::Usage(format!("shard {} unhealthy: {e}", disk.addr())))?;
    }
    let store = ObjectStore::with_array(
        scheme.clone(),
        element_size,
        ThreadedArray::from_backends(disks.backends),
    );
    let (payload, took) = ingest(opts, &store, "bench")?;
    println!(
        "{}: ingested {:.1} MB in {:.2}s ({:.1} MB/s encode+write)",
        scheme.name(),
        payload.len() as f64 / 1e6,
        took.as_secs_f64(),
        payload.len() as f64 / 1e6 / took.as_secs_f64()
    );

    // Replay random reads (sizes 1..=20 elements).
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut run = |label: &str, failed: Option<usize>| -> Result<(), CliError> {
        if let Some(d) = failed {
            store.fail_disk(d)?;
        }
        let mut bytes = 0usize;
        let t0 = Instant::now();
        for _ in 0..trials {
            let (start, len) = random_read(&mut rng, 20, payload.len() as u64, element_size as u64);
            bytes += store.get_range("bench", start, len)?.len();
        }
        let dt = t0.elapsed();
        println!(
            "{label}: {trials} reads, {:.1} MB in {:.2}s ({:.1} MB/s)",
            bytes as f64 / 1e6,
            dt.as_secs_f64(),
            bytes as f64 / 1e6 / dt.as_secs_f64()
        );
        if let Some(d) = failed {
            store.heal_disk(d)?;
        }
        Ok(())
    };
    run("normal reads  ", None)?;
    run("degraded reads", Some(0))?;
    // The registry reads the shard clients' transport totals as of
    // this snapshot; a local array reports none.
    let snap = store.recorder().snapshot();
    if !remotes.is_empty() {
        let net = |what: &str| snap.counters[&format!("net.{what}")];
        println!(
            "network: {} retries, {} timeouts, {} reconnects, {} failed",
            net("retries"),
            net("timeouts"),
            net("reconnects"),
            net("failed_requests")
        );
    }
    report_metrics(opts, &snap, &scheme.name())?;
    if opts.stats && !remotes.is_empty() {
        println!("-- per-shard request latency (client side) --");
        for disk in &remotes {
            let lat = disk.request_latency();
            println!("  {}: {}", disk.addr(), lat.summary("us"));
        }
    }
    Ok(())
}

/// `--stats` prints the registry snapshot, `--json <file>` writes it.
fn report_metrics(
    opts: &Options,
    snap: &ecfrm_obs::Snapshot,
    scheme: &str,
) -> Result<(), CliError> {
    if opts.stats {
        println!("\n-- store metrics ({scheme}) --");
        print!("{}", snap.render());
    }
    match &opts.json {
        Some(path) => write_json(path, snap.to_json()),
        None => Ok(()),
    }
}

fn write_json(path: &str, json: String) -> Result<(), CliError> {
    std::fs::write(path, json).map_err(|e| CliError::io(format!("writing {path}"), e))?;
    println!("metrics JSON written to {path}");
    Ok(())
}

/// `ecfrm drill`: a kill-and-repair fire drill on an in-memory store.
///
/// Ingests `--stripes` worth of data, wipes one disk for real
/// (`--disk`, default 0), and lets a background
/// [`RepairManager`](ecfrm_store::RepairManager) restore full
/// redundancy — `--workers` parallel reconstruction workers under an
/// optional `--rate` bytes/second token-bucket limit — while a
/// foreground reader keeps hammering the store. Reports foreground
/// latency during repair (the paper's degraded-read service quality)
/// against repair throughput and time-to-full-redundancy.
pub fn drill(opts: &Options) -> Result<(), CliError> {
    use ecfrm_sim::{DiskBackend, FaultKind, FaultyDisk, MemDisk, ThreadedArray};
    use ecfrm_store::{RepairConfig, RepairManager};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let element_size = opts.element_size.unwrap_or(16 * 1024);
    let scheme = opts.scheme()?;
    let victim = opts.disk.unwrap_or(0);
    if victim >= scheme.n_disks() {
        return Err(CliError::Usage(format!(
            "--disk {victim} out of range (scheme has {} disks)",
            scheme.n_disks()
        )));
    }

    // Every disk gets a fault-injection wrapper so `--corrupt` can arm
    // silent bit-rot on the victim mid-workload; disarmed wrappers are
    // pure pass-through.
    let faulty: Vec<Arc<FaultyDisk>> = (0..scheme.n_disks())
        .map(|_| FaultyDisk::wrap(Arc::new(MemDisk::new())))
        .collect();
    let store = Arc::new(ObjectStore::with_array(
        scheme.clone(),
        element_size,
        ThreadedArray::from_backends(
            faulty
                .iter()
                .map(|f| Arc::clone(f) as Arc<dyn DiskBackend>)
                .collect(),
        ),
    ));
    let (payload, _) = ingest(opts, &store, "drill")?;
    println!(
        "{}: ingested {:.1} MB over {} disks ({} stripes)",
        scheme.name(),
        payload.len() as f64 / 1e6,
        scheme.n_disks(),
        store.stats().stripes,
    );

    if opts.corrupt {
        // Silent bit-rot: the victim keeps answering but every served
        // element comes back with one bit flipped. Nothing at the
        // transport notices; verify-on-read must catch each lie before
        // it reaches a caller and escalate the disk to repair.
        faulty[victim].arm(FaultKind::FlipCorrupt, 0);
        println!("disk {victim} now silently corrupting every read; starting verify-on-read drill");
    } else {
        // Lose the victim for real: contents gone, reads plan around it.
        store.fail_disk(victim)?;
        store.array().disk(victim).wipe();
        println!("disk {victim} wiped; starting background repair");
    }

    let t0 = Instant::now();
    let mgr = RepairManager::spawn(
        Arc::clone(&store),
        RepairConfig {
            workers: opts.workers.unwrap_or(2),
            rate_limit: opts.rate,
            replacer: None,
        },
    );

    // Foreground load while repair runs: random small reads, latency
    // sampled per read and every answer compared byte-for-byte against
    // the known payload — a single leaked lie fails the drill.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let expected = payload.clone();
        let mut rng = Rng::seed_from_u64(opts.seed);
        let len = payload.len() as u64;
        let es = element_size as u64;
        std::thread::spawn(
            move || -> Result<(ecfrm_obs::Histogram, u64), ecfrm_store::StoreError> {
                let lat_us = ecfrm_obs::Histogram::new();
                let mut wrong = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let (start, size) = random_read(&mut rng, 8, len, es);
                    let t = Instant::now();
                    let bytes = store.get_range("drill", start, size)?;
                    lat_us.record_duration(t.elapsed());
                    if bytes != expected[start as usize..(start + size) as usize] {
                        wrong += 1;
                    }
                }
                Ok((lat_us, wrong))
            },
        )
    };

    if opts.corrupt {
        // Wait for the escalation chain: verify-on-read flags the lying
        // disk suspect, the detector's footer-verifying probe confirms,
        // and the disk is promoted to failed.
        let deadline = Instant::now() + Duration::from_secs(120);
        while !store.stats().failed_disks.contains(&victim) {
            if Instant::now() > deadline {
                return Err(CliError::Usage(
                    "verify-on-read never escalated the corrupting disk to failed".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        println!(
            "verify-on-read caught the corruption; disk {victim} failed after {:.0} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
        // The fuse corrupts the read path, not the media. Model the
        // operator swapping the bad disk: clear the fault so the
        // repair pipeline's rewrites verify and the disk re-enters
        // service with fresh checksums.
        faulty[victim].clear();
    }

    let finished = mgr.wait_idle(Duration::from_secs(600));
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Release);
    let (lat, wrong_reads) = reader
        .join()
        .map_err(|_| CliError::Usage("foreground reader panicked".into()))??;
    if wrong_reads > 0 {
        return Err(CliError::Usage(format!(
            "{wrong_reads} foreground reads returned corrupted bytes"
        )));
    }
    if !finished {
        return Err(CliError::Usage(format!(
            "repair did not converge: {:?}",
            mgr.progress()
        )));
    }

    let progress = mgr.progress();
    let snap = store.recorder().snapshot();
    let repaired_bytes = snap.counters.get("repair.bytes").copied().unwrap_or(0);
    println!(
        "repair: {} stripes ({:.1} MB rebuilt) in {:.2}s ({:.1} MB/s){}",
        progress.stripes_done,
        repaired_bytes as f64 / 1e6,
        elapsed.as_secs_f64(),
        repaired_bytes as f64 / 1e6 / elapsed.as_secs_f64(),
        match opts.rate {
            Some(r) => format!(", rate limit {:.1} MB/s", r as f64 / 1e6),
            None => String::new(),
        },
    );
    if let Some(ms) = snap.gauges.get("repair.time_to_redundancy_ms") {
        println!("time to full redundancy: {:.2}s", *ms as f64 / 1e3);
    }
    println!("foreground during repair: {}", lat.snapshot().summary("us"));

    // Prove the drill ended healthy: full redundancy, correct bytes.
    if !store.stats().failed_disks.is_empty() {
        return Err(CliError::Usage("disk still failed after repair".into()));
    }
    let (bytes, stats) = store.get_with_stats("drill")?;
    if bytes != payload || stats.degraded || stats.repair_elements != 0 {
        return Err(CliError::Usage(
            "post-repair read was degraded or corrupt".into(),
        ));
    }
    println!("post-repair read: normal plan, zero decodes, bytes verified");

    if opts.corrupt {
        // The drill only counts if verification actually fired, and the
        // re-sealed stripes must pass a full merkle scrub.
        let caught = snap
            .counters
            .get("integrity.verify_fail")
            .copied()
            .unwrap_or(0);
        if caught == 0 {
            return Err(CliError::Usage(
                "drill ran but integrity.verify_fail never incremented".into(),
            ));
        }
        let report = store.scrub()?;
        if !report.is_clean() {
            return Err(CliError::Usage(format!(
                "final merkle scrub found damage: {report:?}"
            )));
        }
        println!(
            "final merkle scrub clean ({} stripes); {caught} lies caught in-flight",
            report.stripes_checked
        );
    }

    report_metrics(opts, &snap, &scheme.name())
}

/// `ecfrm scrub`: integrity-scrub exercise and microbenchmark. Builds
/// an in-memory store, ingests `--stripes` worth of data, and times the
/// merkle scrub (checksum + manifest verification, no decoding) against
/// the decode scrub (recompute every parity). With `--corrupt`, first
/// plants one flipped byte on a disk behind the store's back and proves
/// the merkle scrub localizes it to the exact element, then heals
/// through the repair pipeline and finishes with a clean re-scrub.
pub fn scrub(opts: &Options) -> Result<(), CliError> {
    use ecfrm_sim::ThreadedArray;
    use ecfrm_store::{RepairConfig, RepairManager};
    use std::sync::Arc;

    let element_size = opts.element_size.unwrap_or(16 * 1024);
    let scheme = opts.scheme()?;
    let store = Arc::new(ObjectStore::with_array(
        scheme.clone(),
        element_size,
        ThreadedArray::new(scheme.n_disks()),
    ));
    let (payload, _) = ingest(opts, &store, "scrub")?;
    let sealed = store.stats().stripes;
    let cells_per_stripe = store
        .manifest(0)
        .map_or(scheme.data_per_stripe(), |m| m.n_elements());
    let scrubbed_bytes = (sealed as usize * cells_per_stripe * element_size) as f64;
    println!(
        "{}: ingested {:.1} MB over {} disks ({sealed} stripes)",
        scheme.name(),
        payload.len() as f64 / 1e6,
        scheme.n_disks(),
    );

    if opts.corrupt {
        // One flipped byte on disk 0, behind the store's back: media
        // bit-rot that no read has touched yet.
        let victim_disk = 0usize;
        let disk = store.array().disk(victim_disk);
        let mut cell = disk
            .read(0)
            .ok_or_else(|| CliError::Usage("disk 0 offset 0 holds no element".into()))?;
        cell[element_size / 2] ^= 0x10;
        disk.write(0, cell);

        let report = store.scrub()?;
        if report.corrupt_elements.len() != 1 {
            return Err(CliError::Usage(format!(
                "merkle scrub should localize exactly 1 corrupt element, found {:?}",
                report.corrupt_elements
            )));
        }
        let (stripe, element) = report.corrupt_elements[0];
        println!(
            "planted bit-rot on disk {victim_disk}; merkle scrub localized it to \
             stripe {stripe}, element {element} ({} groups flagged)",
            report.corrupt_groups.len()
        );

        // Heal through the normal pipeline: fail the disk, let repair
        // rebuild it from survivors with fresh checksums.
        store.fail_disk(victim_disk)?;
        let mgr = RepairManager::spawn(
            Arc::clone(&store),
            RepairConfig {
                workers: opts.workers.unwrap_or(2),
                rate_limit: None,
                replacer: None,
            },
        );
        if !mgr.wait_idle(Duration::from_secs(600)) {
            return Err(CliError::Usage("repair did not converge".into()));
        }
        mgr.shutdown();
        let report = store.scrub()?;
        if !report.is_clean() {
            return Err(CliError::Usage(format!(
                "re-scrub after repair still dirty: {report:?}"
            )));
        }
        println!("healed through repair; re-scrub clean");
    }

    // Timed comparison: merkle scrub (footer + manifest verification,
    // O(elements) hashing, no decode) vs decode scrub (recompute every
    // parity through the code).
    let t = Instant::now();
    let merkle_report = store.scrub()?;
    let merkle_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decode_report = store.scrub_decode()?;
    let decode_s = t.elapsed().as_secs_f64();
    if !merkle_report.is_clean() || !decode_report.is_clean() {
        return Err(CliError::Usage("scrub found unexpected damage".into()));
    }
    println!(
        "merkle scrub: {sealed} stripes in {:.1} ms ({:.0} MB/s)",
        merkle_s * 1e3,
        scrubbed_bytes / 1e6 / merkle_s
    );
    println!(
        "decode scrub: {sealed} stripes in {:.1} ms ({:.0} MB/s)  [decode/merkle time ratio {:.2}]",
        decode_s * 1e3,
        scrubbed_bytes / 1e6 / decode_s,
        decode_s / merkle_s.max(1e-9)
    );

    let snap = store.recorder().snapshot();
    report_metrics(opts, &snap, &scheme.name())
}

/// `ecfrm stats`: fetch and print the metrics registry of one or more
/// shard servers (`--remote host:port,...`) over the wire.
pub fn stats(opts: &Options) -> Result<(), CliError> {
    use ecfrm_net::{RemoteDisk, RemoteDiskConfig};

    if opts.remote.is_empty() {
        return Err(CliError::Usage(
            "stats needs --remote host:port[,host:port,...]".into(),
        ));
    }
    let mut json_shards: Vec<(String, String)> = Vec::new();
    for a in &opts.remote {
        let addr = a
            .parse()
            .map_err(|e| CliError::Usage(format!("bad --remote address `{a}`: {e}")))?;
        let disk = RemoteDisk::new(addr, RemoteDiskConfig::builder().build());
        let pairs = disk.stats()?;
        println!("shard {a}:");
        if pairs.is_empty() {
            println!("  (no activity)");
        }
        let width = pairs.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &pairs {
            println!("  {name:<width$} {value}");
        }
        if opts.json.is_some() {
            let fields: Vec<(String, String)> = pairs
                .iter()
                .map(|(n, v)| (n.clone(), v.to_string()))
                .collect();
            json_shards.push((a.clone(), ecfrm_obs::json::object(&fields)));
        }
    }
    match &opts.json {
        Some(path) => write_json(path, ecfrm_obs::json::object(&json_shards)),
        None => Ok(()),
    }
}

/// `ecfrm plan`: print the per-disk load distribution of a read — the
/// paper's Figure 3 / Figure 7 views.
pub fn plan(opts: &Options) -> Result<(), CliError> {
    let start = *Options::require(&opts.start, "start")?;
    let count = *Options::require(&opts.count, "count")?;
    let scheme = opts.scheme()?;
    let plan = if opts.failed.is_empty() {
        scheme.normal_read_plan(start, count)
    } else {
        scheme.degraded_read_plan(start, count, &opts.failed)
    };
    println!(
        "{}: read {count} elements from {start}{}",
        scheme.name(),
        if opts.failed.is_empty() {
            String::new()
        } else {
            format!(" with failed disks {:?}", opts.failed)
        }
    );
    let loads = plan.per_disk_load();
    for (d, &l) in loads.iter().enumerate() {
        let marker = if opts.failed.contains(&d) {
            " (failed)"
        } else {
            ""
        };
        println!("  disk {d:>2}: {:<20} {l}{marker}", "#".repeat(l.min(20)));
    }
    println!(
        "  max load {} | total fetched {} | repair fetched {} | cost {:.3}",
        plan.max_load(),
        plan.total_fetched(),
        plan.repair_fetched(),
        plan.cost()
    );
    if !plan.unreadable.is_empty() {
        println!("  UNREADABLE elements: {:?}", plan.unreadable);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ecfrm-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bench_subcommand_runs_end_to_end() {
        let opts = Options {
            code: Some("rs:4,2".into()),
            layout: Some("ecfrm".into()),
            element_size: Some(1024),
            count: Some(20),
            seed: 5,
            ..Default::default()
        };
        bench(&opts).unwrap();
    }

    /// RS(4,2) under EC-FRM holds 12 data elements a stripe: fewer than
    /// the 20 a bench read may ask for.
    #[test]
    fn bench_reads_no_more_than_one_stripe_holds() {
        let opts = Options {
            code: Some("rs:4,2".into()),
            element_size: Some(512),
            count: Some(50),
            stripes: Some("1".into()),
            seed: 5,
            ..Default::default()
        };
        bench(&opts).unwrap();
    }

    /// RS(2,1) under EC-FRM holds 6 data elements a stripe: fewer than
    /// the 8 a drill read may ask for.
    #[test]
    fn drill_reads_no_more_than_one_stripe_holds() {
        let opts = Options {
            code: Some("rs:2,1".into()),
            element_size: Some(512),
            stripes: Some("1".into()),
            seed: 5,
            ..Default::default()
        };
        drill(&opts).unwrap();
    }

    #[test]
    fn bench_subcommand_runs_over_loopback_remotes() {
        use ecfrm_net::ShardServer;
        use ecfrm_sim::MemDisk;
        use std::sync::Arc;
        // rs:4,2 → n = 6 shards, one loopback server each.
        let servers: Vec<ShardServer> = (0..6)
            .map(|_| ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap())
            .collect();
        let opts = Options {
            code: Some("rs:4,2".into()),
            layout: Some("ecfrm".into()),
            element_size: Some(512),
            count: Some(10),
            seed: 5,
            remote: servers.iter().map(|s| s.addr().to_string()).collect(),
            ..Default::default()
        };
        bench(&opts).unwrap();
    }

    #[test]
    fn bench_with_stats_and_json_dump() {
        let dir = tmpdir("bench-stats");
        let json = dir.join("metrics.json");
        let opts = Options {
            code: Some("rs:4,2".into()),
            layout: Some("ecfrm".into()),
            element_size: Some(512),
            count: Some(10),
            seed: 5,
            stats: true,
            stripes: Some("small".into()),
            json: Some(json.to_string_lossy().into_owned()),
            ..Default::default()
        };
        bench(&opts).unwrap();
        let dumped = std::fs::read_to_string(&json).unwrap();
        assert!(dumped.contains("\"disk_load\""), "{dumped}");
        assert!(dumped.contains("\"read_us\""), "{dumped}");
        assert!(dumped.contains("\"imbalance\""), "{dumped}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_subcommand_queries_remote_shards() {
        use ecfrm_net::ShardServer;
        use ecfrm_sim::MemDisk;
        use std::sync::Arc;
        let server = ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap();
        let opts = Options {
            remote: vec![server.addr().to_string()],
            ..Default::default()
        };
        stats(&opts).unwrap();
        // No --remote is a usage error.
        assert!(stats(&Options::default()).is_err());
    }

    #[test]
    fn bench_rejects_wrong_remote_count() {
        let opts = Options {
            code: Some("rs:4,2".into()),
            layout: Some("ecfrm".into()),
            remote: vec!["127.0.0.1:1".into()],
            ..Default::default()
        };
        let err = bench(&opts).unwrap_err();
        assert!(err.to_string().contains("exactly n = 6"), "{err}");
    }

    #[test]
    fn plan_runs_for_normal_and_degraded() {
        let p = Options {
            code: Some("lrc:6,2,2".into()),
            layout: Some("ecfrm".into()),
            start: Some(0),
            count: Some(8),
            ..Default::default()
        };
        plan(&p).unwrap();
        let mut pd = p;
        pd.failed = vec![2];
        plan(&pd).unwrap();
    }

    #[test]
    fn a_repair_class_tenant_is_a_usage_error() {
        let opts = Options {
            code: Some("rs:4,2".into()),
            layout: Some("ecfrm".into()),
            tenant: vec!["web:latency".into(), "x:repair".into()],
            ..Default::default()
        };
        match build_front(&opts, 512) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("latency|bulk"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn front_door_over_remote_shards_verifies_reads_at_the_shard() {
        use ecfrm_net::ShardServer;
        use ecfrm_sim::{DiskBackend, MemDisk};
        use std::sync::Arc;
        // rs:4,2 → n = 6 shards, one loopback server each.
        let disks: Vec<Arc<MemDisk>> = (0..6).map(|_| Arc::new(MemDisk::new())).collect();
        let servers: Vec<ShardServer> = disks
            .iter()
            .map(|d| ShardServer::spawn(Arc::clone(d) as _, "127.0.0.1:0").unwrap())
            .collect();
        let opts = Options {
            code: Some("rs:4,2".into()),
            layout: Some("ecfrm".into()),
            remote: servers.iter().map(|s| s.addr().to_string()).collect(),
            cache_bytes: Some(0),
            seed: 7,
            ..Default::default()
        };
        let front = build_front(&opts, 512).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        front.put("t", "o", &data).unwrap();
        front.store().flush();

        // Rot one stored cell: the client ships the integrity key, so
        // the shard itself names it corrupt and the read decodes around it.
        let mut cell = disks[0].read(0).unwrap();
        cell[3] ^= 0x40;
        disks[0].write(0, cell);
        assert_eq!(front.read("t", "o").unwrap(), data);
        let caught = servers[0].recorder().snapshot().counters["serve.read_corrupt"];
        assert!(caught >= 1, "the shard verified what it served");
    }
}
