//! The CLI operations: plan / bench / serve / stats.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ecfrm_store::{ObjectMeta, ObjectStore};
use ecfrm_util::Rng;

use crate::args::Options;
use crate::error::CliError;

/// A random element-aligned read of 1..=`max` elements inside the
/// ingested `extent`, as the extent it reads. An extent of fewer than
/// `max` elements caps the read at all of it.
fn random_read(rng: &mut Rng, max: u64, extent: ObjectMeta, element_size: u64) -> ObjectMeta {
    let elements = extent.len / element_size;
    let size = rng.random_range(1..=max.min(elements));
    let start = rng.random_range(0..=elements - size);
    ObjectMeta {
        offset: extent.offset + start * element_size,
        len: size * element_size,
    }
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
/// door (opcodes 13–15, 18): it builds a full `--code`/`--layout` store —
/// over `--remote` shard servers when given, else over local disks —
/// and answers object put/get/stat/delete with QoS admission
/// and the parity-aware read cache in the path. `--tenant
/// name:class[:rate]` registers tenants (one without a rate is never
/// throttled), `--cache-bytes` sizes the cache.
pub fn serve(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use ecfrm_net::ShardServer;

    let listen = Options::require(&opts.listen, "listen")?;
    let element_size = opts.element_size.unwrap_or(64 * 1024);
    let dir = opts.dir.as_deref().map(Path::new);
    let mut shard = open_disks(&[], dir, 1, element_size, |_| "shard.bin".into())?;
    let storage = match shard.file_io {
        Some(io) => format!("file-backed, {io} reads"),
        None => "in-memory".to_string(),
    };
    let backend = shard.backends.remove(0);
    let server = if opts.front {
        let front = build_front(opts, element_size)?;
        // A banner that cannot be written is no reason to stop serving.
        let _ = writeln!(
            out,
            "front door up: {} tenants, {} B cache",
            opts.tenant.len(),
            opts.cache_bytes.unwrap_or(32 << 20),
        );
        ShardServer::spawn_with_front(backend, front, listen)
    } else {
        ShardServer::spawn(backend, listen)
    }
    .map_err(|e| CliError::io(format!("bind {listen}"), e))?;
    let _ = writeln!(out, "serving shard on {} ({storage})", server.addr());
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
/// store's checksum footer); a shard ships each cell as stored, and the
/// store checks it where it is used. File-backed disks read through
/// the engine the kernel probe picks (`ECFRM_FORCE_FILE_IO` pins one).
fn open_disks(
    remote: &[String],
    dir: Option<&Path>,
    n: usize,
    element_size: usize,
    file: impl Fn(usize) -> String,
) -> Result<Disks, CliError> {
    use ecfrm_net::{RemoteDisk, RemoteDiskConfig};
    use ecfrm_sim::{DiskBackend, FileDisk, MemDisk};
    use std::sync::Arc;

    if !remote.is_empty() {
        if remote.len() != n {
            return Err(CliError::Usage(format!(
                "--remote needs exactly n = {n} addresses (one per disk), got {}",
                remote.len()
            )));
        }
        let cfg = RemoteDiskConfig::default();
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
            FileDisk::create(dir.join(file(d)), cell)
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
    let disks = open_disks(&opts.remote, dir, scheme.n_disks(), element_size, |d| {
        format!("front-d{d}.bin")
    })?;
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
pub fn bench(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
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
        &opts.remote,
        Some(&dir.0),
        scheme.n_disks(),
        element_size,
        |d| format!("bench-d{d}.bin"),
    )?;
    if let Some(io) = disks.file_io {
        writeln!(out, "local disks     {io} reads")?;
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
    // `--stripes` stripes of the `i % 251` byte pattern.
    let elements = opts.stripe_count()? * scheme.data_per_stripe();
    let payload: Vec<u8> = (0..elements * element_size)
        .map(|i| (i % 251) as u8)
        .collect();
    let t0 = Instant::now();
    let extent = store.append(&payload);
    store.flush();
    let took = t0.elapsed();
    writeln!(
        out,
        "{}: ingested {:.1} MB in {:.2}s ({:.1} MB/s encode+write)",
        scheme.name(),
        payload.len() as f64 / 1e6,
        took.as_secs_f64(),
        payload.len() as f64 / 1e6 / took.as_secs_f64()
    )?;

    // Replay random reads (sizes 1..=20 elements).
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut run = |label: &str, failed: Option<usize>| -> Result<(), CliError> {
        if let Some(d) = failed {
            store.fail_disk(d)?;
        }
        let mut bytes = 0usize;
        let t0 = Instant::now();
        for _ in 0..trials {
            let read = random_read(&mut rng, 20, extent, element_size as u64);
            bytes += store.read(read)?.0.len();
        }
        let dt = t0.elapsed();
        writeln!(
            out,
            "{label}: {trials} reads, {:.1} MB in {:.2}s ({:.1} MB/s)",
            bytes as f64 / 1e6,
            dt.as_secs_f64(),
            bytes as f64 / 1e6 / dt.as_secs_f64()
        )?;
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
        writeln!(
            out,
            "network: {} retries, {} timeouts, {} reconnects, {} failed",
            net("retries"),
            net("timeouts"),
            net("reconnects"),
            net("failed_requests")
        )?;
    }
    report_metrics(opts, out, &snap, &scheme.name())?;
    if opts.stats && !remotes.is_empty() {
        writeln!(out, "-- per-shard request latency (client side) --")?;
        for disk in &remotes {
            let lat = disk.request_latency();
            writeln!(out, "  {}: {}", disk.addr(), lat.summary("us"))?;
        }
    }
    Ok(())
}

/// `--stats` prints the registry snapshot, `--json <file>` writes it.
fn report_metrics(
    opts: &Options,
    out: &mut dyn Write,
    snap: &ecfrm_obs::Snapshot,
    scheme: &str,
) -> Result<(), CliError> {
    if opts.stats {
        writeln!(out, "\n-- store metrics ({scheme}) --")?;
        write!(out, "{}", snap.render())?;
    }
    match &opts.json {
        Some(path) => write_json(path, out, snap.to_json()),
        None => Ok(()),
    }
}

fn write_json(path: &str, out: &mut dyn Write, json: String) -> Result<(), CliError> {
    std::fs::write(path, json).map_err(|e| CliError::io(format!("writing {path}"), e))?;
    writeln!(out, "metrics JSON written to {path}")?;
    Ok(())
}

/// `ecfrm stats`: fetch and print the metrics registry of one or more
/// shard servers (`--remote host:port,...`) over the wire.
pub fn stats(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
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
        writeln!(out, "shard {a}:")?;
        if pairs.is_empty() {
            writeln!(out, "  (no activity)")?;
        }
        let width = pairs.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &pairs {
            writeln!(out, "  {name:<width$} {value}")?;
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
        Some(path) => write_json(path, out, ecfrm_obs::json::object(&json_shards)),
        None => Ok(()),
    }
}

/// `ecfrm plan`: print the per-disk load distribution of a read — the
/// paper's Figure 3 / Figure 7 views.
pub fn plan(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let start = *Options::require(&opts.start, "start")?;
    let count = *Options::require(&opts.count, "count")?;
    let scheme = opts.scheme()?;
    let plan = if opts.failed.is_empty() {
        scheme.normal_read_plan(start, count)
    } else {
        scheme.degraded_read_plan(start, count, &opts.failed)
    };
    writeln!(
        out,
        "{}: read {count} elements from {start}{}",
        scheme.name(),
        if opts.failed.is_empty() {
            String::new()
        } else {
            format!(" with failed disks {:?}", opts.failed)
        }
    )?;
    let loads = plan.per_disk_load();
    for (d, &l) in loads.iter().enumerate() {
        let marker = if opts.failed.contains(&d) {
            " (failed)"
        } else {
            ""
        };
        let bar = "#".repeat(l.min(20));
        writeln!(out, "  disk {d:>2}: {bar:<20} {l}{marker}")?;
    }
    writeln!(
        out,
        "  max load {} | total fetched {} | repair fetched {} | cost {:.3}",
        plan.max_load(),
        plan.total_fetched(),
        plan.repair_fetched(),
        plan.cost()
    )?;
    if !plan.unreadable.is_empty() {
        writeln!(out, "  UNREADABLE elements: {:?}", plan.unreadable)?;
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
        bench(&opts, &mut std::io::sink()).unwrap();
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
        bench(&opts, &mut std::io::sink()).unwrap();
    }

    /// A read of up to `max` elements lands element-aligned inside an
    /// extent that need not start at 0, and an extent of fewer than
    /// `max` elements caps it.
    #[test]
    fn random_reads_stay_inside_their_extent() {
        let mut rng = Rng::seed_from_u64(5);
        for elements in [1u64, 6, 40] {
            let extent = ObjectMeta {
                offset: 3 * 512,
                len: elements * 512,
            };
            for _ in 0..200 {
                let read = random_read(&mut rng, 8, extent, 512);
                assert_eq!(read.offset % 512, 0);
                assert!(read.len >= 512 && read.len <= 8.min(elements) * 512);
                assert!(read.offset >= extent.offset);
                assert!(read.offset + read.len <= extent.offset + extent.len);
            }
        }
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
        bench(&opts, &mut std::io::sink()).unwrap();
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
        bench(&opts, &mut std::io::sink()).unwrap();
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
        stats(&opts, &mut std::io::sink()).unwrap();
        // No --remote is a usage error.
        assert!(stats(&Options::default(), &mut std::io::sink()).is_err());
    }

    #[test]
    fn bench_rejects_wrong_remote_count() {
        let opts = Options {
            code: Some("rs:4,2".into()),
            layout: Some("ecfrm".into()),
            remote: vec!["127.0.0.1:1".into()],
            ..Default::default()
        };
        let err = bench(&opts, &mut std::io::sink()).unwrap_err();
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
        plan(&p, &mut std::io::sink()).unwrap();
        let mut pd = p;
        pd.failed = vec![2];
        plan(&pd, &mut std::io::sink()).unwrap();
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
    fn front_door_over_remote_shards_catches_a_rotted_cell_at_the_store() {
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

        // Rot one stored cell: the shard ships it as stored, the store
        // finds its footer wrong, and the read decodes around it.
        let mut cell = disks[0].read(0).unwrap();
        cell[3] ^= 0x40;
        disks[0].write(0, cell);
        let verify_fails = || front.store().recorder().snapshot().counters["integrity.verify_fail"];
        let before = verify_fails();
        assert_eq!(front.read("t", "o").unwrap(), data);
        assert_eq!(verify_fails(), before + 1, "checked once, at the store");
    }
}
