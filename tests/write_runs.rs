//! Differential suite for the vectored write: one
//! `submit_write_many` must leave a backend exactly as the same cells
//! written one `write` at a time do.
//!
//! The same script of calls — runs with holes between them, unsorted
//! and non-consecutive starts, overlapping runs (the later cell wins),
//! an empty call, a one-cell call — is applied both ways to two disks
//! of every kind: `MemDisk`, `FileDisk` (blocking, uring buffered, uring
//! `O_DIRECT`), `FaultyDisk`, and `RemoteDisk` over a loopback shard.
//! After every call the two disks must read
//! back identically over the whole probe span, through fail / heal /
//! wipe, and every kind must agree with the `MemDisk` pair.

use std::sync::Arc;

use ecfrm::net::{RemoteDisk, RemoteDiskConfig, ShardServer};
use ecfrm::sim::{
    DiskBackend, FaultKind, FaultyDisk, FileDisk, FileIoConfig, FileIoMode, MemDisk, WriteRun,
};

const ES: usize = 513;
const SPAN: u64 = 64;

fn element(offset: u64, salt: u64) -> Vec<u8> {
    let seed = offset.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    (0..ES)
        .map(|i| (seed.wrapping_add(i as u64).wrapping_mul(131) % 251) as u8)
        .collect()
}

/// One call's runs as `(start, cells, salt)`.
type Call = &'static [(u64, u64, u64)];

/// Every shape a caller can produce, in one script.
const SCRIPT: &[Call] = &[
    // Three runs, unsorted, with holes between them.
    &[(40, 3, 1), (2, 5, 2), (20, 1, 3)],
    // Nothing at all.
    &[],
    // One cell.
    &[(9, 1, 4)],
    // Overlaps inside one call: offsets 3..5 are written twice and the
    // later run wins; so does the second of two runs at the same start.
    &[(1, 4, 5), (3, 4, 6), (30, 2, 7), (30, 2, 8)],
    // Overwrite earlier calls, and touch the far end of the span.
    &[(SPAN - 2, 2, 9), (0, 12, 10)],
];

/// The buffer of a run: its cells back to back.
fn run_bytes(start: u64, cells: u64, salt: u64) -> Vec<u8> {
    (start..start + cells)
        .flat_map(|o| element(o, salt))
        .collect()
}

fn apply_vectored(disk: &dyn DiskBackend, call: Call) {
    let bufs: Vec<Vec<u8>> = call.iter().map(|&(s, n, x)| run_bytes(s, n, x)).collect();
    let runs: Vec<WriteRun<'_>> = call
        .iter()
        .zip(&bufs)
        .map(|(&(start, _, _), bytes)| WriteRun {
            start,
            cell_len: ES,
            bytes,
        })
        .collect();
    assert!(disk.submit_write_many(&runs).wait().is_empty());
}

fn apply_per_cell(disk: &dyn DiskBackend, call: Call) {
    for &(start, cells, salt) in call {
        for o in start..start + cells {
            disk.write(o, element(o, salt));
        }
    }
}

fn contents(disk: &dyn DiskBackend) -> Vec<Option<Vec<u8>>> {
    let probe: Vec<u64> = (0..SPAN + 8).collect();
    disk.read_many(&probe)
}

/// Run the script against a vectored and a per-cell disk of one kind;
/// returns the final contents for the cross-kind comparison.
fn differential(
    kind: &str,
    many: &dyn DiskBackend,
    single: &dyn DiskBackend,
) -> Vec<Option<Vec<u8>>> {
    for (i, call) in SCRIPT.iter().enumerate() {
        apply_vectored(many, call);
        apply_per_cell(single, call);
        assert_eq!(contents(many), contents(single), "{kind}: call {i}");
        assert_eq!(many.len(), single.len(), "{kind}: len after call {i}");
    }
    let written = contents(many);
    assert_eq!(written.iter().flatten().count(), 20, "{kind}: script wrote");

    // A wiped disk starts over.
    for disk in [many, single] {
        disk.wipe();
    }
    assert_eq!(many.len(), 0, "{kind}: wiped");
    apply_vectored(many, SCRIPT[0]);
    apply_per_cell(single, SCRIPT[0]);
    let last = contents(many);
    assert_eq!(last, contents(single), "{kind}: after wipe");
    assert_eq!(many.len(), 9, "{kind}: three runs of 3 + 5 + 1 cells");
    last
}

fn tmpfile(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ecfrm-writeruns-{tag}-{}", std::process::id()))
}

/// `MemDisk` is both a kind under test and the reference the others
/// are compared with.
fn reference() -> Vec<Option<Vec<u8>>> {
    differential("mem", &MemDisk::new(), &MemDisk::new())
}

#[test]
fn file_disks_take_runs_like_cells_on_every_backend() {
    let want = reference();
    let uring = ecfrm::sim::uring::supported() && std::env::var("ECFRM_FORCE_FILE_IO").is_err();
    let mut configs = vec![("blocking", FileIoConfig::blocking())];
    if uring {
        // Buffered: reads of just-written cells are answered inline
        // from the page cache (`RWF_NOWAIT`); `O_DIRECT`: through the
        // ring, after the kernel flushed the dirty range.
        for (name, direct) in [("uring", false), ("uring-direct", true)] {
            let cfg = FileIoConfig {
                mode: FileIoMode::Uring,
                depth: 8,
                direct,
            };
            configs.push((name, cfg));
        }
    } else {
        eprintln!("uring unavailable (kernel or ECFRM_FORCE_FILE_IO) — blocking only");
    }
    for (name, cfg) in configs {
        let (pm, ps) = (tmpfile(&format!("{name}-m")), tmpfile(&format!("{name}-s")));
        let many = FileDisk::create_with(&pm, ES, cfg).unwrap();
        let single = FileDisk::create_with(&ps, ES, cfg).unwrap();
        assert_eq!(differential(name, &many, &single), want, "{name} vs mem");
        // What a reopened file holds is what the runs put there.
        drop(many);
        let reopened = FileDisk::open_with(&pm, ES, cfg).unwrap();
        assert_eq!(reopened.read(41), Some(element(41, 1)), "{name}: reopened");
        let _ = std::fs::remove_file(&pm);
        let _ = std::fs::remove_file(&ps);
    }
}

#[test]
fn faulty_disk_forwards_or_drops_the_whole_call() {
    let want = reference();
    let wrap = || FaultyDisk::wrap(Arc::new(MemDisk::new()));
    let (many, single) = (wrap(), wrap());
    assert_eq!(differential("faulty", &*many, &*single), want);

    // Killed before the write: the call is dropped whole, both ways.
    for disk in [&many, &single] {
        disk.wipe();
        disk.arm(FaultKind::Kill, 0);
    }
    apply_vectored(&*many, SCRIPT[3]);
    apply_per_cell(&*single, SCRIPT[3]);
    for disk in [&many, &single] {
        assert_eq!(disk.len(), 0);
        disk.clear();
        assert_eq!(disk.inner().len(), 0, "nothing reached the disk inside");
    }
    // Killed after the write: unreadable while dead, intact once back.
    apply_vectored(&*many, SCRIPT[3]);
    apply_per_cell(&*single, SCRIPT[3]);
    let before = contents(&*many);
    for disk in [&many, &single] {
        disk.arm(FaultKind::Kill, 0);
    }
    assert!(contents(&*many).iter().all(Option::is_none));
    for disk in [&many, &single] {
        disk.clear();
    }
    assert_eq!(contents(&*many), before);
    assert_eq!(contents(&*single), before);
}

#[test]
fn remote_disks_take_runs_like_cells() {
    let want = reference();
    let cfg = RemoteDiskConfig::builder().low_latency().build();
    let servers: Vec<ShardServer> = (0..2)
        .map(|_| ShardServer::spawn(Arc::new(MemDisk::new()), "127.0.0.1:0").unwrap())
        .collect();
    let many = RemoteDisk::new(servers[0].addr(), cfg.clone());
    let single = RemoteDisk::new(servers[1].addr(), cfg);
    assert_eq!(
        differential("remote", &many, &single),
        want,
        "remote vs mem"
    );
    for disk in [&many, &single] {
        let stats = disk.net_stats().unwrap();
        assert_eq!((stats.failed_requests, stats.retries), (0, 0));
    }
    // One frame per call that had anything in it, whatever the run
    // count; one per cell the other way.
    let frames = |disk: &RemoteDisk| {
        let stats = disk.stats().unwrap();
        stats
            .iter()
            .find(|(n, _)| n == "serve.put_many")
            .map(|(_, v)| *v)
    };
    assert_eq!(frames(&many), Some(5), "4 script calls + 1 after the wipe");
    assert_eq!(frames(&single), Some(36 + 9), "one per cell");
}
