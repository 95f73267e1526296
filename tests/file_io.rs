//! Differential suite for the `FileDisk` read backends.
//!
//! The same randomized batch workload — absent offsets, duplicate and
//! overlapping sequential runs, element sizes straddling the 512/4096
//! alignment boundaries `O_DIRECT` cares about — runs against three
//! backends: `MemDisk` (the reference), the blocking sorted-pass
//! `FileDisk`, and the io_uring `FileDisk`. Bytes must be identical
//! everywhere, and the reactor's `io.submitted == io.completed` balance
//! must hold after every array-level pass.
//!
//! Under `ECFRM_FORCE_FILE_IO=blocking` (the CI fallback leg) or on
//! kernels without io_uring, the uring disk silently degrades to the
//! blocking path and the suite still runs end to end — the differential
//! property is backend-independent by construction.
//!
//! A separate test kills the uring engine mid-flight and asserts every
//! outstanding handle resolves (to all-`None` or to complete pre-kill
//! bytes) instead of hanging.
//!
//! The uring backend itself answers a run two ways — inline from the
//! page cache (`preadv2(RWF_NOWAIT)`, buffered descriptor only) or
//! through the ring — so a second group of tests reads the same batches
//! through blocking / ring-only (`direct: true`) / inline-capable
//! (`direct: false`) disks, warm and after `drop_cache()`, and pins that
//! a warm batch costs no `io_uring_enter` at all.

use std::sync::{Arc, Mutex, MutexGuard};

use ecfrm::sim::{DiskBackend, FileDisk, FileIoConfig, FileIoMode, MemDisk, ThreadedArray};

/// The uring counters are process-wide and one test compares them
/// before and after a read, so tests that run an engine take turns.
static ENGINES: Mutex<()> = Mutex::new(());

fn engines() -> MutexGuard<'static, ()> {
    ENGINES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Element sizes ±1 around the alignment boundaries, plus a tiny one.
const SIZES: &[usize] = &[8, 511, 512, 513, 4096, 4097];
const PRESENT_SPAN: u64 = 96;
const PROBE_SPAN: u64 = 128; // offsets beyond PRESENT_SPAN probe absence
const TRIALS: usize = 40;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn element(offset: u64, es: usize, salt: u64) -> Vec<u8> {
    let seed = offset.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    (0..es)
        .map(|i| (seed.wrapping_add(i as u64).wrapping_mul(131) % 251) as u8)
        .collect()
}

fn tmpfile(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ecfrm-fileio-{tag}-{}", std::process::id()))
}

/// Whether this run can construct a disk that genuinely uses uring.
fn uring_available() -> bool {
    ecfrm::sim::uring::supported() && std::env::var("ECFRM_FORCE_FILE_IO").is_err()
}

/// A random batch: mixed present/absent offsets, duplicates, and
/// sequential runs (so the uring coalescer sees both shapes).
fn random_batch(x: &mut u64) -> Vec<u64> {
    let len = (xorshift(x) % 48) as usize;
    let mut batch = Vec::with_capacity(len);
    while batch.len() < len {
        let o = xorshift(x) % PROBE_SPAN;
        batch.push(o);
        // Half the time, extend into a short sequential run.
        if xorshift(x).is_multiple_of(2) {
            let run = xorshift(x) % 4;
            for d in 1..=run {
                if batch.len() < len {
                    batch.push((o + d) % PROBE_SPAN);
                }
            }
        }
    }
    batch
}

#[test]
fn backends_read_identical_bytes() {
    let _turn = engines();
    for &es in SIZES {
        let salt = es as u64;
        let mem = MemDisk::new();
        let pb = tmpfile(&format!("diff-blk-{es}"));
        let pu = tmpfile(&format!("diff-ur-{es}"));
        let blocking = FileDisk::create_with(&pb, es, FileIoConfig::blocking()).unwrap();
        // Auto mode: uring where the kernel has it, blocking fallback
        // elsewhere (and under ECFRM_FORCE_FILE_IO=blocking) — the
        // differential property must hold either way.
        let uring = FileDisk::create_with(&pu, es, FileIoConfig::default()).unwrap();
        if uring_available() {
            assert!(
                uring.io_backend().starts_with("uring"),
                "probe says uring works, auto disk must use it (got {})",
                uring.io_backend()
            );
        }

        // Populate a random subset so some offsets inside the span are
        // genuinely absent on all three disks.
        let mut x = 0xD1F7 + salt;
        for o in 0..PRESENT_SPAN {
            if !xorshift(&mut x).is_multiple_of(4) {
                let bytes = element(o, es, salt);
                mem.write(o, bytes.clone());
                blocking.write(o, bytes.clone());
                uring.write(o, bytes);
            }
        }

        for trial in 0..TRIALS {
            let batch = random_batch(&mut x);
            let want = mem.read_many(&batch);
            assert_eq!(
                blocking.read_many(&batch),
                want,
                "blocking diverged from MemDisk (es {es}, trial {trial})"
            );
            assert_eq!(
                uring.read_many(&batch),
                want,
                "{} diverged from MemDisk (es {es}, trial {trial})",
                uring.io_backend()
            );
        }
        let _ = std::fs::remove_file(&pb);
        let _ = std::fs::remove_file(&pu);
    }
}

#[test]
fn arrays_balance_submissions_across_backends() {
    let _turn = engines();
    const ES: usize = 513; // unaligned on purpose
    let make = |mode: FileIoMode, tag: &str| -> (ThreadedArray, Vec<std::path::PathBuf>) {
        let paths: Vec<_> = (0..3).map(|d| tmpfile(&format!("bal-{tag}-{d}"))).collect();
        let backends: Vec<Arc<dyn DiskBackend>> = paths
            .iter()
            .map(|p| {
                let cfg = FileIoConfig {
                    mode,
                    ..FileIoConfig::default()
                };
                Arc::new(FileDisk::create_with(p, ES, cfg).unwrap()) as Arc<dyn DiskBackend>
            })
            .collect();
        (ThreadedArray::from_backends(backends), paths)
    };

    for (mode, tag) in [(FileIoMode::Blocking, "blk"), (FileIoMode::Auto, "auto")] {
        let (array, paths) = make(mode, tag);
        let items: Vec<_> = (0..60u64)
            .map(|i| (((i % 3) as usize, i / 3), element(i, ES, 99)))
            .collect();
        let want: Vec<_> = items.iter().map(|(_, b)| b.clone()).collect();
        let addrs: Vec<_> = items.iter().map(|(a, _)| *a).collect();
        array.write_batch(items);

        let mut x = 0xBA1A;
        for _ in 0..20 {
            let pick: Vec<_> = (0..24)
                .map(|_| addrs[(xorshift(&mut x) % addrs.len() as u64) as usize])
                .collect();
            let got = array.read_batch(&pick);
            for (g, a) in got.iter().zip(&pick) {
                let idx = addrs.iter().position(|p| p == a).unwrap();
                assert_eq!(g.as_ref(), Some(&want[idx]), "wrong bytes ({tag})");
            }
        }
        let io = array.io_stats().snapshot();
        assert_eq!(
            io.submitted, io.completed,
            "read_batch waits for every reply, so submissions balance ({tag})"
        );
        drop(array);
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn mid_flight_kill_resolves_all_handles() {
    let _turn = engines();
    if !uring_available() {
        eprintln!("uring unavailable (kernel or ECFRM_FORCE_FILE_IO) — skipped");
        return;
    }
    const ES: usize = 4096;
    let p = tmpfile("kill");
    let disk = Arc::new(
        FileDisk::create_with(
            &p,
            ES,
            FileIoConfig {
                mode: FileIoMode::Uring,
                depth: 4, // tiny ring: plenty still queued at kill time
                direct: true,
            },
        )
        .unwrap(),
    );
    assert!(disk.io_backend().starts_with("uring"));
    for o in 0..PROBE_SPAN {
        disk.write(o, element(o, ES, 7));
    }

    let handles: Vec<_> = (0..64)
        .map(|_| disk.submit_read_many(&(0..PROBE_SPAN).collect::<Vec<_>>()))
        .collect();
    assert!(disk.kill_io_engine(), "uring disk has an engine to kill");
    for (i, handle) in handles.into_iter().enumerate() {
        let got = handle.wait(); // the hang is the failure mode
        assert_eq!(got.len(), PROBE_SPAN as usize, "batch {i} kept its shape");
        for (o, g) in got.iter().enumerate() {
            // Batches that completed before the kill carry real bytes;
            // killed ones are None. Never torn, never wrong.
            if let Some(bytes) = g {
                assert_eq!(bytes, &element(o as u64, ES, 7), "batch {i} elem {o}");
            }
        }
    }
    // The engine stays dead: later submissions resolve all-None.
    assert_eq!(disk.read_many(&[0, 1]), vec![None, None]);
    // The blocking disk has no engine, and says so.
    let pb = tmpfile("kill-blk");
    let blocking = FileDisk::create_with(&pb, ES, FileIoConfig::blocking()).unwrap();
    assert!(!blocking.kill_io_engine());
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(&pb);
}

/// A uring disk over `path`: ring-only (`O_DIRECT` skips the inline
/// attempt) or inline-capable (buffered descriptor).
fn uring_disk(path: &std::path::Path, es: usize, direct: bool) -> FileDisk {
    let cfg = FileIoConfig {
        mode: FileIoMode::Uring,
        depth: 8,
        direct,
    };
    FileDisk::create_with(path, es, cfg).unwrap()
}

#[test]
fn warm_and_cold_batches_agree_across_blocking_ring_and_inline() {
    if !uring_available() {
        eprintln!("uring unavailable (kernel or ECFRM_FORCE_FILE_IO) — skipped");
        return;
    }
    let _turn = engines();
    for es in [512usize, 4097] {
        let salt = 0x1A7E + es as u64;
        let paths = ["blk", "ring", "inl"].map(|t| tmpfile(&format!("paths-{t}-{es}")));
        let blocking = FileDisk::create_with(&paths[0], es, FileIoConfig::blocking()).unwrap();
        let ring = uring_disk(&paths[1], es, true);
        let inline = uring_disk(&paths[2], es, false);
        assert_eq!(inline.io_backend(), "uring");
        let mut x = salt;
        for o in 0..PRESENT_SPAN {
            if !xorshift(&mut x).is_multiple_of(4) {
                for d in [&blocking, &ring, &inline] {
                    d.write(o, element(o, es, salt));
                }
            }
        }
        let check = |batch: &[u64], when: &str| {
            let want = blocking.read_many(batch);
            assert_eq!(ring.read_many(batch), want, "ring, {when} (es {es})");
            assert_eq!(inline.read_many(batch), want, "inline, {when} (es {es})");
        };
        // Unsorted, duplicates, holes and out-of-range offsets, one run
        // long enough to coalesce.
        check(&[40, 3, 3, 127, 9, 10, 11, 12, 500, 0, 95, 3], "warm");
        check(&[], "empty");
        for _ in 0..TRIALS {
            check(&random_batch(&mut x), "warm");
        }
        // Cold, then the head of the file warmed again: where readahead
        // left the tail cold (the larger element size), one batch mixes
        // runs the page cache answers inline with runs through the ring.
        for d in [&blocking, &ring, &inline] {
            d.drop_cache().unwrap();
        }
        check(&[1, 0], "cold");
        check(&[0, 1, 2, 95, 94, 60, 1, 93], "mixed hot/cold");
        for _ in 0..TRIALS {
            check(&random_batch(&mut x), "mixed hot/cold");
        }
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn warm_batch_never_enters_the_ring() {
    if !uring_available() {
        eprintln!("uring unavailable (kernel or ECFRM_FORCE_FILE_IO) — skipped");
        return;
    }
    let _turn = engines();
    const ES: usize = 4104; // a 4 KiB element plus its footer: unaligned
    let p = tmpfile("warm");
    let disk = uring_disk(&p, ES, false);
    for o in 0..64u64 {
        disk.write(o, element(o, ES, 5)); // buffered writes leave the pages hot
    }
    let batch: Vec<u64> = vec![7, 8, 9, 30, 2, 63, 8];
    let before = ecfrm::sim::uring::snapshot();
    let got = disk.read_many(&batch);
    let after = ecfrm::sim::uring::snapshot();
    for (g, &o) in got.iter().zip(&batch) {
        assert_eq!(g.as_ref(), Some(&element(o, ES, 5)), "offset {o}");
    }
    if after.inline_runs == before.inline_runs {
        eprintln!("RWF_NOWAIT reads refused on this filesystem — ring served the batch, skipped");
    } else {
        // Runs: {2}, {7,8,8,9}, {30}, {63}.
        assert_eq!(after.inline_runs - before.inline_runs, 4);
        assert_eq!(after.enter_calls, before.enter_calls, "no io_uring_enter");
        assert_eq!(after.sqes_submitted, before.sqes_submitted, "no SQE");
        assert_eq!(after.batches - before.batches, 1, "still one batch");
        // Inline is for submissions of at most 256 KiB: past that the
        // poller's help with the copying is worth its wake-up, warm or
        // not. 63 of these elements fit, 64 do not.
        let fits: Vec<u64> = (0..63).collect();
        let too_big: Vec<u64> = (0..64).collect();
        assert!(disk.read_many(&fits).iter().all(Option::is_some));
        let small = ecfrm::sim::uring::snapshot();
        assert_eq!(small.inline_runs - after.inline_runs, 1);
        assert_eq!(small.sqes_submitted, after.sqes_submitted);
        assert!(disk.read_many(&too_big).iter().all(Option::is_some));
        let big = ecfrm::sim::uring::snapshot();
        assert_eq!(big.inline_runs, small.inline_runs);
        assert_eq!(big.sqes_submitted - small.sqes_submitted, 1);
    }
    let _ = std::fs::remove_file(&p);
}

#[test]
fn writes_are_read_back_through_the_engines_own_descriptor() {
    if !uring_available() {
        eprintln!("uring unavailable (kernel or ECFRM_FORCE_FILE_IO) — skipped");
        return;
    }
    let _turn = engines();
    const ES: usize = 513;
    // Writes go through the disk's read-write descriptor, reads through
    // the engine's own (buffered: same page cache; direct: the kernel
    // flushes the dirty range first). Fresh offsets and overwrites.
    for direct in [false, true] {
        let p = tmpfile(&format!("coherent-{direct}"));
        let disk = uring_disk(&p, ES, direct);
        for round in 0..40u64 {
            for o in [round, 0, round / 2] {
                let bytes = element(o, ES, round);
                disk.write(o, bytes.clone());
                assert_eq!(disk.read(o), Some(bytes), "direct {direct}, round {round}");
            }
        }
        let _ = std::fs::remove_file(&p);
    }
}

#[test]
fn fail_and_kill_read_all_none_from_a_warm_disk() {
    if !uring_available() {
        eprintln!("uring unavailable (kernel or ECFRM_FORCE_FILE_IO) — skipped");
        return;
    }
    let _turn = engines();
    const ES: usize = 64;
    let p = tmpfile("warm-kill");
    let disk = uring_disk(&p, ES, false);
    for o in 0..8u64 {
        disk.write(o, element(o, ES, 3));
    }
    let batch = [0u64, 1, 2, 7];
    let want: Vec<_> = batch.iter().map(|&o| Some(element(o, ES, 3))).collect();
    assert_eq!(disk.read_many(&batch), want);
    // The pages are as hot as they get; neither fault may be answered
    // from them.
    disk.fail();
    assert_eq!(disk.read_many(&batch), vec![None; batch.len()]);
    disk.heal();
    assert_eq!(disk.read_many(&batch), want);
    assert!(disk.kill_io_engine());
    assert_eq!(disk.read_many(&batch), vec![None; batch.len()]);
    assert_eq!(disk.submit_read_many(&batch).wait(), vec![None; 4]);
    let _ = std::fs::remove_file(&p);
}
