//! A real file-backed disk: one flat file, element-indexed.
//!
//! [`FileDisk`] stores fixed-size elements at `offset × element_size`
//! within a single file, giving the object store and the CLI a
//! persistence path through the same [`DiskBackend`] interface the
//! in-memory disks use. Presence is tracked with an in-memory bitmap so
//! absent elements read as `None` rather than zeros (sparse files would
//! otherwise be indistinguishable from stored zeros).
//!
//! Vectored reads are served by one of two backends, selected per disk
//! at construction time ([`FileIoConfig`], overridable process-wide via
//! `ECFRM_FORCE_FILE_IO=blocking|uring`, mirroring the
//! `ECFRM_FORCE_KERNEL` dispatch in `ecfrm-gf`):
//!
//! * **uring** (Linux with a working io_uring, the default) — the
//!   [`crate::uring`] engine: coalesced runs become batched SQEs,
//!   `O_DIRECT` when the filesystem allows it, completions resolved
//!   asynchronously by a poller thread. On a buffered descriptor
//!   (`direct: false`, or a filesystem that refused `O_DIRECT`) a
//!   submission of at most 256 KiB first tries each run with
//!   `preadv2(RWF_NOWAIT)` on the submitting thread: what the page
//!   cache holds is answered there — the handle comes back ready, no
//!   SQE, no poller wake-up — and only the rest goes through the ring.
//!   Nothing about it is configured: the kernel's answer selects the
//!   path per run. [`DiskBackend::submits_async`] reports `true`
//!   either way (submission never waits for a device), so
//!   [`ThreadedArray`](crate::threaded::ThreadedArray) submits from the
//!   driver thread and never parks a pool worker.
//! * **blocking** (the portable fallback) — present offsets sorted and
//!   grouped into maximal sequential runs, one seek + sequential reads
//!   per run, serviced inline on the submitting thread.
//!
//! I/O errors never panic a worker: a failed element read or write
//! surfaces as `None` (counted in [`io_error_count`]) and the store
//! replans around it through parity, the same contract as a disk that
//! stops answering. A `FileDisk` has no failure switch of its own:
//! whether the store plans around it is the store's disk table, and a
//! test that wants its reads to fail wraps it in a
//! [`FaultyDisk`](crate::FaultyDisk).

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ecfrm_obs::Snapshot;
use ecfrm_util::Mutex;

use crate::threaded::{DiskBackend, WriteRun};
use crate::uring::{self, UringEngine};

/// Local file I/O errors swallowed into `None` results (failed element
/// reads/writes/truncates across every [`FileDisk`] in the process).
static FILE_IO_ERRORS: AtomicU64 = AtomicU64::new(0);

fn note_io_error() {
    FILE_IO_ERRORS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide count of [`FileDisk`] I/O errors that were absorbed
/// into `None` results instead of panicking a worker. Read as the
/// `io.file_errors` gauge.
pub fn io_error_count() -> u64 {
    FILE_IO_ERRORS.load(Ordering::Relaxed)
}

/// A [`Recorder::observe`](ecfrm_obs::Recorder::observe) source: the
/// process-wide file I/O gauges — the eleven `io.uring_*` engine totals
/// and `io.file_errors`. An array's own source
/// ([`ThreadedArray::observe`](crate::threaded::ThreadedArray::observe))
/// carries them; a shard node, with no array above its disk, registers
/// this.
pub fn sample(snap: &mut Snapshot) {
    let errors = ("io.file_errors", io_error_count() as i64);
    let gauges = uring::snapshot().gauges().into_iter().chain([errors]);
    snap.gauges
        .extend(gauges.map(|(name, v)| (name.to_string(), v)));
}

/// Write all of `buf` at byte `pos` without touching the file cursor.
#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], pos: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, pos)
}

/// Portable stand-in: seek, then write (the caller holds the file lock).
#[cfg(not(unix))]
fn write_all_at(mut file: &File, buf: &[u8], pos: u64) -> std::io::Result<()> {
    use std::io::Write;
    file.seek(SeekFrom::Start(pos))?;
    file.write_all(buf)
}

/// Which backend a [`FileDisk`] uses for vectored reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileIoMode {
    /// Probe at construction: the io_uring engine when the kernel
    /// supports it, the blocking sorted-run pass otherwise. The engine
    /// is the right pick at every depth on a buffered descriptor: a
    /// page-cache hit is served inline on the submitting thread (one
    /// `preadv2`, cheaper than the blocking pass's seek + read under the
    /// file lock) and only a miss pays for the ring. On an `O_DIRECT`
    /// descriptor a lone read at depth 1 is still slower through the
    /// ring than a blocking read (`BENCH_file_io.json`, qd 1).
    Auto,
    /// Always the portable blocking sorted-run pass.
    Blocking,
    /// Require the io_uring engine; construction fails where it is
    /// unavailable.
    Uring,
}

/// Construction-time I/O configuration for [`FileDisk`].
///
/// The process-wide `ECFRM_FORCE_FILE_IO` environment variable
/// (`blocking` or `uring`) overrides [`FileIoConfig::mode`] wherever it
/// is set — the same precedence rule as `ECFRM_FORCE_KERNEL` — so a CI
/// leg can pin every disk in a run to one backend.
#[derive(Clone, Copy, Debug)]
pub struct FileIoConfig {
    /// Backend selection.
    pub mode: FileIoMode,
    /// Ring depth: the maximum coalesced runs in flight at once
    /// (clamped to a power of two in `1..=4096`). Ignored by the
    /// blocking backend.
    pub depth: u32,
    /// Ask for `O_DIRECT` read descriptors; filesystems that refuse
    /// the flag (e.g. tmpfs) fall back to buffered uring reads.
    pub direct: bool,
}

impl Default for FileIoConfig {
    fn default() -> Self {
        Self {
            mode: FileIoMode::Auto,
            depth: 128,
            direct: true,
        }
    }
}

impl FileIoConfig {
    /// The portable blocking backend.
    pub fn blocking() -> Self {
        Self {
            mode: FileIoMode::Blocking,
            ..Self::default()
        }
    }

    /// Require the io_uring backend at the given queue depth.
    pub fn uring(depth: u32) -> Self {
        Self {
            mode: FileIoMode::Uring,
            depth,
            ..Self::default()
        }
    }
}

/// A disk persisted as one file of fixed-size elements.
pub struct FileDisk {
    path: PathBuf,
    file: Mutex<File>,
    element_size: usize,
    present: Mutex<HashSet<u64>>,
    engine: Option<Arc<UringEngine>>,
}

impl std::fmt::Debug for FileDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FileDisk({}, {} B elements, {})",
            self.path.display(),
            self.element_size,
            self.io_backend()
        )
    }
}

impl FileDisk {
    /// Create (or truncate) the backing file at `path` with the default
    /// I/O configuration (probe for uring, blocking fallback).
    ///
    /// # Errors
    /// I/O errors from file creation.
    pub fn create(path: impl AsRef<Path>, element_size: usize) -> std::io::Result<Self> {
        Self::create_with(path, element_size, FileIoConfig::default())
    }

    /// Create (or truncate) the backing file at `path` with an explicit
    /// I/O configuration.
    ///
    /// # Errors
    /// I/O errors from file creation, or from ring setup when `config`
    /// requires [`FileIoMode::Uring`] and the engine cannot start.
    pub fn create_with(
        path: impl AsRef<Path>,
        element_size: usize,
        config: FileIoConfig,
    ) -> std::io::Result<Self> {
        assert!(element_size > 0, "element size must be positive");
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let engine = Self::attach_engine(&path, element_size, config)?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            element_size,
            present: Mutex::new(HashSet::new()),
            engine,
        })
    }

    /// Open an existing backing file with the default I/O
    /// configuration, treating every complete element slot within the
    /// current file length as present.
    ///
    /// # Errors
    /// I/O errors from opening or statting the file.
    pub fn open(path: impl AsRef<Path>, element_size: usize) -> std::io::Result<Self> {
        Self::open_with(path, element_size, FileIoConfig::default())
    }

    /// Open an existing backing file with an explicit I/O
    /// configuration.
    ///
    /// # Errors
    /// I/O errors from opening or statting the file, or from ring setup
    /// when `config` requires [`FileIoMode::Uring`] and the engine
    /// cannot start.
    pub fn open_with(
        path: impl AsRef<Path>,
        element_size: usize,
        config: FileIoConfig,
    ) -> std::io::Result<Self> {
        assert!(element_size > 0, "element size must be positive");
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        let slots = len / element_size as u64;
        let engine = Self::attach_engine(&path, element_size, config)?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            element_size,
            present: Mutex::new((0..slots).collect()),
            engine,
        })
    }

    /// Resolve the configured mode against `ECFRM_FORCE_FILE_IO` and
    /// the runtime probe, then start the uring engine if called for.
    fn attach_engine(
        path: &Path,
        element_size: usize,
        config: FileIoConfig,
    ) -> std::io::Result<Option<Arc<UringEngine>>> {
        let forced = std::env::var("ECFRM_FORCE_FILE_IO").ok();
        let mode = match forced.as_deref() {
            Some("blocking") => FileIoMode::Blocking,
            Some("uring") => FileIoMode::Uring,
            Some(other) => panic!(
                "ECFRM_FORCE_FILE_IO={other:?} is not a file I/O backend \
                 (expected \"blocking\" or \"uring\")"
            ),
            None => config.mode,
        };
        match mode {
            FileIoMode::Blocking => Ok(None),
            FileIoMode::Uring => {
                match UringEngine::new(path, element_size, config.depth, config.direct) {
                    Ok(engine) => Ok(Some(engine)),
                    Err(e) if forced.is_some() => {
                        panic!("ECFRM_FORCE_FILE_IO=uring but the engine failed to start: {e}")
                    }
                    Err(e) => Err(e),
                }
            }
            FileIoMode::Auto => {
                if uring::supported() {
                    // A per-disk engine failure (fd limits, exotic fs)
                    // degrades that disk to the blocking path rather
                    // than failing construction.
                    Ok(UringEngine::new(path, element_size, config.depth, config.direct).ok())
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Name of the active read backend: `"blocking"`, `"uring"`
    /// (buffered descriptor), or `"uring-direct"` (`O_DIRECT`).
    pub fn io_backend(&self) -> &'static str {
        match &self.engine {
            None => "blocking",
            Some(e) if e.is_direct() => "uring-direct",
            Some(_) => "uring",
        }
    }

    /// Kill the async I/O engine mid-flight (the fault-injection hook
    /// used by the differential tests): every outstanding and future
    /// uring read resolves all-`None`, exactly like a killed disk.
    /// Returns `false` when this disk runs the blocking backend (which
    /// has no engine to kill).
    pub fn kill_io_engine(&self) -> bool {
        match &self.engine {
            Some(engine) => {
                engine.kill();
                true
            }
            None => false,
        }
    }

    /// Flush dirty pages and drop the kernel page cache for the backing
    /// file (Linux; a no-op after the flush elsewhere). The cold-read
    /// microbench uses this between passes so both backends pay real
    /// disk time.
    ///
    /// # Errors
    /// I/O errors from the flush or the `posix_fadvise` call.
    pub fn drop_cache(&self) -> std::io::Result<()> {
        let file = self.file.lock();
        file.sync_data()?;
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::io::AsRawFd;
            extern "C" {
                fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
            }
            const POSIX_FADV_DONTNEED: i32 = 4;
            // len 0 means "to end of file" — the whole inode's pages.
            // SAFETY: integer arguments only, on a descriptor the locked
            // `file` keeps open; advice touches no memory of ours.
            let rc = unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
            if rc != 0 {
                return Err(std::io::Error::from_raw_os_error(rc));
            }
        }
        Ok(())
    }

    /// The sorted-run vectored read: present offsets sorted, maximal
    /// sequential runs served with one seek each.
    fn read_sorted_runs(&self, offsets: &[u64]) -> Vec<Option<Vec<u8>>> {
        let mut out: Vec<Option<Vec<u8>>> = vec![None; offsets.len()];
        let mut wanted = self.wanted(offsets);
        wanted.sort_unstable();
        let es = self.element_size as u64;
        let mut file = self.file.lock();
        let mut next_pos: Option<u64> = None; // file cursor after last read
        for (offset, slot) in wanted {
            let pos = offset * es;
            if next_pos != Some(pos) && file.seek(SeekFrom::Start(pos)).is_err() {
                note_io_error();
                next_pos = None;
                continue;
            }
            let mut buf = vec![0u8; self.element_size];
            if file.read_exact(&mut buf).is_ok() {
                out[slot] = Some(buf);
                next_pos = Some(pos + es);
            } else {
                note_io_error();
                next_pos = None;
            }
        }
        out
    }

    /// `(offset, result slot)` pairs for present elements only.
    fn wanted(&self, offsets: &[u64]) -> Vec<(u64, usize)> {
        let present = self.present.lock();
        offsets
            .iter()
            .enumerate()
            .filter(|(_, o)| present.contains(o))
            .map(|(i, &o)| (o, i))
            .collect()
    }
}

impl Drop for FileDisk {
    fn drop(&mut self) {
        if let Some(engine) = &self.engine {
            engine.shutdown();
        }
    }
}

impl DiskBackend for FileDisk {
    /// Serve a whole batch in one submission. With the uring engine the
    /// present offsets are coalesced into runs; runs the page cache can
    /// answer are read on this thread, the rest are pushed as SQEs and
    /// the returned handle completes from the poller — nothing blocks
    /// here, and a fully cached batch comes back already complete.
    /// On the blocking backend the sorted single pass (one seek per
    /// maximal sequential run) services the batch inline.
    fn submit_read_many(&self, offsets: &[u64]) -> crate::reactor::IoHandle {
        if let Some(engine) = &self.engine {
            return engine.submit(self.wanted(offsets), offsets.len());
        }
        crate::reactor::IoHandle::ready(self.read_sorted_runs(offsets))
    }

    /// True on the uring backend: submission copies what is already in
    /// memory and stages SQEs for the rest, so `ThreadedArray` (and a
    /// shard server's connection thread) drives it from its own thread.
    fn submits_async(&self) -> bool {
        self.engine.is_some()
    }

    /// One positional write per run — no seek, the file cursor belongs
    /// to the blocking read pass — then one `present` update for the
    /// whole call. Buffered whatever the read backend is: what was just
    /// written is in the page cache for the read that follows.
    fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> crate::reactor::IoHandle {
        let es = self.element_size;
        let landed: Vec<bool> = {
            let file = self.file.lock();
            runs.iter()
                .map(|run| {
                    assert!(
                        run.cell_len == es && run.bytes.len() % es == 0,
                        "FileDisk stores fixed-size elements"
                    );
                    let ok = run
                        .start
                        .checked_mul(es as u64)
                        .is_some_and(|pos| write_all_at(&file, run.bytes, pos).is_ok());
                    if !ok {
                        note_io_error();
                    }
                    ok
                })
                .collect()
        };
        let mut present = self.present.lock();
        for (run, ok) in runs.iter().zip(landed) {
            for (offset, _) in run.cells() {
                if ok {
                    present.insert(offset);
                } else {
                    // A failed write must not leave the slot readable
                    // (it may hold a torn element): drop presence so
                    // reads return `None` and the store replans through
                    // parity.
                    present.remove(&offset);
                }
            }
        }
        crate::reactor::IoHandle::ready(Vec::new())
    }

    fn cell_len(&self) -> Option<usize> {
        Some(self.element_size)
    }

    fn wipe(&self) {
        let file = self.file.lock();
        if file.set_len(0).is_err() {
            note_io_error();
        }
        // Presence clears even if the truncate failed: unreadable is
        // the safe direction for a wiped disk.
        self.present.lock().clear();
    }

    fn len(&self) -> usize {
        self.present.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::ThreadedArray;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ecfrm-filedisk-{tag}-{}", std::process::id()))
    }

    #[test]
    fn write_read_roundtrip() {
        let p = tmpfile("rw");
        let d = FileDisk::create(&p, 8).unwrap();
        assert!(d.is_empty());
        d.write(3, vec![7u8; 8]);
        d.write(0, vec![9u8; 8]);
        assert_eq!(d.read(3), Some(vec![7u8; 8]));
        assert_eq!(d.read(0), Some(vec![9u8; 8]));
        assert_eq!(d.read(1), None, "hole must not read as zeros");
        assert_eq!(d.len(), 2);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn wipe_erases_every_cell() {
        let p = tmpfile("wipe");
        let d = FileDisk::create(&p, 4).unwrap();
        d.write(0, vec![1, 2, 3, 4]);
        d.wipe();
        assert_eq!(d.read(0), None);
        assert_eq!(d.len(), 0);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn reopen_sees_previous_elements() {
        let p = tmpfile("reopen");
        {
            let d = FileDisk::create(&p, 16).unwrap();
            d.write(0, vec![5u8; 16]);
            d.write(1, vec![6u8; 16]);
        }
        let d = FileDisk::open(&p, 16).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.read(1), Some(vec![6u8; 16]));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn threaded_array_over_file_disks() {
        let paths: Vec<PathBuf> = (0..3).map(|i| tmpfile(&format!("arr{i}"))).collect();
        let backends: Vec<Arc<dyn DiskBackend>> = paths
            .iter()
            .map(|p| Arc::new(FileDisk::create(p, 8).unwrap()) as Arc<dyn DiskBackend>)
            .collect();
        let array = ThreadedArray::from_backends(backends);
        array.write_batch(
            (0..9u64)
                .map(|i| (((i % 3) as usize, i / 3), vec![i as u8; 8]))
                .collect(),
        );
        let got = array.read_batch(&[(0, 0), (1, 0), (2, 2)]);
        assert_eq!(got[0], Some(vec![0u8; 8]));
        assert_eq!(got[1], Some(vec![1u8; 8]));
        assert_eq!(got[2], Some(vec![8u8; 8]));
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn read_many_matches_per_element_loop() {
        let p = tmpfile("many");
        let d = FileDisk::create(&p, 8).unwrap();
        for o in [0u64, 1, 2, 5, 9] {
            d.write(o, vec![o as u8; 8]);
        }
        // Unsorted, with duplicates, holes, and out-of-range offsets.
        let offsets = [9u64, 0, 3, 1, 2, 0, 100, 5];
        let want: Vec<Option<Vec<u8>>> = offsets.iter().map(|&o| d.read(o)).collect();
        assert_eq!(d.read_many(&offsets), want);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    #[should_panic]
    fn wrong_element_size_write_panics() {
        let p = tmpfile("wrong");
        let d = FileDisk::create(&p, 8).unwrap();
        d.write(0, vec![1u8; 4]);
    }

    #[test]
    fn blocking_config_never_starts_an_engine() {
        let p = tmpfile("blk");
        let d = FileDisk::create_with(&p, 8, FileIoConfig::blocking()).unwrap();
        // Even with ECFRM_FORCE_FILE_IO unset on a uring-capable
        // kernel, explicit Blocking stays blocking.
        if std::env::var("ECFRM_FORCE_FILE_IO").is_err() {
            assert_eq!(d.io_backend(), "blocking");
        }
        assert!(!d.submits_async() || d.io_backend() != "blocking");
        d.write(0, vec![1u8; 8]);
        assert_eq!(d.read(0), Some(vec![1u8; 8]));
        let _ = std::fs::remove_file(&p);
    }

    /// Satellite regression: an element write that fails with a real
    /// I/O error (EFBIG at an absurd file position) must not panic the
    /// worker — it is counted, the slot stays absent, and reads return
    /// `None`.
    #[cfg(target_os = "linux")]
    #[test]
    fn write_io_error_is_counted_not_fatal() {
        let p = tmpfile("eio");
        let d = FileDisk::create_with(&p, 8, FileIoConfig::blocking()).unwrap();
        d.write(1, vec![3u8; 8]);
        let before = io_error_count();
        // 2^57 elements × 8 B ≈ 1.15 EB: past every filesystem's max
        // file size, so write_all fails with EFBIG instead of storing.
        let absurd = 1u64 << 57;
        d.write(absurd, vec![9u8; 8]);
        assert!(io_error_count() > before, "the failed write is counted");
        assert_eq!(d.read(absurd), None, "failed write leaves slot absent");
        assert_eq!(d.read(1), Some(vec![3u8; 8]), "other elements unharmed");
        let _ = std::fs::remove_file(&p);
    }
}
