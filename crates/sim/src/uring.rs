//! From-scratch io_uring submission backend for [`FileDisk`].
//!
//! The workspace carries no external dependencies, so this module talks
//! to the kernel directly: raw `io_uring_setup(2)` / `io_uring_enter(2)`
//! syscalls through the `syscall` symbol the standard library already
//! links, mmap'd submission/completion rings, and hand-laid-out SQE/CQE
//! structs matching the kernel ABI. On top of the ring sits a small
//! engine shaped exactly like the rest of the I/O core:
//!
//! * **Submission** ([`UringEngine::submit`]) — the caller hands over
//!   the present `(offset, slot)` pairs of a vectored read. They are
//!   sorted and coalesced into maximal sequential runs (duplicates
//!   share a run; runs split at a 1 MiB cap), each run becomes one
//!   `IORING_OP_READ` SQE reading into an aligned buffer from a pool,
//!   and the batch is pushed into the kernel with one
//!   `io_uring_enter`. Nothing blocks: the call returns a pending
//!   [`IoHandle`] resolved through the reactor's completion contract.
//! * **Inline page-cache reads** — on a buffered descriptor a small
//!   submission first offers each run to `preadv2(RWF_NOWAIT)` on the
//!   submitting thread. A run that is wholly in the page cache is
//!   copied out there and never becomes an SQE; `EAGAIN`, a short read
//!   or a refused flag sends exactly that run through the ring. When
//!   every run was answered the handle returns ready and the poller is
//!   never woken — a read that needs no waiting needs no second thread.
//! * **Completion** — a single poller thread per engine parks in
//!   `io_uring_enter(GETEVENTS)`, reaps CQEs, slices each run's buffer
//!   back into per-element payloads, and completes the batch's
//!   [`IoCompleter`] once its last run lands. Short reads and negative
//!   `res` values surface as `None` elements — the same failure shape
//!   as an absent element or a failed disk.
//! * **`O_DIRECT`** — the engine opens its own read descriptor with
//!   `O_DIRECT` when asked (falling back to a buffered descriptor on
//!   filesystems that refuse it, e.g. tmpfs), and widens every run to
//!   the 4 KiB alignment direct I/O demands; the aligned-buffer pool
//!   absorbs the slop. Buffered writes stay coherent: Linux flushes
//!   dirty pages in the range before servicing a direct read.
//!
//! # Lifecycle invariant
//!
//! Every submitted batch completes exactly once. [`UringEngine::kill`]
//! (the `FaultyDisk`-style fault hook, also the first half of
//! [`UringEngine::shutdown`]) drops every pending batch's completer —
//! waiters resolve all-`None` immediately — while in-flight kernel
//! reads keep their buffers alive until their CQEs drain, so a killed
//! poller can neither hang a waiter nor free memory the kernel is still
//! writing into.
//!
//! Availability is probed once per process ([`supported`]); the
//! blocking sorted-run pass in [`FileDisk`] remains the portable
//! fallback on other platforms, old kernels, and
//! `ECFRM_FORCE_FILE_IO=blocking`.
//!
//! [`FileDisk`]: crate::file_disk::FileDisk
//! [`IoHandle`]: crate::reactor::IoHandle
//! [`IoCompleter`]: crate::reactor::IoCompleter

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Cumulative process-wide counters for every uring engine, plus the
/// in-flight gauge. Zero (and frozen) on platforms without io_uring.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UringSnapshot {
    /// Engines created over the process lifetime.
    pub engines: u64,
    /// Run SQEs pushed into kernel submission queues.
    pub sqes_submitted: u64,
    /// Run CQEs reaped from kernel completion queues.
    pub cqes_completed: u64,
    /// Vectored batches submitted (one per `submit_read_many`).
    pub batches: u64,
    /// `io_uring_enter` syscalls issued (submit and wait sides).
    pub enter_calls: u64,
    /// Runs answered on the submitting thread by `preadv2(RWF_NOWAIT)`
    /// — page-cache hits that never became an SQE.
    pub inline_runs: u64,
    /// Runs whose read ended short of a requested element (the element
    /// reads as `None`).
    pub short_reads: u64,
    /// Runs completed with a negative `res` (every covered element
    /// reads as `None`).
    pub io_errors: u64,
    /// Engines that wanted `O_DIRECT` and got it.
    pub direct_opens: u64,
    /// Engines that fell back to a buffered descriptor.
    pub buffered_opens: u64,
    /// Run SQEs currently inside the kernel, across all engines.
    pub inflight: i64,
}

static ENGINES: AtomicU64 = AtomicU64::new(0);
static SQES: AtomicU64 = AtomicU64::new(0);
static CQES: AtomicU64 = AtomicU64::new(0);
static BATCHES: AtomicU64 = AtomicU64::new(0);
static ENTERS: AtomicU64 = AtomicU64::new(0);
static INLINE_RUNS: AtomicU64 = AtomicU64::new(0);
static SHORT_READS: AtomicU64 = AtomicU64::new(0);
static IO_ERRORS: AtomicU64 = AtomicU64::new(0);
static DIRECT_OPENS: AtomicU64 = AtomicU64::new(0);
static BUFFERED_OPENS: AtomicU64 = AtomicU64::new(0);
static INFLIGHT: AtomicI64 = AtomicI64::new(0);

/// Snapshot the process-wide uring engine counters.
pub fn snapshot() -> UringSnapshot {
    UringSnapshot {
        engines: ENGINES.load(Ordering::Relaxed),
        sqes_submitted: SQES.load(Ordering::Relaxed),
        cqes_completed: CQES.load(Ordering::Relaxed),
        batches: BATCHES.load(Ordering::Relaxed),
        enter_calls: ENTERS.load(Ordering::Relaxed),
        inline_runs: INLINE_RUNS.load(Ordering::Relaxed),
        short_reads: SHORT_READS.load(Ordering::Relaxed),
        io_errors: IO_ERRORS.load(Ordering::Relaxed),
        direct_opens: DIRECT_OPENS.load(Ordering::Relaxed),
        buffered_opens: BUFFERED_OPENS.load(Ordering::Relaxed),
        inflight: INFLIGHT.load(Ordering::Relaxed),
    }
}

impl UringSnapshot {
    /// This snapshot as registry gauges: `io.uring_*`, the engines'
    /// lifetime totals (`io.uring_inflight` is the live point-in-time
    /// one).
    pub(crate) fn gauges(&self) -> [(&'static str, i64); 11] {
        [
            ("io.uring_engines", self.engines as i64),
            ("io.uring_sqes", self.sqes_submitted as i64),
            ("io.uring_cqes", self.cqes_completed as i64),
            ("io.uring_batches", self.batches as i64),
            ("io.uring_enters", self.enter_calls as i64),
            ("io.uring_inline_runs", self.inline_runs as i64),
            ("io.uring_short_reads", self.short_reads as i64),
            ("io.uring_errors", self.io_errors as i64),
            ("io.uring_direct_opens", self.direct_opens as i64),
            ("io.uring_buffered_opens", self.buffered_opens as i64),
            ("io.uring_inflight", self.inflight),
        ]
    }
}

#[cfg(target_os = "linux")]
pub use imp::{supported, UringEngine};

#[cfg(not(target_os = "linux"))]
pub use portable::{supported, UringEngine};

#[cfg(target_os = "linux")]
mod imp {
    use std::collections::{HashMap, VecDeque};
    use std::fs::{File, OpenOptions};
    use std::io;
    use std::os::raw::{c_int, c_long, c_void};
    use std::os::unix::fs::OpenOptionsExt;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::thread::JoinHandle;

    use ecfrm_util::Mutex;

    use super::{
        BATCHES, BUFFERED_OPENS, CQES, DIRECT_OPENS, ENGINES, ENTERS, INFLIGHT, INLINE_RUNS,
        IO_ERRORS, SHORT_READS, SQES,
    };
    use crate::reactor::{io_pair, IoCompleter, IoHandle, IoResults};

    const SYS_IO_URING_SETUP: c_long = 425;
    const SYS_IO_URING_ENTER: c_long = 426;

    const IORING_OFF_SQ_RING: i64 = 0;
    const IORING_OFF_CQ_RING: i64 = 0x800_0000;
    const IORING_OFF_SQES: i64 = 0x1000_0000;
    const IORING_ENTER_GETEVENTS: u32 = 1;
    const IORING_FEAT_SINGLE_MMAP: u32 = 1;
    const IORING_OP_NOP: u8 = 0;
    const IORING_OP_READ: u8 = 22;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;
    const MAP_POPULATE: c_int = 0x8000;
    const EINTR: i32 = 4;
    /// `preadv2` flag: fail with `EAGAIN` rather than wait for I/O.
    const RWF_NOWAIT: c_int = 0x8;

    /// `O_DIRECT` is architecture-dependent: octal 040000 on x86,
    /// 0200000 on the asm-generic table (aarch64, riscv, ...).
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    const O_DIRECT: i32 = 0o040000;
    #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
    const O_DIRECT: i32 = 0o200000;

    /// Alignment direct I/O demands of offset, length, and buffer
    /// address. 4 KiB covers every logical block size in practice.
    const DIRECT_ALIGN: u64 = 4096;
    /// Cap on the aligned byte span of one run (one SQE): long
    /// sequential scans split rather than monopolising buffers.
    const MAX_RUN_BYTES: u64 = 1 << 20;
    /// Most bytes one submission may ask for and still be tried inline
    /// (`preadv2(RWF_NOWAIT)` on the submitting thread). Inline, the
    /// submitter does all the copying itself; through the ring the
    /// poller slices this disk's buffers while the submitter moves on
    /// to the next disk. Measured on a 9-disk warm `ThreadedArray` (2
    /// cores): at 256 KiB per disk inline is 1.3x faster than the ring,
    /// at 512 KiB 1.2x slower, at 4 MiB 3x slower.
    const INLINE_MAX_BYTES: u64 = 256 << 10;
    /// Aligned buffers retained for reuse per engine.
    const POOL_KEEP: usize = 16;
    /// `user_data` of the poller-wakeup NOP; never assigned to a run.
    const NOP_ID: u64 = u64::MAX;

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn preadv2(fd: c_int, iov: *const IoVec, iovcnt: c_int, offset: i64, flags: c_int)
            -> isize;
    }

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct SqOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        flags: u32,
        dropped: u32,
        array: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct CqOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        overflow: u32,
        cqes: u32,
        flags: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct IoUringParams {
        sq_entries: u32,
        cq_entries: u32,
        flags: u32,
        sq_thread_cpu: u32,
        sq_thread_idle: u32,
        features: u32,
        wq_fd: u32,
        resv: [u32; 3],
        sq_off: SqOffsets,
        cq_off: CqOffsets,
    }

    /// One submission queue entry, kernel ABI layout (64 bytes).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Sqe {
        opcode: u8,
        flags: u8,
        ioprio: u16,
        fd: i32,
        off: u64,
        addr: u64,
        len: u32,
        rw_flags: u32,
        user_data: u64,
        buf_index: u16,
        personality: u16,
        splice_fd_in: i32,
        addr3: u64,
        pad2: u64,
    }

    impl Sqe {
        fn read(fd: i32, file_off: u64, buf: u64, len: u32, user_data: u64) -> Self {
            // SAFETY: `Sqe` is plain integers, for which all-zero is a
            // valid value — and the ABI's "no flags, no extras" SQE.
            let mut sqe: Sqe = unsafe { std::mem::zeroed() };
            sqe.opcode = IORING_OP_READ;
            sqe.fd = fd;
            sqe.off = file_off;
            sqe.addr = buf;
            sqe.len = len;
            sqe.user_data = user_data;
            sqe
        }

        fn nop() -> Self {
            // SAFETY: as in `read`: all-zero integers.
            let mut sqe: Sqe = unsafe { std::mem::zeroed() };
            sqe.opcode = IORING_OP_NOP;
            sqe.fd = -1;
            sqe.user_data = NOP_ID;
            sqe
        }
    }

    /// One completion queue entry, kernel ABI layout (16 bytes).
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    struct Cqe {
        user_data: u64,
        res: i32,
        flags: u32,
    }

    /// The mmap'd ring pair plus the ring file descriptor.
    ///
    /// SQ-side pointers (tail store, SQE array) are only touched under
    /// the engine's submission lock; CQ-side pointers only by the
    /// poller thread. Head/tail words are genuinely shared with the
    /// kernel and accessed as atomics with acquire/release ordering, as
    /// the io_uring ABI requires.
    struct Ring {
        fd: c_int,
        sq_ptr: *mut u8,
        sq_map_len: usize,
        cq_ptr: *mut u8,
        cq_map_len: usize,
        single_mmap: bool,
        sqes_ptr: *mut Sqe,
        sqes_map_len: usize,
        sq_head: *const AtomicU32,
        sq_tail: *const AtomicU32,
        sq_mask: u32,
        sq_entries: u32,
        sq_array: *mut u32,
        cq_head: *const AtomicU32,
        cq_tail: *const AtomicU32,
        cq_mask: u32,
        cqes: *const Cqe,
    }

    // SAFETY: the raw pointers address kernel-shared ring memory that
    // lives as long as the Ring; cross-thread access is disciplined as
    // described on the struct (locked SQ side, single-threaded CQ side,
    // atomic head/tail).
    unsafe impl Send for Ring {}
    // SAFETY: as for `Send`: every shared access is locked, confined to
    // the poller, or atomic.
    unsafe impl Sync for Ring {}

    fn ring_mmap(len: usize, fd: c_int, offset: i64) -> io::Result<*mut u8> {
        // SAFETY: a fresh shared mapping chosen by the kernel (null
        // hint) overlaps nothing Rust owns; a failure is checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                fd,
                offset,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr as *mut u8)
    }

    impl Ring {
        /// `io_uring_setup` + the three (or two) ring mmaps.
        fn setup(entries: u32) -> io::Result<Self> {
            let mut params = IoUringParams::default();
            // SAFETY: `params` is a live, `repr(C)` `io_uring_params` the
            // kernel fills in for the duration of the call.
            let fd = unsafe {
                syscall(
                    SYS_IO_URING_SETUP,
                    entries as c_long,
                    &mut params as *mut IoUringParams as c_long,
                )
            };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let fd = fd as c_int;
            let close_on_err = |e: io::Error| {
                // SAFETY: fd came from io_uring_setup above and has not
                // been handed anywhere else.
                unsafe { drop(File::from_raw_fd(fd)) };
                Err(e)
            };
            use std::os::unix::io::FromRawFd;
            let sq_len = params.sq_off.array as usize + params.sq_entries as usize * 4;
            let cq_len = params.cq_off.cqes as usize
                + params.cq_entries as usize * std::mem::size_of::<Cqe>();
            let single_mmap = params.features & IORING_FEAT_SINGLE_MMAP != 0;
            let sq_map_len = if single_mmap {
                sq_len.max(cq_len)
            } else {
                sq_len
            };
            let sq_ptr = match ring_mmap(sq_map_len, fd, IORING_OFF_SQ_RING) {
                Ok(p) => p,
                Err(e) => return close_on_err(e),
            };
            let (cq_ptr, cq_map_len) = if single_mmap {
                (sq_ptr, sq_map_len)
            } else {
                match ring_mmap(cq_len, fd, IORING_OFF_CQ_RING) {
                    Ok(p) => (p, cq_len),
                    Err(e) => {
                        // SAFETY: unmaps exactly the mapping made above,
                        // which nothing else has seen.
                        unsafe { munmap(sq_ptr as *mut c_void, sq_map_len) };
                        return close_on_err(e);
                    }
                }
            };
            let sqes_map_len = params.sq_entries as usize * std::mem::size_of::<Sqe>();
            let sqes_ptr = match ring_mmap(sqes_map_len, fd, IORING_OFF_SQES) {
                Ok(p) => p as *mut Sqe,
                Err(e) => {
                    // SAFETY: unmaps exactly the mappings made above,
                    // which nothing else has seen.
                    unsafe {
                        munmap(sq_ptr as *mut c_void, sq_map_len);
                        if !single_mmap {
                            munmap(cq_ptr as *mut c_void, cq_map_len);
                        }
                    }
                    return close_on_err(e);
                }
            };
            // SAFETY: all offsets come from the kernel's own params and
            // stay within the mapped lengths computed from them.
            unsafe {
                Ok(Self {
                    fd,
                    sq_ptr,
                    sq_map_len,
                    cq_ptr,
                    cq_map_len,
                    single_mmap,
                    sqes_ptr,
                    sqes_map_len,
                    sq_head: sq_ptr.add(params.sq_off.head as usize) as *const AtomicU32,
                    sq_tail: sq_ptr.add(params.sq_off.tail as usize) as *const AtomicU32,
                    sq_mask: *(sq_ptr.add(params.sq_off.ring_mask as usize) as *const u32),
                    sq_entries: params.sq_entries,
                    sq_array: sq_ptr.add(params.sq_off.array as usize) as *mut u32,
                    cq_head: cq_ptr.add(params.cq_off.head as usize) as *const AtomicU32,
                    cq_tail: cq_ptr.add(params.cq_off.tail as usize) as *const AtomicU32,
                    cq_mask: *(cq_ptr.add(params.cq_off.ring_mask as usize) as *const u32),
                    cqes: cq_ptr.add(params.cq_off.cqes as usize) as *const Cqe,
                })
            }
        }

        /// Stage one SQE; `false` when the submission ring is full.
        /// Caller must hold the engine's submission lock.
        fn sq_push(&self, sqe: &Sqe) -> bool {
            // SAFETY: ring pointers are valid for the Ring's lifetime;
            // the submission side is exclusive under the caller's lock.
            unsafe {
                let tail = (*self.sq_tail).load(Ordering::Relaxed);
                let head = (*self.sq_head).load(Ordering::Acquire);
                if tail.wrapping_sub(head) >= self.sq_entries {
                    return false;
                }
                let idx = tail & self.sq_mask;
                *self.sqes_ptr.add(idx as usize) = *sqe;
                *self.sq_array.add(idx as usize) = idx;
                (*self.sq_tail).store(tail.wrapping_add(1), Ordering::Release);
            }
            true
        }

        /// `io_uring_enter`, retrying on `EINTR`.
        fn enter(&self, to_submit: u32, min_complete: u32, flags: u32) -> io::Result<i32> {
            loop {
                // SAFETY: integer arguments only, on the ring fd this
                // `Ring` owns; the kernel reads the SQEs staged under the
                // caller's lock, whose buffers outlive their completion.
                let r = unsafe {
                    syscall(
                        SYS_IO_URING_ENTER,
                        self.fd as c_long,
                        to_submit as c_long,
                        min_complete as c_long,
                        flags as c_long,
                        0 as c_long,
                        0 as c_long,
                    )
                };
                ENTERS.fetch_add(1, Ordering::Relaxed);
                if r >= 0 {
                    return Ok(r as i32);
                }
                let e = io::Error::last_os_error();
                if e.raw_os_error() == Some(EINTR) {
                    continue;
                }
                return Err(e);
            }
        }

        /// Drain every available CQE into `out`. Poller thread only.
        fn reap(&self, out: &mut Vec<Cqe>) {
            // SAFETY: the completion side is exclusive to the poller;
            // the tail load synchronises with the kernel's publishes.
            unsafe {
                let mut head = (*self.cq_head).load(Ordering::Relaxed);
                let tail = (*self.cq_tail).load(Ordering::Acquire);
                while head != tail {
                    out.push(*self.cqes.add((head & self.cq_mask) as usize));
                    head = head.wrapping_add(1);
                }
                (*self.cq_head).store(head, Ordering::Release);
            }
        }
    }

    impl Drop for Ring {
        fn drop(&mut self) {
            // SAFETY: mappings and fd are owned by this Ring and not
            // referenced after drop.
            unsafe {
                munmap(self.sqes_ptr as *mut c_void, self.sqes_map_len);
                munmap(self.sq_ptr as *mut c_void, self.sq_map_len);
                if !self.single_mmap {
                    munmap(self.cq_ptr as *mut c_void, self.cq_map_len);
                }
                use std::os::unix::io::FromRawFd;
                drop(File::from_raw_fd(self.fd));
            }
        }
    }

    /// A page-aligned allocation satisfying `O_DIRECT`'s buffer-address
    /// requirement.
    struct AlignedBuf {
        ptr: std::ptr::NonNull<u8>,
        cap: usize,
    }

    // SAFETY: the buffer is uniquely owned; only one thread touches it
    // at a time (submitter fills metadata, kernel DMA, then poller).
    unsafe impl Send for AlignedBuf {}

    impl AlignedBuf {
        fn new(cap: usize) -> Self {
            let layout = std::alloc::Layout::from_size_align(cap, DIRECT_ALIGN as usize)
                .expect("aligned buffer layout");
            // SAFETY: layout has non-zero size.
            let ptr = unsafe { std::alloc::alloc(layout) };
            let Some(ptr) = std::ptr::NonNull::new(ptr) else {
                std::alloc::handle_alloc_error(layout);
            };
            Self { ptr, cap }
        }

        fn addr(&self) -> u64 {
            self.ptr.as_ptr() as u64
        }

        /// The first `len` bytes, as written by the kernel.
        fn filled(&self, len: usize) -> &[u8] {
            debug_assert!(len <= self.cap);
            // SAFETY: in bounds per the assert; the kernel has finished
            // writing (the run's CQE was reaped, or `preadv2` returned).
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), len) }
        }
    }

    impl Drop for AlignedBuf {
        fn drop(&mut self) {
            let layout = std::alloc::Layout::from_size_align(self.cap, DIRECT_ALIGN as usize)
                .expect("aligned buffer layout");
            // SAFETY: allocated with this exact layout in new().
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), layout) };
        }
    }

    /// One coalesced sequential run: a single SQE's worth of file span
    /// plus the output slots it serves.
    struct Run {
        id: u64,
        batch: u64,
        buf: AlignedBuf,
        file_off: u64,
        len: u32,
        /// `(output slot, byte position within the run buffer)`.
        slots: Vec<(usize, usize)>,
    }

    impl Run {
        /// Slice the first `got` bytes of the run buffer into the output
        /// slots they cover; an element cut off by a short read stays
        /// `None`.
        fn scatter(&self, got: usize, es: usize, out: &mut IoResults) {
            let got = self.buf.filled(got.min(self.len as usize));
            for &(slot, pos) in &self.slots {
                if pos + es <= got.len() {
                    out[slot] = Some(got[pos..pos + es].to_vec());
                } else {
                    SHORT_READS.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// One in-flight vectored batch being assembled from its runs.
    struct Batch {
        completer: IoCompleter,
        out: IoResults,
        remaining: usize,
    }

    #[derive(Default)]
    struct Inner {
        pending: VecDeque<Run>,
        runs: HashMap<u64, Run>,
        batches: HashMap<u64, Batch>,
        next_id: u64,
        inflight: u32,
        killed: bool,
    }

    /// Probe io_uring availability once per process: create (and
    /// immediately tear down) a tiny ring. `false` on old kernels and
    /// kernels with io_uring administratively disabled.
    pub fn supported() -> bool {
        static PROBE: OnceLock<bool> = OnceLock::new();
        *PROBE.get_or_init(|| Ring::setup(4).is_ok())
    }

    /// The per-file io_uring engine behind
    /// [`FileDisk`](crate::file_disk::FileDisk)'s async backend: its own
    /// read descriptor (direct or buffered), one ring, one poller
    /// thread, and an aligned-buffer pool.
    pub struct UringEngine {
        ring: Ring,
        /// Keeps the read descriptor alive; reads use the raw fd.
        _file: File,
        file_fd: c_int,
        direct: bool,
        element_size: u64,
        buf_cap: usize,
        max_inflight: u32,
        pool: Mutex<Vec<AlignedBuf>>,
        inner: Mutex<Inner>,
        poller: Mutex<Option<JoinHandle<()>>>,
    }

    impl std::fmt::Debug for UringEngine {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "UringEngine(depth {}, {})",
                self.max_inflight,
                if self.direct { "O_DIRECT" } else { "buffered" }
            )
        }
    }

    impl UringEngine {
        /// Open `path` for uring reads of `element_size`-byte elements
        /// with up to `depth` runs in flight. `want_direct` asks for
        /// `O_DIRECT` (falling back to a buffered descriptor where the
        /// filesystem refuses it).
        pub fn new(
            path: &Path,
            element_size: usize,
            depth: u32,
            want_direct: bool,
        ) -> io::Result<Arc<Self>> {
            assert!(element_size > 0, "element size must be positive");
            let depth = depth.clamp(1, 4096).next_power_of_two();
            let (file, direct) = if want_direct {
                match OpenOptions::new()
                    .read(true)
                    .custom_flags(O_DIRECT)
                    .open(path)
                {
                    Ok(f) => (f, true),
                    Err(_) => (OpenOptions::new().read(true).open(path)?, false),
                }
            } else {
                (OpenOptions::new().read(true).open(path)?, false)
            };
            let ring = Ring::setup(depth)?;
            let align = if direct { DIRECT_ALIGN } else { 1 };
            // Every run's aligned span fits one pool buffer: at least
            // one element plus both alignment fringes, normally the run
            // cap.
            let buf_cap = (MAX_RUN_BYTES.max(element_size as u64) + 2 * align) as usize;
            ENGINES.fetch_add(1, Ordering::Relaxed);
            if direct {
                DIRECT_OPENS.fetch_add(1, Ordering::Relaxed);
            } else {
                BUFFERED_OPENS.fetch_add(1, Ordering::Relaxed);
            }
            let engine = Arc::new(Self {
                ring,
                file_fd: file.as_raw_fd(),
                _file: file,
                direct,
                element_size: element_size as u64,
                buf_cap,
                max_inflight: depth,
                pool: Mutex::new(Vec::new()),
                inner: Mutex::new(Inner::default()),
                poller: Mutex::new(None),
            });
            let for_poller = Arc::clone(&engine);
            let handle = std::thread::Builder::new()
                .name("ecfrm-uring-poller".into())
                .spawn(move || for_poller.poller_loop())
                .expect("spawn uring poller");
            *engine.poller.lock() = Some(handle);
            Ok(engine)
        }

        /// Whether the read descriptor is `O_DIRECT`.
        pub fn is_direct(&self) -> bool {
            self.direct
        }

        fn align_down(&self, pos: u64) -> u64 {
            if self.direct {
                pos & !(DIRECT_ALIGN - 1)
            } else {
                pos
            }
        }

        fn align_up(&self, pos: u64) -> u64 {
            if self.direct {
                (pos + DIRECT_ALIGN - 1) & !(DIRECT_ALIGN - 1)
            } else {
                pos
            }
        }

        fn buf_get(&self) -> AlignedBuf {
            self.pool
                .lock()
                .pop()
                .unwrap_or_else(|| AlignedBuf::new(self.buf_cap))
        }

        fn buf_put(&self, buf: AlignedBuf) {
            let mut pool = self.pool.lock();
            if pool.len() < POOL_KEEP {
                pool.push(buf);
            }
        }

        /// Submit a vectored read: `wanted` holds the present `(element
        /// offset, output slot)` pairs of a request covering `n_out`
        /// offsets. Nothing blocks. On a buffered descriptor each run
        /// of a submission of at most 256 KiB (`INLINE_MAX_BYTES`) is
        /// first tried with `preadv2(RWF_NOWAIT)` on this thread: a run
        /// the page cache holds in full is answered here, and when every
        /// run was, the handle comes back ready and the poller is never
        /// woken.
        /// Any other run (cold, short, refused flag — and every run of a
        /// larger submission or an `O_DIRECT` descriptor) becomes an SQE
        /// and the handle completes from the poller. After
        /// [`Self::kill`], the handle resolves all-`None` immediately.
        pub fn submit(&self, mut wanted: Vec<(u64, usize)>, n_out: usize) -> IoHandle {
            if wanted.is_empty() {
                return IoHandle::ready(vec![None; n_out]);
            }
            wanted.sort_unstable();
            let es = self.element_size;
            // Coalesce into maximal sequential runs, splitting when the
            // aligned span would outgrow one pool buffer. Duplicate
            // offsets share their run (extra slots, same span).
            struct Pending {
                first: u64,
                last: u64,
                slots: Vec<(usize, u64)>, // (output slot, element offset)
            }
            let mut runs: Vec<Pending> = Vec::new();
            for (offset, slot) in wanted {
                match runs.last_mut() {
                    Some(run) if offset == run.last => run.slots.push((slot, offset)),
                    Some(run)
                        if offset == run.last + 1
                            && self.align_up((offset + 1) * es)
                                - self.align_down(run.first * es)
                                <= self.buf_cap as u64 =>
                    {
                        run.last = offset;
                        run.slots.push((slot, offset));
                    }
                    _ => runs.push(Pending {
                        first: offset,
                        last: offset,
                        slots: vec![(slot, offset)],
                    }),
                }
            }
            let try_inline = !self.direct
                && runs
                    .iter()
                    .map(|r| (r.last - r.first + 1) * es)
                    .sum::<u64>()
                    <= INLINE_MAX_BYTES;
            let mut out: IoResults = vec![None; n_out];
            let mut for_ring: Vec<Run> = Vec::new();
            for run in runs {
                let file_off = self.align_down(run.first * es);
                let len = self.align_up((run.last + 1) * es) - file_off;
                // The kernel writes `len` bytes into a `buf_cap` buffer.
                assert!(len <= self.buf_cap as u64, "run outgrew its buffer");
                let run = Run {
                    id: 0, // assigned with the batch, under the lock
                    batch: 0,
                    buf: self.buf_get(),
                    file_off,
                    len: len as u32,
                    slots: run
                        .slots
                        .into_iter()
                        .map(|(slot, offset)| (slot, (offset * es - file_off) as usize))
                        .collect(),
                };
                if try_inline && self.read_nowait(&run) {
                    INLINE_RUNS.fetch_add(1, Ordering::Relaxed);
                    run.scatter(run.len as usize, es as usize, &mut out);
                    self.buf_put(run.buf);
                } else {
                    for_ring.push(run);
                }
            }
            let mut inner = self.inner.lock();
            if inner.killed {
                return IoHandle::ready(vec![None; n_out]);
            }
            BATCHES.fetch_add(1, Ordering::Relaxed);
            if for_ring.is_empty() {
                drop(inner);
                return IoHandle::ready(out);
            }
            let (handle, completer) = io_pair(n_out);
            let batch_id = inner.next_id;
            inner.next_id += 1;
            inner.batches.insert(
                batch_id,
                Batch {
                    completer,
                    out,
                    remaining: for_ring.len(),
                },
            );
            for mut run in for_ring {
                run.id = inner.next_id;
                run.batch = batch_id;
                inner.next_id += 1;
                inner.pending.push_back(run);
            }
            self.flush_locked(&mut inner);
            handle
        }

        /// Read the run's span into its buffer without waiting for I/O;
        /// `true` only when every byte was in the page cache.
        fn read_nowait(&self, run: &Run) -> bool {
            let iov = IoVec {
                base: run.buf.ptr.as_ptr().cast(),
                len: run.len as usize,
            };
            // SAFETY: `iov` covers the first `run.len` bytes of a buffer
            // this run owns exclusively (`run.len <= buf_cap`, asserted
            // by the caller); the descriptor lives as long as the engine.
            let got = unsafe { preadv2(self.file_fd, &iov, 1, run.file_off as i64, RWF_NOWAIT) };
            got == run.len as isize
        }

        /// Push pending runs into the kernel up to the ring depth, then
        /// submit them with one `io_uring_enter`. Caller holds `inner`.
        fn flush_locked(&self, inner: &mut Inner) {
            let mut to_submit = 0u32;
            while inner.inflight < self.max_inflight {
                let Some(run) = inner.pending.pop_front() else {
                    break;
                };
                let sqe = Sqe::read(self.file_fd, run.file_off, run.buf.addr(), run.len, run.id);
                if !self.ring.sq_push(&sqe) {
                    inner.pending.push_front(run);
                    break;
                }
                inner.runs.insert(run.id, run);
                inner.inflight += 1;
                to_submit += 1;
                SQES.fetch_add(1, Ordering::Relaxed);
                INFLIGHT.fetch_add(1, Ordering::Relaxed);
            }
            if to_submit > 0 && self.ring.enter(to_submit, 0, 0).is_err() {
                // Submission failing outright means the ring is gone;
                // fail the engine rather than hang its waiters.
                self.kill_locked(inner);
            }
        }

        /// The completion side: park in the kernel until CQEs arrive,
        /// slice run buffers into elements, complete finished batches.
        fn poller_loop(self: Arc<Self>) {
            let mut cqes: Vec<Cqe> = Vec::new();
            loop {
                self.ring.reap(&mut cqes);
                if cqes.is_empty() {
                    {
                        let inner = self.inner.lock();
                        if inner.killed && inner.inflight == 0 {
                            return;
                        }
                    }
                    if self.ring.enter(0, 1, IORING_ENTER_GETEVENTS).is_err() {
                        let mut inner = self.inner.lock();
                        self.kill_locked(&mut inner);
                        if inner.inflight == 0 {
                            return;
                        }
                    }
                    continue;
                }
                let mut finished: Vec<(IoCompleter, IoResults)> = Vec::new();
                {
                    let mut inner = self.inner.lock();
                    for cqe in cqes.drain(..) {
                        let Some(run) = inner.runs.remove(&cqe.user_data) else {
                            continue; // wake-up NOP
                        };
                        inner.inflight -= 1;
                        CQES.fetch_add(1, Ordering::Relaxed);
                        INFLIGHT.fetch_add(-1, Ordering::Relaxed);
                        if let Some(batch) = inner.batches.get_mut(&run.batch) {
                            if cqe.res < 0 {
                                IO_ERRORS.fetch_add(1, Ordering::Relaxed);
                            } else {
                                let es = self.element_size as usize;
                                run.scatter(cqe.res as usize, es, &mut batch.out);
                            }
                            batch.remaining -= 1;
                            if batch.remaining == 0 {
                                let batch = inner.batches.remove(&run.batch).expect("batch exists");
                                finished.push((batch.completer, batch.out));
                            }
                        }
                        self.buf_put(run.buf);
                    }
                    if inner.killed {
                        if inner.inflight == 0 {
                            drop(inner);
                            for (completer, out) in finished {
                                completer.complete(out);
                            }
                            return;
                        }
                    } else {
                        self.flush_locked(&mut inner);
                    }
                }
                for (completer, out) in finished {
                    completer.complete(out);
                }
            }
        }

        fn kill_locked(&self, inner: &mut Inner) {
            if inner.killed {
                return;
            }
            inner.killed = true;
            // Unsubmitted runs carry no kernel references: free now.
            inner.pending.clear();
            // Dropping the batches drops their completers — every
            // outstanding handle resolves all-None immediately.
            inner.batches.clear();
        }

        /// Kill the engine mid-flight (the `FaultyDisk`-style fault
        /// hook): every outstanding and future handle resolves
        /// all-`None`; in-flight kernel reads drain into their (still
        /// live) buffers and are discarded.
        pub fn kill(&self) {
            let mut inner = self.inner.lock();
            let was_killed = inner.killed;
            self.kill_locked(&mut inner);
            if !was_killed && inner.inflight == 0 {
                // The poller may be parked with nothing in flight; wake
                // it with a NOP so it can observe the kill and exit.
                if self.ring.sq_push(&Sqe::nop()) {
                    let _ = self.ring.enter(1, 0, 0);
                }
            }
        }

        /// Kill the engine and join its poller thread. Idempotent.
        pub fn shutdown(&self) {
            self.kill();
            if let Some(handle) = self.poller.lock().take() {
                let _ = handle.join();
            }
        }
    }

    impl Drop for UringEngine {
        fn drop(&mut self) {
            self.shutdown();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;

        fn tmpfile(tag: &str) -> std::path::PathBuf {
            std::env::temp_dir().join(format!("ecfrm-uring-{tag}-{}", std::process::id()))
        }

        fn write_elements(path: &Path, es: usize, n: u64) {
            let mut f = File::create(path).unwrap();
            for o in 0..n {
                let byte = (o % 251) as u8;
                f.write_all(&vec![byte; es]).unwrap();
            }
            f.sync_all().unwrap();
        }

        #[test]
        fn probe_is_stable() {
            assert_eq!(supported(), supported());
        }

        #[test]
        fn roundtrip_with_coalescing_and_duplicates() {
            if !supported() {
                eprintln!("io_uring unsupported on this kernel — skipped");
                return;
            }
            let path = tmpfile("rt");
            const ES: usize = 4097; // straddles the 4 KiB alignment
            write_elements(&path, ES, 32);
            let engine = UringEngine::new(&path, ES, 8, true).unwrap();
            // Sequential run + duplicate + isolated elements, unsorted.
            let wanted = vec![(5u64, 0), (6, 1), (7, 2), (5, 3), (0, 4), (31, 5)];
            let got = engine.submit(wanted, 7).wait();
            for (i, want_off) in [(0, 5u64), (1, 6), (2, 7), (3, 5), (4, 0), (5, 31)] {
                assert_eq!(
                    got[i].as_deref(),
                    Some(&vec![(want_off % 251) as u8; ES][..]),
                    "slot {i}"
                );
            }
            assert_eq!(got[6], None, "slot with no present offset stays None");
            engine.shutdown();
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn many_batches_in_flight_on_a_tiny_ring() {
            if !supported() {
                eprintln!("io_uring unsupported on this kernel — skipped");
                return;
            }
            let path = tmpfile("depth");
            const ES: usize = 512;
            write_elements(&path, ES, 64);
            // Depth 2 forces the pending queue to absorb the overflow.
            let engine = UringEngine::new(&path, ES, 2, true).unwrap();
            let handles: Vec<_> = (0..16)
                .map(|i| {
                    let wanted: Vec<(u64, usize)> =
                        (0..8u64).map(|o| ((o * 7 + i) % 64, o as usize)).collect();
                    (i, wanted.clone(), engine.submit(wanted, 8))
                })
                .collect();
            for (i, wanted, handle) in handles {
                let got = handle.wait();
                for (offset, slot) in wanted {
                    assert_eq!(
                        got[slot].as_deref(),
                        Some(&vec![(offset % 251) as u8; ES][..]),
                        "batch {i} slot {slot}"
                    );
                }
            }
            engine.shutdown();
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn kill_resolves_everything_all_none() {
            if !supported() {
                eprintln!("io_uring unsupported on this kernel — skipped");
                return;
            }
            let path = tmpfile("kill");
            const ES: usize = 4096;
            write_elements(&path, ES, 128);
            let engine = UringEngine::new(&path, ES, 4, true).unwrap();
            let handles: Vec<_> = (0..32)
                .map(|_| engine.submit((0..64u64).map(|o| (o, o as usize)).collect(), 64))
                .collect();
            engine.kill();
            for handle in handles {
                let got = handle.wait(); // must not hang
                assert_eq!(got.len(), 64);
            }
            // Post-kill submissions resolve all-None immediately.
            let got = engine.submit(vec![(0, 0)], 1).wait();
            assert_eq!(got, vec![None]);
            engine.shutdown(); // idempotent with the kill
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod portable {
    use std::io;
    use std::path::Path;
    use std::sync::Arc;

    use crate::reactor::IoHandle;

    /// io_uring is Linux-only: always `false` here.
    pub fn supported() -> bool {
        false
    }

    /// Stub for platforms without io_uring; construction always fails,
    /// so [`FileDisk`](crate::file_disk::FileDisk) stays on the
    /// blocking sorted-run path.
    #[derive(Debug)]
    pub struct UringEngine {
        never: std::convert::Infallible,
    }

    impl UringEngine {
        /// Always `Err(Unsupported)` on this platform.
        pub fn new(
            _path: &Path,
            _element_size: usize,
            _depth: u32,
            _want_direct: bool,
        ) -> io::Result<Arc<Self>> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "io_uring is only available on Linux",
            ))
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn is_direct(&self) -> bool {
            match self.never {}
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn submit(&self, _wanted: Vec<(u64, usize)>, _n_out: usize) -> IoHandle {
            match self.never {}
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn kill(&self) {
            match self.never {}
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn shutdown(&self) {
            match self.never {}
        }
    }
}
