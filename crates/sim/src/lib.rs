//! The evaluation testbed: a disk-array simulator standing in for the
//! paper's Xeon X5472 machine with a 16-disk Seagate Savvio 10K.3 array.
//!
//! Two engines are provided:
//!
//! * [`ReadModel`] — the one analytic timing model. The paper's own
//!   performance argument (§III) is that a parallel read completes when
//!   the slowest — most-loaded — disk finishes; the model computes
//!   exactly that: per disk, the sum of per-element service times (seek +
//!   rotation + transfer, calibrated to the Savvio 10K.3 datasheet),
//!   optionally with multiplicative jitter, and takes the maximum, bounded
//!   below by the [`NetModel`]'s links. Because every compared layout
//!   runs on identical disk parameters, *relative* speeds depend only on
//!   the load distributions — which is the result being reproduced. Its
//!   event drivers ([`event`]) serve many requests in flight through the
//!   same per-disk service function.
//! * [`ThreadedArray`] — a real concurrent engine: a completion-driven
//!   reactor ([`reactor`]) submitting one vectored operation per disk
//!   over in-memory ([`MemDisk`]), file ([`FileDisk`]) or fault-injecting
//!   ([`FaultyDisk`]) element storage, exercising the actual parallel
//!   submit/complete code path a storage system would use.
//!
//! Plus the paper's workload generators (§VI-B/C): uniformly random start
//! element, size 1–20 elements, and (for degraded reads) a uniformly
//! random failed disk.

#![warn(missing_docs)]

pub mod array;
pub mod disk;
pub mod event;
pub mod fault;
pub mod file_disk;
pub mod metrics;
pub mod net;
pub mod reactor;
pub mod threaded;
pub mod uring;
pub mod workload;

pub use array::{Jitter, ReadModel};
pub use disk::DiskModel;
pub use event::{latency_percentile_ms, mean_latency_ms, Completion, Request};
pub use fault::{FaultKind, FaultyDisk};
pub use file_disk::{FileDisk, FileIoConfig, FileIoMode};
pub use metrics::{mean, speed_mb_s};
pub use net::NetModel;
pub use reactor::{io_pair, IoCompleter, IoHandle, IoResults, IoSnapshot, ReactorStats};
pub use threaded::{
    combine_status, Address, CombinePeerSpec, CombineReply, CombineSpec, DiskAsk, DiskBackend,
    MemDisk, RunBuf, ThreadedArray, WriteRun, WriteShape,
};
pub use uring::UringSnapshot;
pub use workload::{
    DegradedReadWorkload, NormalReadWorkload, ReadRequest, TraceObject, TraceWorkload, Zipf,
};
