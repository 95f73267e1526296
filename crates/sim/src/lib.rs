//! The evaluation testbed: a disk-array simulator standing in for the
//! paper's Xeon X5472 machine with a 16-disk Seagate Savvio 10K.3 array.
//!
//! Two engines are provided:
//!
//! * [`ArraySim`] — an analytic timing model. The paper's own performance
//!   argument (§III) is that a parallel read completes when the slowest —
//!   most-loaded — disk finishes; the model computes exactly that: per
//!   disk, the sum of per-element service times (seek + rotation +
//!   transfer, calibrated to the Savvio 10K.3 datasheet), optionally with
//!   multiplicative jitter, and takes the maximum. Because every compared
//!   layout runs on identical disk parameters, *relative* speeds depend
//!   only on the load distributions — which is the result being
//!   reproduced.
//! * [`ThreadedArray`] — a real concurrent engine: a completion-driven
//!   reactor ([`reactor`]) submitting one vectored operation per disk
//!   over in-memory ([`MemDisk`]) element storage, exercising the
//!   actual parallel submit/complete code path a storage system would
//!   use.
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

pub use array::{ArraySim, Jitter};
pub use disk::DiskModel;
pub use event::{Completion, EventSim, Request};
pub use fault::{FaultKind, FaultyDisk};
pub use file_disk::{FileDisk, FileIoConfig, FileIoMode};
pub use metrics::{mean, speed_mb_s, stddev, NetCounters, NetStats, Summary};
pub use net::{ClusterSim, NetModel};
pub use reactor::{
    io_pair, IoCompleter, IoHandle, IoResults, IoSnapshot, Op, Reactor, ReactorStats,
};
pub use threaded::{
    combine_status, Address, CombinePeerSpec, CombineReply, CombineSpec, DiskBackend, MemDisk,
    RunBuf, ThreadedArray, WriteRun, WriteShape,
};
pub use uring::UringSnapshot;
pub use workload::{
    DegradedReadWorkload, NormalReadWorkload, ReadRequest, TraceObject, TraceWorkload, Zipf,
};
