//! An append-only erasure-coded object store — the "erasure coded cloud
//! storage system" the paper targets, assembled from the workspace's
//! pieces.
//!
//! The write path follows the paper's §I observation about cloud storage:
//! writes are append-only and buffered until a stripe is full, then the
//! whole stripe is erasure coded at once ("full stripe writes"), so write
//! performance is layout-independent and *reads* are the metric that
//! matters. The read path plans through the bound
//! [`Scheme`](ecfrm_core::Scheme) (normal or degraded depending on disk
//! state), executes the plan in parallel on a
//! [`ThreadedArray`](ecfrm_sim::ThreadedArray), and reconstructs lost
//! elements inline.
//!
//! Disk loss is handled *online*: a background [`RepairManager`] watches
//! for unresponsive disks, rebuilds their stripes through the same
//! batched read path and SIMD decode the foreground uses — stripes hot
//! foreground reads touched first — under a token-bucket rate limit
//! that keeps foreground tail latency bounded (see the
//! [`repair`] module docs for the full pipeline).
//!
//! ```
//! use std::sync::Arc;
//! use ecfrm_codes::LrcCode;
//! use ecfrm_core::Scheme;
//! use ecfrm_store::ObjectStore;
//!
//! let scheme = Scheme::builder(Arc::new(LrcCode::new(6, 2, 2)))
//!     .layout(ecfrm_core::LayoutKind::EcFrm)
//!     .build();
//! let store = ObjectStore::new(scheme, 1024); // 1 KiB elements
//! store.put("song.mp3", &vec![7u8; 10_000]).unwrap();
//!
//! // Normal read.
//! assert_eq!(store.get("song.mp3").unwrap().len(), 10_000);
//!
//! // Degraded read: any single disk may fail.
//! store.fail_disk(3).unwrap();
//! assert_eq!(store.get("song.mp3").unwrap(), vec![7u8; 10_000]);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod front;
pub mod meta;
pub mod repair;
pub mod store;

pub use error::StoreError;
pub use front::{FrontConfig, FrontDoor, Piece, QosClass, TenantSpec};
pub use meta::{
    ExtentRecord, ObjectMeta, ObjectStat, ReadStats, ScrubReport, StoreStats, StripeManifest,
    StripeRepair,
};
pub use repair::{DiskTable, RepairConfig, RepairManager, RepairProgress, Replacer};
pub use store::{ObjectStore, ReadOpts};
