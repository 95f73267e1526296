//! Real-file persistence: `ThreadedArray` over `FileDisk` backends.
//!
//! The simulated benches use in-memory disks; these tests pin down the
//! file-backed path — batch round-trips through real files, survival of
//! a close-and-reopen cycle, and a full `ObjectStore` over reopened
//! disks.

use std::sync::Arc;

use ecfrm::codes::LrcCode;
use ecfrm::core::{LayoutKind, Scheme};
use ecfrm::integrity::FOOTER_LEN;
use ecfrm::sim::{Address, DiskBackend, FileDisk, ThreadedArray};
use ecfrm::store::ObjectStore;

const ELEMENT: usize = 256;
/// On-disk cell size for store-backed disks: payload plus the
/// per-element checksum footer the store appends at seal time.
const CELL: usize = ELEMENT + FOOTER_LEN;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ecfrm-file-array-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn file_backends(dir: &std::path::Path, n: usize, cell: usize) -> Vec<Arc<dyn DiskBackend>> {
    (0..n)
        .map(|d| {
            Arc::new(FileDisk::create(dir.join(format!("d{d}.bin")), cell).unwrap())
                as Arc<dyn DiskBackend>
        })
        .collect()
}

#[test]
fn threaded_array_roundtrips_through_files() {
    let dir = tmpdir("roundtrip");
    let array = ThreadedArray::from_backends(file_backends(&dir, 4, ELEMENT));

    let items: Vec<(Address, Vec<u8>)> = (0..32u64)
        .map(|i| {
            (
                ((i % 4) as usize, i / 4),
                vec![(i * 3 % 251) as u8; ELEMENT],
            )
        })
        .collect();
    let addrs: Vec<Address> = items.iter().map(|(a, _)| *a).collect();
    let want: Vec<Vec<u8>> = items.iter().map(|(_, b)| b.clone()).collect();
    array.write_batch(items);

    let got = array.read_batch(&addrs);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.as_ref(), Some(w));
    }
    // Absent offsets read as None, not junk.
    assert_eq!(array.read_batch(&[(0, 999)]), vec![None]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_disks_survive_reopen() {
    let dir = tmpdir("reopen");
    {
        let array = ThreadedArray::from_backends(file_backends(&dir, 3, ELEMENT));
        array.write_batch(
            (0..9u64)
                .map(|i| (((i % 3) as usize, i / 3), vec![i as u8 + 1; ELEMENT]))
                .collect(),
        );
    } // arrays and disks dropped: files closed

    let reopened: Vec<Arc<dyn DiskBackend>> = (0..3)
        .map(|d| {
            Arc::new(FileDisk::open(dir.join(format!("d{d}.bin")), ELEMENT).unwrap())
                as Arc<dyn DiskBackend>
        })
        .collect();
    let array = ThreadedArray::from_backends(reopened);
    for i in 0..9u64 {
        let got = array.read_batch(&[((i % 3) as usize, i / 3)]);
        assert_eq!(got[0].as_ref().unwrap(), &vec![i as u8 + 1; ELEMENT]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn object_store_over_files_survives_reopen_and_disk_loss() {
    let dir = tmpdir("store");
    let scheme = Scheme::builder(Arc::new(LrcCode::new(6, 2, 2)))
        .layout(LayoutKind::EcFrm)
        .build();
    let n = scheme.n_disks();
    let data: Vec<u8> = (0..20_000).map(|i| ((i * 7 + 3) % 256) as u8).collect();
    {
        let store = ObjectStore::with_array(
            scheme.clone(),
            ELEMENT,
            ThreadedArray::from_backends(file_backends(&dir, n, CELL)),
        );
        let obj = store.append(&data);
        store.flush();
        assert_eq!(store.read(obj).unwrap().0, data);
    }

    // Reopen the same files; the elements must still decode. Metadata is
    // per-store, so re-ingest bookkeeping by reading raw elements: open
    // a fresh store, put the same object, and confirm the bytes land
    // identically (FileDisk offsets are deterministic).
    let reopened: Vec<Arc<dyn DiskBackend>> = (0..n)
        .map(|d| {
            Arc::new(FileDisk::open(dir.join(format!("d{d}.bin")), CELL).unwrap())
                as Arc<dyn DiskBackend>
        })
        .collect();
    let array = ThreadedArray::from_backends(reopened);
    // Every element written by the first store is still on disk.
    let mut elements = 0usize;
    for d in 0..n {
        elements += array.disk(d).len();
    }
    assert!(elements > 0, "shard files retained elements after reopen");

    // A disk wiped on the reopened array degrades but does not lose data
    // for a store built over the same array.
    let store = ObjectStore::with_array(scheme, ELEMENT, array);
    let obj2 = store.append(&data);
    store.flush();
    store.fail_disk(1).unwrap();
    assert_eq!(store.read(obj2).unwrap().0, data);
    let _ = std::fs::remove_dir_all(&dir);
}
