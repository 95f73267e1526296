//! The paper's motivating workload (§III-A): a library of MP3-sized
//! files — "the size of some common files (like MP3 files) is usually
//! from a few megabytes to dozens of megabytes and the size of each
//! element … is usually several megabytes", so user reads span *several
//! elements* and the most-loaded disk becomes the bottleneck.
//!
//! ```text
//! cargo run --release --example mp3_library
//! ```
//!
//! Stores a song library under standard LRC and EC-FRM-LRC, replays the
//! same random song fetches against both, and reports the modelled read
//! speed of each layout on the Savvio array.

use std::sync::Arc;

use ecfrm::codes::{CandidateCode, LrcCode};
use ecfrm::core::{LayoutKind, Scheme};
use ecfrm::sim::{mean, speed_mb_s, DiskModel, ReadModel};
use ecfrm::store::{ObjectMeta, ObjectStore};
use ecfrm::util::Rng;

/// 1 MB elements, as in the paper's discussion.
const ELEMENT: usize = 1_000_000;

fn main() {
    let code: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
    let mut rng = Rng::seed_from_u64(2015);

    // A library of songs: 3-12 MB each, by size.
    let songs: Vec<usize> = (0..40)
        .map(|_| rng.random_range(3usize..=12) * ELEMENT)
        .collect();
    let total_mb: usize = songs.iter().map(|s| s / ELEMENT).sum();
    println!("library: {} songs, {total_mb} MB total\n", songs.len());

    for scheme in [
        Scheme::builder(code.clone()).build(),
        Scheme::builder(code.clone())
            .layout(LayoutKind::EcFrm)
            .build(),
    ] {
        let name = scheme.name();
        let sim = ReadModel::uniform(scheme.n_disks(), DiskModel::savvio_10k3(), ELEMENT);
        let store = ObjectStore::new(scheme, ELEMENT);

        // Ingest the library (content is synthetic but unique per song),
        // keeping each song's extent by its index in `songs`.
        let extents: Vec<ObjectMeta> = songs
            .iter()
            .enumerate()
            .map(|(i, size)| {
                let body: Vec<u8> = (0..*size).map(|j| ((i * 37 + j) % 256) as u8).collect();
                store.append(&body)
            })
            .collect();
        store.flush();

        // Replay 500 random song fetches; model each fetch's time from
        // its read plan on the Savvio array.
        let mut replay = Rng::seed_from_u64(99);
        let mut speeds = Vec::new();
        let mut worst_case_ms: f64 = 0.0;
        for _ in 0..500 {
            let song = replay.random_range(0..songs.len());
            let (extent, size) = (extents[song], &songs[song]);
            let first = extent.offset / ELEMENT as u64;
            let count = size / ELEMENT;
            let plan = store.scheme().normal_read_plan(first, count);
            let t = sim.read_time_ms(&plan.per_disk_load(), &mut replay);
            worst_case_ms = worst_case_ms.max(t);
            speeds.push(speed_mb_s(*size, t));

            // Also actually fetch the bytes through the threaded engine,
            // verifying the data path end to end.
            let (body, _) = store.read(extent).expect("read song");
            assert_eq!(body.len(), *size);
        }
        println!(
            "{name:<18} mean fetch speed {:>6.1} MB/s | slowest fetch {:>6.0} ms",
            mean(&speeds),
            worst_case_ms
        );
    }

    println!("\nEC-FRM serves the same songs from the same disks faster because");
    println!("sequential elements spread over all n disks, capping the per-disk queue.");
}
