//! `figures all ablations` prints the committed `figures_full.txt`.
//!
//! The harness is seeded, so a change to a model, a planner or a layout
//! that moves any printed digit fails here. The file keeps cargo's two
//! leading lines (how it was made) and one `bench=` provenance line per
//! figure, which names the host's commit, kernel backend and CPU count;
//! those lines are skipped, every other line must match.

use std::path::Path;
use std::process::Command;

/// The lines of a run that are not facts about the host it ran on.
fn pinned<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    lines.filter(|l| !l.starts_with("bench=")).collect()
}

#[test]
fn figures_all_ablations_prints_the_committed_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["all", "ablations"])
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "figures failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../figures_full.txt");
    let committed = std::fs::read_to_string(&path).expect("read figures_full.txt");
    // Cargo's `Finished` and `Running` lines head the committed file.
    let want = pinned(committed.lines().skip(2));
    let got = pinned(got.lines());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "line {} (after the skipped lines) differs", i + 1);
    }
    assert_eq!(
        got.len(),
        want.len(),
        "figures printed a different number of lines"
    );
}
