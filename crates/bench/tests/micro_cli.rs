//! The `micro` driver's command line.

use std::process::Command;

#[test]
fn an_unknown_bench_exits_non_zero_and_lists_the_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_micro"))
        .arg("warp-drive")
        .output()
        .expect("run micro");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in [
        "kernels",
        "read_path",
        "repair",
        "scrub",
        "multitenant",
        "file_io",
        "all",
    ] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
