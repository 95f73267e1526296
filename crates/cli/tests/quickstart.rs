//! The `ecfrm` command line as the README shows it: every line of its
//! quick-start runs and exits 0, the chunk-directory commands are gone,
//! and `bench` leaves no temp directory behind.

use std::process::{Command, Output};

const README: &str = include_str!("../../../README.md");
const PREFIX: &str = "target/release/ecfrm ";

fn ecfrm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ecfrm"))
        .args(args)
        .output()
        .expect("run ecfrm")
}

/// The `ecfrm` lines of the ```` ```bash ```` block under "## The CLI",
/// continuations joined and comments dropped.
fn quickstart_lines() -> Vec<String> {
    let section = README
        .split_once("\n## The CLI\n")
        .expect("README has a `## The CLI` section")
        .1;
    let block = section
        .split_once("```bash\n")
        .and_then(|(_, rest)| rest.split_once("\n```"))
        .expect("`## The CLI` has a ```bash block")
        .0;
    block
        .replace("\\\n", " ")
        .lines()
        .filter_map(|line| line.trim().strip_prefix(PREFIX))
        .map(|cmd| cmd.split('#').next().unwrap_or_default().trim().to_string())
        .collect()
}

#[test]
fn every_readme_quickstart_line_exits_zero() {
    let lines = quickstart_lines();
    assert!(lines.len() >= 5, "too few ecfrm lines: {lines:?}");
    for line in &lines {
        let args: Vec<&str> = line.split_whitespace().collect();
        // A store the size of `--stripes small` keeps a debug build fast.
        if ["bench", "drill", "scrub"].contains(&args[0]) {
            assert!(
                line.contains("--stripes small"),
                "`{line}` ingests too much"
            );
        }
        let out = ecfrm(&args);
        assert!(
            out.status.success(),
            "`ecfrm {line}` exited {:?}\nstdout:\n{}\nstderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn the_chunk_directory_commands_are_unknown() {
    for cmd in ["encode", "decode", "repair", "info", "verify"] {
        let out = ecfrm(&[cmd, "--input", "big.bin", "--dir", "./chunks"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command `{cmd}`")),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn a_failing_bench_removes_its_temp_dir() {
    let tmp = std::env::temp_dir();
    let json = tmp
        .join(format!("ecfrm-quickstart-{}-absent", std::process::id()))
        .join("metrics.json");
    // The bench runs to the end and then fails to write its JSON.
    let child = Command::new(env!("CARGO_BIN_EXE_ecfrm"))
        .args("bench --code rs:4,2 --layout ecfrm --stripes small --count 5 --element-size 512 --json".split(' '))
        .arg(&json)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn ecfrm");
    let pid = child.id();
    let out = child.wait_with_output().expect("wait for ecfrm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("metrics.json"), "{stderr}");

    let dir = format!("ecfrm-bench-{pid}");
    let left: Vec<String> = std::fs::read_dir(&tmp)
        .expect("list the temp dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| *name == dir || name.starts_with(&format!("{dir}-")))
        .collect();
    assert!(left.is_empty(), "bench left {left:?} in {}", tmp.display());
}
