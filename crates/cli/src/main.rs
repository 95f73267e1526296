//! `ecfrm` — command-line front end for the EC-FRM framework.
//!
//! ```text
//! ecfrm plan    --code lrc:6,2,2 --layout ecfrm --start 0 --count 8 [--failed 2]
//! ecfrm serve   --listen 127.0.0.1:7000 --dir ./shard0
//! ecfrm serve   --listen 127.0.0.1:7100 --front --code rs:6,3 --layout ecfrm \
//!               --tenant web:latency --tenant scan:bulk:8000000 \
//!               --remote 127.0.0.1:7000,...   # front node over shard nodes
//! ecfrm bench   --code rs:4,2 --layout ecfrm \
//!               --remote 127.0.0.1:7000,...   # one address per disk
//! ecfrm drill   --code rs:6,3 --layout ecfrm --disk 3 --rate 20000000
//! ```
//!
//! Every command that builds a scheme takes `--code` / `--layout`
//! (default `rs:6,3` / `ecfrm`), and every command that builds a store
//! keeps its data in the store's own format: offset-salted cell footers
//! and a merkle root per stripe. `plan` prints the per-disk access
//! distribution of a read — the paper's Figures 3 and 7 as a command.
//! `serve` exposes one shard over TCP and `bench --remote`
//! drives the full put→encode→network→decode path against such shards.
//! `serve --front` additionally hosts the multi-tenant object front
//! door on the same listener: named objects, per-tenant QoS admission
//! (`--tenant name:class[:rate]`), and the parity-aware read cache
//! (`--cache-bytes`), over local disks or `--remote` shard nodes.
//! `drill` is a kill-and-repair fire drill: wipe a disk, restore full
//! redundancy with the background repair pipeline under foreground
//! load, and report both sides' performance. With `--corrupt` the
//! victim disk silently flips bits instead of dying: verify-on-read
//! must catch every lie before it reaches a caller, heal the disk, and
//! finish with a clean merkle scrub. `scrub` times the merkle scrub
//! against the decode scrub and (with `--corrupt`) proves a planted
//! flip is localized to the exact element.

mod args;
mod error;
mod ops;

use error::CliError;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        return Err(CliError::Usage(usage()));
    };
    // The command is resolved before its flags are parsed, so an
    // unknown command is reported as one whatever flags follow it.
    let command: fn(&args::Options) -> Result<(), CliError> = match cmd.as_str() {
        "plan" => ops::plan,
        "bench" => ops::bench,
        "drill" => ops::drill,
        "scrub" => ops::scrub,
        "serve" => ops::serve,
        "stats" => ops::stats,
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return Ok(());
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}`\n{}",
                usage()
            )))
        }
    };
    command(&args::Options::parse(&argv[1..])?)
}

fn usage() -> String {
    "usage: ecfrm <command> [options]\n\
     commands:\n\
     \x20 plan    --start <elem> --count <elems> [--failed <disk>]\n\
     \x20 bench   [--element-size <bytes>] [--count <trials>]\n\
     \x20         [--stripes small|full|<n>] [--stats] [--json <file>]\n\
     \x20         [--file-io auto|blocking|uring[:depth]]   (local disk read backend)\n\
     \x20         [--remote host:port,host:port,...]   (one address per disk)\n\
     \x20 drill   [--disk <victim>] [--stripes small|full|<n>]\n\
     \x20         [--workers <n>] [--rate <bytes/s>] [--corrupt] [--stats] [--json <file>]\n\
     \x20         (kill-and-repair fire drill: background repair under foreground load;\n\
     \x20          --corrupt injects silent bit-rot instead of a clean kill)\n\
     \x20 scrub   [--stripes small|full|<n>] [--corrupt]\n\
     \x20         [--stats] [--json <file>]\n\
     \x20         (merkle vs decode scrub timing; --corrupt plants bit-rot and checks localization)\n\
     \x20 serve   --listen <host:port> [--dir <shard dir>] [--element-size <bytes>]\n\
     \x20         [--file-io auto|blocking|uring[:depth]]\n\
     \x20         [--front]   (object front door: opcodes 11-15)\n\
     \x20         [--tenant name:latency|bulk[:rate_bytes_per_s]]...\n\
     \x20         [--cache-bytes <n>]\n\
     \x20         [--remote host:port,...]   (front store over remote shards, one per disk)\n\
     \x20 stats   --remote host:port[,host:port,...] [--json <file>]\n\
     plan, bench, drill, scrub and serve --front build their scheme from\n\
     \x20 [--code <rs:K,M|crs:K,M|lrc:K,L,M|xor:K>] [--layout <name>] (default rs:6,3 / ecfrm)\n\
     \x20 [--racks <n>]: contiguous failure domains; repair and degraded reads prefer same-rack helpers\n\
     layouts: standard | rotated | krotated | shuffled | ecfrm"
        .to_string()
}
