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

mod args;
mod error;
mod ops;

use error::CliError;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed its end of the pipe has read all it wants.
        Err(CliError::Io { source, .. }) if source.kind() == ErrorKind::BrokenPipe => {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        return Err(CliError::Usage(usage()));
    };
    // The command is resolved before its flags are parsed, so an
    // unknown command is reported as one whatever flags follow it.
    let command: fn(&args::Options, &mut dyn Write) -> Result<(), CliError> = match cmd.as_str() {
        "plan" => ops::plan,
        "bench" => ops::bench,
        "serve" => ops::serve,
        "stats" => ops::stats,
        "help" | "--help" | "-h" => return Ok(writeln!(out, "{}", usage())?),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}`\n{}",
                usage()
            )))
        }
    };
    command(&args::Options::parse(&argv[1..])?, out)
}

fn usage() -> String {
    "usage: ecfrm <command> [options]\n\
     commands:\n\
     \x20 plan    --start <elem> --count <elems> [--failed <disk>]\n\
     \x20 bench   [--element-size <bytes>] [--count <trials>]\n\
     \x20         [--stripes small|full|<n>] [--stats] [--json <file>]\n\
     \x20         [--remote host:port,host:port,...]   (one address per disk)\n\
     \x20 serve   --listen <host:port> [--dir <shard dir>] [--element-size <bytes>]\n\
     \x20         [--front]   (object front door: opcodes 13-15, 18)\n\
     \x20         [--tenant name:latency|bulk[:rate_bytes_per_s]]...\n\
     \x20         [--cache-bytes <n>]\n\
     \x20         [--remote host:port,...]   (front store over remote shards, one per disk)\n\
     \x20 stats   --remote host:port[,host:port,...] [--json <file>]\n\
     plan, bench and serve --front build their scheme from\n\
     \x20 [--code <rs:K,M|crs:K,M|lrc:K,L,M|xor:K>] [--layout <name>] (default rs:6,3 / ecfrm)\n\
     \x20 [--racks <n>]: contiguous failure domains; repair and degraded reads prefer same-rack helpers\n\
     layouts: standard | rotated | krotated | shuffled | ecfrm"
        .to_string()
}
