//! Minimal `--flag value` argument parsing (no external dependency) and
//! code/layout specification strings.

use std::sync::Arc;

use ecfrm_codes::{CandidateCode, LrcCode, RsCode, XorCode};
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_sim::FileIoConfig;

/// Parsed command options.
#[derive(Debug, Default)]
pub struct Options {
    /// `--code rs:6,3` etc.
    pub code: Option<String>,
    /// `--layout ecfrm` etc.
    pub layout: Option<String>,
    /// `--element-size 65536`.
    pub element_size: Option<usize>,
    /// `--dir shard-dir`: file-backed disks (serve).
    pub dir: Option<String>,
    /// `--disk 3`.
    pub disk: Option<usize>,
    /// `--start 0`.
    pub start: Option<u64>,
    /// `--count 8`.
    pub count: Option<usize>,
    /// `--failed 2` (repeatable).
    pub failed: Vec<usize>,
    /// `--seed 7` (shuffled layout).
    pub seed: u64,
    /// `--listen 127.0.0.1:7000` (serve).
    pub listen: Option<String>,
    /// `--remote host:port,host:port,...` (bench over the wire).
    pub remote: Vec<String>,
    /// `--stats`: print the metrics registry after the command.
    pub stats: bool,
    /// `--json file`: also dump the metrics registry as JSON.
    pub json: Option<String>,
    /// `--stripes small|full|<n>` (bench ingest size).
    pub stripes: Option<String>,
    /// `--rate 5000000`: repair rate limit in bytes/second (drill).
    pub rate: Option<u64>,
    /// `--workers 2`: repair worker threads (drill).
    pub workers: Option<usize>,
    /// `--corrupt`: inject silent bit-rot instead of (drill) or in
    /// addition to (scrub) the clean-loss fault.
    pub corrupt: bool,
    /// `--file-io auto|blocking|uring[:depth]` (serve/bench local
    /// disks).
    pub file_io: Option<String>,
    /// `--racks 3`: split the disks into that many contiguous failure
    /// domains; repair and degraded reads prefer same-rack helpers.
    pub racks: Option<usize>,
    /// `--front`: serve the multi-tenant object front door (namespace +
    /// QoS admission + read cache) on top of the shard, not just raw
    /// shard ops. The node builds its store from `--code`/`--layout`.
    pub front: bool,
    /// `--tenant name:class[:rate]` (repeatable): register a tenant on
    /// the front door, e.g. `web:latency` or `scan:bulk:8000000`.
    pub tenant: Vec<String>,
    /// `--cache-bytes 33554432`: front-door element cache capacity
    /// (`0` disables caching).
    pub cache_bytes: Option<usize>,
}

impl Options {
    /// Parse `--flag value` pairs.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut o = Options {
            seed: 7,
            ..Default::default()
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--code" => o.code = Some(value()?),
                "--layout" => o.layout = Some(value()?),
                "--element-size" => {
                    o.element_size = Some(
                        value()?
                            .parse()
                            .map_err(|e| format!("bad --element-size: {e}"))?,
                    )
                }
                "--dir" => o.dir = Some(value()?),
                "--disk" => {
                    o.disk = Some(value()?.parse().map_err(|e| format!("bad --disk: {e}"))?)
                }
                "--start" => {
                    o.start = Some(value()?.parse().map_err(|e| format!("bad --start: {e}"))?)
                }
                "--count" => {
                    o.count = Some(value()?.parse().map_err(|e| format!("bad --count: {e}"))?)
                }
                "--failed" => o
                    .failed
                    .push(value()?.parse().map_err(|e| format!("bad --failed: {e}"))?),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--listen" => o.listen = Some(value()?),
                "--remote" => o
                    .remote
                    .extend(value()?.split(',').map(|a| a.trim().to_string())),
                // Boolean flags take no value.
                "--stats" => o.stats = true,
                "--corrupt" => o.corrupt = true,
                "--front" => o.front = true,
                "--tenant" => o.tenant.push(value()?),
                "--cache-bytes" => {
                    o.cache_bytes = Some(
                        value()?
                            .parse()
                            .map_err(|e| format!("bad --cache-bytes: {e}"))?,
                    )
                }
                "--json" => o.json = Some(value()?),
                "--stripes" => o.stripes = Some(value()?),
                "--rate" => {
                    o.rate = Some(value()?.parse().map_err(|e| format!("bad --rate: {e}"))?)
                }
                "--file-io" => o.file_io = Some(value()?),
                "--racks" => {
                    o.racks = Some(value()?.parse().map_err(|e| format!("bad --racks: {e}"))?)
                }
                "--workers" => {
                    o.workers = Some(
                        value()?
                            .parse()
                            .map_err(|e| format!("bad --workers: {e}"))?,
                    )
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(o)
    }

    /// Required-flag accessor with a friendly error.
    pub fn require<'a, T>(v: &'a Option<T>, name: &str) -> Result<&'a T, String> {
        v.as_ref()
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// The scheme `--code` / `--layout` name (`rs:6,3` / `ecfrm` when
    /// left out), with `--seed` and `--racks` applied. Every command
    /// that builds a scheme builds it here.
    pub fn scheme(&self) -> Result<Scheme, String> {
        parse_scheme(
            self.code.as_deref().unwrap_or("rs:6,3"),
            self.layout.as_deref().unwrap_or("ecfrm"),
            self.seed,
            self.racks,
        )
    }

    /// Resolve `--file-io` to a [`FileIoConfig`]: `auto` (probe, the
    /// default), `blocking`, `uring`, or `uring:<depth>` for an
    /// explicit queue depth. The `ECFRM_FORCE_FILE_IO` environment
    /// variable still overrides whatever is chosen here.
    pub fn file_io_config(&self) -> Result<FileIoConfig, String> {
        let spec = self.file_io.as_deref().unwrap_or("auto");
        match spec {
            "auto" => Ok(FileIoConfig::default()),
            "blocking" => Ok(FileIoConfig::blocking()),
            "uring" => Ok(FileIoConfig::uring(FileIoConfig::default().depth)),
            _ => {
                if let Some(depth) = spec.strip_prefix("uring:") {
                    let depth = depth
                        .parse::<u32>()
                        .ok()
                        .filter(|&d| d > 0)
                        .ok_or_else(|| format!("bad --file-io depth `{depth}`"))?;
                    Ok(FileIoConfig::uring(depth))
                } else {
                    Err(format!(
                        "bad --file-io `{spec}` (use auto|blocking|uring[:depth])"
                    ))
                }
            }
        }
    }

    /// Resolve `--stripes` to an ingest size: `small` = 8 stripes (the
    /// CI smoke size), `full` = 64 (the default), or a literal count.
    pub fn stripe_count(&self) -> Result<usize, String> {
        match self.stripes.as_deref() {
            None | Some("full") => Ok(64),
            Some("small") => Ok(8),
            Some(n) => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad --stripes `{n}` (use small|full|<positive count>)")),
        }
    }
}

/// Parse a code spec: `rs:6,3`, `crs:8,4`, `lrc:6,2,2`, `xor:4`.
pub fn parse_code(spec: &str) -> Result<Arc<dyn CandidateCode>, String> {
    let (kind, params) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad code spec `{spec}` (expected kind:params)"))?;
    let nums: Vec<usize> = params
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|e| format!("bad code params: {e}"))
        })
        .collect::<Result<_, _>>()?;
    match (kind, nums.as_slice()) {
        ("rs", [k, m]) => Ok(Arc::new(RsCode::vandermonde(*k, *m))),
        ("crs", [k, m]) => Ok(Arc::new(RsCode::cauchy(*k, *m))),
        ("lrc", [k, l, m]) => Ok(Arc::new(LrcCode::new(*k, *l, *m))),
        ("xor", [k]) => Ok(Arc::new(XorCode::new(*k))),
        _ => Err(format!(
            "bad code spec `{spec}` (use rs:K,M | crs:K,M | lrc:K,L,M | xor:K)"
        )),
    }
}

/// Build a scheme from spec strings. Layout names are whatever
/// [`LayoutKind`]'s `FromStr` accepts (`standard`, `rotated`,
/// `krotated`, `shuffled`, `ecfrm`, case-insensitive). `racks`
/// partitions the disks into that many contiguous failure domains
/// (helper selection prefers the failed disk's domain); `None` leaves
/// the scheme domain-blind.
pub fn parse_scheme(
    code: &str,
    layout: &str,
    seed: u64,
    racks: Option<usize>,
) -> Result<Scheme, String> {
    let code = parse_code(code)?;
    let n = code.n();
    let kind: LayoutKind = layout.parse()?;
    let mut builder = Scheme::builder(code).layout(kind).seed(seed);
    if let Some(r) = racks {
        if r == 0 || r > n {
            return Err(format!("bad --racks {r}: need between 1 and {n} racks"));
        }
        builder = builder.racks(r);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_basic_flags() {
        let o = Options::parse(&sv(&[
            "--code",
            "rs:6,3",
            "--layout",
            "ecfrm",
            "--element-size",
            "1024",
            "--failed",
            "2",
            "--failed",
            "5",
        ]))
        .unwrap();
        assert_eq!(o.code.as_deref(), Some("rs:6,3"));
        assert_eq!(o.element_size, Some(1024));
        assert_eq!(o.failed, vec![2, 5]);
    }

    #[test]
    fn parse_network_flags() {
        let o = Options::parse(&sv(&[
            "--listen",
            "127.0.0.1:7000",
            "--remote",
            "10.0.0.1:7000,10.0.0.2:7000",
            "--remote",
            "10.0.0.3:7000",
        ]))
        .unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:7000"));
        assert_eq!(
            o.remote,
            vec!["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"]
        );
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Options::parse(&sv(&["--code"])).is_err());
        assert!(Options::parse(&sv(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn code_specs() {
        assert_eq!(parse_code("rs:6,3").unwrap().n(), 9);
        assert_eq!(parse_code("crs:8,4").unwrap().n(), 12);
        assert_eq!(parse_code("lrc:6,2,2").unwrap().n(), 10);
        assert_eq!(parse_code("xor:4").unwrap().n(), 5);
        assert!(parse_code("rs:6").is_err());
        assert!(parse_code("nope:1,2").is_err());
        assert!(parse_code("rs").is_err());
    }

    #[test]
    fn scheme_specs() {
        assert_eq!(
            parse_scheme("rs:6,3", "ecfrm", 0, None).unwrap().name(),
            "EC-FRM-RS(6,3)"
        );
        assert_eq!(
            parse_scheme("lrc:6,2,2", "standard", 0, None)
                .unwrap()
                .name(),
            "LRC(6,2,2)"
        );
        assert!(parse_scheme("rs:6,3", "diagonal", 0, None).is_err());
        // Layout names route through LayoutKind::from_str, so every
        // registered layout — including krotated — parses.
        assert_eq!(
            parse_scheme("rs:6,3", "krotated", 0, None).unwrap().name(),
            "KROTATED-RS(6,3)"
        );
        assert!(parse_scheme("rs:6,3", "shuffled", 9, None).is_ok());
        // One set of defaults for every command that builds a scheme.
        assert_eq!(
            Options::default().scheme().unwrap().name(),
            "EC-FRM-RS(6,3)"
        );
    }

    #[test]
    fn racks_flag_partitions_failure_domains() {
        let o = Options::parse(&sv(&["--racks", "3"])).unwrap();
        assert_eq!(o.racks, Some(3));
        // RS(6,3) has 9 disks: 3 contiguous racks of 3.
        let scheme = parse_scheme("rs:6,3", "ecfrm", 0, Some(3)).unwrap();
        assert_eq!(scheme.domains().n_domains(), 3);
        assert!(scheme.domains().same_domain(0, 2));
        assert!(!scheme.domains().same_domain(2, 3));
        // Domain-blind by default, and bad counts are caught before the
        // builder can panic.
        assert_eq!(
            parse_scheme("rs:6,3", "ecfrm", 0, None)
                .unwrap()
                .domains()
                .n_domains(),
            1
        );
        assert!(parse_scheme("rs:6,3", "ecfrm", 0, Some(0)).is_err());
        assert!(parse_scheme("rs:6,3", "ecfrm", 0, Some(10)).is_err());
        assert!(Options::parse(&sv(&["--racks", "many"])).is_err());
    }

    #[test]
    fn repair_drill_flags() {
        let o = Options::parse(&sv(&[
            "--rate",
            "5000000",
            "--workers",
            "4",
            "--disk",
            "3",
            "--corrupt",
        ]))
        .unwrap();
        assert_eq!(o.rate, Some(5_000_000));
        assert_eq!(o.workers, Some(4));
        assert_eq!(o.disk, Some(3));
        assert!(o.corrupt);
        assert!(!Options::default().corrupt);
        assert!(Options::parse(&sv(&["--rate", "fast"])).is_err());
        assert!(Options::parse(&sv(&["--workers", "-1"])).is_err());
    }

    #[test]
    fn file_io_flag() {
        use ecfrm_sim::FileIoMode;
        let with = |s: &str| Options {
            file_io: Some(s.into()),
            ..Default::default()
        };
        let o = Options::parse(&sv(&["--file-io", "uring:32"])).unwrap();
        assert_eq!(o.file_io.as_deref(), Some("uring:32"));
        let cfg = o.file_io_config().unwrap();
        assert_eq!(cfg.mode, FileIoMode::Uring);
        assert_eq!(cfg.depth, 32);
        assert_eq!(
            Options::default().file_io_config().unwrap().mode,
            FileIoMode::Auto
        );
        assert_eq!(
            with("blocking").file_io_config().unwrap().mode,
            FileIoMode::Blocking
        );
        assert_eq!(
            with("uring").file_io_config().unwrap().mode,
            FileIoMode::Uring
        );
        assert!(with("uring:0").file_io_config().is_err());
        assert!(with("uring:lots").file_io_config().is_err());
        assert!(with("mmap").file_io_config().is_err());
    }

    #[test]
    fn front_door_flags() {
        let o = Options::parse(&sv(&[
            "--front",
            "--tenant",
            "web:latency",
            "--tenant",
            "scan:bulk:8000000",
            "--cache-bytes",
            "1048576",
        ]))
        .unwrap();
        assert!(o.front);
        assert_eq!(o.tenant, vec!["web:latency", "scan:bulk:8000000"]);
        assert_eq!(o.cache_bytes, Some(1_048_576));
        // Off by default: a plain shard server has no front door.
        let d = Options::default();
        assert!(!d.front && d.tenant.is_empty());
        assert!(Options::parse(&sv(&["--cache-bytes", "lots"])).is_err());
        assert!(Options::parse(&sv(&["--tenant"])).is_err());
    }

    #[test]
    fn stats_json_and_stripes_flags() {
        let o = Options::parse(&sv(&[
            "--stats",
            "--json",
            "out.json",
            "--stripes",
            "small",
        ]))
        .unwrap();
        assert!(o.stats);
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert_eq!(o.stripe_count().unwrap(), 8);
        assert_eq!(Options::default().stripe_count().unwrap(), 64);
        let with = |s: &str| Options {
            stripes: Some(s.into()),
            ..Default::default()
        };
        assert_eq!(with("full").stripe_count().unwrap(), 64);
        assert_eq!(with("12").stripe_count().unwrap(), 12);
        assert!(with("0").stripe_count().is_err());
        assert!(with("lots").stripe_count().is_err());
    }
}
