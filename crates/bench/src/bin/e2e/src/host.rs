//! The environment header and the noise sentinel: what ran, on what,
//! and how disturbed the host was while it ran — so a report taken
//! during a steal burst is labelled instead of trusted. Linux `/proc`
//! only; on other hosts the readings are zero and say so.

use std::time::{Duration, Instant};

/// Short git commit of the checkout the benchmark runs in, read from
/// `.git` directly (no process spawned); `unknown` outside a repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|hash| hash.trim().to_string()))
        }),
        None => Some(head.to_string()),
    };
    match full {
        Some(h) if h.trim().len() >= 12 => h.trim()[..12].to_string(),
        _ => "unknown".to_string(),
    }
}

/// Confine the process — and every thread it spawns from here on — to
/// one of the CPUs it is allowed, and say which. Call first thing in
/// `main`.
///
/// Why: with two vCPUs a hand-off between two threads (client → server
/// thread → client, twice per cached read) is either a context switch
/// or a cross-CPU wake-up of a halted vCPU, whichever the scheduler
/// picks, and on the reference box the second costs 40 µs more than the
/// first (`host.wake_us` reads 4 µs or 42 µs). That choice, not the
/// program, put `ingest_mix`'s hit-path `read_p50_us` anywhere between
/// 71 and 92 µs over four runs of one binary; on one CPU the same four
/// runs read 24.3-25.9 µs and returned 60 % more MB/s. The program's
/// own thread counts are untouched; only where the kernel may run them
/// is.
pub fn pin_to_one_cpu() {
    PLACEMENT.get_or_init(pin);
}

/// What [`pin_to_one_cpu`] did, for the report header.
pub fn placement() -> &'static str {
    PLACEMENT.get().map_or("not pinned", String::as_str)
}

static PLACEMENT: std::sync::OnceLock<String> = std::sync::OnceLock::new();

#[cfg(target_os = "linux")]
fn pin() -> String {
    // std links the C library, which has both calls; a `cpu_set_t` is
    // 1024 bits.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return "not pinned (sched_getaffinity failed)".to_string();
    }
    let count: u32 = allowed.iter().map(|w| w.count_ones()).sum();
    let Some(word) = allowed.iter().position(|w| *w != 0) else {
        return "not pinned (empty affinity mask)".to_string();
    };
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return "not pinned (sched_setaffinity failed)".to_string();
    }
    format!("pinned to CPU {cpu} (of {count} allowed)")
}

/// Other hosts: nothing to pin with.
#[cfg(not(target_os = "linux"))]
fn pin() -> String {
    "not pinned (no sched_setaffinity on this host)".to_string()
}

/// The host's cumulative CPU time split, from the first line of
/// `/proc/stat` (clock ticks).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    /// Read the counters now.
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostCpu {
            // user nice system idle iowait irq softirq steal (guest
            // times are already inside user/nice).
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`,
    /// in percent.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

fn status_field(name: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 * 1024.0 / 1e6
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// CPU time this process has used (user + system), milliseconds, from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th overall, i.e. the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

/// Spin one thread for a fixed 200 ms and report how many million
/// steps of a fixed integer recurrence it completed per second. On a
/// quiet host of one CPU model the figure repeats; a low reading labels
/// a run that shared its core.
pub fn spin_calibration() -> f64 {
    const WINDOW: Duration = Duration::from_millis(200);
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut steps = 0u64;
    while t0.elapsed() < WINDOW {
        for _ in 0..4096 {
            x = (x ^ (x >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(17);
        }
        steps += 4096;
    }
    std::hint::black_box(x);
    steps as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

/// Ping-pong one byte between two threads over a loopback TCP socket
/// for a fixed 200 ms and report the median round trip, µs. A round
/// trip is two blocking wake-ups and nothing else. Pinned to one CPU
/// (see [`pin_to_one_cpu`]) both are context switches and it reads
/// ~4 µs on the reference box; ~40 µs says the threads were on two CPUs
/// and each hand-off woke a halted one. Reads 0 if the sockets fail.
pub fn wake_calibration() -> f64 {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    const WINDOW: Duration = Duration::from_millis(200);
    let echo = || -> std::io::Result<Vec<f64>> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut ping = TcpStream::connect(listener.local_addr()?)?;
        let (mut pong, _) = listener.accept()?;
        ping.set_nodelay(true)?;
        pong.set_nodelay(true)?;
        std::thread::scope(|s| {
            // Echo until the pinging side hangs up.
            s.spawn(move || {
                let mut b = [0u8; 1];
                while pong.read_exact(&mut b).is_ok() && pong.write_all(&b).is_ok() {}
            });
            let mut trips = Vec::new();
            let mut b = [0u8; 1];
            let t0 = Instant::now();
            while t0.elapsed() < WINDOW {
                let t = Instant::now();
                ping.write_all(&b)?;
                ping.read_exact(&mut b)?;
                trips.push(t.elapsed().as_secs_f64() * 1e6);
            }
            drop(ping);
            Ok(trips)
        })
    };
    echo().map_or(0.0, |trips| crate::stats::median(&trips))
}
