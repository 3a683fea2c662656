//! Process counters read from `/proc/self` (Linux): CPU time of all
//! threads and of the calling thread, peak resident set, write
//! syscalls, and the filesystem a path lives on.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process (`utime + stime` of `/proc/self/stat`; 10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name (field 2) may hold spaces; fields restart after
    // its closing parenthesis, at field 3 (state)
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after `)`
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// CPU seconds the calling thread has run so far (the first field of
/// `/proc/thread-self/schedstat`, in nanoseconds). The kernel brings it
/// up to date at every scheduler tick (4 ms at 250 Hz) and context
/// switch, so a reading lags by at most a tick, but is not rounded to
/// 10 ms like [`cpu_seconds`].
pub fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Write-family syscalls issued so far by this process (`syscw` of
/// `/proc/self/io`), or `None` where the kernel does not expose it.
pub fn write_syscalls() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("syscw:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The filesystem type (`ext4`, `tmpfs`, …) of the mount holding
/// `path`, by longest mount-point prefix in `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(fs)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
