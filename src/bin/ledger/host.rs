//! What the ledger reads about the host: scheduler interference, resident
//! memory, load, and the versions that produced a result.
//!
//! Everything comes from `/proc` (Linux) or files inside the working
//! directory; on a platform without them the readers return `None` and the
//! ledger records the value as unknown instead of failing.

use std::fs;

/// Nanoseconds this thread has spent runnable but waiting for a CPU
/// (second field of `/proc/thread-self/schedstat`). The growth over a
/// repetition is the time other processes took from it.
pub fn runqueue_wait_ns() -> Option<u64> {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MiB.
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no `git` process, nothing outside the directory is touched).
/// `None` in an exported tree without `.git`.
pub fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
