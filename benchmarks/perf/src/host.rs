//! What the host tells us: memory high-water mark, scheduler accounting,
//! load threads available, bytes on disk.

use std::path::Path;

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// `(on_cpu_ns, run_queue_wait_ns)` of the calling thread so far, from
/// `/proc/thread-self/schedstat`. Tells slower work (more on-CPU time per
/// operation) from a descheduled client (more run-queue wait).
pub fn schedstat() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Minor page faults of the calling thread so far (`minflt` of
/// `/proc/thread-self/stat`). A scan that allocates its scratch afresh on
/// every call pays for it here, not in arithmetic.
pub fn minor_faults() -> u64 {
    let text = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    // the command name may hold spaces; fields are counted after its ')'
    text.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the first
/// line of `/proc/stat`. Steal is time the hypervisor ran someone else
/// while this guest wanted the CPU.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// Load-generating threads a phase may use: the host's parallelism, at
/// most 2 (the reference host has 2 vCPUs; more clients than cores would
/// measure the scheduler).
pub fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

/// Total size of the regular files directly inside `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
