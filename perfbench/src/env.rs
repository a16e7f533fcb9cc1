//! Process and machine readings: peak RSS, CPU time, steal ticks, and
//! the environment stamp printed with every run.
//!
//! The stamp is diagnostic, not gated: it lets a reader tell a machine
//! that drifted (steal ticks rose, the fixed integer loop slowed) from a
//! program that regressed.

use std::time::Instant;

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time consumed so far by the live threads of this process, in
/// nanoseconds: the sum of `/proc/self/task/*/schedstat`, which the
/// kernel keeps at nanosecond resolution (`/proc/self/stat` rounds to
/// clock ticks, coarser than one op).
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Steal ticks of the whole machine so far (the eighth value of the
/// `cpu` line in `/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Milliseconds a fixed integer loop takes: a probe of how fast this
/// machine is running right now.
pub fn int_loop_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..30_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The commit the checkout was made from, if it still has its `.git`.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Machine state at the start of a run; [`Stamp::finish`] renders it
/// together with what changed over the run.
pub struct Stamp {
    steal_start: u64,
    loop_start_ms: f64,
}

impl Stamp {
    pub fn start() -> Stamp {
        Stamp {
            steal_start: steal_ticks(),
            loop_start_ms: int_loop_ms(),
        }
    }

    /// One JSON object: cores, workers, build profile, git rev, seed,
    /// steal ticks over the run, and the integer loop before and after.
    pub fn finish(&self, workers: usize, seed: u64) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        format!(
            "{{\"nproc\": {nproc}, \"workers\": {workers}, \"profile\": \"{}\", \"git_rev\": \"{}\", \"seed\": {seed}, \"steal_ticks\": {}, \"int_loop_ms\": [{:.3}, {:.3}]}}",
            if cfg!(debug_assertions) { "debug" } else { "release" },
            git_rev(),
            steal_ticks().saturating_sub(self.steal_start),
            self.loop_start_ms,
            int_loop_ms(),
        )
    }
}
