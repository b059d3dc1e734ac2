//! What the harness reads from the host: per-process CPU time and peak
//! RSS from `/proc/<pid>`, host-wide steal and context switches from
//! `/proc/stat`, and the fingerprint printed with every report.

use std::fs;
use std::process::Command;

/// Linux reports process times in `USER_HZ` ticks, fixed at 100 on
/// every mainstream architecture.
const TICK_MS: f64 = 10.0;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// User + system CPU time of process `pid` so far, in ms. Includes
/// threads that have already exited, which per-task files would lose
/// (the native backend starts fresh node threads on every execute).
pub fn cpu_ms(pid: u32) -> f64 {
    let stat = read(&format!("/proc/{pid}/stat"));
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * TICK_MS
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(&read(&format!("/proc/{pid}/status")), "VmHWM:") / 1024.0
}

fn status_kb(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Host-wide counters from `/proc/stat`, for deltas over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostStat {
    /// Jiffies over all CPUs and all states.
    pub total: f64,
    /// Jiffies stolen by the hypervisor.
    pub steal: f64,
    /// Context switches since boot.
    pub ctxt: f64,
}

pub fn host_stat() -> HostStat {
    let stat = read("/proc/stat");
    let mut h = HostStat::default();
    for line in stat.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("cpu") => {
                let v: Vec<f64> = it.filter_map(|x| x.parse().ok()).collect();
                h.total = v.iter().sum();
                h.steal = v.get(7).copied().unwrap_or(0.0);
            }
            Some("ctxt") => h.ctxt = it.next().and_then(|x| x.parse().ok()).unwrap_or(0.0),
            _ => {}
        }
    }
    h
}

impl HostStat {
    /// Share of host CPU time the hypervisor took between `self` and
    /// the later reading `end`: a disturbed run shows here.
    pub fn steal_share(&self, end: &HostStat) -> f64 {
        let total = end.total - self.total;
        if total > 0.0 {
            (end.steal - self.steal) / total
        } else {
            0.0
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cache_size(level: &str) -> String {
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        if read(&format!("{dir}/level")).trim() == level
            && read(&format!("{dir}/type")).trim() != "Instruction"
        {
            return read(&format!("{dir}/size")).trim().to_string();
        }
    }
    "unknown".into()
}

/// One line describing the commit, toolchain and machine a report was
/// produced on; numbers from different fingerprints do not compare.
pub fn fingerprint() -> String {
    let model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string());
    format!(
        "git_sha={} rustc=\"{}\" nproc={} cpu=\"{}\" l2={} l3={}",
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["-V"]),
        nproc(),
        model,
        cache_size("2"),
        cache_size("3"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid) > 0.0);
        assert!(cpu_ms(pid) >= 0.0);
        assert!(host_stat().total > 0.0);
    }

    #[test]
    fn status_parses_kb() {
        assert_eq!(status_kb("Name:\tx\nVmHWM:\t  2048 kB\n", "VmHWM:"), 2048.0);
    }
}
