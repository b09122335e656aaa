//! Readings of the benchmark's own process and host.

use crate::report::Host;
use std::process::Command;
use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time of this process so far, in seconds (all
/// threads), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND
}

/// Hypervisor steal time of the whole machine so far, in CPU-seconds
/// summed over its CPUs, and the number of CPUs (`/proc/stat`).
fn steal() -> (f64, usize) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 1);
    };
    let mut lines = stat.lines();
    // "cpu  user nice system idle iowait irq softirq steal ..."
    let total = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    let cpus = lines
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    (total as f64 / TICKS_PER_SECOND, cpus.max(1))
}

/// A wall-clock instant paired with the machine's steal counter, so an
/// interval can be measured net of the time the hypervisor ran other
/// guests on this machine's CPUs. On a shared virtual machine that time
/// swings wall-clock results by 10–30 % from one minute to the next
/// while the program's own work does not change.
#[derive(Copy, Clone, Debug)]
pub struct Stamp {
    pub at: Instant,
    /// Process CPU seconds so far.
    pub cpu_s: f64,
    steal_s: f64,
    cpus: usize,
}

impl Stamp {
    pub fn now() -> Stamp {
        let (steal_s, cpus) = steal();
        Stamp {
            at: Instant::now(),
            cpu_s: cpu_seconds(),
            steal_s,
            cpus,
        }
    }

    /// The factor that takes a wall interval from `self` to `later` net
    /// of steal: `B / (B + S)` for the process's CPU time `B` and the
    /// machine's stolen time `S` in between. Steal only accrues on CPUs
    /// with work to run, so this holds for one busy thread (`wall − S`)
    /// as well as for `k` (`wall − S / k`).
    pub fn keep(&self, later: &Stamp) -> f64 {
        let busy = later.cpu_s - self.cpu_s;
        let stolen = later.steal_s - self.steal_s;
        if busy + stolen <= 0.0 {
            1.0
        } else {
            (busy / (busy + stolen)).clamp(0.1, 1.0)
        }
    }

    /// Seconds stolen per CPU between `self` and `later`: the average
    /// delay steal added to work that ran on the machine's CPUs in
    /// between (steal only accrues while a CPU has work to run).
    pub fn stolen_per_cpu(&self, later: &Stamp) -> f64 {
        ((later.steal_s - self.steal_s) / self.cpus as f64).max(0.0)
    }

    /// Share of the machine's CPU time stolen between `self` and `later`
    /// (0 outside a virtual machine; capped at 0.9).
    pub fn steal_share(&self, later: &Stamp) -> f64 {
        let wall = (later.at - self.at).as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        ((later.steal_s - self.steal_s) / (self.cpus as f64 * wall)).clamp(0.0, 0.9)
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// The host record every report carries: core count, compiler, commit
/// (`unknown` outside a git checkout).
pub fn host() -> Host {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    Host {
        nproc: nproc(),
        rustc: first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        commit: first_line("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".to_string()),
    }
}
