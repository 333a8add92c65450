//! Process resource readings and machine-noise diagnostics from `/proc`.
//!
//! Times in `/proc/stat` and `/proc/self/stat` are in clock ticks; Linux
//! reports them at `USER_HZ`, which is 100 on every mainstream
//! architecture.

use std::time::Instant;

const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included
/// (exited threads too).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
struct CpuTicks {
    busy: f64,
    idle: f64,
    steal: f64,
}

fn cpu_ticks() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().next().unwrap_or("");
    let v: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    let at = |i: usize| v.get(i).copied().unwrap_or(0.0);
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    CpuTicks {
        busy: at(0) + at(1) + at(2) + at(5) + at(6),
        idle: at(3) + at(4),
        steal: at(7),
    }
}

/// Machine state at the start of a run, to diff against its end.
pub struct Sample {
    at: Instant,
    ticks: CpuTicks,
    own_cpu_s: f64,
}

/// What the machine did during a run besides this benchmark.
pub struct Diagnostics {
    /// Seconds the diagnostics cover.
    pub elapsed_s: f64,
    /// Steal share of all CPU ticks, in percent.
    pub steal_pct: f64,
    /// CPU seconds used by other processes.
    pub other_cpu_s: f64,
    /// One-minute load average at the end.
    pub loadavg_1m: f64,
    /// Hardware threads available.
    pub nproc: usize,
}

impl Sample {
    /// Reads the counters now.
    pub fn now() -> Sample {
        Sample {
            at: Instant::now(),
            ticks: cpu_ticks(),
            own_cpu_s: process_cpu_s(),
        }
    }

    /// Diagnostics from this sample to now.
    pub fn diagnostics(&self) -> Diagnostics {
        let end = cpu_ticks();
        let busy = end.busy - self.ticks.busy;
        let idle = end.idle - self.ticks.idle;
        let steal = end.steal - self.ticks.steal;
        let total = busy + idle + steal;
        let own = process_cpu_s() - self.own_cpu_s;
        let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
        Diagnostics {
            elapsed_s: self.at.elapsed().as_secs_f64(),
            steal_pct: if total > 0.0 {
                100.0 * steal / total
            } else {
                0.0
            },
            other_cpu_s: (busy / TICKS_PER_S - own).max(0.0),
            loadavg_1m: loadavg
                .split_whitespace()
                .next()
                .and_then(|x| x.parse().ok())
                .unwrap_or(0.0),
            nproc: nproc(),
        }
    }
}
