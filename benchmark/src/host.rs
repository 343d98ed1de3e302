//! What the host did to a timed phase: wall time from `Instant`, and from
//! `/proc/self/schedstat` how much of it the thread spent on a core and how
//! much it waited on the run queue behind a neighbour. Rounds are never
//! dropped for noise; the numbers explain an outlier run.

use std::time::Instant;

/// Cumulative scheduler accounting of the calling thread's group leader:
/// nanoseconds on a core and nanoseconds runnable but waiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub on_cpu_ns: u64,
    pub runq_wait_ns: u64,
}

/// Parses the three-field `schedstat` line (`on-cpu wait timeslices`).
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let on_cpu_ns = fields.next()?.ok()?;
    let runq_wait_ns = fields.next()?.ok()?;
    Some(SchedStat {
        on_cpu_ns,
        runq_wait_ns,
    })
}

/// Parses the `VmHWM:` (peak resident set) line of `/proc/self/status`
/// into KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Scheduler accounting now; zeros where the kernel does not expose it
/// (the noise figures then read 0, the timings are unaffected).
pub fn schedstat() -> SchedStat {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat(&t))
        .unwrap_or_default()
}

/// Peak resident set of this process so far, in MiB (0 if unreadable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_kib(&t))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// One timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub on_cpu_s: f64,
    pub runq_wait_s: f64,
}

impl Phase {
    /// Share of the phase's wall time spent waiting on the run queue.
    pub fn runq_wait_share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.runq_wait_s / self.wall_s
        } else {
            0.0
        }
    }

    /// The two phases of a round as one.
    pub fn plus(&self, other: &Phase) -> Phase {
        Phase {
            wall_s: self.wall_s + other.wall_s,
            on_cpu_s: self.on_cpu_s + other.on_cpu_s,
            runq_wait_s: self.runq_wait_s + other.runq_wait_s,
        }
    }
}

/// Runs `f` as a timed phase. The scheduler reads sit outside the
/// `Instant` pair, so they cost the phase nothing.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Phase) {
    let before = schedstat();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let after = schedstat();
    let phase = Phase {
        wall_s,
        on_cpu_s: after.on_cpu_ns.saturating_sub(before.on_cpu_ns) as f64 * 1e-9,
        runq_wait_s: after.runq_wait_ns.saturating_sub(before.runq_wait_ns) as f64 * 1e-9,
    };
    (out, phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_line() {
        assert_eq!(
            parse_schedstat("123456789 4242 17\n"),
            Some(SchedStat {
                on_cpu_ns: 123_456_789,
                runq_wait_ns: 4242
            })
        );
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12 x 3"), None);
        assert_eq!(parse_schedstat("12"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  215040 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(215_040));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn timed_reports_wall() {
        let (v, p) = timed(|| (0..100_000u64).sum::<u64>());
        assert_eq!(v, 4_999_950_000);
        assert!(p.wall_s > 0.0 && p.runq_wait_share() >= 0.0);
    }
}
