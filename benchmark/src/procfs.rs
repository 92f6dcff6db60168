//! Process-level measurements read from `/proc/self`: peak resident set
//! and CPU time. Parsing is split from reading so it can be unit-tested.

/// `VmHWM` (peak resident set) in kB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// `utime + stime` in clock ticks from the text of `/proc/self/stat`.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are fields 14 and 15 of the line, i.e. the
/// 12th and 13th after the command.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux's `USER_HZ`, the unit of `/proc/self/stat` times. It is a kernel
/// ABI constant (100) on every architecture this repository builds for,
/// and reading it properly needs `sysconf`, which needs `unsafe`.
const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set of this process in MB (0 when `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, in ms.
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * 1000.0 / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_other_fields() {
        let status =
            "Name:\tcsi-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        // comm = "a) b (c", then state and the numeric fields; utime = 70,
        // stime = 30 sit at fields 14 and 15.
        let stat = "4242 (a) b (c) S 1 2 3 4 5 6 7 8 9 10 70 30 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(100));
        assert_eq!(parse_cpu_ticks("4242 (x) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parens"), None);
    }

    #[test]
    fn live_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_ms() >= 0.0);
        }
    }
}
