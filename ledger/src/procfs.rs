//! Readers for the `/proc` files the ledger takes CPU time, memory and
//! hypervisor steal from. Parsing is split from reading so the parsers are
//! tested on captured fixtures.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`). It has been 100 on every
/// Linux architecture this workspace builds on; the std-only harness has
/// no `sysconf` to ask.
pub const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command name come state (field 3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in KiB.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Hypervisor steal, in clock ticks summed over all CPUs, from the text of
/// `/proc/stat` (eighth value of the aggregate `cpu` line).
pub fn parse_host_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// CPU ticks consumed so far by process `pid` (all threads, dead ones
/// included), or by this process for `None`. Still readable for a child
/// that has exited but has not been waited for.
pub fn cpu_ticks(pid: Option<u32>) -> Option<u64> {
    parse_stat_cpu_ticks(&fs::read_to_string(proc_path(pid, "stat")).ok()?)
}

/// A `kB` line of the status file of `pid` (this process for `None`).
pub fn status_kib(pid: Option<u32>, key: &str) -> Option<u64> {
    parse_status_kib(&fs::read_to_string(proc_path(pid, "status")).ok()?, key)
}

/// Host-wide steal ticks so far.
pub fn host_steal_ticks() -> Option<u64> {
    parse_host_steal_ticks(&fs::read_to_string("/proc/stat").ok()?)
}

/// Logical CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the development box (Linux 6.18), command name edited to
    // the awkward shape the parser must survive.
    const STAT: &str = "10838 (led) ger (x) R 10833 10838 10833 0 -1 4194304 83 0 0 0 \
        1234 56 7 8 20 0 3 0 3614512 2703360 307 18446744073709551615 94921276198912 \
        94921276218793 140730298038240 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tledger\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  120000 kB\nVmSize:\t  110000 kB\nVmHWM:\t    1796 kB\n\
        VmRSS:\t    1700 kB\nThreads:\t3\n";

    const PROC_STAT: &str = "cpu  2968997 0 187061 3977965 18224 0 10119 52771 0 0\n\
        cpu0 1484000 0 93000 1988000 9100 0 5000 26000 0 0\n\
        intr 12345\n";

    #[test]
    fn cpu_ticks_are_utime_plus_stime_after_an_awkward_command_name() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("1 (short) R 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_lines_parse_to_kib() {
        assert_eq!(parse_status_kib(STATUS, "VmHWM"), Some(1796));
        assert_eq!(parse_status_kib(STATUS, "VmRSS"), Some(1700));
        // A zombie has no memory lines at all.
        assert_eq!(
            parse_status_kib("Name:\tx\nState:\tZ (zombie)\n", "VmHWM"),
            None
        );
        // `VmH` is a prefix of a key, not the key.
        assert_eq!(parse_status_kib(STATUS, "VmH"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        assert_eq!(parse_host_steal_ticks(PROC_STAT), Some(52771));
        assert_eq!(parse_host_steal_ticks("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn live_files_of_this_process_parse() {
        assert!(cpu_ticks(None).is_some());
        assert!(status_kib(None, "VmRSS").is_some_and(|kib| kib > 0));
        assert!(host_steal_ticks().is_some());
        assert!(host_cpus() >= 1);
    }
}
