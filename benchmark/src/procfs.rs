//! What Linux reports about this process under `/proc`: CPU time and
//! run-queue wait per thread, context switches, peak memory, and the UDP
//! socket drop counter. Read from outside the program, at window edges.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at 100
/// on every Linux ABI).
const TICK_NS: u64 = 10_000_000;

/// Thread name and CPU ticks from one `/proc/<pid>/task/<tid>/stat` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStat {
    pub comm: String,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

/// `pid (comm) state ppid ... utime stime ...`: the name sits between the
/// first `(` and the *last* `)`, since it may hold spaces and parentheses.
pub fn parse_task_stat(line: &str) -> Option<TaskStat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut rest = line[close + 1..].split_ascii_whitespace();
    let utime_ticks = rest.nth(11)?.parse().ok()?;
    let stime_ticks = rest.next()?.parse().ok()?;
    Some(TaskStat {
        comm,
        utime_ticks,
        stime_ticks,
    })
}

/// `/proc/<pid>/task/<tid>/schedstat`: ns on a CPU, ns runnable but
/// waiting for one, and timeslices run.
pub fn parse_schedstat(line: &str) -> Option<(u64, u64, u64)> {
    let mut f = line.split_ascii_whitespace();
    Some((
        f.next()?.parse().ok()?,
        f.next()?.parse().ok()?,
        f.next()?.parse().ok()?,
    ))
}

/// The fields of `/proc/<pid>/status` the benchmark reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Status {
    pub name: String,
    pub vm_hwm_kb: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    let number = |v: &str| {
        v.split_ascii_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        match key {
            // The name is everything after the tab, spaces included.
            "Name" => s.name = value.trim_start_matches([' ', '\t']).to_string(),
            "VmHWM" => s.vm_hwm_kb = number(value),
            "voluntary_ctxt_switches" => s.voluntary_switches = number(value),
            "nonvoluntary_ctxt_switches" => s.involuntary_switches = number(value),
            _ => {}
        }
    }
    s
}

/// The `drops` column of the `/proc/net/udp` row bound to `port`.
pub fn parse_udp_drops(table: &str, port: u16) -> Option<u64> {
    let want = format!(":{port:04X}");
    table.lines().skip(1).find_map(|line| {
        let mut f = line.split_ascii_whitespace();
        let local = f.nth(1)?;
        if !local.ends_with(&want) {
            return None;
        }
        line.split_ascii_whitespace().last()?.parse().ok()
    })
}

/// One live thread's cumulative scheduling numbers.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    pub name: String,
    pub run_ns: u64,
    pub wait_ns: u64,
}

/// Every live thread of this process.
pub fn threads() -> Vec<ThreadCpu> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            // A thread may exit between the listing and the reads.
            let stat = fs::read_to_string(entry.path().join("stat")).ok()?;
            let sched = fs::read_to_string(entry.path().join("schedstat")).ok()?;
            let (run_ns, wait_ns, _) = parse_schedstat(&sched)?;
            Some(ThreadCpu {
                name: parse_task_stat(&stat)?.comm,
                run_ns,
                wait_ns,
            })
        })
        .collect()
}

/// CPU time of the whole process, threads that have exited included.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_task_stat(&s))
        .map_or(0, |t| (t.utime_ticks + t.stime_ticks) * TICK_NS)
}

/// Context switches of every live thread, voluntary and not.
pub fn context_switches() -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|e| fs::read_to_string(e.path().join("status")).ok())
        .map(|text| {
            let s = parse_status(&text);
            s.voluntary_switches + s.involuntary_switches
        })
        .sum()
}

pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .map(|t| parse_status(&t).vm_hwm_kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

pub fn rmem_default() -> u64 {
    fs::read_to_string("/proc/sys/net/core/rmem_default")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds since boot (never 0).
pub fn uptime_ns() -> u64 {
    fs::read_to_string("/proc/uptime")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .map_or(1, |s| (s * 1e9) as u64)
}

pub fn udp_drops(port: u16) -> u64 {
    fs::read_to_string("/proc/net/udp")
        .ok()
        .and_then(|t| parse_udp_drops(&t, port))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_name_may_hold_spaces_and_parentheses() {
        let line = "4242 (net (pump) :) 1) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    37 5 0 0 20 0 7 0 1234 1000000 200 18446744073709551615";
        let t = parse_task_stat(line).unwrap();
        assert_eq!(t.comm, "net (pump) :) 1");
        assert_eq!((t.utime_ticks, t.stime_ticks), (37, 5));
        assert_eq!(parse_task_stat("no parentheses here"), None);
        assert_eq!(parse_task_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn schedstat_has_three_numbers() {
        assert_eq!(
            parse_schedstat("123456789 4242 17\n"),
            Some((123_456_789, 4242, 17))
        );
        assert_eq!(parse_schedstat("12 x 3"), None);
        assert_eq!(parse_schedstat("12 13"), None);
    }

    #[test]
    fn status_fields_and_odd_names() {
        let text = "Name:\tnet verify (2)\nUmask:\t0022\nVmHWM:\t  204800 kB\n\
                    voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        let s = parse_status(text);
        assert_eq!(s.name, "net verify (2)");
        assert_eq!(s.vm_hwm_kb, 204_800);
        assert_eq!((s.voluntary_switches, s.involuntary_switches), (12, 3));
    }

    #[test]
    fn udp_drops_of_one_port() {
        let table = "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when \
                     retrnsmt   uid  timeout inode ref pointer drops\n  \
                     77: 0100007F:9C40 00000000:0000 07 00000000:00000000 00:00000000 \
                     00000000     0        0 12345 2 0000000000000000 17\n";
        assert_eq!(parse_udp_drops(table, 40_000), Some(17));
        assert_eq!(parse_udp_drops(table, 40_001), None);
    }

    #[test]
    fn live_process_is_readable() {
        assert!(threads().iter().any(|t| !t.name.is_empty()));
        assert!(peak_rss_mb() > 0.0);
    }
}
