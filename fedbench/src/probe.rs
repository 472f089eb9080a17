//! Process probes read from `/proc` with the standard library only.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: u64 = 100;

/// User plus system CPU time of this process (all its threads), in
/// nanoseconds. `None` when `/proc/self/stat` is unreadable.
pub fn cpu_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size (`VmHWM`) in MiB. `None` when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hand freed heap pages back to the kernel (glibc `malloc_trim`), so the
/// peak RSS of a run is that of its largest pass rather than the
/// allocator's fragmentation history over all passes. A no-op off glibc.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes a plain byte count, touches only the
        // allocator's own state under its own locks, and may be called
        // from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        assert!(cpu_ns().is_some());
        assert!(peak_rss_mb().expect("VmHWM present") > 0.0);
    }
}
