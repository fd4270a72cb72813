//! Process CPU time from `getrusage(2)` and peak resident set size
//! from `/proc/self/status`.
//!
//! The standard library exposes neither, and the build has no `libc`
//! crate, so `getrusage` is declared here with the 64-bit Linux layout
//! of `struct rusage`. Its `ru_maxrss` is not used: Linux carries it
//! across `execve`, so a child reports its parent's peak when that is
//! higher, while `VmHWM` belongs to this process image alone.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux struct layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` through `ru_nivcsw`, unused here.
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of this process so far.
pub struct Usage {
    /// User plus system CPU seconds, summed over every thread the
    /// process has run, exited ones included.
    pub cpu_s: f64,
    /// Peak resident set size (`VmHWM`) in KiB.
    pub max_rss_kib: u64,
}

/// Reads this process's resource usage.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (the cfg above rejects other targets), and
    // getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage { cpu_s: secs(&ru.utime) + secs(&ru.stime), max_rss_kib: peak_rss_kib() }
}

fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux has /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB")
}
