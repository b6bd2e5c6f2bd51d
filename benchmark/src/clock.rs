//! Host measurements: wall-clock intervals, the process's CPU time and its
//! peak resident memory. Everything else the benchmark reports is
//! simulated and comes from the program's own reports.

/// A running wall-clock interval.
// simlint: allow(wall-clock, reason = "the benchmark measures the host running the simulator, never simulated time")
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // simlint: allow(wall-clock, reason = "the benchmark measures the host running the simulator, never simulated time")
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

// The CPU clock below is declared for this layout only.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU time through 64-bit Linux's clock_gettime");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library the standard library
    /// already links.
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// Linux's clock of the CPU time used by all threads of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far: every thread, live or
/// exited, user and system time. Unlike wall time it leaves out time the
/// process spent descheduled or waiting and, on a guest with paravirtual
/// steal accounting, time the hypervisor took its virtual CPU away.
pub fn cpu_secs() -> f64 {
    let mut now = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `now` is a valid, writable `timespec` for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.sec as f64 + now.nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
