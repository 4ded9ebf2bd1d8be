//! Readings of this process and its host from `/proc`: resident memory,
//! CPU time, and the machine's steal time. A run records the last two
//! beside its wall time, so a run slowed by the host can be told apart
//! from a run slowed by the code. Also the two calls into the C library
//! the benchmark makes: CPU affinity and returning free memory.

use std::fs;

/// Bytes per page for `/proc/self/statm` (every Linux target this repo
/// builds for uses 4 KiB pages).
const PAGE_BYTES: u64 = 4096;

/// Clock ticks per second for `/proc/*/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const TICKS_PER_S: f64 = 100.0;

/// Resident set size right now, in bytes (`/proc/self/statm`, field 2).
pub fn rss_bytes() -> u64 {
    let statm = fs::read_to_string("/proc/self/statm").expect("/proc/self/statm is readable");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm has a resident field");
    pages * PAGE_BYTES
}

/// Peak resident set size of the process so far, in bytes (`VmHWM`).
pub fn rss_peak_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .expect("status has VmHWM")
}

/// User plus system CPU time this process has used, in seconds, all
/// threads included (`/proc/self/stat`, fields 14 and 15).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields restart after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so field n is fields[n - 3].
    let ticks = |n: usize| fields[n - 3].parse::<u64>().expect("numeric stat field");
    (ticks(14) + ticks(15)) as f64 / TICKS_PER_S
}

/// Steal ticks summed over all CPUs since boot (`/proc/stat`, `cpu` line,
/// eighth value): time the hypervisor ran someone else while this
/// machine's CPUs wanted to run. Zero where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A CPU set as the kernel's `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

#[allow(unsafe_code)]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
}

/// The CPUs the calling thread may run on (empty if the kernel will not
/// say).
#[allow(unsafe_code)]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) } != 0 {
        return Vec::new();
    }
    (0..1024).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).collect()
}

/// Restricts the calling thread to `cpus`; returns whether the kernel
/// agreed. An empty set is refused and changes nothing.
#[allow(unsafe_code)]
pub fn run_on(cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if mask == [0; 16] {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) == 0 }
}

/// Moves the calling thread to the next allowed CPU every `period`, and
/// gives it back its whole CPU set when dropped.
///
/// On a shared host one core can run much slower than another for
/// seconds at a time. A run whose busy threads sit on one core each would
/// report those cores' luck; rotating the generator thread (the kernel
/// then moves the worker to the core it left) makes a slow spell weigh on
/// every run alike.
#[derive(Debug)]
pub struct CoreRotation {
    cpus: Vec<usize>,
    next: usize,
    period: std::time::Duration,
    last: std::time::Instant,
}

impl CoreRotation {
    /// Starts on the `start`-th allowed CPU (wrapping).
    pub fn new(period: std::time::Duration, start: usize) -> Self {
        let mut r = CoreRotation {
            cpus: allowed_cpus(),
            next: start,
            period,
            last: std::time::Instant::now(),
        };
        r.rotate();
        r
    }

    /// Rotates if `period` has passed since the last move.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= self.period {
            self.rotate();
        }
    }

    fn rotate(&mut self) {
        if self.cpus.len() > 1 {
            run_on(&[self.cpus[self.next % self.cpus.len()]]);
            self.next += 1;
        }
        self.last = std::time::Instant::now();
    }
}

impl Drop for CoreRotation {
    fn drop(&mut self) {
        if self.cpus.len() > 1 {
            run_on(&self.cpus);
        }
    }
}

/// Returns the allocator's free memory to the kernel (glibc
/// `malloc_trim`), so the next RSS delta counts memory as it is touched
/// again rather than memory a previous phase left resident. A no-op where
/// the C library has no such call.
#[allow(unsafe_code)]
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes a plain integer, touches only the
        // allocator's own free lists under the allocator's locks, and is
        // safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Nanoseconds per step of a fixed pure-Rust loop (the least disturbed of
/// three tries). It runs none of the code under test, so it tracks only
/// the host's speed: a run whose reference slowed was slowed by the host.
pub fn reference_ns() -> f64 {
    const STEPS: u32 = 1 << 20;
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..STEPS {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64 / f64::from(STEPS)
        })
        .fold(f64::INFINITY, f64::min)
}

/// CPU and steal readings at one instant, for deltas across a run.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    cpu_s: f64,
    steal: u64,
}

impl HostClock {
    /// Reads both counters now.
    pub fn now() -> Self {
        HostClock { cpu_s: cpu_seconds(), steal: steal_ticks() }
    }

    /// (CPU seconds used, steal ticks) since `self`.
    pub fn since(&self) -> (f64, u64) {
        let now = HostClock::now();
        (now.cpu_s - self.cpu_s, now.steal.saturating_sub(self.steal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        let rss = rss_bytes();
        assert!(rss > 0);
        assert!(rss_peak_bytes() >= rss / 2, "peak is at least near the current RSS");
        assert!(cpu_seconds() >= 0.0);
        let clock = HostClock::now();
        let (cpu, _steal) = clock.since();
        assert!(cpu >= 0.0);
    }

    #[test]
    fn rotation_moves_and_restores() {
        let cpus = allowed_cpus();
        {
            let mut r = CoreRotation::new(std::time::Duration::ZERO, 0);
            if cpus.len() > 1 {
                assert_eq!(allowed_cpus(), [cpus[0]]);
                r.tick();
                assert_eq!(allowed_cpus(), [cpus[1]]);
            }
        }
        assert_eq!(allowed_cpus(), cpus);
    }

    #[test]
    fn affinity_round_trips() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        assert!(run_on(&cpus[..1]));
        assert_eq!(allowed_cpus(), cpus[..1]);
        assert!(run_on(&cpus));
        assert_eq!(allowed_cpus(), cpus);
        assert!(!run_on(&[]));
    }
}
