//! What the benchmark reads about its own process — CPU time and peak
//! resident memory from `/proc/self` — the CPU it may be confined to,
//! and the order statistics it reports.

use std::time::Duration;

/// Milliseconds per clock tick in `/proc/<pid>/stat`: Linux reports
/// `utime`/`stime` in `USER_HZ`, which its ABI fixes at 100 per second.
const TICK_MS: u64 = 10;

/// Cumulative user and system CPU time of the whole process, every
/// thread (live or already joined) included.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Cpu {
    /// User-mode ticks.
    pub user: u64,
    /// Kernel-mode ticks.
    pub sys: u64,
}

impl Cpu {
    /// Reads the current totals of this process.
    pub fn now() -> Cpu {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        parse_stat(&stat).expect("well-formed /proc/self/stat")
    }

    /// Ticks spent since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    /// Adds another interval's ticks.
    pub fn add(&mut self, other: Cpu) {
        self.user += other.user;
        self.sys += other.sys;
    }

    /// User plus system time.
    pub fn total(self) -> Duration {
        Duration::from_millis(TICK_MS * (self.user + self.sys))
    }

    /// System time alone.
    pub fn system(self) -> Duration {
        Duration::from_millis(TICK_MS * self.sys)
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) is parenthesised
/// and may itself hold spaces or parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat(stat: &str) -> Option<Cpu> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let user = fields.next()?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(Cpu { user, sys })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Parses the `VmHWM:` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(kib)
}

/// Bits in glibc's `cpu_set_t`, in 64-bit words.
const CPU_SET_WORDS: usize = 1024 / 64;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on now. Returns that CPU.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: both masks are `size` bytes long and outlive the calls;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending sample, interpolating
/// linearly between the two nearest ranks. `None` on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The `q`-quantile of a duration sample, in milliseconds (0 when empty).
pub fn quantile_ms(sample: &[Duration], q: f64) -> f64 {
    let mut ms: Vec<f64> = sample.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    quantile(&ms, q).unwrap_or(0.0)
}

/// The median of a duration sample, in seconds (0 when empty).
pub fn median_s(sample: &[Duration]) -> f64 {
    quantile_ms(sample, 0.5) / 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let line = "4242 (odd) name)) R 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    731 95 0 0 20 0 3 0 1234 5678 900 18446744073709551615";
        assert_eq!(parse_stat(line), Some(Cpu { user: 731, sys: 95 }));
        assert_eq!(parse_stat("4242 (cut short) R 1 2"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn own_stat_parses_and_cpu_time_advances() {
        let before = Cpu::now();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = Cpu::now().since(before);
        assert!(
            spent.total() >= Duration::from_millis(TICK_MS),
            "60 ms of spinning shows in utime+stime"
        );
        assert!(spent.system() <= spent.total());
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn pinning_confines_later_threads_to_one_cpu() {
        // On a thread of its own, so the test harness's threads stay free.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pin");
            let child = std::thread::spawn(move || {
                let mut mask = [0u64; CPU_SET_WORDS];
                let size = std::mem::size_of_val(&mask);
                // SAFETY: as in `pin_to_one_cpu`.
                assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
                mask
            });
            let mut expected = [0u64; CPU_SET_WORDS];
            expected[cpu / 64] = 1 << (cpu % 64);
            assert_eq!(child.join().expect("child"), expected);
        })
        .join()
        .expect("pinned thread");
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), Some(100.0));
        assert_eq!(quantile(&hundred, 2.0), Some(101.0), "q is clamped");
    }

    #[test]
    fn duration_quantiles_sort_their_input() {
        let sample = [30, 10, 20].map(Duration::from_millis);
        assert_eq!(quantile_ms(&sample, 0.5), 20.0);
        assert_eq!(median_s(&sample), 0.02);
        assert_eq!(quantile_ms(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
