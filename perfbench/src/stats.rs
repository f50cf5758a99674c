//! Small statistics helpers and the process's own resource usage.

use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly between the
/// closest ranks. An empty slice has quantile 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let lo = position.floor() as usize;
    let hi = position.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (position - lo as f64)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A duration in microseconds.
pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// A duration in milliseconds.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Run `f` at least `min_reps` times and keep repeating (up to `max_reps`) while the
/// total stays under `budget`; returns each repetition's wall time.
pub fn time_reps(
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: impl FnMut(),
) -> Vec<Duration> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || (times.len() < max_reps && started.elapsed() < budget) {
        let t = Instant::now();
        f();
        times.push(t.elapsed());
    }
    times
}

/// Median of a set of durations, in the unit `unit` converts to.
pub fn median_of(times: &[Duration], unit: fn(Duration) -> f64) -> f64 {
    median(&times.iter().map(|&t| unit(t)).collect::<Vec<_>>())
}

/// A log-linear histogram of nanosecond values: exact below 128 ns, then 128
/// buckets per power of two (under 0.8% wide). Its memory does not grow with the
/// number of values recorded.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

const SUB_BITS: u32 = 7;

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) << SUB_BITS],
            total: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) as usize & ((1 << SUB_BITS) - 1))
    }

    /// The first value of a bucket and the bucket's width.
    fn span(bucket: usize) -> (f64, f64) {
        let octave = bucket >> SUB_BITS;
        if octave == 0 {
            return (bucket as f64, 1.0);
        }
        let width = (1u64 << (octave - 1)) as f64;
        (
            ((1 << SUB_BITS) + (bucket & ((1 << SUB_BITS) - 1))) as f64 * width,
            width,
        )
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in ns, by rank as [`quantile`] does, placed within its bucket
    /// in proportion to its rank there. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count as u64) as f64 > rank {
                let (first, width) = Self::span(bucket);
                return first + width * (rank - below as f64 + 0.5) / count as f64;
            }
            below += count as u64;
        }
        unreachable!("the rank lies below the total count")
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock(clock: c_int) -> Duration {
    let mut raw = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of the C `struct timespec` on 64-bit Linux,
    // and `raw` is a live, exclusively borrowed value of that type for the whole call.
    let status = unsafe { clock_gettime(clock, &mut raw) };
    assert_eq!(
        status, 0,
        "clock_gettime({clock}) fails only on a bad pointer"
    );
    Duration::new(raw.sec as u64, raw.nsec as u32)
}

/// CPU time every thread of this process has used so far. A thread that waits for
/// a core, behind another process or while the host runs another guest on it,
/// uses none, so this does not grow with contention for the cores as wall time does.
pub fn cpu_time() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu_time() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Bind this process to the highest-numbered CPU it may run on; threads started
/// afterwards inherit the binding. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, exclusively borrowed buffer of exactly the size
    // passed, which is the size of the C `cpu_set_t`.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if status != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if status != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// This process's resident-set high-water mark in KiB (`VmHWM`). Unlike
/// `ru_maxrss`, it starts afresh at `exec`, so it does not inherit the peak of the
/// process that launched the benchmark.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket_of_the_exact_ones() {
        let values: Vec<u64> = (0..10_000u64).map(|i| 50 + i * i % 7_919_993).collect();
        let mut histogram = Histogram::new();
        for &v in &values {
            histogram.record(v);
        }
        let exact: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let (h, e) = (histogram.quantile(q), quantile(&exact, q));
            assert!((h - e).abs() <= e * 0.01 + 1.0, "q={q}: {h} vs {e}");
        }
        assert_eq!(histogram.len(), 10_000);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn the_process_has_a_resident_set_and_cpu_time() {
        assert!(peak_rss_kib().expect("procfs is mounted") > 0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(20) {}
        assert!(cpu_time() > Duration::ZERO);
        assert!(thread_cpu_time() > Duration::ZERO);
    }
}
