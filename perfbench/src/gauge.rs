//! The core-speed gauge: a fixed reference loop timed on the same core as the
//! program, between requests, all through a run.
//!
//! A shared host slows a core by different amounts from minute to minute (a
//! co-tenant on its hyperthread sibling, power limits), and that moves the CPU time
//! of every instruction, the program's and the loop's alike. CPU times are therefore
//! reported scaled to a reference core speed, one at which the loop takes
//! [`NOMINAL`]: the program's CPU time times `NOMINAL` over the loop's mean CPU time
//! in the same run. The loop is this file's own code and never changes with the
//! program.

use std::hint::black_box;
use std::time::Duration;

use crate::stats::thread_cpu_time;

/// CPU time of one run of the reference loop at the reference core speed.
pub const NOMINAL: Duration = Duration::from_micros(100);

/// The gauge spends 1/`SHARE` of the program's CPU time on the reference loop.
const SHARE: u32 = 20;

#[derive(Default, Clone, Copy)]
pub struct Gauge {
    /// CPU time of every run of the loop, and how many there were.
    cpu: Duration,
    runs: u32,
}

impl Gauge {
    /// Run the reference loop until its CPU time is at least 1/`SHARE` of `busy`, the
    /// program's CPU time so far.
    pub fn keep_up(&mut self, busy: Duration) {
        while self.cpu * SHARE < busy {
            let started = thread_cpu_time();
            black_box(reference_loop(black_box(REPS)));
            self.cpu += thread_cpu_time() - started;
            self.runs += 1;
        }
    }

    pub fn absorb(&mut self, other: Gauge) {
        self.cpu += other.cpu;
        self.runs += other.runs;
    }

    /// Mean CPU time of one run of the loop (zero before the first).
    pub fn mean(&self) -> Duration {
        self.cpu.checked_div(self.runs).unwrap_or_default()
    }

    /// `cpu`, a CPU time measured while the gauge ran, scaled to the reference core
    /// speed.
    pub fn scale(&self, cpu: Duration) -> Duration {
        cpu.mul_f64(NOMINAL.as_secs_f64() / self.mean().as_secs_f64())
    }

    pub fn runs(&self) -> u32 {
        self.runs
    }
}

/// Rounds of the loop per run: about 0.1 ms on a 2 GHz Xeon core.
const REPS: usize = 50;

/// Floating-point dot products over small vectors and merges of sorted lists, the
/// two kinds of work the solvers' evaluation does.
fn reference_loop(reps: usize) -> f64 {
    let vectors: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..32)
                .map(|j| ((i * 31 + j * 7) % 17) as f64 * 0.1)
                .collect()
        })
        .collect();
    let lists: Vec<Vec<u32>> = (0..16u32)
        .map(|i| (0..256u32).map(|j| j * (i + 2)).collect())
        .collect();
    let mut acc = 0.0f64;
    for r in 0..reps {
        for a in 0..vectors.len() {
            let b = (a * 13 + r) % vectors.len();
            let dot: f64 = vectors[a].iter().zip(&vectors[b]).map(|(x, y)| x * y).sum();
            acc += dot / (1.0 + acc.abs());
        }
        let (x, y) = (&lists[r % 16], &lists[(r * 7 + 3) % 16]);
        let (mut i, mut j, mut common) = (0, 0, 0u32);
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc += f64::from(common);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gauge_keeps_its_share_of_the_cpu_time() {
        let mut gauge = Gauge::default();
        assert_eq!(gauge.mean(), Duration::ZERO);
        gauge.keep_up(Duration::from_millis(40));
        assert!(gauge.runs() > 0);
        assert!(gauge.mean() > Duration::ZERO);
        assert!(gauge.cpu * SHARE >= Duration::from_millis(40));
        let runs = gauge.runs();
        gauge.keep_up(Duration::from_millis(1));
        assert_eq!(gauge.runs(), runs, "no new runs once the share is met");
        let scaled = gauge.scale(gauge.mean() * 3).as_secs_f64();
        assert!((scaled - (NOMINAL * 3).as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn the_reference_loop_is_deterministic() {
        assert_eq!(reference_loop(7).to_bits(), reference_loop(7).to_bits());
    }
}
