//! Drift-robust timing shared by the workloads.
//!
//! The benchmark host's speed drifts in phases lasting from seconds to
//! minutes (contention from other tenants, not descheduling: process CPU
//! time drifts as much as wall time).  A median of many short passes
//! absorbs the short phases but not the long ones, so every timed sample is
//! bracketed by runs of a fixed reference kernel in the benchmark's own
//! code, and the reported figure is the sample rescaled to the nominal
//! kernel time: `raw × KERNEL_NOMINAL_S / kernel`, where `kernel` is the
//! mean of the kernel timings just before and just after the sample.  The
//! kernel's code never changes with the program, so a faster program still
//! reads faster; only the host's speed cancels.  Raw medians are printed
//! beside the normalised ones, and the kernel's own spread is printed per
//! run so a noisy verdict can be traced to the host.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time of one reference-kernel call on the host the bounds were set on
/// (2 vCPU x86-64 VM): normalised figures read as seconds at that speed.
pub const KERNEL_NOMINAL_S: f64 = 3.0e-3;

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times one call of `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, since(start))
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, with its value (nearest rank); `None` below 20 samples.
pub fn tail(values: &[f64]) -> Option<(usize, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return None;
    }
    let p = (100 * (n - 10)) / n;
    let rank = (p * n).div_ceil(100);
    Some((p, v[rank.clamp(1, n) - 1]))
}

/// One-line summary of a timing sample: median, sample count, tail, range.
pub fn describe(name: &str, values: &[f64]) -> String {
    let tail = tail(values).map_or_else(
        || "no tail percentile (<20 samples)".to_string(),
        |(p, t)| format!("p{p} {t:.6} s"),
    );
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    format!(
        "# {name}: median {:.6} s over n={n} ({tail}; min {:.6}, q1 {:.6}, q3 {:.6}, max {:.6})",
        median(values),
        v[0],
        v[n / 4],
        v[(3 * n) / 4],
        v[n - 1],
    )
}

/// The fixed reference kernel, on registers and one L1-resident array.  It
/// has three parts, each shaped like one kind of work the workloads do:
/// uniform draws through `ln` (the failure draws), a dependent multiply-add
/// chain (latency-bound arithmetic), and branch-free compare-and-select
/// passes with a compacted index write over 128 lanes (the batch fast
/// pass).  Host contention slows these kinds of work by different amounts;
/// on probe runs the sum of the three tracked every workload better than
/// any one part.
fn reference_kernel() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 11
    };
    let mut acc = 0.0f64;
    for _ in 0..(1 << 16) {
        acc -= (1.0 - next() as f64 * (1.0 / (1u64 << 53) as f64)).ln();
    }
    for _ in 0..(1 << 18) {
        acc = acc.mul_add(0.999_999, next() as f64 * 1e-16);
    }
    let mut now = [0.0f64; 128];
    let mut limit = [0.0f64; 128];
    for (i, l) in limit.iter_mut().enumerate() {
        *l = 1.0e9 + i as f64 * 1.0e6;
    }
    let mut missed = [0u32; 128];
    for _ in 0..(1 << 12) {
        let limit = black_box(&limit);
        let mut hits = 0usize;
        for lane in 0..128 {
            let end = (now[lane] + 1.5) + 0.25;
            let ok = end < limit[lane];
            now[lane] = if ok { end } else { now[lane] };
            missed[hits] = lane as u32;
            hits += usize::from(!ok);
        }
        acc += f64::from(black_box(&missed)[0]) + hits as f64;
    }
    acc + now[0]
}

/// A timed sample with the host speed measured around it.
#[derive(Clone, Copy)]
pub struct Sample {
    raw: f64,
    kernel: f64,
}

impl Sample {
    /// The sample rescaled to the nominal host speed.
    pub fn normalized(&self) -> f64 {
        self.raw * KERNEL_NOMINAL_S / self.kernel
    }
}

fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.raw).collect()
}

fn normalized(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::normalized).collect()
}

/// Prints the raw and normalised summaries of a series; returns the
/// normalised median.
pub fn report(name: &str, samples: &[Sample]) -> f64 {
    println!("{}", describe(&format!("{name}, raw"), &raw(samples)));
    println!(
        "{}",
        describe(&format!("{name}, host-normalised"), &normalized(samples))
    );
    median(&normalized(samples))
}

/// Raw median of a series.
pub fn raw_median(samples: &[Sample]) -> f64 {
    median(&raw(samples))
}

/// The reference-kernel clock that brackets every timed sample.
pub struct DriftClock {
    kernel: Vec<f64>,
}

impl DriftClock {
    /// Starts the clock with one kernel timing.
    pub fn new() -> Self {
        let mut clock = Self { kernel: Vec::new() };
        clock.tick();
        clock
    }

    fn tick(&mut self) -> f64 {
        let (acc, t) = timed(reference_kernel);
        black_box(acc);
        self.kernel.push(t);
        t
    }

    /// Times `f`, then the kernel; pushes the sample onto `series`.
    pub fn time<T>(&mut self, series: &mut Vec<Sample>, f: impl FnOnce() -> T) -> T {
        let before = *self.kernel.last().expect("the clock starts with a tick");
        let (out, raw) = timed(f);
        let after = self.tick();
        series.push(Sample {
            raw,
            kernel: (before + after) / 2.0,
        });
        out
    }

    /// Times `n` back-to-back calls of `f` (results dropped inside the
    /// span) as one sample of the per-call time.
    pub fn time_each<T>(&mut self, series: &mut Vec<Sample>, n: usize, mut f: impl FnMut() -> T) {
        self.time(series, || {
            for _ in 0..n {
                black_box(f());
            }
        });
        let last = series.last_mut().expect("just pushed");
        last.raw /= n as f64;
    }

    /// Prints the per-run drift diagnostic.
    pub fn report(&self) {
        let k = &self.kernel;
        let min = k.iter().copied().fold(f64::INFINITY, f64::min);
        let max = k.iter().copied().fold(0.0, f64::max);
        println!(
            "# host drift: reference kernel median {:.4} ms over n={} (min {:.4}, max {:.4}, max/min {:.2}; nominal {:.4})",
            median(k) * 1e3,
            k.len(),
            min * 1e3,
            max * 1e3,
            max / min,
            KERNEL_NOMINAL_S * 1e3
        );
    }
}

/// Calls `pass` until `budget` has elapsed, and at least `min_passes` times.
pub fn repeat_for(budget: Duration, min_passes: usize, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_passes || start.elapsed() < budget {
        pass(i);
        i += 1;
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
