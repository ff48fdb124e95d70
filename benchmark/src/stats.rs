//! Order statistics, the probe timer, and the process's peak memory.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile that still has ten samples beyond it — the
/// sample with exactly ten larger ones — and the percentile it stands for
/// (p80 at 50 samples, p66 at 30). Never below the median: with 20 samples
/// or fewer there is no tail to report, and the median is returned as p50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let n = values.len();
    if n <= 2 * BEYOND {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n - 1 - BEYOND], 100.0 * (n - BEYOND) as f64 / n as f64)
}

/// Median seconds of one call to `f`: up to 3 warm-up calls, then up to 15
/// timed ones. A slow probe (the unchunked 2048-token attention tile, the
/// planner's ladder search) stops warming after 200 ms and stops timing at
/// 5 samples once `budget` is spent, so no probe takes much over a second.
pub fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..3 {
        f();
        if started.elapsed() > Duration::from_millis(200) {
            break;
        }
    }
    let started = Instant::now();
    let mut samples = Vec::with_capacity(15);
    while samples.len() < 15 && (samples.len() < 5 || started.elapsed() < budget) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// [`median_secs`] with a fixed call count, for collectives: every rank
/// must make the same number of calls, so no per-rank clock may cut it off.
pub fn median_secs_fixed(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v), (40.0, 80.0));
        let short: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&short), (8.0, 50.0));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
