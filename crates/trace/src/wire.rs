//! Optional simulated-interconnect occupancy for the real runtime.
//!
//! The thread-based runtime moves tensors with `memcpy`s and channel
//! sends, which cost nanoseconds — nothing like the PCIe and NIC
//! transfers the FPDT paper overlaps, whose duration is proportional to
//! the bytes on the wire. [`simulate_at`] closes that gap: at a positive
//! bandwidth (GB/s) every call occupies the simulated link for
//! `bytes / bandwidth` of wall-clock time by *sleeping*, exactly like a
//! DMA engine that transfers without consuming host CPU. A transfer
//! executed inline on a rank thread therefore serializes with compute,
//! while the same transfer posted to a copy or comm stream genuinely
//! hides behind compute — even on a single-core host — which is what
//! lets a run's trace (and the repo benchmark's `fpdt_link` workload)
//! measure how much of the wire time the streams hide.
//!
//! The bandwidth is a value, not a process setting: the engines charge
//! the rate they were built with, which the runtime takes from
//! `RuntimeOptions::sim_gbps`. [`link_gbps`] is the one parse point of
//! the `FPDT_SIM_GBPS` variable that option defaults from. Unset (the
//! default) or `0`, the link is infinitely fast and a charge returns
//! immediately: unit tests and library users pay nothing, and the
//! runtime runs its streams inline, because there is no transfer time
//! for a worker to hide. A malformed value (empty, garbage, negative,
//! non-finite) warns once to stderr and falls back to disabled rather
//! than silently shaping time in an unintended way. The link only shapes
//! *time*; payload contents, schedules, and statistics are untouched, so
//! every bitwise-equivalence guarantee holds at any bandwidth.

use std::sync::OnceLock;
use std::time::Duration;

/// Sub-resolution sleeps are skipped: below this the OS timer overhead
/// would dominate the simulated transfer itself.
const MIN_SLEEP_US: f64 = 10.0;

/// Parses an `FPDT_SIM_GBPS` value: `None` (unset) and `"0"` mean
/// disabled (`Ok(0.0)`); a positive finite number is the bandwidth in
/// GB/s.
///
/// # Errors
///
/// Returns a description for values that are empty, unparseable,
/// negative, or non-finite — the caller decides how to surface it
/// ([`link_gbps`] warns once and disables the link).
pub fn parse_gbps(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(0.0) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("value is empty".to_string());
    }
    let v = trimmed.parse::<f64>().map_err(|_| format!("`{trimmed}` is not a number"))?;
    check_gbps(v)
}

/// Accepts a bandwidth [`parse_gbps`] would accept: `0.0` (disabled) or
/// a positive finite number of GB/s.
///
/// # Errors
///
/// Returns a description for negative and non-finite values.
pub fn check_gbps(v: f64) -> Result<f64, String> {
    if !v.is_finite() {
        Err(format!("`{v}` is not finite"))
    } else if v < 0.0 {
        Err(format!("`{v}` is negative"))
    } else {
        Ok(v)
    }
}

/// The simulated link bandwidth in GB/s from `FPDT_SIM_GBPS`, parsed
/// once. `0.0` means the simulation is disabled; a malformed value warns
/// once to stderr and disables it.
pub fn link_gbps() -> f64 {
    static GBPS: OnceLock<f64> = OnceLock::new();
    *GBPS.get_or_init(|| {
        let raw = std::env::var("FPDT_SIM_GBPS").ok();
        match parse_gbps(raw.as_deref()) {
            Ok(v) => v,
            Err(why) => {
                eprintln!("warning: ignoring malformed FPDT_SIM_GBPS ({why}); link disabled");
                0.0
            }
        }
    })
}

/// Wall-clock microseconds [`simulate_at`] would sleep for `bytes` at
/// `gbps`: `0.0` when the link is disabled, the transfer is empty, or
/// the duration falls below the sleep resolution.
pub fn sleep_us_for(bytes: u64, gbps: f64) -> f64 {
    if gbps <= 0.0 || bytes == 0 {
        return 0.0;
    }
    let us = bytes as f64 / (gbps * 1e9) * 1e6;
    if us >= MIN_SLEEP_US {
        us
    } else {
        0.0
    }
}

/// Occupies a simulated link of `gbps` GB/s for `bytes` (no-op when the
/// link is disabled or the transfer is below the sleep resolution).
pub fn simulate_at(bytes: u64, gbps: f64) {
    let us = sleep_us_for(bytes, gbps);
    if us > 0.0 {
        std::thread::sleep(Duration::from_micros(us as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn disabled_link_makes_every_transfer_free() {
        // A zero bandwidth is the disabled link; the values the parser
        // refuses charge nothing either, should one arrive unchecked.
        let t0 = std::time::Instant::now();
        for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(sleep_us_for(u64::MAX, gbps), 0.0, "{gbps}");
            simulate_at(u64::MAX, gbps);
        }
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn parse_accepts_unset_zero_and_positive() {
        assert_eq!(parse_gbps(None), Ok(0.0));
        assert_eq!(parse_gbps(Some("0")), Ok(0.0));
        assert_eq!(parse_gbps(Some(" 2.5 ")), Ok(2.5));
        assert_eq!(parse_gbps(Some("32")), Ok(32.0));
    }

    #[test]
    fn parse_rejects_empty_garbage_negative_nonfinite() {
        for bad in ["", "   ", "fast", "1.2.3", "-1", "nan", "inf", "NaN"] {
            assert!(parse_gbps(Some(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn check_refuses_what_parse_refuses() {
        for bad in [-1.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(check_gbps(bad).is_err(), "{bad} accepted");
        }
        assert_eq!(check_gbps(0.0), Ok(0.0));
        assert_eq!(check_gbps(0.05), Ok(0.05));
    }

    #[test]
    fn zero_gbps_and_zero_bytes_never_sleep() {
        // Disabled link: any size is free. Enabled link: empty and
        // sub-resolution transfers are free.
        assert_eq!(sleep_us_for(u64::MAX, 0.0), 0.0);
        assert_eq!(sleep_us_for(0, 1.0), 0.0);
        assert_eq!(sleep_us_for(1, 1.0), 0.0, "1 byte is sub-resolution");
        let t0 = std::time::Instant::now();
        simulate_at(0, 1.0);
        simulate_at(u64::MAX, 0.0);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn sleep_scales_linearly_so_bf16_halves_the_charge() {
        // The bf16 payload knob charges half the wire bytes; at a fixed
        // bandwidth that must halve the occupancy exactly.
        let full = sleep_us_for(1 << 20, 1.0);
        let half = sleep_us_for(1 << 19, 1.0);
        assert!(full > 0.0);
        assert!((half * 2.0 - full).abs() < 1e-9, "{half} * 2 != {full}");
        // And scaling the bandwidth is equivalent to scaling the bytes.
        assert!((sleep_us_for(1 << 20, 2.0) - half).abs() < 1e-9);
    }

    #[test]
    fn sleep_time_lands_inside_the_posting_span() {
        // Wire occupancy must be attributed to whichever span is open on
        // the charging thread — the runtime opens `comm.inflight` /
        // `offload.*` spans around its `simulate_at` calls, so the sleep
        // time shows up inside them.
        let rec = Recorder::new();
        let bytes = 1u64 << 20;
        let gbps = 0.05; // 1 MiB at 50 MB/s ≈ 21 ms, robustly measurable
        {
            let _span = rec.span("comm.inflight").bytes(bytes);
            simulate_at(bytes, gbps);
        }
        let records = rec.records();
        assert_eq!(records.len(), 1);
        let want_us = sleep_us_for(bytes, gbps);
        assert!(want_us > 10_000.0, "test transfer too small: {want_us}");
        assert!(
            records[0].dur_us >= want_us * 0.8,
            "span {}us does not contain the {}us sleep",
            records[0].dur_us,
            want_us
        );
        assert_eq!(records[0].bytes, Some(bytes));
    }
}
