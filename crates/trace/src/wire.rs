//! The simulated interconnect: a link that costs wall-clock time per byte.
//!
//! The thread runtime moves tensors with `memcpy`s and channel sends,
//! nothing like the PCIe and NIC transfers the FPDT paper overlaps, whose
//! duration is proportional to the bytes on the wire. A [`Link`] closes
//! that gap without a thread: it is one FIFO queue of transfers kept as a
//! clock. A transfer is stamped `ready_at = max(now, free_at) + bytes /
//! bandwidth`, `free_at` moves there, and whoever needs the data sleeps
//! until the stamp ([`sleep_until`]) — a DMA engine that burns no host
//! CPU. Charged early and needed late, a transfer costs its consumer
//! nothing; needed at once, its whole wire time. That is what lets a
//! trace (and the repo benchmark's `fpdt_link` workload) measure how much
//! wire time the schedule hides, even on one core.
//!
//! A link is charged only for bytes a real one would carry: the comm
//! engine charges the all-to-all parts bound for other ranks — a rank's
//! own part never leaves it, so a world-1 op charges nothing — and the
//! copy engine each chunk it puts to or fetches from the host pool.
//!
//! The bandwidth is a value the engines are built with, from
//! `RuntimeOptions::sim_gbps`; [`link_gbps`] is the one parse point of the
//! `FPDT_SIM_GBPS` variable that option defaults from. Unset or `0`, the
//! link is free and charges nothing. A malformed value (empty, garbage,
//! negative, non-finite) warns once and disables the link rather than
//! silently shaping time. The link shapes only *time*, never a payload, a
//! schedule or a statistic, so every bitwise guarantee holds at any
//! bandwidth.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sub-resolution sleeps are skipped: below this the OS timer overhead
/// would dominate the wait itself.
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
    let v = trimmed
        .parse::<f64>()
        .map_err(|_| format!("`{trimmed}` is not a number"))?;
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
#[expect(clippy::disallowed_methods, reason = "fpdt-trace is below fpdt-core")]
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

/// One direction of a simulated link as a FIFO clock (see the module
/// docs). A free link — zero, or any bandwidth [`check_gbps`] refuses —
/// charges nothing and stamps nothing.
#[derive(Debug, Clone, Default)]
pub struct Link {
    /// Seconds per byte; 0 = free.
    secs_per_byte: f64,
    /// When the last charged transfer lands.
    free_at: Option<Instant>,
}

impl Link {
    /// A link of `gbps` GB/s.
    pub fn new(gbps: f64) -> Self {
        let priced = gbps > 0.0 && gbps.is_finite();
        Link {
            secs_per_byte: if priced { 1.0 / (gbps * 1e9) } else { 0.0 },
            free_at: None,
        }
    }

    /// Queues a transfer of `bytes` behind every earlier one and no
    /// earlier than `after`: returns its `(start, ready_at)` interval, or
    /// `None` over a free link, where there is nothing to wait for.
    pub fn charge(&mut self, bytes: u64, after: Option<Instant>) -> Option<(Instant, Instant)> {
        if self.secs_per_byte == 0.0 {
            return None;
        }
        let start = [self.free_at, after]
            .into_iter()
            .flatten()
            .fold(Instant::now(), Instant::max);
        let ready = start + Duration::from_secs_f64(bytes as f64 * self.secs_per_byte);
        self.free_at = Some(ready);
        Some((start, ready))
    }
}

/// Sleeps until `at`, the stamp of a transfer the caller needs; returns
/// whether it slept (a stamp already past, or within the sleep
/// resolution, returns at once).
pub fn sleep_until(at: Instant) -> bool {
    let left = at.saturating_duration_since(Instant::now());
    if left.as_secs_f64() * 1e6 < MIN_SLEEP_US {
        return false;
    }
    std::thread::sleep(left);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_link_makes_every_transfer_free() {
        // A zero bandwidth is the disabled link; the values the parser
        // refuses charge nothing either, should one arrive unchecked.
        for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(Link::new(gbps).charge(u64::MAX, None), None, "{gbps}");
        }
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
    fn charges_queue_in_fifo_order_and_scale_with_bytes() {
        // 1 MiB at 1 GB/s holds the link ~1.05 ms; the second transfer
        // starts where the first lands, and half the bytes (the bf16
        // payload knob) take exactly half the time.
        let mut link = Link::new(1.0);
        let (s0, r0) = link.charge(1 << 20, None).expect("priced");
        let (s1, r1) = link.charge(1 << 19, None).expect("priced");
        assert_eq!(
            s1, r0,
            "FIFO: the next transfer starts where the last one lands"
        );
        let (full, half) = ((r0 - s0).as_secs_f64(), (r1 - s1).as_secs_f64());
        assert!((full - (1u64 << 20) as f64 / 1e9).abs() < 1e-9, "{full}");
        assert!((half * 2.0 - full).abs() < 1e-9, "{half} * 2 != {full}");
        // And scaling the bandwidth is equivalent to scaling the bytes.
        let (s2, r2) = Link::new(2.0).charge(1 << 20, None).expect("priced");
        assert!(((r2 - s2).as_secs_f64() - half).abs() < 1e-9);
    }

    #[test]
    fn a_transfer_starts_no_earlier_than_what_it_depends_on() {
        let mut link = Link::new(1.0);
        let after = Instant::now() + Duration::from_millis(50);
        let (start, ready) = link.charge(1_000, Some(after)).expect("priced");
        assert_eq!(start, after);
        assert!(((ready - start).as_secs_f64() - 1e-6).abs() < 1e-9);
        // An idle link starts a transfer now.
        let before = Instant::now();
        let (start, _) = Link::new(1.0).charge(1, None).expect("priced");
        assert!(start >= before && start - before < Duration::from_millis(50));
    }

    #[test]
    fn sleep_until_waits_out_the_stamp_and_skips_the_past() {
        let t0 = Instant::now();
        assert!(!sleep_until(t0), "a past stamp returns at once");
        assert!(
            !sleep_until(t0 + Duration::from_micros(1)),
            "sub-resolution"
        );
        let at = Instant::now() + Duration::from_millis(20);
        assert!(sleep_until(at));
        assert!(Instant::now() >= at);
    }
}
