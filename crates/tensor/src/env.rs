//! The kernel layer's single environment-variable initialization point.
//!
//! `fpdt-tensor` sits at the bottom of the workspace dependency graph, so
//! it cannot call into `fpdt_core::runtime::RuntimeOptions` — but its one
//! kernel knob (`FPDT_THREADS`, checked in `ctx`) still deserves the same
//! strict parse-or-warn discipline as the runtime flags. This module is
//! the one place in the crate allowed to touch `std::env` (each read
//! carries an `#[expect(clippy::disallowed_methods)]`; clippy.toml bans
//! the calls everywhere else), and
//! `RuntimeOptions::from_env` reuses these primitives so the flag syntax
//! stays identical across layers:
//!
//! * flags: unset means the default; `0`, `false`, or `off` (trimmed)
//!   disable; anything else enables.
//! * counts: strict trimmed decimal `>= 1`; anything else warns **once**
//!   per variable and falls back to the default instead of silently
//!   training under a configuration the operator did not ask for.

#[expect(clippy::disallowed_types, reason = "a warn-once set, never iterated")]
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Parses the shared flag syntax: unset means `default`; `0`, `false`,
/// or `off` (trimmed) disable; any other value enables.
#[expect(clippy::disallowed_methods, reason = "the kernel layer's env reads")]
pub fn flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => !["0", "false", "off"].contains(&v.trim()),
    }
}

/// Strictly validates a count-valued knob: trimmed decimal, nonzero.
///
/// Returns the reason a value is unusable so [`usize_knob`] can warn —
/// an operator who exports `FPDT_THREADS=eight` (or `=0`) should hear
/// about the typo once instead of silently training on the default.
pub fn parse_usize_strict(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("value is empty".to_string());
    }
    match trimmed.parse::<usize>() {
        Err(_) => Err(format!("`{trimmed}` is not a positive integer")),
        Ok(0) => Err("`0` is not a usable value (must be >= 1)".to_string()),
        Ok(v) => Ok(v),
    }
}

/// Warns about a malformed variable at most once per process.
#[expect(clippy::disallowed_types, reason = "a warn-once set, never iterated")]
pub fn warn_once(name: &str, why: &str) {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let mut warned = WARNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if warned.insert(name.to_string()) {
        eprintln!("warning: ignoring malformed {name} ({why}); using the default");
    }
}

/// Reads a count-valued knob under [`parse_usize_strict`]: `None` when the
/// variable is unset *or* malformed (after a one-time warning).
#[expect(clippy::disallowed_methods, reason = "the kernel layer's env reads")]
pub fn usize_knob(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match parse_usize_strict(&raw) {
        Ok(v) => Some(v),
        Err(why) => {
            warn_once(name, &why);
            None
        }
    }
}

/// Reads a budget-valued knob: like [`usize_knob`] but `0` is a usable
/// value (a retry budget of zero means "fail fast", not "unset").
#[expect(clippy::disallowed_methods, reason = "the kernel layer's env reads")]
pub fn budget_knob(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed == "0" {
        return Some(0);
    }
    match parse_usize_strict(trimmed) {
        Ok(v) => Some(v),
        Err(why) => {
            warn_once(name, &why);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_syntax_is_shared() {
        for (val, want) in [
            (Some("0"), false),
            (Some("false"), false),
            (Some(" off "), false),
            (Some("1"), true),
            (Some("yes"), true),
            (None, true),
        ] {
            match val {
                Some(v) => std::env::set_var("FPDT_TENSOR_TEST_FLAG", v),
                None => std::env::remove_var("FPDT_TENSOR_TEST_FLAG"),
            }
            assert_eq!(flag("FPDT_TENSOR_TEST_FLAG", true), want, "{val:?}");
        }
        std::env::remove_var("FPDT_TENSOR_TEST_FLAG");
        assert!(!flag("FPDT_TENSOR_TEST_FLAG", false), "default respected");
    }

    #[test]
    fn strict_parse_rejects_empty_garbage_zero() {
        assert!(parse_usize_strict("").is_err(), "empty");
        assert!(parse_usize_strict("   ").is_err(), "whitespace");
        assert!(parse_usize_strict("eight").is_err(), "garbage");
        assert!(parse_usize_strict("3.5").is_err(), "float");
        assert!(parse_usize_strict("-2").is_err(), "negative");
        assert!(parse_usize_strict("0").is_err(), "zero");
        assert_eq!(parse_usize_strict("8"), Ok(8));
        assert_eq!(parse_usize_strict(" 16 "), Ok(16), "trimmed");
    }

    #[test]
    fn malformed_counts_read_as_unset() {
        for (i, bad) in ["", "garbage", "0", "-1"].iter().enumerate() {
            let name = format!("FPDT_TENSOR_TEST_COUNT_{i}");
            std::env::set_var(&name, bad);
            assert_eq!(usize_knob(&name), None, "{bad:?} must fall back");
            std::env::remove_var(&name);
        }
        std::env::set_var("FPDT_TENSOR_TEST_COUNT_OK", "4");
        assert_eq!(usize_knob("FPDT_TENSOR_TEST_COUNT_OK"), Some(4));
        std::env::remove_var("FPDT_TENSOR_TEST_COUNT_OK");
        assert_eq!(usize_knob("FPDT_TENSOR_TEST_COUNT_OK"), None);
    }

    #[test]
    fn budget_knob_allows_zero_but_not_garbage() {
        std::env::set_var("FPDT_TENSOR_TEST_BUDGET", "0");
        assert_eq!(budget_knob("FPDT_TENSOR_TEST_BUDGET"), Some(0));
        std::env::set_var("FPDT_TENSOR_TEST_BUDGET", " 3 ");
        assert_eq!(budget_knob("FPDT_TENSOR_TEST_BUDGET"), Some(3));
        std::env::set_var("FPDT_TENSOR_TEST_BUDGET", "lots");
        assert_eq!(budget_knob("FPDT_TENSOR_TEST_BUDGET"), None);
        std::env::remove_var("FPDT_TENSOR_TEST_BUDGET");
        assert_eq!(budget_knob("FPDT_TENSOR_TEST_BUDGET"), None);
    }
}
