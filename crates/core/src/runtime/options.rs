//! The single front door for every runtime knob.
//!
//! Before this module, tuning was scattered: the executor carried its own
//! options pair, `TrainConfig` had its own optional override, the kernel
//! pool read `FPDT_THREADS` and the tensor ops read `FPDT_PAR_THRESHOLD`
//! — each with its own parsing. [`RuntimeOptions`] collapses them into
//! one builder with one documented [`RuntimeOptions::from_env`], so "what
//! is this run actually configured to do?" has a single answer.
//!
//! There is no stream knob: where the executor runs its transfers
//! follows the simulated link, `sim_gbps`. Over a priced link (positive
//! bandwidth) the all-to-alls run on the comm stream's worker and, when
//! offloading, the host-pool transfers on the two copy streams' workers,
//! where their wire time hides behind attention (paper §4, Figure 7).
//! Over a free link (`0`, the default) a transfer is an `Arc` move and a
//! read pass with no time to hide, so the same streams run each job
//! inline on the rank thread at its post, sparing a worker wake-up per
//! job: same order, same values, same statistics. Whether to offload at
//! all is part of the strategy ([`Mode::Fpdt`](super::Mode::Fpdt)), not
//! an option.
//!
//! `threads` and `par_threshold` are the two kernel settings of the rank
//! sessions' [`KernelCtx`]: a session starts from the context of the
//! thread that first calls `Trainer::run_steps`, these two override it,
//! and the thread budget is then split across the ranks
//! ([`RuntimeOptions::kernel_ctx`], [`KernelCtx::split`]). Nothing here
//! writes a process-wide setting.
//!
//! Every knob except `payload_bf16` is a *pure system* toggle: losses,
//! gradients, and communication statistics are bitwise identical across
//! all settings — the flags only move work between threads.
//! `payload_bf16` is the one numerics-affecting knob: offloaded KV and
//! all-to-all payloads round through bf16 (half the wire bytes; compute
//! stays f32), so results match the f32 run only to bf16 tolerance while
//! the *schedule* (transfer/message counts, chunk order) stays identical.
//!
//! ## Environment variables
//!
//! | Variable             | Effect                                       | Default |
//! |----------------------|----------------------------------------------|---------|
//! | `FPDT_BF16`          | bf16 payloads (`0`/`false`/`off` = no)       | off     |
//! | `FPDT_THREADS`       | kernel thread budget of the training run     | num CPUs|
//! | `FPDT_PAR_THRESHOLD` | min work before a kernel splits              | 65536   |
//! | `FPDT_COMM_RETRIES`  | replay budget for transient collective faults| 0       |
//! | `FPDT_FAULT_INJECT`  | transient faults armed per `run_steps` call  | 0       |
//! | `FPDT_SIM_GBPS`      | simulated link bandwidth, GB/s (`0` = free)  | 0       |

use fpdt_tensor::KernelCtx;

/// Parses the shared flag syntax: unset means `default`; `0`, `false`,
/// or `off` disable; any other value enables.
///
/// The actual `std::env` read lives in [`fpdt_tensor::env`] — the
/// workspace's shared strict-parse primitives — so both layers accept
/// exactly the same spellings. This module stays the one place *runtime*
/// knobs are interpreted; `fpdt-lint`'s `env-outside-options` rule pins
/// raw reads to the documented entry points.
fn env_flag(name: &str, default: bool) -> bool {
    fpdt_tensor::env::flag(name, default)
}

/// Reads a count-valued knob strictly (trimmed decimal `>= 1`), warning
/// once and falling back to `None` on anything malformed.
fn env_usize(name: &str) -> Option<usize> {
    fpdt_tensor::env::usize_knob(name)
}

/// Reads a budget-valued knob strictly (trimmed decimal, `0` allowed),
/// warning once and falling back to `None` on anything malformed.
fn env_budget(name: &str) -> Option<usize> {
    fpdt_tensor::env::budget_knob(name)
}

/// Every runtime knob, in one place, with a builder for overrides.
///
/// Construct with [`RuntimeOptions::from_env`] (or `Default`, which is
/// the same), then chain `with_*` calls:
///
/// ```
/// use fpdt_core::runtime::RuntimeOptions;
///
/// let opts = RuntimeOptions::from_env()
///     .with_payload_bf16(true)
///     .with_threads(1);
/// assert!(opts.payload_bf16 && opts.threads == Some(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeOptions {
    /// Move HostPool-offloaded KV chunks and all-to-all payloads as bf16
    /// (half the wire bytes; compute stays f32). `FPDT_BF16`. The one
    /// knob that affects numerics — see the module docs.
    pub payload_bf16: bool,
    /// Kernel thread budget of the whole run, split across its ranks
    /// (`None` = the budget of the thread that starts the run, by default
    /// `FPDT_THREADS`).
    pub threads: Option<usize>,
    /// Parallel-split threshold of the rank threads' kernels (`None` = the
    /// threshold of the thread that starts the run, by default
    /// `FPDT_PAR_THRESHOLD`).
    pub par_threshold: Option<usize>,
    /// Replay budget for transient collective faults (`FPDT_COMM_RETRIES`,
    /// default 0 = fail fast): how many extra attempts each collective
    /// gets before the step aborts and rolls back. Recovery re-runs the
    /// identical collective, so results are bitwise unchanged by retries.
    pub comm_retries: usize,
    /// Transient faults armed per `Trainer::run_steps` call (`FPDT_FAULT_INJECT`,
    /// default 0) — the fault-injection harness the recovery CI leg
    /// drives. Each armed fault fails one grad-reduction collective
    /// attempt before any bytes move; with `comm_retries` at least this
    /// large, training completes with identical results.
    pub fault_inject: usize,
    /// Bandwidth of the simulated off-device links, GB/s (`FPDT_SIM_GBPS`,
    /// default 0 = free): every all-to-all and host-pool transfer holds
    /// its link for `bytes / bandwidth` of wall-clock time
    /// (`fpdt_trace::wire`). Positive, the streams get worker threads to
    /// hide that time behind compute; zero, they run inline (module
    /// docs). Only time changes, never a value or a statistic. Must be a
    /// value `fpdt_trace::wire::check_gbps` accepts; the builder refuses
    /// any other (set directly, a negative or NaN value charges nothing
    /// and runs inline, like `0`).
    pub sim_gbps: f64,
}

impl RuntimeOptions {
    /// Reads every `FPDT_*` knob — the one documented parse point (see
    /// the module table). `threads`/`par_threshold` are `Some` only when
    /// their variable is set: a thread's default kernel context already
    /// comes from the same variables, so `None` means "keep the caller's
    /// context" rather than "reset to default".
    pub fn from_env() -> Self {
        RuntimeOptions {
            payload_bf16: env_flag("FPDT_BF16", false),
            threads: env_usize("FPDT_THREADS"),
            par_threshold: env_usize("FPDT_PAR_THRESHOLD"),
            comm_retries: env_budget("FPDT_COMM_RETRIES").unwrap_or(0),
            fault_inject: env_budget("FPDT_FAULT_INJECT").unwrap_or(0),
            sim_gbps: fpdt_trace::wire::link_gbps(),
        }
    }

    /// Sets bf16 offload/all-to-all payloads on or off.
    #[must_use]
    pub fn with_payload_bf16(mut self, payload_bf16: bool) -> Self {
        self.payload_bf16 = payload_bf16;
        self
    }

    /// Overrides the run's kernel thread budget.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the parallel-split threshold.
    #[must_use]
    pub fn with_par_threshold(mut self, par_threshold: usize) -> Self {
        self.par_threshold = Some(par_threshold);
        self
    }

    /// Sets the transient-fault replay budget.
    #[must_use]
    pub fn with_comm_retries(mut self, comm_retries: usize) -> Self {
        self.comm_retries = comm_retries;
        self
    }

    /// Arms `fault_inject` transient faults per `run_steps` call (the
    /// fault-injection harness; 0 disables).
    #[must_use]
    pub fn with_fault_inject(mut self, fault_inject: usize) -> Self {
        self.fault_inject = fault_inject;
        self
    }

    /// Sets the simulated link bandwidth in GB/s (0 = free link).
    ///
    /// # Panics
    ///
    /// Panics on a value `FPDT_SIM_GBPS` could not hold: negative, NaN or
    /// infinite (`fpdt_trace::wire::check_gbps`).
    #[must_use]
    pub fn with_sim_gbps(mut self, sim_gbps: f64) -> Self {
        self.sim_gbps = fpdt_trace::wire::check_gbps(sim_gbps)
            .unwrap_or_else(|why| panic!("simulated link bandwidth refused: {why}"));
        self
    }

    /// `base` with this run's `threads` and `par_threshold` overrides —
    /// the context a run started from a thread at `base` computes under,
    /// before the budget is split across its ranks.
    pub fn kernel_ctx(&self, base: KernelCtx) -> KernelCtx {
        KernelCtx {
            threads: self.threads.unwrap_or(base.threads),
            par_threshold: self.par_threshold.unwrap_or(base.par_threshold),
            ..base
        }
    }
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_every_knob() {
        let opts = RuntimeOptions::from_env()
            .with_payload_bf16(true)
            .with_threads(3)
            .with_par_threshold(1)
            .with_comm_retries(2)
            .with_fault_inject(1)
            .with_sim_gbps(0.05);
        assert!(opts.payload_bf16);
        assert_eq!(opts.threads, Some(3));
        assert_eq!(opts.par_threshold, Some(1));
        assert_eq!(opts.comm_retries, 2);
        assert_eq!(opts.fault_inject, 1);
        assert_eq!(opts.sim_gbps, 0.05);
    }

    #[test]
    fn a_link_the_env_parser_would_refuse_is_refused() {
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let opts = RuntimeOptions::from_env();
            let refused = std::panic::catch_unwind(|| opts.with_sim_gbps(bad));
            assert!(refused.is_err(), "{bad} GB/s accepted");
        }
    }

    #[test]
    fn retry_budget_env_allows_zero_and_rejects_garbage() {
        std::env::set_var("FPDT_TEST_RETRIES", "0");
        assert_eq!(env_budget("FPDT_TEST_RETRIES"), Some(0), "0 is a budget");
        std::env::set_var("FPDT_TEST_RETRIES", "3");
        assert_eq!(env_budget("FPDT_TEST_RETRIES"), Some(3));
        std::env::set_var("FPDT_TEST_RETRIES", "many");
        assert_eq!(env_budget("FPDT_TEST_RETRIES"), None, "malformed falls back");
        std::env::remove_var("FPDT_TEST_RETRIES");
        assert_eq!(env_budget("FPDT_TEST_RETRIES"), None);
    }

    #[test]
    fn flag_syntax_is_shared() {
        // A dedicated test variable avoids racing other tests that read
        // the real knobs concurrently.
        for (val, want) in [
            (Some("0"), false),
            (Some("false"), false),
            (Some("off"), false),
            (Some("1"), true),
            (Some("yes"), true),
            (None, true),
        ] {
            match val {
                Some(v) => std::env::set_var("FPDT_TEST_FLAG", v),
                None => std::env::remove_var("FPDT_TEST_FLAG"),
            }
            assert_eq!(env_flag("FPDT_TEST_FLAG", true), want, "{val:?}");
        }
        std::env::remove_var("FPDT_TEST_FLAG");
        assert!(!env_flag("FPDT_TEST_FLAG", false), "default respected");
    }

    #[test]
    fn strict_parse_rejects_empty_garbage_zero() {
        // The runtime layer delegates to the shared kernel-layer parser;
        // assert the delegated surface keeps the strict contract.
        use fpdt_tensor::env::parse_usize_strict;
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
    fn malformed_env_counts_fall_back_to_default() {
        // Dedicated variable names so concurrent tests reading the real
        // knobs are untouched; each malformed shape must read as unset.
        for (i, bad) in ["", "garbage", "0", "-1"].iter().enumerate() {
            let name = format!("FPDT_TEST_COUNT_{i}");
            std::env::set_var(&name, bad);
            assert_eq!(env_usize(&name), None, "{bad:?} must fall back");
            std::env::remove_var(&name);
        }
        std::env::set_var("FPDT_TEST_COUNT_OK", "4");
        assert_eq!(env_usize("FPDT_TEST_COUNT_OK"), Some(4));
        std::env::remove_var("FPDT_TEST_COUNT_OK");
        assert_eq!(env_usize("FPDT_TEST_COUNT_OK"), None, "unset stays None");
    }

    #[test]
    fn kernel_overrides_replace_only_their_fields() {
        let base = KernelCtx::current();
        let none = RuntimeOptions {
            threads: None,
            par_threshold: None,
            ..RuntimeOptions::from_env()
        };
        assert_eq!(
            none.kernel_ctx(base),
            base,
            "no override keeps the caller's context"
        );
        let both = none.with_threads(3).with_par_threshold(9).kernel_ctx(base);
        assert_eq!(
            (both.threads, both.par_threshold, both.backend),
            (3, 9, base.backend)
        );
    }
}
