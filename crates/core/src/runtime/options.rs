//! The single front door for every runtime knob.
//!
//! [`RuntimeOptions`] is one builder with one documented
//! [`RuntimeOptions::from_env`], so "what is this run actually configured
//! to do?" has a single answer.
//!
//! There is no stream knob. The comm and copy streams are clocks on the
//! rank thread, one code path at every link: over a priced link
//! (positive `sim_gbps`) each all-to-all and host-pool transfer holds its
//! link for its bytes and a wait sleeps only until it lands, so the wire
//! time hides behind attention (paper §4, Figure 7); over a free link
//! (`0`, the default) nothing is ever waited for. Whether to offload at
//! all is part of the strategy ([`Mode::Fpdt`](super::Mode::Fpdt)), not
//! an option.
//!
//! Kernel settings are not here either. A session's kernels run under the
//! [`KernelCtx`](fpdt_tensor::KernelCtx) of the thread that first calls
//! `Trainer::run_steps`, its thread budget split across the ranks
//! ([`KernelCtx::split`](fpdt_tensor::KernelCtx::split)); run under another
//! context with [`KernelCtx::enter`](fpdt_tensor::KernelCtx::enter). A
//! thread's default context is the `FPDT_THREADS` budget, the default
//! threshold and the detected backend (`fpdt_tensor::ctx`). Nothing here
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
//! | `FPDT_COMM_RETRIES`  | replay budget for transient collective faults| 0       |
//! | `FPDT_FAULT_INJECT`  | transient faults armed per `run_steps` call  | 0       |
//! | `FPDT_SIM_GBPS`      | simulated link bandwidth, GB/s (`0` = free)  | 0       |

/// Parses the shared flag syntax: unset means `default`; `0`, `false`,
/// or `off` disable; any other value enables.
///
/// The actual `std::env` read lives in [`fpdt_tensor::env`] — the
/// workspace's shared strict-parse primitives — so both layers accept
/// exactly the same spellings. This module stays the one place *runtime*
/// knobs are interpreted; clippy's `disallowed_methods` (clippy.toml)
/// pins raw reads to the documented entry points.
fn env_flag(name: &str, default: bool) -> bool {
    fpdt_tensor::env::flag(name, default)
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
///     .with_comm_retries(2);
/// assert!(opts.payload_bf16 && opts.comm_retries == 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeOptions {
    /// Move host-offloaded KV chunks (`OffloadEngine` with offload on;
    /// device-resident chunks never round) and all-to-all payloads as
    /// bf16 (half the wire bytes; compute stays f32). `FPDT_BF16`. The
    /// one knob that affects numerics — see the module docs.
    pub payload_bf16: bool,
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
    /// (`fpdt_trace::wire`), and a wait sleeps only for what compute has
    /// not hidden (module docs). Only time changes, never a value or a
    /// statistic. Must be a value `fpdt_trace::wire::check_gbps` accepts;
    /// `with_sim_gbps` refuses any other (set directly, a negative or NaN
    /// value charges nothing, like `0`).
    pub sim_gbps: f64,
}

impl RuntimeOptions {
    /// Reads every runtime `FPDT_*` knob — the one documented parse point
    /// (see the module table).
    pub fn from_env() -> Self {
        RuntimeOptions {
            payload_bf16: env_flag("FPDT_BF16", false),
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
            .with_comm_retries(2)
            .with_fault_inject(1)
            .with_sim_gbps(0.05);
        assert!(opts.payload_bf16);
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
        assert_eq!(
            env_budget("FPDT_TEST_RETRIES"),
            None,
            "malformed falls back"
        );
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
}
