//! The kernel context: every setting a kernel consults, as one value per
//! thread.
//!
//! A [`KernelCtx`] is the thread budget, the parallel-split threshold and
//! the SIMD backend. A thread starts at the process default (`FPDT_THREADS`,
//! the default threshold, the widest detected backend); [`KernelCtx::enter`], the
//! only way to choose another, runs a closure under it and restores the
//! previous one afterwards. Nothing here is process-wide and mutable, so
//! two threads run under different settings at the same time without a lock.
//!
//! The context travels with the work: `fpdt_tensor::par` runs every pool
//! item under the submitting thread's context, and the runtime's rank
//! threads start from the context of the thread that spawned them, split
//! across the ranks. None of the three settings can change a result; they
//! only decide who computes an item and with which instantiation.

use crate::mk::{self, Backend};
use std::cell::Cell;
use std::sync::OnceLock;

/// The settings every kernel consults, as one value.
///
/// Build one from the current context and override fields:
///
/// ```
/// use fpdt_tensor::{KernelCtx, mk::Backend};
///
/// let forced = KernelCtx { threads: 1, par_threshold: 1, backend: Backend::Scalar };
/// forced.enter(|| assert_eq!(fpdt_tensor::par::par_threshold(), 1));
/// let wider = KernelCtx { threads: 4, ..KernelCtx::current() };
/// assert_eq!(wider.enter(KernelCtx::current).threads, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCtx {
    /// Threads one fan-out may use, the calling thread included
    /// (clamped to `1..=64` on entry).
    pub threads: usize,
    /// Least work (multiply-adds or elements) a kernel needs before it
    /// fans out at all.
    pub par_threshold: usize,
    /// Microkernel instantiation. A forced [`Backend::Avx512`] runs the
    /// AVX2 one where the CPU lacks `avx512f`, and a forced AVX2 or
    /// AVX-512 the scalar one where it lacks AVX2/FMA. Only
    /// [`mk::gemm_panel`] runs wider than 8 lanes: its elements are
    /// single fused chains, so their bits do not depend on the width,
    /// while every reduction kernel stays on 8 lanes (see [`mk`]).
    pub backend: Backend,
}

thread_local! {
    /// This thread's threshold and backend; `None` until [`KernelCtx::enter`]
    /// sets them. The thread budget lives with the pool
    /// (`rayon::pool::current_threads`).
    static LOCAL: Cell<Option<(usize, Backend)>> = const { Cell::new(None) };
}

/// The process default threshold and backend, fixed once. `FPDT_THREADS`
/// is checked here under the strict count rule, so a malformed budget
/// warns once; the pool (`rayon::pool`) reads the value itself, and its
/// parse accepts exactly what [`crate::env::usize_knob`] accepts.
fn defaults() -> (usize, Backend) {
    static DEFAULT: OnceLock<(usize, Backend)> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let _ = crate::env::usize_knob("FPDT_THREADS");
        let backend = *mk::backends().last().expect("scalar always runs");
        (crate::par::DEFAULT_PAR_THRESHOLD, backend)
    })
}

/// This thread's threshold and backend.
pub(crate) fn local() -> (usize, Backend) {
    LOCAL.get().unwrap_or_else(defaults)
}

impl KernelCtx {
    /// The calling thread's context.
    pub fn current() -> Self {
        let (par_threshold, backend) = local();
        KernelCtx {
            threads: rayon::pool::current_threads(),
            par_threshold,
            backend,
        }
    }

    /// This context with the thread budget shared out over `ways` threads
    /// that run side by side (at least one thread each): what each rank
    /// of a `ways`-rank group gets, so simulated devices dividing the host
    /// never oversubscribe it.
    #[must_use]
    pub fn split(self, ways: usize) -> Self {
        KernelCtx {
            threads: (self.threads / ways.max(1)).max(1),
            ..self
        }
    }

    /// Runs `f` on this thread under this context, then restores the
    /// previous one (also when `f` panics).
    pub fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<(usize, Backend)>);
        impl Drop for Restore {
            fn drop(&mut self) {
                LOCAL.set(self.0);
            }
        }
        let _restore = Restore(LOCAL.replace(Some((self.par_threshold, self.backend))));
        rayon::pool::with_threads(self.threads, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs a fresh thread to see the process default"
    )]
    fn enter_scopes_every_field_on_this_thread_only() {
        let outer = KernelCtx::current();
        let inner = KernelCtx {
            threads: 3,
            par_threshold: 123,
            backend: Backend::Scalar,
        };
        inner.enter(|| {
            assert_eq!(KernelCtx::current(), inner);
            assert_eq!(crate::par::par_threshold(), 123);
            assert_eq!(mk::backend(), Backend::Scalar);
            let there = std::thread::scope(|s| s.spawn(KernelCtx::current).join().unwrap());
            assert_eq!(there, outer, "a new thread starts at the process default");
        });
        assert_eq!(KernelCtx::current(), outer);
        let unwound = std::panic::catch_unwind(|| inner.enter(|| panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!(KernelCtx::current(), outer, "restored on unwind");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test re-runs itself as a child marked by an env variable"
    )]
    fn a_malformed_thread_budget_warns_once() {
        // The process defaults are read once, so the check runs in a child
        // process of this test binary with the variable set.
        const NAME: &str = "ctx::tests::a_malformed_thread_budget_warns_once";
        if std::env::var_os("FPDT_CTX_TEST_CHILD").is_some() {
            let first = KernelCtx::current();
            assert_eq!(KernelCtx::current(), first);
            return;
        }
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", NAME, "--nocapture", "--test-threads=1"])
            .env("FPDT_CTX_TEST_CHILD", "1")
            .env("FPDT_THREADS", "eight")
            .output()
            .expect("child test run");
        assert!(child.status.success(), "child failed: {child:?}");
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert_eq!(
            stderr.matches("malformed FPDT_THREADS").count(),
            1,
            "{stderr}"
        );
    }
}
