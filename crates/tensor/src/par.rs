//! Kernel parallelism policy shared by every compute kernel in the
//! workspace: the split threshold, the row-dispatch helpers and reusable
//! per-thread scratch buffers. The vector kernels themselves live in
//! [`crate::mk`].
//!
//! The actual thread pool lives in the vendored `rayon` crate
//! (`rayon::pool`); this module decides *when* going parallel pays off and
//! keeps the decision in one place instead of a per-file constant. The
//! threshold and the thread budget are the calling thread's
//! [`KernelCtx`], and every pool item runs under that same context, so a
//! helper thread computes with the submitter's settings.
//!
//! Determinism: every helper here preserves the kernel contract that makes
//! results bitwise identical at any thread count — items are a fixed
//! partition of disjoint data and all accumulation inside an item is
//! sequential in a fixed order.

use crate::KernelCtx;
use rayon::prelude::*;
use std::cell::RefCell;

/// Default minimum amount of work (roughly multiply-adds, or elements for
/// bandwidth-bound ops) before a kernel fans out to the pool. Matches the
/// former per-file `m * k * n > 1 << 16` gate in the matmul kernels.
pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 16;

/// The calling thread's parallel-split threshold ([`KernelCtx`]; the
/// process default is [`DEFAULT_PAR_THRESHOLD`]).
pub fn par_threshold() -> usize {
    crate::ctx::local().0
}

/// Whether a kernel with `items` independent pieces totalling `work`
/// scalar operations should fan out to the pool.
pub fn parallel_worthwhile(items: usize, work: usize) -> bool {
    items >= 2 && work >= par_threshold()
}

/// Dispatches `body(i, row)` over fixed `row_len` rows of `data` —
/// parallel when [`parallel_worthwhile`] says the `work` estimate covers
/// the fan-out cost, sequential otherwise. Both paths visit the same
/// partition, so the choice never changes the numbers.
///
/// This is the shared dispatch block that used to be copy-pasted per
/// kernel.
pub fn run_rows<F>(data: &mut [f32], row_len: usize, work: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let row_len = row_len.max(1);
    if parallel_worthwhile(data.len() / row_len, work) {
        let ctx = KernelCtx::current();
        data.par_chunks_mut(row_len)
            .enumerate()
            .for_each(|(i, row)| ctx.enter(|| body(i, row)));
    } else {
        data.chunks_mut(row_len)
            .enumerate()
            .for_each(|(i, row)| body(i, row));
    }
}

/// Two-slice variant of [`run_rows`]: rows of `a` (length `ra`) and `b`
/// (length `rb`) advance in lock step, for kernels whose per-item state
/// spans two buffers (e.g. gradient pairs, output + per-row statistic).
pub fn run_rows2<F>(a: &mut [f32], ra: usize, b: &mut [f32], rb: usize, work: usize, body: F)
where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync,
{
    let (ra, rb) = (ra.max(1), rb.max(1));
    if parallel_worthwhile(a.len() / ra, work) {
        let ctx = KernelCtx::current();
        a.par_chunks_mut(ra)
            .zip(b.par_chunks_mut(rb))
            .enumerate()
            .for_each(|(i, (x, y))| ctx.enter(|| body(i, x, y)));
    } else {
        a.chunks_mut(ra)
            .zip(b.chunks_mut(rb))
            .enumerate()
            .for_each(|(i, (x, y))| body(i, x, y));
    }
}

/// Three-slice variant of [`run_rows`] (e.g. the online-attention
/// accumulator's `(acc, m, l)` triple).
#[allow(clippy::too_many_arguments)]
pub fn run_rows3<F>(
    a: &mut [f32],
    ra: usize,
    b: &mut [f32],
    rb: usize,
    c: &mut [f32],
    rc: usize,
    work: usize,
    body: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32], &mut [f32]) + Sync,
{
    let (ra, rb, rc) = (ra.max(1), rb.max(1), rc.max(1));
    if parallel_worthwhile(a.len() / ra, work) {
        let ctx = KernelCtx::current();
        a.par_chunks_mut(ra)
            .zip(b.par_chunks_mut(rb))
            .zip(c.par_chunks_mut(rc))
            .enumerate()
            .for_each(|(i, ((x, y), z))| ctx.enter(|| body(i, x, y, z)));
    } else {
        a.chunks_mut(ra)
            .zip(b.chunks_mut(rb))
            .zip(c.chunks_mut(rc))
            .enumerate()
            .for_each(|(i, ((x, y), z))| body(i, x, y, z));
    }
}

thread_local! {
    static SCRATCH: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Hands `f` a zeroed scratch buffer of length `len`, reusing a
/// thread-local allocation across calls (kills the per-chunk `vec!`
/// allocations in the attention backward nest). Reentrant: nested calls
/// get distinct buffers.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = SCRATCH
        .with(|s| s.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    let r = f(&mut buf);
    SCRATCH.with(|s| s.borrow_mut().push(buf));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_comes_from_the_context() {
        let ctx = KernelCtx {
            par_threshold: 123,
            ..KernelCtx::current()
        };
        ctx.enter(|| {
            assert!(parallel_worthwhile(2, 123));
            assert!(!parallel_worthwhile(2, 122));
            assert!(!parallel_worthwhile(1, usize::MAX));
        });
    }

    #[test]
    fn pool_items_run_under_the_submitters_context() {
        let ctx = KernelCtx {
            threads: 4,
            par_threshold: 5,
            backend: crate::mk::Backend::Scalar,
        };
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let mut rows = vec![0.0f32; 16];
        ctx.enter(|| {
            run_rows(&mut rows, 1, usize::MAX, |_, _| {
                // long enough for the helpers to claim items too
                std::thread::sleep(std::time::Duration::from_millis(2));
                let here = (std::thread::current().id(), KernelCtx::current());
                seen.lock().unwrap().push(here);
            });
        });
        let seen = seen.into_inner().unwrap();
        assert!(
            seen.iter().any(|(tid, _)| *tid != caller),
            "no item left the caller"
        );
        assert!(
            seen.iter().all(|(_, here)| *here == ctx),
            "an item ran under another context"
        );
    }

    #[test]
    fn run_rows_visits_every_row_once() {
        let mut data = vec![0.0f32; 35];
        run_rows(&mut data, 5, usize::MAX, |i, row| {
            for v in row.iter_mut() {
                *v += 1.0 + i as f32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1.0 + (i / 5) as f32);
        }
    }

    #[test]
    fn scratch_is_zeroed_and_reentrant() {
        with_scratch(8, |a| {
            assert!(a.iter().all(|&v| v == 0.0));
            a[0] = 7.0;
            with_scratch(4, |b| {
                assert!(b.iter().all(|&v| v == 0.0));
            });
            assert_eq!(a[0], 7.0);
        });
        // reused buffer must be re-zeroed
        with_scratch(8, |a| assert!(a.iter().all(|&v| v == 0.0)));
    }
}
