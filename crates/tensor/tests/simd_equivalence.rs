//! Bitwise equivalence of the AVX2/FMA microkernels against the portable
//! scalar fallback, across odd/remainder shapes and kernel-pool thread
//! budgets (1, 2, and 8 threads).
//!
//! Both backends run the same generic kernel over an 8-lane vector trait:
//! identical register blocking, identical remainder handling, and a fixed
//! 8-lane reduction tree, so every result must match the scalar backend
//! *bitwise* — the backend is a pure performance knob. These tests pin
//! that contract on the raw `mk` primitives and on the full `ops` gemm
//! family, with the backend forced through a scoped kernel context.
//!
//! On hardware without AVX2 the SIMD legs are skipped; the scalar legs
//! still exercise the dispatch plumbing.

use fpdt_tensor::mk::{self, AdamwStep, Backend, Panel};
use fpdt_tensor::{init, ops, KernelCtx};
use proptest::prelude::*;

/// A kernel context with `backend` forced and `threads` threads at a
/// parallel-split threshold of 1 (every op really splits).
fn forced(backend: Backend, threads: usize) -> KernelCtx {
    KernelCtx {
        threads,
        par_threshold: 1,
        backend,
    }
}

/// Runs `f` with `backend` forced on this thread.
fn on<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    forced(backend, 1).enter(f)
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Backends to compare: scalar always, AVX2 when the CPU has it.
fn backends() -> Vec<Backend> {
    let mut out = vec![Backend::Scalar];
    if mk::avx2_available() {
        out.push(Backend::Avx2);
    }
    out
}

fn randv(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = init::seeded_rng(seed);
    init::randn(&mut rng, &[n.max(1)], 1.0).data()[..n].to_vec()
}

/// Error of `got` against `exp(x)` evaluated in f64, in units of the f32
/// spacing at the exact value.
fn ulp_err(x: f32, got: f32) -> f64 {
    let exact = f64::from(x).exp();
    let e = exact as f32;
    let ulp = f64::from(f32::from_bits(e.to_bits() + 1)) - f64::from(e);
    (f64::from(got) - exact).abs() / ulp
}

fn exp_of(be: Backend, x: &[f32]) -> Vec<f32> {
    let mut y = x.to_vec();
    on(be, || mk::exp(&mut y));
    y
}

#[test]
fn exp_is_within_two_ulp_on_the_softmax_range() {
    // Dense sweep of [EXP_LO, 0] ...
    let steps = 400_000;
    let mut xs: Vec<f32> = (0..=steps)
        .map(|i| mk::EXP_LO * (i as f32 / steps as f32))
        .collect();
    // ... plus the range-reduction breakpoints x = (n + 1/2) ln 2, where
    // the reduced argument is largest and flips sign, a few f32 either side.
    for n in -126..0 {
        let b = ((f64::from(n) + 0.5) * std::f64::consts::LN_2) as f32;
        for step in -3i32..=3 {
            xs.push(f32::from_bits((b.to_bits() as i32 + step) as u32));
        }
    }
    xs.retain(|x| (mk::EXP_LO..=0.0).contains(x));
    for be in backends() {
        let ys = exp_of(be, &xs);
        let worst = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| ulp_err(x, y))
            .fold(0.0f64, f64::max);
        assert!(worst <= 2.0, "{be:?}: worst error {worst} ulp");
    }
}

#[test]
fn exp_edge_values_are_exact() {
    let below = f32::from_bits(mk::EXP_LO.to_bits() + 1); // next f32 below EXP_LO
    let x = [
        0.0,
        -0.0,
        mk::EXP_LO,
        below,
        -100.0,
        -1e30,
        f32::NEG_INFINITY,
        f32::NAN,
        mk::EXP_HI,
        1e30,
        f32::INFINITY,
        -1.0,
        1.0,
    ];
    for be in backends() {
        let y = exp_of(be, &x); // 13 values: one vector plus a padded tail
        assert_eq!(y[0].to_bits(), 1.0f32.to_bits(), "{be:?}: exp(0)");
        assert_eq!(y[1].to_bits(), 1.0f32.to_bits(), "{be:?}: exp(-0)");
        assert!(
            y[2] >= f32::MIN_POSITIVE,
            "{be:?}: exp(EXP_LO) = {} is normal",
            y[2]
        );
        for (i, v) in y.iter().enumerate().take(8).skip(3) {
            assert_eq!(
                v.to_bits(),
                0,
                "{be:?}: x[{i}] = {} must flush to +0.0",
                x[i]
            );
        }
        assert!(y[8].is_finite() && y[8] > 1e38, "{be:?}: exp(EXP_HI)");
        assert_eq!(
            y[9].to_bits(),
            y[8].to_bits(),
            "{be:?}: saturates above EXP_HI"
        );
        assert_eq!(y[10].to_bits(), y[8].to_bits(), "{be:?}: saturates at +inf");
        assert!(ulp_err(-1.0, y[11]) <= 2.0 && ulp_err(1.0, y[12]) <= 2.0);
    }
}

/// The four activation kernels on one backend: `(gelu, gelu', silu,
/// silu')` at `x`, the derivatives taken against `dy = 1`.
fn activations_of(be: Backend, x: &[f32]) -> [Vec<f32>; 4] {
    let ones = vec![1.0f32; x.len()];
    let (mut g, mut s) = (x.to_vec(), x.to_vec());
    let (mut dg, mut ds) = (ones.clone(), vec![0.0f32; x.len()]);
    on(be, || mk::gelu(&mut g));
    on(be, || mk::gelu_fwd_bwd(&mut x.to_vec(), &mut dg));
    on(be, || mk::silu(&mut s));
    on(be, || mk::silu_bwd(x, &ones, &mut ds));
    [g, dg, s, ds]
}

/// f64 evaluation of the same formulas: `(z, gelu, gelu')` with
/// `z = 2·sqrt(2/π)·(x + 0.044715·x³)`, and `(silu, silu')`.
fn activations_exact(x: f64) -> ((f64, f64, f64), (f64, f64)) {
    let sigma = |z: f64| 1.0 / (1.0 + (-z).exp());
    let k = 2.0 * (2.0 / std::f64::consts::PI).sqrt();
    let z = k * (x + 0.044715 * x * x * x);
    let dz = k * (1.0 + 3.0 * 0.044715 * x * x);
    let (sz, sx) = (sigma(z), sigma(x));
    (
        (z, x * sz, sz + x * dz * sz * (1.0 - sz)),
        (x * sx, sx + x * sx * (1.0 - sx)),
    )
}

#[test]
fn activations_match_scalar_bitwise_on_awkward_lengths() {
    // Empty, tail-only, one vector, vector + tail, and both sides of the
    // ops-level ELEM_BLOCK = 4096 split.
    for len in [0usize, 1, 7, 8, 9, 4095, 4097] {
        let x: Vec<f32> = randv(len as u64, len).iter().map(|v| v * 3.0).collect();
        let dy = randv(len as u64 + 1, len);
        let run = |be: Backend| {
            let mut out = activations_of(be, &x).concat();
            let (mut fx, mut dx) = (x.clone(), dy.clone());
            on(be, || mk::gelu_fwd_bwd(&mut fx, &mut dx));
            out.extend_from_slice(&fx);
            out.extend_from_slice(&dx);
            on(be, || mk::silu_bwd(&x, &dy, &mut dx));
            out.extend_from_slice(&dx);
            bits(&out)
        };
        let reference = run(Backend::Scalar);
        for be in backends() {
            assert_eq!(reference, run(be), "{be:?} diverged at length {len}");
        }
    }
}

#[test]
fn activations_track_the_f64_formulas_on_a_dense_sweep() {
    let steps = 480_000;
    let xs: Vec<f32> = (0..=steps)
        .map(|i| -12.0 + 24.0 * (i as f32 / steps as f32))
        .collect();
    for be in backends() {
        let [g, dg, s, ds] = activations_of(be, &xs);
        for (i, &x) in xs.iter().enumerate() {
            let ((z, gelu, dgelu), (silu, dsilu)) = activations_exact(f64::from(x));
            // SiLU's exponent argument is x itself: a flat relative bound.
            let err = (f64::from(s[i]) - silu).abs();
            assert!(
                err <= 1e-6 * silu.abs() + 1e-30,
                "{be:?}: silu({x}) = {} vs {silu}",
                s[i]
            );
            // GELU's is z ~ x³, rounded in f32 before the exponential; on
            // the negative side the result is ~e^z, so its relative error
            // is the *absolute* error of z. The bound scales with |z|: the
            // σ form loses no more than that rounding, where `1 + tanh`
            // cancels (tens of percent at x = -5; this bound allows 9e-6).
            let err = (f64::from(g[i]) - gelu).abs();
            assert!(
                err <= 5e-7 * (1.0 + z.abs()) * gelu.abs() + 1e-30,
                "{be:?}: gelu({x}) = {} vs {gelu}",
                g[i]
            );
            for (got, want, what) in [(dg[i], dgelu, "gelu'"), (ds[i], dsilu, "silu'")] {
                assert!(
                    (f64::from(got) - want).abs() <= 2e-6,
                    "{be:?}: {what}({x}) = {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn activation_edge_values() {
    let tiny = f32::from_bits(1); // smallest denormal
    let x = [
        0.0,
        -0.0,
        1e4,
        -1e4,
        88.0,
        -88.0,
        tiny,
        -tiny,
        f32::MIN_POSITIVE,
        87.3,
        -87.3,
        1e-20,
        -1e-20,
        f32::NAN,
    ];
    for be in backends() {
        let [g, dg, s, ds] = activations_of(be, &x);
        assert_eq!((g[0], s[0]), (0.0, 0.0), "{be:?}: f(0) == 0");
        assert_eq!((g[1], s[1]), (0.0, 0.0), "{be:?}: f(-0) == 0");
        assert_eq!((dg[0], ds[0]), (0.5, 0.5), "{be:?}: f'(0) == 1/2");
        // saturated: the identity on the right, ~0 on the left
        assert_eq!((g[2], dg[2]), (1e4, 1.0), "{be:?}: gelu(1e4)");
        assert_eq!((s[2], ds[2]), (1e4, 1.0), "{be:?}: silu(1e4)");
        assert!(g[3].abs() < 1e-30 && s[3].abs() < 1e-30 && dg[3].abs() < 1e-20);
        let finite = x.len() - 1;
        for out in [&g, &dg, &s, &ds] {
            for (i, v) in out[..finite].iter().enumerate() {
                assert!(v.is_finite(), "{be:?}: f({}) = {v}", x[i]);
            }
            assert!(out[finite].is_nan(), "{be:?}: NaN must propagate");
        }
    }
}

/// The scalar AdamW loop `mk::adamw` replaced, kept verbatim as the
/// reference: gradients scaled in a pass of their own, then three divides
/// and a square root per element.
fn adamw_reference(p: &mut [f32], m: &mut [f32], v: &mut [f32], grad: &[f32], c: &AdamwStep) {
    let grad: Vec<f32> = grad.iter().map(|g| g * c.grad_scale).collect();
    let (lr, beta1, beta2, eps, weight_decay) = (c.lr, c.beta1, c.beta2, c.eps, c.weight_decay);
    let (bc1, bc2) = (c.bc1, c.bc2);
    for i in 0..p.len() {
        m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
        v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        p[i] -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * p[i]);
    }
}

/// Step `t`'s scalars at the runtime's hyper-parameters, with a weight
/// decay and a gradient scale that are not the identity.
fn adamw_step(t: i32) -> AdamwStep {
    let (beta1, beta2) = (0.9f32, 0.95f32);
    AdamwStep {
        lr: 3e-3,
        beta1,
        beta2,
        eps: 1e-8,
        weight_decay: 0.1,
        bc1: 1.0 - beta1.powi(t),
        bc2: 1.0 - beta2.powi(t),
        grad_scale: 1.0 / 257.0,
    }
}

#[test]
fn adamw_matches_scalar_and_the_loop_it_replaced_bitwise() {
    for len in [0usize, 1, 7, 8, 9, 4095, 4097] {
        let p0: Vec<f32> = randv(len as u64 + 10, len)
            .iter()
            .map(|x| x * 0.02)
            .collect();
        // summed-loss gradients are large; sprinkle exact zeros (unseen
        // embedding rows), denormals and a negative zero among them
        let mut g = randv(len as u64 + 11, len);
        for (i, x) in g.iter_mut().enumerate() {
            *x = match i % 5 {
                0 => 0.0,
                1 => f32::from_bits(1 + i as u32), // denormal
                2 => -0.0,
                _ => *x * 40.0,
            };
        }
        // `None` runs the reference loop
        let run = |be: Option<Backend>| {
            let (mut p, mut m, mut v) = (p0.clone(), vec![0.0f32; len], vec![0.0f32; len]);
            let mut trail = Vec::new();
            for t in 1..=5 {
                let c = adamw_step(t);
                match be {
                    Some(be) => on(be, || mk::adamw(&mut p, &mut m, &mut v, &g, &c)),
                    None => adamw_reference(&mut p, &mut m, &mut v, &g, &c),
                }
                trail.extend([bits(&p), bits(&m), bits(&v)]);
            }
            trail
        };
        let reference = run(None);
        if len > 2 {
            assert_ne!(
                reference[0],
                bits(&p0),
                "a step that moves nothing is vacuous"
            );
        }
        for be in backends() {
            assert_eq!(reference, run(Some(be)), "{be:?} diverged at length {len}");
        }
    }
}

#[test]
fn adamw_is_independent_of_how_the_vector_is_cut() {
    // The runtime steps a flat vector tensor by tensor: an element's bits
    // must not depend on where its slice starts relative to the lanes.
    let n = 100;
    let (p0, g) = (randv(20, n), randv(21, n));
    let c = adamw_step(3);
    for be in backends() {
        let (mut p, mut m, mut v) = (p0.clone(), vec![0.5f32; n], vec![0.25f32; n]);
        on(be, || mk::adamw(&mut p, &mut m, &mut v, &g, &c));
        let (mut pc, mut mc, mut vc) = (p0.clone(), vec![0.5f32; n], vec![0.25f32; n]);
        on(be, || {
            for r in [0..3, 3..20, 20..21, 21..100] {
                mk::adamw(
                    &mut pc[r.clone()],
                    &mut mc[r.clone()],
                    &mut vc[r.clone()],
                    &g[r],
                    &c,
                );
            }
        });
        assert_eq!(
            (bits(&p), bits(&m), bits(&v)),
            (bits(&pc), bits(&mc), bits(&vc))
        );
    }
}

#[test]
fn softmax_fold_keeps_unseen_and_masked_columns_exact() {
    let w = 8;
    // column 0: fresh, fully masked; column 1: has history, fully masked;
    // column 2: fresh, visible; the rest: history and visible.
    let mut s = vec![0.5f32; 3 * w];
    for r in 0..3 {
        s[r * w] = f32::NEG_INFINITY;
        s[r * w + 1] = f32::NEG_INFINITY;
    }
    let mut m = vec![0.25f32; w];
    let mut l = vec![1.5f32; w];
    m[0] = f32::NEG_INFINITY;
    l[0] = 0.0;
    m[2] = f32::NEG_INFINITY;
    l[2] = 0.0;
    for be in backends() {
        let (mut s, mut m, mut l) = (s.clone(), m.clone(), l.clone());
        let mut corr = vec![f32::NAN; w];
        on(be, || {
            mk::softmax_fold(&mut s, w, &mut m, &mut l, &mut corr)
        });
        assert_eq!(
            (m[0], l[0].to_bits(), corr[0].to_bits()),
            (f32::NEG_INFINITY, 0, 0)
        );
        assert_eq!(
            (m[1], l[1], corr[1]),
            (0.25, 1.5, 1.0),
            "{be:?}: masked block is a no-op"
        );
        assert_eq!((m[2], l[2], corr[2].to_bits()), (0.5, 3.0, 0));
        assert_eq!((m[3], corr[3]), (0.5, (-0.25f32).exp()));
        for r in 0..3 {
            assert_eq!(s[r * w].to_bits(), 0, "{be:?}: masked p is +0.0");
            assert_eq!(s[r * w + 1].to_bits(), 0);
            assert_eq!(s[r * w + 2], 1.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `dot`/`axpy`/`dscale` hit the 8-lane body plus a scalar tail;
    /// lengths below 8 are tail-only. All must match bitwise.
    #[test]
    fn vector_primitives_match_scalar_bitwise(len in 0usize..70, seed in 0u64..1_000) {
        let a = randv(seed, len);
        let b = randv(seed.wrapping_add(1), len);
        let s = 0.37f32 + (seed % 7) as f32;
        let run = |be: Backend| {
            let mut ax = a.clone();
            on(be, || mk::axpy(&mut ax, s, &b));
            let mut ds = a.clone();
            on(be, || mk::dscale(&mut ds, s));
            (on(be, || mk::dot(&a, &b)).to_bits(), bits(&ax), bits(&ds))
        };
        let reference = run(Backend::Scalar);
        for be in backends() {
            prop_assert_eq!(&reference, &run(be), "backend {:?} diverged at len {}", be, len);
        }
    }

    /// The accumulator rescale: a strided column window of every row times
    /// that row's factor, untouched outside the window.
    #[test]
    fn scale_rows_matches_scalar_bitwise(
        rows in 0usize..6,
        width in 0usize..20,
        col0 in 0usize..5,
        pad in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let stride = col0 + width + pad;
        let c0 = randv(seed, rows * stride);
        let factors = randv(seed.wrapping_add(1), rows);
        let run = |be: Backend| {
            let mut c = c0.clone();
            on(be, || mk::scale_rows(&mut c, stride, col0, width, &factors));
            c
        };
        let reference = run(Backend::Scalar);
        for (i, (&got, &was)) in reference.iter().zip(&c0).enumerate() {
            let (r, col) = (i / stride.max(1), i % stride.max(1));
            let want = if (col0..col0 + width).contains(&col) { was * factors[r] } else { was };
            prop_assert_eq!(got.to_bits(), want.to_bits(), "element {}", i);
        }
        for be in backends() {
            prop_assert_eq!(bits(&reference), bits(&run(be)), "backend {:?} diverged", be);
        }
    }

    /// `exp` over any length (vector body plus padded tail), arguments
    /// spanning the flush threshold, the working range and the saturation
    /// clamp.
    #[test]
    fn exp_matches_scalar_bitwise(len in 0usize..41, seed in 0u64..1_000, spread in 1.0f32..120.0) {
        let x: Vec<f32> = randv(seed, len).iter().map(|v| v * spread).collect();
        let run = |be: Backend| {
            let mut y = x.clone();
            on(be, || mk::exp(&mut y));
            y
        };
        let reference = run(Backend::Scalar);
        for (&xi, &yi) in x.iter().zip(&reference) {
            prop_assert!(ulp_err(xi, yi) <= 2.0 || !(mk::EXP_LO..=0.0).contains(&xi), "exp({xi}) = {yi}");
            prop_assert!(yi == 0.0 || yi >= f32::MIN_POSITIVE, "exp({xi}) = {yi} is subnormal");
        }
        for be in backends() {
            prop_assert_eq!(bits(&reference), bits(&run(be)), "backend {:?} diverged", be);
        }
    }

    /// The online-softmax block fold: every block height, both strip widths
    /// (32-column and 8-column), masked (`-inf`) scores and columns that
    /// have seen nothing yet.
    #[test]
    fn softmax_fold_matches_scalar_bitwise(
        rows in 1usize..9,
        w8 in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let w = w8 * 8;
        let mut s0 = randv(seed, rows * w);
        // every third score masked; column 1 masked entirely
        for (i, v) in s0.iter_mut().enumerate() {
            if i % 3 == 0 || i % w == 1 {
                *v = f32::NEG_INFINITY;
            }
        }
        let mut m0 = randv(seed.wrapping_add(1), w);
        let l0: Vec<f32> = randv(seed.wrapping_add(2), w).iter().map(|v| v.abs()).collect();
        m0[1] = f32::NEG_INFINITY; // fresh column meeting a fully masked block
        m0[2] = f32::NEG_INFINITY; // fresh column meeting visible scores
        let run = |be: Backend| {
            let (mut s, mut m, mut l) = (s0.clone(), m0.clone(), l0.clone());
            let mut corr = vec![7.0f32; w];
            on(be, || mk::softmax_fold(&mut s, w, &mut m, &mut l, &mut corr));
            [s, m, l, corr].concat()
        };
        let reference = run(Backend::Scalar);
        prop_assert!(reference.iter().all(|v| !v.is_nan()), "NaN out of the fold");
        for be in backends() {
            prop_assert_eq!(bits(&reference), bits(&run(be)), "backend {:?} diverged", be);
        }
    }

    /// The backward block softmax, including a query whose `lse` is
    /// `-inf`.
    #[test]
    fn softmax_bwd_matches_scalar_bitwise(
        rows in 1usize..9,
        w8 in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let w = w8 * 8;
        let mut s0 = randv(seed, rows * w);
        s0[0] = f32::NEG_INFINITY;
        let dp0 = randv(seed.wrapping_add(1), rows * w);
        let mut lse = randv(seed.wrapping_add(2), rows);
        lse[rows - 1] = f32::NEG_INFINITY;
        let dsum = randv(seed.wrapping_add(3), rows);
        let run = |be: Backend| {
            let (mut s, mut dp) = (s0.clone(), dp0.clone());
            on(be, || mk::softmax_bwd(&mut s, &mut dp, w, &lse, &dsum, 0.25));
            [s, dp].concat()
        };
        let reference = run(Backend::Scalar);
        prop_assert!(reference.iter().all(|v| v.is_finite()), "non-finite p/ds");
        for (i, (&p, &ds)) in reference[..rows * w].iter().zip(&reference[rows * w..]).enumerate() {
            let at = i / w;
            let want_p = if lse[at].is_finite() { (s0[i] - lse[at]).exp() } else { 0.0 };
            prop_assert!((p - want_p).abs() <= 1e-6 * want_p.max(1.0), "p[{}] = {} vs {}", i, p, want_p);
            prop_assert_eq!(ds.to_bits(), (p * (dp0[i] - dsum[at]) * 0.25).to_bits(), "ds[{}]", i);
        }
        for be in backends() {
            prop_assert_eq!(bits(&reference), bits(&run(be)), "backend {:?} diverged", be);
        }
    }

    /// A raw panel with irregular geometry: rows spanning 4-row tiles plus
    /// a remainder, columns spanning 16-wide and 8-wide vector tiles plus
    /// a scalar tail, including `kc == 0` (pure C pass-through), with the A
    /// operand row-major or read transposed in place.
    #[test]
    fn gemm_panel_matches_scalar_bitwise(
        rows in 1usize..10,
        kc in 0usize..20,
        nc in 1usize..40,
        a_transposed in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let a = randv(seed, rows * kc.max(1));
        let bp = randv(seed.wrapping_add(1), kc.max(1) * nc);
        let c0 = randv(seed.wrapping_add(2), rows * nc);
        // A stored [rows, kc] or, transposed in place, [kc, rows].
        let (a_stride, a_lstride) = if a_transposed == 1 { (1, rows) } else { (kc, 1) };
        let run = |be: Backend| {
            let mut c = c0.clone();
            let p = Panel {
                a: &a,
                a_off: 0,
                a_stride,
                a_lstride,
                bp: &bp,
                b_stride: nc,
                b_col0: 0,
                kc,
                nc,
                rows,
                c_stride: nc,
                c_col0: 0,
            };
            on(be, || mk::gemm_panel(&p, &mut c));
            bits(&c)
        };
        let reference = run(Backend::Scalar);
        for be in backends() {
            prop_assert_eq!(&reference, &run(be), "backend {:?} diverged", be);
        }
    }

    /// The full gemm family through `ops`, with the backend forced:
    /// blocked panels, transposed blocks, and remainder tiles all
    /// compose to the same bits, at 1, 2, and 8 kernel threads alike.
    #[test]
    fn gemm_family_matches_scalar_bitwise_at_any_thread_count(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..24,
        seed in 0u64..200,
    ) {
        let a = randv(seed, m * k);
        let b = randv(seed.wrapping_add(1), k * n);
        let at: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
        let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
        let run = |be: Backend, threads: usize| forced(be, threads).enter(|| {
            let mut c = vec![0.0f32; m * n];
            ops::gemm(m, k, n, &a, &b, &mut c);
            let mut c_nt = vec![0.0f32; m * n];
            ops::gemm_nt(m, k, n, &a, &bt, &mut c_nt);
            let mut c_tn = vec![0.0f32; m * n];
            ops::gemm_tn(m, k, n, &at, &b, &mut c_tn);
            (bits(&c), bits(&c_nt), bits(&c_tn))
        });
        let reference = run(Backend::Scalar, 1);
        for be in backends() {
            for threads in [1usize, 2, 8] {
                prop_assert_eq!(
                    &reference,
                    &run(be, threads),
                    "backend {:?} at {} threads diverged",
                    be,
                    threads
                );
            }
        }
    }
}

/// `gemm_nt` computes `Cᵀ = B · Aᵀ` through transposed scratch: over row
/// blocks of 1..65 rows (ragged against `MC = 32` and the 8-lane padding),
/// depths straddling the `KC = 256` panel and widths around the vector
/// tiles, it must *add* the product into a non-zero `c`, agree with an f64
/// naive product, and give the same bits on both backends at 1, 2 and 8
/// threads.
#[test]
fn gemm_nt_accumulates_and_matches_scalar_bitwise_over_awkward_extents() {
    for m in [1usize, 3, 31, 32, 33, 65] {
        for k in [1usize, 255, 256, 257, 513] {
            for n in [1usize, 7, 8, 9, 17, 40] {
                let seed = (m * 1_000_000 + k * 1_000 + n) as u64;
                let a = randv(seed, m * k);
                let b = randv(seed + 1, n * k);
                let c0 = randv(seed + 2, m * n);
                let run = |be: Backend, threads: usize| {
                    forced(be, threads).enter(|| {
                        let mut c = c0.clone();
                        ops::gemm_nt(m, k, n, &a, &b, &mut c);
                        c
                    })
                };
                let reference = run(Backend::Scalar, 1);
                for (idx, &got) in reference.iter().enumerate() {
                    let (i, j) = (idx / n, idx % n);
                    let dot: f64 = (0..k)
                        .map(|l| f64::from(a[i * k + l]) * f64::from(b[j * k + l]))
                        .sum();
                    let want = f64::from(c0[idx]) + dot;
                    let mag: f64 = (0..k)
                        .map(|l| f64::from(a[i * k + l] * b[j * k + l]).abs())
                        .sum();
                    assert!(
                        (f64::from(got) - want).abs() <= 1e-5 * (1.0 + mag),
                        "{m}x{k}x{n} c[{i},{j}] = {got} vs {want}"
                    );
                }
                for be in backends() {
                    for threads in [1usize, 2, 8] {
                        assert_eq!(
                            bits(&reference),
                            bits(&run(be, threads)),
                            "{m}x{k}x{n}: backend {be:?} at {threads} threads diverged"
                        );
                    }
                }
            }
        }
    }
}

/// GQA-shaped matmuls (odd head counts, head dims straddling the 8-lane
/// width) plus the backward pass, forced through both backends at every
/// thread budget.
#[test]
fn matmul_and_backward_match_scalar_bitwise() {
    // (m, k, n) covering 4-row tile remainders, sub-8 and 8+tail columns.
    let shapes = [(67usize, 43usize, 35usize), (5, 7, 3), (33, 96, 17)];
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let mut rng = init::seeded_rng(90 + si as u64);
        let a = init::randn(&mut rng, &[m, k], 1.0);
        let b = init::randn(&mut rng, &[k, n], 1.0);
        let dc = init::randn(&mut rng, &[m, n], 1.0);
        let run = |be: Backend, threads: usize| {
            forced(be, threads).enter(|| {
                let c = ops::matmul(&a, &b).unwrap();
                let (da, db) = ops::matmul_bwd(&a, &b, &dc).unwrap();
                let mut flat = c.data().to_vec();
                flat.extend_from_slice(da.data());
                flat.extend_from_slice(db.data());
                bits(&flat)
            })
        };
        let reference = run(Backend::Scalar, 1);
        assert!(
            reference.iter().any(|&v| v != 0),
            "all-zero output would make the comparison vacuous"
        );
        for be in backends() {
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    reference,
                    run(be, threads),
                    "shape {m}x{k}x{n}: backend {be:?} at {threads} threads diverged"
                );
            }
        }
    }
}

/// A forced backend reaches dispatch, and a thread's default context
/// reports availability consistently with what dispatch actually uses.
#[test]
fn backend_override_round_trips() {
    let with = |backend| KernelCtx {
        backend,
        ..KernelCtx::current()
    };
    with(Backend::Scalar).enter(|| assert_eq!(mk::backend(), Backend::Scalar));
    if mk::avx2_available() {
        with(Backend::Avx2).enter(|| assert_eq!(mk::backend(), Backend::Avx2));
    }
    // The process default is AVX2 exactly when the CPU supports it.
    assert_eq!(mk::backend() == Backend::Avx2, mk::avx2_available());
}
