//! Runtime-dispatched SIMD microkernels (AVX2/FMA and AVX-512 with a
//! portable scalar fallback) shared by the gemm panels in [`crate::ops`]
//! and the online-softmax kernels in `fpdt-attention`.
//!
//! Every kernel is written **once**, generically over the lane-wise vector
//! trait `Lanes`, and instantiated per backend: for [`Backend::Scalar`]
//! the lanes are a plain `[f32; 8]` whose fused multiply-adds go through
//! [`f32::mul_add`], and for [`Backend::Avx2`] they are a `__m256` inside
//! a `#[target_feature(enable = "avx2,fma")]` wrapper. Both instantiations
//! therefore execute the *identical* blocking, remainder handling, and
//! reduction tree, and `f32::mul_add` is IEEE-754 fusedMultiplyAdd exactly
//! like `vfmadd`, so the two backends are **bitwise identical** by
//! construction — the property the kernel-equivalence suite locks down.
//!
//! **The width rule:** a kernel may run at another lane count only if no
//! lane ever combines with another. [`Backend::Avx512`] runs five kernels
//! on 16-lane `__m512` vectors, because in each a lane only ever meets
//! itself: [`gemm_panel`] (`8 x 32` and `8 x 16` tiles, then `4`-row and
//! single-row strips, before the 8-wide tile and the scalar column tail;
//! every element of C is one `mul_add` chain in ascending depth), and the
//! attention tile's block softmax, [`softmax_fold`] (one query per lane, its
//! max and sum running down the rows inside the lane), [`softmax_bwd`],
//! [`scale_rows`] and [`dscale`] (lane-wise maps). Each takes a wide and an
//! 8-lane type: wide strips first, then an 8-lane strip for a remainder of
//! 8, then the scalar tail where the kernel has one. The activation maps,
//! [`exp`], [`axpy`] and [`adamw`] are lane-wise too and would give the
//! same bits wide; they stay 8 lanes because widening them measured no
//! gain. [`dot`] cannot be widened: it sums its lanes with the 8-lane
//! `V8::reduce` tree, so its result depends on the width. Every other
//! kernel runs the AVX2 instantiation under [`Backend::Avx512`].
//!
//! Each kernel has one public entry, which dispatches on the calling
//! thread's [`KernelCtx`](crate::KernelCtx) backend ([`backend`]); tests
//! and benches force one path by entering a context. The process default
//! is the last of [`backends`]: AVX-512 where CPU detection finds
//! `avx512f` as well as `avx2` + `fma` (cached after the first query),
//! else AVX2 where it finds those two, scalar elsewhere. A forced backend
//! the CPU lacks runs the next narrower one it has.
//!
//! Compiling with the `scalar-only` cargo feature removes both vector
//! paths entirely (fallback-parity builds); [`avx2_available`] and
//! [`avx512_available`] then report `false` and every dispatch lands on
//! the scalar kernels.
//!
//! Because the backends are bitwise identical, the choice is a pure
//! performance knob: it can never change a loss, a gradient, or a golden
//! digest.

/// Which microkernel instantiation executes the vectorizable inner loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable `[f32; 8]` lanes using `f32::mul_add` (always available).
    Scalar,
    /// AVX2 + FMA `__m256` lanes (x86-64 with runtime CPU support).
    Avx2,
    /// AVX-512F `__m512` lanes for [`gemm_panel`] and the attention tile's
    /// block softmax ([`softmax_fold`], [`softmax_bwd`], [`scale_rows`],
    /// [`dscale`]), [`Backend::Avx2`] for every other kernel (x86-64 with
    /// runtime CPU support).
    Avx512,
}

/// Whether the AVX2/FMA instantiation can run on this build and CPU.
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
    {
        static AVAIL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-only"))))]
    {
        false
    }
}

/// Whether the AVX-512 instantiation can run on this build and CPU: AVX2
/// and FMA (its other kernels) and `avx512f`.
pub fn avx512_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
    {
        static AVAIL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAIL.get_or_init(|| avx2_available() && std::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-only"))))]
    {
        false
    }
}

/// Every backend this build and CPU can run, scalar first; the last is
/// the process default.
pub fn backends() -> Vec<Backend> {
    let mut out = vec![Backend::Scalar];
    if avx2_available() {
        out.push(Backend::Avx2);
    }
    if avx512_available() {
        out.push(Backend::Avx512);
    }
    out
}

/// The backend the dispatched kernels use on this thread: the calling
/// thread's [`KernelCtx`](crate::KernelCtx) backend, where the CPU lacks
/// it the next narrower one it has.
pub fn backend() -> Backend {
    match crate::ctx::local().1 {
        Backend::Avx512 if avx512_available() => Backend::Avx512,
        Backend::Avx512 | Backend::Avx2 if avx2_available() => Backend::Avx2,
        _ => Backend::Scalar,
    }
}

/// The lane operations the kernels need, at any lane count: what every
/// kernel body but [`dot_g`] is written against, so one body serves the
/// 8-lane `Sc` and `Vx` and the 16-lane `Vz`. Methods are `unsafe` because
/// `loadu`/`storeu` take raw pointers; every implementation must be a pure
/// lane-wise IEEE-754 operation, so that a lane's bits depend neither on
/// the backend nor on how many lanes sit beside it.
trait Lanes: Copy {
    /// f32 lanes per vector.
    const LANES: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn loadu(p: *const f32) -> Self;
    unsafe fn storeu(self, p: *mut f32);
    /// `self + a * b`, fused (single rounding) per lane.
    unsafe fn fma(self, a: Self, b: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn div(self, o: Self) -> Self;
    /// Correctly rounded square root per lane.
    unsafe fn sqrt(self) -> Self;
    /// `MAXPS` semantics, not `f32::max`: `self` where `self > o`, else
    /// `o` (so a NaN in either operand yields `o`).
    unsafe fn max(self, o: Self) -> Self;
    /// `MINPS` semantics: `self` where `self < o`, else `o`.
    unsafe fn min(self, o: Self) -> Self;
    /// Round to the nearest integer, ties to even.
    unsafe fn round(self) -> Self;
    /// `2^n` for lanes holding an integer `n` in `[-126, 127]`, built from
    /// the exponent bits `(n + 127) << 23`.
    unsafe fn exp2i(self) -> Self;
    /// `self` where `x >= t` (ordered: false on NaN), `+0.0` elsewhere.
    unsafe fn and_ge(self, x: Self, t: Self) -> Self;
}

/// The widest [`Lanes::LANES`]: room for one vector of any backend.
const MAX_LANES: usize = 16;

/// 8-lane vectors that can also sum their lanes: the one operation whose
/// result depends on the width, so only [`dot_g`], which combines lanes,
/// is written against it.
trait V8: Lanes {
    /// Horizontal sum with the fixed tree
    /// `((x0+x4)+(x2+x6)) + ((x1+x5)+(x3+x7))` — the lane pairing the
    /// AVX2 `extractf128`/`movehl`/`shuffle` sequence produces.
    unsafe fn reduce(self) -> f32;
}

#[derive(Clone, Copy)]
struct Sc([f32; 8]);

impl Sc {
    /// `f` of each lane.
    #[inline(always)]
    fn map(self, f: impl Fn(f32) -> f32) -> Self {
        Sc(self.0.map(f))
    }

    /// `f` of each pair of lanes.
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut v = [0.0f32; 8];
        for (i, lane) in v.iter_mut().enumerate() {
            *lane = f(self.0[i], o.0[i]);
        }
        Sc(v)
    }
}

impl Lanes for Sc {
    const LANES: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> Self {
        Sc([0.0; 8])
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Sc([x; 8])
    }
    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> Self {
        let mut v = [0.0f32; 8];
        for (i, lane) in v.iter_mut().enumerate() {
            *lane = *p.add(i);
        }
        Sc(v)
    }
    #[inline(always)]
    unsafe fn storeu(self, p: *mut f32) {
        for (i, lane) in self.0.iter().enumerate() {
            *p.add(i) = *lane;
        }
    }
    #[inline(always)]
    unsafe fn fma(self, a: Self, b: Self) -> Self {
        let mut v = [0.0f32; 8];
        for (i, lane) in v.iter_mut().enumerate() {
            *lane = a.0[i].mul_add(b.0[i], self.0[i]);
        }
        Sc(v)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        self.map(f32::sqrt)
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        self.zip(o, |a, b| if a > b { a } else { b })
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        self.zip(o, |a, b| if a < b { a } else { b })
    }
    #[inline(always)]
    unsafe fn round(self) -> Self {
        self.map(f32::round_ties_even)
    }
    #[inline(always)]
    unsafe fn exp2i(self) -> Self {
        self.map(|n| f32::from_bits(((n as i32 + 127) as u32) << 23))
    }
    #[inline(always)]
    unsafe fn and_ge(self, x: Self, t: Self) -> Self {
        let mut v = [0.0f32; 8];
        for (i, lane) in v.iter_mut().enumerate() {
            *lane = if x.0[i] >= t.0[i] { self.0[i] } else { 0.0 };
        }
        Sc(v)
    }
}

impl V8 for Sc {
    #[inline(always)]
    unsafe fn reduce(self) -> f32 {
        let x = self.0;
        // lo + hi halves, then the movehl pairing, then the final shuffle.
        let w = [x[0] + x[4], x[1] + x[5], x[2] + x[6], x[3] + x[7]];
        let u = [w[0] + w[2], w[1] + w[3]];
        u[0] + u[1]
    }
}

#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
mod avx {
    use super::{Lanes, V8};
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(super) struct Vx(__m256);

    impl Lanes for Vx {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Vx(_mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Vx(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn loadu(p: *const f32) -> Self {
            Vx(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn storeu(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn fma(self, a: Self, b: Self) -> Self {
            Vx(_mm256_fmadd_ps(a.0, b.0, self.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Vx(_mm256_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Vx(_mm256_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Vx(_mm256_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn div(self, o: Self) -> Self {
            Vx(_mm256_div_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sqrt(self) -> Self {
            Vx(_mm256_sqrt_ps(self.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            Vx(_mm256_max_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn min(self, o: Self) -> Self {
            Vx(_mm256_min_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn round(self) -> Self {
            Vx(_mm256_round_ps::<
                { _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC },
            >(self.0))
        }
        #[inline(always)]
        unsafe fn exp2i(self) -> Self {
            let n = _mm256_cvtps_epi32(self.0);
            let bits = _mm256_slli_epi32::<23>(_mm256_add_epi32(n, _mm256_set1_epi32(127)));
            Vx(_mm256_castsi256_ps(bits))
        }
        #[inline(always)]
        unsafe fn and_ge(self, x: Self, t: Self) -> Self {
            Vx(_mm256_and_ps(self.0, _mm256_cmp_ps::<_CMP_GE_OQ>(x.0, t.0)))
        }
    }

    impl V8 for Vx {
        #[inline(always)]
        unsafe fn reduce(self) -> f32 {
            let lo = _mm256_castps256_ps128(self.0);
            let hi = _mm256_extractf128_ps(self.0, 1);
            let w = _mm_add_ps(lo, hi);
            let u = _mm_add_ps(w, _mm_movehl_ps(w, w));
            let s = _mm_add_ss(u, _mm_shuffle_ps(u, u, 0b01));
            _mm_cvtss_f32(s)
        }
    }

    /// 16 lanes: the kernels in which no lane meets another run at this
    /// width (see the module doc). It has no [`V8::reduce`], so nothing
    /// that sums across lanes can be instantiated on it.
    #[derive(Clone, Copy)]
    pub(super) struct Vz(__m512);

    impl Lanes for Vz {
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Vz(_mm512_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Vz(_mm512_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn loadu(p: *const f32) -> Self {
            Vz(_mm512_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn storeu(self, p: *mut f32) {
            _mm512_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn fma(self, a: Self, b: Self) -> Self {
            Vz(_mm512_fmadd_ps(a.0, b.0, self.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Vz(_mm512_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Vz(_mm512_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Vz(_mm512_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn div(self, o: Self) -> Self {
            Vz(_mm512_div_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sqrt(self) -> Self {
            Vz(_mm512_sqrt_ps(self.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            Vz(_mm512_max_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn min(self, o: Self) -> Self {
            Vz(_mm512_min_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn round(self) -> Self {
            // scale 0 (whole numbers), nearest-even, no exceptions
            Vz(_mm512_roundscale_ps::<
                { _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC },
            >(self.0))
        }
        #[inline(always)]
        unsafe fn exp2i(self) -> Self {
            let n = _mm512_cvtps_epi32(self.0);
            let bits = _mm512_slli_epi32::<23>(_mm512_add_epi32(n, _mm512_set1_epi32(127)));
            Vz(_mm512_castsi512_ps(bits))
        }
        #[inline(always)]
        unsafe fn and_ge(self, x: Self, t: Self) -> Self {
            // zeroed lanes are +0.0, what the AVX2 AND with a false mask gives
            let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x.0, t.0);
            Vz(_mm512_maskz_mov_ps(ge, self.0))
        }
    }
}

// ---------------------------------------------------------------------------
// Generic kernel bodies (written once, instantiated per backend).
// ---------------------------------------------------------------------------

#[inline(always)]
unsafe fn dot_g<V: V8>(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let k = V::LANES;
    let mut acc0 = V::zero();
    let mut acc1 = V::zero();
    let mut acc2 = V::zero();
    let mut acc3 = V::zero();
    let mut i = 0;
    while i + 4 * k <= n {
        acc0 = acc0.fma(V::loadu(pa.add(i)), V::loadu(pb.add(i)));
        acc1 = acc1.fma(V::loadu(pa.add(i + k)), V::loadu(pb.add(i + k)));
        acc2 = acc2.fma(V::loadu(pa.add(i + 2 * k)), V::loadu(pb.add(i + 2 * k)));
        acc3 = acc3.fma(V::loadu(pa.add(i + 3 * k)), V::loadu(pb.add(i + 3 * k)));
        i += 4 * k;
    }
    while i + k <= n {
        acc0 = acc0.fma(V::loadu(pa.add(i)), V::loadu(pb.add(i)));
        i += k;
    }
    let mut s = acc0.add(acc1).add(acc2.add(acc3)).reduce();
    while i < n {
        s = (*pa.add(i)).mul_add(*pb.add(i), s);
        i += 1;
    }
    s
}

#[inline(always)]
unsafe fn axpy_g<V: Lanes>(dst: &mut [f32], s: f32, src: &[f32]) {
    let n = dst.len().min(src.len());
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let sv = V::splat(s);
    let mut i = 0;
    while i + V::LANES <= n {
        V::loadu(dp.add(i) as *const f32)
            .fma(sv, V::loadu(sp.add(i)))
            .storeu(dp.add(i));
        i += V::LANES;
    }
    while i < n {
        *dp.add(i) = s.mul_add(*sp.add(i), *dp.add(i));
        i += 1;
    }
}

/// `x[i..][..V::LANES * k] *= f` for the most whole vectors `k` that fit
/// in `n`; returns the index past them.
#[inline(always)]
unsafe fn mul_lanes<V: Lanes>(x: *mut f32, n: usize, mut i: usize, f: f32) -> usize {
    let fv = V::splat(f);
    while i + V::LANES <= n {
        V::loadu(x.add(i) as *const f32).mul(fv).storeu(x.add(i));
        i += V::LANES;
    }
    i
}

/// `c[r * stride + col0 ..][..width] *= factors[r]` for every row `r` of
/// `factors` — the online-softmax rescale of a row-block's accumulator:
/// `W`-wide vectors, then `V`-wide ones, then single elements.
#[inline(always)]
unsafe fn scale_rows_g<W: Lanes, V: Lanes>(
    c: &mut [f32],
    stride: usize,
    col0: usize,
    width: usize,
    factors: &[f32],
) {
    let cp = c.as_mut_ptr();
    for (r, &f) in factors.iter().enumerate() {
        let row = cp.add(r * stride + col0);
        let i = mul_lanes::<W>(row, width, 0, f);
        let mut i = mul_lanes::<V>(row, width, i, f);
        while i < width {
            *row.add(i) *= f;
            i += 1;
        }
    }
}

/// Arguments below this flush to exactly `0.0`: at `-87.3` the result is
/// still a normal f32 (`n = -126`, reduced argument positive), so no lane
/// ever carries a denormal.
pub const EXP_LO: f32 = -87.3;
/// Arguments above this saturate at `exp(88.0)` (finite; `n = 127`).
pub const EXP_HI: f32 = 88.0;

/// Lane-wise `exp`: Cody–Waite range reduction `x = n·ln2 + r` with a
/// two-term `ln2`, the degree-6 Cephes `expf` polynomial on
/// `r ∈ [-ln2/2, ln2/2]` in Horner/FMA form, and an exponent-bit scale by
/// `2^n`. Only [`Lanes`] operations, so every backend and width agrees
/// bitwise.
#[inline(always)]
unsafe fn exp_v<V: Lanes>(x: V) -> V {
    let xc = x.max(V::splat(EXP_LO)).min(V::splat(EXP_HI));
    let n = xc.mul(V::splat(std::f32::consts::LOG2_E)).round();
    // ln2 = 355/512 - 2.1219444e-4: the high part has 9 significant bits,
    // so n * hi is exact for |n| <= 127.
    let r = xc
        .fma(n, V::splat(-355.0 / 512.0))
        .fma(n, V::splat(2.121_944_4e-4));
    let mut p = V::splat(1.987_569_1e-4);
    p = V::splat(1.398_199_9e-3).fma(p, r);
    p = V::splat(8.333_452e-3).fma(p, r);
    p = V::splat(4.166_579_6e-2).fma(p, r);
    p = V::splat(1.666_666_5e-1).fma(p, r);
    p = V::splat(0.5).fma(p, r);
    let y = r.fma(p, r.mul(r)).add(V::splat(1.0));
    y.mul(n.exp2i()).and_ge(x, V::splat(EXP_LO))
}

/// A lane-wise function of one vector (`F1`) or two (`F2`), named by a
/// type so the `map` loops below monomorphize per function *and* per
/// backend with everything inlined into the `target_feature` wrapper (a
/// closure would compile as a function of its own, without the feature).
trait F1 {
    unsafe fn f<V: Lanes>(x: V) -> V;
}
trait F2 {
    unsafe fn f<V: Lanes>(a: V, b: V) -> V;
}
/// A lane-wise function of two vectors with two results, written back over
/// its arguments.
trait F2x2 {
    unsafe fn f<V: Lanes>(a: V, b: V) -> (V, V);
}

/// `x[i] = F(x[i])` through the lanes. The tail runs through the same
/// lanes on a padded copy, so an element's bits never depend on where in
/// the slice it sits — any partition of a buffer gives the same result.
#[inline(always)]
unsafe fn map_g<V: Lanes, F: F1>(x: &mut [f32]) {
    let n = x.len();
    let xp = x.as_mut_ptr();
    let mut i = 0;
    while i + V::LANES <= n {
        F::f(V::loadu(xp.add(i) as *const f32)).storeu(xp.add(i));
        i += V::LANES;
    }
    if i < n {
        let mut tail = [0.0f32; MAX_LANES];
        tail[..n - i].copy_from_slice(&x[i..]);
        F::f(V::loadu(tail.as_ptr())).storeu(tail.as_mut_ptr());
        x[i..].copy_from_slice(&tail[..n - i]);
    }
}

/// `out[i] = F(a[i], b[i])` through the lanes, tail padded as in
/// [`map_g`]. The slices have equal length (checked by the public
/// entry points).
#[inline(always)]
unsafe fn map2_g<V: Lanes, F: F2>(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + V::LANES <= n {
        F::f(V::loadu(ap.add(i)), V::loadu(bp.add(i))).storeu(op.add(i));
        i += V::LANES;
    }
    if i < n {
        let (mut ta, mut tb) = ([0.0f32; MAX_LANES], [0.0f32; MAX_LANES]);
        ta[..n - i].copy_from_slice(&a[i..]);
        tb[..n - i].copy_from_slice(&b[i..]);
        F::f(V::loadu(ta.as_ptr()), V::loadu(tb.as_ptr())).storeu(ta.as_mut_ptr());
        out[i..].copy_from_slice(&ta[..n - i]);
    }
}

/// `(a[i], b[i]) = F(a[i], b[i])` through the lanes, tail padded as in
/// [`map_g`]. The slices have equal length (checked by the public entry
/// points).
#[inline(always)]
unsafe fn map2x2_g<V: Lanes, F: F2x2>(a: &mut [f32], b: &mut [f32]) {
    let n = a.len();
    let (ap, bp) = (a.as_mut_ptr(), b.as_mut_ptr());
    let mut i = 0;
    while i + V::LANES <= n {
        let (x, y) = F::f(
            V::loadu(ap.add(i) as *const f32),
            V::loadu(bp.add(i) as *const f32),
        );
        x.storeu(ap.add(i));
        y.storeu(bp.add(i));
        i += V::LANES;
    }
    if i < n {
        let (mut ta, mut tb) = ([0.0f32; MAX_LANES], [0.0f32; MAX_LANES]);
        ta[..n - i].copy_from_slice(&a[i..]);
        tb[..n - i].copy_from_slice(&b[i..]);
        let (x, y) = F::f(V::loadu(ta.as_ptr()), V::loadu(tb.as_ptr()));
        x.storeu(ta.as_mut_ptr());
        y.storeu(tb.as_mut_ptr());
        a[i..].copy_from_slice(&ta[..n - i]);
        b[i..].copy_from_slice(&tb[..n - i]);
    }
}

struct Exp;
impl F1 for Exp {
    #[inline(always)]
    unsafe fn f<V: Lanes>(x: V) -> V {
        exp_v(x)
    }
}

/// `2·sqrt(2/π)`: with `0.5·(1 + tanh u) = σ(2u)` the tanh-form GELU is
/// `x·σ(z)`, `z = GELU_K·(x + GELU_C·x³)`.
const GELU_K: f32 = 2.0 * 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// `exp(-z)` and `1 + exp(-z)`, the denominator of the logistic `σ(z)`:
/// exactly `1.0` once `z > -EXP_LO` (σ saturates at 1) and at most
/// `1 + exp(EXP_HI)`, finite, however negative `z` is (σ bottoms out near
/// `6e-39`, never 0/0). A NaN `z` gives `1.0`; the caller's own `x` factor
/// carries the NaN.
#[inline(always)]
unsafe fn logistic_den_v<V: Lanes>(z: V) -> (V, V) {
    let e = exp_v(V::zero().sub(z));
    (e, V::splat(1.0).add(e))
}

/// `x·σ(z)` as one divide: the forward of both activations.
#[inline(always)]
unsafe fn x_sigmoid_v<V: Lanes>(x: V, z: V) -> V {
    x.div(logistic_den_v(z).1)
}

/// `σ + x_dz·σ(1−σ)`, the derivative of `x·σ(z(x))` given `x_dz = x·z'`.
/// `1−σ = e·σ` comes from the exponential already in hand rather than
/// from a subtraction, which cancels where σ is within an ulp of 1.
#[inline(always)]
unsafe fn x_sigmoid_grad_v<V: Lanes>(x_dz: V, z: V) -> V {
    let (e, den) = logistic_den_v(z);
    x_sigmoid_grad_of(x_dz, e, den)
}

/// [`x_sigmoid_grad_v`] from `(e, den)` already in hand.
#[inline(always)]
unsafe fn x_sigmoid_grad_of<V: Lanes>(x_dz: V, e: V, den: V) -> V {
    let s = V::splat(1.0).div(den);
    s.fma(x_dz, e.mul(s).mul(s))
}

/// The GELU argument `z = K·x·(1 + C·x²)` and `x²`.
#[inline(always)]
unsafe fn gelu_arg_v<V: Lanes>(x: V) -> (V, V) {
    let t = x.mul(x);
    let z = V::splat(GELU_K)
        .mul(x)
        .mul(V::splat(1.0).fma(V::splat(GELU_C), t));
    (z, t)
}

struct Gelu;
impl F1 for Gelu {
    #[inline(always)]
    unsafe fn f<V: Lanes>(x: V) -> V {
        x_sigmoid_v(x, gelu_arg_v(x).0)
    }
}

/// `(gelu(x), gelu'(x)·dy)` from one exponential. The forward half is
/// [`Gelu`]'s `x / (1 + e)` on the same `e`, so it has [`Gelu`]'s bits.
struct GeluFwdBwd;
impl F2x2 for GeluFwdBwd {
    #[inline(always)]
    unsafe fn f<V: Lanes>(x: V, dy: V) -> (V, V) {
        let (z, t) = gelu_arg_v(x);
        let (e, den) = logistic_den_v(z);
        // z' = K·(1 + 3C·x²)
        let dz = V::splat(GELU_K).fma(V::splat(3.0 * GELU_C * GELU_K), t);
        let grad = x_sigmoid_grad_of(x.mul(dz), e, den);
        (x.div(den), grad.mul(dy))
    }
}

struct Silu;
impl F1 for Silu {
    #[inline(always)]
    unsafe fn f<V: Lanes>(x: V) -> V {
        x_sigmoid_v(x, x)
    }
}

struct SiluBwd;
impl F2 for SiluBwd {
    #[inline(always)]
    unsafe fn f<V: Lanes>(x: V, dy: V) -> V {
        x_sigmoid_grad_v(x, x).mul(dy)
    }
}

/// One `NV * V::LANES`-column strip of [`softmax_fold_g`]. Each lane is
/// one query column from the first load to the last store: the column max
/// and sum run down the rows inside a lane, so no lane meets another.
#[inline(always)]
unsafe fn fold_strip<V: Lanes, const NV: usize>(
    sp: *mut f32,
    w: usize,
    rows: usize,
    c0: usize,
    m: *mut f32,
    l: *mut f32,
    corr: *mut f32,
) {
    let mut mb = [V::splat(f32::NEG_INFINITY); NV];
    for r in 0..rows {
        for (vi, v) in mb.iter_mut().enumerate() {
            *v = v.max(V::loadu(sp.add(r * w + c0 + vi * V::LANES) as *const f32));
        }
    }
    let mut m_safe = [V::zero(); NV];
    for vi in 0..NV {
        let at = c0 + vi * V::LANES;
        let m_old = V::loadu(m.add(at) as *const f32);
        let m_new = m_old.max(mb[vi]);
        // A column that has seen no key yet keeps m = -inf; subtracting 0
        // instead keeps every exponent argument well-defined (-inf, not
        // -inf - -inf).
        m_safe[vi] = m_new.and_ge(m_new, V::splat(f32::MIN));
        exp_v(m_old.sub(m_safe[vi])).storeu(corr.add(at));
        m_new.storeu(m.add(at));
    }
    let mut lb = [V::zero(); NV];
    for r in 0..rows {
        for (vi, v) in lb.iter_mut().enumerate() {
            let at = sp.add(r * w + c0 + vi * V::LANES);
            let p = exp_v(V::loadu(at as *const f32).sub(m_safe[vi]));
            p.storeu(at);
            *v = v.add(p);
        }
    }
    for (vi, v) in lb.iter().enumerate() {
        let at = c0 + vi * V::LANES;
        let cv = V::loadu(corr.add(at) as *const f32);
        v.fma(V::loadu(l.add(at) as *const f32), cv)
            .storeu(l.add(at));
    }
}

/// Online-softmax fold of one score block `s: [rows, w]` (row-major, one
/// *column* per query) into the running per-column `(m, l)`: on return
/// `s` holds `exp(s - m_new)`, `corr` the factor `exp(m_old - m_new)` the
/// caller rescales its accumulator by, `l = l * corr + colsum(s)` (rows
/// summed ascending) and `m = m_new`. Masked scores are `-inf` on entry
/// and exactly `0.0` on exit. Strips of the wide vector `W` first, then of
/// the 8-lane `V` (only these where `W` is `V`), so any multiple of 8 is a
/// valid `w`.
#[inline(always)]
unsafe fn softmax_fold_g<W: Lanes, V: Lanes>(
    s: &mut [f32],
    w: usize,
    m: &mut [f32],
    l: &mut [f32],
    corr: &mut [f32],
) {
    let rows = s.len() / w;
    let (sp, mp, lp, cp) = (
        s.as_mut_ptr(),
        m.as_mut_ptr(),
        l.as_mut_ptr(),
        corr.as_mut_ptr(),
    );
    let mut c = 0;
    if W::LANES > V::LANES {
        while c + 2 * W::LANES <= w {
            fold_strip::<W, 2>(sp, w, rows, c, mp, lp, cp);
            c += 2 * W::LANES;
        }
        while c + W::LANES <= w {
            fold_strip::<W, 1>(sp, w, rows, c, mp, lp, cp);
            c += W::LANES;
        }
    }
    while c + 4 * V::LANES <= w {
        fold_strip::<V, 4>(sp, w, rows, c, mp, lp, cp);
        c += 4 * V::LANES;
    }
    while c + V::LANES <= w {
        fold_strip::<V, 1>(sp, w, rows, c, mp, lp, cp);
        c += V::LANES;
    }
}

/// Backward softmax of one block: with `s` the raw scores and `dp` the
/// `dO·Vᵀ` products (both `[rows, w]`), overwrites `s` with
/// `p = exp(s - lse)` and `dp` with `ds = p * (dp - dsum) * scale`, with
/// one `lse`/`dsum` entry per row (query). Queries with `lse = -inf`
/// (attended to nothing) get `p = 0`. Each row runs `W`-wide vectors, then
/// 8-lane `V` ones (none where `W` is `V`).
#[inline(always)]
unsafe fn softmax_bwd_g<W: Lanes, V: Lanes>(
    s: &mut [f32],
    dp: &mut [f32],
    w: usize,
    lse: &[f32],
    dsum: &[f32],
    scale: f32,
) {
    let rows = s.len() / w;
    let (sp, dpp) = (s.as_mut_ptr(), dp.as_mut_ptr());
    for r in 0..rows {
        let row = (sp.add(r * w), dpp.add(r * w));
        let c = bwd_lanes::<W>(row, w, 0, lse[r], dsum[r], scale);
        bwd_lanes::<V>(row, w, c, lse[r], dsum[r], scale);
    }
}

/// [`softmax_bwd_g`] over whole `V` vectors of one row `(s, dp)` of `w`
/// columns, from column `c`; returns the column past them.
#[inline(always)]
unsafe fn bwd_lanes<V: Lanes>(
    (sp, dpp): (*mut f32, *mut f32),
    w: usize,
    mut c: usize,
    lse: f32,
    dsum: f32,
    scale: f32,
) -> usize {
    let (lv, dv, sv) = (V::splat(lse), V::splat(dsum), V::splat(scale));
    while c + V::LANES <= w {
        let p = exp_v(V::loadu(sp.add(c) as *const f32).sub(lv)).and_ge(lv, V::splat(f32::MIN));
        let ds = p.mul(V::loadu(dpp.add(c) as *const f32).sub(dv)).mul(sv);
        p.storeu(sp.add(c));
        ds.storeu(dpp.add(c));
        c += V::LANES;
    }
    c
}

/// `x[i..][..V::LANES * k] /= d` for the most whole vectors `k` that fit
/// in `n`; returns the index past them.
#[inline(always)]
unsafe fn div_lanes<V: Lanes>(x: *mut f32, n: usize, mut i: usize, d: f32) -> usize {
    let dv = V::splat(d);
    while i + V::LANES <= n {
        V::loadu(x.add(i) as *const f32).div(dv).storeu(x.add(i));
        i += V::LANES;
    }
    i
}

/// `dst[i] /= d`: `W`-wide vectors, then `V`-wide ones, then single
/// elements.
#[inline(always)]
unsafe fn dscale_g<W: Lanes, V: Lanes>(dst: &mut [f32], d: f32) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let i = div_lanes::<W>(dp, n, 0, d);
    let mut i = div_lanes::<V>(dp, n, i, d);
    while i < n {
        *dp.add(i) /= d;
        i += 1;
    }
}

/// The scalars of one AdamW step, shared by every element it updates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdamwStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// First-moment bias correction `1 - beta1^t`.
    pub bc1: f32,
    /// Second-moment bias correction `1 - beta2^t`.
    pub bc2: f32,
    /// The kernel reads each gradient as `g * grad_scale` (the `1/tokens`
    /// normalization, applied in register).
    pub grad_scale: f32,
}

/// One AdamW step over four equal-length slices. Multiplies, adds, true
/// divisions and a true square root only — no `fma`, no reciprocal — in
/// the order the scalar tail spells out, so an element's bits depend
/// neither on the backend nor on where in the slice it sits.
#[inline(always)]
unsafe fn adamw_g<V: Lanes>(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamwStep) {
    let n = p.len();
    let (pp, mp, vp, gp) = (p.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
    let (omb1, omb2) = (1.0 - c.beta1, 1.0 - c.beta2);
    let mut i = 0;
    while i + V::LANES <= n {
        let gi = V::loadu(gp.add(i)).mul(V::splat(c.grad_scale));
        let mi = V::splat(c.beta1)
            .mul(V::loadu(mp.add(i) as *const f32))
            .add(V::splat(omb1).mul(gi));
        let vi = V::splat(c.beta2)
            .mul(V::loadu(vp.add(i) as *const f32))
            .add(V::splat(omb2).mul(gi).mul(gi));
        mi.storeu(mp.add(i));
        vi.storeu(vp.add(i));
        let x = V::loadu(pp.add(i) as *const f32);
        let den = vi.div(V::splat(c.bc2)).sqrt().add(V::splat(c.eps));
        let step = mi
            .div(V::splat(c.bc1))
            .div(den)
            .add(V::splat(c.weight_decay).mul(x));
        x.sub(V::splat(c.lr).mul(step)).storeu(pp.add(i));
        i += V::LANES;
    }
    while i < n {
        let gi = g[i] * c.grad_scale;
        m[i] = c.beta1 * m[i] + omb1 * gi;
        v[i] = c.beta2 * v[i] + omb2 * gi * gi;
        let den = (v[i] / c.bc2).sqrt() + c.eps;
        p[i] -= c.lr * (m[i] / c.bc1 / den + c.weight_decay * p[i]);
        i += 1;
    }
}

/// One register-blocked gemm panel job: the geometry of a
/// `C_block += A_rows · B_panel` accumulation over a `kc`-deep panel.
///
/// * element `(r, l)` of the block's A operand is
///   `a[a_off + r * a_stride + l * a_lstride]` (`a_lstride = 1` for
///   row-major A rows; `a_stride = 1` reads a transposed operand in place),
/// * depth `l` of the panel reads `bp[l * b_stride + b_col0 ..][..nc]`,
/// * row `r` of the destination writes
///   `c[r * c_stride + c_col0 ..][..nc]` (the slice handed to
///   [`gemm_panel`]).
///
/// `gemm` and `gemm_tn` (strided rows of the original B) and `gemm_nt`
/// (the original B as the A operand, a transposed block of activations as
/// the panel) describe their inner loops with this one struct, so a single
/// microkernel serves every layout.
#[derive(Clone, Copy)]
pub struct Panel<'a> {
    /// Source matrix providing the block's A rows.
    pub a: &'a [f32],
    /// Offset of the block's first A row within `a`.
    pub a_off: usize,
    /// Stride between consecutive A rows.
    pub a_stride: usize,
    /// Stride between consecutive depth (`l`) elements of one A row.
    pub a_lstride: usize,
    /// B panel (a view of the original matrix or per-task scratch).
    pub bp: &'a [f32],
    /// Stride between consecutive depth rows of the panel.
    pub b_stride: usize,
    /// First panel column to read at each depth.
    pub b_col0: usize,
    /// Panel depth (number of `l` terms accumulated per element).
    pub kc: usize,
    /// Panel width (columns of C written).
    pub nc: usize,
    /// Rows of C in this block.
    pub rows: usize,
    /// Stride between consecutive C rows.
    pub c_stride: usize,
    /// First C column written in each row.
    pub c_col0: usize,
}

impl Panel<'_> {
    fn check(&self, c_len: usize) {
        if self.rows == 0 || self.nc == 0 {
            return;
        }
        if self.kc > 0 {
            let last =
                self.a_off + (self.rows - 1) * self.a_stride + (self.kc - 1) * self.a_lstride;
            assert!(last < self.a.len());
            assert!((self.kc - 1) * self.b_stride + self.b_col0 + self.nc <= self.bp.len());
        }
        assert!((self.rows - 1) * self.c_stride + self.c_col0 + self.nc <= c_len);
    }
}

/// `MR x (NV * V::LANES)` register tile: load C, accumulate `kc` fused
/// terms in ascending-`l` order, store back. The ascending-`l` per-element
/// order is what keeps results independent of tile position, tile width
/// and thread count.
#[inline(always)]
unsafe fn tile_g<V: Lanes, const MR: usize, const NV: usize>(
    p: &Panel<'_>,
    c: *mut f32,
    r0: usize,
    j0: usize,
) {
    let mut acc = [[V::zero(); NV]; MR];
    for (ri, row) in acc.iter_mut().enumerate() {
        let base = (r0 + ri) * p.c_stride + p.c_col0 + j0;
        for (vi, v) in row.iter_mut().enumerate() {
            *v = V::loadu(c.add(base + vi * V::LANES) as *const f32);
        }
    }
    let ap = p.a.as_ptr();
    let bp = p.bp.as_ptr();
    for l in 0..p.kc {
        let brow = bp.add(l * p.b_stride + p.b_col0 + j0);
        let mut bv = [V::zero(); NV];
        for (vi, v) in bv.iter_mut().enumerate() {
            *v = V::loadu(brow.add(vi * V::LANES));
        }
        for (ri, row) in acc.iter_mut().enumerate() {
            let av = V::splat(*ap.add(p.a_off + (r0 + ri) * p.a_stride + l * p.a_lstride));
            for (vi, v) in row.iter_mut().enumerate() {
                *v = v.fma(av, bv[vi]);
            }
        }
    }
    for (ri, row) in acc.iter().enumerate() {
        let base = (r0 + ri) * p.c_stride + p.c_col0 + j0;
        for (vi, v) in row.iter().enumerate() {
            v.storeu(c.add(base + vi * V::LANES));
        }
    }
}

/// Scalar column remainder (`nc % 8` trailing columns), shared verbatim by
/// every backend: same `mul_add`, same ascending-`l` order.
#[inline(always)]
unsafe fn tail_cols(p: &Panel<'_>, c: *mut f32, r0: usize, mr: usize, j0: usize) {
    for ri in 0..mr {
        let a_base = p.a_off + (r0 + ri) * p.a_stride;
        let c_base = (r0 + ri) * p.c_stride + p.c_col0;
        for j in j0..p.nc {
            let mut s = *c.add(c_base + j);
            for l in 0..p.kc {
                s = (*p.a.as_ptr().add(a_base + l * p.a_lstride))
                    .mul_add(*p.bp.as_ptr().add(l * p.b_stride + p.b_col0 + j), s);
            }
            *c.add(c_base + j) = s;
        }
    }
}

/// One `MR`-row strip of a panel, columns left to right: `MR x 2W` and
/// `MR x W` tiles of the wide vector `W`, then `MR x 8` tiles of the
/// 8-lane `V` (none remain where `W` is `V`), then [`tail_cols`].
#[inline(always)]
unsafe fn strip_g<W: Lanes, V: Lanes, const MR: usize>(p: &Panel<'_>, c: *mut f32, r: usize) {
    let mut j = 0;
    while j + 2 * W::LANES <= p.nc {
        tile_g::<W, MR, 2>(p, c, r, j);
        j += 2 * W::LANES;
    }
    while j + W::LANES <= p.nc {
        tile_g::<W, MR, 1>(p, c, r, j);
        j += W::LANES;
    }
    while j + V::LANES <= p.nc {
        tile_g::<V, MR, 1>(p, c, r, j);
        j += V::LANES;
    }
    tail_cols(p, c, r, MR, j);
}

/// The panel in strips of rows, rows outer: 8-row strips where `W` is
/// wider than `V` (32 vector registers hold an `8 x 2W` tile, and each
/// `W`-wide load of B then feeds eight rows, which keeps a tile FMA-bound
/// even where B's rows are not 64-byte aligned and every load splits a
/// cache line), then 4-row strips, then the row remainder one row at a
/// time.
#[inline(always)]
unsafe fn gemm_panel_g<W: Lanes, V: Lanes>(p: &Panel<'_>, c: &mut [f32]) {
    let cp = c.as_mut_ptr();
    let mut r = 0;
    if W::LANES > V::LANES {
        while r + 8 <= p.rows {
            strip_g::<W, V, 8>(p, cp, r);
            r += 8;
        }
    }
    while r + 4 <= p.rows {
        strip_g::<W, V, 4>(p, cp, r);
        r += 4;
    }
    while r < p.rows {
        strip_g::<W, V, 1>(p, cp, r);
        r += 1;
    }
}

/// About `fmas` lane fused multiply-adds as [`PEAK_CHAINS`] independent
/// chains held in registers: no load or store inside the loop, so the
/// only limit is the FMA units. The lanes are summed at the end so the
/// chains are live.
#[inline(always)]
unsafe fn fma_peak_g<V: Lanes>(fmas: usize) -> f32 {
    let iters = fmas / (PEAK_CHAINS * V::LANES);
    let (a, b) = (V::splat(0.999_999), V::splat(1e-7));
    let mut acc = [V::zero(); PEAK_CHAINS];
    for (i, v) in acc.iter_mut().enumerate() {
        *v = V::splat(i as f32);
    }
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = b.fma(*v, a);
        }
    }
    let mut lanes = [0.0f32; 16];
    let mut sum = 0.0;
    for v in acc {
        v.storeu(lanes.as_mut_ptr());
        sum += lanes[..V::LANES].iter().sum::<f32>();
    }
    sum
}

/// Independent accumulator chains in [`fma_peak`]: twelve covers an FMA
/// latency of four cycles on two ports with room to spare, and twelve
/// 16-lane vectors still fit the register file.
pub const PEAK_CHAINS: usize = 12;

// ---------------------------------------------------------------------------
// Backend instantiations. The AVX2 wrappers carry
// `#[target_feature(enable = "avx2,fma")]` and the AVX-512 ones
// `"avx512f,avx2,fma"`, so the whole inlined generic body compiles to
// vector code; `dispatch!` reaches them only where `backend()` reports
// that backend.
// ---------------------------------------------------------------------------

macro_rules! instantiate {
    // `generic<F>` instantiates a `map` loop over the lane function `F`.
    ($scalar:ident, $avx2:ident, $generic:ident $(<$f:ty>)?,
     ($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        fn $scalar($($arg: $ty),*) -> $ret {
            unsafe { $generic::<Sc $(, $f)?>($($arg),*) }
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $avx2($($arg: $ty),*) -> $ret {
            $generic::<avx::Vx $(, $f)?>($($arg),*)
        }
    };
}

instantiate!(dot_scalar, dot_avx2, dot_g, (a: &[f32], b: &[f32]) -> f32);
instantiate!(axpy_scalar, axpy_avx2, axpy_g, (dst: &mut [f32], s: f32, src: &[f32]) -> ());
instantiate!(exp_scalar, exp_avx2, map_g<Exp>, (x: &mut [f32]) -> ());
instantiate!(gelu_scalar, gelu_avx2, map_g<Gelu>, (x: &mut [f32]) -> ());
instantiate!(gelu_fwd_bwd_scalar, gelu_fwd_bwd_avx2, map2x2_g<GeluFwdBwd>,
    (x: &mut [f32], dy: &mut [f32]) -> ());
instantiate!(silu_scalar, silu_avx2, map_g<Silu>, (x: &mut [f32]) -> ());
instantiate!(silu_bwd_scalar, silu_bwd_avx2, map2_g<SiluBwd>,
    (x: &[f32], dy: &[f32], dx: &mut [f32]) -> ());
instantiate!(adamw_scalar, adamw_avx2, adamw_g,
    (p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamwStep) -> ());

/// The three instantiations of a kernel that runs 16 lanes wide under
/// [`Backend::Avx512`]: `$generic` over the lane types listed per backend.
macro_rules! instantiate_wide {
    ($scalar:ident, $avx2:ident, $avx512:ident, $generic:ident,
     <$($sc:ty),+>, <$($ymm:ty),+>, <$($zmm:ty),+>,
     ($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        fn $scalar($($arg: $ty),*) -> $ret {
            unsafe { $generic::<$($sc),+>($($arg),*) }
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $avx2($($arg: $ty),*) -> $ret {
            $generic::<$($ymm),+>($($arg),*)
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        #[target_feature(enable = "avx512f,avx2,fma")]
        unsafe fn $avx512($($arg: $ty),*) -> $ret {
            $generic::<$($zmm),+>($($arg),*)
        }
    };
}

instantiate_wide!(gemm_panel_scalar, gemm_panel_avx2, gemm_panel_avx512, gemm_panel_g,
    <Sc, Sc>, <avx::Vx, avx::Vx>, <avx::Vz, avx::Vx>, (p: &Panel<'_>, c: &mut [f32]) -> ());
instantiate_wide!(fma_peak_scalar, fma_peak_avx2, fma_peak_avx512, fma_peak_g,
    <Sc>, <avx::Vx>, <avx::Vz>, (fmas: usize) -> f32);
instantiate_wide!(scale_rows_scalar, scale_rows_avx2, scale_rows_avx512, scale_rows_g,
    <Sc, Sc>, <avx::Vx, avx::Vx>, <avx::Vz, avx::Vx>,
    (c: &mut [f32], stride: usize, col0: usize, width: usize, factors: &[f32]) -> ());
instantiate_wide!(softmax_fold_scalar, softmax_fold_avx2, softmax_fold_avx512, softmax_fold_g,
    <Sc, Sc>, <avx::Vx, avx::Vx>, <avx::Vz, avx::Vx>,
    (s: &mut [f32], w: usize, m: &mut [f32], l: &mut [f32], corr: &mut [f32]) -> ());
instantiate_wide!(softmax_bwd_scalar, softmax_bwd_avx2, softmax_bwd_avx512, softmax_bwd_g,
    <Sc, Sc>, <avx::Vx, avx::Vx>, <avx::Vz, avx::Vx>,
    (s: &mut [f32], dp: &mut [f32], w: usize, lse: &[f32], dsum: &[f32], scale: f32) -> ());
instantiate_wide!(dscale_scalar, dscale_avx2, dscale_avx512, dscale_g,
    <Sc, Sc>, <avx::Vx, avx::Vx>, <avx::Vz, avx::Vx>, (dst: &mut [f32], d: f32) -> ());

/// Calls the instantiation [`backend`] names for the calling thread: the
/// AVX2 one under [`Backend::Avx512`] too, unless a third is given.
macro_rules! dispatch {
    ($scalar:ident, $avx2:ident, ($($arg:expr),*)) => {{
        match backend() {
            // SAFETY: `backend` reports AVX2 or AVX-512 only where
            // `avx2_available`.
            #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
            Backend::Avx2 | Backend::Avx512 => unsafe { $avx2($($arg),*) },
            _ => $scalar($($arg),*),
        }
    }};
    ($scalar:ident, $avx2:ident, $avx512:ident, ($($arg:expr),*)) => {{
        match backend() {
            // SAFETY: `backend` reports AVX-512 only where
            // `avx512_available`, AVX2 only where `avx2_available`.
            #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
            Backend::Avx512 => unsafe { $avx512($($arg),*) },
            #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
            Backend::Avx2 => unsafe { $avx2($($arg),*) },
            _ => $scalar($($arg),*),
        }
    }};
}

/// Dot product (extent mismatch truncates to the shorter slice).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(dot_scalar, dot_avx2, (a, b))
}

/// `dst[i] += s * src[i]` (fused) over the overlap of the two slices.
pub fn axpy(dst: &mut [f32], s: f32, src: &[f32]) {
    dispatch!(axpy_scalar, axpy_avx2, (dst, s, src))
}

/// `c[r * stride + col0 ..][..width] *= factors[r]` for each row `r` of
/// `factors` (the online-softmax accumulator rescale).
pub fn scale_rows(c: &mut [f32], stride: usize, col0: usize, width: usize, factors: &[f32]) {
    if !factors.is_empty() {
        assert!((factors.len() - 1) * stride + col0 + width <= c.len());
    }
    dispatch!(
        scale_rows_scalar,
        scale_rows_avx2,
        scale_rows_avx512,
        (c, stride, col0, width, factors)
    )
}

/// In-place lane-wise polynomial `exp`: within 2 ulp of the exact value
/// on `[EXP_LO, 0]`, `exp(0) == 1.0`, exactly `0.0` below [`EXP_LO`]
/// (and for NaN), saturating at `exp(EXP_HI)`.
pub fn exp(x: &mut [f32]) {
    dispatch!(exp_scalar, exp_avx2, (x))
}

/// In-place tanh-approximation GELU, evaluated as `x·σ(z)` with
/// `z = 2·sqrt(2/π)·(x + 0.044715·x³)` — the same function as
/// `0.5·x·(1 + tanh(z/2))` without the `1 + tanh` cancellation on the
/// negative side: relative error at most `5e-7·(1 + |z|)` (the rounding of
/// `z` itself) down to where the result underflows. `gelu(0) == 0`, NaN
/// propagates, no finite input gives NaN or infinity.
pub fn gelu(x: &mut [f32]) {
    dispatch!(gelu_scalar, gelu_avx2, (x))
}

/// [`gelu`] and its gradient in one pass, both in place: on return `x`
/// holds `gelu(x)` and `dy` holds `gelu'(x)·dy`, with
/// `gelu' = σ + x·z'·σ(1−σ)` (absolute error of the factor below `2e-6`;
/// finite for every `|x| < 1e19`, beyond which `x²` overflows). One
/// exponential per element serves both halves, and the forward half is bit
/// for bit what [`gelu`] gives: what a backward that rebuilds the
/// activation calls.
///
/// # Panics
///
/// Panics unless the two slices have the same length.
pub fn gelu_fwd_bwd(x: &mut [f32], dy: &mut [f32]) {
    assert_eq!(x.len(), dy.len());
    dispatch!(gelu_fwd_bwd_scalar, gelu_fwd_bwd_avx2, (x, dy))
}

/// In-place SiLU `x·σ(x)` (same kernel family and edge behaviour as
/// [`gelu`]).
pub fn silu(x: &mut [f32]) {
    dispatch!(silu_scalar, silu_avx2, (x))
}

/// `dx[i] = (σ + x·σ(1−σ))·dy[i]` at `x[i]`.
///
/// # Panics
///
/// Panics unless the three slices have the same length.
pub fn silu_bwd(x: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert!(x.len() == dx.len() && dy.len() == dx.len());
    dispatch!(silu_bwd_scalar, silu_bwd_avx2, (x, dy, dx))
}

/// Online-softmax fold of one score block `s: [rows, w]` (one *column*
/// per query, `w` a multiple of 8) into the running per-column `(m, l)`.
/// On return `s` holds `exp(s - m_new)`, `corr` holds `exp(m_old - m_new)`
/// (the factor to rescale the accumulator by), `l = l * corr + colsum(s)`
/// with rows summed ascending, and `m = m_new`. Scores masked with `-inf`
/// come back exactly `0.0`; a column still at `m = -inf` stays
/// `(m, l, corr) = (-inf, 0, 0)`.
pub fn softmax_fold(s: &mut [f32], w: usize, m: &mut [f32], l: &mut [f32], corr: &mut [f32]) {
    assert!(w > 0 && w.is_multiple_of(8) && s.len().is_multiple_of(w));
    assert!(m.len() >= w && l.len() >= w && corr.len() >= w);
    dispatch!(
        softmax_fold_scalar,
        softmax_fold_avx2,
        softmax_fold_avx512,
        (s, w, m, l, corr)
    )
}

/// Backward softmax of one block: `s` (raw scores) becomes
/// `p = exp(s - lse)` and `dp` (`dO·Vᵀ`) becomes
/// `ds = p * (dp - dsum) * scale`, both `[rows, w]` with `w` a multiple of
/// 8. `lse`/`dsum` hold one entry per row (query); a query with
/// `lse = -inf` gets `p = ds = 0`.
pub fn softmax_bwd(s: &mut [f32], dp: &mut [f32], w: usize, lse: &[f32], dsum: &[f32], scale: f32) {
    assert!(w > 0 && w.is_multiple_of(8) && s.len().is_multiple_of(w));
    assert_eq!(s.len(), dp.len());
    let rows = s.len() / w;
    assert!(lse.len() >= rows && dsum.len() >= rows);
    dispatch!(
        softmax_bwd_scalar,
        softmax_bwd_avx2,
        softmax_bwd_avx512,
        (s, dp, w, lse, dsum, scale)
    )
}

/// `dst[i] /= d` (the online-softmax finalize divide; kept a true IEEE
/// division, never a reciprocal multiply, in every backend).
pub fn dscale(dst: &mut [f32], d: f32) {
    dispatch!(dscale_scalar, dscale_avx2, dscale_avx512, (dst, d))
}

/// One AdamW step, every slice updated in place: with `g' = g·grad_scale`,
/// `m = β1·m + (1−β1)·g'`, `v = β2·v + (1−β2)·g'·g'`, and
/// `p -= lr·((m/bc1) / (sqrt(v/bc2) + eps) + weight_decay·p)`.
///
/// # Panics
///
/// Panics unless the four slices have the same length.
pub fn adamw(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamwStep) {
    assert!(m.len() == p.len() && v.len() == p.len() && g.len() == p.len());
    dispatch!(adamw_scalar, adamw_avx2, (p, m, v, g, c))
}

/// Register-blocked panel accumulation (`C_block += A_rows · B_panel`,
/// see [`Panel`]).
pub fn gemm_panel(p: &Panel<'_>, c: &mut [f32]) {
    p.check(c.len());
    dispatch!(
        gemm_panel_scalar,
        gemm_panel_avx2,
        gemm_panel_avx512,
        (p, c)
    )
}

/// The backend's register-resident FMA rate: about `fmas` lane fused
/// multiply-adds (rounded down to whole rounds of [`PEAK_CHAINS`]
/// vectors), as [`PEAK_CHAINS`] independent chains that touch no memory,
/// at the width [`gemm_panel`] runs at. Returns the chains' sum (its value
/// depends on the lane count). A denominator for kernel rates that does
/// not move with the gemm it judges.
pub fn fma_peak(fmas: usize) -> f32 {
    dispatch!(fma_peak_scalar, fma_peak_avx2, fma_peak_avx512, (fmas))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` under each backend this CPU has, forced through the
    /// thread's [`KernelCtx`](crate::KernelCtx).
    fn each_backend(f: impl Fn(Backend)) {
        for be in backends() {
            on(be, || f(be));
        }
    }

    fn on<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
        crate::KernelCtx {
            backend,
            ..crate::KernelCtx::current()
        }
        .enter(f)
    }

    #[test]
    fn dot_matches_naive_on_every_backend() {
        let a: Vec<f32> = (0..67).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..67).map(|i| (i as f32 * 0.11).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        each_backend(|be| {
            assert!((dot(&a, &b) - naive).abs() < 1e-4, "{be:?}");
        });
    }

    #[test]
    fn backends_are_bitwise_identical_on_awkward_lengths() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 65] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 1.7).sin() * 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.9).cos() * 2.0).collect();
            let run = |be| {
                on(be, || {
                    let (mut ax, mut ds) = (a.clone(), a.clone());
                    axpy(&mut ax, 1.25, &b);
                    dscale(&mut ds, 0.7);
                    let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    (dot(&a, &b).to_bits(), bits(ax), bits(ds))
                })
            };
            for be in backends() {
                assert_eq!(run(Backend::Scalar), run(be), "{be:?}, length {n}");
            }
        }
    }

    /// The GELU gradient as its own lane function, `x_sigmoid_grad_v` on
    /// `z` times `dy`, with no exponential shared with the forward: the
    /// reference the fused kernel's gradient half is held to.
    struct GeluGradRef;
    impl F2 for GeluGradRef {
        #[inline(always)]
        unsafe fn f<V: Lanes>(x: V, dy: V) -> V {
            let (z, t) = gelu_arg_v(x);
            let dz = V::splat(GELU_K).fma(V::splat(3.0 * GELU_C * GELU_K), t);
            x_sigmoid_grad_v(x.mul(dz), z).mul(dy)
        }
    }

    instantiate!(gelu_grad_ref_scalar, gelu_grad_ref_avx2, map2_g<GeluGradRef>,
        (x: &[f32], dy: &[f32], dx: &mut [f32]) -> ());

    fn gelu_grad_ref(x: &[f32], dy: &[f32], dx: &mut [f32]) {
        dispatch!(gelu_grad_ref_scalar, gelu_grad_ref_avx2, (x, dy, dx))
    }

    #[test]
    fn fused_gelu_is_gelu_and_the_reference_gradient_bit_for_bit() {
        // Ragged lengths cross the 8-lane tail; the inputs cover both
        // saturations, the underflow edge, signed zeros, subnormals,
        // infinities and NaN.
        let edges = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            3.0,
            -3.0,
            30.0,
            -30.0,
            -87.0,
            1e19,
            -1e19,
            1e30,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0usize, 1, 7, 8, 9, 17, 19, 33, 64, 67] {
            let x: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        edges[i % edges.len()]
                    } else {
                        (i as f32 * 0.77).sin() * 6.0
                    }
                })
                .collect();
            let dy: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 5 == 4 {
                        edges[(i * 7) % edges.len()]
                    } else {
                        (i as f32 * 0.31).cos()
                    }
                })
                .collect();
            each_backend(|be| {
                let mut g = x.clone();
                gelu(&mut g);
                let mut dx = vec![0.0f32; n];
                gelu_grad_ref(&x, &dy, &mut dx);
                let (mut fx, mut fdy) = (x.clone(), dy.clone());
                gelu_fwd_bwd(&mut fx, &mut fdy);
                assert_eq!(bits(&fx), bits(&g), "{be:?} forward, length {n}");
                assert_eq!(bits(&fdy), bits(&dx), "{be:?} gradient, length {n}");
            });
        }
    }

    #[test]
    fn gemm_panel_matches_naive_accumulation() {
        // 13 rows x 61 cols x depth 5 exercises the 8-, 4- and 1-row
        // strips, the 32/16/8-col tiles and the scalar tail at once.
        let (rows, nc, kc) = (13usize, 61usize, 5usize);
        let a: Vec<f32> = (0..rows * kc).map(|i| (i as f32 * 0.3).sin()).collect();
        let bp: Vec<f32> = (0..kc * nc).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut want = vec![0.5f32; rows * nc];
        for r in 0..rows {
            for j in 0..nc {
                let mut s = want[r * nc + j];
                for l in 0..kc {
                    s = a[r * kc + l].mul_add(bp[l * nc + j], s);
                }
                want[r * nc + j] = s;
            }
        }
        each_backend(|be| {
            let mut c = vec![0.5f32; rows * nc];
            let p = Panel {
                a: &a,
                a_off: 0,
                a_stride: kc,
                a_lstride: 1,
                bp: &bp,
                b_stride: nc,
                b_col0: 0,
                kc,
                nc,
                rows,
                c_stride: nc,
                c_col0: 0,
            };
            gemm_panel(&p, &mut c);
            for (g, w) in c.iter().zip(&want) {
                assert!((g - w).abs() < 1e-4, "{be:?}: {g} vs {w}");
            }
        });
    }
}
