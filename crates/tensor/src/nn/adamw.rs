use crate::mk::{self, AdamwStep};

/// Hyper-parameters for [`AdamW`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamWConfig {
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
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Decoupled-weight-decay Adam operating on raw parameter slices.
///
/// The optimizer holds one flat `(m, v)` moment pair over a contiguous
/// range `lo..lo + len` of the caller's *flat parameter order*, and every
/// [`AdamW::update`] names the position of its slice in that order. A dense
/// replica owns `0..n`; a ZeRO-1 rank owns `rank*n/world..(rank+1)*n/world`
/// and never sees (or allocates state for) the rest, which is exactly the
/// paper's "optimizer states are partitioned" memory saving, realized for
/// real in the runtime. A fresh optimizer owns nothing: its range starts at
/// the first offset it is asked to update and grows, zero-filled, as
/// contiguous updates extend it.
///
/// # Example
///
/// ```
/// use fpdt_tensor::nn::{AdamW, AdamWConfig};
///
/// let mut opt = AdamW::new(AdamWConfig { lr: 0.1, ..Default::default() });
/// let mut w = vec![1.0_f32, -1.0];
/// let g = vec![1.0_f32, -1.0];
/// for _ in 0..10 {
///     opt.begin_step();
///     opt.update(0, &mut w, &g);
/// }
/// assert!(w[0] < 1.0 && w[1] > -1.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdamW {
    cfg: AdamWConfig,
    step: u64,
    /// Flat-order position of `m[0]` / `v[0]`.
    lo: usize,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdamW {
    /// Creates an optimizer with the given hyper-parameters and no state.
    pub fn new(cfg: AdamWConfig) -> Self {
        AdamW {
            cfg,
            step: 0,
            lo: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current hyper-parameters.
    pub fn config(&self) -> AdamWConfig {
        self.cfg
    }

    /// Sets the learning rate (e.g. for warmup schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Bytes of optimizer state currently held (f32 moments).
    pub fn state_bytes(&self) -> usize {
        (self.m.len() + self.v.len()) * 4
    }

    /// Advances the shared step counter. Call once per training step,
    /// before the [`AdamW::update`] calls.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Applies one AdamW update to `param` given `grad`, where `param[0]`
    /// sits at `offset` in the flat parameter order.
    ///
    /// # Panics
    ///
    /// Panics if `param` and `grad` lengths differ, if [`AdamW::begin_step`]
    /// was never called, or if `offset` lies before the owned range or
    /// leaves a gap after it (all caller bugs, not recoverable conditions).
    pub fn update(&mut self, offset: usize, param: &mut [f32], grad: &[f32]) {
        self.update_scaled(offset, param, grad, 1.0);
    }

    /// [`AdamW::update`] (same panics) reading each gradient as
    /// `grad[i] * grad_scale`: bit for bit what scaling the gradients first
    /// would give, without the extra pass over them.
    pub fn update_scaled(
        &mut self,
        offset: usize,
        param: &mut [f32],
        grad: &[f32],
        grad_scale: f32,
    ) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        assert!(self.step > 0, "call begin_step before update");
        if self.m.is_empty() {
            self.lo = offset;
        }
        let start = offset.wrapping_sub(self.lo);
        assert!(
            offset >= self.lo && start <= self.m.len(),
            "update at {offset} is not contiguous with the {} moments owned from {}",
            self.m.len(),
            self.lo
        );
        let end = start + param.len();
        if self.m.len() < end {
            self.m.resize(end, 0.0);
            self.v.resize(end, 0.0);
        }
        let (c, t) = (self.cfg, self.step as i32);
        let step = AdamwStep {
            lr: c.lr,
            beta1: c.beta1,
            beta2: c.beta2,
            eps: c.eps,
            weight_decay: c.weight_decay,
            bc1: 1.0 - c.beta1.powi(t),
            bc2: 1.0 - c.beta2.powi(t),
            grad_scale,
        };
        let (m, v) = (&mut self.m[start..end], &mut self.v[start..end]);
        mk::adamw(param, m, v, grad, &step);
    }

    /// The owned range's first flat-order position and its moments.
    pub fn moments(&self) -> (usize, &[f32], &[f32]) {
        (self.lo, &self.m, &self.v)
    }

    /// Replaces the optimizer state: `step` updates taken, moments `m` /
    /// `v` over the flat range starting at `lo`. Hyper-parameters are
    /// untouched — they come from the training config, not the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `m` and `v` differ in length.
    pub fn import_state(&mut self, step: u64, lo: usize, m: Vec<f32>, v: Vec<f32>) {
        assert_eq!(m.len(), v.len(), "moment vectors differ in length");
        self.step = step;
        self.lo = lo;
        self.m = m;
        self.v = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // minimize f(w) = 0.5 * (w - 3)^2
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.1,
            ..Default::default()
        });
        let mut w = vec![0.0f32];
        for _ in 0..500 {
            let g = vec![w[0] - 3.0];
            opt.begin_step();
            opt.update(0, &mut w, &g);
        }
        assert!((w[0] - 3.0).abs() < 1e-2, "w={}", w[0]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.01,
            weight_decay: 0.5,
            ..Default::default()
        });
        let mut w = vec![5.0f32];
        for _ in 0..100 {
            opt.begin_step();
            opt.update(0, &mut w, &[0.0]);
        }
        assert!(w[0] < 5.0);
    }

    #[test]
    fn sharded_update_matches_full() {
        // Two optimizers each owning half the parameter vector must match a
        // single optimizer owning the whole thing.
        let cfg = AdamWConfig {
            lr: 0.05,
            ..Default::default()
        };
        let mut full = AdamW::new(cfg);
        let mut lo = AdamW::new(cfg);
        let mut hi = AdamW::new(cfg);
        let mut w_full = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut w_shard = w_full.clone();
        for step in 0..20 {
            let g: Vec<f32> = w_full
                .iter()
                .map(|&x| x * 0.5 + step as f32 * 0.01)
                .collect();
            full.begin_step();
            full.update(0, &mut w_full, &g);
            let gs: Vec<f32> = w_shard
                .iter()
                .map(|&x| x * 0.5 + step as f32 * 0.01)
                .collect();
            lo.begin_step();
            lo.update(0, &mut w_shard[..2], &gs[..2]);
            hi.begin_step();
            hi.update(2, &mut w_shard[2..], &gs[2..]);
        }
        for (a, b) in w_full.iter().zip(&w_shard) {
            assert!((a - b).abs() < 1e-6);
        }
        // State is split: each shard holds half the bytes of the full state.
        assert_eq!(lo.state_bytes() + hi.state_bytes(), full.state_bytes());
    }

    #[test]
    fn state_bytes_accounting() {
        let mut opt = AdamW::new(AdamWConfig::default());
        opt.begin_step();
        let mut w = vec![0.0f32; 10];
        opt.update(0, &mut w, &[0.0; 10]);
        assert_eq!(opt.state_bytes(), 10 * 2 * 4);
    }

    #[test]
    fn exported_state_resumes_bitwise() {
        // Optimize for k steps, export, keep going in both the original and
        // a resumed copy: trajectories must agree bit for bit.
        let cfg = AdamWConfig {
            lr: 0.05,
            ..Default::default()
        };
        let mut opt = AdamW::new(cfg);
        let mut w = vec![1.0f32, -2.0, 0.5];
        for _ in 0..7 {
            let g: Vec<f32> = w.iter().map(|&x| x * 0.3 - 0.1).collect();
            opt.begin_step();
            opt.update(3, &mut w, &g);
        }
        let (lo, m, v) = opt.moments();
        assert_eq!((opt.steps(), lo, m.len()), (7, 3, 3));
        let mut resumed = AdamW::new(cfg);
        resumed.import_state(opt.steps(), lo, m.to_vec(), v.to_vec());
        let mut w2 = w.clone();
        for _ in 0..7 {
            let g: Vec<f32> = w.iter().map(|&x| x * 0.3 - 0.1).collect();
            opt.begin_step();
            opt.update(3, &mut w, &g);
            let g2: Vec<f32> = w2.iter().map(|&x| x * 0.3 - 0.1).collect();
            resumed.begin_step();
            resumed.update(3, &mut w2, &g2);
        }
        assert_eq!(w, w2, "resumed trajectory must match bitwise");
        assert_eq!(opt.steps(), resumed.steps());
        assert_eq!(opt.moments(), resumed.moments());
    }

    #[test]
    fn per_tensor_updates_share_one_flat_moment_pair() {
        // Updating a flat vector tensor by tensor, each call naming its
        // offset, is the one-call update of the whole vector.
        let cfg = AdamWConfig {
            weight_decay: 0.1,
            ..Default::default()
        };
        let g: Vec<f32> = (0..21).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut whole = AdamW::new(cfg);
        let mut parts = AdamW::new(cfg);
        let mut w1 = vec![0.5f32; 21];
        let mut w2 = w1.clone();
        for _ in 0..3 {
            whole.begin_step();
            whole.update_scaled(0, &mut w1, &g, 0.25);
            parts.begin_step();
            for r in [0..9, 9..10, 10..21] {
                parts.update_scaled(r.start, &mut w2[r.clone()], &g[r], 0.25);
            }
        }
        assert_eq!(w1, w2);
        assert_eq!(whole.moments(), parts.moments());
    }

    #[test]
    #[should_panic(expected = "not contiguous")]
    fn update_past_a_gap_panics() {
        let mut opt = AdamW::new(AdamWConfig::default());
        opt.begin_step();
        opt.update(4, &mut [0.0; 2], &[0.0; 2]);
        opt.update(7, &mut [0.0; 2], &[0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = AdamW::new(AdamWConfig::default());
        opt.begin_step();
        let mut w = vec![0.0f32; 2];
        opt.update(0, &mut w, &[0.0]);
    }
}
