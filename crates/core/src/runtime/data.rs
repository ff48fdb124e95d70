//! Deterministic synthetic corpus for the convergence experiments
//! (paper Figure 14).
//!
//! Tokens follow a noisy Markov chain over the vocabulary: from state `t`
//! the next token is `walk(t)` with high probability, otherwise uniform.
//! A small GPT drives its loss well below the uniform entropy within a
//! few dozen steps, which makes divergence between training modes
//! visible immediately.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded corpus generator.
#[derive(Debug, Clone)]
pub struct Corpus {
    vocab: usize,
    noise: f64,
    rng: SmallRng,
}

impl Corpus {
    /// Creates a generator over `vocab` tokens with transition noise
    /// `noise` (probability of an off-chain token).
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 2` or `noise` is outside `[0, 1]`.
    pub fn new(vocab: usize, noise: f64, seed: u64) -> Self {
        assert!(vocab >= 2, "need at least two tokens");
        assert!((0.0..=1.0).contains(&noise), "noise must be a probability");
        Corpus {
            vocab,
            noise,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The deterministic "successor" function of the chain.
    fn walk(&self, t: usize) -> usize {
        (t * 5 + 3) % self.vocab
    }

    /// Samples a sequence of `len + 1` tokens and returns
    /// `(inputs, targets)` where `targets[i] = inputs[i + 1]`.
    pub fn sample(&mut self, len: usize) -> (Vec<usize>, Vec<usize>) {
        let mut seq = Vec::with_capacity(len + 1);
        seq.push(self.rng.gen_range(0..self.vocab));
        for i in 0..len {
            let prev = seq[i];
            let next = if self.rng.gen_bool(self.noise) {
                self.rng.gen_range(0..self.vocab)
            } else {
                self.walk(prev)
            };
            seq.push(next);
        }
        let inputs = seq[..len].to_vec();
        let targets = seq[1..].to_vec();
        (inputs, targets)
    }

    /// The raw RNG stream state, for checkpointing the corpus mid-run.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Repositions the token stream at a state captured by
    /// [`Corpus::rng_state`]; subsequent samples continue that stream
    /// exactly.
    pub fn set_rng_state(&mut self, s: [u64; 4]) {
        self.rng = SmallRng::from_state(s);
    }

    /// The chain's conditional entropy in nats — the loss floor a perfect
    /// model converges to.
    pub fn entropy_floor(&self) -> f64 {
        // next token: walk(prev) with prob (1-noise) + noise/vocab, others
        // noise/vocab each.
        let p_hit = (1.0 - self.noise) + self.noise / self.vocab as f64;
        let p_miss = self.noise / self.vocab as f64;
        -(p_hit * p_hit.ln() + (self.vocab as f64 - 1.0) * p_miss * p_miss.ln())
    }
}

/// A long-range **copy task**: the first half of the sequence is random;
/// the second half repeats it verbatim. Predicting the second half
/// requires attending `half` positions back — with FPDT chunking, that is
/// guaranteed to cross chunk boundaries, so a model that learns this task
/// proves the streamed attention carries information across chunks (and
/// across the all-to-all, the shuffle and the host pool).
///
/// Targets for the first half are [`IGNORE`](Self::IGNORE) so the loss
/// measures only the long-range predictions.
#[derive(Debug, Clone)]
pub struct CopyCorpus {
    vocab: usize,
    rng: SmallRng,
}

impl CopyCorpus {
    /// Loss-masked target id.
    pub const IGNORE: usize = usize::MAX;

    /// Creates a generator over `vocab` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 2`.
    pub fn new(vocab: usize, seed: u64) -> Self {
        assert!(vocab >= 2, "need at least two tokens");
        CopyCorpus {
            vocab,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Samples `(inputs, targets)` of length `2 * half`. The prediction at
    /// position `i >= half - 1` is the token at `i + 1 - half` (the copy);
    /// earlier positions are ignored.
    pub fn sample(&mut self, half: usize) -> (Vec<usize>, Vec<usize>) {
        let first: Vec<usize> = (0..half)
            .map(|_| self.rng.gen_range(0..self.vocab))
            .collect();
        let mut inputs = first.clone();
        inputs.extend_from_slice(&first);
        let mut targets = vec![Self::IGNORE; 2 * half];
        targets[half - 1..2 * half - 1].copy_from_slice(&inputs[half..2 * half]);
        (inputs, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = Corpus::new(50, 0.1, 7).sample(64);
        let (b, _) = Corpus::new(50, 0.1, 7).sample(64);
        let (c, _) = Corpus::new(50, 0.1, 8).sample(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn targets_are_shifted_inputs() {
        let (x, y) = Corpus::new(20, 0.2, 1).sample(32);
        assert_eq!(x.len(), 32);
        assert_eq!(y.len(), 32);
        assert_eq!(&x[1..], &y[..31]);
    }

    #[test]
    fn tokens_in_vocab() {
        let (x, y) = Corpus::new(11, 0.5, 2).sample(200);
        assert!(x.iter().chain(&y).all(|&t| t < 11));
    }

    #[test]
    fn low_noise_follows_the_chain() {
        let mut c = Corpus::new(17, 0.0, 3);
        let (x, y) = c.sample(50);
        for (a, b) in x.iter().zip(&y) {
            assert_eq!(*b, (a * 5 + 3) % 17);
        }
    }

    #[test]
    fn rng_state_roundtrip_resumes_stream() {
        let mut c = Corpus::new(50, 0.1, 9);
        c.sample(64);
        let saved = c.rng_state();
        let ahead = c.sample(64);
        let mut resumed = Corpus::new(50, 0.1, 12345);
        resumed.set_rng_state(saved);
        assert_eq!(resumed.sample(64), ahead, "resume continues the stream");
    }

    #[test]
    fn entropy_floor_bounds() {
        let c = Corpus::new(50, 0.1, 0);
        let h = c.entropy_floor();
        assert!(h > 0.0);
        assert!(h < (50.0f64).ln(), "below uniform entropy");
    }
}

#[cfg(test)]
mod copy_tests {
    use super::*;

    #[test]
    fn second_half_repeats_first() {
        let (x, _) = CopyCorpus::new(16, 0).sample(8);
        assert_eq!(x.len(), 16);
        assert_eq!(&x[..8], &x[8..]);
    }

    #[test]
    fn targets_are_the_copy_and_first_half_is_masked() {
        let (x, y) = CopyCorpus::new(16, 1).sample(8);
        for (i, &t) in y.iter().take(7).enumerate() {
            assert_eq!(t, CopyCorpus::IGNORE, "position {i} masked");
        }
        for i in 7..15 {
            assert_eq!(y[i], x[i + 1 - 8], "copy target at {i}");
        }
        assert_eq!(y[15], CopyCorpus::IGNORE);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            CopyCorpus::new(16, 5).sample(8),
            CopyCorpus::new(16, 5).sample(8)
        );
    }
}
