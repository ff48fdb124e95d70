//! Multi-threaded distributed training — the Figure 14 experiment,
//! grown into a resumable, fault-tolerant [`Trainer`].
//!
//! Every rank is an OS thread owning a full replica of a (tiny) GPT,
//! initialized from the same seed. Sequences shard across ranks through a
//! [`ChunkPlan`] (the rank-ordinal shuffle, labels included); gradients
//! all-reduce in deterministic rank order; each rank then applies an
//! identical AdamW step. FPDT is "a pure system optimization" (paper
//! §5.6): its loss curve must coincide with the baseline's, which
//! [`train`] lets benchmarks and tests verify directly.
//!
//! ## The resumable Trainer
//!
//! [`Trainer`] keeps one long-lived **rank session** per rank, the
//! paper's one worker per GPU with its own compute, H2D and D2H streams
//! (§4, Figure 7). A session is a thread that owns its communicator, its
//! executor with the comm and copy streams (clocks on the rank thread,
//! not threads of their own), its replica, its optimizer
//! shard, its data stream and its kernel context ([`KernelCtx`]); the
//! Trainer drives it over a command channel (run `n` steps, export the
//! state) and closing the channel ends it. Sessions spawn on the first
//! `run_steps` from the Trainer's flat, world-independent host state —
//! parameters, optimizer moments, the data-RNG words — and the Trainer
//! holds either live sessions or that flat state, never both.
//! [`Trainer::checkpoint`] and [`Trainer::report`] copy state out of live
//! sessions without stopping them. Three properties rest on the flat
//! layout:
//!
//! * **Bitwise resume.** Call boundaries are exact: running
//!   `run_steps(k)` + `checkpoint` + [`Trainer::resume`] + the remaining
//!   steps produces the identical losses, gradients, and traffic counters
//!   as one uninterrupted run (`tests/determinism_oracle.rs` asserts it).
//! * **Elastic worlds.** [`Trainer::resize`] takes the state back to the
//!   flat layout and shuts the sessions down; the next `run_steps` spawns
//!   the new geometry, and parameters and moments re-shard automatically
//!   because they are stored flat. After the resize point the trajectory
//!   matches a fresh run at the final geometry.
//! * **Rollback, not poison.** A collective that fails mid-step (after
//!   the [`RuntimeOptions::comm_retries`] replay budget is exhausted)
//!   aborts the call at the last completed optimizer window: the data RNG
//!   rewinds, gradients are zeroed, the Trainer takes that state back to
//!   the flat layout and shuts the sessions down (their host pools die
//!   with them). `run_steps` returns a typed [`TrainError`]; the caller
//!   may simply call it again. A rank that *panics* takes its share of the
//!   state with it: the panic resumes out of `run_steps` after the other
//!   sessions are shut down, and the Trainer is spent.

use crate::chunk::ChunkPlan;
use crate::offload::PoolStats;
use crate::runtime::ckpt::{self, CkptError, StateDict, StateValue};
use crate::runtime::data::Corpus;
use crate::runtime::exec::{AttentionExec, DistAttention, RingAttentionExec};
use crate::runtime::gpt::{spanned, GptModel};
use crate::runtime::options::RuntimeOptions;
use fpdt_comm::{spawn_rank, CommGroup, CommStats, Communicator};
use fpdt_model::config::{Family, ModelConfig};
use fpdt_tensor::nn::{AdamW, AdamWConfig};
use fpdt_tensor::KernelCtx;
use fpdt_trace::Recorder;
use std::any::Any;
use std::fmt;
use std::panic::resume_unwind;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Which training mode to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// DeepSpeed Ulysses: sequence parallel, one all-to-all per layer.
    Ulysses,
    /// Ring Attention: contiguous sequence shards, KV blocks rotate around
    /// the ring (full heads everywhere — no head scattering).
    Ring,
    /// FPDT: chunked pipeline with optional host offload.
    Fpdt {
        /// Sequence chunks per rank.
        chunks: usize,
        /// Cache idle chunks in the host pool.
        offload: bool,
    },
}

impl Mode {
    fn chunks(&self) -> usize {
        match self {
            Mode::Ulysses | Mode::Ring => 1,
            Mode::Fpdt { chunks, .. } => *chunks,
        }
    }

    fn offload(&self) -> bool {
        matches!(self, Mode::Fpdt { offload: true, .. })
    }

    fn as_str(&self) -> String {
        match self {
            Mode::Ulysses => "ulysses".into(),
            Mode::Ring => "ring".into(),
            Mode::Fpdt { chunks, offload } => {
                format!("fpdt:{chunks}:{}", u8::from(*offload))
            }
        }
    }

    fn parse(s: &str) -> Result<Mode, CkptError> {
        match s {
            "ulysses" => Ok(Mode::Ulysses),
            "ring" => Ok(Mode::Ring),
            _ => {
                let rest = s
                    .strip_prefix("fpdt:")
                    .ok_or_else(|| CkptError::Corrupt(format!("unknown mode {s:?}")))?;
                let (chunks, offload) = rest
                    .split_once(':')
                    .ok_or_else(|| CkptError::Corrupt(format!("unknown mode {s:?}")))?;
                Ok(Mode::Fpdt {
                    chunks: chunks
                        .parse()
                        .map_err(|_| CkptError::Corrupt(format!("bad chunk count in {s:?}")))?,
                    offload: match offload {
                        "0" => false,
                        "1" => true,
                        _ => return Err(CkptError::Corrupt(format!("bad offload flag in {s:?}"))),
                    },
                })
            }
        }
    }
}

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model architecture (use [`ModelConfig::tiny`]).
    pub model: ModelConfig,
    /// Ranks, one simulated device each. One rank in any mode is the
    /// single-device run: its collectives move nothing.
    pub world: usize,
    /// Global sequence length per step.
    pub seq: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed for weights and data.
    pub seed: u64,
    /// Training mode.
    pub mode: Mode,
    /// ZeRO-1: shard optimizer state across ranks — each rank updates only
    /// its slice of the flat parameter vector (reduce-scatter semantics)
    /// and all-gathers the result, exactly like DeepSpeed ZeRO-1. The
    /// trajectory is unchanged (paper §3.2: FPDT composes with ZeRO).
    pub zero_shard: bool,
    /// Activation checkpointing (the paper's "AC."): save only block
    /// inputs in forward, recompute blocks in backward. Also unchanged
    /// numerically.
    pub activation_checkpoint: bool,
    /// Gradient accumulation: micro-steps per optimizer step (>= 1). The
    /// recorded loss is the window mean; all equivalence claims hold
    /// per-window.
    pub grad_accum: usize,
    /// Linear learning-rate warmup over this many optimizer steps
    /// (0 = constant LR). Applied identically in every mode, so the
    /// equivalence claims are schedule-independent.
    pub warmup_steps: usize,
    /// Runtime knobs (bf16 payloads, comm retry budget, fault injection,
    /// simulated link bandwidth), defaulting from the `FPDT_*`
    /// environment via [`RuntimeOptions::from_env`]. Host offload is
    /// [`Mode::Fpdt`]'s own flag, and kernel settings are the
    /// [`KernelCtx`] of the thread that first calls
    /// [`Trainer::run_steps`]. Every setting but `payload_bf16` is
    /// bitwise-invisible.
    pub runtime: RuntimeOptions,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::small(Mode::Ulysses)
    }
}

impl TrainConfig {
    /// A small default suitable for tests and the quickstart example.
    pub fn small(mode: Mode) -> Self {
        TrainConfig {
            model: ModelConfig::tiny(2, 32, 4, 50),
            world: 2,
            seq: 64,
            steps: 10,
            lr: 3e-3,
            seed: 42,
            mode,
            zero_shard: false,
            activation_checkpoint: false,
            grad_accum: 1,
            warmup_steps: 0,
            runtime: RuntimeOptions::from_env(),
        }
    }

    /// Checks that the mode can run this geometry. [`Trainer::new`] and
    /// [`Trainer::resize`] panic with the error's message (the contract the
    /// original `train` entry point had); [`Trainer::resume`] reports it as
    /// a corrupt checkpoint.
    fn validate(&self) -> Result<(), GeometryError> {
        let (heads, kv_heads, seq) = (self.model.heads, self.model.kv_heads, self.seq);
        let (world, chunks) = (self.world, self.mode.chunks());
        // Ring keeps full heads; Ulysses/FPDT scatter them.
        let scatter = self.mode != Mode::Ring;
        let problem = if [heads, kv_heads, seq, world, chunks].contains(&0) {
            "heads, kv heads, sequence, world and chunks must be positive"
        } else if scatter && !heads.is_multiple_of(world) {
            "heads must divide across ranks"
        } else if scatter && !kv_heads.is_multiple_of(world) {
            "kv heads must divide across ranks (Ulysses head scattering)"
        } else if !world.checked_mul(chunks).is_some_and(|n| seq.is_multiple_of(n)) {
            "sequence must divide into world x chunks segments"
        } else {
            return Ok(());
        };
        Err(GeometryError(format!(
            "{problem}: {heads} heads, {kv_heads} kv heads, sequence {seq}, world {world}, \
             {chunks} chunks"
        )))
    }
}

/// Why a [`TrainConfig`]'s geometry cannot run in its mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometryError(String);

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for GeometryError {}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per step (identical on every rank).
    pub losses: Vec<f32>,
    /// Host-pool statistics of rank 0 (all zeros unless offloading).
    pub host: PoolStats,
    /// Bytes of Adam moment state held by rank 0 — shrinks by `1/world`
    /// under ZeRO-1 sharding.
    pub opt_state_bytes: usize,
    /// Rank 0's per-collective traffic counters (no op at world 1,
    /// where nothing leaves the rank).
    pub comm: fpdt_comm::CommStats,
    /// The last optimizer window's reduced (unscaled) gradients — what the
    /// determinism oracle compares bit for bit across interrupted and
    /// uninterrupted runs. Empty after a failed `run_steps` until a
    /// window completes.
    pub grads: Vec<f32>,
}

/// Typed failure of a `run_steps` call.
#[derive(Debug)]
pub enum TrainError {
    /// A collective failed beyond the retry budget (or fatally).
    Comm(fpdt_comm::CommError),
    /// The executor failed outside the comm layer (shape bugs and the
    /// like) — carried as text because executor errors are type-erased.
    Exec(String),
    /// Checkpoint save/restore failed.
    Ckpt(CkptError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Comm(e) => write!(f, "training step failed in a collective: {e}"),
            TrainError::Exec(e) => write!(f, "training step failed in the executor: {e}"),
            TrainError::Ckpt(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Comm(e) => Some(e),
            TrainError::Exec(_) => None,
            TrainError::Ckpt(e) => Some(e),
        }
    }
}

impl From<fpdt_comm::CommError> for TrainError {
    fn from(e: fpdt_comm::CommError) -> Self {
        TrainError::Comm(e)
    }
}

impl From<CkptError> for TrainError {
    fn from(e: CkptError) -> Self {
        TrainError::Ckpt(e)
    }
}

fn exec_error(e: Box<dyn std::error::Error + Send + Sync>) -> TrainError {
    match e.downcast::<fpdt_comm::CommError>() {
        Ok(comm) => TrainError::Comm(*comm),
        Err(other) => TrainError::Exec(other.to_string()),
    }
}

/// Rank `rank`'s contiguous share of a flat vector of `n` elements split
/// over `world` ranks: the ZeRO-1 moment slice and the checkpoint shard.
/// The same integer division everywhere, so shares concatenate exactly.
fn shard_range(rank: usize, world: usize, n: usize) -> (usize, usize) {
    (rank * n / world, (rank + 1) * n / world)
}

/// A collective with transient-fault replay: wraps
/// [`Communicator::retrying`] (which tallies the retry counters) and marks
/// each replay with a `recover.retry` trace event.
fn retrying_traced<T>(
    comm: &Communicator,
    budget: usize,
    recorder: Option<&Recorder>,
    mut f: impl FnMut(&Communicator) -> fpdt_comm::Result<T>,
) -> Result<T, TrainError> {
    comm.retrying(budget, |c| {
        let out = f(c);
        if let (Err(e), Some(rec)) = (&out, recorder) {
            if e.is_retryable() {
                rec.event("recover.retry");
            }
        }
        out
    })
    .map_err(TrainError::Comm)
}

// ---------------------------------------------------------------------------
// Rank sessions
// ---------------------------------------------------------------------------

/// The flat, world-independent training state: what a checkpoint holds,
/// what rank sessions spawn from, and what they export. A single rank's
/// export holds only its share: `params` and `grads` on rank 0, `m` / `v`
/// on rank 0 when dense and on every rank, as its slice, under ZeRO-1.
#[derive(Debug, Default)]
struct Flat {
    /// Parameters in [`GptModel::for_each_param`] order.
    params: Vec<f32>,
    /// First moments, same order and length as `params`.
    m: Vec<f32>,
    /// Second moments.
    v: Vec<f32>,
    /// Optimizer step counter (bias correction).
    opt_step: u64,
    /// Data-stream RNG words.
    rng: [u64; 4],
    /// The last completed window's reduced gradients; empty when the
    /// sessions completed none since they spawned.
    grads: Vec<f32>,
}

/// What one `Run` reports. The replicated fields (steps, losses) are
/// identical across ranks by construction.
struct RunOut {
    /// Micro-steps completed (a failed window completes none).
    steps: usize,
    losses: Vec<f32>,
    opt_bytes: usize,
    /// Host-pool and wire counters since the session spawned.
    host: PoolStats,
    comm: CommStats,
    err: Option<TrainError>,
}

/// A request to a rank session, with the channel its answer goes back on.
enum Command {
    /// Run this many micro-steps (whole accumulation windows).
    Run(usize, Sender<RunOut>),
    /// Copy out the rank's share of the flat state.
    Export(Sender<Flat>),
    /// Copy out the last completed window's gradients (rank 0; empty
    /// elsewhere).
    Grads(Sender<Vec<f32>>),
    /// Run a closure on the rank thread.
    #[cfg(test)]
    Call(Box<dyn FnOnce() + Send>),
}

/// The Trainer's end of one rank session.
#[derive(Debug)]
struct Session {
    commands: Sender<Command>,
    thread: JoinHandle<()>,
}

/// Live rank sessions, with rank 0's counters since they spawned.
#[derive(Debug)]
struct Live {
    sessions: Vec<Session>,
    host: PoolStats,
    comm: CommStats,
}

/// Sends one command to each session and waits for every answer, in rank
/// order. `None` when a session is gone — its rank panicked.
fn ask<T>(sessions: &[Session], command: impl Fn(Sender<T>) -> Command) -> Option<Vec<T>> {
    let answers: Vec<Option<Receiver<T>>> = sessions
        .iter()
        .map(|s| {
            let (tx, rx) = channel();
            s.commands.send(command(tx)).ok().map(|()| rx)
        })
        .collect();
    answers.into_iter().map(|rx| rx?.recv().ok()).collect()
}

/// Closes every session's queue, then joins them all; returns the first
/// rank panic.
fn shut_down(sessions: Vec<Session>) -> Option<Box<dyn Any + Send>> {
    let threads: Vec<JoinHandle<()>> = sessions.into_iter().map(|s| s.thread).collect();
    threads
        .into_iter()
        .fold(None, |first, t| first.or(t.join().err()))
}

/// Spawns one session per rank of `cfg`'s geometry, each building its
/// rank from `flat`. Kernels run under the calling thread's context,
/// split across the ranks.
fn spawn(cfg: &TrainConfig, recorder: Option<&Recorder>, flat: Flat, step: usize) -> Vec<Session> {
    let ctx = KernelCtx::current();
    let flat = Arc::new(flat);
    CommGroup::new(cfg.world)
        .communicators()
        .into_iter()
        .map(|comm| {
            let (commands, queue) = channel();
            let (cfg, recorder, flat) = (cfg.clone(), recorder.cloned(), Arc::clone(&flat));
            let thread = spawn_rank(comm, ctx, move |comm| {
                serve(&cfg, recorder.as_ref(), comm, flat, step, &queue);
            })
            .unwrap_or_else(|e| panic!("cannot spawn a rank session: {e}"));
            Session { commands, thread }
        })
        .collect()
}

/// The body of a session thread: the executor and its streams, the rank
/// built from `flat`, then commands until the Trainer closes the queue.
fn serve(
    cfg: &TrainConfig,
    recorder: Option<&Recorder>,
    comm: Communicator,
    flat: Arc<Flat>,
    step: usize,
    queue: &Receiver<Command>,
) {
    let comm = Arc::new(comm);
    let plan =
        ChunkPlan::new(cfg.seq, comm.world(), cfg.mode.chunks()).expect("validated by Trainer");
    let mut exec: Box<dyn AttentionExec + '_> = match cfg.mode {
        Mode::Ring => Box::new(RingAttentionExec::new(&comm, cfg.seq)),
        Mode::Ulysses | Mode::Fpdt { .. } => {
            let ex =
                DistAttention::with_opts(Arc::clone(&comm), cfg.mode.chunks(), cfg.mode.offload(), cfg.runtime);
            Box::new(match recorder {
                Some(rec) => ex.with_recorder(rec.clone()),
                None => ex,
            })
        }
    };
    let mut rank = spanned(recorder, "segment.build", || {
        Rank::new(cfg, recorder, &comm, plan, &flat, step)
    });
    // the flat state is freed once every rank has built from it
    drop(flat);
    while let Ok(command) = queue.recv() {
        // An answer nobody waits for any more is dropped.
        match command {
            Command::Run(steps, answer) => {
                let out = rank.run(&mut *exec, steps);
                let _ = answer.send(out);
            }
            Command::Export(answer) => {
                let _ = answer.send(rank.export());
            }
            Command::Grads(answer) => {
                let _ = answer.send(rank.export_grads());
            }
            #[cfg(test)]
            Command::Call(f) => f(),
        }
    }
}

/// Everything a rank session trains with besides its executor.
struct Rank<'a> {
    cfg: &'a TrainConfig,
    recorder: Option<&'a Recorder>,
    comm: &'a Communicator,
    /// The sequence shard plan.
    plan: ChunkPlan,
    model: GptModel,
    opt: AdamW,
    corpus: Corpus,
    /// Micro-steps completed (drives warmup).
    step: usize,
    /// Whether the replica's gradient buffer holds the last completed
    /// window's reduced gradients.
    has_grads: bool,
}

impl<'a> Rank<'a> {
    /// The replica, its optimizer shard and the data stream, exactly where
    /// `flat` left them.
    fn new(
        cfg: &'a TrainConfig,
        recorder: Option<&'a Recorder>,
        comm: &'a Communicator,
        plan: ChunkPlan,
        flat: &Flat,
        step: usize,
    ) -> Self {
        let mut model = GptModel::from_params(&cfg.model, &flat.params);
        if let Some(rec) = recorder {
            model = model.with_recorder(rec.clone());
        }
        let mut opt = AdamW::new(AdamWConfig {
            lr: cfg.lr,
            ..Default::default()
        });
        // Dense: every replica steps every parameter. ZeRO-1: this rank
        // owns one contiguous slice of the flat moment vectors.
        let (lo, hi) = match cfg.zero_shard {
            true => shard_range(comm.rank(), comm.world(), flat.params.len()),
            false => (0, flat.params.len()),
        };
        opt.import_state(
            flat.opt_step,
            lo,
            flat.m[lo..hi].to_vec(),
            flat.v[lo..hi].to_vec(),
        );
        let mut corpus = Corpus::new(cfg.model.vocab, 0.05, cfg.seed ^ 0x5eed);
        corpus.set_rng_state(flat.rng);
        Rank {
            cfg,
            recorder,
            comm,
            plan,
            model,
            opt,
            corpus,
            step,
            has_grads: false,
        }
    }

    /// Runs `steps` micro-steps as whole accumulation windows; on a failed
    /// window rolls back to the last step boundary (rewind the data RNG,
    /// zero the gradients) instead of committing partial state.
    fn run(&mut self, exec: &mut dyn AttentionExec, steps: usize) -> RunOut {
        let cfg = self.cfg;
        // SPMD-symmetric fault injection, armed per call: every rank arms
        // the same faults, so failures (and recoveries) stay collective.
        if cfg.runtime.fault_inject > 0 {
            self.comm
                .inject_fault("all_gather", cfg.runtime.fault_inject);
        }
        let mlp_chunks = 2 * cfg.mode.chunks();
        let loss_chunks = (cfg.model.vocab / cfg.model.hidden * 2).max(1);
        let accum = cfg.grad_accum.max(1);
        let mut losses = Vec::with_capacity(steps / accum);
        let mut err = None;
        for _ in 0..steps / accum {
            let rng_snap = self.corpus.rng_state();
            spanned(self.recorder, "grads.zero", || self.model.zero_grad());
            self.has_grads = false;
            // linear warmup on the *global* optimizer-step counter, so
            // every call continues the schedule exactly
            if cfg.warmup_steps > 0 {
                let opt_step_no = (self.step + accum) / accum;
                let frac = (opt_step_no as f32 / cfg.warmup_steps as f32).min(1.0);
                self.opt.set_lr(cfg.lr * frac);
            }
            match self.window(exec, mlp_chunks, loss_chunks) {
                Ok((loss_sum, total_tokens)) => {
                    losses.push(loss_sum / total_tokens as f32);
                    self.step += accum;
                    self.has_grads = true;
                }
                Err(e) => {
                    err = Some(e);
                    self.corpus.set_rng_state(rng_snap);
                    self.model.zero_grad();
                    if let Some(rec) = self.recorder {
                        rec.event("recover.rollback");
                    }
                    break;
                }
            }
        }
        RunOut {
            steps: losses.len() * accum,
            losses,
            opt_bytes: self.opt.state_bytes(),
            host: exec.host_stats(),
            comm: self.comm.stats(),
            err,
        }
    }

    /// One accumulation window: forward/backward per micro-step, then the
    /// gradient sync and the optimizer step. Returns the global
    /// `(loss_sum, tokens)`.
    fn window(
        &mut self,
        exec: &mut dyn AttentionExec,
        mlp_chunks: usize,
        loss_chunks: usize,
    ) -> Result<(f32, usize), TrainError> {
        let cfg = self.cfg;
        let rank = self.comm.rank();
        let (mut loss_sum, mut tokens) = (0.0f32, 0usize);
        for _micro in 0..cfg.grad_accum.max(1) {
            let (gx, gy) = self.corpus.sample(cfg.seq);
            let (x, y, pos) = (
                self.plan.shard(rank, &gx),
                self.plan.shard(rank, &gy),
                self.plan.local_positions(rank),
            );
            let fb = if cfg.activation_checkpoint {
                self.model.forward_backward_checkpointed(
                    exec,
                    &x,
                    &y,
                    &pos,
                    mlp_chunks,
                    loss_chunks,
                )
            } else {
                self.model
                    .forward_backward(exec, &x, &y, &pos, mlp_chunks, loss_chunks)
            };
            let stats = fb.map_err(exec_error)?;
            loss_sum += stats.loss_sum;
            tokens += stats.tokens;
        }
        self.sync_and_step(loss_sum, tokens)
    }

    /// Turns the replica's local gradient buffer into the window's reduced
    /// one, in place, applies the optimizer step and returns the global
    /// `(loss_sum, tokens)`. Reductions run in deterministic rank order.
    fn sync_and_step(&mut self, loss_sum: f32, tokens: usize) -> Result<(f32, usize), TrainError> {
        // Gradients reduce in place in the replica's flat buffer, one
        // bucket at a time (the staging transient is one bucket per rank,
        // the paper's future-work fix); a replayed bucket starts from the
        // untouched local values.
        const REDUCE_BUCKET: usize = 1 << 16;
        let (comm, recorder) = (self.comm, self.recorder);
        let retries = self.cfg.runtime.comm_retries;
        // the window's first collective: a rank that arrives early waits
        // here for the slowest one
        let scalars = spanned(recorder, "sync.loss", || {
            retrying_traced(comm, retries, recorder, |c| {
                c.all_reduce(&[loss_sum, tokens as f32])
            })
        })?;
        let n = self.model.param_count();
        let reduce_span = recorder.map(|r| r.span("allreduce.grads").bytes((n * 4) as u64));
        for bucket in self.model.grads_mut().chunks_mut(REDUCE_BUCKET) {
            retrying_traced(comm, retries, recorder, |c| c.all_reduce_in_place(bucket))?;
        }
        drop(reduce_span);
        let scale = 1.0 / scalars[1];
        if self.cfg.zero_shard {
            // ZeRO-1: this rank steps its own slice of the flat parameter
            // vector with its optimizer shard, then all-gathers everyone's.
            let mut params = self.model.collect_params();
            let (lo, hi) = shard_range(comm.rank(), comm.world(), n);
            spanned(recorder, "opt.adamw", || {
                self.opt.begin_step();
                let grads = &self.model.grads()[lo..hi];
                self.opt
                    .update_scaled(lo, &mut params[lo..hi], grads, scale);
            });
            let shards =
                retrying_traced(comm, retries, recorder, |c| c.all_gather(&params[lo..hi]))?;
            let full: Vec<f32> = shards.into_iter().flatten().collect();
            self.model.set_params(&full);
        } else {
            spanned(recorder, "opt.adamw", || {
                self.model.optimizer_step(&mut self.opt, scale)
            });
        }
        Ok((scalars[0], scalars[1] as usize))
    }

    /// This rank's share of the flat state (see [`Flat`]).
    fn export(&mut self) -> Flat {
        let _span = self.recorder.map(|r| r.span("segment.export"));
        let first = self.comm.rank() == 0;
        let (_, m, v) = self.opt.moments();
        let (m, v) = match first || self.cfg.zero_shard {
            true => (m.to_vec(), v.to_vec()),
            false => Default::default(),
        };
        Flat {
            params: if first {
                self.model.collect_params()
            } else {
                Vec::new()
            },
            m,
            v,
            opt_step: self.opt.steps(),
            rng: self.corpus.rng_state(),
            grads: self.export_grads(),
        }
    }

    fn export_grads(&self) -> Vec<f32> {
        match self.comm.rank() == 0 && self.has_grads {
            true => self.model.grads().to_vec(),
            false => Vec::new(),
        }
    }
}

/// Why a Trainer has no state left.
const LOST: &str = "a rank session panicked and its share of the training state is gone; \
                    resume from a checkpoint";

/// The flat state, assembled from every session's share; `None` when a
/// rank is gone.
fn export(cfg: &TrainConfig, live: &Live) -> Option<Flat> {
    let mut shares = ask(&live.sessions, Command::Export)?.into_iter();
    let mut flat = shares.next()?;
    if cfg.zero_shard {
        // Rank order concatenates the ZeRO-1 slices exactly: their bounds
        // are the integer division every spawn uses.
        for share in shares {
            flat.m.extend(share.m);
            flat.v.extend(share.v);
        }
    }
    Some(flat)
}

// ---------------------------------------------------------------------------
// The Trainer
// ---------------------------------------------------------------------------

/// Where the [`Trainer`]'s state lives right now.
#[derive(Debug)]
enum State {
    /// Flat in host memory: before the first `run_steps`, after a resume,
    /// and after anything that shut the sessions down.
    Host(Flat),
    /// In the rank sessions.
    Live(Live),
    /// A rank panicked and took its share of the state with it.
    Lost,
}

/// A resumable, fault-tolerant training session (see the module docs).
///
/// The first `run_steps` spawns one rank session per rank from the flat
/// host state; later calls reuse them. [`Trainer::checkpoint`] cuts
/// per-rank shards from the flat state (exported from live sessions
/// without stopping them, no collective involved); [`Trainer::resume`]
/// rebuilds a `Trainer` from a shard directory. Dropping the Trainer shuts
/// its sessions down and joins every thread they own.
#[derive(Debug)]
pub struct Trainer {
    cfg: TrainConfig,
    recorder: Option<Recorder>,
    state: State,
    opt_state_bytes: usize,
    step: usize,
    losses: Vec<f32>,
    /// Rank 0's counters of every session shut down so far (and, after a
    /// resume, of the run that wrote the checkpoint).
    host: PoolStats,
    comm: CommStats,
}

impl Trainer {
    /// Initializes a session at step 0 (seeded weights, zero moments).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (heads not divisible by world,
    /// sequence not divisible by `world * chunks`) — the same contract
    /// [`train`] always had.
    pub fn new(cfg: TrainConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut model = GptModel::new(&cfg.model, cfg.seed);
        let params = model.collect_params();
        let n = params.len();
        let rng = Corpus::new(cfg.model.vocab, 0.05, cfg.seed ^ 0x5eed).rng_state();
        Trainer {
            cfg,
            recorder: None,
            state: State::Host(Flat {
                params,
                m: vec![0.0; n],
                v: vec![0.0; n],
                rng,
                ..Flat::default()
            }),
            opt_state_bytes: 0,
            step: 0,
            losses: Vec::new(),
            host: PoolStats::default(),
            comm: CommStats::default(),
        }
    }

    /// Attaches a span recorder (same instrumentation as [`train_traced`],
    /// plus `recover.retry` / `recover.rollback` events). Sessions record
    /// to the recorder they spawned with, so live ones are shut down.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.retire();
        self.recorder = Some(recorder);
        self
    }

    /// Micro-steps completed so far.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The session's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Replaces the runtime knobs (retry budgets, fault injection, payload
    /// precision, link bandwidth — all bitwise-invisible except where
    /// documented). Live sessions run under the knobs they spawned with,
    /// and under the kernel context of the thread that spawned them: they
    /// are shut down, and the next `run_steps` spawns new ones from the
    /// calling thread's context.
    pub fn set_runtime(&mut self, runtime: RuntimeOptions) {
        self.retire();
        self.cfg.runtime = runtime;
    }

    /// Elastically resizes the thread-device world. Live sessions are shut
    /// down; parameters and moments are stored flat and re-shard when the
    /// next `run_steps` spawns sessions at the new geometry.
    ///
    /// # Panics
    ///
    /// Panics when the model/sequence cannot divide across the new world
    /// (same divisibility contract as [`Trainer::new`]).
    pub fn resize(&mut self, world: usize) {
        let mut cfg = self.cfg.clone();
        cfg.world = world;
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        self.retire();
        self.cfg = cfg;
    }

    /// Runs `n` micro-steps (whole accumulation windows) on the rank
    /// sessions, spawning them first when none are live. On a collective
    /// failure past the retry budget the sessions roll back to the last
    /// completed optimizer window, the Trainer takes that state back to
    /// the flat host layout, shuts them down, and returns the error — call
    /// `run_steps` again to retry the remainder. The gradients of a
    /// rolled-back call are not reported.
    ///
    /// # Errors
    ///
    /// [`TrainError::Comm`] for collective failures, [`TrainError::Exec`]
    /// for executor failures.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not a multiple of `grad_accum` — calls must
    /// align to optimizer windows or rollback boundaries would be
    /// ambiguous. A rank's panic resumes here; the other sessions are shut
    /// down first, and the Trainer is left without state (later calls
    /// panic at once).
    pub fn run_steps(&mut self, n: usize) -> Result<(), TrainError> {
        let accum = self.cfg.grad_accum.max(1);
        assert!(
            n.is_multiple_of(accum),
            "run_steps({n}) must be a whole number of grad_accum={accum} windows"
        );
        if n == 0 {
            return Ok(());
        }
        let Some(outs) = ask(&self.live().sessions, |answer| Command::Run(n, answer)) else {
            self.lose()
        };
        let mut outs = outs.into_iter();
        let mut r0 = outs.next().expect("every group has a rank 0");
        let err = r0.err.take().or_else(|| outs.find_map(|o| o.err));
        self.step += r0.steps;
        self.losses.extend(r0.losses);
        self.opt_state_bytes = r0.opt_bytes;
        if let State::Live(live) = &mut self.state {
            (live.host, live.comm) = (r0.host, r0.comm);
        }
        match err {
            Some(e) => {
                self.retire();
                Err(e)
            }
            None => Ok(()),
        }
    }

    /// The live sessions, spawned from the flat state if there are none.
    fn live(&mut self) -> &mut Live {
        self.state = match std::mem::replace(&mut self.state, State::Lost) {
            State::Host(flat) => State::Live(Live {
                sessions: spawn(&self.cfg, self.recorder.as_ref(), flat, self.step),
                host: PoolStats::default(),
                comm: CommStats::default(),
            }),
            kept => kept,
        };
        match &mut self.state {
            State::Live(live) => live,
            _ => panic!("{LOST}"),
        }
    }

    /// Moves the state out of live sessions into the flat host layout and
    /// shuts them down. A no-op without live sessions.
    fn retire(&mut self) {
        let State::Live(live) = &self.state else {
            return;
        };
        let Some(flat) = export(&self.cfg, live) else {
            self.lose()
        };
        if let State::Live(live) = std::mem::replace(&mut self.state, State::Host(flat)) {
            self.host.merge(&live.host);
            self.comm.merge(&live.comm);
            shut_down(live.sessions);
        }
    }

    /// A rank died: shuts the other sessions down and re-raises its panic.
    fn lose(&mut self) -> ! {
        let panic = match std::mem::replace(&mut self.state, State::Lost) {
            State::Live(live) => shut_down(live.sessions),
            _ => None,
        };
        resume_unwind(panic.unwrap_or_else(|| Box::new(LOST)))
    }

    /// Rank 0's counters over every session so far.
    fn totals(&self) -> (PoolStats, CommStats) {
        let (mut host, mut comm) = (self.host, self.comm.clone());
        if let State::Live(live) = &self.state {
            host.merge(&live.host);
            comm.merge(&live.comm);
        }
        (host, comm)
    }

    /// The accumulated report — identical to what [`train`] returns for an
    /// uninterrupted run of the same steps. Live sessions keep running.
    pub fn report(&self) -> TrainReport {
        let grads = match &self.state {
            State::Host(flat) => flat.grads.clone(),
            State::Live(live) => ask(&live.sessions[..1], Command::Grads)
                .and_then(|mut grads| grads.pop())
                .unwrap_or_else(|| panic!("{LOST}")),
            State::Lost => Vec::new(),
        };
        let (host, comm) = self.totals();
        TrainReport {
            losses: self.losses.clone(),
            host,
            opt_state_bytes: self.opt_state_bytes,
            comm,
            grads,
        }
    }

    /// Replicated (world-independent) metadata every shard carries.
    fn meta_dict(&self, flat: &Flat) -> StateDict {
        let cfg = &self.cfg;
        let (host, comm) = self.totals();
        let mut d = StateDict::new();
        d.insert("cfg.model.name", StateValue::Str(cfg.model.name.clone()));
        d.insert(
            "cfg.model.family",
            StateValue::Str(
                match cfg.model.family {
                    Family::Gpt => "gpt",
                    Family::Llama => "llama",
                }
                .into(),
            ),
        );
        d.insert(
            "cfg.model.dims",
            StateValue::U64(vec![
                cfg.model.layers as u64,
                cfg.model.hidden as u64,
                cfg.model.heads as u64,
                cfg.model.kv_heads as u64,
                cfg.model.ffn_hidden as u64,
                cfg.model.vocab as u64,
            ]),
        );
        d.insert(
            "cfg.train",
            StateValue::U64(vec![
                cfg.world as u64,
                cfg.seq as u64,
                cfg.steps as u64,
                cfg.grad_accum as u64,
                cfg.warmup_steps as u64,
                u64::from(cfg.zero_shard),
                u64::from(cfg.activation_checkpoint),
                cfg.seed,
            ]),
        );
        d.insert("cfg.lr", StateValue::F32(vec![cfg.lr]));
        d.insert("cfg.mode", StateValue::Str(cfg.mode.as_str()));
        d.insert("trainer.step", StateValue::U64(vec![self.step as u64]));
        d.insert("opt.step", StateValue::U64(vec![flat.opt_step]));
        d.insert(
            "opt.state_bytes",
            StateValue::U64(vec![self.opt_state_bytes as u64]),
        );
        d.insert("rng.state", StateValue::U64(flat.rng.to_vec()));
        d.insert("trainer.losses", StateValue::F32(self.losses.clone()));
        d.insert("trainer.grads", StateValue::F32(flat.grads.clone()));
        d.insert(
            "stats.pool",
            StateValue::U64(vec![
                host.offloads,
                host.fetches,
                host.bytes,
                host.peak_bytes,
                host.bytes_offloaded,
                host.bytes_fetched,
            ]),
        );
        d.insert(
            "stats.comm.ops",
            StateValue::Str(
                comm.ops
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
        );
        d.insert(
            "stats.comm.counts",
            StateValue::U64(
                comm.ops
                    .iter()
                    .flat_map(|(_, s)| [s.sends, s.recvs, s.bytes_sent, s.bytes_recv])
                    .collect(),
            ),
        );
        d.insert(
            "stats.comm.recovery",
            StateValue::U64(vec![comm.faults, comm.retries]),
        );
        d
    }

    /// Writes a sharded checkpoint: one `shard-{rank}-of-{world}.fpdt`
    /// per configured rank, each holding the replicated metadata plus that
    /// rank's contiguous slice of the flat parameters and moments. Cut
    /// from the flat state between calls — copied out of live sessions,
    /// which keep running — so no collective is involved.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s for any filesystem failure;
    /// [`CkptError::Missing`] when a rank panicked and took its state with
    /// it.
    pub fn checkpoint(&self, dir: &Path) -> Result<(), CkptError> {
        let exported;
        let flat = match &self.state {
            State::Host(flat) => flat,
            State::Live(live) => {
                exported = export(&self.cfg, live);
                exported
                    .as_ref()
                    .ok_or_else(|| CkptError::Missing(LOST.into()))?
            }
            State::Lost => return Err(CkptError::Missing(LOST.into())),
        };
        let world = self.cfg.world;
        let n = flat.params.len();
        for rank in 0..world {
            let (lo, hi) = shard_range(rank, world, n);
            let mut d = self.meta_dict(flat);
            d.insert("meta.rank", StateValue::U64(vec![rank as u64]));
            d.insert(
                "model.params.shard",
                StateValue::F32(flat.params[lo..hi].to_vec()),
            );
            d.insert("opt.m.shard", StateValue::F32(flat.m[lo..hi].to_vec()));
            d.insert("opt.v.shard", StateValue::F32(flat.v[lo..hi].to_vec()));
            ckpt::write_shard(dir, rank, world, &d)?;
        }
        Ok(())
    }

    /// Rebuilds a session from a sharded checkpoint directory. The
    /// training configuration is restored from the shards; runtime knobs
    /// come from the current `FPDT_*` environment (they are policy, not
    /// state).
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s: missing or extra shards, truncation, version
    /// mismatches, replicated metadata that disagrees between shards, or
    /// state that does not fit the recorded architecture.
    pub fn resume(dir: &Path) -> Result<Self, CkptError> {
        let paths = ckpt::shard_paths(dir)?;
        let shards: Vec<StateDict> = paths
            .iter()
            .map(|p| ckpt::read_shard(p))
            .collect::<Result<_, _>>()?;
        let meta = &shards[0];
        let dims = meta.u64s_n::<6>("cfg.model.dims")?;
        let family = match meta.str("cfg.model.family")? {
            "gpt" => Family::Gpt,
            "llama" => Family::Llama,
            other => {
                return Err(CkptError::Corrupt(format!("unknown model family {other:?}")))
            }
        };
        let model = ModelConfig {
            name: meta.str("cfg.model.name")?.to_string(),
            family,
            layers: dims[0] as usize,
            hidden: dims[1] as usize,
            heads: dims[2] as usize,
            kv_heads: dims[3] as usize,
            ffn_hidden: dims[4] as usize,
            vocab: dims[5] as usize,
        };
        let t = meta.u64s_n::<8>("cfg.train")?;
        if t[0] as usize != shards.len() {
            return Err(CkptError::Corrupt(format!(
                "config world {} disagrees with {} shards",
                t[0],
                shards.len()
            )));
        }
        let lr_entry = meta.f32s("cfg.lr")?;
        let cfg = TrainConfig {
            model,
            world: t[0] as usize,
            seq: t[1] as usize,
            steps: t[2] as usize,
            grad_accum: t[3] as usize,
            warmup_steps: t[4] as usize,
            zero_shard: t[5] != 0,
            activation_checkpoint: t[6] != 0,
            seed: t[7],
            lr: *lr_entry.first().ok_or_else(|| {
                CkptError::Corrupt("cfg.lr is empty".into())
            })?,
            mode: Mode::parse(meta.str("cfg.mode")?)?,
            runtime: RuntimeOptions::from_env(),
        };
        cfg.validate().map_err(|e| {
            CkptError::Corrupt(format!("checkpointed geometry cannot run: {e}"))
        })?;

        let mut params = Vec::new();
        let mut m = Vec::new();
        let mut v = Vec::new();
        for (rank, shard) in shards.iter().enumerate() {
            if shard.u64_scalar("meta.rank")? != rank as u64 {
                return Err(CkptError::Corrupt(format!(
                    "shard {rank} carries the wrong rank id"
                )));
            }
            for key in ["trainer.step", "opt.step"] {
                if shard.u64_scalar(key)? != meta.u64_scalar(key)? {
                    return Err(CkptError::Corrupt(format!(
                        "replicated {key} disagrees between shards 0 and {rank}"
                    )));
                }
            }
            params.extend_from_slice(shard.f32s("model.params.shard")?);
            m.extend_from_slice(shard.f32s("opt.m.shard")?);
            v.extend_from_slice(shard.f32s("opt.v.shard")?);
        }
        let expected = GptModel::param_count_of(&cfg.model);
        if Some(params.len()) != expected {
            return Err(CkptError::Corrupt(format!(
                "shards hold {} parameters, architecture expects {expected:?}",
                params.len()
            )));
        }
        if m.len() != params.len() || v.len() != params.len() {
            return Err(CkptError::Corrupt(format!(
                "moment vectors ({}, {}) do not match {} parameters",
                m.len(),
                v.len(),
                params.len()
            )));
        }

        let rng = meta.u64s_n::<4>("rng.state")?;
        let [offloads, fetches, bytes, peak_bytes, bytes_offloaded, bytes_fetched] = meta.u64s_n("stats.pool")?;
        let host = PoolStats {
            offloads,
            fetches,
            bytes,
            peak_bytes,
            bytes_offloaded,
            bytes_fetched,
        };
        let op_names: Vec<&str> = {
            let raw = meta.str("stats.comm.ops")?;
            if raw.is_empty() {
                Vec::new()
            } else {
                raw.split('\n').collect()
            }
        };
        let counts = meta.u64s("stats.comm.counts")?;
        if counts.len() != op_names.len() * 4 {
            return Err(CkptError::Corrupt(format!(
                "stats.comm.counts has {} values for {} ops",
                counts.len(),
                op_names.len()
            )));
        }
        let [faults, retries] = meta.u64s_n("stats.comm.recovery")?;
        let comm = CommStats {
            ops: op_names
                .iter()
                .zip(counts.chunks_exact(4))
                .map(|(name, c)| {
                    (
                        name.to_string(),
                        fpdt_comm::OpStats {
                            sends: c[0],
                            recvs: c[1],
                            bytes_sent: c[2],
                            bytes_recv: c[3],
                        },
                    )
                })
                .collect(),
            recv_wait: std::time::Duration::ZERO,
            faults,
            retries,
        };

        Ok(Trainer {
            step: meta.u64_scalar("trainer.step")? as usize,
            opt_state_bytes: meta.u64_scalar("opt.state_bytes")? as usize,
            losses: meta.f32s("trainer.losses")?.to_vec(),
            state: State::Host(Flat {
                params,
                m,
                v,
                opt_step: meta.u64_scalar("opt.step")?,
                rng,
                grads: meta.f32s("trainer.grads")?.to_vec(),
            }),
            cfg,
            recorder: None,
            host,
            comm,
        })
    }
}

impl Drop for Trainer {
    /// Shuts the rank sessions down and joins their threads, the only
    /// threads a Trainer owns.
    fn drop(&mut self) {
        if let State::Live(live) = std::mem::replace(&mut self.state, State::Lost) {
            shut_down(live.sessions);
        }
    }
}

/// Runs a training experiment, returning the per-step mean losses.
///
/// A thin wrapper over [`Trainer`]: `Trainer::new(cfg)` + one
/// `run_steps` call covering every whole accumulation window in
/// `cfg.steps`.
///
/// # Panics
///
/// Panics on inconsistent configuration (heads not divisible by world,
/// sequence not divisible by `world * chunks`) or internal errors — this
/// is an experiment driver, not a library entry point.
pub fn train(cfg: &TrainConfig) -> TrainReport {
    train_traced(cfg, None)
}

/// [`train`] with wall-clock instrumentation: when a [`Recorder`] is
/// given, every rank records spans for its per-chunk all-to-alls,
/// attention chunks, host offload copies, and gradient all-reduces
/// (export with [`Recorder::chrome_trace_json`]).
///
/// # Panics
///
/// Same conditions as [`train`].
pub fn train_traced(cfg: &TrainConfig, recorder: Option<&Recorder>) -> TrainReport {
    let mut trainer = Trainer::new(cfg.clone());
    if let Some(rec) = recorder {
        trainer = trainer.with_recorder(rec.clone());
    }
    let accum = cfg.grad_accum.max(1);
    trainer
        .run_steps(cfg.steps / accum * accum)
        .expect("training step failed");
    trainer.report()
}

/// Test fixture: [`TrainConfig::small`] with f32 payloads pinned. The
/// cross-mode loss comparisons below assume f32 wires at their tight
/// tolerances, so an ambient `FPDT_BF16=1` must not leak into them; bf16
/// numerics get their own dedicated tolerance test.
#[cfg(test)]
fn small_f32(mode: Mode) -> TrainConfig {
    let mut cfg = TrainConfig::small(mode);
    cfg.runtime = cfg.runtime.with_payload_bf16(false);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn single_mode_learns() {
        let cfg = TrainConfig {
            world: 1,
            steps: 25,
            ..TrainConfig::default()
        };
        let r = train(&cfg);
        assert_eq!(r.losses.len(), 25);
        assert!(
            r.losses.last().unwrap() < &(r.losses[0] * 0.8),
            "{} -> {}",
            r.losses[0],
            r.losses.last().unwrap()
        );
    }

    #[test]
    fn figure14_fpdt_matches_baseline_losses() {
        // The paper's Figure 14/§5.6 claim: FPDT (with and without
        // offload) is numerically equivalent to the baseline — identical
        // loss curves up to float reassociation.
        let base = TrainConfig {
            steps: 8,
            ..small_f32(Mode::Ulysses)
        };
        let single = train(&TrainConfig {
            world: 1,
            ..base.clone()
        });
        let ulysses = train(&base);
        let fpdt = train(&TrainConfig {
            mode: Mode::Fpdt {
                chunks: 4,
                offload: false,
            },
            ..base.clone()
        });
        let fpdt_off = train(&TrainConfig {
            mode: Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            ..base.clone()
        });

        assert!(
            close(&single.losses, &ulysses.losses, 2e-3),
            "ulysses: {:?} vs {:?}",
            single.losses,
            ulysses.losses
        );
        assert!(
            close(&single.losses, &fpdt.losses, 2e-3),
            "fpdt: {:?} vs {:?}",
            single.losses,
            fpdt.losses
        );
        assert!(
            close(&single.losses, &fpdt_off.losses, 2e-3),
            "fpdt+offload"
        );
        // offload actually exercised the host pool
        assert!(fpdt_off.host.offloads > 0);
        assert_eq!(fpdt.host.offloads, 0);
    }

    #[test]
    fn ranks_agree_bitwise() {
        // With deterministic reductions, reruns are bit-identical.
        let cfg = TrainConfig {
            steps: 5,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            ..TrainConfig::default()
        };
        let a = train(&cfg);
        let b = train(&cfg);
        assert_eq!(a.losses, b.losses);
    }

    #[test]
    fn link_time_sits_on_virtual_tracks_and_only_ranks_wait() {
        // Overlap as placement, not timing. A Trainer is its rank threads
        // at every link: over a priced link every all-to-all's and every
        // transfer's wire time is an interval on its link's named track
        // (`fpdt-comm-r0`, `fpdt-h2d-r0`, ...), never on a thread that
        // runs blocks, and only rank threads wait; the read pass of a
        // transfer runs on its rank. Over a free link there is no wire
        // time: no link interval and no sleeping wait. (0.05 GB/s charges
        // the fixture's transfers tens of microseconds each.)
        for sim_gbps in [0.05, 0.0] {
            for threads in [1usize, 2] {
                for payload_bf16 in [false, true] {
                    let what = format!("{sim_gbps} GB/s, budget {threads}, bf16 {payload_bf16}");
                    let cfg = TrainConfig {
                        steps: 2,
                        mode: Mode::Fpdt {
                            chunks: 4,
                            offload: true,
                        },
                        runtime: RuntimeOptions::from_env()
                            .with_payload_bf16(payload_bf16)
                            .with_sim_gbps(sim_gbps),
                        ..TrainConfig::default()
                    };
                    let rec = Recorder::new();
                    let ctx = KernelCtx {
                        threads,
                        ..KernelCtx::current()
                    };
                    ctx.enter(|| train_traced(&cfg, Some(&rec)));
                    let spans = rec.records();
                    let ranks: std::collections::HashSet<u64> = spans
                        .iter()
                        .filter(|s| s.label == "block.fwd")
                        .map(|s| s.tid)
                        .collect();
                    assert_eq!(ranks.len(), cfg.world, "one thread per rank ({what})");
                    let on_ranks = |label: &str| spans.iter().filter(|s| s.label == label).all(|s| ranks.contains(&s.tid));
                    for label in ["offload.put", "offload.fetch", "comm.post"] {
                        assert!(spans.iter().any(|s| s.label == label), "no {label} spans ({what})");
                    }
                    for label in ["offload.fetch", "comm.post", "comm.wait", "offload.wait"] {
                        assert!(on_ranks(label), "{label} off the ranks ({what})");
                    }
                    let links: std::collections::HashSet<u64> = spans
                        .iter()
                        .filter(|s| ["comm.inflight", "offload.prefetch"].contains(&s.label.as_str()))
                        .map(|s| s.tid)
                        .collect();
                    if sim_gbps > 0.0 {
                        assert!(links.is_disjoint(&ranks), "link time on a rank thread ({what})");
                        // comm and h2d tracks of both ranks
                        assert_eq!(links.len(), 2 * cfg.world, "{what}");
                        let trace = rec.chrome_trace_json();
                        for track in ["fpdt-comm-r1", "fpdt-d2h-r0", "fpdt-h2d-r1"] {
                            assert!(trace.contains(track), "no {track} track ({what})");
                        }
                    } else {
                        assert!(links.is_empty(), "a free link recorded wire time ({what})");
                        assert_eq!(rec.count("offload.wait"), 0, "a free transfer waited ({what})");
                    }
                }
            }
        }
    }

    #[test]
    fn a_blocks_attention_opening_is_read_before_its_mlp_backward() {
        // Program order, so it holds at any link speed: in every block's
        // backward the read pass of each chunk the attention backward's
        // first slot takes — KV 0, the [Q, Lse] rows slot 0 opens, KV 1 —
        // runs on the rank thread before `dense.mlp.bwd` starts, and no
        // other fetch does.
        let u = 4;
        let cfg = TrainConfig {
            steps: 1,
            mode: Mode::Fpdt {
                chunks: u,
                offload: true,
            },
            ..TrainConfig::default()
        };
        let rec = Recorder::new();
        train_traced(&cfg, Some(&rec));
        let spans = rec.records();
        let rows = crate::chunk::tile_slots(u)[0].iter().filter(|&&(_, j)| j == 0).count();
        let staged = 2 + 2 * rows + 2;
        let blocks: Vec<_> = spans.iter().filter(|s| s.label == "block.bwd").collect();
        assert_eq!(blocks.len(), cfg.world * cfg.model.layers, "two layers on two ranks");
        for b in blocks {
            let starts = |label: &str| -> Vec<f64> {
                spans
                    .iter()
                    .filter(|s| s.tid == b.tid && s.label == label)
                    .filter(|s| s.start_us >= b.start_us && s.start_us < b.start_us + b.dur_us)
                    .map(|s| s.start_us)
                    .collect()
            };
            let mlp = starts("dense.mlp.bwd");
            assert_eq!(mlp.len(), 1, "one MLP backward per block");
            let fetches = starts("offload.fetch");
            let early = fetches.iter().filter(|&&t| t < mlp[0]).count();
            assert_eq!(early, staged, "fetches before the MLP backward, of {}", fetches.len());
        }
    }

    #[test]
    fn a_blocks_dense_half_runs_on_each_attention_chunk_as_it_lands() {
        // Program order, so it holds at any link speed: every block's
        // forward runs `out_proj` once per attention output chunk and its
        // backward the qkv backward once per gradient chunk, and the first
        // chunk's MLP runs before the wait on the layer's last `O` gather
        // (at two ranks each gather's wait runs its receive and records a
        // `comm.wait`; the last one in a forward is that gather's).
        let u = 4;
        let cfg = TrainConfig {
            steps: 1,
            mode: Mode::Fpdt {
                chunks: u,
                offload: true,
            },
            ..TrainConfig::default()
        };
        let rec = Recorder::new();
        train_traced(&cfg, Some(&rec));
        let spans = rec.records();
        let inside = |b: &fpdt_trace::SpanRecord, label: &str| -> Vec<f64> {
            let mut starts: Vec<f64> = spans
                .iter()
                .filter(|s| s.tid == b.tid && s.label == label)
                .filter(|s| s.start_us >= b.start_us && s.start_us < b.start_us + b.dur_us)
                .map(|s| s.start_us)
                .collect();
            starts.sort_by(f64::total_cmp);
            starts
        };
        let blocks = |label: &str| -> Vec<&fpdt_trace::SpanRecord> { spans.iter().filter(|s| s.label == label).collect() };
        let layers = cfg.world * cfg.model.layers;
        assert_eq!(blocks("block.fwd").len(), layers, "two layers on two ranks");
        assert_eq!(blocks("block.bwd").len(), layers, "two layers on two ranks");
        for b in blocks("block.fwd") {
            assert_eq!(inside(b, "dense.out_proj").len(), u, "out_proj per output chunk");
            let mlp = inside(b, "dense.mlp.fwd");
            let waits = inside(b, "comm.wait");
            let last_o = waits.last().expect("the O gathers are waited");
            assert!(mlp[0] < *last_o, "first MLP at {}, last O wait at {last_o}", mlp[0]);
        }
        for b in blocks("block.bwd") {
            assert_eq!(inside(b, "dense.qkv").len(), u, "qkv backward per gradient chunk");
        }
    }

    #[test]
    fn traced_training_records_spans_and_comm_traffic() {
        let cfg = TrainConfig {
            steps: 2,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            ..TrainConfig::default()
        };
        let rec = Recorder::new();
        let r = train_traced(&cfg, Some(&rec));
        // Tracing must not perturb the trajectory.
        assert_eq!(r.losses, train(&cfg).losses);
        // Every instrumented phase shows up.
        for prefix in [
            "a2a.",
            "attn.fwd.",
            "attn.bwd.",
            "offload.",
            "allreduce.",
            "block.",
        ] {
            assert!(rec.total_us(prefix) >= 0.0);
            assert!(
                rec.records().iter().any(|s| s.label.starts_with(prefix)),
                "no {prefix} spans"
            );
        }
        // The dense half reports under its own labels, clear of the
        // prefixes the executor's reducers read.
        for label in [
            "dense.norm",
            "dense.qkv",
            "dense.out_proj",
            "dense.mlp.fwd",
            "dense.mlp.bwd",
            "head.loss",
            "embed",
            "opt.adamw",
            "grads.zero",
            "allreduce.grads",
            "sync.loss",
            "segment.build",
        ] {
            assert!(rec.count(label) > 0, "no {label} span");
        }
        // The gradients reduce in place and the optimizer reads them where
        // they lie: no pass that only moves them.
        for label in ["grads.collect", "grads.set"] {
            assert_eq!(rec.count(label), 0, "{label} is back");
        }
        // Named leaf categories (not the `block.*` containers) account for
        // a rank thread's life, first span to last: a ratio inside one
        // run, so host speed cancels. Tiny shapes leave more glue between
        // spans than the benchmark's (0.95 and up there). Both ranks run
        // the same code and a thread descheduled between two spans can
        // only lower its share (one 3 ms preemption is a quarter of this
        // run), so the better-covered rank is the estimate.
        let named = [
            "dense.",
            "head.",
            "embed",
            "opt.",
            "grads.",
            "segment.",
            "sync.",
            "allreduce.",
            "slot.",
            "attn.",
            "a2a.",
            "kernel.",
            "comm.",
            "offload.",
        ];
        let spans = rec.records();
        let mut ranks: Vec<u64> = spans
            .iter()
            .filter(|s| s.label.starts_with("block."))
            .map(|s| s.tid)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), 2);
        let covered = ranks.iter().map(|&tid| {
            let own: Vec<_> = spans.iter().filter(|s| s.tid == tid).cloned().collect();
            let life = (
                own.iter().map(|s| s.start_us).fold(f64::INFINITY, f64::min),
                own.iter()
                    .map(|s| s.start_us + s.dur_us)
                    .fold(0.0, f64::max),
            );
            fpdt_trace::metrics::coverage(&own, life, &named)
        });
        let covered = covered.fold(0.0, f64::max);
        assert!(covered >= 0.8, "named spans cover only {covered:.3}");
        // The trace exports and mentions both ranks' threads.
        let trace = rec.chrome_trace_json();
        assert!(trace.contains("\"allreduce.grads\""));
        // Comm counters saw the gradient all-reduce and the per-chunk
        // all-to-alls.
        assert!(r.comm.op("all_gather").is_some(), "{:?}", r.comm);
        assert!(r.comm.op("all_to_all").is_some());
        assert!(r.comm.total_bytes_sent() > 0);
    }

    /// The live sessions of a Trainer that has run.
    fn sessions(trainer: &Trainer) -> &[Session] {
        match &trainer.state {
            State::Live(live) => &live.sessions,
            _ => panic!("no live sessions"),
        }
    }

    #[test]
    fn sessions_run_under_the_split_context_of_the_first_calling_thread() {
        // A session's kernel context is the one the thread that spawned it
        // ran under, its budget split across the ranks: what keeps two
        // ranks sharing `FPDT_THREADS` at the budget of one run. A later
        // call from another context reuses the live sessions as they are.
        let caller = KernelCtx {
            threads: 8,
            par_threshold: 12345,
            ..KernelCtx::current()
        };
        for world in [2usize, 4] {
            let mut trainer = Trainer::new(TrainConfig {
                world,
                mode: Mode::Fpdt {
                    chunks: 2,
                    offload: false,
                },
                ..TrainConfig::default()
            });
            caller.enter(|| trainer.run_steps(1)).expect("healthy call");
            trainer.run_steps(1).expect("healthy call");
            let seen = ask(sessions(&trainer), |answer| {
                Command::Call(Box::new(move || {
                    let _ = answer.send(KernelCtx::current());
                }))
            })
            .expect("sessions alive");
            assert_eq!(seen, vec![caller.split(world); world], "world {world}");
        }
    }

    #[test]
    fn a_rank_panic_propagates_and_leaves_no_session_to_hang_on() {
        let cfg = TrainConfig {
            steps: 2,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(cfg);
        trainer.run_steps(1).expect("healthy call");
        // Rank 1 dies the way a bug in its own code would take it down.
        let dead = Command::Call(Box::new(|| panic!("rank 1 is gone")));
        assert!(sessions(&trainer)[1].commands.send(dead).is_ok());
        let call = |t: &mut Trainer| catch_unwind(AssertUnwindSafe(|| t.run_steps(1)));
        let panic = call(&mut trainer).expect_err("the rank's panic resumes out of run_steps");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"rank 1 is gone"));
        assert!(matches!(trainer.state, State::Lost));
        // Nothing is left to wait on: the next call fails at once.
        let again = call(&mut trainer).expect_err("no state left to train");
        assert_eq!(
            again.downcast_ref::<String>().map(String::as_str),
            Some(LOST)
        );
        assert!(trainer.report().grads.is_empty());
        let dir = std::env::temp_dir().join(format!("fpdt-lost-{}", std::process::id()));
        assert!(matches!(
            trainer.checkpoint(&dir),
            Err(CkptError::Missing(_))
        ));
    }

    #[test]
    fn ranks_own_exactly_their_integer_division_range() {
        // Ring has no head constraint, so three ranks can split a
        // parameter count three does not divide.
        let base = TrainConfig {
            model: ModelConfig::tiny(1, 32, 4, 50),
            world: 3,
            seq: 36,
            steps: 2,
            mode: Mode::Ring,
            ..TrainConfig::default()
        };
        for zero_shard in [false, true] {
            let cfg = TrainConfig {
                zero_shard,
                ..base.clone()
            };
            let n = GptModel::param_count_of(&cfg.model).expect("small model");
            assert_ne!(n % 3, 0, "pick a count the world does not divide");
            let mut trainer = Trainer::new(cfg.clone());
            trainer.run_steps(2).expect("healthy call");
            let runs = ask(sessions(&trainer), |answer| Command::Run(2, answer)).expect("alive");
            let shares = ask(sessions(&trainer), Command::Export).expect("alive");
            assert_eq!(shares.len(), 3);
            for (rank, (run, share)) in runs.iter().zip(&shares).enumerate() {
                assert!(run.err.is_none());
                let own = match (zero_shard, rank) {
                    (true, _) => rank * n / 3..(rank + 1) * n / 3,
                    (false, 0) => 0..n,
                    // dense replicas other than rank 0 hand nothing back
                    (false, _) => 0..0,
                };
                assert_eq!(share.m.len(), own.len(), "rank {rank}, zero {zero_shard}");
                assert_eq!(share.v.len(), own.len());
                let held = if zero_shard { own.len() } else { n };
                assert_eq!(run.opt_bytes, held * 8, "two f32 moments per owned element");
                // only rank 0's parameters and gradients come back
                let kept = if rank == 0 { n } else { 0 };
                assert_eq!((share.params.len(), share.grads.len()), (kept, kept));
            }
            if zero_shard {
                assert_eq!(shares.iter().map(|o| o.m.len()).sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn resume_with_a_doctored_geometry_is_corrupt_not_a_panic() {
        let cfg = TrainConfig {
            steps: 2,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: false,
            },
            ..TrainConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("fpdt-doctored-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut trainer = Trainer::new(cfg);
        trainer.run_steps(2).expect("healthy call");
        trainer.checkpoint(&dir).expect("checkpoint");
        assert!(Trainer::resume(&dir).is_ok());
        let paths = ckpt::shard_paths(&dir).expect("two shards");
        let pristine: Vec<StateDict> = paths.iter().map(|p| ckpt::read_shard(p).unwrap()).collect();
        // rewrites field `at` of one replicated entry in every shard
        let doctor = |key: &str, at: usize, value: u64| {
            for (rank, shard) in pristine.iter().enumerate() {
                let mut values = shard.u64s(key).unwrap().to_vec();
                values[at] = value;
                let mut d = shard.clone();
                d.insert(key, StateValue::U64(values));
                ckpt::write_shard(&dir, rank, pristine.len(), &d).unwrap();
            }
            Trainer::resume(&dir).unwrap_err()
        };
        // cfg.train = [world, seq, ..]; cfg.model.dims = [layers, hidden,
        // heads, kv_heads, ffn, vocab]
        for (key, at, value) in [
            ("cfg.train", 1, 62),      // seq no longer divides world x chunks
            ("cfg.train", 1, 0),       // no sequence at all
            ("cfg.model.dims", 2, 3),  // heads do not scatter over 2 ranks
            ("cfg.model.dims", 2, 0),  // no heads: head_dim would divide by zero
            ("cfg.model.dims", 5, 51), // runs, but is not what the vectors fit
        ] {
            let err = doctor(key, at, value);
            assert!(matches!(err, CkptError::Corrupt(_)), "{key}[{at}]: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gradient_reduction_sends_only_to_peers() {
        // Per optimizer step, rank 0 all-gathers the loss scalars once and
        // the gradients once per bucket, each call one message to each of
        // its `world - 1` peers: its own contribution is summed in place.
        for world in [2usize, 4] {
            let cfg = TrainConfig {
                world,
                steps: 2,
                ..small_f32(Mode::Ulysses)
            };
            let r = train(&cfg);
            let n = r.grads.len();
            let peers = (world - 1) as u64;
            let calls = (1 + n.div_ceil(1 << 16)) as u64;
            let op = r.comm.op("all_gather").expect("gradients reduced");
            assert_eq!((op.sends, op.recvs), (2 * calls * peers, 2 * calls * peers), "world {world}");
            assert_eq!(op.bytes_sent, 2 * 4 * (2 + n as u64) * peers, "world {world}");
            assert_eq!(op.bytes_recv, op.bytes_sent, "world {world}");
        }
    }

    #[test]
    fn bf16_payload_training_stays_close_with_identical_schedule() {
        // The FPDT_BF16 contract at the training level: same schedule
        // (transfer and message counts; all-to-all bytes exactly halved),
        // losses within bf16 rounding tolerance of the f32 run.
        let base = TrainConfig {
            steps: 6,
            ..small_f32(Mode::Fpdt {
                chunks: 4,
                offload: true,
            })
        };
        let full = train(&base);
        let mut bf_cfg = base.clone();
        bf_cfg.runtime = bf_cfg.runtime.with_payload_bf16(true);
        let half = train(&bf_cfg);
        assert!(
            close(&full.losses, &half.losses, 5e-2),
            "bf16 drift: {:?} vs {:?}",
            full.losses,
            half.losses
        );
        assert!(
            half.losses.last().unwrap() < &half.losses[0],
            "still learns under bf16: {:?}",
            half.losses
        );
        // Schedule shape is invariant.
        assert_eq!(full.host.offloads, half.host.offloads, "offload count");
        assert_eq!(full.host.fetches, half.host.fetches, "fetch count");
        assert!(
            half.host.bytes_offloaded < full.host.bytes_offloaded,
            "KV offload bytes shrink"
        );
        let af = full.comm.op("all_to_all").expect("f32 a2a");
        let ab = half.comm.op("all_to_all").expect("bf16 a2a");
        assert_eq!(af.sends, ab.sends, "same a2a message count");
        assert_eq!(af.recvs, ab.recvs);
        assert_eq!(ab.bytes_sent * 2, af.bytes_sent, "bytes_a2a halve exactly");
        // The gradient all-reduce stays full precision.
        let gf = full.comm.op("all_gather").expect("grad reduce");
        let gb = half.comm.op("all_gather").expect("grad reduce");
        assert_eq!(gf.bytes_sent, gb.bytes_sent, "all-reduce stays f32");
    }

    #[test]
    #[should_panic(expected = "sequence must divide")]
    fn bad_chunking_panics() {
        let cfg = TrainConfig {
            seq: 30,
            mode: Mode::Fpdt {
                chunks: 4,
                offload: false,
            },
            ..TrainConfig::default()
        };
        train(&cfg);
    }
}

#[cfg(test)]
mod llama_tests {
    use super::*;

    #[test]
    fn llama_family_fpdt_matches_baseline() {
        // The paper trains both GPT and Llama; the equivalence claim must
        // hold under RMSNorm + SwiGLU + grouped-query attention too.
        let base = TrainConfig {
            model: ModelConfig::tiny_llama(2, 32, 4, 2, 48),
            world: 2,
            seq: 64,
            steps: 8,
            lr: 3e-3,
            seed: 7,
            ..small_f32(Mode::Ulysses)
        };
        let single = train(&TrainConfig {
            world: 1,
            ..base.clone()
        });
        assert!(
            single.losses.last().unwrap() < &single.losses[0],
            "llama learns: {:?}",
            single.losses
        );
        for mode in [
            Mode::Ulysses,
            Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
        ] {
            let run = train(&TrainConfig {
                mode,
                ..base.clone()
            });
            for (a, b) in run.losses.iter().zip(&single.losses) {
                assert!((a - b).abs() < 5e-3, "{mode:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "kv heads must divide")]
    fn gqa_kv_heads_must_divide_world() {
        let cfg = TrainConfig {
            model: ModelConfig::tiny_llama(1, 32, 4, 2, 48),
            world: 4, // 2 kv heads cannot scatter over 4 ranks
            seq: 64,
            steps: 1,
            lr: 1e-3,
            seed: 0,
            mode: Mode::Ulysses,
            ..TrainConfig::default()
        };
        train(&cfg);
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;

    #[test]
    fn ring_attention_matches_baseline_losses() {
        // Ring Attention is also exact (blockwise online attention +
        // rotating gradients): same trajectory as the single-device run.
        let base = TrainConfig {
            world: 1,
            steps: 8,
            ..TrainConfig::default()
        };
        let single = train(&base);
        let ring = train(&TrainConfig {
            mode: Mode::Ring,
            world: 4,
            ..base.clone()
        });
        for (a, b) in ring.losses.iter().zip(&single.losses) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn ring_works_with_odd_head_counts() {
        // Unlike Ulysses, ring attention has no head-divisibility
        // constraint: 3 heads on 2 ranks is fine.
        let cfg = TrainConfig {
            model: ModelConfig::tiny(1, 48, 3, 40),
            world: 2,
            seq: 32,
            steps: 3,
            lr: 1e-3,
            seed: 5,
            mode: Mode::Ring,
            ..TrainConfig::default()
        };
        let r = train(&cfg);
        assert!(r.losses.iter().all(|l| l.is_finite()));
    }
}

#[cfg(test)]
mod accum_tests {
    use super::*;

    #[test]
    fn accumulation_equivalence_across_modes() {
        // Grad accumulation is a data-layout question orthogonal to the
        // parallel strategy: FPDT with accumulation must match the
        // single-device run with accumulation, window for window.
        let base = TrainConfig {
            steps: 8,
            grad_accum: 2,
            ..small_f32(Mode::Ulysses)
        };
        let single = train(&TrainConfig {
            world: 1,
            ..base.clone()
        });
        assert_eq!(single.losses.len(), 4, "one record per optimizer step");
        let fpdt = train(&TrainConfig {
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            ..base.clone()
        });
        for (a, b) in fpdt.losses.iter().zip(&single.losses) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn accumulation_learns() {
        let cfg = TrainConfig {
            steps: 24,
            grad_accum: 3,
            ..TrainConfig::default()
        };
        let r = train(&cfg);
        assert_eq!(r.losses.len(), 8);
        assert!(r.losses.last().unwrap() < &r.losses[0]);
    }
}


#[cfg(test)]
mod warmup_tests {
    use super::*;

    #[test]
    fn warmup_changes_early_steps_but_still_matches_across_modes() {
        let base = TrainConfig {
            world: 1,
            steps: 10,
            warmup_steps: 5,
            ..small_f32(Mode::Ulysses)
        };
        let plain = train(&TrainConfig {
            warmup_steps: 0,
            ..base.clone()
        });
        let warm = train(&base);
        // warmup slows early progress
        assert!(warm.losses[2] >= plain.losses[2] - 1e-4);
        // and the equivalence claim holds under warmup too
        let warm_fpdt = train(&TrainConfig {
            world: 2,
            mode: Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            ..base.clone()
        });
        for (a, b) in warm_fpdt.losses.iter().zip(&warm.losses) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }
}
